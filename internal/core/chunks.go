package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/params"
)

// Chunked exact sweeps. A MethodExactChain grid is answered by the
// appendix recurrences (NIRMTTDLRecursive, IRMTTDLExact): the same exact
// MTTDL the chain describes, computed without building or factoring a
// chain, and free of the float64 LU's cancellation at deep fault
// tolerance. Each cell is analyzePrep → recurrence → finish, exactly the
// calls AnalyzeCtx(MethodExactStable) makes, so a sweep cell is bit
// identical to that method; only Result.Method keeps the caller's label.
//
// A cell costs about a microsecond, so the per-cell bookkeeping of the
// generic sweep path (a span, a tracker update, a pool claim) would
// dominate it. The grid is instead cut into chunks — one configuration
// across a run of consecutive x values — claimed x-block first so a
// streaming sweep's emission frontier advances as fast as possible,
// with one span and one tracker update per chunk.

// sweepChunkCells is the largest chunk: big enough to amortize claiming
// and span bookkeeping to noise, small enough that streaming sweeps emit
// their first points promptly. Chunk size never changes results; tests
// shrink it to exercise the scheduling.
var sweepChunkCells = 256

// cancelPollCells is how many cells a chunk runs between context polls:
// a cancelled sweep stops within tens of microseconds per worker.
const cancelPollCells = 16

// recurrenceCells counts sweep cells answered by the recurrences, nil
// until Instrument.
var recurrenceCells atomic.Pointer[obs.Counter]

// Instrument routes the analysis layer's telemetry into reg: the
// core.sweep.recurrence_cells counter, which shows on /metrics that
// exact sweeps ran on the recurrences. Pass nil to disable again.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		recurrenceCells.Store(nil)
		return
	}
	recurrenceCells.Store(reg.Counter("core.sweep.recurrence_cells"))
}

// sweepChunked runs a MethodExactChain grid in chunks fanned across the
// bounded worker pool. Error semantics match the per-cell path: the
// reported error is that of the lowest failing grid cell (x order, then
// configuration order), with the same message.
func sweepChunked(ctx context.Context, base params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64), out []SweepPoint, tr *pointTracker) error {
	nx, ncfg := len(xs), len(cfgs)
	chunk := sweepChunkCells
	// When the worker pool would otherwise idle (few, long chunks),
	// shrink chunks so every worker gets one.
	if want := (MaxWorkers() + ncfg - 1) / ncfg; want > 1 {
		if spread := (nx + want - 1) / want; spread < chunk {
			chunk = spread
		}
	}
	if chunk < 1 {
		chunk = 1
	}

	type chunkSpec struct{ ci, lo, hi int }
	specs := make([]chunkSpec, 0, ncfg*((nx+chunk-1)/chunk))
	for lo := 0; lo < nx; lo += chunk {
		hi := min(lo+chunk, nx)
		for ci := range cfgs {
			specs = append(specs, chunkSpec{ci: ci, lo: lo, hi: hi})
		}
	}

	// First-error reduction across chunks, by global grid-cell index
	// (xi*ncfg + ci), mirroring runIndexedCtx's lowest-index guarantee.
	var (
		mu        sync.Mutex
		firstCell = nx * ncfg
		firstErr  error
	)
	rerr := runIndexedCtx(ctx, len(specs), func(si int) error {
		sp := specs[si]
		mu.Lock()
		skip := sp.lo*ncfg+sp.ci > firstCell
		mu.Unlock()
		if skip {
			// Every cell in this chunk is past the recorded first
			// failure; nothing it could do would change the outcome.
			return nil
		}
		cell, err := runChunk(ctx, base, cfgs[sp.ci], method, xs[sp.lo:sp.hi], apply, out[sp.lo:sp.hi], sp.ci)
		if err != nil {
			if cell < 0 {
				return err // context cancellation: propagate as-is
			}
			mu.Lock()
			if c := (sp.lo+cell)*ncfg + sp.ci; c < firstCell {
				firstCell, firstErr = c, err
			}
			mu.Unlock()
			return nil
		}
		tr.chunkDone(sp.lo, sp.hi)
		return nil
	})
	if firstErr != nil {
		return firstErr
	}
	return rerr
}

// runChunk analyzes one configuration across a run of consecutive sweep
// points, writing pts[i].Results[ci]. On a cell failure it returns that
// cell's chunk-local index and its sweep-attributed error; on
// cancellation it returns (-1, ctx.Err()).
func runChunk(ctx context.Context, base params.Parameters, cfg Config, method Method, xs []float64, apply func(*params.Parameters, float64), pts []SweepPoint, ci int) (int, error) {
	_, sp := obs.StartSpan(ctx, "core.chunk")
	if sp != nil {
		sp.SetAttr("config", ci)
		sp.SetAttr("x", xs[0])
		sp.SetAttr("cells", len(xs))
	}
	defer sp.End()
	// One parameter copy per chunk: apply takes its address, so a copy
	// per cell would be a heap allocation per cell.
	var p params.Parameters
	for i, x := range xs {
		if i%cancelPollCells == 0 {
			if err := ctx.Err(); err != nil {
				return -1, err
			}
		}
		p = base
		apply(&p, x)
		r, err := analyzeRecurrence(p, cfg, method)
		if err != nil {
			return i, sweepCellError(x, cfg, err)
		}
		pts[i].Results[ci] = r
	}
	if c := recurrenceCells.Load(); c != nil {
		c.Add(int64(len(xs)))
	}
	return -1, nil
}
