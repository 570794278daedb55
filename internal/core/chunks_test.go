package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/params"
)

// withChunkCells runs fn under a sweep chunk size, restoring the default
// afterwards (0 keeps the default).
func withChunkCells(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := sweepChunkCells
	if n > 0 {
		sweepChunkCells = n
	}
	defer func() { sweepChunkCells = prev }()
	fn()
}

// stableGrid is the reference for an exact-chain sweep: every cell from
// its own AnalyzeCtx(MethodExactStable) call, relabelled with the
// method the sweep was asked for.
func stableGrid(t *testing.T, base params.Parameters, cfgs []Config, xs []float64, apply func(*params.Parameters, float64)) []SweepPoint {
	t.Helper()
	out := make([]SweepPoint, len(xs))
	for i, x := range xs {
		out[i] = SweepPoint{X: x, Results: make([]Result, len(cfgs))}
		p := base
		apply(&p, x)
		for ci, cfg := range cfgs {
			r, err := AnalyzeCtx(context.Background(), p, cfg, MethodExactStable)
			if err != nil {
				t.Fatalf("x=%v %v: %v", x, cfg, err)
			}
			r.Method = MethodExactChain
			out[i].Results[ci] = r
		}
	}
	return out
}

// The chunked sweep's acceptance gate: every exact-chain sweep cell is
// bit-identical to the per-cell AnalyzeCtx(MethodExactStable) call on
// the same parameters, buffered and streamed, at every worker count and
// chunk size — including the deep fault tolerances where the chain's
// float64 LU drifts.
func TestSweepBatchMatchesPerCellBitwise(t *testing.T) {
	grids := []struct {
		name string
		base params.Parameters
		cfgs []Config
	}{
		{"sensitivity", params.Baseline(), SensitivityConfigs()},
		{"deep", func() params.Parameters {
			p := params.Baseline()
			p.RedundancySetSize = 48
			return p
		}(), []Config{
			{Internal: InternalNone, NodeFaultTolerance: 7},
			{Internal: InternalRAID6, NodeFaultTolerance: 5},
		}},
	}
	xs := make([]float64, 23)
	for i := range xs {
		xs[i] = 50_000 + 37_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }

	for _, g := range grids {
		ref := stableGrid(t, g.base, g.cfgs, xs, apply)
		for _, w := range []int{1, 2, 7} {
			for _, cells := range []int{0, 1, 5, 1024} {
				withWorkers(t, w, func() {
					withChunkCells(t, cells, func() {
						got, err := Sweep(g.base, g.cfgs, MethodExactChain, xs, apply)
						if err != nil {
							t.Fatalf("%s workers=%d chunk=%d: %v", g.name, w, cells, err)
						}
						if !reflect.DeepEqual(got, ref) {
							t.Errorf("%s workers=%d chunk=%d: sweep differs from per-cell exact-stable", g.name, w, cells)
						}
						var streamed []SweepPoint
						if _, err := SweepStreamCtx(context.Background(), g.base, g.cfgs, MethodExactChain, xs, apply,
							func(pt SweepPoint) error {
								streamed = append(streamed, pt)
								return nil
							}); err != nil {
							t.Fatalf("%s workers=%d chunk=%d stream: %v", g.name, w, cells, err)
						}
						if !reflect.DeepEqual(streamed, ref) {
							t.Errorf("%s workers=%d chunk=%d: streamed sweep differs from per-cell exact-stable", g.name, w, cells)
						}
					})
				})
			}
		}
	}
}

// The chunked exact-chain path must report the same first-cell error
// string as the per-cell path, and that string must carry exactly one
// "core:" prefix per wrapping layer — the sweep attribution does not
// stutter a second "core:" around the configuration.
func TestSweepErrorShapeBatchAndPerCell(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := []float64{64, 2, 3}
	apply := func(p *params.Parameters, x float64) { p.NodeSetSize = int(x) }

	var perCell, chunked string
	withWorkers(t, 1, func() {
		_, err := Sweep(p, cfgs, MethodClosedForm, xs, apply)
		if err == nil {
			t.Fatal("per-cell sweep unexpectedly succeeded")
		}
		perCell = err.Error()
		withChunkCells(t, 2, func() {
			_, err := Sweep(p, cfgs, MethodExactChain, xs, apply)
			if err == nil {
				t.Fatal("chunked sweep unexpectedly succeeded")
			}
			chunked = err.Error()
		})
	})
	if chunked != perCell {
		t.Errorf("chunked error %q != per-cell error %q", chunked, perCell)
	}
	for _, w := range []int{2, 7} {
		withWorkers(t, w, func() {
			if _, err := Sweep(p, cfgs, MethodExactChain, xs, apply); err == nil || err.Error() != chunked {
				t.Errorf("workers=%d: error %v, want %q", w, err, chunked)
			}
		})
	}

	// Message shape: the failing cell is x=2, config 0. The sweep prefix
	// names the position and configuration once; the cause keeps its own
	// single package prefix.
	bad := p
	bad.NodeSetSize = 2
	_, leaf := Analyze(bad, cfgs[0], MethodExactChain)
	if leaf == nil {
		t.Fatal("analysis of invalid geometry unexpectedly succeeded")
	}
	want := fmt.Sprintf("core: sweep at x=2: %v: %v", cfgs[0], leaf)
	if chunked != want {
		t.Errorf("error = %q, want %q", chunked, want)
	}
	if got, want := strings.Count(chunked, "core:"), 1+strings.Count(leaf.Error(), "core:"); got != want {
		t.Errorf("error %q contains %d core: prefixes, want %d", chunked, got, want)
	}

	// And when the leaf is itself a core error (geometry), the full
	// message still carries one prefix per layer, not per wrap.
	applyGeom := func(p *params.Parameters, x float64) {
		p.NodeSetSize = int(x)
		if p.RedundancySetSize > int(x) {
			p.RedundancySetSize = int(x)
		}
	}
	_, gerr := Sweep(p, cfgs, MethodExactChain, []float64{64, 3}, applyGeom)
	if gerr == nil {
		t.Fatal("geometry sweep unexpectedly succeeded")
	}
	wantGeom := fmt.Sprintf("core: sweep at x=3: %v: core: node set size 3 too small for fault tolerance %d",
		cfgs[0], cfgs[0].NodeFaultTolerance)
	if gerr.Error() != wantGeom {
		t.Errorf("geometry error = %q, want %q", gerr, wantGeom)
	}
}

// Streaming: emit sees every point exactly once, in ascending x order,
// with results identical to the buffered sweep — at any worker count and
// chunk size, down to one cell per chunk.
func TestSweepStreamEmitOrderDeterministic(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := make([]float64, 17)
	for i := range xs {
		xs[i] = 60_000 + 45_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }

	var ref []SweepPoint
	withWorkers(t, 1, func() {
		var err error
		ref, err = Sweep(p, cfgs, MethodExactChain, xs, apply)
		if err != nil {
			t.Fatalf("buffered sweep: %v", err)
		}
	})

	cases := []struct {
		name           string
		workers, cells int
	}{
		{"serial/batch", 1, 4},
		{"parallel/batch", runtime.NumCPU(), 3},
		{"parallel/defaultBatch", 0, 0},
		{"parallel/perCell", runtime.NumCPU(), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withWorkers(t, tc.workers, func() {
				withChunkCells(t, tc.cells, func() {
					var streamed []SweepPoint
					got, err := SweepStreamCtx(context.Background(), p, cfgs, MethodExactChain, xs, apply,
						func(pt SweepPoint) error {
							streamed = append(streamed, pt)
							return nil
						})
					if err != nil {
						t.Fatalf("stream sweep: %v", err)
					}
					if !reflect.DeepEqual(got, ref) {
						t.Error("returned grid differs from buffered sweep")
					}
					if !reflect.DeepEqual(streamed, ref) {
						t.Error("streamed points differ from buffered sweep (order or content)")
					}
				})
			})
		})
	}
}

// An emit failure cancels the sweep and surfaces as the sweep's error.
func TestSweepStreamEmitErrorCancels(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := make([]float64, 12)
	for i := range xs {
		xs[i] = 60_000 + 45_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }
	boom := fmt.Errorf("client went away")
	n := 0
	pts, err := SweepStreamCtx(context.Background(), p, cfgs, MethodExactChain, xs, apply,
		func(SweepPoint) error {
			n++
			if n == 3 {
				return boom
			}
			return nil
		})
	if err != boom {
		t.Fatalf("stream error = %v, want %v", err, boom)
	}
	if pts != nil {
		t.Error("failed stream returned a non-nil grid")
	}
	if n != 3 {
		t.Errorf("emit called %d times after failure at 3", n)
	}
}

func TestSweepStreamNilEmit(t *testing.T) {
	p := params.Baseline()
	_, err := SweepStreamCtx(context.Background(), p, SensitivityConfigs(), MethodExactChain,
		[]float64{1}, func(*params.Parameters, float64) {}, nil)
	if err == nil || !strings.Contains(err.Error(), "nil emit") {
		t.Fatalf("nil emit error = %v", err)
	}
}

// A cancelled exact-chain sweep stops within a few cells per worker, not
// after the grid, and returns the cancellation instead of a grid.
func TestSweepExactCancelledMidFlight(t *testing.T) {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = 1e5 + float64(i)
	}
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls, late atomic.Int64
			pts, err := SweepCtx(ctx, params.Baseline(), SensitivityConfigs(), MethodExactChain, xs,
				func(p *params.Parameters, x float64) {
					if ctx.Err() != nil {
						late.Add(1)
					}
					if calls.Add(1) == 3 {
						cancel()
					}
					p.DriveMTTFHours = x
				})
			if !errors.Is(err, context.Canceled) || pts != nil {
				t.Fatalf("workers=%d: (%d points, %v), want context.Canceled and no grid", w, len(pts), err)
			}
			// Once the cancellation is visible, each worker stops within
			// one poll interval.
			if n := late.Load(); n > int64(w*cancelPollCells) {
				t.Errorf("workers=%d: %d cells ran after the cancellation", w, n)
			}
		})
	}
}

// A traced exact-chain sweep emits one core.chunk span per chunk under
// core.sweep — never one span per cell — and counts its cells on the
// core.sweep.recurrence_cells counter.
func TestSweepExactSpanPerChunk(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = 1e5 + 1e4*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }
	withWorkers(t, 2, func() {
		withChunkCells(t, 16, func() {
			tr := obs.NewTracer()
			ctx, root := tr.Start(context.Background(), "root")
			if _, err := SweepCtx(ctx, p, cfgs, MethodExactChain, xs, apply); err != nil {
				t.Fatal(err)
			}
			root.End()
			byID := make(map[int64]obs.SpanRecord)
			count := make(map[string]int)
			for _, s := range tr.Spans() {
				byID[s.ID] = s
				count[s.Name]++
			}
			// 40 points in chunks of 16 → 3 x-blocks, times 3 configs.
			if got, want := count["core.chunk"], 3*len(cfgs); got != want {
				t.Errorf("core.chunk spans = %d, want %d", got, want)
			}
			if got := len(byID); got != 2+3*len(cfgs) {
				t.Errorf("trace holds %d spans, want root + core.sweep + chunks = %d (spans: %v)", got, 2+3*len(cfgs), count)
			}
			for _, s := range tr.Spans() {
				if s.Name == "core.chunk" && byID[s.Parent].Name != "core.sweep" {
					t.Errorf("core.chunk span %d parented by %q, want core.sweep", s.ID, byID[s.Parent].Name)
				}
			}
		})
	})
	if got, want := reg.Counter("core.sweep.recurrence_cells").Value(), int64(len(xs)*len(cfgs)); got != want {
		t.Errorf("core.sweep.recurrence_cells = %d, want %d", got, want)
	}
}

// exactChunkAllocs is the measured allocation count of one exact-chain
// sweep chunk, whatever its length: the parameter copy whose address
// apply takes. The cells themselves (apply → analyzePrep → recurrence →
// finish) allocate nothing, so a chain build or a solver claim sneaking
// back into the cell path shows up here first.
const exactChunkAllocs = 1

func TestSweepExactCellAllocs(t *testing.T) {
	base := params.Baseline()
	base.RedundancySetSize = 48
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 1e5 + 1e3*float64(i)
	}
	pts := make([]SweepPoint, len(xs))
	for i := range pts {
		pts[i].Results = make([]Result, 1)
	}
	apply := func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }
	ctx := context.Background()
	for _, cfg := range []Config{
		{Internal: InternalNone, NodeFaultTolerance: 3},
		{Internal: InternalNone, NodeFaultTolerance: 7},
		{Internal: InternalRAID6, NodeFaultTolerance: 4},
	} {
		n := testing.AllocsPerRun(20, func() {
			if _, err := runChunk(ctx, base, cfg, MethodExactChain, xs, apply, pts, 0); err != nil {
				t.Fatal(err)
			}
		})
		if n > exactChunkAllocs {
			t.Errorf("%v: a %d-cell chunk allocates %v times, want at most %d", cfg, len(xs), n, exactChunkAllocs)
		}
	}
}

// Series satellite: empty input yields an empty series; an out-of-range
// configuration index panics rather than fabricating zeros.
func TestSeriesEmptyPoints(t *testing.T) {
	if got := Series(nil, 0); len(got) != 0 {
		t.Errorf("Series(nil) = %v, want empty", got)
	}
	if got := Series([]SweepPoint{}, 3); len(got) != 0 {
		t.Errorf("Series(empty) = %v, want empty", got)
	}
}

func TestSeriesOutOfRangePanics(t *testing.T) {
	pts := []SweepPoint{{X: 1, Results: []Result{{EventsPerPBYear: 2}}}}
	if got := Series(pts, 0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Series = %v, want [2]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Series with out-of-range config index did not panic")
		}
	}()
	Series(pts, 1)
}
