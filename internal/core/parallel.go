package core

// Bounded parallel execution for the analysis layer. Every analysis is a
// pure function of its inputs (the model packages hold no mutable
// package state, and solver instrumentation is atomic), so fanning a
// sweep's grid points or a configuration list across workers changes
// wall-clock time and nothing else: results are written into
// caller-indexed slots, the reduction is by index, and the first-error
// semantics of the serial loops are preserved by reporting the error of
// the lowest failing index.
//
// Cancellation: runIndexedCtx checks the context before every unit of
// work, so a cancelled sweep stops within one analysis of the
// cancellation. A cancelled run returns ctx.Err() unless a genuine
// analysis error was recorded first; either way the output slots are
// only partially written and must be discarded.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// workerCeiling holds the package-wide worker cap set by SetMaxWorkers
// (0 = default runtime.NumCPU()).
var workerCeiling atomic.Int64

// SetMaxWorkers caps the number of concurrent analyses Sweep, AnalyzeAll
// and Elasticities may run. n <= 0 restores the default,
// runtime.NumCPU(). 1 forces the serial path. The cap is process-wide;
// results are identical at any setting.
func SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCeiling.Store(int64(n))
}

// MaxWorkers returns the effective worker cap.
func MaxWorkers() int {
	if n := int(workerCeiling.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ValidateWorkers rejects worker counts that SetMaxWorkers (and the
// simulation estimators) would otherwise silently remap: every -workers
// flag and server field funnels through here so "-workers -4" is a clear
// error everywhere instead of an accidental all-CPUs run. 0 remains the
// documented "use all CPUs" convention.
func ValidateWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("worker count %d is negative (use 0 for all CPUs, or a positive count)", n)
	}
	return nil
}

// RunIndexedCtx exposes the analysis layer's bounded deterministic
// fan-out to sibling packages (internal/plan rides it for design-space
// searches): fn(0), …, fn(n-1) on the MaxWorkers pool with the serial
// loop's lowest-failing-index error semantics and per-index cancellation
// polling. Results are identical at any worker count provided fn writes
// only into caller-indexed slots.
func RunIndexedCtx(ctx context.Context, n int, fn func(i int) error) error {
	return runIndexedCtx(ctx, n, fn)
}

// runIndexed evaluates fn(0), …, fn(n-1) on a bounded worker pool and
// returns the error of the lowest failing index (nil if all succeed).
// fn must be safe to call concurrently and should write its result into
// a caller-owned slot for index i; slots for indices at or above a
// failing index may be left unwritten. With one worker (or one item) it
// degenerates to the plain serial loop, returning on the first error.
func runIndexed(n int, fn func(i int) error) error {
	return runIndexedCtx(context.Background(), n, fn)
}

// runIndexedCtx is runIndexed with cancellation: the context is polled
// before each index is claimed (serial and parallel paths alike), so
// work stops within one fn call of cancellation. On cancellation the
// return value is ctx.Err() unless an fn error was recorded first —
// under cancellation the "lowest failing index" guarantee is waived,
// since later indices were legitimately never attempted. A panic in fn
// reaches the caller's goroutine, as it would from the serial loop.
func runIndexedCtx(ctx context.Context, n int, fn func(i int) error) error {
	workers := MaxWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
		firstIdx = n
		// A panic in fn stops the pool and is re-raised on the calling
		// goroutine, where the caller's recovery (the server's cache
		// leader, a test) can see it; on a worker goroutine it would
		// end the process.
		panicked atomic.Bool
		panicVal any
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					mu.Lock()
					if !panicked.Load() {
						panicVal = v
						panicked.Store(true)
					}
					mu.Unlock()
				}
			}()
			for {
				if ctx.Err() != nil || panicked.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// After a failure, indices above the current first
				// failure are moot — but anything below it must still
				// run, or a later-indexed failure could mask the true
				// first error and make the result schedule-dependent.
				if failed.Load() {
					mu.Lock()
					skip := i > firstIdx
					mu.Unlock()
					if skip {
						continue
					}
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx = i
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
