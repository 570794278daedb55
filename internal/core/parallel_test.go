package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/params"
)

// withWorkers runs fn under a temporary SetMaxWorkers cap and restores
// the default afterwards (the cap is process-wide state).
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	SetMaxWorkers(n)
	defer SetMaxWorkers(0)
	fn()
}

func TestMaxWorkersDefaultAndCap(t *testing.T) {
	t.Cleanup(func() { SetMaxWorkers(0) })
	SetMaxWorkers(0)
	if got := MaxWorkers(); got != runtime.NumCPU() {
		t.Errorf("default MaxWorkers = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	SetMaxWorkers(5)
	if got := MaxWorkers(); got != 5 {
		t.Errorf("MaxWorkers = %d, want 5", got)
	}
	SetMaxWorkers(-3)
	if got := MaxWorkers(); got != runtime.NumCPU() {
		t.Errorf("MaxWorkers after negative set = %d, want NumCPU", got)
	}
}

func TestRunIndexedEmpty(t *testing.T) {
	called := false
	if err := runIndexed(0, func(int) error { called = true; return nil }); err != nil {
		t.Fatalf("runIndexed(0) = %v", err)
	}
	if called {
		t.Error("fn called for empty range")
	}
}

// TestSweepDeterministicAcrossWorkers is the core determinism contract:
// a sweep's output must be byte-identical at every worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := []float64{50_000, 100_000, 200_000, 460_000, 1_000_000}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }

	var ref []SweepPoint
	withWorkers(t, 1, func() {
		var err error
		ref, err = Sweep(p, cfgs, MethodExactChain, xs, apply)
		if err != nil {
			t.Fatalf("serial sweep: %v", err)
		}
	})
	for _, w := range []int{2, 7, runtime.NumCPU(), 0} {
		withWorkers(t, w, func() {
			got, err := Sweep(p, cfgs, MethodExactChain, xs, apply)
			if err != nil {
				t.Fatalf("workers=%d sweep: %v", w, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=%d sweep differs from serial", w)
			}
		})
	}
}

// TestSweepFirstErrorDeterministic pins first-error semantics: at any
// worker count the reported error is that of the earliest failing grid
// cell, exactly as the serial loop reports it.
func TestSweepFirstErrorDeterministic(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	// x is installed as the node set size; 2 and 3 are both invalid under
	// the baseline redundancy set, so several trailing cells fail and the
	// earliest failing cell (sweep order, then config order) must win.
	xs := []float64{64, 2, 3}
	apply := func(p *params.Parameters, x float64) { p.NodeSetSize = int(x) }

	var want string
	withWorkers(t, 1, func() {
		_, err := Sweep(p, cfgs, MethodExactChain, xs, apply)
		if err == nil {
			t.Fatal("serial sweep unexpectedly succeeded")
		}
		want = err.Error()
	})
	for _, w := range []int{2, 7, runtime.NumCPU()} {
		withWorkers(t, w, func() {
			_, err := Sweep(p, cfgs, MethodExactChain, xs, apply)
			if err == nil {
				t.Fatalf("workers=%d sweep unexpectedly succeeded", w)
			}
			if err.Error() != want {
				t.Errorf("workers=%d error = %q, want %q", w, err, want)
			}
		})
	}
}

func TestAnalyzeAllDeterministicAcrossWorkers(t *testing.T) {
	p := params.Baseline()
	cfgs := BaselineConfigs()

	var ref []Result
	withWorkers(t, 1, func() {
		var err error
		ref, err = AnalyzeAll(p, cfgs, MethodExactChain)
		if err != nil {
			t.Fatalf("serial AnalyzeAll: %v", err)
		}
	})
	for _, w := range []int{2, 7} {
		withWorkers(t, w, func() {
			got, err := AnalyzeAll(p, cfgs, MethodExactChain)
			if err != nil {
				t.Fatalf("workers=%d AnalyzeAll: %v", w, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=%d AnalyzeAll differs from serial", w)
			}
		})
	}
}

func TestElasticitiesDeterministicAcrossWorkers(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}

	var ref []Elasticity
	withWorkers(t, 1, func() {
		var err error
		ref, err = Elasticities(p, cfg, MethodExactChain, 0)
		if err != nil {
			t.Fatalf("serial Elasticities: %v", err)
		}
	})
	for _, w := range []int{2, 7} {
		withWorkers(t, w, func() {
			got, err := Elasticities(p, cfg, MethodExactChain, 0)
			if err != nil {
				t.Fatalf("workers=%d Elasticities: %v", w, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=%d Elasticities differ from serial", w)
			}
		})
	}
}

// A panic on a worker goroutine stops the pool and re-panics on the
// caller's goroutine with the same value, where a recover can see it —
// the serial loop's behaviour, at any worker count.
func TestRunIndexedPanicReachesCaller(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			got := func() (v any) {
				defer func() { v = recover() }()
				runIndexed(1000, func(i int) error {
					if i == 17 {
						panic("cell 17")
					}
					return nil
				})
				return nil
			}()
			if got != "cell 17" {
				t.Errorf("workers=%d: recovered %v, want the worker's panic value", w, got)
			}
		})
	}
}
