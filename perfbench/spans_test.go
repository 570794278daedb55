package main

import (
	"math"
	"testing"

	"repro/internal/obs"
)

func rec(id, parent int64, name string, start, seconds float64) obs.SpanRecord {
	return obs.SpanRecord{ID: id, Parent: parent, Name: name, StartSeconds: start, Seconds: seconds}
}

// TestSelfTimesNestedAndOverlapping feeds a tree whose root has two
// overlapping children (a worker pool), one of which has a nested child
// and a grandchild, plus a child that overruns its parent:
//
//	root  [0,10)
//	  a   [1,5)     b   [3,8)
//	  a1  [2,4)     b1  [6,9)  (clipped to [6,8))
//	  a11 [2.5,3)
func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	recs := []obs.SpanRecord{
		rec(1, 0, "root", 0, 10),
		rec(2, 1, "a", 1, 4),
		rec(3, 1, "b", 3, 5),
		rec(4, 2, "a1", 2, 2),
		rec(5, 3, "b1", 6, 3),
		rec(6, 4, "a11", 2.5, 0.5),
	}
	self, split := selfTimes(recs)
	wantSelf := map[int64]float64{
		1: 10 - 7, // children cover [1,8)
		2: 4 - 2,  // a1 covers [2,4)
		3: 5 - 2,  // b1 clipped to [6,8)
		4: 2 - 0.5,
		5: 2,
		6: 0.5,
	}
	// Split: [0,1) root; [1,2) a; [2,2.5) a1; [2.5,3) a11; [3,4) a1 and b
	// share; [4,5) a and b share; [5,6) b; [6,8) b1; [8,10) root.
	wantSplit := map[int64]float64{
		1: 1 + 2,
		2: 1 + 0.5,
		3: 0.5 + 0.5 + 1,
		4: 0.5 + 0.5,
		5: 2,
		6: 0.5,
	}
	var sum float64
	for id, want := range wantSelf {
		if got := self[id]; math.Abs(got-want) > 1e-12 {
			t.Errorf("self[%d] = %g, want %g", id, got, want)
		}
		if got := split[id]; math.Abs(got-wantSplit[id]) > 1e-12 {
			t.Errorf("split[%d] = %g, want %g", id, got, wantSplit[id])
		}
		sum += split[id]
	}
	if math.Abs(sum-10) > 1e-12 {
		t.Errorf("split times sum to %g, want the root's 10", sum)
	}
}

// TestStageTableSumsToRoot folds two trees and checks the table's
// accounting.
func TestStageTableSumsToRoot(t *testing.T) {
	tr := newTracing("test")
	tr.addTree([]obs.SpanRecord{rec(1, 0, "serve.request", 0, 2), rec(2, 1, "serve.cache", 0.5, 1)})
	tr.addTree([]obs.SpanRecord{rec(1, 0, "serve.request", 5, 1), rec(2, 1, "serve.cache", 5, 0.25), rec(3, 1, "serve.cache", 5.5, 0.25)})
	tab := tr.stageTable()
	if got := tab.sumOverRoot(); math.Abs(got-1) > 1e-12 {
		t.Errorf("sum over root = %g, want 1", got)
	}
	if st := tr.stage("serve.cache"); st.Count != 3 || math.Abs(st.Self-1.5) > 1e-12 {
		t.Errorf("serve.cache = %+v, want 3 spans, 1.5 s self", st)
	}
	if got := tr.meanSelfUS("serve.request"); math.Abs(got-0.75e6) > 1e-6 {
		t.Errorf("mean serve.request self = %g us, want 750000", got)
	}
}
