package main

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rebuild"
)

// tracing is the state of one traced phase: the benchmark's retained
// tracer (its root span parents every span the program emits), the
// registry every package's Instrument reports into, and the per-stage
// self-time tallies of the span trees seen.
type tracing struct {
	workload string
	tracer   *obs.Tracer
	reg      *obs.Registry

	before, after obs.Snapshot

	// external is set by a workload whose span trees arrive from the
	// program's own exporter rather than from the benchmark's tracer.
	external bool

	mu      sync.Mutex
	stages  map[string]*stageStat
	rootSum float64 // summed duration of every tree's root span, seconds
	trees   int
}

// stageStat aggregates one span name over every tree.
type stageStat struct {
	Count int
	Dur   float64 // summed span durations, seconds
	Self  float64 // summed self times, seconds
	Split float64 // summed concurrency-split self times, seconds
}

func newTracing(workload string) *tracing {
	return &tracing{
		workload: workload,
		tracer:   obs.NewTracer(),
		reg:      obs.NewRegistry(),
		stages:   make(map[string]*stageStat),
	}
}

// begin wires every instrumented package into the traced registry.
// nsr-serve does the same for its own registry when it is built.
func (t *tracing) begin() {
	markov.Instrument(t.reg)
	linalg.Instrument(t.reg)
	rebuild.Instrument(t.reg)
	plan.Instrument(t.reg)
	t.mark()
}

// mark snapshots the registry as the counter baseline of the traced
// phase. serve-mix marks again once its traced server, which reports
// into the same registry, is warmed up.
func (t *tracing) mark() {
	t.before = t.reg.Snapshot()
}

// end closes the traced phase: counters are read and, unless the
// workload fed its trees in already, the benchmark tracer's single
// tree is folded into the stage tallies.
func (t *tracing) end() {
	t.after = t.reg.Snapshot()
	if spans := t.tracer.Spans(); len(spans) > 0 && !t.external {
		t.addTree(spans)
	}
	markov.Instrument(nil)
	linalg.Instrument(nil)
	rebuild.Instrument(nil)
	plan.Instrument(nil)
}

// reset discards every tree folded in so far.
func (t *tracing) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stages = make(map[string]*stageStat)
	t.rootSum, t.trees = 0, 0
}

// addTree folds one completed span tree into the stage tallies and
// returns its root record with the self time of every span by ID.
func (t *tracing) addTree(recs []obs.SpanRecord) (obs.SpanRecord, map[int64]float64) {
	self, split := selfTimes(recs)
	var root obs.SpanRecord
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		if r.Parent == 0 {
			root = r
			t.rootSum += r.Seconds
			t.trees++
		}
		st := t.stages[r.Name]
		if st == nil {
			st = &stageStat{}
			t.stages[r.Name] = st
		}
		st.Count++
		st.Dur += r.Seconds
		st.Self += self[r.ID]
		st.Split += split[r.ID]
	}
	return root, self
}

// stage returns the tallies of one span name (zero when it never ran).
func (t *tracing) stage(name string) stageStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stages[name]; st != nil {
		return *st
	}
	return stageStat{}
}

// meanSelfUS is the mean self time of one span name in microseconds.
func (t *tracing) meanSelfUS(name string) float64 {
	st := t.stage(name)
	return ratio(st.Self, float64(st.Count)) * 1e6
}

// counter is a counter's increase over the traced phase.
func (t *tracing) counter(name string) float64 {
	return float64(t.after.Counters[name] - t.before.Counters[name])
}

// histMean is the mean of the observations a histogram received during
// the traced phase.
func (t *tracing) histMean(name string) float64 {
	a, b := t.after.Histograms[name], t.before.Histograms[name]
	return ratio(a.Sum-b.Sum, float64(a.Count-b.Count))
}

// selfTimes computes, for every span of one tree, two exclusive times:
//
//   - self: the span's duration minus the union of its children's
//     intervals (clipped to the span);
//   - split: each instant of the root's interval is charged to the spans
//     running then that have no running child, divided evenly among
//     them. Where children overlap (worker pools), a span's split time is
//     less than its self time; the split times of a tree always sum to
//     its root's duration.
func selfTimes(recs []obs.SpanRecord) (self, split map[int64]float64) {
	type interval struct{ lo, hi float64 }
	span := make(map[int64]interval, len(recs))
	parent := make(map[int64]int64, len(recs))
	kids := make(map[int64][]int64)
	for _, r := range recs {
		span[r.ID] = interval{r.StartSeconds, r.StartSeconds + r.Seconds}
		parent[r.ID] = r.Parent
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], r.ID)
		}
	}
	// Clip every span to its parent, top down, so a child never charges
	// time outside the span that caused it.
	var clip func(id int64, lo, hi float64)
	clip = func(id int64, lo, hi float64) {
		iv := span[id]
		iv.lo = max(iv.lo, lo)
		iv.hi = max(min(iv.hi, hi), iv.lo)
		span[id] = iv
		for _, k := range kids[id] {
			clip(k, iv.lo, iv.hi)
		}
	}
	for _, r := range recs {
		if _, ok := span[r.Parent]; !ok {
			clip(r.ID, span[r.ID].lo, span[r.ID].hi)
		}
	}

	self = make(map[int64]float64, len(recs))
	for id, iv := range span {
		cs := make([]interval, 0, len(kids[id]))
		for _, k := range kids[id] {
			cs = append(cs, span[k])
		}
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
		covered, end := 0.0, iv.lo
		for _, c := range cs {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		self[id] = iv.hi - iv.lo - covered
	}

	// Sweep the boundaries in time order. Starts precede ends at equal
	// times; starts run parent first (lower ID), ends child first.
	type event struct {
		at    float64
		start bool
		id    int64
	}
	evs := make([]event, 0, 2*len(recs))
	for id, iv := range span {
		evs = append(evs, event{iv.lo, true, id}, event{iv.hi, false, id})
	}
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		switch {
		case x.at != y.at:
			return x.at < y.at
		case x.start != y.start:
			return x.start
		case x.start:
			return x.id < y.id
		default:
			return x.id > y.id
		}
	})
	split = make(map[int64]float64, len(recs))
	active := make(map[int64]bool, len(recs))
	running := make(map[int64]int) // running children per span
	var leaves []int64
	drop := func(id int64) {
		for i, l := range leaves {
			if l == id {
				leaves = append(leaves[:i], leaves[i+1:]...)
				return
			}
		}
	}
	for i, e := range evs {
		if i > 0 && len(leaves) > 0 {
			share := (e.at - evs[i-1].at) / float64(len(leaves))
			for _, l := range leaves {
				split[l] += share
			}
		}
		p := parent[e.id]
		if e.start {
			active[e.id] = true
			leaves = append(leaves, e.id)
			if active[p] {
				if running[p]++; running[p] == 1 {
					drop(p)
				}
			}
			continue
		}
		drop(e.id)
		active[e.id] = false
		if active[p] {
			if running[p]--; running[p] == 0 {
				leaves = append(leaves, p)
			}
		}
	}
	return self, split
}

// stageTable is the per-stage breakdown of a traced phase.
type stageTable struct {
	Rows    []stageRow
	RootSum float64 // seconds
	Trees   int
}

type stageRow struct {
	Name string
	stageStat
}

func (t *tracing) stageTable() stageTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	tab := stageTable{RootSum: t.rootSum, Trees: t.trees}
	for name, st := range t.stages {
		tab.Rows = append(tab.Rows, stageRow{name, *st})
	}
	sort.Slice(tab.Rows, func(a, b int) bool {
		if tab.Rows[a].Split != tab.Rows[b].Split {
			return tab.Rows[a].Split > tab.Rows[b].Split
		}
		return tab.Rows[a].Name < tab.Rows[b].Name
	})
	return tab
}

// sumOverRoot is the stages' summed split self time over the summed
// root durations: 1 when the table accounts for all of the root.
func (tab stageTable) sumOverRoot() float64 {
	var s float64
	for _, r := range tab.Rows {
		s += r.Split
	}
	return ratio(s, tab.RootSum)
}

func printStageTable(w io.Writer, name string, tab stageTable) {
	fmt.Fprintf(w, "== %s stage table (%d trees, root total %.6g s)\n", name, tab.Trees, tab.RootSum)
	fmt.Fprintf(w, "  %-20s %10s %14s %14s %14s %8s\n", "stage", "spans", "self_s", "split_self_s", "mean_self_us", "share")
	var selfSum float64
	for _, r := range tab.Rows {
		selfSum += r.Self
		fmt.Fprintf(w, "  %-20s %10d %14.6g %14.6g %14.6g %7.2f%%\n",
			r.Name, r.Count, r.Self, r.Split, ratio(r.Self, float64(r.Count))*1e6, 100*ratio(r.Split, tab.RootSum))
	}
	fmt.Fprintf(w, "  split self / root = %.4f; self / root = %.4f (mean concurrency)\n",
		tab.sumOverRoot(), ratio(selfSum, tab.RootSum))
}
