package main

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/plan"
	"repro/internal/seedstream"
)

// plan-search: plan.SearchCtx over a seeded cycle of searches that
// alternates the stock DefaultSpace at baseline parameters with a
// deep-fault-tolerance space (no internal RAID, ft 4–6) at stressed MTTFs,
// under varied target, budget and capacity constraints.

// planSearches is the length of the search cycle: half stock, half deep.
const planSearches = 16

type planJob struct {
	base  params.Parameters
	space plan.Space
	cons  plan.Constraints
	deep  bool

	first *plan.Result // first successful result in this process
	// wrong is the share of the frontier more than 1e-6 off the
	// reference; maxErr the largest relative error on it.
	wrong    float64
	maxErr   float64
	checked  bool
	attempts int
	failures int
}

type planSearch struct {
	jobs     []*planJob
	problems checkLog
}

// deepSpace is the deep-fault-tolerance space of the plan package's own
// benchmark: 10800 candidates whose exact NIR chains carry 31–127
// transient states.
func deepSpace() plan.Space {
	utils := make([]float64, 20)
	for i := range utils {
		utils[i] = 0.50 + 0.02*float64(i)
	}
	return plan.Space{
		Internals:          []core.InternalRedundancy{core.InternalNone},
		FaultTolerances:    []int{4, 5, 6},
		RedundancySetSizes: []int{12, 16, 24, 32, 48, 64},
		SpareNodes:         []int{0, 8, 16, 24, 32, 48},
		Utilizations:       utils,
		RebuildBytes:       []float64{16 * params.KiB, 32 * params.KiB, 64 * params.KiB, 128 * params.KiB, 256 * params.KiB},
	}
}

// deepBase stresses the failure rates an order of magnitude beyond the
// baseline, keeping every deep-ft MTTDL inside float64.
func deepBase() params.Parameters {
	p := params.Baseline()
	p.NodeMTTFHours = 40_000
	p.DriveMTTFHours = 60_000
	return p
}

// planJitter is the share of its stratum within which the seed places a
// constraint, round the stratum's middle. A search's cost follows its
// constraints (how many candidates survive the prune), so jitter across
// whole strata made the work of a run, and its slowest search, depend on
// the seed.
const planJitter = 0.2

// genPlanJobs builds the seeded search cycle. The constraints are
// stratified: across the eight searches of each space kind the target
// spans 10^-1 to 10^0.5 times the paper's, and every other search has a
// cost budget (70–100% of the largest design's cost), every fourth a
// capacity floor (0.02–0.06 PB); the seed places each value within the
// middle planJitter of its stratum.
func genPlanJobs(seed int64) []*planJob {
	rng := rand.New(rand.NewSource(seedstream.Derive(seed, 0x5eed0002)))
	u := func() float64 { return 0.5 + planJitter*(rng.Float64()-0.5) }
	jobs := make([]*planJob, planSearches)
	for i := range jobs {
		j := &planJob{deep: i%2 == 1}
		slot := float64(i / 2)
		strata := float64(planSearches / 2)
		maxNodes := 96.0
		if j.deep {
			j.base, j.space = deepBase(), deepSpace()
			maxNodes = 112
		} else {
			j.base, j.space = params.Baseline(), plan.DefaultSpace()
		}
		j.cons.TargetEventsPerPBYear = 2e-3 * math.Pow(10, 1.5*(slot+u())/strata-1)
		j.cons.NodeCostDrives = 4 * (slot + u()) / strata
		if i/2%2 == 0 {
			j.cons.MaxCostDrives = maxNodes * (12 + j.cons.NodeCostDrives) * (0.7 + 0.3*(float64(i/4)+u())/(strata/2))
		}
		if i/2%4 == 1 {
			j.cons.MinCapacityPB = 0.02 + 0.04*u()
		}
		jobs[i] = j
	}
	return jobs
}

func newPlanSearch(seed int64) *planSearch { return &planSearch{jobs: genPlanJobs(seed)} }

// setup runs one search of each space kind under the default
// constraints, filling the solver pools and symbolic caches both kinds
// use; the work is the same for every seed.
func (w *planSearch) setup() error {
	for _, j := range w.jobs[:2] {
		if _, err := plan.SearchCtx(context.Background(), j.base, j.space, plan.Constraints{}, plan.Options{}); err != nil {
			return err
		}
	}
	return nil
}

func (w *planSearch) teardown() {}

// phase runs whole cycles of the search sequence until d has passed;
// each cycle is one measurement window.
func (w *planSearch) phase(ctx context.Context, d time.Duration, _ *tracing) (*phaseResult, error) {
	res := &phaseResult{}
	for _, j := range w.jobs {
		j.attempts, j.failures = 0, 0
	}
	start := time.Now()
	for time.Since(start) < d {
		win := window{}
		cycleStart, cpu0 := time.Now(), cpuSeconds()
		for _, j := range w.jobs {
			t0 := time.Now()
			r, err := plan.SearchCtx(ctx, j.base, j.space, j.cons, plan.Options{})
			win.LatMS = append(win.LatMS, float64(time.Since(t0).Nanoseconds())/1e6)
			res.Attempted++
			j.attempts++
			if err != nil {
				res.Failed++
				j.failures++
				continue
			}
			win.Work += float64(r.Stats.Enumerated)
			w.verify(j, r)
		}
		win.Seconds, win.CPU = time.Since(cycleStart).Seconds(), cpuSeconds()-cpu0
		res.Windows = append(res.Windows, win)
	}
	return res, nil
}

// verify checks one search: the stats partition the enumerated space,
// and the result equals the search's first result.
func (w *planSearch) verify(j *planJob, r *plan.Result) {
	st := r.Stats
	if st.Infeasible+st.PrunedTarget+st.PrunedDominated+st.Confirmed != st.Enumerated {
		w.problems.add("plan-search: stats do not partition: %d+%d+%d+%d != %d",
			st.Infeasible, st.PrunedTarget, st.PrunedDominated, st.Confirmed, st.Enumerated)
	}
	if j.first == nil {
		j.first = r
	} else if !reflect.DeepEqual(j.first, r) {
		w.problems.add("plan-search: search %+v returned a different result on a repeat", j.cons)
	}
}

// check compares every distinct search's frontier with the same search
// on one worker and with the exact-stable reference (once per search),
// and counts the wrong searches of the phase.
func (w *planSearch) check(res *phaseResult) []string {
	for _, j := range w.jobs {
		if j.first == nil {
			continue
		}
		if !j.checked {
			j.checked = true
			core.SetMaxWorkers(1)
			one, err := plan.SearchCtx(context.Background(), j.base, j.space, j.cons, plan.Options{})
			core.SetMaxWorkers(workers)
			if err != nil || !reflect.DeepEqual(one, j.first) {
				w.problems.add("plan-search: search %+v differs between 1 and %d workers (err %v)", j.cons, workers, err)
			}
			for _, c := range j.first.Frontier {
				ref, err := core.Analyze(c.Params(), c.Config(), core.MethodExactStable)
				e := inf
				if err == nil {
					e = relErr(c.ExactEventsPerPBYear, ref.EventsPerPBYear)
				}
				j.maxErr = maxFinite(j.maxErr, e)
				if e > wrongTol {
					j.wrong++
				}
			}
			j.wrong = ratio(j.wrong, float64(len(j.first.Frontier)))
		}
		if succeeded := j.attempts - j.failures; succeeded > 0 {
			res.Wrong += j.wrong * float64(succeeded)
			res.MaxRelErr = max(res.MaxRelErr, j.maxErr)
		}
	}
	return w.problems.take()
}

func (w *planSearch) detail(res *phaseResult) []metric {
	return []metric{
		{Name: "fail_frac", Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"},
		{Name: "wrong_frac", Value: res.Wrong / float64(res.Attempted), Unit: "ratio"},
		{Name: "plan_candidates_per_s", Value: res.rate(), Unit: "cand/s"},
		{Name: "peak_heap_mb", Value: res.PeakHeap, Unit: "MiB"},
	}
}

// points samples every 16th candidate of both spaces, built the way the
// search builds them.
func (w *planSearch) points() []point {
	var pts []point
	for _, j := range w.jobs[:2] {
		s, i := j.space, 0
		for _, ir := range s.Internals {
			for _, ft := range s.FaultTolerances {
				for _, r := range s.RedundancySetSizes {
					for _, spn := range s.SpareNodes {
						for _, u := range s.Utilizations {
							for _, rb := range s.RebuildBytes {
								if i++; i%16 != 0 {
									continue
								}
								p := j.base
								p.NodeSetSize += spn
								p.RedundancySetSize = r
								p.CapacityUtilization = u
								p.RebuildCommandBytes = rb
								pts = append(pts, point{p, core.Config{Internal: ir, NodeFaultTolerance: ft}})
							}
						}
					}
				}
			}
		}
	}
	return pts
}

func (w *planSearch) layers(res *phaseResult, tr *tracing) []metric {
	searches := tr.counter("plan.searches")
	perSearchMS := func(name string) float64 { return ratio(tr.stage(name).Self, searches) * 1e3 }
	ms := []metric{
		{Name: "plan.search.self_ms", Value: perSearchMS("plan.search"), Unit: "ms"},
		{Name: "plan.enumerate.self_ms", Value: perSearchMS("plan.enumerate"), Unit: "ms"},
		{Name: "plan.prune.self_ms", Value: perSearchMS("plan.prune"), Unit: "ms"},
		{Name: "plan.confirm.self_ms", Value: perSearchMS("plan.confirm"), Unit: "ms"},
		{Name: "plan.rank.self_ms", Value: perSearchMS("plan.rank"), Unit: "ms"},
		{Name: "plan.prune_ratio", Value: 1 - ratio(tr.counter("plan.candidates.confirmed"), tr.counter("plan.candidates.enumerated")), Unit: "ratio"},
		{Name: "plan.confirmed", Value: ratio(tr.counter("plan.candidates.confirmed"), searches), Unit: "count"},
		{Name: "plan.batch.groups", Value: ratio(tr.counter("plan.batch.groups"), searches), Unit: "count"},
	}
	ms = append(ms, solverLayers(tr)...)
	return append(ms, directTimings(w.points())...)
}
