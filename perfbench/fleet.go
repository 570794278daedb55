package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/sim"
)

// fleet-decade: sim.EstimateFleetCtx on the baseline FT 1 no-internal-RAID
// configuration, 10⁶ bricks for 10 years on 2 workers. Every run in a
// phase uses the workload seed, so every run must return the identical
// estimate.

const (
	fleetBricks = 1_000_000
	fleetYears  = 10
)

type fleetDecade struct {
	seed  int64
	p     params.Parameters
	cfg   core.Config
	sc    sim.Scenario
	first *sim.FleetEstimate
	// mtta is the chain's mean time to absorption for one node set.
	mtta float64
}

type fleetRuns struct {
	ests []sim.FleetEstimate
	cpu  map[string]float64 // traced phase only
}

func newFleetDecade(seed int64) *fleetDecade {
	return &fleetDecade{
		seed: seed,
		p:    params.Baseline(),
		cfg:  core.Config{Internal: core.InternalNone, NodeFaultTolerance: 1},
	}
}

// setup derives the scenario and warms the estimator on one full-horizon
// shard (64 node sets) of a fixed seed, the same work in every run.
func (w *fleetDecade) setup() error {
	sc, err := sim.ScenarioFromConfig(w.p, w.cfg, sim.RepairExponential)
	if err != nil {
		return err
	}
	w.sc = sc
	_, err = sim.EstimateFleetCtx(context.Background(), sc, 64*sc.N, fleetYears*params.HoursPerYear, 1, workers)
	return err
}

func (w *fleetDecade) teardown() {}

func (w *fleetDecade) phase(ctx context.Context, d time.Duration, tr *tracing) (*phaseResult, error) {
	res := &phaseResult{}
	runs := &fleetRuns{}
	res.private = runs
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("fleet-decade: cpu profile: %w", err)
		}
	}
	// Each run is one measurement window.
	start := time.Now()
	for time.Since(start) < d {
		t0, cpu0 := time.Now(), cpuSeconds()
		est, err := sim.EstimateFleetCtx(ctx, w.sc, fleetBricks, fleetYears*params.HoursPerYear, w.seed, workers)
		secs := time.Since(t0).Seconds()
		res.Attempted++
		win := window{Seconds: secs, CPU: cpuSeconds() - cpu0, LatMS: []float64{secs * 1e3}}
		if err != nil {
			res.Failed++
		} else {
			win.Work = est.BrickYears
			runs.ests = append(runs.ests, est)
		}
		res.Windows = append(res.Windows, win)
	}
	if tr != nil {
		pprof.StopCPUProfile()
		split, err := cpuSplit(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("fleet-decade: reading cpu profile: %w", err)
		}
		runs.cpu = split
	}
	return res, nil
}

// check: every run returns the same estimate as the first run of the
// process, and the observed per-set MTTDL lies within 4 Poisson standard
// errors of the exact chain's MTTA.
func (w *fleetDecade) check(res *phaseResult) []string {
	var problems []string
	if w.mtta == 0 {
		r, err := core.Analyze(w.p, w.cfg, core.MethodExactChain)
		if err != nil {
			return []string{fmt.Sprintf("fleet-decade: chain MTTA: %v", err)}
		}
		w.mtta = r.MTTDLHours
	}
	for _, est := range res.private.(*fleetRuns).ests {
		if w.first == nil {
			e := est
			w.first = &e
			se := est.MTTDLHours / math.Sqrt(float64(est.Losses))
			if est.Losses == 0 || math.Abs(est.MTTDLHours-w.mtta) > 4*se {
				problems = append(problems, fmt.Sprintf("fleet-decade: observed per-set MTTDL %g h (%d losses) is more than 4 standard errors from the chain MTTA %g h",
					est.MTTDLHours, est.Losses, w.mtta))
			}
			continue
		}
		if est != *w.first {
			problems = append(problems, fmt.Sprintf("fleet-decade: seed %d gave %d events / %d losses, earlier %d / %d",
				w.seed, est.Events, est.Losses, w.first.Events, w.first.Losses))
		}
	}
	return problems
}

func (w *fleetDecade) detail(res *phaseResult) []metric {
	return []metric{
		{Name: "fail_frac", Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"},
		{Name: "fleet_brick_years_per_s", Value: res.rate(), Unit: "brick-y/s"},
		{Name: "peak_heap_mb", Value: res.PeakHeap, Unit: "MiB"},
	}
}

func (w *fleetDecade) layers(res *phaseResult, tr *tracing) []metric {
	runs := res.private.(*fleetRuns)
	shard := tr.stage("sim.fleet.shard")
	// Shard imbalance: the slowest shard over the mean shard, per run.
	var imbalance float64
	if n := len(runs.ests); n > 0 {
		perRun := shard.Count / n
		spans := tr.shardSeconds()
		var sum float64
		for r := 0; r < n && perRun > 0; r++ {
			run := spans[r*perRun : min((r+1)*perRun, len(spans))]
			var mx, tot float64
			for _, s := range run {
				mx = max(mx, s)
				tot += s
			}
			sum += ratio(mx, tot/float64(len(run)))
		}
		imbalance = sum / float64(n)
	}
	var est sim.FleetEstimate
	if len(runs.ests) > 0 {
		est = runs.ests[0]
	}
	ms := []metric{
		{Name: "sim.fleet.shard.self_ms", Value: ratio(shard.Self, float64(shard.Count)) * 1e3, Unit: "ms"},
		{Name: "sim.shard_imbalance", Value: imbalance, Unit: "ratio"},
		{Name: "sim.events_per_brick_year", Value: ratio(float64(est.Events), est.BrickYears), Unit: "1/brick-y"},
		{Name: "sim.splits", Value: float64(est.Splits), Unit: "count"},
		{Name: "sim.merges", Value: float64(est.Merges), Unit: "count"},
		{Name: "sim.peak_live_records", Value: float64(est.PeakLiveRecords), Unit: "count"},
		{Name: "sim.cpu.scheduler_frac", Value: runs.cpu["scheduler"], Unit: "ratio"},
		{Name: "sim.cpu.rng_frac", Value: runs.cpu["rng"], Unit: "ratio"},
		{Name: "sim.cpu.state_frac", Value: runs.cpu["state"], Unit: "ratio"},
	}
	// The fleet calls no solver; the direct timings describe its one
	// analytic point (the chain the MTTA cross-check solves).
	return append(ms, directTimings([]point{{w.p, w.cfg}})...)
}

// shardSeconds returns the durations of the traced sim.fleet.shard spans
// in start order.
func (t *tracing) shardSeconds() []float64 {
	var out []float64
	for _, s := range t.tracer.Spans() {
		if s.Name == "sim.fleet.shard" {
			out = append(out, s.Seconds)
		}
	}
	return out
}

// cpuSplit attributes the samples of a CPU profile to the fleet
// simulator's parts: each sample goes to the innermost frame that is the
// event scheduler (calendar queue or heap), the random number generator,
// or other simulator code (state updates); anything else is "other".
func cpuSplit(profile []byte) (map[string]float64, error) {
	samples, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	tally := map[string]float64{}
	var total float64
	for _, s := range samples {
		cat := "other"
		for _, fn := range s.stack {
			if c := simCategory(fn); c != "" {
				cat = c
				break
			}
		}
		tally[cat] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for _, c := range []string{"scheduler", "rng", "state", "other"} {
		out[c] = ratio(tally[c], total)
	}
	return out, nil
}

func simCategory(fn string) string {
	switch {
	case strings.HasPrefix(fn, "math/rand."):
		return "rng"
	case strings.Contains(fn, "calendarQueue") || strings.Contains(fn, "eventQueue") ||
		strings.HasPrefix(fn, "container/heap.") || strings.HasSuffix(fn, "event.less"):
		return "scheduler"
	case strings.HasPrefix(fn, "repro/internal/sim."):
		return "state"
	}
	return ""
}
