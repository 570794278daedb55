package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/seedstream"
)

// sweep-exact: core.SweepCtx with MethodExactChain over four swept
// parameters at 1024 log-spaced points, for the paper's three Section 7
// configurations plus deep fault tolerance at R=48 and R=16 — including
// the cells where the exact chain is known to be inaccurate. The one
// configuration whose sweeps the chain refuses (R=48, NIR ft 7) is swept
// by the refusal probe instead of the timed phase.

const sweepPoints = 1024

// knob is one swept parameter: its range (the paper's plotted range) and
// how a value is installed.
type knob struct {
	name   string
	lo, hi float64
	apply  func(*params.Parameters, float64)
}

var sweepKnobs = []knob{
	{"drive_mttf_hours", 100_000, 750_000, func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }},
	{"node_mttf_hours", 100_000, 1_000_000, func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }},
	{"rebuild_command_bytes", 4 * params.KiB, params.MiB, func(p *params.Parameters, x float64) { p.RebuildCommandBytes = x }},
	{"link_speed_gbps", 1, 10, func(p *params.Parameters, x float64) { p.LinkSpeedGbps = x }},
}

// sweepConfigs lists the swept configurations with their stripe width.
var sweepConfigs = []struct {
	r   int
	cfg core.Config
}{
	{8, core.Config{Internal: core.InternalNone, NodeFaultTolerance: 2}},
	{8, core.Config{Internal: core.InternalRAID5, NodeFaultTolerance: 2}},
	{8, core.Config{Internal: core.InternalNone, NodeFaultTolerance: 3}},
	{48, core.Config{Internal: core.InternalNone, NodeFaultTolerance: 5}},
	{48, core.Config{Internal: core.InternalNone, NodeFaultTolerance: 6}},
	{48, core.Config{Internal: core.InternalRAID5, NodeFaultTolerance: 4}},
	{48, core.Config{Internal: core.InternalRAID6, NodeFaultTolerance: 4}},
	{16, core.Config{Internal: core.InternalNone, NodeFaultTolerance: 4}},
	{16, core.Config{Internal: core.InternalNone, NodeFaultTolerance: 5}},
}

// probeConfig is the refusal probe's configuration: the exact chain
// refuses about half of its node-MTTF and rebuild-size sweeps (a negative
// MTTDL: float64 exhausted), and whether it does flips with the last
// digits of the range, so it cannot be part of a timed phase in which
// every operation must succeed.
var probeConfig = struct {
	r   int
	cfg core.Config
}{48, core.Config{Internal: core.InternalNone, NodeFaultTolerance: 7}}

// sweepJob is one SweepCtx call: one configuration, one knob.
type sweepJob struct {
	base params.Parameters
	cfg  core.Config
	knob knob
	xs   []float64
	refs []float64 // exact-stable MTTDL per cell, filled by check
	// first holds the MTTDLs of the job's first successful call; every
	// later call must return them bit for bit.
	first []float64
	// attempts and failures count the calls in the current phase.
	attempts, failures int
}

type sweepExact struct {
	jobs []*sweepJob
	// probe holds the refusal probe's sweeps; refused counts the cells of
	// the refused ones, -1 until the probe has run, and probeErr is the
	// largest error of the cells it answered.
	probe    []*sweepJob
	refused  int
	probeErr float64
	problems checkLog
}

// sweepVariants is the number of seeded variants of the 36 sweeps a run
// holds, run in turn; each is a whole Figs 14–20 study.
const sweepVariants = 4

// genSweepJobs builds the seeded job list: sweepVariants blocks, each
// holding every configuration × knob with each range end jittered by up
// to ±5%, in shuffled order. Then the probe: sweepVariants sweeps per
// knob of probeConfig, jittered the same way.
func genSweepJobs(seed int64) (jobs, probe []*sweepJob) {
	rng := rand.New(rand.NewSource(seedstream.Derive(seed, 0x5eed0001)))
	job := func(r int, cfg core.Config, k knob) *sweepJob {
		base := params.Baseline()
		base.RedundancySetSize = r
		lo := k.lo * math.Exp(0.1*(rng.Float64()-0.5))
		hi := k.hi * math.Exp(0.1*(rng.Float64()-0.5))
		return &sweepJob{base: base, cfg: cfg, knob: k, xs: logspace(lo, hi, sweepPoints)}
	}
	for v := 0; v < sweepVariants; v++ {
		var block []*sweepJob
		for _, sc := range sweepConfigs {
			for _, k := range sweepKnobs {
				block = append(block, job(sc.r, sc.cfg, k))
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		jobs = append(jobs, block...)
	}
	for v := 0; v < sweepVariants; v++ {
		for _, k := range sweepKnobs {
			probe = append(probe, job(probeConfig.r, probeConfig.cfg, k))
		}
	}
	return jobs, probe
}

func logspace(lo, hi float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
	}
	return xs
}

func newSweepExact(seed int64) *sweepExact {
	jobs, probe := genSweepJobs(seed)
	return &sweepExact{jobs: jobs, probe: probe, refused: -1}
}

// setupPoints is the length of the warm-up sweeps.
const setupPoints = 64

// setup fills the refill pools and symbolic caches: every configuration ×
// knob once over setupPoints values of its plotted range, the same work
// for every seed.
func (w *sweepExact) setup() error {
	for _, sc := range sweepConfigs {
		for _, k := range sweepKnobs {
			base := params.Baseline()
			base.RedundancySetSize = sc.r
			if _, err := core.SweepCtx(context.Background(), base, []core.Config{sc.cfg}, core.MethodExactChain,
				logspace(k.lo, k.hi, setupPoints), k.apply); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *sweepExact) teardown() {}

// phase runs whole cycles over the job list until d has passed; each
// cycle is one measurement window.
func (w *sweepExact) phase(ctx context.Context, d time.Duration, _ *tracing) (*phaseResult, error) {
	res := &phaseResult{}
	for _, j := range w.jobs {
		j.attempts, j.failures = 0, 0
	}
	start := time.Now()
	for time.Since(start) < d {
		win := window{}
		cycleStart, cpu0 := time.Now(), cpuSeconds()
		passStart := cycleStart
		for i, j := range w.jobs {
			pts, err := core.SweepCtx(ctx, j.base, []core.Config{j.cfg}, core.MethodExactChain, j.xs, j.knob.apply)
			// The latency is that of one pass: the 36 sweeps of a variant,
			// a whole Figs 14–20 study. Single sweeps range from 1 to
			// 25 ms by configuration, so their median would sit on the
			// edge between two configurations.
			if (i+1)%(len(w.jobs)/sweepVariants) == 0 {
				now := time.Now()
				win.LatMS = append(win.LatMS, float64(now.Sub(passStart).Nanoseconds())/1e6)
				passStart = now
			}
			j.attempts++
			res.Attempted += len(j.xs)
			if err != nil {
				j.failures++
				res.Failed += len(j.xs)
				continue
			}
			win.Work += float64(len(pts))
			w.verify(j, pts)
		}
		win.Seconds, win.CPU = time.Since(cycleStart).Seconds(), cpuSeconds()-cpu0
		res.Windows = append(res.Windows, win)
	}
	return res, nil
}

// verify checks one returned sweep: every cell finite and positive, and
// identical to the job's first answer.
func (w *sweepExact) verify(j *sweepJob, pts []core.SweepPoint) {
	if j.first == nil {
		j.first = make([]float64, len(pts))
		for i, pt := range pts {
			j.first[i] = pt.Results[0].MTTDLHours
		}
	}
	for i, pt := range pts {
		v := pt.Results[0].MTTDLHours
		if !(v > 0) || math.IsInf(v, 0) {
			w.problems.add("sweep-exact: %v %s at x=%g returned MTTDL %g", j.cfg, j.knob.name, pt.X, v)
		}
		if v != j.first[i] {
			w.problems.add("sweep-exact: %v %s at x=%g returned %g, earlier %g", j.cfg, j.knob.name, pt.X, v, j.first[i])
		}
	}
}

// check runs the refusal probe and computes the exact-stable reference
// of every cell (once each), and counts the returned cells more than
// 1e-6 away from it.
func (w *sweepExact) check(res *phaseResult) []string {
	if w.refused < 0 {
		w.refused = 0
		for _, j := range w.probe {
			pts, err := core.SweepCtx(context.Background(), j.base, []core.Config{j.cfg}, core.MethodExactChain, j.xs, j.knob.apply)
			if err != nil {
				w.refused += len(j.xs)
				continue
			}
			j.reference()
			for i, pt := range pts {
				w.probeErr = maxFinite(w.probeErr, relErr(pt.Results[0].MTTDLHours, j.refs[i]))
			}
		}
	}
	res.Probed, res.Refused = len(w.probe)*sweepPoints, w.refused
	res.MaxRelErr = maxFinite(res.MaxRelErr, w.probeErr)
	for _, j := range w.jobs {
		j.reference()
		if j.first == nil {
			continue
		}
		succeeded := j.attempts - j.failures
		for i, v := range j.first {
			e := relErr(v, j.refs[i])
			if e > wrongTol {
				res.Wrong += float64(succeeded)
			}
			if succeeded > 0 {
				res.MaxRelErr = maxFinite(res.MaxRelErr, e)
			}
		}
	}
	return w.problems.take()
}

// reference fills the exact-stable MTTDL of every cell, once.
func (j *sweepJob) reference() {
	if j.refs != nil {
		return
	}
	j.refs = make([]float64, len(j.xs))
	for i, x := range j.xs {
		p := j.base
		j.knob.apply(&p, x)
		r, err := core.Analyze(p, j.cfg, core.MethodExactStable)
		if err != nil {
			j.refs[i] = math.NaN()
			continue
		}
		j.refs[i] = r.MTTDLHours
	}
}

func (w *sweepExact) detail(res *phaseResult) []metric {
	return []metric{
		{Name: "fail_frac", Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"},
		{Name: "probe_refused_frac", Value: ratio(float64(res.Refused), float64(res.Probed)), Unit: "ratio"},
		{Name: "wrong_frac", Value: res.Wrong / float64(res.Attempted), Unit: "ratio"},
		{Name: "max_rel_err", Value: res.MaxRelErr, Unit: "ratio"},
		{Name: "sweep_cells_per_s", Value: res.rate(), Unit: "cells/s"},
		{Name: "peak_heap_mb", Value: res.PeakHeap, Unit: "MiB"},
	}
}

func (w *sweepExact) points() []point {
	var pts []point
	for _, j := range w.jobs {
		for i := 0; i < len(j.xs); i += 8 {
			p := j.base
			j.knob.apply(&p, j.xs[i])
			pts = append(pts, point{p, j.cfg})
		}
	}
	return pts
}

func (w *sweepExact) layers(res *phaseResult, tr *tracing) []metric {
	sweep, cell := tr.stage("core.sweep"), tr.stage("core.cell")
	cells := 0
	for _, j := range w.jobs {
		cells += j.attempts * len(j.xs)
	}
	ms := []metric{
		// Exact-chain sweeps take the batched path, which emits no
		// core.cell spans: the per-cell core work (params, rebuild rates,
		// chain refill) is core.sweep self time, spread over the cells.
		{Name: "core.cell.self_us", Value: ratio(sweep.Self+cell.Self, float64(cells)) * 1e6, Unit: "us"},
		{Name: "core.sweep.self_ms", Value: ratio(sweep.Self, float64(sweep.Count)) * 1e3, Unit: "ms"},
	}
	ms = append(ms, solverLayers(tr)...)
	return append(ms, directTimings(w.points())...)
}
