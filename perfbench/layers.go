package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/closedform"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// layerCatalog is the fixed list of per-layer metrics every traced run
// reports, grouped by the repository module they describe. A workload
// that bypasses a layer reports 0 for its metrics: nothing of that layer
// ran. WORKLOADS.md maps each metric to the end-to-end metric it should
// move and the workload it is measured on.
var layerCatalog = []struct{ name, unit, better string }{
	// serve: spans of nsr-serve's own request trees.
	{"serve.request.self_us", "us", "lower"},
	{"serve.canonicalize.self_us", "us", "lower"},
	{"serve.cache.self_us", "us", "lower"},
	{"serve.queue_wait_us", "us", "lower"},
	{"serve.compute.self_us", "us", "lower"},
	{"serve.http_overhead_us", "us", "lower"},
	{"serve.cache.hit_ratio", "ratio", "higher"},
	{"serve.solves_per_req", "count", "lower"},
	{"serve.cache.misclassified", "count", "lower"},
	// core
	{"core.cell.self_us", "us", "lower"},
	{"core.sweep.self_ms", "ms", "lower"},
	// rebuild (direct calls on the workload's parameter points)
	{"rebuild.compute_us", "us", "lower"},
	// model
	{"chain.freeze.self_us", "us", "lower"},
	// markov
	{"markov.solve.self_us", "us", "lower"},
	{"markov.batch.self_us", "us", "lower"},
	{"markov.batch.cells_per_chunk", "count", "higher"},
	{"markov.sparse.symbolic_reuse_ratio", "ratio", "higher"},
	{"markov.sparse.dense_fallbacks", "count", "lower"},
	{"markov.mtta_us", "us", "lower"},
	// linalg/sparse and dense linalg
	{"sparse.symbolic.self_us", "us", "lower"},
	{"sparse.refactor.self_us", "us", "lower"},
	{"sparse.solve.self_us", "us", "lower"},
	{"dense.solve.self_us", "us", "lower"},
	{"sparse.fill_ratio", "ratio", "lower"},
	// closedform + combinat (direct calls)
	{"closedform.recurrence_us", "us", "lower"},
	{"closedform.bound_us", "us", "lower"},
	// plan
	{"plan.search.self_ms", "ms", "lower"},
	{"plan.enumerate.self_ms", "ms", "lower"},
	{"plan.prune.self_ms", "ms", "lower"},
	{"plan.confirm.self_ms", "ms", "lower"},
	{"plan.rank.self_ms", "ms", "lower"},
	{"plan.prune_ratio", "ratio", "higher"},
	{"plan.confirmed", "count", "lower"},
	{"plan.batch.groups", "count", "lower"},
	// sim (+ seedstream)
	{"sim.fleet.shard.self_ms", "ms", "lower"},
	{"sim.shard_imbalance", "ratio", "lower"},
	{"sim.events_per_brick_year", "1/brick-y", "lower"},
	{"sim.splits", "count", "lower"},
	{"sim.merges", "count", "lower"},
	{"sim.peak_live_records", "count", "lower"},
	{"sim.cpu.scheduler_frac", "ratio", "lower"},
	{"sim.cpu.rng_frac", "ratio", "lower"},
	{"sim.cpu.state_frac", "ratio", "lower"},
	// the whole traced phase
	{"stage.sum_over_root", "ratio", "higher"},
	{"trace_overhead.ops_per_s", "ratio", "higher"},
	{"trace_overhead.p50_ms", "ratio", "lower"},
	{"trace_overhead.p99_ms", "ratio", "lower"},
	{"trace_overhead.peak_heap_mb", "ratio", "lower"},
	{"trace_overhead.exact_frac", "ratio", "higher"},
	// correctness counts of the untraced phase
	{"check.fail_frac", "ratio", "lower"},
	{"check.probe_refused_frac", "ratio", "lower"},
	{"check.wrong_frac", "ratio", "lower"},
	{"check.max_rel_err", "ratio", "lower"},
}

// fillLayers orders a workload's per-layer metrics by the catalog and
// reports 0 for every catalog metric the workload did not produce.
func fillLayers(got []metric) []metric {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(layerCatalog))
	for _, c := range layerCatalog {
		m, ok := byName[c.name]
		if ok && m.Unit != c.unit {
			panic(fmt.Sprintf("perfbench: layer metric %s has unit %s, catalog says %s", c.name, m.Unit, c.unit))
		}
		delete(byName, c.name)
		out = append(out, metric{Name: c.name, Value: m.Value, Unit: c.unit, N: m.N})
	}
	for name := range byName {
		panic("perfbench: layer metric missing from the catalog: " + name)
	}
	return out
}

// point is one (parameters, configuration) pair a workload analyzes.
type point struct {
	p   params.Parameters
	cfg core.Config
}

// valid reports whether the models accept the point's geometry.
func (pt point) valid() bool {
	k := pt.cfg.NodeFaultTolerance
	return pt.p.Validate() == nil && pt.p.NodeSetSize > k+1 && pt.p.RedundancySetSize > k &&
		(pt.cfg.Internal == core.InternalNone || pt.p.DrivesPerNode > pt.cfg.Internal.ParityDrives())
}

// inputs builds the closed-form inputs of a point the way the analysis
// does: repair rates from rebuild, internal-array rates for RAID.
func (pt point) inputs() (closedform.NIRInputs, closedform.IRInputs) {
	p := pt.p
	rates := rebuild.Compute(p, pt.cfg.NodeFaultTolerance)
	if pt.cfg.Internal == core.InternalNone {
		return closedform.NIRInputs{
			N: p.NodeSetSize, R: p.RedundancySetSize, D: p.DrivesPerNode,
			LambdaN: p.NodeFailureRate(), LambdaD: p.DriveFailureRate(),
			MuN: rates.NodeRebuild, MuD: rates.DriveRebuild, CHER: p.CHER(),
		}, closedform.IRInputs{}
	}
	m := pt.cfg.Internal.ParityDrives()
	arr := closedform.ArrayInputs{D: p.DrivesPerNode, LambdaD: p.DriveFailureRate(), MuD: rates.Restripe, CHER: p.CHER()}
	return closedform.NIRInputs{}, closedform.IRInputs{
		N: p.NodeSetSize, R: p.RedundancySetSize,
		LambdaN:      p.NodeFailureRate(),
		LambdaArray:  closedform.ArrayFailureRate(m, arr),
		LambdaSector: closedform.SectorErrorRate(m, arr),
		MuN:          rates.NodeRebuild,
	}
}

// directSink keeps the results of the direct calls alive.
var directSink float64

// directMinTime is how long each direct-call timing loops at least.
const directMinTime = 40 * time.Millisecond

// timePerCall runs fn over n items, repeating whole passes until
// directMinTime has passed, and returns the mean microseconds per call.
func timePerCall(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < directMinTime {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return time.Since(start).Seconds() / float64(calls) * 1e6
}

// directTimings times the benchmark's own calls into rebuild, closedform
// and markov on the workload's parameter points: the cost each layer
// would have on those inputs with nothing else around it.
func directTimings(points []point) []metric {
	var pts []point
	for _, pt := range points {
		if pt.valid() {
			pts = append(pts, pt)
		}
	}
	nirs := make([]closedform.NIRInputs, len(pts))
	irs := make([]closedform.IRInputs, len(pts))
	for i, pt := range pts {
		nirs[i], irs[i] = pt.inputs()
	}
	rebuildUS := timePerCall(len(pts), func(i int) {
		directSink += rebuild.Compute(pts[i].p, pts[i].cfg.NodeFaultTolerance).NodeRebuild
	})
	recurrenceUS := timePerCall(len(pts), func(i int) {
		k := pts[i].cfg.NodeFaultTolerance
		if pts[i].cfg.Internal == core.InternalNone {
			directSink += closedform.NIRMTTDLRecursive(nirs[i], k)
		} else {
			directSink += closedform.IRMTTDLExact(irs[i], k)
		}
	})
	boundUS := timePerCall(len(pts), func(i int) {
		k := pts[i].cfg.NodeFaultTolerance
		if pts[i].cfg.Internal == core.InternalNone {
			directSink += closedform.NIRMTTDLGeneral(nirs[i], k)
		} else {
			directSink += closedform.IRMTTDL(irs[i], k)
		}
	})
	// Chain solves are far dearer; time at most 64 evenly spaced points.
	step := (len(pts) + 63) / 64
	var chains []*markov.Chain
	for i := 0; i < len(pts); i += max(step, 1) {
		k := pts[i].cfg.NodeFaultTolerance
		if pts[i].cfg.Internal == core.InternalNone {
			chains = append(chains, model.NIRChain(nirs[i], k))
		} else {
			chains = append(chains, model.IRChain(irs[i], k))
		}
	}
	mttaUS := timePerCall(len(chains), func(i int) {
		v, _ := markov.MTTA(chains[i]) // refusals cost the same solve
		directSink += v
	})
	for _, c := range chains {
		model.ReleaseChain(c)
	}
	return []metric{
		{Name: "rebuild.compute_us", Value: rebuildUS, Unit: "us", N: len(pts)},
		{Name: "closedform.recurrence_us", Value: recurrenceUS, Unit: "us", N: len(pts)},
		{Name: "closedform.bound_us", Value: boundUS, Unit: "us", N: len(pts)},
		{Name: "markov.mtta_us", Value: mttaUS, Unit: "us", N: len(chains)},
	}
}

// solverLayers reads the chain-solver metrics every solver workload
// shares: span self times of the model, markov and linalg stages and the
// markov counters.
func solverLayers(tr *tracing) []metric {
	return []metric{
		{Name: "chain.freeze.self_us", Value: tr.meanSelfUS("chain.freeze"), Unit: "us"},
		{Name: "markov.solve.self_us", Value: tr.meanSelfUS("markov.solve"), Unit: "us"},
		{Name: "markov.batch.self_us", Value: tr.meanSelfUS("markov.batch"), Unit: "us"},
		{Name: "markov.batch.cells_per_chunk", Value: ratio(tr.counter("markov.batch.cells"), tr.counter("markov.batch.chunks")), Unit: "count"},
		{Name: "markov.sparse.symbolic_reuse_ratio", Value: ratio(tr.counter("markov.sparse.symbolic_reuse"),
			tr.counter("markov.sparse.symbolic_reuse")+tr.counter("markov.sparse.symbolic_builds")), Unit: "ratio"},
		{Name: "markov.sparse.dense_fallbacks", Value: tr.counter("markov.sparse.dense_fallbacks"), Unit: "count"},
		{Name: "sparse.symbolic.self_us", Value: tr.meanSelfUS("sparse.symbolic"), Unit: "us"},
		{Name: "sparse.refactor.self_us", Value: tr.meanSelfUS("sparse.refactor"), Unit: "us"},
		{Name: "sparse.solve.self_us", Value: tr.meanSelfUS("sparse.solve"), Unit: "us"},
		{Name: "dense.solve.self_us", Value: tr.meanSelfUS("dense.solve"), Unit: "us"},
		{Name: "sparse.fill_ratio", Value: tr.histMean("markov.sparse.fill_ratio"), Unit: "ratio"},
	}
}

// relErr is |got/want − 1|; +Inf when want is not a positive number or
// got is not a number, so a malformed answer always counts as wrong.
func relErr(got, want float64) float64 {
	if !(want > 0) || math.IsNaN(got) {
		return inf
	}
	return math.Abs(got/want - 1)
}

var inf = math.Inf(1)

// maxFinite is the larger of a and e, ignoring an infinite e: a malformed
// answer counts as wrong but has no relative error to report.
func maxFinite(a, e float64) float64 {
	if math.IsInf(e, 0) {
		return a
	}
	return max(a, e)
}

// wrongTol is the relative distance from the reference beyond which a
// returned exact MTTDL counts as wrong.
const wrongTol = 1e-6
