package plan

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Package-level search instrumentation, nil (one atomic load) by
// default, following the solver packages' pattern: Instrument once in
// the command or server, read the registry snapshot at the end.
type searchMetrics struct {
	searches *obs.Counter
	seconds  *obs.Histogram

	enumerated      *obs.Counter
	infeasible      *obs.Counter
	prunedTarget    *obs.Counter
	prunedDominated *obs.Counter
	confirmed       *obs.Counter

	groups     *obs.Counter
	groupCells *obs.Histogram

	pruneRatio   *obs.Gauge
	frontierSize *obs.Gauge
}

var instr atomic.Pointer[searchMetrics]

// Instrument routes optimizer telemetry into reg: per-search wall time,
// the candidate accounting (enumerated / infeasible / pruned by target /
// pruned by dominance / exactly confirmed), the configuration groups
// confirmation is chunked by (plan.batch.groups and cells per group),
// and the most recent search's prune ratio and frontier size. Pass nil
// to disable again.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		instr.Store(nil)
		return
	}
	instr.Store(&searchMetrics{
		searches: reg.Counter("plan.searches"),
		seconds:  reg.Histogram("plan.search_seconds", obs.ExpBuckets(1e-4, 4, 12)),

		enumerated:      reg.Counter("plan.candidates.enumerated"),
		infeasible:      reg.Counter("plan.candidates.infeasible"),
		prunedTarget:    reg.Counter("plan.candidates.pruned_target"),
		prunedDominated: reg.Counter("plan.candidates.pruned_dominated"),
		confirmed:       reg.Counter("plan.candidates.confirmed"),

		groups:     reg.Counter("plan.batch.groups"),
		groupCells: reg.Histogram("plan.batch.group_cells", obs.ExpBuckets(1, 4, 10)),

		pruneRatio:   reg.Gauge("plan.last_prune_ratio"),
		frontierSize: reg.Gauge("plan.last_frontier_size"),
	})
}

// searchTimer returns a stop function recording one completed search,
// or nil when instrumentation is off.
func searchTimer() func(st Stats) {
	m := instr.Load()
	if m == nil {
		return nil
	}
	start := time.Now()
	return func(st Stats) {
		m.searches.Inc()
		m.seconds.Observe(time.Since(start).Seconds())
		m.enumerated.Add(int64(st.Enumerated))
		m.infeasible.Add(int64(st.Infeasible))
		m.prunedTarget.Add(int64(st.PrunedTarget))
		m.prunedDominated.Add(int64(st.PrunedDominated))
		m.confirmed.Add(int64(st.Confirmed))
		m.groups.Add(int64(st.TopologyGroups))
		m.pruneRatio.Set(st.PruneRatio)
		m.frontierSize.Set(float64(st.FrontierSize))
	}
}

// observeGroupCells records the size of one configuration group — the
// number of confirmed cells sharing one (internal, fault tolerance).
func observeGroupCells(n int) {
	if m := instr.Load(); m != nil {
		m.groupCells.Observe(float64(n))
	}
}
