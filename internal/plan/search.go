package plan

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
)

// confirmChunkCells caps the cells per confirmation work unit, so a
// handful of large configuration groups still spreads across the worker
// pool. Like the sweep engine's chunk size it is purely a scheduling
// knob: every chunk writes caller-indexed slots, so results are
// identical at any value.
const confirmChunkCells = 256

// Search runs SearchCtx without cancellation.
func Search(base params.Parameters, space Space, cons Constraints, opt Options) (*Result, error) {
	return SearchCtx(context.Background(), base, space, cons, opt)
}

// SearchCtx runs the two-phase design-space search over base overridden
// by each candidate's knobs:
//
//  1. Enumerate the space in a fixed nested order (internal scheme,
//     fault tolerance, stripe width, spares, utilization, rebuild
//     size), computing each candidate's cost, capacity and closed-form
//     reliability estimate; candidates violating geometry or the hard
//     cost/capacity constraints are dropped as infeasible.
//  2. Prune with the closed forms as an admissible filter: a candidate
//     is discarded only when provably out under the GuardBand envelope
//     — its optimistic edge already misses the target, or another
//     candidate is at least as cheap and as large with a pessimistic
//     edge strictly better than this one's optimistic edge.
//  3. Confirm every survivor exactly through the appendix recurrences
//     (core.MethodExactStable): survivors are grouped by (internal,
//     fault tolerance) and cut into chunks fanned across the
//     deterministic worker pool.
//  4. Rank the exact Pareto frontier on (cost ↓, capacity ↑, events ↓)
//     among confirmed candidates that meet the target.
//
// Enumeration order fixes every candidate's Index, all results land in
// caller-indexed slots, and every sort uses a total order ending in
// Index, so the ranked frontier is bit-identical at any worker count
// and with pruning disabled (Options) — only the time changes.
//
// Errors: an invalid base, space or constraints fails fast; a survivor
// whose exact confirmation fails reports the lowest-indexed failing
// candidate (candidates whose closed form is already beyond float64 are
// classed infeasible up front).
func SearchCtx(ctx context.Context, base params.Parameters, space Space, cons Constraints, opt Options) (*Result, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "plan.search")
	defer span.End()
	done := searchTimer()

	res := &Result{TargetEventsPerPBYear: cons.target()}
	st := &res.Stats

	cands, err := enumerate(ctx, base, space, cons, st)
	if err != nil {
		return nil, err
	}
	var surv []int
	if opt.DisablePrune {
		surv = make([]int, len(cands))
		for i := range cands {
			surv[i] = i
		}
	} else {
		surv = prune(ctx, cands, res.TargetEventsPerPBYear, st)
	}
	if err := confirm(ctx, cands, surv, res.TargetEventsPerPBYear, st); err != nil {
		return nil, err
	}

	_, rsp := obs.StartSpan(ctx, "plan.rank")
	res.Frontier = buildFrontier(cands, surv, res.TargetEventsPerPBYear)
	st.FrontierSize = len(res.Frontier)
	if opt.Top > 0 && len(res.Frontier) > opt.Top {
		res.Frontier = res.Frontier[:opt.Top]
	}
	rsp.End()

	if st.Enumerated > 0 {
		st.PruneRatio = 1 - float64(st.Confirmed)/float64(st.Enumerated)
	}
	span.SetAttr("enumerated", st.Enumerated)
	span.SetAttr("confirmed", st.Confirmed)
	span.SetAttr("frontier", st.FrontierSize)
	if done != nil {
		done(*st)
	}
	return res, nil
}

// enumerate walks the space in its fixed nested order and returns the
// feasible candidates with cost, capacity and closed-form bound filled
// in; infeasible candidates (geometry the models reject, budget or
// capacity-floor violations, closed forms beyond float64) are only
// counted.
func enumerate(ctx context.Context, base params.Parameters, space Space, cons Constraints, st *Stats) ([]Candidate, error) {
	_, sp := obs.StartSpan(ctx, "plan.enumerate")
	defer sp.End()
	cands := make([]Candidate, 0, space.Size())
	idx := -1
	for _, ir := range space.Internals {
		for _, ft := range space.FaultTolerances {
			cfg := core.Config{Internal: ir, NodeFaultTolerance: ft}
			for _, r := range space.RedundancySetSizes {
				for _, spn := range space.SpareNodes {
					for _, util := range space.Utilizations {
						for _, rb := range space.RebuildBytes {
							idx++
							st.Enumerated++
							if err := ctx.Err(); err != nil {
								return nil, err
							}
							p := base
							p.NodeSetSize = base.NodeSetSize + spn
							p.RedundancySetSize = r
							p.CapacityUtilization = util
							p.RebuildCommandBytes = rb
							cost := float64(p.NodeSetSize) * (float64(p.DrivesPerNode) + cons.NodeCostDrives)
							if cons.MaxCostDrives > 0 && cost > cons.MaxCostDrives {
								st.Infeasible++
								continue
							}
							cf, err := core.AnalyzeCtx(ctx, p, cfg, core.MethodClosedForm)
							if err != nil {
								st.Infeasible++
								continue
							}
							if cons.MinCapacityPB > 0 && cf.LogicalCapacityPB < cons.MinCapacityPB {
								st.Infeasible++
								continue
							}
							cands = append(cands, Candidate{
								Index:                idx,
								Internal:             ir,
								InternalName:         ir.String(),
								FaultTolerance:       ft,
								RedundancySetSize:    r,
								SpareNodes:           spn,
								NodeSetSize:          p.NodeSetSize,
								Utilization:          util,
								RebuildCommandBytes:  rb,
								CostDrives:           cost,
								CapacityPB:           cf.LogicalCapacityPB,
								BoundEventsPerPBYear: cf.EventsPerPBYear,
								params:               p,
							})
						}
					}
				}
			}
		}
	}
	return cands, nil
}

// prune applies the two admissible filters and returns the surviving
// indices into cands, in enumeration order.
func prune(ctx context.Context, cands []Candidate, target float64, st *Stats) []int {
	_, sp := obs.StartSpan(ctx, "plan.prune")
	defer sp.End()
	// Target filter: discard only candidates whose optimistic edge
	// (bound/GuardBand) already misses the target.
	kept := make([]int, 0, len(cands))
	for i := range cands {
		if cands[i].BoundEventsPerPBYear/GuardBand > target {
			st.PrunedTarget++
			continue
		}
		kept = append(kept, i)
	}
	dominated := dominancePrune(cands, kept)
	surv := kept[:0]
	for j, i := range kept {
		if dominated[j] {
			st.PrunedDominated++
			continue
		}
		surv = append(surv, i)
	}
	return surv
}

// dominancePrune marks the kept candidates that are provably
// Pareto-dominated under the guardband: B is dominated when some A
// costs no more, holds no less capacity, and A's pessimistic edge
// (bound·GuardBand) is strictly below B's optimistic edge
// (bound/GuardBand) — so A's exact result beats B's wherever both land
// inside their envelopes. The strict inequality makes self-domination
// impossible, and the relation is transitive (lo < hi always), so
// letting dominated candidates act as dominators is sound: their own
// dominator dominates the victim too.
//
// The scan is subquadratic: candidates sorted by cost, processed in
// equal-cost groups. Members of one group query (a) a cumulative
// capacity-sorted suffix-min of pessimistic edges over all strictly
// cheaper groups and (b) a running minimum over group members already
// swept in (capacity ↓, pessimistic edge ↑) order — an order in which a
// member can only ever be dominated by an earlier one.
func dominancePrune(cands []Candidate, kept []int) []bool {
	dominated := make([]bool, len(kept))
	order := make([]int, len(kept))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := &cands[kept[order[a]]], &cands[kept[order[b]]]
		if ca.CostDrives != cb.CostDrives {
			return ca.CostDrives < cb.CostDrives
		}
		return ca.Index < cb.Index
	})

	type domEntry struct{ cap, hi float64 }
	var (
		cum    []domEntry // sorted by capacity ascending
		sufMin []float64  // sufMin[i] = min hi over cum[i:]
	)
	query := func(cap float64) float64 {
		i := sort.Search(len(cum), func(i int) bool { return cum[i].cap >= cap })
		if i == len(cum) {
			return math.Inf(1)
		}
		return sufMin[i]
	}

	for g := 0; g < len(order); {
		h := g
		cost := cands[kept[order[g]]].CostDrives
		for h < len(order) && cands[kept[order[h]]].CostDrives == cost {
			h++
		}
		group := order[g:h]
		sort.Slice(group, func(a, b int) bool {
			ca, cb := &cands[kept[group[a]]], &cands[kept[group[b]]]
			if ca.CapacityPB != cb.CapacityPB {
				return ca.CapacityPB > cb.CapacityPB
			}
			if ca.BoundEventsPerPBYear != cb.BoundEventsPerPBYear {
				return ca.BoundEventsPerPBYear < cb.BoundEventsPerPBYear
			}
			return ca.Index < cb.Index
		})
		running := math.Inf(1)
		for _, pos := range group {
			c := &cands[kept[pos]]
			lo := c.BoundEventsPerPBYear / GuardBand
			if math.Min(running, query(c.CapacityPB)) < lo {
				dominated[pos] = true
			}
			if hi := c.BoundEventsPerPBYear * GuardBand; hi < running {
				running = hi
			}
		}
		for _, pos := range group {
			c := &cands[kept[pos]]
			cum = append(cum, domEntry{cap: c.CapacityPB, hi: c.BoundEventsPerPBYear * GuardBand})
		}
		sort.Slice(cum, func(a, b int) bool { return cum[a].cap < cum[b].cap })
		if cap(sufMin) < len(cum) {
			sufMin = make([]float64, len(cum))
		} else {
			sufMin = sufMin[:len(cum)]
		}
		minHi := math.Inf(1)
		for i := len(cum) - 1; i >= 0; i-- {
			if cum[i].hi < minHi {
				minHi = cum[i].hi
			}
			sufMin[i] = minHi
		}
		g = h
	}
	return dominated
}

// confirm solves every survivor exactly through the recurrences,
// writing results back into cands. Survivors are in enumeration order,
// so candidates sharing a configuration are contiguous; each such group
// is split into chunks fanned over the worker pool. The lowest-indexed
// failing candidate is reported, as in the sweep engine.
func confirm(ctx context.Context, cands []Candidate, surv []int, target float64, st *Stats) error {
	_, sp := obs.StartSpan(ctx, "plan.confirm")
	defer sp.End()
	if len(surv) == 0 {
		return nil
	}
	out := make([]core.Result, len(surv))

	type chunkSpec struct {
		cfg    core.Config
		lo, hi int
	}
	var chunks []chunkSpec
	for lo := 0; lo < len(surv); {
		cfg := cands[surv[lo]].Config()
		hi := lo
		for hi < len(surv) && cands[surv[hi]].Config() == cfg {
			hi++
		}
		st.TopologyGroups++
		observeGroupCells(hi - lo)
		for a := lo; a < hi; a += confirmChunkCells {
			chunks = append(chunks, chunkSpec{cfg: cfg, lo: a, hi: min(a+confirmChunkCells, hi)})
		}
		lo = hi
	}

	// First-error reduction by survivor index, mirroring the sweep
	// engine's lowest-failing-cell guarantee.
	var (
		mu       sync.Mutex
		firstIdx = len(surv)
		firstErr error
	)
	rerr := core.RunIndexedCtx(ctx, len(chunks), func(k int) error {
		ch := chunks[k]
		for i := ch.lo; i < ch.hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			r, err := core.AnalyzeCtx(ctx, cands[surv[i]].params, ch.cfg, core.MethodExactStable)
			if err != nil {
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
				return nil
			}
			out[i] = r
		}
		return nil
	})
	if firstErr != nil {
		c := &cands[surv[firstIdx]]
		return fmt.Errorf("plan: confirming candidate %d (%v): %w", c.Index, c.Config(), firstErr)
	}
	if rerr != nil {
		return rerr
	}
	for i, ci := range surv {
		c := &cands[ci]
		c.ExactEventsPerPBYear = out[i].EventsPerPBYear
		c.MarginVsTarget = target / out[i].EventsPerPBYear
		c.Confirmed = true
		st.Confirmed++
	}
	return nil
}

// buildFrontier returns the exact Pareto frontier — confirmed
// candidates meeting the target that no other such candidate weakly
// beats on all of (cost, capacity, events) with at least one strict
// improvement — ranked by rankCandidates. Strict dominance is a strict
// partial order whose maximal elements (the frontier) dominate every
// dominated candidate transitively, and any dominator sorts strictly
// earlier under (cost ↑, capacity ↓, events ↑, index), so one forward
// sweep comparing only against the frontier built so far is complete.
func buildFrontier(cands []Candidate, surv []int, target float64) []Candidate {
	meets := make([]Candidate, 0, len(surv))
	for _, ci := range surv {
		if cands[ci].Confirmed && cands[ci].ExactEventsPerPBYear < target {
			meets = append(meets, cands[ci])
		}
	}
	sort.Slice(meets, func(i, j int) bool {
		a, b := &meets[i], &meets[j]
		if a.CostDrives != b.CostDrives {
			return a.CostDrives < b.CostDrives
		}
		if a.CapacityPB != b.CapacityPB {
			return a.CapacityPB > b.CapacityPB
		}
		if a.ExactEventsPerPBYear != b.ExactEventsPerPBYear {
			return a.ExactEventsPerPBYear < b.ExactEventsPerPBYear
		}
		return a.Index < b.Index
	})
	frontier := make([]Candidate, 0, len(meets))
	for i := range meets {
		b := &meets[i]
		dom := false
		for j := range frontier {
			a := &frontier[j]
			if a.CostDrives <= b.CostDrives && a.CapacityPB >= b.CapacityPB &&
				a.ExactEventsPerPBYear <= b.ExactEventsPerPBYear &&
				(a.CostDrives < b.CostDrives || a.CapacityPB > b.CapacityPB ||
					a.ExactEventsPerPBYear < b.ExactEventsPerPBYear) {
				dom = true
				break
			}
		}
		if !dom {
			frontier = append(frontier, *b)
		}
	}
	rankCandidates(frontier)
	return frontier
}
