package markov

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/obs"
)

// Solver computes mean times to absorption like Absorption, but owns all
// intermediate storage — the absorption matrix (dense or CSR), the LU
// factorization, the transient-state maps, and the solve vectors — and
// reuses it across calls. Analysis sweeps and exact-chain Monte Carlo
// paths solve thousands of identically shaped chains; after the first
// call a Solver performs the whole analysis without heap allocation
// (buffers grow monotonically to the largest chain seen).
//
// Above a size/density crossover the Solver switches from dense LU to
// the sparse direct path (internal/linalg/sparse): the absorption matrix
// is assembled in CSR form, and a small per-Solver cache keyed by the
// exact CSR pattern reuses the fill-reducing ordering and symbolic
// factorization across every chain sharing the topology — sweep grids
// refill numeric values only. Sparse results agree with dense to ≤1e-12
// relative error; below the crossover the dense path runs and results
// are bit-identical to Absorption's MeanTimeToAbsorption.
//
// A Solver is not safe for concurrent use; give each goroutine its own
// (see the pooled package-level MTTA).
type Solver struct {
	r              *linalg.Matrix
	f              linalg.LU
	trans          []int
	pos            []int // state index → transient row, -1 for absorbing
	edges          []Edge
	rhs, tau, work []float64

	// Sparse path: the assembled absorption matrix (buffers reused
	// across calls) and the most-recently-used topology cache.
	sp    sparse.CSR
	cache topoCache
}

// topoCacheSize bounds the per-Solver symbolic cache. Sweeps interleave
// at most a handful of configurations per worker (one topology per fault
// tolerance and redundancy family), so a short MRU list captures
// effectively all reuse without growing with grid size.
const topoCacheSize = 8

// topoEntry pairs one CSR pattern with its symbolic+numeric
// factorization. The pattern slices are private copies — the Solver's
// assembly buffers are overwritten every call.
type topoEntry struct {
	rowptr, col []int
	num         *sparse.Numeric
}

// defaultSparseMinStates is the dense→sparse crossover measured on the
// reliability chains (see BENCH_sparse.json): below ~48 transient states
// the dense factorization's tight loops win on constant factors; above
// it the O(n³) term dominates and sparse wins by growing margins. The
// paper's own chains (k ≤ 3, n ≤ 15) always stay dense, keeping every
// printed figure byte-identical.
const defaultSparseMinStates = 48

// maxSparseDensity guards the sparse path against pathologically dense
// chains, where fill-in would exceed the dense triangle anyway.
const maxSparseDensity = 0.25

// sparseMinOverride holds a test/benchmark override of the crossover
// (0 = default).
var sparseMinOverride atomic.Int64

// SetSparseMinStates overrides the minimum transient-state count at
// which Solver.MTTA switches to the sparse LU path, returning the
// previous effective value. n <= 0 restores the benchmarked default;
// a very large n forces the dense path everywhere (benchmark baselines),
// 1 forces sparse nearly everywhere (property tests). The setting is
// process-wide; results at any setting differ only in ≤1e-12 relative
// rounding, and a fixed setting is deterministic at any worker count.
func SetSparseMinStates(n int) int {
	prev := sparseMinStates()
	if n <= 0 {
		sparseMinOverride.Store(0)
	} else {
		sparseMinOverride.Store(int64(n))
	}
	return prev
}

func sparseMinStates() int {
	if n := sparseMinOverride.Load(); n > 0 {
		return int(n)
	}
	return defaultSparseMinStates
}

// NewSolver returns an empty Solver; buffers are sized on first use.
func NewSolver() *Solver {
	return &Solver{r: linalg.New(0, 0)}
}

// successorsInto returns state i's outgoing edges sorted by target index
// — the same deterministic order as Chain.Successors. Frozen chains
// return the CSR view directly; mutable chains fill the solver's edge
// buffer (insertion sort: state degrees in the reliability chains are a
// handful at most).
func (s *Solver) successorsInto(c *Chain, i int) []Edge {
	if c.Frozen() {
		return c.Successors(i)
	}
	s.edges = s.edges[:0]
	for to, r := range c.rates[i] {
		s.edges = append(s.edges, Edge{To: to, Rate: r})
	}
	for a := 1; a < len(s.edges); a++ {
		e := s.edges[a]
		b := a - 1
		for b >= 0 && s.edges[b].To > e.To {
			s.edges[b+1] = s.edges[b]
			b--
		}
		s.edges[b+1] = e
	}
	return s.edges
}

// indexTransients rebuilds the state→row maps for c, returning the
// initial state's row (-1 if the initial state is absorbing).
func (s *Solver) indexTransients(c *Chain) int {
	n := c.NumStates()
	if cap(s.pos) < n {
		s.pos = make([]int, n)
	} else {
		s.pos = s.pos[:n]
	}
	s.trans = s.trans[:0]
	for i := 0; i < n; i++ {
		if c.absorbing[i] {
			s.pos[i] = -1
		} else {
			s.pos[i] = len(s.trans)
			s.trans = append(s.trans, i)
		}
	}
	return s.pos[c.initial]
}

// absorptionMatrixInto rebuilds R = -Q_B into the solver's reused dense
// matrix. indexTransients must have run. Matches Chain.AbsorptionMatrix
// entry for entry.
func (s *Solver) absorptionMatrixInto(c *Chain) {
	s.r.Reshape(len(s.trans), len(s.trans))
	for row, st := range s.trans {
		var exit float64
		for _, e := range s.successorsInto(c, st) {
			exit += e.Rate
			if col := s.pos[e.To]; col >= 0 {
				s.r.Set(row, col, -e.Rate)
			}
		}
		s.r.Set(row, row, s.r.At(row, row)+exit)
	}
}

// assembleSparse rebuilds R = -Q_B in CSR form into the solver's reused
// sparse buffers. Entries within a row are emitted in ascending column
// order (transient successors are already target-sorted and the
// state→row map is monotone; the diagonal is merged at its place), and
// the diagonal is the same sorted-order exit-rate sum the dense assembly
// computes — identical values, different layout.
func (s *Solver) assembleSparse(c *Chain) {
	m := len(s.trans)
	s.sp.Rows, s.sp.Cols = m, m
	if cap(s.sp.RowPtr) < m+1 {
		s.sp.RowPtr = make([]int, m+1)
	} else {
		s.sp.RowPtr = s.sp.RowPtr[:m+1]
	}
	s.sp.RowPtr[0] = 0
	s.sp.Col = s.sp.Col[:0]
	s.sp.Val = s.sp.Val[:0]
	for row, st := range s.trans {
		succ := s.successorsInto(c, st)
		var exit float64
		for _, e := range succ {
			exit += e.Rate
		}
		diagDone := false
		for _, e := range succ {
			col := s.pos[e.To]
			if col < 0 {
				continue
			}
			if !diagDone && col > row {
				s.sp.Col = append(s.sp.Col, row)
				s.sp.Val = append(s.sp.Val, exit)
				diagDone = true
			}
			s.sp.Col = append(s.sp.Col, col)
			s.sp.Val = append(s.sp.Val, -e.Rate)
		}
		if !diagDone {
			s.sp.Col = append(s.sp.Col, row)
			s.sp.Val = append(s.sp.Val, exit)
		}
		s.sp.RowPtr[row+1] = len(s.sp.Col)
	}
}

// topoCache is a Solver's MRU list of pattern→factorization entries.
type topoCache []*topoEntry

// lookupTopology returns the cached factorization whose pattern matches
// the assembled CSR, building (and caching) a new symbolic analysis on
// miss. Hits move to the front; the cache evicts from the back. Hit or
// miss is invisible in the results: the ordering is a pure function of
// the pattern, so a cached and a fresh analysis factor identically.
// A miss's ordering + symbolic analysis is traced as "sparse.symbolic";
// hits skip that work and so carry no span.
func (s *Solver) lookupTopology(ctx context.Context) (*sparse.Numeric, error) {
	return s.cache.lookup(ctx, &s.sp)
}

// lookup implements the MRU search and miss handling for lookupTopology;
// a is only read, and the cached pattern slices are private copies.
func (tc *topoCache) lookup(ctx context.Context, a *sparse.CSR) (*sparse.Numeric, error) {
	cache := *tc
	for i, e := range cache {
		if !patternEqual(e.rowptr, e.col, a.RowPtr, a.Col) {
			continue
		}
		if i > 0 {
			copy(cache[1:i+1], cache[:i])
			cache[0] = e
		}
		sparseReuseHit()
		return e.num, nil
	}
	_, sp := obs.StartSpan(ctx, "sparse.symbolic")
	sym, err := sparse.Analyze(a)
	if sp != nil {
		sp.SetAttr("nnz", a.NNZ())
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	e := &topoEntry{
		rowptr: append([]int(nil), a.RowPtr...),
		col:    append([]int(nil), a.Col...),
		num:    sparse.NewNumeric(sym),
	}
	if len(cache) < topoCacheSize {
		cache = append(cache, nil)
	}
	copy(cache[1:], cache)
	cache[0] = e
	*tc = cache
	sparseSymbolicBuilt(sym)
	return e.num, nil
}

func patternEqual(ap, ac, bp, bc []int) bool {
	if len(ap) != len(bp) || len(ac) != len(bc) {
		return false
	}
	for i, v := range ap {
		if bp[i] != v {
			return false
		}
	}
	for i, v := range ac {
		if bc[i] != v {
			return false
		}
	}
	return true
}

func resizeFloats(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// MTTA returns the chain's mean time to absorption, reusing the solver's
// storage. It returns an error if the chain fails Validate or the
// absorption matrix is singular. Chains whose transient count reaches
// the sparse crossover (SetSparseMinStates) solve through the sparse
// symbolic/numeric path; smaller chains are bit-identical to
// Absorption's MeanTimeToAbsorption via dense LU.
func (s *Solver) MTTA(c *Chain) (float64, error) {
	return s.MTTACtx(context.Background(), c)
}

// MTTACtx is MTTA carrying the caller's context for tracing: when the
// context holds an active span (obs.StartSpan), the solve and its stages
// — symbolic analysis, numeric refactorization, triangular solve, dense
// fallback — are attributed as child spans. The context is not used for
// cancellation (a single solve is far below any useful cancellation
// granularity); results are identical to MTTA.
func (s *Solver) MTTACtx(ctx context.Context, c *Chain) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	ctx, solveSp := obs.StartSpan(ctx, "markov.solve")
	if solveSp != nil {
		solveSp.SetAttr("states", c.NumStates())
	}
	defer solveSp.End()
	initRow := s.indexTransients(c)
	if initRow < 0 {
		return 0, nil // initial state is absorbing
	}
	m := len(s.trans)
	s.rhs = resizeFloats(s.rhs, m)
	s.tau = resizeFloats(s.tau, m)
	s.work = resizeFloats(s.work, m)
	for i := range s.rhs {
		s.rhs[i] = 0
	}
	s.rhs[initRow] = 1

	fellBack := false
	timer := absorptionTimer(c.NumStates())
	if m >= sparseMinStates() {
		s.assembleSparse(c)
		if float64(s.sp.NNZ()) <= maxSparseDensity*float64(m)*float64(m) {
			num, err := s.lookupTopology(ctx)
			if err == nil {
				_, rsp := obs.StartSpan(ctx, "sparse.refactor")
				err = num.Refactor(&s.sp)
				rsp.End()
			}
			if err == nil {
				// τ_B = π_B(0)·R⁻¹ means Rᵀ·τ = π_B(0).
				_, ssp := obs.StartSpan(ctx, "sparse.solve")
				num.SolveTransposeInto(s.tau, s.rhs, s.work)
				ssp.End()
				if tauPlausible(s.tau) {
					sparseSolveDone(&s.sp)
					if timer != nil {
						timer(sparseResidual(&s.sp, s.tau, initRow, s.work))
					}
					return linalg.Sum(s.tau), nil
				}
			}
			// Zero pivot, or a solution the static-pivot factorization
			// cannot certify (see tauPlausible): redo with dense partial
			// pivoting, the authoritative fallback. Counted, never silent
			// in the metrics or the trace.
			sparseFellBack()
			fellBack = true
		}
		// (Too dense for the sparse path: fall through to dense LU.)
	}
	_, dsp := obs.StartSpan(ctx, "dense.solve")
	if dsp != nil && fellBack {
		dsp.SetAttr("fallback", true)
	}
	s.absorptionMatrixInto(c)
	if err := linalg.FactorizeInto(&s.f, s.r); err != nil {
		dsp.End()
		return 0, fmt.Errorf("markov: absorption matrix: %w", err)
	}
	s.f.SolveTransposeInto(s.tau, s.rhs, s.work)
	dsp.End()
	if timer != nil {
		timer(absorptionResidual(s.r, s.tau, initRow))
	}
	return linalg.Sum(s.tau), nil
}

// tauPlausible reports whether a computed mean-time-in-state vector is
// numerically trustworthy. Every τ_i is nonnegative in exact arithmetic
// (it is an expected sojourn time), so a component significantly below
// zero — beyond rounding noise relative to the largest component — is a
// certificate that the solve lost all accuracy (the matrix is so
// ill-conditioned that static pivoting broke down; near float64
// exhaustion even partial pivoting returns garbage, but the dense path's
// garbage is the documented legacy behavior, which core's usability
// checks then judge). The test is a pure function of the values, so the
// sparse/dense routing stays deterministic at any worker count.
func tauPlausible(tau []float64) bool {
	var worst, scale float64
	for _, v := range tau {
		if v < worst {
			worst = v
		}
		if v > scale {
			scale = v
		} else if -v > scale {
			scale = -v
		}
	}
	return worst >= -1e-9*scale
}

// sparseResidual computes ‖Rᵀτ − e_init‖∞ through the CSR matrix,
// using scratch (length ≥ n) for the product — instrumented solves only.
func sparseResidual(r *sparse.CSR, tau []float64, initRow int, scratch []float64) float64 {
	prod := r.VecMulInto(scratch[:len(tau)], tau)
	var worst float64
	for j, v := range prod {
		if j == initRow {
			v -= 1
		}
		if v < 0 {
			v = -v
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

// SparseStats describes the absorption matrix of a chain as the sparse
// solver sees it: dimension, stored entries, density, and the fill the
// symbolic factorization would incur. Sparse reports whether MTTA would
// take the sparse path at the current crossover settings.
type SparseStats struct {
	// N is the absorption matrix dimension (transient states); NNZ its
	// stored entries; Density NNZ/N².
	N, NNZ  int
	Density float64
	// FactorNNZ counts the entries of L+U (unit diagonal included);
	// FillRatio is FactorNNZ/NNZ — 1.0 means a perfect no-fill ordering.
	FactorNNZ int
	FillRatio float64
	// Sparse reports whether Solver.MTTA would use the sparse path.
	Sparse bool
}

// AbsorptionSparseStats analyzes the chain's absorption matrix pattern
// without solving it. The chain must validate and have a transient
// initial state.
func AbsorptionSparseStats(c *Chain) (SparseStats, error) {
	if err := c.Validate(); err != nil {
		return SparseStats{}, err
	}
	s := solverPool.Get().(*Solver)
	defer solverPool.Put(s)
	if s.indexTransients(c) < 0 {
		return SparseStats{}, fmt.Errorf("markov: initial state is absorbing")
	}
	s.assembleSparse(c)
	sym, err := sparse.Analyze(&s.sp)
	if err != nil {
		return SparseStats{}, fmt.Errorf("markov: absorption matrix: %w", err)
	}
	m := len(s.trans)
	st := SparseStats{
		N:         m,
		NNZ:       s.sp.NNZ(),
		Density:   s.sp.Density(),
		FactorNNZ: sym.FactorNNZ(),
		FillRatio: sym.FillRatio(),
	}
	st.Sparse = m >= sparseMinStates() && float64(st.NNZ) <= maxSparseDensity*float64(m)*float64(m)
	return st, nil
}
