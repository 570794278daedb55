package closedform

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/combinat"
	"repro/internal/linalg"
)

// The recursion must agree with the printed exact k=1 solution — both are
// exact solutions of the same 3-state chain (inside the h validity
// domain).
func TestRecursiveMatchesExactK1(t *testing.T) {
	in := baselineNIR(1)
	in.CHER = 0.001 // keep h_N = d(R-1)·CHER < 1: no clamping
	got := NIRMTTDLRecursive(in, 1)

	// Exact 3-state arrowhead solution (see the model tests):
	// MTTDL = (ab + rN·b + rd·a) / (diag·ab − rN·μN·b − rd·μd·a).
	n, d := float64(in.N), float64(in.D)
	hN := d * float64(in.R-1) * in.CHER
	hD := float64(in.R-1) * in.CHER
	diag := n * (in.LambdaN + d*in.LambdaD)
	rN := n * in.LambdaN * (1 - hN)
	rD := n * d * in.LambdaD * (1 - hD)
	a := in.MuN + (n-1)*(in.LambdaN+d*in.LambdaD)
	b := in.MuD + (n-1)*(in.LambdaN+d*in.LambdaD)
	want := (a*b + rN*b + rD*a) / (diag*a*b - rN*in.MuN*b - rD*in.MuD*a)

	if linalg.RelDiff(got, want) > 1e-12 {
		t.Errorf("recursive %v vs direct arrowhead solution %v", got, want)
	}
}

// The recursion is an exact method: it should sit within the printed
// approximations' error of them, and much closer to the truth. Verify it
// against the independent general theorem at baseline (separated rates).
func TestRecursiveNearTheoremAtBaseline(t *testing.T) {
	for k := 2; k <= 5; k++ {
		in := baselineNIR(min(k, 3))
		exact := NIRMTTDLRecursive(in, k)
		approx := NIRMTTDLGeneral(in, k)
		if linalg.RelDiff(exact, approx) > 0.05 {
			t.Errorf("k=%d: recursive exact %v vs theorem %v differ by > 5%%", k, exact, approx)
		}
	}
}

// Unlike the approximation, the exact recursion must remain accurate when
// rates are NOT separated (the theorem's assumption broken). Cross-check
// against randomized parameters by verifying internal consistency: the
// recursion with CHER = 0 must be symmetric under swapping the node and
// drive failure roles when their aggregate rates and repairs are swapped.
func TestRecursiveRoleSwapSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		in := NIRInputs{
			N:       k + 3 + rng.Intn(30),
			R:       k + 1 + rng.Intn(3),
			D:       1, // d=1 makes node and drive failures structurally symmetric
			LambdaN: 1e-5 * (1 + 9*rng.Float64()),
			LambdaD: 1e-5 * (1 + 9*rng.Float64()),
			MuN:     0.01 * (1 + 99*rng.Float64()),
			MuD:     0.01 * (1 + 99*rng.Float64()),
			CHER:    0,
		}
		if in.R > in.N {
			in.R = in.N
		}
		swapped := in
		swapped.LambdaN, swapped.LambdaD = in.LambdaD, in.LambdaN
		swapped.MuN, swapped.MuD = in.MuD, in.MuN
		return linalg.RelDiff(NIRMTTDLRecursive(in, k), NIRMTTDLRecursive(swapped, k)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Sanity bound: without sector errors and with only the top-level repair
// mattering, MTTDL must exceed the no-repair series bound Σ 1/((N-i)λtot).
func TestRecursiveExceedsNoRepairBound(t *testing.T) {
	in := baselineNIR(2)
	in.CHER = 0
	got := NIRMTTDLRecursive(in, 2)
	lambdaTot := in.LambdaN + float64(in.D)*in.LambdaD
	bound := 0.0
	for i := 0; i <= 2; i++ {
		bound += 1 / (float64(in.N-i) * lambdaTot)
	}
	if got <= bound {
		t.Errorf("exact MTTDL %v not above no-repair bound %v", got, bound)
	}
}

func TestRecursiveMonotoneInK(t *testing.T) {
	prev := 0.0
	for k := 1; k <= 6; k++ {
		in := baselineNIR(min(k, 3))
		got := NIRMTTDLRecursive(in, k)
		if got <= prev {
			t.Errorf("recursive MTTDL not increasing at k=%d: %v <= %v", k, got, prev)
		}
		prev = got
	}
}

// The ratio-form recursion survives k=6 where the dense LU solve exhausts
// float64 (cross-reference: core's numeric guard) — it must at least stay
// positive and keep growing.
func TestRecursiveStableAtK6(t *testing.T) {
	in := baselineNIR(3)
	k5 := NIRMTTDLRecursive(in, 5)
	k6 := NIRMTTDLRecursive(in, 6)
	if k6 <= k5 || k6 < 1e20 {
		t.Errorf("k=6 recursive MTTDL = %v (k=5: %v), want growth past 1e20", k6, k5)
	}
}

func TestRecursiveValidation(t *testing.T) {
	in := baselineNIR(2)
	defer func() {
		if recover() == nil {
			t.Error("invalid k accepted")
		}
	}()
	NIRMTTDLRecursive(in, 0)
}

// nirRecurseTree is the recursion evaluated node by node over the full
// 2^(k+1)−1 tree, the h-set indexed per failure word: the test oracle
// for NIRMTTDLRecursive's (level, drive count) evaluation.
func nirRecurseTree(in NIRInputs, k, n int, hset []float64) (rho, nu float64) {
	d := float64(in.D)
	totalFail := float64(n) * (in.LambdaN + d*in.LambdaD)
	if k == 0 {
		inv := 1 / totalFail
		return inv, inv
	}
	half := len(hset) / 2
	rhoN, nuN := nirRecurseTree(in, k-1, n-1, hset[:half])
	rhoD, nuD := nirRecurseTree(in, k-1, n-1, hset[half:])
	escapeN := 1 / (1 + in.MuN*rhoN)
	escapeD := 1 / (1 + in.MuD*rhoD)
	rN := float64(n) * in.LambdaN
	rD := float64(n) * d * in.LambdaD
	rA := 0.0
	if k == 1 {
		rA = rN*hset[0] + rD*hset[1]
		rN *= 1 - hset[0]
		rD *= 1 - hset[1]
	}
	g := rA + rN*escapeN + rD*escapeD
	return 1 / g, (1 + rN*nuN*escapeN + rD*nuD*escapeD) / g
}

// Evaluating each (level, drive count) pair once is bit-identical to
// walking the whole recursion tree, across fault tolerances and random
// inputs — including h values clamped at 1.
func TestRecursiveMatchesTreeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(10)
		n := k + 2 + rng.Intn(60)
		r := k + 1 + rng.Intn(n-k)
		in := NIRInputs{
			N: n, R: r, D: 1 + rng.Intn(16),
			LambdaN: rng.Float64() * 1e-3, LambdaD: rng.Float64() * 1e-3,
			MuN: rng.Float64() * 10, MuD: rng.Float64() * 10,
			CHER: rng.Float64() * 0.5,
		}
		hset := combinat.HSet(in.N, in.R, in.D, in.CHER, k)
		for i, h := range hset {
			if h > 1 {
				hset[i] = 1
			}
		}
		_, want := nirRecurseTree(in, k, in.N, hset)
		if got := NIRMTTDLRecursive(in, k); got != want {
			t.Fatalf("k=%d %+v: %v, tree walk %v", k, in, got, want)
		}
	}
}
