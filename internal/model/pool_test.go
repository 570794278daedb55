package model

import (
	"math/rand"
	"testing"

	"repro/internal/closedform"
	"repro/internal/markov"
)

// chainsBitwiseEqual fails the test unless a and b have identical
// topology and bit-identical rates and exit sums. Both chains must come
// from the same builder family so state indexing matches.
func chainsBitwiseEqual(t *testing.T, a, b *markov.Chain) {
	t.Helper()
	if a.NumStates() != b.NumStates() {
		t.Fatalf("state counts differ: %d vs %d", a.NumStates(), b.NumStates())
	}
	for i := 0; i < a.NumStates(); i++ {
		if a.StateName(i) != b.StateName(i) {
			t.Fatalf("state %d named %q vs %q", i, a.StateName(i), b.StateName(i))
		}
		ea, eb := a.Successors(i), b.Successors(i)
		if len(ea) != len(eb) {
			t.Fatalf("state %q out-degree %d vs %d", a.StateName(i), len(ea), len(eb))
		}
		for j := range ea {
			if ea[j].To != eb[j].To || ea[j].Rate != eb[j].Rate {
				t.Fatalf("state %q edge %d: (%d, %v) vs (%d, %v)",
					a.StateName(i), j, ea[j].To, ea[j].Rate, eb[j].To, eb[j].Rate)
			}
		}
		if a.ExitRate(i) != b.ExitRate(i) {
			t.Fatalf("state %q exit %v vs %v", a.StateName(i), a.ExitRate(i), b.ExitRate(i))
		}
	}
}

func randomNIRInputs(rng *rand.Rand, k int) closedform.NIRInputs {
	n := k + 2 + rng.Intn(50)
	rlo := k + 1
	r := rlo + rng.Intn(n-rlo+1)
	return closedform.NIRInputs{
		N:       n,
		R:       r,
		D:       1 + rng.Intn(12),
		LambdaN: rng.Float64() * 1e-3,
		LambdaD: rng.Float64() * 1e-3,
		MuN:     rng.Float64() * 10,
		MuD:     rng.Float64() * 10,
		CHER:    rng.Float64() * 1e-2,
	}
}

func randomIRInputs(rng *rand.Rand, k int) closedform.IRInputs {
	n := k + 2 + rng.Intn(50)
	rlo := k + 1
	r := rlo + rng.Intn(n-rlo+1)
	return closedform.IRInputs{
		N:            n,
		R:            r,
		LambdaN:      rng.Float64() * 1e-3,
		LambdaArray:  rng.Float64() * 1e-3,
		LambdaSector: rng.Float64() * 1e-2,
		MuN:          rng.Float64() * 10,
	}
}

// freshNIR builds an unpooled NIR chain: the reference a recycled chain
// must match.
func freshNIR(in closedform.NIRInputs, k int) *markov.Chain {
	c := markov.NewChain()
	c.SetInitial(padLabel("", k))
	c.SetAbsorbing("loss")
	buildNIR(c, in, k, "")
	return c.Freeze()
}

func freshIR(in closedform.IRInputs, k int) *markov.Chain {
	c := markov.NewChain()
	c.SetInitial("0")
	c.SetAbsorbing("loss")
	buildIR(c, in, k)
	return c.Freeze()
}

// Chain recycling is invisible: a chain handed back with ReleaseChain
// and refilled by the next NIRChain call is bit-identical to a fresh
// build — every rate and every exit sum — across fault tolerances and
// random inputs.
func TestNIRRefillerLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 1; k <= 6; k++ {
		ReleaseChain(NIRChain(randomNIRInputs(rng, k), k))
		for trial := 0; trial < 25; trial++ {
			in := randomNIRInputs(rng, k)
			got := NIRChain(in, k)
			chainsBitwiseEqual(t, got, freshNIR(in, k))
			ReleaseChain(got)
		}
	}
}

func TestIRRefillerLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for k := 1; k <= 6; k++ {
		ReleaseChain(IRChain(randomIRInputs(rng, k), k))
		for trial := 0; trial < 25; trial++ {
			in := randomIRInputs(rng, k)
			got := IRChain(in, k)
			chainsBitwiseEqual(t, got, freshIR(in, k))
			ReleaseChain(got)
		}
	}
}

// A released chain goes back to its family's pool, and the next build
// of the same inputs — recycled or fresh, whichever the pool yields —
// equals an unpooled build bit for bit.
func TestRefillerPoolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const k = 3
	in := randomNIRInputs(rng, k)
	fresh := freshNIR(in, k)
	c1 := NIRChain(in, k)
	chainsBitwiseEqual(t, c1, fresh)
	label := c1.Label()
	if label == "" {
		t.Fatal("NIRChain returned an unlabelled chain; it cannot be pooled")
	}
	ReleaseChain(c1)
	if _, ok := chainPools.Load(label); !ok {
		t.Fatalf("ReleaseChain kept no pool for family %q", label)
	}
	c2 := NIRChain(in, k)
	chainsBitwiseEqual(t, c2, fresh)
	ReleaseChain(c2)
}

// A recycled build validates geometry with the builders' panics, exactly
// like a fresh one.
func TestRefillGeometryPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ReleaseChain(NIRChain(randomNIRInputs(rng, 2), 2))
	defer func() {
		if recover() == nil {
			t.Fatal("NIRChain with invalid geometry did not panic")
		}
	}()
	NIRChain(closedform.NIRInputs{N: 3, R: 2, D: 1}, 2) // N <= k+1
}

// Measured allocations of one in-place k=4 refill (BeginRefill, the
// builder, EndRefill — what NIRChain and IRChain run on a recycled
// chain): the NIR builder's state-label strings, nothing else. A refill
// that starts rebuilding the chain (state map, edge maps, CSR arrays)
// fails this pin; a fresh build allocates 288 (NIR) and 41 (IR) times.
const (
	nirRefillAllocs = 104
	irRefillAllocs  = 0
)

func TestRefillAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	nirIn := randomNIRInputs(rng, 4)
	nir := freshNIR(nirIn, 4)
	if n := testing.AllocsPerRun(100, func() {
		nir.BeginRefill()
		buildNIR(nir, nirIn, 4, "")
		nir.EndRefill()
	}); n > nirRefillAllocs {
		t.Errorf("NIR refill allocates %v times, want at most %d", n, nirRefillAllocs)
	}
	irIn := randomIRInputs(rng, 4)
	ir := freshIR(irIn, 4)
	if n := testing.AllocsPerRun(100, func() {
		ir.BeginRefill()
		buildIR(ir, irIn, 4)
		ir.EndRefill()
	}); n > irRefillAllocs {
		t.Errorf("IR refill allocates %v times, want at most %d", n, irRefillAllocs)
	}
}
