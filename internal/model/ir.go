package model

import (
	"fmt"
	"strconv"

	"repro/internal/closedform"
	"repro/internal/combinat"
	"repro/internal/markov"
)

// IRChain builds the node-level chain for nodes with internal RAID and
// inter-node fault tolerance k (Figures 5, 6 and 7 for k = 1, 2, 3; the
// same birth-death-with-absorption structure extends to any k).
//
// State i (0 ≤ i ≤ k) has i outstanding node-or-array failures. Failures
// arrive at rate (N-i)(λ_N+λ_D); each repairs at μ_N back to state i-1.
// From state k, one more failure — or a sector error in the critical
// fraction k_k of redundancy sets — absorbs into data loss:
// rate (N-k)(λ_N+λ_D+k_k·λ_S).
func IRChain(in closedform.IRInputs, k int) *markov.Chain {
	if k < 1 {
		panic(fmt.Sprintf("model: fault tolerance %d must be >= 1", k))
	}
	if in.N <= k+1 || in.R < k+1 || in.R > in.N {
		panic(fmt.Sprintf("model: invalid IR geometry N=%d R=%d k=%d", in.N, in.R, k))
	}
	label := "ir/" + strconv.Itoa(k)
	if c := acquireChain(label); c != nil {
		c.BeginRefill()
		buildIR(c, in, k)
		c.EndRefill()
		return c
	}
	c := markov.NewChain()
	c.SetLabel(label)
	c.SetInitial("0")
	c.SetAbsorbing("loss")
	buildIR(c, in, k)
	return c.Freeze()
}

// buildIR adds the birth-death transitions. AddEdge keeps structural
// edges at parameter corners, so the topology depends on k alone and
// recycled chains refill in place.
func buildIR(c *markov.Chain, in closedform.IRInputs, k int) {
	n := float64(in.N)
	lambda := in.LambdaN + in.LambdaArray
	kk := combinat.CriticalFraction(in.N, in.R, k)
	for i := 0; i < k; i++ {
		c.AddEdge(strconv.Itoa(i), strconv.Itoa(i+1), (n-float64(i))*lambda)
		if i > 0 {
			c.AddEdge(strconv.Itoa(i), strconv.Itoa(i-1), in.MuN)
		}
	}
	c.AddEdge(strconv.Itoa(k), strconv.Itoa(k-1), in.MuN)
	c.AddEdge(strconv.Itoa(k), "loss", (n-float64(k))*(lambda+kk*in.LambdaSector))
}
