package model

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/closedform"
	"repro/internal/combinat"
	"repro/internal/markov"
)

// NIRChain builds the chain for nodes without internal RAID and inter-node
// fault tolerance k, following the appendix's recursive construction
// (Figures 8, 9 and 10 are the k = 1, 2, 3 instances).
//
// States are labelled by words of length k over {0, N, d}: the non-zero
// prefix is the stack of outstanding failures in arrival order (N = node,
// d = drive), padded with "0". The chain has 2^(k+1)-1 transient states
// plus one absorbing "loss" state. From a state with j outstanding
// failures:
//
//   - a node fails at rate (N-j)·λ_N, a drive at (N-j)·d·λ_d;
//   - when j == k-1, the arriving failure's rebuild is critical: with
//     probability h_α (Section 5.2.2) an uncorrectable read error during
//     that rebuild absorbs directly into loss;
//   - when j == k, any further failure absorbs: rate (N-k)(λ_N+d·λ_d);
//   - the most recent failure repairs at μ_N or μ_d (back to its parent
//     state), matching the appendix's structure.
func NIRChain(in closedform.NIRInputs, k int) *markov.Chain {
	if k < 1 {
		panic(fmt.Sprintf("model: fault tolerance %d must be >= 1", k))
	}
	if in.N <= k+1 || in.R <= k || in.R > in.N || in.D < 1 {
		panic(fmt.Sprintf("model: invalid NIR geometry N=%d R=%d d=%d k=%d", in.N, in.R, in.D, k))
	}
	label := "nir/" + strconv.Itoa(k)
	if c := acquireChain(label); c != nil {
		c.BeginRefill()
		buildNIR(c, in, k, "")
		c.EndRefill()
		return c
	}
	c := markov.NewChain()
	c.SetLabel(label)
	c.SetInitial(padLabel("", k))
	c.SetAbsorbing("loss")
	buildNIR(c, in, k, "")
	return c.Freeze()
}

// padLabel renders a failure stack as the paper's fixed-width label,
// e.g. "N" with k=3 → "N00".
func padLabel(stack string, k int) string {
	return stack + strings.Repeat("0", k-len(stack))
}

// buildNIR adds the transitions out of the state with the given failure
// stack, then recurses into its children. Edges are added with AddEdge —
// kept even at a rate of exactly zero (e.g. h clamped to 1) — so the
// chain's topology is a function of k alone and refills of a recycled
// chain always land on existing edges.
func buildNIR(c *markov.Chain, in closedform.NIRInputs, k int, stack string) {
	j := len(stack)
	label := padLabel(stack, k)
	n := float64(in.N) - float64(j)
	d := float64(in.D)

	// Repair of the most recent failure.
	if j > 0 {
		mu := in.MuN
		if stack[j-1] == 'd' {
			mu = in.MuD
		}
		c.AddEdge(label, padLabel(stack[:j-1], k), mu)
	}

	if j == k {
		// Fully degraded: any further failure loses data.
		c.AddEdge(label, "loss", n*(in.LambdaN+d*in.LambdaD))
		return
	}

	nodeRate := n * in.LambdaN
	driveRate := n * d * in.LambdaD
	if j == k-1 {
		// The next rebuild is critical: sector errors can lose data.
		hN := hFor(in, stack+"N")
		hD := hFor(in, stack+"d")
		c.AddEdge(label, padLabel(stack+"N", k), nodeRate*(1-hN))
		c.AddEdge(label, padLabel(stack+"d", k), driveRate*(1-hD))
		c.AddEdge(label, "loss", nodeRate*hN+driveRate*hD)
	} else {
		c.AddEdge(label, padLabel(stack+"N", k), nodeRate)
		c.AddEdge(label, padLabel(stack+"d", k), driveRate)
	}
	buildNIR(c, in, k, stack+"N")
	buildNIR(c, in, k, stack+"d")
}

// hFor returns h_α for the failure word, clamped to [0, 1] so that extreme
// parameterizations still yield a valid probability.
func hFor(in closedform.NIRInputs, word string) float64 {
	alpha := make(combinat.Word, len(word))
	for i := range word {
		alpha[i] = combinat.FailureKind(word[i])
	}
	h := combinat.H(in.N, in.R, in.D, in.CHER, alpha)
	if h > 1 {
		return 1
	}
	return h
}
