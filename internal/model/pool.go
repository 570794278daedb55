package model

import (
	"sync"

	"repro/internal/markov"
)

// Chain recycling. For a fixed fault tolerance k the NIR and IR chains
// have one topology — the same states and the same edge set, with rates
// that are functions of the parameters (builders add structural edges
// with AddEdge, so even a parameter corner that zeroes a rate does not
// change the pattern). Repeated analyses therefore rebuild the same frozen CSR
// skeleton thousands of times; the pools below let callers hand a chain
// back (ReleaseChain) so the next build of the same family only refills
// the rates. Refilled chains are bit-identical to freshly built ones
// (EndRefill recomputes exit sums in the same sorted order Freeze uses),
// so recycling is invisible in results at any worker count.
var chainPools sync.Map // topology label → *sync.Pool of *markov.Chain

// acquireChain returns a recycled frozen chain of the labelled family,
// or nil if the pool is empty.
func acquireChain(label string) *markov.Chain {
	p, ok := chainPools.Load(label)
	if !ok {
		return nil
	}
	c, _ := p.(*sync.Pool).Get().(*markov.Chain)
	return c
}

// ReleaseChain hands a model-built chain back for recycling. Only
// frozen, labelled chains built by this package's pooled builders are
// kept; anything else is ignored, so the call is always safe. The caller
// must not use the chain after releasing it.
func ReleaseChain(c *markov.Chain) {
	if c == nil || !c.Frozen() || c.Label() == "" {
		return
	}
	p, _ := chainPools.LoadOrStore(c.Label(), &sync.Pool{})
	p.(*sync.Pool).Put(c)
}
