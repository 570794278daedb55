package plan

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

// conservativeSamples is how many random feasible configurations the
// guardband property is checked against per run.
const conservativeSamples = 500

// The filter's soundness rests on one empirical property: the exact
// result (the recurrences' solution of the chain, which the search
// confirms with) always lands inside the closed form's GuardBand
// envelope, exact/cf ∈ [1/GuardBand, GuardBand]. Given that inclusion,
// the target filter only discards provable misses (exact ≥ cf/γ >
// target) and the dominance filter only discards candidates another
// candidate provably beats (exact_A ≤ cf_A·γ < cf_B/γ ≤ exact_B), so no
// pruned candidate could have made the exact frontier — the end-to-end
// statement TestSearchPruneMatchesExhaustive checks directly. This test
// hammers the inclusion itself across ~500 randomized configurations
// spanning the optimizer's whole operating envelope.
func TestClosedFormFilterConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := params.Baseline()
	internals := []core.InternalRedundancy{core.InternalNone, core.InternalRAID5, core.InternalRAID6}

	checked := 0
	worst := 1.0 // worst exact/cf ratio seen, folded to >= 1
	for checked < conservativeSamples {
		p := base
		p.NodeSetSize = 8 + rng.Intn(120)
		p.RedundancySetSize = 2 + rng.Intn(15)
		p.CapacityUtilization = 0.30 + 0.70*rng.Float64()
		p.RebuildCommandBytes = float64(16+rng.Intn(4096)) * params.KiB
		p.NodeMTTFHours = 100_000 + rng.Float64()*900_000
		p.DriveMTTFHours = 100_000 + rng.Float64()*900_000
		cfg := core.Config{
			Internal:           internals[rng.Intn(len(internals))],
			NodeFaultTolerance: 1 + rng.Intn(3),
		}
		cf, err := core.Analyze(p, cfg, core.MethodClosedForm)
		if err != nil {
			continue // infeasible geometry — the optimizer skips these too
		}
		exact, err := core.Analyze(p, cfg, core.MethodExactStable)
		if err != nil {
			t.Fatalf("exact analysis of %v %+v: %v", cfg, p, err)
		}
		checked++
		ratio := exact.EventsPerPBYear / cf.EventsPerPBYear
		if ratio < 1/GuardBand || ratio > GuardBand {
			t.Errorf("config %v N=%d R=%d util=%.2f rebuild=%.0fKiB: exact/closed-form ratio %.3f outside [1/%g, %g]",
				cfg, p.NodeSetSize, p.RedundancySetSize, p.CapacityUtilization,
				p.RebuildCommandBytes/params.KiB, ratio, GuardBand, GuardBand)
		}
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > worst {
			worst = ratio
		}
	}
	t.Logf("checked %d configurations; worst exact/closed-form deviation %.4f× (GuardBand %g×)", checked, worst, GuardBand)
}
