package closedform

import "repro/internal/combinat"

// This file implements the appendix's *exact* recursive solution for the
// no-internal-RAID model — not the Figure A1 approximation, but the
// underlying determinant recursion of the appendix's Lemma:
//
//	MTTDL = M(R) = Num(R)/det(R)
//	Sdet(R^(k))  = det(R_N^(k))·det(R_d^(k))
//	det(R^(k))   = diag·Sdet − r_N·μ_N·Sdet(R_N)·det(R_d)
//	                         − r_d·μ_d·det(R_N)·Sdet(R_d)
//	Num(R^(k))   = Sdet + r_N·Num(R_N)·det(R_d) + r_d·det(R_N)·Num(R_d)
//	det(R_x^(k)) = det(R^(k-1)(N-1, h_x∘h^(k-1))) + μ_x·Sdet(·)   (A.5)
//
// with diag = N(λ_N + d·λ_d) the root state's total exit rate, and the h
// parameters entering only at the innermost level (k = 1), where
// r_N = NλN(1-h_N), r_d = Ndλ_d(1-h_d). The base of the recursion is the
// scalar fully-degraded "model": det = N(λ_N+dλ_d), Sdet = Num = 1.
//
// To avoid overflow/underflow in the raw determinants (products over
// 2^(k+1)-1 states), the recursion is carried in the ratio variables
//
//	ρ = Sdet/det,  ν = Num/det  (ν of the top level IS the MTTDL)
//
// and — crucially — in *cancellation-free* form. The naive combine step
// g = diag − r_N·μ_N·ρ_N − r_d·μ_d·ρ_d subtracts nearly equal quantities
// (the fast repairs almost always return to the root), destroying the
// result for deep k exactly like the dense LU solve. Substituting the
// child transform ρ_x = ρ'/(1+μ_x·ρ') and using diag = r_A + r_N + r_d
// exactly gives
//
//	g = r_A + r_N/(1+μ_N·ρ'_N) + r_d/(1+μ_d·ρ'_d)
//	ρ = 1/g,   ν = (1 + r_N·ν'_N/(1+μ_N·ρ'_N) + r_d·ν'_d/(1+μ_d·ρ'_d))/g
//
// with every term positive: g is the root's *effective absorption-bound
// outflow* (direct absorption plus per-excursion escape mass). The result
// is algebraically identical to the dense LU solution of the same chain
// but numerically stable to arbitrary k.
//
// The recursion tree has 2^(k+1)−1 nodes, one per failure-stack prefix,
// but a node's (ρ, ν) depends on its prefix only through its level and
// its number of drive failures: the h parameters below it are
// h_α = BaseH·d^(1−#d(α)) (combinat.HByDrives), and nothing else in the
// combine step sees the prefix. Evaluating each (level, drive count)
// pair once runs the identical floating-point operations in k(k+1)/2
// combine steps instead of 2^(k+1)−1.

// NIRMTTDLRecursive returns the exact MTTDL of the no-internal-RAID model
// at fault tolerance k via the appendix's determinant recursion. Unlike
// NIRMTTDLGeneral (the Figure A1 approximation) this makes no
// rate-separation assumption. h parameters above 1 are clamped to 1, as in
// the chain construction.
func NIRMTTDLRecursive(in NIRInputs, k int) float64 {
	in.validate(k)
	var stack [48]float64 // h, ρ and ν for k < 16 without a heap allocation
	buf := stack[:0]
	if 3*(k+1) > len(stack) {
		buf = make([]float64, 0, 3*(k+1))
	}
	h := combinat.HByDrives(buf, in.N, in.R, in.D, in.CHER, k)
	for j, v := range h {
		if v > 1 {
			h[j] = 1
		}
	}
	// rho[c], nu[c] hold the level's (ρ, ν) for a prefix with c drive
	// failures; level 0 is the fully degraded base, the same for every c.
	rho, nu := buf[k+1:2*(k+1)], buf[2*(k+1):3*(k+1)]
	d := float64(in.D)
	inv := 1 / (float64(in.N-k) * (in.LambdaN + d*in.LambdaD))
	for c := range rho {
		rho[c], nu[c] = inv, inv
	}
	for level := 1; level <= k; level++ {
		n := float64(in.N - k + level)
		// A node node-fails into the child with the same drive count and
		// drive-fails into the one with one more; updating in ascending c
		// reads each child before it is overwritten.
		for c := 0; c <= k-level; c++ {
			rhoN, nuN := rho[c], nu[c]
			rhoD, nuD := rho[c+1], nu[c+1]

			// Escape factors: probability mass of an excursion into a
			// child block that does NOT return to this root (per A.5's
			// repair fold-in).
			escapeN := 1 / (1 + in.MuN*rhoN)
			escapeD := 1 / (1 + in.MuD*rhoD)

			// Transition rates out of this level's root: failures, plus
			// (at the innermost level) direct absorption via
			// uncorrectable errors.
			rN := n * in.LambdaN
			rD := n * d * in.LambdaD
			rA := 0.0
			if level == 1 {
				rA = rN*h[c] + rD*h[c+1]
				rN *= 1 - h[c]
				rD *= 1 - h[c+1]
			}
			g := rA + rN*escapeN + rD*escapeD
			rho[c], nu[c] = 1/g, (1+rN*nuN*escapeN+rD*nuD*escapeD)/g
		}
	}
	return nu[0]
}
