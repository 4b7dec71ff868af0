"""
Vector weights and local limit theorems
=======================================

Two independent directions: abelianizing the free group sends each word
to its (a-exponent, b-exponent) pair, whose sphere fluctuations are
jointly Gaussian with identity covariance.  Scalar weights with
incommensurable values (here 1 and sqrt 2) satisfy a local limit
theorem; integer-valued weights are lattice and the checker refuses
to apply the non-lattice formula to them.
"""

import math

import hypstat as hs

coding = hs.build_free_group_coding(2)
decomposition = hs.decompose_components(coding)

# --- multidimensional CLT for the abelianization ---------------------------
abel = hs.weights_from_homomorphism(coding, {"a": (1, 0), "b": (0, 1)})
abel_stats = hs.limit_statistics(coding, decomposition, abel)
sigma = abel_stats.covariance
print("abelianization covariance Sigma:")
for row in sigma:
    print("   ", "  ".join(f"{x:+.9f}" for x in row))
print(f"positive definite: {not abel_stats.degenerate}")

mclt = hs.mclt_check(coding, decomposition, abel, abel_stats, (25, 50, 100))
print(f"multidimensional CLT report passed: {mclt.passed}")
print()

# A rank-one direction has singular covariance and must be rejected.
rank1 = hs.weights_from_homomorphism(coding, {"a": (1, 1), "b": (0, 0)})
rank1_stats = hs.limit_statistics(coding, decomposition, rank1)
degenerate = hs.mclt_check(coding, decomposition, rank1, rank1_stats, (16,))
print(f"rank-one covariance positive definite: {not rank1_stats.degenerate}")
print(f"rank-one report passed (expected False): {degenerate.passed}")
print()

# --- local limit theorem for a non-lattice weight --------------------------
proj = hs.weights_from_homomorphism(coding, {"a": 1.0, "b": math.sqrt(2.0)})
proj_stats = hs.limit_statistics(coding, decomposition, proj)
target = 1.0 / math.sqrt(6.0 * math.pi)

llt = hs.llt_check(coding, decomposition, proj, proj_stats, -0.5, 0.5, (100, 200, 300))
gate = llt.params["gate"]
print(f"non-lattice gate: min spectral gap {float(gate['min_gap']):.5f} "
      f"over t in [0.1, 20] (argmin {gate['argmin_t']})")
print("   n    sqrt(n) P(phi in [-1/2, 1/2])   limit 1/sqrt(6 pi)")
for row in llt.rows:
    print(f"{row['n']:4d}    {row['observed']:.6f}                  {target:.6f}")
print(f"local limit report passed: {llt.passed}")
print()

# --- the lattice gate ------------------------------------------------------
aexp = hs.weights_from_homomorphism(coding, {"a": 1, "b": 0})
aexp_stats = hs.limit_statistics(coding, decomposition, aexp)
component = decomposition.maximal_indices[0]
(point,) = hs.nonlattice_gap(
    coding, decomposition, aexp, component, [2.0 * math.pi]
)
print(f"integer weights close the gap at t = 2 pi: gap = {point.gap:.2e}")
try:
    hs.llt_check(coding, decomposition, aexp, aexp_stats, -0.5, 0.5, (36,))
except hs.PreconditionError as exc:
    print(f"llt_check refused, as it must: {exc}")
