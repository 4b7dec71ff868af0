"""
A central limit theorem on word spheres
=======================================

Averaging a weight over the sphere of radius n and recentering by the
drift leaves Gaussian fluctuations of size sqrt(n).  Because the sphere
distributions here are computed exactly (big-integer DP), the distance
to the normal law is exact too: no sampling error, only the genuine
finite-n effect.
"""

import math

import hypstat as hs

coding = hs.build_free_group_coding(2)
weights = hs.weights_from_homomorphism(coding, {"a": 1, "b": 0})
stats = hs.limit_statistics(coding, weights)

print(f"drift = {stats.drift[0]:.6f}, sigma^2 = {stats.sigma2:.6f}")
print()

# Exact Kolmogorov distance between the recentered, rescaled sphere law
# and the standard normal.  The decay is the Berry-Esseen rate 1/sqrt(n).
grid = (16, 36, 64, 100, 144, 196)
report = hs.clt_distance(coding, weights, stats, grid)
print("   n     D_n = ||H_n - N||   sqrt(n) * D_n")
for row in report.rows:
    n, d = row["n"], row["observed"]
    print(f"{n:4d}     {d:.8f}        {math.sqrt(n) * d:.6f}")
print(f"CLT report passed: {report.passed}")
print()

# The computable Berry-Esseen bound dominates the exact distance; the
# bound is conservative but honest.
for n, T in ((25, 2.5), (100, 5.0)):
    be = hs.berry_esseen_report(coding, weights, stats, n, T)
    (check,) = [c for c in be.checks if c["name"] == "bound-dominates-distance"]
    print(
        f"n = {n:3d}, T = {T}: exact distance {check['lhs']:.5f} "
        f"<= bound {check['rhs']:.5f} -> {be.passed}"
    )
print()

# The averaging table behind the law of large numbers: n |Lambda_n - Lambda|
# stays bounded.  For this weight the sphere means vanish identically.
avg = hs.averaging_table(coding, weights, stats, range(25, 101, 25))
print("   n   n * |mean_n - drift|")
for row in avg.rows:
    print(f"{row['n']:4d}   {abs(row['residual']):.6f}")
print(f"averaging report passed: {avg.passed}")
