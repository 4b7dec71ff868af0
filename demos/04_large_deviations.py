"""
Large deviations over word spheres
==================================

The probability that a sphere average deviates from its drift by a fixed
epsilon decays exponentially in n.  The decay rate is the Legendre
transform of the pressure, and the exponential Chebyshev (Chernoff)
bound built from the tilted transfer matrix dominates the exact tail at
every single n -- an inequality, not an asymptotic.
"""

import math

import hypstat as hs

coding = hs.build_free_group_coding(2)
weights = hs.weights_from_homomorphism(coding, {"a": 1, "b": 0})
stats = hs.limit_statistics(coding, weights)

epsilon = 0.4
t_grid = [i * 0.01 for i in range(1, 201)]

report = hs.ldt_rate(coding, weights, stats, epsilon, range(10, 201, 10), t_grid)
rate = report.theory["chernoff_rate_bound"]
print(f"epsilon = {epsilon}")
print(f"grid-optimized rate I(epsilon) = {rate:.8f}")
print(f"optimal tilt t* = {report.theory['t_plus']:.4f}")
print()

print("   n    exact tail p_n      empirical rate -log(p_n)/n")
for row in report.rows:
    if row["observed"] is None:
        continue
    print(f"{row['n']:4d}    {row['p']:.6e}      {row['observed']:.6f}")
print(f"large-deviation report passed: {report.passed}")
print()

# The empirical rate converges to I(epsilon) slowly (a log(n)/n prefactor),
# but the Chernoff inequality is pointwise: check it by hand at one n.
n = 50
dist = hs.distribution(coding, weights, n)
total = sum(dist.counts)
tail = sum(
    c
    for v, c in zip(dist.support_scaled, dist.counts)
    if abs(v) >= epsilon * n - 1e-9
)
t = report.theory["t_plus"]
# log W(t, n) = log sum over the sphere of exp(t phi), read off the exact law
# with the largest term factored out
terms = [math.log(c) + t * v for v, c in zip(dist.support, dist.counts)]
top = max(terms)
log_mgf = top + math.log(math.fsum(math.exp(x - top) for x in terms))
bound = 2.0 * math.exp(log_mgf - math.log(total) - t * epsilon * n)
print(f"hand check at n = {n}: p = {tail / total:.3e} <= bound {bound:.3e}")
print()

# Word-length weights cannot deviate from their drift at all: every tail
# is exactly empty and the bound holds trivially.
wordlen = hs.weights_word_length(coding)
wl_stats = hs.limit_statistics(coding, wordlen)
trivial = hs.ldt_rate(coding, wordlen, wl_stats, epsilon, range(10, 101, 10), t_grid)
empty = all(row["p"] == 0.0 for row in trivial.rows)
print(f"word-length tails empty at every n: {empty}")
print(f"degenerate-tail report passed: {trivial.passed}")
