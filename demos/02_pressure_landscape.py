"""
The pressure curve of a weighted coding
=======================================

Tilting the transfer matrix by exp(s * weight) and tracking its Perron
eigenvalue gives the pressure P(s).  Its derivatives at s = 0 are the
drift and asymptotic variance of the weight over spheres, so the whole
statistical profile of a weighting is encoded in one smooth curve.
"""

import hypstat as hs

coding = hs.build_free_group_coding(2)
decomposition = hs.decompose_components(coding)
component = decomposition.maximal_indices[0]

# The "a-exponent" counts +1 for each a and -1 for each a^-1.
weights = hs.weights_from_homomorphism(coding, {"a": 1, "b": 0})

print("tilted spectral radius lambda(s) and pressure P(s) = log lambda(s)")
print("    s    lambda(s)      P(s)")
for k in range(-5, 6):
    s = k / 5.0
    report = hs.pressure(coding, decomposition, weights, component, s)
    print(f"{s:+5.1f}  {report.value:.8f}  {report.pressure:+.8f}")
print()

# At s = 0 the radius is the plain growth rate, and the curve is convex:
# its slope is the drift, its curvature the variance.
stats = hs.limit_statistics(coding, decomposition, weights)
print(f"drift Lambda = P'(0) = {stats.drift[0]:.12f}")
print(f"variance sigma^2 = P''(0) = {stats.sigma2:.12f}")
print(f"degenerate: {stats.degenerate}")
print()

# The same machinery with the indicator of the letter a (no inverse);
# an asymmetric weight shifts the drift away from zero.
indicator = hs.weights_from_edge_table(
    coding,
    {
        (e.source, e.target): 1 if e.label == "a" else 0
        for e in coding.edges
    },
)
ind_stats = hs.limit_statistics(coding, decomposition, indicator)
print("a-indicator statistics:")
print(f"drift = {ind_stats.drift[0]:.12f} (exactly 1/4)")
print(f"sigma^2 = {ind_stats.sigma2:.12f} (exactly 9/32 = {9 / 32})")
