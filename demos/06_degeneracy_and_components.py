"""
Degenerate weights and multiple maximal components
==================================================

Two safety rails.  First: a weight whose asymptotic variance vanishes
must have bounded recentered range on spheres (word length is the
canonical example -- its recentered range is exactly {0}).  Second: a
coding may have several maximal components; the limit laws only make
sense if they all agree on drift and variance, which the consistency
checker verifies component by component.
"""

import hypstat as hs

coding = hs.build_free_group_coding(2)

# --- degeneracy ------------------------------------------------------------
wordlen = hs.weights_word_length(coding)
wl_stats = hs.limit_statistics(coding, wordlen)
print(f"word-length sigma^2 = {wl_stats.sigma2} (degenerate: {wl_stats.degenerate})")
check = hs.degeneracy_check(coding, wordlen, wl_stats, 12)
widths = [row["observed"] for row in check.rows]
print(f"recentered sphere range widths, n <= 12: {sorted(set(widths))}")
print(f"degeneracy report passed: {check.passed}")
print()

aexp = hs.weights_from_homomorphism(coding, {"a": 1, "b": 0})
aexp_stats = hs.limit_statistics(coding, aexp)
check = hs.degeneracy_check(coding, aexp, aexp_stats, 12)
print(f"a-exponent degenerate: {check.theory['degenerate']} "
      f"(range widths grow; report passed: {check.passed})")
print()

# --- a coding with two maximal components ----------------------------------
# Two disjoint copies of the rank-2 letter graph, plus a non-maximal
# period-2 cycle.  Every group word is spelled by exactly two paths
# (one per copy) and the cycle contributes one extra path per length.
letters = ["a", "A", "b", "B"]
inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
vertices = ["*"]
edges = []
for copy in ("1", "2"):
    names = {u: u + copy for u in letters}
    vertices.extend(names[u] for u in letters)
    for u in letters:
        edges.append({"from": "*", "to": names[u], "label": u})
        for v in letters:
            if v != inverse[u]:
                edges.append({"from": names[u], "to": names[v], "label": v})
vertices.extend(["t1", "t2"])
edges.append({"from": "*", "to": "t1", "label": "t"})
edges.append({"from": "t1", "to": "t2", "label": "t"})
edges.append({"from": "t2", "to": "t1", "label": "t"})
mirror = hs.load_coding(
    {"generators": ["a", "A", "b", "B", "t"], "vertices": vertices, "edges": edges}
)
mirror_decomp = hs.decompose_components(mirror)
print(f"mirror coding maximal components: {len(mirror_decomp.maximal_indices)}")

weights = hs.weights_from_homomorphism(mirror, {"a": 1, "b": 0, "t": 0})
consistency = hs.component_consistency(mirror, weights)
print(f"drift spread across components: {consistency.max_drift_spread:.2e}")
print(f"variance spread across components: {consistency.max_variance_spread:.2e}")
print(f"components consistent: {consistency.consistent}")
print()

# The overcounted series H_n used by the limit-law normalization counts
# paths that avoid every maximal component once more than plain paths do.
print(" n    paths   H_n   avoiding-maximal")
for n in range(1, 7):
    over = hs.distribution_overcounted(mirror, weights, n)
    plain = hs.distribution(mirror, weights, n)
    extra = (over.total - plain.total) // over.overcount_multiplicity
    print(f"{n:2d}   {sum(plain.counts):6d}  {sum(over.counts):5d}   {extra:6d}")
