"""
Counting words in the rank-2 free group
=======================================

A strongly Markov coding turns sphere counting into linear algebra: the
number of group elements of word length n is a sum of entries of the
n-th power of a 0/1 transition matrix.  For the free group on two
generators the answer is known in closed form, 4 * 3^(n-1), which makes
it the canonical smoke test for the dynamic-programming counter.
"""

import math

import hypstat as hs

coding = hs.build_free_group_coding(2)
print("vertices:", ", ".join(coding.vertices))
print("generators:", ", ".join(coding.generators))
print()

# Exact sphere counts from the DP against the closed form.
print(" n   #W_n (DP)   4*3^(n-1)")
counts = hs.sphere_counts(coding, 12)
for n in range(1, 13):
    closed = 4 * 3 ** (n - 1)
    counted = counts[n]
    marker = "" if counted == closed else "  <-- MISMATCH"
    print(f"{n:2d}  {counted:10d}  {closed:10d}{marker}")
print()

# The growth rate lambda and entropy h = log lambda come from consecutive
# count ratios; for the free group the ratio is exactly 3 from n = 2 on.
report = hs.growth_rate(coding, 12)
print(f"growth rate lambda = {report.lam:.12f}")
print(f"entropy h = log lambda = {report.entropy:.12f} (log 3 = {math.log(3):.12f})")
print()

# validate_coding checks that no two paths of bounded length spell the same
# word: one breadth-first pass looks for a repeated label at each vertex.
check = hs.validate_coding(coding, 6)
print(f"coding valid to depth {check.depth}: {check.ok}")
print("paths per depth:", list(check.paths_per_depth))
