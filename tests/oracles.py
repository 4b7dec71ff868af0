"""Independent oracles used to derive frozen test values.

Everything here deliberately avoids the library's implementation choices:
reduced words are spelled letter by letter with no coding graph, the
brute-force oracle walks a coding word by word with no dynamic programming,
spectral radii come from numpy's general eigenvalue solver instead of power
iteration (or, for the free group, from a closed form in mpmath), and
Gaussian tail values come from scipy's ``ndtr``.  Run as a script to print
the derived constants that the test modules freeze as literals:

    python3 tests/oracles.py

Test modules import only the cheap recomputation helpers (word histograms
on small spheres, the word walk of ``brute_force_oracle`` over any coding,
the path-by-path injectivity check of ``validate_by_paths``, and the path
count of ``count_avoiding_maximal``); every expensive or floating-point
result is frozen.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
from scipy import optimize, special

import hypstat as hs

# Letter value tables for the rank-2 free group.  Uppercase letters are the
# formal inverses, so homomorphism-style values negate explicitly here.
AEXP = {"a": 1, "A": -1, "b": 0, "B": 0}
AIND = {"a": 1, "A": 0, "b": 0, "B": 0}
ABEL = {"a": (1, 0), "A": (-1, 0), "b": (0, 1), "B": (0, -1)}


def free_letter_pairs(rank):
    """(letter, inverse) pairs matching the a/A, b/B naming convention."""
    return [(chr(ord("a") + i), chr(ord("A") + i)) for i in range(rank)]


def reduced_words(rank, n):
    """Yield every reduced word of length n as a tuple of letters."""
    pairs = free_letter_pairs(rank)
    letters = [x for pair in pairs for x in pair]
    inverse = {}
    for x, y in pairs:
        inverse[x] = y
        inverse[y] = x

    def extend(word):
        if len(word) == n:
            yield word
            return
        for x in letters:
            if word and inverse[word[-1]] == x:
                continue
            yield from extend(word + (x,))

    yield from extend(())


def sphere_count(rank, n):
    """#W_n for the free group: 2r (2r-1)^(n-1), and 1 at n = 0."""
    if n == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (n - 1)


def scalar_histogram(rank, n, table):
    """Counter of sum-of-letter-values over the sphere of radius n."""
    out = Counter()
    for word in reduced_words(rank, n):
        out[sum(table[x] for x in word)] += 1
    return out


def vector_histogram(rank, n, table):
    """Counter of componentwise letter-value sums (integer tuples)."""
    out = Counter()
    for word in reduced_words(rank, n):
        total = [0] * len(next(iter(table.values())))
        for x in word:
            for j, v in enumerate(table[x]):
                total[j] += v
        out[tuple(total)] += 1
    return out


def mirror_scalar_histogram(n, table):
    """Histogram for the two-copy mirror model: doubled F2 plus a t-path.

    The mirror coding spells every rank-2 reduced word through two disjoint
    letter components and adds a single geodesic t t t ... of every length,
    whose letters carry value 0 under the shipped weights.
    """
    out = Counter()
    for value, count in scalar_histogram(2, n, table).items():
        out[value] += 2 * count
    if n >= 1:
        out[0] += 1
    return out


def dict_lattice_counts(edges, start, ns):
    """Vector lattice counts by the dict-per-vertex DP the packed engine replaced.

    ``edges`` lists ``(source, target, value tuple)`` integer steps and
    ``start`` names the start vertex.  Returns ``{n: {value tuple: count}}``
    summed over the end vertices, for every radius in ``ns``.
    """
    dims = len(edges[0][2]) if edges else 1
    state = {start: {(0,) * dims: 1}}
    out = {}
    for level in range(max(ns) + 1):
        if level:
            nxt = {}
            for source, target, value in edges:
                dst = nxt.setdefault(target, {})
                for vec, count in state.get(source, {}).items():
                    key = tuple(a + b for a, b in zip(vec, value))
                    dst[key] = dst.get(key, 0) + count
            state = nxt
        if level in ns:
            merged = Counter()
            for per_vertex in state.values():
                merged.update(per_vertex)
            out[level] = dict(merged)
    return out


def count_avoiding_maximal(coding, decomposition, n):
    """``#N_n``: length-``n`` paths from the start that never enter a maximal
    component, by per-vertex path counts level by level."""
    banned = {
        vertex
        for index in decomposition.maximal_indices
        for vertex in decomposition.components[index].vertices
    }
    out_edges = coding.out_edges
    counts = Counter({hs.START_VERTEX: 1})
    for _ in range(n):
        step = Counter()
        for vertex, count in counts.items():
            for edge in out_edges[vertex]:
                if edge.target not in banned:
                    step[edge.target] += count
        counts = step
    return sum(counts.values())


#: cap on total words enumerated by the brute-force oracle
BRUTE_FORCE_GUARD = 10**7


def brute_force_oracle(coding, weights, n_cap):
    """Every word of length at most ``n_cap`` with its weight, by raw search.

    Structurally independent of the dynamic programming: a depth-first walk
    of the coding graph that concatenates labels and sums weights edge by
    edge.  Returns ``(length, word, value)`` triples, identity included.
    The total word count is guarded at 1e7.
    """
    if n_cap < 0:
        raise hs.InvalidArgumentError(f"n_cap must be >= 0, got {n_cap}")
    if sum(hs.sphere_counts(coding, n_cap)) > BRUTE_FORCE_GUARD:
        raise hs.ResourceError(
            f"brute-force enumeration of {n_cap} spheres exceeds the "
            f"{BRUTE_FORCE_GUARD} guard"
        )
    k = weights.dim
    out_edges = coding.out_edges
    out = []
    stack = [(hs.START_VERTEX, 0, "", (0.0,) * k)]
    while stack:
        vertex, length, word, value = stack.pop()
        out.append((length, word, value))
        if length == n_cap:
            continue
        for edge in out_edges[vertex]:
            w = weights.edge_values[(edge.source, edge.target)]
            nxt = tuple(a + b for a, b in zip(value, w))
            stack.append((edge.target, length + 1, word + edge.label, nxt))
    out.sort()
    return out


def validate_by_paths(coding, depth):
    """``validate_coding`` by listing every path from ``"*"`` and its word.

    Level by level to ``depth``, each path whose word an earlier path of
    the same level already spelled adds a failure line naming both paths.
    Returns ``(ok, paths_per_depth, failures)``; the paths enumerated are
    guarded at 1e7.
    """
    out_edges = coding.out_edges
    failures = []
    frontier = [((hs.START_VERTEX,), ())]
    counts = [1]
    for level in range(1, depth + 1):
        nxt = [
            ((*path, edge.target), (*labels, edge.label))
            for path, labels in frontier
            for edge in out_edges[path[-1]]
        ]
        if sum(counts) + len(nxt) > BRUTE_FORCE_GUARD:
            raise hs.ResourceError(
                f"path enumeration exceeds the {BRUTE_FORCE_GUARD} guard at depth {level}"
            )
        seen = {}
        for path, labels in nxt:
            if labels in seen:
                failures.append(
                    f"depth {level}: label word {''.join(labels)!r} spelled by paths "
                    f"{' -> '.join(seen[labels])} and {' -> '.join(path)}"
                )
            else:
                seen[labels] = path
        counts.append(len(nxt))
        frontier = nxt
    return not failures, tuple(counts), tuple(failures)


def eig_radius(matrix):
    """Spectral radius via numpy's general eigenvalue solver."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix)))))


def twisted_free_matrix(rank, s, table):
    """Dense twisted adjacency over the letter vertices of the free group.

    Entry (u, v) is exp(s * value(v)) when the step u -> v is reduced, so
    the matrix power sums exp(s * word value) over reduced words.
    """
    pairs = free_letter_pairs(rank)
    letters = [x for pair in pairs for x in pair]
    inverse = {}
    for x, y in pairs:
        inverse[x] = y
        inverse[y] = x
    size = len(letters)
    out = np.zeros((size, size), dtype=complex)
    for i, u in enumerate(letters):
        for j, v in enumerate(letters):
            if v != inverse[u]:
                out[i, j] = np.exp(s * table[v])
    return out


def free_pressure(rank, s, table):
    """log spectral radius of the twisted matrix, by direct eigenvalues."""
    return math.log(eig_radius(twisted_free_matrix(rank, s, table)))


def closed_free_pressure(values, t):
    """P(t) of a homomorphism on the free group, in mpmath at 50 digits.

    ``values`` holds the image of each generator (the inverse letters take
    the negatives).  Counting reduced words by length and weight gives
    ``P(t) = -log z*(t)``, with ``z*`` the smallest positive root of
    ``(2r - 1) z^2 - 2 z sum_i cosh(a_i t) + 1 = 0`` for rank ``r``.
    """
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        rank = len(values)
        c = mpmath.fsum(mpmath.cosh(mpmath.mpf(a) * t) for a in values)
        z = (c - mpmath.sqrt(c * c - (2 * rank - 1))) / (2 * rank - 1)
        return -mpmath.log(z)


def closed_free_legendre(values, epsilon, ts):
    """``max_t [t eps - (P(t) - P(0))]`` over the grid ``ts`` with the
    closed-form pressure, as an mpmath number; P is even, so the drift is
    zero and both tails share this value."""
    with mpmath.workdps(50):
        base = closed_free_pressure(values, 0)
        return max(
            mpmath.mpf(t) * mpmath.mpf(epsilon) - (closed_free_pressure(values, t) - base)
            for t in ts
        )


def pressure_derivatives(rank, table, h=1e-2):
    """(P'(0), P''(0)) by Richardson-extrapolated central differences."""

    def pres(s):
        return free_pressure(rank, s, table)

    def d1(step):
        return (pres(step) - pres(-step)) / (2 * step)

    def d2(step):
        return (pres(step) - 2 * pres(0.0) + pres(-step)) / step**2

    first = (4 * d1(h / 2) - d1(h)) / 3
    second = (4 * d2(h / 2) - d2(h)) / 3
    return first, second


def ldt_rate_oracle(rank, table, epsilon, drift=0.0):
    """Legendre transform sup_t [t (drift + eps) - (P(t) - P(0))]."""
    base = free_pressure(rank, 0.0, table)

    def negated(t):
        return free_pressure(rank, t, table) - base - t * (drift + epsilon)

    result = optimize.minimize_scalar(negated, bounds=(0.0, 10.0), method="bounded",
                                      options={"xatol": 1e-12})
    return float(-result.fun), float(result.x)


def norm_cdf(x):
    """Standard normal CDF via scipy's ndtr (independent of math.erf)."""
    return float(special.ndtr(x))


def kolmogorov_oracle(histogram, n, drift, sigma):
    """Exact sup-distance between the sphere CDF and the Gaussian limit."""
    total = sum(histogram.values())
    scale = sigma * math.sqrt(n)
    worst = 0.0
    running = 0
    for value in sorted(histogram):
        z = (value - n * drift) / scale
        worst = max(worst, abs(running / total - norm_cdf(z)))
        running += histogram[value]
        worst = max(worst, abs(running / total - norm_cdf(z)))
    return worst


def main():
    print("== sphere counts, rank 2 ==")
    for n in range(0, 9):
        brute = sum(1 for _ in reduced_words(2, n)) if n <= 8 else None
        print(f"n={n}: formula {sphere_count(2, n)} brute {brute}")

    print()
    print("== a-exponent histogram, n=4 ==")
    hist4 = scalar_histogram(2, 4, AEXP)
    print(dict(sorted(hist4.items())))

    print()
    print("== a-indicator histogram, n=3 ==")
    print(dict(sorted(scalar_histogram(2, 3, AIND).items())))

    print()
    print("== abelianization histogram, n=3 ==")
    print(dict(sorted(vector_histogram(2, 3, ABEL).items())))

    print()
    print("== exact moments ==")
    hist6 = scalar_histogram(2, 6, AEXP)
    w6 = sum(hist6.values())
    m1 = sum(v * c for v, c in hist6.items())
    m2 = sum(v * v * c for v, c in hist6.items())
    print(f"a-exponent n=6: W_6 {w6} M1 {m1} M2 {m2} var {Fraction(m2, w6)}")
    ind6 = scalar_histogram(2, 6, AIND)
    i1 = sum(v * c for v, c in ind6.items())
    i2 = sum(v * v * c for v, c in ind6.items())
    print(f"a-indicator n=6: M1 {i1} M2 {i2} mean {Fraction(i1, w6)}")

    print()
    print("== mirror model ==")
    mhist = mirror_scalar_histogram(6, {**AEXP, "t": 0})
    print(f"n=6 total {sum(mhist.values())} hist {dict(sorted(mhist.items()))}")

    print()
    print("== spectral oracle ==")
    print(f"radius at s=0: {eig_radius(twisted_free_matrix(2, 0.0, AEXP))!r}")
    print(f"pressure a-exp s=0.5: {free_pressure(2, 0.5, AEXP)!r}")
    print(f"pressure a-exp s=0.3: {free_pressure(2, 0.3, AEXP)!r}")
    print(f"pressure a-ind s=0.5: {free_pressure(2, 0.5, AIND)!r}")
    s_cplx = 0.4 + 1.3j
    rad = eig_radius(twisted_free_matrix(2, s_cplx, AEXP))
    print(f"complex radius a-exp s=0.4+1.3j: {rad!r}")
    rad2pi = eig_radius(twisted_free_matrix(2, 2j * math.pi, AEXP))
    print(f"complex radius a-exp s=2 pi i: {rad2pi!r}")

    print()
    print("== derivatives at 0 ==")
    for name, table in [("a-exp", AEXP), ("a-ind", AIND)]:
        d1, d2 = pressure_derivatives(2, table)
        print(f"{name}: drift {d1!r} sigma2 {d2!r}")

    print()
    print("== large deviations ==")
    rate, argmax = ldt_rate_oracle(2, AEXP, 0.4)
    print(f"a-exp I(0.4): {rate!r} at t {argmax!r}")

    print()
    print("== kolmogorov oracle ==")
    for n in (4, 8):
        hist = scalar_histogram(2, n, AEXP)
        print(f"a-exp n={n}: D_n {kolmogorov_oracle(hist, n, 0.0, 1.0)!r}")


if __name__ == "__main__":
    main()
