"""Property tests for the packed lattice engine of ``hypstat.enumerate``.

Random integer and dyadic-rational edge tables of dimension 1 to 3 on
free:1, free:2, the mirror fixture and a Z/2*Z/3 coding are enumerated by
the engine and compared with the brute-force word walk (n <= 8), with the
dict-per-vertex DP the engine replaced (``oracles.dict_lattice_counts``,
n <= 40, which crosses several limb widths), and, for interval windows,
with the full distribution restricted to each window.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypstat as hs
import oracles
from conftest import build_mirror_coding
from hypstat.enumerate import _packed_levels, interval_count_sweep

# Z/2 * Z/3: s has order 2, t and T = t^-1 generate the order-3 factor, so
# reduced words alternate s with t or T; the one component has period 2
Z2Z3 = {
    "generators": ["s", "t", "T"],
    "vertices": ["*", "s", "t", "T"],
    "edges": [
        {"from": "*", "to": "s", "label": "s"},
        {"from": "*", "to": "t", "label": "t"},
        {"from": "*", "to": "T", "label": "T"},
        {"from": "s", "to": "t", "label": "t"},
        {"from": "s", "to": "T", "label": "T"},
        {"from": "t", "to": "s", "label": "s"},
        {"from": "T", "to": "s", "label": "s"},
    ],
}
CODINGS = {
    "free1": hs.build_free_group_coding(1),
    "free2": hs.build_free_group_coding(2),
    "mirror": build_mirror_coding(),
    "z2z3": hs.load_coding(Z2Z3),
}
EXAMPLES = settings(settings.get_profile("hypstat"), max_examples=30)


@st.composite
def weight_cases(draw, dims=(1, 2, 3), real=False):
    """A coding and an edge table: integers, dyadic rationals or (scalar,
    with ``real``) irrational reals."""
    coding = CODINGS[draw(st.sampled_from(sorted(CODINGS)))]
    dim = draw(st.sampled_from(dims))
    if real and draw(st.booleans()):
        entry = st.integers(-2, 2).map(lambda k: k * math.sqrt(2) / 2)
    else:
        den = draw(st.sampled_from([1, 2, 4]))
        entry = st.integers(-2, 2).map(lambda k: k / den)
    value = st.tuples(*[entry] * dim) if dim > 1 else entry
    table = {(e.source, e.target): draw(value) for e in coding.nonaugmentation_edges}
    return coding, hs.weights_from_edge_table(coding, table)


def histogram(dist):
    return dict(zip(dist.support_scaled, dist.counts))


class TestAgainstOracles:
    @EXAMPLES
    @given(weight_cases(), st.integers(0, 8))
    def test_equals_brute_force(self, case, n_cap):
        coding, weights = case
        dists = hs.distribution_sweep(coding, weights, range(n_cap + 1))
        scale = dists[0].scale
        words = hs.brute_force_oracle(coding, weights, n_cap)
        for dist in dists:
            expected = Counter()
            for length, _word, value in words:
                if length == dist.n:
                    q = tuple(round(x * scale) for x in value)
                    expected[q[0] if dist.dim == 1 else q] += 1
            assert histogram(dist) == expected
            assert dist.total == sum(expected.values())

    @EXAMPLES
    @given(st.data())
    def test_equals_retired_dict_dp(self, data):
        coding, weights = data.draw(weight_cases())
        n = data.draw(st.integers(0, 40 if weights.dim == 1 else 12))
        ns = {n // 3, n}
        dists = hs.distribution_sweep(coding, weights, ns)
        table = hs.scaled_integer_values(weights, dists[0].scale)
        edges = [
            (e.source, e.target, table[(e.source, e.target)])
            for e in coding.nonaugmentation_edges
        ]
        expected = oracles.dict_lattice_counts(edges, hs.START_VERTEX, ns)
        for dist in dists:
            keyed = {
                (q if dist.dim > 1 else (q,)): c
                for q, c in zip(dist.support_scaled, dist.counts)
            }
            assert keyed == expected[dist.n]
            assert dist.total == sum(expected[dist.n].values())


class TestLimbWidths:
    def test_free2_to_forty_crosses_three_widths(self):
        coding = CODINGS["free2"]
        edges = [(e.source, e.target, 0) for e in coding.nonaugmentation_edges]
        widths = [limb for _l, _f, _s, limb, _t in _packed_levels(coding, edges, 0, 40)]
        # 2 bytes at the start, 9 at #W_40 = 4 * 3^39 (63 bits plus a spare byte)
        assert sorted(set(widths)) == [2, 4, 8, 9]
        assert widths == sorted(widths)


class TestWindows:
    @EXAMPLES
    @given(st.data())
    def test_equal_full_distribution_restricted(self, data):
        coding, weights = data.draw(weight_cases(dims=(1,), real=True))
        radii = st.lists(st.integers(0, 20), min_size=1, max_size=3, unique=True)
        ns = data.draw(radii)
        full = hs.distribution_sweep(coding, weights, ns, bin_width=0.25)
        reach = max(abs(q) for d in full for q in d.support_scaled) + 3
        lo = [data.draw(st.integers(-reach, reach)) for _ in ns]
        hi = [a + data.draw(st.integers(-2, reach)) for a in lo]
        cut = interval_count_sweep(coding, weights, ns, 0.25, lo, hi)
        windows = dict(zip(ns, zip(lo, hi)))
        assert [d.n for d in cut] == [d.n for d in full]
        for whole, part in zip(full, cut):
            a, b = windows[whole.n]
            assert histogram(part) == {
                q: c for q, c in histogram(whole).items() if a <= q <= b
            }
            assert (part.total, part.kind, part.scale, part.bin_width) == (
                whole.total,
                whole.kind,
                whole.scale,
                whole.bin_width,
            )

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (5, 4),  # empty
            (-7, -7),  # zero length, inside the support
            (-2, 2),  # around the centre
            (40, 90),  # above the support
            (-90, -37),  # ends one slot below the support
            (-36, 36),  # exactly the support
        ],
    )
    def test_edge_windows(self, free2, lo, hi):
        weights = hs.weights_from_homomorphism(free2, {"a": 1.0, "b": math.sqrt(2)})
        ns = [3, 7, 12]
        width = 0.5
        full = hs.distribution_sweep(free2, weights, ns, width)
        cut = interval_count_sweep(free2, weights, ns, width, [lo] * 3, [hi] * 3)
        assert max(full[-1].support_scaled) == 36
        for whole, part in zip(full, cut):
            assert histogram(part) == {
                q: c for q, c in histogram(whole).items() if lo <= q <= hi
            }
            assert part.total == whole.total == 4 * 3 ** (whole.n - 1)

    def test_rejects_vector_weights_and_missing_windows(self, free2, abel, proj):
        with pytest.raises(hs.InvalidArgumentError):
            interval_count_sweep(free2, abel, [3], None, [0], [1])
        with pytest.raises(hs.InvalidArgumentError):
            interval_count_sweep(free2, proj, [3, 4], 0.1, [0], [1])


class TestByteBudget:
    def test_oversized_masses_are_refused_before_allocating(self, free2, abel):
        with pytest.raises(hs.ResourceError, match="bytes"):
            hs.lattice_masses_2d(free2, abel, 2000)
