"""Property tests for the exact lattice engine of ``hypstat.enumerate``.

Random integer and dyadic-rational edge tables of dimension 1 to 3 on
free:1, free:2, the mirror fixture and a Z/2*Z/3 coding are enumerated by
the engine and compared with the brute-force word walk (n <= 8) and with
the dict-per-vertex DP (``oracles.dict_lattice_counts``, n <= 40).
Weighted counts (``weighted_counts``, the cell sums of ``mclt``) and window
counts (``_window_counts``, the interval counts of ``llt``) come from one
join of forward and backward halves; they are compared with the same
sums over the distribution and the word walk, joined at every split level,
on mirrored plans with asymmetric weights and windows and on plans without
a mirror, and each join is charged by its halves alone; the exact float
join is pinned at its largest chunk sums.
Fixed cases cover counts of several 48-bit digits with deferred carries,
offsets with a common factor, and vector lattices whose reduced basis is
not the coordinate axes.  The engine's two level loops, digit planes and
packed ints, are run on the same plans of random codings and windows and
must agree slot by slot; the plan picks one of them by its size.  Plans of
random mirrored codings (vertex pairs and fixed points, every edge matched
by its mirror with the negated value) must give the same levels with their
mirror as without it and on packed ints; the mirror is pinned as found or
missed on named codings and weights.
"""

import math
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypstat as hs
import oracles
from conftest import build_mirror_coding, build_z2z3_coding
from hypstat import enumerate as engine
from hypstat.enumerate import (
    _DIGIT_BITS,
    _PACKED_BITS,
    _additions,
    _digit_levels,
    _edge_table,
    _flatten,
    _packed_levels,
    _plan,
    _round_half_even,
    _slot_counts,
    _split_counts,
    _transitions,
    _window_counts,
    weighted_counts,
)

CODINGS = {
    "free1": hs.build_free_group_coding(1),
    "free2": hs.build_free_group_coding(2),
    "free3": hs.build_free_group_coding(3),
    "mirror": build_mirror_coding(),
    "z2z3": build_z2z3_coding(),
}
EXAMPLES = settings(settings.get_profile("hypstat"), max_examples=30)


@st.composite
def weight_cases(
    draw, dims=(1, 2, 3), real=False, codings=("free1", "free2", "mirror", "z2z3")
):
    """A coding and an edge table: integers, dyadic rationals or (scalar,
    with ``real``) irrational reals."""
    coding = CODINGS[draw(st.sampled_from(codings))]
    dim = draw(st.sampled_from(dims))
    if real and draw(st.booleans()):
        entry = st.integers(-2, 2).map(lambda k: k * math.sqrt(2) / 2)
    else:
        den = draw(st.sampled_from([1, 2, 4]))
        entry = st.integers(-2, 2).map(lambda k: k / den)
    value = st.tuples(*[entry] * dim) if dim > 1 else entry
    table = {(e.source, e.target): draw(value) for e in coding.edges}
    return coding, hs.weights_from_edge_table(coding, table)


def histogram(dist):
    return dict(zip(dist.support_scaled, dist.counts))


@contextmanager
def joined_at(split):
    """Every join of ``_split_counts`` made at level ``split``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_split_counts", partial(_split_counts, split=split))
        yield


@st.composite
def axis_weights(draw, dim, values=(0, 1, 2)):
    """A per-axis weight ``w(j, q)``: a drawn table indexed by ``q`` modulo
    its length, one table per axis."""
    period = draw(st.integers(1, 5))
    entry = st.sampled_from(values)
    table = st.lists(entry, min_size=period, max_size=period)
    tables = [draw(table) for _ in range(dim)]
    return lambda j, q: tables[j][q % period]


def weighted_sum(histogram, w):
    """``sum_x prod_j w(j, x_j) count(x)`` over a histogram of scaled values."""
    vectors = ((x if isinstance(x, tuple) else (x,), c) for x, c in histogram.items())
    return sum(math.prod(w(j, q) for j, q in enumerate(x)) * c for x, c in vectors)


def flattened(coding, weights, n_max):
    """The engine's ``(edges, box, decode, origin, basis)`` for a lattice weight."""
    return _flatten(_transitions(coding, _edge_table(weights, n_max, None)[3]), n_max)


def assert_equal_to_dict_oracle(coding, weights, ns):
    """The engine's distributions equal ``oracles.dict_lattice_counts``."""
    table = hs.scaled_integer_values(weights, hs.lattice_scale(weights))
    edges = [
        (e.source, e.target, table[(e.source, e.target)])
        for e in coding.edges
    ]
    expected = oracles.dict_lattice_counts(edges, hs.START_VERTEX, ns)
    dists = hs.distribution_sweep(coding, weights, ns)
    for dist in dists:
        keyed = {
            (q if dist.dim > 1 else (q,)): c
            for q, c in zip(dist.support_scaled, dist.counts)
        }
        assert keyed == expected[dist.n]
        assert dist.total == sum(expected[dist.n].values())
    return dists


def offsets_with_common_factor(coding, g, dim):
    """An edge table whose offsets from the least value share the factor g
    on the first axis (and 5 - g on the second), off a nonzero base."""
    table = {}
    for i, e in enumerate(coding.edges):
        first = 1 + g * (i % 4 - 1)
        table[(e.source, e.target)] = (
            first if dim == 1 else (first, -2 + (5 - g) * (i % 3))
        )
    return hs.weights_from_edge_table(coding, table)


class TestAgainstOracles:
    @EXAMPLES
    @given(weight_cases(), st.integers(0, 8))
    def test_equals_brute_force(self, case, n_cap):
        coding, weights = case
        dists = hs.distribution_sweep(coding, weights, range(n_cap + 1))
        scale = dists[0].scale
        words = oracles.brute_force_oracle(coding, weights, n_cap)
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
        assert_equal_to_dict_oracle(coding, weights, {n // 3, n})


@st.composite
def engine_plans(draw):
    """A plan of a random coding: a start vertex and one to four others
    joined by random edges, and a scalar lattice, binned real, 2-d or 3-d
    edge table flattened as ``distribution_sweep`` flattens it."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    candidates = [(s, t) for s in [hs.START_VERTEX, *names] for t in names]
    pairs = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    edges = tuple(hs.CodingEdge(s, t, "x") for s, t in pairs)
    coding = hs.MarkovCoding(("x",), (hs.START_VERTEX, *names), edges)
    kind = draw(st.sampled_from(["lattice", "binned", "2-d", "3-d"]))
    dim = {"2-d": 2, "3-d": 3}.get(kind, 1)
    if kind == "binned":
        entry = st.integers(-3, 3).map(lambda k: k * math.sqrt(2) / 3)
    else:
        entry = st.integers(-4, 4).map(lambda k: k / 2)
    value = st.tuples(*[entry] * dim) if dim > 1 else entry
    weights = hs.weights_from_edge_table(coding, {p: draw(value) for p in pairs})
    n_max = draw(st.integers(0, 32 if dim == 1 else 8))
    # lattice tables ignore the bin width
    table = _edge_table(weights, n_max, 0.25)[3]
    engine_edges, box, *_ = _flatten(_transitions(coding, table), n_max)
    return _plan(engine_edges, box, n_max)


def vertex_slots(state, width, field=None, box=None):
    """Each vertex's exact count in every flattened slot of a forward level,
    all-zero vertices left out: digit planes on ``box``'s cells without
    ``field``, packed ints with it."""
    out = {}
    for vertex, x in state.items():
        if field is None:
            cells = [0] * x[0].size
            for row in x.reshape(len(x), -1)[::-1].tolist():
                cells = [(c << _DIGIT_BITS) + d for c, d in zip(cells, row)]
            counts = [0] * width
            for cell, count in zip(np.ndindex(x.shape[1:]), cells):
                counts[sum(i * s for i, s in zip(cell, box.strides[::-1]))] = count
        else:
            assert x >> (width * field) == 0
            raw, size = x.to_bytes(width * field // 8, "little"), field // 8
            counts = [
                int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)
            ]
        if any(counts):
            out[vertex] = counts
    return out


class TestLevelLoops:
    @settings(settings.get_profile("hypstat"), max_examples=150)
    @given(engine_plans())
    def test_packed_ints_equal_digit_planes(self, plan):
        levels = zip(_digit_levels(plan), _packed_levels(plan), plan.spans)
        seen = 0
        for (level, first, planes, total), packed, (_, top, _w) in levels:
            assert (level, first, total) == (packed[0], packed[1], packed[3])
            width = top - first + 1
            expected = vertex_slots(planes, width, box=plan.box)
            assert vertex_slots(packed[2], width, plan.field) == expected
            seen += 1
        assert seen == len(plan.spans)

    def test_the_plan_picks_the_loop(self, free2, abel, monkeypatch):
        ran = []
        for name in ("_digit_levels", "_packed_levels"):
            loop = getattr(engine, name)

            def spy(plan, *start, loop=loop, name=name):
                ran.append(name)
                return loop(plan, *start)

            monkeypatch.setattr(engine, name, spy)
        # dist at n = 40 and the 2-d dist at n = 60 run below the limit
        hs.distribution(free2, hs.weights_from_homomorphism(free2, {"a": 1, "b": 0}), 40)
        hs.distribution(free2, abel, 60)
        assert ran == ["_packed_levels"] * 2
        # llt's window counts to n = 300 run on the planes: a forward half
        # to the join level and the backward halves of n = 200 and 300
        ran.clear()
        beta = hs.weights_from_homomorphism(free2, {"a": 1, "b": 1 / math.sqrt(2)})
        stats = hs.limit_statistics(free2, beta)
        hs.llt_check(free2, beta, stats, -0.5, 0.5, [100, 200, 300])
        assert ran == ["_digit_levels"] * 3
        # mclt's cell masses run on the planes; at n = 200 their plan is
        # above the limit too
        edges, box, *_ = flattened(free2, abel, 200)
        assert _plan(edges, box, 200).bits > _PACKED_BITS


@st.composite
def mirrored_plans(draw):
    """A plan whose offsets have a mirror: vertex pairs ``v``/``w`` and fixed
    points ``f``, each drawn edge joined by its mirror with the negated
    value (an edge that is its own mirror has value 0), and scalar, 2-d or
    3-d integer values."""
    sigma = {hs.START_VERTEX: hs.START_VERTEX}
    for i in range(draw(st.integers(1, 2))):
        sigma[f"v{i}"], sigma[f"w{i}"] = f"w{i}", f"v{i}"
    for i in range(draw(st.integers(0, 2))):
        sigma[f"f{i}"] = f"f{i}"
    candidates = [(s, t) for s in sigma for t in sigma if t != hs.START_VERTEX]
    dim = draw(st.sampled_from([1, 2, 3]))
    table = {}
    for s, t in draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True)):
        if (s, t) not in table:
            image = sigma[s], sigma[t]
            value = (0,) * dim
            if image != (s, t):
                value = draw(st.tuples(*[st.integers(-2, 2)] * dim))
            table[s, t], table[image] = value, tuple(-x for x in value)
    n_max = draw(st.integers(0, 24 if dim == 1 else 6))
    edges, box, *_ = _flatten([(s, t, v) for (s, t), v in table.items()], n_max)
    return _plan(edges, box, n_max)


class TestMirror:
    @settings(settings.get_profile("hypstat"), max_examples=150)
    @given(mirrored_plans())
    def test_mirrored_planes_equal_unmirrored_and_packed(self, plan):
        levels = zip(
            _digit_levels(plan),
            _digit_levels(plan._replace(mirror=None)),
            _packed_levels(plan),
            plan.spans,
        )
        seen = 0
        for (level, first, planes, total), plain, packed, (_, top, _w) in levels:
            assert (level, first, total) == plain[:2] + plain[3:] == packed[:2] + packed[3:]
            width = top - first + 1
            expected = vertex_slots(plain[2], width, box=plan.box)
            assert vertex_slots(planes, width, box=plan.box) == expected
            assert vertex_slots(packed[2], width, plan.field) == expected
            seen += 1
        assert seen == len(plan.spans)

    @pytest.mark.parametrize(
        "coding, table, mirror",
        [
            ("free2", {"a": 1, "b": 2}, "swapcase"),
            ("free2", {"a": 1, "b": 1 / math.sqrt(2)}, "swapcase"),
            ("free3", {"a": 1, "b": -2, "c": 3}, "swapcase"),
            ("free2", {"a": (1, 0), "b": (0, 1)}, "swapcase"),
            ("free3", {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)}, "swapcase"),
            ("z2z3", None, {"s": "s", "t": "T", "T": "t"}),
            # b's and B's offsets are alike, so their partners are ambiguous
            ("free2", {"a": 1, "b": 0}, None),
            ("free2", {"a": 1, "b": 1}, None),
        ],
        ids=["free2", "free2-binned", "free3", "abel2", "abel3", "z2z3", "b0", "b1"],
    )
    def test_the_plan_finds_the_mirror(self, coding, table, mirror):
        coding = CODINGS[coding]
        if table is None:
            # t = +1, T = -1, s = 0: the edge table of the Z/2*Z/3 scans
            values = {"t": 1, "T": -1}
            table = {(e.source, e.target): values.get(e.target, 0) for e in coding.edges}
            table = hs.weights_from_edge_table(coding, table).edge_values
        else:
            table = hs.weights_from_homomorphism(coding, table).edge_values
        if mirror == "swapcase":
            mirror = {v: v.swapcase() for v in coding.core_vertices}

        def edges_of(table):
            weights = hs.weights_from_edge_table(coding, table)
            values = _edge_table(weights, 10, 0.01)[3]
            return _flatten(_transitions(coding, values), 10)[:2]

        edges, box = edges_of(table)
        assert _plan(edges, box, 10).mirror == mirror
        # one edge value moved breaks the mirror
        key = coding.edges[-1].source, coding.edges[-1].target
        moved = {**table, key: (table[key][0] + 1, *table[key][1:])}
        assert _plan(*edges_of(moved), 10).mirror is None

    def test_an_asymmetric_llt_window(self, free2, monkeypatch):
        beta = hs.weights_from_homomorphism(free2, {"a": 1, "b": 1 / math.sqrt(2)})
        stats = hs.limit_statistics(free2, beta)
        mirrors, loop = [], engine._digit_levels

        def spy(plan, *start):
            mirrors[-1].append(plan.mirror)
            return loop(plan, *start)

        monkeypatch.setattr(engine, "_digit_levels", spy)
        rows = []
        for found in (engine._mirror, lambda groups, step: None):
            monkeypatch.setattr(engine, "_mirror", found)
            mirrors.append([])
            report = hs.llt_check(free2, beta, stats, -0.3, 0.7, [100, 200, 300])
            rows.append(report.rows)
        # the forward half and the backward halves of n = 200 and 300, each
        # mirrored on the symmetric hull of its window or run whole
        assert len(mirrors[0]) == len(mirrors[1]) == 3
        assert None not in mirrors[0] and mirrors[1] == [None] * 3
        assert rows[0] == rows[1]


class TestDigitPlanes:
    @pytest.mark.parametrize(
        "table, n, levels",
        [
            # one edge from the start into each target, then 3 from targets:
            # a level-L digit sums up to 3**(L - 1) ones, past 2**64 - 2**16
            # at L = 42, and 2**48 * 3**11 after a carry
            ({"a": 1, "b": 2}, 100, [42, 52, 62, 72, 82, 92]),
            # 9 edges from targets: 9**21, then 2**48 * 9**6
            ({"a": 1, "b": 2, "c": 0, "d": -1, "e": 3}, 40, [22, 27, 32, 37]),
        ],
        ids=["free2", "free5"],
    )
    def test_carry_levels(self, monkeypatch, table, n, levels):
        coding = hs.build_free_group_coding(len(table))
        weights = hs.weights_from_homomorphism(coding, table)
        edges, box, *_ = flattened(coding, weights, n)
        done, carried, carry = [], set(), engine._carry
        # a carry made while level L is computed finds L levels done
        monkeypatch.setattr(
            engine, "_carry", lambda planes: (carried.add(len(done)), carry(planes))
        )
        for level, _first, state, total in _digit_levels(_plan(edges, box, n)):
            done.append(level)
        assert sorted(carried) == levels
        assert sum(_slot_counts(box, state)[1]) == total

    def test_free5_carries_every_five_levels_to_forty(self):
        # in-degree 9, so carries are propagated every 5 levels (9**5 digit
        # sums fit in 64 bits, 9**6 do not); #W_40 = 10 * 9**39 has 127 bits
        coding = hs.build_free_group_coding(5)
        weights = hs.weights_from_homomorphism(
            coding, {"a": 1, "b": 2, "c": 0, "d": -1, "e": 3}
        )
        dists = assert_equal_to_dict_oracle(coding, weights, {7, 23, 40})
        assert max(dists[-1].counts).bit_length() > 2 * 48
        edges, box, *_ = flattened(coding, weights, 40)
        levels = _digit_levels(_plan(edges, box, 40))
        top = max(int(p.max()) for *_, state, _t in levels for p in state.values())
        # deferred carries leave digits above 2**48 between propagations
        assert top >= 2**48

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("g", [2, 3])
    def test_common_factor_of_the_offsets(self, free2, g, dim):
        weights = offsets_with_common_factor(free2, g, dim)
        basis = flattened(free2, weights, 20)[-1]
        # the reduced basis of a rectangular lattice is its axes, so each
        # axis is divided by the gcd of its offsets as a scalar one is
        assert sorted(basis) == sorted([[g, 0], [0, 5 - g]] if dim == 2 else [[g]])
        assert_equal_to_dict_oracle(free2, weights, {0, 1, 6, 20})

    @pytest.mark.parametrize("g", [2, 3])
    def test_windows_on_a_common_factor(self, free2, g):
        weights = offsets_with_common_factor(free2, g, 1)
        ns = [4, 9, 15]
        full = hs.distribution_sweep(free2, weights, ns)
        for lo, hi in [(0, 0), (1, 1), (-5, 6), (-3, -2), (2, 2 + g)]:
            counts, totals = _window_counts(free2, weights, ns, None, [lo] * 3, [hi] * 3)
            assert counts == [window_sum(whole, lo, hi) for whole in full]
            assert totals == [whole.total for whole in full]

    @pytest.mark.parametrize(
        "table, n, rank, box",
        [
            # the diamond |x| + |y| <= n of one parity fills its box
            ({"a": (1, 0), "b": (0, 1)}, 40, 2, 41**2),
            # multiples -2n..2n of (1, 2): one axis of 4n + 1 slots
            ({"a": (1, 2), "b": (2, 4)}, 40, 1, 161),
            # the octahedron of one parity in a cube of (n + 1)**3 slots
            ({"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)}, 14, 3, 15**3),
        ],
        ids=["abelianization", "rank-one", "free3-abelianization"],
    )
    def test_vector_lattices_match_the_dict_oracle(self, table, n, rank, box):
        coding = hs.build_free_group_coding(len(table))
        weights = hs.weights_from_homomorphism(coding, table)
        dists = assert_equal_to_dict_oracle(coding, weights, {n // 3, n})
        # a rank-r lattice gets an r-dimensional box
        _edges, flat, _decode, _origin, basis = flattened(coding, weights, n)
        assert len(basis) == rank
        assert n * flat.step + 1 == box
        if len(table) == 2:
            # the box holds exactly the reachable values, and the counts
            # pass 2**53, so no float sum could hold them exactly
            assert len(dists[-1].counts) == box
            assert max(dists[-1].counts) > 2**53

    def test_abelianization_fills_its_box_at_two_hundred(self, free2, abel):
        _edges, box, _decode, _origin, basis = flattened(free2, abel, 200)
        assert 200 * box.step + 1 == 201**2 == 40401
        assert sorted(map(abs, basis[0])) == sorted(map(abs, basis[1])) == [1, 1]


class TestReducedBasisRounding:
    # _reduced_basis rounds its Gram quotients in integers
    @given(st.integers(-(10**40), 10**40), st.integers(1, 10**20))
    def test_equals_rounding_the_fraction(self, p, q):
        assert _round_half_even(p, q) == round(Fraction(p, q))

    @given(st.integers(-(10**20), 10**20), st.integers(1, 10**20))
    @example(0, 1)
    @example(-1, 1)
    @example(1, 3)
    def test_exact_halves_go_to_the_even_neighbour(self, k, g):
        # (2k + 1) g / (2g) = k + 1/2 lies halfway between k and k + 1
        p, q = (2 * k + 1) * g, 2 * g
        assert _round_half_even(p, q) == round(Fraction(p, q)) == k + k % 2


def window_sum(dist, lo, hi):
    """The counts of a scalar distribution's scaled values in ``lo..hi``."""
    return sum(c for q, c in histogram(dist).items() if lo <= q <= hi)


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
        counts, totals = _window_counts(coding, weights, ns, 0.25, lo, hi)
        # one count and one total per radius, in the order of ns
        dists = {d.n: d for d in full}
        assert counts == [window_sum(dists[n], a, b) for n, a, b in zip(ns, lo, hi)]
        assert totals == [dists[n].total for n in ns]

    @EXAMPLES
    @given(st.data())
    def test_every_split_equals_the_window_sums(self, data):
        # lattice and binned weights, mirrored plans or not, windows that
        # need not be symmetric, and every split level, so radii fall on
        # both sides of it
        coding, weights = data.draw(split_cases(dims=(1,), real=True))
        ns = data.draw(st.lists(st.integers(0, 10), min_size=1, max_size=3, unique=True))
        full = {d.n: d for d in hs.distribution_sweep(coding, weights, ns, bin_width=0.25)}
        reach = max(abs(q) for d in full.values() for q in d.support_scaled) + 2
        lo = [data.draw(st.integers(-reach, reach)) for _ in ns]
        hi = [a + data.draw(st.integers(-1, reach)) for a in lo]
        expected = [window_sum(full[n], a, b) for n, a, b in zip(ns, lo, hi)]
        totals = [full[n].total for n in ns]
        assert _window_counts(coding, weights, ns, 0.25, lo, hi) == (expected, totals)
        for split in range(max(ns) + 1):
            with joined_at(split):
                assert _window_counts(coding, weights, ns, 0.25, lo, hi) == (expected, totals)

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
        counts, totals = _window_counts(free2, weights, ns, width, [lo] * 3, [hi] * 3)
        assert max(full[-1].support_scaled) == 36
        assert counts == [window_sum(whole, lo, hi) for whole in full]
        assert totals == [4 * 3 ** (n - 1) for n in ns]

    def test_rejects_vector_weights_and_missing_windows(self, free2, abel, proj):
        with pytest.raises(hs.InvalidArgumentError, match="scalar"):
            _window_counts(free2, abel, [3], None, [0], [1])
        with pytest.raises(hs.InvalidArgumentError, match="one window per distinct radius"):
            _window_counts(free2, proj, [3, 4], 0.1, [0], [1])
        with pytest.raises(hs.InvalidArgumentError, match="one window per distinct radius"):
            _window_counts(free2, proj, [3, 3], 0.1, [0, 0], [1, 1])


@st.composite
def split_cases(draw, dims=(1, 2), real=False):
    """A coding and a dyadic (or, scalar with ``real``, irrational) edge
    table: drawn edge by edge (a plan without a mirror, mostly), or odd
    under inverting the generators (a mirrored plan), a label without an
    inverse taking 0."""
    codings = ("free2", "free3", "mirror", "z2z3")
    if not draw(st.booleans()):
        return draw(weight_cases(dims=dims, real=real, codings=codings))
    coding = CODINGS[draw(st.sampled_from(codings))]
    dim = draw(st.sampled_from(dims))
    if real and draw(st.booleans()):
        entry = st.integers(-2, 2).map(lambda k: k * math.sqrt(2) / 2)
    else:
        den = draw(st.sampled_from([1, 2, 4]))
        entry = st.integers(-2, 2).map(lambda k: k / den)
    labels = {e.label for e in coding.edges}
    value = {}
    for label in sorted(labels, key=str.islower, reverse=True):
        inverse = label.swapcase()
        if inverse not in labels:
            value[label] = (0,) * dim
        elif inverse in value:
            value[label] = tuple(-x for x in value[inverse])
        else:
            value[label] = tuple(draw(entry) for _ in range(dim))
    table = {
        (e.source, e.target): value[e.label] if dim > 1 else value[e.label][0]
        for e in coding.edges
    }
    return coding, hs.weights_from_edge_table(coding, table)


class TestWeightedCounts:
    @EXAMPLES
    @given(st.data())
    def test_equal_sums_over_the_distribution_and_the_words(self, data):
        coding, weights = data.draw(split_cases())
        n = data.draw(st.integers(0, 12))
        ws = [
            data.draw(axis_weights(weights.dim))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        calls = Counter()

        def counted(w):
            def call(j, q):
                calls[w, j, q] += 1
                return w(j, q)

            return call

        sums, total = weighted_counts(coding, weights, n, [counted(w) for w in ws])
        # each weight is evaluated once per distinct coordinate of each axis
        assert set(calls.values()) <= {1}
        dist = hs.distribution(coding, weights, n)
        assert total == dist.total
        assert sums == [weighted_sum(histogram(dist), w) for w in ws]
        # every split level joins its two halves to the same sums
        for split in range(n + 1):
            with joined_at(split):
                assert weighted_counts(coding, weights, n, ws) == (sums, total)
        if n <= 8:
            scale = dist.scale
            words = Counter(
                tuple(round(x * scale) for x in value)
                for length, _word, value in oracles.brute_force_oracle(coding, weights, n)
                if length == n
            )
            assert sums == [weighted_sum(words, w) for w in ws]

    @pytest.mark.parametrize(
        "coding, table, mirrored",
        [
            ("free2", {"a": (1, 0), "b": (0, 1)}, True),
            ("free3", {"a": (1, -1), "b": (0, 2), "c": (1, 1)}, True),
            ("z2z3", {"s": (0, 0), "t": (1, 2), "T": (-1, -2)}, True),
            ("free2", {"a": (1, 0), "A": (0, 1), "b": (-1, 0), "B": (1, 1)}, False),
        ],
        ids=["abel2", "free3", "z2z3", "no-mirror"],
    )
    def test_every_split_with_asymmetric_weights(self, coding, table, mirrored):
        coding = CODINGS[coding]

        def entry(label):
            if label in table:
                return table[label]
            return tuple(-x for x in table[label.swapcase()])

        weights = hs.weights_from_edge_table(
            coding, {(e.source, e.target): entry(e.label) for e in coding.edges}
        )
        n = 7
        edges, box, *_ = flattened(coding, weights, n)
        assert (_plan(edges, box, n).mirror is not None) == mirrored
        # no weight is its own mirror image
        ws = [
            lambda j, q: (q % 3) * (j + 1) + (q > 0),
            lambda j, q: 2**60 * (q < 0) + q * q * j,
        ]
        words = Counter(
            tuple(round(x) for x in value)
            for length, _word, value in oracles.brute_force_oracle(coding, weights, n)
            if length == n
        )
        expected = [weighted_sum(words, w) for w in ws]
        dist = hs.distribution(coding, weights, n)
        assert expected == [weighted_sum(histogram(dist), w) for w in ws]
        for split in range(n + 1):
            with joined_at(split):
                assert weighted_counts(coding, weights, n, ws)[0] == expected
        assert weighted_counts(coding, weights, n, ws)[0] == expected

    @pytest.mark.parametrize("digits", [(1, 1), (2, 1)])
    def test_the_float_join_at_its_worst_case(self, digits):
        # every 16-bit chunk is 2**16 - 1, so an entry of a block's product
        # sums 2**21 products to 2**53 - 2**38 + 2**21, and one column more
        # starts a second block
        width = engine._JOIN_BLOCK + 1
        f, g = (np.full((d, width), 2**48 - 1, np.uint64) for d in digits)
        top = [2 ** (48 * d) - 1 for d in digits]
        assert engine._join(f, g) == width * top[0] * top[1]
        assert engine._join(f[:, :1], g[:, :1]) == top[0] * top[1]

    def test_largest_weight_on_five_digit_counts(self):
        # #W_40 on free:5 has 127 bits, so the forward half's counts run
        # over three digits and each join multiplies chunks of all three
        coding = hs.build_free_group_coding(5)
        weights = hs.weights_from_homomorphism(
            coding, {"a": 1, "b": 2, "c": 0, "d": -1, "e": 3}
        )
        dist = hs.distribution(coding, weights, 40)
        assert max(dist.counts).bit_length() > 2 * 48
        ws = [
            lambda j, q: 2**16,
            lambda j, q: 2**16 - q % 3,
            lambda j, q: 2**16 * (q % 2),
        ]
        sums, total = weighted_counts(coding, weights, 40, ws)
        assert total == dist.total
        assert sums == [weighted_sum(histogram(dist), w) for w in ws]
        assert sums[0] == 2**16 * dist.total

    def test_refuses_weights_it_cannot_sum(self, free2, abel, proj):
        with pytest.raises(hs.InvalidArgumentError, match="nonnegative"):
            weighted_counts(free2, abel, 6, [lambda j, q: q])
        with pytest.raises(hs.InvalidArgumentError, match="lattice"):
            weighted_counts(free2, proj, 6, [lambda j, q: 1])
        # a slot weight of 2**80 times counts of two digits is summed exactly
        dist = hs.distribution(free2, abel, 60)
        ws = [lambda j, q: 2**40]
        assert weighted_counts(free2, abel, 60, ws) == (
            [weighted_sum(histogram(dist), w) for w in ws],
            dist.total,
        )


BOX_CASES = [
    ("free2", {"a": (1, 0), "b": (0, 1)}, 12),
    ("free3", {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)}, 7),
    # no mirror: t and T are not each other's negatives
    ("z2z3", {"s": (1, 0), "t": (0, 1), "T": (1, 1)}, 12),
]


def box_weights(coding, table):
    """Weights from one value per label, its inverse label taking the
    negated value when the table does not name it."""
    def entry(label):
        if label in table:
            return table[label]
        return tuple(-x for x in table[label.swapcase()])

    return hs.weights_from_edge_table(
        coding, {(e.source, e.target): entry(e.label) for e in coding.edges}
    )


def lattice_oracle(coding, weights, ns):
    """``oracles.dict_lattice_counts`` on the weight's scaled edge values."""
    table = hs.scaled_integer_values(weights, hs.lattice_scale(weights))
    edges = [(e.source, e.target, table[(e.source, e.target)]) for e in coding.edges]
    return oracles.dict_lattice_counts(edges, hs.START_VERTEX, ns)


class TestBoxPlanes:
    @pytest.mark.parametrize(
        "coding, table, n", BOX_CASES, ids=["abel2", "abel3", "z2z3-no-mirror"]
    )
    def test_every_split_equals_the_dict_oracle(self, coding, table, n):
        coding = CODINGS[coding]
        weights = box_weights(coding, table)
        edges, box, *_ = flattened(coding, weights, n)
        assert len(box.ranges) == weights.dim
        assert (_plan(edges, box, n).mirror is None) == (coding is CODINGS["z2z3"])
        ws = [lambda j, q: q % 3 + j, lambda j, q: 2**50 * (q > 0) + 1]
        expected = [weighted_sum(lattice_oracle(coding, weights, {n})[n], w) for w in ws]
        assert weighted_counts(coding, weights, n, ws)[0] == expected
        for split in range(n + 1):
            with joined_at(split):
                assert weighted_counts(coding, weights, n, ws)[0] == expected

    @pytest.mark.parametrize(
        "coding, table, n", BOX_CASES, ids=["abel2", "abel3", "z2z3-no-mirror"]
    )
    def test_planes_equal_the_oracle_and_packed_ints(self, monkeypatch, coding, table, n):
        coding = CODINGS[coding]
        weights = box_weights(coding, table)
        ns = {n // 2, n}
        packed = assert_equal_to_dict_oracle(coding, weights, ns)
        shapes, loop = {}, engine._digit_levels

        def spy(plan, *start):
            for level, first, state, total in loop(plan, *start):
                shapes[level] = {p.shape[1:] for p in state.values()}
                yield level, first, state, total

        monkeypatch.setattr(engine, "_PACKED_BITS", 0)
        monkeypatch.setattr(engine, "_digit_levels", spy)
        assert assert_equal_to_dict_oracle(coding, weights, ns) == packed
        # every level runs on its own box, reduced axis 0 last
        box = flattened(coding, weights, n)[1]
        for level, found in shapes.items():
            assert found <= {tuple(level * r + 1 for r in box.ranges[::-1])}


class TestSlotWeights:
    @pytest.mark.parametrize(
        "coding, table, n",
        [
            *BOX_CASES,
            # a rank-one lattice in two dimensions, and one whose reduced
            # basis is not the coordinate axes
            ("free2", {"a": (1, 2), "b": (2, 4)}, 9),
            ("free3", {"a": (1, -1), "b": (0, 2), "c": (1, 1)}, 8),
        ],
        ids=["abel2", "abel3", "z2z3-no-mirror", "rank-one", "free3-skew"],
    )
    def test_each_axis_weight_is_called_once_per_distinct_coordinate(self, coding, table, n):
        coding = CODINGS[coding]
        weights = box_weights(coding, table)
        _edges, box, decode, *_ = flattened(coding, weights, n)
        # level n's box holds flattened slots 0..n * step
        distinct = {
            (j, q) for j, axis in enumerate(decode(n, np.arange(n * box.step + 1)))
            for q in axis.tolist()
        }
        calls = Counter()

        def w(j, q):
            calls[j, q] += 1
            return (q % 4) * (j + 1)

        expected = weighted_sum(lattice_oracle(coding, weights, {n})[n], w)
        calls.clear()
        assert weighted_counts(coding, weights, n, [w])[0] == [expected]
        assert set(calls) == distinct
        assert set(calls.values()) == {1}

    def test_the_slot_weights_stay_small(self, monkeypatch, free2, abel):
        # the default cell of mclt at n = 200: twice the membership of the
        # lower quadrant, with the boundary counted once
        def quadrant(j, q):
            return 2 * (q < 0) + (q == 0)

        charges, charge = [], engine._charge
        monkeypatch.setattr(
            engine, "_charge", lambda *args: (charges.append(args[0]), charge(*args))[1]
        )
        expected = weighted_counts(free2, abel, 200, [quadrant])
        assert expected[0][0] == expected[1]
        # the join is charged as before; the weights are built on the box,
        # so they take no charge of their own
        assert [what.split(" level")[0] for what in charges] == [
            "any join of the lattice enumeration to",
            "the lattice enumeration joined at",
        ]
        tracemalloc.start()
        try:
            assert weighted_counts(free2, abel, 200, [quadrant]) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.0 MB measured with the box planes (5.1 MB with the slots of
        # n_max's strides and the decoded level), plus 10%
        assert peak < 3.3e6


class TestByteBudget:
    def test_oversized_masses_are_refused_before_allocating(self, free2, abel):
        # 2001**2 slots of 67 digits for each of four targets, about 17 GB
        start = time.perf_counter()
        with pytest.raises(hs.ResourceError, match="bytes"):
            hs.distribution(free2, abel, 2000)
        assert time.perf_counter() - start < 1.0


class TestWorkBudget:
    # a distribution's plan sums digits times slots times targets over its
    # levels as each level's total arrives, and level 1 of free:2 already
    # makes 12; a join is first charged with one digit a level, before any
    # path is counted
    @pytest.mark.parametrize(
        "run, refusal",
        [
            (lambda free2, aexp, abel: hs.distribution(free2, aexp, 8), "level 1"),
            (
                lambda free2, aexp, abel: _window_counts(free2, aexp, [8], None, [-2], [2]),
                "any join of the lattice enumeration to level 8",
            ),
            (
                lambda free2, aexp, abel: weighted_counts(free2, abel, 8, [lambda j, q: 1]),
                "any join of the lattice enumeration to level 8",
            ),
        ],
        ids=["distribution", "window_counts", "weighted_counts"],
    )
    def test_lowered_budget_refuses_before_the_first_level(
        self, monkeypatch, free2, aexp, abel, run, refusal
    ):
        def never(plan, start=None):
            raise AssertionError("a DP level ran")

        monkeypatch.setattr(engine, "_WORK_BUDGET", 10)
        monkeypatch.setattr(engine, "_packed_levels", never)
        monkeypatch.setattr(engine, "_digit_levels", never)
        with pytest.raises(hs.ResourceError, match=f"^{refusal} .* or 10-addition budget"):
            run(free2, aexp, abel)

    @pytest.mark.parametrize("counts", ["weighted_counts", "window_counts"])
    def test_a_join_is_charged_by_its_halves(self, monkeypatch, free2, abel, root_half, counts):
        # the single forward pass makes more digit additions than the
        # cheapest join; a budget between the two admits the join
        if counts == "weighted_counts":
            n, weights, table = 24, abel, _edge_table(abel, 24, None)[3]

            def run():
                return weighted_counts(free2, abel, n, [lambda j, q: 1 + (q > 0)])
        else:
            n, weights, table = 40, root_half, _edge_table(root_half, 40, 0.1)[3]

            def run():
                return _window_counts(free2, root_half, [20, n], 0.1, [-3, -5], [4, 5])

        edges, box, *_ = _flatten(_transitions(free2, table), n)
        single = _additions(_plan(edges, box, n))[-1]
        charges, charge = [], engine._charge
        monkeypatch.setattr(
            engine, "_charge", lambda *args: (charges.append(args), charge(*args))[1]
        )
        expected = run()
        joined = charges[-1][2]
        assert 0 < joined < single
        monkeypatch.setattr(engine, "_WORK_BUDGET", joined)
        assert run() == expected

        def never(plan, start=None):
            raise AssertionError("a DP level ran")

        monkeypatch.setattr(engine, "_WORK_BUDGET", joined - 1)
        monkeypatch.setattr(engine, "_digit_levels", never)
        with pytest.raises(hs.ResourceError, match=f"join.* {joined - 1}-addition budget"):
            run()

    def test_a_backward_half_over_the_budget_refuses_before_the_first_level(
        self, monkeypatch, free2, abel
    ):
        # a slot weight of 2**240 (2**241 mirrored) takes six digits, so the
        # backward half of a join at level 1 makes more digit additions than
        # the whole one-digit forward plan, which the lowered budget admits
        ws = [lambda j, q: 2**120]
        edges, box, *_ = flattened(free2, abel, 8)
        monkeypatch.setattr(engine, "_WORK_BUDGET", engine._additions(_plan(edges, box, 8))[-1])
        # the cheapest join is the single forward pass
        assert weighted_counts(free2, abel, 8, ws) == ([2**240 * 4 * 3**7], 4 * 3**7)

        def never(plan, start=None):
            raise AssertionError("a DP level ran")

        monkeypatch.setattr(engine, "_digit_levels", never)
        with pytest.raises(hs.ResourceError, match="^the lattice enumeration joined at level 1 of 8"):
            with joined_at(1):
                weighted_counts(free2, abel, 8, ws)

    def test_long_sweeps_stop_forming_totals_at_the_refused_level(
        self, monkeypatch, free2, aexp
    ):
        levels = []

        def counted(pairs, n_max):
            for total in hs.coding._path_totals(pairs, n_max):
                levels.append(total)
                yield total

        monkeypatch.setattr(engine, "_path_totals", counted)
        with pytest.raises(hs.ResourceError, match="addition budget"):
            hs.distribution(free2, aexp, 40000)
        # about 7e8 additions by level 2000 and 5.7e9 by level 4000
        assert 2000 < len(levels) < 4000
