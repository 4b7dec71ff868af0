"""Property tests for the exact lattice engine of ``hypstat.enumerate``.

Random integer and dyadic-rational edge tables of dimension 1 to 3 on
free:1, free:2, the mirror fixture and a Z/2*Z/3 coding are enumerated by
the engine and compared with the brute-force word walk (n <= 8), with the
dict-per-vertex DP (``oracles.dict_lattice_counts``, n <= 40), and, for
interval windows, with the full distribution restricted to each window.
Weighted counts (``weighted_counts``, the cell sums of ``mclt``) are
compared with the same sums over the distribution and the word walk.
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
from collections import Counter
from fractions import Fraction

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
    _digit_levels,
    _slot_counts,
    _edge_table,
    _flatten,
    _packed_levels,
    _plan,
    _round_half_even,
    _transitions,
    interval_count_sweep,
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
    """The engine's ``(edges, step, decode, origin, basis)`` for a lattice weight."""
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
    joined by random edges, a scalar lattice, binned real, 2-d or 3-d edge
    table flattened as ``_sweep`` flattens it, and random kept windows."""
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
    engine_edges, step, *_ = _flatten(_transitions(coding, table), n_max)
    keep = None
    if draw(st.booleans()):
        keep = []
        for level in range(n_max + 1):
            lo = draw(st.integers(-2, level * step + 2))
            keep.append((lo, lo + draw(st.integers(-1, level * step + 2))))
    return _plan(engine_edges, step, n_max, keep)


def vertex_slots(state, width, field=None):
    """Each vertex's exact count in every slot of the level, all-zero
    vertices left out: digit planes without ``field``, packed ints with it."""
    out = {}
    for vertex, x in state.items():
        if field is None:
            counts = [0] * width
            for row in x[::-1].tolist():
                counts = [(c << _DIGIT_BITS) + d for c, d in zip(counts, row)]
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
            expected = vertex_slots(planes, width)
            assert vertex_slots(packed[2], width, plan.field) == expected
            seen += 1
        assert seen == len(plan.spans)

    def test_the_plan_picks_the_loop(self, free2, abel, monkeypatch):
        ran = []
        for name in ("_digit_levels", "_packed_levels"):
            loop = getattr(engine, name)

            def spy(plan, loop=loop, name=name):
                ran.append(name)
                return loop(plan)

            monkeypatch.setattr(engine, name, spy)
        # dist at n = 40 and the 2-d dist at n = 60 run below the limit
        hs.distribution(free2, hs.weights_from_homomorphism(free2, {"a": 1, "b": 0}), 40)
        hs.distribution(free2, abel, 60)
        assert ran == ["_packed_levels"] * 2
        # llt's windowed sweep to n = 300 runs above it
        ran.clear()
        beta = hs.weights_from_homomorphism(free2, {"a": 1, "b": 1 / math.sqrt(2)})
        stats = hs.limit_statistics(free2, beta)
        hs.llt_check(free2, beta, stats, -0.5, 0.5, [100, 200, 300])
        assert ran == ["_digit_levels"]
        # mclt's cell masses run on the planes; at n = 200 their plan is
        # above the limit too
        edges, step, *_ = flattened(free2, abel, 200)
        assert _plan(edges, step, 200).bits > _PACKED_BITS


@st.composite
def mirrored_plans(draw):
    """A plan whose offsets have a mirror: vertex pairs ``v``/``w`` and fixed
    points ``f``, each drawn edge joined by its mirror with the negated
    value (an edge that is its own mirror has value 0), scalar, 2-d or 3-d
    integer values, and random kept windows."""
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
    edges, step, *_ = _flatten([(s, t, v) for (s, t), v in table.items()], n_max)
    keep = None
    if draw(st.booleans()):
        keep = []
        for level in range(n_max + 1):
            lo = draw(st.integers(-2, level * step + 2))
            # a window inverted by two slots or more hulls to an asymmetric level
            keep.append((lo, lo + draw(st.integers(-3, level * step + 2))))
    return _plan(edges, step, n_max, keep)


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
            expected = vertex_slots(plain[2], width)
            assert vertex_slots(planes, width) == expected
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

        edges, step = edges_of(table)
        assert _plan(edges, step, 10).mirror == mirror
        # a window inverted by two slots or more leaves its level asymmetric
        keep = [(0, level * step) for level in range(10)] + [(10 * step, 0)]
        assert _plan(edges, step, 10, keep).mirror is None
        # one edge value moved breaks the mirror
        key = coding.edges[-1].source, coding.edges[-1].target
        moved = {**table, key: (table[key][0] + 1, *table[key][1:])}
        assert _plan(*edges_of(moved), 10).mirror is None

    def test_an_asymmetric_llt_window(self, free2, monkeypatch):
        beta = hs.weights_from_homomorphism(free2, {"a": 1, "b": 1 / math.sqrt(2)})
        stats = hs.limit_statistics(free2, beta)
        mirrors, loop = [], engine._digit_levels

        def spy(plan):
            mirrors.append(plan.mirror)
            return loop(plan)

        monkeypatch.setattr(engine, "_digit_levels", spy)
        rows = []
        for found in (engine._mirror, lambda groups, step: None):
            monkeypatch.setattr(engine, "_mirror", found)
            report = hs.llt_check(free2, beta, stats, -0.3, 0.7, [100, 200, 300])
            rows.append(report.rows)
        assert mirrors[0] is not None and mirrors[1] is None
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
        edges, step, *_ = flattened(coding, weights, n)
        done, carried, carry = [], set(), engine._carry
        # a carry made while level L is computed finds L levels done
        monkeypatch.setattr(
            engine, "_carry", lambda planes: (carried.add(len(done)), carry(planes))
        )
        for level, _first, state, total in _digit_levels(_plan(edges, step, n)):
            done.append(level)
        assert sorted(carried) == levels
        assert sum(_slot_counts(state, 0, n * step)[1]) == total

    def test_free5_carries_every_five_levels_to_forty(self):
        # in-degree 9, so carries are propagated every 5 levels (9**5 digit
        # sums fit in 64 bits, 9**6 do not); #W_40 = 10 * 9**39 has 127 bits
        coding = hs.build_free_group_coding(5)
        weights = hs.weights_from_homomorphism(
            coding, {"a": 1, "b": 2, "c": 0, "d": -1, "e": 3}
        )
        dists = assert_equal_to_dict_oracle(coding, weights, {7, 23, 40})
        assert max(dists[-1].counts).bit_length() > 2 * 48
        edges, step, *_ = flattened(coding, weights, 40)
        levels = _digit_levels(_plan(edges, step, 40))
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
            cut = interval_count_sweep(free2, weights, ns, None, [lo] * 3, [hi] * 3)
            for whole, part in zip(full, cut):
                assert histogram(part) == {
                    q: c for q, c in histogram(whole).items() if lo <= q <= hi
                }
                assert part.total == whole.total

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
        _edges, step, _decode, _origin, basis = flattened(coding, weights, n)
        assert len(basis) == rank
        assert n * step + 1 == box
        if len(table) == 2:
            # the box holds exactly the reachable values, and the counts
            # pass 2**53, so no float sum could hold them exactly
            assert len(dists[-1].counts) == box
            assert max(dists[-1].counts) > 2**53

    def test_abelianization_fills_its_box_at_two_hundred(self, free2, abel):
        _edges, step, _decode, _origin, basis = flattened(free2, abel, 200)
        assert 200 * step + 1 == 201**2 == 40401
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


class TestWeightedCounts:
    @EXAMPLES
    @given(st.data())
    def test_equal_sums_over_the_distribution_and_the_words(self, data):
        codings = ("free2", "free3", "mirror", "z2z3")
        coding, weights = data.draw(weight_cases(dims=(2,), codings=codings))
        n = data.draw(st.integers(0, 12))
        ws = [data.draw(axis_weights(2)) for _ in range(data.draw(st.integers(1, 3)))]
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
        if n <= 8:
            scale = dist.scale
            words = Counter(
                tuple(round(x * scale) for x in value)
                for length, _word, value in oracles.brute_force_oracle(coding, weights, n)
                if length == n
            )
            assert sums == [weighted_sum(words, w) for w in ws]

    def test_largest_weight_on_five_digit_counts(self):
        # #W_40 on free:5 has 127 bits, so the sums run over three digits;
        # a weight of 2**16 times a digit near 2**48 leaves no room for a
        # second product in a 64-bit chunk sum
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
        # digits of #W_60 = 4 * 3**59 reach past 2**24
        with pytest.raises(hs.ResourceError, match="64-bit"):
            weighted_counts(free2, abel, 60, [lambda j, q: 2**40])


class TestByteBudget:
    def test_oversized_masses_are_refused_before_allocating(self, free2, abel):
        # 2001**2 slots of 67 digits for each of four targets, about 17 GB
        start = time.perf_counter()
        with pytest.raises(hs.ResourceError, match="bytes"):
            hs.distribution(free2, abel, 2000)
        assert time.perf_counter() - start < 1.0


class TestWorkBudget:
    # the plan sums digits times kept slots times targets over its levels
    # as each level's total arrives; level 1 of free:2 already makes 12
    @pytest.mark.parametrize(
        "run",
        [
            lambda free2, aexp, abel: hs.distribution(free2, aexp, 8),
            lambda free2, aexp, abel: interval_count_sweep(free2, aexp, [8], None, [-2], [2]),
            lambda free2, aexp, abel: weighted_counts(free2, abel, 8, [lambda j, q: 1]),
        ],
        ids=["distribution", "interval_count_sweep", "weighted_counts"],
    )
    def test_lowered_budget_refuses_before_the_first_level(
        self, monkeypatch, free2, aexp, abel, run
    ):
        def never(plan):
            raise AssertionError("a DP level ran")

        monkeypatch.setattr(engine, "_WORK_BUDGET", 10)
        monkeypatch.setattr(engine, "_packed_levels", never)
        monkeypatch.setattr(engine, "_digit_levels", never)
        with pytest.raises(hs.ResourceError, match="^level 1 .* or 10-addition budget"):
            run(free2, aexp, abel)

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
