"""Tests for exact sphere enumeration: distributions, moments, weighted sums."""

import math
from fractions import Fraction

import pytest

import hypstat as hs
import oracles

# [DERIVED] graph-free reduced-word histograms from tests/oracles.py
AEXP_HIST_N4 = {-4: 1, -3: 8, -2: 18, -1: 16, 0: 22, 1: 16, 2: 18, 3: 8, 4: 1}
AIND_HIST_N3 = {0: 17, 1: 12, 2: 6, 3: 1}
ABEL_HIST_N3 = {
    (-3, 0): 1, (-2, -1): 3, (-2, 1): 3, (-1, -2): 3, (-1, 0): 2, (-1, 2): 3,
    (0, -3): 1, (0, -1): 2, (0, 1): 2, (0, 3): 1, (1, -2): 3, (1, 0): 2,
    (1, 2): 3, (2, -1): 3, (2, 1): 3, (3, 0): 1,
}
# [DERIVED] a-exponent sphere 6: sum phi = 0, sum phi^2 = 5104 over 972 words
AEXP_N6_SECOND = 5104
# [DERIVED] a-indicator sphere 6: sum phi = 1458, so the mean is 3/2
AIND_N6_FIRST = 1458
# [DERIVED] mirror model at n = 6: doubled free-group words plus one t-path
MIRROR_HIST_N6 = {
    -6: 2, -5: 24, -4: 100, -3: 184, -2: 220, -1: 296, 0: 293,
    1: 296, 2: 220, 3: 184, 4: 100, 5: 24, 6: 2,
}


class TestLatticeDistribution:
    def test_a_exponent_sphere_four(self, free2, aexp):
        dist = hs.distribution(free2, aexp, 4)
        assert dist.kind == "exact-lattice"
        assert dist.scale == 1
        assert dist.bin_width is None
        assert dist.n == 4
        assert dist.total == 108
        assert dict(zip(dist.support_scaled, dist.counts)) == AEXP_HIST_N4

    def test_matches_word_enumeration(self, free2, aexp):
        dist = hs.distribution(free2, aexp, 6)
        expected = oracles.scalar_histogram(2, 6, oracles.AEXP)
        assert dict(zip(dist.support_scaled, dist.counts)) == dict(expected)

    def test_indicator_sphere_three(self, free2, aind):
        dist = hs.distribution(free2, aind, 3)
        assert dict(zip(dist.support_scaled, dist.counts)) == AIND_HIST_N3

    def test_word_length_concentrates(self, free2, wordlen):
        dist = hs.distribution(free2, wordlen, 5)
        assert dist.support_scaled == (5,)
        assert dist.counts == (324,)

    def test_vector_distribution(self, free2, abel):
        dist = hs.distribution(free2, abel, 3)
        assert dist.dim == 2
        assert dict(zip(dist.support_scaled, dist.counts)) == ABEL_HIST_N3

    def test_sweep_matches_single_calls(self, free2, aexp):
        sweep = hs.distribution_sweep(free2, aexp, [2, 5])
        for dist in sweep:
            single = hs.distribution(free2, aexp, dist.n)
            assert dist.support_scaled == single.support_scaled
            assert dist.counts == single.counts

    def test_rational_weights_use_common_denominator(self, free2):
        w = hs.weights_from_homomorphism(free2, {"a": 0.5, "b": 0.25})
        dist = hs.distribution(free2, w, 2)
        assert dist.kind == "exact-lattice"
        assert dist.scale == 4
        # the word "aa" contributes scaled value 4, i.e. exactly 1.0
        assert dist.exact_value(4) == Fraction(1, 1)

    def test_support_floats(self, free2, aexp):
        dist = hs.distribution(free2, aexp, 2)
        assert dist.support == (-2.0, -1.0, 0.0, 1.0, 2.0)


class TestBinnedDistribution:
    def test_projection_counts_match_quantized_words(self, free2, proj):
        width = 1e-3
        dist = hs.distribution(free2, proj, 3, bin_width=width)
        assert dist.kind == "binned-real"
        assert dist.scale is None
        assert dist.bin_width == width
        # the engine rounds each edge value once: a -> 1000, b -> 1414
        unit_a = round(1.0 / width)
        unit_b = round(math.sqrt(2) / width)
        expected: dict[int, int] = {}
        for (p, q), count in oracles.vector_histogram(2, 3, oracles.ABEL).items():
            key = unit_a * p + unit_b * q
            expected[key] = expected.get(key, 0) + count
        assert dict(zip(dist.support_scaled, dist.counts)) == expected

    def test_bin_centers_near_exact_values(self, free2, proj):
        width = 1e-3
        n = 3
        dist = hs.distribution(free2, proj, n, bin_width=width)
        exact = sorted(
            p + math.sqrt(2) * q
            for (p, q) in oracles.vector_histogram(2, n, oracles.ABEL)
        )
        for center in dist.support:
            assert min(abs(center - x) for x in exact) <= n * width / 2

    def test_constant_real_weights_need_explicit_bin(self, free2):
        table = {
            (e.source, e.target): math.sqrt(2)
            for e in free2.edges
        }
        w = hs.weights_from_edge_table(free2, table)
        with pytest.raises(hs.InvalidArgumentError):
            hs.distribution(free2, w, 3)
        dist = hs.distribution(free2, w, 3, bin_width=0.1)
        assert len(dist.support_scaled) == 1
        assert dist.total == 36

    def test_real_vector_weights_rejected(self, free2):
        w = hs.weights_from_homomorphism(
            free2, {"a": (1.0, 0.0), "b": (0.0, math.sqrt(2))}
        )
        with pytest.raises(hs.InvalidArgumentError):
            hs.distribution(free2, w, 3)


class TestOvercounted:
    def test_mirror_adds_nonmaximal_paths(self, mirror, mirror_decomp, mirror_hom):
        plain = hs.distribution(mirror, mirror_hom, 6)
        over = hs.distribution_overcounted(mirror, mirror_decomp, mirror_hom, 6)
        assert plain.total == 1945
        assert dict(zip(plain.support_scaled, plain.counts)) == MIRROR_HIST_N6
        assert over.total == 1946
        assert over.overcount_multiplicity == 1
        diff = {
            q: c - dict(zip(plain.support_scaled, plain.counts)).get(q, 0)
            for q, c in zip(over.support_scaled, over.counts)
        }
        # the only maximal-avoiding path of length 6 is the t-word at value 0
        assert {q: d for q, d in diff.items() if d} == {0: 1}

    def test_single_component_is_unchanged(self, free2, free2_decomp, aexp):
        plain = hs.distribution(free2, aexp, 5)
        over = hs.distribution_overcounted(free2, free2_decomp, aexp, 5)
        assert over.overcount_multiplicity == 0
        assert over.total == plain.total
        assert over.counts == plain.counts

    def test_count_avoiding_maximal(self, mirror, mirror_decomp, mirror_hom):
        # the t-path is the unique maximal-avoiding path of each length
        for n in (1, 4, 6):
            assert oracles.count_avoiding_maximal(mirror, mirror_decomp, n) == 1
            over = hs.distribution_overcounted(mirror, mirror_decomp, mirror_hom, n)
            plain = hs.distribution(mirror, mirror_hom, n)
            assert over.total - plain.total == over.overcount_multiplicity == 1


class TestMoments:
    def test_a_exponent_exact(self, free2, aexp):
        md = hs.moment_sweep(free2, aexp, [6])[0]
        assert md.count == 972
        assert md.first == (0,)
        assert md.second == ((AEXP_N6_SECOND,),)
        assert md.mean() == (0,)

    def test_indicator_mean_is_rational(self, free2, aind):
        md = hs.moment_sweep(free2, aind, [6])[0]
        assert md.first == (AIND_N6_FIRST,)
        assert md.mean() == (Fraction(3, 2),)

    def test_sweep_matches_single(self, free2, aind):
        sweep = hs.moment_sweep(free2, aind, [3, 6])
        assert sweep[0].first == (hs.moment_sweep(free2, aind, [3])[0].first[0],)
        assert sweep[1].first == (AIND_N6_FIRST,)

    def test_distribution_moments_agree(self, free2, abel):
        md = hs.moment_sweep(free2, abel, [3])[0]
        from_dist = hs.distribution(free2, abel, 3).moments()
        assert md.first == from_dist.first
        assert md.second == from_dist.second

    def test_empty_sphere_mean_rejected(self, free1):
        md = hs.moment_sweep(free1, hs.weights_word_length(free1), [0])[0]
        assert md.count == 1
        zero = hs.MomentData(n=0, dim=1, count=0, first=(0,), second=((0,),))
        with pytest.raises(hs.InvalidArgumentError):
            zero.mean()


class TestWeightedSums:
    def test_log_sweep_matches_direct(self, free2, aexp):
        t = 0.8
        logs = hs.log_weighted_sum_sweep(free2, aexp, t, [2, 4, 6])
        dists = hs.distribution_sweep(free2, aexp, [2, 4, 6])
        for log_value, dist in zip(logs, dists):
            direct = sum(
                c * math.exp(t * v) for v, c in zip(dist.support, dist.counts)
            )
            assert log_value == pytest.approx(math.log(direct), abs=1e-10)


class TestLatticeMasses2d:
    # mclt's cell proportions read the 2-d lattice masses off the exact
    # vector distribution at the largest n
    def test_matches_vector_histogram(
        self, free2, free2_decomp, abel, abel_stats
    ):
        hist: dict[tuple[int, int], int] = {}
        for length, _word, value in oracles.brute_force_oracle(free2, abel, 3):
            if length == 3:
                key = (round(value[0]), round(value[1]))
                hist[key] = hist.get(key, 0) + 1
        assert hist == ABEL_HIST_N3
        dist = hs.distribution(free2, abel, 3)
        assert dist.scale == 1
        assert dict(zip(dist.support_scaled, dist.counts)) == hist
        # lower quadrant: boundary points weigh 1/2 on each axis
        doubled = {q: 2 if q < 0 else 1 if q == 0 else 0 for q in range(-3, 4)}
        inside = sum(doubled[x] * doubled[y] * c for (x, y), c in hist.items())
        expected = float(Fraction(inside, 4 * sum(hist.values())))
        report = hs.mclt_check(free2, free2_decomp, abel, abel_stats, [3])
        assert report.theory["cells"][0]["empirical"] == expected

    def test_scalar_weights_rejected(self, free2, free2_decomp, aexp, aexp_stats):
        cell = ((None, 0.0), (None, 0.0))
        with pytest.raises(hs.PreconditionError):
            hs.mclt_check(
                free2, free2_decomp, aexp, aexp_stats, [3], cell_grid=[cell]
            )


class TestBruteForce:
    def test_lengths_and_values(self, free2, aexp):
        triples = oracles.brute_force_oracle(free2, aexp, 4)
        by_length: dict[int, int] = {}
        for length, _word, _value in triples:
            by_length[length] = by_length.get(length, 0) + 1
        assert by_length == {0: 1, 1: 4, 2: 12, 3: 36, 4: 108}
        hist: dict[int, int] = {}
        for length, _word, value in triples:
            if length == 4:
                hist[round(value[0])] = hist.get(round(value[0]), 0) + 1
        assert hist == AEXP_HIST_N4

    def test_words_are_reduced(self, free2, wordlen):
        words = {w for _n, w, _v in oracles.brute_force_oracle(free2, wordlen, 3)}
        assert "" in words
        assert "aA" not in words and "bB" not in words
        assert "aB" in words

    def test_guard_rejects_huge_caps(self, free2, aexp):
        with pytest.raises(hs.ResourceError):
            oracles.brute_force_oracle(free2, aexp, 20)


class TestSerialization:
    def test_round_trip_with_big_counts(self, free2, aexp):
        dist = hs.distribution(free2, aexp, 40)
        assert dist.total == 4 * 3**39
        doc = hs.distribution_to_json(dist)
        again = hs.distribution_from_json(doc)
        assert again.support_scaled == dist.support_scaled
        assert again.counts == dist.counts
        assert again.total == dist.total
        assert again.kind == dist.kind
        assert again.scale == dist.scale

    def test_round_trip_binned(self, free2, proj):
        dist = hs.distribution(free2, proj, 4, bin_width=0.01)
        again = hs.distribution_from_json(hs.distribution_to_json(dist))
        assert again.bin_width == dist.bin_width
        assert again.support_scaled == dist.support_scaled
