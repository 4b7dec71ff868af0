"""Tests for exact sphere enumeration: distributions, moments, weighted sums."""

import math
from fractions import Fraction

import pytest

import hypstat as hs
import oracles
from conftest import build_z2z3_coding, target_letter_weights
from hypstat import enumerate as engine
from hypstat import limits

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

    def test_binned_moments_sum_the_bin_centres(self, free2, root_half):
        width = 0.05
        dist = hs.distribution(free2, root_half, 8, bin_width=width)
        md = dist.moments()
        centres = [(q * width, c) for q, c in zip(dist.support_scaled, dist.counts)]
        assert md.count == dist.total == sum(c for _, c in centres)
        # the first sum cancels to 0 by symmetry, so it is compared on the
        # scale of the sum of its absolute terms
        scale = math.fsum(c * abs(x) for x, c in centres)
        assert md.first[0] == pytest.approx(
            math.fsum(c * x for x, c in centres), rel=1e-12, abs=1e-12 * scale
        )
        assert md.second[0][0] == pytest.approx(
            math.fsum(c * x * x for x, c in centres), rel=1e-12
        )

    # the default bin is n * range / 200 per edge, so the rounding drift
    # n * bin / 2 grows like n**2: at n = 196 the bin is 1.96, b = 0.7071
    # rounds to 0 and a = 1 to one bin, and the binned Var/n is 3.83
    @pytest.mark.xfail(
        strict=True,
        reason="the default bin width n * range / 200 enumerates another "
        "weight's law at large n",
    )
    def test_default_bin_keeps_the_variance(self, free2, root_half, root_half_stats):
        md = hs.distribution(free2, root_half, 196).moments()
        variance = md.second[0][0] / md.count - (md.first[0] / md.count) ** 2
        assert variance / 196 == pytest.approx(root_half_stats.sigma2, rel=0.1)

    def test_real_vector_weights_rejected(self, free2):
        w = hs.weights_from_homomorphism(
            free2, {"a": (1.0, 0.0), "b": (0.0, math.sqrt(2))}
        )
        with pytest.raises(hs.InvalidArgumentError):
            hs.distribution(free2, w, 3)


class TestOvercounted:
    def test_mirror_adds_nonmaximal_paths(self, mirror, mirror_hom):
        plain = hs.distribution(mirror, mirror_hom, 6)
        over = hs.distribution_overcounted(mirror, mirror_hom, 6)
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

    def test_single_component_is_unchanged(self, free2, aexp):
        plain = hs.distribution(free2, aexp, 5)
        over = hs.distribution_overcounted(free2, aexp, 5)
        assert over.overcount_multiplicity == 0
        assert over.total == plain.total
        assert over.counts == plain.counts

    def test_count_avoiding_maximal(self, mirror, mirror_decomp, mirror_hom):
        # the t-path is the unique maximal-avoiding path of each length
        for n in (1, 4, 6):
            assert oracles.count_avoiding_maximal(mirror, mirror_decomp, n) == 1
            over = hs.distribution_overcounted(mirror, mirror_hom, n)
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

    def test_real_weight_sums_equal_the_brute_force_fractions(self, free2, root_half):
        # each brute-force word's value, summed letter by letter in Fractions
        letter = {
            e.label: Fraction(root_half.edge_values[(e.source, e.target)][0])
            for e in free2.edges
        }
        words = oracles.brute_force_oracle(free2, root_half, 8)
        sweep = hs.moment_sweep(free2, root_half, range(9))
        assert [md.n for md in sweep] == list(range(9))
        for md in sweep:
            values = [sum(map(letter.get, word), Fraction(0)) for n, word, _ in words if n == md.n]
            assert md.count == len(values)
            assert md.first == (sum(values),)
            assert md.second == ((sum(v * v for v in values),),)
            assert md.mean() == (sum(values) / len(values),)

    # free:2 has 16 edges, so 48 sums per level, of 1 + (2 L + 2 log2 m) / 48
    # digits at level L (fan 4) for the largest scaled value m: 1 on aexp,
    # 2**53 on root_half, whose b is an odd multiple of 2**-53
    def test_lowered_budget_refuses_before_the_first_level(
        self, monkeypatch, free2, aexp, root_half
    ):
        walks = []

        class Walked(list):
            def __iter__(self):
                walks.append(1)
                return super().__iter__()

        transitions = engine._transitions
        monkeypatch.setattr(engine, "_transitions", lambda *args: Walked(transitions(*args)))
        monkeypatch.setattr(engine, "_WORK_BUDGET", 1000)
        assert hs.moment_sweep(free2, aexp, [6])[0].count == 972  # 330 additions
        assert hs.moment_sweep(free2, root_half, [6])[0].count == 4 * 3**5  # 966
        walks.clear()
        with pytest.raises(hs.ResourceError, match="radius 24 would take about 1752 digit"):
            hs.moment_sweep(free2, aexp, [1, 24])
        with pytest.raises(hs.ResourceError, match="radius 7 would take about 1134 digit"):
            hs.moment_sweep(free2, root_half, [7])
        # each refusal walked the edges once, for the charge, and ran no level
        assert len(walks) == 2

    def test_radius_660_returns_exact_finite_means(self, free2, root_half):
        # the float sums of radius 634 could leave the float range; the
        # integer sums have no such radius
        md = hs.moment_sweep(free2, root_half, [1, 660])[-1]
        assert md.count == 4 * 3**659
        assert md.mean() == (0,)
        # E phi^2 / n tends to sigma^2 = 3/2, and is finite as a float
        assert float(md.second[0][0] / md.count) / 660 == pytest.approx(1.5, abs=0.01)

    def test_empty_sphere_mean_rejected(self, free1):
        md = hs.moment_sweep(free1, hs.weights_word_length(free1), [0])[0]
        assert md.count == 1
        zero = hs.MomentData(n=0, dim=1, count=0, first=(0,), second=((0,),))
        with pytest.raises(hs.InvalidArgumentError):
            zero.mean()


class TestWeightedSums:
    # the float recurrence of tests/oracles.py, the independent reference
    # for ldt's log W(t, n)
    def test_log_sweep_matches_direct(self, free2, aexp):
        t = 0.8
        logs = oracles.log_weighted_sums(free2, aexp, t, [2, 4, 6])
        dists = hs.distribution_sweep(free2, aexp, [2, 4, 6])
        for log_value, dist in zip(logs, dists):
            direct = sum(
                c * math.exp(t * v) for v, c in zip(dist.support, dist.counts)
            )
            assert log_value == pytest.approx(math.log(direct), abs=1e-10)

    def test_log_sweep_at_radius_zero_and_past_the_last_sphere(self, one_edge):
        # the only word is x, so every sphere past radius 1 is empty
        w = hs.weights_from_homomorphism(one_edge, {"x": 3})
        logs = oracles.log_weighted_sums(one_edge, w, 0.5, [0, 1, 2, 5])
        assert logs == [0.0, 1.5, -math.inf, -math.inf]
        dists = hs.distribution_sweep(one_edge, w, [0, 1, 2, 5])
        assert [limits._log_partitions(d, [0.5])[0] for d in dists] == logs

    # the period-2 Z/2 * Z/3 coding with the t-exponent, and the mirror
    # coding, whose two maximal components share the spheres
    @pytest.mark.parametrize("case", ["free2", "z2z3", "mirror"])
    def test_ldt_log_partition_matches_the_recurrence(self, case, free2, aexp, mirror, mirror_hom):
        if case == "z2z3":
            coding = build_z2z3_coding()
            weights = target_letter_weights(coding, {"s": 0, "t": 1, "T": -1})
        else:
            coding, weights = {"free2": (free2, aexp), "mirror": (mirror, mirror_hom)}[case]
        ns = [1, 2, 7, 30, 99, 100]
        dists = hs.distribution_sweep(coding, weights, ns)
        ts = (0.8, -0.35, 2.0)
        expected = [oracles.log_weighted_sums(coding, weights, t, ns) for t in ts]
        for dist, logs in zip(dists, zip(*expected)):
            assert limits._log_partitions(dist, ts) == pytest.approx(logs, rel=1e-12)


class TestLatticeMasses2d:
    # mclt's cell proportions read the 2-d lattice masses off the exact
    # vector distribution at the largest n
    def test_matches_vector_histogram(
        self, free2, abel, abel_stats
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
        report = hs.mclt_check(free2, abel, abel_stats, [3])
        assert report.theory["cells"][0]["empirical"] == expected

    def test_scalar_weights_rejected(self, free2, aexp, aexp_stats):
        cell = ((None, 0.0), (None, 0.0))
        with pytest.raises(hs.PreconditionError):
            hs.mclt_check(
                free2, aexp, aexp_stats, [3], cell_grid=[cell]
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
