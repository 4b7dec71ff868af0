"""Tests for limit-law reports: plumbing, each law at desk scale, degeneracy."""

import json
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypstat as hs
import oracles
from conftest import build_z2z3_coding, target_letter_weights
from hypstat import cli
from hypstat import enumerate as engine
from hypstat.limits import (
    _default_gate_grid,
    _doubled_membership,
    _finalize,
    _gaussian_rectangle,
    _median,
    _quadrature,
    _tail_counts,
)

# [DERIVED] scipy-ndtr Kolmogorov oracle values from tests/oracles.py
KS_AEXP_N4 = 0.10185185185185186
KS_AEXP_N8 = 0.06923315393185508
# [DERIVED] Legendre-transform oracle (scipy bounded minimization)
LDT_RATE_04 = 0.08608334308874455
LLT_TARGET = 0.23032943298089034  # 1 / sqrt(6 pi), exact to double precision


@pytest.fixture(scope="module")
def drifting(free2):
    """free:2 weighted by the edge's target letter: a = b = 1, A = sqrt 2,
    B = 1/2; drift 0.9786 and sigma^2 = 0.1315."""
    letters = {"a": 1.0, "b": 1.0, "A": math.sqrt(2), "B": 0.5}
    table = {
        (e.source, e.target): letters[e.label] for e in free2.edges
    }
    return hs.weights_from_edge_table(free2, table)


def fraction_tails(dist, lo, hi):
    """(above hi, below lo) counts by comparing each exact value."""
    plus = minus = 0
    for q, c in zip(dist.support_scaled, dist.counts):
        value = dist.exact_value(q)
        if value > hi:
            plus += c
        elif value < lo:
            minus += c
    return plus, minus


def assert_degenerate_tail_document(report, grid):
    """The ldt document when no grid radius has a tail: no rate, one
    trivial check, and an empty row per radius, keys in their order."""
    assert report.passed
    assert list(report.theory) == [
        "chernoff_rate_bound", "rate_plus", "rate_minus",
        "drift", "entropy", "sigma2", "degenerate_tail",
    ]
    assert report.theory["chernoff_rate_bound"] is None
    assert report.theory["degenerate_tail"] is True
    assert list(report.tolerances.items()) == [("limsup_factor", 0.5), ("rate_rel", 0.25)]
    assert [(c["name"], c["lhs"], c["op"], c["rhs"]) for c in report.checks] == [
        ("degenerate-tail-trivial", 0.0, "<=", 0.0)
    ]
    assert [list(row.items()) for row in report.rows] == [
        [
            ("n", n), ("observed", None), ("predicted", None),
            ("residual", None), ("p", 0.0), ("tail_count", "0"),
        ]
        for n in grid
    ]


class TestReportPlumbing:
    def test_reverify_round_trip(self, free2, aexp, aexp_stats):
        report = hs.averaging_table(free2, aexp, aexp_stats, [5, 10, 15, 20])
        assert report.passed
        assert hs.reverify(report)
        doc = hs.report_to_json(report)
        again = hs.report_from_json(doc)
        assert hs.reverify(again)
        assert again.law == report.law
        assert list(again.checks) == list(report.checks)

    def test_tampered_check_detected(self, free2, aexp, aexp_stats):
        report = hs.averaging_table(free2, aexp, aexp_stats, [5, 10, 15, 20])
        doc = hs.report_to_json(report)
        doc["checks"][0]["lhs"] = doc["checks"][0]["rhs"] + 1.0
        tampered = hs.report_from_json(doc)
        assert not hs.reverify(tampered)

    def test_finalize_refuses_a_contradicted_verdict(self):
        # an explicit error, not an assert, so it also holds under python -O
        check = {"name": "x", "lhs": 2.0, "op": "<=", "rhs": 1.0, "passed": True}
        with pytest.raises(hs.InconsistencyError, match="contradicts"):
            _finalize("clt", {}, [1], [], {}, {}, [dict(check, detail="")])

    def test_rows_carry_standard_keys(self, free2, aexp, aexp_stats):
        report = hs.clt_distance(
            free2, hs.decompose_components(free2), aexp, aexp_stats, [16, 36]
        )
        for row in report.rows:
            assert {"n", "observed", "predicted", "residual"} <= set(row)

    def test_checks_record_operator(self, free2, aexp, aexp_stats):
        report = hs.averaging_table(free2, aexp, aexp_stats, [5, 10, 15, 20])
        for check in report.checks:
            assert check["op"] in ("<=", "<", ">=", ">", "==")
            assert isinstance(check["passed"], bool)


class TestAveraging:
    def test_homomorphism_mean_exactly_zero(self, free2, aexp, aexp_stats):
        report = hs.averaging_table(free2, aexp, aexp_stats, [10, 20, 30, 40])
        assert report.passed
        assert [row["observed"] for row in report.rows] == [0.0, 0.0, 0.0, 0.0]
        assert [row["residual"] for row in report.rows] == [0.0, 0.0, 0.0, 0.0]

    def test_indicator_residuals_stay_bounded(self, free2, aind, aind_stats):
        grid = list(range(25, 101, 5))
        report = hs.averaging_table(free2, aind, aind_stats, grid)
        assert report.passed
        assert report.law == "averaging"
        # n |Lambda_n - Lambda| = |mean_n - n / 4| stays of order one
        residuals = [row["residual"] for row in report.rows]
        assert max(residuals) < 1.0

    def test_empty_grid_rejected(self, free2, aexp, aexp_stats):
        with pytest.raises(hs.InvalidArgumentError):
            hs.averaging_table(free2, aexp, aexp_stats, [])

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12))
    def test_median_has_the_bits_of_statistics_median(self, residuals):
        assert _median(residuals) == statistics.median(residuals)


class TestKolmogorovDistance:
    @pytest.mark.parametrize("n, expected", [(4, KS_AEXP_N4), (8, KS_AEXP_N8)])
    def test_matches_ndtr_oracle(self, free2, aexp, n, expected):
        dist = hs.distribution(free2, aexp, n)
        assert hs.kolmogorov_distance(dist, 0.0, 1.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_shrinks_with_n(self, free2, aexp):
        d4 = hs.kolmogorov_distance(hs.distribution(free2, aexp, 4), 0.0, 1.0)
        d16 = hs.kolmogorov_distance(hs.distribution(free2, aexp, 16), 0.0, 1.0)
        assert d16 < d4


class TestClt:
    def test_small_grid_report(self, free2, free2_decomp, aexp, aexp_stats):
        report = hs.clt_distance(free2, free2_decomp, aexp, aexp_stats, [16, 36])
        assert report.law == "clt"
        assert report.passed
        # rows must agree with the direct distance computation
        for row in report.rows:
            dist = hs.distribution(free2, aexp, row["n"])
            direct = hs.kolmogorov_distance(dist, 0.0, aexp_stats.sigma2**0.5)
            assert row["observed"] == pytest.approx(direct, abs=1e-12)

    def test_degenerate_weights_refused(self, free2, free2_decomp, wordlen, wordlen_stats):
        with pytest.raises(hs.PreconditionError, match="degenera"):
            hs.clt_distance(free2, free2_decomp, wordlen, wordlen_stats, [16, 36])

    def test_vector_weights_refused(self, free2, free2_decomp, abel, abel_stats):
        with pytest.raises(hs.InvalidArgumentError):
            hs.clt_distance(free2, free2_decomp, abel, abel_stats, [16, 36])


class TestBerryEsseen:
    def test_bound_dominates_distance(self, free2, free2_decomp, aexp, aexp_stats):
        bound = hs.berry_esseen_bound(free2, free2_decomp, aexp, aexp_stats, 16, 2.0)
        dist = hs.distribution_overcounted(free2, free2_decomp, aexp, 16)
        observed = hs.kolmogorov_distance(dist, 0.0, 1.0)
        assert bound >= observed

    def test_report_structure(self, free2, free2_decomp, aexp, aexp_stats):
        report = hs.berry_esseen_report(
            free2, free2_decomp, aexp, aexp_stats, 16, 2.0
        )
        assert report.law == "berry-esseen-bound"
        assert report.passed
        names = [c["name"] for c in report.checks]
        assert "bound-dominates-distance" in names

    def test_overcounted_mirror_sound(self, mirror, mirror_decomp, mirror_hom, mirror_stats):
        report = hs.berry_esseen_report(
            mirror, mirror_decomp, mirror_hom, mirror_stats, 8, 1.5
        )
        assert report.passed

    def test_report_builds_the_law_once(
        self, free2, free2_decomp, aexp, aexp_stats, monkeypatch
    ):
        radii = []

        def counted(coding, decomposition, weights, n):
            radii.append(n)
            return hs.distribution_overcounted(coding, decomposition, weights, n)

        monkeypatch.setattr("hypstat.limits.distribution_overcounted", counted)
        report = hs.berry_esseen_report(free2, free2_decomp, aexp, aexp_stats, 16, 2.0)
        assert report.passed
        assert radii == [16]


class TestQuadrature:
    @pytest.mark.parametrize("rho", [0.3 / math.sqrt(2), -0.6])
    def test_lower_quadrant_matches_closed_form(self, rho):
        s1, s2 = 0.7, 1.9
        sigma = np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]])
        mass = _gaussian_rectangle(sigma, ((None, 0.0), (None, 0.0)))
        assert mass == pytest.approx(0.25 + math.asin(rho) / (2 * math.pi), abs=1e-13)

    def test_bounded_cell_of_independent_coordinates(self):
        # with rho = 0 the mass is a product of two ndtr differences
        cell = ((-0.4, 1.3), (0.2, None))
        mass = _gaussian_rectangle(np.diag([4.0, 0.25]), cell)
        first = oracles.norm_cdf(1.3 / 2) - oracles.norm_cdf(-0.4 / 2)
        second = 1.0 - oracles.norm_cdf(0.2 / 0.5)
        assert mass == pytest.approx(first * second, abs=1e-13)

    def test_divergent_integrand_raises(self):
        with pytest.raises(hs.NumericalError, match="1/t"):
            _quadrature(lambda t: 1.0 / t, 0.0, 1.0, "1/t")


class TestLdt:
    def test_rate_matches_legendre_oracle(
        self, free2, free2_decomp, aexp, aexp_stats
    ):
        t_grid = [k * 0.01 for k in range(0, 201)]
        report = hs.ldt_rate(
            free2, free2_decomp, aexp, aexp_stats, 0.4,
            list(range(10, 101, 10)), t_grid,
        )
        assert report.passed
        # grid optimization at step 0.01 lands within O(step^2) of the
        # continuous Legendre transform
        assert report.theory["chernoff_rate_bound"] == pytest.approx(
            LDT_RATE_04, abs=1e-4
        )
        assert report.theory["rate_plus"] == pytest.approx(
            report.theory["rate_minus"], abs=1e-12
        )

    def test_pointwise_bound_is_exact_inequality(
        self, free2, free2_decomp, aexp, aexp_stats
    ):
        report = hs.ldt_rate(
            free2, free2_decomp, aexp, aexp_stats, 0.4,
            [10, 20, 30], [k * 0.01 for k in range(0, 201)],
        )
        names = {c["name"]: c for c in report.checks}
        assert names["chernoff-pointwise-exact"]["passed"]
        assert names["chernoff-pointwise-fitted"]["passed"]

    def test_word_length_tails_are_empty(
        self, free2, free2_decomp, wordlen, wordlen_stats
    ):
        # every word of length n has weight n, so no epsilon has a tail
        report = hs.ldt_rate(
            free2, free2_decomp, wordlen, wordlen_stats, 0.4,
            [10, 20], [k * 0.01 for k in range(0, 101)],
        )
        assert_degenerate_tail_document(report, [10, 20])

    def test_unreachable_epsilon_is_a_degenerate_tail(
        self, free2, free2_decomp, aexp, aexp_stats
    ):
        # |phi| <= n on the sphere of radius n, so epsilon = 3.5 is unreachable
        report = hs.ldt_rate(
            free2, free2_decomp, aexp, aexp_stats, 3.5,
            [10, 20, 30], [k * 0.01 for k in range(0, 101)],
        )
        assert_degenerate_tail_document(report, [10, 20, 30])

    @pytest.mark.parametrize(
        ("table", "kind"),
        [
            ({"a": 0.75, "b": -0.5}, "exact-lattice"),
            ({"a": 1.0, "b": 1 / math.sqrt(2)}, "binned-real"),
        ],
    )
    def test_integer_tail_cut_equals_fraction_comparisons(self, free2, table, kind):
        weights = hs.weights_from_homomorphism(free2, table)
        for dist in hs.distribution_sweep(free2, weights, [7, 12]):
            assert dist.kind == kind
            values = [dist.exact_value(q) for q in dist.support_scaled]
            # thresholds on support points, just beside them, between two
            # points and beyond both ends
            ends = values[1:3] + values[-3:-1] + [values[0] - 1, values[-1] + 1]
            ends += [v + Fraction(1, 10**30) for v in values[1:3]]
            ends += [v - Fraction(1, 10**30) for v in values[-3:-1]]
            ends.append((values[2] + values[3]) / 2)
            for lo in ends:
                for hi in ends:
                    if lo < hi:
                        assert _tail_counts(dist, lo, hi) == fraction_tails(dist, lo, hi)

    def test_nonpositive_epsilon_rejected(
        self, free2, free2_decomp, aexp, aexp_stats
    ):
        with pytest.raises(hs.InvalidArgumentError):
            hs.ldt_rate(
                free2, free2_decomp, aexp, aexp_stats, 0.0, [10], [0.0, 0.1]
            )


class TestMclt:
    def test_identity_covariance_small_grid(
        self, free2, free2_decomp, abel, abel_stats
    ):
        report = hs.mclt_check(free2, free2_decomp, abel, abel_stats, [25, 50])
        assert report.passed
        names = {c["name"]: c for c in report.checks}
        assert names["sigma-positive-definite"]["passed"]
        assert names["covariance-agreement"]["lhs"] <= 0.05
        # the default cell is the lower quadrant; by symmetry its mass is
        # exactly centered, so the continuity-corrected proportion is 1/4
        assert names["cell-agreement-0"]["lhs"] <= 1e-9
        assert report.theory["cells"][0]["empirical"] == 0.25

    def test_rank_one_fails_positive_definite(
        self, free2, free2_decomp, rank1, rank1_stats
    ):
        report = hs.mclt_check(free2, free2_decomp, rank1, rank1_stats, [16])
        assert not report.passed
        names = {c["name"]: c for c in report.checks}
        assert not names["sigma-positive-definite"]["passed"]
        assert report.theory["degenerate_direction"] is not None

    def test_scalar_weights_refused(self, free2, free2_decomp, aexp, aexp_stats):
        with pytest.raises(hs.PreconditionError):
            hs.mclt_check(free2, free2_decomp, aexp, aexp_stats, [16])

    def test_statistics_of_another_dimension_refused(
        self, free2, free2_decomp, abel, aexp_stats
    ):
        with pytest.raises(hs.InvalidArgumentError, match="dimension 1"):
            hs.mclt_check(free2, free2_decomp, abel, aexp_stats, [16])

    def test_three_dimensional_weights_check_covariance_only(self):
        free3 = hs.build_free_group_coding(3)
        decomp = hs.decompose_components(free3)
        weights = hs.weights_from_homomorphism(
            free3, {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)}
        )
        stats = hs.limit_statistics(free3, decomp, weights)
        report = hs.mclt_check(free3, decomp, weights, stats, [10, 20])
        assert report.passed
        assert [c["name"] for c in report.checks] == [
            "covariance-agreement",
            "sigma-positive-definite",
        ]
        assert report.params["cell_grid"] == []
        assert report.theory["cells"] == []
        cell = ((None, 0.0), (None, 0.0))
        with pytest.raises(hs.InvalidArgumentError, match="2-d"):
            hs.mclt_check(free3, decomp, weights, stats, [10], cell_grid=[cell])

    def test_cells_build_no_python_int_distribution(
        self, free2, free2_decomp, abel, abel_stats, rank1, rank1_stats, monkeypatch
    ):
        cells = [((None, 0.0), (None, 0.0)), ((-3.0, 3.0), (-3.0, 3.0))]
        # the cell proportions from the exact distribution, before patching
        dist = hs.distribution(free2, abel, 200)
        expected = []
        for cell in cells:
            inside = 0
            for (x, y), c in zip(dist.support_scaled, dist.counts):
                w1, w2 = (
                    _doubled_membership(q, dist.scale, 200, drift, *ends)
                    for q, drift, ends in zip((x, y), abel_stats.drift, cell)
                )
                inside += w1 * w2 * c
            expected.append(inside / (4 * dist.total))
        rank1_report = hs.mclt_check(free2, free2_decomp, rank1, rank1_stats, [100])

        def refuse(*_args):
            raise AssertionError("mclt_check built a Python-int distribution")

        monkeypatch.setattr(engine, "_slot_counts", refuse)
        report = hs.mclt_check(
            free2, free2_decomp, abel, abel_stats, [200], cell_grid=cells
        )
        assert [c["empirical"] for c in report.theory["cells"]] == expected
        assert expected[0] == 0.25
        assert report.passed
        again = hs.mclt_check(free2, free2_decomp, rank1, rank1_stats, [100])
        assert hs.report_to_json(again) == hs.report_to_json(rank1_report)

    def test_explicit_cell(self, free2, free2_decomp, abel, abel_stats):
        cell = ((-3.0, 3.0), (-3.0, 3.0))
        report = hs.mclt_check(
            free2, free2_decomp, abel, abel_stats, [36], cell_grid=[cell]
        )
        names = {c["name"]: c for c in report.checks}
        assert "cell-agreement-0" in names
        assert names["cell-agreement-0"]["passed"]


class TestLlt:
    def test_default_gate_grid_is_the_cli_default(self):
        parser = cli._build_parser()
        pair = ["--coding", "free:2", "--weights", "wordlen"]
        gate = parser.parse_args(["llt", *pair, "--interval=0,1"]).gate_grid
        scan = parser.parse_args(["scan-lattice", *pair]).tgrid
        grid = _default_gate_grid()
        assert grid == cli._parse_float_grid(gate) == cli._parse_float_grid(scan)
        assert len(grid) == 399

    def test_row_matches_manual_binned_mass(
        self, free2, free2_decomp, proj, proj_stats
    ):
        report = hs.llt_check(
            free2, free2_decomp, proj, proj_stats, -0.5, 0.5, [100]
        )
        (row,) = report.rows
        width = report.params["bin_width"]
        assert width == pytest.approx(0.01)  # (b - a) / 100
        dist = hs.distribution(free2, proj, 100, bin_width=width)
        fuzz = 1e-12
        mass = sum(
            c
            for center, c in zip(dist.support, dist.counts)
            if -0.5 - fuzz <= center <= 0.5 + fuzz
        )
        assert row["observed"] == pytest.approx(
            10.0 * mass / dist.total, rel=1e-12
        )
        assert row["predicted"] == pytest.approx(LLT_TARGET, abs=1e-7)

    def test_drifting_weight_counts_the_recentred_interval(
        self, free2, free2_decomp, drifting
    ):
        stats = hs.limit_statistics(free2, free2_decomp, drifting)
        drift = stats.drift[0]
        assert drift == pytest.approx(0.97855339, abs=1e-8)
        report = hs.llt_check(
            free2, free2_decomp, drifting, stats, -1.0, 1.0, [100, 200, 300]
        )
        # [a, b] is moved to [a + n drift, b + n drift], where the mass is
        assert report.passed
        assert report.theory["drift"] == drift
        width = report.params["bin_width"]
        for row in report.rows:
            n = row["n"]
            dist = hs.distribution(free2, drifting, n, bin_width=width)
            lo, hi = -1.0 + n * drift, 1.0 + n * drift
            fuzz = 1e-12 * max(1.0, abs(lo), abs(hi))
            count = sum(
                c
                for value, c in zip(dist.support, dist.counts)
                if lo - fuzz <= value <= hi + fuzz
            )
            assert int(row["count"]) == count > 0
        deviations = [abs(r["observed"] / r["predicted"] - 1.0) for r in report.rows]
        assert deviations == pytest.approx([0.017, 0.011, 0.013], abs=1e-3)

    def test_gate_refuses_lattice_weights(
        self, free2, free2_decomp, aexp, aexp_stats
    ):
        with pytest.raises(hs.PreconditionError, match="lattice"):
            hs.llt_check(free2, free2_decomp, aexp, aexp_stats, -0.5, 0.5, [50])

    def test_gate_records_minimum(self, free2, free2_decomp, proj, proj_stats):
        report = hs.llt_check(
            free2, free2_decomp, proj, proj_stats, -0.5, 0.5, [60],
            gate_t_grid=[0.5, 1.0, 1.5],
        )
        gate = report.params["gate"]
        assert gate["min_gap"] > 0.0
        assert gate["argmin_t"] in (0.5, 1.0, 1.5)

    def test_gate_skips_nonpositive_frequencies(self, capsys):
        # M(i*0) = M(0), so the gap at t = 0 is zero for every weight and
        # says nothing about lattice type
        argv = [
            "llt", "--coding", "free:2",
            "--weights", "hom:a=1,b=0.7071067811865476",
            "--interval=-0.5,0.5", "--ngrid", "100:300:100",
        ]
        documents = []
        for extra in ([], ["--gate-grid", "0:20:0.05"]):
            assert cli.main(argv + extra) == 0
            documents.append(json.loads(capsys.readouterr().out))
        default, from_zero = documents
        assert from_zero["rows"] == default["rows"]
        assert from_zero["params"]["gate"]["argmin_t"] > 0.0

    @pytest.mark.parametrize("gate", [[], [0.0], [-1.0, 0.0]])
    def test_gate_without_positive_frequency_rejected(
        self, free2, free2_decomp, proj, proj_stats, gate
    ):
        with pytest.raises(hs.InvalidArgumentError, match="positive"):
            hs.llt_check(
                free2, free2_decomp, proj, proj_stats, -0.5, 0.5, [60],
                gate_t_grid=gate,
            )

    @pytest.mark.xfail(
        strict=True,
        reason="the gate scans a grid and misses the closing frequency "
        "t* = 2 pi / (1 + sqrt 2) (ROADMAP item 3, Defect A)",
    )
    def test_gate_refuses_an_irrational_lattice_weight(self):
        # Z/2*Z/3 weighted by the target letter: s = 1/4, t = 1, T = -sqrt 2.
        # Cycles are made of the 2-cycles st and sT, of weights 5/4 and
        # 1/4 - sqrt 2; their difference 1 + sqrt 2 closes the gap at
        # t* = 2 pi / (1 + sqrt 2) = 2.6026, between the grid's 2.60 (gap
        # 3.4e-6) and 2.65
        coding = build_z2z3_coding()
        decomposition = hs.decompose_components(coding)
        weights = target_letter_weights(coding, {"s": 0.25, "t": 1.0, "T": -math.sqrt(2)})
        stats = hs.limit_statistics(coding, decomposition, weights)
        with pytest.raises(hs.PreconditionError):
            hs.llt_check(coding, decomposition, weights, stats, -1.0, 1.0, [20])

    def test_zero_length_interval(self, free2, free2_decomp, proj, proj_stats):
        report = hs.llt_check(
            free2, free2_decomp, proj, proj_stats, 0.3, 0.3, [60]
        )
        assert report.passed
        assert [c["name"] for c in report.checks] == ["llt-zero-target"]

    def test_reversed_interval_rejected(
        self, free2, free2_decomp, proj, proj_stats
    ):
        with pytest.raises(hs.InvalidArgumentError):
            hs.llt_check(free2, free2_decomp, proj, proj_stats, 0.5, -0.5, [60])

    def test_oversized_bin_rejected(self, free2, free2_decomp, proj, proj_stats):
        with pytest.raises(hs.InvalidArgumentError):
            hs.llt_check(
                free2, free2_decomp, proj, proj_stats, -0.5, 0.5, [60],
                bin_width=0.5,
            )


class TestDegeneracy:
    def test_word_length_degenerate(
        self, free2, free2_decomp, wordlen, wordlen_stats
    ):
        report = hs.degeneracy_check(
            free2, free2_decomp, wordlen, wordlen_stats, 16
        )
        assert report.passed
        assert report.theory["degenerate"] is True
        assert all(row["observed"] == 0.0 for row in report.rows)

    def test_a_exponent_nondegenerate(
        self, free2, free2_decomp, aexp, aexp_stats
    ):
        report = hs.degeneracy_check(free2, free2_decomp, aexp, aexp_stats, 16)
        assert report.passed
        assert report.theory["degenerate"] is False

    def test_real_nonlattice_nondegenerate(
        self, free2, free2_decomp, proj, proj_stats
    ):
        report = hs.degeneracy_check(free2, free2_decomp, proj, proj_stats, 8)
        assert report.passed
        assert report.theory["degenerate"] is False

    def test_constant_real_weights_degenerate(self, free2, free2_decomp):
        table = {
            (e.source, e.target): math.sqrt(2)
            for e in free2.edges
        }
        weights = hs.weights_from_edge_table(free2, table)
        stats = hs.limit_statistics(free2, free2_decomp, weights)
        report = hs.degeneracy_check(free2, free2_decomp, weights, stats, 16)
        assert report.passed
        assert report.theory["degenerate"] is True

    def test_disagreeing_verdicts_raise(self, free2, free2_decomp):
        # variance 1e-10 clamps to zero spectrally, yet the sphere range
        # genuinely grows: the two verdicts disagree and must say so loudly
        weights = hs.weights_from_homomorphism(free2, {"a": 1e-5, "b": 0})
        stats = hs.limit_statistics(free2, free2_decomp, weights)
        assert stats.degenerate
        with pytest.raises(hs.InconsistencyError, match="disagree"):
            hs.degeneracy_check(free2, free2_decomp, weights, stats, 16)
