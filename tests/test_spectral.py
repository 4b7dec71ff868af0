"""Tests for transfer matrices, pressure, drift, variance, and gap scans."""

import cmath
import inspect
import math
import re
import sys

import numpy as np
import pytest

import hypstat as hs
from hypstat import cli
from hypstat._power import perron_point
from hypstat.spectral import _complex_radii, _component
from conftest import build_z2z3_coding, target_letter_weights

# [DERIVED] eigenvalue-solver oracle values from tests/oracles.py
PRESSURE_AEXP_03 = 1.1420500092669588
PRESSURE_AEXP_05 = 1.2129108355248301
PRESSURE_AIND_05 = 1.2629756348018204
COMPLEX_RADIUS_AEXP = 2.381049726375522  # at s = 0.4 + 1.3j
AIND_SIGMA2 = 0.28125  # Richardson-extrapolated oracle: 0.28125000022842056


def transfer_matrices(coding, weights, component, grid):
    """``M(s)`` of a scalar weight's component at each complex ``s`` of
    ``grid``, shape ``(G, d, d)``, built entry by entry from its edges."""
    record = _component(coding, weights, component)
    size = len(record.vertices)
    stack = np.zeros((len(grid), size, size), dtype=complex)
    for g, s in enumerate(grid):
        for u, v, (w,) in record.edges:
            stack[g, u, v] = cmath.exp(s * w)
    return stack


class TestTransferMatrix:
    def test_adjacency_radius(self, free2, free2_decomp, aexp):
        comp = free2_decomp.maximal_indices[0]
        record = _component(free2, aexp, comp)
        assert perron_point(record.point((0.0,)))[0] == pytest.approx(3.0, abs=1e-9)

    def test_mask_excludes_other_maximal(self, mirror, mirror_decomp, mirror_hom):
        first = mirror_decomp.maximal_indices[0]
        record = _component(mirror, mirror_hom, first)
        vertices = record.vertices
        excluded = set(mirror_decomp.components[mirror_decomp.maximal_indices[1]].vertices)
        assert excluded.isdisjoint(vertices)
        assert {"t1", "t2"} <= set(vertices)

    def test_pressure_at_zero_is_entropy(self, free2, free2_decomp, aexp):
        comp = free2_decomp.maximal_indices[0]
        report = hs.pressure(free2, aexp, comp, 0.0)
        assert report.pressure == pytest.approx(math.log(3.0), abs=1e-9)
        assert report.value == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize(
        "s, expected",
        [(0.3, PRESSURE_AEXP_03), (0.5, PRESSURE_AEXP_05)],
    )
    def test_pressure_matches_eigenvalue_oracle(
        self, free2, free2_decomp, aexp, s, expected
    ):
        comp = free2_decomp.maximal_indices[0]
        report = hs.pressure(free2, aexp, comp, s)
        assert report.pressure == pytest.approx(expected, abs=1e-9)

    # a finite s can overflow exp in an entry; a non-finite s is refused
    # before M(s) is built, so exp is not blamed for it
    @pytest.mark.parametrize(
        "s, error, message",
        [
            (1e308, hs.NumericalError, "entry at s=1e+308; the weights times s"),
            (math.inf, hs.InvalidArgumentError, "parameter s must be finite, got s=inf"),
            (math.nan, hs.InvalidArgumentError, "parameter s must be finite, got s=nan"),
        ],
        ids=["1e+308", "inf", "nan"],
    )
    def test_non_finite_entry_names_s(self, free2, free2_decomp, aexp, s, error, message):
        comp = free2_decomp.maximal_indices[0]
        with pytest.raises(error, match=re.escape(message)):
            hs.pressure(free2, aexp, comp, s)

    @pytest.mark.parametrize(
        "s, message",
        [
            ("0.5", "parameter s must be a number or a sequence"),
            ((0.5, 0.5), "parameter s has 2 coordinates, expected 1"),
            (0.5j, "pressure is defined for real parameters only"),
        ],
        ids=["string", "wrong-length", "complex"],
    )
    def test_parameter_refused(self, free2, free2_decomp, aexp, s, message):
        comp = free2_decomp.maximal_indices[0]
        with pytest.raises(hs.InvalidArgumentError, match=re.escape(message)):
            hs.pressure(free2, aexp, comp, s)

    def test_tiny_entries_keep_the_pressure(self):
        # M(-40) = e^-40 B: an absolute residual target would accept the
        # uniform start's Rayleigh quotient, about 1.7e-3 off in log
        coding = build_z2z3_coding()
        decomposition = hs.decompose_components(coding)
        weights = hs.weights_word_length(coding)
        comp = decomposition.maximal_indices[0]
        at_zero = hs.pressure(coding, weights, comp, 0.0).pressure
        tilted = hs.pressure(coding, weights, comp, -40.0).pressure
        assert tilted == pytest.approx(at_zero - 40.0, rel=0.0, abs=1e-12)

    def test_pressure_indicator_weights(self, free2, free2_decomp, aind):
        comp = free2_decomp.maximal_indices[0]
        report = hs.pressure(free2, aind, comp, 0.5)
        assert report.pressure == pytest.approx(PRESSURE_AIND_05, abs=1e-9)

    def test_complex_radius_matches_oracle(self, free2, free2_decomp, aexp):
        comp = free2_decomp.maximal_indices[0]
        stack = transfer_matrices(free2, aexp, comp, [0.4 + 1.3j])
        (radius,) = _complex_radii(stack, 1)
        assert radius == pytest.approx(COMPLEX_RADIUS_AEXP, abs=1e-6)

    def test_lattice_frequency_restores_radius(self, free2, free2_decomp, aexp):
        # integer weights at t = 2 pi: entries all return to their s = 0
        # values, so the twisted radius equals the growth rate
        comp = free2_decomp.maximal_indices[0]
        stack = transfer_matrices(free2, aexp, comp, [2j * math.pi])
        assert _complex_radii(stack, 1)[0] == pytest.approx(3.0, abs=1e-9)


class TestSpectralRadiusOnArrays:
    def test_periodic_matrix(self):
        swap = [[0.0, 2.0], [2.0, 0.0]]
        assert perron_point(swap)[0] == pytest.approx(2.0, abs=1e-9)

    def test_rank_one_matrix(self):
        ones = [[1.0] * 3] * 3
        assert perron_point(ones)[0] == pytest.approx(3.0, abs=1e-9)


class TestDriftAndVariance:
    def test_a_exponent(self, aexp_stats):
        assert aexp_stats.drift[0] == pytest.approx(0.0, abs=1e-9)
        assert aexp_stats.sigma2 == pytest.approx(1.0, abs=1e-6)
        assert not aexp_stats.degenerate
        assert aexp_stats.lam == pytest.approx(3.0, abs=1e-9)
        assert aexp_stats.covariance == ((aexp_stats.sigma2,),)

    def test_a_indicator(self, aind_stats):
        assert aind_stats.drift[0] == pytest.approx(0.25, abs=1e-7)
        assert aind_stats.sigma2 == pytest.approx(AIND_SIGMA2, abs=1e-6)
        assert not aind_stats.degenerate

    def test_word_length_degenerate(self, wordlen_stats):
        assert wordlen_stats.drift[0] == pytest.approx(1.0, abs=1e-9)
        assert wordlen_stats.sigma2 == 0.0
        assert wordlen_stats.degenerate

    def test_projection_variance(self, proj_stats):
        assert proj_stats.drift[0] == pytest.approx(0.0, abs=1e-7)
        assert proj_stats.sigma2 == pytest.approx(3.0, abs=1e-6)

    def test_mirror_component_matches_free_group(self, mirror_stats, aexp_stats):
        assert mirror_stats.drift[0] == pytest.approx(aexp_stats.drift[0], abs=1e-9)
        assert mirror_stats.sigma2 == pytest.approx(aexp_stats.sigma2, abs=1e-9)

    @pytest.mark.parametrize("case", ["free2-k1", "free2-k2", "z2z3"])
    def test_statistics_take_the_pressure_at_zero(self, case):
        if case == "z2z3":
            coding = build_z2z3_coding()
            weights = target_letter_weights(coding, {"s": 0, "t": 1, "T": -1})
        else:
            coding = hs.build_free_group_coding(2)
            one, two = ((1, 0), (0, 1)) if case == "free2-k2" else (1, 0)
            weights = hs.weights_from_homomorphism(coding, {"a": one, "b": two})
        stats = hs.limit_statistics(coding, weights)
        zero = hs.pressure(
            coding, weights, stats.component, (0.0,) * weights.dim
        )
        assert stats.lam == zero.value
        assert stats.entropy == zero.pressure


class TestCovarianceMatrix:
    def test_abelianization_identity(self, abel_stats):
        sigma = np.array(abel_stats.covariance)
        assert sigma == pytest.approx(np.eye(2), abs=1e-6)
        assert not abel_stats.degenerate
        with pytest.raises(hs.InvalidArgumentError, match="scalar weights"):
            abel_stats.sigma2

    def test_abelianization_drift_zero(self, abel_stats):
        assert abel_stats.drift == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_rank_one_fails_positive_definite(self, rank1_stats):
        assert rank1_stats.degenerate
        sigma = np.array(rank1_stats.covariance)
        # all four entries are second derivatives of the same scalar curve,
        # evaluated with matched effective steps, so they coincide
        assert float(np.ptp(sigma)) <= 1e-12
        assert sigma[0, 0] == pytest.approx(1.0, abs=1e-6)


class TestStructureFromTheCoding:
    # each function reads the maximal components off its coding, so no
    # decomposition of another coding can be passed beside it
    def test_no_public_callable_takes_a_decomposition(self):
        takers = [
            name
            for name in hs.__all__
            if callable(obj := getattr(hs, name))
            and not (isinstance(obj, type) and issubclass(obj, BaseException))
            and "decomposition" in inspect.signature(obj).parameters
        ]
        assert takers == []

    @pytest.mark.parametrize(
        "name",
        [
            "pressure", "limit_statistics", "component_consistency", "nonlattice_gap",
            "distribution_overcounted", "clt_distance", "berry_esseen_report",
            "ldt_rate", "mclt_check", "llt_check", "degeneracy_check",
        ],
    )
    def test_coding_then_weights(self, name):
        assert list(inspect.signature(getattr(hs, name)).parameters)[:2] == [
            "coding", "weights",
        ]

    def test_pressure_reports_its_own_coding(self, free2):
        weights = hs.weights_from_homomorphism(free2, {"a": 1, "b": 0})
        assert hs.pressure(free2, weights, 0, 0.5).vertices == ("a", "A", "b", "B")

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of ``decompose_components`` and ``perron_point`` calls,
        wherever a module binds them."""
        calls = {"decompose_components": 0, "perron_point": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        decompose = counted("decompose_components", hs.coding.decompose_components)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("hypstat") and hasattr(module, "decompose_components"):
                monkeypatch.setattr(module, "decompose_components", decompose)
        monkeypatch.setattr(hs.spectral, "perron_point", counted("perron_point", perron_point))
        return calls

    # one decomposition per call, not one per solve, and one solve per
    # stencil point: two for the two-sided point s = 0 and one for each of
    # the 6 k + 8 k (k - 1) / 2 others
    @pytest.mark.parametrize(
        "values, solves",
        [({"a": 1, "b": 0}, 6 + 2), ({"a": (1, 0), "b": (0, 1)}, 20 + 2)],
        ids=["k=1", "k=2"],
    )
    def test_statistics_decompose_once(self, free2, calls, values, solves):
        hs.limit_statistics(free2, hs.weights_from_homomorphism(free2, values))
        assert calls == {"decompose_components": 1, "perron_point": solves}

    def test_ldt_decomposes_once(self, free2, aexp, aexp_stats, calls):
        hs.ldt_rate(free2, aexp, aexp_stats, 0.4, [10], [k * 0.01 for k in range(1, 201)])
        assert calls["decompose_components"] == 1

    # with no --component the library call picks the first maximal one
    def test_pressure_command_decomposes_once(self, calls, capsys):
        argv = ["pressure", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--s", "0.5"]
        assert cli.main(argv) == 0
        assert calls["decompose_components"] == 1


class TestComponentConsistency:
    def test_mirror_components_agree(self, mirror, mirror_decomp, mirror_hom):
        report = hs.component_consistency(mirror, mirror_hom)
        assert report.consistent
        assert report.indices == mirror_decomp.maximal_indices
        assert report.max_drift_spread <= 1e-8
        assert report.max_variance_spread <= 1e-8

    def test_single_component_vacuous(self, free2, aexp):
        report = hs.component_consistency(free2, aexp)
        assert report.consistent
        assert len(report.indices) == 1

    def test_asymmetric_weights_flagged(self, mirror):
        # indicator of copy-1 "a"-edges only: the two maximal components
        # carry different drifts, which the report must flag, not hide
        table = {
            (e.source, e.target): 1 if e.label == "a" and e.target.endswith("1") else 0
            for e in mirror.edges
        }
        weights = hs.weights_from_edge_table(mirror, table)
        report = hs.component_consistency(mirror, weights)
        assert not report.consistent
        assert report.max_drift_spread == pytest.approx(0.25, abs=1e-6)
        assert "synthetic" in report.diagnostic or "asymmetry" in report.diagnostic


class TestNonlatticeGap:
    def test_projection_gap_positive(self, free2, free2_decomp, proj):
        comp = free2_decomp.maximal_indices[0]
        ts = [0.1 * k for k in range(1, 31)]
        points = hs.nonlattice_gap(free2, proj, comp, ts)
        assert len(points) == len(ts)
        assert all(p.gap > 0.0 for p in points)
        assert all(p.radius < 3.0 for p in points)

    def test_batched_gap_matches_per_point_loop(self, free2, free2_decomp):
        weights = hs.weights_from_homomorphism(free2, {"a": 1, "b": 1})
        comp = free2_decomp.maximal_indices[0]
        ts = [0.1 + 0.05 * k for k in range(59)]
        points = hs.nonlattice_gap(free2, weights, comp, ts)
        record = _component(free2, weights, comp)
        radius0 = perron_point(record.point((0.0,)))[0]
        for t, point in zip(ts, points):
            stack = record.matrices(np.array([t]))
            (radius,) = _complex_radii(stack, 1)
            assert point.t == t
            assert point.radius == pytest.approx(radius, rel=0.0, abs=1e-12)
            assert point.gap == pytest.approx(radius0 - radius, rel=0.0, abs=1e-12)

    def test_scan_matches_the_entrywise_matrices(self, free2, free2_decomp, aind):
        comp = free2_decomp.maximal_indices[0]
        ts = [0.3, -1.7, 2.0 * math.pi]
        stack = _component(free2, aind, comp).matrices(np.array(ts))
        expected = transfer_matrices(free2, aind, comp, [1j * t for t in ts])
        np.testing.assert_allclose(stack, expected, rtol=0.0, atol=1e-15)

    def test_infinite_frequency_names_t(self, free2, free2_decomp, proj):
        # i * inf is NaN in its real part; numpy must not warn before the error
        comp = free2_decomp.maximal_indices[0]
        with pytest.raises(hs.NumericalError, match=re.escape("entry at t=inf;")):
            hs.nonlattice_gap(free2, proj, comp, [1.0, math.inf])

    def test_integer_weights_vanish_at_two_pi(self, free2, free2_decomp, aexp):
        comp = free2_decomp.maximal_indices[0]
        (point,) = hs.nonlattice_gap(
            free2, aexp, comp, [2.0 * math.pi]
        )
        assert abs(point.gap) <= 1e-9
        assert point.radius == pytest.approx(3.0, abs=1e-9)


class TestStackBudget:
    # free:2 has d = 4: two million points need 3 * 16 * 2e6 * 16 bytes
    # (the stack, its build temporaries or eig's input copy, and eig's
    # eigenvectors), about 1.5 GB
    POINTS = 2_000_000

    def test_gap_scan_refused_before_allocation(self, free2, free2_decomp, proj):
        comp = free2_decomp.maximal_indices[0]
        ts = np.linspace(0.1, 20.0, self.POINTS)
        with pytest.raises(hs.ResourceError, match="byte budget"):
            hs.nonlattice_gap(free2, proj, comp, ts)
