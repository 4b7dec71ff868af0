"""Tests for transfer matrices, pressure, drift, variance, and gap scans."""

import math

import numpy as np
import pytest

import hypstat as hs
from hypstat._power import perron_batch
from hypstat.spectral import _complex_radii, _component_arrays

# [DERIVED] eigenvalue-solver oracle values from tests/oracles.py
PRESSURE_AEXP_03 = 1.1420500092669588
PRESSURE_AEXP_05 = 1.2129108355248301
PRESSURE_AIND_05 = 1.2629756348018204
COMPLEX_RADIUS_AEXP = 2.381049726375522  # at s = 0.4 + 1.3j
AIND_SIGMA2 = 0.28125  # Richardson-extrapolated oracle: 0.28125000022842056


def transfer_matrices(coding, decomposition, weights, component, grid):
    """``M(s)`` of a component at each row ``s`` of ``grid``, shape ``(G, d, d)``."""
    arrays = _component_arrays(coding, decomposition, weights, component)
    return arrays.matrices(np.array(grid))


class TestTransferMatrix:
    def test_adjacency_radius(self, free2, free2_decomp, aexp):
        comp = free2_decomp.maximal_indices[0]
        stack = transfer_matrices(free2, free2_decomp, aexp, comp, [[0.0]])
        assert perron_batch(stack)[0][0] == pytest.approx(3.0, abs=1e-9)

    def test_mask_excludes_other_maximal(self, mirror, mirror_decomp, mirror_hom):
        first = mirror_decomp.maximal_indices[0]
        arrays = _component_arrays(mirror, mirror_decomp, mirror_hom, first)
        vertices = arrays.vertices
        excluded = set(mirror_decomp.components[mirror_decomp.maximal_indices[1]].vertices)
        assert excluded.isdisjoint(vertices)
        assert {"t1", "t2"} <= set(vertices)

    def test_pressure_at_zero_is_entropy(self, free2, free2_decomp, aexp):
        comp = free2_decomp.maximal_indices[0]
        report = hs.pressure(free2, free2_decomp, aexp, comp, 0.0)
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
        report = hs.pressure(free2, free2_decomp, aexp, comp, s)
        assert report.pressure == pytest.approx(expected, abs=1e-9)

    def test_pressure_grid_equals_pointwise_pressure(self, free2, free2_decomp, aind):
        comp = free2_decomp.maximal_indices[0]
        grid = [-2.0, -0.3, 0.0, 0.5, 1.7]
        batched = hs.spectral.pressure_grid(free2, free2_decomp, aind, comp, grid)
        pointwise = [hs.pressure(free2, free2_decomp, aind, comp, s).pressure for s in grid]
        assert batched == pointwise

    def test_pressure_indicator_weights(self, free2, free2_decomp, aind):
        comp = free2_decomp.maximal_indices[0]
        report = hs.pressure(free2, free2_decomp, aind, comp, 0.5)
        assert report.pressure == pytest.approx(PRESSURE_AIND_05, abs=1e-9)

    def test_complex_radius_matches_oracle(self, free2, free2_decomp, aexp):
        comp = free2_decomp.maximal_indices[0]
        stack = transfer_matrices(free2, free2_decomp, aexp, comp, [[0.4 + 1.3j]])
        (radius,) = _complex_radii(stack, 1)
        assert radius == pytest.approx(COMPLEX_RADIUS_AEXP, abs=1e-6)

    def test_lattice_frequency_restores_radius(self, free2, free2_decomp, aexp):
        # integer weights at t = 2 pi: entries all return to their s = 0
        # values, so the twisted radius equals the growth rate
        comp = free2_decomp.maximal_indices[0]
        stack = transfer_matrices(free2, free2_decomp, aexp, comp, [[2j * math.pi]])
        assert _complex_radii(stack, 1)[0] == pytest.approx(3.0, abs=1e-9)


class TestSpectralRadiusOnArrays:
    def test_periodic_matrix(self):
        swap = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert perron_batch(swap[None])[0][0] == pytest.approx(2.0, abs=1e-9)

    def test_rank_one_matrix(self):
        ones = np.ones((3, 3))
        assert perron_batch(ones[None])[0][0] == pytest.approx(3.0, abs=1e-9)


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


class TestComponentConsistency:
    def test_mirror_components_agree(self, mirror, mirror_decomp, mirror_hom):
        report = hs.component_consistency(mirror, mirror_decomp, mirror_hom)
        assert report.consistent
        assert report.indices == mirror_decomp.maximal_indices
        assert report.max_drift_spread <= 1e-8
        assert report.max_variance_spread <= 1e-8

    def test_single_component_vacuous(self, free2, free2_decomp, aexp):
        report = hs.component_consistency(free2, free2_decomp, aexp)
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
        decomp = hs.decompose_components(mirror)
        report = hs.component_consistency(mirror, decomp, weights)
        assert not report.consistent
        assert report.max_drift_spread == pytest.approx(0.25, abs=1e-6)
        assert "synthetic" in report.diagnostic or "asymmetry" in report.diagnostic


class TestNonlatticeGap:
    def test_projection_gap_positive(self, free2, free2_decomp, proj):
        comp = free2_decomp.maximal_indices[0]
        ts = [0.1 * k for k in range(1, 31)]
        points = hs.nonlattice_gap(free2, free2_decomp, proj, comp, ts)
        assert len(points) == len(ts)
        assert all(p.gap > 0.0 for p in points)
        assert all(p.radius < 3.0 for p in points)

    def test_batched_gap_matches_per_point_loop(self, free2, free2_decomp):
        weights = hs.weights_from_homomorphism(free2, {"a": 1, "b": 1})
        comp = free2_decomp.maximal_indices[0]
        ts = [0.1 + 0.05 * k for k in range(59)]
        points = hs.nonlattice_gap(free2, free2_decomp, weights, comp, ts)
        zero = transfer_matrices(free2, free2_decomp, weights, comp, [[0.0]])
        radius0 = perron_batch(zero)[0][0]
        for t, point in zip(ts, points):
            stack = transfer_matrices(free2, free2_decomp, weights, comp, [[1j * t]])
            (radius,) = _complex_radii(stack, 1)
            assert point.t == t
            assert point.radius == pytest.approx(radius, rel=0.0, abs=1e-12)
            assert point.gap == pytest.approx(radius0 - radius, rel=0.0, abs=1e-12)

    def test_integer_weights_vanish_at_two_pi(self, free2, free2_decomp, aexp):
        comp = free2_decomp.maximal_indices[0]
        (point,) = hs.nonlattice_gap(
            free2, free2_decomp, aexp, comp, [2.0 * math.pi]
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
            hs.nonlattice_gap(free2, free2_decomp, proj, comp, ts)

    def test_pressure_grid_refused_before_allocation(self, free2, free2_decomp, aind):
        comp = free2_decomp.maximal_indices[0]
        grid = np.zeros(self.POINTS)
        with pytest.raises(hs.ResourceError, match="byte budget"):
            hs.spectral.pressure_grid(free2, free2_decomp, aind, comp, grid)
