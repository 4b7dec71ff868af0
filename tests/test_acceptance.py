"""Acceptance suite: one test per shipped guarantee, at contract tolerances.

Each test recomputes the quantities behind one guarantee of the package,
records a single PASS/FAIL summary line (printed after the run), and then
asserts the individual inequalities so a failure stays diagnosable.  The
guarantees are numbered 1-12 and cover growth, averaging, variance, the
central limit theorem, Berry-Esseen soundness, large deviations, the
multidimensional CLT, the local limit theorem, the lattice gate,
degeneracy verdicts, component consistency, and brute-force equivalence.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import hypstat as hs
import oracles
from conftest import ACCEPTANCE_RESULTS, record_criterion

TOL_RATE = 1e-9
LOG_SLACK = 1e-9
LLT_TARGET = 1.0 / math.sqrt(6.0 * math.pi)
T_GRID = [i * 0.01 for i in range(1, 201)]


def criterion(number):
    """Record a FAIL line if the test body raises before recording."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                if number not in ACCEPTANCE_RESULTS:
                    record_criterion(
                        number, False, f"raised {type(exc).__name__}: {exc}"
                    )
                raise

        return wrapper

    return deco


@criterion(1)
def test_criterion_01_sphere_growth(free2, wordlen):
    """#W_n = 4*3^(n-1) for n <= 12, lambda = 3 and h = log 3 to 1e-9."""
    expected = [4 * 3 ** (n - 1) for n in range(1, 13)]
    dp = hs.sphere_counts(free2, 12)[1:]
    lengths = Counter(l for l, _, _ in oracles.brute_force_oracle(free2, wordlen, 12))
    brute = [lengths[n] for n in range(1, 13)]
    report = hs.growth_rate(free2, 12)
    lam_err = abs(report.lam - 3.0)
    h_err = abs(report.entropy - math.log(3.0))
    ok = dp == expected and brute == expected and lam_err <= TOL_RATE and h_err <= TOL_RATE
    record_criterion(
        1,
        ok,
        "#W_n == 4*3^(n-1) for n <= 12 by DP and brute force; "
        f"|lam - 3| = {lam_err:.1e}, |h - log 3| = {h_err:.1e}",
    )
    assert dp == expected
    assert brute == expected
    assert lam_err <= TOL_RATE
    assert h_err <= TOL_RATE


@criterion(2)
def test_criterion_02_averaging(free2, aexp, aind, aind_stats):
    """Exact zero sphere means for the exponent; bounded residuals for the indicator."""
    moments = hs.moment_sweep(free2, aexp, range(1, 201))
    zero_means = all(md.first == (0,) for md in moments)
    report = hs.averaging_table(free2, aind, aind_stats, range(25, 201))
    residuals = [row["residual"] for row in report.rows]
    quarter = max(1, len(residuals) // 4)
    first_q = max(abs(r) for r in residuals[:quarter])
    last_q = max(abs(r) for r in residuals[-quarter:])
    trend = last_q <= 3.0 * first_q + 1e-12
    ok = zero_means and report.passed and trend
    record_criterion(
        2,
        ok,
        "exponent sphere mean exactly 0 for all n <= 200; indicator "
        f"n|mean_n - drift| quartile maxima {first_q:.3g} -> {last_q:.3g}",
    )
    assert zero_means
    assert report.passed
    assert trend


@criterion(3)
def test_criterion_03_variance(free2, free2_decomp, aexp, aexp_stats):
    """sigma^2 = 1 to 1e-6; empirical Var/n in [0.95, 1.05]; drift routes agree."""
    sigma_err = abs(aexp_stats.sigma2 - 1.0)
    md = hs.moment_sweep(free2, aexp, [200])[0]
    var_over_n = float(Fraction(md.second[0][0], md.count)) / 200.0
    comp = free2_decomp.maximal_indices[0]

    def pressure_at(s):
        return hs.pressure(free2, free2_decomp, aexp, comp, s).pressure

    h1, h2 = 1e-3, 5e-4
    d1 = (pressure_at(h1) - pressure_at(-h1)) / (2.0 * h1)
    d2 = (pressure_at(h2) - pressure_at(-h2)) / (2.0 * h2)
    fd_drift = (4.0 * d2 - d1) / 3.0
    drift_err = abs(aexp_stats.drift[0] - fd_drift)
    ok = sigma_err <= 1e-6 and 0.95 <= var_over_n <= 1.05 and drift_err <= 1e-7
    record_criterion(
        3,
        ok,
        f"|sigma^2 - 1| = {sigma_err:.1e}; Var_200/200 = {var_over_n:.5f}; "
        f"|perturbation drift - finite difference| = {drift_err:.1e}",
    )
    assert sigma_err <= 1e-6
    assert 0.95 <= var_over_n <= 1.05
    assert drift_err <= 1e-7


@criterion(4)
def test_criterion_04_clt(free2, free2_decomp, aexp, aexp_stats):
    """sqrt(n) D_n stays within a factor 3 band and D_196 < D_16."""
    grid = (16, 36, 64, 100, 144, 196)
    report = hs.clt_distance(free2, free2_decomp, aexp, aexp_stats, grid)
    scaled = [math.sqrt(row["n"]) * row["observed"] for row in report.rows]
    ratio = max(scaled) / min(scaled)
    shrinks = report.rows[-1]["observed"] < report.rows[0]["observed"]
    ok = report.passed and ratio <= 3.0 and shrinks
    record_criterion(
        4,
        ok,
        f"sqrt(n) D_n in [{min(scaled):.4f}, {max(scaled):.4f}] "
        f"(ratio {ratio:.3f} <= 3); D_196 < D_16",
    )
    assert report.passed
    assert ratio <= 3.0
    assert shrinks


@criterion(5)
def test_criterion_05_berry_esseen(free2, free2_decomp, aexp, aexp_stats):
    """The computable bound dominates the exact Kolmogorov distance."""
    details = []
    ok = True
    for n, T in ((25, 2.5), (100, 5.0)):
        report = hs.berry_esseen_report(free2, free2_decomp, aexp, aexp_stats, n, T)
        (check,) = [c for c in report.checks if c["name"] == "bound-dominates-distance"]
        ok = ok and report.passed and check["lhs"] <= check["rhs"]
        details.append(f"(n={n}, T={T}): {check['lhs']:.4f} <= {check['rhs']:.4f}")
        assert report.passed
        assert check["lhs"] <= check["rhs"]
    record_criterion(5, ok, "distance <= bound at " + "; ".join(details))


@criterion(6)
def test_criterion_06_large_deviations(free2, free2_decomp, aexp, aexp_stats,
                                       wordlen, wordlen_stats):
    """Chernoff bound pointwise for all n <= 200; rate within 25%; empty tails."""
    eps = 0.4
    report = hs.ldt_rate(
        free2, free2_decomp, aexp, aexp_stats, eps, range(10, 201, 10), T_GRID
    )
    rate = report.theory["chernoff_rate_bound"]
    t_plus = report.theory["t_plus"]
    t_minus = report.theory["t_minus"]
    drift = report.theory["drift"]
    rate_gap = abs(report.rows[-1]["observed"] / rate - 1.0)

    # Exact exponential Chebyshev bound at every single n, not just the grid.
    grid_all = range(1, 201)
    dists = hs.distribution_sweep(free2, aexp, grid_all)
    log_plus = hs.log_weighted_sum_sweep(free2, aexp, t_plus, grid_all)
    log_minus = hs.log_weighted_sum_sweep(free2, aexp, -t_minus, grid_all)
    worst = -math.inf
    for dist, lp, lm in zip(dists, log_plus, log_minus):
        n = dist.n
        total = sum(dist.counts)
        hi = n * (drift + eps) - 1e-9
        lo = n * (drift - eps) + 1e-9
        tail = sum(
            c
            for v, c in zip(dist.support_scaled, dist.counts)
            if v >= hi or v <= lo
        )
        if tail == 0:
            continue
        log_p = math.log(tail) - math.log(total)
        bound = np.logaddexp(
            lp - math.log(total) - t_plus * n * (drift + eps),
            lm - math.log(total) + t_minus * n * (drift - eps),
        )
        worst = max(worst, log_p - float(bound))

    trivial = hs.ldt_rate(
        free2, free2_decomp, wordlen, wordlen_stats, eps, range(10, 201, 10), T_GRID
    )
    empty = trivial.theory["degenerate_tail"] and all(
        row["p"] == 0.0 for row in trivial.rows
    )
    ok = report.passed and worst <= LOG_SLACK and rate_gap <= 0.25 and trivial.passed and empty
    record_criterion(
        6,
        ok,
        f"log p_n - Chernoff <= {worst:.3g} for every n <= 200; "
        f"|r_200/I - 1| = {rate_gap:.3f} <= 0.25; word-length tails empty",
    )
    assert report.passed
    assert worst <= LOG_SLACK
    assert rate_gap <= 0.25
    assert trivial.passed
    assert empty


@criterion(7)
def test_criterion_07_multidimensional_clt(free2, free2_decomp, abel, abel_stats,
                                           rank1, rank1_stats):
    """Abelianized covariance is the identity; rank-one weights fail the PD gate."""
    sigma = np.asarray(abel_stats.covariance)
    sigma_err = float(np.max(np.abs(sigma - np.eye(2))))
    report = hs.mclt_check(free2, free2_decomp, abel, abel_stats, (25, 50, 100, 200))
    (agree,) = [c for c in report.checks if c["name"] == "covariance-agreement"]
    (pd,) = [c for c in report.checks if c["name"] == "sigma-positive-definite"]
    degenerate = hs.mclt_check(free2, free2_decomp, rank1, rank1_stats, (16,))
    (pd_bad,) = [
        c for c in degenerate.checks if c["name"] == "sigma-positive-definite"
    ]
    ok = (
        sigma_err <= 1e-6
        and report.passed
        and agree["passed"]
        and agree["lhs"] <= 0.05
        and pd["passed"]
        and not degenerate.passed
        and not pd_bad["passed"]
        and rank1_stats.degenerate
    )
    record_criterion(
        7,
        ok,
        f"max|Sigma - I| = {sigma_err:.1e}; empirical agreement "
        f"{agree['lhs']:.4f} <= 0.05 at n = 200; rank-one pair rejected",
    )
    assert sigma_err <= 1e-6
    assert report.passed
    assert agree["lhs"] <= 0.05
    assert pd["passed"]
    assert not degenerate.passed
    assert not pd_bad["passed"]
    assert rank1_stats.degenerate


@criterion(8)
def test_criterion_08_local_limit(free2, free2_decomp, proj, proj_stats):
    """Non-lattice gap positive on [0.1, 20]; sqrt(n) interval mass near the target."""
    report = hs.llt_check(
        free2, free2_decomp, proj, proj_stats, -0.5, 0.5, (100, 200, 300)
    )
    gate = report.params["gate"]
    min_gap = float(gate["min_gap"])
    observed = report.rows[-1]["observed"]
    rel = abs(observed / LLT_TARGET - 1.0)
    ok = report.passed and min_gap > 0.0 and rel <= 0.10
    record_criterion(
        8,
        ok,
        f"min spectral gap {min_gap:.4f} > 0 (argmin t = {gate['argmin_t']}); "
        f"sqrt(300) P(phi in [-1/2, 1/2]) = {observed:.5f} vs {LLT_TARGET:.5f} "
        f"(rel {rel:.3f} <= 0.10)",
    )
    assert report.passed
    assert min_gap > 0.0
    assert rel <= 0.10


@criterion(9)
def test_criterion_09_lattice_gate(free2, free2_decomp, aexp, aexp_stats):
    """Integer weights close the spectral gap at 2 pi and the LLT refuses to run."""
    comp = free2_decomp.maximal_indices[0]
    (point,) = hs.nonlattice_gap(free2, free2_decomp, aexp, comp, [2.0 * math.pi])
    gap_ok = abs(point.gap) <= TOL_RATE
    refused = False
    try:
        hs.llt_check(free2, free2_decomp, aexp, aexp_stats, -0.5, 0.5, (36,))
    except hs.PreconditionError as exc:
        refused = "lattice" in str(exc)
    ok = gap_ok and refused
    record_criterion(
        9,
        ok,
        f"|gap(2 pi)| = {abs(point.gap):.1e} <= 1e-9 and llt_check raises "
        "PreconditionError",
    )
    assert gap_ok
    assert refused


@criterion(10)
def test_criterion_10_degeneracy(free2, free2_decomp, aexp, aexp_stats,
                                 aind, aind_stats, wordlen, wordlen_stats,
                                 proj, proj_stats, mirror, mirror_decomp,
                                 mirror_hom, mirror_stats):
    """Word length is degenerate with exact zero range; verdicts always agree."""
    degenerate = hs.degeneracy_check(free2, free2_decomp, wordlen, wordlen_stats, 12)
    zero_range = all(row["observed"] == 0.0 for row in degenerate.rows)
    sigma_ok = wordlen_stats.sigma2 < 1e-10
    nondeg = hs.degeneracy_check(free2, free2_decomp, aexp, aexp_stats, 12)
    shipped = [
        (free2, free2_decomp, aexp, aexp_stats),
        (free2, free2_decomp, aind, aind_stats),
        (free2, free2_decomp, wordlen, wordlen_stats),
        (free2, free2_decomp, proj, proj_stats),
        (mirror, mirror_decomp, mirror_hom, mirror_stats),
    ]
    agree = True
    for coding, decomposition, weights, stats in shipped:
        report = hs.degeneracy_check(coding, decomposition, weights, stats, 12)
        agree = agree and report.passed
    ok = (
        degenerate.passed
        and degenerate.theory["degenerate"]
        and sigma_ok
        and zero_range
        and nondeg.passed
        and not nondeg.theory["degenerate"]
        and agree
    )
    record_criterion(
        10,
        ok,
        f"word length: sigma^2 = {wordlen_stats.sigma2:.1e} < 1e-10 and "
        "recentered range exactly {0}; exponent non-degenerate; verdicts "
        "agree on all 5 shipped pairs",
    )
    assert degenerate.passed
    assert degenerate.theory["degenerate"]
    assert sigma_ok
    assert zero_range
    assert nondeg.passed
    assert not nondeg.theory["degenerate"]
    assert agree


@criterion(11)
def test_criterion_11_component_consistency(free2, free2_decomp, aexp,
                                            mirror, mirror_decomp, mirror_hom):
    """Symmetric maximal components agree to 1e-8; single components pass vacuously."""
    report = hs.component_consistency(mirror, mirror_decomp, mirror_hom)
    single = hs.component_consistency(free2, free2_decomp, aexp)
    ok = (
        report.consistent
        and len(report.indices) == 2
        and report.max_drift_spread <= 1e-8
        and report.max_variance_spread <= 1e-8
        and single.consistent
        and len(single.indices) == 1
    )
    record_criterion(
        11,
        ok,
        f"two-component drift spread {report.max_drift_spread:.1e}, variance "
        f"spread {report.max_variance_spread:.1e} (<= 1e-8); single-component "
        "coding vacuously consistent",
    )
    assert report.consistent
    assert len(report.indices) == 2
    assert report.max_drift_spread <= 1e-8
    assert report.max_variance_spread <= 1e-8
    assert single.consistent
    assert len(single.indices) == 1


@criterion(12)
def test_criterion_12_brute_force_equivalence(free2, free1, mirror, aexp, aind,
                                              wordlen, abel, rank1, proj,
                                              mirror_hom):
    """Every shipped pair's DP distribution matches brute-force enumeration."""
    rational = hs.weights_from_homomorphism(
        free2, {"a": Fraction(1, 2), "b": Fraction(1, 4)}
    )
    lattice_pairs = [
        ("free2/exponent", free2, aexp),
        ("free2/indicator", free2, aind),
        ("free2/word-length", free2, wordlen),
        ("free2/abelianized", free2, abel),
        ("free2/rank-one", free2, rank1),
        ("free2/rational", free2, rational),
        ("free1/word-length", free1, hs.weights_word_length(free1)),
        ("mirror/exponent", mirror, mirror_hom),
    ]
    checked = 0
    for name, coding, weights in lattice_pairs:
        oracle = oracles.brute_force_oracle(coding, weights, 8)
        for n in range(0, 9):
            dist = hs.distribution(coding, weights, n)
            scale = dist.scale
            if isinstance(dist.support_scaled[0], tuple):
                brute = Counter(
                    tuple(int(round(x * scale)) for x in v)
                    for l, _, v in oracle
                    if l == n
                )
            else:
                brute = Counter(
                    int(round(v[0] * scale)) for l, _, v in oracle if l == n
                )
            dp = dict(zip(dist.support_scaled, dist.counts))
            assert dp == dict(brute), f"{name} at n = {n}"
            checked += 1

    # Real-valued weights: the DP quantizes each edge value once, so its
    # histogram must equal the histogram of per-letter quantized sums, and
    # every bin center may drift from the exact sum by at most n * width / 2.
    width = 0.02
    quanta = {
        "a": round(1.0 / width),
        "A": round(-1.0 / width),
        "b": round(math.sqrt(2.0) / width),
        "B": round(-math.sqrt(2.0) / width),
    }
    oracle = oracles.brute_force_oracle(free2, proj, 8)
    max_drift = 0.0
    for n in range(0, 9):
        dist = hs.distribution(free2, proj, n, bin_width=width)
        brute = Counter(
            sum(quanta[c] for c in word) for l, word, _ in oracle if l == n
        )
        dp = dict(zip(dist.support_scaled, dist.counts))
        assert dp == dict(brute), f"free2/projected at n = {n}"
        for l, word, value in oracle:
            if l == n:
                center = sum(quanta[c] for c in word) * width
                drift = abs(center - value[0])
                max_drift = max(max_drift, drift)
                assert drift <= n * width / 2.0 + 1e-12
        checked += 1
    record_criterion(
        12,
        True,
        f"{checked} distribution/brute-force comparisons exact over 9 pairs, "
        f"n <= 8; real-pair bin centers drift <= {max_drift:.4f} "
        f"(bound n*width/2 = {8 * width / 2.0:.2f})",
    )
