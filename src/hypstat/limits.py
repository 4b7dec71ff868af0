"""Executable limit laws: averaging, CLT, Berry-Esseen, LDT, MCLT, LLT.

Each checker compares exact sphere enumeration against the spectral
predictions and returns a ``LimitLawReport`` whose verdict is reproducible
from the recorded numbers alone: every check is stored as
``(name, lhs, op, rhs, passed)`` with plain floats, and ``reverify``
re-evaluates all of them without touching the coding.

Conventions shared by the checkers:

* the empirical law at radius ``n`` is the exact distribution of the weight
  over the sphere ``W_n``; the central limit and Berry-Esseen statements
  recenter by ``n * drift`` and rescale by ``sqrt(n)``;
* the plain distribution ``F_n`` feeds the CLT distance, while the
  Berry-Esseen bound is evaluated on the overcounted law ``H_n`` (they
  coincide whenever a single maximal component exists);
* trend criteria compare quartiles (last quarter vs first quarter) rather
  than fitted slopes, which is robust to the bounded oscillations the
  limit theorems allow;
* Gaussian integrals use ``math.erf`` (correctly rounded to double
  precision) and ``quad``, a numpy adaptive Gauss-Legendre rule with
  bisection; two-dimensional rectangles are reduced to one-dimensional
  quadrature by conditioning on the first coordinate, which is
  deterministic and accurate to quadrature tolerance.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .coding import MarkovCoding
from .enumerate import (
    MomentData,
    WordDistribution,
    _exact_div,
    _window_counts,
    distribution_overcounted,
    distribution_sweep,
    moment_sweep,
    weighted_counts,
)
from .errors import (
    InconsistencyError,
    InvalidArgumentError,
    NumericalError,
    PreconditionError,
)
from .spectral import LimitStatistics, _component, nonlattice_gap
from .weights import WeightAssignment, lattice_scale

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

#: spectral-gap threshold below which a frequency witnesses lattice weights
LATTICE_WITNESS_GAP = 1e-9
#: float slack granted to mathematically exact inequalities checked in logs
_EXACT_LOG_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


class LimitLawReport(NamedTuple):
    """One limit-law verification run.

    Attributes
    ----------
    law : str
        ``averaging | clt | berry-esseen-bound | ldt | mclt | llt |
        degeneracy``.
    params : dict
        Input parameters (grids, intervals, bin widths).
    n_grid : tuple of int
    rows : tuple of dict
        Per-``n`` statistics; every row carries the plot-ready keys
        ``n, observed, predicted, residual`` plus law-specific extras.
    theory : dict
        Spectral predictions, stored bit-for-bit as computed.
    tolerances : dict
    checks : tuple of dict
        Each ``{"name", "lhs", "op", "rhs", "passed", "detail"}``;
        ``passed`` is exactly ``compare(op, lhs, rhs)``.
    passed : bool
        Conjunction of all checks.
    """

    law: str
    params: dict
    n_grid: tuple[int, ...]
    rows: tuple[dict, ...]
    theory: dict
    tolerances: dict
    checks: tuple[dict, ...]
    passed: bool


_OPERATORS = {
    "<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt, "==": operator.eq
}


def _compare(op: str, lhs: float, rhs: float) -> bool:
    if op not in _OPERATORS:
        raise InvalidArgumentError(f"unknown check operator {op!r}")
    return _OPERATORS[op](lhs, rhs)


def _check(name: str, lhs: float, op: str, rhs: float, detail: str = "") -> dict:
    return {
        "name": name,
        "lhs": float(lhs),
        "op": op,
        "rhs": float(rhs),
        "passed": _compare(op, float(lhs), float(rhs)),
        "detail": detail,
    }


def _finalize(
    law: str,
    params: dict,
    n_grid: Sequence[int],
    rows: Sequence[dict],
    theory: dict,
    tolerances: dict,
    checks: Sequence[dict],
) -> LimitLawReport:
    report = LimitLawReport(
        law=law,
        params=params,
        n_grid=tuple(int(n) for n in n_grid),
        rows=tuple(rows),
        theory=theory,
        tolerances=tolerances,
        checks=tuple(checks),
        passed=all(c["passed"] for c in checks),
    )
    if not reverify(report):
        raise InconsistencyError(f"{law}: a stored verdict contradicts its numbers")
    return report


def reverify(report: LimitLawReport) -> bool:
    """Recompute every stored verdict from the recorded numbers alone."""
    for c in report.checks:
        if c["passed"] != _compare(c["op"], c["lhs"], c["rhs"]):
            return False
    return report.passed == all(c["passed"] for c in report.checks)


def report_to_json(report: LimitLawReport) -> dict:
    """JSON-ready document (lossless together with ``report_from_json``)."""
    return {
        **report._asdict(),
        "n_grid": list(report.n_grid),
        "rows": list(report.rows),
        "checks": list(report.checks),
    }


def report_from_json(document: dict) -> LimitLawReport:
    """Inverse of ``report_to_json``."""
    return LimitLawReport(
        law=str(document["law"]),
        params=dict(document["params"]),
        n_grid=tuple(int(n) for n in document["n_grid"]),
        rows=tuple(dict(r) for r in document["rows"]),
        theory=dict(document["theory"]),
        tolerances=dict(document["tolerances"]),
        checks=tuple(dict(c) for c in document["checks"]),
        passed=bool(document["passed"]),
    )


def _median(values: Sequence[float]) -> float:
    """``statistics.median``'s arithmetic, without importing ``statistics``."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _quartiles(values: Sequence[float]) -> tuple[list[float], list[float]]:
    q = max(1, len(values) // 4)
    return list(values[:q]), list(values[-q:])


def _phi_cdf(x: float) -> float:
    """Standard normal CDF via the correctly rounded error function."""
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _require_scalar(weights: WeightAssignment, what: str) -> None:
    if weights.dim != 1:
        raise InvalidArgumentError(f"{what} requires scalar weights")


def _sorted_grid(n_grid: Sequence[int], minimum: int = 1) -> list[int]:
    grid = sorted({int(n) for n in n_grid})
    if not grid:
        raise InvalidArgumentError("n grid must be non-empty")
    if grid[0] < minimum:
        raise InvalidArgumentError(f"n grid entries must be >= {minimum}")
    return grid


# ---------------------------------------------------------------------------
# Averaging
# ---------------------------------------------------------------------------


def averaging_table(
    coding: MarkovCoding,
    weights: WeightAssignment,
    stats: LimitStatistics,
    n_grid: Sequence[int],
) -> LimitLawReport:
    """Exact sphere means against the spectral drift.

    For each ``n`` the exact mean of the weight over ``W_n`` gives
    ``Lambda_n = mean / n`` and the residual ``r_n = n |Lambda_n - Lambda|``,
    which the averaging law requires to stay bounded.  Checks: the largest
    ``r_n`` is at most 10 times the median, and the last quartile of the
    grid does not exceed 3 times the first quartile.

    Returns
    -------
    LimitLawReport
    """
    _require_scalar(weights, "averaging_table")
    grid = _sorted_grid(n_grid)
    drift = stats.drift[0]
    rows = []
    residuals = []
    for md in moment_sweep(coding, weights, grid):
        mean = md.mean()[0]
        lambda_n = float(mean) / md.n
        r_n = abs(float(mean) - md.n * drift)
        residuals.append(r_n)
        rows.append(
            {
                "n": md.n,
                "observed": lambda_n,
                "predicted": drift,
                "residual": r_n,
                "mean": str(mean),
            }
        )
    first_q, last_q = _quartiles(residuals)
    checks = [
        _check(
            "residual-max-vs-median",
            max(residuals),
            "<=",
            10.0 * _median(residuals),
            "max r_n against 10x median r_n over the grid",
        ),
        _check(
            "residual-trend",
            max(last_q),
            "<=",
            3.0 * max(first_q) + 1e-12,
            "last-quartile max r_n against 3x first-quartile max",
        ),
    ]
    return _finalize(
        law="averaging",
        params={"n_grid": grid},
        n_grid=grid,
        rows=rows,
        theory={
            "drift": drift,
            "entropy": stats.entropy,
            "lam": stats.lam,
            "sigma2": stats.sigma2,
        },
        tolerances={"max_over_median": 10.0, "trend_factor": 3.0},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Central limit theorem
# ---------------------------------------------------------------------------


def kolmogorov_distance(
    dist: WordDistribution, drift: float, sigma: float
) -> float:
    """Exact sup distance between the recentered law and ``N(0, sigma^2)``.

    The supremum over jump points of ``|F_n(x) - Phi(x / sigma)|`` where
    ``F_n`` is the CDF of ``(phi - n * drift) / sqrt(n)``; both one-sided
    limits are taken at every jump, which attains the supremum exactly.
    """
    if dist.n < 1:
        raise InvalidArgumentError("Kolmogorov distance needs n >= 1")
    if not sigma > 0.0:
        raise InvalidArgumentError("Kolmogorov distance needs sigma > 0")
    root = math.sqrt(dist.n)
    supremum = 0.0
    cumulative = 0
    total = dist.total
    for value, count in zip(dist.support, dist.counts):
        x = (value - dist.n * drift) / root
        gauss = _phi_cdf(x / sigma)
        before = cumulative / total
        cumulative += count
        after = cumulative / total
        supremum = max(supremum, abs(before - gauss), abs(after - gauss))
    return supremum


def _require_nondegenerate(stats: LimitStatistics, what: str) -> float:
    if stats.degenerate or stats.sigma2 <= 0.0:
        raise PreconditionError(
            f"{what} requires sigma^2 > 0, but the variance is degenerate; "
            "run degeneracy_check for the two-route verdict"
        )
    return math.sqrt(stats.sigma2)


def clt_distance(
    coding: MarkovCoding,
    weights: WeightAssignment,
    stats: LimitStatistics,
    n_grid: Sequence[int],
) -> LimitLawReport:
    """Kolmogorov distance of the exact law to the Gaussian, over a grid.

    Per ``n``: ``D_n = sup |F_n - N(0, sigma^2)|`` computed exactly at jump
    points of the plain distribution.  Checks: ``sqrt(n) D_n`` varies by at
    most a factor 3 over grid points with ``n >= 36``, and the distance at
    the largest ``n`` is strictly below the distance at the smallest.

    Raises
    ------
    PreconditionError
        If the variance is degenerate.
    """
    _require_scalar(weights, "clt_distance")
    sigma = _require_nondegenerate(stats, "clt_distance")
    grid = _sorted_grid(n_grid)
    drift = stats.drift[0]
    rows = []
    scaled = []
    distances = []
    dists = distribution_sweep(coding, weights, grid)
    reference = None
    for dist in dists:
        d_n = kolmogorov_distance(dist, drift, sigma)
        distances.append(d_n)
        scaled.append(math.sqrt(dist.n) * d_n)
        if reference is None:
            reference = (dist.n, d_n)
        predicted = reference[1] * math.sqrt(reference[0] / dist.n)
        rows.append(
            {
                "n": dist.n,
                "observed": d_n,
                "predicted": predicted,
                "residual": d_n - predicted,
                "sqrt_n_times_d": scaled[-1],
            }
        )
    window = [s for n, s in zip(grid, scaled) if n >= 36]
    if len(window) >= 2:
        ratio_check = _check(
            "sqrt-n-distance-bounded",
            max(window),
            "<=",
            3.0 * min(window),
            "max/min of sqrt(n) D_n over grid points with n >= 36",
        )
    else:
        ratio_check = _check(
            "sqrt-n-distance-bounded",
            0.0,
            "<=",
            3.0,
            "fewer than two grid points with n >= 36; vacuous",
        )
    checks = [
        ratio_check,
        _check(
            "distance-decreases",
            distances[-1],
            "<",
            distances[0],
            "D_n at the largest n against the smallest n",
        ),
    ]
    return _finalize(
        law="clt",
        params={"n_grid": grid},
        n_grid=grid,
        rows=rows,
        theory={
            "drift": drift,
            "sigma2": stats.sigma2,
            "sigma": sigma,
            "entropy": stats.entropy,
            "lam": stats.lam,
        },
        tolerances={"ratio_max": 3.0},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Berry-Esseen bound
# ---------------------------------------------------------------------------


def quad(fn, a: float, b: float) -> tuple[float, float]:
    """``(value, abserr)`` of the integral of ``fn`` over a finite ``[a, b]``.

    Globally adaptive 10-point Gauss-Legendre: the interval with the
    largest error estimate is bisected, each half then carries half of
    ``|rule(whole) - rule(left) - rule(right)|``, until the estimates sum
    to at most ``1e-13 * max(1, |value|)`` or 200 intervals are used.
    """
    import numpy as np
    nodes, weights = np.polynomial.legendre.leggauss(10)

    def rule(lo: float, hi: float) -> float:
        half, mid = (hi - lo) / 2.0, (hi + lo) / 2.0
        return half * float(weights @ np.array([fn(mid + half * x) for x in nodes]))

    parts = [(math.inf, a, b, rule(a, b))]
    while len(parts) < 200:
        value, abserr = (math.fsum(p[i] for p in parts) for i in (3, 0))
        if abserr <= 1e-13 * max(1.0, abs(value)):
            break
        _err, lo, hi, whole = parts.pop(parts.index(max(parts)))
        left, right = rule(lo, (lo + hi) / 2.0), rule((lo + hi) / 2.0, hi)
        err = abs(whole - left - right) / 2.0
        parts += [(err, lo, (lo + hi) / 2.0, left), (err, (lo + hi) / 2.0, hi, right)]
    return math.fsum(p[3] for p in parts), math.fsum(p[0] for p in parts)


def _quadrature(fn, lo: float, hi: float, what: str) -> float:
    value, abserr = quad(fn, lo, hi)
    if not math.isfinite(value) or abserr > max(1e-7, 1e-4 * abs(value)):
        raise NumericalError(
            f"adaptive quadrature failed for {what}: value {value!r}, "
            f"error estimate {abserr!r}"
        )
    return value


def _mean_shift(dist: WordDistribution, drift: float) -> float:
    """``E_n = (mean - n * drift) / sqrt(n)`` of the recentered law."""
    mean = dist.moments().mean()[0]
    return (float(mean) - dist.n * drift) / math.sqrt(dist.n)


def berry_esseen_report(
    coding: MarkovCoding,
    weights: WeightAssignment,
    stats: LimitStatistics,
    n: int,
    T: float,
) -> LimitLawReport:
    """Soundness report: the explicit bound against the exact sup distance.

    The bound is ``K (int_{-T}^{T} |H^(t) - exp(-sigma^2 t^2 / 2)| / |t| dt
    + 1/T + |E_n| exp(|E_n| T))`` where ``H^`` is the exact characteristic
    function of the recentered overcounted law, ``E_n`` its mean (exactly 0
    for symmetric weights, killing the third term), and
    ``K = max(1/pi, 24 ||N'||_inf / pi)`` with ``||N'||_inf`` the Gaussian
    density peak ``1/(sigma sqrt(2 pi))``.  The integrand is extended by
    its limit ``|E_n|`` at ``t = 0`` and integrated by adaptive quadrature.

    The bound is sound: it dominates the exact sup distance of the same
    law, which the report's one check compares it with, for every valid
    ``(n, T)``.
    """
    import numpy as np
    _require_scalar(weights, "berry_esseen_report")
    sigma = _require_nondegenerate(stats, "berry_esseen_report")
    if not T > 0.0:
        raise InvalidArgumentError(f"T must be positive, got {T!r}")
    dist = distribution_overcounted(coding, weights, n)
    drift = stats.drift[0]
    root = math.sqrt(n)
    xs = np.array([(v - n * drift) / root for v in dist.support])
    counts = np.array([float(c) for c in dist.counts])
    total = counts.sum()
    shift = _mean_shift(dist, drift)
    half_var = stats.sigma2 / 2.0

    def integrand(t: float) -> float:
        if abs(t) < 1e-12:
            return abs(shift)
        cf = complex(np.sum(counts * np.exp(1j * t * xs))) / total
        return abs(cf - math.exp(-half_var * t * t)) / abs(t)

    integral = _quadrature(integrand, 0.0, T, "the characteristic-function term")
    peak = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    K = max(1.0 / math.pi, 24.0 * peak / math.pi)
    bound = K * (2.0 * integral + 1.0 / T + abs(shift) * math.exp(abs(shift) * T))
    observed = kolmogorov_distance(dist, drift, sigma)
    rows = [
        {
            "n": n,
            "observed": observed,
            "predicted": bound,
            "residual": bound - observed,
        }
    ]
    checks = [
        _check(
            "bound-dominates-distance",
            observed,
            "<=",
            bound,
            "exact sup distance against the smoothing bound",
        )
    ]
    return _finalize(
        law="berry-esseen-bound",
        params={"n": n, "T": T},
        n_grid=[n],
        rows=rows,
        theory={
            "drift": drift,
            "sigma2": stats.sigma2,
            "entropy": stats.entropy,
            "lam": stats.lam,
        },
        tolerances={},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Large deviations
# ---------------------------------------------------------------------------


def _log_sum_exp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _tail_counts(dist: WordDistribution, lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """Exact counts of the values above ``hi`` and below ``lo`` (``lo < hi``).

    Each value is ``q * unit``, with ``unit > 0`` the lattice step or the bin
    width, so it lies above ``hi`` iff ``q > floor(hi / unit)`` and below
    ``lo`` iff ``q < ceil(lo / unit)``; the sorted support is cut at those
    two integers.
    """
    unit = dist.exact_value(1)
    above = bisect.bisect_right(dist.support_scaled, math.floor(hi / unit))
    below = bisect.bisect_left(dist.support_scaled, math.ceil(lo / unit))
    return sum(dist.counts[above:]), sum(dist.counts[:below])


def _log_partitions(dist: WordDistribution, ts: Sequence[float]) -> list[float]:
    """``log W(t, n) = log sum_q c_q exp(t q unit)`` over the sphere's exact
    law for each ``t``: one log-sum-exp shifted by its largest term, on the
    counts' logs taken once (``-inf`` on an empty sphere)."""
    if not dist.counts:
        return [-math.inf] * len(ts)
    unit, logs, out = float(dist.exact_value(1)), list(map(math.log, dist.counts)), []
    for t in ts:
        step = t * unit
        terms = [x + step * q for x, q in zip(logs, dist.support_scaled)]
        top = max(terms)
        out.append(top + math.log(sum([math.exp(x - top) for x in terms])))
    return out


def ldt_rate(
    coding: MarkovCoding,
    weights: WeightAssignment,
    stats: LimitStatistics,
    epsilon: float,
    n_grid: Sequence[int],
    t_grid: Sequence[float],
) -> LimitLawReport:
    """Exact deviation tails against the Chernoff rate from the pressure.

    Per ``n`` the exact tail probability ``p_n`` of ``|phi/n - drift| >
    epsilon`` comes from the sphere distribution; the empirical rate is
    ``r_n = -log(p_n)/n``.  The rate bound ``I(eps)`` maximizes
    ``t*eps - (P(+-t) - h -+ t*drift)`` over the ``t`` grid for each tail
    and combines the tails that carry mass.  The objective is concave, so
    each tail solves ``P`` only at the ``O(log G)`` grid points its search
    visits, and returns the first grid maximum, as a full scan would.
    Checks:

    * the exact finite-``n`` exponential Chebyshev inequality
      ``p_n <= exp(-n t (drift + eps)) W(t, n) / #W_n`` (per tail, at the
      grid-optimal ``t``) holds pointwise for every grid ``n``, with the
      partition function ``W(t, n)`` read off the same sphere law as
      ``p_n`` (for a binned real weight, the binned law);
    * the fitted envelope ``p_n <= C exp(-n I)`` holds pointwise, with
      ``C`` calibrated at the smallest grid ``n`` with positive tail;
    * ``r_n`` converges toward the positive rate: ``|r_n - I|`` shrinks
      from the first quartile to the last ("increasing toward a positive
      limit" made quartile-robust), with ``r_n >= I/2`` at the largest
      ``n`` and within 25% of ``I`` there.

    An epsilon beyond the reachable range (``p_n = 0`` for every grid
    ``n``) is reported as a degenerate tail and passes trivially.

    Returns
    -------
    LimitLawReport
    """
    _require_scalar(weights, "ldt_rate")
    if not epsilon > 0.0:
        raise InvalidArgumentError(f"epsilon must be positive, got {epsilon!r}")
    if epsilon == math.inf:
        raise InvalidArgumentError(f"epsilon must be finite, got {epsilon!r}")
    grid = _sorted_grid(n_grid)
    for t in t_grid:
        if not math.isfinite(t):
            raise InvalidArgumentError(f"t grid entries must be finite, got {float(t)!r}")
    ts = sorted({float(t) for t in t_grid if t > 0.0})
    if not ts:
        raise InvalidArgumentError("t grid must contain positive entries")
    drift = stats.drift[0]
    h = stats.entropy
    comp = _component(coding, weights, stats.component)

    def objective(sign: float, t: float) -> tuple[float, float]:
        """``f(t)`` and ``f'(t)``: ``P(s)`` is the two-sided Rayleigh quotient
        ``u.M(s)v / u.v`` and ``P'(s) = u.(W o M(s))v / u.M(s)v``."""
        s = sign * t
        _, right, left, _, _ = comp.solve((s,))
        terms = [left[u] * math.exp(s * w[0]) * right[v] for u, v, w in comp.edges]
        top = math.fsum(terms)
        p = math.log(top / math.fsum(map(operator.mul, left, right)))
        slope = math.fsum(x * w[0] for x, (_, _, w) in zip(terms, comp.edges)) / top
        return t * epsilon - (p - h - sign * t * drift), epsilon + sign * (drift - slope)

    def legendre(sign: float) -> tuple[float, float]:
        # f is concave: bisect for the first t with f'(t) <= 0, then step to
        # the first grid maximum among the computed values, as a full scan would
        f = functools.cache(lambda k: objective(sign, ts[k]))
        lo, hi = 0, len(ts)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if f(mid)[1] > 0.0 else (lo, mid)
        k = max(lo - 1, 0)
        while k + 1 < len(ts) and f(k + 1)[0] > f(k)[0]:
            k += 1
        while k > 0 and f(k - 1)[0] >= f(k)[0]:
            k -= 1
        return f(k)[0], ts[k]

    rate_plus, t_plus = legendre(+1.0)
    rate_minus, t_minus = legendre(-1.0)

    from fractions import Fraction
    eps_f = Fraction(epsilon)
    drift_f = Fraction(drift)
    dists = distribution_sweep(coding, weights, grid)
    tails = [
        (d.n, *_tail_counts(d, d.n * (drift_f - eps_f), d.n * (drift_f + eps_f)), d.total)
        for d in dists
    ]
    # the rate of the tails that carry mass; an epsilon beyond the reachable
    # range leaves every tail empty, and then there is no rate
    masses = [r for r, i in ((rate_plus, 1), (rate_minus, 2)) if any(t[i] for t in tails)]
    rate = min(masses) if masses else None

    rows = []
    worst_exact = -math.inf
    worst_fitted = -math.inf
    fit_log_c = None
    rates: list[float] = []
    for dist, (n, plus, minus, total) in zip(dists, tails):
        tail = plus + minus
        r_n = None
        if tail > 0:
            log_total = math.log(total)
            log_plus, log_minus = _log_partitions(dist, (t_plus, -t_minus))
            bound_plus = log_plus - log_total - n * t_plus * (drift + epsilon)
            bound_minus = log_minus - log_total + n * t_minus * (drift - epsilon)
            bound_log = _log_sum_exp(bound_plus, bound_minus)
            log_p = math.log(tail) - log_total
            r_n = -log_p / n
            rates.append(r_n)
            worst_exact = max(worst_exact, log_p - bound_log)
            if fit_log_c is None:
                fit_log_c = log_p + n * rate
            worst_fitted = max(worst_fitted, log_p - (fit_log_c - n * rate))
        rows.append(
            {
                "n": n,
                "observed": r_n,
                "predicted": rate,
                "residual": None if r_n is None else r_n - rate,
                "p": tail / total,
                "tail_count": str(tail),
            }
        )
    if rate is None:
        checks = [
            _check(
                "degenerate-tail-trivial",
                0.0,
                "<=",
                0.0,
                "epsilon exceeds the reachable deviation range: p_n = 0 for "
                "every grid n, so the large-deviation bound holds trivially",
            )
        ]
        optimal_t, slack = {}, {}
    else:
        deviations = [abs(r - rate) for r in rates]
        first_q, last_q = _quartiles(deviations)
        checks = [
            _check(
                "chernoff-pointwise-exact",
                worst_exact,
                "<=",
                _EXACT_LOG_SLACK,
                "log p_n minus the exact exponential Chebyshev bound, worst n",
            ),
            _check(
                "chernoff-pointwise-fitted",
                worst_fitted,
                "<=",
                _EXACT_LOG_SLACK,
                "log p_n minus the fitted envelope log C - n I, worst n",
            ),
            _check(
                "rate-converges",
                max(last_q),
                "<=",
                max(first_q) + 1e-12,
                "deviation |r_n - I| of the last quartile against the first",
            ),
            _check(
                "rate-limsup",
                rates[-1],
                ">=",
                rate / 2.0,
                "empirical rate at the largest n against I/2",
            ),
            _check(
                "rate-close",
                abs(rates[-1] / rate - 1.0),
                "<=",
                0.25,
                "relative gap between the final empirical rate and I",
            ),
        ]
        optimal_t = {"t_plus": t_plus, "t_minus": t_minus}
        slack = {"pointwise_slack": _EXACT_LOG_SLACK}
    return _finalize(
        law="ldt",
        params={
            "epsilon": epsilon,
            "n_grid": grid,
            "t_grid": [ts[0], ts[-1], len(ts)],
        },
        n_grid=grid,
        rows=rows,
        theory={
            "chernoff_rate_bound": rate,
            "rate_plus": rate_plus,
            "rate_minus": rate_minus,
            **optimal_t,
            "drift": drift,
            "entropy": h,
            "sigma2": stats.sigma2,
            "degenerate_tail": rate is None,
        },
        tolerances={**slack, "limsup_factor": 0.5, "rate_rel": 0.25},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Multidimensional CLT
# ---------------------------------------------------------------------------


def _empirical_covariance(md: MomentData) -> list[list[float]]:
    """Exact covariance of ``phi / sqrt(n)`` over the sphere, as floats."""
    k = md.dim
    cov = [[0.0] * k for _ in range(k)]
    means = md.mean()
    for j in range(k):
        for l in range(k):
            # exact: the moments are ints and Fractions
            value = float(_exact_div(md.second[j][l], md.count) - means[j] * means[l])
            cov[j][l] = value / md.n
    return cov


def _gaussian_rectangle(
    sigma: np.ndarray, cell: tuple[tuple, tuple]
) -> float:
    """``P(X in [a1,b1] x [a2,b2])`` for ``X ~ N(0, Sigma)``, 2-d only.

    Conditioning on the first coordinate reduces the rectangle mass to a
    one-dimensional adaptive quadrature with an error-function integrand.
    """
    s1 = math.sqrt(sigma[0, 0])
    s2 = math.sqrt(sigma[1, 1])
    rho = sigma[0, 1] / (s1 * s2)
    if abs(rho) >= 1.0 - 1e-12:
        raise NumericalError(
            "Gaussian rectangle is ill-conditioned: |correlation| is 1"
        )
    w = math.sqrt(1.0 - rho * rho)
    (a1, b1), (a2, b2) = cell
    # the density is exactly 0.0 in float64 beyond 40 standard deviations
    lo1 = -40.0 if a1 is None else min(max(a1 / s1, -40.0), 40.0)
    hi1 = 40.0 if b1 is None else min(max(b1 / s1, -40.0), 40.0)
    lo2 = -math.inf if a2 is None else a2 / s2
    hi2 = math.inf if b2 is None else b2 / s2

    def integrand(z: float) -> float:
        density = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
        upper = _phi_cdf((hi2 - rho * z) / w) if math.isfinite(hi2) else 1.0
        lower = _phi_cdf((lo2 - rho * z) / w) if math.isfinite(lo2) else 0.0
        return density * (upper - lower)

    return _quadrature(integrand, lo1, hi1, "the Gaussian rectangle mass")


def _doubled_membership(value: int, scale: int, n: int, drift_j: float, lo, hi) -> int:
    """Twice the cell-membership weight of one scaled coordinate: 2, 1 or 0.

    Lattice masses are compared to a continuous integral, so boundary
    lattice points carry weight 1/2 (continuity correction); without it the
    closed cell systematically overshoots the Gaussian by half the boundary
    mass, which at n = 200 exceeds the tolerance.
    """
    x = (value / scale - n * drift_j) / math.sqrt(n)
    fuzz = 1e-9
    if any(end is not None and abs(x - end) <= fuzz for end in (lo, hi)):
        return 1
    return 2 if (lo is None or x > lo + fuzz) and (hi is None or x < hi - fuzz) else 0


def _degenerate_direction(sigma: np.ndarray) -> list[float]:
    """Unit kernel direction of a singular 2x2 covariance (best effort)."""
    a, b = float(sigma[0, 0]), float(sigma[0, 1])
    if abs(a) < 1e-14 and abs(b) < 1e-14:
        return [1.0, 0.0]
    norm = math.hypot(b, a)
    return [b / norm, -a / norm]


def mclt_check(
    coding: MarkovCoding,
    weights: WeightAssignment,
    stats: LimitStatistics,
    n_grid: Sequence[int],
    cell_grid: Sequence[tuple[tuple, tuple]] | None = None,
) -> LimitLawReport:
    """Vector CLT: exact covariances and cell masses against ``N(0, Sigma)``.

    Per ``n`` the exact covariance of ``phi / sqrt(n)`` over the sphere is
    compared entrywise with ``Sigma`` (relative tolerance 5% at the largest
    ``n``, with ``sqrt(Sigma_jj Sigma_ll)`` as the denominator floor so zero
    entries are judged on the right scale).  ``Sigma`` must pass the
    leading-minor positive-definiteness test; if it does and the weights
    are two-dimensional lattice, each requested cell's exact proportion is
    compared with the Gaussian rectangle mass (absolute tolerance 0.01,
    continuity-corrected on cell boundaries).  The cell masses at the
    largest ``n`` are summed on the engine's digit planes by
    ``weighted_counts``, the join that also gives ``llt_check`` its counts:
    one forward half to a level ``L`` for every cell and one backward half
    per cell, charged by those halves alone and joined by exact inner
    products; Python integers are built only for the joins' chunk sums.
    Cells use ``None`` for an infinite bound; the default is the lower
    quadrant for 2-d weights and no cell otherwise.

    Raises
    ------
    PreconditionError
        If ``weights.dim < 2``.
    InvalidArgumentError
        If ``stats`` has a dimension other than ``weights.dim``, or cells
        are given for weights that are not 2-d.
    """
    if weights.dim < 2:
        raise PreconditionError(
            "mclt_check requires vector weights (dim >= 2); scalar weights "
            "belong to clt_distance"
        )
    if len(stats.drift) != weights.dim:
        raise InvalidArgumentError(
            f"mclt_check got statistics of dimension {len(stats.drift)} for "
            f"weights of dimension {weights.dim}"
        )
    import numpy as np
    grid = _sorted_grid(n_grid)
    sigma = np.array(stats.covariance)
    k = weights.dim
    denom = np.empty((k, k))
    for j in range(k):
        for l in range(k):
            floor = math.sqrt(max(sigma[j, j] * sigma[l, l], 0.0))
            denom[j, l] = max(abs(sigma[j, l]), floor, 1e-12)
    rows = []
    final_dev = None
    for md in moment_sweep(coding, weights, grid):
        cov = _empirical_covariance(md)
        dev = float(np.max(np.abs(cov - sigma) / denom))
        final_dev = dev
        rows.append(
            {
                "n": md.n,
                "observed": dev,
                "predicted": 0.0,
                "residual": dev,
                "covariance": [[float(x) for x in row] for row in cov],
            }
        )
    checks = [
        _check(
            "covariance-agreement",
            final_dev,
            "<=",
            0.05,
            "max entrywise relative deviation of the exact covariance at "
            "the largest n",
        ),
        _check(
            "sigma-positive-definite",
            0.0 if stats.degenerate else 1.0,
            ">=",
            1.0,
            "leading principal minors of Sigma are positive",
        ),
    ]
    theory = {
        "sigma_matrix": [[float(x) for x in row] for row in stats.covariance],
        "drift": list(stats.drift),
        "entropy": stats.entropy,
        "lam": stats.lam,
        "positive_definite": not stats.degenerate,
    }
    if cell_grid is not None:
        cells = list(cell_grid)
    else:
        # the lower quadrant by default; cells exist for 2-d weights only
        cells = [((None, 0.0), (None, 0.0))] if k == 2 else []
    cell_rows = []
    if not stats.degenerate and cells:
        if k != 2:
            raise InvalidArgumentError(
                "cell-probability checks support 2-d weights only"
            )
        n_last, scale = grid[-1], lattice_scale(weights)
        if scale is None:
            raise InvalidArgumentError(
                "cell-probability checks need lattice weights"
            )

        def doubled(cell):
            return lambda j, q: _doubled_membership(
                q, scale, n_last, stats.drift[j], *cell[j]
            )

        # twice the membership weight of each distinct coordinate, so each
        # proportion is one exact integer ratio rounded once
        insides, total = weighted_counts(
            coding, weights, n_last, [doubled(cell) for cell in cells]
        )
        for idx, (cell, inside) in enumerate(zip(cells, insides)):
            empirical = inside / (4 * total)
            gaussian = _gaussian_rectangle(sigma, cell)
            checks.append(
                _check(
                    f"cell-agreement-{idx}",
                    abs(empirical - gaussian),
                    "<=",
                    0.01,
                    f"cell {cell!r}: exact proportion {empirical:.6f} vs "
                    f"Gaussian {gaussian:.6f} at n = {n_last}",
                )
            )
            cell_rows.append(
                {
                    "cell": [list(pair) for pair in cell],
                    "empirical": empirical,
                    "gaussian": gaussian,
                }
            )
    elif stats.degenerate:
        if k == 2:
            theory["degenerate_direction"] = _degenerate_direction(sigma)
    theory["cells"] = cell_rows
    return _finalize(
        law="mclt",
        params={
            "n_grid": grid,
            "cell_grid": [[list(pair) for pair in c] for c in cells],
        },
        n_grid=grid,
        rows=rows,
        theory=theory,
        tolerances={"cov_rel": 0.05, "cell_abs": 0.01},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Local limit theorem
# ---------------------------------------------------------------------------


def _default_gate_grid() -> list[float]:
    """``0.1 + k * 0.05`` up to 20: the default grid of the gate and of ``scan-lattice``."""
    return [0.1 + k * 0.05 for k in range(399)]


def llt_check(
    coding: MarkovCoding,
    weights: WeightAssignment,
    stats: LimitStatistics,
    a: float,
    b: float,
    n_grid: Sequence[int],
    bin_width: float | None = None,
    gate_t_grid: Sequence[float] | None = None,
) -> LimitLawReport:
    """Local limit law: interval masses against the Gaussian density scale.

    Gate: the weights must be non-lattice.  Weights on the ``1/scale``
    lattice (``lattice_scale`` is not ``None``) are refused before any
    spectral solve, naming ``t = 2 pi scale``, where ``M(it)`` equals
    ``M(0)`` entry by entry, so the spectral gap closes exactly; otherwise
    the gap is scanned over the positive frequencies of ``gate_t_grid``
    (default 0.1 to 20, step 0.05; at ``t = 0`` the gap is zero for every
    weight) and any gap at or below 1e-9 refuses with that witness.  A
    vanishing-gap frequency means sphere masses concentrate on an
    arithmetic progression, where interval counts oscillate instead of
    settling to the continuous profile.

    Per ``n``: ``q_n = sqrt(n) * count(phi in [a + n tau, b + n tau]) /
    #W_n`` from the binned enumeration (bin at most ``(b - a)/50``), against
    the target ``L = (b - a) / (sqrt(2 pi) sigma)``, every count from one
    join of the engine (``_window_counts``).  The interval is recentred by
    ``n`` times the drift ``tau``, so it follows the center of the
    distribution (with drift 0 it does not move).  Checks:
    ``|q_n / L - 1| <= 0.1`` at the largest ``n`` and the deviation trends
    downward; a zero-length interval checks ``q_n`` against one bin's mass.

    Raises
    ------
    PreconditionError
        On a lattice witness, or degenerate variance.
    InvalidArgumentError
        If an interval end is not finite, ``a > b``, the bin width exceeds
        ``(b - a)/50``, or the gate grid has no positive frequency.
    """
    _require_scalar(weights, "llt_check")
    sigma = _require_nondegenerate(stats, "llt_check")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidArgumentError(f"interval ends must be finite: a = {a!r}, b = {b!r}")
    if a > b:
        raise InvalidArgumentError(f"empty interval: a = {a!r} > b = {b!r}")
    grid = _sorted_grid(n_grid)

    # M(i*0) = M(0), so the gap at t <= 0 is zero for every weight
    gate = _default_gate_grid() if gate_t_grid is None else gate_t_grid
    gate = sorted(t for t in gate if t > 0.0)
    if not gate:
        raise InvalidArgumentError("gate grid must contain positive frequencies")

    scale = lattice_scale(weights)
    if scale is not None:
        raise PreconditionError(
            f"lattice-type weights: every weight is a multiple of 1/{scale}, so "
            f"at frequency t = {2.0 * math.pi * scale!r} the complex transfer "
            "matrix equals the real one entry by entry; the weight concentrates "
            "on an arithmetic progression and the continuous local limit does "
            "not apply"
        )
    gate_points = nonlattice_gap(coding, weights, stats.component, gate)
    for point in gate_points:
        if point.gap <= LATTICE_WITNESS_GAP:
            raise PreconditionError(
                f"lattice-type weights: at frequency t = {point.t!r} the "
                f"complex transfer matrix has spectral radius within {point.gap:.3e} "
                "of the growth rate, so the weight concentrates on an arithmetic "
                "progression and the continuous local limit does not apply"
            )
    min_gap = min(p.gap for p in gate_points)
    argmin_t = min(gate_points, key=lambda p: p.gap).t

    # (b - a)/50 is the contract cap; the default stays at half of it
    # because a bin at the cap resolves the interval endpoints through a
    # coarser rational approximation of irrational weight ratios, which
    # misselects boundary lattice points and distorts the trend in q_n
    max_width = (b - a) / 50.0 if b > a else sigma / 50.0
    width = max_width / 2.0 if bin_width is None else float(bin_width)
    if b > a and width > max_width * (1.0 + 1e-12):
        raise InvalidArgumentError(
            f"bin width {width!r} exceeds (b - a)/50 = {max_width!r}"
        )
    if not width > 0.0:
        raise InvalidArgumentError(f"bin width must be positive, got {width!r}")

    # the interval recentred by n * drift at each n; bin q is counted if its
    # value passes lo_n - fuzz <= q * width <= hi_n + fuzz in floats, and the
    # rounded q * width never falls as q grows, so those bins are one range
    drift = stats.drift[0]
    lo, hi = [], []
    for n in grid:
        lo_n, hi_n = a + n * drift, b + n * drift
        fuzz = 1e-12 * max(1.0, abs(lo_n), abs(hi_n))
        first, last = math.floor((lo_n - fuzz) / width) - 1, math.ceil((hi_n + fuzz) / width) + 1
        while first * width < lo_n - fuzz:
            first += 1
        while last * width > hi_n + fuzz:
            last -= 1
        lo.append(first)
        hi.append(last)
    counts, totals = _window_counts(coding, weights, grid, width, lo, hi)
    target = (b - a) / (math.sqrt(2.0 * math.pi) * sigma)
    rows = []
    q_values = []
    for n, count, total in zip(grid, counts, totals):
        q_n = math.sqrt(n) * (count / total)
        q_values.append(q_n)
        rows.append(
            {
                "n": n,
                "observed": q_n,
                "predicted": target,
                "residual": q_n - target,
                "count": str(count),
            }
        )
    if target > 0.0:
        deviations = [abs(q / target - 1.0) for q in q_values]
        first_q, last_q = _quartiles(deviations)
        trend_lhs, trend_rhs = max(last_q), max(first_q) + 1e-12
        checks = [
            _check(
                "llt-accuracy",
                deviations[-1],
                "<=",
                0.1,
                "relative gap |q_n / L - 1| at the largest n",
            ),
            _check(
                "llt-trend",
                trend_lhs,
                "<=",
                trend_rhs,
                "deviation from the target trends downward along the grid",
            ),
        ]
    else:
        one_bin = 2.0 * width / (math.sqrt(2.0 * math.pi) * sigma)
        checks = [
            _check(
                "llt-zero-target",
                q_values[-1],
                "<=",
                one_bin + 1e-12,
                "zero-length interval: q_n at the largest n against the "
                "mass of a single bin",
            )
        ]
    return _finalize(
        law="llt",
        params={
            "interval": [a, b],
            "n_grid": grid,
            "bin_width": width,
            "gate": {"min_gap": min_gap, "argmin_t": argmin_t},
        },
        n_grid=grid,
        rows=rows,
        theory={
            "target": target,
            "sigma2": stats.sigma2,
            "sigma": sigma,
            "drift": drift,
            "entropy": stats.entropy,
        },
        tolerances={"rel": 0.1, "gap_witness": LATTICE_WITNESS_GAP},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Degeneracy criterion
# ---------------------------------------------------------------------------


def degeneracy_check(
    coding: MarkovCoding,
    weights: WeightAssignment,
    stats: LimitStatistics,
    n_cap: int,
) -> LimitLawReport:
    """Two independent degeneracy verdicts that must agree.

    Verdict one is spectral: the clamped variance ``sigma^2`` is below the
    degeneracy threshold.  Verdict two is exact enumeration: the range
    width of the weight over spheres stays bounded, operationalized as
    ``width(n_cap) <= width(n_cap / 2) + 1e-9``.  Zero asymptotic variance
    is equivalent to the recentered weight ``phi - drift * |.|`` having
    bounded range over all spheres; at fixed ``n`` recentering shifts every
    value by the same ``drift * n``, so raw sphere widths are compared (no
    float recentering enters the exact lattice arithmetic).

    Raises
    ------
    InconsistencyError
        If the verdicts disagree (never expected on valid inputs; such a
        disagreement would falsify the variance-range equivalence).
    """
    _require_scalar(weights, "degeneracy_check")
    if n_cap < 2:
        raise InvalidArgumentError(f"n_cap must be >= 2, got {n_cap}")
    half = n_cap // 2
    spectral_degenerate = stats.degenerate

    span_values = [vec[0] for vec in weights.edge_values.values()]
    span = max(span_values) - min(span_values) if span_values else 0.0
    allowance = 1e-9
    widths = [0.0, 0.0]
    # constant weights give every sphere a single value; lattice weights
    # enumerate exactly and ignore the bin width
    if span > 0.0:
        dists = distribution_sweep(coding, weights, [half, n_cap], n_cap * span / 2000.0)
        widths = [
            float(d.exact_value(d.support_scaled[-1]) - d.exact_value(d.support_scaled[0]))
            if d.support_scaled
            else 0.0
            for d in dists
        ]
        # real weights enumerate through a bin lattice; widen the
        # comparison by the worst-case quantization drift
        allowance += 2.0 * n_cap * (dists[0].bin_width or 0.0)
    range_degenerate = widths[1] <= widths[0] + allowance

    if range_degenerate != spectral_degenerate:
        raise InconsistencyError(
            f"degeneracy verdicts disagree: spectral variance {stats.sigma2!r} "
            f"says {'degenerate' if spectral_degenerate else 'non-degenerate'} "
            f"but sphere range widths {widths[0]!r} -> {widths[1]!r} say "
            f"{'bounded' if range_degenerate else 'growing'}; zero asymptotic "
            "variance must coincide with bounded recentered range"
        )
    agree_detail = (
        f"spectral verdict ({'degenerate' if spectral_degenerate else 'non-degenerate'}) "
        f"matches the exact range verdict (widths {widths[0]!r} -> {widths[1]!r})"
    )
    growth = "bounded" if spectral_degenerate else "growing"
    checks = [
        _check("verdicts-agree", 1.0, ">=", 1.0, agree_detail),
        _check(
            f"range-{growth}",
            widths[1],
            "<=" if spectral_degenerate else ">",
            widths[0] + allowance,
            f"range width at n_cap against n_cap/2 ({growth} range)",
        ),
    ]
    rows = [
        {"n": half, "observed": widths[0], "predicted": 0.0, "residual": widths[0]},
        {"n": n_cap, "observed": widths[1], "predicted": 0.0, "residual": widths[1]},
    ]
    return _finalize(
        law="degeneracy",
        params={"n_cap": n_cap},
        n_grid=[half, n_cap],
        rows=rows,
        theory={
            "sigma2": stats.sigma2,
            "drift": stats.drift[0],
            "degenerate": bool(spectral_degenerate),
            "note": (
                "zero spectral variance is equivalent to the recentered "
                "weight having bounded range over word spheres; both "
                "certificates are computed independently"
            ),
        },
        tolerances={"spectral": 1e-8, "range_slack": allowance},
        checks=checks,
    )
