"""Transfer matrices and their spectral data: pressure, drift, covariance.

For a maximal component ``C_i`` of a coding, the transfer matrix ``M_i(s)``
lives on the component's mask (the reachable core minus the other maximal
components) and has entry ``exp(<s, w(u, v)>)`` on each allowed edge, where
``w`` is the weight vector of the edge.  Everything downstream is spectral
data of this family:

* pressure ``P(s) = log`` (Perron root of ``M_i(s)``) for real ``s``,
* drift ``Lambda = grad P(0)`` and covariance ``Sigma = Hess P(0)``, one
  record for every weight dimension ``k`` (``sigma^2 = P''(0)`` is the
  case ``k = 1``),
* the non-lattice gap ``e^h - rho(M_i(it))`` for the local limit theorem.

Each public function takes ``(coding, weights, ...)``; a ``component``
argument is an index into ``decompose_components(coding)``.  Every solve
reads one ``_Component`` record (index, masked vertices, edges and period),
which ``_component`` builds from a single decomposition, deriving the mask
from its components.

Real and complex parameters take different ``_power`` kernels.  Every real
Perron root (``pressure``, the ``limit_statistics`` stencil, the scan's root
at ``s = 0``, and the points that ``ldt``'s Legendre search visits) comes
from shifted power iteration in Python floats on ``M(s)`` built entry by
entry with ``math.exp`` (``_Component.point``); ``_Component.solve`` adds
the left vector from the transpose.  These paths never import numpy.  A frequency scan stacks ``M(it) = A * exp(itW)`` of a
scalar weight (0/1 mask ``A``, weight matrix ``W``) over its real
frequencies ``t``, shape ``(G, d, d)``, refused with ``ResourceError``
before it would exceed ``coding.BYTE_BUDGET``.  Its complex radii come
from a dense eigensolver on an aperiodic component and from a small
orthogonal iteration on a periodic one, all certified by their residuals
and cross-validated against the measured growth rate of ``||M^200 x||``.
Derivatives of the pressure are computed both by first-order perturbation
theory and by central differences, and the two routes must agree.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from ._power import eig_modulus_batch, growth_log_batch, modulus_batch, perron_point
from .coding import BYTE_BUDGET, MarkovCoding, decompose_components
from .errors import InvalidArgumentError, NumericalError, ResourceError
from .weights import WeightAssignment

if TYPE_CHECKING:
    import numpy as np

#: agreement required between perturbation-theory and finite-difference drift
DRIFT_ROUTE_TOL = 1e-7
#: a leading principal minor ``m`` of the covariance at or below this times
#: ``max(1, max_j Sigma_jj)^m`` makes the statistics degenerate
DEGENERACY_CLAMP = 1e-8
#: step for drift central differences
_DRIFT_STEP = 1e-4
#: base step for the Richardson-extrapolated second differences
_VARIANCE_STEP = 1e-2
#: log-scale agreement required between the two complex-radius methods
_GROWTH_VALIDATION_TOL = 0.06


class PressureReport(NamedTuple):
    """Perron data of ``M_i(s)`` at a real parameter.

    ``value`` is the Perron root ``lambda(s)`` and ``pressure`` its log;
    ``left``/``right`` are the strictly positive eigenvectors (aligned with
    ``vertices``), and ``residual`` certifies them.
    """

    component: int
    s: tuple[float, ...]
    value: float
    pressure: float
    vertices: tuple[str, ...]
    right: tuple[float, ...]
    left: tuple[float, ...]
    iterations: int
    residual: float


class LimitStatistics(NamedTuple):
    """Drift and covariance of one weighted maximal component, for any ``k``.

    Attributes
    ----------
    component : int
    drift : tuple of float
        ``Lambda = grad P(0)``, length ``k``.
    covariance : tuple of tuple of float
        ``Sigma = Hess P(0)``, ``k x k``; a degenerate scalar variance is
        stored as exactly 0.0.
    entropy : float
        ``h = P(0)``, the log of the component growth rate.
    lam : float
        The growth rate ``lambda = e^h``.
    degenerate : bool
        ``Sigma`` fails the leading-principal-minor test for positive
        definiteness.
    """

    component: int
    drift: tuple[float, ...]
    covariance: tuple[tuple[float, ...], ...]
    entropy: float
    lam: float
    degenerate: bool

    @property
    def sigma2(self) -> float:
        """The variance ``P''(0)`` of a scalar weight (``k = 1`` only)."""
        if len(self.drift) != 1:
            raise InvalidArgumentError(
                f"sigma2 is defined for scalar weights; these statistics have "
                f"dimension {len(self.drift)}"
            )
        return self.covariance[0][0]


class GapPoint(NamedTuple):
    """Non-lattice gap at one frequency: ``gap = e^h - rho(M(it))``."""

    t: float
    gap: float
    radius: float


class ComponentConsistencyReport(NamedTuple):
    """Limit statistics of every maximal component, side by side.

    ``consistent`` records whether drifts and variances agree within 1e-8
    across components.  Disagreement does not raise: for a validated group
    coding it indicates a violated structural invariant, while for a
    synthetic graph it simply measures the asymmetry; the diagnostic says
    which reading applies.
    """

    indices: tuple[int, ...]
    statistics: tuple[LimitStatistics, ...]
    max_drift_spread: float
    max_variance_spread: float
    consistent: bool
    diagnostic: str


def _real_parameter(s: object, dim: int) -> tuple[float, ...]:
    if isinstance(s, (int, float, complex)):
        vec = (complex(s),)
    elif isinstance(s, Sequence) and not isinstance(s, (str, bytes)):
        vec = tuple(complex(x) for x in s)
    else:
        raise InvalidArgumentError("parameter s must be a number or a sequence")
    if len(vec) != dim:
        raise InvalidArgumentError(
            f"parameter s has {len(vec)} coordinates, expected {dim}"
        )
    if any(x.imag != 0.0 for x in vec):
        raise InvalidArgumentError("pressure is defined for real parameters only")
    real = tuple(x.real for x in vec)
    if not all(map(math.isfinite, real)):
        at = real[0] if dim == 1 else real
        raise InvalidArgumentError(f"parameter s must be finite, got s={at!r}")
    return real


def _non_finite(name: str, coords: Sequence[float]) -> NumericalError:
    at = coords[0] if len(coords) == 1 else tuple(coords)
    return NumericalError(
        f"M({'it' if name == 't' else 's'}) has a non-finite entry at {name}={at!r}; "
        f"the weights times {name} are too large for exp"
    )


class _Component(NamedTuple):
    """One maximal component: its index, masked vertex set, edges ``(u, v, w)``
    (row, column and weight vector) and period."""

    index: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, tuple[float, ...]], ...]
    period: int

    def point(self, s: Sequence[float]) -> list[list[float]]:
        """``M(s)`` at one real ``s`` as rows of Python floats; raises
        ``NumericalError`` naming ``s`` when an entry is not finite."""
        size = len(self.vertices)
        rows = [[0.0] * size for _ in range(size)]
        for u, v, w in self.edges:
            try:
                entry = math.exp(sum(map(mul, s, w)))
            except OverflowError:
                entry = math.inf
            if not math.isfinite(entry):
                raise _non_finite("s", s)
            rows[u][v] = entry
        return rows

    def solve(
        self, s: Sequence[float]
    ) -> tuple[float, tuple[float, ...], tuple[float, ...], int, float]:
        """``(value, right, left, iterations, residual)`` of ``M(s)`` at one
        real ``s``: the left vector is the right one of the transpose, and
        the iterations and the residual cover both solves."""
        m = self.point(s)
        value, right, iterations, residual = perron_point(m)
        _, left, more, other = perron_point(list(zip(*m)))
        return value, tuple(right), tuple(left), iterations + more, max(residual, other)

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        """``M(it) = A * exp(itW)`` of a scalar weight at every real frequency
        of ``ts`` (0/1 mask ``A``, weight matrix ``W``), shape ``(G, d, d)``.

        Raises ``ResourceError`` before allocating when three complex
        stacks (the matrices, the temporaries that build them or ``eig``'s
        input copy, and ``eig``'s eigenvectors) would exceed ``BYTE_BUDGET``,
        and ``NumericalError`` naming the first ``t`` whose matrix has a
        non-finite entry.
        """
        import numpy as np
        size = len(self.vertices)
        needed = 3 * 16 * len(ts) * size * size
        if needed > BYTE_BUDGET:
            raise ResourceError(
                f"{len(ts)} matrices of size {size} need {needed} bytes, over "
                f"the {BYTE_BUDGET}-byte budget; use a smaller grid"
            )
        mask = np.zeros((size, size))
        weight = np.zeros((size, size))
        for u, v, (w,) in self.edges:
            mask[u, v] = 1.0
            weight[u, v] = w
        with np.errstate(over="ignore", invalid="ignore"):  # named below
            stack = mask * np.exp(1j * ts[:, None, None] * weight)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            raise _non_finite("t", [float(ts[np.argmin(finite)])])
        return stack


def _component(
    coding: MarkovCoding, weights: WeightAssignment, component: int | None = None
) -> _Component:
    """Maximal component ``component`` (by default the first) of the coding,
    on its mask: the reachable core minus the other maximal components, in
    core vertex order."""
    decomposition = decompose_components(coding)
    maximal = decomposition.maximal_indices
    index = maximal[0] if component is None else component
    if index not in maximal:
        raise InvalidArgumentError(
            f"component {index} is not maximal; masks exist only for maximal components"
        )
    kept = {v for i, comp in enumerate(decomposition.components) for v in comp.vertices
            if i == index or i not in maximal}
    mask = tuple(v for v in coding.core_vertices if v in kept)
    position = {v: j for j, v in enumerate(mask)}
    edges = tuple(
        (position[e.source], position[e.target], weights.edge_values[(e.source, e.target)])
        for e in coding.edges
        if e.source in position and e.target in position
    )
    return _Component(index, mask, edges, decomposition.components[index].period)


def _complex_radii(stack: np.ndarray, period_hint: int) -> list[float]:
    """Dominant moduli of a complex stack, each checked by the growth rate;
    dense ``eig`` on an aperiodic support, the iteration on ``M^p`` else."""
    if period_hint == 1:
        moduli = eig_modulus_batch(stack)[0].tolist()
    else:
        moduli = modulus_batch(stack, period_hint)[0].tolist()
    growths = growth_log_batch(stack).tolist()
    for modulus, growth in zip(moduli, growths):
        if modulus <= 1e-8:
            if growth > math.log(1e-6):
                raise NumericalError(
                    "complex spectral radius near zero contradicts the measured "
                    f"growth rate exp({growth:.6f})"
                )
        elif abs(math.log(modulus) - growth) > _GROWTH_VALIDATION_TOL:
            raise NumericalError(
                f"complex spectral radius {modulus!r} failed second-method "
                f"validation: measured growth rate is exp({growth:.6f})"
            )
    return moduli


def pressure(
    coding: MarkovCoding,
    weights: WeightAssignment,
    component: int | None = None,
    s: object = 0.0,
) -> PressureReport:
    """Pressure ``P(s) = log lambda(s)`` of one maximal component (by
    default the first) at real ``s``.

    Returns
    -------
    PressureReport
        With the Perron root, both eigenvectors (the left one solved as the
        right one of the transpose), and the certified residual: the larger
        of the two; ``iterations`` adds up both.
    """
    real = _real_parameter(s, weights.dim)
    comp = _component(coding, weights, component)
    value, right, left, iterations, residual = comp.solve(real)
    return PressureReport(
        component=comp.index,
        s=real,
        value=value,
        pressure=math.log(value),
        vertices=comp.vertices,
        right=right,
        left=left,
        iterations=iterations,
        residual=residual,
    )


def _leading_minors(rows: list[list[float]]) -> list[float]:
    """Leading principal minors: the running products of the pivots of
    Gaussian elimination without row exchanges, cut at a zero pivot."""
    a = [list(row) for row in rows]
    minors = [1.0]
    for c, pivot_row in enumerate(a):
        minors.append(minors[-1] * pivot_row[c])
        if pivot_row[c] == 0.0:
            break
        for r in range(c + 1, len(a)):
            f = a[r][c] / pivot_row[c]
            a[r] = [x - f * y for x, y in zip(a[r], pivot_row)]
    return minors[1:]


def limit_statistics(
    coding: MarkovCoding,
    weights: WeightAssignment,
    component: int | None = None,
) -> LimitStatistics:
    """Drift vector and covariance matrix of a weight on one maximal component.

    The drift is first-order perturbation theory per coordinate, verified
    against a central difference of the pressure (agreement within 1e-7 is
    required).  The Hessian of the pressure comes from Richardson-
    extrapolated second differences in a cancellation-safe product form
    (diagonal) and four-point cross stencils (off-diagonal), symmetrized.
    The Perron root and both vectors at ``s = 0`` come from one two-sided
    solve; every other stencil point is one ``perron_point`` solve in
    Python floats.

    Scalar weights are the case ``k = 1``: ``covariance`` is the 1 x 1
    matrix of ``P''(0)``, also read as ``sigma2``.  ``degenerate`` means
    that a leading principal minor ``m`` of ``Sigma`` is at most
    ``DEGENERACY_CLAMP * max(1, max_j Sigma_jj)^m``; a degenerate scalar
    variance is stored as exactly 0.0.

    Parameters
    ----------
    coding : MarkovCoding
    weights : WeightAssignment
    component : int, optional
        Defaults to the first maximal component of
        ``decompose_components(coding)``.

    Returns
    -------
    LimitStatistics

    Raises
    ------
    NumericalError
        If the two drift routes disagree.
    """
    comp = _component(coding, weights, component)
    k = weights.dim
    h = _DRIFT_STEP
    h2 = _VARIANCE_STEP

    def pair(j: int, l: int, sj: float, sl: float) -> tuple[float, ...]:
        vec = [0.0] * k
        vec[j] = sj
        vec[l] = sl
        return tuple(vec)

    def unit(j: int, scale: float) -> tuple[float, ...]:
        return pair(j, j, scale, scale)

    # grad P(0) = u . (W_j v) / (lambda u . v) per coordinate, from the left
    # and right Perron vectors at s = 0, where W_j holds the weights' j-th
    # coordinates on the edges: the derivative of M(s) in s_j
    lam0, right, left, _, _ = comp.solve((0.0,) * k)
    uv = sum(map(mul, left, right))
    drift_pert = [
        math.fsum(left[u] * w[j] * right[v] for u, v, w in comp.edges) / (lam0 * uv)
        for j in range(k)
    ]

    def lam_at(p: tuple[float, ...]) -> float:
        return perron_point(comp.point(p))[0]

    def diag_entry(j: int, step: float) -> float:
        # cancellation-safe (P(h) - 2 P(0) + P(-h)) / h^2 from Perron roots
        ratio = (lam_at(unit(j, step)) / lam0) * (lam_at(unit(j, -step)) / lam0) - 1.0
        return math.log1p(ratio) / (step * step)

    def cross_entry(j: int, l: int, step: float) -> float:
        def at(sj: float, sl: float) -> float:
            return lam_at(pair(j, l, sj, sl))

        ratio = (at(step, step) / at(step, -step)) * (
            at(-step, -step) / at(-step, step)
        ) - 1.0
        return math.log1p(ratio) / (4.0 * step * step)

    # each stencil point is read, so solved, once, and all before the drift check
    fd = []
    hess = [[0.0] * k for _ in range(k)]
    for j in range(k):
        plus, minus = lam_at(unit(j, h)), lam_at(unit(j, -h))
        fd.append((math.log(plus) - math.log(minus)) / (2.0 * h))
        hess[j][j] = (4.0 * diag_entry(j, h2 / 2) - diag_entry(j, h2)) / 3.0
        for l in range(j + 1, k):
            # the four-point stencil spans 2*step diagonally, so halved
            # steps give it the same effective spacing as the diagonal
            value = (
                4.0 * cross_entry(j, l, h2 / 4) - cross_entry(j, l, h2 / 2)
            ) / 3.0
            hess[j][l] = hess[l][j] = value
    for j in range(k):
        if abs(drift_pert[j] - fd[j]) > DRIFT_ROUTE_TOL:
            raise NumericalError(
                f"drift routes disagree in coordinate {j}: perturbation "
                f"{drift_pert[j]!r} vs central difference {fd[j]!r}"
            )
    scale = max(1.0, *(hess[j][j] for j in range(k)))
    degenerate = any(
        minor <= DEGENERACY_CLAMP * scale**m
        for m, minor in enumerate(_leading_minors(hess), 1)
    )
    if degenerate and k == 1:
        hess[0][0] = 0.0
    return LimitStatistics(
        component=comp.index,
        drift=tuple(drift_pert),
        covariance=tuple(map(tuple, hess)),
        entropy=math.log(lam0),
        lam=lam0,
        degenerate=degenerate,
    )


def component_consistency(
    coding: MarkovCoding,
    weights: WeightAssignment,
) -> ComponentConsistencyReport:
    """Compare drift and variance across all maximal components.

    Never raises on disagreement; the report carries the spreads, a
    consistency verdict at tolerance 1e-8, and a diagnostic sentence.
    With a single maximal component the check is vacuous.
    """
    indices = decompose_components(coding).maximal_indices
    stats = tuple(limit_statistics(coding, weights, i) for i in indices)
    pairs = list(itertools.combinations(stats, 2))
    drift_spread = max(
        (abs(x - y) for p, q in pairs for x, y in zip(p.drift, q.drift)),
        default=0.0,
    )
    var_spread = max(
        (
            abs(x - y)
            for p, q in pairs
            for rp, rq in zip(p.covariance, q.covariance)
            for x, y in zip(rp, rq)
        ),
        default=0.0,
    )
    consistent = drift_spread <= 1e-8 and var_spread <= 1e-8
    if len(indices) <= 1:
        diagnostic = "single maximal component; consistency is vacuous"
    elif consistent:
        diagnostic = "all maximal components share drift and variance"
    else:
        diagnostic = (
            "maximal components disagree; for a validated group coding this "
            "indicates a violated structural invariant, for a synthetic graph "
            "it simply measures the asymmetry"
        )
    return ComponentConsistencyReport(
        indices=indices,
        statistics=stats,
        max_drift_spread=drift_spread,
        max_variance_spread=var_spread,
        consistent=consistent,
        diagnostic=diagnostic,
    )


def nonlattice_gap(
    coding: MarkovCoding,
    weights: WeightAssignment,
    component: int,
    t_grid: Sequence[float],
) -> tuple[GapPoint, ...]:
    """The gap ``e^h - rho(M(it))`` over a grid of frequencies.

    A gap of zero (within 1e-9) at some ``t > 0`` witnesses lattice-type
    weights; a strictly positive gap over the scanned range supports the
    non-lattice hypothesis of the local limit theorem.  Every complex
    radius is cross-validated against the measured power growth rate, so
    near-tie points (gap below 1e-3) are certified by two methods.

    Parameters
    ----------
    coding : MarkovCoding
    weights : WeightAssignment
        Scalar.
    component : int
        A maximal component index of ``decompose_components(coding)``.
    t_grid : sequence of float

    Returns
    -------
    tuple of GapPoint

    Raises
    ------
    NumericalError
        If ``M(it)`` has a non-finite entry (the first such ``t`` is
        named), or a complex radius exceeds the real Perron root beyond
        tolerance (impossible in exact arithmetic) or fails second-method
        validation.
    ResourceError
        If the grid's stack of matrices would exceed the byte budget.
    """
    if weights.dim != 1:
        raise InvalidArgumentError("the non-lattice gap is defined for scalar weights")
    import numpy as np
    comp = _component(coding, weights, component)
    radius0 = perron_point(comp.point((0.0,)))[0]
    ts = np.asarray(t_grid, dtype=float)
    stack = comp.matrices(ts)
    points = []
    for t, radius in zip(ts.tolist(), _complex_radii(stack, comp.period)):
        gap = radius0 - radius
        if gap < -1e-9:
            raise NumericalError(
                f"complex spectral radius {radius!r} at t={t!r} exceeds the "
                f"Perron root {radius0!r}; the iteration did not converge"
            )
        points.append(GapPoint(t=t, gap=gap, radius=radius))
    return tuple(points)
