"""Transfer matrices and their spectral data: pressure, drift, covariance.

For a maximal component ``C_i`` of a coding, the transfer matrix ``M_i(s)``
lives on the component's mask (all core vertices except the other maximal
components) and has entry ``exp(<s, w(u, v)>)`` on each allowed edge, where
``w`` is the weight vector of the edge.  Everything downstream is spectral
data of this family:

* pressure ``P(s) = log`` (Perron root of ``M_i(s)``) for real ``s``,
* drift ``Lambda = grad P(0)`` and covariance ``Sigma = Hess P(0)``, one
  record for every weight dimension ``k`` (``sigma^2 = P''(0)`` is the
  case ``k = 1``),
* the non-lattice gap ``e^h - rho(M_i(it))`` for the local limit theorem.

Points and grids take different ``_power`` kernels.  A real Perron root at
one point (``pressure``, the ``limit_statistics`` stencil, the scan's root
at ``s = 0``) comes from shifted power iteration in Python floats on
``M(s)`` built entry by entry with ``math.exp``, the left vector from the
transpose; these paths never import numpy.  A grid is the broadcast
``A * exp(sum_j s_j W_j)`` of shape ``(G, d, d)`` (0/1 mask ``A``, weight
stack ``W``), refused with ``ResourceError`` before it would exceed
``enumerate.BYTE_BUDGET``.  Its real roots (``pressure_grid``) and the
complex radii of an aperiodic component come from a dense eigensolver,
those of a periodic component from a small orthogonal iteration, all
certified by their residuals; complex radii are always cross-validated
against the measured growth rate of ``||M^200 x||``.  Derivatives of the
pressure are computed both by first-order perturbation theory and by
central differences, and the two routes must agree.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from ._power import eig_modulus_batch, growth_log_batch, modulus_batch, perron_point
from .coding import ComponentDecomposition, MarkovCoding
from .enumerate import BYTE_BUDGET
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
    return tuple(x.real for x in vec)


def _non_finite(name: str, coords: Sequence[float]) -> NumericalError:
    at = coords[0] if len(coords) == 1 else tuple(coords)
    return NumericalError(
        f"M({'it' if name == 't' else 's'}) has a non-finite entry at {name}={at!r}; "
        f"the weights times {name} are too large for exp"
    )


class _ComponentArrays(NamedTuple):
    """One maximal component's masked vertex set and its edges ``(u, v, w)``:
    row, column and weight vector."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, tuple[float, ...]], ...]

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

    def matrices(self, grid: np.ndarray) -> np.ndarray:
        """``M(s)`` for every row ``s`` of a ``(G, k)`` grid, shape ``(G, d, d)``.

        Raises ``ResourceError`` before allocating when three complex
        stacks (the matrices, the temporaries that build them or ``eig``'s
        input copy, and ``eig``'s eigenvectors) would exceed ``BYTE_BUDGET``,
        and ``NumericalError`` naming the first ``s`` (``t`` of ``s = it``
        for a complex grid) whose matrix has a non-finite entry.
        """
        import numpy as np
        size = len(self.vertices)
        needed = 3 * 16 * len(grid) * size * size
        if needed > BYTE_BUDGET:
            raise ResourceError(
                f"{len(grid)} matrices of size {size} need {needed} bytes, over "
                f"the {BYTE_BUDGET}-byte budget; use a smaller grid"
            )
        mask = np.zeros((size, size))
        weights = np.zeros((grid.shape[1], size, size))
        for u, v, w in self.edges:
            mask[u, v] = 1.0
            weights[:, u, v] = w
        imaginary = np.iscomplexobj(grid)
        # complex exp takes the C library's exp, as math.exp does for a
        # point; numpy's real exp is a SIMD variant whose last bit varies by CPU
        with np.errstate(over="ignore", invalid="ignore"):  # named below
            exponent = np.einsum("gk,kij->gij", grid, weights)
            entries = np.exp(exponent.astype(complex))
            stack = mask * (entries if imaginary else entries.real)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            coords = (grid.imag if imaginary else grid)[np.argmin(finite)]
            raise _non_finite("t" if imaginary else "s", coords.tolist())
        return stack


def _component_arrays(
    coding: MarkovCoding,
    decomposition: ComponentDecomposition,
    weights: WeightAssignment,
    component: int,
) -> _ComponentArrays:
    mask = decomposition.mask_for(component)
    index = {v: j for j, v in enumerate(mask)}
    edges = tuple(
        (index[e.source], index[e.target], weights.edge_values[(e.source, e.target)])
        for e in coding.edges
        if e.source in index and e.target in index
    )
    return _ComponentArrays(vertices=mask, edges=edges)


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
    decomposition: ComponentDecomposition,
    weights: WeightAssignment,
    component: int,
    s: object = 0.0,
) -> PressureReport:
    """Pressure ``P(s) = log lambda(s)`` of one maximal component at real ``s``.

    Returns
    -------
    PressureReport
        With the Perron root, both eigenvectors (the left one solved as the
        right one of the transpose), and the certified residual: the larger
        of the two; ``iterations`` adds up both.
    """
    real = _real_parameter(s, weights.dim)
    arrays = _component_arrays(coding, decomposition, weights, component)
    m = arrays.point(real)
    value, right, iterations, residual = perron_point(m)
    _, left, left_iterations, left_residual = perron_point(list(zip(*m)))
    return PressureReport(
        component=component,
        s=real,
        value=value,
        pressure=math.log(value),
        vertices=arrays.vertices,
        right=tuple(right),
        left=tuple(left),
        iterations=iterations + left_iterations,
        residual=max(residual, left_residual),
    )


def pressure_grid(
    coding: MarkovCoding,
    decomposition: ComponentDecomposition,
    weights: WeightAssignment,
    component: int,
    s_grid: Sequence[object],
) -> list[float]:
    """Pressures ``P(s)`` at real parameters, solved as one batch.

    The largest eigenvalue modulus of a nonnegative matrix is its Perron
    root, so the dense eigensolver's certified moduli serve.  Each value is
    within 1e-12 of ``pressure(..., s).pressure``; no eigenvectors are kept.
    """
    import numpy as np
    arrays = _component_arrays(coding, decomposition, weights, component)
    grid = np.array(s_grid, dtype=float).reshape(-1, weights.dim)
    return [math.log(lam) for lam in eig_modulus_batch(arrays.matrices(grid))[0].tolist()]


def _stencil_roots(
    arrays: _ComponentArrays, points: Sequence[Sequence[float]]
) -> tuple[float, list[float], dict[tuple[float, ...], float]]:
    """Perron root and perturbation drift at ``s = 0``, and roots at ``points``.

    The transpose at ``s = 0`` supplies the left vector ``u``, and
    ``grad P(0) = u . (W_j v) / (lambda u . v)`` per coordinate, where
    ``W_j`` is the derivative of ``M(s)`` in ``s_j`` at ``s = 0``: the
    weights' ``j``-th coordinates on the edges.
    """
    zero = arrays.point([0.0] * len(points[0]))
    lam0, right, _, _ = perron_point(zero)
    left = perron_point(list(zip(*zero)))[1]
    uv = sum(map(mul, left, right))
    drift = [
        math.fsum(left[u] * w[j] * right[v] for u, v, w in arrays.edges) / (lam0 * uv)
        for j in range(len(points[0]))
    ]
    return lam0, drift, {p: perron_point(arrays.point(p))[0] for p in points}


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
    decomposition: ComponentDecomposition,
    weights: WeightAssignment,
    component: int | None = None,
) -> LimitStatistics:
    """Drift vector and covariance matrix of a weight on one maximal component.

    The drift is first-order perturbation theory per coordinate, verified
    against a central difference of the pressure (agreement within 1e-7 is
    required).  The Hessian of the pressure comes from Richardson-
    extrapolated second differences in a cancellation-safe product form
    (diagonal) and four-point cross stencils (off-diagonal), symmetrized.
    Each stencil point is one ``perron_point`` solve in Python floats.

    Scalar weights are the case ``k = 1``: ``covariance`` is the 1 x 1
    matrix of ``P''(0)``, also read as ``sigma2``.  ``degenerate`` means
    that a leading principal minor ``m`` of ``Sigma`` is at most
    ``DEGENERACY_CLAMP * max(1, max_j Sigma_jj)^m``; a degenerate scalar
    variance is stored as exactly 0.0.

    Parameters
    ----------
    coding : MarkovCoding
    decomposition : ComponentDecomposition
    weights : WeightAssignment
    component : int, optional
        Defaults to the first maximal component.

    Returns
    -------
    LimitStatistics

    Raises
    ------
    NumericalError
        If the two drift routes disagree.
    """
    idx = decomposition.maximal_indices[0] if component is None else component
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

    points = []
    for j in range(k):
        for step in (h, h2 / 2, h2):
            points += [unit(j, step), unit(j, -step)]
        for l in range(j + 1, k):
            for step in (h2 / 4, h2 / 2):
                for sj, sl in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
                    points.append(pair(j, l, sj * step, sl * step))
    arrays = _component_arrays(coding, decomposition, weights, idx)
    lam0, drift_pert, lam_at = _stencil_roots(arrays, points)

    for j in range(k):
        fd = (
            math.log(lam_at[unit(j, h)]) - math.log(lam_at[unit(j, -h)])
        ) / (2.0 * h)
        if abs(drift_pert[j] - fd) > DRIFT_ROUTE_TOL:
            raise NumericalError(
                f"drift routes disagree in coordinate {j}: perturbation "
                f"{drift_pert[j]!r} vs central difference {fd!r}"
            )

    def diag_entry(j: int, step: float) -> float:
        # cancellation-safe (P(h) - 2 P(0) + P(-h)) / h^2 from Perron roots
        ratio = (lam_at[unit(j, step)] / lam0) * (lam_at[unit(j, -step)] / lam0) - 1.0
        return math.log1p(ratio) / (step * step)

    def cross_entry(j: int, l: int, step: float) -> float:
        def at(sj: float, sl: float) -> float:
            return lam_at[pair(j, l, sj, sl)]

        ratio = (at(step, step) / at(step, -step)) * (
            at(-step, -step) / at(-step, step)
        ) - 1.0
        return math.log1p(ratio) / (4.0 * step * step)

    hess = [[0.0] * k for _ in range(k)]
    for j in range(k):
        hess[j][j] = (4.0 * diag_entry(j, h2 / 2) - diag_entry(j, h2)) / 3.0
        for l in range(j + 1, k):
            # the four-point stencil spans 2*step diagonally, so halved
            # steps give it the same effective spacing as the diagonal
            value = (
                4.0 * cross_entry(j, l, h2 / 4) - cross_entry(j, l, h2 / 2)
            ) / 3.0
            hess[j][l] = hess[l][j] = value
    scale = max(1.0, *(hess[j][j] for j in range(k)))
    degenerate = any(
        minor <= DEGENERACY_CLAMP * scale**m
        for m, minor in enumerate(_leading_minors(hess), 1)
    )
    if degenerate and k == 1:
        hess[0][0] = 0.0
    return LimitStatistics(
        component=idx,
        drift=tuple(drift_pert),
        covariance=tuple(map(tuple, hess)),
        entropy=math.log(lam0),
        lam=lam0,
        degenerate=degenerate,
    )


def component_consistency(
    coding: MarkovCoding,
    decomposition: ComponentDecomposition,
    weights: WeightAssignment,
) -> ComponentConsistencyReport:
    """Compare drift and variance across all maximal components.

    Never raises on disagreement; the report carries the spreads, a
    consistency verdict at tolerance 1e-8, and a diagnostic sentence.
    With a single maximal component the check is vacuous.
    """
    indices = decomposition.maximal_indices
    stats = tuple(
        limit_statistics(coding, decomposition, weights, i) for i in indices
    )
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
    decomposition: ComponentDecomposition,
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
    decomposition : ComponentDecomposition
    weights : WeightAssignment
        Scalar.
    component : int
        A maximal component index.
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
    arrays = _component_arrays(coding, decomposition, weights, component)
    radius0 = perron_point(arrays.point((0.0,)))[0]
    period = decomposition.components[component].period
    ts = np.asarray(t_grid, dtype=float)
    stack = arrays.matrices(1j * ts[:, None])
    points = []
    for t, radius in zip(ts.tolist(), _complex_radii(stack, period)):
        gap = radius0 - radius
        if gap < -1e-9:
            raise NumericalError(
                f"complex spectral radius {radius!r} at t={t!r} exceeds the "
                f"Perron root {radius0!r}; the iteration did not converge"
            )
        points.append(GapPoint(t=t, gap=gap, radius=radius))
    return tuple(points)
