"""Dominant-eigenvalue machinery shared by the coding and spectral modules.

A point and a grid take different kernels:

* one real nonnegative matrix: ``perron_point``, power iteration on
  ``M + c*I`` with shift ``c = max row sum``, in Python floats, so that
  commands which only solve points never import numpy.  The shift makes the
  iteration converge even when the matrix is periodic (the Perron root
  shifts by exactly ``c``, while the other peripheral eigenvalues lose
  their tie).
* a stack ``(G, d, d)`` of complex matrices on an aperiodic support, or of
  real nonnegative ones (whose largest modulus is the Perron root):
  LAPACK's general eigensolver (``np.linalg.eig``), with the largest
  ``|lambda|`` certified by its eigenpair's residual.
* a complex stack on a periodic support: block orthogonal iteration (block
  size 2) on ``M^p`` where ``p`` is a period hint, with the projected 2x2
  eigenvalues in closed form.  The ``p``-th power collapses a peripheral
  group ``lambda * exp(2*pi*i*k/p)`` onto the single eigenvalue
  ``lambda^p``.  The points run in lockstep, each with its own stopping
  rule, so a point's result does not depend on the rest of the batch; the
  rule lives in ``modulus_batch``'s loop, as four per-point arrays (best
  value, its residual and iteration, and the steps since it improved).
* the second method for complex radii: the growth rate of ``||M^200 x||``,
  with ``M^200 x`` formed by binary powering.

The iterations aim for residual 1e-13 so that downstream second differences
of the pressure keep enough accuracy; callers may rely on
``RESIDUAL_CONTRACT``, which the dense solve checks directly.  An iteration
(``perron_point``, or one point of ``modulus_batch``) whose best residual
has not improved for ``_STAGNATION_WINDOW`` steps stops there: it is
accepted within the contract and raises ``NumericalError`` otherwise.
"""

from __future__ import annotations

import math
import random
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .errors import NumericalError

if TYPE_CHECKING:
    import numpy as np

RESIDUAL_CONTRACT = 1e-12
_RESIDUAL_TARGET = 1e-13
_MAX_ITERATIONS = 1_000_000
_STAGNATION_WINDOW = 64
_COMPLEX_SEED = 20240817
_GROWTH_STEPS = 200


def _stall_error(method: str, iteration: int, residual: float, at: int) -> NumericalError:
    return NumericalError(
        f"{method} did not reach residual {RESIDUAL_CONTRACT:g} after "
        f"{iteration} iterations (best residual {residual:.3e} at iteration {at})"
    )


def perron_point(rows: Sequence[Sequence[float]]) -> tuple[float, list[float], int, float]:
    """Perron root and right vector of one nonnegative matrix, as
    ``(value, vector, iterations, residual)``.

    The vector is nonnegative with 1-norm one; the residual is
    ``max|Mv - lam*v| / max|v|``.  The matrix runs as ``M / 2^e``, where
    ``2^e <= max < 2^(e+1)``, so that no step overflows and the residual is
    relative to the largest entry; the value is scaled back, the residual is
    that of ``M / 2^e``.  A zero matrix has root 0 and the uniform vector.
    """
    size = len(rows)
    top = max(map(max, rows), default=0.0)
    exponent = math.frexp(top)[1] - 1 if top > 0.0 else 0
    matrix = [[math.ldexp(a, -exponent) for a in row] for row in rows]
    shift = max([0.0, *map(sum, matrix)])
    x = [1.0 / max(size, 1)] * size
    if shift == 0.0:
        return 0.0, x, 0, 0.0
    shifted = [row[:i] + [row[i] + shift] + row[i + 1 :] for i, row in enumerate(matrix)]
    best, since = (math.inf, 0.0, x, 0), 0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        y = [sum(map(mul, row, x)) for row in shifted]
        total = sum(y)
        if not total > 0.0:  # only a matrix with negative entries gets here
            raise _stall_error("power iteration", iteration, best[0], best[3])
        x = [v / total for v in y]
        mx = [sum(map(mul, row, x)) for row in matrix]
        # Rayleigh quotient x.Mx / x.x
        value = sum(map(mul, x, mx)) / sum(map(mul, x, x))
        residual = max([abs(a - value * b) for a, b in zip(mx, x)]) / max(map(abs, x))
        if residual < best[0]:
            best, since = (residual, value, x, iteration), 0
        else:
            since += 1
        stalled = since >= _STAGNATION_WINDOW or iteration == _MAX_ITERATIONS
        if stalled and best[0] > RESIDUAL_CONTRACT:
            raise _stall_error("power iteration", iteration, best[0], best[3])
        if stalled or best[0] <= _RESIDUAL_TARGET:
            break
    residual, value, vector, iterations = best
    return math.ldexp(value, exponent), vector, iterations, residual


def _modulus(z: np.ndarray) -> np.ndarray:
    """``|z|`` by the C library's hypot; numpy's complex abs varies by CPU."""
    import numpy as np
    return np.hypot(z.real, z.imag)


def eig_modulus_batch(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue moduli of a stack ``(G, d, d)`` by dense ``eig``.

    Returns ``(moduli, residuals)`` of shape ``(G,)``; a nilpotent matrix
    gives 0.  Each modulus is the largest ``|lambda|`` (by hypot), and its
    eigenpair's residual ``max|M v - lambda v| / (max|v| * max(1, |lambda|))``
    above ``RESIDUAL_CONTRACT``, or a LAPACK failure, raises
    ``NumericalError``.
    """
    import numpy as np
    m = np.asarray(stack, dtype=complex)
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed: {exc}") from None
    rows = np.arange(len(m))
    top = _modulus(values).argmax(axis=1)
    lam = values[rows, top]
    v = vectors[rows, :, top]
    moduli = _modulus(lam)
    residuals = np.abs((m @ v[..., None])[..., 0] - lam[:, None] * v).max(axis=1)
    residuals /= np.abs(v).max(axis=1) * np.maximum(1.0, moduli)
    failed = np.flatnonzero(~(residuals <= RESIDUAL_CONTRACT))
    if len(failed):
        at = failed[0]
        raise NumericalError(
            f"dense eigenpair of point {at} has residual {residuals[at]:.3e}, "
            f"above {RESIDUAL_CONTRACT:g}"
        )
    return moduli, residuals


def modulus_batch(
    stack: np.ndarray, period_hint: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Largest eigenvalue moduli of a stack ``(G, d, d)`` of complex matrices.

    ``period_hint`` is the period of the underlying nonnegative support; the
    iteration runs on ``M**period_hint`` so peripheral eigenvalue groups
    coalesce.

    Returns
    -------
    (moduli, iterations, residuals)
        Shapes ``(G,)``.  ``residual`` is the smaller of the single-vector
        residual ``max|N q - mu q| / max|q|`` and the invariant-subspace
        residual, both relative to ``max(1, |mu|)``.  ``M^p = 0`` gives 0.
    """
    import numpy as np
    m = np.asarray(stack, dtype=complex)
    dim = m.shape[-1]
    p = max(1, int(period_hint))
    n = np.linalg.matrix_power(m, p) if p > 1 else m
    zero = np.abs(n).max(axis=(1, 2), initial=0.0) == 0.0
    # per point: the best modulus so far, its residual, its iteration, and
    # the steps since it last improved; a zero matrix is done at once
    value = np.zeros(len(m))
    best = np.where(zero, 0.0, np.inf)
    found = np.zeros(len(m), dtype=int)
    since = np.zeros(len(m), dtype=int)
    block = min(dim, 2)
    rng = np.random.default_rng(_COMPLEX_SEED)
    q0 = rng.standard_normal((dim, block)) + 1j * rng.standard_normal((dim, block))
    live = np.flatnonzero(~zero)
    n = n[live]
    q = np.repeat(np.linalg.qr(q0)[0][None], len(live), axis=0)
    # each step's N q is the next step's block before orthonormalisation
    nq = n @ q
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if not len(live):
            break
        q, _ = np.linalg.qr(nq)
        nq = n @ q
        t = q.conj().transpose(0, 2, 1) @ nq
        q1 = q[:, :, 0]
        lam1 = t[:, 0, 0]
        mu = _modulus(lam1)
        res = np.abs(nq[:, :, 0] - lam1[:, None] * q1).max(axis=1)
        res /= np.abs(q1).max(axis=1) * np.maximum(1.0, mu)
        if block == 2:
            # closed-form eigenvalues tr/2 +- disc of the projected 2x2 block
            tr = t[:, 0, 0] + t[:, 1, 1]
            det = t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] * t[:, 1, 0]
            disc = np.sqrt(tr * tr / 4.0 - det)
            mu_sub = np.maximum(_modulus(tr / 2.0 + disc), _modulus(tr / 2.0 - disc))
            res_sub = np.abs(nq - q @ t).max(axis=(1, 2))
            res_sub /= np.abs(q).max(axis=(1, 2)) * np.maximum(1.0, mu_sub)
            subspace = res_sub < res
            mu = np.where(subspace, mu_sub, mu)
            res = np.where(subspace, res_sub, res)
        better = res < best[live]
        won = live[better]
        value[won], best[won], found[won] = mu[better], res[better], iteration
        since[live] = (since[live] + 1) * ~better
        stalled = (since[live] >= _STAGNATION_WINDOW) | (iteration == _MAX_ITERATIONS)
        failed = live[stalled & (best[live] > RESIDUAL_CONTRACT)]
        if len(failed):
            at = failed[0]
            raise _stall_error("block orthogonal iteration", iteration, best[at], found[at])
        stay = ~(stalled | (best[live] <= _RESIDUAL_TARGET))
        live, n, nq = live[stay], n[stay], nq[stay]
    return value ** (1.0 / p), found, best


def growth_start(dim: int) -> np.ndarray:
    """The growth check's fixed complex start vector of length ``dim``.

    Drawn from the standard library's generator, so the check does not load
    ``numpy.random``.
    """
    import numpy as np
    rng = random.Random(_COMPLEX_SEED + 1)
    return np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)])


def growth_log_batch(stack: np.ndarray) -> np.ndarray:
    """Second method for dominant moduli: ``log ||M^n x||_inf / n``, ``n = 200``.

    Coarse (error ``O(1/n)``) but structurally independent of the orthogonal
    iteration; used to cross-validate near-tie spectral radii.  ``M^n x`` is
    formed by binary powering: the squares ``M^(2^j)`` are kept divided by
    their max-abs entries, whose logs are summed on the side, and ``x`` is
    multiplied by ``M^(2^j)`` for each set bit ``j`` of ``n``.  A matrix
    whose iterate vanishes gets ``-inf``.
    """
    import numpy as np
    m = np.asarray(stack, dtype=complex)
    count, dim = m.shape[0], m.shape[-1]
    x0 = growth_start(dim)
    x = np.repeat((x0 / np.abs(x0).max(initial=0.0))[None], count, axis=0)
    log_norm = np.zeros(count)
    # M^(2^j) = exp(log_scale) * power, row by row
    power, log_scale = m, np.zeros(count)
    bits = _GROWTH_STEPS
    with np.errstate(divide="ignore"):
        while True:
            if bits & 1:
                x = (power @ x[..., None])[..., 0]
                scale = np.abs(x).max(axis=1, initial=0.0)
                log_norm += log_scale + np.log(scale)
                x /= np.where(scale > 0.0, scale, 1.0)[:, None]
            bits >>= 1
            if not bits:
                break
            power = power @ power
            scale = np.abs(power).max(axis=(1, 2), initial=0.0)
            power /= np.where(scale > 0.0, scale, 1.0)[:, None, None]
            log_scale = 2.0 * log_scale + np.log(scale)
    return log_norm / _GROWTH_STEPS
