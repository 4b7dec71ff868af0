"""Dominant-eigenvalue machinery shared by the coding and spectral modules.

Three iterative methods and one dense solve:

* real nonnegative matrices: power iteration on ``M + c*I`` with shift
  ``c = max row sum``.  The shift makes the iteration converge even when the
  matrix is periodic (the Perron root of a nonnegative matrix shifts by
  exactly ``c``, while the other peripheral eigenvalues lose their tie).
* complex matrices on an aperiodic support: LAPACK's general eigensolver
  (``np.linalg.eig``) on the whole stack, with the largest ``|lambda|``
  certified by its eigenpair's residual.
* complex matrices on a periodic support: block orthogonal iteration (block
  size 2) on ``M^p`` where ``p`` is a period hint; the projected 2x2
  eigenvalues are evaluated in closed form.  Raising to the ``p``-th power
  collapses a peripheral group ``lambda * exp(2*pi*i*k/p)`` onto the single
  eigenvalue ``lambda^p``, for which the iteration converges geometrically.
* the second method for complex radii: the growth rate of ``||M^200 x||``,
  with ``M^200 x`` formed by binary powering.

Every method takes a stack of matrices of shape ``(G, d, d)``.  The
iterations run in lockstep: a few batched matrix products (and, for the
orthogonal iteration, one batched QR) per step advance every point of a
parameter grid.  The stopping rules apply per point: each point keeps its
own best residual, iteration count and stagnation counter, and leaves the
batch when it converges, so a point's result does not depend on the rest of
the batch.  A single matrix is a batch of one.

The iterations aim for residual 1e-13 so that downstream second differences
of the pressure keep enough accuracy; the contractual bound callers may rely
on is ``RESIDUAL_CONTRACT``, which the dense solve checks directly.  A point
whose best residual has not improved for ``_STAGNATION_WINDOW`` steps stops
there: it is accepted when within the contract and raises
``NumericalError`` otherwise.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import NumericalError

RESIDUAL_CONTRACT = 1e-12
_RESIDUAL_TARGET = 1e-13
_MAX_ITERATIONS = 1_000_000
_STAGNATION_WINDOW = 64
_COMPLEX_SEED = 20240817
_GROWTH_STEPS = 200


class _BestSoFar:
    """Per-point best iterate and stopping rule of a lockstep iteration.

    Points flagged ``zero`` are done at once with value 0.  ``offer`` takes
    one step's values and residuals for the ``live`` points and returns the
    masks (over ``live``) of the points that improved and that keep going.
    """

    def __init__(self, method: str, zero: np.ndarray) -> None:
        self.method = method
        self.live = np.flatnonzero(~zero)
        self.value = np.zeros(len(zero))
        self.residual = np.where(zero, 0.0, np.inf)
        self.iterations = np.zeros(len(zero), dtype=int)
        self._since = np.zeros(len(zero), dtype=int)

    def offer(self, iteration: int, value, residual) -> tuple[np.ndarray, np.ndarray]:
        live = self.live
        better = residual < self.residual[live]
        won = live[better]
        self.value[won] = value[better]
        self.residual[won] = residual[better]
        self.iterations[won] = iteration
        self._since[live] = np.where(better, 0, self._since[live] + 1)
        best = self.residual[live]
        converged = best <= _RESIDUAL_TARGET
        stalled = (self._since[live] >= _STAGNATION_WINDOW) | (iteration == _MAX_ITERATIONS)
        failed = np.flatnonzero(stalled & (best > RESIDUAL_CONTRACT))
        if len(failed):
            at = live[failed[0]]
            raise NumericalError(
                f"{self.method} did not reach residual {RESIDUAL_CONTRACT:g} "
                f"after {iteration} iterations (best residual "
                f"{self.residual[at]:.3e} at iteration {self.iterations[at]})"
            )
        stay = ~(converged | stalled)
        self.live = live[stay]
        return better, stay


def perron_batch(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Perron roots and right vectors of a stack ``(G, d, d)`` of nonnegative matrices.

    Returns
    -------
    (values, vectors, iterations, residuals)
        Shapes ``(G,)``, ``(G, d)``, ``(G,)``, ``(G,)``; vectors are
        nonnegative with 1-norm one, residuals ``max|Mv - lam*v| / max|v|``.
        A zero matrix has root 0 and the uniform vector.
    """
    m = np.asarray(stack, dtype=float)
    count, dim = m.shape[0], m.shape[-1]
    vectors = np.full((count, dim), 1.0 / max(dim, 1))
    shift = m.sum(axis=2).max(axis=1, initial=0.0)
    state = _BestSoFar("power iteration", shift == 0.0)
    live = state.live
    matrix = m[live]
    shifted = matrix + shift[live, None, None] * np.eye(dim)
    x = vectors[live]
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if not len(live):
            break
        y = (shifted @ x[..., None])[..., 0]
        x = y / y.sum(axis=1, keepdims=True)
        mx = (matrix @ x[..., None])[..., 0]
        # Rayleigh quotient x.Mx / x.x, row by row
        value = (x[:, None] @ mx[..., None])[:, 0, 0] / (x[:, None] @ x[..., None])[:, 0, 0]
        residual = np.abs(mx - value[:, None] * x).max(axis=1) / np.abs(x).max(axis=1)
        better, stay = state.offer(iteration, value, residual)
        vectors[live[better]] = x[better]
        live, matrix, shifted, x = live[stay], matrix[stay], shifted[stay], x[stay]
    return state.value, vectors, state.iterations, state.residual


def _modulus(z: np.ndarray) -> np.ndarray:
    """``|z|`` by the C library's hypot; numpy's complex abs varies by CPU."""
    return np.hypot(z.real, z.imag)


def eig_modulus_batch(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue moduli of a stack ``(G, d, d)`` by dense ``eig``.

    Returns ``(moduli, residuals)`` of shape ``(G,)``; a nilpotent matrix
    gives 0.  Each modulus is the largest ``|lambda|`` (by hypot), and its
    eigenpair's residual ``max|M v - lambda v| / (max|v| * max(1, |lambda|))``
    above ``RESIDUAL_CONTRACT``, or a LAPACK failure, raises
    ``NumericalError``.
    """
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
    m = np.asarray(stack, dtype=complex)
    dim = m.shape[-1]
    p = max(1, int(period_hint))
    n = np.linalg.matrix_power(m, p) if p > 1 else m
    zero = np.abs(n).max(axis=(1, 2), initial=0.0) == 0.0
    state = _BestSoFar("block orthogonal iteration", zero)
    block = min(dim, 2)
    rng = np.random.default_rng(_COMPLEX_SEED)
    q0 = rng.standard_normal((dim, block)) + 1j * rng.standard_normal((dim, block))
    live = state.live
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
        _, stay = state.offer(iteration, mu, res)
        live, n, nq = live[stay], n[stay], nq[stay]
    return state.value ** (1.0 / p), state.iterations, state.residual


def growth_start(dim: int) -> np.ndarray:
    """The growth check's fixed complex start vector of length ``dim``.

    Drawn from the standard library's generator, which numpy has already
    imported, so the check does not load ``numpy.random``.
    """
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
