"""Exact enumeration over word spheres: distributions, moments, tails.

Every quantity here is a finite sum over the sphere ``W_n`` (group elements
of word length ``n``), computed by dynamic programming over coding paths
with arbitrary-precision integer counts end-to-end; probabilities are only
formed at report time.  Three value models are supported:

* exact-lattice - all weight entries are rationals with a small common
  denominator ``scale``; values are tracked as exact integers on the
  ``1/scale`` lattice (this catches integer and dyadic weights such as 1/4
  exactly, while generic floats like 0.1 are honestly treated as real);
* binned-real - scalar real weights are quantized once per edge to a bin
  lattice (round half to even), then enumerated exactly on that lattice,
  so the result is exactly the distribution of a perturbed weight within
  ``n * bin / 2`` of the true one;
* moment accumulation - first and second moments are computed by an exact
  sum recurrence without materializing the distribution.

One packed engine enumerates every lattice, scalar or vector.  A vertex's
count table is one big integer with one limb per slot, so a level is a few
shifts and adds.  Vector values are flattened with strides, so no coordinate
carries into the next; edges sharing a target and an offset are summed
before one shift; limbs hold the largest sphere count so far plus a spare
byte and widen geometrically by a numpy re-stride; ``interval_count_sweep``
drops the slots that can reach no remaining window and counts ``#W_n`` from
per-vertex path totals; and the peak live bytes are checked against
``BYTE_BUDGET`` before the first level, so oversized requests raise
``ResourceError`` instead of exhausting memory.

The one deliberate exception to exact counts is ``lattice_masses_2d``,
which uses float64 accumulation for two-dimensional cell masses (exact
below 2**53 paths, relative error about 1e-16 beyond); it exists only for
cell-proportion checks where that error is negligible against the
statistical tolerance, and at their radius (n = 200 on free:2) it takes
about 0.3 s where the exact engine takes about 4 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .coding import (
    START_VERTEX,
    ZERO_VERTEX,
    ComponentDecomposition,
    MarkovCoding,
    sphere_counts,
)
from .errors import InvalidArgumentError, ResourceError
from .weights import WeightAssignment, lattice_scale, scaled_integer_values

#: cap on the bytes an exact lattice enumeration may hold live at its peak,
#: checked before the first level (see the module docstring)
BYTE_BUDGET = 2**30
#: prune a windowed level only once the slots outside its reach hull are at
#: least 1/_PRUNE_SHARE of the state: a prune copies each packed state twice
#: (shift and mask), while a level transition copies it about three times
_PRUNE_SHARE = 8
#: cap on total words enumerated by the brute-force oracle
_BRUTE_FORCE_GUARD = 10**7
#: denominator of the default bin width for real scalar weights
_DEFAULT_BIN_DENOMINATOR = 200


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentData:
    """Exact moment sums over one sphere.

    ``first[j] = sum phi_j`` and ``second[j][l] = sum phi_j phi_l`` over all
    ``count`` elements; entries are ``int``/``Fraction`` for lattice weights
    and ``float`` for real ones.
    """

    n: int
    dim: int
    count: int
    first: tuple
    second: tuple[tuple, ...]

    def mean(self) -> tuple:
        """Exact mean vector (``Fraction`` entries for lattice weights)."""
        if self.count == 0:
            raise InvalidArgumentError(f"sphere {self.n} is empty")
        return tuple(_exact_div(x, self.count) for x in self.first)


def _exact_div(x: object, d: int) -> object:
    if isinstance(x, float):
        return x / d
    value = Fraction(x) / d
    return int(value) if value.denominator == 1 else value


@dataclass(frozen=True, eq=False)
class WordDistribution:
    """Exact distribution of a weight over one sphere.

    Attributes
    ----------
    n : int
        Word length.
    dim : int
    kind : str
        ``"exact-lattice"`` or ``"binned-real"``.
    support_scaled : tuple
        Sorted lattice coordinates: ints for scalar weights, int tuples for
        vector weights.  Actual values are ``support_scaled / scale`` for
        exact-lattice and ``support_scaled * bin_width`` for binned-real.
    counts : tuple of int
        Arbitrary-precision counts aligned with the support.
    total : int
        Number of paths (``#W_n`` plus overcounting, if any).
    scale : int or None
        Lattice denominator (exact-lattice only).
    bin_width : float or None
        Bin width (binned-real only).
    overcount_multiplicity : int
        ``m - 1`` applied to maximal-avoiding paths (0 for the plain
        distribution).
    """

    n: int
    dim: int
    kind: str
    support_scaled: tuple
    counts: tuple[int, ...]
    total: int
    scale: int | None
    bin_width: float | None
    overcount_multiplicity: int

    @property
    def support(self) -> tuple:
        """Support as floats (value = scaled coordinate over the lattice)."""
        if self.dim == 1:
            return tuple(self._value(q) for q in self.support_scaled)
        return tuple(
            tuple(self._value(q) for q in vec) for vec in self.support_scaled
        )

    def _value(self, q: int) -> float:
        if self.kind == "exact-lattice":
            return q / self.scale
        return q * self.bin_width

    def exact_value(self, q: int) -> Fraction:
        """Exact rational value of one lattice coordinate."""
        if self.kind == "exact-lattice":
            return Fraction(q, self.scale)
        return Fraction(q) * Fraction(self.bin_width)

    def moments(self) -> MomentData:
        """Exact moment sums computed from the support and counts."""
        k = self.dim
        if k == 1:
            rows = [((q,), c) for q, c in zip(self.support_scaled, self.counts)]
        else:
            rows = list(zip(self.support_scaled, self.counts))
        first_raw = [0] * k
        second_raw = [[0] * k for _ in range(k)]
        for vec, c in rows:
            for j in range(k):
                first_raw[j] += c * vec[j]
                for l in range(k):
                    second_raw[j][l] += c * vec[j] * vec[l]
        if self.kind == "exact-lattice":
            denom1, denom2 = self.scale, self.scale**2
            first = tuple(_exact_div(x, denom1) for x in first_raw)
            second = tuple(
                tuple(_exact_div(x, denom2) for x in row) for row in second_raw
            )
        else:
            width = self.bin_width
            first = tuple(float(x) * width for x in first_raw)
            second = tuple(
                tuple(float(x) * width * width for x in row) for row in second_raw
            )
        return MomentData(
            n=self.n, dim=k, count=self.total, first=first, second=second
        )

    def proportions(self) -> tuple[float, ...]:
        """Counts over total as correctly rounded floats."""
        return tuple(c / self.total for c in self.counts)


# ---------------------------------------------------------------------------
# Shift tables and engine scaffolding
# ---------------------------------------------------------------------------


def _quantized_values(
    weights: WeightAssignment, bin_width: float
) -> dict[tuple[str, str], tuple[int, ...]]:
    """Edge values rounded once (half to even) onto the bin lattice."""
    if not (bin_width > 0.0) or not math.isfinite(bin_width):
        raise InvalidArgumentError(f"bin width must be positive, got {bin_width!r}")
    return {
        key: tuple(round(x / bin_width) for x in vec)
        for key, vec in weights.edge_values.items()
    }


def _allowed_vertices(
    coding: MarkovCoding, avoiding: ComponentDecomposition | None
) -> set[str]:
    allowed = set(coding.core_vertices)
    if avoiding is not None:
        for i in avoiding.maximal_indices:
            allowed -= set(avoiding.components[i].vertices)
    return allowed


def _transitions(
    coding: MarkovCoding,
    table: dict[tuple[str, str], tuple[int, ...]],
    allowed: set[str],
) -> list[tuple[str, str, tuple[int, ...]]]:
    """(source, target, value) for every usable non-augmentation edge."""
    out = []
    for edge in coding.nonaugmentation_edges:
        if edge.target not in allowed:
            continue
        if edge.source != START_VERTEX and edge.source not in allowed:
            continue
        out.append((edge.source, edge.target, table[(edge.source, edge.target)]))
    return out


def _value_range(transitions: Sequence[tuple[str, str, tuple[int, ...]]], j: int):
    values = [t[2][j] for t in transitions]
    return (min(values), max(values)) if values else (0, 0)


# ---------------------------------------------------------------------------
# Packed lattice engine
# ---------------------------------------------------------------------------


def _flatten(transitions: Sequence[tuple[str, str, tuple[int, ...]]], n_max: int):
    """``(edges, step, value)`` of the value lattice flattened with strides.

    An edge's offset is ``sum_j (v_j - low_j) * stride_j``, where the strides
    multiply the spans ``n_max * (high_j - low_j) + 1``; ``step`` bounds the
    offsets, and ``value(level, slot)`` decodes a slot to its scaled value.
    """
    axes, stride, step = [], 1, 0
    for j in range(len(transitions[0][2]) if transitions else 1):
        low, high = _value_range(transitions, j)
        axes.append((low, stride, n_max * (high - low) + 1))
        step += (high - low) * stride
        stride *= axes[-1][2]
    edges = [
        (source, target, sum((v - low) * s for v, (low, s, _) in zip(vec, axes)))
        for source, target, vec in transitions
    ]
    if len(axes) == 1:
        return edges, step, lambda level, i: level * axes[0][0] + i
    return edges, step, lambda level, i: tuple(
        level * low + (i // s) % span for low, s, span in axes
    )


def _restride(packed: int, old: int, new: int) -> int:
    """Re-pack ``old``-byte limbs as zero-padded ``new``-byte limbs."""
    slots = -(-packed.bit_length() // (8 * old))
    rows = np.frombuffer(packed.to_bytes(slots * old, "little"), dtype=np.uint8)
    wide = np.zeros((slots, new), dtype=np.uint8)
    wide[:, :old] = rows.reshape(slots, old)
    return int.from_bytes(wide.tobytes(), "little")


def _check_budget(live: int, what: str) -> None:
    if live > BYTE_BUDGET:
        raise ResourceError(
            f"{what} would hold about {live} bytes live, over the "
            f"{BYTE_BUDGET}-byte budget; use a coarser bin or a smaller n"
        )


def _packed_levels(
    coding: MarkovCoding,
    edges: list[tuple[str, str, int]],
    step: int,
    n_max: int,
    keep: list[tuple[int, int]] | None = None,
) -> Iterator[tuple[int, int, dict[str, int], int, int]]:
    """Packed lattice DP; yields ``(level, first, state, limb_bytes, total)``.

    Limb ``i`` of ``state[v]`` counts the paths ending at ``v`` in slot
    ``first + i`` (slot 0 is the level's least reachable value); ``total``
    counts every path of the level, pruned or not.  ``keep[L]``, when given,
    is the inclusive slot range still needed at level ``L``.
    """
    counts = sphere_counts(coding, n_max)
    widths = list(accumulate(((c.bit_length() + 15) // 8 for c in counts), max))
    kept = n_max * step + 1
    if keep is not None:
        kept = max(min(b, L * step) - max(a, 0) + 1 for L, (a, b) in enumerate(keep))
    factor = 2 * len(coding.core_vertices) + 2
    _check_budget(max(kept, 0) * widths[-1] * factor, "the lattice enumeration")
    groups: dict[tuple[str, int], list[str]] = {}
    for source, target, offset in edges:
        groups.setdefault((target, offset), []).append(source)
    limb, first, top = widths[0], 0, 0
    state, paths = {START_VERTEX: 1}, {START_VERTEX: 1}
    for level in range(n_max + 1):
        if level:
            if widths[level] > limb:
                wider = min(widths[-1], max(widths[level], 2 * limb))
                state = {v: _restride(p, limb, wider) for v, p in state.items()}
                limb = wider
            nxt, nxt_paths = {}, {}
            for (target, offset), sources in groups.items():
                count = sum(paths.get(s, 0) for s in sources)
                nxt_paths[target] = nxt_paths.get(target, 0) + count
                present = [state[s] for s in sources if s in state]
                if present:
                    shifted = sum(present[1:], present[0]) << (8 * limb * offset)
                    nxt[target] = nxt[target] + shifted if target in nxt else shifted
            state, paths, top = nxt, nxt_paths, top + step
        if keep is not None:
            lo, hi = keep[level]
            drop = max(0, lo - first)
            if _PRUNE_SHARE * (drop + max(0, top - hi)) > top - first:
                first += drop
                top = max(first - 1, min(top, hi))
                mask = (1 << (8 * limb * (top - first + 1))) - 1
                state = {v: (p >> (8 * limb * drop)) & mask for v, p in state.items()}
                state = {v: p for v, p in state.items() if p}
        yield level, first, state, limb, sum(paths.values())


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def _default_bin_width(
    weights: WeightAssignment, n: int
) -> float:
    spans = [vec[0] for vec in weights.edge_values.values()]
    span = (max(spans) - min(spans)) if spans else 0.0
    if span <= 0.0:
        raise InvalidArgumentError(
            "cannot infer a default bin width for constant weights; pass one"
        )
    return max(1, n) * span / _DEFAULT_BIN_DENOMINATOR


def _plan_distribution(
    weights: WeightAssignment, n: int, bin_width: float | None
) -> tuple[str, int | None, float | None]:
    """Pick (kind, scale, width): lattice weights enumerate exactly."""
    scale = lattice_scale(weights)
    if scale is not None:
        # exact enumeration wins; an explicit bin width is ignored
        return "exact-lattice", scale, None
    if weights.dim != 1:
        raise InvalidArgumentError(
            "real-valued vector weights are not enumerable; only scalar "
            "weights support binning"
        )
    width = bin_width if bin_width is not None else _default_bin_width(weights, n)
    if not (width > 0.0):
        raise InvalidArgumentError(f"bin width must be positive, got {width!r}")
    return "binned-real", None, width


def _sweep(
    coding: MarkovCoding,
    weights: WeightAssignment,
    ns: Sequence[int],
    bin_width: float | None,
    avoiding: ComponentDecomposition | None = None,
    windows: dict[int, tuple[int, int]] | None = None,
) -> list[WordDistribution]:
    """Plan once, run the engine, and decode the sorted distinct radii.

    ``windows`` (scalar weights only) maps each radius to an inclusive
    scaled window: slots that can reach no remaining window are pruned, and
    each distribution keeps only its own window.
    """
    order = sorted(set(ns))
    if order and order[0] < 0:
        raise InvalidArgumentError("sphere radius must be >= 0")
    n_max = order[-1] if order else 1
    kind, scale, width = _plan_distribution(weights, n_max, bin_width)
    if not order:
        return []
    if kind == "exact-lattice":
        table = scaled_integer_values(weights, scale)
    else:
        table = _quantized_values(weights, width)
    transitions = _transitions(coding, table, _allowed_vertices(coding, avoiding))
    edges, step, value = _flatten(transitions, n_max)
    low, high = _value_range(transitions, 0)
    keep = None
    if windows is not None:
        # the hull of the slots of level L that can still reach a window
        keep = []
        for L in range(n_max + 1):
            ends = [
                (lo - (n - L) * high - L * low, hi - (n - L) * low - L * low)
                for n, (lo, hi) in windows.items()
                if n >= L
            ]
            keep.append((min(e[0] for e in ends), max(e[1] for e in ends)))
    out, wanted = [], set(order)
    for level, first, state, limb, total in _packed_levels(
        coding, edges, step, n_max, keep
    ):
        if level not in wanted:
            continue
        packed = sum(state.values())
        if windows is not None:
            # cut this level's own window out of the reach hull
            lo, hi = (q - level * low - first for q in windows[level])
            lo = max(lo, 0)
            mask = (1 << (8 * limb * (hi - lo + 1))) - 1 if hi >= lo else 0
            packed, first = (packed >> (8 * limb * lo)) & mask, first + lo
        slots = -(-packed.bit_length() // (8 * limb))
        view = memoryview(packed.to_bytes(slots * limb, "little"))
        raw = {}
        for i in range(slots):
            count = int.from_bytes(view[i * limb : (i + 1) * limb], "little")
            if count:
                raw[value(level, first + i)] = count
        support = tuple(sorted(raw))
        counts = tuple(raw[q] for q in support)
        dist = (level, weights.dim, kind, support, counts, total, scale, width, 0)
        out.append(WordDistribution(*dist))
    return out


def distribution_sweep(
    coding: MarkovCoding,
    weights: WeightAssignment,
    ns: Sequence[int],
    bin_width: float | None = None,
) -> list[WordDistribution]:
    """Exact distributions of the weight over several spheres, one DP pass.

    Parameters
    ----------
    coding : MarkovCoding
    weights : WeightAssignment
        Lattice weights (rational entries) enumerate exactly and ignore
        ``bin_width``; scalar real weights are quantized to ``bin_width``
        (default: reachable range over 200).
    ns : sequence of int
        Sphere radii, any order; duplicates are collapsed.

    Returns
    -------
    list of WordDistribution
        Sorted by ``n``.
    """
    return _sweep(coding, weights, ns, bin_width)


def interval_count_sweep(
    coding: MarkovCoding,
    weights: WeightAssignment,
    ns: Sequence[int],
    bin_width: float | None,
    lo: Sequence[int],
    hi: Sequence[int],
) -> list[WordDistribution]:
    """Distributions cut to one scaled window per radius, one pruned pass.

    Radius ``ns[i]`` keeps the scaled coordinates in ``[lo[i], hi[i]]``
    (inclusive, on the lattice ``distribution_sweep`` picks for the same
    ``bin_width``); ``total`` is still the full path count ``#W_n``.  Level
    by level the engine drops every slot from which no remaining window is
    reachable, so the work follows the windows, not the whole support.
    Scalar weights only; sorted by ``n``.
    """
    if weights.dim != 1:
        raise InvalidArgumentError("interval counts require scalar weights")
    if not len(ns) == len(set(ns)) == len(lo) == len(hi):
        raise InvalidArgumentError("need one window per distinct radius")
    windows = {int(n): (int(a), int(b)) for n, a, b in zip(ns, lo, hi)}
    return _sweep(coding, weights, ns, bin_width, windows=windows)


def distribution(
    coding: MarkovCoding,
    weights: WeightAssignment,
    n: int,
    bin_width: float | None = None,
) -> WordDistribution:
    """Exact distribution of the weight over the sphere of radius ``n``."""
    return distribution_sweep(coding, weights, [n], bin_width)[0]


def count_avoiding_maximal(
    coding: MarkovCoding, decomposition: ComponentDecomposition, n: int
) -> int:
    """``#N_n``: length-``n`` paths from the start avoiding every maximal component."""
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    allowed = _allowed_vertices(coding, decomposition)
    state: dict[str, int] = {START_VERTEX: 1}
    for _ in range(n):
        nxt: dict[str, int] = {}
        for v, c in state.items():
            for edge in coding.out_edges[v]:
                if edge.target == ZERO_VERTEX or edge.target not in allowed:
                    continue
                nxt[edge.target] = nxt.get(edge.target, 0) + c
        state = nxt
    return sum(state.values())


def distribution_overcounted(
    coding: MarkovCoding,
    decomposition: ComponentDecomposition,
    weights: WeightAssignment,
    n: int,
    bin_width: float | None = None,
) -> WordDistribution:
    """Distribution under the overcounted sphere ``#W_n + (m-1) #N_n``.

    Paths avoiding all ``m`` maximal components are counted ``m`` times in
    total, matching the normalization in which every maximal component
    contributes one copy of the transient part.  With a single maximal
    component this is exactly the plain distribution.
    """
    plain = distribution_sweep(coding, weights, [n], bin_width)[0]
    m = len(decomposition.maximal_indices) - 1
    if m == 0:
        return plain
    avoid = _sweep(coding, weights, [n], bin_width, avoiding=decomposition)[0]
    merged = dict(zip(plain.support_scaled, plain.counts))
    for q, c in zip(avoid.support_scaled, avoid.counts):
        merged[q] = merged.get(q, 0) + m * c
    support = tuple(sorted(merged))
    return replace(
        plain,
        support_scaled=support,
        counts=tuple(merged[q] for q in support),
        total=plain.total + m * avoid.total,
        overcount_multiplicity=m,
    )


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def moment_sweep(
    coding: MarkovCoding, weights: WeightAssignment, ns: Sequence[int]
) -> list[MomentData]:
    """Exact moment sums at several radii by one accumulation pass.

    Lattice weights use integer arithmetic end-to-end (results are ints or
    ``Fraction``); real weights accumulate in floats.
    """
    order = sorted(set(ns))
    if not order:
        return []
    if order[0] < 0:
        raise InvalidArgumentError("sphere radius must be >= 0")
    n_max = order[-1]
    scale = lattice_scale(weights)
    if scale is not None:
        table: dict = scaled_integer_values(weights, scale)
    else:
        table = dict(weights.edge_values)
    k = weights.dim
    transitions = _transitions(coding, table, set(coding.core_vertices))
    zero1 = [0] * k if scale is not None else [0.0] * k
    zero2 = [[x * 0 for x in zero1] for _ in range(k)]

    def fresh() -> list:
        return [0, [x for x in zero1], [list(row) for row in zero2]]

    state: dict[str, list] = {START_VERTEX: fresh()}
    state[START_VERTEX][0] = 1
    results: list[MomentData] = []
    wanted = set(order)

    def snapshot(n: int) -> MomentData:
        count = 0
        first_raw = list(zero1)
        second_raw = [list(row) for row in zero2]
        for c, s1, s2 in state.values():
            count += c
            for j in range(k):
                first_raw[j] += s1[j]
                for l in range(k):
                    second_raw[j][l] += s2[j][l]
        if scale is not None:
            first = tuple(_exact_div(x, scale) for x in first_raw)
            second = tuple(
                tuple(_exact_div(x, scale**2) for x in row) for row in second_raw
            )
        else:
            first = tuple(float(x) for x in first_raw)
            second = tuple(tuple(float(x) for x in row) for row in second_raw)
        return MomentData(n=n, dim=k, count=count, first=first, second=second)

    if 0 in wanted:
        results.append(snapshot(0))
    for level in range(1, n_max + 1):
        nxt: dict[str, list] = {}
        for source, target, value in transitions:
            src = state.get(source)
            if src is None:
                continue
            c_u, s1_u, s2_u = src
            dst = nxt.get(target)
            if dst is None:
                dst = nxt[target] = fresh()
            dst[0] += c_u
            d1, d2 = dst[1], dst[2]
            for j in range(k):
                d1[j] += s1_u[j] + c_u * value[j]
                for l in range(k):
                    d2[j][l] += (
                        s2_u[j][l]
                        + value[j] * s1_u[l]
                        + value[l] * s1_u[j]
                        + c_u * value[j] * value[l]
                    )
        state = nxt
        if level in wanted:
            results.append(snapshot(level))
    return results


def moments(coding: MarkovCoding, weights: WeightAssignment, n: int) -> MomentData:
    """Exact moment sums over the sphere of radius ``n``."""
    return moment_sweep(coding, weights, [n])[0]


# ---------------------------------------------------------------------------
# Weighted sums (partition functions)
# ---------------------------------------------------------------------------


def log_weighted_sum_sweep(
    coding: MarkovCoding, weights: WeightAssignment, t: float, ns: Sequence[int]
) -> list[float]:
    """``log sum_{W_n} exp(t phi)`` at several radii, one rescaled DP pass.

    Scalar weights only; accumulation is float64 with per-level rescaling,
    so results carry relative error of order ``n * 1e-15``.
    """
    if weights.dim != 1:
        raise InvalidArgumentError("weighted sums require scalar weights")
    order = sorted(set(ns))
    if not order:
        return []
    if order[0] < 0:
        raise InvalidArgumentError("sphere radius must be >= 0")
    factors = {
        key: math.exp(t * vec[0]) for key, vec in weights.edge_values.items()
    }
    transitions = [
        (e.source, e.target, factors[(e.source, e.target)])
        for e in coding.nonaugmentation_edges
    ]
    state: dict[str, float] = {START_VERTEX: 1.0}
    log_scale = 0.0
    wanted = set(order)
    out: dict[int, float] = {}
    if order[0] == 0:
        out[0] = 0.0
    for level in range(1, order[-1] + 1):
        nxt: dict[str, float] = {}
        for source, target, f in transitions:
            a = state.get(source)
            if a is not None:
                nxt[target] = nxt.get(target, 0.0) + a * f
        peak = max(nxt.values(), default=0.0)
        if peak == 0.0:
            for n in order:
                if n >= level:
                    out[n] = -math.inf
            break
        if not (1e-100 < peak < 1e100):
            for v in nxt:
                nxt[v] /= peak
            log_scale += math.log(peak)
        state = nxt
        if level in wanted:
            out[level] = math.log(sum(state.values())) + log_scale
    return [out[n] for n in order]


# ---------------------------------------------------------------------------
# Two-dimensional float64 cell masses
# ---------------------------------------------------------------------------


def lattice_masses_2d(
    coding: MarkovCoding, weights: WeightAssignment, n: int
) -> tuple[int, int, int, np.ndarray]:
    """Float64 path-count masses on the 2-d value lattice at radius ``n``.

    Returns ``(base1, base2, scale, masses)`` where ``masses[i, j]`` counts
    paths with scaled value ``(base1 + i, base2 + j)``.  Exact for counts
    below 2**53; beyond that the relative error is about 1e-16, which is
    the documented boundary of this helper (cell proportions only).
    """
    if weights.dim != 2:
        raise InvalidArgumentError("lattice_masses_2d requires 2-d weights")
    scale = lattice_scale(weights)
    if scale is None:
        raise InvalidArgumentError("lattice_masses_2d requires lattice weights")
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    table = scaled_integer_values(weights, scale)
    transitions = _transitions(coding, table, set(coding.core_vertices))
    q1 = _value_range(transitions, 0)
    q2 = _value_range(transitions, 1)
    r1 = n * (q1[1] - q1[0]) + 1
    r2 = n * (q2[1] - q2[0]) + 1
    _check_budget(
        r1 * r2 * 8 * (2 * len(coding.core_vertices) + 2), "the 2-d cell masses"
    )
    state = {START_VERTEX: np.zeros((1, 1))}
    state[START_VERTEX][0, 0] = 1.0
    for level in range(1, n + 1):
        rows = level * (q1[1] - q1[0]) + 1
        cols = level * (q2[1] - q2[0]) + 1
        nxt: dict[str, np.ndarray] = {}
        for source, target, value in transitions:
            src = state.get(source)
            if src is None:
                continue
            dst = nxt.get(target)
            if dst is None:
                dst = nxt[target] = np.zeros((rows, cols))
            i = value[0] - q1[0]
            j = value[1] - q2[0]
            dst[i : i + src.shape[0], j : j + src.shape[1]] += src
        state = nxt
    masses = np.zeros((r1, r2))
    for arr in state.values():
        masses[: arr.shape[0], : arr.shape[1]] += arr
    return n * q1[0], n * q2[0], scale, masses


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_oracle(
    coding: MarkovCoding, weights: WeightAssignment, n_cap: int
) -> list[tuple[int, str, tuple[float, ...]]]:
    """Every word of length at most ``n_cap`` with its weight, by raw search.

    Structurally independent of the dynamic programming: a depth-first walk
    of the coding graph that concatenates labels and sums weights edge by
    edge.  Returns ``(length, word, value)`` triples, identity included.
    The total word count is guarded at 1e7.

    Intended as the ground truth for equivalence tests on small spheres.
    """
    if n_cap < 0:
        raise InvalidArgumentError(f"n_cap must be >= 0, got {n_cap}")
    if sum(sphere_counts(coding, n_cap)) > _BRUTE_FORCE_GUARD:
        raise ResourceError(
            f"brute-force enumeration of {n_cap} spheres exceeds the "
            f"{_BRUTE_FORCE_GUARD} guard"
        )
    k = weights.dim
    out: list[tuple[int, str, tuple[float, ...]]] = []
    stack: list[tuple[str, int, str, tuple[float, ...]]] = [
        (START_VERTEX, 0, "", (0.0,) * k)
    ]
    while stack:
        vertex, length, word, value = stack.pop()
        out.append((length, word, value))
        if length == n_cap:
            continue
        for edge in coding.out_edges[vertex]:
            if edge.target == ZERO_VERTEX:
                continue
            w = weights.edge_values[(edge.source, edge.target)]
            nxt = tuple(a + b for a, b in zip(value, w))
            stack.append((edge.target, length + 1, word + edge.label, nxt))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def distribution_to_json(dist: WordDistribution) -> dict:
    """JSON-ready document; counts are decimal strings to stay exact."""
    if dist.dim == 1:
        support = [str(q) for q in dist.support_scaled]
    else:
        support = [[str(q) for q in vec] for vec in dist.support_scaled]
    return {
        "n": dist.n,
        "dim": dist.dim,
        "kind": dist.kind,
        "scale": dist.scale,
        "bin_width": dist.bin_width,
        "overcount_multiplicity": dist.overcount_multiplicity,
        "support_scaled": support,
        "counts": [str(c) for c in dist.counts],
        "total": str(dist.total),
    }


def distribution_from_json(document: dict) -> WordDistribution:
    """Inverse of ``distribution_to_json`` (lossless round-trip)."""
    dim = int(document["dim"])
    if dim == 1:
        support = tuple(int(q) for q in document["support_scaled"])
    else:
        support = tuple(
            tuple(int(q) for q in vec) for vec in document["support_scaled"]
        )
    scale = document["scale"]
    width = document["bin_width"]
    return WordDistribution(
        n=int(document["n"]),
        dim=dim,
        kind=str(document["kind"]),
        support_scaled=support,
        counts=tuple(int(c) for c in document["counts"]),
        total=int(document["total"]),
        scale=None if scale is None else int(scale),
        bin_width=None if width is None else float(width),
        overcount_multiplicity=int(document["overcount_multiplicity"]),
    )
