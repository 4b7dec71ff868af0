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

One engine enumerates every lattice, scalar or vector.  A vertex's count
table is a ``uint64`` array of 48-bit digits, one row per digit and one
column per slot, so a level is a few numpy slice adds: an edge's offset is
the start of a slice, and the 16 spare bits of each digit absorb the sums
of the incoming edges, so carries are propagated only when they could
overflow (every 10 levels on free:2).  Vector values are flattened with
strides, so no coordinate carries into the next, and each axis is divided
by the gcd of its offsets.  The digit count follows the largest sphere
count so far; each target reuses two buffers sized before the first level;
``interval_count_sweep`` keeps, as a slice view, only the slots that can
still reach a remaining window and counts ``#W_n`` from per-vertex path
totals; Python integers are built only for the wanted slots of the wanted
levels; and the buffer bytes are checked against ``BYTE_BUDGET`` before
they are allocated, so oversized requests raise ``ResourceError`` instead
of exhausting memory.

The one deliberate exception to exact counts is ``lattice_masses_2d``,
which uses float64 accumulation for two-dimensional cell masses (exact
below 2**53 paths, relative error about 1e-16 per addition beyond); it
exists only for cell-proportion checks where that error is negligible
against the statistical tolerance, and at their radius (n = 200 on free:2)
it takes about 0.2 s where the exact engine takes about 1 s.
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

#: cap on the bytes of the buffers an exact lattice enumeration allocates,
#: checked before allocating them (see the module docstring)
BYTE_BUDGET = 2**30
#: bits per digit of the exact engine: a uint64 holds one digit and leaves
#: 16 bits for the sums of up to 65535 incoming edges between carries
_DIGIT_BITS = 48
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
#: carries are propagated before a level could push a digit past this (one
#: carry pass then adds at most 2**16 - 1 to a digit without overflow)
_DIGIT_CEILING = 2**64 - 2**16
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
# Digit-plane lattice engine
# ---------------------------------------------------------------------------


def _flatten(transitions: Sequence[tuple[str, str, tuple[int, ...]]], n_max: int):
    """``(edges, step, value, axes)`` of the value lattice flattened with strides.

    Axis ``j`` divides the offsets ``v_j - low_j`` by their gcd ``g_j``, so a
    reachable value is ``L * low_j + g_j * k``.  An edge's offset is
    ``sum_j (v_j - low_j) / g_j * stride_j``, where the strides multiply the
    spans ``n_max * (high_j - low_j) / g_j + 1``; ``step`` bounds the
    offsets, ``value(level, slot)`` decodes a slot to its scaled value, and
    ``axes`` lists ``(low_j, g_j, stride_j, span_j)``.
    """
    axes, stride, step = [], 1, 0
    for j in range(len(transitions[0][2]) if transitions else 1):
        low, high = _value_range(transitions, j)
        g = math.gcd(*(t[2][j] - low for t in transitions)) or 1
        axes.append((low, g, stride, n_max * (high - low) // g + 1))
        step += (high - low) // g * stride
        stride *= axes[-1][3]
    edges = [
        (
            source,
            target,
            sum((v - low) // g * s for v, (low, g, s, _) in zip(vec, axes)),
        )
        for source, target, vec in transitions
    ]
    if len(axes) == 1:
        low, g = axes[0][:2]
        return edges, step, lambda level, i: level * low + g * i, axes
    return edges, step, lambda level, i: tuple(
        level * low + g * ((i // s) % span) for low, g, s, span in axes
    ), axes


def _check_budget(live: int, what: str) -> None:
    if live > BYTE_BUDGET:
        raise ResourceError(
            f"{what} would hold about {live} bytes live, over the "
            f"{BYTE_BUDGET}-byte budget; use a coarser bin or a smaller n"
        )


def _carry(planes: np.ndarray) -> None:
    """Propagate carries in place, so every digit but the top is below 2**48.

    The top digit needs no mask: the planes have enough digits for every
    count they hold, so nothing carries out of it.
    """
    for d in range(len(planes) - 1):
        planes[d + 1] += planes[d] >> _DIGIT_BITS
        planes[d] &= _DIGIT_MASK


def _digit_levels(
    coding: MarkovCoding,
    edges: list[tuple[str, str, int]],
    step: int,
    n_max: int,
    keep: list[tuple[int, int]] | None = None,
) -> Iterator[tuple[int, int, dict[str, np.ndarray], int]]:
    """Digit-plane lattice DP; yields ``(level, first, state, total)``.

    ``state[v]`` is a ``uint64`` array of shape ``(digits, slots)``: column
    ``i`` counts the paths ending at ``v`` in slot ``first + i`` (slot 0 is
    the level's least reachable value) as ``sum_d state[v][d, i] << 48 d``,
    carries not yet propagated.  ``total`` counts every path of the level,
    pruned or not.  ``keep[L]``, when given, is the inclusive slot range
    still needed at level ``L``.  The arrays are views of two buffers per
    target, reused every other level: read or copy them before advancing.
    """
    groups: dict[str, dict[int, list[str]]] = {}
    for source, target, offset in edges:
        groups.setdefault(target, {}).setdefault(offset, []).append(source)
    indegree = max((sum(map(len, g.values())) for g in groups.values()), default=1)
    if indegree >= 2**16:
        raise ResourceError(
            f"a vertex with {indegree} incoming edges could overflow a 64-bit "
            "digit in one level; the exact engine takes in-degrees below 65536"
        )
    counts = sphere_counts(coding, n_max)
    bits = (c.bit_length() for c in counts)
    digits = list(accumulate((-(-b // _DIGIT_BITS) for b in bits), max))
    # the kept range (first, top) and the unpruned width of every level
    first, top, spans = 0, 0, []
    for level in range(n_max + 1):
        if level:
            top += step
        width = top - first + 1
        if keep is not None:
            first = max(first, keep[level][0])
            top = max(first - 1, min(top, keep[level][1]))
        spans.append((first, top, width))
    size = max((digits[L] * spans[L][2] for L in range(1, n_max + 1)), default=0)
    _check_budget(2 * len(groups) * size * 8, "the lattice enumeration")
    buffers = {
        t: (np.empty(size, np.uint64), np.empty(size, np.uint64)) for t in groups
    }
    state = {START_VERTEX: np.ones((1, 1), np.uint64)}
    paths, bound = {START_VERTEX: 1}, 1
    for level, (first, top, width) in enumerate(spans):
        if level:
            if bound * indegree > _DIGIT_CEILING:
                for planes in state.values():
                    _carry(planes)
                bound = _DIGIT_MASK
            rows, nxt, nxt_paths = digits[level], {}, {}
            for target, parts in groups.items():
                sources = [s for p in parts.values() for s in p]
                nxt_paths[target] = sum(paths.get(s, 0) for s in sources)
                live = [
                    (off, srcs)
                    for off, sources in parts.items()
                    if (srcs := [state[s] for s in sources if s in state])
                ]
                if not live:
                    continue
                dst = buffers[target][level % 2][: rows * width].reshape(rows, width)
                # the first offset group writes its region and the rest of
                # dst is zeroed: one pass fewer than zeroing it all first
                (off, srcs), *others = live
                height, w = srcs[0].shape
                dst[:, :off] = 0
                dst[:, off + w :] = 0
                dst[height:, off : off + w] = 0
                region = dst[:height, off : off + w]
                if len(srcs) == 1:
                    np.copyto(region, srcs[0])
                else:
                    np.add(srcs[0], srcs[1], out=region)
                for off, more in [(off, srcs[2:]), *others]:
                    region = dst[:height, off : off + w]
                    for src in more:
                        region += src
                nxt[target] = dst
            state, paths, bound = nxt, nxt_paths, bound * indegree
        if keep is not None:
            drop = first - spans[level - 1][0] if level else first
            state = {v: p[:, drop : drop + top - first + 1] for v, p in state.items()}
        yield level, first, state, sum(paths.values())


def _slot_counts(
    state: dict[str, np.ndarray], a: int, b: int
) -> tuple[list[int], list[int]]:
    """Columns ``a..b`` summed over the vertices: nonzero columns and counts."""
    planes = list(state.values())
    b = min(b, planes[0].shape[1] - 1) if planes else -1
    if b < a:
        return [], []
    acc = np.zeros((planes[0].shape[0], b - a + 1), np.uint64)
    for plane in planes:
        part = plane[:, a : b + 1].copy()
        _carry(part)
        acc += part
        _carry(acc)
    columns = np.flatnonzero(acc.any(axis=0))
    counts = [0] * len(columns)
    for row in acc[::-1, columns].tolist():
        counts = [(c << _DIGIT_BITS) + d for c, d in zip(counts, row)]
    return columns.tolist(), counts


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
    edges, step, value, axes = _flatten(transitions, n_max)
    keep = slots = None
    if windows is not None:
        # each window in slots of its level, then the hull of the slots of
        # level L that can still reach a window
        low, g = axes[0][:2]
        slots = {
            n: (-((n * low - lo) // g), (hi - n * low) // g)
            for n, (lo, hi) in windows.items()
        }
        keep = []
        for L in range(n_max + 1):
            ends = [(a - (n - L) * step, b) for n, (a, b) in slots.items() if n >= L]
            keep.append((min(e[0] for e in ends), max(e[1] for e in ends)))
    out, wanted = [], set(order)
    for level, first, state, total in _digit_levels(coding, edges, step, n_max, keep):
        if level not in wanted:
            continue
        a, b = 0, level * step
        if slots is not None:
            # cut this level's own window out of the reach hull
            a, b = slots[level]
        a = max(a - first, 0)
        columns, counts = _slot_counts(state, a, b - first)
        raw = {value(level, first + a + i): c for i, c in zip(columns, counts)}
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
    targets = dict.fromkeys(t for _s, t, _v in transitions)
    _check_budget(r1 * r2 * 8 * (2 * len(targets) + 1), "the 2-d cell masses")
    buffers = {t: (np.empty(r1 * r2), np.empty(r1 * r2)) for t in targets}
    state = {START_VERTEX: np.ones((1, 1))}
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
                dst = buffers[target][level % 2][: rows * cols].reshape(rows, cols)
                dst.fill(0.0)
                nxt[target] = dst
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
