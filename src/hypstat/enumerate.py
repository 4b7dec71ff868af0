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

One edge filter, ``_transitions``, lists the edges every DP walks, and one
edge table, ``_edge_table``, gives the distributions each edge's integer
value, exact on the ``1/scale`` lattice or rounded once onto a bin.

One engine enumerates every lattice, scalar or vector.  Values are
enumerated in a reduced basis of the lattice their offsets span (an echelon
basis, pairwise Lagrange-Gauss reduced, then changed while a move lowers
the slots of a level; for scalar weights it is the gcd of the offsets), and
coordinates in that basis are flattened with strides into slots, so no
coordinate carries into the next and the abelianization of free:2 fills its
box exactly.  Every change of basis is integer and unimodular, so the
counts stay exact.  A level holds one row of slot counts per vertex, and an
edge adds its source's row shifted by the edge's offset.

One plan, fixed before the first level, feeds two level loops: per-vertex
path counts give every level's total (``#W_n``) and so its count bits, and
``interval_count_sweep``'s windows give the slots each level keeps.  Each
level is sized as its total arrives, live bytes against ``BYTE_BUDGET`` and
running digit additions against ``_WORK_BUDGET``, so an oversized request
raises ``ResourceError`` before any DP level runs.  Small DPs run on packed
Python ints, one per vertex, of byte-aligned fields wide enough for the
largest total, so no field carries and numpy is never imported.  Large ones
run on ``uint64`` digit planes, one row per 48-bit digit, whose 16 spare
bits absorb the incoming sums between carries (every 10 levels on free:2,
whose targets take 3 edges from targets after level 1), so a level is a few
numpy slice adds.  The plan's count bits choose the loop at a measured
crossover (``_PACKED_BITS``).  Either loop builds Python ints only for the
wanted slots of the wanted levels.

``weighted_counts`` (the cell masses of ``mclt``) runs on the planes and
builds no distribution.  By the Markov property a weighted sum over level
``n`` is ``sum_v <F_L(v), K_{n-L}(v)>``, ``F_L(v)`` the slot counts of the
paths to ``v`` at level ``L`` and ``K_j(v)`` the weighted slot sums of the
continuations of length ``j`` from ``v``.  Digits grow with length, so the
planes run forward to ``L``, and the same loop runs ``K`` for ``n - L``
levels from the slot weights on the transposed offset groups (an edge
``s -> t`` of offset ``o`` read as ``t -> s`` of offset ``step - o``); ``L``
makes the fewest digit additions over both halves, and ``L = n`` is the
single forward pass.  Each vertex's two halves are joined exactly: every
48-bit digit is split into three 16-bit chunks as float64, one matrix
product per block of at most ``2**21`` slots sums their products to
integers below ``2**53``, which no summation order or BLAS kernel can
round, and Python ints recombine the block sums.

A homomorphism is odd under inverting every generator, which permutes the
coding's vertices (a <-> A on free:2) and sends slot ``s`` of level ``L``
to slot ``L * step - s``.  The plan looks for such a mirror in its offsets
alone: an involution ``sigma`` of the targets, fixing the start, with
``groups[sigma t][step - o]`` equal to ``sigma`` of ``groups[t][o]`` for
every target ``t`` and offset ``o``.  Kept windows are widened to their
mirror hulls, and while every level's kept slots are symmetric, induction
on ``L`` gives ``state[sigma v] == state[v][:, ::-1]`` exactly, so the
digit planes compute one target of each pair and read its partner as a
reversed view.  A mirror makes the counts ``C`` of level ``n`` symmetric,
so ``<C, w> = <C, w + w o sigma> / 2``: the backward halves of
``weighted_counts`` start from the symmetrised weight, inherit the mirror,
and join each pair once, counted twice.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import partial
from itertools import accumulate, permutations
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from .coding import (
    BYTE_BUDGET,
    START_VERTEX,
    MarkovCoding,
    _path_totals,
    decompose_components,
)
from .errors import InvalidArgumentError, ResourceError
from .weights import WeightAssignment, lattice_scale, scaled_integer_values

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

#: bits per digit of the exact engine: a uint64 holds one digit and leaves
#: 16 bits for the sums of up to 65535 incoming edges between carries
_DIGIT_BITS = 48
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
#: carries are propagated before a level could push a digit past this (one
#: carry pass then adds at most 2**16 - 1 to a digit without overflow)
_DIGIT_CEILING = 2**64 - 2**16
#: largest ``_Plan.bits`` run on packed ints instead of digit planes.  On
#: free:2 (2-core x86-64, Python 3.11) packed ints took about the planes'
#: time at 2**25.6 bits (scalar n = 200, a plan with no mirror) and 2-3x
#: the mirrored planes' near 2**27 (2-d n = 80, 28-33 against 10-15 ms),
#: less than the ~90 ms numpy import they spare; from 2**32 (llt's windowed
#: sweeps, the single forward pass of a 2-d n = 200 plan) they took 6-19x
#: the mirrored planes'.  ``weighted_counts`` runs on the planes alone
_PACKED_BITS = 2**27
#: cap on one DP's digit additions (digits times kept slots times targets,
#: summed over the levels); the largest shipped plans make about 1e8: llt's
#: windowed sweep on exact-scalar, and mclt's 2-d n = 200 forward plan
#: (8.0e7), charged before its cell masses split it into a forward half to
#: level 90 and one backward half per cell (3.6e7 for the default cell)
_WORK_BUDGET = 2**32
#: denominator of the default bin width for real scalar weights
_DEFAULT_BIN_DENOMINATOR = 200


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------


class MomentData(NamedTuple):
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
    if isinstance(x, int) and x % d == 0:
        return x // d
    from fractions import Fraction
    value = Fraction(x) / d
    return int(value) if value.denominator == 1 else value


class WordDistribution(NamedTuple):
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

    def exact_value(self, q: int) -> int | Fraction:
        """Exact rational value of one lattice coordinate."""
        if self.kind == "exact-lattice":
            return _exact_div(q, self.scale)
        from fractions import Fraction
        return Fraction(q) * Fraction(self.bin_width)

    def moments(self) -> MomentData:
        """Exact moment sums computed from the support and counts."""
        k = self.dim
        vecs = self.support_scaled if k > 1 else [(q,) for q in self.support_scaled]
        rows = list(zip(vecs, self.counts))
        first = [sum(c * v[j] for v, c in rows) for j in range(k)]
        second = [[sum(c * v[j] * v[l] for v, c in rows) for l in range(k)] for j in range(k)]
        if self.kind == "exact-lattice":
            first = [_exact_div(x, self.scale) for x in first]
            second = [[_exact_div(x, self.scale**2) for x in row] for row in second]
        else:
            width = self.bin_width
            first = [float(x) * width for x in first]
            second = [[float(x) * width * width for x in row] for row in second]
        return MomentData(self.n, k, self.total, tuple(first), tuple(map(tuple, second)))


# ---------------------------------------------------------------------------
# Shift tables and engine scaffolding
# ---------------------------------------------------------------------------


def _transitions(
    coding: MarkovCoding, table: dict[tuple[str, str], tuple]
) -> list[tuple[str, str, tuple]]:
    """(source, target, value) for every edge, in edge order."""
    return [(e.source, e.target, table[(e.source, e.target)]) for e in coding.edges]


# ---------------------------------------------------------------------------
# Digit-plane lattice engine
# ---------------------------------------------------------------------------


def _dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))


def _echelon(diffs: list[list[int]], k: int):
    """``(basis, coords)``: an echelon basis of the lattice the diffs span.

    Integer row reduction column by column (the Hermite normal form without
    its reduction above the pivots); ``coords[e]`` are the integer
    coordinates of ``diffs[e]``, read off the pivots by forward substitution.
    """
    rows, basis, pivots = [list(v) for v in diffs], [], []
    for col in range(k):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            pivot = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    r[:] = [a - q * b for a, b in zip(r, pivot)]
            live = [r for r in live if r[col]]
        if live:
            rows = [r for r in rows if r is not live[0]]
            basis.append(live[0])
            pivots.append(col)
    coords = []
    for d in diffs:
        c = []
        for b, p in zip(basis, pivots):
            c.append(d[p] // b[p])
            d = [x - c[-1] * y for x, y in zip(d, b)]
        coords.append(c)
    return basis, coords


def _round_half_even(p: int, q: int) -> int:
    """``round(Fraction(p, q))`` for ``q > 0``, in integer arithmetic."""
    floor, rest = divmod(p, q)
    return floor + (2 * rest > q or (2 * rest == q and floor % 2 == 1))


def _reduced_basis(diffs: list[list[int]], k: int, n_max: int):
    """``(basis, coords)`` of the lattice spanned by ``diffs``, small box.

    Every change is a move ``b_i -= q b_j``, ``c_j += q c_i``, which keeps
    each diff the same vector.  The echelon basis is pairwise reduced
    (Lagrange-Gauss: ``q`` rounds ``<b_i, b_j> / <b_j, b_j>``), then moves
    with ``q = +-1`` are made, the best first, while one lowers the slots
    of a level, ``prod_i (n_max * range_i + 1)`` with ``range_i`` the
    spread of ``c_i`` over the diffs.  Each basis vector's first nonzero
    entry is positive, so a scalar lattice gets ``(gcd of the diffs,)``.
    """
    basis, coords = _echelon(diffs, k)
    pairs = list(permutations(range(len(basis)), 2))

    def move(i: int, j: int, q: int) -> None:
        basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
        for c in coords:
            c[j] += q * c[i]

    def slots(i: int, j: int, q: int) -> int:
        columns = [list(x) for x in zip(*coords)]
        if q:
            columns[j] = [a + q * b for a, b in zip(columns[j], columns[i])]
        return math.prod(n_max * (max(x) - min(x)) + 1 for x in columns)

    reduced = False
    while not reduced:
        reduced = True
        for i, j in pairs:
            q = _round_half_even(_dot(basis[i], basis[j]), _dot(basis[j], basis[j]))
            if q:
                move(i, j, q)
                reduced = False
    while pairs:
        fewest, i, j, q = min((slots(i, j, q), i, j, q) for i, j in pairs for q in (1, -1))
        if fewest >= slots(0, 0, 0):
            break
        move(i, j, q)
    for j, b in enumerate(basis):
        if next(x for x in b if x) < 0:
            basis[j] = [-x for x in b]
            for c in coords:
                c[j] = -c[j]
    return basis, coords


def _flatten(transitions: Sequence[tuple[str, str, tuple[int, ...]]], n_max: int):
    """``(edges, step, decode, origin, basis)`` of the flattened value lattice.

    The offsets ``v_e - v_0`` from the first edge's value have coordinates
    ``c_e`` in the basis ``b_i`` of ``_reduced_basis`` (rank ``r``, so the
    box is ``r``-dimensional).  A value at level ``L`` is ``L * origin +
    sum_i k_i b_i``, ``origin = v_0 + sum_i low_i b_i``, ``low_i = min_e
    c_ei``, ``0 <= k_i <= L * (high_i - low_i)``.  An edge's offset is
    ``sum_i (c_ei - low_i) * stride_i``, the strides multiplying the spans
    ``n_max * (high_i - low_i) + 1``; ``step`` bounds the offsets, and
    ``decode(level, slots)`` decodes slots to one array of exact scaled
    values per axis: ``int64`` when no value of the level can overflow it,
    Python ints otherwise.
    """
    k = len(transitions[0][2]) if transitions else 1
    v0 = transitions[0][2] if transitions else (0,) * k
    diffs = [[a - b for a, b in zip(vec, v0)] for *_, vec in transitions]
    basis, coords = _reduced_basis(diffs, k, n_max)
    axes, stride, step = [], 1, 0
    for i in range(len(basis)):
        low, high = min(c[i] for c in coords), max(c[i] for c in coords)
        axes.append((low, stride, n_max * (high - low) + 1))
        step += (high - low) * stride
        stride *= axes[-1][2]
    origin = [
        v0[t] + sum(low * b[t] for (low, *_), b in zip(axes, basis)) for t in range(k)
    ]
    edges = [
        (source, target, sum((x - low) * s for x, (low, s, _) in zip(c, axes)))
        for (source, target, _vec), c in zip(transitions, coords)
    ]

    def decode(level: int, slots):
        """Exact scaled values per axis: lists of ints for a list of slots;
        for an integer array, ``int64`` arrays or, if they could overflow, ints."""
        if isinstance(slots, list):
            vec = [[level * o] * len(slots) for o in origin]
            for (_low, s, span), b in zip(axes, basis):
                ks = [x // s % span for x in slots]
                vec = [[v + k * bt for v, k in zip(row, ks)] for row, bt in zip(vec, b)]
            return vec
        import numpy as np
        # the largest |value| the level can hold on any axis
        bound = max(
            level * abs(o) + sum(span * abs(b[t]) for (*_, span), b in zip(axes, basis))
            for t, o in enumerate(origin)
        )
        dtype = np.int64 if bound < 2**63 else object
        vec = [np.full(len(slots), level * o, dtype=dtype) for o in origin]
        for (_low, s, span), b in zip(axes, basis):
            ks = ((slots // s) % span).astype(dtype)
            for t in range(k):
                vec[t] += ks * b[t]
        return vec

    return edges, step, decode, origin, basis


class _Plan(NamedTuple):
    """What both level loops share, fixed before the first level.

    ``groups[t][off]`` lists the sources of the edges into ``t`` with offset
    ``off``; ``totals[L]`` counts every path of level ``L``, pruned or not;
    ``spans[L]`` is ``(first, top, width)``: the slots level ``L`` keeps and
    its width before pruning; ``digits[L]`` is the planes' 48-bit digits,
    enough for the largest total so far; ``field`` is the packed ints' bits
    per slot, whole bytes that hold the largest total; ``bits`` is ``field``
    times the slots of every target's levels, the count bits of the DP;
    ``mirror`` maps each target to its partner under the plan's mirror (see
    the module docstring), or is None.
    """

    groups: dict[str, dict[int, list[str]]]
    totals: list[int]
    spans: list[tuple[int, int, int]]
    digits: list[int]
    field: int
    bits: int
    mirror: dict[str, str] | None


def _mirror(groups: dict[str, dict[int, list[str]]], step: int) -> dict[str, str] | None:
    """The mirror of the offset groups, or None if none is found.

    A target's partner is the one target whose offsets and source counts
    are its own reflected (``o -> step - o``); an ambiguous or missing
    partner gives None, and so does a pairing whose sources do not map
    onto the partner's as multisets.  Non-targets map to themselves.
    """
    def signature(target: str, reflect: bool = False) -> tuple:
        parts = groups[target].items()
        return tuple(sorted((step - o if reflect else o, len(s)) for o, s in parts))

    alike: dict[tuple, list[str]] = {}
    for target in groups:
        alike.setdefault(signature(target), []).append(target)
    sigma = {}
    for target in groups:
        match = alike.get(signature(target, reflect=True), [])
        if len(match) != 1:
            return None
        sigma[target] = match[0]
    for target, parts in groups.items():
        image = {step - o: sorted(sigma.get(s, s) for s in srcs) for o, srcs in parts.items()}
        if image != {o: sorted(srcs) for o, srcs in groups[sigma[target]].items()}:
            return None
    return sigma if sigma.get(START_VERTEX, START_VERTEX) == START_VERTEX else None


def _charge(what: str, live: int, work: int) -> None:
    """Refuse ``what`` if its live bytes or digit additions are over budget."""
    if live > BYTE_BUDGET or work > _WORK_BUDGET:
        raise ResourceError(
            f"{what} would hold about {live} bytes live after about {work} digit "
            f"additions, over the {BYTE_BUDGET}-byte or {_WORK_BUDGET}-addition "
            "budget; use a coarser bin or a smaller n"
        )


def _plan(edges: list, step: int, n_max: int, keep: list | None = None) -> _Plan:
    """Plan levels ``0..n_max``, keeping slots ``keep[L]`` of level ``L`` (or
    their mirror hull) if given; refused at the first level whose digit
    planes (which outsize packed ints) exceed ``BYTE_BUDGET`` or whose
    running digit additions exceed ``_WORK_BUDGET``."""
    groups: dict[str, dict[int, list[str]]] = {}
    for source, target, offset in edges:
        groups.setdefault(target, {}).setdefault(offset, []).append(source)
    mirror = _mirror(groups, step)
    first, top, spans = 0, 0, []
    for level in range(n_max + 1):
        if level:
            top += step
        width = top - first + 1
        if keep is not None:
            a, b = keep[level]
            if mirror:
                a, b = min(a, level * step - b), max(b, level * step - a)
            first = max(first, a)
            top = max(first - 1, min(top, b))
        spans.append((first, top, width))
    # the reversed views are exact on symmetric levels; a window inverted by
    # two slots or more empties its level and leaves the rest asymmetric
    if any(a + b != level * step for level, (a, b, _) in enumerate(spans)):
        mirror = None
    totals, digits, bits, size, work = [], [], 0, 0, 0
    for level, total in enumerate(_path_totals([(s, t) for s, t, _ in edges], n_max)):
        totals.append(total)
        bits = max(bits, total.bit_length())
        digits.append(-(-bits // _DIGIT_BITS))
        if not level:
            continue
        first, top, width = spans[level]
        size = max(size, digits[level] * width)
        work += digits[level] * (top - first + 1) * len(groups)
        _charge(f"level {level} of the lattice enumeration", 16 * len(groups) * size, work)
    field = -(-bits // 8) * 8
    slots = sum(width for *_, width in spans[1:])
    return _Plan(groups, totals, spans, digits, field, field * len(groups) * slots, mirror)


def _carry(planes: np.ndarray) -> None:
    """Propagate carries in place, so every digit but the top is below 2**48.

    The top digit needs no mask: the planes have enough digits for every
    count they hold, so nothing carries out of it.
    """
    for d in range(len(planes) - 1):
        planes[d + 1] += planes[d] >> _DIGIT_BITS
        planes[d] &= _DIGIT_MASK


def _level_size(plan: _Plan) -> int:
    """Digits times width of the plan's largest level after level 0."""
    return max((d * w for d, (*_, w) in zip(plan.digits[1:], plan.spans[1:])), default=0)


def _digit_levels(
    plan: _Plan, start: dict[str, np.ndarray] | None = None
) -> Iterator[tuple[int, int, dict[str, np.ndarray], int]]:
    """Digit-plane lattice DP; yields ``(level, first, state, total)``.

    ``state[v]`` is a ``uint64`` array of shape ``(digits, slots)``: column
    ``i`` counts the paths ending at ``v`` in slot ``first + i`` (slot 0 is
    the level's least reachable value) as ``sum_d state[v][d, i] << 48 d``,
    carries not yet propagated; ``total`` is ``plan.totals[level]``.  The
    arrays are views of two buffers per computed target, reused every other
    level, and a mirrored target's array is its partner's reversed: read or
    copy them before advancing.  Level 0 is ``start``, carried planes of
    ``plan.spans[0]``'s width (default: one path at ``"*"``).
    """
    import numpy as np
    groups, spans, digits, mirror = plan.groups, plan.spans, plan.digits, plan.mirror or {}
    if start is None:
        start = {START_VERTEX: np.ones((1, 1), np.uint64)}
    # a digit grows at most by the edges from the live sources: the start's
    # at level 1, the targets' after it
    fan = [
        max(
            (sum(s in live for ss in g.values() for s in ss) for g in groups.values()),
            default=1,
        )
        for live in (start, groups)
    ]
    if (indegree := max(fan)) >= 2**16:
        raise ResourceError(
            f"a vertex with {indegree} incoming edges could overflow a 64-bit "
            "digit in one level; the exact engine takes in-degrees below 65536"
        )
    size = _level_size(plan)
    # one target of each mirrored pair is computed
    buffers = {
        t: (np.empty(size, np.uint64), np.empty(size, np.uint64))
        for t in groups
        if mirror.get(t, t) >= t
    }
    state, bound = start, max((int(p.max()) for p in start.values()), default=0)
    for level, (first, top, width) in enumerate(spans):
        if level:
            grow = fan[level > 1]
            if bound * grow > _DIGIT_CEILING:
                for v in buffers.keys() & state.keys():
                    _carry(state[v])
                bound = _DIGIT_MASK
            rows, nxt = digits[level], {}
            for target, (even, odd) in buffers.items():
                live = [
                    (off, srcs)
                    for off, sources in groups[target].items()
                    if (srcs := [state[s] for s in sources if s in state])
                ]
                if not live:
                    continue
                dst = (odd if level % 2 else even)[: rows * width].reshape(rows, width)
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
                if (partner := mirror.get(target, target)) != target:
                    nxt[partner] = dst[:, ::-1]
            state, bound = nxt, bound * grow
        drop = first - spans[level - 1][0] if level else first
        if drop or top - first + 1 < width:
            state = {v: p[:, drop : drop + top - first + 1] for v, p in state.items()}
        yield level, first, state, plan.totals[level]


def _packed_levels(plan: _Plan) -> Iterator[tuple[int, int, dict[str, int], int]]:
    """Packed-int lattice DP; yields ``(level, first, state, total)``.

    ``state[v]`` is one Python int whose ``plan.field``-bit field ``i``
    counts the paths ending at ``v`` in slot ``first + i``, so an edge adds
    its sources shifted by ``offset * field``.  No sum of fields exceeds
    the level's total, so no field carries into the next.
    """
    field, spans, state = plan.field, plan.spans, {START_VERTEX: 1}
    for level, (first, top, width) in enumerate(spans):
        if level:
            rows = {
                target: sum(
                    sum(state.get(s, 0) for s in sources) << off * field
                    for off, sources in parts.items()
                )
                for target, parts in plan.groups.items()
            }
            state = {target: x for target, x in rows.items() if x}
        drop = first - spans[level - 1][0] if level else first
        if drop or top - first + 1 < width:
            mask = (1 << (top - first + 1) * field) - 1
            state = {v: (x >> drop * field) & mask for v, x in state.items()}
        yield level, first, state, plan.totals[level]


def _summed_planes(state: dict[str, np.ndarray], a: int, b: int) -> np.ndarray:
    """Columns ``a..b`` summed over the vertices, carried: ``(digits, columns)``.

    Every digit of the result is below ``2**48``: each column counts at
    most the level's paths, which fit the level's digits.
    """
    import numpy as np
    planes = list(state.values())
    b = min(b, planes[0].shape[1] - 1) if planes else -1
    if b < a:
        return np.zeros((1, 0), np.uint64)
    acc = np.zeros((planes[0].shape[0], b - a + 1), np.uint64)
    for plane in planes:
        part = plane[:, a : b + 1].copy()
        _carry(part)
        acc += part
        _carry(acc)
    return acc


def _slot_counts(state: dict[str, np.ndarray], a: int, b: int) -> tuple[list, list]:
    """Columns ``a..b`` summed over the vertices: nonzero columns and counts."""
    acc = _summed_planes(state, a, b)
    columns = acc.any(axis=0).nonzero()[0]
    counts = [0] * len(columns)
    for row in acc[::-1, columns].tolist():
        counts = [(c << _DIGIT_BITS) + d for c, d in zip(counts, row)]
    return columns.tolist(), counts


def _packed_counts(field: int, state: dict[str, int], a: int, b: int) -> tuple[list, list]:
    """Fields ``a..b`` summed over the vertices: nonzero columns and counts."""
    size, x = field // 8, sum(state.values()) >> a * field
    raw = x.to_bytes(-(-x.bit_length() // 8), "little")[: max(b - a + 1, 0) * size]
    counts = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    columns = [i for i, c in enumerate(counts) if c]
    return columns, [counts[i] for i in columns]


def _additions(plan: _Plan) -> list[int]:
    """Digit additions of levels ``1..L`` for every level ``L``, as ``_plan``
    charges them."""
    work = [0]
    for digits, (first, top, _width) in zip(plan.digits[1:], plan.spans[1:]):
        work.append(work[-1] + digits * (top - first + 1) * len(plan.groups))
    return work


def _levels(plan: _Plan, level: int) -> _Plan:
    """The plan cut after ``level``."""
    cut = slice(level + 1)
    return plan._replace(totals=plan.totals[cut], spans=plan.spans[cut], digits=plan.digits[cut])


def _buffer_bytes(plan: _Plan) -> int:
    """Bytes of the two level buffers per target of ``_digit_levels``."""
    return 16 * len(plan.groups) * _level_size(plan)


def _backward(
    plan: _Plan, step: int, n: int, levels: int, tops: list[int], ends: set[str]
) -> list[_Plan]:
    """Plans of backward halves, one per bound on a slot weight in ``tops``.

    Level 0 holds slot weights of level ``n`` on every vertex of ``ends``.
    An edge ``s -> t`` of offset ``o`` with ``s`` in ``ends`` becomes
    ``t -> s`` of offset ``step - o``, so backward slot ``r`` of level ``j``
    is forward slot ``r - j * step`` of level ``n - j``; level ``j`` keeps
    slots ``j * step .. n * step``, the ones that can still meet forward
    level ``n - levels``.  ``totals[j]`` bounds every sum of level ``j``: the
    top weight times the most paths of length ``j`` from one vertex.  The
    mirror is ``plan``'s, for slot weights that are their own reverse.
    """
    groups: dict[str, dict[int, list[str]]] = {}
    for target, parts in plan.groups.items():
        for offset, sources in parts.items():
            for source in sources:
                if source in ends:
                    groups.setdefault(source, {}).setdefault(step - offset, []).append(target)
    paths, reach = dict.fromkeys(ends, 1), [1]
    for _ in range(levels):
        paths = {
            s: sum(paths.get(t, 0) for ts in parts.values() for t in ts)
            for s, parts in groups.items()
        }
        reach.append(max(paths.values(), default=0))
    spans = [(0, n * step, n * step + 1)]
    spans += [(j * step, n * step, (n - j + 2) * step + 1) for j in range(1, levels + 1)]
    halves = []
    for top in tops:
        bits = accumulate(((top * count).bit_length() for count in reach), max)
        digits = [max(1, -(-b // _DIGIT_BITS)) for b in bits]
        halves.append(_Plan(groups, [top * c for c in reach], spans, digits, 0, 0, plan.mirror))
    return halves


def _axis_values(w: Callable[[int, int], int], axes: list) -> list[list[int]]:
    """``w`` at each distinct coordinate of each axis, called once for each.

    ``axes[j]`` is ``(distinct, inverse)``: axis ``j``'s distinct
    coordinates and every slot's index among them.
    """
    values = [
        [operator.index(w(j, q)) for q in distinct.tolist()]
        for j, (distinct, _inverse) in enumerate(axes)
    ]
    if min(map(min, values)) < 0:
        raise InvalidArgumentError("axis weights must be nonnegative integers")
    return values


def _slot_weights(values: list[list[int]], axes: list, mirrored: bool, digits: int) -> np.ndarray:
    """Carried digit planes of one weight on every slot: the product of its
    axis values, plus that of the mirrored slot on a mirrored plan."""
    import numpy as np
    # uint64 holds every product, and a mirrored sum of two, below 2**63
    dtype = np.uint64 if math.prod(max(max(v), 1) for v in values) < 2**63 else object
    weight = np.ones(len(axes[0][1]), dtype)
    for v, (_distinct, inverse) in zip(values, axes):
        weight = weight * np.array(v, dtype)[inverse]
    if mirrored:
        weight = weight + weight[::-1]
    planes = np.empty((digits, len(weight)), np.uint64)
    for d, row in enumerate(planes):
        row[:] = (weight >> _DIGIT_BITS * d) & _DIGIT_MASK
    return planes


#: columns of one exact block of the join: a sum of 2**21 products of two
#: 16-bit chunks is an integer below 2**53
_JOIN_BLOCK = 2**21
#: 16-bit chunks converted to float at once, which keeps the float copies of
#: the planes small
_JOIN_CHUNKS = 2**16


def _chunks(planes: np.ndarray) -> np.ndarray:
    """Carried 48-bit digits as float64 rows of 16-bit chunks, row ``i``
    worth ``2**(16 i)``; the last axis must be contiguous."""
    import numpy as np
    digits, width = planes.shape
    # the little-endian 16-bit words of each digit; the fourth is 0
    words = planes.astype("<u8", copy=False).view("<u2").reshape(digits, width, 4)
    out = np.empty((digits, 3, width))
    for i in range(3):
        out[:, i] = words[:, :, i]
    return out.reshape(3 * digits, width)


def _join(f: np.ndarray, g: np.ndarray) -> int:
    """``sum_i f[:, i] . g[:, i]`` of two carried digit planes, exactly.

    Each block of ``_JOIN_BLOCK`` columns is one float64 matrix product of
    the planes' 16-bit chunks, summed over slices of the block.  Every
    partial sum of an entry is an integer below ``2**53``, so no summation
    order, BLAS kernel or CPU can change it, and each block's entries are
    recombined in Python ints.
    """
    width, total = f.shape[1], 0
    columns = max(1, _JOIN_CHUNKS // (3 * (len(f) + len(g))))
    for a in range(0, width, _JOIN_BLOCK):
        end = min(a + _JOIN_BLOCK, width)
        cuts = [slice(b, min(b + columns, end)) for b in range(a, end, columns)]
        product = sum(_chunks(f[:, cut]) @ _chunks(g[:, cut]).T for cut in cuts)
        total += sum(
            int(x) << 16 * (i + j)
            for i, row in enumerate(product.tolist())
            for j, x in enumerate(row)
        )
    return total


def weighted_counts(
    coding: MarkovCoding,
    weights: WeightAssignment,
    n: int,
    axis_weights: Sequence[Callable[[int, int], int]],
) -> tuple[list[int], int]:
    """Exact ``sum_x prod_j w(j, x_j) count(x)`` over ``W_n``, one per ``w``.

    ``x`` runs over the scaled values of a lattice weight at radius ``n``
    (the ``support_scaled`` of ``distribution``) and ``count(x)`` is its
    exact count.  Each ``w`` in ``axis_weights`` maps an axis ``j`` and a
    scaled coordinate to a nonnegative integer of any size; it is called
    once per distinct coordinate of each axis.  The sums meet in the
    middle: the digit planes run forward from ``"*"`` to a level ``L``, one
    backward half per weight runs from the slot weights of level ``n`` back
    to ``L``, and each vertex's two halves are joined by one exact inner
    product (see the module docstring).  ``L`` makes the fewest digit
    additions, and both halves are charged against ``BYTE_BUDGET`` and
    ``_WORK_BUDGET`` before the first level.  Returns ``(sums, total)``,
    ``total`` the path count.
    """
    return _split_counts(coding, weights, n, axis_weights)


def _split_counts(
    coding: MarkovCoding,
    weights: WeightAssignment,
    n: int,
    axis_weights: Sequence[Callable[[int, int], int]],
    split: int | None = None,
) -> tuple[list[int], int]:
    """``weighted_counts`` joined at level ``split`` (default: the cheapest)."""
    import numpy as np
    if n < 0:
        raise InvalidArgumentError("sphere radius must be >= 0")
    scale = lattice_scale(weights)
    if scale is None:
        raise InvalidArgumentError("weighted counts need lattice weights")
    if split is not None and not 0 <= split <= n:
        raise InvalidArgumentError(f"split level {split} is outside 0..{n}")
    table = scaled_integer_values(weights, scale)
    edges, step, decode, *_ = _flatten(_transitions(coding, table), n)
    plan = _plan(edges, step, n)
    mirrored = plan.mirror is not None
    # each axis's distinct coordinates, and every slot's index among them
    axes = [np.unique(q, return_inverse=True) for q in decode(n, np.arange(n * step + 1))]
    values = [_axis_values(w, axes) for w in axis_weights]
    tops = [(1 + mirrored) * math.prod(map(max, v)) for v in values]
    # "*" is on level 0 alone, so a backward half reaches it only for L = 0
    low = min(n, 1) if split is None else split
    ends = set(plan.groups) | ({START_VERTEX} if low == 0 else set())
    halves = _backward(plan, step, n, n - low, tops, ends)
    forward = _additions(plan)
    if split is None:
        backward = [_additions(half) for half in halves]
        split = min(
            range(low, n + 1),
            key=lambda L: (forward[L] + sum(b[n - L] for b in backward), -L),
        )
    head = _levels(plan, split)
    tails = [_levels(half, n - split) for half in halves]
    # the forward buffers, then one backward half at a time: its slot
    # weights, its buffers and the float products of its joins
    _charge(
        f"the lattice enumeration joined at level {split} of {n}",
        _buffer_bytes(head)
        + max(
            (
                8 * t.digits[0] * (n * step + 1)
                + _buffer_bytes(t)
                + 72 * head.digits[-1] * t.digits[-1]
                for t in tails
            ),
            default=0,
        ),
        forward[split] + sum(_additions(tail)[-1] for tail in tails),
    )
    for _level, _first, state, _total in _digit_levels(head):
        pass  # only the last level is read
    # each mirrored pair is joined once and counted twice
    mirror = plan.mirror or {}
    joined = {v: 1 + (mirror.get(v, v) != v) for v in state if mirror.get(v, v) >= v}
    for v in joined:
        _carry(state[v])
    sums = []
    for tail, weight in zip(tails, values):
        planes = _slot_weights(weight, axes, mirrored, tail.digits[0])
        for _level, _first, back, _total in _digit_levels(tail, dict.fromkeys(ends, planes)):
            pass
        inner = 0
        for v, times in joined.items():
            if v in back:
                _carry(back[v])
                inner += times * _join(state[v], back[v])
        # a mirrored plan's counts are symmetric, so its weight was doubled
        sums.append(inner // 2 if mirrored else inner)
    return sums, plan.totals[n]


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def _edge_table(
    weights: WeightAssignment, n: int, bin_width: float | None
) -> tuple[str, int | None, float | None, dict[tuple[str, str], tuple[int, ...]]]:
    """``(kind, scale, width, table)``: the integer value of every edge.

    Lattice weights are exact on the ``1/scale`` lattice and ignore
    ``bin_width``; scalar real weights are rounded once (half to even) onto
    bins of ``bin_width`` (default: ``n`` times their range over 200).
    """
    scale = lattice_scale(weights)
    if scale is not None:
        return "exact-lattice", scale, None, scaled_integer_values(weights, scale)
    if weights.dim != 1:
        raise InvalidArgumentError(
            "real-valued vector weights are not enumerable; only scalar "
            "weights support binning"
        )
    width = bin_width
    if width is None:
        values = [vec[0] for vec in weights.edge_values.values()]
        span = max(values) - min(values) if values else 0.0
        if span <= 0.0:
            raise InvalidArgumentError(
                "cannot infer a default bin width for constant weights; pass one"
            )
        width = max(1, n) * span / _DEFAULT_BIN_DENOMINATOR
    if not (width > 0.0) or not math.isfinite(width):
        raise InvalidArgumentError(f"bin width must be positive, got {width!r}")
    table = {key: (round(vec[0] / width),) for key, vec in weights.edge_values.items()}
    if len(set(table.values())) == 1 < len(set(weights.edge_values.values())):
        raise InvalidArgumentError(
            f"bin width {width!r} rounds every edge value to the same slot; "
            "pass a smaller bin"
        )
    return "binned-real", None, width, table


def _radii(ns: Sequence[int]) -> list[int]:
    """The distinct radii of ``ns`` in increasing order; refuses a negative one."""
    order = sorted(set(ns))
    if order and order[0] < 0:
        raise InvalidArgumentError("sphere radius must be >= 0")
    return order


def _sweep(
    coding: MarkovCoding,
    weights: WeightAssignment,
    ns: Sequence[int],
    bin_width: float | None,
    windows: dict[int, tuple[int, int]] | None = None,
) -> list[WordDistribution]:
    """Plan once, run the engine, and decode the sorted distinct radii.

    ``windows`` (scalar weights only) maps each radius to an inclusive
    scaled window: slots that can reach no remaining window are pruned, and
    each distribution keeps only its own window.
    """
    order = _radii(ns)
    n_max = order[-1] if order else 1
    kind, scale, width, table = _edge_table(weights, n_max, bin_width)
    if not order:
        return []
    edges, step, decode, origin, basis = _flatten(_transitions(coding, table), n_max)
    keep = slots = None
    if windows is not None:
        # each window in slots of its level, then the hull of the slots of
        # level L that can still reach a window
        low, g = origin[0], basis[0][0] if basis else 1
        slots = {
            n: (-((n * low - lo) // g), (hi - n * low) // g)
            for n, (lo, hi) in windows.items()
        }
        keep = []
        for L in range(n_max + 1):
            ends = [(a - (n - L) * step, b) for n, (a, b) in slots.items() if n >= L]
            keep.append((min(e[0] for e in ends), max(e[1] for e in ends)))
    plan = _plan(edges, step, n_max, keep)
    if plan.bits <= _PACKED_BITS:
        levels, slot_counts = _packed_levels(plan), partial(_packed_counts, plan.field)
    else:
        levels, slot_counts = _digit_levels(plan), _slot_counts
    out, wanted = [], set(order)
    for level, first, state, total in levels:
        if level not in wanted:
            continue
        a, b = 0, level * step
        if slots is not None:
            # cut this level's own window out of the reach hull
            a, b = slots[level]
        a = max(a - first, 0)
        columns, counts = slot_counts(state, a, b - first)
        vec = decode(level, [c + first + a for c in columns])
        raw = dict(zip(vec[0] if len(vec) == 1 else zip(*vec), counts))
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


def distribution_overcounted(
    coding: MarkovCoding,
    weights: WeightAssignment,
    n: int,
    bin_width: float | None = None,
) -> WordDistribution:
    """Distribution under the overcounted sphere ``#W_n + (m-1) #N_n``.

    Paths avoiding all ``m`` maximal components of
    ``decompose_components(coding)`` are counted ``m`` times in total,
    matching the normalization in which every maximal component contributes
    one copy of the transient part.  The avoiding paths are the paths of the
    coding without the maximal components' vertices and their edges, which
    ``distribution_sweep`` enumerates with the same scale or bin width.  With a
    single maximal component this is exactly the plain distribution.
    """
    plain = distribution_sweep(coding, weights, [n], bin_width)[0]
    decomposition = decompose_components(coding)
    m = len(decomposition.maximal_indices) - 1
    if m == 0:
        return plain
    comps = decomposition.components
    banned = {v for i in decomposition.maximal_indices for v in comps[i].vertices}
    transient = coding._replace(
        vertices=tuple(v for v in coding.vertices if v not in banned),
        edges=tuple(e for e in coding.edges if not {e.source, e.target} & banned),
    )
    avoid = distribution_sweep(transient, weights, [n], bin_width)[0]
    merged = dict(zip(plain.support_scaled, plain.counts))
    for q, c in zip(avoid.support_scaled, avoid.counts):
        merged[q] = merged.get(q, 0) + m * c
    support = tuple(sorted(merged))
    return plain._replace(
        support_scaled=support,
        counts=tuple(merged[q] for q in support),
        total=plain.total + m * avoid.total,
        overcount_multiplicity=m,
    )


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def _float_range(transitions: list[tuple[str, str, tuple]], n: int) -> None:
    """Refuse float moment sums to radius ``n`` that could leave the float range.

    A float sum of level ``L`` is at most the level's path count times
    ``max(1, L * m)**2``, ``m`` the largest entry of a weight in absolute
    value; the first level at which that bound reaches ``2**1023`` (half the
    float range, room for rounding) raises ``ResourceError`` naming its
    radius.  The path counts are exact ints, formed up to that level.
    """
    m = max((abs(x) for *_, vec in transitions for x in vec), default=0.0)
    paths = {START_VERTEX: 1}
    for level in range(1, n + 1):
        nxt: dict[str, int] = {}
        for source, target, _vec in transitions:
            if source in paths:
                nxt[target] = nxt.get(target, 0) + paths[source]
        paths = nxt
        if (total := sum(paths.values())) >= 2.0**1023 / max(1.0, level * m) ** 2:
            raise ResourceError(
                f"the float moment sums of radius {level} could leave the float "
                f"range: its {total.bit_length()}-bit path count times ({level} * "
                f"{m!r})**2 reaches 2**1023; use a smaller n or lattice weights"
            )


def moment_sweep(
    coding: MarkovCoding, weights: WeightAssignment, ns: Sequence[int]
) -> list[MomentData]:
    """Exact moment sums at several radii by one accumulation pass.

    Lattice weights use integer arithmetic end-to-end (results are ints or
    ``Fraction``); real weights accumulate in floats.  Each vertex carries
    its path count, ``sum phi`` and ``sum phi phi^T``.

    The work is charged against ``_WORK_BUDGET`` before the first level, and
    an oversized radius raises ``ResourceError``: each level adds
    ``1 + k + k^2`` sums per edge, each of ``1 + L log2(fan) / 48`` digits
    at level ``L`` for the largest out-degree ``fan`` (the bound
    ``sphere_counts`` sizes by), or of one digit for float sums.
    """
    order = _radii(ns)
    if not order:
        return []
    scale = lattice_scale(weights)
    table = weights.edge_values if scale is None else scaled_integer_values(weights, scale)
    k, zero = weights.dim, 0 if scale is not None else 0.0
    transitions = _transitions(coding, table)
    n, sums = order[-1], len(transitions) * (1 + k + k * k)
    fan = max(Counter(source for source, _, _ in transitions).values(), default=1)
    bits = 0.0 if scale is None else math.log2(fan)
    # the digits of levels 1..n, summed in closed form
    if (work := sums * (n + bits * n * (n + 1) / (2 * _DIGIT_BITS))) > _WORK_BUDGET:
        raise ResourceError(
            f"the moment sums to radius {n} would take about {int(work)} digit "
            f"additions, over the {_WORK_BUDGET}-addition budget; use a smaller n"
        )
    if scale is None:
        _float_range(transitions, n)

    def fresh(count: int) -> list:
        return [count, [zero] * k, [[zero] * k for _ in range(k)]]

    state, results, wanted = {START_VERTEX: fresh(1)}, [], set(order)
    for level in range(order[-1] + 1):
        if level:
            nxt: dict[str, list] = {}
            for source, target, v in transitions:
                if source not in state:
                    continue
                c, s1, s2 = state[source]
                if target not in nxt:
                    nxt[target] = fresh(0)
                dst = nxt[target]
                dst[0] += c
                d1, d2 = dst[1], dst[2]
                for j in range(k):
                    d1[j] += s1[j] + c * v[j]
                    for l in range(k):
                        d2[j][l] += s2[j][l] + v[j] * s1[l] + v[l] * s1[j] + c * v[j] * v[l]
            state = nxt
        if level in wanted:
            count, first, second = fresh(0)
            for c, s1, s2 in state.values():
                count += c
                for j in range(k):
                    first[j] += s1[j]
                    for l in range(k):
                        second[j][l] += s2[j][l]
            if scale is not None:
                first = [_exact_div(x, scale) for x in first]
                second = [[_exact_div(x, scale**2) for x in row] for row in second]
            second = tuple(map(tuple, second))
            results.append(MomentData(level, k, count, tuple(first), second))
    return results


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
    order = _radii(ns)
    if not order:
        return []
    transitions = [
        (source, target, math.exp(t * vec[0]))
        for source, target, vec in _transitions(coding, weights.edge_values)
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
