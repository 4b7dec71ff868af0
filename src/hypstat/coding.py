"""Strongly Markov codings: build, load, validate, and structurally analyze.

A coding is a finite directed graph with a distinguished start vertex ``"*"``
(no in-edges) whose edges carry generator labels; reading the labels along
the paths that start at ``"*"`` enumerates each group element exactly once,
and path length equals word length.  The augmented form adds an absorbing
vertex ``"0"`` with an identity-labeled (empty-string) edge from every
non-start vertex and a self-loop, so that every finite path extends to an
infinite one.

The working matrices are

* ``A`` - the full 0/1 transition matrix of the augmented graph, and
* ``B`` - ``A`` with the ``"*"`` and ``"0"`` rows and columns removed,

and the structural analysis decomposes ``B`` into strongly connected
components, flags the components of maximal spectral radius (growth-rate
components), computes their periods, and exposes the per-component vertex
masks used by the transfer matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._power import perron_batch
from .errors import (
    InconsistencyError,
    InvalidArgumentError,
    ResourceError,
    StructureError,
    ValidationError,
)

START_VERTEX = "*"
ZERO_VERTEX = "0"
IDENTITY_LABEL = ""

#: a component counts as maximal iff its radius is >= lambda * (1 - this)
MAXIMALITY_RTOL = 1e-9
#: codings with growth rate <= 1 + this are flagged elementary
ELEMENTARY_RTOL = 1e-9
_PATH_GUARD = 10**7


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodingEdge:
    """One labeled edge; ``label == ""`` marks an augmentation edge."""

    source: str
    target: str
    label: str


@dataclass(frozen=True)
class MarkovCoding:
    """A strongly Markov coding graph.

    Attributes
    ----------
    generators : tuple of str
        The label alphabet (for symmetric generating sets this includes the
        formal inverses, e.g. ``("a", "A", "b", "B")``).
    vertices : tuple of str
        All vertex names; must contain ``"*"`` and, when augmented, ``"0"``.
    edges : tuple of CodingEdge
        Labeled edges; ``(source, target)`` pairs are unique, so the
        transition matrix is 0/1.
    augmented : bool
        Whether the absorbing ``"0"`` vertex and its in-edges are present.
    """

    generators: tuple[str, ...]
    vertices: tuple[str, ...]
    edges: tuple[CodingEdge, ...]
    augmented: bool

    @cached_property
    def core_vertices(self) -> tuple[str, ...]:
        """Vertices of ``B``: everything except ``"*"`` and ``"0"``."""
        return tuple(v for v in self.vertices if v not in (START_VERTEX, ZERO_VERTEX))

    @cached_property
    def out_edges(self) -> dict[str, tuple[CodingEdge, ...]]:
        table: dict[str, list[CodingEdge]] = {v: [] for v in self.vertices}
        for edge in self.edges:
            table[edge.source].append(edge)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def nonaugmentation_edges(self) -> tuple[CodingEdge, ...]:
        """Edges that consume a generator (everything not entering ``"0"``)."""
        return tuple(e for e in self.edges if e.target != ZERO_VERTEX)


@dataclass(frozen=True)
class Component:
    """One strongly connected component of ``B``."""

    vertices: tuple[str, ...]
    spectral_radius: float
    maximal: bool
    period: int  # 0 when the component contains no directed cycle


@dataclass(frozen=True)
class ComponentDecomposition:
    """Component structure of a coding.

    ``components`` are listed in reverse topological order of the
    condensation (sink components first), ties broken by smallest contained
    vertex index, matching the lower-triangular block form of ``B``.
    ``masks[j]`` lists, for the ``j``-th maximal component, the core
    vertices kept by its transfer-matrix mask: everything except the
    vertices of the *other* maximal components.
    """

    components: tuple[Component, ...]
    lam: float
    entropy: float
    maximal_indices: tuple[int, ...]
    masks: tuple[tuple[str, ...], ...]

    @property
    def elementary(self) -> bool:
        return self.lam <= 1.0 + ELEMENTARY_RTOL

    def mask_for(self, index: int) -> tuple[str, ...]:
        """Mask vertices for the maximal component with component index ``index``."""
        if index not in self.maximal_indices:
            raise InvalidArgumentError(
                f"component {index} is not maximal; masks exist only for maximal components"
            )
        return self.masks[self.maximal_indices.index(index)]


@dataclass(frozen=True)
class CodingValidationReport:
    """Result of the path-to-word bijection check."""

    ok: bool
    depth: int
    paths_per_depth: tuple[int, ...]
    failures: tuple[str, ...]


@dataclass(frozen=True)
class GrowthReport:
    """Growth rate of the word spheres, by two methods."""

    lam: float
    lam_ratio: float
    entropy: float
    ratio_trace: tuple[float, ...]
    elementary: bool
    horizon: int


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _free_letters(rank: int) -> list[tuple[str, str]]:
    """(letter, inverse letter) pairs for the free group of given rank."""
    if rank <= 26:
        return [(chr(ord("a") + i), chr(ord("A") + i)) for i in range(rank)]
    return [(f"g{i}", f"g{i}^-1") for i in range(rank)]


def build_free_group_coding(rank: int) -> MarkovCoding:
    """Canonical coding of the free group of the given rank.

    One vertex per letter ``x`` in the symmetric generating set, an edge
    ``x -> y`` labeled ``y`` whenever ``y`` is not the inverse of ``x``, and
    an edge ``* -> x`` labeled ``x`` for every letter; paths from ``*`` spell
    exactly the reduced words.  The result is augmented.

    Parameters
    ----------
    rank : int
        Number of free generators; must be >= 1.  Rank 1 yields the coding
        of the integers, which downstream analysis flags as elementary.

    Returns
    -------
    MarkovCoding
    """
    if rank < 1:
        raise InvalidArgumentError(f"free-group rank must be >= 1, got {rank}")
    pairs = _free_letters(rank)
    letters: list[str] = [x for pair in pairs for x in pair]
    inverse = {}
    for x, y in pairs:
        inverse[x] = y
        inverse[y] = x
    edges = [CodingEdge(START_VERTEX, x, x) for x in letters]
    edges += [
        CodingEdge(x, y, y) for x in letters for y in letters if y != inverse[x]
    ]
    coding = MarkovCoding(
        generators=tuple(letters),
        vertices=(START_VERTEX, ZERO_VERTEX, *letters),
        edges=tuple(edges),
        augmented=False,
    )
    return _augment(coding, zero_listed=True)


def _augment(coding: MarkovCoding, zero_listed: bool = False) -> MarkovCoding:
    """Add the absorbing ``"0"`` vertex, its self-loop, and its in-edges."""
    vertices = coding.vertices if zero_listed else (*coding.vertices, ZERO_VERTEX)
    extra = [
        CodingEdge(v, ZERO_VERTEX, IDENTITY_LABEL)
        for v in vertices
        if v != START_VERTEX
    ]
    return MarkovCoding(
        generators=coding.generators,
        vertices=vertices,
        edges=(*coding.edges, *extra),
        augmented=True,
    )


def check_coding(coding: MarkovCoding) -> None:
    """Raise ``ValidationError`` naming the first violated invariant, if any."""
    seen = set()
    for v in coding.vertices:
        if v in seen:
            raise ValidationError(f"duplicate vertex name {v!r}")
        seen.add(v)
    if START_VERTEX not in seen:
        raise ValidationError('missing start vertex "*"')
    if coding.augmented and ZERO_VERTEX not in seen:
        raise ValidationError('augmented coding is missing the "0" vertex')
    if not coding.augmented and ZERO_VERTEX in seen:
        raise ValidationError('vertex name "0" is reserved for the augmentation vertex')
    generators = set(coding.generators)
    pairs = set()
    for edge in coding.edges:
        if edge.source not in seen:
            raise ValidationError(f"edge references unknown source vertex {edge.source!r}")
        if edge.target not in seen:
            raise ValidationError(f"edge references unknown target vertex {edge.target!r}")
        if edge.target == START_VERTEX:
            raise ValidationError(f"edge into start vertex (from {edge.source!r})")
        if (edge.source, edge.target) in pairs:
            raise ValidationError(
                f"duplicate edge {edge.source!r} -> {edge.target!r}: "
                "the transition matrix must be 0/1"
            )
        pairs.add((edge.source, edge.target))
        if edge.target == ZERO_VERTEX:
            if edge.label != IDENTITY_LABEL:
                raise ValidationError(
                    f"augmentation edge {edge.source!r} -> \"0\" must carry the identity label"
                )
        else:
            if edge.label == IDENTITY_LABEL:
                raise ValidationError(
                    f"edge {edge.source!r} -> {edge.target!r} carries the identity label "
                    "but does not enter the augmentation vertex"
                )
            if edge.label not in generators:
                raise ValidationError(
                    f"edge label {edge.label!r} is not a listed generator"
                )
    if coding.augmented:
        for v in coding.vertices:
            count = sum(1 for e in coding.out_edges[v] if e.target == ZERO_VERTEX)
            if v == START_VERTEX:
                if count != 0:
                    raise ValidationError('start vertex must have no edge into "0"')
            elif count != 1:
                raise ValidationError(
                    f"vertex {v!r} must have exactly one edge into \"0\", found {count}"
                )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def load_coding(source: dict | str | Path) -> MarkovCoding:
    """Load a coding from a JSON document, file path, or parsed dict.

    The document has fields ``generators`` (array of strings), ``vertices``
    (array of strings, must include ``"*"``), ``edges`` (array of
    ``{"from", "to", "label"}`` objects) and optional ``augmented`` (bool,
    default false).  When ``augmented`` is false the loader adds the ``"0"``
    vertex, its self-loop, and identity-labeled edges from every non-start
    vertex.  ``"*"`` and ``"0"`` are reserved vertex names.

    Returns
    -------
    MarkovCoding
        The augmented, fully validated coding.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"coding document parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    else:
        document = source
    if not isinstance(document, dict):
        raise ValidationError("coding document must be a JSON object")
    for field in ("generators", "vertices", "edges"):
        if field not in document:
            raise ValidationError(f"coding document is missing the {field!r} field")
    generators = document["generators"]
    vertices = document["vertices"]
    raw_edges = document["edges"]
    if not isinstance(generators, list) or not all(isinstance(g, str) for g in generators):
        raise ValidationError("field 'generators' must be an array of strings")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValidationError("field 'vertices' must be an array of strings")
    if not isinstance(raw_edges, list):
        raise ValidationError("field 'edges' must be an array of objects")
    edges = []
    for i, item in enumerate(raw_edges):
        if not isinstance(item, dict):
            raise ValidationError(f"field 'edges[{i}]' must be an object")
        for key in ("from", "to", "label"):
            if key not in item or not isinstance(item[key], str):
                raise ValidationError(f"field 'edges[{i}].{key}' must be a string")
        edges.append(CodingEdge(item["from"], item["to"], item["label"]))
    augmented = document.get("augmented", False)
    if not isinstance(augmented, bool):
        raise ValidationError("field 'augmented' must be a boolean")
    coding = MarkovCoding(
        generators=tuple(generators),
        vertices=tuple(vertices),
        edges=tuple(edges),
        augmented=augmented,
    )
    if not augmented:
        coding = _augment(coding)
    check_coding(coding)
    return coding


def dump_coding(coding: MarkovCoding) -> dict:
    """Inverse of ``load_coding``: a JSON-ready document (always augmented form)."""
    return {
        "generators": list(coding.generators),
        "vertices": list(coding.vertices),
        "edges": [
            {"from": e.source, "to": e.target, "label": e.label} for e in coding.edges
        ],
        "augmented": coding.augmented,
    }


# ---------------------------------------------------------------------------
# Path-to-word validation
# ---------------------------------------------------------------------------


def free_group_word_counts(rank: int, depth: int) -> list[int]:
    """Independently derived reduced-word counts ``[#W_0, ..., #W_depth]``."""
    counts = [1]
    if depth >= 1:
        counts.append(2 * rank)
    for _ in range(2, depth + 1):
        counts.append(counts[-1] * (2 * rank - 1))
    return counts[: depth + 1]


def validate_coding(
    coding: MarkovCoding,
    depth: int,
    expected_counts: list[int] | None = None,
) -> CodingValidationReport:
    """Check that distinct paths from ``"*"`` spell distinct words.

    Enumerates every label path from the start vertex up to ``depth`` and
    verifies injectivity of the path-to-word map; when ``expected_counts``
    is given (index = length), path counts are compared against it.

    Parameters
    ----------
    coding : MarkovCoding
    depth : int
        Maximum path length to enumerate; total paths are guarded at 1e7.
    expected_counts : list of int, optional
        Independently derived word counts per length.

    Returns
    -------
    CodingValidationReport
    """
    if depth < 0:
        raise InvalidArgumentError(f"depth must be >= 0, got {depth}")
    failures: list[str] = []
    frontier: list[tuple[tuple[str, ...], tuple[str, ...]]] = [((START_VERTEX,), ())]
    counts = [1]
    total = 1
    for level in range(1, depth + 1):
        nxt: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
        for path, labels in frontier:
            for edge in coding.out_edges[path[-1]]:
                if edge.target == ZERO_VERTEX:
                    continue
                nxt.append(((*path, edge.target), (*labels, edge.label)))
        total += len(nxt)
        if total > _PATH_GUARD:
            raise ResourceError(
                f"path enumeration exceeds the {_PATH_GUARD} guard at depth {level}"
            )
        seen: dict[tuple[str, ...], tuple[str, ...]] = {}
        for path, labels in nxt:
            if labels in seen:
                failures.append(
                    f"depth {level}: label word {''.join(labels)!r} spelled by paths "
                    f"{' -> '.join(seen[labels])} and {' -> '.join(path)}"
                )
            else:
                seen[labels] = path
        counts.append(len(nxt))
        frontier = nxt
    if expected_counts is not None:
        for n, expected in enumerate(expected_counts[: depth + 1]):
            if counts[n] != expected:
                failures.append(
                    f"depth {n}: {counts[n]} paths but {expected} words expected"
                )
    return CodingValidationReport(
        ok=not failures,
        depth=depth,
        paths_per_depth=tuple(counts),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Component structure
# ---------------------------------------------------------------------------


def core_matrix(coding: MarkovCoding) -> np.ndarray:
    """The 0/1 matrix ``B`` over ``coding.core_vertices`` (row = source)."""
    core = coding.core_vertices
    index = {v: i for i, v in enumerate(core)}
    b = np.zeros((len(core), len(core)))
    for edge in coding.edges:
        if edge.source in index and edge.target in index:
            b[index[edge.source], index[edge.target]] = 1.0
    return b


def _reachable_core(coding: MarkovCoding) -> list[str]:
    """Core vertices reachable from ``"*"`` without entering ``"0"``."""
    seen: set[str] = set()
    stack = [START_VERTEX]
    while stack:
        v = stack.pop()
        for edge in coding.out_edges[v]:
            w = edge.target
            if w == ZERO_VERTEX or w in seen or w == START_VERTEX:
                continue
            seen.add(w)
            stack.append(w)
    return [v for v in coding.core_vertices if v in seen]


def _strongly_connected(vertices: list[str], succ: dict[str, list[str]]) -> list[list[str]]:
    """Iterative Tarjan; returns the strongly connected components."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0
    for root in vertices:
        if root in index_of:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for pos in range(edge_pos, len(succ[v])):
                w = succ[v][pos]
                if w not in index_of:
                    work[-1] = (v, pos + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def _component_period(vertices: list[str], succ: dict[str, list[str]]) -> int:
    """gcd of cycle lengths inside one strongly connected component (0 if none)."""
    members = set(vertices)
    root = vertices[0]
    level = {root: 0}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in succ[v]:
            if w in members and w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    g = 0
    for v in vertices:
        for w in succ[v]:
            if w in members:
                g = math.gcd(g, level[v] + 1 - level[w])
    return abs(g)


def decompose_components(coding: MarkovCoding) -> ComponentDecomposition:
    """Strongly connected components of ``B``, maximality flags, periods, masks.

    Components cover exactly the core vertices reachable from ``"*"``; they
    are listed in reverse topological order of the condensation with ties
    broken by smallest contained vertex index.  A component is maximal iff
    its spectral radius is within relative tolerance ``MAXIMALITY_RTOL`` of
    the growth rate ``lambda``; maximal components must be pairwise
    unreachable from each other.

    Raises
    ------
    StructureError
        If no component carries a directed cycle (degenerate coding), or if
        one maximal component can reach another (impossible for a strongly
        Markov coding of a group).
    """
    check_coding(coding)
    reachable = _reachable_core(coding)
    members = set(reachable)
    succ = {
        v: [e.target for e in coding.out_edges[v] if e.target in members]
        for v in reachable
    }
    raw_components = _strongly_connected(reachable, succ)

    # canonical order: reverse topological (sinks first), heap-free Kahn with
    # smallest-vertex-index tie-break on the condensation
    comp_id = {}
    for ci, comp in enumerate(raw_components):
        for v in comp:
            comp_id[v] = ci
    n_comp = len(raw_components)
    successors: list[set[int]] = [set() for _ in range(n_comp)]
    indegree = [0] * n_comp
    for v in reachable:
        for w in succ[v]:
            a, b = comp_id[v], comp_id[w]
            if a != b and b not in successors[a]:
                successors[a].add(b)
                indegree[b] += 1
    vertex_pos = {v: i for i, v in enumerate(coding.vertices)}
    comp_key = [min(vertex_pos[v] for v in comp) for comp in raw_components]
    ready = sorted((ci for ci in range(n_comp) if indegree[ci] == 0), key=lambda c: comp_key[c])
    topo: list[int] = []
    while ready:
        ci = ready.pop(0)
        topo.append(ci)
        changed = False
        for cj in successors[ci]:
            indegree[cj] -= 1
            if indegree[cj] == 0:
                ready.append(cj)
                changed = True
        if changed:
            ready.sort(key=lambda c: comp_key[c])
    order = list(reversed(topo))

    b = core_matrix(coding)
    core_index = {v: i for i, v in enumerate(coding.core_vertices)}
    radii: list[float] = []
    periods: list[int] = []
    ordered: list[list[str]] = []
    for ci in order:
        comp = sorted(raw_components[ci], key=lambda v: vertex_pos[v])
        ordered.append(comp)
        idx = [core_index[v] for v in comp]
        radii.append(float(perron_batch(b[np.ix_(idx, idx)][None])[0][0]))
        periods.append(_component_period(comp, succ))

    if not ordered:
        raise StructureError(
            "degenerate coding: no core vertex is reachable from the start vertex"
        )
    lam = max(radii)
    if lam <= 0.0:
        raise StructureError(
            "degenerate coding: every reachable component is transient "
            "(no directed cycle), so sphere counts are eventually zero"
        )
    maximal_flags = [r >= lam * (1.0 - MAXIMALITY_RTOL) for r in radii]
    components = tuple(
        Component(
            vertices=tuple(comp),
            spectral_radius=radii[i],
            maximal=maximal_flags[i],
            period=periods[i],
        )
        for i, comp in enumerate(ordered)
    )
    maximal_indices = tuple(i for i, f in enumerate(maximal_flags) if f)

    # pairwise unreachability of maximal components on the condensation
    cond_succ: dict[int, set[int]] = {i: set() for i in range(n_comp)}
    new_pos = {tuple(sorted(comp)): i for i, comp in enumerate(ordered)}
    remap = [new_pos[tuple(sorted(raw_components[ci]))] for ci in range(n_comp)]
    for ci in range(n_comp):
        for cj in successors[ci]:
            cond_succ[remap[ci]].add(remap[cj])
    maximal_set = set(maximal_indices)
    for start in maximal_indices:
        stack = list(cond_succ[start])
        seen_c: set[int] = set()
        while stack:
            cj = stack.pop()
            if cj in seen_c:
                continue
            seen_c.add(cj)
            if cj in maximal_set:
                raise StructureError(
                    "two maximal-growth components are connected by a directed "
                    "path; a strongly Markov coding of a group cannot do this "
                    f"(components {start} and {cj})"
                )
            stack.extend(cond_succ[cj])

    masks = []
    for i in maximal_indices:
        forbidden = set()
        for j in maximal_indices:
            if j != i:
                forbidden.update(components[j].vertices)
        masks.append(tuple(v for v in coding.core_vertices if v in members and v not in forbidden))
    return ComponentDecomposition(
        components=components,
        lam=lam,
        entropy=math.log(lam),
        maximal_indices=maximal_indices,
        masks=tuple(masks),
    )


def component_period(decomposition: ComponentDecomposition, index: int) -> int:
    """Period of the indexed component; errors when the component has no cycle."""
    if not 0 <= index < len(decomposition.components):
        raise InvalidArgumentError(f"component index {index} out of range")
    period = decomposition.components[index].period
    if period == 0:
        raise StructureError(
            f"component {index} has no directed cycle, so its period is undefined"
        )
    return period


# ---------------------------------------------------------------------------
# Counting and growth
# ---------------------------------------------------------------------------


def sphere_counts(coding: MarkovCoding, n_max: int) -> list[int]:
    """Exact ``[#W_0, ..., #W_{n_max}]`` by big-integer dynamic programming."""
    if n_max < 0:
        raise InvalidArgumentError(f"n_max must be >= 0, got {n_max}")
    state: dict[str, int] = {START_VERTEX: 1}
    counts = [1]
    for _ in range(n_max):
        nxt: dict[str, int] = {}
        for v, c in state.items():
            for edge in coding.out_edges[v]:
                if edge.target == ZERO_VERTEX:
                    continue
                nxt[edge.target] = nxt.get(edge.target, 0) + c
        counts.append(sum(nxt.values()))
        state = nxt
    return counts


def count_words(coding: MarkovCoding, n: int) -> int:
    """Exact number of group elements of word length ``n`` (``#W_n``)."""
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    return sphere_counts(coding, n)[n]


def growth_rate(coding: MarkovCoding, horizon: int) -> GrowthReport:
    """Growth rate ``lambda`` of ``#W_n`` by two methods, with a ratio trace.

    ``lam`` is the spectral radius of ``B`` (maximum over component Perron
    roots); ``lam_ratio`` is the count-ratio estimate
    ``(#W_h / #W_{h-k})^(1/k)`` with an even ``k`` (robust to periodic
    codings).  The spectral value is authoritative; the ratio trace
    certifies convergence.  The two must agree within 1e-6 relative unless
    the single-step ratios are still visibly converging toward ``lam``.

    Parameters
    ----------
    coding : MarkovCoding
    horizon : int
        Number of sphere counts to compute; must be >= 8.

    Returns
    -------
    GrowthReport
    """
    if horizon < 8:
        raise InvalidArgumentError(f"horizon must be >= 8, got {horizon}")
    decomposition = decompose_components(coding)
    lam = decomposition.lam
    counts = sphere_counts(coding, horizon)
    k = 2 * max(1, horizon // 4)
    lam_ratio = math.exp((math.log(counts[horizon]) - math.log(counts[horizon - k])) / k)
    trace = tuple(counts[i + 1] / counts[i] for i in range(1, horizon))
    rel = abs(lam_ratio - lam) / lam
    if rel > 1e-6:
        deviations = [abs(r - lam) for r in trace]
        quarter = max(1, len(deviations) // 4)
        converging = max(deviations[-quarter:]) <= max(deviations[:quarter]) + 1e-12
        if not converging:
            raise InconsistencyError(
                f"growth-rate estimates disagree: spectral {lam!r} vs "
                f"count-ratio {lam_ratio!r} (relative {rel:.3e}) with no "
                "convergence trend in the ratio trace; the coding is suspect"
            )
    return GrowthReport(
        lam=lam,
        lam_ratio=lam_ratio,
        entropy=decomposition.entropy,
        ratio_trace=trace,
        elementary=decomposition.elementary,
        horizon=horizon,
    )
