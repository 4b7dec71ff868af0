"""Strongly Markov codings: build, load, validate, and structurally analyze.

A coding is a finite directed graph with a distinguished start vertex ``"*"``
(no in-edges) whose edges carry generator labels; reading the labels along
the paths that start at ``"*"`` enumerates each group element exactly once,
and path length equals word length.  Every edge consumes one generator.
``MarkovCoding`` is a ``NamedTuple`` of the generators, vertices and edges;
its ``core_vertices`` and ``out_edges`` are plain properties, built anew on
each read, so a function that walks paths reads ``out_edges`` once.

The working matrix is ``B``, the 0/1 transition matrix of the graph with
the ``"*"`` row and column removed.  The structural analysis decomposes
``B`` into strongly connected components, flags the components of maximal
spectral radius (growth-rate components) and computes their periods; the
transfer matrices (``spectral``) and the overcounted sphere (``enumerate``)
read their vertex sets off these components.  Every graph question it asks
(reachability from ``"*"``, the components, their order, whether one
maximal component reaches another) is read off one Boolean reachability
closure of the ``"*"``-plus-core adjacency, built by Warshall's algorithm
in O(V^3) for V core vertices.  Components are listed sinks first: the
reverse of the topological order that always takes the ready component
with the smallest first vertex.  All exact path counts from ``"*"`` come
from one big-integer DP, ``_path_totals``, which yields them level by level
and is refused before its first level over ``BYTE_BUDGET`` bytes;
validation enumerates no paths, only the vertices, in one breadth-first
pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator, NamedTuple

from ._power import perron_point
from .errors import (
    InconsistencyError,
    InvalidArgumentError,
    ResourceError,
    StructureError,
    ValidationError,
)

START_VERTEX = "*"

#: a component counts as maximal iff its radius is >= lambda * (1 - this)
MAXIMALITY_RTOL = 1e-9
#: codings with growth rate <= 1 + this are flagged elementary
ELEMENTARY_RTOL = 1e-9
#: cap on the bytes of exact counts, lattice enumerations, frequency stacks
#: and range grids, checked before they are built
BYTE_BUDGET = 2**30


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class CodingEdge(NamedTuple):
    """One edge, labeled by the generator it consumes."""

    source: str
    target: str
    label: str


class MarkovCoding(NamedTuple):
    """A strongly Markov coding graph.

    Attributes
    ----------
    generators : tuple of str
        The label alphabet (for symmetric generating sets this includes the
        formal inverses, e.g. ``("a", "A", "b", "B")``).
    vertices : tuple of str
        All vertex names; must contain ``"*"``.
    edges : tuple of CodingEdge
        Labeled edges; ``(source, target)`` pairs are unique, so the
        transition matrix is 0/1.
    """

    generators: tuple[str, ...]
    vertices: tuple[str, ...]
    edges: tuple[CodingEdge, ...]

    @property
    def core_vertices(self) -> tuple[str, ...]:
        """Vertices of ``B``: everything except ``"*"``."""
        return tuple(v for v in self.vertices if v != START_VERTEX)

    @property
    def out_edges(self) -> dict[str, tuple[CodingEdge, ...]]:
        """The edges leaving each vertex, in edge order; built on each read."""
        table: dict[str, list[CodingEdge]] = {v: [] for v in self.vertices}
        for edge in self.edges:
            table[edge.source].append(edge)
        return {v: tuple(es) for v, es in table.items()}


class Component(NamedTuple):
    """One strongly connected component of ``B``."""

    vertices: tuple[str, ...]
    spectral_radius: float
    maximal: bool
    period: int  # 0 when the component contains no directed cycle


class ComponentDecomposition(NamedTuple):
    """Component structure of a coding.

    ``components`` are listed in reverse topological order of the
    condensation (sink components first), ties broken by smallest contained
    vertex index, matching the lower-triangular block form of ``B``;
    together they cover exactly the core vertices reachable from ``"*"``.
    """

    components: tuple[Component, ...]
    lam: float
    entropy: float
    maximal_indices: tuple[int, ...]

    @property
    def elementary(self) -> bool:
        return self.lam <= 1.0 + ELEMENTARY_RTOL


class CodingValidationReport(NamedTuple):
    """Result of the path-to-word bijection check."""

    ok: bool
    depth: int
    paths_per_depth: tuple[int, ...]
    failures: tuple[str, ...]


class GrowthReport(NamedTuple):
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
    exactly the reduced words.

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
    return MarkovCoding(
        generators=tuple(letters),
        vertices=(START_VERTEX, *letters),
        edges=tuple(edges),
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
        if edge.label not in generators:
            raise ValidationError(f"edge label {edge.label!r} is not a listed generator")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _read_document(source: dict | str | Path, what: str) -> dict:
    """The JSON object in the file at ``source``, or ``source`` itself when
    it is already parsed; ``what`` names the document in errors."""
    if isinstance(source, (str, Path)):
        try:
            source = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{what} document parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(source, dict):
        raise ValidationError(f"{what} document must be a JSON object")
    return source


def load_coding(source: dict | str | Path) -> MarkovCoding:
    """Load a coding from a JSON document, file path, or parsed dict.

    The document has fields ``generators`` (array of strings), ``vertices``
    (array of strings, must include ``"*"``), ``edges`` (array of
    ``{"from", "to", "label"}`` objects); ``"*"`` is the one reserved vertex
    name.  A document with ``"augmented": true`` is the legacy form, which
    also lists an absorbing vertex ``"0"`` and an empty-labeled edge into it
    from every other vertex: the loader drops that vertex and those edges,
    so any other edge touching ``"0"`` fails as an unknown vertex.

    Returns
    -------
    MarkovCoding
        The fully validated coding.
    """
    document = _read_document(source, "coding")
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
    if augmented:
        vertices = [v for v in vertices if v != "0"]
        edges = [e for e in edges if not (e.target == "0" and e.label == "")]
    coding = MarkovCoding(
        generators=tuple(generators), vertices=tuple(vertices), edges=tuple(edges)
    )
    check_coding(coding)
    return coding


def dump_coding(coding: MarkovCoding) -> dict:
    """Inverse of ``load_coding``: a JSON-ready document."""
    return {
        "generators": list(coding.generators),
        "vertices": list(coding.vertices),
        "edges": [
            {"from": e.source, "to": e.target, "label": e.label} for e in coding.edges
        ],
    }


# ---------------------------------------------------------------------------
# Path-to-word validation
# ---------------------------------------------------------------------------


def validate_coding(coding: MarkovCoding, depth: int) -> CodingValidationReport:
    """Check that distinct paths from ``"*"`` of length ``<= depth`` spell
    distinct words.

    Two distinct paths spell one word iff, where they first part, a vertex
    has two out-edges with the same label, so one breadth-first pass looks
    for a repeated label at each vertex within ``depth - 1`` steps of
    ``"*"``.  ``paths_per_depth`` is ``sphere_counts(coding, depth)``; each
    failure names the first shortest path to such a vertex, extended by the
    label's first edge and by a later one, at the depth where they collide.
    """
    if depth < 0:
        raise InvalidArgumentError(f"depth must be >= 0, got {depth}")
    counts = sphere_counts(coding, depth)
    out_edges = coding.out_edges
    # breadth first: each vertex's distance, first shortest path and its word
    reached = {START_VERTEX: (0, START_VERTEX, "")}
    queue, failures = [START_VERTEX], []
    for vertex in queue:
        distance, path, word = reached[vertex]
        if distance == depth:
            break
        first = {}
        for edge in out_edges[vertex]:
            if edge.label in first:
                failures.append(
                    f"depth {distance + 1}: label word {word + edge.label!r} spelled by paths "
                    f"{path} -> {first[edge.label]} and {path} -> {edge.target}"
                )
            else:
                first[edge.label] = edge.target
            if edge.target not in reached:
                reached[edge.target] = (distance + 1, f"{path} -> {edge.target}", word + edge.label)
                queue.append(edge.target)
    return CodingValidationReport(not failures, depth, tuple(counts), tuple(failures))


# ---------------------------------------------------------------------------
# Component structure
# ---------------------------------------------------------------------------


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
    """Strongly connected components of ``B``, maximality flags and periods.

    One Boolean reachability closure answers every graph question.  Over
    ``("*", *core_vertices)``, Warshall's algorithm turns the 0/1 adjacency
    plus the identity into ``reach``, a Python-int bitset per row; its
    ``"*"`` row is the reachable core, and the classes of mutual reach on
    that core are the components, each named by its first vertex in vertex
    order.  The closure costs O(V^2) bitset operations in the V vertices.

    Components cover exactly the core vertices reachable from ``"*"``.  They
    are listed in reverse of the topological order of the condensation that
    always takes the ready component with the smallest first vertex (sink
    components first).  A component is maximal iff its spectral radius is
    within relative tolerance ``MAXIMALITY_RTOL`` of the growth rate
    ``lambda``; maximal components must be pairwise unreachable from each
    other.

    Raises
    ------
    StructureError
        If no core vertex is reachable from ``"*"``, if no component carries
        a directed cycle (degenerate coding), or if one maximal component
        can reach another (impossible for a strongly Markov coding of a
        group).
    """
    check_coding(coding)
    names = (START_VERTEX, *coding.core_vertices)
    index = {v: i for i, v in enumerate(names)}
    # row i of each table is a bitset over the columns
    adjacency = [0] * len(names)
    for edge in coding.edges:
        adjacency[index[edge.source]] |= 1 << index[edge.target]
    reach = [row | 1 << i for i, row in enumerate(adjacency)]
    for k, row_k in enumerate(reach):
        for i, row in enumerate(reach):
            if row >> k & 1:
                reach[i] = row | row_k
    live = [i for i in range(1, len(names)) if reach[0] >> i & 1]
    if not live:
        raise StructureError(
            "degenerate coding: no core vertex is reachable from the start vertex"
        )
    label = {i: next(j for j in live if reach[i] >> j & reach[j] >> i & 1) for i in live}
    firsts = [i for i in live if label[i] == i]

    # Kahn on the closure: a component is ready once no unplaced component
    # reaches it; always placing the smallest ready one fixes the order
    pending = {c: sum(reach[a] >> c & 1 for a in firsts if a != c) for c in firsts}
    topo: list[int] = []
    for _ in firsts:
        c = min(c for c, count in pending.items() if count == 0)
        topo.append(c)
        del pending[c]
        for b in pending:
            pending[b] -= reach[c] >> b & 1
    order = topo[::-1]

    members = {names[i] for i in live}
    out_edges = coding.out_edges
    succ = {v: [e.target for e in out_edges[v] if e.target in members] for v in members}
    radii: list[float] = []
    periods: list[int] = []
    ordered: list[list[str]] = []
    for first in order:
        idx = [i for i in live if label[i] == first]
        comp = [names[i] for i in idx]
        ordered.append(comp)
        rows = [[float(adjacency[a] >> b & 1) for b in idx] for a in idx]
        radii.append(perron_point(rows)[0])
        periods.append(_component_period(comp, succ))

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
    for i in maximal_indices:
        for j in maximal_indices:
            if i != j and reach[order[i]] >> order[j] & 1:
                raise StructureError(
                    "two maximal-growth components are connected by a directed "
                    "path; a strongly Markov coding of a group cannot do this "
                    f"(components {i} and {j})"
                )
    return ComponentDecomposition(
        components=components,
        lam=lam,
        entropy=math.log(lam),
        maximal_indices=maximal_indices,
    )


# ---------------------------------------------------------------------------
# Counting and growth
# ---------------------------------------------------------------------------


def _path_totals(pairs: list[tuple[str, str]], n_max: int) -> Iterator[int]:
    """Exact numbers of paths from ``"*"`` of length ``0..n_max`` along the
    ``(source, target)`` edge ``pairs``, yielded level by level, by
    big-integer dynamic programming; refused before the first level over
    ``BYTE_BUDGET``, since level ``L`` counts at most ``fan**L`` paths for
    the largest out-degree ``fan``."""
    succ: dict[str, list[str]] = {}
    for source, target in pairs:
        succ.setdefault(source, []).append(target)
    fan = max(map(len, succ.values()), default=1)
    # the totals and two levels of one count per vertex, each int 32 bytes
    # plus 4 per 30 bits of the last level's n_max * log2(fan)
    ints = n_max + 1 + 2 * len({v for pair in pairs for v in pair})
    if (needed := ints * (32 + math.log2(fan) * n_max / 7.5)) > BYTE_BUDGET:
        raise ResourceError(
            f"the exact path counts to length {n_max} could hold about "
            f"{int(needed)} bytes, over the {BYTE_BUDGET}-byte budget; use a "
            "smaller length"
        )
    paths = {START_VERTEX: 1}
    yield 1
    for _ in range(n_max):
        nxt: dict[str, int] = {}
        for v, c in paths.items():
            for w in succ.get(v, ()):
                nxt[w] = nxt.get(w, 0) + c
        yield sum(nxt.values())
        paths = nxt


def sphere_counts(coding: MarkovCoding, n_max: int) -> list[int]:
    """Exact ``[#W_0, ..., #W_{n_max}]`` by big-integer dynamic programming."""
    if n_max < 0:
        raise InvalidArgumentError(f"n_max must be >= 0, got {n_max}")
    return list(_path_totals([(e.source, e.target) for e in coding.edges], n_max))


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
