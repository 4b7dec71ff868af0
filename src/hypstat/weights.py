"""Edge-combable weight functions: vector-valued edge weights on a coding.

A weight assignment puts a length-``k`` real vector on every edge of a
coding; the value of a group element is the sum of the vectors along its
coding path.  Homomorphisms (values on generators, extended by letter
sums), the word-length function (weight 1 everywhere), and arbitrary edge
tables are the supported constructions.

Only the exact path-sum case is implemented: a weight assignment determines
the function exactly, with no bounded-error slack.  Bi-Lipschitz regularity
of arbitrary edge tables is assumed, not verified (it holds by construction
for homomorphisms and word length).  Vertex-based combable functions are
supported by encoding them as an edge table (weight of an edge = value at
its endpoint).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .coding import MarkovCoding, _read_document
from .errors import InvalidArgumentError, ValidationError

#: largest least-common-denominator for which weights count as lattice
LATTICE_DENOMINATOR_GUARD = 10**6

Vector = tuple[float, ...]


class WeightAssignment(NamedTuple):
    """Vector-valued weights on the edges of a coding.

    Attributes
    ----------
    dim : int
        Number of coordinates ``k`` (1 for scalar weights).
    edge_values : dict
        ``(source, target) -> length-k tuple`` for every edge.
    """

    dim: int
    edge_values: dict[tuple[str, str], Vector]


def _as_vector(raw: object, dim: int | None, context: str) -> tuple[Vector, int]:
    """Normalize a scalar or sequence to a finite float tuple; return (vector, dim)."""
    if isinstance(raw, Sequence) and not isinstance(raw, (str, bytes)):
        if not raw:
            raise InvalidArgumentError(f"{context}: empty value vector")
    elif hasattr(raw, "as_integer_ratio"):
        raw = (raw,)
    else:
        raise InvalidArgumentError(f"{context}: value must be a number or a sequence")
    values = []
    for x in raw:
        # int, float and Fraction have as_integer_ratio, and so has bool
        if isinstance(x, bool):
            raise InvalidArgumentError(f"{context}: value {x!r} is a boolean, not a number")
        if not hasattr(x, "as_integer_ratio"):
            raise InvalidArgumentError(f"{context}: value {x!r} is not a number")
        try:
            value = float(x)
        except OverflowError:
            raise InvalidArgumentError(f"{context}: value is too large for a float")
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{context}: value {value!r} is not finite")
        values.append(value)
    vec: Vector = tuple(values)
    if dim is not None and len(vec) != dim:
        raise InvalidArgumentError(
            f"{context}: value has {len(vec)} coordinates, expected {dim}"
        )
    return vec, len(vec)


def inverse_name(name: str) -> str | None:
    """Formal-inverse partner of a generator name, if the convention defines one.

    ``"a" <-> "A"`` for alphabetic names with a distinct case-swap, and
    ``"g" <-> "g^-1"`` for explicit inverse suffixes; otherwise ``None``.
    """
    if name.endswith("^-1"):
        return name[:-3]
    swapped = name.swapcase()
    if name.isalpha() and swapped != name:
        return swapped
    return None


def _resolve_generator_key(key: str, generators: set[str]) -> tuple[str, int]:
    """Map a value-table key onto (generator name, sign).

    A key may name a generator directly, or name the inverse of one via the
    ``"a^-1"`` convention when the coding spells that inverse ``"A"``.
    """
    if key in generators:
        return key, +1
    if key.endswith("^-1"):
        base = key[:-3]
        partner = inverse_name(base)
        if partner is not None and partner in generators:
            return partner, +1  # the key literally names that generator's inverse
        if base in generators:
            return base, -1
    raise InvalidArgumentError(f"unknown generator {key!r} in weight values")


def weights_from_homomorphism(
    coding: MarkovCoding, values: Mapping[str, object]
) -> WeightAssignment:
    """Weights realizing the homomorphism determined by generator values.

    Every generator of the coding must be covered, either directly or
    through its formal inverse (``value(x^-1) = -value(x)`` is enforced;
    supplying both with inconsistent values is an error).  Each edge
    labeled ``g`` receives ``values[g]``, so path sums equal the
    homomorphism of the spelled group element.

    Parameters
    ----------
    coding : MarkovCoding
    values : mapping
        Generator name -> number or length-k sequence.

    Returns
    -------
    WeightAssignment
    """
    generators = set(coding.generators)
    dim: int | None = None
    direct: dict[str, Vector] = {}
    for key, raw in values.items():
        name, sign = _resolve_generator_key(str(key), generators)
        vec, dim = _as_vector(raw, dim, f"value for {key!r}")
        if sign < 0:
            vec = tuple(-x for x in vec)
        if name in direct and direct[name] != vec:
            raise InvalidArgumentError(
                f"conflicting values supplied for generator {name!r}"
            )
        direct[name] = vec
    if dim is None:
        raise InvalidArgumentError("no generator values supplied")
    table: dict[str, Vector] = {}
    for gen in coding.generators:
        partner = inverse_name(gen)
        partner_known = partner is not None and partner in direct
        if gen in direct:
            table[gen] = direct[gen]
            if partner_known:
                expected = tuple(-x for x in direct[partner])
                if direct[gen] != expected:
                    raise InvalidArgumentError(
                        f"inconsistent inverse values: {gen!r} must equal "
                        f"the negation of {partner!r}"
                    )
        elif partner_known:
            table[gen] = tuple(-x for x in direct[partner])
        else:
            raise InvalidArgumentError(
                f"missing generator {gen!r} in homomorphism values"
            )
    edge_values = {(e.source, e.target): table[e.label] for e in coding.edges}
    return WeightAssignment(dim=dim, edge_values=edge_values)


def weights_word_length(coding: MarkovCoding) -> WeightAssignment:
    """Scalar weight 1 on every edge; path sums equal word length."""
    edge_values = {(e.source, e.target): (1.0,) for e in coding.edges}
    return WeightAssignment(dim=1, edge_values=edge_values)


def weights_from_edge_table(
    coding: MarkovCoding, table: Mapping[tuple[str, str], object]
) -> WeightAssignment:
    """Arbitrary edge-combable weights from an explicit edge table.

    The table must cover every edge of the coding exactly; missing edges
    are reported together, unknown edges are rejected.

    Parameters
    ----------
    coding : MarkovCoding
    table : mapping
        ``(source, target) -> number or length-k sequence``.

    Returns
    -------
    WeightAssignment
    """
    edge_keys = {(e.source, e.target) for e in coding.edges}
    unknown = sorted(set(table) - edge_keys)
    if unknown:
        listing = ", ".join(f"{s}->{t}" for s, t in unknown)
        raise InvalidArgumentError(f"weight table lists unknown edges: {listing}")
    missing = sorted(edge_keys - set(table))
    if missing:
        listing = ", ".join(f"{s}->{t}" for s, t in missing)
        raise InvalidArgumentError(f"weight table misses edges: {listing}")
    dim: int | None = None
    edge_values: dict[tuple[str, str], Vector] = {}
    for key in sorted(edge_keys):
        vec, dim = _as_vector(table[key], dim, f"value for edge {key[0]}->{key[1]}")
        edge_values[key] = vec
    return WeightAssignment(dim=dim if dim is not None else 1, edge_values=edge_values)


def _denominator(weights: WeightAssignment) -> int:
    """The smallest positive integer ``q`` such that every entry times ``q``
    is an integer, exactly in binary floating point (a power of two)."""
    ratios = (x.as_integer_ratio() for vec in weights.edge_values.values() for x in vec)
    return math.lcm(*(denominator for _, denominator in ratios))


def lattice_scale(weights: WeightAssignment) -> int | None:
    """Least common denominator putting all weight entries on a lattice.

    Returns ``_denominator(weights)``, or ``None`` when it exceeds the
    guard, which bounds the slots of an enumeration; irrational or generic
    float entries are honestly treated as non-lattice.
    """
    q = _denominator(weights)
    return q if q <= LATTICE_DENOMINATOR_GUARD else None


def scaled_integer_values(
    weights: WeightAssignment, scale: int
) -> dict[tuple[str, str], tuple[int, ...]]:
    """Edge values as exact integers on the ``1/scale`` lattice."""
    out: dict[tuple[str, str], tuple[int, ...]] = {}
    for key, vec in weights.edge_values.items():
        ints = []
        for x in vec:
            numerator, denominator = x.as_integer_ratio()
            if numerator * scale % denominator:
                raise InvalidArgumentError(
                    f"{x!r} on edge {key[0]}->{key[1]} is off the 1/{scale} lattice"
                )
            ints.append(numerator * scale // denominator)
        out[key] = tuple(ints)
    return out


def load_weights(source: dict | str | Path, coding: MarkovCoding) -> WeightAssignment:
    """Load a weight assignment from a JSON document, file path, or dict.

    Two forms: ``{"dim": k, "by_generator": {gen: [floats]}}`` builds
    homomorphism weights, ``{"dim": k, "by_edge": [{"from", "to", "value"}]}``
    builds an edge table.  Generator keys may use the ``"A"`` or ``"a^-1"``
    inverse conventions.
    """
    document = _read_document(source, "weights")
    declared_dim = document.get("dim")
    if not isinstance(declared_dim, int) or isinstance(declared_dim, bool) or declared_dim < 1:
        raise ValidationError("field 'dim' must be a positive integer")
    if ("by_generator" in document) == ("by_edge" in document):
        raise ValidationError(
            "weights document must have exactly one of 'by_generator' or 'by_edge'"
        )
    if "by_generator" in document:
        table = document["by_generator"]
        if not isinstance(table, dict):
            raise ValidationError("field 'by_generator' must be an object")
        weights = weights_from_homomorphism(coding, table)
    else:
        rows = document["by_edge"]
        if not isinstance(rows, list):
            raise ValidationError("field 'by_edge' must be an array")
        edge_table: dict[tuple[str, str], object] = {}
        for i, item in enumerate(rows):
            if not isinstance(item, dict) or not {"from", "to", "value"} <= set(item):
                raise ValidationError(
                    f"field 'by_edge[{i}]' must be an object with from/to/value"
                )
            edge_table[(item["from"], item["to"])] = item["value"]
        weights = weights_from_edge_table(coding, edge_table)
    if weights.dim != declared_dim:
        raise ValidationError(
            f"declared dim {declared_dim} does not match value dimension {weights.dim}"
        )
    return weights


def dump_weights(weights: WeightAssignment) -> dict:
    """JSON-ready edge-table document (inverse of the ``by_edge`` form)."""
    return {
        "dim": weights.dim,
        "by_edge": [
            {"from": s, "to": t, "value": list(v)}
            for (s, t), v in sorted(weights.edge_values.items())
        ],
    }
