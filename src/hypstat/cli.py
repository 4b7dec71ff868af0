"""Command-line front end: run any analysis, emit deterministic reports.

``hypstat COMMAND --coding SRC [--weights SRC] [options]`` wires the library
end to end: build or load a coding, attach weights, run the requested
spectral/enumerative/limit-law analysis, and write the result as JSON
(default), CSV (limit-law tables), or aligned text.

Sources
-------
``--coding`` accepts ``free:RANK`` or a path to a coding JSON file.
``--weights`` accepts ``hom:a=1,b=0`` (vector values with ``|``, e.g.
``a=1|0,b=0|1``), ``wordlen``, ``edges:@FILE`` or a bare path to a weights
JSON file.

Exit codes
----------
0   command ran and every criterion passed
1   command ran but a criterion failed
2   usage error (unknown flag, malformed spec string)
3   numerical or validation error from the library, or an I/O failure

Determinism
-----------
Identical argv and input files produce identical output bytes: floats are
printed with 17 significant digits, counts above 2**53 as decimal strings,
keys in fixed insertion order.  Run metadata lives under the ``meta`` key
(golden comparisons exclude it).
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from . import __version__
from .coding import (
    BYTE_BUDGET,
    MarkovCoding,
    build_free_group_coding,
    growth_rate,
    load_coding,
    sphere_counts,
    validate_coding,
)
from .enumerate import (
    distribution,
    distribution_overcounted,
    distribution_to_json,
)
from .errors import HypstatError, PreconditionError, ResourceError
from .limits import (
    LimitLawReport,
    _default_gate_grid,
    averaging_table,
    clt_distance,
    degeneracy_check,
    ldt_rate,
    llt_check,
    mclt_check,
    report_to_json,
)
from .spectral import (
    _component, component_consistency, limit_statistics, nonlattice_gap, pressure
)
from .weights import (
    lattice_scale,
    load_weights,
    weights_from_homomorphism,
    weights_word_length,
)


class UsageError(Exception):
    """Malformed command line (exit code 2)."""


# ---------------------------------------------------------------------------
# Spec-string parsing
# ---------------------------------------------------------------------------


def _coding_from(spec: str) -> MarkovCoding:
    if spec.startswith("free:"):
        raw = spec[len("free:") :]
        try:
            rank = int(raw)
        except ValueError:
            raise UsageError(f"malformed coding spec {spec!r}: rank must be an integer")
        if rank < 1:
            raise UsageError(f"malformed coding spec {spec!r}: rank must be >= 1")
        return build_free_group_coding(rank)
    return load_coding(Path(spec))


def _parse_value(raw: str, context: str) -> float | tuple[float, ...]:
    parts = raw.split("|")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"malformed weight value {raw!r} in {context}")
    return values[0] if len(values) == 1 else tuple(values)


def _weights_from(spec: str, coding: MarkovCoding):
    if spec == "wordlen":
        return weights_word_length(coding)
    if spec.startswith("hom:"):
        body = spec[len("hom:") :]
        table = {}
        for item in body.split(","):
            if "=" not in item:
                raise UsageError(
                    f"malformed homomorphism spec {spec!r}: expected name=value pairs"
                )
            name, _, raw = item.partition("=")
            name = name.strip()
            if not name or name in table:
                raise UsageError(
                    f"malformed homomorphism spec {spec!r}: bad or repeated name {name!r}"
                )
            table[name] = _parse_value(raw.strip(), spec)
        try:
            return weights_from_homomorphism(coding, table)
        except HypstatError as exc:
            raise UsageError(str(exc))
    if spec.startswith("edges:@"):
        return load_weights(Path(spec[len("edges:@") :]), coding)
    return load_weights(Path(spec), coding)


def _refuse_huge_grid(text: str, points: float, largest: object) -> None:
    """Refuse a range grid whose list would exceed ``BYTE_BUDGET``: a
    pointer and an object no larger than ``largest`` for each of ``points``."""
    if points * (8 + sys.getsizeof(largest)) > BYTE_BUDGET:
        raise ResourceError(
            f"grid {text!r} would take over {BYTE_BUDGET} bytes as a list; "
            "use a larger step or a shorter range"
        )


def _parse_int_grid(text: str) -> list[int]:
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError
            if step < 1 or hi < lo:
                raise ValueError
            _refuse_huge_grid(text, (hi - lo) // step + 1, hi)
            grid = list(range(lo, hi + 1, step))
        else:
            grid = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"malformed n grid {text!r}: use lo:hi[:step] or comma list")
    if not grid or any(n < 1 for n in grid):
        raise UsageError(f"n grid {text!r} must contain positive integers")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"n grid {text!r} must be strictly increasing")
    return grid


def _parse_float_grid(text: str) -> list[float]:
    try:
        if ":" in text:
            lo_s, hi_s, step_s = text.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
            if not all(map(math.isfinite, (lo, hi, step))):
                raise UsageError(f"grid {text!r} needs a finite lo, hi and step")
            if step <= 0.0 or hi < lo:
                raise ValueError
            # refuses a quotient that overflows to inf before floor() sees it
            _refuse_huge_grid(text, (hi - lo) / step + 1.0, 0.0)
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
            grid = [lo + k * step for k in range(count)]
        else:
            grid = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"malformed grid {text!r}: use lo:hi:step or comma list")
    if not grid:
        raise UsageError(f"grid {text!r} is empty")
    return grid


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"malformed interval {text!r}: expected a,b")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"malformed interval {text!r}: expected numbers")


def _parse_cell(text: str) -> tuple[tuple, tuple]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise UsageError(f"malformed cell {text!r}: expected a1,b1,a2,b2")
    bounds = []
    for slot, p in enumerate(parts):
        # empty, or -inf for a lower and inf for an upper bound, is unbounded
        unbounded = math.inf if slot % 2 else -math.inf
        try:
            value = float(p or unbounded)
        except ValueError:
            raise UsageError(f"malformed cell bound {p!r} in {text!r}")
        if not math.isfinite(value) and value != unbounded:
            raise UsageError(f"cell bound {p!r} in {text!r} is not finite and not {unbounded}")
        bounds.append(None if value == unbounded else value)
    return (bounds[0], bounds[1]), (bounds[2], bounds[3])


# ---------------------------------------------------------------------------
# Deterministic emission
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise HypstatError(f"non-finite float {x!r} in report payload")
    text = format(x, ".17g")
    if not any(c in text for c in ".e"):
        text += ".0"
    return text


def _json_encode(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        if abs(obj) >= 2**53:
            out.append(f'"{obj}"')
        else:
            out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _json_encode(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(encode_basestring_ascii(str(key)))
            out.append(": ")
            _json_encode(value, out)
        out.append("}")
    else:
        raise HypstatError(f"cannot serialize {type(obj).__name__} to JSON")


def _json_dumps(doc: dict) -> str:
    out: list[str] = []
    _json_encode(doc, out)
    return "".join(out) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def _csv_dumps(rows: Sequence[dict]) -> str:
    lines = ["n,observed,predicted,residual"]
    for row in rows:
        lines.append(
            ",".join(
                _csv_cell(row.get(key)) for key in ("n", "observed", "predicted", "residual")
            )
        )
    return "\n".join(lines) + "\n"


def _text_value(value) -> str:
    if isinstance(value, float):
        return _format_float(value)
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_text_value, value)) + "]"
    return str(value)


def _text_lines(doc: dict, indent: str = "") -> list[str]:
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_text_lines(value, indent + "  "))
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}: [{len(value)} entries]")
        elif isinstance(value, (list, tuple)):
            lines.append(
                f"{indent}{key}: " + " ".join(_text_value(v) for v in value)
            )
        else:
            lines.append(f"{indent}{key}: {_text_value(value)}")
    return lines


def _report_text(doc: dict) -> str:
    lines = [f"law: {doc['law']}"]
    for section in ("params", "theory", "tolerances"):
        lines.append(f"{section}:")
        lines.extend(_text_lines(doc[section], "  "))
    header = ("n", "observed", "predicted", "residual")
    table = [header]
    for row in doc["rows"]:
        table.append(tuple(_text_value(row.get(k)) for k in header))
    widths = [max(len(r[j]) for r in table) for j in range(4)]
    lines.append("")
    for r in table:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    lines.append("")
    for check in doc["checks"]:
        verdict = "PASS" if check["passed"] else "FAIL"
        lines.append(
            f"{verdict}  {check['name']}: {_format_float(check['lhs'])} "
            f"{check['op']} {_format_float(check['rhs'])}"
        )
    lines.append(f"RESULT: {'PASS' if doc['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _emit(doc: dict, args, is_report: bool) -> None:
    fmt = args.format
    if fmt == "json":
        payload = _json_dumps(doc)
    elif fmt == "csv":
        if not is_report:
            raise UsageError("csv format is available for limit-law reports only")
        payload = _csv_dumps(doc["rows"])
    elif fmt == "text":
        payload = _report_text(doc) if is_report else "\n".join(_text_lines(doc)) + "\n"
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown format {fmt!r}")
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_pair(args):
    coding = _coding_from(args.coding)
    return coding, _weights_from(args.weights, coding)


def _pipeline(args):
    coding, weights = _load_pair(args)
    if args.component is not None:
        return coding, weights, limit_statistics(coding, weights, args.component)
    # no component named: the maximal components must agree to speak for all
    # (a single one agrees with itself)
    report = component_consistency(coding, weights)
    if not report.consistent:
        raise PreconditionError(
            "maximal components disagree (drift spread "
            f"{report.max_drift_spread:.3e}, covariance spread "
            f"{report.max_variance_spread:.3e}); pick one with --component"
        )
    return coding, weights, report.statistics[0]


def cmd_growth(args) -> dict:
    coding = _coding_from(args.coding)
    report = growth_rate(coding, args.horizon)
    counts = sphere_counts(coding, min(args.horizon, 20))
    return {
        "lam": report.lam,
        "entropy": report.entropy,
        "lam_ratio": report.lam_ratio,
        "elementary": report.elementary,
        "horizon": report.horizon,
        "ratio_trace": list(report.ratio_trace),
        "counts": {str(n): str(c) for n, c in enumerate(counts)},
    }


def cmd_pressure(args) -> dict:
    coding, weights = _load_pair(args)
    s = _parse_float_grid(args.s)
    return pressure(coding, weights, args.component, s)._asdict()


def cmd_stats(args) -> dict:
    coding, weights, stats = _pipeline(args)
    # scalar weights print sigma2; vector weights their covariance matrix
    scalar = weights.dim == 1
    return {
        "component": stats.component,
        "drift": list(stats.drift),
        "sigma2": stats.sigma2 if scalar else None,
        "covariance": None if scalar else [list(row) for row in stats.covariance],
        "entropy": stats.entropy,
        "lam": stats.lam,
        "degenerate": stats.degenerate,
        "positive_definite": None if scalar else not stats.degenerate,
    }


def cmd_dist(args) -> dict:
    coding, weights = _load_pair(args)
    if args.overcounted:
        dist = distribution_overcounted(coding, weights, args.n, args.bin)
    else:
        dist = distribution(coding, weights, args.n, args.bin)
    return distribution_to_json(dist)


def cmd_averaging(args) -> LimitLawReport:
    coding, weights, stats = _pipeline(args)
    return averaging_table(coding, weights, stats, _parse_int_grid(args.ngrid))


def cmd_clt(args) -> LimitLawReport:
    coding, weights, stats = _pipeline(args)
    return clt_distance(coding, weights, stats, _parse_int_grid(args.ngrid))


def cmd_ldt(args) -> LimitLawReport:
    coding, weights, stats = _pipeline(args)
    return ldt_rate(
        coding,
        weights,
        stats,
        args.epsilon,
        _parse_int_grid(args.ngrid),
        _parse_float_grid(args.tgrid),
    )


def cmd_mclt(args) -> LimitLawReport:
    coding, weights, stats = _pipeline(args)
    cells = [_parse_cell(c) for c in args.cell] if args.cell else None
    return mclt_check(coding, weights, stats, _parse_int_grid(args.ngrid), cells)


def cmd_llt(args) -> LimitLawReport:
    coding, weights, stats = _pipeline(args)
    a, b = _parse_interval(args.interval)
    return llt_check(
        coding,
        weights,
        stats,
        a,
        b,
        _parse_int_grid(args.ngrid),
        bin_width=args.bin,
        gate_t_grid=None if args.gate_grid is None else _parse_float_grid(args.gate_grid),
    )


def cmd_degeneracy(args) -> LimitLawReport:
    coding, weights, stats = _pipeline(args)
    return degeneracy_check(coding, weights, stats, args.ncap)


def cmd_scan_lattice(args) -> dict:
    coding, weights = _load_pair(args)
    tgrid = _default_gate_grid() if args.tgrid is None else _parse_float_grid(args.tgrid)
    grid = [t for t in tgrid if t > 0.0]
    if not grid:
        raise UsageError("scan grid must contain positive frequencies")
    component = _component(coding, weights, args.component).index
    scale = lattice_scale(weights)
    # the exact witness t = 2 pi scale of lattice weights rides last on the scan
    exact = [] if scale is None else [2.0 * math.pi * scale]
    points = list(nonlattice_gap(coding, weights, component, grid + exact))
    witness = points.pop()._asdict() if exact else None
    low = min(points, key=lambda p: p.gap)
    return {
        "component": component,
        "min_gap": low.gap,
        "argmin_t": low.t,
        "lattice_scale": scale,
        "witness": witness,
        "points": [p._asdict() for p in points],
    }


def cmd_validate(args) -> dict:
    coding = _coding_from(args.coding)
    report = validate_coding(coding, args.depth)
    return {
        "ok": report.ok,
        "depth": report.depth,
        "paths_per_depth": [str(c) for c in report.paths_per_depth],
        "failures": list(report.failures),
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(parser, weights: bool = True) -> None:
    parser.add_argument(
        "--coding", required=True, help="coding source: free:RANK or a JSON path"
    )
    if weights:
        parser.add_argument(
            "--weights",
            required=True,
            help="weights source: hom:a=1,b=0 | wordlen | edges:@FILE | path",
        )
        parser.add_argument(
            "--component",
            type=int,
            default=None,
            help="maximal component index (default: the first, if all agree)",
        )
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="json",
        help="output format (csv applies to limit-law reports)",
    )


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every command name and help line.  Only ``command``'s
    subparser gets ``-h`` and its options, as argparse reads no other; every
    subparser gets them when ``command`` is ``None`` or names no command
    (``--help``, ``--version``, a typo)."""
    parser = argparse.ArgumentParser(
        prog="hypstat",
        description="Statistical limit laws on word spheres of Markov-coded groups.",
    )
    parser.add_argument(
        "--version", action="version", version=f"hypstat {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func, weights: bool = True):
        built = command in (None, name)
        p = sub.add_parser(name, help=help_text, add_help=built)
        if not built:
            # a stand-in that drops the options of a subparser argparse will not read
            return argparse.Namespace(add_argument=lambda *args, **kwargs: None)
        p.set_defaults(func=func)
        _add_common(p, weights)
        return p

    p = add("growth", "growth rate and sphere counts", cmd_growth, weights=False)
    p.add_argument("--horizon", type=int, default=40, help="count spheres up to here")

    p = add("pressure", "Perron data of the transfer matrix", cmd_pressure)
    p.add_argument("--s", default="0", help="parameter (comma list for vectors)")

    add("stats", "drift and variance/covariance", cmd_stats)

    p = add("dist", "exact sphere distribution", cmd_dist)
    p.add_argument("--n", type=int, required=True, help="sphere radius")
    p.add_argument("--bin", type=float, default=None, help="bin width (real weights)")
    p.add_argument(
        "--overcounted",
        action="store_true",
        help="use the overcounted normalization (multiple maximal components)",
    )

    p = add("averaging", "sphere means against the drift", cmd_averaging)
    p.add_argument("--ngrid", default="25:200:25", help="lo:hi[:step] or comma list")

    p = add("clt", "Kolmogorov distance to the Gaussian", cmd_clt)
    p.add_argument("--ngrid", default="16,36,64,100,144,196")

    p = add("ldt", "large-deviation tails against the rate bound", cmd_ldt)
    p.add_argument("--epsilon", type=float, required=True, help="deviation size")
    p.add_argument("--ngrid", default="10:200:10")
    p.add_argument("--tgrid", default="0:2:0.01", help="Chernoff parameter grid")

    p = add("mclt", "vector CLT: covariance and cell masses", cmd_mclt)
    p.add_argument("--ngrid", default="25,50,100,200")
    p.add_argument(
        "--cell",
        action="append",
        default=None,
        help="cell a1,b1,a2,b2 (-inf, inf or empty for an unbounded lower, "
        "upper or either side); repeatable",
    )

    p = add("llt", "local limit law on an interval", cmd_llt)
    p.add_argument("--interval", required=True, help="a,b")
    p.add_argument("--ngrid", default="100,200,300")
    p.add_argument("--bin", type=float, default=None, help="bin width override")
    p.add_argument(
        "--gate-grid",
        help="frequency grid for the non-lattice gate (t <= 0 is skipped; "
        "default 0.1 to 20 by 0.05)",
    )

    p = add("degeneracy", "two-route variance degeneracy verdict", cmd_degeneracy)
    p.add_argument("--ncap", type=int, default=64, help="largest radius checked")

    p = add("scan-lattice", "non-lattice gap over a frequency grid", cmd_scan_lattice)
    p.add_argument("--tgrid", help="frequency grid (default: llt's --gate-grid)")

    p = add("validate", "path-to-word bijection check", cmd_validate, weights=False)
    p.add_argument("--depth", type=int, default=8, help="largest path length checked")

    return parser if command in (None, *sub.choices) else _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line; returns the exit code.

    A ``cmd_*`` handler returns a ``LimitLawReport`` or a document body;
    ``main`` alone frames it with ``command`` and ``meta``, emits it, and
    exits 1 when a report failed or ``validate`` found a fault."""
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser(raw_argv[0] if raw_argv else None)
    try:
        args = parser.parse_args(raw_argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        result = args.func(args)
        is_report = isinstance(result, LimitLawReport)
        body = report_to_json(result) if is_report else result
        meta = {"argv": raw_argv, "version": __version__}
        _emit({"command": args.command, **body, "meta": meta}, args, is_report)
        passed = result.passed if is_report else body.get("ok", True)
        return 0 if passed else 1
    except UsageError as exc:
        print(f"hypstat: usage error: {exc}", file=sys.stderr)
        return 2
    except HypstatError as exc:
        print(f"hypstat: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"hypstat: i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> int:
    """Process entry of ``hypstat`` and ``python -m hypstat.cli``: freeze the
    heap after import, so that no collection during the command walks it,
    and after the command, so that the exit collection skips what it
    imported (numpy, say); ``main`` and the library leave the GC alone."""
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
