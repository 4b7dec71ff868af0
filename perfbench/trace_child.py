"""Run one ``hypstat`` command in-process with a span around every public call.

Usage::

    python3 perfbench/trace_child.py COMMAND [ARG ...]

The program imports ``hypstat.cli`` (timed as the ``import`` span), replaces
every public function of every ``hypstat`` module with a timing wrapper in
each ``hypstat`` namespace that binds it, wraps scipy's ``quad`` as bound in
``hypstat.limits`` (and each integrand it is given) to count quadrature calls
and evaluations, then runs ``hypstat.cli.main`` on the arguments with its
output captured.  It prints one JSON document: the exit code, the captured
output, the spans ``[name, start, end, parent]`` (seconds since the program
started, parent ``-1`` for a root) and the counters read from the values the
library returned.  The package under ``src/`` is not modified.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import sys
import time

clock = time.perf_counter
T0 = clock()

# hypstat module -> layer name used in span names and metrics
LAYERS = {
    "hypstat.cli": "cli",
    "hypstat.coding": "coding",
    "hypstat.weights": "weights",
    "hypstat.spectral": "spectral",
    "hypstat._power": "power",
    "hypstat.enumerate": "enumerate",
    "hypstat.limits": "limits",
}


class Tracer:
    """Spans and counters of one process, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock() - T0, None, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock() - T0
        self.stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)


TRACER = Tracer()


# Counters read from arguments and return values, keyed by function name.


def _perron(args, result) -> None:
    TRACER.add("power.perron_iterations", result.iterations)
    TRACER.peak("power.perron_worst_residual", result.residual)


def _modulus(args, result) -> None:
    TRACER.add("power.modulus_iterations", result[1])


def _gap(args, result) -> None:
    TRACER.add("spectral.gap_points", len(result))


def _sweep(args, result) -> None:
    """Packed-engine size of a scalar sweep, computed from its output.

    Slots are the span of the scaled support at the deepest level; the limb
    width follows the engine's rule (bits of the largest sphere count plus a
    carry byte, rounded up to bytes); the state holds one packed integer per
    core vertex.
    """
    coding, weights = args[0], args[1]
    if weights.dim != 1 or not result:
        return
    deepest = max(result, key=lambda d: d.n)
    bits = max(d.total for d in result).bit_length()
    slots = max(deepest.support_scaled) - min(deepest.support_scaled) + 1
    limb_bytes = (bits + 8 + 7) // 8
    TRACER.add("enumerate.sweep_levels", deepest.n)
    TRACER.add("enumerate.support_slots", slots)
    TRACER.peak("enumerate.count_bits_max", bits)
    TRACER.add(
        "enumerate.state_bytes_computed",
        slots * limb_bytes * len(coding.core_vertices),
    )


OBSERVERS = {
    "perron_root": _perron,
    "dominant_modulus": _modulus,
    "nonlattice_gap": _gap,
    "distribution_sweep": _sweep,
}


def _span_name(layer: str, name: str, args) -> str:
    if name == "distribution_sweep" and len(args) > 1:
        return f"{layer}.{name}[{'scalar' if args[1].dim == 1 else 'vector'}]"
    return f"{layer}.{name}"


def _wrap(layer: str, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = TRACER.open(_span_name(layer, name, args))
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.close(index)
        if observe is not None:
            observe(args, result)
        return result

    return traced


def _wrap_quad(quad):
    @functools.wraps(quad)
    def counted_quad(func, *args, **kwargs):
        TRACER.add("limits.quad_calls", 1)

        def integrand(*xs):
            TRACER.add("limits.quad_evals", 1)
            return func(*xs)

        return quad(integrand, *args, **kwargs)

    return counted_quad


def install() -> None:
    """Rebind every public hypstat function to its traced wrapper."""
    modules = [
        m for n, m in sys.modules.items() if n == "hypstat" or n.startswith("hypstat.")
    ]
    traced_by_id = {}
    for module_name, layer in LAYERS.items():
        module = sys.modules[module_name]
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module_name
            ):
                traced_by_id[id(value)] = _wrap(layer, name, value)
    for module in modules:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in traced_by_id:
                setattr(module, name, traced_by_id[id(value)])
    limits = sys.modules["hypstat.limits"]
    limits.quad = _wrap_quad(limits.quad)


def main(argv: list[str]) -> int:
    index = TRACER.open("import")
    import hypstat.cli as cli

    TRACER.close(index)
    install()
    captured = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = captured
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = real_stdout
    out = captured.getvalue()
    TRACER.add("cli.bytes_out", len(out.encode("utf-8")))
    json.dump(
        {"exit": code, "out": out, "spans": TRACER.spans, "counts": TRACER.counts},
        real_stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
