"""Closed-loop benchmark of the ``hypstat`` command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --record

Run it from the repository root.  Each command is a fresh
``python -m hypstat.cli`` subprocess with ``PYTHONPATH=src`` (one client, one
command at a time), so interpreter start and import are counted.  Children
run BLAS at one thread and without ``HYPSTAT_THREADS``.

A run first imports ``hypstat.cli`` once untimed (this fills the bytecode
caches, as an installed package has them), then, with ``--trace 0``, times
three fresh imports for ``setup_s``.  It then runs passes over the
workload's commands, in an order drawn from the seed, until another pass
would end after ``--seconds``; at least one pass runs.  With ``--trace 1`` such
passes run for half of ``--seconds``, followed by the import breakdown
(``python -X importtime``) and one traced pass, in which every command runs
in ``trace_child.py`` with a span on each public library call; the spans are
written to ``perfbench/out/`` and reduced to per-layer metrics.

Every output is checked against the references in ``perfbench/refs/``
(recorded with ``--record``, ``meta`` excluded) and against closed forms
that do not depend on them.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = HERE / "out"
Z2Z3_CODING = "perfbench/inputs/z2z3_coding.json"
Z2Z3_WEIGHTS = "perfbench/inputs/z2z3_weights.json"

# The seed picks the irrational coordinate b of the non-lattice weight
# hom:a=1,b=beta.  Every value is below 1, so the a-coordinate sets the
# quantized value range and the binned llt DP has the same number of slots
# for each of them; the seed changes the input, not the amount of work.
BETAS = {
    "r2inv": 1 / math.sqrt(2),
    "r3inv": 1 / math.sqrt(3),
    "phiinv": (math.sqrt(5) - 1) / 2,
    "r2m1": math.sqrt(2) - 1,
}

# Float tolerance of the output check.  RESIDUAL_CONTRACT (1e-12) bounds each
# Perron residual; the variance is a second difference with step 1e-2, which
# scales that error by 1/h^2 = 1e4, so a solver change within the contract
# can move variance-derived values by about 1e-8.  1e-9 relative is ten times
# tighter than that; 1e-12 absolute covers values that are zero up to
# rounding (gaps, residuals).
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
COMMAND_TIMEOUT_S = 150

# Workload names and metric units come from BENCHMARK.json at the root.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Per-layer metrics that are the summed duration of one function's spans.
SPAN_TIMES = {
    "power.perron_s": "power.perron_root",
    "power.modulus_s": "power.dominant_modulus",
    "power.growth_check_s": "power.power_growth_log",
    "enumerate.scalar_sweep_s": "enumerate.distribution_sweep[scalar]",
    "enumerate.vector_sweep_s": "enumerate.distribution_sweep[vector]",
    "enumerate.masses_2d_s": "enumerate.lattice_masses_2d",
    "enumerate.moment_sweep_s": "enumerate.moment_sweep",
    "enumerate.log_sum_sweep_s": "enumerate.log_weighted_sum_sweep",
}
# Per-layer metrics that count one function's spans.
SPAN_CALLS = {
    "spectral.transfer_matrix_calls": "spectral.transfer_matrix",
    "spectral.pressure_calls": "spectral.pressure",
    "power.perron_calls": "power.perron_root",
    "power.modulus_calls": "power.dominant_modulus",
    "power.growth_check_calls": "power.power_growth_log",
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def commands(workload: str, beta_name: str) -> list[tuple[str, list[str]]]:
    """(command id, CLI arguments) of one pass of a workload."""
    free = ["--coding", "free:2"]
    light = free + ["--weights", "hom:a=1,b=0"]
    vector = free + ["--weights", "hom:a=1|0,b=0|1"]
    beta = free + ["--weights", f"hom:a=1,b={BETAS[beta_name]!r}"]
    if workload == "cli-light":
        return [
            ("growth", ["growth"] + free + ["--horizon", "12"]),
            ("stats", ["stats"] + light),
            ("pressure", ["pressure"] + light + ["--s", "0.5"]),
            ("dist-40", ["dist"] + light + ["--n", "40"]),
            ("clt-csv", ["clt"] + light + ["--ngrid", "16:196:4", "--format", "csv"]),
            ("averaging", ["averaging"] + light),
            ("degeneracy", ["degeneracy"] + light),
            ("validate", ["validate"] + free + ["--depth", "6"]),
        ]
    if workload == "spectral-grid":
        return [
            ("ldt", ["ldt"] + light + ["--epsilon", "0.4"]),
            (f"scan-{beta_name}", ["scan-lattice"] + beta),
            (
                "scan-z2z3",
                ["scan-lattice", "--coding", Z2Z3_CODING, "--weights", Z2Z3_WEIGHTS],
            ),
        ]
    if workload == "exact-scalar":
        return [
            (
                f"llt-{beta_name}",
                ["llt"] + beta + ["--interval=-0.5,0.5", "--ngrid", "100:300:100"],
            )
        ]
    if workload == "exact-vector":
        return [
            ("mclt", ["mclt"] + vector),
            ("dist-vector-60", ["dist"] + vector + ["--n", "60"]),
        ]
    raise ValueError(workload)


# Untimed commands run once per run to check the inputs by closed forms.
CHECK_ONLY = {
    "spectral-grid": [
        ("growth-z2z3", ["growth", "--coding", Z2Z3_CODING, "--horizon", "12"])
    ],
}


def all_commands() -> dict[str, list[str]]:
    table = {}
    for workload in WORKLOADS:
        for beta_name in BETAS:
            for cmd_id, argv in commands(workload, beta_name):
                table[cmd_id] = argv
        for cmd_id, argv in CHECK_ONLY.get(workload, []):
            table[cmd_id] = argv
    return table


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for key in ("HYPSTAT_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(key, None)
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


ENV = child_env()


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python ARGS`` from the repository root; (wall seconds, result)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=COMMAND_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def strip_meta(text: str) -> str:
    """Output without its trailing ``meta`` object (CSV has none)."""
    cut = text.rfind(', "meta": ')
    return text[:cut] if cut >= 0 else text


def parse(stripped: str):
    if stripped.startswith("{"):
        return json.loads(stripped + "}")
    return [[_number(c) for c in line.split(",")] for line in stripped.splitlines()]


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def same(ref, got, path: str = "$") -> str | None:
    """None when ``got`` matches ``ref``, else the first difference.

    Strings (verdict names, check names, decimal counts), integers, booleans
    and structure must be equal; floats agree within FLOAT_RTOL relative or
    FLOAT_ATOL absolute.
    """
    if isinstance(ref, dict) and isinstance(got, dict):
        if list(ref) != list(got):
            return f"{path}: keys {list(ref)} != {list(got)}"
        for key in ref:
            diff = same(ref[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(ref)} != {len(got)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            diff = same(a, b, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if type(ref) is float and type(got) is float:
        if abs(ref - got) <= max(FLOAT_RTOL * max(abs(ref), abs(got)), FLOAT_ATOL):
            return None
        return f"{path}: {ref!r} != {got!r}"
    if type(ref) is type(got) and ref == got:
        return None
    return f"{path}: {ref!r} != {got!r}"


def free_sphere(n: int) -> int:
    return 1 if n == 0 else 4 * 3 ** (n - 1)


def z2z3_sphere(n: int) -> int:
    if n == 0:
        return 1
    return 3 * 2 ** ((n - 1) // 2) if n % 2 else 2 ** (n // 2 + 1)


def closed_form(cmd_id: str, argv: list[str], doc) -> str | None:
    """Check sphere totals that follow from the group alone."""
    if argv[0] == "growth":
        sphere = z2z3_sphere if Z2Z3_CODING in argv else free_sphere
        for n, count in doc["counts"].items():
            if int(count) != sphere(int(n)):
                return f"{cmd_id}: #W_{n} = {count}, closed form {sphere(int(n))}"
    if argv[0] == "validate":
        if doc["ok"] is not True:
            return f"{cmd_id}: validation failed"
        for n, count in enumerate(doc["paths_per_depth"]):
            if int(count) != free_sphere(n):
                return f"{cmd_id}: depth {n} has {count} paths"
    if argv[0] == "dist":
        counted = sum(int(c) for c in doc["counts"])
        expected = free_sphere(doc["n"])
        if counted != int(doc["total"]) or counted != expected:
            return f"{cmd_id}: counts sum {counted}, total {doc['total']}, #W_n {expected}"
    return None


class Checker:
    """Compares outputs with the references; counts attempts and failures."""

    def __init__(self) -> None:
        self.exit_codes: dict[str, int] = json.loads((REFS / "exit_codes.json").read_text())
        self.refs: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.identical = 0
        self.problems: list[str] = []

    def ref(self, cmd_id: str) -> str:
        if cmd_id not in self.refs:
            self.refs[cmd_id] = (REFS / f"{cmd_id}.txt").read_text()
        return self.refs[cmd_id]

    def check(self, cmd_id: str, argv: list[str], code: int, out: str) -> None:
        self.attempted += 1
        problem = self._problem(cmd_id, argv, code, out)
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)

    def _problem(self, cmd_id, argv, code, out) -> str | None:
        if code != self.exit_codes[cmd_id]:
            return f"{cmd_id}: exit code {code}, reference {self.exit_codes[cmd_id]}"
        stripped, ref = strip_meta(out), self.ref(cmd_id)
        if stripped == ref:
            self.identical += 1
        try:
            got = parse(stripped)
        except ValueError as exc:
            return f"{cmd_id}: unparsable output ({exc})"
        diff = same(parse(ref), got)
        if diff:
            return f"{cmd_id}: {diff}"
        return closed_form(cmd_id, argv, got) if isinstance(got, dict) else None


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def time_imports(repeats: int) -> list[float]:
    return [run_child(["-c", "import hypstat.cli"])[0] for _ in range(repeats)]


def run_passes(workload, beta_name, rng, seconds, checker) -> dict:
    """Closed loop: whole passes until another would end after ``seconds``."""
    cmds = commands(workload, beta_name)
    pass_walls, pass_cpus = [], []
    latencies: dict[str, list[float]] = {cmd_id: [] for cmd_id, _ in cmds}
    start = time.perf_counter()
    while True:
        order = rng.sample(cmds, len(cmds))
        cpu0, t0 = children_cpu(), time.perf_counter()
        for cmd_id, argv in order:
            wall, proc = run_child(["-m", "hypstat.cli", *argv])
            latencies[cmd_id].append(wall)
            checker.check(cmd_id, argv, proc.returncode, proc.stdout)
        pass_walls.append(time.perf_counter() - t0)
        pass_cpus.append(children_cpu() - cpu0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_walls) > seconds:
            break
    for cmd_id, argv in CHECK_ONLY.get(workload, []):
        _, proc = run_child(["-m", "hypstat.cli", *argv])
        checker.check(cmd_id, argv, proc.returncode, proc.stdout)
    return {"walls": pass_walls, "cpus": pass_cpus, "latencies": latencies}


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, beta_name, rng, seconds, checker) -> tuple[dict, list[str]]:
    setup = time_imports(SETUP_REPEATS)
    res = run_passes(workload, beta_name, rng, seconds, checker)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # each command counts once, at its median, whatever the number of passes
    per_command = [statistics.median(v) for v in res["latencies"].values()]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(res["walls"]),
        "cmd_p50_s": statistics.median(per_command),
        "cpu_s": statistics.median(res["cpus"]),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    pooled = [x for v in res["latencies"].values() for x in v]
    n = len(pooled)
    tail_value = tail(pooled)
    # printed, not gated: see perfbench/README.md
    notes = [
        f"setup_s: median of {len(setup)} fresh imports",
        f"wall_s: median of {len(res['walls'])} passes",
        f"cpu_s {metrics['cpu_s']:.6g} s: children's user plus system time, "
        f"median of {len(res['walls'])} passes",
        f"cmd_p50_s {metrics['cmd_p50_s']:.6g} s: median over {len(per_command)} "
        "commands of each one's median latency",
        "cmd_tail_s "
        + (
            f"{tail_value[0]:.6g} s: p{tail_value[1]:.1f} of {n} samples"
            if tail_value
            else f"n/a: {n} samples (ten beyond the percentile need at least 11)"
        ),
    ]
    return metrics, notes


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)\s*$")


def import_breakdown() -> dict:
    """Import wall, and scipy's and numpy's own module time, from -X importtime."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "import hypstat.cli\n"
        "sys.stdout.write(repr(time.perf_counter() - t))\n"
    )
    totals, scipy, numpy = [], [], []
    for _ in range(IMPORTTIME_REPEATS):
        _, proc = run_child(["-X", "importtime", "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-400:]}")
        totals.append(float(proc.stdout))
        own = {"scipy": 0, "numpy": 0}
        for line in proc.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match:
                root = match.group(2).split(".")[0]
                if root in own:
                    own[root] += int(match.group(1))
        scipy.append(own["scipy"] / 1e6)
        numpy.append(own["numpy"] / 1e6)
    return {
        "import.total_s": statistics.median(totals),
        "import.scipy_s": statistics.median(scipy),
        "import.numpy_s": statistics.median(numpy),
    }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def traced_pass(workload, beta_name, rng, checker, seed) -> tuple[dict, float, float]:
    """One pass through trace_child.py; (metrics, pass wall, accounted seconds)."""
    cmds = commands(workload, beta_name)
    metrics = {name: 0.0 if unit in ("s", "ratio") else 0 for name, unit in PER_LAYER.items()}
    all_spans, accounted = [], 0.0
    t0 = time.perf_counter()
    for cmd_id, argv in rng.sample(cmds, len(cmds)):
        _, proc = run_child([str(HERE / "trace_child.py"), *argv])
        if proc.returncode != 0:
            raise RuntimeError(f"traced {cmd_id} failed: {proc.stderr.strip()[-400:]}")
        doc = json.loads(proc.stdout)
        checker.check(cmd_id, argv, doc["exit"], doc["out"])
        spans = doc["spans"]
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            layer = name.split(".")[0]
            if layer == "import":
                accounted += end - start
                continue
            accounted += own
            if layer in ("cli", "coding", "weights", "spectral", "limits"):
                metrics[f"{layer}.self_s"] += own
            if layer in ("coding", "weights"):
                metrics[f"{layer}.calls"] += 1
        for metric, span_name in SPAN_TIMES.items():
            metrics[metric] += sum(e - s for n, s, e, _ in spans if n == span_name)
        for metric, span_name in SPAN_CALLS.items():
            metrics[metric] += sum(1 for n, *_ in spans if n == span_name)
        for key, value in doc["counts"].items():
            if key in ("power.perron_worst_residual", "enumerate.count_bits_max"):
                metrics[key] = max(metrics[key], value)
            else:
                metrics[key] += value
        all_spans.extend([*span, cmd_id] for span in spans)
    wall = time.perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "command"], "spans": all_spans})
    )
    return metrics, wall, accounted


def per_layer(workload, beta_name, rng, seconds, checker, seed) -> tuple[dict, list[str]]:
    # half the time untraced, as the base of the overhead ratio; the traced
    # pass and the import breakdown take about the other half
    untraced = run_passes(workload, beta_name, rng, seconds / 2, checker)
    metrics = import_breakdown()
    traced, wall, accounted = traced_pass(workload, beta_name, rng, checker, seed)
    traced.update(metrics)
    base = statistics.median(untraced["walls"])
    traced["trace.overhead_ratio"] = wall / base
    traced["trace.unaccounted_s"] = wall - accounted
    notes = [
        f"traced pass {wall:.4f} s against untraced median {base:.4f} s "
        f"of {len(untraced['walls'])} passes",
        f"import spans plus layer self times {accounted:.4f} s; "
        f"remainder {wall - accounted:.4f} s is process start and exit",
    ]
    return traced, notes


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def record() -> int:
    """Write the reference outputs and exit codes of every command."""
    REFS.mkdir(exist_ok=True)
    codes = {}
    for cmd_id, argv in all_commands().items():
        _, proc = run_child(["-m", "hypstat.cli", *argv])
        codes[cmd_id] = proc.returncode
        (REFS / f"{cmd_id}.txt").write_text(strip_meta(proc.stdout))
        print(f"{cmd_id}: exit {proc.returncode}, {len(proc.stdout)} bytes")
    (REFS / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    beta_name = rng.choice(sorted(BETAS))
    checker = Checker()
    if trace:
        metrics, notes = per_layer(workload, beta_name, rng, seconds, checker, seed)
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(workload, beta_name, rng, seconds, checker)
        units = END_TO_END
    print(f"workload {workload}, seed {seed}, b = {BETAS[beta_name]!r} ({beta_name})")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    ratio = checker.failed / checker.attempted
    print(f"  {'failed_ratio':34s} {ratio:>16.6g} ({checker.failed} of {checker.attempted})")
    print(f"  byte-identical outputs (meta excluded): {checker.identical} of {checker.attempted}")
    for note in notes:
        print(f"  {note}")
    for problem in checker.problems:
        print(f"  FAILED {problem}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="record reference outputs")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    if not (SRC / "hypstat" / "cli.py").is_file():
        print(f"perfbench: no hypstat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so each reads only its own children's
        # resource usage
        for name in WORKLOADS:
            sub = [str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
            sub += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            subprocess.run([sys.executable, *sub], check=True)
        return 0
    _, warm = run_child(["-c", "import hypstat.cli"])
    if warm.returncode != 0:
        print(f"perfbench: import failed: {warm.stderr.strip()[-400:]}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
