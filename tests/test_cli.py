"""Tests for the command-line interface: formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import hypstat as hs
from conftest import build_z2z3_coding
from hypstat import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestGrowthCommand:
    def test_json_document(self, capsys):
        code, out, err = run_cli(
            capsys, ["growth", "--coding", "free:2", "--horizon", "12"]
        )
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["command"] == "growth"
        assert doc["lam"] == 3.0
        assert not doc["elementary"]
        # counts are decimal strings so arbitrary precision survives JSON
        assert doc["counts"]["12"] == "708588"
        assert list(doc)[-1] == "meta"
        assert doc["meta"]["argv"][0] == "growth"
        assert doc["meta"]["version"] == hs.__version__

    def test_float_rendering_keeps_decimal_point(self, capsys):
        _code, out, _err = run_cli(
            capsys, ["growth", "--coding", "free:2", "--horizon", "12"]
        )
        assert '"lam": 3.0' in out

    def test_small_horizon_rejected(self, capsys):
        # domain errors raised by the library surface as exit 3
        code, _out, err = run_cli(
            capsys, ["growth", "--coding", "free:2", "--horizon", "6"]
        )
        assert code == 3
        assert "horizon" in err

    def test_non_integer_horizon_is_usage_error(self, capsys):
        code, _out, _err = run_cli(
            capsys, ["growth", "--coding", "free:2", "--horizon", "soon"]
        )
        assert code == 2


class TestDeterminism:
    def test_identical_bytes_across_runs(self, capsys):
        argv = ["averaging", "--coding", "free:2", "--weights", "hom:a=1,b=0",
                "--ngrid", "5,10,15"]
        _code, first, _err = run_cli(capsys, argv)
        _code, second, _err = run_cli(capsys, argv)
        assert first == second

    def test_big_counts_survive_json(self, capsys):
        code, out, _err = run_cli(
            capsys,
            ["dist", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--n", "40"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == str(4 * 3**39)
        assert sum(int(c) for c in doc["counts"]) == 4 * 3**39


class TestFormats:
    def test_csv_report(self, capsys):
        code, out, _err = run_cli(
            capsys,
            ["clt", "--coding", "free:2", "--weights", "hom:a=1,b=0",
             "--ngrid", "16,36", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,observed,predicted,residual"
        assert len(lines) == 3
        assert lines[1].startswith("16,")

    def test_text_report(self, capsys):
        code, out, _err = run_cli(
            capsys,
            ["averaging", "--coding", "free:2", "--weights", "hom:a=1,b=0",
             "--ngrid", "5,10,15", "--format", "text"],
        )
        assert code == 0
        assert "law: averaging" in out
        assert "RESULT: PASS" in out
        assert out.count("PASS") >= 3

    def test_csv_needs_report_command(self, capsys):
        code, _out, err = run_cli(
            capsys, ["growth", "--coding", "free:2", "--format", "csv"]
        )
        assert code == 2
        assert "csv" in err

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _err = run_cli(
            capsys,
            ["degeneracy", "--coding", "free:2", "--weights", "wordlen",
             "--ncap", "16", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["command"] == "degeneracy"
        assert doc["passed"] is True


class TestPipelines:
    def test_stats_document(self, capsys):
        code, out, _err = run_cli(
            capsys, ["stats", "--coding", "free:2", "--weights", "hom:a=1,b=0"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["drift"] == [0.0]
        assert abs(doc["sigma2"] - 1.0) < 1e-6
        assert doc["degenerate"] is False

    def test_pressure_document(self, capsys):
        code, out, _err = run_cli(
            capsys,
            ["pressure", "--coding", "free:2", "--weights", "hom:a=1,b=0",
             "--s", "0.5"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pressure"] == pytest.approx(1.2129108355248301, abs=1e-9)
        assert doc["residual"] <= 1e-12

    def test_failing_report_exits_one(self, capsys):
        code, out, _err = run_cli(
            capsys,
            ["mclt", "--coding", "free:2", "--weights", "hom:a=1|1,b=0|0",
             "--ngrid", "16"],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False

    def test_three_dimensional_mclt_checks_covariance_only(self, capsys):
        argv = ["mclt", "--coding", "free:3", "--weights",
                "hom:a=1|0|0,b=0|1|0,c=0|0|1", "--ngrid", "10,20"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["params"]["cell_grid"] == []
        assert [c["name"] for c in doc["checks"]] == [
            "covariance-agreement", "sigma-positive-definite"]
        # an explicit cell still needs 2-d weights
        code, _out, err = run_cli(capsys, argv + ["--cell=-inf,0,-inf,0"])
        assert code == 3
        assert "2-d" in err

    def test_lattice_llt_exits_three(self, capsys):
        code, _out, err = run_cli(
            capsys,
            ["llt", "--coding", "free:2", "--weights", "hom:a=1,b=0",
             "--interval=-0.5,0.5", "--ngrid", "50"],
        )
        assert code == 3
        assert "lattice" in err

    def test_drifting_llt_passes(self, capsys, tmp_path, free2):
        # target-letter weights a = b = 1, A = sqrt 2, B = 1/2 drift by 0.9786
        # per letter; the interval follows the drift, so the counts are not 0
        letters = {"a": 1.0, "b": 1.0, "A": math.sqrt(2), "B": 0.5}
        table = {
            (e.source, e.target): letters[e.label]
            for e in free2.edges
        }
        weights_path = tmp_path / "drifting.json"
        weights_path.write_text(
            json.dumps(hs.dump_weights(hs.weights_from_edge_table(free2, table))),
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys,
            ["llt", "--coding", "free:2", "--weights", f"edges:@{weights_path}",
             "--interval=-1,1", "--ngrid", "100:300:100", "--format", "text"],
        )
        assert (code, err) == (0, "")
        assert "PASS" in out and "FAIL" not in out

    def test_vector_weight_spec(self, capsys):
        code, out, _err = run_cli(
            capsys,
            ["stats", "--coding", "free:2", "--weights", "hom:a=1|0,b=0|1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sigma2"] is None
        assert doc["positive_definite"] is True

    def test_wordlen_weight_spec(self, capsys):
        code, out, _err = run_cli(
            capsys,
            ["degeneracy", "--coding", "free:2", "--weights", "wordlen",
             "--ncap", "16"],
        )
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestFileInputs:
    def test_coding_and_weights_from_files(self, capsys, tmp_path, mirror, mirror_hom):
        coding_path = tmp_path / "mirror.json"
        coding_path.write_text(
            json.dumps(hs.dump_coding(mirror)), encoding="utf-8"
        )
        weights_path = tmp_path / "weights.json"
        weights_path.write_text(
            json.dumps(hs.dump_weights(mirror_hom)), encoding="utf-8"
        )
        code, out, _err = run_cli(
            capsys,
            ["dist", "--coding", str(coding_path), "--weights",
             "edges:@" + str(weights_path), "--n", "6", "--overcounted"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == "1946"
        assert doc["overcount_multiplicity"] == 1

    def test_missing_coding_file_exits_three(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys,
            ["growth", "--coding", str(tmp_path / "absent.json")],
        )
        assert code == 3
        assert err != ""


class TestDisagreeingComponents:
    # the mirror coding with +1 on edges into a1, -1 on edges into A1 and 0
    # elsewhere: component 2 (the copy-1 letters) varies, component 1 does not
    @pytest.fixture
    def sources(self, tmp_path, mirror):
        values = {"a1": 1, "A1": -1}
        table = {(e.source, e.target): values.get(e.target, 0) for e in mirror.edges}
        coding_path = tmp_path / "mirror.json"
        coding_path.write_text(json.dumps(hs.dump_coding(mirror)), encoding="utf-8")
        weights_path = tmp_path / "skew.json"
        weights_path.write_text(
            json.dumps(hs.dump_weights(hs.weights_from_edge_table(mirror, table))),
            encoding="utf-8",
        )
        return ["--coding", str(coding_path), "--weights", f"edges:@{weights_path}"]

    @pytest.mark.parametrize("command", ["stats", "averaging", "degeneracy"])
    def test_default_component_is_refused(self, capsys, sources, command):
        code, out, err = run_cli(capsys, [command, *sources])
        assert (code, out) == (3, "")
        assert "maximal components disagree" in err
        assert "covariance spread 1.000e+00" in err and "--component" in err

    def test_named_component_runs(self, capsys, sources):
        code, out, err = run_cli(capsys, ["stats", *sources, "--component", "2"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["component"] == 2
        assert not doc["degenerate"]


class TestScanLattice:
    def test_integer_weights_report_witness(self, capsys):
        code, out, _err = run_cli(
            capsys,
            ["scan-lattice", "--coding", "free:2", "--weights", "hom:a=1,b=0",
             "--tgrid", "1:3:1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lattice_scale"] == 1
        assert doc["witness"]["t"] == pytest.approx(2.0 * math.pi)
        assert abs(doc["witness"]["gap"]) <= 1e-9
        assert len(doc["points"]) == 3

    def test_irrational_weights_have_no_witness(self, capsys):
        code, out, _err = run_cli(
            capsys,
            ["scan-lattice", "--coding", "free:2", "--weights",
             "hom:a=1,b=1.4142135623730951", "--tgrid", "0.5:2:0.5"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lattice_scale"] is None
        assert doc["witness"] is None
        assert doc["min_gap"] > 0.0

    # free:2 scans on the dense solver, Z/2*Z/3 (period 2) on the iteration;
    # t * 1e308 overflows from t = 2 on, where exp(i t w) is NaN
    @pytest.mark.parametrize("coding", ["free:2", "z2z3"])
    def test_non_finite_matrix_exits_three(self, capsys, tmp_path, coding):
        weights = "hom:a=1e308,b=0.5"
        if coding == "z2z3":
            coding = str(tmp_path / "z2z3.json")
            Path(coding).write_text(json.dumps(hs.dump_coding(build_z2z3_coding())))
            weights = "hom:s=1e308,t=0.5,T=-0.5"
        code, out, err = run_cli(
            capsys,
            ["scan-lattice", "--coding", coding, "--weights", weights,
             "--tgrid", "0.5:3:0.5"],
        )
        assert (code, out) == (3, "")
        assert "non-finite entry at t=2.0;" in err


class TestNonFiniteTilts:
    # exp(0.5 * 1e308) and the stencil's exp(1e-4 * 1e200) overflow
    @pytest.mark.parametrize(
        "argv, where",
        [
            (["pressure", "--coding", "free:2", "--weights", "hom:a=1e308,b=0.5",
              "--s", "0.5"], "s=0.5;"),
            (["stats", "--coding", "free:2", "--weights", "hom:a=1e200,b=0.5"],
             "s=0.0001;"),
        ],
    )
    def test_real_tilt_overflow_exits_three(self, capsys, argv, where):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert f"M(s) has a non-finite entry at {where}" in err
        assert caught == []


class TestValidateCommand:
    def test_free_group_passes(self, capsys):
        code, out, _err = run_cli(
            capsys, ["validate", "--coding", "free:2", "--depth", "5"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["paths_per_depth"] == ["1", "4", "12", "36", "108", "324"]

    def test_non_injective_coding_fails(self, capsys, tmp_path, mirror):
        coding_path = tmp_path / "mirror.json"
        coding_path.write_text(
            json.dumps(hs.dump_coding(mirror)), encoding="utf-8"
        )
        code, out, _err = run_cli(
            capsys, ["validate", "--coding", str(coding_path), "--depth", "3"]
        )
        assert code == 1
        assert json.loads(out)["ok"] is False


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _out, _err = run_cli(capsys, ["bogus"])
        assert code == 2

    def test_no_command_prints_usage(self, capsys):
        code, _out, _err = run_cli(capsys, [])
        assert code == 2

    def test_descending_grid_rejected(self, capsys):
        code, _out, err = run_cli(
            capsys,
            ["clt", "--coding", "free:2", "--weights", "hom:a=1,b=0",
             "--ngrid", "50:10"],
        )
        assert code == 2
        assert "grid" in err

    def test_malformed_weight_spec(self, capsys):
        code, _out, err = run_cli(
            capsys,
            ["stats", "--coding", "free:2", "--weights", "hom:a"],
        )
        assert code == 2
        assert "hom" in err

    def test_missing_weights_file_exits_three(self, capsys):
        # anything that is not a keyword spec is read as a file path
        code, _out, err = run_cli(
            capsys,
            ["stats", "--coding", "free:2", "--weights", "bogus:x"],
        )
        assert code == 3
        assert err != ""

    def test_oversized_dist_exits_three_at_once(self, capsys):
        # the offsets share a factor 2, which leaves 2.83M slots of 67 48-bit
        # digits in eight ping-pong buffers: 12 GB if it were allocated
        start = time.perf_counter()
        code, _out, err = run_cli(
            capsys,
            ["dist", "--coding", "free:2", "--weights",
             "hom:a=1,b=1.4142135623730951", "--n", "2000", "--bin", "0.001"],
        )
        assert code == 3
        assert "bytes" in err
        assert time.perf_counter() - start < 1.0

    def test_version_flag(self, capsys):
        code, out, _err = run_cli(capsys, ["--version"])
        assert code == 0
        assert hs.__version__ in out


def _child_env() -> dict:
    """The environment of a child ``python`` that imports this ``hypstat``."""
    src = str(Path(hs.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


class TestProcessEntry:
    # one command per exit code: pass, FAIL verdict, usage error, library error
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["growth", "--coding", "free:2", "--horizon", "12"], 0),
            (["mclt", "--coding", "free:2", "--weights", "hom:a=1|1,b=0|0",
              "--ngrid", "16"], 1),
            (["growth", "--coding", "free:2", "--horizon", "soon"], 2),
            (["growth", "--coding", "free:2", "--horizon", "6"], 3),
        ],
    )
    def test_module_entry_matches_main(self, capsys, argv, expected):
        code, out, _err = run_cli(capsys, argv)
        done = subprocess.run(
            [sys.executable, "-m", "hypstat.cli", *argv],
            capture_output=True,
            env=_child_env(),
            timeout=60,
        )
        assert (code, done.returncode) == (expected, expected), done.stderr
        assert done.stdout == out.encode("ascii")

    def test_entry_freezes_and_main_does_not(self):
        probe = "\n".join(
            [
                "import contextlib, gc, io, sys",
                "import hypstat.cli",
                "sys.argv = ['hypstat', '--version']",
                "with contextlib.redirect_stdout(io.StringIO()):",
                "    assert hypstat.cli.main() == 0",
                "    unfrozen = gc.get_freeze_count()",
                "    assert hypstat.cli.entry() == 0",
                "print(unfrozen, gc.get_freeze_count() > 0, gc.isenabled())",
            ]
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "True", "True"]


class TestImports:
    def test_cli_import_leaves_gc_and_statistics_alone(self):
        # freezing the heap belongs to the process entry, not to an import
        probe = (
            "import gc, sys, hypstat.cli; "
            "print('statistics' in sys.modules, gc.isenabled(), gc.get_freeze_count())"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True", "0"]

    def test_cli_import_leaves_scipy_unloaded(self):
        # mclt's cells and the Berry-Esseen bound both integrate numerically
        probe = "\n".join(
            [
                "import contextlib, io, sys",
                "import hypstat as hs, hypstat.cli",
                "with contextlib.redirect_stdout(io.StringIO()):",
                "    code = hypstat.cli.main(['mclt', '--coding', 'free:2',",
                "        '--weights', 'hom:a=1|0,b=0|1', '--ngrid', '20,40'])",
                "assert code == 0, code",
                "c = hs.build_free_group_coding(2)",
                "d = hs.decompose_components(c)",
                "w = hs.weights_from_homomorphism(c, {'a': 1, 'b': 0})",
                "s = hs.limit_statistics(c, d, w)",
                "assert hs.berry_esseen_report(c, d, w, s, 25, 2.5).passed",
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ]
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_aperiodic_scans_leave_numpy_random_unloaded(self):
        # the dense solver needs no start vector and the growth check draws
        # its own from the standard library
        probe = "\n".join(
            [
                "import contextlib, io, sys",
                "import hypstat.cli",
                "weights = ['--coding', 'free:2', '--weights', 'hom:a=1,b=%r' % 3 ** -0.5]",
                "with contextlib.redirect_stdout(io.StringIO()):",
                "    llt = hypstat.cli.main(['llt', *weights, '--interval=-0.5,0.5',",
                "        '--ngrid', '20,40'])",
                "    scan = hypstat.cli.main(['scan-lattice', *weights])",
                "assert (llt, scan) == (0, 0), (llt, scan)",
                "print('numpy.random' in sys.modules)",
            ]
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_cli_import_loads_no_test_dependency(self):
        probe = (
            "import sys, hypstat.cli; "
            "print(sorted({'scipy', 'hypothesis', 'pytest'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
