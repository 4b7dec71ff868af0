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
from conftest import build_z2z3_coding, target_letter_weights
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

    # nested lists print their floats as every other float does
    def test_text_nested_lists(self, capsys):
        code, out, _err = run_cli(
            capsys,
            ["stats", "--coding", "free:2", "--weights", "hom:a=1|0,b=0|1",
             "--format", "text"],
        )
        assert code == 0
        (line,) = [x for x in out.splitlines() if x.startswith("covariance: ")]
        rows = line.removeprefix("covariance: ").split("] [")
        assert rows[0] == "[0.99999999906041959, 0.0"
        assert rows[1].endswith(", 0.99999999905893944]")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_text_non_finite_nested_entry_exits_three(self, capsys, monkeypatch, value):
        monkeypatch.setattr(cli, "cmd_stats", lambda args: {"covariance": [[1.0, value]]})
        code, out, err = run_cli(
            capsys,
            ["stats", "--coding", "free:2", "--weights", "hom:a=1|0,b=0|1",
             "--format", "text"],
        )
        assert (code, out) == (3, "")
        assert err == f"hypstat: error: non-finite float {value!r} in report payload\n"

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
        assert "t = 6.283185307179586 " in err

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

    # mirror_hom gives both maximal components the same statistics, so with
    # no --component the first speaks for all
    def test_agreeing_components_need_no_component(self, capsys, tmp_path, mirror, mirror_hom):
        coding_path = tmp_path / "mirror.json"
        coding_path.write_text(json.dumps(hs.dump_coding(mirror)), encoding="utf-8")
        weights_path = tmp_path / "weights.json"
        weights_path.write_text(json.dumps(hs.dump_weights(mirror_hom)), encoding="utf-8")
        decomposition = hs.decompose_components(mirror)
        assert len(decomposition.maximal_indices) == 2
        code, out, err = run_cli(
            capsys, ["stats", "--coding", str(coding_path), "--weights", str(weights_path)]
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        first = hs.component_consistency(mirror, mirror_hom).statistics[0]
        assert doc["component"] == first.component == decomposition.maximal_indices[0]
        assert (doc["drift"], doc["sigma2"]) == (list(first.drift), first.sigma2)

    # a coding whose components are all transient has no maximal component;
    # the plain sphere law needs none, everything that reads one refuses
    def test_transient_coding_has_plain_spheres_only(self, capsys, tmp_path):
        doc = {
            "generators": ["a"],
            "vertices": ["*", "p", "q"],
            "edges": [{"from": "*", "to": "p", "label": "a"}, {"from": "p", "to": "q", "label": "a"}],
        }
        path = tmp_path / "transient.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        source = ["--coding", str(path), "--weights", "hom:a=1"]
        code, out, err = run_cli(capsys, ["dist", *source, "--n", "2"])
        assert (code, err) == (0, "")
        assert json.loads(out)["counts"] == ["1"]
        for argv in (["dist", "--n", "2", "--overcounted"], ["stats"], ["pressure"]):
            code, out, err = run_cli(capsys, [*argv, *source])
            assert (code, out) == (3, "")
            assert "every reachable component is transient" in err

    def test_missing_coding_file_exits_three(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys,
            ["growth", "--coding", str(tmp_path / "absent.json")],
        )
        assert code == 3
        assert err != ""


def skew_weights(mirror):
    """The mirror coding with +1 on edges into a1, -1 on edges into A1 and 0
    elsewhere: component 2 (the copy-1 letters) varies, component 1 does not."""
    values = {"a1": 1, "A1": -1}
    table = {(e.source, e.target): values.get(e.target, 0) for e in mirror.edges}
    return hs.weights_from_edge_table(mirror, table)


class TestDisagreeingComponents:
    @pytest.fixture
    def sources(self, tmp_path, mirror):
        coding_path = tmp_path / "mirror.json"
        coding_path.write_text(json.dumps(hs.dump_coding(mirror)), encoding="utf-8")
        weights_path = tmp_path / "skew.json"
        weights_path.write_text(
            json.dumps(hs.dump_weights(skew_weights(mirror))), encoding="utf-8"
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


#: stdout of the component paths that no ``cli_surface.json`` case covers:
#: the period-2 component of Z/2*Z/3 weighted by the target letter (s 0, t 1,
#: T -1), and the mirror coding's second maximal component under the skew
#: weights; argv names files in the working directory
COMPONENT_PINS = {
    "z2z3-stats": (
        ["stats", "--coding", "z2z3.json", "--weights", "z2z3_w.json"],
        '{"command": "stats", "component": 0, "drift": [0.0], "sigma2": 0.49999999993787192, "covariance": null, "entropy": 0.34657359027997259, "lam": 1.4142135623730949, "degenerate": false, "positive_definite": null, "meta": {"argv": ["stats", "--coding", "z2z3.json", "--weights", "z2z3_w.json"], "version": "1.0.0"}}\n',
    ),
    "z2z3-pressure": (
        ["pressure", "--coding", "z2z3.json", "--weights", "z2z3_w.json", "--s", "0.5"],
        '{"command": "pressure", "component": 0, "s": [0.5], "value": 1.5017496230772849, "pressure": 0.40663084375911268, "vertices": ["s", "t", "T"], "right": [0.42885693859447027, 0.28557153070276481, 0.28557153070276481], "left": [0.3997202560861976, 0.43883965636598737, 0.16144008754781497], "iterations": 72, "residual": 7.7668110348638956e-14, "meta": {"argv": ["pressure", "--coding", "z2z3.json", "--weights", "z2z3_w.json", "--s", "0.5"], "version": "1.0.0"}}\n',
    ),
    "mirror-stats-2": (
        ["stats", "--coding", "mirror.json", "--weights", "edges:@skew.json", "--component", "2"],
        '{"command": "stats", "component": 2, "drift": [0.0], "sigma2": 0.99999999906041959, "covariance": null, "entropy": 1.0986122886681098, "lam": 3.0, "degenerate": false, "positive_definite": null, "meta": {"argv": ["stats", "--coding", "mirror.json", "--weights", "edges:@skew.json", "--component", "2"], "version": "1.0.0"}}\n',
    ),
    "mirror-pressure-2": (
        ["pressure", "--coding", "mirror.json", "--weights", "edges:@skew.json", "--component", "2"],
        '{"command": "pressure", "component": 2, "s": [0.0], "value": 3.0, "pressure": 1.0986122886681098, "vertices": ["a1", "A1", "b1", "B1"], "right": [0.25, 0.25, 0.25, 0.25], "left": [0.25, 0.25, 0.25, 0.25], "iterations": 2, "residual": 0.0, "meta": {"argv": ["pressure", "--coding", "mirror.json", "--weights", "edges:@skew.json", "--component", "2"], "version": "1.0.0"}}\n',
    ),
}


class TestComponentPaths:
    @pytest.fixture
    def sources(self, monkeypatch, tmp_path, mirror):
        monkeypatch.chdir(tmp_path)
        z2z3 = build_z2z3_coding()
        docs = {
            "z2z3.json": hs.dump_coding(z2z3),
            "z2z3_w.json": hs.dump_weights(
                target_letter_weights(z2z3, {"s": 0, "t": 1, "T": -1})
            ),
            "mirror.json": hs.dump_coding(mirror),
            "skew.json": hs.dump_weights(skew_weights(mirror)),
        }
        for name, doc in docs.items():
            Path(name).write_text(json.dumps(doc), encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, stdout", COMPONENT_PINS.values(), ids=list(COMPONENT_PINS)
    )
    def test_recorded_output(self, capsys, sources, argv, stdout):
        assert run_cli(capsys, argv) == (0, stdout, "")


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

    def test_infinite_frequency_prints_one_error_line(self):
        # i * inf has a NaN real part; numpy must not warn about it first
        done = subprocess.run(
            [sys.executable, "-m", "hypstat.cli", "scan-lattice", "--coding", "free:2",
             "--weights", "hom:a=1,b=0.5", "--tgrid", "1,inf"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.splitlines() == [
            "hypstat: error: M(it) has a non-finite entry at t=inf; "
            "the weights times t are too large for exp"
        ]


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

    def test_finite_entries_near_the_float_maximum(self, capsys):
        # exp(709) is finite, about 8.2e307, and so is the Perron root
        argv = ["pressure", "--coding", "free:2", "--weights", "hom:a=709,b=0.5",
                "--s", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv)
        assert (code, err, caught) == (0, "", [])
        assert json.loads(out)["pressure"] == 709.0


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

    # the default bin at n = 200 is 200 * (1 - (-1)) / 200 = 2.0, and every
    # edge value (+-1, +-0.7071) rounds to slot 0, half to even
    @pytest.mark.parametrize(
        "command", [["ldt", "--epsilon", "0.3"], ["dist", "--n", "200"]], ids=["ldt", "dist"]
    )
    def test_bin_collapsing_every_edge_value_exits_three(self, capsys, command):
        code, out, err = run_cli(
            capsys,
            [command[0], "--coding", "free:2", "--weights",
             "hom:a=1,b=0.7071067811865476", *command[1:]],
        )
        assert (code, out) == (3, "")
        assert "bin width 2.0" in err

    # an infinity that faces the wrong way would make the cell empty
    @pytest.mark.parametrize("cell", ["inf,inf,-inf,-inf", "0,-inf,0,1", "0,1,nan,1"])
    def test_cell_bound_that_is_not_unbounded_exits_two(self, capsys, cell):
        code, out, err = run_cli(
            capsys,
            ["mclt", "--coding", "free:2", "--weights", "hom:a=1|0,b=0|1",
             "--ngrid", "25", f"--cell={cell}"],
        )
        assert (code, out) == (2, "")
        assert "cell bound" in err

    @pytest.mark.parametrize("weights", ["hom:a=nan,b=0", "hom:a=inf,b=0", "hom:a=1|-inf,b=0|1"])
    @pytest.mark.parametrize("command", [["dist", "--n", "3"], ["stats"]], ids=["dist", "stats"])
    def test_non_finite_weight_spec_exits_two(self, capsys, command, weights):
        code, out, err = run_cli(
            capsys, [command[0], "--coding", "free:2", "--weights", weights, *command[1:]]
        )
        assert (code, out) == (2, "")
        assert "is not finite" in err

    # Python's json reads NaN and Infinity
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_weights_file_exits_three(self, capsys, tmp_path, value):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"dim": 1, "by_generator": {"a": value, "b": 0}}))
        code, out, err = run_cli(
            capsys, ["dist", "--coding", "free:2", "--weights", str(path), "--n", "3"]
        )
        assert (code, out) == (3, "")
        assert f"value {value!r} is not finite" in err

    # JSON's true and false are not the numbers 1 and 0
    @pytest.mark.parametrize("form", ["dim", "by_generator", "by_edge"])
    def test_boolean_in_weights_file_exits_three(self, capsys, tmp_path, form):
        rows = hs.dump_weights(hs.weights_word_length(hs.build_free_group_coding(2)))["by_edge"]
        rows[0]["value"] = [False]
        doc, field = {
            "dim": ({"dim": True, "by_generator": {"a": 1, "b": 0}}, "field 'dim'"),
            "by_generator": ({"dim": 1, "by_generator": {"a": True, "b": 0}}, "value for 'a'"),
            "by_edge": ({"dim": 1, "by_edge": rows}, "value for edge *->A"),
        }[form]
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, ["stats", "--coding", "free:2", "--weights", str(path)]
        )
        assert (code, out) == (3, "")
        assert field in err

    # every entry of a vector is held to the rule for a scalar value, and a
    # JSON integer past the float range is refused rather than overflowing
    @pytest.mark.parametrize(
        "value, message",
        [
            (["1.5"], "value '1.5' is not a number"),
            ([None], "value None is not a number"),
            (10**400, "value is too large for a float"),
            ([10**400], "value is too large for a float"),
        ],
        ids=["string-entry", "null-entry", "huge-scalar", "huge-entry"],
    )
    def test_non_number_in_weights_file_exits_three(self, capsys, tmp_path, value, message):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"dim": 1, "by_generator": {"a": value, "b": 0}}))
        code, out, err = run_cli(
            capsys, ["stats", "--coding", "free:2", "--weights", str(path)]
        )
        assert (code, out) == (3, "")
        assert f"value for 'a': {message}" in err

    def test_infinite_epsilon_exits_three(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["ldt", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--epsilon", "inf"],
        )
        assert (code, out) == (3, "")
        assert "epsilon must be finite" in err

    @pytest.mark.parametrize("interval", ["nan,1", "-inf,1", "-1,inf"])
    def test_non_finite_interval_exits_three(self, capsys, interval):
        code, out, err = run_cli(
            capsys,
            ["llt", "--coding", "free:2", "--weights", "hom:a=1,b=0.7071067811865476",
             f"--interval={interval}", "--ngrid", "50"],
        )
        assert (code, out) == (3, "")
        assert "interval ends must be finite" in err

    # an infinite end or step made floor((hi - lo) / step) raise OverflowError
    @pytest.mark.parametrize(
        "command",
        [
            ["scan-lattice", "--weights", "hom:a=1,b=0.5", "--tgrid", "1:inf:1"],
            ["llt", "--weights", "hom:a=1,b=0.7071067811865476", "--interval=-0.5,0.5",
             "--gate-grid", "1:inf:1"],
            ["pressure", "--weights", "hom:a=1,b=0", "--s", "1:inf:1"],
            ["ldt", "--weights", "hom:a=1,b=0", "--epsilon", "0.4", "--tgrid", "0:inf:1"],
            ["pressure", "--weights", "hom:a=1,b=0", "--s", "0:1:nan"],
        ],
        ids=["scan-lattice", "llt", "pressure", "ldt", "nan-step"],
    )
    def test_non_finite_range_grid_exits_two(self, capsys, command):
        code, out, err = run_cli(capsys, [command[0], "--coding", "free:2", *command[1:]])
        assert (code, out) == (2, "")
        assert "needs a finite lo, hi and step" in err

    # each list would take several GB; the child's address space is capped
    # at 400 MB, so a missing guard fails there with MemoryError instead of
    # taking the machine's memory
    @pytest.mark.parametrize(
        "command",
        [["pressure", "--s", "0:1:1e-8"], ["averaging", "--ngrid", "1:100000000"]],
        ids=["float-grid", "int-grid"],
    )
    def test_oversized_range_grid_exits_three_before_building(self, command):
        argv = [command[0], "--coding", "free:2", "--weights", "hom:a=1,b=0", *command[1:]]
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
            "from hypstat import cli\n"
            f"sys.exit(cli.main({argv!r}))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), capture_output=True,
            text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert f"would take over {cli.BYTE_BUDGET} bytes as a list" in done.stderr

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_pressure_parameter_exits_three(self, capsys, s):
        code, out, err = run_cli(
            capsys,
            ["pressure", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--s", s],
        )
        assert (code, out) == (3, "")
        assert err == f"hypstat: error: parameter s must be finite, got s={float(s)!r}\n"

    def test_infinite_ldt_frequency_exits_three(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["ldt", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--epsilon", "0.4",
             "--tgrid", "0.5,1,inf"],
        )
        assert (code, out) == (3, "")
        assert "t grid entries must be finite, got inf" in err

    def test_unbounded_cell_sides(self):
        whole = ((None, None), (None, None))
        assert cli._parse_cell("-inf,inf,,") == cli._parse_cell(",, -Infinity ,+inf") == whole
        assert cli._parse_cell("-1,inf,-inf,2.5") == ((-1.0, None), (None, 2.5))

    def test_version_flag(self, capsys):
        code, out, _err = run_cli(capsys, ["--version"])
        assert code == 0
        assert hs.__version__ in out


#: stdout, stderr, exit code and any ``--out`` file of help, usage errors and
#: one small run of each command, each format and each exit code, recorded
#: with COLUMNS=80 before the parser built options lazily and before the
#: handlers returned their documents to ``main``
SURFACE = json.loads((Path(__file__).parent / "data" / "cli_surface.json").read_text())
COMMANDS = [
    "growth", "pressure", "stats", "dist", "averaging", "clt",
    "ldt", "mclt", "llt", "degeneracy", "scan-lattice", "validate",
]


def _assert_close(got, want, rel: float) -> None:
    """``got == want`` but for floats, which may differ by ``rel``."""
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=rel, abs=rel)
    elif isinstance(want, (list, dict)):
        assert type(got) is type(want) and len(got) == len(want)
        if isinstance(want, dict):
            assert list(got) == list(want)
            got, want = list(got.values()), list(want.values())
        for g, w in zip(got, want):
            _assert_close(g, w, rel)
    else:
        assert got == want


class TestCommandLineSurface:
    # a process adds options only to the subparser it runs
    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("case", sorted(SURFACE))
    def test_recorded_output(self, capsys, monkeypatch, tmp_path, case):
        recorded = SURFACE[case]
        monkeypatch.chdir(tmp_path)  # a relative --out lands here
        code, out, err = run_cli(capsys, recorded["argv"])
        assert (code, err) == (recorded["code"], recorded["stderr"])
        files = {p.name: p.read_text() for p in tmp_path.iterdir()}
        assert files == recorded.get("files", {})
        if "float_rel" in recorded:
            # LAPACK's eig rounds the last digits by BLAS kernel
            _assert_close(json.loads(out), json.loads(recorded["stdout"]), recorded["float_rel"])
        else:
            assert out == recorded["stdout"]

    # --bogus leaves argv[0] naming no command, so every subparser is built
    # and growth's own options parse before the top level refuses --bogus
    @pytest.mark.parametrize(
        "argv",
        [[command, "--help"] for command in COMMANDS]
        + [["--bogus", "growth", "--coding", "free:2"], ["dist", "--coding", "free:2", "--n", "x"]],
        ids=" ".join,
    )
    def test_equals_the_full_build(self, capsys, argv):
        with pytest.raises(SystemExit) as done:
            cli._build_parser().parse_args(argv)
        full = capsys.readouterr()
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (0 if done.value.code == 0 else 2, full.out, full.err)


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


def _exit_code_and_loaded(argv: list[str], modules: tuple[str, ...] = ("numpy",)) -> list[str]:
    """The exit code of ``hypstat *argv`` in a child process, and whether it
    loaded each of ``modules``, as ``[code, "True" | "False", ...]``."""
    # runpy runs the module as `python -m hypstat.cli` does
    probe = "\n".join(
        [
            "import contextlib, io, runpy, sys",
            f"sys.argv = ['hypstat', *{argv!r}]",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    try:",
            "        runpy.run_module('hypstat.cli', run_name='__main__')",
            "    except SystemExit as done:",
            "        code = done.code",
            f"print(code, *(m in sys.modules for m in {modules!r}))",
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
    return done.stdout.split()


class TestImports:
    # these commands solve only points on small matrices, in Python floats
    # (ldt at the points of its Legendre search), and run their exact DPs
    # (dist, clt, degeneracy, ldt's tails) on packed Python ints
    @pytest.mark.parametrize(
        "argv",
        [
            ["ldt", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--epsilon", "0.4"],
            ["validate", "--coding", "free:2", "--depth", "6"],
            ["growth", "--coding", "free:2", "--horizon", "12"],
            ["stats", "--coding", "free:2", "--weights", "hom:a=1,b=0"],
            ["pressure", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--s", "0.5"],
            ["averaging", "--coding", "free:2", "--weights", "hom:a=1,b=0"],
            ["dist", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--n", "40"],
            [
                "clt", "--coding", "free:2", "--weights", "hom:a=1,b=0",
                "--ngrid", "16:196:4", "--format", "csv",
            ],
            ["degeneracy", "--coding", "free:2", "--weights", "hom:a=1,b=0"],
            pytest.param(
                ["dist", "--coding", "free:2", "--weights", "hom:a=1|0,b=0|1", "--n", "60"],
                id="dist-vector",
            ),
            pytest.param(
                ["stats", "--coding", "free:2", "--weights", "hom:a=1|0,b=0|1"],
                id="stats-vector",
            ),
        ],
        ids=lambda argv: argv[0],
    )
    def test_point_commands_leave_numpy_unloaded(self, argv):
        assert _exit_code_and_loaded(argv) == ["0", "False"]

    def test_lattice_llt_refuses_before_loading_numpy(self):
        argv = ["llt", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--interval=-0.5,0.5"]
        assert _exit_code_and_loaded(argv) == ["3", "False"]

    # the float moment sums of radius 634 could leave the float range; the
    # exact integer sums run past it, still without numpy
    def test_real_moment_sums_at_radius_660_run_without_numpy(self):
        argv = [
            "averaging", "--coding", "free:2", "--weights",
            "hom:a=1,b=0.7071067811865476", "--ngrid", "660",
        ]
        assert _exit_code_and_loaded(argv) == ["0", "False"]

    # a rational is formed only for a quotient that is not whole: sphere
    # means (averaging), value ranges (degeneracy), covariances (mclt) and
    # ldt's tail bounds; on hom:a=1,b=0 the means and ranges are integers,
    # and an irrational llt and scan-lattice build arrays but no rational
    @pytest.mark.parametrize(
        "argv",
        [
            ["growth", "--coding", "free:2", "--horizon", "12"],
            ["validate", "--coding", "free:2", "--depth", "6"],
            ["stats", "--coding", "free:2", "--weights", "hom:a=1,b=0"],
            ["pressure", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--s", "0.5"],
            ["dist", "--coding", "free:2", "--weights", "hom:a=1,b=0", "--n", "40"],
            pytest.param(
                ["dist", "--coding", "free:2", "--weights", "hom:a=1|0,b=0|1", "--n", "60"],
                id="dist-vector",
            ),
            [
                "clt", "--coding", "free:2", "--weights", "hom:a=1,b=0",
                "--ngrid", "16:196:4", "--format", "csv",
            ],
            ["averaging", "--coding", "free:2", "--weights", "hom:a=1,b=0"],
            ["degeneracy", "--coding", "free:2", "--weights", "hom:a=1,b=0"],
            ["scan-lattice", "--coding", "free:2", "--weights", "hom:a=1,b=0.7071067811865476"],
            [
                "llt", "--coding", "free:2", "--weights", "hom:a=1,b=0.7071067811865476",
                "--interval=-0.5,0.5", "--ngrid", "100:300:100",
            ],
        ],
        ids=lambda argv: argv[0],
    )
    def test_commands_without_rationals_leave_fractions_unloaded(self, argv):
        assert _exit_code_and_loaded(argv, ("fractions", "decimal")) == ["0", "False", "False"]

    def test_cli_import_leaves_fractions_and_decimal_unloaded(self):
        probe = "import sys, hypstat.cli; print('fractions' in sys.modules, 'decimal' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]

    def test_cli_import_loads_every_layer(self):
        # perfbench/trace_child.py looks each layer module up in sys.modules
        # after importing hypstat.cli
        probe = "import sys, hypstat.cli; print(*sorted(sys.modules))"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        layers = {"coding", "weights", "spectral", "_power", "enumerate", "limits"}
        assert {f"hypstat.{name}" for name in layers} <= set(done.stdout.split())

    def test_cli_import_leaves_dataclasses_and_inspect_unloaded(self):
        # the dataclass decorator imports inspect, ast, dis and tokenize
        probe = "import sys, hypstat.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]

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
                "w = hs.weights_from_homomorphism(c, {'a': 1, 'b': 0})",
                "s = hs.limit_statistics(c, w)",
                "assert hs.berry_esseen_report(c, w, s, 25, 2.5).passed",
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
