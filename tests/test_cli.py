import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import esquad as eq
from esquad.cli import main, parse_spectrum
from esquad.ioutil import dump_json
from conftest import read_trace_csv

REPO_ROOT = Path(__file__).resolve().parent.parent
ALPHAS_D256 = ["--alpha-up", repr(math.exp(1 / 256)),
               "--alpha-down", repr(math.exp(-(0.4 / 0.6) / 256))]


def test_package_version_matches_pyproject():
    # traces and reports carry esquad.VERSION; the installed package must say the same
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == eq.VERSION


class TestParseSpectrum:
    def test_shorthands(self):
        assert parse_spectrum("sphere", 3) == [1.0, 1.0, 1.0]
        assert parse_spectrum("cigar:10", 4) == [10.0, 10.0, 10.0, 1.0]
        assert parse_spectrum("discus:10", 4) == [10.0, 1.0, 1.0, 1.0]
        ell = parse_spectrum("ellipsoid:10", 3)
        assert ell[0] == 10.0 and ell[-1] == 1.0
        assert parse_spectrum("4,2,1", None) == [4.0, 2.0, 1.0]

    def test_errors(self):
        with pytest.raises(eq.ConfigError):
            parse_spectrum("sphere", None)
        with pytest.raises(eq.ConfigError):
            parse_spectrum("torus:3", 4)
        with pytest.raises(eq.ConfigError):
            parse_spectrum("cigar", 4)


class TestHelp:
    def test_top_level_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("run", "bounds", "drift", "rate", "sweep", "verify"):
            assert name in out

    def test_subcommand_help(self, capsys):
        for name in ("run", "bounds", "drift", "rate", "sweep", "verify"):
            assert main([name, "--help"]) == 0
            out = capsys.readouterr().out
            assert "--config" in out

    def test_usage_error_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        assert main([]) == 2


class TestRun:
    def test_run_twice_byte_identical(self, tmp_path, capsys):
        args = [
            "run", "--d", "16", "--spectrum", "sphere",
            "--alpha-up", "1.1", "--alpha-down", "0.97",
            "--budget", "1000", "--seed", "42",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").exists()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["seed"] == 42
        assert meta["generator_id"] == eq.GENERATOR_ID
        assert meta["version"] == eq.VERSION

    def test_trace_parses_back(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main([
            "run", "--d", "8", "--spectrum", "ellipsoid:10",
            "--alpha-up", "1.05", "--alpha-down", "0.99",
            "--budget", "200", "--seed", "1", "--out", str(out),
        ]) == 0
        cols = read_trace_csv(out)
        assert cols["t"].size == 201
        assert np.all(np.diff(cols["log_f"]) <= 0)

    def test_svg_emitted(self, tmp_path, capsys):
        svg = tmp_path / "t.svg"
        assert main([
            "run", "--d", "8", "--spectrum", "sphere",
            "--alpha-up", "1.05", "--alpha-down", "0.99",
            "--budget", "100", "--seed", "1",
            "--out", str(tmp_path / "t.csv"), "--svg", str(svg),
        ]) == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")


class TestBounds:
    def test_feasible_prints_constants(self, capsys):
        code = main(["bounds", "--d", "256", "--spectrum", "sphere"] + ALPHAS_D256)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["band_gain"] > 0
        assert payload["drift_bound"] > 0
        assert payload["rate_cap"] == pytest.approx(1 / 506)
        assert payload["metadata"]["version"] == eq.VERSION

    def test_infeasible_alpha_pair_exits_one(self, capsys):
        # p_target ~ 0.2: infeasible for the constants at any dimension
        code = main([
            "bounds", "--d", "256", "--spectrum", "sphere",
            "--alpha-up", "1.01566", "--alpha-down", "0.99611",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["infeasible"] is True
        assert "p_target" in payload["reason"]

    def test_missing_alphas_config_error(self, capsys):
        assert main(["bounds", "--d", "8", "--spectrum", "sphere"]) == 2

    @pytest.mark.parametrize("doc", [
        {"eigenvalues": [1.0] * 8}, [1.0] * 8,
        {"eigenvalues": [1.0] * 8, "optimum": [0.0] * 8, "rotation_seed": 1.5},
        {"eigenvalues": [1.0] * 8, "optimum": [0.0] * 8, "rotaton_seed": 4},
    ])
    def test_malformed_problem_file_config_error(self, tmp_path, capsys, doc):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["bounds", "--problem", str(path)] + ALPHAS_D256) == 2
        assert "config error: invalid problem file" in capsys.readouterr().err


class TestDrift:
    def test_report_schema(self, tmp_path, capsys):
        state = {"m": [0.0625] * 256, "log_sigma": -6.0}
        spath = tmp_path / "state.json"
        spath.write_text(json.dumps(state))
        out = tmp_path / "drift.json"
        code = main([
            "drift", "--d", "256", "--spectrum", "sphere",
            *ALPHAS_D256,
            "--state", str(spath), "--n", "2000", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"estimate", "bound", "pass", "regime"}
        assert payload["pass"] is True
        assert payload["estimate"]["n"] == 2000

    def test_infeasible_constants_exit_one(self, tmp_path, capsys):
        state = {"m": [1.0] * 16, "log_sigma": -2.0}
        spath = tmp_path / "state.json"
        spath.write_text(json.dumps(state))
        code = main([
            "drift", "--d", "16", "--spectrum", "sphere",
            "--alpha-up", "1.1", "--alpha-down", "0.97",
            "--state", str(spath), "--n", "1000", "--seed", "3",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["infeasible"] is True


    @pytest.mark.parametrize("state", [{"m": [1.0] * 8}, [[1.0] * 8, -2.0],
                                       {"m": [1, 2], "log_sigma": -2},
                                       {"m": [0.0] * 8, "log_sigma": -2},
                                       {"m": [1.0] * 8, "log_sigma": 800},
                                       {"m": [1.0] * 8, "log_sigma": -800}],
                             ids=["no-log-sigma", "json-list", "wrong-length-m",
                                  "m-at-optimum", "sigma-overflows", "sigma-underflows"])
    def test_malformed_state_file_exits_two(self, tmp_path, capsys, state):
        spath = tmp_path / "state.json"
        spath.write_text(json.dumps(state))
        code = main(["drift", "--d", "8", "--spectrum", "sphere",
                     "--alpha-up", "1.1", "--alpha-down", "0.97",
                     "--state", str(spath), "--n", "100"])
        assert code == 2
        assert "config error: invalid state file" in capsys.readouterr().err


class TestRate:
    def test_json_and_svg(self, tmp_path, capsys):
        out = tmp_path / "rate.json"
        svg = tmp_path / "rate.svg"
        code = main([
            "rate", "--d", "8", "--spectrum", "sphere",
            "--alpha-up", repr(math.exp(1 / 8)),
            "--alpha-down", repr(math.exp(-1 / 32)),
            "--budget", "1500", "--trials", "4", "--seed", "9",
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["a_hat"] > 0
        assert payload["burn_in"] == 150
        ET.parse(svg)


class TestSweep:
    def test_csv_and_meta(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--spectrum", "sphere", "--dims", "6,8",
            "--budget", "600", "--trials", "2", "--seed", "4",
            "--out", str(out), "--svg", str(tmp_path / "sweep.svg"),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,cond,trace,L,a_hat,ci_low,ci_high,B_half,lower_const"
        assert len(lines) == 3
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["dims"] == [6, 8]
        ET.parse(tmp_path / "sweep.svg")

    def test_comma_list_spectrum_config_error(self, tmp_path, capsys):
        # a comma list fixes d, so --dims could not take effect
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--spectrum", "4,2,1,1,1", "--dims", "8,16",
                     "--budget", "600", "--trials", "2", "--out", str(out)])
        assert code == 2
        assert "config error: sweep needs a named spectrum" in capsys.readouterr().err
        assert not out.exists()


def small_verify_config():
    return {
        "seed": 3,
        "problem": {
            "eigenvalues": [1.0] * 16,
            "optimum": [0.0] * 16,
            "transform": "identity",
            "rotation_seed": None,
        },
        "params": {
            "alpha_up": math.exp(1 / 16),
            "alpha_down": math.exp(-1 / 64),
        },
        "run": {"budget": 400, "burn_in": 40, "trials": 2, "n_mc": 2000},
        "out_dir": None,
    }


class TestVerify:
    def test_missing_config_file_exit_two(self, capsys):
        assert main(["verify", "--config", "/nonexistent/zzz.json"]) == 2

    def test_bad_schema_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "bogus": 2}))
        assert main(["verify", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("trials", 0), ("trials", True), ("n_mc", 0), ("n_mc", 99),
    ])
    def test_bad_run_value_exits_two_before_running(self, tmp_path, capsys,
                                                     monkeypatch, key, value):
        def no_runs(*args, **kwargs):
            raise AssertionError("verify ran before rejecting its config")

        monkeypatch.setattr(eq.experiments, "run_many", no_runs)
        cfg = small_verify_config()
        cfg["run"][key] = value
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(cpath)]) == 2
        assert f"config error: run.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("rotation_seed", True), ("rotation_seed", 1.5), ("rotaton_seed", 4),
        ("optimum", [0.0] * 15 + [math.nan]),
    ])
    def test_bad_problem_exits_two_before_running(self, tmp_path, capsys,
                                                  monkeypatch, key, value):
        def no_runs(*args, **kwargs):
            raise AssertionError("verify ran before rejecting its config")

        monkeypatch.setattr(eq.experiments, "run_many", no_runs)
        cfg = small_verify_config()
        cfg["problem"][key] = value
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(cpath)]) == 2
        assert "config error: invalid problem or params" in capsys.readouterr().err

    def test_bad_out_dir_exits_two_before_running(self, tmp_path, capsys, monkeypatch):
        def no_runs(*args, **kwargs):
            raise AssertionError("verify ran before rejecting its config")

        monkeypatch.setattr(eq.experiments, "run_many", no_runs)
        cfg = small_verify_config()
        cfg["out_dir"] = 5
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(cpath)]) == 2
        assert "config error: out_dir must be a string or null" in capsys.readouterr().err

    def test_config_not_an_object_exits_two_with_out(self, tmp_path, capsys):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps([small_verify_config()]))
        assert main(["verify", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 2
        assert "config error: config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_small_verify_writes_report(self, tmp_path, capsys):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(small_verify_config()))
        out_dir = tmp_path / "out"
        code = main(["verify", "--config", str(cpath), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["ok"] is True
        assert (out_dir / "rate_trace.csv").exists()
        assert (out_dir / "rate_trials.csv").exists()
        stdout = capsys.readouterr().out
        assert "[PASS]" in stdout


class TestHugeOptimum:
    """A problem whose default start rounds to x* in some coordinate exits 2
    before any run."""

    @pytest.mark.parametrize("optimum", [[1e17] * 4, [3e16, 0.0, 0.0, 0.0]],
                             ids=["all-coordinates", "one-coordinate"])
    @pytest.mark.parametrize("command", ["run", "rate", "verify"])
    def test_exits_two_before_running(self, tmp_path, capsys, monkeypatch, command,
                                      optimum):
        def no_runs(*args, **kwargs):
            raise AssertionError(f"{command} ran before rejecting its problem")

        monkeypatch.setattr(eq.cli, "run", no_runs)
        monkeypatch.setattr(eq.experiments, "run_many", no_runs)
        problem = eq.make_problem(eq.sphere(4), optimum).to_json()
        if command == "verify":
            cfg = {**small_verify_config(), "problem": problem}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            argv = ["verify", "--config", str(path)]
        else:
            path = tmp_path / "problem.json"
            path.write_text(json.dumps(problem))
            argv = [command, "--problem", str(path), "--alpha-up", "1.1",
                    "--alpha-down", "0.95", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "rounds to x*" in err


class TestFlagConfig:
    def test_flags_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "flags.json"
        cfg.write_text(json.dumps({
            "d": 8, "spectrum": "sphere",
            "alpha_up": 1.1, "alpha_down": 0.97,
            "budget": 100, "seed": 5,
        }))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_run_config_values_with_flag_defaults_apply(self, tmp_path, capsys):
        cfg = tmp_path / "flags.json"
        cfg.write_text(json.dumps({
            "d": 8, "spectrum": "sphere",
            "alpha_up": 1.1, "alpha_down": 0.97,
            "budget": 50, "seed": 3,
        }))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "(51 rows)" in capsys.readouterr().out
        assert json.loads((tmp_path / "o.csv.meta.json").read_text())["seed"] == 3
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", "4"]) == 0
        assert json.loads((tmp_path / "o.csv.meta.json").read_text())["seed"] == 4

    def test_rate_config_values_with_flag_defaults_apply(self, tmp_path, capsys):
        cfg = tmp_path / "flags.json"
        cfg.write_text(json.dumps({
            "d": 8, "spectrum": "sphere",
            "alpha_up": math.exp(1 / 8), "alpha_down": math.exp(-1 / 32),
            "budget": 600, "trials": 2, "seed": 9,
        }))
        assert main(["rate", "--config", str(cfg), "--trials", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget"] == 600
        assert payload["burn_in"] == 60
        assert payload["trials"] == 3
        assert payload["metadata"]["seed"] == 9

    def test_run_out_from_config(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfg = tmp_path / "flags.json"
        cfg.write_text(json.dumps({
            "d": 8, "spectrum": "sphere", "alpha_up": 1.1, "alpha_down": 0.97,
            "budget": 20, "out": str(out),
        }))
        assert main(["run", "--config", str(cfg)]) == 0
        assert len(out.read_text().splitlines()) == 22

    def test_sweep_out_from_config(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        cfg = tmp_path / "flags.json"
        cfg.write_text(json.dumps({
            "spectrum": "sphere", "dims": "8", "budget": 600, "trials": 2,
            "out": str(out),
        }))
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_drift_state_from_config(self, tmp_path, capsys):
        spath = tmp_path / "state.json"
        spath.write_text(json.dumps({"m": [1.0] * 16, "log_sigma": -2.0}))
        cfg = tmp_path / "flags.json"
        cfg.write_text(json.dumps({
            "d": 16, "spectrum": "sphere", "alpha_up": 1.1, "alpha_down": 0.97,
            "state": str(spath),
        }))
        assert main(["drift", "--config", str(cfg)]) == 1  # infeasible at d=16
        assert json.loads(capsys.readouterr().out)["infeasible"] is True

    @pytest.mark.parametrize("argv", [
        ["run", "--d", "8", "--spectrum", "sphere"],
        ["sweep", "--dims", "8"],
        ["drift", "--d", "8", "--spectrum", "sphere"],
    ])
    def test_missing_required_value_exits_two(self, argv, capsys):
        assert main(argv) == 2
        assert "is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, command, kind):
        path = tmp_path
        if kind == "not-utf8":
            path = tmp_path / "flags.json"
            path.write_bytes(b"\xd0{")
        assert main([command, "--config", str(path), "--out", "x"]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "flags.json"
        cfg.write_text(json.dumps({"bogus_flag": 1}))
        assert main(["run", "--config", str(cfg), "--out", "x.csv"]) == 2

    def test_null_config_value_keeps_flag_default(self, tmp_path, capsys):
        cfg = tmp_path / "flags.json"
        cfg.write_text(json.dumps({
            "d": 8, "spectrum": "sphere", "alpha_up": 1.1, "alpha_down": 0.97,
            "budget": None, "sigma0": None,
        }))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert "(1001 rows)" in capsys.readouterr().out


BOUNDS_D8 = ["bounds", "--d", "8", "--spectrum", "sphere"]
ALPHAS = ["--alpha-up", "1.1", "--alpha-down", "0.97"]
RUN_D8 = ["run", "--d", "8", "--spectrum", "sphere", *ALPHAS, "--budget", "20"]
PROBLEM = "<problem.json>"  # test_exits_two puts a d=6 problem file here
# and d=6 problem files with these malformed entries at these names
BAD_PROBLEMS = {
    "<affine-a-true.json>": {"transform": {"name": "affine", "a": True, "b": 0}},
    "<affine-b-nan.json>": {"transform": {"name": "affine", "a": 2, "b": math.nan}},
    "<affine-extra-key.json>": {"transform": {"name": "affine", "a": 2, "b": 0, "c": 5}},
    "<affine-a-string.json>": {"transform": {"name": "affine", "a": "2", "b": 0}},
    "<optimum-inf.json>": {"optimum": [0.0] * 5 + [math.inf]},
}


class TestMalformedValues:
    """A malformed value of any flag, inline or from --config, exits 2 before
    any run, with a config error or argparse's usage message."""

    @pytest.mark.parametrize("argv,config", [
        (["bounds", "--d", "8", "--spectrum", "sphere",
          "--alpha-up", "0.5", "--alpha-down", "0.97"], None),
        (["bounds", "--d", "8", "--spectrum", "cigar:abc", *ALPHAS], None),
        (["bounds", "--spectrum", "1,2,abc", *ALPHAS], None),
        (["bounds", "--d", "8", "--spectrum", "sphere:5", *ALPHAS], None),
        (["bounds", "--spectrum", "1,2,,3", *ALPHAS], None),
        (["bounds", "--d", "8", "--spectrum", "cigar:nan", *ALPHAS], None),
        (["bounds", "--d", "0", "--spectrum", "sphere", *ALPHAS], None),
        (["sweep", "--dims", "8,x"], None),
        (["sweep", "--dims", "8,,16"], None),
        (["sweep", "--dims", "8,8"], None),
        (["sweep", "--dims", "8", "--target", "2"], None),
        (["sweep", "--dims", "8", "--trials", "0"], None),
        ([*RUN_D8, "--budget", "-5"], None),
        ([*RUN_D8, "--sigma0", "-1"], None),
        ([*RUN_D8, "--sigma0", "inf"], None),
        (["drift", "--d", "8", "--spectrum", "sphere", *ALPHAS, "--n", "5"], None),
        (["run"], {"d": 8, "spectrum": "sphere", "alpha_up": 1.1,
                   "alpha_down": 0.97, "budget": 1.5}),
        (["run"], {"d": True, "spectrum": "sphere", "alpha_up": 1.1,
                   "alpha_down": 0.97, "budget": 20}),
        (["run", "--spectrum", "4,2,1", "--d", "8", *ALPHAS], None),
        (["bounds", "--spectrum", "4,2,1", "--d", "2", *ALPHAS], None),
        (["run", "--problem", PROBLEM, "--spectrum", "sphere", *ALPHAS], None),
        (["run", "--problem", PROBLEM, "--d", "6", *ALPHAS], None),
        (["run", "--problem", PROBLEM, "--rotation-seed", "4", *ALPHAS], None),
        (["run", "--problem", PROBLEM, *ALPHAS], {"d": 3}),
        (["run", "--problem", PROBLEM, "--spectrum", "sphere", "--d", "3",
          "--rotation-seed", "4", *ALPHAS], None),
        (["bounds", "--problem", PROBLEM, *ALPHAS], {"spectrum": "sphere"}),
        (["run", "--problem", "<affine-a-true.json>", *ALPHAS], None),
        (["run", "--problem", "<affine-b-nan.json>", *ALPHAS], None),
        (["run", "--problem", "<affine-extra-key.json>", *ALPHAS], None),
        (["bounds", "--problem", "<affine-a-string.json>", *ALPHAS], None),
        (["run", "--problem", "<optimum-inf.json>", *ALPHAS], None),
        (["run", "--d", "8", "--spectrum", "sphere", "--alpha-up", "inf",
          "--alpha-down", "0.5", "--budget", "20"], None),
        (["bounds", "--d", "8", "--spectrum", "sphere", "--alpha-up", "1.5",
          "--alpha-down", "5e-324"], None),
    ], ids=["alpha-up-below-one", "cigar-abc", "list-abc", "sphere-with-condition",
            "list-empty-entry", "cigar-nan", "d-zero",
            "dims-x", "dims-empty-entry", "dims-repeated", "target-two", "trials-zero",
            "budget-negative",
            "sigma0-negative", "sigma0-inf", "drift-n-five", "config-budget-float",
            "config-d-true", "list-shorter-than-d", "list-longer-than-d",
            "problem-and-spectrum", "problem-and-d", "problem-and-rotation-seed",
            "problem-and-config-d", "problem-and-all-three", "problem-and-config-spectrum",
            "transform-a-true", "transform-b-nan", "transform-extra-key",
            "transform-a-string", "optimum-inf", "alpha-up-inf", "alpha-ratio-overflows"])
    def test_exits_two(self, tmp_path, capsys, monkeypatch, argv, config):
        def no_runs(*args, **kwargs):
            raise AssertionError("ran before rejecting a malformed value")

        monkeypatch.setattr(eq.experiments, "run_many", no_runs)
        monkeypatch.setattr("esquad.cli.run", no_runs)
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"m": [1.0] * 8, "log_sigma": -2.0}))
        doc = eq.make_problem(eq.sphere(6), 0).to_json()
        files = {}
        for name, entries in {PROBLEM: {}, **BAD_PROBLEMS}.items():
            files[name] = tmp_path / name.strip("<>")
            files[name].write_text(json.dumps({**doc, **entries}))
        out = str(tmp_path / "o.csv")
        argv = [str(files[a]) if a in files else a for a in argv]
        argv += {"bounds": [], "drift": ["--state", str(state)],
                 "run": ["--out", out], "sweep": ["--out", out]}[argv[0]]
        if config is not None:
            cfg = tmp_path / "flags.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error:" in err or "usage:" in err

    def test_exits_two_from_the_shell(self, tmp_path):
        src = str(Path(eq.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "esquad.cli", *RUN_D8, "--budget", "-5",
             "--out", str(tmp_path / "o.csv")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 2
        assert "config error: --budget must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o.csv").exists()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """Every JSON output parses strictly: a NaN or infinite float is null."""

    def test_dump_json_writes_null_for_non_finite(self):
        text = dump_json({"x": [math.nan, math.inf, -math.inf, 0.5], "y": (math.nan,)})
        assert _strict_json(text) == {"x": [None, None, None, 0.5], "y": [None]}

    def test_report_row_keeps_non_finite_value_in_note(self):
        from esquad.experiments import CheckResult
        diverged = CheckResult("c", "fail", observed=math.inf, bound=-math.inf, note="n")
        skipped = CheckResult("c", "skip", note="n")
        rows = _strict_json(dump_json([diverged.to_json(), skipped.to_json()]))
        assert [row["observed"] for row in rows] == [None, None]
        assert [row["note"] for row in rows] == ["n; observed=inf; bound=-inf", "n"]
        assert CheckResult("c", "fail", observed=math.nan).to_json()["note"] == "observed=nan"

    def test_every_command_output(self, tmp_path, capsys):
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        state, config = inputs / "state.json", inputs / "verify.json"
        state.write_text(json.dumps({"m": [0.0625] * 256, "log_sigma": -6.0}))
        config.write_text(json.dumps({**small_verify_config(), "out_dir": str(out / "verify")}))
        d256 = ["--d", "256", "--spectrum", "sphere", *ALPHAS_D256]
        commands = [
            [*RUN_D8, "--out", str(out / "run.csv")],
            ["bounds", *d256],
            ["drift", *d256, "--state", str(state), "--n", "1000",
             "--out", str(out / "drift.json")],
            # a single trial has no standard error, so std_error is NaN
            ["rate", "--d", "8", "--spectrum", "sphere", *ALPHAS, "--budget", "2000",
             "--trials", "1", "--out", str(out / "rate.json")],
            ["sweep", "--dims", "6", "--budget", "600", "--trials", "1",
             "--out", str(out / "sweep.csv")],
            ["verify", "--config", str(config)],
        ]
        for argv in commands:
            assert main(argv) == 0
            printed = capsys.readouterr().out
            if argv[0] in ("bounds", "drift", "rate"):
                _strict_json(printed)
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.json"))
        assert written == ["drift.json", "rate.json", "run.csv.meta.json",
                           "sweep.csv.meta.json", "verify/rate_trace.csv.meta.json",
                           "verify/report.json"]
        for name in written:
            _strict_json((out / name).read_text())
        assert _strict_json((out / "rate.json").read_text())["std_error"] is None
