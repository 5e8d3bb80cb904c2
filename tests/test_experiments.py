import io
import json
import math
import multiprocessing
import os
import re
from contextlib import redirect_stdout

import numpy as np
import pytest

import esquad as eq
from esquad import cli
from esquad.experiments import SweepProtocol, stat_retry, sweep_csv, validate_config
from esquad.stochastic import substream
from conftest import kill_worker_on, run_under_blas_kernels


def small_config(**overrides):
    cfg = {
        "seed": 7,
        "problem": {
            "eigenvalues": [1.0] * 64,
            "optimum": [0.0] * 64,
            "transform": "identity",
            "rotation_seed": None,
        },
        "params": {
            "alpha_up": math.exp(1 / 64),
            "alpha_down": math.exp(-1 / 256),
        },
        "run": {"budget": 1500, "burn_in": 150, "trials": 4, "n_mc": 10000},
    }
    cfg.update(overrides)
    return cfg


# optima whose size rounds the default start's offset of 1/2 away
HUGE_OPTIMA = pytest.mark.parametrize("optimum, size", [
    ([1e17] * 4, "1e+17"),  # every coordinate: the start was x*
    ([3e16, 0.0, 0.0, 0.0], "3e+16"),  # one coordinate: the start left the diagonal
], ids=["all-coordinates", "one-coordinate"])


class TestDefaultStart:
    @HUGE_OPTIMA
    def test_offset_lost_to_a_huge_optimum_raises(self, optimum, size):
        problem = eq.make_problem(eq.sphere(4), optimum)
        with pytest.raises(eq.DomainError, match=re.escape(f"max |x*_i| = {size}")):
            eq.default_initial_state(problem)

    def test_large_optimum_keeps_the_offset(self):
        problem = eq.make_problem(eq.sphere(4), [1e15] * 4)
        state = eq.default_initial_state(problem)
        assert np.array_equal(problem.centered(state.m), np.full(4, 0.5))


class TestMeasureRate:
    def test_sphere_d8_basic(self):
        p = eq.make_problem(eq.sphere(8), 0)
        est, _ = eq.measure_rate(
            p, eq.alpha_schedule(8), eq.default_initial_state(p),
            3000, 300, 6, eq.RandomStream(1),
        )
        assert est.ci_low <= est.a_hat <= est.ci_high
        assert 0.0 < est.a_hat < 1.0 / (2 * 5) + 3 * est.std_error
        assert est.slope_source == "logf"
        # norm slope tracks the log-f slope closely at this horizon
        assert est.norm_a_hat == pytest.approx(est.a_hat, abs=1e-3)

    def test_small_trials_minmax_ci(self):
        p = eq.make_problem(eq.sphere(6), 0)
        est, _ = eq.measure_rate(
            p, eq.alpha_schedule(6), eq.default_initial_state(p),
            1000, 100, 3, eq.RandomStream(2),
        )
        assert est.ci_low == float(np.min(est.trial_slopes))
        assert est.ci_high == float(np.max(est.trial_slopes))

    def test_burn_in_insensitivity_sphere_d32(self):
        p = eq.make_problem(eq.sphere(32), 0)
        params = eq.alpha_schedule(32)
        state0 = eq.default_initial_state(p)
        a, _ = eq.measure_rate(p, params, state0, 10000, 1000, 10, eq.RandomStream(3))
        b, _ = eq.measure_rate(p, params, state0, 10000, 2000, 10, eq.RandomStream(3))
        assert abs(b.a_hat - a.a_hat) / a.a_hat < 0.10

    def test_mis_scaled_sigma0_recovers(self):
        # a 1e6x oversized initial step still yields a positive measured rate
        p = eq.make_problem(eq.sphere(16), 0)
        base = eq.default_initial_state(p)
        state0 = eq.EsState(base.m, base.log_sigma + math.log(1e6))
        est, _ = eq.measure_rate(
            p, eq.alpha_schedule(16), state0, 8000, 2000, 5, eq.RandomStream(4)
        )
        assert est.a_hat > 0.0

    def test_validation(self):
        p = eq.make_problem(eq.sphere(4), 0)
        with pytest.raises(eq.ConfigError):
            eq.measure_rate(
                p, eq.alpha_schedule(4), eq.default_initial_state(p),
                100, 100, 2, eq.RandomStream(0),
            )

    @pytest.mark.parametrize("budget, burn_in, trials", [
        (100.0, 10, 2), (100, 10.0, 2), (100, 10, 2.0), (100, False, 2), (100, 10, True),
    ])
    def test_run_lengths_must_be_ints(self, budget, burn_in, trials):
        # a float budget once died inside numpy with a TypeError
        p = eq.make_problem(eq.sphere(4), 0)
        with pytest.raises(eq.ConfigError, match="must be integers"):
            eq.measure_rate(p, eq.alpha_schedule(4), eq.default_initial_state(p),
                            budget, burn_in, trials, eq.RandomStream(0))
        with pytest.raises(eq.ConfigError, match="must be integers"):
            SweepProtocol(budget, burn_in, trials, 0)


class TestSweep:
    def test_rows_and_csv(self):
        problems = [eq.make_problem(eq.sphere(d), 0) for d in (6, 8)]
        rows = eq.sweep(
            problems,
            lambda p: eq.alpha_schedule(p.d),
            SweepProtocol(budget=800, burn_in=80, trials=3, seed=5),
        )
        assert len(rows) == 2
        for row in rows:
            assert row["error"] is None or "infeasible" in row["error"]
            assert row["a_hat"] > 0
            assert row["lower_const"] == row["cond"] / (2 * (row["d"] - 3))
        text = sweep_csv(rows)
        header = text.splitlines()[0].split(",")
        assert header == list(eq.experiments.SWEEP_COLUMNS)
        assert len(text.splitlines()) == 3

    def test_per_row_failure_recorded_and_continues(self):
        problems = [eq.make_problem(eq.sphere(d), 0) for d in (4, 8)]

        def params_for(p):
            if p.d == 4:
                raise ValueError("no schedule for d=4")
            return eq.alpha_schedule(p.d)

        rows = eq.sweep(
            problems, params_for, SweepProtocol(budget=500, burn_in=50, trials=2, seed=6)
        )
        assert rows[0]["a_hat"] is None
        assert "no schedule" in rows[0]["error"]
        assert rows[1]["a_hat"] is not None

    def test_empty_rejected(self):
        with pytest.raises(eq.ConfigError):
            eq.sweep([], lambda p: eq.alpha_schedule(4), SweepProtocol(10, 1, 1, 0))


class TestValidateConfig:
    def test_accepts_good_config(self):
        cfg = validate_config(small_config())
        assert cfg["problem"].d == 64
        assert cfg["params"].p_target == pytest.approx(0.2)

    def test_unknown_keys_rejected(self):
        with pytest.raises(eq.ConfigError, match="unknown"):
            validate_config(small_config(extra=1))

    def test_missing_keys_rejected(self):
        cfg = small_config()
        del cfg["params"]
        with pytest.raises(eq.ConfigError, match="missing"):
            validate_config(cfg)

    def test_bad_run_section(self):
        cfg = small_config()
        cfg["run"] = {"budget": 10, "burn_in": 20, "trials": 1, "n_mc": 100}
        with pytest.raises(eq.ConfigError, match="budget"):
            validate_config(cfg)
        cfg["run"] = {"budget": 10, "burn_in": 2, "trials": 1}
        with pytest.raises(eq.ConfigError, match="run section"):
            validate_config(cfg)

    def test_bad_problem(self):
        cfg = small_config()
        cfg["problem"] = {"eigenvalues": [-1.0], "optimum": [0.0]}
        with pytest.raises(eq.ConfigError):
            validate_config(cfg)


class TestVerifySuite:
    def test_small_sphere_all_executable_checks_pass(self):
        report = eq.verify_suite(small_config())
        by_id = {c["check_id"]: c for c in report["checks"]}
        assert report["ok"]
        assert by_id["invariance_transform"]["status"] == "pass"
        assert by_id["invariance_translation"]["status"] == "pass"
        assert by_id["monotonicity"]["status"] == "pass"
        assert by_id["sigma_bookkeeping"]["status"] == "pass"
        assert by_id["success_sandwich"]["status"] == "pass"
        assert by_id["quality_gain"]["status"] == "pass"
        assert by_id["exp_moment"]["status"] == "pass"
        # sphere d=64 fails the trace condition: diagnosed skips, not failures
        assert by_id["theory_constants"]["status"] == "skip"
        assert "trace condition" in by_id["theory_constants"]["note"]
        for regime in ("small", "large", "reasonable"):
            assert by_id[f"drift_{regime}"]["status"] == "skip"
        assert by_id["rate_upper_cap"]["status"] == "pass"
        assert by_id["rate_lower_bound"]["status"] == "skip"
        assert by_id["bound_limits"]["status"] == "pass"
        # every check echoes seed and tolerance or a skip reason
        for check in report["checks"]:
            assert check["seed"] == 7 or check["status"] == "skip"

    def test_d3_problem_skips_exp_moment_with_reason(self):
        cfg = small_config(
            problem={
                "eigenvalues": [1.0, 1.0, 1.0],
                "optimum": [0.0, 0.0, 0.0],
                "transform": "identity",
                "rotation_seed": None,
            },
            run={"budget": 400, "burn_in": 40, "trials": 3, "n_mc": 5000},
        )
        report = eq.verify_suite(cfg)
        by_id = {c["check_id"]: c for c in report["checks"]}
        assert by_id["exp_moment"]["status"] == "skip"
        assert "d > 3" in by_id["exp_moment"]["note"]
        assert by_id["rate_upper_cap"]["status"] == "skip"
        assert by_id["rate_upper_cap"]["note"] == "requires d > 3, got d=3"
        assert by_id["invariance_transform"]["status"] == "pass"

    def test_p_target_half_drift_skipped_runs_execute(self):
        # d=128 clears the trace condition, so the diagnosis names the
        # p_target pairing (q_condition1) rather than the trace gate
        cfg = small_config(
            problem={
                "eigenvalues": [1.0] * 128,
                "optimum": [0.0] * 128,
                "transform": "identity",
                "rotation_seed": None,
            },
            params={"alpha_up": 1.5, "alpha_down": 1 / 1.5},
            run={"budget": 400, "burn_in": 40, "trials": 3, "n_mc": 5000},
        )
        report = eq.verify_suite(cfg)
        by_id = {c["check_id"]: c for c in report["checks"]}
        assert by_id["theory_constants"]["status"] == "skip"
        assert "q_condition1" in by_id["theory_constants"]["note"]
        assert by_id["drift_small"]["status"] == "skip"
        assert by_id["invariance_transform"]["status"] == "pass"
        assert by_id["monotonicity"]["status"] == "pass"

    def test_report_is_json_serializable_without_artifacts(self):
        report = eq.verify_suite(
            small_config(run={"budget": 300, "burn_in": 30, "trials": 2, "n_mc": 5000})
        )
        text = json.dumps(report, sort_keys=True)
        assert "checks" in json.loads(text)

    def test_out_dir_gets_the_files_of_verify_out(self, tmp_path, capsys):
        run = {"budget": 300, "burn_in": 30, "trials": 3, "n_mc": 2000}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(small_config(run=run)))
        assert cli.main(["verify", "--config", str(config),
                         "--out", str(tmp_path / "cli")]) == 0
        report = eq.verify_suite(small_config(run=run, out_dir=str(tmp_path / "api")))
        names = ["rate_trace.csv", "rate_trace.csv.meta.json", "rate_trials.csv",
                 "report.json"]
        for side in ("api", "cli"):
            assert sorted(p.name for p in (tmp_path / side).iterdir()) == names
        for name in names:
            assert (tmp_path / "api" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()
        assert json.loads((tmp_path / "api" / "report.json").read_text()) == report
        assert (tmp_path / "api" / "rate_trials.csv").read_text().count("\n") == 1 + run["trials"]


    @pytest.mark.parametrize("problem", [
        {"eigenvalues": [1.0] * d, "optimum": [0.0] * d, "transform": "identity",
         "rotation_seed": None} for d in (3, 32, 128)
    ] + [{"eigenvalues": [10.0] + [1.0] * 31, "optimum": [0.5] * 32,
          "transform": "log1p", "rotation_seed": 3}],
        ids=["sphere3", "sphere32", "sphere128", "cigar10-32-rotated-shifted"])
    def test_invariance_exact_where_inverse_sqrt_d_is_off_the_binary_grid(self, problem):
        # 1/sqrt(d) is not a power of two here, so m0 + shift rounds unless
        # the runs start on a grid where adding the integer shift is exact
        report = eq.verify_suite(small_config(
            problem=problem, run={"budget": 300, "burn_in": 30, "trials": 1, "n_mc": 100}))
        by_id = {c["check_id"]: c for c in report["checks"]}
        assert by_id["invariance_translation"]["status"] == "pass"
        assert by_id["invariance_transform"]["status"] == "pass"

    def test_row_order_same_with_and_without_theory_constants(self):
        run = {"budget": 300, "burn_in": 30, "trials": 2, "n_mc": 2000}
        feasible = eq.verify_suite(small_config(
            problem={"eigenvalues": [1.0] * 256, "optimum": [0.0] * 256,
                     "transform": "identity", "rotation_seed": None},
            params={"alpha_up": math.exp(1 / 256),
                    "alpha_down": math.exp(-(0.4 / 0.6) / 256)},
            run=run))
        infeasible = eq.verify_suite(small_config(run=run))
        assert feasible["n_skip"] == 0
        assert {c["check_id"] for c in infeasible["checks"] if c["status"] == "skip"} == {
            "theory_constants", "drift_small", "drift_reasonable", "drift_large",
            "rate_lower_bound"}
        order = [c["check_id"] for c in feasible["checks"]]
        assert order == [c["check_id"] for c in infeasible["checks"]]
        assert order[8:11] == ["drift_small", "drift_reasonable", "drift_large"]


class TestStatRetry:
    """bench/workloads.py counts the notes that carry the retry suffix."""

    @pytest.mark.parametrize("second", [True, False])
    def test_failed_first_attempt_reruns_at_4n_with_suffix(self, second):
        calls = []

        def check(n, attempt):
            calls.append((n, attempt))
            return attempt == 1 and second, float(n), 0.0, "note"

        assert stat_retry(check, 100) == (second, 400.0, 0.0, "note (retried at 4x n)")
        assert calls == [(100, 0), (400, 1)]

    def test_passed_first_attempt_is_not_rerun(self):
        calls = []

        def check(n, attempt):
            calls.append((n, attempt))
            return True, "note"

        assert stat_retry(check, 100) == (True, "note")
        assert calls == [(100, 0)]


_KERNEL_REPORT = """
import esquad as eq
from esquad.ioutil import dump_json
p = eq.make_problem(eq.ellipsoid(100, 10.0), 0)
report = eq.verify_suite({
    "seed": 3, "problem": p.to_json(), "params": eq.alpha_schedule(100, 0.4).to_json(),
    "run": {"budget": 200, "burn_in": 20, "trials": 2, "n_mc": 4000}})
print(dump_json(report))
"""


def test_unrotated_report_bytes_do_not_depend_on_the_blas_kernel():
    # the sibling of the trace test in test_es_core: no BLAS reduction may
    # reach report.json on an unrotated problem
    outputs = run_under_blas_kernels(_KERNEL_REPORT)
    assert json.loads(outputs[None])["n_pass"] > 0
    assert len(set(outputs.values())) == 1, outputs


class TestCpuCount:
    """The trials of measure_rate, and so verify and sweep, run on every CPU
    through es_core.run_many; every output must be the same bytes on one CPU
    and on more."""

    @pytest.mark.parametrize("lam, rotation_seed", [
        (eq.sphere(16), None), (eq.cigar(16, 100.0), None), (eq.ellipsoid(8, 10.0), 5),
    ], ids=["sphere16", "cigar100-16", "ellipsoid10-8-rotated"])
    def test_measure_rate_same_on_one_and_two_cpus(self, cpus, lam, rotation_seed):
        problem = eq.make_problem(lam, 0, rotation_seed=rotation_seed)
        params = eq.alpha_schedule(problem.d, 0.2)
        results = []
        for n in (1, 2):
            cpus(n)
            results.append(eq.measure_rate(
                problem, params, eq.default_initial_state(problem), 2000, 200, 5,
                eq.RandomStream(29)))
            assert multiprocessing.active_children() == []
        (one, trace_one), (two, trace_two) = results
        assert np.array_equal(one.trial_slopes, two.trial_slopes)
        assert np.array_equal(one.trial_norm_slopes, two.trial_norm_slopes)
        assert one.to_json() == two.to_json()
        for column in ("t", "log_f", "log_sigma", "accepted", "log_norm"):
            assert np.array_equal(getattr(trace_one, column), getattr(trace_two, column))
        assert trace_one.metadata == trace_two.metadata

    def test_verify_out_same_bytes_on_one_and_two_cpus(self, cpus, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            small_config(run={"budget": 600, "burn_in": 60, "trials": 5, "n_mc": 5000})))
        outs, stdouts = [], []
        for n in (1, 2, 3):  # on three CPUs two workers share the runs
            cpus(n)
            outs.append(tmp_path / f"cpus{n}")
            stdouts.append(io.StringIO())
            with redirect_stdout(stdouts[-1]):
                code = cli.main(["verify", "--config", str(config), "--out", str(outs[-1])])
            assert code == 0
            assert multiprocessing.active_children() == []
        assert len({out.getvalue() for out in stdouts}) == 1
        files = sorted(p.name for p in outs[0].iterdir())
        assert len(files) == 4
        for out in outs[1:]:
            assert files == sorted(p.name for p in out.iterdir())
            for name in files:
                assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_sweep_row_error_from_a_worker(self, cpus):
        # lambda = 1e308 overflows the decrement's quadratic term when
        # |xi| > 1.9.  At seed 2 the row's trial 0 survives its 12 steps,
        # trial 1 (in a worker on two CPUs) fails at step 2 and trial 2 (in
        # the caller) at step 4; the row keeps the error of trial 1.
        problems = [eq.make_problem([1e308], 0), eq.make_problem(eq.sphere(8), 0)]
        protocol = SweepProtocol(budget=12, burn_in=1, trials=3, seed=2)
        params = eq.alpha_schedule(1, 0.2)
        row_stream = substream(eq.RandomStream(2, path=(0x5357,)), 0)
        state0 = eq.default_initial_state(problems[0])
        eq.run(problems[0], state0, params, 12, substream(row_stream, 0))
        with pytest.raises(eq.NumericalFailure, match="at step 4"):
            eq.run(problems[0], state0, params, 12, substream(row_stream, 2))
        rows = []
        for n in (1, 2):
            cpus(n)
            rows.append(eq.sweep(problems, lambda p: params, protocol))
        assert rows[0][0]["error"] == "NumericalFailure: non-finite core decrement at step 2"
        assert rows[1] == rows[0]
        assert rows[1][1]["a_hat"] is not None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_failing_run_fails_its_row_only(self, cpus, n_cpus, bad):
        # lambda = 1e308 overflows the decrement's quadratic term when |xi|
        # > 1.9, so its row's runs fail; every other row keeps the estimate
        # that measure_rate gives on that row's substream
        problems = [eq.make_problem(eq.sphere(d), 0) for d in (6, 8, 12)]
        problems[bad] = eq.make_problem([1e308], 0)
        protocol = SweepProtocol(budget=400, burn_in=40, trials=3, seed=4)
        cpus(n_cpus)
        rows = eq.sweep(problems, lambda p: eq.alpha_schedule(p.d, 0.2), protocol)
        root = eq.RandomStream(4, path=(0x5357,))
        for idx, (problem, row) in enumerate(zip(problems, rows)):
            args = (problem, eq.alpha_schedule(problem.d, 0.2),
                    eq.default_initial_state(problem), 400, 40, 3, substream(root, idx))
            if idx == bad:
                with pytest.raises(eq.NumericalFailure) as failure:
                    eq.measure_rate(*args)
                assert row["error"] == f"NumericalFailure: {failure.value}"
                assert row["a_hat"] is None
            else:
                est, _ = eq.measure_rate(*args)
                assert (row["a_hat"], row["ci_low"], row["ci_high"]) == (
                    est.a_hat, est.ci_low, est.ci_high)
                assert row["error"] is None or row["error"].startswith("constants infeasible")

    def test_killed_worker_fails_one_sweep_row_only(self, cpus, monkeypatch):
        problems = [eq.make_problem(eq.sphere(d), 0) for d in (4, 8, 16)]
        protocol = SweepProtocol(budget=400, burn_in=40, trials=2, seed=3)
        serial = eq.sweep(problems, lambda p: eq.alpha_schedule(8), protocol)
        cpus(2)
        # the sweep's job 1, row 0's trial 1, runs in the worker
        row0 = substream(eq.RandomStream(3, path=(0x5357,)), 0)
        kill_worker_on(monkeypatch, substream(row0, 1).path)
        rows = eq.sweep(problems, lambda p: eq.alpha_schedule(8), protocol)
        assert rows[0]["error"].startswith("BrokenProcessPool")
        assert rows[1:] == serial[1:]

    def test_worker_killed_at_its_second_job_fails_that_row_only(self, cpus, monkeypatch):
        problems = [eq.make_problem(eq.sphere(d), 0) for d in (4, 8, 16)]
        protocol = SweepProtocol(budget=400, burn_in=40, trials=2, seed=3)
        serial = eq.sweep(problems, lambda p: eq.alpha_schedule(8), protocol)
        cpus(2)
        # the worker runs jobs 1, 3 and 5 and dies at job 3, row 1's trial 1,
        # after finishing job 1 of row 0
        row1 = substream(eq.RandomStream(3, path=(0x5357,)), 1)
        kill_worker_on(monkeypatch, substream(row1, 1).path)
        rows = eq.sweep(problems, lambda p: eq.alpha_schedule(8), protocol)
        assert rows[1]["error"].startswith("BrokenProcessPool")
        assert [rows[0], rows[2]] == [serial[0], serial[2]]

    def test_failed_worker_start_raises_from_sweep(self, cpus, monkeypatch):
        # an exception without a job_index is no row's failure
        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        problems = [eq.make_problem(eq.sphere(d), 0) for d in (4, 8)]
        protocol = SweepProtocol(budget=100, burn_in=10, trials=2, seed=3)
        cpus(2)
        with pytest.raises(OSError, match="fork refused"):
            eq.sweep(problems, lambda p: eq.alpha_schedule(8), protocol)
