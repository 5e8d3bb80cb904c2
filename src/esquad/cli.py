"""Command-line front end.

Subcommands: run, bounds, drift, rate, sweep, verify.  Each accepts
``--config <path>`` (a JSON object whose keys are the long flag names with
underscores) with inline flags taking precedence; ``verify`` instead takes the
nested verification-suite config.  Outputs are written atomically and embed
version, seed and generator id.  Exit codes: 0 success, 1 check failure,
2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bounds import constants as theory_constants
from .errors import ConfigError, EsquadError, InfeasibleBound, config_errors
from .es_core import EsParams, EsState, run
from .experiments import (
    SweepProtocol,
    default_initial_state,
    drift_check,
    measure_rate,
    sweep,
    sweep_csv,
    verify_suite,
)
from .ioutil import atomic_write_text, dump_json
from .potential import classify
from .quadratic import (
    QuadraticProblem,
    cigar,
    discus,
    ellipsoid,
    make_problem,
    problem_from_json,
    sphere,
    spectrum_stats,
)
from .stochastic import GENERATOR_ID, RandomStream
from .version import VERSION


def parse_spectrum(text: str, d: Optional[int]) -> List[float]:
    """Expand a spectrum shorthand into an eigenvalue list.

    ``sphere`` needs --d; ``cigar:XI``, ``discus:XI`` and ``ellipsoid:XI``
    need --d and a positive XI; a comma-separated list of numbers is taken
    verbatim.
    """
    text = text.strip()
    if "," in text:
        return [float(tok) for tok in text.split(",") if tok]
    name, _, arg = text.partition(":")
    if name == "sphere":
        if d is None:
            raise ConfigError("spectrum 'sphere' requires --d")
        return sphere(d)
    if name in ("cigar", "discus", "ellipsoid"):
        if d is None:
            raise ConfigError(f"spectrum '{name}' requires --d")
        if not arg:
            raise ConfigError(f"spectrum '{name}' requires a condition, e.g. {name}:10")
        xi = float(arg)
        if xi < 1:
            raise ConfigError("condition number must be >= 1")
        return {"cigar": cigar, "discus": discus, "ellipsoid": ellipsoid}[name](d, xi)
    raise ConfigError(f"unknown spectrum {text!r}")


def _metadata(seed: Optional[int]) -> dict:
    return {"version": VERSION, "generator_id": GENERATOR_ID, "seed": seed}


def svg_line_plot(
    series: Sequence[Tuple[np.ndarray, np.ndarray, str]],
    title: str,
    xlabel: str,
    ylabel: str,
    width: int = 640,
    height: int = 400,
) -> str:
    """Minimal deterministic SVG line plot; no plotting dependency."""
    pad = 56
    xs_all = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    if not np.any(finite):
        raise EsquadError("nothing finite to plot")
    x_lo, x_hi = float(xs_all[finite].min()), float(xs_all[finite].max())
    y_lo, y_hi = float(ys_all[finite].min()), float(ys_all[finite].max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width/2:.1f}" y="{height-12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height/2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height/2:.1f})">{ylabel}</text>',
    ]
    for tick in range(5):
        xv = x_lo + tick * (x_hi - x_lo) / 4
        yv = y_lo + tick * (y_hi - y_lo) / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{height-pad+16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{pad-6}" y="{py(yv)+3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{yv:.4g}</text>'
        )
    for i, (xs, ys, label) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        pts = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}"
            for x, y in zip(xs[keep], ys[keep])
        )
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        if label:
            parts.append(
                f'<text x="{width-pad}" y="{pad + 14 * i}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11" fill="{color}">'
                f"{label}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _load_flag_config(path: str, allowed: set) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("flag config must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _build_parser() -> Tuple[argparse.ArgumentParser, dict]:
    """The ``esquad`` parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="esquad",
        description="(1+1)-ES on convex quadratics: runs, theory constants, "
        "drift and rate verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("--d", type=int, help="dimension")
        p.add_argument(
            "--spectrum",
            help="sphere | cigar:XI | discus:XI | ellipsoid:XI | comma list",
        )
        p.add_argument("--rotation-seed", type=int, default=None)
        p.add_argument("--problem", help="path to a problem JSON file")

    def add_alpha_flags(p):
        p.add_argument("--alpha-up", type=float)
        p.add_argument("--alpha-down", type=float)

    p_run = sub.add_parser("run", help="run the ES and write a trace CSV")
    add_problem_flags(p_run)
    add_alpha_flags(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--budget", type=int, default=1000)
    p_run.add_argument("--sigma0", type=float, default=None)
    p_run.add_argument("--out", help="trace CSV path (required)")
    p_run.add_argument("--svg", help="also write a log f vs t plot")
    p_run.add_argument("--config")

    p_bounds = sub.add_parser("bounds", help="print theory constants as JSON")
    add_problem_flags(p_bounds)
    add_alpha_flags(p_bounds)
    p_bounds.add_argument("--config")

    p_drift = sub.add_parser("drift", help="one-step potential drift report")
    add_problem_flags(p_drift)
    add_alpha_flags(p_drift)
    p_drift.add_argument("--state", help="JSON file {m, log_sigma} (required)")
    p_drift.add_argument("--n", type=int, default=100000)
    p_drift.add_argument("--seed", type=int, default=0)
    p_drift.add_argument("--out")
    p_drift.add_argument("--config")

    p_rate = sub.add_parser("rate", help="measure the convergence rate")
    add_problem_flags(p_rate)
    add_alpha_flags(p_rate)
    p_rate.add_argument("--seed", type=int, default=0)
    p_rate.add_argument("--budget", type=int, default=20000)
    p_rate.add_argument("--burn-in", type=int, default=None)
    p_rate.add_argument("--trials", type=int, default=20)
    p_rate.add_argument("--out")
    p_rate.add_argument("--svg")
    p_rate.add_argument("--config")

    p_sweep = sub.add_parser("sweep", help="rate estimates across dimensions")
    p_sweep.add_argument("--spectrum", default="sphere")
    p_sweep.add_argument("--dims", default="8,16,32,64")
    p_sweep.add_argument("--target", type=float, default=0.2,
                         help="success target of the per-dimension schedule")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--budget", type=int, default=20000)
    p_sweep.add_argument("--burn-in", type=int, default=None)
    p_sweep.add_argument("--trials", type=int, default=20)
    p_sweep.add_argument("--out", help="sweep CSV path (required)")
    p_sweep.add_argument("--svg")
    p_sweep.add_argument("--config")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", help="output directory (overrides config)")

    return parser, sub.choices


def _problem_from_args(args) -> QuadraticProblem:
    if getattr(args, "problem", None):
        with open(args.problem) as fh:
            obj = json.load(fh)
        with config_errors(f"problem file {args.problem}"):
            return problem_from_json(obj)
    if not getattr(args, "spectrum", None):
        raise ConfigError("either --problem or --spectrum is required")
    eigenvalues = parse_spectrum(args.spectrum, args.d)
    return make_problem(eigenvalues, 0, rotation_seed=args.rotation_seed)


def _params_from_args(args) -> EsParams:
    if args.alpha_up is None or args.alpha_down is None:
        raise ConfigError("--alpha-up and --alpha-down are required")
    return EsParams(args.alpha_up, args.alpha_down)


def _cmd_run(args) -> int:
    problem = _problem_from_args(args)
    params = _params_from_args(args)
    stream = RandomStream(args.seed)
    state0 = default_initial_state(problem)
    if args.sigma0 is not None:
        state0 = EsState(state0.m, math.log(args.sigma0))
    trace = run(problem, state0, params, args.budget, stream)
    trace.write_csv(args.out)
    if args.svg:
        atomic_write_text(
            args.svg,
            svg_line_plot(
                [(trace.t, trace.log_f, "log f")],
                title="(1+1)-ES trace",
                xlabel="iteration",
                ylabel="log f (core)",
            ),
        )
    print(f"wrote {args.out} ({len(trace)} rows)")
    return 0


def _cmd_bounds(args) -> int:
    problem = _problem_from_args(args)
    params = _params_from_args(args)
    stats = spectrum_stats(problem)
    try:
        consts = theory_constants(stats, params)
    except InfeasibleBound as exc:
        print(dump_json({"infeasible": True, "reason": str(exc)}), end="")
        return 1
    payload = consts.to_json()
    payload["metadata"] = _metadata(None)
    print(dump_json(payload), end="")
    return 0


def _cmd_drift(args) -> int:
    problem = _problem_from_args(args)
    params = _params_from_args(args)
    with open(args.state) as fh:
        raw = json.load(fh)
    with config_errors(f"state file {args.state}"):
        state = EsState(np.asarray(raw["m"], dtype=float), float(raw["log_sigma"]))
        problem.centered(state.m)  # of length d and not the optimum
    try:
        consts = theory_constants(spectrum_stats(problem), params)
    except InfeasibleBound as exc:
        payload = {"infeasible": True, "reason": str(exc)}
        text = dump_json(payload)
        if args.out:
            atomic_write_text(args.out, text)
        print(text, end="")
        return 1
    regime = classify(state, problem, consts)
    res = drift_check(problem, state, regime, consts, params, args.n, RandomStream(args.seed))
    payload = {
        "estimate": {
            "mean": res.estimate.mean,
            "std_error": res.estimate.std_error,
            "n": res.estimate.n,
            "estimator_id": res.estimate.estimator_id,
        },
        "regime": regime.value,
        "bound": res.target,
        "pathwise_cap": res.cap,
        "pathwise_max": res.pathwise_max,
        "pass": res.passed,
        "metadata": _metadata(args.seed),
    }
    text = dump_json(payload)
    if args.out:
        atomic_write_text(args.out, text)
    print(text, end="")
    return 0 if res.passed else 1


def _cmd_rate(args) -> int:
    problem = _problem_from_args(args)
    params = _params_from_args(args)
    burn_in = args.burn_in if args.burn_in is not None else args.budget // 10
    est, trace = measure_rate(
        problem,
        params,
        default_initial_state(problem),
        args.budget,
        burn_in,
        args.trials,
        RandomStream(args.seed),
        keep_first_trace=True,
    )
    payload = est.to_json()
    payload["metadata"] = _metadata(args.seed)
    text = dump_json(payload)
    if args.out:
        atomic_write_text(args.out, text)
    if args.svg:
        atomic_write_text(
            args.svg,
            svg_line_plot(
                [(trace.t, trace.log_f, "log f")],
                title=f"rate trial (a_hat={est.a_hat:.4g})",
                xlabel="iteration",
                ylabel="log f (core)",
            ),
        )
    print(text, end="")
    return 0


def _cmd_sweep(args) -> int:
    from .es_core import alpha_schedule

    dims = [int(tok) for tok in args.dims.split(",") if tok]
    if not dims:
        raise ConfigError("--dims must list at least one dimension")
    problems = [
        make_problem(parse_spectrum(args.spectrum, d), 0) for d in dims
    ]
    burn_in = args.burn_in if args.burn_in is not None else args.budget // 10
    rows = sweep(
        problems,
        lambda p: alpha_schedule(p.d, args.target),
        SweepProtocol(args.budget, burn_in, args.trials, args.seed),
    )
    atomic_write_text(args.out, sweep_csv(rows))
    atomic_write_text(
        args.out + ".meta.json",
        dump_json(
            {
                "metadata": _metadata(args.seed),
                "spectrum": args.spectrum,
                "dims": dims,
                "target": args.target,
                "errors": {str(r["d"]): r["error"] for r in rows if r["error"]},
            }
        ),
    )
    if args.svg:
        kept = [(r["d"], r["a_hat"]) for r in rows if r["a_hat"] is not None]
        if kept:
            atomic_write_text(
                args.svg,
                svg_line_plot(
                    [
                        (
                            np.array([k[0] for k in kept], dtype=float),
                            np.array([k[1] for k in kept], dtype=float),
                            "a_hat",
                        )
                    ],
                    title="convergence rate vs dimension",
                    xlabel="d",
                    ylabel="a_hat",
                ),
            )
    failures = [r for r in rows if r["a_hat"] is None]
    print(f"wrote {args.out} ({len(rows)} rows, {len(failures)} failed)")
    return 0 if not failures else 1


def _cmd_verify(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    report = verify_suite(config)
    out_dir = args.out or config.get("out_dir")
    artifacts = report.pop("_artifacts")
    for check in report["checks"]:
        print(f"[{check['status'].upper():4s}] {check['check_id']}: {check['note']}")
    if out_dir is not None:
        import os

        atomic_write_text(os.path.join(out_dir, "report.json"), dump_json(report))
        artifacts["first_trace"].write_csv(os.path.join(out_dir, "rate_trace.csv"))
        est = artifacts["rate"]
        slope_lines = ["trial,a_hat,norm_a_hat"] + [
            f"{i},{repr(float(a))},{repr(float(b))}"
            for i, (a, b) in enumerate(
                zip(est.trial_slopes, est.trial_norm_slopes)
            )
        ]
        atomic_write_text(
            os.path.join(out_dir, "rate_trials.csv"), "\n".join(slope_lines) + "\n"
        )
    print(
        f"verify: {report['n_pass']} pass, {report['n_fail']} fail, "
        f"{report['n_skip']} skip"
    )
    return 0 if report["ok"] else 1


_REQUIRED = {"run": "out", "drift": "state", "sweep": "out"}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser, commands = _build_parser()
    handlers = {
        "run": _cmd_run,
        "bounds": _cmd_bounds,
        "drift": _cmd_drift,
        "rate": _cmd_rate,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        args = parser.parse_args(argv)
        if args.command != "verify" and args.config:
            # The file's values become the subcommand's defaults and argv is
            # parsed again, so flags given inline win over the file.
            allowed = {k for k in vars(args) if k not in ("command", "config")}
            commands[args.command].set_defaults(
                **_load_flag_config(args.config, allowed))
            args = parser.parse_args(argv)
        # Checked after the merge, so a config file can supply these too.
        required = _REQUIRED.get(args.command)
        if required and getattr(args, required) is None:
            raise ConfigError(f"--{required} is required, inline or in --config")
        return handlers[args.command](args)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; preserve both.
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except EsquadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
