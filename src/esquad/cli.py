"""Command-line front end.

Subcommands: run, bounds, drift, rate, sweep, verify.  Each accepts
``--config <path>``, a JSON object whose keys are the long flag names with
underscores.  A key's value is parsed exactly as the inline flag
``--key-name=value`` is, inline flags win over the file, and a null value
leaves the flag at its default.  ``verify`` instead takes the nested
verification-suite config, whose ``out_dir`` an inline ``--out`` replaces.
Outputs are written atomically and embed version, seed and generator id.
Exit codes: 0 success, 1 check failure, 2 configuration or usage error; a
malformed value of any flag, inline or from the file, exits 2 before any run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bounds import constants as theory_constants
from .errors import ConfigError, EsquadError, InfeasibleBound, config_errors
from .es_core import EsParams, EsState, alpha_schedule, run
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

    ``sphere`` needs --d and takes no condition; ``cigar:XI``, ``discus:XI``
    and ``ellipsoid:XI`` need --d and an XI >= 1; a comma-separated list of
    numbers, with no empty entry, is taken verbatim, and must have d entries
    when --d is given.
    """
    text = text.strip()
    if "," in text:
        lam = [float(tok) for tok in text.split(",")]
        if d is not None and len(lam) != d:
            raise ConfigError(f"spectrum lists {len(lam)} eigenvalues, but --d is {d}")
        return lam
    name, sep, arg = text.partition(":")
    if name == "sphere":
        if sep:
            raise ConfigError(f"spectrum 'sphere' takes no condition, got {text!r}")
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


def _emit(payload: dict, out: Optional[str]) -> None:
    """Print ``payload`` as JSON and also write it to ``out`` when given."""
    text = dump_json(payload)
    if out:
        atomic_write_text(out, text)
    print(text, end="")


def svg_line_plot(path: str, xs, ys, label: str, title: str, xlabel: str,
                  ylabel: str) -> None:
    """Write one series as a minimal deterministic SVG line plot; no plotting
    dependency."""
    width, height, pad = 640, 400, 56
    pts = [(float(x), float(y)) for x, y in zip(xs, ys)
           if math.isfinite(x) and math.isfinite(y)]
    if not pts:
        raise EsquadError("nothing finite to plot")
    x_lo, x_hi = min(x for x, _ in pts), max(x for x, _ in pts)
    y_lo, y_hi = min(y for _, y in pts), max(y for _, y in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

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
    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
    parts += [
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{points}"/>',
        f'<text x="{width-pad}" y="{pad}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11" fill="#1f77b4">{label}</text>',
        "</svg>",
    ]
    atomic_write_text(path, "\n".join(parts) + "\n")


def _config_tokens(path: str, keys: set) -> List[str]:
    """The flag config at ``path`` as ``--key-name=value`` tokens, one per
    non-null key; a null key keeps its flag's default."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("flag config must be a JSON object")
    unknown = set(data) - keys
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return [f"--{key.replace('_', '-')}="
            f"{value if isinstance(value, str) else json.dumps(value)}"
            for key, value in data.items() if value is not None]


def _build_parser() -> argparse.ArgumentParser:
    """The ``esquad`` parser; each subparser sets its command's ``handler``."""
    parser = argparse.ArgumentParser(
        prog="esquad",
        description="(1+1)-ES on convex quadratics: runs, theory constants, "
        "drift and rate verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, problem_flags=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if problem_flags:
            p.add_argument("--d", type=int, help="dimension")
            p.add_argument(
                "--spectrum",
                help="sphere | cigar:XI | discus:XI | ellipsoid:XI | comma list",
            )
            p.add_argument("--rotation-seed", type=int, default=None)
            p.add_argument("--problem", help="path to a problem JSON file")
            p.add_argument("--alpha-up", type=float)
            p.add_argument("--alpha-down", type=float)
        return p

    p_run = command("run", _cmd_run, "run the ES and write a trace CSV")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--budget", type=int, default=1000)
    p_run.add_argument("--sigma0", type=float, default=None)
    p_run.add_argument("--out", help="trace CSV path (required)")
    p_run.add_argument("--svg", help="also write a log f vs t plot")

    p_bounds = command("bounds", _cmd_bounds, "print theory constants as JSON")

    p_drift = command("drift", _cmd_drift, "one-step potential drift report")
    p_drift.add_argument("--state", help="JSON file {m, log_sigma} (required)")
    p_drift.add_argument("--n", type=int, default=100000)
    p_drift.add_argument("--seed", type=int, default=0)
    p_drift.add_argument("--out")

    p_rate = command("rate", _cmd_rate, "measure the convergence rate")
    p_rate.add_argument("--seed", type=int, default=0)
    p_rate.add_argument("--budget", type=int, default=20000)
    p_rate.add_argument("--burn-in", type=int, default=None)
    p_rate.add_argument("--trials", type=int, default=20)
    p_rate.add_argument("--out")
    p_rate.add_argument("--svg")

    p_sweep = command("sweep", _cmd_sweep, "rate estimates across dimensions",
                      problem_flags=False)
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

    for p in (p_run, p_bounds, p_drift, p_rate, p_sweep):
        p.add_argument("--config")
    p_verify = command("verify", _cmd_verify, "run the verification suite",
                       problem_flags=False)
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", help="output directory (overrides config)")
    return parser


def _spectrum_problem(spectrum: str, d: Optional[int],
                      rotation_seed: Optional[int] = None) -> QuadraticProblem:
    with config_errors(f"spectrum {spectrum!r} at d={d}"):
        return make_problem(parse_spectrum(spectrum, d), 0, rotation_seed=rotation_seed)


def _inputs(args) -> Tuple[QuadraticProblem, EsParams]:
    """The problem and ES parameters the flags name; a malformed value raises
    ConfigError."""
    if args.problem:
        if (args.spectrum, args.d, args.rotation_seed) != (None, None, None):
            raise ConfigError("--problem excludes --spectrum, --d and --rotation-seed")
        with open(args.problem) as fh:
            obj = json.load(fh)
        with config_errors(f"problem file {args.problem}"):
            problem = problem_from_json(obj)
    elif args.spectrum:
        problem = _spectrum_problem(args.spectrum, args.d, args.rotation_seed)
    else:
        raise ConfigError("either --problem or --spectrum is required")
    if args.alpha_up is None or args.alpha_down is None:
        raise ConfigError("--alpha-up and --alpha-down are required")
    with config_errors("--alpha-up/--alpha-down"):
        return problem, EsParams(args.alpha_up, args.alpha_down)


def _cmd_run(args) -> int:
    problem, params = _inputs(args)
    if args.budget < 0:
        raise ConfigError("--budget must be >= 0")
    with config_errors("problem"):
        state0 = default_initial_state(problem)
    if args.sigma0 is not None:
        with config_errors(f"--sigma0 {args.sigma0!r}"):
            state0 = EsState(state0.m, math.log(args.sigma0))
    trace = run(problem, state0, params, args.budget, RandomStream(args.seed))
    trace.write_csv(args.out)
    if args.svg:
        svg_line_plot(args.svg, trace.t, trace.log_f, "log f", title="(1+1)-ES trace",
                      xlabel="iteration", ylabel="log f (core)")
    print(f"wrote {args.out} ({len(trace)} rows)")
    return 0


def _cmd_bounds(args) -> int:
    problem, params = _inputs(args)
    try:
        consts = theory_constants(spectrum_stats(problem), params)
    except InfeasibleBound as exc:
        _emit({"infeasible": True, "reason": str(exc)}, None)
        return 1
    _emit({**consts.to_json(), "metadata": _metadata(None)}, None)
    return 0


def _cmd_drift(args) -> int:
    problem, params = _inputs(args)
    with open(args.state) as fh:
        raw = json.load(fh)
    with config_errors(f"state file {args.state}"):
        state = EsState(np.asarray(raw["m"], dtype=float), float(raw["log_sigma"]))
        problem.centered(state.m)  # of length d and not the optimum
    if args.n < 1000:
        raise ConfigError("--n must be >= 1000")
    try:
        consts = theory_constants(spectrum_stats(problem), params)
    except InfeasibleBound as exc:
        _emit({"infeasible": True, "reason": str(exc)}, args.out)
        return 1
    regime = classify(state, problem, consts)
    res = drift_check(problem, state, regime, consts, params, args.n, RandomStream(args.seed))
    _emit({
        "estimate": asdict(res.estimate),
        "regime": regime.value,
        "bound": res.target,
        "pathwise_cap": res.cap,
        "pathwise_max": res.pathwise_max,
        "pass": res.passed,
        "metadata": _metadata(args.seed),
    }, args.out)
    return 0 if res.passed else 1


def _cmd_rate(args) -> int:
    problem, params = _inputs(args)
    burn_in = args.burn_in if args.burn_in is not None else args.budget // 10
    with config_errors("problem"):
        state0 = default_initial_state(problem)
    est, trace = measure_rate(problem, params, state0,
                              args.budget, burn_in, args.trials, RandomStream(args.seed))
    if args.svg:
        svg_line_plot(args.svg, trace.t, trace.log_f, "log f",
                      title=f"rate trial (a_hat={est.a_hat:.4g})",
                      xlabel="iteration", ylabel="log f (core)")
    _emit({**est.to_json(), "metadata": _metadata(args.seed)}, args.out)
    return 0


def _cmd_sweep(args) -> int:
    if "," in args.spectrum:
        raise ConfigError("sweep needs a named spectrum, not a comma list")
    with config_errors(f"--dims {args.dims!r}"):
        dims = [int(tok) for tok in args.dims.split(",")]
    if len(set(dims)) < len(dims):
        raise ConfigError(f"--dims {args.dims!r} lists a dimension twice")
    problems = [_spectrum_problem(args.spectrum, d) for d in dims]
    with config_errors(f"--target {args.target!r}"):
        schedule = {d: alpha_schedule(d, args.target) for d in dims}
    burn_in = args.burn_in if args.burn_in is not None else args.budget // 10
    rows = sweep(problems, lambda p: schedule[p.d],
                 SweepProtocol(args.budget, burn_in, args.trials, args.seed))
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
    kept = [r for r in rows if r["a_hat"] is not None]
    if args.svg and kept:
        svg_line_plot(args.svg, [r["d"] for r in kept], [r["a_hat"] for r in kept],
                      "a_hat", title="convergence rate vs dimension", xlabel="d",
                      ylabel="a_hat")
    failures = len(rows) - len(kept)
    print(f"wrote {args.out} ({len(rows)} rows, {failures} failed)")
    return 0 if not failures else 1


def _cmd_verify(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    if args.out and isinstance(config, dict):
        config = {**config, "out_dir": args.out}
    report = verify_suite(config)
    for check in report["checks"]:
        print(f"[{check['status'].upper():4s}] {check['check_id']}: {check['note']}")
    print(
        f"verify: {report['n_pass']} pass, {report['n_fail']} fail, "
        f"{report['n_skip']} skip"
    )
    return 0 if report["ok"] else 1


_REQUIRED = {"run": "out", "drift": "state", "sweep": "out"}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if args.command != "verify" and args.config:
            # The file's values go in as flags right after the subcommand, so
            # argparse types them as it types inline flags, and an inline
            # flag, parsed later, wins.
            keys = set(vars(args)) - {"command", "config", "handler"}
            args = parser.parse_args(argv[:1] + _config_tokens(args.config, keys) + argv[1:])
        # Checked after the merge, so a config file can supply these too.
        required = _REQUIRED.get(args.command)
        if required and getattr(args, required) is None:
            raise ConfigError(f"--{required} is required, inline or in --config")
        return args.handler(args)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; preserve both.
        return int(exc.code or 0)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except EsquadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
