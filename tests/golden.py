"""Golden bytes: one sha256 per pinned output, kept in ``tests/golden.json``.

A trace's or a report's bytes may move only with a ``VERSION`` bump.
``tests/test_golden.py`` recomputes every digest below and compares it with
the file.  Rewrite the file with

    PYTHONPATH=src python tests/golden.py --write

only in a change that bumps ``VERSION`` or adds entries, never to make a
change whose bytes moved without a bump pass.

Pinned, all unrotated and shown to be the same under every OpenBLAS kernel
and with numpy's AVX-512 loops off (``NPY_DISABLE_CPU_FEATURES=X86_V4``):

* ``verify``: the four files of ``verify --out`` and the stdout, on
  ``configs/default.json``;
* ``bounds``: ``esquad bounds`` on sphere and cigar:100 at d = 256 with
  ``alpha_schedule(256, 0.4)``;
* ``constants``: the bundles of ``constants`` (every field as ``float.hex``)
  or their infeasible messages on sphere, cigar:100 and ellipsoid:100 at
  d = 256 over a few p_targets;
* ``run``: traces (every column, ``hit_zero`` and the metadata) with and
  without ``record_m`` at G = 1, 2, 3 and 8 distinct eigenvalues, from the
  default start for 1 000 steps, and from a start whose step size is e^120
  times the default for 2 000 steps, which renormalises at the first step
  and again on the way down and keeps more than 256 accepted rows;
* ``sweep``: the CSV and its ``.meta.json`` of two small rows;
* ``mc``: one mean and standard error of each Monte Carlo estimator.

Left out: rotated problems, whose rotation is a LAPACK QR and whose lifted
points are BLAS products, so their bytes differ between OpenBLAS kernels;
and the ``constants`` bundles whose last bits move with numpy's per-CPU
``exp`` in the eps grid of ``bounds._sup_on_grid`` (sphere d = 256 and
d = 74 at p_target 0.48, cigar:100 d = 256 at 0.37, ellipsoid:100 d = 256
at 0.48).
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import esquad as eq
from esquad import montecarlo
from esquad.cli import main as cli_main, parse_spectrum
from esquad.ioutil import dump_json

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
CONFIG = HERE.parent / "configs" / "default.json"

# G = 1, 2, 3 and 8 distinct eigenvalues
RUN_SPECTRA = {"sphere8": eq.sphere(8), "cigar8": eq.cigar(8, 100.0),
               "three9": [100.0 ** (i % 3 / 2) for i in range(9)],
               "ellipsoid8": eq.ellipsoid(8, 100.0)}
# the p_targets of each spectrum's constants bundle at d = 256, infeasible ones
# included, less the bundles that move with numpy's per-CPU exp
CONSTANTS = {"sphere": (0.3, 0.37, 0.4, 0.45), "cigar:100": (0.3, 0.4, 0.45, 0.48),
             "ellipsoid:100": (0.3, 0.37, 0.4, 0.45)}


def _cli(argv) -> bytes:
    """The stdout of ``esquad argv``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    assert code == 0, (argv, code)
    return out.getvalue().encode()


def _trace_bytes(trace) -> bytes:
    columns = (trace.t, trace.log_f, trace.log_sigma, trace.accepted, trace.log_norm,
               trace.m_centered)
    return b"".join(c.tobytes() for c in columns if c is not None) + (
        dump_json(trace.metadata) + repr(trace.hit_zero)).encode()


def outputs():
    """Each pinned output's name and bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        yield "verify/stdout", _cli(["verify", "--config", CONFIG, "--out", tmp / "verify"])
        for f in sorted((tmp / "verify").iterdir()):
            yield f"verify/{f.name}", f.read_bytes()
        params = eq.alpha_schedule(256, 0.4)
        for spectrum in ("sphere", "cigar:100"):
            yield f"bounds/{spectrum}", _cli(
                ["bounds", "--d", 256, "--spectrum", spectrum,
                 "--alpha-up", repr(params.alpha_up), "--alpha-down", repr(params.alpha_down)])
        for spectrum, targets in CONSTANTS.items():
            p = eq.make_problem(parse_spectrum(spectrum, 256), 0)
            for target in targets:
                try:
                    doc = eq.constants(eq.spectrum_stats(p), eq.alpha_schedule(256, target))
                    text = dump_json({k: v.hex() for k, v in doc.to_json().items()})
                except eq.InfeasibleBound as exc:
                    text = str(exc)
                yield f"constants/{spectrum}/{target}", text.encode()
        sweep = tmp / "sweep.csv"
        _cli(["sweep", "--spectrum", "cigar:10", "--dims", "8,16", "--budget", 1500,
              "--trials", 2, "--seed", 4, "--out", sweep])
        yield "sweep/csv", sweep.read_bytes()
        yield "sweep/meta", pathlib.Path(f"{sweep}.meta.json").read_bytes()
    for name, lam in RUN_SPECTRA.items():
        p = eq.make_problem(lam, 0)
        start = eq.default_initial_state(p)
        far = eq.EsState(start.m, start.log_sigma + 120.0)
        for case, state0, params, budget in (
                ("default", start, eq.alpha_schedule(p.d, 0.2), 1000),
                ("far", far, eq.EsParams(1.5, 0.8), 2000)):
            for record_m in (False, True):
                trace = eq.run(p, state0, params, budget, eq.RandomStream(7), record_m)
                yield (f"run/{name}/{case}{'/record_m' if record_m else ''}",
                       _trace_bytes(trace))
    p = eq.make_problem(eq.cigar(16, 100.0), 0)
    m = eq.default_initial_state(p).m
    for estimate in (montecarlo.estimate_success_prob, montecarlo.estimate_log_progress,
                     montecarlo.estimate_exp_abs):
        est = estimate(p, m, 0.05, 2000, eq.RandomStream(5))
        yield f"mc/{estimate.__name__}", f"{est.mean.hex()} {est.std_error.hex()}".encode()
    p = eq.make_problem(eq.sphere(256), 0)
    params = eq.alpha_schedule(256, 0.4)
    consts = eq.constants(eq.spectrum_stats(p), params)
    state = eq.default_initial_state(p)
    for shift in (-3.0, 0.0, 3.0):  # below, in and above the band, roughly
        est, _ = montecarlo.estimate_drift_V(
            p, eq.EsState(state.m, state.log_sigma + shift), consts, params, 2000,
            eq.RandomStream(6))
        yield (f"mc/estimate_drift_V/{shift:+g}",
               f"{est.mean.hex()} {est.std_error.hex()}".encode())


def digests() -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN.name}; else print the digests")
    args = parser.parse_args(argv)
    doc = {"version": eq.VERSION, "generator_id": eq.GENERATOR_ID, "sha256": digests()}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
