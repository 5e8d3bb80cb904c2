"""Tests of the benchmark itself, on shrunken inputs.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from esquad import cli  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def _shrunk_verify(seed, tmp):
    inputs = workloads.setup_verify(seed, tmp, n_mc=1000, budget=300)
    return workloads.check_verify(inputs, workloads.call_verify(inputs))


def _shrunk_rate(seed, tmp):
    inputs = workloads.setup_rate(seed, tmp, budget=400, trials=2)
    return workloads.check_rate(inputs, workloads.call_rate(inputs))


def test_every_span_records_calls(tracer, tmp_path):
    check = _shrunk_verify(3, tmp_path)
    assert check.failed == 0, check.notes
    _shrunk_rate(3, tmp_path)
    silent = [name for name, s in tracer.spans.items() if s.calls == 0]
    assert not silent, f"spans that recorded no call: {silent}"
    assert tracer.root_s > 0.0


def test_every_per_layer_metric_is_computed(tracer, tmp_path):
    """A misspelt metric would otherwise read 0 on every workload."""
    inputs = workloads.setup_verify(3, tmp_path, n_mc=1000, budget=300)
    check = workloads.check_verify(inputs, workloads.call_verify(inputs))
    rep = {"wall_s": 1.0, "counts": check.counts, **tracer.summary()}
    computed = set(run.layer_values(rep, 1.0)) | {"process.peak_rss_mb"}
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in computed]
    assert not missing


def test_by_value_bindings_are_traced(tracer, tmp_path):
    """Names imported by value must reach the wrapper, or their metric reads
    zero without any error."""
    originals = {id(fn.__wrapped__) for _, _, fn in _wrapped(tracer)}
    for name, module in list(sys.modules.items()):
        if name == "esquad" or name.startswith("esquad."):
            for key, value in vars(module).items():
                assert id(value) not in originals, f"{name}.{key} is not traced"
    out = tmp_path / "trace.csv"
    argv_run = ["run", "--d", "8", "--spectrum", "sphere", "--alpha-up", "1.1",
                "--alpha-down", "0.95", "--budget", "20", "--out", str(out)]
    argv_bounds = ["bounds", "--d", "8", "--spectrum", "sphere",
                   "--alpha-up", "1.1", "--alpha-down", "0.95"]
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv_run) == 0
        cli.main(argv_bounds)
    assert tracer.spans["es_core.run"].calls == 1
    assert tracer.spans["es_core.RunTrace.write_csv"].calls == 1
    assert tracer.spans["bounds.constants"].calls == 1


def _wrapped(tracer):
    for _, module, path, _ in tracing.SPANS:
        owner = sys.modules[module]
        for part in path.split("."):
            owner = getattr(owner, part)
        yield module, path, owner


def test_uninstall_restores_originals(tmp_path):
    t = tracing.Tracer()
    t.install()
    assert all(hasattr(fn, "__wrapped__") for *_, fn in _wrapped(t))
    t.uninstall()
    assert not any(hasattr(fn, "__wrapped__") for *_, fn in _wrapped(t))


def test_traced_counts_repeat_and_outputs_match(tmp_path):
    runs = []
    for _ in range(2):
        t = tracing.Tracer()
        t.install()
        try:
            check = _shrunk_rate(5, tmp_path)
        finally:
            t.uninstall()
        counts = {(n, k): v for n, s in t.spans.items() for k, v in s.counts.items()}
        counts.update({(n, "calls"): s.calls for n, s in t.spans.items()})
        runs.append((check.digest, counts))
    assert runs[0] == runs[1]
    assert runs[0][0] == _shrunk_rate(5, tmp_path).digest  # tracing changes nothing


def test_checks_count_bad_outputs(tmp_path):
    inputs = workloads.setup_rate(1, tmp_path, budget=400, trials=2)
    rows = workloads.call_rate(inputs)
    assert workloads.check_rate(inputs, rows).failed == 0
    rows[0] = dict(rows[0], a_hat=None)
    rows[1] = dict(rows[1], a_hat=-1.0)
    rows[2] = dict(rows[2], error="NumericalFailure: boom")
    rows[3] = dict(rows[3], a_hat=10.0, ci_high=10.01)  # above cond/(2(d-3))
    assert workloads.check_rate(inputs, rows).failed == 4
