"""The benchmark's tracer wraps esquad functions by module and attribute
path (``bench/tracing.py``'s ``SPANS``), and its run counter calls
``RunTrace.accept_count``.  Renaming or deleting one of those breaks
``bench/run.py --trace 1``; this test fails first."""

import importlib.util
import sys
from pathlib import Path

import esquad as eq

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracer.install()  # looks up each span's target as bench/run.py does
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == len(tracing.SPANS)
    assert callable(eq.RunTrace.accept_count)
