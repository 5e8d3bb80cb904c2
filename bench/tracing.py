"""Outside-in span tracing of esquad's layers, installed from the benchmark.

Each named span wraps one public function or method of a layer.  The wrapper
is bound everywhere the original is reachable: a module-level function is
replaced in every loaded ``esquad`` module that holds it, so names imported
by value (``normal_matrix`` in ``es_core`` and ``montecarlo``, ``run`` in
``experiments`` and ``cli``, ``constants`` as ``theory_constants``) are
traced too.  Methods are replaced on their class.

Spans are aggregated in memory per name: calls, total time, self time (the
span's duration minus the time covered by its direct child spans) and the
work counters the span's counter function extracts from the call.  The
program's own code is untouched.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Optional


def _rows(args, kwargs, out):
    return {"rows": len(out)}


def _variates(args, kwargs, out):
    return {"variates": out.size}


def _run_steps(args, kwargs, out):
    return {"steps": len(out) - 1, "accepted": out.accept_count()}


def _mc_samples(args, kwargs, out):
    est = out[0] if isinstance(out, tuple) else out
    return {"samples": est.n}


# (span name, module, attribute path, counter function or None)
SPANS = (
    ("stochastic.normal_matrix", "esquad.stochastic", "normal_matrix", _variates),
    ("quadratic.core_centered_batch", "esquad.quadratic",
     "QuadraticProblem.core_centered_batch", _rows),
    ("quadratic.core_centered", "esquad.quadratic",
     "QuadraticProblem.core_centered", None),
    ("quadratic.log_core_centered", "esquad.quadratic",
     "QuadraticProblem.log_core_centered", None),
    ("es_core.run", "esquad.es_core", "run", _run_steps),
    ("es_core.RunTrace.write_csv", "esquad.es_core", "RunTrace.write_csv", None),
    ("montecarlo.estimate_success_prob", "esquad.montecarlo",
     "estimate_success_prob", _mc_samples),
    ("montecarlo.estimate_log_progress", "esquad.montecarlo",
     "estimate_log_progress", _mc_samples),
    ("montecarlo.estimate_exp_abs", "esquad.montecarlo", "estimate_exp_abs",
     _mc_samples),
    ("montecarlo.estimate_drift_V", "esquad.montecarlo", "estimate_drift_V",
     _mc_samples),
    ("potential.potential_from_logs", "esquad.potential", "potential_from_logs",
     None),
    ("bounds.constants", "esquad.bounds", "constants", None),
    ("bounds.b_high", "esquad.bounds", "b_high", None),
    ("bounds.b_low", "esquad.bounds", "b_low", None),
    ("bounds.q_h", "esquad.bounds", "q_h", None),
    ("experiments.measure_rate", "esquad.experiments", "measure_rate", None),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)


class Tracer:
    """Aggregated span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: Dict[str, SpanStats] = {name: SpanStats() for name, *_ in SPANS}
        self.root_s = 0.0  # time covered by spans that have no parent span
        self._open = []  # child time accumulated by each open span
        self._restore = []

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        stats = self.spans[name]
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                open_spans.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child[0]
                if open_spans:
                    open_spans[-1][0] += dt
                else:
                    self.root_s += dt
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    stats.counts[key] = stats.counts.get(key, 0) + int(value)
            return out

        return traced

    def install(self) -> None:
        """Bind a traced wrapper to every reference of each span's target."""
        for name, module, path, counter in SPANS:
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            traced = self.wrap(name, original, counter)
            if cls_path:
                self._patch(owner, attr, original, traced)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "esquad" and not mod_name.startswith("esquad."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, traced)

    def _patch(self, owner, attr, original, traced) -> None:
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def summary(self) -> dict:
        """JSON-ready spans and the time covered by top-level spans."""
        return {
            "root_s": self.root_s,
            "spans": {name: {"calls": s.calls, "total_s": s.total_s,
                             "self_s": s.self_s, "counts": dict(s.counts)}
                      for name, s in self.spans.items()},
        }

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
