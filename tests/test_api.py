"""The package's public API: ``esquad.__all__`` is the list in its docstring,
and the names it does not export are imported from their modules."""

import importlib
import re

import pytest

import esquad as eq

# module -> names it holds that the package does not export
MODULE_ONLY = {
    "bounds": ["b_high", "b_low", "exp_moment_bound", "normal_quantile", "q_h",
               "quality_gain_bound", "success_prob_sandwich", "trace_condition",
               "trace_condition_threshold"],
    "es_core": ["BrokenProcessPool", "StepOutcome", "draw_block", "step"],
    "experiments": ["default_sigma0"],
    "montecarlo": ["McEstimate", "estimate_drift_V", "estimate_exp_abs",
                   "estimate_log_progress", "estimate_success_prob"],
    "potential": ["RegimeLabel", "classify", "drift_target", "potential_step_cap",
                  "potential_step_floor"],
    "stochastic": ["normal_matrix", "normal_vector", "random_rotation"],
}


def docstring_names():
    """The names of the docstring's ``* group: name, name, ...`` list."""
    listing = eq.__doc__.split("(``__all__``)", 1)[1]
    groups = re.findall(r"^\* \w+: (.+(?:\n  .+)*)", listing, re.MULTILINE)
    return [name for group in groups for name in re.findall(r"\w+", group)]


def test_all_is_the_docstring_list():
    assert eq.__all__ == docstring_names()
    assert len(eq.__all__) == len(set(eq.__all__)) == 41


def test_every_exported_name_resolves():
    namespace = {}
    exec("from esquad import *", namespace)
    for name in eq.__all__:
        assert namespace[name] is getattr(eq, name)


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in MODULE_ONLY.items() for name in names])
def test_unexported_name_imports_from_its_module(module, name):
    assert hasattr(importlib.import_module(f"esquad.{module}"), name)
    assert not hasattr(eq, name)
