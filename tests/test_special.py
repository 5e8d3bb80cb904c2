"""``esquad._special``: the ndtr/ndtri ufuncs without scipy.special's init.

Each case runs in a fresh interpreter, because this test process has
imported ``scipy.special`` already and the module's load depends on what
``sys.modules`` holds when it runs.
"""

import textwrap

from conftest import run_python

# Imports whose cost esquad's import must not pay: ``scipy.special``'s
# package init (it pulls in ``numpy.f2py``), ``scipy.stats`` and
# ``scipy.integrate``.  Compiled scipy ufuncs come through esquad._special.
HEAVY_MODULES = ("scipy.special", "scipy.stats", "scipy.integrate", "numpy.f2py")


def run_child(code):
    assert run_python(textwrap.dedent(code)) == "ok"


def test_cli_import_skips_heavy_modules_and_leaves_scipy_special_importable():
    run_child(f"""
        import sys
        import numpy as np
        import esquad.cli
        from esquad import _special

        loaded = [m for m in {HEAVY_MODULES!r} if m in sys.modules]
        assert not loaded, loaded

        import scipy.special
        assert _special.ndtr is scipy.special.ndtr
        assert _special.ndtri is scipy.special.ndtri
        edges = np.array([0.0, 1.0, 0.5, 1e-300, 5e-324])
        rng = np.random.default_rng(5)
        u = np.concatenate([rng.random(10**6), edges])
        x = np.concatenate([rng.normal(scale=10.0, size=10**6), edges, -edges])
        assert np.array_equal(_special.ndtri(u), scipy.special.ndtri(u))
        assert np.array_equal(_special.ndtr(x), scipy.special.ndtr(x))
        print("ok")
    """)


def test_takes_public_functions_when_scipy_special_is_loaded():
    run_child("""
        import sys
        import scipy.special
        public = sys.modules["scipy.special"]
        from esquad import _special

        assert sys.modules["scipy.special"] is public
        assert _special.ndtr is public.ndtr and _special.ndtri is public.ndtri
        print("ok")
    """)


def test_failed_private_load_falls_back_and_leaves_no_stub():
    run_child("""
        import importlib.util
        import sys

        find_spec = importlib.util.find_spec
        failures = []

        def fail_once(name, *args, **kwargs):
            if name == "scipy.special._ufuncs" and not failures:
                failures.append(name)
                raise ImportError("forced")
            return find_spec(name, *args, **kwargs)

        importlib.util.find_spec = fail_once
        from esquad import _special
        importlib.util.find_spec = find_spec

        assert failures == ["scipy.special._ufuncs"]
        public = sys.modules["scipy.special"]
        assert public.__file__.endswith("__init__.py")
        assert hasattr(public, "logsumexp")
        assert _special.ndtr is public.ndtr and _special.ndtri is public.ndtri
        print("ok")
    """)
