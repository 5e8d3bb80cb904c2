"""The standard normal CDF and quantile: scipy.special's ``ndtr``/``ndtri``.

They are loaded from the compiled ``scipy.special._ufuncs`` under a bare
stand-in package, skipping ``scipy.special``'s init (its array-API backends
cost more than the rest of esquad's import), and every ``scipy.special*``
entry is then dropped from ``sys.modules``, so a later ``import
scipy.special`` runs the real init and hands out these same ufunc objects.
If ``scipy.special`` is already imported or the private load fails, they
come from the public package.  A thread importing ``scipy.special`` during
the private load would get the stand-in, so do not import both at once.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import types


def _load_ufuncs():
    import scipy

    package = types.ModuleType("scipy.special")
    package.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    sys.modules["scipy.special"] = package
    try:
        spec = importlib.util.find_spec("scipy.special._ufuncs")
        ufuncs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ufuncs)
        return ufuncs.ndtr, ufuncs.ndtri
    finally:
        for name in [n for n in sys.modules if n.split(".")[:2] == ["scipy", "special"]]:
            del sys.modules[name]


def _load():
    if "scipy.special" not in sys.modules:
        try:
            return _load_ufuncs()
        except Exception:  # whatever failed, the public package has the same ufuncs
            pass
    from scipy.special import ndtr, ndtri
    return ndtr, ndtri


ndtr, ndtri = _load()
