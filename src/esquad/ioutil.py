"""Small I/O helpers: atomic writes and deterministic JSON."""

from __future__ import annotations

import json
import math
import os
import tempfile


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file in the same directory plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite(obj):
    """obj with every non-finite float, also in nested dicts and lists, as None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def dump_json(obj) -> str:
    """Deterministic, strictly valid JSON text: sorted keys, LF endings,
    trailing newline, and null for a NaN or infinite float (so NaN, +inf and
    -inf read alike, and alike with None; callers that must tell them apart
    keep the value elsewhere, as ``CheckResult.to_json`` does in its note)."""
    return json.dumps(_finite(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
