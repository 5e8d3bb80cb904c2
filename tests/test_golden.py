"""The pinned output bytes of ``tests/golden.json`` (its writer,
``tests/golden.py``, says which outputs are in and why the others are out)."""

import json

import esquad as eq
from golden import GOLDEN, digests


def test_no_pinned_output_moved():
    """Each pinned output hashes to its digest in the file.  An output that
    moves without a ``VERSION`` bump is a finding, not a reason to rewrite
    the file; a bump rewrites it in the same change."""
    golden = json.loads(GOLDEN.read_text())
    now = digests()
    moved = sorted(name for name in golden["sha256"] if now.get(name) != golden["sha256"][name])
    if golden["version"] == eq.VERSION:
        why = f"VERSION is still {eq.VERSION}: these bytes may move only with a bump"
    else:
        why = f"the file is stale: it pins VERSION {golden['version']}, not {eq.VERSION}"
    assert not moved, f"{len(moved)} pinned outputs moved: {moved}; {why}"
    assert sorted(now) == sorted(golden["sha256"]), "the outputs differ from the file's list"
    assert golden["generator_id"] == eq.GENERATOR_ID
