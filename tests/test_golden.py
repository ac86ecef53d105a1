"""The library's outputs against their golden digests in ``tests/golden.json``.

A pure-speed or simplicity change leaves every digest as it is.
``tests/write_golden.py`` says what each digest covers and how to
regenerate the file.
"""

from __future__ import annotations

import json

from write_golden import GOLDEN, compute


def test_outputs_match_their_golden_digests():
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(want)
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"{len(moved)} digests moved: {moved[:10]}"
