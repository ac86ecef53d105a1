"""Golden SHA-256 digests of the ``pollack`` outputs, and the script that writes them.

Each case is one call, ``pollack_log`` or ``log_identity_check``, hashed over
a canonical JSON form of everything it returns:

* a log: every tame component's parts as (off, cells, abs_precs), its
  polynomial flag, the order tag, the cyclotomic factors, the truncation
  level and the meta dict;
* an identity check: its report dict.

Keys are sorted and infinite precisions are written ``"inf"``.
``tests/test_golden.py`` recomputes every digest and compares it with
``tests/golden.json``.  A change that alters outputs on purpose rewrites the
file and names, in CHANGES.md, every digest that moved and why::

    PYTHONPATH=src python tests/write_golden.py

Standard library only, besides ``iwa`` itself.
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from math import inf
from pathlib import Path

from iwa.pollack import LogKind, log_identity_check, pollack_log
from iwa.scalars import Precision

GOLDEN = Path(__file__).with_name("golden.json")

# (p, M, N): the log-identity bench cases' work windows, one window at
# p = 3 and p = 11 each, and windows too small for any factor
LOG_WINDOWS = (
    (5, 58, 64),
    (5, 46, 160),
    (7, 42, 64),
    (5, 42, 64),
    (3, 20, 40),
    (11, 10, 150),
    (5, 20, 2),
    (5, 5, 1),
    (3, 4, 3),
)
KINDS = ("plus", "minus", "full")
RS = (1, 2, 4)
SHIFTS = (0, 1)
# (p, r, M, N): the four log-identity bench cases, then the other primes
IDENTITY_CASES = (
    (5, 4, 20, 64),
    (5, 2, 20, 160),
    (7, 2, 20, 64),
    (5, 2, 20, 64),
    (3, 1, 12, 20),
    (3, 2, 10, 40),
    (11, 1, 8, 30),
    (7, 4, 6, 16),
)


def cases():
    """Every case name with the call that computes its output."""
    for p, M, N in LOG_WINDOWS:
        for kind in KINDS:
            for r in RS:
                for shift in SHIFTS:
                    spec = LogKind(kind, r, shift)
                    yield (
                        f"pollack_log/{kind}/r{r}/s{shift}/p{p}/M{M}/N{N}",
                        lambda spec=spec, prec=Precision(p, M, N): pollack_log(spec, prec),
                    )
    for p, r, M, N in IDENTITY_CASES:
        yield (
            f"log_identity_check/p{p}/r{r}/M{M}/N{N}",
            lambda p=p, r=r, prec=Precision(p, M, N): log_identity_check(p, r, prec),
        )


def _canonical(obj):
    if isinstance(obj, dict):
        return obj
    body = obj.body
    return {
        "components": [
            {
                "parts": [
                    [part.off, part.cells, ["inf" if A == inf else A for A in part.abs_precs]]
                    for part in series._parts()
                ],
                "is_polynomial": series.is_polynomial,
            }
            for series in body.components
        ],
        "order_tag": str(obj.order_tag),
        "cyclo_factors": obj.cyclo_factors,
        "truncation_level": obj.truncation_level,
        "meta": obj.meta,
    }


def digest(obj) -> str:
    """The SHA-256 of a log's or a report's canonical JSON form."""
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict[str, str]:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "window too small")
        return {name: digest(call()) for name, call in cases()}


def main() -> int:
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
