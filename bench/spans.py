"""Timing spans and call counters installed around ``iwa``'s layer functions.

Nothing here changes the program: :class:`Tracer` swaps each layer function
for a wrapper at every place it is bound and puts the original back on
``uninstall``.  The modules import their collaborators with ``from .x import
f``, so patching only the defining module would miss most calls; instead
every ``iwa`` module is scanned for attributes that *are* the original
object, and methods are patched on their class (aliases such as
``__rmul__ = __mul__`` included).

A timed wrapper records one span per call: an id, the id of the enclosing
span (its parent), the metric prefix, start and end.  A counted wrapper only
bumps a counter; it is used where calls number in the millions (scalar
construction), so its cost is one dict update and the time stays with the
enclosing span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

import iwa._kernel as kernel
import iwa.dieudonne as dieudonne
import iwa.distributions as distributions
import iwa.lfunctions as lfunctions
import iwa.pollack as pollack
import iwa.scalars as scalars
import iwa.series as series
import iwa.signed as signed
from iwa.series import DivisibilityError


def _log_factors(args, result):
    # plus/minus logs report how many cyclotomic factors each twist multiplied
    # in; the full log is a product of classical log series and has none
    meta = result.meta or {}
    factors = sum(t["factors"] for t in meta.get("per_twist", ()))
    return {"kind": args[0].kind, "factors": factors}


def _polymul_bytes(args, result):
    # computed, not measured: the packed operands and product at the chunk
    # width polymul derives from the modulus and the shorter operand
    A, B, mod = args[0], args[1], args[2]
    if not A or not B or mod == 1:
        return {"bytes": 0}
    bound = (mod - 1) * (mod - 1) * min(len(A), len(B)) + 1
    cb = (bound.bit_length() + 7) // 8
    return {"bytes": 2 * cb * (len(A) + len(B))}


# (metric prefix, owner, attribute, annotate); owner is the defining module
# or the class of a method, annotate(args, result) adds details to the span
TIMED = (
    ("signed.synthesize", signed, "synthesize", None),
    ("signed.factor_signed", signed, "factor_signed", None),
    ("signed.factor_report", signed, "factor_report", None),
    ("dieudonne.change_of_basis", dieudonne, "change_of_basis", None),
    ("distributions.divide_exact", distributions, "divide_exact", None),
    ("series.divide_series", series, "divide_series", None),
    ("series.remainder_mod_cyclotomic", series.IwasawaElement,
     "remainder_mod_cyclotomic", None),
    ("series.Series.mul", series.Series, "__mul__", None),
    ("series.compose_affine", series.Series, "compose_affine", None),
    ("series.IwasawaElement.twist", series.IwasawaElement, "twist", None),
    ("pollack.log_identity_check", pollack, "log_identity_check", None),
    ("pollack.pollack_log", pollack, "pollack_log", _log_factors),
    ("kernel.polymul", kernel, "polymul", _polymul_bytes),
    ("kernel.polypow", kernel, "polypow", None),
    ("kernel.geometric_sum", kernel, "geometric_sum", None),
    ("lfunctions.kl_series_report", lfunctions, "kl_series_report", None),
    ("lfunctions.gen_bernoulli", lfunctions, "gen_bernoulli", None),
    ("lfunctions.smoothed_moment", lfunctions, "smoothed_moment", None),
)

# (counter name, owner, attribute): counted, never timed
COUNTED = (
    ("scalars.PadicScalar.new", scalars.PadicScalar, "__init__"),
    ("scalars.QuadExtScalar.new", scalars.QuadExtScalar, "__init__"),
    ("scalars.teichmuller.calls", scalars, "teichmuller"),
)


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    outermost: bool  # no enclosing span of the same name
    error: str | None  # class name of the exception that ended the call
    detail: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _binding_sites(owner, attr):
    """Every (namespace owner, attribute) currently bound to owner.attr."""
    target = owner.__dict__[attr]
    if isinstance(owner, type):
        return [(owner, a) for a, v in list(owner.__dict__.items()) if v is target]
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "iwa" or n.startswith("iwa."))]
    return [(m, a) for m in mods for a, v in list(vars(m).items()) if v is target]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._next = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span opened by the caller, e.g. around one benchmark op."""
        sid = self._open(name)
        start = perf_counter()
        try:
            yield
        except BaseException as e:
            self._close(sid, name, start, type(e).__name__, None)
            raise
        self._close(sid, name, start, None, None)

    def _open(self, name):
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        self._active[name] += 1
        return sid

    def _close(self, sid, name, start, error, detail, end=None):
        if end is None:
            end = perf_counter()
        self._stack.pop()
        self._active[name] -= 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(sid, parent, name, start, end, self._active[name] == 0, error, detail)
        )

    def _timed(self, name, fn, annotate):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer._close(sid, name, start, type(e).__name__, None)
                raise
            end = perf_counter()
            # annotations are computed after the clock stops
            detail = annotate(args, result) if annotate is not None else None
            tracer._close(sid, name, start, None, detail, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        plan = [(owner, attr, self._timed(name, owner.__dict__[attr], ann))
                for name, owner, attr, ann in TIMED]
        plan += [(owner, attr, self._counted(name, owner.__dict__[attr]))
                 for name, owner, attr in COUNTED]
        for owner, attr, wrapper in plan:
            for site, site_attr in _binding_sites(owner, attr):
                self._saved.append((site, site_attr, getattr(site, site_attr)))
                setattr(site, site_attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back; raise if any binding did not come back."""
        saved, self._saved = self._saved, []
        for site, attr, original in reversed(saved):
            setattr(site, attr, original)
        for site, attr, original in saved:
            if getattr(site, attr) is not original:
                raise RuntimeError(f"{site!r}.{attr} was not restored")

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Flat ``<prefix>.<stat>`` totals over everything recorded.

        Stats: calls, total_s (outermost calls only, so recursion is not
        counted twice), self_s (duration minus the direct children), rejects
        (calls that raised DivisibilityError), and for pollack_log the
        per-kind total and the cyclotomic factor count, for polymul the
        computed bytes.  Counters are reported as recorded.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds

        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += s.seconds - child[s.sid]
            if s.outermost:
                out[f"{s.name}.total_s"] += s.seconds
            if s.error == DivisibilityError.__name__:
                out[f"{s.name}.rejects"] += 1
            if s.detail:
                if "kind" in s.detail and s.outermost:
                    out[f"{s.name}.{s.detail['kind']}.total_s"] += s.seconds
                if "factors" in s.detail:
                    out["pollack.factors"] += s.detail["factors"]
                if "bytes" in s.detail:
                    out[f"{s.name}.bytes"] += s.detail["bytes"]
        out.update(self.counts)
        return dict(out)
