"""Signed factorization: four unbounded coordinates against four bounded ones.

The unbounded side is a quadruple of distributions indexed by the Frobenius
eigenvalue pairs (alpha,alpha), (-alpha,-alpha), (alpha,-alpha),
(-alpha,alpha); the bounded side is a quadruple of Iwasawa-algebra elements
labeled plus / minus / dot (symmetric cross term) / circ (antisymmetric
cross term).  The 4x4 change of basis from :mod:`iwa.dieudonne` converts one
shape to the other up to the column of signed logarithms, and exact division
with certificates does the rest.

Two row conventions ship because the source statements order the plus and
minus rows differently and shift the logarithm indices by one twist in one
of the two displays; ``Convention`` makes the choice explicit instead of
baking one in.  Every operation takes the convention and defaults to
"theoremA"; the factorisation-lemma flavor is "lemmaFactorisation".

Three helpers carry the pipeline, each written once: ``_log_rows`` (each
row's signed log times its bounded element, for :func:`synthesize` and
:func:`local_coordinates`), ``_unbounded`` (M^-1 at the work window, for
:func:`synthesize` and :func:`unbounded_coordinates`) and ``_divide`` (exact
division by a log, a failure labelled with its row, for
:func:`factor_signed` and :func:`coleman_extract`).

The mock global module is the smallest structure on which the rank-reduction
projectors and the doubly-signed pairings have their expected shape: a free
rank-2 module whose basis vectors carry prescribed local coordinates that
are log-multiples of user-chosen bounded seeds.  On it, every divisibility
the factorization relies on holds *by construction*, so round trips are
exact and sign swaps negate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .dieudonne import change_of_basis
from .distributions import Distribution, divide_exact
from .pollack import LogKind, ceil_log, pollack_log
from .scalars import Precision, _check_int
from .series import DivisibilityError, IwasawaElement, Series, combine

__all__ = [
    "Convention",
    "CONVENTIONS",
    "UnboundedQuadruple",
    "SignedQuadruple",
    "MockGlobalModule",
    "factor_signed",
    "factor_report",
    "synthesize",
    "coleman_extract",
    "local_coordinates",
    "unbounded_coordinates",
    "pr_rank_reduce",
    "doubly_signed_pair",
]

SIGNS = ("plus", "minus", "dot", "circ")
EIGEN_SLOTS = ("aa", "mm", "am", "ma")
# the order of a local 4-vector's entries, and of a mock module's seeds
SLOTS = ("circ", "dot", "plus", "minus")


@dataclass(frozen=True)
class Convention:
    """Row bookkeeping: which signed component sits in which row of M*q.

    ``row_signs`` orders the rows; ``shift`` is the twist shift applied to
    every logarithm in the column (1 for the main-theorem display, 0 for the
    factorisation lemma).
    """

    name: str
    row_signs: tuple[str, str, str, str]
    shift: int

    def log_kind(self, sign: str, k: int) -> LogKind:
        if sign in ("plus", "minus"):
            return LogKind(sign, 2 * k + 2, shift=self.shift)
        return LogKind("full", k + 1, shift=self.shift)

    def rows_from_slots(self, slots):
        """Reorder a SLOTS-ordered 4-vector into row order."""
        by_sign = dict(zip(SLOTS, slots))
        return tuple(by_sign[s] for s in self.row_signs)

    def slots_from_rows(self, rows):
        by_sign = dict(zip(self.row_signs, rows))
        return tuple(by_sign[s] for s in SLOTS)


CONVENTIONS = {
    "theoremA": Convention("theoremA", ("plus", "minus", "dot", "circ"), 1),
    "lemmaFactorisation": Convention(
        "lemmaFactorisation", ("minus", "plus", "dot", "circ"), 0
    ),
}


def _conv(convention) -> Convention:
    if isinstance(convention, Convention):
        return convention
    try:
        return CONVENTIONS[convention]
    except KeyError:
        raise ValueError(
            f"unknown convention {convention!r}; choices: {sorted(CONVENTIONS)}"
        ) from None


@dataclass(frozen=True)
class UnboundedQuadruple:
    """Coordinates in the eigenvalue-pair basis, growth order up to k+1."""

    L_aa: Distribution
    L_mm: Distribution
    L_am: Distribution
    L_ma: Distribution

    def __post_init__(self):
        precs = {d.prec for d in self.vector()}
        if len(precs) != 1:
            raise ValueError("coordinates must share one precision window")

    def vector(self) -> tuple[Distribution, ...]:
        return (self.L_aa, self.L_mm, self.L_am, self.L_ma)

    @property
    def prec(self) -> Precision:
        return self.L_aa.prec


@dataclass(frozen=True)
class SignedQuadruple:
    """The bounded side of the factorization."""

    bf_plus: IwasawaElement
    bf_minus: IwasawaElement
    bf_dot: IwasawaElement
    bf_circ: IwasawaElement

    def by_sign(self, sign: str) -> IwasawaElement:
        return getattr(self, f"bf_{sign}")

    def vector(self) -> tuple[IwasawaElement, ...]:
        return (self.bf_plus, self.bf_minus, self.bf_dot, self.bf_circ)

    @property
    def prec(self) -> Precision:
        return self.bf_plus.prec


# -- logarithm column ------------------------------------------------------


@lru_cache(maxsize=64)
def _log(kind: str, r: int, shift: int, prec: Precision) -> Distribution:
    return pollack_log(LogKind(kind, r, shift=shift), prec)


def _log_margin(k: int, prec: Precision) -> int:
    # enough headroom that dividing by the signed logs (built with their own
    # truncation-tail caps) still leaves p_prec trusted digits
    return (2 * k + 2) * (1 + ceil_log(max(prec.x_prec, 2), prec.p)) + 8


def _work_prec(k: int, prec: Precision) -> Precision:
    """The elevated window the log column is built in; lossless to enter."""
    return prec.with_p_prec(prec.p_prec + _log_margin(k, prec))


def _log_column(k: int, conv: Convention, prec: Precision):
    work = _work_prec(k, prec)
    out = []
    for sign in conv.row_signs:
        lk = conv.log_kind(sign, k)
        out.append(_log(lk.kind, lk.r, lk.shift, work))
    return tuple(out)


def _log_rows(k: int, conv: Convention, prec: Precision, bounded):
    """Each row's signed log times its bounded element, at the work window.

    ``bounded(sign)`` is the element of that row at ``prec``; the rows come
    in ``conv``'s order, with the order tag of their logs.
    """
    logs = _log_column(k, conv, prec)
    work_p = logs[0].prec.p_prec
    return tuple(
        log * Distribution(bounded(sign).with_p_prec(work_p), Fraction(0))
        for sign, log in zip(conv.row_signs, logs)
    )


def _unbounded(rows, k: int, eps_seed: int, prec: Precision) -> UnboundedQuadruple:
    """M^{-1} of a 4-vector in row order, at the work window, read at ``prec``."""
    work = _work_prec(k, prec)
    _, M_inv = change_of_basis(work, k, eps_seed)
    vec = _mat_apply(M_inv, tuple(d.with_p_prec(work.p_prec) for d in rows))
    return UnboundedQuadruple(*(d.with_p_prec(prec.p_prec) for d in vec))


def _divide(row: Distribution, log: Distribution, label: str, p_prec: int) -> IwasawaElement:
    """row / log at the log's window, read at ``p_prec``.

    A DivisibilityError names the row by ``label``.
    """
    try:
        quotient = divide_exact(row.with_p_prec(log.prec.p_prec), log)
    except DivisibilityError as e:
        e.row = label
        raise
    return quotient.body.with_p_prec(p_prec)


def _detect_form(q: UnboundedQuadruple):
    for d in q.vector():
        for comp in d.body.components:
            if comp.form is not None:
                return comp.form
    return None


def _mat_apply(M, vec):
    """M (over E) applied to a 4-vector of distributions.

    Row i is sum_j M[i][j] * vec[j], tagged with the largest order among
    vec: M's entries are read as Series constants once per call, and each
    row is one series.combine per distinct tuple of tame components, so
    components shared across slots (the zero quadruple's, say) share their
    result.  It equals the fold of Distribution.scale and + cell for cell.
    M is change_of_basis's, built once per (window, k, eps).
    """
    bodies = [d.body for d in vec]
    for body in bodies[1:]:
        bodies[0]._check_compat(body)
    prec = bodies[0].prec
    tag = max(d.order_tag for d in vec)
    out = []
    for row in M:
        consts = [Series.constant(s, prec) for s in row]
        memo: dict = {}
        comps = []
        for xs in zip(*(body.components for body in bodies)):
            key = tuple(map(id, xs))
            if key not in memo:
                memo[key] = combine(zip(xs, consts))
            comps.append(memo[key])
        out.append(Distribution(IwasawaElement(prec, comps), tag))
    return tuple(out)


# -- factorization ---------------------------------------------------------


def _divisor_rows(q: UnboundedQuadruple, k: int, convention, eps_seed):
    """The set-up shared by :func:`factor_signed`, :func:`factor_report` and
    :func:`doubly_signed_pair`.

    Returns (convention, rows, logs): M*q in row order at the work precision
    and the column of signed logarithms each row is divided by.  A coordinate
    that claims growth beyond k+1 raises ValueError, as does a k that is not
    an integer >= 0.
    """
    _check_int(0, **{"weight parameter k": k})
    conv = _conv(convention)
    if eps_seed is None:
        form = _detect_form(q)
        eps_seed = form[1] if form is not None else 1
    for d in q.vector():
        if d.order_tag > k + 1:
            raise ValueError("coordinate claims growth beyond k+1")
    work = _work_prec(k, q.prec)
    M, _ = change_of_basis(work, k, eps_seed)
    rows = _mat_apply(M, tuple(d.with_p_prec(work.p_prec) for d in q.vector()))
    return conv, rows, _log_column(k, conv, q.prec)


def factor_signed(
    q: UnboundedQuadruple, k: int, convention="theoremA", eps_seed: int | None = None
) -> SignedQuadruple:
    """Divide M*q row-wise by the signed logarithm column.

    Divisibility is verified, never assumed: each row's division re-checks
    the divisor's cyclotomic certificates against the row first, and a
    failure raises DivisibilityError carrying the row label and the first
    offending coefficient degree.
    """
    conv, rows, logs = _divisor_rows(q, k, convention, eps_seed)
    out = {}
    for i, (sign, row, log) in enumerate(zip(conv.row_signs, rows, logs)):
        out[sign] = _divide(row, log, f"row {i + 1} ({sign})", q.prec.p_prec)
    return SignedQuadruple(out["plus"], out["minus"], out["dot"], out["circ"])


def factor_report(
    q: UnboundedQuadruple, k: int, convention="theoremA", eps_seed: int | None = None
) -> dict:
    """Attempt every row and report, instead of stopping at the first failure.

    Input that :func:`factor_signed` refuses before dividing (a coordinate
    claiming growth beyond k+1, a k that is not an integer >= 0) raises the
    same ValueError here.
    """
    conv, rows, logs = _divisor_rows(q, k, convention, eps_seed)
    report: dict = {"convention": conv.name, "k": k, "rows": []}
    for i, (sign, row, log) in enumerate(zip(conv.row_signs, rows, logs)):
        entry = {
            "row": i + 1,
            "sign": sign,
            "log": {"kind": log.meta["kind"], "r": conv.log_kind(sign, k).r,
                    "shift": conv.shift},
        }
        try:
            divide_exact(row, log)
            entry["ok"] = True
        except DivisibilityError as e:
            entry["ok"] = False
            entry["failure"] = e.payload()
        report["rows"].append(entry)
    report["ok"] = all(r["ok"] for r in report["rows"])
    return report


def synthesize(
    s: SignedQuadruple, k: int, convention="theoremA", eps_seed: int = 1
) -> UnboundedQuadruple:
    """Inverse direction: multiply by the log column, then by M^{-1}.

    The output coordinates carry order tag k+1 (the order of the logs).
    """
    _check_int(0, **{"weight parameter k": k})
    conv = _conv(convention)
    return _unbounded(_log_rows(k, conv, s.prec, s.by_sign), k, eps_seed, s.prec)


# -- mock global module ----------------------------------------------------


@dataclass(frozen=True)
class MockGlobalModule:
    """Rank-2 module with prescribed local coordinates on the basis.

    ``seeds[i]`` is the (circ, dot, plus, minus) tuple of bounded elements
    attached to basis vector Y_{i+1}; the local image of Y_{i+1} is the
    slot-wise log-multiple, so every later divisibility holds by design.
    """

    k: int
    seeds: tuple[tuple[IwasawaElement, ...], tuple[IwasawaElement, ...]]
    convention: str = "theoremA"

    def __post_init__(self):
        _check_int(0, **{"weight parameter k": self.k})
        _conv(self.convention)
        if len(self.seeds) != 2 or any(len(s) != 4 for s in self.seeds):
            raise ValueError("need a (circ, dot, plus, minus) seed tuple per basis vector")

    @property
    def prec(self) -> Precision:
        return self.seeds[0][0].prec

    def seed(self, basis_index: int, sign: str) -> IwasawaElement:
        return self.seeds[basis_index][SLOTS.index(sign)]


def local_coordinates(G: MockGlobalModule, elem) -> tuple[Distribution, ...]:
    """Local image of c1*Y1 + c2*Y2 in the (circ, dot, plus, minus) slots.

    ``elem`` is a pair of coefficients; plain integers 0/1 work for basis
    vectors, otherwise Distributions (or bounded elements) are expected.
    """
    conv = _conv(G.convention)
    work_p = _work_prec(G.k, G.prec).p_prec
    images = [conv.slots_from_rows(_log_rows(G.k, conv, G.prec, partial(G.seed, i)))
              for i in range(len(elem))]
    out = []
    for slot in range(4):
        acc = None
        for c, image in zip(elem, images):
            term = image[slot]
            if isinstance(c, int):
                if c == 0:
                    continue
                term = term.scale(c)
            elif isinstance(c, Distribution):
                term = term * c.with_p_prec(work_p)
            else:
                term = term * Distribution(c.with_p_prec(work_p), Fraction(0))
            acc = term if acc is None else acc + term
        if acc is None:
            acc = Distribution(IwasawaElement.zero(G.prec), Fraction(0))
        out.append(acc.with_p_prec(G.prec.p_prec))
    return tuple(out)


def unbounded_coordinates(
    G: MockGlobalModule, elem, eps_seed: int = 1
) -> UnboundedQuadruple:
    """The eigenvalue-pair coordinates of an element: M^{-1} of its rows."""
    rows = _conv(G.convention).rows_from_slots(local_coordinates(G, elem))
    return _unbounded(rows, G.k, eps_seed, G.prec)


def coleman_extract(local, sign: str, k: int, convention="theoremA") -> IwasawaElement:
    """Divide the chosen local slot by its logarithm.

    ``local`` is a (circ, dot, plus, minus) 4-vector of distributions; the
    antisymmetric slot has no Coleman map.
    """
    _check_int(0, **{"weight parameter k": k})
    if sign == "circ":
        raise ValueError("the antisymmetric slot has no Coleman map")
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS[:3]}")
    lk = _conv(convention).log_kind(sign, k)
    target = local[SLOTS.index(sign)]
    log = _log(lk.kind, lk.r, lk.shift, _work_prec(k, target.prec))
    return _divide(target, log, sign, target.prec.p_prec)


def pr_rank_reduce(G: MockGlobalModule, lam_mu: str, eps_seed: int = 1):
    """The rank-reduction projector: L(Y1) Y2 - L(Y2) Y1 in one coordinate.

    ``lam_mu`` picks the eigenvalue pair: one of "aa", "mm", "am", "ma".
    Returns the coefficient pair (on Y1, on Y2).
    """
    if lam_mu not in EIGEN_SLOTS:
        raise ValueError(f"lam_mu must be one of {EIGEN_SLOTS}")
    idx = EIGEN_SLOTS.index(lam_mu)
    L1 = unbounded_coordinates(G, (1, 0), eps_seed).vector()[idx]
    L2 = unbounded_coordinates(G, (0, 1), eps_seed).vector()[idx]
    return (L2.scale(-1), L1)


def doubly_signed_pair(G: MockGlobalModule, signs: tuple[str, str], eps_seed: int = 1):
    """Col^{first} of the local image of BF^{second}, both built from G.

    The result is antisymmetric under swapping the two signs: it is the
    2x2 determinant of the seeds in those two slots.  Of each factorization
    only the second sign's row is divided.
    """
    club, spade = signs
    allowed = {"plus", "minus", "dot"}
    if club not in allowed or spade not in allowed or club == spade:
        raise ValueError("signs must be an ordered pair of distinct plus/minus/dot")

    def spade_quotient(elem):  # factor_signed's spade row alone
        q = unbounded_coordinates(G, elem, eps_seed)
        conv, rows, logs = _divisor_rows(q, G.k, G.convention, eps_seed)
        i = conv.row_signs.index(spade)
        return _divide(rows[i], logs[i], f"row {i + 1} ({spade})", q.prec.p_prec)

    b1, b2 = spade_quotient((1, 0)), spade_quotient((0, 1))  # BF^spade = b(Y1) Y2 - b(Y2) Y1
    loc = local_coordinates(G, (b2.scale(-1), b1))
    return coleman_extract(loc, club, G.k, G.convention)
