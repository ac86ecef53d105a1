"""The argument contract of the public surface, swept from one table.

``CONTRACT`` lists every name that a module's ``__all__`` or
``iwa/__init__.py`` exports, and a few entry points reached through an
exported class (constructors and integer-indexed methods).  A callable's row
gives valid arguments and the kind of each argument the sweep varies; the
kinds are the package's integer data (weights, twists, levels, indices,
digit counts, seeds), primes, precision windows, named choices and
iterables of integers.  Scalars, series, elements, characters and records
are held at their valid values.  A name that is not a callable, or a record
whose fields nothing downstream reads unchecked, has a row saying why it is
not swept.

Each callable is called once with its valid arguments, which must return,
and once per invalid value of each varied argument: a bool, a float, a
Fraction, a string, a number below the least the argument allows, or a
``Precision`` over another prime.  Such a call must raise ValueError,
PrecisionError, DivisibilityError or ExactZeroError (never TypeError,
AttributeError, ZeroDivisionError, IndexError or KeyError) with a message
naming the argument.  A refusal of the integer check itself must read, in
full, as ``iwa.scalars`` states the contract:

    <name> must be an integer, not <value!r>
    <name> must be an integer >= <least>, not <value!r>
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import pytest

import iwa
import iwa.dieudonne
import iwa.distributions
import iwa.lfunctions
import iwa.pollack
import iwa.signed
from iwa import (
    DivisibilityError,
    ExactZeroError,
    IwasawaElement,
    PadicScalar,
    Precision,
    PrecisionError,
    QuadExtScalar,
    Series,
)
from iwa.distributions import Distribution
from iwa.lfunctions import DirichletCharacter
from iwa.signed import MockGlobalModule, SignedQuadruple

ALLOWED = (ValueError, PrecisionError, DivisibilityError, ExactZeroError)
FORBIDDEN = (TypeError, AttributeError, ZeroDivisionError, IndexError, KeyError)

# small windows: each valid call stays a few milliseconds
P = Precision(5, 6, 8)
P7 = Precision(7, 6, 8)

# -------------------------------------------------------------- arg kinds


class Kind:
    """How an argument is varied: ``invalid()`` lists the values tried,
    ``message`` gives the whole refusal when the integer check makes it (None
    when a domain check of the argument's own does), and ``names`` tells
    whether a message names the argument, by ``label`` or its parameter."""

    label = None

    def message(self, label, value):
        return None

    def names(self, label, message):
        return re.search(rf"(?<!\w){re.escape(label)}(?!\w)", message)


@dataclass(frozen=True)
class Int(Kind):
    """An integer argument; ``least`` is the smallest value it allows."""

    least: int | None = None
    label: str | None = None

    def invalid(self):
        below = [] if self.least is None else [self.least - 1]
        return [True, 1.5, Fraction(1, 2), "1"] + below

    def message(self, label, value):
        at_least = "" if self.least is None else f" >= {self.least}"
        return f"{label} must be an integer{at_least}, not {value!r}"


@dataclass(frozen=True)
class Prime(Kind):
    """p: a non-int refused by the integer check, a negative by the primality
    test; with ``exact`` False p is matched against a window, whose refusal
    words every case."""

    exact: bool = True

    def invalid(self):
        return [True, 1.5, Fraction(1, 2), "5", -5]

    def message(self, label, value):
        if self.exact and value != -5:
            return Int().message(label, value)
        return None


@dataclass(frozen=True)
class Loose(Kind):
    """An argument refused by a domain check of its own."""

    values: tuple = (True, 1.5, Fraction(1, 2), "1", -1)

    def invalid(self):
        return list(self.values)


@dataclass(frozen=True)
class Ints(Kind):
    """An iterable of integers: each invalid value goes in as a one-item list."""

    label: str | None = None
    exact: bool = True

    def invalid(self):
        return [[v] for v in (True, 1.5, Fraction(1, 2), "1")]

    def message(self, label, value):
        return Int().message(label, value[0]) if self.exact else None


class Window(Kind):
    """A Precision whose prime must match another argument's: one over 7 is
    refused, by a message about the window or the prime."""

    def invalid(self):
        return [P7]

    def names(self, label, message):
        return re.search(r"\bprec\b|window|prime|over p = 7", message)


INT = Int()
DIGITS = Int(0, "rel")
WEIGHT = Int(0, "weight parameter k")
# a form's unit seed is checked where it enters QuadExtScalar, under that name
SEED = Int(label="eps_seed")
CHOICE = Loose(("bogus",))


@dataclass
class Row:
    """A callable, its valid arguments, and the kinds of those the sweep varies."""

    call: Callable
    args: Callable[[], dict]
    kinds: dict = field(default_factory=dict)


@dataclass
class NotSwept:
    why: str


# -------------------------------------------------------------- fixtures


@lru_cache(maxsize=None)
def chi():
    return DirichletCharacter.trivial(5)


@lru_cache(maxsize=None)
def one():
    return IwasawaElement.one(P)


@lru_cache(maxsize=None)
def form():
    return iwa.dieudonne.dcris_of_form(5, 1, 1, P)


@lru_cache(maxsize=None)
def signed():
    x = Series.make(P, [0, 1], is_polynomial=True)
    e = IwasawaElement(P, [x, one().components[0], x, x])
    return SignedQuadruple(e, one(), e, one())


@lru_cache(maxsize=None)
def unbounded():
    return iwa.signed.synthesize(signed(), 0)


@lru_cache(maxsize=None)
def mock():
    return MockGlobalModule(0, ((one(),) * 4, (one(),) * 4))


@lru_cache(maxsize=None)
def local():
    return iwa.signed.local_coordinates(mock(), (1, 0))


def dist():
    return Distribution(one())


# ------------------------------------------------------------------ table

RECORD = "a frozen record: its builders are swept, and its int fields feed checked calls"

CONTRACT = {
    # -- exceptions and constants
    "ExactZeroError": NotSwept("an exception class"),
    "PrecisionError": NotSwept("an exception class"),
    "DivisibilityError": NotSwept("an exception class"),
    "CONVENTIONS": NotSwept("a dict of the two Conventions, not a callable"),
    # -- scalars
    "Precision": Row(Precision, lambda: dict(p=5, p_prec=6, x_prec=8),
                     {"p": Prime(), "p_prec": Int(1), "x_prec": Int(1)}),
    "PadicScalar": NotSwept(
        "the raw constructor takes checked (val, unit, rel) data on the hot "
        "path; its classmethods below are the entry points"),
    "PadicScalar.from_int": Row(PadicScalar.from_int, lambda: dict(n=3, prec=P),
                                {"n": INT, "rel": DIGITS}),
    "PadicScalar.from_fraction": Row(
        PadicScalar.from_fraction, lambda: dict(q=Fraction(1, 3), prec=P),
        {"q": Loose((True, 1.5, "1")), "rel": DIGITS}),
    "PadicScalar.from_unit_val": Row(
        PadicScalar.from_unit_val, lambda: dict(prec=P, unit=10, val=-1),
        {"unit": INT, "val": INT, "rel": DIGITS}),
    "PadicScalar.inexact_zero": Row(PadicScalar.inexact_zero, lambda: dict(prec=P, abs_prec=3),
                                    {"abs_prec": INT}),
    "PadicScalar.shift": Row(lambda d: PadicScalar.from_int(3, P).shift(d), lambda: dict(d=2),
                             {"d": INT}),
    "PadicScalar.reduce_abs": Row(lambda abs_prec: PadicScalar.from_int(3, P).reduce_abs(abs_prec),
                                  lambda: dict(abs_prec=2), {"abs_prec": INT}),
    "QuadExtScalar": Row(
        QuadExtScalar,
        lambda: dict(a=PadicScalar.from_int(1, P), b=PadicScalar.from_int(2, P), k=1,
                     eps_seed=1),
        {"k": WEIGHT, "eps_seed": SEED}),
    "teichmuller": Row(iwa.teichmuller, lambda: dict(a=2, prec=P),
                       {"a": INT, "rel": DIGITS}),
    "alpha_from_form": Row(iwa.alpha_from_form, lambda: dict(p=5, k=1, eps_p=1),
                           {"p": Prime(), "k": WEIGHT, "eps_p": SEED, "prec": Window()}),
    # -- series
    "FiniteCharacter": Row(
        iwa.FiniteCharacter,
        lambda: dict(tame_exponent=1, wild_conductor_exponent=0, cyclotomic_twist=2),
        {"tame_exponent": INT, "wild_conductor_exponent": Int(0), "cyclotomic_twist": INT}),
    "Series": NotSwept(
        "the raw constructor takes arrays of scalars or Parts; make, constant, "
        "x and monomial below are the entry points"),
    "Series.make": Row(Series.make, lambda: dict(prec=P, coeffs=[1, Fraction(2, 5)]),
                       {"rel": DIGITS}),
    "Series.constant": Row(Series.constant, lambda: dict(c=1, prec=P), {"rel": DIGITS}),
    "Series.x": Row(Series.x, lambda: dict(prec=P), {"rel": DIGITS}),
    "Series.monomial": Row(Series.monomial, lambda: dict(n=2, prec=P),
                           {"n": Int(0), "rel": DIGITS}),
    "Series.evaluate": Row(
        lambda x: Series.x(P).evaluate(x), lambda: dict(x=PadicScalar.from_int(5, P)),
        {"x": Loose((5, True, 1.5, Fraction(1, 5), "5"))}),
    "IwasawaElement": Row(
        IwasawaElement, lambda: dict(prec=P, components=one().components, u=6),
        {"u": Loose()}),
    "IwasawaElement.from_component": Row(
        IwasawaElement.from_component, lambda: dict(i=1, series=Series.x(P)), {"i": INT}),
    "IwasawaElement.twist": Row(lambda n: one().twist(n), lambda: dict(n=-2), {"n": INT}),
    "IwasawaElement.idempotent_project": Row(
        lambda j: one().idempotent_project(j), lambda: dict(j=3), {"j": INT}),
    "IwasawaElement.remainder_mod_cyclotomic": Row(
        lambda m, j: one().remainder_mod_cyclotomic(m, j), lambda: dict(m=1, j=2),
        {"m": Int(0), "j": INT}),
    "cyclotomic_factor": Row(iwa.cyclotomic_factor, lambda: dict(m=1, j=2, prec=P),
                             {"m": Int(0), "j": INT, "rel": DIGITS}),
    # -- distributions
    "Distribution": NotSwept(RECORD),
    "rho_norm": Row(iwa.rho_norm, lambda: dict(F=dist(), m=1), {"m": Int(1)}),
    "growth_order": Row(iwa.growth_order, lambda: dict(F=dist(), depth=2),
                        {"depth": Int(2)}),
    "divide_exact": Row(iwa.divide_exact, lambda: dict(F=dist(), G=dist())),
    "least_squares_slope": Row(iwa.distributions.least_squares_slope,
                               lambda: dict(xs=[1, 2, 3], ys=[0, 1, 3])),
    # -- pollack
    "LogKind": Row(iwa.LogKind, lambda: dict(kind="plus", r=2, shift=1),
                   {"kind": CHOICE, "r": Int(1), "shift": Int(0)}),
    "pollack_log": Row(iwa.pollack_log, lambda: dict(spec=iwa.LogKind("minus", 1), prec=P)),
    "log_identity_check": Row(iwa.log_identity_check, lambda: dict(p=5, r=1, prec=P),
                              {"p": Prime(exact=False), "r": Int(1), "prec": Window()}),
    "log_p_unit": Row(iwa.pollack.log_p_unit, lambda: dict(t=10, p=5, rel=4, prec=P),
                      {"t": INT, "p": Prime(exact=False), "rel": DIGITS,
                       "prec": Window()}),
    # -- dieudonne
    "PhiModule": NotSwept(RECORD),
    "dcris_of_form": Row(iwa.dcris_of_form, lambda: dict(p=5, k=1, eps_p=2),
                         {"p": Prime(), "k": WEIGHT, "eps_p": SEED, "prec": Window()}),
    "sym_square": Row(iwa.dieudonne.sym_square, lambda: dict(D=form())),
    "wedge_square": Row(iwa.dieudonne.wedge_square, lambda: dict(D=form())),
    "split_sym_square": Row(iwa.dieudonne.split_sym_square,
                            lambda: dict(S=iwa.dieudonne.sym_square(form()))),
    "dual": Row(iwa.dieudonne.dual, lambda: dict(D=form())),
    "eigenvectors_dual": Row(iwa.dieudonne.eigenvectors_dual,
                             lambda: dict(Dstar=iwa.dieudonne.dual(form()))),
    "change_of_basis": Row(iwa.change_of_basis, lambda: dict(prec=P, k=1, eps_seed=1),
                           {"k": WEIGHT, "eps_seed": SEED}),
    "mat_vec": Row(iwa.dieudonne.mat_vec,
                   lambda: dict(A=form().phi_matrix, v=iwa.dieudonne.dual(form()).phi_matrix[1])),
    # -- signed
    "Convention": NotSwept(RECORD),
    "UnboundedQuadruple": NotSwept(RECORD),
    "SignedQuadruple": NotSwept(RECORD),
    "MockGlobalModule": Row(
        MockGlobalModule, lambda: dict(k=1, seeds=mock().seeds, convention="theoremA"),
        {"k": WEIGHT, "convention": CHOICE}),
    "factor_signed": Row(iwa.factor_signed, lambda: dict(q=unbounded(), k=0, eps_seed=1),
                         {"k": WEIGHT, "convention": CHOICE, "eps_seed": SEED}),
    "factor_report": Row(iwa.factor_report, lambda: dict(q=unbounded(), k=0),
                         {"k": WEIGHT, "convention": CHOICE, "eps_seed": SEED}),
    "synthesize": Row(iwa.synthesize, lambda: dict(s=signed(), k=0),
                      {"k": WEIGHT, "convention": CHOICE, "eps_seed": SEED}),
    "coleman_extract": Row(iwa.coleman_extract, lambda: dict(local=local(), sign="plus", k=0),
                           {"sign": CHOICE, "k": WEIGHT, "convention": CHOICE}),
    "local_coordinates": Row(iwa.signed.local_coordinates,
                             lambda: dict(G=mock(), elem=(0, 1))),
    "unbounded_coordinates": Row(iwa.signed.unbounded_coordinates,
                                 lambda: dict(G=mock(), elem=(1, 0)), {"eps_seed": SEED}),
    "pr_rank_reduce": Row(iwa.signed.pr_rank_reduce, lambda: dict(G=mock(), lam_mu="am"),
                          {"lam_mu": CHOICE, "eps_seed": SEED}),
    "doubly_signed_pair": Row(iwa.signed.doubly_signed_pair,
                              lambda: dict(G=mock(), signs=("plus", "minus")),
                              {"signs": Loose((("plus", "bogus"), ("dot", "dot"))),
                               "eps_seed": SEED}),
    # -- lfunctions
    "DirichletCharacter": Row(DirichletCharacter, lambda: dict(p=5, modulus=1, table=(0,)),
                              {"p": Prime(), "modulus": Int(1)}),
    "DirichletCharacter.trivial": Row(DirichletCharacter.trivial,
                                      lambda: dict(p=5, modulus=4),
                                      {"p": Prime(), "modulus": Int(1)}),
    "DirichletCharacter.teichmuller_power": Row(
        DirichletCharacter.teichmuller_power, lambda: dict(p=5, j=-3),
        {"p": Prime(), "j": INT}),
    "DirichletCharacter.quadratic": Row(DirichletCharacter.quadratic, lambda: dict(p=5, d=3),
                                        {"p": Prime(), "d": INT}),
    "DirichletCharacter.exponent": Row(lambda a: chi().exponent(a), lambda: dict(a=3),
                                       {"a": INT}),
    "EulerFactorReport": NotSwept(RECORD),
    "gen_bernoulli": Row(iwa.lfunctions.gen_bernoulli, lambda: dict(n=2, eta=chi(), prec=P),
                         {"n": Int(0), "prec": Window(), "rel": DIGITS}),
    "kl_value": Row(iwa.lfunctions.kl_value,
                    lambda: dict(eta=chi(), one_minus_n=-1, prec=P),
                    {"one_minus_n": INT, "prec": Window(), "rel": DIGITS}),
    "smoothed_moment": Row(
        iwa.lfunctions.smoothed_moment,
        lambda: dict(eta=chi(), omega_exponent=1, m=2, c=7, prec=P),
        {"omega_exponent": INT, "m": Int(0), "c": INT, "prec": Window(), "rel": DIGITS}),
    "kl_series": Row(iwa.lfunctions.kl_series, lambda: dict(eta=chi(), branch_i=2, prec=P),
                     {"branch_i": INT, "prec": Window()}),
    "kl_series_report": Row(iwa.lfunctions.kl_series_report,
                            lambda: dict(eta=chi(), branch_i=1, prec=P),
                            {"branch_i": INT, "prec": Window()}),
    "kl_branch_values": Row(iwa.lfunctions.kl_branch_values,
                            lambda: dict(eta=chi(), branch_i=2, s_points=[0, -1], prec=P),
                            {"branch_i": INT, "s_points": Ints(label="s"), "prec": Window()}),
    "euler_factor_E": Row(iwa.lfunctions.euler_factor_E,
                          lambda: dict(form=form(), chi=chi(), j=2),
                          {"j": INT, "rel": DIGITS}),
    "euler_factor_Eprime": Row(iwa.lfunctions.euler_factor_Eprime,
                               lambda: dict(form=form(), chi=chi(), j=3),
                               {"j": INT, "rel": DIGITS}),
    "exceptional_zero_report": Row(iwa.lfunctions.exceptional_zero_report,
                                   lambda: dict(form=form(), chi=chi(), j_range=[1, 3]),
                                   {"j_range": Ints(label="j")}),
    "c_smoothing_factor": Row(iwa.lfunctions.c_smoothing_factor,
                              lambda: dict(c=3, j=1, k=1, chi_eps_at_c=1),
                              {"c": Int(2), "j": INT, "k": WEIGHT}),
    "least_smoothing_c": Row(iwa.lfunctions.least_smoothing_c,
                             lambda: dict(chi_eps=chi(), k=1, coprime_to=3),
                             {"k": WEIGHT, "coprime_to": Int(1)}),
    "remove_euler_factors": Row(iwa.lfunctions.remove_euler_factors,
                                lambda: dict(F=one(), primes=[2], eta=chi()),
                                {"primes": Ints(label="ell", exact=False), "s_shift": INT}),
    "geometric_product": Row(iwa.lfunctions.geometric_product,
                             lambda: dict(sym2=one(), kl=one(), k=1), {"k": WEIGHT}),
    "geometric_ratio": Row(iwa.lfunctions.geometric_ratio,
                           lambda: dict(product=one(), kl=one(), k=1), {"k": WEIGHT}),
}


def exported_names():
    names = set()
    for info in pkgutil.iter_modules(iwa.__path__):
        names.update(getattr(importlib.import_module(f"iwa.{info.name}"), "__all__", ()))
    names.update(n for n, v in vars(iwa).items()
                 if not n.startswith("_") and not isinstance(v, type(iwa)))
    return names


def test_the_table_lists_every_exported_name():
    exported = exported_names()
    missing = sorted(exported - set(CONTRACT))
    assert not missing, f"exported names missing from CONTRACT: {missing}"
    stale = sorted(n for n in set(CONTRACT) - exported if "." not in n)
    assert not stale, f"CONTRACT rows for names nothing exports: {stale}"


def test_every_varied_argument_is_a_parameter():
    for name, row in CONTRACT.items():
        if isinstance(row, Row):
            params = inspect.signature(row.call).parameters
            assert set(row.args()) | set(row.kinds) <= set(params), name


ROWS = [(n, r) for n, r in CONTRACT.items() if isinstance(r, Row)]


@pytest.mark.parametrize("name, row", ROWS, ids=[n for n, _ in ROWS])
def test_valid_arguments_return(name, row):
    row.call(**row.args())


CASES = [
    pytest.param(row, arg, kind, value, id=f"{name}-{arg}-{value!r}")
    for name, row in ROWS
    for arg, kind in row.kinds.items()
    for value in kind.invalid()
]


@pytest.mark.parametrize("row, arg, kind, value", CASES)
def test_an_invalid_argument_is_refused_by_name(row, arg, kind, value):
    args = row.args() | {arg: value}
    try:
        out = row.call(**args)
    except FORBIDDEN as e:
        pytest.fail(f"{type(e).__name__}: {e}")
    except ALLOWED as e:
        label = kind.label or arg
        assert kind.names(label, str(e)), str(e)
        want = kind.message(label, value)
        assert want is None or str(e) == want
        return
    pytest.fail(f"{arg}={value!r} was accepted: {out!r}")


def _seeds():
    return mock().seeds


SCALAR_KINDS = "one of int, Fraction, PadicScalar, QuadExtScalar"

# calls that once returned a wrong value, ran into a bare TypeError or
# AttributeError, or were refused for the wrong reason, each with the whole
# message that now refuses it
REFUSED = [
    (lambda: PadicScalar.from_int(3, P, 1.5), "rel must be an integer >= 0, not 1.5"),
    (lambda: PadicScalar.from_fraction(Fraction(1, 3), P, True),
     "rel must be an integer >= 0, not True"),
    (lambda: iwa.cyclotomic_factor(1, 0, P, rel=1.5), "rel must be an integer >= 0, not 1.5"),
    (lambda: iwa.cyclotomic_factor(1, 0, P, rel=-1), "rel must be an integer >= 0, not -1"),
    (lambda: Series.make(P, [1, 2], rel=1.5), "rel must be an integer >= 0, not 1.5"),
    (lambda: Series.constant(1, P, rel=-2), "rel must be an integer >= 0, not -2"),
    (lambda: iwa.pollack.log_p_unit(5.0, 5, 3, P), "t must be an integer, not 5.0"),
    (lambda: iwa.pollack.log_p_unit(5, True, 3, P), "window is for p = 5, not p = True"),
    (lambda: Series.x(P).evaluate(5), "x must be a PadicScalar, not 5"),
    (lambda: DirichletCharacter(5, 1.5, (0,)), "modulus must be an integer >= 1, not 1.5"),
    (lambda: DirichletCharacter.teichmuller_power(5, 1.5), "j must be an integer, not 1.5"),
    (lambda: DirichletCharacter.quadratic(5, 3.0), "d must be an integer, not 3.0"),
    (lambda: DirichletCharacter.quadratic("5", 3), "p must be an integer, not '5'"),
    (lambda: DirichletCharacter.trivial(5, True), "modulus must be an integer >= 1, not True"),
    (lambda: iwa.rho_norm(dist(), 1.5), "m must be an integer >= 1, not 1.5"),
    (lambda: iwa.growth_order(dist(), 2.5), "depth must be an integer >= 2, not 2.5"),
    (lambda: iwa.lfunctions.remove_euler_factors(one(), [2], chi(), 0.5),
     "s_shift must be an integer, not 0.5"),
    (lambda: iwa.lfunctions.remove_euler_factors(one(), [2], chi(), True),
     "s_shift must be an integer, not True"),
    (lambda: iwa.lfunctions.geometric_product(one(), one(), 1.5),
     "weight parameter k must be an integer >= 0, not 1.5"),
    (lambda: iwa.lfunctions.geometric_ratio(one(), one(), -1),
     "weight parameter k must be an integer >= 0, not -1"),
    (lambda: iwa.synthesize(signed(), 0, eps_seed=1.5), "eps_seed must be an integer, not 1.5"),
    (lambda: iwa.synthesize(signed(), 0, eps_seed=True), "eps_seed must be an integer, not True"),
    (lambda: iwa.dcris_of_form(5, 1, 1.5), "eps_seed must be an integer, not 1.5"),
    (lambda: iwa.signed.pr_rank_reduce(mock(), "aa", 1.5), "eps_seed must be an integer, not 1.5"),
    (lambda: iwa.change_of_basis(P, 1.0, 1), "weight parameter k must be an integer >= 0, not 1.0"),
    (lambda: MockGlobalModule(1, _seeds(), "bogus"),
     "unknown convention 'bogus'; choices: ['lemmaFactorisation', 'theoremA']"),
    (lambda: iwa.log_identity_check(5, 1.5, P), "r must be an integer >= 1, not 1.5"),
    (lambda: iwa.teichmuller(1.5, P), "a must be an integer, not 1.5"),
    (lambda: PadicScalar.from_int(1.5, P), "n must be an integer, not 1.5"),
    (lambda: PadicScalar.from_unit_val(P, 3, 0, 1.5), "rel must be an integer >= 0, not 1.5"),
    (lambda: Series.make(P, [1.5]), f"scalar must be {SCALAR_KINDS}, not 1.5"),
    (lambda: Series.make(P, ["1.5"]), f"scalar must be {SCALAR_KINDS}, not '1.5'"),
    (lambda: Series.make(P, [1, True]), f"scalar must be {SCALAR_KINDS}, not True"),
    (lambda: Series.constant(0.5, P), f"scalar must be {SCALAR_KINDS}, not 0.5"),
    (lambda: iwa.series.linear_combination([1.5], [Series.x(P)]),
     f"scalar must be {SCALAR_KINDS}, not 1.5"),
    (lambda: iwa.series.linear_combination([1, True], [Series.x(P)] * 2),
     f"scalar must be {SCALAR_KINDS}, not True"),
    (lambda: Distribution(one(), "1.5"),
     "growth order claim must be one of int, Fraction, not '1.5'"),
    (lambda: Distribution(one(), 0.5),
     "growth order claim must be one of int, Fraction, not 0.5"),
    (lambda: Distribution(one(), True),
     "growth order claim must be one of int, Fraction, not True"),
    (lambda: PadicScalar.from_fraction(1.5, P), "q must be one of int, Fraction, not 1.5"),
    (lambda: PadicScalar.from_fraction("1/3", P), "q must be one of int, Fraction, not '1/3'"),
    (lambda: PadicScalar.from_int(3, P).shift(1.5), "d must be an integer, not 1.5"),
    (lambda: PadicScalar.from_int(3, P).reduce_abs(2.5), "abs_prec must be an integer, not 2.5"),
    (lambda: PadicScalar.inexact_zero(P, 1.5), "abs_prec must be an integer, not 1.5"),
    (lambda: chi().exponent(2.5), "a must be an integer, not 2.5"),
    (lambda: P.with_p_prec(1.5), "p_prec must be an integer >= 1, not 1.5"),
    (lambda: P.with_p_prec(0), "p_prec must be an integer >= 1, not 0"),
    (lambda: P.with_p_prec(True), "p_prec must be an integer >= 1, not True"),
]


@pytest.mark.parametrize("call, message", REFUSED, ids=[m for _, m in REFUSED])
def test_reported_holes_are_refused_by_name(call, message):
    iwa.change_of_basis(P, 1, 1)  # a warm k = 1 entry must not answer k = 1.0
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
