"""Operator protocol and reprs across the layers.

A foreign operand makes every arithmetic operator return NotImplemented, so
Python raises TypeError; the reflected operations give the forward result,
digit for digit; and every repr names its class.
"""

from __future__ import annotations

import pytest

from iwa.distributions import Distribution
from iwa.lfunctions import DirichletCharacter
from iwa.scalars import PadicScalar, Precision, QuadExtScalar
from iwa.series import IwasawaElement, Series

PREC = Precision(5, 10, 4)
X = PadicScalar.from_unit_val(PREC, 3, 1)
Q = QuadExtScalar.alpha(PREC, 1, 1) + 2
S = Series.make(PREC, [1, 2], is_polynomial=True)
E = IwasawaElement.from_diagonal(Series.make(PREC, [1, Q, 3]))
FOREIGN = object()

_OPS = {
    "a + f": lambda a, f: a + f,
    "f + a": lambda a, f: f + a,
    "a - f": lambda a, f: a - f,
    "f - a": lambda a, f: f - a,
    "a * f": lambda a, f: a * f,
    "f * a": lambda a, f: f * a,
    "a / f": lambda a, f: a / f,
    "f / a": lambda a, f: f / a,
    "a ** f": lambda a, f: a ** f,
}
_SCALAR_OPS = tuple(_OPS)
_TYPED = {
    "PadicScalar": (X, _SCALAR_OPS),
    "QuadExtScalar": (Q, _SCALAR_OPS),
    "Series": (S, ("a + f", "f + a", "a - f", "f - a", "a * f", "f * a")),
    "IwasawaElement": (E, ("a + f", "a - f", "a * f", "f * a")),
    "Distribution": (Distribution(E), ("a + f", "a * f")),
    "DirichletCharacter": (DirichletCharacter.trivial(5), ("a * f",)),
}


@pytest.mark.parametrize("kind, op", [
    pytest.param(kind, op, id=f"{kind}: {op}")
    for kind, (_, ops) in _TYPED.items() for op in ops
])
def test_a_foreign_operand_raises_type_error(kind, op):
    with pytest.raises(TypeError):
        _OPS[op](_TYPED[kind][0], FOREIGN)


@pytest.mark.parametrize("kind", list(_TYPED))
def test_equality_with_a_foreign_object_is_false(kind):
    a = _TYPED[kind][0]
    assert a.__eq__(FOREIGN) is NotImplemented
    assert (a == FOREIGN) is False


def _cells(x):
    if isinstance(x, PadicScalar):
        return x.val, x.unit, x.rel
    if isinstance(x, QuadExtScalar):
        return _cells(x.a), _cells(x.b), x.k, x.eps_seed
    if isinstance(x, Series):
        return [_cells(c) for c in x.a], x.b and [_cells(c) for c in x.b], x.is_polynomial
    return [_cells(s) for s in x.components]


def test_reflected_operations_give_the_forward_result():
    # the constant 3 carried wider than either operand, so theirs is the
    # precision that rules, as it does for a coerced int
    three = PadicScalar.from_int(3, PREC, 20)
    three_q = QuadExtScalar.from_padic(three, 1, 1)
    pairs = [
        (3 - X, three - X),
        (3 / X, three / X),
        (3 - Q, three_q - Q),
        (3 / Q, three_q / Q),
        (3 - S, Series.constant(3, PREC) - S),
        (E * 2, E.scale(2)),
        (2 * E, E.scale(2)),
        (E * Q, E.scale(Q)),
    ]
    for got, want in pairs:
        assert _cells(got) == _cells(want)


@pytest.mark.parametrize("obj", [
    pytest.param(PadicScalar.exact_zero(PREC), id="exact-zero"),
    pytest.param(PadicScalar.inexact_zero(PREC, 3), id="zero-to-precision"),
    pytest.param(X, id="scalar"),
    pytest.param(Q, id="quadratic"),
    pytest.param(S, id="polynomial"),
    pytest.param(Series.make(PREC, [1, Q]), id="alpha-series"),
    pytest.param(E, id="iwasawa"),
])
def test_repr_names_the_class(obj):
    text = repr(obj)
    assert isinstance(text, str) and text.startswith(f"{type(obj).__name__}(")
