"""Plus/minus/full logarithm construction and the product identity."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import iwa._kernel
import iwa.pollack
from iwa._kernel import cyclotomic_cells, polymul, stirling_columns
from iwa.distributions import divide_exact, growth_order, least_squares_slope
from iwa.pollack import (
    LogKind,
    _ell_cells,
    _ell_coefficients,
    _is_one,
    _short_levels,
    _signed_product,
    _tree_product,
    log_identity_check,
    log_p_unit,
    pollack_log,
)
from iwa.scalars import PadicScalar, Precision, _vp
from iwa.series import Series, cyclotomic_degree, u_for

from oracles import (
    ell_cells_by_rows,
    log1plus_coeffs,
    reference_log_p_unit,
    reference_pollack_log,
    reference_signed_product,
)

P5 = Precision(5, 30, 64)


class TestLogKind:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            LogKind("half", 1)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError, match="positive"):
            LogKind("plus", 0)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            LogKind("minus", 1, shift=-1)

    def test_order(self):
        assert LogKind("plus", 3).order == Fraction(3, 2)
        assert LogKind("minus", 1).order == Fraction(1, 2)
        assert LogKind("full", 2).order == Fraction(2)


class TestLogPUnit:
    def test_needs_principal_unit(self):
        with pytest.raises(ValueError, match="principal unit"):
            log_p_unit(4, 5, 20, P5)

    @pytest.mark.parametrize("p,t", [(5, 5), (7, 7), (3, 3)])
    def test_additive_under_powers(self, p, t):
        # log((1+t)^p) = p*log(1+t) pins the series against itself at a
        # different argument, which a wrong coefficient would break
        prec = Precision(p, 30, 8)
        tp = (1 + t) ** p - 1
        lhs = log_p_unit(tp, p, 25, prec)
        rhs = log_p_unit(t, p, 25, prec) * p
        assert (lhs - rhs).is_zero_to_precision

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_integer_sum_matches_the_fraction_series(self, p):
        # the series on integers mod p^(V + v(t) + rel) against the exact
        # Fraction sum of the same terms, digit for digit
        prec = Precision(p, 10, 4)
        ts = (0, p, -p, p * p, 5 * p**3 + p, u_for(p) - 1, 2 ** (p - 1) - 1)
        for t in ts:
            for rel in (0, 1, 5, 20, 60, 148):
                got = log_p_unit(t, p, rel, prec)
                want = reference_log_p_unit(t, p, rel, prec)
                assert (got.val, got.unit, got.rel) == (want.val, want.unit, want.rel), (t, rel)
        assert log_p_unit(0, p, 20, prec).is_exact_zero

    def test_negative_rel_is_refused_by_name(self):
        with pytest.raises(ValueError, match="rel must be a nonnegative number of digits, got -3"):
            log_p_unit(5, 5, -3, Precision(5, 10, 8))


class TestPlusConstruction:
    def test_constant_term_is_one_over_p(self):
        d = pollack_log(LogKind("plus", 1), P5)
        c0 = d.body.components[0].coeff(0)
        assert c0.valuation() == -1
        diff = c0 * 5 - PadicScalar.from_int(1, P5)
        assert diff.is_zero_to_precision
        assert diff.abs_prec >= 20

    def test_certificates_are_even_levels_fitting_window(self):
        # at x_prec 64 only Phi_{5^2} (degree 20) fits; 5^4 has degree 500
        d = pollack_log(LogKind("plus", 1), P5)
        assert d.cyclo_factors == ((2, 0),)
        d2 = pollack_log(LogKind("plus", 2), P5)
        assert set(d2.cyclo_factors) == {(2, 0), (2, 1)}

    def test_meta_records_stabilization(self):
        d = pollack_log(LogKind("plus", 1), P5)
        (tw,) = d.meta["per_twist"]
        assert tw["twist"] == 0
        assert tw["stabilized_at"] % 2 == 0  # stop happens at a plus level
        assert tw["factors"] >= 10
        assert d.meta["valuation_offset"] == tw["factors"] + 1
        assert d.truncation_level == tw["stabilized_at"]

    def test_order_tag(self):
        assert pollack_log(LogKind("plus", 2), P5).order_tag == Fraction(1)
        assert pollack_log(LogKind("minus", 3), P5).order_tag == Fraction(3, 2)

    def test_construction_precision_consistency(self):
        # rebuilding in a deeper p-adic window must refine, never contradict
        lo = pollack_log(LogKind("plus", 1), P5)
        hi = pollack_log(LogKind("plus", 1), Precision(5, 50, 64))
        assert lo.body.components[0] == hi.body.components[0]

    def test_tiny_window_degenerates_with_warning(self):
        with pytest.warns(UserWarning, match="window too small"):
            d = pollack_log(LogKind("plus", 1), Precision(5, 1, 4))
        assert d.cyclo_factors == ()


class TestMinusConstruction:
    def test_vanishes_along_level_one_certificate(self):
        d = pollack_log(LogKind("minus", 1), P5)
        assert d.cyclo_factors == ((1, 0),)
        rem = d.body.remainder_mod_cyclotomic(1, 0)
        assert all(
            rem.coeff(n).is_zero_to_precision for n in range(len(rem.a))
        )

    def test_plus_does_not_vanish_there(self):
        d = pollack_log(LogKind("plus", 1), P5)
        rem = d.body.remainder_mod_cyclotomic(1, 0)
        assert any(
            not rem.coeff(n).is_zero_to_precision for n in range(len(rem.a))
        )


class TestFullConstruction:
    def test_single_twist_is_classical_log(self):
        d = pollack_log(LogKind("full", 1), P5)
        expected = Series.make(
            P5, log1plus_coeffs(P5.x_prec), rel=35, is_polynomial=False
        )
        assert d.body.components[0] == expected

    def test_certificates_include_linear_and_wild_levels(self):
        d = pollack_log(LogKind("full", 1), P5)
        assert set(d.cyclo_factors) == {(0, 0), (1, 0), (2, 0)}
        rem = d.body.remainder_mod_cyclotomic(2, 0)
        assert all(
            rem.coeff(n).is_zero_to_precision for n in range(len(rem.a))
        )

    def test_constant_term_records_log_of_u(self):
        # the j=1 factor contributes -log_p(u) at X = 0
        prec = Precision(5, 25, 8)
        d = pollack_log(LogKind("full", 1, shift=1), prec)
        c0 = d.body.components[0].coeff(0)
        lam = log_p_unit(u_for(5) - 1, 5, 30, prec)
        assert (c0 + lam).is_zero_to_precision


class TestTwistAndShift:
    def test_twist_matches_shifted_construction(self):
        base = pollack_log(LogKind("plus", 1), P5)
        shifted = pollack_log(LogKind("plus", 1, shift=1), P5)
        twisted = base.twist(-1)
        assert set(twisted.cyclo_factors) == set(shifted.cyclo_factors) == {(2, 1)}
        assert twisted.body.components[0] == shifted.body.components[0]

    @pytest.mark.parametrize("kind", ["plus", "minus"])
    def test_quotient_by_first_twist_is_shift(self, kind):
        r2 = pollack_log(LogKind(kind, 2), P5)
        r1 = pollack_log(LogKind(kind, 1), P5)
        q = divide_exact(r2, r1)
        shifted = pollack_log(LogKind(kind, 1, shift=1), P5)
        assert q.order_tag == Fraction(1, 2)
        assert q.body.components[0] == shifted.body.components[0]

    def test_bridging_product(self):
        # shift-1 width-1 times (width-3 / width-2) re-assembles shift-1 width-2
        prec = Precision(5, 20, 32)
        lhs = pollack_log(LogKind("plus", 1, shift=1), prec) * divide_exact(
            pollack_log(LogKind("plus", 3), prec),
            pollack_log(LogKind("plus", 2), prec),
        )
        rhs = pollack_log(LogKind("plus", 2, shift=1), prec)
        assert lhs.order_tag == rhs.order_tag == Fraction(1)
        assert lhs.body.components[0] == rhs.body.components[0]


def fingerprint(d):
    """Everything a log carries, down to each coefficient's (val, unit, rel)."""
    body = d.body.components[0]
    return (
        tuple((c.val, c.unit, c.rel) for c in body.a),
        body.is_polynomial,
        d.order_tag,
        d.cyclo_factors,
        d.truncation_level,
        d.meta,
    )


class TestAgainstPoweringReference:
    """The binomial-row level factors reproduce the powering construction."""

    @pytest.mark.parametrize(
        "spec,prec,length",
        [
            # a window wider than every included factor: 105 cells, not 130
            (LogKind("minus", 1), Precision(5, 1, 130), 105),
            (LogKind("plus", 2), Precision(3, 12, 40), 40),
            (LogKind("minus", 2), Precision(3, 12, 40), 40),
            (LogKind("minus", 1), Precision(11, 8, 30), 30),
            (LogKind("plus", 1, shift=1), Precision(11, 6, 150), 150),
            (LogKind("plus", 1, shift=1), Precision(5, 20, 32), 32),
            (LogKind("minus", 2, shift=1), Precision(5, 20, 32), 32),
            # the work window of log_identity_check(5, 4, Precision(5, 10, 16))
            (LogKind("plus", 4), Precision(5, 40, 16), 16),
            (LogKind("minus", 4), Precision(5, 40, 16), 16),
            # no factor fits: the degenerate constant log
            pytest.param(
                LogKind("plus", 1), Precision(5, 1, 4), 1,
                marks=pytest.mark.filterwarnings("ignore:window too small"),
            ),
        ],
    )
    def test_pollack_log_is_bit_identical(self, monkeypatch, spec, prec, length):
        new = fingerprint(pollack_log(spec, prec))
        monkeypatch.setattr(iwa.pollack, "_signed_product", reference_signed_product)
        assert new == fingerprint(pollack_log(spec, prec))
        assert len(new[0]) == length

    @pytest.mark.parametrize("kind", ["plus", "minus"])
    @pytest.mark.parametrize(
        "j,p,W,N,M",
        [
            (0, 5, 30, 64, 20),
            (3, 5, 12, 7, 6),
            (1, 3, 25, 90, 9),
            (2, 7, 9, 50, 4),
            # the working window log_identity_check builds for p = 5, r = 2, N = 64
            (0, 5, 106, 64, 42),
            (3, 5, 106, 64, 42),
            # N <= p - 1: level 1 has degree >= N and content p
            (0, 7, 9, 5, 4),
            (2, 11, 8, 10, 5),
            (4, 13, 7, 12, 3),
            (1, 13, 6, 3, 2),
            # N equal to a level's degree: that level is in, its content p
            (1, 5, 14, 20, 12),
            (3, 3, 12, 18, 8),
            (2, 3, 10, 6, 5),
            (0, 7, 8, 42, 6),
            # p in {3, 11, 13}, each twist j in 0..4
            (0, 3, 15, 40, 10),
            (1, 3, 9, 27, 7),
            (2, 3, 30, 600, 12),
            (3, 3, 20, 81, 14),
            (4, 3, 6, 100, 3),
            (0, 11, 9, 130, 6),
            (1, 11, 12, 111, 8),
            (2, 11, 5, 64, 2),
            (3, 11, 10, 200, 7),
            (4, 11, 7, 9, 4),
            (0, 13, 8, 160, 5),
            (1, 13, 11, 157, 9),
            (2, 13, 6, 64, 3),
            (3, 13, 9, 156, 6),
            (4, 13, 10, 200, 8),
            # the log-identity work windows (5, 4, 64) and (5, 2, 160), M = 20
            (0, 5, 63, 64, 58),
            (3, 5, 63, 64, 58),
            (0, 5, 49, 160, 46),
            (1, 5, 51, 160, 46),
        ],
    )
    def test_signed_product_matches_reference(self, kind, j, p, W, N, M):
        u = u_for(p)
        assert _signed_product(kind, j, p, u, W, N, M) == reference_signed_product(
            kind, j, p, u, W, N, M
        )


class TestEllBasis:
    """A level of degree >= N, from its ell-coefficients, equals its binomial rows."""

    @pytest.mark.parametrize(
        "p,m,j,R,N",
        [
            (5, 2, 0, 30, 20),
            (5, 3, 3, 63, 64),
            (5, 8, 2, 20, 64),
            (3, 2, 4, 10, 6),
            (3, 4, 1, 20, 40),
            (7, 2, 2, 12, 42),
            (11, 3, 4, 9, 150),
            (13, 2, 1, 8, 100),
        ],
    )
    def test_converted_back_equals_cyclotomic_cells(self, p, m, j, R, N):
        assert cyclotomic_degree(p, m) >= N
        T = R + _vp(factorial(N - 1), p)
        c = pow(u_for(p), -j, p ** (T + 1))
        a = _ell_coefficients(p, m, pow(c, p ** (m - 1), p ** (T + 1)), T, N)
        assert 1 <= len(a) <= N
        # Phi = p g, and g comes back mod p^R: Phi mod p^(R+1), cell for cell
        cells = [p * g for g in _ell_cells(a, p, N, T, R)]
        assert cells == cyclotomic_cells(p, m, c, p ** (R + 1), N)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("N", [1, 4, 40])
def test_tree_product_equals_running_product(count, N):
    # short and long factors, products that outgrow N and ones that do not
    mod = 5**12
    factors = [
        [(7 * i + 3 * k + 1) ** 5 % mod for k in range(1 + i % 4 * 9)]
        for i in range(count)
    ]
    running = reduce(lambda f, g: polymul(f, g, mod, N), factors)
    assert _tree_product(factors, mod, N) == running


def _first_ell_level(p: int, N: int) -> int:
    """The lowest level _signed_product writes in the ell basis: m >= 2, degree >= N."""
    m = 2
    while cyclotomic_degree(p, m) < N:
        m += 1
    return m


@st.composite
def ell_inputs(draw):
    """(h, p, N, T, R) with T = R + v_p((N-1)!) and K = len(h) from 1 to N.

    h is either a product of ell-basis levels, as _signed_product forms it,
    cut to K terms, or K random multiples of p^V.
    """
    p = draw(st.sampled_from([3, 5, 7, 11]))
    N = draw(st.integers(1, 160))
    R = draw(st.integers(1, 30))
    V = _vp(factorial(N - 1), p)
    T = R + V
    pT1 = p ** (T + 1)
    if draw(st.booleans()):
        c = pow(u_for(p), -draw(st.integers(0, 4)), pT1)
        first = _first_ell_level(p, N) + draw(st.integers(0, 2))
        levels = [
            _ell_coefficients(p, m, pow(c, p ** (m - 1), pT1), T, N)
            for m in range(first, first + draw(st.integers(1, 4)))
        ]
        H = _tree_product(levels, p**T, N)
        h = H[: draw(st.integers(1, len(H)))]
    else:
        K = draw(st.integers(1, N))
        h = [p**V * x for x in draw(st.lists(st.integers(0, p**R), min_size=K, max_size=K))]
    return h, p, N, T, R


@settings(max_examples=60, deadline=None)
@given(ell_inputs())
@example(([7], 5, 1, 4, 4))
@example(([7, 30], 5, 2, 4, 4))
@example(([1], 3, 9, 10, 6))
def test_ell_cells_match_the_row_walk(case):
    # the table read as built at T, as first built deeper, and as built
    # shallower and then deepened by the conversion itself
    h, p, N, T, R = case
    want = list(ell_cells_by_rows(h, p, N, T, R))
    for first in (T, T + 5, max(T - 5, 1)):
        iwa._kernel._stirling.clear()
        stirling_columns(p, N, first)
        assert list(_ell_cells(h, p, N, T, R)) == want, first
        # cells 0 and 1 come from h alone, so N < 3 never deepens the table
        assert iwa._kernel._stirling[p, N][0] == (max(first, T) if N > 2 else first)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["plus", "minus"]),
    st.integers(0, 4),
    st.sampled_from([3, 5, 7, 11]),
    st.integers(1, 160),
    st.integers(1, 30),
)
def test_p_divides_every_scaled_coefficient_of_the_signed_product(kind, j, p, N, M):
    # why Stirling numbers mod p^(T-1) would give the same cells: p | k! h_k
    products = []

    def recording(factors, mod, n):
        products.append(_tree_product(factors, mod, n))
        return products[-1]

    R = M + _short_levels(kind, p, N) + 1
    with patch.object(iwa.pollack, "_tree_product", recording):
        _signed_product(kind, j, p, u_for(p), R, N, M)
    assume(products)
    (H,) = products
    assert all(factorial(k) * h % p == 0 for k, h in enumerate(H) if k)


class TestStirlingTable:
    """The packed Stirling columns, kept per (p, N) at the deepest T asked."""

    @pytest.fixture
    def builds(self, monkeypatch):
        made = []
        build = iwa._kernel._stirling_table

        def counting(p, N, T):
            made.append((p, N, T))
            return build(p, N, T)

        monkeypatch.setattr(iwa._kernel, "_stirling_table", counting)
        iwa._kernel._stirling.clear()
        return made

    def test_columns_hold_the_stirling_numbers(self, builds):
        # s(n, k) for n < 6: the rows of the first kind, signs included
        rows = [[1], [-1, 1], [2, -3, 1], [-6, 11, -6, 1], [24, -50, 35, -10, 1]]
        chunk, columns = stirling_columns(7, 6, 3)
        assert chunk == ((6 * 7**6).bit_length() + 7) // 8
        for k in range(1, 6):
            col = columns[k].to_bytes(chunk * (6 - k), "little")
            got = [int.from_bytes(col[i * chunk : (i + 1) * chunk], "little") for i in range(6 - k)]
            assert got == [rows[n - 1][k - 1] % 7**3 for n in range(k, 6)]

    def test_a_second_identity_check_builds_no_table(self, builds):
        prec = Precision(5, 20, 160)
        first = log_identity_check(5, 2, prec)
        assert builds
        builds.clear()
        assert log_identity_check(5, 2, prec) == first
        assert builds == []

    def test_a_deeper_T_replaces_the_entry(self, builds):
        table = stirling_columns(3, 10, 4)
        assert stirling_columns(3, 10, 2) == table  # a shallower T reads it as it is
        assert builds == [(3, 10, 4)]
        deeper = stirling_columns(3, 10, 6)
        assert builds == [(3, 10, 4), (3, 10, 6)]
        assert iwa._kernel._stirling == {(3, 10): (6, *deeper)}
        assert deeper != table

    def test_a_stop_test_refusing_after_two_cells_builds_nothing(self, builds):
        # level 3 at p = 5, j = 0: a_0 = Phi(1)/p = 1 and a_1 = e S_1 / p = 50
        p, N, R, M = 5, 64, 22, 20
        T = R + _vp(factorial(N - 1), p)
        a = _ell_coefficients(p, 3, 1, T, N)
        assert a[:2] == [1, 50]
        assert not _is_one(_ell_cells(a, p, N, T, R), p**M)
        assert builds == [] and iwa._kernel._stirling == {}

    def test_the_cache_keeps_the_last_sixteen_windows(self, builds):
        for N in range(3, 19):
            stirling_columns(5, N, 2)
        stirling_columns(5, 3, 1)  # a reuse makes (5, 3) the most recent
        for N in range(19, 23):
            stirling_columns(5, N, 2)
        assert len(iwa._kernel._stirling) == iwa._kernel._STIRLING_WINDOWS == 16
        assert list(iwa._kernel._stirling) == [(5, N) for N in [*range(8, 19), 3, *range(19, 23)]]
        assert len(builds) == 20


@pytest.mark.filterwarnings("ignore:window too small")
class TestAgainstFullModulusReference:
    """The stripped product, formed mod p^(M+L+1), reproduces the product mod p^W."""

    @pytest.mark.parametrize("kind", ["plus", "minus"])
    @pytest.mark.parametrize(
        "r,shift,prec",
        [
            # the work windows of log_identity_check at the bench's
            # (p, r, N) = (5, 4, 64), (5, 2, 160), (7, 2, 64), (5, 2, 64), M = 20
            (4, 0, Precision(5, 58, 64)),
            (2, 0, Precision(5, 46, 160)),
            (2, 0, Precision(7, 42, 64)),
            (2, 0, Precision(5, 42, 64)),
            # the signed log columns of the bench's roundtrip cases
            (2, 1, Precision(5, 36, 64)),
            (4, 1, Precision(5, 44, 64)),
            (4, 0, Precision(5, 44, 64)),
            (4, 1, Precision(7, 44, 64)),
            (2, 0, Precision(3, 20, 90)),
            (1, 1, Precision(11, 8, 150)),
            (2, 1, Precision(13, 10, 200)),
            # M = 1: the stop test and the caps read one digit
            (1, 0, Precision(5, 1, 130)),
            (2, 1, Precision(3, 1, 40)),
            # N below every level's degree: each included level has content p
            (2, 0, Precision(5, 10, 3)),
            (1, 2, Precision(7, 6, 5)),
            # N equal to a level's degree: that level is included, content p
            (2, 0, Precision(5, 12, 20)),
            (1, 1, Precision(3, 8, 18)),
            (2, 1, Precision(7, 6, 42)),
        ],
    )
    def test_fingerprint_matches(self, kind, r, shift, prec):
        spec = LogKind(kind, r, shift)
        assert fingerprint(pollack_log(spec, prec)) == fingerprint(
            reference_pollack_log(spec, prec)
        )


class TestLevelContent:
    """The two facts that let the signed product run at p^(M+L+1)."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("j", range(4))
    def test_content_is_p_exactly_when_the_degree_reaches_N(self, p, j):
        # Phi_{p^m}(u^{-j}(1+X)) = X^deg mod p
        q = p**6
        c = pow(u_for(p), -j, q)
        for m in range(1, 6):
            deg = cyclotomic_degree(p, m)
            Ns = {1, 2, 5, 20, 64, 101}
            if deg <= 200:
                Ns |= {deg - 1, deg, deg + 1}
            for N in sorted(n for n in Ns if n >= 1):
                content = gcd(q, *cyclotomic_cells(p, m, c, q, N))
                assert content == (p if deg >= N else 1), (m, N)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("j", range(4))
    def test_constant_term_has_valuation_one(self, p, j):
        # Phi_{p^m}(z) = sum_{i<p} z^(i p^(m-1)), here at z = u^{-j}
        q = p**6
        z = pow(u_for(p), -j, q)
        for m in range(1, 6):
            e = p ** (m - 1)
            assert _vp(sum(pow(z, i * e, q) for i in range(p)) % q, p) == 1, m


class TestProductIdentity:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("r", [1, 2])
    def test_exact_to_window(self, p, r):
        report = log_identity_check(p, r)
        assert report["ok"]
        assert report["deviation"] == "exact-zero"
        assert report["zero_confirmed_to"] == 30

    def test_report_window_echo(self):
        report = log_identity_check(3, 1, Precision(3, 12, 20))
        assert report["window"] == {"p_prec": 12, "x_prec": 20}
        assert report["ok"]

    def test_window_for_another_prime_is_refused(self):
        with pytest.raises(ValueError, match="p = 7"):
            log_identity_check(5, 1, Precision(7, 10, 16))


def staircase_norms(kind: str, r: int, p: int, depth: int) -> list[Fraction]:
    """Predicted rho-norms per level from the cyclotomic Newton polygons.

    An included level-k factor contributes p^(k-m) - 1 to the level-m norm
    once k <= m and nothing before that; each twist also carries one extra
    1/p.  The full logarithm's polygon bottoms out at p/(p-1) - m.
    """
    if kind == "full":
        return [r * (Fraction(p, p - 1) - m) for m in range(1, depth + 1)]
    start = 2 if kind == "plus" else 1
    out = []
    for m in range(1, depth + 1):
        per_twist = sum(
            (Fraction(1, p ** (m - k)) - 1 for k in range(start, m + 1, 2)),
            Fraction(-1),
        )
        out.append(r * per_twist)
    return out


class TestGrowth:
    @pytest.mark.parametrize("kind,r", [("full", 1), ("minus", 1), ("plus", 1)])
    def test_depth_five_matches_polygon_prediction(self, kind, r):
        prec = Precision(5, 20, 630)
        d = pollack_log(LogKind(kind, r), prec)
        stairs = staircase_norms(kind, r, 5, 5)
        expected = least_squares_slope(range(1, 6), [-y for y in stairs])
        assert growth_order(d, 5) == expected

    def test_signed_orders_near_claim(self):
        prec = Precision(5, 20, 630)
        for kind in ("plus", "minus"):
            est = growth_order(pollack_log(LogKind(kind, 1), prec), 5)
            assert abs(est - Fraction(1, 2)) <= Fraction(1, 4)


def test_minus_log_on_a_one_column_window_stops_at_level_one():
    # x_prec = 1: level 1 has degree p - 1 > 1, and its Phi/p reads 1 mod
    # (p^M, X), so the binomial-row stop test ends the product at once
    assert _signed_product("minus", 0, 5, u_for(5), 4, 1, 3) == ([1], 0, 1)
    with pytest.warns(UserWarning, match="window too small"):
        log = pollack_log(LogKind("minus", 1), Precision(5, 3, 1))
    assert log.meta["per_twist"] == [{"twist": 0, "factors": 0, "stabilized_at": 1}]
    assert log.truncation_level == 1 and log.cyclo_factors == ()
