"""Round trips, vanishing, and pairings for the signed factorization layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iwa.signed as signed_module
from iwa.dieudonne import change_of_basis
from iwa.distributions import Distribution, divide_exact
from iwa.pollack import LogKind, pollack_log
from iwa.scalars import Precision, QuadExtScalar
from iwa.series import DivisibilityError, IwasawaElement, Series, _divisor_plan
from iwa.signed import (
    CONVENTIONS,
    MockGlobalModule,
    SignedQuadruple,
    UnboundedQuadruple,
    coleman_extract,
    doubly_signed_pair,
    factor_report,
    factor_signed,
    local_coordinates,
    pr_rank_reduce,
    synthesize,
    unbounded_coordinates,
)

from oracles import reference_mat_apply

P64 = Precision(5, 20, 64)
P32 = Precision(5, 20, 32)


def poly_elem(prec, coeff_rows):
    """IwasawaElement with the given integer coefficient rows as components."""
    return IwasawaElement(
        prec, [Series.make(prec, row, is_polynomial=True) for row in coeff_rows]
    )


def rand_elem(rng, prec, deg=6, bound=50):
    return poly_elem(
        prec,
        [
            [rng.randint(-bound, bound) for _ in range(deg + 1)]
            for _ in range(prec.p - 1)
        ],
    )


def zero_elem(prec):
    return IwasawaElement.zero(prec)


def rand_mock(rng, k, prec, convention="theoremA", circ_zero=False):
    seeds = []
    for _ in range(2):
        row = [rand_elem(rng, prec, deg=3, bound=20) for _ in range(4)]
        if circ_zero:
            row[0] = zero_elem(prec)
        seeds.append(tuple(row))
    return MockGlobalModule(k, (seeds[0], seeds[1]), convention)


def elements_equal(a: IwasawaElement, b: IwasawaElement) -> bool:
    return all(x == y for x, y in zip(a.components, b.components))


# ------------------------------------------------------------- conventions


class TestConventions:
    def test_theorem_rows_and_shift(self):
        conv = CONVENTIONS["theoremA"]
        assert conv.row_signs == ("plus", "minus", "dot", "circ")
        assert conv.log_kind("plus", 1) == LogKind("plus", 4, shift=1)
        assert conv.log_kind("dot", 1) == LogKind("full", 2, shift=1)

    def test_lemma_rows_and_shift(self):
        conv = CONVENTIONS["lemmaFactorisation"]
        assert conv.row_signs == ("minus", "plus", "dot", "circ")
        assert conv.log_kind("minus", 0) == LogKind("minus", 2, shift=0)
        assert conv.log_kind("circ", 2) == LogKind("full", 3, shift=0)

    def test_slot_row_reordering_inverts(self):
        conv = CONVENTIONS["lemmaFactorisation"]
        slots = ("c", "d", "p", "m")
        assert conv.slots_from_rows(conv.rows_from_slots(slots)) == slots

    def test_unknown_convention_rejected(self):
        rng = random.Random(1)
        s = SignedQuadruple(*(rand_elem(rng, P32) for _ in range(4)))
        with pytest.raises(ValueError, match="unknown convention"):
            synthesize(s, 0, convention="theoremB")

    def test_quadruple_shared_precision_enforced(self):
        rng = random.Random(2)
        d64 = Distribution(rand_elem(rng, P64), Fraction(0))
        d32 = Distribution(rand_elem(rng, P32), Fraction(0))
        with pytest.raises(ValueError, match="share one precision"):
            UnboundedQuadruple(d64, d64, d64, d32)


# -------------------------------------------------------------- round trip


class TestRoundTrip:
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("convention", ["theoremA", "lemmaFactorisation"])
    def test_factor_recovers_synthesized_seeds(self, k, convention):
        rng = random.Random(10 * k + len(convention))
        s = SignedQuadruple(*(rand_elem(rng, P64) for _ in range(4)))
        q = synthesize(s, k, convention)
        out = factor_signed(q, k, convention)
        for sign in ("plus", "minus", "dot", "circ"):
            assert elements_equal(out.by_sign(sign), s.by_sign(sign))

    @pytest.mark.parametrize("k", [0, 1])
    def test_roundtrip_keeps_digits_on_the_seed_support(self, k):
        rng = random.Random(3 + k)
        s = SignedQuadruple(*(rand_elem(rng, P64, deg=6) for _ in range(4)))
        out = factor_signed(synthesize(s, k), k)
        for sign in ("plus", "minus", "dot", "circ"):
            for comp in out.by_sign(sign).components:
                for c in comp.a[:7]:
                    assert c.val is None or c.val + c.rel >= 5

    @pytest.mark.parametrize("k", [0, 1])
    def test_the_log_margin_keeps_digits_of_deeper_coordinates(self, k):
        # coordinates synthesized 40 digits above the window they are
        # divided in: the signed logs' work margin (_log_margin) lets the
        # quotients keep more than the window's 20 digits on the seed
        # support (33/33/27/27 at k = 0, 38/39/32/32 at k = 1); with no
        # margin they keep 17/17/11/11 and 14/15/8/8
        deep = Precision(5, 60, 64)
        rng = random.Random(3)
        s = SignedQuadruple(*(rand_elem(rng, deep) for _ in range(4)))
        u = synthesize(s, k)
        out = factor_signed(UnboundedQuadruple(*(d.with_p_prec(20) for d in u.vector())), k)
        for sign in ("plus", "minus", "dot", "circ"):
            elem = out.by_sign(sign)
            assert elements_equal(elem, s.by_sign(sign).with_p_prec(20))
            for comp in elem.components:
                for c in comp.a[:7]:
                    assert c.val is None or c.val + c.rel > 20, (sign, c)

    def test_zero_maps_to_zero(self):
        s = SignedQuadruple(*(zero_elem(P64) for _ in range(4)))
        q = synthesize(s, 0)
        for d in q.vector():
            assert d.body.is_zero_to_precision
        out = factor_signed(q, 0)
        for sign in ("plus", "minus", "dot", "circ"):
            assert out.by_sign(sign).is_zero_to_precision

    @pytest.mark.parametrize("k, convention", [(0, "theoremA"), (1, "lemmaFactorisation")])
    def test_a_second_roundtrip_builds_no_divisor_plan(self, k, convention):
        # every division at a window is by the same logs, so the plans the
        # first roundtrip built serve the second one
        rng = random.Random(7 + k)
        s = SignedQuadruple(*(rand_elem(rng, P32) for _ in range(4)))
        factor_signed(synthesize(s, k, convention), k, convention)
        before = _divisor_plan.cache_info()
        factor_signed(synthesize(s, k, convention), k, convention)
        after = _divisor_plan.cache_info()
        assert after.misses == before.misses and after.hits > before.hits

    def test_output_order_tags_are_k_plus_one(self):
        rng = random.Random(4)
        s = SignedQuadruple(*(rand_elem(rng, P64) for _ in range(4)))
        q = synthesize(s, 1)
        assert all(d.order_tag == 2 for d in q.vector())

    def test_overclaimed_growth_rejected(self):
        rng = random.Random(5)
        body = rand_elem(rng, P64)
        fat = Distribution(body, Fraction(5))
        slim = Distribution(body, Fraction(0))
        with pytest.raises(ValueError, match="growth beyond"):
            factor_signed(UnboundedQuadruple(fat, slim, slim, slim), 0)

    @pytest.mark.parametrize("fat_slots", [(0, 1, 2, 3), (1,), (3,)])
    def test_report_rejects_overclaimed_growth_like_factor_signed(self, fat_slots):
        # zero bodies divide by anything, so only the growth check can refuse
        q = UnboundedQuadruple(*(
            Distribution(zero_elem(P64), Fraction(5 if i in fat_slots else 0))
            for i in range(4)
        ))
        with pytest.raises(ValueError, match="growth beyond"):
            factor_signed(q, 0)
        with pytest.raises(ValueError, match="growth beyond"):
            factor_report(q, 0)

    @given(st.lists(st.integers(min_value=-30, max_value=30), min_size=3, max_size=5),
           st.integers(min_value=0, max_value=1))
    @settings(max_examples=8, deadline=None)
    def test_roundtrip_property_single_slot(self, coeffs, k):
        s = SignedQuadruple(
            poly_elem(P64, [coeffs] * 4),
            zero_elem(P64),
            zero_elem(P64),
            zero_elem(P64),
        )
        out = factor_signed(synthesize(s, k), k)
        assert elements_equal(out.bf_plus, s.bf_plus)
        for sign in ("minus", "dot", "circ"):
            assert out.by_sign(sign).is_zero_to_precision


# ----------------------------------------------- explicit inverse patterns


class TestSynthesizePatterns:
    def test_dot_only_input_gives_opposite_diagonal_coordinates(self):
        # with only the symmetric cross seed, the eigen-coordinates are
        # log*b/(4 alpha) on the diagonal with opposite signs, 0 off it
        rng = random.Random(6)
        k = 1
        b = rand_elem(rng, P64)
        s = SignedQuadruple(zero_elem(P64), zero_elem(P64), b, zero_elem(P64))
        q = synthesize(s, k)
        assert elements_equal(q.L_aa.body, q.L_mm.scale(-1).body)
        assert q.L_am.body.is_zero_to_precision
        assert q.L_ma.body.is_zero_to_precision
        log = pollack_log(LogKind("full", k + 1, shift=1), P64)
        alpha = QuadExtScalar.alpha(P64, k, 1)
        want = (log * Distribution(b, Fraction(0))).scale(alpha.inverse()).scale(
            Fraction(1, 4)
        )
        assert q.L_aa.body == want.body

    def test_symmetric_input_has_equal_mixed_coordinates(self):
        rng = random.Random(7)
        s = SignedQuadruple(
            rand_elem(rng, P64), rand_elem(rng, P64), rand_elem(rng, P64),
            zero_elem(P64),
        )
        q = synthesize(s, 0)
        assert elements_equal(q.L_am.body, q.L_ma.body)


# -------------------------------------------- engineered divisibility gap


class TestDivisibilityGap:
    # The witness for a missing degree-d cyclotomic divisor is the remainder
    # on the way down the X-window: each descent of the window past the
    # divisor recovers one trusted digit, while the dividend's own growth
    # drags the trust floor down.  The plus-side divisors have degree
    # p(p-1) = 20, so the window must be many multiples of that deep before
    # the certificate outruns the growth: 160 for k = 0, 288 for k = 1.
    # (The minus side certifies through degree-4 divisors and detects at any
    # of these windows.)
    @pytest.mark.parametrize(("k", "x_window"), [(0, 160), (1, 288)])
    def test_half_depth_logs_fail_rows_one_and_two(self, k, x_window):
        # seeds multiplied by the r = k+1 signed logs satisfy only the
        # shallow divisibility; rows 1-2 of the factorization demand r = 2k+2
        rng = random.Random(8 + k)
        conv = CONVENTIONS["theoremA"]
        base = Precision(5, 20, x_window)
        work = base.with_p_prec(base.p_prec + 40)
        rows = []
        for sign in conv.row_signs:
            lk = conv.log_kind(sign, k)
            if sign in ("plus", "minus"):
                lk = LogKind(lk.kind, k + 1, shift=lk.shift)
            log = pollack_log(lk, work)
            seed = rand_elem(rng, base).with_p_prec(work.p_prec)
            rows.append(log * Distribution(seed, Fraction(0)))
        from iwa.dieudonne import change_of_basis

        _, M_inv = change_of_basis(work, k, 1)
        acc = []
        for i in range(4):
            v = rows[0].scale(M_inv[i][0])
            for jj in range(1, 4):
                v = v + rows[jj].scale(M_inv[i][jj])
            acc.append(v.with_p_prec(base.p_prec))
        q = UnboundedQuadruple(*acc)

        report = factor_report(q, k)
        assert report["ok"] is False
        by_row = {r["row"]: r for r in report["rows"]}
        assert by_row[1]["ok"] is False and by_row[2]["ok"] is False
        assert by_row[3]["ok"] is True and by_row[4]["ok"] is True
        failure = by_row[1]["failure"]
        assert failure["error"] == "divisibility-failure"
        assert "degree" in failure

        with pytest.raises(DivisibilityError) as exc:
            factor_signed(q, k)
        assert exc.value.row in ("row 1 (plus)", "row 2 (minus)")


# ----------------------------------------------------------- mock modules


class TestMockModule:
    def test_seed_shape_enforced(self):
        rng = random.Random(9)
        good = tuple(rand_elem(rng, P32) for _ in range(4))
        with pytest.raises(ValueError, match="seed tuple"):
            MockGlobalModule(0, (good, good[:3]))

    def test_local_coordinates_of_basis_are_log_multiples(self):
        rng = random.Random(11)
        k = 0
        G = rand_mock(rng, k, P32)
        loc = local_coordinates(G, (1, 0))
        for sign, slot in (("circ", 0), ("dot", 1), ("plus", 2), ("minus", 3)):
            got = coleman_extract(loc, sign, k) if sign != "circ" else None
            if got is not None:
                assert elements_equal(got, G.seed(0, sign))
        assert loc[0].prec == P32

    def test_a_zero_coefficient_builds_no_log_image(self, monkeypatch):
        G = rand_mock(random.Random(11), 0, P32)
        built = []

        def log_rows(k, conv, prec, bounded):
            built.append(bounded.args)
            return real(k, conv, prec, bounded)

        real = signed_module._log_rows
        monkeypatch.setattr(signed_module, "_log_rows", log_rows)
        local_coordinates(G, (1, 0))
        assert built == [(0,)]
        built.clear()
        local_coordinates(G, (0, 0))
        assert built == []

    def test_coleman_rejects_antisymmetric_slot(self):
        rng = random.Random(12)
        G = rand_mock(rng, 0, P32)
        loc = local_coordinates(G, (0, 1))
        with pytest.raises(ValueError, match="no Coleman map"):
            coleman_extract(loc, "circ", 0)

    def test_coleman_zero_vector_gives_zero(self):
        rng = random.Random(13)
        G = rand_mock(rng, 0, P32)
        loc = local_coordinates(G, (0, 0))
        out = coleman_extract(loc, "dot", 0)
        assert out.is_zero_to_precision

    def test_symmetric_mock_factors_with_vanishing_circ(self):
        rng = random.Random(14)
        k = 1
        G = rand_mock(rng, k, P32, circ_zero=True)
        q = unbounded_coordinates(G, (1, 1))
        assert elements_equal(q.L_am.body, q.L_ma.body)
        s = factor_signed(q, k)
        assert s.bf_circ.is_zero_to_precision
        assert not s.bf_dot.is_zero_to_precision


# --------------------------------------------------------- rank reduction


class TestRankReduction:
    def test_swap_antisymmetry(self):
        rng = random.Random(15)
        G = rand_mock(rng, 0, P32)
        swapped = MockGlobalModule(G.k, (G.seeds[1], G.seeds[0]), G.convention)
        a1, b1 = pr_rank_reduce(G, "aa")
        a2, b2 = pr_rank_reduce(swapped, "aa")
        # pr = a*Y1 + b*Y2; in the swapped module Y1' = Y2, so matching up
        # the underlying vectors means a' = -b and b' = -a
        assert elements_equal(a2.body, b1.scale(-1).body)
        assert elements_equal(b2.body, a1.scale(-1).body)

    def test_degenerate_first_vector(self):
        rng = random.Random(16)
        zero_row = tuple(zero_elem(P32) for _ in range(4))
        live_row = tuple(rand_elem(rng, P32) for _ in range(4))
        G = MockGlobalModule(0, (zero_row, live_row))
        on_y1, on_y2 = pr_rank_reduce(G, "am")
        assert on_y2.body.is_zero_to_precision
        assert not on_y1.body.is_zero_to_precision

    def test_bad_pair_label(self):
        rng = random.Random(17)
        G = rand_mock(rng, 0, P32)
        with pytest.raises(ValueError, match="lam_mu"):
            pr_rank_reduce(G, "ab")

    def test_pr_rows_divide_by_lemma_log_column(self):
        # assembled pr-coordinates, pushed through M, stay in the log-scaled
        # lattice: every row divides exactly, with quotients of order k+1
        rng = random.Random(18)
        k = 0
        conv = CONVENTIONS["lemmaFactorisation"]
        G = rand_mock(rng, k, P32, convention="lemmaFactorisation")
        pr = pr_rank_reduce(G, "aa")
        q = unbounded_coordinates(G, pr)
        with pytest.raises(ValueError, match="growth beyond"):
            factor_signed(q, k, conv)

        from iwa.dieudonne import change_of_basis

        work = P32.with_p_prec(P32.p_prec + 40)
        M, _ = change_of_basis(work, k, 1)
        vec = tuple(d.with_p_prec(work.p_prec) for d in q.vector())
        for i, sign in enumerate(conv.row_signs):
            row = vec[0].scale(M[i][0])
            for jj in range(1, 4):
                row = row + vec[jj].scale(M[i][jj])
            log = pollack_log(conv.log_kind(sign, k), work)
            quotient = divide_exact(row, log)
            assert quotient.order_tag == k + 1


# ------------------------------------------------------ doubly signed data


class TestDoublySigned:
    def test_swap_negates(self):
        rng = random.Random(19)
        G = rand_mock(rng, 0, P32)
        for pair in (("plus", "minus"), ("plus", "dot"), ("minus", "dot")):
            v = doubly_signed_pair(G, pair)
            w = doubly_signed_pair(G, pair[::-1])
            assert elements_equal(v, w.scale(-1))

    def test_degenerate_second_vector_gives_zero(self):
        rng = random.Random(20)
        live = tuple(rand_elem(rng, P32) for _ in range(4))
        dead = tuple(zero_elem(P32) for _ in range(4))
        G = MockGlobalModule(0, (live, dead))
        assert doubly_signed_pair(G, ("plus", "minus")).is_zero_to_precision

    def test_pair_label_validation(self):
        rng = random.Random(21)
        G = rand_mock(rng, 0, P32)
        with pytest.raises(ValueError, match="distinct"):
            doubly_signed_pair(G, ("plus", "plus"))
        with pytest.raises(ValueError, match="distinct"):
            doubly_signed_pair(G, ("circ", "plus"))

    def test_matches_seed_determinant(self):
        # the pairing is the 2x2 determinant of the seeds in the two slots
        rng = random.Random(22)
        G = rand_mock(rng, 0, P32)
        v = doubly_signed_pair(G, ("plus", "minus"))
        det = (
            G.seed(0, "minus") * G.seed(1, "plus")
            - G.seed(1, "minus") * G.seed(0, "plus")
        )
        assert elements_equal(v, det)


# ------------------------------------------- the combination identity


class TestColemanCombination:
    @pytest.mark.parametrize("k", [0, 1])
    def test_eigen_coordinate_recombines_from_signed_extractions(self, k):
        # L_(alpha,alpha) = (log-/4) Col- + (log+/(4 alpha^2)) Col+
        #                   + (log/(4 alpha)) Col*   [lemma row order]
        rng = random.Random(23 + k)
        G = rand_mock(rng, k, P32, convention="lemmaFactorisation")
        z = (1, 1)
        loc = local_coordinates(G, z)
        q = unbounded_coordinates(G, z)
        col = {
            sign: coleman_extract(loc, sign, k, "lemmaFactorisation")
            for sign in ("plus", "minus", "dot")
        }
        alpha = QuadExtScalar.alpha(P32, k, 1)
        logs = {
            sign: pollack_log(
                CONVENTIONS["lemmaFactorisation"].log_kind(sign, k), P32
            )
            for sign in ("plus", "minus", "dot")
        }
        rhs = (
            (logs["minus"] * Distribution(col["minus"], Fraction(0))).scale(
                Fraction(1, 4)
            )
            + (logs["plus"] * Distribution(col["plus"], Fraction(0))).scale(
                alpha.alpha_sq().inverse()
            ).scale(Fraction(1, 4))
            + (logs["dot"] * Distribution(col["dot"], Fraction(0))).scale(
                alpha.inverse()
            ).scale(Fraction(1, 4))
        )
        assert q.L_aa.body == rhs.body

    def test_identity_on_a_rank_reduced_class(self):
        rng = random.Random(25)
        k = 0
        G = rand_mock(rng, k, P32, convention="lemmaFactorisation")
        pr = pr_rank_reduce(G, "ma")
        loc = local_coordinates(G, pr)
        q = unbounded_coordinates(G, pr)
        col = {
            sign: coleman_extract(loc, sign, k, "lemmaFactorisation")
            for sign in ("plus", "minus", "dot")
        }
        alpha = QuadExtScalar.alpha(P32, k, 1)
        logs = {
            sign: pollack_log(
                CONVENTIONS["lemmaFactorisation"].log_kind(sign, k), P32
            )
            for sign in ("plus", "minus", "dot")
        }
        rhs = (
            (logs["minus"] * Distribution(col["minus"], Fraction(0))).scale(
                Fraction(1, 4)
            )
            + (logs["plus"] * Distribution(col["plus"], Fraction(0))).scale(
                alpha.alpha_sq().inverse()
            ).scale(Fraction(1, 4))
            + (logs["dot"] * Distribution(col["dot"], Fraction(0))).scale(
                alpha.inverse()
            ).scale(Fraction(1, 4))
        )
        assert q.L_aa.body == rhs.body


# ------------------------------------------ the matrix against the fold


def quadruple_fingerprint(q):
    return tuple(
        (d.order_tag, d.cyclo_factors, d.truncation_level, fingerprint_element(d.body))
        if isinstance(d, Distribution) else fingerprint_element(d)
        for d in q.vector()
    )


def fingerprint_element(elem: IwasawaElement):
    def series(s):
        parts = tuple(None if x is None else (x.off, x.cells, x.abs_precs) for x in (s._a, s._b))
        return s.prec, s.is_polynomial, s.form, parts

    return elem.prec, elem.u, tuple(series(s) for s in elem.components)


def divide_outcome(fn, *args):
    """The quotients' fingerprint, or the payload of the DivisibilityError raised."""
    try:
        return quadruple_fingerprint(fn(*args))
    except DivisibilityError as e:
        return e.payload()


class TestMatrixAgainstTheFold:
    """_mat_apply (one linear combination per row and component, M cached)
    against the scale-then-add fold over a freshly built M, at the windows
    and seeds of the benchmark's roundtrip and gap-reject cases."""

    @staticmethod
    def both_paths(monkeypatch, run):
        got = run()
        with monkeypatch.context() as m:
            m.setattr(signed_module, "_mat_apply", reference_mat_apply)
            m.setattr(signed_module, "change_of_basis", change_of_basis.__wrapped__)
            want = run()
        return got, want

    @pytest.mark.parametrize(
        ("p", "k", "convention"),
        [(5, 0, "theoremA"), (5, 1, "theoremA"), (5, 1, "lemmaFactorisation"), (7, 1, "theoremA")],
    )
    def test_roundtrip_cases(self, monkeypatch, p, k, convention):
        prec = Precision(p, 20, 64)
        rng = random.Random(901 + p + k)
        s = SignedQuadruple(*(rand_elem(rng, prec) for _ in range(4)))

        def run():
            q = synthesize(s, k, convention)
            return (
                quadruple_fingerprint(q),
                divide_outcome(factor_signed, q, k, convention),
                factor_report(q, k, convention),
            )

        got, want = self.both_paths(monkeypatch, run)
        assert got == want

    @pytest.mark.parametrize(("k", "x_window"), [(0, 160), (0, 64), (1, 64)])
    def test_gap_reject_cases(self, monkeypatch, k, x_window):
        rng = random.Random(901 + k + x_window)
        conv = CONVENTIONS["theoremA"]
        base = Precision(5, 20, x_window)
        work = base.with_p_prec(base.p_prec + 40)
        rows = []
        for sign in conv.row_signs:
            lk = conv.log_kind(sign, k)
            if sign in ("plus", "minus"):
                lk = LogKind(lk.kind, k + 1, shift=lk.shift)
            seed = rand_elem(rng, base).with_p_prec(work.p_prec)
            rows.append(pollack_log(lk, work) * Distribution(seed, Fraction(0)))
        _, M_inv = change_of_basis(work, k, 1)
        coords = UnboundedQuadruple(*reference_mat_apply(M_inv, rows))
        kernel = UnboundedQuadruple(*signed_module._mat_apply(M_inv, rows))
        assert quadruple_fingerprint(kernel) == quadruple_fingerprint(coords)
        q = UnboundedQuadruple(*(d.with_p_prec(base.p_prec) for d in coords.vector()))

        def run():
            return factor_report(q, k), divide_outcome(factor_signed, q, k)

        got, want = self.both_paths(monkeypatch, run)
        assert got == want
        assert got[0]["ok"] is False and isinstance(got[1], dict)


# ------------------------------------------------------ refusals and edges


@pytest.mark.parametrize("sign, exc, fragment", [
    pytest.param("bogus", ValueError, "sign must be one of", id="bad-sign"),
    # a slot that its log does not divide: the division's failure names the row
    pytest.param("plus", DivisibilityError, "cyclotomic certificate at level 2", id="plus"),
    pytest.param("minus", DivisibilityError, "cyclotomic certificate at level 1", id="minus"),
    pytest.param("dot", DivisibilityError, "cyclotomic certificate at level 0", id="dot"),
])
def test_coleman_named_errors(sign, exc, fragment):
    one = Distribution(IwasawaElement.one(P32))
    local = (Distribution(zero_elem(P32)), one, one, one)
    with pytest.raises(exc, match=fragment) as info:
        coleman_extract(local, sign, 0)
    assert info.type is exc
    if exc is DivisibilityError:
        assert info.value.row == sign


def weight_calls(k):
    """Each entry point that takes a weight parameter, called with k."""
    one = Distribution(IwasawaElement.one(P32))
    coords = UnboundedQuadruple(one, one, one, one)
    seeds = tuple(zero_elem(P32) for _ in range(4))
    return {
        "synthesize": lambda: synthesize(SignedQuadruple(*seeds), k),
        "factor_signed": lambda: factor_signed(coords, k),
        "factor_report": lambda: factor_report(coords, k),
        "coleman_extract": lambda: coleman_extract((one, one, one, one), "plus", k),
        "MockGlobalModule": lambda: MockGlobalModule(k, (seeds, seeds)),
    }


@pytest.mark.parametrize("k", [-1, 1.5, Fraction(1)], ids=["negative", "float", "fraction"])
@pytest.mark.parametrize("entry", list(weight_calls(0)))
def test_a_bad_weight_is_refused_before_any_log(entry, k, monkeypatch):
    # one named ValueError, raised before a signed log is built or looked up
    def no_log(*args):
        raise AssertionError("a log was built for a bad weight")

    monkeypatch.setattr(signed_module, "_log", no_log)
    want = f"weight parameter k must be an integer >= 0, not {k!r}"
    with pytest.raises(ValueError) as info:
        weight_calls(k)[entry]()
    assert info.type is ValueError and str(info.value) == want
