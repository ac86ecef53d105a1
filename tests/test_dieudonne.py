"""Frobenius modules, their squares, and the 4x4 eigenbasis change."""

from __future__ import annotations

import re

import pytest

from iwa.dieudonne import (
    PhiModule,
    _filtration_from_weights,
    change_of_basis,
    dcris_of_form,
    det,
    dual,
    eigenvectors_dual,
    fil_dim,
    mat_vec,
    split_sym_square,
    sym_square,
    wedge_square,
)
from iwa.scalars import Precision, QuadExtScalar, teichmuller
from iwa.signed import _work_prec
from oracles import charpoly, gauss_inverse, is_identity, kron, mat_mul, poly_mul

PREC = Precision(5, 20, 1)


def zero_vec(v):
    return all(c.is_zero_to_precision for c in v)


@pytest.fixture(params=[(5, 0, 1), (5, 2, 1), (7, 1, 3), (5, 1, -1)])
def setting(request):
    p, k, eps = request.param
    prec = Precision(p, 20, 1)
    return p, k, eps, prec, dcris_of_form(p, k, eps, prec)


class TestDcris:
    def test_example_matrix_p5_k2(self):
        D = dcris_of_form(5, 2, 1, PREC)
        # phi(omega) = 125*omega2, phi(omega2) = -omega
        w = (QuadExtScalar.one(PREC, 2, 1), QuadExtScalar.zero(PREC, 2, 1))
        w2 = (QuadExtScalar.zero(PREC, 2, 1), QuadExtScalar.one(PREC, 2, 1))
        assert zero_vec([a - b for a, b in zip(D.phi(w), (w2[0] * 0, w2[1] * 125))])
        assert zero_vec([a - b for a, b in zip(D.phi(w2), (-w[0], w[1] * 0))])

    def test_phi_squared_is_alpha_squared(self, setting):
        p, k, eps, prec, D = setting
        asq = QuadExtScalar.alpha(prec, k, eps) ** 2
        A2 = mat_mul(D.phi_matrix, D.phi_matrix)
        for i in range(2):
            for j in range(2):
                want = asq if i == j else asq * 0
                assert (A2[i][j] - want).is_zero_to_precision

    def test_det_phi(self, setting):
        p, k, eps, prec, D = setting
        want = teichmuller(eps, prec) * (p ** (k + 1))
        assert (det(D.phi_matrix) - want).is_zero_to_precision

    def test_filtration_jumps(self):
        D = dcris_of_form(5, 2, 1, PREC)
        assert D.filtration == ((0, 2), (1, 1), (4, 0))
        assert [fil_dim(D, i) for i in (-1, 0, 1, 3, 4, 9)] == [2, 2, 1, 1, 0, 0]
        assert D.hodge_tate_weights() == [0, 3]

    def test_rejects_mismatched_precision_prime(self):
        with pytest.raises(ValueError, match="different prime"):
            dcris_of_form(7, 1, 1, PREC)


class TestSquares:
    def test_sym_square_shape_and_filtration(self, setting):
        p, k, eps, prec, D = setting
        S = sym_square(D)
        assert S.dim == 3
        breaks = [(0, 3), (1, 2), (k + 2, 1), (2 * k + 3, 0)]
        for i, d in breaks:
            assert fil_dim(S, i) == d
        assert fil_dim(S, k + 1) == 2
        assert fil_dim(S, 2 * k + 2) == 1

    def test_sym_square_functorial_on_omega_tensor(self, setting):
        # phi(omega^2) must be phi(omega)^2 = p^(2k+2) * omega2^2
        p, k, eps, prec, D = setting
        S = sym_square(D)
        e1sq = (
            QuadExtScalar.one(prec, k, eps),
            QuadExtScalar.zero(prec, k, eps),
            QuadExtScalar.zero(prec, k, eps),
        )
        img = S.phi(e1sq)
        assert img[0].is_zero_to_precision
        assert img[1].is_zero_to_precision
        assert (img[2] - p ** (2 * k + 2)).is_zero_to_precision

    def test_wedge_is_det_line(self, setting):
        p, k, eps, prec, D = setting
        W = wedge_square(D)
        assert W.dim == 1
        assert (W.phi_matrix[0][0] - det(D.phi_matrix)).is_zero_to_precision
        assert W.hodge_tate_weights() == [k + 1]

    def test_squares_tile_the_tensor_square(self, setting):
        # charpoly(phi (x) phi) = charpoly(Sym^2 phi) * charpoly(wedge phi)
        p, k, eps, prec, D = setting
        lhs = charpoly(kron(D.phi_matrix, D.phi_matrix))
        rhs = poly_mul(
            charpoly(sym_square(D).phi_matrix),
            charpoly(wedge_square(D).phi_matrix),
        )
        assert len(lhs) == len(rhs) == 5
        assert all((a - b).is_zero_to_precision for a, b in zip(lhs, rhs))

    def test_sym_square_requires_rank_two(self, setting):
        p, k, eps, prec, D = setting
        with pytest.raises(ValueError, match="rank 2"):
            sym_square(sym_square(D))


class TestSplitting:
    def test_line_carries_alpha_squared(self, setting):
        p, k, eps, prec, D = setting
        line, plane = split_sym_square(sym_square(D))
        asq = QuadExtScalar.alpha(prec, k, eps) ** 2
        assert line.dim == 1
        assert (line.phi_matrix[0][0] - asq).is_zero_to_precision

    def test_plane_charpoly_is_x2_minus_alpha4(self, setting):
        p, k, eps, prec, D = setting
        _, plane = split_sym_square(sym_square(D))
        a4 = QuadExtScalar.alpha(prec, k, eps) ** 4
        c0, c1, c2 = charpoly(plane.phi_matrix)
        assert (c0 + a4).is_zero_to_precision  # constant term -alpha^4
        assert c1.is_zero_to_precision
        assert (c2 - 1).is_zero_to_precision

    def test_filtration_dims_add_up(self, setting):
        p, k, eps, prec, D = setting
        S = sym_square(D)
        line, plane = split_sym_square(S)
        for i in range(-1, 2 * k + 5):
            assert fil_dim(line, i) + fil_dim(plane, i) == fil_dim(S, i)

    def test_rejects_other_provenance(self, setting):
        p, k, eps, prec, D = setting
        with pytest.raises(ValueError, match="sym_square"):
            split_sym_square(D)


class TestDualEigenvectors:
    def test_phi_squared_on_dual_is_inverse_alpha_squared(self, setting):
        p, k, eps, prec, D = setting
        Ds = dual(D)
        inv_asq = (QuadExtScalar.alpha(prec, k, eps) ** 2).inverse()
        A2 = mat_mul(Ds.phi_matrix, Ds.phi_matrix)
        for i in range(2):
            assert (A2[i][i] - inv_asq).is_zero_to_precision
        assert A2[0][1].is_zero_to_precision and A2[1][0].is_zero_to_precision

    def test_eigen_relation(self, setting):
        p, k, eps, prec, D = setting
        Ds = dual(D)
        alpha = QuadExtScalar.alpha(prec, k, eps)
        v_plus, v_minus = eigenvectors_dual(Ds)
        for lam, v in ((alpha, v_plus), (-alpha, v_minus)):
            img = Ds.phi(v)
            scaled = tuple(c * lam.inverse() for c in v)
            assert zero_vec([a - b for a, b in zip(img, scaled)])

    def test_sum_and_difference(self, setting):
        # v_a + v_{-a} = 2 phi(omega'), v_a - v_{-a} = (2/alpha) omega'
        p, k, eps, prec, D = setting
        v_plus, v_minus = eigenvectors_dual(dual(D))
        alpha = QuadExtScalar.alpha(prec, k, eps)
        s = tuple(a + b for a, b in zip(v_plus, v_minus))
        assert s[0].is_zero_to_precision
        assert (s[1] - 2).is_zero_to_precision
        d = tuple(a - b for a, b in zip(v_plus, v_minus))
        assert (d[0] - alpha.inverse() * 2).is_zero_to_precision
        assert d[1].is_zero_to_precision

    def test_dual_weights_negated(self):
        D = dcris_of_form(5, 2, 1, PREC)
        assert dual(D).hodge_tate_weights() == [-3, 0]

    def test_eigenvectors_need_dual(self):
        D = dcris_of_form(5, 2, 1, PREC)
        with pytest.raises(ValueError, match="dual"):
            eigenvectors_dual(D)


class TestChangeOfBasis:
    def test_inverse_certified(self, setting):
        p, k, eps, prec, _ = setting
        M, M_inv = change_of_basis(prec, k, eps)
        assert is_identity(mat_mul(M, M_inv))
        assert is_identity(mat_mul(M_inv, M))

    def test_built_once_per_window_and_form(self, setting):
        p, k, eps, prec, _ = setting
        M, M_inv = change_of_basis(prec, k, eps)
        again = change_of_basis(Precision(p, prec.p_prec, prec.x_prec), k, eps)
        assert again[0] is M and again[1] is M_inv
        assert change_of_basis(prec.with_p_prec(prec.p_prec + 1), k, eps)[0] is not M

    def test_closed_form_of_inverse(self, setting):
        # M_inv must agree with (1/4) * rows built from alpha^{-1}, alpha^{-2},
        # in the fixture's window and in the elevated window factor_signed
        # builds M in; cell for cell with the elimination where it is nonzero,
        # and exactly zero where the closed form is
        p, k, eps, prec, _ = setting
        for window in (prec, _work_prec(k, Precision(p, 20, 64))):
            M, M_inv = change_of_basis(window, k, eps)
            one = QuadExtScalar.one(window, k, eps)
            ia = QuadExtScalar.alpha(window, k, eps).inverse()
            ia2 = ia * ia
            z = one * 0
            quarter = one / 4
            expected = (
                (one, ia2, ia, z),
                (one, ia2, -ia, z),
                (one, -ia2, z, -ia),
                (one, -ia2, z, ia),
            )
            for got_row, want_row, ref_row in zip(M_inv, expected, gauss_inverse(M)):
                for g, w, ref in zip(got_row, want_row, ref_row):
                    assert (g - w * quarter).is_zero_to_precision
                    if w.is_exact_zero:
                        assert g.is_exact_zero
                        continue
                    for x, y in ((g.a, ref.a), (g.b, ref.b)):
                        assert (x.val, x.unit, x.rel) == (y.val, y.unit, y.rel)

    def test_columns_are_tensors_of_dual_eigenvectors(self, setting):
        # column (lambda, mu) reads (c_ff, alpha^4 c_ww, alpha^2 (c_wf + c_fw),
        # alpha^2 (c_fw - c_wf)) off v_lambda (x) v_mu, in the basis (w', phi(w'))
        p, k, eps, prec, D = setting
        M, _ = change_of_basis(prec, k, eps)
        v_plus, v_minus = eigenvectors_dual(dual(D))
        asq = QuadExtScalar.alpha(prec, k, eps) ** 2
        pairs = ((v_plus, v_plus), (v_minus, v_minus), (v_plus, v_minus), (v_minus, v_plus))
        for col, (v_lam, v_mu) in enumerate(pairs):
            c_ww, c_wf = v_lam[0] * v_mu[0], v_lam[0] * v_mu[1]
            c_fw, c_ff = v_lam[1] * v_mu[0], v_lam[1] * v_mu[1]
            want = (c_ff, asq * asq * c_ww, asq * (c_wf + c_fw), asq * (c_fw - c_wf))
            assert tuple(row[col] for row in M) == want

    def test_frozen_products(self):
        M, _ = change_of_basis(PREC, 2, 1)
        one = QuadExtScalar.one(PREC, 2, 1)
        z = one * 0
        asq = QuadExtScalar.alpha(PREC, 2, 1) ** 2
        v = mat_vec(M, (one, one, one, one))
        for got, want in zip(v, (one * 4, z, z, z)):
            assert (got - want).is_zero_to_precision
        v = mat_vec(M, (one, one, z, z))
        for got, want in zip(v, (one * 2, asq * 2, z, z)):
            assert (got - want).is_zero_to_precision


# ------------------------------------------------------ refusals and edges


def _module(matrix, filtration=((0, 2), (1, 1), (2, 0)), labels=("e1", "e2")):
    return PhiModule(len(labels), labels, matrix, filtration, 1, 1, PREC)


_ONE = QuadExtScalar.one(PREC, 1, 1)
_ZERO = QuadExtScalar.zero(PREC, 1, 1)
_UNIPOTENT = ((_ONE, _ONE), (_ZERO, _ONE))


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: _module(_UNIPOTENT, labels=("e1",)),
                 "basis and matrix sizes must match dim", id="sizes"),
    pytest.param(lambda: _module(_UNIPOTENT, filtration=((0, 1), (1, 2))),
                 "filtration dimensions must be weakly decreasing", id="filtration"),
    pytest.param(lambda: _module(((_ONE, _ONE), (_ONE, _ONE))),
                 "phi must be invertible", id="singular-phi"),
    pytest.param(lambda: wedge_square(sym_square(dcris_of_form(5, 1, 1, PREC))),
                 "alternating square is implemented for rank 2 only", id="wedge-rank"),
    pytest.param(lambda: split_sym_square(sym_square(_module(_UNIPOTENT))),
                 "symmetric square does not split along the monomial basis", id="split"),
    pytest.param(lambda: dual(_module(_UNIPOTENT)),
                 "dual basis (omega', phi omega') is set up for dcris modules", id="dual"),
])
def test_named_errors(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)) as info:
        call()
    assert info.type is ValueError


def test_repeated_weight_moves_the_jump_and_default_precision():
    # weights {0, 0}: Fil^0 is everything and Fil^1 nothing, one jump at 1
    assert _filtration_from_weights([0, 0], 2) == ((0, 2), (1, 0))
    assert _filtration_from_weights([0, 2, 2], 3) == ((0, 3), (1, 2), (3, 0))
    assert dcris_of_form(5, 1, 1).prec == Precision(5, 20, 1)
