import numpy as np
import pytest

from mvop.params import Params, lambda_eig, mu_of_lambda
from mvop.spectral import (EigenvalueCollisionError, build_M, charpoly_residual,
                           eigvec, m_superdiagonal)
from mvop.structure import build_structure

P0 = Params.integer(n=2, k=1, ell=1, m=0)
ST0 = build_structure(P0)


def test_superdiagonal_closed_form_frozen():
    assert np.array_equal(m_superdiagonal(P0), [-1.5])
    p = Params.integer(n=3, k=2, ell=2, m=1)
    s = np.arange(2.0)
    expected = -(2 - s) * (3 + s - 2) * (3 + s - 1) * (3 + s + 2) * (s + 2) / (
        (3 + 2 * s - 1) * (3 + 2 * s))
    assert np.allclose(m_superdiagonal(p), expected, rtol=0, atol=0)
    assert (m_superdiagonal(p) < 0).all()


def test_M_superdiagonal_is_lambda_independent():
    for lam in (0.0, -4.0, 7.3):
        M = build_M(ST0, lam).matrix
        assert M[0, 1] == pytest.approx(-1.5, rel=1e-12)
    p = Params.integer(n=3, k=1, ell=2, m=1)
    st = build_structure(p)
    sup_a = np.diag(build_M(st, -2.2).matrix, 1)
    sup_b = np.diag(build_M(st, 5.0).matrix, 1)
    assert np.allclose(sup_a, sup_b, rtol=0, atol=1e-10)
    assert np.allclose(sup_a, m_superdiagonal(p), rtol=1e-12, atol=1e-12)
    assert (np.abs(sup_a) > 1e-10).all()


def test_M_at_zero_has_frozen_spectrum():
    M = build_M(ST0, 0.0).matrix
    eig = np.sort(np.linalg.eigvals(M).real)
    assert np.allclose(eig, [0.0, 2.0], rtol=0, atol=1e-12)


def test_eigvec_solves_full_system():
    for (w, r) in [(0, 0), (0, 1), (1, 0), (1, 1), (3, 1)]:
        lam = lambda_eig(P0, w, r)
        mu = mu_of_lambda(P0, r, lam)
        v = eigvec(ST0, lam, r)
        assert v[0] == 1.0
        M = build_M(ST0, lam).matrix
        assert np.abs(M @ v - mu * v).max() <= 1e-10 * np.linalg.norm(v)


def test_eigvec_frozen_value():
    # r=1 eigenvector of M(lambda(0,1)) is the constant term of that eigenfunction
    v = eigvec(ST0, lambda_eig(P0, 0, 1), 1)
    assert np.allclose(v, [1.0, -2.0], rtol=0, atol=1e-13)


def test_eigvec_collision_detected():
    # mu_0(lam) = lam and mu_1(lam) = 2 at P0 cross at lam = 2
    with pytest.raises(EigenvalueCollisionError, match="collision"):
        eigvec(ST0, 2.0, 0)


def test_charpoly_residual_small_on_spectrum():
    for p in (P0, Params.integer(n=3, k=2, ell=2, m=0), Params.jacobi(0.5, 1.5, 1, 2)):
        st = build_structure(p)
        for w in range(4):
            for r in range(p.ell + 1):
                lam = lambda_eig(p, w, r)
                assert charpoly_residual(st, lam) <= 1e-7


def test_build_M_scalar_case():
    # ell = 0 collapses M(lambda) to the 1x1 matrix (mu_0(lambda))
    p = Params.integer(n=2, k=1, ell=0, m=3)
    st = build_structure(p)
    for lam in (0.0, -4.0, 2.5):
        M = build_M(st, lam).matrix
        assert M.shape == (1, 1)
        assert M[0, 0] == pytest.approx(mu_of_lambda(p, 0, lam), rel=1e-12, abs=1e-12)
