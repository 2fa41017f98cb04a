import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi

from mvop.family import (assemble_P, f_wr, h_from_f, reexpand_in_t,
                         spherical_profile, t_recursion_residual,
                         vanishing_orders)
from mvop.linalg import VectorPoly
from mvop.operators import apply_D_u, apply_E_u
from mvop.params import ParamError, Params, in_S, lambda_eig, mu_eig
from mvop.structure import build_structure

P0 = Params.integer(n=2, k=1, ell=1, m=0)

GRID = [
    P0,
    Params.integer(n=2, k=1, ell=2, m=1),
    Params.integer(n=3, k=2, ell=1, m=0),
    Params.integer(n=3, k=1, ell=2, m=1),
]


def test_f00_is_constant_e0():
    ef = f_wr(P0, 0, 0)
    assert ef.poly.degree == 0
    assert np.allclose(ef.poly.coeffs, [[1.0, 0.0]], rtol=0, atol=1e-14)


def test_f01_constant_with_eigen_action():
    ef = f_wr(P0, 0, 1)
    assert ef.poly.degree == 0
    assert ef.poly.coeffs[0, 0] == 1.0
    st0 = build_structure(P0)
    DF = apply_D_u(st0, ef.poly)
    EF = apply_E_u(st0, ef.poly)
    scale = ef.poly.max_abs
    assert np.abs(DF.coeffs - (-2.0) * pad_like(ef.poly, DF).coeffs).max() <= 1e-12 * scale
    assert np.abs(EF.coeffs - 2.0 * pad_like(ef.poly, EF).coeffs).max() <= 1e-12 * scale


def pad_like(F, ref):
    out = np.zeros((ref.degree + 1, F.dim))
    out[: F.degree + 1] = F.coeffs
    return VectorPoly(out)


def test_f10_degree_one_normalized():
    ef = f_wr(P0, 1, 0)
    assert ef.poly.degree == 1
    assert ef.poly.coeffs[0, 0] == 1.0


def test_label_outside_S_raises():
    with pytest.raises(ParamError, match="outside"):
        f_wr(P0, 0, 2)


@pytest.mark.parametrize("params", GRID, ids=str)
def test_degree_and_leading_shape(params):
    for w in range(4):
        for r in range(params.ell + 1):
            if not in_S(params, w, r):
                continue
            ef = f_wr(params, w, r)
            assert ef.poly.degree == w
            lead = ef.poly.coeffs[-1]
            scale = ef.poly.max_abs
            assert abs(lead[r]) > 1e-10 * scale
            if r + 1 <= params.ell:
                assert np.abs(lead[r + 1:]).max() <= 1e-10 * scale


@pytest.mark.parametrize("params", GRID, ids=str)
def test_eigenfunction_operator_residuals(params):
    st0 = build_structure(params)
    for w in range(4):
        for r in range(params.ell + 1):
            if not in_S(params, w, r):
                continue
            ef = f_wr(params, w, r, st0)
            lam = lambda_eig(params, w, r)
            mu = mu_eig(params, w, r)
            scale = max(1.0, ef.poly.max_abs)
            DF = apply_D_u(st0, ef.poly)
            EF = apply_E_u(st0, ef.poly)
            assert np.abs(DF.coeffs - lam * pad_like(ef.poly, DF).coeffs).max() <= 1e-9 * scale
            assert np.abs(EF.coeffs - mu * pad_like(ef.poly, EF).coeffs).max() <= 1e-9 * scale


def test_assemble_P_shapes_and_triangularity():
    pkg = assemble_P(P0, 0)
    assert pkg.P.degree == 0
    lead = pkg.P.coeffs[-1]
    assert abs(lead[0, 1]) <= 1e-12
    assert abs(lead[0, 0]) > 0 and abs(lead[1, 1]) > 0

    pkg2 = assemble_P(P0, 2)
    assert pkg2.P.degree == 2
    assert np.abs(np.triu(pkg2.P.coeffs[-1], 1)).max() <= 1e-10 * np.abs(pkg2.P.coeffs).max()


@pytest.mark.parametrize("n,k,m", [(2, 1, 0), (3, 2, 1), (3, 1, 2)])
def test_scalar_reduction_matches_jacobi_polynomials(n, k, m):
    # at ell=0 the family collapses to classical Jacobi polynomials in 2u-1,
    # normalized to 1 at u=0; scipy provides the independent oracle
    p = Params.integer(n=n, k=k, ell=0, m=m)
    us = np.linspace(0.0, 1.0, 9)
    for w in range(5):
        ef = f_wr(p, w, 0)
        mine = np.array([ef.poly.evaluate_at(u)[0] for u in us])
        jac = eval_jacobi(w, m, n - 1, 2 * us - 1)
        jac = jac / eval_jacobi(w, m, n - 1, -1.0)
        assert np.abs(mine - jac).max() <= 1e-12


def test_h_from_f_frozen_at_P0():
    ef = f_wr(P0, 0, 0)
    H = h_from_f(P0, ef.poly)
    assert H.degree == 0
    assert np.allclose(H.coeffs, [[1.0, 1.0]], rtol=0, atol=1e-14)


@pytest.mark.parametrize("params", GRID, ids=str)
def test_h_at_zero_is_all_ones(params):
    for (w, r) in [(0, 0), (1, 0), (2, params.ell)]:
        if not in_S(params, w, r):
            continue
        H = h_from_f(params, f_wr(params, w, r).poly)
        assert np.abs(H.coeffs[0] - 1.0).max() <= 1e-12


def test_h_at_zero_collapses_general_input():
    # only the first component survives at u=0, scaled onto the all-ones vector
    rng = np.random.default_rng(7)
    F = VectorPoly(rng.uniform(-1, 1, size=(4, 3)))
    p = Params.integer(n=2, k=1, ell=2, m=0)
    H = h_from_f(p, F)
    assert np.abs(H.coeffs[0] - F.coeffs[0, 0]).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
def test_reexpand_in_t_is_substitution(vals):
    F = VectorPoly(np.array(vals).reshape(3, 2))
    G = reexpand_in_t(F)
    for t in (0.0, 0.3, 0.71, 1.0):
        lhs = G.evaluate_at(t)
        rhs = F.evaluate_at(1.0 - t)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, F.max_abs)


def test_reexpand_in_t_at_degree_70_gives_the_signed_binomials():
    # Column p of the identity is u^p = sum_j (-1)^j binom(p, j) t^j. int64 binomials
    # overflow from degree 67; float ones stay correctly rounded.
    G = reexpand_in_t(VectorPoly(np.eye(71)))
    exact = np.array([[(-1.0) ** j * math.comb(p, j) for p in range(71)] for j in range(71)])
    assert exact.max() > 1e20
    assert (np.abs(G.coeffs - exact) <= 1e-12 * np.abs(exact)).all()


def test_profile_at_zero_is_all_ones():
    for (w, r) in [(0, 0), (1, 1), (2, 0)]:
        prof = spherical_profile(P0, w, r, [0.0])
        assert np.abs(prof - 1.0).max() <= 1e-12


def test_profile_of_f00_is_pure_power():
    thetas = np.array([0.2, 0.7, 1.2])
    prof = spherical_profile(P0, 0, 0, thetas)
    m, ell = 0, 1
    for i, th in enumerate(thetas):
        t = math.cos(th) ** 2
        for s in range(ell + 1):
            assert prof[i, s] == pytest.approx(t ** ((m + ell - s) / 2.0), abs=1e-14)


def test_profile_decays_toward_equator():
    # s < m + ell carries a positive power of cos^2(theta)
    prof = spherical_profile(P0, 0, 0, [1.5707])
    assert abs(prof[0, 0]) < 1e-3
    assert prof[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_profile_rejects_closed_endpoint():
    with pytest.raises(ParamError, match="pi/2"):
        spherical_profile(P0, 0, 0, [math.pi / 2])


def test_t_recursion_exact_for_constant_family_member():
    ef = f_wr(P0, 0, 0)
    lam = lambda_eig(P0, 0, 0)
    assert t_recursion_residual(P0, ef.poly, lam) <= 1e-15


@pytest.mark.parametrize("params", GRID, ids=str)
def test_t_recursion_on_eigenfunctions(params):
    st0 = build_structure(params)
    for w in range(4):
        for r in range(params.ell + 1):
            if not in_S(params, w, r):
                continue
            ef = f_wr(params, w, r, st0)
            lam = lambda_eig(params, w, r)
            assert t_recursion_residual(params, ef.poly, lam, st0) <= 1e-9


def test_t_recursion_negative_control():
    rng = np.random.default_rng(3)
    F = VectorPoly(rng.uniform(-1, 1, size=(4, 2)))
    assert t_recursion_residual(P0, F, -4.0) > 1e-3


def test_vanishing_orders_need_negative_m():
    with pytest.raises(ParamError, match="not applicable"):
        vanishing_orders(P0, f_wr(P0, 1, 0).poly)
    pj = Params.jacobi(alpha=0.5, beta=1.5, k=1, ell=1)
    with pytest.raises(ParamError, match="not applicable"):
        vanishing_orders(pj, f_wr(pj, 1, 0).poly)


def test_vanishing_orders_frozen_cases():
    p = Params.integer(n=2, k=1, ell=1, m=-1)
    assert vanishing_orders(p, f_wr(p, 1, 1).poly) == [0, 1]
    assert vanishing_orders(p, f_wr(p, 1, 0).poly) == [0, 1]

    p0 = Params.integer(n=2, k=1, ell=0, m=-1)
    assert vanishing_orders(p0, f_wr(p0, 1, 0).poly) == [1]


def test_vanishing_orders_lower_bound():
    for (n, k, ell, m) in [(2, 1, 1, -1), (3, 2, 2, -1), (2, 1, 2, -2)]:
        p = Params.integer(n=n, k=k, ell=ell, m=m)
        for w in range(4):
            for r in range(ell + 1):
                if not in_S(p, w, r):
                    continue
                orders = vanishing_orders(p, f_wr(p, w, r).poly)
                for s, order in enumerate(orders):
                    assert order >= max(0, s - m - ell)
