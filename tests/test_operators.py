import numpy as np
import pytest

from mvop.family import _t_recursion_table, f_wr, h_from_f, reexpand_in_t
from mvop.linalg import VectorPoly
from mvop.operators import (_conjugation_residuals, _second_order, _tilde_t, apply_D_t,
                            apply_D_u, apply_E_t, apply_E_u, conjugation_residual,
                            hypergeometric_action)
from mvop.params import Params
from mvop.structure import build_structure

P0 = Params.integer(n=2, k=1, ell=1, m=0)
ST0 = build_structure(P0)

GRID = [Params.integer(n=2, k=1, ell=1, m=0),
        Params.integer(n=3, k=1, ell=2, m=1),
        Params.integer(n=3, k=2, ell=2, m=0)]


def test_D_u_on_constants_frozen():
    # on constants the operator reduces to -V; (1,0) spans the kernel at P0
    assert apply_D_u(ST0, VectorPoly.constant([1.0, 0.0])).max_abs == 0.0
    out = apply_D_u(ST0, VectorPoly.constant([0.0, 1.0]))
    assert np.array_equal(out.coeffs, [[1.0, -2.0]])


def test_E_u_on_constants_frozen():
    # on constants the second operator reduces to -(m-k)V = +V at P0
    out = apply_E_u(ST0, VectorPoly.constant([0.0, 1.0]))
    assert np.array_equal(out.coeffs, [[-1.0, 2.0]])


def test_hypergeometric_action_matches_sampled_derivatives():
    """Coefficient transform against direct evaluation of x(1-x)F'' + (C-xU)F' - VF."""
    rng = np.random.default_rng(5)
    C = rng.uniform(-1, 1, (3, 3)) + 3 * np.eye(3)
    U = rng.uniform(-1, 1, (3, 3))
    V = rng.uniform(-1, 1, (3, 3))
    F = VectorPoly(rng.uniform(-1, 1, (5, 3)))
    out = hypergeometric_action(C, U, V, F)
    dF = F.derivative()
    ddF = dF.derivative()
    for x in (0.13, 0.5, 0.92):
        direct = (x * (1 - x) * ddF.evaluate_at(x)
                  + (C - x * U) @ dF.evaluate_at(x)
                  - V @ F.evaluate_at(x))
        assert np.allclose(out.evaluate_at(x), direct, rtol=1e-12, atol=1e-12)


# A Jacobi set, so that m - k and n are both nonzero and non-integer.
PJ = Params.jacobi(alpha=2.5, beta=1.5, k=1, ell=2)
ST = build_structure(PJ)
MK = PJ.m_eff - PJ.k
LAM = 2.5
EYE = np.eye(3)

# Each operator's coefficient transform, and the operator itself written out on
# F(x), F'(x), F''(x) at a point x.
OPERATORS = {
    "D_u": (
        lambda c: apply_D_u(ST, VectorPoly(c)).coeffs,
        lambda x, f, df, ddf: (x * (1 - x) * ddf + (ST.U - ST.C - x * ST.U) @ df - ST.V @ f)),
    "E_u": (
        lambda c: apply_E_u(ST, VectorPoly(c)).coeffs,
        lambda x, f, df, ddf: ((1 - x) * (ST.M0 - ST.M1 + x * ST.M1) @ ddf
                               + (ST.P1 - ST.P0 - x * ST.P1) @ df - MK * ST.V @ f)),
    "tilde_D": (
        lambda c: _tilde_t(ST, "D", c),
        lambda x, f, df, ddf: x * (1 - x) * ddf + (ST.C - x * ST.U) @ df - ST.V @ f),
    "tilde_E": (
        lambda c: _tilde_t(ST, "E", c),
        lambda x, f, df, ddf: (x * (ST.M0 - x * ST.M1) @ ddf + (ST.P0 - x * ST.P1) @ df
                               - MK * ST.V @ f)),
    # -(1-t)(D_t + lam)H, the operator whose t-power rows are the recursion.
    "t_recursion": (
        lambda c: _second_order(c, _t_recursion_table(ST, LAM)),
        lambda x, f, df, ddf: ((1 - x) * (x * (1 - x) * ddf
                                          + (ST.A0 - x * (ST.A0 + PJ.n_eff * EYE)) @ df)
                               + (ST.B0 + x * ST.B1) @ f - LAM * (1 - x) * f)),
}


@pytest.mark.parametrize("name", OPERATORS)
def test_operator_table_matches_sampled_derivatives(name):
    """Each table's coefficient transform against the operator evaluated at three points."""
    transform, direct = OPERATORS[name]
    F = VectorPoly(np.random.default_rng(9).uniform(-1, 1, (5, 3)))
    out = VectorPoly(transform(F.coeffs))
    dF = F.derivative()
    ddF = dF.derivative()
    for x in (0.13, 0.5, 0.92):
        want = direct(x, F.evaluate_at(x), dF.evaluate_at(x), ddF.evaluate_at(x))
        assert np.allclose(out.evaluate_at(x), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("params", GRID)
def test_u_operators_commute(params):
    st = build_structure(params)
    rng = np.random.default_rng(11)
    F = VectorPoly(rng.uniform(-1, 1, (6, params.ell + 1)))
    DE = apply_D_u(st, apply_E_u(st, F))
    ED = apply_E_u(st, apply_D_u(st, F))
    scale = max(1.0, DE.max_abs)
    assert (DE - ED).max_abs <= 1e-13 * scale


def test_D_t_kills_constant_all_ones():
    # H = (1,...,1)^t is the w=0 profile; rows of B0 and B1 sum to zero
    out = apply_D_t(ST0, VectorPoly.constant([1.0, 1.0]))
    assert out.max_abs == 0.0


def test_D_t_rejects_input_outside_domain():
    # (1,0)^t is not Psi times a polynomial, so the (1-t) division must fail
    with pytest.raises(ValueError, match="not divisible"):
        apply_D_t(ST0, VectorPoly.constant([1.0, 0.0]))


@pytest.mark.parametrize("params", GRID)
def test_t_operators_have_minus_lambda_eigenvalues(params):
    """apply_D_t(Psi F_{w,r}) = -lambda H and apply_E_t gives -mu H in the t variable."""
    st = build_structure(params)
    for (w, r) in [(0, 0), (1, 0), (2, params.ell)]:
        ef = f_wr(params, w, r, st)
        H = reexpand_in_t(h_from_f(params, ef.poly))
        scale = max(1.0, H.max_abs * max(1.0, abs(ef.spectral.lam)))
        dres = (apply_D_t(st, H) - H.scale(-ef.spectral.lam)).max_abs
        eres = (apply_E_t(st, H) - H.scale(-ef.spectral.mu)).max_abs
        assert dres <= 1e-9 * scale
        assert eres <= 1e-9 * scale


@pytest.mark.parametrize("params", GRID)
@pytest.mark.parametrize("which", ["D", "E"])
def test_conjugation_residual_random_polys(params, which):
    st = build_structure(params)
    rng = np.random.default_rng(17)
    samples = rng.uniform(0.05, 0.95, 8)
    for _ in range(10):
        F = VectorPoly(rng.uniform(-1, 1, (5, params.ell + 1)))
        assert conjugation_residual(st, F, samples, which) <= 1e-9


@pytest.mark.parametrize("params", GRID + [Params.jacobi(alpha=0.5, beta=1.5, k=1, ell=2)])
def test_batched_conjugation_matches_the_per_polynomial_loop(params):
    """The stacked check of eigen/conjugation against one conjugation_residual call per polynomial."""
    st = build_structure(params)
    rng = np.random.default_rng(20240601)
    samples = rng.uniform(0.05, 0.95, size=8)
    stack = rng.uniform(-1.0, 1.0, size=(50, 5, params.ell + 1))
    for which in ("D", "E"):
        batched = _conjugation_residuals(st, stack, samples, which).max()
        looped = max(conjugation_residual(st, VectorPoly(c), samples, which) for c in stack)
        assert abs(batched - looped) <= 1e-14


def test_conjugation_rejects_endpoint_samples():
    F = VectorPoly.constant([1.0, 0.0])
    with pytest.raises(ValueError, match="samples"):
        conjugation_residual(ST0, F, [0.0, 0.5])


def test_conjugation_rejects_unknown_operator():
    with pytest.raises(ValueError, match="'D' or 'E'"):
        conjugation_residual(ST0, VectorPoly.constant([1.0, 0.0]), [0.5], "Q")
