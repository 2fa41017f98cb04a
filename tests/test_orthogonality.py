import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

import mvop
from mvop.family import f_wr
from mvop.orthogonality import (GramResult, WeightSpec, _gj_rule, gen_binom,
                                gram, inner_mat, inner_vec,
                                max_block_offdiag_ratio, max_offdiag_ratio,
                                quad_rule, weight_V_at, weight_W_at)
from mvop.params import ParamError, Params
from mvop.structure import psi_at

P0 = Params.integer(n=2, k=1, ell=1, m=0)


def test_quad_rule_exactness_frozen():
    u, w = quad_rule(2)
    assert np.dot(w, u**2) == pytest.approx(1.0 / 3.0, abs=1e-15)
    u, w = quad_rule(8)
    # Beta(6, 4) = 5! 3! / 9!
    assert np.dot(w, u**5 * (1 - u) ** 3) == pytest.approx(1.0 / 504.0, abs=1e-16)


def test_quad_rule_rejects_negative_degree():
    with pytest.raises(ParamError):
        quad_rule(-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 6))
def test_gen_binom_matches_comb_on_integers(x, j):
    assert gen_binom(x, j) == pytest.approx(math.comb(x, j), rel=1e-15)


def test_gen_binom_general_values():
    assert gen_binom(2.5, 0) == 1.0
    assert gen_binom(-1.3, 0) == 1.0
    assert gen_binom(0.5, 2) == pytest.approx(0.5 * (-0.5) / 2.0, rel=1e-15)


def test_weight_rejects_negative_m():
    p = Params.integer(n=2, k=1, ell=1, m=-1)
    with pytest.raises(ParamError, match="weight undefined"):
        weight_V_at(p, 0.5)


def test_weight_V_frozen_values():
    assert np.allclose(weight_V_at(P0, 1.0), np.diag([0.0, 4.0]), rtol=0, atol=1e-15)
    assert np.abs(weight_V_at(P0, 0.0)).max() == 0.0
    V_half = weight_V_at(P0, 0.5)
    assert V_half[0, 0] > 0 and V_half[1, 1] > 0
    assert V_half[0, 1] == 0.0


@pytest.mark.parametrize("params", [
    P0,
    Params.integer(n=2, k=1, ell=2, m=1),
    Params.integer(n=3, k=2, ell=2, m=0),
    Params.jacobi(alpha=0.5, beta=1.5, k=1, ell=2),
], ids=str)
def test_weight_W_matches_conjugated_V(params):
    for u in (0.11, 0.4, 0.73, 0.99):
        W = weight_W_at(params, u)
        psi = psi_at(params, u)
        ref = psi.T @ weight_V_at(params, u) @ psi
        assert np.abs(W - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        assert np.array_equal(W, W.T)


@pytest.mark.parametrize("params", [
    P0,
    Params.integer(n=3, k=1, ell=2, m=1),
    Params.jacobi(alpha=0.5, beta=1.5, k=1, ell=1),
], ids=str)
def test_weight_W_positive_definite_inside(params):
    for u in (0.05, 0.5, 0.95):
        eig = np.linalg.eigvalsh(weight_W_at(params, u))
        assert eig.min() > 0.0


def test_inner_vec_diagonal_positive_and_orthogonal():
    wspec = WeightSpec(P0)
    f00 = f_wr(P0, 0, 0).poly
    f01 = f_wr(P0, 0, 1).poly
    f10 = f_wr(P0, 1, 0).poly
    n00 = inner_vec(wspec, f00, f00)
    n01 = inner_vec(wspec, f01, f01)
    assert n00 > 0 and n01 > 0
    assert abs(inner_vec(wspec, f00, f01)) <= 1e-12 * math.sqrt(n00 * n01)
    n10 = inner_vec(wspec, f10, f10)
    assert abs(inner_vec(wspec, f00, f10)) <= 1e-12 * math.sqrt(n00 * n10)


def test_inner_mat_block_symmetry():
    from mvop.family import assemble_P
    wspec = WeightSpec(P0)
    P1 = assemble_P(P0, 1).P
    blk = inner_mat(wspec, P1, P1)
    assert blk.shape == (2, 2)
    assert np.abs(blk - blk.T).max() <= 1e-12 * np.abs(blk).max()
    assert np.linalg.eigvalsh(blk).min() > 0


@pytest.mark.parametrize("params", [
    P0,
    Params.integer(n=2, k=1, ell=2, m=1),
    Params.integer(n=3, k=2, ell=1, m=1),
    Params.jacobi(alpha=0.5, beta=1.5, k=1, ell=2),
], ids=str)
def test_gram_off_diagonals_vanish(params):
    res = gram(WeightSpec(params), wmax=3)
    assert max_offdiag_ratio(res.matrix) <= 1e-9
    assert max_block_offdiag_ratio(res) <= 1e-9


def test_gram_labels_cover_S():
    res = gram(WeightSpec(P0), wmax=2)
    assert res.labels == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert res.matrix.shape == (6, 6)
    assert (np.diag(res.matrix) > 0).all()


def test_jacobi_twin_matches_integer_inner_products():
    # alpha = m, beta = n-1 runs the same family through the other quadrature
    p_int = Params.integer(n=2, k=1, ell=1, m=1)
    p_jac = Params.jacobi(alpha=1.0, beta=1.0, k=1, ell=1)
    wi, wj = WeightSpec(p_int), WeightSpec(p_jac)
    for (w, r) in [(0, 0), (0, 1), (1, 0), (2, 1)]:
        fi = f_wr(p_int, w, r).poly
        fj = f_wr(p_jac, w, r).poly
        assert np.abs(fi.coeffs - fj.coeffs).max() == 0.0
        a = inner_vec(wi, fi, fi)
        b = inner_vec(wj, fj, fj)
        assert b == pytest.approx(a, rel=1e-12)


def test_gram_rejects_negative_wmax():
    with pytest.raises(ParamError, match="wmax >= 0 violated"):
        gram(WeightSpec(P0), -1)


def test_gram_rejects_negative_m():
    p = Params.integer(n=2, k=1, ell=1, m=-1)
    with pytest.raises(ParamError, match="weight undefined"):
        gram(WeightSpec(p), wmax=1)


def test_weight_poly_prefactor_scales_inner_products():
    # the scalar 2n prefactor is part of the weight; halving params.n changes it
    wspec = WeightSpec(P0)
    f00 = f_wr(P0, 0, 0).poly
    base = inner_vec(wspec, f00, f00)
    direct = 0.0
    u, wq = quad_rule(8)
    for ui, wi in zip(u, wq):
        val = f00.evaluate_at(ui)
        direct += wi * val @ weight_W_at(P0, ui) @ val
    assert base == pytest.approx(direct, rel=1e-13)


def _w_frame_gram(params, labels, wmax):
    """Reference Gram matrix: F_j^t W F_i at Gauss-Legendre nodes, W(u) from weight_W_at."""
    u, wq = quad_rule(2 * wmax + params.m + 3 * params.ell + params.n - 1)
    polys = [f_wr(params, w, r).poly for w, r in labels]
    vals = np.array([[F.evaluate_at(x) for x in u] for F in polys])
    W = np.array([weight_W_at(params, x) for x in u])
    return np.einsum("q,iqa,qab,jqb->ij", wq, vals, W, vals)


def _scaled_gap(a, b, d_rows, d_cols):
    """Largest |a - b| entry over sqrt(d_i d_j), the scale of the ratio checks."""
    return float((np.abs(a - b) / np.sqrt(np.outer(d_rows, d_cols))).max())


@pytest.mark.parametrize("spec,wmax", [((3, 1, 2, 1), 4), ((2, 1, 1, 0), 6), ((4, 2, 3, 2), 4)],
                         ids=str)
def test_gram_matches_w_frame_reference(spec, wmax):
    p = Params.integer(*spec)
    res = gram(WeightSpec(p), wmax)
    ref = _w_frame_gram(p, res.labels, wmax)
    d = np.diag(ref)
    assert _scaled_gap(res.matrix, ref, d, d) <= 1e-10
    index = {lab: i for i, lab in enumerate(res.labels)}
    for (w, wp), block in res.blocks.items():
        rows = [index[(w, r)] for r in range(p.ell + 1)]
        cols = [index[(wp, r)] for r in range(p.ell + 1)]
        assert _scaled_gap(block, res.matrix[np.ix_(rows, cols)], d[rows], d[cols]) <= 1e-12
    if spec == (3, 1, 2, 1):
        twin = gram(WeightSpec(Params.jacobi(float(p.m), float(p.n - 1), p.k, p.ell)), wmax)
        assert _scaled_gap(twin.matrix, res.matrix, d, d) <= 1e-12


def _loop_offdiag_ratio(matrix):
    """Elementwise form of max_offdiag_ratio, kept as its reference."""
    d = np.sqrt(np.diag(matrix))
    worst = 0.0
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[0]):
            if i != j:
                worst = max(worst, abs(matrix[i, j]) / (d[i] * d[j]))
    return worst


def _loop_block_ratio(result):
    """Elementwise form of max_block_offdiag_ratio, kept as its reference."""
    norms = {(w, r): math.sqrt(block[r, r]) for (w, wp), block in result.blocks.items()
             if w == wp for r in range(block.shape[0])}
    worst = 0.0
    for (w, wp), block in result.blocks.items():
        for r in range(block.shape[0]):
            for rp in range(block.shape[1]):
                if (w, r) != (wp, rp):
                    worst = max(worst, abs(block[r, rp]) / (norms[(w, r)] * norms[(wp, rp)]))
    return worst


@pytest.mark.parametrize("seed", range(6))
def test_ratio_helpers_equal_their_loop_form(seed):
    rng = np.random.default_rng(seed)
    dim, wmax = int(rng.integers(1, 5)), int(rng.integers(0, 5))
    a = rng.standard_normal((dim * (wmax + 1),) * 2)
    matrix = a @ a.T
    assert max_offdiag_ratio(matrix) == _loop_offdiag_ratio(matrix)
    blocks = {(w, wp): rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-12, 1)
              for w in range(wmax + 1) for wp in range(w, wmax + 1)}
    for w in range(wmax + 1):
        np.fill_diagonal(blocks[(w, w)], rng.uniform(0.5, 2.0, dim))
    res = GramResult(labels=[], matrix=matrix, blocks=blocks)
    assert max_block_offdiag_ratio(res) == _loop_block_ratio(res)


def test_offdiag_ratio_of_a_single_label_is_zero():
    assert max_offdiag_ratio(np.array([[2.0]])) == 0.0
    single = GramResult(labels=[(0, 0)], matrix=np.array([[2.0]]), blocks={(0, 0): np.array([[2.0]])})
    assert max_block_offdiag_ratio(single) == 0.0


def test_gauss_jacobi_cache_is_bounded():
    for i in range(300):
        _gj_rule(2, 1.0 + i / 300.0, 0.5)
    assert _gj_rule.cache_info().currsize <= 256


# Gauss-Jacobi draws: npts in 1..30 and exponents in (-1, 12], plus npts = 1,
# a + b = 0, a + b = -1 (the reduced matrix entries), a = b and a + b >= 169
# (the mass from lgamma).
_GJ_RNG = np.random.default_rng(20261020)
GJ_CASES = [(int(n), float(a), float(b)) for n, a, b in
            zip(_GJ_RNG.integers(1, 31, 300), 12.0 - 13.0 * _GJ_RNG.random(300), 12.0 - 13.0 * _GJ_RNG.random(300))]
GJ_CASES += [(1, 0.3, 2.0), (1, -0.6, -0.7), (1, 0.0, 0.0), (5, 0.7, -0.7), (12, -0.4, 0.4), (2, 0.0, 0.0),
             (7, -0.3, -0.7), (2, -0.9, -0.1), (6, 2.5, 2.5), (9, -0.5, -0.5), (30, 11.0, 11.0), (30, -0.99, -0.99),
             (5, 150.0, 30.0), (12, 0.5, 180.0)]


def test_gauss_jacobi_rule_matches_scipy():
    """scipy's roots_jacobi as the oracle. It loses accuracy itself when both
    exponents are near -1 (nodes 3.7e-14 off a 50-digit reference at
    (21, -0.9973, -0.9968)); the moment test covers that corner."""
    for npts, a, b in GJ_CASES:
        u, w = _gj_rule(npts, a, b)
        x_ref, w_ref = roots_jacobi(npts, a, b)
        assert np.abs((2.0 * u - 1.0) - x_ref).max() <= 1e-14, (npts, a, b)
        assert np.abs(w * 2.0 ** (a + b + 1.0) - w_ref).max() <= 1e-10 * w_ref.max(), (npts, a, b)


def test_gauss_jacobi_rule_moments_and_mass():
    """The rule integrates u^j, j < 2 npts, against u^b (1-u)^a exactly: moment
    ratios prod_{i<j} (b+i+1)/(a+b+i+2), total mass B(a+1, b+1).

    A node next to an end where the weight is singular is only known to an ulp of
    x in [-1,1]; that moves its weight by eps |a|/(1-x) (or eps |b|/(1+x)),
    which the moment tolerance adds to 1e-13. The term matters only when a or
    b is near -1. The mass is checked against exact values at integer a, b.
    """
    eps = np.finfo(float).eps
    for npts, a, b in GJ_CASES:
        u, w = _gj_rule(npts, a, b)
        j = np.arange(2 * npts)
        exact = np.cumprod(np.concatenate([[1.0], (b + j[:-1] + 1.0) / (a + b + j[:-1] + 2.0)]))
        moments = (w[:, None] * u[:, None] ** j).sum(axis=0) / w.sum()
        endpoint = eps * max(abs(a) / (2.0 * (1.0 - u.max())), abs(b) / (2.0 * u.min()))
        assert np.abs(moments - exact).max() <= 1e-13 + endpoint, (npts, a, b)
    for a in range(13):
        for b in range(13):
            mass = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 1)
            for npts in (1, 2, 9, 30):
                assert _gj_rule(npts, float(a), float(b))[1].sum() == pytest.approx(mass, rel=1e-14, abs=0)


def test_mvop_commands_import_no_scipy():
    """scipy is a test-only dependency: one process that imports mvop and runs
    verify in both modes, gram in both modes and walk loads no scipy module."""
    src = str(Path(mvop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    integer = ["--n", "3", "--k", "1", "--ell", "2", "--m", "1", "--wmax", "2"]
    jacobi = ["--jacobi", "--alpha", "0.5", "--beta", "1.5", "--k", "1", "--ell", "2", "--wmax", "2"]
    runs = [["verify", *integer], ["verify", *jacobi], ["gram", *integer], ["gram", *jacobi],
            ["walk", *integer, "--steps", "500"]]
    code = ("import contextlib, io, sys\nimport mvop\nfrom mvop import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rcs = [cli.main(argv) for argv in {runs!r}]\n"
            "print(rcs, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0] []"
