import hashlib

import numpy as np
import pytest
from scipy.special import eval_jacobi

from mvop.params import ParamError, Params, in_S
from mvop.recurrence import a_sq, b_sq, blocks, three_term_residual, walk

P0 = Params.integer(n=2, k=1, ell=1, m=0)

GRID = [
    P0,
    Params.integer(n=2, k=1, ell=2, m=1),
    Params.integer(n=3, k=2, ell=1, m=0),
    Params.integer(n=3, k=1, ell=2, m=1),
    Params.jacobi(alpha=0.5, beta=1.5, k=1, ell=2),
]


def test_a_sq_frozen_at_origin():
    assert a_sq(P0, "1", 0, 0) == pytest.approx(0.5, rel=1e-15)
    assert a_sq(P0, "k+1", 0, 0) == pytest.approx(0.5, rel=1e-15)
    assert a_sq(P0, "n+1", 0, 0) == 0.0


def test_b_sq_frozen_at_origin():
    assert b_sq(P0, "1", "1", 0, 0) == pytest.approx(0.25, rel=1e-15)
    assert b_sq(P0, "n+1", "1", 0, 0) == pytest.approx(0.75, rel=1e-15)


def test_bad_direction_selector_raises():
    with pytest.raises(ParamError):
        a_sq(P0, "2", 0, 0)
    with pytest.raises(ParamError):
        a_sq(P0, 1, 0, 0)


def test_A0_vanishes_for_every_m():
    for m in range(4):
        p = Params.integer(n=2, k=1, ell=2, m=m)
        assert np.abs(blocks(p, 0).A).max() == 0.0


def test_blocks_frozen_at_P0():
    bl = blocks(P0, 0)
    assert np.allclose(bl.B, [[0.375, 0.25], [0.125, 0.35]], rtol=0, atol=1e-15)
    assert np.allclose(bl.C, [[0.375, 0.0], [0.125, 0.4]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("params", GRID, ids=str)
def test_rows_are_stochastic(params):
    for w in range(5):
        bl = blocks(params, w)
        total = bl.A + bl.B + bl.C
        assert np.abs(total.sum(axis=1) - 1.0).max() <= 1e-12
        for M in (bl.A, bl.B, bl.C):
            assert M.min() >= -1e-14
            assert M.max() <= 1.0 + 1e-12


def test_three_term_residual_small():
    for params in GRID:
        for w in range(5):
            tol = 1e-10 if w == 0 else 1e-9
            assert three_term_residual(params, w) <= tol


@pytest.mark.parametrize("n,k,m", [(2, 1, 0), (3, 2, 1), (3, 1, 2)])
def test_scalar_blocks_match_jacobi_recursion(n, k, m):
    # independent oracle: classical Jacobi polynomials from scipy satisfy the
    # same (1-u)-multiplication recursion once normalized at u=0
    p = Params.integer(n=n, k=k, ell=0, m=m)

    def f(w, u):
        return eval_jacobi(w, m, n - 1, 2 * u - 1) / eval_jacobi(w, m, n - 1, -1.0)

    for w in range(1, 5):
        bl = blocks(p, w)
        A, B, C = bl.A[0, 0], bl.B[0, 0], bl.C[0, 0]
        for u in np.linspace(0.05, 0.95, 7):
            lhs = (1 - u) * f(w, u)
            rhs = A * f(w - 1, u) + B * f(w, u) + C * f(w + 1, u)
            assert lhs == pytest.approx(rhs, abs=1e-13)


def test_walk_deterministic_for_fixed_seed():
    t1 = walk(P0, 200, seed=9)
    t2 = walk(P0, 200, seed=9)
    assert t1 == t2
    t3 = walk(P0, 200, seed=10)
    assert t1 != t3


# SHA-256 of the 20000-step path from (0, 0), one "w,r" line per state.
PINNED_WALKS = {
    (Params.integer(n=3, k=1, ell=2, m=1), 7):
        "e91d73b02e4838d5febefcfa760ffc6d14061acd3f5c0350b03bfc0c4770d732",
    (Params.integer(n=3, k=1, ell=2, m=1), 2024):
        "8a7a8e777cce93285b0ccf861772d0cfdf5fed0a2db76348d73ada276125588c",
    (Params.jacobi(alpha=0.5, beta=1.5, k=1, ell=2), 7):
        "24ab36d7a7604d6391df5d22c73518cc3cd6d7ec1388bf13c6bbf2d2f33a0cbe",
    (Params.jacobi(alpha=0.5, beta=1.5, k=1, ell=2), 2024):
        "fa75b5f038fb58c2428033fbca128e1bba5e452e02f6fa20b182ca2fc51f3f7b",
}


@pytest.mark.parametrize("params, seed", list(PINNED_WALKS))
def test_walk_trajectory_pinned(params, seed):
    path = walk(params, 20000, seed=seed)
    text = "".join(f"{w},{r}\n" for w, r in path)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_WALKS[params, seed]


def test_walk_zero_steps_returns_start():
    assert walk(P0, 0, seed=1) == [(0, 0)]
    assert walk(P0, 0, seed=1, start=(2, 1)) == [(2, 1)]


def test_walk_rejects_bad_start():
    with pytest.raises(ParamError):
        walk(P0, 10, seed=0, start=(-1, 0))
    with pytest.raises(ParamError):
        walk(P0, 10, seed=0, start=(0, 5))


def test_walk_stays_in_S():
    for seed in range(5):
        traj = walk(P0, 500, seed=seed)
        for (w, r) in traj:
            assert in_S(P0, w, r)
        for (wa, _), (wb, _) in zip(traj, traj[1:]):
            assert abs(wb - wa) <= 1


def test_walk_visits_transitions_with_observed_frequencies():
    # short calibration: empirical frequencies near block entries with slack;
    # the tight binomial-error version runs in the acceptance suite
    p = Params.integer(n=2, k=1, ell=1, m=0)
    traj = walk(p, 30000, seed=77)
    moves = {}
    for (wa, ra), (wb, rb) in zip(traj, traj[1:]):
        moves[(wa, ra, wb - wa, rb)] = moves.get((wa, ra, wb - wa, rb), 0) + 1
    visits = {}
    for (wa, ra) in traj[:-1]:
        visits[(wa, ra)] = visits.get((wa, ra), 0) + 1
    checked = 0
    for (wa, ra, dw, rb), count in moves.items():
        bl = blocks(p, wa)
        M = {-1: bl.A, 0: bl.B, 1: bl.C}[dw]
        expected = M[ra, rb]
        assert expected > 0.0
        if visits[(wa, ra)] < 300:
            continue
        observed = count / visits[(wa, ra)]
        assert abs(observed - expected) <= 0.06
        checked += 1
    assert checked >= 3
