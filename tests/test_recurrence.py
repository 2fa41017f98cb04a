import hashlib

import numpy as np
import pytest
from scipy.special import eval_jacobi

from mvop.params import ParamError, Params, in_S
from mvop import cli, recurrence
from mvop.recurrence import _block_rows, a_sq, b_sq, blocks, three_term_residual, walk
from mvop.report import run_suite

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


# SHA-256 of the bytes of [A_w | B_w | C_w] for w = 0..599, as the per-w
# scalar construction built them.
PINNED_TABLES = {
    Params.integer(n=2, k=1, ell=1, m=0):
        "623871cd6efa3f10677c51565a214637b261db408d4b76d601059238759dd140",
    Params.integer(n=3, k=1, ell=2, m=1):
        "f51f5ad4f402b2cb4a15c96ad927987a665d72c19388889df438db35587f7921",
    Params.integer(n=4, k=2, ell=2, m=1):
        "92fbdee147116538aaf74f3a241c5b662a4ea6d8c1854eb640b78120c07923cb",
    Params.jacobi(alpha=0.5, beta=1.5, k=1, ell=2):
        "73378b6c7c33794e27a40b729164c38aaa22e335f3e8b907e8263bfbff123055",
    Params.integer(n=6, k=3, ell=5, m=2):
        "3354dc79d9423648c73b2f330aeeab0e09e505ea6d6ce09384e6346c3e899fb5",
}


@pytest.mark.parametrize("params", list(PINNED_TABLES), ids=str)
def test_block_table_pinned(params):
    table = _block_rows(params, 0, 600)
    assert table.shape == (600, params.ell + 1, 3 * (params.ell + 1))
    assert hashlib.sha256(table.tobytes()).hexdigest() == PINNED_TABLES[params]
    for w in (0, 63, 64, 599):
        bl = blocks(params, w)
        assert np.array_equal(np.hstack([bl.A, bl.B, bl.C]), table[w])


def test_block_table_errors_name_the_first_bad_label():
    p = Params.integer(n=3, k=1, ell=2, m=-2)
    with pytest.raises(ParamError, match=r"\(w, r\) = \(1, 0\) outside"):
        _block_rows(p, 1, 10)
    assert _block_rows(p, 2, 10).shape == (8, 3, 9)
    with pytest.raises(ParamError, match="w >= 0"):
        blocks(P0, -1)


def test_a_row_that_is_not_stochastic_raises_naming_it(capsys):
    # On the plane alpha + beta = k, row (0, 0) resolves a 0/0 factor to 0 and sums to 2/3.
    p = Params.jacobi(alpha=0.5, beta=0.5, k=1, ell=1)
    message = "row sum off 1 by 0.333 at w=0, r=0"
    with pytest.raises(ValueError, match=message):
        _block_rows(p, 0, 4)
    with pytest.raises(ValueError, match=message):
        walk(p, 10, seed=0)
    assert cli.main(["walk", "--jacobi", "--alpha", "0.5", "--beta", "0.5", "--k", "1", "--ell", "1"]) == 3
    assert capsys.readouterr().err == f"numeric failure: {message}\n"
    row_sums = next(c for c in run_suite(p, "recursion", 2).checks if c.name == "recursion/row_sums")
    assert row_sums.status == "fail" and row_sums.error == f"ValueError: {message}"


# SHA-256 of the 20000-step path from (0, 0), one "w,r" line per state.
PINNED_WALKS = {
    (Params.integer(n=2, k=1, ell=1, m=0), 7):
        "9bf4359831da6a023e5c0264c5aced555d3a323632355bf905140aa120262592",
    (Params.integer(n=2, k=1, ell=1, m=0), 2024):
        "b4a7cc27c0c931f06f71fe3fc663ac312756bc879f0bfe64d87ffc7d36ab765e",
    (Params.integer(n=4, k=2, ell=2, m=1), 7):
        "d8036ec37b60ea2c750dd89d4e407f5c42ef50a6d99bb548178436621744f605",
    (Params.integer(n=4, k=2, ell=2, m=1), 2024):
        "d91ebd55210c9ff2f10f4e6f6090e612ad286f54bb65a91315a076362caa54ec",
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


M_NEG = Params.integer(n=3, k=1, ell=2, m=-2)
ALPHA_NEG = Params.jacobi(alpha=-0.5, beta=1.5, k=1, ell=2)

# 5000-step walks for m < 0: the SHA-256 of a completed path, or the step count
# at which the walk first raises and the label it names.
PINNED_NEGATIVE_M = [
    (M_NEG, (2, 0), 1, (2, "(1, 0)")),
    (M_NEG, (2, 0), 2, "5d4586132abc19f9662755219ccbd7826c805fc8aa8b452acac42323b7ae665a"),
    (M_NEG, (2, 0), 3, (8, "(1, 0)")),
    (ALPHA_NEG, (1, 0), 1, "499bdf7d5989cee88466524e5814320d5a4ec2c6ecca3343a4a4efc7fc45de07"),
    (ALPHA_NEG, (1, 0), 2, "5d12b9f08fb874dd4b686f4f382d7757f61e4c704d91ecb53c1cb61e51a8f24a"),
    (ALPHA_NEG, (1, 0), 3, (8, "(0, 0)")),
]


@pytest.mark.parametrize("params, start, seed, outcome", PINNED_NEGATIVE_M)
def test_walk_with_negative_m_pinned(params, start, seed, outcome):
    if isinstance(outcome, str):
        path = walk(params, 5000, seed=seed, start=start)
        text = "".join(f"{w},{r}\n" for w, r in path)
        assert hashlib.sha256(text.encode()).hexdigest() == outcome
        return
    step, label = outcome
    walk(params, step - 1, seed=seed, start=start)
    message = f"(w, r) = {label} outside the parameter set"
    for steps in (step, 5000):
        with pytest.raises(ParamError) as exc:
            walk(params, steps, seed=seed, start=start)
        assert str(exc.value) == message


def test_walk_draw_above_a_short_row_picks_a_move_with_mass(monkeypatch):
    # Row (39, 1) of (3,1,2,1) sums to 1 - 2**-52 and its last slot, C[1, 2],
    # has no mass; the largest draw lands above the total.
    p = Params.integer(n=3, k=1, ell=2, m=1)
    row = _block_rows(p, 39, 40)[0, 1]
    assert np.cumsum(row)[-1] < 1 - 2**-53 and row[-1] == 0.0

    class TopDraw:
        def __init__(self, seed):
            pass

        def random(self):
            return 1 - 2**-53

    monkeypatch.setattr(recurrence.random, "Random", TopDraw)
    # The last slot with mass is C[1, 1].
    assert walk(p, 1, seed=0, start=(39, 1)) == [(39, 1), (40, 1)]


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
