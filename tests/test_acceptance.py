"""Acceptance suite: one test per criterion, each printing a [PASS] line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 1-10 read the residuals and tolerances of `report.run_suite`,
the same checks `mvop verify` runs, over its default grid (n in {2,3},
k in {1..n-1}, ell in {0,1,2}, m in {0,1}) with labels up to w = 4. Only
criterion 9's negative control and criterion 11's walk are computed here.
"""

from functools import cache

import numpy as np

from mvop.family import t_recursion_residual
from mvop.linalg import VectorPoly
from mvop.params import Params
from mvop.recurrence import transition_tally, walk
from mvop.report import default_grid, run_suite

WMAX = 4

# The run_suite checks behind each criterion; together they cover all 14.
CRITERIA = {
    1: ("eigen/operator_residuals",),
    2: ("eigen/degree_and_leading",),
    3: ("eigen/conjugation",),
    4: ("eigen/charpoly", "eigen/superdiag_flat"),
    5: ("ortho/gram_vector", "ortho/gram_matrix", "ortho/weight_consistency"),
    6: ("recursion/three_term",),
    7: ("recursion/row_sums", "recursion/nonnegativity"),
    8: ("eigen/exact_identities",),
    9: ("recursion/t_power",),
    11: ("recursion/walk_reproducible",),
}


@cache
def checks_of(params):
    return run_suite(params, "all", WMAX).checks


def worst(criterion):
    """(worst residual over the grid, tolerance as text) per check of the criterion,
    each asserted to pass."""
    out = []
    for name in CRITERIA[criterion]:
        results = [c for p in default_grid() for c in checks_of(p) if c.name == name]
        assert len(results) == len(default_grid())
        top = max(results, key=lambda c: c.max_residual)
        assert top.status == "pass" and top.max_residual <= top.tolerance, top
        out.append((top.max_residual, f"{top.tolerance:g}".replace("e-0", "e-")))
    return out


def test_criterion_01_eigenfunction_suite():
    [(res, tol)] = worst(1)
    print(f"\n[PASS] criterion 1: eigenfunction residuals, worst {res:.3e} <= {tol}")


def test_criterion_02_polynomiality_and_degree():
    [(res, tol)] = worst(2)
    print(f"[PASS] criterion 2: degree exactness and leading shape, worst {res:.3e} <= {tol}")


def test_criterion_03_conjugation_identity():
    [(res, tol)] = worst(3)
    print(f"[PASS] criterion 3: conjugation identity on 50 random polys/set, worst {res:.3e} <= {tol}")


def test_criterion_04_spectral_factorization():
    [(cp, cp_tol), (flat, flat_tol)] = worst(4)
    print(f"[PASS] criterion 4: spectrum match {cp:.3e} <= {cp_tol}, "
          f"superdiagonal lambda-drift {flat:.3e} <= {flat_tol}")


def test_criterion_05_orthogonality():
    [(vec, tol), (mat, _), _] = worst(5)
    print(f"[PASS] criterion 5: Gram off-diagonals, vector {vec:.3e} "
          f"matrix {mat:.3e} <= {tol}")


def test_criterion_06_three_term_recursion():
    [(res, tol)] = worst(6)
    print(f"[PASS] criterion 6: three-term recursion residual, worst {res:.3e} <= {tol}")


def test_criterion_07_stochasticity():
    [(rows, rows_tol), (neg, neg_tol)] = worst(7)
    print(f"[PASS] criterion 7: row sums {rows:.3e} <= {rows_tol}, "
          f"negativity {neg:.3e} <= {neg_tol}")


def test_criterion_08_exact_identities():
    # In Integer mode the check compares mu with mu(lambda) as exact integers to w = 8.
    worst(8)
    print("[PASS] criterion 8: integer identities exact and spectrum injective to w = 8")


def test_criterion_09_t_power_recursion():
    [(res, tol)] = worst(9)
    p0 = default_grid()[1]
    rng = np.random.default_rng(5)
    control = t_recursion_residual(
        p0, VectorPoly(rng.uniform(-1, 1, size=(4, p0.ell + 1))), -4.0)
    assert control > 1e-3
    print(f"[PASS] criterion 9: t-power recursion {res:.3e} <= {tol}, "
          f"negative control {control:.3e} > 1e-3")


def test_criterion_10_jacobi_mode_consistency():
    worst_gap = 0.0
    for p in default_grid():
        twin = Params.jacobi(alpha=float(p.m), beta=float(p.n - 1), k=p.k, ell=p.ell)
        a, b = checks_of(p), checks_of(twin)
        assert [c.name for c in a] == [c.name for c in b] and len(a) == 14
        for ca, cb in zip(a, b):
            gap = abs(ca.max_residual - cb.max_residual)
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-12, f"{ca.name} twin gap {gap:.3e} at {p.describe()}"
    worst_half = 0.0
    for ell in (0, 1, 2):
        ph = Params.jacobi(alpha=0.5, beta=1.5, k=1, ell=ell)
        for c in checks_of(ph):
            assert c.status == "pass", f"{c} at {ph.describe()}"
            worst_half = max(worst_half, c.max_residual / c.tolerance)
    print(f"[PASS] criterion 10: twin residual gap {worst_gap:.3e} <= 1e-12, "
          f"half-integer worst residual at {worst_half:.2e} of tolerance")


def test_criterion_11_walk_determinism_and_calibration():
    worst(11)
    p = Params.integer(n=2, k=1, ell=1, m=0)
    traj = walk(p, 100000, seed=42)
    assert walk(p, 100000, seed=42) == traj
    tally = transition_tally(p, traj)
    assert tally.impossible == []
    assert tally.cells > 500
    assert tally.worst_z <= 3.0
    print(f"[PASS] criterion 11: identical trajectories for equal seeds; "
          f"{tally.cells} transition cells within 3 binomial SEs (worst z = {tally.worst_z:.2f})")
