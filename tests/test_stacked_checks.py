"""run_suite evaluates the eigen and recursion checks on the whole label stack at
once. Each stacked residual must be the worst of its per-label definition, and
one perturbed label must fail the checks that read it."""

import dataclasses

import numpy as np
import pytest

from mvop import family
from mvop.family import _Family, t_recursion_residual
from mvop.linalg import VectorPoly
from mvop.operators import apply_D_u, apply_E_u
from mvop.params import Params
from mvop.recurrence import three_term_residual
from mvop.report import default_grid, run_suite
from mvop.spectral import charpoly_residual

SETS = default_grid() + [Params.integer(n=6, k=3, ell=5, m=2), Params.integer(n=2, k=1, ell=8, m=0),
                         Params.jacobi(alpha=2.0, beta=3.5, k=3, ell=2)]


def operator_residual(st, ef):
    worst = 0.0
    for apply_op, val in ((apply_D_u, ef.spectral.lam), (apply_E_u, ef.spectral.mu)):
        lhs, rhs = apply_op(st, ef.poly), ef.poly.scale(val)
        worst = max(worst, (lhs - rhs).max_abs / max(1.0, lhs.max_abs, rhs.max_abs))
    return worst


def leading_leak(ef):
    return float(np.abs(ef.poly.coeffs[ef.w][ef.r + 1:]).max(initial=0.0)) / ef.poly.max_abs


# Each check's per-label definition: (labels up to wmax + extra, worst over them).
DEFINITIONS = {
    "eigen/operator_residuals": (0, lambda p, st, w, efs: max(operator_residual(st, ef) for ef in efs)),
    "eigen/degree_and_leading": (0, lambda p, st, w, efs: max(leading_leak(ef) for ef in efs)),
    "eigen/charpoly": (0, lambda p, st, w, efs: max(charpoly_residual(st, ef.spectral.lam)
                                                   for ef in efs)),
    "recursion/t_power": (0, lambda p, st, w, efs: max(
        t_recursion_residual(p, ef.poly, ef.spectral.lam, st) for ef in efs)),
    "recursion/three_term": (1, lambda p, st, w, efs: max(three_term_residual(p, v)
                                                         for v in range(w + 1))),
}


@pytest.mark.parametrize("wmax", (4, 8))
@pytest.mark.parametrize("params", SETS, ids=str)
def test_stacked_residual_is_the_worst_label(params, wmax):
    checks = {c.name: c for c in run_suite(params, "all", wmax).checks}
    for name, (extra, worst) in DEFINITIONS.items():
        fam = _Family(params)
        try:
            members = fam.members(wmax + extra)
        except Exception as exc:  # a label fails to build: the check names its error
            assert checks[name].error == f"{type(exc).__name__}: {exc}", name
            continue
        want = worst(params, fam.st, wmax, [ef for ef in members if ef.w <= wmax])
        assert checks[name].error is None, name
        assert abs(checks[name].max_residual - want) <= 1e-11, (name, checks[name].max_residual, want)


P = Params.integer(n=3, k=1, ell=2, m=1)
READERS = ("eigen/operator_residuals", "recursion/t_power", "recursion/three_term")


def test_one_perturbed_label_fails_the_checks_that_read_it(monkeypatch):
    before = {c.name: c for c in run_suite(P, "all", 4).checks}
    assert all(before[name].status == "pass" for name in READERS)
    orig = family._build

    def perturbed(st, labels):
        out = orig(st, labels)
        for i, ef in enumerate(out):
            if (ef.w, ef.r) == (2, 1):
                c = np.array(ef.poly.coeffs)
                c.flat[np.abs(c).argmax()] *= 1.0 + 1e-6
                out[i] = dataclasses.replace(ef, poly=VectorPoly(c))
        return out

    monkeypatch.setattr(family, "_build", perturbed)
    after = {c.name: c for c in run_suite(P, "all", 4).checks}
    for name in READERS:
        assert after[name].status == "fail", name
        assert after[name].max_residual > after[name].tolerance, name
