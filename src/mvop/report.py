"""Batch verification harness behind `mvop verify` and the acceptance suite.

Each check computes a worst-case residual over the labels (w, r) with w <= wmax
and compares it against the contract tolerance. Checks are grouped in three
suites (eigen, ortho, recursion); "all" runs everything applicable.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .family import _Family, f_wr, t_recursion_residual  # noqa: F401 (f_wr: for perfbench's tests)
from .operators import _conjugation_residuals, apply_D_u, apply_E_u
from .orthogonality import (_gram, max_block_offdiag_ratio, max_offdiag_ratio, weight_V_at,
                            weight_W_at)
from .params import (ParamError, Params, in_S, lambda_eig, mu_eig, mu_of_lambda,
                     spectrum_injectivity_check)
from .recurrence import _blocks_upto, _three_term, walk
from .spectral import build_M, charpoly_residual, m_superdiagonal
from .structure import psi_at

__all__ = ["CheckResult", "RunReport", "run_suite", "run_grid", "default_grid"]

SUITES = ("eigen", "ortho", "recursion", "all")


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome. error is "<ExceptionType>: <message>" when the check
    raised or returned a non-finite residual (max_residual is then inf), None
    when it returned a finite residual."""

    name: str
    status: str
    max_residual: float
    tolerance: float
    wall_time: float
    error: str | None = None


@dataclass(frozen=True)
class RunReport:
    params: dict
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)


def _check(name, tol, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        resid = float(fn())
        if not math.isfinite(resid):
            raise ValueError(f"non-finite residual {resid}")
    except Exception as exc:
        return CheckResult(name, "fail", float("inf"), tol, time.perf_counter() - t0,
                           f"{type(exc).__name__}: {exc}")
    status = "pass" if resid <= tol else "fail"
    return CheckResult(name, status, resid, tol, time.perf_counter() - t0)


def _eigen_checks(fam: _Family, wmax: int) -> list:
    params = fam.params

    def operator_resid():
        worst = 0.0
        for ef in fam.members(wmax):
            for apply_op, val in ((apply_D_u, ef.spectral.lam), (apply_E_u, ef.spectral.mu)):
                lhs = apply_op(fam.st, ef.poly)
                rhs = ef.poly.scale(val)
                scale = max(1.0, lhs.max_abs, rhs.max_abs)
                worst = max(worst, (lhs - rhs).max_abs / scale)
        return worst

    def degree_leading():
        # The family build already hard-checks termination and the leading-entry shape;
        # report the worst above-diagonal leakage in the leading coefficient.
        worst = 0.0
        for ef in fam.members(wmax):
            w, r = ef.w, ef.r
            lead = ef.poly.coeffs[w]
            scale = max(ef.poly.max_abs, 1e-300)
            if r + 1 <= params.ell:
                worst = max(worst, float(np.abs(lead[r + 1:]).max()) / scale)
        return worst

    def charpoly():
        return max(charpoly_residual(fam.st, ef.spectral.lam) for ef in fam.members(wmax))

    def superdiag_flat():
        if params.ell == 0:
            return 0.0
        sup_a, sup_b = (np.diag(build_M(fam.st, lam).matrix, 1) for lam in (-0.37, 4.25))
        closed = m_superdiagonal(params)
        scale = max(1.0, float(np.abs(closed).max()))
        flat = float(np.abs(sup_a - sup_b).max())
        form = float(np.abs(sup_a - closed).max())
        return max(flat, form) / scale

    def conjugation():
        # 50 random degree-4 polynomials, each checked against both operators.
        rng = np.random.default_rng(20240601)
        samples = rng.uniform(0.05, 0.95, size=8)
        stack = rng.uniform(-1.0, 1.0, size=(50, 5, params.ell + 1))
        return max(_conjugation_residuals(fam.st, stack, samples, which).max()
                   for which in ("D", "E"))

    def exact_ids():
        wtop = max(8, wmax)
        for w in range(wtop + 1):
            for r in range(params.ell + 1):
                if not in_S(params, w, r):
                    continue
                lam = lambda_eig(params, w, r)
                mu = mu_eig(params, w, r)
                via = mu_of_lambda(params, r, lam)
                if params.is_jacobi:
                    if abs(mu - via) > 1e-12 * max(1.0, abs(mu)):
                        return 1.0
                elif mu != via:
                    return 1.0
        return 0.0 if spectrum_injectivity_check(params, 8) else 1.0

    return [
        _check("eigen/operator_residuals", 1e-9, operator_resid),
        _check("eigen/degree_and_leading", 1e-10, degree_leading),
        _check("eigen/charpoly", 1e-7, charpoly),
        _check("eigen/superdiag_flat", 1e-10, superdiag_flat),
        _check("eigen/conjugation", 1e-9, conjugation),
        _check("eigen/exact_identities", 0.5, exact_ids),
    ]


def _ortho_checks(fam: _Family, wmax: int) -> list:
    params = fam.params
    gres = functools.cache(lambda: _gram(fam, wmax))

    def weight_consistency():
        # W must equal Psi* V Psi and stay symmetric positive definite inside (0,1).
        worst = 0.0
        for u in np.linspace(0.08, 0.92, 7):
            W = weight_W_at(params, u)
            psi = psi_at(params, u)
            rebuilt = psi.T @ weight_V_at(params, u) @ psi
            worst = max(worst, float(np.abs(W - rebuilt).max()) / max(1.0, float(np.abs(W).max())))
            asym, low = float(np.abs(W - W.T).max()), float(np.linalg.eigvalsh(W).min())
            if asym != 0.0 or low <= 0.0:
                raise ValueError(f"W(u={u:.3g}) is not symmetric positive definite: "
                                 f"asymmetry {asym:.3e}, smallest eigenvalue {low:.3e}")
        return worst

    return [
        _check("ortho/weight_consistency", 1e-12, weight_consistency),
        _check("ortho/gram_vector", 1e-9, lambda: max_offdiag_ratio(gres().matrix)),
        _check("ortho/gram_matrix", 1e-9, lambda: max_block_offdiag_ratio(gres())),
    ]


def _recursion_checks(fam: _Family, wmax: int) -> list:
    params = fam.params
    blks = functools.cache(lambda: _blocks_upto(params, wmax))

    def row_sums():
        worst = 0.0
        for blk in blks():
            sums = (blk.A + blk.B + blk.C).sum(axis=1)
            worst = max(worst, float(np.abs(sums - 1.0).max()))
        return worst

    def nonneg():
        low = min(float(min(blk.A.min(), blk.B.min(), blk.C.min())) for blk in blks())
        return max(0.0, -low)

    def three_term():
        rows = blks()
        fam.members(wmax + 1)  # P_0..P_{wmax+1} from one series
        return max(_three_term(blk, fam.P) for blk in rows)

    def t_power():
        return max(t_recursion_residual(params, ef.poly, ef.spectral.lam, fam.st)
                   for ef in fam.members(wmax))

    def walk_repro():
        a = walk(params, 300, seed=123)
        b = walk(params, 300, seed=123)
        return 0.0 if a == b else 1.0

    return [
        _check("recursion/row_sums", 1e-12, row_sums),
        _check("recursion/nonnegativity", 1e-14, nonneg),
        _check("recursion/three_term", 1e-9, three_term),
        _check("recursion/t_power", 1e-9, t_power),
        _check("recursion/walk_reproducible", 0.5, walk_repro),
    ]


def run_suite(params: Params, suite: str = "all", wmax: int = 4) -> RunReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if wmax < 0:
        raise ParamError("wmax >= 0 violated")
    # The weight and the blocks at w = 0 need every label (0, r) in S.
    if suite != "eigen" and params.m_eff < 0:
        raise ParamError(f"suite {suite!r} needs m >= 0 (alpha >= 0 in Jacobi mode)")
    # One family per call, built lazily inside the checks: a label that raises
    # fails only the checks that read it.
    fam = _Family(params)
    checks = []
    if suite in ("eigen", "all"):
        checks += _eigen_checks(fam, wmax)
    if suite in ("ortho", "all"):
        checks += _ortho_checks(fam, wmax)
    if suite in ("recursion", "all"):
        checks += _recursion_checks(fam, wmax)
    return RunReport(params=params.describe(), checks=checks)


def default_grid() -> list:
    grid = []
    for n in (2, 3):
        for k in range(1, n):
            for ell in (0, 1, 2):
                for m in (0, 1):
                    grid.append(Params.integer(n=n, k=k, ell=ell, m=m))
    return grid


def run_grid(param_list=None, suite: str = "all", wmax: int = 4) -> list:
    """Run a suite over many parameter sets; reports sorted by label."""
    if param_list is None:
        param_list = default_grid()
    reports = [run_suite(p, suite, wmax) for p in param_list]
    return sorted(reports, key=lambda rep: str(sorted(rep.params.items())))
