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

from .family import _Family, _t_residuals, f_wr  # noqa: F401 (f_wr: for perfbench's tests)
from .operators import _conjugation_residuals, _u_form
from .orthogonality import (_gram, max_block_offdiag_ratio, max_offdiag_ratio, weight_V_at,
                            weight_W_at)
from .params import (ParamError, Params, in_S, lambda_eig, mu_eig, mu_of_lambda,
                     spectrum_injectivity_check)
from .recurrence import _block_rows, _three_term, walk
from .spectral import _charpoly_residuals, build_M, m_superdiagonal
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


def _label_stack(fam: _Family, wmax: int) -> tuple:
    """(c, w, r, lam, mu) over the labels w <= wmax: c (wmax+1, labels, dim) holds each F,
    zero past its degree w; the others are arrays over the labels."""
    members = fam.members(wmax)
    c = np.zeros((wmax + 1, len(members), fam.params.ell + 1))
    for i, ef in enumerate(members):
        c[: ef.w + 1, i] = ef.poly.coeffs
    w, r, lam, mu = np.array([(ef.w, ef.r, ef.spectral.lam, ef.spectral.mu)
                              for ef in members], dtype=float).reshape(-1, 4).T
    return c, w.astype(int), r.astype(int), lam, mu


def _eigen_checks(fam: _Family, stack, wmax: int) -> list:
    params = fam.params

    def operator_resid():
        c, _, _, lam, mu = stack()
        worst = 0.0
        for which, val in (("D", lam), ("E", mu)):
            lhs, rhs = _u_form(fam.st, which, c), c * val[:, None]
            diff, top_l, top_r = (np.abs(x).max(axis=(0, 2)) for x in (lhs - rhs, lhs, rhs))
            worst = max(worst, (diff / np.maximum(1.0, np.maximum(top_l, top_r))).max(initial=0.0))
        return worst

    def degree_leading():
        # The family build already hard-checks termination and the leading-entry shape;
        # report the worst above-diagonal leakage in the leading coefficient.
        c, w, r, _, _ = stack()
        lead = np.where(np.arange(c.shape[2]) > r[:, None], np.abs(c[w, np.arange(len(w))]), 0.0)
        return (lead.max(axis=1) / np.maximum(np.abs(c).max(axis=(0, 2)), 1e-300)).max(initial=0.0)

    def charpoly():
        return max(_charpoly_residuals(fam.st, stack()[3]))

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


def _recursion_checks(fam: _Family, stack, wmax: int) -> list:
    params = fam.params
    table = functools.cache(lambda: _block_rows(params, 0, wmax + 1))

    def row_sums():
        abc = table().reshape(wmax + 1, params.ell + 1, 3, params.ell + 1)
        return float(np.abs((abc[:, :, 0] + abc[:, :, 1] + abc[:, :, 2]).sum(axis=2) - 1.0).max())

    def nonneg():
        return max(0.0, -float(table().min()))

    def three_term():
        rows = table()
        fam.members(wmax + 1)  # P_0..P_{wmax+1} from one series
        return _three_term(rows, 0, fam.P).max()

    def t_power():
        c, _, _, lam, _ = stack()
        return max(_t_residuals(fam.st, c, lam))

    def walk_repro():
        return 0.0 if walk(params, 300, seed=123) == walk(params, 300, seed=123) else 1.0

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
    stack = functools.cache(lambda: _label_stack(fam, wmax))
    checks = []
    if suite in ("eigen", "all"):
        checks += _eigen_checks(fam, stack, wmax)
    if suite in ("ortho", "all"):
        checks += _ortho_checks(fam, wmax)
    if suite in ("recursion", "all"):
        checks += _recursion_checks(fam, stack, wmax)
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
