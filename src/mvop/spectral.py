"""The value-at-zero matrix M(lambda) and its spectrum.

M(lambda) represents the second operator on the lambda-eigenspace of the first,
through the value of the eigenfunction at u = 0. Its eigenvalues are exactly
mu_r(lambda); its superdiagonal never vanishes, which makes the normalized
eigenvector computable by forward substitution alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Params, mu_of_lambda
from .structure import StructureSet

__all__ = ["MLambda", "build_M", "m_superdiagonal", "eigvec", "charpoly_residual",
           "EigenvalueCollisionError"]


class EigenvalueCollisionError(ValueError):
    """mu_r(lambda) collides with another mu_{r'}(lambda); lambda sits in the bad set."""


@dataclass(frozen=True)
class MLambda:
    lam: float
    matrix: np.ndarray


def build_M(st: StructureSet, lam: float) -> MLambda:
    """M(lam) = (M0-M1)(U-C+1)^-1 (U+V+lam)(U-C)^-1 (V+lam) + (P1-P0)(U-C)^-1 (V+lam) - (m-k)V."""
    dim = st.dim
    eye = np.eye(dim)
    UC = st.U - st.C
    Vl = st.V + lam * eye
    inner = np.linalg.solve(UC, Vl)
    term1 = (st.M0 - st.M1) @ np.linalg.solve(UC + eye, (st.U + st.V + lam * eye) @ inner)
    term2 = (st.P1 - st.P0) @ inner
    mk = float(st.params.m_eff) - st.params.k
    return MLambda(float(lam), term1 + term2 - mk * st.V)


def m_superdiagonal(params: Params) -> np.ndarray:
    """Closed-form superdiagonal of M(lambda), independent of lambda; length ell.

    Entry s is -(ell-s)(n+s-k)(n+s-1)(n+s+ell)(s+k) / ((n+2s-1)(n+2s)). Every
    factor is positive on the admissible parameter range (n+s-k > 0 holds in
    both modes), so the entries are strictly negative and in particular never
    zero, which is what the forward substitution in eigvec relies on. Only
    three product paths through the defining formula of M reach the
    superdiagonal, and each carries exactly one superdiagonal factor of V, so
    lambda cancels; the expression here matches build_M to machine precision
    on a dense parameter sweep.
    """
    n = float(params.n_eff)
    ell, k = params.ell, params.k
    s = np.arange(ell, dtype=float)
    core = (n + s - 1) * (n + s + ell) * (s + k) / ((n + 2 * s - 1) * (n + 2 * s))
    return -(ell - s) * (n + s - k) * core


def eigvec(st: StructureSet, lam: float, r: int) -> np.ndarray:
    """Normalized mu_r(lambda)-eigenvector of M(lambda), first entry 1.

    Solves (M - mu)v = 0 by forward substitution on the rows, using that row s
    ends at the never-zero superdiagonal entry M[s, s+1]. The final row is the
    one equation not used in the substitution; its residual is asserted.
    """
    params = st.params
    ell = st.ell
    mus = [mu_of_lambda(params, rr, lam) for rr in range(ell + 1)]
    mu = float(mus[r])
    for rr in range(ell + 1):
        if rr != r and abs(mu - mus[rr]) <= 1e-8:
            raise EigenvalueCollisionError(
                f"degenerate eigenvalue collision: mu_{r}={mu} vs mu_{rr}={mus[rr]} at lambda={lam}"
            )
    M = build_M(st, lam).matrix
    v = np.zeros(ell + 1)
    v[0] = 1.0
    for s in range(ell):
        v[s + 1] = (mu * v[s] - M[s, : s + 1] @ v[: s + 1]) / M[s, s + 1]
    resid = abs(float(M[ell] @ v - mu * v[ell]))
    if resid > 1e-8 * np.linalg.norm(v):
        raise ValueError(
            f"residual too large: final-row residual {resid:.3e} vs 1e-8 x ||v||={np.linalg.norm(v):.3e}"
        )
    return v


def charpoly_residual(st: StructureSet, lam: float) -> float:
    """Relative mismatch between eig(M(lambda)) and {mu_r(lambda)} after sorting.

    Measured against max(1, largest |mu_r|).
    """
    params = st.params
    M = build_M(st, lam).matrix
    eig = np.sort_complex(np.linalg.eigvals(M))
    mus = np.sort_complex(np.array(
        [mu_of_lambda(params, rr, lam) for rr in range(st.ell + 1)], dtype=complex))
    scale = max(1.0, float(np.abs(mus).max()))
    return float(np.abs(eig - mus).max()) / scale

