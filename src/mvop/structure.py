"""Constant coefficient matrices of the two differential operators.

All matrices are (ell+1) x (ell+1), indexed by s = 0..ell, stored dense despite
their banded shapes. The same float code path serves both parameter modes, so
Jacobi mode with integer (alpha, beta) = (m, n-1) reproduces Integer mode
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Params, validate

__all__ = ["StructureSet", "build_structure", "pascal", "psi_at"]


@dataclass(frozen=True)
class StructureSet:
    """Every constant matrix used by the operator, spectral, and family layers.

    t-form first operator: coefficients A0 (first derivative, diagonal) and the
    degree-0/1 parts B0, B1 of the zero-order term. t-form second operator:
    Mdiag (second derivative), C0, C1 (first derivative), D0, D1 (zero order).
    Conjugated u-form pair: C, U, V for the first operator and M0, M1, P0, P1
    for the second. X is the lower-triangular Pascal matrix behind the
    conjugation Psi(u) = X diag(u^0..u^ell).
    """

    params: Params
    A0: np.ndarray
    B0: np.ndarray
    B1: np.ndarray
    Mdiag: np.ndarray
    C0: np.ndarray
    C1: np.ndarray
    D0: np.ndarray
    D1: np.ndarray
    C: np.ndarray
    U: np.ndarray
    V: np.ndarray
    M0: np.ndarray
    M1: np.ndarray
    P0: np.ndarray
    P1: np.ndarray
    X: np.ndarray

    @property
    def ell(self) -> int:
        return self.params.ell

    @property
    def dim(self) -> int:
        return self.params.ell + 1


def pascal(ell: int) -> np.ndarray:
    """Lower-triangular Pascal matrix X[i, j] = binom(i, j), exact int64 entries."""
    X = np.zeros((ell + 1, ell + 1), dtype=np.int64)
    for i in range(ell + 1):
        for j in range(i + 1):
            X[i, j] = math.comb(i, j)
    return X


def psi_at(params: Params, u: float) -> np.ndarray:
    """Psi(u) = X diag(u^0, ..., u^ell); structurally singular at u = 0 once ell >= 1."""
    powers = float(u) ** np.arange(params.ell + 1, dtype=float)
    return pascal(params.ell).astype(float) * powers[None, :]


def build_structure(params: Params) -> StructureSet:
    validate(params)
    ell, k = params.ell, params.k
    m = float(params.m_eff)
    n = float(params.n_eff)
    s = np.arange(ell + 1, dtype=float)

    # Recurring band profiles: up[s] = (ell-s)(n-k+s) feeds every superdiagonal,
    # dn[s] = s(ell+k-s) every subdiagonal.
    up = (ell - s) * (n - k + s)
    dn = s * (ell + k - s)

    A0 = np.diag(m + ell - s + 1)
    B0 = np.diag(up[:-1], 1) - np.diag(up) if ell else -np.diag(up)
    B1 = np.diag(dn[1:], -1) - np.diag(dn) if ell else -np.diag(dn)

    Mdiag = np.diag(m + ell - s)
    C0 = np.diag((m + ell - s) * (m + ell - s + 1))
    C1 = np.diag((m + ell - s) * (m + ell - s + n + 1))
    d0_up = up * (m + s - k + 1)
    d0_dn = dn * (m + ell - s + 1)
    D0 = -np.diag(d0_up) + np.diag(d0_dn)
    D1 = (2 * m + ell + n - k) * (-np.diag(dn))
    if ell:
        C0 = C0 + np.diag(up[:-1], 1)
        C1 = C1 + np.diag(dn[1:], -1)
        D0 = D0 + np.diag(d0_up[:-1], 1) - np.diag(d0_dn[1:], -1)
        D1 = D1 + (2 * m + ell + n - k) * np.diag(dn[1:], -1)

    C = np.diag(m + ell - s + 1)
    U = np.diag(n + m + ell + s + 1)
    V = np.diag(s * (n + m + s - k))
    M0 = np.diag(m + ell - s)
    M1 = np.diag(m + ell - s)
    P0 = np.diag((m + ell) * (m + ell + 1) + ell * (n - k) - 2 * s * (n + m - k + s))
    P1 = np.diag((m + ell - s) * (m + n + ell + s + 1))
    if ell:
        sub_s = s[1:]
        C = C - np.diag(sub_s, -1)
        V = V - np.diag(up[:-1], 1)
        M0 = M0 - np.diag(sub_s, -1)
        P0 = P0 - np.diag(sub_s * (n - k + ell + 2 * m + s[1:]), -1) + np.diag(up[:-1], 1)
        P1 = P1 + np.diag(up[:-1], 1)

    return StructureSet(
        params=params,
        A0=A0, B0=B0, B1=B1,
        Mdiag=Mdiag, C0=C0, C1=C1, D0=D0, D1=D1,
        C=C, U=U, V=V,
        M0=M0, M1=M1, P0=P0, P1=P1,
        X=pascal(ell).astype(float),
    )
