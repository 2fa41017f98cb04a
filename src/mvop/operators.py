"""Coefficient-level actions of the two second-order operators.

Both operators exist in two variables related by t = 1-u. The t-forms carry a
rational 1/(1-t) zero-order term that must cancel on polynomial input; the
u-forms (conjugated by Psi) are polynomial-coefficient transforms outright.
Each is a coefficient table applied by _second_order, exactly on coefficient
sequences; sampling only appears in the conjugation residual check, which takes
a stack of polynomials at once (the private transforms accept a batch axis
between the power and vector axes).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import VectorPoly
from .structure import StructureSet

__all__ = [
    "hypergeometric_action",
    "apply_D_u",
    "apply_E_u",
    "apply_D_t",
    "apply_E_t",
    "conjugation_residual",
]


def hypergeometric_action(Cm, Um, Vm, F: VectorPoly) -> VectorPoly:
    """Coefficients of x(1-x)F'' + (C - xU)F' - VF for matrix parameters C, U, V."""
    Cm, Um, Vm = (np.asarray(a, dtype=float) for a in (Cm, Um, Vm))
    eye = np.eye(len(Cm))
    return VectorPoly(_second_order(F.coeffs, [[-Vm], [Cm, -Um], [None, eye, -eye]])).trim()


def _second_order(c: np.ndarray, table) -> np.ndarray:
    """Coefficients of sum_k (sum_i x^i table[k][i]) d^k/dx^k applied to sum_p x^p c[p].

    table[k][i] is a matrix or None; c[p] is one row or a stack of rows. The
    result is longer than c where a row of the table is long enough to raise the degree.
    """
    n = len(c)
    out = np.zeros((n - 1 + max(len(row) - k for k, row in enumerate(table)),) + c.shape[1:])
    falling = np.ones(n)
    for k, row in enumerate(table[:n]):
        # d^k/dx^k: power p goes to p-k with the factor p(p-1)...(p-k+1).
        dk = c[k:] * falling[k:].reshape((-1,) + (1,) * (c.ndim - 1))
        for i, a in enumerate(row):
            if a is not None:
                out[i: i + n - k] += dk @ a.T
        falling *= np.arange(n) - k
    return out


def apply_D_u(st: StructureSet, F: VectorPoly) -> VectorPoly:
    """First operator in u: u(1-u)F'' + (U-C-uU)F' - VF."""
    return hypergeometric_action(st.U - st.C, st.U, st.V, F)


def apply_E_u(st: StructureSet, F: VectorPoly) -> VectorPoly:
    """Second operator in u: (1-u)(M0-M1+uM1)F'' + (P1-P0-uP1)F' - (m-k)VF."""
    mk = float(st.params.m_eff) - st.params.k
    M0, M1, P0, P1 = st.M0, st.M1, st.P0, st.P1
    table = [[-mk * st.V], [P1 - P0, -P1], [M0 - M1, 2 * M1 - M0, -M1]]
    return VectorPoly(_second_order(F.coeffs, table)).trim()


def _div_by_one_minus_t(coeffs: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Quotient of sum_j g_j t^j by (1-t), for len(coeffs) >= 2; the remainder is g(1)
    and must vanish. coeffs[j] is one row or a stack of rows, each checked."""
    q = np.cumsum(coeffs, axis=0)
    rem = np.abs(q[-1]).max(axis=-1)
    scale = np.maximum(np.abs(coeffs).max(axis=(0, -1)), 1.0)
    if (rem > rel_tol * scale).any():
        i = np.unravel_index(np.argmax(rem / scale), rem.shape)
        raise ValueError(f"not divisible by (1-t): remainder {rem[i]:.3e} exceeds "
                         f"{rel_tol:g} x scale {scale[i]:.3e}")
    return q[:-1]


def apply_D_t(st: StructureSet, H: VectorPoly) -> VectorPoly:
    """First operator in t: -(t(1-t)H'' + (A0 - t(A0+n))H' + (1-t)^{-1}(B0+tB1)H).

    Raises when the zero-order term fails to cancel against (1-t), which signals
    input outside the operator's natural domain image.
    """
    return VectorPoly(_t_form(st, "D", H.coeffs)).trim()


def apply_E_t(st: StructureSet, H: VectorPoly) -> VectorPoly:
    """Second operator in t: -(t(1-t)M H'' + (C0 - tC1)H' + (1-t)^{-1}(D0+tD1)H)."""
    return VectorPoly(_t_form(st, "E", H.coeffs)).trim()


def _t_form(st: StructureSet, which: str, c: np.ndarray) -> np.ndarray:
    """-(t(1-t)S H'' + (F0 - tF1)H' + (1-t)^{-1}(Z0+tZ1)H), first (D) or second (E) operator."""
    if which == "D":
        eye = np.eye(st.dim)
        S, F0, F1, Z0, Z1 = eye, st.A0, st.A0 + float(st.params.n_eff) * eye, st.B0, st.B1
    else:
        S, F0, F1, Z0, Z1 = st.Mdiag, st.C0, st.C1, st.D0, st.D1
    zero_order = _div_by_one_minus_t(_second_order(c, [[Z0, Z1]]))
    return -(zero_order + _second_order(c, [[None], [F0, -F1], [None, S, -S]]))


def _tilde_t(st: StructureSet, which: str, c: np.ndarray) -> np.ndarray:
    """Conjugated operator in t: t(1-t)F'' + (C-tU)F' - VF for D, t(M0-tM1)F'' + (P0-tP1)F'
    - (m-k)VF for E."""
    if which == "D":
        eye = np.eye(st.dim)
        return _second_order(c, [[-st.V], [st.C, -st.U], [None, eye, -eye]])
    mk = float(st.params.m_eff) - st.params.k
    return _second_order(c, [[-mk * st.V], [st.P0, -st.P1], [None, st.M0, -st.M1]])


def _psi(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X diag(x^0..x^ell) applied to sum_p x^p c[p]: component s shifts up by s powers."""
    dim = c.shape[-1]
    shifted = np.zeros((len(c) + dim - 1,) + c.shape[1:])
    for s in range(dim):
        shifted[s: s + len(c), ..., s] = c[..., s]
    return shifted @ X.T


def _to_t(c: np.ndarray) -> np.ndarray:
    """Rewrite sum_p x^p c[p] in powers of 1-x; the substitution is its own inverse.

    The matrix (-1)^j binom(p, j) is built in floats: int64 overflows from p = 67.
    """
    n = len(c)
    T = np.array([[(-1.0) ** j * math.comb(p, j) for p in range(n)] for j in range(n)])
    return np.tensordot(T, c, (1, 0))


def conjugation_residual(st: StructureSet, F: VectorPoly, samples, which: str = "D") -> float:
    """Mismatch between Psi times the conjugated action and the raw t-form operator.

    F is a polynomial in t; samples are u-points in (0,1), evaluated at t = 1-u.
    Returns the max sample residual divided by scale = max(1, magnitudes of both
    sides), so a return value <= tol satisfies a "<= tol x scale" contract.
    """
    return float(_conjugation_residuals(st, F.coeffs[None], samples, which)[0])


def _conjugation_residuals(st: StructureSet, stack: np.ndarray, samples, which: str) -> np.ndarray:
    """conjugation_residual of each polynomial of a stack (count, degree+1, dim), in one pass."""
    if which not in ("D", "E"):
        raise ValueError("which must be 'D' or 'E'")
    u = np.atleast_1d(np.asarray(samples, dtype=float))
    if not ((0.0 < u) & (u < 1.0)).all():
        raise ValueError("samples must lie in (0,1)")
    c = np.transpose(stack, (1, 0, 2))
    tilde, raw = _tilde_t(st, which, c), _t_form(st, which, _to_t(_psi(st.X, _to_t(c))))
    # polyval runs Horner at every sample: values (count, dim, samples).
    psi = st.X * (u[:, None] ** np.arange(st.dim, dtype=float))[:, None, :]
    lhs = np.einsum("sij,bjs->bis", psi, np.polynomial.polynomial.polyval(1.0 - u, tilde))
    rhs = -np.polynomial.polynomial.polyval(1.0 - u, raw)
    worst = np.abs(lhs - rhs).max(axis=(1, 2))
    return worst / np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=(1, 2)),
                                              np.abs(rhs).max(axis=(1, 2))))
