"""Terminating hypergeometric series, one vector series per label stack.

The second-order-native series whose step matrix is m^2 + m(U-1) + V + lam.
Each step divides by (C+m), so the spectrum of C must stay away from the
nonpositive integers.
"""

from __future__ import annotations

import numpy as np

from .linalg import TRIM_REL_TOL, VectorPoly

__all__ = ["h1_coeffs", "h1_apply", "SeriesTerminationError"]


class SeriesTerminationError(RuntimeError):
    """The series did not terminate within the allotted number of terms."""


def _check_c_spectrum(C: np.ndarray, tol: float = 1e-8) -> None:
    """Raise when an eigenvalue of C lies within tol of a nonpositive integer."""
    z = np.linalg.eigvals(C)[:, None]
    j = np.maximum(np.round(-z.real) + [-1, 0, 1], 0)
    gap = float(np.abs(z + j).min())
    if gap <= tol:
        raise ValueError(f"C-spectrum hits -N0: distance {gap:.3e} <= {tol:g}, "
                         "series coefficients undefined")


def h1_coeffs(C, U, V, lam, v0, N: int) -> np.ndarray:
    """Terms c_m, m = 0..N, of the series F = sum u^m c_m solving
    x(1-x)F''+(C-xU)F'-(V+lam)F=0 with F(0) = v0, for each pair (lam, v0).

    Step: c_{m+1} = (C+m)^{-1} ((m^2 + m(U-1) + V) c_m + lam c_m) / (m+1). A
    label enters only through the scalar lam, so one solve per degree serves
    the whole stack. Returns shape (N+1, len(lam), dim).
    """
    C, U, V = (np.asarray(X, dtype=float) for X in (C, U, V))
    lam = np.asarray(lam, dtype=float)[:, None]
    _check_c_spectrum(C)
    eye = np.eye(C.shape[0])
    terms = np.empty((N + 1, len(lam), C.shape[0]))
    terms[0] = v0
    for m in range(N):
        step = terms[m] @ ((m * m) * eye + m * (U - eye) + V).T + lam * terms[m]
        terms[m + 1] = np.linalg.solve(C + m * eye, step.T).T / (m + 1)
    return terms


def h1_apply(coeffs: np.ndarray) -> VectorPoly:
    """Polynomial sum_m u^m coeffs[m] of one label's terms from h1_coeffs, trimmed.

    The last two terms must fall below the trimming tolerance (the series has
    visibly stopped); otherwise a SeriesTerminationError is raised.
    """
    vals = np.asarray(coeffs, dtype=float)
    if len(vals) < 2:
        raise SeriesTerminationError("need at least two terms to observe termination")
    scale = max(float(np.abs(vals).max()), 1.0)
    tail = np.abs(vals[-2:]).max(axis=1)
    if (tail > TRIM_REL_TOL * scale).any():
        raise SeriesTerminationError(f"series did not terminate by N={len(vals) - 1}: "
                                     f"tail magnitudes {tail}")
    return VectorPoly(vals).trim()
