"""Matrix hypergeometric series.

The second-order-native series whose step matrix is m^2 + m(U-1) + V. Each
step divides by (C+m), so the spectrum of C must stay away from the
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
    gap = np.inf
    for z in np.linalg.eigvals(C):
        j0 = max(0, int(round(-z.real)))
        for j in (j0 - 1, j0, j0 + 1):
            if j >= 0:
                gap = min(gap, abs(z + j))
    if gap <= tol:
        raise ValueError(
            f"C-spectrum hits -N0: distance {gap:.3e} <= {tol:g}, series coefficients undefined"
        )


def h1_coeffs(C, U, V, N: int) -> np.ndarray:
    """Terms [C;U;V]_m / m!, m = 0..N, of the series solving x(1-x)F''+(C-xU)F'-VF=0.

    Step: [C;U;V]_{m+1} = (C+m)^{-1} (m^2 + m(U-1) + V) [C;U;V]_m.
    """
    C = np.asarray(C, dtype=float)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    _check_c_spectrum(C)
    dim = C.shape[0]
    eye = np.eye(dim)
    terms = np.empty((N + 1, dim, dim))
    terms[0] = eye
    T = eye
    for m in range(N):
        step = (m * m) * eye + m * (U - eye) + V
        T = np.linalg.solve(C + m * eye, step @ T) / (m + 1)
        terms[m + 1] = T
    return terms


def h1_apply(coeffs: np.ndarray, v0, N: int | None = None, must_terminate: bool = False) -> VectorPoly:
    """Polynomial sum_{m<=N} u^m (coeffs[m] v0), trimmed; coeffs comes from h1_coeffs.

    With must_terminate=True the last two retained coefficient vectors must fall
    below the trimming tolerance (the series has visibly stopped); otherwise a
    SeriesTerminationError is raised.
    """
    if N is not None:
        coeffs = coeffs[: N + 1]
    v0 = np.asarray(v0, dtype=float)
    vals = coeffs @ v0
    if must_terminate:
        if len(vals) < 2:
            raise SeriesTerminationError("need at least two terms to observe termination")
        scale = max(float(np.abs(vals).max()), 1.0)
        tail = np.abs(vals[-2:]).max(axis=1)
        if (tail > TRIM_REL_TOL * scale).any():
            raise SeriesTerminationError(
                f"series did not terminate by N={len(vals) - 1}: tail magnitudes {tail}"
            )
    return VectorPoly(vals).trim()
