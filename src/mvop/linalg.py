"""Polynomial containers with small dense matrix or vector coefficients.

Matrices here are (ell+1) x (ell+1) with ell rarely above 2 and never above ~16,
so everything is plain dense numpy. Polynomials store their coefficients as a
single array indexed by power of the variable: shape (deg+1, dim) for vector
coefficients, (deg+1, dim, dim) for matrix coefficients. Coefficient arrays are
frozen after construction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TRIM_REL_TOL",
    "VectorPoly",
    "MatrixPoly",
]

# Trailing polynomial coefficients below this fraction of the largest coefficient
# magnitude are treated as zero (degree trimming and series-termination detection).
TRIM_REL_TOL = 1e-10


class _PolyBase:
    """Shared coefficient-level operations; index = power of the variable."""

    __slots__ = ("coeffs",)
    _ndim = None  # coefficient rank + 1, set by subclasses

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=float)
        if arr.ndim != self._ndim:
            raise ValueError(
                f"{type(self).__name__} expects a rank-{self._ndim} coefficient array, "
                f"got rank {arr.ndim}"
            )
        if arr.shape[0] == 0:
            raise ValueError("need at least one coefficient")
        arr.flags.writeable = False
        self.coeffs = arr

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        """Index of the last stored coefficient; call trim() to canonicalize."""
        return self.coeffs.shape[0] - 1

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def add(self, other):
        if type(other) is not type(self) or other.dim != self.dim:
            raise ValueError("mismatched polynomial operands")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] += b
        return type(self)(out)

    def scale(self, c: float):
        return type(self)(self.coeffs * float(c))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def derivative(self):
        if self.degree == 0:
            return type(self)(np.zeros_like(self.coeffs[:1]))
        powers = np.arange(1, self.degree + 1, dtype=float)
        shape = (-1,) + (1,) * (self._ndim - 1)
        return type(self)(self.coeffs[1:] * powers.reshape(shape))

    def shift_mul_by_u(self):
        """Multiply by the variable: degree d -> d+1, coefficient 0 becomes zero."""
        out = np.zeros((self.degree + 2,) + self.coeffs.shape[1:])
        out[1:] = self.coeffs
        return type(self)(out)

    def evaluate_at(self, u: float):
        """Horner evaluation; returns a vector or matrix matching the coefficients."""
        acc = np.array(self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc *= u
            acc += c
        return acc

    def trim(self, rel_tol: float = TRIM_REL_TOL):
        """Drop trailing coefficients below rel_tol times the largest magnitude."""
        mags = np.abs(self.coeffs).reshape(len(self.coeffs), -1).max(axis=1)
        tol = rel_tol * (mags.max() if mags.max() > 0 else 1.0)
        last = int(np.nonzero(mags > tol)[0][-1]) if np.any(mags > tol) else 0
        return type(self)(self.coeffs[: last + 1])

    def __repr__(self):
        return f"{type(self).__name__}(degree={self.degree}, dim={self.dim})"


class VectorPoly(_PolyBase):
    """F(u) = sum_j u^j F_j with vector coefficients F_j."""

    _ndim = 2

    @classmethod
    def constant(cls, vec) -> "VectorPoly":
        return cls(np.asarray(vec, dtype=float)[None, :])

    def left_mul(self, a: np.ndarray) -> "VectorPoly":
        """Apply a constant matrix to every coefficient: sum_j u^j (a F_j)."""
        return VectorPoly(self.coeffs @ np.asarray(a, dtype=float).T)


class MatrixPoly(_PolyBase):
    """P(u) = sum_j u^j P_j with matrix coefficients P_j."""

    _ndim = 3

    @classmethod
    def zeros(cls, dim: int) -> "MatrixPoly":
        return cls(np.zeros((1, dim, dim)))

    def left_mul(self, a: np.ndarray) -> "MatrixPoly":
        """Apply a constant matrix on the left of every coefficient."""
        return MatrixPoly(np.einsum("ab,jbc->jac", np.asarray(a, dtype=float), self.coeffs))
