"""Exact Integer-mode oracle for the family F_{w,r}, in rational arithmetic.

In Integer mode the structure matrices, lambda and mu are integers, and U - C
and U - C + I are lower triangular, so M(lambda), its normalized eigenvector
and the series are forward substitutions over Fractions. Matrices are lists of
rows, vectors lists.
"""

from fractions import Fraction

from mvop.params import lambda_eig, mu_eig
from mvop.structure import build_structure


def structure(params) -> dict:
    """The structure matrices as Fractions; each float entry must be an integer."""
    st = build_structure(params)
    out = {}
    for name in ("C", "U", "V", "M0", "M1", "P0", "P1"):
        out[name] = [[Fraction(x) for x in row] for row in getattr(st, name).tolist()]
        assert all(x.denominator == 1 for row in out[name] for x in row), name
    return out


def _eye(dim, c=1):
    return [[Fraction(c) if i == j else Fraction(0) for j in range(dim)] for i in range(dim)]


def _add(A, B, b=1):
    return [[x + b * y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def _mul(A, B):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*B)] for row in A]


def _lower_solve(L, B):
    """L^{-1} B by forward substitution; L must be lower triangular."""
    assert all(L[i][j] == 0 for i in range(len(L)) for j in range(i + 1, len(L)))
    X = []
    for i, row in enumerate(B):
        X.append([(b - sum(L[i][j] * X[j][c] for j in range(i))) / L[i][i]
                  for c, b in enumerate(row)])
    return X


def M(S: dict, lam, m_minus_k):
    """M(lam) = (M0-M1)(U-C+1)^-1 (U+V+lam)(U-C)^-1 (V+lam) + (P1-P0)(U-C)^-1 (V+lam) - (m-k)V."""
    dim = len(S["C"])
    UC = _add(S["U"], S["C"], -1)
    inner = _lower_solve(UC, _add(S["V"], _eye(dim, lam)))
    outer = _lower_solve(_add(UC, _eye(dim)), _mul(_add(_add(S["U"], S["V"]), _eye(dim, lam)), inner))
    return _add(_add(_mul(_add(S["M0"], S["M1"], -1), outer), _mul(_add(S["P1"], S["P0"], -1), inner)),
                S["V"], -m_minus_k)


def eigvec(Mlam, mu) -> list:
    """The mu-eigenvector with first entry 1; M(lam) must be lower Hessenberg and
    the last row, unused by the substitution, must hold exactly."""
    ell = len(Mlam) - 1
    assert all(Mlam[i][j] == 0 for i in range(ell + 1) for j in range(i + 2, ell + 1))
    v = [Fraction(1)]
    for s in range(ell):
        v.append((mu * v[s] - sum(Mlam[s][j] * v[j] for j in range(s + 1))) / Mlam[s][s + 1])
    assert sum(x * y for x, y in zip(Mlam[ell], v)) == mu * v[ell]
    return v


def family(params, wmax: int) -> dict:
    """Exact coefficients of F_{w,r} for every label with w <= wmax: (w, r) -> [c_0..c_w].

    Each series is run one term past degree w, and that term must be exactly 0.
    """
    S = structure(params)
    dim = params.ell + 1
    C = _add(S["U"], S["C"], -1)
    out = {}
    for w in range(wmax + 1):
        for r in range(dim):
            lam, mu = lambda_eig(params, w, r), mu_eig(params, w, r)
            coeffs = [eigvec(M(S, lam, params.m - params.k), mu)]
            for m in range(w + 1):
                step = _add(_add(_add(_eye(dim, m * m), S["U"], m), _eye(dim, -m)), S["V"])
                rhs = _mul(_add(step, _eye(dim, lam)), [[x] for x in coeffs[-1]])
                coeffs.append([x[0] / (m + 1) for x in _lower_solve(_add(C, _eye(dim, m)), rhs)])
            assert all(x == 0 for x in coeffs.pop()), (w, r)
            out[w, r] = coeffs
    return out
