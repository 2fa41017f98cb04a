"""Construction of the polynomial eigenfunction family.

Each label (w, r) in S yields the polynomial F_{w,r}(u) of degree w via the
matrix hypergeometric series started at the normalized eigenvector of M(lambda).
From F the module recovers H = Psi F, the profile on the circle parameter, the
t-power three-term recursion residual, and the vanishing orders at t = 0 that
appear once m is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergeom import h1_apply, h1_coeffs
from .linalg import MatrixPoly, VectorPoly
from .operators import _psi, _second_order, _to_t
from .params import ParamError, Params, SpectralPair, in_S, lambda_eig, mu_eig
from .spectral import eigvec
from .structure import StructureSet, build_structure, pascal

__all__ = [
    "EigenFunction",
    "PolynomialPackage",
    "f_wr",
    "assemble_P",
    "h_from_f",
    "reexpand_in_t",
    "spherical_profile",
    "t_recursion_residual",
    "vanishing_orders",
]

# Series length margin beyond the guaranteed termination degree w.
_TERMINATION_MARGIN = 10
_LEADING_TOL = 1e-10


@dataclass(frozen=True)
class EigenFunction:
    w: int
    r: int
    spectral: SpectralPair
    poly: VectorPoly


@dataclass(frozen=True)
class PolynomialPackage:
    w: int
    P: MatrixPoly


def f_wr(params: Params, w: int, r: int, structure: StructureSet | None = None) -> EigenFunction:
    """Eigenfunction F_{w,r}: the terminating series applied to the eigenvector at 0."""
    return _build(structure if structure is not None else build_structure(params), [(w, r)])[0]


def assemble_P(params: Params, w: int, structure: StructureSet | None = None) -> PolynomialPackage:
    """Stack the row vectors F_{w,r}^t, r = 0..ell, into one matrix polynomial."""
    return _Family(params, structure).P(w)


def _build(st: StructureSet, labels: list) -> list:
    """F_{w,r} for each label, in order, from one series over the whole stack.

    Each F_{w,r} must terminate at degree exactly w with leading coefficient
    (x_0..x_r, 0..0), x_r nonzero, or the build raises: the error of the first
    failing label, so an eigvec error waits for the earlier labels' checks.
    """
    params = st.params
    pairs, held = [], None
    for w, r in labels:
        try:
            if not in_S(params, w, r):
                raise ParamError(f"label (w={w}, r={r}) outside the admissible set S")
            lam = lambda_eig(params, w, r)
            pairs.append((SpectralPair(w, r, lam, mu_eig(params, w, r)), eigvec(st, lam, r)))
        except Exception as exc:  # raised below, after the earlier labels' checks
            held = exc
            break
    out = []
    if pairs:
        series = h1_coeffs(st.U - st.C, st.U, st.V, [sp.lam for sp, _ in pairs],
                           [v0 for _, v0 in pairs], max(sp.w for sp, _ in pairs) + _TERMINATION_MARGIN)
    for i, (sp, _) in enumerate(pairs):
        w, r = sp.w, sp.r
        poly = h1_apply(series[: w + _TERMINATION_MARGIN + 1, i])
        if poly.degree != w:
            raise RuntimeError(f"series terminated at degree {poly.degree}, expected w={w}")
        lead, scale = poly.coeffs[-1], poly.max_abs
        if abs(lead[r]) <= _LEADING_TOL * scale:
            raise RuntimeError(f"leading coefficient entry {r} vanished for label ({w},{r})")
        if r + 1 <= st.ell and np.abs(lead[r + 1:]).max() > _LEADING_TOL * scale:
            raise RuntimeError(f"leading coefficient extends past position r={r} for label ({w},{r})")
        out.append(EigenFunction(w=w, r=r, spectral=sp, poly=poly))
    if held is not None:
        raise held
    return out


def _stack_P(w: int, rows: list) -> PolynomialPackage:
    """P_w from its rows F_{w,0}..F_{w,ell}.

    _build has checked that row r has degree w and a leading coefficient that
    ends at entry r, so the leading coefficient is lower triangular; its
    diagonal is checked again against the scale of the whole package.
    """
    coeffs = np.stack([ef.poly.coeffs for ef in rows], axis=1)
    if (np.abs(np.diag(coeffs[-1])) <= _LEADING_TOL * float(np.abs(coeffs).max())).any():
        raise RuntimeError(f"leading coefficient of P_{w} is singular on the diagonal")
    return PolynomialPackage(w=w, P=MatrixPoly(coeffs))


class _Family:
    """One parameter set's structure, F_{w,r} and P_w, each built on first use.

    The memo is keyed by "st", ("P", w) and each built label (w, r). members
    and P build every label they lack in one _build call; P_w is stacked from
    the same F_{w,r}. A build that raises is not kept, so every use of a bad
    label raises again. The memo lives as long as the object: one gram or
    run_suite call.
    """

    def __init__(self, params: Params, structure: StructureSet | None = None):
        self.params = params
        self._memo: dict = {} if structure is None else {"st": structure}

    def _get(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def st(self) -> StructureSet:
        return self._get("st", lambda: build_structure(self.params))

    def _labels(self, labels: list) -> list:
        todo = [lab for lab in labels if lab not in self._memo]
        self._memo.update(zip(todo, _build(self.st, todo)))
        return [self._memo[lab] for lab in labels]

    def members(self, wmax: int) -> list:
        """F_{w,r} for every label (w, r) in S with w <= wmax, by w then r."""
        return self._labels([(w, r) for w in range(wmax + 1) for r in range(self.params.ell + 1)
                             if in_S(self.params, w, r)])

    def P(self, w: int) -> PolynomialPackage:
        return self._get(("P", w), lambda: _stack_P(w, self._labels([(w, r) for r in range(self.st.dim)])))


def h_from_f(params: Params, F: VectorPoly) -> VectorPoly:
    """H = Psi F in the u variable; component s of Psi-free input is shifted by u^s, then X acts."""
    return VectorPoly(_psi(pascal(params.ell).astype(float), F.coeffs)).trim()


def reexpand_in_t(F: VectorPoly) -> VectorPoly:
    """Rewrite sum_p u^p c_p in powers of t = 1-u, exactly via binomials."""
    return VectorPoly(_to_t(F.coeffs))


def spherical_profile(params: Params, w: int, r: int, theta_grid) -> np.ndarray:
    """Profile values phi_s(theta) = t^((m+ell-s)/2) h_s(t), t = cos^2(theta).

    Rows follow theta_grid, columns s = 0..ell. Requires |theta| < pi/2.
    """
    theta = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    if (np.abs(theta) >= math.pi / 2).any():
        raise ParamError("theta must lie in the open interval (-pi/2, pi/2)")
    m = float(params.m_eff)
    ell = params.ell
    H = h_from_f(params, f_wr(params, w, r).poly)
    out = np.zeros((len(theta), ell + 1))
    for i, th in enumerate(theta):
        t = math.cos(th) ** 2
        out[i] = t ** ((m + ell - np.arange(ell + 1)) / 2.0) * H.evaluate_at(1.0 - t)
    return out


def t_recursion_residual(params: Params, F: VectorPoly, lam: float,
                         structure: StructureSet | None = None) -> float:
    """Residual of the three-term recursion among the t-power coefficients of H = Psi F.

    lam is the u-form eigenvalue; the recursion lives in the t-form where the
    eigenvalue flips sign, handled internally. Returns max row residual divided
    by the largest coefficient magnitude, so <= tol means the contract
    "<= tol x coefficient scale" holds.
    """
    st = structure if structure is not None else build_structure(params)
    c = reexpand_in_t(h_from_f(params, F)).coeffs
    rows = _second_order(c, _t_recursion_table(st, float(lam)))
    return float(np.abs(rows).max()) / max(float(np.abs(c).max()), 1e-300)


def _t_recursion_table(st: StructureSet, lam: float) -> list:
    """-(1-t)(D_t + lam) as a table: row j of its action on H is the recursion at t^j."""
    eye = np.eye(st.dim)
    A0, n = st.A0, float(st.params.n_eff)
    return [[st.B0 - lam * eye, st.B1 + lam * eye],
            [A0, -(2 * A0 + n * eye), A0 + n * eye],
            [None, eye, -2 * eye, eye]]


def vanishing_orders(params: Params, F: VectorPoly) -> list[int]:
    """Order of vanishing at t = 0 of each component of H = Psi F.

    Only meaningful for Integer mode with m < 0, where the profile forces
    h_s to vanish to order at least s - m - ell for s >= m + ell + 1. A
    component that is zero throughout reports degree+1.
    """
    if params.is_jacobi or params.m >= 0:
        raise ParamError("not applicable: vanishing orders require integer m < 0")
    G = reexpand_in_t(h_from_f(params, F))
    scale = max(G.max_abs, 1e-300)
    nonzero = np.abs(G.coeffs) > 1e-10 * scale
    return [int(np.argmax(col)) if col.any() else G.degree + 1 for col in nonzero.T]
