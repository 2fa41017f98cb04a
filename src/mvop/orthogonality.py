"""Weight matrices on [0,1], quadrature, inner products, Gram assembly.

The diagonal weight V(u) and the full weight W(u) = Psi*(u) V(u) Psi(u) both
carry the scalar prefactor 2n, so the defining identity holds entry by entry.
Every inner product is taken in the frame where the weight is diagonal:
<p, q>_W = sum_r integral of (Psi p)_r (Psi q)_r V_rr, one quadrature rule per
r, in both modes. Integer mode folds V_rr = 2n c_r u^(n-1) (1-u)^(m+ell-r)
into the weights of a Gauss-Legendre rule exact for the polynomial integrand;
Jacobi mode, whose exponents are real, absorbs u^beta (1-u)^(alpha+ell-r) into
a Gauss-Jacobi rule (Golub-Welsch). weight_W_at builds W itself, for the consistency check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .family import _Family, f_wr  # noqa: F401 (f_wr: perfbench's tests look it up here)
from .linalg import MatrixPoly, VectorPoly
from .params import ParamError, Params, validate
from .structure import pascal

__all__ = [
    "WeightSpec",
    "GramResult",
    "weight_V_at",
    "weight_W_at",
    "quad_rule",
    "inner_vec",
    "inner_mat",
    "gram",
    "max_offdiag_ratio",
    "max_block_offdiag_ratio",
]


@dataclass(frozen=True)
class WeightSpec:
    params: Params


def _require_weight(params: Params) -> None:
    validate(params)
    if not params.is_jacobi and params.m < 0:
        raise ParamError("weight undefined for m<0")


def gen_binom(x, j: int) -> float:
    """binom(x, j) for real x and integer j >= 0 via the falling-factorial product.

    Matches math.comb on integers and gives binom(x, 0) = 1 for every x.
    """
    out = 1.0
    for i in range(j):
        out *= (x - i)
    return out / math.factorial(j)


def _weight_coeffs(params: Params) -> np.ndarray:
    """Diagonal coefficients binom(ell+k-r-1, ell-r) binom(n-k+r-1, r), r = 0..ell."""
    ell, k = params.ell, params.k
    n = float(params.n_eff)
    return np.array([gen_binom(ell + k - r - 1, ell - r) * gen_binom(n - k + r - 1, r)
                     for r in range(ell + 1)])


def weight_V_at(params: Params, u: float) -> np.ndarray:
    """Diagonal weight 2n sum_r c_r (1-u)^(m+ell-r) u^(n-1) E_rr."""
    _require_weight(params)
    m = float(params.m_eff)
    n = float(params.n_eff)
    ell = params.ell
    u = float(u)
    c = _weight_coeffs(params)
    vals = np.array([2.0 * n * c[r] * (1.0 - u) ** (m + ell - r) * u ** (n - 1.0)
                     for r in range(ell + 1)])
    return np.diag(vals)


def weight_W_at(params: Params, u: float) -> np.ndarray:
    """Full weight W(u) = Psi* V Psi, via its explicit double sum; exactly symmetric."""
    _require_weight(params)
    m = float(params.m_eff)
    n = float(params.n_eff)
    ell = params.ell
    u = float(u)
    c = _weight_coeffs(params)
    one_minus = np.array([(1.0 - u) ** (m + ell - r) for r in range(ell + 1)])
    W = np.zeros((ell + 1, ell + 1))
    for i in range(ell + 1):
        for j in range(i, ell + 1):
            acc = 0.0
            for r in range(j, ell + 1):
                acc += math.comb(r, i) * math.comb(r, j) * c[r] * one_minus[r]
            W[i, j] = W[j, i] = 2.0 * n * acc * u ** (i + j + n - 1.0)
    return W


def quad_rule(max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0,1], exact through max_degree."""
    if max_degree < 0:
        raise ParamError("max_degree >= 0 violated")
    return _gl_rule(max_degree // 2 + 1)


@lru_cache(maxsize=None)
def _gl_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


# Keys carry real exponents (a new pair per Jacobi parameter set), so the cache is bounded.
@lru_cache(maxsize=256)
def _gj_rule(npts: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [0,1] with the weight u^b (1-u)^a folded in, for npts >= 1 and a, b > -1.

    Golub-Welsch: the eigenvalues of the Jacobi matrix of P^(a,b) on [-1,1], one Newton step on
    P_npts by its three-term recurrence, and the Christoffel weights 1/((1-x^2) P_npts'(x)^2)
    scaled to the mass B(a+1, b+1); matrix entries that read 0/0 at a + b = 0 or -1 are reduced.
    """
    a1, b1 = a + 1.0, b + 1.0  # exact near -1, where they are the small quantities
    k = np.arange(1, npts)
    s = 2.0 * k - 2.0 + a1 + b1  # 2k + a + b
    ratio = np.divide(k * (k - 2.0 + a1 + b1), s - 1.0, out=np.ones(npts - 1), where=k > 1)  # 1 at k = 1
    jac = np.diag(np.append((b1 - a1) / (a1 + b1), (b1 - a1) * (a + b) / (s * (s + 2.0))))
    jac[k - 1, k] = 2.0 / s * np.sqrt((k - 1.0 + a1) * (k - 1.0 + b1) / (s + 1.0) * ratio)

    def p_and_dp(x):
        p0, p1 = np.ones(npts), ((a1 + b1) * x + a1 - b1) / 2.0
        for j in range(2, npts + 1):
            c = 2.0 * j - 4.0 + a1 + b1  # 2j + a + b - 2
            d = 2.0 * j * (j - 2.0 + a1 + b1) * c
            p0, p1 = p1, ((c + 1.0) * (c + 2.0) * c / d * x + (c + 1.0) * (a1 - b1) * (a + b) / d) * p1 \
                - (2.0 * (j - 2.0 + a1) * (j - 2.0 + b1) * (c + 2.0) / d) * p0
        c = 2.0 * npts - 2.0 + a1 + b1
        dp = npts * (a1 - b1 - c * x) * p1 + 2.0 * (npts - 1.0 + a1) * (npts - 1.0 + b1) * p0
        return p1, dp / (c * (1.0 - x) * (1.0 + x))

    x = np.linalg.eigvalsh(jac, UPLO="U")
    x = x - np.divide(*p_and_dp(x))
    dp = p_and_dp(x)[1]
    w = 1.0 / ((1.0 - x) * (1.0 + x) * (dp / np.abs(dp).max()) ** 2)
    mass = (math.gamma(a1) / math.gamma(a1 + b1) * math.gamma(b1) if a + b < 169.0  # Gamma finite
            else math.exp(math.lgamma(a1) + math.lgamma(b1) - math.lgamma(a1 + b1)))
    return (x + 1.0) / 2.0, w * (mass / w.sum())


def _frame_rule(params: Params, r: int, degree: int):
    """Quadrature for the r-th diagonal term of V, for vector polynomials of degree <= degree.

    Returns the nodes u, the weights with V_rr(u) = 2n c_r u^(n-1) (1-u)^(m+ell-r)
    folded in, and row r of Psi at the nodes, shape (len(u), ell+1). The rule
    integrates (Psi p)_r (Psi q)_r V_rr exactly; apart from V_rr that product
    has degree 2 (degree + r).
    """
    ell = params.ell
    n = float(params.n_eff)
    a_exp = float(params.m_eff) + ell - r
    poly_deg = 2 * (degree + r)
    if params.is_jacobi:
        u, wq = _gj_rule(poly_deg // 2 + 1, a_exp, n - 1.0)
    else:
        deg = poly_deg + params.n - 1 + params.m + ell - r
        u, wq = _gl_rule(deg // 2 + 1)
        wq = wq * u ** (n - 1.0) * (1.0 - u) ** a_exp
    wq = 2.0 * n * _weight_coeffs(params)[r] * wq
    psi = pascal(ell)[r] * u[:, None] ** np.arange(ell + 1)
    return u, wq, psi


def _stack(parts) -> np.ndarray:
    """Concatenate coefficient stacks (count, degree+1, dim), zero-padding the degree axis."""
    out = np.zeros((sum(len(c) for c in parts), max(c.shape[1] for c in parts), parts[0].shape[2]))
    i = 0
    for c in parts:
        out[i:i + len(c), :c.shape[1]] = c
        i += len(c)
    return out


def _frame_grams(params: Params, stacks: list) -> list:
    """<p_i, p_j>_W for every pair within each stack of vector polynomials.

    A stack is an array (count, degree+1, ell+1) of coefficients. All stacks
    share the nodes and the Vandermonde matrix of each r. The results are
    exactly symmetric.
    """
    degree = max(c.shape[1] for c in stacks) - 1
    out = [np.zeros((len(c), len(c))) for c in stacks]
    for r in range(params.ell + 1):
        u, wq, psi = _frame_rule(params, r, degree)
        vander = u[:, None] ** np.arange(degree + 1)
        for acc, c in zip(out, stacks):
            values = np.tensordot(vander[:, :c.shape[1]], c, (1, 1))
            pr = np.einsum("qid,qd->iq", values, psi)
            acc += (pr * wq) @ pr.T
    return [(g + g.T) / 2.0 for g in out]


def inner_vec(wspec: WeightSpec, F1: VectorPoly, F2: VectorPoly) -> float:
    """<F1, F2>_W = integral of F2(u)^t W(u) F1(u) over [0,1], exact quadrature."""
    _require_weight(wspec.params)
    stack = _stack([F1.coeffs[None], F2.coeffs[None]])
    return float(_frame_grams(wspec.params, [stack])[0][0, 1])


def inner_mat(wspec: WeightSpec, P1: MatrixPoly, P2: MatrixPoly) -> np.ndarray:
    """Matrix-level integral of P1(u) W(u) P2(u)^t over [0,1]."""
    _require_weight(wspec.params)
    dim = P1.dim
    stack = _stack([P1.coeffs.transpose(1, 0, 2), P2.coeffs.transpose(1, 0, 2)])
    return _frame_grams(wspec.params, [stack])[0][:dim, dim:]


@dataclass(frozen=True)
class GramResult:
    labels: list
    matrix: np.ndarray
    blocks: dict


def gram(wspec: WeightSpec, wmax: int) -> GramResult:
    """Vector-level Gram matrix over all labels (w <= wmax) plus matrix-level blocks.

    The labels and the packages P_w are integrated separately, so the blocks
    also check how P_w stacks the rows.
    """
    if wmax < 0:
        raise ParamError("wmax >= 0 violated")
    return _gram(_Family(wspec.params), wmax)


def _gram(fam: _Family, wmax: int) -> GramResult:
    """gram on a family: F_{w,r} is built once per label and P_w is stacked from those rows."""
    params = fam.params
    _require_weight(params)
    dim = params.ell + 1
    members = fam.members(wmax)
    labels = [(ef.w, ef.r) for ef in members]
    label_stack = _stack([ef.poly.coeffs[None] for ef in members])
    pack_stack = _stack([fam.P(w).P.coeffs.transpose(1, 0, 2) for w in range(wmax + 1)])
    matrix, packed = _frame_grams(params, [label_stack, pack_stack])
    blocks = {(w, wp): packed[w * dim:(w + 1) * dim, wp * dim:(wp + 1) * dim]
              for w in range(wmax + 1) for wp in range(w, wmax + 1)}
    return GramResult(labels=labels, matrix=matrix, blocks=blocks)


def max_offdiag_ratio(matrix: np.ndarray) -> float:
    """Largest |off-diagonal| / sqrt(diag_i diag_j) of a Gram matrix."""
    d = np.sqrt(np.diag(matrix))
    ratio = np.abs(matrix) / np.outer(d, d)
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max(initial=0.0))


def max_block_offdiag_ratio(result: GramResult) -> float:
    """Matrix-level analogue: entries of every block, scaled by the diagonal norms.

    Block (w, w') entry (r, r') is the pairing of labels (w, r) and (w', r');
    every entry with (w, r) != (w', r') must vanish.
    """
    norms = {w: np.sqrt(np.diag(block)) for (w, wp), block in result.blocks.items() if w == wp}
    worst = []
    for (w, wp), block in result.blocks.items():
        ratio = np.abs(block) / np.outer(norms[w], norms[wp])
        if w == wp:
            np.fill_diagonal(ratio, 0.0)
        worst.append(ratio.max(initial=0.0))
    return float(np.max(worst, initial=0.0))
