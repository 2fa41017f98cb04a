"""Three-term recurrence blocks for (1-u) P_w and the associated random walk.

(1-u) P_w = A_w P_{w-1} + B_w P_w + C_w P_{w+1}, with nonnegative entries and
unit row sums across [A | B | C], so each row is a probability distribution
over moves in the (w, r) lattice. Entries are products a^2 * b^2 of one-step
weight-shift factors; a 0/0 product is resolved numerator-first to 0. A walk's
observed transition counts are scored against those rows as binomial z-values.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .family import _Family
from .linalg import MatrixPoly
from .params import ParamError, Params, in_S, validate

__all__ = ["RecursionBlocks", "TransitionTally", "a_sq", "b_sq", "blocks",
           "three_term_residual", "transition_tally", "walk"]

_NEG_TOL = 1e-14


@dataclass(frozen=True)
class RecursionBlocks:
    w: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


_DIRECTIONS = {"1": "e1", "k+1": "ek", "n+1": "en"}


def _direction(i) -> str:
    """Map a shift index ('1', 'k+1' or 'n+1') to a tag."""
    tag = _DIRECTIONS.get(i.replace(" ", "")) if isinstance(i, str) else None
    if tag is None:
        raise ParamError(f"shift index must be '1', 'k+1' or 'n+1' (got {i!r})")
    return tag


def _ratio(num_factors, den_factors) -> float:
    num = 1.0
    for f in num_factors:
        num *= float(f)
    if num == 0.0:
        return 0.0
    den = 1.0
    for f in den_factors:
        den *= float(f)
    return num / den


def a_sq(params: Params, i, w: int, r: int) -> float:
    """Squared norm ratio for splitting off one positive step in direction i at (w, r)."""
    validate(params)
    k, ell = params.k, params.ell
    m = float(params.m_eff)
    n = float(params.n_eff)
    d = _direction(i)
    if d == "e1":
        return _ratio((w + k, w + ell + n), (w + ell - r + k, 2 * w + m + n + ell + r))
    if d == "ek":
        return _ratio((ell - r, r + n - k), (w + ell - r + k, w + m + n + 2 * r - k))
    return _ratio((w + m + n + ell + r - k, w + m + r), (w + m + n + 2 * r - k, 2 * w + m + n + ell + r))


def b_sq(params: Params, i, j, w: int, r: int) -> float:
    """Squared norm ratio for absorbing a step in direction j after a step in i."""
    validate(params)
    k, ell = params.k, params.ell
    m = float(params.m_eff)
    n = float(params.n_eff)
    di = _direction(i)
    dj = _direction(j)
    if di == "e1":
        if dj == "e1":
            return _ratio((w + 1, w + ell + k + 1), (w + ell - r + k + 1, 2 * w + m + n + ell + r + 1))
        if dj == "ek":
            return _ratio((w, w + ell + k), (w + ell - r + k - 1, 2 * w + m + n + ell + r))
        return _ratio((w, w + ell + k), (w + ell - r + k, 2 * w + m + n + ell + r - 1))
    if di == "ek":
        if dj == "e1":
            return _ratio((r, ell - r + k), (w + ell - r + k + 1, w + m + n + 2 * r - k))
        if dj == "ek":
            return _ratio((r + 1, ell - r + k - 1), (w + ell - r + k - 1, w + m + n + 2 * r - k + 1))
        return _ratio((r, ell - r + k), (w + ell - r + k, w + m + n + 2 * r - k - 1))
    if dj == "e1":
        return _ratio((w + m + n + ell + r, w + m + n + r - k), (w + m + n + 2 * r - k, 2 * w + m + n + ell + r + 1))
    if dj == "ek":
        return _ratio((w + m + n + ell + r, w + m + n + r - k), (w + m + n + 2 * r - k + 1, 2 * w + m + n + ell + r))
    return _ratio((w + m + n + ell + r - 1, w + m + n + r - k - 1), (w + m + n + 2 * r - k - 1, 2 * w + m + n + ell + r - 1))


def blocks(params: Params, w: int) -> RecursionBlocks:
    """Recurrence blocks A_w, B_w, C_w; entries checked nonnegative."""
    validate(params)
    if w < 0:
        raise ParamError("w >= 0 violated")
    for r in range(params.ell + 1):
        if not in_S(params, w, r):
            raise ParamError(f"(w, r) = ({w}, {r}) outside the parameter set")
    ell = params.ell
    dim = ell + 1
    A = np.zeros((dim, dim))
    B = np.zeros((dim, dim))
    C = np.zeros((dim, dim))

    def prod(a_dir, b_dir, r):
        # Two-step weight: split along a_dir, then absorb along b_dir at the
        # shifted parameter, so b_sq is evaluated with shift a_dir.
        a = a_sq(params, a_dir, w, r)
        if a == 0.0:
            return 0.0
        return a * b_sq(params, b_dir, a_dir, w, r)

    for r in range(dim):
        # w+1 block: split along e1, absorb along e_{n+1} (same r) or e_{k+1} (r-1).
        C[r, r] = prod("1", "n+1", r)
        if r >= 1:
            C[r, r - 1] = prod("1", "k+1", r)
        # w block: split and absorb along the same direction, or trade k+1/n+1.
        B[r, r] = prod("1", "1", r) + prod("k+1", "k+1", r) + prod("n+1", "n+1", r)
        if r + 1 <= ell:
            B[r, r + 1] = prod("k+1", "n+1", r)
        if r >= 1:
            B[r, r - 1] = prod("n+1", "k+1", r)
        # w-1 block: absorb along e1; its weight carries a factor w, so A_0 = 0.
        A[r, r] = prod("n+1", "1", r)
        if r + 1 <= ell:
            A[r, r + 1] = prod("k+1", "1", r)

    for name, mat in (("A", A), ("B", B), ("C", C)):
        low = mat.min()
        if low < -_NEG_TOL:
            raise ValueError(f"negative entry {low:g} in block {name} at w={w}")
    return RecursionBlocks(w=w, A=A, B=B, C=C)


def three_term_residual(params: Params, w: int) -> float:
    """Max coefficient residual of (1-u) P_w - A P_{w-1} - B P_w - C P_{w+1}, relative."""
    return _three_term(blocks(params, w), _Family(params).P)


def _three_term(blk: RecursionBlocks, package) -> float:
    """three_term_residual at blk.w, reading P_v from package(v).P."""
    w = blk.w
    Pw = package(w).P
    Pup = package(w + 1).P
    Pdn = package(w - 1).P if w else MatrixPoly.zeros(len(blk.A))
    lhs = Pw - Pw.shift_mul_by_u()
    rhs = Pdn.left_mul(blk.A) + Pw.left_mul(blk.B) + Pup.left_mul(blk.C)
    diff = lhs - rhs
    scale = max(1.0, lhs.max_abs, rhs.max_abs)
    return diff.max_abs / scale


def walk(params: Params, steps: int, seed: int, start: tuple = (0, 0)) -> list:
    """Sample a trajectory of the lattice walk defined by the recurrence rows.

    Reproducibility contract: the generator is random.Random(seed) (CPython's
    Mersenne Twister), exactly one rng.random() call is made per step, and the
    transition row is scanned in the fixed order [A row | B row | C row] with
    cumulative sums, picking the first slot whose cumulative mass exceeds the
    draw. Same seed, same trajectory, on every platform.
    """
    validate(params)
    if steps < 0:
        raise ParamError("steps >= 0 violated")
    w, r = int(start[0]), int(start[1])
    if not in_S(params, w, r):
        raise ParamError(f"start state ({w}, {r}) outside the parameter set")
    dim = params.ell + 1
    rng = random.Random(seed)
    rows_cache: dict = {}
    path = [(w, r)]
    for _ in range(steps):
        if w not in rows_cache:
            blk = blocks(params, w)
            rows_cache[w] = np.cumsum(np.hstack([blk.A, blk.B, blk.C]), axis=1).tolist()
        idx = bisect.bisect_right(rows_cache[w][r], rng.random())
        move, r = divmod(min(idx, 3 * dim - 1), dim)
        w += move - 1
        path.append((w, r))
    return path


@dataclass(frozen=True)
class TransitionTally:
    """Binomial calibration of a trajectory against the rows of [A_w | B_w | C_w].

    cells counts the transitions scored (expected count >= min_expected) and
    zero_cells the zero-probability transitions that never fired; impossible
    lists (state, next state, observed) for those that did. worst is
    (state, next state, observed, expected) at the largest |z|, worst_z.
    """

    cells: int
    zero_cells: int
    worst_z: float
    worst: tuple | None
    impossible: list


def transition_tally(params: Params, path: list, min_expected: float = 10.0) -> TransitionTally:
    """Score the transitions out of every visited state of path as binomial z-values."""
    visits = Counter(path[:-1])
    moves = Counter(zip(path, path[1:]))
    rows: dict = {}
    cells = zero_cells = 0
    worst_z, worst, impossible = 0.0, None, []
    for (w, r), n_visits in visits.items():
        if w not in rows:
            rows[w] = blocks(params, w)
        blk = rows[w]
        for dw, M in ((-1, blk.A), (0, blk.B), (1, blk.C)):
            for r_new in range(params.ell + 1):
                prob = M[r, r_new]
                dest = (w + dw, r_new)
                obs = moves.get(((w, r), dest), 0)
                if prob == 0.0:
                    if obs:
                        impossible.append(((w, r), dest, obs))
                    else:
                        zero_cells += 1
                    continue
                expected = prob * n_visits
                if expected < min_expected:
                    continue
                z = abs(obs - expected) / math.sqrt(prob * (1.0 - prob) * n_visits)
                cells += 1
                if z > worst_z:
                    worst_z, worst = z, ((w, r), dest, obs, expected)
    return TransitionTally(cells, zero_cells, worst_z, worst, impossible)
