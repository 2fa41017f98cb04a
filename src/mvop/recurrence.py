"""Three-term recurrence blocks for (1-u) P_w and the associated random walk.

(1-u) P_w = A_w P_{w-1} + B_w P_w + C_w P_{w+1}, with nonnegative entries and
unit row sums across [A | B | C], so each row is a probability distribution
over moves in the (w, r) lattice. Entries are products a^2 * b^2 of one-step
weight-shift factors; a 0/0 product is resolved numerator-first to 0. The
blocks are built as one table over w, every entry of every w in one array
expression; blocks(params, w) is its one-row case, and the walk and the tally
build it in 64-row chunks. A walk's observed transition counts are scored
against those rows as binomial z-values.
"""

from __future__ import annotations

import bisect
import math
import random
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .family import _Family
from .params import ParamError, Params, in_S, validate

__all__ = ["RecursionBlocks", "TransitionTally", "a_sq", "b_sq", "blocks",
           "three_term_residual", "transition_tally", "walk"]

_NEG_TOL = 1e-14
_CHUNK = 64


@dataclass(frozen=True)
class RecursionBlocks:
    w: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def _direction(i) -> str:
    """A shift index, '1', 'k+1' or 'n+1' (spaces ignored)."""
    d = i.replace(" ", "") if isinstance(i, str) else None
    if d not in ("1", "k+1", "n+1"):
        raise ParamError(f"shift index must be '1', 'k+1' or 'n+1' (got {i!r})")
    return d


# The closed forms of a^2 (keyed by its direction) and b^2 (keyed by the
# directions i, j of b_sq): numerator and denominator factors. Each factor is
# summed term by term as written, left to right, and each product taken left
# to right; the quotient is resolved numerator-first, so 0/0 -> 0.
_FORMS = {
    ("1",): (("w+k", "w+ell+n"), ("w+ell-r+k", "2*w+m+n+ell+r")),
    ("k+1",): (("ell-r", "r+n-k"), ("w+ell-r+k", "w+m+n+2*r-k")),
    ("n+1",): (("w+m+n+ell+r-k", "w+m+r"), ("w+m+n+2*r-k", "2*w+m+n+ell+r")),
    ("1", "1"): (("w+1", "w+ell+k+1"), ("w+ell-r+k+1", "2*w+m+n+ell+r+1")),
    ("1", "k+1"): (("w", "w+ell+k"), ("w+ell-r+k-1", "2*w+m+n+ell+r")),
    ("1", "n+1"): (("w", "w+ell+k"), ("w+ell-r+k", "2*w+m+n+ell+r-1")),
    ("k+1", "1"): (("r", "ell-r+k"), ("w+ell-r+k+1", "w+m+n+2*r-k")),
    ("k+1", "k+1"): (("r+1", "ell-r+k-1"), ("w+ell-r+k-1", "w+m+n+2*r-k+1")),
    ("k+1", "n+1"): (("r", "ell-r+k"), ("w+ell-r+k", "w+m+n+2*r-k-1")),
    ("n+1", "1"): (("w+m+n+ell+r", "w+m+n+r-k"), ("w+m+n+2*r-k", "2*w+m+n+ell+r+1")),
    ("n+1", "k+1"): (("w+m+n+ell+r", "w+m+n+r-k"), ("w+m+n+2*r-k+1", "2*w+m+n+ell+r")),
    ("n+1", "n+1"): (("w+m+n+ell+r-1", "w+m+n+r-k-1"), ("w+m+n+2*r-k-1", "2*w+m+n+ell+r-1")),
}
_FORM_INDEX = {key: i for i, key in enumerate(_FORMS)}

# The terms a factor is summed from, as c_w * w + c_r * r + c: the nine
# symbols, their negations and a zero that pads every factor to one length.
_SYMBOLS = ("w", "2*w", "r", "2*r", "m", "n", "k", "ell", "1")
_C_W = np.array([1, 2, 0, 0, 0, 0, 0, 0, 0], dtype=float)
_C_R = np.array([0, 0, 1, 2, 0, 0, 0, 0, 0], dtype=float)


def _term_codes() -> np.ndarray:
    """(form, factor, term) -> row of the signed basis of _ratios."""
    factors = [re.findall(r"[+-]?[^+-]+", f) for num, den in _FORMS.values() for f in num + den]
    pad = 2 * len(_SYMBOLS)
    codes = np.full((len(factors), max(map(len, factors))), pad)
    for i, terms in enumerate(factors):
        for j, term in enumerate(terms):
            codes[i, j] = _SYMBOLS.index(term.lstrip("+-")) + len(_SYMBOLS) * term.startswith("-")
    return codes.reshape(len(_FORMS), 4, -1)


_CODES = _term_codes()


def _ratios(params: Params, w, r) -> np.ndarray:
    """Every closed form of _FORMS at (w, r), stacked along a first axis.

    w and r are numbers or arrays that broadcast (w a column, r a row).
    """
    consts = np.array([0, 0, 0, 0, params.m_eff, params.n_eff, params.k, params.ell, 1], dtype=float)
    lift = (-1,) + (1,) * max(np.ndim(w), np.ndim(r))
    c_w, c_r, c = (np.concatenate([v, -v, [0.0]]).reshape(lift) for v in (_C_W, _C_R, consts))
    basis = c_w * np.asarray(w, dtype=float) + c_r * np.asarray(r, dtype=float) + c
    f = basis[_CODES[..., 0]]
    for j in range(1, _CODES.shape[-1]):
        f = f + basis[_CODES[..., j]]
    num = f[:, 0] * f[:, 1]
    den = f[:, 2] * f[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num == 0.0, 0.0, num / den)


def a_sq(params: Params, i, w: int, r: int) -> float:
    """Squared norm ratio for splitting off one positive step in direction i at (w, r)."""
    validate(params)
    return _ratios(params, w, r)[_FORM_INDEX[_direction(i),]]


def b_sq(params: Params, i, j, w: int, r: int) -> float:
    """Squared norm ratio for absorbing a step in direction j after a step in i."""
    validate(params)
    return _ratios(params, w, r)[_FORM_INDEX[_direction(i), _direction(j)]]


# The two-step weights a^2(a_dir) * b^2(b_dir after a_dir) behind each entry:
# (block, shift of the column from r, [(a_dir, b_dir), ...] summed in order).
_ENTRIES = (
    # w-1 block: absorb along e1; its weight carries a factor w, so A_0 = 0.
    (0, 0, [("n+1", "1")]),
    (0, 1, [("k+1", "1")]),
    # w block: split and absorb along the same direction, or trade k+1/n+1.
    (1, 0, [("1", "1"), ("k+1", "k+1"), ("n+1", "n+1")]),
    (1, 1, [("k+1", "n+1")]),
    (1, -1, [("n+1", "k+1")]),
    # w+1 block: split along e1, absorb along e_{n+1} (same r) or e_{k+1} (r-1).
    (2, 0, [("1", "n+1")]),
    (2, -1, [("1", "k+1")]),
)
# Split along a_dir, then absorb along b_dir at the shifted parameter, so b^2
# is the form (b_dir, a_dir).
_SPLIT = [_FORM_INDEX[a_dir,] for _, _, pairs in _ENTRIES for a_dir, _ in pairs]
_ABSORB = [_FORM_INDEX[b_dir, a_dir] for _, _, pairs in _ENTRIES for a_dir, b_dir in pairs]


def _block_rows(params: Params, w0: int, w1: int) -> np.ndarray:
    """Rows [A_w | B_w | C_w] for w0 <= w < w1, as one (w1-w0, ell+1, 3(ell+1)) array.

    Raises ParamError at the first label (w, r) outside S, then ValueError at the first
    w (block A, B, C) with a negative or non-finite entry or row (w, r) with |sum - 1| > 1e-12.
    """
    validate(params)
    if w0 < 0:
        raise ParamError("w >= 0 violated")
    # m + w + r >= 0 only gets easier as w grows, so row w0 decides.
    for r in range(params.ell + 1):
        if not in_S(params, w0, r):
            raise ParamError(f"(w, r) = ({w0}, {r}) outside the parameter set")
    dim = params.ell + 1
    q = _ratios(params, np.arange(w0, w1)[:, None], np.arange(dim))
    a, b = q[_SPLIT], q[_ABSORB]
    with np.errstate(invalid="ignore"):
        two_step = iter(np.where(a == 0.0, 0.0, a * b))
    rows = np.zeros((w1 - w0, dim, 3 * dim))
    # Entry (r, r + shift) of a block sits at r (3 dim + 1) + block dim + shift
    # of the flattened row, so each entry kind is one strided slice.
    flat = rows.reshape(len(rows), 3 * dim * dim)
    for block, shift, pairs in _ENTRIES:
        terms = [next(two_step) for _ in pairs]
        total = sum(terms[1:], terms[0])
        lo, hi = max(0, -shift), dim - max(0, shift)
        start = lo * (3 * dim + 1) + block * dim + shift
        flat[:, start:start + (hi - lo) * (3 * dim + 1):3 * dim + 1] = total[:, lo:hi]

    per_block = rows.reshape(len(rows), dim, 3, dim)
    low = per_block.min(axis=(1, 3))
    finite = np.isfinite(per_block).all(axis=(1, 3))
    bad = np.argwhere((low < -_NEG_TOL) | ~finite)
    if len(bad):
        i, j = bad[0]
        what = f"negative entry {low[i, j]:g}" if finite[i, j] else "non-finite entry"
        raise ValueError(f"{what} in block {'ABC'[j]} at w={w0 + i}")
    off = np.abs(rows.sum(axis=2) - 1.0)
    for i, r in np.argwhere(off > 1e-12)[:1]:  # the first row off by more than row_sums' tolerance
        raise ValueError(f"row sum off 1 by {off[i, r]:.3g} at w={w0 + i}, r={r}")
    return rows


def _chunk(params: Params, w: int) -> tuple:
    """(lo, rows): the table chunk holding w, rows for lo <= w' < 64 (w // 64 + 1).

    lo is 64 (w // 64), raised to the first w whose labels are all in S; below
    that w the chunk starts at w itself, so building it raises as blocks would.
    """
    base = _CHUNK * (w // _CHUNK)
    w_all_in_S = max(0, math.ceil(-params.m_eff))
    lo = max(base, min(w, w_all_in_S))
    return lo, _block_rows(params, lo, base + _CHUNK)


def _split(w: int, row: np.ndarray) -> RecursionBlocks:
    dim = len(row)
    A, B, C = (row[:, j * dim:(j + 1) * dim].copy() for j in range(3))
    return RecursionBlocks(w=w, A=A, B=B, C=C)


def blocks(params: Params, w: int) -> RecursionBlocks:
    """Recurrence blocks A_w, B_w, C_w; entries checked nonnegative."""
    return _split(w, _block_rows(params, w, w + 1)[0])


def three_term_residual(params: Params, w: int) -> float:
    """Max coefficient residual of (1-u) P_w - A P_{w-1} - B P_w - C P_{w+1}, relative."""
    return float(_three_term(_block_rows(params, w, w + 1), w, _Family(params).P)[0])


def _three_term(rows: np.ndarray, w0: int, package) -> np.ndarray:
    """three_term_residual at w = w0, w0 + 1, ... from rows = _block_rows(params, w0, ...) and
    P_v = package(v).P, zero-padded to one degree (P_{-1} = 0): one einsum per block."""
    n, dim = rows.shape[:2]
    P = np.zeros((n + 2, w0 + n + 2, dim, dim))  # the power axis starts at a zero u^-1
    for v in range(max(w0 - 1, 0), w0 + n + 1):
        c = package(v).P.coeffs
        P[v - w0 + 1, 1:len(c) + 1] = c
    lhs = P[1:-1, 1:] - P[1:-1, :-1]
    abc = rows.reshape(n, dim, 3, dim)  # (A P_{w-1} + B P_w) + C P_{w+1}, as the sum is written
    rhs = sum(np.einsum("wab,wjbc->wjac", abc[:, :, i], P[i:i + n, 1:]) for i in range(3))
    diff, top_l, top_r = (np.abs(x).max(axis=(1, 2, 3)) for x in (lhs - rhs, lhs, rhs))
    return diff / np.maximum(1.0, np.maximum(top_l, top_r))


def _cumulative(rows: np.ndarray) -> list:
    """Cumulative sums along each row, as lists; from a row's last slot with
    positive mass on they read +inf, so every draw in [0, 1) lands on a move."""
    cum = np.cumsum(rows, axis=2)
    width = rows.shape[2]
    last = width - 1 - np.argmax(rows[:, :, ::-1] > 0.0, axis=2)
    cum[np.arange(width) >= last[..., None]] = np.inf
    return cum.tolist()


def walk(params: Params, steps: int, seed: int, start: tuple = (0, 0)) -> list:
    """Sample a trajectory of the lattice walk defined by the recurrence rows.

    Reproducibility contract: the generator is random.Random(seed) (CPython's
    Mersenne Twister), exactly one rng.random() call is made per step, and the
    transition row is scanned in the fixed order [A row | B row | C row] with
    cumulative sums, picking the first slot whose cumulative mass exceeds the
    draw. A row's sum may round to 1 - 2**-52; a draw at or above it picks the
    last slot of the row with positive mass. Same seed, same trajectory, on
    every platform.

    The rows come in 64-row chunks of the block table, each built the first
    time the walk visits one of its w.
    """
    validate(params)
    if steps < 0:
        raise ParamError("steps >= 0 violated")
    w, r = int(start[0]), int(start[1])
    if not in_S(params, w, r):
        raise ParamError(f"start state ({w}, {r}) outside the parameter set")
    dim = params.ell + 1
    draw = random.Random(seed).random
    cum: dict = {}
    path = [(w, r)]
    for _ in range(steps):
        rows = cum.get(w)
        if rows is None:
            lo, table = _chunk(params, w)
            cum.update(enumerate(_cumulative(table), lo))
            rows = cum[w]
        move, r = divmod(bisect.bisect_right(rows[r], draw()), dim)
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
    """Score the transitions out of every visited state of path as binomial z-values.

    The rows are read from the same 64-row chunks of the block table the walk uses.
    """
    visits = Counter(path[:-1])
    moves = Counter(zip(path, path[1:]))
    dim = params.ell + 1
    rows: dict = {}
    cells = zero_cells = 0
    worst_z, worst, impossible = 0.0, None, []
    for (w, r), n_visits in visits.items():
        if w not in rows:
            lo, table = _chunk(params, w)
            rows.update(enumerate(table.tolist(), lo))
        for slot, prob in enumerate(rows[w][r]):
            dest = (w + slot // dim - 1, slot % dim)
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
