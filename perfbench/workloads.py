"""Workload definitions: input pools, the op each workload times, and its gate.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. Inputs come only from the run's seed. Pools are
drawn without replacement in a seeded order that deals the strata of a pool
(``ell``, ``wmax`` and ``n``, the inputs that set an op's size) round-robin, so
a run of any length sees the same mix of op sizes whatever the seed; only when
a pool runs out does a run start a fresh seeded pass, and it counts those
repeats.

A gate checks each op's output outside the timed region. It is written
against the mathematical contract with numpy, not with the checking code of
``mvop``, so a defect in that code cannot pass its own output.

Where the pools come from, and the points left out of them, is in README.md;
``sweep.py`` re-measures that.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mvop.cli
import mvop.orthogonality
import mvop.recurrence
from mvop.params import Params

GRAM_TOL = 1e-9
WALK_STEPS = 20000

# The checks one `mvop verify --suite all` runs, in its output order.
VERIFY_CHECKS = (
    "eigen/operator_residuals", "eigen/degree_and_leading", "eigen/charpoly",
    "eigen/superdiag_flat", "eigen/conjugation", "eigen/exact_identities",
    "ortho/weight_consistency", "ortho/gram_vector", "ortho/gram_matrix",
    "recursion/row_sums", "recursion/nonnegativity", "recursion/three_term",
    "recursion/t_power", "recursion/walk_reproducible",
)

# (ell, wmax) points of the Gram workloads.
GRAM_POINTS = ((2, 6), (3, 6), (4, 4))

# Integer sets (n, k, ell, m) of the gram_integer grid whose worst off-diagonal
# ratio at their point is above 1e-10, less than ten times inside the contract
# (README.md lists the measured ratios; sweep.py re-measures them).
GRAM_INTEGER_LEFT_OUT = frozenset({
    (5, 1, 2, 0),
    (4, 1, 3, 0), (4, 1, 3, 2), (4, 2, 3, 0), (4, 2, 3, 1), (5, 1, 3, 0), (5, 1, 3, 1),
    (5, 1, 3, 2), (5, 1, 3, 4), (5, 2, 3, 0), (5, 2, 3, 1), (5, 2, 3, 2), (5, 2, 3, 3),
    (5, 3, 3, 0), (5, 4, 3, 0),
    (3, 1, 4, 0), (4, 1, 4, 0), (4, 1, 4, 1), (4, 2, 4, 0), (5, 1, 4, 0), (5, 1, 4, 1),
    (5, 1, 4, 3), (5, 1, 4, 4), (5, 2, 4, 0), (5, 3, 4, 0),
})

# Jacobi sets of verify_sets, all with alpha >= 0: (alpha, beta, k, ell).
VERIFY_JACOBI = ((0.5, 1.5, 1, 0), (1.25, 2.5, 2, 1), (0.0, 2.75, 1, 2), (2.0, 3.5, 3, 2))

# Jacobi draw region of gram_jacobi: k uniform in {1, 2}, alpha uniform in
# [1.5, 3.5), beta - (k - 1) uniform in [0.5, 1.5). Smaller alpha, larger
# beta - (k - 1) or k = 3 bring the (3, 6) point above 1e-10 (README.md).
JACOBI_K = (1, 2)
JACOBI_ALPHA = (1.5, 3.5)
JACOBI_BETA_GAP = (0.5, 1.5)

WALK_POOL = (Params.integer(2, 1, 1, 0), Params.integer(3, 1, 2, 1),
             Params.integer(4, 2, 2, 1), Params.jacobi(0.5, 1.5, 1, 2))


@dataclass
class OpResult:
    """Outcome of one op: gate verdict plus the figures a gate can read off."""

    ok: bool
    reason: str = ""
    info: dict = field(default_factory=dict)


def integer_sets(ns, ells, ms):
    return [Params.integer(n, k, ell, m) for n in ns for k in range(1, n)
            for ell in ells for m in ms]


def verify_pool() -> list:
    pool = integer_sets((2, 3, 4, 5), (0, 1, 2), (0, 1, 2, 3, 4))
    return pool + [Params.jacobi(*spec) for spec in VERIFY_JACOBI]


def gram_integer_grid() -> list:
    return [(p, wmax) for ell, wmax in GRAM_POINTS
            for p in integer_sets((2, 3, 4, 5), (ell,), (0, 1, 2, 3, 4))]


def gram_integer_pool() -> list:
    return [(p, wmax) for p, wmax in gram_integer_grid()
            if (p.n, p.k, p.ell, p.m) not in GRAM_INTEGER_LEFT_OUT]


def draw_jacobi(rng: random.Random, ell: int) -> Params:
    k = rng.choice(JACOBI_K)
    alpha = rng.uniform(*JACOBI_ALPHA)
    beta = k - 1 + rng.uniform(*JACOBI_BETA_GAP)
    return Params.jacobi(alpha, beta, k, ell)


def dealt(rng: random.Random, pool: list, stratum) -> list:
    """One seeded pass: shuffle each stratum, then deal the strata round-robin."""
    strata: dict = {}
    for item in pool:
        strata.setdefault(stratum(item), []).append(item)
    lanes = [strata[key] for key in sorted(strata)]
    for lane in lanes:
        rng.shuffle(lane)
    order = []
    for i in range(max(len(lane) for lane in lanes)):
        order += [lane[i] for lane in lanes if i < len(lane)]
    return order


def pooled(seed: int, pool: list, stratum):
    """Endless seeded sequence over a pool; each pass is a fresh dealt order."""
    rng = random.Random(seed)
    while True:
        yield from dealt(rng, pool, stratum)


def cli_args(p: Params) -> list:
    if p.is_jacobi:
        return ["--jacobi", "--alpha", repr(p.alpha), "--beta", repr(p.beta),
                "--k", str(p.k), "--ell", str(p.ell)]
    return ["--n", str(p.n), "--k", str(p.k), "--ell", str(p.ell), "--m", str(p.m)]


def describe(p: Params) -> str:
    return " ".join(f"{k}={v}" for k, v in p.describe().items())


def max_offdiag_ratio(matrix: np.ndarray) -> float:
    d = np.sqrt(np.diag(matrix))
    ratio = np.abs(matrix) / np.outer(d, d)
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max()) if ratio.size > 1 else 0.0


def max_block_ratio(blocks: dict, wmax: int) -> float:
    norms = {w: np.sqrt(np.diag(blocks[(w, w)])) for w in range(wmax + 1)}
    worst = 0.0
    for (w, wp), block in blocks.items():
        ratio = np.abs(block) / np.outer(norms[w], norms[wp])
        if w == wp:
            np.fill_diagonal(ratio, 0.0)
        worst = max(worst, float(ratio.max()))
    return worst


def gram_gate(p: Params, wmax: int, result) -> OpResult:
    """Labels complete, Gram symmetric with positive diagonal, orthogonal to 1e-9."""
    dim = p.ell + 1
    labels = [(w, r) for w in range(wmax + 1) for r in range(dim)]
    if list(result.labels) != labels:
        return OpResult(False, "label set differs from w <= wmax, 0 <= r <= ell")
    G = np.asarray(result.matrix)
    if G.shape != (len(labels),) * 2 or not np.array_equal(G, G.T):
        return OpResult(False, "Gram matrix is not square and symmetric")
    if not (np.isfinite(G).all() and (np.diag(G) > 0).all()):
        return OpResult(False, "Gram diagonal is not finite and positive")
    want = {(w, wp) for w in range(wmax + 1) for wp in range(w, wmax + 1)}
    if set(result.blocks) != want:
        return OpResult(False, "matrix-level blocks missing")
    if any(not (np.diag(result.blocks[(w, w)]) > 0).all() for w in range(wmax + 1)):
        return OpResult(False, "matrix-level diagonal is not positive")
    ratio = max(max_offdiag_ratio(G), max_block_ratio(result.blocks, wmax))
    info = {"contract_margin": ratio / GRAM_TOL}
    if not ratio <= GRAM_TOL:
        return OpResult(False, f"off-diagonal ratio {ratio:.3g} > {GRAM_TOL:g}", info)
    return OpResult(True, info=info)


class Workload:
    """A named op sequence; ``run`` is timed, ``gate`` is not."""

    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.repeats = 0

    def inputs(self):
        raise NotImplementedError

    def warmup_input(self):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def gate(self, item, result, op_index: int) -> OpResult:
        raise NotImplementedError

    def label(self, item) -> str:
        raise NotImplementedError


class _Pooled(Workload):
    """Draws from ``self.pool()`` in the dealt order of ``self.stratum``."""

    def inputs(self):
        pool = self.pool()
        seen = set()
        for item in pooled(self.seed, pool, self.stratum):
            if item in seen:
                self.repeats += 1
            seen.add(item)
            yield item


class VerifySets(_Pooled):
    """``mvop verify <set> --format json --out <file>`` through ``cli.main``."""

    name = "verify_sets"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.out = out_dir / "verify_out.json"

    def pool(self):
        return verify_pool()

    def stratum(self, p):
        return p.ell, 0 if p.is_jacobi else p.n

    def warmup_input(self):
        return Params.integer(6, 2, 1, 0)

    def label(self, p):
        return describe(p)

    def run(self, p):
        return mvop.cli.main(["verify", *cli_args(p), "--format", "json",
                              "--out", str(self.out)])

    def gate(self, p, rc, op_index):
        if rc != 0:
            return OpResult(False, f"exit code {rc}")
        text = self.out.read_bytes()
        self.out.unlink()
        reports = json.loads(text)
        if len(reports) != 1:
            return OpResult(False, f"{len(reports)} reports for one parameter set")
        checks = reports[0]["checks"]
        if tuple(c["name"] for c in checks) != VERIFY_CHECKS:
            return OpResult(False, "the JSON does not list the 14 checks of --suite all")
        ortho = max(c["max_residual"] for c in checks if c["name"].startswith("ortho/gram"))
        info = {"bytes_out": len(text), "contract_margin": ortho / GRAM_TOL,
                "check_s": {c["name"]: c["wall_time"] for c in checks}}
        failed = [c["name"] for c in checks if c["status"] != "pass"]
        if failed:
            return OpResult(False, "failed checks: " + ", ".join(failed), info)
        return OpResult(True, info=info)


class GramInteger(_Pooled):
    """``gram(WeightSpec(p), wmax)`` on distinct Integer-mode sets."""

    name = "gram_integer"

    def pool(self):
        return gram_integer_pool()

    def stratum(self, item):
        return item[0].ell, item[1], item[0].n

    def warmup_input(self):
        return Params.integer(6, 1, 1, 0), 4

    def label(self, item):
        return f"{describe(item[0])} wmax={item[1]}"

    def run(self, item):
        p, wmax = item
        return mvop.orthogonality.gram(mvop.orthogonality.WeightSpec(p), wmax)

    def gate(self, item, result, op_index):
        return gram_gate(item[0], item[1], result)


class GramJacobi(GramInteger):
    """The same op on Jacobi sets with real alpha, beta drawn from the seed."""

    name = "gram_jacobi"

    def warmup_input(self):
        return Params.jacobi(0.75, 1.25, 1, 1), 4

    def inputs(self):
        rng = random.Random(self.seed)
        points = list(GRAM_POINTS)
        rng.shuffle(points)
        while True:
            for ell, wmax in points:
                yield draw_jacobi(rng, ell), wmax


class WalkLong(Workload):
    """``walk(p, 20000, seed_i)`` from (0, 0), cycling a small pool of sets."""

    name = "walk_long"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self._blocks: dict = {}  # Params -> [A_w | B_w | C_w] rows for w = 0, 1, ...

    def inputs(self):
        rng = random.Random(self.seed)
        offset = rng.randrange(len(WALK_POOL))
        i = 0
        while True:
            yield WALK_POOL[(offset + i) % len(WALK_POOL)], rng.getrandbits(31)
            i += 1

    def warmup_input(self):
        return Params.integer(3, 2, 1, 0), 2**31 + 7

    def label(self, item):
        return f"{describe(item[0])} seed={item[1]}"

    def run(self, item):
        p, seed = item
        return mvop.recurrence.walk(p, WALK_STEPS, seed)

    def rows(self, p: Params, wmax: int) -> np.ndarray:
        """[A_w | B_w | C_w] for w = 0..wmax, stacked; cached per set for the gate."""
        have = self._blocks.setdefault(p, [])
        for w in range(len(have), wmax + 1):
            blk = mvop.recurrence.blocks(p, w)
            have.append(np.hstack([blk.A, blk.B, blk.C]))
        return np.stack(have[: wmax + 1])

    def gate(self, item, path, op_index):
        """Each move stays in S and has positive mass in its [A|B|C] row.

        The first op of a run is replayed with its seed and must give the
        identical trajectory.
        """
        p, seed = item
        dim = p.ell + 1
        states = np.asarray(path)
        if states.shape != (WALK_STEPS + 1, 2) or tuple(states[0]) != (0, 0):
            return OpResult(False, "trajectory has the wrong length or start")
        w, r = states[:-1, 0], states[:-1, 1]
        w2, r2 = states[1:, 0], states[1:, 1]
        dw = w2 - w
        legal = ((w2 >= 0) & (r2 >= 0) & (r2 <= p.ell) & (float(p.m_eff) + w2 + r2 >= 0)
                 & (np.abs(dw) <= 1))
        if legal.all():
            table = self.rows(p, int(w.max()))
            legal = table[w, r, (dw + 1) * dim + r2] > 0.0
        if not legal.all():
            i = int(np.argmin(legal))
            return OpResult(False, f"move {path[i]} -> {path[i + 1]} leaves S or has no mass")
        if op_index == 0 and mvop.recurrence.walk(p, WALK_STEPS, seed) != path:
            return OpResult(False, "replay with the same seed gave another trajectory")
        return OpResult(True)


WORKLOADS = {cls.name: cls for cls in (VerifySets, GramInteger, GramJacobi, WalkLong)}
