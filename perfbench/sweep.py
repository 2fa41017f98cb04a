"""Sweep the benchmark's input pools against the 1e-9 orthogonality contract.

The pools aim to sit ten times inside the contract (worst off-diagonal ratio
<= 1e-10), so harmless float reordering cannot flip a gate. The sweep runs
every entry of the ``verify_sets`` and ``gram_integer`` pools once, and
JACOBI_DRAWS draws with seed 0 from the ``gram_jacobi`` region spread over its
``(ell, wmax)`` points, and prints the worst ratio of each and every entry
above 1e-10. It fails if an entry breaks the contract itself. ``--excluded``
also measures the points the pools leave out (slow: the ``ell=8`` point takes
several seconds).

Usage, from the repository root:
    python3 perfbench/sweep.py                 # pools, 240 Jacobi draws
    python3 perfbench/sweep.py --excluded      # plus the points left out
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402
from mvop.params import Params  # noqa: E402

MARGIN = 10.0
JACOBI_DRAWS = 240


def gram_ratio(p: Params, wmax: int) -> tuple[float, float]:
    t0 = time.perf_counter()
    res = wl.mvop.orthogonality.gram(wl.mvop.orthogonality.WeightSpec(p), wmax)
    dt = time.perf_counter() - t0
    ratio = max(wl.max_offdiag_ratio(res.matrix), wl.max_block_ratio(res.blocks, wmax))
    return ratio, dt


def verify_ratio(p: Params, out: Path) -> tuple[float, float]:
    """Worst ortho/gram residual of one ``mvop verify``; inf unless every check passes."""
    t0 = time.perf_counter()
    rc = wl.mvop.cli.main(["verify", *wl.cli_args(p), "--format", "json", "--out", str(out)])
    dt = time.perf_counter() - t0
    if rc != 0:
        print(f"  {wl.describe(p)}: mvop verify exit code {rc}")
        return float("inf"), dt
    checks = json.loads(out.read_text())[0]["checks"]
    return max(c["max_residual"] for c in checks if c["name"].startswith("ortho/gram")), dt


def report(kind: str, rows: list) -> bool:
    """Print the worst entry and the thin ones; True if all keep the contract."""
    limit = wl.GRAM_TOL / MARGIN
    worst = max(rows, key=lambda row: row[1])
    thin = [row for row in rows if not row[1] <= limit]
    print(f"{kind}: {len(rows)} entries, worst ratio {worst[1]:.3g} at {worst[0]} "
          f"({wl.GRAM_TOL / worst[1]:.1f}x inside), op time "
          f"{min(r[2] for r in rows):.3f}-{max(r[2] for r in rows):.3f} s, "
          f"{len(thin)} above {limit:g}")
    for row in thin:
        print(f"  above {limit:g}: {row[0]} ratio {row[1]:.3g}")
    return all(row[1] <= wl.GRAM_TOL for row in rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--excluded", action="store_true")
    args = ap.parse_args(argv)

    ok = True
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out = Path(tmp) / "verify.json"
        ok &= report("verify_sets", [(wl.describe(p), *verify_ratio(p, out))
                                     for p in wl.verify_pool()])
        if args.excluded:
            p = Params.jacobi(-0.5, 1.5, 1, 1)
            verify_ratio(p, out)

    ok &= report("gram_integer", [(f"{wl.describe(p)} wmax={wmax}", *gram_ratio(p, wmax))
                                  for p, wmax in wl.gram_integer_pool()])

    rng = random.Random(0)
    rows = []
    for i in range(JACOBI_DRAWS):
        ell, wmax = wl.GRAM_POINTS[i % len(wl.GRAM_POINTS)]
        p = wl.draw_jacobi(rng, ell)
        rows.append((f"{wl.describe(p)} wmax={wmax}", *gram_ratio(p, wmax)))
    ok &= report("gram_jacobi", rows)

    if args.excluded:
        left_out = [(p, wmax) for p, wmax in wl.gram_integer_grid()
                    if (p.n, p.k, p.ell, p.m) in wl.GRAM_INTEGER_LEFT_OUT]
        left_out += [(Params.integer(n, k, 2, m), 8) for n in (4, 5) for k in range(1, n)
                     for m in (0, 1, 2)]
        left_out += [(Params.integer(2, 1, 2, 0), 10), (Params.integer(3, 1, 5, 0), 4),
                     (Params.integer(2, 1, 6, 1), 4), (Params.integer(3, 1, 8, 1), 4)]
        for p, wmax in left_out:
            ratio, dt = gram_ratio(p, wmax)
            print(f"left out: {wl.describe(p)} wmax={wmax} ratio {ratio:.3g} ({dt:.2f} s)")

    print("every entry keeps the 1e-9 contract" if ok else "an entry breaks the 1e-9 contract")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
