"""Empirical calibration of the block random walk against its transition matrices.

Simulates the (w, r) chain and scores it with recurrence.transition_tally, the
calibration the acceptance suite asserts: cells whose expected count clears
--min-expected are scored as binomial z-values; cells with zero probability
must never fire.

Usage:
    python3 scripts/walk_stats.py --steps 100000 --seed 42
    python3 scripts/walk_stats.py --n 3 --k 2 --ell 2 --m 1 --steps 50000
"""

import argparse
import sys

from mvop.params import Params
from mvop.recurrence import transition_tally, walk


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--ell", type=int, default=1)
    ap.add_argument("--m", type=int, default=0)
    ap.add_argument("--steps", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--min-expected", type=float, default=10.0)
    args = ap.parse_args(argv)

    params = Params.integer(args.n, args.k, args.ell, args.m)
    traj = walk(params, args.steps, args.seed)
    tally = transition_tally(params, traj, args.min_expected)
    for src, dst, obs in tally.impossible:
        print(f"impossible transition fired: {src} -> {dst} observed {obs} times")
    if tally.impossible:
        return 1

    wmax = max(w for w, _ in traj)
    print(f"params: n={args.n} k={args.k} ell={args.ell} m={args.m}")
    print(f"steps={args.steps} seed={args.seed}: visited {len(set(traj[:-1]))} states, "
          f"max w reached {wmax}")
    print(f"zero-probability cells respected: {tally.zero_cells}")
    print(f"cells with expected count >= {args.min_expected:g}: {tally.cells}")
    if tally.worst:
        (src, dst, obs, expected) = tally.worst
        print(f"worst |z| = {tally.worst_z:.3f} at {src} -> {dst} "
              f"(observed {obs}, expected {expected:.1f})")
    return 0 if tally.worst_z <= 3.0 else 1


if __name__ == "__main__":
    sys.exit(main())
