"""Alternating base/change pairs of the benchmark, summarised per metric.

Usage, from the repository root:
    python3 scripts/bench.py --tag N --workload verify_sets --seeds 101 102 103 104 105
    python3 scripts/bench.py --tag N --workload gram_integer --workload walk_long --seeds 7 8

The base side is --base (default HEAD~1), the change side --change: "." (the
default) for the working tree, or a revision. A revision is unpacked with
`git archive` into a temporary directory that is removed afterwards. For each
workload and seed the script runs `perfbench/run.py --trace 0` once on each
side for BENCHMARK.json's run_seconds, and the side that goes first flips on
every pair, so a drift of the host's speed does not favour one side.

It prints, per workload and end-to-end metric of BENCHMARK.json, each side's
median and quartiles, the pairs the change wins, the median change against
the metric's bound, and whether the gain clears the base's interquartile
range; then each run's wall time and the total. The whole record goes to
BENCH_<tag>.json at the repository root, rewritten after every pair. The only
timing the script adds is the wall clock around each run; every metric is
perfbench's own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list) -> tuple:
    """(q1, median, q3), interpolating linearly between order statistics."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarize(pairs: list, metrics: list) -> dict:
    """Per workload and metric: each side's quartiles and the change's wins.

    pairs holds {"workload", "base": {metric: value}, "change": {metric: value}};
    metrics holds BENCHMARK.json's end-to-end entries {"name", "better", "bound"}.
    rel is the change's median over the base's, less 1. worse_than_bound says the
    median moved the wrong way by more than the bound, beats_iqr that it moved
    the right way by more than the base's interquartile range.
    """
    out: dict = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        out[workload] = {}
        for m in metrics:
            name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
            base = [p["base"][name] for p in runs]
            change = [p["change"][name] for p in runs]
            bq, cq = quartiles(base), quartiles(change)
            rel = cq[1] / bq[1] - 1.0 if bq[1] else 0.0
            out[workload][name] = {
                "base": bq, "change": cq, "pairs": len(runs), "rel": rel,
                "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
                "worse_than_bound": sign * rel < -m["bound"],
                "beats_iqr": sign * (cq[1] - bq[1]) > bq[2] - bq[0],
            }
    return out


def unpack(rev: str, into: Path) -> Path:
    """The tree of rev, from git archive, under into."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in tree: its metrics and wall time."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"], "wall_s": wall}


def _fmt(q: tuple) -> str:
    return " / ".join(f"{x:.4g}" for x in q)


def print_summary(summary: dict) -> None:
    for workload, table in summary.items():
        print(f"\n{workload}")
        print(f"  {'metric':<16}{'base q1 / med / q3':>34}{'change q1 / med / q3':>34}"
              f"{'wins':>7}{'rel':>9}  flags")
        for name, s in table.items():
            flags = " ".join(flag for flag, on in (("worse-than-bound", s["worse_than_bound"]),
                                                   ("beats-IQR", s["beats_iqr"])) if on)
            print(f"  {name:<16}{_fmt(s['base']):>34}{_fmt(s['change']):>34}"
                  f"{s['wins']:>4}/{s['pairs']:<2}{s['rel']:>+9.3f}  {flags}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tag", required=True, help="the record is written to BENCH_<tag>.json")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--change", default=".")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])
    revs = {side: subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
            for side, rev in (("base", args.base), ("change", args.change)) if rev != "."}
    out = ROOT / f"BENCH_{args.tag}.json"
    scratch = Path(tempfile.mkdtemp(prefix="mvop-bench-"))
    pairs, started = [], time.perf_counter()

    def write_record() -> dict:
        summary = summarize(pairs, bench["end_to_end"])
        out.write_text(json.dumps({
            "base": revs.get("base", args.base), "change": revs.get("change", "working tree"),
            "seconds": seconds, "pairs": pairs, "summary": summary,
            "wall_s_total": time.perf_counter() - started}, indent=1) + "\n")
        return summary

    try:
        trees = {side: unpack(rev, scratch / side) for side, rev in revs.items()}
        trees.setdefault("change", ROOT)
        for workload in args.workload:
            for seed in args.seeds:
                order = ("base", "change") if len(pairs) % 2 == 0 else ("change", "base")
                runs = {side: run_once(trees[side], workload, seed, seconds) for side in order}
                pairs.append({"workload": workload, "seed": seed, "first": order[0],
                              **{side: run["metrics"] for side, run in runs.items()},
                              "runs": runs})
                write_record()  # a run stopped midway keeps the pairs it finished
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {runs[side]['wall_s']:.1f} s" for side in order), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print_summary(write_record())
    print(f"\nwall time: {time.perf_counter() - started:.0f} s for {2 * len(pairs)} runs")
    print(f"record: {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
