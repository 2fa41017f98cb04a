"""The mvop benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the repository root:
    python3 perfbench/run.py --workload verify_sets --seed 1 --seconds 16 --trace 0

Workloads (workloads.py): verify_sets, gram_integer, gram_jacobi, walk_long.
Each runs in fresh worker processes (worker.py) as a closed loop with one
client, and every op is checked for correctness outside its timing.

``--trace 0`` reports the end-to-end metrics, with tracing off. Op times are
calibrated to a fixed host speed with the reference kernel timed around every
op (reference.py), because the shared hosts this runs on drift by tens of
per cent within a minute; the raw wall-clock figures are printed on the line
before the result and kept in the record.
    ops_per_s_cal    ops per calibrated second of op time    1/s
    op_ms_cal.p50    median calibrated op latency            ms
    op_ms_cal.tail   calibrated op latency at the workload's ms
                     tail percentile (TAIL_PERCENTILE), chosen so that at
                     least ten ops lie beyond it in a run of this commit
    setup_s          fresh process to ready, median of       s
                     SETUP_SAMPLES starts (wall clock)
    peak_rss_mb      peak resident memory of the timed       MB
                     worker
    ok_ratio         ops that passed / ops attempted         ratio

``--trace 1`` reports the per-layer metrics: it runs the first TRACE_OPS ops
of the seeded sequence twice, untraced and traced, and reads per-op calls and
self time of each wrapped ``mvop`` function from the traced run (tracer.py).
``report.*`` figures are the per-check wall times that ``mvop verify`` itself
prints, taken from the untraced run.

The environment goes to standard output before the result, and the whole
record, with latencies and failures, to .perfbench_out/. The last line of
standard output is the result object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("verify_sets", "gram_integer", "gram_jacobi", "walk_long")

# Tail percentile per workload: the highest percentile with at least ten ops
# beyond it in every 16 s run of the commit that defined the benchmark, slow
# phases of the machine included (down to about 96, 63, 51 and 144 ops). It is
# fixed so that runs of two commits compare the same percentile.
TAIL_PERCENTILE = {"verify_sets": 88, "gram_integer": 83, "gram_jacobi": 78, "walk_long": 92}

# Ops per traced run, a whole number of strata rounds, so that per-op counts
# repeat exactly for a seed.
TRACE_OPS = {"verify_sets": 30, "gram_integer": 18, "gram_jacobi": 15, "walk_long": 40}

# Set-up starts per run, half before and half after the timed worker, whose own
# start is one of them.
SETUP_SAMPLES = 7
DEADLINE_S = 170


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline(f"benchmark exceeded {DEADLINE_S} s")


def start_worker(workload: str, seed: int, mode: str, seconds: float = 0.0, ops: int = 0):
    """Start a worker; return (seconds from start to its "ready" line, result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--ops", str(ops), "--out-dir", str(OUT_DIR)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or rc != 0:
        raise RuntimeError(f"worker {mode} for {workload} failed with exit code {rc}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else {})


def environment(seed: int) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "caches": caches,
        "machine": platform.machine(),
        "blas_threads_env": {key: os.environ.get(key, "unset") for key in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def percentile(values: list, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency_figures(lat: list, workload: str, suffix: str) -> dict:
    tail, _ = percentile(lat, TAIL_PERCENTILE[workload])
    return {
        f"ops_per_s{suffix}": metric(len(lat) / sum(lat), "1/s"),
        f"op_ms{suffix}.p50": metric(statistics.median(lat) * 1e3, "ms"),
        f"op_ms{suffix}.tail": metric(tail * 1e3, "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float, record: dict) -> tuple[dict, list]:
    before = SETUP_SAMPLES // 2
    setups = [start_worker(workload, seed, "setup")[0] for _ in range(before)]
    ready, res = start_worker(workload, seed, "timed", seconds=seconds)
    setups.append(ready)
    setups += [start_worker(workload, seed, "setup")[0]
               for _ in range(SETUP_SAMPLES - before - 1)]
    lat = res["latencies_s"]
    cal = reference.calibrated(lat, res["reference_s"])
    attempted, failed = len(lat), len(res["failures"])
    _, beyond = percentile(lat, TAIL_PERCENTILE[workload])
    raw = latency_figures(lat, workload, "")
    record.update(setup_samples_s=setups, timed=res, calibrated_latencies_s=cal,
                  raw_wall_clock=raw, tail_percentile=TAIL_PERCENTILE[workload],
                  tail_samples_beyond=beyond, repeat_share=res["repeats"] / attempted,
                  fail_ratio=failed / attempted)
    metrics = {
        **latency_figures(cal, workload, "_cal"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_kb"] / 1024.0, "MB"),
        "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
    }
    return metrics, [res]


def per_layer(workload: str, seed: int, record: dict) -> tuple[dict, list]:
    ops = TRACE_OPS[workload]
    _, plain = start_worker(workload, seed, "timed", ops=ops)
    _, traced = start_worker(workload, seed, "traced", ops=ops)
    record.update(untraced=plain, traced=traced)
    n = len(traced["latencies_s"])
    metrics = {}
    for name, fig in traced["trace"].items():
        metrics[f"{name}.calls"] = metric(fig["calls"] / n, "count/op")
        metrics[f"{name}.self_s"] = metric(fig["self_s"] / n, "s/op")
        if "distinct" in fig:
            metrics[f"{name}.unique_ratio"] = metric(fig["distinct"] / max(fig["calls"], 1), "ratio")
    metrics["recurrence.walk.max_w"] = metric(traced["trace_max_w"], "count")
    metrics["cli.bytes_out"] = metric(plain["layer"]["bytes_out"], "B/op")
    metrics["orthogonality.contract_margin"] = metric(traced["layer"]["contract_margin"], "ratio")
    metrics["trace.overhead"] = metric(
        sum(plain["latencies_s"][:n]) / sum(traced["latencies_s"]), "ratio")
    for name, secs in plain["layer"]["check_s"].items():
        suite, check = name.split("/")
        metrics[f"report.{suite}.{check}.s"] = metric(secs, "s/op")
    metrics["report.untimed_s"] = metric(plain["layer"]["untimed_s"], "s/op")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mvop" / "__init__.py").is_file():
        print(f"error: no mvop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args.seed)

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    try:
        if args.trace:
            metrics, runs = per_layer(args.workload, args.seed, record)
        else:
            metrics, runs = end_to_end(args.workload, args.seed, args.seconds, record)
    except (Deadline, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    env["versions"] = runs[-1]["versions"]
    print(json.dumps({"env": env}))
    if "raw_wall_clock" in record:
        print(json.dumps({"raw_wall_clock": record["raw_wall_clock"]}))
    attempted = sum(len(res["latencies_s"]) for res in runs)
    failed = sum(len(res["failures"]) for res in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
