"""One workload process: import, warm up, say "ready", then run the closed loop.

run.py starts this file as a fresh interpreter and times it from the start
until the "ready" line, which is the set-up a CLI user pays on every
invocation: interpreter start, ``import mvop`` and one warm-up op on a fixed
input outside the pools (it fills the lazy quadrature caches). Then:

* ``--mode setup`` exits at once;
* ``--mode timed`` runs ops for ``--seconds`` of op time, or ``--ops`` ops,
  and times the reference kernel (reference.py) before every op and once
  after the last, so that run.py can calibrate each op to the host's speed;
* ``--mode traced`` wraps the ``mvop`` functions (tracer.py) and runs ``--ops`` ops.

Each op's gate runs after the op, outside its timing. A failed op, whether it
raised, returned a non-zero exit code or failed its gate, is counted and kept,
never retried. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import mvop  # noqa: E402

if Path(mvop.__file__).resolve().parent != SRC / "mvop":
    sys.exit(f"mvop imported from {mvop.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_ops(workload: wl.Workload, seconds: float, max_ops: int, tracer=None) -> dict:
    """The closed loop. Stops after ``max_ops`` ops if given, else after ``seconds`` of op time."""
    latencies, failures, infos, refs = [], [], [], []
    timed = 0.0
    if tracer is None:
        reference.kernel()
    for i, item in enumerate(workload.inputs()):
        if (i >= max_ops) if max_ops else (timed >= seconds):
            break
        if tracer is None:
            refs.append(reference.timed_kernel())
        result = error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(item)
            else:
                with tracer.op(i):
                    result = workload.run(item)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        timed += dt
        latencies.append(dt)
        if error is None:
            try:
                verdict = workload.gate(item, result, i)
            except Exception as exc:
                verdict = wl.OpResult(False, f"gate raised {type(exc).__name__}: {exc}")
        else:
            verdict = wl.OpResult(False, error)
        if not verdict.ok:
            failures.append({"op": i, "input": workload.label(item), "reason": verdict.reason})
        infos.append(verdict.info)
        del result
    if tracer is None:
        refs.append(reference.timed_kernel())
    return {"latencies_s": latencies, "reference_s": refs, "failures": failures,
            "repeats": workload.repeats, "layer": layer_figures(latencies, infos)}


def layer_figures(latencies: list, infos: list) -> dict:
    """Figures the gates read off the outputs; means are per verify op, 0 without one."""
    verified = [(lat, i) for lat, i in zip(latencies, infos) if "check_s" in i]

    def mean(values) -> float:
        return sum(values) / len(verified) if verified else 0.0

    return {
        "contract_margin": max((i["contract_margin"] for i in infos
                                if "contract_margin" in i), default=0.0),
        "check_s": {name: mean(i["check_s"][name] for _, i in verified)
                    for name in wl.VERIFY_CHECKS},
        "untimed_s": mean(lat - sum(i["check_s"].values()) for lat, i in verified),
        "bytes_out": mean(i["bytes_out"] for _, i in verified),
    }


def versions() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_config": blas.get("openblas configuration", "")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    workload = wl.WORKLOADS[args.workload](args.seed, out_dir)
    warm = workload.warmup_input()
    verdict = workload.gate(warm, workload.run(warm), -1)
    if not verdict.ok:
        print(f"warm-up op failed: {verdict.reason}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    result = run_ops(workload, args.seconds, args.ops, tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = versions()
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["trace_max_w"] = tracer.max_w
        spans = out_dir / f"spans-{args.workload}.npz"
        tracer.dump(spans)
        result["spans_file"] = str(spans.resolve().relative_to(HERE.parent))
        result["spans"] = len(tracer.kind)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
