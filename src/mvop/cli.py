"""Command-line surface: eigenfunction dumps, Gram matrices, recursion blocks,
random walks, and the batch verification harness.

Exit codes: 0 success, 2 invalid input, 3 numeric failure (including any
failed verification check). Reals are serialized with 17 significant digits so
serialize -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .family import _Family, f_wr
from .orthogonality import WeightSpec, gram
from .params import ParamError, Params, validate
from .recurrence import _blocks_upto, _three_term, walk
from .report import SUITES, run_grid, run_suite

__all__ = ["main", "dumps17"]


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite value in output payload")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def dumps17(obj) -> str:
    """Compact deterministic JSON with floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps17(obj.tolist())
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + dumps17(v)
                              for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps17(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int)
    common.add_argument("--k", type=int)
    common.add_argument("--ell", type=int)
    common.add_argument("--m", type=int)
    common.add_argument("--jacobi", action="store_true")
    common.add_argument("--alpha", type=float)
    common.add_argument("--beta", type=float)
    common.add_argument("--w", type=int)
    common.add_argument("--r", type=int)
    common.add_argument("--wmax", type=int, default=4)
    common.add_argument("--out", type=str)

    parser = argparse.ArgumentParser(prog="mvop")
    sub = parser.add_subparsers(dest="cmd", required=True)
    # The formats each subcommand writes; the first is its default.
    for cmd, formats in (("eigen", ["json"]), ("family", ["json"]), ("gram", ["csv", "json"]),
                         ("recursion", ["json"]), ("walk", ["csv", "json"]),
                         ("verify", ["text", "json"])):
        sub.add_parser(cmd, parents=[common]).add_argument(
            "--format", dest="fmt", choices=formats, default=formats[0])
    sub.choices["walk"].add_argument("--steps", type=int, default=1000)
    sub.choices["walk"].add_argument("--seed", type=int, default=0)
    sub.choices["verify"].add_argument("--suite", choices=SUITES, default="all")
    return parser


def _build_params(args, allow_missing: bool = False):
    if args.jacobi or args.alpha is not None or args.beta is not None:
        if None in (args.alpha, args.beta, args.k, args.ell):
            raise ParamError("Jacobi mode needs --alpha --beta --k --ell")
        p = Params.jacobi(args.alpha, args.beta, args.k, args.ell)
    elif (args.n, args.k, args.ell, args.m) == (None, None, None, None):
        if allow_missing:
            return None
        raise ParamError("missing parameters: pass --n --k --ell --m, "
                         "or --jacobi with --alpha --beta --k --ell")
    else:
        if None in (args.n, args.k, args.ell, args.m):
            raise ParamError("Integer mode needs all of --n --k --ell --m")
        p = Params.integer(args.n, args.k, args.ell, args.m)
    validate(p)
    return p


def cmd_eigen(args):
    params = _build_params(args)
    if args.w is None or args.r is None:
        raise ParamError("eigen needs --w and --r")
    ef = f_wr(params, args.w, args.r)
    payload = {
        "params": params.describe(),
        "label": {"w": args.w, "r": args.r},
        "lambda": ef.spectral.lam,
        "mu": ef.spectral.mu,
        "f0": ef.poly.coeffs[0],
        "coeffs": ef.poly.coeffs,
    }
    return dumps17(payload), 0


def cmd_family(args):
    family = _Family(_build_params(args))
    family._labels([(w, r) for w in range(args.wmax + 1) for r in range(family.params.ell + 1)])
    fam = [{"w": w, "coeffs": family.P(w).P.coeffs} for w in range(args.wmax + 1)]
    payload = {"params": family.params.describe(), "wmax": args.wmax, "family": fam}
    return dumps17(payload), 0


def cmd_gram(args):
    params = _build_params(args)
    gres = gram(WeightSpec(params), args.wmax)
    names = [f"w{w}r{r}" for (w, r) in gres.labels]
    if args.fmt == "json":
        payload = {
            "params": params.describe(),
            "labels": [list(lab) for lab in gres.labels],
            "matrix": gres.matrix,
            "blocks": {f"{w},{wp}": blk for (w, wp), blk in sorted(gres.blocks.items())},
        }
        return dumps17(payload), 0
    lines = ["label," + ",".join(names)]
    for i, name in enumerate(names):
        lines.append(name + "," + ",".join(_fmt_float(v) for v in gres.matrix[i]))
    return "\n".join(lines) + "\n", 0


def cmd_recursion(args):
    params = _build_params(args)
    blks = _blocks_upto(params, args.wmax)
    fam = _Family(params)
    fam.members(args.wmax + 1)  # P_0..P_{wmax+1} from one series
    out = []
    for blk in blks:
        row_err = float(np.abs((blk.A + blk.B + blk.C).sum(axis=1) - 1.0).max())
        out.append({
            "w": blk.w,
            "A": blk.A, "B": blk.B, "C": blk.C,
            "row_sum_residual": row_err,
            "three_term_residual": _three_term(blk, fam.P),
        })
    payload = {"params": params.describe(), "wmax": args.wmax, "blocks": out}
    return dumps17(payload), 0


def cmd_walk(args):
    params = _build_params(args)
    start = (args.w or 0, args.r or 0)
    path = walk(params, args.steps, args.seed, start)
    if args.fmt == "json":
        payload = {"params": params.describe(), "steps": args.steps,
                   "seed": args.seed, "trajectory": [list(state) for state in path]}
        return dumps17(payload), 0
    lines = ["step,w,r"] + [f"{i},{w},{r}" for i, (w, r) in enumerate(path)]
    return "\n".join(lines) + "\n", 0


def cmd_verify(args):
    params = _build_params(args, allow_missing=True)
    if params is None:
        reports = run_grid(None, args.suite, args.wmax)
    else:
        reports = [run_suite(params, args.suite, args.wmax)]
    rc = 0 if all(rep.ok for rep in reports) else 3
    if args.fmt == "json":
        payload = [{"params": rep.params,
                    "checks": [{"name": c.name, "status": c.status,
                                "max_residual": None if c.error else c.max_residual,
                                "tolerance": c.tolerance,
                                "wall_time": c.wall_time,
                                "error": c.error} for c in rep.checks]}
                   for rep in reports]
        return dumps17(payload), rc
    lines = []
    npass = ntot = 0
    for rep in reports:
        where = " ".join(f"{key}={val}" for key, val in rep.params.items())
        for c in rep.checks:
            ntot += 1
            npass += c.status == "pass"
            tag = "PASS" if c.status == "pass" else "FAIL"
            error = f" error={c.error}" if c.error else ""
            lines.append(f"[{tag}] {where} :: {c.name} "
                         f"max_resid={c.max_residual:.3g} tol={c.tolerance:.0e} "
                         f"({c.wall_time:.2f}s){error}")
    lines.append(f"summary: {npass}/{ntot} checks passed "
                 f"on {len(reports)} parameter set(s)")
    return "\n".join(lines) + "\n", rc


_COMMANDS = {
    "eigen": cmd_eigen,
    "family": cmd_family,
    "gram": cmd_gram,
    "recursion": cmd_recursion,
    "walk": cmd_walk,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.wmax < 0:
            raise ParamError("wmax >= 0 violated")
        text, rc = _COMMANDS[args.cmd](args)
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
