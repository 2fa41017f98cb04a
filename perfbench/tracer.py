"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the ``mvop`` modules from outside the
package. ``from .family import f_wr`` copies the binding into every importing
module, so ``install`` rebinds the name in each ``mvop`` module that holds the
original function object; ``linalg.evaluate_at`` is wrapped on the shared base
class of ``VectorPoly`` and ``MatrixPoly``.

Spans (name, start, end, parent, op id) are kept in flat arrays while the run
goes and written out at the end. A span's self time is its duration minus the
durations of its direct children; calls are single-threaded and properly
nested, so the children never overlap. A call of a function already open on
the stack (the recursion inside ``cli.dumps17``) folds into the outer span, so
only outermost calls are counted.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, function) pairs, in report order.
TARGETS = (
    ("params", "validate"),
    ("structure", "build_structure"),
    ("spectral", "build_M"),
    ("spectral", "eigvec"),
    ("spectral", "charpoly_residual"),
    ("hypergeom", "h1_coeffs"),
    ("hypergeom", "h1_apply"),
    ("family", "f_wr"),
    ("family", "assemble_P"),
    ("family", "t_recursion_residual"),
    ("operators", "apply_D_u"),
    ("operators", "apply_E_u"),
    ("operators", "conjugation_residual"),
    ("linalg", "evaluate_at"),
    ("orthogonality", "gram"),
    ("orthogonality", "inner_vec"),
    ("orthogonality", "inner_mat"),
    ("orthogonality", "weight_W_at"),
    ("recurrence", "blocks"),
    ("recurrence", "three_term_residual"),
    ("recurrence", "walk"),
    ("report", "run_suite"),
    ("cli", "main"),
    ("cli", "dumps17"),
)

NAMES = tuple(f"{mod}.{func}" for mod, func in TARGETS)

# Functions whose distinct arguments are counted, and how many leading
# positional arguments identify a call (the structure argument is a cache, not
# an input).
KEYED = {"family.f_wr": 3, "recurrence.blocks": 2, "structure.build_structure": 1}


class Tracer:
    """Records one span per call of a wrapped function while an op is open."""

    def __init__(self):
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_ids = array("i")
        self.keys = {name: set() for name in KEYED}
        self.max_w = 0
        self.rebound = {name: [] for name in NAMES}
        self._stack: list[int] = []
        self._open = [0] * len(NAMES)
        self._op_id = -1
        self._restore: list = []

    def install(self) -> None:
        """Wrap every target in every loaded ``mvop`` module."""
        import mvop.linalg

        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "mvop" or name.startswith("mvop.")]
        for kind, (mod_name, func) in enumerate(TARGETS):
            name = NAMES[kind]
            if name == "linalg.evaluate_at":
                owner = mvop.linalg._PolyBase
                orig = owner.__dict__[func]
                self._rebind(owner, func, orig, self._wrap(kind, orig))
                self.rebound[name].append(owner.__qualname__)
                continue
            orig = getattr(sys.modules[f"mvop.{mod_name}"], func)
            wrapper = self._wrap(kind, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebind(mod, attr, orig, wrapper)
                        self.rebound[name].append(mod.__name__)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _rebind(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    @contextmanager
    def op(self, op_id: int):
        """Record spans only inside this block, tagged with ``op_id``."""
        self._op_id = op_id
        try:
            yield
        finally:
            self._op_id = -1

    def _wrap(self, kind: int, fn):
        name = NAMES[kind]
        nkey = KEYED.get(name)
        is_walk = name == "recurrence.walk"
        tracer = self
        stack = self._stack
        open_ = self._open

        def wrapper(*args, **kwargs):
            if tracer._op_id < 0 or open_[kind]:
                return fn(*args, **kwargs)
            idx = len(tracer.kind)
            tracer.kind.append(kind)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_ids.append(tracer._op_id)
            tracer.end.append(0.0)
            if nkey is not None:
                tracer.keys[name].add(_call_key(fn, args, kwargs, nkey))
            stack.append(idx)
            open_[kind] = 1
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                open_[kind] = 0
                stack.pop()
            if is_walk:
                tracer.max_w = max(tracer.max_w, max(w for w, _ in result))
            return result

        return functools.wraps(fn)(wrapper)

    def summary(self) -> dict:
        """Per target: calls, self seconds, and distinct-argument counts."""
        kind = np.array(self.kind, dtype=np.int32)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        parent = np.array(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(kind, minlength=len(NAMES))
        self_s = np.bincount(kind, weights=self_time, minlength=len(NAMES))
        out = {}
        for i, name in enumerate(NAMES):
            out[name] = {"calls": int(calls[i]), "self_s": float(self_s[i])}
            if name in KEYED:
                out[name]["distinct"] = len(self.keys[name])
        return out

    def dump(self, path) -> None:
        """Write the spans as arrays: kind (index into names), start, end, parent, op."""
        np.savez(path, names=np.array(NAMES),
                 kind=np.array(self.kind, dtype=np.int32),
                 start=np.array(self.start, dtype=float),
                 end=np.array(self.end, dtype=float),
                 parent=np.array(self.parent, dtype=np.int32),
                 op=np.array(self.op_ids, dtype=np.int32))


def _call_key(fn, args, kwargs, nkey: int) -> tuple:
    if kwargs or len(args) < nkey:
        args = tuple(inspect.signature(fn).bind(*args, **kwargs).arguments.values())
    return args[:nkey]
