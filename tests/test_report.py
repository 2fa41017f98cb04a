"""One verify op, gram or recursion dump builds each eigenfunction F_{w,r} once.

f_wr is counted wherever an mvop module binds it, so a caller that imports the
name and calls it directly is counted too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mvop import cli, family
from mvop.orthogonality import WeightSpec, gram
from mvop.params import ParamError, Params
from mvop.report import _check, run_suite

P = Params.integer(n=3, k=1, ell=2, m=1)


@pytest.fixture
def f_wr_calls(monkeypatch):
    calls = []
    orig = family.f_wr

    def counting(params, w, r, structure=None):
        calls.append((w, r))
        return orig(params, w, r, structure)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "mvop" and vars(mod).get("f_wr") is orig:
            monkeypatch.setattr(mod, "f_wr", counting)
    return calls


def test_run_suite_builds_each_label_once(f_wr_calls):
    report = run_suite(P, "all", 4)
    assert report.ok
    # wmax + 1 for the three-term check's P_{w+1}.
    assert sorted(f_wr_calls) == [(w, r) for w in range(6) for r in range(3)]


def test_gram_builds_each_label_once(f_wr_calls):
    gram(WeightSpec(P), 8)
    assert sorted(f_wr_calls) == [(w, r) for w in range(9) for r in range(3)]


def test_recursion_command_builds_each_label_once(f_wr_calls, tmp_path):
    out = tmp_path / "rec.json"
    rc = cli.main(["recursion", "--n", "3", "--k", "1", "--ell", "2", "--m", "1",
                   "--wmax", "4", "--out", str(out)])
    assert rc == 0
    # wmax + 1 for the three-term residual's P_{w+1}.
    assert sorted(f_wr_calls) == [(w, r) for w in range(6) for r in range(3)]


def test_run_suite_rejects_negative_wmax():
    with pytest.raises(ParamError, match="wmax >= 0 violated"):
        run_suite(P, "eigen", -1)


def test_perfbench_tracer_targets_resolve():
    """Every (module, function) the benchmark's tracer wraps still exists, so a
    deleted or renamed target fails here instead of breaking the traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, func in tracer.TARGETS:
        owner = importlib.import_module(f"mvop.{mod}")
        if (mod, func) == ("linalg", "evaluate_at"):
            owner = owner._PolyBase  # the tracer wraps the polynomials' shared base class
        assert callable(getattr(owner, func, None)), f"{mod}.{func} does not resolve"


def test_non_finite_residual_is_recorded_as_an_error():
    result = _check("x/nan", 1.0, lambda: float("nan"))
    assert result.status == "fail" and result.max_residual == float("inf")
    assert result.error == "ValueError: non-finite residual nan"
