"""One verify op, gram or recursion dump builds each eigenfunction F_{w,r} once,
in a few stacked series.

family._build is the only place F_{w,r} is built, so the labels handed to it
are the labels built. h1_coeffs is counted wherever an mvop module binds it, so
a caller that imports the name and runs a series directly is counted too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mvop import cli, family, hypergeom
from mvop.orthogonality import WeightSpec, gram
from mvop.params import ParamError, Params
from mvop.report import _check, run_suite

P = Params.integer(n=3, k=1, ell=2, m=1)


@pytest.fixture
def built_labels(monkeypatch):
    labels = []
    orig = family._build

    def counting(st, labs):
        labels.extend(labs)
        return orig(st, labs)

    monkeypatch.setattr(family, "_build", counting)
    return labels


@pytest.fixture
def series_calls(monkeypatch):
    calls = []
    orig = hypergeom.h1_coeffs

    def counting(*args):
        calls.append(args)
        return orig(*args)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "mvop" and vars(mod).get("h1_coeffs") is orig:
            monkeypatch.setattr(mod, "h1_coeffs", counting)
    return calls


def test_run_suite_builds_each_label_once(built_labels):
    report = run_suite(P, "all", 4)
    assert report.ok
    # wmax + 1 for the three-term check's P_{w+1}.
    assert sorted(built_labels) == [(w, r) for w in range(6) for r in range(3)]


def test_gram_builds_each_label_once(built_labels):
    gram(WeightSpec(P), 8)
    assert sorted(built_labels) == [(w, r) for w in range(9) for r in range(3)]


def test_family_runs_one_series_per_label_stack(series_calls):
    """The eigen checks build w <= 4 in one series and the three-term check adds
    w = 5 in a second; gram builds all of w <= 8 in one."""
    run_suite(P, "all", 4)
    assert len(series_calls) == 2
    assert [len(args[3]) for args in series_calls] == [15, 3]
    series_calls.clear()
    gram(WeightSpec(P), 8)
    assert len(series_calls) == 1 and len(series_calls[0][3]) == 27


def test_family_command_runs_one_series(series_calls, capsys):
    """mvop family builds every label of w <= wmax in one series."""
    assert cli.main(["family", "--n", "3", "--k", "1", "--ell", "2", "--m", "1", "--wmax", "4"]) == 0
    assert [len(args[3]) for args in series_calls] == [15]
    # m < 0: label (0, 0) is the first outside S, and it still names the error.
    assert cli.main(["family", "--n", "3", "--k", "1", "--ell", "2", "--m", "-1", "--wmax", "4"]) == 2
    assert capsys.readouterr().err == "error: label (w=0, r=0) outside the admissible set S\n"


def test_first_failing_label_names_the_error():
    """At (2,1,16,0) label (0,7) fails its termination check before a later
    label's eigvec fails; the earlier label's error is the one reported."""
    report = run_suite(Params.integer(n=2, k=1, ell=16, m=0), "eigen", 4)
    check = next(c for c in report.checks if c.name == "eigen/operator_residuals")
    assert check.status == "fail"
    assert check.error.startswith("SeriesTerminationError: series did not terminate by N=10")


def test_recursion_command_builds_each_label_once(built_labels, tmp_path):
    out = tmp_path / "rec.json"
    rc = cli.main(["recursion", "--n", "3", "--k", "1", "--ell", "2", "--m", "1",
                   "--wmax", "4", "--out", str(out)])
    assert rc == 0
    # wmax + 1 for the three-term residual's P_{w+1}.
    assert sorted(built_labels) == [(w, r) for w in range(6) for r in range(3)]


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
