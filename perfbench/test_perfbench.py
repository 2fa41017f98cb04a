"""Tests of the benchmark itself: tracer call-count fixtures, gates, input order.

Run from the repository root:
    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mvop  # noqa: E402
import reference  # noqa: E402
import workloads as wl  # noqa: E402
from mvop.params import Params  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def calls(t: Tracer) -> dict:
    return {name: fig["calls"] for name, fig in t.summary().items()}


def test_run_suite_call_counts(tracer):
    with tracer.op(0):
        mvop.report.run_suite(Params.integer(3, 1, 2, 1), "all", 4)
    got = calls(tracer)
    assert got["family.f_wr"] == 102
    assert got["recurrence.blocks"] == 60
    assert got["structure.build_structure"] == 8
    assert got["orthogonality.weight_W_at"] == 982


def test_gram_call_counts(tracer):
    with tracer.op(0):
        mvop.orthogonality.gram(mvop.orthogonality.WeightSpec(Params.integer(3, 1, 2, 1)), 8)
    got = calls(tracer)
    assert got["family.f_wr"] == 54
    assert got["orthogonality.weight_W_at"] == 3907
    assert got["params.validate"] == 4332
    assert got["linalg.evaluate_at"] == 7814


def test_wrappers_rebind_every_importing_module(tracer):
    assert set(tracer.rebound["family.f_wr"]) == {
        "mvop", "mvop.family", "mvop.orthogonality", "mvop.report", "mvop.cli"}
    assert all(tracer.rebound[name] for name in NAMES)


def test_uninstall_restores_originals():
    orig = mvop.orthogonality.f_wr
    t = Tracer()
    t.install()
    assert mvop.orthogonality.f_wr is not orig
    t.uninstall()
    assert mvop.orthogonality.f_wr is orig and mvop.family.f_wr is orig


def test_recursive_dumps17_counts_outermost_only_and_self_times_add_up(tracer, tmp_path):
    out = tmp_path / "v.json"
    with tracer.op(0):
        rc = mvop.cli.main(["verify", "--n", "2", "--k", "1", "--ell", "1", "--m", "0",
                            "--format", "json", "--out", str(out)])
    assert rc == 0
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["cli.dumps17"]["calls"] == 1
    start = np.array(tracer.start)
    end = np.array(tracer.end)
    root = np.array(tracer.parent) < 0
    total_self = sum(fig["self_s"] for fig in summary.values())
    assert total_self == pytest.approx(float((end - start)[root].sum()), rel=1e-9)
    assert all(fig["self_s"] >= 0.0 for fig in summary.values())


def test_no_spans_outside_an_op(tracer):
    mvop.recurrence.blocks(Params.integer(2, 1, 1, 0), 3)
    assert len(tracer.kind) == 0


def test_pool_order_is_seeded_stratified_and_without_repeats():
    work = wl.GramInteger(7, HERE)
    pool = work.pool()
    order = wl.dealt(random.Random(7), list(pool), work.stratum)
    assert sorted(map(repr, order)) == sorted(map(repr, pool))
    assert order == wl.dealt(random.Random(7), list(pool), work.stratum)
    other = wl.dealt(random.Random(8), list(pool), work.stratum)
    assert order != other
    assert [work.stratum(item) for item in order] == [work.stratum(item) for item in other]


def test_gram_gate_rejects_a_broken_gram():
    p = Params.integer(2, 1, 1, 0)
    res = mvop.orthogonality.gram(mvop.orthogonality.WeightSpec(p), 3)
    assert wl.gram_gate(p, 3, res).ok
    bad = res.matrix.copy()
    bad[0, 2] = bad[2, 0] = 1e-6 * np.sqrt(bad[0, 0] * bad[2, 2])
    broken = mvop.orthogonality.GramResult(res.labels, bad, res.blocks)
    verdict = wl.gram_gate(p, 3, broken)
    assert not verdict.ok and "off-diagonal" in verdict.reason


def test_walk_gate_rejects_an_impossible_move(tmp_path):
    work = wl.WalkLong(0, tmp_path)
    item = work.warmup_input()
    path = work.run(item)
    assert work.gate(item, path, 0).ok
    w, r = path[100]
    bad = path[:101] + [(w + 2, r)] * (len(path) - 101)
    verdict = work.gate(item, bad, 1)
    assert not verdict.ok and "has no mass" in verdict.reason
    # C_w is lower bidiagonal, so (w, 0) -> (w + 1, 1) is inside S with zero mass.
    i = next(i for i, (_, r) in enumerate(path) if r == 0 and i > 0)
    w = path[i][0]
    bad = path[:i + 1] + [(w + 1, 1)] * (len(path) - i - 1)
    assert not work.gate(item, bad, 1).ok


def test_verify_gate_rejects_a_nonzero_exit_code(tmp_path):
    work = wl.VerifySets(0, tmp_path)
    assert not work.gate(Params.integer(2, 1, 1, 0), 3, 0).ok


def test_calibration_scales_each_op_by_the_reference_around_it():
    nominal = reference.NOMINAL_S
    # Host at reference speed, then twice as slow from the second op on.
    refs = [nominal, nominal, 2 * nominal, 2 * nominal]
    cal = reference.calibrated([0.1, 0.3, 0.4], refs)
    assert cal == pytest.approx([0.1, 0.3 / 1.5, 0.2])
