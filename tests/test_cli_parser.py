"""cli.main builds its argument parser once per process; calls it rejects must
not change what a later valid call returns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mvop
from mvop import cli

VERIFY = ["verify", "--n", "3", "--k", "1", "--ell", "2", "--m", "1", "--format", "json"]


def without_wall_times(path):
    reports = json.loads(path.read_text())
    for rep in reports:
        for check in rep["checks"]:
            del check["wall_time"]
    return reports


def test_cached_parser_is_not_poisoned_by_rejected_calls(tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    env = {**os.environ, "PYTHONPATH": str(Path(mvop.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "mvop.cli", *VERIFY, "--out", str(fresh)],
                          env=env, capture_output=True, text=True)

    assert cli.main(["verify", "--no-such-option"]) == 2
    assert cli.main(["verify", "--format", "csv"]) == 2
    capsys.readouterr()
    again = tmp_path / "again.json"
    assert cli.main([*VERIFY, "--out", str(again)]) == proc.returncode
    assert cli._build_parser() is cli._build_parser()
    assert without_wall_times(again) == without_wall_times(fresh)
    assert [c["status"] for c in without_wall_times(again)[0]["checks"]] == ["pass"] * 14
