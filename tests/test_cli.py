import json
import re
import subprocess
import sys

import pytest

from mvop.cli import dumps17, main
from mvop.report import default_grid

P0_ARGS = ["--n", "2", "--k", "1", "--ell", "1", "--m", "0"]


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_eigen_json_payload(capsys):
    rc, out, err = run_cli(["eigen", *P0_ARGS, "--w", "1", "--r", "0"], capsys)
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["lambda"] == -4
    assert payload["label"] == {"w": 1, "r": 0}
    assert payload["f0"][0] == 1
    assert len(payload["coeffs"]) == 2


def test_eigen_degree_zero(capsys):
    rc, out, _ = run_cli(["eigen", *P0_ARGS, "--w", "0", "--r", "1"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["lambda"] == -2 and payload["mu"] == 2
    assert len(payload["coeffs"]) == 1


def test_eigen_requires_label(capsys):
    rc, _, err = run_cli(["eigen", *P0_ARGS], capsys)
    assert rc == 2
    assert "error:" in err


def test_malformed_params_exit_code(capsys):
    rc, _, err = run_cli(["eigen", "--n", "2", "--k", "5", "--ell", "1",
                          "--m", "0", "--w", "0", "--r", "0"], capsys)
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("cmd", ["gram", "family", "recursion", "verify"])
def test_negative_wmax_exit_code(cmd, capsys):
    rc, out, err = run_cli([cmd, *P0_ARGS, "--wmax", "-1"], capsys)
    assert rc == 2 and out == ""
    assert err.strip() == "error: wmax >= 0 violated"


def test_missing_params_exit_code(capsys):
    rc, _, err = run_cli(["eigen", "--w", "0", "--r", "0"], capsys)
    assert rc == 2
    assert "missing parameters" in err


def test_unknown_subcommand_exit_code(capsys):
    rc, _, _ = run_cli(["frobnicate"], capsys)
    assert rc == 2


def test_unknown_suite_choice_exit_code(capsys):
    rc, _, _ = run_cli(["verify", *P0_ARGS, "--suite", "nonsense"], capsys)
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["eigen", *P0_ARGS, "--w", "0", "--r", "0"],
    ["family", *P0_ARGS],
    ["recursion", *P0_ARGS],
    ["verify", *P0_ARGS],
])
def test_format_a_subcommand_does_not_write_exit_code(argv, capsys):
    rc, out, err = run_cli([*argv, "--format", "csv"], capsys)
    assert rc == 2 and out == ""
    assert "invalid choice: 'csv'" in err


@pytest.mark.parametrize("argv", [
    ["eigen", *P0_ARGS, "--w", "2", "--r", "1"],
    ["gram", *P0_ARGS, "--wmax", "2", "--format", "json"],
    ["verify", *P0_ARGS, "--suite", "eigen", "--format", "json"],
])
def test_json_round_trip_byte_identical(argv, capsys):
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    body = out.rstrip("\n")
    assert dumps17(json.loads(body)) == body


def test_walk_csv_deterministic(capsys):
    argv = ["walk", *P0_ARGS, "--steps", "50", "--seed", "3"]
    rc1, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "step,w,r"
    assert lines[1] == "0,0,0"
    assert len(lines) == 52


def test_walk_json_format(capsys):
    rc, out, _ = run_cli(["walk", *P0_ARGS, "--steps", "5", "--seed", "1",
                          "--format", "json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["steps"] == 5
    assert len(payload["trajectory"]) == 6
    assert payload["trajectory"][0] == [0, 0]


def test_gram_csv_shape(capsys):
    rc, out, _ = run_cli(["gram", *P0_ARGS, "--wmax", "1"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,w0r0,w0r1,w1r0,w1r1"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "w0r0"
    assert float(first[1]) > 0
    assert abs(float(first[2])) < 1e-9 * float(first[1])


def test_gram_jacobi_flags(capsys):
    rc, out, _ = run_cli(["gram", "--jacobi", "--alpha", "0.5", "--beta", "1.5",
                          "--k", "1", "--ell", "1", "--wmax", "1"], capsys)
    assert rc == 0
    assert out.startswith("label,")


def test_recursion_json(capsys):
    rc, out, _ = run_cli(["recursion", *P0_ARGS, "--wmax", "2"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert [b["w"] for b in payload["blocks"]] == [0, 1, 2]
    for b in payload["blocks"]:
        assert b["row_sum_residual"] <= 1e-12
        assert b["three_term_residual"] <= 1e-9
        assert len(b["A"]) == 2 and len(b["A"][0]) == 2


def test_family_json(capsys):
    rc, out, _ = run_cli(["family", *P0_ARGS, "--wmax", "2"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["wmax"] == 2
    assert [f["w"] for f in payload["family"]] == [0, 1, 2]
    assert len(payload["family"][2]["coeffs"]) == 3


def test_verify_single_params_text(capsys):
    rc, out, _ = run_cli(["verify", *P0_ARGS, "--suite", "eigen"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1].startswith("summary:")
    assert "eigen/operator_residuals" in out


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(["verify", *P0_ARGS, "--suite", "recursion",
                          "--format", "json", "--out", str(target)], capsys)
    assert rc == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert all(c["status"] == "pass" for c in payload[0]["checks"])


def test_dumps17_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        dumps17({"x": float("nan")})
    with pytest.raises(ValueError, match="non-finite"):
        dumps17([float("inf")])


def test_dumps17_zero_and_ints():
    assert dumps17(0.0) == "0"
    assert dumps17(-4.0) == "-4"
    assert dumps17({"a": 1, "b": [True, None]}) == '{"a":1,"b":[true,null]}'


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mvop.cli", "eigen", *P0_ARGS, "--w", "0", "--r", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lambda"] == 0


# Degree-67 labels are past where the float series terminates at its exact degree.
HIGH_W_SET = ["verify", "--n", "2", "--k", "1", "--ell", "0", "--m", "0"]
HIGH_W_ARGS = [*HIGH_W_SET, "--suite", "recursion", "--wmax", "70"]


def test_verify_text_names_the_error_of_a_raising_check(capsys):
    rc, out, _ = run_cli(HIGH_W_ARGS, capsys)
    assert rc == 3
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert [line.split(" :: ")[1].split()[0] for line in failed] == [
        "recursion/three_term", "recursion/t_power"]
    for line in failed:
        assert "max_resid=inf" in line
        assert re.search(r" error=RuntimeError: series terminated at degree \d+, expected w=\d+$", line)
    assert all("error=" not in line for line in out.splitlines() if line not in failed)


def test_verify_json_names_the_error_of_a_raising_check(capsys):
    rc, out, err = run_cli([*HIGH_W_ARGS, "--format", "json"], capsys)
    assert rc == 3 and err == ""
    checks = {c["name"]: c for c in json.loads(out)[0]["checks"]}
    for name in ("recursion/three_term", "recursion/t_power"):
        assert checks[name]["status"] == "fail"
        assert checks[name]["max_residual"] is None
        assert checks[name]["error"].startswith("RuntimeError: series terminated")
    assert checks["recursion/row_sums"]["error"] is None
    assert checks["recursion/row_sums"]["status"] == "pass"


# The checks that read a label of degree 67 or more at --wmax 70; the
# remaining checks of each suite keep their verdict.
HIGH_W_RAISING = ["eigen/operator_residuals", "eigen/degree_and_leading", "eigen/charpoly",
                  "ortho/gram_vector", "ortho/gram_matrix",
                  "recursion/three_term", "recursion/t_power"]


@pytest.mark.parametrize("suite, total", [("all", 14), ("eigen", 6), ("ortho", 3)])
def test_verify_text_fails_only_the_checks_of_a_raising_label(suite, total, capsys):
    rc, out, _ = run_cli([*HIGH_W_SET, "--suite", suite, "--wmax", "70"], capsys)
    assert rc == 3
    lines = out.splitlines()
    names = [line.split(" :: ")[1].split()[0] for line in lines[:-1]]
    passed = [name for name in names if name not in HIGH_W_RAISING]
    assert len(names) == total
    assert lines[-1] == f"summary: {len(passed)}/{total} checks passed on 1 parameter set(s)"
    for name, line in zip(names, lines):
        if name not in passed:
            assert line.startswith("[FAIL]") and "max_resid=inf" in line
            assert re.search(r" error=RuntimeError: series terminated at degree \d+, expected w=\d+$", line)
        else:
            assert line.startswith("[PASS]") and "error=" not in line


def test_verify_json_fails_only_the_checks_of_a_raising_label(capsys):
    rc, out, err = run_cli([*HIGH_W_SET, "--suite", "all", "--wmax", "70", "--format", "json"],
                           capsys)
    assert rc == 3 and err == ""
    checks = json.loads(out)[0]["checks"]
    assert len(checks) == 14
    for check in checks:
        if check["name"] in HIGH_W_RAISING:
            assert check["status"] == "fail" and check["max_residual"] is None
            assert check["error"].startswith("RuntimeError: series terminated")
        else:
            assert check["status"] == "pass" and check["error"] is None


def test_verify_json_names_a_weight_that_is_not_positive_definite(capsys):
    # At (9,1,8,1) W(0.92) has a slightly negative eigenvalue (condition ~5e16).
    rc, out, err = run_cli(["verify", "--n", "9", "--k", "1", "--ell", "8", "--m", "1",
                            "--suite", "ortho", "--format", "json"], capsys)
    assert rc == 3 and err == ""
    check = json.loads(out)[0]["checks"][0]
    assert check["name"] == "ortho/weight_consistency" and check["status"] == "fail"
    assert check["max_residual"] is None
    assert check["error"].startswith("ValueError: W(u=0.92) is not symmetric positive definite")


@pytest.mark.parametrize("args", [
    ["--n", "3", "--k", "1", "--ell", "1", "--m", "-1"],
    ["--jacobi", "--alpha", "-0.5", "--beta", "1.5", "--k", "1", "--ell", "1"],
])
def test_verify_negative_m_names_the_precondition(args, capsys):
    rc, out, err = run_cli(["verify", *args], capsys)
    assert rc == 2 and out == ""
    assert err.strip() == "error: suite 'all' needs m >= 0 (alpha >= 0 in Jacobi mode)"
    rc, out, _ = run_cli(["verify", *args, "--suite", "eigen"], capsys)
    assert rc == 0
    assert out.splitlines()[-1] == "summary: 6/6 checks passed on 1 parameter set(s)"


def test_verify_default_grid(capsys):
    rc, out, _ = run_cli(["verify"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "summary: 252/252 checks passed on 18 parameter set(s)"
    sets = []
    for line in lines[:-1]:
        echo = dict(kv.split("=") for kv in line.split(" :: ")[0].split()[1:])
        key = tuple(int(echo[name]) for name in ("ell", "k", "m", "n"))
        if not sets or sets[-1] != key:
            sets.append(key)
    # Reports come sorted by ell, then k, then m, then n.
    assert sets == sorted((p.ell, p.k, p.m, p.n) for p in default_grid())
