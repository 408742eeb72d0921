import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from cstar_angles import cli, tower
from cstar_angles.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_map(payload):
    return {row["name"]: row["value"] for row in payload["results"]}


# ---------------------------------------------------------------------------
# m2-angle


def test_m2_angle_right_angle(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "m2-angle", "--rotation", str(math.pi / 4)
    )
    assert code == 0
    values = result_map(json.loads(out))
    assert values["angle_rad_formula"] == pytest.approx(math.pi / 2, abs=1e-7)
    assert values["angle_rad_definition"] == pytest.approx(math.pi / 2, abs=1e-7)
    assert values["angle_rad_closed_form"] == pytest.approx(math.pi / 2, abs=1e-7)
    assert values["residual_formula_vs_definition"] <= 1e-8


def test_m2_angle_zero(capsys):
    code, out, _ = run_cli(capsys, "--json", "m2-angle", "--rotation", "0")
    values = result_map(json.loads(out))
    assert code == 0
    assert values["angle_rad_definition"] == pytest.approx(0.0, abs=1e-8)


def test_m2_angle_explicit_entries(capsys):
    s = 1 / math.sqrt(2)
    code, out, _ = run_cli(
        capsys, "--json", "m2-angle",
        "--u", str(s), "0", "0", str(s), "0", str(s), str(s), "0",
    )
    assert code == 0
    values = result_map(json.loads(out))
    assert values["angle_rad_definition"] == pytest.approx(math.pi / 2, abs=1e-7)


def test_m2_angle_rejects_non_unitary(capsys):
    code, _, err = run_cli(
        capsys, "m2-angle", "--u", "1", "0", "0", "0", "0", "0", "0", "2"
    )
    assert code == 2
    assert "NotUnitary" in err


@pytest.mark.parametrize("theta", ["inf", "-inf", "nan"])
def test_m2_angle_rejects_a_non_finite_rotation(capsys, theta):
    code, out, err = run_cli(capsys, "m2-angle", f"--rotation={theta}")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: InvalidMatrix: ") and "Traceback" not in err


def test_m2_angle_usage_error(capsys):
    code, _, _ = run_cli(capsys, "m2-angle")
    assert code == 64


def test_unknown_command_usage_error(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 64


# ---------------------------------------------------------------------------
# m2-sweep


def test_sweep_three_points(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "--json", "m2-sweep", "--points", "3", "--out", str(out_file)
    )
    assert code == 0
    with open(out_file, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "cos", "angle_rad"]
    angles = [float(r[2]) for r in rows[1:]]
    assert angles[0] == pytest.approx(0.0)
    assert angles[1] == pytest.approx(math.pi / 4)
    assert angles[2] == pytest.approx(math.pi / 2)
    # RFC 4180 line endings
    assert out_file.read_bytes().count(b"\r\n") == 4


def test_sweep_two_points_endpoints(tmp_path, capsys):
    out_file = tmp_path / "two.csv"
    code, out, _ = run_cli(
        capsys, "--json", "m2-sweep", "--points", "2", "--out", str(out_file)
    )
    payload = json.loads(out)
    assert code == 0
    assert all(c["pass"] for c in payload["checks"])


def test_sweep_dense_gap(tmp_path, capsys):
    out_file = tmp_path / "dense.csv"
    code, out, _ = run_cli(
        capsys, "--json", "m2-sweep", "--points", "1000", "--out", str(out_file)
    )
    values = result_map(json.loads(out))
    assert code == 0
    assert values["max_gap_rad"] < 0.01


def test_sweep_json_stdout_is_one_document(tmp_path, capsys):
    # with --out the whole of stdout parses as the report; without it the
    # CSV rows would share stdout with the report, so the sweep is refused
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "--json", "m2-sweep", "--points", "3", "--out", str(out_file)
    )
    assert code == 0 and json.loads(out)["command"] == "m2-sweep"
    code, out, err = run_cli(capsys, "--json", "m2-sweep", "--points", "3")
    assert code == 64 and out == ""
    assert "--json needs --out" in err
    # without --json the rows still go to stdout
    code, out, _ = run_cli(capsys, "m2-sweep", "--points", "3")
    assert code == 0 and out.splitlines()[0] == "theta,cos,angle_rad"


def test_sweep_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys, "m2-sweep", "--points", "3", "--out", "/nonexistent-dir/x.csv"
    )
    assert code == 73


def test_sweep_too_few_points(capsys):
    code, _, _ = run_cli(capsys, "m2-sweep", "--points", "1")
    assert code == 64


def test_sweep_over_the_memory_budget_is_too_large(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the sweep allocated its points")

    with monkeypatch.context() as patch:
        patch.setattr(np, "linspace", refused)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "m2-sweep", "--points", "100000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 2 and out == "" and "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: TooLarge: m2-sweep: 100000000000 points need about ")
    assert peak < 1 << 20
    # the bound is the tower's budget: three points fit in three points' charge
    monkeypatch.setattr(tower, "MATERIALIZE_BUDGET_BYTES", 3 * cli.SWEEP_POINT_BYTES)
    assert run_cli(capsys, "m2-sweep", "--points", "3")[0] == 0
    assert run_cli(capsys, "m2-sweep", "--points", "4")[0] == 2


# ---------------------------------------------------------------------------
# group-angle


def test_group_angle_example_lattice(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "group-angle",
        "--group", "Z3xZ3xZ5xZ5",
        "--H", "(0,0,1,0)",
        "--K", "(1,0,0,0),(0,1,0,0),(0,0,1,0)",
        "--L", "(0,1,0,0),(0,0,1,0)",
    )
    assert code == 0
    values = result_map(json.loads(out))
    assert values["cos"] == 0.5
    assert values["cos_squared_numerator"] == 1
    assert values["cos_squared_denominator"] == 4
    assert values["angle_rad"] == pytest.approx(math.pi / 3, abs=1e-12)


def test_group_angle_equal_subgroups(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "group-angle",
        "--group", "Z12", "--H", "(6)", "--K", "(3)", "--L", "(3)",
    )
    values = result_map(json.loads(out))
    assert code == 0
    assert values["angle_rad"] == pytest.approx(0.0)


def test_group_angle_s3(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "group-angle",
        "--group", "S3", "--H", "", "--K", "(12)", "--L", "(13)",
    )
    values = result_map(json.loads(out))
    assert code == 0
    assert values["angle_rad"] == pytest.approx(math.pi / 2)


def test_group_angle_numeric_route(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "group-angle",
        "--group", "Z2xZ2xZ2", "--H", "",
        "--K", "(1,0,0),(0,1,0)", "--L", "(1,0,0),(0,0,1)",
        "--numeric",
    )
    values = result_map(json.loads(out))
    assert code == 0
    assert values["cos"] == pytest.approx(1 / 3, abs=1e-15)
    assert values["residual_formula_vs_numeric"] <= 1e-7


def test_group_angle_nesting_violation(capsys):
    code, _, err = run_cli(
        capsys, "group-angle",
        "--group", "Z12", "--H", "(4)", "--K", "(6)", "--L", "(6)",
    )
    assert code == 2
    assert "H is not contained in K" in err


def test_group_angle_bad_spec(capsys):
    code, _, err = run_cli(
        capsys, "group-angle", "--group", "E8", "--K", "(1)", "--L", "(1)"
    )
    assert code == 2


def test_group_angle_s0_is_an_invalid_group(capsys):
    code, _, err = run_cli(capsys, "group-angle", "--group", "S0", "--K", "()", "--L", "()")
    assert code == 2
    assert "InvalidGroup" in err and "TooLarge" not in err


# ---------------------------------------------------------------------------
# verify


def test_verify_groups_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "--suite", "groups")
    assert code == 0
    payload = json.loads(out)
    assert all(c["pass"] for c in payload["checks"])


def test_verify_m2_suite_passes(capsys):
    # the fourth-power closed form is checked by its exact factor over the
    # computed routes, so every m2 check passes and the exit code is 0
    code, out, _ = run_cli(capsys, "--json", "verify", "--suite", "m2")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "m2_printed_closed_form_agreement" in names
    assert [c["name"] for c in payload["checks"] if not c["pass"]] == []


def test_verify_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 64


# ---------------------------------------------------------------------------
# report format


def test_json_reports_are_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--json", "m2-angle", "--rotation", "0.3")
    code2, out2, _ = run_cli(capsys, "--json", "m2-angle", "--rotation", "0.3")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "cstar-angles.report/1"
    assert payload["timing_ms"] is None


def test_human_output_contains_routes(capsys):
    code, out, _ = run_cli(capsys, "m2-angle", "--rotation", "0.3")
    assert code == 0
    assert "[formula]" in out and "[definition]" in out
    assert "timing_ms" in out
