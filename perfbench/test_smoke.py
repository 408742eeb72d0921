"""Smoke test of the benchmark at tiny job counts.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

END_TO_END = ("angles_per_s", "job_ms_p50", "job_ms_tail", "setup_s", "peak_rss_mb", "failed_ratio")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _results(out):
    assert out.returncode == 0, out.stderr
    *_, report, result = out.stdout.strip().splitlines()
    assert report.startswith("# report ")
    return json.loads(report[len("# report "):]), json.loads(result)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_workload_emits_every_end_to_end_metric(workload):
    report, result = _results(
        _bench("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0")
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(report["metrics"]) == set(END_TO_END)
    assert all(m["unit"] for m in report["metrics"].values())
    assert report["metrics"]["failed_ratio"]["value"] == 0.0
    gated = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["machine"]["nproc"] >= 1 and report["machine"]["numpy"]


@pytest.fixture(scope="module")
def workloads():
    return bench.import_workloads()


def test_perturbed_value_counts_as_failed(workloads):
    wl = workloads.WORKLOADS["m2"]
    fixture = wl.setup(workloads.setup_rng(3))
    clean, _ = bench.run_loop(workloads, wl, fixture, 3, workloads.Checker(), passes=4)
    perturbed, _ = bench.run_loop(
        workloads, wl, fixture, 3, workloads.Checker(perturb=1e-6), passes=4
    )
    assert clean.failed_ratio == 0.0
    assert perturbed.attempted == 4 and perturbed.failed_ratio == 1.0
    assert "Mismatch" in perturbed.first_error


def _library_bindings():
    """Every module attribute and class attribute of the package, by name."""
    out = {}
    for mod in [m for n, m in sys.modules.items() if n.startswith("cstar_angles")]:
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("cstar_angles"):
                for attr, member in vars(value).items():
                    out[(value.__module__, value.__qualname__, attr)] = member
    return out


def test_traced_run_restores_library(workloads, tmp_path):
    wl = workloads.WORKLOADS["m2"]
    fixture = wl.setup(workloads.setup_rng(3))
    import cstar_angles.verify  # noqa: F401  (bound before the recorder imports it)

    before = _library_bindings()
    spans_file = tmp_path / "spans.jsonl"
    run, metrics, checks, ok = bench.traced(
        workloads, wl, fixture, 3, 0.2, workloads.Checker(), spans_file
    )
    after = _library_bindings()
    assert ok and checks["unrestored"] == [] and run.failed == 0
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []

    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["angles.interior_angle_definition.calls"]["value"] == checks["traced_jobs"]
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    ids = {s["id"] for s in spans}
    assert all(s["job"] >= 1 and (s["parent"] == 0 or s["parent"] in ids) for s in spans)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "m2", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
