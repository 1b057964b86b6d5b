"""Smoke test of the benchmark harness at tiny sizes; runs in well under a minute.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "bench"))

from tracing import summarize  # noqa: E402

# per-layer metrics each workload must move; zero means a wrapper missed its binding
EXERCISED = {
    "session": ("cli.build_profile_s", "cli.verify_s", "cli.collapse_s",
                "cli.obstruction_s", "bump.load_profile_s", "bump.smoothness_check_s",
                "frame.ricci_curve_calls", "verify.grid_points", "quaternions.qmul_calls",
                "quaternions.canonical_q8_s", "spaces.apsp_s", "spaces.components_calls",
                "spaces.gh_upper_bound_s", "spaces.diameter_s",
                "obstruction.hitchin_check_s"),
    "certify": ("bump.build_profile_calls", "bump.build_table_s", "bump.antiderivative_calls",
                "profiles.radial_points", "frame.ricci_curve_points",
                "frame.curvature_from_forms_calls", "verify.verify_region_s",
                "verify.verify_nonneg_s", "verify.self_s"),
    "metric_space": ("spaces.space_calls", "spaces.apsp_s", "spaces.graph_s",
                     "spaces.edges", "spaces.dist_mb_computed", "spaces.metric_axioms_s",
                     "spaces.diameter_s", "quaternions.qmul_calls"),
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "certify", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children():
    spans = [("outer", 0.0, 10.0, -1), ("inner", 1.0, 4.0, 0),
             ("outer", 2.0, 3.0, 1), ("inner", 5.0, 6.0, 0)]
    calls, total, self_time = summarize(spans)
    assert calls == {"outer": 2, "inner": 2}
    assert total == {"outer": 10.0, "inner": 4.0}
    assert self_time == {"outer": 6.0 + 1.0, "inner": 2.0 + 1.0}
