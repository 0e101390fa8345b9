"""Smoke test of the benchmark itself; it lies outside the tier-1 testpaths.

    python3 -m pytest perfbench/test_smoke.py -q

Runs each workload once at a tiny size (N <= 6, grid 3), untraced and
traced, and checks that every metric BENCHMARK.json names is reported
with its unit and that every output check passes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_reports_every_metric(workload, trace, section):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in report["metrics"].items()} == want
    assert "provenance " in proc.stdout and "metric error_rate 0 " in proc.stdout
    if trace and workload == "nash":
        # three nash_checks over 6 players plus two single best responses
        calls = report["metrics"]["analysis.best_response.calls"]["value"]
        assert calls == 3 * 6 + 2
    if trace and workload == "scan":
        assert report["metrics"]["game.minority_projector.calls"]["value"] > 0
        assert report["metrics"]["analysis.best_response.calls"]["value"] == 0


def test_failures_are_counted_not_raised():
    def out_of_memory():
        raise MemoryError("simulated")

    def wrong(_):
        raise workloads.CheckFailed("simulated")

    jobs = [
        workloads.Job("oom", "analysis", out_of_memory, lambda _: 1),
        workloads.Job("wrong", "cli", lambda: 0, wrong),
        workloads.Job("ok", "game", lambda: 0, lambda _: 2),
    ]
    tracer = spans.Tracer()
    tracer.begin_pass()
    failures = []
    result = run.run_pass(jobs, tracer, 0, failures)
    tracer.end_pass()
    assert (result.attempted, result.failed, result.rows) == (3, 2, 2)
    errors = {m: tracer.passes[0][f"{m}.errors"] for m in spans.MODULES}
    assert errors == {"core": 0, "states": 0, "game": 0, "analysis": 1, "cli": 1}
    assert len(failures) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("tables", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
