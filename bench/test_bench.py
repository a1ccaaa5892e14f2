"""Tests of the benchmark itself, on tiny workloads.

Run from the repository root:  PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import reference
import run
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED_END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] + [("fail_ratio", "ratio")]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
               "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    expected = REPORTED_END_TO_END if not trace else [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    for name, unit in expected:
        assert any(line.split()[0] == name and line.split()[-1] == unit for line in lines if line.strip()), name
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert list(final["metrics"]) == names
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert all(final["metrics"][n]["unit"] == units[n] for n in names)


def test_wrong_expected_value_fails_the_run(monkeypatch):
    true_value = reference.elliptic_value
    monkeypatch.setattr(reference, "elliptic_value", lambda *args: true_value(*args) + 1)
    result = worker.run("oracle_grid", seed=5, seconds=0.1, trace=False, size="tiny", out_dir=None)
    fail_ratio = result["metrics"]["fail_ratio"][0]
    assert result["failed"] > 0 and fail_ratio > 0
    assert run.exit_code(result) != 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_results_are_identical(workload):
    ops = workloads.build(workload, seed=5, size="tiny")
    untraced = [op.run() for op in ops]
    with tracing.Tracer().install():
        traced = [(op.run_in_process or op.run)() for op in ops]
    assert traced == untraced
    assert all(op.check(observed) is None for op, observed in zip(ops, traced))


@pytest.mark.parametrize("workload", ["oracle_grid", "rank_deep"])
def test_traced_slice_space_matches_the_count_from_arguments(workload):
    ops = workloads.build(workload, seed=5, size="tiny")
    tracer = tracing.Tracer()
    with tracer.install():
        for op in ops:
            op.run()
    slices = tracer.aggregate()["quotloc.slice_euler_bruteforce"]["details"]
    assert sum(reference.slice_space(r, k) for r, k in slices) == sum(op.slice_space for op in ops)


def patchable_attributes() -> dict:
    qseries = tracing.qminv.exactalg.QSeries
    found = {(owner.__name__, attr): getattr(owner, attr)
             for owner in tracing.MODULES for _, attr, _ in tracing.FUNCTIONS if hasattr(owner, attr)}
    found.update({("QSeries", attr): qseries.__dict__[attr] for attr in tracing.QSERIES_OPERATORS})
    return found


def test_tracer_restores_every_patched_function():
    before = patchable_attributes()
    with tracing.Tracer().install():
        assert patchable_attributes() != before
    assert patchable_attributes() == before


def test_host_speed_scales_by_the_kernel_time_around_an_operation():
    speed = hostspeed.HostSpeed()
    speed.starts_ns = [0, 10, 20, 30, 40, 50]
    speed.samples_ns = [hostspeed.NOMINAL_NS] * 3 + [2 * hostspeed.NOMINAL_NS] * 3
    assert speed.scale(1000, 5) == 1000
    assert speed.scale(1000, 45) == 500


def test_scaled_latencies_are_per_operation_medians():
    speed = hostspeed.HostSpeed()
    speed.starts_ns = [0]
    speed.samples_ns = [hostspeed.NOMINAL_NS // 2]
    passes = [worker.Pass(starts_ns=[1, 2], latencies_ns=[10, 40]),
              worker.Pass(starts_ns=[3, 4], latencies_ns=[30, 20]),
              worker.Pass(starts_ns=[5, 6], latencies_ns=[20, 90])]
    assert worker.median_latencies_ns(passes) == [20, 40]
    assert worker.median_latencies_ns(passes, speed) == [40, 80]


def test_host_speed_kernel_does_not_use_qminv():
    code = "import sys, hostspeed; hostspeed.HostSpeed().sample(); assert not any(m.startswith('qminv') for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench", check=True, timeout=60)


def test_fails_without_qminv_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("oracle_grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
