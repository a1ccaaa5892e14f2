"""qminv benchmark: one workload, every metric, outputs checked.

Run from the root of a checkout:

    python3 bench/run.py --workload oracle_grid --seed 1 --seconds 24 --trace 0

It pins itself (and so every process it starts) to one vCPU, measures
``setup_s`` (the time for a fresh interpreter to import ``qminv`` and
``qminv.cli``, median of 16, at the nominal host speed of ``hostspeed``),
then runs the workload in a fresh
interpreter (``worker.py``) that imports qminv from the checkout's
``src``.  It prints a report, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics named in
``BENCHMARK.json``: end-to-end with ``--trace 0``, per-layer with
``--trace 1``.  The exit code is 0 only if every operation was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

SETUP_RUNS = 12
SETUP_KERNELS = 5
WORKER_TIMEOUT_S = 170
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# fail_ratio is printed with the end-to-end metrics, but it is 0 on a
# correct run, so BENCHMARK.json carries it as ``failed`` / ``attempted``.
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
SLICE_SELF = "quotloc.slice_euler_bruteforce.self_ms"
RESIDUE_PATH = (
    "quotloc.normal_bundle_inverse_expansion",
    "quotloc.component_residue_degree",
    "exactalg.laurent_residue",
)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QM_TRUNCATION_DEFAULT", None)
    return env


def measure_setup(env: dict, runs: int) -> list[float]:
    """Wall times of ``python3 -c 'import qminv, qminv.cli'``, at the nominal host speed.

    Each import is scaled by the host-speed kernel's median over
    SETUP_KERNELS samples before it and as many after it.
    """
    times = []
    for _ in range(runs):
        speed = hostspeed.HostSpeed()
        for _ in range(SETUP_KERNELS):
            speed.sample()
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "import qminv, qminv.cli"], env=env, cwd=ROOT, check=True, timeout=60)
        elapsed = time.perf_counter_ns() - start
        for _ in range(SETUP_KERNELS):
            speed.sample()
        times.append(elapsed * hostspeed.NOMINAL_NS / statistics.median(speed.samples_ns) / 1e9)
    return times


def run_worker(args, env: dict) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--out-dir", str(OUT_DIR),
    ]
    proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def exit_code(result: dict) -> int:
    return 0 if result["failed"] == 0 else 1


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable report; return the final JSON object."""
    metrics = result["metrics"]
    print(json.dumps({"provenance": result["provenance"]}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<56} {value:>16.6g} {unit}")
    if "tail" in result:
        tail = result["tail"]
        print(f"op_tail_ms is p{tail['percentile']:g} of n={tail['ops']} operations, each at its median of {tail['passes']} passes")
    if "host_speed" in result:
        host = result["host_speed"]
        unscaled = ", ".join(f"{name} {value:.6g}" for name, value in host["unscaled"].items())
        print(f"times are at the nominal host speed (host-speed kernel {hostspeed.NOMINAL_NS / 1e6:g} ms); "
              f"the kernel's median was {host['kernel_median_ms']:.4f} ms over {host['kernel_samples']} samples; "
              f"unscaled: {unscaled}")
    if trace:
        pass_ms = metrics["trace.pass_ms"][0]
        residue = sum(metrics[f"{name}.self_ms"][0] for name in RESIDUE_PATH)
        print(f"share of a traced pass: slice brute force {metrics[SLICE_SELF][0] / pass_ms:.3f}, "
              f"residue path {residue / pass_ms:.3f}")
    for failure in result["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qminv benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long run for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "qminv" / "__init__.py").is_file():
        print(f"no qminv sources under {SRC}; run from the root of a qminv checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    hostspeed.pin()
    env = child_env()
    if args.trace:
        result = run_worker(args, env)
    else:
        # One warm-up import, then half the set-ups before the workload and
        # half after it; the median is reported.
        setups = measure_setup(env, SETUP_RUNS + 1)[1:]
        result = run_worker(args, env)
        setups += measure_setup(env, SETUP_RUNS)
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
        result["setup_s_runs"] = setups
    final = report(result, bool(args.trace))
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, final=final), indent=1) + "\n")
    print(json.dumps(final))
    return exit_code(result)


if __name__ == "__main__":
    raise SystemExit(main())
