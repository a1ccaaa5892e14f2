"""Run one workload in this interpreter and print its result as one JSON line.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH:

    python3 bench/worker.py --workload oracle_grid --seed 1 --seconds 24 --trace 0

The loop is closed with one caller: each operation starts when the
previous one returned.  A pass runs every operation of the workload once;
passes repeat until the time is up, and never fewer than MIN_PASSES.
Only the call into qminv is timed; each check runs after the clock
stops.  Between operations the host-speed kernel is sampled, and each
end-to-end time is scaled to the nominal host speed (``hostspeed``).
With ``--trace 1`` the run makes untraced passes, traced passes and one
pass that counts Fractions, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import reference
import tracing
import workloads

MIN_PASSES = 3
PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)
MAX_REPORTED_FAILURES = 10


@dataclass
class Pass:
    starts_ns: list[int] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digests: list[int] = field(default_factory=list)
    stdout_bytes: int = 0


def run_pass(ops, in_process: bool = False, speed: hostspeed.HostSpeed | None = None) -> Pass:
    """Run every operation once; between operations, sample the host's speed."""
    result = Pass()
    clock = time.perf_counter_ns
    gc.collect()
    for op in ops:
        if speed is not None:
            speed.maybe_sample()
        call = op.run_in_process if in_process else op.run
        start = clock()
        result.starts_ns.append(start)
        try:
            observed = call()
        except Exception as exc:  # an operation that raises is a failure, not a crash
            result.latencies_ns.append(clock() - start)
            result.failures.append(f"{op.label}: raised {exc!r}")
            result.digests.append(0)
            continue
        result.latencies_ns.append(clock() - start)
        try:
            problem = op.check(observed)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            result.failures.append(f"{op.label}: {problem}")
        result.digests.append(hash(repr(observed)))
        if op.run_in_process is not None:  # CLI operations observe (exit code, stdout)
            result.stdout_bytes += len(observed[1].encode())
    return result


def run_passes(ops, seconds: float, min_passes: int, in_process: bool = False,
               speed: hostspeed.HostSpeed | None = None) -> list[Pass]:
    """Repeat passes until the next one would end after ``seconds``."""
    started = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(ops, in_process, speed))
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            if speed is not None:
                speed.sample()  # the last operations' neighbours
            return passes


def percentile(sorted_values, p: float):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_level(n_ops: int) -> float:
    """Highest ladder percentile with at least 10 operations beyond it."""
    return max(p for p in PERCENTILES if p == 50 or n_ops - math.ceil(p / 100 * n_ops) >= 10)


def median_latencies_ns(passes: list[Pass], speed: hostspeed.HostSpeed | None = None) -> list[float]:
    """Each operation's median latency over the passes, scaled by ``speed`` if given."""
    if speed is None:
        columns = zip(*(p.latencies_ns for p in passes))
    else:
        columns = zip(*([speed.scale(ns, start) for ns, start in zip(p.latencies_ns, p.starts_ns)] for p in passes))
    return [statistics.median(column) for column in columns]


def end_to_end(passes: list[Pass], peak_rss_kib: int, speed: hostspeed.HostSpeed) -> tuple[dict, dict, dict]:
    """End-to-end metrics of the untraced passes.

    Each operation counts with its median latency over the passes, each
    latency scaled to the nominal host speed.  The same figures unscaled
    are returned in the third dict.
    """
    scaled = sorted(median_latencies_ns(passes, speed))
    unscaled = sorted(median_latencies_ns(passes))
    attempted = sum(len(p.latencies_ns) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    level = tail_level(len(scaled))
    wall_s = sum(scaled) / 1e9
    metrics = {
        "wall_s": (wall_s, "s"),
        "ops_per_s": ((attempted - failed) / len(passes) / wall_s, "1/s"),
        "op_p50_ms": (percentile(scaled, 50) / 1e6, "ms"),
        "op_tail_ms": (percentile(scaled, level) / 1e6, "ms"),
        "fail_ratio": (failed / attempted, "ratio"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
    }
    tail = {"percentile": level, "ops": len(scaled), "passes": len(passes)}
    host = {
        "kernel_samples": len(speed.samples_ns),
        "kernel_median_ms": statistics.median(speed.samples_ns) / 1e6,
        "unscaled": {
            "wall_s": sum(unscaled) / 1e9,
            "op_p50_ms": percentile(unscaled, 50) / 1e6,
            "op_tail_ms": percentile(unscaled, level) / 1e6,
        },
    }
    return metrics, tail, host


def per_layer(untraced: list[Pass], traced: list[Pass], stats: dict, fractions: int,
              in_process_base: list[Pass] | None, speed: hostspeed.HostSpeed) -> dict:
    """Per-pass layer metrics from the traced passes' aggregated spans."""
    n = len(traced)

    def calls(name):
        return stats[name]["calls"] / n if name in stats else 0

    def self_ms(name):
        return stats[name]["self_ns"] / n / 1e6 if name in stats else 0.0

    def total_ns(name):
        return stats[name]["total_ns"] if name in stats else 0

    slice_name = "quotloc.slice_euler_bruteforce"
    slice_args = stats[slice_name]["details"] if slice_name in stats else []
    # details accumulate over all traced passes; each pass repeats the same calls
    space = sum(reference.slice_space(r, k) for r, k in slice_args) / n
    slice_calls = calls(slice_name)
    distinct = len(set(slice_args))
    components = sum(stats["quotloc.wall_components"]["details"]) / n if "quotloc.wall_components" in stats else 0
    closed_ns = total_ns("invariants.qm_elliptic_closed")
    base = in_process_base if in_process_base is not None else untraced
    traced_ns = sum(median_latencies_ns(traced, speed))
    metrics = {
        f"{slice_name}.calls": (slice_calls, "count"),
        f"{slice_name}.self_ms": (self_ms(slice_name), "ms"),
        f"{slice_name}.ns_per_decomposition": (self_ms(slice_name) * 1e6 / space if space else 0.0, "ns"),
        "quotloc.slice_space.count": (space, "count"),
        f"{slice_name}.repeat_ratio": (1 - distinct / slice_calls if slice_calls else 0.0, "ratio"),
        "quotloc.wall_components.calls": (calls("quotloc.wall_components"), "count"),
        "quotloc.wall_components.self_ms": (self_ms("quotloc.wall_components"), "ms"),
        "quotloc.components.count": (components, "count"),
        "quotloc.normal_bundle_inverse_expansion.self_ms": (self_ms("quotloc.normal_bundle_inverse_expansion"), "ms"),
        "quotloc.component_residue_degree.self_ms": (self_ms("quotloc.component_residue_degree"), "ms"),
        "exactalg.laurent_residue.self_ms": (self_ms("exactalg.laurent_residue"), "ms"),
        "exactalg.fraction_new.calls": (fractions, "count"),
        "exactalg.series_log_product.calls": (calls("exactalg.series_log_product"), "count"),
        "exactalg.series_log_product.self_ms": (self_ms("exactalg.series_log_product"), "ms"),
        "exactalg.qseries_arith.calls": (calls("exactalg.qseries_arith"), "count"),
        "exactalg.qseries_arith.self_ms": (self_ms("exactalg.qseries_arith"), "ms"),
        "invariants.qm_elliptic_closed.self_ms": (self_ms("invariants.qm_elliptic_closed"), "ms"),
        "invariants.qm_elliptic_oracle.self_ms": (self_ms("invariants.qm_elliptic_oracle"), "ms"),
        "invariants.qm_moduli.self_ms": (self_ms("invariants.qm_moduli"), "ms"),
        "invariants.series_identity.self_ms": (self_ms("invariants.series_identity"), "ms"),
        "invariants.oracle_over_closed": (
            total_ns("invariants.qm_elliptic_oracle") / closed_ns if closed_ns else 0.0, "ratio"),
        "arith.divisors.calls": (calls("arith.divisors"), "count"),
        "arith.divisors.self_ms": (self_ms("arith.divisors"), "ms"),
        "arith.solve_base_degrees.calls": (calls("arith.solve_base_degrees"), "count"),
        "arith.canonical_u_choice.calls": (calls("arith.canonical_u_choice"), "count"),
        "arith.query_build.self_ms": (self_ms("arith.query_build"), "ms"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        "cli.stdout_bytes": (untraced[0].stdout_bytes, "bytes"),
        "cli.process_overhead_ms": (0.0, "ms"),
        "selfcheck.run_selfcheck.self_ms": (self_ms("selfcheck.run_selfcheck"), "ms"),
        "trace.pass_ms": (sum(ns for p in traced for ns in p.latencies_ns) / n / 1e6, "ms"),
        "trace.overhead_ratio": (traced_ns / sum(median_latencies_ns(base, speed)), "ratio"),
    }
    if in_process_base is not None:
        process = median_latencies_ns(untraced, speed)
        main = median_latencies_ns(in_process_base, speed)
        metrics["cli.process_overhead_ms"] = ((sum(process) - sum(main)) / len(main) / 1e6, "ms")
    return metrics


def compare_digests(reference_pass: Pass, others: list[Pass], label: str) -> list[str]:
    problems = []
    for p in others:
        for index, (a, b) in enumerate(zip(reference_pass.digests, p.digests)):
            if a != b:
                problems.append(f"op {index}: {label} result differs from the untraced result")
    return problems


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, out_dir: Path | None) -> dict:
    ops = workloads.build(workload, seed, size)
    is_cli = workload == "cli"
    provenance = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "nproc": os.cpu_count(),
        "python": ".".join(map(str, sys.version_info[:3])),
        "git_sha": git_sha(Path(__file__).resolve().parent.parent),
        "ops": len(ops),
        "quotloc.slice_space.count": sum(op.slice_space for op in ops),
    }
    result = {"provenance": provenance}
    if not trace:
        speed = hostspeed.HostSpeed()
        passes = run_passes(ops, seconds, MIN_PASSES, speed=speed)
        who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        metrics, tail, host = end_to_end(passes, resource.getrusage(who).ru_maxrss, speed)
        all_passes = passes
        result.update(metrics=metrics, tail=tail, host_speed=host)
    else:
        speed = hostspeed.HostSpeed()
        untraced = run_passes(ops, seconds / (4 if is_cli else 2), 1, speed=speed)
        in_process_base = run_passes(ops, seconds / 4, 1, in_process=True, speed=speed) if is_cli else None
        started, traced, stats = time.perf_counter(), [], {}
        while not traced or time.perf_counter() - started < seconds / 2:
            tracer = tracing.Tracer()
            with tracer.install():
                traced.append(run_pass(ops, in_process=is_cli, speed=speed))
            for name, entry in tracer.aggregate().items():
                total = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "details": []})
                for key in ("calls", "total_ns", "self_ns", "details"):
                    total[key] += entry[key]
        speed.sample()
        with tracing.count_fractions() as counter:
            counted = run_pass(ops, in_process=is_cli)
        if out_dir is not None:
            tracer.write(out_dir / f"spans-{workload}-seed{seed}.json")
        base = (in_process_base or untraced)[0]
        mismatches = compare_digests(base, traced + [counted], "traced")
        if is_cli:
            mismatches += compare_digests(untraced[0], in_process_base, "in-process")
        metrics = per_layer(untraced, traced, stats, counter[0], in_process_base, speed)
        all_passes = untraced + (in_process_base or []) + traced + [counted]
        all_passes[-1].failures += mismatches
        result.update(metrics=metrics, traced_passes=len(traced))
    provenance["output_bytes"] = all_passes[0].stdout_bytes
    failures = [f for p in all_passes for f in p.failures]
    result.update(
        attempted=sum(len(p.latencies_ns) for p in all_passes),
        failed=len(failures),
        failures=failures[:MAX_REPORTED_FAILURES],
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out-dir", type=Path)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
