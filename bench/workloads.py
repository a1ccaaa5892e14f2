"""The benchmark's workloads: operations built from a seed, each with its check.

An operation runs qminv once and returns what it produced; its check
compares that with values from ``reference`` (and, for the CLI, with the
library's own Fractions) and returns a message on any mismatch.  Every
call into qminv goes through a module attribute (``inv.qm_elliptic_oracle``,
``quotloc.slice_euler_bruteforce``, ...), so the tracer's wrappers see it.

Sizes: ``full`` is what the benchmark measures; ``tiny`` runs in about a
second and exists for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import qminv.cli as cli
import qminv.invariants as inv
import qminv.quotloc as quotloc
import qminv.selfcheck as selfcheck
from qminv.arith import ChernClass, InvariantQuery, canonical_u_choice

import reference

WORKLOADS = ("oracle_grid", "rank_deep", "series", "cli")


@dataclass
class Op:
    """One closed-loop operation.

    ``run`` returns the observation that ``check`` judges (None when it is
    correct).  CLI operations also have ``run_in_process``, which calls
    ``qminv.cli.main`` with stdout captured instead of starting a process.
    ``slice_space`` is the number of slice decompositions the operation
    makes qminv enumerate, computed from its arguments.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    slice_space: int = 0
    run_in_process: Callable[[], object] | None = None


def build_query(r: int, d: int, a: int, w: int, g: int) -> InvariantQuery:
    """The benchmark's own query construction, traced as ``arith.query_build``."""
    u_choice = None if a == 1 else canonical_u_choice(r, a)
    return InvariantQuery(r=r, d=d, a=a, w=w, g=g, u_choice=u_choice)


# --- library operations -------------------------------------------------


def _both_routes(r: int, d: int, w: int, g: int):
    query = build_query(r, d, 1, w, g)
    closed = inv.qm_elliptic_closed(query)
    oracle = inv.qm_elliptic_oracle(query)
    return closed.value_t, closed.breakdown, oracle.value_t, oracle.breakdown


def _check_both_routes(r: int, d: int, w: int, g: int):
    value = reference.elliptic_value(r, d, 1, w, g)
    breakdown = reference.elliptic_breakdown(r, d, 1, w, g)

    def check(observed) -> str | None:
        closed_value, closed_breakdown, oracle_value, oracle_breakdown = observed
        if closed_value != oracle_value:
            return f"routes disagree: closed={closed_value} oracle={oracle_value}"
        if sum((c for _, c in oracle_breakdown), Fraction(0)) != oracle_value:
            return "oracle breakdown does not sum to the value"
        if oracle_value != value:
            return f"value {oracle_value} != reference {value}"
        if closed_breakdown != breakdown or oracle_breakdown != breakdown:
            return "breakdown differs from the reference (m, (2g-2)/m)"
        return None

    return check


def _query_op(r: int, d: int, w: int, g: int) -> Op:
    space = sum(reference.slice_space(r, k) for k in reference.oracle_slice_ks(r, d, w))
    return Op(
        label=f"query r={r} d={d} w={w} g={g}",
        run=lambda: _both_routes(r, d, w, g),
        check=_check_both_routes(r, d, w, g),
        slice_space=space,
    )


def _slice_op(r: int, k: int) -> Op:
    expected = reference.slice_euler(r, k)

    def check(observed) -> str | None:
        return None if observed == expected else f"slice Euler {observed} != r*k = {expected}"

    return Op(
        label=f"slice r={r} k={k}",
        run=lambda: quotloc.slice_euler_bruteforce(r, ChernClass(0, k)),
        check=check,
        slice_space=reference.slice_space(r, k),
    )


def _series_op(identity: str, g: int, order: int) -> Op:
    expected = [reference.series_coefficient(identity, g, w) for w in range(order + 1)]
    name = "series_identity_odd" if identity == "A" else "series_identity_even"

    def run():
        result = getattr(inv, name)(g, order)
        return result.lhs.coeffs, result.rhs.coeffs, result.equal

    def check(observed) -> str | None:
        lhs, rhs, equal = observed
        if not equal:
            return "identity reported unequal"
        if list(lhs) != expected:
            return "left side differs from the reference coefficients"
        if list(rhs) != expected:
            return "right side differs from the reference coefficients"
        return None

    return Op(label=f"series {identity} g={g} order={order}", run=run, check=check)


def oracle_grid(rng: random.Random, size: str) -> list[Op]:
    """(r, a) = (2, 1), d in {0, 1}, g in 2..5, w in 1..300 on the congruence, in seeded order.

    Off the congruence w = d mod 2 both routes return 0 before any wall
    component exists.  Such points would make exactly half of the
    operations a cluster of ~15 us calls, so the median would fall
    between two clusters and flip from run to run.
    """
    w_max = 300 if size == "full" else 12
    points = [(d, g, w) for d in (0, 1) for g in range(2, 6) for w in range(1, w_max + 1) if w % 2 == d]
    rng.shuffle(points)
    return [_query_op(2, d, w, g) for d, g, w in points]


# Deep-divisor queries of prime rank (r, w); d is chosen so that the
# congruence holds and the oracle visits every component.  The first
# line of each rank holds the heavy queries, then medium and cheap ones of
# the same families, whose rank-0 components share (r, k) with the heavy
# ones.  The list never depends on the seed, so neither does the work.
RANK_DEEP_QUERIES = {
    "full": [
        (2, 27720), (2, 65536),
        (2, 5040), (2, 8192), (2, 16384),
        (2, 12), (2, 24), (2, 36), (2, 48), (2, 60), (2, 72), (2, 96), (2, 120), (2, 144),
        (2, 180), (2, 240), (2, 256), (2, 360), (2, 480), (2, 512), (2, 720), (2, 840),
        (2, 960), (2, 1024), (2, 1260), (2, 1440), (2, 1680), (2, 1920), (2, 2048), (2, 2520),
        (2, 2880), (2, 3360), (2, 3840), (2, 4096), (2, 4320), (2, 6144),
        (2, 30), (2, 84), (2, 168), (2, 210), (2, 336), (2, 420), (2, 504), (2, 630),
        (2, 945), (2, 2835), (2, 10395),
        (3, 729),
        (3, 351), (3, 399), (3, 567),
        (3, 3), (3, 9), (3, 27), (3, 81), (3, 243), (3, 21), (3, 63), (3, 189),
        (3, 39), (3, 117), (3, 147), (3, 273), (3, 57), (3, 93), (3, 111), (3, 129), (3, 171), (3, 333),
        (5, 125),
        (5, 5), (5, 25), (5, 55),
    ],
    "tiny": [(2, 360), (2, 64), (3, 27), (3, 63), (5, 25)],
}
RANK_DEEP_SLICES = {
    "full": [(6, k) for k in range(1, 11)] + [(7, k) for k in range(1, 10)] + [(8, k) for k in range(1, 9)],
    "tiny": [(6, 4), (7, 3)],
}


def rank_deep(rng: random.Random, size: str) -> list[Op]:
    """Oracle + closed form on deep-divisor queries, plus direct slice calls."""
    ops = []
    for r, w in RANK_DEEP_QUERIES[size]:
        d = 0 if r > 2 else w % 2
        ops.append(_query_op(r, d, w, rng.randrange(2, 6)))
    ops += [_slice_op(r, k) for r, k in RANK_DEEP_SLICES[size]]
    rng.shuffle(ops)
    return ops


def series(rng: random.Random, size: str) -> list[Op]:
    """Both eta-product identities for g = 2..5 at five high orders."""
    orders, genera = ((500, 600, 700, 800, 900), range(2, 6)) if size == "full" else ((20,), (2, 3))
    ops = [_series_op(i, g, n) for i in ("A", "B") for g in genera for n in orders]
    rng.shuffle(ops)
    return ops


# --- CLI operations -------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``python -m qminv.cli`` in a child process; returns (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "qminv.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """``qminv.cli.main(argv)`` with stdout captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def _table_fields(stdout: str) -> dict[str, list[str]]:
    return {line.split()[0]: line.split()[1:] for line in stdout.splitlines() if line.strip()}


def _check_invariant(r: int, d: int, a: int, w: int, g: int, fmt: str):
    ref = reference.constant_map_value(r, g) if w == 0 else reference.elliptic_value(r, d, a, w, g)
    query = build_query(r, d, a, w, g)
    if w == 0:
        library = [inv.qm_degree_zero(query).value_t]
        breakdown = ()
    else:
        library = [inv.qm_elliptic_closed(query).value_t, inv.qm_elliptic_oracle(query).value_t]
        breakdown = reference.elliptic_breakdown(r, d, a, w, g)
    expected = {ref, *library}

    def check(observed) -> str | None:
        code, stdout = observed
        if code != 0:
            return f"exit code {code}"
        if fmt == "json":
            payload = json.loads(stdout)
            values = [payload["value"]]
            values += [route["value"] for route in payload.get("routes", {}).values()]
            got = [(item["m"], Fraction(item["contribution"])) for item in payload["breakdown"]]
            if tuple(got) != breakdown:
                return "JSON breakdown differs from the reference"
            checks = payload.get("identity_checks", [])
            agreed = bool(checks) and all(item["pass"] for item in checks)
        else:
            fields = _table_fields(stdout)
            values = [fields["value"][0]]
            values += [fields[name][1] for name in (inv.ROUTE_CLOSED, inv.ROUTE_ORACLE) if name in fields]
            agreed = fields.get("check") == ["route_agreement:", "pass"]
        if w > 0 and (len(values) != 3 or not agreed):
            return "route agreement missing or failed"
        if {Fraction(v) for v in values} != expected or len(expected) != 1:
            return f"values {values} != reference {ref} / library {library}"
        return None

    return check


def _invariant_op(r: int, d: int, a: int, w: int, g: int, fmt: str) -> Op:
    argv = ["invariant", "-r", str(r), "-d", str(d), "-a", str(a), "-w", str(w), "-g", str(g), "--route", "both"]
    if fmt == "json":
        argv += ["--format", "json"]
    space = 0 if w == 0 else sum(reference.slice_space(r, k) for k in reference.oracle_slice_ks(r, d, w))
    return _cli_op(" ".join(argv), argv, _check_invariant(r, d, a, w, g, fmt), space)


def _sweep_op(d: int, w_max: int, g_lo: int, g_hi: int) -> Op:
    argv = ["sweep", "-r", "2", "-d", str(d), "-a", "1", "--w-max", str(w_max), "--g", f"{g_lo}..{g_hi}", "--format", "json"]
    points = [(w, g) for g in range(g_lo, g_hi + 1) for w in range(1, w_max + 1)]
    expected = []
    for w, g in points:
        query = build_query(2, d, 1, w, g)
        library = {inv.qm_elliptic_closed(query).value_t, inv.qm_elliptic_oracle(query).value_t}
        expected.append((w, g, reference.elliptic_value(2, d, 1, w, g), library))
    space = sum(reference.slice_space(2, k) for w, _ in points for k in reference.oracle_slice_ks(2, d, w))

    def check(observed) -> str | None:
        code, stdout = observed
        if code != 0:
            return f"exit code {code}"
        lines = [json.loads(line) for line in stdout.splitlines()]
        records, summary = lines[:-1], lines[-1].get("summary")
        if summary != {"total": len(points), "agree": len(points), "conjectural": 0}:
            return f"summary {summary} is not {len(points)}/{len(points)} agree"
        if len(records) != len(points):
            return f"{len(records)} records for {len(points)} points"
        for record, (w, g, ref, library) in zip(records, expected):
            query = record["query"]
            if (query["w"], query["g"]) != (w, g) or not record["agree"]:
                return f"record {record} out of order or disagreeing"
            if {Fraction(record["closed"]), Fraction(record["oracle"])} | library != {ref}:
                return f"w={w} g={g}: {record['closed']}/{record['oracle']} != reference {ref}"
        return None

    return _cli_op(" ".join(argv), argv, check, space)


def _series_cli_op(identity: str, g: int, order: int, fmt: str) -> Op:
    argv = ["series", "--identity", identity, "--genus", str(g), "--order", str(order)]
    if fmt == "json":
        argv += ["--format", "json"]
    expected = [(w, reference.series_coefficient(identity, g, w)) for w in range(1, order + 1)]

    def check(observed) -> str | None:
        code, stdout = observed
        if code != 0:
            return f"exit code {code}"
        if fmt == "json":
            payload = json.loads(stdout)
            if payload["equal"] is not True:
                return "identity reported unequal"
            rows = [(c["w"], c["lhs"], c["rhs"]) for c in payload["coefficients"]]
        else:
            lines = stdout.splitlines()
            if lines[-1] != "verdict: PASS":
                return f"verdict line {lines[-1]!r}"
            rows = [tuple(line.split()) for line in lines[2:-1]]
        got = [(int(w), Fraction(lhs), Fraction(rhs)) for w, lhs, rhs in rows]
        if got != [(w, c, c) for w, c in expected]:
            return "series coefficients differ from the reference"
        return None

    return _cli_op(" ".join(argv), argv, check)


def _selfcheck_op() -> Op:
    n_checks = len(selfcheck.ALL_CHECKS)

    def check(observed) -> str | None:
        code, stdout = observed
        lines = stdout.splitlines()
        passed = sum(line.startswith("ok ") for line in lines)
        if code != 0 or lines[-1] != f"{n_checks}/{n_checks} checks passed" or passed != n_checks:
            return f"selfcheck exit {code}: {lines[-1] if lines else ''}"
        return None

    return _cli_op("selfcheck", ["selfcheck"], check)


def _cli_op(label: str, argv: list[str], check, slice_space: int = 0) -> Op:
    return Op(
        label=label,
        run=lambda: run_cli(argv),
        check=check,
        slice_space=slice_space,
        run_in_process=lambda: run_cli_in_process(argv),
    )


def cli_mix(rng: random.Random, size: str) -> list[Op]:
    """A fixed mix of CLI runs; the seed picks degrees, genera and order.

    ``--route both`` has no a != 1 query with w >= 1 that qminv supports
    (the closed form is proven only where every divisor of w is 0 or a
    mod r, and m = 1 never is), so the a != 1 queries take the w = 0
    constant-map path.
    """
    n_invariant, w_hi, sweep_w, order, repeats = (13, 400, 100, 200, 2) if size == "full" else (1, 30, 5, 10, 1)
    ops = []
    for fmt in ("table", "json"):
        for _ in range(n_invariant):
            w = rng.randrange(1, w_hi + 1)
            ops.append(_invariant_op(2, w % 2, 1, w, rng.randrange(2, 6), fmt))
    ops.append(_invariant_op(3, 0, 2, 0, rng.randrange(2, 6), "table"))
    ops.append(_invariant_op(5, 0, 3, 0, rng.randrange(2, 6), "json"))
    for _ in range(repeats):
        g_lo = rng.randrange(2, 4)
        ops += [_sweep_op(d, sweep_w, g_lo, g_lo + 2) for d in (0, 1)]
        ops.append(_series_cli_op("A", rng.randrange(2, 6), order, "table"))
        ops.append(_series_cli_op("B", rng.randrange(2, 6), order, "json"))
        ops += [_selfcheck_op(), _selfcheck_op()]
    rng.shuffle(ops)
    return ops


BUILDERS = {"oracle_grid": oracle_grid, "rank_deep": rank_deep, "series": series, "cli": cli_mix}


def build(name: str, seed: int, size: str = "full") -> list[Op]:
    return BUILDERS[name](random.Random(seed), size)
