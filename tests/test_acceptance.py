"""Acceptance suite.

One test per release criterion.  Every comparison is exact (rational
equality, zero tolerance); the stated runtime budgets are enforced with
a timer.  Each test prints a single pass/fail line, visible under
``pytest -s`` or in the failure report.
"""

import random
import time
from fractions import Fraction

from qminv.arith import ChernClass, InvariantQuery
from qminv.exactalg import EquivCoeff, laurent_residue
from qminv.invariants import (
    qm_degree_zero,
    qm_elliptic_closed,
    qm_elliptic_oracle,
    series_identity_even,
    series_identity_odd,
)
from qminv.quotloc import (
    normal_bundle_inverse_expansion,
    slice_euler_bruteforce,
    wall_components,
)

F = Fraction


def _report(number: int, label: str, failures: list, elapsed=None, budget=None):
    within_budget = budget is None or elapsed < budget
    verdict = "PASS" if not failures and within_budget else "FAIL"
    timing = f" ({elapsed:.3f}s < {budget:.0f}s)" if budget is not None else ""
    print(f"acceptance {number} [{label}]: {verdict}{timing}")
    assert not failures, f"{label}: first failures {failures[:5]}"
    if budget is not None:
        assert within_budget, f"{label} exceeded {budget}s: {elapsed:.3f}s"


def brute_divisor_sum(w: int) -> Fraction:
    return sum((F(1, m) for m in range(1, w + 1) if w % m == 0), F(0))


def test_acceptance_1_odd_series_identity():
    start = time.perf_counter()
    failures = []
    for g in range(2, 6):
        check = series_identity_odd(g, 50)
        if not check.equal:
            failures.append(g)
        for w in range(1, 51):
            expected = (
                (2 * g - 2) * F(2) ** (2 * g) * brute_divisor_sum(w)
                if w % 2
                else F(0)
            )
            if check.lhs.coefficient(w) != expected:
                failures.append((g, w))
    elapsed = time.perf_counter() - start
    _report(1, "odd-degree series identity, g=2..5, order 50", failures, elapsed, 1.0)


def test_acceptance_2_even_series_identity():
    start = time.perf_counter()
    failures = []
    for g in range(2, 6):
        check = series_identity_even(g, 50)
        if not check.equal:
            failures.append(g)
        for w in range(1, 51):
            expected = (
                (2 * g - 2) * F(2) ** (2 * g) * brute_divisor_sum(w)
                if w % 2 == 0
                else F(0)
            )
            if check.lhs.coefficient(w) != expected:
                failures.append((g, w))
    elapsed = time.perf_counter() - start
    _report(2, "even-degree series identity, g=2..5, order 50", failures, elapsed, 1.0)


def test_acceptance_3_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    for d in (0, 1):
        for g in range(2, 6):
            for w in range(1, 201):
                query = InvariantQuery(r=2, d=d, a=1, w=w, g=g)
                closed = qm_elliptic_closed(query)
                oracle = qm_elliptic_oracle(query)
                if closed.value_t != oracle.value_t:
                    failures.append((d, g, w))
                if oracle.value_t != sum(
                    (c for _, c in oracle.breakdown), F(0)
                ):
                    failures.append(("breakdown", d, g, w))
    elapsed = time.perf_counter() - start
    _report(
        3,
        "wall-crossing oracle equals closed form, 2x4x200 grid",
        failures,
        elapsed,
        5.0,
    )


def test_acceptance_4_constant_map_invariant():
    failures = []
    for r in (2, 3, 5):
        for g in (2, 3, 4):
            if qm_degree_zero(InvariantQuery(r, 0, 1, 0, g)).value_t != F(r) ** (2 * g - 2):
                failures.append((r, g))
    _report(4, "constant-map invariant r^(2g-2)", failures)


def test_acceptance_5_slice_euler_characteristics():
    start = time.perf_counter()
    failures = []
    for r in range(2, 7):
        for k in range(1, 13):
            if slice_euler_bruteforce(r, ChernClass(0, k)) != r * k:
                failures.append((r, k))
    elapsed = time.perf_counter() - start
    _report(5, "brute-force slice Euler = r*k, r<=6, k<=12", failures, elapsed, 1.0)


def test_acceptance_6_stabilizer_dimension_ledger():
    failures = []
    for w in range(1, 501):
        query = InvariantQuery(r=2, d=w % 2, a=1, w=w, g=2)
        for c in wall_components(query):
            if c.dim * F(c.slice_euler, c.stab_order) != 1:
                failures.append(("euler", w, c.divisor))
            if c.stab_order != c.dim**2:
                failures.append(("stab", w, c.divisor))
    _report(6, "component ledger dim*e=1 and stab=dim^2, w<=500", failures)


def test_acceptance_7_higher_rank_congruence_case():
    failures = []
    for w in (1, 3, 9, 13, 27, 39):
        for d in (0, 1, 2):
            for g in (2, 3):
                query = InvariantQuery(r=3, d=d, a=1, w=w, g=g)
                expected = (
                    (2 * g - 2) * brute_divisor_sum(w)
                    if (w - d) % 3 == 0
                    else F(0)
                )
                if qm_elliptic_oracle(query).value_t != expected:
                    failures.append((w, d, g))
    _report(7, "rank-3 congruence-case oracle values", failures)


def test_acceptance_8_residue_engine_unit():
    failures = []
    rng = random.Random(314159)
    for _ in range(50):
        m = rng.randrange(1, 50)
        dim = rng.randrange(1, 50)
        residue = laurent_residue(normal_bundle_inverse_expansion(m, dim))
        expected = EquivCoeff(t=F(dim, m), omega=F(-dim, m))
        if residue != expected:
            failures.append((m, dim))
    # the omega pairing against the base curve rebuilds the per-divisor
    # contributions of the oracle sweep
    for w in (1, 3, 8, 36, 100):
        for g in (2, 4):
            query = InvariantQuery(r=2, d=w % 2, a=1, w=w, g=g)
            oracle = qm_elliptic_oracle(query)
            contributions = dict(oracle.breakdown)
            for c in wall_components(query):
                residue = laurent_residue(
                    normal_bundle_inverse_expansion(c.divisor, c.dim)
                )
                paired = -(2 * g - 2) * residue.omega
                value = paired * F(c.slice_euler, c.stab_order)
                if value != contributions[c.divisor]:
                    failures.append(("pairing", w, g, c.divisor))
                if value != F(2 * g - 2, c.divisor):
                    failures.append(("closed", w, g, c.divisor))
    _report(8, "residue engine: symbolic expansion and degree pairing", failures)
