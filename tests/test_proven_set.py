"""One proven/unproven decision, and one strict switch, on every route."""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest

import qminv.cli as cli
from qminv.arith import InvariantQuery, divisors
from qminv.exactalg import series_log_product
from qminv.invariants import (
    ROUTE_CLOSED,
    ROUTE_ORACLE,
    UnsupportedQueryError,
    degree_congruent,
    qm_elliptic,
    qm_elliptic_closed,
    qm_elliptic_oracle,
    qm_moduli,
    unproven_reason,
)
from qminv.quotloc import wall_components

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example, settings = hypothesis.given, hypothesis.example, hypothesis.settings
assume = hypothesis.assume


@st.composite
def queries(draw):
    r = draw(st.integers(2, 7))
    a = draw(st.sampled_from([a for a in range(1, r) if math.gcd(r, a) == 1]))
    return InvariantQuery(
        r=r,
        d=draw(st.integers(1, 200)),
        a=a,
        w=draw(st.integers(1, 200)),
        g=draw(st.integers(2, 5)),
    )


def _outcome(route, query, **kwargs):
    """The error message a route raises, or its (value_t, conjectural)."""
    try:
        result = route(query, **kwargs)
    except UnsupportedQueryError as exc:
        return str(exc)
    return result.value_t, result.conjectural


COMPOSITE = InvariantQuery(r=4, d=1, a=1, w=5, g=2)
OFF_CONGRUENCE = InvariantQuery(r=3, d=1, a=1, w=5, g=2)

property_settings = settings(derandomize=True, deadline=None, max_examples=150)


@property_settings
@given(queries(), st.booleans())
@example(COMPOSITE, True)
@example(OFF_CONGRUENCE, True)
@example(COMPOSITE, False)
@example(OFF_CONGRUENCE, False)
@example(InvariantQuery(r=5, d=2, a=2, w=4, g=2), False)
def test_strict_oracle_raises_iff_closed_form_raises(query, strict):
    """Both routes take one switch: the same error, or equal value and flag."""
    closed = _outcome(qm_elliptic_closed, query, strict=strict)
    assert _outcome(qm_elliptic_oracle, query, strict=strict) == closed
    reason = unproven_reason(query)
    if strict and reason is not None:
        assert closed == reason
    else:
        assert closed[1] == (reason is not None)


@property_settings
@given(queries())
@example(InvariantQuery(r=3, d=0, a=1, w=81, g=3))
@example(InvariantQuery(r=3, d=1, a=1, w=133, g=2))
@example(InvariantQuery(r=5, d=0, a=1, w=125, g=2))
@example(InvariantQuery(r=7, d=0, a=1, w=49, g=4))
@example(InvariantQuery(r=7, d=1, a=1, w=29, g=5))
def test_proven_queries_agree_exactly(query):
    if unproven_reason(query) is not None:
        return
    assert all(c.supported for c in wall_components(query))
    closed, oracle = qm_elliptic_closed(query), qm_elliptic_oracle(query)
    assert oracle.value_t == closed.value_t
    assert oracle.breakdown == closed.breakdown
    assert sum((c for _, c in oracle.breakdown), Fraction(0)) == oracle.value_t
    assert not oracle.conjectural and not closed.conjectural


@property_settings
@given(queries(), st.sampled_from([ROUTE_CLOSED, ROUTE_ORACLE]))
@example(COMPOSITE, ROUTE_CLOSED)
@example(COMPOSITE, ROUTE_ORACLE)
def test_conjectural_flag_is_the_shared_decision(query, route):
    result = qm_moduli(query, route=route, strict=False)
    assert result.conjectural == (unproven_reason(query) is not None)


@property_settings
@given(queries(), st.booleans())
@example(COMPOSITE, False)
@example(InvariantQuery(r=2, d=0, a=1, w=720720, g=5), True)
def test_closed_value_is_the_sum_of_its_breakdown(query, strict):
    # the value is one divisor-sum Fraction, the breakdown one per divisor
    assume(not strict or unproven_reason(query) is None)
    result = qm_elliptic_closed(query, strict=strict)
    assert result.value_t == sum((c for _, c in result.breakdown), Fraction(0))


@property_settings
@given(queries())
@example(OFF_CONGRUENCE)
def test_off_congruence_is_zero_on_both_routes(query):
    assume(not degree_congruent(query))
    for route in (qm_elliptic_closed, qm_elliptic_oracle):
        result = route(query, strict=False)
        assert result.value_t == 0 and result.breakdown == ()


@property_settings
@given(queries(), st.sampled_from([ROUTE_CLOSED, ROUTE_ORACLE]), st.booleans())
@example(InvariantQuery(r=3, d=2, a=1, w=5, g=2), ROUTE_CLOSED, False)
@example(InvariantQuery(r=5, d=1, a=2, w=4, g=2), ROUTE_CLOSED, False)
@example(InvariantQuery(r=5, d=2, a=2, w=4, g=2), ROUTE_CLOSED, False)
@example(COMPOSITE, ROUTE_CLOSED, True)
@example(COMPOSITE, ROUTE_ORACLE, False)
def test_moduli_side_is_r_to_the_2g_times_elliptic(query, route, strict):
    try:
        elliptic = qm_elliptic(query, route=route, strict=strict)
    except UnsupportedQueryError as exc:
        with pytest.raises(UnsupportedQueryError, match=str(exc)):
            qm_moduli(query, route=route, strict=strict)
        return
    moduli = qm_moduli(query, route=route, strict=strict)
    factor = query.r ** (2 * query.g)
    assert moduli.value_t == factor * elliptic.value_t
    assert moduli.breakdown == tuple((m, factor * c) for m, c in elliptic.breakdown)
    assert moduli.conjectural == elliptic.conjectural


@property_settings
@given(queries(), st.sampled_from(["elliptic", "moduli"]))
def test_json_values_round_trip_through_fraction(query, side):
    argv = [
        "invariant", "-r", str(query.r), "-d", str(query.d), "-a", str(query.a),
        "-w", str(query.w), "-g", str(query.g), "--side", side,
        "--permissive", "--format", "json",
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    record = json.loads(stdout.getvalue())
    expected = (
        qm_moduli(query, strict=False) if side == "moduli"
        else qm_elliptic_closed(query, strict=False)
    )
    assert Fraction(record["value"]) == expected.value_t
    for route in record["routes"].values():
        assert Fraction(route["value"]) == expected.value_t
        assert [(e["m"], Fraction(e["contribution"])) for e in route["breakdown"]] == list(
            expected.breakdown
        )


def test_divisor_sums_match_sympy():
    sympy = pytest.importorskip("sympy")
    order = 900  # the highest order the benchmark's series workload uses
    eta_log = series_log_product(order)
    for w in range(1, order + 1):
        sigma = int(sympy.divisor_sigma(w))
        assert sum(divisors(w)) == sigma
        assert eta_log.coefficient(w) == Fraction(-sigma, w)


@pytest.mark.parametrize("r", [r for r in range(2, 30) if all(r % p for p in range(2, r))])
def test_prime_rank_gate_reads_the_primes_of_w(r):
    # every divisor of w is 0 or a mod r exactly when a = 1 (1 divides w) and every
    # prime of w is 0 or 1 mod r (the divisors prime to r are products of such
    # primes); sympy factorises w apart from qminv's own divisor scan
    sympy = pytest.importorskip("sympy")
    for w in range(1, 340):
        primes_fit = all(p % r in (0, 1) for p in sympy.primefactors(w))
        for a in range(1, r):
            proven = unproven_reason(InvariantQuery(r=r, d=0, a=a, w=w, g=2)) is None
            assert proven == (a == 1 and primes_fit), (a, w)


class TestUnprovenReason:
    def test_prime_rank_text(self):
        query = InvariantQuery(r=3, d=2, a=1, w=5, g=2)
        assert unproven_reason(query) == (
            "no proven closed form for r=3, w=5: some divisor of w lies outside {0, 1} mod 3"
        )

    def test_a_other_than_one_is_never_proven(self):
        # 1 divides every w, and 1 mod r lies outside {0, a} when a != 1
        for r, a in ((3, 2), (5, 2), (5, 3), (7, 4)):
            for w in range(1, 30):
                assert unproven_reason(InvariantQuery(r=r, d=1, a=a, w=w, g=2)) == (
                    f"no proven closed form for r={r}, w={w}: some divisor of w lies outside {{0, {a}}} mod {r}"
                )

    def test_largest_prime_rank_and_degree(self):
        # is_prime and divisors each make their longest trial division
        query = InvariantQuery(r=999999999989, d=0, a=1, w=10**12, g=2)
        assert unproven_reason(query) == (
            "no proven closed form for r=999999999989, w=1000000000000: "
            "some divisor of w lies outside {0, 1} mod 999999999989"
        )

    def test_permissive_composite_rank_is_conjectural(self):
        result = qm_elliptic_oracle(COMPOSITE, strict=False)
        assert result.value_t == Fraction(12, 5)
        assert result.conjectural

    def test_permissive_off_congruence_is_conjectural_zero(self):
        result = qm_elliptic_oracle(OFF_CONGRUENCE, strict=False)
        assert result.value_t == 0 and result.breakdown == ()
        assert result.conjectural
