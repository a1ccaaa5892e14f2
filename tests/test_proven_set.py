"""One proven/unproven decision shared by every elliptic-side route."""

import math
from fractions import Fraction

import pytest

from qminv.arith import ChernClass, InvariantQuery, canonical_u_choice
from qminv.invariants import (
    UnsupportedQueryError,
    qm_conjectural,
    qm_elliptic_closed,
    qm_elliptic_oracle,
    unproven_reason,
)
from qminv.quotloc import wall_components

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, example, settings = hypothesis.given, hypothesis.example, hypothesis.settings


@st.composite
def queries(draw):
    r = draw(st.integers(2, 7))
    a = draw(st.sampled_from([a for a in range(1, r) if math.gcd(r, a) == 1]))
    base = canonical_u_choice(r, a)
    s = draw(st.integers(-3, 3))
    return InvariantQuery(
        r=r,
        d=draw(st.integers(1, 200)),
        a=a,
        w=draw(st.integers(1, 200)),
        g=draw(st.integers(2, 5)),
        u_choice=ChernClass(base.rank + r * s, base.deg - a * s),
    )


def _raised(route, query):
    try:
        route(query)
    except UnsupportedQueryError as exc:
        return str(exc)
    return None


COMPOSITE = InvariantQuery(r=4, d=1, a=1, w=5, g=2)
OFF_CONGRUENCE = InvariantQuery(r=3, d=1, a=1, w=5, g=2)

property_settings = settings(derandomize=True, deadline=None, max_examples=150)


@property_settings
@given(queries())
@example(COMPOSITE)
@example(OFF_CONGRUENCE)
def test_strict_oracle_raises_iff_closed_form_raises(query):
    closed = _raised(qm_elliptic_closed, query)
    assert _raised(qm_elliptic_oracle, query) == closed == unproven_reason(query)


@property_settings
@given(queries())
@example(InvariantQuery(r=3, d=0, a=1, w=81, g=3))
@example(InvariantQuery(r=3, d=1, a=1, w=133, g=2, u_choice=ChernClass(7, -2)))
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
@given(queries())
@example(COMPOSITE)
def test_conjectural_flag_is_the_shared_decision(query):
    assert qm_conjectural(query).conjectural == (unproven_reason(query) is not None)


class TestUnprovenReason:
    def test_composite_rank_names_the_rank(self):
        # 1 = 5 = 1 mod 4: the divisors are fine, the rank is not
        assert unproven_reason(COMPOSITE) == (
            "no proven closed form for r=4, w=5: the rank 4 is not prime"
        )

    def test_prime_rank_text(self):
        query = InvariantQuery(r=3, d=2, a=1, w=5, g=2)
        assert unproven_reason(query) == (
            "no proven closed form for r=3, w=5: some divisor of w lies outside {0, 1} mod 3"
        )

    def test_rank_two_always_proven(self):
        for w in range(1, 200):
            assert unproven_reason(InvariantQuery(r=2, d=w % 2, a=1, w=w, g=2)) is None

    def test_permissive_composite_rank_is_conjectural(self):
        result = qm_elliptic_oracle(COMPOSITE, strict=False)
        assert result.value_t == Fraction(12, 5)
        assert result.conjectural

    def test_permissive_off_congruence_is_conjectural_zero(self):
        result = qm_elliptic_oracle(OFF_CONGRUENCE, strict=False)
        assert result.value_t == 0 and result.breakdown == ()
        assert result.conjectural
