"""Invariant evaluation on both routes and the series identities."""

from fractions import Fraction
from math import gcd

import pytest

import qminv.invariants as invariants
from qminv.arith import (
    InvariantQuery,
    divisors,
    factorise,
)
from qminv.exactalg import _ZERO, series_log_product, sigma_sieve
from qminv.invariants import (
    ROUTE_ORACLE,
    InvariantResult,
    SeriesIdentity,
    UnsupportedQueryError,
    degree_congruent,
    qm_degree_zero,
    qm_elliptic,
    qm_elliptic_closed,
    qm_elliptic_oracle,
    qm_moduli,
    series_identity_even,
    series_identity_odd,
)
from qminv.quotloc import normal_bundle_inverse_expansion, wall_components

F = Fraction


def q2(d, w, g=2):
    return InvariantQuery(r=2, d=d, a=1, w=w, g=g)


class TestClosedForm:
    def test_parity_zero_branch(self):
        result = qm_elliptic_closed(q2(0, 3))
        assert result.value_t == 0
        assert result.breakdown == ()

    def test_degree_one(self):
        assert qm_elliptic_closed(q2(1, 1)).value_t == F(2)

    def test_breakdown_sums_to_value(self):
        result = qm_elliptic_closed(q2(0, 12))
        assert sum(c for _, c in result.breakdown) == result.value_t

    def test_breakdown_lists_the_divisor_scan(self):
        # the breakdown's divisor set is built from the factorisation of w, in
        # increasing order; the oracle's scan is the independent reference
        for w in range(1, 2001):
            result = qm_elliptic_closed(q2(w % 2, w))
            assert [m for m, _ in result.breakdown] == divisors(w), w
            assert all(c == F(2, m) for m, c in result.breakdown)


class TestOracle:
    def test_rank_two_degree_three_with_breakdown(self):
        result = qm_elliptic_oracle(q2(1, 3))
        assert type(result) is InvariantResult
        assert result.value_t == F(8, 3)
        assert result.breakdown == ((1, F(2)), (3, F(2, 3)))
        assert result.route == ROUTE_ORACLE
        assert not result.conjectural

    def test_degree_one_genus_five(self):
        assert qm_elliptic_oracle(q2(1, 1, g=5)).value_t == F(8)


def _assert_one_denominator_sum(result):
    # the value is the breakdown's Fraction sum, reduced, and every entry
    # stays a Fraction
    assert all(type(c) is Fraction for _, c in result.breakdown)
    assert type(result.value_t) is Fraction
    assert result.value_t == sum((c for _, c in result.breakdown), Fraction(0))
    assert gcd(result.value_t.numerator, result.value_t.denominator) == 1


class TestOneDenominatorSum:
    """The oracle sums its breakdown over one common denominator."""

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_rank_two_grid(self, g):
        for w in range(1, 61):
            _assert_one_denominator_sum(qm_elliptic_oracle(q2(w % 2, w, g)))

    @pytest.mark.parametrize("r, a", [(3, 2), (5, 2), (5, 3), (5, 4)])
    def test_permissive_prime_ranks_off_a_one(self, r, a):
        values = []
        for d in range(r):
            for w in range(1, 31):
                result = qm_elliptic_oracle(InvariantQuery(r, d, a, w, 3), strict=False)
                _assert_one_denominator_sum(result)
                values.append(result.value_t)
        # some value has a denominator the sum had to reduce to
        assert any(v.denominator > 1 for v in values)

    @pytest.mark.parametrize("r, a", [(4, 1), (4, 3), (6, 1), (6, 5)])
    def test_permissive_composite_ranks(self, r, a):
        unsupported = 0
        for d in range(r):
            for w in range(1, 25):
                query = InvariantQuery(r, d, a, w, 2)
                unsupported += sum(not c.supported for c in wall_components(query))
                _assert_one_denominator_sum(qm_elliptic_oracle(query, strict=False))
        assert unsupported > 0

    def test_off_the_congruence_is_the_integer_zero(self):
        result = qm_elliptic_oracle(q2(0, 5))
        assert result.breakdown == ()
        assert (result.value_t.numerator, result.value_t.denominator) == (0, 1)
        _assert_one_denominator_sum(result)

    def test_fractions_built_per_query(self, monkeypatch):
        # at most three Fractions per component (the pole, its negation and
        # the contribution) and one for the sum; a Fraction sum adds one more
        # per component
        query = q2(0, 12, g=3)
        n = len(wall_components(query))
        counter = [0]
        new = Fraction.__dict__["__new__"].__func__

        def counting_new(cls, *args, **kwargs):
            counter[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        result = qm_elliptic_oracle(query)
        monkeypatch.undo()
        assert result.value_t == F(28, 3)
        assert n == 6
        assert 0 < counter[0] <= 3 * n + 1


class TestInvariantResultRecord:
    def test_keyword_construction_is_read_only(self):
        result = InvariantResult(
            value_t=F(2), breakdown=((1, F(2)),), route=ROUTE_ORACLE, conjectural=False
        )
        assert result == qm_elliptic_oracle(q2(1, 1))
        with pytest.raises(AttributeError):
            result.value_t = F(3)


class TestModuliSide:
    def test_degree_one(self):
        assert qm_moduli(q2(1, 1)).value_t == F(32)

    def test_even_branch(self):
        assert qm_moduli(q2(0, 2)).value_t == F(48)

    def test_zero_branch(self):
        assert qm_moduli(q2(1, 2)).value_t == 0

    def test_correspondence_factor(self):
        for w in (1, 2, 5, 6):
            for g in (2, 3, 4):
                query = q2(w % 2, w, g)
                elliptic = qm_elliptic_oracle(query)
                moduli = qm_moduli(query, route=ROUTE_ORACLE)
                assert moduli.value_t == F(2) ** (2 * g) * elliptic.value_t

    @pytest.mark.parametrize("route", ["closed_form", ROUTE_ORACLE])
    def test_integer_factor_keeps_fractions(self, route):
        # r^(2g) is an int; the scaled value and entries stay Fractions, equal
        # to a Fraction factor's
        for query in (q2(1, 6, 3), InvariantQuery(3, 0, 1, 9, 2), InvariantQuery(5, 2, 2, 4, 4)):
            base = qm_elliptic(query, route=route, strict=False)
            moduli = qm_moduli(query, route=route, strict=False)
            factor = Fraction(query.r) ** (2 * query.g)
            assert type(moduli.value_t) is Fraction
            assert moduli.value_t == base.value_t * factor
            assert all(type(c) is Fraction for _, c in moduli.breakdown)
            assert moduli.breakdown == tuple((m, c * factor) for m, c in base.breakdown)

    def test_needs_prime_rank(self):
        query = InvariantQuery(r=9, d=1, a=1, w=1, g=2)
        with pytest.raises(UnsupportedQueryError, match="the rank 9 is not prime"):
            qm_moduli(query)

    def test_one_dispatch_reads_the_route_functions_when_called(self, monkeypatch):
        # qm_elliptic, and qm_moduli through it, look the route function up
        # at each call, so a rebinding (a tracer's, a test's) is seen
        fake = InvariantResult(F(7), ((1, F(7)),), ROUTE_ORACLE, False)
        monkeypatch.setattr(invariants, "qm_elliptic_oracle", lambda query, strict=True: fake)
        assert qm_elliptic(q2(1, 3), route=ROUTE_ORACLE) is fake
        assert qm_moduli(q2(1, 3), route=ROUTE_ORACLE) == InvariantResult(F(112), ((1, F(112)),), ROUTE_ORACLE, False)
        assert qm_elliptic(q2(1, 3)) == qm_elliptic_closed(q2(1, 3))


class TestConstantMap:
    @pytest.mark.parametrize(
        "r, g, expected", [(2, 2, 4), (3, 2, 9), (2, 3, 16), (5, 4, 5**6)]
    )
    def test_values(self, r, g, expected):
        assert qm_degree_zero(InvariantQuery(r, 0, 1, 0, g)).value_t == expected

    def test_rejects_composite_rank(self):
        # off the congruence (d = 1) too: the rank rule comes first
        for d in (0, 1):
            with pytest.raises(UnsupportedQueryError, match="constant-map count needs a prime rank, got 4"):
                qm_degree_zero(InvariantQuery(4, d, 1, 0, 2))

    def test_degree_zero_routing(self):
        assert qm_degree_zero(q2(0, 0)).value_t == F(4)
        # base degree 1 is incompatible with a degree-zero quasisection
        assert qm_degree_zero(q2(1, 0)).value_t == 0


class TestGenusBehaviour:
    def test_linear_in_two_g_minus_two(self):
        for w in (1, 3, 4, 12):
            base = qm_elliptic_closed(q2(w % 2, w, 2)).value_t
            for g in range(3, 7):
                assert qm_elliptic_closed(q2(w % 2, w, g)).value_t == (g - 1) * base

    def test_congruence_vanishing_both_routes(self):
        for w in range(1, 30):
            query = q2((w + 1) % 2, w)
            assert not degree_congruent(query)
            assert qm_elliptic_closed(query).value_t == 0
            assert qm_elliptic_oracle(query).value_t == 0


class TestSeriesIdentities:
    def test_odd_identity_genus_three_q3(self):
        check = series_identity_odd(3, 3)
        assert check.equal
        assert check.lhs.coefficient(3) == F(1024, 3)

    def test_identities_across_genera(self):
        for g in range(2, 6):
            assert series_identity_odd(g, 25).equal
            assert series_identity_even(g, 25).equal

    def test_genus_rule_is_the_query_s(self):
        # both identities refuse a genus in InvariantQuery's own words, even
        # at order 0, where the left side holds no term to build a query for
        for g in (1, 0, -3):
            with pytest.raises(ValueError) as from_query:
                InvariantQuery(r=2, d=1, a=1, w=1, g=g)
            for identity in (series_identity_odd, series_identity_even):
                with pytest.raises(ValueError) as from_series:
                    identity(g, 0)
                assert str(from_series.value) == str(from_query.value) == f"genus must be >= 2, got {g}"

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [0, 1])
    def test_left_side_is_qm_moduli(self, g, d):
        # the series applies the r^(2g) factor itself; pin it to qm_moduli
        order = 60
        lhs = (series_identity_odd if d else series_identity_even)(g, order).lhs
        for w in range(order + 1):
            if w >= 1 and w % 2 == d:
                assert lhs.coefficient(w) == qm_moduli(InvariantQuery(2, d, 1, w, g)).value_t
            else:
                assert lhs.coefficient(w) == 0

    def test_series_can_disagree(self, monkeypatch):
        # the left side reads the closed form's factorisation, the right side
        # the sigma sieve: a factorisation that loses the largest prime of w
        # must fail both identities
        monkeypatch.setattr(invariants, "factorise", lambda w: factorise(w)[:-1])
        assert not series_identity_odd(2, 9).equal
        assert not series_identity_even(2, 10).equal

    def test_right_side_of_wrong_parity_disagrees(self, monkeypatch):
        # a right side that reads sigma_1 at the other parity: the sieve
        # shifted by one puts sigma_1(w - 1) at w
        def shifted(order):
            return [0] + sigma_sieve(order)[:-1]

        monkeypatch.setattr(invariants, "sigma_sieve", shifted)
        assert not series_identity_odd(2, 9).equal
        assert not series_identity_even(2, 10).equal

    def test_right_side_reads_every_eta_log_coefficient(self, monkeypatch):
        # perturb the sieve at the top coefficient, which has the identity's parity
        def perturbed(order):
            sigma = sigma_sieve(order)
            sigma[order] += 1
            return sigma

        monkeypatch.setattr(invariants, "sigma_sieve", perturbed)
        assert not series_identity_odd(2, 9).equal
        assert not series_identity_even(2, 10).equal

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [0, 1])
    def test_right_side_is_the_negated_variable_form(self, g, d):
        # the right side reads one parity of the sieve; pin it to
        # (2-2g) * 2^(2g-1) * (U(q) -+ U(-q)), built through q -> -q
        identity = series_identity_odd if d else series_identity_even
        prefactor = (2 - 2 * g) * 2 ** (2 * g - 1)
        for order in range(1, 61):
            u = series_log_product(order)
            flipped = u.negate_variable()
            check = identity(g, order)
            # == compares a namedtuple as a plain tuple, so the class is asserted apart
            assert type(check) is SeriesIdentity
            assert check.rhs == ((u - flipped) if d else (u + flipped)).scale(prefactor)
            assert all(type(c) is Fraction for c in check.rhs.coeffs)
            # both sides hold the shared zero at the other parity
            for side in (check.lhs, check.rhs):
                assert all(side.coeffs[w] is _ZERO for w in range(1 - d, order + 1, 2))

    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("order", [1, 2, 59, 60])
    def test_fractions_built_per_identity(self, monkeypatch, d, order):
        # one Fraction per coefficient of d's parity on each side: no
        # intermediate series, no product by the moduli factor
        counter = [0]
        new = Fraction.__dict__["__new__"].__func__

        def counting_new(cls, *args, **kwargs):
            counter[0] += 1
            return new(cls, *args, **kwargs)

        identity = series_identity_odd if d else series_identity_even
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        check = identity(3, order)
        monkeypatch.undo()
        assert check.equal
        assert counter[0] <= order + 2


class TestOneDivisorScan:
    """The closed form's gate, value and breakdown read one factorisation of w, and no scan."""

    @pytest.fixture
    def scans(self, monkeypatch):
        seen = []

        def counted(w):
            seen.append(w)
            return factorise(w)

        monkeypatch.setattr(invariants, "factorise", counted)
        return seen

    def test_closed_form_scans_once(self, scans):
        result = qm_elliptic_closed(q2(1, 9))
        assert scans == [9]
        # the divisor scan is the oracle's alone: the closed form cannot look it up
        assert not hasattr(invariants, "divisors")
        # == compares a namedtuple as a plain tuple, so the class is asserted apart
        assert type(result) is InvariantResult
        assert result == InvariantResult(F(26, 9), ((1, F(2)), (3, F(2, 3)), (9, F(2, 9))), "closed_form", False)

    @pytest.mark.parametrize("d", [0, 1])
    def test_series_scans_once_per_coefficient(self, scans, d):
        (series_identity_odd if d else series_identity_even)(3, 20)
        assert scans == list(range(2 - d, 21, 2))

    def test_composite_rank_is_refused_before_any_scan(self, scans, monkeypatch):
        enumerations = []
        monkeypatch.setattr(invariants, "wall_components", lambda q: enumerations.append(q) or [])
        query = InvariantQuery(r=4, d=1, a=1, w=5, g=2)
        reason = "no proven closed form for r=4, w=5: the rank 4 is not prime"
        with pytest.raises(UnsupportedQueryError, match=f"^{reason}$"):
            qm_elliptic_closed(query)
        assert invariants.unproven_reason(query) == reason
        with pytest.raises(UnsupportedQueryError, match=f"^{reason}$"):
            qm_elliptic_oracle(query)
        assert scans == []
        assert enumerations == []


class TestConjecturalFormula:
    """The all-rank moduli-side formula is ``qm_moduli(q, strict=False)``."""

    def test_proven_case_cross_checked(self):
        query = InvariantQuery(r=3, d=1, a=1, w=1, g=2)
        result = qm_moduli(query, strict=False)
        assert result.value_t == F(162)
        assert not result.conjectural
        assert qm_moduli(query, route=ROUTE_ORACLE, strict=False).value_t == result.value_t

    def test_congruence_zero(self):
        result = qm_moduli(InvariantQuery(r=3, d=2, a=1, w=1, g=2), strict=False)
        assert result.value_t == 0

    def test_matches_moduli_closed_form_when_proven(self):
        for w in (1, 2, 3, 4, 6, 9):
            query = q2(w % 2, w, 3)
            assert qm_moduli(query, strict=False) == qm_moduli(query)
            assert not qm_moduli(query, strict=False).conjectural


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: InvariantQuery(r=1, d=0, a=0, w=1, g=2), ValueError, "rank must be >= 2"),
            (lambda: qm_moduli(q2(1, 3), route="x"), ValueError, "unknown route 'x'"),
            (lambda: qm_degree_zero(q2(1, 1)), ValueError, "expects w = 0"),
            (
                lambda: qm_elliptic_closed(q2(0, 0)),
                ValueError,
                "^a positive-degree route needs w >= 1; w = 0 is the elliptic-side constant-map count$",
            ),
            (lambda: qm_elliptic_oracle(q2(0, 0)), ValueError, "needs w >= 1"),
            # the proven-set rule refuses w = 0 as the routes do, whatever the rank
            (lambda: invariants.unproven_reason(q2(0, 0)), ValueError, "^a positive-degree route needs w >= 1"),
            (
                lambda: invariants.unproven_reason(InvariantQuery(r=4, d=0, a=1, w=0, g=2)),
                ValueError,
                "^a positive-degree route needs w >= 1",
            ),
            (lambda: normal_bundle_inverse_expansion(0, 1), ValueError, "divisor must be >= 1"),
            # order 1 of the even identity has no moduli-side term to reject g
            (lambda: series_identity_even(1, 1), ValueError, "genus must be >= 2, got 1"),
            (lambda: qm_elliptic(q2(1, 3), route="x"), ValueError, "^unknown route 'x'$"),
        ],
    )
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
