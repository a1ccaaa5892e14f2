"""Divisor machinery, the elliptic pairing, and degree bookkeeping."""

import math
import random
from fractions import Fraction

import pytest

from qminv.arith import (
    BaseDegrees,
    ChernClass,
    InvariantQuery,
    canonical_u_choice,
    chi_pairing_elliptic,
    divisors,
    is_prime,
    sigma_minus_one,
    solve_base_degrees,
    torsion_order,
)

F = Fraction


class TestDivisors:
    @pytest.mark.parametrize(
        "w, expected",
        [(1, [1]), (6, [1, 2, 3, 6]), (9, [1, 3, 9]), (12, [1, 2, 3, 4, 6, 12])],
    )
    def test_examples(self, w, expected):
        assert divisors(w) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="divisors requires w >= 1, got 0"):
            divisors(0)

    def test_increasing_and_complete(self):
        for w in range(1, 200):
            ds = divisors(w)
            assert ds == sorted(ds)
            assert ds == [m for m in range(1, w + 1) if w % m == 0]

    def test_at_the_size_bound(self):
        # 10**12 = 2**12 * 5**12 is the largest degree a query takes
        assert divisors(10**12) == sorted(2**i * 5**j for i in range(13) for j in range(13))


class TestSigmaMinusOne:
    @pytest.mark.parametrize("w, expected", [(1, F(1)), (6, F(2)), (4, F(7, 4))])
    def test_examples(self, w, expected):
        assert sigma_minus_one(w) == expected

    def test_times_w_is_divisor_total(self):
        # sigma_{-1}(w) * w equals the plain sum of divisors; the right side
        # is accumulated in integer arithmetic without the divisors helper.
        for w in range(1, 10001):
            total = 0
            d = 1
            while d * d <= w:
                if w % d == 0:
                    total += d
                    if d != w // d:
                        total += w // d
                d += 1
            assert sigma_minus_one(w) * w == total

    def test_small_range_full_brute_force(self):
        for w in range(1, 1501):
            assert sigma_minus_one(w) * w == sum(
                m for m in range(1, w + 1) if w % m == 0
            )

    @pytest.mark.parametrize("a, b", [(4, 9), (3, 5), (8, 27), (5, 7), (9, 16), (11, 25)])
    def test_multiplicative_on_coprime_arguments(self, a, b):
        assert math.gcd(a, b) == 1
        assert sigma_minus_one(a * b) == sigma_minus_one(a) * sigma_minus_one(b)


class TestChiPairing:
    def test_rank_two_unit(self):
        assert chi_pairing_elliptic(ChernClass(2, 1), ChernClass(1, 0)) == 1

    def test_zero_class(self):
        assert chi_pairing_elliptic(ChernClass(7, 3), ChernClass(0, 0)) == 0

    def test_rank_three_unit(self):
        assert chi_pairing_elliptic(ChernClass(3, 1), ChernClass(1, 0)) == 1

    def test_canonical_choice_pairs_to_one(self):
        for r in range(2, 13):
            for a in range(1, r):
                if math.gcd(r, a) != 1:
                    continue
                u = canonical_u_choice(r, a)
                assert type(u) is ChernClass
                assert chi_pairing_elliptic(ChernClass(r, a), u) == 1

    def test_canonical_choice_needs_coprimality(self):
        with pytest.raises(ValueError, match=r"no unit normalisation: gcd\(6,3\) != 1"):
            canonical_u_choice(6, 3)


class TestSolveBaseDegrees:
    def test_rank_two_standard(self):
        bd = solve_base_degrees(2, 1, 3, ChernClass(1, 0))
        # == compares a namedtuple as a plain tuple, so the class is asserted apart
        assert type(bd) is BaseDegrees
        assert bd == BaseDegrees(3, 0)

    def test_degree_zero(self):
        assert solve_base_degrees(2, 1, 0, ChernClass(1, 0)) == BaseDegrees(0, 0)

    def test_rank_three(self):
        assert solve_base_degrees(3, 1, 5, ChernClass(1, 0)) == BaseDegrees(5, 0)

    @pytest.mark.parametrize(
        "u, chi", [((0, 0), 0), ((0, 1), 2), ((1, 1), 3)], ids=["singular", "non-integer", "det-minus-three"]
    )
    def test_pairing_other_than_one_raises(self, u, chi):
        # the determinant is -chi: at w = 3 these are a singular system, one
        # with no integer solution and an integral one with |det| > 1
        with pytest.raises(ValueError, match=rf"chi\(\(2,1\), u\) = 1; u=\({u[0]},{u[1]}\) gives {chi}$"):
            solve_base_degrees(2, 1, 3, ChernClass(*u))

    def test_nonzero_ch2(self):
        assert solve_base_degrees(3, 2, 7, canonical_u_choice(3, 2)) == BaseDegrees(14, 7)

    def test_resubstitution_on_random_valid_queries(self):
        rng = random.Random(2024)
        for _ in range(300):
            r = rng.randrange(2, 12)
            choices = [a for a in range(1, r) if math.gcd(r, a) == 1]
            a = rng.choice(choices)
            base = canonical_u_choice(r, a)
            s = rng.randrange(-4, 5)
            u = ChernClass(base.rank + r * s, base.deg - a * s)
            assert chi_pairing_elliptic(ChernClass(r, a), u) == 1
            w = rng.randrange(0, 500)
            bd = solve_base_degrees(r, a, w, u)
            assert type(bd) is BaseDegrees
            assert bd.c1 * u.deg + bd.ch2 * u.rank == 0
            assert bd.c1 * a - bd.ch2 * r == w


class TestTorsionOrder:
    @pytest.mark.parametrize("n, expected", [(1, 1), (3, 9), (10, 100)])
    def test_examples(self, n, expected):
        assert torsion_order(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="torsion_order requires n >= 1, got 0"):
            torsion_order(0)


class TestIsPrime:
    def test_small_table(self):
        # sieve of Eratosthenes below 150: odd squares and products of
        # odd primes (25, 35, 49, ...) must not pass as prime
        limit = 150
        sieve = [False, False] + [True] * (limit - 2)
        for p in range(2, limit):
            if sieve[p]:
                for multiple in range(p * p, limit, p):
                    sieve[multiple] = False
        for n in range(limit):
            assert is_prime(n) == sieve[n], n

    @pytest.mark.parametrize(
        "n, expected",
        [(999999999989, True), (999983**2, False), (999979 * 999983, False)],
        ids=["largest-prime-rank", "square-of-a-prime", "product-of-close-primes"],
    )
    def test_near_the_size_bound(self, n, expected):
        # trial division runs to the square root: the largest prime rank a
        # query takes, and composites whose least factor is just below 10**6
        assert is_prime(n) is expected


class TestInvariantQuery:
    def test_default_u_choice_is_canonical(self):
        # the keyword is input validation: None or the canonical class, which
        # is not stored; the base degrees are solved with that class
        for r, a in ((3, 2), (5, 2), (5, 3), (5, 4), (7, 3), (9, 4)):
            u = canonical_u_choice(r, a)
            q = InvariantQuery(r=r, d=1, a=a, w=4, g=2)
            assert InvariantQuery(r=r, d=1, a=a, w=4, g=2, u_choice=u) == q
            assert solve_base_degrees(r, a, 4, u) == BaseDegrees(4 * u.rank, -4 * u.deg)
            # the shifted class u - (r, -a) pairs to 1 as well, but is refused
            shifted = ChernClass(u.rank - r, u.deg + a)
            message = (
                rf"^u_choice must be None or canonical_u_choice\({r}, {a}\) = "
                rf"ChernClass\(rank={u.rank}, deg={u.deg}\), got ChernClass\(rank={shifted.rank}, deg={shifted.deg}\)$"
            )
            with pytest.raises(ValueError, match=message):
                InvariantQuery(r=r, d=1, a=a, w=4, g=2, u_choice=shifted)

    def test_non_coprime_without_u_choice_fails_in_the_default(self):
        # with no u_choice, the constructor's own gcd test refuses the pair,
        # in canonical_u_choice's words
        for r, a in ((4, 2), (2, 0), (6, 3)):
            with pytest.raises(ValueError, match=rf"^no unit normalisation: gcd\({r},{a}\) != 1$"):
                InvariantQuery(r=r, d=1, a=a, w=1, g=2)

    def test_rank_and_degree_bound(self):
        # divisors(w) and is_prime(r) trial-divide up to the square root
        assert InvariantQuery(r=10**12, d=0, a=1, w=0, g=2).r == 10**12
        assert InvariantQuery(r=2, d=1, a=1, w=10**12, g=2).w == 10**12
        with pytest.raises(ValueError, match=r"^rank must be <= 1000000000000, got 1000000000001$"):
            InvariantQuery(r=10**12 + 1, d=0, a=1, w=0, g=2)
        with pytest.raises(ValueError, match=r"^quasimap degree must be <= 1000000000000, got 1000000000001$"):
            InvariantQuery(r=2, d=1, a=1, w=10**12 + 1, g=2)

    def test_rejects_low_genus(self):
        with pytest.raises(ValueError, match="genus"):
            InvariantQuery(r=2, d=1, a=1, w=3, g=1)

    def test_rejects_a_out_of_range(self):
        for a in (2, 3):  # a = r itself is out of range, not only a > r
            with pytest.raises(ValueError, match="lie in"):
                InvariantQuery(r=2, d=1, a=a, w=3, g=2)

    @pytest.mark.parametrize("field", ["r", "d", "a", "w", "g"])
    @pytest.mark.parametrize("value", [2.5, 3.0, F(5, 2), F(3)], ids=["float", "integral-float", "fraction", "integral-fraction"])
    def test_rejects_non_integer_fields(self, field, value):
        # 2.5 or 5/2 would pass every value check (g = 2.5 is >= 2), so the
        # type is checked first
        fields = dict(r=5, d=3, a=2, w=1, g=2)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            InvariantQuery(**{**fields, field: value})
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            InvariantQuery(**fields)._replace(**{field: value})

    def test_integer_like_fields_are_stored_as_int(self):
        class Three:
            def __index__(self):
                return 3

        query = InvariantQuery(r=Three(), d=True, a=True, w=Three(), g=Three())
        assert query == (3, 1, 1, 3, 3)
        assert [type(field) for field in query] == [int] * 5

    def test_base_degrees_shortcut(self):
        # the canonical class at a = 1 is (1, 0), so (c1, ch2) = (w, 0)
        assert solve_base_degrees(2, 1, 6, canonical_u_choice(2, 1)) == BaseDegrees(6, 0)


class TestRecordTypes:
    """ChernClass, BaseDegrees and InvariantQuery are namedtuples."""

    def test_keyword_construction(self):
        assert ChernClass(rank=2, deg=1).rank == 2
        assert BaseDegrees(c1=3, ch2=0).ch2 == 0
        q = InvariantQuery(r=3, d=1, a=2, w=4, g=2)
        assert (q.r, q.d, q.a, q.w, q.g) == (3, 1, 2, 4, 2)
        assert InvariantQuery._fields == ("r", "d", "a", "w", "g")

    @pytest.mark.parametrize(
        "record, field",
        [(ChernClass(1, 0), "rank"), (BaseDegrees(3, 0), "c1"), (InvariantQuery(2, 1, 1, 3, 2), "w")],
        ids=["ChernClass", "BaseDegrees", "InvariantQuery"],
    )
    def test_fields_are_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
        with pytest.raises(AttributeError):
            record.extra = 5

    def test_replace_and_make_validate(self):
        query = InvariantQuery(r=2, d=1, a=1, w=3, g=2)
        with pytest.raises(ValueError, match="rank must be >= 2, got 1"):
            query._replace(r=1)
        with pytest.raises(ValueError, match="rank must be >= 2, got 1"):
            InvariantQuery._make((1, 0, 1, 3, 2))
        # u_choice is a keyword of the constructor, not a field
        with pytest.raises(ValueError, match=r"^Got unexpected field names: \['u_choice'\]$"):
            query._replace(u_choice=ChernClass(1, 0))
        moved = query._replace(w=5)
        assert type(moved) is InvariantQuery
        assert moved == InvariantQuery(r=2, d=1, a=1, w=5, g=2)
        assert InvariantQuery._make((2, 1, 1, 3, 2)) == query

    def test_replace_and_make_check_the_size_bound(self):
        query = InvariantQuery(r=2, d=1, a=1, w=3, g=2)
        with pytest.raises(ValueError, match="quasimap degree must be <= 1000000000000"):
            query._replace(w=10**12 + 1)
        with pytest.raises(ValueError, match="rank must be <= 1000000000000"):
            InvariantQuery._make((10**12 + 1, 0, 1, 0, 2))

    def test_repr(self):
        assert repr(InvariantQuery(r=2, d=1, a=1, w=3, g=2)) == "InvariantQuery(r=2, d=1, a=1, w=3, g=2)"

    def test_equal_to_a_plain_tuple(self):
        # documented API: a record is the tuple of its fields
        assert ChernClass(1, 0) == (1, 0)
        assert hash(ChernClass(1, 0)) == hash((1, 0))
        rank, deg = ChernClass(1, 0)
        assert (rank, deg) == (1, 0)
