"""Series and coefficient-ring arithmetic, and the residue degree read from it."""

import copy
import pickle
from fractions import Fraction

import pytest

from qminv.arith import ChernClass
from qminv.exactalg import _ZERO, EquivCoeff, QSeries, laurent_residue, series_log_product, sigma_sieve
from qminv.quotloc import WallComponent, component_residue_degree, normal_bundle_inverse_expansion

F = Fraction


def brute_divisor_sum(w: int) -> Fraction:
    """Independent oracle: sum 1/m over every m dividing w, by full scan."""
    return sum((F(1, m) for m in range(1, w + 1) if w % m == 0), F(0))


def euler_product(order: int) -> QSeries:
    """prod_{k=1..order} (1 - q^k), truncated, built factor by factor."""
    out = QSeries.one(order)
    for k in range(1, order + 1):
        coeffs = [F(0)] * (order + 1)
        coeffs[0], coeffs[k] = F(1), F(-1)
        out = out * QSeries(tuple(coeffs))
    return out


class TestSeriesLogProduct:
    def test_order_four(self):
        s = series_log_product(4)
        assert s.coeffs == (F(0), F(-1), F(-3, 2), F(-4, 3), F(-7, 4))

    def test_order_one(self):
        assert series_log_product(1).coeffs == (F(0), F(-1))

    def test_coefficient_q6(self):
        assert series_log_product(6).coefficient(6) == F(-2)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError, match="truncation order must be >= 1"):
            series_log_product(0)

    def test_coefficients_are_negative_divisor_sums(self):
        order = 120
        s = series_log_product(order)
        for w in range(1, order + 1):
            assert s.coefficient(w) == -brute_divisor_sum(w)
        assert s.coefficient(0) == 0

    def test_exp_recovers_euler_product(self):
        order = 24
        assert series_log_product(order).exp() == euler_product(order)


class TestSigmaSieve:
    def test_divisor_sums_by_full_scan(self):
        order = 120
        sigma = sigma_sieve(order)
        assert len(sigma) == order + 1 and sigma[0] == 0
        for w in range(1, order + 1):
            assert type(sigma[w]) is int
            assert sigma[w] == sum(m for m in range(1, w + 1) if w % m == 0)

    def test_small_orders(self):
        assert sigma_sieve(0) == [0]
        assert sigma_sieve(1) == [0, 1]
        assert sigma_sieve(-1) == []


class TestNegateVariable:
    def test_flips_odd_coefficients(self):
        s = series_log_product(3)
        assert s.negate_variable().coeffs == (F(0), F(1), F(-3, 2), F(4, 3))

    def test_zero_series_fixed(self):
        z = QSeries((0,) * 6)
        assert z.negate_variable() == z

    def test_involution(self):
        s = series_log_product(17)
        assert s.negate_variable().negate_variable() == s

    def test_parity_split(self):
        s = series_log_product(31)
        difference = s - s.negate_variable()
        total = s + s.negate_variable()
        for w in range(0, 32, 2):
            assert difference.coefficient(w) == 0
        for w in range(1, 32, 2):
            assert total.coefficient(w) == 0


class TestScale:
    def test_zero_coefficient_stays_the_shared_zero(self):
        scaled = QSeries((0, 3, F(0), -2)).scale(F(-5, 7))
        assert scaled.coeffs == (F(0), F(-15, 7), F(0), F(10, 7))
        assert scaled.coeffs[0] is _ZERO and scaled.coeffs[2] is _ZERO

    def test_matches_dense_product(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        # zeros drawn as often as nonzero values, so they sit scattered
        coefficient = st.one_of(st.just(F(0)), fractions)

        @hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
        @hypothesis.given(st.lists(coefficient, min_size=2, max_size=30), fractions)
        def check(coeffs, c):
            assert QSeries(coeffs).scale(c).coeffs == tuple(c * x for x in coeffs)

        check()


class TestQSeriesRing:
    def test_truncates_to_minimum_order(self):
        a = series_log_product(10)
        b = series_log_product(6)
        assert (a + b).order == 6
        assert (a * b).order == 6
        assert QSeries(a.coeffs[:7]) == b

    def test_zero_and_one(self):
        assert QSeries.one(3).coeffs == (F(1), F(0), F(0), F(0))

    def test_mul_matches_dense_product(self):
        one_plus_q = QSeries((1, 1, 0))
        assert (one_plus_q * one_plus_q).coeffs == (F(1), F(2), F(1))
        a = series_log_product(9)
        b = QSeries(tuple(F(i - 4, i + 1) for i in range(10)))
        dense = [F(0)] * 10
        for i in range(10):
            for j in range(10 - i):
                dense[i + j] += a.coeffs[i] * b.coeffs[j]
        assert list((a * b).coeffs) == dense

    def test_neg_is_scale_by_minus_one(self):
        s = series_log_product(7)
        assert -s == s.scale(-1)
        assert (-s).coefficient(1) == 1

    def test_mul_commutes_and_associates(self):
        a = series_log_product(12)
        b = a.negate_variable()
        c = QSeries(tuple(F(i, 3) for i in range(13)))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    def test_exp_requires_zero_constant_term(self):
        with pytest.raises(ValueError):
            QSeries.one(4).exp()

    def test_minimum_length(self):
        with pytest.raises(ValueError, match="truncation order must be >= 1"):
            QSeries((F(1),))


class TestQSeriesRecord:
    """QSeries is an immutable slotted class, not a tuple."""

    def test_not_a_tuple(self):
        s = QSeries.one(3)
        for operate in (lambda: 2 * s, lambda: s * 2, lambda: s + 1, lambda: s - 1):
            with pytest.raises(TypeError):
                operate()
        with pytest.raises(TypeError):
            len(QSeries.one(3))
        assert QSeries((1, 2)) != (F(1), F(2))

    def test_read_only(self):
        s = QSeries(coeffs=(1, 0))
        with pytest.raises(AttributeError):
            s.coeffs = (F(0), F(0))
        with pytest.raises(AttributeError):
            del s.coeffs
        with pytest.raises(AttributeError):
            s.extra = 1
        assert s.coeffs == (F(1), F(0))

    def test_equality_hash_and_repr(self):
        s = QSeries((1, 2))
        assert s == QSeries((F(1), F(2)))
        assert hash(s) == hash(QSeries((F(1), F(2))))
        assert repr(s) == "QSeries(coeffs=(Fraction(1, 1), Fraction(2, 1)))"

    def test_copy_and_pickle(self):
        s = series_log_product(4)
        assert copy.deepcopy(s) == s
        assert pickle.loads(pickle.dumps(s)) == s


class TestEquivCoeff:
    def test_two_slots(self):
        # no residue has a z^0 part, so there is no constant slot
        assert EquivCoeff._fields == ("t", "omega")
        # an omitted field is the shared zero Fraction, not the int 0
        assert EquivCoeff() == (F(0), F(0))
        assert EquivCoeff(t=F(1)).omega is _ZERO and EquivCoeff().t is _ZERO
        with pytest.raises(TypeError):
            EquivCoeff(1, 2, 3)
        with pytest.raises(TypeError):
            EquivCoeff(const=1)

    def test_plain_namedtuple(self):
        # no construction logic of its own: tuple.__new__ and the stock _make
        assert "__new__" not in vars(EquivCoeff) and "_make" not in vars(EquivCoeff)
        assert EquivCoeff.__slots__ == ()
        assert not hasattr(EquivCoeff(), "__dict__")
        assert EquivCoeff._make((F(1, 2), F(3))) == EquivCoeff(F(1, 2), F(3))

    def test_keyword_construction_is_read_only(self):
        x = EquivCoeff(omega=2)
        assert x == EquivCoeff(0, 2)
        with pytest.raises(AttributeError):
            x.t = F(0)


class TestComponentDegree:
    """The degree is built as one ``Fraction``; a dense product checks it.

    The reference multiplies the residue's ``t`` slot, the (2g-2) factor
    and the orbifold Euler ratio as three ``Fraction``s.  The component
    fields are drawn freely, not from the analysed classes, so no
    cancellation special to them hides a wrong numerator or denominator.
    """

    def test_one_fraction_matches_dense_product(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        positive = st.integers(1, 60)

        @hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
        @hypothesis.given(positive, positive, st.integers(-5, 60), positive, st.integers(-3, 12))
        def check(m, dim, slice_euler, stab_order, g):
            component = WallComponent(
                divisor=m, twist=0, quotient_class=ChernClass(0, dim), dim=dim,
                stab_order=stab_order, slice_euler=slice_euler, supported=True,
            )
            residue = laurent_residue(normal_bundle_inverse_expansion(m, dim))
            degree = component_residue_degree(component, g)
            assert degree == residue.t * (2 * g - 2) * F(slice_euler, stab_order)
            assert type(degree) is F

        check()


class TestLaurentResidue:
    def test_residue_direct_readoff(self):
        pole = EquivCoeff(t=3, omega=1)
        f = {1: EquivCoeff(t=1), -1: pole}
        assert laurent_residue(f) == pole

    def test_no_pole_gives_zero(self):
        assert laurent_residue({}) == EquivCoeff()
        assert laurent_residue({-2: EquivCoeff(t=5)}) == EquivCoeff()

    def test_geometric_expansion_residue(self):
        # sum_k (-m z)^(-k) c_k with c_0 = 1 and c_1 = 2t + omega, at m = 3,
        # has residue -c_1/3; the z^0 term 1 has no t or omega slot to hold it
        pole = EquivCoeff(t=F(-2, 3), omega=F(-1, 3))
        f = {-1: pole}
        assert laurent_residue(f) == pole
