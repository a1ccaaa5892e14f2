"""Series and coefficient-ring arithmetic."""

import copy
import pickle
from fractions import Fraction

import pytest

from qminv.exactalg import EquivCoeff, QSeries, laurent_residue, series_log_product

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
    def test_three_slots(self):
        assert EquivCoeff._fields == ("const", "t", "omega")
        assert EquivCoeff() == (F(0), F(0), F(0))
        with pytest.raises(TypeError):
            EquivCoeff(1, 2, 3, 4)

    def test_old_tuple_slot_form_raises(self):
        with pytest.raises(TypeError):
            EquivCoeff((1,))
        with pytest.raises(TypeError):
            EquivCoeff((0, -1), (1,))

    def test_replace_coerces(self):
        x = EquivCoeff(5)._replace(t=2)
        assert x == EquivCoeff(5, 2, 0)
        assert type(x.t) is Fraction

    def test_keyword_construction_is_read_only(self):
        x = EquivCoeff(const=1, omega=2)
        assert x == EquivCoeff(1, 0, 2)
        with pytest.raises(AttributeError):
            x.t = F(0)


class TestSparseEquivCoeff:
    """``scale`` skips zero slots; a dense reference checks them.

    The reference below scales every slot, zero or not, on a plain list.
    Inputs are mostly zero and mix ``int`` and ``Fraction`` slots, so
    every shortcut is taken.
    """

    @staticmethod
    def reference(x, c):
        return [F(c) * F(v) for v in x]

    def test_zero_skipping_matches_dense_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        # three of the five branches draw a zero, so most slots are zero
        slot = st.one_of(
            st.just(0),
            st.just(F(0)),
            st.just(0),
            st.integers(-4, 4),
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
        )
        coeffs = st.builds(EquivCoeff, slot, slot, slot)

        @hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
        @hypothesis.given(coeffs, slot)
        def check(x, c):
            result = x.scale(c)
            assert list(result) == self.reference(x, c)
            assert type(result) is EquivCoeff
            assert all(type(v) is F for v in result)

        check()


class TestLaurentResidue:
    def test_residue_direct_readoff(self):
        pole = EquivCoeff(t=3, omega=1)
        f = {0: EquivCoeff(1), -1: pole}
        assert laurent_residue(f) == pole

    def test_no_pole_gives_zero(self):
        f = {0: EquivCoeff(5)}
        assert laurent_residue(f) == EquivCoeff()

    def test_geometric_expansion_residue(self):
        # sum_k (-m z)^(-k) c_k with c_0 = 1, c_1 = c has residue -c/m
        m = 3
        c = EquivCoeff(t=2, omega=1)
        f = {0: EquivCoeff(1), -1: c.scale(F(-1, m))}
        assert laurent_residue(f) == c.scale(F(-1, m))
