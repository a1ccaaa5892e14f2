"""Exact scalar, power-series and graded-coefficient arithmetic.

Everything in this package is computed over exact rationals; no floating
point is used anywhere.  Two coefficient types live here:

* ``QSeries`` -- truncated formal power series in ``q`` over ``Fraction``,
  used for the generating-series identities.
* ``EquivCoeff`` -- the residue engine's coefficients
  ``const + t*t + omega*omega``, where ``omega`` stands for the first
  Chern class of the canonical bundle of the base curve and ``t`` is the
  equivariant weight of the scaling torus.  A coefficient is written as
  a literal and has no operations; the caller reads its fields.

An expansion in the localisation variable ``z`` is a plain ``dict`` from
exponent to ``EquivCoeff``; its producer decides which terms it holds,
and ``laurent_residue`` reads the ``z**-1`` entry.

Values are coerced to ``Fraction`` once, on entry; arithmetic on
``Fraction`` coefficients never coerces its own results again.  The
``QSeries`` product skips zero factors and ``scale`` skips zero
coefficients, so each builds a new ``Fraction`` only where a nonzero
value needs one; a skipped zero stays the module's shared zero.
``parity_part`` keeps the terms of one parity of the exponent and puts
the shared zero at the others, with no arithmetic: it is half of
``U(q) +- U(-q)``, without the terms that cancel.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

_ZERO = Fraction(0)


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class QSeries:
    """A power series in q truncated at a fixed order N >= 1.

    ``coeffs[w]`` is the coefficient of ``q**w``; the tuple has length
    ``N + 1``.  Binary operations on mismatched orders truncate to the
    smaller order; below the truncation every operation is exact.  A
    series is immutable and hashable, and not a tuple: ``2 * s`` and
    ``s + 1`` raise ``TypeError``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(map(_as_fraction, coeffs))
        if len(coeffs) < 2:
            raise ValueError("truncation order must be >= 1")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, *value):
        raise AttributeError(f"QSeries is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return QSeries, (self.coeffs,)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is QSeries else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QSeries(coeffs={self.coeffs!r})"

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls((Fraction(1),) + (Fraction(0),) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, w: int) -> Fraction:
        if not 0 <= w <= self.order:
            raise IndexError(f"exponent {w} outside truncation 0..{self.order}")
        return self.coeffs[w]

    def __add__(self, other: "QSeries") -> "QSeries":
        if other.__class__ is not QSeries:
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries(tuple(self.coeffs[w] + other.coeffs[w] for w in range(n + 1)))

    def __sub__(self, other: "QSeries") -> "QSeries":
        if other.__class__ is not QSeries:
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries(tuple(self.coeffs[w] - other.coeffs[w] for w in range(n + 1)))

    def __neg__(self) -> "QSeries":
        return QSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "QSeries") -> "QSeries":
        if other.__class__ is not QSeries:
            return NotImplemented
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            ci = self.coeffs[i]
            if not ci:
                continue
            for j in range(n + 1 - i):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] += ci * cj
        return QSeries(tuple(out))

    def scale(self, c) -> "QSeries":
        c = _as_fraction(c)
        return QSeries(tuple(c * coeff if coeff else _ZERO for coeff in self.coeffs))

    def parity_part(self, p: int) -> "QSeries":
        """The terms at exponents w = p mod 2, with the shared zero elsewhere.

        Twice ``parity_part(1)`` is ``self - self.negate_variable()`` and
        twice ``parity_part(0)`` is ``self + self.negate_variable()``.
        """
        coeffs = [_ZERO] * len(self.coeffs)
        coeffs[p % 2 :: 2] = self.coeffs[p % 2 :: 2]
        return QSeries(coeffs)

    def negate_variable(self) -> "QSeries":
        """Substitute q -> -q, flipping the sign of odd coefficients."""
        return QSeries(
            tuple(-c if w % 2 else c for w, c in enumerate(self.coeffs))
        )

    def exp(self) -> "QSeries":
        """Finite Taylor exponential; requires zero constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("exp is only defined for series with zero constant term")
        n = self.order
        out = QSeries.one(n)
        power = QSeries.one(n)
        for k in range(1, n + 1):
            power = power * self
            out = out + power.scale(Fraction(1, math.factorial(k)))
        return out


def series_log_product(order: int) -> QSeries:
    """log of the Euler product prod_{k>=1} (1 - q**k), truncated at q**order.

    Expanded termwise: log(1 - q**k) = -sum_j q**(k*j) / j, so the
    coefficient of q**w is -sum_{m | w} 1/m = -sigma_1(w) / w.  The loop
    sums the integers sigma_1(w) (the term 1/j of q**(k*j) is k/w) and
    builds one ``Fraction`` per coefficient.  The constant term is 0.
    An order below 1 leaves only that term, which ``QSeries`` refuses.
    """
    sigma = [0] * (order + 1)
    for k in range(1, order + 1):
        for j in range(1, order // k + 1):
            sigma[k * j] += k
    return QSeries((_ZERO, *(Fraction(-sigma[w], w) for w in range(1, order + 1))))


class EquivCoeff(namedtuple("EquivCoeff", "const t omega")):
    """Residue coefficient ``const + t * t + omega * omega``.

    Each field is the coefficient of the variable it is named after.
    Degree-2 terms (t**2, t*omega) are not represented: the base is a
    curve, and the value is read in t-degree 1.  A coefficient is a plain
    record: it is written as a literal, its fields are coerced to
    ``Fraction``, and it has no operations.
    """

    __slots__ = ()

    def __new__(cls, const=0, t=0, omega=0):
        return tuple.__new__(cls, map(_as_fraction, (const, t, omega)))

    # namedtuple's own _make, behind _replace, would skip the coercion
    _make = classmethod(lambda cls, it: cls(*it))


# EquivCoeff is immutable, so one zero serves every residue without a pole:
# no caller can change the shared instance under another.
_ZERO_COEFF = EquivCoeff()


def laurent_residue(f: dict[int, EquivCoeff]) -> EquivCoeff:
    """Coefficient of z**-1 in a z-expansion; the zero element without a pole."""
    return f.get(-1, _ZERO_COEFF)
