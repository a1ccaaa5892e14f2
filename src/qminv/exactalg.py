"""Exact scalar, power-series and graded-coefficient arithmetic.

Everything in this package is computed over exact rationals; no floating
point is used anywhere.  Two coefficient types live here:

* ``QSeries`` -- truncated formal power series in ``q`` over ``Fraction``,
  used for the generating-series identities.
* ``EquivCoeff`` -- the residue engine's coefficients
  ``t*t + omega*omega``, where ``omega`` stands for the first
  Chern class of the canonical bundle of the base curve and ``t`` is the
  equivariant weight of the scaling torus.  A coefficient is written as
  a literal and has no operations; the caller reads its fields.

An expansion in a localisation variable (``z``, or a rescaled ``u = m*z``)
is a plain ``dict`` from exponent to ``EquivCoeff``; its producer decides
which terms it holds, and ``laurent_residue`` reads the ``-1`` entry.

A ``QSeries`` coerces its coefficients to ``Fraction`` once, on entry;
arithmetic on ``Fraction`` coefficients never coerces its own results
again.  An ``EquivCoeff`` coerces nothing: its one producer expands in
``u = m*z`` and writes both fields as integers, each from the
component's dimension, so the residue engine builds no ``Fraction``
before the degree divides by m.  The ``QSeries`` product skips zero
factors and ``scale`` skips zero coefficients, so each builds a new
``Fraction`` only where a nonzero value needs one; a skipped zero stays
the module's shared zero.
``sigma_sieve`` is the one integer sieve of the divisor sums sigma_1(w):
``series_log_product`` builds the eta-log on it, and the series
identities read it directly, one ``Fraction`` per coefficient they keep.
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


def sigma_sieve(order: int) -> list[int]:
    """The divisor sums sigma_1(w) = sum_{m | w} m for w = 0..order, as ints.

    Each k adds itself at its multiples k*j <= order, so the entry at 0
    stays 0; an order below 0 gives the empty list.
    """
    sigma = [0] * (order + 1)
    for k in range(1, order + 1):
        for j in range(1, order // k + 1):
            sigma[k * j] += k
    return sigma


def series_log_product(order: int) -> QSeries:
    """log of the Euler product prod_{k>=1} (1 - q**k), truncated at q**order.

    Expanded termwise: log(1 - q**k) = -sum_j q**(k*j) / j, so the
    coefficient of q**w is -sum_{m | w} 1/m = -sigma_1(w) / w (the term
    1/j of q**(k*j) is k/w), with the integers sigma_1(w) read from
    ``sigma_sieve`` and one ``Fraction`` per coefficient.  The constant
    term is 0.  An order below 1 leaves only that term, which ``QSeries``
    refuses.
    """
    sigma = sigma_sieve(order)
    return QSeries((_ZERO, *(Fraction(-sigma[w], w) for w in range(1, order + 1))))


class EquivCoeff(namedtuple("EquivCoeff", "t omega", defaults=(_ZERO, _ZERO))):
    """Residue coefficient ``t * t + omega * omega``.

    Each field is the coefficient of the variable it is named after.  No
    residue has a z**0 part to carry, so there is no constant slot.
    Degree-2 terms (t**2, t*omega) are not represented: the base is a
    curve, and the value is read in t-degree 1.  A coefficient is a plain
    record: it is written as a literal from integer or ``Fraction``
    values, an omitted field is the shared ``Fraction`` zero, and it has
    no operations.
    """

    __slots__ = ()


# EquivCoeff is immutable, so one zero serves every residue without a pole:
# no caller can change the shared instance under another.
_ZERO_COEFF = EquivCoeff()


def laurent_residue(f: dict[int, EquivCoeff]) -> EquivCoeff:
    """Residue of an expansion in z or u = m*z: its ``-1`` entry; the zero element without a pole."""
    return f.get(-1, _ZERO_COEFF)
