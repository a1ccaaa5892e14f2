"""Expected values computed without qminv.

Every check in the benchmark compares qminv's output with a value built
here from first principles: divisors by trial division, divisor sums as
sigma_1(w) / w, slice Euler numbers as r*k.  Nothing in this module
imports qminv, so a defect in the library cannot hide in its own
reference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def divisors(w: int) -> tuple[int, ...]:
    """Positive divisors of w by scanning 1..w."""
    return tuple(m for m in range(1, w + 1) if w % m == 0)


def sigma_minus_one(w: int) -> Fraction:
    """sum_{m | w} 1/m as sigma_1(w) / w."""
    return Fraction(sum(divisors(w)), w)


def congruent(r: int, d: int, a: int, w: int) -> bool:
    return (w - d * a) % r == 0


def elliptic_breakdown(r: int, d: int, a: int, w: int, g: int) -> tuple[tuple[int, Fraction], ...]:
    """Per-divisor contributions (m, (2g-2)/m); empty off the congruence."""
    if not congruent(r, d, a, w):
        return ()
    return tuple((m, Fraction(2 * g - 2, m)) for m in divisors(w))


def elliptic_value(r: int, d: int, a: int, w: int, g: int) -> Fraction:
    """(2g-2) * sigma_{-1}(w) on the congruence w = d*a mod r, else 0."""
    if not congruent(r, d, a, w):
        return Fraction(0)
    return (2 * g - 2) * sigma_minus_one(w)


def constant_map_value(r: int, g: int) -> Fraction:
    """Degree-zero count r^(2g-2) for prime r."""
    return Fraction(r ** (2 * g - 2))


def series_coefficient(identity: str, g: int, w: int) -> Fraction:
    """Coefficient of q^w on either side of identity A (odd w) or B (even w >= 2).

    Both sides equal (2g-2) * 2^(2g) * sigma_{-1}(w) where the identity
    has support, and 0 elsewhere.
    """
    parity = 1 if identity == "A" else 0
    if w < 1 or w % 2 != parity:
        return Fraction(0)
    return (2 * g - 2) * 2 ** (2 * g) * sigma_minus_one(w)


def slice_euler(r: int, k: int) -> int:
    return r * k


def slice_space(r: int, k: int) -> int:
    """Decompositions of (0, k) into r ordered parts: C(k+r-1, r-1)."""
    return comb(k + r - 1, r - 1)


def oracle_slice_ks(r: int, d: int, w: int) -> list[int]:
    """Degrees k of the rank-0 wall components of an a = 1 query.

    With u = (1, 0) the base degrees are (w, 0); the component of divisor
    m has quotient class (h*r - w/m, h) with h = ceil(w/(m r)), which has
    rank 0 exactly when r divides w/m, and then k = w/(m r).  The oracle
    visits components only on the congruence.
    """
    if not congruent(r, d, 1, w):
        return []
    return [w // m // r for m in divisors(w) if (w // m) % r == 0]
