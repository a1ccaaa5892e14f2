"""Number-theoretic and elliptic-torsion primitives.

Divisor enumeration and the divisor sum sigma_{-1}(w) = sum_{m|w} 1/m are
the kernel of every positive-degree invariant.  The rest of the module
fixes the bookkeeping of a query: the Euler pairing on an elliptic curve,
the integer system that transports the quasimap degree w into the
base-direction Chern components of the associated sheaf, and torsion
subgroup orders E[n] = n^2.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

# the largest rank and quasimap degree a query takes: divisors(w) and
# is_prime(r) trial-divide up to the square root, at most 10**6 steps
_MAX_SIZE = 10**12


def divisors(w: int) -> list[int]:
    """All positive divisors of w in increasing order.

    w = 0 is rejected: degree-zero queries are handled by the constant-map
    formula and never reach divisor machinery.
    """
    if w < 1:
        raise ValueError(f"divisors requires w >= 1, got {w}")
    small, large = [], []
    d = 1
    while d * d <= w:
        if w % d == 0:
            small.append(d)
            if d != w // d:
                large.append(w // d)
        d += 1
    return small + large[::-1]


def sigma_minus_one(w: int) -> Fraction:
    """sum_{m | w} 1/m as an exact rational."""
    return sum((Fraction(1, m) for m in divisors(w)), Fraction(0))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def torsion_order(n: int) -> int:
    """Order of the n-torsion subgroup of an elliptic curve: n^2."""
    if n < 1:
        raise ValueError(f"torsion_order requires n >= 1, got {n}")
    return n * n


class ChernClass(namedtuple("ChernClass", "rank deg")):
    """(rank, degree) component pair of an even cohomology class on E."""

    __slots__ = ()


def chi_pairing_elliptic(v: ChernClass, u: ChernClass) -> int:
    """Euler pairing chi(v.u) on a genus-1 curve.

    The Todd correction vanishes in genus 1, leaving
    chi = rk(v)*deg(u) + deg(v)*rk(u).
    """
    return v.rank * u.deg + v.deg * u.rank


class BaseDegrees(namedtuple("BaseDegrees", "c1 ch2")):
    """Base-direction Chern data of the sheaf attached to a quasisection.

    c1 is the first-Chern component along the base curve (its residue
    mod r is the gerbe degree the query must match); ch2 is the second
    character component.
    """

    __slots__ = ()


def solve_base_degrees(r: int, a: int, w: int, u: ChernClass) -> BaseDegrees:
    """Solve the 2x2 integer system pinning the base-direction degrees.

        c1 * deg(u) + ch2 * rk(u) = 0
        c1 * a      - ch2 * r     = w

    Its determinant is -chi((r, a), u), so u must pair to 1: the solution
    is then (rk(u) * w, -deg(u) * w), and (w, 0) for u = (1, 0).
    """
    chi = chi_pairing_elliptic(ChernClass(r, a), u)
    if chi != 1:
        raise ValueError(f"degree system needs chi(({r},{a}), u) = 1; u=({u.rank},{u.deg}) gives {chi}")
    return BaseDegrees(u.rank * w, -u.deg * w)


def canonical_u_choice(r: int, a: int) -> ChernClass:
    """A normalisation class with chi pairing 1 against (r, a).

    Takes rk(u) to be the inverse of a mod r; the degree component is then
    forced.  Only defined for gcd(r, a) = 1.
    """
    if math.gcd(r, a) != 1:
        raise ValueError(f"no unit normalisation: gcd({r},{a}) != 1")
    u1 = pow(a, -1, r)
    u2 = (1 - a * u1) // r
    return ChernClass(u1, u2)


class InvariantQuery(namedtuple("InvariantQuery", "r d a w g")):
    """A validated invariant request; ``_replace`` and ``_make`` validate too.

    r      rank, in [2, 10**12]
    d      degree on the base curve; only its residue mod r enters
    a      degree on the elliptic curve, in [0, r), coprime to r
    w      quasimap degree, in [0, 10**12]
    g      genus of the base curve (>= 2)

    Every field must be an integer (``operator.index``) and is stored as
    an ``int``.  The keyword ``u_choice`` is not stored: it is None or
    ``canonical_u_choice(r, a)``.
    """

    __slots__ = ()

    def __new__(cls, r: int, d: int, a: int, w: int, g: int, u_choice: ChernClass | None = None):
        r, d, a, w, g = map(operator.index, (r, d, a, w, g))
        if r < 2:
            raise ValueError(f"rank must be >= 2, got {r}")
        if r > _MAX_SIZE:
            raise ValueError(f"rank must be <= {_MAX_SIZE}, got {r}")
        if g < 2:
            raise ValueError(f"genus must be >= 2, got {g}")
        if w < 0:
            raise ValueError(f"quasimap degree must be >= 0, got {w}")
        if w > _MAX_SIZE:
            raise ValueError(f"quasimap degree must be <= {_MAX_SIZE}, got {w}")
        if not 0 <= a < r:
            raise ValueError(f"a must lie in [0, {r}), got {a}")
        if u_choice is None:
            if math.gcd(r, a) != 1:
                raise ValueError(f"no unit normalisation: gcd({r},{a}) != 1")
        else:
            canonical = canonical_u_choice(r, a)  # rejects a non-coprime a
            if u_choice != canonical:
                raise ValueError(f"u_choice must be None or canonical_u_choice({r}, {a}) = {canonical!r}, got {u_choice!r}")
        return tuple.__new__(cls, (r, d, a, w, g))

    # namedtuple's own _make, behind _replace, would skip the checks above
    _make = classmethod(lambda cls, it: cls(*it))
