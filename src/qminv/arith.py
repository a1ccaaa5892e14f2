"""Number-theoretic and elliptic-torsion primitives.

Factorisation is the kernel of the closed form: it reads sum_{m|w} 1/m
as ``divisor_sum(factorise(w)) / w``, and the proven-set gate reads the
primes of w from the same factorisation.  The wall-crossing oracle reads
``divisors(w)``, a scan that shares no code with ``factorise``, so the
two routes share only ``is_prime``.  The rest of the module fixes the
bookkeeping of a query: the normalisation class of a (rank, degree) pair,
the integer system that transports the quasimap degree w into the
base-direction Chern components (c1, ch2) of the associated sheaf, and
torsion subgroup orders E[n] = n^2.
``InvariantQuery`` is the one home of the input rules: a step that
needs a rule on r, a or g (the gcd, the genus bound) builds a query
rather than restating it.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

# the largest rank and quasimap degree a query takes: divisors(w) and
# is_prime(r) trial-divide up to the square root, at most 10**6 steps, and
# factorise(w) over 2 and the odd numbers, under 5 * 10**5
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


def factorise(w: int) -> list[tuple[int, int]]:
    """The prime factorisation of w as [(p, e), ...], p increasing; [] for w = 1.

    Trial division by 2, then by odd p while p * p is at most the
    cofactor; a cofactor above 1 that is left is prime.  w < 1 is
    rejected, as by ``divisors``.
    """
    if w < 1:
        raise ValueError(f"factorise requires w >= 1, got {w}")
    factors = []
    e = 0
    while w % 2 == 0:
        w //= 2
        e += 1
    if e:
        factors.append((2, e))
    p = 3
    while p * p <= w:
        if w % p == 0:
            e = 0
            while w % p == 0:
                w //= p
                e += 1
            factors.append((p, e))
        p += 2
    if w > 1:
        factors.append((w, 1))
    return factors


def divisor_sum(factors: list[tuple[int, int]]) -> int:
    """sigma_1, the sum of the divisors, of the integer factorised as ``factors``.

    sigma_1 is multiplicative, and sigma_1(p^e) = (p^(e+1) - 1) / (p - 1).
    """
    total = 1
    for p, e in factors:
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


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


def solve_base_degrees(r: int, a: int, w: int) -> tuple[int, int]:
    """The base-direction Chern data (c1, ch2) of the sheaf attached to a quasisection.

    c1 is the first-Chern component along the base curve (its residue
    mod r is the gerbe degree the query must match); ch2 is the second
    character component.  They solve the 2x2 integer system

        c1 * deg(u) + ch2 * rk(u) = 0
        c1 * a      - ch2 * r     = w

    for u = ``canonical_u_choice(r, a)``.  Its determinant is
    -(r * deg(u) + a * rk(u)) = -1, so the solution is
    (rk(u) * w, -deg(u) * w), and (w, 0) for a = 1, where u = (1, 0).
    """
    u = canonical_u_choice(r, a)
    return u.rank * w, -u.deg * w


def canonical_u_choice(r: int, a: int) -> ChernClass:
    """The normalisation class u with r * deg(u) + a * rk(u) = 1.

    Takes rk(u) to be the inverse of a mod r; the degree component is then
    forced.  Only defined for gcd(r, a) = 1: otherwise ``pow`` finds no
    inverse and raises ``ValueError``.
    """
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
        if math.gcd(r, a) != 1:
            raise ValueError(f"no unit normalisation: gcd({r},{a}) != 1")
        if u_choice is not None:
            canonical = canonical_u_choice(r, a)
            if u_choice != canonical:
                raise ValueError(f"u_choice must be None or canonical_u_choice({r}, {a}) = {canonical!r}, got {u_choice!r}")
        return tuple.__new__(cls, (r, d, a, w, g))

    # namedtuple's own _make, behind _replace, would skip the checks above
    _make = classmethod(lambda cls, it: cls(*it))
