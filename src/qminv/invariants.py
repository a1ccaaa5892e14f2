"""Closed-form invariant evaluation and generating-series identities.

Positive-degree invariants are evaluated on two independent routes:

* ``closed_form`` -- the divisor-sum formula (2g-2) * sum_{m|w} 1/m,
  gated by the congruence w = d*a mod r;
* ``wall_crossing_oracle`` -- enumerate the Quot-scheme wall components,
  extract each z-residue, and sum the telescoped contributions.

Both are proven only where ``unproven_reason`` returns None.  Outside
that set both raise ``UnsupportedQueryError`` when ``strict`` (the
default) and otherwise evaluate and flag the result conjectural.

All reported values are reduced, i.e. the coefficient of the equivariant
parameter t (the CLI's ``--raw`` prints that coefficient times t).  The
moduli-side invariant carries the extra factor r^(2g) and doubles as the
Vafa-Witten invariant of the product surface.  ``_gate`` is the home of
the proven-set rule: every w >= 1 route calls it, and it reads the primes
of w from one factorisation, ``arith.factorise``.  The closed form's value
reads sigma_1(w) from the same factorisation, and only its breakdown lists
the divisor set, as products of prime powers.  The oracle enumerates its
components over its own scan of w (``quotloc.wall_components``), so the
routes share only ``is_prime``.  The series identities read one
moduli-side value per coefficient from the same kernel as
``qm_elliptic_closed``, with the factor r^(2g) inside its one ``Fraction``
and no breakdown.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .arith import InvariantQuery, divisor_sum, factorise, is_prime
from .exactalg import _ZERO, QSeries, sigma_sieve
from .quotloc import component_residue_degree, wall_components

ROUTE_CLOSED = "closed_form"
ROUTE_ORACLE = "wall_crossing_oracle"


class UnsupportedQueryError(ValueError):
    """Raised when a route has no proven formula for the query."""


class InvariantResult(namedtuple("InvariantResult", "value_t breakdown route conjectural")):
    """A reduced invariant value with its per-divisor breakdown.

    value_t is the coefficient of t.  The breakdown lists each divisor's
    contribution and sums to value_t exactly on both routes.
    conjectural is set iff the query is outside the proven set
    (``unproven_reason``) and was evaluated in permissive mode.
    """

    __slots__ = ()


def degree_congruent(query: InvariantQuery) -> bool:
    """Whether w = d*a mod r; the moduli space is empty otherwise."""
    return (query.w - query.d * query.a) % query.r == 0


def _gate(query: InvariantQuery, strict: bool) -> tuple[str | None, list[tuple[int, int]] | None]:
    """The proven-set rule every w >= 1 route shares: (reason, factorisation of w).

    w < 1 raises ``ValueError``.  The reason is None when the query is
    proven: r is prime and every divisor of w is 0 or a mod r.  That holds
    exactly when a = 1 (1 divides w) and every prime of w is 0 or 1 mod r,
    because a divisor prime to r is a product of primes of w other than
    r.  A composite rank is refused before any factorisation (factors is
    then None); otherwise factors is the one ``factorise(w)`` the rule
    read.  With a reason, ``strict`` raises ``UnsupportedQueryError``.
    """
    if query.w < 1:
        raise ValueError("a positive-degree route needs w >= 1; w = 0 is the elliptic-side constant-map count")
    r, w, a = query.r, query.w, query.a
    factors = reason = None
    if not is_prime(r):
        reason = f"no proven closed form for r={r}, w={w}: the rank {r} is not prime"
    else:
        factors = factorise(w)
        if a != 1 or not all(p % r in (0, 1) for p, _ in factors):
            reason = f"no proven closed form for r={r}, w={w}: some divisor of w lies outside {{0, {a}}} mod {r}"
    if strict and reason is not None:
        raise UnsupportedQueryError(reason)
    return reason, factors


def unproven_reason(query: InvariantQuery) -> str | None:
    """Why an elliptic-side query is outside the proven set, or None.

    The rule is ``_gate``'s, shared by every route on both sides: r is
    prime and every divisor of w is 0 or a mod r, decided from the primes
    of w.  w < 1 raises the routes' ``ValueError`` for any rank.  The rule
    ignores the congruence w = d*a mod r, so the 0 of an unproven query
    off the congruence stays conjectural.
    """
    return _gate(query, strict=False)[0]


def _closed_form(
    query: InvariantQuery, strict: bool, factor: int = 1
) -> tuple[Fraction, list[tuple[int, int]] | None, bool]:
    """The closed form's value_t times ``factor``, the factorisation of w and the conjectural flag.

    The value reads ``_gate``'s factorisation; only a composite rank,
    evaluated in permissive mode, factorises w here.  Off the congruence
    w = d*a mod r the value is 0 and the factorisation None.  The integer
    ``factor`` enters the numerator of the value's one ``Fraction``.
    """
    reason, factors = _gate(query, strict)
    conjectural = reason is not None
    if not degree_congruent(query):
        return Fraction(0), None, conjectural
    if factors is None:
        factors = factorise(query.w)
    # sum_{m|w} 1/m = sum_{m|w} (w/m) / w = sigma_1(w) / w: one integer
    # product over the primes and a single Fraction.
    return Fraction((2 * query.g - 2) * divisor_sum(factors) * factor, query.w), factors, conjectural


def qm_elliptic_closed(query: InvariantQuery, strict: bool = True) -> InvariantResult:
    """Elliptic-side invariant by the divisor-sum formula.

    (2g-2) * sum_{m|w} 1/m when w = d*a mod r, and 0 otherwise, with one
    breakdown entry (m, (2g-2)/m) per divisor m of w, in increasing
    order.  ``strict`` is the proven-set gate it shares with the oracle
    (``_gate``).  The value and the breakdown read the gate's one
    factorisation of w: the divisor set is every product of its prime
    powers.
    """
    value, factors, conjectural = _closed_form(query, strict)
    if factors is None:
        return InvariantResult(value, (), ROUTE_CLOSED, conjectural)
    # the divisor set: the products so far times p, p^2, ..., p^e for each prime
    ms = [1]
    for p, e in factors:
        multiples = ms
        for _ in range(e):
            multiples = [m * p for m in multiples]
            ms += multiples
    ms.sort()
    scale = 2 * query.g - 2
    breakdown = tuple((m, Fraction(scale, m)) for m in ms)
    return InvariantResult(value, breakdown, ROUTE_CLOSED, conjectural)


def qm_elliptic_oracle(query: InvariantQuery, strict: bool = True) -> InvariantResult:
    """Elliptic-side invariant through the wall-crossing pipeline.

    The pure chamber at large stability is empty for w >= 1, so the
    invariant telescopes into the sum of the wall components' residue
    degrees; the orientation is fixed so that (r,a)=(2,1), d=1, w=1, g=2
    gives +2.  Emptiness is decided by ``wall_components``, from the base
    degree c1 and not from ``degree_congruent``: an empty moduli space has
    no component, and the invariant is the empty sum 0.  The breakdown's
    ``Fraction`` entries are summed over their least common denominator,
    as integer numerators, into one ``Fraction`` in lowest terms.
    ``strict`` has the closed form's meaning, and a proven query with an
    unsupported component raises ``RuntimeError``.
    """
    conjectural = _gate(query, strict)[0] is not None
    components = wall_components(query)
    if not conjectural and not all(c.supported for c in components):
        raise RuntimeError(f"the proven query r={query.r}, w={query.w} has an unsupported wall component")
    breakdown = tuple(
        (c.divisor, component_residue_degree(c, query.g)) for c in components
    )
    # one common denominator: integer numerators and a single Fraction, which
    # reduces the sum; no component gives lcm() = 1 and the value 0
    den = math.lcm(*(c.denominator for _, c in breakdown))
    value = Fraction(sum(c.numerator * (den // c.denominator) for _, c in breakdown), den)
    return InvariantResult(value, breakdown, ROUTE_ORACLE, conjectural)


def qm_elliptic(query: InvariantQuery, route: str = ROUTE_CLOSED, strict: bool = True) -> InvariantResult:
    """Elliptic-side invariant on the named route; an unknown name raises ``ValueError``."""
    # the route functions are read when called, so a rebinding of either is seen
    if route == ROUTE_CLOSED:
        return qm_elliptic_closed(query, strict=strict)
    if route == ROUTE_ORACLE:
        return qm_elliptic_oracle(query, strict=strict)
    raise ValueError(f"unknown route {route!r}")


def qm_moduli(query: InvariantQuery, route: str = ROUTE_CLOSED, strict: bool = True) -> InvariantResult:
    """Moduli-side invariant: r^(2g) times the elliptic-side value.

    Value and breakdown are ``qm_elliptic``'s on the same route, scaled
    by r^(2g); ``strict`` is that route's proven-set gate
    (``unproven_reason``).  With ``strict=False`` a composite rank gives
    the conjectural all-rank formula, flagged conjectural.  The same
    number is the Vafa-Witten invariant of the product surface, and for
    odd w the genus-1 Gromov-Witten invariant of the moduli space.
    """
    base = qm_elliptic(query, route=route, strict=strict)
    factor = query.r ** (2 * query.g)
    breakdown = tuple((m, c * factor) for m, c in base.breakdown)
    return InvariantResult(base.value_t * factor, breakdown, base.route, base.conjectural)


def qm_degree_zero(query: InvariantQuery) -> InvariantResult:
    """The w = 0 invariant: the constant-map count r^(2g-2).

    Its prime-rank rule holds in permissive mode too, and comes before the
    congruence, as the gate does at w >= 1; for d != 0 mod r the moduli
    space of degree-(0, d) quasisections is empty and the count is 0.
    """
    if query.w != 0:
        raise ValueError("qm_degree_zero expects w = 0")
    if not is_prime(query.r):
        raise UnsupportedQueryError(f"constant-map count needs a prime rank, got {query.r}")
    value = Fraction(query.r ** (2 * query.g - 2)) if degree_congruent(query) else Fraction(0)
    return InvariantResult(value, (), ROUTE_CLOSED, False)


class SeriesIdentity(namedtuple("SeriesIdentity", "lhs rhs equal")):
    """Both sides of a generating-series identity and whether they agree."""

    __slots__ = ()


def _series_identity(g: int, order: int, d: int) -> SeriesIdentity:
    """Rank-2 moduli-side invariants of base degree d against the eta-log.

    The left side collects the w = d mod 2 coefficients (w >= 1), each the
    moduli-side value: the closed form's ``value_t`` with the factor
    2^(2g) inside its one ``Fraction``, read from the closed form's own
    kernel with no breakdown, which the identity never reads.  The right
    side is (2-2g) * 2^(2g-1) * (U(q) -+ U(-q)) for the eta-log
    U = ``series_log_product``, with the difference for odd d and the sum
    for even d.  That is (2-2g) * 2^(2g) times the part of U of d's
    parity, whose coefficient at w is -sigma_1(w) / w: the right side
    reads sigma_1(w) from ``sigma_sieve``, never from the closed form, and
    builds one ``Fraction`` per coefficient of d's parity.  Both sides
    hold the shared zero at the other parity, which ``==`` compares by
    identity.
    """
    # the query's genus rule, checked before the loop so that an empty left
    # side is refused too (w = d is a valid degree of either parity)
    query = InvariantQuery(r=2, d=d, a=1, w=d, g=g)
    factor = 2 ** (2 * g)
    scale = (2 * g - 2) * factor
    sigma = sigma_sieve(order)
    lhs_coeffs = [_ZERO] * (order + 1)
    rhs_coeffs = [_ZERO] * (order + 1)
    for w in range(2 - d, order + 1, 2):
        lhs_coeffs[w] = _closed_form(InvariantQuery(query.r, d, query.a, w, g), strict=True, factor=factor)[0]
        rhs_coeffs[w] = Fraction(scale * sigma[w], w)
    lhs, rhs = QSeries(lhs_coeffs), QSeries(rhs_coeffs)
    return SeriesIdentity(lhs, rhs, lhs == rhs)


def series_identity_odd(g: int, order: int) -> SeriesIdentity:
    """Odd-degree generating series against the eta-log difference.

    Left side: sum over odd w of the rank-2, d=1 moduli-side invariants.
    Right side: (2-2g) * 2^(2g-1) * (U(q) - U(-q)) with
    U(q) = log prod_{k>=1} (1 - q^k), computed as (2-2g) * 2^(2g) times
    the odd part of U, one ``Fraction`` per odd w from the sigma sieve.
    """
    return _series_identity(g, order, d=1)


def series_identity_even(g: int, order: int) -> SeriesIdentity:
    """Even-degree generating series against the eta-log sum.

    Left side: sum over even w >= 2 of the rank-2, d=0 moduli-side
    invariants.  Right side: (2-2g) * 2^(2g-1) * (U(q) + U(-q)), computed
    as (2-2g) * 2^(2g) times the even part of U, one ``Fraction`` per
    even w >= 2 from the sigma sieve.
    """
    return _series_identity(g, order, d=0)
