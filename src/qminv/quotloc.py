"""Wall-crossing components over Quot schemes on an elliptic curve.

For a quasimap degree w >= 1 the wall locus splits into one component per
divisor m of w, each a Quot scheme of quotients of the unique stable
bundle of rank r and degree a.  This module enumerates those components,
computes their dimensions, stabilizer orders and slice Euler
characteristics (the rank-0 quotient case by brute-force torus
localization over all fixed-locus decompositions, each read off from its
partial sums), and extracts each component's z-residue contribution.

One rule gives every stabilizer: the torsion subgroup E[dim] of the
component's dimension, of order ``torsion_order(dim)`` = dim^2.  Two
quotient classes are fully analysed: u = (0, k), where dim = r*k and the
slice Euler characteristic is r*k, and u = (r-1, k), where the slice is a
projective space of dimension dim - 1 = r(k-a) + a - 1.  Components
outside these classes carry ``supported=False``, and the rule is
conjectural for them; whether a query may use them is decided once, by
``invariants.unproven_reason``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement

from .arith import ChernClass, InvariantQuery, divisors, solve_base_degrees, torsion_order
from .exactalg import EquivCoeff, laurent_residue

_MAX_SLICE_VISITS = 10**8  # about 10 s of slice brute force, at some 10**7 decompositions a second


def quot_dimension(r: int, a: int, u: ChernClass) -> int:
    """Dimension r*deg(u) - a*rk(u) of the Quot component of class u.

    This bilinear form reproduces both analysed cases: r(k-a)+a for
    u = (r-1, k) and r*k for u = (0, k).  ``wall_components`` checks the
    result against w/m, so no component has a negative dimension.
    """
    return r * u.deg - a * u.rank


def slice_euler_bruteforce(r: int, u: ChernClass) -> int:
    """Euler characteristic of the fixed-determinant slice for u = (0, k).

    Visits every fixed-locus decomposition u_1 + ... + u_r = u into classes
    (0, k_i), k_i >= 0, read off from its partial sums s_1 <= ... <= s_{r-1}
    in [0, k], and checks the total against the closed value r*k before
    returning it.  A decomposition contributes zero as soon as two parts
    are nonzero (the locus then carries a free translation action); it has
    a single nonzero part, of degree k, exactly when every partial sum is
    0 or k, and then contributes the Euler characteristic k of the
    projective slice.  The visit is one ``map`` of ``ends.issuperset`` over
    the partial-sum tuples, summed at C level: the same tuples a Python
    loop would visit, with no memo and no budget, times k.
    """
    if u.rank != 0:
        raise ValueError(f"fixed-locus enumeration needs a rank-0 class, got rank {u.rank}")
    k = u.deg
    if k < 1:
        raise ValueError("quotient degree must be >= 1")
    ends = {0, k}
    total = k * sum(map(ends.issuperset, combinations_with_replacement(range(k + 1), r - 1)))
    if total != r * k:
        raise RuntimeError(
            f"fixed-locus enumeration for (r,k)=({r},{k}) gave {total}, "
            f"expected {r * k}"
        )
    return total


def normal_bundle_inverse_expansion(m: int, dim: int) -> dict[int, EquivCoeff]:
    """Inverse equivariant Euler class of a component's virtual normal bundle.

    The z-expansion starts 1 + (-m z)^{-1} c_1 + ..., where the first
    Chern class of the twisted Hom complex is dim * (omega - t).  Only the
    z^-1 term is built, as ``{-1: -c_1/m}`` (``{}`` when dim = 0): the z^0
    term carries no t and no omega, so no degree reads it, and terms at
    z^-2 and below cannot contribute to any degree, because the base is a
    curve.  The pole -(dim/m) * (omega - t) is written as a literal from
    one ``Fraction(dim, m)``.
    """
    if m < 1:
        raise ValueError(f"divisor must be >= 1, got {m}")
    if not dim:
        return {}
    pole = Fraction(dim, m)
    return {-1: EquivCoeff(t=pole, omega=-pole)}


class WallComponent(namedtuple("WallComponent", "divisor twist quotient_class dim stab_order slice_euler supported")):
    """One divisor's Quot-scheme component of the wall locus.

    The base degrees are (c1, ch2) = (rk(u), -deg(u)) * w for the
    canonical class u = ``canonical_u_choice(r, a)``, so m divides both;
    no component exists when c1 is not d mod r (the space is empty).
    twist is the unique integer h with h*r - c1/m in [0, r-1], and h >= 1
    since rk(u) >= 1; the quotient class is h*(r, a) - (c1/m, ch2/m).
    dim = (a*c1 - r*ch2)/m equals w/m for every component, by the
    second equation of ``solve_base_degrees``, and ``wall_components``
    checks it.  stab_order is
    ``torsion_order(dim)`` = |E[dim]| = dim^2.  supported is False when the
    quotient rank is outside the analysed classes {0, r-1}, where that
    order is conjectural.
    """

    __slots__ = ()


def wall_components(query: InvariantQuery) -> list[WallComponent]:
    """Enumerate the wall components of a degree-w >= 1 query: one per m | w, none if c1 != d mod r.

    Before any brute force, ``ValueError`` refuses a query whose rank-0 classes (0, k) would make the
    slice brute force visit more than ``_MAX_SLICE_VISITS`` decompositions, C(k + r - 1, r - 1) each.
    A class with min(k, r - 1) above the budget's bit length b counts C(k + r - 1, b) >= 2**b instead.
    """
    if query.w < 1:
        raise ValueError("wall components exist only for quasimap degree w >= 1")
    r, a = query.r, query.a
    c1, ch2 = solve_base_degrees(r, a, query.w)
    if c1 % r != query.d % r:
        return []
    classes, visits = [], 0
    for m in divisors(query.w):
        x1, x2 = c1 // m, ch2 // m
        h = -(-x1 // r)
        u_m = ChernClass(h * r - x1, h * a - x2)
        dim = quot_dimension(r, a, u_m)
        if dim != query.w // m:
            raise RuntimeError(f"component m={m} has dimension {dim}, expected w/m = {query.w // m}")
        visits += math.comb(u_m.deg + r - 1, min(u_m.deg, r - 1, _MAX_SLICE_VISITS.bit_length())) if u_m.rank == 0 else 0
        classes.append((m, h, u_m, dim))
    if visits > _MAX_SLICE_VISITS:
        raise ValueError(f"the slice brute force for r={r}, w={query.w} would visit at least {visits} decompositions, "
                         f"above the budget of {_MAX_SLICE_VISITS}: use --route closed")
    return [WallComponent(m, h, u, dim, torsion_order(dim), slice_euler_bruteforce(r, u) if u.rank == 0 else dim, u.rank in (0, r - 1))
            for m, h, u, dim in classes]


def component_residue_degree(component: WallComponent, genus: int) -> Fraction:
    """Degree of a component's z-residue, as the coefficient of t.

    The component's virtual class is point-supported along the base
    curve, so only the t-linear part of the residue survives the product;
    taking degree then pairs in the (2g-2) factor and the orbifold Euler
    ratio slice_euler / stab_order.  The product is built as one
    ``Fraction`` over integer numerator and denominator.  For both analysed
    classes the result collapses to (2g-2)/m.
    """
    t = laurent_residue(
        normal_bundle_inverse_expansion(component.divisor, component.dim)
    ).t
    return Fraction(
        t.numerator * (2 * genus - 2) * component.slice_euler,
        t.denominator * component.stab_order,
    )
