"""Built-in property suites for the ``selfcheck`` CLI command.

Each check re-derives a structural identity through an independent route
and reports a (name, passed, detail) triple.  The suite is sized to run
in a few tens of milliseconds; the full-depth versions live in the test
suite.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .arith import (
    ChernClass,
    InvariantQuery,
    canonical_u_choice,
    chi_pairing_elliptic,
    sigma_minus_one,
    solve_base_degrees,
)
from .exactalg import EquivCoeff, QSeries, laurent_residue, series_log_product
from .invariants import (
    ROUTE_ORACLE,
    qm_elliptic_closed,
    qm_elliptic_oracle,
    qm_moduli,
    series_identity_even,
    series_identity_odd,
    unproven_reason,
)
from .quotloc import (
    normal_bundle_inverse_expansion,
    slice_euler_bruteforce,
    wall_components,
)

Check = tuple[str, bool, str]


def _check_eta_log_divisor_sums() -> Check:
    order = 40
    series = series_log_product(order)
    bad = [
        w
        for w in range(1, order + 1)
        if series.coefficient(w) != -sigma_minus_one(w)
    ]
    return ("eta-log coefficients are -sigma_{-1}(w)", not bad, f"mismatches: {bad}")


def _check_negation_parity() -> Check:
    order = 41
    u = series_log_product(order)
    flipped = u.negate_variable()
    ok = flipped.negate_variable() == u
    diff, total = u - flipped, u + flipped
    ok = ok and all(diff.coefficient(w) == 0 for w in range(0, order + 1, 2))
    ok = ok and all(total.coefficient(w) == 0 for w in range(1, order + 1, 2))
    # the series identities' right side takes the parity part instead
    ok = ok and diff == u.parity_part(1).scale(2) and total == u.parity_part(0).scale(2)
    return ("variable negation is an involution with clean parity split", ok, "")


def _check_exp_euler_product() -> Check:
    # 15 = k(3k-1)/2 at k = -3: the top coefficient is -1, not 0, so a
    # product that drops its last terms shows
    order = 15
    product = QSeries.one(order)
    for k in range(1, order + 1):
        factor = [Fraction(0)] * (order + 1)
        factor[0], factor[k] = Fraction(1), Fraction(-1)
        product = product * QSeries(tuple(factor))
    # Euler's pentagonal-number theorem, built without QSeries.one:
    # prod_{k>=1} (1 - q^k) = sum over all integers k of (-1)^k q^(k(3k-1)/2)
    pentagonal = [0] * (order + 1)
    for k in range(-order, order + 1):
        exponent = k * (3 * k - 1) // 2
        if exponent <= order:
            pentagonal[exponent] += -1 if k % 2 else 1
    ok = series_log_product(order).exp() == product == QSeries(pentagonal)
    return ("exp of the eta-log recovers the Euler product", ok, "")


def _check_degree_solver() -> Check:
    rng = random.Random(7)
    ok = True
    for _ in range(60):
        r = rng.randrange(2, 9)
        a_candidates = [a for a in range(1, r) if math.gcd(r, a) == 1]
        a = rng.choice(a_candidates)
        base = canonical_u_choice(r, a)
        s = rng.randrange(-3, 4)
        u = ChernClass(base.rank + r * s, base.deg - a * s)
        ok = ok and chi_pairing_elliptic(ChernClass(r, a), u) == 1
        w = rng.randrange(0, 120)
        bd = solve_base_degrees(r, a, w, u)
        ok = ok and bd.c1 * u.deg + bd.ch2 * u.rank == 0
        ok = ok and bd.c1 * a - bd.ch2 * r == w
    return ("degree-vector solutions satisfy both equations", ok, "")


def _check_sigma_identities() -> Check:
    ok = True
    for w in range(1, 401):
        brute = sum(m for m in range(1, w + 1) if w % m == 0)
        ok = ok and sigma_minus_one(w) * w == brute
    for a, b in [(4, 9), (3, 5), (8, 27), (5, 7), (9, 16)]:
        ok = ok and sigma_minus_one(a * b) == sigma_minus_one(a) * sigma_minus_one(b)
    return ("divisor sums: sigma identities and multiplicativity", ok, "")


def _check_slice_euler() -> Check:
    bad = [
        (r, k)
        for r in range(2, 5)
        for k in range(1, 9)
        if slice_euler_bruteforce(r, ChernClass(0, k)) != r * k
    ]
    return ("brute-force slice Euler characteristics equal r*k", not bad, f"{bad}")


def _check_component_ledger() -> Check:
    # the proven-set rule reads the divisors of w mod r, a component's
    # quotient rank is -a^(-1) * (w/m) mod r: a query is proven exactly
    # when all its components are supported, on the congruence
    ok = True
    for r, a, top in ((2, 1, 60), (3, 1, 30), (3, 2, 30)):
        for w in range(1, top + 1):
            query = InvariantQuery(r=r, d=w * pow(a, -1, r) % r, a=a, w=w, g=2)
            components = wall_components(query)
            ok = ok and (unproven_reason(query) is None) == all(c.supported for c in components)
            for c in components:
                ok = ok and c.stab_order == c.dim**2
                ok = ok and c.dim * Fraction(c.slice_euler, c.stab_order) == 1
                ok = ok and c.dim == w // c.divisor
    return ("wall components: stabilizer and Euler ledger", ok, "")


def _check_oracle_matches_closed() -> Check:
    bad = []
    for d in (0, 1):
        for g in (2, 3):
            for w in range(1, 41):
                query = InvariantQuery(r=2, d=d, a=1, w=w, g=g)
                closed = qm_elliptic_closed(query)
                oracle = qm_elliptic_oracle(query)
                if closed.value_t != oracle.value_t:
                    bad.append((d, g, w))
    return ("wall-crossing oracle equals the closed form", not bad, f"{bad}")


def _check_series_identities() -> Check:
    ok = all(
        series_identity_odd(g, 30).equal and series_identity_even(g, 30).equal
        for g in (2, 3)
    )
    return ("generating-series identities hold", ok, "")


def _check_residue_pairing() -> Check:
    rng = random.Random(11)
    ok = True
    for _ in range(20):
        m = rng.randrange(1, 30)
        dim = rng.randrange(1, 30)
        g = rng.randrange(2, 6)
        f = normal_bundle_inverse_expansion(m, dim)
        residue = laurent_residue(f)
        # -dim/m * (omega - t), written out slot by slot
        expected = EquivCoeff(const=0, t=Fraction(dim, m), omega=Fraction(-dim, m))
        ok = ok and f[0] == EquivCoeff(1, 0, 0) and residue == expected
        value = residue.t * (2 * g - 2) * Fraction(1, dim)
        ok = ok and value == Fraction(2 * g - 2, m)
    return ("residue engine matches the symbolic expansion", ok, "")


def _check_correspondence_factor() -> Check:
    ok = True
    for w in (1, 2, 3, 6):
        for g in (2, 3):
            query = InvariantQuery(r=2, d=w % 2, a=1, w=w, g=g)
            elliptic = qm_elliptic_oracle(query)
            moduli = qm_moduli(query, route=ROUTE_ORACLE)
            ok = ok and moduli.value_t == elliptic.value_t * Fraction(2) ** (2 * g)
    return ("moduli-side values carry the r^(2g) factor", ok, "")


ALL_CHECKS = [
    _check_eta_log_divisor_sums,
    _check_negation_parity,
    _check_exp_euler_product,
    _check_degree_solver,
    _check_sigma_identities,
    _check_slice_euler,
    _check_component_ledger,
    _check_oracle_matches_closed,
    _check_series_identities,
    _check_residue_pairing,
    _check_correspondence_factor,
]


def run_selfcheck() -> list[Check]:
    """Run every check; one that raises is reported failed under its function name."""
    results = []
    for check in ALL_CHECKS:
        try:
            name, ok, detail = check()
        except Exception as exc:
            name, ok, detail = check.__name__, False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail if not ok else ""))
    return results
