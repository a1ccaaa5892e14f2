"""Wall components, slice Euler characteristics, and residues."""

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import ceil, comb, gcd

import pytest

import qminv.quotloc as quotloc
from qminv.arith import ChernClass, InvariantQuery, canonical_u_choice, divisors, solve_base_degrees
from qminv.exactalg import EquivCoeff, laurent_residue
from qminv.invariants import UnsupportedQueryError, qm_elliptic_oracle
from qminv.quotloc import (
    WallComponent,
    component_residue_degree,
    normal_bundle_inverse_expansion,
    quot_dimension,
    slice_euler_bruteforce,
    wall_components,
)

F = Fraction


def _solve_degree_system(r, a, w, u):
    """(c1, ch2) from c1*deg(u) + ch2*rk(u) = 0 and c1*a - ch2*r = w, by Cramer's rule.

    The determinant is -(r*deg(u) + a*rk(u)), -1 for every class that
    pairs to 1 with (r, a), so the solution is an integer pair; both
    equations are checked on it.
    """
    det = u.deg * -r - u.rank * a
    assert det == -1
    c1, ch2 = F(-u.rank * w, det), F(u.deg * w, det)
    assert c1.denominator == ch2.denominator == 1
    assert c1 * u.deg + ch2 * u.rank == 0 and c1 * a - ch2 * r == w
    return int(c1), int(ch2)


class TestQuotDimension:
    @pytest.mark.parametrize(
        "r, a, u, expected",
        [
            (2, 1, ChernClass(1, 2), 3),
            (2, 1, ChernClass(0, 1), 2),
            (3, 1, ChernClass(2, 2), 4),
            (2, 1, ChernClass(0, 0), 0),
        ],
    )
    def test_examples(self, r, a, u, expected):
        assert quot_dimension(r, a, u) == expected

    def test_matches_case_formulas(self):
        # r(k-a)+a for quotient rank r-1, r*k for quotient rank 0
        for r in range(2, 6):
            for a in range(1, r):
                for k in range(a, a + 6):
                    assert quot_dimension(r, a, ChernClass(r - 1, k)) == r * (k - a) + a
                for k in range(1, 7):
                    assert quot_dimension(r, a, ChernClass(0, k)) == r * k

    def test_is_the_bilinear_form_off_the_components(self):
        # no guard: a class that no component has gets the plain form,
        # negative here; wall_components checks every dim against w/m
        assert quot_dimension(2, 1, ChernClass(3, 1)) == -1


class TestStabilizerOrder:
    @pytest.mark.parametrize(
        "r, a, u, expected",
        [
            (2, 1, ChernClass(1, 2), 9),
            (2, 1, ChernClass(0, 1), 4),
            (2, 1, ChernClass(1, 1), 1),
        ],
    )
    def test_examples(self, r, a, u, expected):
        # w = 6, d = 0 has a component of each of the three classes
        query = InvariantQuery(r=r, d=0, a=a, w=6, g=2)
        [component] = [c for c in wall_components(query) if c.quotient_class == u]
        assert component.stab_order == expected

    def test_unsupported_rank_strict(self):
        # r=5, a=2, d=3, w=1: the only component is u = (2, 1), outside
        # {0, 4}; strict mode rejects the query, not the component
        query = InvariantQuery(r=5, d=3, a=2, w=1, g=2)
        [component] = wall_components(query)
        assert component.quotient_class == ChernClass(2, 1) and not component.supported
        with pytest.raises(UnsupportedQueryError, match="outside \\{0, 2\\} mod 5"):
            qm_elliptic_oracle(query)

    def test_unsupported_rank_permissive_fallback(self):
        [component] = wall_components(InvariantQuery(r=5, d=3, a=2, w=1, g=2))
        assert component.stab_order == component.dim * component.dim


class TestSliceEuler:
    @pytest.mark.parametrize("r, k, expected", [(2, 1, 2), (3, 4, 12), (5, 1, 5)])
    def test_examples(self, r, k, expected):
        assert slice_euler_bruteforce(r, ChernClass(0, k)) == expected

    def test_degenerate(self):
        with pytest.raises(ValueError, match="quotient degree must be >= 1"):
            slice_euler_bruteforce(2, ChernClass(0, 0))

    def test_needs_rank_zero(self):
        with pytest.raises(ValueError):
            slice_euler_bruteforce(2, ChernClass(1, 1))

    def test_decomposition_count_and_contributions(self, monkeypatch):
        # the brute force visits each partial-sum tuple s_1 <= ... <= s_{r-1}
        # in [0, k] once; only the r tuples with every s_i in {0, k} (one
        # nonzero part) contribute, k each
        r, k = 3, 5
        visited = []

        def recording(pool, n):
            for sums in itertools.combinations_with_replacement(pool, n):
                visited.append(sums)
                yield sums

        monkeypatch.setattr(quotloc, "combinations_with_replacement", recording)
        assert slice_euler_bruteforce(r, ChernClass(0, k)) == r * k == 15
        assert len(visited) == len(set(visited)) == comb(k + r - 1, r - 1)
        assert visited == list(itertools.combinations_with_replacement(range(k + 1), r - 1))

        def skip_first(pool, n):
            # drops (0, 0): the decomposition whose last part is k
            sums = itertools.combinations_with_replacement(pool, n)
            return itertools.islice(sums, 1, None)

        monkeypatch.setattr(quotloc, "combinations_with_replacement", skip_first)
        with pytest.raises(RuntimeError, match="gave 10, expected 15"):
            slice_euler_bruteforce(r, ChernClass(0, k))


class TestNormalBundleExpansion:
    def test_rank_zero_class(self):
        f = normal_bundle_inverse_expansion(1, 0)
        assert f == {}
        assert laurent_residue(f) == EquivCoeff()

    def test_general_shape(self):
        for m in (1, 2, 3, 5):
            for dim in (1, 3, 7):
                # the pole in u = m*z has integer slots; the z-residue divides each by m
                f = normal_bundle_inverse_expansion(m, dim)
                expected = EquivCoeff(t=F(dim, m), omega=F(-dim, m))
                assert list(f) == [-1] and all(type(v) is int for v in f[-1])
                assert EquivCoeff(*(F(v, m) for v in f[-1])) == expected
                assert laurent_residue(f) is f[-1]


class TestWallComponents:
    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="wall components exist only for quasimap degree w >= 1"):
            wall_components(InvariantQuery(r=2, d=0, a=1, w=0, g=2))

    def test_rank_two_odd_degree_component_shape(self):
        for w in range(1, 100, 2):
            query = InvariantQuery(r=2, d=1, a=1, w=w, g=2)
            for c in wall_components(query):
                x = w // c.divisor
                assert c.quotient_class == ChernClass(1, (x + 1) // 2)
                assert c.dim == x

    def test_component_ledger_rank_three(self):
        # w = 3^j * 7^i has every divisor in {0, 1} mod 3, so every
        # component is analysed; both quotient ranks 0 and 2 occur
        ranks = set()
        for w in (1, 3, 7, 9, 21, 27, 49, 63, 81):
            for d in (0, 1, 2):
                query = InvariantQuery(r=3, d=d, a=1, w=w, g=2)
                for c in wall_components(query):
                    ranks.add(c.quotient_class.rank)
                    assert c.supported
                    assert c.dim == w // c.divisor
                    assert c.stab_order == c.dim**2
                    assert c.dim * F(c.slice_euler, c.stab_order) == 1
        assert ranks == {0, 2}

    def test_twist_is_the_least_h_with_hr_at_least_x1(self):
        # the oracle's value ignores h, so the twist is pinned here: h is
        # the least integer with h*r >= x1, where (x1, x2) = (c1, ch2)/m;
        # d = c1 mod r is the congruent degree, so no query is empty
        twists = set()
        for r in (2, 3, 4, 5):
            for a in (a for a in range(1, r) if gcd(r, a) == 1):
                for w in range(1, 17):
                    c1, ch2 = solve_base_degrees(r, a, w)
                    query = InvariantQuery(r=r, d=c1 % r, a=a, w=w, g=2)
                    comps = wall_components(query)
                    assert comps
                    for c in comps:
                        x1 = F(c1, c.divisor)
                        x2 = F(ch2, c.divisor)
                        h = ceil(x1 / r)
                        assert 0 <= h * r - x1 < r
                        assert c.twist == h
                        assert c.quotient_class == ChernClass(h * r - x1, h * a - x2)
                        twists.add(h)
        # x1 = rk(u) * w/m >= 1 for the canonical class u
        assert min(twists) == 1 < max(twists)

    def test_shifted_normalisations_give_the_same_components(self):
        # u + s*(r, -a) pairs to 1 against (r, a) as u does; through the
        # component arithmetic it moves the twist, never a quotient class.
        # solve_base_degrees takes the canonical class only, so the system
        # is solved here for the shifted one
        twists = set()
        for r in (2, 3, 4, 5):
            for a in (a for a in range(1, r) if gcd(r, a) == 1):
                base = canonical_u_choice(r, a)
                for s, w in itertools.product((-1, 0, 1), range(1, 17)):
                    d = base.rank * w % r  # the congruent degree: the space is not empty
                    u = ChernClass(base.rank + r * s, base.deg - a * s)
                    c1, ch2 = _solve_degree_system(r, a, w, u)
                    if s == 0:
                        assert (c1, ch2) == solve_base_degrees(r, a, w)
                    shifted = []
                    for m in divisors(w):
                        x1, x2 = F(c1, m), F(ch2, m)
                        h = ceil(x1 / r)
                        u_m = ChernClass(h * r - x1, h * a - x2)
                        shifted.append((u_m, quot_dimension(r, a, u_m)))
                        twists.add(h)
                    canonical = wall_components(InvariantQuery(r=r, d=d, a=a, w=w, g=2))
                    assert shifted == [(c.quotient_class, c.dim) for c in canonical]
        assert min(twists) < 0 < max(twists)

    def test_empty_exactly_off_the_congruence(self):
        # wall_components alone decides emptiness: no component when
        # c1 = rk(u)*w is not d mod r (equivalently w != d*a mod r), and
        # otherwise one per m | w, each written out from its formulas
        for r in (2, 3, 4, 5):
            for a in (a for a in range(1, r) if gcd(r, a) == 1):
                u = canonical_u_choice(r, a)
                for d, w in itertools.product(range(r), range(1, 31)):
                    comps = wall_components(InvariantQuery(r=r, d=d, a=a, w=w, g=2))
                    c1, ch2 = u.rank * w, -u.deg * w
                    empty = c1 % r != d
                    assert empty == ((w - d * a) % r != 0)
                    if empty:
                        assert comps == []
                        continue
                    expected = []
                    for m in divisors(w):
                        x1, x2 = c1 // m, ch2 // m
                        h = -(-x1 // r)
                        quotient = ChernClass(h * r - x1, h * a - x2)
                        dim = w // m
                        euler = r * quotient.deg if quotient.rank == 0 else dim
                        expected.append((m, h, quotient, dim, dim * dim, euler, quotient.rank in (0, r - 1)))
                    assert [tuple(c) for c in comps] == expected
                    # == compares a namedtuple as a plain tuple, so the classes are asserted apart
                    assert {(type(c), type(c.quotient_class)) for c in comps} == {(WallComponent, ChernClass)}


class TestSliceBudget:
    # r = 3, w = 81: the rank-0 classes (0, 27), (0, 9), (0, 3), (0, 1) visit
    # 406 + 55 + 10 + 3 = 474 decompositions; the largest alone is under 473
    QUERY = InvariantQuery(r=3, d=0, a=1, w=81, g=2)

    def _record_visits(self, monkeypatch):
        visited = []

        def recording(pool, n):
            for sums in itertools.combinations_with_replacement(pool, n):
                visited.append(sums)
                yield sums

        monkeypatch.setattr(quotloc, "combinations_with_replacement", recording)
        return visited

    def test_budget_is_the_total_the_brute_force_visits(self, monkeypatch):
        visited = self._record_visits(monkeypatch)
        monkeypatch.setattr(quotloc, "_MAX_SLICE_VISITS", 474)
        ks = [c.quotient_class.deg for c in wall_components(self.QUERY) if c.quotient_class.rank == 0]
        assert ks == [27, 9, 3, 1]
        assert len(visited) == sum(comb(k + 2, 2) for k in ks) == 474

    def test_one_below_the_total_is_refused_before_any_visit(self, monkeypatch):
        visited = self._record_visits(monkeypatch)
        monkeypatch.setattr(quotloc, "_MAX_SLICE_VISITS", 473)
        message = "would visit at least 474 decompositions, above the budget of 473: use --route closed"
        with pytest.raises(ValueError, match=message):
            wall_components(self.QUERY)
        with pytest.raises(ValueError, match=message):
            qm_elliptic_oracle(self.QUERY)
        assert visited == []

    def test_large_classes_count_a_lower_bound(self):
        # r = 999983 is prime and w = r^2 proven: the class (0, r) would visit
        # C(2r - 1, r - 1) decompositions, counted as C(2r - 1, 27) >= 2**27,
        # 27 the budget's bit length, and the class (0, 1) as r
        r = 999983
        assert quotloc._MAX_SLICE_VISITS.bit_length() == 27
        with pytest.raises(ValueError) as refused:
            wall_components(InvariantQuery(r=r, d=0, a=1, w=r * r, g=2))
        assert f"would visit at least {comb(2 * r - 1, 27) + r} decompositions" in str(refused.value)

    def test_largest_bench_query_is_far_under_the_budget(self, monkeypatch):
        # the rank_deep workload's r = 2, w = 2^16: classes (0, 2^i) for i < 16,
        # C(2^i + 1, 1) each, 65551 in all
        query = InvariantQuery(r=2, d=0, a=1, w=2**16, g=2)
        assert len(wall_components(query)) == 17
        monkeypatch.setattr(quotloc, "_MAX_SLICE_VISITS", 65550)
        with pytest.raises(ValueError, match="would visit at least 65551 decompositions"):
            wall_components(query)


class TestComponentResidueDegree:
    def test_strict_rejects_conjectural_component(self):
        query = InvariantQuery(r=3, d=2, a=1, w=5, g=2)
        unsupported = next(c for c in wall_components(query) if not c.supported)
        assert component_residue_degree(unsupported, 2) == F(2, unsupported.divisor)
        with pytest.raises(UnsupportedQueryError):
            qm_elliptic_oracle(query)
        permissive = qm_elliptic_oracle(query, strict=False)
        assert permissive.conjectural
        assert (unsupported.divisor, F(2, unsupported.divisor)) in permissive.breakdown

    def test_residue_pipeline_matches_omega_pairing(self):
        # The omega slot of the residue, paired against the base curve and
        # weighted by the orbifold Euler ratio, reproduces the t-side value
        # up to the sign built into the omega - t twist.  The residue is read
        # in u = m*z, so its z-residue is its omega slot over m.
        rng = random.Random(5)
        for w, g in [(3, 2), (2, 3), *((rng.randrange(1, 60), rng.randrange(2, 6)) for _ in range(40))]:
            query = InvariantQuery(r=2, d=w % 2, a=1, w=w, g=g)
            for c in wall_components(query):
                residue = laurent_residue(
                    normal_bundle_inverse_expansion(c.divisor, c.dim)
                )
                ratio = F(c.slice_euler, c.stab_order)
                via_omega = -(2 * g - 2) * F(residue.omega, c.divisor) * ratio
                assert via_omega == component_residue_degree(c, g)
                assert via_omega == F(2 * g - 2, c.divisor)

    def test_one_fraction_per_component(self, monkeypatch):
        # the residue engine works in integers: the expansion builds no
        # Fraction, and the degree builds one, where it divides by m
        built = Counter()

        def counting(*args):
            built[sys._getframe(1).f_code.co_name] += 1
            return F(*args)

        monkeypatch.setattr(quotloc, "Fraction", counting)
        result = qm_elliptic_oracle(InvariantQuery(r=2, d=0, a=1, w=12, g=3))
        assert result.value_t == F(4 * 28, 12)
        assert len(result.breakdown) == 6
        assert built == {"component_residue_degree": 6}
