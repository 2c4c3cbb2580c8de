"""Exact coefficient algebra: enumeration, convolution, weights, sign law."""

import math
from fractions import Fraction

import pytest

from truncgauss import xi
from truncgauss.errors import DomainError
from truncgauss.special import double_factorial
from truncgauss.xi import (
    enumerate_exponents,
    gap_convolution_check,
    gap_limit_coefficient,
    inverse_mass_identity_check,
    omega,
    omega_inequality_scan,
    power_count,
    psi,
    psi_grouped,
    xi_alpha_limit,
    xi_product,
)

# number of integer partitions of 0..12
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


class TestEnumeration:
    def test_small_cases(self):
        assert enumerate_exponents(1, 1) == ((1,),)
        assert set(enumerate_exponents(2, 2)) == {(2, 0), (0, 1)}

    def test_lexicographic_order(self):
        tails = enumerate_exponents(4, 4)
        assert tails == tuple(sorted(tails))

    def test_counts_are_partition_numbers(self):
        for q in range(0, 13):
            assert len(enumerate_exponents(q, q)) == PARTITIONS[q]

    def test_zero_above_power_count(self):
        for tail in enumerate_exponents(6, 3):
            assert all(e == 0 for e in tail[3:])

    def test_power_count(self):
        assert power_count((2, 0, 1)) == 2 + 3
        # the zeroth exponent of a full vector carries no power
        assert power_count((5, 1, 2)[1:]) == 5

    def test_bounds(self):
        with pytest.raises(DomainError):
            enumerate_exponents(xi._Q_MAX + 1, 1)

    def test_non_integral_arguments_raise(self):
        # q = 2.5 used to give the q = 2 tails, m = 2.5 a TypeError
        with pytest.raises(DomainError):
            enumerate_exponents(2.5, 2)
        with pytest.raises(DomainError):
            enumerate_exponents(2, 2.5)
        assert enumerate_exponents(2.0, 2) == enumerate_exponents(2, 2)


class TestXiProduct:
    def test_identity_element(self):
        one = {(0, (0,)): Fraction(1)}
        assert xi_product(one, one, 2) == one
        f = {(0, (1,)): Fraction(3), (2, (0, 0, 1)): Fraction(-1, 2)}
        assert xi_product(one, f, 2) == f == xi_product(f, one, 2)

    def test_single_integral_product_grouping(self):
        # the product of two single-integral maps is supported exactly on
        # patterns with two unit entries (or one entry equal to two) whose
        # positions sum to the order
        def single_map(k, q_max):
            out = {}
            for q in range(q_max + 1):
                e = (0,) * q + (1,)
                out[(q, e)] = Fraction(
                    double_factorial(2 * (k + q) - 1), math.factorial(q))
            return out

        r, s = 1, 2
        f, g = single_map(r, 4), single_map(s, 4)
        q = 3
        # two distinct unit positions 1 and 2: contributions from both splits
        product = xi_product(f, g, 4)
        got = product[(q, (0, 1, 1, 0))]
        want = (Fraction(double_factorial(2 * (r + 1) - 1), 1)
                * Fraction(double_factorial(2 * (s + 2) - 1), math.factorial(2))
                + Fraction(double_factorial(2 * (r + 2) - 1), math.factorial(2))
                * Fraction(double_factorial(2 * (s + 1) - 1), 1))
        assert got == want
        # doubled entry at position 2 needs an even order split 2 + 2
        got = product[(4, (0, 0, 2, 0, 0))]
        want = (Fraction(double_factorial(2 * (r + 2) - 1), 2)
                * Fraction(double_factorial(2 * (s + 2) - 1), 2))
        assert got == want
        # a pattern nobody can build vanishes
        assert (3, (1, 1, 1, 0)) not in product
        # pairs whose orders sum past q_max are left out
        assert max(order for order, _ in product) == 4
        assert (5, (0, 0, 1, 1, 0, 0)) not in product

    @staticmethod
    def _random_map(rng, q_max, zeroth=3):
        # small signed coefficients, so that some products cancel to zero
        return {(q, (e0,) + tail): Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                for q in range(q_max + 1) for e0 in range(zeroth)
                for tail in enumerate_exponents(q, q) if rng.random() < 0.6}

    def test_matches_split_definition_on_random_maps(self):
        # the coefficient at (q, e) is the sum over componentwise splits
        # e = c + d and order splits q = ell + m of f(ell, c) g(m, d), where
        # c is zero past position ell and d past position m
        import itertools
        import random

        def terms(f, g, q, e):
            out = []
            for c in itertools.product(*(range(x + 1) for x in e)):
                d = tuple(x - y for x, y in zip(e, c))
                for ell in range(q + 1):
                    m = q - ell
                    if not (any(c[ell + 1:]) or any(d[m + 1:])):
                        out.append(f.get((ell, c[:ell + 1]), 0)
                                   * g.get((m, d[:m + 1]), 0))
            return out

        rng = random.Random(11)
        q_max = 6
        f, g = self._random_map(rng, q_max), self._random_map(rng, q_max)
        product = xi_product(f, g, q_max)
        targets = [(q, (e0,) + tail) for q in range(q_max + 1) for e0 in range(5)
                   for tail in enumerate_exponents(q, q)]
        want = {key: terms(f, g, *key) for key in targets}
        assert product == {key: sum(t) for key, t in want.items() if sum(t)}
        # some targets have nonzero terms that cancel, and are left out
        assert any(any(t) and not sum(t) for t in want.values())

    def test_associativity_on_random_maps(self):
        import random

        rng = random.Random(7)
        f, g, h = (self._random_map(rng, 3, zeroth=2) for _ in range(3))
        left = xi_product(xi_product(f, g, 3), h, 3)
        right = xi_product(f, xi_product(g, h, 3), 3)
        assert left == right
        assert left

    @pytest.mark.parametrize("key", [(1, (0,)), (0, (0, 0)), (2, (0, 1))])
    def test_vector_length_must_match_order(self, key):
        one = {(0, (0,)): Fraction(1)}
        with pytest.raises(DomainError, match="length"):
            xi_product({key: Fraction(1)}, one, 3)
        with pytest.raises(DomainError, match="length"):
            xi_product(one, {key: Fraction(1)}, 3)


def _decrement(tail, *positions):
    out = list(tail)
    for pos in positions:
        out[pos - 1] -= 1
    return tuple(out)


class TestPinnedRoutes:
    def test_weights_and_gap_from_psi_grouped_through_twelve(self):
        # omega0, omega1 and the gap coefficient written out from the
        # enumerating split weight; psi must equal it on every split used
        for q in range(1, 13):
            def split(p, sub):
                grouped = psi_grouped(p, sub)
                assert psi(p, sub) == grouped, (p, sub)
                return grouped

            for tail in enumerate_exponents(q, q):
                om1 = sum(ell * ell * split(q - ell, _decrement(tail, ell))
                          for ell in range(1, q + 1) if tail[ell - 1] >= 1)
                om0 = sum((r - s) ** 2 * split(q - r - s, _decrement(tail, r, s))
                          for r in range(1, q + 1) for s in range(1, r)
                          if r + s <= q and tail[r - 1] >= 1
                          and tail[s - 1] >= 1)
                weight = math.prod(
                    Fraction(double_factorial(2 * k - 1), math.factorial(k)) ** e
                    for k, e in enumerate(tail, start=1))
                gap = 4 * (-1) ** sum(tail) * weight * (om0 - om1)
                assert omega(0, q, tail) == om0, tail
                assert omega(1, q, tail) == om1, tail
                assert gap_limit_coefficient(q, tail) == gap, tail


class TestSingleIntegralLimit:
    def test_order_zero(self):
        assert xi_alpha_limit(0, (0,), 0) == 1
        assert xi_alpha_limit(0, (0,), 3) == double_factorial(5)

    def test_order_one(self):
        assert xi_alpha_limit(1, (0, 1), 1) == 3
        assert xi_alpha_limit(1, (0, 1), 0) == 1

    def test_wrong_pattern_vanishes(self):
        assert xi_alpha_limit(2, (0, 2, 0), 1) == 0
        assert xi_alpha_limit(2, (0, 1, 0), 1) == 0
        assert xi_alpha_limit(3, (0, 0, 0, 1), 2) == Fraction(
            double_factorial(2 * 5 - 1), 6)

    def test_non_integral_exponent_raises(self):
        # (0, 1.5) used to read as (0, 1)
        with pytest.raises(DomainError):
            xi_alpha_limit(1, (0, 1.5), 0)
        assert xi_alpha_limit(1, (0.0, 1.0), 0) == 1

    def test_tail_form_rejected(self):
        # only the full vector (e_0, ..., e_q) is accepted
        with pytest.raises(DomainError):
            xi_alpha_limit(1, (1,), 0)
        with pytest.raises(DomainError):
            xi_alpha_limit(2, (0, 1), 1)


class TestPsi:
    def test_base_cases(self):
        assert psi(0, ()) == 1
        assert psi(0, (0, 0)) == 1
        assert psi(1, (1,)) == 2

    def test_wrong_power_count_vanishes(self):
        # both routes return 0 before they look at any split
        for p, tail in ((2, (1,)), (1, (0, 1)), (0, (1, 1)), (5, (2, 1))):
            assert power_count(tail) != p
            assert psi(p, tail) == psi_grouped(p, tail) == 0

    def test_negative_entry_raises(self):
        with pytest.raises(DomainError):
            psi(1, (-1, 1))
        with pytest.raises(DomainError):
            psi(2, (3, -1))
        with pytest.raises(DomainError):
            psi(0, (-1,))

    def test_grouped_negative_entry_raises(self):
        # the grouped route rejects what psi rejects
        for p, tail in ((1, (-1, 1)), (1, (3, -1)), (0, (-1,))):
            with pytest.raises(DomainError):
                psi_grouped(p, tail)

    @pytest.mark.parametrize("route", [psi, psi_grouped])
    def test_non_integral_entry_raises(self, route):
        # (1.5,) used to read as (1,), giving 2
        with pytest.raises(DomainError):
            route(1, (1.5,))
        assert route(1, (1.0,)) == 2

    def test_hand_value(self):
        # (2, 0): splits (0|2), (1|1), (2|0) each with unit weights -> 3
        assert psi(2, (2, 0)) == 3
        # (0, 1): the 2-part moves whole -> 2
        assert psi(2, (0, 1)) == 2
        # (1, 1, 1): the two full/empty splits carry 3! each, the six
        # proper splits carry 2 each -> 24
        assert psi(6, (1, 1, 1)) == 24

    def test_routes_agree_exhaustively(self):
        for q in range(0, 9):
            for tail in enumerate_exponents(q, q):
                assert psi(q, tail) == psi_grouped(q, tail)


class TestOmega:
    def test_low_order_values(self):
        assert omega(0, 1, (1,)) == 0 and omega(1, 1, (1,)) == 1
        assert omega(0, 2, (2, 0)) == 0 and omega(1, 2, (2, 0)) == 2
        assert omega(0, 2, (0, 1)) == 0 and omega(1, 2, (0, 1)) == 4

    def test_first_nonzero_pairing(self):
        # order three with tail (1, 1, 0): positions 1 and 2 pair up
        assert omega(0, 3, (1, 1, 0)) == 1 * psi(0, (0, 0, 0))

    def test_power_count_mismatch_raises(self):
        with pytest.raises(DomainError):
            omega(0, 2, (1, 0))
        with pytest.raises(DomainError):
            omega(1, 3, (1, 0, 1))

    @pytest.mark.parametrize("which", [0, 1])
    def test_negative_entry_raises(self, which):
        # power count 3 is met, but no tail has a negative part
        with pytest.raises(DomainError):
            omega(which, 3, (-1, 2))

    @pytest.mark.parametrize("which", [0, 1])
    def test_non_integral_entry_raises(self, which):
        # (0.9, 1) used to read as (0, 1)
        with pytest.raises(DomainError):
            omega(which, 2, (0.9, 1))

    def test_empty_tail(self):
        assert omega(0, 0, ()) == 0 and omega(1, 0, ()) == 0


class TestGapLimit:
    def test_reference_values(self):
        assert gap_limit_coefficient(1, (1,)) == 4
        assert gap_limit_coefficient(2, (2, 0)) == -8
        assert gap_limit_coefficient(2, (0, 1)) == 24

    def test_third_order_hand_values(self):
        # (0,0,1): single weight 9, prefactor 4*(5!!/3!)    -> +90
        # (1,1,0): weights 1 vs 10, prefactor 4*(3!!/2!)    -> -54
        # (3,0,0): single weight 3, unit semifactorials     -> +12
        assert gap_limit_coefficient(3, (0, 0, 1)) == 90
        assert gap_limit_coefficient(3, (1, 1, 0)) == -54
        assert gap_limit_coefficient(3, (3, 0, 0)) == 12

    def test_sign_law_exhaustive(self):
        for q in range(1, 7):
            for tail in enumerate_exponents(q, q):
                value = gap_limit_coefficient(q, tail)
                want = (-1) ** (sum(tail) - 1)
                assert value != 0
                assert (1 if value > 0 else -1) == want

    def test_omega_gap_strict_through_eight(self):
        for q in range(1, 9):
            for tail in enumerate_exponents(q, q):
                assert omega(0, q, tail) < omega(1, q, tail)

    def test_non_integral_entry_raises(self):
        # (1.5,) used to read as (1,), giving 4
        with pytest.raises(DomainError):
            gap_limit_coefficient(1, (1.5,))

    def test_order_is_checked_as_an_integer(self):
        # a string order used to reach the power-count message
        with pytest.raises(DomainError, match="q must be an integer"):
            gap_limit_coefficient("2", (0, 1))
        value = gap_limit_coefficient(2.0, (0, 1))
        assert type(value) is Fraction and value == Fraction(24)

    @pytest.mark.parametrize("q, tail", [(3, (-1, 2)), (1, (1, 0)), (2, (1, 0))])
    def test_tail_outside_the_order_raises(self, q, tail):
        # a negative entry, a tail longer than q, a wrong power count
        with pytest.raises(DomainError):
            gap_limit_coefficient(q, tail)

    def test_order_zero_vanishes(self):
        assert gap_limit_coefficient(0, ()) == 0

    def test_magnitude_when_no_pairings(self):
        for q in range(1, 7):
            for tail in enumerate_exponents(q, q):
                if omega(0, q, tail) == 0:
                    weight = Fraction(1)
                    for k, e in enumerate(tail, start=1):
                        weight *= Fraction(double_factorial(2 * k - 1),
                                           math.factorial(k)) ** e
                    assert abs(gap_limit_coefficient(q, tail)) == (
                        4 * weight * omega(1, q, tail))


def _identity_failures(q_max):
    """Tails through q_max where omega1 - omega0 != M q^2 / n, with
    M = n! / prod e_k! written out from factorials."""
    bad = []
    for q in range(1, q_max + 1):
        for tail in enumerate_exponents(q, q):
            n = sum(tail)
            mass = Fraction(math.factorial(n),
                            math.prod(math.factorial(e) for e in tail))
            if xi.omega(1, q, tail) - xi.omega(0, q, tail) != mass * q * q / n:
                bad.append(tail)
    return bad


class TestSignLawIdentity:
    def test_identity_and_closed_form_through_sixteen(self):
        # Lagrange's identity on the closed omegas, and the closed-form gap
        # coefficient against the convolution route, which never reads omega
        assert _identity_failures(16) == []
        assert gap_convolution_check(16).all_ok

    def test_a_wrong_omega_fails_the_identity(self, monkeypatch):
        real = xi.omega
        monkeypatch.setattr(xi, "omega", lambda which, q, tail: real(which, q, tail)
                            + (which == 0 and tuple(tail) == (1, 1, 0)))
        assert _identity_failures(4) == [(1, 1, 0)]
        assert {c.name for c in omega_inequality_scan(4).failures} == {"sign-law[q=3]"}


class TestScans:
    def test_omega_inequality_scan(self):
        report = omega_inequality_scan(8)
        assert report.all_ok
        names = [c.name for c in report.checks]
        assert "pointwise-weight-inequality" in names

    def test_convolution_routes_agree(self):
        report = gap_convolution_check(4)
        assert report.all_ok
        # each admissible tail gets its own comparison line
        count = sum(1 for c in report.checks
                    if c.name.startswith("route-equivalence"))
        assert count == sum(PARTITIONS[q] for q in range(1, 5))

    def test_numerator_denominator_supports(self, monkeypatch):
        # the gap numerator allows a unit zeroth exponent, the squared
        # inverse mass does not; both maps are read as the product gets them
        real, maps = xi.xi_product, []
        monkeypatch.setattr(xi, "xi_product",
                            lambda f, g, q: maps.append((f, g)) or real(f, g, q))
        gap_convolution_check(1)
        numerator, inverse_squared = maps[0]
        assert numerator[(1, (1, 1))] == 4
        assert (1, (0, 1)) not in numerator
        assert inverse_squared[(1, (0, 1))] == -2
        assert (1, (1, 1)) not in inverse_squared

    def test_route_equivalence_fails_on_a_wrong_inverse_mass(self, monkeypatch):
        # doubling the order-1 squared-inverse-mass coefficient, through its
        # split weight, breaks the convolved route wherever it meets the
        # order-1 numerator
        real = xi.psi
        monkeypatch.setattr(xi, "psi", lambda p, tail: real(p, tail)
                            * (2 if p == 1 else 1))
        report = gap_convolution_check(3)
        assert {c.name for c in report.failures} == {
            "route-equivalence[q=2,e=(2, 0)]",
            "route-equivalence[q=3,e=(1, 1, 0)]"}

    def test_weight_checks_fail_on_swapped_weights(self, monkeypatch):
        # swapping omega0 and omega1 must fail every sign-law entry, while
        # the pointwise inequality does not read omega
        real = xi.omega
        monkeypatch.setattr(xi, "omega",
                            lambda which, q, tail: real(1 - which, q, tail))
        report = omega_inequality_scan(4)
        assert {c.name for c in report.failures} == {f"sign-law[q={q}]" for q in range(1, 5)}

    def test_inverse_mass_identity(self):
        report = inverse_mass_identity_check(4)
        assert report.all_ok

    @pytest.mark.parametrize("check", [omega_inequality_scan,
                                       gap_convolution_check,
                                       inverse_mass_identity_check])
    def test_non_integral_order_raises(self, check):
        # each used to raise TypeError from range()
        with pytest.raises(DomainError):
            check(2.5)

    @pytest.mark.parametrize("q_max", [-3, -1, xi._Q_MAX + 1])
    def test_inverse_mass_identity_order_range(self, q_max):
        # a negative order would pass with no checks at all
        with pytest.raises(DomainError):
            inverse_mass_identity_check(q_max)


class TestFailingMargins:
    """A failing exact check prints a margin below 0, a passing one +0.0 or more."""

    def _margin(self, report, name):
        check = next(c for c in report.checks if c.name == name)
        assert not check.ok
        assert {math.copysign(1.0, c.margin) for c in report.checks if c.ok} == {1.0}
        return check.margin

    def test_pointwise_weight_inequality(self, monkeypatch):
        # a four-part tail of power count 2 meets the bound with equality,
        # which only a one-part tail may
        real = xi.enumerate_exponents
        monkeypatch.setattr(xi, "enumerate_exponents", lambda q, m: real(q, m)
                            + (((4, 0, 0),) if (q, m) == (3, 2) else ()))
        report = omega_inequality_scan(3)
        assert self._margin(report, "pointwise-weight-inequality") == -1.0

    def test_omega_gap(self, monkeypatch):
        # the gap stays positive, but off the identity on one tail
        real = xi.omega
        monkeypatch.setattr(xi, "omega", lambda which, q, tail: real(which, q, tail)
                            + (which == 0 and tuple(tail) == (1, 1, 0)))
        assert self._margin(omega_inequality_scan(3), "sign-law[q=3]") == -1.0

    def test_sign_law(self, monkeypatch):
        real = xi.gap_limit_coefficient
        monkeypatch.setattr(xi, "gap_limit_coefficient", lambda q, tail: real(q, tail)
                            + (tuple(tail) == (1, 1, 0)))
        report = omega_inequality_scan(3)
        assert self._margin(report, "sign-law[q=3]") == -1.0

    def test_route_equivalence(self, monkeypatch):
        real = xi.gap_limit_coefficient
        monkeypatch.setattr(xi, "gap_limit_coefficient", lambda q, tail: real(q, tail)
                            + Fraction(1, 2) * (tuple(tail) == (1, 1, 0)))
        report = gap_convolution_check(3)
        assert self._margin(report, "route-equivalence[q=3,e=(1, 1, 0)]") == -0.5

    def test_identity(self, monkeypatch):
        real = xi.xi_alpha_limit
        monkeypatch.setattr(xi, "xi_alpha_limit", lambda q, e, k: real(q, e, k)
                            + Fraction(1, 4) * (q == 1))
        report = inverse_mass_identity_check(2)
        assert self._margin(report, "identity[q=1,e=(1,)]") == -0.25
