"""Coefficient functions: exact tables, evaluation routes, asymptotics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from truncgauss import ball
from truncgauss import eta as eta_mod
from truncgauss.ball import MultiIndex, Spectrum, ball_integral
from truncgauss.errors import CapabilityError, DomainError, NumericError
from truncgauss.eta import (
    asymptotic_checks,
    coefficient_table,
    eta_combinatorial,
    eta_fd_oracle,
    q_polynomial,
    radial_derivative_envelope,
)
from truncgauss.special import raising_factorial, stirling_first_unsigned, stirling_second


class TestCoefficientTable:
    def test_first_order_entries(self):
        for v in (1, 2, 3, 5):
            t = coefficient_table(v, 2)
            assert t.d[1][0] == Fraction(v, 2)
            assert t.d[1][1] == Fraction(-1, 2)
            assert t.c[1][0] == Fraction(v, 2)
            assert t.c[1][1] == Fraction(-1, 2)

    def test_second_order_row(self):
        for v in (1, 2, 3, 4):
            t = coefficient_table(v, 2)
            assert t.d[2][0] == Fraction(v * v, 4)
            assert t.d[2][1] == Fraction(-(v + 1), 2)
            assert t.d[2][2] == Fraction(1, 4)

    def test_third_order_row(self):
        v = 3
        t = coefficient_table(v, 3)
        assert t.d[3][0] == Fraction(v ** 3, 8)
        assert t.d[3][1] == Fraction(-(3 * v * v + 6 * v + 4), 8)
        assert t.d[3][2] == Fraction(3 * v + 6, 8)
        assert t.d[3][3] == Fraction(-1, 8)

    def test_phi_recurrence_and_quotient(self):
        t = coefficient_table(6, 5)
        assert t.phi[0] == 1
        for k in range(1, 6):
            assert t.phi[k] == (6 - 2 * k + 2) * t.phi[k - 1]
        # where the semifactorial quotient is defined they agree
        assert t.phi[1] == 6
        assert t.phi[2] == 6 * 4
        assert t.phi[3] == 6 * 4 * 2

    def test_phi_degenerate_dimensions(self):
        # odd v keeps alternating signs; even v hits zero and stays there
        t_even = coefficient_table(2, 5)
        assert t_even.phi[2] == 0 and t_even.phi[3] == 0
        t_odd = coefficient_table(1, 5)
        assert t_odd.phi[:5] == (1, 1, -1, 3, -15)

    def test_d_recurrence_exact(self):
        for v in (1, 2, 3, 5, 8):
            t = coefficient_table(v, 11)
            for k in range(11):
                for ell in range(k + 2):
                    prev = t.d[k][ell - 1] if ell >= 1 else Fraction(0)
                    assert t.d[k + 1][ell] == (
                        (Fraction(v, 2) + ell) * t.d[k][ell] - Fraction(1, 2) * prev
                    )

    def test_signed_composition_reproduces_c(self):
        # contracting the d rows with signed first-kind numbers gives c
        for v in (1, 2, 3, 4, 7):
            t = coefficient_table(v, 10)
            for k in range(1, 11):
                for m in range(k + 1):
                    total = sum(
                        (-1) ** (k - ell) * stirling_first_unsigned(k, ell)
                        * t.d[ell][m]
                        for ell in range(max(m, 1), k + 1)
                    )
                    assert total == t.c[k][m]

    def test_zero_outside_triangle(self):
        t = coefficient_table(3, 6)
        for k in range(7):
            for ell in range(k + 1, 7):
                assert t.d[k][ell] == 0
                assert t.c[k][ell] == 0

    def test_k_max_cap(self):
        with pytest.raises(DomainError):
            coefficient_table(2, 33)

    def test_tables_match_closed_forms_to_the_cap(self):
        # c and d against their closed forms, d written out as a triple sum
        # of c's terms, for every entry up to order 32
        for v in range(1, 13):
            t = coefficient_table(v, 32)
            phi = [1]
            for k in range(1, 33):
                phi.append((v - 2 * k + 2) * phi[k - 1])
            for k in range(33):
                for ell in range(k + 1):
                    assert t.c[k][ell] == Fraction(
                        (-1) ** ell * phi[k - ell] * math.comb(k, ell), 2 ** k)
                    assert t.d[k][ell] == sum(
                        Fraction((-1) ** ell * phi[t_ - ell] * stirling_second(k, t_)
                                 * math.comb(t_, ell), 2 ** t_)
                        for t_ in range(ell, k + 1))
                    assert type(t.c[k][ell]) is type(t.d[k][ell]) is Fraction


SPEC2 = Spectrum((1.0, 2.0))
SPEC3 = Spectrum((1.0, 2.0, 3.0))


class TestEtaValues:
    def test_zeroth_is_one(self):
        assert eta_combinatorial(0, 3.0, SPEC2) == 1.0
        assert eta_fd_oracle(0, 3.0, SPEC2) == 1.0

    def test_first_order_identity(self):
        # direct form: half the dimension minus half the summed ratios
        rho = 5.0
        base = ball_integral(MultiIndex.zero(2), rho, SPEC2).value
        summed = sum(
            ball_integral(MultiIndex.single(2, n), rho, SPEC2).value
            for n in range(2)
        )
        expected = 1.0 - 0.5 * summed / base
        assert eta_combinatorial(1, rho, SPEC2) == pytest.approx(expected, rel=1e-13)

    def test_one_family_pass(self, monkeypatch):
        # the zero index and the 19 compositions of orders 1..3 share one
        # pass: one leaf per multiplicity k_1 = 0..3, shared by both outer rules
        gammas = []
        real = ball._lower_incomplete_gamma_vec

        def counted(s, x):
            gammas.append(s)
            return real(s, x)

        monkeypatch.setattr(ball, "_lower_incomplete_gamma_vec", counted)
        ball._alpha_quad.cache_clear()
        eta_combinatorial(3, 5.0, SPEC3)
        assert sorted(gammas) == [0.5, 1.5, 2.5, 3.5]
        # at v = 1 each member is its own chi-square mixture, with no
        # incomplete gamma call
        gammas.clear()
        eta_combinatorial(2, 5.0, Spectrum((1.3,)))
        assert gammas == []

    def test_index_sum_ratio_multiplicity_grouping(self):
        # grouped compositions equal the naive sum over ordered insertions
        rho = 3.0
        base = ball_integral(MultiIndex.zero(2), rho, SPEC2).value
        naive = 0.0
        for i in range(2):
            for j in range(2):
                ks = [0, 0]
                ks[i] += 1
                ks[j] += 1
                naive += ball_integral(MultiIndex(tuple(ks)), rho, SPEC2).value
        assert eta_mod._index_sum_ratios((2,), rho, SPEC2)[1][2] == pytest.approx(
            naive / base, rel=1e-13)

    def test_oracle_equivalence_battery(self):
        # Twelve points, orders one to three at each.  Radii sit where the
        # pinned finite-difference step resolves the third derivative and
        # away from zero crossings of the coefficient functions.
        battery = [
            (Spectrum((1.0,)), (2.0, 3.0, 4.0)),
            (SPEC2, (2.0, 3.0, 4.0, 5.0, 8.0)),
            (SPEC3, (2.0, 8.0, 11.0, 16.0)),
        ]
        assert sum(len(rhos) for _, rhos in battery) == 12
        for spec, rhos in battery:
            for rho in rhos:
                for k in (1, 2, 3):
                    comb = eta_combinatorial(k, rho, spec)
                    fd = eta_fd_oracle(k, rho, spec)
                    assert abs(comb - fd) / max(abs(comb), 1e-10) < 1e-3, (
                        f"v={spec.v}, rho={rho}, k={k}: {comb} vs {fd}")

    def test_oracle_tight_at_low_orders(self):
        for k in (1, 2):
            comb = eta_combinatorial(k, 5.0, SPEC2)
            fd = eta_fd_oracle(k, 5.0, SPEC2)
            assert abs(comb - fd) / abs(comb) < 1e-4

    def test_vanishing_at_large_radius(self):
        for k in (1, 2, 3, 4):
            assert abs(eta_combinatorial(k, 200.0, SPEC2)) < 1e-8

    def test_limit_signs(self):
        # positive, negative, positive, negative at large radius
        for k in (1, 2, 3, 4):
            val = eta_fd_oracle(k, 30.0, SPEC2)
            assert math.copysign(1.0, val) == (-1.0) ** (k - 1)
            val_c = eta_combinatorial(k, 30.0, SPEC2)
            assert math.copysign(1.0, val_c) == (-1.0) ** (k - 1)

    def test_scaled_derivative_linearity(self):
        # iterated scaled radial derivatives match the d-table contraction
        rho = 4.0
        spec = SPEC2
        table = coefficient_table(2, 3)
        base = ball_integral(MultiIndex.zero(2), rho, spec).value
        ratios = eta_mod._index_sum_ratios(range(4), rho, spec)[1]

        def alpha(r):
            return ball_integral(MultiIndex.zero(2), r, spec).value

        def plain_derivative(j):
            h = rho * 0.02

            def stencil(step):
                total = 0.0
                for i in range(j + 1):
                    total += ((-1) ** i * math.comb(j, i)
                              * alpha(rho + (j / 2.0 - i) * step))
                return total / step ** j

            return (4.0 * stencil(h / 2.0) - stencil(h)) / 3.0

        for k in (1, 2, 3):
            # (rho d/drho)^k through second-kind numbers on plain derivatives
            scaled = sum(
                stirling_second(k, j) * rho ** j * plain_derivative(j)
                for j in range(1, k + 1)
            )
            table_route = float(sum(
                float(table.d[k][ell]) * ratios[ell] for ell in range(k + 1)
            )) * base
            assert abs(scaled - table_route) / abs(table_route) < 1e-5

    def test_cost_cap(self):
        with pytest.raises(CapabilityError):
            eta_combinatorial(7, 1.0, SPEC2)
        with pytest.raises(DomainError):
            eta_fd_oracle(5, 1.0, SPEC2)


class TestAsymptoticReport:
    def test_reference_schedule_passes(self):
        report = asymptotic_checks(SPEC3, 4, (20.0, 40.0, 80.0))
        assert report.passed
        names = [c.name for c in report.checks]
        assert any(name.startswith("limit-sign[k=1]") for name in names)
        assert any(name.startswith("envelope[k=4") for name in names)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP 4(h): on an isotropic spectrum the envelope is the exact "
        "|rho^k d^k alpha|, while |eta_k| alpha is formed from O(1) ratios with "
        "no bar, so rounding alone fails it; item 6(b) is the fix"))
    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 1.0), (1.0, 1.0, 1.0),
                                      (1.0, 1.0, 1.0, 1.0), (1.0,) * 5],
                             ids=["v1", "v2", "v3", "v4", "v5"])
    def test_isotropic_schedule_passes(self, lams):
        # at (1, 1), envelope[k=1,rho=80] reads |eta_1| alpha = 1.11e-14 against
        # the bound 1.70e-16, which is the true 40 e^-40: 65 times too large
        assert asymptotic_checks(Spectrum(lams), 4, (20.0, 40.0, 80.0)).passed

    @pytest.mark.parametrize("eta1, name, margin", [
        ((3e-3, 4e-3, 1e-3), "vanishing[k=1]", -1e-3),
        ((3e-3, -2e-3, 1e-3), "limit-sign[k=1]", -2e-3),
    ], ids=["vanishing", "limit-sign"])
    def test_failing_check_has_a_negative_margin(self, monkeypatch, eta1, name, margin):
        # the tail rises then falls, or its sign flips then returns: the
        # endpoints alone would read as a pass
        schedule = (20.0, 40.0, 80.0)
        values = dict(zip(schedule, eta1))
        monkeypatch.setattr(eta_mod, "_etas",
                            lambda k_max, rho, spectrum: (1.0, (1.0, values[rho])))
        report = asymptotic_checks(SPEC3, 1, schedule)
        check = next(c for c in report.checks if c.name == name)
        assert not check.ok and check.margin == pytest.approx(margin, rel=1e-12)

    def test_polynomial_overflow_is_numeric_error(self):
        # x^2 past float range leaked OverflowError; at lambda_min = 1e-300
        # the envelope's range ends at rho / 2e-300
        with pytest.raises(NumericError, match="Q_2"):
            q_polynomial(2, 1e300, 0.0)
        with pytest.raises(NumericError):
            radial_derivative_envelope(3, 1.0, Spectrum((1e-300, 1.0)))

    def test_envelope_is_exact_form_at_first_order(self):
        # degree-zero polynomial factor: bound is prefactor times the decay
        env = radial_derivative_envelope(1, 30.0, SPEC3)
        det_sqrt = math.sqrt(1.0 * 2.0 * 3.0)
        pref = 30.0 ** 1.5 / (2.0 ** 1.5 * math.gamma(1.5) * det_sqrt)
        assert env == pytest.approx(pref * math.exp(-30.0 / 6.0), rel=1e-12)

    @pytest.mark.parametrize("k, rho, lams", [
        (4, 8.5, (1.0, 1.0, 1.0, 1.0, 4.0)),
        (3, 8.5, (1.0, 1.0, 1.0, 1.0, 4.0)),
        (4, 20.0, (0.3, 0.4, 0.5)),
        (5, 12.0, (1.0, 1.5, 2.0, 6.0)),
    ])
    def test_envelope_takes_the_polynomial_maximum(self, k, rho, lams):
        # |Q_{k-1}| over the attainable range, from its ends and the real
        # roots of Q_{k-2}, against 2,000,001 points; the first case peaks
        # inside the range, 2.1e-5 above the best of the 257-point grid the
        # bound used to take
        spec = Spectrum(lams)
        v, a = len(lams), 1.0 - len(lams) / 2.0
        x = np.linspace(rho / (2.0 * max(lams)), rho / (2.0 * min(lams)), 2_000_001)
        coeffs = [math.comb(k - 1, ell) * raising_factorial(a, ell) for ell in range(k)]
        dense = float(np.max(np.abs(np.polyval(coeffs, x))))
        pref = (rho ** (v / 2.0) / (2.0 ** (v / 2.0) * math.gamma(v / 2.0)
                                    * math.sqrt(math.prod(lams)))
                * math.exp(-rho / (2.0 * max(lams))))
        poly_max = radial_derivative_envelope(k, rho, spec) / pref
        assert dense * (1.0 - 1e-12) <= poly_max <= dense * (1.0 + 1e-9)

    def test_one_family_read_per_radius(self, monkeypatch):
        # the mass and eta_1..eta_4 at each radius come from one call; the
        # older code read one family per (k, radius) and the mass apart: 28
        calls = []
        real = ball.ball_integrals

        def counted(indices, rho, spectrum):
            calls.append(rho)
            return real(indices, rho, spectrum)

        for module in (ball, eta_mod):  # ball_integral reads ball's name
            monkeypatch.setattr(module, "ball_integrals", counted)
        asymptotic_checks(SPEC3, 4, (20, 40, 80))
        assert calls == [20.0, 40.0, 80.0]

    def test_schedule_must_increase(self):
        with pytest.raises(DomainError):
            asymptotic_checks(SPEC3, 2, (10.0, 10.0))

    def test_empty_schedule(self):
        with pytest.raises(DomainError):
            asymptotic_checks(SPEC3, 2, ())

    def test_needs_an_order(self):
        # k_max = 0 would pass with no checks at all
        spec = Spectrum((1.0, 2.0))
        with pytest.raises(DomainError):
            asymptotic_checks(spec, 0, (20.0, 40.0))
