"""Partial sums, the binomial-raising polynomial, and the convergence estimate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncgauss import ball, expansion
from truncgauss.ball import MultiIndex, Spectrum, ball_integral, ball_integral_1d
from truncgauss.errors import CapabilityError, DomainError, NumericError
from truncgauss.expansion import (
    _c_value,
    _term_profile_log,
    convergence_estimate,
    expand_alpha,
    gamma_nn_expansion_coeff,
)
from truncgauss.eta import eta_combinatorial, q_polynomial
from truncgauss.moments import correlation_set


class TestQPolynomial:
    def test_one_definition_under_every_name(self):
        import truncgauss

        assert q_polynomial is truncgauss.q_polynomial

    def test_degree_zero(self):
        assert q_polynomial(0, 3.7, -1.2) == 1.0

    def test_degree_one(self):
        for x, a in [(0.5, 2.0), (3.0, -0.5)]:
            assert q_polynomial(1, x, a) == pytest.approx(x + a)

    def test_degree_two(self):
        for x, a in [(0.5, 2.0), (1.5, -0.25), (4.0, 0.0)]:
            assert q_polynomial(2, x, a) == pytest.approx(
                x * x + 2 * a * x + a * (a + 1.0))

    @given(st.integers(min_value=0, max_value=8),
           st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=40)
    def test_unit_leading_coefficient(self, k, a):
        # at large x the polynomial is dominated by x^k with coefficient one
        big = 1e8
        assert q_polynomial(k, big, a) == pytest.approx(big ** k, rel=1e-5)


SPEC2 = Spectrum((1.0, 4.0))


class TestExpandAlpha:
    def test_order_zero_factorizes(self):
        rho = 7.0
        part = expand_alpha({0: 2}, 0, rho, SPEC2)
        expected = (ball_integral_1d(2, rho, 1.0).value
                    * ball_integral_1d(0, rho, 4.0).value)
        assert part.value == pytest.approx(expected, rel=1e-13)
        assert part.terms == (part.value,)

    def test_term_prefactor_structure(self):
        rho = 9.0
        part = expand_alpha({0: 0}, 2, rho, SPEC2)
        reduced = Spectrum((4.0,))
        rest = ball_integral_1d(0, rho, 4.0).value
        expected_t2 = (0.5 / rho ** 2
                       * ball_integral_1d(2, rho, 1.0).value * rest
                       * eta_combinatorial(2, rho, reduced))
        assert part.terms[2] == pytest.approx(expected_t2, rel=1e-12)

    def test_one_family_per_geometry(self, monkeypatch):
        # the reduced (2, 3) spectrum is one family: 5 leaf multiplicities,
        # each shared by both outer rules; alpha_0..alpha_4 at lambda = 1
        # take the chi-square mixture, with no incomplete gamma call
        gammas = []
        real = ball._lower_incomplete_gamma_vec

        def counted(s, x):
            gammas.append(s)
            return real(s, x)

        monkeypatch.setattr(ball, "_lower_incomplete_gamma_vec", counted)
        ball._alpha_quad.cache_clear()
        expand_alpha({0: 0}, 4, 30.0, Spectrum((1, 2, 3)))
        assert sorted(gammas) == [k + 0.5 for k in range(5)]

    def test_higher_order_tightens(self):
        rho = 40.0
        exact = ball_integral(MultiIndex((0, 0)), rho, SPEC2).value
        p0 = expand_alpha({0: 0}, 0, rho, SPEC2)
        p2 = expand_alpha({0: 0}, 2, rho, SPEC2)
        assert abs(p2.value - exact) < abs(p0.value - exact)

    def test_residual_order_scaling(self):
        # relative residual of the order-P sum falls like the (P+1)-th power
        # of the inverse radius; the second variance is huge so the reduced
        # factors stay flat across the schedule
        spec = Spectrum((1.0, 2000.0))
        rhos = (20.0, 40.0, 80.0)
        for order in (0, 1, 2):
            resid = []
            for rho in rhos:
                exact = ball_integral(MultiIndex((0, 0)), rho, spec).value
                part = expand_alpha({0: 0}, order, rho, spec)
                resid.append(abs(part.value - exact) / exact)
            slope = -np.polyfit(np.log(rhos), np.log(resid), 1)[0]
            assert order + 0.7 <= slope <= order + 1.3, (
                f"order {order}: slope {slope}")

    def test_error_sign_matches_first_omitted_term(self):
        # every correction term is negative at large radius (the alternating
        # prefactor and the alternating coefficient-function signs cancel),
        # so partial sums approach from above and each error carries the
        # sign of the first omitted term
        rho = 60.0
        exact = ball_integral(MultiIndex((0, 0)), rho, SPEC2).value
        for order in (0, 1):
            sums = expand_alpha({0: 0}, order + 1, rho, SPEC2)
            first_omitted = sums.terms[order + 1]
            err = exact - sum(sums.terms[: order + 1])
            assert math.copysign(1.0, err) == math.copysign(1.0, first_omitted)
        s0 = expand_alpha({0: 0}, 0, rho, SPEC2).value
        s1 = expand_alpha({0: 0}, 1, rho, SPEC2).value
        assert abs(s1 - exact) < abs(s0 - exact)

    def test_pair_expansion_consistency(self):
        # two-direction split converges to the pair integral
        spec = Spectrum((1.0, 2.0, 3.0))
        rho = 60.0
        exact = ball_integral(MultiIndex((1, 1, 0)), rho, spec).value
        errs = [abs(expand_alpha({0: 1, 1: 1}, order, rho, spec).value
                    - exact) for order in (0, 1, 2)]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] / exact < 1e-3

    def test_pair_two_dimensional_reduced_is_trivial(self):
        # with v = 2 the reduced spectrum is empty: order-zero term only
        spec = Spectrum((1.0, 2.0))
        rho = 12.0
        part = expand_alpha({0: 1, 1: 1}, 2, rho, spec)
        assert part.terms[1] == 0.0 and part.terms[2] == 0.0
        expected = (ball_integral_1d(1, rho, 1.0).value
                    * ball_integral_1d(1, rho, 2.0).value)
        assert part.value == pytest.approx(expected, rel=1e-13)

    def test_pair_term_prefactor_structure(self):
        # order 2 of the pair target: the binomial sum over the two slices
        rho = 9.0
        spec = Spectrum((1.0, 2.0, 3.0))
        part = expand_alpha({0: 1, 1: 1}, 2, rho, spec)
        a_n = [ball_integral_1d(k, rho, 1.0).value for k in range(4)]
        a_m = [ball_integral_1d(k, rho, 2.0).value for k in range(4)]
        x, y = 1.0 / rho, 2.0 / rho
        inner = (y * y * a_n[1] * a_m[3] + 2.0 * x * y * a_n[2] * a_m[2]
                 + x * x * a_n[3] * a_m[1])
        expected_t2 = (0.5 * inner * ball_integral_1d(0, rho, 3.0).value
                       * eta_combinatorial(2, rho, Spectrum((3.0,))))
        assert part.terms[2] == pytest.approx(expected_t2, rel=1e-12)

    def test_orders_past_four_keep_converging(self):
        # the combinatorial route of eta is the one order cap: orders 5 and
        # 6 keep shrinking the mass residual, order 7 is past the cap
        spec = Spectrum((1.0, 2.0, 3.0))
        rho = 60.0
        exact = ball_integral(MultiIndex((0, 0, 0)), rho, spec).value
        resid = [abs(expand_alpha({0: 0}, order, rho, spec).value - exact) / exact
                 for order in (4, 5, 6)]
        assert resid[2] < resid[1] < resid[0]
        assert resid[2] < 5e-9
        with pytest.raises(CapabilityError, match="k <= 6"):
            expand_alpha({0: 0}, 7, rho, spec)

    def test_any_set_of_dimensions(self):
        # three sliced dimensions, one with a base multiplicity, converge
        # to their integral with no target of their own
        spec = Spectrum((1.0, 2.0, 3.0, 4.0))
        rho = 60.0
        exact = ball_integral(MultiIndex((0, 1, 0, 0)), rho, spec).value
        errs = [abs(expand_alpha({0: 0, 1: 1, 2: 0}, order, rho, spec).value - exact)
                for order in (0, 1, 2)]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] / exact < 1e-3
        part = expand_alpha({2: 0, 0: 0, 1: 1}, 2, rho, spec)
        assert part.sliced == ((2, 0), (0, 0), (1, 1))
        assert part.value == pytest.approx(
            expand_alpha({0: 0, 1: 1, 2: 0}, 2, rho, spec).value, rel=1e-14)

    @pytest.mark.parametrize("sliced", [
        [0], None, "0", {}, {2: 0}, {-1: 0}, {1.5: 0}, {"0": 0},
        {0: -1}, {0: 1.5}, {0: None}, {0: 1, 1: 1.5},
    ], ids=["list", "none", "string", "empty", "dimension-past-v",
            "negative-dimension", "non-integral-dimension", "string-dimension",
            "negative-multiplicity", "non-integral-multiplicity",
            "none-multiplicity", "non-integral-second-multiplicity"])
    def test_malformed_sliced_is_domain_error(self, sliced):
        # a None multiplicity leaked TypeError through the old k argument
        with pytest.raises(DomainError):
            expand_alpha(sliced, 1, 7.0, SPEC2)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            expand_alpha({0: 0}, -1, 7.0, SPEC2)
        assert (expand_alpha({0: 1, 1.0: 1}, 1, 1.0, SPEC2)
                == expand_alpha({0: 1, 1: 1}, 1, 1.0, SPEC2))


class TestGammaNNCoefficient:
    @pytest.mark.parametrize("n", [-1, 2])
    def test_dimension_out_of_range(self, n):
        with pytest.raises(DomainError):
            gamma_nn_expansion_coeff(n, 5.0, SPEC2)

    def test_finite_radius_approaches_limit(self):
        # the bracket tends to its infinite-radius value 15 - 9 + 2 = 8
        vals = [gamma_nn_expansion_coeff(0, rho, SPEC2)
                for rho in (10.0, 30.0, 90.0)]
        gaps = [abs(v - 8.0) for v in vals]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-6

    def test_matches_observed_first_order_correction(self):
        # The scaled-variance deficit divided by the expansion's own
        # prefactor recovers the bracket.  The next order contributes a
        # relative remainder proportional to the variance ratio of the
        # sliced to the reduced dimension (the second coefficient function
        # grows linearly in the reduced truncation strength), so the
        # comparison is run along a ladder of doubling reduced variances
        # at fixed shape: the excess must halve each step and die out.
        excesses = []
        for lam2 in (12.0, 24.0, 48.0):
            rho = 4.0 * lam2
            spec = Spectrum((1.0, lam2))
            full = correlation_set(rho, spec).gamma[0][0]
            one = correlation_set(rho, Spectrum((1.0,))).gamma[0][0]
            eta1 = eta_combinatorial(1, rho, spec.drop(0))
            measured = (one - full) / (1.0 / rho ** 3 * eta1)
            bracket = gamma_nn_expansion_coeff(0, rho, spec)
            excesses.append(measured / bracket - 1.0)
        assert abs(excesses[-1]) < 0.1
        for a, b in zip(excesses, excesses[1:]):
            assert abs(b) < 0.6 * abs(a)

    def test_variance_converges_to_one_dimensional(self):
        spec = Spectrum((1.0, 2.0, 3.0))
        gaps = []
        for rho in (6.0, 18.0, 54.0):
            full = correlation_set(rho, spec).gamma[0][0]
            one = correlation_set(rho, Spectrum((1.0,))).gamma[0][0]
            gaps.append(abs(full - one))
        assert gaps[2] < gaps[1] < gaps[0]


class TestConvergenceEstimate:
    def test_edge_maximum_is_bracket_failure(self, monkeypatch):
        # a profile increasing over the whole grid peaks at its last node,
        # which leaves no cell on its right to bracket the maximum
        monkeypatch.setattr(expansion, "_term_profile_log",
                            lambda p, phi_star, log_x: log_x)
        with pytest.raises(NumericError, match="v=4, p=7"):
            _c_value(4, 7)

    def test_fit_window_validation(self):
        with pytest.raises(DomainError):
            convergence_estimate(1, 50, 100)
        with pytest.raises(DomainError):
            convergence_estimate(3, 100, 50)
        with pytest.raises(DomainError):
            convergence_estimate(11, 50, 100)

    def test_three_dimensional_closed_form(self):
        # with the middle dimension the profile is a single monomial whose
        # maximum is at x = p, giving C(p) = p^p e^-p / p!
        est = convergence_estimate(3, 20, 30)
        for p, c in zip(est.p_values, est.c_values):
            expected = math.exp(p * math.log(p) - p - math.lgamma(p + 1))
            assert c == pytest.approx(expected, rel=1e-9)

    def test_monotonicity_flip_at_six(self):
        for v, increasing in ((2, False), (5, False), (6, True), (9, True)):
            est = convergence_estimate(v, 50, 100)
            diffs = np.diff(est.c_values)
            assert np.all(diffs > 0) == increasing
            assert np.all(diffs < 0) == (not increasing)

    def test_positive_values(self):
        est = convergence_estimate(4, 50, 60)
        assert all(c > 0 for c in est.c_values)

    def test_non_integral_dimension_raises(self):
        with pytest.raises(DomainError):
            convergence_estimate(2.5, 50, 60)

    def test_string_arguments_raise(self):
        # "3" used to leak TypeError from the range comparison
        for args in (("3", 50, 60), (3, "50", 60), (3, 50, 60.5)):
            with pytest.raises(DomainError):
                convergence_estimate(*args)

    @pytest.mark.parametrize("v", [2, 3, 4, 5, 6, 7, 8])
    def test_maximizer_matches_bounded_brent(self, v):
        # scipy's bounded Brent search on the lobe the first grid picks
        from scipy.optimize import minimize_scalar

        phi_star = (v - 3) / 2.0
        grid = np.linspace(math.log(1e-3), math.log(1e3), 400)
        for p in (50, 75, 100, 200):
            i = int(np.argmax(_term_profile_log(p, phi_star, grid)))
            best = minimize_scalar(
                lambda t: -_term_profile_log(p, phi_star, np.array([t]))[0],
                bounds=(grid[i - 1], grid[i + 1]), method="bounded",
                options={"xatol": 1e-12})
            assert _c_value(v, p) == pytest.approx(
                math.exp(-best.fun) / p, rel=1e-10)

    def test_nine_dimensions_match_mpmath(self):
        # C(p) at the top v and p accepted, from a 40-digit profile: the best
        # node of a log grid, refined to the root of P' = P, where
        # log|P(x)| - x is flat; 1e-8 is the benchmark gate's bound
        import mpmath

        p = 200
        with mpmath.workdps(40):
            terms = [(mpmath.rf(-3, ell)
                      / (mpmath.factorial(ell) * mpmath.factorial(p - 1 - ell)),
                      p - ell + 3) for ell in range(p)]

            def poly(x):
                return mpmath.fsum(c * x ** k for c, k in terms)

            def slope(x):
                return mpmath.fsum(c * k * x ** (k - 1) for c, k in terms)

            grid = [mpmath.exp(t) for t in
                    mpmath.linspace(math.log(1e-3), math.log(1e3), 600)]
            start = max(grid, key=lambda x: mpmath.log(abs(poly(x))) - x)
            x = mpmath.findroot(lambda x: slope(x) / poly(x) - 1, start)
            want = float(abs(poly(x)) * mpmath.exp(-x) / p)
        assert convergence_estimate(9, p - 1, p).c_values[-1] == pytest.approx(
            want, rel=1e-8)

    @pytest.mark.parametrize("v, p, want", [
        (6, 41, 0.7138720507930127),
        (10, 150, 423.3067234758385),
        (10, 194, 569.0975960303125),
    ])
    def test_higher_of_two_near_equal_lobes(self, v, p, want):
        # 40-digit references from the three highest lobes of a 600-point
        # grid, each refined.  At the first two the first grid's best node
        # sits on the lower lobe (0.7116 at v = 6, p = 41; 390.56 at v = 10,
        # p = 150); the third is v = 10's largest error, 6.8e-9
        assert convergence_estimate(v, p - 1, p).c_values[-1] == pytest.approx(
            want, rel=1e-8)

    def test_profile_is_pinned(self):
        # (v, p, grid node) -> profile value, as float.hex
        grid = np.linspace(math.log(1e-3), math.log(1e3), 400)
        pinned = {
            (2, 50, 331): "-0x1.b877eef34efc8p+3",
            (3, 1, 100): "-0x1.bd123c510f1afp+1",
            (5, 3, 250): "0x1.040468bdb7080p-3",
            (5, 40, 320): "-0x1.5a40f83553ae0p+0",
            (6, 200, 380): "-0x1.d509cbb76f6d8p+6",
            (4, 100, 10): "-0x1.1ff22a36c5289p+4",
        }
        for (v, p, i), want in pinned.items():
            got = _term_profile_log(p, (v - 3) / 2.0, grid)[i]
            assert float(got).hex() == want, (v, p, i)


class TestOneIndexUpperBound:
    def test_bound_on_grid(self):
        # single-index integrals sit below the power-law envelope
        for k in range(1, 7):
            for ratio in np.linspace(0.5, 50.0, 40):
                lam = 1.3
                rho = ratio * lam
                val = ball_integral_1d(k, rho, lam).value
                bound = (1.0 / (math.sqrt(2.0 * math.pi) * k)
                         * ratio ** (k + 0.5))
                assert val < bound
