"""Conditional moments, sign structure, crossover radius, inequality battery."""

import itertools
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

from truncgauss import ball, eta, expansion, moments
from truncgauss.ball import (IntegralValue, MultiIndex, Spectrum, ball_integral,
                             ball_integral_mc, ball_integrals_mc)
from truncgauss.errors import DomainError, NumericError
from truncgauss.moments import (
    MomentBatch,
    REGION_CROSSOVER,
    REGION_STRONG,
    REGION_WEAK,
    _second_moment,
    conditional_moments,
    correlation_set,
    holder_report,
    inequality_battery,
    marginal_density,
    rho_star,
    variance_gap_with_error,
)
from truncgauss.report import FAIL, NOISE_FACTOR, PASS, SLACK, VIOLATED_CLAIM, Report

SPEC3 = Spectrum((1.0, 2.0, 3.0))

# ROADMAP 4(c), split by the route that evaluates the ball integrals
_TINY_RADIUS_QUADRATURE = pytest.mark.xfail(strict=True, raises=NumericError, reason=(
    "ROADMAP 4(c): at rho = 1e-300 the v = 2..4 quadrature's integrals underflow to 0, "
    "and stage B (item 1) is the fix"))
_TINY_RADIUS_MIXTURE = pytest.mark.xfail(strict=True, raises=NumericError, reason=(
    "ROADMAP 4(c): at rho = 1e-300 the chi-square mixture's integrals underflow to 0, "
    "and item 18's factored scale is the fix"))


class TestConditionalMoments:
    def test_unconstrained_limits(self):
        m = conditional_moments(1e6, SPEC3)
        for n, lam in enumerate(SPEC3.lambdas):
            assert m.second[n] == pytest.approx(lam, rel=1e-9)
            assert m.fourth[n] == pytest.approx(3.0 * lam * lam, rel=1e-8)
            for k in range(3):
                if k != n:
                    assert m.cross[n][k] == pytest.approx(
                        SPEC3.lambdas[n] * SPEC3.lambdas[k], rel=1e-8)

    def test_one_dimensional_ratio_identity(self):
        spec = Spectrum((1.0,))
        m = conditional_moments(1.0, spec)
        num = ball_integral(MultiIndex((1,)), 1.0, spec).value
        den = ball_integral(MultiIndex((0,)), 1.0, spec).value
        assert m.second[0] == pytest.approx(num / den, rel=1e-14)

    def test_against_adaptive_quadrature_oracle(self):
        # fully independent route: adaptive quadrature of the density
        rho, lam = 2.4, 1.3
        edge = math.sqrt(rho)

        def phi(x):
            return math.exp(-x * x / (2 * lam)) / math.sqrt(2 * math.pi * lam)

        norm, _ = quad(phi, -edge, edge)
        e2_ref = quad(lambda x: x * x * phi(x), -edge, edge)[0] / norm
        e4_ref = quad(lambda x: x ** 4 * phi(x), -edge, edge)[0] / norm
        m = conditional_moments(rho, Spectrum((lam,)))
        assert m.second[0] == pytest.approx(e2_ref, rel=1e-10)
        assert m.fourth[0] == pytest.approx(e4_ref, rel=1e-10)

    def test_against_mc_oracle(self):
        rho = 10.0
        m = conditional_moments(rho, SPEC3)
        base = ball_integral_mc(MultiIndex.zero(3), rho, SPEC3, 2_000_000, seed=31)
        for n in range(3):
            mom = ball_integral_mc(MultiIndex.single(3, n), rho, SPEC3,
                                   2_000_000, seed=31)
            est = SPEC3.lambdas[n] * mom.mean / base.mean
            sigma = SPEC3.lambdas[n] * (
                mom.std_error / base.mean
                + mom.mean * base.std_error / base.mean ** 2)
            assert abs(m.second[n] - est) < 3.0 * sigma

    def test_moment_bounds(self):
        for rho in (0.5, 2.0, 9.0):
            m = conditional_moments(rho, SPEC3)
            for n, lam in enumerate(SPEC3.lambdas):
                assert 0.0 < m.second[n] <= min(lam, rho)
                assert 0.0 < m.fourth[n] <= min(3.0 * lam * lam, rho * rho)

    def test_mc_fallback_matches_quadrature(self):
        # the route past the mixture's term budget: a moment batch read from
        # one Monte Carlo pass over the order-2 family
        rho = 8.0
        quad = conditional_moments(rho, SPEC3)
        sampled = MomentBatch(rho, SPEC3, {
            index: IntegralValue(est.mean, est.std_error)
            for index, est in ball_integrals_mc(
                ball._index_family(3).values(), rho, SPEC3, 400_000, seed=91).items()})
        for n in range(3):
            assert sampled.second(n)[0] == pytest.approx(quad.second[n], rel=2e-2)
            assert sampled.product(n, n)[0] == pytest.approx(quad.fourth[n], rel=5e-2)

    @pytest.mark.parametrize("member, moment", [((0, 0, 1), "second"), ((0, 0, 2), "fourth")])
    def test_moment_past_its_bound_is_numeric_error(self, monkeypatch, member, moment):
        # a family whose alpha_k / alpha_0 puts E[X_2^2] or E[X_2^4] past
        # lambda_2 or 3 lambda_2^2; the error names the dimension
        real = moments.ball_integrals

        def inflated(indices, rho, spectrum):
            family = dict(real(indices, rho, spectrum))
            value = family[MultiIndex(member)]
            family[MultiIndex(member)] = IntegralValue(100.0 * value.value,
                                                        value.est_abs_error)
            return family

        monkeypatch.setattr(moments, "ball_integrals", inflated)
        with pytest.raises(NumericError, match=f"^{moment} moment .* at n=2, rho=5.0$"):
            conditional_moments(5.0, SPEC3)

    def test_default_route_beyond_quadrature_dimensions(self):
        # eight equal-variance dimensions: the mixture gives every coordinate
        # the isotropic closed form lambda P(v/2 + 1, x) / P(v/2, x)
        spec = Spectrum((1.0,) * 8)
        m = conditional_moments(6.0, spec)
        for n in range(8):
            assert m.second[n] == pytest.approx(gammainc(5, 3.0) / gammainc(4, 3.0),
                                                rel=1e-13)

    @pytest.mark.parametrize("v", [
        pytest.param(v, marks=_TINY_RADIUS_QUADRATURE if 2 <= v <= 4 else _TINY_RADIUS_MIXTURE)
        for v in range(1, 9)])
    def test_tiny_radius_reaches_the_uniform_limit(self, v):
        # E[X_n^2] / rho -> 1 / (v + 2), the uniform ball's second moment
        rho = 1e-300
        m = conditional_moments(rho, Spectrum(tuple(np.linspace(1.0, 3.0, v).tolist())))
        for n in range(v):
            assert abs(m.second[n] / rho - 1.0 / (v + 2)) <= 1e-12, n


class TestVarianceGap:
    def test_vanishes_at_large_radius(self):
        assert abs(variance_gap_with_error(0, 200.0, SPEC3).value) < 1e-9

    def test_nonpositive_in_proved_regime(self):
        # below twice the variance the sign is guaranteed
        for n, lam in enumerate(SPEC3.lambdas):
            for frac in (0.2, 0.8, 1.5, 2.0):
                rho = frac * lam
                assert variance_gap_with_error(n, rho, SPEC3).value <= 0.0

    def test_error_estimate_positive(self):
        value, err = variance_gap_with_error(1, 4.0, SPEC3)
        assert err > 0.0
        assert abs(value) < 1.0

    def test_out_of_range_dimension(self):
        with pytest.raises(DomainError):
            variance_gap_with_error(3, 1.0, SPEC3)
        with pytest.raises(DomainError):
            variance_gap_with_error(-1, 1.0, SPEC3)

    def test_error_is_first_order_propagation(self):
        # the leading term of err is lam^2/rho^2 (r2 d2 + (2 r1^2 + 2 r1) d1),
        # with d_k the ratio's relative error to first order: the sum of the
        # two integrals' relative errors; the bar's higher-order terms are
        # products of these ~1e-16 errors
        n, rho = 1, 4.0
        base = ball_integral(MultiIndex.zero(3), rho, SPEC3)
        a1 = ball_integral(MultiIndex.single(3, n), rho, SPEC3)
        a2 = ball_integral(MultiIndex.single(3, n, 2), rho, SPEC3)
        r1, r2 = a1.value / base.value, a2.value / base.value
        d1, d2 = a1.rel_error + base.rel_error, a2.rel_error + base.rel_error
        pref = SPEC3.lambdas[n] ** 2 / rho ** 2
        want = pref * (r2 * d2 + (2.0 * r1 * r1 + 2.0 * r1) * d1)
        got = variance_gap_with_error(n, rho, SPEC3)[1]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestCorrelationSet:
    def test_scaled_variance_limit(self):
        # rescaled diagonal tends to 2 from below
        for lams in [(1.0,), (1.0, 2.0), (1.0, 2.0, 3.0)]:
            spec = Spectrum(lams)
            rho = 50.0 * spec.lambda_max
            cors = correlation_set(rho, spec)
            for n, lam in enumerate(lams):
                scaled = rho * rho / (lam * lam) * cors.gamma[n][n]
                assert 1.95 <= scaled <= 2.0

    def test_symmetry_exact(self):
        cors = correlation_set(4.0, SPEC3)
        for n in range(3):
            for m in range(3):
                assert cors.gamma[n][m] == cors.gamma[m][n]

    def test_covariances_nonpositive_on_grid(self):
        for rho in np.geomspace(1.0, 30.0, 8):
            cors = correlation_set(float(rho), SPEC3)
            for n in range(3):
                for m in range(n + 1, 3):
                    assert cors.gamma[n][m] <= 1e-14

    def test_offdiagonal_decays_superpolynomially(self):
        # remove the quadratic prefactor; the rest must still fall faster
        # than a fourth power across the window (it is in fact exponential)
        rhos = np.geomspace(10.0 * 3.0, 40.0 * 3.0, 8)
        for n, m in [(0, 1), (0, 2), (1, 2)]:
            vals = []
            for rho in rhos:
                cors = correlation_set(float(rho), SPEC3)
                vals.append(abs(cors.gamma[n][m]) * rho ** 2
                            / (SPEC3.lambdas[n] * SPEC3.lambdas[m]))
            slope = np.polyfit(np.log(rhos), np.log(vals), 1)[0]
            assert slope < -4.0

    @pytest.mark.parametrize("n, m", [(0, 1), (0, 2), (1, 2)])
    def test_offdiagonal_below_first_order(self, n, m):
        # the two ratio series share their zeroth- and first-order terms, so
        # the scaled covariance sits a power of lambda_max / rho below the
        # first order: at rho = 30 the margin is 3.2x for (1, 2), 18x for (0, 1)
        rho = 30.0
        lam_n, lam_m = SPEC3.lambdas[n], SPEC3.lambdas[m]
        envelope = lam_n * lam_m / rho ** 2 * (SPEC3.lambda_max / rho)
        assert abs(correlation_set(rho, SPEC3).gamma[n][m]) < envelope

    def test_scaled_variance_window_beyond_twenty(self):
        # the rescaled diagonal sits in [0, 2.05] once the radius clears
        # twenty times the largest variance
        for mult in (20.0, 25.0, 32.0, 40.0):
            rho = mult * SPEC3.lambda_max
            cors = correlation_set(rho, SPEC3)
            for n, lam in enumerate(SPEC3.lambdas):
                scaled = rho * rho / (lam * lam) * cors.gamma[n][n]
                assert 0.0 <= scaled <= 2.05

    def test_delta_matches_direct_route(self):
        cors = correlation_set(5.0, SPEC3)
        for n in range(3):
            assert cors.delta[n] == variance_gap_with_error(n, 5.0, SPEC3).value


def _count_passes(monkeypatch):
    """Record the index family of every ball_integrals call from moments,
    the orders s + m of every incomplete-gamma call the quadrature makes (one
    sorted list per call), and the lanes evaluated at each order."""
    families, gammas, lanes = [], [], {}
    real_family = moments.ball_integrals
    real_gamma = ball._lower_incomplete_gamma_vec

    def family(indices, *args):
        families.append(sorted(index.multiplicities for index in indices))
        return real_family(indices, *args)

    def gamma(s, x, orders):
        gammas.append(sorted(s + m for m in orders))
        for m in orders:
            lanes[s + m] = lanes.get(s + m, 0) + np.size(x)
        return real_gamma(s, x, orders)

    monkeypatch.setattr(moments, "ball_integrals", family)
    monkeypatch.setattr(ball, "_lower_incomplete_gamma_vec", gamma)
    ball._alpha_quad.cache_clear()
    return families, gammas, lanes


def _order_two_family(v):
    return sorted(index.multiplicities for index in ball._index_family(v).values())


class TestIntegralCounts:
    def test_all_gaps_share_one_family_pass(self, monkeypatch):
        families, gammas, _ = _count_passes(monkeypatch)
        for n in range(3):
            variance_gap_with_error(n, 2.0, SPEC3)
        assert families == [_order_two_family(3)] * 3
        # one leaf block holding every multiplicity k_1 = 0, 1, 2, shared
        # by both outer rules; the later calls are cache hits
        assert gammas == [[0.5, 1.5, 2.5]]
        assert ball._alpha_quad.cache_info().misses == 1

    @pytest.mark.parametrize("lams", [(1.0,), (1.0, 2.0), (1.0, 2.0, 3.0),
                                      (0.5, 1.0, 1.5, 2.0)])
    def test_moments_integrate_each_index_once(self, monkeypatch, lams):
        # conditional_moments then correlation_set: one family pass, whose
        # quadrature (v >= 2) the second reader finds in the cache
        families, gammas, lanes = _count_passes(monkeypatch)
        v = len(lams)
        conditional_moments(2.0, Spectrum(lams))
        correlation_set(2.0, Spectrum(lams))
        family = _order_two_family(v)
        assert len(set(family)) == 1 + v + v * (v + 1) // 2
        assert families == [family] * 2
        if v == 1:
            # the chi-square mixture calls no incomplete gamma
            assert gammas == []
        elif v < 4:
            # one block holds the heads of both outer rules
            assert gammas == [[0.5, 1.5, 2.5]]
        else:
            # blocks of whole outer nodes, 7 nodes each, every block one call
            # for all three orders: per order, the blocks cover the leaf of
            # each outer rule once
            assert gammas == [[0.5, 1.5, 2.5]] * 12
            assert lanes == {s: 48 ** 3 + 32 * 48 ** 2 for s in (0.5, 1.5, 2.5)}
        assert ball._alpha_quad.cache_info().misses == (1 if v > 1 else 0)

    @pytest.mark.parametrize("n, leaves", [(0, [0.5, 1.5]), (1, [0.5])])
    def test_second_moment_reads_two_indices(self, monkeypatch, n, leaves):
        # rho_star's fixed point evaluates only {0, e_n}: per step one
        # incomplete-gamma call, at the orders of two one-index evaluations
        families, gammas, _ = _count_passes(monkeypatch)
        _second_moment(n, 2.0, SPEC3)
        expected = sorted([(0, 0, 0), MultiIndex.single(3, n).multiplicities])
        assert families == [expected]
        assert gammas == [leaves]

    def test_rho_star_steps_cost_no_more_than_two_indices(self, monkeypatch):
        families, gammas, _ = _count_passes(monkeypatch)
        rho_star(1, SPEC3)
        assert families and families == [[(0, 0, 0), (0, 1, 0)]] * len(families)
        # both indices have k_1 = 0, so one leaf at one order serves both
        # outer rules: at most one call per family, none on a cache hit
        assert len(gammas) <= len(families)
        assert all(orders == [0.5] for orders in gammas)


class TestMomentBatchRead:
    def test_family_read_once_at_construction(self, monkeypatch):
        families, _, _ = _count_passes(monkeypatch)
        batch = MomentBatch(5.0, SPEC3)
        assert families == [_order_two_family(3)]
        for n in range(3):
            batch.gap(n)
            for m in range(3):
                batch.cov(n, m)
                batch.product(n, m)
        assert len(families) == 1


class TestFamilyFailure:
    # At rho = 1e-110 the order-2 members of a v = 2 family underflow to 0.0
    # and the others do not: the batch holds every member, but only a
    # reader of a failing one may fail.
    SPEC = Spectrum((1.0, 2.0))
    RHO = 1e-110

    def test_unread_member_does_not_fail(self):
        batch = MomentBatch(self.RHO, self.SPEC)
        for n in range(2):
            second, err = batch.second(n)
            assert 0.0 < second < self.RHO and err < 1e-12 * second

    def test_reader_of_the_bad_member_fails(self):
        batch = MomentBatch(self.RHO, self.SPEC)
        for n in range(2):
            with pytest.raises(NumericError, match="evaluated to 0.0"):
                batch.gap(n)
            with pytest.raises(NumericError, match="evaluated to 0.0"):
                variance_gap_with_error(n, self.RHO, self.SPEC)
        with pytest.raises(NumericError, match="evaluated to 0.0"):
            batch.product(0, 1)


class TestMarginalDensity:
    def test_normalization(self):
        rho = 6.0
        total, err = quad(lambda x: marginal_density(1, x, rho, SPEC3),
                          -math.sqrt(rho), math.sqrt(rho), limit=200)
        assert abs(total - 1.0) < 1e-8

    def test_support_edge(self):
        rho = 4.0  # exact square root, so the boundary is float-representable
        assert marginal_density(0, 2.0, rho, SPEC3) == 0.0
        assert marginal_density(0, -2.0, rho, SPEC3) == 0.0
        assert marginal_density(0, 2.5, rho, SPEC3) == 0.0
        assert marginal_density(0, 2.0 - 1e-7, rho, SPEC3) < 1e-7

    @pytest.mark.parametrize("rho", [-1.0, 0.0])
    def test_nonpositive_radius_is_domain_error(self, rho):
        # the support test must not answer 0.0 for a radius that has no ball
        with pytest.raises(DomainError):
            marginal_density(0, 0.5, rho, Spectrum((1.0, 2.0)))

    @pytest.mark.parametrize("spec", [Spectrum((1.0,)), SPEC3], ids=["v1", "v3"])
    @pytest.mark.parametrize("x", [math.nan, "a", None, "0.5"])
    def test_non_real_or_nan_point_is_domain_error(self, spec, x):
        # a NaN x returned NaN at v = 1, and a string or None leaked TypeError
        with pytest.raises(DomainError):
            marginal_density(0, x, 2.0, spec)

    @pytest.mark.parametrize("spec", [Spectrum((1.0,)), SPEC3], ids=["v1", "v3"])
    def test_infinite_point_has_zero_density(self, spec):
        for x in (math.inf, -math.inf):
            assert marginal_density(0, x, 2.0, spec) == 0.0

    def test_even_symmetry(self):
        for x in (0.1, 0.9, 1.7):
            assert marginal_density(2, x, 5.0, SPEC3) == marginal_density(
                2, -x, 5.0, SPEC3)

    def test_one_dimensional_reduction(self):
        spec = Spectrum((1.3,))
        rho = 2.0
        norm = ball_integral(MultiIndex((0,)), rho, spec).value
        x = 0.4
        expected = (math.exp(-x * x / 2.6) / math.sqrt(2.6 * math.pi)) / norm
        assert marginal_density(0, x, rho, spec) == pytest.approx(expected, rel=1e-13)


class TestHolder:
    def test_strong_region(self):
        rep = holder_report(0, 0.8, SPEC3)
        assert rep.region == REGION_STRONG
        assert rep.h <= SPEC3.lambdas[0]
        assert rep.h == max(rep.h1, rep.h2)
        assert rep.bound_holds

    def test_weak_region(self):
        rep = holder_report(0, 5.0, SPEC3)
        assert rep.region == REGION_WEAK
        assert rep.h == rep.h1
        assert rep.h > SPEC3.lambdas[0]
        assert rep.dominant_branch == "edge"  # provable only here
        assert rep.bound_holds

    def test_crossover_region(self):
        rep = holder_report(0, 1.5, SPEC3)
        assert rep.region == REGION_CROSSOVER
        assert rep.bound_holds

    def test_bound_on_scan(self):
        for n in range(3):
            for rho in np.geomspace(0.2, 40.0, 10):
                assert holder_report(n, float(rho), SPEC3).bound_holds


class TestLooseBound:
    def test_examples(self):
        # the battery's fourth-vs-loose[n] is the one statement of the bound
        statuses = {c.name: c.status for c in inequality_battery(0.5, Spectrum((1.0,))).checks}
        assert statuses["fourth-vs-loose[0]"] == PASS
        statuses = {c.name: c.status for c in inequality_battery(8.0, SPEC3).checks}
        for n in range(3):
            assert statuses[f"fourth-vs-loose[{n}]"] == PASS

    def test_approaches_equality(self):
        # at large radius both sides tend to 3 lambda^2
        spec = Spectrum((1.0,))
        m = conditional_moments(1e5, spec)
        assert m.fourth[0] == pytest.approx(
            1.0 * (2.0 + m.second[0]), rel=1e-7)


class TestRhoStar:
    def test_bracket_and_residual(self):
        for spec, n in [(Spectrum((1.0,)), 0), (SPEC3, 0), (SPEC3, 2)]:
            lam = spec.lambdas[n]
            star = rho_star(n, spec, tol=1e-10)
            assert 2.0 * lam < star <= 4.0 * lam
            resid = abs(star - 2.0 * (lam + _second_moment(n, star, spec)))
            assert resid < 1e-8

    def test_against_bisection_oracle(self):
        spec = Spectrum((1.0,))

        def g(rho):
            return rho - 2.0 * (1.0 + _second_moment(0, rho, spec))

        lo, hi = 2.0, 4.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        star = rho_star(0, spec, tol=1e-12)
        assert star == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            rho_star(0, SPEC3, tol=0.0)

    @pytest.mark.parametrize("tol", [-1e-10, math.nan, math.inf, "x", None])
    def test_non_finite_or_non_real_tolerance(self, tol):
        # NaN ran 200 steps into NumericError, inf returned the starting
        # guess, and a string leaked TypeError
        with pytest.raises(DomainError):
            rho_star(0, SPEC3, tol=tol)

    @pytest.mark.parametrize("n", [-1, 3])
    def test_dimension_out_of_range(self, n):
        with pytest.raises(DomainError):
            rho_star(n, SPEC3)

    def test_unsettled_iteration_is_numeric_error(self, monkeypatch):
        # a second moment that tracks rho moves the target with every step
        monkeypatch.setattr(moments, "_second_moment", lambda n, rho, spectrum: rho)
        with pytest.raises(NumericError, match=r"tol=1e-10 in 200 steps \(n=1,"):
            rho_star(1, SPEC3)


# every public route that takes a dimension of SPEC3, called with the dimension
# under test; the pair moments are called once per argument
DIMENSION_ROUTES = {
    "variance_gap_with_error": lambda n: variance_gap_with_error(n, 2.0, SPEC3),
    "holder_report": lambda n: holder_report(n, 2.0, SPEC3),
    "rho_star": lambda n: rho_star(n, SPEC3),
    "marginal_density": lambda n: marginal_density(n, 0.3, 2.0, SPEC3),
    "MomentBatch.second": lambda n: MomentBatch(2.0, SPEC3).second(n),
    "MomentBatch.product-n": lambda n: MomentBatch(2.0, SPEC3).product(n, 0),
    "MomentBatch.product-m": lambda n: MomentBatch(2.0, SPEC3).product(0, n),
    "MomentBatch.cov-n": lambda n: MomentBatch(2.0, SPEC3).cov(n, 0),
    "MomentBatch.cov-m": lambda n: MomentBatch(2.0, SPEC3).cov(0, n),
    "MomentBatch.gap": lambda n: MomentBatch(2.0, SPEC3).gap(n),
}


class TestDimensionArgument:
    @pytest.mark.parametrize("call", DIMENSION_ROUTES.values(), ids=DIMENSION_ROUTES.keys())
    def test_non_integral_is_domain_error_and_integral_float_works(self, call):
        # each leaked TypeError from a list index, even for 1.0
        with pytest.raises(DomainError):
            call(1.5)
        assert call(1.0) == call(1)

    @pytest.mark.parametrize("n", [-1, 3])
    @pytest.mark.parametrize("call", DIMENSION_ROUTES.values(), ids=DIMENSION_ROUTES.keys())
    def test_out_of_range_is_domain_error(self, call, n):
        # n = -1 would read the last dimension, n = 3 index past it
        with pytest.raises(DomainError):
            call(n)


SPEC2 = Spectrum((1.0, 2.0))
ZERO2 = MultiIndex.zero(2)

# every public route that takes a radius, called with the radius under test
RADIUS_ROUTES = {
    "ball_integral": lambda rho: ball_integral(ZERO2, rho, SPEC2),
    "ball_integrals": lambda rho: ball.ball_integrals([ZERO2], rho, SPEC2),
    "ball_integral_1d": lambda rho: ball.ball_integral_1d(0, rho, 1.0),
    "ball_integral_mc": lambda rho: ball_integral_mc(ZERO2, rho, SPEC2, 10_000, 0),
    "ball_integrals_mc": lambda rho: ball_integrals_mc([ZERO2], rho, SPEC2, 10_000, 0),
    "verify_structural": lambda rho: ball.verify_structural(rho, SPEC2),
    "MomentBatch": lambda rho: MomentBatch(rho, SPEC2),
    "MomentBatch-family": lambda rho: MomentBatch(
        rho, SPEC2,
        family=ball.ball_integrals(ball._index_family(2).values(), 5.0, SPEC2)).gap(0),
    "conditional_moments": lambda rho: conditional_moments(rho, SPEC2),
    "variance_gap_with_error": lambda rho: variance_gap_with_error(0, rho, SPEC2),
    "correlation_set": lambda rho: correlation_set(rho, SPEC2),
    "marginal_density": lambda rho: marginal_density(0, 0.1, rho, SPEC2),
    "holder_report": lambda rho: holder_report(0, rho, SPEC2),
    "inequality_battery": lambda rho: inequality_battery(rho, SPEC2),
    "eta_combinatorial": lambda rho: eta.eta_combinatorial(1, rho, SPEC2),
    "eta_combinatorial-order-0": lambda rho: eta.eta_combinatorial(0, rho, SPEC2),
    "eta_fd_oracle": lambda rho: eta.eta_fd_oracle(1, rho, SPEC2),
    "radial_derivative_envelope": lambda rho: eta.radial_derivative_envelope(1, rho, SPEC2),
    "asymptotic_checks": lambda rho: eta.asymptotic_checks(SPEC2, 1, (rho, 40.0, 80.0)),
    "asymptotic_checks-schedule": lambda rho: eta.asymptotic_checks(SPEC2, 1, rho),
    "expand_alpha": lambda rho: expansion.expand_alpha({0: 0}, 1, rho, SPEC2),
    "gamma_nn_expansion_coeff": lambda rho: expansion.gamma_nn_expansion_coeff(
        0, rho, SPEC2),
}


class TestRadiusArgument:
    @pytest.mark.parametrize("rho", ["5", None, "a", -1.0, math.nan],
                             ids=["numeric-string", "none", "letters", "negative", "nan"])
    @pytest.mark.parametrize("route", RADIUS_ROUTES.values(), ids=RADIUS_ROUTES.keys())
    def test_invalid_radius_is_domain_error(self, route, rho):
        # "5" used to run as 5.0 or leak a TypeError, None and "a" leaked
        # TypeError or ValueError, and a caller's family skipped every check
        with pytest.raises(DomainError):
            route(rho)


# every route that divides by rho^2, at a valid radius whose square underflows
TINY_SPEC = Spectrum((1e-200, 1e-200))
RHO_SQUARE_ROUTES = {
    "MomentBatch.gap": lambda: MomentBatch(1e-170, TINY_SPEC).gap(0),
    "variance_gap_with_error": lambda: variance_gap_with_error(1, 1e-170, TINY_SPEC),
    "correlation_set": lambda: correlation_set(1e-170, TINY_SPEC),
    "inequality_battery": lambda: inequality_battery(1e-170, TINY_SPEC),
}


class TestRadiusSquareUnderflow:
    @pytest.mark.parametrize("route", RHO_SQUARE_ROUTES.values(),
                             ids=RHO_SQUARE_ROUTES.keys())
    def test_underflowing_square_is_numeric_error(self, route):
        # rho * rho rounds to 0 at rho = 1e-170: each leaked ZeroDivisionError
        with pytest.raises(NumericError, match=r"rho\^2 at rho = 1e-170 underflows"):
            route()


# every public route that takes a spectrum, called with the spectrum under test
SPECTRUM_ROUTES = {
    "ball_integral": lambda spec: ball_integral(ZERO2, 5.0, spec),
    "ball_integrals": lambda spec: ball.ball_integrals([ZERO2], 5.0, spec),
    "ball_integral_mc": lambda spec: ball_integral_mc(ZERO2, 5.0, spec, 10_000, 0),
    "ball_integrals_mc": lambda spec: ball_integrals_mc([ZERO2], 5.0, spec, 10_000, 0),
    "verify_structural": lambda spec: ball.verify_structural(5.0, spec),
    "MomentBatch": lambda spec: MomentBatch(5.0, spec),
    "conditional_moments": lambda spec: conditional_moments(5.0, spec),
    "variance_gap_with_error": lambda spec: variance_gap_with_error(0, 5.0, spec),
    "correlation_set": lambda spec: correlation_set(5.0, spec),
    "marginal_density": lambda spec: marginal_density(0, 0.1, 5.0, spec),
    "holder_report": lambda spec: holder_report(0, 5.0, spec),
    "rho_star": lambda spec: rho_star(0, spec),
    "inequality_battery": lambda spec: inequality_battery(5.0, spec),
    "eta_combinatorial": lambda spec: eta.eta_combinatorial(1, 5.0, spec),
    "eta_combinatorial-order-0": lambda spec: eta.eta_combinatorial(0, 5.0, spec),
    "eta_fd_oracle": lambda spec: eta.eta_fd_oracle(1, 5.0, spec),
    "radial_derivative_envelope": lambda spec: eta.radial_derivative_envelope(1, 5.0, spec),
    "asymptotic_checks": lambda spec: eta.asymptotic_checks(spec, 1, (20.0, 40.0, 80.0)),
    "expand_alpha": lambda spec: expansion.expand_alpha({0: 0}, 1, 5.0, spec),
    "gamma_nn_expansion_coeff": lambda spec: expansion.gamma_nn_expansion_coeff(
        0, 5.0, spec),
}


class TestSpectrumArgument:
    @pytest.mark.parametrize("spec", [(1.0, 2.0), None, [1.0, 2.0]],
                             ids=["tuple", "none", "list"])
    @pytest.mark.parametrize("route", SPECTRUM_ROUTES.values(), ids=SPECTRUM_ROUTES.keys())
    def test_non_spectrum_is_domain_error(self, route, spec):
        # all but the ball_integral* routes leaked AttributeError on .v
        with pytest.raises(DomainError, match="must be a Spectrum"):
            route(spec)


class TestCallerFamily:
    def _family_without(self, *missing):
        family = ball.ball_integrals(ball._index_family(2).values(), 5.0, SPEC2)
        return {index: value for index, value in family.items()
                if index.multiplicities not in missing}

    def test_empty_family_is_domain_error(self):
        # used to leak KeyError at construction
        with pytest.raises(DomainError, match=r"\(0, 0\)"):
            MomentBatch(5.0, SPEC2, family={})

    def test_non_mapping_family_is_domain_error(self):
        # used to leak TypeError on the first member read
        with pytest.raises(DomainError, match="mapping"):
            MomentBatch(5.0, SPEC2, family=[1, 2])

    @pytest.mark.parametrize("missing, read", [
        ((1, 1), lambda batch: batch.cov(0, 1)),
        ((2, 0), lambda batch: batch.gap(0)),
        ((0, 1), lambda batch: batch.second(1)),
    ], ids=["pair", "square", "single"])
    def test_missing_member_is_domain_error_on_read(self, missing, read):
        # built fine, then leaked KeyError on the first read of the member
        batch = MomentBatch(5.0, SPEC2, family=self._family_without(missing))
        with pytest.raises(DomainError, match=f"multi-index {re.escape(str(missing))}"):
            read(batch)
        # the members it has still read
        assert batch.second(0) == MomentBatch(5.0, SPEC2).second(0)


class TestQuadratureBar:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP 4(o): the v = 2..4 quadrature's bar is up to 2e3 times too small; "
        "stage B is the fix"))
    def test_order_two_family_within_bars_of_mixture(self):
        # gap(2) reads -2.634529e-13 +- 4.2e-19 by quadrature and
        # -2.627970e-13 +- 1.1e-17 by the mixture: 58 times the summed bars
        rho, spec = 150.0, Spectrum((2.215, 2.183, 0.212, 6.306))
        indices = ball._index_family(spec.v).values()
        quad = ball.ball_integrals(indices, rho, spec)
        values, errors = ball._alpha_mixture(
            tuple(index.multiplicities for index in indices), spec.lambdas, rho)
        mixture = {index: IntegralValue(float(value), float(err))
                   for index, value, err in zip(indices, values, errors)}
        for index in indices:
            a, b = quad[index], mixture[index]
            assert abs(a.value - b.value) <= a.est_abs_error + b.est_abs_error, index
        by_quad, by_mixture = MomentBatch(rho, spec), MomentBatch(rho, spec, mixture)
        for n in range(spec.v):
            (a, a_err), (b, b_err) = by_quad.gap(n), by_mixture.gap(n)
            assert abs(a - b) <= a_err + b_err, n


class TestLargeRadiusSign:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP 4(b): at large radius the gap and the covariances are "
        "differences of nearly equal ratios, so their sign is rounding; "
        "item 6(a) is the fix"))
    @pytest.mark.parametrize("rho, read", [
        (300.0, lambda batch: batch.gap(0)),
        (300.0, lambda batch: batch.gap(2)),
        (1000.0, lambda batch: batch.gap(0)),
        (1000.0, lambda batch: batch.gap(2)),
        (300.0, lambda batch: batch.cov(0, 1)),
    ], ids=["gap0-300", "gap2-300", "gap0-1000", "gap2-1000", "cov01-300"])
    def test_sign_is_negative(self, rho, read):
        # the closed form gives delta_0 = -6.508286e-28 at rho = 300; today
        # these read +4.93e-21, +2.09e-18, +4.44e-22, +7.1e-20 and 0.0
        assert read(MomentBatch(rho, SPEC3))[0] < 0.0


class TestTinyVariances:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP 4(p): cov and product form lambda_n lambda_m first, which is "
        "subnormal or 0 below lambda = 1.5e-154, and the bar counts no rounding "
        "of its own"))
    @pytest.mark.parametrize("lam, rho", [(1e-160, 1e-155), (1e-200, 1e-150)],
                             ids=["subnormal-product", "zero-product"])
    def test_scaled_variance_is_its_whole_space_value(self, lam, rho):
        # at rho / (2 lambda) >= 5e4 the ball holds the whole mass in float,
        # so gamma_00 = var(X_0^2) / rho^2 = 2 (lambda / rho)^2; today these
        # read 1.9999777343653721e-10 against 2e-10 and 0.0 against 2e-100
        want = 2.0 * (lam / rho) ** 2
        try:
            got = correlation_set(rho, Spectrum((lam, lam))).gamma[0][0]
        except NumericError:
            return  # a typed failure is a fix too
        assert abs(got - want) <= 1e-12 * want, got


class TestHessianIdentity:
    @pytest.mark.parametrize("v", range(2, 7))
    def test_second_differences_of_log_mass(self, v):
        # H_nm = d^2 log alpha_0 / (d log lambda_n d log lambda_m) equals
        # (cov(X_n^2, X_m^2) - 2 [n = m] lambda_n E[X_n^2]) / (4 lambda_n lambda_m).
        # Central differences at h = 1e-3 carry an O(h^2) truncation: on these
        # cells they agree to 1.4e-7 of max |H| (1.1e-6 entry by entry), and
        # the bound is h^2 max |H|.
        h, rng = 1e-3, np.random.default_rng(1300 + v)
        zero = MultiIndex.zero(v)
        for _ in range(2):
            lams = np.exp(rng.uniform(math.log(0.3), math.log(3.0), v))
            rho = float(lams.max() * np.exp(rng.uniform(math.log(0.5), math.log(10.0))))
            batch = MomentBatch(rho, Spectrum(tuple(lams.tolist())))
            hessian = np.array([[
                (batch.cov(n, m)[0] - (2.0 * lams[n] * batch.second(n)[0] if n == m else 0.0))
                / (4.0 * lams[n] * lams[m]) for m in range(v)] for n in range(v)])

            def log_mass(step):
                spec = Spectrum(tuple((lams * np.exp(h * np.asarray(step))).tolist()))
                return math.log(ball_integral(zero, rho, spec).value)

            unit, center = np.eye(v), log_mass(np.zeros(v))
            diffs = np.empty((v, v))
            for n in range(v):
                diffs[n, n] = (log_mass(unit[n]) - 2.0 * center + log_mass(-unit[n])) / h ** 2
                for m in range(n + 1, v):
                    diffs[n, m] = diffs[m, n] = (
                        log_mass(unit[n] + unit[m]) - log_mass(unit[n] - unit[m])
                        - log_mass(unit[m] - unit[n]) + log_mass(-unit[n] - unit[m])
                    ) / (4.0 * h * h)
            scale = np.abs(hessian).max()
            assert np.abs(diffs - hessian).max() <= h * h * scale, (lams, rho)


class TestInequalityBattery:
    @pytest.mark.parametrize("rho", [0.5, 2.0, 5.0, 15.0, 60.0])
    def test_all_pass_at_reference_spectrum(self, rho):
        report = inequality_battery(rho, SPEC3)
        assert report.passed
        assert not report.findings

    @pytest.mark.parametrize("lams", [(1.0,), (0.5, 4.0), (2.0, 2.0, 2.0, 2.0),
                                      (0.1, 1.0, 10.0)])
    def test_all_pass_across_spectra(self, lams):
        spec = Spectrum(lams)
        for mult in (0.3, 1.0, 4.0):
            report = inequality_battery(mult * spec.lambda_max, spec)
            assert report.passed and not report.findings

    def test_chain_is_ordered(self):
        m = conditional_moments(5.0, SPEC3)
        for n, lam in enumerate(SPEC3.lambdas):
            b1 = m.second[n] * (2.0 * lam + m.second[n])
            b2 = lam * (2.0 * lam + m.second[n])
            b3 = 3.0 * lam * lam
            assert m.fourth[n] <= b1 <= b2 <= b3

    def test_trace_equality_in_limit(self):
        m = conditional_moments(1e6, SPEC3)
        total = sum(m.second[n] / SPEC3.lambdas[n] for n in range(3))
        assert total == pytest.approx(3.0, abs=1e-8)
        assert total <= 3.0 + 1e-8

    def test_variances_at_the_float_ends(self):
        # lambda^2 underflowed to a zero divisor or overflowed; a fourth
        # moment past float range is a NumericError, not an infinite margin
        assert inequality_battery(1.0, Spectrum((1e-300, 1.0))).passed
        batch = MomentBatch(1e300, Spectrum((1e300, 1.0)))
        assert math.isfinite(batch.second(0)[0])
        with pytest.raises(NumericError, match="outside float range"):
            batch.product(0, 0)
        with pytest.raises(NumericError):
            inequality_battery(1e300, Spectrum((1e300, 1.0)))

    def test_noise_rule_boundary(self):
        # a margin exactly at the noise bar passes, the next float below fails
        noise, size = 3e-9, 7.0
        edge = -(NOISE_FACTOR * noise + SLACK * size)
        below = math.nextafter(edge, -math.inf)
        report = Report("edge")
        assert report.add("at", IntegralValue(edge, noise), size=size).status == PASS
        assert report.add("below", IntegralValue(below, noise), size=size).status == FAIL
        assert report.add("claim", IntegralValue(below, noise), size=size,
                          claim=True).status == VIOLATED_CLAIM
        assert [c.margin for c in report.checks] == [edge, below, below]

    def test_statuses_match_the_explicit_conditions(self):
        # each battery check written out as its own comparison against
        # NOISE_FACTOR times its propagated error
        rng = np.random.default_rng(29)
        for cell in range(40):
            v = 1 + cell % 5
            spec = Spectrum(tuple(rng.uniform(0.2, 3.0, v)))
            rho = spec.lambda_max * math.exp(rng.uniform(math.log(0.1), math.log(30.0)))
            batch, lams = MomentBatch(rho, spec), spec.lambdas
            sec = [batch.second(n) for n in range(v)]
            cov = [[batch.cov(n, m) for m in range(v)] for n in range(v)]
            want = {}
            pairs = [(n, m) for n in range(v) for m in range(v) if m != n]
            var = sum(cov[n][n][0] / lams[n] / lams[n] for n in range(v))
            var_err = sum(cov[n][n][1] / lams[n] / lams[n] for n in range(v))
            off = sum(cov[n][m][0] / lams[n] / lams[m] for n, m in pairs)
            off_err = sum(cov[n][m][1] / lams[n] / lams[m] for n, m in pairs)
            want["log-concavity-combination"] = \
                var - 2.0 * v + off <= NOISE_FACTOR * (var_err + off_err)
            for n, lam in enumerate(lams):
                (second, sec_err), (fourth, frt_err) = sec[n], batch.product(n, n)
                want[f"second-vs-variance[{n}]"] = second <= lam + NOISE_FACTOR * sec_err
                # the bar of lam (2 lam + E2) is lam times E2's
                want[f"fourth-vs-loose[{n}]"] = fourth <= lam * (2.0 * lam + second) \
                    + NOISE_FACTOR * (lam * sec_err + frt_err)
                gap, gap_err = batch.gap(n)
                want[f"variance-gap[{n}]"] = gap <= NOISE_FACTOR * gap_err
                row = sum(abs(cov[n][m][0]) for m in range(v) if m != n)
                row_err = sum(cov[n][m][1] for m in range(v) if m != n)
                want[f"diagonal-dominance[{n}]"] = \
                    cov[n][n][0] >= row - NOISE_FACTOR * (cov[n][n][1] + row_err)
                for m in range(n + 1, v):
                    want[f"negative-covariance[{n},{m}]"] = \
                        cov[n][m][0] <= NOISE_FACTOR * cov[n][m][1]
            got = {c.name: c.ok for c in inequality_battery(rho, spec).checks}
            assert got == want, (rho, spec.lambdas)


class TestImpliedChecksStayCaught:
    """The battery drops each check a kept one implies.  Each test plants,
    through a caller-supplied family at one geometry, a failure a dropped
    check caught, and a kept check fails on the same batch."""

    RHO, SPEC = 2.0, Spectrum((1.0, 2.0))

    def _statuses(self, monkeypatch, dims, ratio):
        """The battery's statuses with the member of sorted dimensions
        ``dims`` set to ``ratio(r)`` alpha_0, r = alpha_(e_0) / alpha_0;
        every member keeps its bar."""
        members = ball._index_family(self.SPEC.v)
        family = {index: IntegralValue(x.value, x.est_abs_error) for index, x in
                  ball.ball_integrals(members.values(), self.RHO, self.SPEC).items()}
        base = family[members[()]].value
        r = family[members[(0,)]].value / base
        family[members[dims]] = IntegralValue(ratio(r) * base,
                                              family[members[dims]].est_abs_error)
        monkeypatch.setattr(moments, "ball_integrals", lambda *args: family)
        return {c.name: c.status for c in inequality_battery(self.RHO, self.SPEC).checks}

    def test_fourth_above_the_tight_bound(self, monkeypatch):
        # E4 > E2 (2 lambda + E2), which fourth-vs-tight caught, is a positive gap
        got = self._statuses(monkeypatch, (0, 0), lambda r: 1.01 * r * (2.0 + r))
        assert got["variance-gap[0]"] == VIOLATED_CLAIM

    def test_fourth_above_three_lambda_squared(self, monkeypatch):
        # E4 > 3 lambda^2, which fourth-vs-free caught
        got = self._statuses(monkeypatch, (0, 0), lambda r: 3.03)
        assert got["fourth-vs-loose[0]"] == FAIL

    def test_second_above_lambda(self, monkeypatch):
        # E2 > lambda, which chain-monotone and second-moment-trace caught
        got = self._statuses(monkeypatch, (0,), lambda r: 1.01)
        assert got["second-vs-variance[0]"] == FAIL


class TestBarsBoundEveryCorner:
    """Every order-2 member moved to a corner of a Monte Carlo-sized bar
    (1e-3 relative) moves each moment and each battery margin by at most
    the error it reports.  The 1e-9 relative slack covers rounding: it is
    about 1e-12 of each operand, and the bars are 1e-3 of them."""

    CELLS = [(2.0, (1.0, 2.0)), (20.0, (1.0, 2.0)), (60.0, (1.0, 2.0)),
             (5.0, (1.0, 2.0, 3.0))]

    @staticmethod
    def _families(rho, lams):
        """The centre family, with its bars, and one family per corner."""
        spec = Spectrum(lams)
        got = ball.ball_integrals(ball._index_family(spec.v).values(), rho, spec)
        center = {index: IntegralValue(x.value, 1e-3 * x.value) for index, x in got.items()}
        corners = [{index: IntegralValue(x.value + sign * x.est_abs_error, x.est_abs_error)
                    for (index, x), sign in zip(center.items(), signs)}
                   for signs in itertools.product((-1.0, 1.0), repeat=len(center))]
        return spec, center, corners

    @staticmethod
    def _assert_within(moved, center):
        for name, (value, err) in center.items():
            assert abs(moved[name][0] - value) <= err * (1.0 + 1e-9), (name, value, err)

    @pytest.mark.parametrize("rho, lams", CELLS)
    def test_moments(self, rho, lams):
        spec, center, corners = self._families(rho, lams)

        def read(family):
            batch, out = MomentBatch(rho, spec, family), {}
            for n in range(spec.v):
                out[f"second({n})"], out[f"gap({n})"] = batch.second(n), batch.gap(n)
                for m in range(n, spec.v):
                    out[f"product({n},{m})"] = batch.product(n, m)
                    out[f"cov({n},{m})"] = batch.cov(n, m)
            return out

        want = read(center)
        for family in corners:
            self._assert_within(read(family), want)

    @pytest.mark.parametrize("rho, lams", CELLS)
    def test_battery_margins(self, monkeypatch, rho, lams):
        spec, center, corners = self._families(rho, lams)
        family, margins, add = [center], {}, Report.add

        def spy(report, name, margin, *args, **kwargs):
            margins[name] = margin
            return add(report, name, margin, *args, **kwargs)

        monkeypatch.setattr(moments, "ball_integrals", lambda *args: family[0])
        monkeypatch.setattr(Report, "add", spy)

        def read(at):
            family[0] = at
            margins.clear()
            inequality_battery(rho, spec)
            return dict(margins)

        want = read(center)
        for at in corners:
            self._assert_within(read(at), want)
