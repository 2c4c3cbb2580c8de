"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from truncgauss.ball import (
    MultiIndex,
    Spectrum,
    ball_integral,
    ball_integral_mc,
)
from truncgauss.expansion import convergence_estimate, expand_alpha
from truncgauss.eta import eta_combinatorial, eta_fd_oracle
from truncgauss.moments import (
    _second_moment,
    correlation_set,
    loose_bound_check,
    rho_star,
    variance_gap_with_error,
)
from truncgauss.special import stirling_first_unsigned, stirling_second
from truncgauss.xi import (
    enumerate_exponents,
    gap_convolution_check,
    gap_limit_coefficient,
    omega,
)

REFERENCE_FITS = {
    2: (0.522, 0.734),
    3: (0.396, 0.499),
    4: (0.361, 0.278),
    5: (0.375, 0.068),
    6: (0.227, -0.309),
}


def _verdict(number: int, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:2d}] {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_convergence_table():
    start = time.time()
    details = []
    ok = True
    for v, (a_ref, eps_ref) in REFERENCE_FITS.items():
        est = convergence_estimate(v, 50, 100)
        a_ok = abs(est.fit_A - a_ref) / a_ref <= 0.05
        e_ok = abs(est.fit_eps - eps_ref) <= 0.02
        ok &= a_ok and e_ok
        details.append(f"v={v}: A={est.fit_A:.4f}/{a_ref}, "
                       f"eps={est.fit_eps:.4f}/{eps_ref}")
    elapsed = time.time() - start
    ok &= elapsed < 120.0
    _verdict(1, ok, "term-decay fit table reproduced for v=2..6",
             "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2_scaled_variance_limit():
    ok = True
    details = []
    for v in (1, 2, 3):
        spec = Spectrum(tuple(float(k) for k in range(1, v + 1)))
        rho = 50.0 * spec.lambda_max
        cors = correlation_set(rho, spec)
        for n in range(v):
            scaled = rho ** 2 / spec.lambdas[n] ** 2 * cors.gamma[n][n]
            ok &= 1.95 <= scaled <= 2.0
            details.append(f"v={v},n={n}: {scaled:.6f}")
    _verdict(2, ok, "rescaled squared-component variance reaches 2 from below",
             "; ".join(details))


def test_criterion_3_sign_law_and_routes():
    start = time.time()
    ok = True
    counted = 0
    for q in range(1, 7):
        for tail in enumerate_exponents(q, q):
            value = gap_limit_coefficient(q, tail)
            ok &= value != 0 and (1 if value > 0 else -1) == (-1) ** (sum(tail) - 1)
            counted += 1
    routes = gap_convolution_check(4)
    ok &= routes.all_ok
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    _verdict(3, ok, "variance-gap limit signs exact for q <= 6, routes agree to q <= 4",
             f"{counted} tails, {len(routes.checks)} route checks, {elapsed:.1f}s")


def test_criterion_4_weight_inequality():
    ok = True
    counted = 0
    for q in range(1, 9):
        for tail in enumerate_exponents(q, q):
            ok &= omega(0, q, tail) < omega(1, q, tail)
            counted += 1
    _verdict(4, ok, "paired weight strictly below single weight through q = 8",
             f"{counted} tails, exact arithmetic")


def test_criterion_5_stirling_inversion():
    ok = True
    for j in range(13):
        for k in range(13):
            total = sum(
                (-1) ** (t - k) * stirling_second(j, t) * stirling_first_unsigned(t, k)
                for t in range(max(j, k) + 1)
            )
            ok &= total == (1 if j == k else 0)
    _verdict(5, ok, "signed composition of Stirling kinds is the identity, indices <= 12")


def test_criterion_6_eta_oracle_equivalence():
    battery = [
        (Spectrum((1.0,)), (2.0, 3.0, 4.0)),
        (Spectrum((1.0, 2.0)), (2.0, 3.0, 4.0, 5.0, 8.0)),
        (Spectrum((1.0, 2.0, 3.0)), (2.0, 8.0, 11.0, 16.0)),
    ]
    worst = 0.0
    points = 0
    for spec, rhos in battery:
        for rho in rhos:
            points += 1
            for k in (1, 2, 3):
                comb = eta_combinatorial(k, rho, spec)
                fd = eta_fd_oracle(k, rho, spec)
                worst = max(worst, abs(comb - fd) / max(abs(comb), 1e-10))
    _verdict(6, points == 12 and worst < 1e-3,
             "coefficient functions: combinatorial and finite-difference routes agree",
             f"12-point battery, worst relative gap {worst:.2e}")


def test_criterion_7_variance_gap_sweep():
    start = time.time()
    violations = []
    worst_gap = -math.inf

    lams2 = np.geomspace(1.0 / 50.0, 1.0 / 0.1, 60)
    for l1 in lams2:
        for l2 in lams2:
            spec = Spectrum((float(l1), float(l2)))
            for n in range(2):
                gap, err = variance_gap_with_error(n, 1.0, spec)
                worst_gap = max(worst_gap, gap)
                if gap > 10.0 * err:
                    violations.append(("v2", float(l1), float(l2), n, gap))

    lams3 = np.geomspace(1.0 / 50.0, 1.0 / 0.1, 20)
    for l1 in lams3:
        for l2 in lams3:
            for l3 in lams3:
                spec = Spectrum((float(l1), float(l2), float(l3)))
                for n in range(3):
                    gap, err = variance_gap_with_error(n, 1.0, spec)
                    worst_gap = max(worst_gap, gap)
                    if gap > 10.0 * err:
                        violations.append(
                            ("v3", float(l1), float(l2), float(l3), n, gap))

    elapsed = time.time() - start
    detail = (f"60x60 grid + 20^3 grid, worst gap {worst_gap:.3e}, "
              f"{len(violations)} claim violations, {elapsed:.0f}s")
    if violations:
        detail += f"; first: {violations[0]}"
    _verdict(7, not violations,
             "nonpositive variance gap holds across both sweeps", detail)


# Criterion 8's suite false-alarm rate: a correct quadrature and sampler
# fail the 20 Monte Carlo comparisons together with probability at most
# ORACLE_ALPHA (Bonferroni: each two-sided |z| within the normal quantile
# of ORACLE_ALPHA / 20, 4.06).
ORACLE_ALPHA = 1e-3


def _oracle_z_bound(count: int) -> float:
    return float(norm.isf(ORACLE_ALPHA / (2 * count)))


def _oracle_agrees(zs) -> bool:
    """Criterion 8's decision rule over the instances' signed z scores."""
    return max(abs(z) for z in zs) <= _oracle_z_bound(len(zs))


def test_criterion_8_decision_rule():
    # the rule passes a typical draw of 20 z scores, and fails it once any
    # one instance moves 6 standard errors away from the quadrature
    zs = np.random.default_rng(8).standard_normal(20)
    assert _oracle_agrees(zs)
    assert 4.05 < _oracle_z_bound(20) < 4.06
    for i in range(zs.size):
        shifted = zs.copy()
        shifted[i] += math.copysign(6.0, zs[i])
        assert not _oracle_agrees(shifted)


def test_criterion_8_quadrature_against_oracle():
    master = 20260810
    rng = np.random.default_rng(np.random.Philox(key=master))
    zs = []
    for i in range(20):
        v = int(rng.integers(1, 5))
        lams = tuple(float(x) for x in np.exp(rng.uniform(np.log(0.3), np.log(3.0), v)))
        rho = float(rng.uniform(0.5, 3.0) * sum(lams))
        ks = [0] * v
        for _ in range(int(rng.integers(0, 4))):
            ks[int(rng.integers(0, v))] += 1
        spec = Spectrum(lams)
        idx = MultiIndex(tuple(ks))
        quad = ball_integral(idx, rho, spec)
        mc = ball_integral_mc(idx, rho, spec, 400_000, seed=master ^ i)
        zs.append((quad.value - mc.mean) / mc.std_error)
    ok = _oracle_agrees(zs)

    chi_err = 0.0
    for rho in (0.5, 2.0, 7.0):
        got = ball_integral(MultiIndex((0, 0)), rho, Spectrum((1.0, 1.0))).value
        chi_err = max(chi_err, abs(got - (1.0 - math.exp(-rho / 2.0))))
    ok &= chi_err < 1e-8
    _verdict(8, ok, "quadrature consistent with the sampling oracle and the "
             "equal-variance closed form",
             f"20 seeded instances, worst |z| {max(map(abs, zs)):.2f} <= "
             f"{_oracle_z_bound(len(zs)):.2f} (Bonferroni, suite false-alarm "
             f"rate {ORACLE_ALPHA:g}), closed-form error {chi_err:.1e}")


def test_criterion_9_expansion_order():
    spec = Spectrum((1.0, 2000.0))
    rhos = (20.0, 40.0, 80.0)
    ok = True
    details = []
    for order in (0, 1, 2):
        resid = []
        for rho in rhos:
            exact = ball_integral(MultiIndex((0, 0)), rho, spec).value
            part = expand_alpha({0: 0}, order, rho, spec)
            resid.append(abs(part.value - exact) / exact)
        slope = float(-np.polyfit(np.log(rhos), np.log(resid), 1)[0])
        ok &= order + 0.7 <= slope <= order + 1.3
        details.append(f"P={order}: slope {slope:.2f}")
    _verdict(9, ok, "partial-sum residual drops one power per order",
             "; ".join(details))


def test_criterion_10_strong_truncation_analytics():
    ok = True
    spec3 = Spectrum((1.0, 2.0, 3.0))
    for n in range(3):
        for rho in np.geomspace(0.1, 50.0, 25):
            ok &= loose_bound_check(n, float(rho), spec3)
    for rho in np.geomspace(0.05, 20.0, 15):
        ok &= loose_bound_check(0, float(rho), Spectrum((1.0,)))

    details = []
    for spec, n in [(Spectrum((1.0,)), 0), (spec3, 0), (spec3, 2),
                    (Spectrum((0.5, 4.0)), 1)]:
        lam = spec.lambdas[n]
        star = rho_star(n, spec, tol=1e-9)
        resid = abs(star - 2.0 * (lam + _second_moment(n, star, spec)))
        ok &= 2.0 * lam < star <= 4.0 * lam
        ok &= resid < 1e-8
        details.append(f"v={spec.v},n={n}: {star / lam:.4f} lambda, resid {resid:.1e}")
    _verdict(10, ok, "fourth-moment bound holds everywhere; crossover radius "
             "bracketed with tight residual", "; ".join(details))
