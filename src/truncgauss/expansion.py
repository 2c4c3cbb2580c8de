"""Partial sums of the large-radius expansion and its convergence-rate machinery.

Each expansion order factorizes into one-dimensional integrals along the
sliced direction(s) times a reduced-dimension coefficient function, with
power counting carried by (lambda_n / rho)^q.  The convergence-rate
estimate prices the p-th term by maximizing the relevant polynomial-times-
exponential profile over the positive axis, then fits the decay to a power
law; the fitted pair (amplitude, exponent) is the reproducible summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ball import MultiIndex, Spectrum, ball_integrals
from .errors import DomainError, NumericError
from .eta import _etas, q_polynomial
from .moments import MomentBatch
from .report import Report

__all__ = [
    "ExpansionPartialSum",
    "ConvergenceEstimate",
    "q_polynomial",
    "expand_alpha",
    "gamma_nn_expansion_coeff",
    "gamma_nm_cancellation_check",
    "convergence_estimate",
]

_MAX_ORDER = 4

TARGET_ALPHA = "alpha"
TARGET_SINGLE = "alpha_nk"
TARGET_PAIR = "alpha_nm"


@dataclass(frozen=True)
class ExpansionPartialSum:
    target: str
    order: int
    value: float
    terms: tuple[float, ...]


@dataclass(frozen=True)
class ConvergenceEstimate:
    v: int
    p_values: tuple[int, ...]
    c_values: tuple[float, ...]
    fit_A: float
    fit_eps: float
    fit_chi2: float


def _reduced(order: int, rho: float, spectrum: Spectrum,
             *dims: int) -> tuple[float, tuple[float, ...]]:
    """Mass and eta_0, ..., eta_order of the spectrum without ``dims``,
    from one family read; with no dimension left, mass 1 and eta = (1, 0, ...)."""
    rest = tuple(lam for j, lam in enumerate(spectrum.lambdas) if j not in dims)
    if not rest:
        return 1.0, (1.0,) + (0.0,) * order
    return _etas(order, rho, Spectrum(rest))


def _alphas_1d(ks, rho: float, lam: float) -> dict[int, float]:
    """alpha_k(rho; lam) for every k in ks, from one v = 1 family."""
    family = ball_integrals([MultiIndex((k,)) for k in ks], rho, Spectrum((lam,)))
    return {index.multiplicities[0]: family[index].value for index in family}


def expand_alpha(target: str, n: int, order: int, rho: float,
                 spectrum: Spectrum, *, k: int = 0,
                 m: int | None = None) -> ExpansionPartialSum:
    """Partial sum of the sliced expansion up to the given order.

    ``target`` selects the integral: the plain mass ("alpha"), the k-fold
    single-index integral ("alpha_nk", multiplicity via ``k``), or the
    two-index pair integral ("alpha_nm", second dimension via ``m``).
    The returned terms list carries one contribution per order.
    """
    if order < 0 or order > _MAX_ORDER:
        raise DomainError(f"order must be in [0, {_MAX_ORDER}], got {order}")
    v = spectrum.v
    if not 0 <= n < v:
        raise DomainError(f"dimension {n} out of range for v={v}")
    lam_n = spectrum.lambdas[n]

    if target in (TARGET_ALPHA, TARGET_SINGLE):
        base_k = 0 if target == TARGET_ALPHA else int(k)
        if base_k < 0:
            raise DomainError(f"multiplicity must be >= 0, got {base_k}")
        rest, etas = _reduced(order, rho, spectrum, n)
        one_dim = _alphas_1d(range(base_k, base_k + order + 1), rho, lam_n)
        terms = [
            (-1.0) ** q / math.factorial(q) * (lam_n / rho) ** q
            * one_dim[base_k + q] * rest * etas[q]
            for q in range(order + 1)
        ]
    elif target == TARGET_PAIR:
        if m is None or m == n or not 0 <= m < v:
            raise DomainError(
                f"pair target needs a second dimension distinct from {n}, got {m}"
            )
        if v < 2:
            raise DomainError("pair target needs v >= 2")
        lam_m = spectrum.lambdas[m]
        rest, etas = _reduced(order, rho, spectrum, n, m)
        alpha_n = _alphas_1d(range(1, order + 2), rho, lam_n)
        alpha_m = _alphas_1d(range(1, order + 2), rho, lam_m)
        terms = []
        for j in range(order + 1):
            inner = 0.0
            for a in range(j + 1):
                b = j - a
                inner += (
                    math.comb(j, a)
                    * (lam_n / rho) ** a * (lam_m / rho) ** b
                    * alpha_n[1 + a] * alpha_m[1 + b]
                )
            terms.append(
                (-1.0) ** j / math.factorial(j) * inner * rest * etas[j]
            )
    else:
        raise DomainError(f"unknown expansion target {target!r}")

    return ExpansionPartialSum(target, order, float(sum(terms)), tuple(terms))


def gamma_nn_expansion_coeff(rho_limit: bool, n: int, rho: float,
                             spectrum: Spectrum) -> float:
    """Bracketed first-order coefficient of the scaled-variance expansion.

    The bracket combines three one-dimensional integral ratios along
    dimension n; at infinite radius the ratios reach their semifactorial
    limits and the bracket equals 15 - 9 + 2 = 8.
    """
    if not 0 <= n < spectrum.v:
        raise DomainError(f"dimension {n} out of range for v={spectrum.v}")
    if rho_limit:
        return 8.0
    alpha = _alphas_1d(range(4), rho, spectrum.lambdas[n])
    r1, r2, r3 = (alpha[k] / alpha[0] for k in (1, 2, 3))
    return r3 - 3.0 * r2 * r1 + 2.0 * r1 ** 3


def gamma_nm_cancellation_check(n: int, m: int, rho: float,
                                spectrum: Spectrum) -> Report:
    """Term-by-term cancellation in the scaled-covariance expansion.

    The two ratio expansions entering the covariance share their zeroth-
    and first-order terms exactly, so the covariance itself is smaller than
    either series' first-order term by at least one more power of
    lambda / rho (with an exponentially small remainder on top).
    """
    v = spectrum.v
    if n == m or not (0 <= n < v and 0 <= m < v):
        raise DomainError("cancellation check needs two distinct dimensions "
                          f"in 0..{v - 1}, got {n} and {m}")
    report = Report("covariance-cancellation")
    lam_n, lam_m = spectrum.lambdas[n], spectrum.lambdas[m]

    alpha_n = _alphas_1d(range(3), rho, lam_n)
    alpha_m = _alphas_1d(range(3), rho, lam_m)
    rn1, rn2 = alpha_n[1] / alpha_n[0], alpha_n[2] / alpha_n[0]
    rm1, rm2 = alpha_m[1] / alpha_m[0], alpha_m[2] / alpha_m[0]
    eta1 = _reduced(1, rho, spectrum, n, m)[1][1]

    # Ratio expansion of the pair integral over the mass.
    route_a0 = rn1 * rm1
    route_a1 = (
        -(lam_n / rho) * (rn2 / rn1 - rn1) * rn1 * rm1 * eta1
        - (lam_m / rho) * (rm2 / rm1 - rm1) * rn1 * rm1 * eta1
    )
    # Ratio expansion of the product of single integrals over the mass squared.
    route_b0 = rn1 * rm1
    route_b1 = (
        -(lam_n / rho) * (rn2 / rn1) * rn1 * rm1 * eta1
        - (lam_m / rho) * (rm2 / rm1) * rn1 * rm1 * eta1
        + (lam_n / rho) * rn1 * rn1 * rm1 * eta1
        + (lam_m / rho) * rm1 * rn1 * rm1 * eta1
    )

    scale0 = abs(route_a0)
    diff0 = abs(route_a0 - route_b0)
    report.add("order-0-cancellation", diff0 <= 1e-14 * scale0, scale0 - diff0,
               detail=f"difference {diff0:.3e}")
    scale1 = max(abs(route_a1), abs(route_b1), 1e-300)
    diff1 = abs(route_a1 - route_b1)
    report.add("order-1-cancellation", diff1 <= 1e-12 * scale1, scale1 - diff1,
               detail=f"difference {diff1:.3e} vs term size {scale1:.3e}")

    gamma_nm = MomentBatch(rho, spectrum).cov(n, m)[0] / rho ** 2
    envelope = (lam_n * lam_m / rho ** 2) * (spectrum.lambda_max / rho)
    report.add("covariance-below-first-order", abs(gamma_nm) < envelope,
               envelope - abs(gamma_nm),
               detail=f"|cov|/rho^2 = {abs(gamma_nm):.3e} vs envelope {envelope:.3e}")
    return report


# ---------------------------------------------------------------------------
# Convergence-rate estimate
# ---------------------------------------------------------------------------

def _term_profile_log(p: int, phi_star: float, log_x: np.ndarray) -> np.ndarray:
    """log of |sum_l r_l x^(p-l+phi*) / (l! (p-1-l)!)| - x on a log-x grid.

    This is the p-th term envelope: the degree-(p-1) binomial-type
    polynomial over (p-1)!, carrying the x^((v-1)/2) prefactor of the
    reduced-dimension derivative bound (hence the +phi* in the exponent,
    with phi* = (v-3)/2, r_l the l-th raising factorial of -phi*).
    """
    signs = np.empty(p)
    logabs = np.empty(p)
    sign, mag = 1.0, 0.0
    alive = True
    for ell in range(p):
        if alive and ell > 0:
            factor = -phi_star + (ell - 1)
            if factor == 0.0:
                alive = False
            else:
                sign *= math.copysign(1.0, factor)
                mag += math.log(abs(factor))
        if alive:
            signs[ell] = sign
            logabs[ell] = mag - math.lgamma(ell + 1) - math.lgamma(p - ell)
        else:
            signs[ell] = 0.0
            logabs[ell] = -np.inf
    powers = p - np.arange(p) + phi_star
    log_terms = logabs[None, :] + np.outer(log_x, powers)
    peak = np.max(log_terms, axis=1)
    balanced = np.einsum(
        "ij,j->i", np.exp(log_terms - peak[:, None]), signs
    )
    x = np.exp(log_x)
    with np.errstate(divide="ignore"):
        return peak + np.log(np.abs(balanced)) - x


def _c_value(v: int, p: int) -> float:
    """Max over positive x of the p-th term profile, divided by p."""
    phi_star = (v - 3) / 2.0
    grid = np.linspace(math.log(1e-3), math.log(1e3), 400)
    profile = _term_profile_log(p, phi_star, grid)
    i = int(np.argmax(profile))
    if i == 0 or i == len(grid) - 1:
        raise NumericError(
            f"maximizer bracket failure for the term profile at v={v}, p={p}"
        )
    lo, hi = grid[i - 1], grid[i + 1]

    def f(log_x: float) -> float:
        return float(_term_profile_log(p, phi_star, np.array([log_x]))[0])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = f(c1), f(c2)
    while abs(b - a) > 1e-10 * max(abs(a), abs(b), 1.0):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = f(c1)
    # One parabolic polish through the final bracket.
    xs = np.array([a, (a + b) / 2.0, b])
    ys = np.array([f(xs[0]), f(xs[1]), f(xs[2])])
    denom = (xs[0] - xs[1]) * (xs[0] - xs[2]) * (xs[1] - xs[2])
    if denom != 0.0:
        aa = (xs[2] * (ys[1] - ys[0]) + xs[1] * (ys[0] - ys[2])
              + xs[0] * (ys[2] - ys[1])) / denom
        bb = (xs[2] ** 2 * (ys[0] - ys[1]) + xs[1] ** 2 * (ys[2] - ys[0])
              + xs[0] ** 2 * (ys[1] - ys[2])) / denom
        if aa < 0.0:
            vertex = -bb / (2.0 * aa)
            if xs[0] <= vertex <= xs[2]:
                ys = np.append(ys, f(vertex))
    return math.exp(float(np.max(ys))) / p


def convergence_estimate(v: int, p_min: int, p_max: int) -> ConvergenceEstimate:
    """Power-law fit of the term-size estimate over [p_min, p_max].

    A decaying fit (positive exponent) signals a convergent expansion for
    that dimension; the estimate turns increasing at v = 6.
    """
    if not 2 <= v <= 6:
        raise DomainError(f"estimate defined for 2 <= v <= 6, got {v}")
    if not 1 <= p_min < p_max <= 200:
        raise DomainError(f"need 1 <= p_min < p_max <= 200, got [{p_min}, {p_max}]")
    p_values = tuple(range(p_min, p_max + 1))
    c_values = tuple(_c_value(v, p) for p in p_values)
    log_p = np.log(p_values)
    log_c = np.log(c_values)
    slope, intercept = np.polyfit(log_p, log_c, 1)
    resid = log_c - (slope * log_p + intercept)
    chi2 = float(resid @ resid) / max(len(p_values) - 2, 1)
    return ConvergenceEstimate(
        v, p_values, c_values, float(math.exp(intercept)), float(-slope), chi2
    )
