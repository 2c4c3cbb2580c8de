"""Partial sums of the large-radius expansion and its convergence-rate machinery.

Each expansion order factorizes into one-dimensional integrals along the
sliced dimensions, given as one mapping from each to its base
multiplicity, times the coefficient function eta_j of the spectrum without
them, with power counting carried by (lambda_d / rho)^q.  The order is
capped only by eta's combinatorial route.  The convergence-rate
estimate prices the p-th term by maximizing the relevant polynomial-times-
exponential profile over the positive axis, then fits the decay to a power
law; the fitted pair (amplitude, exponent) is the reproducible summary.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .ball import (MultiIndex, Spectrum, _check_rho, _check_spectrum, _dimension,
                   ball_integrals)
from .errors import DomainError, NumericError
from .eta import _etas, _order
from .special import _compositions, _integer, _multinomial

__all__ = [
    "ExpansionPartialSum",
    "ConvergenceEstimate",
    "expand_alpha",
    "gamma_nn_expansion_coeff",
    "convergence_estimate",
]

@dataclass(frozen=True)
class ExpansionPartialSum:
    sliced: tuple[tuple[int, int], ...]
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


def _alphas_1d(ks, rho: float, lam: float) -> list[float]:
    """alpha_k(rho; lam) for every k in ks, in order, from one v = 1 family."""
    family = ball_integrals([MultiIndex((k,)) for k in ks], rho, Spectrum((lam,)))
    return [member.value for member in family.values()]


def expand_alpha(sliced, order: int, rho: float,
                 spectrum: Spectrum) -> ExpansionPartialSum:
    """Partial sum of the sliced expansion up to the given order.

    ``sliced`` maps each sliced dimension d (0-based) to its base
    multiplicity k_d, read in the mapping's order: ``{n: 0}`` expands the
    plain mass, ``{n: k}`` the k-fold single-index integral and
    ``{n: 1, m: 1}`` the two-index pair integral.  The order-j term is
    (-1)^j / j! times the mass and eta_j of the spectrum without the sliced
    dimensions, times the sum over compositions a of j of multinomial(j; a)
    times prod_d (lambda_d / rho)^(a_d) alpha_1d(k_d + a_d).  The order is
    capped by the combinatorial route of eta alone: past it, the same
    :class:`CapabilityError` as :func:`eta_combinatorial`.  The returned
    terms list carries one contribution per order.
    """
    order, rho = _order(order), _check_rho(rho)
    v = _check_spectrum(spectrum).v
    if not isinstance(sliced, Mapping) or not sliced:
        raise DomainError("sliced must be a non-empty mapping from dimension to "
                          f"multiplicity, got {sliced!r}")
    base = {_dimension(d, v): _integer(k_d, "multiplicity") for d, k_d in sliced.items()}

    lams = spectrum.lambdas
    # per sliced dimension: lambda_d / rho and alpha_1d(k_d + a), a = 0..order;
    # a negative k_d is the DomainError of its MultiIndex
    slices = [(lams[d] / rho,
               _alphas_1d([k_d + a for a in range(order + 1)], rho, lams[d]))
              for d, k_d in base.items()]
    rest, etas = _reduced(order, rho, spectrum, *base)
    terms = []
    for j in range(order + 1):
        inner = sum(
            _multinomial(split) * math.prod(
                ratio ** a * alphas[a] for (ratio, alphas), a in zip(slices, split))
            for split in _compositions(j, len(slices)))
        terms.append((-1.0) ** j / math.factorial(j) * inner * rest * etas[j])
    return ExpansionPartialSum(tuple(base.items()), order, float(sum(terms)), tuple(terms))


def gamma_nn_expansion_coeff(n: int, rho: float, spectrum: Spectrum) -> float:
    """Bracketed first-order coefficient of the scaled-variance expansion.

    The bracket combines three one-dimensional integral ratios along
    dimension n; at infinite radius the ratios reach their semifactorial
    limits and the bracket tends to 15 - 9 + 2 = 8.
    """
    n, rho = _dimension(n, _check_spectrum(spectrum).v), _check_rho(rho)
    alpha = _alphas_1d(range(4), rho, spectrum.lambdas[n])
    r1, r2, r3 = (alpha[k] / alpha[0] for k in (1, 2, 3))
    return r3 - 3.0 * r2 * r1 + 2.0 * r1 ** 3


# ---------------------------------------------------------------------------
# Convergence-rate estimate
# ---------------------------------------------------------------------------

def _term_profile_log(p: int, phi_star: float, log_x: np.ndarray) -> np.ndarray:
    """log of |sum_l r_l x^(p-l+phi*) / (l! (p-1-l)!)| - x on a log-x grid.

    This is the p-th term envelope: the degree-(p-1) binomial-type
    polynomial over (p-1)!, carrying the x^((v-1)/2) prefactor of the
    reduced-dimension derivative bound (hence the +phi* in the exponent,
    with phi* = (v-3)/2, r_l the l-th raising factorial of -phi*).  A zero
    factor of r_l gives it, and every later coefficient, sign 0 and log -inf.
    """
    factors = np.arange(p - 1) - phi_star  # r_l = prod of the first l
    with np.errstate(divide="ignore"):
        logabs = np.concatenate(([0.0], np.cumsum(np.log(np.abs(factors)))))
    signs = np.concatenate(([1.0], np.cumprod(np.sign(factors))))
    logabs = (logabs - [math.lgamma(ell + 1) for ell in range(p)]
              - [math.lgamma(p - ell) for ell in range(p)])
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
    """Max over positive x of the p-th term profile, divided by p.

    A 400-point log grid over [1e-3, 1e3] finds the lobes; every lobe
    whose grid peak lies within 0.1 (in log) of the best node has the two
    cells around its peak re-gridded with 400 points until the bracket is
    narrower than 1e-10 relative, and the highest refined peak is kept.
    """
    phi_star = (v - 3) / 2.0
    grid = np.linspace(math.log(1e-3), math.log(1e3), 400)
    profile = _term_profile_log(p, phi_star, grid)
    best = int(np.argmax(profile))
    if best == 0 or best == len(grid) - 1:
        raise NumericError(
            f"maximizer bracket failure for the term profile at v={v}, p={p}"
        )
    # Two lobes can peak so close that the coarse grid ranks them wrongly.
    # At v = 2..12, p <= 200, a window of 0.1 keeps the C(p) of refining
    # the three highest lobes, and refines a single lobe for most p.
    floor = np.maximum(np.maximum(profile[:-2], profile[2:]), profile[best] - 0.1)
    peaks = []
    for i in 1 + np.flatnonzero(profile[1:-1] >= floor):
        a, b = grid[i - 1], grid[i + 1]
        while abs(b - a) > 1e-10 * max(abs(a), abs(b), 1.0):
            fine = np.linspace(a, b, 400)
            refined = _term_profile_log(p, phi_star, fine)
            j = min(max(int(np.argmax(refined)), 1), len(fine) - 2)
            a, b = fine[j - 1], fine[j + 1]
        peaks.append(float(np.max(refined)))
    return math.exp(max(peaks)) / p


def convergence_estimate(v: int, p_min: int, p_max: int) -> ConvergenceEstimate:
    """Power-law fit of the term-size estimate over [p_min, p_max].

    A decaying fit (positive exponent) signals a convergent expansion for
    that dimension; the estimate turns increasing at v = 6.  phi* =
    (v - 3) / 2 holds for every v, but the float profile is trusted only
    through v = 10: there every C(p), p <= 200, is within 1e-8 of a 40-digit
    reference (6.8e-9 at worst, at v = 10, p = 194).  At v = 11 the
    alternating sum of the profile already cancels to 2.1e-8 (p = 199).
    """
    v, p_min = _integer(v, "v", 2, 10), _integer(p_min, "p_min", 1, 199)
    p_max = _integer(p_max, "p_max", p_min + 1, 200)
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
