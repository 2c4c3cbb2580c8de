"""Coefficient functions of the large-radius expansion.

The k-th coefficient function is the ratio rho^k (d/drho)^k alpha / alpha
of the ball mass.  It admits an exact combinatorial reduction to a linear
combination of ball integrals, with rational weights built from Stirling
numbers and semifactorial ratios; that reduction is the production route.
A finite-difference evaluation of the defining ratio serves as its
independent oracle, and the asymptotic report checks the vanishing, the
limiting sign pattern, and the exponential envelope at large radius.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ball import (MultiIndex, Spectrum, _check_rho, _check_spectrum, _fd_derivative,
                   ball_integral, ball_integrals)
from .errors import CapabilityError, DomainError
from .report import Report
from .special import (_compositions, _finite, _integer, _integer_cache, _multinomial, _real,
                      raising_factorial, stirling_second)

__all__ = [
    "CoefficientTable",
    "coefficient_table",
    "eta_combinatorial",
    "eta_fd_oracle",
    "q_polynomial",
    "asymptotic_checks",
]

_K_MAX_TABLE = 32
_K_MAX_COMBINATORIAL = 6
_K_MAX_FD = 4


@dataclass(frozen=True)
class CoefficientTable:
    """Exact rational tables for dimension v up to order k_max.

    ``d[k][l]`` expands the k-fold scaled radial derivative
    (rho d/drho)^k alpha over the index-summed integrals x_l;
    ``c[k][l]`` does the same for rho^k (d/drho)^k alpha / alpha.
    Since (rho d/drho)^k = sum_t S(k, t) rho^t (d/drho)^t, with S the
    Stirling numbers of the second kind, d = S c:
    ``d[k][l] = sum_t S(k, t) c[t][l]``.  ``phi[k]`` is the semifactorial
    quotient v!! / (v - 2k)!! extended by its product recurrence when the
    quotient form is undefined.
    """

    v: int
    d: tuple[tuple[Fraction, ...], ...]
    c: tuple[tuple[Fraction, ...], ...]
    phi: tuple[int, ...]


@_integer_cache(maxsize=256)
def coefficient_table(v: int, k_max: int) -> CoefficientTable:
    v, k_max = _integer(v, "dimension", 1), _integer(k_max, "k_max", 0, _K_MAX_TABLE)
    phi = [1]
    for k in range(1, k_max + 1):
        phi.append((v - 2 * k + 2) * phi[k - 1])

    d = [[Fraction(0)] * (k_max + 1) for _ in range(k_max + 1)]
    c = [[Fraction(0)] * (k_max + 1) for _ in range(k_max + 1)]
    d[0][0] = Fraction(1)
    c[0][0] = Fraction(1)
    for k in range(1, k_max + 1):
        for ell in range(k + 1):
            c[k][ell] = Fraction((-1) ** ell * phi[k - ell] * math.comb(k, ell),
                                 2 ** k)
            d[k][ell] = sum(stirling_second(k, t) * c[t][ell] for t in range(ell, k + 1))
    return CoefficientTable(
        v,
        tuple(tuple(row) for row in d),
        tuple(tuple(row) for row in c),
        tuple(phi),
    )


def _index_sum_ratios(ells, rho: float,
                      spectrum: Spectrum) -> tuple[float, dict[int, float]]:
    """The ball mass, and per ell the sum over all ell-fold index
    insertions of the integral ratio.

    Equal multiplicity patterns are grouped, each weighted by the count of
    index orderings that produce it, so the cost is one family member per
    distinct pattern instead of v^ell.  The zero index and the patterns of
    every ell in ``ells`` share one :func:`ball_integrals` pass.
    """
    v = _check_spectrum(spectrum).v
    # each pattern with its multinomial count of index orderings
    terms = {ell: [(_multinomial(combo), MultiIndex(combo))
                   for combo in _compositions(ell, v)]
             for ell in ells}
    zero = MultiIndex.zero(v)
    alphas = ball_integrals(dict.fromkeys(  # ell = 0 repeats the zero index
        [zero] + [index for pairs in terms.values() for _, index in pairs]),
        rho, spectrum)
    base = alphas[zero].value
    return base, {ell: sum(weight * alphas[index].value
                           for weight, index in pairs) / base
                  for ell, pairs in terms.items()}


def index_sum_ratio(ell: int, rho: float, spectrum: Spectrum) -> float:
    """Sum over all ell-fold index insertions of the integral ratio."""
    ell = _integer(ell, "insertion count", 0)
    return _index_sum_ratios((ell,), rho, spectrum)[1][ell]


def _order(k) -> int:
    """``k`` as an order of the combinatorial route: a non-integral or
    negative order is a DomainError, one past the route's cap a
    CapabilityError."""
    k = _integer(k, "order", 0)
    if k > _K_MAX_COMBINATORIAL:
        raise CapabilityError(f"combinatorial route supports k <= {_K_MAX_COMBINATORIAL} "
                              f"(cost grows with compositions), got {k}")
    return k


def _etas(k_max: int, rho: float,
          spectrum: Spectrum) -> tuple[float, tuple[float, ...]]:
    """The ball mass and eta_0, ..., eta_k_max from one family read."""
    c = coefficient_table(spectrum.v, _order(k_max)).c
    mass, ratios = _index_sum_ratios(range(k_max + 1), rho, spectrum)
    return mass, tuple(
        float(sum(float(c[k][ell]) * ratios[ell] for ell in range(k + 1)))
        for k in range(k_max + 1))


def eta_combinatorial(k: int, rho: float, spectrum: Spectrum) -> float:
    """The k-th coefficient function through the exact reduction.
    A view of one ``_etas`` read, kept because PAPER.md names it."""
    k, rho = _order(k), _check_rho(rho)
    _check_spectrum(spectrum)
    if k == 0:
        return 1.0
    return _etas(k, rho, spectrum)[1][k]


def eta_fd_oracle(k: int, rho: float, spectrum: Spectrum) -> float:
    """Finite-difference oracle for the k-th coefficient function.

    Step rho * 10^(-2/k), one Richardson extrapolation; independent of the
    combinatorial route (it only ever evaluates the plain ball mass).
    """
    k, rho = _integer(k, "order", 0, _K_MAX_FD), _check_rho(rho)
    v = _check_spectrum(spectrum).v
    if k == 0:
        return 1.0
    zero = MultiIndex.zero(v)

    def alpha(r: float) -> float:
        return ball_integral(zero, r, spectrum).value

    h = rho * 10.0 ** (-2.0 / k)
    # the half step's k-th power divides the differences
    if (h / 2.0) ** k < sys.float_info.min or rho - (k / 2.0) * h <= 0.0:
        raise DomainError(f"step {h} leaves the domain at rho={rho}")
    return rho ** k * _fd_derivative(alpha, rho, k, h) / alpha(rho)


def q_polynomial(k: int, x: float, a: float) -> float:
    """Binomial-type polynomial with raising-factorial coefficients.

    Degree k in x with unit leading coefficient; the l-th coefficient is
    C(k, l) times the l-th raising factorial of a.  A value past float
    range is a :class:`NumericError`.
    """
    k, x, a = _integer(k, "degree", 0), _real(x, "x"), _real(a, "a")
    try:
        value = float(sum(math.comb(k, ell) * raising_factorial(a, ell) * x ** (k - ell)
                          for ell in range(k + 1)))
    except OverflowError:  # a power of x past float range
        value = math.inf
    return _finite(value, f"Q_{k}({x}; {a})")


def radial_derivative_envelope(k: int, rho: float, spectrum: Spectrum) -> float:
    """Upper bound on |rho^k (d/drho)^k alpha| at large radius.

    The angular average of the degree-(k-1) polynomial factor Q_{k-1} is
    bounded by the maximum of |Q_{k-1}| over the attainable range
    [rho / (2 lambda_max), rho / (2 lambda_min)] of the quadratic form,
    which keeps the bound valid without any integration over the sphere.
    Q is an Appell sequence, d/dx Q_j = j Q_{j-1}, so that maximum sits at
    an end of the range or at a real root of Q_{k-2} inside it; those
    points are all that is evaluated.  Exact for k = 1, where Q_0 = 1.
    """
    k, rho, v = _integer(k, "k", 1), _check_rho(rho), _check_spectrum(spectrum).v
    det_sqrt = math.sqrt(math.prod(spectrum.lambdas))
    pref = rho ** (v / 2.0) / (2.0 ** (v / 2.0) * math.gamma(v / 2.0) * det_sqrt)
    a = -(v / 2.0 - 1.0)
    lo = rho / (2.0 * spectrum.lambda_max)
    hi = rho / (2.0 * spectrum.lambda_min)
    # every root's real part: that of a complex root is one more point of
    # the range, which keeps the maximum a bound
    roots = np.roots([math.comb(k - 2, ell) * raising_factorial(a, ell)
                      for ell in range(k - 1)]).real if k >= 2 else ()
    poly_max = max(abs(q_polynomial(k - 1, x, a))
                   for x in (lo, hi, *(r for r in roots if lo < r < hi)))
    return pref * poly_max * math.exp(-rho / (2.0 * spectrum.lambda_max))


def asymptotic_checks(spectrum: Spectrum, k_max: int,
                      rho_schedule: tuple[float, ...]) -> Report:
    """Vanishing, limiting signs, and exponential envelope along a schedule."""
    _check_spectrum(spectrum)
    try:
        schedule = tuple(_check_rho(r) for r in rho_schedule)
    except TypeError:  # _check_rho raises none, so the schedule is not iterable
        raise DomainError(
            f"rho schedule must be an iterable of radii, got {rho_schedule!r}") from None
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("rho schedule must be non-empty and strictly increasing")
    k_max = _integer(k_max, "k_max", 1)
    report = Report("asymptotic")
    # the mass and every eta_k at a radius come from one family read
    reads = {rho: _etas(k_max, rho, spectrum) for rho in schedule}
    for k in range(1, k_max + 1):
        values = [reads[r][1][k] for r in schedule]
        tail = values[-3:] if len(values) >= 3 else values
        report.add(f"vanishing[k={k}]",
                   min((abs(a) - abs(b) for a, b in zip(tail, tail[1:])), default=0.0),
                   detail=f"|eta_{k}| along tail: "
                          + ", ".join(f"{abs(x):.3e}" for x in tail))
        want = (-1.0) ** (k - 1)
        report.add(f"limit-sign[k={k}]", min(want * x for x in values[-2:]),
                   detail=f"expected sign {int(want)}")
        for rho in schedule[-2:]:
            alpha, etas = reads[rho]
            lhs = abs(etas[k]) * alpha
            env = radial_derivative_envelope(k, rho, spectrum)
            report.add(f"envelope[k={k},rho={rho:g}]", env - lhs,
                       detail=f"|rho^k d^k alpha| {lhs:.3e} < bound {env:.3e}")
    return report
