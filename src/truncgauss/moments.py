"""Conditional moments of the ball-truncated Gaussian and the inequality battery.

All moments are ratios of ball integrals, formed as arithmetic on
:class:`ball.IntegralValue`, which carries each integral's error bar through
every operation.  So every moment, and every inequality check's margin,
comes with its own bar, which ``report.holds`` scales into the noise
threshold (``report`` holds the factor): a genuine violation is
distinguishable from roundoff at points where the quantity being tested is
itself tiny.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

from .ball import (_BOUND_FACTOR, IntegralValue, MultiIndex, Spectrum, _check_rho,
                   _check_spectrum, _dimension, _index_family, ball_integral, ball_integrals)
from .errors import DomainError, NumericError
from .report import Report, holds
from .special import _finite, _nonzero, _positive, _real

__all__ = [
    "MomentBatch",
    "MomentSet",
    "CorrelationSet",
    "HolderReport",
    "conditional_moments",
    "variance_gap",
    "variance_gap_with_error",
    "correlation_set",
    "marginal_density",
    "holder_report",
    "loose_bound_check",
    "rho_star",
    "inequality_battery",
]

REGION_STRONG = "strong"
REGION_WEAK = "weak"
REGION_CROSSOVER = "crossover"


@dataclass(frozen=True)
class MomentSet:
    """Second and fourth conditional moments plus the full cross matrix."""

    second: tuple[float, ...]           # E[X_n^2 | ball]
    fourth: tuple[float, ...]           # E[X_n^4 | ball]
    cross: tuple[tuple[float, ...], ...]  # E[X_n^2 X_m^2 | ball]

    @property
    def v(self) -> int:
        return len(self.second)


@dataclass(frozen=True)
class CorrelationSet:
    """Scaled correlations of the squared components.

    ``gamma[n][n]`` is var(X_n^2)/rho^2, ``gamma[n][m]`` the matching scaled
    covariance, and ``delta[n]`` the variance-gap combination
    (var(X_n^2) - 2 lambda_n E[X_n^2]) / rho^2 whose sign the library probes.
    """

    gamma: tuple[tuple[float, ...], ...]
    delta: tuple[float, ...]


@dataclass(frozen=True)
class HolderReport:
    h: float
    h1: float  # rho - E[X_n^2], the edge branch
    h2: float  # E[X_n^2], the center branch
    region: str
    bound_holds: bool

    @property
    def dominant_branch(self) -> str:
        """Which candidate realizes the essential supremum.

        Recorded, never assumed: only in the weak region is the edge branch
        provably the larger one.
        """
        return "edge" if self.h1 >= self.h2 else "center"


class MomentBatch:
    """Every conditional moment at one ``(rho, spectrum)``, with its error.

    Each moment is a ratio ``alpha_k / alpha_0`` of ball integrals, read
    from ``family``: a mapping from each multi-index of the order-2 family
    ``{0, e_n, e_n + e_m}`` to its :class:`IntegralValue`.  The members are
    those of ``ball._index_family(v)``, the family's one owner, looked up
    by their sorted dimensions.  By default the batch evaluates that family
    in one :func:`ball_integrals` pass when it is built, and reads alpha_0
    then; every other member is read, and checked, only when a moment needs
    it.  A ratio is kept on first use.  Every accessor returns an
    :class:`IntegralValue` ``(value, err)`` formed by that type's
    arithmetic, so ``err`` bounds how far the moment moves while each
    member moves within its bar; a moment past float range is a
    :class:`NumericError`.  Beyond the mixture's term budget, pass a Monte
    Carlo family:
    ``{i: IntegralValue(e.mean, e.std_error) for i, e in
    ball_integrals_mc(...).items()}``.
    """

    def __init__(self, rho: float, spectrum: Spectrum, family=None):
        self.rho = rho = _check_rho(rho)
        self.spectrum = spectrum = _check_spectrum(spectrum)
        if family is None:
            family = ball_integrals(_index_family(spectrum.v).values(), rho, spectrum)
        elif not isinstance(family, Mapping):
            raise DomainError(f"family must be a mapping from MultiIndex, got {family!r}")
        self._family = family
        self._base = self._member(())
        self._ratios: dict[tuple[int, ...], IntegralValue] = {}

    def _member(self, dims: tuple[int, ...]):
        """The family's integral at the member of sorted dimensions ``dims``;
        a DomainError if the family lacks it."""
        index = _index_family(self.spectrum.v)[dims]
        try:
            return self._family[index]
        except KeyError:
            raise DomainError(
                f"family has no member at multi-index {index.multiplicities}") from None

    def _ratio(self, *dims: int) -> IntegralValue:
        """alpha_k / alpha_0 for k = sum of e_d over dims, each d already
        checked by :func:`_dimension`."""
        key = tuple(sorted(dims))
        if key not in self._ratios:
            self._ratios[key] = self._member(key) / self._base
        return self._ratios[key]

    @functools.cached_property
    def rho2(self) -> float:
        """rho^2, the divisor of every scaled moment; a NumericError if it
        underflows to 0."""
        return _nonzero(self.rho * self.rho, f"rho^2 at rho = {self.rho}")

    def second(self, n: int) -> IntegralValue:
        """E[X_n^2 | ball]."""
        n = _dimension(n, self.spectrum.v)
        return _finite_moment(self.spectrum.lambdas[n] * self._ratio(n), f"E[X_{n}^2]")

    def product(self, n: int, m: int) -> IntegralValue:
        """E[X_n^2 X_m^2 | ball]; the fourth moment E[X_n^4 | ball] when n == m."""
        n, m = _dimension(n, self.spectrum.v), _dimension(m, self.spectrum.v)
        lams = self.spectrum.lambdas
        return _finite_moment(lams[n] * lams[m] * self._ratio(n, m), f"E[X_{n}^2 X_{m}^2]")

    def cov(self, n: int, m: int) -> IntegralValue:
        """cov(X_n^2, X_m^2 | ball); var(X_n^2 | ball) when n == m."""
        n, m = _dimension(n, self.spectrum.v), _dimension(m, self.spectrum.v)
        scale = self.spectrum.lambdas[n] * self.spectrum.lambdas[m]
        return _finite_moment(scale * (self._ratio(n, m) - self._ratio(n) * self._ratio(m)),
                              f"cov(X_{n}^2, X_{m}^2)")

    def gap(self, n: int) -> IntegralValue:
        """The scaled gap (var(X_n^2) - 2 lambda_n E[X_n^2]) / rho^2."""
        n = _dimension(n, self.spectrum.v)
        var, second = self.cov(n, n), self.second(n)
        lam = self.spectrum.lambdas[n]
        return _finite_moment((var - 2.0 * lam * second) / self.rho2, f"variance gap {n}")


def _finite_moment(moment: IntegralValue, what: str) -> IntegralValue:
    """``moment`` if its value is finite, else a NumericError naming ``what``."""
    _finite(moment.value, what)
    return moment


def conditional_moments(rho: float, spectrum: Spectrum) -> MomentSet:
    """Second/fourth/cross conditional moments as integral ratios.

    Reads the ball integrals (quadrature at v = 2..4, the chi-square mixture
    at every other v) and enforces the moment bounds strictly.
    """
    batch = MomentBatch(rho, spectrum)
    v, lams = spectrum.v, spectrum.lambdas
    second = tuple(batch.second(n)[0] for n in range(v))
    cross = tuple(tuple(batch.product(n, m)[0] for m in range(v))
                  for n in range(v))
    fourth = tuple(cross[n][n] for n in range(v))
    for n in range(v):
        lam = lams[n]
        if not (0.0 < second[n] <= lam * _BOUND_FACTOR and second[n] < rho):
            raise NumericError(
                f"second moment {second[n]} outside (0, min(lambda, rho)] "
                f"at n={n}, rho={rho}"
            )
        if not (0.0 < fourth[n] <= 3.0 * lam * lam * _BOUND_FACTOR
                and fourth[n] < rho * rho):
            raise NumericError(
                f"fourth moment {fourth[n]} outside its bounds at n={n}, rho={rho}"
            )
    return MomentSet(second, fourth, cross)


def variance_gap_with_error(n: int, rho: float, spectrum: Spectrum) -> IntegralValue:
    """The scaled gap (var(X_n^2) - 2 lambda_n E[X_n^2]) / rho^2 and its
    error bar, carried from the ball integrals' bars."""
    return MomentBatch(rho, spectrum).gap(n)


def variance_gap(n: int, rho: float, spectrum: Spectrum) -> float:
    return variance_gap_with_error(n, rho, spectrum)[0]


def correlation_set(rho: float, spectrum: Spectrum) -> CorrelationSet:
    batch = MomentBatch(rho, spectrum)
    v, rho2 = spectrum.v, batch.rho2
    gamma = [[0.0] * v for _ in range(v)]
    for n in range(v):
        for m in range(n, v):
            gamma[n][m] = gamma[m][n] = batch.cov(n, m)[0] / rho2
    delta = tuple(batch.gap(n)[0] for n in range(v))
    return CorrelationSet(tuple(tuple(row) for row in gamma), delta)


def marginal_density(n: int, x: float, rho: float, spectrum: Spectrum) -> float:
    """Density of the n-th coordinate under the ball-conditioned law.

    Zero outside (-sqrt(rho), sqrt(rho)), infinite x included; the interior
    value is the reduced ball mass at the leftover square radius times the
    Gaussian factor.  A NaN or non-real x is a :class:`DomainError`.
    """
    v = _check_spectrum(spectrum).v
    n, rho, x = _dimension(n, v), _check_rho(rho), _real(x, "x")
    if x * x >= rho:
        return 0.0
    lam = spectrum.lambdas[n]
    gauss = math.exp(-x * x / (2.0 * lam)) / math.sqrt(2.0 * math.pi * lam)
    total = ball_integral(MultiIndex.zero(v), rho, spectrum).value
    if v == 1:
        return gauss / total
    reduced = spectrum.drop(n)
    rest = ball_integral(MultiIndex.zero(v - 1), rho - x * x, reduced).value
    return rest * gauss / total


def holder_report(n: int, rho: float, spectrum: Spectrum) -> HolderReport:
    """Essential-supremum bound on var(X_n^2), with the truncation regime."""
    n = _dimension(n, _check_spectrum(spectrum).v)
    batch = MomentBatch(rho, spectrum)
    e2 = batch.second(n)[0]
    lam = spectrum.lambdas[n]
    h1 = rho - e2
    h2 = e2
    h = max(h1, h2)
    if rho <= lam:
        region = REGION_STRONG
    elif rho > 2.0 * lam:
        region = REGION_WEAK
    else:
        region = REGION_CROSSOVER
    bound = 2.0 * h * e2
    bound_holds = holds(bound - batch.cov(n, n)[0], size=bound)
    return HolderReport(h, h1, h2, region, bound_holds)


def loose_bound_check(n: int, rho: float, spectrum: Spectrum) -> bool:
    """E[X_n^4] <= lambda_n (2 lambda_n + E[X_n^2]), valid at every radius."""
    n = _dimension(n, _check_spectrum(spectrum).v)
    moments = conditional_moments(rho, spectrum)
    lam = spectrum.lambdas[n]
    bound = lam * (2.0 * lam + moments.second[n])
    return holds(bound - moments.fourth[n], size=bound)


def _second_moment(n: int, rho: float, spectrum: Spectrum) -> float:
    """E[X_n^2 | ball] from the only two integrals it needs."""
    zero, single = MultiIndex.zero(spectrum.v), MultiIndex.single(spectrum.v, n)
    family = ball_integrals((zero, single), rho, spectrum)
    return MomentBatch(rho, spectrum, family=family).second(n)[0]


def rho_star(n: int, spectrum: Spectrum, tol: float = 1e-10) -> float:
    """Radius solving rho = 2(lambda_n + E[X_n^2 | ball of that radius]).

    Damped fixed-point iteration; the solution sits in (2 lambda_n,
    4 lambda_n].  Only below this radius does the essential-supremum
    argument keep the variance bound tight.
    """
    tol = _positive(tol, "tol")
    n = _dimension(n, _check_spectrum(spectrum).v)
    lam = spectrum.lambdas[n]
    rho = 3.0 * lam
    damping = 0.5
    for _ in range(200):
        target = 2.0 * (lam + _second_moment(n, rho, spectrum))
        if abs(rho - target) < tol:
            return rho
        rho = (1.0 - damping) * rho + damping * target
    raise NumericError(
        f"fixed-point iteration for the crossover radius did not reach "
        f"tol={tol} in 200 steps (n={n}, last rho={rho})"
    )


def inequality_battery(rho: float, spectrum: Spectrum) -> Report:
    """Every inequality the moment structure must (or is claimed to) satisfy,
    each stated once.

    Proved facts are assert-class; the sign conjectures on the variance gap,
    the covariances, and diagonal dominance are claim-class findings.  The
    battery keeps, with E2 = E[X_n^2] and E4 = E[X_n^4]:

    - ``log-concavity-combination``: the all-ones direction of the
      covariance matrix C of X_n^2 / lambda_n, 1^T C 1 <= 2 v;
    - ``second-vs-variance[n]``: E2 <= lambda_n;
    - ``fourth-vs-loose[n]``: E4 <= lambda_n (2 lambda_n + E2);
    - ``variance-gap[n]``, ``diagonal-dominance[n]`` and
      ``negative-covariance[n,m]``, the claims.

    It states no check that a kept one implies on the same batch:

    - E4 <= E2 (2 lambda_n + E2) has margin -rho^2 times ``variance-gap[n]``'s;
    - sum_n E2 / lambda_n <= v is the sum of ``second-vs-variance[n]``
      divided by lambda_n, with the matching sum of bars;
    - E2 (2 lambda_n + E2) <= lambda_n (2 lambda_n + E2) <= 3 lambda_n^2
      each has the sign of lambda_n - E2, ``second-vs-variance[n]``;
    - E4 <= 3 lambda_n^2 follows from ``fourth-vs-loose[n]`` and
      ``second-vs-variance[n]``.
    """
    report = Report("inequalities")
    batch = MomentBatch(rho, spectrum)
    lams = spectrum.lambdas
    v = spectrum.v

    second = [batch.second(n) for n in range(v)]
    fourth = [batch.product(n, n) for n in range(v)]
    cov = [[batch.cov(n, m) for m in range(v)] for n in range(v)]

    # Log-concavity consequence: scaled variances minus 2v plus scaled
    # cross-covariances stays nonpositive.
    combo = sum(cov[n][n] / lams[n] / lams[n] for n in range(v)) - 2.0 * v
    combo += sum(cov[n][m] / lams[n] / lams[m]
                 for n in range(v) for m in range(v) if m != n)
    report.add("log-concavity-combination", -combo,
               detail=f"value {combo.value:.6e}, noise {combo.est_abs_error:.1e}")

    for n in range(v):
        lam = lams[n]
        report.add(f"second-vs-variance[{n}]", lam - second[n])
        report.add(f"fourth-vs-loose[{n}]", lam * (2.0 * lam + second[n]) - fourth[n])

        gap = batch.gap(n)
        report.add(f"variance-gap[{n}]", -gap, claim=True,
                   detail=f"gap {gap.value:.6e}, noise {gap.est_abs_error:.1e}")

        row = sum(abs(cov[n][m]) for m in range(v) if m != n)
        report.add(f"diagonal-dominance[{n}]", cov[n][n] - row, claim=True)

        for m in range(n + 1, v):
            report.add(f"negative-covariance[{n},{m}]", -cov[n][m], claim=True,
                       detail="cov {:.6e}, noise {:.1e}".format(*cov[n][m]))

    return report
