"""Conditional moments of the ball-truncated Gaussian and the inequality battery.

All moments are ratios of ball integrals.  Every inequality check carries a
margin and its propagated quadrature error, which ``report.Report.add_margin``
scales into the noise threshold (``report`` holds the factor), so a genuine
violation is distinguishable from roundoff at points where the quantity
being tested is itself tiny.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

from .ball import (_BOUND_SLACK, MultiIndex, Spectrum, _check_rho, _check_spectrum,
                   _dimension, _index_family, ball_integral, ball_integrals)
from .errors import DomainError, NumericError
from .report import SLACK, Report
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
    it.  A ratio is kept, on first use, with its relative error (the sum of
    the two integrals' relative errors).  Every accessor returns ``(value,
    err)``, with ``err`` propagated to first order from those relative
    errors; a moment past float range is a :class:`NumericError`.  Beyond
    the mixture's term budget, pass a Monte Carlo family:
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
        self._ratios: dict[tuple[int, ...], tuple[float, float]] = {}

    def _member(self, dims: tuple[int, ...]):
        """The family's integral at the member of sorted dimensions ``dims``;
        a DomainError if the family lacks it."""
        index = _index_family(self.spectrum.v)[dims]
        try:
            return self._family[index]
        except KeyError:
            raise DomainError(
                f"family has no member at multi-index {index.multiplicities}") from None

    def _ratio(self, *dims: int) -> tuple[float, float]:
        """(alpha_k / alpha_0, relative error) for k = sum of e_d over dims,
        each d already checked by :func:`_dimension`."""
        key = tuple(sorted(dims))
        hit = self._ratios.get(key)
        if hit is None:
            num = self._member(key)
            hit = (num.value / self._base.value,
                   num.rel_error + self._base.rel_error)
            self._ratios[key] = hit
        return hit

    @functools.cached_property
    def rho2(self) -> float:
        """rho^2, the divisor of every scaled moment; a NumericError if it
        underflows to 0."""
        return _nonzero(self.rho * self.rho, f"rho^2 at rho = {self.rho}")

    def second(self, n: int) -> tuple[float, float]:
        """E[X_n^2 | ball]."""
        n = _dimension(n, self.spectrum.v)
        ratio, rel = self._ratio(n)
        value = self.spectrum.lambdas[n] * ratio
        return _finite(value, f"E[X_{n}^2]"), value * rel

    def product(self, n: int, m: int) -> tuple[float, float]:
        """E[X_n^2 X_m^2 | ball]; the fourth moment E[X_n^4 | ball] when n == m."""
        n, m = _dimension(n, self.spectrum.v), _dimension(m, self.spectrum.v)
        ratio, rel = self._ratio(n, m)
        lams = self.spectrum.lambdas
        value = lams[n] * lams[m] * ratio
        return _finite(value, f"E[X_{n}^2 X_{m}^2]"), value * rel

    def cov(self, n: int, m: int) -> tuple[float, float]:
        """cov(X_n^2, X_m^2 | ball); var(X_n^2 | ball) when n == m."""
        n, m = _dimension(n, self.spectrum.v), _dimension(m, self.spectrum.v)
        rnm, enm = self._ratio(n, m)
        rn, en = self._ratio(n)
        rm, em = self._ratio(m)
        scale = self.spectrum.lambdas[n] * self.spectrum.lambdas[m]
        return (_finite(scale * (rnm - rn * rm), f"cov(X_{n}^2, X_{m}^2)"),
                scale * (rnm * enm + rn * rm * (en + em)))

    def gap(self, n: int) -> tuple[float, float]:
        """The scaled gap (var(X_n^2) - 2 lambda_n E[X_n^2]) / rho^2."""
        n = _dimension(n, self.spectrum.v)
        var, var_err = self.cov(n, n)
        second, sec_err = self.second(n)
        lam = self.spectrum.lambdas[n]
        return (_finite((var - 2.0 * lam * second) / self.rho2, f"variance gap {n}"),
                (var_err + 2.0 * lam * sec_err) / self.rho2)


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
        if not (0.0 < second[n] <= lam * _BOUND_SLACK and second[n] < rho):
            raise NumericError(
                f"second moment {second[n]} outside (0, min(lambda, rho)] "
                f"at n={n}, rho={rho}"
            )
        if not (0.0 < fourth[n] <= 3.0 * lam * lam * _BOUND_SLACK
                and fourth[n] < rho * rho):
            raise NumericError(
                f"fourth moment {fourth[n]} outside its bounds at n={n}, rho={rho}"
            )
    return MomentSet(second, fourth, cross)


def variance_gap_with_error(n: int, rho: float, spectrum: Spectrum) -> tuple[float, float]:
    """The scaled gap (var(X_n^2) - 2 lambda_n E[X_n^2]) / rho^2 and its
    propagated ball-integral error."""
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
    bound_holds = batch.cov(n, n)[0] <= 2.0 * h * e2 * (1.0 + SLACK)
    return HolderReport(h, h1, h2, region, bound_holds)


def loose_bound_check(n: int, rho: float, spectrum: Spectrum) -> bool:
    """E[X_n^4] <= lambda_n (2 lambda_n + E[X_n^2]), valid at every radius."""
    n = _dimension(n, _check_spectrum(spectrum).v)
    moments = conditional_moments(rho, spectrum)
    lam = spectrum.lambdas[n]
    return moments.fourth[n] <= lam * (2.0 * lam + moments.second[n]) * (1.0 + SLACK)


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
    """Every inequality the moment structure must (or is claimed to) satisfy.

    Proved facts are assert-class; the sign conjectures on the variance gap,
    the covariances, and diagonal dominance are claim-class findings.  Some
    checks restate others by algebra.  ``fourth-vs-tight[n]`` is rho^2 times
    the ``variance-gap[n]`` inequality, with a different noise bar.  Both
    comparisons in ``chain-monotone[n]`` reduce to E[X_n^2] <= lambda_n.
    ``log-concavity-combination`` reads the all-ones direction of the
    covariance matrix C of X_n^2 / lambda_n: 1^T C 1 <= 2 v.
    """
    report = Report("inequalities")
    batch = MomentBatch(rho, spectrum)
    lams = spectrum.lambdas
    v = spectrum.v

    second, sec_err = zip(*(batch.second(n) for n in range(v)))
    fourth, frt_err = zip(*(batch.product(n, n) for n in range(v)))
    cov, cov_err = zip(*(zip(*(batch.cov(n, m) for m in range(v))) for n in range(v)))

    # Log-concavity consequence: scaled variances minus 2v plus scaled
    # cross-covariances stays nonpositive.
    combo = sum(cov[n][n] / lams[n] / lams[n] for n in range(v)) - 2.0 * v
    combo += sum(cov[n][m] / lams[n] / lams[m]
                 for n in range(v) for m in range(v) if m != n)
    combo_err = sum(cov_err[n][n] / lams[n] / lams[n] for n in range(v))
    combo_err += sum(cov_err[n][m] / lams[n] / lams[m]
                     for n in range(v) for m in range(v) if m != n)
    report.add_margin("log-concavity-combination", -combo, combo_err,
                      detail=f"value {combo:.6e}, noise {combo_err:.1e}")

    # Trace bound on the scaled second moments.
    trace = sum(second[n] / lams[n] for n in range(v))
    trace_err = sum(sec_err[n] / lams[n] for n in range(v))
    report.add_margin("second-moment-trace", v - trace, trace_err,
                      detail=f"sum {trace:.12f} vs v={v}")

    for n in range(v):
        lam = lams[n]
        noise = frt_err[n] + 3.0 * lam * sec_err[n]

        # Chain of fourth-moment bounds, loosest last; each step must not tighten.
        b1 = second[n] * (2.0 * lam + second[n])
        b2 = lam * (2.0 * lam + second[n])
        b3 = 3.0 * lam * lam
        report.add_margin(f"chain-monotone[{n}]", min(b2 - b1, b3 - b2), noise)
        report.add_margin(f"fourth-vs-tight[{n}]", b1 - fourth[n], noise, claim=True,
                          detail="equivalent to the nonpositive variance gap")
        report.add_margin(f"fourth-vs-loose[{n}]", b2 - fourth[n], noise)
        report.add_margin(f"fourth-vs-free[{n}]", b3 - fourth[n], noise)

        gap, gap_err = batch.gap(n)
        report.add_margin(f"variance-gap[{n}]", -gap, gap_err, claim=True,
                          detail=f"gap {gap:.6e}, noise {gap_err:.1e}")

        row = sum(abs(cov[n][m]) for m in range(v) if m != n)
        row_err = sum(cov_err[n][m] for m in range(v) if m != n)
        report.add_margin(f"diagonal-dominance[{n}]", cov[n][n] - row,
                          cov_err[n][n] + row_err, claim=True)

        for m in range(n + 1, v):
            report.add_margin(f"negative-covariance[{n},{m}]", -cov[n][m],
                              cov_err[n][m], claim=True,
                              detail=f"cov {cov[n][m]:.6e}, noise {cov_err[n][m]:.1e}")

    return report
