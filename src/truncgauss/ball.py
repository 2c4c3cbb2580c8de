"""Gaussian integrals over centered Euclidean balls.

The basic object is the normalized integral of an even monomial
``prod_j (x_j^2 / lambda_j)^(k_j)`` against a zero-mean diagonal Gaussian
density, restricted to the ball ``x.x < rho``.  Three evaluation routes
are provided: nested Gauss-Legendre quadrature in two to four dimensions,
Ruben's chi-square mixture in one dimension and from five up, and a seeded
rejection-sampling Monte Carlo estimate in any dimension, which serves as
the independent oracle for the other two.
"""

from __future__ import annotations

import functools
import math
import types
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CapabilityError,
    DegenerateAcceptanceError,
    DomainError,
    NumericError,
)
from .report import Report
from .special import (_compositions, _integer, _integers,
                      _lower_incomplete_gamma_vec, _positive, double_factorial)

__all__ = [
    "Spectrum",
    "MultiIndex",
    "IntegralValue",
    "MCEstimate",
    "ball_integral_1d",
    "ball_integral",
    "ball_integrals",
    "ball_integral_mc",
    "ball_integrals_mc",
    "verify_structural",
]

# Quadrature node counts (fixed so outputs are bit-stable).  The coarse
# count is only used on the outermost level, to price the error estimate.
_NODES_LOW_DIM = (48, 32)
# Leaf lanes per quadrature block: 128 KB of float64, so the incomplete-gamma
# series and every member's fold run in a 2 MB L2 cache.  Of 8k, 16k, 32k
# and 64k lanes, 16k was fastest on moments-v4.  The mixture's blocks of
# (stage, member, term) lanes take the same bound.
_LEAF_BLOCK = 1 << 14

# Monte Carlo draws (points of R^v) per block: 640 KB of float64 at v = 10,
# so a block stays in cache while every member reads it.
_MC_BLOCK = 1 << 13
_MC_MIN_SAMPLES = 10_000

# Mixture terms a member may need before the route gives way to Monte Carlo.
# A v = 5 family near it takes 0.3-1 s; it binds once both
# lambda_max / lambda_min and rho / lambda_min are large (see CHANGES.md).
_MIXTURE_MAX_TERMS = 1 << 12

# The factor a value may exceed an exact upper bound by, for rounding, before
# the excess counts as a route breakdown.
_BOUND_FACTOR = 1.0 + 1e-9

# A member stops adding terms once its truncation bound is below this share
# of its rounding term.  That term bounds the rounding 10-30x above what
# happens, so a share of 1 would let truncation dominate the error.
_MIXTURE_STOP = 1.0 / 16.0
_EPS = float(np.finfo(float).eps)
_FLOAT_MAX = float(np.finfo(float).max)


# The two input types are slotted: a sweep's caller keeps one Spectrum per
# geometry, and slots cut an instance from 89 to 48 bytes.
@dataclass(frozen=True, slots=True)
class Spectrum:
    """Variance vector (the diagonal of the covariance), all entries > 0."""

    lambdas: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.lambdas, Iterable):  # a number, or None
            raise DomainError(f"variances must be reals, got {self.lambdas!r}")
        lams = tuple(_positive(lam, "variance") for lam in self.lambdas)
        if not lams:
            raise DomainError("spectrum needs at least one variance")
        object.__setattr__(self, "lambdas", lams)

    @property
    def v(self) -> int:
        return len(self.lambdas)

    @property
    def lambda_max(self) -> float:
        return max(self.lambdas)

    @property
    def lambda_min(self) -> float:
        return min(self.lambdas)

    def drop(self, n: int) -> "Spectrum":
        """Spectrum with dimension n (0-based) removed; needs v >= 2."""
        n = _dimension(n, self.v)
        if self.v == 1:
            raise DomainError("cannot reduce a one-dimensional spectrum")
        return Spectrum(self.lambdas[:n] + self.lambdas[n + 1:])


@dataclass(frozen=True, slots=True)
class MultiIndex:
    """Per-dimension multiplicities (k_1, ..., k_v) of the even monomial."""

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        ks = _integers(self.multiplicities, "multiplicity", 0)
        object.__setattr__(self, "multiplicities", ks)

    @classmethod
    def zero(cls, v: int) -> "MultiIndex":
        return cls((0,) * _integer(v, "v"))

    @classmethod
    def single(cls, v: int, n: int, k: int = 1) -> "MultiIndex":
        ks = [0] * _integer(v, "v")
        ks[_dimension(n, len(ks))] = k
        return cls(tuple(ks))

    @property
    def v(self) -> int:
        return len(self.multiplicities)

    @property
    def order(self) -> int:
        return sum(self.multiplicities)

    def bump(self, n: int) -> "MultiIndex":
        ks = list(self.multiplicities)
        ks[_dimension(n, self.v)] += 1
        return MultiIndex(tuple(ks))

    def factorized_bound(self) -> int:
        """Product of (2k_j - 1)!!, the infinite-radius limit."""
        out = 1
        for k in self.multiplicities:
            out *= double_factorial(2 * k - 1)
        return out


class IntegralValue(NamedTuple):
    """A value and a bound on its absolute error, the library's error bar.

    Arithmetic carries the bar: ``+``, ``-``, ``*``, ``/`` and ``abs`` take
    plain numbers as operands of error 0 and return a rigorous bound that
    treats the operands as independent, so an error two operands share is
    over-bounded, never missed.  A product's error is
    ``|a| e_b + |b| e_a + e_a e_b`` and a quotient's ``(e_a + |a/b| e_b) /
    (|b| - e_b)``; a divisor whose bar reaches 0 is a NumericError.  The
    value is the same float expression of the plain values, bit for bit.
    """

    value: float
    est_abs_error: float = 0.0
    # A numpy scalar on the left defers to the reflected operators below,
    # instead of reading the pair as a length-2 array.
    __array_ufunc__ = None

    @property
    def rel_error(self) -> float:
        return self.est_abs_error / abs(self.value) if self.value else math.inf

    def __add__(self, other):
        b, eb = _bar(other)
        return IntegralValue(self.value + b, self.est_abs_error + eb)

    __radd__ = __add__

    def __neg__(self):
        return IntegralValue(-self.value, self.est_abs_error)

    def __sub__(self, other):
        b, eb = _bar(other)
        return IntegralValue(self.value - b, self.est_abs_error + eb)

    def __rsub__(self, other):
        return _bar(other) - self

    def __abs__(self):
        return IntegralValue(abs(self.value), self.est_abs_error)

    def __mul__(self, other):
        (a, ea), (b, eb) = self, _bar(other)
        return IntegralValue(a * b, abs(a) * eb + abs(b) * ea + ea * eb)

    __rmul__ = __mul__

    def __truediv__(self, other):
        (a, ea), (b, eb) = self, _bar(other)
        if eb >= abs(b):
            raise NumericError(f"divisor {b} +- {eb} is not bounded away from 0")
        return IntegralValue(a / b, (ea + abs(a / b) * eb) / (abs(b) - eb))

    def __rtruediv__(self, other):
        return IntegralValue(other) / self


def _bar(x) -> IntegralValue:
    """``x`` as an :class:`IntegralValue`, a plain number with error 0."""
    return x if isinstance(x, IntegralValue) else IntegralValue(x)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_kept: int
    n_total: int
    seed: int


def _check_rho(rho: float) -> float:
    """``rho`` through :func:`_positive`: a string, None, NaN or a radius that
    is not positive and finite is a :class:`DomainError`, never coerced."""
    return _positive(rho, "square radius")


def _check_spectrum(spectrum) -> Spectrum:
    """``spectrum`` itself if it is a :class:`Spectrum`, else a DomainError."""
    if not isinstance(spectrum, Spectrum):
        raise DomainError(f"spectrum must be a Spectrum, got {spectrum!r}")
    return spectrum


def _dimension(n, v: int) -> int:
    """``n`` as a 0-based dimension of a v-dimensional spectrum; a
    non-integral or out-of-range ``n`` is a :class:`DomainError`."""
    return _integer(n, "dimension", 0, v - 1)


def _checked(indices, spectrum: Spectrum) -> tuple:
    """``indices`` as a tuple of MultiIndex of the spectrum's dimension."""
    _check_spectrum(spectrum)
    if not isinstance(indices, Iterable):  # a bare MultiIndex, or None
        raise DomainError(f"indices must be an iterable of MultiIndex, got {indices!r}")
    indices = tuple(indices)
    for index in indices:
        if not isinstance(index, MultiIndex) or index.v != spectrum.v:
            raise DomainError(f"{index!r} is not a MultiIndex of v = {spectrum.v}")
    return indices


@functools.lru_cache(maxsize=64)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule for one slicing level.

    The half-range integral over x in (0, sqrt(r)) is taken with the
    substitution x = sqrt(r) sin(pi t / 2).  The remaining square radius
    r cos^2(pi t / 2) then carries the half-integer power of the sliced
    mass as an analytic factor, so the rule converges spectrally (a linear
    node map stalls at ~1e-6 here because of the edge branch point).
    Returns (sin factors, weights including the Jacobian's cos factor).
    """
    x, w = np.polynomial.legendre.leggauss(n)
    t = (x + 1.0) / 2.0
    half_angle = 0.5 * math.pi * t
    return np.sin(half_angle), (0.25 * math.pi) * w * np.cos(half_angle)


def _alpha_1d_array(ks: tuple, rho: np.ndarray, lam: float) -> np.ndarray:
    """The v = 1 ball integrals of multiplicities ``ks`` at each lane of
    ``rho``, one row per k, from one incomplete-gamma pass; past k = 1023,
    where 2^k leaves float range, a :class:`NumericError`."""
    try:
        scales = [2.0 ** k / math.sqrt(math.pi) for k in ks]
    except OverflowError:
        k = next(k for k in ks if k > 1023)
        raise NumericError(f"quadrature leaf overflows at multiplicity {k}") from None
    rows = _lower_incomplete_gamma_vec(0.5, rho / (2.0 * lam), ks)
    for scale, row in zip(scales, rows):
        row *= scale
    return rows


# Square half-width of the numerical support of the Gaussian factor, in
# units of the variance: the discarded tail is below exp(-380).  Capping
# the slice range here keeps the nodes inside the bulk at huge radii.
_SUPPORT_WIDTH_SQ = 760.0


def _levels(lams, rho_arr, rule):
    """Slice nodes of each dimension in ``lams`` under ``rule``, the last
    one first.

    Returns the levels, outermost first, each as (half-range, x^2 / lambda
    at the nodes, Gaussian density at the nodes, weights), and the leftover
    square radii under them.  None of it depends on the multi-index, so
    every member of a family shares it.
    """
    levels = []
    sin_t, weights = rule
    for lam in reversed(lams):
        half = np.minimum(np.sqrt(rho_arr), math.sqrt(_SUPPORT_WIDTH_SQ * lam))
        x = half[..., None] * sin_t
        rho_arr = np.maximum(rho_arr[..., None] - x * x, 0.0)
        density = np.exp(-(x * x) / (2.0 * lam)) / math.sqrt(2.0 * math.pi * lam)
        levels.append((half, x * x / lam, density, weights))
    return levels, rho_arr


def _fold(ks, levels, values):
    """Integrate the leaf values out through the levels, innermost first.

    ``ks`` holds the multiplicities of the levels' dimensions, innermost
    first.  Each level is one slice step: values times the Gaussian
    density, times the monomial (x^2 / lambda)^k, then the weighted sum.
    """
    for k, (half, scaled_sq, density, weights) in zip(ks, reversed(levels)):
        integrand = values * density
        if k:
            integrand = integrand * scaled_sq ** k
        values = 2.0 * half * (integrand @ weights)
    return values


# One entry per geometry.  Hits come from re-reads of recent geometries:
# moments then correlations, the gaps of one spectrum, finite-difference
# stencils.  `verify all` scores 36 hits in 243 calls at 64, 256 and 4096
# entries, the bench's traced seed-1 gap-sweep and moments-v4 runs score
# 2040/3240 and 9/18 at 256 and 4096, and `figure delta-grid` visits each
# of its 3600 geometries once.  An entry holds a whole family's values and
# errors, about 0.5 KB at v = 2, so a larger bound mostly grows memory:
# `figure delta-grid` leaves 1.9 MB in 4096 entries, 0.13 MB in 256.
@functools.lru_cache(maxsize=256)
@np.errstate(over="ignore")  # an overflowing member raises when it is read
def _alpha_quad(family: tuple, lams: tuple, rho: float) -> np.ndarray:
    """Nested quadrature for 2 <= v <= 4 of every multi-index in ``family``.

    Slices the last dimension first, every level with the full node count
    of ``_NODES_LOW_DIM``.  The outermost level carries the reduced count's
    nodes beside them, so one sweep serves both rules, and only the
    outermost fold splits them into each member's value and the check that
    prices its ``est_abs_error``.  The inner levels, the leaf incomplete
    gamma and each member's inner fold run in blocks of whole outer nodes,
    at most ``_LEAF_BLOCK`` leaf lanes each (at least one node), filling a
    (members, outer nodes) table that each member then folds through the
    outer level.  Blocks depend only on the rules and restart at the
    reduced rule's first node, so a member gets the arithmetic of its
    one-member family under each rule alone.  At v <= 3 the whole leaf is
    one block.  Each block sorts its leaf radii once into ascending lanes
    and makes one incomplete-gamma pass over them for every leaf
    multiplicity k_1 of the family.  Each member's inner fold reads a
    block's memo of prefixes: the leaf of its k_1 folded through the first
    inner level with its k_2, so members that share (k_1, k_2) fold it once
    (6 prefixes for the 15 members of the v = 4 order-2 family), with the
    operations their own fold would take.
    Returns a (2, members) array: the values, then their errors.
    """
    n_nodes, n_check = _NODES_LOW_DIM
    inner = _gl_nodes(n_nodes)
    outer = [np.concatenate(parts)  # the value's nodes, then the check's
             for parts in zip(inner, _gl_nodes(n_check))]
    (top,), rho_heads = _levels(lams[-1:], np.asarray(rho), outer)
    size = rho_heads.size
    table = np.empty((len(family), size))
    step = max(1, _LEAF_BLOCK // n_nodes ** (len(lams) - 2))  # nodes per block
    leaf_ks = tuple(dict.fromkeys(ks[0] for ks in family))  # one leaf row per k_1
    edges = (0, size) if size <= step else (0, n_nodes, size)
    for first, stop in zip(edges, edges[1:]):
        for start in range(first, stop, step):
            block = slice(start, min(start + step, stop))
            levels, rho_leaf = _levels(lams[1:-1], rho_heads[block], inner)
            # the incomplete gamma takes its lanes in ascending radius: sort
            # the block once, and scatter each order's row back for the folds
            order = np.argsort(rho_leaf, axis=None)
            rows = _alpha_1d_array(leaf_ks, rho_leaf.reshape(-1)[order], lams[0])
            leaf = np.empty(rho_leaf.shape)
            for k, row in zip(leaf_ks, rows):
                leaf.reshape(-1)[order] = row
                prefixes = {}  # the leaf folded through the first inner level
                for i, ks in enumerate(family):
                    if ks[0] == k:
                        head, rest = ks[1:-1][:1], ks[2:-1]
                        if head not in prefixes:
                            prefixes[head] = _fold(head, levels, leaf)
                        table[i, block] = _fold(rest, levels[:-1], prefixes[head])
    half, scaled_sq, density, weights = top
    rules = [(part, [(half, scaled_sq[part], density[part], weights[part])])
             for part in (slice(None, n_nodes), slice(n_nodes, None))]
    out = np.empty((2, len(family)))
    for i, (ks, row) in enumerate(zip(family, table)):
        value, check = (float(_fold(ks[-1:], rule, row[part]))
                        for part, rule in rules)
        out[:, i] = value, abs(value - check) + 1e-15 * abs(value)
    out.flags.writeable = False  # shared by every reader of the cache entry
    return out


def _ladder(v: int, x: float, top: int) -> np.ndarray:
    """The incomplete-gamma ladder P(s0 + m, x) for m = 0..top, s0 = v/2 -
    floor(v/2), and a bound on each entry's rounding error.

    P(s, x) is the sum of the positive terms x^t e^-x / Gamma(t + 1) over t
    = s, s + 1, ..., so the ladder is their reverse cumulative sum.  The
    terms are formed as ratios to the one at the mode, and normalised by
    their whole sum, P(s0, x): 1, or erf(sqrt x).  Terms more than 40
    sqrt(x) below the mode, or 40 sqrt(x) + 760 above it, lie below
    exp(-745) and underflow, so entries below that window equal P(s0, x),
    and those above it are 0.  So the terms are summed over the window
    alone, and every entry depends on (v, x) alone, whatever ``top``.  A
    term rounds once a step from the mode, and once in each partial sum it
    enters; erf, the normalisation and its product take 3 eps more.  An
    entry below the smallest normal float takes its bound down with it, so
    there the bound misses by up to a few units of 2^-1074.
    Returns a (2, top + 1) array: the entries, then their bounds.
    """
    s0, half_width = v / 2 % 1.0, 40.0 * math.sqrt(x)
    total = math.erf(math.sqrt(x)) if s0 else 1.0
    lo = max(0, math.ceil(x - s0 - half_width))
    ladder = np.zeros((2, top + 1))
    ladder[:, :lo] = [[total], [_EPS * total]]
    if lo <= top:
        s = s0 + np.arange(lo, math.ceil(x + half_width + 760.0))
        mode = int(x - s0) - lo
        terms = np.concatenate([np.cumprod(s[mode:0:-1] / x)[::-1], [1.0],
                                np.cumprod(x / s[mode + 1:])])
        steps = _EPS * (np.abs(np.arange(s.size) - mode) + np.arange(1, s.size + 1) / 2)
        tail, bound = np.cumsum(np.stack([terms, terms * steps])[:, ::-1], 1)[:, ::-1]
        ladder[:, lo:lo + s.size] = total / tail[0] * np.stack([tail, bound + tail * (
            bound[0] / tail[0] + 3.0 * _EPS)])[:, :top + 1 - lo]
    return ladder


def _base_row(ratio: np.ndarray, c: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` power-series coefficients of prod_j ratio_j^(1/2)
    (1 - c_j z)^(-1/2) over the coordinates off lambda_min (c_j > 0).

    Each coordinate's series is a cumulative product of its ratios of
    successive terms, convolved into the row one coordinate at a time.  A
    convolution's prefix does not depend on its length, so a longer row's
    prefix is the shorter row, bit for bit.  Rounding: with d coordinates
    off lambda_min, an entry i in the normal float range is within (3d +
    (d + 5) i) eps relative of the exact coefficient.  A coordinate's series takes 2 for sqrt(ratio_j) and
    5 a step (c_j rounds twice, its product and quotient once each, the
    cumulative product once), and each convolution 1 + i at entry i (one
    product, i additions of positive terms).
    """
    i, base, off = np.arange(size), np.eye(1, size)[0], c > 0
    step = c[off, None] * (i[1:] - 0.5) / i[1:]  # term m / term m-1
    for row in np.cumprod(np.concatenate([np.sqrt(ratio[off, None]), step], 1), 1):
        base = np.convolve(base, row)[:size]
    return base


def _alpha_mixture(family: tuple, lams: tuple, rho: float) -> np.ndarray:
    """Ruben's (1962) chi-square mixture for each multi-index in ``family``.

    alpha_k = prod_j (2k_j - 1)!! P(Q < rho), where Q = sum_j lambda_j
    chi^2(nu_j) with nu_j = 2k_j + 1.  With beta = lambda_min and x = rho /
    (2 beta), P(Q < rho) = sum_i w_i P(n/2 + i, x), n = sum_j nu_j, where
    w holds the power-series coefficients of prod_j (beta / lambda_j)^(nu_j
    / 2) (1 - c_j z)^(-nu_j / 2), c_j = 1 - beta / lambda_j.  The weights are
    positive and sum to 1, so stopping after K terms leaves at most (1 -
    sum_{i<K} w_i) P(n/2 + K, x), the bound AS 106 (Sheil and
    O'Muircheartaigh 1977) uses.

    Three parts: the ladder of P(s0 + m, x) (:func:`_ladder`), read once
    per family; the zero index's weights (:func:`_base_row`), built once
    per term count (32, 64, ..., doubling until every member has stopped);
    and, here, the bumps that carry those weights to each member, with the
    stop rule.  Every open member takes the base through its chain of
    bumps, one per unit of k_j off lambda_min in coordinate order, padded
    with the identity (c = 0, ratio 1) to the family's most such bumps, T.
    A bump is the series of (beta / lambda_j) (1 - c_j z)^(-1), so stage t
    of a chain holds b_t[m] = b_(t-1)[m] + c_t b_t[m-1], from b_0 = the
    base, and a member's weights are b_T times its product of beta /
    lambda_j (with T = 0, the base).  The stages run as a wavefront: after
    wave s, stage t holds term s - t of every open member, so one vector
    step per wave advances them all, and the base runs T terms ahead of the
    weights.  The new terms go in blocks of at most ``_LEAF_BLOCK`` (stage,
    member, term) lanes.  The base's prefix does not depend on its length,
    so the waves and each member's partial sums carry on from block to
    block and across doublings.  A member keeps the first count at which
    its truncation bound is below ``_MIXTURE_STOP`` times its rounding
    term, read on its own row with no reduction across members: its bits
    depend on (lambda, k) alone, as in its one-member family, and not on
    the blocks.  The ladder ends at the last entry the family reads
    (P(n/2 + K, x) at the term budget K; a higher order raises first).

    Rounding: term i of a member with b bumps off lambda_min counts first +
    5v + 3b + (v + 4 + 4 [b > 0]) i roundings, first = floor(v/2) + |k|.
    The base takes at most (v + 4) i + 3v (:func:`_base_row`, with d <= v -
    1).  A stage's product c_t b_t[m-1] takes 3 (c_t rounds twice) and its
    sum 1; its terms are positive, so by induction on (t, m) entry m of
    stage t is off by the base's count plus t + 4m, where t counts the
    stages off lambda_min (the others add 0 exactly).  The b ratios, their
    product and its product with the last stage take 2b, the ladder's
    product 1, and the double-factorial scale at most |k|, so first + 5v +
    3b covers 3v + 3b + 1 + |k|.  The partial sums of the terms add i + 1
    for term i.  The error is the truncation bound plus the rounding term
    (twice: the weights' sum rounds too), plus the ladder's.
    Returns a (2, members) array: the values, then their errors.
    """
    v, beta = len(lams), min(lams)
    order = max(map(sum, family), default=0)
    over_budget = CapabilityError(f"mixture route needs over {_MIXTURE_MAX_TERMS} terms at "
                                  f"rho = {rho}, lambda = {lams}; use ball_integrals_mc")
    if order > _MIXTURE_MAX_TERMS:
        raise over_budget
    # at x = rho / (2 beta), capped: an infinite x is the whole space
    ladder = _ladder(v, min(rho / (2.0 * beta), 1e300), v // 2 + order + _MIXTURE_MAX_TERMS)
    ks = np.array(family, dtype=int).reshape(-1, v)
    lam = np.array((*lams, beta))  # coordinate v, a copy of lambda_min, is the identity
    ratio, c = beta / lam, (lam - beta) / lam
    bumped = ks * (c[:v] > 0)  # the units of k_j off lambda_min
    first, b = v // 2 + ks.sum(1), bumped.sum(1)  # P(n/2, x)'s entry, bumps
    width = int(b.max(initial=0))
    # bump t of a member is a unit of coordinate chains[t], in coordinate
    # order; past the member's b bumps it is coordinate v
    chains = (bumped.cumsum(1) <= np.arange(width)[:, None, None]).sum(2)
    # each member's product of beta / lambda_j over its chain
    lead = functools.reduce(np.multiply, ratio[chains], np.ones(len(family)))
    counts = np.array([first + 5 * v + 3 * b, v + 4 + 4 * (b > 0)])  # term i's: c0 + c1 i
    out, rows = np.empty((2, len(family))), np.arange(len(family))  # rows: the open members
    # sums carries each open member's partial sums of count * term, term,
    # weight and weight times the ladder's rounding; made counts the terms
    stages, sums, made = np.zeros((width + 1, len(family))), np.zeros((4, len(family))), 0
    for size in (1 << n for n in range(5, _MIXTURE_MAX_TERMS.bit_length())):
        base = _base_row(ratio, c, size + width)
        while rows.size and made < size:
            # the next block's terms: at most _LEAF_BLOCK (stage, member, term) lanes
            m = np.arange(made, min(size, made + max(1, _LEAF_BLOCK // stages.size)))
            # wave s leaves term s - t on stage t, stage 0 the base's, so the
            # family's first block runs T more waves to fill the last stage
            waves = range(made + width if made else 0, m[-1] + width + 1)
            hist, bumps = np.empty((len(waves) + 1, width + 1, rows.size)), c[chains[:, rows]]
            hist[0], hist[1:, 0] = stages, base[waves.start:waves.stop, None]
            if width:  # else the weights are the base
                for prior, own, new in zip(hist[:-1, :-1], hist[:-1, 1:], hist[1:, 1:]):
                    np.add(prior, bumps * own, out=new)  # b_t[m] = b_(t-1)[m] + c_t b_t[m-1]
            stages, w = hist[-1], hist[-m.size:, -1].T * lead[rows, None]
            # each open member's ladder entries P(n/2 + m, x) to one past the
            # block's last term, with their rounding bounds
            lad = ladder[:, first[rows, None] + np.arange(made, m[-1] + 2)]
            terms = w * lad[0, :, :-1]
            count = counts[0, rows, None] + counts[1, rows, None] * m
            parts = np.array([terms * count, terms, w, w * lad[1, :, :-1]])
            parts[:, :, 0] += sums  # the carried sums come first, as if prepended
            sums = np.cumsum(parts, 2)
            rounding = _EPS * (sums[0] + (m + 1) * sums[1])
            tails = (1.0 - sums[2]) * lad[0, :, 1:]
            done = tails <= _MIXTURE_STOP * rounding
            stop = done.any(1)
            last = stop.nonzero()[0], done[stop].argmax(1)  # each stopping member's last term
            out[0, rows[stop]] = sums[1][last]
            out[1, rows[stop]] = abs(tails[last]) + 2.0 * rounding[last] + sums[3][last]
            rows, stages, sums = rows[~stop], stages[:, ~stop], sums[:, ~stop, -1]
            made = m[-1] + 1
        if not rows.size:
            # each value and error times its prod_j (2k_j - 1)!!, from the
            # table of (2k - 1)!! at k = 0..order; past float range the member
            # reads as a NumericError
            with np.errstate(over="ignore", invalid="ignore"):
                odd = np.cumprod(np.arange(-1.0, 2 * order, 2).clip(1.0))
                return out * np.cumprod(odd[ks], 1)[:, -1]
    raise over_budget


class BallIntegrals(Mapping):
    """Ball integrals of a family of multi-indices at one geometry.

    Maps each :class:`MultiIndex` to its :class:`IntegralValue`.  A member
    is validated when it is read, so a member that fails its checks raises
    only for the caller that reads it.
    """

    def __init__(self, raw: dict):
        self._raw = raw  # MultiIndex -> (value, est_abs_error)

    def __getitem__(self, index: MultiIndex) -> IntegralValue:
        value, est = self._raw[index]
        bound = index.factorized_bound()
        if not math.isfinite(value) or value <= 0.0:
            raise NumericError(
                f"ball integral evaluated to {value} for index "
                f"{index.multiplicities} (underflow, overflow or route breakdown)"
            )
        if value / _BOUND_FACTOR > bound:  # exact: the bound may lie past float range
            raise NumericError(
                f"ball integral {value} exceeds its factorized bound {bound} "
                f"for index {index.multiplicities}"
            )
        return IntegralValue(value, est)

    def __iter__(self):
        return iter(self._raw)

    def __len__(self) -> int:
        return len(self._raw)


def ball_integrals(indices, rho: float, spectrum: Spectrum) -> BallIntegrals:
    """Evaluation of several multi-indices at one geometry, any v.

    At v = 2..4 all members share one quadrature pass over the geometry in
    cache-sized blocks; the reduced outer node count rides in the same
    pass, and its difference from the full count prices each
    ``est_abs_error``.  At every other v the family shares one chi-square
    mixture pass (one term at v = 1), whose ``est_abs_error`` bounds each
    member's truncation and rounding; a member that needs more than
    ``_MIXTURE_MAX_TERMS`` terms is a :class:`CapabilityError`.
    """
    indices = _checked(indices, spectrum)
    rho = _check_rho(rho)
    family = tuple(index.multiplicities for index in indices)
    route = _alpha_quad if 2 <= spectrum.v <= 4 else _alpha_mixture
    values, ests = route(family, spectrum.lambdas, rho).tolist()
    return BallIntegrals(dict(zip(indices, zip(values, ests))))


def ball_integral(index: MultiIndex, rho: float, spectrum: Spectrum) -> IntegralValue:
    """Evaluation of one multi-index: the one-member family, any v.
    A view of :func:`ball_integrals`, kept because PAPER.md names it."""
    return ball_integrals((index,), rho, spectrum)[index]


def ball_integral_1d(k: int, rho: float, lam: float) -> IntegralValue:
    """One-dimensional integral: the one-member family at v = 1.
    A view of :func:`ball_integral`, kept because PAPER.md names it."""
    return ball_integral(MultiIndex((k,)), rho, Spectrum((lam,)))


def _polar_squares(rng, out: np.ndarray) -> None:
    """Fill both rows of ``out`` with squared standard normals, two per point.

    Marsaglia and Bray's polar method, keeping only the squares: a point
    ``(u, w)`` uniform on the quarter disc ``0 < s = u^2 + w^2 < 1`` gives
    the independent chi-square(1) pair ``u^2 (-2 ln s) / s`` and
    ``w^2 (-2 ln s) / s`` (the signs it would attach drop out when squared).
    Slot ``i`` first takes the ``i``-th of ``m`` values of ``u`` from
    ``rng.random`` and the ``i``-th of the ``m`` values of ``w`` drawn after
    them.  The slots whose point falls outside, a share 1 - pi / 4, are
    redrawn: a round with ``r`` slots open draws ``ceil(4 r / 3)`` values of
    ``u``, then as many of ``w``, and its points inside fill the open slots
    in order; the rest of the round is dropped.  So one redraw round nearly
    always suffices, and a point at ``s = 0`` (``ln 0 / 0``) is never used.
    """
    rng.random(out=out)
    np.square(out, out=out)
    s = out[0] + out[1]
    slots = np.flatnonzero((s >= 1.0) | (s == 0.0))
    while slots.size:
        r = slots.size
        uw = rng.random((2, r + (r + 2) // 3))
        np.square(uw, out=uw)
        t = uw[0] + uw[1]
        inside = np.flatnonzero((t < 1.0) & (t > 0.0))[:r]
        filled, slots = slots[:inside.size], slots[inside.size:]
        s[filled] = t[inside]
        for row, drawn in zip(out, uw):
            row[filled] = drawn[inside]
    f = np.log(s)
    f *= -2.0
    f /= s
    out *= f


def ball_integrals_mc(indices, rho: float, spectrum: Spectrum, n_total: int,
                      seed: int) -> dict[MultiIndex, MCEstimate]:
    """Rejection-sampling Monte Carlo oracle for several multi-indices.

    Samples the unconstrained Gaussian, keeps draws inside the ball, and
    averages each member's monomial weight over the full budget (rejected
    draws contribute zero), which estimates the same normalized integral
    as the quadrature route.  The weight reads only ``z_j^2 = x_j^2 /
    lambda_j``, so the sampler makes squared normals directly, a pair per
    point of the quarter disc (Marsaglia and Bray's polar method without
    the signs, see :func:`_polar_squares`): uniforms from ``SFC64(seed)``,
    of which the share 1 - pi/4 outside the disc is redrawn.  Every member
    reads the same draws, made in blocks of ``_MC_BLOCK`` draws, each block
    one flat run of ``v * size`` values read coordinate-major (every draw's
    first coordinate, then every draw's second, ...).  Flat values ``i``
    and ``(v * size + 1) // 2 + i`` come from one point (at odd v, from two
    draws), so a block whose ``v * size`` is odd draws one spare value and
    does not read it.  Only the rows some member reads are compacted to the
    kept draws, at most 2 of the v for a one-index call.  At 500k draws,
    one member and rho = 0.8 sum(lambda), a call takes about 8 ms at v = 1,
    12 ms at v = 2, 15 ms at v = 3 and 41 ms at v = 10 on a 2-vCPU VM,
    1.3-1.4x less in sum over v = 2..10 than ziggurat normals with every
    row compacted.  The draws, and so the estimates, are reproducible per
    ``(seed, n_total)`` and depend on ``_MC_BLOCK``.
    The sampler is one sequential stream, so it needs no counter-based
    keying (Philox's).
    Returns a dict mapping each multi-index to its :class:`MCEstimate`.
    """
    indices = _checked(indices, spectrum)
    rho = _check_rho(rho)
    n_total = _integer(n_total, "n_total", _MC_MIN_SAMPLES)
    seed = _integer(seed, "seed") & 0xFFFFFFFFFFFFFFFF
    if not indices:
        return {}
    rng = np.random.Generator(np.random.SFC64(seed))
    lams = np.asarray(spectrum.lambdas)
    # the (dimension, multiplicity) factors of each member's weight
    factors = [[(j, k) for j, k in enumerate(index.multiplicities) if k]
               for index in indices]
    rows = {j for members in factors for j, _ in members}
    totals = [0.0] * len(indices)
    totals_sq = [0.0] * len(indices)
    n_kept = 0
    v = spectrum.v
    buffer = np.empty(v * min(_MC_BLOCK, n_total) + 1)
    for start in range(0, n_total, _MC_BLOCK):
        size = min(_MC_BLOCK, n_total - start)
        half = (v * size + 1) // 2
        _polar_squares(rng, buffer[:2 * half].reshape(2, half))
        # coordinate-major: zz[j] holds the z_j^2 = x_j^2 / lambda_j of
        # every draw, so a member reads contiguous rows
        zz = buffer[:v * size].reshape(v, size)
        inside = np.flatnonzero(lams @ zz < rho)
        n_kept += inside.size
        kept = {j: zz[j].take(inside) for j in rows}
        for i, members in enumerate(factors):
            y = np.ones(inside.size)
            for j, k in members:
                y *= kept[j] ** k
            totals[i] += float(y.sum())
            totals_sq[i] += float((y * y).sum())

    if n_kept == 0:
        raise DegenerateAcceptanceError(
            f"no samples fell inside the ball (rho={rho}, n_total={n_total}); "
            "increase the budget or the radius"
        )
    out = {}
    for index, total, total_sq in zip(indices, totals, totals_sq):
        mean = total / n_total
        var = max(total_sq - n_total * mean * mean, 0.0) / max(n_total - 1, 1)
        out[index] = MCEstimate(mean, math.sqrt(var / n_total), n_kept,
                                n_total, seed)
    return out


def ball_integral_mc(index: MultiIndex, rho: float, spectrum: Spectrum,
                     n_total: int, seed: int) -> MCEstimate:
    """Rejection-sampling Monte Carlo oracle: the one-member family.
    A view of :func:`ball_integrals_mc`, kept because ``bench/`` calls it."""
    return ball_integrals_mc((index,), rho, spectrum, n_total, seed)[index]


# ---------------------------------------------------------------------------
# Structural identities
# ---------------------------------------------------------------------------

def _fd_derivative(f, x: float, k: int, h: float):
    """k-th derivative of f at x, elementwise if f returns an array: central
    k-th differences at half-integer offsets, steps h and h / 2, one
    Richardson step."""
    def central(step):
        total = 0.0
        for j in range(k + 1):
            total += (-1) ** j * math.comb(k, j) * f(x + (k / 2.0 - j) * step)
        return total / step ** k

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


# Members are built once per dimension, so the quadrature cache's keys share
# their multiplicity tuples instead of holding copies.
@functools.lru_cache(maxsize=32)
def _index_family(v: int) -> Mapping[tuple[int, ...], MultiIndex]:
    """The order-2 family ``{0, e_n, e_n + e_m}`` of dimension v: maps each
    member's sorted dimensions (``()``, ``(n,)`` or ``(n, m)``, n <= m) to
    its :class:`MultiIndex`, in lexicographic order of the multiplicities.

    Every moment the library reads is a ratio of its members.  One
    read-only mapping per v, shared by every caller.
    """
    members = sorted(ks for total in range(3) for ks in _compositions(total, v))
    return types.MappingProxyType({tuple(d for d, k in enumerate(ks) for _ in range(k)):
                                   MultiIndex(ks) for ks in members})


def verify_structural(rho: float, spectrum: Spectrum) -> Report:
    """Finite-difference checks of the scaling/derivative identities over
    the order-2 family (:func:`_index_family`), plus the one-index
    hierarchy and power-dominance inequalities alpha_(k e_n) <= (rho /
    lambda_n) alpha_((k-1) e_n) for k = 1, 2 (the two-step bound is their
    product).  Each geometry is one family read; the differences act on
    arrays of member values."""
    rho, v = _check_rho(rho), _check_spectrum(spectrum).v
    report = Report("structural")
    tol = 1e-6
    family = _index_family(v)
    members = list(family.values())
    lams = spectrum.lambdas

    def read(members, at_rho=rho, r=0, lam_r=lams[0]) -> np.ndarray:
        at_lams = lams[:r] + (lam_r,) + lams[r + 1:]  # lambda_r moved to lam_r
        got = ball_integrals(members, at_rho, Spectrum(at_lams))
        return np.array([got[idx].value for idx in members])

    def scaled_derivative(f, x):  # x f'(x), member by member, step 2e-5 x
        return (x * _fd_derivative(f, x, 1, 2e-5 * x)).tolist()

    rho_terms = scaled_derivative(lambda at: read(members, at_rho=at), rho)
    lam_terms = [scaled_derivative(lambda at, r=r: read(members, r=r, lam_r=at), lam)
                 for r, lam in enumerate(lams)]
    at_base = ball_integrals(dict.fromkeys(
        members + [idx.bump(k) for idx in members for k in range(v)]), rho, spectrum)

    def value(idx: MultiIndex) -> float:
        return at_base[idx].value

    for i, idx in enumerate(members):
        name = "k=" + ",".join(map(str, idx.multiplicities))
        base = value(idx)
        rho_term = rho_terms[i]
        res = abs(rho_term + sum(terms[i] for terms in lam_terms)) / base
        report.add(f"scaling[{name}]", tol - res,
                   detail=f"relative residual {res:.3e}")

        n_tot = idx.order
        rhs = 0.5 * (v + 2 * n_tot) * base
        rhs -= 0.5 * sum(value(idx.bump(k)) for k in range(v))
        res = abs(rho_term - rhs) / max(base, abs(rho_term), abs(rhs))
        report.add(f"radial-derivative[{name}]", tol - res,
                   detail=f"relative residual {res:.3e}")

        for r in range(v):
            lhs = lam_terms[r][i]
            rhs = 0.5 * (value(idx.bump(r)) - (2 * idx.multiplicities[r] + 1) * base)
            res = abs(lhs - rhs) / max(base, abs(lhs), abs(rhs))
            report.add(f"variance-derivative[{name},dim{r}]", tol - res,
                       detail=f"relative residual {res:.3e}")

    # One-index hierarchy: each step of the moment chain alpha_0,
    # alpha_(e_n), alpha_(2 e_n), per dimension, read against both members'
    # error bars.
    chains = [[at_base[family[(n,) * k]] for k in range(3)] for n in range(v)]
    for n, chain in enumerate(chains):
        for k, (prev, cur) in enumerate(zip(chain, chain[1:]), start=1):
            report.add(f"hierarchy[dim{n},k={k}]", (2 * k - 1) * prev - cur, prev.value)

    # Power dominance: each step of the chain bounded by rho/lambda times the
    # step below; the two-step bound is their product.
    for n, chain in enumerate(chains):
        vals = [member.value for member in chain]
        for k in (1, 2):
            # a bound past every float holds: cap it to keep a finite margin
            bound = min(rho / lams[n] * vals[k - 1], _FLOAT_MAX)
            report.add(f"power-dominance[dim{n},{k}->{k - 1}]", bound - vals[k], bound)

    # The radial derivative of any indexed integral dies off at large radius.
    rho_big = 60.0 * spectrum.lambda_max
    far = [family[()], family[(0,)]]
    drvs = scaled_derivative(lambda at: read(far, at_rho=at), rho_big)
    for idx, drv, scale in zip(far, drvs, read(far, at_rho=rho_big).tolist()):
        res = abs(drv) / scale
        report.add(
            f"vanishing-radial-derivative[k={','.join(map(str, idx.multiplicities))}]",
            1e-8 - res, detail=f"|rho d/drho| / value = {res:.3e}")

    return report
