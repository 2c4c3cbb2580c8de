"""Exact integer combinatorics and scalar special functions.

Integer routines return Python ints, so every combinatorial identity built
on top of them holds exactly.  The incomplete gamma targets ~1e-13
relative accuracy in float64 and never lets a NaN or Inf escape: iteration
caps and overflow raise :class:`NumericError` instead.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import threading

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "double_factorial",
    "stirling_second",
    "stirling_first_unsigned",
    "raising_factorial",
    "lower_incomplete_gamma",
]

# Tables grow on demand.  Growth is check-then-append, so it runs under a
# lock: two unlocked threads could both append row n, shifting every later
# row.  A row is complete before it is appended and never changes after, so
# readers of rows already present need no lock.
_S2_ROWS: list[list[int]] = [[1]]  # {n brace m}, row n holds m = 0..n
_C1_ROWS: list[list[int]] = [[1]]  # [n brack m], unsigned first kind
_TABLE_LOCK = threading.Lock()

_SERIES_CAP = 500
_CF_CAP = 300
_SERIES_TOL = 1e-15
_CF_TOL = 1e-15
# The Kummer series loses accuracy once x outruns s; switch to the
# continued fraction for the upper tail beyond this offset.
_SERIES_CUTOFF_OFFSET = 12.0


def _integer(x, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``x`` as an int in lo..hi, either end open when None: an integral
    value in range passes, any other is a :class:`DomainError`, never a
    silent truncation."""
    try:
        n = int(x)
        if n == x and (lo is None or lo <= n) and (hi is None or n <= hi):
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    span = "" if lo is None and hi is None else (
        f" in {'' if lo is None else lo}..{'' if hi is None else hi}")
    raise DomainError(f"{what} must be an integer{span}, got {x!r}")


def _real(x, what: str) -> float:
    """``x`` as a float: a real that is not NaN passes, any other (a string,
    None, NaN, an int beyond float range) is a :class:`DomainError`."""
    if isinstance(x, numbers.Real):
        try:
            value = float(x)
        except OverflowError:
            pass
        else:
            if not math.isnan(value):
                return value
    raise DomainError(f"{what} must be a real number in float range, got {x!r}")


def _positive(x, what: str) -> float:
    """``x`` through :func:`_real`, finite and > 0, else a DomainError."""
    value = _real(x, what)
    if 0.0 < value < math.inf:
        return value
    raise DomainError(f"{what} must be a positive finite real, got {x!r}")


def _finite(value: float, what: str) -> float:
    """``value`` if it is finite, else a :class:`NumericError` naming ``what``."""
    if not math.isfinite(value):
        raise NumericError(f"{what} evaluated to {value}, outside float range")
    return value


def _nonzero(value: float, what: str) -> float:
    """``value`` if it is not 0, else a :class:`NumericError`: a divisor
    named ``what`` that underflowed."""
    if value == 0.0:
        raise NumericError(f"{what} underflows to 0")
    return value


def _integers(values, what: str, lo: int | None = None) -> tuple[int, ...]:
    """Every entry through :func:`_integer` with lower end ``lo``; a
    non-sequence is a DomainError."""
    try:
        return tuple(_integer(x, what, lo) for x in values)
    except TypeError:  # _integer raises none, so ``values`` is not iterable
        raise DomainError(f"expected a sequence of {what} values, got {values!r}") from None


def _integer_cache(maxsize: int):
    """``lru_cache`` over :func:`_integer` of each argument: no unhashable key."""
    def decorate(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        signature = inspect.signature(fn)

        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments.items()
            return cached(*(_integer(x, name) for name, x in bound))
        call.cache_clear, call.cache_info = cached.cache_clear, cached.cache_info
        return functools.update_wrapper(call, fn)
    return decorate


def double_factorial(n: int) -> int:
    """n!! with the empty-product conventions (-1)!! = 0!! = 1."""
    n = _integer(n, "double factorial argument", -1)
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _table_row(rows: list[list[int]], k: int, factor) -> list[int]:
    """Row k of a triangular table with row[n][m] = factor(n, m) *
    row[n-1][m] + row[n-1][m-1], grown on demand."""
    if len(rows) <= k:
        with _TABLE_LOCK:
            while len(rows) <= k:
                n = len(rows)
                prev = rows[n - 1]
                row = [0] * (n + 1)
                for m in range(1, n + 1):
                    row[m] = factor(n, m) * (prev[m] if m < n else 0) + prev[m - 1]
                rows.append(row)
    return rows[k]


def stirling_second(k: int, t: int) -> int:
    """Stirling number of the second kind {k brace t}; 0 when t > k."""
    k, t = _integers((k, t), "Stirling argument")
    if not 0 <= t <= k:
        return 0
    return _table_row(_S2_ROWS, k, lambda n, m: m)[t]


def stirling_first_unsigned(k: int, j: int) -> int:
    """Unsigned Stirling number of the first kind [k brack j]; 0 when j > k."""
    k, j = _integers((k, j), "Stirling argument")
    if not 0 <= j <= k:
        return 0
    return _table_row(_C1_ROWS, k, lambda n, m: n - 1)[j]


def raising_factorial(x, n: int):
    """x(x+1)...(x+n-1); the empty product for n = 0.

    Works for any numeric type (int, float, Fraction), staying exact for
    exact inputs.
    """
    n = _integer(n, "raising factorial length", 0)
    out = 1
    for i in range(n):
        out = out * (x + i)
    return out


def _compositions(total: int, parts: int):
    """All ordered splits of `total` into `parts` nonnegative summands."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(parts) -> int:
    """(sum parts)! / prod part!, the ordering count of the parts."""
    return math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))


def lower_incomplete_gamma(s: float, x: float) -> float:
    """Lower incomplete gamma  integral of t^(s-1) e^(-t) over (0, x).

    The one-lane case of :func:`_lower_incomplete_gamma_vec`, which checks
    x and holds the series and continued fraction.  An s that is not finite
    and > 0 is a :class:`DomainError`; an overflow is its
    :class:`NumericError`, with no numpy warning ahead of it.
    """
    s, x = _positive(s, "s"), _real(x, "x")
    with np.errstate(all="ignore"):  # a lane that overflows fails the finite check
        return float(_lower_incomplete_gamma_vec(s, np.array([x]))[0])


def _lower_incomplete_gamma_vec(s: float, x: np.ndarray) -> np.ndarray:
    """Lower incomplete gamma at fixed s over one vector of ascending x >= 0.

    The caller passes s > 0: :func:`lower_incomplete_gamma` through
    :func:`_positive`, ``_alpha_1d_array`` as k + 1/2 with k >= 0.

    Lanes with x < s + 12 sum the Kummer series of x^s e^-x / s; the rest
    take Gamma(s) minus a modified-Lentz continued fraction for the upper
    tail, and x = inf gives Gamma(s).  Gamma(s) is computed only when one
    of those lanes exists, so series lanes stay finite past Gamma's float
    range.  The caller orders the lanes, so the zero, series,
    continued-fraction and infinite lanes are contiguous ranges; lanes that
    are not one ascending vector are a :class:`DomainError`.  Each lane
    takes the same operations wherever it sits, so its bits do not depend
    on its neighbours.  Iteration caps and overflow raise
    :class:`NumericError`.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x >= 0.0):
        raise DomainError("lower_incomplete_gamma requires x >= 0, "
                          f"got x = {x[~(x >= 0.0)][0]}")
    if x.ndim != 1 or np.any(x[1:] < x[:-1]):
        raise DomainError("lower_incomplete_gamma takes one vector of lanes in "
                          f"ascending order, got shape {x.shape}")
    out = np.zeros_like(x)
    first = np.searchsorted(x, 0.0, side="right")
    cut, inf = np.searchsorted(x, (s + _SERIES_CUTOFF_OFFSET, math.inf))
    if cut > first:
        xs = x[first:cut]
        out[first:cut] = np.exp(s * np.log(xs) - xs) / s * _kummer_sum(s, xs)
    if x.size > cut:  # only continued-fraction and infinite lanes need Gamma(s)
        try:
            whole = math.gamma(s)
        except OverflowError as exc:
            raise NumericError(f"Gamma({s}) overflows float64") from exc
        if inf > cut:
            xc = x[cut:inf]
            out[cut:inf] = whole - np.exp(s * np.log(xc) - xc) * _upper_fraction(s, xc)
        out[inf:] = whole
    if not np.all(np.isfinite(out)):
        raise NumericError(f"vectorized lower_incomplete_gamma overflow at s={s}")
    return out


def _kummer_sum(s: float, x: np.ndarray) -> np.ndarray:
    """sum_n x^n / ((s + 1) ... (s + n)) over ascending lanes x > 0.

    A lane ends once a term is below 1e-15 of its sum: the first term alone
    may end it, after that two in a row must.  Smaller x needs fewer terms,
    so lanes end in about ascending order.  Each iteration works on the
    range from the first lane still running, and a mask freezes the sums of
    the few lanes in it that ended out of order.
    """
    total = np.ones_like(x)
    # The loop allocates nothing: ``tmp`` takes each quotient and threshold,
    # and the masks "this term is not small" and "the last one was not"
    # trade buffers.  Every name below is a view of the running range.
    tmp = np.empty_like(x)
    big, was_big = np.empty(x.shape, dtype=bool), np.zeros(x.shape, dtype=bool)
    xs, t, tot, run = x, np.ones_like(x), total, np.ones(x.shape, dtype=bool)
    for n in range(_SERIES_CAP):
        t *= np.divide(xs, 1.0 + s + n, out=tmp)
        np.add(tot, t, out=tot, where=run)
        np.greater(t, np.multiply(_SERIES_TOL, tot, out=tmp), out=big)
        run &= np.logical_or(big, was_big, out=was_big)
        big, was_big = was_big, big
        skip = run.argmax()  # lanes before the first one still running
        if skip:
            xs, t, tot, run, tmp, big, was_big = (
                a[skip:] for a in (xs, t, tot, run, tmp, big, was_big))
        elif not run[0]:
            return total
    raise NumericError(
        f"vectorized incomplete-gamma series hit the {_SERIES_CAP}-term cap at s={s}"
    )


def _upper_fraction(s: float, x: np.ndarray) -> np.ndarray:
    """The modified-Lentz continued fraction whose product with x^s e^-x is
    the upper incomplete gamma, over ascending lanes x >= s + 12.

    Larger x converges in fewer steps, so lanes end in about descending
    order, and each iteration works on the range up to the last lane still
    running.
    """
    tiny = 1e-300
    b = x + 1.0 - s
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    hs = h  # a view of h's running range
    run = np.ones(x.shape, dtype=bool)
    for i in range(1, _CF_CAP + 1):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        np.copyto(d, tiny, where=np.abs(d) < tiny)
        c = b + an / c
        np.copyto(c, tiny, where=np.abs(c) < tiny)
        d = 1.0 / d
        delta = d * c
        np.multiply(hs, delta, out=hs, where=run)
        run &= np.abs(delta - 1.0) >= _CF_TOL
        skip = run[::-1].argmax()  # lanes after the last one still running
        if skip:
            b, c, d, hs, run = (a[:-skip] for a in (b, c, d, hs, run))
        elif not run[-1]:
            return h
    raise NumericError(
        f"vectorized incomplete-gamma continued fraction hit the "
        f"{_CF_CAP}-iteration cap at s={s}"
    )
