"""Exact coefficient algebra of the variance-gap expansion at large radius.

Every expansion order q couples to monomials in the coefficient functions,
indexed by exponent vectors e = (e_0, ..., e_q) whose weighted tail sum
(the power count) must equal q.  This module enumerates those vectors,
multiplies coefficient maps {(order, e): value} as Cauchy products (each
check builds its two maps from their closed forms on their supports,
multiplies them once and reads every target from the product), and
evaluates the infinite-radius limits in exact rational arithmetic,
culminating in the sign law for the variance-gap coefficients: each limit
is 4 (-1)^n W (omega0 - omega1), with n = sum e, semifactorial weight W
and the split weights of :func:`omega`.

The law holds at every order q.  With M = n! / prod e_k!, the closed forms
give omega1 = M sum l^2 e_l and omega0 = (M / n) sum_{r>s} (r - s)^2 e_r e_s.
Lagrange's identity sum_{r>s} (r - s)^2 e_r e_s = n sum l^2 e_l - q^2 then
gives omega1 - omega0 = M q^2 / n > 0, so each limit is
4 (-1)^(n-1) q^2 (n-1)! / prod e_k! * W, of sign (-1)^(n-1).

Everything here is integer/rational; no floating-point value ever enters a
sign determination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import DomainError
from .report import Report
from .special import (_integer, _integer_cache, _integers, _multinomial,
                      double_factorial)

__all__ = [
    "power_count",
    "enumerate_exponents",
    "xi_product",
    "xi_alpha_limit",
    "psi",
    "psi_grouped",
    "omega",
    "gap_limit_coefficient",
    "omega_inequality_scan",
    "gap_convolution_check",
    "inverse_mass_identity_check",
]

# the highest order that enumeration and every exhaustive check reach
_Q_MAX = 24


def power_count(tail: tuple[int, ...]) -> int:
    """Weighted sum k * e_k over the tail (e_1, ..., e_q)."""
    return sum((k + 1) * e for k, e in enumerate(tail))


def _q_max(q_max, low: int = 1) -> int:
    """``q_max`` as an int in low.._Q_MAX, or a DomainError."""
    q_max = _integer(q_max, "q_max")
    if not low <= q_max <= _Q_MAX:
        raise DomainError(f"need {low} <= q_max <= {_Q_MAX}, got {q_max}")
    return q_max


def _checked(q, tail, name: str = "q", counted: bool = False):
    """``(q, tail)`` as ints, or a DomainError: q >= 0 and no negative
    entry.  A ``counted`` tail must also fit in q entries and have power
    count q; it comes back padded to length q."""
    q, tail = _integer(q, name), _integers(tail, "tail entries")
    if q < 0 or any(e < 0 for e in tail):
        raise DomainError(
            f"need {name} >= 0 and nonnegative entries, got {name}={q}, tail {tail}")
    if counted:
        if len(tail) > q:
            raise DomainError(f"tail {tail} longer than {name}={q}")
        tail += (0,) * (q - len(tail))
        if power_count(tail) != q:
            raise DomainError(
                f"tail {tail} has power count {power_count(tail)}, expected {name}={q}")
    return q, tail


@_integer_cache(maxsize=4096)
def enumerate_exponents(q: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All tails (e_1, ..., e_q) with power count m, lexicographically.

    Entries above index m are forced to zero by the power count, so the
    result is independent of q beyond padding.
    """
    if q < 0 or m < 0 or q > _Q_MAX or m > _Q_MAX:
        raise DomainError(f"need 0 <= q, m <= {_Q_MAX}, got q={q}, m={m}")
    out: list[tuple[int, ...]] = []

    def rec(position: int, remaining: int, prefix: tuple[int, ...]):
        if position > q:
            if remaining == 0:
                out.append(prefix)
            return
        budget = remaining // position
        for e in range(budget + 1):
            rec(position + 1, remaining - position * e, prefix + (e,))

    rec(1, m, ())
    return tuple(out)


def _by_order(coeffs: dict) -> list:
    """The map's entries ((order, e), value) by ascending order, each key
    through :func:`_checked`; a key that is not an (order, vector) pair, or
    a vector e whose length is not order + 1, is a DomainError."""
    try:
        items = [(_checked(q, e, "order"), value) for (q, e), value in coeffs.items()]
    except (TypeError, ValueError):  # _checked raises neither: a key is no pair
        raise DomainError("coefficient keys must be (order, vector) pairs") from None
    for (order, e), _ in items:
        if len(e) != order + 1:
            raise DomainError(
                f"exponent vector must have length order+1={order + 1}, got {e}")
    return sorted(items, key=lambda item: item[0][0])


def xi_product(f_coeffs: dict, g_coeffs: dict, q_max: int) -> dict:
    """Cauchy product of two coefficient maps through order q_max.

    Operands and result are maps {(order, full exponent tuple): value},
    each vector of length order + 1.  Every pair of entries whose orders
    sum to at most q_max adds f * g at the order sum and the componentwise
    sum of the two vectors, both padded to that order's length; only the
    nonzero sums are kept.  Sums of observables just add coefficient maps
    componentwise, so only the product needs machinery.
    """
    q_max = _checked(q_max, (), "q_max")[0]
    g_items = _by_order(g_coeffs)
    out = {}
    for (ell, c), fc in _by_order(f_coeffs):
        for (m, d), gd in g_items:
            if ell + m > q_max:
                break
            key = (ell + m, tuple(map(add, c + (0,) * m, d + (0,) * ell)))
            out[key] = out.get(key, 0) + fc * gd
    return {key: value for key, value in out.items() if value}


def xi_alpha_limit(q: int, e, k: int) -> Fraction:
    """Radius limit of the single-integral coefficient at order q.

    Only the exponent pattern with e_q = 1 and all lower entries zero
    survives; its value is (2(k+q)-1)!! / q!.  The leading bookkeeping
    factor (the reduced-dimension mass) is normalized to one, as it cancels
    in every ratio this module ultimately cares about.  The result is
    summed over the zeroth exponent, hence depends only on the tail of the
    full vector e = (e_0, ..., e_q).
    """
    (q, entries), k = _checked(q, e), _integer(k, "k")
    if k < 0:
        raise DomainError(f"need k >= 0, got k={k}")
    if len(entries) != q + 1:
        raise DomainError(
            f"exponent vector must have length q+1={q + 1}, got {entries}")
    expected = (0,) * (q - 1) + (1,) if q else ()
    if entries[1:] != expected:
        return Fraction(0)
    return Fraction(double_factorial(2 * (k + q) - 1), math.factorial(q))


def psi(p: int, tail: tuple[int, ...]) -> int:
    """Split-convolution weight: ordered two-way splits of the tail.

    Sums the product of both parts' multinomial ordering counts over every
    componentwise split tail = c + d; zero unless the tail's power count is
    p.  With n = sum e and j = sum c, Vandermonde gives sum prod_k
    C(e_k, c_k) = C(n, j) over the c of size j, so the sum is
    sum_j C(n, j) j! (n - j)! / prod e_k! = (n + 1) n! / prod e_k!.
    ``psi_grouped`` enumerates the splits instead.
    """
    p, tail = _checked(p, tail, "p")
    if power_count(tail) != p:
        return 0
    return (sum(tail) + 1) * _multinomial(tail)


def psi_grouped(p: int, tail: tuple[int, ...]) -> int:
    """Alternative route to the split weight: group by the first part's
    power count and walk componentwise sub-tails directly."""
    p, tail = _checked(p, tail, "p")
    if power_count(tail) != p:
        return 0
    total = 0

    def rec(i: int, sub: tuple[int, ...]):
        nonlocal total
        if i == len(tail):
            rest = tuple(e - c for e, c in zip(tail, sub))
            total += _multinomial(sub) * _multinomial(rest)
            return
        for c in range(tail[i] + 1):
            rec(i + 1, sub + (c,))

    rec(0, ())
    return total


def omega(which: int, q: int, tail: tuple[int, ...]) -> int:
    """The two split weights competing in the variance-gap limit.

    ``which = 0``: pairs of distinct positive positions r > s with
    r + s <= q, weighted by (r - s)^2, on the doubly decremented tail.
    ``which = 1``: single positions l, weighted by l^2, on the singly
    decremented tail.  The sign law reduces to omega0 < omega1.

    Both sums close.  Let n = sum e and M = n! / prod e_k!.  Removing one
    part at l leaves n - 1 parts, and :func:`psi` of that tail is
    n (n - 1)! e_l / prod e_k! = M e_l, so omega1 = M sum_l l^2 e_l.
    Removing parts at r and s leaves n - 2, and psi gives
    (n - 1)! e_r e_s / prod e_k! = (M / n) e_r e_s, so omega0 =
    (M / n) sum_{r>s} (r - s)^2 e_r e_s.  A position with e = 0 adds
    nothing, and r + s <= q holds whenever e_r and e_s are both positive,
    since r + s is part of the power count q.
    """
    if which not in (0, 1):
        raise DomainError(f"which must be 0 or 1, got {which}")
    q, tail = _checked(q, tail, counted=True)
    entries = list(enumerate(tail, start=1))
    if which == 1:
        return _multinomial(tail) * sum(ell * ell * e for ell, e in entries)
    pairs = sum((r - s) ** 2 * e_r * e_s
                for r, e_r in entries for s, e_s in entries[:r - 1])
    # each pair term of M e_r e_s is a multiple of n; no pair when n < 2
    return _multinomial(tail) * pairs // max(sum(tail), 1)


def _semifactorial_weight(tail: tuple[int, ...]) -> Fraction:
    """prod_k ((2k - 1)!! / k!)^(e_k) over the tail (e_1, e_2, ...)."""
    weight = Fraction(1)
    for k, e_k in enumerate(tail, start=1):
        if e_k:
            weight *= Fraction(double_factorial(2 * k - 1),
                               math.factorial(k)) ** e_k
    return weight


def gap_limit_coefficient(q: int, tail: tuple[int, ...]) -> Fraction:
    """Radius limit of the variance-gap coefficient at order q, summed over
    the zeroth exponent; exact rational.

    The limit is 4 (-1)^n W (omega0 - omega1), with n = sum e and W the
    semifactorial weight.  The closed forms of :func:`omega` and Lagrange's
    identity sum_{r>s} (r - s)^2 e_r e_s = n sum l^2 e_l - q^2 give
    omega1 - omega0 = M q^2 / n with M = n! / prod e_k!, so the limit is
    4 (-1)^(n-1) q^2 (n-1)! / prod e_k! * W, and 0 at q = 0.
    """
    q, tail = _checked(q, tail, counted=True)
    if not q:
        return Fraction(0)
    n = sum(tail)
    return 4 * (-1) ** (n - 1) * q * q * _semifactorial_weight(tail) \
        * Fraction(_multinomial(tail), n)


def omega_inequality_scan(q_max: int) -> Report:
    """Exact checks of the weight inequalities and the sign law through q_max.

    The pointwise margin (parts - 1) sum l^2 c_l - sum_{r>s} (r - s)^2 c_r c_s
    over every splitting tail c of power count t is t^2 - sum l^2 c_l, by
    Lagrange's identity: positive from two parts on, zero for one.  On every
    tail of each order q, omega1 - omega0 must equal M q^2 / n, and the
    closed-form gap coefficient must equal 4 (-1)^n W (omega0 - omega1) and
    carry the sign (-1)^(n-1).  Both checks read one omega pair per tail.
    """
    q_max = _q_max(q_max)
    report = Report("omega-scan")

    margins = [(t * t - sum(ell * ell * c_l for ell, c_l in enumerate(c, start=1)),
                sum(c))
               for t in range(1, q_max + 1) for c in enumerate_exponents(q_max, t)]
    violations = sum(1 for margin, parts in margins
                     if not (margin > 0 if parts >= 2 else margin >= 0))
    report.add("pointwise-weight-inequality", violations == 0,
               float(min(margin for margin, _ in margins)),
               detail=f"{len(margins)} splitting tails scanned, {violations} violations")

    weights = {q: [(t, omega(0, q, t), omega(1, q, t)) for t in enumerate_exponents(q, q)]
               for q in range(1, q_max + 1)}
    for q, rows in weights.items():
        gaps = [w1 - w0 for _, w0, w1 in rows]
        bad = [t for (t, _, _), gap in zip(rows, gaps)
               if gap * sum(t) != _multinomial(t) * q * q]
        min_gap = min(gaps)
        report.add(f"omega0<omega1[q={q}]", not bad, float(min_gap),
                   detail=f"{len(rows)} tails, min gap {min_gap}")

    for q, rows in weights.items():
        bad_sign = []
        for t, w0, w1 in rows:
            value, n = gap_limit_coefficient(q, t), sum(t)
            weighted = 4 * (-1) ** n * _semifactorial_weight(t) * (w0 - w1)
            if value != weighted or value * (-1) ** (n - 1) <= 0:
                bad_sign.append(t)
        report.add(f"sign-law[q={q}]", not bad_sign, float(len(rows)),
                   detail=f"{len(rows)} tails checked")
    return report


def _signed_map(q: int, weight) -> dict:
    """{(order, (0,) + tail): (-1)^n W(tail) weight(order, tail)} over every
    tail of every order through q; no entry has a nonzero zeroth exponent."""
    return {(ell, (0,) + t): (-1) ** sum(t) * _semifactorial_weight(t) * weight(ell, t)
            for ell in range(q + 1) for t in enumerate_exponents(ell, ell)}


def gap_convolution_check(q_max: int) -> Report:
    """Two independent routes to the variance-gap limit coefficients.

    Route one is the closed form of :func:`gap_limit_coefficient`; route two
    never reads :func:`omega`.  It builds the gap numerator on its support,
    the unit pairs at positions a > b >= 0 with a + b <= q_max, each valued
    4 (a - b)^2 W_a W_b, and the squared inverse mass, (-1)^n W psi on every
    tail.  It multiplies the two once with :func:`xi_product` and reads each
    target summed over the zeroth exponents 0 and 1, the only ones the
    numerator has.  Both are exact, so the comparison is equality.
    """
    q_max = _q_max(q_max)
    report = Report("gap-convolution")
    numerator = {}
    for a in range(1, q_max + 1):
        for b in range(min(a, q_max - a + 1)):
            e = [0] * (a + b + 1)
            e[a] = e[b] = 1
            numerator[(a + b, tuple(e))] = \
                4 * (a - b) ** 2 * _semifactorial_weight(tuple(e[1:]))
    product = xi_product(numerator, _signed_map(q_max, psi), q_max)
    for q in range(1, q_max + 1):
        for tail in enumerate_exponents(q, q):
            closed = gap_limit_coefficient(q, tail)
            convolved = sum((product.get((q, (e0,) + tail), 0) for e0 in (0, 1)),
                            Fraction(0))
            report.add(
                f"route-equivalence[q={q},e={tail}]", closed == convolved,
                float(abs(closed)),
                detail=f"closed {closed}, convolved {convolved}",
            )
    return report


def inverse_mass_identity_check(q_max: int) -> Report:
    """Convolving the mass expansion with its inverse returns the identity.

    The mass coefficients are the single-integral limits (multiplicity
    zero), one pattern (0, ..., 0, 1) per order; the inverse-mass
    coefficients carry the signed multinomial weights on every tail.  Their product must be 1 at order zero and vanish at every
    higher order, in exact arithmetic.
    """
    q_max = _q_max(q_max, low=0)
    report = Report("inverse-mass-identity")
    units = [(ell, (0,) * ell + (int(ell > 0),)) for ell in range(q_max + 1)]
    product = xi_product({key: xi_alpha_limit(*key, 0) for key in units},
                         _signed_map(q_max, lambda ell, t: _multinomial(t)), q_max)
    for q in range(0, q_max + 1):
        for tail in enumerate_exponents(q, q):
            value = product.get((q, (0,) + tail), 0)
            expected = Fraction(1) if q == 0 else Fraction(0)
            report.add(f"identity[q={q},e={tail}]", value == expected,
                       0.0, detail=f"got {value}")
    return report
