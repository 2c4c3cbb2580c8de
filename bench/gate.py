"""Correctness gate: recompute a seeded sample of cells by independent routes.

Runs after the timed region.  Routes:

- gap-sweep: every cell must keep the claim `gap <= 10 * err`.  Sampled v = 2
  cells are recomputed with scipy (`gammainc` inside `integrate.quad`) and
  must agree within ten times the two routes' combined error bars.  Sampled
  v = 3 cells are compared with a Monte Carlo estimate of the gap (z <= 4).
- moments-v4: for every cell, `correlation_set` must agree with the
  `conditional_moments` of the same cell.  Sampled cells are compared
  moment by moment with Monte Carlo (z <= 4).
- oracles: sampled Monte Carlo cells are compared with the closed form
  `prod (2k_j-1)!! P(chi2_{v+2|k|} < rho/lambda)` on isotropic spectra and
  with an independent sampler otherwise (z <= 4).  Sampled exact-algebra
  cells are recomputed with `psi_grouped` in place of `psi`, and `psi` must
  equal `psi_grouped` on every split they use.  Sampled cp-table cells are
  recomputed in mpmath and refitted.

The independent sampler is numpy's PCG64 normal generator; the library uses
Philox with Box-Muller.  A z-test over 4 is repeated once on a fresh seed with
four times the samples, and only a second failure counts.  A correct
quadrature output then fails with probability near 1e-8 per statistic
rather than 6e-5; a Monte Carlo cell keeps the 6e-5 of its own noise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate, optimize, special

from truncgauss.xi import enumerate_exponents, power_count, psi, psi_grouped

import workloads

Z_MAX = 4.0
NOISE_FACTOR = 10.0
REF_REL_FLOOR = 1e-13    # scipy gammainc / quad are trusted to this relative error
CP_REL_TOL = 1e-8
EXACT_REL_TOL = 1e-12

MC_TARGET_KEPT = 200_000
MC_MAX_DRAWS = 4_000_000
MC_REF_SAMPLES = 1_000_000
MC_CHUNK = 1 << 17

SAMPLE = {"gap2": 4, "gap3": 3, "moments": 1, "mc": 3, "xi": 12, "cp": 2}


def _dfact(n: int) -> int:
    return math.prod(range(n, 0, -2))


# ---------------------------------------------------------------------------
# Monte Carlo routes
# ---------------------------------------------------------------------------

def _draws(rng, lams, count):
    return rng.standard_normal((count, len(lams))) * np.sqrt(lams)


def _kept_samples(spectrum, rho, seed, scale=1):
    """Draws conditioned on the ball x.x < rho (rows of the returned array)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lams = np.asarray(spectrum.lambdas)
    kept, n_kept, drawn = [], 0, 0
    while n_kept < MC_TARGET_KEPT * scale and drawn < MC_MAX_DRAWS * scale:
        x = _draws(rng, lams, MC_CHUNK)
        x = x[(x * x).sum(axis=1) < rho]
        kept.append(x)
        n_kept += len(x)
        drawn += MC_CHUNK
    return np.concatenate(kept)


def _confirmed_z(z_of, seed: int) -> np.ndarray:
    """|z| per statistic; statistics over Z_MAX are redrawn once, larger."""
    z = np.abs(np.asarray(z_of(seed, 1), dtype=float))
    if np.all(z <= Z_MAX):
        return z
    again = np.abs(np.asarray(z_of(seed ^ 0x5DEECE66D, 4), dtype=float))
    return np.where(z <= Z_MAX, z, again)


def _mean_se(y):
    return y.mean(), y.std(ddof=1) / math.sqrt(len(y))


def gap_z(cell, out, seed) -> np.ndarray:
    """z of each dimension's gap against a Monte Carlo delta-method estimate."""
    lams, rho = cell.spectrum.lambdas, cell.rho

    def z_of(s, scale):
        x = _kept_samples(cell.spectrum, rho, s, scale)
        zs = []
        for n, (gap, err) in enumerate(out):
            y2 = x[:, n] ** 2
            y4 = y2 * y2
            m2, m4 = y2.mean(), y4.mean()
            g = (m4 - m2 * m2 - 2.0 * lams[n] * m2) / rho ** 2
            grad = np.array([-2.0 * m2 - 2.0 * lams[n], 1.0]) / rho ** 2
            var = grad @ np.cov(np.vstack([y2, y4])) @ grad / len(y2)
            zs.append((gap - g) / math.sqrt(var + err * err))
        return zs

    return _confirmed_z(z_of, seed)


def moments_z(cell, out, seed) -> np.ndarray:
    """z of every second, fourth and cross moment against Monte Carlo."""
    mom, _cors = out
    v = cell.spectrum.v

    def z_of(s, scale):
        x2 = _kept_samples(cell.spectrum, cell.rho, s, scale) ** 2
        zs = []
        for n in range(v):
            for value, y in ((mom.second[n], x2[:, n]), (mom.fourth[n], x2[:, n] ** 2)):
                mean, se = _mean_se(y)
                zs.append((value - mean) / se)
            for m in range(n + 1, v):
                mean, se = _mean_se(x2[:, n] * x2[:, m])
                zs.append((mom.cross[n][m] - mean) / se)
        return zs

    return _confirmed_z(z_of, seed)


def mc_cell_z(cell, est, seed) -> float:
    """z of a Monte Carlo cell against the closed form or a second sampler."""
    ks = cell.index.multiplicities
    lams = cell.spectrum.lambdas
    if len(set(lams)) == 1:
        dof = cell.spectrum.v + 2 * sum(ks)
        exact = math.prod(_dfact(2 * k - 1) for k in ks) * \
            special.gammainc(dof / 2.0, cell.rho / (2.0 * lams[0]))
        return abs(est.mean - exact) / est.std_error

    def z_of(s, scale):
        rng = np.random.Generator(np.random.PCG64(s))
        total = total_sq = 0.0
        count = MC_REF_SAMPLES * scale
        for start in range(0, count, MC_CHUNK):
            x = _draws(rng, np.asarray(lams), min(MC_CHUNK, count - start))
            y = ((x * x).sum(axis=1) < cell.rho).astype(float)
            for j, k in enumerate(ks):
                if k:
                    y *= (x[:, j] ** 2 / lams[j]) ** k
            total += y.sum()
            total_sq += (y * y).sum()
        mean = total / count
        var = (total_sq - count * mean * mean) / (count - 1) / count
        return [(est.mean - mean) / math.sqrt(var + est.std_error ** 2)]

    return float(_confirmed_z(z_of, seed)[0])


# ---------------------------------------------------------------------------
# scipy route for v = 2
# ---------------------------------------------------------------------------

def ball_integral_2d(ks, rho, lams):
    """(value, absolute error) of the v = 2 ball integral with scipy.

    x_2 = sqrt(rho) sin(t) removes the edge branch point; the inner
    dimension is the regularized lower incomplete gamma.
    """
    k1, k2 = ks
    l1, l2 = lams
    r = math.sqrt(rho)
    lead = _dfact(2 * k1 - 1)

    def f(t):
        x = r * math.sin(t)
        left = max(rho - x * x, 0.0)
        dens = math.exp(-x * x / (2.0 * l2)) / math.sqrt(2.0 * math.pi * l2)
        return (2.0 * r * math.cos(t) * dens * (x * x / l2) ** k2
                * lead * special.gammainc(k1 + 0.5, left / (2.0 * l1)))

    # the Gaussian factor is below 1e-160 past 27 standard deviations
    t_max = math.asin(min(1.0, 27.0 * math.sqrt(l2) / r))
    value, abserr = integrate.quad(f, 0.0, t_max, epsabs=0.0, epsrel=1e-13,
                                   limit=400)
    return value, max(abserr, REF_REL_FLOOR * abs(value))


def gap_scipy_excess(cell, out) -> float:
    """Largest |gap - gap_ref| / (10 (err + err_ref)) over the dimensions."""
    lams, rho = cell.spectrum.lambdas, cell.rho
    worst = 0.0
    for n, (gap, err) in enumerate(out):
        def alpha(k):
            ks = [0, 0]
            ks[n] = k
            return ball_integral_2d(ks, rho, lams)

        (a0, e0), (a1, e1), (a2, e2) = alpha(0), alpha(1), alpha(2)
        r1, r2 = a1 / a0, a2 / a0
        pref = lams[n] ** 2 / rho ** 2
        ref = pref * (r2 - r1 * r1 - 2.0 * r1)
        d0, d1, d2 = e0 / a0, e1 / a1, e2 / a2
        err_ref = pref * (r2 * (d2 + d0) + (r1 * r1 + 2.0 * r1) * 2.0 * (d1 + d0))
        worst = max(worst, abs(gap - ref) / (NOISE_FACTOR * (err + err_ref)))
    return worst


# ---------------------------------------------------------------------------
# Exact-algebra and cp-table routes
# ---------------------------------------------------------------------------

def _decrement(tail, *positions):
    out = list(tail)
    for pos in positions:
        out[pos - 1] -= 1
    return tuple(out)


def xi_mismatches(cell, out) -> list[str]:
    """Recompute omega0, omega1 and the gap coefficient from psi_grouped."""
    q = cell.order
    bad = []
    tails = enumerate_exponents(q, q)
    if [row[0] for row in out] != list(tails):
        return [f"q={q}: tails differ from enumerate_exponents"]

    def split(p, tail):
        grouped = psi_grouped(p, tail)
        if psi(p, tail) != grouped:
            bad.append(f"q={q}: psi{p, tail} != psi_grouped")
        return grouped

    for tail, coeff, om0, om1 in out:
        ref1 = sum(ell * ell * split(q - ell, _decrement(tail, ell))
                   for ell in range(1, q + 1) if tail[ell - 1] >= 1)
        ref0 = sum((r - s) ** 2 * split(q - r - s, _decrement(tail, r, s))
                   for r in range(1, q + 1) for s in range(1, r)
                   if r + s <= q and tail[r - 1] >= 1 and tail[s - 1] >= 1)
        weight = math.prod(Fraction(_dfact(2 * k - 1), math.factorial(k)) ** e
                           for k, e in enumerate(tail, start=1))
        ref = 4 * (-1) ** sum(tail) * weight * (ref0 - ref1)
        if power_count(tail) != q or (om0, om1, coeff) != (ref0, ref1, ref):
            bad.append(f"q={q}: tail {tail} gives {(om0, om1, coeff)}, "
                       f"psi_grouped route {(ref0, ref1, ref)}")
    return bad


def cp_value_mp(v: int, p: int) -> float:
    """Max over x > 0 of the p-th term profile over p, in mpmath.

    The profile is a run of lobes between sign changes of the polynomial, so
    the three highest grid lobes are each refined and the best one is kept.
    """
    mpmath.mp.dps = 40
    phi = mpmath.mpf(v - 3) / 2
    coeffs = [mpmath.rf(-phi, ell)
              / (mpmath.factorial(ell) * mpmath.factorial(p - 1 - ell))
              for ell in range(p)]

    def profile(log_x: float) -> float:
        x = mpmath.exp(log_x)
        total = mpmath.fsum(c * x ** (p - ell + phi) for ell, c in enumerate(coeffs))
        return float(mpmath.log(abs(total)) - x) if total else -math.inf

    grid = np.linspace(math.log(1e-3), math.log(1e3), 600)
    values = np.array([profile(g) for g in grid])
    peaks = [i for i in range(1, len(grid) - 1)
             if values[i] >= values[i - 1] and values[i] >= values[i + 1]]
    best = float(values.max())
    for i in sorted(peaks, key=lambda i: values[i])[-3:]:
        res = optimize.minimize_scalar(lambda t: -profile(t), method="bounded",
                                       bounds=(grid[i - 1], grid[i + 1]),
                                       options={"xatol": 1e-11})
        best = max(best, -res.fun)
    return math.exp(best) / p


def cp_mismatches(cell, est, rng) -> list[str]:
    bad = []
    p_lo, p_hi = workloads.CP_P_RANGE
    if est.p_values != tuple(range(p_lo, p_hi + 1)):
        return [f"v={cell.order}: p grid {est.p_values[:3]}..."]
    p = int(rng.integers(p_lo, p_hi + 1))
    ref = cp_value_mp(cell.order, p)
    got = est.c_values[p - p_lo]
    if abs(got - ref) > CP_REL_TOL * ref:
        bad.append(f"v={cell.order}: C({p}) = {got!r}, mpmath {ref!r}")
    # ordinary least squares of log C on log p
    xs = [math.log(p) for p in est.p_values]
    ys = [math.log(c) for c in est.c_values]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)
    amp = math.exp(my - slope * mx)
    if abs(est.fit_eps + slope) > 1e-9 * max(1.0, abs(slope)) or \
            abs(est.fit_A - amp) > 1e-9 * amp:
        bad.append(f"v={cell.order}: fit (A, eps) = ({est.fit_A!r}, {est.fit_eps!r}), "
                   f"refit ({amp!r}, {-slope!r})")
    return bad


# ---------------------------------------------------------------------------
# Per-workload gate
# ---------------------------------------------------------------------------

def moments_consistency(cell, out) -> float:
    """Largest mismatch of correlation_set against conditional_moments,
    relative to the scale of the terms that cancel."""
    mom, cors = out
    lams, rho = cell.spectrum.lambdas, cell.rho
    worst = 0.0
    for n in range(cell.spectrum.v):
        for m in range(cell.spectrum.v):
            second = mom.second[n] * mom.second[m]
            ref = ((mom.fourth[n] if n == m else mom.cross[n][m]) - second) / rho ** 2
            scale = (abs(mom.cross[n][m]) + second) / rho ** 2
            worst = max(worst, abs(cors.gamma[n][m] - ref) / scale)
        ref = cors.gamma[n][n] - 2.0 * lams[n] * mom.second[n] / rho ** 2
        scale = abs(cors.gamma[n][n]) + 2.0 * lams[n] * mom.second[n] / rho ** 2
        worst = max(worst, abs(cors.delta[n] - ref) / scale)
    return worst


def check(records, seed: int) -> dict[int, str]:
    """Failed cell ids with a reason; `records` holds (id, cell, output)."""
    rng = np.random.Generator(np.random.PCG64([seed, 0x6A7E]))
    failed: dict[int, str] = {}
    groups: dict[str, list] = {}
    for rec in records:
        cell_id, cell, out = rec
        kind = cell.kind
        if kind == "gap":
            if any(gap > NOISE_FACTOR * err for gap, err in out):
                failed[cell_id] = "claim gap <= 10 err violated"
            kind = f"gap{cell.spectrum.v}"
        elif kind == "moments":
            excess = moments_consistency(cell, out)
            if not excess <= EXACT_REL_TOL:
                failed[cell_id] = f"correlation_set off conditional_moments by {excess:.1e}"
        groups.setdefault(kind, []).append(rec)

    for kind, recs in groups.items():
        take = min(SAMPLE.get(kind, 0), len(recs))
        for i in sorted(rng.choice(len(recs), take, replace=False)):
            cell_id, cell, out = recs[i]
            sub_seed = int(rng.integers(1 << 62))
            reason = None
            if kind == "gap2":
                excess = gap_scipy_excess(cell, out)
                if not excess <= 1.0:
                    reason = f"gap off the scipy route by {excess:.2f} x 10 err"
            elif kind in ("gap3", "moments", "mc"):
                route = {"gap3": gap_z, "moments": moments_z, "mc": mc_cell_z}[kind]
                z = float(np.max(route(cell, out, sub_seed)))
                if not z <= Z_MAX:
                    reason = f"Monte Carlo z = {z:.2f}"
            elif kind == "xi":
                bad = xi_mismatches(cell, out)
                reason = bad[0] if bad else None
            elif kind == "cp":
                bad = cp_mismatches(cell, out, rng)
                reason = bad[0] if bad else None
            if reason:
                failed.setdefault(cell_id, reason)
    return failed
