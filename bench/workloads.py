"""Seeded cell streams for the benchmark workloads.

A cell is one unit of work; `run_cell` performs it through the library's
public API.  The API names are module globals here so that the traced run can
wrap them where this module imported them.

Each stream is infinite and draws every input from its seed, so no input
repeats within a run.  Dimensions are stratified in short blocks, and the
few, costly moments-v4 cells take their inputs from a low-discrepancy
sequence, so the mix of cheap and dear cells stays the same from seed to
seed and a run's median does not jump between cost levels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from truncgauss import MultiIndex, Spectrum
from truncgauss.ball import ball_integral_mc
from truncgauss.expansion import convergence_estimate
from truncgauss.moments import (conditional_moments, correlation_set,
                                variance_gap_with_error)
from truncgauss.xi import enumerate_exponents, gap_limit_coefficient, omega

WORKLOADS = ("gap-sweep", "moments-v4", "oracles")

GAP_RHO = 1.0
GAP_VARIANCE_RANGE = (0.02, 10.0)    # rho / lambda spans [0.1, 50]
GAP_BLOCK, GAP_V2_PER_BLOCK = 10, 3  # 3 in 10 cells at v = 2, the rest at v = 3

MOMENTS_V = 4
MOMENTS_VARIANCE_RANGE = (0.3, 3.0)
MOMENTS_RATIO_RANGE = (0.5, 50.0)    # rho / lambda_max

MC_DIMS = tuple(range(2, 11))
MC_SAMPLES = 500_000
MC_ISOTROPIC_PER_BLOCK = 3           # isotropic spectra have a closed form
MC_VARIANCE_RANGE = (0.3, 3.0)
MC_RADIUS_RANGE = (0.3, 3.0)         # rho / sum(lambda)
XI_ORDERS = tuple(range(1, 13))
CP_DIMS = tuple(range(2, 7))
CP_P_RANGE = (50, 100)

# Nominal cells per second of `--seconds` in a traced run.  They fix its cell
# quota, so its counts repeat exactly for a seed; each cell runs twice, so
# about half of `--seconds` goes to the traced runs.
TRACE_QUOTA_RATE = {"gap-sweep": 40.0, "moments-v4": 0.3, "oracles": 2.0}


@dataclass(frozen=True)
class Cell:
    kind: str                      # "gap", "moments", "mc", "xi" or "cp"
    spectrum: Spectrum | None = None
    rho: float = 0.0
    index: MultiIndex | None = None
    order: int = 0                 # q of an exact-algebra cell, v of a cp cell
    seed: int = 0


def run_cell(cell: Cell):
    """Perform one cell and return its outputs."""
    if cell.kind == "gap":
        return tuple(variance_gap_with_error(n, cell.rho, cell.spectrum)
                     for n in range(cell.spectrum.v))
    if cell.kind == "moments":
        return (conditional_moments(cell.rho, cell.spectrum),
                correlation_set(cell.rho, cell.spectrum))
    if cell.kind == "mc":
        return ball_integral_mc(cell.index, cell.rho, cell.spectrum,
                                MC_SAMPLES, cell.seed)
    if cell.kind == "xi":
        q = cell.order
        return tuple((tail, gap_limit_coefficient(q, tail),
                      omega(0, q, tail), omega(1, q, tail))
                     for tail in enumerate_exponents(q, q))
    if cell.kind == "cp":
        return convergence_estimate(cell.order, *CP_P_RANGE)
    raise ValueError(f"unknown cell kind {cell.kind!r}")


def _log_uniform(rng, bounds, size=None):
    lo, hi = bounds
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _spectrum(rng, v, bounds) -> Spectrum:
    return Spectrum(tuple(float(x) for x in _log_uniform(rng, bounds, v)))


def _gap_cells(rng):
    while True:
        at_v2 = rng.permutation(GAP_BLOCK) < GAP_V2_PER_BLOCK
        for v2 in at_v2:
            spec = _spectrum(rng, 2 if v2 else 3, GAP_VARIANCE_RANGE)
            yield Cell("gap", spec, GAP_RHO)


def _kronecker(rng, dim: int):
    """Points of the unit cube from Roberts' R_d sequence with a seeded shift.

    Every prefix of the sequence covers the cube evenly, so a run's sample of
    inputs is close to the stated distribution even when it holds few cells.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1.0, dim + 1.0)
    shift = rng.random(dim)
    for i in itertools.count(1):
        yield (shift + i * alpha) % 1.0


def _moments_cells(rng):
    lo, hi = (math.log(b) for b in MOMENTS_RATIO_RANGE)
    lam_lo, lam_hi = (math.log(b) for b in MOMENTS_VARIANCE_RANGE)
    for u in _kronecker(rng, MOMENTS_V + 1):
        lams = np.exp(lam_lo + u[:MOMENTS_V] * (lam_hi - lam_lo))
        spec = Spectrum(tuple(float(x) for x in lams))
        ratio = math.exp(lo + u[MOMENTS_V] * (hi - lo))
        yield Cell("moments", spec, ratio * spec.lambda_max)


def _mc_index(rng, v: int) -> MultiIndex:
    """Zero, single, double or pair index: the shapes the moments consume."""
    shape = int(rng.integers(4))
    n, m = (int(x) for x in rng.choice(v, 2, replace=False))
    if shape == 0:
        return MultiIndex.zero(v)
    if shape == 1:
        return MultiIndex.single(v, n)
    if shape == 2:
        return MultiIndex.single(v, n, 2)
    return MultiIndex.single(v, n).bump(m)


def _oracle_cells(rng):
    fixed = [Cell("xi", order=q) for q in XI_ORDERS]
    fixed += [Cell("cp", order=v) for v in CP_DIMS]
    for i in rng.permutation(len(fixed)):
        yield fixed[i]
    while True:
        dims = rng.permutation(MC_DIMS)
        isotropic = rng.permutation(len(MC_DIMS)) < MC_ISOTROPIC_PER_BLOCK
        for v, iso in zip(dims, isotropic):
            v = int(v)
            if iso:
                lam = float(_log_uniform(rng, MC_VARIANCE_RANGE))
                spec = Spectrum((lam,) * v)
            else:
                spec = _spectrum(rng, v, MC_VARIANCE_RANGE)
            rho = float(_log_uniform(rng, MC_RADIUS_RANGE)) * sum(spec.lambdas)
            yield Cell("mc", spec, rho, _mc_index(rng, v),
                       seed=int(rng.integers(1 << 62)))


_STREAMS = {"gap-sweep": _gap_cells, "moments-v4": _moments_cells,
            "oracles": _oracle_cells}


def cells(workload: str, seed: int):
    """Infinite stream of the workload's cells for this seed."""
    return _STREAMS[workload](np.random.Generator(np.random.PCG64(seed)))


def trace_cells(workload: str, seed: int, seconds: float) -> list[Cell]:
    """The traced run's fixed cell list: a quota of the stream's first cells."""
    fixed = len(XI_ORDERS) + len(CP_DIMS) if workload == "oracles" else 0
    quota = fixed + max(1, math.ceil(TRACE_QUOTA_RATE[workload] * seconds))
    return list(itertools.islice(cells(workload, seed), quota))
