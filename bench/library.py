"""Loading the library under test from the checkout, and its result caches.

Kept free of heavy imports at module level: the set-up timing imports this
module in fresh interpreters and times `load` alone.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One worker pool thread and one BLAS thread: each run is a single closed-loop
# caller, and numpy's `integrand @ weights` may otherwise start BLAS threads.
PINNED_ENV = {
    "TG_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Result caches a sweep process fills once; every measured pass starts with
# them empty.  The quadrature rules (`ball._gl_nodes`) are set-up, not results.
RESULT_CACHES = (
    ("truncgauss.ball", "_alpha_quad"),
    ("truncgauss.eta", "coefficient_table"),
    ("truncgauss.xi", "enumerate_exponents"),
)


class LibraryMissing(RuntimeError):
    """The checkout holds no importable `src/truncgauss`."""


def pin_environment() -> None:
    """Pin thread counts; must run before numpy is first imported."""
    os.environ.update(PINNED_ENV)


def load(root: Path = ROOT):
    """Import `truncgauss` from `root/src` and warm its quadrature rules."""
    src = root / "src"
    if not (src / "truncgauss" / "__init__.py").is_file():
        raise LibraryMissing(f"no truncgauss package under {src}")
    sys.path.insert(0, str(src))
    import truncgauss

    where = Path(truncgauss.__file__).resolve()
    if src.resolve() not in where.parents:
        raise LibraryMissing(f"truncgauss imported from {where}, not from {src}")
    warm_rules()
    return truncgauss


def warm_rules() -> None:
    """Build the Gauss-Legendre rules of every node count the quadrature uses."""
    ball = importlib.import_module("truncgauss.ball")
    rule = getattr(ball, "_gl_nodes", None)
    if rule is None:
        return
    counts = getattr(ball, "_NODES_LOW_DIM", ()) + getattr(ball, "_NODES_HIGH_DIM", ())
    for n in sorted(set(counts)):
        rule(n)


def clear_result_caches() -> None:
    """Empty the result caches present in this version of the library."""
    for module_name, attr in RESULT_CACHES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if fn is not None and hasattr(fn, "cache_clear"):
            fn.cache_clear()


def quad_cache_info():
    """(hits, misses) of the ball-integral quadrature cache, or (0, 0)."""
    ball = importlib.import_module("truncgauss.ball")
    fn = getattr(ball, "_alpha_quad", None)
    if fn is None or not hasattr(fn, "cache_info"):
        return 0, 0
    info = fn.cache_info()
    return info.hits, info.misses
