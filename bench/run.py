"""Benchmark of truncgauss: three seeded workloads through the public API.

    python3 bench/run.py --workload gap-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With `--trace 0` one caller runs the workload's cells in a closed loop for
`--seconds` and reports the end-to-end metrics.  With `--trace 1` a fixed
quota of cells runs twice, untraced and then with spans around every layer
entry point, and the per-layer metrics come from the traced pass.  Both modes
recompute a seeded sample of cells by independent routes afterwards and exit
1 if any output is wrong.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import library

library.pin_environment()  # before numpy is imported anywhere

SETUP_REPEATS = 7
RESULTS_DIR = library.ROOT / "bench" / "results"

# Timed in a fresh interpreter: imports happen once per process.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import library
library.load()
print(time.perf_counter() - t0)
"""


def setup_seconds() -> tuple[float, int]:
    """Median over fresh interpreters of import plus warm-up of the rules."""
    times = []
    bench_dir = str(library.ROOT / "bench")
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, bench_dir],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), len(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def closed_loop(cells, seconds: float):
    """Run cells one after another until `seconds` have passed.

    Each cell starts when the previous one has returned.  Returns (records,
    failures, latencies, wall seconds); a cell that raises one of the
    library's typed errors counts as failed.
    """
    import workloads
    from truncgauss import TruncGaussError

    library.clear_result_caches()
    records, failures, latencies = [], {}, []
    start = time.perf_counter()
    for cell_id, cell in enumerate(cells):
        t0 = time.perf_counter()
        try:
            records.append((cell_id, cell, workloads.run_cell(cell)))
        except TruncGaussError as exc:
            failures[cell_id] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        latencies.append(end - t0)
        if end - start >= seconds:
            break
    return records, failures, latencies, end - start


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_revision": git_revision(),
        **{k: os.environ[k] for k in library.PINNED_ENV},
    }


def git_revision() -> str:
    git = library.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(workload: str, seed: int, seconds: float):
    import workloads

    setup_s, setup_n = setup_seconds()
    records, failures, lat, wall = closed_loop(workloads.cells(workload, seed), seconds)
    rss = peak_rss_mb()
    n = len(lat)
    metrics = {
        "cells_per_s": (n / wall, "1/s", n),
        "cell_p50_ms": (percentile(lat, 50) * 1e3, "ms", n),
        "setup_s": (setup_s, "s", setup_n),
        "peak_rss_mb": (rss, "MB", 1),
    }
    # A percentile is reported only with at least ten samples beyond it.
    extra = {"cell_p90_ms": (percentile(lat, 90) * 1e3, "ms", n) if n >= 100 else None}
    return records, failures, n, metrics, extra


def traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics from a fixed quota of cells.

    Each cell runs twice, untraced and traced, in alternating order, so both
    runs see the same machine load and the difference is the tracing cost.
    The result caches are emptied before every run, so both do the same
    work; inputs never repeat, so only the exact-algebra cells lose hits
    that a sequential pass would get.
    """
    import tracing
    import workloads
    from truncgauss import TruncGaussError

    quota = workloads.trace_cells(workload, seed, seconds)
    tracer = tracing.Tracer()
    records, failures = [], {}
    untraced_s = 0.0
    hits = misses = 0
    origin = time.perf_counter()
    for cell_id, cell in enumerate(quota):
        for with_spans in ((False, True) if cell_id % 2 == 0 else (True, False)):
            library.clear_result_caches()
            if not with_spans:
                t0 = time.perf_counter()
                try:
                    workloads.run_cell(cell)
                except TruncGaussError:
                    pass  # recorded by the traced run of the same cell
                untraced_s += time.perf_counter() - t0
                continue
            tracer.install()
            try:
                records.append((cell_id, cell, tracer.run_cell(cell_id, cell)))
            except TruncGaussError as exc:
                failures[cell_id] = f"{type(exc).__name__}: {exc}"
            finally:
                tracer.uninstall()
            # clearing the caches also zeroed their statistics
            cell_hits, cell_misses = library.quad_cache_info()
            hits += cell_hits
            misses += cell_misses
    per_layer = tracing.layer_metrics(tracer.spans, (hits, misses), untraced_s)
    tracer.write(RESULTS_DIR / f"spans-{workload}-seed{seed}.jsonl", origin)
    metrics = {k: (v, unit, len(quota)) for k, (v, unit) in per_layer.items()}
    return records, failures, len(quota), metrics, {}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    run = traced if args.trace else measure
    records, failures, attempted, metrics, extra = run(
        args.workload, args.seed, args.seconds)

    import gate

    gate_start = time.perf_counter()
    mismatches = gate.check(records, args.seed)
    gate_s = time.perf_counter() - gate_start
    failed = {**mismatches, **failures}
    for cell_id in sorted(failed)[:20]:
        print(f"# FAILED cell {cell_id}: {failed[cell_id]}")

    print("# env " + json.dumps(environment()))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}, "
          f"output checks took {gate_s:.2f} s")
    for name, (value, unit, count) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} (n={count})")
    for name, row in extra.items():
        print(f"# {name} = " + (f"{row[0]:.6g} {row[1]} (n={row[2]})" if row
                               else "not reported: under ten samples beyond p90"))
    if not args.trace:
        print(f"# cell_fail_frac = {len(failed) / attempted:.6g} ratio (n={attempted})")

    correct = not failed
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        library.load()
    except (library.LibraryMissing, ImportError) as exc:
        print(f"bench: cannot load truncgauss: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
