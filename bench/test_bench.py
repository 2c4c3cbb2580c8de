"""Smoke tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They run each workload for a fraction of a second, so they check the
harness, not the library's speed.
"""

from __future__ import annotations

import functools
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import library  # noqa: E402

library.load()

import gate  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def invoke(workload: str, trace: int, seed: int = 5) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "lines": lines}


run = functools.cache(invoke)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    out = run(workload, trace)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        text = "\n".join(out["lines"])
        assert "# cell_fail_frac = 0 ratio" in text
        assert "# cell_p90_ms = " in text


@pytest.mark.parametrize("workload", ["gap-sweep", "oracles"])
def test_counts_repeat_exactly(workload):
    first = run(workload, 1)["result"]["metrics"]
    second = invoke(workload, 1)["result"]["metrics"]
    assert {k: first[k]["value"] for k in COUNT_METRICS} == \
        {k: second[k]["value"] for k in COUNT_METRICS}


def test_self_times_add_up_to_cell_wall():
    metrics = run("gap-sweep", 1)["result"]["metrics"]
    parts = sum(v["value"] for k, v in metrics.items()
                if k.endswith(".self_ms"))
    wall = metrics["cell.wall_ms"]["value"]
    assert parts == pytest.approx(wall, rel=1e-9)


def _one(kind, workload, seed=3):
    return next(c for c in workloads.cells(workload, seed) if c.kind == kind and
                (kind != "gap" or c.spectrum.v == 2))


def test_gate_accepts_then_rejects_perturbed_gap():
    cell = _one("gap", "gap-sweep")
    out = workloads.run_cell(cell)
    assert gate.check([(0, cell, out)], seed=1) == {}
    (gap, err), *rest = out
    bad = ((gap + 1e-6 * abs(gap), err), *rest)
    assert 0 in gate.check([(0, cell, bad)], seed=1)


def test_gate_rejects_perturbed_monte_carlo_cell():
    cell = _one("mc", "oracles")
    est = workloads.run_cell(cell)
    assert gate.check([(0, cell, est)], seed=1) == {}
    shifted = est.__class__(est.mean + 8 * est.std_error, est.std_error,
                            est.n_kept, est.n_total, est.seed)
    assert 0 in gate.check([(0, cell, shifted)], seed=1)


def test_gate_rejects_perturbed_exact_coefficient():
    cell = workloads.Cell("xi", order=4)
    out = workloads.run_cell(cell)
    assert gate.check([(0, cell, out)], seed=1) == {}
    tail, coeff, om0, om1 = out[0]
    bad = ((tail, coeff + 1, om0, om1), *out[1:])
    assert 0 in gate.check([(0, cell, bad)], seed=1)


def test_gate_rejects_inconsistent_correlation_set():
    cell = workloads.Cell("moments", workloads.Spectrum((0.5, 0.8, 1.3, 2.0)), rho=2.0)
    mom, cors = workloads.run_cell(cell)
    assert gate.moments_consistency(cell, (mom, cors)) <= gate.EXACT_REL_TOL
    delta = (cors.delta[0] * (1 + 1e-6),) + cors.delta[1:]
    bad = cors.__class__(cors.gamma, delta)
    assert 0 in gate.check([(0, cell, (mom, bad))], seed=1)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gap-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_inputs_follow_the_seed():
    def head(seed):
        return list(itertools.islice(workloads.cells("moments-v4", seed), 12))

    first = head(9)
    assert first == head(9) and first != head(10)
    assert len({c.rho for c in first}) == len(first)
