"""Spans around the library's layer entry points, and per-layer metrics.

The traced run replaces each entry point by a wrapper where the calling
module imported it (for example `truncgauss.moments.ball_integral`), so the
library itself is unchanged.  A span records its name, start, end, parent
span and cell id.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the durations of its direct
children; calls on one thread do not overlap, so that is the time its
children cover.  Summed over all spans of a cell, self times add up to the
cell's wall time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

import workloads

CELL = "cell"
# Lanes with x < s + 12 take the incomplete gamma's series branch; the rest
# take the continued fraction.
SERIES_OFFSET = 12.0


def _igamma_attrs(args, result):
    s, x = args[0], np.asarray(args[1])
    return {"points": int(x.size),
            "series": int(np.count_nonzero(x < s + SERIES_OFFSET))}


def _ball_attrs(args, result):
    index, _rho, spectrum = args[:3]
    return {"v": spectrum.v, "index": index.multiplicities}


def _mc_attrs(args, result):
    return {"kept": result.n_kept, "total": result.n_total}


# (calling module, name there, span name, layer, attribute recorder)
ENTRY_POINTS = (
    ("truncgauss.ball", "_lower_incomplete_gamma_vec", "special.igamma",
     "special.igamma", _igamma_attrs),
    ("truncgauss.moments", "ball_integral", "ball.ball_integral",
     "ball.ball_integral", _ball_attrs),
    ("workloads", "ball_integral_mc", "ball.ball_integral_mc", "ball.mc", _mc_attrs),
    ("workloads", "variance_gap_with_error", "moments.variance_gap_with_error",
     "moments", None),
    ("workloads", "conditional_moments", "moments.conditional_moments",
     "moments", None),
    ("workloads", "correlation_set", "moments.correlation_set", "moments", None),
    ("workloads", "convergence_estimate", "expansion.convergence_estimate",
     "expansion.convergence_estimate", None),
    ("workloads", "enumerate_exponents", "xi.enumerate_exponents", "xi", None),
    ("workloads", "gap_limit_coefficient", "xi.gap_limit_coefficient", "xi", None),
    ("workloads", "omega", "xi.omega", "xi", None),
)
LAYER = {name: layer for _m, _a, name, layer, _r in ENTRY_POINTS}
LAYER[CELL] = CELL


class Tracer:
    """In-memory span recorder; install() wraps the entry points."""

    def __init__(self):
        # [name, start, end, parent, cell, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.cell = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.cell, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, attrs):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if attrs is not None:
                tracer.spans[idx][5] = attrs(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, _layer, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue  # a later version dropped this entry point
            setattr(module, attr, self._wrap(fn, name, attrs))
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def run_cell(self, cell_id: int, cell):
        self.cell = cell_id
        idx = self.begin(CELL)
        try:
            return workloads.run_cell(cell)
        finally:
            self.end(idx)
            self.cell = -1

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, cell, attrs in self.spans:
                row = {"name": name, "start": start - origin, "end": end - origin,
                       "parent": parent, "cell": cell}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, quad_delta: tuple[int, int], untraced_wall_s: float):
    """Per-layer metrics {name: (value, unit)} from one traced pass."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        layer = LAYER[s[0]]
        self_s[layer] += dur[i] - child[i]
        # calls into a layer from outside it, so nested same-layer calls count once
        if s[3] < 0 or LAYER[spans[s[3]][0]] != layer:
            calls[layer] += 1

    points = series = mc_kept = mc_total = tails = 0
    mc_time = cp_time = 0.0
    by_v = {v: [0, 0.0] for v in (2, 3, 4)}
    moment_cells = set()
    ball_in_moments = defaultdict(list)
    for i, s in enumerate(spans):
        name, attrs = s[0], s[5]
        if name == "special.igamma":
            points += attrs["points"]
            series += attrs["series"]
        elif name == "ball.ball_integral":
            if attrs["v"] in by_v:
                by_v[attrs["v"]][0] += 1
                by_v[attrs["v"]][1] += dur[i]
            if s[3] >= 0 and LAYER[spans[s[3]][0]] == "moments":
                ball_in_moments[s[4]].append(attrs["index"])
        elif name == "ball.ball_integral_mc":
            mc_kept += attrs["kept"]
            mc_total += attrs["total"]
            mc_time += dur[i]
        elif name == "expansion.convergence_estimate":
            cp_time += dur[i]
        elif name == "xi.gap_limit_coefficient":
            tails += 1
        if LAYER[name] == "moments":
            moment_cells.add(s[4])

    ball_calls = sum(len(v) for v in ball_in_moments.values())
    distinct = sum(len(set(v)) for v in ball_in_moments.values())
    hits, misses = quad_delta
    wall = sum(dur[i] for i, s in enumerate(spans) if s[0] == CELL)
    ms = 1e3
    out = {
        "special.igamma.calls": (calls["special.igamma"], "count"),
        "special.igamma.points": (points, "count"),
        "special.igamma.series_frac": (_ratio(series, points), "ratio"),
        "special.igamma.self_ms": (self_s["special.igamma"] * ms, "ms"),
        "special.igamma.ns_per_point": (_ratio(self_s["special.igamma"] * 1e9, points), "ns"),
        "ball.ball_integral.calls": (calls["ball.ball_integral"], "count"),
        "ball.ball_integral.self_ms": (self_s["ball.ball_integral"] * ms, "ms"),
    }
    for v, (count, total) in by_v.items():
        out[f"ball.ball_integral.v{v}.ms_per_call"] = (_ratio(total * ms, count), "ms")
    out.update({
        "ball.quad_cache.hits": (hits, "count"),
        "ball.quad_cache.misses": (misses, "count"),
        "ball.quad_cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "ball.mc.calls": (calls["ball.mc"], "count"),
        "ball.mc.self_ms": (self_s["ball.mc"] * ms, "ms"),
        "ball.mc.samples_per_s": (_ratio(mc_total, mc_time), "1/s"),
        "ball.mc.accept_ratio": (_ratio(mc_kept, mc_total), "ratio"),
        "moments.calls": (calls["moments"], "count"),
        "moments.self_ms": (self_s["moments"] * ms, "ms"),
        "moments.ball_calls_per_cell": (_ratio(ball_calls, len(moment_cells)), "count"),
        "moments.distinct_index_ratio": (_ratio(distinct, ball_calls), "ratio"),
        "expansion.convergence_estimate.calls":
            (calls["expansion.convergence_estimate"], "count"),
        "expansion.convergence_estimate.self_ms":
            (self_s["expansion.convergence_estimate"] * ms, "ms"),
        "expansion.convergence_estimate.ms_per_call":
            (_ratio(cp_time * ms, calls["expansion.convergence_estimate"]), "ms"),
        "xi.calls": (calls["xi"], "count"),
        "xi.self_ms": (self_s["xi"] * ms, "ms"),
        "xi.tails": (tails, "count"),
        "cell.calls": (calls[CELL], "count"),
        "cell.self_ms": (self_s[CELL] * ms, "ms"),
        "cell.wall_ms": (wall * ms, "ms"),
        "trace.overhead_frac": (_ratio(wall, untraced_wall_s) - 1.0, "ratio"),
    })
    return out

