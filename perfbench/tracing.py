"""Span tracing around the public functions of each `collapsemc` layer.

The wrappers live in the benchmark, not in the package: `install` replaces
each traced function in every loaded `collapsemc` module that holds it, so
names imported with `from .x import f` (for example `streams.stream` in `csl`,
`gaussian_field` and `nonmarkov`) are counted where they are looked up.

A span is (name, start, end, parent, work). Spans stay in memory and are
written once, by `Tracer.dump`, when the traced run ends. `work` is a count
derived from the call's arguments, never from its results or timing, so it
repeats exactly across runs of the same workload.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _kernel_entries(args, kwargs):
    """Unique separations × time lags that `pv_kernel_matrix` integrates."""
    import numpy as np
    times = kwargs["times"] if "times" in kwargs else args[1]
    points = kwargs["points"] if "points" in kwargs else args[2]
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rmat = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    return len(np.unique(rmat.round(decimals=12))) * len(times)


def _rows(args, kwargs):
    return int(kwargs["n_samples"] if "n_samples" in kwargs else args[1])


def _traj_steps(args, kwargs):
    scenario = kwargs["scenario"] if "scenario" in kwargs else args[0]
    n_traj = kwargs["n_traj"] if "n_traj" in kwargs else args[1]
    return int(n_traj) * int(scenario.grid.n_steps)


# (module, function, work counter or None); the layer is the module name.
TRACED = (
    ("propagators", "g_t_quadrature", None),
    ("propagators", "pv_kernel_matrix", _kernel_entries),
    ("gaussian_field", "sample_fields", _rows),
    ("gaussian_field", "sample_relation_fields", None),
    ("gaussian_field", "factor_kernel", None),
    ("streams", "stream", None),
    ("nonmarkov", "run_field_ensemble", None),
    ("nonmarkov", "run_pair_ensemble", None),
    ("nonmarkov", "linear_states", None),
    ("nonmarkov", "influence_phase_apply", None),
    ("csl", "run_normalized_ensemble", _traj_steps),
    ("csl", "run_linear_ensemble", _traj_steps),
    ("csl", "amplification_rate", None),
    ("hilbert", "evolve_lindblad", None),
    ("mcstats", "jackknife_statistic", None),
    ("collapse_analysis", "amplification_scan", None),
    ("collapse_analysis", "delta_metric_mc", None),
    ("collapse_analysis", "build_two_point_phase", None),
    ("cli", "run_experiment", None),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TRACED)


class Tracer:
    """In-memory span recorder; spans nest on one thread."""

    def __init__(self):
        self.spans = []          # [name_id, start_ns, end_ns, parent, work]
        self._stack = []

    def wrap(self, name_id: int, func, work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            units = work(args, kwargs) if work is not None else 0
            span = [name_id, clock(), 0, parent, units]
            spans.append(span)
            stack.append(idx)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every traced function wherever a `collapsemc` module holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "collapsemc" or name.startswith("collapsemc.")]
        for name_id, (mod, fn, work) in enumerate(TRACED):
            original = getattr(importlib.import_module(f"collapsemc.{mod}"), fn)
            traced = self.wrap(name_id, original, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"names": SPAN_NAMES, "spans": self.spans}, f,
                      separators=(",", ":"))


def summarize(path) -> dict:
    """Per span name: calls, total and self seconds, summed work."""
    with open(path) as f:
        data = json.load(f)
    names, spans = data["names"], data["spans"]
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0}
           for name in names}
    for i, (name_id, start, end, _, work) in enumerate(spans):
        row = out[names[name_id]]
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += (end - start - child_ns[i]) * 1e-9
        row["work"] += work
    return out
