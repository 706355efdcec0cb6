"""One workload execution in a fresh process.

Started by `run.py` with `src` on PYTHONPATH and BLAS pinned to one thread.
Runs every step of the workload through the public API, times each step, and
prints one JSON line: the wall-clock time at which imports and config
validation were done, per-step seconds, report hashes, criteria verdicts and
the process's peak resident set size.

    python3 perfbench/child.py --workload NAME --seed N
        [--params JSON] [--spans PATH] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time

from collapsemc import cli
from collapsemc import collapse_analysis as ca
from collapsemc import propagators as pg

from workloads import (CAT_KERNEL, CAT_KERNEL_GEOMETRY, CAT_KERNEL_REL_TOL,
                       CAT_KERNEL_SPEC, WORKLOADS, expected_criteria,
                       scenario_config)


def _cat_kernel_inputs(params: dict):
    spec = pg.PropagatorSpec(**{k: params.get(k, v) for k, v in CAT_KERNEL_SPEC.items()})
    geometry = ca.AmplificationGeometry(
        **{k: params.get(k, v) for k, v in CAT_KERNEL_GEOMETRY.items()})
    return spec, geometry


def _run_cat_kernel(params: dict):
    spec, geometry = _cat_kernel_inputs(params)
    scan = ca.amplification_scan(spec, [1], geometry)
    measured = scan.exponents[0]
    target = 2.0 * pg.omega_infinity(spec, geometry.peak_separation)
    rel = abs(measured - target) / abs(target)
    digest = hashlib.sha256(json.dumps([repr(e) for e in scan.exponents]).encode())
    return ([["cat_kernel_vs_2_omega_infinity_rel", bool(rel <= CAT_KERNEL_REL_TOL)]],
            digest.hexdigest(), {"measured": measured, "target": target, "rel": rel})


def build_steps(workload: str, seed: int, overrides: dict) -> list:
    """Validated (kind, config, expected criteria) for every step."""
    steps = []
    for kind in WORKLOADS[workload].steps:
        params = overrides.get(kind, {})
        if kind == CAT_KERNEL:
            _cat_kernel_inputs(params)
            steps.append((kind, params, expected_criteria(kind, params)))
        else:
            cfg = cli.ScenarioConfig.from_dict(scenario_config(kind, seed, params))
            steps.append((kind, cfg, expected_criteria(kind, cfg.params)))
    return steps


def run_steps(steps) -> list:
    out = []
    for kind, cfg, expected in steps:
        row = {"name": kind, "expected": expected, "error": None,
               "criteria": [], "hash": None, "details": {}}
        start = time.perf_counter()
        try:
            if kind == CAT_KERNEL:
                row["criteria"], row["hash"], row["details"] = _run_cat_kernel(cfg)
            else:
                report = cli.run_experiment(cfg)
                row["criteria"] = [[c.name, c.passed] for c in report.criteria]
                row["hash"] = report.hash()
        except Exception as exc:  # a failing step is a gate failure, not a crash
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["seconds"] = time.perf_counter() - start
        out.append(row)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--params", default="{}")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    steps = build_steps(args.workload, args.seed, json.loads(args.params))
    ready = time.time()
    expected = {kind: n for kind, _, n in steps}
    if args.setup_only:
        print(json.dumps({"ready": ready, "expected": expected}))
        return
    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    rows = run_steps(steps)
    if tracer is not None:
        tracer.dump(args.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "expected": expected, "steps": rows,
                      "peak_rss_mb": peak_kb / 1024.0}))


if __name__ == "__main__":
    main()
