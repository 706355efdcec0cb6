"""Self-test of the benchmark at tiny sizes (about two minutes on 2 cores).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
for every workload, traced and untraced; that traced work counts repeat
exactly across two traced runs; that the gate has power (amplification_csl
at tolerance 1e-9 must fail and raise criteria_failed_frac above 0); and
that the command fails without printing a result where the package sources
are missing. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import OUT, REPEATING, ROOT, measure
from workloads import WORKLOADS

SEED = 7
TINY = {
    "omega_table": {"cutoff": 10.0, "n_points": 2, "r_max": 5.0},
    "cat_kernel": {"cutoff": 10.0, "peak_separation": 20.0, "horizon": 20.0,
                   "n_steps": 8},
    "csl_unraveling": {"n_traj": 400, "horizon": 1.0},
    "born_rule": {"n_traj": 200},
    "amplification_csl": {"n_traj": 400, "n_values": [1, 2]},
    "delta_metric": {"n_samples": 400, "r_values": [1.0], "horizons": [1.0],
                     "n_steps": 4},
    "nonmarkov_unraveling": {"n_samples": 400},
    "beable_stats": {"n_samples": 400, "n_steps": 4},
    "quartic_reweight": {"n_samples": 4000},
}


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def check_emitted(result: dict, declared: dict, label: str, errors: list):
    emitted = {name: unit for name, (_, unit) in result["metrics"].items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        wrong = sorted(n for n in declared if n in emitted and emitted[n] != declared[n])
        errors.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
    if not result["correct"]:
        errors.append(f"{label}: gate failed: {result['detail']['gate']['messages']}")


def check_bare_directory(errors: list):
    """Only BENCHMARK.json and perfbench/: must fail without a result line."""
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    here = os.path.dirname(os.path.abspath(__file__))
    for name in os.listdir(here):
        if os.path.isfile(os.path.join(here, name)):
            shutil.copy(os.path.join(here, name), os.path.join(bare, "perfbench"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "markov_ensemble",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    errors = []
    end_to_end, per_layer = _declared("end_to_end"), _declared("per_layer")
    for workload in WORKLOADS:
        untraced = measure(workload, SEED, 0, False, TINY)
        check_emitted(untraced, end_to_end, f"{workload} trace 0", errors)
        zero = [n for n, (v, _) in untraced["metrics"].items() if not v > 0]
        if zero:
            errors.append(f"{workload}: end-to-end metrics not positive: {zero}")
        counts = []
        for attempt in (1, 2):
            traced = measure(workload, SEED, 0, True, TINY)
            check_emitted(traced, per_layer, f"{workload} trace 1 #{attempt}", errors)
            counts.append({k: traced["metrics"].get(k, (None,))[0] for k in REPEATING})
        if counts[0] != counts[1]:
            errors.append(f"{workload}: traced counts differ: {counts}")
        print(f"{workload}: checked, counts {counts[0]}")

    forced = dict(TINY, amplification_csl={**TINY["amplification_csl"], "tolerance": 1e-9})
    result = measure("markov_ensemble", SEED, 0, False, forced)
    gate = result["detail"]["gate"]
    if result["correct"] or not gate["criteria_failed_frac"] > 0:
        errors.append(f"forced failure passed silently: {gate}")
    print(f"forced failure: {gate['failed']} of {gate['attempted']} checks failed")

    check_bare_directory(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
