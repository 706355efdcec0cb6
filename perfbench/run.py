"""collapsemc benchmark: time to a verified verdict, end to end and per layer.

Each workload is a set of `collapsemc run` scenarios (see workloads.py). Every
execution of a workload is a fresh process (child.py) with BLAS pinned to
one thread, so users' import cost is paid each time and no in-process cache
carries over. Every execution is gated: all criteria must pass, cat_kernel
must match its closed form, and the report hashes must reproduce.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

With --trace 0 the untraced workload is executed until --seconds have passed
(at least once) and the end-to-end metrics are medians over executions;
setup_s is the median set-up time of the executions and of set-up-only
processes, at least three in all. With --trace 1 one untraced and one traced
execution give the per-layer metrics from spans.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Results, spans and the
machine block are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from machine import environment, source_digest
from tracing import SPAN_NAMES, summarize
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
CHILD = os.path.join(BENCH, "child.py")
STATE = os.path.join(OUT, "state.json")

BLAS_THREADS = 1
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
EXECUTION_TIMEOUT_S = 150

# per-layer: span names reporting call counts besides self time
COUNTED = ("propagators.g_t_quadrature", "propagators.pv_kernel_matrix",
           "gaussian_field.sample_fields", "gaussian_field.sample_relation_fields",
           "gaussian_field.factor_kernel", "streams.stream",
           "hilbert.evolve_lindblad", "mcstats.jackknife_statistic")
# per-layer counts that must repeat exactly between traced runs
REPEATING = tuple(f"{n}.calls" for n in COUNTED) + (
    "propagators.kernel_entries", "gaussian_field.sample_fields.rows",
    "csl.traj_steps")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, timeout):
    """Run child.py to completion; (wall seconds, set-up seconds, its JSON line).

    Set-up is the time from spawning to the child's report that imports and
    config validation are done.
    """
    spawned = time.time()
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {timeout} s") from exc
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return wall, result["ready"] - spawned, result


def _load_state() -> dict:
    try:
        with open(STATE) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return {"hashes": {}, "counts": {}}


def _save_state(state: dict):
    tmp = STATE + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, STATE)


class Gate:
    """Counts checks attempted and failed over every execution of a run.

    Per execution: each criterion of each step (a step that raised fails all
    of its criteria) plus one check that the combined report hash equals the
    first one recorded for this code, workload, seed and parameters.
    """

    def __init__(self, expected: dict, reference_key: str, state: dict):
        self.expected = expected
        self.key = reference_key
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def execution(self, result):
        self.attempted += sum(self.expected.values()) + 1
        if isinstance(result, ChildFailed):
            self.failed += sum(self.expected.values()) + 1
            self.messages.append(f"execution failed: {result}")
            return
        for step in result["steps"]:
            expected = self.expected[step["name"]]
            if step["error"]:
                self.failed += expected
                self.messages.append(f"{step['name']} raised {step['error']}")
                continue
            bad = [name for name, ok in step["criteria"] if not ok]
            self.failed += len(bad) + max(0, expected - len(step["criteria"]))
            self.messages += [f"{step['name']}: criterion {n} failed" for n in bad]
        digest = hashlib.sha256(
            "".join(str(s["hash"]) for s in result["steps"]).encode()).hexdigest()
        reference = self.state["hashes"].setdefault(self.key, digest)
        if digest != reference:
            self.failed += 1
            self.messages.append(f"report hash {digest[:16]} differs from "
                                 f"{reference[:16]} recorded for this seed")

    def check_counts(self, key: str, counts: dict):
        self.attempted += 1
        reference = self.state["counts"].setdefault(key, counts)
        if counts != reference:
            self.failed += 1
            diff = sorted(k for k in counts if counts[k] != reference.get(k))
            self.messages.append(f"traced counts differ from the first traced run: {diff}")

    @property
    def frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _step_seconds(results, names) -> float:
    """Median over executions of the summed seconds of the named steps."""
    totals = [sum(s["seconds"] for s in r["steps"] if s["name"] in names)
              for r in results]
    return statistics.median(totals)


def layer_metrics(summary: dict) -> dict:
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = (summary[name]["self_s"], "s")
    for name in COUNTED:
        m[f"{name}.calls"] = (summary[name]["calls"], "count")
    pv = summary["propagators.pv_kernel_matrix"]
    m["propagators.kernel_entries"] = (pv["work"], "count")
    m["propagators.ns_per_kernel_entry"] = (
        pv["total_s"] * 1e9 / pv["work"] if pv["work"] else 0.0, "ns")
    sf = summary["gaussian_field.sample_fields"]
    m["gaussian_field.sample_fields.rows"] = (sf["work"], "count")
    m["gaussian_field.sample_fields.rows_per_call"] = (
        sf["work"] / sf["calls"] if sf["calls"] else 0.0, "rows/call")
    ens = [summary["csl.run_normalized_ensemble"], summary["csl.run_linear_ensemble"]]
    steps = sum(e["work"] for e in ens)
    m["csl.traj_steps"] = (steps, "count")
    m["csl.ns_per_traj_step"] = (
        sum(e["total_s"] for e in ens) * 1e9 / steps if steps else 0.0, "ns")
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool,
            overrides: dict = None) -> dict:
    """Run one workload; metrics as {name: (value, unit)} plus gate and detail."""
    os.makedirs(OUT, exist_ok=True)
    params = json.dumps(overrides or {}, sort_keys=True)
    params_id = hashlib.sha256(params.encode()).hexdigest()[:12]
    code = source_digest(ROOT)
    args = ["--workload", workload, "--seed", str(seed), "--params", params]
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")

    outcomes, walls, setups, results = [], [], [], []

    def execute(extra=()):
        try:
            wall, setup, result = spawn(args + list(extra), EXECUTION_TIMEOUT_S)
        except ChildFailed as exc:
            outcomes.append(exc)
            return None
        outcomes.append(result)
        walls.append(wall)
        setups.append(setup)
        results.append(result)
        return wall

    if trace:
        untraced = execute()
        traced = execute(["--spans", spans_path])
    else:
        start = time.perf_counter()
        while execute() is not None and time.perf_counter() - start < seconds:
            pass
    # set-up probes top the samples up; they also give the criteria counts
    # when no execution finished
    expected = results[0]["expected"] if results else None
    while expected is None or (not trace and len(setups) < SETUP_SAMPLES):
        _, setup, probe = spawn(args + ["--setup-only"], SETUP_TIMEOUT_S)
        setups.append(setup)
        expected = expected or probe["expected"]

    state = _load_state()
    gate = Gate(expected, f"{code}/{workload}/{seed}/{params_id}", state)
    for outcome in outcomes:
        gate.execution(outcome)

    metrics = {}
    detail = {"workload": workload, "seed": seed, "trace": int(trace),
              "params": overrides or {}}
    if trace:
        if untraced is not None and traced is not None:
            summary = summarize(spans_path)
            metrics = layer_metrics(summary)
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            gate.check_counts(f"{code}/{workload}/{params_id}",
                              {k: metrics[k][0] for k in REPEATING})
            detail["spans"] = os.path.relpath(spans_path, ROOT)
            detail["span_summary"] = summary
        metrics["criteria_failed_frac"] = (gate.frac, "ratio")
    elif results:
        w = WORKLOADS[workload]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
            "primary_s": (_step_seconds(results, w.primary), "s"),
            "secondary_s": (_step_seconds(results, w.secondary), "s"),
        }
    _save_state(state)

    detail.update({
        "executions": len(outcomes), "setups_s": setups, "walls_s": walls,
        "step_seconds": {name: statistics.median(
            [s["seconds"] for r in results for s in r["steps"] if s["name"] == name])
            for name in WORKLOADS[workload].steps} if results else {},
        "gate": {"attempted": gate.attempted, "failed": gate.failed,
                 "criteria_failed_frac": gate.frac, "messages": gate.messages},
        "cat_kernel": next((s["details"] for r in results[:1] for s in r["steps"]
                            if s["details"]), None),
    })
    return {"correct": gate.failed == 0 and bool(results), "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics, "detail": detail}


def report(result: dict, env: dict):
    d = result["detail"]
    print(f"== {d['workload']}  seed {d['seed']}  trace {d['trace']}  "
          f"executions {d['executions']}  blas_threads {env['blas_threads']}")
    rows = result["metrics"].items()
    for name, (value, unit) in sorted(rows) if d["trace"] else rows:
        print(f"  {name:48s} {value:14.6g} {unit}")
    for name, value in d["step_seconds"].items():
        print(f"  scenario {name + '_s':39s} {value:14.6g} s")
    g = d["gate"]
    verdict = "PASS" if result["correct"] else "FAIL"
    print(f"  gate {verdict}: {g['failed']} of {g['attempted']} checks failed, "
          f"criteria_failed_frac {g['criteria_failed_frac']:.4g}")
    for msg in g["messages"]:
        print(f"    {msg}")


def _default_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return int(json.load(f)["run_seconds"])


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=_nonnegative, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "collapsemc")):
        print(f"no collapsemc sources under {ROOT}/src", file=sys.stderr)
        return 2
    seconds = _default_seconds() if args.seconds is None else args.seconds

    env = environment(ROOT, child_env(), args.seed, BLAS_THREADS)
    print("machine: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = measure(name, args.seed, seconds, bool(args.trace))
        result["detail"]["environment"] = env
        path = os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
        report(result, env)
        results[name] = result

    prefix = len(results) > 1
    metrics = {(f"{name}." if prefix else "") + k: {"value": v, "unit": u}
               for name, r in results.items() for k, (v, u) in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
