"""Workload definitions: which scenarios each workload runs and how they map
onto the benchmark's end-to-end metrics.

A workload is a list of steps. A step is either a `collapsemc run` scenario
kind, run at its default config with the workload seed, or `cat_kernel`, the
single-particle cat-state coherence exponent from
`collapse_analysis.amplification_scan`. Nothing here imports `collapsemc`, so
`run.py` stays free of the package; only `child.py` imports it.
"""

from __future__ import annotations

from typing import NamedTuple

CAT_KERNEL = "cat_kernel"

# cat_kernel is gated against 2·omega_infinity(spec, 40). The finite horizon
# (T = 20) and the sharp momentum cutoff leave a 0.34% residual at the seed
# commit; 1% keeps that residual inside while a wrong kernel falls outside.
CAT_KERNEL_SPEC = {"boson_mass": 1.0, "cutoff": 50.0, "coupling": 1.0}
CAT_KERNEL_GEOMETRY = {"peak_separation": 40.0, "intra_spacing": 6.0,
                       "horizon": 20.0, "n_steps": 16}
CAT_KERNEL_REL_TOL = 0.01


class Workload(NamedTuple):
    """Steps to run, and the steps timed by `primary_s` and `secondary_s`."""

    name: str
    steps: tuple
    primary: tuple
    secondary: tuple


WORKLOADS = {
    w.name: w for w in (
        Workload("propagator_quadrature",
                 steps=("omega_table", CAT_KERNEL),
                 primary=("omega_table",), secondary=(CAT_KERNEL,)),
        Workload("markov_ensemble",
                 steps=("csl_unraveling", "born_rule", "amplification_csl"),
                 primary=("born_rule",), secondary=("amplification_csl",)),
        Workload("field_ensemble",
                 steps=("delta_metric", "nonmarkov_unraveling", "beable_stats",
                        "quartic_reweight"),
                 primary=("delta_metric",),
                 secondary=("nonmarkov_unraveling", "beable_stats",
                            "quartic_reweight")),
    )
}


def scenario_config(kind: str, seed: int, params: dict = None) -> dict:
    """Raw `ScenarioConfig` dict for one scenario step at the workload seed."""
    return {"kind": kind, "seed": int(seed), "params": dict(params or {})}


def expected_criteria(kind: str, params: dict) -> int:
    """Number of criteria a step reports, from its merged parameters.

    A step that raises counts all of these as failed.
    """
    if kind == CAT_KERNEL:
        return 1
    if kind == "amplification_csl":
        return 1 + len(params["n_values"])
    if kind == "delta_metric":
        return len(params["r_values"]) * len(params["horizons"])
    return {"csl_unraveling": 2, "born_rule": 3, "nonmarkov_unraveling": 1,
            "beable_stats": 2, "omega_table": 3, "quartic_reweight": 2}[kind]
