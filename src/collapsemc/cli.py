"""Reproducible experiment runner and report emitter.

Scenarios are described by versioned JSON configs; every run is a pure
function of (config, master seed) and the report hash covers every numeric
output, so re-running a config reproduces the hash bit for bit. Wall time
is recorded but excluded from the hash. Every scenario runner returns
(criteria, tables); each table is a list of rows with the same keys.
"""

from __future__ import annotations

import argparse
import csv as _csv
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import collapse_analysis as ca
from . import csl as _csl
from . import gaussian_field as gf
from . import nonmarkov as nm
from . import propagators as pg
from .errors import CollapseMcError, ConfigError
from .hilbert import (CslParams, DensityMatrix, LatticeGrid, evolve_lindblad,
                      hopping_hamiltonian, point_mass_ops)
from .mcstats import block_sums, chi2_pvalue, jackknife_statistic, mean_se
from .workers import in_workers

SCHEMA_VERSION = 1
ENV_OUTPUT_DIR = "COLLAPSEMC_OUT"


@dataclass
class ScenarioConfig:
    kind: str
    seed: int
    params: dict = field(default_factory=dict)
    output_dir: str = None
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}", field="<file>")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object", field="<root>")
        known = {f.name for f in fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}", field=str(key))
        version = raw.get("schema_version", SCHEMA_VERSION)
        # `true` and `1.0` equal 1 but would enter the hash as written
        if (not isinstance(version, int) or isinstance(version, bool)
                or version != SCHEMA_VERSION):
            raise ConfigError(f"unsupported schema_version {version!r}",
                              field="schema_version")
        kind = raw.get("kind")
        if not isinstance(kind, str) or kind not in _PARAM_SPECS:
            raise ConfigError(f"unknown scenario kind {kind!r}", field="kind")
        seed = raw.get("seed")
        # below 2**63, so that the runners' seed + n offsets stay in the
        # 64-bit key of streams.stream
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 1 << 63:
            raise ConfigError("seed must be an integer in [0, 2**63) (no wall-clock "
                              "seeding)", field="seed")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object", field="params")
        output_dir = raw.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigError("output_dir must be a string or null", field="output_dir")
        cfg = cls(kind=kind, seed=seed, params=dict(params),
                  output_dir=output_dir, schema_version=version)
        _validate_params(cfg)
        return cfg

    def physics_dict(self) -> dict:
        """Every field that affects numeric output (paths excluded)."""
        return {"schema_version": self.schema_version, "kind": self.kind,
                "seed": self.seed, "params": _canonical(self.params)}

    def hash(self) -> str:
        blob = json.dumps(self.physics_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


_PARAM_SPECS = {
    "csl_unraveling": {"gamma": 0.1, "mass": 1.0, "spacing": 1.0, "hop": 0.3,
                       "horizon": 5.0, "dt": 0.02, "n_traj": 10000},
    "born_rule": {"gamma": 0.1, "mass": 1.0, "spacing": 1.0, "p_left": 0.3,
                  "horizon_rates": 8.0, "n_traj": 10000},
    "amplification_csl": {"gamma": 0.02, "mass": 1.0, "sigma": 1.0,
                          "separation": 6.0, "n_values": [1, 2, 3],
                          "n_traj": 4000, "tolerance": 0.10},
    "nonmarkov_unraveling": {"boson_mass": 1.0, "cutoff": 10.0, "coupling": 2.0,
                             "r": 1.0, "horizon": 1.6, "n_steps": 8,
                             "n_samples": 10000},
    "beable_stats": {"boson_mass": 1.0, "cutoff": 10.0, "coupling": 1.5,
                     "r": 1.0, "horizon": 2.0, "n_steps": 16,
                     "n_samples": 4000},
    "omega_table": {"boson_mass": 1.0, "coupling": 1.0, "cutoff": 100.0,
                    "r_min": 0.5, "r_max": 50.0, "n_points": 9},
    "delta_metric": {"boson_mass": 1.0, "cutoff": 5.0, "coupling": 1.0,
                     "r_values": [0.5, 1.0, 2.0], "horizons": [1.0, 2.0, 4.0],
                     "n_steps": 16, "n_samples": 10000},
    "quartic_reweight": {"n_points": 8, "epsilon": 0.02, "n_samples": 200000,
                         "fd_delta": 0.01},
}

_NUMERIC = (int, float)
_POSITIVE = ("mass", "sigma", "spacing", "horizon", "horizon_rates", "dt", "boson_mass",
             "cutoff", "r", "r_values", "separation", "r_min", "r_max", "epsilon",
             "tolerance")
_NON_NEGATIVE = ("coupling", "horizons")
# with no collapse there is no outcome to count and no rate to fit
_POSITIVE_GAMMA = ("born_rule", "amplification_csl")


def _require(ok: bool, key: str, message: str):
    if not ok:
        raise ConfigError(f"{key} {message}", field=f"params.{key}")


def _validate_params(cfg: ScenarioConfig):
    """Merge defaults into cfg.params and reject, naming the field, any
    value the scenario cannot run with."""
    allowed = _PARAM_SPECS[cfg.kind]
    for key in cfg.params:
        if key not in allowed:
            raise ConfigError(f"unknown parameter {key!r} for {cfg.kind}",
                              field=f"params.{key}")
    merged = dict(allowed)
    merged.update(cfg.params)
    for key, value in merged.items():
        default, items = allowed[key], [value]
        if isinstance(default, list):
            _require(isinstance(value, (list, tuple)) and len(value) > 0, key,
                     "must be a non-empty list")
            default, items = default[0], value
        for v in items:
            if isinstance(default, int):
                _require(isinstance(v, int) and not isinstance(v, bool), key,
                         "must be an integer")
            else:
                _require(isinstance(v, _NUMERIC) and not isinstance(v, bool), key,
                         "must be numeric")
            # JSON reads Infinity and NaN, which pass every sign check below
            _require(not isinstance(v, float) or math.isfinite(v), key, "must be finite")
            if key == "gamma" and cfg.kind in _POSITIVE_GAMMA:
                _require(v > 0, key, "must be positive")
            elif key == "gamma" or key in _NON_NEGATIVE:
                _require(v >= 0, key, "must be non-negative")
            elif key in _POSITIVE:
                _require(v > 0, key, "must be positive")
            elif key == "p_left":
                _require(0.0 < v < 1.0, key, "must lie in (0, 1)")
            elif key == "fd_delta":
                _require(v != 0, key, "must be non-zero")
            elif isinstance(default, int):
                _require(v >= 1, key, "must be at least 1")
    if "cutoff" in merged:
        _require(merged["cutoff"] > merged["boson_mass"], "cutoff", "must exceed boson_mass")
    if cfg.kind == "amplification_csl":
        _require(merged["separation"] >= 5.0 * merged["sigma"], "separation",
                 "must be at least 5 sigma")
        _require(merged["n_values"][0] == 1, "n_values",
                 "must start with 1 (the rates are ratios to N = 1)")
    if cfg.kind == "csl_unraveling":
        _require(int(round(merged["horizon"] / merged["dt"])) >= 1, "horizon",
                 "must be at least dt/2 (one step)")
    cfg.params = merged


@dataclass
class CriterionResult:
    name: str
    measured: float
    target: float
    tolerance: float
    se: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class RunReport:
    scenario: str
    config_hash: str
    criteria: list
    tables: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def numeric_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config_hash": self.config_hash,
            "criteria": [_canonical(asdict(c)) for c in self.criteria],
            "tables": _canonical(self.tables),
        }

    def hash(self) -> str:
        blob = json.dumps(self.numeric_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _criterion(name, measured, target, tolerance, se=0.0, details=None):
    measured = float(measured)
    target = float(target)
    passed = abs(measured - target) <= tolerance
    return CriterionResult(name=name, measured=measured, target=target,
                           tolerance=float(tolerance), se=float(se),
                           passed=bool(passed), details=details or {})


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------

def _run_csl_unraveling(cfg: ScenarioConfig) -> tuple:
    p = cfg.params
    n_steps = int(round(p["horizon"] / p["dt"]))
    grid = LatticeGrid.line(2, p["spacing"], p["dt"], n_steps)
    params = CslParams(gamma=p["gamma"], sigma=1.0, masses=(p["mass"],))
    ops = point_mass_ops(grid, p["mass"])
    h0 = hopping_hamiltonian(grid, p["hop"]) if p["hop"] else None
    psi0 = np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=complex)
    scenario = _csl.CslScenario(grid=grid, params=params, mass_ops=ops,
                                psi0=psi0, h0=h0,
                                record_stride=max(1, n_steps // 25))
    stats = _csl.run_linear_ensemble(scenario, int(p["n_traj"]), cfg.seed)
    target = evolve_lindblad(DensityMatrix(np.outer(psi0, psi0.conj())), h0,
                             ops, p["gamma"], p["horizon"],
                             volume_element=grid.volume_element)
    td, se = stats.trace_distance_to(target)
    wmean, wse = mean_se(stats.weights)
    return [
        _criterion("markovian_unraveling_trace_distance", td, 0.0, 3.0 * se, se,
                   {"n_traj": int(p["n_traj"]), "jackknife_se": se}),
        _criterion("girsanov_weight_mean", wmean, 1.0, 3.0 * wse, wse),
    ], {}


def _run_born_rule(cfg: ScenarioConfig) -> tuple:
    p = cfg.params
    params = CslParams(gamma=p["gamma"], sigma=1.0, masses=(p["mass"],))
    rate = p["gamma"] * p["mass"] ** 2 * p["spacing"] ** 3
    dt = _csl.DT_STABILITY_TARGET / rate
    n_steps = int(np.ceil(p["horizon_rates"] / rate / dt))
    grid = LatticeGrid.line(2, p["spacing"], dt, n_steps)
    ops = point_mass_ops(grid, p["mass"])
    p_left = float(p["p_left"])
    psi0 = np.array([np.sqrt(p_left), np.sqrt(1.0 - p_left)], dtype=complex)
    scenario = _csl.CslScenario(grid=grid, params=params, mass_ops=ops,
                                psi0=psi0, record_stride=max(1, n_steps // 20))
    n_traj = int(p["n_traj"])
    stats = _csl.run_normalized_ensemble(scenario, n_traj, cfg.seed,
                                         probe_sites=(0,))
    sites = stats.collapse_sites
    resolved = sites >= 0
    n_resolved = int(resolved.sum())
    counts = np.array([(sites == 0).sum(), (sites == 1).sum()], dtype=float)
    freq = counts[0] / max(n_resolved, 1)
    se = float(np.sqrt(max(freq * (1 - freq), 1e-12) / max(n_resolved, 1)))
    pval = chi2_pvalue(counts, np.array([p_left, 1 - p_left]))
    m_initial = p_left * p["mass"]
    mart = _csl.martingale_check(stats, probe_index=0, initial=m_initial)
    crits = [
        _criterion("born_rule_frequency", freq, p_left, 3.0 * se, se,
                   {"n_resolved": n_resolved, "unresolved": int(n_traj - n_resolved)}),
        CriterionResult(name="born_rule_chi2_pvalue", measured=float(pval),
                        target=1.0, tolerance=0.99, se=0.0,
                        passed=bool(pval >= 0.01),
                        details={"counts": counts.tolist()}),
        CriterionResult(name="martingale_deviation_se", measured=mart.max_deviation_in_se,
                        target=0.0, tolerance=3.0, se=0.0, passed=mart.passed,
                        details={"recorded_times": mart.times.tolist(),
                                 "norm_drift": stats.max_norm_drift}),
    ]
    return crits, {}


def _run_amplification_csl(cfg: ScenarioConfig) -> tuple:
    p = cfg.params
    sigma = p["sigma"]
    sep = p["separation"]
    params = CslParams(gamma=p["gamma"], sigma=sigma, masses=(p["mass"],))
    spacing = sigma
    n_sites = int(np.ceil(sep / spacing)) + 7
    grid = LatticeGrid.line(n_sites, spacing, 1.0, 1)
    offset = 3 * spacing
    left = np.array([offset, 0.0, 0.0])
    right = np.array([offset + sep, 0.0, 0.0])
    fits = {}
    for n in p["n_values"]:
        spec = _csl.CatStateSpec(n_particles=int(n), site_left=left, site_right=right)
        fits[int(n)] = _csl.amplification_rate(spec, params, grid,
                                               n_traj=int(p["n_traj"]),
                                               master_seed=cfg.seed + int(n))
    base = fits[int(p["n_values"][0])].rate
    crits = []
    spec1 = _csl.CatStateSpec(n_particles=1, site_left=left, site_right=right)
    analytic1 = _csl.cat_decoherence_rate(grid, spec1, params)
    crits.append(_criterion("csl_amplification_rate_N1_vs_analytic",
                            fits[1].rate / analytic1, 1.0, p["tolerance"],
                            details={"rate": fits[1].rate, "analytic": analytic1}))
    for n in p["n_values"]:
        n = int(n)
        ratio = fits[n].rate / base
        crits.append(_criterion(f"csl_amplification_ratio_N{n}", ratio,
                                float(n * n), p["tolerance"] * n * n,
                                details={"rate": fits[n].rate,
                                         "r_squared": fits[n].r_squared}))
    return crits, {}


def _nonmarkov_setup(p):
    spec = pg.PropagatorSpec(boson_mass=p["boson_mass"], cutoff=p["cutoff"],
                             coupling=p["coupling"])
    return ca.build_two_point_phase(spec, p["r"], p["horizon"], int(p["n_steps"]))


def _run_nonmarkov_unraveling(cfg: ScenarioConfig) -> tuple:
    p = cfg.params
    phase, factor = _nonmarkov_setup(p)
    psi0 = np.array([np.sqrt(0.4), np.sqrt(0.6)], dtype=complex)
    stats = nm.run_pair_ensemble(phase, factor, psi0, int(p["n_samples"]), cfg.seed)
    oracle = nm.influence_phase_apply(phase, DensityMatrix(np.outer(psi0, psi0.conj())))
    td, se = stats.trace_distance_to(oracle)
    return [_criterion("nonmarkov_unraveling_trace_distance", td, 0.0, 3.0 * se, se,
                       {"clipped_mass": stats.clipped_mass,
                        "n_samples": int(p["n_samples"])})], {}


def _run_beable_stats(cfg: ScenarioConfig) -> tuple:
    """Two criteria. `girsanov_weight_mean` checks E₀[w] = 1, the physical
    measure's normalization. `beable_shift_quadrature_rel_err` compares
    `nm.beable_shift` on a frozen eigenstate, one matrix product
    (`1j * jbar @ d.T`), with the same sum written as a loop below: it
    checks one form of the product against another and tests nothing
    physical, so a wrong sign, kernel or weight passes it."""
    p = cfg.params
    phase, factor = _nonmarkov_setup(p)
    psi0 = np.array([np.sqrt(0.4), np.sqrt(0.6)], dtype=complex)
    ens = nm.run_field_ensemble(phase, factor, psi0, int(p["n_samples"]), cfg.seed)
    cooked = nm.cooked_ensemble(phase, ens)
    wmean, wse = cooked.weight_mean_se()

    # frozen eigenstate: constant <j> makes the shift a pure kernel quadrature
    eigen = np.zeros((phase.n_steps + 1, phase.dim), dtype=complex)
    eigen[:, 0] = 1.0
    shift = nm.beable_shift(eigen, phase)
    j = phase.sources()
    direct = np.zeros(phase.kernel.n_points, dtype=complex)
    d = phase.kernel.gamma
    for q in range(phase.kernel.n_points):
        direct += 1j * d[:, q] * j[0, q]
    num = float(np.abs(shift - direct).max())
    den = float(np.abs(direct).max())
    rel = num / den if den > 0 else 0.0
    return [
        _criterion("girsanov_weight_mean", wmean, 1.0, 3.0 * wse, wse,
                   {"n_samples": int(p["n_samples"])}),
        _criterion("beable_shift_quadrature_rel_err", rel, 0.0, 1e-8),
    ], {}


def _run_omega_table(cfg: ScenarioConfig) -> tuple:
    p = cfg.params
    g = p["coupling"]
    spec = pg.PropagatorSpec(boson_mass=p["boson_mass"], cutoff=p["cutoff"],
                             coupling=g)
    mb = p["boson_mass"]

    quad = pg.omega_from_quadrature(spec, 10.0 / mb, 200.0 / mb)
    closed = pg.omega_infinity(spec, 10.0 / mb)
    rel1 = abs(quad - closed) / abs(closed)

    plateau_spec = pg.PropagatorSpec(boson_mass=mb, cutoff=100.0 * mb, coupling=1.0)
    plateau = pg.omega_infinity(plateau_spec, 100.0 / mb)
    plateau_target = -np.log(100.0) / (2.0 * np.pi) ** 2
    rel2 = abs(plateau - plateau_target) / abs(plateau_target)

    mid_spec = pg.PropagatorSpec(boson_mass=mb, cutoff=1e4 * mb, coupling=g)
    r_mid = 0.05 / mb
    mid = pg.omega_infinity(mid_spec, r_mid)
    mid_target = -(g * g / (2.0 * np.pi) ** 2) * np.log(r_mid * mid_spec.cutoff)
    rel3 = abs(mid - mid_target) / abs(mid_target)

    r_grid = np.geomspace(p["r_min"], p["r_max"], int(p["n_points"])) / mb
    table = pg.tabulate_omega(spec, r_grid, horizon=100.0 / mb)

    crits = [
        _criterion("omega_quadrature_vs_closed_form_rel", rel1, 0.0, 0.01,
                   details={"quadrature": quad, "closed_form": closed}),
        _criterion("omega_plateau_value_rel", rel2, 0.0, 0.005,
                   details={"value": plateau, "target": float(plateau_target)}),
        _criterion("omega_midregime_log_law_rel", rel3, 0.0, 0.02,
                   details={"value": mid, "target": float(mid_target), "r": r_mid}),
    ]
    return crits, {"omega_table": table}


def _delta_cells(spec: pg.PropagatorSpec, p: dict, seed: int, cells) -> list:
    """(seed offset, `delta_metric_mc` result) for each cell (seed offset,
    r, T) of `cells`."""
    mb = p["boson_mass"]
    return [(offset, ca.delta_metric_mc(spec, float(r) / mb, float(t) / mb,
                                        int(p["n_samples"]), int(p["n_steps"]),
                                        master_seed=seed + offset))
            for offset, r, t in cells]


def _run_delta_metric(cfg: ScenarioConfig) -> tuple:
    """One criterion per (r, T) cell, cell k (counted from 1) seeded with
    seed + k. The cells are dealt over every core (`workers.in_workers`); a
    cell's numbers do not depend on the process that computes them, so
    results do not depend on the worker count."""
    p = cfg.params
    spec = pg.PropagatorSpec(boson_mass=p["boson_mass"], cutoff=p["cutoff"],
                             coupling=p["coupling"])
    cells = [(offset, r, t) for offset, (r, t) in
             enumerate(itertools.product(p["r_values"], p["horizons"]), start=1)]
    results = dict(pair for share in in_workers(partial(_delta_cells, spec, p, cfg.seed),
                                                cells)
                   for pair in share)
    crits, rows = [], []
    for offset, r, t in cells:
        res = results[offset]
        crits.append(_criterion(
            f"delta_metric_r{r}_t{t}", res.delta_mc, res.delta_analytic,
            3.0 * res.delta_se, res.delta_se,
            {"omega": res.omega, "omega_lattice": res.omega_lattice}))
        rows.append({"r": res.r, "t": res.horizon, "delta_mc": res.delta_mc,
                     "se": res.delta_se, "delta_analytic": res.delta_analytic,
                     "omega": res.omega})
    return crits, {"delta_metric": rows}


def _run_quartic_reweight(cfg: ScenarioConfig) -> tuple:
    """Check d⟨O⟩/dλ at λ = 0 for O = |ξ_0|²: a central finite difference in
    the tilt strength against the covariance of O with the tilt.

    With S = 0, the Gaussian measure, |ξ|² and the ε|ξ|⁶ term are unchanged
    by ξ → e^{iπ/4}ξ, which flips the sign of the tilt Im ξ⁴. So ⟨|ξ₀|²⟩_λ
    is even in λ and this derivative is zero by symmetry: both estimates
    target exactly 0, and the criterion is a symmetry check, not a test of
    the tilt's size."""
    p = cfg.params
    n_pts = int(p["n_points"])
    pair = gf.KernelPair(gamma=np.eye(n_pts, dtype=complex),
                         relation=np.zeros((n_pts, n_pts), dtype=complex))
    factor = gf.factor_kernel(pair)
    n = int(p["n_samples"])

    zero = gf.QuarticReweightSpec(strength=0.0, epsilon=0.0)
    xi0 = gf.sample_fields(factor, 1000, cfg.seed, stream_index=9)
    w0 = gf.reweight_quartic(xi0, zero).weights
    ident = float(np.abs(w0 - 1.0).max())

    delta = float(p["fd_delta"])
    eps = float(p["epsilon"])

    def weighted_obs(xi, strength):
        spec_w = gf.QuarticReweightSpec(strength=strength, epsilon=eps)
        w = np.exp(gf.quartic_log_weights(xi, spec_w))
        obs = np.abs(xi[:, 0]) ** 2
        return obs, w

    xi_a = gf.sample_fields(factor, n, cfg.seed, stream_index=1)
    obs, w_plus = weighted_obs(xi_a, +delta)
    _, w_minus = weighted_obs(xi_a, -delta)
    bp, counts = block_sums(np.stack([obs * w_plus, w_plus, obs * w_minus, w_minus], axis=1))

    def fd_stat(m):
        return (m[0] / m[1] - m[2] / m[3]) / (2.0 * delta)

    fd, fd_se = jackknife_statistic(bp, counts, fd_stat)

    xi_b = gf.sample_fields(factor, n, cfg.seed, stream_index=2)
    w_eps = np.exp(gf.quartic_log_weights(
        xi_b, gf.QuarticReweightSpec(strength=0.0, epsilon=eps)))
    obs_b = np.abs(xi_b[:, 0]) ** 2
    tilt = 2.0 * np.imag(xi_b ** 4).sum(axis=1)
    bc, _ = block_sums(np.stack([obs_b * w_eps, w_eps, tilt * w_eps,
                                 obs_b * tilt * w_eps], axis=1))

    def cov_stat(m):
        return m[3] / m[1] - (m[0] / m[1]) * (m[2] / m[1])

    cov, cov_se = jackknife_statistic(bc, counts, cov_stat)
    se = float(np.hypot(fd_se, cov_se))
    return [
        _criterion("quartic_identity_at_zero", ident, 0.0, 0.0),
        _criterion("quartic_first_order_derivative", fd, cov, 3.0 * se, se,
                   {"finite_difference": fd, "covariance": cov}),
    ], {}


_RUNNERS = {
    "csl_unraveling": _run_csl_unraveling,
    "born_rule": _run_born_rule,
    "amplification_csl": _run_amplification_csl,
    "nonmarkov_unraveling": _run_nonmarkov_unraveling,
    "beable_stats": _run_beable_stats,
    "omega_table": _run_omega_table,
    "delta_metric": _run_delta_metric,
    "quartic_reweight": _run_quartic_reweight,
}


def run_experiment(config: ScenarioConfig) -> RunReport:
    """Execute a scenario; deterministic given (config, seed)."""
    start = time.perf_counter()
    criteria, tables = _RUNNERS[config.kind](config)
    return RunReport(scenario=config.kind, config_hash=config.hash(),
                     criteria=criteria, tables=tables,
                     wall_time_s=time.perf_counter() - start)


CSV_COLUMNS = ("scenario", "criterion", "measured", "target", "tolerance",
               "se", "passed")


def _write_csv(path, header, rows) -> str:
    with open(path, "w", newline="") as f:
        writer = _csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_table(path, rows) -> str:
    """One CSV line per row dict, under a header of the first row's keys."""
    return _write_csv(path, list(rows[0]), [row.values() for row in rows])


def emit_report(report: RunReport, out_dir) -> list:
    """Write the report as CSV (plus one CSV per table) and JSON; CSV
    columns are stable across versions."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [_write_csv(
        os.path.join(out_dir, f"{report.scenario}_report.csv"), CSV_COLUMNS,
        [[report.scenario, c.name, repr(c.measured), repr(c.target),
          repr(c.tolerance), repr(c.se), c.passed] for c in report.criteria])]
    paths += [_write_table(os.path.join(out_dir, f"{name}.csv"), rows)
              for name, rows in report.tables.items() if rows]
    path = os.path.join(out_dir, f"{report.scenario}_report.json")
    payload = report.numeric_dict()
    payload["wall_time_s"] = report.wall_time_s
    payload["report_hash"] = report.hash()
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    paths.append(path)
    return paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="collapsemc",
                                     description="collapse-model experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("config", help="path to a JSON scenario config")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")

    tab = sub.add_parser("tabulate-omega", help="emit (r, omega) table as CSV")
    tab.add_argument("--mb", type=float, required=True, help="boson mass")
    tab.add_argument("--lambda", dest="cutoff", type=float, required=True,
                     help="PV cutoff")
    tab.add_argument("--g", type=float, default=1.0, help="coupling")
    tab.add_argument("--rmin", type=float, required=True)
    tab.add_argument("--rmax", type=float, required=True)
    tab.add_argument("--points", type=int, required=True)
    tab.add_argument("--horizon", type=float, default=None,
                     help="finite horizon for omega_T (default 100/mb)")
    tab.add_argument("--out", default=None, help="output directory")
    return parser


def _resolve_out_dir(flag_value) -> str:
    if flag_value:
        return flag_value
    return os.environ.get(ENV_OUTPUT_DIR, ".")


def _tabulate_omega(args) -> str:
    """Validate the flags with the omega_table parameter checks, then write
    the (r, Ω_∞, Ω_T, G_∞) table; returns the CSV path."""
    if args.horizon is not None and not (math.isfinite(args.horizon) and args.horizon > 0):
        raise ConfigError("horizon must be finite and positive", field="horizon")
    ScenarioConfig.from_dict({"kind": "omega_table", "seed": 0, "params": {
        "boson_mass": args.mb, "cutoff": args.cutoff, "coupling": args.g,
        "r_min": args.rmin, "r_max": args.rmax, "n_points": args.points}})
    spec = pg.PropagatorSpec(boson_mass=args.mb, cutoff=args.cutoff, coupling=args.g)
    horizon = 100.0 / args.mb if args.horizon is None else args.horizon
    rows = pg.tabulate_omega(spec, np.geomspace(args.rmin, args.rmax, args.points),
                             horizon)
    out_dir = _resolve_out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    return _write_table(os.path.join(out_dir, "omega_table.csv"), rows)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "tabulate-omega":
            print(_tabulate_omega(args))
            return 0
        config = ScenarioConfig.from_json(args.config)
        if args.seed is not None:
            config = ScenarioConfig.from_dict(
                {**config.physics_dict(), "seed": args.seed,
                 "output_dir": config.output_dir})
        report = run_experiment(config)
    except ConfigError as exc:
        print(f"config error [{exc.field}]: {exc}")
        return 2
    except CollapseMcError as exc:
        print(f"run failed: {exc}")
        return 1
    out_dir = _resolve_out_dir(args.out or config.output_dir)
    paths = emit_report(report, out_dir)
    for c in report.criteria:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: measured={c.measured:.6g} "
              f"target={c.target:.6g} tol={c.tolerance:.3g}")
    print(f"report hash: {report.hash()}")
    for p in paths:
        print(p)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
