import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from collapsemc import cli, workers
from collapsemc import propagators as pg
from collapsemc.errors import ConfigError

OMEGA_TABLE_CRITERIA = ("omega_quadrature_vs_closed_form_rel",
                        "omega_plateau_value_rel", "omega_midregime_log_law_rel")


def write_config(path, kind, params):
    path.write_text(json.dumps({"kind": kind, "seed": 5, "params": params}))
    return str(path)


def hash_line(text):
    lines = [ln for ln in text.splitlines() if ln.startswith("report hash: ")]
    assert len(lines) == 1
    return lines[0]


def test_run_omega_table_end_to_end_reproduces_hash(tmp_path, capsys):
    cfg = write_config(tmp_path / "omega.json", "omega_table",
                       {"cutoff": 10.0, "n_points": 2, "r_max": 5.0})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
    first = capsys.readouterr().out
    for name in OMEGA_TABLE_CRITERIA:
        assert f"[PASS] {name}:" in first
    assert (tmp_path / "a" / "omega_table_report.json").exists()

    pg.g_t_quadrature.cache_clear()       # recompute, not replay the memo
    assert cli.main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
    assert hash_line(capsys.readouterr().out) == hash_line(first)


# small configs of every other kind, all at seed 5
END_TO_END = [
    ("csl_unraveling", {"n_traj": 200, "horizon": 1.0},
     ("markovian_unraveling_trace_distance", "girsanov_weight_mean")),
    ("born_rule", {"n_traj": 200, "horizon_rates": 4.0},
     ("born_rule_frequency", "born_rule_chi2_pvalue", "martingale_deviation_se")),
    ("amplification_csl", {"n_values": [1, 2], "n_traj": 300},
     ("csl_amplification_rate_N1_vs_analytic", "csl_amplification_ratio_N1",
      "csl_amplification_ratio_N2")),
    ("nonmarkov_unraveling", {"n_samples": 500, "n_steps": 4},
     ("nonmarkov_unraveling_trace_distance",)),
    ("beable_stats", {"n_samples": 200, "n_steps": 4},
     ("girsanov_weight_mean", "beable_shift_quadrature_rel_err")),
    ("delta_metric", {"r_values": [1], "horizons": [1], "n_steps": 4, "n_samples": 500},
     ("delta_metric_r1_t1",)),
    ("quartic_reweight", {"n_samples": 2000},
     ("quartic_identity_at_zero", "quartic_first_order_derivative")),
]


@pytest.mark.parametrize("kind, params, criteria", END_TO_END,
                         ids=[kind for kind, _, _ in END_TO_END])
def test_run_end_to_end_reproduces_hash(tmp_path, capsys, kind, params, criteria):
    cfg = write_config(tmp_path / f"{kind}.json", kind, params)
    codes, outs = [], []
    for out in ("a", "b"):
        pg.g_t_quadrature.cache_clear()
        codes.append(cli.main(["run", cfg, "--out", str(tmp_path / out)]))
        outs.append(capsys.readouterr().out)
    verdicts = re.findall(r"^\[(PASS|FAIL)\] (\w+):", outs[0], re.M)
    assert tuple(name for _, name in verdicts) == criteria
    assert codes[0] == (0 if all(v == "PASS" for v, _ in verdicts) else 1)
    assert codes[1] == codes[0]
    assert hash_line(outs[1]) == hash_line(outs[0])


@pytest.mark.parametrize("n_workers", [2, 3, 64])
def test_delta_metric_cells_in_workers_equal_serial(monkeypatch, n_workers):
    """The six (r, T) cells dealt over forked workers give the in-process
    criteria and table bit for bit, in cell order; 64 workers is more than
    there are cells."""
    cfg = cli.ScenarioConfig.from_dict({"kind": "delta_metric", "seed": 5, "params": {
        "r_values": [0.5, 1, 2.0], "horizons": [1.0, 2], "n_steps": 4, "n_samples": 300}})
    monkeypatch.setattr(workers, "worker_count", lambda: 1)
    serial = cli.run_experiment(cfg)
    monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
    parallel = cli.run_experiment(cfg)
    assert [c.name for c in serial.criteria][:2] == ["delta_metric_r0.5_t1.0",
                                                     "delta_metric_r0.5_t2"]
    assert parallel.criteria == serial.criteria
    assert parallel.tables == serial.tables
    assert multiprocessing.active_children() == []


def test_run_unknown_parameter_exits_2_naming_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", "omega_table", {"n_pointz": 2})
    assert cli.main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert "params.n_pointz" in capsys.readouterr().out


@pytest.mark.parametrize("kind, params, field", [
    ("born_rule", {"gamma": 0.0}, "gamma"),
    ("born_rule", {"horizon_rates": 0.0}, "horizon_rates"),
    ("amplification_csl", {"gamma": 0.0}, "gamma"),
    ("amplification_csl", {"n_values": ["a"]}, "n_values"),
    ("amplification_csl", {"n_values": [0]}, "n_values"),
    ("amplification_csl", {"n_values": [2, 3]}, "n_values"),
    ("amplification_csl", {"separation": 4.0}, "separation"),
    ("quartic_reweight", {"fd_delta": 0.0}, "fd_delta"),
    ("quartic_reweight", {"epsilon": 0.0}, "epsilon"),
    ("quartic_reweight", {"n_points": 8.0}, "n_points"),
    ("beable_stats", {"n_steps": 2.5}, "n_steps"),
    ("beable_stats", {"coupling": -1.0}, "coupling"),
    ("csl_unraveling", {"n_traj": 100.0}, "n_traj"),
    ("csl_unraveling", {"horizon": 0.009}, "horizon"),
    ("nonmarkov_unraveling", {"n_samples": 10.5}, "n_samples"),
    ("nonmarkov_unraveling", {"cutoff": 1.0}, "cutoff"),
    ("omega_table", {"cutoff": 0.5}, "cutoff"),
    ("delta_metric", {"r_values": [-1.0]}, "r_values"),
    ("delta_metric", {"horizons": [-1.0]}, "horizons"),
    ("born_rule", {"p_left": 0.0}, "p_left"),
    ("born_rule", {"p_left": 1.0}, "p_left"),
    ("born_rule", {"p_left": 1.5}, "p_left"),
    ("born_rule", {"p_left": -0.2}, "p_left"),
    ("amplification_csl", {"tolerance": 0.0}, "tolerance"),
    ("amplification_csl", {"tolerance": -0.1}, "tolerance"),
    ("omega_table", {"cutoff": float("inf")}, "cutoff"),
    ("amplification_csl", {"separation": float("inf")}, "separation"),
    ("born_rule", {"horizon_rates": float("inf")}, "horizon_rates"),
    ("amplification_csl", {"tolerance": float("inf")}, "tolerance"),
    ("quartic_reweight", {"fd_delta": float("nan")}, "fd_delta"),
    ("quartic_reweight", {"strength": 0.05}, "strength"),
])
def test_bad_input_rejected_at_load_naming_field(kind, params, field):
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.from_dict({"kind": kind, "seed": 1, "params": params})
    assert exc.value.field == f"params.{field}"


def test_json_infinity_exits_2_as_not_finite(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"kind": "omega_table", "seed": 5, "params": {"cutoff": Infinity}}')
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out.startswith(
        "config error [params.cutoff]: cutoff must be finite")


@pytest.mark.parametrize("extra, field", [
    ({"schema_version": True}, "schema_version"),
    ({"schema_version": 1.0}, "schema_version"),
    ({"output_dir": 5}, "output_dir"),
    ({"output_dir": ["x"]}, "output_dir"),
    ({"ouput_dir": "x"}, "ouput_dir"),
])
def test_bad_top_level_field_rejected_at_load(extra, field):
    """A version of `true` or `1.0` would run as version 1 but be hashed as
    written; a non-string output_dir would fail only after the run; a
    misspelt key would be ignored."""
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.from_dict({"kind": "omega_table", "seed": 1, **extra})
    assert exc.value.field == field


def test_cli_import_loads_neither_scipy_stats_nor_spatial():
    """The two subpackages took over half the package's import time;
    scipy.stats imports scipy.spatial itself."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, collapsemc.cli; "
            "print([m for m in ('scipy.stats', 'scipy.spatial') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_does_not_load_scipy_integrate():
    """The position-space propagators need only scipy.special; scipy.integrate
    would cost about a second of import time."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, collapsemc.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("seed", [True, 2 ** 63, -1])
def test_seed_outside_stream_key_rejected(seed):
    """A bool seed would be hashed as `true` but drawn as 1; seeds from 2**63
    on leave no room for the runners' seed + n offsets below 2**64."""
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.from_dict({"kind": "omega_table", "seed": seed})
    assert exc.value.field == "seed"


def test_threads_flag_is_gone(tmp_path):
    cfg = write_config(tmp_path / "omega.json", "omega_table", {"n_points": 2})
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", cfg, "--out", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2


TABULATE = ["tabulate-omega", "--mb", "1", "--lambda", "10", "--rmin", "0.5",
            "--rmax", "2", "--points", "2"]


@pytest.mark.parametrize("flags, field", [
    (["--points", "0"], "params.n_points"),
    (["--rmin", "0"], "params.r_min"),
    (["--lambda", "0.5"], "params.cutoff"),
    (["--horizon", "-1"], "horizon"),
    (["--horizon", "0"], "horizon"),
    (["--lambda", "inf"], "params.cutoff"),
    (["--g", "inf"], "params.coupling"),
    (["--horizon", "inf"], "horizon"),
])
def test_tabulate_omega_bad_input_exits_2_naming_field(tmp_path, capsys, flags, field):
    assert cli.main(TABULATE + ["--out", str(tmp_path)] + flags) == 2
    assert capsys.readouterr().out.startswith(f"config error [{field}]: ")
    assert not (tmp_path / "omega_table.csv").exists()


def test_tabulate_omega_csv_rows_equal_tabulate_omega(tmp_path, capsys):
    assert cli.main(TABULATE + ["--out", str(tmp_path), "--horizon", "20"]) == 0
    path = capsys.readouterr().out.strip()
    with open(path, newline="") as f:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]
    spec = pg.PropagatorSpec(boson_mass=1.0, cutoff=10.0, coupling=1.0)
    assert rows == pg.tabulate_omega(spec, np.geomspace(0.5, 2.0, 2), 20.0)
