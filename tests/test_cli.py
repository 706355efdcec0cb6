import json

import pytest

from collapsemc import cli
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


def test_run_unknown_parameter_exits_2_naming_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", "omega_table", {"n_pointz": 2})
    assert cli.main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert "params.n_pointz" in capsys.readouterr().out


@pytest.mark.parametrize("p_left", [0.0, 1.0, 1.5, -0.2])
def test_born_rule_rejects_p_left_outside_unit_interval(p_left):
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.from_dict({"kind": "born_rule", "seed": 1,
                                      "params": {"p_left": p_left}})
    assert exc.value.field == "params.p_left"


@pytest.mark.parametrize("tolerance", [0.0, -0.1])
def test_amplification_csl_rejects_non_positive_tolerance(tolerance):
    with pytest.raises(ConfigError) as exc:
        cli.ScenarioConfig.from_dict({"kind": "amplification_csl", "seed": 1,
                                      "params": {"tolerance": tolerance}})
    assert exc.value.field == "params.tolerance"


def test_threads_flag_is_gone(tmp_path):
    cfg = write_config(tmp_path / "omega.json", "omega_table", {"n_points": 2})
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", cfg, "--out", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2
