import copy
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import refvals as RV
from sddhopf import (DENOMINATOR_FLOOR, CharParams, char_eval, classify_dynamics,
                     find_equilibrium, hes1_params)
from sddhopf import dde, model, roots
from sddhopf.cli import _trajectory_csv, load_config, main

RECIPES = Path(__file__).resolve().parent.parent / "recipes"

BASE = {
    "model": {
        "nonlinearity": {"kind": "hes1", "alpha_m": 35.0, "ybar": 1200.0,
                         "h": 5.0, "alpha_p": 10.0},
        "mu_m": 0.03, "mu_p": 0.04, "c": 0.01, "eps": 6.0,
    },
}


def write_cfg(tmp_path, overrides=None, name="cfg.json"):
    cfg = copy.deepcopy(BASE)
    for block, vals in (overrides or {}).items():
        cfg.setdefault(block, {}).update(vals)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# -- scalar commands -------------------------------------------------------------

def test_equilibrium_text(tmp_path, capsys):
    rc = main(["equilibrium", "--config", write_cfg(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "11.97050076" in out
    assert "2992.625189" in out


def test_equilibrium_json_payload(tmp_path, capsys):
    rc = main(["equilibrium", "--config", write_cfg(tmp_path),
               "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["results"]
    assert payload["r_star"] == pytest.approx(RV.R_STAR, rel=1e-10)
    assert payload["xi_star"] == pytest.approx(RV.XI_STAR, rel=1e-10)
    assert payload["f_prime"] == pytest.approx(RV.F1, rel=1e-10)
    assert payload["g_prime"] == 10.0
    assert abs(payload["residual_r"]) < 1e-10


def test_zero_map_equilibrium_is_origin(tmp_path, capsys):
    cfg = {"model": {"nonlinearity": {"kind": "zero"}, "c": 0.01, "eps": 1.0}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    rc = main(["equilibrium", "--config", str(path), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["results"]
    assert payload["r_star"] == 0.0
    assert payload["xi_star"] == 0.0


def test_zero_map_is_stable_for_all_eps(tmp_path, capsys):
    cfg = {"model": {"nonlinearity": {"kind": "zero"}, "c": 0.01, "eps": 1.0}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    rc = main(["stability", "--config", str(path)])
    assert rc == 0
    assert "stable for all eps" in capsys.readouterr().out


def test_stability_eps_k_residuals(tmp_path, capsys):
    rc = main(["stability", "--config", write_cfg(tmp_path),
               "--eps-k", "3", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["results"]
    assert payload["classification"] == "stable_below_eps0"
    assert payload["eps0"] == pytest.approx(RV.EPS0, rel=1e-10)
    assert len(payload["eps_k"]) == 3
    for k, ek in enumerate(payload["eps_k"], start=1):
        cp = CharParams(mu_m=0.03, mu_p=0.04, p=RV.P, eps=ek)
        assert abs(char_eval(1j * (RV.OMEGA + k * np.pi), cp)) < 1e-8


def test_stability_text_has_crossing_values(tmp_path, capsys):
    rc = main(["stability", "--config", write_cfg(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "6.862162456" in out
    assert "0.4703832245" in out


@pytest.mark.parametrize("c,word", [(None, "supercritical"), (0.025, "subcritical")])
def test_normal_form_direction(tmp_path, capsys, c, word):
    argv = ["normal-form", "--config", write_cfg(tmp_path)]
    if c is not None:
        argv += ["--c", str(c)]
    rc = main(argv)
    assert rc == 0
    assert word in capsys.readouterr().out.lower()


def test_normal_form_json_payload(tmp_path, capsys):
    rc = main(["normal-form", "--config", write_cfg(tmp_path),
               "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["results"]
    k1 = payload["kappa1"]
    assert k1["re"] == pytest.approx(RV.KAPPA1.real, rel=1e-10)
    assert k1["im"] == pytest.approx(RV.KAPPA1.imag, rel=1e-10)
    assert payload["c0"] == pytest.approx(RV.C0, rel=1e-8)
    k3 = payload["kappa3"]
    assert k3["re"] == pytest.approx(RV.KAPPA3[0.01].real, rel=1e-8)


def test_normal_form_csv_splits_complex(tmp_path, capsys):
    rc = main(["normal-form", "--config", write_cfg(tmp_path),
               "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    assert float(rows["kappa1.re"]) == pytest.approx(RV.KAPPA1.real, rel=1e-10)
    assert float(rows["kappa1.im"]) == pytest.approx(RV.KAPPA1.imag, rel=1e-10)


def test_normal_form_on_zero_map_is_a_solver_error(tmp_path, capsys):
    cfg = {"model": {"nonlinearity": {"kind": "zero"}, "c": 0.01, "eps": 1.0}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    rc = main(["normal-form", "--config", str(path)])
    assert rc == 2
    assert "solver error" in capsys.readouterr().err


# -- simulate ---------------------------------------------------------------------

SIM_ANALYSIS = {"system": "transformed", "t_end": 150.0, "kick_scale": 0.05,
                "rtol": 1e-7, "atol": 1e-8}


def test_simulate_csv_contract(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    path = write_cfg(tmp_path, {
        "model": {"eps": RV.EPS0 - 0.1},
        "analysis": dict(SIM_ANALYSIS),
        "output": {"format": "csv", "path": str(out_file), "n_samples": 512},
    })
    rc = main(["simulate", "--config", path])
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "eta,r,xi,k"
    assert len(lines) == 1 + 512
    sample = lines[1].split(",")
    assert len(sample) == 4
    # full-precision columns round-trip through text
    for field in sample:
        assert float(field) == float("%.17g" % float(field))
    etas = [float(l.split(",")[0]) for l in lines[1:]]
    assert etas[0] == 0.0
    assert etas[-1] == pytest.approx(150.0)


def test_simulate_json_payload(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "model": {"eps": RV.EPS0 - 0.1},
        "analysis": dict(SIM_ANALYSIS),
        "output": {"format": "json", "n_samples": 256},
    })
    rc = main(["simulate", "--config", path])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["results"]
    assert payload["status"] == "completed"
    assert payload["columns"] == ["eta", "r", "xi", "k"]
    assert len(payload["rows"]) == 256
    assert payload["summary"]["decay_rate"] > 0


def per_row_csv(traj):
    """The row-at-a-time CSV formatter that _trajectory_csv replaced."""
    lines = [",".join(traj.columns)]
    for i in range(len(traj.t)):
        lines.append(",".join("%.17g" % v for v in
                              (traj.t[i], traj.states[i, 0],
                               traj.states[i, 1], traj.delay[i])))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_samples", [300, 0])
def test_trajectory_csv_matches_the_per_row_formatter(eq_state, n_samples):
    p = hes1_params(c=0.01, eps=RV.EPS0 - 0.1)
    hist = dde.bump_history(eq_state, 0.05 * eq_state, span=p.eps)
    traj = dde.integrate_sdd(hist, p.eps, p, t_end=40.0,
                             sample_times=np.linspace(0.0, 40.0, n_samples))
    assert len(traj.t) == n_samples
    assert _trajectory_csv(traj) == per_row_csv(traj)


def test_simulate_original_system_columns(tmp_path):
    out_file = tmp_path / "orig.csv"
    path = write_cfg(tmp_path, {
        "model": {"eps": RV.EPS0 - 0.1},
        "analysis": {"system": "original", "t_end": 40.0, "kick_scale": 0.05,
                     "rtol": 1e-7, "atol": 1e-8},
        "output": {"format": "csv", "path": str(out_file), "n_samples": 128},
    })
    rc = main(["simulate", "--config", path])
    assert rc == 0
    assert out_file.read_text().splitlines()[0] == "t,x,y,tau"


def test_simulate_t_end_flag_overrides_config(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "model": {"eps": RV.EPS0 - 0.1},
        "analysis": dict(SIM_ANALYSIS),
        "output": {"format": "json", "n_samples": 64},
    })
    rc = main(["simulate", "--config", path, "--t-end", "50"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["results"]
    assert payload["rows"][-1][0] == pytest.approx(50.0)


def test_simulate_breach_exits_with_integration_code(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "model": {"eps": RV.EPS0 - 0.1, "c": RV.C0 + 0.001},
        "analysis": {"system": "transformed", "t_end": 200.0,
                     "kick_scale": -1.7, "rtol": 1e-7, "atol": 1e-8},
        "output": {"format": "text"},
    })
    rc = main(["simulate", "--config", path])
    assert rc == 4
    assert "denominator_breach" in capsys.readouterr().err


def test_escape_recipe_ends_at_the_floor_with_its_step_counts(tmp_path):
    out = tmp_path / "escape.json"
    rc = main(["simulate", "--config", str(RECIPES / "hes1-subcritical-escape.json"),
               "--format", "json", "--output", str(out)])
    assert rc == 4
    results = json.loads(out.read_text())["results"]
    assert results["status"] == "denominator_breach"
    assert DENOMINATOR_FLOOR <= results["monitors"]["min_denominator"] \
        <= 1.02 * DENOMINATOR_FLOOR
    stats = results["stats"]
    assert set(stats) == {"steps_accepted", "steps_rejected", "frontier_halvings",
                          "stage_evals"}
    assert 0 < stats["steps_accepted"] <= 1000
    assert stats["stage_evals"] > 6 * stats["steps_accepted"]


def test_summary_reports_step_counts_beside_a_parseable_monitors_line(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    path = write_cfg(tmp_path, {
        "model": {"eps": RV.EPS0 - 0.1},
        "analysis": dict(SIM_ANALYSIS),
        "output": {"format": "csv", "path": str(out_file), "n_samples": 64},
    })
    assert main(["simulate", "--config", path]) == 0
    lines = capsys.readouterr().err.splitlines()

    def fields(prefix):
        line, = [l for l in lines if l.startswith(prefix)]
        return {k.strip(): float(v) for k, _, v in
                (item.partition("=") for item in line[len(prefix):].split(","))}

    assert set(fields("monitors: ")) == {"min_denominator", "min_r", "min_xi"}
    stats = fields("stats: ")
    assert list(stats) == ["steps_accepted", "steps_rejected", "frontier_halvings",
                           "stage_evals"]
    assert stats["stage_evals"] == 1 + 6 * (stats["steps_accepted"]
                                            + stats["steps_rejected"])


# -- sweep ------------------------------------------------------------------------

SWEEP_ANALYSIS = {"t_end": 400.0, "small_kick": 0.05,
                  "probe_scales": [0.25, 0.5, 1.0], "rtol": 1e-7}


def test_single_cell_sweep_agrees_with_direct_classification(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "analysis": dict(SWEEP_ANALYSIS,
                         grid={"eps": [RV.EPS0 - 0.1], "c": [0.01]}),
        "output": {"format": "json"},
    })
    rc = main(["sweep", "--config", path])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["results"]
    label = payload["labels"][0][0]
    p = hes1_params(c=0.01, eps=RV.EPS0 - 0.1)
    direct = classify_dynamics(p, find_equilibrium(p), small_kick=0.05,
                               probe_scales=(0.25, 0.5, 1.0), eta_end=400.0,
                               rtol=1e-7)
    assert label == direct == "stable"


def test_sweep_c_zero_column_matches_linear_theory(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "analysis": dict(SWEEP_ANALYSIS,
                         grid={"eps": [RV.EPS0 - 0.1, RV.EPS0 + 0.1],
                               "c": [0.0]}),
        "output": {"format": "json"},
    })
    rc = main(["sweep", "--config", path])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["results"]
    labels = [row[0] for row in payload["labels"]]
    assert labels == ["stable", "oscillating"]
    assert payload["overlays"]["eps0"] == pytest.approx(RV.EPS0, rel=1e-10)
    assert payload["overlays"]["c0"] == pytest.approx(RV.C0, rel=1e-8)


def test_sweep_csv_matrix_layout(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "analysis": dict(SWEEP_ANALYSIS,
                         grid={"eps": [RV.EPS0 - 0.1], "c": [0.0, 0.01]}),
        "output": {"format": "csv"},
    })
    rc = main(["sweep", "--config", path])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "eps\\c"
    assert len(header) == 3
    assert len(lines) == 2


def test_sweep_without_grid_is_a_config_error(tmp_path, capsys):
    rc = main(["sweep", "--config", write_cfg(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_one_cell_sweep_runs(tmp_path, capsys):
    path = write_cfg(tmp_path, {
        "analysis": dict(SWEEP_ANALYSIS,
                         grid={"eps": [RV.EPS0 - 0.1], "c": [0.01]}),
        "output": {"format": "json"},
    })
    assert main(["sweep", "--config", path]) == 0


@pytest.mark.parametrize("fmt,grid,error", [
    ("json", {"eps": [-1.0, RV.EPS0 - 0.1], "c": [0.01]},
     "error: eps must be positive"),
    # the overflow message holds a comma, so the CSV field is quoted
    ("csv", {"mu_m": [1e-300, 0.03], "c": [0.01]},
     "error: (34, 'Numerical result out of range')"),
    ("json", {"eps": [float("nan"), RV.EPS0 - 0.1], "c": [0.01]},
     "error: eps must be finite, got nan"),
], ids=["invalid-eps", "overflow", "nan-eps"])
def test_bad_sweep_cell_is_reported_in_place(tmp_path, capsys, fmt, grid, error):
    path = write_cfg(tmp_path, {
        "analysis": dict(SWEEP_ANALYSIS, grid=grid),
        "output": {"format": fmt},
    })
    rc = main(["sweep", "--config", path])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in captured.err
    if fmt == "json":
        labels = json.loads(captured.out)["results"]["labels"]
    else:
        labels = [row[1:] for row in csv.reader(io.StringIO(captured.out))][1:]
    assert labels == [[error], ["stable"]]


# -- config validation ------------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    {"bogus": {"x": 1}},
    {"model": {"bogus": 1}},
    {"analysis": {"bogus": 1}},
    {"output": {"bogus": 1}},
])
def test_unknown_keys_are_rejected(tmp_path, capsys, overrides):
    path = write_cfg(tmp_path, overrides)
    rc = main(["equilibrium", "--config", path])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bogus" in err


@pytest.mark.parametrize("h", [4.5, float("nan")])
def test_non_integer_hill_exponent_is_rejected(tmp_path, capsys, h):
    cfg = copy.deepcopy(BASE)
    cfg["model"]["nonlinearity"]["h"] = h
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["equilibrium", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'h'" in err
    assert err.count("\n") == 1


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("field", ["eps", "c", "mu_m", "mu_p"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_model_number_is_a_config_error(tmp_path, capsys, field, value):
    path = write_cfg(tmp_path, {
        "model": {field: value},
        "analysis": dict(SIM_ANALYSIS),
        "output": {"format": "text"},
    })
    assert main(["simulate", "--config", path]) == 1
    err = one_line_error(capsys)
    assert err.startswith("config error: field '%s' in model block must be finite" % field)


@pytest.mark.parametrize("command,overrides,rc,prefix", [
    # f(0)/mu_m brackets the equilibrium; (y/ybar)**h overflows inside it
    ("equilibrium", {"model": {"mu_m": 1e-300}}, 2, "solver error: OverflowError"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, rtol="x")}, 1, "config error"),
    ("normal-form", {"analysis": {"fit_points": [0.0, 0.01]}}, 1,
     "config error: exactly three fit points"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, transient_fraction=2)}, 1,
     "config error: analysis.transient_fraction"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, rtol=None)}, 1,
     "config error: field 'rtol'"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, transient_fraction=[0.5])}, 1,
     "config error: field 'transient_fraction'"),
    ("normal-form", {"analysis": {"fit_points": None}}, 1,
     "config error: field 'fit_points'"),
    ("normal-form", {"analysis": {"c_max": "1"}}, 1, "config error: field 'c_max'"),
    ("stability", {"analysis": {"eps_k": 1.5}}, 1, "config error: analysis.eps_k"),
    ("sweep", {"analysis": {"grid": {"c": [0.01], "eps": [[6.0]]}}}, 1,
     "config error: analysis.grid"),
    ("sweep", {"analysis": {"grid": {"c": [0.01], "eps": [6.0]},
                            "probe_scales": "x"}}, 1,
     "config error: field 'probe_scales'"),
    ("simulate", {"analysis": SIM_ANALYSIS, "output": {"n_samples": 2.7}}, 1,
     "config error: output.n_samples"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, t_end=-5.0)}, 1,
     "config error: analysis.t_end must be > 0"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, t_end=float("inf"))}, 1,
     "config error: field 't_end' in analysis block must be finite"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, rtol=-1.0)}, 1,
     "config error: analysis.rtol must be > 0"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, rtol=0.0, atol=0.0)}, 1,
     "config error: analysis.rtol must be > 0"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, atol=0.0)}, 1,
     "config error: analysis.atol must be > 0"),
    ("normal-form", {"analysis": {"c_max": -1.0}}, 1,
     "config error: analysis.c_max must be >= 0"),
    ("normal-form", {"analysis": {"fit_points": [0.0, 0.0, 0.0]}}, 1,
     "config error: exactly three fit points required, all different"),
    ("normal-form", {"analysis": {"fit_points": [0.0, 0.01, float("nan")]}}, 1,
     "config error: field 'fit_points' in analysis block must be a list of finite"),
    ("equilibrium", {"model": {"nonlinearity": {"kind": "hes1", "alpha_p": -10.0}}}, 1,
     "config error: nonlinearity.alpha_p must be >= 0"),
    ("simulate", {"model": {"nonlinearity": {"kind": "hes1", "alpha_m": -35.0}},
                  "analysis": SIM_ANALYSIS}, 1,
     "config error: nonlinearity.alpha_m must be >= 0"),
    # checked when the config is read, whichever command reads it
    ("equilibrium", {"analysis": {"system": "orignal"}}, 1,
     "config error: analysis.system must be one of original, transformed"),
    ("stability", {"output": {"format": "xml"}}, 1,
     "config error: output.format must be one of csv, json, text"),
], ids=["overflow", "rtol-not-a-number", "two-fit-points", "transient-fraction",
        "rtol-null", "transient-fraction-list", "fit-points-null", "c-max-string",
        "eps-k-fraction", "grid-nested-list", "probe-scales-string",
        "n-samples-fraction", "t-end-negative", "t-end-infinite", "rtol-negative",
        "rtol-atol-zero", "atol-zero", "c-max-negative", "repeated-fit-points",
        "fit-points-nan", "alpha-p-negative", "alpha-m-negative", "system-unknown",
        "format-unknown"])
def test_bad_input_ends_in_one_line(tmp_path, capsys, command, overrides, rc, prefix):
    out = tmp_path / "out.txt"
    output = dict(overrides.get("output", {}), path=str(out))
    path = write_cfg(tmp_path, dict(overrides, output=output))
    assert main([command, "--config", path]) == rc
    assert one_line_error(capsys).startswith(prefix)
    assert not out.exists()


def _capped_brentq(monkeypatch):
    # one iteration is too few for the equilibrium's bracketed solve
    monkeypatch.setattr(model, "brentq",
                        lambda f, a, b, **kw: roots.brentq(f, a, b, **dict(kw, maxiter=1)))


def test_root_finder_failure_is_a_solver_error(tmp_path, capsys, monkeypatch):
    _capped_brentq(monkeypatch)
    assert main(["equilibrium", "--config", write_cfg(tmp_path)]) == 2
    assert one_line_error(capsys).startswith("solver error: no convergence after 1 iterations")


def test_root_finder_failure_is_reported_in_the_sweep_cell(tmp_path, capsys, monkeypatch):
    _capped_brentq(monkeypatch)
    path = write_cfg(tmp_path, {"analysis": {"grid": {"c": [0.01], "eps": [6.0]}},
                                "output": {"format": "csv"}})
    assert main(["sweep", "--config", path]) == 0
    captured = capsys.readouterr()
    (label,), = [row[1:] for row in csv.reader(io.StringIO(captured.out))][1:]
    assert label.startswith("error: no convergence after 1 iterations")


def test_unknown_nonlinearity_key_is_rejected(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    cfg["model"]["nonlinearity"]["bogus"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["equilibrium", "--config", str(path)]) == 1


def test_missing_required_field_is_rejected(tmp_path, capsys):
    cfg = copy.deepcopy(BASE)
    del cfg["model"]["c"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["equilibrium", "--config", str(path)]) == 1


def test_malformed_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["equilibrium", "--config", str(path)]) == 1


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["equilibrium", "--config", str(tmp_path / "absent.json")]) == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["no-such-command", "--config", "x"]) == 1
    assert main(["equilibrium", "--config", write_cfg(tmp_path),
                 "--no-such-flag"]) == 1


def test_config_round_trip_is_lossless(tmp_path):
    path = write_cfg(tmp_path, {"analysis": {"eps_k": 3},
                                "output": {"format": "json"}})
    original = json.loads(Path(path).read_text())
    assert load_config(path).to_dict() == original


def test_config_echo_shows_the_override_flags(capsys):
    recipe = str(RECIPES / "hes1.json")
    assert main(["equilibrium", "--config", recipe, "--eps", "7.5", "--c", "0.02",
                 "--format", "json"]) == 0
    echoed = json.loads(capsys.readouterr().out)["config"]
    expected = json.loads(Path(recipe).read_text())
    expected["model"].update(eps=7.5, c=0.02)
    expected["output"]["format"] = "json"
    assert echoed == expected


@pytest.mark.parametrize("recipe", sorted(RECIPES.glob("*.json")))
def test_shipped_recipes_load(recipe):
    cfg = load_config(str(recipe))
    assert cfg.to_dict() == json.loads(recipe.read_text())
