import argparse
import copy
import csv
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import refvals as RV
from oracles import scalar_cell_label
from sddhopf import (DENOMINATOR_FLOOR, CharParams, char_eval, classify_dynamics,
                     find_equilibrium, hes1_params)
from sddhopf import cli, dde, lanes, model, roots
from sddhopf.cli import (_SCHEMA, _build_parser, _jsonable, _trajectory_csv, load_config,
                         main)

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
        if isinstance(vals, dict):
            cfg.setdefault(block, {}).update(vals)
        else:       # a block that is not an object stands as given
            cfg[block] = vals
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


@pytest.mark.parametrize("c,word", [(None, "supercritical"), (0.05, "supercritical"),
                                    (1.2, "subcritical")])
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


def flatten(value, prefix=""):
    """(key, value) pairs of a JSON value in the key notation of the CSV."""
    if isinstance(value, dict):
        return [kv for k, v in value.items()
                for kv in flatten(v, prefix + "." + k if prefix else k)]
    if isinstance(value, list):
        return [kv for i, v in enumerate(value)
                for kv in flatten(v, "%s[%d]" % (prefix, i))]
    return [(prefix, value)]


@pytest.mark.parametrize("command", ["equilibrium", "stability", "normal-form"])
def test_csv_rows_are_the_flattened_json_results(capsys, command):
    argv = [command, "--config", str(RECIPES / "hes1.json")]
    assert main(argv + ["--format", "json"]) == 0
    want = flatten(json.loads(capsys.readouterr().out)["results"])
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    rows = [line.split(",", 1) for line in lines[1:]]
    assert [key for key, _ in rows] == [key for key, _ in want]
    for (key, text), (_, value) in zip(rows, want):
        # a float exactly as JSON reads it; null, strings and ints as str()
        assert (float(text) == value if isinstance(value, float)
                else text == str(value)), key


def test_non_finite_numpy_values_are_written_as_null():
    values = {"nan": np.float64("nan"), "inf": np.float64("inf"),
              "-inf": np.float64("-inf"), "f32": np.float32("inf"),
              "array": np.array([1.5, np.nan]), "finite": np.float64(0.1)}
    doc = _jsonable(values)
    assert doc == {"nan": None, "inf": None, "-inf": None, "f32": None,
                   "array": [1.5, None], "finite": 0.1}
    json.dumps(doc, allow_nan=False)


def test_normal_form_on_zero_map_is_a_solver_error(tmp_path, capsys):
    cfg = {"model": {"nonlinearity": {"kind": "zero"}, "c": 0.01, "eps": 1.0}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    rc = main(["normal-form", "--config", str(path)])
    assert rc == 2
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_an_overflowed_kappa3_is_a_solver_error(tmp_path, capsys, fmt):
    # Re kappa3(c) = q2 c^2 + ... passes the float range at c = 1e160
    out = tmp_path / "out"
    assert main(["normal-form", "--config", write_cfg(tmp_path), "--c", "1e160",
                 "--format", fmt, "--output", str(out)]) == 2
    err = one_line_error(capsys)
    assert err.startswith("solver error: ") and "c = 1e+160" in err
    assert not out.exists()


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
    assert set(stats) == {"steps_accepted", "steps_rejected", "stage_evals"}
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
    assert list(stats) == ["steps_accepted", "steps_rejected", "stage_evals"]
    assert stats["stage_evals"] == 1 + 6 * (stats["steps_accepted"]
                                            + stats["steps_rejected"])


# -- sweep ------------------------------------------------------------------------

SWEEP_ANALYSIS = {"t_end": 300.0, "probe_scales": [0.25, 0.5, 1.0], "rtol": 1e-7}


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
    direct, = classify_dynamics([(p, find_equilibrium(p))],
                                probe_scales=(0.25, 0.5, 1.0), eta_end=300.0,
                                rtol=1e-7)
    assert label == direct == "stable"


@pytest.mark.parametrize("lanes_from,runner", [(10**9, "run_perturbed"), (1, "lane_runs")],
                         ids=["scalar", "lanes"])
def test_the_sweeps_t_end_is_its_probe_length(tmp_path, capsys, monkeypatch,
                                               lanes_from, runner):
    # one cell, one probe: it runs to the config's t_end, alone or as a lane
    ends = []
    run, lane_runs = dde.run_perturbed, lanes.lane_runs

    def recorded_run(params, eq, kick_scale, eta_end, *args):
        ends.append(("run_perturbed", eta_end))
        return run(params, eq, kick_scale, eta_end, *args)

    def recorded_lanes(runs, eta_end, rtol):
        ends.append(("lane_runs", eta_end))
        return lane_runs(runs, eta_end, rtol)

    monkeypatch.setattr(dde, "run_perturbed", recorded_run)
    monkeypatch.setattr(lanes, "lane_runs", recorded_lanes)
    monkeypatch.setattr(dde, "LANES_FROM", lanes_from)
    path = write_cfg(tmp_path, {
        "analysis": dict(SWEEP_ANALYSIS, t_end=360.0, probe_scales=[0.5],
                         grid={"eps": [RV.EPS0 - 0.1], "c": [0.01]}),
        "output": {"format": "json"},
    })
    assert main(["sweep", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["labels"] == [["stable"]]
    assert ends == [(runner, 360.0)]


def test_no_probes_label_cells_from_the_spectrum_alone(tmp_path, capsys, monkeypatch):
    # an empty ladder makes no run: each cell is stable or oscillating as
    # its equilibrium's spectrum says
    def no_runs(*args, **kwargs):
        raise AssertionError("a cell with no probes made a run")

    monkeypatch.setattr(dde, "run_perturbed", no_runs)
    path = write_cfg(tmp_path, {
        "analysis": dict(SWEEP_ANALYSIS, probe_scales=[],
                         grid={"eps": [RV.EPS0 - 0.01, RV.EPS0 + 0.01],
                               "c": [0.01, 1.2]}),
        "output": {"format": "json"},
    })
    assert main(["sweep", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["labels"] == [
        ["stable", "stable"], ["oscillating", "oscillating"]]


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


@pytest.mark.parametrize("analysis,c0", [({}, RV.C0), ({"c_max": 0.02}, None)],
                         ids=["default", "c-max-below-c0"])
def test_sweep_c0_overlay_is_the_normal_form_c0(tmp_path, capsys, analysis, c0):
    # one cell that fails at once: the overlays do not depend on the cells
    path = write_cfg(tmp_path, {
        "analysis": dict(analysis, grid={"eps": [-1.0], "c": [0.01]}),
        "output": {"format": "json"}})
    assert main(["sweep", "--config", path]) == 0
    overlay = json.loads(capsys.readouterr().out)["results"]["overlays"]["c0"]
    assert main(["normal-form", "--config", path]) == 0
    assert overlay == json.loads(capsys.readouterr().out)["results"]["c0"]
    assert overlay == (pytest.approx(c0, rel=1e-8) if c0 else None)


def test_sweep_c0_overlay_survives_a_base_c_whose_kappa3_overflows(tmp_path, capsys):
    # the overlay reads only the kappa3(c) quadratic, not kappa3 at the base c
    path = write_cfg(tmp_path, {
        "model": {"c": 1e160},
        "analysis": {"grid": {"eps": [-1.0], "c": [0.01]}},
        "output": {"format": "json"}})
    assert main(["sweep", "--config", path]) == 0
    overlays = json.loads(capsys.readouterr().out)["results"]["overlays"]
    assert overlays["c0"] == pytest.approx(RV.C0, rel=1e-8)
    assert main(["normal-form", "--config", path]) == 2


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


def test_lanes_fall_back_per_run_and_keep_cells_apart(tmp_path, capsys, monkeypatch):
    # one grid with an invalid eps, cells whose equilibrium overflows, and
    # cells whose 1.45 probe escapes (its lane breaches the floor and is run
    # again alone); every entry is what the runs one after another give
    eps = [-1.0, RV.EPS0 - 0.1, RV.EPS0 + 0.1]
    mu_m = [1e-300, 0.03]
    probes = [0.5, 1.45]
    path = write_cfg(tmp_path, {
        "model": {"c": 0.025},
        "analysis": dict(SWEEP_ANALYSIS, probe_scales=probes,
                         grid={"mu_m": mu_m, "eps": eps}),
        "output": {"format": "json"}})
    rerun = []
    run_perturbed = dde.run_perturbed

    def recorded(params, eq, kick_scale, *args, **kwargs):
        rerun.append(kick_scale)
        return run_perturbed(params, eq, kick_scale, *args, **kwargs)

    monkeypatch.setattr(dde, "LANES_FROM", 1)
    monkeypatch.setattr(dde, "run_perturbed", recorded)
    assert main(["sweep", "--config", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    labels = json.loads(captured.out)["results"]["labels"]
    monkeypatch.undo()

    def reference(m, e):
        try:
            p = hes1_params(c=0.025, eps=e, mu_m=m)
            eq = find_equilibrium(p)
        except (ValueError, ArithmeticError) as exc:
            return "error: %s" % exc
        return scalar_cell_label(p, eq, probe_scales=probes, eta_end=300.0, rtol=1e-7)

    assert labels == [[reference(m, e) for e in eps] for m in mu_m]
    assert labels[0] == ["error: eps must be positive"] + [
        "error: (34, 'Numerical result out of range')"] * 2
    assert labels[1][0] == "error: eps must be positive"
    assert labels[1][1:] == ["metastable", "unstable"]
    # only the two escaping probes ran again outside the lanes
    assert rerun == [-1.45, -1.45]


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
    # kappa3(c) comes out of one series pass, fit at no points: fit_points
    # is refused whatever its value
    ("normal-form", {"analysis": {"fit_points": [0.0, 0.01]}}, 1,
     "config error: unknown key(s) fit_points in analysis block"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, transient_fraction=2)}, 1,
     "config error: analysis.transient_fraction"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, rtol=None)}, 1,
     "config error: field 'rtol'"),
    ("simulate", {"analysis": dict(SIM_ANALYSIS, transient_fraction=[0.5])}, 1,
     "config error: field 'transient_fraction'"),
    ("normal-form", {"analysis": {"fit_points": None}}, 1,
     "config error: unknown key(s) fit_points in analysis block"),
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
    # read before the overlays, whose solver failures only blank them
    ("sweep", {"analysis": {"grid": {"c": [0.01], "eps": [6.0]}, "c_max": -1.0}}, 1,
     "config error: analysis.c_max must be >= 0"),
    ("normal-form", {"analysis": {"fit_points": [0.0, 0.0, 0.0]}}, 1,
     "config error: unknown key(s) fit_points in analysis block"),
    ("normal-form", {"analysis": {"fit_points": [0.0, 0.01, float("nan")]}}, 1,
     "config error: unknown key(s) fit_points in analysis block"),
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
    # a config that still gives small_kick is refused: the spectrum,
    # not a small-kick run, gives a sweep cell's local regime
    ("sweep", {"analysis": {"grid": {"eps": [6.7], "c": [0.01]}, "small_kick": 0.05}}, 1,
     "config error: unknown key(s) small_kick in analysis block"),
    # a zero probe is no perturbation: it used to label this stable cell
    # metastable, with exit 0
    ("sweep", {"analysis": {"grid": {"eps": [6.7], "c": [0.01]}, "probe_scales": [0]}}, 1,
     "config error: analysis.probe_scales[0] must be > 0, got 0.0"),
    ("sweep", {"analysis": {"grid": {"eps": [6.7], "c": [0.01]},
                            "probe_scales": [0.25, -0.5]}}, 1,
     "config error: analysis.probe_scales[1] must be > 0, got -0.5"),
    # HillRepressor refuses them too, in words that did not name the field
    ("equilibrium", {"model": {"nonlinearity": {"kind": "hes1", "ybar": -1.0}}}, 1,
     "config error: nonlinearity.ybar must be > 0, got -1.0"),
    ("simulate", {"model": {"nonlinearity": {"kind": "hes1", "h": -2}},
                  "analysis": SIM_ANALYSIS}, 1,
     "config error: nonlinearity.h must be > 0, got -2.0"),
    ("sweep", {"model": {"nonlinearity": {"kind": "hes1", "h": 0}},
               "analysis": {"grid": {"eps": [6.7], "c": [0.01]}}}, 1,
     "config error: nonlinearity.h must be > 0, got 0.0"),
    # each used to end in a traceback, be read as something else, or pass
    # unchecked with exit 0
    ("equilibrium", {"model": {"nonlinearity": {"kind": []}}}, 1,
     "config error: nonlinearity.kind must be one of hes1, zero, got []"),
    ("equilibrium", {"model": [["c", 0.01], ["eps", 6.5]]}, 1,
     "config error: model block must be an object"),
    ("equilibrium", {"analysis": []}, 1, "config error: analysis block must be an object"),
    ("equilibrium", {"output": 0}, 1, "config error: output block must be an object"),
    ("equilibrium", {"analysis": "ab"}, 1, "config error: analysis block must be an object"),
    ("equilibrium", {"output": {"path": True}}, 1,
     "config error: field 'path' in output block must be a string"),
    # an int path would name a file descriptor; no process holds this one
    ("equilibrium", {"output": {"path": 999999}}, 1,
     "config error: field 'path' in output block must be a string"),
    ("equilibrium", {"output": {"path": ["a"]}}, 1,
     "config error: field 'path' in output block must be a string"),
    # fields the command never reads are checked all the same
    ("equilibrium", {"analysis": {"rtol": -1}}, 1,
     "config error: analysis.rtol must be > 0, got -1.0"),
    ("stability", {"analysis": {"t_end": "x"}}, 1,
     "config error: field 't_end' in analysis block must be a number"),
    ("normal-form", {"output": {"n_samples": 1.5}}, 1,
     "config error: output.n_samples must be an integer of at least 2, got 1.5"),
    ("equilibrium", {"output": {"path": str(RECIPES / "hes1.json" / "out.txt")}}, 1,
     "config error: cannot write %s: " % (RECIPES / "hes1.json" / "out.txt")),
], ids=["overflow", "rtol-not-a-number", "two-fit-points", "transient-fraction",
        "rtol-null", "transient-fraction-list", "fit-points-null", "c-max-string",
        "eps-k-fraction", "grid-nested-list", "probe-scales-string",
        "n-samples-fraction", "t-end-negative", "t-end-infinite", "rtol-negative",
        "rtol-atol-zero", "atol-zero", "c-max-negative", "sweep-c-max-negative",
        "repeated-fit-points",
        "fit-points-nan", "alpha-p-negative", "alpha-m-negative", "system-unknown",
        "format-unknown", "small-kick-retired", "probe-scale-zero", "probe-scale-negative",
        "ybar-negative", "hill-exponent-negative", "hill-exponent-zero",
        "kind-list", "model-pairs", "analysis-list", "output-number", "analysis-string",
        "path-true", "path-int", "path-list", "equilibrium-rtol-negative",
        "stability-t-end-string", "normal-form-n-samples-fraction", "path-unwritable"])
def test_bad_input_ends_in_one_line(tmp_path, capsys, command, overrides, rc, prefix):
    out = tmp_path / "out.txt"
    output = overrides.get("output", {})
    if isinstance(output, dict):    # a path the case gives stands
        output = dict({"path": str(out)}, **output)
    path = write_cfg(tmp_path, dict(overrides, output=output))
    assert main([command, "--config", path]) == rc
    assert one_line_error(capsys).startswith(prefix)
    assert not out.exists()


@pytest.mark.parametrize("flag,value,prefix", [
    ("--t-end", "-5", "config error: analysis.t_end must be > 0, got -5.0"),
    ("--eps-k", "-1", "config error: analysis.eps_k must be a non-negative integer"),
    ("--eps", "nan", "config error: field 'eps' in model block must be finite"),
])
def test_a_flag_is_checked_as_its_field_is(tmp_path, capsys, flag, value, prefix):
    assert main(["equilibrium", "--config", write_cfg(tmp_path), flag, value]) == 1
    assert one_line_error(capsys).startswith(prefix)


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


COMMANDS = ["equilibrium", "stability", "normal-form", "simulate", "sweep"]
ALL_FLAGS = ["--config", "cfg.json", "--eps", "6.5", "--c", "0.02",
             "--system", "original", "--t-end", "50", "--eps-k", "2",
             "--format", "csv", "--output", "out.csv"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_takes_all_eight_flags_on_either_side(command):
    parser = _build_parser()
    after = parser.parse_args([command] + ALL_FLAGS)
    assert vars(after) == {"command": command, "config": "cfg.json", "eps": 6.5,
                           "c": 0.02, "system": "original", "t_end": 50.0,
                           "eps_k": 2, "fmt": "csv", "output": "out.csv"}
    assert parser.parse_args(ALL_FLAGS + [command]) == after
    assert parser.parse_args(ALL_FLAGS[:6] + [command] + ALL_FLAGS[6:]) == after


def test_flags_before_the_command_give_the_same_output(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert main(["stability", "--config", path, "--eps-k", "2",
                 "--format", "json"]) == 0
    after = capsys.readouterr().out
    assert main(["--config", path, "--eps-k", "2", "--format", "json",
                 "stability"]) == 0
    assert capsys.readouterr().out == after


def test_help_exits_zero_and_lists_the_commands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: sddhopf")
    assert all(command in out for command in COMMANDS)


@pytest.mark.parametrize("columns", ["40", "80", "132"])
def test_help_matches_the_stock_formatter(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    parser = _build_parser()
    ours = parser.format_help()
    parser.formatter_class = argparse.HelpFormatter
    assert parser.format_help() == ours


def test_a_command_queries_the_terminal_size_once(tmp_path, capsys, monkeypatch):
    # the parser main() uses was built at import: a command queries the
    # terminal 0 times, and one build queries it once, not once per flag
    calls = []
    query = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *a: calls.append(a) or query(*a))
    assert main(["equilibrium", "--config", write_cfg(tmp_path)]) == 0
    assert len(calls) == 0
    _build_parser()
    assert len(calls) == 1


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    def refuse():
        raise AssertionError("main() built a parser")

    path = write_cfg(tmp_path, {"analysis": dict(SIM_ANALYSIS,
                                                 grid={"eps": [-1.0], "c": [0.01]})})
    monkeypatch.setattr(cli, "_build_parser", refuse)
    for command in COMMANDS:
        assert main([command, "--config", path]) == 0, command


def test_the_shared_parser_keeps_nothing_from_earlier_calls(tmp_path, capsys):
    argv = ["stability", "--config", write_cfg(tmp_path), "--eps-k", "2",
            "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["equilibrium", "--config", "x", "--format", "xml"]) == 1
    assert main(["--help"]) == 0
    assert main(argv[1:] + ["normal-form"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["no-such-command", "--config", "x"],
    ["--config", "x"],
    ["equilibrium"],
    ["equilibrium", "--config", "x", "--format", "xml"],
    ["equilibrium", "sweep", "--config", "x"],
], ids=["unknown-command", "no-command", "no-config", "bad-choice", "two-commands"])
def test_usage_error_is_one_line_with_exit_one(capsys, argv):
    assert main(argv) == 1
    assert one_line_error(capsys).startswith("sddhopf: error: ")


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


def _unnamed(doc, schema, where=""):
    """The fields of schema that doc leaves out, as dotted paths."""
    out = []
    for key, check in schema.items():
        if key not in doc:
            out.append(where + key)
        elif isinstance(check, dict):
            out += _unnamed(doc[key], check, where + key + ".")
    return out


def test_readme_config_example_loads_and_names_every_field(tmp_path):
    readme = (RECIPES.parent / "README.md").read_text()
    section = readme.split("### Config file\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.json"
    path.write_text(example)
    assert _unnamed(load_config(str(path)).to_dict(), _SCHEMA) == []


@pytest.mark.parametrize("recipe", sorted(RECIPES.glob("*.json")))
def test_shipped_recipes_load(recipe):
    cfg = load_config(str(recipe))
    assert cfg.to_dict() == json.loads(recipe.read_text())
