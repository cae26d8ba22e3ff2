"""Command-line front end for the delayed-feedback analysis pipeline.

One JSON config document drives every subcommand; it has three blocks
(model, analysis, output) and unknown keys anywhere are rejected so typos
fail loudly. Individual flags override single fields. Exit codes:
0 success, 1 config error, 2 solver failure, 3 resonance violation,
4 integration failure.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import dde
from .errors import (ConfigError, InsufficientCycles, IntegrationError,
                     ResonanceViolation, SddhopfError)
from .model import ModelParams, find_equilibrium
from .nonlinearity import NonlinearitySpec, ZeroMap, hes1_nonlinearity
from .normalform import analyze_normal_form
from .stability import StabilityKind, classify_stability

_TOP_KEYS = {"model", "analysis", "output"}
_MODEL_KEYS = {"nonlinearity", "mu_m", "mu_p", "c", "eps"}
_NONLIN_KEYS = {"hes1": {"kind", "alpha_m", "ybar", "h", "alpha_p"},
                "zero": {"kind"}}
_ANALYSIS_KEYS = {"eps_k", "fit_points", "c_max", "system", "t_end",
                  "kick_scale", "rtol", "atol", "transient_fraction",
                  "grid", "small_kick", "probe_scales"}
_OUTPUT_KEYS = {"format", "path", "n_samples"}
_SWEEPABLE = ("mu_m", "mu_p", "c", "eps")
# allowed values of the config numbers that have a range
_RANGES = {"alpha_m": (lambda v: v >= 0, ">= 0"),
           "alpha_p": (lambda v: v >= 0, ">= 0"),
           "t_end": (lambda v: v > 0, "> 0"),
           "rtol": (lambda v: v > 0, "> 0"),
           "atol": (lambda v: v > 0, "> 0"),
           "c_max": (lambda v: v >= 0, ">= 0"),
           "transient_fraction": (lambda v: 0 <= v < 1, "in [0, 1)"),
           "eps_k": (lambda v: v >= 0 and v.is_integer(), "a non-negative integer")}
# allowed values of the config strings that name a choice
_CHOICES = {("analysis", "system"): ("original", "transformed"),
            ("output", "format"): ("csv", "json", "text")}


def _reject_unknown(block, allowed, where):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError("unknown key(s) %s in %s block"
                          % (", ".join(sorted(unknown)), where))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _need_number(block, key, where, default=None):
    if key not in block:
        if default is None:
            raise ConfigError("missing required field '%s' in %s block" % (key, where))
        return default
    v = block[key]
    if not _is_number(v):
        raise ConfigError("field '%s' in %s block must be a number" % (key, where))
    if not math.isfinite(v):
        raise ConfigError("field '%s' in %s block must be finite, got %r" % (key, where, v))
    v = float(v)
    if key in _RANGES and not _RANGES[key][0](v):
        raise ConfigError("%s.%s must be %s, got %r" % (where, key, _RANGES[key][1], v))
    return v


def _need_numbers(block, key, where, default):
    if key not in block:
        return default
    v = block[key]
    if not isinstance(v, list) or not all(_is_number(e) and math.isfinite(e) for e in v):
        raise ConfigError("field '%s' in %s block must be a list of finite numbers"
                          % (key, where))
    return tuple(float(e) for e in v)


class RunConfig:
    """Validated view over the raw config dict. The raw dict is kept verbatim,
    so serialization round-trips losslessly, apart from the fields that
    override() sets."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        _reject_unknown(raw, _TOP_KEYS, "top-level")
        self.raw = dict(raw)
        self.model = dict(raw.get("model") or {})
        self.analysis = dict(raw.get("analysis") or {})
        self.output = dict(raw.get("output") or {})
        _reject_unknown(self.model, _MODEL_KEYS, "model")
        _reject_unknown(self.analysis, _ANALYSIS_KEYS, "analysis")
        _reject_unknown(self.output, _OUTPUT_KEYS, "output")
        for (block, key), allowed in _CHOICES.items():
            fields = getattr(self, block)
            if key in fields and fields[key] not in allowed:
                raise ConfigError("%s.%s must be one of %s, got %r"
                                  % (block, key, ", ".join(allowed), fields[key]))
        nl = self.model.get("nonlinearity", {"kind": "hes1"})
        if not isinstance(nl, dict):
            raise ConfigError("model.nonlinearity must be an object")
        kind = nl.get("kind", "hes1")
        if kind not in _NONLIN_KEYS:
            raise ConfigError("unknown nonlinearity kind '%s' (expected %s)"
                              % (kind, " or ".join(sorted(_NONLIN_KEYS))))
        _reject_unknown(nl, _NONLIN_KEYS[kind], "model.nonlinearity")
        self.nonlinearity_block = dict(nl, kind=kind)
        grid = self.analysis.get("grid")
        if grid is not None:
            if (not isinstance(grid, dict) or len(grid) != 2
                    or any(k not in _SWEEPABLE for k in grid)
                    or any(not isinstance(v, list) or not v
                           or not all(map(_is_number, v)) for v in grid.values())):
                raise ConfigError("analysis.grid must map exactly two of %s "
                                  "to non-empty lists of numbers" % (_SWEEPABLE,))

    def to_dict(self):
        return self.raw

    def override(self, block, key, value):
        """Set one field of the model, analysis or output block, both in
        the view the commands read and in the echoed config."""
        fields = getattr(self, block)
        fields[key] = value
        self.raw[block] = fields

    def nonlinearity(self) -> NonlinearitySpec:
        nl = self.nonlinearity_block
        if nl["kind"] == "zero":
            return NonlinearitySpec(f=ZeroMap(), g=ZeroMap())
        h = _need_number(nl, "h", "nonlinearity", 5.0)
        # runs that drive xi negative need (y/ybar)**h real there
        if not h.is_integer():
            raise ConfigError("field 'h' in nonlinearity block must be an "
                              "integer, got %r" % nl["h"])
        return hes1_nonlinearity(
            alpha_m=_need_number(nl, "alpha_m", "nonlinearity", 35.0),
            ybar=_need_number(nl, "ybar", "nonlinearity", 1200.0),
            h=h,
            alpha_p=_need_number(nl, "alpha_p", "nonlinearity", 10.0))

    def params(self) -> ModelParams:
        try:
            return ModelParams(
                mu_m=_need_number(self.model, "mu_m", "model", 0.03),
                mu_p=_need_number(self.model, "mu_p", "model", 0.04),
                c=_need_number(self.model, "c", "model"),
                eps=_need_number(self.model, "eps", "model"),
                nonlinearity=self.nonlinearity())
        except ValueError as exc:
            raise ConfigError(str(exc))

    # analysis/output accessors with defaults
    def system(self):
        return self.analysis.get("system", "transformed")

    def number(self, key, default):
        return _need_number(self.analysis, key, "analysis", default)

    def numbers(self, key, default):
        return _need_numbers(self.analysis, key, "analysis", default)

    def out_format(self):
        return self.output.get("format", "text")

    def out_path(self):
        return self.output.get("path")

    def n_samples(self):
        n = _need_number(self.output, "n_samples", "output", 1000.0)
        if not n.is_integer() or n < 2:
            raise ConfigError("output.n_samples must be an integer of at least 2")
        return int(n)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    return RunConfig(raw)


# flag -> (block, key) it overrides
_FLAGS = {"eps": ("model", "eps"), "c": ("model", "c"),
          "system": ("analysis", "system"), "t_end": ("analysis", "t_end"),
          "eps_k": ("analysis", "eps_k"), "fmt": ("output", "format"),
          "output": ("output", "path")}


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    for flag, (block, key) in _FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            cfg.override(block, key, value)
    return cfg


# -- output plumbing -----------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _kv_csv(payload):
    """Two-column key,value CSV; complex values split into .re/.im rows."""
    lines = ["key,value"]

    def emit(prefix, value):
        if isinstance(value, complex):
            emit(prefix + ".re", value.real)
            emit(prefix + ".im", value.imag)
        elif isinstance(value, dict):
            for k, v in value.items():
                emit(prefix + "." + k if prefix else k, v)
        elif isinstance(value, (list, tuple, np.ndarray)):
            for i, v in enumerate(value):
                emit("%s[%d]" % (prefix, i), v)
        elif isinstance(value, float):
            lines.append("%s,%.17g" % (prefix, value))
        else:
            lines.append("%s,%s" % (prefix, value))

    for key, value in payload.items():
        emit(key, value)
    return "\n".join(lines) + "\n"


def _emit_report(payload, text, command, cfg, csv=None):
    """Write the command's result in the configured format: JSON
    {command, config, results}, CSV (csv() when given, else key,value rows
    of the payload) or the text summary."""
    fmt = cfg.out_format()
    if fmt == "json":
        doc = {"command": command, "config": cfg.to_dict(), "results": _jsonable(payload)}
        _write(json.dumps(doc, indent=2) + "\n", cfg.out_path())
    elif fmt == "csv":
        _write(csv() if csv else _kv_csv(payload), cfg.out_path())
    else:
        _write(text, cfg.out_path())
    return 0


def _cfmt(z):
    return "%.10g %+.10gi" % (z.real, z.imag)


# -- subcommands ---------------------------------------------------------------

def cmd_equilibrium(cfg: RunConfig):
    params = cfg.params()
    eq = find_equilibrium(params)
    f, g = params.nonlinearity.f, params.nonlinearity.g
    res_r = -params.mu_m * eq.r_star + f.value(eq.xi_star)
    res_xi = -params.mu_p * eq.xi_star + g.value(eq.r_star)
    payload = {"r_star": eq.r_star, "xi_star": eq.xi_star,
               "f_prime": eq.f1, "g_prime": eq.g1, "p": eq.p,
               "residual_r": res_r, "residual_xi": res_xi}
    text = ("equilibrium: r* = %.10g, xi* = %.10g\n"
            "f'(xi*) = %.10g\ng'(r*) = %.10g\ncoupling p = f' g' = %.10g\n"
            "residuals: %.3e, %.3e\n"
            % (eq.r_star, eq.xi_star, eq.f1, eq.g1, eq.p, res_r, res_xi))
    return _emit_report(payload, text, "equilibrium", cfg)


def cmd_stability(cfg: RunConfig):
    params = cfg.params()
    k_count = int(cfg.number("eps_k", 0.0))
    eq = find_equilibrium(params)
    cls = classify_stability(eq, params.mu_m, params.mu_p, params.eps)
    if cls.kind is StabilityKind.STABLE_FOR_ALL_EPS:
        payload = {"classification": cls.kind.value, "eps0": None}
        text = ("equilibrium is stable for all eps > 0 "
                "(no purely imaginary characteristic roots exist)\n")
        return _emit_report(payload, text, "stability", cfg)
    hp = cls.hopf
    eps_k = [hp.eps_k(k) for k in range(1, k_count + 1)]
    payload = {"classification": cls.kind.value, "eps": params.eps,
               "eps0": hp.eps0, "omega": hp.omega, "l": hp.l,
               "dalpha_deps": hp.dalpha_deps, "eps_k": eps_k}
    lines = ["classification at eps = %.10g: %s" % (params.eps, cls.kind.value),
             "eps0 = %.10g" % hp.eps0,
             "omega = %.10g" % hp.omega,
             "l = %.10g" % hp.l,
             "dalpha/deps at eps0 = %.10g" % hp.dalpha_deps]
    for k, ek in enumerate(eps_k, start=1):
        lines.append("eps_%d = %.10g" % (k, ek))
    return _emit_report(payload, "\n".join(lines) + "\n", "stability", cfg)


def cmd_normal_form(cfg: RunConfig):
    params = cfg.params()
    rep = analyze_normal_form(params,
                              fit_cs=cfg.numbers("fit_points", (0.0, 0.01, 0.05)),
                              c_max=cfg.number("c_max", 1.0))
    payload = {"eps0": rep.hopf.eps0, "omega": rep.hopf.omega,
               "kappa1": rep.kappa1, "kappa3": rep.kappa3,
               "direction": rep.direction.value, "c": rep.c, "c0": rep.c0,
               "re_kappa3_coeffs": list(rep.poly.re_coeffs),
               "im_kappa3_coeffs": list(rep.poly.im_coeffs)}
    rq, iq = rep.poly.re_coeffs, rep.poly.im_coeffs
    lines = ["kappa1 = %s" % _cfmt(rep.kappa1),
             "kappa3(c = %.10g) = %s" % (rep.c, _cfmt(rep.kappa3)),
             "Re kappa3(c) = %.10g c^2 %+.10g c %+.10g" % rq,
             "Im kappa3(c) = %.10g c^2 %+.10g c %+.10g" % iq,
             "direction at c = %.10g: %s" % (rep.c, rep.direction.value),
             "c0 = %s" % ("%.10g" % rep.c0 if rep.c0 is not None
                          else "none in (0, c_max]")]
    return _emit_report(payload, "\n".join(lines) + "\n", "normal-form", cfg)


def _trajectory_csv(traj: dde.Trajectory) -> str:
    rows = np.column_stack([traj.t, traj.states, traj.delay])
    return (",".join(traj.columns) + "\n"
            + "%.17g,%.17g,%.17g,%.17g\n" * len(rows) % tuple(rows.ravel().tolist()))


def _run_simulation(cfg: RunConfig):
    params = cfg.params()
    t_end = cfg.number("t_end", 400.0)
    kick_scale = cfg.number("kick_scale", 0.05)
    rtol = cfg.number("rtol", 1e-8)
    atol = cfg.number("atol", 1e-9)
    eq = find_equilibrium(params)
    kick = kick_scale * eq.state
    samples = np.linspace(0.0, t_end, cfg.n_samples())
    if cfg.system() == "original":
        hist = dde.bump_history(eq.state, kick, span=params.eps)
        traj = dde.integrate_sdd(hist, params.eps, params, t_end,
                                 rtol=rtol, atol=atol, sample_times=samples)
    else:
        hist = dde.bump_history(eq.state, kick, span=1.0)
        traj = dde.integrate_transformed(hist, params, t_end, rtol=rtol,
                                         atol=atol, sample_times=samples)
    return params, eq, traj


def _summary_dict(traj, transient_fraction):
    try:
        osc = dde.measure_oscillation(traj, component=0,
                                      transient_fraction=transient_fraction)
        return {"amplitude": osc.amplitude, "period": osc.period,
                "decay_rate": osc.decay_rate, "n_extrema": osc.n_extrema,
                "mean": osc.mean}
    except InsufficientCycles as exc:
        return {"note": "no oscillation detected (%s)" % exc}


def _summary_text(traj, summary):
    lines = ["system: %s" % traj.kind, "status: %s" % traj.status,
             "t_final = %.10g" % traj.t_final]
    if "note" in summary:
        lines.append(summary["note"])
    else:
        lines.append("oscillation: amplitude = %.10g, period = %.10g, "
                     "decay_rate = %.10g, extrema = %d"
                     % (summary["amplitude"], summary["period"],
                        summary["decay_rate"], summary["n_extrema"]))
    mons = ", ".join("%s = %.6g" % (k, v) for k, v in sorted(traj.monitors.items())
                     if isinstance(v, float) and math.isfinite(v))
    lines.append("monitors: %s" % mons)
    lines.append("stats: %s" % ", ".join(
        "%s = %d" % kv for kv in dataclasses.asdict(traj.stats).items()))
    return "\n".join(lines) + "\n"


def cmd_simulate(cfg: RunConfig):
    transient_fraction = cfg.number("transient_fraction", 0.5)
    params, eq, traj = _run_simulation(cfg)
    summary = _summary_dict(traj, transient_fraction)
    text = _summary_text(traj, summary)
    # rows stay an array: only the JSON writer turns them into lists
    payload = {"status": traj.status, "summary": summary,
               "monitors": traj.monitors, "stats": dataclasses.asdict(traj.stats),
               "events": traj.events[:50],
               "columns": list(traj.columns),
               "rows": np.column_stack([traj.t, traj.states, traj.delay])}
    _emit_report(payload, text, "simulate", cfg, csv=lambda: _trajectory_csv(traj))
    if cfg.out_format() == "csv":
        sys.stderr.write(text)
    if traj.status != dde.STATUS_COMPLETED:
        sys.stderr.write("integration ended early: %s\n" % traj.status)
        for ev in traj.events[-20:]:
            sys.stderr.write("  event t = %.6g: %s %s\n"
                             % (ev["t"], ev["kind"], ev.get("detail", "")))
        return 4
    return 0


def _csv_field(text):
    """text as one CSV field, quoted when it holds a comma or a quote."""
    if "," in text or '"' in text:
        return '"%s"' % text.replace('"', '""')
    return text


def cmd_sweep(cfg: RunConfig):
    grid = cfg.analysis.get("grid")
    if grid is None:
        raise ConfigError("sweep requires an analysis.grid block")
    (row_name, row_vals), (col_name, col_vals) = grid.items()
    base = cfg.params()
    eta_end = cfg.number("t_end", 400.0)
    small_kick = cfg.number("small_kick", 0.05)
    probe_scales = cfg.numbers("probe_scales", (0.25, 0.5, 1.0))
    rtol = cfg.number("rtol", 1e-7)

    def cell(rv, cv):
        # one bad cell (a grid value ModelParams rejects, or one whose
        # equilibrium solve overflows) is reported in place; the rest of
        # the grid still runs
        try:
            par = base.with_overrides(**{row_name: rv, col_name: cv})
            eq = find_equilibrium(par)
            return dde.classify_dynamics(par, eq, small_kick=small_kick,
                                         probe_scales=probe_scales,
                                         eta_end=eta_end, rtol=rtol)
        except (SddhopfError, ValueError, ArithmeticError) as exc:
            return "error: %s" % (str(exc) or type(exc).__name__)

    # cells are pure Python under the interpreter lock: threads gain nothing
    labels = [[cell(rv, cv) for cv in col_vals] for rv in row_vals]

    overlays = {"eps0": None, "c0": None}
    try:
        eq0 = find_equilibrium(base)
        cls = classify_stability(eq0, base.mu_m, base.mu_p, base.eps)
        if cls.hopf is not None:
            overlays["eps0"] = cls.hopf.eps0
    except SddhopfError:
        pass
    try:
        overlays["c0"] = analyze_normal_form(base).c0
    except SddhopfError:
        pass

    payload = {"rows": {row_name: list(row_vals)},
               "cols": {col_name: list(col_vals)},
               "labels": labels, "overlays": overlays}

    def grid_csv():
        lines = ["%s\\%s," % (row_name, col_name)
                 + ",".join("%.17g" % v for v in col_vals)]
        for rv, row in zip(row_vals, labels):
            lines.append("%.17g," % rv + ",".join(_csv_field(s) for s in row))
        return "\n".join(lines) + "\n"

    width = max(12, max(len(s) for row in labels for s in row) + 2)
    head = " " * 18 + "".join(("%s=%-10.6g" % (col_name, v)).ljust(width)
                              for v in col_vals)
    lines = ["sweep: %s (rows) x %s (cols)" % (row_name, col_name),
             "overlays: eps0 = %s, c0 = %s"
             % tuple("%.10g" % v if v is not None else "n/a"
                     for v in (overlays["eps0"], overlays["c0"])),
             head]
    for rv, row in zip(row_vals, labels):
        lines.append(("%s=%-10.6g" % (row_name, rv)).ljust(18)
                     + "".join(s.ljust(width) for s in row))
    return _emit_report(payload, "\n".join(lines) + "\n", "sweep", cfg, csv=grid_csv)


# -- entry point -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):          # usage problems are config errors (exit 1)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    parser = _Parser(prog="sddhopf",
                     description="Analysis pipeline for a two-component "
                                 "feedback loop with threshold-type "
                                 "state-dependent delay.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("equilibrium", "stability", "normal-form", "simulate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--eps", type=float, help="override model.eps")
        p.add_argument("--c", type=float, help="override model.c")
        p.add_argument("--system", choices=["original", "transformed"],
                       help="override analysis.system")
        p.add_argument("--t-end", dest="t_end", type=float,
                       help="override analysis.t_end")
        p.add_argument("--eps-k", dest="eps_k", type=int,
                       help="number of additional critical delay scales")
        p.add_argument("--format", dest="fmt", choices=["csv", "json", "text"],
                       help="override output.format")
        p.add_argument("--output", help="override output.path")
    return parser


_DISPATCH = {"equilibrium": cmd_equilibrium, "stability": cmd_stability,
             "normal-form": cmd_normal_form, "simulate": cmd_simulate,
             "sweep": cmd_sweep}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits for usage errors (1 via _Parser.error) and --help (0)
        return int(exc.code or 0)
    try:
        cfg = _apply_flags(load_config(args.config), args)
        return _DISPATCH[args.command](cfg)
    except ConfigError as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 1
    except ResonanceViolation as exc:
        sys.stderr.write("resonance violation: %s\n" % exc)
        return 3
    except IntegrationError as exc:
        sys.stderr.write("integration error: %s\n" % exc)
        return 4
    except SddhopfError as exc:
        sys.stderr.write("solver error: %s\n" % exc)
        return 2
    # what the typed errors above miss: a config value the code could not
    # use, or floating-point trouble in a solve
    except ValueError as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 1
    except ArithmeticError as exc:
        sys.stderr.write("solver error: %s: %s\n" % (type(exc).__name__, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
