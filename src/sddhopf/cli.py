"""Command-line front end for the delayed-feedback analysis pipeline.

One JSON config document drives every subcommand; it has three blocks
(model, analysis, output), unknown keys anywhere are rejected so typos
fail loudly, and every field is checked when the document is read,
whatever the command. Individual flags override single fields. Exit codes:
0 success, 1 config error, 2 solver failure, 3 resonance violation,
4 integration failure.
"""

import argparse
import functools
import json
import math
import shutil
import sys

from .errors import (ConfigError, InsufficientCycles, IntegrationError,
                     ResonanceViolation, SddhopfError)
from .model import ModelParams, _equilibrium_residuals, find_equilibrium
from .nonlinearity import NonlinearitySpec, ZeroMap, hes1_nonlinearity
from .normalform import analyze_normal_form
from .stability import StabilityKind, classify_stability

_SWEEPABLE = ("mu_m", "mu_p", "c", "eps")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _grid(grid):
    # non-finite grid values are reported in their sweep cells
    if (not isinstance(grid, dict) or len(grid) != 2
            or any(k not in _SWEEPABLE for k in grid)
            or any(not isinstance(v, list) or not v
                   or not all(map(_is_number, v)) for v in grid.values())):
        raise ConfigError("analysis.grid must map exactly two of %s "
                          "to non-empty lists of numbers" % (_SWEEPABLE,))
    return grid


# a number that must be finite and nothing more
_FINITE = (lambda v: True, "finite")
_POSITIVE = (lambda v: v > 0, "> 0")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")

# block -> key -> check. A check is a range (test, words) on a finite number,
# a list [range] of finite numbers, a tuple of allowed strings, str for any
# string, a dict for a nested block, or a function of the value for the
# grid. Every field a document gives is checked when it is read.
_SCHEMA = {
    "model": {
        "nonlinearity": {"kind": ("hes1", "zero"), "alpha_m": _NON_NEGATIVE,
                         "ybar": _POSITIVE, "h": _POSITIVE, "alpha_p": _NON_NEGATIVE},
        "mu_m": _FINITE, "mu_p": _FINITE, "c": _FINITE, "eps": _FINITE},
    "analysis": {
        "eps_k": (lambda v: v >= 0 and v.is_integer(), "a non-negative integer"),
        "c_max": _NON_NEGATIVE,
        "system": ("original", "transformed"),
        "t_end": _POSITIVE, "kick_scale": _FINITE, "rtol": _POSITIVE, "atol": _POSITIVE,
        "transient_fraction": (lambda v: 0 <= v < 1, "in [0, 1)"),
        "grid": _grid, "probe_scales": [_POSITIVE]},
    "output": {
        "format": ("csv", "json", "text"), "path": str,
        "n_samples": (lambda v: v >= 2 and v.is_integer(), "an integer of at least 2")},
}


def _check_block(fields, schema, where):
    """The fields of one block, each as its check allows it."""
    if not isinstance(fields, dict):
        raise ConfigError("%s block must be an object" % where)
    unknown = set(fields) - set(schema)
    if unknown:
        raise ConfigError("unknown key(s) %s in %s block"
                          % (", ".join(sorted(unknown)), where))
    return {key: _check(value, schema[key], where, key)
            for key, value in fields.items()}


def _check(value, check, where, key):
    """value as its check allows it: a number as a float, a list of
    numbers as a tuple of floats; anything else raises ConfigError."""
    if isinstance(check, dict):
        return _check_block(value, check, key)
    if check is str:
        if not isinstance(value, str):
            raise ConfigError("field '%s' in %s block must be a string" % (key, where))
        return value
    if callable(check):
        return check(value)
    if isinstance(check, list):
        (test, words), = check
        if not isinstance(value, list) or not all(
                _is_number(e) and math.isfinite(e) for e in value):
            raise ConfigError("field '%s' in %s block must be a list of finite numbers"
                              % (key, where))
        for i, e in enumerate(value):
            if not test(float(e)):
                raise ConfigError("%s.%s[%d] must be %s, got %r"
                                  % (where, key, i, words, float(e)))
        return tuple(float(e) for e in value)
    if isinstance(check[0], str):
        if value not in check:
            raise ConfigError("%s.%s must be one of %s, got %r"
                              % (where, key, ", ".join(check), value))
        return value
    test, words = check
    if not _is_number(value):
        raise ConfigError("field '%s' in %s block must be a number" % (key, where))
    if not math.isfinite(value):
        raise ConfigError("field '%s' in %s block must be finite, got %r"
                          % (key, where, value))
    value = float(value)
    if not test(value):
        raise ConfigError("%s.%s must be %s, got %r" % (where, key, words, value))
    return value


class RunConfig:
    """Checked view over the raw config dict: model, analysis and output
    hold the checked fields the document gives. The raw dict is kept
    verbatim, so serialization round-trips losslessly, apart from the
    fields that override() sets."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        blocks = _check_block(raw, _SCHEMA, "top-level")
        self.raw = dict(raw)
        self.model, self.analysis, self.output = (blocks.get(b, {}) for b in _SCHEMA)
        for key in ("c", "eps"):
            if key not in self.model:
                raise ConfigError("missing required field '%s' in model block" % key)
        nl = self.model.get("nonlinearity", {})
        if nl.get("kind") == "zero" and len(nl) > 1:
            raise ConfigError("unknown key(s) %s in nonlinearity block of kind zero"
                              % ", ".join(sorted(set(nl) - {"kind"})))
        # runs that drive xi negative need (y/ybar)**h real there
        if "h" in nl and not nl["h"].is_integer():
            raise ConfigError("field 'h' in nonlinearity block must be an "
                              "integer, got %r" % nl["h"])

    def to_dict(self):
        return self.raw

    def override(self, block, key, value):
        """Set one field of the model, analysis or output block, checked as
        the document's fields are, both in the view the commands read and
        in the echoed config."""
        getattr(self, block)[key] = _check(value, _SCHEMA[block][key], block, key)
        self.raw[block] = dict(self.raw.get(block, {}), **{key: value})

    def params(self) -> ModelParams:
        nl = dict(self.model.get("nonlinearity", {}))
        try:
            if nl.pop("kind", "hes1") == "zero":
                spec = NonlinearitySpec(f=ZeroMap(), g=ZeroMap())
            else:
                spec = hes1_nonlinearity(**nl)
            return ModelParams(self.model.get("mu_m", 0.03), self.model.get("mu_p", 0.04),
                               self.model["c"], self.model["eps"], spec)
        except ValueError as exc:
            raise ConfigError(str(exc))


def _given(fields, *keys, **renamed):
    """The keyword arguments of the keys the block gives, and of the
    parameter=key pairs of renamed whose key it gives: the callee's own
    defaults stand for the rest."""
    kw = {key: fields[key] for key in keys if key in fields}
    kw.update((param, fields[key]) for param, key in renamed.items() if key in fields)
    return kw


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

def _is_numpy(obj):
    """True for a numpy scalar or array. Such a value exists only once
    numpy is loaded, so this never imports it."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, (np.generic, np.ndarray))


def _jsonable(obj):
    """obj with numpy values as Python ones, complex numbers as {re, im}
    and non-finite floats as None, so json.dumps writes valid JSON."""
    if _is_numpy(obj):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write(text, path):
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("cannot write %s: %s" % (path, exc.strerror or exc))
    else:
        sys.stdout.write(text)


def _kv_csv(payload):
    """Two-column key,value CSV of the payload as the JSON output holds
    it (_jsonable): a complex value gives .re/.im rows and a non-finite
    float reads None."""
    lines = ["key,value"]

    def emit(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit(prefix + "." + k if prefix else k, v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                emit("%s[%d]" % (prefix, i), v)
        elif isinstance(value, float):
            lines.append("%s,%.17g" % (prefix, value))
        else:
            lines.append("%s,%s" % (prefix, value))

    emit("", _jsonable(payload))
    return "\n".join(lines) + "\n"


def _emit_report(payload, text, command, cfg, csv=None):
    """Write the command's result in the configured format: JSON
    {command, config, results}, CSV (csv() when given, else key,value rows
    of the payload) or the text summary."""
    fmt, path = cfg.output.get("format", "text"), cfg.output.get("path")
    if fmt == "json":
        doc = {"command": command, "config": cfg.to_dict(), "results": _jsonable(payload)}
        _write(json.dumps(doc, indent=2) + "\n", path)
    elif fmt == "csv":
        _write(csv() if csv else _kv_csv(payload), path)
    else:
        _write(text, path)
    return 0


def _cfmt(z):
    return "%.10g %+.10gi" % (z.real, z.imag)


# -- subcommands ---------------------------------------------------------------

def cmd_equilibrium(cfg: RunConfig):
    params = cfg.params()
    eq = find_equilibrium(params)
    res_r, res_xi = _equilibrium_residuals(eq.r_star, eq.xi_star, params)
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
    k_count = int(cfg.analysis.get("eps_k", 0))
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
    rep = analyze_normal_form(params, **_given(cfg.analysis, "c_max"))
    # q2 c^2 passes the float range for c above about 1e155, and an inf
    # kappa3 has no direction. The check sits here, not in
    # analyze_normal_form, so the sweep's c0 overlay still reads the quadratic
    if not (math.isfinite(rep.kappa3.real) and math.isfinite(rep.kappa3.imag)):
        raise OverflowError("kappa3(c = %.10g) is not finite: %s"
                            % (rep.c, _cfmt(rep.kappa3)))
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


def _trajectory_csv(columns, rows) -> str:
    """The CSV of a trajectory: the header, then the (n, len(columns))
    float array rows, every field "%.17g" % v."""
    from .fixedcsv import csv_lines

    return ",".join(columns) + "\n" + csv_lines(rows)


def _run_simulation(cfg: RunConfig):
    import numpy as np

    from . import dde

    params = cfg.params()
    t_end = cfg.analysis.get("t_end", 400.0)
    tol = _given(cfg.analysis, "rtol", "atol")
    eq = find_equilibrium(params)
    kick = cfg.analysis.get("kick_scale", 0.05) * eq.state
    samples = np.linspace(0.0, t_end, int(cfg.output.get("n_samples", 1000)))
    if cfg.analysis.get("system") == "original":
        hist = dde.bump_history(eq.state, kick, span=params.eps)
        traj = dde.integrate_sdd(hist, params.eps, params, t_end,
                                 sample_times=samples, **tol)
    else:
        hist = dde.bump_history(eq.state, kick, span=1.0)
        traj = dde.integrate_transformed(hist, params, t_end,
                                         sample_times=samples, **tol)
    return params, eq, traj


def _summary_dict(traj, cfg: RunConfig):
    from . import dde

    try:
        osc = dde.measure_oscillation(
            traj, component=0, **_given(cfg.analysis, "transient_fraction"))
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
        "%s = %d" % kv for kv in traj.stats._asdict().items()))
    return "\n".join(lines) + "\n"


def cmd_simulate(cfg: RunConfig):
    # numpy and the integrator load here and in cmd_sweep only, so the
    # analysis commands start without them
    import numpy as np

    from . import dde

    params, eq, traj = _run_simulation(cfg)
    summary = _summary_dict(traj, cfg)
    text = _summary_text(traj, summary)
    # rows stay an array: only the JSON writer turns them into lists
    rows = np.column_stack([traj.t, traj.states, traj.delay])
    payload = {"status": traj.status, "summary": summary,
               "monitors": traj.monitors, "stats": traj.stats._asdict(),
               "events": traj.events[:50],
               "columns": list(traj.columns), "rows": rows}
    _emit_report(payload, text, "simulate", cfg,
                 csv=lambda: _trajectory_csv(traj.columns, rows))
    if cfg.output.get("format") == "csv":
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
    from . import dde

    grid = cfg.analysis.get("grid")
    if grid is None:
        raise ConfigError("sweep requires an analysis.grid block")
    (row_name, row_vals), (col_name, col_vals) = grid.items()
    base = cfg.params()

    # the overlays first: a solver failure leaves its overlay n/a, and
    # the grid still runs
    overlays = {"eps0": None, "c0": None}
    try:
        eq0 = find_equilibrium(base)
        cls = classify_stability(eq0, base.mu_m, base.mu_p, base.eps)
        if cls.hopf is not None:
            overlays["eps0"] = cls.hopf.eps0
    except SddhopfError:
        pass
    try:
        overlays["c0"] = analyze_normal_form(base, **_given(cfg.analysis, "c_max")).c0
    except SddhopfError:
        pass

    # one bad cell (a grid value ModelParams rejects, or one whose
    # equilibrium solve or whose runs fail) is reported in place; the rest
    # of the grid still runs, every cell that built in one call
    labels = [[None] * len(col_vals) for _ in row_vals]
    built, cells = [], []
    for i, rv in enumerate(row_vals):
        for j, cv in enumerate(col_vals):
            try:
                par = base.with_overrides(**{row_name: rv, col_name: cv})
                cells.append((par, find_equilibrium(par)))
                built.append((i, j))
            except dde.CELL_ERRORS as exc:
                labels[i][j] = dde.error_label(exc)
    for (i, j), label in zip(built, dde.classify_dynamics(cells, **_given(
            cfg.analysis, "probe_scales", "rtol", eta_end="t_end"))):
        labels[i][j] = label

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


_DISPATCH = {"equilibrium": cmd_equilibrium, "stability": cmd_stability,
             "normal-form": cmd_normal_form, "simulate": cmd_simulate,
             "sweep": cmd_sweep}


def _build_parser():
    # every command takes the same flags, so one flat parser serves them
    # all and the flags may stand before or after the command. Fixing the
    # stock width queries the terminal once, not once per add_argument
    parser = _Parser(prog="sddhopf",
                     description="Analysis pipeline for a two-component "
                                 "feedback loop with threshold-type "
                                 "state-dependent delay.",
                     formatter_class=functools.partial(
                         argparse.HelpFormatter,
                         width=shutil.get_terminal_size().columns - 2))
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--eps", type=float, help="override model.eps")
    parser.add_argument("--c", type=float, help="override model.c")
    parser.add_argument("--system", choices=_SCHEMA["analysis"]["system"],
                        help="override analysis.system")
    parser.add_argument("--t-end", dest="t_end", type=float,
                        help="override analysis.t_end")
    parser.add_argument("--eps-k", dest="eps_k", type=int,
                        help="number of additional critical delay scales")
    parser.add_argument("--format", dest="fmt", choices=_SCHEMA["output"]["format"],
                        help="override output.format")
    parser.add_argument("--output", help="override output.path")
    return parser


# built once, when the module is imported: in-process callers of main()
# parse with it call after call, and --help wraps at the terminal width
# read here
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
