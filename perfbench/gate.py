"""Correctness gate: every op's output is checked against tests/refvals.py.

The reference file is loaded by path and never written. `check` returns a
list of problems; an empty list means the op's result is correct.
"""

import importlib.util
import json
import math

from workloads import REFVALS

_REL = 1e-10            # pinned scalars, as in tests/test_cli.py
_REL_C0 = 1e-8          # c0 is a root of a fitted quadratic
_REL_KAPPA3 = 1e-9      # kappa3(c) against the quadratic through the pins
_PERIOD_TOL = 0.05      # acceptance criterion 6

STABLE_LABELS = {"stable", "metastable"}
OSCILLATING_LABELS = {"oscillating", "unstable"}


def load_refvals(path=REFVALS):
    spec = importlib.util.spec_from_file_location("refvals", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kappa3_at(ref, c):
    """Value at c of the quadratic through the three KAPPA3 pins."""
    pins = sorted(ref.KAPPA3.items())
    total = 0j
    for i, (ci, ki) in enumerate(pins):
        weight = 1.0
        for j, (cj, _) in enumerate(pins):
            if j != i:
                weight *= (c - cj) / (ci - cj)
        total += weight * ki
    return total


def _close(name, got, want, rel, problems):
    if not isinstance(got, (int, float)) or not math.isfinite(got) \
            or abs(got - want) > rel * abs(want):
        problems.append("%s = %r, expected %r (rel %g)" % (name, got, want, rel))


def _complex(d):
    return complex(d["re"], d["im"])


def check_analysis(op, doc, ref):
    problems = []
    res = doc["results"]
    eps, c = op.inputs["eps"], op.inputs["c"]
    if op.kind == "equilibrium":
        _close("r_star", res["r_star"], ref.R_STAR, _REL, problems)
        _close("xi_star", res["xi_star"], ref.XI_STAR, _REL, problems)
    elif op.kind == "stability":
        _close("eps0", res["eps0"], ref.EPS0, _REL, problems)
        _close("omega", res["omega"], ref.OMEGA, _REL, problems)
        _close("dalpha_deps", res["dalpha_deps"], ref.DALPHA_DEPS, _REL, problems)
        want = "unstable" if eps > ref.EPS0 else "stable_below_eps0"
        if res["classification"] != want:
            problems.append("classification %r at eps = %r, expected %r"
                            % (res["classification"], eps, want))
        ks = res["eps_k"]
        if len(ks) != 3:
            problems.append("eps_k has %d entries, expected 3" % len(ks))
        for k, ek in enumerate(ks, start=1):
            _close("eps_%d" % k, ek,
                   ref.EPS0 * (ref.OMEGA + k * math.pi) / ref.OMEGA, _REL, problems)
    elif op.kind == "normal-form":
        _close("eps0", res["eps0"], ref.EPS0, _REL, problems)
        _close("omega", res["omega"], ref.OMEGA, _REL, problems)
        k1 = _complex(res["kappa1"])
        if abs(k1 - ref.KAPPA1) > _REL * abs(ref.KAPPA1):
            problems.append("kappa1 = %r, expected %r" % (k1, ref.KAPPA1))
        k3, want = _complex(res["kappa3"]), kappa3_at(ref, c)
        if abs(k3 - want) > _REL_KAPPA3 * abs(want):
            problems.append("kappa3(%r) = %r, expected %r" % (c, k3, want))
        _close("c0", res["c0"], ref.C0, _REL_C0, problems)
        want = "supercritical" if c < ref.C0 else "subcritical"
        if res["direction"] != want:
            problems.append("direction %r at c = %r, expected %r"
                            % (res["direction"], c, want))
    return problems


def _summary_fields(stderr_text):
    """key -> float from the 'oscillation:' and 'monitors:' summary lines,
    plus 'status'."""
    fields = {}
    for line in stderr_text.splitlines():
        if line.startswith("status: "):
            fields["status"] = line[len("status: "):].strip()
        for prefix in ("oscillation: ", "monitors: "):
            if line.startswith(prefix):
                for item in line[len(prefix):].split(","):
                    key, _, value = item.partition("=")
                    try:
                        fields[key.strip()] = float(value)
                    except ValueError:
                        pass
    return fields


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh]
    return header, rows


def check_simulate(op, rc, stderr_text, out_path, ref):
    problems = []
    escape = op.kind == "escape"
    want_rc, want_status = (4, "denominator_breach") if escape else (0, "completed")
    fields = _summary_fields(stderr_text)
    if rc != want_rc:
        problems.append("exit code %r, expected %r" % (rc, want_rc))
    if fields.get("status") != want_status:
        problems.append("status %r, expected %r" % (fields.get("status"), want_status))
    header, rows = _read_csv(out_path)
    want_header = ["t", "x", "y", "tau"] if op.kind == "original" else ["eta", "r", "xi", "k"]
    if header != want_header:
        problems.append("CSV header %r, expected %r" % (header, want_header))
    if not all(len(r) == 4 and all(math.isfinite(v) for v in r) for r in rows):
        problems.append("CSV has short or non-finite rows")
    if not escape:
        if len(rows) != op.inputs["n_samples"] or not rows \
                or abs(rows[-1][0] - op.inputs["t_end"]) > 1e-9 * op.inputs["t_end"]:
            problems.append("CSV has %d rows ending at %r, expected %d ending at %r"
                            % (len(rows), rows[-1][0] if rows else None,
                               op.inputs["n_samples"], op.inputs["t_end"]))
    if op.kind == "original":
        resid = fields.get("max_threshold_residual")
        if resid is None or not resid <= 1e-12 * op.inputs["eps"]:
            problems.append("max_threshold_residual %r above 1e-12 eps" % resid)
    elif op.kind == "decay":
        if not fields.get("decay_rate", -1.0) > 0:
            problems.append("decay_rate %r, expected > 0" % fields.get("decay_rate"))
    elif op.kind == "sustained":
        target = 2.0 * math.pi / ref.OMEGA
        period = fields.get("period", math.nan)
        if not abs(period - target) / target < _PERIOD_TOL:
            problems.append("period %r not within 5%% of %r" % (period, target))
        if not fields.get("amplitude", 0.0) > 1.0:
            problems.append("amplitude %r, expected > 1" % fields.get("amplitude"))
    return problems


def check_sweep(op, doc, ref):
    problems = []
    res = doc["results"]
    overlays = res["overlays"]
    _close("overlay eps0", overlays["eps0"], ref.EPS0, _REL, problems)
    _close("overlay c0", overlays["c0"], ref.C0, _REL_C0, problems)
    eps_rows, c_cols = op.inputs["eps"], op.inputs["c"]
    if res["rows"] != {"eps": eps_rows} or res["cols"] != {"c": c_cols}:
        problems.append("grid axes do not echo the input grid")
    labels = res["labels"]
    if len(labels) != len(eps_rows) or any(len(row) != len(c_cols) for row in labels):
        return problems + ["label matrix shape does not match the grid"]
    for eps, row in zip(eps_rows, labels):
        allowed = OSCILLATING_LABELS if eps > ref.EPS0 else STABLE_LABELS
        for c, label in zip(c_cols, row):
            if label not in allowed:
                problems.append("cell eps = %r, c = %r labelled %r, expected one of %s"
                                % (eps, c, label, sorted(allowed)))
    return problems


def check(op, rc, stderr_text, out_path, ref):
    """Problems with one op's result; empty when it is correct."""
    if "Traceback" in stderr_text:
        return ["traceback on stderr"]
    try:
        if op.kind in ("original", "decay", "sustained", "escape"):
            return check_simulate(op, rc, stderr_text, out_path, ref)
        if rc != 0:
            return ["exit code %r, expected 0" % rc]
        with open(out_path) as fh:
            doc = json.load(fh)
        if op.kind == "sweep":
            return check_sweep(op, doc, ref)
        return check_analysis(op, doc, ref)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
