"""Per-layer metrics derived from one traced run, and the end-to-end
metric each is expected to move.

All values are per op (per grid cell on `sweep`) unless they are ratios.
A layer a workload never calls reads 0 on that workload.
"""

import numpy as np

from tracer import child_coverage

# name -> (unit, better, the end-to-end metrics it should move)
PER_LAYER = {
    "dde.history_eval_calls": ("count", "lower", "simulate ops_per_s/op_p50_ms, sweep ops_per_s; not analysis"),
    "dde.history_eval_us": ("us", "lower", "simulate ops_per_s/op_p50_ms, sweep ops_per_s; not analysis"),
    "dde.steps_accepted": ("count", "lower", "sweep and simulate ops_per_s (escape ops dominate)"),
    "dde.stage_evals": ("count", "lower", "sweep and simulate ops_per_s (escape ops dominate)"),
    "dde.accept_ratio": ("ratio", "higher", "sweep and simulate ops_per_s"),
    "dde.integrate_self_ms": ("ms", "lower", "sweep and simulate ops_per_s"),
    "dde.solve_delay_calls": ("count", "lower", "simulate op_p50_ms; zero on sweep"),
    "dde.solve_delay_us": ("us", "lower", "simulate op_p50_ms; zero on sweep"),
    "dde.solve_delay_evals_per_call": ("ratio", "lower", "simulate op_p50_ms; zero on sweep"),
    "dde.brentq_fallbacks": ("count", "lower", "simulate op_p50_ms; zero on sweep"),
    "dde.slope_bound_warnings": ("count", "lower", "simulate op_p50_ms; zero on sweep"),
    "dde.sample_ms": ("ms", "lower", "simulate op_p50_ms"),
    "dde.measure_oscillation_ms": ("ms", "lower", "sweep ops_per_s"),
    "dde.classify_cell_ms": ("ms", "lower", "sweep ops_per_s (serial, single-threaded baseline)"),
    "cli.sweep_parallel_eff": ("ratio", "higher", "sweep ops_per_s only"),
    "normalform.analyze_ms": ("ms", "lower", "analysis op_p50_ms/ops_per_s; barely sweep"),
    "normalform.quadratic_coeffs_calls": ("count", "lower", "analysis op_p50_ms/ops_per_s; barely sweep"),
    "stability.classify_us": ("us", "lower", "analysis"),
    "model.find_equilibrium_us": ("us", "lower", "analysis"),
    "model.rhs_us": ("us", "lower", "simulate and sweep"),
    "nonlinearity.value_calls": ("count", "lower", "simulate and sweep"),
    "cli.self_ms": ("ms", "lower", "simulate and analysis op_p50_ms"),
    "cli.output_bytes": ("bytes", "lower", "simulate and analysis op_p50_ms"),
    "cli.load_config_us": ("us", "lower", "simulate and analysis op_p50_ms"),
    "trace.overhead_frac": ("ratio", "lower", "none: cost of tracing itself"),
}

# Counts that must repeat exactly between two traced runs of one seed.
COUNT_METRICS = [name for name, (unit, _, _) in PER_LAYER.items() if unit == "count"] \
    + ["dde.accept_ratio", "dde.solve_delay_evals_per_call", "cli.output_bytes"]


def derive(spans, names, counts, n_ops, passes, slope_warnings, output_bytes,
           serial_cell_s, workers, sweep_wall_s, overhead_frac):
    """Per-layer metrics from the traced run's spans and counts, gathered
    over `passes` identical passes through `n_ops` ops.

    serial_cell_s are classify_dynamics times from an untraced serial
    pass, sweep_wall_s the untraced sweep wall time with `workers` threads;
    both are empty/zero outside the sweep workload.
    """
    nid = {n: i for i, n in enumerate(names)}
    name = spans["name"]
    dur = spans["end"] - spans["start"]
    self_time = dur - child_coverage(spans)

    def mask(*span_names):
        return np.isin(name, [nid[n] for n in span_names])

    def calls(*span_names):
        return int(np.count_nonzero(mask(*span_names)))

    def total(*span_names, of=dur):
        return float(np.sum(of[mask(*span_names)]))

    # sampling: the part of each integrate_* span after its last append
    # ends. Appends are only made by the step driver inside an integrate_*
    # span, so each append's parent is one of them (spans are sorted by id).
    integ = mask("dde.integrate_sdd", "dde.integrate_transformed")
    appends = mask("dde.History.append")
    last_append = spans["start"][integ].copy()
    rows = np.searchsorted(spans["sid"][integ], spans["parent"][appends])
    np.maximum.at(last_append, rows, spans["end"][appends])
    sample_s = float(np.sum(spans["end"][integ] - last_append))

    evals = mask("dde.History.eval")
    solves = spans["sid"][mask("dde.solve_delay")]
    evals_in_solve = int(np.count_nonzero(np.isin(spans["parent"][evals], solves)))

    steps = calls("dde.History.append")
    stages = calls("model.rhs_original", "model.rhs_transformed")
    n_solve = calls("dde.solve_delay")

    def per_op(x):
        # a count over identical passes divides exactly by `passes`, so
        # per-op counts repeat bit for bit whatever the number of passes
        return x / passes / n_ops

    cell_s = float(np.sum(serial_cell_s))
    return {
        "dde.history_eval_calls": per_op(calls("dde.History.eval")),
        "dde.history_eval_us": per_op(total("dde.History.eval")) * 1e6,
        "dde.steps_accepted": per_op(steps),
        "dde.stage_evals": per_op(stages),
        "dde.accept_ratio": 6.0 * steps / stages if stages else 0.0,
        "dde.integrate_self_ms": per_op(total("dde.integrate_sdd", "dde.integrate_transformed",
                                              of=self_time)) * 1e3,
        "dde.solve_delay_calls": per_op(n_solve),
        "dde.solve_delay_us": per_op(total("dde.solve_delay")) * 1e6,
        "dde.solve_delay_evals_per_call": evals_in_solve / n_solve if n_solve else 0.0,
        "dde.brentq_fallbacks": per_op(calls("dde.brentq")),
        "dde.slope_bound_warnings": per_op(slope_warnings),
        "dde.sample_ms": per_op(sample_s) * 1e3,
        "dde.measure_oscillation_ms": per_op(total("dde.measure_oscillation")) * 1e3,
        "dde.classify_cell_ms": cell_s / len(serial_cell_s) * 1e3 if len(serial_cell_s) else 0.0,
        "cli.sweep_parallel_eff": cell_s / (workers * sweep_wall_s) if sweep_wall_s else 0.0,
        "normalform.analyze_ms": per_op(total("normalform.analyze_normal_form")) * 1e3,
        "normalform.quadratic_coeffs_calls": per_op(counts["normalform.quadratic_coeffs"]),
        "stability.classify_us": per_op(total("stability.classify_stability")) * 1e6,
        "model.find_equilibrium_us": per_op(total("model.find_equilibrium")) * 1e6,
        "model.rhs_us": per_op(total("model.rhs_original", "model.rhs_transformed")) * 1e6,
        "nonlinearity.value_calls": per_op(counts["nonlinearity.value"]),
        "cli.self_ms": per_op(total("cli.main", of=self_time)) * 1e3,
        "cli.output_bytes": per_op(output_bytes),
        "cli.load_config_us": per_op(total("cli.load_config")) * 1e6,
        "trace.overhead_frac": overhead_frac,
    }
