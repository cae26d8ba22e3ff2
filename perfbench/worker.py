"""Runs one workload's ops in this fresh interpreter and writes a result file.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --result PATH

Ops go through sddhopf.cli.main(argv) one at a time (a closed loop with a
single client), with output written to a temp dir, and every result is
checked by the gate. With --trace 0 it times whole cycles of the seeded op
stream until S seconds have passed. With --trace 1 it runs the first cycle
untraced and then traced, and derives the per-layer metrics.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

import gate
import layers
import tracer
from workloads import CYCLE_LEN, OUT_DIR, SRC, make_op, write_config

ONE_THREAD = {"SDDHOPF_THREADS": "1"}    # the CLI's documented sweep worker cap


class Runner:
    def __init__(self, workload, seed, ref, workdir):
        self.workload, self.seed, self.ref, self.workdir = workload, seed, ref, workdir
        self.cli = importlib.import_module("sddhopf.cli")
        self.slope_warning = importlib.import_module("sddhopf.errors").SlopeBoundWarning
        self.latencies, self.failures = [], []
        self.attempted = self.failed = self.output_bytes = self.slope_warnings = 0

    def run_op(self, op, count_warnings=False):
        """Run one op; return its latency in seconds."""
        argv, out_path = write_config(op, self.workdir)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=count_warnings) as caught:
            if count_warnings:
                warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:       # op boundary: record and keep going
                rc = None
                err.write(traceback.format_exc())
            latency = time.perf_counter() - t0
        if count_warnings:
            self.slope_warnings += sum(1 for w in caught
                                       if issubclass(w.category, self.slope_warning))
        problems = gate.check(op, rc, err.getvalue(), out_path, self.ref)
        self.attempted += op.cells
        if problems:
            self.failed += op.cells
            if len(self.failures) < 20:
                self.failures.append({"op": op.describe(), "rc": rc,
                                      "problems": problems,
                                      "stderr_tail": err.getvalue()[-2000:]})
        if out_path.exists():
            self.output_bytes += out_path.stat().st_size
            out_path.unlink()
        self.latencies.append(latency)
        return latency

    def repeat(self, ops, seconds, **kw):
        """Run the op list until `seconds` have passed (at least once);
        return (passes, total op time)."""
        passes, busy, start = 0, 0.0, time.perf_counter()
        while passes == 0 or time.perf_counter() - start < seconds:
            busy += sum(self.run_op(op, **kw) for op in ops)
            passes += 1
        return passes, busy


def timed_run(runner, seconds):
    """Whole cycles of the seeded op stream for `seconds`; throughput is
    taken per cycle, over one pass through the workload's op list."""
    cycle, kinds, cycle_rates, start = CYCLE_LEN[runner.workload], [], [], time.perf_counter()
    while not kinds or time.perf_counter() - start < seconds:
        batch = [make_op(runner.workload, runner.seed, len(kinds) + k) for k in range(cycle)]
        busy = sum(runner.run_op(op) for op in batch)
        cycle_rates.append(sum(op.cells for op in batch) / busy)
        kinds += [op.kind for op in batch]
    # ops 0..n-1 of the seeded stream; the first cycle is spelled out
    return {"ops": [make_op(runner.workload, runner.seed, i).describe() for i in range(cycle)],
            "ops_run": len(kinds), "kinds": kinds,
            "latencies_s": runner.latencies,
            "cycle_ops_per_s": cycle_rates}


def traced_run(runner, seconds, modules):
    """Per-layer metrics from the first cycle of the op stream.

    The sweep is traced with one worker thread, so layer times carry no
    waits for the interpreter lock; two untraced passes with only the cells
    timed give the default-worker wall time and the serial cell times.
    """
    ops = [make_op(runner.workload, runner.seed, i) for i in range(CYCLE_LEN[runner.workload])]
    n_ops = sum(op.cells for op in ops)
    sweep = runner.workload == "sweep"
    serial_cell_s, workers, sweep_wall_s = [], 1, 0.0
    if sweep:
        cell_specs = [s for s in tracer.SPANS if s[1] == "classify_dynamics"]
        with tracer.Tracer(modules, spans=cell_specs, counts=[]) as cells:
            passes, busy = runner.repeat(ops, 0.0)
        sweep_wall_s = busy / passes
        workers = max(1, cells.threads_running("dde.classify_dynamics"))
        with mock.patch.dict(os.environ, ONE_THREAD), \
                tracer.Tracer(modules, spans=cell_specs, counts=[]) as cells:
            passes, busy = runner.repeat(ops, 0.0)
        spans = cells.spans()
        serial_cell_s = (spans["end"] - spans["start"]).tolist()
    else:
        passes, busy = runner.repeat(ops, seconds / 2)
    untraced_pass_s = busy / passes

    runner.output_bytes = runner.slope_warnings = 0
    with mock.patch.dict(os.environ, ONE_THREAD if sweep else {}), \
            tracer.Tracer(modules) as trace:
        traced_passes, traced_busy = runner.repeat(
            ops, 0.0 if sweep else seconds / 2, count_warnings=True)
    spans = trace.spans()
    np.savez_compressed(OUT_DIR / ("trace-%s.npz" % runner.workload),
                        names=np.array(trace.names), **spans)
    metrics = layers.derive(
        spans, trace.names, trace.counts(), n_ops, traced_passes,
        runner.slope_warnings, runner.output_bytes,
        serial_cell_s, workers, sweep_wall_s,
        (traced_busy / traced_passes) / untraced_pass_s - 1.0)
    return {"ops": [op.describe() for op in ops], "untraced_passes": passes,
            "traced_passes": traced_passes, "untraced_pass_s": untraced_pass_s,
            "traced_pass_s": traced_busy / traced_passes, "sweep_workers": workers,
            "sweep_wall_s": sweep_wall_s, "serial_cell_s": serial_cell_s,
            "layer_metrics": metrics, "n_spans": int(len(spans["sid"]))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CYCLE_LEN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(name) for name in tracer.PACKAGE_MODULES}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ops-", dir=OUT_DIR)
    try:
        runner = Runner(args.workload, args.seed, gate.load_refvals(), Path(workdir))
        if args.trace:
            result = traced_run(runner, args.seconds, modules)
        else:
            result = timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kb = 1024.0
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures,
                  versions={"python": platform.python_version(), "numpy": np.__version__,
                            "scipy": importlib.import_module("scipy").__version__},
                  maxrss_self_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb,
                  maxrss_children_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kb)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
