"""Benchmark for sddhopf: three seeded workloads through the CLI, every
result checked against tests/refvals.py.

    python3 perfbench/run.py [--workload analysis|simulate|sweep|all]
                             [--seed N] [--seconds S] [--trace 0|1]

--trace 0 prints the end-to-end metrics (set-up time and peak memory from
fresh interpreters, op throughput and latency from a closed loop of one
client). --trace 1 runs the same ops under a span tracer and prints the
per-layer metrics. The last stdout line is one JSON object; a full record
(seed, op list, versions, CPU count, sweep workers) goes to
.bench_out/result-<workload>-trace<0|1>.json. Exit code 0 when every op
was correct, 1 when any was not, 2 when the source tree is missing, 3 when
the workload process failed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from layers import PER_LAYER
from workloads import OUT_DIR, RECIPE_FILES, RECIPES, REFVALS, ROOT, SRC, WHY

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5            # measured fresh interpreters, after one warm-up
DEADLINE_S = 170.0          # whole run, per workload
MIN_TAIL = 10               # samples that must lie beyond a reported percentile

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def _missing_inputs():
    need = [SRC / "sddhopf" / "cli.py", REFVALS] + \
        [RECIPES / name for names in RECIPE_FILES.values() for name in names]
    return [str(p) for p in need if not p.is_file()]


def _child_env():
    env = dict(os.environ)
    env.pop("SDDHOPF_THREADS", None)          # the sweep runs with its default workers
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _python(script, args, deadline):
    """Run a benchmark script in a fresh interpreter; it is killed and
    reaped if it outlives the deadline (a time.monotonic() value)."""
    return subprocess.run([sys.executable, os.path.join(HERE, script)] + args,
                          capture_output=True, text=True, env=_child_env(),
                          timeout=max(1.0, deadline - time.monotonic()), cwd=ROOT)


def measure_setup(workload, deadline):
    """Median import-and-load time over fresh interpreters; the first
    interpreter only warms the bytecode cache and is not counted."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = _python("setup_probe.py", [workload], deadline)
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed:\n" + proc.stderr[-2000:])
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:]), times[1:]


def percentile(values, q):
    """Nearest-rank percentile, or None when fewer than MIN_TAIL samples
    lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * q / 100)
    if len(ordered) - rank < MIN_TAIL:
        return None
    return ordered[rank - 1]


def run_workload(workload, seed, seconds, trace, deadline):
    setup = measure_setup(workload, deadline) if not trace else None
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / ("worker-%s-trace%d.json" % (workload, trace))
    proc = _python("worker.py", ["--workload", workload, "--seed", str(seed),
                                 "--seconds", repr(seconds), "--trace", str(trace),
                                 "--result", str(result_path)], deadline)
    if proc.returncode != 0:
        raise RuntimeError("workload process failed:\n" + proc.stderr[-4000:])
    with open(result_path) as fh:
        res = json.load(fh)
    result_path.unlink()

    lines = ["workload %s (seed %d): %d attempted, %d failed, fail_frac %.6g"
             % (workload, seed, res["attempted"], res["failed"],
                res["failed"] / res["attempted"])]
    for failure in res["failures"][:5]:
        lines.append("  FAILED %s: %s" % (failure["op"]["kind"], "; ".join(failure["problems"])))
    if trace:
        metrics = {name: {"value": res["layer_metrics"][name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}
    else:
        lat = res["latencies_s"]
        metrics = {"setup_s": setup[0],
                   "ops_per_s": statistics.median(res["cycle_ops_per_s"]),
                   "op_p50_ms": statistics.median(lat) * 1e3,
                   "peak_rss_mb": res["maxrss_self_mb"] + res["maxrss_children_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        p90 = percentile(lat, 90)
        lines.append("  op latency over %d %s; op_p90_ms %s"
                     % (len(lat), "sweep commands" if workload == "sweep" else "ops",
                        "%.6g ms" % (p90 * 1e3) if p90 is not None
                        else "not defined (fewer than %d samples beyond it)" % MIN_TAIL))
        lines.append("  setup_s over %d fresh interpreters: %s"
                     % (len(setup[1]), ", ".join("%.4f" % t for t in setup[1])))
    for name, m in metrics.items():
        lines.append("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))

    record = dict(res, workload=workload, why=WHY[workload], seed=seed,
                  seconds=seconds, trace=trace, metrics=metrics,
                  nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
                  per_layer_moves={k: v[2] for k, v in PER_LAYER.items()},
                  setup_probes_s=setup[1] if setup else None)
    record_path = OUT_DIR / ("result-%s-trace%d.json" % (workload, trace))
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    lines.append("  record: %s" % record_path.relative_to(ROOT))
    return res["attempted"], res["failed"], metrics, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=sorted(WHY) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    missing = _missing_inputs()
    if missing:
        sys.stderr.write("perfbench: source tree incomplete, missing %s\n" % ", ".join(missing))
        return 2
    workloads = sorted(WHY) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    start = time.monotonic()
    for workload in workloads:
        try:
            a, f, m, lines = run_workload(workload, args.seed, args.seconds, args.trace,
                                          start + DEADLINE_S * (workloads.index(workload) + 1))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write("perfbench: %s: %s\n" % (workload, exc))
            return 3
        print("\n".join(lines), flush=True)
        attempted, failed = attempted + a, failed + f
        prefix = "" if len(workloads) == 1 else workload + "."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
