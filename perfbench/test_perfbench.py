"""Self-checks of the benchmark: the gate catches wrong results, the command
fails on them, and traced counts repeat exactly.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import gate
from layers import COUNT_METRICS
from tracer import child_coverage
from workloads import OUT_DIR, ROOT, make_op

REF = gate.load_refvals()


@pytest.fixture
def scratch():
    """A temp dir inside the checkout."""
    OUT_DIR.mkdir(exist_ok=True)
    dest = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=OUT_DIR))
    yield dest
    shutil.rmtree(dest, ignore_errors=True)


@pytest.fixture
def tree(scratch):
    """A copy of the files the benchmark reads."""
    dest = scratch
    for name in ("src", "recipes", "perfbench"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    (dest / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "refvals.py", dest / "tests" / "refvals.py")
    return dest


def run_bench(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def test_kappa3_quadratic_passes_through_the_pins():
    for c, k3 in REF.KAPPA3.items():
        assert gate.kappa3_at(REF, c) == pytest.approx(k3, rel=1e-14)


def test_corrupted_reference_value_fails_the_command(tree):
    rc, result = run_bench(tree, "--workload", "analysis", "--seconds", "0.5", "--seed", "3")
    assert rc == 0 and result["correct"] and result["failed"] == 0

    refvals = tree / "tests" / "refvals.py"
    text = refvals.read_text()
    assert "EPS0 = 6.862162456498764" in text
    refvals.write_text(text.replace("EPS0 = 6.862162456498764", "EPS0 = 6.862162466498764"))
    rc, result = run_bench(tree, "--workload", "analysis", "--seconds", "0.5", "--seed", "3")
    assert rc == 1
    assert not result["correct"] and result["failed"] > 0


def _sweep_doc(op, labels):
    return {"results": {"overlays": {"eps0": REF.EPS0, "c0": REF.C0},
                        "rows": {"eps": op.inputs["eps"]}, "cols": {"c": op.inputs["c"]},
                        "labels": labels}}


def test_wrong_sweep_label_is_a_failure():
    op = make_op("sweep", 3, 0)
    labels = [["stable"] * 3 if eps < REF.EPS0 else ["oscillating"] * 3
              for eps in op.inputs["eps"]]
    assert gate.check_sweep(op, _sweep_doc(op, labels), REF) == []
    labels[0][1] = "oscillating"          # the first row lies below eps0
    assert gate.check_sweep(op, _sweep_doc(op, labels), REF)


def test_wrong_exit_code_or_status_is_a_failure(scratch):
    op = make_op("simulate", 3, 5)
    assert op.kind == "escape"
    csv = scratch / "out.csv"
    csv.write_text("eta,r,xi,k\n0,11.9,2992.6,6.76\n")
    stderr = "system: transformed\nstatus: denominator_breach\n"
    assert gate.check_simulate(op, 4, stderr, csv, REF) == []
    assert gate.check_simulate(op, 0, stderr, csv, REF)
    assert gate.check_simulate(op, 4, stderr.replace("denominator_breach", "completed"),
                               csv, REF)


def test_command_refuses_a_tree_without_the_program(scratch):
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    rc, result = run_bench(scratch, "--workload", "analysis", "--seconds", "0.5")
    assert rc != 0 and result is None


def test_child_coverage_takes_the_union_of_overlapping_children():
    # root 0 [0, 10]; children 1 [1, 4] and 2 [3, 6] overlap (pool threads);
    # 3 [2, 3] nests inside 1
    spans = {"sid": np.array([0, 1, 2, 3]), "parent": np.array([-1, 0, 0, 1]),
             "start": np.array([0.0, 1.0, 3.0, 2.0]), "end": np.array([10.0, 4.0, 6.0, 3.0])}
    assert child_coverage(spans).tolist() == [5.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("workload", ["analysis", "simulate", "sweep"])
def test_traced_counts_repeat_exactly(workload):
    runs = [run_bench(ROOT, "--workload", workload, "--seconds", "0.5",
                      "--seed", "5", "--trace", "1") for _ in range(2)]
    for rc, result in runs:
        assert rc == 0 and result["correct"]
    first, second = ({k: r["metrics"][k]["value"] for k in COUNT_METRICS} for _, r in runs)
    assert first == second
