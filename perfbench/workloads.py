"""Seeded op lists for the three benchmark workloads.

An op is one `sddhopf` CLI command. The seed only jitters parameters
inside each recipe's regime; the program sees the generated configs and
flags, never the seed. Op `i` of a workload depends on (seed, i) alone, so
any prefix of the stream is reproducible.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECIPES = ROOT / "recipes"
REFVALS = ROOT / "tests" / "refvals.py"
OUT_DIR = ROOT / ".bench_out"          # results, traces and op scratch files

# Pinned crossing points of the standard parameter set, used only to place
# the jitter ranges inside each regime. The gate reads tests/refvals.py.
_EPS0 = 6.862162456498764
_C0 = 0.02394886238700986

WHY = {
    "analysis": "equilibrium, stability and normal-form commands: model, "
                "stability, normalform and CLI emit work with no integration",
    "simulate": "the four simulate recipes: the only load on solve_delay, "
                "the CSV emitter and the step-collapse abort path",
    "sweep": "one 4x3 sweep across eps0 and c0: transformed integration, "
             "classify_dynamics and the worker pool, no solve_delay",
}

# Recipes each workload loads; setup_s times loading exactly these.
RECIPE_FILES = {
    "analysis": ["hes1.json"],
    "simulate": ["hes1-original.json", "hes1-decay.json",
                 "hes1-sustained.json", "hes1-subcritical-escape.json"],
    "sweep": ["hes1-sweep.json"],
}

# One cycle of the simulate workload. Decay and sustained runs are faster
# than original-time runs and escape runs slower; with four original runs
# per cycle the median op lies well inside the original-time cluster, away
# from a cluster edge, while escape runs still take the largest share of
# the time.
_SIMULATE_CYCLE = ("original", "decay", "original", "sustained", "original",
                   "escape", "original")
_ANALYSIS_CYCLE = ("equilibrium", "stability", "normal-form")

CYCLE_LEN = {"analysis": len(_ANALYSIS_CYCLE),
             "simulate": len(_SIMULATE_CYCLE), "sweep": 1}


@dataclass
class Op:
    """One CLI command: argv minus --config/--output, plus what the gate
    needs to know about the inputs it was given."""

    kind: str
    argv: list
    config: dict
    out_name: str
    inputs: dict = field(default_factory=dict)
    cells: int = 1

    def describe(self):
        return {"kind": self.kind, "argv": self.argv, "inputs": self.inputs}


def _recipe(name):
    with open(RECIPES / name) as fh:
        return json.load(fh)


def _rng(seed, i):
    return random.Random(seed * 1_000_003 + i)


def _analysis_op(rng, i):
    kind = _ANALYSIS_CYCLE[i % len(_ANALYSIS_CYCLE)]
    eps = rng.uniform(5.5, 8.0)
    c = rng.uniform(0.0, 0.05)
    if abs(eps - _EPS0) < 1e-6 or abs(c - _C0) < 1e-6:
        eps, c = 6.0, 0.01            # keep the gate's side tests decidable
    argv = [kind, "--eps", repr(eps), "--c", repr(c), "--format", "json"]
    if kind == "stability":
        argv += ["--eps-k", "3"]
    return Op(kind=kind, argv=argv, config=_recipe("hes1.json"),
              out_name="out.json", inputs={"eps": eps, "c": c})


def _simulate_op(rng, i):
    kind = _SIMULATE_CYCLE[i % len(_SIMULATE_CYCLE)]
    name = {"original": "hes1-original.json", "decay": "hes1-decay.json",
            "sustained": "hes1-sustained.json",
            "escape": "hes1-subcritical-escape.json"}[kind]
    cfg = _recipe(name)
    model, analysis = cfg["model"], cfg["analysis"]
    if kind == "escape":
        # just past c0 and below eps0: a large negative kick breaches D
        model["c"] = _C0 + rng.uniform(0.0008, 0.0012)
        model["eps"] = _EPS0 - rng.uniform(0.09, 0.11)
        analysis["kick_scale"] = -rng.uniform(1.43, 1.47)
    else:
        side = 1.0 if kind == "sustained" else -1.0
        model["c"] = rng.uniform(0.009, 0.011)
        model["eps"] = _EPS0 + side * rng.uniform(0.09, 0.11)
        analysis["kick_scale"] *= rng.uniform(0.95, 1.05)
    return Op(kind=kind, argv=["simulate"], config=cfg, out_name="out.csv",
              inputs={"eps": model["eps"], "c": model["c"],
                      "kick_scale": analysis["kick_scale"],
                      "t_end": analysis["t_end"],
                      "n_samples": cfg["output"]["n_samples"]})


def _sweep_op(rng, i):
    cfg = _recipe("hes1-sweep.json")
    below = sorted(_EPS0 - rng.uniform(0.05, 0.25) for _ in range(2))
    above = sorted(_EPS0 + rng.uniform(0.05, 0.25) for _ in range(2))
    cs = [rng.uniform(0.0, 0.015), rng.uniform(0.015, _C0 - 0.003),
          rng.uniform(_C0 + 0.003, 0.05)]
    cfg["analysis"]["grid"] = {"eps": below + above, "c": cs}
    return Op(kind="sweep", argv=["sweep", "--format", "json"], config=cfg,
              out_name="out.json", inputs={"eps": below + above, "c": cs},
              cells=len(below + above) * len(cs))


_MAKERS = {"analysis": _analysis_op, "simulate": _simulate_op,
           "sweep": _sweep_op}


def make_op(workload, seed, i) -> Op:
    """Op number i of the workload's seeded stream."""
    return _MAKERS[workload](_rng(seed, i), i)


def write_config(op: Op, directory: Path):
    """Write the op's config and return the full argv for sddhopf.cli.main."""
    cfg_path = directory / "config.json"
    with open(cfg_path, "w") as fh:
        json.dump(op.config, fh)
    out_path = directory / op.out_name
    return op.argv + ["--config", str(cfg_path), "--output", str(out_path)], out_path
