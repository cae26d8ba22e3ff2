"""The import boundary: equilibrium, stability and normal-form run on the
standard library, and only the integrator module loads numpy.

The analysis commands run in a fresh interpreter whose PYTHONPATH starts
with a `numpy` package that raises ImportError, and must write the same
bytes as in this process, where numpy is loaded. Importing the CLI builds
its one parser and nothing more. The names the benchmark's tracer wraps
must also resolve in the package.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sddhopf
from sddhopf import dde
from sddhopf.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECIPE = ROOT / "recipes" / "hes1.json"

# the names the package exported from dde before they became lazy
DDE_NAMES = ("CompatibilityReport", "History", "InitialHistory",
             "OscillationSummary", "RunStats", "Trajectory", "bump_history",
             "check_compatibility", "classify_dynamics", "classify_run",
             "constant_history", "integrate_sdd", "integrate_transformed",
             "measure_oscillation", "run_perturbed", "solve_delay")


def _run(args, pythonpath):
    paths = [str(p) for p in pythonpath]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable] + args, env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.fixture(scope="module")
def no_numpy(tmp_path_factory):
    root = tmp_path_factory.mktemp("no_numpy")
    (root / "numpy").mkdir()
    (root / "numpy" / "__init__.py").write_text(
        'raise ImportError("numpy is not available")\n')
    return root


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", ["equilibrium", "stability", "normal-form"])
def test_analysis_commands_run_without_numpy(no_numpy, capsys, command, fmt):
    argv = [command, "--config", str(RECIPE), "--format", fmt]
    assert main(argv) == 0
    want = capsys.readouterr().out
    proc = _run(["-m", "sddhopf.cli"] + argv, [no_numpy, SRC])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


def test_the_blocked_numpy_is_what_the_subprocess_sees(no_numpy):
    proc = _run(["-c", "import numpy"], [no_numpy, SRC])
    assert proc.returncode == 1
    assert "ImportError: numpy is not available" in proc.stderr


def test_importing_the_package_and_cli_loads_neither_numpy_nor_dde():
    proc = _run(["-c", "import sys, sddhopf, sddhopf.cli; "
                       "print(sorted(m for m in ('numpy', 'sddhopf.dde') "
                       "if m in sys.modules))"], [SRC])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_cli_loads_no_dataclasses():
    # the records are NamedTuples, so no class is built through dataclasses
    proc = _run(["-c", "import sys; before = set(sys.modules); import sddhopf.cli; "
                       "print('dataclasses' in set(sys.modules) - before)"], [SRC])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# counts what importing sddhopf.cli builds: the ArgumentParser inits and
# the terminal-size queries, then the modules it must not load
COUNT_THE_IMPORT = '''
import argparse, shutil, sys
counts = {"parsers": 0, "queries": 0}
init, query = argparse.ArgumentParser.__init__, shutil.get_terminal_size

def counted_init(self, *args, **kwargs):
    counts["parsers"] += 1
    init(self, *args, **kwargs)

def counted_query(*args):
    counts["queries"] += 1
    return query(*args)

argparse.ArgumentParser.__init__ = counted_init
shutil.get_terminal_size = counted_query
import sddhopf.cli
counts["loaded"] = sorted(m for m in ("numpy", "sddhopf.dde", "dataclasses")
                          if m in sys.modules)
print(counts)
'''


def test_importing_the_cli_builds_one_parser_and_queries_the_terminal_once():
    # main() parses with the parser built here; a build moved back into
    # main(), or a second parser, changes the counts
    proc = _run(["-c", COUNT_THE_IMPORT], [SRC])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{'parsers': 1, 'queries': 1, 'loaded': []}\n"


@pytest.mark.parametrize("name", DDE_NAMES)
def test_dde_names_are_exported_lazily(name):
    assert getattr(sddhopf, name) is getattr(dde, name)
    assert name in dir(sddhopf)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sddhopf.no_such_name


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def missing_traced_names():
    """The (module, attribute) pairs of the tracer's SPANS and COUNTS that
    do not resolve in the package; a "Class.method" attribute must be
    defined on the class itself, where the tracer wraps it."""
    missing = []
    for module_name, attr, _ in TRACER.SPANS + TRACER.COUNTS:
        owner = importlib.import_module(module_name)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            found = name in vars(getattr(owner, cls_name, object))
        else:
            found = hasattr(owner, name)
        if not found:
            missing.append((module_name, attr))
    return missing


def test_every_name_the_benchmark_traces_resolves():
    assert len(TRACER.SPANS + TRACER.COUNTS) > 10
    assert missing_traced_names() == []


@pytest.mark.parametrize("owner,attr,traced", [
    (dde, "solve_delay", "solve_delay"), (dde.History, "eval", "History.eval")])
def test_a_removed_traced_name_is_reported(monkeypatch, owner, attr, traced):
    monkeypatch.delattr(owner, attr)
    assert missing_traced_names() == [("sddhopf.dde", traced)]
