"""Set-up cost a CLI user pays on every call, timed in this fresh interpreter:
import sddhopf.cli and load the workload's recipes. Prints the seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
import time

from workloads import RECIPE_FILES, RECIPES

t0 = time.perf_counter()
import sddhopf.cli                                 # noqa: E402

for name in RECIPE_FILES[sys.argv[1]]:
    sddhopf.cli.load_config(RECIPES / name)
print(repr(time.perf_counter() - t0))
