"""One set-up of a benchmark session in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD INPUTS_DIR

Times ``import flowallometry`` from ``src/`` plus the session's loads of
the inputs in ``INPUTS_DIR``, and prints the seconds the two took together.
``run.py`` runs it several times through a run and reports the median as
``setup_s``.
"""

import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

start = time.perf_counter()
import flowallometry as fa  # noqa: E402
imported = time.perf_counter() - start

import run  # noqa: E402  (the sessions; numpy is loaded by now)

warnings.simplefilter("ignore", fa.FlowDataWarning)
session = run.SESSIONS[sys.argv[1]]()
start = time.perf_counter()
session.setup(fa, Path(sys.argv[2]))
print(imported + time.perf_counter() - start)
