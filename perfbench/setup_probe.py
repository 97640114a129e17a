"""Set-up of one workload in a fresh interpreter, timed by ``run.py``.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports the package and builds the workload's inputs, as a run does before
its first pass.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import wordmaplab.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.cases(sys.argv[1], int(sys.argv[2]), HERE / "out")
