"""Time one set-up of a workload in a fresh interpreter: ``import drca``
plus building the workload's state.  Prints the seconds.

Run: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import drca  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter() - START)
