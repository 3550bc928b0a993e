"""Record the reference outputs that the benchmark compares against at the
default workload seed: the first ops of each workload, run untraced.

Run from the repository root: python3 perfbench/record_reference.py
Rewrite the file only when a change is meant to alter outputs, and say so
in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# ops recorded per workload; every run makes at least the warm-up op
OPS = {"forward-s-k4": 2, "toy-train": 3, "grad-check": 2}


def main() -> None:
    reference = {}
    for name, ops in OPS.items():
        wl = WORKLOADS[name](DEFAULT_SEED)
        records = []
        for i in range(ops):
            out = wl.op(wl.make_input(i))
            problem = wl.check(out)
            if problem is not None:
                raise SystemExit(f"{name} op {i}: {problem}")
            records.append(wl.record(out))
        reference[name] = records
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
