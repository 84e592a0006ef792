"""Set-up probe: one fresh process doing a workload's set-up, then exiting.

    python3 perfbench/probe.py SRC_DIR WORKLOAD INPUT_DIR

prints the seconds from before the first import to the end of the
workload's set-up: importing numpy and raildet, building the pipeline
configuration and building or loading the weights.
"""
import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

if __name__ == "__main__":
    src, workload, in_dir = sys.argv[1:4]
    sys.path.insert(0, src)
    from workloads import WORKLOADS, State

    WORKLOADS[workload].setup(State(in_dir=Path(in_dir), out_dir=Path(in_dir), names=[]))
    print(f"{time.perf_counter() - _T0:.6f}")
