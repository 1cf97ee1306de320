"""One timed set-up, run in a fresh process by ``run.py``.

    python3 perfbench/setup_child.py WORKLOAD SEED OUT_DIR

Imports the program, fills the grid and partition caches and builds the
workload's inputs, then prints the wall-clock time at which the inputs
were ready.  The parent subtracts the time it started this process.
"""

import sys
import time
from pathlib import Path

from run import import_program

if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import_program()
    import workloads

    workloads.make(workload, seed).setup(out_dir)
    print(time.time())
