"""Set-up probe: what a fresh interpreter does before a workload's first timed
operation, namely import the workload and the program and prepare its inputs,
config and grid (``workloads.<Workload>.prepare``).  run.py times this script
end to end, several times per run.

    python3 perfbench/probe.py {solve-full,simulate-full,pipeline-desk} SEED
"""

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(workload: str, seed: int) -> None:
    import workloads

    out_dir = HERE / "out" / f"probe-{workload}-pid{os.getpid()}"
    try:
        workloads.make(workload, str(out_dir)).prepare(seed)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
