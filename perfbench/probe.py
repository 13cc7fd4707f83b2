"""Set-up probe: import dephwit and run one workload's small warm-up round.

    python3 perfbench/probe.py <workload> <seed> <output directory>

`run.py` times this script in fresh processes; that wall time is the
set-up a CLI user pays on every invocation.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import dephwit  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    outdir.mkdir(parents=True)
    for op in workloads.WARMUPS[name](np.random.default_rng([seed, 0]), outdir):
        op.finish(op.call())
