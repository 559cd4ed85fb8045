"""One set-up in a fresh interpreter; prints its duration in seconds.

    python3 perfbench/probe.py <workload>

Times the import of drcz, loading the built-in DeviceConfig and filling
the workload's one-time caches: what every `drcz` CLI process pays before
its first experiment.  `run.py` starts it with the BLAS threads pinned.
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.setup(workloads.WORKLOADS[sys.argv[1]])
print(time.perf_counter() - START)
