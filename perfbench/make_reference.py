"""Record the reference observations the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every workload's calls once at the reference seed and writes
`perfbench/reference.json`.  Only rerun it at a commit whose reported
numbers are known to be right: the benchmark's correctness check is only
as good as this file.
"""
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    from run import BLAS_THREADS, THREAD_VARS
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from record import run_record

    observations = {}
    for workload in workloads.WORKLOADS.values():
        ctx = workloads.Context(workloads.setup(workload), workloads.REFERENCE_SEED,
                                HERE / "results" / "reports" / "reference")
        for call in workload.calls:
            observations[call.label] = call.run(ctx)
    record = run_record(ROOT, workloads.package_dir(), seed=workloads.REFERENCE_SEED,
                        threads=BLAS_THREADS, thread_vars=THREAD_VARS)
    doc = {"seed": workloads.REFERENCE_SEED, "rtol": workloads.RTOL,
           "atol": workloads.ATOL, "git_commit": record["git_commit"],
           "source_sha256": record["source_sha256"], "observations": observations}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(workloads.REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
