"""drcz benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Runs from the root of a checkout and imports `drcz` from its `src/`.
Passes over the workload's experiment calls run back to back until the
next pass would end after S seconds (at least one pass, never cut short,
so a run of a workload whose pass is longer than S takes longer than S).  Every call's
reported numbers are checked against `reference.json`.

--trace 0 reports the end-to-end metrics: setup_s (median of fresh
interpreters importing drcz, loading the config and filling the
workload's caches), pass_s (median pass, caches warm, tracing off) and
peak_rss_mb (ru_maxrss of this process).  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of one set-up plus
the median traced pass.  The last line of standard output is one JSON
object; a results file with the run record goes to perfbench/results.
BLAS/OpenMP threads are pinned to BLAS_THREADS before numpy loads.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1  # the same on every machine, so never above nproc
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_setup(workload: str) -> list[float]:
    """setup_s samples, each from a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Loop:
    """Runs passes and keeps per-call outcomes."""

    def __init__(self, workload, ctx, check) -> None:
        self.workload = workload
        self.ctx = ctx
        self.check = check
        self.attempted = 0
        self.failures: list[dict] = []

    def one_pass(self) -> float:
        """Time spent inside the workload's calls; checks run outside it."""
        busy = 0.0
        for call in self.workload.calls:
            self.attempted += 1
            start = time.perf_counter()
            try:
                observed = call.run(self.ctx)
            except Exception:  # a failed call is counted, not fatal
                busy += time.perf_counter() - start
                self.failures.append({"call": call.label,
                                      "error": traceback.format_exc(limit=8)})
                continue
            busy += time.perf_counter() - start
            try:
                problems = self.check(call, observed, self.ctx)
            except Exception as exc:  # a report of another shape disagrees
                problems = [f"check raised {exc!r}"]
            if problems:
                self.failures.append({"call": call.label, "mismatch": problems[:20]})
        return busy


def repeat(body, seconds: float) -> list:
    """Call body() once, then again until the next call would end after
    `seconds`; a call is never cut short."""
    out, lengths, start = [], [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(body())
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return out


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import drcz from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if workloads.package_dir().parent != ROOT / "src":
        print(f"drcz was imported from {workloads.package_dir()}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import metrics
    from record import run_record
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    results_dir = HERE / "results"
    out_dir = results_dir / "reports" / args.workload
    record = run_record(ROOT, workloads.package_dir(), seed=args.seed,
                        threads=BLAS_THREADS, thread_vars=THREAD_VARS)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "record": record}

    if args.trace:
        tracer = Tracer()
        with tracer:
            cfg = workloads.setup(workload)
        setup_tally = tracer.take()
        ctx = workloads.Context(cfg, args.seed, out_dir, workloads.load_reference())
        loop = Loop(workload, ctx, workloads.check)

        def traced_pair():
            untraced = loop.one_pass()
            with tracer:
                traced = loop.one_pass()
            return untraced, traced, tracer.take()

        pairs = repeat(traced_pair, args.seconds)
        passes = len(pairs)
        untraced_s = statistics.median(p[0] for p in pairs)
        traced_s = statistics.median(p[1] for p in pairs)
        combined = metrics.combine(setup_tally, [p[2] for p in pairs])
        values = metrics.layer_values(combined, untraced_s, traced_s)
        units = {m.name: m.unit for m in metrics.PER_LAYER}
        result.update(untraced_pass_s=[p[0] for p in pairs],
                      traced_pass_s=[p[1] for p in pairs],
                      setup_tally=setup_tally.as_dict(),
                      pass_tallies=[p[2].as_dict() for p in pairs])
    else:
        setup_samples = _probe_setup(args.workload)
        cfg = workloads.setup(workload)
        ctx = workloads.Context(cfg, args.seed, out_dir, workloads.load_reference())
        loop = Loop(workload, ctx, workloads.check)
        pass_times = repeat(loop.one_pass, args.seconds)
        passes = len(pass_times)
        values = {"setup_s": statistics.median(setup_samples),
                  "pass_s": statistics.median(pass_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {m.name: m.unit for m in metrics.END_TO_END}
        result.update(setup_samples_s=setup_samples, pass_s_samples=pass_times)

    failed = len(loop.failures)
    summary = {"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    result.update(summary, fail_frac=failed / loop.attempted, failures=loop.failures)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    (results_dir / "run_record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}"
          f"  blas_threads {BLAS_THREADS}  results {path}")
    for name, value in values.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':<44} {failed / loop.attempted:>16.6g} ratio"
          f"  ({failed}/{loop.attempted} calls)")
    for failure in loop.failures[:5]:
        print(f"  FAILED {failure['call']}: {failure.get('mismatch') or failure['error']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
