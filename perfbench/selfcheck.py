"""The benchmark's own tests.

    python3 perfbench/selfcheck.py

Checks that:
  * BENCHMARK.json is metrics.benchmark_spec() written out;
  * the tracer wraps every binding site of a traced name (a function bound
    with `from ... import` in several modules), and uninstalls cleanly;
  * the correctness tolerance passes reassociation-sized noise and fails a
    physics-sized change;
  * two traced runs of every workload at the reference
    seed are correct, repeat every count exactly, give every per-layer
    metric at least one call on some workload, and keep the design of the
    workloads: Lindblad self time is most of a pass on noisy-gate and
    repeated-gate, and there are no Lindblad calls on closed-system and
    clifford-rb.  The tracing overhead (traced minus untraced pass time)
    is printed per workload, next to an estimate from the number of spans
    and the cost of one span on a function doing nothing.

It is not named test_*.py so that the repository's pytest run does not
collect it; it starts the benchmark in subprocesses and takes a few minutes.
Exit status 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import copy
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# binding sites where a name is imported from the module that defines it
BINDING_SITES = [("tomography", "propagate"), ("budget", "propagate"),
                 ("budget", "gate_superoperator"), ("calibration", "propagate"),
                 ("calibration", "liouvillian")]
BINDING_SITES += [(m, "expm") for m in ("gate", "lindblad", "tomography",
                                         "calibration", "benchmarking")]
COUNT_UNITS = ("count", "bytes")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_spec() -> None:
    spec = metrics.benchmark_spec(workloads.WORKLOADS.values())
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(on_disk == spec, "BENCHMARK.json matches metrics.benchmark_spec()")


def _cli_imports() -> list[tuple[str, str]]:
    cli = sys.modules["drcz.cli"]
    return [("cli", name) for name, obj in vars(cli).items()
            if callable(obj) and getattr(obj, "__module__", "").startswith("drcz.")
            and obj.__module__ != "drcz.cli" and not isinstance(obj, type)
            and not name.startswith("_")]


def check_binding_sites() -> None:
    sites = BINDING_SITES + _cli_imports()
    originals = {site: getattr(sys.modules[f"drcz.{site[0]}"], site[1]) for site in sites}
    with Tracer() as tracer:
        for (module, name) in sites:
            bound = getattr(sys.modules[f"drcz.{module}"], name)
            expect(hasattr(bound, "__wrapped_span__"),
                   f"drcz.{module}.{name} is wrapped while tracing")
        replaced = {id(o) for o in tracer.originals()}
        stale = [f"{n}.{a}" for n, m in sys.modules.items()
                 if (n == "drcz" or n.startswith("drcz.")) and m is not None
                 for a, v in vars(m).items() if id(v) in replaced]
        expect(not stale, f"no drcz module keeps an unwrapped original {stale}")
    restored = all(getattr(sys.modules[f"drcz.{m}"], n) is originals[(m, n)]
                   for m, n in sites)
    expect(restored, "uninstall restores every binding site")


def check_tolerance() -> None:
    reference = workloads.load_reference()
    doc = reference["error-budget@2"]
    key = next(iter(doc["json"]["simulated"]))
    value = doc["json"]["simulated"][key]
    for rel, should_pass in ((1e-12, True), (1e-4, False)):
        moved = copy.deepcopy(doc)
        moved["json"]["simulated"][key] = value * (1 + rel)
        passed = not workloads.differences(moved, doc)
        expect(passed == should_pass,
               f"a {rel:g} relative change to {key} {'passes' if should_pass else 'fails'}")


def _span_cost(calls: int = 200_000) -> float:
    """Seconds one span adds to a call, timed on a function doing nothing."""
    def noop():
        return None
    wrapped = Tracer().wrap("cli.noop", noop)
    times = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - start)
    return max(times[1] - times[0], 0.0) / calls


def _traced_run(workload: str) -> dict:
    """Results file of one traced run, read before the next run rewrites it."""
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(workloads.REFERENCE_SEED), "--seconds", "1",
                    "--trace", "1"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    path = HERE / "results" / f"{workload}-seed{workloads.REFERENCE_SEED}-trace1.json"
    return json.loads(path.read_text())


def _span_calls(result: dict) -> dict[str, int]:
    calls: dict[str, int] = {}
    for tally in [result["setup_tally"]] + result["pass_tallies"]:
        for name, stats in tally["spans"].items():
            calls[name] = calls.get(name, 0) + stats["calls"]
    return calls


def _pass_spans(result: dict) -> float:
    """Median number of spans one traced pass records."""
    return statistics.median(sum(s["calls"] for s in tally["spans"].values())
                             for tally in result["pass_tallies"])


def _lindblad_share(result: dict) -> float:
    """Median share of a traced pass spent in Lindblad self time."""
    return statistics.median(
        sum(s["self_s"] for n, s in tally["spans"].items() if n.startswith("lindblad."))
        / traced for tally, traced in zip(result["pass_tallies"], result["traced_pass_s"]))


def check_traced_runs() -> None:
    units = {m.name: m.unit for m in metrics.PER_LAYER}
    span_cost = _span_cost()
    seen: dict[str, int] = {}
    values, shares = {}, {}
    for name in workloads.WORKLOADS:
        a, b = _traced_run(name), _traced_run(name)
        expect(a["correct"] and b["correct"], f"{name}: traced runs are correct")
        va = {k: v["value"] for k, v in a["metrics"].items()}
        vb = {k: v["value"] for k, v in b["metrics"].items()}
        differ = [k for k in va if units[k] in COUNT_UNITS and va[k] != vb[k]]
        expect(not differ, f"{name}: counts repeat exactly across two traced runs {differ}")
        for key, calls in _span_calls(a).items():
            seen[key] = seen.get(key, 0) + calls
        values[name] = va
        shares[name] = _lindblad_share(a)
        overhead = va["trace.overhead_s"]
        untraced = min(a["untraced_pass_s"])
        spans = _pass_spans(a)
        print(f"     {name}: tracing overhead {overhead:+.3f} s measured on a "
              f"{untraced:.3f} s pass; {spans * span_cost:.3f} s estimated from "
              f"{spans:.0f} spans at {1e6 * span_cost:.2f} us each")

    spans, others = set(), []
    for layer in metrics.PER_LAYER:
        span, field = layer.name.rsplit(".", 1)
        if field in ("calls", "self_s", "s"):
            spans.add(span)
        elif field == "errors":
            expect(any(k.startswith(span + ".") for k in seen),
                   f"module {span} records spans on some workload")
        elif layer.name != "trace.overhead_s":
            others.append(layer.name)
    silent = sorted(s for s in spans if not seen.get(s))
    expect(not silent, f"every traced span records calls on some workload {silent}")
    zero = [n for n in others if not any(values[w][n] for w in values)]
    expect(not zero, f"every derived layer metric is nonzero on some workload {zero}")

    for name in ("noisy-gate", "repeated-gate"):
        frac = shares[name]
        expect(frac > 0.5, f"{name}: lindblad self time is most of the pass ({frac:.2f})")
    for name in ("closed-system", "clifford-rb"):
        busy = [k for k, v in values[name].items()
                if k.startswith("lindblad.") and k.endswith(".calls") and v]
        expect(not busy, f"{name}: no lindblad calls {busy}")
    expect(values["closed-system"]["tomography.expm.calls"] > 0,
           "closed-system: tomography.expm.calls is nonzero")
    expect(values["clifford-rb"]["benchmarking.simulate_rb.calls"] > 0,
           "clifford-rb: benchmarking.simulate_rb.calls is nonzero")


def main() -> int:
    check_spec()
    check_binding_sites()
    check_tolerance()
    check_traced_runs()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
