"""Metric definitions: the end-to-end metrics of an untraced run and the
per-layer metrics of a traced run, with what each layer metric should move.

`BENCHMARK.json` at the repository root is `benchmark_spec()` written out;
`selfcheck.py` fails when the two drift apart.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass

from spans import MODULES, SpanStats, Tally

RUN_SECONDS = 20


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("pass_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric and workloads it should move


_LINDBLAD = "pass_s on noisy-gate and repeated-gate; nothing on closed-system or clifford-rb"
_CLOSED = "pass_s on closed-system"
_RB = "pass_s on clifford-rb"
_ALL = "pass_s on every workload"


def _spans(module: str, moves: str, *items: str) -> list[Layer]:
    """Span metrics `<module>.<span>.{calls,self_s,s}`; less of each is better."""
    return [Layer(f"{module}.{item}", "count" if item.endswith(".calls") else "s",
                  "lower", moves) for item in items]


PER_LAYER = (
    _spans("lindblad", _LINDBLAD, "liouvillian.calls", "liouvillian.self_s",
           "propagate.calls", "propagate.self_s", "gate_superoperator.calls",
           "gate_superoperator.self_s", "expm.calls", "expm.s")
    + [Layer("lindblad.expm.dim_max", "count", "lower", _LINDBLAD),
       Layer("lindblad.expm.n3_sum", "count", "lower", _LINDBLAD)]
    + _spans("lindblad", _LINDBLAD, "expm_multiply.calls", "expm_multiply.s")
    + [Layer("lindblad.live_frac", "ratio", "higher", _LINDBLAD)]
    + _spans("tomography", _CLOSED, "bell_circuit_record.self_s",
             "reconstruct_state.self_s", "simulated_leak_process.self_s",
             "chi_error.self_s", "expm.calls", "expm.s")
    + [Layer("tomography.leak_kraus_yield", "ratio", "higher", _CLOSED)]
    + _spans("gate", _CLOSED, "build_schedule.calls", "build_schedule.self_s",
             "ideal_unitary.calls", "ideal_unitary.self_s", "expm.calls", "expm.s")
    + _spans("calibration", _CLOSED, "chevron_scan.self_s", "swap_duration_scan.self_s",
             "swapback_phase_scan.self_s", "entangling_phase_scan.self_s",
             "local_z_scan.self_s", "run_calibration_flow.self_s",
             "expm.calls", "expm.s")
    + _spans("benchmarking", "setup_s on clifford-rb", "generate_clifford_group.s")
    + _spans("benchmarking", _RB, "simulate_rb.calls", "simulate_rb.self_s",
             "index_of.calls", "index_of.self_s", "replace.self_s", "fit.self_s",
             "simulate_bitflip_protocol.self_s")
    + _spans("error_channels", _RB, "qutrit_gate_channel.self_s",
             "postselected_fidelity.calls", "postselected_fidelity.self_s")
    + _spans("channels", "pass_s on noisy-gate (chi) and clifford-rb (apply)",
             "chi.calls", "chi.self_s", "superop.self_s", "apply.calls", "apply.self_s")
    + _spans("fock", _ALL, "build_mode_operator.calls", "build_mode_operator.self_s",
             "occupations.calls")
    + _spans("budget", "pass_s on noisy-gate", "compute_error_budget.self_s")
    + _spans("config", "setup_s on every workload", "load.s")
    + _spans("cli", _ALL, "write_outputs.self_s")
    + [Layer("cli.report_bytes", "bytes", "lower", _ALL)]
    + [Layer(f"{m}.errors", "count", "lower", "fail_frac on every workload")
       for m in MODULES]
    + [Layer("trace.overhead_s", "s", "lower",
             "nothing end to end: traced minus untraced pass time")]
)

# per-layer figures that are not a span field: name -> (numerator, denominator)
_RATIOS = {
    "lindblad.live_frac": ("lindblad.live_entries", "lindblad.entries"),
    "tomography.leak_kraus_yield": ("tomography.leak_kraus_kept",
                                    "tomography.leak_kraus_tried"),
}
_COUNTERS = ("lindblad.expm.n3_sum", "cli.report_bytes")
_MAXIMA = ("lindblad.expm.dim_max",)


def combine(setup: Tally, passes: list[Tally]) -> Tally:
    """One set-up plus the median pass, field by field."""
    out = Tally()
    names = set(setup.spans).union(*(p.spans for p in passes))
    for name in names:
        stats = out.spans[name] = SpanStats()
        for field in ("calls", "self_s", "s"):
            base = getattr(setup.spans.get(name, SpanStats()), field)
            per_pass = [getattr(p.spans.get(name, SpanStats()), field) for p in passes]
            setattr(stats, field, base + statistics.median(per_pass))
    for module in MODULES:
        out.errors[module] = setup.errors[module] + statistics.median(
            p.errors[module] for p in passes)
    keys = set(setup.counters).union(*(p.counters for p in passes))
    for key in keys:
        out.counters[key] = setup.counters.get(key, 0) + statistics.median(
            p.counters.get(key, 0) for p in passes)
    for key in set(setup.maxima).union(*(p.maxima for p in passes)):
        out.maxima[key] = max([setup.maxima.get(key, 0)]
                              + [p.maxima.get(key, 0) for p in passes])
    return out


def layer_values(tally: Tally, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric from the combined tally and the pass times."""
    values: dict[str, float] = {}
    for layer in PER_LAYER:
        name = layer.name
        if name in _RATIOS:
            num, den = (tally.counters.get(k, 0) for k in _RATIOS[name])
            value = num / den if den else 0.0
        elif name in _COUNTERS:
            value = tally.counters.get(name, 0)
        elif name in _MAXIMA:
            value = tally.maxima.get(name, 0)
        elif name == "trace.overhead_s":
            value = traced_s - untraced_s
        elif name.endswith(".errors"):
            value = tally.errors[name.split(".")[0]]
        else:
            span, field = name.rsplit(".", 1)
            value = getattr(tally.spans.get(span, SpanStats()), field)
        values[name] = value
    return values


def benchmark_spec(workloads) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
