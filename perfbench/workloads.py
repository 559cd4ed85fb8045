"""The benchmark's workloads: set-up, the calls one pass makes, and checks.

A pass is one closed loop of experiment calls made back to back by one
client, the way a `drcz` user runs experiments.  Every call returns an
observation (plain JSON data) that is compared with the reference
observations recorded in `reference.json`.  `--seed` reaches the program
only as the `seed` argument of `drcz.cli.run_experiment`.

Calls go through module attributes (`cli.run_experiment`, not a name bound
at import) so that the tracer's wrappers see them.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import drcz
from drcz import benchmarking, channels, cli, config, lindblad, tomography

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 0

# |observed - reference| <= ATOL + RTOL * |reference| for every number.
# Sending the same propagations through the sparse instead of the dense
# path moves the Bell reports by at most 4e-12 relative and 1e-15
# absolute; a changed rate, duration or phase moves budget, chi and
# survival figures by far more than 1e-6 relative.
RTOL = 1e-6
ATOL = 1e-9

# seed-independent acceptance bounds for the seeded clifford-rb reports
IRB_SLOPE = (0.6, 1.1)
IRB_UNDERESTIMATE = (0.10, 0.40)
BUDGET_SUM_TOL = 1e-6


@dataclass
class Context:
    cfg: object
    seed: int
    out_dir: Path
    reference: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Call:
    label: str
    run: Callable[[Context], dict]
    seeded: bool = False  # output depends on --seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]
    fill_caches: Callable[[], None] = lambda: None


# --- observations ------------------------------------------------------------

def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _report(name: str, **kwargs) -> Callable[[Context], dict]:
    """One `run_experiment` call, observed through the files it writes."""
    def run(ctx: Context) -> dict:
        paths = cli.run_experiment(name, ctx.cfg, ctx.out_dir, seed=ctx.seed, **kwargs)
        csv_path, json_path, _ = paths
        with open(csv_path, newline="") as fh:
            rows = [[_cell(v) for v in row] for row in csv.reader(fh)]
        return {"json": json.loads(json_path.read_text()), "csv": rows}
    return run


def _repeated_gate(n_gates: int) -> Callable[[Context], dict]:
    """The calls `drcz repeated-cz` makes for one circuit depth."""
    def run(ctx: Context) -> dict:
        p = ctx.cfg.system_params()
        record = tomography.bell_circuit_record(
            n_gates, params=p, noise=lindblad.NoiseModel.from_params(p),
            readout=ctx.cfg.readout(2))
        post = tomography.reconstruct_state(record, postselect=True)
        fidelity, purity = tomography.bell_metrics(
            post, reference=cli._circuit_bell_reference(n_gates))
        raw = tomography.reconstruct_state(record, postselect=False)
        return {"n_gates": n_gates, "postselected_fidelity": fidelity,
                "purity": purity,
                "kept_fraction": float(np.real(np.trace(raw.data))),
                "probabilities": [[*key, record.counts[key]]
                                  for key in sorted(record.counts)]}
    return run


def _fill_pauli_basis() -> None:
    """The cached two-qubit Pauli basis that chi and tomography fill on first use."""
    channels.pauli_basis(2)


def _fill_rb_caches() -> None:
    _fill_pauli_basis()
    benchmarking.generate_clifford_group(1)
    benchmarking.generate_clifford_group(2)


WORKLOADS = {w.name: w for w in (
    Workload(
        "noisy-gate",
        "Lindblad-heavy: each gate map is built once and fed 16 inputs (budget) "
        "or 1 (Bell), at d=32 (dense path) and d=243 (sparse path).",
        (Call("error-budget@2", _report("error-budget", truncation=2)),
         Call("error-budget@3", _report("error-budget", truncation=3)),
         Call("bell-tomography", _report("bell-tomography"))),
        fill_caches=_fill_pauli_basis),
    Workload(
        "repeated-gate",
        "One state passes through the same noisy schedule three times (depth-3 "
        "repeated-cz): the reuse pattern a cached gate map targets.",
        (Call("repeated-cz@3", _repeated_gate(3)),)),
    Workload(
        "closed-system",
        "Hamiltonian expm/eigh only, zero Lindblad calls: shows eigendecomposition "
        "work and should not move under a Lindblad optimisation.",
        (Call("gate-unitary", _report("gate-unitary")),
         Call("leakage-propagation", _report("leakage-propagation")),
         Call("calibration", _report("calibration"))),
        fill_caches=_fill_pauli_basis),
    Workload(
        "clifford-rb",
        "No Lindblad or Hamiltonian expm: Clifford indexing and RB simulation show "
        "here and nowhere else; the only workload whose output depends on the seed.",
        (Call("rb", _report("rb"), seeded=True),
         Call("irb", _report("irb"), seeded=True),
         Call("irb-accuracy", _report("irb-accuracy"), seeded=True),
         Call("bitflip", _report("bitflip"))),
        fill_caches=_fill_rb_caches),
)}


def setup(workload: Workload) -> object:
    """What every CLI process pays before its first experiment: the package
    import is done by the caller; this loads the built-in config and fills
    the one-time caches the workload's first call would fill."""
    cfg = config.DeviceConfig.default()
    workload.fill_caches()
    return cfg


# --- checks --------------------------------------------------------------------

def differences(observed, reference, path: str = "") -> list[str]:
    """Every place where two observations disagree beyond the tolerance."""
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or observed.keys() != reference.keys():
            return [f"{path}: keys differ"]
        return [d for k in reference for d in differences(observed[k], reference[k], f"{path}/{k}")]
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            return [f"{path}: length differs"]
        return [d for i, (o, r) in enumerate(zip(observed, reference))
                for d in differences(o, r, f"{path}[{i}]")]
    if isinstance(reference, (int, float)) and not isinstance(reference, bool):
        if isinstance(observed, bool) or not isinstance(observed, (int, float)):
            return [f"{path}: {observed!r} is not a number"]
        if not abs(observed - reference) <= ATOL + RTOL * abs(reference):
            return [f"{path}: {observed!r} != {reference!r}"]
        return []
    return [] if observed == reference else [f"{path}: {observed!r} != {reference!r}"]


def _within(value: float, bounds: tuple[float, float], what: str) -> list[str]:
    lo, hi = bounds
    return [] if lo <= value <= hi else [f"{what} {value!r} outside [{lo}, {hi}]"]


def _probabilities(values, what: str) -> list[str]:
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    return [f"{what}: {bad[:3]} outside [0, 1]"] if bad else []


def _seeded_checks(label: str, observed: dict, reference: dict) -> list[str]:
    """Acceptance bounds that hold at every seed, for seed-dependent reports."""
    doc = observed["json"]
    if label == "irb-accuracy":
        return (_within(doc["slope"], IRB_SLOPE, "IRB slope")
                + _within(doc["underestimate_at_operating_point"], IRB_UNDERESTIMATE,
                          "operating-point underestimate")
                + differences(len(observed["csv"]), len(reference["csv"]), "/rows"))
    if label == "rb":
        return (differences(doc["depths"], reference["json"]["depths"], "/depths")
                + _probabilities(doc["postselected_survival"] + doc["kept_fraction"], label))
    if label == "irb":
        rows = [v for row in observed["csv"][1:] for v in row[1:]]
        return (differences(doc["cz_infidelity_true"],
                            reference["json"]["cz_infidelity_true"], "/cz_infidelity_true")
                + _probabilities(rows, label))
    raise KeyError(label)


def check(call: Call, observed: dict, ctx: Context) -> list[str]:
    reference = ctx.reference[call.label]
    if call.seeded and ctx.seed != REFERENCE_SEED:
        problems = _seeded_checks(call.label, observed, reference)
    else:
        problems = differences(observed, reference)
    if call.label.startswith("error-budget"):
        total = sum(observed["json"]["simulated"].values())
        if not abs(total - 1.0) <= BUDGET_SUM_TOL:
            problems.append(f"budget entries sum to {total!r}")
    if any(isinstance(v, float) and not math.isfinite(v) for v in _numbers(observed)):
        problems.append("non-finite number in the report")
    return problems


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, float):
        yield value


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["observations"]


def package_dir() -> Path:
    return Path(drcz.__file__).resolve().parent
