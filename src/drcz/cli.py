"""Command-line driver for the simulation experiments.

    drcz <experiment> [--config PATH] [--out DIR] [--seed N]
                      [--truncation {2,3}] [--include-static-kerr]

Each experiment writes three files into the output directory:
``<experiment>.csv`` with the data rows, ``<experiment>.json`` with a
summary, and ``<experiment>.txt`` with a readable table.  At a fixed
BLAS thread count, output bytes depend only on the config contents and
the seed.  Across thread counts the gate-map experiments (error-budget,
bell-tomography, repeated-cz) can differ in their last digits: the
OpenBLAS LU factorization (getrf) in scipy.linalg.expm's Pade solve
rounds differently with one and two threads from dimension ~100 up, and
the gate maps have 126 (truncation 2) and 251 (truncation 3)
dimensions.  Only gate-unitary and error-budget read --truncation, and
only they, rb, irb and bitflip read --include-static-kerr; the others
refuse the flag instead of ignoring it.  Exit status: 0 on success, 2
for a config problem or a bad flag value (a negative --seed included),
3 when the experiment fails or refuses a flag.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .benchmarking import (fit_exponential, fit_linear_fidelity,
                           interleaved_gate_error, irb_accuracy_study,
                           simulate_bitflip_protocol, simulate_rb)
from .budget import compute_error_budget, fundamental_limits
from .calibration import run_calibration_flow
from .channels import pauli_labels
from .config import ConfigError, DeviceConfig
from .error_channels import CZ4, full_gate_channel, postselected_fidelity
from .fock import ModeRegister
from .gate import (build_schedule, codespace_block, derive_gate_params,
                   extract_local_frame, ideal_unitary, on_off_ratio)
from .lindblad import NoiseModel
from .tomography import (bell_circuit_record, bell_metrics, reconstruct_state,
                         setting_unitary, simulated_leak_process)

__all__ = ["main", "run_experiment", "EXPERIMENTS"]

TWO_PI = 2.0 * math.pi

_RB_DEPTHS = (1, 2, 3, 5, 8, 12)
_RB_SEQUENCES = 16
_BITFLIP_DEPTHS = (1, 10, 25, 50, 100)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_outputs(out_dir: Path, name: str, header: list[str],
                   rows: list[tuple], doc: dict, title: str) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    text_rows = [[_fmt(v) for v in row] for row in rows]
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in text_rows:
            fh.write(",".join(row) + "\n")

    json_path = out_dir / f"{name}.json"
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    txt_path = out_dir / f"{name}.txt"
    widths = [max(len(header[i]), *(len(r[i]) for r in text_rows)) if text_rows
              else len(header[i]) for i in range(len(header))]
    lines = [title, ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    txt_path.write_text("\n".join(lines) + "\n")
    return [csv_path, json_path, txt_path]


def _linear_slope(x: list[float], y: list[float]) -> tuple[float, float]:
    slope, intercept = np.polyfit(np.asarray(x, dtype=float), np.asarray(y, dtype=float), 1)
    return float(slope), float(intercept)


# --- experiment handlers ----------------------------------------------------


def _run_gate_unitary(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    p = cfg.system_params()
    t_swap, t_wait, phi_swap = derive_gate_params(p)
    register = ModeRegister.standard(args.truncation)
    schedule = build_schedule(p, register,
                              include_static_crosskerr=args.include_static_kerr)
    block = codespace_block(ideal_unitary(schedule))
    frame = extract_local_frame(block)
    correction = np.exp(-1j * np.array([
        0.0, frame.phi_target, frame.phi_control,
        frame.phi_target + frame.phi_control]))
    corrected = np.diag(block) * correction
    corrected = corrected / (corrected[0] / abs(corrected[0]))
    cz_diag = np.array([1.0, 1.0, 1.0, -1.0])
    infidelity = 1.0 - abs(np.vdot(cz_diag, corrected)) ** 2 / 16.0

    values = {
        "t_swap_us": t_swap,
        "t_wait_us": t_wait,
        "gate_duration_us": schedule.total_duration,
        "swapback_pump_phase_rad": phi_swap,
        "control_frame_phase_rad": frame.phi_control,
        "target_frame_phase_rad": frame.phi_target,
        "entangling_phase_rad": frame.phi_e,
        "codespace_infidelity": infidelity,
        "on_off_ratio": on_off_ratio(p),
    }
    rows = [(k, v) for k, v in values.items()]
    return (["quantity", "value"], rows, dict(values),
            "Swap-wait-swap gate at the derived operating point")


def _run_error_budget(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    budget = compute_error_budget(cfg, truncation=args.truncation,
                                  include_static_crosskerr=args.include_static_kerr)
    entries = budget.as_dict()
    rows = [(k, v, 100.0 * v) for k, v in entries.items()]
    doc = {
        "simulated": entries,
        "erasure_total": budget.erasure_total,
        "measured_short_depth": {
            "control_leak": cfg.cz_leak_control,
            "target_leak": cfg.cz_leak_target,
            "control_z": cfg.cz_z_control,
            "target_z": cfg.cz_z_target,
        },
        "note": ("simulated budget and measured short-depth rates are "
                 "reported side by side; agreement is not forced"),
    }
    return (["entry", "probability", "percent"], rows, doc,
            "Per-gate error budget (master-equation simulation)")


def _run_bell_tomography(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    p = cfg.system_params()
    record = bell_circuit_record(1, params=p, noise=NoiseModel.from_params(p),
                                 readout=cfg.readout(2))
    post = reconstruct_state(record, postselect=True)
    raw = reconstruct_state(record, postselect=False)
    fid_post, purity_post = bell_metrics(post)
    fid_raw, purity_raw = bell_metrics(raw)
    rows = [(sc, st, oc, ot, record.counts[(sc, st, oc, ot)])
            for (sc, st, oc, ot) in sorted(record.counts)]
    doc = {
        "postselected": {"fidelity": fid_post, "purity": purity_post},
        "raw": {"fidelity": fid_raw, "purity": purity_raw},
    }
    return (["setting_control", "setting_target", "outcome_control",
             "outcome_target", "probability"], rows, doc,
            "Bell-state tomography after one gate")


def _circuit_bell_reference(n_gates: int) -> np.ndarray:
    """Ideal output of the n-gate Bell circuit (echoed for odd n >= 3)."""
    r = setting_unitary("X90")
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    v = np.kron(r[:, 0], r[:, 0])
    echoed = n_gates % 2 == 1 and n_gates >= 3
    first = (n_gates - 1) // 2 if echoed else 0
    for _ in range(first):
        v = cz @ v
    if echoed:
        x = setting_unitary("X180")
        v = np.kron(x, x) @ v
    for _ in range(n_gates - first):
        v = cz @ v
    return v


def _run_repeated_cz(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    p = cfg.system_params()
    noise = NoiseModel.from_params(p)
    depths = (1, 3, 5, 7, 9)
    rows = []
    fidelities, kept = [], []
    for n in depths:
        record = bell_circuit_record(n, params=p, noise=noise,
                                     readout=cfg.readout(2))
        post = reconstruct_state(record, postselect=True)
        fid, purity = bell_metrics(post, reference=_circuit_bell_reference(n))
        raw = reconstruct_state(record, postselect=False)
        kept_fraction = float(np.real(np.trace(raw.data)))
        rows.append((n, fid, purity, kept_fraction))
        fidelities.append(fid)
        kept.append(kept_fraction)
    slope, intercept = _linear_slope(list(depths), fidelities)
    kept_slope, _ = _linear_slope(list(depths), kept)
    doc = {
        "n_gates": list(depths),
        "postselected_fidelity": fidelities,
        "kept_fraction": kept,
        "fidelity_slope_per_gate": slope,
        "fidelity_intercept": intercept,
        "erasure_per_gate_from_kept": -kept_slope,
    }
    return (["n_gates", "postselected_fidelity", "purity", "kept_fraction"],
            rows, doc, "Bell fidelity under repeated gates (postselected)")


def _rb_seeds(seed: int) -> tuple[int, ...]:
    return tuple(seed * 1000 + k for k in range(_RB_SEQUENCES))


def _run_rb(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    noise = cfg.native_noise(include_cross_kerr=args.include_static_kerr)
    record = simulate_rb(noise, _RB_DEPTHS, _rb_seeds(args.seed),
                         spam=cfg.readout(2))
    fit = fit_linear_fidelity(record)
    p, a, b, sigma = fit_exponential(record)
    rows = list(zip(record.depths, record.mean_raw(),
                    record.mean_postselected(), record.mean_kept()))
    doc = {
        "depths": list(record.depths),
        "postselected_survival": [float(v) for v in record.mean_postselected()],
        "kept_fraction": [float(v) for v in record.mean_kept()],
        "linear_slope": fit.slope,
        "linear_intercept": fit.intercept,
        "error_per_clifford": fit.error_rate,
        "exponential": {"p": p, "amplitude": a, "offset": b, "sigma_p": sigma},
    }
    return (["depth", "raw_survival", "postselected_survival", "kept_fraction"],
            rows, doc, "Reference randomized benchmarking (erasure-aware)")


def _run_irb(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    noise = cfg.native_noise(include_cross_kerr=args.include_static_kerr)
    seeds = _rb_seeds(args.seed)
    spam = cfg.readout(2)
    reference = simulate_rb(noise, _RB_DEPTHS, seeds, spam=spam)
    interleaved = simulate_rb(noise, _RB_DEPTHS, seeds, interleave="CZ", spam=spam)
    fit_ref = fit_linear_fidelity(reference)
    fit_int = fit_linear_fidelity(interleaved)
    r_cz = interleaved_gate_error(fit_ref, fit_int)
    kept_ref, _ = _linear_slope(list(reference.depths),
                                [float(v) for v in reference.mean_kept()])
    kept_int, _ = _linear_slope(list(interleaved.depths),
                                [float(v) for v in interleaved.mean_kept()])
    channel = full_gate_channel(cfg.channel_rates())
    true_infidelity = 1.0 - postselected_fidelity(channel, CZ4)
    rows = [(d, rs, is_, rk, ik) for d, rs, is_, rk, ik in zip(
        reference.depths, reference.mean_postselected(),
        interleaved.mean_postselected(), reference.mean_kept(),
        interleaved.mean_kept())]
    doc = {
        "depths": list(reference.depths),
        "reference_slope": fit_ref.slope,
        "interleaved_slope": fit_int.slope,
        "cz_error_interleaved": r_cz,
        "cz_infidelity_true": true_infidelity,
        "erasure_per_cz_from_kept": -(kept_int - kept_ref),
    }
    return (["depth", "reference_survival", "interleaved_survival",
             "reference_kept", "interleaved_kept"], rows, doc,
            "Interleaved randomized benchmarking of the two-qubit gate")


def _run_irb_accuracy(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    study = irb_accuracy_study(cfg.channel_rates(), n_samples=40,
                               seed=args.seed or 20260813)
    rows = list(zip(study.true_infidelity, study.inferred_infidelity))
    doc = {
        "slope": study.slope,
        "offset": study.offset,
        "operating_point_true": study.operating_point[0],
        "operating_point_inferred": study.operating_point[1],
        "underestimate_at_operating_point": study.underestimate_at_operating_point,
    }
    return (["true_infidelity", "inferred_infidelity"], rows, doc,
            "Interleaved-RB inferred error versus true gate infidelity")


def _run_leakage_propagation(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    p = cfg.system_params()
    labels = pauli_labels(1)
    rows = []
    doc: dict = {}
    for prep in ("1", "0", "erased"):
        channel = simulated_leak_process(p, prep)
        chi = channel.chi()
        for i, li in enumerate(labels):
            for j, lj in enumerate(labels):
                rows.append((prep, li, lj, chi[i, j].real, chi[i, j].imag))
        doc[f"prep_{prep}"] = {
            "diagonal": [float(chi[i, i].real) for i in range(4)],
            "iz_offdiag_imag": float(chi[0, 3].imag),
        }
    doc["equal_mixture_offdiag_magnitude"] = 1.0 / math.pi
    return (["control_prep", "row", "column", "real", "imag"], rows, doc,
            "Target-qubit process conditioned on a control erasure")


def _run_calibration(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    p = cfg.system_params()
    report = run_calibration_flow(p)
    sweep = report.swapback_sweep
    rows = list(zip(sweep.axis, sweep.values))
    doc = {
        "swap_rate_rad_per_us": report.swap_rate,
        "swap_rate_step": report.swap_rate_step,
        "swap_duration_us": report.swap_duration,
        "swap_duration_step": report.swap_duration_step,
        "swapback_phase_rad": report.swapback_phase,
        "swapback_phase_step": report.swapback_phase_step,
        "wait_duration_us": report.wait_duration,
        "wait_duration_step": report.wait_duration_step,
        "control_phase_per_gate_rad": report.control_phase_per_gate,
        "target_phase_per_gate_rad": report.target_phase_per_gate,
    }
    return ([sweep.axis_name, sweep.observable], rows, doc,
            "Simulated tune-up: recovered operating point and phase sweep")


def _run_bitflip(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    noise = cfg.native_noise(include_cross_kerr=args.include_static_kerr)
    spam = cfg.readout(1)
    rows = []
    doc: dict = {"n_gates": list(_BITFLIP_DEPTHS)}
    for initial in ("0", "1"):
        flips = []
        for n in _BITFLIP_DEPTHS:
            result = simulate_bitflip_protocol(initial, n, spam=spam, noise=noise)
            rows.append((initial, n, result.apparent_flip, result.per_gate))
            flips.append(result.apparent_flip)
        slope, intercept = _linear_slope(list(_BITFLIP_DEPTHS), flips)
        doc[f"initial_{initial}"] = {
            "apparent_flip": flips,
            "slope_per_gate": slope,
            "intercept": intercept,
        }
    return (["initial", "n_gates", "apparent_flip", "per_gate"], rows, doc,
            "Apparent logical bit flips of an idling spectator qubit")


def _run_limits(cfg: DeviceConfig, args) -> tuple[list, list, dict, str]:
    limits = fundamental_limits(cfg.hybridization,
                                TWO_PI * cfg.coupler_anharmonicity_mhz,
                                cfg.coupler_t1_us, cfg.coupler_tphi_echo_us)
    entries = limits.as_dict()
    rows = [(k, v) for k, v in entries.items()]
    doc = dict(entries)
    doc["hybridization"] = cfg.hybridization
    return (["quantity", "value"], rows, doc,
            "Coherence-limited error scalings versus hybridization")


EXPERIMENTS = {
    "gate-unitary": _run_gate_unitary,
    "error-budget": _run_error_budget,
    "bell-tomography": _run_bell_tomography,
    "repeated-cz": _run_repeated_cz,
    "rb": _run_rb,
    "irb": _run_irb,
    "irb-accuracy": _run_irb_accuracy,
    "leakage-propagation": _run_leakage_propagation,
    "calibration": _run_calibration,
    "bitflip": _run_bitflip,
    "limits": _run_limits,
}

# option -> (default, the experiments that read it); the others refuse any
# other value rather than ignore it
_READERS = {
    "truncation": (2, frozenset({"gate-unitary", "error-budget"})),
    "include_static_kerr": (False, frozenset({"gate-unitary", "error-budget",
                                              "rb", "irb", "bitflip"})),
}


def run_experiment(name: str, config: DeviceConfig, out_dir: str | Path,
                   *, seed: int = 0, truncation: int = 2,
                   include_static_kerr: bool = False) -> list[Path]:
    """Run one named experiment and write its three report files."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"choose from {', '.join(sorted(EXPERIMENTS))}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    args = argparse.Namespace(seed=seed, truncation=truncation,
                              include_static_kerr=include_static_kerr)
    for option, (default, readers) in _READERS.items():
        if getattr(args, option) != default and name not in readers:
            raise ValueError(f"experiment {name!r} does not read "
                             f"--{option.replace('_', '-')}; it is read by "
                             f"{', '.join(sorted(readers))}")
    header, rows, doc, title = EXPERIMENTS[name](config, args)
    return _write_outputs(Path(out_dir), name, header, rows, doc, title)


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drcz",
        description="Simulation experiments for the dual-rail swap-wait-swap gate.")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS),
                        help="which experiment to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="device config file (INI or JSON); built-in table values when omitted")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="non-negative seed for sequence selection (default: 0)")
    parser.add_argument("--truncation", type=int, choices=(2, 3), default=2,
                        help="Fock levels per mode (gate-unitary and error-budget only)")
    parser.add_argument("--include-static-kerr", action="store_true",
                        help="keep the always-on residual cross-Kerr terms "
                             "(gate-unitary, error-budget, rb, irb and bitflip only)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = DeviceConfig.default() if args.config is None else DeviceConfig.from_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = run_experiment(args.experiment, config, args.out, seed=args.seed,
                               truncation=args.truncation,
                               include_static_kerr=args.include_static_kerr)
    except Exception as exc:  # noqa: BLE001 - reported with exit code 3
        print(f"experiment error: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
