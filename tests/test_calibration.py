"""Simulated tune-up scans and the one-pass calibration flow."""
import dataclasses
import math

import numpy as np
import pytest

import drcz.calibration
from drcz import ModeRegister, NoiseModel, SystemParams
from drcz.calibration import (
    SweepResult,
    _ramsey_trace,
    chevron_scan,
    entangling_phase_scan,
    local_z_scan,
    run_calibration_flow,
    swap_duration_scan,
    swapback_phase_scan,
)
from drcz.cli import run_experiment
from drcz.config import DeviceConfig
from drcz.gate import (CONTROL_CODE, TARGET_CODE, build_schedule, codespace_block,
                       derive_gate_params, extract_local_frame, ideal_unitary,
                       wrap_angle)
from drcz.lindblad import GateMap, gate_superoperator

T_SWAP = 0.11820330969267138
T_WAIT = 0.21292251812189816
PHI_SWAP = -2.5840534430951676


def test_sweep_result_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepResult(axis=[0.0, 0.0, 1.0], values=[1, 2, 3],
                    observable="y", axis_name="x")
    with pytest.raises(ValueError, match="does not match"):
        SweepResult(axis=[0.0, 1.0], values=[1, 2, 3],
                    observable="y", axis_name="x")
    with pytest.raises(ValueError, match="finite"):
        SweepResult(axis=[0.0, 1.0], values=[1.0, math.nan],
                    observable="y", axis_name="x")
    with pytest.raises(ValueError, match=r"\(rows, axis\)"):
        SweepResult(axis=[0.0, 1.0], values=np.ones((3, 3)),
                    observable="y", axis_name="x", rows=[0.0, 1.0, 2.0],
                    rows_name="r")
    sweep = SweepResult(axis=[0.0, 0.5, 1.5], values=[3.0, 1.0, 2.0],
                        observable="y", axis_name="x")
    assert sweep.axis_step == 1.0
    assert sweep.argmin_axis() == 0.5
    assert sweep.argmax_axis() == 0.0
    grid = SweepResult(axis=[0.0, 1.0], values=np.ones((2, 2)),
                       observable="y", axis_name="x", rows=[0.0, 1.0],
                       rows_name="r")
    with pytest.raises(ValueError, match="1-D sweeps"):
        grid.argmin_axis()
    for rows in ([0.0, math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError, match="row axis must be finite"):
            SweepResult(axis=[0.0, 1.0], values=np.ones((2, 2)),
                        observable="y", axis_name="x", rows=rows, rows_name="r")
    with pytest.raises(ValueError, match="rows must be a non-empty 1-D"):
        SweepResult(axis=[0.0, 1.0], values=np.ones((0, 2)),
                    observable="y", axis_name="x", rows=[], rows_name="r")
    with pytest.raises(ValueError, match="rows must be a non-empty 1-D"):
        SweepResult(axis=[0.0, 1.0], values=np.ones((2, 2)),
                    observable="y", axis_name="x", rows=[[0.0], [1.0]],
                    rows_name="r")


def test_chevron_empties_the_cavity_only_on_resonance(table_params):
    durations = np.array([0.5, 1.0, 1.5]) * T_SWAP
    sweep = chevron_scan(table_params, [0.0, table_params.g_ac], durations)
    # resonant row follows cos^2(g t / 2)
    np.testing.assert_allclose(sweep.values[0],
                               np.cos(table_params.g_ac * durations / 2) ** 2,
                               atol=1e-12)
    # detuned by g the transfer cannot exceed half
    assert sweep.values[1].min() > 0.45
    assert sweep.rows_name == "detuning_rad_per_us"


def test_chevron_with_loss_decays(table_params):
    durations = np.array([T_SWAP, 2 * T_SWAP])
    noisy = chevron_scan(table_params, [0.0], durations,
                         noise=NoiseModel.from_params(table_params))
    clean = chevron_scan(table_params, [0.0], durations)
    # full return at 2 t_swap is degraded by coupler and cavity loss
    assert noisy.values[0, 1] < clean.values[0, 1]
    assert 0.99 < noisy.values[0, 1] < 1.0


def test_swap_duration_scan_matches_the_pulse_train_closed_form(table_params):
    durations = np.linspace(0.97, 1.03, 13) * T_SWAP
    for repeats in (1, 5):
        sweep = swap_duration_scan(table_params, repeats, durations)
        predicted = np.cos(repeats * table_params.g_ac * durations / 2) ** 2
        np.testing.assert_allclose(sweep.values, predicted, atol=1e-12)
    # more pulses sharpen the dip: larger residual at the same offset
    single = swap_duration_scan(table_params, 1, durations)
    train = swap_duration_scan(table_params, 5, durations)
    assert train.values[0] > 10 * single.values[0]
    assert train.argmin_axis() == pytest.approx(T_SWAP, rel=1e-6)
    with pytest.raises(ValueError, match="odd"):
        swap_duration_scan(table_params, 2, durations)


def test_swapback_phase_scan_dips_at_the_derived_phase(table_params):
    phases = PHI_SWAP + np.linspace(-math.pi, math.pi, 9)
    sweep = swapback_phase_scan(table_params, phases)
    assert abs(sweep.values[4]) < 1e-12          # complete return
    assert sweep.values[0] > 0.4                 # half a turn away
    assert sweep.values[8] > 0.4
    np.testing.assert_allclose(sweep.values, sweep.values[::-1], atol=1e-12)
    assert sweep.argmin_axis() == pytest.approx(PHI_SWAP, abs=1e-12)


def test_swapback_scan_is_flat_when_the_target_is_idle(table_params):
    phases = PHI_SWAP + np.linspace(-math.pi, math.pi, 9)
    sweep = swapback_phase_scan(table_params, phases, target_interacting=False)
    assert np.max(np.abs(sweep.values)) < 1e-12


@pytest.mark.parametrize("phases", [[], [[0.0, 1.0]]], ids=["empty", "2-D"])
def test_swapback_phase_scan_rejects_a_grid_that_is_not_1d(table_params, phases):
    with pytest.raises(ValueError, match="phases"):
        swapback_phase_scan(table_params, phases)


def test_entangling_phase_crosses_pi_at_the_derived_wait(table_params):
    waits = np.array([T_WAIT - 0.002, T_WAIT, T_WAIT + 0.002])
    sweep = entangling_phase_scan(table_params, waits)
    assert abs(wrap_angle(sweep.values[1] - math.pi)) < 1e-9
    # the fringe slope is the coupler-target dispersive rate
    slope = wrap_angle(sweep.values[2] - sweep.values[0]) / 0.004
    assert slope == pytest.approx(table_params.chi_bc, rel=1e-6)
    with pytest.raises(ValueError, match="n_repeats"):
        entangling_phase_scan(table_params, waits, 0)


def test_repeated_fringe_unwraps_onto_the_single_gate_branch(table_params):
    waits = np.array([T_WAIT - 0.002, T_WAIT + 0.002])
    once = entangling_phase_scan(table_params, waits, 1)
    twice = entangling_phase_scan(table_params, waits, 2)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-9)


def test_local_z_scan_recovers_the_gate_frame(table_params, register2):
    frame = extract_local_frame(
        codespace_block(ideal_unitary(build_schedule(table_params, register2))))
    slopes = local_z_scan(table_params)
    assert slopes.control_phase_per_gate == pytest.approx(frame.phi_control,
                                                          rel=1e-9)
    assert slopes.target_phase_per_gate == pytest.approx(frame.phi_target,
                                                         abs=1e-9)
    with pytest.raises(ValueError, match="n_repeats"):
        local_z_scan(table_params, 0)


def test_calibration_flow_recovers_the_operating_point(table_params):
    t_swap, t_wait, phi_swap = derive_gate_params(table_params)
    report = run_calibration_flow(table_params)
    assert abs(report.swap_rate - table_params.g_ac) <= report.swap_rate_step
    assert abs(report.swap_duration - t_swap) <= report.swap_duration_step
    assert abs(wrap_angle(report.swapback_phase - phi_swap)) <= report.swapback_phase_step
    assert abs(report.wait_duration - t_wait) <= report.wait_duration_step
    frame = extract_local_frame(codespace_block(ideal_unitary(
        build_schedule(table_params, ModeRegister.standard(2)))))
    assert report.control_phase_per_gate == pytest.approx(frame.phi_control,
                                                          rel=1e-9)
    assert report.target_phase_per_gate == pytest.approx(frame.phi_target,
                                                         abs=1e-9)


@pytest.mark.parametrize("perturbation", [0.0, math.nan])
def test_calibration_flow_rejects_a_zero_perturbation(table_params, perturbation):
    with pytest.raises(ValueError, match="perturbation"):
        run_calibration_flow(table_params, perturbation=perturbation)


@pytest.mark.parametrize("name", ["chevron_points", "duration_points",
                                  "phase_points", "wait_points"])
def test_calibration_flow_rejects_a_grid_of_one_point(table_params, name):
    with pytest.raises(ValueError, match=name):
        run_calibration_flow(table_params, **{name: 1})


def test_calibration_report_carries_the_flow_phase_sweep(table_params):
    report = run_calibration_flow(table_params, chevron_points=3,
                                  duration_points=3, phase_points=8,
                                  wait_points=3, ramsey_repeats=1)
    sweep = report.swapback_sweep
    assert sweep.axis_name == "swapback_pump_phase_rad"
    assert sweep.axis.size == 8
    assert report.swapback_phase == sweep.argmin_axis()
    assert report.swapback_phase_step == sweep.axis_step
    other = SweepResult(axis=[0.0, 1.0], values=[0.0, 0.0],
                        observable="y", axis_name="x")
    assert dataclasses.replace(report, swapback_sweep=other) == report


@pytest.fixture()
def schedule_builds(monkeypatch):
    """Count the schedules the calibration module builds."""
    calls = []
    original = drcz.calibration.build_schedule

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(drcz.calibration, "build_schedule", counting)
    return calls


def test_calibration_report_builds_each_gate_once(tmp_path, schedule_builds):
    run_experiment("calibration", DeviceConfig.default(), tmp_path)
    # local Z scan + 128 pump phases + 41 waits
    assert len(schedule_builds) == 1 + 128 + 41


def test_repeated_fringe_builds_one_gate_per_wait(table_params, schedule_builds):
    waits = np.array([T_WAIT - 0.002, T_WAIT, T_WAIT + 0.002])
    entangling_phase_scan(table_params, waits, 2)
    assert len(schedule_builds) == len(waits)


@pytest.mark.parametrize("noisy", [False, True], ids=["unitary", "gate_map"])
def test_ramsey_trace_matches_the_per_count_oracle(table_params, noisy):
    register = ModeRegister.standard(2)
    noise = NoiseModel.from_params(table_params) if noisy else None

    def rebuilt_gate():
        schedule = build_schedule(table_params, register)
        if noise is None:
            return ideal_unitary(schedule).data
        return gate_superoperator(schedule, noise)

    def phase_after(code, spectator_occ, n):
        # the per-count algorithm: rebuild the gate, apply it n times to |+>
        gate = rebuilt_gate()
        lo = {label: 0 for label in register.labels}
        lo.update(spectator_occ)
        hi = dict(lo)
        lo.update(code.logical_occupations(0))
        hi.update(code.logical_occupations(1))
        i_lo, i_hi = register.basis_index(lo), register.basis_index(hi)
        if noise is None:
            psi = np.zeros(register.dim, dtype=complex)
            psi[i_lo] = psi[i_hi] = 1.0 / math.sqrt(2.0)
            for _ in range(n):
                psi = gate @ psi
            return float(np.angle(psi[i_hi]) - np.angle(psi[i_lo]))
        rho = np.zeros((register.dim, register.dim), dtype=complex)
        for a in (i_lo, i_hi):
            for b in (i_lo, i_hi):
                rho[a, b] = 0.5
        for _ in range(n):
            rho = gate.apply(rho)
        return float(np.angle(rho[i_hi, i_lo]))

    gate = rebuilt_gate()
    assert isinstance(gate, GateMap) == noisy
    for code, spectator in ((CONTROL_CODE, TARGET_CODE), (TARGET_CODE, CONTROL_CODE)):
        spectator_occ = spectator.logical_occupations(0)
        trace = _ramsey_trace(register, code, spectator_occ, 4, gate)
        assert trace == [phase_after(code, spectator_occ, n) for n in range(1, 5)]


def test_noisy_local_z_scan_keeps_the_gate_frame(table_params):
    clean = local_z_scan(table_params)
    noisy = local_z_scan(table_params, noise=NoiseModel.from_params(table_params))
    assert abs(noisy.control_phase_per_gate - clean.control_phase_per_gate) < 1e-5
    assert abs(noisy.target_phase_per_gate - clean.target_phase_per_gate) < 1e-5


def test_noisy_repeated_fringe_keeps_the_entangling_phase(table_params):
    waits = np.array([T_WAIT - 0.002, T_WAIT, T_WAIT + 0.002])
    clean = entangling_phase_scan(table_params, waits, 2)
    noisy = entangling_phase_scan(table_params, waits, 2,
                                  noise=NoiseModel.from_params(table_params))
    np.testing.assert_allclose(noisy.values, clean.values, rtol=0, atol=1e-5)


def test_noisy_swap_duration_dip_is_lifted_by_loss(table_params):
    durations = np.linspace(0.97, 1.03, 13) * T_SWAP
    clean = swap_duration_scan(table_params, 5, durations)
    noisy = swap_duration_scan(table_params, 5, durations,
                               noise=NoiseModel.from_params(table_params))
    assert clean.values.min() < 1e-12
    assert 0.0 < noisy.values.min() < 1e-3
