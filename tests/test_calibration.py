"""Simulated tune-up scans and the one-pass calibration flow."""
import dataclasses
import math

import numpy as np
import pytest

import drcz.gate
from drcz import ModeRegister
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
from drcz.fock import codespace_projector
from drcz.gate import (CONTROL_CODE, TARGET_CODE, build_schedule, codespace_block,
                       derive_gate_params, extract_local_frame, ideal_unitary,
                       wrap_angle)

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


def test_calibration_report_carries_the_flow_phase_sweep(table_params):
    report = run_calibration_flow(table_params)
    sweep = report.swapback_sweep
    assert sweep.axis_name == "swapback_pump_phase_rad"
    assert sweep.axis.size == 128
    assert report.swapback_phase == sweep.argmin_axis()
    assert report.swapback_phase_step == sweep.axis_step
    other = SweepResult(axis=[0.0, 1.0], values=[0.0, 0.0],
                        observable="y", axis_name="x")
    assert dataclasses.replace(report, swapback_sweep=other) == report


@pytest.fixture()
def decompositions(monkeypatch):
    """Record every Hamiltonian the closed-system propagator decomposes and
    every eigh call underneath or beside it."""
    calls = {"block_eigh": 0, "eigh": 0}
    block_eigh, eigh = drcz.gate._block_eigh, np.linalg.eigh

    def counting_block_eigh(h):
        calls["block_eigh"] += 1
        return block_eigh(h)

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(drcz.gate, "_block_eigh", counting_block_eigh)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def _counts_of(calls, scan):
    before = dict(calls)
    scan()
    return {key: calls[key] - before[key] for key in calls}


def test_calibration_report_decomposes_five_hamiltonians(tmp_path, decompositions):
    run_experiment("calibration", DeviceConfig.default(), tmp_path)
    # pump-phase and wait scans: the swap-in segment once each; local Z
    # scan: the three segments of the operating-point gate
    assert decompositions["block_eigh"] == 2 + 3


def test_scan_decompositions_do_not_depend_on_the_grid(table_params, decompositions):
    def phase_scan(n):
        return lambda: swapback_phase_scan(table_params, np.linspace(-math.pi, math.pi, n))

    def wait_scan(n):
        return lambda: entangling_phase_scan(
            table_params, np.linspace(0.97, 1.03, n) * T_WAIT, 2)

    def pair_scan(n):
        return lambda: chevron_scan(table_params, np.linspace(-0.2, 0.2, n) * table_params.g_ac,
                                    np.linspace(0.8, 1.25, 7 * n) * T_SWAP)

    for scan in (phase_scan, wait_scan):
        small, large = _counts_of(decompositions, scan(9)), _counts_of(decompositions, scan(128))
        assert small == large
        assert small["block_eigh"] == 1
    # the coupler-pair scans stack every detuning into one eigh
    assert (_counts_of(decompositions, pair_scan(2)) == _counts_of(decompositions, pair_scan(9))
            == {"block_eigh": 0, "eigh": 1})


def _per_point_erasure(p, phases, target_bit):
    """The per-point algorithm: rebuild the whole gate at every pump phase."""
    register = ModeRegister.standard(2)
    occ = {label: 0 for label in register.labels}
    occ.update(CONTROL_CODE.logical_occupations(1))
    occ.update(TARGET_CODE.logical_occupations(target_bit))
    proj = codespace_projector(register, (CONTROL_CODE, TARGET_CODE), "c").data
    values = []
    for phi in phases:
        psi = ideal_unitary(build_schedule(p, register, phi_swap=float(phi))).data \
            @ register.basis_state(occ)
        values.append(1.0 - float(np.real(psi.conj() @ proj @ psi)))
    return np.array(values)


@pytest.mark.parametrize("target_interacting", [True, False])
def test_swapback_phase_scan_matches_the_per_point_oracle(table_params, target_interacting):
    phases = np.linspace(-math.pi, math.pi, 128, endpoint=False)
    sweep = swapback_phase_scan(table_params, phases, target_interacting=target_interacting)
    oracle = _per_point_erasure(table_params, phases, 0 if target_interacting else 1)
    np.testing.assert_allclose(sweep.values, oracle, rtol=0, atol=1e-13)
    if target_interacting:  # the idle-target curve is flat, its argmin is roundoff
        assert sweep.argmin_axis() == phases[int(np.argmin(oracle))]


def _per_point_fringe(p, wait_times, n_repeats):
    """The per-point algorithm: rebuild the whole gate at every wait, with the
    schedule's own tracked pump phase."""
    register = ModeRegister.standard(2)
    values = []
    for tw in wait_times:
        gate = ideal_unitary(build_schedule(p, register, t_wait=float(tw))).data
        zero, one = (_ramsey_trace(register, CONTROL_CODE,
                                   TARGET_CODE.logical_occupations(target_bit),
                                   n_repeats, gate)
                     for target_bit in (0, 1))
        theta = wrap_angle(one[-1] - zero[-1])
        if n_repeats > 1:
            anchor = n_repeats * wrap_angle(one[0] - zero[0])
            theta += 2.0 * math.pi * round((anchor - theta) / (2.0 * math.pi))
        values.append(theta / n_repeats)
    return np.array(values)


@pytest.mark.parametrize("n_repeats", [1, 2])
def test_entangling_phase_scan_matches_the_per_point_oracle(table_params, n_repeats):
    waits = np.linspace(0.97, 1.03, 41) * T_WAIT * 1.01
    sweep = entangling_phase_scan(table_params, waits, n_repeats)
    oracle = _per_point_fringe(table_params, waits, n_repeats)
    np.testing.assert_allclose(sweep.values, oracle, rtol=0, atol=1e-13)
    assert sweep.argmin_axis() == waits[int(np.argmin(oracle))]

    def pi_crossing(values):
        return int(np.argmin([abs(wrap_angle(v - math.pi)) for v in values]))

    assert pi_crossing(sweep.values) == pi_crossing(oracle)


def test_entangling_phase_scan_refuses_a_wait_that_is_not_positive(table_params):
    with pytest.raises(ValueError, match="wait times must be positive"):
        entangling_phase_scan(table_params, [-0.1, T_WAIT])


def test_ramsey_trace_matches_the_per_count_oracle(table_params):
    register = ModeRegister.standard(2)

    def phase_after(code, spectator_occ, n):
        # the per-count algorithm: rebuild the gate, apply it n times to |+>
        gate = ideal_unitary(build_schedule(table_params, register)).data
        lo = {label: 0 for label in register.labels}
        lo.update(spectator_occ)
        hi = dict(lo)
        lo.update(code.logical_occupations(0))
        hi.update(code.logical_occupations(1))
        i_lo, i_hi = register.basis_index(lo), register.basis_index(hi)
        psi = np.zeros(register.dim, dtype=complex)
        psi[i_lo] = psi[i_hi] = 1.0 / math.sqrt(2.0)
        for _ in range(n):
            psi = gate @ psi
        return float(np.angle(psi[i_hi]) - np.angle(psi[i_lo]))

    gate = ideal_unitary(build_schedule(table_params, register)).data
    for code, spectator in ((CONTROL_CODE, TARGET_CODE), (TARGET_CODE, CONTROL_CODE)):
        spectator_occ = spectator.logical_occupations(0)
        trace = _ramsey_trace(register, code, spectator_occ, 4, gate)
        assert trace == [phase_after(code, spectator_occ, n) for n in range(1, 5)]
