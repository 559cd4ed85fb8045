"""Acceptance gate: one test per headline claim, run with -v for a
one-line verdict each.

Every check here either pins a quantity derived independently in this
file (quadrature, closed-form algebra, exact channel composition) or
brackets a measured table value at its stated tolerance.  Checks that
have two independent routes keep both; none is folded into the other.
"""
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from drcz.benchmarking import (NativeGateNoise, depolarizing_cz_channel,
                               fit_exponential, generate_clifford_group,
                               irb_accuracy_study, simulate_bitflip_protocol,
                               simulate_rb)
from drcz.budget import compute_error_budget
from drcz.calibration import run_calibration_flow, swapback_phase_scan
from drcz.config import DeviceConfig
from drcz.error_channels import (CZ4, ReadoutModel, echo_cancellation_check,
                                 full_gate_channel, leakage_averaged_channel,
                                 leakage_averaged_coefficients,
                                 leaked_partner_channel, no_jump_kraus,
                                 nojump_evolve, postselected_fidelity)
from drcz.fock import ModeRegister
from drcz.gate import (build_schedule, codespace_block, derive_gate_params,
                       extract_local_frame, ideal_unitary, on_off_ratio,
                       wrap_angle)
from drcz.tomography import process_tomography, simulated_leak_process


@pytest.fixture(scope="module")
def params():
    return DeviceConfig.default().system_params()


@pytest.fixture(scope="module")
def budget():
    return compute_error_budget(DeviceConfig.default())


def test_01_codespace_propagation_is_cz_up_to_local_z(params):
    """Noiseless piecewise propagation equals CZ up to local Z phases."""
    schedule = build_schedule(params, ModeRegister.standard(2))
    assert abs(schedule.total_duration - 0.4493) <= 1e-4
    assert 0.40 < schedule.total_duration < 0.55
    block = codespace_block(ideal_unitary(schedule))
    frame = extract_local_frame(block)
    undo = np.exp(-1j * np.array([0.0, frame.phi_target, frame.phi_control,
                                  frame.phi_target + frame.phi_control]))
    corrected = np.diag(block) * undo
    corrected = corrected / (corrected[0] / abs(corrected[0]))
    overlap = np.vdot(np.array([1.0, 1.0, 1.0, -1.0]), corrected)
    entanglement_infidelity = 1.0 - abs(overlap) ** 2 / 16.0
    assert entanglement_infidelity < 1e-9
    # the off-diagonal block is empty: no codespace population moved
    off = block - np.diag(np.diag(block))
    assert np.max(np.abs(off)) < 1e-12


def test_02_closed_form_operating_point_matches_sweep_oracle(params):
    """Swap-back pump phase: closed form vs an independent grid refinement;
    wait duration: closed form vs the conditional-phase requirement."""
    t_swap, t_wait, phi_swap = derive_gate_params(params)
    assert t_swap == pytest.approx(math.pi / params.g_ac, rel=1e-12)
    assert t_wait == pytest.approx(
        math.pi / abs(params.chi_bc) - t_swap, rel=1e-12)
    # refine the return-population minimum without using the closed form
    lo, hi = -math.pi, math.pi
    for _ in range(8):
        phases = np.linspace(lo, hi, 61)
        sweep = swapback_phase_scan(params, phases)
        k = int(np.argmin(sweep.values))
        step = phases[1] - phases[0]
        lo, hi = phases[k] - step, phases[k] + step
    oracle = phases[k]
    assert step < 1e-7
    assert abs(wrap_angle(oracle - phi_swap)) < 1e-6


def test_03_phase_averaged_leakage_channel_matches_quadrature():
    """Uniform phase average of CZ(phi): quadrature vs closed form,
    entrywise, including the cross-term constant."""
    nodes, weights = leggauss(80)
    phis = 0.5 * math.pi * (nodes + 1.0)
    weights = 0.5 * weights  # (1/pi) d(phi) over [0, pi]

    def cz_phi(phi):
        return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])

    superop_quad = sum(w * np.kron(cz_phi(phi).conj(), cz_phi(phi))
                       for w, phi in zip(weights, phis))
    np.testing.assert_allclose(leakage_averaged_channel().superop,
                               superop_quad, atol=1e-9)

    # operator-pair coefficients over {I, CZ}: alpha*I + beta*CZ decomposition
    alpha = (1.0 + np.exp(1j * phis)) / 2.0
    beta = (1.0 - np.exp(1j * phis)) / 2.0
    amps = np.stack([alpha, beta])
    coeff_quad = np.einsum("k,mk,nk->mn", weights, amps, amps.conj())
    coeffs = leakage_averaged_coefficients()
    np.testing.assert_allclose(coeffs, coeff_quad, atol=1e-9)
    assert abs(coeffs[0, 1]) == pytest.approx(1.0 / math.pi, rel=1e-12)
    # the quadrature excludes the widely quoted 4/(3 pi) cross term
    assert abs(abs(coeffs[0, 1]) - 4.0 / (3.0 * math.pi)) > 0.08


def test_04_error_budget_matches_measured_table(budget):
    """Master-equation budget reproduces the measured per-gate entries."""
    targets = {
        "control_loss": 0.337e-2,
        "target_loss": 0.0982e-2,
        "control_z": 0.0169e-2,
        "target_z": 0.0048e-2,
        "no_error": 99.5351e-2,
    }
    entries = budget.as_dict()
    for name, target in targets.items():
        assert entries[name] == pytest.approx(target, rel=0.10), name


def test_05_erasure_asymmetry_between_control_and_target(budget):
    ratio = budget.control_loss / budget.target_loss
    assert 3.0 <= ratio <= 5.0


def test_06_on_off_ratio_of_the_conditional_phase(params):
    ratio = on_off_ratio(params)
    assert abs(ratio - 227.4) <= 0.1
    assert 200.0 < ratio < 260.0


def test_07_no_jump_backaction_scaling_and_echo_cancellation():
    """The quoted quadratic estimate tracks exact conditioning over three
    decades of rate imbalance; a mid-time X echo cancels the distortion."""
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)

    def exact_infidelity(dp):
        k, _ = no_jump_kraus(dp, 0.0)
        v = k @ plus
        return 1.0 - abs(np.vdot(plus, v)) ** 2 / float(np.vdot(v, v).real)

    ratios = []
    for dp in (1e-2, 1e-3, 1e-4):
        _, formula = no_jump_kraus(dp, 0.0)
        assert formula == pytest.approx(dp ** 2 / 4.0, rel=1e-12)
        ratios.append(formula / exact_infidelity(dp))
    # second-order agreement: a constant formula/exact ratio, refined to
    # its dp -> 0 limit of 4 at the smallest imbalance
    assert ratios[0] == pytest.approx(ratios[2], rel=2e-2)
    assert ratios[2] == pytest.approx(4.0, rel=1e-3)
    # decade steps scale quadratically
    assert exact_infidelity(1e-3) / exact_infidelity(1e-4) == pytest.approx(
        100.0, rel=2e-2)

    for asymmetry in (1.0, 0.3):
        assert echo_cancellation_check(0.05, 2.0, asymmetry=asymmetry) < 1e-12
    # and the echoed output is the pure decay factor times the input
    kappa, tau = 0.05, 2.0
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    half = nojump_evolve(rho, (0.0, 2.0 * kappa), tau / 2.0)
    echoed = x @ nojump_evolve(x @ half @ x, (0.0, 2.0 * kappa), tau / 2.0) @ x
    np.testing.assert_allclose(echoed, math.exp(-kappa * tau) * rho,
                               atol=1e-14)


def test_08_leakage_propagation_dual_route(params):
    """Target process conditioned on a control erasure, two ways: the
    closed-form channel through the tomography pipeline, and an
    independent jump-insertion simulation of the scheduled gate."""
    # route one: closed form -> preparations -> settings -> inversion
    chi = process_tomography(leaked_partner_channel())
    ideal = np.zeros((4, 4), dtype=complex)
    ideal[0, 0] = ideal[3, 3] = 0.5
    ideal[0, 3] = 1j / math.pi
    ideal[3, 0] = -1j / math.pi
    assert np.max(np.abs(chi - ideal)) < 1e-9
    assert np.max(np.abs(chi - ideal)) < 1e-3

    # route two: loss jumps inserted along the scheduled gate, no reuse
    # of the closed form anywhere
    for prep in ("erased", "0"):
        off = simulated_leak_process(params, prep).chi()
        off = off / np.trace(off).real
        residual = 1.0 - off[0, 0].real
        assert residual < 1e-3, prep       # gate switched off: identity
        assert np.max(np.abs(off - np.diag(np.diag(off)))) < 1e-6, prep

    on = simulated_leak_process(params, "1").chi()
    on = on / np.trace(on).real
    assert on[0, 0].real == pytest.approx(0.5, abs=1e-3)
    assert on[3, 3].real == pytest.approx(0.5, abs=1e-3)
    cross = on[0, 3]
    assert abs(cross) == pytest.approx(1.0 / math.pi, rel=0.05)
    assert abs(cross.imag) > 10.0 * abs(cross.real)
    assert abs(abs(cross) - 4.0 / (3.0 * math.pi)) > 0.08


def test_09_clifford_closure_and_rb_recovery():
    assert len(generate_clifford_group(1)) == 24
    assert len(generate_clifford_group(2)) == 11520

    ideal = NativeGateNoise.ideal(2)
    record = simulate_rb(ideal, (1, 4, 9), (0, 1, 2))
    np.testing.assert_allclose(record.postselected, 1.0, atol=1e-10)
    np.testing.assert_allclose(record.kept_fraction, 1.0, atol=1e-10)

    p_true = 0.97
    noisy = ideal.replace(CZ_dep=depolarizing_cz_channel(p_true))
    record = simulate_rb(noisy, (1, 2, 4, 8, 12), (0, 1, 2),
                         interleave="CZ_dep", interleave_unitary=CZ4)
    p_fit, amplitude, offset, sigma = fit_exponential(record)
    assert abs(p_fit - p_true) <= max(2.0 * sigma, 1e-9)
    assert amplitude == pytest.approx(0.75, abs=1e-6)
    assert offset == pytest.approx(0.25, abs=1e-6)


def test_10_interleaved_rb_accuracy_study():
    """Inferred-vs-true scatter over randomized rate draws: slope near one,
    with a systematic underestimate at the operating point.  Statistical
    bands, not point values — individual draws are sequence dependent."""
    study = irb_accuracy_study(DeviceConfig.default().channel_rates(),
                               n_samples=40, seed=20260813)
    assert 0.6 <= study.slope <= 1.1
    assert 0.10 <= study.underestimate_at_operating_point <= 0.40


def test_11_calibration_flow_recovers_operating_point(params):
    """One pass from 1%-stale guesses lands every scan on the analytic
    value within its own grid resolution."""
    t_swap, t_wait, phi_swap = derive_gate_params(params)
    report = run_calibration_flow(params)
    assert abs(report.swap_rate - params.g_ac) <= report.swap_rate_step
    assert abs(report.swap_duration - t_swap) <= report.swap_duration_step
    assert abs(wrap_angle(report.swapback_phase - phi_swap)) \
        <= report.swapback_phase_step
    assert abs(report.wait_duration - t_wait) <= report.wait_duration_step
    frame = extract_local_frame(codespace_block(ideal_unitary(
        build_schedule(params, ModeRegister.standard(2)))))
    assert report.control_phase_per_gate == pytest.approx(frame.phi_control,
                                                          rel=1e-6)
    assert report.target_phase_per_gate == pytest.approx(frame.phi_target,
                                                         abs=1e-6)


def test_12_spectator_bitflip_floor():
    """Excitation preservation: exactly zero apparent flips with perfect
    readout; with the measured confusion, order 1e-6 per gate."""
    cfg = DeviceConfig.default()
    noise = cfg.native_noise()
    for initial in ("0", "1"):
        for n in (1, 10, 50):
            result = simulate_bitflip_protocol(initial, n,
                                               spam=ReadoutModel.perfect(),
                                               noise=noise)
            assert result.apparent_flip == 0.0

    depths = (1, 10, 25, 50, 100)
    spam = cfg.readout(1)
    flips = [simulate_bitflip_protocol("0", n, spam=spam, noise=noise)
             .apparent_flip for n in depths]
    slope = float(np.polyfit(depths, flips, 1)[0])
    assert 1e-6 <= slope <= 1e-5


def test_13_static_model_is_linear_at_short_depth():
    """Measured large-depth traces accelerate beyond linear, behavior
    attributed to slow parameter drift between recalibrations; a
    static-parameter simulation has no drift axis, so that regime is
    excluded here by construction.  The attainable statement, asserted
    instead: with fixed parameters the per-gate error accumulates
    linearly over short sequences, with no hidden nonlinearity."""
    chan = full_gate_channel(DeviceConfig.default().channel_rates())
    depths = np.arange(1, 7)
    infidelity = []
    total = None
    for n in depths:
        total = chan if total is None else total.compose(chan)
        reference = CZ4 if n % 2 else np.eye(4)
        infidelity.append(1.0 - postselected_fidelity(total, reference))
    infidelity = np.array(infidelity)
    assert np.all(np.diff(infidelity) > 0)
    slope, intercept = np.polyfit(depths, infidelity, 1)
    assert slope == pytest.approx(infidelity[0], rel=1e-2)
    assert abs(intercept) < 0.02 * slope
    residual = infidelity - (slope * depths + intercept)
    assert np.max(np.abs(residual)) < 0.01 * slope
