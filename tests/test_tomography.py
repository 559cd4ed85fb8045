"""Erasure-aware state/process tomography and the simulated Bell circuit."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from drcz import ModeRegister, NoiseModel, SystemParams, tomography
from drcz.benchmarking import NativeGateNoise, simulate_bitflip_protocol
from drcz.channels import QuantumChannel
from drcz.config import DeviceConfig
from drcz.error_channels import CZ4, ReadoutModel
from drcz.fock import DualRailCode, build_mode_operator
from drcz.gate import CONTROL_CODE, TARGET_CODE, build_schedule
from drcz.tomography import (
    OUTCOMES,
    SETTINGS,
    MeasurementRecord,
    bell_circuit_record,
    bell_metrics,
    bell_state_ideal,
    chi_error,
    dual_rail_phase,
    dual_rail_rotation,
    process_tomography,
    psd_project,
    reconstruct_state,
    setting_unitary,
    simulated_leak_process,
)

# Frozen outputs of the one-gate Bell experiment at the measured-device
# parameters with two-round readout (exact-probability records).
NOISY_POST = (0.9997538018457224, 0.9995088954948884)
NOISY_RAW = (0.7002377977368088, 0.49033357736967254)

# Frozen single-qubit process of the target conditioned on a control-side
# erasure (photon prepared in the swapped rail), subnormalized by the
# erasure probability.
LEAK1_DIAG = 0.002410796357636249
LEAK1_IZ = -9.818775970608451e-05 - 0.001497278859910507j
LEAK0_TRACE = 0.0019451477814166624

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_setting_unitaries():
    assert set(SETTINGS) == {"I", "X90", "X-90", "X180", "Y90", "Y-90"}
    assert OUTCOMES == ("0", "1", "erasure")
    np.testing.assert_allclose(setting_unitary("I"), np.eye(2))
    np.testing.assert_allclose(setting_unitary("X90"),
                               (np.eye(2) - 1j * X) / math.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(setting_unitary("Y-90"),
                               (np.eye(2) + 1j * Y) / math.sqrt(2), atol=1e-15)
    for label in SETTINGS:
        u = setting_unitary(label)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


def test_dual_rail_rotation_acts_as_logical_pulse(register2):
    # X(pi) swaps the rails of the target qubit (up to the -i of a half turn)
    u = dual_rail_rotation(register2, TARGET_CODE, "x", math.pi).data
    ket10 = np.zeros(register2.dim, dtype=complex)
    ket10[register2.basis_index({"a1": 1, "b1": 1})] = 1.0
    out = u @ ket10
    target = np.zeros_like(out)
    target[register2.basis_index({"a1": 1, "b2": 1})] = -1j
    np.testing.assert_allclose(out, target, atol=1e-14)
    # z-axis generator is the rail population difference
    uz = dual_rail_rotation(register2, TARGET_CODE, "z", 0.8).data
    assert uz[register2.basis_index({"a1": 1, "b1": 1}),
              register2.basis_index({"a1": 1, "b1": 1})] == pytest.approx(
        np.exp(-0.4j), abs=1e-14)
    with pytest.raises(ValueError, match="unknown axis"):
        dual_rail_rotation(register2, TARGET_CODE, "w", 1.0)


def test_dual_rail_phase_rotates_the_one_rail(register2):
    u = dual_rail_phase(register2, CONTROL_CODE, 0.3).data
    i_zero = register2.basis_index({"a1": 1, "b1": 1})
    i_one = register2.basis_index({"a2": 1, "b1": 1})
    assert u[i_zero, i_zero] == pytest.approx(1.0)
    assert u[i_one, i_one] == pytest.approx(np.exp(0.3j), abs=1e-14)


def test_bell_state_ideal_matches_direct_construction():
    plus_i = np.array([1, -1j], dtype=complex) / math.sqrt(2)  # Rx(pi/2)|0>
    expected = np.diag([1, 1, 1, -1.0]) @ np.kron(plus_i, plus_i)
    np.testing.assert_allclose(bell_state_ideal(), expected, atol=1e-15)
    assert np.linalg.norm(bell_state_ideal()) == pytest.approx(1.0)


def test_measurement_record_bookkeeping():
    rec = MeasurementRecord()
    rec.add("I", "X90", "0", "1", 12.5)
    rec.add("I", "X90", "0", "1", 2.5)
    rec.add("I", "X90", "erasure", "0", 5.0)
    rec.add("Y90", "I", "1", "1", 7.0)
    assert rec.counts[("I", "X90", "0", "1")] == 15.0
    assert rec.total("I", "X90") == 20.0
    assert rec.settings() == [("I", "X90"), ("Y90", "I")]
    with pytest.raises(ValueError, match="non-negative"):
        rec.add("I", "I", "0", "0", -1.0)


@pytest.mark.parametrize("run", [
    lambda n: bell_circuit_record(n, readout=ReadoutModel.perfect()),
    lambda n: simulate_bitflip_protocol("0", n, noise=NativeGateNoise.ideal(2)),
], ids=["bell_circuit_record", "simulate_bitflip_protocol"])
def test_a_negative_gate_count_is_refused(run):
    with pytest.raises(ValueError, match="n_gates must be non-negative"):
        run(-2)
    assert run(0) is not None  # zero gates is a valid circuit


def test_noiseless_circuit_reconstructs_the_ideal_bell_state():
    rec = bell_circuit_record(1, readout=ReadoutModel.perfect())
    fid, purity = bell_metrics(reconstruct_state(rec))
    assert fid == pytest.approx(1.0, abs=1e-12)
    assert purity == pytest.approx(1.0, abs=1e-12)


def test_echoed_three_gate_circuit_returns_to_the_bell_state():
    rec = bell_circuit_record(3, readout=ReadoutModel.perfect())
    fid, purity = bell_metrics(reconstruct_state(rec))
    assert fid == pytest.approx(1.0, abs=1e-12)
    assert purity == pytest.approx(1.0, abs=1e-12)


def test_noisy_record_frozen_metrics(table_params):
    rec = bell_circuit_record(1, params=table_params,
                              noise=NoiseModel.from_params(table_params),
                              readout=DeviceConfig.default().readout(2))
    post = bell_metrics(reconstruct_state(rec, postselect=True))
    raw = bell_metrics(reconstruct_state(rec, postselect=False))
    assert post == pytest.approx(NOISY_POST, rel=1e-12)
    assert raw == pytest.approx(NOISY_RAW, rel=1e-12)
    # postselection discards the erasure-assignment shots; the raw state is
    # subnormalized and looks heavily depolarized, the kept state does not
    assert post[0] > 0.999 > raw[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_psd_project_clips_and_renormalizes(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    out = psd_project(raw, trace=1.0)
    vals = np.linalg.eigvalsh(out)
    assert vals.min() >= -1e-12
    assert np.real(np.trace(out)) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
    # already-PSD input with matching trace is a fixed point
    again = psd_project(out, trace=1.0)
    np.testing.assert_allclose(again, out, atol=1e-12)


def test_reconstruct_requires_a_spanning_setting_set():
    rec = MeasurementRecord()
    for oc in ("0", "1"):
        for ot in ("0", "1"):
            rec.add("I", "I", oc, ot, 0.25)
    with pytest.raises(ValueError, match="span"):
        reconstruct_state(rec)


def test_process_tomography_of_x90():
    u = setting_unitary("X90")
    chi = process_tomography(QuantumChannel(2, kraus=[u]))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[1, 1] = 0.5
    expected[0, 1] = 0.5j
    expected[1, 0] = -0.5j
    np.testing.assert_allclose(chi, expected, atol=1e-8)


def test_process_tomography_refuses_a_channel_that_is_not_on_a_qubit():
    with pytest.raises(ValueError, match="qubit channel, got dim 3"):
        process_tomography(QuantumChannel.identity(3))


def test_chi_error_reports_identity_for_a_perfect_gate():
    # single-qubit phase gate
    u1 = np.diag([1.0, np.exp(0.7j)]).astype(complex)
    chi1 = QuantumChannel(2, kraus=[u1]).chi()
    err1 = chi_error(chi1, u1)
    assert err1[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(err1 - np.diag(np.diag(err1)))) < 1e-12
    # two-qubit CZ
    chi2 = QuantumChannel(4, kraus=[CZ4]).chi()
    err2 = chi_error(chi2, CZ4)
    assert err2[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.real(np.trace(err2)) == pytest.approx(1.0, abs=1e-12)


def test_chi_error_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        chi_error(np.eye(4, dtype=complex), CZ4)


def test_leak_process_with_swapped_photon_frozen(table_params):
    chi = simulated_leak_process(table_params, "1").chi()
    assert chi[0, 0].real == pytest.approx(LEAK1_DIAG, rel=1e-12)
    assert chi[3, 3].real == pytest.approx(LEAK1_DIAG, rel=1e-12)
    assert abs(chi[1, 1]) < 1e-15 and abs(chi[2, 2]) < 1e-15
    assert chi[0, 3] == pytest.approx(LEAK1_IZ, rel=1e-12)
    assert chi[3, 0] == pytest.approx(np.conj(LEAK1_IZ), rel=1e-12)
    # the normalized cross term sits near the uniform-average value 1/pi
    ratio = abs(chi[0, 3].imag) / np.real(np.trace(chi))
    assert ratio == pytest.approx(1.0 / math.pi, rel=0.05)


def test_leak_process_with_idle_photon_is_identity_like(table_params):
    chi = simulated_leak_process(table_params, "0").chi()
    assert np.real(np.trace(chi)) == pytest.approx(LEAK0_TRACE, rel=1e-12)
    assert chi[0, 0].real == pytest.approx(LEAK0_TRACE, rel=1e-12)
    assert np.max(np.abs(chi - np.diag(np.diag(chi)))) == 0.0


def test_leak_process_with_erased_control_is_the_identity_process(table_params):
    chan = simulated_leak_process(table_params, "erased")
    chi = chan.chi()
    assert np.real(np.trace(chi)) == pytest.approx(1.0, abs=1e-12)
    assert chi[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_leak_process_validation(table_params):
    with pytest.raises(ValueError, match="unknown control preparation"):
        simulated_leak_process(table_params, "2")
    with pytest.raises(ValueError, match="odd"):
        simulated_leak_process(table_params, "1", points=100)


def _leak_kraus_oracle(params, control_prep, points):
    """The leak-conditioned Kraus list built the direct way: every segment
    exponentiated afresh at every node, jump operators outside, nodes inside."""
    register = ModeRegister.standard(2)
    hams = [(np.asarray(h.data, dtype=complex), d)
            for h, d, _ in build_schedule(params, register).segments]
    a1, a2 = {"1": (0, 1), "0": (1, 0)}[control_prep]
    kets = []
    for b1, b2 in ((1, 0), (0, 1)):
        ket = np.zeros(register.dim, dtype=complex)
        ket[register.basis_index((a1, a2, 0, b1, b2))] = 1.0
        kets.append(ket)
    rows = [register.basis_index((0, 0, 0, 1, 0)),
            register.basis_index((0, 0, 0, 0, 1))]
    total = sum(d for _, d in hams)
    times = np.linspace(0.0, total, points)
    weights = np.ones(points)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    weights = weights * (total / (points - 1)) / 3.0

    kraus = []
    for label in ("c", "a1", "a2"):
        jump = build_mode_operator(register, label, "annihilate").data
        rate = 1.0 / params.t1[label]
        for t, w in zip(times, weights):
            before = np.eye(register.dim, dtype=complex)
            after = np.eye(register.dim, dtype=complex)
            left = t
            for h, d in hams:
                if left >= d:
                    before = expm(-1j * h * d) @ before
                    left -= d
                elif left > 0:
                    before = expm(-1j * h * left) @ before
                    after = expm(-1j * h * (d - left)) @ after
                    left = 0.0
                else:
                    after = expm(-1j * h * d) @ after
            k = np.zeros((2, 2), dtype=complex)
            hit = False
            for j, ket in enumerate(kets):
                col = after @ (jump @ (before @ ket))
                k[:, j] = col[rows]
                hit = hit or bool(np.abs(col).max() > 1e-14)
            if hit:
                kraus.append(math.sqrt(rate * w) * k)
    return kraus


@pytest.mark.parametrize("prep", ["1", "0"])
def test_leak_process_matches_the_per_node_oracle(table_params, prep):
    assert all(math.isfinite(table_params.t1[m]) for m in ("c", "a1", "a2"))
    got = simulated_leak_process(table_params, prep, points=41).kraus
    want = _leak_kraus_oracle(table_params, prep, 41)
    assert len(got) == len(want) > 0
    for k_got, k_want in zip(got, want):
        assert np.array_equal(k_got, k_want)


@pytest.mark.parametrize("prep", ["1", "0", "erased"])
def test_leak_process_exponentiates_each_segment_once(table_params, monkeypatch, prep):
    calls = []

    def counting_expm(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(tomography, "expm", counting_expm)
    points = 41
    simulated_leak_process(table_params, prep, points=points)
    if prep == "erased":
        assert calls == []
    else:
        # three whole segments, then at most two pieces per node
        assert 0 < len(calls) <= 2 * points + 3


def test_process_tomography_agrees_with_the_direct_chi(table_params):
    chan = simulated_leak_process(table_params, "1")
    measured = process_tomography(chan, postselect=False)
    np.testing.assert_allclose(measured, chan.chi(), atol=1e-12)
