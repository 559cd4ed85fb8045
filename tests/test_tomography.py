"""Erasure-aware state/process tomography and the simulated Bell circuit."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from drcz import ModeRegister, NoiseModel, SystemParams, tomography
from drcz.benchmarking import NativeGateNoise, simulate_bitflip_protocol
from drcz.channels import QuantumChannel, pauli_basis
from drcz.cli import _circuit_bell_reference, run_experiment
from drcz.config import DeviceConfig
from drcz.error_channels import CZ4, ReadoutModel
from drcz.fock import DualRailCode, build_mode_operator
from drcz.gate import (CONTROL_CODE, TARGET_CODE, build_schedule, codespace_basis_indices,
                       codespace_block, extract_local_frame, ideal_unitary)
from drcz.lindblad import gate_superoperator
from drcz.tomography import (
    OUTCOMES,
    SETTINGS,
    MeasurementRecord,
    bell_circuit_record,
    bell_metrics,
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

# the ideal Bell circuit: the device's gate with no noise and perfect readout
IDEAL = dict(params=DeviceConfig.default().system_params(), noise=NoiseModel(),
             readout=ReadoutModel.perfect())


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


def _dual_rail_space(register):
    """Ascending indices of the basis states where the control (a1, a2, c)
    and the target (b1, b2) each hold at most one photon."""
    occ = register.occupation_table
    return np.flatnonzero((occ[:, :3].sum(axis=1) <= 1) & (occ[:, 3:].sum(axis=1) <= 1))


def _sector_position(register, occupations):
    """Position of a basis state in the register's dual-rail space."""
    return int(np.searchsorted(_dual_rail_space(register), register.basis_index(occupations)))


def _register_pulse(register, code, axis, angle):
    """Oracle: the rail rotation exp(-i angle/2 G) on the whole register,
    from register-size mode operators and scipy's expm."""
    r0, r1 = (build_mode_operator(register, rail, "annihilate") for rail in code.labels)
    n0, n1 = (build_mode_operator(register, rail, "number") for rail in code.labels)
    hop = r0.conj().T @ r1
    gen = {"x": hop + hop.conj().T, "y": -1j * hop + 1j * hop.conj().T, "z": n0 - n1}[axis]
    return expm(-0.5j * angle * gen)


def test_dual_rail_rotation_acts_as_logical_pulse(register2):
    # X(pi) swaps the rails of the target qubit (up to the -i of a half turn)
    i10 = _sector_position(register2, {"a1": 1, "b1": 1})
    i01 = _sector_position(register2, {"a1": 1, "b2": 1})
    u = dual_rail_rotation(register2, TARGET_CODE, "x", math.pi)
    ket10 = np.zeros(12, dtype=complex)
    ket10[i10] = 1.0
    out = u @ ket10
    target = np.zeros_like(out)
    target[i01] = -1j
    np.testing.assert_allclose(out, target, atol=1e-14)
    # z-axis generator is the rail population difference
    uz = dual_rail_rotation(register2, TARGET_CODE, "z", 0.8)
    assert uz[i10, i10] == pytest.approx(np.exp(-0.4j), abs=1e-14)
    with pytest.raises(ValueError, match="unknown axis"):
        dual_rail_rotation(register2, TARGET_CODE, "w", 1.0)


def test_rotations_match_expm():
    for label, spec in SETTINGS.items():
        axis, angle = spec or ("x", 0.0)
        want = expm(-0.5j * angle * {"x": X, "y": Y}[axis])
        np.testing.assert_allclose(setting_unitary(label), want, rtol=0, atol=1e-16)
    # the rail pulses are operators on the 12-state dual-rail space: its
    # block of the register-size expm oracle.  Each qubit holds at most one
    # photon there, so the rail generator's eigenvalues are +-1 and 0 at
    # every truncation
    for truncation, size, atol in ((2, 12, 1e-15), (3, 12, 1e-15)):
        register = ModeRegister.standard(truncation)
        sector = _dual_rail_space(register)
        block = np.ix_(sector, sector)
        assert sector.size == size
        for code in (CONTROL_CODE, TARGET_CODE):
            for axis in "xyz":
                for angle in (math.pi / 2, -math.pi / 2, math.pi, 0.3):
                    got = dual_rail_rotation(register, code, axis, angle)
                    assert got.shape == (size, size)
                    np.testing.assert_allclose(
                        got, _register_pulse(register, code, axis, angle)[block],
                        rtol=0, atol=atol)
            n1 = build_mode_operator(register, code.rail1, "number")
            got = dual_rail_phase(register, code, 0.3)
            assert got.shape == (size, size)
            np.testing.assert_allclose(got, expm(0.3j * n1)[block], rtol=0, atol=1e-16)


def test_dual_rail_phase_rotates_the_one_rail(register2):
    u = dual_rail_phase(register2, CONTROL_CODE, 0.3)
    i_zero = _sector_position(register2, {"a1": 1, "b1": 1})
    i_one = _sector_position(register2, {"a2": 1, "b1": 1})
    assert u[i_zero, i_zero] == pytest.approx(1.0)
    assert u[i_one, i_one] == pytest.approx(np.exp(0.3j), abs=1e-14)


def test_one_gate_bell_reference_matches_direct_construction():
    plus_i = np.array([1, -1j], dtype=complex) / math.sqrt(2)  # Rx(pi/2)|0>
    expected = np.diag([1, 1, 1, -1.0]) @ np.kron(plus_i, plus_i)
    np.testing.assert_allclose(_circuit_bell_reference(1), expected, atol=1e-15)
    assert np.linalg.norm(_circuit_bell_reference(1)) == pytest.approx(1.0)


RECORD_SHAPE = (6, 6, 3, 3)


def test_measurement_record_bookkeeping():
    data = np.arange(np.prod(RECORD_SHAPE)).reshape(RECORD_SHAPE)
    rec = MeasurementRecord(data)
    # integer counts are stored as a read-only float copy
    assert rec.data.dtype == float and not rec.data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rec.data[0, 0, 0, 0] = 1.0
    data[0, 0, 0, 0] = 99
    assert rec.data[0, 0, 0, 0] == 0.0
    # the mapping reads the array in SETTINGS x SETTINGS x OUTCOMES x OUTCOMES
    # order, as Python floats (the reports print them), and is built once
    keys = list(itertools.product(SETTINGS, SETTINGS, OUTCOMES, OUTCOMES))
    assert list(rec.counts) == keys
    assert [rec.counts[k] for k in keys] == list(range(len(keys)))
    assert all(type(v) is float for v in rec.counts.values())
    i, j = list(SETTINGS).index("X-90"), list(SETTINGS).index("Y90")
    assert rec.counts[("X-90", "Y90", "erasure", "0")] == data[i, j, 2, 0]
    assert rec.counts is rec.counts


def _record_list_with(entry):
    data = np.full(RECORD_SHAPE, 0.25).tolist()
    data[1][2][0][1] = entry
    return data


@pytest.mark.parametrize("data, match", [
    pytest.param(np.full((6, 6, 2, 2), 0.25), "shape", id="wrong-shape"),
    pytest.param(_record_list_with(math.nan), "finite", id="nan"),
    pytest.param(_record_list_with(math.inf), "finite", id="inf"),
    pytest.param(_record_list_with(-1e-300), "non-negative", id="negative"),
    # dtypes are refused, not cast: 0.25 + 0j and "1.0" are not counts
    pytest.param(np.full(RECORD_SHAPE, 0.25, dtype=complex), "real numbers", id="complex"),
    pytest.param(_record_list_with("1.0"), "real numbers", id="string"),
])
def test_measurement_record_refuses_what_reconstruction_cannot_use(data, match):
    with pytest.raises(ValueError, match=match):
        MeasurementRecord(data)


@pytest.mark.parametrize("run", [
    lambda n: bell_circuit_record(n, **IDEAL),
    lambda n: simulate_bitflip_protocol("0", n, spam=None, noise=NativeGateNoise.ideal()),
], ids=["bell_circuit_record", "simulate_bitflip_protocol"])
def test_a_negative_gate_count_is_refused(run):
    with pytest.raises(ValueError, match="n_gates must be non-negative"):
        run(-2)
    assert run(0) is not None  # zero gates is a valid circuit


@pytest.mark.parametrize("n_gates", [True, False, 2.5, 3.0, "3", None])
def test_a_gate_count_that_is_not_an_integer_is_refused(n_gates):
    # refused, not run as one gate or died on inside range()
    with pytest.raises(ValueError, match="n_gates must be an integer"):
        bell_circuit_record(n_gates, **IDEAL)
    with pytest.raises(ValueError, match="n_gates must be an integer"):
        tomography._bell_circuit_records([1, n_gates], **IDEAL)


def test_a_numpy_gate_count_is_taken():
    rec = bell_circuit_record(np.int64(3), **IDEAL)
    assert np.array_equal(rec.data, bell_circuit_record(3, **IDEAL).data)


def test_the_circuit_is_built_once_per_run(table_params, monkeypatch, tmp_path):
    # every depth of one build gives the one-depth record, bit for bit
    noise = NoiseModel.from_params(table_params)
    readout = DeviceConfig.default().readout(2)
    depths = (0, 1, 2, 3, 5, 9)
    records = tomography._bell_circuit_records(depths, params=table_params, noise=noise,
                                               readout=readout)
    assert len(records) == len(depths)
    for n, record in zip(depths, records):
        alone = bell_circuit_record(n, params=table_params, noise=noise, readout=readout)
        assert np.array_equal(record.data, alone.data), n
    # one repeated-cz run over five depths builds one gate map and the ten
    # distinct rail rotations: five non-trivial pre-rotations per qubit
    calls = {"gate_superoperator": 0, "dual_rail_rotation": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(tomography, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(tomography, name, counting)
    run_experiment("repeated-cz", DeviceConfig.default(), tmp_path)
    assert calls == {"gate_superoperator": 1, "dual_rail_rotation": 10}


def test_noiseless_circuit_reconstructs_the_ideal_bell_state():
    rec = bell_circuit_record(1, **IDEAL)
    fid, purity = bell_metrics(reconstruct_state(rec), _circuit_bell_reference(1))
    assert fid == pytest.approx(1.0, abs=1e-12)
    assert purity == pytest.approx(1.0, abs=1e-12)


def test_echoed_three_gate_circuit_returns_to_the_bell_state():
    rec = bell_circuit_record(3, **IDEAL)
    fid, purity = bell_metrics(reconstruct_state(rec), _circuit_bell_reference(1))
    assert fid == pytest.approx(1.0, abs=1e-12)
    assert purity == pytest.approx(1.0, abs=1e-12)


def test_noisy_record_frozen_metrics(table_params):
    rec = bell_circuit_record(1, params=table_params,
                              noise=NoiseModel.from_params(table_params),
                              readout=DeviceConfig.default().readout(2))
    post = bell_metrics(reconstruct_state(rec, postselect=True), _circuit_bell_reference(1))
    raw = bell_metrics(reconstruct_state(rec, postselect=False), _circuit_bell_reference(1))
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
    # only (I, I) has shots; the other 35 pairs are left out of the fit
    data = np.zeros(RECORD_SHAPE)
    i = list(SETTINGS).index("I")
    data[i, i, :2, :2] = 0.25
    for postselect in (True, False):
        with pytest.raises(ValueError, match="span"):
            reconstruct_state(MeasurementRecord(data), postselect=postselect)


def _perfect_readout_record(rho, trace):
    """Exact outcome probabilities of a two-qubit codespace block rho read
    out perfectly: Tr(P_oc x P_ot . U rho U^dag) with U the pre-rotation
    pair, and the missing trace 1 - trace on (erasure, erasure)."""
    projectors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    data = np.zeros(RECORD_SHAPE)
    for a, sc in enumerate(SETTINGS):
        for b, st in enumerate(SETTINGS):
            u = np.kron(setting_unitary(sc), setting_unitary(st))
            rotated = u @ rho @ u.conj().T
            for oc, p_c in enumerate(projectors):
                for ot, p_t in enumerate(projectors):
                    data[a, b, oc, ot] = np.trace(np.kron(p_c, p_t) @ rotated).real
            data[a, b, 2, 2] = 1.0 - trace
    return MeasurementRecord(data)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reconstruction_returns_the_measured_state(seed):
    # direct-state oracle: the record is built here from the state with
    # kron products and traces, not from the fit's design rows
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    trace = rng.uniform(0.5, 1.0)
    rho = trace * (g @ g.conj().T) / np.trace(g @ g.conj().T).real
    rec = _perfect_readout_record(rho, trace)
    raw = reconstruct_state(rec, postselect=False).data
    post = reconstruct_state(rec, postselect=True).data
    np.testing.assert_allclose(raw, rho, rtol=0, atol=1e-14)
    np.testing.assert_allclose(post, rho / trace, rtol=0, atol=1e-14)


def _bell_circuit_block(n_gates, params, noise, apply_on_register):
    """Codespace block of the Bell circuit's register state before readout,
    composed here on the whole 32-state register one step at a time, from
    register-size expm pulses: X(pi/2) on both qubits, then each noisy gate
    and its frame correction, with the X(pi) x X(pi) echo after gate
    (n_gates - 1) / 2 when n_gates is odd and at least 3."""
    register = ModeRegister.standard(2)
    schedule = build_schedule(params, register)
    frame = extract_local_frame(codespace_block(register, ideal_unitary(schedule)))
    gate = gate_superoperator(schedule, noise)

    def pulse(rho, code, axis, angle):
        u = _register_pulse(register, code, axis, angle)
        return u @ rho @ u.conj().T

    ket = register.basis_state({CONTROL_CODE.rail0: 1, TARGET_CODE.rail0: 1})
    rho = pulse(pulse(np.outer(ket, ket.conj()), CONTROL_CODE, "x", math.pi / 2),
                TARGET_CODE, "x", math.pi / 2)
    for k in range(1, n_gates + 1):
        rho = apply_on_register(gate, rho)
        for code, phi in ((CONTROL_CODE, frame.phi_control), (TARGET_CODE, frame.phi_target)):
            z = expm(-1j * phi * build_mode_operator(register, code.rail1, "number"))
            rho = z @ rho @ z.conj().T
        if n_gates >= 3 and n_gates % 2 == 1 and k == (n_gates - 1) // 2:
            rho = pulse(pulse(rho, CONTROL_CODE, "x", math.pi), TARGET_CODE, "x", math.pi)
    idx = codespace_basis_indices(register)
    return rho[np.ix_(idx, idx)]


@pytest.mark.parametrize("n_gates", [1, 2, 3, 5])
def test_circuit_reconstruction_returns_the_circuit_state(table_params, n_gates,
                                                          apply_on_register):
    # circuit-level oracle: with perfect readout, the tomography of the
    # simulated record is the circuit's own codespace block, renormalized
    # when postselected
    noise = NoiseModel.from_params(table_params)
    block = _bell_circuit_block(n_gates, table_params, noise, apply_on_register)
    trace = np.trace(block).real
    assert trace < 1.0 - 1e-3  # the device noise loses photons
    rec = bell_circuit_record(n_gates, params=table_params, noise=noise,
                              readout=ReadoutModel.perfect())
    np.testing.assert_allclose(reconstruct_state(rec, postselect=False).data, block,
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(reconstruct_state(rec, postselect=True).data, block / trace,
                               rtol=0, atol=1e-14)


def test_reconstruct_state_builds_no_kron_products(monkeypatch):
    rec = bell_circuit_record(1, **IDEAL)
    reconstruct_state(rec)  # a one-time design build would not count
    kron_calls = []
    kron = np.kron

    def counting_kron(a, b):
        kron_calls.append((np.shape(a), np.shape(b)))
        return kron(a, b)

    monkeypatch.setattr(np, "kron", counting_kron)
    reconstruct_state(rec, postselect=True)
    reconstruct_state(rec, postselect=False)
    assert kron_calls == []


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
        process_tomography(QuantumChannel(3, kraus=[np.eye(3, dtype=complex)]))


def test_process_tomography_refuses_a_channel_that_annihilates_a_preparation():
    # nothing is left to postselect on, so no outcome can be renormalized
    zero = QuantumChannel(2, kraus=[np.zeros((2, 2))], validate=False)
    with pytest.raises(ValueError, match="postselection annihilated a preparation"):
        process_tomography(zero, postselect=True)


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


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_chi_error_matches_the_trace_loop(n_qubits):
    # oracle: V_mn = Tr(E_m^dag E_n U^dag) / d, one trace per Pauli pair; the
    # contraction sums in another order, so agreement is to rounding
    rng = np.random.default_rng(17)
    d = 2 ** n_qubits
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    a = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    chi = a @ a.conj().T / np.trace(a @ a.conj().T)
    basis = pauli_basis(n_qubits)
    v = np.array([[np.trace(em.conj().T @ en @ u.conj().T) / d for en in basis]
                  for em in basis])
    np.testing.assert_allclose(chi_error(chi, u), v @ chi @ v.conj().T, rtol=0, atol=1e-15)


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


def _leak_kraus_oracle(params, control_prep, points, register_hamiltonians):
    """The leak-conditioned Kraus list built the direct way, on the whole
    register: every segment exponentiated afresh at every node, jump
    operators outside, nodes inside."""
    register = ModeRegister.standard(2)
    hams = register_hamiltonians(params, register)
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
        jump = build_mode_operator(register, label, "annihilate")
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
def test_leak_process_matches_the_per_node_oracle(table_params, register_hamiltonians, prep):
    assert all(math.isfinite(table_params.t1[m]) for m in ("c", "a1", "a2"))
    got = simulated_leak_process(table_params, prep, points=41).kraus
    want = _leak_kraus_oracle(table_params, prep, 41, register_hamiltonians)
    assert len(got) == len(want) > 0
    largest = max(np.abs(k).max() for k in want)
    for k_got, k_want in zip(got, want):
        if prep == "0":
            # the idle-rail states see no Hamiltonian: every phase is exactly 1
            assert np.array_equal(k_got, k_want)
        else:
            # eigenphases instead of expm: the same zeros, the rest to rounding
            assert np.array_equal(k_got == 0, k_want == 0)
            np.testing.assert_allclose(k_got, k_want, rtol=0, atol=1e-14 * largest)


@pytest.mark.parametrize("prep", ["1", "0"])
def test_leak_process_refuses_a_preparation_without_a_lossy_mode(table_params, prep):
    # only the target rails decay: no control-side jump can herald an erasure
    lossless = dataclasses.replace(table_params, t1={m: table_params.t1[m] for m in ("b1", "b2")})
    with pytest.raises(ValueError, match="no erasure pathway"):
        simulated_leak_process(lossless, prep)


@pytest.mark.parametrize("prep", ["1", "0", "erased"])
def test_leak_process_decomposes_each_segment_once_not_per_node(table_params,
                                                                monkeypatch, prep):
    eigh_calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        eigh_calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    per_grid = []
    for points in (41, 801):
        eigh_calls.clear()
        simulated_leak_process(table_params, prep, points=points)
        per_grid.append(len(eigh_calls))
    assert not hasattr(tomography, "expm")
    assert per_grid[0] == per_grid[1] > 0


def test_process_tomography_agrees_with_the_direct_chi(table_params):
    chan = simulated_leak_process(table_params, "1")
    measured = process_tomography(chan, postselect=False)
    np.testing.assert_allclose(measured, chan.chi(), atol=1e-12)
