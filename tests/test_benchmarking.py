"""Clifford closure, erasure-aware RB, and the idle bit-flip protocol."""
import functools
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from drcz.benchmarking import (
    BitflipResult,
    CliffordGroup,
    NativeGateNoise,
    RBRecord,
    depolarizing_cz_channel,
    embed_block_superop,
    fit_exponential,
    fit_linear_fidelity,
    generate_clifford_group,
    interleaved_gate_error,
    irb_accuracy_study,
    simulate_bitflip_protocol,
    simulate_rb,
)
from drcz.benchmarking import (_draw_rates, _interleaved_ideal_rb, _sequence_indices,
                               _sequence_with_recovery)
from drcz.channels import QuantumChannel
from drcz.config import DeviceConfig
from drcz.error_channels import CZ4, QUBIT_BLOCK, qutrit_gate_channel

SRC = Path(__file__).resolve().parents[1] / "src"

# Frozen apparent bit-flip fraction of an idle |0_L> spectator after 50
# gates, read through the one-round confusion matrix.
BITFLIP_50_ONE_ROUND = 0.0004667303451853888

# Entanglement infidelity of the fitted-rate gate channel (the operating
# point appended by the accuracy study).
OPERATING_POINT_INFIDELITY = 5.019999999996694e-4

OPERATING_POINT = DeviceConfig.default().channel_rates()


def test_clifford_group_sizes():
    assert len(generate_clifford_group(1)) == 24
    assert len(generate_clifford_group(2)) == 11520
    with pytest.raises(ValueError, match="1- or 2-qubit"):
        generate_clifford_group(3)


def test_clifford_words_replay_to_their_unitaries():
    group = generate_clifford_group(2)
    picks = [0, 1, 17, 523, 4096, 11519]
    for i in picks:
        element = group.elements[i]
        assert group.index_of(group.replay(element.word)) == i
    # inverse table really inverts: the product is the identity up to phase
    for i in picks:
        product = group.unitary(group.inverses[i]) @ group.unitary(i)
        np.testing.assert_allclose(product / product[0, 0], np.eye(4), rtol=0, atol=1e-9)


def test_index_of_is_phase_invariant():
    group = generate_clifford_group(2)
    u = group.unitary(37)
    assert group.index_of(np.exp(0.3j) * u) == 37
    t_gate = np.kron(np.diag([1.0, np.exp(0.25j * math.pi)]), np.eye(2))
    with pytest.raises(ValueError, match="not in the generated"):
        group.index_of(t_gate.astype(complex))


_T_GATE = np.diag([1.0, np.exp(0.25j * math.pi)])


@pytest.mark.parametrize("n_qubits, u, match", [
    (2, np.eye(2), "expected a 4x4 unitary"),
    (1, np.eye(4), "expected a 2x2 unitary"),
    (2, np.ones(4), "expected a 4x4 unitary"),
    (2, 2 * np.eye(4), "not unitary"),
    (2, np.full((4, 4), np.nan), "not unitary"),
    (1, _T_GATE, "not in the generated Clifford group"),
    (2, np.kron(np.eye(2), _T_GATE), "not in the generated Clifford group"),
])
def test_index_of_rejects_what_is_not_a_group_element(n_qubits, u, match):
    with pytest.raises(ValueError, match=match):
        generate_clifford_group(n_qubits).index_of(u)


# Pauli strings in pauli_basis order (I, X, Y, Z per qubit, first qubit
# most significant), built here rather than taken from the package.
_PAULI_1Q = [np.eye(2), np.array([[0, 1], [1, 0]]),
             np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]


def _pauli_strings(n_qubits):
    if n_qubits == 1:
        return np.array(_PAULI_1Q, dtype=complex)
    return np.array([np.kron(a, b) for a in _PAULI_1Q for b in _PAULI_1Q], dtype=complex)


@functools.cache
def _replayed(n_qubits):
    """Every element's unitary, replayed gate by gate from its word."""
    group = generate_clifford_group(n_qubits)
    return np.array([group.replay(e.word) for e in group.elements])


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_clifford_tables_are_the_pauli_conjugation_of_the_words(n_qubits):
    # entry p of a table is q + 4^n s when U P_p U^dag = (-1)^s P_q
    group = generate_clifford_group(n_qubits)
    paulis = _pauli_strings(n_qubits)
    n, d = paulis.shape[:2]
    unitaries = _replayed(n_qubits)
    for start in range(0, len(unitaries), 1024):
        u = unitaries[start:start + 1024, None]
        images = u @ paulis @ np.swapaxes(u.conj(), -1, -2)
        overlaps = np.einsum("qji,epij->epq", paulis, images) / d
        q = np.argmax(np.abs(overlaps), axis=2)
        sign = np.take_along_axis(overlaps, q[..., None], axis=2)[..., 0].real
        np.testing.assert_allclose(np.abs(overlaps).sum(axis=2), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.abs(sign), 1.0, atol=1e-9)
        expected = q + n * (sign < 0)
        got = np.array([e.table for e in group.elements[start:start + 1024]])
        np.testing.assert_array_equal(got, expected)


# sha256 of the generator words (one line per element, gates space-separated)
# and of the inverse indices (comma-separated), recorded from the search over
# rounded 4x4 unitaries: the element order is part of the seed -> sequence
# contract of every RB report.
GROUP_DIGESTS = {
    1: ("af91c4b6ffa62c5d07fb3c1702b0d882ad3481856908e8f4a395365fd82d53c5",
        "aa168e6bf626db6ebb801796c212f2d12992b89db65693bf7018d4356bf07a06"),
    2: ("bf2530b1613254186c550ad06811e6de39ce713fcc8ceefd4e5e1962a9331f04",
        "f294ec2541518574be7825a1b4a2e336bfbb38c519365d1b2e2aff29b06e7d12"),
}


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_clifford_order_words_and_inverses_are_frozen(n_qubits):
    group = generate_clifford_group(n_qubits)
    words = "\n".join(" ".join(e.word) for e in group.elements)
    inverses = ",".join(str(int(k)) for k in group.inverses)
    assert (hashlib.sha256(words.encode()).hexdigest(),
            hashlib.sha256(inverses.encode()).hexdigest()) == GROUP_DIGESTS[n_qubits]


def _rounded_key(u):
    """Global phase fixed (first non-zero entry positive real), rounded."""
    flat = u.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat) > 1e-8)]
    return (np.round(u * (abs(pivot) / pivot), 6) + 0.0).tobytes()


@pytest.mark.parametrize("n_qubits, interleave", [
    (1, None), (1, "X90"), (2, None), (2, "CZ")])
def test_recovery_matches_the_unitary_product_oracle(n_qubits, interleave):
    # the recovery as found before Pauli tables: multiply the 4x4 (or 2x2)
    # unitaries of the sequence and look the inverse up by rounded entries
    group = generate_clifford_group(n_qubits)
    unitaries = _replayed(n_qubits)
    lookup = {_rounded_key(u): i for i, u in enumerate(unitaries)}
    assert len(lookup) == len(group)
    slot = None if interleave is None else group.gateset[interleave]
    slot_index = None if interleave is None else group.index_of(slot)
    for depth in range(1, 21):
        for seed in range(10):
            indices, recovery = _sequence_with_recovery(group, depth, seed, slot_index)
            net = np.eye(2 ** n_qubits, dtype=complex)
            for idx in indices:
                net = unitaries[idx] @ net
                if slot is not None:
                    net = slot @ net
            assert recovery == lookup[_rounded_key(net.conj().T)]


def test_sequence_indices_are_deterministic():
    a = _sequence_indices(11520, 8, 3)
    b = _sequence_indices(11520, 8, 3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, _sequence_indices(11520, 8, 4))
    assert len(_sequence_indices(11520, 5, 0)) == 5


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_ideal_rb_survival_is_identically_one(n_qubits):
    noise = NativeGateNoise.ideal(n_qubits)
    record = simulate_rb(noise, (1, 3, 6), (0, 1))
    np.testing.assert_allclose(record.raw, 1.0, atol=1e-10)
    np.testing.assert_allclose(record.postselected, 1.0, atol=1e-10)
    np.testing.assert_allclose(record.kept_fraction, 1.0, atol=1e-10)


def test_rb_validation():
    noise = NativeGateNoise.ideal(2)
    with pytest.raises(ValueError, match="depths must be positive"):
        simulate_rb(noise, (0, 2), (0,))
    with pytest.raises(ValueError, match="at least one seed"):
        simulate_rb(noise, (1, 2), ())
    with pytest.raises(ValueError, match="unknown interleaved gate"):
        simulate_rb(noise, (1,), (0,), interleave="CPHASE")


def test_interleaved_depolarizing_survival_is_exact():
    # depolarizing with eigenvalue p on traceless operators after every
    # Clifford: postselected survival must equal 0.75 p^N + 0.25 exactly,
    # independent of the random sequence
    p = 0.98
    noise = NativeGateNoise.ideal(2).replace(CZ_dep=depolarizing_cz_channel(p))
    record = simulate_rb(noise, (1, 2, 4, 8), (0, 1, 2),
                         interleave="CZ_dep", interleave_unitary=CZ4)
    for i, depth in enumerate(record.depths):
        np.testing.assert_allclose(record.postselected[i],
                                   0.75 * p ** depth + 0.25, atol=1e-12)
    fitted_p, amp, offset, sigma = fit_exponential(record)
    assert abs(fitted_p - p) <= max(2 * sigma, 1e-9)
    assert amp == pytest.approx(0.75, abs=1e-6)
    assert offset == pytest.approx(0.25, abs=1e-6)


def test_embed_block_superop_acts_only_on_the_codespace():
    s4 = np.kron(CZ4.conj(), CZ4)
    s81 = embed_block_superop(s4)
    # block input follows the two-qubit map
    rho4 = np.outer([0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]).astype(complex)
    rho9 = np.zeros((9, 9), dtype=complex)
    rho9[np.ix_(QUBIT_BLOCK, QUBIT_BLOCK)] = rho4
    out = (s81 @ rho9.reshape(-1, order="F")).reshape(9, 9, order="F")
    np.testing.assert_allclose(out[np.ix_(QUBIT_BLOCK, QUBIT_BLOCK)],
                               CZ4 @ rho4 @ CZ4.conj().T, atol=1e-12)
    # leaked population is untouched
    leaked = np.zeros((9, 9), dtype=complex)
    leaked[6, 6] = 1.0
    out = (s81 @ leaked.reshape(-1, order="F")).reshape(9, 9, order="F")
    np.testing.assert_allclose(out, leaked, atol=1e-12)


def _synthetic_record(depths, values):
    arr = np.asarray(values, dtype=float).reshape(-1, 1)
    return RBRecord(depths=tuple(depths), seeds=(0,), raw=arr,
                    postselected=arr.copy(), kept_fraction=np.ones_like(arr))


def test_fit_linear_fidelity():
    depths = (1, 2, 4, 8)
    record = _synthetic_record(depths, [1 - 0.01 * d for d in depths])
    fit = fit_linear_fidelity(record)
    assert fit.slope == pytest.approx(-0.01, rel=1e-9)
    assert fit.error_rate == pytest.approx(0.01, rel=1e-9)
    with pytest.raises(ValueError, match="at least three depths"):
        fit_linear_fidelity(_synthetic_record((1, 2), [0.99, 0.98]))


def test_interleaved_gate_error_formula():
    ref = fit_linear_fidelity(_synthetic_record((1, 2, 3), [1 - 0.001 * d for d in (1, 2, 3)]))
    inter = fit_linear_fidelity(_synthetic_record((1, 2, 3), [1 - 0.004 * d for d in (1, 2, 3)]))
    expected = 0.75 * (0.004 - 0.001) / (0.75 - 0.001)
    assert interleaved_gate_error(ref, inter) == pytest.approx(expected, rel=1e-9)


def test_coherence_limited_natives():
    noise = DeviceConfig.default().native_noise()
    assert noise.dim == 9
    for name, sup in noise.superops.items():
        chan = QuantumChannel(9, superop=sup, validate=False)
        assert chan.is_trace_preserving, name
    # the control X(pi/2) leaks with probability 1 - exp(-kappa_bar * t)
    kappa = 0.5 * (1 / 231.0 + 1 / 411.0)
    expected_leak = 1 - math.exp(-kappa * 0.208)
    rho = np.zeros((9, 9), dtype=complex)
    rho[0, 0] = 1.0
    out = (noise.superops["X90_c"] @ rho.reshape(-1, order="F")).reshape(9, 9, order="F")
    leaked = sum(np.real(out[i, i]) for i in (6, 7, 8))
    assert leaked == pytest.approx(expected_leak, rel=1e-9)
    # virtual Z stays noiseless
    ideal_z = NativeGateNoise.ideal(2).superops["Z90_c"]
    np.testing.assert_allclose(noise.superops["Z90_c"], ideal_z, atol=1e-14)


def test_replace_accepts_channels_and_arrays():
    base = NativeGateNoise.ideal(2)
    swapped = base.replace(Z180_c=base.superops["X90_c"])
    np.testing.assert_allclose(swapped.superops["Z180_c"], base.superops["X90_c"])
    chan = QuantumChannel(9, superop=base.superops["CZ"], validate=False)
    swapped = base.replace(CZ=chan)
    np.testing.assert_allclose(swapped.superops["CZ"], base.superops["CZ"])


def test_bitflip_with_perfect_readout_is_exactly_zero():
    noise = DeviceConfig.default().native_noise()
    for initial in ("0", "1"):
        for n in (1, 10, 50):
            result = simulate_bitflip_protocol(initial, n, noise=noise)
            assert result.apparent_flip == 0.0
    assert math.isnan(BitflipResult(0, 0.0).per_gate)


def test_bitflip_through_confusion_matrix_frozen():
    result = simulate_bitflip_protocol("0", 50, spam=DeviceConfig.default().readout(1),
                                       noise=DeviceConfig.default().native_noise())
    assert result.apparent_flip == pytest.approx(BITFLIP_50_ONE_ROUND, rel=1e-12)
    assert result.per_gate == pytest.approx(BITFLIP_50_ONE_ROUND / 50, rel=1e-12)


def test_bitflip_validation():
    noise = NativeGateNoise.ideal(2)
    with pytest.raises(ValueError, match="initial state"):
        simulate_bitflip_protocol("2", 1, noise=noise)


def test_irb_accuracy_study_smoke():
    result = irb_accuracy_study(OPERATING_POINT, n_samples=3, depths=(1, 2, 3),
                                sequence_seeds=tuple(range(4)))
    assert result.true_infidelity.shape == (3,)
    assert np.all(result.inferred_infidelity > 0)
    true_r, inferred_r = result.operating_point
    assert true_r == pytest.approx(OPERATING_POINT_INFIDELITY, rel=1e-9)
    assert 0.0 < inferred_r < true_r
    assert 0.0 < result.underestimate_at_operating_point < 1.0


def test_batched_pass_matches_simulate_rb_sample_by_sample():
    # the oracle runs each channel on its own, one 81x81 superoperator per
    # native gate, and finds its own recovery per (sample, sequence)
    depths, seeds = (1, 2, 3, 5), (0, 1, 2, 3)
    group = generate_clifford_group(2)
    rates = _draw_rates(3, 20260813) + [OPERATING_POINT]
    channels = [qutrit_gate_channel(r).superop for r in rates]
    # The sampled channels act diagonally on the codespace, which hides a
    # transposed or conjugated superoperator; a complex coherent error that
    # also swaps weight with the leak levels does not.
    rng = np.random.default_rng(7)
    h = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    u = expm(-0.05j * (h + h.conj().T)) @ np.diag(np.exp(1j * np.arange(9)))
    channels.append(np.kron(u.conj(), u))
    records = _interleaved_ideal_rb(channels, depths, seeds, group)
    base = NativeGateNoise.ideal(2)
    for channel, record in zip(channels, records):
        oracle = simulate_rb(base.replace(CZ_sampled=channel), depths, seeds,
                             interleave="CZ_sampled", interleave_unitary=CZ4)
        np.testing.assert_allclose(record.raw, oracle.raw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.postselected, oracle.postselected,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.kept_fraction, oracle.kept_fraction,
                                   rtol=0, atol=1e-12)


def test_batched_pass_depolarizing_survival_is_exact():
    p = 0.98
    depths = (1, 2, 4, 8)
    (record,) = _interleaved_ideal_rb([depolarizing_cz_channel(p)], depths,
                                      (0, 1, 2), generate_clifford_group(2))
    for i, depth in enumerate(depths):
        np.testing.assert_allclose(record.postselected[i],
                                   0.75 * p ** depth + 0.25, rtol=0, atol=1e-12)


def test_irb_accuracy_study_finds_one_recovery_per_sequence(monkeypatch):
    calls = []
    inverse_of = CliffordGroup.inverse_of

    def counted(self, table):
        calls.append(1)
        return inverse_of(self, table)

    monkeypatch.setattr(CliffordGroup, "inverse_of", counted)
    irb_accuracy_study(OPERATING_POINT, n_samples=3, depths=(1, 2, 3),
                       sequence_seeds=tuple(range(4)))
    # 12 sequences for the reference run plus 12 for all four channels at once
    assert len(calls) == 24


@pytest.mark.parametrize("kwargs, match", [
    (dict(n_samples=1), "n_samples"),
    (dict(n_samples=0), "n_samples"),
])
def test_irb_accuracy_study_validates_inputs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        irb_accuracy_study(OPERATING_POINT, depths=(1, 2, 3), sequence_seeds=(0,), **kwargs)


def test_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import sys, drcz; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
