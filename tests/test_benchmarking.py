"""Clifford closure, erasure-aware RB, and the idle bit-flip protocol."""
import functools
import hashlib
import math

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
    interleaved_rb,
    irb_accuracy_study,
    simulate_bitflip_protocol,
    simulate_rb,
)
from drcz.benchmarking import (_clifford_tables, _coordinates, _draw_rates, _draw_sequences,
                               _reachable_entries, _sequence_indices, _signed_tables)
from drcz.channels import QuantumChannel
from drcz.config import DeviceConfig
from drcz.error_channels import (CZ4, QUBIT_BLOCK, _gate_channel_stack, _layered_channel,
                                 _leakage_kraus, qutrit_gate_channel)

# Frozen apparent bit-flip fraction of an idle |0_L> spectator after 50
# gates, read through the one-round confusion matrix.
BITFLIP_50_ONE_ROUND = 0.0004667303451853888

# Entanglement infidelity of the fitted-rate gate channel (the operating
# point appended by the accuracy study).
OPERATING_POINT_INFIDELITY = 5.019999999996694e-4

OPERATING_POINT = DeviceConfig.default().channel_rates()

# the ideal natives' superoperators, which interleaved_rb's ideal
# Cliffords are made of
IDEAL_NATIVES = list(NativeGateNoise.ideal().superops.values())


def test_clifford_group_sizes():
    assert len(generate_clifford_group(1)) == 24
    assert len(generate_clifford_group(2)) == 11520
    with pytest.raises(ValueError, match="1- or 2-qubit"):
        generate_clifford_group(3)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_the_cached_group_is_shared_and_cannot_be_written(n_qubits):
    # every RB run in a process reads this one object, so no caller may
    # change what the next one draws
    group = generate_clifford_group(n_qubits)
    assert generate_clifford_group(n_qubits) is group
    assert isinstance(group.words, tuple)
    for array in (group.tables, group.inverses, *group.gateset.values()):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    with pytest.raises(TypeError):
        group.gateset["T"] = np.eye(2 ** n_qubits)
    with pytest.raises(AttributeError):
        group.inverses = np.zeros(len(group), dtype=int)
    assert len(generate_clifford_group(n_qubits)) == (24, 11520)[n_qubits - 1]


def _replay(group, word):
    """The unitary of a word of native gates, applied left to right."""
    u = np.eye(2 ** group.n_qubits, dtype=complex)
    for gate in word:
        u = group.gateset[gate] @ u
    return u


def test_clifford_words_replay_to_their_unitaries():
    group = generate_clifford_group(2)
    picks = [0, 1, 17, 523, 4096, 11519]
    for i in picks:
        assert group.index_of(_replay(group, group.words[i])) == i
    # inverse table really inverts: the product is the identity up to phase
    for i in picks:
        product = (_replay(group, group.words[group.inverses[i]])
                   @ _replay(group, group.words[i]))
        np.testing.assert_allclose(product / product[0, 0], np.eye(4), rtol=0, atol=1e-9)


def test_index_of_is_phase_invariant():
    group = generate_clifford_group(2)
    u = _replay(group, group.words[37])
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
    return np.array([_replay(group, word) for word in group.words])


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
        got = group.tables[start:start + 1024, :n]
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
    words = "\n".join(" ".join(word) for word in group.words)
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
        drawn, (recoveries,) = _draw_sequences(group, depth, range(10), (slot_index,))
        for indices, recovery in zip(drawn, recoveries):
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


def _per_sequence_rb(noise, depths, seeds, spam, channel=None):
    """RB as one loop per sequence: the recovery from one table gather per
    Clifford, one superop @ vec per native gate, the channel's superop
    (when given) after every Clifford, recovered as CZ, and each final
    state's populations read through the two confusion matrices.  The
    oracle of simulate_rb (no channel) and of interleaved_rb's slots."""
    group = generate_clifford_group(2)
    slot = None if channel is None else group.index_of(CZ4)
    confusion = [np.eye(3) if spam is None else spam.confusion_matrix(q) for q in (0, 1)]
    vec0 = np.zeros(81, dtype=complex)
    vec0[0] = 1.0
    raw = np.zeros((len(depths), len(seeds)))
    post, kept = np.zeros_like(raw), np.zeros_like(raw)
    for i, depth in enumerate(depths):
        for j, seed in enumerate(seeds):
            indices = _sequence_indices(len(group), depth, seed)
            net = group.tables[0]
            for idx in indices:
                net = group.tables[idx][net]
                if slot is not None:
                    net = group.tables[slot][net]
            vec = vec0
            for idx in indices:
                for gate in group.words[idx]:
                    vec = noise.superops[gate] @ vec
                if channel is not None:
                    vec = channel @ vec
            for gate in group.words[int(group.inverse_of(net))]:
                vec = noise.superops[gate] @ vec
            probs = np.clip(np.real(np.diag(vec.reshape(9, 9, order="F"))), 0.0, None)
            observed = confusion[0].T @ probs.reshape(3, 3) @ confusion[1]
            raw[i, j], kept[i, j] = float(observed[0, 0]), float(observed[:2, :2].sum())
            post[i, j] = raw[i, j] / kept[i, j] if kept[i, j] > 0 else 0.0
    return raw, post, kept


@pytest.mark.parametrize("two_round", [True, False], ids=["readout", "perfect"])
def test_simulate_rb_is_bit_identical_to_the_per_sequence_loop(two_round):
    # Equal, not close, and for the rb report only: its free
    # three-parameter fit is ill-posed (ROADMAP item 8).  Stepping the rb
    # report's sequences at seed 0 as matrix-matrix instead of
    # matrix-vector products changed their survivals by at most 4.4e-16,
    # and moved the fitted amplitude and offset by 1.0e-2 relative and
    # sigma_p by 18%, far beyond the perfbench reference's 1e-6.  The irb
    # report, which reads only linear slopes, runs the batched
    # interleaved_rb, held to this loop at 1e-12 below.
    cfg = DeviceConfig.default()
    spam = cfg.readout(2) if two_round else None
    depths, seeds = (1, 2, 3, 5, 8, 12), (0, 1, 2, 3)
    record = simulate_rb(cfg.native_noise(), depths, seeds, spam=spam)
    raw, post, kept = _per_sequence_rb(cfg.native_noise(), depths, seeds, spam)
    assert np.array_equal(record.raw, raw)
    assert np.array_equal(record.postselected, post)
    assert np.array_equal(record.kept_fraction, kept)


def test_ideal_rb_survival_is_identically_one():
    noise = NativeGateNoise.ideal()
    record = simulate_rb(noise, (1, 3, 6), (0, 1))
    np.testing.assert_allclose(record.raw, 1.0, atol=1e-10)
    np.testing.assert_allclose(record.postselected, 1.0, atol=1e-10)
    np.testing.assert_allclose(record.kept_fraction, 1.0, atol=1e-10)


_CZ = NativeGateNoise.ideal().superops["CZ"]


def test_rb_validation():
    # both passes: the rb loop, and the interleaved pass with the ideal CZ
    for run in (lambda depths, seeds: simulate_rb(NativeGateNoise.ideal(), depths, seeds),
                lambda depths, seeds: interleaved_rb(None, _CZ[None], depths, seeds)):
        with pytest.raises(ValueError, match="depths must be positive"):
            run((0, 2), (0,))
        with pytest.raises(ValueError, match="depths must be positive"):
            run((), (0,))
        with pytest.raises(ValueError, match="at least one seed"):
            run((1, 2), ())


@pytest.mark.parametrize("channels", [
    pytest.param(np.empty((0, 81, 81), dtype=complex), id="empty"),
    pytest.param(_CZ, id="one-matrix"),
    pytest.param(_CZ[None, :16, :16], id="two-qubit-size"),
    pytest.param(np.stack([_CZ, _CZ])[:, :, :, None], id="four-axes"),
])
def test_interleaved_rb_refuses_a_stack_that_is_not_k_81_81(channels):
    with pytest.raises(ValueError, match=r"\(K, 81, 81\) stack"):
        interleaved_rb(None, channels, (1, 2, 3), (0,))


def test_interleaved_depolarizing_survival_is_exact():
    # depolarizing with eigenvalue p on traceless operators after every
    # Clifford: postselected survival must equal 0.75 p^N + 0.25 exactly,
    # independent of the random sequence; here on the noisy natives' route,
    # each ideal native applied as its superoperator
    p = 0.98
    _, record = interleaved_rb(NativeGateNoise.ideal(), depolarizing_cz_channel(p)[None],
                               (1, 2, 4, 8), (0, 1, 2))
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
    assert {sup.shape for sup in noise.superops.values()} == {(81, 81)}
    for name, sup in noise.superops.items():
        chan = QuantumChannel(9, superop=sup, validate=False)
        np.testing.assert_allclose(chan.completeness, np.eye(chan.dim), rtol=0, atol=1e-9,
                                   err_msg=name)
    # the control X(pi/2) leaks with probability 1 - exp(-kappa_bar * t)
    kappa = 0.5 * (1 / 231.0 + 1 / 411.0)
    expected_leak = 1 - math.exp(-kappa * 0.208)
    rho = np.zeros((9, 9), dtype=complex)
    rho[0, 0] = 1.0
    out = (noise.superops["X90_c"] @ rho.reshape(-1, order="F")).reshape(9, 9, order="F")
    leaked = sum(np.real(out[i, i]) for i in (6, 7, 8))
    assert leaked == pytest.approx(expected_leak, rel=1e-9)
    # virtual Z stays noiseless
    ideal_z = NativeGateNoise.ideal().superops["Z90_c"]
    np.testing.assert_allclose(noise.superops["Z90_c"], ideal_z, atol=1e-14)


def _x90_diagonal_leak_oracle(cfg, qubit, include_cross_kerr):
    """An X(pi/2) on one qubit, built with leak Kraus operators
    diag(sqrt(1-p), sqrt(1-p), 1), |2><0| and |2><1| on that qutrit, which
    damp a logical-leak coherence by sqrt(1-p) rather than 1-p."""
    t = (cfg.control_x90_ns, cfg.target_x90_ns)[qubit] * 1e-3
    t1 = cfg.rail_t1_us()[qubit]
    p = 1 - math.exp(-0.5 * (1 / t1[0] + 1 / t1[1]) * t)
    p_z = 0.5 * (1 - math.exp(-t / (cfg.control_ramsey_us, cfg.target_ramsey_us)[qubit]))
    eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    rx90 = math.cos(math.pi / 4) * eye2 - 1j * math.sin(math.pi / 4) * np.array([[0, 1], [1, 0]])
    u = np.eye(9, dtype=complex)
    u[np.ix_(QUBIT_BLOCK, QUBIT_BLOCK)] = np.kron(rx90, eye2) if qubit == 0 else np.kron(eye2, rx90)
    if include_cross_kerr:
        u[3] *= np.exp(-1j * 2 * math.pi * cfg.chi_ab_khz * 1e-3 * t)  # phase on |1>_c|0>_t
    keep = np.diag([math.sqrt(1 - p), math.sqrt(1 - p), 1.0]).astype(complex)
    jumps = [math.sqrt(p) * np.outer(eye3[2], eye3[i]) for i in (0, 1)]
    leak = [keep, *jumps]
    dephase = [math.sqrt(1 - p_z) * eye3, math.sqrt(p_z) * np.diag([-1j, 1j, 1.0])]

    def superop(kraus):
        kraus = [np.kron(k, eye3) if qubit == 0 else np.kron(eye3, k) for k in kraus]
        return sum(np.kron(k.conj(), k) for k in kraus)
    return superop(dephase) @ superop(leak) @ np.kron(u.conj(), u)


@pytest.mark.parametrize("include_cross_kerr", [True, False])
def test_x90_populations_match_the_diagonal_leak_oracle(include_cross_kerr):
    # The X(pi/2) natives use the CZ channel's leak Kraus set, sqrt(1-p) I
    # plus |2><i| for i = 0, 1, 2.  It differs from the oracle's only in
    # how it damps coherences between a logical and a leaked level, and no
    # native turns such a coherence into a population, which is all any
    # readout sees.
    cfg = DeviceConfig.default()
    noise = cfg.native_noise(include_cross_kerr=include_cross_kerr)
    populations = 10 * np.arange(9)  # column-stacked |k><k|
    logical_leak = [i + 9 * j for i in range(9) for j in range(9)
                    if (i in QUBIT_BLOCK) != (j in QUBIT_BLOCK)]
    for qubit, name in ((0, "X90_c"), (1, "X90_t")):
        oracle = _x90_diagonal_leak_oracle(cfg, qubit, include_cross_kerr)
        sup = noise.superops[name]
        np.testing.assert_allclose(sup[populations], oracle[populations],
                                   rtol=0, atol=2e-16, err_msg=name)
        for m in (sup, oracle):
            assert not np.any(m[np.ix_(populations, logical_leak)]), name


def test_replace_accepts_channels_and_arrays():
    base = NativeGateNoise.ideal()
    swapped = base.replace(Z180_c=base.superops["X90_c"])
    np.testing.assert_allclose(swapped.superops["Z180_c"], base.superops["X90_c"])
    chan = QuantumChannel(9, superop=base.superops["CZ"], validate=False)
    swapped = base.replace(CZ=chan)
    np.testing.assert_allclose(swapped.superops["CZ"], base.superops["CZ"])


def test_bitflip_with_perfect_readout_is_exactly_zero():
    noise = DeviceConfig.default().native_noise()
    for initial in ("0", "1"):
        for n in (1, 10, 50):
            result = simulate_bitflip_protocol(initial, n, spam=None, noise=noise)
            assert result.apparent_flip == 0.0
    assert math.isnan(BitflipResult(0, 0.0).per_gate)


def test_bitflip_through_confusion_matrix_frozen():
    result = simulate_bitflip_protocol("0", 50, spam=DeviceConfig.default().readout(1),
                                       noise=DeviceConfig.default().native_noise())
    assert result.apparent_flip == pytest.approx(BITFLIP_50_ONE_ROUND, rel=1e-12)
    assert result.per_gate == pytest.approx(BITFLIP_50_ONE_ROUND / 50, rel=1e-12)


def test_bitflip_validation():
    noise = NativeGateNoise.ideal()
    with pytest.raises(ValueError, match="initial state"):
        simulate_bitflip_protocol("2", 1, spam=None, noise=noise)


def test_irb_accuracy_study_smoke():
    result = irb_accuracy_study(OPERATING_POINT, n_samples=3, seed=20260813)
    assert result.true_infidelity.shape == (3,)
    assert np.all(result.inferred_infidelity > 0)
    true_r, inferred_r = result.operating_point
    assert true_r == pytest.approx(OPERATING_POINT_INFIDELITY, rel=1e-9)
    assert 0.0 < inferred_r < true_r
    assert 0.0 < result.underestimate_at_operating_point < 1.0


# the basis states 3c + t of each leak sector: the codespace, the target
# leaked, the control leaked and both leaked
_SECTOR_STATES = [(0, 1, 3, 4), (2, 5), (6, 7), (8,)]


def _sector_block_unitary(rng):
    """A random unitary on each leak sector's block of basis states."""
    u = np.zeros((9, 9), dtype=complex)
    for states in _SECTOR_STATES:
        n = len(states)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u[np.ix_(states, states)] = expm(-0.5j * (h + h.conj().T))
    return u


def test_batched_pass_matches_simulate_rb_sample_by_sample():
    # the oracle runs each channel on its own, one 81x81 superoperator per
    # native gate, and finds its own recovery per (sample, sequence), as
    # simulate_rb's own loop does
    depths, seeds = (1, 2, 3, 5), (0, 1, 2, 3)
    rates = _draw_rates(3, 20260813) + [OPERATING_POINT]
    channels = [qutrit_gate_channel(r).superop for r in rates]
    # The sampled channels act diagonally on the codespace, which hides a
    # transposed or conjugated superoperator.  A complex coherent error
    # that also swaps weight with the leak levels does not; it reaches
    # coherences between leak sectors, so it runs with the ideal natives
    # as superoperators.  A complex unitary on each sector's block, then a
    # sampled leak layer, keeps the sectors apart and runs with the ideal
    # natives as signed tables.
    rng = np.random.default_rng(7)
    h = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    u = expm(-0.05j * (h + h.conj().T)) @ np.diag(np.exp(1j * np.arange(9)))
    generic = np.kron(u.conj(), u)
    leak = (_leakage_kraus(rates[0].p_leak_target, 1, correlated=False),
            _leakage_kraus(rates[0].p_leak_control, 0, correlated=False))
    channels.append(_layered_channel(_sector_block_unitary(rng), *leak).superop)
    assert len(_reachable_entries(IDEAL_NATIVES, channels)) == 25
    records = interleaved_rb(None, channels, depths, seeds)[1:]
    records += interleaved_rb(NativeGateNoise.ideal(), generic[None], depths, seeds)[1:]
    for channel, record in zip(channels + [generic], records):
        _assert_records_match(record, _oracle(NativeGateNoise.ideal(), depths, seeds, channel))


def test_ideal_pass_refuses_coherences_between_leak_sectors():
    # no ideal Clifford is a signed permutation there; the message names
    # the route that runs such a channel
    rng = np.random.default_rng(11)
    h = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    u = expm(-0.05j * (h + h.conj().T))
    with pytest.raises(ValueError, match=r"interleaved_rb\(NativeGateNoise\.ideal\(\), "):
        interleaved_rb(None, np.kron(u.conj(), u)[None], (1, 2, 3), (0,))


def _oracle(noise, depths, seeds, channel, spam=None):
    """_per_sequence_rb's arrays as a record."""
    raw, post, kept = _per_sequence_rb(noise, depths, seeds, spam, channel)
    return RBRecord(depths=depths, seeds=seeds, raw=raw, postselected=post, kept_fraction=kept)


def _assert_records_match(record, oracle):
    for field in ("raw", "postselected", "kept_fraction"):
        np.testing.assert_allclose(getattr(record, field), getattr(oracle, field),
                                   rtol=0, atol=1e-12)


def test_batched_pass_on_the_25_reachable_entries_matches_simulate_rb():
    # the sampled channels alone keep the pass on the entries one leak per
    # qutrit can reach, which a generic channel in the stack would widen to 81
    depths, seeds = (1, 2, 3, 5), (0, 1, 2, 3)
    rates = _draw_rates(3, 20260813) + [OPERATING_POINT]
    channels = np.array([qutrit_gate_channel(r).superop for r in rates])
    assert len(_reachable_entries(IDEAL_NATIVES, channels)) == 25
    records = interleaved_rb(None, channels, depths, seeds)[1:]
    for channel, record in zip(channels, records):
        _assert_records_match(record, _oracle(NativeGateNoise.ideal(), depths, seeds, channel))


def test_batched_pass_on_the_16_codespace_entries_matches_simulate_rb():
    depths, seeds = (1, 2, 3, 5), (0, 1, 2, 3)
    ideal_cz = NativeGateNoise.ideal().superops["CZ"]
    assert len(_reachable_entries(IDEAL_NATIVES, [ideal_cz])) == 16
    _, record = interleaved_rb(None, ideal_cz[None], depths, seeds)
    _assert_records_match(record, _oracle(NativeGateNoise.ideal(), depths, seeds, ideal_cz))


def test_batched_reference_matches_simulate_rb():
    # the study's IRB reference is the first record of its one pass, beside
    # the sampled channels: ideal natives, no interleaved gate
    depths, seeds = (1, 2, 3, 5, 8), (0, 1, 2, 3, 4)
    rates = _draw_rates(3, 20260813) + [OPERATING_POINT]
    superops = _gate_channel_stack(rates, np.empty((len(rates), 81, 81), dtype=complex))
    record, *interleaved = interleaved_rb(None, superops, depths, seeds)
    assert record.interleaved is None
    assert {r.interleaved for r in interleaved} == {"CZ"}
    _assert_records_match(record, simulate_rb(NativeGateNoise.ideal(), depths, seeds))


@pytest.mark.parametrize("include_cross_kerr", [True, False], ids=["kerr", "no-kerr"])
@pytest.mark.parametrize("two_round", [True, False], ids=["readout", "perfect"])
def test_noisy_slots_match_simulate_rb(include_cross_kerr, two_round):
    # irb's pass: the coherence-limited natives applied one word position
    # at a time, the reference and the noisy CZ as two slots, read through
    # the confusion matrices; the oracles step each sequence alone on all
    # 81 entries, simulate_rb without an interleaved gate and the test's
    # own loop with CZ
    cfg = DeviceConfig.default()
    noise = cfg.native_noise(include_cross_kerr=include_cross_kerr)
    spam = cfg.readout(2) if two_round else None
    depths, seeds = (1, 2, 3, 5, 8, 12), (0, 1, 2, 3)
    reference, interleaved = interleaved_rb(noise, noise.superops["CZ"][None], depths, seeds,
                                            spam=spam)
    assert (reference.interleaved, interleaved.interleaved) == (None, "CZ")
    _assert_records_match(reference, simulate_rb(noise, depths, seeds, spam=spam))
    _assert_records_match(interleaved, _oracle(noise, depths, seeds, noise.superops["CZ"], spam))


def test_reachable_entries_are_closed_under_every_channel_and_native():
    rates = _draw_rates(3, 20260813) + [OPERATING_POINT]
    sampled = [qutrit_gate_channel(r).superop for r in rates]
    rng = np.random.default_rng(11)
    h = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    u = expm(-0.05j * (h + h.conj().T))
    cfg = DeviceConfig.default()
    noisy = [cfg.native_noise(include_cross_kerr=kerr).superops for kerr in (True, False)]
    cases = [(IDEAL_NATIVES, sampled, 25), (IDEAL_NATIVES, [], 16),
             (IDEAL_NATIVES, [np.kron(u.conj(), u)], 81)]
    # the coherence-limited natives and their CZ, as irb runs them
    cases += [(list(sup.values()), [sup["CZ"]], 25) for sup in noisy]
    for natives, channels, size in cases:
        kept = _reachable_entries(natives, channels)
        assert kept[0] == 0 and len(kept) == size
        # rho[b, a] is kept with rho[a, b]: the real coordinates pair them
        cols, rows = np.divmod(kept, 9)
        assert np.array_equal(np.sort(cols + 9 * rows), kept)
        dropped = np.setdiff1d(np.arange(81), kept)
        for superop in channels + natives:
            # nothing flows from a kept entry into a dropped one, so every
            # dropped entry of the propagated state stays exactly zero
            assert not np.any(superop[np.ix_(dropped, kept)])


def _kept_sets():
    """Kept-entry sets of every kind: the sampled channels' 25 (whole
    sector blocks), the ideal CZ's 16, a generic channel's 81 (coherences
    between sectors too) and a codespace with one control-leaked
    population and its coherence with |00> (a partial block)."""
    rates = _draw_rates(3, 20260813) + [OPERATING_POINT]
    sampled = [qutrit_gate_channel(r).superop for r in rates]
    rng = np.random.default_rng(11)
    h = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    u = expm(-0.05j * (h + h.conj().T))
    codespace = np.add.outer(QUBIT_BLOCK, 9 * np.array(QUBIT_BLOCK)).reshape(-1)
    return {"sampled": _reachable_entries(IDEAL_NATIVES, sampled),
            "codespace": _reachable_entries(IDEAL_NATIVES, []),
            "generic": _reachable_entries(IDEAL_NATIVES, [np.kron(u.conj(), u)]),
            "partial": np.sort(np.concatenate([codespace, [6 + 9 * 6, 0 + 9 * 6, 6 + 9 * 0]]))}


@pytest.mark.parametrize("case", ["sampled", "codespace", "generic", "partial"])
def test_coordinates_are_real_and_invert_by_orthogonality(case):
    kept = _kept_sets()[case]
    forward, backward = _coordinates(kept)
    eye = np.eye(len(kept))
    np.testing.assert_allclose(forward @ backward, eye, rtol=0, atol=1e-14)
    np.testing.assert_allclose(backward @ forward, eye, rtol=0, atol=1e-14)
    # a Hermitian rho on the kept entries has real coordinates
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    mask = np.zeros(81, dtype=bool)
    mask[kept] = True
    rho = (a + a.conj().T) * mask.reshape(9, 9, order="F")
    entries = rho.reshape(-1, order="F")[kept]
    x = forward @ entries
    np.testing.assert_allclose(x.imag, 0.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(backward @ x.real, entries, rtol=0, atol=1e-14)
    # the codespace's Pauli strings come first, in pauli_basis order
    block = rho[np.ix_(QUBIT_BLOCK, QUBIT_BLOCK)]
    np.testing.assert_allclose(x[:16], np.einsum("kij,ji->k", _pauli_strings(2), block),
                               rtol=0, atol=1e-13)


def _table_matrices(tables, m):
    """The matrices of the first halves of signed tables: row q holds
    (-1)^s in column p where entry q is p + m s."""
    out = np.zeros((*tables.shape, m))
    np.put_along_axis(out, (tables % m)[..., None],
                      np.where(tables >= m, -1.0, 1.0)[..., None], axis=-1)
    return out


def _native_tables():
    """The 25 sampled-channel entries, and the ideal natives' signed tables
    with their superoperators moved onto those entries' coordinates."""
    kept = _kept_sets()["sampled"]
    forward, backward = _coordinates(kept)
    maps = np.array([forward @ s[np.ix_(kept, kept)] @ backward for s in IDEAL_NATIVES])
    return kept, maps, _signed_tables(maps)


def test_ideal_native_tables_are_their_superoperators_on_the_coordinates():
    kept, maps, tables = _native_tables()
    m = len(kept)
    assert tables.shape == (len(IDEAL_NATIVES), 2 * m)
    np.testing.assert_allclose(_table_matrices(tables[:, :m], m), maps, rtol=0, atol=1e-12)
    assert np.array_equal(tables[:, m:], (tables[:, :m] + m) % (2 * m))
    # a noisy X(pi/2) leaks and dephases: no signed permutation
    forward, backward = _coordinates(kept)
    noisy = DeviceConfig.default().native_noise(include_cross_kerr=True).superops["X90_c"]
    with pytest.raises(ValueError, match="not a signed permutation"):
        _signed_tables((forward @ noisy[np.ix_(kept, kept)] @ backward)[None])


def test_composed_word_tables_match_the_group_and_the_leaked_qubit():
    group = generate_clifford_group(2)
    kept, _, tables = _native_tables()
    m = len(kept)
    composed = _clifford_tables(group, tables, np.arange(len(group)))
    # codespace: the group's entry p is q + 16 s when u P_p u^dag =
    # (-1)^s P_q, so the coordinates move as x'_q = (-1)^s x_p
    images = group.tables[:, :16].astype(int)
    expected = np.empty_like(images)
    np.put_along_axis(expected, images % 16, np.arange(16) + m * (images // 16), axis=1)
    np.testing.assert_array_equal(composed[:, :16], expected)
    # target leaked (the control qubit) and control leaked (the target
    # qubit): the other qubit runs the product of its own side's natives
    gates = generate_clifford_group(1).gateset
    paulis = _pauli_strings(1)
    for side, first in (("_c", 16), ("_t", 20)):
        units = []
        for word in group.words:
            u = np.eye(2, dtype=complex)
            for gate in word:
                if gate.endswith(side):
                    u = gates[gate[:-2]] @ u
            units.append(u)
        u = np.array(units)[:, None]
        moved = u @ paulis @ np.swapaxes(u.conj(), -1, -2)
        overlaps = np.einsum("qji,epij->eqp", paulis, moved).real / 2  # tr(P_q u P_p u^dag)/2
        sector = slice(first, first + 4)
        np.testing.assert_allclose(_table_matrices(composed[:, sector], m)[:, :, sector],
                                   overlaps, rtol=0, atol=1e-12)
    assert np.all(composed[:, 24] == 24)  # both leaked: a scalar, untouched


def test_batched_pass_depolarizing_survival_is_exact():
    p = 0.98
    depths = (1, 2, 4, 8)
    _, record = interleaved_rb(None, depolarizing_cz_channel(p)[None], depths, (0, 1, 2))
    for i, depth in enumerate(depths):
        np.testing.assert_allclose(record.postselected[i],
                                   0.75 * p ** depth + 0.25, rtol=0, atol=1e-12)


def test_irb_accuracy_study_finds_one_recovery_per_sequence(monkeypatch):
    calls = []
    inverse_of = CliffordGroup.inverse_of

    def counted(self, tables):
        calls.append(np.shape(tables)[:-1])
        return inverse_of(self, tables)

    monkeypatch.setattr(CliffordGroup, "inverse_of", counted)
    irb_accuracy_study(OPERATING_POINT, n_samples=3, seed=20260813)
    # 120 sequences (6 depths, 20 seeds), each recovered once without CZ
    # (the reference) and once with it (all four channels), in one lookup
    # per depth
    assert len(calls) == 6
    assert sum(math.prod(shape) for shape in calls) == 240


@pytest.mark.parametrize("run, match", [
    pytest.param(lambda: simulate_rb(NativeGateNoise.ideal(), (1.7, 2.2), (0,)),
                 "depths must be integers", id="rb-fractional-depths"),
    pytest.param(lambda: simulate_rb(NativeGateNoise.ideal(), (1, 2), (0.9,)),
                 "seeds must be integers", id="rb-fractional-seed"),
    pytest.param(lambda: simulate_rb(NativeGateNoise.ideal(), (True, 2), (0,)),
                 "depths must be integers", id="rb-bool-depth"),
    pytest.param(lambda: interleaved_rb(None, _CZ[None], (1.7, 2.2), (0,)),
                 "depths must be integers", id="irb-fractional-depths"),
    pytest.param(lambda: interleaved_rb(None, _CZ[None], (1, 2), (0.9,)),
                 "seeds must be integers", id="irb-fractional-seed"),
    pytest.param(lambda: interleaved_rb(None, _CZ[None], (True, 2), (0,)),
                 "depths must be integers", id="irb-bool-depth"),
    pytest.param(lambda: interleaved_rb(None, _CZ[None], (1, 2), (False,)),
                 "seeds must be integers", id="irb-bool-seed"),
    pytest.param(lambda: irb_accuracy_study(OPERATING_POINT, n_samples=2.5, seed=20260813),
                 "n_samples must be an integer", id="irb-accuracy-fractional-samples"),
    pytest.param(lambda: irb_accuracy_study(OPERATING_POINT, n_samples=3.0, seed=20260813),
                 "n_samples must be an integer", id="irb-accuracy-float-samples"),
    pytest.param(lambda: irb_accuracy_study(OPERATING_POINT, n_samples=True, seed=20260813),
                 "n_samples must be an integer", id="irb-accuracy-bool-samples"),
    pytest.param(lambda: simulate_bitflip_protocol("0", True, spam=None,
                                                   noise=NativeGateNoise.ideal()),
                 "n_gates must be an integer", id="bitflip-bool-count"),
    pytest.param(lambda: simulate_bitflip_protocol("0", 2.5, spam=None,
                                                   noise=NativeGateNoise.ideal()),
                 "n_gates must be an integer", id="bitflip-fractional-count"),
])
def test_rb_inputs_refuse_what_is_not_an_integer(run, match):
    # refused, not truncated: int() would run depths (1, 2) and seed 0
    with pytest.raises(ValueError, match=match):
        run()


def test_rb_inputs_take_numpy_integers():
    noise = NativeGateNoise.ideal()
    record = simulate_rb(noise, np.array([1, 2]), np.arange(2))
    assert record.depths == (1, 2) and record.seeds == (0, 1)
    assert all(type(k) is int for k in record.depths + record.seeds)
    for record in interleaved_rb(noise, _CZ[None], np.array([1, 2]), np.arange(2)):
        assert record.depths == (1, 2) and record.seeds == (0, 1)
        assert all(type(k) is int for k in record.depths + record.seeds)
        np.testing.assert_allclose(record.postselected, 1.0, rtol=0, atol=1e-12)
    assert simulate_bitflip_protocol("0", np.int64(3), spam=None, noise=noise).apparent_flip == 0.0


@pytest.mark.parametrize("kwargs, match", [
    (dict(n_samples=1), "n_samples"),
    (dict(n_samples=0), "n_samples"),
])
def test_irb_accuracy_study_validates_inputs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        irb_accuracy_study(OPERATING_POINT, **kwargs, seed=20260813)

