"""Channel representations: Kraus, superoperator, chi, Choi."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drcz.channels import (
    ROUNDTRIP_TOL,
    QuantumChannel,
    pauli_basis,
    pauli_labels,
    _superop_from_kraus,
)
from drcz.tomography import simulated_leak_process

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def _superop_from_chi(chi, basis):
    """E(rho) = sum_mn chi_mn B_m rho B_n^dag, written as a superoperator."""
    return sum(chi[m, n] * np.kron(basis[n].conj(), basis[m])
               for m in range(len(basis)) for n in range(len(basis)))


def test_pauli_label_ordering():
    assert pauli_labels(1) == ("I", "X", "Y", "Z")
    two = pauli_labels(2)
    assert len(two) == 16
    # lexicographic product order: first letter is the first tensor factor
    assert two[0] == "II"
    assert two[3] == "IZ"
    assert two[12] == "ZI"
    assert two[15] == "ZZ"


def test_pauli_basis_matches_labels_and_is_orthogonal():
    basis = pauli_basis(2)
    np.testing.assert_allclose(basis[12], np.kron(Z, np.eye(2)), atol=1e-14)
    np.testing.assert_allclose(basis[3], np.kron(np.eye(2), Z), atol=1e-14)
    gram = np.array([[np.trace(a.conj().T @ b) for b in basis] for a in basis])
    np.testing.assert_allclose(gram, 4.0 * np.eye(16), atol=1e-12)


def test_constructor_requires_exactly_one_representation():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="exactly one"):
        QuantumChannel(2, kraus=[eye], superop=np.eye(4))
    with pytest.raises(ValueError, match="exactly one"):
        QuantumChannel(2)
    with pytest.raises(ValueError, match="Kraus operator shape"):
        QuantumChannel(2, kraus=[np.eye(3, dtype=complex)])
    with pytest.raises(ValueError, match=r"Kraus operator shape \(3, 3\) != \(2, 2\)"):
        QuantumChannel(2, kraus=[eye, np.eye(3, dtype=complex)])
    for empty in ([], np.zeros((0, 2, 2), dtype=complex)):
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            QuantumChannel(2, kraus=empty, validate=False)
    with pytest.raises(ValueError, match="superoperator"):
        QuantumChannel(2, superop=np.eye(3))


def test_identity_channel_representations():
    chan = QuantumChannel(2, kraus=[np.eye(2, dtype=complex)])
    np.testing.assert_allclose(chan.superop, np.eye(4), atol=1e-14)
    chi = chan.chi()
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(chi, expected, atol=1e-12)
    np.testing.assert_allclose(chan.completeness, np.eye(chan.dim), rtol=0, atol=1e-9)


def test_depolarizing_channel_chi_diagonal():
    p = 0.12
    kraus = [np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
             np.sqrt(p / 4) * X, np.sqrt(p / 4) * Y, np.sqrt(p / 4) * Z]
    chan = QuantumChannel(2, kraus=kraus)
    np.testing.assert_allclose(np.diag(chan.chi()),
                               [1 - 3 * p / 4, p / 4, p / 4, p / 4], atol=1e-12)
    np.testing.assert_allclose(chan.completeness, np.eye(chan.dim), rtol=0, atol=1e-9)


def test_apply_matches_kraus_sum():
    rng = np.random.default_rng(7)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    norm = np.linalg.eigvalsh(sum(m.conj().T @ m for m in mats)).max()
    kraus = [m / np.sqrt(norm) for m in mats]
    chan = QuantumChannel(2, kraus=kraus)
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    direct = sum(k @ rho @ k.conj().T for k in kraus)
    np.testing.assert_allclose(chan.apply(rho), direct, atol=1e-12)


@pytest.mark.parametrize("d", [2, 9])
def test_superop_from_kraus_equals_the_kron_sum(d):
    rng = np.random.default_rng(d)
    kraus = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(5)]
    want = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus:
        want += np.kron(k.conj(), k)
    assert np.array_equal(_superop_from_kraus(np.array(kraus)), want)


def test_leak_superop_equals_the_kron_sum_at_full_size(table_params):
    chan = simulated_leak_process(table_params, "1")
    kraus = chan.kraus
    assert type(kraus) is np.ndarray and kraus.shape == (1600, 2, 2)
    assert not kraus.flags.writeable
    want = np.zeros((4, 4), dtype=complex)
    for k in kraus:
        want += np.kron(k.conj(), k)
    assert np.array_equal(chan.superop, want)
    for part in ("real", "imag"):
        np.testing.assert_array_equal(np.signbit(getattr(chan.superop, part)),
                                      np.signbit(getattr(want, part)))


def test_representation_round_trips():
    p = 0.3
    kraus = [np.sqrt(1 - p) * np.eye(2, dtype=complex),
             np.sqrt(p) * np.array([[0, 1], [0, 0]], dtype=complex)]
    chan = QuantumChannel(2, kraus=kraus)
    via_superop = QuantumChannel(2, superop=chan.superop)
    via_chi = QuantumChannel(2, superop=_superop_from_chi(chan.chi(), pauli_basis(1)))
    rho = np.array([[0.2, 0.4], [0.4, 0.8]], dtype=complex)
    np.testing.assert_allclose(via_superop.apply(rho), chan.apply(rho), atol=ROUNDTRIP_TOL)
    np.testing.assert_allclose(via_chi.apply(rho), chan.apply(rho), atol=ROUNDTRIP_TOL)
    # Kraus recovered from the Choi decomposition act identically
    rebuilt = QuantumChannel(2, kraus=list(via_superop.kraus))
    np.testing.assert_allclose(rebuilt.superop, chan.superop, atol=ROUNDTRIP_TOL)


def test_cp_and_tp_validation():
    # transpose map: positive but not completely positive
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    with pytest.raises(ValueError, match="not CP"):
        QuantumChannel(2, superop=swap)
    with pytest.raises(ValueError, match="exceeds identity"):
        QuantumChannel(2, kraus=[1.2 * np.eye(2, dtype=complex)])
    # trace-decreasing maps are allowed
    chan = QuantumChannel(2, kraus=[0.5 * np.eye(2, dtype=complex)])
    assert np.max(np.abs(chan.completeness - np.eye(2))) > 1e-9
    assert chan.cp_defect == 0.0


def test_compose_order():
    prep = QuantumChannel(2, kraus=[X])
    measure_z = QuantumChannel(2, kraus=[np.diag([1.0, 0.0]).astype(complex)])
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    flipped_then_projected = measure_z.compose(prep).apply(rho0)
    assert np.trace(flipped_then_projected) == pytest.approx(0.0, abs=1e-14)
    projected_then_flipped = prep.compose(measure_z).apply(rho0)
    assert np.trace(projected_then_flipped) == pytest.approx(1.0)


def test_chi_requires_basis_for_non_qubit_dimension():
    chan = QuantumChannel(3, kraus=[np.eye(3, dtype=complex)])
    with pytest.raises(ValueError, match="operator basis"):
        chan.chi()


@settings(max_examples=25, deadline=None)
@given(phases=st.lists(st.floats(min_value=-3.14, max_value=3.14), min_size=4, max_size=4))
def test_unitary_channels_are_cptp(phases):
    u = np.diag(np.exp(1j * np.array(phases)))
    chan = QuantumChannel(4, kraus=[u])
    np.testing.assert_allclose(chan.completeness, np.eye(chan.dim), rtol=0, atol=1e-9)
    # chi of a unitary channel is rank one
    vals = np.linalg.eigvalsh(chan.chi())
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(vals[:-1] < 1e-9)


def test_cached_pauli_arrays_are_read_only():
    # pauli_basis hands every caller the same cached arrays
    with pytest.raises(ValueError, match="read-only"):
        pauli_basis(2)[1][0, 0] = 5.0
    np.testing.assert_array_equal(pauli_basis(2)[1], np.kron(np.eye(2), X))


def test_a_channel_keeps_private_read_only_copies_of_its_input():
    u = np.diag([1.0, 1j]).astype(complex)
    s = np.kron(u.conj(), u)
    ops = [u, 0 * u]
    stack = np.array(ops)
    by_superop = QuantumChannel(2, superop=s)
    by_kraus = QuantumChannel(2, kraus=[u])
    by_list = QuantumChannel(2, kraus=ops)
    by_stack = QuantumChannel(2, kraus=stack)
    assert by_superop.superop is not s and by_kraus.kraus[0] is not u
    assert by_stack.kraus is not stack
    s[0, 0] = u[0, 0] = stack[0, 0, 0] = 0.5  # the caller's arrays stay the caller's
    ops[1] = np.eye(2)
    ops.append(np.eye(2))
    assert by_superop.superop[0, 0] == by_kraus.kraus[0][0, 0] == 1.0
    for chan in (by_list, by_stack):
        assert chan.kraus.shape == (2, 2, 2)
        assert chan.kraus[0, 0, 0] == 1.0 and not chan.kraus[1].any()
    for chan in (by_superop, by_kraus, by_list, by_stack):
        assert chan.kraus.ndim == 3
        for stored in (chan.superop, chan.kraus, chan.kraus[0]):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 0.5


def _chi_probe_loop(superop, basis):
    """The per-entry chi definition: trace against 4^n x 4^n Pauli probes."""
    d = basis[0].shape[0]
    n = len(basis)
    chi = np.zeros((n, n), dtype=complex)
    for m in range(n):
        for nn in range(n):
            probe = np.kron(basis[nn].conj(), basis[m])
            chi[m, nn] = np.trace(probe.conj().T @ superop) / d**2
    return chi


def _superops_with_signed_zeros(n_qubits, rng):
    d2 = 4 ** n_qubits
    shape = (d2, d2)
    dense = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    real = rng.normal(size=shape) + 0j
    sparse = dense.copy()
    sparse[rng.random(shape) < 0.7] = 0.0
    signed = dense.copy()
    signed.real[rng.random(shape) < 0.5] = -0.0
    signed.imag[rng.random(shape) < 0.5] = -0.0
    zeros = np.zeros(shape, dtype=complex)
    zeros.real[rng.random(shape) < 0.5] = -0.0
    zeros.imag[rng.random(shape) < 0.5] = -0.0
    zeros[rng.random(shape) < 0.1] = 1.0
    return [dense, real, sparse, signed, zeros]


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_chi_matches_the_probe_loop_bit_for_bit(n_qubits):
    rng = np.random.default_rng(20 + n_qubits)
    basis = pauli_basis(n_qubits)
    d = 2 ** n_qubits
    for _ in range(8):
        for superop in _superops_with_signed_zeros(n_qubits, rng):
            chi = QuantumChannel(d, superop=superop, validate=False).chi()
            want = _chi_probe_loop(superop, basis)
            assert np.array_equal(chi, want)
            for part in ("real", "imag"):
                np.testing.assert_array_equal(np.signbit(getattr(chi, part)),
                                              np.signbit(getattr(want, part)))
            back = _superop_from_chi(chi, basis)
            np.testing.assert_allclose(back, superop, rtol=0, atol=ROUNDTRIP_TOL)
