"""Analytic error channels for the dual-rail controlled-Z gate.

Two-qubit channels live on the 4-dim logical space; leakage models live on
a two-qutrit space where level |2> is the detected leaked state of each
dual-rail qubit (|0> = |0_L>, |1> = |1_L>).  Every two-qutrit gate
channel, the CZ here and the randomized-benchmarking X(pi/2) natives, is
a unitary followed by validated Kraus layers (dephasing, leakage) that
multiply as 81x81 superoperators.  For many rate sets at once, the CZ
channel is also built in closed form as one (K, 81, 81) stack, which
`postselected_fidelity` takes as it is.  CZ(phi) puts e^{+i phi} on |11>;
this sign fixes the imaginary cross terms below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channels import TP_TOL, QuantumChannel, _superop_from_kraus, pauli_basis

__all__ = [
    "ChannelRates",
    "ReadoutModel",
    "leakage_averaged_channel",
    "leakage_averaged_coefficients",
    "leaked_partner_channel",
    "qutrit_cz",
    "qutrit_dephasing_kraus",
    "embed_qubit_operator",
    "qutrit_gate_channel",
    "full_gate_channel",
    "no_jump_kraus",
    "nojump_evolve",
    "echo_cancellation_check",
    "postselected_fidelity",
    "QUBIT_BLOCK",
]

CZ4 = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
# two-qutrit basis |ij> with i,j in {0,1,2}; the logical block is i,j < 2
QUBIT_BLOCK = [0, 1, 3, 4]
# single-qubit preparations of process tomography and the fidelity expansion
PREP_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "+i": np.array([1, 1j], dtype=complex) / math.sqrt(2),
}


def leakage_averaged_coefficients() -> np.ndarray:
    """Coefficients c_mn of sum_mn c_mn B_m rho B_n over B = (I, CZ).

    Uniform average of CZ(phi) conjugation over phi in [0, pi]:
    diagonal (1/2, 1/2), cross terms +/- i/pi.  (A widely misquoted
    constant for the cross term is 4/(3 pi); direct quadrature gives
    1/pi, which the tests enforce.)
    """
    c = 1j / math.pi
    return np.array([[0.5, c], [-c, 0.5]], dtype=complex)


def _two_operator_superop(coeff: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    d = ops[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for m in range(len(ops)):
        for n in range(len(ops)):
            # vec(B_m rho B_n) = (B_n^T kron B_m) vec(rho)
            s += coeff[m, n] * np.kron(ops[n].T, ops[m])
    return s


def leakage_averaged_channel() -> QuantumChannel:
    """Two-qubit channel seen by the codespace when the control photon is
    lost at a uniformly random point of its phase orbit."""
    s = _two_operator_superop(leakage_averaged_coefficients(),
                              [np.eye(4, dtype=complex), CZ4])
    return QuantumChannel(4, superop=s)


def leaked_partner_channel() -> QuantumChannel:
    """Single-qubit restriction onto the unleaked partner: half-applied Z."""
    z = np.diag([1.0, -1.0]).astype(complex)
    s = _two_operator_superop(leakage_averaged_coefficients(),
                              [np.eye(2, dtype=complex), z])
    return QuantumChannel(2, superop=s)


# --- qutrit leakage models ---------------------------------------------


@dataclass(frozen=True)
class ChannelRates:
    """Per-gate error probabilities of the digitized gate channel."""

    p_leak_control: float
    p_leak_target: float
    p_z_control: float
    p_z_target: float
    p_zz: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_leak_control", "p_leak_target", "p_z_control",
                     "p_z_target", "p_zz"):
            v = getattr(self, name)
            try:
                valid = 0.0 <= v <= 1.0
            except TypeError:  # not a number
                valid = False
            if not valid:
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")
        # the no-dephasing weight, as qutrit_dephasing_kraus computes it
        if 1.0 - self.p_z_control - self.p_z_target - self.p_zz < 0.0:
            raise ValueError("dephasing probabilities exceed 1")


def qutrit_cz() -> np.ndarray:
    u = np.eye(9, dtype=complex)
    u[4, 4] = -1.0  # |11>
    return u


def _k3() -> np.ndarray:
    # exp(-i pi lambda3 / 2): Z on the qubit block, unit phase on |2>
    return np.diag([-1j, 1j, 1.0]).astype(complex)


def qutrit_dephasing_kraus(rates: ChannelRates) -> list[np.ndarray]:
    k3 = _k3()
    i3 = np.eye(3, dtype=complex)
    p0 = 1.0 - rates.p_z_control - rates.p_z_target - rates.p_zz
    return [math.sqrt(p0) * np.eye(9, dtype=complex),
            math.sqrt(rates.p_z_control) * np.kron(k3, i3),
            math.sqrt(rates.p_z_target) * np.kron(i3, k3),
            math.sqrt(rates.p_zz) * np.kron(k3, k3)]


def _leak_jumps(qubit: int) -> list[np.ndarray]:
    """Orthogonal jump branches |2><i| on one qutrit (TP split of the
    all-to-leaked jump; a single summed operator would not be CPTP)."""
    i3 = np.eye(3, dtype=complex)
    jumps = []
    for i in range(3):
        j = np.zeros((3, 3), dtype=complex)
        j[2, i] = 1.0
        jumps.append(np.kron(j, i3) if qubit == 0 else np.kron(i3, j))
    return jumps


def _leakage_kraus(p: float, qubit: int, *, correlated: bool) -> list[np.ndarray]:
    ops = [math.sqrt(1.0 - p) * np.eye(9, dtype=complex)]
    if p == 0.0:
        return [np.eye(9, dtype=complex)]
    cz9 = qutrit_cz()
    for j in _leak_jumps(qubit):
        if correlated:
            # leak happened mid-orbit: carry the 50/50 CZ correlation
            ops.append(math.sqrt(p / 2.0) * j)
            ops.append(math.sqrt(p / 2.0) * (j @ cz9))
        else:
            ops.append(math.sqrt(p) * j)
    return ops


def _layered_channel(unitary: np.ndarray, *layers: list[np.ndarray]) -> QuantumChannel:
    """The unitary, then each Kraus layer in turn, as one superoperator.

    Each layer is checked CPTP on its own, so their product is CPTP."""
    chan = QuantumChannel(9, kraus=[unitary])
    for kraus in layers:
        chan = QuantumChannel(9, kraus=kraus).compose(chan)
    return chan


def qutrit_gate_channel(rates: ChannelRates) -> QuantumChannel:
    """CZ, then dephasing, then target leakage, then control leakage."""
    return _layered_channel(qutrit_cz(), qutrit_dephasing_kraus(rates),
                            _leakage_kraus(rates.p_leak_target, 1, correlated=False),
                            _leakage_kraus(rates.p_leak_control, 0, correlated=False))


@lru_cache(maxsize=None)
def _gate_channel_parts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of qutrit_gate_channel that no rate changes.

    (cz, phases, jumps), each read-only: the CZ conjugation and the
    dephasing's four unitary conjugations (identity, Z_c, Z_t, Z_c Z_t) as
    the diagonals of their column-stacked superoperators, (81,) and
    (4, 81); and the leak layers' superoperators I, J_c, J_t and J_c J_t,
    flattened to (4, 6561), where J_q sums kron(conj(j), j) over
    _leak_jumps(q) and is real."""
    def conjugation(u: np.ndarray) -> np.ndarray:
        return np.kron(u.conj(), u)  # diag of kron(conj(U), U) for U = diag(u)

    k3, i3 = np.diag(_k3()), np.ones(3, dtype=complex)
    cz = conjugation(np.diag(qutrit_cz()))
    phases = np.array([conjugation(np.kron(a, b)) for a, b in
                       ((i3, i3), (k3, i3), (i3, k3), (k3, k3))])
    j_c, j_t = (_superop_from_kraus(np.array(_leak_jumps(q))).real for q in (0, 1))
    jumps = np.array([np.eye(81), j_c, j_t, j_c @ j_t], dtype=complex).reshape(4, -1)
    for array in (cz, phases, jumps):
        array.setflags(write=False)
    return cz, phases, jumps


def _check_trace_preserving(superops: np.ndarray) -> None:
    """Refuse a (K, 81, 81) stack that does not preserve the trace: the
    rows of the diagonal entries must sum to vec(I), to TP_TOL."""
    defect = float(np.abs(superops[:, ::10].sum(axis=1) - np.eye(9).reshape(-1)).max())
    if defect > TP_TOL:
        raise ValueError(f"gate channel stack is not trace-preserving: defect {defect:.3e}")


def _gate_channel_stack(rates: Sequence[ChannelRates], out: np.ndarray) -> np.ndarray:
    """qutrit_gate_channel's superoperator for every rate set, written
    into out, a C-contiguous (K, 81, 81) complex array, and returned.

    CZ and dephasing are diagonal: d = cz (p0 + p_zc z_c + p_zt z_t +
    p_zz z_zz).  The two leak layers multiply out to
    (1-pc)(1-pt) I + pc(1-pt) J_c + (1-pc)pt J_t + pc pt J_c J_t, so each
    superoperator is that real combination with its columns scaled by d.
    Every weight is a product of probabilities (ChannelRates refuses a
    negative p0), so the stack is CP by construction; it is checked
    trace-preserving as a whole."""
    weights = np.array([(1.0 - r.p_z_control - r.p_z_target - r.p_zz, r.p_z_control,
                         r.p_z_target, r.p_zz, r.p_leak_control, r.p_leak_target)
                        for r in rates]).reshape(-1, 6)
    cz, phases, jumps = _gate_channel_parts()
    pc, pt = weights[:, 4:].T
    leaks = np.stack([(1.0 - pc) * (1.0 - pt), pc * (1.0 - pt), (1.0 - pc) * pt, pc * pt], axis=1)
    if out.shape != (len(weights), 81, 81) or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex ({len(weights)}, 81, 81) array")
    np.matmul(leaks.astype(complex), jumps, out=out.reshape(len(weights), -1))
    out *= ((weights[:, :4] @ phases) * cz)[:, None, :]
    _check_trace_preserving(out)
    return out


def full_gate_channel(rates: ChannelRates) -> QuantumChannel:
    """As qutrit_gate_channel but each leakage jump carries the digitized
    CZ correlation of a mid-gate leak."""
    return _layered_channel(qutrit_cz(), qutrit_dephasing_kraus(rates),
                            _leakage_kraus(rates.p_leak_target, 1, correlated=True),
                            _leakage_kraus(rates.p_leak_control, 0, correlated=True))


# --- no-jump backaction --------------------------------------------------


def no_jump_kraus(p_loss_a1: float, p_loss_c: float) -> tuple[np.ndarray, float]:
    """Kraus operator of surviving the gate without a photon jump.

    The control's |0_L> photon idles with loss probability p_loss_a1; its
    |1_L> photon transits the coupler with loss probability p_loss_c.  The
    conditional (no-jump) evolution tilts the qubit by the imbalance;
    epsilon = (p_a1 - p_c)^2 / 4 is the standard small-imbalance error
    estimate for that tilt.
    """
    for name, p in (("p_loss_a1", p_loss_a1), ("p_loss_c", p_loss_c)):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {p}")
    op = np.diag([math.sqrt(1.0 - p_loss_a1), math.sqrt(1.0 - p_loss_c)]).astype(complex)
    eps = (p_loss_a1 - p_loss_c) ** 2 / 4.0
    return op, eps


def nojump_evolve(rho: np.ndarray, rates: tuple[float, float], t: float) -> np.ndarray:
    """Unnormalized no-jump evolution: rho_ij -> rho_ij e^{-(k_i+k_j)t/2}."""
    k = np.asarray(rates, dtype=float)
    factors = np.exp(-np.add.outer(k, k) * t / 2.0)
    return np.asarray(rho, dtype=complex) * factors


def echo_cancellation_check(kappa: float, tau: float, *, asymmetry: float) -> float:
    """Residual distortion of |+><+| under the no-jump evolution with a
    mid-time X echo.

    kappa is the pair-averaged loss rate; internally the two levels decay
    at kappa*(1 -/+ asymmetry).  With the echo (X at tau/2, undone at tau)
    every entry scales by exactly e^{-kappa*tau}, so the normalized output
    equals the input to machine precision for any asymmetry; without it
    (`nojump_evolve` over the whole of tau) the state polarizes toward
    the less-lossy level.  Returns ||rho_out/Tr(rho_out) - rho_in||_F.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    state = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # |+><+|
    rates = (kappa * (1.0 - asymmetry), kappa * (1.0 + asymmetry))
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rho = nojump_evolve(state, rates, tau / 2.0)
    rho = x @ rho @ x
    rho = nojump_evolve(rho, rates, tau / 2.0)
    rho = x @ rho @ x
    return float(np.linalg.norm(rho / np.trace(rho) - state))


# --- postselected entanglement fidelity ----------------------------------


@dataclass(frozen=True)
class ReadoutModel:
    """Dual-rail assignment statistics, (control, target) pairs; the
    measured ones come from `DeviceConfig.readout`.

    misassignment: P(logical bit read flipped) within the codespace;
    leak_detection_error: P(a leaked qubit is assigned to the codespace);
    erasure_assignment: P(a codespace qubit is assigned to erasure).
    """

    misassignment: tuple[float, float]
    leak_detection_error: tuple[float, float]
    erasure_assignment: tuple[float, float]

    def __post_init__(self) -> None:
        for name in ("misassignment", "leak_detection_error", "erasure_assignment"):
            pair = getattr(self, name)
            try:
                valid = len(pair) == 2 and all(0.0 <= p <= 1.0 for p in pair)
            except TypeError:  # not a sequence, or entries that are not numbers
                valid = False
            if not valid:
                raise ValueError(f"{name} must be a (control, target) pair of "
                                 f"probabilities in [0, 1], got {pair!r}")

    @classmethod
    def perfect(cls) -> "ReadoutModel":
        return cls(misassignment=(0.0, 0.0), leak_detection_error=(0.0, 0.0),
                   erasure_assignment=(0.0, 0.0))

    def confusion_matrix(self, qubit: int) -> np.ndarray:
        """Rows: true {0_L, 1_L, leaked}; columns: outcome {0, 1, erasure}."""
        pm = self.misassignment[qubit]
        el = self.leak_detection_error[qubit]
        pe = self.erasure_assignment[qubit]
        return np.array([
            [(1 - pe) * (1 - pm), (1 - pe) * pm, pe],
            [(1 - pe) * pm, (1 - pe) * (1 - pm), pe],
            [el / 2, el / 2, 1 - el],
        ])

    def measurement_operator(self) -> np.ndarray:
        """Codespace-assignment operator M on the two-qutrit space."""
        ms = []
        for q in range(2):
            pe = self.erasure_assignment[q]
            el = self.leak_detection_error[q]
            ms.append(np.diag([math.sqrt(1 - pe), math.sqrt(1 - pe),
                               math.sqrt(el)]).astype(complex))
        return np.kron(ms[0], ms[1])


def embed_qubit_operator(op4: np.ndarray) -> np.ndarray:
    """Place a two-qubit operator in the logical block of the two-qutrit
    space, zero elsewhere."""
    out = np.zeros((9, 9), dtype=complex)
    out[np.ix_(QUBIT_BLOCK, QUBIT_BLOCK)] = op4
    return out


@lru_cache(maxsize=None)
def _fidelity_expansion() -> tuple[np.ndarray, np.ndarray]:
    """The parts of postselected_fidelity that no argument changes.

    (preparations, duals): the 16 product preparation states rho_k of
    PREP_KETS, embedded in the two-qutrit space and column-stacked as the
    columns of an 81x16 array; and the 16 two-qubit operators
    sum_j alpha_kj U_j, where alpha[k, j] expands the Pauli U_j over the
    rho_k.  The rho_k are a fixed basis (condition number 10.4)."""
    kets = np.array([np.kron(a, b) for a in PREP_KETS.values() for b in PREP_KETS.values()])
    states = kets[:, :, None] * kets[:, None, :].conj()
    paulis = pauli_basis(2)
    alpha = np.linalg.solve(states.reshape(16, 16).T, paulis.reshape(16, 16).T)
    duals = np.einsum("kj,jab->kab", alpha, paulis)
    preparations = np.column_stack([embed_qubit_operator(rho).reshape(-1, order="F")
                                    for rho in states])
    for array in (preparations, duals):
        array.setflags(write=False)
    return preparations, duals


def postselected_fidelity(channel: QuantumChannel | np.ndarray, reference: np.ndarray,
                          readout: ReadoutModel | None = None) -> float | np.ndarray:
    """Entanglement fidelity to a two-qubit unitary under postselection.

    F = sum_jk alpha_jk Tr(R U_j R^dag M E(rho_k) M^dag)
        / (d^3 Tr(M E(rho_k) M^dag))
    with U_j the two-qubit Paulis expanded over the 16 product states
    rho_k of {|0>,|1>,|+>,|+i>} per qubit, R the reference, and M the
    codespace-assignment operator.  The channel acts on the 9-dim
    two-qutrit space; all 16 rho_k go through it as one product, and each
    output is contracted with its dual sum_j alpha_kj R U_j R^dag.  Given
    a (K, 81, 81) stack of superoperators instead of a channel, it returns
    the K fidelities as an array.
    """
    if isinstance(channel, QuantumChannel):
        if channel.dim != 9:
            raise ValueError(f"channel must act on the 9-dim two-qutrit space, "
                             f"got dim {channel.dim}")
        superops = channel.superop[None]
    else:
        superops = np.asarray(channel)
        if superops.ndim != 3 or superops.shape[1:] != (81, 81):
            raise ValueError(f"expected a channel or a (K, 81, 81) superoperator stack, "
                             f"got shape {superops.shape}")
    ref = np.asarray(reference, dtype=complex)
    if ref.shape != (4, 4):
        raise ValueError("reference must be a two-qubit unitary")

    preparations, duals = _fidelity_expansion()
    m = (readout or ReadoutModel.perfect()).measurement_operator()
    # column k of a product is vec(E(rho_k)): its row-major reshape is E(rho_k)^T
    outputs = (superops @ preparations).transpose(0, 2, 1).reshape(-1, 16, 9, 9)
    outputs = m @ outputs.transpose(0, 1, 3, 2) @ m.conj().T
    weights = np.trace(outputs, axis1=2, axis2=3)
    if np.any(np.abs(weights) < 1e-15):
        raise ValueError("postselection annihilated a preparation state")
    probes = ref @ duals @ ref.conj().T
    block = outputs[:, :, QUBIT_BLOCK][:, :, :, QUBIT_BLOCK]
    overlaps = np.einsum("kab,ckba->ck", probes, block)
    fidelities = np.real(np.sum(overlaps / (64.0 * weights), axis=1))
    return float(fidelities[0]) if isinstance(channel, QuantumChannel) else fidelities
