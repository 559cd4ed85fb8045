"""Clifford machinery and randomized benchmarking with erasure postselection.

Cliffords are generated by breadth-first closure over the native gateset
{X(pi/2), Z(+-pi/2), Z(pi), CZ}.  Each is keyed by its signed
Pauli-conjugation table, which fixes it exactly modulo global phase, so
composing, inverting and finding a sequence's recovery are integer table
lookups; each element's word of native gates multiplies out to it.  Noisy
sequences run on one qutrit per qubit (third level = detected leakage);
virtual Z gates are noiseless.  Erasure detection happens once, at the end
of a sequence, and survival is reported both raw and postselected.

The IRB accuracy study runs its ideal Cliffords as 9x9 unitary
conjugations, with every sampled channel and every sequence stacked into
one batched pass and one recovery Clifford computed per sequence.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .channels import QuantumChannel, pauli_basis
from .error_channels import (CZ4, QUBIT_BLOCK, ChannelRates, ReadoutModel, _layered_channel,
                             _leakage_kraus, postselected_fidelity, qutrit_cz,
                             qutrit_dephasing_kraus, qutrit_gate_channel)

__all__ = [
    "CliffordElement",
    "CliffordGroup",
    "generate_clifford_group",
    "NativeGateNoise",
    "embed_block_superop",
    "depolarizing_cz_channel",
    "RBRecord",
    "simulate_rb",
    "LinearFit",
    "fit_linear_fidelity",
    "interleaved_gate_error",
    "fit_exponential",
    "IRBAccuracyResult",
    "irb_accuracy_study",
    "BitflipResult",
    "simulate_bitflip_protocol",
]

_SX = np.array([[0, 1], [1, 0]], dtype=complex)


def _rx90() -> np.ndarray:
    return math.cos(math.pi / 4) * np.eye(2) - 1j * math.sin(math.pi / 4) * _SX


def _rz(theta: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * theta)]).astype(complex)


_ONE_QUBIT_GATES: dict[str, np.ndarray] = {
    "X90": _rx90(),
    "Z90": _rz(math.pi / 2),
    "Z-90": _rz(-math.pi / 2),
    "Z180": _rz(math.pi),
}


def _two_qubit_gateset() -> dict[str, np.ndarray]:
    eye = np.eye(2, dtype=complex)
    gates: dict[str, np.ndarray] = {}
    for name, u in _ONE_QUBIT_GATES.items():
        gates[f"{name}_c"] = np.kron(u, eye)
        gates[f"{name}_t"] = np.kron(eye, u)
    gates["CZ"] = CZ4
    return gates


# A Clifford modulo global phase is fixed by how it conjugates the Paulis,
# signs included.  Its table has one entry per Pauli P_p (pauli_basis
# order): q + 4^n s when u P_p u^dag = (-1)^s P_q.  Composing two Cliffords
# is then indexing one table with the other.

@lru_cache(maxsize=None)
def _paulis(n_qubits: int) -> np.ndarray:
    paulis = np.stack(pauli_basis(n_qubits))
    paulis.setflags(write=False)
    return paulis


def _pauli_table(u: np.ndarray, n_qubits: int) -> tuple[int, ...] | None:
    """The signed Pauli image of unitary u, or None if u is not a Clifford.

    Read from the trace overlaps tr(P_q u P_p u^dag)/d, which are +-1 for
    one q and 0 for the rest exactly when u is a Clifford."""
    paulis = _paulis(n_qubits)
    n, d = paulis.shape[:2]
    images = u @ paulis @ u.conj().T
    overlaps = np.einsum("qji,pij->pq", paulis, images).real / d
    rows = np.arange(n)
    hit = np.argmax(np.abs(overlaps), axis=1)
    negative = overlaps[rows, hit] < 0
    signed = np.zeros_like(overlaps)
    signed[rows, hit] = np.where(negative, -1.0, 1.0)
    if np.max(np.abs(overlaps - signed)) > 1e-6:
        return None
    return tuple(int(q) + n * int(s) for q, s in zip(hit, negative))


def _signed(table: tuple[int, ...]) -> tuple[int, ...]:
    """The table extended to the negated Paulis, so it can be indexed by
    any signed Pauli."""
    n = len(table)
    return table + tuple((k + n) % (2 * n) for k in table)


def _then(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """Table of the Clifford inner followed by outer."""
    return tuple(map(_signed(outer).__getitem__, inner))


def _inverse_table(table: tuple[int, ...]) -> tuple[int, ...]:
    """u P_p u^dag = (-1)^s P_q means u^dag P_q u = (-1)^s P_p."""
    n = len(table)
    inverse = [0] * n
    for p, k in enumerate(table):
        inverse[k % n] = p + k - k % n
    return tuple(inverse)


@dataclass(frozen=True, eq=False, slots=True)
class CliffordElement:
    """Signed Pauli-conjugation table plus one generator word that
    replays to the element."""

    table: tuple[int, ...]
    word: tuple[str, ...]


@dataclass
class CliffordGroup:
    n_qubits: int
    gateset: dict[str, np.ndarray]
    elements: list[CliffordElement]
    inverses: list[int]
    _index: dict[tuple[int, ...], int]

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, u: np.ndarray) -> int:
        """Index of the element equal to u up to global phase."""
        u = np.asarray(u)
        dim = 2 ** self.n_qubits
        if u.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} unitary for the "
                             f"{self.n_qubits}-qubit group, got shape {u.shape}")
        if not np.allclose(u.conj().T @ u, np.eye(dim), rtol=0, atol=1e-6):
            raise ValueError("matrix is not unitary")
        table = _pauli_table(u, self.n_qubits)
        if table not in self._index:
            raise ValueError("unitary is not in the generated Clifford group")
        return self._index[table]

    def inverse_of(self, table: tuple[int, ...]) -> int:
        """Index of the element that undoes the Clifford with this table."""
        return self.inverses[self._index[table]]


_GROUP_CACHE: dict[int, CliffordGroup] = {}


def generate_clifford_group(n_qubits: int) -> CliffordGroup:
    """Breadth-first closure of the native gateset; 24 or 11520 elements.

    The search composes Pauli tables only; the order in which it meets
    the elements fixes which sequence each RB seed draws."""
    if n_qubits not in (1, 2):
        raise ValueError("only 1- or 2-qubit groups are generated")
    if n_qubits in _GROUP_CACHE:
        return _GROUP_CACHE[n_qubits]
    gateset = dict(_ONE_QUBIT_GATES) if n_qubits == 1 else _two_qubit_gateset()
    generators = {name: _signed(_pauli_table(gate, n_qubits)) for name, gate in gateset.items()}

    identity = tuple(range(4 ** n_qubits))
    elements = [CliffordElement(identity, ())]
    index = {identity: 0}
    queue: deque[int] = deque([0])
    while queue:
        base = elements[queue.popleft()]
        for name, generator in generators.items():
            table = tuple(map(generator.__getitem__, base.table))
            if table not in index:
                index[table] = len(elements)
                queue.append(len(elements))
                elements.append(CliffordElement(table, base.word + (name,)))

    inverses = [index[_inverse_table(e.table)] for e in elements]
    group = CliffordGroup(n_qubits=n_qubits, gateset=gateset,
                          elements=elements, inverses=inverses, _index=index)
    _GROUP_CACHE[n_qubits] = group
    return group


# --- native-gate noise ------------------------------------------------------

def _embed_unitary(u: np.ndarray) -> np.ndarray:
    """Act with u on the two-qubit logical block; leaked states idle."""
    out = np.eye(9, dtype=complex)
    out[np.ix_(QUBIT_BLOCK, QUBIT_BLOCK)] = u
    return out


def _embedded_natives() -> dict[str, np.ndarray]:
    """Every ideal native gate as a unitary on two qutrits.

    Single-qubit natives embed as tensor factors so they keep acting when
    the partner qutrit is leaked; CZ idles any leaked state."""
    eye = np.eye(3, dtype=complex)
    natives = {}
    for name, u2 in _ONE_QUBIT_GATES.items():
        u1 = np.eye(3, dtype=complex)
        u1[:2, :2] = u2
        natives[name + "_c"] = np.kron(u1, eye)
        natives[name + "_t"] = np.kron(eye, u1)
    natives["CZ"] = qutrit_cz()
    return natives


def embed_block_superop(s4: np.ndarray) -> np.ndarray:
    """Lift a 16x16 two-qubit superoperator to the two-qutrit space.

    The map acts on the codespace block and leaves every leak-level
    coherence untouched (identity elsewhere)."""
    # column-stacked positions of the codespace block's 16 entries
    entries = np.add.outer(9 * np.asarray(QUBIT_BLOCK), QUBIT_BLOCK).reshape(-1)
    out = np.eye(81, dtype=complex)
    out[np.ix_(entries, entries)] = s4
    return out


def depolarizing_cz_channel(decay: float) -> np.ndarray:
    """Two-qutrit superop of CZ followed by codespace depolarizing.

    decay is the depolarizing-channel eigenvalue on traceless operators,
    which is also the exact RB decay parameter; used as an oracle."""
    eye4 = np.eye(4, dtype=complex)
    dep = decay * np.eye(16, dtype=complex) + (1 - decay) * np.outer(
        eye4.reshape(-1, order="F") / 4.0, eye4.reshape(-1, order="F").conj())
    return embed_block_superop(dep @ QuantumChannel(4, kraus=[CZ4]).superop)


@dataclass
class NativeGateNoise:
    """Superoperators for every native gate on two qutrits (level 2 is the
    detected leak)."""

    superops: dict[str, np.ndarray]

    @classmethod
    def ideal(cls) -> "NativeGateNoise":
        return cls(superops={name: QuantumChannel(9, kraus=[u]).superop
                             for name, u in _embedded_natives().items()})

    @classmethod
    def coherence_limited(cls,
                          cz_rates: ChannelRates,
                          *,
                          x90_durations_us: tuple[float, float],
                          rail_t1_us: tuple[tuple[float, float], tuple[float, float]],
                          ramsey_tphi_us: tuple[float, float],
                          cross_kerr: float,
                          include_cross_kerr: bool = True) -> "NativeGateNoise":
        """Two-qubit natives with coherence-limited X(pi/2) pulses.

        Each X(pi/2) composes the ideal rotation with photon-loss leakage at
        the average rail rate and pure dephasing at the dual-rail Ramsey
        rate, over that qubit's pulse duration; the always-on cross-Kerr
        adds a deterministic phase on the |1>_c|0>_t level during the pulse.
        The leakage and dephasing layers are the CZ channel's own, on the
        pulsed qubit only, and compose as `qutrit_gate_channel`'s do.  Z
        rotations are virtual and noiseless; CZ uses the fitted-rate qutrit
        channel.
        Unlike the tensor-factor natives of `ideal`, these X(pi/2) pulses
        act on the two-qubit logical block only, so they idle whenever the
        partner qudit is leaked.  The measured device values come through
        `DeviceConfig.native_noise`.
        """
        sup = dict(cls.ideal().superops)
        for qubit, name in ((0, "X90_c"), (1, "X90_t")):
            t = x90_durations_us[qubit]
            kappa = 0.5 * (1.0 / rail_t1_us[qubit][0] + 1.0 / rail_t1_us[qubit][1])
            p_leak = 1.0 - math.exp(-kappa * t)
            p_z = [0.0, 0.0]
            p_z[qubit] = 0.5 * (1.0 - math.exp(-t / ramsey_tphi_us[qubit]))
            dephasing = ChannelRates(p_leak_control=0.0, p_leak_target=0.0,
                                     p_z_control=p_z[0], p_z_target=p_z[1])
            u = _embed_unitary(_two_qubit_gateset()[name])
            if include_cross_kerr:
                phase = np.ones(9, dtype=complex)
                phase[3 * 1 + 0] = np.exp(-1j * cross_kerr * t)
                u = np.diag(phase) @ u
            sup[name] = _layered_channel(u, _leakage_kraus(p_leak, qubit, correlated=False),
                                         qutrit_dephasing_kraus(dephasing)).superop
        sup["CZ"] = qutrit_gate_channel(cz_rates).superop
        return cls(superops=sup)

    def replace(self, **gates: np.ndarray | QuantumChannel) -> "NativeGateNoise":
        sup = dict(self.superops)
        for name, value in gates.items():
            sup[name] = value.superop if isinstance(value, QuantumChannel) else value
        return NativeGateNoise(superops=sup)


# --- randomized benchmarking -------------------------------------------------

@dataclass
class RBRecord:
    depths: tuple[int, ...]
    seeds: tuple[int, ...]
    raw: np.ndarray            # [n_depths, n_seeds]
    postselected: np.ndarray
    kept_fraction: np.ndarray
    interleaved: str | None = None

    def mean_raw(self) -> np.ndarray:
        return self.raw.mean(axis=1)

    def mean_postselected(self) -> np.ndarray:
        return self.postselected.mean(axis=1)

    def mean_kept(self) -> np.ndarray:
        return self.kept_fraction.mean(axis=1)


def _sequence_indices(group_size: int, depth: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, depth])
    return rng.integers(0, group_size, size=depth)


def _sequence_with_recovery(group: CliffordGroup, depth: int, seed: int,
                            interleave: int | None = None
                            ) -> tuple[np.ndarray, int]:
    """The seed's Clifford indices and the index of the recovery Clifford.

    The recovery inverts the ideal net Clifford of the sequence, with group
    element interleave (if given) after every Clifford; the net Clifford
    is tracked as a Pauli table."""
    indices = _sequence_indices(len(group), depth, seed)
    net = group.elements[0].table
    for idx in indices:
        net = _then(group.elements[idx].table, net)
        if interleave is not None:
            net = _then(group.elements[interleave].table, net)
    return indices, group.inverse_of(net)


def _readout_stats(rho_vec: np.ndarray, spam: ReadoutModel | None) -> tuple[float, float]:
    """(survival of |00> assignment, kept fraction) from the final state."""
    probs = np.clip(np.real(np.diag(rho_vec.reshape(9, 9, order="F"))), 0.0, None)
    observed = _confusion(spam, 0).T @ probs.reshape(3, 3) @ _confusion(spam, 1)
    return float(observed[0, 0]), float(observed[:2, :2].sum())


def _confusion(spam: ReadoutModel | None, qubit: int) -> np.ndarray:
    return np.eye(3) if spam is None else spam.confusion_matrix(qubit)


def simulate_rb(noise: NativeGateNoise,
                depths: Sequence[int],
                seeds: Sequence[int],
                *,
                interleave: str | None = None,
                interleave_unitary: np.ndarray | None = None,
                spam: ReadoutModel | None = None) -> RBRecord:
    """Erasure-aware randomized benchmarking with exact outcome statistics.

    Each (depth, seed) pair draws its Clifford sequence deterministically,
    composes the per-native-gate channels, appends the recovery Clifford,
    and reads out through the confusion matrices at the end only.  With
    interleave set (e.g. "CZ"), that gate's channel follows every
    Clifford; interleave_unitary supplies the ideal action when the name
    is a dedicated channel rather than a member of the gateset, and must
    equal the native's (up to global phase) when it is one.
    """
    depths = tuple(int(d) for d in depths)
    seeds = tuple(int(s) for s in seeds)
    if not depths or min(depths) < 1:
        raise ValueError("depths must be positive")
    if not seeds:
        raise ValueError("at least one seed is required")
    group = generate_clifford_group(2)
    if interleave is not None:
        if interleave not in noise.superops:
            raise ValueError(f"unknown interleaved gate {interleave!r}")
        native = group.gateset.get(interleave)
        if interleave_unitary is None:
            if native is None:
                raise ValueError(f"interleaved gate {interleave!r} is not native: "
                                 "pass its ideal action as interleave_unitary")
            interleave_unitary = native
        elif native is not None and group.index_of(interleave_unitary) != group.index_of(native):
            raise ValueError(f"interleave_unitary is not the ideal action of the "
                             f"native gate {interleave!r}")
        interleave_index = group.index_of(interleave_unitary)
    elif interleave_unitary is not None:
        raise ValueError("interleave_unitary needs interleave, the name of its channel")
    else:
        interleave_index = None

    vec0 = np.zeros(81, dtype=complex)
    vec0[0] = 1.0  # |00><00|

    raw = np.zeros((len(depths), len(seeds)))
    post = np.zeros_like(raw)
    kept_arr = np.zeros_like(raw)
    for i, depth in enumerate(depths):
        for j, seed in enumerate(seeds):
            indices, recovery = _sequence_with_recovery(
                group, depth, seed, interleave_index)
            vec = vec0
            for idx in indices:
                for gate in group.elements[idx].word:
                    vec = noise.superops[gate] @ vec
                if interleave is not None:
                    vec = noise.superops[interleave] @ vec
            for gate in group.elements[recovery].word:
                vec = noise.superops[gate] @ vec
            survival, kept = _readout_stats(vec, spam)
            raw[i, j] = survival
            kept_arr[i, j] = kept
            post[i, j] = survival / kept if kept > 0 else 0.0
    return RBRecord(depths=depths, seeds=seeds, raw=raw, postselected=post,
                    kept_fraction=kept_arr, interleaved=interleave)


# --- estimators --------------------------------------------------------------

@dataclass
class LinearFit:
    slope: float
    intercept: float
    error_rate: float


def fit_linear_fidelity(record: RBRecord) -> LinearFit:
    """Short-depth linear fit of the postselected survival.

    The error per Clifford is |slope|: for survival A*p^N + B, the
    short-depth expansion gives A(1-N(1-p)), and with the fixed asymptote
    the per-step error equals the magnitude of the linear slope.
    """
    if len(record.depths) < 3:
        raise ValueError("need at least three depths for a linear fit")
    y = record.mean_postselected()
    slope, intercept = np.polyfit(np.asarray(record.depths, dtype=float), y, 1)
    return LinearFit(slope=float(slope), intercept=float(intercept),
                     error_rate=float(abs(slope)))


def interleaved_gate_error(reference: LinearFit, interleaved: LinearFit) -> float:
    """Interleaved-RB gate error from the two short-depth slopes."""
    m_r, m_i = abs(reference.slope), abs(interleaved.slope)
    return 0.75 * (m_i - m_r) / (0.75 - m_r)


def fit_exponential(record: RBRecord) -> tuple[float, float, float, float]:
    """(p, A, B, sigma_p) from survival = A p^N + B."""
    from scipy.optimize import curve_fit  # here, so `import drcz` skips scipy.optimize

    x = np.asarray(record.depths, dtype=float)
    y = record.mean_postselected()

    def model(n, p, a, b):
        return a * np.power(p, n) + b

    p0 = (0.99, 0.75, 0.25)
    popt, pcov = curve_fit(model, x, y, p0=p0, maxfev=20000)
    sigma = float(np.sqrt(max(pcov[0, 0], 0.0)))
    return float(popt[0]), float(popt[1]), float(popt[2]), sigma


# --- IRB accuracy study ------------------------------------------------------

@dataclass
class IRBAccuracyResult:
    true_infidelity: np.ndarray
    inferred_infidelity: np.ndarray
    slope: float
    offset: float
    operating_point: tuple[float, float]

    @property
    def underestimate_at_operating_point(self) -> float:
        true_r, inferred_r = self.operating_point
        return 1.0 - inferred_r / true_r


# the uniform ranges the study draws its per-gate rates from
RATE_RANGES: dict[str, tuple[float, float]] = {
    "p_z": (1e-4, 2e-3),
    "p_zz": (5e-5, 2e-4),
    "p_leak": (1e-4, 4e-3),
}


def _draw_rates(n_samples: int, seed: int) -> list[ChannelRates]:
    rng = np.random.default_rng(seed)
    return [ChannelRates(p_leak_control=rng.uniform(*RATE_RANGES["p_leak"]),
                         p_leak_target=rng.uniform(*RATE_RANGES["p_leak"]),
                         p_z_control=rng.uniform(*RATE_RANGES["p_z"]),
                         p_z_target=rng.uniform(*RATE_RANGES["p_z"]),
                         p_zz=rng.uniform(*RATE_RANGES["p_zz"]))
            for _ in range(n_samples)]


def _interleaved_ideal_rb(superops: np.ndarray,
                          depths: Sequence[int],
                          seeds: Sequence[int],
                          group: CliffordGroup) -> list[RBRecord]:
    """Two-qutrit RB with ideal Cliffords and one interleaved channel each.

    Returns, per 81x81 channel superoperator (a stack, or a list of
    them), the record that simulate_rb gives for ideal natives with that
    channel interleaved as CZ.  All channels share the same sequences, so
    the states of one depth are one (channels, seeds, 9, 9) stack: each
    Clifford is a broadcast 9x9 conjugation by the product of its word's
    embedded natives (the word fixes how the leak levels idle), each
    interleaved slot is one stacked matmul, and the recovery is found
    once per sequence.
    """
    superops = np.asarray(superops)
    natives = _embedded_natives()
    cz = group.index_of(CZ4)

    def conj_clifford(idx: int) -> np.ndarray:
        u = np.eye(9, dtype=complex)
        for gate in group.elements[idx].word:
            u = natives[gate] @ u
        return u.conj()

    def conjugate(states: np.ndarray, spare: np.ndarray, indices: Iterable[int]) -> None:
        v = np.stack([conj_clifford(idx) for idx in indices])
        np.matmul(v, states, out=spare)
        np.matmul(spare, v.conj().transpose(0, 2, 1), out=states)

    # Each state is held transposed, so that its row-major entries are
    # the column-stacked vector the superoperators act on; rho -> U rho U^dag
    # is then rho^T -> conj(U) rho^T U^T.  Two buffers are reused throughout.
    n_chan, n_seeds = len(superops), len(seeds)
    states = np.empty((n_chan, n_seeds, 9, 9), dtype=complex)
    spare = np.empty_like(states)
    raw = np.zeros((n_chan, len(depths), n_seeds))
    kept = np.zeros_like(raw)
    for i, depth in enumerate(depths):
        drawn = [_sequence_with_recovery(group, depth, seed, cz) for seed in seeds]
        states[:] = 0.0
        states[:, :, 0, 0] = 1.0
        for step in range(depth):
            conjugate(states, spare, [indices[step] for indices, _ in drawn])
            np.matmul(states.reshape(n_chan, n_seeds, 81), superops.transpose(0, 2, 1),
                      out=spare.reshape(n_chan, n_seeds, 81))
            states, spare = spare, states
        conjugate(states, spare, [recovery for _, recovery in drawn])
        table = np.clip(np.diagonal(states, axis1=2, axis2=3).real, 0.0, None)
        table = table.reshape(n_chan, n_seeds, 3, 3)
        raw[:, i] = table[:, :, 0, 0]
        kept[:, i] = table[:, :, :2, :2].sum(axis=(2, 3))
    post = np.divide(raw, kept, out=np.zeros_like(raw), where=kept > 0)
    return [RBRecord(depths=tuple(depths), seeds=tuple(seeds), raw=raw[c],
                     postselected=post[c], kept_fraction=kept[c],
                     interleaved="CZ_sampled")
            for c in range(n_chan)]


def irb_accuracy_study(operating_point: ChannelRates,
                       n_samples: int = 120,
                       *,
                       seed: int = 20260813,
                       depths: Sequence[int] = (1, 2, 3, 5, 8, 12),
                       sequence_seeds: Sequence[int] = tuple(range(20))) -> IRBAccuracyResult:
    """Interleaved-RB inferred error versus entanglement infidelity.

    Dephasing and leakage rates are drawn uniformly from RATE_RANGES;
    every sample, and the device's operating point, is benchmarked on the
    same fixed random gate sequences.  The Cliffords themselves are ideal
    and the sampled channel rides only on the interleaved slot, so the
    reference slope vanishes and the study isolates the entangling gate.
    The reference is one simulate_rb run; the samples and the operating
    point run as one batched pass in which each Clifford is a 9x9 unitary
    conjugation and each sequence's recovery is computed once.  The true
    value is the postselected entanglement infidelity of the channel; the
    operating point takes no part in the slope fit.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 for the slope fit, got {n_samples}")
    samples = _draw_rates(n_samples, seed) + [operating_point]
    depths = tuple(int(d) for d in depths)
    sequence_seeds = tuple(int(s) for s in sequence_seeds)
    group = generate_clifford_group(2)
    reference_fit = fit_linear_fidelity(
        simulate_rb(NativeGateNoise.ideal(), depths, sequence_seeds))

    # One channel object at a time: only its superoperator is kept.
    superops = np.empty((len(samples), 81, 81), dtype=complex)
    true_vals = []
    for k, rates in enumerate(samples):
        channel = qutrit_gate_channel(rates)
        superops[k] = channel.superop
        true_vals.append(1.0 - postselected_fidelity(channel, CZ4))
    records = _interleaved_ideal_rb(superops, depths, sequence_seeds, group)
    inferred_vals = [interleaved_gate_error(reference_fit, fit_linear_fidelity(record))
                     for record in records]

    true_arr = np.array(true_vals[:-1])
    inf_arr = np.array(inferred_vals[:-1])
    slope, offset = np.polyfit(true_arr, inf_arr, 1)
    return IRBAccuracyResult(true_infidelity=true_arr,
                             inferred_infidelity=inf_arr,
                             slope=float(slope), offset=float(offset),
                             operating_point=(true_vals[-1], inferred_vals[-1]))


# --- bit-flip protocol -------------------------------------------------------

@dataclass
class BitflipResult:
    n_gates: int
    apparent_flip: float

    @property
    def per_gate(self) -> float:
        return self.apparent_flip / self.n_gates if self.n_gates else math.nan


def simulate_bitflip_protocol(initial: str,
                              n_gates: int,
                              *,
                              spam: ReadoutModel | None = None,
                              noise: NativeGateNoise) -> BitflipResult:
    """Apparent logical bit-flip fraction of an idling basis state.

    The control qubit is the spectator and holds |initial>; the target
    runs a Ramsey pair of X(pi/2) pulses around n_gates CZ applications.
    The returned fraction is the probability that readout assigns the
    control to the opposite basis state.  The gate never transfers
    population between the two rails, so with perfect readout the fraction
    is exactly zero; with confusion it is dominated by undetected leakage
    and misassignment.
    """
    if initial not in ("0", "1"):
        raise ValueError("initial state must be '0' or '1'")
    if n_gates < 0:
        raise ValueError(f"n_gates must be non-negative, got {n_gates}")
    level = int(initial)
    rho = np.zeros((9, 9), dtype=complex)
    rho[3 * level, 3 * level] = 1.0
    vec = rho.reshape(-1, order="F")
    vec = noise.superops["X90_t"] @ vec
    for _ in range(n_gates):
        vec = noise.superops["CZ"] @ vec
    vec = noise.superops["X90_t"] @ vec

    probs = np.clip(np.real(np.diag(vec.reshape(9, 9, order="F"))), 0.0, None)
    marginal = probs.reshape(3, 3).sum(axis=1)
    observed = marginal @ _confusion(spam, 0)
    flipped = observed[1 - level]
    return BitflipResult(n_gates=n_gates, apparent_flip=float(flipped))
