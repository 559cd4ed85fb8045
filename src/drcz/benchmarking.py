"""Clifford machinery and randomized benchmarking with erasure postselection.

Cliffords are generated by breadth-first closure over the native gateset
{X(pi/2), Z(+-pi/2), Z(pi), CZ}.  A group is one read-only int8 array of
signed Pauli-conjugation tables, one row per element, which fix the
elements exactly modulo global phase: composing two is one gather, and an
element is found by one integer key, its images of X and Z on every qubit.
Each element keeps a word of native gates that multiplies out to it.  Noisy
sequences run on one qutrit per qubit (third level = detected leakage);
virtual Z gates are noiseless.  Erasure detection happens once, at the end
of a sequence, and survival is reported both raw and postselected.  Each
depth's sequences are drawn for all seeds at once, and their recoveries
found by whole-array gathers on the group's tables.

Two passes run the sequences.  `simulate_rb` serves `drcz rb`: it steps
each sequence alone with one 81x81 matrix-vector product per native gate,
and the tests hold it bit-identical to that loop, because the rb report's
free three-parameter fit moves with rounding.  `interleaved_rb`, the one
interleaved-RB path, serves `drcz irb` and the IRB accuracy study: it
runs the IRB reference (an identity slot it adds itself) and every
interleaved channel as slots of one batched pass over sequences drawn
once per depth, on only the density-matrix entries that |00><00| can reach (25 of
81 when each qutrit can leak), in real coordinates: the Pauli strings of
each leak sector (the codespace, either qubit alone beside a leaked
partner, both leaked) and the real and imaginary parts of any coherence
between sectors.  `irb` gives it the noisy natives and the noisy CZ,
which it applies one word position at a time; the study gives it ideal
natives, which permute those coordinates with signs (the tableau view of
a Clifford, as in the group's tables), so each Clifford is composed from
its word as one signed table and applied as one signed gather, and its
sampled channels, built as one closed-form stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .channels import QuantumChannel, pauli_basis
from .error_channels import (CZ4, QUBIT_BLOCK, ChannelRates, ReadoutModel, _gate_channel_stack,
                             _layered_channel, _leakage_kraus, postselected_fidelity, qutrit_cz,
                             qutrit_dephasing_kraus, qutrit_gate_channel)
from .fock import _integer

__all__ = [
    "CliffordGroup",
    "generate_clifford_group",
    "NativeGateNoise",
    "embed_block_superop",
    "depolarizing_cz_channel",
    "RBRecord",
    "simulate_rb",
    "interleaved_rb",
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


# A signed table has one entry per signed Pauli, P_p at p < 4^n (pauli_basis
# order) and -P_p at p + 4^n: entry p is q + 4^n s when u P_p u^dag =
# (-1)^s P_q, so composing two Cliffords is indexing one table with the
# other.  The images of X and Z on every qubit (the stabilizer tableau)
# already fix the Clifford; packed five bits each, they are its key.

def _pauli_table(u: np.ndarray, n_qubits: int) -> np.ndarray | None:
    """The signed table of unitary u, or None if u is not a Clifford.

    Read from the trace overlaps tr(P_q u P_p u^dag)/d, which are +-1 for
    one q and 0 for the rest exactly when u is a Clifford (a unitary's
    squared overlaps sum to one, so integer overlaps are one +-1)."""
    paulis = pauli_basis(n_qubits)
    n, d = paulis.shape[:2]
    images = u @ paulis @ u.conj().T
    overlaps = np.einsum("qji,pij->pq", paulis, images).real / d
    signed = np.round(overlaps)
    if np.max(np.abs(overlaps - signed)) > 1e-6:
        return None
    table = np.argmax(np.abs(signed), axis=1) + n * (signed.sum(axis=1) < 0)
    return np.concatenate([table, (table + n) % (2 * n)]).astype(np.int8)


def _keys(tables: np.ndarray, n_qubits: int) -> np.ndarray:
    """The integer key of each signed table (last axis): the images of X
    and Z on every qubit (IX, IZ, XI, ZI on two)."""
    columns = [pauli * 4 ** k for k in range(n_qubits) for pauli in (1, 3)]
    return tables[..., columns] @ 32 ** np.arange(2 * n_qubits)


@dataclass(frozen=True, eq=False)
class CliffordGroup:
    """Read-only: row i of `tables` is element i's signed table, `words[i]`
    a generator word that replays to it, `inverses[i]` its inverse's index."""

    n_qubits: int
    gateset: Mapping[str, np.ndarray]
    tables: np.ndarray
    words: tuple[tuple[str, ...], ...]
    inverses: np.ndarray
    _index: Mapping[int, int]

    def __len__(self) -> int:
        return len(self.words)

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
        index = None if table is None else self._index.get(int(_keys(table, self.n_qubits)))
        if index is None:
            raise ValueError("unitary is not in the generated Clifford group")
        return index

    def inverse_of(self, tables: np.ndarray) -> np.ndarray:
        """Indices of the elements that undo the Cliffords with these signed
        tables (last axis), one per table."""
        keys = _keys(tables, self.n_qubits)
        found = [self._index[key] for key in keys.reshape(-1).tolist()]
        return self.inverses[np.reshape(found, keys.shape)]


@lru_cache(maxsize=None)
def generate_clifford_group(n_qubits: int) -> CliffordGroup:
    """Breadth-first closure of the native gateset; 24 or 11520 elements.

    The search composes a whole layer at a time and meets its products by
    parent, then by generator, as a first-in-first-out queue would; that
    order fixes which sequence each RB seed draws.  Built once per process."""
    if n_qubits not in (1, 2):
        raise ValueError("only 1- or 2-qubit groups are generated")
    gateset = dict(_ONE_QUBIT_GATES) if n_qubits == 1 else _two_qubit_gateset()
    for gate in gateset.values():
        gate.setflags(write=False)
    names = tuple(gateset)
    generators = np.stack([_pauli_table(gate, n_qubits) for gate in gateset.values()])

    n = 4 ** n_qubits
    layer = np.arange(2 * n, dtype=np.int8)[None]
    layers, words = [layer], [()]
    index = {int(_keys(layer[0], n_qubits)): 0}
    while len(layer):
        first = len(words) - len(layer)
        products = np.swapaxes(generators[:, layer], 0, 1).reshape(-1, 2 * n)
        kept = []
        for pos, key in enumerate(_keys(products, n_qubits).tolist()):
            if key not in index:
                index[key] = len(index)
                kept.append(pos)
        words += [words[first + pos // len(names)] + (names[pos % len(names)],) for pos in kept]
        layer = products[kept]
        layers.append(layer)
    tables = np.concatenate(layers)

    # u P_p u^dag = (-1)^s P_q means u^dag P_q u = (-1)^s P_p
    unsigned = tables[:, :n]
    inverse = np.empty_like(unsigned)
    np.put_along_axis(inverse, unsigned % n, np.arange(n) + unsigned - unsigned % n, axis=1)
    inverses = np.array([index[key] for key in _keys(inverse, n_qubits).tolist()])
    tables.flags.writeable = inverses.flags.writeable = False
    return CliffordGroup(n_qubits=n_qubits, gateset=MappingProxyType(gateset), tables=tables,
                         words=tuple(words), inverses=inverses, _index=MappingProxyType(index))


# --- native-gate noise ------------------------------------------------------

def _embed_unitary(u: np.ndarray) -> np.ndarray:
    """Act with u on the two-qubit logical block; leaked states idle."""
    out = np.eye(9, dtype=complex)
    out[np.ix_(QUBIT_BLOCK, QUBIT_BLOCK)] = u
    return out


@lru_cache(maxsize=None)
def _embedded_natives() -> Mapping[str, np.ndarray]:
    """Every ideal native gate as a unitary on two qutrits, read-only and
    built once.

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
    for u in natives.values():
        u.setflags(write=False)
    return MappingProxyType(natives)


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
                          include_cross_kerr: bool) -> "NativeGateNoise":
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
        # the virtual Z rotations now; the pulses and CZ below, in the same order
        sup = {name: QuantumChannel(9, kraus=[u]).superop if name.startswith("Z") else None
               for name, u in _embedded_natives().items()}
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


def _integers(values: Iterable, name: str) -> tuple[int, ...]:
    """The values as ints; a bool or a non-integer is refused, not truncated."""
    values = tuple(values)
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in values):
        raise ValueError(f"{name} must be integers, got {values!r}")
    return tuple(map(int, values))


def _sequence_indices(group_size: int, depth: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, depth])
    return rng.integers(0, group_size, size=depth)


def _draw_sequences(group: CliffordGroup, depth: int, seeds: Sequence[int],
                    interleaves: Sequence[int | None]) -> tuple[np.ndarray, np.ndarray]:
    """Each seed's Clifford indices at this depth, (seeds, depth), and its
    recovery for each interleaved element, (len(interleaves), seeds).

    A recovery inverts the ideal net Clifford of the sequence with that
    group element (none for None) after every Clifford.  The net Cliffords
    are tracked as signed tables, one whole-array gather per step."""
    indices = np.array([_sequence_indices(len(group), depth, seed) for seed in seeds])
    slots = np.array([0 if k is None else k for k in interleaves])[:, None, None]  # 0: identity
    net = np.broadcast_to(group.tables[0], (len(slots), len(seeds), group.tables.shape[1]))
    for step in indices.T:
        net = group.tables[slots, group.tables[step[:, None], net]]
    return indices, group.inverse_of(net)


def _confusion(spam: ReadoutModel | None, qubit: int) -> np.ndarray:
    return np.eye(3) if spam is None else spam.confusion_matrix(qubit)


def _rb_design(depths: Iterable, seeds: Iterable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The depths and seeds of an RB run as ints: at least one of each, and
    every depth positive."""
    depths = _integers(depths, "depths")
    seeds = _integers(seeds, "seeds")
    if not depths or min(depths) < 1:
        raise ValueError("depths must be positive")
    if not seeds:
        raise ValueError("at least one seed is required")
    return depths, seeds


def _read_out(populations: np.ndarray, depths: tuple[int, ...], seeds: tuple[int, ...],
              spam: ReadoutModel | None) -> list[RBRecord]:
    """One record per slot from the final populations, (slots, depths,
    seeds, 9) over the basis states 3c + t, read through each qubit's
    confusion matrix: the raw survival of |00>, the kept (not erased)
    fraction and the survival postselected on it.  Slot 0 is the
    reference; every other slot interleaves CZ."""
    populations = np.clip(populations, 0.0, None).reshape(*populations.shape[:-1], 3, 3)
    observed = _confusion(spam, 0).T @ populations @ _confusion(spam, 1)
    raw = observed[..., 0, 0].copy()
    kept = observed[..., :2, :2].sum(axis=(-2, -1))
    post = np.divide(raw, kept, out=np.zeros_like(raw), where=kept > 0)
    return [RBRecord(depths=depths, seeds=seeds, raw=raw[c], postselected=post[c],
                     kept_fraction=kept[c], interleaved="CZ" if c else None)
            for c in range(len(raw))]


def simulate_rb(noise: NativeGateNoise,
                depths: Sequence[int],
                seeds: Sequence[int],
                *,
                spam: ReadoutModel | None = None) -> RBRecord:
    """Erasure-aware randomized benchmarking with exact outcome statistics.

    Each (depth, seed) pair draws its Clifford sequence deterministically,
    composes the per-native-gate channels, appends the recovery Clifford,
    and reads out through the confusion matrices at the end only.
    This is `drcz rb`'s path, one matrix-vector product per native gate
    and sequence, kept bit-identical because the rb report's free fit
    amplifies rounding, so it stays out of `interleaved_rb`'s batched pass
    until that fit is identifiable (ROADMAP item 8).
    """
    depths, seeds = _rb_design(depths, seeds)
    group = generate_clifford_group(2)
    vec0 = np.zeros(81, dtype=complex)
    vec0[0] = 1.0  # |00><00|
    finals = np.empty((len(depths), len(seeds), 81), dtype=complex)
    for i, depth in enumerate(depths):
        drawn, (recoveries,) = _draw_sequences(group, depth, seeds, (None,))
        for j, indices in enumerate(drawn):
            vec = vec0
            for idx in (*indices, recoveries[j]):
                for gate in group.words[idx]:
                    vec = noise.superops[gate] @ vec
            finals[i, j] = vec
    # the diagonal of each final state
    (record,) = _read_out(finals[None, :, :, ::10].real, depths, seeds, spam)
    return record


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
# the study's fixed design: every channel runs these depths over these sequences
_IRB_DEPTHS = (1, 2, 3, 5, 8, 12)
_IRB_SEQUENCE_SEEDS = tuple(range(20))


def _draw_rates(n_samples: int, seed: int) -> list[ChannelRates]:
    rng = np.random.default_rng(seed)
    return [ChannelRates(p_leak_control=rng.uniform(*RATE_RANGES["p_leak"]),
                         p_leak_target=rng.uniform(*RATE_RANGES["p_leak"]),
                         p_z_control=rng.uniform(*RATE_RANGES["p_z"]),
                         p_z_target=rng.uniform(*RATE_RANGES["p_z"]),
                         p_zz=rng.uniform(*RATE_RANGES["p_zz"]))
            for _ in range(n_samples)]


def _reachable_entries(natives: Iterable[np.ndarray], channels: np.ndarray) -> np.ndarray:
    """The column-stacked density-matrix entries that |00><00| can reach.

    Closes entry 0 under the union of the nonzero patterns of the given
    81x81 native superoperators and channels, and under transposition (a
    Hermitian state's rho[b, a] is the conjugate of its rho[a, b]), so the
    Cliffords made of those natives and the channels map the kept entries
    into themselves and every other entry stays exactly zero: 25 when
    each qutrit can leak (the sampled gate channels, or the
    coherence-limited natives with their CZ), 16 for ideal natives with no
    leakage, all 81 for a generic channel."""
    pattern = np.any(channels, axis=0)
    for superop in natives:
        pattern = pattern | (superop != 0)
    reached = np.zeros(81, dtype=bool)
    reached[0] = True
    while True:
        grown = reached | pattern[:, reached].any(axis=1)
        grown |= grown.reshape(9, 9).T.reshape(-1)  # rho[b, a] with rho[a, b]
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


# The leak sector of two-qutrit basis state 3c + t, keyed by (control
# level == 2, target level == 2): 0 the codespace (two qubits), 1 the
# target leaked (the control qubit), 2 the control leaked (the target
# qubit), 3 both leaked (a scalar).
_SECTOR = np.array([2 * (c == 2) + (t == 2) for c in range(3) for t in range(3)])


def _coordinates(kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real coordinates x_k = tr(B_k rho) of a Hermitian rho that lives on
    the kept column-stacked entries, for an orthogonal Hermitian basis B_k.

    Each leak sector whose whole block of entries is kept contributes its
    Pauli strings, in sector order and pauli_basis order (the codespace's
    16 come first); every other kept rho[a, b] contributes Re rho[a, b]
    when a < b, Im rho[b, a] when a > b and rho[a, a] on the diagonal.
    Returns (forward, backward), with x = forward @ entries and entries =
    backward @ x; orthogonality makes backward forward^dag over the norms
    tr(B_k^2)."""
    cols, rows = np.divmod(kept, 9)  # entry a + 9b of vec(rho) is rho[a, b]
    sector = np.where(_SECTOR[rows] == _SECTOR[cols], _SECTOR[rows], -1)
    covered = np.zeros(len(kept), dtype=bool)
    basis, norms = [], []
    for s in range(4):
        states = np.flatnonzero(_SECTOR == s)
        if np.count_nonzero(sector == s) == len(states) ** 2:  # the whole block
            covered |= sector == s
            paulis = pauli_basis(len(states).bit_length() - 1)
            block = np.zeros((len(paulis), 9, 9), dtype=complex)
            block[:, states[:, None], states] = paulis
            basis.append(block)
            norms += [len(states)] * len(paulis)
    a, b = rows[~covered], cols[~covered]
    pairs = np.zeros((len(a), 9, 9), dtype=complex)
    lo, hi, k = np.minimum(a, b), np.maximum(a, b), np.arange(len(a))
    pairs[k, lo, hi] = np.where(a < b, 0.5, np.where(a > b, 0.5j, 1.0))
    pairs[k, hi, lo] = np.where(a < b, 0.5, np.where(a > b, -0.5j, 1.0))
    # tr(B rho) = sum over entries of B[b, a] rho[a, b]
    forward = np.concatenate(basis + [pairs])[:, cols, rows]
    return forward, forward.conj().T / np.concatenate([norms, np.where(a == b, 1.0, 0.5)])


def _signed_tables(maps: np.ndarray) -> np.ndarray:
    """The signed tables of (k, m, m) coordinate maps that are signed
    permutations: entry q is p + m s when the map sends x to x' with
    x'_q = (-1)^s x_p, and entry q + m the same for -x'_q, so the table of
    map b after map a is table_a[table_b].  A map that is not a signed
    permutation to 1e-12 is refused."""
    m = maps.shape[-1]
    signed = np.round(maps.real)
    nonzero = signed != 0
    if (np.max(np.abs(maps - signed)) > 1e-12 or np.any(np.abs(signed) > 1)
            or np.any(nonzero.sum(axis=-1) != 1) or np.any(nonzero.sum(axis=-2) != 1)):
        raise ValueError("an ideal native is not a signed permutation of the coordinates")
    table = np.argmax(nonzero, axis=-1) + m * (signed.sum(axis=-1) < 0)
    return np.concatenate([table, (table + m) % (2 * m)], axis=-1)


def _word_codes(group: CliffordGroup, indices: np.ndarray) -> np.ndarray:
    """The words of the Cliffords indices, one row each, as positions in
    _embedded_natives(), first gate first; the shorter words are padded
    to the longest by the identity's code, one past the last native."""
    code = {name: k for k, name in enumerate(_embedded_natives())}
    words = [group.words[idx] for idx in indices]
    lengths = np.array([len(word) for word in words])
    codes = np.full((len(words), max(1, lengths.max())), len(code))
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = [
        code[gate] for word in words for gate in word]
    return codes


def _clifford_tables(group: CliffordGroup, tables: np.ndarray,
                     indices: np.ndarray) -> np.ndarray:
    """The first half of the signed table of each Clifford in indices
    (entry q for +x'_q; the negated half follows from it), composed from
    its word over the natives' signed tables, in the order of
    _embedded_natives.  All words go together, one flat gather per word
    position, from the last gate back to the first: that order needs only
    the first half of each partial product."""
    codes = _word_codes(group, indices)
    m = tables.shape[1] // 2
    tables = np.concatenate([tables, np.arange(2 * m)[None]])  # the identity pads
    net = tables[codes[:, -1], :m]
    flat = tables.reshape(-1)
    for position in codes.T[-2::-1]:
        net = flat[net + 2 * m * position[:, None]]
    return net


def interleaved_rb(noise: NativeGateNoise | None,
                   channels: np.ndarray,
                   depths: Sequence[int],
                   seeds: Sequence[int],
                   *,
                   spam: ReadoutModel | None = None) -> list[RBRecord]:
    """Two-qutrit interleaved RB of each channel in a (K, 81, 81) stack, and
    the IRB reference, all on the same sequences.

    Returns the reference record (no interleaved gate), then one record
    per channel, interleaved after every Clifford and recovered as CZ; the
    reference is one more slot, behind the identity.  The Cliffords are
    the native words of noise, or ideal when noise is None.  Each depth's
    sequences are drawn once, and both recovery sets come from one gather
    per step.  The states live on the m column-stacked entries that
    |00><00| can reach under the natives and the channels, written in the
    real coordinates of _coordinates (every map here keeps a state
    Hermitian, so the maps are real there too); the channels are moved
    onto them once per call.
    Ideal Cliffords are signed permutations of the coordinates: the
    single-qubit natives act as tensor factors in every leak sector and CZ
    idles the leaked states, so each native's signed table is read off its
    superoperator (_signed_tables refuses one that is not a signed
    permutation to 1e-12), every Clifford of a depth and both recovery
    sets are composed from their words in one batch, and a Clifford step
    is one signed gather on the (slots, seeds * m) states.  No Clifford
    permutes a coherence between two sectors, so a channel that reaches
    one is refused: interleaved_rb(NativeGateNoise.ideal(), ...) runs it.
    Noisy Cliffords apply each native's superoperator on the coordinates,
    one word position at a time to the (seeds, slots, m) states, with the
    shorter words padded by the identity.  The final populations are read
    through spam's confusion matrices, as in simulate_rb.
    """
    depths, seeds = _rb_design(depths, seeds)
    channels = np.asarray(channels)
    if channels.ndim != 3 or channels.shape[1:] != (81, 81) or not len(channels):
        raise ValueError(f"channels must be a (K, 81, 81) stack with K >= 1, "
                         f"got shape {channels.shape}")
    group = generate_clifford_group(2)
    unitaries = _embedded_natives()
    if noise is None:
        u = np.stack(list(unitaries.values()))
        natives = (u.conj()[:, :, None, :, None] * u[:, None, :, None, :]).reshape(-1, 81, 81)
    else:
        natives = [noise.superops[name] for name in unitaries]
    kept = _reachable_entries(natives, channels)
    cols, rows = np.divmod(kept, 9)
    if noise is None and np.any(_SECTOR[rows] != _SECTOR[cols]):
        raise ValueError("the channels reach coherences between leak sectors, where no ideal "
                         "Clifford is a signed permutation: run them through "
                         "interleaved_rb(NativeGateNoise.ideal(), ...)")
    m = len(kept)
    forward, backward = _coordinates(kept)
    populations = rows == cols
    readout = backward[populations].real.T  # coordinates -> kept populations

    # the reference's identity and the channels, and the natives, on the
    # coordinates; the states are row vectors, so every map acts transposed
    channels = forward @ channels[:, kept[:, None], kept] @ backward
    channels = np.concatenate([np.eye(m)[None], channels.real.transpose(0, 2, 1)])
    natives = forward @ np.stack([s[kept[:, None], kept] for s in natives]) @ backward
    if noise is None:
        tables = _signed_tables(natives)
    else:
        natives = np.concatenate([natives.real.transpose(0, 2, 1),
                                  np.eye(m)[None]])  # the identity pads

    n_seeds, n_chan = len(seeds), len(channels)
    start = forward[:, 0].real  # |00><00|: entry 0, always the first kept
    interleaves = (None, group.index_of(CZ4))  # the reference's recoveries, then the channels'
    finals = np.zeros((n_chan, len(depths), n_seeds, 9))
    for i, depth in enumerate(depths):
        indices, recoveries = _draw_sequences(group, depth, seeds, interleaves)
        if noise is None:
            # each step's Cliffords, then each recovery set, as flat gathers
            # into the (slots, seeds * m) states and their signs
            net = _clifford_tables(group, tables, np.concatenate(
                [indices.T.reshape(-1), recoveries.reshape(-1)]))
            negated = net >= m
            signs = np.where(negated, -1.0, 1.0).reshape(depth + 2, -1)
            seed = np.arange(len(net))[:, None] % n_seeds
            flats = (net - m * negated + m * seed).reshape(depth + 2, -1)
            states = np.tile(start, (n_chan, n_seeds))
            for flat, sign in zip(flats[:depth], signs[:depth]):
                states = (np.take(states, flat, axis=1) * sign).reshape(n_chan, n_seeds, m)
                states = (states @ channels).reshape(n_chan, -1)
            states[:1] = np.take(states[:1], flats[depth], axis=1) * signs[depth]
            states[1:] = np.take(states[1:], flats[depth + 1], axis=1) * signs[depth + 1]
            final = states.reshape(n_chan, n_seeds, m)
        else:
            def apply(states: np.ndarray, step: np.ndarray) -> np.ndarray:
                for position in _word_codes(group, step).T:
                    states = states @ natives[position]
                return states

            states = np.tile(start, (n_seeds, n_chan, 1))
            for step in indices.T:
                states = apply(states, step)
                states = (states.transpose(1, 0, 2) @ channels).transpose(1, 0, 2)
            states[:, :1] = apply(states[:, :1], recoveries[0])
            states[:, 1:] = apply(states[:, 1:], recoveries[1])
            final = states.transpose(1, 0, 2)
        finals[:, i][:, :, rows[populations]] = final @ readout
    return _read_out(finals, depths, seeds, spam)


def irb_accuracy_study(operating_point: ChannelRates,
                       n_samples: int,
                       *,
                       seed: int) -> IRBAccuracyResult:
    """Interleaved-RB inferred error versus entanglement infidelity.

    Dephasing and leakage rates are drawn uniformly from RATE_RANGES;
    every sample, and the device's operating point, is benchmarked on the
    same fixed random gate sequences: depths (1, 2, 3, 5, 8, 12) over
    sequence seeds 0-19.  The Cliffords themselves are ideal and the
    sampled channel rides only on the interleaved slot, so the reference
    slope vanishes and the study isolates the entangling gate.
    The sampled channels are built in closed form as one stack, and the
    reference and every channel run as one batched pass of interleaved_rb
    with ideal natives and perfect readout, over the 25 density-matrix
    entries the channels can reach, on sequences drawn once: the pass
    `drcz irb` runs with the noisy natives.  n_samples rates are drawn
    from a generator seeded with seed; the CLI passes 40 and
    20260813 + --seed.  The true value is the postselected entanglement
    infidelity of the channel; the operating point takes no part in the
    slope fit.
    """
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2 for the slope fit, got {n_samples}")
    samples = _draw_rates(n_samples, seed) + [operating_point]
    superops = _gate_channel_stack(samples, np.empty((len(samples), 81, 81), dtype=complex))
    true_vals = 1.0 - postselected_fidelity(superops, CZ4)
    reference, *records = interleaved_rb(None, superops, _IRB_DEPTHS, _IRB_SEQUENCE_SEEDS)
    reference_fit = fit_linear_fidelity(reference)
    inferred_vals = [interleaved_gate_error(reference_fit, fit_linear_fidelity(record))
                     for record in records]

    true_arr = true_vals[:-1]
    inf_arr = np.array(inferred_vals[:-1])
    slope, offset = np.polyfit(true_arr, inf_arr, 1)
    return IRBAccuracyResult(true_infidelity=true_arr,
                             inferred_infidelity=inf_arr,
                             slope=float(slope), offset=float(offset),
                             operating_point=(float(true_vals[-1]), inferred_vals[-1]))


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
                              spam: ReadoutModel | None,
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
    n_gates = _integer(n_gates, "n_gates")
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
