"""State and process tomography with erasure-aware readout.

Measurement settings use the overcomplete pre-rotation set
{I, X(+-pi/2), X(pi), Y(+-pi/2)} per qubit; outcomes per qubit are
{0, 1, erasure}.  Reconstruction is linear inversion followed by the
eigenvalue-clipping PSD projection (the estimator of record here; no
maximum-likelihood iteration).  In the simulated Bell circuit the
pre-rotations are rail beamsplitters on the gate's 12-state dual-rail
space, and each qubit's rotations about one axis come from one
eigendecomposition (`dual_rail_rotation`): four for the ten distinct
pulses.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .channels import QuantumChannel, pauli_basis
from .error_channels import PREP_KETS, ReadoutModel
from .fock import DensityMatrix, DualRailCode, ModeRegister, _integer
from .gate import (CONTROL_CODE, TARGET_CODE, SystemParams, _block_eigh,
                   _space_operator, build_schedule, codespace_block, extract_local_frame,
                   ideal_unitary)
from .lindblad import NoiseModel, gate_superoperator

__all__ = [
    "SETTINGS",
    "OUTCOMES",
    "MeasurementRecord",
    "setting_unitary",
    "dual_rail_rotation",
    "dual_rail_phase",
    "bell_circuit_record",
    "reconstruct_state",
    "bell_metrics",
    "process_tomography",
    "simulated_leak_process",
    "chi_error",
    "psd_project",
    "QUBIT_PAIR",
]

# (axis, angle) of each pre-rotation; None = no pulse.  Sorted by label: the
# order of a record's axes and of the state-tomography fit's rows, whose
# order sets the last digits of the fit.
SETTINGS: dict[str, tuple[str, float] | None] = {
    "I": None,
    "X-90": ("x", -math.pi / 2),
    "X180": ("x", math.pi),
    "X90": ("x", math.pi / 2),
    "Y-90": ("y", -math.pi / 2),
    "Y90": ("y", math.pi / 2),
}
OUTCOMES = ("0", "1", "erasure")

QUBIT_PAIR = ModeRegister((("qc", 2), ("qt", 2)))

_SIGMA = dict(zip("xyz", pauli_basis(1)[1:]))


def setting_unitary(label: str) -> np.ndarray:
    """2x2 unitary of a measurement pre-rotation."""
    spec = SETTINGS[label]
    if spec is None:
        return np.eye(2, dtype=complex)
    axis, angle = spec
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * _SIGMA[axis]


def dual_rail_rotation(register: ModeRegister, code: DualRailCode,
                       axis: str, angles: float | Sequence[float]) -> np.ndarray:
    """Logical rotations exp(-i angle/2 sigma_axis) about one axis, as rail
    beamsplitters on the dual-rail space: one (d, d) rotation per angle, in
    an array of the angles' shape plus (d, d), all from one block
    eigendecomposition of the generator and each taken as
    `gate._propagator` takes it."""
    r0, r1 = (_space_operator(register, rail, "annihilate") for rail in code.labels)
    hop = r0.conj().T @ r1
    if axis == "x":
        gen = hop + hop.conj().T
    elif axis == "y":
        gen = -1j * hop + 1j * hop.conj().T
    elif axis == "z":
        n0, n1 = (_space_operator(register, rail, "number") for rail in code.labels)
        gen = n0 - n1
    else:
        raise ValueError(f"unknown axis {axis!r}")
    lam, v = _block_eigh(gen)
    half = np.asarray(angles, dtype=float) / 2
    return (v * np.exp(-1j * lam * half[..., None])[..., None, :]) @ v.conj().T


def dual_rail_phase(register: ModeRegister, code: DualRailCode,
                    theta: float) -> np.ndarray:
    """Virtual-Z of angle theta on the dual-rail space: |1_L> gains e^{i theta}
    (frame update)."""
    n1 = _space_operator(register, code.rail1, "number")
    return np.diag(np.exp(1j * theta * np.diag(n1)))


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Counts, possibly fractional (exact probabilities), as a read-only
    (6, 6, 3, 3) array indexed [setting_c, setting_t, outcome_c, outcome_t]
    in SETTINGS and OUTCOMES order."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.shape != (6, 6, 3, 3):
            raise ValueError(f"a record is a (6, 6, 3, 3) array, got shape {data.shape}")
        if data.dtype.kind not in "iuf" or not (np.isfinite(data) & (data >= 0)).all():
            raise ValueError("counts must be non-negative and finite real numbers")
        data = data.astype(float)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @cached_property
    def counts(self) -> dict[tuple[str, str, str, str], float]:
        """{(setting_c, setting_t, outcome_c, outcome_t): count}, built once."""
        keys = itertools.product(SETTINGS, SETTINGS, OUTCOMES, OUTCOMES)
        return dict(zip(keys, self.data.ravel().tolist()))


def bell_circuit_record(n_gates: int, *, params: SystemParams, noise: NoiseModel,
                        readout: ReadoutModel) -> MeasurementRecord:
    """Simulate the repeated-gate Bell experiment and return its record.

    Circuit: Rx(pi/2) on both qubits, then n_gates >= 0 CZ gates (each
    followed by its virtual-Z frame correction), with an X x X echo
    inserted after the first (n_gates-1)/2 gates when n_gates is odd and
    >= 3.  Measurement applies the pre-rotation pair and reads each qubit
    as {0, 1, erasure} through the readout confusion matrix, and the
    record holds the exact outcome probabilities: noise acts during each
    gate, readout at the end.  One depth of `_bell_circuit_records`.
    """
    return _bell_circuit_records([n_gates], params=params, noise=noise, readout=readout)[0]


def _echo_after(n_gates: int) -> int:
    """Gates ahead of the X x X echo in the n-gate Bell circuit: (n-1)/2 when
    n is odd and >= 3, else 0 (no echo)."""
    return (n_gates - 1) // 2 if n_gates >= 3 and n_gates % 2 == 1 else 0


def _bell_circuit_records(depths: Sequence[int], *, params: SystemParams, noise: NoiseModel,
                          readout: ReadoutModel) -> list[MeasurementRecord]:
    """`bell_circuit_record` at each depth, from one build of the schedule,
    frame, gate map and pulses.  The pulses keep each qubit's photon count,
    so the circuit runs on the schedule's dual-rail space."""
    depths = [_integer(n, "n_gates") for n in depths]
    if min(depths, default=0) < 0:
        raise ValueError(f"n_gates must be non-negative, got {min(depths)}")
    register = ModeRegister.standard(2)
    schedule = build_schedule(params, register)
    sector = schedule.sector
    frame = extract_local_frame(codespace_block(register, ideal_unitary(schedule)))
    gate = gate_superoperator(schedule, noise)

    # each qubit's pre-rotations in SETTINGS order, one eigendecomposition per axis
    rot_c, rot_t = {}, {}
    for code, rot in ((CONTROL_CODE, rot_c), (TARGET_CODE, rot_t)):
        rot.update(dict.fromkeys(SETTINGS, np.eye(sector.size)))
        for axis in "xy":
            about = {label: spec[1] for label, spec in SETTINGS.items()
                     if spec and spec[0] == axis}
            rot.update(zip(about, dual_rail_rotation(register, code, axis,
                                                     list(about.values()))))
    prep_c, prep_t = rot_c["X90"], rot_t["X90"]
    echo_u = rot_c["X180"] @ rot_t["X180"]
    wrong_c = dual_rail_phase(register, CONTROL_CODE, -frame.phi_control)
    wrong_t = dual_rail_phase(register, TARGET_CODE, -frame.phi_target)
    # the 36 pre-rotation pairs in (sc, st) order, the target pulse after the control one
    pulses = [r_t @ r_c for r_c, r_t in itertools.product(rot_c.values(), rot_t.values())]

    ground = register.basis_index({CONTROL_CODE.rail0: 1, TARGET_CODE.rail0: 1})
    prepared = np.diag((sector == ground).astype(complex))
    prepared = prep_t @ prep_c @ prepared @ prep_c.conj().T @ prep_t.conj().T
    outcome_pair = (3 * CONTROL_CODE.outcomes(register) + TARGET_CODE.outcomes(register))[sector]
    conf_c = readout.confusion_matrix(0)
    conf_t = readout.confusion_matrix(1)

    records = []
    for n_gates in depths:
        rho = prepared
        echo_after = _echo_after(n_gates)
        for k in range(n_gates):
            rho = wrong_t @ wrong_c @ gate.apply(rho) @ wrong_c.conj().T @ wrong_t.conj().T
            if k + 1 == echo_after:
                rho = echo_u @ rho @ echo_u.conj().T
        true_probs = np.array([np.bincount(outcome_pair, minlength=9,
                                           weights=np.diag(u @ rho @ u.conj().T).real)
                               for u in pulses])
        true_probs = np.clip(true_probs, 0.0, None).reshape(6, 6, 3, 3)
        records.append(MeasurementRecord(conf_c.T @ true_probs @ conf_t))
    return records


def psd_project(mat: np.ndarray, trace: float) -> np.ndarray:
    """Clip negative eigenvalues; renormalize to the requested trace."""
    herm = (mat + mat.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals) @ vecs.conj().T
    if out.trace().real > 1e-15:
        out = out * (trace / out.trace().real)
    return out


@lru_cache(maxsize=None)
def _design() -> tuple[np.ndarray, np.ndarray]:
    """Rows of the tomography fit, built once: the conjugated, flattened
    codespace POVM elements E, so that rows @ rho.reshape(-1) = Tr(E rho).
    (6, 2, 4) on one qubit, [setting, outcome]; (6, 6, 2, 2, 16) on two,
    [sc, st, oc, ot], each element the kron of the two one-qubit ones."""
    rows = np.array([[(r.conj().T @ np.diag(p).astype(complex) @ r).conj()
                      for p in ([1.0, 0.0], [0.0, 1.0])]
                     for r in map(setting_unitary, SETTINGS)])
    # [sc, st, oc, ot, i, k, j, l] -> row i*2+k, column j*2+l: np.kron's layout
    pair = rows[:, None, :, None, :, None, :, None] * rows[None, :, None, :, None, :, None, :]
    one, two = rows.reshape(6, 2, 4), pair.reshape(6, 6, 2, 2, 16)
    one.flags.writeable = two.flags.writeable = False
    return one, two


def reconstruct_state(record: MeasurementRecord, postselect: bool) -> DensityMatrix:
    """Two-qubit linear-inversion estimate from a measurement record.

    With postselect, erasure outcomes are dropped and each setting's
    codespace outcomes are renormalized, giving a unit-trace estimate;
    otherwise codespace frequencies stay referred to all shots and the
    returned state is subnormalized by the erasure fraction.  Setting
    pairs with no shots to refer to are left out of the fit.
    """
    codespace = record.data[:, :, :2, :2]
    shots = codespace if postselect else record.data
    # cells added one by one in OUTCOMES order: numpy's pairwise sum would
    # round the totals, and so the reported digits, differently
    total = np.cumsum(shots.reshape(6, 6, -1), axis=-1)[..., -1]
    kept = total > 0
    design = _design()[1][kept].reshape(-1, 16)
    if np.linalg.matrix_rank(design) < 16:
        raise ValueError("measurement settings do not span the operator space")
    freqs = (codespace[kept] / total[kept][:, None, None]).reshape(-1)
    vec, *_ = np.linalg.lstsq(design, freqs, rcond=None)
    rho = vec.reshape(4, 4)
    rho = psd_project(rho, trace=1.0 if postselect else min(np.real(rho.trace()), 1.0))
    return DensityMatrix(QUBIT_PAIR, rho, validate=False)


def bell_metrics(rho: DensityMatrix, reference: np.ndarray) -> tuple[float, float]:
    """(fidelity, purity) against the circuit's ideal output state."""
    fidelity = float(np.real(reference.conj() @ rho.data @ reference))
    purity = float(np.real(np.trace(rho.data @ rho.data)))
    return fidelity, purity


# --- process tomography ----------------------------------------------------

def process_tomography(channel: QuantumChannel, postselect: bool = True) -> np.ndarray:
    """Single-qubit chi matrix (plain Pauli basis) of a qubit channel.

    Each of the preparations {|0>, |1>, |+>, |+i>} is measured in every
    pre-rotation setting.  With postselect each setting's two outcome
    probabilities are renormalized, which conditions away the trace a
    trace-decreasing channel loses; without it they are taken as they are.
    Output is CP-projected and keeps the trace of the estimate.
    """
    if channel.dim != 2:
        raise ValueError(f"process tomography takes a qubit channel, got dim {channel.dim}")

    rows = _design()[0]
    inputs, outputs = [], []
    for ket in PREP_KETS.values():
        rho_in = np.outer(ket, ket.conj())
        probs = (rows @ channel.apply(rho_in).reshape(-1)).real
        norm = probs.sum(axis=1, keepdims=True) if postselect else 1.0
        if postselect and (norm <= 0).any():
            raise ValueError("postselection annihilated a preparation")
        vec, *_ = np.linalg.lstsq(rows.reshape(-1, 4), (probs / norm).reshape(-1), rcond=None)
        est = vec.reshape(2, 2)
        inputs.append(rho_in.reshape(-1))
        outputs.append(psd_project(est, trace=np.real(est.trace())).reshape(-1))

    a = np.column_stack(inputs)   # vec is row-major here; consistent both sides
    b = np.column_stack(outputs)
    superop = _rowmajor_to_column(b @ np.linalg.pinv(a), 2)
    chan = QuantumChannel(2, superop=superop, validate=False)
    chi = chan.chi()
    # CP projection in chi space (chi PSD in an orthogonal operator basis)
    chi = psd_project(chi, trace=np.real(np.trace(chi)))
    return chi


def _rowmajor_to_column(s_row: np.ndarray, d: int) -> np.ndarray:
    """Row-major transfer matrix (vec by rows) -> column-stacking superop."""
    s4 = s_row.reshape(d, d, d, d)        # [i, j, m, n] with E(|m><n|)_ij
    return s4.transpose(1, 0, 3, 2).reshape(d * d, d * d)


def simulated_leak_process(params: SystemParams, control_prep: str, *,
                           points: int = 801) -> QuantumChannel:
    """Target-qubit map conditioned on a control-side erasure during one gate.

    A single loss jump (coupler or control-rail mode) is inserted at each
    node of a Simpson grid of `points` nodes across the piecewise schedule,
    weighted by the jump rate and the node's quadrature weight, and the
    surviving target amplitudes, scaled by sqrt(rate * weight), form the
    channel's (K, 2, 2) Kraus stack, jump by jump and node by node, in one
    array step; a node whose jumped state vanishes (max amplitude <= 1e-14)
    adds none.
    Everything runs on the schedule's 12-state dual-rail space.  Each segment
    Hamiltonian is diagonalized once, block by block over the states it
    couples (`gate._block_eigh`), so a node at offset tau in a segment of
    duration d only needs the eigenphases exp(-i lam tau) and
    exp(-i lam (d - tau)).  params sets the schedule and the loss rates
    of the coupler and the control rails.  control_prep selects the
    control state: "1" (photon in the swapped rail), "0" (photon in the
    idle rail), or "erased" (no photon; the returned map is then the
    unconditioned one).
    The result is subnormalized by the erasure probability.
    """
    register = ModeRegister.standard(2)
    schedule = build_schedule(params, register)
    durations = [d for _, d, _ in schedule.segments]
    total = sum(durations)
    dim = schedule.sector.size

    occ_c = {"1": (0, 1), "0": (1, 0), "erased": (0, 0)}
    if control_prep not in occ_c:
        raise ValueError(f"unknown control preparation {control_prep!r}")
    a1_n, a2_n = occ_c[control_prep]

    # one column per target input |0_L>, |1_L>; out_rows read the target
    # photon back with the control register empty; both are positions in the space
    inputs = [register.basis_index((a1_n, a2_n, 0, b1, b2)) for b1, b2 in ((1, 0), (0, 1))]
    kets = np.zeros((dim, 2), dtype=complex)
    kets[np.searchsorted(schedule.sector, inputs), [0, 1]] = 1.0
    out_rows = np.searchsorted(schedule.sector, [register.basis_index((0, 0, 0, 1, 0)),
                                                 register.basis_index((0, 0, 0, 0, 1))])

    if control_prep == "erased":
        u = ideal_unitary(schedule)
        k = np.column_stack([(u @ ket)[out_rows] for ket in kets.T])
        return QuantumChannel(2, kraus=[k], validate=False)

    eigs = [_block_eigh(h) for h, _, _ in schedule.segments]
    whole = [(v * np.exp(-1j * lam * d)) @ v.conj().T
             for (lam, v), d in zip(eigs, durations)]
    eye = np.eye(dim, dtype=complex)
    # before[s]: the segments ahead of segment s; after[s]: the ones past it
    before, after = [eye], [eye]
    for u in whole:
        before.append(u @ before[-1])
    for u in reversed(whole[1:]):
        after.insert(0, after[0] @ u)
    # The nodes at t = total start an empty segment after the last one.
    eigs.append((np.zeros(dim), eye))
    durations.append(0.0)
    after.append(eye)

    times, weights = _simpson_grid(0.0, total, points)
    # a node on a boundary opens the next segment (offset 0)
    segment = np.full(points, len(whole))
    offset = np.zeros(points)
    left = times.copy()
    for s, d in enumerate(durations[:-1]):
        pending = segment == len(whole)
        inside = pending & (left < d)
        segment[inside], offset[inside] = s, left[inside]
        left[pending & ~inside] -= d

    jump_specs = []
    for label in ("c", "a1", "a2"):
        t1 = params.t1.get(label, math.inf)
        if math.isfinite(t1):
            jump_specs.append((_space_operator(register, label, "annihilate"), 1.0 / t1))

    # Every node's state is a (dim, 2) slice of the (dim, nodes, 2) arrays
    # below; per-node (dim, dim) propagators would take 1.8 MB per array at
    # 801 nodes on the 12-state space.
    amps = np.zeros((len(jump_specs), points, 2, 2), dtype=complex)
    hits = np.zeros((len(jump_specs), points), dtype=bool)
    for s, ((lam, v), d) in enumerate(zip(eigs, durations)):
        nodes = np.flatnonzero(segment == s)
        if nodes.size == 0:
            continue
        v_dag = v.conj().T
        into = np.exp(-1j * np.outer(lam, offset[nodes]))[:, :, None]
        rest = np.exp(-1j * np.outer(lam, d - offset[nodes]))[:, :, None]
        moved = v @ (into * (v_dag @ (before[s] @ kets))[:, None, :]).reshape(dim, -1)
        after_v = after[s] @ v
        for j, (jump_op, _) in enumerate(jump_specs):
            jumped = (v_dag @ (jump_op @ moved)).reshape(dim, nodes.size, 2)
            col = (after_v @ (rest * jumped).reshape(dim, -1)).reshape(jumped.shape)
            amps[j, nodes] = col[out_rows].transpose(1, 0, 2)
            hits[j, nodes] = np.abs(col).max(axis=0).max(axis=1) > 1e-14
    if not hits.any():
        raise ValueError("no erasure pathway for this preparation")
    # Kraus operators per jump operator, joined jump by jump: the stack order
    # fixes the summation order of every representation of the channel.
    rates = np.array([rate for _, rate in jump_specs])
    scale = np.sqrt(rates[:, None] * weights)[:, :, None, None]
    return QuantumChannel(2, kraus=(scale * amps)[hits], validate=False)


def _simpson_grid(a: float, b: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    if points < 3 or points % 2 == 0:
        raise ValueError("points must be odd and >= 3")
    xs = np.linspace(a, b, points)
    h = (b - a) / (points - 1)
    w = np.ones(points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return xs, w * h / 3.0


def chi_error(chi: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Process matrix of the relative error map (channel with the reference
    unitary undone): chi_err = V chi V^dag with V_mn = Tr(E_m^dag E_n U^dag)/d
    over the plain Pauli basis, so a channel equal to the reference maps to
    chi_err with all weight on the identity."""
    d = reference.shape[0]
    n = int(round(math.log2(d)))
    basis = pauli_basis(n)
    if chi.shape != (d * d, d * d):
        raise ValueError("chi dimension does not match the reference unitary")
    v = np.einsum("mba,nbc,ca->mn", basis.conj(), basis, reference.conj().T) / d
    return v @ chi @ v.conj().T
