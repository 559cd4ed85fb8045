"""State and process tomography with erasure-aware readout.

Measurement settings use the overcomplete pre-rotation set
{I, X(+-pi/2), X(pi), Y(+-pi/2)} per qubit; outcomes per qubit are
{0, 1, erasure}.  Reconstruction is linear inversion followed by the
eigenvalue-clipping PSD projection (the estimator of record here; no
maximum-likelihood iteration).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .channels import QuantumChannel, pauli_basis
from .config import DeviceConfig
from .error_channels import ReadoutModel
from .fock import DensityMatrix, DualRailCode, ModeRegister, OperatorMatrix, build_mode_operator
from .gate import (CONTROL_CODE, TARGET_CODE, SystemParams, build_schedule,
                   extract_local_frame, ideal_unitary, codespace_block)
from .lindblad import NoiseModel, gate_superoperator

__all__ = [
    "SETTINGS",
    "OUTCOMES",
    "MeasurementRecord",
    "setting_unitary",
    "dual_rail_rotation",
    "dual_rail_phase",
    "bell_state_ideal",
    "bell_circuit_record",
    "reconstruct_state",
    "bell_metrics",
    "process_tomography",
    "simulated_leak_process",
    "chi_error",
    "psd_project",
    "QUBIT_PAIR",
]

# (axis, angle) of each pre-rotation; None = no pulse
SETTINGS: dict[str, tuple[str, float] | None] = {
    "I": None,
    "X90": ("x", math.pi / 2),
    "X-90": ("x", -math.pi / 2),
    "X180": ("x", math.pi),
    "Y90": ("y", math.pi / 2),
    "Y-90": ("y", -math.pi / 2),
}
OUTCOMES = ("0", "1", "erasure")

QUBIT_PAIR = ModeRegister((("qc", 2), ("qt", 2)))

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def setting_unitary(label: str) -> np.ndarray:
    """2x2 unitary of a measurement pre-rotation."""
    spec = SETTINGS[label]
    if spec is None:
        return np.eye(2, dtype=complex)
    axis, angle = spec
    return expm(-0.5j * angle * _SIGMA[axis])


def dual_rail_rotation(register: ModeRegister, code: DualRailCode,
                       axis: str, angle: float) -> OperatorMatrix:
    """Logical rotation exp(-i angle/2 sigma_axis) as a rail beamsplitter."""
    r0 = build_mode_operator(register, code.rail0, "annihilate").data
    r1 = build_mode_operator(register, code.rail1, "annihilate").data
    hop = r0.conj().T @ r1
    if axis == "x":
        gen = hop + hop.conj().T
    elif axis == "y":
        gen = -1j * hop + 1j * hop.conj().T
    elif axis == "z":
        n0 = build_mode_operator(register, code.rail0, "number").data
        n1 = build_mode_operator(register, code.rail1, "number").data
        gen = n0 - n1
    else:
        raise ValueError(f"unknown axis {axis!r}")
    return OperatorMatrix(register, expm(-0.5j * angle * gen))


def dual_rail_phase(register: ModeRegister, code: DualRailCode,
                    theta: float) -> OperatorMatrix:
    """Virtual-Z of angle theta: |1_L> gains e^{i theta} (frame update)."""
    n1 = build_mode_operator(register, code.rail1, "number").data
    return OperatorMatrix(register, expm(1j * theta * n1))


@dataclass
class MeasurementRecord:
    """Counts per (setting_control, setting_target, outcome_control,
    outcome_target).  Counts may be fractional (exact probabilities)."""

    counts: dict[tuple[str, str, str, str], float] = field(default_factory=dict)

    def add(self, sc: str, st: str, oc: str, ot: str, count: float) -> None:
        if count < 0:
            raise ValueError("counts must be non-negative")
        key = (sc, st, oc, ot)
        self.counts[key] = self.counts.get(key, 0.0) + float(count)

    def settings(self) -> list[tuple[str, str]]:
        return sorted({(sc, st) for sc, st, _, _ in self.counts})

    def total(self, sc: str, st: str) -> float:
        return sum(v for (s1, s2, _, _), v in self.counts.items()
                   if (s1, s2) == (sc, st))


def bell_state_ideal() -> np.ndarray:
    """Output of the one-gate circuit: CZ (Rx(pi/2) x Rx(pi/2)) |00>."""
    r = setting_unitary("X90")
    v = np.kron(r @ np.array([1, 0], dtype=complex), r @ np.array([1, 0], dtype=complex))
    return np.diag([1, 1, 1, -1]).astype(complex) @ v


def bell_circuit_record(n_gates: int = 1, *,
                        params: SystemParams | None = None,
                        noise: NoiseModel | None = None,
                        readout: ReadoutModel | None = None) -> MeasurementRecord:
    """Simulate the repeated-gate Bell experiment and return its record.

    Circuit: Rx(pi/2) on both qubits, then n_gates >= 0 CZ gates (each
    followed by its virtual-Z frame correction), with an X x X echo
    inserted after the first (n_gates-1)/2 gates when n_gates is odd and
    >= 3.  Measurement applies the pre-rotation pair and reads each qubit
    as {0, 1, erasure} through the readout confusion matrix, and the
    record holds the exact outcome probabilities.  params, noise and
    readout default to the built-in device table, no noise, and the
    table's two-round readout.
    """
    if n_gates < 0:
        raise ValueError(f"n_gates must be non-negative, got {n_gates}")
    params = params or DeviceConfig.default().system_params()
    register = ModeRegister.standard(2)
    noise = noise or NoiseModel.none()
    readout = readout or DeviceConfig.default().readout(2)
    schedule = build_schedule(params, register)
    frame = extract_local_frame(codespace_block(ideal_unitary(schedule)))

    prep_c = dual_rail_rotation(register, CONTROL_CODE, "x", math.pi / 2).data
    prep_t = dual_rail_rotation(register, TARGET_CODE, "x", math.pi / 2).data
    wrong_c = dual_rail_phase(register, CONTROL_CODE, -frame.phi_control).data
    wrong_t = dual_rail_phase(register, TARGET_CODE, -frame.phi_target).data
    echo_u = (dual_rail_rotation(register, CONTROL_CODE, "x", math.pi).data
              @ dual_rail_rotation(register, TARGET_CODE, "x", math.pi).data)

    rho = DensityMatrix.basis_state(register, {CONTROL_CODE.rail0: 1, TARGET_CODE.rail0: 1}).data
    rho = prep_t @ prep_c @ rho @ prep_c.conj().T @ prep_t.conj().T
    echo_after = (n_gates - 1) // 2 if (n_gates >= 3 and n_gates % 2 == 1) else None
    gate = gate_superoperator(schedule, noise)
    for k in range(n_gates):
        rho = wrong_t @ wrong_c @ gate.apply(rho) @ wrong_c.conj().T @ wrong_t.conj().T
        if echo_after is not None and k + 1 == echo_after:
            rho = echo_u @ rho @ echo_u.conj().T

    outcome_pair = 3 * CONTROL_CODE.outcomes(register) + TARGET_CODE.outcomes(register)
    conf_c = readout.confusion_matrix(0)
    conf_t = readout.confusion_matrix(1)

    rot_c, rot_t = ({label: (dual_rail_rotation(register, code, *spec).data
                             if spec else np.eye(register.dim))
                     for label, spec in SETTINGS.items()}
                    for code in (CONTROL_CODE, TARGET_CODE))

    record = MeasurementRecord()
    for sc in SETTINGS:
        for st in SETTINGS:
            u = rot_t[st] @ rot_c[sc]
            rotated = u @ rho @ u.conj().T
            true_probs = np.clip(np.bincount(outcome_pair, weights=np.diag(rotated).real,
                                             minlength=9), 0.0, None).reshape(3, 3)
            observed = conf_c.T @ true_probs @ conf_t
            for i, oc in enumerate(OUTCOMES):
                for j, ot in enumerate(OUTCOMES):
                    record.add(sc, st, oc, ot, observed[i, j])
    return record


def psd_project(mat: np.ndarray, trace: float | None = None) -> np.ndarray:
    """Clip negative eigenvalues; renormalize to the requested trace."""
    herm = (mat + mat.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals) @ vecs.conj().T
    if trace is not None and out.trace().real > 1e-15:
        out = out * (trace / out.trace().real)
    return out


def _qubit_povm(label: str) -> dict[str, np.ndarray]:
    r = setting_unitary(label)
    return {"0": r.conj().T @ np.diag([1.0, 0.0]).astype(complex) @ r,
            "1": r.conj().T @ np.diag([0.0, 1.0]).astype(complex) @ r}


def reconstruct_state(record: MeasurementRecord, postselect: bool = True) -> DensityMatrix:
    """Two-qubit linear-inversion estimate from a measurement record.

    With postselect, erasure outcomes are dropped and each setting's
    codespace outcomes are renormalized, giving a unit-trace estimate;
    otherwise codespace frequencies stay referred to all shots and the
    returned state is subnormalized by the erasure fraction.
    """
    rows: list[np.ndarray] = []
    freqs: list[float] = []
    for sc, st in record.settings():
        total = record.total(sc, st)
        if total <= 0:
            continue
        if postselect:
            total = sum(record.counts.get((sc, st, oc, ot), 0.0)
                        for oc in ("0", "1") for ot in ("0", "1"))
            if total <= 0:
                continue
        povm_c, povm_t = _qubit_povm(sc), _qubit_povm(st)
        for oc in ("0", "1"):
            for ot in ("0", "1"):
                rows.append(np.kron(povm_c[oc], povm_t[ot]).conj().reshape(-1))
                freqs.append(record.counts.get((sc, st, oc, ot), 0.0) / total)
    design = np.array(rows)
    if np.linalg.matrix_rank(design) < 16:
        raise ValueError("measurement settings do not span the operator space")
    vec, *_ = np.linalg.lstsq(design, np.array(freqs), rcond=None)
    rho = vec.reshape(4, 4)
    rho = psd_project(rho, trace=1.0 if postselect else min(np.real(rho.trace()), 1.0))
    return DensityMatrix(QUBIT_PAIR, rho, validate=False)


def bell_metrics(rho: DensityMatrix | np.ndarray,
                 reference: np.ndarray | None = None) -> tuple[float, float]:
    """(fidelity, purity) against the circuit's ideal Bell state."""
    mat = rho.data if isinstance(rho, DensityMatrix) else rho
    ref = bell_state_ideal() if reference is None else reference
    fidelity = float(np.real(ref.conj() @ mat @ ref))
    purity = float(np.real(np.trace(mat @ mat)))
    return fidelity, purity


# --- process tomography ----------------------------------------------------

_PREP_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "+i": np.array([1, 1j], dtype=complex) / math.sqrt(2),
}


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

    inputs, outputs = [], []
    for ket in _PREP_KETS.values():
        rho_in = np.outer(ket, ket.conj())
        rho_out = channel.apply(rho_in)
        rows, freqs = [], []
        for label in SETTINGS:
            povm = _qubit_povm(label)
            probs = {o: float(np.real(np.trace(m @ rho_out))) for o, m in povm.items()}
            norm = sum(probs.values()) if postselect else 1.0
            if postselect and norm <= 0:
                raise ValueError("postselection annihilated a preparation")
            for o in ("0", "1"):
                rows.append(povm[o].conj().reshape(-1))
                freqs.append(probs[o] / norm)
        vec, *_ = np.linalg.lstsq(np.array(rows), np.array(freqs), rcond=None)
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


def simulated_leak_process(params: SystemParams | None = None,
                           control_prep: str = "1",
                           *,
                           points: int = 801) -> QuantumChannel:
    """Target-qubit map conditioned on a control-side erasure during one gate.

    A single loss jump (coupler or control-rail mode) is inserted on a time
    grid across the piecewise schedule, weighted by the jump rate and the
    mode occupancy at that instant, and the surviving target amplitudes are
    collected as Kraus operators.  control_prep selects the control state:
    "1" (photon in the swapped rail), "0" (photon in the idle rail), or
    "erased" (no photon; the returned map is then the unconditioned one).
    The result is subnormalized by the erasure probability.
    """
    params = params or DeviceConfig.default().system_params()
    register = ModeRegister.standard(2)
    schedule = build_schedule(params, register)
    hams = [(np.asarray(h.data, dtype=complex), d) for h, d, _ in schedule.segments]
    total = sum(d for _, d in hams)

    occ_c = {"1": (0, 1), "0": (1, 0), "erased": (0, 0)}
    if control_prep not in occ_c:
        raise ValueError(f"unknown control preparation {control_prep!r}")
    a1_n, a2_n = occ_c[control_prep]

    tgt_in = {"0": (1, 0), "1": (0, 1)}
    kets = {}
    for bit, (b1, b2) in tgt_in.items():
        v = np.zeros(register.dim, dtype=complex)
        v[register.basis_index((a1_n, a2_n, 0, b1, b2))] = 1.0
        kets[bit] = v
    out_rows = {"0": register.basis_index((0, 0, 0, 1, 0)),
                "1": register.basis_index((0, 0, 0, 0, 1))}

    if control_prep == "erased":
        u = ideal_unitary(schedule).data
        k = np.zeros((2, 2), dtype=complex)
        for j, bit_in in enumerate(("0", "1")):
            col = u @ kets[bit_in]
            for i, bit_out in enumerate(("0", "1")):
                k[i, j] = col[out_rows[bit_out]]
        return QuantumChannel(2, kraus=[k], validate=False)

    # Each whole segment is exponentiated once; a node only needs the two
    # pieces of the segment it falls in.
    whole = [expm(-1j * h * d) for h, d in hams]

    def split_unitaries(t: float) -> tuple[np.ndarray, np.ndarray]:
        before = np.eye(register.dim, dtype=complex)
        after = np.eye(register.dim, dtype=complex)
        left = t
        for (h, d), u in zip(hams, whole):
            if left >= d:
                before = u @ before
                left -= d
            elif left > 0:
                before = expm(-1j * h * left) @ before
                after = expm(-1j * h * (d - left)) @ after
                left = 0.0
            else:
                after = u @ after
        return before, after

    jump_specs = []
    for label in ("c", "a1", "a2"):
        t1 = params.t1.get(label, math.inf)
        if math.isfinite(t1):
            jump_specs.append((build_mode_operator(register, label, "annihilate").data,
                               1.0 / t1))

    times, weights = _simpson_grid(0.0, total, points)
    # Kraus operators per jump operator, joined jump by jump: the list order
    # fixes the summation order of every representation of the channel.
    per_jump: list[list[np.ndarray]] = [[] for _ in jump_specs]
    for t, w in zip(times, weights):
        before, after = split_unitaries(t)
        moved = [before @ kets[bit_in] for bit_in in ("0", "1")]
        for (jump_op, rate), found in zip(jump_specs, per_jump):
            k = np.zeros((2, 2), dtype=complex)
            hit = False
            for j, ket in enumerate(moved):
                col = after @ (jump_op @ ket)
                for i, bit_out in enumerate(("0", "1")):
                    k[i, j] = col[out_rows[bit_out]]
                hit = hit or bool(np.abs(col).max() > 1e-14)
            if hit:
                found.append(math.sqrt(rate * w) * k)
    kraus = [k for found in per_jump for k in found]
    if not kraus:
        raise ValueError("no erasure pathway for this preparation")
    return QuantumChannel(2, kraus=kraus, validate=False)


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
    u_dag = reference.conj().T
    v = np.array([[np.trace(em.conj().T @ en @ u_dag) / d for en in basis]
                  for em in basis])
    return v @ chi @ v.conj().T
