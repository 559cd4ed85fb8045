"""Open-system propagation of gate schedules under loss and dephasing.

Generators are vectorized with column stacking (vec(A X B) = (B^T kron A)
vec(X)) and exponentiated exactly per piecewise-constant segment.  The
dephasing dissipator is sqrt(2/Tphi) * n so that a lone dephasing channel
decays a Fock-adjacent coherence as exactly exp(-t/Tphi).

A gate is propagated on the sector of basis states holding at most two
photons, the photon count of two dual-rail qubits, and within it only on
the density-matrix entries whose row and column hold the same number of
photons.  The segment Hamiltonians conserve the total photon number N,
loss lowers it by one and dephasing keeps it, so the block with N photons
in the rows and M in the columns feeds only itself and the (N-1, M-1)
block: the generator commutes with rho -> [N, rho], the weak U(1)
symmetry of Buča & Prosen (NJP 14, 073007 (2012)).  The union of the
N = M blocks of the sector is therefore closed under the gate, and every
state or unit |i><j| with equal photon counts in i and j stays in it, so
restricting the generator to it is exact.  That keeps 126 of the 256
entries of the 16-state sector at truncation 2 and 251 of 441 (21
states) at truncation 3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.linalg import expm

from .fock import (HERMITICITY_TOL, DensityMatrix, ModeRegister, OperatorMatrix,
                   build_mode_operator)
from .gate import GateSchedule, SystemParams

__all__ = [
    "NoiseModel",
    "PropagationResult",
    "GateMap",
    "collapse_operators",
    "liouvillian",
    "propagate",
    "gate_superoperator",
]

# photons in two dual-rail qubits: the gate map acts on states with at most this many
SECTOR_PHOTONS = 2


@dataclass(frozen=True)
class NoiseModel:
    """Per-mode loss (1/T1) and white-noise dephasing (1/Tphi) rates, 1/µs."""

    loss: Mapping[str, float] = field(default_factory=dict)
    dephasing: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, rates in (("loss", self.loss), ("dephasing", self.dephasing)):
            for label, rate in rates.items():
                if rate < 0:
                    raise ValueError(f"{name}[{label!r}] must be >= 0, got {rate}")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls()

    @classmethod
    def from_params(cls, p: SystemParams) -> "NoiseModel":
        """1/T1 and 1/Tphi for every finite coherence time in the params."""
        loss = {m: 1.0 / t for m, t in p.t1.items() if math.isfinite(t)}
        deph = {m: 1.0 / t for m, t in p.tphi.items() if math.isfinite(t)}
        return cls(loss=loss, dephasing=deph)

    def restricted(self, *, loss_modes: set[str] | None = None,
                   dephasing_modes: set[str] | None = None) -> "NoiseModel":
        """Keep only the listed modes per channel (None keeps all)."""
        loss = {m: r for m, r in self.loss.items()
                if loss_modes is None or m in loss_modes}
        deph = {m: r for m, r in self.dephasing.items()
                if dephasing_modes is None or m in dephasing_modes}
        return NoiseModel(loss=loss, dephasing=deph)

    @property
    def is_trivial(self) -> bool:
        return not (any(self.loss.values()) or any(self.dephasing.values()))


def collapse_operators(register: ModeRegister, noise: NoiseModel) -> list[np.ndarray]:
    ops: list[np.ndarray] = []
    for label, kappa in noise.loss.items():
        if kappa > 0:
            a = build_mode_operator(register, label, "annihilate").data
            ops.append(math.sqrt(kappa) * a)
    for label, kphi in noise.dephasing.items():
        if kphi > 0:
            n = build_mode_operator(register, label, "number").data
            ops.append(math.sqrt(2.0 * kphi) * n)
    return ops


def _generator(hm: np.ndarray, collapse: list[np.ndarray]) -> np.ndarray:
    if np.max(np.abs(hm - hm.conj().T)) > 1e-10:
        raise ValueError("Hamiltonian must be Hermitian")
    ident = np.eye(hm.shape[0])
    gen = -1j * (np.kron(ident, hm) - np.kron(hm.T, ident))
    for c in collapse:
        cdc = c.conj().T @ c
        gen = gen + np.kron(c.conj(), c) - 0.5 * np.kron(ident, cdc) - 0.5 * np.kron(cdc.T, ident)
    return gen


def liouvillian(h: OperatorMatrix, noise: NoiseModel) -> np.ndarray:
    """Generator L with d(vec rho)/dt = L vec(rho) on the full register.

    Includes -i[H, .], loss dissipators per mode, and number-operator
    dephasing dissipators per mode.
    """
    return _generator(h.data, collapse_operators(h.register, noise))


@dataclass(frozen=True)
class PropagationResult:
    state: DensityMatrix
    probabilities: dict[str, float]
    elapsed: float


@dataclass(frozen=True, eq=False)
class GateMap:
    """Whole-gate superoperator on the photon-number-diagonal block of the
    sector of at most SECTOR_PHOTONS.

    `sector` lists the register's basis indices with at most SECTOR_PHOTONS
    photons.  `superop` acts on the vector of the entries (rows[k], cols[k])
    of a register matrix: the sector pairs whose row and column hold equal
    photon numbers, in column-stacking order.  The sector's other entries
    never feed these, and no input of the gate has weight on them (see the
    module docstring).
    """

    register: ModeRegister
    sector: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    superop: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Gate output of a (not necessarily Hermitian) register matrix; raises
        if the input has weight off the kept entries, which the map cannot
        carry."""
        d = self.register.dim
        if rho.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {rho.shape}")
        inside = rho[self.rows, self.cols]
        if np.count_nonzero(inside) != np.count_nonzero(rho):
            raise ValueError(
                f"input has weight outside the sector of at most {SECTOR_PHOTONS} "
                "photons or between different photon numbers")
        out = np.zeros((d, d), dtype=complex)
        out[self.rows, self.cols] = self.superop @ inside
        return out


def _block_generator(hm: np.ndarray, collapse: list[np.ndarray],
                     rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """_generator's entries between the matrix entries (rows[k], cols[k]).

    With A = -iH - K/2 and K = sum c^dag c the generator is
    I kron A + A^* kron I + sum c^* kron c, so the entry from (k, l) to
    (i, j) is delta_jl A_ik + delta_ik A^*_jl + sum c^*_jl c_ik: gathered
    here without forming any Kronecker product.
    """
    if np.max(np.abs(hm - hm.conj().T)) > 1e-10:
        raise ValueError("Hamiltonian must be Hermitian")
    a = -1j * hm
    for c in collapse:
        a = a - 0.5 * (c.conj().T @ c)
    i, j = rows[:, None], cols[:, None]  # output entry
    k, l = rows[None, :], cols[None, :]  # input entry
    gen = np.where(j == l, a[i, k], 0) + np.where(i == k, a.conj()[j, l], 0)
    for c in collapse:
        gen = gen + c.conj()[j, l] * c[i, k]
    return gen


def gate_superoperator(schedule: GateSchedule, noise: NoiseModel) -> GateMap:
    """Whole-gate map: ordered product of the segment exponentials of the
    Liouvillian restricted to the N = M entries of the sector of at most
    SECTOR_PHOTONS."""
    register = schedule.register
    photons = register.occupation_table.sum(axis=1)
    sector = np.flatnonzero(photons <= SECTOR_PHOTONS)
    block = np.ix_(sector, sector)
    # column-stacking order: the column index is the slow one
    cols, rows = np.nonzero(photons[sector][:, None] == photons[sector][None, :])
    # Hamiltonian entries from a sector state to a state of another photon count
    changing = photons[:, None] != photons[None, sector]
    collapse = [c[block] for c in collapse_operators(register, noise)]
    superop = np.eye(rows.size, dtype=complex)
    for h, dt, tag in schedule.segments:
        if np.any(h.data[:, sector][changing]):
            raise ValueError(f"segment {tag!r} does not conserve photon number")
        superop = expm(_block_generator(h.data[block], collapse, rows, cols) * dt) @ superop
    return GateMap(register, sector, sector[rows], sector[cols], superop)


def propagate(schedule: GateSchedule, noise: NoiseModel, rho0: DensityMatrix,
              partition: Mapping[str, OperatorMatrix] | None = None) -> PropagationResult:
    """One gate applied to rho0 through gate_superoperator's map; raises if
    the output's asymmetry, such as a non-Hermitian input leaves, exceeds
    HERMITICITY_TOL."""
    if rho0.register != schedule.register:
        raise ValueError("input state register does not match the schedule")
    rho = gate_superoperator(schedule, noise).apply(rho0.data)
    asymmetry = float(np.max(np.abs(rho - rho.conj().T)))
    if asymmetry > HERMITICITY_TOL:
        raise ValueError(f"gate output not Hermitian: max asymmetry {asymmetry:.3e}")
    rho = (rho + rho.conj().T) / 2  # strip the round-off asymmetry measured above
    state = DensityMatrix(schedule.register, rho, validate=False)

    probs: dict[str, float] = {}
    if partition is not None:
        for name, proj in partition.items():
            probs[name] = float(np.real(np.trace(proj.data @ rho)))
    return PropagationResult(state=state, probabilities=probs,
                             elapsed=schedule.total_duration)
