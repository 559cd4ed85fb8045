"""Open-system propagation of gate schedules under loss and dephasing.

Generators are vectorized with column stacking (vec(A X B) = (B^T kron A)
vec(X)) and exponentiated exactly per piecewise-constant segment.  The
dephasing dissipator is sqrt(2/Tphi) * n so that a lone dephasing channel
decays a Fock-adjacent coherence as exactly exp(-t/Tphi).

A gate is propagated on the sector of basis states holding at most two
photons, the photon count of two dual-rail qubits.  The segment
Hamiltonians conserve the total photon number N, loss lowers it by one
and dephasing keeps it, so the density-matrix block with N photons in
the rows and M in the columns feeds only itself and the (N-1, M-1) block
(the U(1) sector reduction of Buča & Prosen, NJP 14, 073007 (2012)).  A
state on the sector never leaves it, and restricting the generators to
it is exact: 16 of 32 basis states at truncation 2, 21 of 243 at 3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.linalg import expm

from .fock import DensityMatrix, ModeRegister, OperatorMatrix, build_mode_operator
from .gate import GateSchedule, SystemParams

__all__ = [
    "NoiseModel",
    "PropagationResult",
    "GateMap",
    "collapse_operators",
    "liouvillian",
    "propagate",
    "condition",
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
    """Whole-gate superoperator on the sector of at most SECTOR_PHOTONS.

    `superop` acts on the column-stacked block of a matrix on the
    register's basis indices `sector`.
    """

    register: ModeRegister
    sector: np.ndarray
    superop: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Gate output of a (not necessarily Hermitian) register matrix; raises
        if the input has weight outside the sector, which the map cannot carry."""
        d, n = self.register.dim, self.sector.size
        if rho.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {rho.shape}")
        block = np.ix_(self.sector, self.sector)
        inside = rho[block]
        if np.count_nonzero(inside) != np.count_nonzero(rho):
            raise ValueError(
                f"input has weight outside the sector of at most {SECTOR_PHOTONS} photons")
        out = np.zeros((d, d), dtype=complex)
        out[block] = (self.superop @ inside.reshape(-1, order="F")).reshape(n, n, order="F")
        return out


def gate_superoperator(schedule: GateSchedule, noise: NoiseModel) -> GateMap:
    """Whole-gate map: ordered product of the segment exponentials of the
    Liouvillian restricted to the sector of at most SECTOR_PHOTONS."""
    register = schedule.register
    photons = np.indices(register.dims).reshape(len(register.dims), -1).sum(axis=0)
    sector = np.flatnonzero(photons <= SECTOR_PHOTONS)
    block = np.ix_(sector, sector)
    leaving = np.ix_(np.flatnonzero(photons > SECTOR_PHOTONS), sector)
    collapse = [c[block] for c in collapse_operators(register, noise)]
    superop = np.eye(sector.size ** 2, dtype=complex)
    for h, dt, tag in schedule.segments:
        if np.any(h.data[leaving]):
            raise ValueError(f"segment {tag!r} does not conserve photon number")
        superop = expm(_generator(h.data[block], collapse) * dt) @ superop
    return GateMap(register, sector, superop)


def propagate(schedule: GateSchedule, noise: NoiseModel, rho0: DensityMatrix,
              partition: Mapping[str, OperatorMatrix] | None = None) -> PropagationResult:
    """One gate applied to rho0 through gate_superoperator's map."""
    if rho0.register != schedule.register:
        raise ValueError("input state register does not match the schedule")
    rho = gate_superoperator(schedule, noise).apply(rho0.data)
    rho = (rho + rho.conj().T) / 2  # strip numerical asymmetry from expm
    state = DensityMatrix(schedule.register, rho, validate=False)

    probs: dict[str, float] = {}
    if partition is not None:
        for name, proj in partition.items():
            probs[name] = float(np.real(np.trace(proj.data @ rho)))
    return PropagationResult(state=state, probabilities=probs,
                             elapsed=schedule.total_duration)


def condition(result: PropagationResult | DensityMatrix,
              projector: OperatorMatrix) -> tuple[DensityMatrix, float]:
    """Project and renormalize; returns (state, postselected fraction)."""
    state = result.state if isinstance(result, PropagationResult) else result
    p = projector.data
    if np.max(np.abs(p @ p - p)) > 1e-10:
        raise ValueError("projector is not idempotent")
    sub = p @ state.data @ p
    fraction = float(np.real(np.trace(sub)))
    if fraction < 1e-15:
        raise ValueError("conditioning on a null outcome (trace < 1e-15)")
    return DensityMatrix(state.register, sub / fraction, validate=False), fraction
