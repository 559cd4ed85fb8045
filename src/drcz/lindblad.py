"""Open-system propagation of gate schedules under loss and dephasing.

Generators are vectorized with column stacking (vec(A X B) = (B^T kron A)
vec(X)) and exponentiated exactly per piecewise-constant segment.  The
dephasing dissipator is sqrt(2/Tphi) * n so that a lone dephasing channel
decays a Fock-adjacent coherence as exactly exp(-t/Tphi).

A gate is propagated on the schedule's dual-rail space
(`gate.GateSchedule`), the 12 basis states where each qubit holds at
most one photon, and within it only on the density-matrix entries whose
row and column hold the same photons in each qubit.  The segment
Hamiltonians keep each qubit's photon count (`GateSchedule` refuses one
that moves a photon between the qubits), loss lowers one count by one
and dephasing keeps both, so the block with counts (N_c, N_t) in the rows
and (M_c, M_t) in the columns feeds only itself and the blocks one
photon lower on both sides in one qubit: the generator commutes with
rho -> [N_c, rho] and rho -> [N_t, rho], the weak U(1) symmetries of
Buča & Prosen (NJP 14, 073007 (2012)).  The union of the equal-count
blocks is therefore closed under the gate, and every state or unit
|i><j| with equal counts in i and j stays in it, so restricting the
generator to it is exact.  That keeps 50 of the 144 entries of the space
at every truncation.  The segment Hamiltonians and the collapse
operators are built on the space, so no register-size matrix enters the
map, and `GateMap` takes and returns matrices on the space, by position.

Within the kept entries the map is a direct sum over the connected
components of the generators' joint nonzero pattern, taken over all
three segments.  Entries of different components are structurally zero
in every segment's generator, so each segment's exponential, and the
product of the three, is block diagonal with the same blocks: building
the map block by block is exact, not an approximation.  The blocks are
found from the pattern, not assumed; for the swap-wait-swap schedule they
are the weak symmetries of three more conserved charges (n_a1, n_b1 and
n_b2): four blocks of 2 entries, four of 6 and one of 18 at every
truncation.  One stacked exponential runs per block size and segment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .fock import ModeRegister
from .gate import (GateSchedule, SystemParams, _connected_blocks, _qubit_photons,
                   _space_operator)

__all__ = [
    "NoiseModel",
    "GateMap",
    "collapse_operators",
    "gate_superoperator",
]

def expm(a):
    """scipy.linalg.expm, imported on first use so `import drcz` loads no scipy."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


@dataclass(frozen=True)
class NoiseModel:
    """Per-mode loss (1/T1) and white-noise dephasing (1/Tphi) rates, 1/µs."""

    loss: Mapping[str, float] = field(default_factory=dict)
    dephasing: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, rates in (("loss", self.loss), ("dephasing", self.dephasing)):
            for label, rate in rates.items():
                try:
                    valid = 0 <= rate < math.inf
                except TypeError:  # not a number
                    valid = False
                if not valid:
                    raise ValueError(f"{name}[{label!r}] must be >= 0 and finite, got {rate!r}")

    @classmethod
    def from_params(cls, p: SystemParams) -> "NoiseModel":
        """1/T1 and 1/Tphi for every finite coherence time in the params."""
        loss = {m: 1.0 / t for m, t in p.t1.items() if math.isfinite(t)}
        deph = {m: 1.0 / t for m, t in p.tphi.items() if math.isfinite(t)}
        return cls(loss=loss, dephasing=deph)


def collapse_operators(register: ModeRegister, noise: NoiseModel) -> list[np.ndarray]:
    """Loss and dephasing operators on the register's dual-rail space, the
    states of `GateSchedule.sector`."""
    ops: list[np.ndarray] = []
    for label, kappa in noise.loss.items():
        if kappa > 0:
            ops.append(math.sqrt(kappa) * _space_operator(register, label, "annihilate"))
    for label, kphi in noise.dephasing.items():
        if kphi > 0:
            ops.append(math.sqrt(2.0 * kphi) * _space_operator(register, label, "number"))
    return ops


@dataclass(frozen=True, eq=False)
class GateMap:
    """Whole-gate superoperator on the photon-count-diagonal entries of the
    dual-rail space.

    `sector` lists the register's basis indices of the dual-rail space, and
    a matrix on the space is indexed by position in it.  `superop` acts on
    the vector of the entries (rows[k], cols[k]) of such a matrix: the
    positions whose states hold the same photons in each qubit, in
    column-stacking order.  The space's other entries never feed these, and
    no input of the gate has weight on them.  `superop` is block diagonal
    over the connected components of the segment generators, with exact
    zeros between blocks (see the module docstring).
    """

    sector: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    superop: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Gate output of a (not necessarily Hermitian) matrix on the space;
        raises if the input has weight off the kept entries, which the map
        cannot carry."""
        d = self.sector.size
        if rho.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix on the dual-rail space, "
                             f"got shape {rho.shape}")
        inside = rho[self.rows, self.cols]
        if np.count_nonzero(inside) != np.count_nonzero(rho):
            raise ValueError("input has weight outside the map's entries, between "
                             "states with different photon counts in a qubit")
        out = np.zeros((d, d), dtype=complex)
        out[self.rows, self.cols] = self.superop @ inside
        return out


def _drift(hm: np.ndarray, collapse: list[np.ndarray]) -> np.ndarray:
    """A = -iH - K/2 with K = sum c^dag c, the part of the generator that acts
    on one side of rho; raises unless H is Hermitian."""
    if np.max(np.abs(hm - hm.conj().T)) > 1e-10:
        raise ValueError("Hamiltonian must be Hermitian")
    a = -1j * hm
    for c in collapse:
        a = a - 0.5 * (c.conj().T @ c)
    return a


def _block_generator(a: np.ndarray, collapse: list[np.ndarray],
                     rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries of the generator L, d(vec rho)/dt = L vec(rho), between the
    matrix entries (rows[..., k], cols[..., k]); leading axes of the index
    arrays stack blocks.

    L holds -i[H, .] and one dissipator per collapse operator c.  With the
    drift A = -iH - K/2 (`_drift`) it is I kron A + A^* kron I +
    sum c^* kron c, so the entry from (k, l) to (i, j) is
    delta_jl A_ik + delta_ik A^*_jl + sum c^*_jl c_ik: gathered here without
    forming any Kronecker product.
    """
    i, j = rows[..., :, None], cols[..., :, None]  # output entry
    k, l = rows[..., None, :], cols[..., None, :]  # input entry
    gen = np.where(j == l, a[i, k], 0) + np.where(i == k, a.conj()[j, l], 0)
    for c in collapse:
        gen = gen + c.conj()[j, l] * c[i, k]
    return gen


def _generator_blocks(drifts: list[np.ndarray], collapse: list[np.ndarray],
                      rows: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Connected components of the entries (rows[k], cols[k]) that any of the
    drifts' generators links, as index arrays grouped by size
    (`gate._connected_blocks`).  Gathered from 0/1 indicators the generator
    has no cancellations, so its nonzeros are exactly the linked pairs."""
    linked = _block_generator(sum((a != 0) * 1.0 for a in drifts),
                              [(c != 0) * 1.0 for c in collapse], rows, cols) != 0
    return _connected_blocks(linked | linked.T)


def gate_superoperator(schedule: GateSchedule, noise: NoiseModel) -> GateMap:
    """Whole-gate map: ordered product of the segment exponentials of the
    Liouvillian restricted to the equal-count entries of the dual-rail
    space, built block by block."""
    register, sector = schedule.register, schedule.sector
    photons = _qubit_photons(register)[sector]
    # column-stacking order: the column index is the slow one
    cols, rows = np.nonzero((photons[:, None] == photons[None, :]).all(axis=2))
    collapse = collapse_operators(register, noise)
    drifts = [_drift(h, collapse) for h, _, _ in schedule.segments]
    superop = np.zeros((rows.size, rows.size), dtype=complex)
    for idx in _generator_blocks(drifts, collapse, rows, cols):
        product = np.eye(idx.shape[1], dtype=complex)
        for a, (_, dt, _) in zip(drifts, schedule.segments):
            product = expm(_block_generator(a, collapse, rows[idx], cols[idx]) * dt) @ product
        superop[idx[:, :, None], idx[:, None, :]] = product
    return GateMap(sector, rows, cols, superop)
