"""Per-gate error budget and coherence-limit scalings.

The budget partitions the output of one noisy gate, averaged with equal
weight over the four codespace basis inputs, into nine disjoint outcome
classes.  Five are photon-occupancy classes of the final state: loss of
the control photon, loss of the target photon, loss of both, the control
photon stuck in the coupler with the target intact, and a coupler
excitation with the target photon also gone.  The remaining codespace
weight is split between ``no_error`` and the three Z-type dephasing
classes in proportion to the matching chi-error diagonal entries of the
codespace-conditioned gate channel, referenced to the exact noiseless
gate so the deterministic local frame does not count as error.  (The
chi-error diagonal carries no measurable X/Y weight at the calibrated
operating point; renormalizing over the four Z-type entries makes the
nine classes an exact partition.)

Both are read off the whole-gate map (`lindblad.GateMap`): the channel
is its block of codespace columns and rows, the populations are its
diagonal rows of the four diagonal-unit columns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .channels import QuantumChannel
from .config import DeviceConfig
from .fock import ModeRegister
from .gate import (OCCUPANCY_CLASSES, SystemParams, build_schedule,
                   codespace_basis_indices, codespace_block, ideal_unitary,
                   occupancy_classes)
from .lindblad import NoiseModel, gate_superoperator
from .tomography import chi_error

__all__ = ["ErrorBudget", "CoherenceLimits", "compute_error_budget", "fundamental_limits"]

SUM_TOL = 1e-6

# Plain two-qubit Pauli labels are ordered lexicographically (II, IX, ...,
# ZZ) with the first letter acting on the control; the Z-type diagonal
# entries sit at these flat indices.
_IDX_II, _IDX_IZ, _IDX_ZI, _IDX_ZZ = 0, 3, 12, 15


@dataclass(frozen=True)
class ErrorBudget:
    """Probabilities of the disjoint per-gate outcome classes.

    All entries are nonnegative and sum to one (within ``SUM_TOL``); the
    five loss entries and the codespace weight come from occupancy
    classes of the gate output, the Z split from chi-error diagonals.
    """

    control_loss: float
    target_loss: float
    double_loss: float
    stuck_in_coupler: float
    lone_coupler_excitation: float
    control_z: float
    target_z: float
    zz: float
    no_error: float

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        total = self.total
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"budget entries sum to {total!r}, not 1")

    def as_dict(self) -> dict[str, float]:
        return asdict(self)

    @property
    def total(self) -> float:
        return float(sum(self.as_dict().values()))

    @property
    def erasure_total(self) -> float:
        """Everything heralded by an occupancy change."""
        return (self.control_loss + self.target_loss + self.double_loss
                + self.stuck_in_coupler + self.lone_coupler_excitation)


def compute_error_budget(config: DeviceConfig | SystemParams, *,
                         truncation: int = 2,
                         include_static_crosskerr: bool = False) -> ErrorBudget:
    """Propagate one gate through the master equation and partition the output.

    The occupancy classes average the four codespace basis inputs with
    equal weight; the Z split uses the full codespace-conditioned process.
    """
    p = config.system_params() if isinstance(config, DeviceConfig) else config
    register = ModeRegister.standard(truncation)
    schedule = build_schedule(p, register,
                              include_static_crosskerr=include_static_crosskerr)
    idx = np.searchsorted(schedule.sector, codespace_basis_indices(register)).tolist()

    gate = gate_superoperator(schedule, NoiseModel.from_params(p))
    # positions of the 16 codespace units |i><j| in column-stacking order
    position = {rc: k for k, rc in enumerate(zip(gate.rows.tolist(), gate.cols.tolist()))}
    code = [position[i, j] for j in idx for i in idx]
    s4 = gate.superop[np.ix_(code, code)]
    if register.dim > 64:
        # Known defect, recorded in perfbench/reference.json: Hermitizing the
        # image of a non-Hermitian unit |i><j| mixes in that of |j><i| and
        # spoils the truncation-3 Z split.  Its fix re-records the reference
        # and flips the strict xfail in tests/test_lindblad.py.
        blocks = s4.T.reshape(16, 4, 4)
        s4 = ((blocks + blocks.conj().transpose(0, 2, 1)) / 2).reshape(16, 16).T

    # output populations of the diagonal inputs; Hermitizing keeps them exact.
    # The four are weighted equally and added one by one, an order the
    # reported digits depend on.
    weights = np.full(4, 0.25)
    diagonal = gate.rows == gate.cols
    populations = np.zeros(schedule.sector.size)
    populations[gate.rows[diagonal]] = np.real(sum(
        w * gate.superop[diagonal, code[5 * k]] for k, w in enumerate(weights)))
    # bincount adds in basis-index order, so the class sums are reproducible
    pops = dict(zip(OCCUPANCY_CLASSES, np.bincount(
        occupancy_classes(register)[schedule.sector], weights=populations,
        minlength=len(OCCUPANCY_CLASSES))))
    code_mass = pops.pop("codespace")

    conditioned = QuantumChannel(4, superop=s4, validate=False)
    reference = codespace_block(register, ideal_unitary(schedule))
    chi_err = chi_error(conditioned.chi(), reference)
    diag = np.clip(np.real(np.diag(chi_err)), 0.0, None)
    z_diag = diag[[_IDX_II, _IDX_IZ, _IDX_ZI, _IDX_ZZ]]
    fractions = z_diag / z_diag.sum()

    clip = lambda v: max(0.0, float(v))
    return ErrorBudget(
        control_loss=clip(pops["control_loss"]),
        target_loss=clip(pops["target_loss"]),
        double_loss=clip(pops["double_loss"]),
        stuck_in_coupler=clip(pops["stuck_in_coupler"]),
        lone_coupler_excitation=clip(pops["lone_coupler_excitation"]),
        no_error=clip(code_mass * fractions[0]),
        target_z=clip(code_mass * fractions[1]),
        control_z=clip(code_mass * fractions[2]),
        zz=clip(code_mass * fractions[3]),
    )


@dataclass(frozen=True)
class CoherenceLimits:
    """Coherence-limit scalings of the four error classes, per gate up to
    order-one prefactors, plus the bound on the erasure-to-Z bias."""

    erasure_control: float
    erasure_target: float
    dephasing_control: float
    dephasing_target: float
    bias_bound: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def fundamental_limits(hybridization: float, anharmonicity: float,
                       t1_coupler: float, tphi_coupler: float) -> CoherenceLimits:
    """Error-rate scalings set by the coupler coherence and hybridization.

    With hybridization ``G`` of the interacting rail and coupler
    anharmonicity ``alpha`` (rad/us), the per-gate rates scale as

        erasure_control   ~ 1 / (G * alpha * T1)
        erasure_target    ~ 1 / (alpha * T1)
        dephasing_control ~ 1 / (G * alpha * Tphi)
        dephasing_target  ~ G / (alpha * Tphi)

    so weak hybridization buys target-side dephasing suppression at the
    cost of a slower gate (more control-side exposure), and the target's
    erasure-to-dephasing bias is bounded by 1/G^2.
    """
    if not 0.0 < hybridization <= 1.0:
        raise ValueError(f"hybridization must lie in (0, 1], got {hybridization}")
    for name, value in (("anharmonicity", anharmonicity),
                        ("t1_coupler", t1_coupler),
                        ("tphi_coupler", tphi_coupler)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    g = hybridization
    e1 = 1.0 / (anharmonicity * t1_coupler)
    z1 = 1.0 / (anharmonicity * tphi_coupler)
    return CoherenceLimits(
        erasure_control=e1 / g,
        erasure_target=e1,
        dephasing_control=z1 / g,
        dephasing_target=z1 * g,
        bias_bound=1.0 / g**2,
    )
