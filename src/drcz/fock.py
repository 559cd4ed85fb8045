"""Bosonic mode registers, Fock-space operators, states, and dual-rail codes.

Everything is dense: the largest register used anywhere is five modes at
truncation 3 (total dimension 243), far below any scale where sparsity pays.
All containers are immutable after construction; functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "ModeRegister",
    "OperatorMatrix",
    "DensityMatrix",
    "DualRailCode",
    "build_mode_operator",
    "codespace_projector",
]

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = -1e-10
TRACE_TOL = 1e-12
# DualRailCode.outcomes label of a pattern that is neither logical state
ERASURE = 2


@dataclass(frozen=True)
class ModeRegister:
    """Ordered set of bosonic modes with per-mode truncation.

    The tensor-product Hilbert space follows the listed order: the first
    mode is the slowest index (leftmost Kronecker factor). The canonical
    five-mode register is (a1, a2, c, b1, b2) with kets written
    |a1, a2, c, b1, b2>.
    """

    modes: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.modes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels in {labels}")
        for label, dim in self.modes:
            if dim < 2:
                raise ValueError(f"mode {label!r} needs dim >= 2, got {dim}")

    @classmethod
    def standard(cls, dim: int = 2) -> "ModeRegister":
        """The five-mode register (a1, a2, c, b1, b2), uniform truncation."""
        return cls(tuple((label, dim) for label in ("a1", "a2", "c", "b1", "b2")))

    @classmethod
    def from_dims(cls, labels: Sequence[str], dims: int | Sequence[int]) -> "ModeRegister":
        if isinstance(dims, int):
            dims = [dims] * len(labels)
        return cls(tuple(zip(labels, dims)))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.modes)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.modes)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension (product of mode dims)."""
        return math.prod(self.dims)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown mode label {label!r}; register has {self.labels}") from None

    def basis_index(self, occupations: Sequence[int] | Mapping[str, int]) -> int:
        """Flat index of the Fock product state with the given occupations.

        Accepts either a full occupation sequence in register order or a
        mapping from labels to occupations (unlisted modes default to 0).
        """
        occ = self._occ_tuple(occupations)
        idx = 0
        for n, d in zip(occ, self.dims):
            if not 0 <= n < d:
                raise ValueError(f"occupation {n} out of range for dim {d}")
            idx = idx * d + n
        return idx

    def basis_state(self, occupations: Sequence[int] | Mapping[str, int]) -> np.ndarray:
        """State vector |n1, n2, ...> for the given occupations."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.basis_index(occupations)] = 1.0
        return vec

    @cached_property
    def occupation_table(self) -> np.ndarray:
        """Read-only (dim, n_modes) array whose row k is occupations(k)."""
        table = np.indices(self.dims).reshape(len(self.dims), -1).T.copy()
        table.flags.writeable = False
        return table

    def occupations(self, flat_index: int) -> tuple[int, ...]:
        """Inverse of basis_index."""
        occ = []
        for d in reversed(self.dims):
            occ.append(flat_index % d)
            flat_index //= d
        return tuple(reversed(occ))

    def _occ_tuple(self, occupations: Sequence[int] | Mapping[str, int]) -> tuple[int, ...]:
        if isinstance(occupations, Mapping):
            unknown = set(occupations) - set(self.labels)
            if unknown:
                raise KeyError(f"unknown mode labels {sorted(unknown)}")
            return tuple(int(occupations.get(label, 0)) for label in self.labels)
        occ = tuple(int(n) for n in occupations)
        if len(occ) != len(self.modes):
            raise ValueError(f"expected {len(self.modes)} occupations, got {len(occ)}")
        return occ


def _single_mode_matrix(dim: int, kind: str) -> np.ndarray:
    if kind == "annihilate":
        return np.diag(np.sqrt(np.arange(1, dim)).astype(complex), k=1)
    if kind == "number":
        return np.diag(np.arange(dim).astype(complex))
    if kind == "identity":
        return np.eye(dim, dtype=complex)
    raise ValueError(f"unsupported operator kind {kind!r}")


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator tagged with the register it acts on."""

    register: ModeRegister
    data: np.ndarray

    def __post_init__(self) -> None:
        d = self.register.dim
        if self.data.shape != (d, d):
            raise ValueError(f"operator shape {self.data.shape} != register dim {d}")

    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.register, self.data.conj().T)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.register != self.register:
            raise ValueError("operators act on different registers")
        return OperatorMatrix(self.register, self.data @ other.data)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.register != self.register:
            raise ValueError("operators act on different registers")
        return OperatorMatrix(self.register, self.data + other.data)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.register, complex(scalar) * self.data)


def build_mode_operator(register: ModeRegister, label: str, kind: str) -> OperatorMatrix:
    """Single-mode operator embedded in the register's tensor space.

    kind is one of {"annihilate", "number", "identity"}; the operator acts
    on the named mode and as identity on every other mode, with Kronecker
    factors taken in register order.
    """
    target = register.index(label)
    out = np.eye(1, dtype=complex)
    for i, (_, dim) in enumerate(register.modes):
        factor = _single_mode_matrix(dim, kind) if i == target else np.eye(dim, dtype=complex)
        out = np.kron(out, factor)
    return OperatorMatrix(register, out)


class DensityMatrix:
    """Validated density matrix; trace may be < 1 after conditioning."""

    def __init__(self, register: ModeRegister, data: np.ndarray, *, validate: bool = True):
        data = np.asarray(data, dtype=complex)
        if data.shape != (register.dim, register.dim):
            raise ValueError(f"density matrix shape {data.shape} != register dim {register.dim}")
        if validate:
            herm = np.max(np.abs(data - data.conj().T))
            if herm > HERMITICITY_TOL:
                raise ValueError(f"density matrix not Hermitian: max asymmetry {herm:.3e}")
            eigmin = float(np.min(np.linalg.eigvalsh((data + data.conj().T) / 2)))
            if eigmin < POSITIVITY_TOL:
                raise ValueError(f"density matrix not PSD: min eigenvalue {eigmin:.3e}")
            tr = float(np.real(np.trace(data)))
            if not -TRACE_TOL <= tr <= 1.0 + TRACE_TOL:
                raise ValueError(f"density matrix trace {tr} outside [0, 1]")
        self.register = register
        self.data = data

    @classmethod
    def from_state_vector(cls, register: ModeRegister, vec: np.ndarray) -> "DensityMatrix":
        vec = np.asarray(vec, dtype=complex)
        return cls(register, np.outer(vec, vec.conj()))

    @classmethod
    def basis_state(cls, register: ModeRegister,
                    occupations: Sequence[int] | Mapping[str, int]) -> "DensityMatrix":
        return cls.from_state_vector(register, register.basis_state(occupations))

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.data)))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.data @ self.data)))

    def normalized(self) -> "DensityMatrix":
        tr = self.trace
        if tr <= 0:
            raise ValueError("cannot normalize a zero-trace state")
        return DensityMatrix(self.register, self.data / tr)


@dataclass(frozen=True)
class DualRailCode:
    """One dual-rail qubit: a photon shared between two named rails.

    Logical |0_L> has the photon in `rail0`, |1_L> in `rail1` (the Fig.-1c
    photon-position convention |0_L>=|10>, |1_L>=|01>). Any other photon
    pattern on the pair is leakage; the vacuum |00> is the dominant,
    erasure-detectable one.
    """

    rail0: str
    rail1: str

    @property
    def labels(self) -> tuple[str, str]:
        return (self.rail0, self.rail1)

    def logical_occupations(self, bit: int) -> dict[str, int]:
        if bit not in (0, 1):
            raise ValueError("logical bit must be 0 or 1")
        return {self.rail0: 1 - bit, self.rail1: bit}

    def outcomes(self, register: ModeRegister) -> np.ndarray:
        """Readout of every basis state: 0 for the photon pattern (1, 0) on
        (rail0, rail1), 1 for (0, 1), ERASURE for any other pattern."""
        occ = register.occupation_table
        n0, n1 = occ[:, register.index(self.rail0)], occ[:, register.index(self.rail1)]
        out = np.full(register.dim, ERASURE)
        out[(n0 == 1) & (n1 == 0)] = 0
        out[(n0 == 0) & (n1 == 1)] = 1
        return out


def codespace_projector(register: ModeRegister, codes: Sequence[DualRailCode],
                        coupler_label: str | None = None) -> OperatorMatrix:
    """Projector onto one photon per dual-rail with the coupler in ground.

    Rank is 2 per code (4 for the standard two-qubit register). Modes not
    mentioned in any code and not the coupler are unconstrained.
    """
    used: list[str] = []
    for code in codes:
        used.extend(code.labels)
    if len(set(used)) != len(used):
        raise ValueError("dual-rail codes share a mode")
    if coupler_label is not None and coupler_label in used:
        raise ValueError("coupler mode cannot belong to a dual-rail code")

    keep = np.ones(register.dim, dtype=bool)
    for code in codes:
        keep &= code.outcomes(register) != ERASURE
    if coupler_label is not None:
        keep &= register.occupation_table[:, register.index(coupler_label)] == 0
    return OperatorMatrix(register, np.diag(keep.astype(complex)))
