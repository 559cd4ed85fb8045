"""Quantum channels with Kraus / process-matrix / superoperator views.

Conventions used throughout:
  * vec() is column-stacking, so vec(A X B) = (B^T kron A) vec(X).
  * The process (chi) matrix is taken over the plain (unnormalized) Pauli
    strings {B_m}, Tr(B_m^dag B_n) = d * delta_mn, with
    E(rho) = sum_mn chi_mn B_m rho B_n^dag.  A trace-preserving channel
    then has trace(chi) = 1.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "QuantumChannel",
    "pauli_basis",
    "pauli_labels",
    "CP_TOL",
]

CP_TOL = -1e-8
TP_TOL = 1e-10
ROUNDTRIP_TOL = 1e-10

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@lru_cache(maxsize=None)
def pauli_labels(n_qubits: int) -> tuple[str, ...]:
    return tuple("".join(p) for p in itertools.product("IXYZ", repeat=n_qubits))


@lru_cache(maxsize=None)
def pauli_basis(n_qubits: int) -> tuple[np.ndarray, ...]:
    """Plain (unnormalized) Pauli strings, ordered I..Z lexicographically.

    The arrays are cached and shared by every caller, so they are
    read-only."""
    mats = []
    for label in pauli_labels(n_qubits):
        m = np.eye(1, dtype=complex)
        for ch in label:
            m = np.kron(m, _PAULI_1Q[ch])
        m.setflags(write=False)
        mats.append(m)
    return tuple(mats)


def _superop_from_kraus(kraus: Sequence[np.ndarray]) -> np.ndarray:
    d = kraus[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus:
        s += np.kron(k.conj(), k)
    return s


def _choi_from_superop(superop: np.ndarray) -> np.ndarray:
    # S[(j,i),(n,m)] -> J[(m,i),(n,j)]
    d2 = superop.shape[0]
    d = int(round(np.sqrt(d2)))
    s4 = superop.reshape(d, d, d, d)
    return s4.transpose(3, 1, 2, 0).reshape(d2, d2)


def _kraus_from_choi(choi: np.ndarray, *, tol: float = 1e-12) -> tuple[list[np.ndarray], float]:
    """Eigendecompose the Choi matrix; returns (kraus list, min eigenvalue)."""
    d2 = choi.shape[0]
    d = int(round(np.sqrt(d2)))
    herm = (choi + choi.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    kraus = []
    for lam, v in zip(vals, vecs.T):
        if lam > tol:
            kraus.append(np.sqrt(lam) * v.reshape(d, d).T)
    if not kraus:
        kraus.append(np.zeros((d, d), dtype=complex))
    return kraus, float(vals.min())


@lru_cache(maxsize=None)
def _chi_gather(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each chi entry reads the superoperator S.

    chi_mn = Tr(P^dag S) / d^2 with the probe P = kron(B_n^*, B_m).  A Pauli
    probe has one nonzero entry per column i, at row r_i, so the trace is
    the sum over i of conj(P[r_i, i]) S[r_i, i].  Row (m, n) of the table
    (flattened, m major) holds the flat indices r_i * d^2 + i into S and the
    phases conj(P[r_i, i]), in the order np.trace walks the diagonal."""
    basis = pauli_basis(n_qubits)
    cols = np.arange(4 ** n_qubits)
    rows, phases = [], []
    for bm in basis:
        for bn in basis:
            probe = np.kron(bn.conj(), bm)
            hit = np.argmax(probe != 0, axis=0)
            rows.append(hit * cols.size + cols)
            phases.append(probe[hit, cols].conj())
    rows, phases = np.array(rows), np.array(phases)
    rows.setflags(write=False)
    phases.setflags(write=False)
    return rows, phases


def _chi_from_superop(superop: np.ndarray, n_qubits: int) -> np.ndarray:
    d2 = superop.shape[0]
    rows, phases = _chi_gather(n_qubits)
    return ((phases * superop.flat[rows]).sum(axis=1) / d2).reshape(d2, d2)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


class QuantumChannel:
    """A completely positive map, possibly trace-decreasing.

    Construct from exactly one of `kraus` or `superop`; the other, the
    Choi matrix and (for a power-of-two dimension) the process matrix over
    the plain Pauli strings are derived on demand.  Kraus operators
    recovered from the Choi matrix reproduce the superoperator to 1e-10.
    """

    def __init__(self, dim: int, *, kraus: Sequence[np.ndarray] | None = None,
                 superop: np.ndarray | None = None, validate: bool = True):
        if (kraus is None) == (superop is None):
            raise ValueError("provide exactly one of kraus, superop")
        self.dim = dim
        # private read-only copies: every representation built later, and the
        # cached diagnostics, stay images of the one given
        self._kraus = None if kraus is None else tuple(_frozen(k) for k in kraus)
        self._superop = None if superop is None else _frozen(superop)
        if self._kraus is not None:
            for k in self._kraus:
                if k.shape != (dim, dim):
                    raise ValueError(f"Kraus operator shape {k.shape} != ({dim}, {dim})")
        if self._superop is not None and self._superop.shape != (dim * dim, dim * dim):
            raise ValueError("superoperator has wrong shape")
        self._cp_defect: float | None = None
        if validate:
            self._validate()

    def _n_qubits(self) -> int:
        n = int(round(np.log2(self.dim)))
        if 2**n != self.dim:
            raise ValueError(f"no Pauli operator basis for non-qubit dimension {self.dim}")
        return n

    def _validate(self) -> None:
        defect = self.cp_defect
        if defect < CP_TOL:
            raise ValueError(f"channel is not CP: Choi min eigenvalue {defect:.3e}")
        comp = self.completeness_defect
        if comp > TP_TOL:
            raise ValueError(f"Kraus completeness sum exceeds identity by {comp:.3e}")

    # --- representations -------------------------------------------------

    @property
    def superop(self) -> np.ndarray:
        if self._superop is None:
            self._superop = _superop_from_kraus(self._kraus)
            self._superop.setflags(write=False)
        return self._superop

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        if self._kraus is None:
            ops, _ = _kraus_from_choi(_choi_from_superop(self.superop))
            for k in ops:
                k.setflags(write=False)
            self._kraus = tuple(ops)
        return self._kraus

    @property
    def choi(self) -> np.ndarray:
        return _choi_from_superop(self.superop)

    def chi(self) -> np.ndarray:
        """Process matrix over the plain Pauli strings."""
        return _chi_from_superop(self.superop, self._n_qubits())

    # --- diagnostics ------------------------------------------------------

    @property
    def cp_defect(self) -> float:
        """Min eigenvalue of the Choi matrix (negative means non-CP)."""
        if self._cp_defect is None:
            if self._superop is None:
                self._cp_defect = 0.0  # Kraus form is CP by construction
            else:
                vals = np.linalg.eigvalsh((self.choi + self.choi.conj().T) / 2)
                self._cp_defect = float(vals.min())
        return self._cp_defect

    @property
    def completeness(self) -> np.ndarray:
        """sum_k K_k^dag K_k; equals identity for trace-preserving maps."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k in self.kraus:
            out += k.conj().T @ k
        return out

    @property
    def completeness_defect(self) -> float:
        """Largest eigenvalue of (sum K^dag K - I); > 0 means super-normalized."""
        vals = np.linalg.eigvalsh(self.completeness - np.eye(self.dim))
        return float(vals.max())

    @property
    def is_trace_preserving(self) -> bool:
        return bool(np.max(np.abs(self.completeness - np.eye(self.dim))) < 1e-9)

    # --- actions ----------------------------------------------------------

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        vec = rho.reshape(-1, order="F")
        out = self.superop @ vec
        return out.reshape(self.dim, self.dim, order="F")

    def compose(self, earlier: "QuantumChannel") -> "QuantumChannel":
        """Channel equal to `self` applied after `earlier`."""
        return QuantumChannel(self.dim, superop=self.superop @ earlier.superop,
                              validate=False)

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        return cls(dim, kraus=[np.eye(dim, dtype=complex)])
