"""Swap-wait-swap controlled-Z gate: schedule, timing/phase parameters, ideal unitary.

The gate moves the control qubit's inner-rail photon into the coupler,
lets a dispersive shift imprint a target-conditioned phase, and swaps the
photon back with a shifted pump phase.  All rates are angular (rad/µs);
device sheets in MHz enter through `from_mhz` exactly once, and the
measured device values come from `drcz.config.DeviceConfig`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .fock import ERASURE, DualRailCode, ModeRegister, OperatorMatrix, build_mode_operator

__all__ = [
    "SystemParams",
    "GateSchedule",
    "LocalFrame",
    "derive_gate_params",
    "build_schedule",
    "ideal_unitary",
    "extract_local_frame",
    "on_off_ratio",
    "codespace_basis_indices",
    "codespace_block",
    "wrap_angle",
    "CONTROL_CODE",
    "TARGET_CODE",
    "COUPLER",
    "OCCUPANCY_CLASSES",
    "occupancy_classes",
]

TWO_PI = 2.0 * math.pi

CONTROL_CODE = DualRailCode("a1", "a2")
TARGET_CODE = DualRailCode("b1", "b2")
COUPLER = "c"

# photon-occupancy classes of a two-qubit basis state, by occupancy_classes label
OCCUPANCY_CLASSES = ("codespace", "control_loss", "target_loss", "double_loss",
                     "stuck_in_coupler", "lone_coupler_excitation")


def occupancy_classes(register: ModeRegister) -> np.ndarray:
    """Index into OCCUPANCY_CLASSES of every basis state of the register.

    A coupler holding any photon is stuck_in_coupler while the target reads
    0 or 1 and lone_coupler_excitation otherwise.  With the coupler empty
    the state is codespace, control_loss, target_loss or double_loss by
    which of the two dual-rail qubits reads erasure.
    """
    control_erased = CONTROL_CODE.outcomes(register) == ERASURE
    target_erased = TARGET_CODE.outcomes(register) == ERASURE
    coupler = register.occupation_table[:, register.index(COUPLER)] > 0
    return np.where(coupler, 4 + target_erased, control_erased + 2 * target_erased)


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.remainder(theta, TWO_PI)
    return math.pi if w <= -math.pi else w


@dataclass(frozen=True)
class SystemParams:
    """Device rates (rad/µs) and coherence times (µs).

    chi_bc couples the target inner rail b1 to the coupler; chi_ac and
    chi_ab are the residual static cross-Kerrs; g_ac is the full swap
    rate between a2 and the coupler.  t1/tphi map mode labels to times;
    use math.inf to disable a decay channel.
    """

    chi_bc: float
    chi_ac: float
    chi_ab: float
    g_ac: float
    t1: Mapping[str, float] = field(default_factory=dict)
    tphi: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.g_ac <= 0:
            raise ValueError("g_ac must be positive (phase convention absorbs sign)")
        if self.chi_bc == 0:
            raise ValueError("chi_bc must be nonzero")
        for name, table in (("t1", self.t1), ("tphi", self.tphi)):
            for label, t in table.items():
                if not t > 0:
                    raise ValueError(f"{name}[{label!r}] must be positive, got {t}")

    @classmethod
    def from_mhz(cls, *, chi_bc: float, chi_ac: float = 0.0, chi_ab: float = 0.0,
                 g_ac: float, t1: Mapping[str, float] | None = None,
                 tphi: Mapping[str, float] | None = None) -> "SystemParams":
        """Build from linear-frequency rates in MHz (nu, not omega)."""
        return cls(chi_bc=TWO_PI * chi_bc, chi_ac=TWO_PI * chi_ac,
                   chi_ab=TWO_PI * chi_ab, g_ac=TWO_PI * g_ac,
                   t1=dict(t1 or {}), tphi=dict(tphi or {}))


@dataclass(frozen=True)
class GateSchedule:
    """Three piecewise-constant segments: swap-in, wait, swap-back."""

    register: ModeRegister
    segments: tuple[tuple[OperatorMatrix, float, str], ...]
    t_swap: float
    t_wait: float
    phi_swap: float
    includes_static_crosskerr: bool = False

    def __post_init__(self) -> None:
        tags = tuple(tag for _, _, tag in self.segments)
        if tags != ("swap1", "wait", "swap2"):
            raise ValueError(f"expected segment tags (swap1, wait, swap2), got {tags}")
        if any(dt <= 0 for _, dt, _ in self.segments):
            raise ValueError("segment durations must be positive")

    @property
    def total_duration(self) -> float:
        return sum(dt for _, dt, _ in self.segments)


@dataclass(frozen=True)
class LocalFrame:
    """Deterministic single-qubit Z phases and the entangling phase (rad)."""

    phi_target: float
    phi_control: float
    phi_e: float


def derive_gate_params(p: SystemParams) -> tuple[float, float, float]:
    """Closed-form (t_swap, t_wait, phi_swap) for the swap-wait-swap sequence.

    t_swap = pi/g, t_wait = pi/|chi| - pi/g.  The swap-back pump phase is
    phi_swap = chi*t_wait + 2*arctan(-(Omega/chi) cot(Omega t_swap / 2))
    with Omega = sqrt(g^2 + chi^2); the principal arctan branch lands on
    the return solution in the device regime Omega*t_swap in (pi, 2pi).
    The numeric sweep in the calibration module is authoritative if the
    closed form ever disagrees.
    """
    g, chi = p.g_ac, p.chi_bc
    t_swap = math.pi / g
    t_wait = math.pi / abs(chi) - t_swap
    if t_wait <= 0:
        raise ValueError(
            f"parameter regime requires g_ac > |chi_bc| for a positive wait "
            f"(g={g:.4g}, |chi|={abs(chi):.4g} rad/µs)")
    omega = math.hypot(g, chi)
    half = omega * t_swap / 2.0
    if abs(math.sin(half)) < 1e-12:
        raise ValueError("Omega*t_swap is a multiple of 2*pi; pump phase undefined")
    phi = chi * t_wait + 2.0 * math.atan(-(omega / chi) / math.tan(half))
    return t_swap, t_wait, wrap_angle(phi)


def _tracked_pump_phase(p: SystemParams, t_wait: float) -> float:
    """Calibrated swap-back pump phase for a wait of t_wait: it tracks the
    wait duration linearly, at the coupler-target dispersive rate."""
    _, t_wait_cal, phi_swap_cal = derive_gate_params(p)
    return wrap_angle(phi_swap_cal + p.chi_bc * (t_wait - t_wait_cal))


def build_schedule(p: SystemParams, register: ModeRegister, *,
                   include_static_crosskerr: bool = False,
                   t_wait: float | None = None,
                   phi_swap: float | None = None) -> GateSchedule:
    """Assemble the three segment Hamiltonians on the given register.

    Needs modes a2, c, b1.  With include_static_crosskerr the always-on
    chi_ac*n_a2*n_c and chi_ab*n_a2*n_b1 terms are added to every segment
    (used for on-off-ratio studies); the default model omits them.
    t_wait and phi_swap default to the calibrated values; calibration
    sweeps override them to probe miscalibrated schedules.
    """
    for label in ("a2", "c", "b1"):
        register.index(label)  # raises KeyError with a useful message

    a2 = build_mode_operator(register, "a2", "annihilate")
    c = build_mode_operator(register, "c", "annihilate")
    n_b1 = build_mode_operator(register, "b1", "number")
    n_c = build_mode_operator(register, "c", "number")

    t_swap, t_wait_cal, _ = derive_gate_params(p)
    if t_wait is None:
        t_wait = t_wait_cal
    if phi_swap is None:
        phi_swap = _tracked_pump_phase(p, t_wait)
    if t_wait <= 0:
        raise ValueError("t_wait must be positive")
    disp = p.chi_bc * (n_b1 @ n_c).data
    if include_static_crosskerr:
        n_a2 = build_mode_operator(register, "a2", "number")
        disp = disp + p.chi_ac * (n_a2 @ n_c).data + p.chi_ab * (n_a2 @ n_b1).data

    swap_term = a2.dag().data @ c.data  # a2^dag c

    def swap_h(pump_phase: float) -> OperatorMatrix:
        coupling = 0.5 * p.g_ac * (np.exp(1j * pump_phase) * swap_term
                                   + np.exp(-1j * pump_phase) * swap_term.conj().T)
        return OperatorMatrix(register, coupling + disp)

    segments = (
        (swap_h(0.0), t_swap, "swap1"),
        (OperatorMatrix(register, disp.copy()), t_wait, "wait"),
        (swap_h(phi_swap), t_swap, "swap2"),
    )
    return GateSchedule(register=register, segments=segments, t_swap=t_swap,
                        t_wait=t_wait, phi_swap=phi_swap,
                        includes_static_crosskerr=include_static_crosskerr)


def ideal_unitary(schedule: GateSchedule) -> OperatorMatrix:
    """Exact closed-system propagator: product of segment exponentials."""
    u = np.eye(schedule.register.dim, dtype=complex)
    for h, dt, _ in schedule.segments:
        u = _propagator(h.data, dt) @ u
    return OperatorMatrix(schedule.register, u)


def _connected_blocks(linked: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean pattern, grouped by size:
    one (count, size) array of ascending indices per block size, sizes
    ascending.  Each index takes the lowest index it links to until no
    label moves."""
    n = linked.shape[0]
    root = np.arange(n)
    while True:
        lower = np.minimum(root, np.where(linked, root, n).min(axis=1))
        if np.array_equal(lower, root):
            break
        root = lower
    size = np.bincount(root, minlength=n)[root]
    order = np.argsort(root, kind="stable")
    return [order[size[order] == m].reshape(-1, m) for m in np.unique(size)]


def _block_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and block-diagonal eigenvectors of Hermitian h.  A block is
    a connected component of h's nonzero pattern.  One stacked eigh runs per
    block size; entries off the blocks stay exact zeros, where a dense eigh
    would mix degenerate eigenvectors across blocks."""
    lam = np.zeros(h.shape[0])
    v = np.zeros_like(h)
    for idx in _connected_blocks(h != 0):
        rows, cols = idx[:, :, None], idx[:, None, :]
        lam[idx], v[rows, cols] = np.linalg.eigh(h[rows, cols])
    return lam, v


def _propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) of Hermitian h, from its block eigendecomposition."""
    lam, v = _block_eigh(h)
    return (v * np.exp(-1j * lam * t)) @ v.conj().T


def codespace_basis_indices(register: ModeRegister) -> list[int]:
    """Flat indices of (|0L 0L>, |0L 1L>, |1L 0L>, |1L 1L>), coupler in ground."""
    out = []
    for x in (0, 1):
        for y in (0, 1):
            occ = {**CONTROL_CODE.logical_occupations(x), **TARGET_CODE.logical_occupations(y)}
            out.append(register.basis_index(occ))
    return out


def codespace_block(u: OperatorMatrix) -> np.ndarray:
    """4x4 restriction of a register operator to the dual-rail codespace."""
    idx = codespace_basis_indices(u.register)
    return u.data[np.ix_(idx, idx)]


def extract_local_frame(u: np.ndarray | OperatorMatrix, *,
                        tol: float = 1e-8) -> LocalFrame:
    """Read the Z-frame phases off a diagonal codespace unitary.

    For diag(u00, u11, u22, u33) in (|00>,|01>,|10>,|11>) logical order
    with the control as the first bit: phi_target = arg(u11) - arg(u00),
    phi_control = arg(u22) - arg(u00), and phi_e = arg(u33) - arg(u22)
    - arg(u11) + arg(u00) (the frame-free entangling phase).  The input
    must be diagonal to `tol`.
    """
    mat = codespace_block(u) if isinstance(u, OperatorMatrix) else np.asarray(u)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 codespace block, got {mat.shape}")
    off = mat - np.diag(np.diag(mat))
    if np.linalg.norm(off) > tol:
        raise ValueError(f"codespace block is not diagonal (off-diag norm "
                         f"{np.linalg.norm(off):.3e} > {tol:.0e})")
    a = np.angle(np.diag(mat))
    return LocalFrame(phi_target=wrap_angle(a[1] - a[0]),
                      phi_control=wrap_angle(a[2] - a[0]),
                      phi_e=wrap_angle(a[3] - a[2] - a[1] + a[0]))


def on_off_ratio(p: SystemParams) -> float:
    """Ratio of the gate-on entangling rate to the always-on residual."""
    if p.chi_ab == 0:
        return math.inf
    return abs(p.chi_bc / p.chi_ab)
