"""Simulated tune-up experiments for the swap-wait-swap gate.

Each scan drives the same piecewise-constant schedule the gate module
builds as a closed-system propagator and returns the curve an operator
would look at: coupler chevrons, repeated-swap duration fringes, the
erasure dip versus the swap-back pump phase, the conditional-phase
Ramsey versus wait duration, and the single-qubit Ramsey slopes.
run_calibration_flow chains them in tune-up order starting from
deliberately perturbed guesses.

The pump-phase and wait-duration scans decompose one Hamiltonian, the
swap-in segment of the operating-point schedule, and read every grid
point off it.  The swap-back segment at pump phase phi is a rotated copy
of it, H(phi) = D^dag H(0) D with D = exp(i phi n_c), because the
dispersive term commutes with n_c; so its propagator is D^dag U_swap D.
The wait Hamiltonian holds only number-operator products, so it is
diagonal and its propagator is a phase per Fock state.  A grid point
then costs diagonal phases and one 32x32 product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .fock import (DualRailCode, ModeRegister, OperatorMatrix, build_mode_operator,
                   codespace_projector)
from .gate import (CONTROL_CODE, COUPLER, TARGET_CODE, GateSchedule, SystemParams,
                   _propagator, _tracked_pump_phase, build_schedule, derive_gate_params,
                   ideal_unitary, wrap_angle)

__all__ = [
    "SweepResult",
    "LocalPhaseSlopes",
    "CalibrationReport",
    "chevron_scan",
    "swap_duration_scan",
    "swapback_phase_scan",
    "entangling_phase_scan",
    "local_z_scan",
    "run_calibration_flow",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SweepResult:
    """One measured curve: a strictly increasing axis and an observable.

    2-D scans carry a second strictly increasing axis in `rows`; `values`
    is then shaped (len(rows), len(axis)).  `fixed` records the scalar
    settings the scan was taken at.
    """

    axis: np.ndarray
    values: np.ndarray
    observable: str
    axis_name: str
    fixed: dict[str, float] = field(default_factory=dict)
    rows: np.ndarray | None = None
    rows_name: str = ""

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)
        if axis.ndim != 1 or axis.size == 0:
            raise ValueError("axis must be a non-empty 1-D array")
        if not np.all(np.isfinite(axis)) or not np.all(np.isfinite(values)):
            raise ValueError("sweep axis and values must be finite")
        if np.any(np.diff(axis) <= 0):
            raise ValueError("sweep axis must be strictly increasing")
        if self.rows is None:
            if values.shape != axis.shape:
                raise ValueError(f"values shape {values.shape} does not match "
                                 f"axis length {axis.size}")
        else:
            rows = np.asarray(self.rows, dtype=float)
            object.__setattr__(self, "rows", rows)
            if rows.ndim != 1 or rows.size == 0:
                raise ValueError("rows must be a non-empty 1-D array")
            if not np.all(np.isfinite(rows)):
                raise ValueError("row axis must be finite")
            if np.any(np.diff(rows) <= 0):
                raise ValueError("row axis must be strictly increasing")
            if values.shape != (rows.size, axis.size):
                raise ValueError(f"values shape {values.shape} does not match "
                                 f"(rows, axis) = ({rows.size}, {axis.size})")

    @property
    def axis_step(self) -> float:
        """Grid resolution (largest axis spacing; exact on uniform grids)."""
        return float(np.max(np.diff(self.axis))) if self.axis.size > 1 else 0.0

    def argmin_axis(self) -> float:
        if self.rows is not None:
            raise ValueError("argmin_axis is defined for 1-D sweeps only")
        return float(self.axis[int(np.argmin(self.values))])


def _swap_pair_register() -> ModeRegister:
    return ModeRegister((("a2", 2), ("c", 2)))


def _pair_hamiltonian(register: ModeRegister, g: float, detuning: float) -> OperatorMatrix:
    """(g/2)(a2^dag c + h.c.) + detuning * n_c on the reduced pair."""
    a2 = build_mode_operator(register, "a2", "annihilate")
    c = build_mode_operator(register, "c", "annihilate")
    n_c = build_mode_operator(register, "c", "number")
    term = a2.dag().data @ c.data
    coupling = 0.5 * g * (term + term.conj().T)
    return OperatorMatrix(register, coupling + detuning * n_c.data)


def _pair_populations(p: SystemParams, detunings: np.ndarray,
                      durations: np.ndarray, n_repeats: int) -> np.ndarray:
    """a2 population after n equal swap pulses, per (detuning, duration).

    One photon starts in a2.  The pulse train is one phase
    exp(-i lambda n t) in the eigenbasis of the pair Hamiltonian; one
    stacked eigh serves every detuning.
    """
    register = _swap_pair_register()
    psi0 = register.basis_state({"a2": 1, "c": 0})
    n_a2 = np.real(np.diag(build_mode_operator(register, "a2", "number").data))
    hams = np.stack([_pair_hamiltonian(register, p.g_ac, delta).data
                     for delta in detunings])
    evals, vecs = np.linalg.eigh(hams)
    coeffs = vecs.conj().swapaxes(1, 2) @ psi0
    phases = np.exp(-1j * evals[:, :, None] * (n_repeats * durations))
    psi = vecs @ (phases * coeffs[:, :, None])
    return np.einsum("k,dkt->dt", n_a2, np.abs(psi) ** 2)


def chevron_scan(p: SystemParams, detunings: Sequence[float],
                 durations: Sequence[float]) -> SweepResult:
    """Cavity population of a photon Rabi-driven into the coupler.

    One photon starts in a2; for each pump detuning the swap drive is
    applied for each duration and the remaining a2 population recorded.
    """
    detunings = np.asarray(detunings, dtype=float)
    durations = np.asarray(durations, dtype=float)
    values = _pair_populations(p, detunings, durations, 1)
    return SweepResult(axis=durations, values=values,
                       observable="cavity_population",
                       axis_name="duration_us", rows=detunings,
                       rows_name="detuning_rad_per_us",
                       fixed={"g_ac": p.g_ac})


def swap_duration_scan(p: SystemParams, n_repeats: int,
                       durations: Sequence[float]) -> SweepResult:
    """Residual a2 population after an odd number of equal swap pulses.

    An exact pi pulse empties the cavity for any odd repeat count; a
    duration error epsilon leaves sin^2(n g epsilon / 2), so the dip
    sharpens linearly with the repeat count.  Even counts are rejected
    because they return the photon regardless of duration.
    """
    if n_repeats < 1 or n_repeats % 2 == 0:
        raise ValueError(f"n_repeats must be a positive odd integer, "
                         f"got {n_repeats}")
    durations = np.asarray(durations, dtype=float)
    values = _pair_populations(p, np.zeros(1), durations, n_repeats)[0]
    return SweepResult(axis=durations, values=values,
                       observable="cavity_population",
                       axis_name="duration_us",
                       fixed={"g_ac": p.g_ac, "n_repeats": float(n_repeats)})


def _gate_input(register: ModeRegister, control_bit: int,
                target_bit: int) -> dict[str, int]:
    occ = {label: 0 for label in register.labels}
    occ.update(CONTROL_CODE.logical_occupations(control_bit))
    occ.update(TARGET_CODE.logical_occupations(target_bit))
    return occ


def _operating_point(p: SystemParams, register: ModeRegister
                      ) -> tuple[GateSchedule, np.ndarray, np.ndarray, np.ndarray]:
    """The calibrated schedule, its swap-in propagator U_swap, the diagonal
    of its wait Hamiltonian and the coupler occupation of each basis state.

    The swap-in segment is the schedule's one decomposition; every gate a
    scan probes is read off it (see the module docstring).
    """
    schedule = build_schedule(p, register)
    (h_swap, t_swap, _), (h_wait, _, _), _ = schedule.segments
    n_c = register.occupation_table[:, register.index(COUPLER)]
    return schedule, _propagator(h_swap.data, t_swap), np.real(np.diag(h_wait.data)), n_c


def swapback_phase_scan(p: SystemParams, phases: Sequence[float], *,
                        target_interacting: bool = True) -> SweepResult:
    """Erasure fraction of the full gate versus the swap-back pump phase.

    The control photon enters the coupler; with the target photon in the
    coupler-coupled rail the detuned pulses only complete the return when
    the second pump phase matches the derived value, so the erasure
    fraction dips there and peaks half a turn away.  With the target in
    the idle rail the transfer is resonant and the curve is flat.

    Only the swap-back segment depends on the phase, and it is
    D^dag U_swap D with D = exp(i phi n_c).  The state after the swap-in
    and the wait is computed once, and one product of U_swap with the
    D-rotated copies of it, one column per phase, gives every point.
    The final D^dag is a phase per Fock state and moves no population.
    """
    register = ModeRegister.standard(2)
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size == 0:
        raise ValueError(f"phases must be a non-empty 1-D sequence, got shape {phases.shape}")
    target_bit = 0 if target_interacting else 1
    occ = _gate_input(register, 1, target_bit)
    keep = np.real(np.diag(codespace_projector(register, (CONTROL_CODE, TARGET_CODE),
                                               COUPLER).data))
    schedule, u_swap, wait_diag, n_c = _operating_point(p, register)
    waited = np.exp(-1j * wait_diag * schedule.t_wait) * (u_swap @ register.basis_state(occ))
    psi = u_swap @ (np.exp(1j * np.outer(n_c, phases)) * waited[:, None])
    values = 1.0 - keep @ np.abs(psi) ** 2
    fixed = {"t_swap": schedule.t_swap,
             "t_wait": schedule.t_wait,
             "target_bit": float(target_bit)}
    return SweepResult(axis=phases, values=values,
                       observable="erasure_fraction",
                       axis_name="swapback_pump_phase_rad", fixed=fixed)


def _ramsey_trace(register: ModeRegister, code: DualRailCode,
                  spectator_occ: Mapping[str, int], n_repeats: int,
                  gate: np.ndarray) -> list[float]:
    """Coherence phase of one dual-rail qubit in |+> after each of n gates."""
    lo = {label: 0 for label in register.labels}
    lo.update(spectator_occ)
    hi = dict(lo)
    lo.update(code.logical_occupations(0))
    hi.update(code.logical_occupations(1))
    i_lo, i_hi = register.basis_index(lo), register.basis_index(hi)
    psi = np.zeros(register.dim, dtype=complex)
    psi[i_lo] = psi[i_hi] = 1.0 / math.sqrt(2.0)
    trace = []
    for _ in range(n_repeats):
        psi = gate @ psi
        trace.append(float(np.angle(psi[i_hi]) - np.angle(psi[i_lo])))
    return trace


def entangling_phase_scan(p: SystemParams, wait_times: Sequence[float],
                          n_repeats: int = 1) -> SweepResult:
    """Per-gate entangling phase versus wait duration.

    The fringe after n gates is the wrapped difference of the control
    Ramsey phase between the two target basis states, with the swap-back
    pump phase re-derived for the wait.  It is divided by n, unwrapped
    onto the branch nearest the single-gate fringe; the curve crosses pi
    at the derived wait with slope equal to the coupler-target
    dispersive rate.

    The wait only rescales the diagonal wait phases and sets the tracked
    pump phase phi, so each gate is (D^dag U_swap D)(W U_swap) with
    D = exp(i phi n_c) and W = exp(-i H_wait t_wait), both diagonal:
    one 32x32 product per wait, all from one decomposition.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be a positive integer")
    register = ModeRegister.standard(2)
    wait_times = np.asarray(wait_times, dtype=float)
    if np.any(wait_times <= 0):
        raise ValueError("wait times must be positive")
    _, u_swap, wait_diag, n_c = _operating_point(p, register)
    values = np.empty(wait_times.size)
    for j, tw in enumerate(wait_times):
        rot = np.exp(1j * _tracked_pump_phase(p, float(tw)) * n_c)
        swap_back = rot.conj()[:, None] * u_swap * rot
        gate = swap_back @ (np.exp(-1j * wait_diag * tw)[:, None] * u_swap)
        zero, one = (_ramsey_trace(register, CONTROL_CODE,
                                   TARGET_CODE.logical_occupations(target_bit),
                                   n_repeats, gate)
                     for target_bit in (0, 1))
        theta = wrap_angle(one[-1] - zero[-1])
        if n_repeats > 1:
            anchor = n_repeats * wrap_angle(one[0] - zero[0])
            theta += TWO_PI * round((anchor - theta) / TWO_PI)
        values[j] = theta / n_repeats
    return SweepResult(axis=wait_times, values=values,
                       observable="entangling_phase_per_gate_rad",
                       axis_name="wait_duration_us",
                       fixed={"n_repeats": float(n_repeats)})


@dataclass(frozen=True)
class LocalPhaseSlopes:
    """Per-gate single-qubit Z phases from the echo-free Ramsey traces."""

    control_phase_per_gate: float
    target_phase_per_gate: float


def local_z_scan(p: SystemParams, n_repeats: int = 4) -> LocalPhaseSlopes:
    """Fit the accumulated Ramsey phase of each qubit against repeat count.

    Each qubit starts in |+> with the other idling in its logical 0, and
    no mid-sequence echo.  Phases are unwrapped progressively (each point
    continues from the previous one plus the single-gate increment) and
    the slope of the line through the origin is returned per qubit.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be a positive integer")
    register = ModeRegister.standard(2)
    gate = ideal_unitary(build_schedule(p, register)).data
    counts = np.arange(1, n_repeats + 1, dtype=float)
    slopes = []
    for code, spectator in ((CONTROL_CODE, TARGET_CODE), (TARGET_CODE, CONTROL_CODE)):
        unwrapped = []
        for theta in _ramsey_trace(register, code, spectator.logical_occupations(0),
                                   n_repeats, gate):
            anchor = unwrapped[-1] + unwrapped[0] if unwrapped else theta
            theta += TWO_PI * round((anchor - theta) / TWO_PI)
            unwrapped.append(theta)
        slopes.append(float(counts @ np.asarray(unwrapped) / (counts @ counts)))
    return LocalPhaseSlopes(control_phase_per_gate=slopes[0],
                            target_phase_per_gate=slopes[1])


@dataclass(frozen=True)
class CalibrationReport:
    """Parameters recovered by one pass of the tune-up sequence.

    Each recovered value carries the grid resolution it was found at;
    the Ramsey slopes are fit results and carry no grid step.
    `swapback_sweep` is the erasure-versus-pump-phase curve the swap-back
    phase was read from; it takes no part in equality.
    """

    swap_rate: float
    swap_rate_step: float
    swap_duration: float
    swap_duration_step: float
    swapback_phase: float
    swapback_phase_step: float
    wait_duration: float
    wait_duration_step: float
    control_phase_per_gate: float
    target_phase_per_gate: float
    swapback_sweep: SweepResult = field(compare=False, repr=False)


def run_calibration_flow(p: SystemParams) -> CalibrationReport:
    """One pass of the tune-up sequence from 1%-stale starting guesses.

    Grids are centered on the derived schedule parameters scaled by 1.01,
    mimicking an operator starting from a stale calibration, and the
    scans run against the true closed-system dynamics.  Order: chevron
    (swap rate, 61 durations), five-pulse swap duration (41 points),
    swap-back pump phase (128 phases over a turn), conditional-phase
    Ramsey (wait duration, 41 points), local Z slopes over four gates.
    """
    t_swap, t_wait, _ = derive_gate_params(p)
    guess = 1.0 + 0.01
    span = 3.0 * 0.01

    # Swap rate from the resonant chevron row: only on resonance does the
    # cavity fully empty, at a duration of pi over the swap rate.
    durations = np.linspace(0.8, 1.25, 61) * t_swap * guess
    detunings = np.linspace(-0.2, 0.2, 5) * p.g_ac
    chevron = chevron_scan(p, detunings, durations)
    resonant = chevron.values[int(np.argmin(chevron.values.min(axis=1)))]
    t_min = float(durations[int(np.argmin(resonant))])
    swap_rate = math.pi / t_min
    swap_rate_step = swap_rate * chevron.axis_step / t_min

    # Swap duration from the sharpened repeated-pulse dip.
    window = np.linspace(1.0 - span, 1.0 + span, 41) * t_swap * guess
    dip = swap_duration_scan(p, 5, window)
    swap_duration = dip.argmin_axis()

    # Swap-back pump phase from the erasure dip over a full turn.
    phases = np.linspace(-math.pi, math.pi, 128, endpoint=False)
    dip_phi = swapback_phase_scan(p, phases)
    swapback_phase = dip_phi.argmin_axis()

    # Wait duration from the pi crossing of the per-gate entangling phase.
    waits = np.linspace(1.0 - span, 1.0 + span, 41) * t_wait * guess
    fringe = entangling_phase_scan(p, waits, 1)
    residual = np.abs([wrap_angle(v - math.pi) for v in fringe.values])
    wait_duration = float(waits[int(np.argmin(residual))])

    slopes = local_z_scan(p, 4)
    return CalibrationReport(
        swap_rate=swap_rate, swap_rate_step=swap_rate_step,
        swap_duration=swap_duration, swap_duration_step=dip.axis_step,
        swapback_phase=swapback_phase, swapback_phase_step=dip_phi.axis_step,
        wait_duration=wait_duration, wait_duration_step=fringe.axis_step,
        control_phase_per_gate=slopes.control_phase_per_gate,
        target_phase_per_gate=slopes.target_phase_per_gate,
        swapback_sweep=dip_phi)
