"""Simulated tune-up experiments for the swap-wait-swap gate.

Each scan drives the same piecewise-constant schedule the gate module
builds, either as a closed-system propagator or through the master
equation, and returns the curve an operator would look at: coupler
chevrons, repeated-swap duration fringes, the erasure dip versus the
swap-back pump phase, the conditional-phase Ramsey versus wait duration,
and the single-qubit Ramsey slopes.  run_calibration_flow chains them in
tune-up order starting from deliberately perturbed guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import expm

from .fock import (DensityMatrix, DualRailCode, ModeRegister, OperatorMatrix,
                   build_mode_operator, codespace_projector)
from .gate import (CONTROL_CODE, TARGET_CODE, SystemParams, build_schedule,
                   derive_gate_params, ideal_unitary, wrap_angle)
from .lindblad import GateMap, NoiseModel, gate_superoperator, liouvillian, propagate

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

    def argmax_axis(self) -> float:
        if self.rows is not None:
            raise ValueError("argmax_axis is defined for 1-D sweeps only")
        return float(self.axis[int(np.argmax(self.values))])


def _swap_pair_register() -> ModeRegister:
    return ModeRegister((("a2", 2), ("c", 2)))


def _pair_hamiltonian(register: ModeRegister, g: float, detuning: float,
                      pump_phase: float = 0.0) -> OperatorMatrix:
    """(g/2)(e^{i phi} a2^dag c + h.c.) + detuning * n_c on the reduced pair."""
    a2 = build_mode_operator(register, "a2", "annihilate")
    c = build_mode_operator(register, "c", "annihilate")
    n_c = build_mode_operator(register, "c", "number")
    term = a2.dag().data @ c.data
    coupling = 0.5 * g * (np.exp(1j * pump_phase) * term
                          + np.exp(-1j * pump_phase) * term.conj().T)
    return OperatorMatrix(register, coupling + detuning * n_c.data)


def _pair_populations(p: SystemParams, detunings: np.ndarray,
                      durations: np.ndarray, n_repeats: int,
                      noise: NoiseModel | None) -> np.ndarray:
    """a2 population after n equal swap pulses, per (detuning, duration).

    One photon starts in a2.  With noise=None the pulse train is one
    phase exp(-i lambda n t) in the eigenbasis of the pair Hamiltonian;
    otherwise one pulse of the reduced (a2, c) master equation is
    exponentiated and raised to the n-th power.
    """
    register = _swap_pair_register()
    psi0 = register.basis_state({"a2": 1, "c": 0})
    n_a2 = build_mode_operator(register, "a2", "number").data
    closed = noise is None or noise.is_trivial
    if not closed:
        modes = set(register.labels)
        pair_noise = noise.restricted(loss_modes=modes, dephasing_modes=modes)
        rho0 = np.outer(psi0, psi0.conj()).reshape(-1, order="F")
    values = np.empty((detunings.size, durations.size))
    for i, delta in enumerate(detunings):
        h = _pair_hamiltonian(register, p.g_ac, delta)
        if closed:
            evals, vecs = np.linalg.eigh(h.data)
            coeffs = vecs.conj().T @ psi0
            for j, t in enumerate(n_repeats * durations):
                psi = vecs @ (np.exp(-1j * evals * t) * coeffs)
                values[i, j] = float(np.real(psi.conj() @ n_a2 @ psi))
        else:
            gen = liouvillian(h, pair_noise)
            for j, t in enumerate(durations):
                rho = np.linalg.matrix_power(expm(gen * t), n_repeats) @ rho0
                rho = rho.reshape(register.dim, register.dim, order="F")
                values[i, j] = float(np.real(np.trace(n_a2 @ rho)))
    return values


def chevron_scan(p: SystemParams, detunings: Sequence[float],
                 durations: Sequence[float], *,
                 noise: NoiseModel | None = None) -> SweepResult:
    """Cavity population of a photon Rabi-driven into the coupler.

    One photon starts in a2; for each pump detuning the swap drive is
    applied for each duration and the remaining a2 population recorded.
    With noise=None the evolution is unitary; otherwise the reduced
    (a2, c) master equation is integrated.
    """
    detunings = np.asarray(detunings, dtype=float)
    durations = np.asarray(durations, dtype=float)
    values = _pair_populations(p, detunings, durations, 1, noise)
    return SweepResult(axis=durations, values=values,
                       observable="cavity_population",
                       axis_name="duration_us", rows=detunings,
                       rows_name="detuning_rad_per_us",
                       fixed={"g_ac": p.g_ac})


def swap_duration_scan(p: SystemParams, n_repeats: int,
                       durations: Sequence[float], *,
                       noise: NoiseModel | None = None) -> SweepResult:
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
    values = _pair_populations(p, np.zeros(1), durations, n_repeats, noise)[0]
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


def swapback_phase_scan(p: SystemParams, phases: Sequence[float], *,
                        target_interacting: bool = True,
                        t_wait: float | None = None,
                        noise: NoiseModel | None = None) -> SweepResult:
    """Erasure fraction of the full gate versus the swap-back pump phase.

    The control photon enters the coupler; with the target photon in the
    coupler-coupled rail the detuned pulses only complete the return when
    the second pump phase matches the derived value, so the erasure
    fraction dips there and peaks half a turn away.  With the target in
    the idle rail the transfer is resonant and the curve is flat.
    """
    register = ModeRegister.standard(2)
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size == 0:
        raise ValueError(f"phases must be a non-empty 1-D sequence, got shape {phases.shape}")
    target_bit = 0 if target_interacting else 1
    occ = _gate_input(register, 1, target_bit)
    proj = codespace_projector(register, (CONTROL_CODE, TARGET_CODE), "c").data
    values = np.empty(phases.size)
    for j, phi in enumerate(phases):
        schedule = build_schedule(p, register, t_wait=t_wait, phi_swap=float(phi))
        if noise is None or noise.is_trivial:
            psi = ideal_unitary(schedule).data @ register.basis_state(occ)
            values[j] = 1.0 - float(np.real(psi.conj() @ proj @ psi))
        else:
            rho0 = DensityMatrix.basis_state(register, occ)
            res = propagate(schedule, noise, rho0)
            values[j] = 1.0 - float(np.real(np.trace(proj @ res.state.data)))
    fixed = {"t_swap": derive_gate_params(p)[0],
             "t_wait": schedule.t_wait,
             "target_bit": float(target_bit)}
    return SweepResult(axis=phases, values=values,
                       observable="erasure_fraction",
                       axis_name="swapback_pump_phase_rad", fixed=fixed)


def _gate_propagator(p: SystemParams, register: ModeRegister, *,
                     include_static_crosskerr: bool = False,
                     t_wait: float | None = None,
                     noise: NoiseModel | None = None) -> np.ndarray | GateMap:
    """One gate at these settings: its unitary, or its map when noisy."""
    schedule = build_schedule(p, register, t_wait=t_wait,
                              include_static_crosskerr=include_static_crosskerr)
    if noise is None or noise.is_trivial:
        return ideal_unitary(schedule).data
    return gate_superoperator(schedule, noise)


def _ramsey_trace(register: ModeRegister, code: DualRailCode,
                  spectator_occ: Mapping[str, int], n_repeats: int,
                  gate: np.ndarray | GateMap) -> list[float]:
    """Coherence phase of one dual-rail qubit in |+> after each of n gates."""
    lo = {label: 0 for label in register.labels}
    lo.update(spectator_occ)
    hi = dict(lo)
    lo.update(code.logical_occupations(0))
    hi.update(code.logical_occupations(1))
    i_lo, i_hi = register.basis_index(lo), register.basis_index(hi)
    trace = []
    if not isinstance(gate, GateMap):
        psi = np.zeros(register.dim, dtype=complex)
        psi[i_lo] = psi[i_hi] = 1.0 / math.sqrt(2.0)
        for _ in range(n_repeats):
            psi = gate @ psi
            trace.append(float(np.angle(psi[i_hi]) - np.angle(psi[i_lo])))
        return trace
    rho = np.zeros((register.dim, register.dim), dtype=complex)
    rho[np.ix_([i_lo, i_hi], [i_lo, i_hi])] = 0.5
    for _ in range(n_repeats):
        rho = gate.apply(rho)
        trace.append(float(np.angle(rho[i_hi, i_lo])))
    return trace


def entangling_phase_scan(p: SystemParams, wait_times: Sequence[float],
                          n_repeats: int = 1, *,
                          noise: NoiseModel | None = None) -> SweepResult:
    """Per-gate entangling phase versus wait duration.

    The fringe after n gates is the wrapped difference of the control
    Ramsey phase between the two target basis states, with the swap-back
    pump phase re-derived for the wait.  It is divided by n, unwrapped
    onto the branch nearest the single-gate fringe; the curve crosses pi
    at the derived wait with slope equal to the coupler-target
    dispersive rate.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be a positive integer")
    register = ModeRegister.standard(2)
    wait_times = np.asarray(wait_times, dtype=float)
    values = np.empty(wait_times.size)
    for j, tw in enumerate(wait_times):
        gate = _gate_propagator(p, register, t_wait=float(tw), noise=noise)
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


def local_z_scan(p: SystemParams, n_repeats: int = 4, *,
                 include_static_crosskerr: bool = False,
                 noise: NoiseModel | None = None) -> LocalPhaseSlopes:
    """Fit the accumulated Ramsey phase of each qubit against repeat count.

    Each qubit starts in |+> with the other idling in its logical 0, and
    no mid-sequence echo.  Phases are unwrapped progressively (each point
    continues from the previous one plus the single-gate increment) and
    the slope of the line through the origin is returned per qubit.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be a positive integer")
    register = ModeRegister.standard(2)
    gate = _gate_propagator(p, register,
                            include_static_crosskerr=include_static_crosskerr,
                            noise=noise)
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


def run_calibration_flow(p: SystemParams, *, perturbation: float = 0.01,
                         chevron_points: int = 61, duration_points: int = 41,
                         phase_points: int = 128, wait_points: int = 41,
                         swap_repeats: int = 5,
                         ramsey_repeats: int = 4,
                         noise: NoiseModel | None = None) -> CalibrationReport:
    """One pass of the tune-up sequence from perturbed starting guesses.

    Grids are centered on the derived schedule parameters scaled by
    (1 + perturbation), mimicking an operator starting from a stale
    calibration, and the scans run against the true dynamics.  Order:
    chevron (swap rate), repeated-swap duration, swap-back pump phase,
    conditional-phase Ramsey (wait duration), local Z slopes.
    """
    if perturbation == 0 or not math.isfinite(perturbation):
        raise ValueError(f"perturbation must be finite and nonzero, "
                         f"got {perturbation}")
    for name, points in (("chevron_points", chevron_points),
                         ("duration_points", duration_points),
                         ("phase_points", phase_points),
                         ("wait_points", wait_points)):
        if points < 2:
            raise ValueError(f"{name} must be at least 2, got {points}")
    t_swap, t_wait, _ = derive_gate_params(p)
    guess = 1.0 + perturbation
    span = 3.0 * abs(perturbation)

    # Swap rate from the resonant chevron row: only on resonance does the
    # cavity fully empty, at a duration of pi over the swap rate.
    durations = np.linspace(0.8, 1.25, chevron_points) * t_swap * guess
    detunings = np.linspace(-0.2, 0.2, 5) * p.g_ac
    chevron = chevron_scan(p, detunings, durations, noise=noise)
    resonant = chevron.values[int(np.argmin(chevron.values.min(axis=1)))]
    t_min = float(durations[int(np.argmin(resonant))])
    swap_rate = math.pi / t_min
    swap_rate_step = swap_rate * chevron.axis_step / t_min

    # Swap duration from the sharpened repeated-pulse dip.
    window = np.linspace(1.0 - span, 1.0 + span,
                         duration_points) * t_swap * guess
    dip = swap_duration_scan(p, swap_repeats, window, noise=noise)
    swap_duration = dip.argmin_axis()

    # Swap-back pump phase from the erasure dip over a full turn.
    phases = np.linspace(-math.pi, math.pi, phase_points, endpoint=False)
    dip_phi = swapback_phase_scan(p, phases, noise=noise)
    swapback_phase = dip_phi.argmin_axis()

    # Wait duration from the pi crossing of the per-gate entangling phase.
    waits = np.linspace(1.0 - span, 1.0 + span,
                        wait_points) * t_wait * guess
    fringe = entangling_phase_scan(p, waits, 1, noise=noise)
    residual = np.abs([wrap_angle(v - math.pi) for v in fringe.values])
    wait_duration = float(waits[int(np.argmin(residual))])

    slopes = local_z_scan(p, ramsey_repeats, noise=noise)
    return CalibrationReport(
        swap_rate=swap_rate, swap_rate_step=swap_rate_step,
        swap_duration=swap_duration, swap_duration_step=dip.axis_step,
        swapback_phase=swapback_phase, swapback_phase_step=dip_phi.axis_step,
        wait_duration=wait_duration, wait_duration_step=fringe.axis_step,
        control_phase_per_gate=slopes.control_phase_per_gate,
        target_phase_per_gate=slopes.target_phase_per_gate,
        swapback_sweep=dip_phi)
