"""Nine-class per-gate error budget and coherence-limit scalings."""
import dataclasses
import math

import numpy as np
import pytest

from drcz import ModeRegister, SystemParams
from drcz.budget import (CoherenceLimits, ErrorBudget, compute_error_budget,
                         fundamental_limits)
from drcz.channels import QuantumChannel
from drcz.config import DeviceConfig
from drcz.gate import (OCCUPANCY_CLASSES, build_schedule, codespace_basis_indices,
                       codespace_block, ideal_unitary, occupancy_classes)
from drcz.lindblad import NoiseModel, gate_superoperator
from drcz.tomography import chi_error

# Frozen budget of the measured device (listed t1 order, split dephasing).
FROZEN = {
    "control_loss": 0.00337294373919447,
    "target_loss": 0.000983418504349747,
    "double_loss": 3.4492796759975137e-06,
    "stuck_in_coupler": 4.861852759257995e-05,
    "lone_coupler_excitation": 1.4073665708966766e-05,
    "control_z": 0.0001684804016042662,
    "target_z": 4.714337990119694e-05,
    "zz": 5.214729080616105e-07,
    "no_error": 0.9953613510290648,
}


@pytest.fixture(scope="module")
def budget():
    return compute_error_budget(DeviceConfig.default())


def test_budget_entries_frozen(budget):
    for name, value in budget.as_dict().items():
        assert value == pytest.approx(FROZEN[name], rel=1e-9), name


def test_budget_is_an_exact_partition(budget):
    assert budget.total == pytest.approx(1.0, abs=1e-12)
    erasure = (budget.control_loss + budget.target_loss + budget.double_loss
               + budget.stuck_in_coupler + budget.lone_coupler_excitation)
    assert budget.erasure_total == erasure
    # erasures dominate the Z-type errors by more than an order of magnitude
    z_total = budget.control_z + budget.target_z + budget.zz
    assert budget.erasure_total > 10 * z_total


def test_budget_validation():
    with pytest.raises(ValueError, match="control_loss must be finite"):
        ErrorBudget(*[math.nan] * 9)
    with pytest.raises(ValueError, match="zz must be finite"):
        ErrorBudget(control_loss=0.0, target_loss=0, double_loss=0,
                    stuck_in_coupler=0, lone_coupler_excitation=0,
                    control_z=0, target_z=0, zz=math.nan, no_error=1.0)
    with pytest.raises(ValueError, match="must be nonnegative"):
        ErrorBudget(control_loss=-0.1, target_loss=0, double_loss=0,
                    stuck_in_coupler=0, lone_coupler_excitation=0,
                    control_z=0, target_z=0, zz=0, no_error=1.1)
    with pytest.raises(ValueError, match="sum to"):
        ErrorBudget(control_loss=0.0, target_loss=0, double_loss=0,
                    stuck_in_coupler=0, lone_coupler_excitation=0,
                    control_z=0, target_z=0, zz=0, no_error=0.9)


def _budget_oracle(params, truncation, include_static_crosskerr, apply_on_register):
    """The budget the long way round: each of the 16 codespace units |i><j|
    pushed through the whole-gate map as a register matrix (embedded by
    `apply_on_register`), the outputs
    Hermitized above dimension 64 (the truncation-3 defect the budget keeps),
    then the occupancy sums and the chi-error Z split."""
    register = ModeRegister.standard(truncation)
    schedule = build_schedule(params, register,
                              include_static_crosskerr=include_static_crosskerr)
    gate = gate_superoperator(schedule, NoiseModel.from_params(params))
    idx = codespace_basis_indices(register)
    d = register.dim
    outs = []
    for j in idx:
        for i in idx:
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            out = apply_on_register(gate, unit)
            outs.append((out + out.conj().T) / 2 if d > 64 else out)
    rho = sum(w * outs[5 * k] for k, w in enumerate(np.full(4, 0.25)))
    pops = dict(zip(OCCUPANCY_CLASSES, np.bincount(
        occupancy_classes(register), weights=np.real(np.diag(rho)),
        minlength=len(OCCUPANCY_CLASSES))))
    code_mass = pops.pop("codespace")
    s4 = np.array([out[np.ix_(idx, idx)].reshape(-1, order="F") for out in outs]).T
    chi_err = chi_error(QuantumChannel(4, superop=s4, validate=False).chi(),
                        codespace_block(register, ideal_unitary(schedule)))
    # II, IZ, ZI, ZZ in the lexicographic two-qubit Pauli order
    z_diag = np.clip(np.real(np.diag(chi_err)), 0.0, None)[[0, 3, 12, 15]]
    split = dict(zip(("no_error", "target_z", "control_z", "zz"),
                     code_mass * (z_diag / z_diag.sum())))
    return {name: max(0.0, float(v)) for name, v in {**pops, **split}.items()}


@pytest.mark.parametrize("truncation, static_kerr", [
    pytest.param(2, False, id="truncation-2"),
    pytest.param(3, False, id="truncation-3"),
    pytest.param(2, True, id="static-kerr"),
])
def test_budget_equals_the_unit_matrix_oracle(table_params, truncation, static_kerr,
                                              apply_on_register):
    budget = compute_error_budget(table_params, truncation=truncation,
                                  include_static_crosskerr=static_kerr)
    oracle = _budget_oracle(table_params, truncation, static_kerr, apply_on_register)
    assert budget.as_dict() == oracle


def test_noiseless_budget_has_no_error_only():
    clean = SystemParams.from_mhz(chi_bc=-1.51, chi_ac=-1.26, chi_ab=-6.64e-3,
                                  g_ac=4.23, t1={}, tphi={})
    b = compute_error_budget(clean)
    assert b.no_error == pytest.approx(1.0, abs=1e-12)
    # oracle off the Lindblad path: the exact unitary's output populations of
    # the four codespace inputs, averaged and summed by occupancy class
    register = ModeRegister.standard(2)
    schedule = build_schedule(clean, register)
    u = ideal_unitary(schedule)
    idx = np.searchsorted(schedule.sector, codespace_basis_indices(register))
    pops = np.mean(np.abs(u[:, idx]) ** 2, axis=1)
    oracle = dict(zip(OCCUPANCY_CLASSES, np.bincount(
        occupancy_classes(register)[schedule.sector], weights=pops,
        minlength=len(OCCUPANCY_CLASSES))))
    for name in OCCUPANCY_CLASSES[1:]:
        assert getattr(b, name) == pytest.approx(oracle[name], rel=0, abs=1e-15), name
    # round-off residues, not exact zeros: no map in floating point gives 0.0
    for name in ("erasure_total", "control_z", "target_z", "zz"):
        assert getattr(b, name) <= 1e-15, name


def test_ensemble_selects_the_coupler_transit(table_params):
    # control in |0_L>: the photon idles in the outer rail and never
    # touches the coupler, so no residual excitation can remain there;
    # in |1_L> it transits the coupler, and some of it stays there
    register = ModeRegister.standard(2)
    schedule = build_schedule(table_params, register)
    gate = gate_superoperator(schedule, NoiseModel.from_params(table_params))
    classes = occupancy_classes(register)[schedule.sector]
    code = np.searchsorted(schedule.sector, codespace_basis_indices(register))
    pops = []
    for k in (code[0], code[3]):  # |0_L 0_L> and |1_L 1_L>
        rho = np.zeros((schedule.sector.size,) * 2, dtype=complex)
        rho[k, k] = 1.0
        out = np.real(np.diag(gate.apply(rho)))
        pops.append(dict(zip(OCCUPANCY_CLASSES, np.bincount(
            classes, weights=out, minlength=len(OCCUPANCY_CLASSES)))))
    idle, transit = pops
    assert idle["stuck_in_coupler"] == 0.0
    assert idle["lone_coupler_excitation"] == 0.0
    assert transit["stuck_in_coupler"] > 1e-5
    assert transit["control_loss"] > idle["control_loss"]


def test_swapped_t1_order_moves_entries_less_than_ten_percent(budget):
    swapped = compute_error_budget(
        dataclasses.replace(DeviceConfig.default(), t1_order="swapped"))
    for name in ("control_loss", "target_loss", "control_z", "target_z",
                 "no_error"):
        listed_v = budget.as_dict()[name]
        assert swapped.as_dict()[name] == pytest.approx(listed_v, rel=0.10), name


def test_coupler_residuals_shrink_with_faster_swaps(budget):
    p = DeviceConfig.default().system_params()
    fast = compute_error_budget(dataclasses.replace(p, g_ac=2 * p.g_ac))
    lone_ratio = budget.lone_coupler_excitation / fast.lone_coupler_excitation
    stuck_ratio = budget.stuck_in_coupler / fast.stuck_in_coupler
    # halving the transit time suppresses the double-fault class nearly
    # quadratically and the single residual roughly linearly
    assert 3.0 <= lone_ratio <= 4.5
    assert stuck_ratio > 1.8
    # the idle-rail dominated control loss barely moves
    assert budget.control_loss / fast.control_loss == pytest.approx(1.0, abs=0.1)


def _occupancy_class_oracle(occ):
    """The budget's per-state occupancy rule, written out on one state."""
    a1, a2, c, b1, b2 = occ
    control_ok = (a1, a2) in ((1, 0), (0, 1))
    target_ok = (b1, b2) in ((1, 0), (0, 1))
    if c >= 1:
        return "stuck_in_coupler" if target_ok else "lone_coupler_excitation"
    if control_ok and target_ok:
        return "codespace"
    if not control_ok and not target_ok:
        return "double_loss"
    return "target_loss" if control_ok else "control_loss"


def test_occupancy_classes_match_the_per_state_rule():
    reg = ModeRegister.standard(3)
    labels = occupancy_classes(reg)
    assert labels.shape == (reg.dim,)
    # one label per basis state, and every one of the six classes occurs
    assert set(labels.tolist()) == set(range(len(OCCUPANCY_CLASSES)))
    for k in range(reg.dim):
        assert OCCUPANCY_CLASSES[labels[k]] == _occupancy_class_oracle(reg.occupations(k))
    two_in_coupler = reg.basis_index({"a1": 1, "c": 2, "b2": 1})
    assert OCCUPANCY_CLASSES[labels[two_in_coupler]] == "stuck_in_coupler"
    assert OCCUPANCY_CLASSES[labels[reg.basis_index({"c": 2})]] == "lone_coupler_excitation"


def test_fundamental_limit_scalings():
    full = fundamental_limits(1.0, 2.0, 100.0, 400.0)
    assert full.erasure_control == full.erasure_target == 1.0 / (2.0 * 100.0)
    assert full.dephasing_control == full.dephasing_target == 1.0 / (2.0 * 400.0)
    assert full.bias_bound == 1.0
    half = fundamental_limits(0.5, 2.0, 100.0, 400.0)
    assert half.erasure_control == 2 * full.erasure_control
    assert half.erasure_target == full.erasure_target
    assert half.dephasing_target / half.dephasing_control == pytest.approx(0.25)
    assert half.bias_bound == 4.0
    weak = fundamental_limits(0.02, 2.0, 100.0, 400.0)
    assert weak.bias_bound == pytest.approx(2500.0)
    assert weak.dephasing_target / weak.dephasing_control == pytest.approx(4e-4)
    assert set(weak.as_dict()) == {"erasure_control", "erasure_target",
                                   "dephasing_control", "dephasing_target",
                                   "bias_bound"}


def test_fundamental_limit_domain():
    with pytest.raises(ValueError, match=r"hybridization must lie in \(0, 1\]"):
        fundamental_limits(0.0, 2.0, 100.0, 400.0)
    with pytest.raises(ValueError, match=r"hybridization must lie in \(0, 1\]"):
        fundamental_limits(1.2, 2.0, 100.0, 400.0)
    with pytest.raises(ValueError, match="anharmonicity must be positive"):
        fundamental_limits(0.5, 0.0, 100.0, 400.0)
    with pytest.raises(ValueError, match="t1_coupler must be positive"):
        fundamental_limits(0.5, 2.0, -1.0, 400.0)
    with pytest.raises(ValueError, match="tphi_coupler must be positive"):
        fundamental_limits(0.5, 2.0, 100.0, 0.0)
