"""Nine-class per-gate error budget and coherence-limit scalings."""
import dataclasses

import pytest

from drcz import ModeRegister, SystemParams
from drcz.budget import (CoherenceLimits, ErrorBudget, compute_error_budget,
                         fundamental_limits)
from drcz.config import DeviceConfig
from drcz.gate import OCCUPANCY_CLASSES, occupancy_classes

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
    with pytest.raises(ValueError, match="must be nonnegative"):
        ErrorBudget(control_loss=-0.1, target_loss=0, double_loss=0,
                    stuck_in_coupler=0, lone_coupler_excitation=0,
                    control_z=0, target_z=0, zz=0, no_error=1.1)
    with pytest.raises(ValueError, match="sum to"):
        ErrorBudget(control_loss=0.0, target_loss=0, double_loss=0,
                    stuck_in_coupler=0, lone_coupler_excitation=0,
                    control_z=0, target_z=0, zz=0, no_error=0.9)


def test_noiseless_budget_has_no_error_only():
    clean = SystemParams.from_mhz(chi_bc=-1.51, chi_ac=-1.26, chi_ab=-6.64e-3,
                                  g_ac=4.23, t1={}, tphi={})
    b = compute_error_budget(clean)
    assert b.no_error == pytest.approx(1.0, abs=1e-12)
    assert b.erasure_total == 0.0


def test_ensemble_selects_the_coupler_transit(budget):
    cfg = DeviceConfig.default()
    # control in |0_L>: the photon idles in the outer rail and never
    # touches the coupler, so no residual excitation can remain there
    idle = compute_error_budget(cfg, ensemble=(1.0, 0.0, 0.0, 0.0))
    assert idle.stuck_in_coupler == 0.0
    assert idle.lone_coupler_excitation == 0.0
    transit = compute_error_budget(cfg, ensemble=(0.0, 0.0, 0.0, 1.0))
    assert transit.stuck_in_coupler > 1e-5
    assert transit.control_loss > idle.control_loss


def test_ensemble_validation():
    cfg = DeviceConfig.default()
    with pytest.raises(ValueError, match="four nonnegative weights"):
        compute_error_budget(cfg, ensemble=(0.5, 0.5))
    with pytest.raises(ValueError, match="four nonnegative weights"):
        compute_error_budget(cfg, ensemble=(-0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="weights sum to"):
        compute_error_budget(cfg, ensemble=(0.5, 0.5, 0.5, 0.5))


def test_swapped_t1_order_moves_entries_less_than_ten_percent(budget):
    swapped = compute_error_budget(
        dataclasses.replace(DeviceConfig.default(), t1_order="swapped"))
    for name in ("control_loss", "target_loss", "control_z", "target_z",
                 "no_error"):
        listed_v = budget.as_dict()[name]
        assert swapped.as_dict()[name] == pytest.approx(listed_v, rel=0.10), name


def test_coupler_residuals_shrink_with_faster_swaps(budget):
    p = SystemParams.table()
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
