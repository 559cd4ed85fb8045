"""Liouvillian construction, schedule propagation, and conditioning."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from drcz.budget import compute_error_budget
from drcz.fock import (
    DensityMatrix,
    DualRailCode,
    ModeRegister,
    OperatorMatrix,
    build_mode_operator,
    codespace_projector,
)
from drcz.gate import (
    CONTROL_CODE,
    TARGET_CODE,
    SystemParams,
    build_schedule,
    codespace_basis_indices,
    ideal_unitary,
)
from drcz.lindblad import (
    NoiseModel,
    collapse_operators,
    gate_superoperator,
    liouvillian,
    propagate,
)
from drcz.tomography import dual_rail_rotation


def test_noise_model_validation_and_helpers():
    with pytest.raises(ValueError, match="must be >= 0"):
        NoiseModel(loss={"a1": -0.1})
    assert NoiseModel.none().is_trivial
    assert not NoiseModel(loss={"a1": 0.1}).is_trivial
    assert NoiseModel(loss={"a1": 0.0}).is_trivial
    restricted = NoiseModel(loss={"a1": 1.0, "b1": 2.0},
                            dephasing={"c": 3.0}).restricted(loss_modes={"b1"})
    assert restricted.loss == {"b1": 2.0}
    assert restricted.dephasing == {"c": 3.0}


def test_from_params_inverts_coherence_times(table_params):
    noise = NoiseModel.from_params(table_params)
    assert noise.loss["a1"] == pytest.approx(1.0 / 231.0)
    assert noise.dephasing["c"] == pytest.approx(1.0 / 1001.0)
    # infinite times are dropped entirely
    p = SystemParams(chi_bc=-1.0, chi_ac=0.0, chi_ab=0.0, g_ac=2.0,
                     t1={"a1": math.inf}, tphi={})
    assert NoiseModel.from_params(p).is_trivial


def test_collapse_operator_rates():
    reg = ModeRegister.from_dims(("m",), 2)
    ops = collapse_operators(reg, NoiseModel(loss={"m": 0.04}, dephasing={"m": 0.09}))
    assert len(ops) == 2
    a = build_mode_operator(reg, "m", "annihilate").data
    n = build_mode_operator(reg, "m", "number").data
    np.testing.assert_allclose(ops[0], math.sqrt(0.04) * a)
    np.testing.assert_allclose(ops[1], math.sqrt(2 * 0.09) * n)
    # zero rates contribute no operator
    assert collapse_operators(reg, NoiseModel(loss={"m": 0.0})) == []


def test_liouvillian_rejects_non_hermitian_hamiltonian():
    reg = ModeRegister.from_dims(("m",), 2)
    h = OperatorMatrix(reg, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        liouvillian(h, NoiseModel.none())


def test_amplitude_damping_analytic_decay():
    reg = ModeRegister.from_dims(("m",), 2)
    h = OperatorMatrix(reg, np.zeros((2, 2), dtype=complex))
    kappa, t = 0.31, 1.7
    gen = liouvillian(h, NoiseModel(loss={"m": kappa}))
    rho0 = np.array([[0.25, 0.4], [0.4, 0.75]], dtype=complex)
    rho = (expm(gen * t) @ rho0.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert rho[1, 1] == pytest.approx(0.75 * math.exp(-kappa * t), rel=1e-10)
    assert rho[0, 1] == pytest.approx(0.4 * math.exp(-kappa * t / 2), rel=1e-10)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


def test_dephasing_analytic_decay():
    # sqrt(2/Tphi) n gives coherence decay exp(-t/Tphi) between n=0 and n=1
    reg = ModeRegister.from_dims(("m",), 2)
    h = OperatorMatrix(reg, np.zeros((2, 2), dtype=complex))
    kphi, t = 0.2, 2.3
    gen = liouvillian(h, NoiseModel(dephasing={"m": kphi}))
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = (expm(gen * t) @ rho0.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert rho[0, 1] == pytest.approx(0.5 * math.exp(-kphi * t), rel=1e-10)
    assert rho[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_noiseless_propagation_matches_unitary(table_params, register2):
    schedule = build_schedule(table_params, register2)
    u = ideal_unitary(schedule).data
    rho0 = DensityMatrix.basis_state(register2, {"a2": 1, "b1": 1})
    result = propagate(schedule, NoiseModel.none(), rho0)
    expected = u @ rho0.data @ u.conj().T
    np.testing.assert_allclose(result.state.data, expected, atol=1e-9)
    assert result.elapsed == pytest.approx(schedule.total_duration)


def test_propagate_register_mismatch_raises(table_params, register2):
    schedule = build_schedule(table_params, register2)
    other = DensityMatrix.basis_state(ModeRegister.standard(3), {"a1": 1, "b1": 1})
    with pytest.raises(ValueError, match="register"):
        propagate(schedule, NoiseModel.none(), other)


def test_propagate_rejects_a_non_hermitian_input(table_params, register2):
    schedule = build_schedule(table_params, register2)
    i, j = codespace_basis_indices(register2)[:2]
    data = np.zeros((register2.dim, register2.dim), dtype=complex)
    data[i, i] = data[j, j] = 0.5
    data[i, j] = 0.5  # no matching conjugate entry at (j, i)
    rho0 = DensityMatrix(register2, data, validate=False)
    with pytest.raises(ValueError, match="not Hermitian"):
        propagate(schedule, NoiseModel.from_params(table_params), rho0)


def test_propagate_partition_probabilities(table_params, register2):
    schedule = build_schedule(table_params, register2)
    noise = NoiseModel.from_params(table_params)
    proj = codespace_projector(register2, (DualRailCode("a1", "a2"),
                                           DualRailCode("b1", "b2")), "c")
    rho0 = DensityMatrix.basis_state(register2, {"a1": 1, "b1": 1})
    result = propagate(schedule, noise, rho0, partition={"codespace": proj})
    assert 0.99 < result.probabilities["codespace"] < 1.0
    assert result.state.trace == pytest.approx(1.0, abs=1e-10)


def _codespace_units(register):
    idx = codespace_basis_indices(register)
    units = []
    for b in idx:
        for a in idx:
            m = np.zeros((register.dim, register.dim), dtype=complex)
            m[a, b] = 1.0
            units.append(m)
    return units


def _bell_input(register):
    prep = (dual_rail_rotation(register, CONTROL_CODE, "x", math.pi / 2)
            @ dual_rail_rotation(register, TARGET_CODE, "x", math.pi / 2)).data
    rho = DensityMatrix.basis_state(register, {"a1": 1, "b1": 1}).data
    return prep @ rho @ prep.conj().T


def _sector_mask(register):
    photons = np.array([sum(register.occupations(k)) for k in range(register.dim)])
    inside = photons <= 2
    return np.outer(inside, inside)


def test_gate_superoperator_matches_full_register_oracle(table_params, register2):
    # oracle: the full 1024-dim superoperator, built without any sector code
    schedule = build_schedule(table_params, register2)
    noise = NoiseModel.from_params(table_params)
    full = np.eye(register2.dim ** 2, dtype=complex)
    for h, dt, _ in schedule.segments:
        full = expm(liouvillian(h, noise) * dt) @ full
    gate = gate_superoperator(schedule, noise)
    d = register2.dim
    outside = ~_sector_mask(register2)
    for rho0 in _codespace_units(register2) + [_bell_input(register2)]:
        expected = (full @ rho0.reshape(-1, order="F")).reshape(d, d, order="F")
        got = gate.apply(rho0)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        assert np.all(got[outside] == 0)
    assert gate.sector.size == 16


def test_gate_map_rejects_weight_outside_the_sector(table_params, register2):
    gate = gate_superoperator(build_schedule(table_params, register2),
                              NoiseModel.from_params(table_params))
    three = DensityMatrix.basis_state(register2, {"a1": 1, "c": 1, "b1": 1})
    with pytest.raises(ValueError, match="outside the sector"):
        gate.apply(three.data)
    mixed = 0.5 * _bell_input(register2) + 0.5 * three.data
    with pytest.raises(ValueError, match="outside the sector"):
        gate.apply(mixed)


def test_gate_map_rejects_a_coherence_between_photon_numbers(table_params, register2):
    gate = gate_superoperator(build_schedule(table_params, register2),
                              NoiseModel.from_params(table_params))
    # |a1 b1><a1|: both states lie in the sector, but hold two and one photons
    two = register2.basis_index({"a1": 1, "b1": 1})
    one = register2.basis_index({"a1": 1})
    coherence = np.zeros((register2.dim, register2.dim), dtype=complex)
    coherence[two, one] = 1.0
    with pytest.raises(ValueError, match="outside"):
        gate.apply(coherence)


@pytest.mark.parametrize("truncation, sector, kept", [(2, 16, 126), (3, 21, 251)])
def test_gate_map_keeps_the_equal_photon_number_block(table_params, truncation,
                                                       sector, kept):
    # 1 + 5^2 + 10^2 sector pairs with 0, 1, 2 photons in row and column at
    # truncation 2; 1 + 5^2 + 15^2 at truncation 3
    reg = ModeRegister.standard(truncation)
    gate = gate_superoperator(build_schedule(table_params, reg),
                              NoiseModel.from_params(table_params))
    photons = reg.occupation_table.sum(axis=1)
    assert gate.sector.size == sector
    assert gate.rows.size == gate.cols.size == kept
    assert gate.superop.shape == (kept, kept)
    np.testing.assert_array_equal(photons[gate.rows], photons[gate.cols])
    assert np.all(photons[gate.rows] <= 2)


def test_gate_map_matches_the_whole_sector_construction_at_truncation_3(table_params):
    # oracle: the 441-dim map on every entry of the 21-state sector, each
    # segment's generator assembled from Kronecker products
    reg = ModeRegister.standard(3)
    schedule = build_schedule(table_params, reg)
    noise = NoiseModel.from_params(table_params)
    photons = reg.occupation_table.sum(axis=1)
    sector = np.flatnonzero(photons <= 2)
    block = np.ix_(sector, sector)
    n = sector.size
    ident = np.eye(n)
    collapse = [c[block] for c in collapse_operators(reg, noise)]
    whole = np.eye(n * n, dtype=complex)
    for h, dt, _ in schedule.segments:
        hm = h.data[block]
        gen = -1j * (np.kron(ident, hm) - np.kron(hm.T, ident))
        for c in collapse:
            cdc = c.conj().T @ c
            gen = (gen + np.kron(c.conj(), c) - 0.5 * np.kron(ident, cdc)
                   - 0.5 * np.kron(cdc.T, ident))
        whole = expm(gen * dt) @ whole
    gate = gate_superoperator(schedule, noise)
    assert whole.shape == (441, 441)
    for rho0 in _codespace_units(reg) + [_bell_input(reg)]:
        out = (whole @ rho0[block].reshape(-1, order="F")).reshape(n, n, order="F")
        expected = np.zeros_like(rho0)
        expected[block] = out
        np.testing.assert_allclose(gate.apply(rho0), expected, rtol=0, atol=1e-12)


def test_gate_superoperator_rejects_a_photon_number_drive(table_params, register2):
    # a drive on the coupler would carry a two-photon state out of the sector
    schedule = build_schedule(table_params, register2)
    c = build_mode_operator(register2, "c", "annihilate")
    h, dt, tag = schedule.segments[1]
    driven = OperatorMatrix(register2, h.data + c.data + c.dag().data)
    schedule = dataclasses.replace(
        schedule, segments=(schedule.segments[0], (driven, dt, tag), schedule.segments[2]))
    with pytest.raises(ValueError, match="'wait' does not conserve photon number"):
        gate_superoperator(schedule, NoiseModel.none())


def test_propagation_at_truncation_3(table_params):
    reg = ModeRegister.standard(3)
    schedule = build_schedule(table_params, reg)
    rho0 = DensityMatrix.basis_state(reg, {"a2": 1, "b2": 1})
    result = propagate(schedule, NoiseModel.none(), rho0)
    proj = codespace_projector(reg, (DualRailCode("a1", "a2"),
                                     DualRailCode("b1", "b2")), "c")
    assert np.real(np.trace(proj.data @ result.state.data)) == pytest.approx(1.0, abs=1e-9)
    assert result.state.trace == pytest.approx(1.0, abs=1e-9)


def test_gate_map_is_converged_in_truncation(table_params, register2):
    # codespace inputs never put two photons in one mode, so truncation 3
    # adds states the gate does not reach
    noise = NoiseModel.from_params(table_params)
    reg3 = ModeRegister.standard(3)
    gate2 = gate_superoperator(build_schedule(table_params, register2), noise)
    gate3 = gate_superoperator(build_schedule(table_params, reg3), noise)
    assert gate3.sector.size == 21
    shared = [reg3.basis_index(register2.occupations(k)) for k in range(register2.dim)]
    unshared = np.ones((reg3.dim, reg3.dim), dtype=bool)
    unshared[np.ix_(shared, shared)] = False
    for u2, u3 in zip(_codespace_units(register2), _codespace_units(reg3)):
        out3 = gate3.apply(u3)
        np.testing.assert_allclose(out3[np.ix_(shared, shared)], gate2.apply(u2),
                                   rtol=0, atol=1e-12)
        assert np.all(out3[unshared] == 0)


@pytest.mark.xfail(strict=True, reason=(
    "budget Hermitizes its non-Hermitian unit outputs above dimension 64, the "
    "truncation-3 defect recorded in perfbench/reference.json"))
def test_error_budget_is_converged_in_truncation(table_params):
    at2 = compute_error_budget(table_params, truncation=2).as_dict()
    at3 = compute_error_budget(table_params, truncation=3).as_dict()
    for key, value in at2.items():
        assert at3[key] == pytest.approx(value, rel=0, abs=1e-9), key
