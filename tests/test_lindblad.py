"""The Lindblad generator and the whole-gate map, against Kronecker-product
oracles and closed-form decays."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from drcz import lindblad
from drcz.budget import compute_error_budget
from drcz.fock import ModeRegister, build_mode_operator
from drcz.gate import (
    CONTROL_CODE,
    TARGET_CODE,
    SystemParams,
    build_schedule,
    codespace_basis_indices,
    ideal_unitary,
    occupancy_classes,
)
from drcz.lindblad import (
    NoiseModel,
    _block_generator,
    _drift,
    _generator_blocks,
    collapse_operators,
    gate_superoperator,
)


def _kron_generator(hm, collapse):
    """Oracle: the Lindblad generator on every entry of a d x d matrix,
    assembled from Kronecker products in column-stacking order."""
    ident = np.eye(hm.shape[0])
    gen = -1j * (np.kron(ident, hm) - np.kron(hm.T, ident))
    for c in collapse:
        cdc = c.conj().T @ c
        gen = (gen + np.kron(c.conj(), c) - 0.5 * np.kron(ident, cdc)
               - 0.5 * np.kron(cdc.T, ident))
    return gen


def _every_entry(dim):
    """(rows, cols) of every entry of a dim x dim matrix, column-stacked."""
    cols, rows = np.divmod(np.arange(dim * dim), dim)
    return rows, cols


ONE_MODE = ModeRegister((("m", 2),))


def _one_mode_generator(h, noise):
    """The production generator on every entry of the one-mode register."""
    collapse = collapse_operators(ONE_MODE, noise)
    return _block_generator(_drift(h, collapse), collapse, *_every_entry(ONE_MODE.dim))


def test_noise_model_validation_and_helpers():
    with pytest.raises(ValueError, match="must be >= 0"):
        NoiseModel(loss={"a1": -0.1})
    assert NoiseModel() == NoiseModel(loss={}, dephasing={})


@pytest.mark.parametrize("rate", [math.nan, math.inf, "0.1", None])
@pytest.mark.parametrize("kind", ["loss", "dephasing"])
def test_noise_model_refuses_a_rate_that_is_not_a_finite_number(kind, rate):
    with pytest.raises(ValueError, match=r"\['c'\] must be >= 0 and finite"):
        NoiseModel(**{kind: {"c": rate}})


def test_from_params_inverts_coherence_times(table_params):
    noise = NoiseModel.from_params(table_params)
    assert noise.loss["a1"] == pytest.approx(1.0 / 231.0)
    assert noise.dephasing["c"] == pytest.approx(1.0 / 1001.0)
    # infinite times are dropped entirely
    p = SystemParams(chi_bc=-1.0, chi_ac=0.0, chi_ab=0.0, g_ac=2.0,
                     t1={"a1": math.inf}, tphi={})
    assert NoiseModel.from_params(p) == NoiseModel()


def test_collapse_operator_rates():
    reg = ModeRegister((("m", 2),))
    ops = collapse_operators(reg, NoiseModel(loss={"m": 0.04}, dephasing={"m": 0.09}))
    assert len(ops) == 2
    a = build_mode_operator(reg, "m", "annihilate")
    n = build_mode_operator(reg, "m", "number")
    np.testing.assert_allclose(ops[0], math.sqrt(0.04) * a)
    np.testing.assert_allclose(ops[1], math.sqrt(2 * 0.09) * n)
    # zero rates contribute no operator
    assert collapse_operators(reg, NoiseModel(loss={"m": 0.0})) == []


def test_liouvillian_rejects_non_hermitian_hamiltonian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        _one_mode_generator(h, NoiseModel())


def test_amplitude_damping_analytic_decay():
    h = np.zeros((2, 2), dtype=complex)
    kappa, t = 0.31, 1.7
    gen = _one_mode_generator(h, NoiseModel(loss={"m": kappa}))
    rho0 = np.array([[0.25, 0.4], [0.4, 0.75]], dtype=complex)
    rho = (expm(gen * t) @ rho0.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert rho[1, 1] == pytest.approx(0.75 * math.exp(-kappa * t), rel=1e-10)
    assert rho[0, 1] == pytest.approx(0.4 * math.exp(-kappa * t / 2), rel=1e-10)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


def test_dephasing_analytic_decay():
    # sqrt(2/Tphi) n gives coherence decay exp(-t/Tphi) between n=0 and n=1
    h = np.zeros((2, 2), dtype=complex)
    kphi, t = 0.2, 2.3
    gen = _one_mode_generator(h, NoiseModel(dephasing={"m": kphi}))
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = (expm(gen * t) @ rho0.reshape(-1, order="F")).reshape(2, 2, order="F")
    assert rho[0, 1] == pytest.approx(0.5 * math.exp(-kphi * t), rel=1e-10)
    assert rho[0, 0] == pytest.approx(0.5, abs=1e-12)


def _sector_basis_state(schedule, occupations):
    """|k><k| of a basis state, as a matrix on the schedule's sector."""
    k = np.searchsorted(schedule.sector, schedule.register.basis_index(occupations))
    rho = np.zeros((schedule.sector.size,) * 2, dtype=complex)
    rho[k, k] = 1.0
    return rho


def test_noiseless_propagation_matches_unitary(table_params, register2):
    schedule = build_schedule(table_params, register2)
    u = ideal_unitary(schedule)
    rho0 = _sector_basis_state(schedule, {"a2": 1, "b1": 1})
    out = gate_superoperator(schedule, NoiseModel()).apply(rho0)
    expected = u @ rho0 @ u.conj().T
    np.testing.assert_allclose(out, expected, atol=1e-9)


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
    """X(pi/2)|0_L> = (|0_L> - i|1_L>)/sqrt(2) on both qubits, as a register
    density matrix."""
    ket = sum((-1j) ** (x + y) / 2 * register.basis_state(
        {**CONTROL_CODE.logical_occupations(x), **TARGET_CODE.logical_occupations(y)})
        for x in (0, 1) for y in (0, 1))
    return np.outer(ket, ket.conj())


def _space_mask(register):
    """Entries between basis states where the control (a1, a2, c) and the
    target (b1, b2) each hold at most one photon."""
    occ = [register.occupations(k) for k in range(register.dim)]
    inside = np.array([sum(o[:3]) <= 1 and sum(o[3:]) <= 1 for o in occ])
    return np.outer(inside, inside)


def _register_collapse(register, noise):
    """Loss and dephasing operators on the whole register, with no sector code."""
    return ([math.sqrt(k) * build_mode_operator(register, m, "annihilate")
             for m, k in noise.loss.items() if k > 0]
            + [math.sqrt(2.0 * k) * build_mode_operator(register, m, "number")
               for m, k in noise.dephasing.items() if k > 0])


def test_gate_superoperator_matches_full_register_oracle(table_params, register2,
                                                         register_hamiltonians,
                                                         apply_on_register):
    # oracle: the full 1024-dim superoperator, built without any sector code
    schedule = build_schedule(table_params, register2)
    noise = NoiseModel.from_params(table_params)
    collapse = _register_collapse(register2, noise)
    full = np.eye(register2.dim ** 2, dtype=complex)
    for h, dt in register_hamiltonians(table_params, register2):
        full = expm(_kron_generator(h, collapse) * dt) @ full
    gate = gate_superoperator(schedule, noise)
    d = register2.dim
    outside = ~_space_mask(register2)
    for rho0 in _codespace_units(register2) + [_bell_input(register2)]:
        expected = (full @ rho0.reshape(-1, order="F")).reshape(d, d, order="F")
        # the register-size oracle never leaves the dual-rail space
        assert np.all(expected[outside] == 0)
        np.testing.assert_allclose(apply_on_register(gate, rho0), expected,
                                   rtol=0, atol=1e-12)
    assert gate.sector.size == 12


def test_gate_map_rejects_weight_outside_the_sector(table_params, register2):
    # the map takes matrices on its 12-state space only: a register matrix
    # is refused by its shape, whether or not it has weight off the sector
    gate = gate_superoperator(build_schedule(table_params, register2),
                              NoiseModel.from_params(table_params))
    ket = register2.basis_state({"a1": 1, "c": 1, "b1": 1})
    three = np.outer(ket, ket.conj())
    for rho in (three, 0.5 * _bell_input(register2) + 0.5 * three, _bell_input(register2)):
        with pytest.raises(ValueError, match=r"expected a 12x12 matrix on the dual-rail "
                                             r"space, got shape \(32, 32\)"):
            gate.apply(rho)


def test_gate_map_rejects_a_coherence_between_photon_numbers(table_params, register2):
    schedule = build_schedule(table_params, register2)
    gate = gate_superoperator(schedule, NoiseModel.from_params(table_params))
    # |a1 b1><a1|: both states lie in the space, but hold two and one photons
    two, one = np.searchsorted(schedule.sector, [register2.basis_index({"a1": 1, "b1": 1}),
                                                 register2.basis_index({"a1": 1})])
    coherence = np.zeros((12, 12), dtype=complex)
    coherence[two, one] = 1.0
    with pytest.raises(ValueError, match="outside"):
        gate.apply(coherence)


def test_gate_map_rejects_a_coherence_between_the_qubits(table_params, register2):
    schedule = build_schedule(table_params, register2)
    gate = gate_superoperator(schedule, NoiseModel.from_params(table_params))
    # |a1><b1|: one photon on each side, held by the control on the left and
    # by the target on the right
    control, target = np.searchsorted(schedule.sector, [register2.basis_index({"a1": 1}),
                                                        register2.basis_index({"b1": 1})])
    coherence = np.zeros((12, 12), dtype=complex)
    coherence[control, target] = 1.0
    with pytest.raises(ValueError, match="outside"):
        gate.apply(coherence)


@pytest.mark.parametrize("truncation, sector, kept", [(2, 12, 50), (3, 12, 50)])
def test_gate_map_keeps_the_equal_photon_number_block(table_params, truncation,
                                                       sector, kept):
    # 1 + 3^2 + 2^2 + 6^2 pairs of states with (0, 0), (1, 0), (0, 1) and
    # (1, 1) photons in (control, target) in row and column
    reg = ModeRegister.standard(truncation)
    gate = gate_superoperator(build_schedule(table_params, reg),
                              NoiseModel.from_params(table_params))
    occ = reg.occupation_table[gate.sector]
    photons = np.column_stack([occ[:, :3].sum(axis=1), occ[:, 3:].sum(axis=1)])
    assert gate.sector.size == sector
    assert gate.rows.size == gate.cols.size == kept
    assert gate.superop.shape == (kept, kept)
    np.testing.assert_array_equal(photons[gate.rows], photons[gate.cols])
    assert np.all(photons[gate.rows] <= 1)


def test_gate_map_matches_the_whole_sector_construction_at_truncation_3(
        table_params, register_hamiltonians, apply_on_register):
    # oracle: the 441-dim map on every entry of the 21-state sector, each
    # segment's generator assembled from Kronecker products
    reg = ModeRegister.standard(3)
    schedule = build_schedule(table_params, reg)
    noise = NoiseModel.from_params(table_params)
    photons = reg.occupation_table.sum(axis=1)
    sector = np.flatnonzero(photons <= 2)
    block = np.ix_(sector, sector)
    n = sector.size
    collapse = [c[block] for c in _register_collapse(reg, noise)]
    whole = np.eye(n * n, dtype=complex)
    for h, dt in register_hamiltonians(table_params, reg):
        whole = expm(_kron_generator(h[block], collapse) * dt) @ whole
    gate = gate_superoperator(schedule, noise)
    assert whole.shape == (441, 441)
    for rho0 in _codespace_units(reg) + [_bell_input(reg)]:
        out = (whole @ rho0[block].reshape(-1, order="F")).reshape(n, n, order="F")
        expected = np.zeros_like(rho0)
        expected[block] = out
        np.testing.assert_allclose(apply_on_register(gate, rho0), expected,
                                   rtol=0, atol=1e-12)


def _production_blocks(schedule, noise, gate):
    """The blocks gate_superoperator exponentiates, as indices into the
    map's kept entries, and each segment's generator on all of them."""
    collapse = collapse_operators(schedule.register, noise)
    drifts = [_drift(h, collapse) for h, _, _ in schedule.segments]
    blocks = _generator_blocks(drifts, collapse, gate.rows, gate.cols)
    gens = [_block_generator(a, collapse, gate.rows, gate.cols) for a in drifts]
    return blocks, gens


def test_expm_is_scipy_expm_on_a_stacked_input():
    # the wrapper only defers scipy's import: a stacked (B, m, m) complex
    # input gives scipy's result bit for bit
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(5, 24, 24)) + 1j * rng.normal(size=(5, 24, 24))
    assert np.array_equal(lindblad.expm(stack), expm(stack))


@pytest.mark.parametrize("kerr", [False, True])
@pytest.mark.parametrize("truncation, count, largest", [(2, 9, 18), (3, 9, 18)])
def test_gate_map_is_an_exact_direct_sum_of_small_blocks(table_params, monkeypatch,
                                                        truncation, count, largest, kerr):
    # one block per difference of the conserved charges n_a1, n_b1 and n_b2
    # between row and column, found from the generator's pattern
    schedule = build_schedule(table_params, ModeRegister.standard(truncation),
                              include_static_crosskerr=kerr)
    noise = NoiseModel.from_params(table_params)
    widths = []

    def recording_expm(m):
        widths.append(m.shape[-1])
        return expm(m)

    monkeypatch.setattr(lindblad, "expm", recording_expm)
    gate = gate_superoperator(schedule, noise)
    blocks, gens = _production_blocks(schedule, noise, gate)
    assert sum(idx.shape[0] for idx in blocks) == count
    assert max(idx.shape[1] for idx in blocks) == largest
    kept = np.concatenate([idx.ravel() for idx in blocks])
    np.testing.assert_array_equal(np.sort(kept), np.arange(gate.rows.size))
    label = np.empty(gate.rows.size, dtype=int)
    start = 0
    for idx in blocks:
        label[idx] = start + np.arange(idx.shape[0])[:, None]
        start += idx.shape[0]
    between = label[:, None] != label[None, :]
    for gen in gens:
        assert np.all(gen[between] == 0)
    assert np.all(gate.superop[between] == 0)
    assert 0 < len(widths) and max(widths) == largest


def test_gate_map_blocks_follow_a_charge_breaking_beamsplitter(table_params,
                                                             register_hamiltonians,
                                                             apply_on_register):
    # an a1-a2 beamsplitter in the wait keeps each qubit's photon count but
    # not n_a1 or n_a2 + n_c: the blocks must merge, and the map still match
    # the 441-dim Kronecker construction on the 21 states with at most two
    # photons, from register-size Hamiltonians
    reg = ModeRegister.standard(3)
    schedule = build_schedule(table_params, reg)
    a1 = build_mode_operator(reg, "a1", "annihilate")
    a2 = build_mode_operator(reg, "a2", "annihilate")
    hop = 0.5 * table_params.chi_bc * (a1.conj().T @ a2 + a2.conj().T @ a1)
    h, dt, tag = schedule.segments[1]
    mixed = h + hop[np.ix_(schedule.sector, schedule.sector)]
    schedule = dataclasses.replace(
        schedule, segments=(schedule.segments[0], (mixed, dt, tag), schedule.segments[2]))
    noise = NoiseModel.from_params(table_params)
    gate = gate_superoperator(schedule, noise)
    blocks, _ = _production_blocks(schedule, noise, gate)
    assert sum(idx.shape[0] for idx in blocks) < 9
    photons = reg.occupation_table.sum(axis=1)
    sector = np.flatnonzero(photons <= 2)
    block = np.ix_(sector, sector)
    n = sector.size
    collapse = [c[block] for c in _register_collapse(reg, noise)]
    segments = register_hamiltonians(table_params, reg)
    segments[1] = (segments[1][0] + hop, segments[1][1])
    whole = np.eye(n * n, dtype=complex)
    for h, dt in segments:
        whole = expm(_kron_generator(h[block], collapse) * dt) @ whole
    for rho0 in _codespace_units(reg) + [_bell_input(reg)]:
        out = (whole @ rho0[block].reshape(-1, order="F")).reshape(n, n, order="F")
        expected = np.zeros_like(rho0)
        expected[block] = out
        np.testing.assert_allclose(apply_on_register(gate, rho0), expected,
                                   rtol=0, atol=1e-12)


def test_gate_superoperator_rejects_a_photon_number_drive(table_params, register2):
    # a drive on the coupler adds and removes the control's photon
    schedule = build_schedule(table_params, register2)
    c = build_mode_operator(register2, "c", "annihilate")[np.ix_(schedule.sector,
                                                                 schedule.sector)]
    h, dt, tag = schedule.segments[1]
    driven = h + c + c.conj().T
    with pytest.raises(ValueError, match="'wait' changes a qubit's photon count"):
        gate_superoperator(dataclasses.replace(schedule, segments=(
            schedule.segments[0], (driven, dt, tag), schedule.segments[2])), NoiseModel())


def test_propagation_at_truncation_3(table_params):
    reg = ModeRegister.standard(3)
    schedule = build_schedule(table_params, reg)
    rho0 = _sector_basis_state(schedule, {"a2": 1, "b2": 1})
    out = gate_superoperator(schedule, NoiseModel()).apply(rho0)
    codespace = occupancy_classes(reg)[schedule.sector] == 0
    assert np.real(np.diag(out))[codespace].sum() == pytest.approx(1.0, abs=1e-9)
    assert np.real(np.trace(out)) == pytest.approx(1.0, abs=1e-9)


def test_gate_map_is_converged_in_truncation(table_params, register2):
    # each qubit holds at most one photon, so truncation 3 adds no state to
    # the gate's space: the same 12 states in the same order give the same
    # map and unitary, bit for bit
    noise = NoiseModel.from_params(table_params)
    reg3 = ModeRegister.standard(3)
    for kerr in (False, True):
        at2 = build_schedule(table_params, register2, include_static_crosskerr=kerr)
        at3 = build_schedule(table_params, reg3, include_static_crosskerr=kerr)
        assert at3.sector.size == 12
        np.testing.assert_array_equal(register2.occupation_table[at2.sector],
                                      reg3.occupation_table[at3.sector])
        gate2, gate3 = gate_superoperator(at2, noise), gate_superoperator(at3, noise)
        for name in ("rows", "cols", "superop"):
            assert np.array_equal(getattr(gate2, name), getattr(gate3, name)), name
        assert np.array_equal(ideal_unitary(at2), ideal_unitary(at3))


@pytest.mark.xfail(strict=True, reason=(
    "budget Hermitizes its non-Hermitian unit outputs above dimension 64, the "
    "truncation-3 defect recorded in perfbench/reference.json"))
def test_error_budget_is_converged_in_truncation(table_params):
    at2 = compute_error_budget(table_params, truncation=2).as_dict()
    at3 = compute_error_budget(table_params, truncation=3).as_dict()
    for key, value in at2.items():
        assert at3[key] == pytest.approx(value, rel=0, abs=1e-9), key
