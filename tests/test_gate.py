"""Swap-wait-swap schedule synthesis and the derived operating point."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from drcz import fock, gate, lindblad
from drcz.fock import ModeRegister, build_mode_operator
from drcz.gate import (
    CONTROL_CODE,
    DIAGONAL_TOL,
    TARGET_CODE,
    GateSchedule,
    SystemParams,
    _block_eigh,
    build_schedule,
    codespace_basis_indices,
    codespace_block,
    derive_gate_params,
    extract_local_frame,
    ideal_unitary,
    on_off_ratio,
    wrap_angle,
)

# Frozen operating point for the measured table values (g = 2*pi*4.23,
# chi_bc = -2*pi*1.51 rad/us), derived once from the closed forms below
# and pinned so a regression in either the table or the formulas trips.
T_SWAP = 0.11820330969267138
T_WAIT = 0.21292251812189816
PHI_SWAP = -2.5840534430951676
T_GATE = 0.44932913750724096
ON_OFF = 227.40963855421685
PHI_CONTROL = -2.5840534430951676


def test_codes_name_the_expected_rails():
    assert CONTROL_CODE.labels == ("a1", "a2")
    assert TARGET_CODE.labels == ("b1", "b2")


@given(theta=st.floats(min_value=-50.0, max_value=50.0))
def test_wrap_angle_lands_on_principal_branch(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-9)
    assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-9)


def test_system_params_validation():
    with pytest.raises(ValueError, match="g_ac must be positive"):
        SystemParams(chi_bc=-1.0, chi_ac=0.0, chi_ab=0.0, g_ac=-2.0)
    with pytest.raises(ValueError, match="chi_bc must be nonzero"):
        SystemParams(chi_bc=0.0, chi_ac=0.0, chi_ab=0.0, g_ac=2.0)
    with pytest.raises(ValueError, match="must be positive"):
        SystemParams(chi_bc=-1.0, chi_ac=0.0, chi_ab=0.0, g_ac=2.0, t1={"a1": 0.0})


@pytest.mark.parametrize("name", ["chi_bc", "chi_ac", "chi_ab", "g_ac"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1.0", None])
def test_system_params_refuse_a_rate_that_is_not_a_finite_number(name, value):
    rates = {"chi_bc": -1.0, "chi_ac": 0.0, "chi_ab": 0.0, "g_ac": 2.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        SystemParams(**rates)


@pytest.mark.parametrize("table", ["t1", "tphi"])
@pytest.mark.parametrize("value", [math.nan, "70", None])
def test_system_params_refuse_a_time_that_is_not_a_positive_number(table, value):
    with pytest.raises(ValueError, match=rf"{table}\['c'\] must be positive"):
        SystemParams(chi_bc=-1.0, chi_ac=0.0, chi_ab=0.0, g_ac=2.0, **{table: {"c": value}})
    # an infinite time disables the channel
    SystemParams(chi_bc=-1.0, chi_ac=0.0, chi_ab=0.0, g_ac=2.0, **{table: {"c": math.inf}})


def test_from_mhz_scales_by_two_pi():
    p = SystemParams.from_mhz(chi_bc=-1.51, chi_ac=0.0, chi_ab=0.0, g_ac=4.23, t1={}, tphi={})
    assert p.chi_bc == pytest.approx(-2 * math.pi * 1.51)
    assert p.g_ac == pytest.approx(2 * math.pi * 4.23)


def test_derived_operating_point_frozen_values(table_params):
    t_swap, t_wait, phi_swap = derive_gate_params(table_params)
    # independent recomputation of the closed forms
    g, chi = 2 * math.pi * 4.23, -2 * math.pi * 1.51
    assert t_swap == pytest.approx(math.pi / g, rel=1e-15)
    assert t_wait == pytest.approx(math.pi / abs(chi) - math.pi / g, rel=1e-15)
    assert t_swap == pytest.approx(T_SWAP, rel=1e-12)
    assert t_wait == pytest.approx(T_WAIT, rel=1e-12)
    assert phi_swap == pytest.approx(PHI_SWAP, rel=1e-12)
    assert 2 * t_swap + t_wait == pytest.approx(T_GATE, rel=1e-12)


def test_derive_rejects_inverted_rate_ordering():
    slow = SystemParams.from_mhz(chi_bc=-4.23, chi_ac=0.0, chi_ab=0.0, g_ac=1.51, t1={}, tphi={})
    with pytest.raises(ValueError, match="positive wait"):
        derive_gate_params(slow)


def test_schedule_structure(table_params, register2):
    schedule = build_schedule(table_params, register2)
    assert tuple(tag for _, _, tag in schedule.segments) == ("swap1", "wait", "swap2")
    assert schedule.total_duration == pytest.approx(T_GATE, rel=1e-12)
    assert not schedule.includes_static_crosskerr
    # the wait segment is purely dispersive: diagonal Hamiltonian
    wait_h = schedule.segments[1][0]
    assert np.count_nonzero(wait_h - np.diag(np.diag(wait_h))) == 0
    with pytest.raises(ValueError, match="segment tags"):
        GateSchedule(register=register2,
                     segments=schedule.segments[::-1],
                     t_swap=schedule.t_swap, t_wait=schedule.t_wait,
                     phi_swap=schedule.phi_swap)


def test_schedule_refuses_a_segment_that_is_not_sector_size(table_params,
                                                           register_hamiltonians, register2):
    schedule = build_schedule(table_params, register2)
    whole = tuple((h, dt, tag) for (h, dt), (_, _, tag)
                  in zip(register_hamiltonians(table_params, register2), schedule.segments))
    with pytest.raises(ValueError, match=r"'swap1' has shape \(32, 32\), expected \(12, 12\)"):
        dataclasses.replace(schedule, segments=whole)
    _, dt, tag = schedule.segments[1]
    with pytest.raises(ValueError, match=r"'wait' has shape \(12, 11\), expected \(12, 12\)"):
        dataclasses.replace(schedule, segments=(
            schedule.segments[0], (np.zeros((12, 11)), dt, tag), schedule.segments[2]))


def test_schedule_refuses_a_hop_between_the_qubits(table_params, register2):
    # an a1-b1 beamsplitter keeps the total photon number but moves a photon
    # from the control to the target
    schedule = build_schedule(table_params, register2)
    on_space = np.ix_(schedule.sector, schedule.sector)
    a1 = build_mode_operator(register2, "a1", "annihilate")[on_space]
    b1 = build_mode_operator(register2, "b1", "annihilate")[on_space]
    h, dt, tag = schedule.segments[1]
    hop = h + a1.conj().T @ b1 + b1.conj().T @ a1
    with pytest.raises(ValueError, match="'wait' changes a qubit's photon count"):
        dataclasses.replace(schedule, segments=(
            schedule.segments[0], (hop, dt, tag), schedule.segments[2]))


def test_schedule_requires_the_coupled_modes(table_params):
    reg = ModeRegister((("a1", 2), ("a2", 2), ("c", 2)))
    with pytest.raises(KeyError, match="b1"):
        build_schedule(table_params, reg)


def test_static_crosskerr_terms_enter_every_segment(table_params, register2):
    plain = build_schedule(table_params, register2)
    kerr = build_schedule(table_params, register2, include_static_crosskerr=True)
    assert kerr.includes_static_crosskerr
    for (h0, _, _), (h1, _, _) in zip(plain.segments, kerr.segments):
        assert np.max(np.abs(h1 - h0)) > 0


def test_ideal_unitary_is_unitary(table_params, register2):
    u = ideal_unitary(build_schedule(table_params, register2))
    assert u.shape == (12, 12)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(12), atol=1e-12)


@pytest.mark.parametrize("crosskerr", [False, True])
@pytest.mark.parametrize("truncation", [2, 3])
def test_ideal_unitary_matches_the_expm_product(table_params, register_hamiltonians,
                                                truncation, crosskerr):
    # oracle: the expm product of the register-size Hamiltonians, which maps
    # the sector into itself; the sector propagator is its sector block
    register = ModeRegister.standard(truncation)
    schedule = build_schedule(table_params, register, include_static_crosskerr=crosskerr)
    whole = np.eye(register.dim, dtype=complex)
    for h, dt in register_hamiltonians(table_params, register, crosskerr):
        whole = expm(-1j * h * dt) @ whole
    sector = schedule.sector
    outside = np.setdiff1d(np.arange(register.dim), sector)
    assert sector.size == 12
    assert np.all(whole[np.ix_(outside, sector)] == 0)
    want = whole[np.ix_(sector, sector)]
    got = ideal_unitary(schedule)
    assert np.array_equal(got == 0, want == 0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_the_gate_runs_on_the_photon_sector_at_truncation_3(table_params, monkeypatch):
    # Mode operators come back as arrays that log every matrix product they
    # enter; the block decomposition, eigh and the Lindblad exponential log
    # their input widths.  None may be register-size (243), and no
    # register-size mode operator is built at all.
    products, decomposed, eighs, expms, used_collapse = [], [], [], [], []
    built = []

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(max(max(np.shape(x)) for x in inputs))
            plain = [x.view(np.ndarray) if isinstance(x, Logged) else x for x in inputs]
            result = getattr(ufunc, method)(*plain, **kwargs)
            return result.view(Logged) if isinstance(result, np.ndarray) else result

    def log_widths(log, fn):
        def logged(a):
            log.append(a.shape[-1])
            return fn(a)
        return logged

    collapse_operators = lindblad.collapse_operators

    def recorded_collapse(register, noise):
        ops = collapse_operators(register, noise)
        used_collapse.extend(ops)
        return ops

    def building(*args):
        built.append(args)
        return build_mode_operator(*args)

    monkeypatch.setattr(fock, "build_mode_operator", building)
    monkeypatch.setattr(gate, "build_mode_operator", building, raising=False)
    space_operator = gate._space_operator
    space_operator.cache_clear()
    for module in (gate, lindblad):
        monkeypatch.setattr(module, "_space_operator",
                            lambda *args: space_operator(*args).view(Logged))
    monkeypatch.setattr(gate, "_block_eigh", log_widths(decomposed, gate._block_eigh))
    monkeypatch.setattr(np.linalg, "eigh", log_widths(eighs, np.linalg.eigh))
    monkeypatch.setattr(lindblad, "expm", log_widths(expms, lindblad.expm))
    monkeypatch.setattr(lindblad, "collapse_operators", recorded_collapse)

    register = ModeRegister.standard(3)
    schedule = build_schedule(table_params, register, include_static_crosskerr=True)
    u = ideal_unitary(schedule)
    noise = lindblad.NoiseModel.from_params(table_params)
    gate_map = lindblad.gate_superoperator(schedule, noise)
    assert {h.shape for h, _, _ in schedule.segments} == {(12, 12)}
    assert u.shape == (12, 12)
    assert len(used_collapse) == 10
    assert {c.shape for c in used_collapse} == {(12, 12)}
    assert gate_map.sector is schedule.sector
    assert built == []
    assert max(products) == 12
    assert decomposed == [12, 12, 12] and max(eighs) <= 12
    # the map's exponentials act on blocks of sector matrix entries
    assert max(expms) == 18


@pytest.mark.parametrize("truncation", [2, 3])
def test_space_operators_are_the_register_operators_on_the_space(truncation):
    # oracle: the register-size operator, sliced to the space's states
    register = ModeRegister.standard(truncation)
    space = gate._dual_rail_space(register)
    for label in register.labels:
        for kind in ("annihilate", "number"):
            got = gate._space_operator(register, label, kind)
            want = build_mode_operator(register, label, kind)[np.ix_(space, space)]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (label, kind)
            assert not got.flags.writeable
            assert gate._space_operator(register, label, kind) is got
    with pytest.raises(ValueError, match="unsupported operator kind"):
        gate._space_operator(register, "c", "squeeze")


def test_block_eigh_finds_chain_blocks_under_a_permutation():
    # Each block is a path i - i+1 - ... ; after the permutation a path
    # visits its indices out of order, so the lowest label needs several
    # passes to reach every state of its block.
    rng = np.random.default_rng(5)
    sizes = (1, 6, 2, 9, 1, 3, 7)
    n = sum(sizes)
    ends = np.cumsum(sizes)
    h = np.diag(rng.normal(size=n)).astype(complex)
    for i in np.setdiff1d(np.arange(n - 1), ends - 1):
        h[i, i + 1] = rng.normal() + 1j * rng.normal()
        h[i + 1, i] = np.conj(h[i, i + 1])
    perm = rng.permutation(n)
    h = h[np.ix_(perm, perm)]
    block = np.repeat(np.arange(len(sizes)), sizes)[perm]

    lam, v = _block_eigh(h)
    assert np.all(v[block[:, None] != block[None, :]] == 0)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(n), rtol=0, atol=1e-14)
    np.testing.assert_allclose((v * lam) @ v.conj().T, h, rtol=0, atol=1e-14)


def test_codespace_basis_indices_control_major(register2):
    # |control target> order: (a1, a2, c, b1, b2) occupations flattened
    assert codespace_basis_indices(register2) == [18, 17, 10, 9]


def test_codespace_block_reads_the_sector_operator(table_params, register2):
    schedule = build_schedule(table_params, register2)
    u = ideal_unitary(schedule)
    pos = [int(np.flatnonzero(schedule.sector == i)[0])
           for i in codespace_basis_indices(register2)]
    assert np.array_equal(codespace_block(register2, u), u[np.ix_(pos, pos)])
    with pytest.raises(ValueError, match=r"12-state dual-rail space, got shape \(32, 32\)"):
        codespace_block(register2, np.eye(32))


def test_codespace_block_is_diagonal_cz_frame(table_params, register2):
    block = codespace_block(register2, ideal_unitary(build_schedule(table_params, register2)))
    off = block - np.diag(np.diag(block))
    assert np.linalg.norm(off) < 1e-9
    frame = extract_local_frame(block)
    assert frame.phi_target == pytest.approx(0.0, abs=1e-9)
    assert frame.phi_control == pytest.approx(PHI_CONTROL, abs=1e-9)
    assert abs(frame.phi_e) == pytest.approx(math.pi, abs=1e-9)


def test_extract_local_frame_reads_known_diagonal():
    phi_t, phi_c = 0.31, -1.2
    diag = np.exp(1j * np.array([0.0, phi_t, phi_c, phi_t + phi_c + math.pi]))
    frame = extract_local_frame(np.diag(diag))
    assert frame.phi_target == pytest.approx(phi_t, rel=1e-12)
    assert frame.phi_control == pytest.approx(phi_c, rel=1e-12)
    assert abs(frame.phi_e) == pytest.approx(math.pi, rel=1e-12)
    with pytest.raises(ValueError, match="not diagonal"):
        extract_local_frame(np.ones((4, 4), dtype=complex) / 2)
    near = np.diag(diag)
    near[0, 1] = 0.5 * DIAGONAL_TOL
    assert extract_local_frame(near) == frame
    near[0, 1] = 2.0 * DIAGONAL_TOL
    with pytest.raises(ValueError, match="not diagonal"):
        extract_local_frame(near)
    with pytest.raises(ValueError, match="4x4"):
        extract_local_frame(np.eye(2, dtype=complex))


def test_on_off_ratio(table_params):
    assert on_off_ratio(table_params) == pytest.approx(ON_OFF, rel=1e-12)
    # independent recomputation from the table rates
    assert on_off_ratio(table_params) == pytest.approx(1.51 / 6.64e-3, rel=1e-12)
    silent = SystemParams.from_mhz(chi_bc=-1.51, chi_ac=0.0, chi_ab=0.0, g_ac=4.23, t1={}, tphi={})
    assert on_off_ratio(silent) == math.inf
