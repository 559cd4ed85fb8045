"""Shared fixtures: measured-device parameters, standard registers, a
register-size oracle for the gate's Hamiltonians, and the one embedding
of the gate map between its dual-rail space and the register."""
import numpy as np
import pytest

from drcz import DeviceConfig, ModeRegister
from drcz.fock import build_mode_operator
from drcz.gate import derive_gate_params


@pytest.fixture(scope="session")
def table_params():
    return DeviceConfig.default().system_params()


@pytest.fixture()
def register2():
    return ModeRegister.standard(2)


def _register_hamiltonians(params, register, include_static_crosskerr=False, *,
                           t_wait=None, phi_swap=None):
    """The swap-in, wait and swap-back Hamiltonians with their durations, at
    the calibrated operating point unless t_wait or the swap-back pump
    phase phi_swap is given, as (dim, dim) arrays on the whole register:
    written from products of register-size mode operators, with no sector
    code."""
    t_swap, t_wait_cal, phi_swap_cal = derive_gate_params(params)
    t_wait = t_wait_cal if t_wait is None else t_wait
    phi_swap = phi_swap_cal if phi_swap is None else phi_swap
    a2 = build_mode_operator(register, "a2", "annihilate")
    c = build_mode_operator(register, "c", "annihilate")
    n_a2 = build_mode_operator(register, "a2", "number")
    n_b1 = build_mode_operator(register, "b1", "number")
    n_c = build_mode_operator(register, "c", "number")
    disp = params.chi_bc * (n_b1 @ n_c)
    if include_static_crosskerr:
        disp = disp + params.chi_ac * (n_a2 @ n_c) + params.chi_ab * (n_a2 @ n_b1)
    hop = a2.conj().T @ c

    def swap(phase):
        return 0.5 * params.g_ac * (np.exp(1j * phase) * hop
                                    + np.exp(-1j * phase) * hop.conj().T) + disp

    return [(swap(0.0), t_swap), (disp, t_wait), (swap(phi_swap), t_swap)]


@pytest.fixture(scope="session")
def register_hamiltonians():
    """`_register_hamiltonians(params, register, include_static_crosskerr=False, *,
    t_wait=None, phi_swap=None)`."""
    return _register_hamiltonians


def _apply_on_register(gate, rho):
    """`gate.apply` on a register matrix: rho's block on the gate's sector
    goes through the map, and the output comes back embedded in a register
    matrix, zero off that block.  Asserts that rho has no weight off it."""
    block = np.ix_(gate.sector, gate.sector)
    off_block = rho.copy()
    off_block[block] = 0
    assert not off_block.any(), "input has weight outside the gate's sector"
    out = np.zeros(rho.shape, dtype=complex)
    out[block] = gate.apply(rho[block])
    return out


@pytest.fixture(scope="session")
def apply_on_register():
    """`_apply_on_register(gate, rho)`."""
    return _apply_on_register
