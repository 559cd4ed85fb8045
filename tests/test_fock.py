"""Mode registers, embedded operators, states, and the dual-rail code."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from drcz.fock import (
    ERASURE,
    DensityMatrix,
    DualRailCode,
    ModeRegister,
    OperatorMatrix,
    build_mode_operator,
    codespace_projector,
)


def test_standard_register_layout():
    reg = ModeRegister.standard(2)
    assert reg.labels == ("a1", "a2", "c", "b1", "b2")
    assert reg.dims == (2, 2, 2, 2, 2)
    assert reg.dim == 32
    assert ModeRegister.standard(3).dim == 243


def test_register_rejects_duplicates_and_tiny_modes():
    with pytest.raises(ValueError, match="duplicate"):
        ModeRegister((("a", 2), ("a", 2)))
    with pytest.raises(ValueError, match="dim >= 2"):
        ModeRegister((("a", 1),))


def test_basis_index_sequence_and_mapping_agree():
    reg = ModeRegister.standard(2)
    occ = (1, 0, 0, 1, 0)
    assert reg.basis_index(occ) == reg.basis_index({"a1": 1, "b1": 1})
    # first listed mode is the slowest index
    assert reg.basis_index((1, 0, 0, 0, 0)) == 16
    assert reg.basis_index((0, 0, 0, 0, 1)) == 1


def test_basis_index_validation():
    reg = ModeRegister.standard(2)
    with pytest.raises(KeyError, match="unknown mode labels"):
        reg.basis_index({"zz": 1})
    with pytest.raises(ValueError, match="out of range"):
        reg.basis_index((2, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="expected 5 occupations"):
        reg.basis_index((0, 0))
    with pytest.raises(KeyError, match="unknown mode label"):
        reg.index("q7")


@pytest.mark.parametrize("register", [
    ModeRegister.standard(2),
    ModeRegister.standard(3),
    ModeRegister.from_dims(("p", "q", "r"), (2, 3, 4)),
], ids=["standard2", "standard3", "dims234"])
def test_occupation_table_matches_occupations(register):
    table = register.occupation_table
    assert table.shape == (register.dim, len(register.modes))
    np.testing.assert_array_equal(
        table, [register.occupations(k) for k in range(register.dim)])
    assert register.occupation_table is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1


def test_occupations_inverts_basis_index_exhaustively():
    reg = ModeRegister.from_dims(("x", "y", "z"), (2, 3, 2))
    for flat in range(reg.dim):
        assert reg.basis_index(reg.occupations(flat)) == flat


@given(dims=st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4),
       data=st.data())
def test_basis_index_round_trip_property(dims, data):
    labels = [f"m{i}" for i in range(len(dims))]
    reg = ModeRegister.from_dims(labels, dims)
    occ = tuple(data.draw(st.integers(min_value=0, max_value=d - 1)) for d in dims)
    flat = reg.basis_index(occ)
    assert 0 <= flat < reg.dim
    assert reg.occupations(flat) == occ


def test_basis_state_is_one_hot():
    reg = ModeRegister.standard(2)
    vec = reg.basis_state({"c": 1})
    assert vec[reg.basis_index({"c": 1})] == 1.0
    assert np.count_nonzero(vec) == 1


def test_annihilation_operator_matrix_elements():
    reg = ModeRegister.from_dims(("m",), 3)
    a = build_mode_operator(reg, "m", "annihilate").data
    expected = np.diag(np.sqrt([1.0, 2.0]), k=1)
    np.testing.assert_allclose(a, expected)
    n = build_mode_operator(reg, "m", "number").data
    np.testing.assert_allclose(n, np.diag([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="unsupported operator kind"):
        build_mode_operator(reg, "m", "squeeze")


def test_embedded_number_operator_matches_occupations():
    reg = ModeRegister.standard(2)
    n_c = build_mode_operator(reg, "c", "number").data
    i_c = reg.index("c")
    diag = np.real(np.diag(n_c))
    for flat in range(reg.dim):
        assert diag[flat] == reg.occupations(flat)[i_c]


def test_commutator_defect_vanishes_below_truncation_edge():
    reg = ModeRegister.from_dims(("m", "p"), (4, 2))
    a = build_mode_operator(reg, "m", "annihilate")
    comm = (a @ a.dag() - a.dag() @ a).data
    # [a, a+] is the identity on every state below the top Fock level of m
    below = reg.occupation_table[:, reg.index("m")] < 3
    np.testing.assert_allclose(comm[np.ix_(below, below)], np.eye(int(below.sum())),
                               rtol=0, atol=1e-12)
    # the top Fock level of a dim-d mode carries [a, a+] = 1 - d
    top = reg.basis_index({"m": 3})
    assert comm[top, top] == pytest.approx(1 - 4, rel=1e-12)


def test_operator_register_mismatch_raises():
    a = build_mode_operator(ModeRegister.from_dims(("m",), 2), "m", "number")
    b = build_mode_operator(ModeRegister.from_dims(("p",), 2), "p", "number")
    with pytest.raises(ValueError, match="different registers"):
        a @ b
    with pytest.raises(ValueError, match="different registers"):
        a + b


def test_operator_algebra():
    reg = ModeRegister.from_dims(("m",), 3)
    a = build_mode_operator(reg, "m", "annihilate")
    n = build_mode_operator(reg, "m", "number")
    np.testing.assert_allclose((a.dag() @ a).data, n.data, atol=1e-14)
    np.testing.assert_allclose((2.0 * n - n).data, n.data)
    rho = DensityMatrix.basis_state(reg, {"m": 2})
    assert np.trace(n.data @ rho.data) == pytest.approx(2.0)


def test_density_matrix_validation():
    reg = ModeRegister.from_dims(("m",), 2)
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(reg, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="not PSD"):
        DensityMatrix(reg, np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(reg, np.eye(2))
    # validate=False admits intermediate non-states (matrix units)
    unit = np.zeros((2, 2), dtype=complex)
    unit[0, 1] = 1.0
    DensityMatrix(reg, unit, validate=False)
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix(reg, np.eye(3) / 3)


def test_density_matrix_helpers():
    reg = ModeRegister.from_dims(("m",), 2)
    rho = DensityMatrix.from_state_vector(reg, np.array([1, 1]) / np.sqrt(2))
    assert rho.trace == pytest.approx(1.0)
    assert rho.purity == pytest.approx(1.0)
    mixed = DensityMatrix(reg, np.eye(2) / 2)
    assert mixed.purity == pytest.approx(0.5)
    assert mixed.normalized().trace == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero-trace"):
        DensityMatrix(reg, np.zeros((2, 2)), validate=False).normalized()


def test_dual_rail_classify():
    # truncation 3 so the doubled patterns (2, 0) and (0, 2) exist
    reg = ModeRegister.standard(3)
    code = DualRailCode("b1", "b2")
    outcomes = code.outcomes(reg)
    assert outcomes.shape == (reg.dim,)
    expected = {(1, 0): 0, (0, 1): 1}
    for n0 in range(3):
        for n1 in range(3):
            # the other modes do not change the readout
            states = [reg.basis_index({"a1": a1, "c": c, "b1": n0, "b2": n1})
                      for a1 in range(3) for c in range(3)]
            assert set(outcomes[states]) == {expected.get((n0, n1), ERASURE)}
    assert code.logical_occupations(0) == {"b1": 1, "b2": 0}
    assert code.logical_occupations(1) == {"b1": 0, "b2": 1}
    with pytest.raises(ValueError, match="logical bit"):
        code.logical_occupations(2)


def test_codespace_projector_rank_and_idempotence():
    reg = ModeRegister.standard(2)
    proj = codespace_projector(reg, (DualRailCode("a1", "a2"), DualRailCode("b1", "b2")), "c")
    p = proj.data
    np.testing.assert_allclose(p @ p, p, atol=1e-14)
    assert np.real(np.trace(p)) == pytest.approx(4.0)
    with pytest.raises(ValueError, match="share a mode"):
        codespace_projector(reg, (DualRailCode("a1", "a2"), DualRailCode("a2", "b1")))
    with pytest.raises(ValueError, match="coupler"):
        codespace_projector(reg, (DualRailCode("a1", "a2"),), "a1")


def test_codespace_projector_leaves_unmentioned_modes_free():
    reg = ModeRegister.standard(2)
    proj = codespace_projector(reg, (DualRailCode("a1", "a2"),)).data
    # no coupler constraint: both coupler levels of a codespace pattern pass
    assert proj[reg.basis_index({"a1": 1}), reg.basis_index({"a1": 1})] == 1.0
    hot = reg.basis_index({"a1": 1, "c": 1})
    assert proj[hot, hot] == 1.0
