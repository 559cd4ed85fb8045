"""Mode registers, embedded operators, states, and the dual-rail code."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from drcz.fock import (
    ERASURE,
    DensityMatrix,
    DualRailCode,
    ModeRegister,
    build_mode_operator,
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


@pytest.mark.parametrize("dim", [2.5, 2.0, "2", None])
def test_register_refuses_a_dim_that_is_not_an_integer(dim):
    with pytest.raises(ValueError, match="integer dim >= 2"):
        ModeRegister((("a", dim),))
    # numpy integers are integers
    assert ModeRegister((("a", np.int64(3)),)).dim == 3


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


@pytest.mark.parametrize("flat", [32, -1, 100])
def test_occupations_refuse_an_index_outside_the_register(flat):
    with pytest.raises(ValueError, match=r"out of range \[0, 32\)"):
        ModeRegister.standard(2).occupations(flat)


@pytest.mark.parametrize("flat", [True, False, 3.0, 3.5, "3", None])
def test_occupations_refuse_what_is_not_an_integer(flat):
    with pytest.raises(ValueError, match="flat index must be an integer"):
        ModeRegister.standard(2).occupations(flat)


def test_occupations_take_numpy_integers():
    reg = ModeRegister.standard(2)
    assert reg.occupations(np.int64(17)) == reg.occupations(17) == (1, 0, 0, 0, 1)
    assert reg.occupations(31) == (1, 1, 1, 1, 1)


@pytest.mark.parametrize("occ", [
    (1, 0, 0, 0, True),
    (1, 0, 0, 0, 1.0),
    (1, 0, 0, 0, 0.5),
    (1, 0, 0, 0, "1"),
    {"a1": 1, "b2": True},
    {"a1": 1.0},
])
def test_basis_index_refuses_an_occupation_that_is_not_an_integer(occ):
    with pytest.raises(ValueError, match="occupations must be integers"):
        ModeRegister.standard(2).basis_index(occ)


def test_basis_index_takes_numpy_integers():
    reg = ModeRegister.standard(2)
    assert reg.basis_index(np.array([1, 0, 0, 0, 1])) == 17
    assert reg.basis_index({"a1": np.int64(1), "b2": np.int8(1)}) == 17


@pytest.mark.parametrize("register", [
    ModeRegister.standard(2),
    ModeRegister.standard(3),
    ModeRegister((("p", 2), ("q", 3), ("r", 4))),
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
    reg = ModeRegister((("x", 2), ("y", 3), ("z", 2)))
    for flat in range(reg.dim):
        assert reg.basis_index(reg.occupations(flat)) == flat


@given(dims=st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4),
       data=st.data())
def test_basis_index_round_trip_property(dims, data):
    labels = [f"m{i}" for i in range(len(dims))]
    reg = ModeRegister(tuple(zip(labels, dims)))
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
    reg = ModeRegister((("m", 3),))
    a = build_mode_operator(reg, "m", "annihilate")
    expected = np.diag(np.sqrt([1.0, 2.0]), k=1)
    np.testing.assert_allclose(a, expected)
    n = build_mode_operator(reg, "m", "number")
    np.testing.assert_allclose(n, np.diag([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="unsupported operator kind"):
        build_mode_operator(reg, "m", "squeeze")
    with pytest.raises(ValueError, match="unsupported operator kind"):
        build_mode_operator(reg, "m", "identity")


def _kron_mode_operator(register, label, kind):
    """The operator built the Kronecker way: one factor per mode, in
    register order, the single-mode matrix at the named mode."""
    single = {
        "annihilate": lambda d: np.diag(np.sqrt(np.arange(1, d)).astype(complex), k=1),
        "number": lambda d: np.diag(np.arange(d).astype(complex)),
    }[kind]
    out = np.eye(1, dtype=complex)
    for mode, dim in register.modes:
        out = np.kron(out, single(dim) if mode == label else np.eye(dim, dtype=complex))
    return out


@pytest.mark.parametrize("dims", [(2,) * 5, (3,) * 5, (2, 3, 4), (4, 2)])
def test_mode_operators_equal_the_kronecker_build(dims):
    reg = ModeRegister(tuple((f"m{i}", d) for i, d in enumerate(dims)))
    for label in reg.labels:
        for kind in ("annihilate", "number"):
            got = build_mode_operator(reg, label, kind)
            want = _kron_mode_operator(reg, label, kind)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (label, kind)
            # the same signed zeros, not only the same values
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def test_embedded_number_operator_matches_occupations():
    reg = ModeRegister.standard(2)
    n_c = build_mode_operator(reg, "c", "number")
    i_c = reg.index("c")
    diag = np.real(np.diag(n_c))
    for flat in range(reg.dim):
        assert diag[flat] == reg.occupations(flat)[i_c]


def test_commutator_defect_vanishes_below_truncation_edge():
    reg = ModeRegister((("m", 4), ("p", 2)))
    a = build_mode_operator(reg, "m", "annihilate")
    comm = a @ a.conj().T - a.conj().T @ a
    # [a, a+] is the identity on every state below the top Fock level of m
    below = reg.occupation_table[:, reg.index("m")] < 3
    np.testing.assert_allclose(comm[np.ix_(below, below)], np.eye(int(below.sum())),
                               rtol=0, atol=1e-12)
    # the top Fock level of a dim-d mode carries [a, a+] = 1 - d
    top = reg.basis_index({"m": 3})
    assert comm[top, top] == pytest.approx(1 - 4, rel=1e-12)


def test_operator_algebra():
    reg = ModeRegister((("m", 3),))
    a = build_mode_operator(reg, "m", "annihilate")
    n = build_mode_operator(reg, "m", "number")
    np.testing.assert_allclose(a.conj().T @ a, n, atol=1e-14)
    ket = reg.basis_state({"m": 2})
    assert np.trace(n @ np.outer(ket, ket.conj())) == pytest.approx(2.0)


def test_density_matrix_validation():
    reg = ModeRegister((("m", 2),))
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
    reg = ModeRegister((("m", 2),))
    # a nested list is taken as a complex array
    rho = DensityMatrix(reg, [[0.5, 0.5], [0.5, 0.5]])
    assert rho.trace == pytest.approx(1.0)
    assert rho.data.dtype == complex
    np.testing.assert_allclose(rho.data, np.full((2, 2), 0.5), atol=1e-15)
    assert DensityMatrix(reg, np.eye(2) / 4, validate=False).trace == pytest.approx(0.5)


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

