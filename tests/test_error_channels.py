"""Analytic per-gate error channels, no-jump conditioning, and readout."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from drcz.benchmarking import _draw_rates
from drcz.channels import QuantumChannel
from drcz.config import DeviceConfig
from drcz.error_channels import (
    CZ4,
    QUBIT_BLOCK,
    ChannelRates,
    ReadoutModel,
    _check_trace_preserving,
    _gate_channel_stack,
    echo_cancellation_check,
    embed_qubit_operator,
    full_gate_channel,
    leakage_averaged_channel,
    leakage_averaged_coefficients,
    leaked_partner_channel,
    no_jump_kraus,
    nojump_evolve,
    postselected_fidelity,
    qutrit_cz,
    qutrit_dephasing_kraus,
    qutrit_gate_channel,
)

# Entanglement infidelity of the fitted-rate gate channel against the ideal
# gate, frozen from the closed-form rates (perfect and two-round readout).
INFIDELITY_AT_FIT_RATES = 5.019999999996694e-4
INFIDELITY_TWO_ROUND = 5.029028866075924e-4


def _phase_average_coefficients(points: int = 0) -> np.ndarray:
    """Quadrature oracle for the loss-averaged coefficients.

    CZ(phi) = alpha(phi) I + beta(phi) CZ with alpha = (1 + e^{i phi})/2 and
    beta = (1 - e^{i phi})/2; averaging the conjugation uniformly over
    phi in [0, pi] gives c_mn = (1/pi) int alpha_m(phi) alpha_n(phi)* dphi.
    """
    def coeff(m, phi):
        return (1 + np.exp(1j * phi)) / 2 if m == 0 else (1 - np.exp(1j * phi)) / 2

    c = np.zeros((2, 2), dtype=complex)
    for m in range(2):
        for n in range(2):
            re = quad(lambda phi: (coeff(m, phi) * np.conj(coeff(n, phi))).real,
                      0.0, math.pi, epsabs=1e-13)[0]
            im = quad(lambda phi: (coeff(m, phi) * np.conj(coeff(n, phi))).imag,
                      0.0, math.pi, epsabs=1e-13)[0]
            c[m, n] = (re + 1j * im) / math.pi
    return c


def test_leakage_coefficients_match_quadrature():
    closed = leakage_averaged_coefficients()
    oracle = _phase_average_coefficients()
    np.testing.assert_allclose(closed, oracle, atol=1e-9)
    # the cross term is i/pi in magnitude, and the matrix is Hermitian
    assert abs(closed[0, 1]) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert closed[1, 0] == np.conj(closed[0, 1])
    np.testing.assert_allclose(np.diag(closed).real, [0.5, 0.5])


def test_leakage_averaged_channel_is_tp_and_matches_quadrature():
    chan = leakage_averaged_channel()
    np.testing.assert_allclose(chan.completeness, np.eye(chan.dim), rtol=0, atol=1e-9)
    # superoperator-level quadrature: average the CZ(phi) conjugation
    def sup_entry(i, j, part):
        def integrand(phi):
            u = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])
            s = np.kron(u.conj(), u)
            return getattr(s[i, j], part) / math.pi
        return quad(integrand, 0.0, math.pi, epsabs=1e-13)[0]

    idx = [(15, 15), (0, 15), (5, 5), (3, 3)]
    for i, j in idx:
        val = sup_entry(i, j, "real") + 1j * sup_entry(i, j, "imag")
        assert chan.superop[i, j] == pytest.approx(val, abs=1e-9)


def test_leaked_partner_channel_structure():
    chi = leaked_partner_channel().chi()
    c = 1j / math.pi
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    expected[0, 3] = c
    expected[3, 0] = np.conj(c)
    np.testing.assert_allclose(chi, expected, atol=1e-12)
    # acting on |+><+|: coherence shrinks to the cross term, populations stay
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = leaked_partner_channel().apply(plus)
    assert out[0, 0] == pytest.approx(0.5)
    assert abs(out[0, 1]) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_channel_rates_validation():
    with pytest.raises(ValueError, match=r"p_leak_control must be in \[0, 1\]"):
        ChannelRates(p_leak_control=-0.1, p_leak_target=0, p_z_control=0, p_z_target=0)
    with pytest.raises(ValueError, match="exceed 1"):
        ChannelRates(p_leak_control=0, p_leak_target=0,
                     p_z_control=0.6, p_z_target=0.6)


@pytest.mark.parametrize("value", ["0.1", None], ids=["str", "None"])
def test_channel_rates_refuse_a_probability_that_is_not_a_number(value):
    with pytest.raises(ValueError, match=r"p_leak_control must be in \[0, 1\]"):
        ChannelRates(p_leak_control=value, p_leak_target=0, p_z_control=0, p_z_target=0)


def test_qutrit_cz_flips_only_the_11_level():
    u = qutrit_cz()
    diag = np.diag(u).copy()
    assert diag[4] == -1.0
    diag[4] = 1.0
    np.testing.assert_allclose(diag, np.ones(9))
    np.testing.assert_allclose(u - np.diag(np.diag(u)), 0)


def test_qutrit_dephasing_kraus_is_complete():
    rates = ChannelRates(p_leak_control=0.00400, p_leak_target=0.00096,
                         p_z_control=0.00039, p_z_target=0.000112, p_zz=2e-4)
    ops = qutrit_dephasing_kraus(rates)
    total = sum(k.conj().T @ k for k in ops)
    np.testing.assert_allclose(total, np.eye(9), atol=1e-12)


@pytest.mark.parametrize("factory", [qutrit_gate_channel, full_gate_channel])
def test_gate_channel_leak_bookkeeping(factory):
    rates = ChannelRates(p_leak_control=0.02, p_leak_target=0.05,
                         p_z_control=1e-3, p_z_target=1e-3)
    chan = factory(rates)
    np.testing.assert_allclose(chan.completeness, np.eye(chan.dim), rtol=0, atol=1e-9)
    rho = embed_qubit_operator(np.eye(4, dtype=complex) / 4)
    out = chan.apply(rho)
    kept = np.real(sum(out[i, i] for i in QUBIT_BLOCK))
    assert kept == pytest.approx((1 - 0.02) * (1 - 0.05), rel=1e-12)


def test_full_channel_jump_carries_gate_correlation():
    # control prepared in |1>, target in |+>.  A leak after the whole gate
    # keeps the target coherence; a mid-orbit leak with the digitized 50/50
    # I/CZ correlation dephases the leaked qubit's partner completely.
    rates = ChannelRates(p_leak_control=0.5, p_leak_target=0.0,
                         p_z_control=0.0, p_z_target=0.0)
    v = np.zeros(9, dtype=complex)
    v[1 * 3 + 0] = v[1 * 3 + 1] = 1 / math.sqrt(2)
    rho = np.outer(v, v.conj())
    out_plain = qutrit_gate_channel(rates).apply(rho)
    out_corr = full_gate_channel(rates).apply(rho)
    leaked_coh_plain = abs(out_plain[6, 7])  # |2,0><2,1| element
    leaked_coh_corr = abs(out_corr[6, 7])
    assert leaked_coh_plain == pytest.approx(0.25, rel=1e-12)
    assert leaked_coh_corr == pytest.approx(0.0, abs=1e-15)
    # populations agree either way: the correlation only touches coherences
    np.testing.assert_allclose(np.diag(out_plain), np.diag(out_corr), atol=1e-14)


def test_no_jump_kraus_formula():
    op, eps = no_jump_kraus(0.04, 0.01)
    np.testing.assert_allclose(op, np.diag([math.sqrt(0.96), math.sqrt(0.99)]))
    assert eps == pytest.approx((0.04 - 0.01) ** 2 / 4)
    with pytest.raises(ValueError, match=r"p_loss_c must be in \[0, 1\)"):
        no_jump_kraus(0.1, 1.0)


@given(k0=st.floats(min_value=0.0, max_value=1.0),
       k1=st.floats(min_value=0.0, max_value=1.0),
       t=st.floats(min_value=0.0, max_value=5.0))
def test_nojump_evolve_entrywise_factors(k0, k1, t):
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = nojump_evolve(rho, (k0, k1), t)
    assert out[0, 0] == pytest.approx(0.5 * math.exp(-k0 * t), rel=1e-12)
    assert out[1, 1] == pytest.approx(0.5 * math.exp(-k1 * t), rel=1e-12)
    assert out[0, 1] == pytest.approx(0.5 * math.exp(-(k0 + k1) * t / 2), rel=1e-12)
    assert np.real(np.trace(out)) <= 1.0 + 1e-12


@settings(max_examples=60)
@given(kappa=st.floats(min_value=0.0, max_value=0.5),
       tau=st.floats(min_value=0.0, max_value=5.0),
       asymmetry=st.floats(min_value=0.0, max_value=1.0))
def test_echo_cancels_nojump_tilt_for_any_asymmetry(kappa, tau, asymmetry):
    residual = echo_cancellation_check(kappa, tau, asymmetry=asymmetry)
    assert residual < 1e-12


def test_without_echo_the_state_polarizes():
    state = np.full((2, 2), 0.5, dtype=complex)  # |+><+|
    rates = (0.2 * (1 - 0.8), 0.2 * (1 + 0.8))
    rho = nojump_evolve(state, rates, 2.0)
    rho = rho / np.trace(rho)
    assert np.linalg.norm(rho - state) > 1e-3
    # the slower-decaying level gains population
    assert rho[0, 0].real > 0.5
    with pytest.raises(ValueError, match="kappa"):
        echo_cancellation_check(-0.1, 1.0, asymmetry=1.0)


def test_echoed_evolution_is_a_pure_decay_factor():
    # X at tau/2 swaps the rates for the second half, so every entry picks
    # up exp(-(k0+k1) tau / 2) = exp(-kappa tau) at asymmetry-averaged rate
    kappa, tau = 0.05, 2.0  # kappa * tau = 0.1
    state = np.array([[0.7, 0.3 + 0.2j], [0.3 - 0.2j, 0.3]], dtype=complex)
    rates = (kappa * (1 - 0.6), kappa * (1 + 0.6))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    half = nojump_evolve(state, rates, tau / 2)
    echoed = x @ nojump_evolve(x @ half @ x, rates, tau / 2) @ x
    np.testing.assert_allclose(echoed, math.exp(-0.1) * state, atol=1e-14)


@pytest.mark.parametrize("model,rows", [
    (DeviceConfig.default().readout(1), 3),
    (DeviceConfig.default().readout(2), 3),
    (ReadoutModel.perfect(), 3),
])
def test_confusion_matrix_rows_are_distributions(model, rows):
    for qubit in (0, 1):
        conf = model.confusion_matrix(qubit)
        assert conf.shape == (rows, 3)
        np.testing.assert_allclose(conf.sum(axis=1), np.ones(rows), atol=1e-12)
        assert np.all(conf >= 0)


@pytest.mark.parametrize("field,value", [
    ("misassignment", (1.5, 0.0)),
    ("leak_detection_error", (0.0, -0.1)),
    ("erasure_assignment", (0.1,)),
    ("misassignment", 0.1),
    ("misassignment", ("0.1", "0.2")),
])
def test_readout_model_rejects_what_is_not_a_probability_pair(field, value):
    fields = {"misassignment": (0.0, 0.0), "leak_detection_error": (0.0, 0.0),
              "erasure_assignment": (0.0, 0.0), field: value}
    with pytest.raises(ValueError, match=f"{field} must be a"):
        ReadoutModel(**fields)


def test_perfect_readout_is_the_identity_assignment():
    conf = ReadoutModel.perfect().confusion_matrix(0)
    np.testing.assert_allclose(conf, np.eye(3))
    m = ReadoutModel.perfect().measurement_operator()
    np.testing.assert_allclose(np.diag(m)[np.array(QUBIT_BLOCK)], np.ones(4))


def test_measurement_operator_scales_by_assignment_rates():
    model = DeviceConfig.default().readout(2)
    m = np.diag(model.measurement_operator()).real
    expected00 = math.sqrt((1 - model.erasure_assignment[0]) *
                           (1 - model.erasure_assignment[1]))
    assert m[0] == pytest.approx(expected00, rel=1e-12)


def test_postselected_fidelity_of_exact_gate_is_one():
    exact9 = QuantumChannel(9, kraus=[qutrit_cz()])
    assert postselected_fidelity(exact9, CZ4) == pytest.approx(1.0, abs=1e-12)
    assert postselected_fidelity(exact9, CZ4,
                                 DeviceConfig.default().readout(2)) == pytest.approx(1.0, abs=1e-10)


def test_postselected_fidelity_validation():
    with pytest.raises(ValueError, match="two-qubit unitary"):
        postselected_fidelity(QuantumChannel(9, kraus=[qutrit_cz()]), np.eye(2))
    with pytest.raises(ValueError, match="9-dim two-qutrit space"):
        postselected_fidelity(leakage_averaged_channel(), CZ4)


def test_fitted_rate_channel_infidelity_frozen():
    chan = full_gate_channel(DeviceConfig.default().channel_rates())
    infid = 1.0 - postselected_fidelity(chan, CZ4)
    assert infid == pytest.approx(INFIDELITY_AT_FIT_RATES, rel=1e-9)
    # two-round assignment errors barely move the postselected number
    with_readout = 1.0 - postselected_fidelity(chan, CZ4, DeviceConfig.default().readout(2))
    assert with_readout == pytest.approx(INFIDELITY_TWO_ROUND, rel=1e-9)


# --- gate channels and the fidelity against rebuilt oracles ---------------

_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def _channel_rates(draw):
    p_z_control = draw(_PROBABILITY)
    p_z_target = draw(st.floats(min_value=0.0, max_value=1.0 - p_z_control))
    p_zz = draw(st.floats(min_value=0.0, max_value=max(0.0, 1.0 - p_z_control - p_z_target)))
    assume(p_z_control + p_z_target + p_zz <= 1.0)
    return ChannelRates(p_leak_control=draw(_PROBABILITY), p_leak_target=draw(_PROBABILITY),
                        p_z_control=p_z_control, p_z_target=p_z_target, p_zz=p_zz)


def _kraus_product_superop(rates: ChannelRates, *, correlated: bool) -> np.ndarray:
    """The gate channel as the sum over every product of one Kraus operator
    per layer (CZ, dephasing, target leak, control leak), written out from
    the operators' definitions."""
    eye3 = np.eye(3, dtype=complex)
    k3 = np.diag([-1j, 1j, 1.0])
    cz = np.eye(9, dtype=complex)
    cz[4, 4] = -1.0
    p0 = 1.0 - rates.p_z_control - rates.p_z_target - rates.p_zz
    dephasing = [math.sqrt(p0) * np.eye(9), math.sqrt(rates.p_z_control) * np.kron(k3, eye3),
                 math.sqrt(rates.p_z_target) * np.kron(eye3, k3),
                 math.sqrt(rates.p_zz) * np.kron(k3, k3)]

    def leak(p, qubit):
        jumps = [np.kron(np.outer(eye3[2], eye3[i]), eye3) if qubit == 0
                 else np.kron(eye3, np.outer(eye3[2], eye3[i])) for i in range(3)]
        if correlated:
            return [math.sqrt(1 - p) * np.eye(9)] + [math.sqrt(p / 2) * k for j in jumps
                                                     for k in (j, j @ cz)]
        return [math.sqrt(1 - p) * np.eye(9)] + [math.sqrt(p) * j for j in jumps]

    ops = [cz]
    for layer in (dephasing, leak(rates.p_leak_target, 1), leak(rates.p_leak_control, 0)):
        ops = [k @ op for op in ops for k in layer]
    return sum(np.kron(op.conj(), op) for op in ops)


@settings(max_examples=40, deadline=None)
@given(rates=_channel_rates())
@pytest.mark.parametrize("factory", [qutrit_gate_channel, full_gate_channel])
def test_gate_channel_superop_is_cptp_and_matches_the_kraus_products(factory, rates):
    superop = factory(rates).superop
    rebuilt = QuantumChannel(9, superop=superop, validate=True)
    np.testing.assert_allclose(rebuilt.completeness, np.eye(9), rtol=0, atol=1e-9)
    oracle = _kraus_product_superop(rates, correlated=factory is full_gate_channel)
    np.testing.assert_allclose(superop, oracle, rtol=0, atol=1e-14)


def _fidelity_by_preparation(channel: QuantumChannel, reference: np.ndarray,
                             readout: ReadoutModel | None = None) -> float:
    """postselected_fidelity's formula, one preparation and one trace per
    (k, j), with the Paulis expanded over the preparations by pinv."""
    kets = [np.array([1, 0]), np.array([0, 1]), np.array([1, 1]) / math.sqrt(2),
            np.array([1, 1j]) / math.sqrt(2)]
    products = [np.kron(a, b) for a in kets for b in kets]
    states = [np.outer(v, v.conj()) for v in products]
    one_qubit = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                 np.diag([1.0, -1.0])]
    paulis = [np.kron(a, b) for a in one_qubit for b in one_qubit]
    alpha = np.linalg.pinv(np.column_stack([rho.reshape(-1) for rho in states])) @ \
        np.column_stack([u.reshape(-1) for u in paulis])
    m = (readout or ReadoutModel.perfect()).measurement_operator()
    total = 0.0
    for k, rho in enumerate(states):
        out = m @ channel.apply(embed_qubit_operator(rho)) @ m.conj().T
        weight = np.trace(out)
        for j, u in enumerate(paulis):
            probe = embed_qubit_operator(reference @ u @ reference.conj().T)
            total += alpha[k, j] * np.trace(probe @ out) / (64.0 * weight)
    return float(np.real(total))


_RX90 = (np.eye(2) - 1j * np.array([[0, 1], [1, 0]])) / math.sqrt(2)


@pytest.mark.parametrize("readout", [None, DeviceConfig.default().readout(2)],
                         ids=["perfect", "two-round"])
@pytest.mark.parametrize("reference", [CZ4, np.kron(_RX90, np.eye(2))], ids=["CZ", "X90_c"])
def test_postselected_fidelity_matches_the_per_preparation_loop(readout, reference):
    rates = ChannelRates(p_leak_control=0.03, p_leak_target=0.01, p_z_control=0.02,
                         p_z_target=0.005, p_zz=0.001)
    x90_c = DeviceConfig.default().native_noise().superops["X90_c"]
    for channel in (full_gate_channel(DeviceConfig.default().channel_rates()),
                    qutrit_gate_channel(rates), full_gate_channel(rates),
                    QuantumChannel(9, superop=x90_c)):
        assert postselected_fidelity(channel, reference, readout) == pytest.approx(
            _fidelity_by_preparation(channel, reference, readout), rel=0, abs=1e-13)


def test_postselected_fidelity_refuses_a_channel_that_leaks_every_preparation():
    everything_leaks = qutrit_gate_channel(ChannelRates(
        p_leak_control=1.0, p_leak_target=0.0, p_z_control=0.0, p_z_target=0.0))
    with pytest.raises(ValueError, match="annihilated a preparation"):
        postselected_fidelity(everything_leaks, CZ4)


# --- the closed-form stack of gate channels --------------------------------

def _stack_rates():
    """The accuracy study's 40 drawn rate sets, its operating point, and
    the edges: no error, dephasing weights that sum to one, and (last)
    certain leakage on both qubits."""
    return _draw_rates(40, 20260813) + [
        DeviceConfig.default().channel_rates(),
        ChannelRates(p_leak_control=0.0, p_leak_target=0.0, p_z_control=0.0, p_z_target=0.0),
        ChannelRates(p_leak_control=0.3, p_leak_target=0.1, p_z_control=0.25,
                     p_z_target=0.25, p_zz=0.5),
        ChannelRates(p_leak_control=1.0, p_leak_target=1.0, p_z_control=0.0, p_z_target=0.0),
    ]


def _stack(rates):
    return _gate_channel_stack(rates, np.empty((len(rates), 81, 81), dtype=complex))


def test_gate_channel_stack_matches_the_layered_channels():
    rates = _stack_rates()
    stack = _stack(rates)
    for r, superop in zip(rates, stack):
        np.testing.assert_allclose(superop, qutrit_gate_channel(r).superop, rtol=0, atol=1e-15)
    # written in place into a slice of a larger array, as the study does
    out = np.zeros((len(rates) + 1, 81, 81), dtype=complex)
    written = _gate_channel_stack(rates, out[1:])
    assert np.shares_memory(written, out)
    assert np.array_equal(out[1:], stack) and not np.any(out[0])


def test_gate_channel_stack_refuses_what_it_cannot_build():
    rates = _draw_rates(2, 20260813)
    for out in (np.empty((2, 81, 81), dtype=complex, order="F"), np.empty((2, 81, 81)),
                np.empty((3, 81, 81), dtype=complex)):
        with pytest.raises(ValueError, match="C-contiguous complex"):
            _gate_channel_stack(rates, out)
    # the sum p_zc + p_zt + p_zz does not exceed 1, yet the no-dephasing
    # weight 1 - p_zc - p_zt - p_zz rounds below zero: refused where the
    # rates enter, so the stack never sees a negative weight
    assert 0.10470290537698229 + 0.004961942732216285 + 0.8903351518908015 <= 1.0
    with pytest.raises(ValueError, match="dephasing probabilities exceed 1"):
        ChannelRates(p_leak_control=0.0, p_leak_target=0.0, p_z_control=0.10470290537698229,
                     p_z_target=0.004961942732216285, p_zz=0.8903351518908015)


def test_trace_preservation_check_refuses_one_perturbed_entry():
    stack = _stack(_stack_rates())
    _check_trace_preserving(stack)
    stack[17, 40, 3] += 1e-9  # row 40 is vec(rho)'s entry rho[4, 4], a population
    with pytest.raises(ValueError, match="not trace-preserving"):
        _check_trace_preserving(stack)


@pytest.mark.parametrize("readout", [None, DeviceConfig.default().readout(2)],
                         ids=["perfect", "two-round"])
def test_stacked_postselected_fidelity_matches_the_per_channel_call(readout):
    rates = _stack_rates()[:-1]  # certain leakage annihilates every preparation
    stacked = postselected_fidelity(_stack(rates), CZ4, readout)
    assert stacked.shape == (len(rates),)
    for r, fidelity in zip(rates, stacked):
        assert fidelity == pytest.approx(
            postselected_fidelity(qutrit_gate_channel(r), CZ4, readout), rel=0, abs=1e-14)
    with pytest.raises(ValueError, match=r"\(K, 81, 81\) superoperator stack"):
        postselected_fidelity(np.eye(81), CZ4)
