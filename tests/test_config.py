"""Device-config parsing, validation, serialization, and model builders."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drcz.config import ConfigError, DeviceConfig
from drcz.error_channels import ChannelRates, ReadoutModel, qutrit_gate_channel


@pytest.fixture(scope="module")
def default_cfg():
    return DeviceConfig.default()


def test_default_holds_the_measured_tables(default_cfg):
    cfg = default_cfg
    assert cfg.chi_bc_mhz == -1.51
    assert cfg.chi_ac_mhz == -1.26
    assert cfg.chi_ab_khz == -6.64
    assert cfg.g_ac_mhz == 4.23
    assert cfg.cavity_t1_us == (231.0, 411.0, 652.0, 342.0)
    assert cfg.t1_order == "listed"
    assert cfg.dephasing_rail == "split"
    assert cfg.coupler_t1_us == 70.0
    assert cfg.coupler_tphi_echo_us == 1001.0
    assert (cfg.control_dephasing_echo_us, cfg.target_dephasing_echo_us) == (4000.0, 4800.0)
    assert (cfg.control_ramsey_us, cfg.target_ramsey_us) == (3100.0, 1500.0)
    assert (cfg.control_x90_ns, cfg.target_x90_ns) == (208.0, 136.0)
    assert cfg.hybridization == 1.0
    assert cfg.coupler_anharmonicity_mhz == 150.0
    assert (cfg.cz_leak_control, cfg.cz_leak_target) == (0.00400, 0.00096)
    assert (cfg.cz_z_control, cfg.cz_z_target, cfg.cz_zz) == (0.00039, 0.000112, 0.0)


def test_ini_round_trip_is_exact_and_idempotent(default_cfg):
    text = default_cfg.to_text()
    parsed = DeviceConfig.from_text(text)
    assert parsed == default_cfg
    assert parsed.to_text() == text


def test_json_round_trip_is_exact(default_cfg):
    text = default_cfg.to_json()
    assert DeviceConfig.from_text(text) == default_cfg
    assert DeviceConfig.from_json_text(text) == default_cfg
    doc = json.loads(text)
    assert doc["coherence"]["cavity_t1_us"] == [231.0, 411.0, 652.0, 342.0]


def test_save_and_from_file(tmp_path, default_cfg):
    ini = default_cfg.save(tmp_path / "device.ini")
    assert ini.read_text().startswith("[hamiltonian]")
    assert DeviceConfig.from_file(ini) == default_cfg
    js = default_cfg.save(tmp_path / "device.json")
    assert js.read_text().lstrip().startswith("{")
    assert DeviceConfig.from_file(js) == default_cfg
    with pytest.raises(ConfigError, match="cannot read config"):
        DeviceConfig.from_file(tmp_path / "absent.ini")


@pytest.mark.parametrize("edit,message", [
    (lambda t: t + "[extra]\nfoo = 1\n", r"unknown section \[extra\]"),
    (lambda t: t.replace("[limits]", "[limitz]"), r"unknown section \[limitz\]"),
    (lambda t: t.replace("hybridization = 1.0\n", ""), "missing required key 'hybridization'"),
    (lambda t: t.replace("[limits]", "[limits]\nbogus = 1"), "unknown key 'bogus'"),
    (lambda t: t.replace("chi_bc_mhz = -1.51", "chi_bc_mhz = watt"), "not a number"),
    (lambda t: t.replace("chi_bc_mhz = -1.51", "chi_bc_mhz = inf"), "must be finite"),
    (lambda t: t.replace("chi_bc_mhz = -1.51", "chi_bc_mhz = 0"), "must be nonzero"),
    (lambda t: t.replace("g_ac_mhz = 4.23", "g_ac_mhz = 0.0"), "must be > 0.0"),
    (lambda t: t.replace("coupler_t1_us = 70.0", "coupler_t1_us = -2"), "must be > 0.0"),
    (lambda t: t.replace("control_erasure_assignment = 0.0679",
                         "control_erasure_assignment = 1.2"), "must be <= 1.0"),
    (lambda t: t.replace("cavity_t1_us = 231.0, 411.0, 652.0, 342.0",
                         "cavity_t1_us = 231.0, 411.0"), "expected 4 values"),
    (lambda t: t.replace("cavity_t1_us = 231.0, 411.0, 652.0, 342.0",
                         "cavity_t1_us = 231.0, -411.0, 652.0, 342.0"),
     "entries must be positive"),
    (lambda t: t.replace("t1_order = listed", "t1_order = shuffled"), "expected one of"),
    (lambda t: t.replace("dephasing_rail = split", "dephasing_rail = middle"),
     "expected one of"),
    (lambda t: "[DEFAULT]\nstray = 1\n" + t, r"outside any \[section\]"),
    (lambda t: "[hamiltonian\n" + t, "malformed config"),
])
def test_parse_errors_name_the_offending_field(default_cfg, edit, message):
    base = default_cfg.to_text()
    mutated = edit(base)
    assert mutated != base
    with pytest.raises(ConfigError, match=message):
        DeviceConfig.from_text(mutated)


_OUT_OF_RANGE = [
    ("hybridization", 2.0, r"\[limits\] hybridization: must be <= 1.0"),
    ("t1_order", "other", r"\[coherence\] t1_order: expected one of"),
    ("dephasing_rail", "both", r"\[coherence\] dephasing_rail: expected one of"),
    ("g_ac_mhz", -4.23, r"\[hamiltonian\] g_ac_mhz: must be > 0.0"),
    ("chi_ac_mhz", math.nan, r"\[hamiltonian\] chi_ac_mhz: must be finite"),
    ("cavity_t1_us", (231.0, 411.0), r"\[coherence\] cavity_t1_us: expected 4 values"),
    ("two_round_misassignment", (0.0, 1.5),
     r"\[readout_two_round\] target_misassignment: must be <= 1.0"),
]


@pytest.mark.parametrize("name,value,message", _OUT_OF_RANGE,
                         ids=[name for name, _, _ in _OUT_OF_RANGE])
def test_a_directly_built_config_is_validated_like_a_parsed_one(default_cfg, name, value,
                                                                 message):
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(default_cfg, **{name: value})


def test_json_parse_errors(default_cfg):
    with pytest.raises(ConfigError, match="malformed JSON"):
        DeviceConfig.from_text("{not json")
    with pytest.raises(ConfigError, match="object of section objects"):
        DeviceConfig.from_text(json.dumps({"hamiltonian": 3}))
    doc = json.loads(default_cfg.to_json())
    doc["limits"]["hybridization"] = True
    with pytest.raises(ConfigError, match="booleans are not valid"):
        DeviceConfig.from_json_text(json.dumps(doc))
    doc["limits"]["hybridization"] = {"value": 1.0}
    with pytest.raises(ConfigError, match="unsupported value type"):
        DeviceConfig.from_json_text(json.dumps(doc))
    doc = json.loads(default_cfg.to_json())
    for entry in (True, "x"):
        doc["coherence"]["cavity_t1_us"] = [entry, 411.0, 652.0, 342.0]
        with pytest.raises(ConfigError, match=r"\[coherence\] cavity_t1_us: not a number"):
            DeviceConfig.from_json_text(json.dumps(doc))


def test_rail_t1_ordering_conventions(default_cfg):
    assert default_cfg.rail_t1_us() == ((231.0, 411.0), (652.0, 342.0))
    swapped = dataclasses.replace(default_cfg, t1_order="swapped")
    assert swapped.rail_t1_us() == ((411.0, 231.0), (342.0, 652.0))


def test_system_params_matches_the_builtin_table(default_cfg):
    p = default_cfg.system_params()
    assert p.t1 == {"a1": 231.0, "a2": 411.0, "b1": 652.0, "b2": 342.0, "c": 70.0}
    assert p.tphi == {"a1": 8000.0, "a2": 8000.0, "b1": 9600.0, "b2": 9600.0, "c": 1001.0}
    assert (p.chi_bc, p.chi_ac, p.chi_ab, p.g_ac) == (
        2 * math.pi * -1.51, 2 * math.pi * -1.26, 2 * math.pi * -6.64e-3, 2 * math.pi * 4.23)


def test_dephasing_rail_conventions(default_cfg):
    split = default_cfg.system_params().tphi
    assert split["a1"] == split["a2"] == 8000.0
    assert split["b1"] == split["b2"] == 9600.0
    assert split["c"] == 1001.0
    inner = dataclasses.replace(default_cfg, dephasing_rail="inner").system_params().tphi
    assert inner == {"a2": 4000.0, "b1": 4800.0, "c": 1001.0}
    outer = dataclasses.replace(default_cfg, dephasing_rail="outer").system_params().tphi
    assert outer == {"a1": 4000.0, "b2": 4800.0, "c": 1001.0}
    # every convention assigns the same total rate per dual-rail pair
    for tphi in (split, inner, outer):
        control = sum(1.0 / tphi.get(m, math.inf) for m in ("a1", "a2"))
        target = sum(1.0 / tphi.get(m, math.inf) for m in ("b1", "b2"))
        assert control == pytest.approx(1.0 / 4000.0)
        assert target == pytest.approx(1.0 / 4800.0)


def test_readout_builders(default_cfg):
    assert default_cfg.readout(1) == ReadoutModel(
        misassignment=(2.0e-4, 2.3e-4), leak_detection_error=(3.46e-3, 3.90e-3),
        erasure_assignment=(6.79e-2, 6.43e-2))
    assert default_cfg.readout(2) == ReadoutModel(
        misassignment=(7e-6, 1.2e-5), leak_detection_error=(1.5e-4, 1.5e-4),
        erasure_assignment=(1.81e-1, 1.41e-1))
    with pytest.raises(ConfigError, match="rounds must be 1 or 2"):
        default_cfg.readout(3)


def test_channel_rates_builder(default_cfg):
    assert default_cfg.channel_rates() == ChannelRates(
        p_leak_control=0.00400, p_leak_target=0.00096,
        p_z_control=0.00039, p_z_target=0.000112, p_zz=0.0)


def test_native_noise_builder(default_cfg):
    noise = default_cfg.native_noise()
    assert noise.dim == 9
    np.testing.assert_allclose(
        noise.superops["CZ"],
        qutrit_gate_channel(default_cfg.channel_rates()).superop, atol=1e-14)
    plain = default_cfg.native_noise(include_cross_kerr=False)
    assert np.max(np.abs(noise.superops["X90_c"] -
                         plain.superops["X90_c"])) > 1e-6


@given(
    coupler_t1=st.floats(min_value=1e-3, max_value=1e6),
    chi_bc=st.floats(min_value=1e-3, max_value=1e3).map(lambda v: -v),
    erasure=st.tuples(st.floats(min_value=0.0, max_value=1.0),
                      st.floats(min_value=0.0, max_value=1.0)),
)
def test_serialization_round_trips_arbitrary_floats(coupler_t1, chi_bc, erasure):
    cfg = dataclasses.replace(DeviceConfig.default(),
                              coupler_t1_us=coupler_t1,
                              chi_bc_mhz=chi_bc,
                              one_round_erasure_assignment=erasure)
    assert DeviceConfig.from_text(cfg.to_text()) == cfg
    assert DeviceConfig.from_text(cfg.to_json()) == cfg
