"""Device configuration files for the simulation and analysis tools.

A :class:`DeviceConfig` bundles everything the experiments need: Hamiltonian
rates, coherence times, single-qubit pulse durations, readout confusion
rates for one- and two-round erasure checks, short-depth benchmark error
rates, and the quantities entering the coherence-limit scalings.

On disk a config is INI-style ``key = value`` text with one section per
parameter group; the unit is spelled in each key name (``_mhz``, ``_khz``,
``_us``, ``_ns``) so a value can never be read in the wrong unit silently.
A JSON document with the same section/key nesting is accepted anywhere a
config path is expected.  Each field declares its section, key, admitted
values and measured default once; parsing, output and validation read
those declarations.  Parsing is strict: unknown sections or keys, missing
keys, and out-of-range values raise :class:`ConfigError` naming the
offending field, and so does building a config with out-of-range values
directly; serialize/parse round-trips are exact.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

from .benchmarking import NativeGateNoise
from .error_channels import ChannelRates, ReadoutModel
from .gate import SystemParams

__all__ = ["ConfigError", "DeviceConfig"]

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """A device-config file is malformed or out of range."""


def _require(table: dict[str, str], section: str, key: str) -> str:
    if key not in table:
        raise ConfigError(f"[{section}] is missing required key {key!r}")
    return table.pop(key)


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None


@dataclass(frozen=True)
class _Spec:
    """Where a DeviceConfig field sits in the file and which values it admits.

    A field is one number under one key, a (control, target) pair of
    numbers under two keys, one of `choices`, or (count > 1 under one key)
    a list of `count` positive numbers.  Numbers must be finite and within
    the bounds given.
    """

    section: str
    keys: tuple[str, ...]
    low: float | None = None
    high: float | None = None
    low_open: bool = False
    nonzero: bool = False
    choices: tuple[str, ...] = ()
    count: int = 1

    @property
    def listed(self) -> bool:
        return self.count > len(self.keys)

    def parse(self, body: dict[str, str]) -> object:
        raws = [_require(body, self.section, key) for key in self.keys]
        if self.choices:
            return raws[0].strip().lower()
        if self.listed:
            raws = raws[0].replace(",", " ").split()
        values = tuple(_parse_float(self.section, key, raw)
                       for key, raw in zip(self.keys * len(raws), raws))
        return values if self.count > 1 else values[0]

    def check(self, value: object) -> None:
        where = f"[{self.section}] {self.keys[0]}"
        if self.choices:
            if value not in self.choices:
                raise ConfigError(f"{where}: expected one of {self.choices}, got {value!r}")
            return
        values = (value,) if self.count == 1 else value
        if not isinstance(values, tuple) or len(values) != self.count:
            raise ConfigError(f"{where}: expected {self.count} values, got {value!r}")
        for key, v in zip(self.keys * self.count, values):
            where = f"[{self.section}] {key}"
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ConfigError(f"{where}: not a number: {v!r}")
            if not math.isfinite(v):
                raise ConfigError(f"{where}: must be finite, got {v}")
            if self.listed and not v > 0:
                raise ConfigError(f"{where}: entries must be positive, got {v}")
            if self.low is not None and (v < self.low or (self.low_open and v == self.low)):
                bound = f"> {self.low}" if self.low_open else f">= {self.low}"
                raise ConfigError(f"{where}: must be {bound}, got {v}")
            if self.high is not None and v > self.high:
                raise ConfigError(f"{where}: must be <= {self.high}, got {v}")
            if self.nonzero and v == 0.0:
                raise ConfigError(f"{where}: must be nonzero")


_POSITIVE = {"low": 0.0, "low_open": True}
_PROBABILITY = {"low": 0.0, "high": 1.0}


def _key(section: str, key: str | tuple[str, str], default: object, **admits):
    keys = (key,) if isinstance(key, str) else key
    admits.setdefault("count", len(keys))
    return field(default=default, metadata={"config": _Spec(section, keys, **admits)})


def _readout(section: str, name: str, default: tuple[float, float]):
    return _key(section, (f"control_{name}", f"target_{name}"), default, **_PROBABILITY)


@dataclass(frozen=True)
class DeviceConfig:
    """Validated device parameters, grouped the way the config file is.

    The defaults are the measured device tables.  ``cavity_t1_us`` lists
    the four measured dual-rail cavity lifetimes in file order;
    ``t1_order`` says how they map onto rails ("listed" keeps the file
    order as (a1, a2, b1, b2), "swapped" exchanges each pair).
    ``dephasing_rail`` says how the measured echo dephasing time of each
    dual-rail qubit, which constrains only the sum of the two rail rates,
    divides across the pair: "split" shares it evenly, "inner" puts it
    all on the coupler-adjacent rail, "outer" on the far rail.  Both
    assignments are physical conventions the measurements do not pin
    down, so they stay explicit config keys rather than baked-in choices.
    """

    chi_bc_mhz: float = _key("hamiltonian", "chi_bc_mhz", -1.51, nonzero=True)
    chi_ac_mhz: float = _key("hamiltonian", "chi_ac_mhz", -1.26)
    chi_ab_khz: float = _key("hamiltonian", "chi_ab_khz", -6.64)
    g_ac_mhz: float = _key("hamiltonian", "g_ac_mhz", 4.23, **_POSITIVE)
    cavity_t1_us: tuple[float, float, float, float] = _key(
        "coherence", "cavity_t1_us", (231.0, 411.0, 652.0, 342.0), count=4)
    t1_order: str = _key("coherence", "t1_order", "listed", choices=("listed", "swapped"))
    coupler_t1_us: float = _key("coherence", "coupler_t1_us", 70.0, **_POSITIVE)
    coupler_tphi_echo_us: float = _key("coherence", "coupler_tphi_echo_us", 1001.0,
                                       **_POSITIVE)
    control_dephasing_echo_us: float = _key("coherence", "control_dephasing_echo_us",
                                            4000.0, **_POSITIVE)
    target_dephasing_echo_us: float = _key("coherence", "target_dephasing_echo_us",
                                           4800.0, **_POSITIVE)
    dephasing_rail: str = _key("coherence", "dephasing_rail", "split",
                               choices=("split", "inner", "outer"))
    control_ramsey_us: float = _key("coherence", "control_ramsey_us", 3100.0, **_POSITIVE)
    target_ramsey_us: float = _key("coherence", "target_ramsey_us", 1500.0, **_POSITIVE)
    control_x90_ns: float = _key("single_qubit_gates", "control_x90_ns", 208.0, **_POSITIVE)
    target_x90_ns: float = _key("single_qubit_gates", "target_x90_ns", 136.0, **_POSITIVE)
    one_round_misassignment: tuple[float, float] = _readout(
        "readout_one_round", "misassignment", (2.0e-4, 2.3e-4))
    one_round_leak_detection_error: tuple[float, float] = _readout(
        "readout_one_round", "leak_detection_error", (3.46e-3, 3.90e-3))
    one_round_erasure_assignment: tuple[float, float] = _readout(
        "readout_one_round", "erasure_assignment", (6.79e-2, 6.43e-2))
    two_round_misassignment: tuple[float, float] = _readout(
        "readout_two_round", "misassignment", (7e-6, 1.2e-5))
    two_round_leak_detection_error: tuple[float, float] = _readout(
        "readout_two_round", "leak_detection_error", (1.5e-4, 1.5e-4))
    two_round_erasure_assignment: tuple[float, float] = _readout(
        "readout_two_round", "erasure_assignment", (1.81e-1, 1.41e-1))
    cz_leak_control: float = _key("short_depth_rates", "control_leak", 0.00400,
                                  **_PROBABILITY)
    cz_leak_target: float = _key("short_depth_rates", "target_leak", 0.00096,
                                 **_PROBABILITY)
    cz_z_control: float = _key("short_depth_rates", "control_z", 0.00039, **_PROBABILITY)
    cz_z_target: float = _key("short_depth_rates", "target_z", 0.000112, **_PROBABILITY)
    cz_zz: float = _key("short_depth_rates", "zz", 0.0, **_PROBABILITY)
    hybridization: float = _key("limits", "hybridization", 1.0, high=1.0, **_POSITIVE)
    coupler_anharmonicity_mhz: float = _key("limits", "coupler_anharmonicity_mhz", 150.0,
                                            **_POSITIVE)

    def __post_init__(self) -> None:
        for f in fields(self):
            f.metadata["config"].check(getattr(self, f.name))

    # --- construction -----------------------------------------------------

    @classmethod
    def default(cls) -> "DeviceConfig":
        """The measured device tables, with the listed/split conventions."""
        return cls()

    @classmethod
    def from_text(cls, text: str) -> "DeviceConfig":
        """Parse INI-style text (or JSON if the text starts with '{')."""
        if text.lstrip().startswith("{"):
            return cls.from_json_text(text)
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from None
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
        if parser.defaults():
            raise ConfigError("values outside any [section] are not allowed")
        return cls._from_sections(sections)

    @classmethod
    def from_json_text(cls, text: str) -> "DeviceConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON config: {exc}") from None
        if not isinstance(doc, dict) or not all(isinstance(v, dict) for v in doc.values()):
            raise ConfigError("JSON config must be an object of section objects")
        sections: dict[str, dict[str, str]] = {}
        for name, body in doc.items():
            flat = {}
            for key, value in body.items():
                if isinstance(value, list):
                    flat[str(key)] = " ".join(str(v) for v in value)
                elif isinstance(value, bool):
                    raise ConfigError(f"[{name}] {key}: booleans are not valid values")
                elif isinstance(value, (int, float, str)):
                    flat[str(key)] = str(value)
                else:
                    raise ConfigError(f"[{name}] {key}: unsupported value type")
            sections[str(name)] = flat
        return cls._from_sections(sections)

    @classmethod
    def from_file(cls, path: str | Path) -> "DeviceConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_text(text)

    @classmethod
    def _from_sections(cls, sections: dict[str, dict[str, str]]) -> "DeviceConfig":
        specs = {f.name: f.metadata["config"] for f in fields(cls)}
        known = [spec.section for spec in specs.values()]
        for name in sections:
            if name not in known:
                raise ConfigError(f"unknown section [{name}]")
        for name in known:
            if name not in sections:
                raise ConfigError(f"missing section [{name}]")
        values = {name: spec.parse(sections[spec.section]) for name, spec in specs.items()}
        for name, body in sections.items():
            if body:
                raise ConfigError(f"unknown key {sorted(body)[0]!r} in [{name}]")
        return cls(**values)

    # --- serialization ------------------------------------------------------

    def _document(self) -> dict[str, dict[str, object]]:
        """Section -> key -> value: a float, a word, or a list of floats."""
        doc: dict[str, dict[str, object]] = {}
        for f in fields(self):
            spec, value = f.metadata["config"], getattr(self, f.name)
            if spec.choices:
                entries = [value]
            elif spec.listed:
                entries = [[float(v) for v in value]]
            else:
                entries = [float(v) for v in ((value,) if spec.count == 1 else value)]
            doc.setdefault(spec.section, {}).update(zip(spec.keys, entries))
        return doc

    def to_text(self) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        for name, body in self._document().items():
            parser[name] = {key: value if isinstance(value, str)
                            else ", ".join(map(repr, value)) if isinstance(value, list)
                            else repr(value) for key, value in body.items()}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(self._document(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        text = self.to_json() if path.suffix == ".json" else self.to_text()
        path.write_text(text)
        return path

    # --- model builders -----------------------------------------------------

    def rail_t1_us(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Cavity lifetimes as ((a1, a2), (b1, b2)) after the order choice."""
        a1, a2, b1, b2 = self.cavity_t1_us
        if self.t1_order == "swapped":
            a1, a2, b1, b2 = a2, a1, b2, b1
        return ((a1, a2), (b1, b2))

    def system_params(self) -> SystemParams:
        (a1, a2), (b1, b2) = self.rail_t1_us()
        t1 = {"a1": a1, "a2": a2, "b1": b1, "b2": b2, "c": self.coupler_t1_us}
        if self.dephasing_rail == "split":
            tphi = {"a1": 2.0 * self.control_dephasing_echo_us,
                    "a2": 2.0 * self.control_dephasing_echo_us,
                    "b1": 2.0 * self.target_dephasing_echo_us,
                    "b2": 2.0 * self.target_dephasing_echo_us}
        elif self.dephasing_rail == "inner":
            tphi = {"a2": self.control_dephasing_echo_us, "b1": self.target_dephasing_echo_us}
        else:
            tphi = {"a1": self.control_dephasing_echo_us, "b2": self.target_dephasing_echo_us}
        tphi["c"] = self.coupler_tphi_echo_us
        return SystemParams.from_mhz(chi_bc=self.chi_bc_mhz, chi_ac=self.chi_ac_mhz,
                                     chi_ab=self.chi_ab_khz * 1e-3, g_ac=self.g_ac_mhz,
                                     t1=t1, tphi=tphi)

    def readout(self, rounds: int) -> ReadoutModel:
        if rounds == 1:
            return ReadoutModel(misassignment=self.one_round_misassignment,
                                leak_detection_error=self.one_round_leak_detection_error,
                                erasure_assignment=self.one_round_erasure_assignment)
        if rounds == 2:
            return ReadoutModel(misassignment=self.two_round_misassignment,
                                leak_detection_error=self.two_round_leak_detection_error,
                                erasure_assignment=self.two_round_erasure_assignment)
        raise ConfigError(f"readout rounds must be 1 or 2, got {rounds}")

    def channel_rates(self) -> ChannelRates:
        return ChannelRates(p_leak_control=self.cz_leak_control,
                            p_leak_target=self.cz_leak_target,
                            p_z_control=self.cz_z_control,
                            p_z_target=self.cz_z_target,
                            p_zz=self.cz_zz)

    def native_noise(self, *, include_cross_kerr: bool = True) -> NativeGateNoise:
        return NativeGateNoise.coherence_limited(
            self.channel_rates(),
            x90_durations_us=(self.control_x90_ns * 1e-3, self.target_x90_ns * 1e-3),
            rail_t1_us=self.rail_t1_us(),
            ramsey_tphi_us=(self.control_ramsey_us, self.target_ramsey_us),
            cross_kerr=TWO_PI * self.chi_ab_khz * 1e-3,
            include_cross_kerr=include_cross_kerr)
