"""Run configuration: unit-tagged JSON loading and validation.

A configuration file is one JSON document whose dimensioned numbers are
written as {"value": 75, "unit": "V"}.  Explicit unit tags avoid the
GHz/PHz and nm/um slips this domain invites; everything converts to the
internal unit system (GHz, GHz/strain, meters, seconds, volts) on load.
Validation failures name the offending key and constraint, and nothing is
written before validation completes.

Each section is described by a field table whose rows read
``(attribute, json_key, kind[, OPTIONAL])``.  ``kind`` is a unit table (a
unit-tagged quantity), ``float`` (a plain number), ``int`` (a whole number)
or a tuple of accepted strings; an absent optional key takes the dataclass
default.  A key that no field table, section or loader step looks up is
refused, so a misspelled optional key cannot silently take its default;
only the comment keys and the retired keys in ``IGNORED_KEYS`` load unread.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .actuator import (ActuatorCalibration, DeviceGeometry, DeviceModel,
                       ThermalModel, bending_profile)
from .control import (CRCheckConfig, DriftProcess, LockInConfig, PIDConfig,
                      StabilizationConfig)
from .emitters import EmitterModel
from .errors import ConfigError, DomainError, InputError
from .frames import Orientation
from .strain import SpinOrbit, StrainSusceptibilities

FREQUENCY_GHZ = {"GHz": 1.0, "MHz": 1e-3, "kHz": 1e-6, "Hz": 1e-9,
                 "THz": 1e3, "PHz": 1e6}
SUSCEPTIBILITY_GHZ = {"GHz/strain": 1.0, "MHz/strain": 1e-3,
                      "THz/strain": 1e3, "PHz/strain": 1e6}
LENGTH_M = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9}
TIME_S = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6,
          "min": 60.0, "h": 3600.0}
TIME_US = {"us": 1.0, "µs": 1.0, "ms": 1e3, "s": 1e6}
VOLTAGE_V = {"V": 1.0, "mV": 1e-3, "kV": 1e3}
RATE_PER_S = {"counts/s": 1.0, "1/s": 1.0, "Hz": 1.0, "kcounts/s": 1e3}
STRAIN_1 = {"strain": 1.0, "1": 1.0, "": 1.0}
SLOPE_MHZ_PER_GHZ = {"MHz/GHz": 1.0}
# one table per PID gain, so a gain tagged with another gain's dimension is refused
GAIN_V_PER_GHZ = {"V/GHz": 1.0}
GAIN_V_PER_GHZ_S = {"V/(GHz*s)": 1.0, "V/GHz/s": 1.0}
GAIN_V_S_PER_GHZ = {"V*s/GHz": 1.0}

_ORIENTATIONS = {o.value: o for o in Orientation}
OPTIONAL = "optional"
# object path -> keys that load and are not read: comments, and the
# geometry keys of older files that the bending profile never used
IGNORED_KEYS = {"": {"notes"},
                "device.geometry": {"w_spring", "w_support", "w_tp", "d_support",
                                    "l_tp", "gap_height"}}

SPIN_ORBIT = [("lambda_g", "lambda_g", FREQUENCY_GHZ),
              ("lambda_u", "lambda_u", FREQUENCY_GHZ)]
SUSCEPTIBILITIES = [(k, k, SUSCEPTIBILITY_GHZ) for k in ("t_perp", "t_par", "d", "f")]
GEOMETRY = [(k, k, LENGTH_M) for k in DeviceGeometry.__dataclass_fields__]
CALIBRATION = [("v_ref", "v_ref", VOLTAGE_V), ("eps_ref", "eps_ref", STRAIN_1),
               ("v_max", "v_max", VOLTAGE_V)]
TENSOR_RATIOS = [("ratio_yy", "yy", float), ("ratio_zz", "zz", float),
                 ("ratio_yz", "yz", float, OPTIONAL),
                 ("ratio_zx", "zx", float, OPTIONAL), ("ratio_xy", "xy", float, OPTIONAL)]
THERMAL = [("cooldown_time_us", "cooldown_time", TIME_US),
           ("max_pulse_us", "max_pulse", TIME_US),
           ("heat_shift_coeff", "heat_shift_coeff", FREQUENCY_GHZ),
           ("relax_time_us", "relax_time", TIME_US)]
POSITION = [(k, k, LENGTH_M) for k in ("x", "y", "z")]
# converted first, then offset by physics.nu0, scaled to MHz and mapped to Orientation
EMITTER_LINE = [("orientation", "orientation", tuple(_ORIENTATIONS)),
                ("detuning0", "detuning0", FREQUENCY_GHZ),
                ("fwhm0", "fwhm0", FREQUENCY_GHZ)]
EMITTER = [("peak_rate", "peak_rate", RATE_PER_S),
           ("background_rate", "background_rate", RATE_PER_S),
           ("broadening_slope", "broadening_slope", SLOPE_MHZ_PER_GHZ)]
INHOMOGENEOUS = [("cluster_sigma_ghz", "cluster_sigma", FREQUENCY_GHZ),
                 ("cluster_weight", "cluster_weight", float),
                 ("broad_span_ghz", "broad_span", FREQUENCY_GHZ)]
DRIFT = [("ou_tau_s", "ou_tau", TIME_S), ("ou_sigma_ghz", "ou_sigma", FREQUENCY_GHZ),
         ("jump_rate_hz", "jump_rate", RATE_PER_S),
         ("jump_sigma_ghz", "jump_sigma", FREQUENCY_GHZ)]
LOCKIN = [("mod_amp_v", "mod_amp", VOLTAGE_V),
          ("periods_per_probe", "periods_per_probe", int),
          ("bins_per_period", "bins_per_period", int),
          ("probe_duration_s", "probe_duration", TIME_S)]
PID = [("kp", "kp", GAIN_V_PER_GHZ), ("ki", "ki", GAIN_V_PER_GHZ_S),
       ("kd", "kd", GAIN_V_S_PER_GHZ), ("output_min", "output_min", VOLTAGE_V),
       ("output_max", "output_max", VOLTAGE_V),
       ("update_rate_hz", "update_rate", RATE_PER_S),
       ("integral_limit", "integral_limit", float, OPTIONAL)]
CR_CHECK = [("probe_duration_s", "probe_duration", TIME_S),
            ("photon_threshold", "photon_threshold", int),
            ("max_attempts", "max_attempts", int, OPTIONAL)]
STABILIZATION = [("duration_s", "duration", TIME_S), ("n_scans", "n_scans", int),
                 ("scan_span_ghz", "scan_span", FREQUENCY_GHZ),
                 ("scan_points", "scan_points", int),
                 ("scan_dwell_s", "scan_dwell", TIME_S),
                 ("operating_voltage", "operating_voltage", VOLTAGE_V),
                 ("scan_shape", "scan_shape", ("lorentzian", "voigt"), OPTIONAL)]


class _Object(dict):
    """A JSON object that records which keys the loader looked up."""

    __slots__ = ("looked_up",)

    def __init__(self, pairs):
        dict.__init__(self, pairs)
        self.looked_up = set()

    def __contains__(self, key):
        self.looked_up.add(key)
        return dict.__contains__(self, key)

    def __getitem__(self, key):
        self.looked_up.add(key)
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.looked_up.add(key)
        return dict.get(self, key, default)


def _refuse_unread(node: _Object, path: str = "") -> None:
    """Raise ``ConfigError`` at the first key below ``node`` the loader did
    not look up, other than ``provenance`` and the ``IGNORED_KEYS``."""
    ignored = IGNORED_KEYS.get(path, ())
    for key, child in node.items():
        if key == "provenance" or key in ignored:
            continue
        where = f"{path}.{key}" if path else key
        if key not in node.looked_up:
            raise ConfigError(f"{where}: unknown key")
        if isinstance(child, _Object):
            _refuse_unread(child, where)
        elif isinstance(child, list):  # the emitter list, objects checked on load
            for i, item in enumerate(child):
                _refuse_unread(item, f"{where}[{i}]")


def _number(node, path: str) -> float:
    # the magnitude test also rejects NaN, infinities and ints beyond float range
    if (isinstance(node, bool) or not isinstance(node, (int, float))
            or not abs(node) <= sys.float_info.max):
        raise ConfigError(f"{path}: expected a finite number")
    return float(node)


def _convert(node, kind, path: str):
    """One JSON value converted according to a field-table ``kind``."""
    if isinstance(kind, tuple):
        if node not in kind:
            raise ConfigError(
                f"{path}: unknown variant {node!r}; expected one of {sorted(kind)}")
        return node
    if isinstance(kind, dict):
        if not isinstance(node, dict) or "value" not in node or "unit" not in node:
            raise ConfigError(
                f"{path}: expected a unit-tagged number {{\"value\": ..., \"unit\": ...}}")
        unit = node["unit"]
        if not isinstance(unit, str) or unit not in kind:
            raise ConfigError(f"{path}: unknown unit {unit!r}; accepted: {sorted(kind)}")
        return _number(node["value"], path) * kind[unit]
    value = _number(node, path)
    if kind is int:
        if not value.is_integer():
            raise ConfigError(f"{path}: expected a whole number")
        return int(value)
    return value


def _fields(node: dict, path: str, rows) -> dict:
    """Keyword arguments converted from one JSON object by a field table."""
    kwargs = {}
    for attr, key, kind, *optional in rows:
        if key in node:
            kwargs[attr] = _convert(node[key], kind, f"{path}.{key}")
        elif not optional:
            raise ConfigError(f"{path}.{key}: missing required key")
    return kwargs


def _build(cls, node: dict, path: str, rows, **extra):
    """``cls`` built from a section's field table; its checks name the path."""
    try:
        return cls(**_fields(node, path, rows), **extra)
    except InputError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _section(doc: dict, key: str, path: str = "") -> dict:
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise ConfigError(f"{where}: missing required section")
    node = doc[key]
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    return node


@dataclass(frozen=True)
class PhysicsConfig:
    """Strain-response physics block (all frequencies GHz)."""

    nu0: float
    spin_orbit: SpinOrbit
    susc_g: StrainSusceptibilities
    susc_u: StrainSusceptibilities


@dataclass(frozen=True)
class InhomogeneousConfig:
    """Generative model of the inhomogeneous resonance distribution."""

    cluster_sigma_ghz: float = 15.0
    cluster_weight: float = 0.45
    broad_span_ghz: float = 300.0

    def __post_init__(self):
        if not 0.0 <= self.cluster_weight <= 1.0:
            raise InputError("cluster_weight must be in [0, 1]")
        if not (self.cluster_sigma_ghz > 0.0 and self.broad_span_ghz > 0.0):
            raise InputError("sigma and span must be > 0")


@dataclass(frozen=True)
class ControlBlocks:
    drift: DriftProcess
    lockin: LockInConfig
    pid: PIDConfig
    cr_check: CRCheckConfig
    stabilization: StabilizationConfig


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration for one invocation."""

    physics: PhysicsConfig
    device: DeviceModel
    emitters: dict[str, EmitterModel]
    inhomogeneous: InhomogeneousConfig
    control: ControlBlocks
    seed: int
    source_text: str = field(repr=False, default="")

    def config_hash(self) -> str:
        return hashlib.sha256(self.source_text.encode("utf-8")).hexdigest()[:16]

    def emitter(self, name: str) -> EmitterModel:
        try:
            return self.emitters[name]
        except KeyError:
            known = ", ".join(map(repr, sorted(self.emitters)))
            raise InputError(f"unknown emitter id {name!r}; known ids: {known}") from None


def _emitters(doc: dict, physics: PhysicsConfig) -> dict[str, EmitterModel]:
    nodes = doc.get("emitters")
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError("emitters: expected a non-empty list")
    emitters: dict[str, EmitterModel] = {}
    for i, node in enumerate(nodes):
        path = f"emitters[{i}]"
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: expected an object")
        name = node.get("id")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{path}.id: expected a non-empty string")
        # an id is an item of --emitters lists and part of ple file names
        if not name.isprintable() or any(c in name for c in ",/\\"):
            raise ConfigError(f"{path}.id: {name!r} holds a comma, a slash, a "
                              "backslash or a non-printable character")
        if name in emitters:
            raise ConfigError(f"{path}.id: duplicate emitter id {name!r}")
        position = node.get("position")
        if position is not None:
            if not isinstance(position, dict):
                raise ConfigError(f"{path}.position: expected an object or null")
            position = tuple(_fields(position, f"{path}.position", POSITION).values())
        line = _fields(node, path, EMITTER_LINE)
        emitters[name] = _build(
            EmitterModel, node, path, EMITTER, name=name, position=position,
            orientation=_ORIENTATIONS[line["orientation"]],
            nu0=physics.nu0 + line["detuning0"], fwhm0_mhz=line["fwhm0"] * 1e3,
            susc_g=physics.susc_g, susc_u=physics.susc_u, spin_orbit=physics.spin_orbit)
    return emitters


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    try:
        doc = json.loads(text, object_pairs_hook=_Object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")
    node = _section(doc, "physics")
    physics = _build(
        PhysicsConfig, node, "physics", [("nu0", "nu0", FREQUENCY_GHZ)],
        spin_orbit=_build(SpinOrbit, node, "physics", SPIN_ORBIT),
        susc_g=_build(StrainSusceptibilities, _section(node, "ground", "physics"),
                      "physics.ground", SUSCEPTIBILITIES),
        susc_u=_build(StrainSusceptibilities, _section(node, "excited", "physics"),
                      "physics.excited", SUSCEPTIBILITIES))
    node = _section(doc, "device")
    cal = _section(node, "calibration", "device")
    ratios = _section(cal, "tensor_ratios", "device.calibration")
    device = DeviceModel(
        geometry=_build(DeviceGeometry, _section(node, "geometry", "device"),
                        "device.geometry", GEOMETRY),
        calibration=_build(ActuatorCalibration, cal, "device.calibration", CALIBRATION,
                           **_fields(ratios, "device.calibration.tensor_ratios",
                                     TENSOR_RATIOS)),
        thermal=_build(ThermalModel, _section(node, "thermal", "device"),
                       "device.thermal", THERMAL))
    emitters = _emitters(doc, physics)
    for name, emitter in emitters.items():
        if not emitter.is_bulk:
            try:
                bending_profile(device.geometry, emitter.position)
            except DomainError as exc:
                raise ConfigError(f"emitter {name!r}: {exc}") from exc
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed: expected a non-negative integer")
    inhomogeneous = InhomogeneousConfig()
    if "inhomogeneous" in doc:
        inhomogeneous = _build(InhomogeneousConfig, _section(doc, "inhomogeneous"),
                               "inhomogeneous", INHOMOGENEOUS)
    node = _section(doc, "control")
    control = ControlBlocks(**{
        key: _build(cls, _section(node, key, "control"), f"control.{key}", rows)
        for key, cls, rows in (("drift", DriftProcess, DRIFT),
                               ("lockin", LockInConfig, LOCKIN),
                               ("pid", PIDConfig, PID),
                               ("cr_check", CRCheckConfig, CR_CHECK),
                               ("stabilization", StabilizationConfig, STABILIZATION))})
    _refuse_unread(doc)
    return RunConfig(physics=physics, device=device, emitters=emitters,
                     inhomogeneous=inhomogeneous, control=control, seed=seed,
                     source_text=text)


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read configuration: {exc}") from None
    return parse_config(text)


def default_config_text() -> str:
    return resources.files("snvtune.data").joinpath("default_config.json").read_text(
        encoding="utf-8")


def load_default_config() -> RunConfig:
    """The configuration shipped with the package."""
    return parse_config(default_config_text())


def matched_sample_path() -> Path:
    """Path of the shipped synthetic inhomogeneous-sample dataset."""
    return Path(str(resources.files("snvtune.data").joinpath(
        "inhomogeneous_sample.csv")))
