"""Strict INI-style experiment configuration.

A config document holds one block per subsystem; every key carries its
unit in the name, and unknown sections or keys are rejected so typos fail
loudly.  ``_SCHEMA`` maps each key to a field of its section's record and
to the conversion from the document's unit (frequencies in Hz become
angular rates).  Defaults and ranges live in the records
(``MembraneGeometry``, ``ElectrostaticEnvironment``, ``EmitterParams``,
``SimulationSettings``, ``SweepSettings``): a key left out takes its
field's default, and a value that the conversion, the sign its field is
annotated with (``Positive``, ``NonNegative``) or the record's ``_check``
refuses is a ``ConfigError`` naming the section, raised here rather than
inside a run: ``[simulation] kappa must be nonnegative``.
"""

from __future__ import annotations

import configparser
import math
from typing import NamedTuple

# ``hashlib`` loads OpenSSL, megabytes of memory for one digest per run: take
# the interpreter's own SHA-256 (``_sha2`` from Python 3.12, ``_sha256``
# before), and ``hashlib``'s only where the interpreter was built without it
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .circuit import DEFAULT_INDUCTANCE
from .constants import (
    TWO_PI,
    stark_shift_to_si,
    strain_shift_to_si,
    wavelength_to_angular_frequency,
)
from .coupling import EmitterParams
from .errors import ConfigError
from .mechanics import ElectrostaticEnvironment, MembraneGeometry
from .records import NonNegative, Positive, checked

#: sweep variable -> the SI unit of its values
SWEEP_UNITS = dict(
    thickness="m", bias_voltage="V", displacement="m", temperature="K", kappa="Hz"
)
SWEEP_VARIABLES = tuple(SWEEP_UNITS)

#: most points one sweep may hold; its values are built as one list
MAX_SWEEP_POINTS = 10 ** 6


def _hz(value):
    """An ordinary frequency (Hz) as an angular rate (rad/s)."""
    return TWO_PI * value


#: section -> key -> (field of the section's record, conversion from the
#: document's unit); a ``str`` key keeps its text and an ``int`` key is an
#: integer, every other key is a finite number
_SCHEMA = {
    "geometry": {
        "length_m": ("length", float),
        "width_m": ("width", float),
        "thickness_m": ("thickness", float),
        "youngs_modulus_pa": ("youngs_modulus", float),
        "mass_density_kg_m3": ("density", float),
        "pre_tension_n": ("pre_tension", float),
        "clamping_coefficient": ("clamping_coefficient", float),
        "mode_mass_fraction": ("mode_mass_fraction", float),
    },
    "circuit": {
        "gap_m": ("gap", float),
        "bias_voltage_v": ("bias_voltage", float),
        "inductance_h": ("inductance", float),
    },
    "emitter": {
        "zpl_wavelength_m": ("zpl_frequency", wavelength_to_angular_frequency),
        "optical_decay_hz": ("optical_decay", _hz),
        "strain_shift_mev_per_percent": ("strain_shift_coefficient", strain_shift_to_si),
        "stark_shift_mev_per_v_per_m": ("stark_shift_coefficient", stark_shift_to_si),
    },
    "simulation": {
        "g_c_hz": ("g_c", _hz),
        "kappa_hz": ("kappa", _hz),
        "gamma_m_hz": ("gamma_m", _hz),
        "gamma_lc_hz": ("gamma_lc", _hz),
        "temperature_k": ("temperature", float),
        "mode_frequency_hz": ("mode_frequency", _hz),
        "duration_s": ("duration", float),
    },
    "sweep": {
        "variable": ("variable", str),
        "start": ("start", float),
        "stop": ("stop", float),
        "points": ("points", int),
        "spacing": ("spacing", str),
    },
}

#: keys that a section must give when it is present; [sweep] may be left out
_REQUIRED = {
    "geometry": ("length_m", "width_m", "thickness_m", "youngs_modulus_pa"),
    "circuit": ("gap_m", "bias_voltage_v"),
    "sweep": ("variable", "start", "stop", "points"),
}


@checked
class SimulationSettings(NamedTuple):
    """Transfer-run parameters; rates are angular (rad/s)."""

    g_c: NonNegative | None = None
    kappa: NonNegative = TWO_PI * 50e6
    gamma_m: NonNegative = TWO_PI * 100e3
    gamma_lc: NonNegative = TWO_PI * 100e3
    temperature: NonNegative = 0.05           # K
    mode_frequency: Positive = TWO_PI * 5e9
    duration: NonNegative | None = None       # s


@checked
class SweepSettings(NamedTuple):
    """One swept variable and its points, in the variable's SI unit."""

    variable: str
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def _check(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"unknown sweep variable {self.variable!r}; "
                f"expected one of {', '.join(SWEEP_VARIABLES)}"
            )
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.points > MAX_SWEEP_POINTS:
            raise ValueError(f"points must be <= {MAX_SWEEP_POINTS}")
        if self.start > self.stop:
            raise ValueError("range must be ordered (start <= stop)")
        # every sweep variable is a nonnegative quantity, and a thickness is positive
        if self.variable == "thickness" and not self.start > 0:
            raise ValueError("a thickness sweep must start above 0")
        if self.start < 0:
            raise ValueError(f"a {self.variable} sweep must start at 0 or above")
        if self.spacing not in ("linear", "log"):
            raise ValueError("spacing must be 'linear' or 'log'")
        if self.spacing == "log" and self.start <= 0:
            raise ValueError("log spacing needs a positive start")
        # the points between the ends lie below stop, so a finite stop / start
        # keeps every point finite
        if self.spacing == "log" and self.points > 1 and math.isinf(self.stop / self.start):
            raise ValueError(f"the log range {self.start:g} to {self.stop:g} overflows")

    def values(self):
        """``[start]`` for one point, else ``start``, the ``points - 2`` between and ``stop``."""
        if self.points == 1:
            return [self.start]
        n = self.points - 1
        if self.spacing == "log":
            ratio = (self.stop / self.start) ** (1.0 / n)
            return [self.start * ratio ** i for i in range(n)] + [self.stop]
        step = (self.stop - self.start) / n
        return [self.start + step * i for i in range(n)] + [self.stop]


class ExperimentConfig(NamedTuple):
    """A parsed config document."""

    geometry: MembraneGeometry
    environment: ElectrostaticEnvironment
    inductance: float
    emitter: EmitterParams
    simulation: SimulationSettings
    sweep: SweepSettings | None
    config_hash: str = ""


def _value(section, key, raw, convert):
    """``convert`` of what ``raw`` writes: the text of a ``str`` key, the
    integer of an ``int`` key, else a finite number."""
    if convert is str:
        return raw
    parse, kind = (int, "an integer") if convert is int else (float, "a number")
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigError(f"not {kind}: {raw!r}", section, key) from None
    # nan slips through every range check written as a comparison
    if parse is float and not math.isfinite(value):
        raise ConfigError(f"not a finite number: {raw!r}", section, key)
    value = convert(value)
    # a finite value can leave the float range in its unit conversion
    if parse is float and not math.isfinite(value):
        raise ConfigError(f"not finite once converted to SI units: {raw!r}", section, key)
    return value


def _circuit(gap, bias_voltage, inductance=DEFAULT_INDUCTANCE):
    """The ``[circuit]`` record: the electrostatic environment and the inductance."""
    environment = ElectrostaticEnvironment(gap=gap, bias_voltage=bias_voltage)
    if not inductance > 0:
        raise ValueError("inductance must be positive")
    return environment, inductance


def _record(make, cp, section):
    """``make`` called with the fields of the keys that ``section`` gives; a
    ``ValueError`` of a conversion or of ``make`` is a ``ConfigError`` naming
    the section."""
    fields = {}
    try:
        for key, (name, convert) in _SCHEMA[section].items():
            if cp.has_option(section, key):
                fields[name] = _value(section, key, cp.get(section, key), convert)
            elif key in _REQUIRED.get(section, ()):
                raise ConfigError("missing required field", section, key)
        return make(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc), section) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document.

    Raises
    ------
    ConfigError
        On syntax errors, unknown sections or keys, missing required
        fields, or values the physics modules reject.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"syntax error: {exc}") from None

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError("unknown section", section)
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError("unknown key", section, key)
    for section in ("geometry", "circuit"):
        if not cp.has_section(section):
            raise ConfigError("missing required section", section)

    geometry = _record(MembraneGeometry, cp, "geometry")
    environment, inductance = _record(_circuit, cp, "circuit")
    emitter = _record(EmitterParams, cp, "emitter")
    simulation = _record(SimulationSettings, cp, "simulation")

    sweep = _record(SweepSettings, cp, "sweep") if cp.has_section("sweep") else None

    return ExperimentConfig(
        geometry, environment, inductance, emitter, simulation, sweep,
        config_hash=sha256(text.encode()).hexdigest(),
    )
