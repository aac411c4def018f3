"""Strict INI-style experiment configuration.

A config document holds one block per subsystem; every key carries its
unit in the name, and unknown sections or keys are rejected so typos fail
loudly.  ``_SCHEMA`` maps each key to a field of its section's record and
to the conversion from the document's unit (frequencies in Hz become
angular rates).  Each section is one record (``MembraneGeometry``,
``ElectrostaticEnvironment``, ``EmitterParams``, ``SimulationSettings``,
``SweepSettings``) that states its defaults and ranges: a key whose field
has no default is required, a section left out takes its record's
defaults (None for ``[sweep]``; refused where a field is required), and a
value that the conversion or the record refuses is a ``ConfigError``
naming the section and the key, raised here rather than inside a run:
``[simulation] kappa_hz: kappa must be nonnegative``.
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
    start: NonNegative
    stop: float
    points: int
    spacing: str = "linear"

    def _check(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"variable {self.variable!r} is not a sweep variable; "
                f"expected one of {', '.join(SWEEP_VARIABLES)}"
            )
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.points > MAX_SWEEP_POINTS:
            raise ValueError(f"points must be <= {MAX_SWEEP_POINTS}")
        if self.start > self.stop:
            raise ValueError("stop must not be below start (the range must be ordered)")
        # every sweep variable is a nonnegative quantity, and a thickness is positive
        if self.variable == "thickness" and not self.start > 0:
            raise ValueError("start must be above 0 in a thickness sweep")
        if self.spacing not in ("linear", "log"):
            raise ValueError("spacing must be 'linear' or 'log'")
        if self.spacing == "log" and self.start <= 0:
            raise ValueError("start must be above 0 in a log sweep")
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


#: section -> its record, in the order of ``ExperimentConfig``'s fields
_RECORDS = dict(
    geometry=MembraneGeometry, circuit=ElectrostaticEnvironment, emitter=EmitterParams,
    simulation=SimulationSettings, sweep=SweepSettings,
)


class ExperimentConfig(NamedTuple):
    """A parsed config document: one record per section."""

    geometry: MembraneGeometry
    environment: ElectrostaticEnvironment
    emitter: EmitterParams
    simulation: SimulationSettings
    sweep: SweepSettings | None = None
    config_hash: str = ""


def _value(section, key, raw, convert):
    """``convert`` of what ``raw`` writes: the text of a ``str`` key, the
    integer of an ``int`` key, else a number finite as written (its record
    refuses one that the conversion takes past the float range)."""
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
    try:
        return convert(value)
    except ValueError as exc:
        raise ConfigError(str(exc), section, key) from None


def _record(make, cp, section):
    """``make`` called with the fields of the keys that ``section`` gives.

    A key whose field has no default is required, and where the section is
    left out that is a "missing required section".  A ``ValueError`` of
    ``make`` is a ``ConfigError`` naming the section and the key of the
    field that the error's message starts with, if any.
    """
    fields = {}
    for key, (name, convert) in _SCHEMA[section].items():
        if cp.has_option(section, key):
            fields[name] = _value(section, key, cp.get(section, key), convert)
        elif name not in make._field_defaults:
            if not cp.has_section(section):
                raise ConfigError("missing required section", section)
            raise ConfigError("missing required field", section, key)
    try:
        return make(**fields)
    except ValueError as exc:
        field = str(exc).split(" ", 1)[0]
        key = next((key for key, (name, _) in _SCHEMA[section].items() if name == field), None)
        raise ConfigError(str(exc), section, key) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document.

    Raises
    ------
    ConfigError
        On syntax errors, unknown sections or keys, missing required
        fields, or values the records reject.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"syntax error: {exc}") from None

    # configparser copies the keys of [DEFAULT] into every section
    if cp.defaults():
        raise ConfigError("unknown section", cp.default_section)
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError("unknown section", section)
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError("unknown key", section, key)

    # a section left out whose config field has a default ([sweep]) takes it
    defaults = ExperimentConfig._field_defaults
    records = [
        _record(make, cp, section)
        if cp.has_section(section) or field not in defaults
        else defaults[field]
        for field, (section, make) in zip(ExperimentConfig._fields, _RECORDS.items())
    ]
    return ExperimentConfig(*records, sha256(text.encode()).hexdigest())
