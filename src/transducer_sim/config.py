"""Strict INI-style experiment configuration.

A config document holds one block per subsystem; every key carries its
unit in the name.  Unknown sections or keys are rejected so typos fail
loudly.  Values outside the physical range (a negative sweep start, a
zero mode frequency) are refused here rather than deep inside a
run.  Frequencies in documents are ordinary frequencies in Hz and are
converted to angular rates here.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .circuit import DEFAULT_INDUCTANCE
from .constants import (
    TWO_PI,
    stark_shift_to_si,
    strain_shift_to_si,
    wavelength_to_angular_frequency,
)
from .coupling import (
    DEFAULT_OPTICAL_DECAY_HZ,
    DEFAULT_STARK_SHIFT_MEV_PER_V_PER_M,
    DEFAULT_STRAIN_SHIFT_MEV_PER_PERCENT,
    DEFAULT_ZPL_WAVELENGTH,
    EmitterParams,
)
from .errors import ConfigError
from .mechanics import (
    DEFAULT_CLAMPING_COEFFICIENT,
    DEFAULT_DENSITY,
    DEFAULT_MODE_MASS_FRACTION,
    DEFAULT_PRE_TENSION,
    ElectrostaticEnvironment,
    MembraneGeometry,
)

SWEEP_VARIABLES = ("thickness", "bias_voltage", "displacement", "temperature", "kappa")

#: most points one sweep may hold; its values are built as one list
MAX_SWEEP_POINTS = 10 ** 6

_SCHEMA = {
    "geometry": {
        "length_m",
        "width_m",
        "thickness_m",
        "youngs_modulus_pa",
        "mass_density_kg_m3",
        "pre_tension_n",
        "clamping_coefficient",
        "mode_mass_fraction",
    },
    "circuit": {
        "gap_m",
        "bias_voltage_v",
        "inductance_h",
    },
    "emitter": {
        "zpl_wavelength_m",
        "optical_decay_hz",
        "strain_shift_mev_per_percent",
        "stark_shift_mev_per_v_per_m",
    },
    "simulation": {
        "g_c_hz",
        "kappa_hz",
        "gamma_m_hz",
        "gamma_lc_hz",
        "temperature_k",
        "mode_frequency_hz",
        "duration_s",
    },
    "sweep": {"variable", "start", "stop", "points", "spacing"},
}

_REQUIRED = {
    "geometry": ("length_m", "width_m", "thickness_m", "youngs_modulus_pa"),
    "circuit": ("gap_m", "bias_voltage_v"),
}


@dataclass(frozen=True)
class SimulationSettings:
    """Transfer-run parameters; rates are angular (rad/s)."""

    g_c: float | None
    kappa: float
    gamma_m: float
    gamma_lc: float
    temperature: float
    mode_frequency: float
    duration: float | None


@dataclass(frozen=True)
class SweepSettings:
    variable: str
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def values(self):
        if self.points == 1:
            return [self.start]
        if self.spacing == "log":
            ratio = (self.stop / self.start) ** (1.0 / (self.points - 1))
            return [self.start * ratio ** i for i in range(self.points)]
        step = (self.stop - self.start) / (self.points - 1)
        return [self.start + step * i for i in range(self.points)]


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: MembraneGeometry
    environment: ElectrostaticEnvironment
    inductance: float
    emitter: EmitterParams
    simulation: SimulationSettings
    sweep: SweepSettings | None
    config_hash: str = field(default="", compare=False)


def _get_float(section, key, getter, default=None, required=False):
    raw = getter(section, key, fallback=None)
    if raw is None:
        if required:
            raise ConfigError("missing required field", section, key)
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"not a number: {raw!r}", section, key) from None
    # nan slips through every range check written as a comparison
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {raw!r}", section, key)
    return value


def _get_int(section, key, getter):
    raw = getter(section, key, fallback=None)
    if raw is None:
        raise ConfigError("missing required field", section, key)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"not an integer: {raw!r}", section, key) from None


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
    for section, keys in _REQUIRED.items():
        if not cp.has_section(section):
            raise ConfigError("missing required section", section)
        for key in keys:
            if not cp.has_option(section, key):
                raise ConfigError("missing required field", section, key)

    get = cp.get

    try:
        geometry = MembraneGeometry(
            length=_get_float("geometry", "length_m", get, required=True),
            width=_get_float("geometry", "width_m", get, required=True),
            thickness=_get_float("geometry", "thickness_m", get, required=True),
            youngs_modulus=_get_float(
                "geometry", "youngs_modulus_pa", get, required=True
            ),
            density=_get_float("geometry", "mass_density_kg_m3", get, DEFAULT_DENSITY),
            pre_tension=_get_float("geometry", "pre_tension_n", get, DEFAULT_PRE_TENSION),
            clamping_coefficient=_get_float(
                "geometry", "clamping_coefficient", get, DEFAULT_CLAMPING_COEFFICIENT
            ),
            mode_mass_fraction=_get_float(
                "geometry", "mode_mass_fraction", get, DEFAULT_MODE_MASS_FRACTION
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "geometry") from None

    try:
        environment = ElectrostaticEnvironment(
            gap=_get_float("circuit", "gap_m", get, required=True),
            bias_voltage=_get_float("circuit", "bias_voltage_v", get, required=True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "circuit") from None

    inductance = _get_float("circuit", "inductance_h", get, DEFAULT_INDUCTANCE)
    if not inductance > 0:
        raise ConfigError("inductance must be positive", "circuit")

    try:
        emitter = EmitterParams(
            zpl_frequency=wavelength_to_angular_frequency(
                _get_float("emitter", "zpl_wavelength_m", get, DEFAULT_ZPL_WAVELENGTH)
            ),
            optical_decay=TWO_PI
            * _get_float("emitter", "optical_decay_hz", get, DEFAULT_OPTICAL_DECAY_HZ),
            strain_shift_coefficient=strain_shift_to_si(
                _get_float(
                    "emitter",
                    "strain_shift_mev_per_percent",
                    get,
                    DEFAULT_STRAIN_SHIFT_MEV_PER_PERCENT,
                )
            ),
            stark_shift_coefficient=stark_shift_to_si(
                _get_float(
                    "emitter",
                    "stark_shift_mev_per_v_per_m",
                    get,
                    DEFAULT_STARK_SHIFT_MEV_PER_V_PER_M,
                )
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "emitter") from None

    g_c = _get_float("simulation", "g_c_hz", get)
    duration = _get_float("simulation", "duration_s", get)
    if duration is not None and duration < 0:
        raise ConfigError("duration_s must be nonnegative", "simulation")
    temperature = _get_float("simulation", "temperature_k", get, 0.05)
    if temperature < 0:
        raise ConfigError("temperature_k must be nonnegative", "simulation")
    mode_frequency = _get_float("simulation", "mode_frequency_hz", get, 5e9)
    if not mode_frequency > 0:
        raise ConfigError("mode_frequency_hz must be positive", "simulation")
    simulation = SimulationSettings(
        g_c=None if g_c is None else TWO_PI * g_c,
        kappa=TWO_PI * _get_float("simulation", "kappa_hz", get, 50e6),
        gamma_m=TWO_PI * _get_float("simulation", "gamma_m_hz", get, 100e3),
        gamma_lc=TWO_PI * _get_float("simulation", "gamma_lc_hz", get, 100e3),
        temperature=temperature,
        mode_frequency=TWO_PI * mode_frequency,
        duration=duration,
    )

    sweep = None
    if cp.has_section("sweep"):
        variable = get("sweep", "variable", fallback=None)
        if variable is None:
            raise ConfigError("missing required field", "sweep", "variable")
        if variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"unknown sweep variable {variable!r}; "
                f"expected one of {', '.join(SWEEP_VARIABLES)}",
                "sweep",
            )
        start = _get_float("sweep", "start", get, required=True)
        stop = _get_float("sweep", "stop", get, required=True)
        points = _get_int("sweep", "points", get)
        if points < 1:
            raise ConfigError("points must be >= 1", "sweep")
        if points > MAX_SWEEP_POINTS:
            raise ConfigError(f"points must be <= {MAX_SWEEP_POINTS}", "sweep", "points")
        if start > stop:
            raise ConfigError("range must be ordered (start <= stop)", "sweep")
        # every sweep variable is a nonnegative quantity, and a thickness is positive
        if variable == "thickness" and not start > 0:
            raise ConfigError("a thickness sweep must start above 0", "sweep", "start")
        if start < 0:
            raise ConfigError(f"a {variable} sweep must start at 0 or above", "sweep", "start")
        spacing = get("sweep", "spacing", fallback="linear")
        if spacing not in ("linear", "log"):
            raise ConfigError("spacing must be 'linear' or 'log'", "sweep")
        if spacing == "log" and start <= 0:
            raise ConfigError("log spacing needs a positive start", "sweep")
        sweep = SweepSettings(
            variable=variable, start=start, stop=stop, points=points, spacing=spacing
        )

    return ExperimentConfig(
        geometry=geometry,
        environment=environment,
        inductance=inductance,
        emitter=emitter,
        simulation=simulation,
        sweep=sweep,
        config_hash=hashlib.sha256(text.encode()).hexdigest(),
    )
