"""Optomechanical coupling of the emitter to the membrane motion.

The zero-phonon line of the embedded single-photon emitter shifts with the
membrane position through two mechanisms: the motion modulates the lattice
strain (strain coupling) and it modulates the electric field of the biased
gap (Stark coupling).  A red-detuned drive of Rabi rate Omega below
omega_m converts the dispersive shift into an excitation-exchanging
coupling of strength (Omega/2)(g_om/omega_m).  This module also provides
the cooperativity and the Bose thermal occupation, with which
``dynamics.make_transfer_system`` applies one rule to all three baths:
each nonzero decay rate is multiplied by (n_bar + 1) at its own bath's
frequency.  Its optical frequency defaults to inf, meaning no optical
line, whose occupation is exactly zero at any finite temperature.

These are leaf formulas: the runner combines the operating point, the
circuit and these rates itself, and transfer runs take their matched
coupling g_c from the config rather than from a drive.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import (
    HBAR,
    K_B,
    stark_shift_to_si,
    strain_shift_to_si,
    wavelength_to_angular_frequency,
)
from .mechanics import ElectrostaticEnvironment, MembraneGeometry, OperatingPoint
from .records import Positive, checked

#: measured ZPL strain response of emitters in h-BN spans -3..+6 meV/%;
#: only the magnitude enters the coupling rates
DEFAULT_STRAIN_SHIFT_MEV_PER_PERCENT = 5.0

#: 21 meV observed shift at 4e8 V/m for an emitter in a WSe2 monolayer
DEFAULT_STARK_SHIFT_MEV_PER_V_PER_M = 21.0 / 4e8

DEFAULT_ZPL_WAVELENGTH = 600e-9
DEFAULT_OPTICAL_DECAY_HZ = 53e6   # 3 ns excited-state lifetime


@checked
class EmitterParams(NamedTuple):
    """Optical transition and response coefficients of the emitter."""

    zpl_frequency: Positive = wavelength_to_angular_frequency(DEFAULT_ZPL_WAVELENGTH)
    optical_decay: Positive = 2.0 * math.pi * DEFAULT_OPTICAL_DECAY_HZ   # rad/s
    strain_shift_coefficient: float = strain_shift_to_si(
        DEFAULT_STRAIN_SHIFT_MEV_PER_PERCENT
    )                                                   # rad/s per unit strain
    stark_shift_coefficient: float = stark_shift_to_si(
        DEFAULT_STARK_SHIFT_MEV_PER_V_PER_M
    )                                                   # rad/s per (V/m)


def strain_coupling(
    op_point: OperatingPoint, geom: MembraneGeometry, emitter: EmitterParams
) -> float:
    """Strain-mediated emitter-phonon coupling rate (rad/s).

    Around an undeflected sheet the strain is quadratic in position, so the
    zero-point motion alone produces a negligible shift.  A static
    deflection x0 linearises it: the strain fluctuation per zero-point
    displacement is 4 x0 x_zpf / l^2, giving

        g_om1 = (4 x0 x_zpf / l^2) * dw/dS .
    """
    lever = 4.0 * op_point.deflection * op_point.x_zpf / geom.length ** 2
    return lever * emitter.strain_shift_coefficient


def stark_coupling(
    op_point: OperatingPoint, env: ElectrostaticEnvironment, emitter: EmitterParams
) -> float:
    """Stark-mediated emitter-phonon coupling rate (rad/s).

    The zero-point motion modulates the gap field V/(d - x) by
    x_zpf * V / (d - x0)^2; the field derivative is taken at the deflected
    gap, consistently with the electrostatic force model.
    """
    if not op_point.deflection < env.gap:
        raise ValueError("deflection reaches the electrode (contact)")
    field_gradient = env.bias_voltage / (env.gap - op_point.deflection) ** 2
    return op_point.x_zpf * field_gradient * emitter.stark_shift_coefficient


def effective_optomechanical_coupling(
    rabi_rate: float, g_om: float, omega_m: float
) -> float:
    """Drive-reduced red-sideband coupling (Omega/2)(g_om/omega_m) in rad/s.

    The drive of Rabi rate Omega is assumed red-detuned from the zero-phonon
    line by Delta = sqrt(omega_m^2 - Omega^2), so that the dressed-state
    splitting sqrt(Delta^2 + Omega^2) equals omega_m.  The exchange rate is
    then (g_om/2) sin(theta) with tan(theta) = Omega/Delta, which is this
    formula; no such detuning Delta > 0 exists unless 0 <= Omega < omega_m.
    """
    if not omega_m > 0:
        raise ValueError("omega_m must be positive")
    if not 0 <= rabi_rate < omega_m:
        raise ValueError(
            "rabi_rate must lie in [0, omega_m): the drive is detuned by "
            "sqrt(omega_m^2 - rabi_rate^2)"
        )
    return 0.5 * rabi_rate * g_om / omega_m


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose occupation 1/(exp(hbar w / kB T) - 1); zero at T = 0 by limit."""
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not temperature >= 0:
        raise ValueError("temperature must be nonnegative")
    if temperature == math.inf:
        raise ValueError("temperature must be finite")
    if temperature == 0.0:
        return 0.0
    k_t = K_B * temperature
    # k_B T underflows to 0 below about 1e-301 K; the ratio is then formed in another order
    x = HBAR * omega / k_t if k_t else HBAR / K_B * omega / temperature
    if x > 700.0:  # exp would overflow; occupation is far below double precision
        return 0.0
    if x == 0.0:  # hbar w underflows; the occupation is beyond every float
        return math.inf
    return 1.0 / math.expm1(x)


def cooperativity(g: float, rate_a: float, rate_b: float) -> float:
    """Coherent-coupling figure of merit g^2 / (rate_a * rate_b)."""
    if not rate_a > 0 or not rate_b > 0:
        raise ValueError("decay rates must be positive")
    return g ** 2 / (rate_a * rate_b)
