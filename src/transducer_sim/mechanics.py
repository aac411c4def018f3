"""Statics and fundamental-mode properties of a doubly clamped 2D membrane.

A thin sheet (graphene / h-BN / TMDC heterostructure, thickness ~1 nm) is
clamped on two sides above a bottom electrode.  A DC bias pulls the sheet
toward the electrode; the deflection stretches it, the induced tension
stiffens the fundamental flexural mode, and the mode frequency becomes
voltage tunable by several GHz.  This module solves the static force
balance and reports the operating point: deflection, tension, mode
frequency and zero-point amplitude.  The force balance is a quintic in
the deflection, so the equilibrium is its smallest real root below the gap
(parallel-plate pull-in; Pelesko & Bernstein, *Modeling MEMS and NEMS*,
2002).

All quantities are SI; frequencies are angular (rad/s) unless a name ends
in ``_hz``.  Deflections are positive toward the bottom electrode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EPSILON_0, HBAR, TWO_PI
from .errors import PullInError

#: volumetric mass density assumed for the stack when none is given
#: (kg/m^3, graphite-like)
DEFAULT_DENSITY = 2260.0

#: clamping coefficient of the fundamental flexural mode of a doubly
#: clamped membrane
DEFAULT_CLAMPING_COEFFICIENT = 1.03

#: fraction of the total membrane mass carried by the fundamental mode,
#: normalised to the midpoint amplitude; 1/2 is the standard value for a
#: tension-dominated doubly clamped mode and is the value the biased
#: (tension-stiffened) operating points live in
DEFAULT_MODE_MASS_FRACTION = 0.5

# geometric coefficients of the midpoint force law of a doubly clamped sheet
_PLATE_STIFFNESS_COEFF = 30.78
_TENSION_STIFFNESS_COEFF = 12.32
_CUBIC_STIFFNESS_COEFF = 8.0 / 3.0

# weight of the tension term in the fundamental-mode frequency
_TENSION_FREQUENCY_COEFF = 0.57


@dataclass(frozen=True)
class MembraneGeometry:
    """Dimensions and material constants of the suspended membrane."""

    length: float                # m, span between the clamps
    width: float                 # m
    thickness: float             # m
    youngs_modulus: float        # Pa
    density: float = DEFAULT_DENSITY      # kg/m^3
    pre_tension: float = 10e-9            # N, built-in tension
    clamping_coefficient: float = DEFAULT_CLAMPING_COEFFICIENT
    mode_mass_fraction: float = DEFAULT_MODE_MASS_FRACTION

    def __post_init__(self):
        for name in ("length", "width", "thickness", "youngs_modulus", "density"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.pre_tension < 0:
            raise ValueError("pre_tension must be nonnegative")
        if not self.clamping_coefficient > 0:
            raise ValueError("clamping_coefficient must be positive")
        if not 0 < self.mode_mass_fraction <= 1:
            raise ValueError("mode_mass_fraction must lie in (0, 1]")

    @property
    def mass(self) -> float:
        """Total membrane mass rho*l*w*h (kg)."""
        return self.density * self.length * self.width * self.thickness

    @property
    def effective_mass(self) -> float:
        """Mass of the fundamental flexural mode (kg)."""
        return self.mode_mass_fraction * self.mass


@dataclass(frozen=True)
class ElectrostaticEnvironment:
    """Bottom-electrode gap and the DC bias applied across it."""

    gap: float            # m, undeflected membrane-to-electrode distance
    bias_voltage: float   # V

    def __post_init__(self):
        if not self.gap > 0:
            raise ValueError("gap must be positive")
        if self.bias_voltage < 0:
            raise ValueError("bias_voltage must be nonnegative")


@dataclass(frozen=True)
class OperatingPoint:
    """Solved static state of the biased membrane."""

    deflection: float       # m, midpoint displacement toward the electrode
    tension: float          # N, pre-tension plus deflection-induced tension
    mech_frequency: float   # rad/s, fundamental mode at this tension
    effective_mass: float   # kg
    x_zpf: float            # m, zero-point amplitude of the mode


def flexural_frequency(geom: MembraneGeometry, tension: float) -> float:
    """Fundamental flexural-mode frequency (rad/s) at the given tension.

    The mode frequency is

        f = sqrt(A^2 Y h^2 / (rho l^4) + 0.57 A^2 T / (rho l^2 w h))

    with the first (plate) term dominating for thick sheets and the second
    (tension) term for atomically thin ones.

    Parameters
    ----------
    geom : MembraneGeometry
    tension : float
        Tension T (N) at which to evaluate the mode, >= 0.
    """
    if tension < 0:
        raise ValueError("tension must be nonnegative")
    a2 = geom.clamping_coefficient ** 2
    plate = a2 * geom.youngs_modulus * geom.thickness ** 2 / (
        geom.density * geom.length ** 4
    )
    stretched = _TENSION_FREQUENCY_COEFF * a2 * tension / (
        geom.density * geom.length ** 2 * geom.width * geom.thickness
    )
    return TWO_PI * math.sqrt(plate + stretched)


def _stiffness_coefficients(geom: MembraneGeometry) -> tuple[float, float]:
    """Linear and cubic coefficients (k1, k3) of the restoring force k1 x + k3 x^3."""
    l, w, h, y = geom.length, geom.width, geom.thickness, geom.youngs_modulus
    k1 = (
        _PLATE_STIFFNESS_COEFF * w * h ** 3 * y / l ** 3
        + _TENSION_STIFFNESS_COEFF * geom.pre_tension / l
    )
    k3 = _CUBIC_STIFFNESS_COEFF * w * h * y / l ** 3
    return k1, k3


def elastic_force(geom: MembraneGeometry, deflection: float) -> float:
    """Restoring force (N) of the sheet at a midpoint deflection.

    Linear in the deflection through the bending stiffness and the
    pre-tension, plus a cubic stretching term:

        F = [30.78 w h^3 Y / l^3 + 12.32 T0 / l] d + (8 w h Y / (3 l^3)) d^3
    """
    if deflection < 0:
        raise ValueError("deflection is measured toward the electrode; must be >= 0")
    k1, k3 = _stiffness_coefficients(geom)
    return k1 * deflection + k3 * deflection ** 3


def electrostatic_force(
    env: ElectrostaticEnvironment, geom: MembraneGeometry, deflection: float
) -> float:
    """Attractive parallel-plate force (N) at a deflection, F = eps0 w l V^2 / (2 (d-x)^2)."""
    if deflection < 0:
        raise ValueError("deflection must be nonnegative")
    if deflection >= env.gap:
        raise ValueError("deflection reaches the electrode (contact)")
    remaining = env.gap - deflection
    return (
        EPSILON_0 * geom.width * geom.length * env.bias_voltage ** 2
        / (2.0 * remaining ** 2)
    )


def net_stiffness(
    geom: MembraneGeometry, env: ElectrostaticEnvironment, deflection: float
) -> float:
    """Slope (N/m) of the net restoring force at a deflection.

        k = k1 + 3 k3 x^2 - eps0 w l V^2 / (d - x)^3

    An equilibrium at ``deflection`` is stable only where k > 0.
    """
    if deflection < 0:
        raise ValueError("deflection must be nonnegative")
    if deflection >= env.gap:
        raise ValueError("deflection reaches the electrode (contact)")
    k1, k3 = _stiffness_coefficients(geom)
    electrostatic = (
        EPSILON_0 * geom.width * geom.length * env.bias_voltage ** 2
        / (env.gap - deflection) ** 3
    )
    return k1 + 3.0 * k3 * deflection ** 2 - electrostatic


def bias_for_deflection(geom: MembraneGeometry, gap: float, deflection: float) -> float:
    """Bias (V) whose parallel-plate pull balances the restoring force at a deflection.

        V = (d - x) sqrt(2 F(x) / (eps0 w l)),  F = :func:`elastic_force`

    The inverse of the force balance that :func:`solve_equilibrium` solves;
    the balance need not be stable there (see :func:`net_stiffness`).
    """
    if deflection >= gap:
        raise ValueError("deflection reaches the electrode (contact)")
    return (gap - deflection) * math.sqrt(
        2.0 * elastic_force(geom, deflection) / (EPSILON_0 * geom.width * geom.length)
    )


def induced_tension(geom: MembraneGeometry, deflection: float) -> float:
    """Tension (N) of the sheet deflected by ``deflection`` at its midpoint.

    The midpoint displacement elongates the sheet by the triangle
    construction, giving a strain S = 2 x0^2 / l^2 on top of the
    pre-tension: T = T0 + Y w h S.
    """
    if deflection < 0:
        raise ValueError("deflection must be nonnegative")
    strain = 2.0 * deflection ** 2 / geom.length ** 2
    return geom.pre_tension + geom.youngs_modulus * geom.width * geom.thickness * strain


def zero_point_amplitude(effective_mass: float, frequency: float) -> float:
    """Zero-point amplitude sqrt(hbar / (2 m w)) (m) of a harmonic mode."""
    if not effective_mass > 0 or not frequency > 0:
        raise ValueError("effective mass and frequency must be positive")
    return math.sqrt(HBAR / (2.0 * effective_mass * frequency))


def operating_point_at_deflection(
    geom: MembraneGeometry, deflection: float
) -> OperatingPoint:
    """Operating point of the membrane held at a given static deflection."""
    tension = induced_tension(geom, deflection)
    omega = flexural_frequency(geom, tension)
    m_eff = geom.effective_mass
    return OperatingPoint(
        deflection=deflection,
        tension=tension,
        mech_frequency=omega,
        effective_mass=m_eff,
        x_zpf=zero_point_amplitude(m_eff, omega),
    )


def solve_equilibrium(
    geom: MembraneGeometry, env: ElectrostaticEnvironment
) -> OperatingPoint:
    """Solve the static force balance and return the stable operating point.

    The balance (k1 x + k3 x^3)(d - x)^2 = eps0 w l V^2 / 2 is a quintic.  In
    u = x/d, with a = k3 d^2/k1 and b = eps0 w l V^2 / (2 k1 d^3), it reads
    (u + a u^3)(1 - u)^2 = b, whose coefficients stay O(1-10).  The
    equilibrium is the smallest real root in [0, 1); it must have positive
    :func:`net_stiffness`.  The operating point carries the induced tension,
    the mode frequency at that tension and the zero-point amplitude.

    Raises
    ------
    PullInError
        If no root lies below the gap, i.e. the bias voltage is past the
        pull-in instability, or if the root found is not stable.
    """
    if env.bias_voltage == 0.0:
        return operating_point_at_deflection(geom, 0.0)

    k1, k3 = _stiffness_coefficients(geom)
    d = env.gap
    a = k3 * d ** 2 / k1
    b = (
        EPSILON_0 * geom.width * geom.length * env.bias_voltage ** 2
        / (2.0 * k1 * d ** 3)
    )
    roots = np.roots([a, -2.0 * a, 1.0 + a, -2.0, 1.0, -b])
    # the roots are O(1), so a real one carries only rounding noise in imag
    real = roots.real[np.abs(roots.imag) <= 1e-12]
    below_gap = real[(real >= 0.0) & (real < 1.0)]
    if below_gap.size == 0:
        raise PullInError(
            f"no stable equilibrium below the gap at {env.bias_voltage:g} V "
            f"(pull-in)"
        )
    root = float(below_gap.min()) * d
    if not net_stiffness(geom, env, root) > 0.0:
        raise PullInError(
            f"equilibrium at {root:.3e} m is unstable at {env.bias_voltage:g} V"
        )
    return operating_point_at_deflection(geom, root)
