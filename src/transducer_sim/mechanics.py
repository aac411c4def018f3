"""Statics and fundamental-mode properties of a doubly clamped 2D membrane.

A thin sheet (graphene / h-BN / TMDC heterostructure, thickness ~1 nm) is
clamped on two sides above a bottom electrode.  A DC bias pulls the sheet
toward the electrode; the deflection stretches it, the induced tension
stiffens the fundamental flexural mode, and the mode frequency becomes
voltage tunable by several GHz.  This module solves the static force
balance and reports the operating point: deflection, tension, mode
frequency and zero-point amplitude.  The force balance is a quintic in
the deflection whose left side rises to one maximum below the gap and then
falls, so the stable equilibrium is its only root on the rising branch,
and a bias above the maximum is past pull-in (parallel-plate pull-in;
Pelesko & Bernstein, *Modeling MEMS and NEMS*, 2002).  Both come from
bracketed Newton solves: the maximum (the fold) depends only on the
geometry and the gap and is solved once for them, the root once per bias
point.  The fold is the one stability rule: a balanced deflection is
stable exactly below :func:`pull_in_deflection`.

What depends on the geometry alone (k1, k3, eps0 w l and the factors of
the operating point's tension, frequency and zero-point amplitude) is
computed once per geometry and held; a point pays for its root solve and
the few operations that combine it with them.

All quantities are SI; frequencies are angular (rad/s) unless a name ends
in ``_hz``.  Deflections are positive toward the bottom electrode.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .constants import EPSILON_0, HBAR, TWO_PI
from .errors import PullInError
from .records import NonNegative, Positive, checked

#: volumetric mass density assumed for the stack when none is given
#: (kg/m^3, graphite-like)
DEFAULT_DENSITY = 2260.0

#: built-in tension of the sheet when none is given (N)
DEFAULT_PRE_TENSION = 10e-9

#: clamping coefficient of the fundamental flexural mode of a doubly
#: clamped membrane
DEFAULT_CLAMPING_COEFFICIENT = 1.03

#: fraction of the total membrane mass carried by the fundamental mode,
#: normalised to the midpoint amplitude; 1/2 is the standard value for a
#: tension-dominated doubly clamped mode and is the value the biased
#: (tension-stiffened) operating points live in
DEFAULT_MODE_MASS_FRACTION = 0.5

#: inductance of the LC resonator when none is given (H)
DEFAULT_INDUCTANCE = 1e-6

# geometric coefficients of the midpoint force law of a doubly clamped sheet
_PLATE_STIFFNESS_COEFF = 30.78
_TENSION_STIFFNESS_COEFF = 12.32
_CUBIC_STIFFNESS_COEFF = 8.0 / 3.0

# weight of the tension term in the fundamental-mode frequency
_TENSION_FREQUENCY_COEFF = 0.57

# a Newton step this small relative to its iterate ends a scalar solve: the
# error left after it is of the order of its square, far below rounding
_NEWTON_TOLERANCE = 2.0 ** -40


@checked
class MembraneGeometry(NamedTuple):
    """Dimensions and material constants of the suspended membrane."""

    length: Positive             # m, span between the clamps
    width: Positive              # m
    thickness: Positive          # m
    youngs_modulus: Positive     # Pa
    density: Positive = DEFAULT_DENSITY      # kg/m^3
    pre_tension: NonNegative = DEFAULT_PRE_TENSION      # N, built-in tension
    clamping_coefficient: Positive = DEFAULT_CLAMPING_COEFFICIENT
    mode_mass_fraction: float = DEFAULT_MODE_MASS_FRACTION

    def _check(self):
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


@checked
class ElectrostaticEnvironment(NamedTuple):
    """The ``[circuit]`` record: the bottom-electrode gap, the DC bias applied
    across it, and the inductance of the LC resonator the membrane tunes."""

    gap: Positive               # m, undeflected membrane-to-electrode distance
    bias_voltage: NonNegative   # V
    inductance: Positive = DEFAULT_INDUCTANCE   # H


class OperatingPoint(NamedTuple):
    """Solved static state of the biased membrane."""

    deflection: float       # m, midpoint displacement toward the electrode
    tension: float          # N, pre-tension plus deflection-induced tension
    mech_frequency: float   # rad/s, fundamental mode at this tension
    x_zpf: float            # m, zero-point amplitude of the mode


# (geometry, its factors) of the last :func:`_factors` call that returned
_held = (None, None)


def _factors(geom: MembraneGeometry) -> tuple:
    """What the statics compute from the geometry alone, held for the last geometry.

    ``(k1, k3, eps0 w l, Y w h, l^2, A^2 Y h^2 / (rho l^4), 0.57 A^2,
    rho l^2 w h, effective mass)``: the restoring force k1 x + k3 x^3, the
    plates' pull, and the factors of :func:`operating_point_at_deflection`'s
    formulas, each the float its formula computes, in the formula's order.

    One entry, like :func:`_fold`'s: a bias or displacement sweep passes one
    geometry at every point, a thickness sweep a new one.  Found by identity,
    which costs less than hashing the eight floats, so it is always what a
    fresh computation gives; an exception is raised again at every call.

    Raises ``FloatingPointError`` where k1 or k3 is not finite, and the
    ``OverflowError`` or ``ZeroDivisionError`` of a mode factor that leaves
    the float range.
    """
    global _held
    held = _held
    if held[0] is geom:
        return held[1]
    l, w, h, y = geom.length, geom.width, geom.thickness, geom.youngs_modulus
    k1 = (
        _PLATE_STIFFNESS_COEFF * w * h ** 3 * y / l ** 3
        + _TENSION_STIFFNESS_COEFF * geom.pre_tension / l
    )
    k3 = _CUBIC_STIFFNESS_COEFF * w * h * y / l ** 3
    if not (k1 < math.inf and k3 < math.inf):
        raise FloatingPointError(
            f"stiffness k1 = {k1:g} N/m or k3 = {k3:g} N/m^3 is not finite"
        )
    rho, a2 = geom.density, geom.clamping_coefficient ** 2
    _held = (geom, (
        k1, k3, EPSILON_0 * w * l,
        y * w * h, l ** 2, a2 * y * h ** 2 / (rho * l ** 4),
        _TENSION_FREQUENCY_COEFF * a2, rho * l ** 2 * w * h, geom.effective_mass,
    ))
    return _held[1]


def elastic_force(geom: MembraneGeometry, deflection: float) -> float:
    """Restoring force (N) of the sheet at a midpoint deflection.

    Linear in the deflection through the bending stiffness and the
    pre-tension, plus a cubic stretching term:

        F = [30.78 w h^3 Y / l^3 + 12.32 T0 / l] d + (8 w h Y / (3 l^3)) d^3
    """
    if not deflection >= 0:
        raise ValueError("deflection is measured toward the electrode; must be >= 0")
    k1, k3 = _factors(geom)[:2]
    return k1 * deflection + k3 * deflection ** 3


def bias_for_deflection(geom: MembraneGeometry, gap: float, deflection: float) -> float:
    """Bias (V) whose parallel-plate pull balances the restoring force at a deflection.

        V = (d - x) sqrt(2 F(x) / (eps0 w l)),  F = :func:`elastic_force`

    The inverse of the force balance that :func:`solve_equilibrium` solves;
    the balance is stable only below :func:`pull_in_deflection`.
    """
    if not deflection < gap:
        raise ValueError("deflection reaches the electrode (contact)")
    if gap == math.inf:
        raise ValueError("gap must be finite")
    return (gap - deflection) * math.sqrt(
        2.0 * elastic_force(geom, deflection) / _factors(geom)[2]
    )


def operating_point_at_deflection(
    geom: MembraneGeometry, deflection: float
) -> OperatingPoint:
    """Operating point of the membrane held at a given static deflection.

    The deflection x stretches the sheet by the triangle construction: a
    strain S = 2 x^2 / l^2 on top of the pre-tension gives T = T0 + Y w h S.
    The fundamental mode at that tension has the angular frequency

        omega = 2 pi sqrt(A^2 Y h^2 / (rho l^4) + 0.57 A^2 T / (rho l^2 w h))

    (the plate term dominates for thick sheets, the tension term for
    atomically thin ones) and the zero-point amplitude
    sqrt(hbar / (2 m_eff omega)).  What depends on the geometry alone is
    held for it (:func:`_factors`).

    Raises
    ------
    FloatingPointError
        If the mode frequency or the effective mass is not a positive
        finite float, as where the geometry overflows or underflows it,
        or if the geometry's k1 or k3 is not finite (:func:`_factors`).
    """
    if not deflection >= 0:
        raise ValueError("deflection must be nonnegative")
    stretch, l2, plate, weight, mass_length, m_eff = _factors(geom)[3:]
    tension = geom.pre_tension + stretch * (2.0 * deflection ** 2 / l2)
    omega = TWO_PI * math.sqrt(plate + weight * tension / mass_length)
    # the chained comparisons are False for nan as well
    if not (0.0 < omega < math.inf and 0.0 < m_eff < math.inf):
        raise FloatingPointError(
            f"mode frequency {omega:g} rad/s or effective mass {m_eff:g} kg "
            f"is not a positive finite float"
        )
    return OperatingPoint(deflection, tension, omega, math.sqrt(HBAR / (2.0 * m_eff * omega)))


def _bracketed_newton(fn, lo: float, hi: float, x: float) -> float:
    """Root of ``fn`` in [lo, hi] by Newton steps kept inside a sign bracket.

    ``fn(u)`` returns its value and slope; the value is negative at ``lo``,
    positive at ``hi`` and has one sign change between them.  Each value
    moves the bracket end of its sign to ``x``, so no iterate repeats.  A
    Newton step is taken only if it stays inside the bracket and is at most
    half as long as the step before it; otherwise the bracket is bisected.
    Steps or bracket therefore halve at least every other evaluation, even
    where rounding or underflow leaves Newton steps that neither converge
    nor leave the bracket.  The solve ends after a Newton step shorter than
    ``_NEWTON_TOLERANCE`` times its start, or when no float is left inside
    the bracket.
    """
    step = hi - lo
    while True:
        value, slope = fn(x)
        if value < 0.0:
            lo = x
        elif value > 0.0:
            hi = x
        else:
            return x
        newton = value / slope if slope > 0.0 else math.inf
        nxt = x - newton
        if abs(newton) <= _NEWTON_TOLERANCE * x:
            return nxt if lo <= nxt <= hi else x
        if not (lo < nxt < hi and abs(newton) <= 0.5 * step):
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return x
        step = abs(nxt - x)
        x = nxt


# one entry: consecutive calls share one a (every point of a bias sweep, and
# a mechanics then a couplings run on one device), and a thickness sweep
# brings a new a at every point and never comes back to one.
@functools.lru_cache(maxsize=1)
def _fold(a: float) -> tuple[float, float]:
    """Top (u*, f(u*)) of f(u) = (u + a u^3)(1 - u)^2 for a >= 0, the pull-in fold.

    The slope of f factors as f' = (1 - u) g(u) with
    g(u) = 1 - 3u + 3a u^2 - 5a u^3.  g > 0 up to u = 1/3, g < 0 from 3/5
    on, and g = 0 reads a = (3u - 1) / (u^2 (3 - 5u)), which rises with u,
    so g has one root u* in [1/3, 3/5), found by a bracketed Newton solve;
    a = 0, a linear spring, folds at u* = 1/3.  a = k3 d^2 / k1 depends
    only on the geometry and the gap, so the fold is solved once per device
    and cached, as the geometry's factors are held (:func:`_factors`);
    a cached fold is the same pair of floats as a fresh solve.

    g is also the net stiffness: at a deflection u = x/d held in balance
    by its bias, k1 + 3 k3 x^2 - eps0 w l V^2 / (d - x)^3 equals
    k1 g(u) / (1 - u).  A balance is stable (k > 0) exactly where u < u*,
    so the fold alone decides stability, free of the cancellation of
    large terms in that sum.
    """

    def minus_g(u):
        au = a * u
        return 3.0 * u - 1.0 - au * u * (3.0 - 5.0 * u), 3.0 - 3.0 * au * (2.0 - 5.0 * u)

    # start u* from two passes of its fixed point s = 20 / (a (3 - s)^2 + 15)
    # in s = 3 - 5u, exact at both limits a -> 0 (u* = 1/3) and a -> inf (3/5)
    s = 20.0 / (a * (3.0 - 20.0 / (9.0 * a + 15.0)) ** 2 + 15.0)
    top = _bracketed_newton(minus_g, 1.0 / 3.0, 0.6, (3.0 - s) / 5.0)
    return top, (top + a * top ** 3) * (1.0 - top) ** 2


def _stable_root(a: float, b: float) -> float | None:
    """Stable root u of (u + a u^3)(1 - u)^2 = b for a >= 0, or None past pull-in.

    The left side f rises from 0 to its only maximum f(u*) at the fold
    (:func:`_fold`, solved once per a) and falls after it: for b < f(u*)
    the stable root is the only root of f - b on [0, u*], found by a
    bracketed Newton solve at every call, and for b >= f(u*) there is none.
    A root is stable only strictly below u*; one that rounds onto the fold
    is None too.
    """
    top, f_top = _fold(a)
    if not b < f_top:
        return None

    def excess(u):
        w = 1.0 - u
        return (
            (u + a * u ** 3) * w * w - b,
            w * (1.0 + u * (-3.0 + a * u * (3.0 - 5.0 * u))),
        )

    # start where sqrt(f(u*) - f), linear near u*, reaches sqrt(f(u*) - b)
    u = _bracketed_newton(excess, 0.0, top, top * (1.0 - math.sqrt(1.0 - b / f_top)))
    return u if u < top else None


def pull_in_deflection(geom: MembraneGeometry, gap: float) -> float:
    """Deflection (m) of the pull-in fold, u* d with a = k3 d^2 / k1 (:func:`_fold`).

    A deflection held in balance by its bias is stable exactly where it lies
    below this one.
    """
    if not 0 < gap < math.inf:
        raise ValueError("gap must be positive and finite")
    k1, k3 = _factors(geom)[:2]
    return _fold(k3 * gap ** 2 / k1)[0] * gap


def solve_equilibrium(
    geom: MembraneGeometry, env: ElectrostaticEnvironment
) -> OperatingPoint:
    """Solve the static force balance and return the stable operating point.

    The balance (k1 x + k3 x^3)(d - x)^2 = eps0 w l V^2 / 2 is a quintic.  In
    u = x/d, with a = k3 d^2/k1 and b = eps0 w l V^2 / (2 k1 d^3), it reads
    f(u) = (u + a u^3)(1 - u)^2 = b.  f rises from 0 to one maximum at u* in
    (1/3, 3/5), the root of f' / (1 - u), and falls after it, so the stable
    equilibrium is the only root of f - b on [0, u*]; at zero bias that is
    u = 0, where the solve starts and ends.  u* depends on a
    alone, one value per geometry and gap, and is solved once per a
    (:func:`_fold`); the root is solved at every call.  Both come from
    Newton solves kept inside their brackets (bisection when a step leaves
    one), in about 3 and 5 evaluations.  A root is stable exactly where it
    lies below u* (see :func:`_fold`), the one stability rule.  The
    operating point carries the induced tension, the mode frequency at
    that tension and the zero-point amplitude.

    Raises
    ------
    PullInError
        If no root lies below u*: b >= f(u*), the bias voltage is past the
        pull-in instability.
    ArithmeticError
        If a, b or the operating point leave the finite float range: a
        ``FloatingPointError`` where they come out inf or nan, and the
        ``OverflowError`` or ``ZeroDivisionError`` of the float operation
        that leaves it first.
    """
    k1, k3, plates = _factors(geom)[:3]
    d = env.gap
    a = k3 * d ** 2 / k1
    b = plates * env.bias_voltage ** 2 / (2.0 * k1 * d ** 3)
    # a nan would decide pull-in without a comparison holding
    if not (a < math.inf and b < math.inf):
        raise FloatingPointError(
            f"force balance coefficients a = {a:g}, b = {b:g} are not finite"
        )
    u = _stable_root(a, b)
    if u is None:
        raise PullInError(
            f"no stable equilibrium below the gap at {env.bias_voltage:g} V "
            f"(pull-in)"
        )
    return operating_point_at_deflection(geom, u * d)
