import math

import numpy as np
import pytest

from transducer_sim import ElectrostaticEnvironment, MembraneGeometry

TWO_PI = 2.0 * math.pi


def documented_stiffness(geom):
    """Linear and cubic coefficients (k1, k3) of the documented restoring force.

    F = [30.78 w h^3 Y / l^3 + 12.32 T0 / l] x + (8 w h Y / (3 l^3)) x^3,
    written out here so the checks do not lean on the code under test.
    """
    l, w, h, y = geom.length, geom.width, geom.thickness, geom.youngs_modulus
    k1 = 30.78 * w * h ** 3 * y / l ** 3 + 12.32 * geom.pre_tension / l
    k3 = 8.0 * w * h * y / (3.0 * l ** 3)
    return k1, k3


def reference_root(a, b):
    """Stable root u of (u + a u^3)(1 - u)^2 = b by ``numpy.roots``, or None past pull-in.

    The companion-matrix solve that ``solve_equilibrium`` used before its
    bracketed Newton solve: the smallest real root in [0, 1), kept only if
    the net stiffness there, in units of k1, 1 + 3 a u^2 - 2 b / (1 - u)^3,
    is positive.
    """
    roots = np.roots([a, -2.0 * a, 1.0 + a, -2.0, 1.0, -b])
    # the roots are O(1), so a real one carries only rounding noise in imag
    real = roots.real[np.abs(roots.imag) <= 1e-12]
    below_gap = real[(real >= 0.0) & (real < 1.0)]
    if below_gap.size == 0:
        return None
    u = float(below_gap.min())
    if not 1.0 + 3.0 * a * u * u - 2.0 * b / (1.0 - u) ** 3 > 0.0:
        return None
    return u


def reference_fold(a):
    """``(u*, f(u*))``: the maximum of f(u) = (u + a u^3)(1 - u)^2 on (0, 1).

    u* is the smallest root of f' in (0, 1), by ``numpy.roots``; a bias
    whose b reaches f(u*) is past pull-in.
    """
    balance = np.polymul([a, 0.0, 1.0, 0.0], [1.0, -2.0, 1.0])
    turning = np.roots(np.polyder(balance))
    u_star = min(u.real for u in turning if abs(u.imag) <= 1e-12 and 0.0 < u.real < 1.0)
    return u_star, float(np.polyval(balance, u_star))


@pytest.fixture(scope="session")
def geometry():
    """110 nm x 1 um x 1.1 nm sheet, Y = 1 TPa, 10 nN pre-tension."""
    return MembraneGeometry(
        length=110e-9,
        width=1e-6,
        thickness=1.1e-9,
        youngs_modulus=1000e9,
    )


@pytest.fixture(scope="session")
def environment():
    """10 nm gap, 3.3 V benchmark bias."""
    return ElectrostaticEnvironment(gap=10e-9, bias_voltage=3.3)
