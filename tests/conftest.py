import math

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
