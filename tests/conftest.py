import math

import numpy as np
import pytest
from scipy.constants import epsilon_0

from transducer_sim import ElectrostaticEnvironment, MembraneGeometry, dynamics
from transducer_sim.constants import HBAR

TWO_PI = 2.0 * math.pi


def on_comb(system, spacing_hz, count):
    """``system`` on a photon comb of ``count`` modes ``spacing_hz`` apart.

    ``_replace`` builds a new system, so every check of
    ``TransferSystem`` runs on the new comb.
    """
    return system._replace(mode_spacing=TWO_PI * spacing_hz, mode_count=count)


def pin_comb(monkeypatch, spacing_hz=1e6, count=500):
    """Make every system built in this test use one comb, whatever its rates.

    Runs then reach the rate, comb and step-plan checks of a fixed comb
    (by default the 500-mode, 1 MHz comb of the 50 MHz benchmark) instead
    of the refusals of the comb derived from the rates.
    """
    monkeypatch.setattr(
        dynamics, "default_discretization", lambda g_max, kappa: (TWO_PI * spacing_hz, count)
    )


def documented_stiffness(geom):
    """Linear and cubic coefficients (k1, k3) of the documented restoring force.

    F = [30.78 w h^3 Y / l^3 + 12.32 T0 / l] x + (8 w h Y / (3 l^3)) x^3,
    written out here so the checks do not lean on the code under test.
    """
    l, w, h, y = geom.length, geom.width, geom.thickness, geom.youngs_modulus
    k1 = 30.78 * w * h ** 3 * y / l ** 3 + 12.32 * geom.pre_tension / l
    k3 = 8.0 * w * h * y / (3.0 * l ** 3)
    return k1, k3


def induced_tension(geom, deflection):
    """Tension (N) of the sheet deflected by ``deflection`` at its midpoint.

    The midpoint displacement elongates the sheet by the triangle
    construction, giving a strain S = 2 x0^2 / l^2 on top of the
    pre-tension: T = T0 + Y w h S.  This and the two functions below are
    the documented formulas of an operating point, computed afresh at each
    call; ``operating_point_at_deflection`` gives their floats.
    """
    if deflection < 0:
        raise ValueError("deflection must be nonnegative")
    strain = 2.0 * deflection ** 2 / geom.length ** 2
    return geom.pre_tension + geom.youngs_modulus * geom.width * geom.thickness * strain


def flexural_frequency(geom, tension):
    """Fundamental flexural-mode frequency (rad/s) at the given tension.

        f = sqrt(A^2 Y h^2 / (rho l^4) + 0.57 A^2 T / (rho l^2 w h))

    with the first (plate) term dominating for thick sheets and the second
    (tension) term for atomically thin ones.
    """
    if tension < 0:
        raise ValueError("tension must be nonnegative")
    a2 = geom.clamping_coefficient ** 2
    plate = a2 * geom.youngs_modulus * geom.thickness ** 2 / (
        geom.density * geom.length ** 4
    )
    stretched = 0.57 * a2 * tension / (
        geom.density * geom.length ** 2 * geom.width * geom.thickness
    )
    return TWO_PI * math.sqrt(plate + stretched)


def zero_point_amplitude(effective_mass, frequency):
    """Zero-point amplitude sqrt(hbar / (2 m w)) (m) of a harmonic mode."""
    if not effective_mass > 0 or not frequency > 0:
        raise ValueError("effective mass and frequency must be positive")
    return math.sqrt(HBAR / (2.0 * effective_mass * frequency))


def electrostatic_force(env, geom, deflection):
    """Attractive parallel-plate force (N) at a deflection, eps0 w l V^2 / (2 (d - x)^2)."""
    if deflection < 0:
        raise ValueError("deflection must be nonnegative")
    if deflection >= env.gap:
        raise ValueError("deflection reaches the electrode (contact)")
    plates = epsilon_0 * geom.width * geom.length
    return plates * env.bias_voltage ** 2 / (2.0 * (env.gap - deflection) ** 2)


def net_stiffness(geom, env, deflection):
    """Slope (N/m) of the net restoring force at a deflection.

        k = k1 + 3 k3 x^2 - eps0 w l V^2 / (d - x)^3

    with (k1, k3) from :func:`documented_stiffness`.  An equilibrium is
    stable where k > 0.  The sum cancels to rounding noise near pull-in,
    so it is a test reference only; the package decides stability by the
    fold.
    """
    if deflection < 0:
        raise ValueError("deflection must be nonnegative")
    if deflection >= env.gap:
        raise ValueError("deflection reaches the electrode (contact)")
    k1, k3 = documented_stiffness(geom)
    plates = epsilon_0 * geom.width * geom.length
    return k1 + 3.0 * k3 * deflection ** 2 - plates * env.bias_voltage ** 2 / (
        env.gap - deflection
    ) ** 3


def loaded(system):
    """Amplitude vector with the microwave photon loaded: c3 = 1."""
    y = np.zeros(system.size, dtype=complex)
    y[2] = 1.0
    return y


def dense_generator(system):
    """Independent dense form of the coefficient equations for oracle runs."""
    n = system.mode_count + 3
    kp = math.sqrt(system.kappa * system.mode_spacing / TWO_PI)
    detunings = (np.arange(1, system.mode_count + 1) - system.mode_count / 2) * (
        system.mode_spacing
    )
    m = np.zeros((n, n), dtype=complex)
    m[0, 1] = -1j * system.g_om
    m[0, 3:] = kp
    m[1, 0] = -1j * system.g_om
    m[1, 2] = -1j * system.g_em
    m[1, 1] = -0.5 * system.gamma_m
    m[2, 1] = -1j * system.g_em
    m[2, 2] = -0.5 * system.gamma_lc
    m[3:, 0] = -kp
    m[np.arange(3, n), np.arange(3, n)] = -1j * detunings
    return m


def closed_generator(g_c):
    """3x3 lossless exchange Hamiltonian (rad/s) in the basis (|g,01>, |g,10>, |e,00>)."""
    return g_c * np.array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex
    )


def closed_eigensystem(g_c):
    """``(eigenvalues, eigenstates)`` of :func:`closed_generator` in closed form.

    ``eigenstates`` rows are the amplitude triples of the eigenvectors, and
    the eigenvalues are the matching angular frequencies (-sqrt(2) g,
    +sqrt(2) g, 0).
    """
    r = math.sqrt(2.0)
    states = np.array(
        [[0.5, -r / 2.0, 0.5], [0.5, r / 2.0, 0.5], [r / 2.0, 0.0, -r / 2.0]],
        dtype=complex,
    )
    return np.array([-r * g_c, r * g_c, 0.0]), states


def closed_evolution(g_c, t):
    """Lossless evolution of |g,01> under the three-state exchange.

    Returns the amplitude triple on (|g,01>, |g,10>, |e,00>):

        ( (1 + cos(sqrt(2) g t)) / 2,
          -i sin(sqrt(2) g t) * sqrt(2)/2,
          -(1 - cos(sqrt(2) g t)) / 2 )

    The norm is identically 1; the transfer to |e,00> completes at
    t = pi / (sqrt(2) g).
    """
    theta = math.sqrt(2.0) * g_c * t
    return np.array(
        [
            0.5 * (1.0 + math.cos(theta)),
            -1j * (math.sqrt(2.0) / 2.0) * math.sin(theta),
            -0.5 * (1.0 - math.cos(theta)),
        ],
        dtype=complex,
    )


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
