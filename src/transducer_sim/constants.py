"""Physical constants and the unit conversions used by the physics modules.

Everything internal to the package is SI with angular frequencies (rad/s).
Values quoted in spectroscopy units (meV shifts of a zero-phonon line) are
converted here, in one place, so no other module hard-codes eV factors.
"""

import math

TWO_PI = 2.0 * math.pi

# SI-defined exact values and the CODATA 2022 vacuum permittivity, written
# as literals so that no run imports scipy (a statics run imports only the
# standard library, a trajectory run numpy as well); each equals the float
# that ``scipy.constants`` gives, and hbar is h / 2 pi as scipy computes it.
SPEED_OF_LIGHT = 299792458.0
ELEMENTARY_CHARGE = 1.602176634e-19
EPSILON_0 = 8.8541878188e-12
K_B = 1.380649e-23
HBAR = 6.62607015e-34 / TWO_PI

#: 1 meV expressed in joules
MEV = 1e-3 * ELEMENTARY_CHARGE


def strain_shift_to_si(mev_per_percent):
    """Convert a ZPL strain-shift coefficient from meV/% to rad/s per unit strain.

    1 meV/% equals 0.1 eV per unit strain, so 5 meV/% is 0.5 eV/strain.
    """
    return mev_per_percent * 100.0 * MEV / HBAR


def stark_shift_to_si(mev_per_volt_per_meter):
    """Convert a ZPL Stark-shift coefficient from meV/(V/m) to rad/s per V/m."""
    return mev_per_volt_per_meter * MEV / HBAR


def wavelength_to_angular_frequency(wavelength):
    """Vacuum wavelength (m) to angular frequency (rad/s)."""
    if not wavelength > 0:
        raise ValueError("wavelength must be positive")
    return TWO_PI * SPEED_OF_LIGHT / wavelength
