"""LC microwave resonator containing the movable membrane capacitor.

The membrane and the bottom electrode form a position-dependent capacitor
C_m(x) in parallel with a fixed tuning capacitor C0 and in series with an
inductor L1.  The bias network (large series capacitor, large shunt
inductor) is treated as ideal and never enters the resonance.  The static
charge drawn by the bias voltage linearises the capacitive interaction and
yields a single-photon electromechanical coupling rate

    g_em = qbar * d(1/C)/dx * x_zpf * q_zpf / hbar .
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import EPSILON_0, HBAR
from .errors import TuningError
from .mechanics import ElectrostaticEnvironment, MembraneGeometry, OperatingPoint

DEFAULT_INDUCTANCE = 1e-6        # H


class CircuitParams(NamedTuple):
    """What matching decides of the resonator at one operating point.

    The gap and the bias stay in the :class:`ElectrostaticEnvironment`.  The
    resonator's loss is not a circuit element here: the transfer runs take
    it as the rate ``[simulation] gamma_lc_hz``.
    """

    tuning_capacitance: float    # F, fixed capacitor in parallel with the membrane
    q_zpf: float                 # C, charge zero-point fluctuation


def membrane_capacitance(geom: MembraneGeometry, gap: float, deflection: float) -> float:
    """Parallel-plate membrane capacitance eps0 l w / (gap - x) in farads."""
    if not deflection >= 0:
        raise ValueError("deflection must be nonnegative")
    if not deflection < gap:
        raise ValueError("deflection reaches the electrode (contact)")
    if gap == math.inf:
        raise ValueError("gap must be finite")
    return EPSILON_0 * geom.length * geom.width / (gap - deflection)


def tune_capacitor(inductance: float, omega_target: float, c_membrane: float) -> float:
    """Tuning capacitance C0 (F) that puts the LC resonance at ``omega_target``.

    Raises
    ------
    TuningError
        If the membrane capacitance alone already exceeds the required total
        1 / (L omega^2).
    """
    if not inductance > 0 or not omega_target > 0:
        raise ValueError("inductance and target frequency must be positive")
    if not c_membrane >= 0:
        raise ValueError("membrane capacitance must be nonnegative")
    c_total = 1.0 / (inductance * omega_target ** 2)
    if c_membrane > c_total:
        raise TuningError(
            f"membrane capacitance {c_membrane:.3e} F exceeds the "
            f"{c_total:.3e} F required for resonance at "
            f"{omega_target / (2 * math.pi):.3e} Hz"
        )
    return c_total - c_membrane


def charge_zero_point(inductance: float, omega: float) -> float:
    """Charge zero-point fluctuation sqrt(hbar / (2 L omega)) in coulombs."""
    if not inductance > 0 or not omega > 0:
        raise ValueError("inductance and frequency must be positive")
    return math.sqrt(HBAR / (2.0 * inductance * omega))


def matched_circuit(
    geom: MembraneGeometry,
    op_point: OperatingPoint,
    gap: float,
    inductance: float = DEFAULT_INDUCTANCE,
) -> CircuitParams:
    """Build the resonator with C0 tuned so the LC mode matches the membrane.

    The resonance 1 / sqrt(L (C_m + C0)) is placed at the mechanical
    frequency of the operating point.
    """
    omega = op_point.mech_frequency
    c_m = membrane_capacitance(geom, gap, op_point.deflection)
    # positional: a NamedTuple built by keyword takes over twice as long
    return CircuitParams(
        tune_capacitor(inductance, omega, c_m), charge_zero_point(inductance, omega)
    )


def electromechanical_coupling(
    op_point: OperatingPoint,
    circuit: CircuitParams,
    geom: MembraneGeometry,
    env: ElectrostaticEnvironment,
) -> float:
    """Single-photon electromechanical coupling g_em (rad/s) at the operating point.

    The bias charges the total capacitance to qbar = V C(x0).  The position
    dependence of the inverse capacitance then couples charge and position
    fluctuations with gradient G = qbar C_m'(x0) / C(x0)^2, and

        g_em = G x_zpf q_zpf / hbar   (rad/s).

    The magnitude of the gradient is used; the phase convention is absorbed
    into the bilinear coupling term.  g_em vanishes identically at zero bias.
    """
    c_m = membrane_capacitance(geom, env.gap, op_point.deflection)
    c_total = c_m + circuit.tuning_capacitance
    static_charge = env.bias_voltage * c_total
    # dC_m/dx = eps0 l w / (gap - x)^2; membrane_capacitance has checked x
    dc_m = EPSILON_0 * geom.length * geom.width / (env.gap - op_point.deflection) ** 2
    gradient = static_charge * dc_m / c_total ** 2
    return gradient * op_point.x_zpf * circuit.q_zpf / HBAR
