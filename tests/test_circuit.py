import math

import pytest

from transducer_sim import (
    ElectrostaticEnvironment,
    TuningError,
    charge_zero_point,
    electromechanical_coupling,
    matched_circuit,
    membrane_capacitance,
    solve_equilibrium,
    tune_capacitor,
)
from transducer_sim.constants import HBAR

from conftest import TWO_PI


class TestMembraneCapacitance:
    def test_benchmark_point(self, geometry):
        # eps0 * l * w / 7.6 nm = 0.128 fF
        c = membrane_capacitance(geometry, gap=10e-9, deflection=2.4e-9)
        assert c == pytest.approx(0.1281e-15, rel=1e-3)

    def test_vanishes_for_large_gap(self, geometry):
        assert membrane_capacitance(geometry, gap=1.0, deflection=0.0) < 1e-21

    def test_halving_gap_doubles_capacitance(self, geometry):
        c1 = membrane_capacitance(geometry, gap=10e-9, deflection=2e-9)  # 8 nm left
        c2 = membrane_capacitance(geometry, gap=10e-9, deflection=6e-9)  # 4 nm left
        assert c2 / c1 == pytest.approx(2.0, rel=1e-12)

    def test_contact_rejected(self, geometry):
        with pytest.raises(ValueError):
            membrane_capacitance(geometry, gap=10e-9, deflection=10e-9)


class TestTuneCapacitor:
    def test_total_capacitance_anchor(self):
        # 1/(L w^2) at 1 uH, 5 GHz is 1.013 fF (the rounded 1.3 fF sometimes
        # quoted for this L would resonate at 4.41 GHz instead; see README)
        omega = TWO_PI * 5e9
        c_m = 0.128e-15
        c0 = tune_capacitor(1e-6, omega, c_m)
        assert c0 + c_m == pytest.approx(1.0132e-15, rel=1e-3)

    def test_boundary_gives_zero(self):
        omega = TWO_PI * 5e9
        c_total = 1.0 / (1e-6 * omega ** 2)
        assert tune_capacitor(1e-6, omega, c_total) == 0.0

    def test_inversion_identity(self):
        omega = TWO_PI * 5e9
        c0 = tune_capacitor(1e-6, omega, 0.128e-15)
        back = 1.0 / math.sqrt(1e-6 * (c0 + 0.128e-15))
        assert back == pytest.approx(omega, rel=1e-12)

    def test_overfull_membrane_raises(self):
        omega = TWO_PI * 5e9
        with pytest.raises(TuningError):
            tune_capacitor(1e-6, omega, 2e-15)


def test_charge_zero_point_anchor():
    assert charge_zero_point(1e-6, TWO_PI * 5e9) == pytest.approx(
        4.0968e-20, rel=1e-4
    )


class TestElectromechanicalCoupling:
    def test_zero_bias_gives_zero(self, geometry):
        env = ElectrostaticEnvironment(gap=10e-9, bias_voltage=0.0)
        op = solve_equilibrium(geometry, env)
        circ = matched_circuit(geometry, op, gap=10e-9)
        assert electromechanical_coupling(op, circ, geometry, env) == 0.0

    def test_benchmark_bias(self, geometry, environment):
        op = solve_equilibrium(geometry, environment)
        circ = matched_circuit(geometry, op, gap=10e-9)
        g_em = electromechanical_coupling(op, circ, geometry, environment)
        # within a factor 2 of the quoted ~250 MHz
        assert 125e6 < g_em / TWO_PI < 500e6
        assert g_em / TWO_PI == pytest.approx(300.83e6, rel=1e-3)  # regression pin

    def test_cooperativity(self, geometry, environment):
        op = solve_equilibrium(geometry, environment)
        circ = matched_circuit(geometry, op, gap=10e-9)
        g_em = electromechanical_coupling(op, circ, geometry, environment)
        gamma = TWO_PI * 100e3
        coop = g_em ** 2 / (gamma * gamma)
        assert 2e6 < coop < 1.8e7  # within a factor 3 of 6e6

    def test_energy_scale_consistency(self, geometry, environment):
        # G x_zpf q_zpf is an energy; dividing by hbar gives the rate, with
        # G = qbar C_m' / C^2, qbar = V C and C_m' = C_m / (gap - x)
        op = solve_equilibrium(geometry, environment)
        circ = matched_circuit(geometry, op, gap=10e-9)
        c_m = membrane_capacitance(geometry, 10e-9, op.deflection)
        c_total = c_m + circ.tuning_capacitance
        gradient = 3.3 * c_total * (c_m / (10e-9 - op.deflection)) / c_total ** 2
        energy = gradient * op.x_zpf * circ.q_zpf
        g_em = electromechanical_coupling(op, circ, geometry, environment)
        assert g_em == pytest.approx(energy / HBAR, rel=1e-12)

    def test_monotone_in_bias(self, geometry):
        rates = []
        for v in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.3):
            env = ElectrostaticEnvironment(gap=10e-9, bias_voltage=v)
            op = solve_equilibrium(geometry, env)
            circ = matched_circuit(geometry, op, gap=10e-9)
            rates.append(electromechanical_coupling(op, circ, geometry, env))
        assert all(a < b for a, b in zip(rates, rates[1:]))


class TestMatchedCircuit:
    def test_resonance_and_zero_point(self, geometry, environment):
        op = solve_equilibrium(geometry, environment)
        circ = matched_circuit(geometry, op, gap=10e-9)
        c_m = membrane_capacitance(geometry, 10e-9, op.deflection)
        # the default inductance is 1 uH
        resonance = 1.0 / math.sqrt(1e-6 * (c_m + circ.tuning_capacitance))
        assert resonance == pytest.approx(op.mech_frequency, rel=1e-12)
        assert circ.q_zpf == pytest.approx(
            math.sqrt(HBAR / (2 * 1e-6 * op.mech_frequency)), rel=1e-15
        )
