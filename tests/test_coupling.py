import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transducer_sim import (
    ElectrostaticEnvironment,
    EmitterParams,
    OperatingPoint,
    cooperativity,
    effective_optomechanical_coupling,
    make_transfer_system,
    operating_point_at_deflection,
    solve_equilibrium,
    stark_coupling,
    strain_coupling,
    thermal_occupation,
)
from transducer_sim.constants import HBAR, K_B, strain_shift_to_si

from conftest import TWO_PI


@pytest.fixture(scope="module")
def emitter():
    return EmitterParams()


class TestStrainCoupling:
    def test_zero_at_rest(self, geometry, emitter):
        op = operating_point_at_deflection(geometry, 0.0)
        assert strain_coupling(op, geometry, emitter) == 0.0

    def test_four_nanometer_anchor(self, geometry, emitter):
        op = operating_point_at_deflection(geometry, 4e-9)
        g = strain_coupling(op, geometry, emitter)
        assert g > TWO_PI * 3e6
        assert g / TWO_PI == pytest.approx(14.08e6, rel=1e-3)  # regression pin

    def test_cooperativity_exceeds_one(self, geometry, emitter):
        # the strain channel alone reaches the coherent regime at 4 nm; the
        # absolute scale depends on the mode-mass convention (README)
        op = operating_point_at_deflection(geometry, 4e-9)
        g = strain_coupling(op, geometry, emitter)
        c = cooperativity(g, TWO_PI * 100e3, emitter.optical_decay)
        assert c > 1.0
        assert c == pytest.approx(37.4, rel=0.01)  # regression pin

    def test_linear_in_deflection_at_fixed_zero_point(self, geometry, emitter):
        base = operating_point_at_deflection(geometry, 1e-9)
        scaled = OperatingPoint(
            deflection=3e-9,
            tension=base.tension,
            mech_frequency=base.mech_frequency,
            x_zpf=base.x_zpf,
        )
        assert strain_coupling(scaled, geometry, emitter) == pytest.approx(
            3 * strain_coupling(base, geometry, emitter), rel=1e-12
        )

    def test_unit_conversion(self):
        # 5 meV per percent strain is 0.5 eV per unit strain
        coeff = strain_shift_to_si(5.0)
        assert coeff == pytest.approx(0.5 * 1.602176634e-19 / HBAR, rel=1e-9)


class TestStarkCoupling:
    def test_zero_bias(self, geometry, emitter):
        env = ElectrostaticEnvironment(gap=10e-9, bias_voltage=0.0)
        op = solve_equilibrium(geometry, env)
        assert stark_coupling(op, env, emitter) == 0.0

    def test_two_and_a_half_volt_anchor(self, geometry, emitter):
        env = ElectrostaticEnvironment(gap=10e-9, bias_voltage=2.5)
        op = solve_equilibrium(geometry, env)
        g = stark_coupling(op, env, emitter)
        assert g > TWO_PI * 50e6
        assert g / TWO_PI == pytest.approx(58.12e6, rel=1e-3)  # regression pin

    def test_cooperativity_anchor(self, geometry, emitter):
        env = ElectrostaticEnvironment(gap=10e-9, bias_voltage=2.5)
        op = solve_equilibrium(geometry, env)
        g = stark_coupling(op, env, emitter)
        c = cooperativity(g, TWO_PI * 100e3, emitter.optical_decay)
        assert 250 < c < 1000  # within a factor 2 of the quoted ~500

    def test_dominates_strain_coupling(self, geometry, emitter):
        for v in (1.5, 2.0, 2.5, 3.0, 3.3):
            env = ElectrostaticEnvironment(gap=10e-9, bias_voltage=v)
            op = solve_equilibrium(geometry, env)
            ratio = stark_coupling(op, env, emitter) / strain_coupling(
                op, geometry, emitter
            )
            assert ratio > 5.0


class TestEffectiveCoupling:
    def test_no_drive(self):
        assert effective_optomechanical_coupling(0.0, TWO_PI * 100e6, TWO_PI * 5e9) == 0.0

    def test_benchmark_values(self):
        g = effective_optomechanical_coupling(
            TWO_PI * 1e9, TWO_PI * 100e6, TWO_PI * 5e9
        )
        assert g == pytest.approx(TWO_PI * 10e6, rel=1e-12)

    def test_linear_in_drive(self):
        one = effective_optomechanical_coupling(1e9, 1e8, 1e10)
        two = effective_optomechanical_coupling(2e9, 1e8, 1e10)
        assert two == pytest.approx(2 * one, rel=1e-12)

    @pytest.mark.parametrize("rabi_rate", [1e10, 2e10, -1.0, math.nan])
    def test_drive_outside_its_domain_is_refused(self, rabi_rate):
        # at omega_m = 1e10 rad/s: no red detuning sqrt(omega_m^2 - Omega^2) > 0
        # exists at or above omega_m, and a drive rate is not negative
        with pytest.raises(ValueError, match=r"rabi_rate must lie in \[0, omega_m\)"):
            effective_optomechanical_coupling(rabi_rate, 1e8, 1e10)

    @pytest.mark.parametrize("ratio", [0.1, 0.3, 0.6, 0.9])
    def test_matches_the_dressed_anticrossing(self, ratio):
        # H = w_m b+b + (D/2) sz + (W/2) sx + g (1 + sz)(b + b+)/2 on 8 Fock
        # states: as D crosses sqrt(w_m^2 - W^2), the dressed levels |+, 0>
        # and |-, 1> (the second and third) anticross by 2 g_eff
        omega_m, g, fock = 1.0, 0.005, 8
        b = np.diag(np.sqrt(np.arange(1.0, fock)), 1)
        phonon = np.kron(np.eye(2), omega_m * b.T @ b)
        drive = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(fock)) * ratio * omega_m / 2
        coupling = np.kron([[1.0, 0.0], [0.0, 0.0]], b + b.T) * g
        sigma_z = np.kron([[1.0, 0.0], [0.0, -1.0]], np.eye(fock))

        def splitting(delta):
            levels = np.linalg.eigvalsh(phonon + drive + coupling + sigma_z * delta / 2)
            return levels[2] - levels[1]

        # golden-section search for the narrowest splitting around the detuning
        centre = math.sqrt(omega_m ** 2 - (ratio * omega_m) ** 2)
        lo, hi = centre - 0.05 * omega_m, centre + 0.05 * omega_m
        shrink = (math.sqrt(5.0) - 1.0) / 2.0
        while hi - lo > 1e-12 * omega_m:
            a, c = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
            if splitting(a) < splitting(c):
                hi = c
            else:
                lo = a
        g_eff = splitting((lo + hi) / 2) / 2
        expected = effective_optomechanical_coupling(ratio * omega_m, g, omega_m)
        assert g_eff == pytest.approx(expected, rel=1e-3)


class TestThermalOccupation:
    def test_benchmark(self):
        n = thermal_occupation(TWO_PI * 5e9, 0.05)
        assert n == pytest.approx(0.008, abs=1e-3)

    def test_ground_state(self):
        assert thermal_occupation(TWO_PI * 5e9, 0.0) == 0.0

    def test_deep_quantum_regime_underflows_to_zero(self):
        # optical transition at any cryogenic temperature
        assert thermal_occupation(TWO_PI * 5e14, 1.0) == 0.0

    def test_underflowing_quantum_is_infinite(self):
        # hbar w underflows to 0 for w = 1e-300 rad/s: the occupation is
        # beyond every float, and 1 / expm1(0) would divide by zero
        assert thermal_occupation(1e-300, 0.05) == math.inf

    def test_underflowing_temperature(self):
        # k_B T underflows to 0 at 5e-324 K, where 1 / (k_B T) would divide by
        # zero; a 5 GHz quantum is then far above it
        assert thermal_occupation(TWO_PI * 5e9, 5e-324) == 0.0
        # hbar w and k_B T both underflow here, but their ratio is ~7.6e-10
        x = HBAR / K_B * 1e-300 / 1e-302
        assert thermal_occupation(1e-300, 1e-302) == pytest.approx(1.0 / math.expm1(x))

    def test_classical_limit(self):
        # kB T / (hbar w) = 20: Bose occupation within 5% of equipartition
        omega = TWO_PI * 5e9
        temp = 20 * HBAR * omega / K_B
        classical = K_B * temp / (HBAR * omega)
        assert thermal_occupation(omega, temp) == pytest.approx(classical, rel=0.05)

    @given(st.floats(min_value=0.001, max_value=10.0), st.floats(min_value=0.001, max_value=10.0))
    @settings(max_examples=50)
    def test_monotone_in_temperature(self, t1, scale):
        omega = TWO_PI * 5e9
        assert thermal_occupation(omega, t1 * (1 + scale)) > thermal_occupation(omega, t1)


class TestEffectiveDecay:
    """The (n_bar + 1) decay enhancement, applied inline by ``make_transfer_system``."""

    @staticmethod
    def losses(rate, temperature, mode_frequency=TWO_PI * 5e9):
        system = make_transfer_system(
            g_c=TWO_PI * 50e6,
            kappa=TWO_PI * 50e6,
            gamma_m=rate,
            gamma_lc=rate,
            temperature=temperature,
            mode_frequency=mode_frequency,
        )
        return system.gamma_m, system.gamma_lc

    def test_ground_state_unchanged(self):
        assert self.losses(TWO_PI * 100e3, 0.0) == (TWO_PI * 100e3,) * 2
        # a zero loss stays zero at any temperature, also where hbar w
        # underflows and n_bar is inf
        assert self.losses(0.0, 1.0) == (0.0, 0.0)
        assert self.losses(0.0, 0.05, mode_frequency=1e-300) == (0.0, 0.0)

    def test_benchmark(self):
        # 5 GHz at 50 mK: n_bar = 0.0083
        gamma_m, gamma_lc = self.losses(TWO_PI * 100e3, 0.05)
        assert gamma_m == gamma_lc == pytest.approx(TWO_PI * 100.83e3, rel=1e-4)

    def test_one_quantum_doubles(self):
        # n_bar = 1 where hbar w / kB T = ln 2
        omega = TWO_PI * 5e9
        gamma_m, _ = self.losses(3.0, HBAR * omega / (K_B * math.log(2.0)), omega)
        assert gamma_m == pytest.approx(6.0, rel=1e-12)
