import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from transducer_sim import (
    ConfigError,
    StepSizeError,
    TransferSystem,
    closed_eigensystem,
    closed_evolution,
    closed_generator,
    default_discretization,
    default_timestep,
    integrate,
    make_transfer_system,
    thermal_occupation,
)
from transducer_sim.dynamics import (
    MAX_MODE_COUNT,
    MAX_STEPS,
    _advance,
    max_timestep,
    step_plan,
)

from conftest import TWO_PI

G50 = TWO_PI * 50e6
KAPPA50 = TWO_PI * 50e6
GAMMA = TWO_PI * 100e3


def benchmark_system(**overrides):
    """Matched 50 MHz couplings, 50 MHz decay, 100 kHz losses at 50 mK."""
    kwargs = dict(
        g_c=G50,
        kappa=KAPPA50,
        gamma_m=GAMMA,
        gamma_lc=GAMMA,
        mode_spacing=TWO_PI * 1e6,
        mode_count=500,
        temperature=0.05,
    )
    kwargs.update(overrides)
    return make_transfer_system(**kwargs)


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


def markov_fidelity(system, t):
    """Emitted photon F(t) = kappa int_0^t |c1|^2 in the continuum (Markov) limit.

    The comb is replaced by a decay -kappa/2 on the emitter (Gardiner &
    Collett 1985), leaving a 3x3 generator M = V diag(lam) V^-1; with
    c1(t) = sum_k a_k exp(lam_k t) the integral is a double sum in closed form.
    """
    m = dense_generator(system)[:3, :3]
    m[0, 0] = -0.5 * system.kappa
    lam, v = np.linalg.eig(m)
    a = v[0] * np.linalg.solve(v, [0.0, 0.0, 1.0])
    s = lam[:, None] + lam.conj()[None, :]
    return system.kappa * np.real(np.sum(np.outer(a, a.conj()) * np.expm1(s * t) / s))


class TestClosedEvolution:
    def test_initial_condition(self):
        c = closed_evolution(G50, 0.0)
        assert np.allclose(c, [1.0, 0.0, 0.0], atol=1e-15)

    def test_complete_transfer(self):
        t_swap = math.pi / (math.sqrt(2.0) * G50)
        c = closed_evolution(G50, t_swap)
        assert abs(c[0]) < 1e-10
        assert abs(c[1]) < 1e-10
        assert abs(c[2] + 1.0) < 1e-10

    def test_half_transfer_through_phonon(self):
        t_half = math.pi / (2.0 * math.sqrt(2.0) * G50)
        c = closed_evolution(G50, t_half)
        assert abs(c[1]) ** 2 == pytest.approx(0.5, abs=1e-12)

    @given(
        st.floats(min_value=1e5, max_value=1e10),
        st.floats(min_value=0.0, max_value=1e-5),
    )
    @settings(max_examples=100)
    def test_norm_is_one(self, g_c, t):
        c = closed_evolution(g_c, t)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            closed_evolution(0.0, 1e-9)
        with pytest.raises(ValueError):
            closed_evolution(G50, -1e-9)


class TestClosedEigensystem:
    def test_eigenpairs(self):
        sys3 = closed_eigensystem(G50)
        h = closed_generator(G50)
        for value, state in zip(sys3.eigenvalues, sys3.eigenstates):
            residual = np.linalg.norm(h @ state - value * state) / G50
            assert residual < 1e-12

    def test_orthonormal(self):
        states = closed_eigensystem(G50).eigenstates
        gram = states.conj() @ states.T
        assert np.allclose(gram, np.eye(3), atol=1e-14)

    def test_eigenvalues(self):
        values = closed_eigensystem(G50).eigenvalues
        root2 = math.sqrt(2.0) * G50
        assert values == pytest.approx([-root2, root2, 0.0], rel=1e-15)


class TestSystemConstruction:
    def test_published_discretizations_are_valid(self):
        make_transfer_system(
            g_c=TWO_PI * 5e6, kappa=KAPPA50,
            mode_spacing=TWO_PI * 0.25e6, mode_count=2000,
        )
        make_transfer_system(
            g_c=G50, kappa=KAPPA50, mode_spacing=TWO_PI * 1e6, mode_count=500
        )

    def test_narrow_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            make_transfer_system(
                g_c=G50, kappa=KAPPA50, mode_spacing=TWO_PI * 1e6, mode_count=100
            )

    def test_default_discretization_tiers(self):
        assert default_discretization(TWO_PI * 5e6, KAPPA50) == (TWO_PI * 0.25e6, 2000)
        assert default_discretization(G50, KAPPA50) == (TWO_PI * 1e6, 500)
        spacing, count = default_discretization(TWO_PI * 200e6, KAPPA50)
        assert spacing == TWO_PI * 1e6
        # comb must cover the split emission lines at +-sqrt(2) g
        assert count * spacing / 2 > math.sqrt(2) * TWO_PI * 200e6

    def test_default_discretization_respects_kappa_guard(self):
        kappa = TWO_PI * 80e6
        spacing, count = default_discretization(kappa, kappa)
        assert count * spacing / 2 >= 5 * kappa * (1 - 1e-12)
        make_transfer_system(  # constructor accepts it
            g_c=kappa, kappa=kappa, mode_spacing=spacing, mode_count=count
        )

    def test_kappa_prime(self):
        system = benchmark_system()
        assert system.kappa_prime == pytest.approx(
            math.sqrt(system.kappa * system.mode_spacing / TWO_PI), rel=1e-15
        )

    def test_thermal_factors_applied(self):
        cold = benchmark_system(temperature=0.0)
        warm = benchmark_system(temperature=0.05)
        enhancement = 1.0 + thermal_occupation(TWO_PI * 5e9, 0.05)
        assert warm.gamma_m == pytest.approx(cold.gamma_m * enhancement, rel=1e-12)
        assert warm.gamma_lc == pytest.approx(cold.gamma_lc * enhancement, rel=1e-12)
        assert warm.kappa == cold.kappa  # optical occupation is zero

    def test_oversized_comb_rejected(self):
        TransferSystem(
            g_om=G50, g_em=G50, kappa=0.0, gamma_m=0.0, gamma_lc=0.0,
            mode_spacing=TWO_PI * 1e6, mode_count=MAX_MODE_COUNT,
        )
        with pytest.raises(ConfigError, match="mode_count"):
            TransferSystem(
                g_om=G50, g_em=G50, kappa=0.0, gamma_m=0.0, gamma_lc=0.0,
                mode_spacing=TWO_PI * 1e6, mode_count=MAX_MODE_COUNT + 1,
            )
        # the default comb for a rate of 1e300 Hz asks for ~1e295 modes
        with pytest.raises(ConfigError, match="mode_count"):
            make_transfer_system(g_c=TWO_PI * 1e300, kappa=KAPPA50)

    @pytest.mark.parametrize(
        "rates",
        [
            dict(g_c=math.inf, kappa=KAPPA50),
            dict(g_c=G50, kappa=math.inf),
            dict(g_c=G50, kappa=KAPPA50, gamma_m=math.inf),
            dict(g_c=G50, kappa=KAPPA50, gamma_lc=math.nan),
            # a finite rate whose (n + 1) factor overflows: n is inf when
            # hbar w underflows
            dict(g_c=G50, kappa=KAPPA50, gamma_m=GAMMA, mode_frequency=1e-300,
                 temperature=0.05),
        ],
    )
    def test_non_finite_rates_rejected(self, rates):
        with pytest.raises(ConfigError, match="finite"):
            make_transfer_system(mode_spacing=TWO_PI * 1e6, mode_count=500, **rates)

    def test_non_finite_bandwidth_rejected(self):
        # 500 modes at 1e307 Hz are finite one by one but overflow as a comb
        for spacing in (TWO_PI * 1e307, math.inf):
            with pytest.raises(ConfigError, match="bandwidth"):
                make_transfer_system(
                    g_c=G50, kappa=KAPPA50, mode_spacing=spacing, mode_count=500
                )

    @pytest.mark.parametrize(
        "g_max, kappa",
        [(G50, TWO_PI * 1e307), (G50, math.inf), (math.inf, KAPPA50),
         (G50, TWO_PI * 1e12)],
    )
    def test_default_discretization_refuses_oversized_comb(self, g_max, kappa):
        # refused from the float count, before math.ceil sees an inf
        with pytest.raises(ConfigError, match="mode_count"):
            default_discretization(g_max, kappa)


class TestStep:
    def test_first_order_response(self):
        system = benchmark_system(temperature=0.0)
        dt = default_timestep(system)
        y, _ = _advance(system, loaded(system), dt, 1)
        # from c3 = 1, the phonon picks up -i g dt to first order
        assert y[1] == pytest.approx(-1j * system.g_em * dt, rel=5e-3)

    def test_step_count_is_bounded(self):
        # 0.03 / (0.03 * 2^40) is exactly 2^-40, so dt * MAX_STEPS is exact
        g = 0.03 * 2.0 ** 40
        system = TransferSystem(
            g_om=g, g_em=g, kappa=0.0, gamma_m=0.0, gamma_lc=0.0,
            mode_spacing=TWO_PI * 1e6, mode_count=500,
        )
        dt = default_timestep(system)
        assert dt == 2.0 ** -40
        assert step_plan(system, dt * MAX_STEPS) == (MAX_STEPS, dt)
        with pytest.raises(StepSizeError, match="steps"):
            step_plan(system, dt * (MAX_STEPS + 1))

    def test_comb_rotation_is_exact(self):
        # without optical coupling each mode only rotates, at any step size
        system = make_transfer_system(
            g_c=G50, kappa=0.0, mode_spacing=TWO_PI * 1e6, mode_count=500
        )
        rng = np.random.default_rng(7)
        y = np.zeros(system.size, dtype=complex)
        y[2] = 1.0
        y[3:] = rng.normal(size=500) + 1j * rng.normal(size=500)
        dt = max_timestep(system)
        got, _ = _advance(system, y, dt, 1)
        expected = np.exp(-1j * system.detunings * dt) * y[3:]
        assert np.max(np.abs(got[3:] - expected)) < 1e-14

    def test_closed_limit_matches_analytic(self):
        # no decay at all: the three-state exchange, photon modes inert
        system = make_transfer_system(
            g_c=G50, kappa=0.0, mode_spacing=TWO_PI * 1e6, mode_count=64
        )
        period = TWO_PI / (math.sqrt(2.0) * G50)
        y = integrate(system, period).final_amplitudes
        analytic = closed_evolution(G50, period)
        assert abs(y[2] - analytic[0]) < 1e-6
        assert abs(y[1] - analytic[1]) < 1e-6
        assert abs(y[0] - analytic[2]) < 1e-6


class TestAgainstDensePropagator:
    def test_trajectory_matches_matrix_exponential(self):
        system = benchmark_system(mode_count=200, mode_spacing=TWO_PI * 2.5e6)
        t_end = 50e-9
        record = integrate(system, t_end)
        oracle = expm(dense_generator(system) * t_end) @ loaded(system)
        deviation = np.max(np.abs(record.final_amplitudes - oracle))
        assert deviation < 1e-6

    def test_widest_comb_matches_matrix_exponential(self):
        # 200 MHz tier: 2000 modes, the comb whose bandwidth once set the step
        system = benchmark_system(
            g_c=TWO_PI * 200e6, mode_spacing=None, mode_count=None
        )
        assert system.mode_count == 2000
        t_end = 20e-9
        record = integrate(system, t_end)
        oracle = expm_multiply(
            csr_matrix(dense_generator(system)) * t_end,
            loaded(system),
        )
        deviation = np.max(np.abs(record.final_amplitudes - oracle))
        assert deviation < 1e-6

    @pytest.mark.parametrize(
        "loss_hz, temperature", [(1e9, 0.05), (1e10, 0.05), (1e12, 0.05), (100e3, 1e5)]
    )
    def test_fidelity_under_strong_loss_matches_matrix_exponential(
        self, loss_hz, temperature
    ):
        # both losses far above the couplings, or thermally enhanced to
        # them at 1e5 K: they sit in the integrating factor and bound no
        # step (one such loss with the other small is a known limit, README)
        system = benchmark_system(
            mode_count=200,
            mode_spacing=TWO_PI * 2.5e6,
            gamma_m=TWO_PI * loss_hz,
            gamma_lc=TWO_PI * loss_hz,
            temperature=temperature,
        )
        t_end = 50e-9
        record = integrate(system, t_end)
        oracle = expm(dense_generator(system) * t_end) @ loaded(system)
        f_oracle = float(np.sum(np.abs(oracle[3:]) ** 2))
        assert abs(record.fidelity[-1] - f_oracle) < 1e-6


class TestLossAndThermalSurface:
    @given(
        gamma_m_hz=st.just(0.0) | st.floats(0.0, 12.0).map(lambda e: 10.0 ** e),
        gamma_lc_hz=st.just(0.0) | st.floats(0.0, 12.0).map(lambda e: 10.0 ** e),
        temperature=st.just(0.0) | st.floats(-3.0, 5.0).map(lambda e: 10.0 ** e),
    )
    @settings(max_examples=60, deadline=None)
    def test_populations_bounded_and_survival_nonincreasing(
        self, gamma_m_hz, gamma_lc_hz, temperature
    ):
        system = make_transfer_system(
            g_c=G50,
            kappa=KAPPA50,
            gamma_m=TWO_PI * gamma_m_hz,
            gamma_lc=TWO_PI * gamma_lc_hz,
            temperature=temperature,
        )
        record = integrate(system, 20e-9)
        populations = np.array(
            [
                record.p_emitter,
                record.p_phonon,
                record.p_circuit,
                record.survival,
                record.fidelity,
            ]
        )
        assert np.all(np.isfinite(populations))
        assert np.all((populations >= 0.0) & (populations <= 1.0 + 1e-8))
        # no sample rises above an earlier one by more than the norm-drift gate
        survival = record.survival
        assert np.all(survival <= np.minimum.accumulate(survival) + 1e-8)


class TestMarkovLimit:
    def test_comb_converges_as_half_bandwidth_grows(self):
        # the comb's gap to the continuum limit is set by its half-bandwidth
        # (250, 500, 1000 MHz at 1 MHz spacing) and falls as its inverse
        t_end = 150e-9

        def gap(spacing_hz, count):
            system = benchmark_system(
                mode_spacing=TWO_PI * spacing_hz, mode_count=count
            )
            record = integrate(system, t_end)
            return abs(record.fidelity[-1] - markov_fidelity(system, t_end))

        gaps = [gap(1e6, count) for count in (500, 1000, 2000)]
        assert gaps[0] < 5e-4
        for wide, wider in zip(gaps, gaps[1:]):
            assert wide / wider == pytest.approx(2.0, rel=0.1)
        # refining the spacing at a fixed half-bandwidth leaves it unchanged
        assert abs(gap(0.5e6, 1000) - gaps[0]) < 1e-6


@pytest.fixture(scope="module")
def record():
    return integrate(benchmark_system(), 150e-9)


class TestObservables:
    def test_initial_state_normalised(self, record):
        assert record.times[0] == 0.0
        assert record.survival[0] == 1.0
        assert record.fidelity[0] == 0.0
        assert record.p_circuit[0] == 1.0

    def test_survival_above_99_percent(self, record):
        assert record.survival[-1] > 0.99

    def test_fidelity_saturates_at_quoted_value(self, record):
        assert record.max_fidelity == pytest.approx(0.995, abs=0.01)

    def test_partition_identity(self, record):
        total = (
            record.p_emitter + record.p_phonon + record.p_circuit + record.fidelity
        )
        assert np.max(np.abs(total - record.survival)) < 1e-12

    def test_survival_nonincreasing(self, record):
        assert np.all(np.diff(record.survival) < 1e-12)

    def test_fidelity_nondecreasing_up_to_reabsorption_ripple(self, record):
        drawdown = np.max(np.maximum.accumulate(record.fidelity) - record.fidelity)
        assert drawdown < 1e-4

    def test_pulse_spectrum(self, record):
        # the photon-mode populations versus detuning
        system = benchmark_system()
        weights = np.abs(record.final_amplitudes[3:]) ** 2
        assert len(weights) == len(system.detunings) == system.mode_count
        assert weights.sum() == pytest.approx(record.fidelity[-1], abs=1e-12)
        peak = system.detunings[np.argmax(weights)]
        assert abs(peak) < system.kappa  # single peak near zero detuning

    def test_spectrum_empty_at_start(self):
        y = integrate(benchmark_system(), 0.0).final_amplitudes
        assert np.all(y[3:] == 0.0)


class TestTimeToFidelity:
    def test_benchmark_crossing(self, record):
        assert record.first_time(0.95) == pytest.approx(33e-9, rel=0.2)

    def test_same_steps_as_integrate(self, record):
        # recorded at every step, the crossing lands on the step grid
        t95 = record.first_time(0.95)
        first = np.flatnonzero(record.fidelity >= 0.95)[0]
        assert t95 == record.times[first]
        assert record.fidelity[first - 1] < 0.95
        n_steps, dt = step_plan(benchmark_system(), 150e-9)
        assert len(record.times) == n_steps + 1
        assert t95 / dt == pytest.approx(first, abs=1e-6)

    def test_unreachable_threshold(self, record):
        assert math.isnan(record.first_time(0.999))
        assert 0.99 < record.max_fidelity < 0.999


class TestIntegrate:
    def test_zero_duration(self):
        record = integrate(benchmark_system(), 0.0)
        assert len(record.times) == 1
        assert record.survival[0] == 1.0
        assert record.fidelity[0] == 0.0

    def test_revival_guard(self):
        system = benchmark_system()  # revival at 1 us for 1 MHz spacing
        with pytest.raises(ConfigError):
            integrate(system, 1.5e-6)

    def test_deterministic_reruns(self):
        a = integrate(benchmark_system(), 40e-9)
        b = integrate(benchmark_system(), 40e-9)
        assert np.array_equal(a.final_amplitudes, b.final_amplitudes)
        assert np.array_equal(a.fidelity, b.fidelity)

    def test_saturation_time_helper(self, record):
        # saturation: the first sample within 0.005 of the maximum
        t_sat = record.first_time(record.max_fidelity - 0.005)
        assert 0 < t_sat < 150e-9
        idx = np.searchsorted(record.times, t_sat)
        assert record.fidelity[idx] >= record.max_fidelity - 0.005
