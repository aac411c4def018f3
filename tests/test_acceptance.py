"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion (run with ``pytest -s``
to see them live) and asserts all of its sub-checks.

Criterion 1 checks the biased operating point through the relations the
documented force law promises: the bias V* that holds the nominal 2.4 nm
is computed in closed form from the force expressions, and the solver must
return a stable 2.4 nm +-10% / 5 GHz +-10% point there; at 3.3 V the solver
must land on the smallest root in [0, d) of the force-balance quintic,
evaluated independently with ``numpy.roots``.  The nominal pairing of
3.3 V with 2.4 nm is not asserted: under the documented law the restoring
force exceeds the attraction at 3.3 V over the whole 2.4 nm +-10% window,
so no correct solver lands there (3.3 V gives 2.04 nm / 4.39 GHz; see
README, "Known model discrepancies").
"""

import math
import time

import numpy as np
import pytest
from scipy.constants import epsilon_0
from scipy.linalg import expm

from transducer_sim import (
    ElectrostaticEnvironment,
    EmitterParams,
    cooperativity,
    electromechanical_coupling,
    integrate,
    make_transfer_system,
    matched_circuit,
    operating_point_at_deflection,
    solve_equilibrium,
    stark_coupling,
    strain_coupling,
    thermal_occupation,
)

from conftest import (
    TWO_PI,
    closed_eigensystem,
    closed_evolution,
    closed_generator,
    dense_generator,
    documented_stiffness,
    flexural_frequency,
    induced_tension,
    loaded,
    on_comb,
)

KAPPA = TWO_PI * 50e6
GAMMA = TWO_PI * 100e3
TEMPERATURE = 0.05

#: coupling rate (Hz) -> run duration (s); enough to saturate each transfer
TRANSFER_CASES = {5e6: 2.0e-6, 20e6: 400e-9, 50e6: 200e-9, 200e6: 120e-9}


def _report(number, title, checks):
    """Print one line for the criterion plus a detail line per sub-check."""
    ok = all(passed for _, passed, _ in checks)
    print(f"\nACCEPTANCE {number} [{title}]: {'PASS' if ok else 'FAIL'}")
    for name, passed, detail in checks:
        print(f"    {'pass' if passed else 'FAIL'} - {name}: {detail}")
    return [f"{name}: {detail}" for name, passed, detail in checks if not passed]


@pytest.fixture(scope="module")
def transfer_records():
    """The four benchmark trajectories, integrated once and shared."""
    t0 = time.perf_counter()
    records = {}
    for g_hz, duration in TRANSFER_CASES.items():
        system = make_transfer_system(
            g_c=TWO_PI * g_hz,
            kappa=KAPPA,
            gamma_m=GAMMA,
            gamma_lc=GAMMA,
            temperature=TEMPERATURE,
        )
        records[g_hz] = integrate(system, duration)
    records["elapsed"] = time.perf_counter() - t0
    return records


def _bias_holding(geom, gap, deflection):
    """Bias (V) whose parallel-plate pull balances the documented force at a deflection.

    V* = (d - x) sqrt(2 F(x) / (eps0 w l)).
    """
    k1, k3 = documented_stiffness(geom)
    force = k1 * deflection + k3 * deflection ** 3
    return (gap - deflection) * math.sqrt(
        2.0 * force / (epsilon_0 * geom.width * geom.length)
    )


def _quintic_root(geom, gap, voltage):
    """Smallest real root in [0, d) of (k1 x + k3 x^3)(d - x)^2 = eps0 w l V^2 / 2.

    Solved in nanometres (x = 1e-9 u) to keep the coefficients near unity.
    """
    k1, k3 = documented_stiffness(geom)
    nm = 1e-9
    dn = gap / nm
    rhs = epsilon_0 * geom.width * geom.length * voltage ** 2 / 2.0 / nm ** 3
    restoring = np.array([k3 * nm ** 2, 0.0, k1, 0.0])
    coefficients = np.polymul(restoring, np.array([1.0, -2.0 * dn, dn ** 2]))
    coefficients[-1] -= rhs
    roots = np.roots(coefficients)
    real = roots[np.abs(roots.imag) <= 1e-9 * np.abs(roots)].real
    return float(np.min(real[(real >= 0.0) & (real < dn)])) * nm


def test_criterion_1_mechanics_anchors(geometry):
    gap = 10e-9
    k1, k3 = documented_stiffness(geometry)
    v_nominal = _bias_holding(geometry, gap, 2.4e-9)
    x_quintic = _quintic_root(geometry, gap, 3.3)

    t0 = time.perf_counter()
    zero_bias = solve_equilibrium(
        geometry, ElectrostaticEnvironment(gap=gap, bias_voltage=0.0)
    )
    nominal = solve_equilibrium(
        geometry, ElectrostaticEnvironment(gap=gap, bias_voltage=v_nominal)
    )
    biased = solve_equilibrium(
        geometry, ElectrostaticEnvironment(gap=gap, bias_voltage=3.3)
    )
    elapsed = time.perf_counter() - t0

    f0 = zero_bias.mech_frequency / TWO_PI
    x_zpf = zero_bias.x_zpf
    x_nom = nominal.deflection
    # net stiffness d/dx [F_elastic - F_electrostatic] of the documented law
    stiffness_nom = (
        k1
        + 3.0 * k3 * x_nom ** 2
        - epsilon_0 * geometry.width * geometry.length * v_nominal ** 2
        / (gap - x_nom) ** 3
    )
    f_nom = nominal.mech_frequency / TWO_PI
    x_33 = biased.deflection
    f_33 = biased.mech_frequency / TWO_PI
    f_33_expected = (
        flexural_frequency(geometry, induced_tension(geometry, x_quintic)) / TWO_PI
    )
    checks = [
        (
            "zero-bias frequency 2.07 GHz +-5%",
            abs(f0 - 2.07e9) <= 0.05 * 2.07e9,
            f"{f0 / 1e9:.4f} GHz",
        ),
        (
            "zero-point amplitude in [0.10, 0.18] pm",
            0.10e-12 <= x_zpf <= 0.18e-12,
            f"{x_zpf * 1e12:.4f} pm",
        ),
        (
            f"deflection at V* = {v_nominal:.4f} V (the closed-form bias that "
            "holds 2.4 nm) = 2.4 nm +-10%, stable",
            abs(x_nom - 2.4e-9) <= 0.10 * 2.4e-9 and stiffness_nom > 0.0,
            f"{x_nom * 1e9:.4f} nm, net stiffness {stiffness_nom:.2f} N/m",
        ),
        (
            "frequency at V* = 5 GHz +-10%",
            abs(f_nom - 5e9) <= 0.10 * 5e9,
            f"{f_nom / 1e9:.4f} GHz",
        ),
        (
            "deflection at 3.3 V = smallest force-balance quintic root in [0, d) "
            "+-1e-8 rel (not 2.4 nm: the law has no root in that window at 3.3 V)",
            abs(x_33 - x_quintic) <= 1e-8 * x_quintic,
            f"{x_33 * 1e9:.6f} nm vs root {x_quintic * 1e9:.6f} nm",
        ),
        (
            "frequency at 3.3 V = flexural frequency at the root's tension +-1e-8 rel",
            abs(f_33 - f_33_expected) <= 1e-8 * f_33_expected,
            f"{f_33 / 1e9:.6f} GHz vs {f_33_expected / 1e9:.6f} GHz",
        ),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s"),
    ]
    failures = _report(1, "mechanics anchors", checks)
    assert not failures, "; ".join(failures)


def test_criterion_2_coupling_anchors(geometry):
    t0 = time.perf_counter()
    emitter = EmitterParams()

    env33 = ElectrostaticEnvironment(gap=10e-9, bias_voltage=3.3)
    op33 = solve_equilibrium(geometry, env33)
    circ33 = matched_circuit(geometry, op33, gap=10e-9)
    g_em = electromechanical_coupling(op33, circ33, geometry, env33)
    c_em = cooperativity(g_em, GAMMA, GAMMA)

    op4nm = operating_point_at_deflection(geometry, 4e-9)
    g_om1 = strain_coupling(op4nm, geometry, emitter)

    env25 = ElectrostaticEnvironment(gap=10e-9, bias_voltage=2.5)
    op25 = solve_equilibrium(geometry, env25)
    g_om2 = stark_coupling(op25, env25, emitter)
    c_om2 = cooperativity(g_om2, GAMMA, emitter.optical_decay)
    elapsed = time.perf_counter() - t0

    checks = [
        (
            "g_em at 3.3 V in [125, 500] MHz",
            125e6 <= g_em / TWO_PI <= 500e6,
            f"{g_em / TWO_PI / 1e6:.1f} MHz",
        ),
        (
            "electromechanical cooperativity within 3x of 6e6",
            6e6 / 3 <= c_em <= 6e6 * 3,
            f"{c_em:.3e}",
        ),
        (
            "strain coupling at 4 nm > 3 MHz",
            g_om1 / TWO_PI > 3e6,
            f"{g_om1 / TWO_PI / 1e6:.2f} MHz",
        ),
        (
            "Stark coupling at 2.5 V > 50 MHz",
            g_om2 / TWO_PI > 50e6,
            f"{g_om2 / TWO_PI / 1e6:.2f} MHz",
        ),
        (
            "Stark cooperativity within 2x of 500",
            250 <= c_om2 <= 1000,
            f"{c_om2:.1f}",
        ),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s"),
    ]
    failures = _report(2, "coupling anchors", checks)
    assert not failures, "; ".join(failures)


def test_criterion_3_thermal_occupation():
    n = thermal_occupation(TWO_PI * 5e9, 0.05)
    checks = [
        ("occupation(5 GHz, 50 mK) = 0.008 +-0.001", abs(n - 0.008) <= 1e-3, f"{n:.6f}")
    ]
    failures = _report(3, "thermal occupation", checks)
    assert not failures, "; ".join(failures)


def test_criterion_4_closed_dynamics():
    g_c = TWO_PI * 50e6
    t_swap = math.pi / (math.sqrt(2.0) * g_c)
    amplitudes = closed_evolution(g_c, t_swap)
    target = np.array([0.0, 0.0, -1.0], dtype=complex)
    amp_err = float(np.max(np.abs(amplitudes - target)))

    values, states = closed_eigensystem(g_c)
    h = closed_generator(g_c)
    residual = max(
        float(np.linalg.norm(h @ state - value * state)) / g_c
        for value, state in zip(values, states)
    )

    # the stepping core every run uses, lossless and decoupled from its comb
    y = integrate(make_transfer_system(g_c=g_c, kappa=0.0), t_swap).final_amplitudes
    run_err = float(np.max(np.abs(y[2::-1] - amplitudes)))
    checks = [
        ("complete swap amplitude error < 1e-10", amp_err < 1e-10, f"{amp_err:.2e}"),
        ("eigenpair residuals < 1e-12", residual < 1e-12, f"{residual:.2e}"),
        ("integrate at t_swap matches the closed form < 1e-6", run_err < 1e-6, f"{run_err:.2e}"),
    ]
    failures = _report(4, "closed-dynamics property", checks)
    assert not failures, "; ".join(failures)


def test_criterion_5_transfer_fidelities(transfer_records):
    expected_max = {5e6: 0.905, 20e6: 0.990, 50e6: 0.995, 200e6: 0.996}
    expected_t95 = {20e6: 45e-9, 50e6: 33e-9, 200e6: 30e-9}

    checks = []
    for g_hz, target in expected_max.items():
        f_max = transfer_records[g_hz].max_fidelity
        checks.append(
            (
                f"max fidelity at g={g_hz / 1e6:.0f} MHz = {target} +-0.01",
                abs(f_max - target) <= 0.01,
                f"{f_max:.4f}",
            )
        )
    for g_hz, target in expected_t95.items():
        record = transfer_records[g_hz]
        crossed = np.nonzero(record.fidelity >= 0.95)[0]
        t95 = float(record.times[crossed[0]]) if len(crossed) else math.inf
        checks.append(
            (
                f"time to F>0.95 at g={g_hz / 1e6:.0f} MHz = {target * 1e9:.0f} ns +-20%",
                abs(t95 - target) <= 0.2 * target,
                f"{t95 * 1e9:.1f} ns",
            )
        )
    # saturation: the first sample within 0.005 of the maximum fidelity
    record = transfer_records[5e6]
    t_sat = record.first_time(record.max_fidelity - 0.005)
    checks.append(
        (
            "time to maximum at g=5 MHz = 800 ns +-20%",
            abs(t_sat - 800e-9) <= 0.2 * 800e-9,
            f"{t_sat * 1e9:.0f} ns",
        )
    )
    elapsed = transfer_records["elapsed"]
    checks.append(("runtime of all four runs <= 2 min", elapsed <= 120.0, f"{elapsed:.1f} s"))
    failures = _report(5, "transfer fidelities", checks)
    assert not failures, "; ".join(failures)


def test_criterion_6_survival_probability(transfer_records):
    p_matched = float(transfer_records[50e6].survival[-1])
    p_slow = float(transfer_records[5e6].survival[-1])
    checks = [
        ("survival at g = kappa = 50 MHz > 0.99", p_matched > 0.99, f"{p_matched:.4f}"),
        ("survival at g = 5 MHz = 0.90 +-0.02", abs(p_slow - 0.90) <= 0.02, f"{p_slow:.4f}"),
    ]
    failures = _report(6, "survival probability", checks)
    assert not failures, "; ".join(failures)


def test_criterion_7_temperature_robustness():
    system = make_transfer_system(
        g_c=TWO_PI * 50e6,
        kappa=KAPPA,
        gamma_m=GAMMA,
        gamma_lc=GAMMA,
        temperature=1.0,
    )
    record = integrate(system, 50e-9)
    f_50ns = float(record.fidelity[-1])
    checks = [
        ("fidelity after 50 ns at 1 K > 0.95", f_50ns > 0.95, f"{f_50ns:.4f}")
    ]
    failures = _report(7, "temperature robustness", checks)
    assert not failures, "; ".join(failures)


def test_criterion_8_property_suite(transfer_records):
    checks = []

    # norm conservation with lossless mechanics/circuit over 1 us
    lossless = on_comb(make_transfer_system(g_c=TWO_PI * 50e6, kappa=KAPPA), 0.5e6, 1000)
    record0 = integrate(lossless, 1e-6, record_every=10)
    drift = float(np.max(np.abs(record0.survival - 1.0)))
    checks.append(("norm drift < 1e-8 over 1 us, zero losses", drift < 1e-8, f"{drift:.2e}"))

    # partition identity and monotonicity on the benchmark trajectory
    record = transfer_records[50e6]
    partition = float(
        np.max(
            np.abs(
                record.p_emitter
                + record.p_phonon
                + record.p_circuit
                + record.fidelity
                - record.survival
            )
        )
    )
    checks.append(("partition identity to 1e-12", partition < 1e-12, f"{partition:.2e}"))

    drawdown = float(np.max(np.maximum.accumulate(record.fidelity) - record.fidelity))
    checks.append(
        (
            "fidelity nondecreasing (reabsorption ripple < 1e-4)",
            drawdown < 1e-4,
            f"max drawdown {drawdown:.2e}",
        )
    )
    survival_rise = float(np.max(np.diff(record.survival)))
    checks.append(
        ("survival nonincreasing", survival_rise < 1e-12, f"max rise {survival_rise:.2e}")
    )

    # halving the spacing while doubling the count leaves the result unchanged
    halved = on_comb(
        make_transfer_system(
            g_c=TWO_PI * 50e6,
            kappa=KAPPA,
            gamma_m=GAMMA,
            gamma_lc=GAMMA,
            temperature=TEMPERATURE,
        ),
        0.5e6,
        1000,
    )
    f_halved = integrate(halved, 200e-9).max_fidelity
    disc_shift = abs(f_halved - record.max_fidelity)
    checks.append(
        ("discretization halving shifts max fidelity < 1e-3", disc_shift < 1e-3, f"{disc_shift:.2e}")
    )

    # dense matrix-exponential oracle on the full 503-dimensional generator
    system = make_transfer_system(
        g_c=TWO_PI * 50e6,
        kappa=KAPPA,
        gamma_m=GAMMA,
        gamma_lc=GAMMA,
        temperature=TEMPERATURE,
    )
    t_end = 50e-9
    oracle = expm(dense_generator(system) * t_end) @ loaded(system)
    fixed_step = integrate(system, t_end).final_amplitudes
    deviation = float(np.max(np.abs(fixed_step - oracle)))
    checks.append(
        ("matrix-exponential oracle agreement < 1e-6", deviation < 1e-6, f"{deviation:.2e}")
    )

    # bit-identical determinism
    again = integrate(system, t_end).final_amplitudes
    identical = np.array_equal(fixed_step, again)
    checks.append(("bit-identical rerun", identical, "exact match" if identical else "diverged"))

    failures = _report(8, "property suite", checks)
    assert not failures, "; ".join(failures)
