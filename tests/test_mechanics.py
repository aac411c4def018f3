import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.constants import epsilon_0

from transducer_sim import (
    ElectrostaticEnvironment,
    MembraneGeometry,
    PullInError,
    elastic_force,
    operating_point_at_deflection,
    pull_in_deflection,
    solve_equilibrium,
)
from transducer_sim import mechanics
from transducer_sim.mechanics import _fold, _stable_root, bias_for_deflection

from conftest import (
    TWO_PI,
    documented_stiffness,
    electrostatic_force,
    flexural_frequency,
    induced_tension,
    net_stiffness,
    reference_fold,
    reference_root,
    zero_point_amplitude,
)


def replace_geometry(geom, **kwargs):
    return geom._replace(**kwargs)


class TestFlexuralFrequency:
    def test_zero_bias_anchor(self, geometry):
        # reported design frequency ~2.07 GHz for this stack; the default
        # density lands at 2.020 GHz, inside the 5% window
        f = flexural_frequency(geometry, geometry.pre_tension) / TWO_PI
        assert f == pytest.approx(2.07e9, rel=0.05)
        assert f == pytest.approx(2.020043198e9, rel=1e-9)  # regression pin

    def test_plate_limit_doubling_thickness_doubles_frequency(self, geometry):
        thin = replace_geometry(geometry, thickness=2e-9)
        thick = replace_geometry(geometry, thickness=4e-9)
        ratio = flexural_frequency(thick, 0.0) / flexural_frequency(thin, 0.0)
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_membrane_limit_quadrupled_tension_doubles_frequency(self, geometry):
        # 1 mN of tension swamps the bending term by ~4 orders of magnitude
        big_t = 1e-3
        ratio = flexural_frequency(geometry, 4 * big_t) / flexural_frequency(
            geometry, big_t
        )
        assert ratio == pytest.approx(2.0, rel=1e-3)

    def test_monotone_in_tension(self, geometry):
        freqs = [flexural_frequency(geometry, t) for t in (0.0, 1e-9, 1e-8, 1e-7, 1e-6)]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))

    def test_thickness_crossover(self, geometry):
        # tension-dominated slope -1/2 for vanishing h, plate slope +1 for
        # thick sheets, with an interior frequency minimum between
        def slope(h):
            g1 = replace_geometry(geometry, thickness=h)
            g2 = replace_geometry(geometry, thickness=h * 1.01)
            f1 = flexural_frequency(g1, geometry.pre_tension)
            f2 = flexural_frequency(g2, geometry.pre_tension)
            return math.log(f2 / f1) / math.log(1.01)

        assert slope(1e-12) == pytest.approx(-0.5, abs=0.01)
        assert slope(1e-6) == pytest.approx(1.0, abs=0.01)

        hs = [0.3e-9 * (100 / 0.3) ** (i / 59) for i in range(60)]
        fs = [
            flexural_frequency(replace_geometry(geometry, thickness=h), geometry.pre_tension)
            for h in hs
        ]
        i_min = fs.index(min(fs))
        assert 0 < i_min < len(fs) - 1

    def test_rejects_negative_tension(self, geometry):
        with pytest.raises(ValueError):
            flexural_frequency(geometry, -1e-9)

    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            MembraneGeometry(length=0, width=1e-6, thickness=1e-9, youngs_modulus=1e12)
        with pytest.raises(ValueError):
            MembraneGeometry(
                length=1e-7, width=1e-6, thickness=-1e-9, youngs_modulus=1e12
            )
        with pytest.raises(ValueError):
            MembraneGeometry(
                length=1e-7, width=1e-6, thickness=1e-9, youngs_modulus=1e12,
                density=-1.0,
            )


class TestElasticForce:
    def test_zero_deflection(self, geometry):
        assert elastic_force(geometry, 0.0) == 0.0

    def test_benchmark_deflection(self, geometry):
        # hand evaluation: linear stiffness 30.78 + 1.12 N/m, cubic
        # 2.204e18 N/m^3, at 2.4 nm -> 7.656e-8 + 3.047e-8 N
        assert elastic_force(geometry, 2.4e-9) == pytest.approx(1.0703e-7, rel=1e-3)

    def test_linear_regime(self, geometry):
        small = 1e-13
        ratio = elastic_force(geometry, 2 * small) / elastic_force(geometry, small)
        assert ratio == pytest.approx(2.0, rel=1e-6)

    def test_rejects_negative_deflection(self, geometry):
        with pytest.raises(ValueError):
            elastic_force(geometry, -1e-10)

    @given(
        st.floats(min_value=1e-12, max_value=9e-9),
        st.floats(min_value=1.0001, max_value=10.0),
    )
    @settings(max_examples=50)
    def test_strictly_increasing(self, delta, factor):
        geom = MembraneGeometry(
            length=110e-9, width=1e-6, thickness=1.1e-9, youngs_modulus=1000e9
        )
        assert elastic_force(geom, delta * factor) > elastic_force(geom, delta)


class TestElectrostaticForce:
    def test_zero_bias(self, geometry):
        env = ElectrostaticEnvironment(gap=10e-9, bias_voltage=0.0)
        assert electrostatic_force(env, geometry, 1e-9) == 0.0

    def test_benchmark_point(self, geometry, environment):
        # hand evaluation: eps0*w*l*V^2 / (2*(7.6 nm)^2)
        assert electrostatic_force(environment, geometry, 2.4e-9) == pytest.approx(
            9.181e-8, rel=1e-3
        )

    def test_quadratic_in_voltage(self, geometry):
        low = ElectrostaticEnvironment(gap=10e-9, bias_voltage=1.1)
        high = ElectrostaticEnvironment(gap=10e-9, bias_voltage=2.2)
        ratio = electrostatic_force(high, geometry, 2e-9) / electrostatic_force(
            low, geometry, 2e-9
        )
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_contact_rejected(self, geometry, environment):
        with pytest.raises(ValueError):
            electrostatic_force(environment, geometry, 10e-9)
        with pytest.raises(ValueError):
            electrostatic_force(environment, geometry, 11e-9)


class TestNetStiffness:
    def test_matches_central_difference_of_net_force(self, geometry, environment):
        x, h = 2.4e-9, 1e-13

        def net(z):
            return elastic_force(geometry, z) - electrostatic_force(environment, geometry, z)

        slope = (net(x + h) - net(x - h)) / (2 * h)
        assert net_stiffness(geometry, environment, x) == pytest.approx(slope, rel=1e-6)

    def test_solved_equilibrium_is_stable(self, geometry, environment):
        op = solve_equilibrium(geometry, environment)
        assert net_stiffness(geometry, environment, op.deflection) > 0

    def test_contact_rejected(self, geometry, environment):
        with pytest.raises(ValueError):
            net_stiffness(geometry, environment, environment.gap)


class TestInducedTension:
    def test_undeflected(self, geometry):
        assert induced_tension(geometry, 0.0) == geometry.pre_tension

    def test_benchmark_deflection(self, geometry):
        # strain 2 x0^2 / l^2 = 9.52e-4 at 2.4 nm; T = T0 + Y w h S
        t = induced_tension(geometry, 2.4e-9)
        assert t == pytest.approx(1.057e-6, rel=1e-3)
        strain = (t - geometry.pre_tension) / (
            geometry.youngs_modulus * geometry.width * geometry.thickness
        )
        assert strain == pytest.approx(9.52e-4, rel=1e-3)
        # the tension that retunes the mode to the 5 GHz target
        f = flexural_frequency(geometry, t) / TWO_PI
        assert f == pytest.approx(5.0e9, rel=0.01)


class TestSolveEquilibrium:
    def test_zero_bias(self, geometry):
        env = ElectrostaticEnvironment(gap=10e-9, bias_voltage=0.0)
        op = solve_equilibrium(geometry, env)
        assert op.deflection == 0.0
        assert op.tension == geometry.pre_tension
        assert op.mech_frequency / TWO_PI == pytest.approx(2.02e9, rel=1e-3)
        # 0 V goes through the root solve like any bias; its root is u = 0
        assert op == operating_point_at_deflection(geometry, 0.0)

    def test_benchmark_bias(self, geometry, environment):
        op = solve_equilibrium(geometry, environment)
        # root of the documented force law; see README for the offset from
        # the nominal 2.4 nm figure
        assert op.deflection == pytest.approx(2.0377e-9, rel=1e-4)
        assert 0.0 <= op.deflection < environment.gap
        assert op.tension >= geometry.pre_tension
        residual = abs(
            elastic_force(geometry, op.deflection)
            - electrostatic_force(environment, geometry, op.deflection)
        )
        assert residual < 1e-15

    def test_operating_point_invariants(self, geometry, environment):
        op = solve_equilibrium(geometry, environment)
        assert op.x_zpf == pytest.approx(
            zero_point_amplitude(geometry.effective_mass, op.mech_frequency), rel=1e-15
        )
        assert op.tension == pytest.approx(
            induced_tension(geometry, op.deflection), rel=1e-15
        )

    def test_deflection_monotone_in_voltage(self, geometry):
        voltages = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.3, 4.0, 4.5]
        deflections = [
            solve_equilibrium(
                geometry, ElectrostaticEnvironment(gap=10e-9, bias_voltage=v)
            ).deflection
            for v in voltages
        ]
        assert all(a < b for a, b in zip(deflections, deflections[1:]))

    def test_frequency_continuous_and_increasing_with_bias(self, geometry):
        voltages = [3.3 * i / 33 for i in range(34)]
        freqs = [
            solve_equilibrium(
                geometry, ElectrostaticEnvironment(gap=10e-9, bias_voltage=v)
            ).mech_frequency
            for v in voltages
        ]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))
        # no jumps: 0.1 V steps move the frequency by well under 10%
        assert all(b / a < 1.10 for a, b in zip(freqs, freqs[1:]))

    def test_pull_in_raises(self, geometry):
        with pytest.raises(PullInError):
            solve_equilibrium(
                geometry, ElectrostaticEnvironment(gap=10e-9, bias_voltage=6.0)
            )

    def test_pull_in_voltage_by_bisection(self, geometry):
        # oracle: scan the solver itself for the stability boundary
        def solvable(v):
            try:
                solve_equilibrium(
                    geometry, ElectrostaticEnvironment(gap=10e-9, bias_voltage=v)
                )
                return True
            except PullInError:
                return False

        lo, hi = 3.0, 8.0
        assert solvable(lo) and not solvable(hi)
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if solvable(mid):
                lo = mid
            else:
                hi = mid
        v_critical = 0.5 * (lo + hi)
        assert v_critical == pytest.approx(4.750, abs=5e-3)

    def test_pull_in_edge_is_exact(self, geometry):
        # in u = x/d the balance reads (u + a u^3)(1 - u)^2 = b with
        # b proportional to V^2; pull-in is at its maximum, the root of the
        # quartic derivative in (0, 1)
        gap = 10e-9
        k1, k3 = documented_stiffness(geometry)
        balance = np.polymul([k3 * gap ** 2 / k1, 0.0, 1.0, 0.0], [1.0, -2.0, 1.0])
        turning = np.roots(np.polyder(balance))
        u_star = min(
            u.real for u in turning if abs(u.imag) <= 1e-12 and 0.0 < u.real < 1.0
        )
        v_star = math.sqrt(
            2.0 * k1 * gap ** 3 * np.polyval(balance, u_star)
            / (epsilon_0 * geometry.width * geometry.length)
        )
        assert v_star == pytest.approx(4.750, abs=5e-3)

        below = ElectrostaticEnvironment(gap=gap, bias_voltage=v_star * (1 - 1e-9))
        op = solve_equilibrium(geometry, below)
        assert op.deflection == pytest.approx(u_star * gap, abs=0.01e-9)
        assert net_stiffness(geometry, below, op.deflection) > 0
        above = ElectrostaticEnvironment(gap=gap, bias_voltage=v_star * (1 + 1e-9))
        with pytest.raises(PullInError):
            solve_equilibrium(geometry, above)

    def test_bias_for_deflection_inverts_the_balance(self, geometry):
        # up to the pull-in deflection 5.39 nm the balance is one-to-one
        for x in (0.5e-9, 2.4e-9, 5.0e-9):
            v = bias_for_deflection(geometry, 10e-9, x)
            env = ElectrostaticEnvironment(gap=10e-9, bias_voltage=v)
            assert solve_equilibrium(geometry, env).deflection == pytest.approx(
                x, rel=1e-12
            )
        assert bias_for_deflection(geometry, 10e-9, 0.0) == 0.0
        with pytest.raises(ValueError):
            bias_for_deflection(geometry, 10e-9, 10e-9)

    @given(
        st.floats(min_value=0.001, max_value=4.74),
        st.floats(min_value=0.3e-9, max_value=100e-9),
    )
    @settings(max_examples=100, deadline=None)
    def test_solved_points_balance_and_are_stable(self, geometry, voltage, thickness):
        geom = replace_geometry(geometry, thickness=thickness)
        env = ElectrostaticEnvironment(gap=10e-9, bias_voltage=voltage)
        try:
            op = solve_equilibrium(geom, env)
        except PullInError:
            return
        restoring = elastic_force(geom, op.deflection)
        residual = abs(restoring - electrostatic_force(env, geom, op.deflection))
        assert residual < 1e-12 * restoring
        assert net_stiffness(geom, env, op.deflection) > 0

    @given(
        st.floats(min_value=1e-100, max_value=1.0 - 1e-6),
        st.floats(min_value=0.3e-9, max_value=100e-9),
    )
    @settings(max_examples=100, deadline=None)
    def test_continuous_in_bias_up_to_pull_in(self, geometry, fraction, thickness):
        # V = fraction * V*; a root on the unstable branch would fall with V
        # and carry a negative net stiffness.  The deflection goes as V^2, so
        # fractions far below 1e-100 would underflow it to 0.
        geom = replace_geometry(geometry, thickness=thickness)
        gap = 10e-9
        k1, k3 = documented_stiffness(geom)
        _, f_top = reference_fold(k3 * gap ** 2 / k1)
        plates = epsilon_0 * geom.width * geom.length
        v_star = math.sqrt(2.0 * k1 * gap ** 3 * f_top / plates)
        v = fraction * v_star

        def deflection(bias):
            env = ElectrostaticEnvironment(gap=gap, bias_voltage=bias)
            return solve_equilibrium(geom, env).deflection

        # the slope grows as (V* - V)^(-1/2) toward pull-in, so the step is
        # 1e-6 of the distance to it where that is shorter than 1e-6 V
        dv = 1e-6 * min(v, v_star - v)
        x = deflection(v)
        rise = deflection(v + dv) - x
        assert rise > 0.0
        env = ElectrostaticEnvironment(gap=gap, bias_voltage=v)
        slope = plates * v / (gap - x) ** 2 / net_stiffness(geom, env, x)
        assert rise / dv == pytest.approx(slope, rel=1e-3)


class TestPullInDeflection:
    @given(
        st.floats(min_value=0.3e-9, max_value=100e-9),
        st.floats(min_value=1e-9, max_value=1000e-9),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_fold(self, geometry, thickness, gap):
        geom = replace_geometry(geometry, thickness=thickness)
        k1, k3 = documented_stiffness(geom)
        u_star, _ = reference_fold(k3 * gap ** 2 / k1)
        assert pull_in_deflection(geom, gap) == pytest.approx(u_star * gap, rel=1e-12)

    @pytest.mark.parametrize("gap", [0.0, -1e-8])
    def test_non_positive_gap_is_refused(self, geometry, gap):
        with pytest.raises(ValueError, match="gap must be positive"):
            pull_in_deflection(geometry, gap)

    @given(
        st.floats(min_value=0.3e-9, max_value=100e-9),
        st.floats(min_value=1e-9, max_value=1000e-9),
        st.floats(min_value=1e-9, max_value=1000e-9),
        st.floats(min_value=0.0, max_value=0.99, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_fold_decides_stability_as_net_stiffness_does(
        self, geometry, thickness, pre_tension, gap, u
    ):
        # at a balanced deflection the net stiffness is k1 g(u) / (1 - u),
        # with g the slope factor whose root is the fold; the sum itself
        # is rounding noise within a few ulps of the fold
        geom = replace_geometry(geometry, thickness=thickness, pre_tension=pre_tension)
        x, x_star = u * gap, pull_in_deflection(geom, gap)
        assume(abs(x / x_star - 1.0) > 1e-12)
        env = ElectrostaticEnvironment(gap=gap, bias_voltage=bias_for_deflection(geom, gap, x))
        assert (x >= x_star) == (net_stiffness(geom, env, x) <= 0.0)


def _balance(a, u):
    return (u + a * u ** 3) * (1.0 - u) ** 2


class TestStableRoot:
    """The bracketed Newton solve of (u + a u^3)(1 - u)^2 = b against numpy.roots."""

    @given(
        st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e),
        st.floats(min_value=1e-14, max_value=2.0),
    )
    # a stop rule that waits for an iterate to repeat cycles between two
    # floats on these two points
    @example(1.0689472014320377e-3, 0.9981270374217045)
    @example(301.39792550372823, 0.999517431012984)
    # this close to the fold the Newton steps stall at rounding level and
    # the solve bisects; only the bracket [0, u*] keeps it on the stable branch
    @example(10.0, 1.0 - 1e-12)
    @settings(max_examples=300, deadline=None)
    def test_matches_companion_matrix_roots(self, a, ratio):
        u_top, f_top = reference_fold(a)
        b = ratio * f_top
        # a cached fold never moves a root or a pull-in decision
        _fold.cache_clear()
        u = _stable_root(a, b)
        assert _fold.cache_info().misses == 1
        assert _stable_root(a, b) == u
        assert _fold.cache_info().hits == 1
        if u is not None:
            assert abs(_balance(a, u) - b) <= 1e-14 * b
            assert u < _fold(a)[0] <= u_top * (1.0 + 1e-12)
        # within 1e-13 of the maximum, rounding picks the side of the fold:
        # numpy.roots flips its decision up to 7e-15 away from it
        if abs(1.0 - ratio) <= 1e-13:
            return
        ref = reference_root(a, b)
        assert (u is None) == (ref is None)
        if ref is not None:
            # 1e-12, times the root's condition number b / (u f'(u)) where
            # it exceeds 1, as it does near the fold
            slope = (1.0 - ref) * (1.0 - 3.0 * ref + 3.0 * a * ref ** 2 - 5.0 * a * ref ** 3)
            kappa = b / (ref * slope)
            assert u == pytest.approx(ref, rel=1e-12 * max(1.0, kappa))


class TestZeroPointAmplitude:
    def test_full_mass_anchor(self, geometry):
        # lumped-mass convention: ~0.123 pm at the zero-bias frequency,
        # inside 25% of the quoted 0.14 pm
        omega = flexural_frequency(geometry, geometry.pre_tension)
        x = zero_point_amplitude(geometry.mass, omega)
        assert 0.105e-12 < x < 0.175e-12

    def test_quarter_frequency_scaling(self):
        assert zero_point_amplitude(1e-19, 4e10) == pytest.approx(
            0.5 * zero_point_amplitude(1e-19, 1e10), rel=1e-12
        )

    def test_quarter_mass_scaling(self):
        assert zero_point_amplitude(4e-19, 1e10) == pytest.approx(
            0.5 * zero_point_amplitude(1e-19, 1e10), rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            zero_point_amplitude(0.0, 1e10)
        with pytest.raises(ValueError):
            zero_point_amplitude(1e-19, 0.0)


def test_operating_point_at_deflection_matches_parts(geometry):
    op = operating_point_at_deflection(geometry, 4e-9)
    assert op.tension == induced_tension(geometry, 4e-9)
    assert op.mech_frequency == flexural_frequency(geometry, op.tension)
    assert op.x_zpf == zero_point_amplitude(geometry.effective_mass, op.mech_frequency)


def _outcome(fn, *args):
    """``fn(*args)`` as the exact bits of its floats, or ``ArithmeticError`` if it raised one.

    ``float.hex`` tells -0.0 from 0.0 and shows every last bit; which
    ``ArithmeticError`` a path raises first may differ, and a run maps each
    to the same config error.
    """
    try:
        return [float.hex(float(v)) for v in fn(*args)]
    except ArithmeticError:
        return ArithmeticError


def _composed_point(geom, deflection):
    """The operating point from the formula functions, computed afresh at each call.

    Refused, like every statics call, where the geometry's stiffness is not finite.
    """
    k1, k3 = documented_stiffness(geom)
    if not (k1 < math.inf and k3 < math.inf):
        raise FloatingPointError("stiffness is not finite")
    tension = induced_tension(geom, deflection)
    omega = flexural_frequency(geom, tension)
    m_eff = geom.effective_mass
    if not (0.0 < omega < math.inf and 0.0 < m_eff < math.inf):
        raise FloatingPointError("not a positive finite float")
    return deflection, tension, omega, zero_point_amplitude(m_eff, omega)


#: a geometry field and its nominal value; a drawn one is that times 10**e
NOMINAL_GEOMETRY = dict(
    length=110e-9,
    width=1e-6,
    thickness=1.1e-9,
    youngs_modulus=1e12,
    density=2260.0,
    pre_tension=10e-9,
    clamping_coefficient=1.03,
)


@given(
    st.lists(
        st.builds(
            MembraneGeometry,
            # up to 10**170 either way: powers and quotients leave the float range
            **{
                name: st.floats(-170.0, 170.0).map(lambda e, v=value: v * 10.0 ** e)
                for name, value in NOMINAL_GEOMETRY.items()
            },
            mode_mass_fraction=st.floats(1e-3, 1.0),
        ),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(0, 5), min_size=1, max_size=12),
    st.floats(0.0, 1e-8),
)
@settings(max_examples=200, deadline=None)
def test_held_factors_match_a_fresh_computation(pool, picks, deflection):
    # in any order of geometries, and of equal copies that are new objects,
    # what is held per geometry is the floats that a fresh computation gives,
    # and the operating point is the one the formula functions compose
    for pick in picks:
        geom = pool[pick % len(pool)]
        if pick >= len(pool):
            geom = geom._replace()
        # an equal copy is a new object, which misses the hold
        assert _outcome(mechanics._factors, geom) == _outcome(
            mechanics._factors, geom._replace()
        )
        assert _outcome(operating_point_at_deflection, geom, deflection) == _outcome(
            _composed_point, geom, deflection
        )
