"""The blocked stepping core against the per-step Lawson RK4 loop it replaced.

``per_step_advance`` is the reference: one Python iteration per step, the
comb sums taken from the comb itself and the comb updated in place by
Horner in rot_h, with the same stage algebra as ``dynamics._step_map``.
The blocked core composes the same discrete map, so the two agree to
rounding in every amplitude and every recorded sample.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transducer_sim import TransferSystem, dynamics, make_transfer_system
from transducer_sim.dynamics import _BLOCK, _CHUNK, _advance, default_timestep

from conftest import TWO_PI


def per_step_advance(system, y, dt, n_steps, record_every):
    """Reference stepping loop: ``n_steps`` Lawson RK4 steps, one at a time."""
    g1, g2, kp = system.g_om, system.g_em, system.kappa_prime
    half, sixth = 0.5 * dt, dt / 6.0
    # half-step integrating factors of the phonon and circuit losses
    d2 = math.exp(-0.25 * dt * system.gamma_m)
    d3 = math.exp(-0.25 * dt * system.gamma_lc)
    rot_h = np.exp(-0.5j * dt * system.detunings)
    probes = np.array([np.ones_like(rot_h), rot_h, rot_h * rot_h])
    kp_rot_h = kp * complex(rot_h.sum())
    kp_n = kp * system.mode_count
    x1, x2, x3 = (complex(v) for v in y[:3])
    c = y[3:].copy()

    def rates(a1, a2, a3, comb_sum):
        return (
            -1j * g1 * a2 + kp * comb_sum,
            -1j * (g1 * a1 + g2 * a3),
            -1j * g2 * a2,
        )

    def sample(t):
        p1, p2, p3 = abs(x1) ** 2, abs(x2) ** 2, abs(x3) ** 2
        fidelity = float(np.vdot(c, c).real)
        return (t, p1, p2, p3, p1 + p2 + p3 + fidelity, fidelity)

    samples = [sample(0.0)]
    for i in range(1, n_steps + 1):
        s0, s1, s2 = (probes @ c).tolist()
        a1, a2, a3 = rates(x1, x2, x3, s0)
        u1, u2, u3 = x1 + half * a1, d2 * (x2 + half * a2), d3 * (x3 + half * a3)
        b1, b2, b3 = rates(u1, u2, u3, s1 - half * kp_rot_h * x1)
        v1, v2, v3 = x1 + half * b1, d2 * x2 + half * b2, d3 * x3 + half * b3
        e1, e2, e3 = rates(v1, v2, v3, s1 - half * kp_n * u1)
        w1, w2, w3 = x1 + dt * e1, d2 * (d2 * x2 + dt * e2), d3 * (d3 * x3 + dt * e3)
        f1, f2, f3 = rates(w1, w2, w3, s2 - dt * kp_rot_h * v1)
        # rot (c + q0) + rot_h q1 + q2, by Horner in rot_h
        np.add(c, -sixth * kp * x1, out=c)
        np.multiply(c, rot_h, out=c)
        np.add(c, -2.0 * sixth * kp * (u1 + v1), out=c)
        np.multiply(c, rot_h, out=c)
        np.add(c, -sixth * kp * w1, out=c)
        x1 += sixth * (a1 + 2.0 * (b1 + e1) + f1)
        x2 = d2 * (d2 * (x2 + sixth * a2) + 2.0 * sixth * (b2 + e2)) + sixth * f2
        x3 = d3 * (d3 * (x3 + sixth * a3) + 2.0 * sixth * (b3 + e3)) + sixth * f3
        if i % record_every == 0 or i == n_steps:
            samples.append(sample(i * dt))
    return np.concatenate(([x1, x2, x3], c)), np.array(samples)


SYSTEMS = {
    # unmatched couplings, lossy, on a comb of an odd number of pairs
    "unmatched_lossy_502": TransferSystem(
        g_om=TWO_PI * 50e6, g_em=TWO_PI * 30e6, kappa=TWO_PI * 50e6,
        gamma_m=TWO_PI * 1e6, gamma_lc=TWO_PI * 2e6,
        mode_spacing=TWO_PI * 1e6, mode_count=502,
    ),
    "matched_lossless": TransferSystem(
        g_om=TWO_PI * 50e6, g_em=TWO_PI * 50e6, kappa=TWO_PI * 50e6,
        gamma_m=0.0, gamma_lc=0.0, mode_spacing=TWO_PI * 1e6, mode_count=500,
    ),
    # losses far above the couplings, decaying within a step
    "stiff_loss": TransferSystem(
        g_om=TWO_PI * 50e6, g_em=TWO_PI * 50e6, kappa=TWO_PI * 50e6,
        gamma_m=TWO_PI * 1e10, gamma_lc=TWO_PI * 1e9,
        mode_spacing=TWO_PI * 1e6, mode_count=500,
    ),
    # the 200 MHz paper case on its default 2000-mode comb
    "paper_200mhz": make_transfer_system(
        g_c=TWO_PI * 200e6, kappa=TWO_PI * 50e6,
        gamma_m=TWO_PI * 100e3, gamma_lc=TWO_PI * 100e3, temperature=0.05,
    ),
    # the smallest combs: one pair, then two
    "two_modes": TransferSystem(
        g_om=TWO_PI * 20e6, g_em=TWO_PI * 30e6, kappa=TWO_PI * 1e6,
        gamma_m=TWO_PI * 1e6, gamma_lc=TWO_PI * 2e6,
        mode_spacing=TWO_PI * 10e6, mode_count=2,
    ),
    "four_modes": TransferSystem(
        g_om=TWO_PI * 20e6, g_em=TWO_PI * 30e6, kappa=TWO_PI * 1e6,
        gamma_m=TWO_PI * 1e6, gamma_lc=TWO_PI * 2e6,
        mode_spacing=TWO_PI * 10e6, mode_count=4,
    ),
}


def start_state(system):
    """Loaded microwave photon plus a populated comb, so the block read F matters."""
    rng = np.random.default_rng(system.mode_count)
    y = np.zeros(system.size, dtype=complex)
    y[1], y[2] = 0.3j, 0.8
    y[3:] = 0.02 * (rng.normal(size=system.mode_count) + 1j * rng.normal(size=system.mode_count))
    return y


@pytest.mark.parametrize("name", SYSTEMS)
# a full block followed by each partial block length, since the comb
# injections are snapshot only at the block lengths a run takes
@pytest.mark.parametrize("n_steps", [0, 1, 15, *range(_BLOCK, 2 * _BLOCK), 53])
def test_blocked_core_matches_per_step_loop(name, n_steps):
    system = SYSTEMS[name]
    if name == "paper_200mhz":
        assert system.mode_count == 2000
    dt = default_timestep(system)
    y = start_state(system)
    for record_every in (1, 7, n_steps + 1):
        expected_y, expected = per_step_advance(system, y, dt, n_steps, record_every)
        got_y, got = _advance(system, y, dt, n_steps, record_every)
        assert np.max(np.abs(got_y - expected_y)) < 1e-12
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) < 1e-12, record_every


@pytest.mark.parametrize(
    "n_steps", [_BLOCK * _CHUNK - 1, _BLOCK * _CHUNK + 1, 2 * _BLOCK * _CHUNK + 5]
)
def test_chunk_edges_match_per_step_loop(n_steps):
    # runs that end just short of, just past and well past the step rows
    # buffered in one chunk, so samples are read on both sides of a chunk
    # edge; the reference runs once, recording every step, and each stride
    # takes its rows
    system = SYSTEMS["unmatched_lossy_502"]
    dt = default_timestep(system)
    y = start_state(system)
    expected_y, every_step = per_step_advance(system, y, dt, n_steps, 1)
    for record_every in (1, 7, _BLOCK * _CHUNK + 3, n_steps + 1):
        picked = sorted(set(range(0, n_steps + 1, record_every)) | {n_steps})
        got_y, got = _advance(system, y, dt, n_steps, record_every)
        assert np.max(np.abs(got_y - expected_y)) < 1e-12
        assert got.shape == (len(picked), 6)
        assert np.max(np.abs(got - every_step[picked])) < 1e-12, record_every


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 3 * _BLOCK * _CHUNK).flatmap(
        lambda n_steps: st.tuples(st.just(n_steps), st.integers(1, n_steps + 1))
    )
)
# strides that divide a chunk, divide the run, or fall just short of a chunk
@example((3 * _BLOCK * _CHUNK, _BLOCK * _CHUNK))
@example((2 * _BLOCK * _CHUNK, _BLOCK * _CHUNK // 2))
@example((3000, 600))
@example((3 * _BLOCK * _CHUNK, _BLOCK * _CHUNK - 1))
def test_recorded_steps_follow_the_reference_rule(plan):
    # the reference loop records step i when i % record_every == 0 or
    # i == n_steps, after step 0
    n_steps, record_every = plan
    system = SYSTEMS["two_modes"]
    dt = default_timestep(system)
    _, got = _advance(system, start_state(system), dt, n_steps, record_every)
    steps = {0, n_steps} | set(range(record_every, n_steps + 1, record_every))
    np.testing.assert_array_equal(got[:, 0], np.array(sorted(steps)) * dt)


@pytest.mark.parametrize("name", ["matched_lossless", "unmatched_lossy_502"])
def test_odd_chunk_matches_per_step_loop(monkeypatch, name):
    # a chunk of an odd number of blocks starts every other chunk on the
    # second block input, so |c|^2 must not depend on which input a block takes
    monkeypatch.setattr(dynamics, "_CHUNK", 3)
    system = SYSTEMS[name]
    dt = default_timestep(system)
    y = start_state(system)
    expected_y, expected = per_step_advance(system, y, dt, 200, 1)
    got_y, got = _advance(system, y, dt, 200, 1)
    assert np.max(np.abs(got_y - expected_y)) < 1e-12
    assert np.max(np.abs(got - expected)) < 1e-12
