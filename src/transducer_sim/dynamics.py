"""Single-excitation state-transfer dynamics with a discretized photon bath.

One microwave photon is loaded into the LC mode and coherently swapped,
via the phonon, onto the emitter, which radiates it into free space.  The
tracked state lives in the single-excitation sector

    |psi> = c1 |e,00> + c2 |g,10> + c3 |g,01> + sum_j c_wj |g,00;1_wj>

where |b, mn> labels (emitter, phonon count, microwave photon count) and
the last sum runs over N free-space photon modes spaced by delta_w.  The
non-Hermitian generator carries the mechanical and circuit losses, so the
squared norm of the state is the probability that no quantum has leaked:

    dc1/dt  = -i g_om c2 + kappa' sum_j c_wj
    dc2/dt  = -i g_om c1 - i g_em c3 - (Gamma_m / 2) c2
    dc3/dt  = -i g_em c2 - (Gamma_LC / 2) c3
    dc_wj/dt = -kappa' c1 - i (j - N/2) delta_w c_wj

with kappa' = sqrt(kappa delta_w / 2 pi).  The sign pair (+kappa', -kappa')
preserves the norm identity exactly.

Integration is Lawson's fixed-step integrating-factor RK4 (Lawson 1967;
Hochbruck & Ostermann, Acta Numerica 19:209, 2010): the diagonal comb
rotation exp(-i (j - N/2) delta_w t) and the decay exp(-Gamma t / 2) of
the phonon and circuit amplitudes are applied exactly, and the classical
RK4 stages see only the couplings, so the step is set by them rather than
by the comb bandwidth or a loss rate.  The default step is
0.03 / max(g_om, g_em, kappa), capped at :func:`max_timestep`; 0.03 is
where the norm-drift gate binds (lossless, 1 us, 1000 modes: drift 1.5e-9
against 1e-8, where 0.05 gives 1.9e-8).  :func:`integrate` is the one
trajectory entry point over the stepping core :func:`_advance`.  A run is
valid only while it stays clear of the discretization revival time
2 pi / delta_w.

The scheme is linear and the same at every step, so the core composes
16 steps into one precomputed block map: a block reads the comb once
(its sums against rot_h^p, p = 0..32), gets every step's bright
amplitudes and comb injections from that map, and writes the comb once.
The fidelity of each step follows from the squared comb norm at the block
start, so recording costs no pass over the comb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .coupling import thermal_occupation
from .errors import ConfigError, StepSizeError

#: hard ceiling on the step relative to the fastest detuned mode
MAX_STEP_FRACTION = 0.05

#: default step times the fastest rate max(g_om, g_em, kappa), set by the
#: norm-drift gate (module docstring)
_DT_RATE_FRACTION = 0.03

#: keep runs clear of the revival of the discretized photon comb
_REVIVAL_SAFETY = 0.95

#: most steps one run may plan; at ~8 us per step this is ~13 min
MAX_STEPS = 10 ** 8

#: most photon modes one comb may hold; the power table alone is then
#: 33 x N complex numbers, about 0.5 GB
MAX_MODE_COUNT = 10 ** 6

#: steps composed into one precomputed block map; the power table holds
#: 2 _BLOCK + 1 rows of the comb length (about 1 MB at 2000 modes), and a
#: longer block buys little once the two comb products dominate
_BLOCK = 16


@dataclass(frozen=True)
class ClosedEvolution:
    """Eigensystem of the lossless three-state exchange Hamiltonian.

    ``eigenstates`` rows are the amplitude triples of the eigenvectors in
    the ordered basis (|g,01>, |g,10>, |e,00>); ``eigenvalues`` are the
    matching angular frequencies (-sqrt(2) g, +sqrt(2) g, 0).
    """

    eigenvalues: np.ndarray
    eigenstates: np.ndarray


def closed_generator(g_c: float) -> np.ndarray:
    """3x3 exchange Hamiltonian (rad/s) in the basis (|g,01>, |g,10>, |e,00>)."""
    return g_c * np.array(
        [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex
    )


def closed_eigensystem(g_c: float) -> ClosedEvolution:
    """Analytic eigensystem of the lossless three-state exchange."""
    if not g_c > 0:
        raise ValueError("g_c must be positive")
    r = math.sqrt(2.0)
    states = np.array(
        [
            [0.5, -r / 2.0, 0.5],
            [0.5, r / 2.0, 0.5],
            [r / 2.0, 0.0, -r / 2.0],
        ],
        dtype=complex,
    )
    values = np.array([-r * g_c, r * g_c, 0.0])
    return ClosedEvolution(eigenvalues=values, eigenstates=states)


def closed_evolution(g_c: float, t: float) -> np.ndarray:
    """Lossless evolution of |g,01> under the three-state exchange.

    Returns the amplitude triple on (|g,01>, |g,10>, |e,00>):

        ( (1 + cos(sqrt(2) g t)) / 2,
          -i sin(sqrt(2) g t) * sqrt(2)/2,
          -(1 - cos(sqrt(2) g t)) / 2 )

    The norm is identically 1; the transfer to |e,00> completes at
    t = pi / (sqrt(2) g).
    """
    if not g_c > 0:
        raise ValueError("g_c must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    theta = math.sqrt(2.0) * g_c * t
    return np.array(
        [
            0.5 * (1.0 + math.cos(theta)),
            -1j * (math.sqrt(2.0) / 2.0) * math.sin(theta),
            -0.5 * (1.0 - math.cos(theta)),
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class TransferSystem:
    """Immutable generator of the open-system transfer dynamics.

    All rates are the effective (thermally enhanced) ones actually
    integrated.  ``g_om`` couples emitter and phonon, ``g_em`` phonon and
    circuit; the matched case g_om = g_em = g_c is the one benchmarked.
    """

    g_om: float          # rad/s
    g_em: float          # rad/s
    kappa: float         # rad/s, optical decay feeding the photon modes
    gamma_m: float       # rad/s, mechanical loss
    gamma_lc: float      # rad/s, circuit loss
    mode_spacing: float  # rad/s, detuning step of the photon comb
    mode_count: int

    def __post_init__(self):
        rates = (self.g_om, self.g_em, self.kappa, self.gamma_m, self.gamma_lc)
        if not all(map(math.isfinite, rates)):
            raise ConfigError(
                "coupling and decay rates must be finite, also after the "
                "(n_bar + 1) thermal factor"
            )
        if self.g_om < 0 or self.g_em < 0:
            raise ConfigError("coupling rates must be nonnegative")
        if self.kappa < 0 or self.gamma_m < 0 or self.gamma_lc < 0:
            raise ConfigError("decay rates must be nonnegative")
        if not self.mode_spacing > 0:
            raise ConfigError("mode_spacing must be positive")
        if self.mode_count < 2:
            raise ConfigError("mode_count must be at least 2")
        if self.mode_count > MAX_MODE_COUNT:
            raise ConfigError(
                f"mode_count exceeds {MAX_MODE_COUNT}; the photon comb would "
                f"not fit in memory"
            )
        if not math.isfinite(self.half_bandwidth):
            raise ConfigError("photon bandwidth N delta_w / 2 must be finite")
        # the comb must be much wider than the emission line it absorbs
        if self.half_bandwidth < 5.0 * self.kappa * (1.0 - 1e-12):
            raise ConfigError(
                f"photon bandwidth {self.half_bandwidth:.3e} rad/s is below "
                f"5 kappa = {5 * self.kappa:.3e} rad/s; increase mode_count "
                f"or mode_spacing"
            )
        j = np.arange(1, self.mode_count + 1)
        object.__setattr__(
            self, "_detunings", (j - self.mode_count / 2.0) * self.mode_spacing
        )

    @property
    def half_bandwidth(self) -> float:
        """Half width N delta_w / 2 of the photon comb (rad/s)."""
        return self.mode_count * self.mode_spacing / 2.0

    @property
    def kappa_prime(self) -> float:
        """Per-mode optical coupling sqrt(kappa delta_w / 2 pi) (rad/s)."""
        return math.sqrt(self.kappa * self.mode_spacing / TWO_PI)

    @property
    def detunings(self) -> np.ndarray:
        """Mode detunings (j - N/2) delta_w for j = 1..N (rad/s)."""
        return self._detunings

    @property
    def revival_time(self) -> float:
        """Recurrence time 2 pi / delta_w of the discretized comb (s)."""
        return TWO_PI / self.mode_spacing

    @property
    def size(self) -> int:
        return self.mode_count + 3


def max_timestep(system: TransferSystem) -> float:
    """Cap on the step (s).

    The comb rotation is exact, but the stages sample the emitter's drive
    of every mode, which must stay resolved at the fastest detuning:
    0.05 * 2 pi / half_bandwidth.
    """
    return MAX_STEP_FRACTION * TWO_PI / system.half_bandwidth


def default_timestep(system: TransferSystem) -> float:
    """Fixed step of every trajectory, before :func:`step_plan` shrinks it (s).

    ``0.03 / max(g_om, g_em, kappa)``, capped at :func:`max_timestep`.
    """
    bound = max_timestep(system)
    rate = max(system.g_om, system.g_em, system.kappa)
    return min(_DT_RATE_FRACTION / rate, bound) if rate > 0 else bound


def step_plan(system: TransferSystem, duration: float):
    """``(n_steps, dt)`` that lands an integer number of steps on ``duration``.

    ``n_steps = ceil(duration / dt)`` for the :func:`default_timestep`,
    which is then shrunk to ``duration / n_steps``.

    Raises
    ------
    StepSizeError
        If the step is not positive, or if the run takes more than
        :data:`MAX_STEPS` steps.
    """
    dt = default_timestep(system)
    if not dt > 0:
        raise StepSizeError("dt must be positive")
    if duration == 0.0:
        return 0, dt
    if duration / dt > MAX_STEPS:
        raise StepSizeError(
            f"{duration:.3e} s at dt = {dt:.3e} s takes more than "
            f"{MAX_STEPS:.0e} steps"
        )
    n_steps = max(1, math.ceil(duration / dt))
    return n_steps, duration / n_steps


def _step_map(system: TransferSystem, dt: float, rot_h_sum: complex) -> np.ndarray:
    """One Lawson RK4 step as a 6 x 6 matrix.

    Maps (x1, x2, x3, s0, s1, s2), the bright amplitudes and the comb sums
    s_p = sum_j rot_h_j^p c_wj, to the next bright amplitudes and the stage
    scalars (q0, q1, q2) of the comb update c <- rot (c + q0) + rot_h q1 + q2.
    The integrating factor holds the comb rotation and the decay
    exp(-Gamma t / 2) of the phonon and circuit amplitudes (d2, d3 per half
    step), so the stages see only the couplings.  The comb's share of those
    is the uniform drive -kappa' c1, so each stage needs one comb sum: that
    of rot_h (c - kp x1 h/2), rot_h c - kp u1 h/2 or rot c - kp rot_h v1 h.
    ``rot_h_sum`` is sum_j rot_h_j.
    """
    g1, g2, kp = system.g_om, system.g_em, system.kappa_prime
    half, sixth = 0.5 * dt, dt / 6.0
    kp_rot_h = kp * rot_h_sum
    kp_n = kp * system.mode_count
    # half-step integrating factors of the phonon and circuit losses
    d2 = math.exp(-0.25 * dt * system.gamma_m)
    d3 = math.exp(-0.25 * dt * system.gamma_lc)

    def rates(a1, a2, a3, comb_sum):
        return (
            -1j * g1 * a2 + kp * comb_sum,
            -1j * (g1 * a1 + g2 * a3),
            -1j * g2 * a2,
        )

    def one_step(x1, x2, x3, s0, s1, s2):
        a1, a2, a3 = rates(x1, x2, x3, s0)
        u1, u2, u3 = x1 + half * a1, d2 * (x2 + half * a2), d3 * (x3 + half * a3)
        b1, b2, b3 = rates(u1, u2, u3, s1 - half * kp_rot_h * x1)
        v1, v2, v3 = x1 + half * b1, d2 * x2 + half * b2, d3 * x3 + half * b3
        e1, e2, e3 = rates(v1, v2, v3, s1 - half * kp_n * u1)
        w1, w2, w3 = x1 + dt * e1, d2 * (d2 * x2 + dt * e2), d3 * (d3 * x3 + dt * e3)
        f1, f2, f3 = rates(w1, w2, w3, s2 - dt * kp_rot_h * v1)
        return (
            x1 + sixth * (a1 + 2.0 * (b1 + e1) + f1),
            d2 * (d2 * (x2 + sixth * a2) + 2.0 * sixth * (b2 + e2)) + sixth * f2,
            d3 * (d3 * (x3 + sixth * a3) + 2.0 * sixth * (b3 + e3)) + sixth * f3,
            -sixth * kp * x1,
            -2.0 * sixth * kp * (u1 + v1),
            -sixth * kp * w1,
        )

    # the step is linear: its columns are the images of the six unit inputs
    return np.array([one_step(*unit) for unit in np.eye(6).tolist()]).T


def _block_map(step_map: np.ndarray, kernel: np.ndarray):
    """``_BLOCK`` = B steps of ``step_map`` as linear maps of one block input.

    The input is z = (x1, x2, x3, F_0..F_2B), with F_p = sum_j rot_h_j^p
    c_wj of the comb at the block start; ``kernel[p]`` is G(p) =
    sum_j rot_h_j^p.  After k steps the comb is rot_h^2k c + sum_p h_p
    rot_h^p, where q_i of step m sits at exponent 2 (k - m) - i, so the
    comb sums of step k are F_(2k+i) plus the kernel term
    sum_p h_p G(p + i) of the block's own injections.

    Returns ``steps`` (B, 9, 2B + 4), whose rows for step k are the bright
    amplitudes after it, its stage scalars (q0, q1, q2) and its comb sums
    (s0, s1, s2), and ``combs`` (B, 2B + 1, 2B + 4), the injections h after
    k + 1 steps.  Both are causal: the first L steps of a block need only
    their first L entries.
    """
    n_pow = 2 * _BLOCK + 1
    lags = np.subtract.outer(np.arange(n_pow), np.arange(n_pow))
    # row a: G(a - e) on the injections in row e, then F_a itself
    sums = np.hstack((np.tril(kernel[np.abs(lags)]), np.eye(n_pow)))
    # q_i of step m accumulates in row 2m + i, so h_p after k steps is row
    # 2k - p; the rows below hold the unit inputs F_p
    chain = np.zeros((2 * n_pow, 3 + n_pow), dtype=complex)
    chain[n_pow:, 3:] = np.eye(n_pow)
    inputs = np.zeros((6, 3 + n_pow), dtype=complex)
    inputs[:3, :3] = np.eye(3)
    steps = np.empty((_BLOCK, 9, 3 + n_pow), dtype=complex)
    combs = np.zeros((_BLOCK, n_pow, 3 + n_pow), dtype=complex)
    for k in range(_BLOCK):
        np.matmul(sums[2 * k : 2 * k + 3], chain, out=inputs[3:])
        np.matmul(step_map, inputs, out=steps[k, :6])
        steps[k, 6:] = inputs[3:]
        inputs[:3] = steps[k, :3]
        chain[2 * k : 2 * k + 3] += steps[k, 3:6]
        combs[k, : 2 * k + 3] = chain[2 * k + 2 :: -1]
    return steps, combs


def _advance(
    system: TransferSystem,
    y: np.ndarray,
    dt: float,
    n_steps: int,
    record_every: int = 0,
):
    """The stepping core: ``n_steps`` Lawson RK4 steps of ``dt`` from ``y``.

    Runs in blocks of ``_BLOCK`` = B steps.  A block reads the comb once as
    F = P c, where row p of the power table P is rot_h^p (p = 0..2B); one
    precomputed map (:func:`_block_map`) takes (x1, x2, x3, F) to the bright
    amplitudes, stage scalars and comb sums of all its L steps, and the comb
    is written once as c <- P[2L] c + h P.  Since |rot_h| = 1, a step raises
    |c|^2 by 2 Re(q . conj(s)) + q^H T q with T[a, b] = G(a - b), so the
    fidelity of every step follows from |c|^2 at the block start.

    Returns the final amplitude vector and, if ``record_every`` > 0, the
    samples ``(t, |c1|^2, |c2|^2, |c3|^2, survival, fidelity)``, one row
    each, at step 0, every ``record_every`` steps and the last step.
    """
    n_pow = 2 * _BLOCK + 1
    rot_h = np.exp(-0.5j * dt * system.detunings)
    powers = np.empty((n_pow, system.mode_count), dtype=complex)
    powers[0] = 1.0
    for p in range(1, n_pow):
        np.multiply(powers[p - 1], rot_h, out=powers[p])
    g = powers.sum(axis=1)
    steps, combs = _block_map(_step_map(system, dt, g[1]), g)
    steps = steps.reshape(9 * _BLOCK, 3 + n_pow)
    # the |c|^2 gain of a step is Re(u^H K u) for u = (q, s), with
    # K = [[T, 1], [1, 0]]; ``form`` holds K transposed for row-wise u
    form = np.zeros((6, 6), dtype=complex)
    form[:3, :3] = [
        [g[0], g[1], g[2]],
        [g[1].conj(), g[0], g[1]],
        [g[2].conj(), g[1].conj(), g[0]],
    ]
    form[:3, 3:] = form[3:, :3] = np.eye(3)

    z = np.empty(3 + n_pow, dtype=complex)
    z[:3] = y[:3]
    c = y[3:].copy()
    samples = []
    if record_every:
        p = np.abs(z[:3]) ** 2
        fidelity = np.vdot(c, c).real
        samples.append([[0.0, *p, p.sum() + fidelity, fidelity]])
    for start in range(0, n_steps, _BLOCK):
        size = min(_BLOCK, n_steps - start)
        np.matmul(powers, c, out=z[3:])
        out = (steps @ z).reshape(_BLOCK, 9)
        if record_every:
            first = record_every - 1 - start % record_every
            picked = list(range(first, size, record_every))
            if start + size == n_steps and n_steps % record_every:
                picked.append(size - 1)
            if picked:
                u = out[:size, 3:]
                gain = np.einsum("ij,ij->i", u.conj(), u @ form).real
                fidelity = (np.vdot(c, c).real + np.cumsum(gain))[picked]
                p = np.abs(out[picked, :3]) ** 2
                t = (np.array(picked) + (start + 1)) * dt
                samples.append(
                    np.column_stack((t, p, p.sum(axis=1) + fidelity, fidelity))
                )
        np.multiply(c, powers[2 * size], out=c)
        c += (combs[size - 1] @ z) @ powers
        z[:3] = out[size - 1, :3]
    y = np.concatenate((z[:3], c))
    return y, np.concatenate(samples) if samples else np.empty((0, 6))


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled populations of one integration run."""

    times: np.ndarray        # s
    p_emitter: np.ndarray    # |c1|^2
    p_phonon: np.ndarray     # |c2|^2
    p_circuit: np.ndarray    # |c3|^2
    survival: np.ndarray     # P_n
    fidelity: np.ndarray     # F_trans
    final_amplitudes: np.ndarray  # (c1, c2, c3, c_w1..c_wN) at the end

    @property
    def max_fidelity(self) -> float:
        return float(self.fidelity.max())

    def first_time(self, level: float) -> float:
        """First sampled time at which the fidelity reaches ``level``; NaN if none does."""
        crossed = np.flatnonzero(self.fidelity >= level)
        return float(self.times[crossed[0]]) if crossed.size else math.nan


def _check_duration(system: TransferSystem, duration: float):
    if duration < 0:
        raise ConfigError("duration must be nonnegative")
    if duration > _REVIVAL_SAFETY * system.revival_time:
        raise ConfigError(
            f"duration {duration:.3e} s runs into the discretization revival "
            f"at {system.revival_time:.3e} s; decrease mode_spacing"
        )


def integrate(
    system: TransferSystem, duration: float, record_every: int = 1
) -> TrajectoryRecord:
    """Integrate from the loaded microwave photon and record populations.

    The step is shrunk so an integer number of steps lands exactly on
    ``duration`` (see :func:`step_plan`); populations are recorded every
    ``record_every`` steps (the initial and final points always included).
    """
    _check_duration(system, duration)
    if record_every < 1:
        raise ConfigError("record_every must be >= 1")
    n_steps, dt = step_plan(system, duration)
    # the microwave photon loaded: c3 = 1, everything else empty
    y = np.zeros(system.size, dtype=complex)
    y[2] = 1.0
    y, samples = _advance(system, y, dt, n_steps, record_every)
    return TrajectoryRecord(
        times=samples[:, 0],
        p_emitter=samples[:, 1],
        p_phonon=samples[:, 2],
        p_circuit=samples[:, 3],
        survival=samples[:, 4],
        fidelity=samples[:, 5],
        final_amplitudes=y,
    )


def default_discretization(g_max: float, kappa: float):
    """Photon-comb parameters (mode_spacing, mode_count) keyed on the coupling.

    Slow transfers need a fine comb to resolve the long pulse; couplings
    beyond the optical decay rate emit split sidebands at +-sqrt(2) g that
    the comb must cover, which takes a wider bandwidth.  The count is
    raised when a large optical decay needs more bandwidth than the tier
    provides.

    Raises
    ------
    ConfigError
        If the rates need more than :data:`MAX_MODE_COUNT` modes, or a
        count that does not fit in a float.
    """
    if g_max <= TWO_PI * 10e6:
        spacing, count = TWO_PI * 0.25e6, 2000
    elif g_max <= TWO_PI * 100e6:
        spacing, count = TWO_PI * 1e6, 500
    else:
        spacing, count = TWO_PI * 1e6, 2000
    required = max(5.0 * kappa, math.sqrt(2.0) * g_max + 3.5 * kappa)
    n_min = 2.0 * required / spacing
    # the negated test also refuses inf and NaN, which math.ceil cannot take
    if not n_min <= MAX_MODE_COUNT:
        raise ConfigError(
            f"the default comb needs mode_count = {n_min:.3e}, above "
            f"{MAX_MODE_COUNT}; the photon comb would not fit in memory"
        )
    n_min = math.ceil(n_min)
    n_min += n_min % 2
    return spacing, max(count, n_min)


def make_transfer_system(
    g_c: float,
    kappa: float,
    gamma_m: float = 0.0,
    gamma_lc: float = 0.0,
    mode_spacing: float | None = None,
    mode_count: int | None = None,
    temperature: float = 0.0,
    mode_frequency: float = TWO_PI * 5e9,
    optical_frequency: float | None = None,
) -> TransferSystem:
    """Matched-coupling system with thermal factors applied to every rate.

    Each decay rate is multiplied by (n_bar + 1) at the given temperature
    before the generator is built; the mechanical and circuit occupations
    are evaluated at ``mode_frequency``, the optical one at
    ``optical_frequency`` (negligible for any optical transition, so None
    means exactly zero).
    """
    if (mode_spacing is None) != (mode_count is None):
        raise ConfigError("give both mode_spacing and mode_count, or neither")
    if mode_spacing is None:
        mode_spacing, mode_count = default_discretization(g_c, kappa)
    n_mode = thermal_occupation(mode_frequency, temperature)
    n_zpl = (
        0.0
        if optical_frequency is None
        else thermal_occupation(optical_frequency, temperature)
    )
    return TransferSystem(
        g_om=g_c,
        g_em=g_c,
        kappa=kappa * (1.0 + n_zpl),
        gamma_m=gamma_m * (1.0 + n_mode),
        gamma_lc=gamma_lc * (1.0 + n_mode),
        mode_spacing=mode_spacing,
        mode_count=mode_count,
    )
