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
by the comb bandwidth or a loss rate.  The default step
(:func:`default_timestep`) is 0.03 / max(g_om, g_em, kappa), capped at
0.05 * 2 pi / half_bandwidth; 0.03 is where the norm-drift gate binds
(lossless, 1 us, 1000 modes: drift 1.5e-9 against 1e-8, where 0.05 gives
1.9e-8).  :func:`integrate` is the one trajectory entry point over the
stepping core :func:`_advance`.  A run is valid only while it stays clear
of the discretization revival time 2 pi / delta_w.

The scheme is linear and the same at every step, so the core composes
16 steps into one precomputed block map: a block reads the comb once
(its sums against rot_h^p, p = 0..32), gets every step's bright
amplitudes and comb injections from that map, and writes the comb once.
The core steps every amplitude turned by exp(i delta_w t / 2): a scalar
added to the diagonal integrating factor leaves Lawson's
interaction-picture equation, and so the steps, unchanged.  In that
frame mode i sits at (i - (N - 1) / 2) delta_w, so for the even N that
TransferSystem takes, mode i pairs with mode N - 1 - i at the opposite
detuning.  Their rot_h are complex conjugates, so the core holds each
pair in a sum and difference basis in which the read and the write are
each one real product with one table of half the comb, rot_h^p of the
lower half; the write reads it backwards, since conj(rot_h^p) =
rot_h^(2L - p) conj(rot_h^2L) for a block of L steps.  What depends on
the comb and the step alone (the pair power table, the kernel sums, the
Toeplitz read of the block map and the fidelity form) is built once per
(mode_spacing, mode_count, dt) and held, read-only, until a run on
another comb or step, so the points of a scan on one comb share it; each
run builds only its block map, in three array operations per step.
Every run records: the blocks write their step rows into a buffer of 64
blocks, read into samples in one vectorised pass when it is full or the
run ends, and a step's fidelity is the squared comb norm at the buffer's
start (one ``vdot``) plus the gains of the steps up to it.  So a block
makes six array operations, and the buffer's size is the same however
long the run.

numpy is imported by the functions that build and step a trajectory, not
when this module loads, so a process that runs only the statics loads the
standard library alone.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, NamedTuple

from .constants import TWO_PI
from .coupling import thermal_occupation
from .errors import ConfigError
from .records import checked

if TYPE_CHECKING:
    import numpy as np

#: hard ceiling on the step relative to the fastest detuned mode
MAX_STEP_FRACTION = 0.05

#: default step times the fastest rate max(g_om, g_em, kappa), set by the
#: norm-drift gate (module docstring)
_DT_RATE_FRACTION = 0.03

#: keep runs clear of the revival of the discretized photon comb
_REVIVAL_SAFETY = 0.95

#: least half-bandwidth of the photon comb, in units of the optical decay
#: kappa: the comb must be much wider than the emission line it absorbs
_BANDWIDTH_KAPPAS = 5.0

#: most steps one run may plan; at ~3 us per step (500-2000 modes, 2-vCPU
#: Xeon VM) this is ~5 min.  On the comb that make_transfer_system derives,
#: a run short of its revival plans at most about 7.0e7 steps (0.95 revival
#: times g / 0.03 at the largest g that MAX_MODE_COUNT modes cover), so
#: only a system built on its own comb reaches this
MAX_STEPS = 10 ** 8

#: most photon modes one comb may hold; the pair power table alone is
#: then 33 x N / 2 complex numbers, about 0.26 GB
MAX_MODE_COUNT = 10 ** 6

#: steps composed into one precomputed block map; the pair power table
#: holds 2 _BLOCK + 1 rows of half the comb length (about 0.5 MB at 2000
#: modes), and a longer block buys little once the two comb products
#: dominate
_BLOCK = 16

#: blocks whose step rows are buffered before they are read into samples
#: (_CHUNK x 9 _BLOCK complex numbers, 147 kB: the bound keeps a long run's
#: memory flat)
_CHUNK = 64


@checked(error=ConfigError)
class TransferSystem(NamedTuple):
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

    def _check(self):
        if self.g_om < 0 or self.g_em < 0:
            raise ConfigError("coupling rates must be nonnegative")
        if self.kappa < 0 or self.gamma_m < 0 or self.gamma_lc < 0:
            raise ConfigError("decay rates must be nonnegative")
        if not self.mode_spacing > 0:
            raise ConfigError("mode_spacing must be positive")
        # the stepping core pairs mode i with mode N - 1 - i (_advance)
        if self.mode_count < 2 or self.mode_count % 2:
            raise ConfigError("mode_count must be even and at least 2")
        if self.mode_count > MAX_MODE_COUNT:
            raise ConfigError(
                f"mode_count exceeds {MAX_MODE_COUNT}; the photon comb would "
                f"not fit in memory"
            )
        if not math.isfinite(self.half_bandwidth):
            raise ConfigError("photon bandwidth N delta_w / 2 must be finite")
        floor = _BANDWIDTH_KAPPAS * self.kappa
        if self.half_bandwidth < floor * (1.0 - 1e-12):
            raise ConfigError(
                f"photon bandwidth {self.half_bandwidth:.3e} rad/s is below "
                f"{_BANDWIDTH_KAPPAS:g} kappa = {floor:.3e} rad/s; increase "
                f"mode_count or mode_spacing"
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
        """Mode detunings (j - N/2) delta_w for j = 1..N (rad/s), built on each read."""
        import numpy as np

        j = np.arange(1, self.mode_count + 1)
        return (j - self.mode_count / 2.0) * self.mode_spacing

    @property
    def revival_time(self) -> float:
        """Recurrence time 2 pi / delta_w of the discretized comb (s)."""
        return TWO_PI / self.mode_spacing

    @property
    def size(self) -> int:
        return self.mode_count + 3


def default_timestep(system: TransferSystem) -> float:
    """Fixed step of every trajectory, before :func:`step_plan` shrinks it (s).

    ``0.03 / max(g_om, g_em, kappa)``, capped at 0.05 * 2 pi / half_bandwidth:
    the comb rotation is exact, but the stages sample the emitter's drive of
    every mode, which must stay resolved at the fastest detuning.
    """
    bound = MAX_STEP_FRACTION * TWO_PI / system.half_bandwidth
    rate = max(system.g_om, system.g_em, system.kappa)
    return min(_DT_RATE_FRACTION / rate, bound) if rate > 0 else bound


def step_plan(system: TransferSystem, duration: float):
    """``(n_steps, dt)`` that lands an integer number of steps on ``duration``.

    ``n_steps = ceil(duration / dt)`` for the :func:`default_timestep`,
    which is then shrunk to ``duration / n_steps``.  The duration is
    checked against the comb's revival before any step is counted, so a
    run past the revival is refused as such however many steps it takes.

    Raises
    ------
    ConfigError
        If the duration is negative or NaN, runs into the discretization
        revival, or takes more than :data:`MAX_STEPS` steps.
    """
    if not duration >= 0:
        raise ConfigError("duration must be nonnegative")
    if duration > _REVIVAL_SAFETY * system.revival_time:
        raise ConfigError(
            f"duration {duration:.3e} s runs into the discretization revival "
            f"at {system.revival_time:.3e} s; shorten the duration"
        )
    # the system's checks keep the rates finite and the comb's half width in
    # (0, inf), so the step lies in (0, inf]
    dt = default_timestep(system)
    if duration == 0.0:
        return 0, dt
    if duration / dt > MAX_STEPS:
        raise ConfigError(
            f"{duration:.3e} s at dt = {dt:.3e} s takes more than "
            f"{MAX_STEPS:.0e} steps"
        )
    n_steps = max(1, math.ceil(duration / dt))
    return n_steps, duration / n_steps


def _step_map(system: TransferSystem, dt: float, rot_h_sum: float) -> np.ndarray:
    """One Lawson RK4 step, in the turned frame, as a 6 x 6 matrix.

    Maps (x1, x2, x3, s0, s1, s2), the bright amplitudes and the comb sums
    s_p = sum_j rot_h_j^p c_wj, to the stage scalars (q0, q1, q2) of the
    comb update c <- rot (c + q0) + rot_h q1 + q2 and the next bright
    amplitudes, in that order (:func:`_block_map` lays its rows out so).
    The integrating factor holds the comb rotation, the frame's turn
    exp(i delta_w t / 2) of every amplitude and the decay exp(-Gamma t / 2)
    of the phonon and circuit amplitudes (d per half step), so the stages
    see only the couplings.  The comb's share of those is the uniform drive
    -kappa' c1, so each stage needs one comb sum: that of
    rot_h (c - kp x1 h/2), rot_h c - kp u1 h/2 or rot c - kp rot_h v1 h.
    ``rot_h_sum`` is sum_j rot_h_j.
    """
    import numpy as np

    g1, g2, kp = system.g_om, system.g_em, system.kappa_prime
    half, sixth = 0.5 * dt, dt / 6.0
    kp_rot_h = kp * rot_h_sum
    kp_n = kp * system.mode_count
    # half-step integrating factors of the three bright amplitudes
    losses = np.array([0.0, system.gamma_m, system.gamma_lc])
    d = np.exp(0.25 * dt * (1j * system.mode_spacing - losses))[:, None]
    coupling = -1j * np.array([[0.0, g1, 0.0], [g1, 0.0, g2], [0.0, g2, 0.0]])

    def rates(a, comb_sum):
        r = coupling @ a
        r[0] += kp * comb_sum
        return r

    # the step is linear: run it on the six unit inputs at once, as columns
    x, (s0, s1, s2) = np.split(np.eye(6), 2)
    a = rates(x, s0)
    u = d * (x + half * a)
    b = rates(u, s1 - half * kp_rot_h * x[0])
    v = d * x + half * b
    e = rates(v, s1 - half * kp_n * u[0])
    w = d * (d * x + dt * e)
    f = rates(w, s2 - dt * kp_rot_h * v[0])
    q = -sixth * kp * np.array([x[0], 2.0 * (u[0] + v[0]), w[0]])
    return np.vstack((q, d * (d * (x + sixth * a) + 2.0 * sixth * (b + e)) + sixth * f))


#: the tables of the last comb and step, keyed by (mode_spacing,
#: mode_count, dt); one entry, dropped before the next is built, so two
#: tables never live at once
_held_tables = {}


def _comb_tables(system: TransferSystem, dt: float):
    """The read-only :func:`_build_comb_tables` of the system's comb at step ``dt``.

    They depend on (mode_spacing, mode_count, dt) alone, so the runs of a
    scan on one comb and step share them: they are built at the first and
    held until a run on another comb or step.
    """
    key = (system.mode_spacing, system.mode_count, dt)
    if key not in _held_tables:
        _held_tables.clear()
        _held_tables[key] = _build_comb_tables(system, dt)
    return _held_tables[key]


def _build_comb_tables(system: TransferSystem, dt: float):
    """``(pairs, kernel, sums, form)``: one comb and step, read-only.

    Row p (p = 0..2 _BLOCK) of ``pairs`` is rot_h^p of the lower half of
    the turned comb, mode i at (i - (N - 1) / 2) delta_w, whose conjugate
    partner is mode N - 1 - i: the one table that both the comb read and
    the comb write of :func:`_advance` take.  The kernel
    G(p) = sum_j rot_h_j^p over the whole comb is 2 Re sum pairs[p].
    ``sums`` is the Toeplitz read of the comb sums (:func:`_block_map`) and
    ``form`` the |c|^2 gain form (:func:`_read_chunk`).
    """
    import numpy as np

    n_pow = 2 * _BLOCK + 1
    n_pairs = system.mode_count // 2
    rot_h = np.exp(-0.5j * dt * system.mode_spacing * (np.arange(n_pairs) - (n_pairs - 0.5)))
    pairs = np.empty((n_pow, n_pairs), dtype=complex)
    pairs[0] = 1.0
    for p in range(1, n_pow):
        np.multiply(pairs[p - 1], rot_h, out=pairs[p])
    g = 2.0 * pairs.sum(axis=1).real
    lags = np.subtract.outer(np.arange(n_pow), np.arange(n_pow))
    # row a: G(a - e) on the injections in row e, then F_a itself; complex,
    # so that its products with the block map's complex chain cast nothing
    sums = np.hstack((np.tril(g[np.abs(lags)]), np.eye(n_pow))).astype(complex)
    # the |c|^2 gain of a step is Re(u^H K u) for u = (q, s), with
    # K = [[T, 1], [1, 0]], T[a, b] = G(a - b); ``form`` holds K transposed
    # for row-wise u, and G is real
    form = np.zeros((6, 6), dtype=complex)
    form[:3, :3] = g[np.abs(lags[:3, :3])]
    form[:3, 3:] = form[3:, :3] = np.eye(3)
    tables = pairs, g, sums, form
    for table in tables:
        table.flags.writeable = False
    return tables


def _block_map(step_map: np.ndarray, sums: np.ndarray, lengths):
    """``_BLOCK`` = B steps of ``step_map`` as linear maps of one block input.

    The input is z = (x1, x2, x3, F_0..F_2B): the bright amplitudes and the
    comb read F_p at the block start, which is sum_j rot_h_j^p c_wj divided
    by sqrt 2 (:func:`_advance`).  After k steps the comb is
    rot_h^2k c + sum_p h_p rot_h^p, where q_i of step m sits at exponent
    2 (k - m) - i, so the comb sums of step k are the comb's sums at the
    block start, index 2k + i, plus the kernel term sum_p h_p G(p + i) of
    the block's own injections: row 2k + i of ``sums``
    (:func:`_build_comb_tables`).  ``step_map`` is :func:`_step_map`,
    whose outputs are (q0, q1, q2, x1, x2, x3).

    Returns ``steps`` (9 B, 2B + 4), whose nine rows for step k are the
    bright amplitudes after it, its stage scalars (q0, q1, q2) and its comb
    sums (s0, s1, s2), and ``combs``, which maps each block length L in
    ``lengths`` to the block's output (2B + 4, 2B + 4) after L steps: the
    bright amplitudes and sqrt 2 h, the injections as the pairs take them,
    in chain order: slot j (j = 0..2L) holds h_(2L - j), so the write reads
    the pair table backwards.  ``steps`` is causal: the first L steps of a
    block need only their first 9 L rows.
    """
    import numpy as np

    n_pow = 2 * _BLOCK + 1
    width = 3 + n_pow
    # rows (q_(k-1), x_k, s_k) per step k: step k reads x_k and s_k as one
    # slice and writes (q_k, x_(k+1)) at the head of step k + 1's rows
    rows = np.zeros((_BLOCK + 1, 9, width), dtype=complex)
    np.fill_diagonal(rows[0, 3:6], 1.0)
    # q_i of step m accumulates in row 2m + i, so h_p after k steps is row
    # 2k - p; the rows below hold the comb's sums at the block start
    chain = np.zeros((2 * n_pow, width), dtype=complex)
    np.fill_diagonal(chain[n_pow:, 3:], math.sqrt(2.0))
    combs = {}
    for k in range(_BLOCK):
        np.dot(sums[2 * k : 2 * k + 3], chain, out=rows[k, 6:])
        np.dot(step_map, rows[k, 3:], out=rows[k + 1, :6])
        chain[2 * k : 2 * k + 3] += rows[k + 1, :3]
        if k + 1 in lengths:
            combs[k + 1] = carry = np.zeros((width, width), dtype=complex)
            carry[:3] = rows[k + 1, 3:6]
            carry[3 : 2 * k + 6] = math.sqrt(2.0) * chain[: 2 * k + 3]
    # step k's rows in the order (x_(k+1), q_k, s_k)
    order = rows[1:, 3:6], rows[1:, :3], rows[:-1, 6:]
    return np.concatenate(order, axis=1).reshape(-1, width), combs


def _advance(
    system: TransferSystem,
    y: np.ndarray,
    dt: float,
    n_steps: int,
    record_every: int,
):
    """The stepping core: ``n_steps`` Lawson RK4 steps of ``dt`` from ``y``.

    Runs in blocks of ``_BLOCK`` = B steps on the turned comb in its pair
    basis.  The lower half's mode c_a and its conjugate partner c_b
    (:func:`_build_comb_tables`) are held as
    w = (conj(c_a) + c_b, i (conj(c_a) - c_b)) / sqrt 2, which keeps |c|^2
    and turns by conj(rot_h_a) in both entries, and its comb sums
    rot_h_a^p c_a + conj(rot_h_a^p) c_b are real products of w.  So a block
    reads the comb once, as the real product of the table P of rot_h^p
    (``pairs``) with w, and writes it once, as
    w <- conj(P[2L]) (w + sqrt 2 (Re h', Im h') P), one more real product
    with the same table, where h'_j = h_(2L - j) holds the injections in
    reverse order (:func:`_block_map`): since |rot_h| = 1, conj(P[p]) =
    P[2L - p] conj(P[2L]), so this is conj(P[2L]) w + sqrt 2 sum_p
    (Re h_p, Im h_p) conj(P[p]).  The tables are shared with the runs
    before it on the same comb and step (:func:`_comb_tables`).  Two
    precomputed maps (:func:`_block_map`) take the block input to the
    bright amplitudes, stage scalars and comb sums of all its L steps, and
    to what the block carries over: the bright amplitudes and the
    injections h.  The block writes those step rows into a buffer of
    ``_CHUNK`` blocks, the first of which also takes |c|^2 (one ``vdot``);
    nothing else is read while stepping.  A full buffer, or the last, is
    read by :func:`_read_chunk`.  The final amplitudes are turned back by
    exp(-i delta_w t / 2), into the caller's frame.

    Returns the final amplitude vector and the samples ``(t, |c1|^2,
    |c2|^2, |c3|^2, survival, fidelity)``, one row each, at step 0 and at
    each step i with ``i % record_every == 0 or i == n_steps``
    (``record_every`` >= 1).
    """
    import numpy as np

    pairs, kernel, sums, form = _comb_tables(system, dt)
    # the comb injections are needed at the block lengths this run takes
    steps, combs = _block_map(
        _step_map(system, dt, kernel[1]), sums, {min(_BLOCK, n_steps), n_steps % _BLOCK}
    )
    # each block length's rotation, the same shape as w: a broadcast row
    # multiplies at a third of the speed
    turns = {size: pairs[2 * size].conj()[None].repeat(2, 0) for size in combs}
    n_pairs = pairs.shape[1]

    # two block inputs z = (x, F) that the blocks take in turn: a block's
    # carry product writes (x, sqrt 2 h) into the other, whose F slot the
    # write product reads h from before the next block's read overwrites it
    here, there = [
        (z, f := z[3:].view(float).reshape(-1, 2), f.T)
        for z in np.empty((2, steps.shape[1]), dtype=complex)
    ]
    w = np.empty((2, n_pairs), dtype=complex)
    w_real = w.view(float)
    w_cols, gain = w_real.T, np.empty_like(w_real)
    pairs_real = pairs.view(float)

    # entry 3 + k of y, below zero detuning, pairs with entry N + 2 - k
    low, high = y[3 : 3 + n_pairs].conj(), y[: 2 + n_pairs : -1]
    w[0] = (low + high) / math.sqrt(2.0)
    w[1] = 1j * (low - high) / math.sqrt(2.0)
    here[0][:3] = y[:3]
    chunk = np.empty((_CHUNK, 9 * _BLOCK), dtype=complex)
    p = np.abs(y[:3]) ** 2
    norm = np.vdot(w, w).real
    samples = [[[0.0, *p, p.sum() + norm, norm]]]
    # np.dot: these products are small enough for np.matmul's dispatch to show
    for start in range(0, n_steps, _BLOCK):
        size = min(_BLOCK, n_steps - start)
        b = start // _BLOCK % _CHUNK
        (z, read, _), (z_next, _, h) = here, there
        if not b:
            norm = np.vdot(w, w).real
        np.dot(pairs_real, w_cols, out=read)
        np.dot(steps, z, out=chunk[b])
        np.dot(combs[size], z, out=z_next)
        np.dot(h, pairs_real, out=gain)
        w_real += gain
        np.multiply(w, turns[size], out=w)
        here, there = there, here
        if b == _CHUNK - 1 or start + size == n_steps:
            ran = np.arange(start - b * _BLOCK + 1, start + size + 1)
            picked = np.flatnonzero((ran % record_every == 0) | (ran == n_steps))
            if picked.size:
                samples.append(_read_chunk(chunk, norm, form, picked, ran[picked] * dt))
    low = (w[0] - 1j * w[1]).conj() / math.sqrt(2.0)
    high = (w[0] + 1j * w[1]) / math.sqrt(2.0)
    y = np.concatenate((here[0][:3], low, high[::-1]))
    return y * np.exp(-0.5j * system.mode_spacing * n_steps * dt), np.concatenate(samples)


def _read_chunk(chunk, norm, form, picked, times):
    """Sample rows ``(t, |c1|^2, |c2|^2, |c3|^2, survival, fidelity)`` of one chunk.

    ``chunk`` holds the step rows of consecutive blocks, nine per step: the
    bright amplitudes, the stage scalars q and the comb sums s; ``norm`` is
    |c|^2 at the chunk's start.  ``picked`` indexes the steps to record
    from the chunk's first, in rising order, and ``times`` are their times.
    Since |rot_h| = 1, a step raises |c|^2 by 2 Re(q . conj(s)) + q^H T q
    with T[a, b] = G(a - b), that is by Re(u^H K u) for u = (q, s)
    (``form`` is K transposed), so a step's fidelity is the chunk's start
    norm plus the gains of the chunk's steps up to it.
    """
    import numpy as np

    rows = chunk.reshape(-1, 9)[: picked[-1] + 1]
    u = rows[:, 3:]
    gain = np.einsum("ij,ij->i", u.conj(), u @ form).real
    fidelity = norm + np.cumsum(gain)[picked]
    p = np.abs(rows[picked, :3]) ** 2
    return np.column_stack((times, p, p.sum(axis=1) + fidelity, fidelity))


class TrajectoryRecord(NamedTuple):
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
        import numpy as np

        crossed = np.flatnonzero(self.fidelity >= level)
        return float(self.times[crossed[0]]) if crossed.size else math.nan


def integrate(
    system: TransferSystem, duration: float, record_every: int = 1
) -> TrajectoryRecord:
    """Integrate from the loaded microwave photon and record populations.

    The step is shrunk so an integer number of steps lands exactly on
    ``duration`` (see :func:`step_plan`); populations are recorded every
    ``record_every`` steps (the initial and final points always included),
    an integer >= 1; one above the step count records those two alone.
    """
    import numpy as np

    try:
        record_every = operator.index(record_every)
    except TypeError:
        raise ConfigError(f"record_every must be an integer, not {record_every!r}") from None
    if record_every < 1:
        raise ConfigError("record_every must be >= 1")
    n_steps, dt = step_plan(system, duration)
    # the microwave photon loaded: c3 = 1, everything else empty
    y = np.zeros(system.size, dtype=complex)
    y[2] = 1.0
    # the clamp keeps the stride's modulus inside int64 for any stride
    y, samples = _advance(system, y, dt, n_steps, min(record_every, n_steps + 1))
    return TrajectoryRecord(*samples.T, final_amplitudes=y)


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
    required = max(_BANDWIDTH_KAPPAS * kappa, math.sqrt(2.0) * g_max + 3.5 * kappa)
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


def _thermal_rate(rate: float, n_bar: float) -> float:
    """``rate (n_bar + 1)``; a zero rate stays zero, also at an infinite ``n_bar``."""
    return rate * (1.0 + n_bar) if rate else rate


def make_transfer_system(
    g_c: float,
    kappa: float,
    gamma_m: float = 0.0,
    gamma_lc: float = 0.0,
    temperature: float = 0.0,
    mode_frequency: float = TWO_PI * 5e9,
    optical_frequency: float = math.inf,
) -> TransferSystem:
    """Matched-coupling system with thermal factors applied to every rate.

    One rule for all three baths: each nonzero decay rate is multiplied by
    (n_bar + 1), with n_bar its bath's Bose occupation at the bath's own
    frequency and the given temperature, before the generator is built (a
    zero rate stays zero, also where n_bar overflows to inf).  The mechanical and circuit
    baths sit at ``mode_frequency``, the optical one at
    ``optical_frequency``; its default, inf, means no optical line, whose
    occupation is exactly zero at every finite temperature.  The photon
    comb is the :func:`default_discretization` of ``g_c`` and the enhanced
    optical decay, so it is wide enough for the decay actually integrated.
    """
    n_mode = thermal_occupation(mode_frequency, temperature)
    kappa = _thermal_rate(kappa, thermal_occupation(optical_frequency, temperature))
    mode_spacing, mode_count = default_discretization(g_c, kappa)
    return TransferSystem(
        g_om=g_c,
        g_em=g_c,
        kappa=kappa,
        gamma_m=_thermal_rate(gamma_m, n_mode),
        gamma_lc=_thermal_rate(gamma_lc, n_mode),
        mode_spacing=mode_spacing,
        mode_count=mode_count,
    )
