"""Experiment runner: parameter sweeps and trajectory runs over the physics modules.

Each run function takes a parsed :class:`ExperimentConfig` and returns a
:class:`ResultTable` with one row per sweep point, in sweep order.  Every
sweep is built by one table helper, ``_sweep_table``, and every statics
point by one path from a sweep value to the device, ``_device_points``
(thickness, bias or displacement), then ``_coupling_rates``; so
``mechanics`` and ``couplings`` give a bias the same verdict.  Rows where
the physics refuses (pull-in, tuning, unstable equilibrium, threshold not
reached) are flagged in a status column instead of aborting the sweep; a
statics point that leaves the float range is a config error.  Trajectory
runs write their step plan and photon comb into the provenance header.
"""

from __future__ import annotations

import math

from . import circuit as circuit_mod
from . import dynamics, mechanics
from .config import _SCHEMA, SWEEP_UNITS, ExperimentConfig
from .constants import TWO_PI
from .coupling import stark_coupling, strain_coupling
from .errors import ConfigError, PullInError, TuningError

SCHEMA_VERSION = 1
FIDELITY_THRESHOLD = 0.95  # reporting threshold for transfer-time columns

STATUS_OK = "ok"
STATUS_PULL_IN = "pull_in"
STATUS_TUNING = "tuning_error"
STATUS_NOT_REACHED = "not_reached"
STATUS_UNSTABLE = "unstable"


class ResultTable:
    """Column-labelled numeric results with a provenance header."""

    def __init__(self, columns: list, rows: list, meta: dict | None = None):
        self.columns = columns      # (name, unit) pairs
        self.rows = rows            # tuples, floats plus a trailing status string
        self.meta = {} if meta is None else meta

    def to_csv_text(self) -> str:
        lines = [f"# transducer-sim results, schema v{SCHEMA_VERSION}"]
        for key in sorted(self.meta):
            lines.append(f"# {key}={self.meta[key]}")
        lines.append("# columns: " + ", ".join(f"{n} [{u}]" for n, u in self.columns))
        lines.append(",".join(name for name, _ in self.columns))
        if self.rows:
            # one format for every row: a status string as is, any number
            # through float() to 17 significant digits
            row_format = ",".join(
                "%s" if isinstance(v, str) else "%.17g" for v in self.rows[0]
            )
            lines.extend(row_format % tuple(row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_text())

    def column(self, name: str) -> list:
        idx = [i for i, (n, _) in enumerate(self.columns) if n == name]
        if not idx:
            raise KeyError(name)
        return [row[idx[0]] for row in self.rows]


def _device_points(config: ExperimentConfig, variable: str):
    """``point(value)``: ``(geometry, environment, operating point)`` at one sweep value.

    Read from the config once per sweep; every solve runs per point.  A
    thickness or bias point is solved for its equilibrium (``PullInError``
    past pull-in).  A displacement point takes the bias that balances the
    forces there; its operating point is None at or past the pull-in fold
    (:func:`mechanics.pull_in_deflection`), where that bias cannot hold the
    sheet (unstable), a displacement that reaches the electrode gap is a
    ``ConfigError``, and one whose bias overflows raises
    ``FloatingPointError``.
    """
    geom, env = config.geometry, config.environment
    gap, inductance = env.gap, env.inductance
    if variable == "thickness":
        # _make builds a sheet in a third of _replace's time, with its checks
        at = geom._fields.index("thickness")
        head, tail = geom[:at], geom[at + 1:]

        def point(value):
            sheet = geom._make((*head, value, *tail))
            return sheet, env, mechanics.solve_equilibrium(sheet, env)

    elif variable == "bias_voltage":

        def point(value):
            biased = mechanics.ElectrostaticEnvironment(gap, value, inductance)
            return geom, biased, mechanics.solve_equilibrium(geom, biased)

    else:
        fold = None  # the pull-in deflection, solved at the first point that needs it

        def point(value):
            nonlocal fold
            if value >= gap:
                raise ConfigError("displacement sweep reaches the electrode gap", "sweep")
            bias = mechanics.bias_for_deflection(geom, gap, value)
            if not math.isfinite(bias):
                raise FloatingPointError("the bias for this deflection is not finite")
            biased = mechanics.ElectrostaticEnvironment(gap, bias, inductance)
            if fold is None:
                fold = mechanics.pull_in_deflection(geom, gap)
            if value >= fold:
                return geom, biased, None
            return geom, biased, mechanics.operating_point_at_deflection(geom, value)

    return point


def _coupling_rates(config: ExperimentConfig, geom, env, op):
    """Angular rates ``(g_em, g_om1, g_om2)`` (rad/s) at one operating point.

    The circuit is matched to the mode; g_om1 is the strain and g_om2 the
    Stark coupling of the emitter.  Raises ``TuningError`` where no
    capacitor matches, and ``FloatingPointError`` where a rate is not finite.
    """
    circ = circuit_mod.matched_circuit(geom, op, env)
    g_em = circuit_mod.electromechanical_coupling(op, circ, geom, env)
    g_om1 = strain_coupling(op, geom, config.emitter)
    g_om2 = stark_coupling(op, env, config.emitter)
    if not (math.isfinite(g_em) and math.isfinite(g_om1) and math.isfinite(g_om2)):
        raise FloatingPointError("coupling rates are not finite")
    return g_em, g_om1, g_om2


def _statics(config: ExperimentConfig, row):
    """``rows(variable, values)`` of a statics sweep: ``row(value, geom, env, op)`` per point.

    Pull-in, tuning and unstable points (no operating point) are NaN rows
    with their status.  Statics that leave the float range raise an
    ``ArithmeticError`` (an overflow, a division by an underflowed zero, an
    operating point or rate that is not finite): a config error naming the point.
    """

    def rows(variable, values):
        point = _device_points(config, variable)
        table = []
        for value in values:
            try:
                geom, env, op = point(value)
                if op is not None:
                    table.append(row(value, geom, env, op))
                    continue
                status = STATUS_UNSTABLE
            except PullInError:
                status = STATUS_PULL_IN
            except TuningError:
                status = STATUS_TUNING
            except ArithmeticError:
                raise ConfigError(
                    f"the statics at {variable} = {value:g} leave the float range; "
                    f"check the [geometry], [circuit] and [emitter] values"
                ) from None
            table.append((value, math.nan, math.nan, math.nan, status))
        return table

    return rows


def _sweep_table(config: ExperimentConfig, run: str, allowed, columns, rows) -> ResultTable:
    """``rows(variable, values)`` over the config's sweep, one row per point in order.

    The sweep must be present and sweep one of ``allowed``.  The table's
    columns are the swept variable in its unit, ``columns`` and the status.
    """
    sweep = config.sweep
    if sweep is None:
        raise ConfigError("this run needs a [sweep] section", "sweep")
    variable = sweep.variable
    if variable not in allowed:
        raise ConfigError(
            f"sweep variable must be one of {', '.join(allowed)}", "sweep", "variable"
        )
    return ResultTable(
        columns=[(variable, SWEEP_UNITS[variable]), *columns, ("status", "-")],
        rows=rows(variable, sweep.values()),
        meta={"config_sha256": config.config_hash, "run": run},
    )


def run_mechanics_sweep(config: ExperimentConfig) -> ResultTable:
    """Deflection, tension and mode frequency versus thickness or bias."""

    def row(value, geom, env, op):
        return (value, op.deflection, op.tension, op.mech_frequency / TWO_PI, STATUS_OK)

    return _sweep_table(
        config,
        "mechanics",
        ("thickness", "bias_voltage"),
        [("deflection", "m"), ("tension", "N"), ("frequency", "Hz")],
        _statics(config, row),
    )


def run_coupling_sweep(config: ExperimentConfig) -> ResultTable:
    """Electromechanical and both optomechanical rates versus bias or deflection."""

    def row(value, geom, env, op):
        g_em, g_om1, g_om2 = _coupling_rates(config, geom, env, op)
        return (value, g_em / TWO_PI, g_om1 / TWO_PI, g_om2 / TWO_PI, STATUS_OK)

    return _sweep_table(
        config,
        "couplings",
        ("bias_voltage", "displacement"),
        [("g_em", "Hz"), ("g_om1", "Hz"), ("g_om2", "Hz")],
        _statics(config, row),
    )


def _build_system(config: ExperimentConfig, g_c: float, kappa: float, temperature: float):
    sim = config.simulation
    return dynamics.make_transfer_system(
        g_c=g_c,
        kappa=kappa,
        gamma_m=sim.gamma_m,
        gamma_lc=sim.gamma_lc,
        temperature=temperature,
        mode_frequency=sim.mode_frequency,
        optical_frequency=config.emitter.zpl_frequency,
    )


def _trajectory_info(system, duration: float) -> dict:
    """Header fields: the step plan and the comb of one trajectory."""
    steps, dt = dynamics.step_plan(system, duration)
    return {
        "dt_s": dt,
        "steps": steps,
        "mode_count": system.mode_count,
        "mode_spacing_hz": system.mode_spacing / TWO_PI,
        "revival_margin": duration / system.revival_time,
    }


def _require(sim, *keys: str):
    """Raise ``ConfigError`` for the first of the ``[simulation]`` ``keys`` left unset."""
    for key in keys:
        if getattr(sim, _SCHEMA["simulation"][key][0]) is None:
            raise ConfigError("missing required field", "simulation", key)


def run_transfer(config: ExperimentConfig) -> ResultTable:
    """Time series of the state populations for one transfer run."""
    sim = config.simulation
    _require(sim, "g_c_hz", "duration_s")
    system = _build_system(config, sim.g_c, sim.kappa, sim.temperature)
    info = _trajectory_info(system, sim.duration)
    record = dynamics.integrate(
        system, sim.duration, record_every=max(1, info["steps"] // 500)
    )
    return ResultTable(
        columns=[
            ("time", "s"),
            ("p_emitter", "-"),
            ("p_phonon", "-"),
            ("p_circuit", "-"),
            ("survival", "-"),
            ("fidelity", "-"),
        ],
        rows=list(zip(*record[:6])),
        meta={"config_sha256": config.config_hash, "run": "transfer", **info},
    )


def run_environment_scan(config: ExperimentConfig) -> ResultTable:
    """Saturated fidelity and transfer time versus temperature or optical decay.

    Temperature scans hold g_c and kappa at their configured values; decay
    scans sweep kappa (in Hz) with the coupling slaved to it, g_c = kappa.
    """
    sim = config.simulation
    infos = []

    def row(variable, value):
        # the run's own fields, checked after the sweep (at its first point)
        if variable == "temperature":
            _require(sim, "duration_s", "g_c_hz")
            g_c, kappa, temperature = sim.g_c, sim.kappa, value
        else:
            _require(sim, "duration_s")
            kappa = TWO_PI * value
            g_c, temperature = kappa, sim.temperature
        system = _build_system(config, g_c, kappa, temperature)
        infos.append(_trajectory_info(system, sim.duration))
        record = dynamics.integrate(system, sim.duration, record_every=1)
        t95 = record.first_time(FIDELITY_THRESHOLD)
        status = STATUS_NOT_REACHED if math.isnan(t95) else STATUS_OK
        return (value, record.max_fidelity, float(record.survival[-1]), t95, status)

    table = _sweep_table(
        config,
        "scan",
        ("temperature", "kappa"),
        [("max_fidelity", "-"), ("survival", "-"), ("time_to_f95", "s")],
        lambda variable, values: [row(variable, value) for value in values],
    )
    # a field shared by every point is written once, else per point in order
    table.meta.update({
        key: infos[0][key]
        if all(i[key] == infos[0][key] for i in infos)
        else ";".join(str(i[key]) for i in infos)
        for key in infos[0]
    })
    return table
