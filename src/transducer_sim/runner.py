"""Experiment runner: parameter sweeps and trajectory runs over the physics modules.

Each run function takes a parsed :class:`ExperimentConfig` and returns a
:class:`ResultTable` with one row per sweep point, in sweep order.  Rows
where the physics refuses (pull-in, tuning, unstable equilibrium,
threshold not reached) are flagged in a status column instead of aborting
the sweep; a statics point that leaves the float range is a config error.
Trajectory runs write their step plan and photon comb into the provenance
header.
"""

from __future__ import annotations

import math

from . import circuit as circuit_mod
from . import dynamics, mechanics
from .config import ExperimentConfig
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


def _require_sweep(config: ExperimentConfig, allowed):
    if config.sweep is None:
        raise ConfigError("this run needs a [sweep] section", "sweep")
    if config.sweep.variable not in allowed:
        raise ConfigError(
            f"sweep variable must be one of {', '.join(allowed)}", "sweep", "variable"
        )
    return config.sweep.values()


def _statics_rows(variable: str, values, one) -> list:
    """``one(value)`` for each sweep value, in order.

    A point whose statics leave the float range raises an
    ``ArithmeticError``: an overflow, a division by an underflowed zero, or
    the ``FloatingPointError`` of an operating point or a rate that is not
    finite.  It is refused as a config error that names the point.
    """
    rows = []
    for value in values:
        try:
            rows.append(one(value))
        except ArithmeticError:
            raise ConfigError(
                f"the statics at {variable} = {value:g} leave the float range; "
                f"check the [geometry], [circuit] and [emitter] values"
            ) from None
    return rows


def run_mechanics_sweep(config: ExperimentConfig) -> ResultTable:
    """Deflection, tension and mode frequency versus thickness or bias."""
    values = _require_sweep(config, ("thickness", "bias_voltage"))
    variable = config.sweep.variable
    unit = "m" if variable == "thickness" else "V"

    def one(value):
        geom, env = config.geometry, config.environment
        if variable == "thickness":
            geom = geom._replace(thickness=value)
        else:
            env = mechanics.ElectrostaticEnvironment(gap=env.gap, bias_voltage=value)
        try:
            op = mechanics.solve_equilibrium(geom, env)
        except PullInError:
            return (value, math.nan, math.nan, math.nan, STATUS_PULL_IN)
        return (
            value,
            op.deflection,
            op.tension,
            op.mech_frequency / TWO_PI,
            STATUS_OK,
        )

    return ResultTable(
        columns=[
            (variable, unit),
            ("deflection", "m"),
            ("tension", "N"),
            ("frequency", "Hz"),
            ("status", "-"),
        ],
        rows=_statics_rows(variable, values, one),
        meta={"config_sha256": config.config_hash, "run": "mechanics"},
    )


def run_coupling_sweep(config: ExperimentConfig) -> ResultTable:
    """Electromechanical and both optomechanical rates versus bias or deflection."""
    values = _require_sweep(config, ("bias_voltage", "displacement"))
    variable = config.sweep.variable
    unit = "V" if variable == "bias_voltage" else "m"
    geom = config.geometry

    def one(value):
        try:
            if variable == "bias_voltage":
                env = mechanics.ElectrostaticEnvironment(
                    gap=config.environment.gap, bias_voltage=value
                )
                op = mechanics.solve_equilibrium(geom, env)
            else:
                gap = config.environment.gap
                if value >= gap:
                    raise ConfigError(
                        "displacement sweep reaches the electrode gap", "sweep"
                    )
                env = mechanics.ElectrostaticEnvironment(
                    gap=gap,
                    bias_voltage=mechanics.bias_for_deflection(geom, gap, value),
                )
                # the bias that balances the forces here cannot hold the sheet
                if mechanics.net_stiffness(geom, env, value) <= 0.0:
                    return (value, math.nan, math.nan, math.nan, STATUS_UNSTABLE)
                op = mechanics.operating_point_at_deflection(geom, value)
            circ = circuit_mod.matched_circuit(
                geom,
                op,
                gap=env.gap,
                bias_voltage=env.bias_voltage,
                inductance=config.inductance,
            )
        except PullInError:
            return (value, math.nan, math.nan, math.nan, STATUS_PULL_IN)
        except TuningError:
            return (value, math.nan, math.nan, math.nan, STATUS_TUNING)
        g_em = circuit_mod.electromechanical_coupling(op, circ, geom)
        g_om1 = strain_coupling(op, geom, config.emitter)
        g_om2 = stark_coupling(op, env, config.emitter)
        if not (math.isfinite(g_em) and math.isfinite(g_om1) and math.isfinite(g_om2)):
            raise FloatingPointError("coupling rates are not finite")
        return (value, g_em / TWO_PI, g_om1 / TWO_PI, g_om2 / TWO_PI, STATUS_OK)

    return ResultTable(
        columns=[
            (variable, unit),
            ("g_em", "Hz"),
            ("g_om1", "Hz"),
            ("g_om2", "Hz"),
            ("status", "-"),
        ],
        rows=_statics_rows(variable, values, one),
        meta={"config_sha256": config.config_hash, "run": "couplings"},
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


def run_transfer(config: ExperimentConfig) -> ResultTable:
    """Time series of the state populations for one transfer run."""
    sim = config.simulation
    if sim.g_c is None:
        raise ConfigError("missing required field", "simulation", "g_c_hz")
    if sim.duration is None:
        raise ConfigError("missing required field", "simulation", "duration_s")
    system = _build_system(config, sim.g_c, sim.kappa, sim.temperature)
    info = _trajectory_info(system, sim.duration)
    record = dynamics.integrate(
        system, sim.duration, record_every=max(1, info["steps"] // 500)
    )
    rows = [
        (
            record.times[i],
            record.p_emitter[i],
            record.p_phonon[i],
            record.p_circuit[i],
            record.survival[i],
            record.fidelity[i],
        )
        for i in range(len(record.times))
    ]
    return ResultTable(
        columns=[
            ("time", "s"),
            ("p_emitter", "-"),
            ("p_phonon", "-"),
            ("p_circuit", "-"),
            ("survival", "-"),
            ("fidelity", "-"),
        ],
        rows=rows,
        meta={"config_sha256": config.config_hash, "run": "transfer", **info},
    )


def run_environment_scan(config: ExperimentConfig) -> ResultTable:
    """Saturated fidelity and transfer time versus temperature or optical decay.

    Temperature scans hold g_c and kappa at their configured values; decay
    scans sweep kappa (in Hz) with the coupling slaved to it, g_c = kappa.
    """
    values = _require_sweep(config, ("temperature", "kappa"))
    variable = config.sweep.variable
    sim = config.simulation
    if sim.duration is None:
        raise ConfigError("missing required field", "simulation", "duration_s")
    if variable == "temperature" and sim.g_c is None:
        raise ConfigError("missing required field", "simulation", "g_c_hz")
    unit = "K" if variable == "temperature" else "Hz"

    def one(value):
        if variable == "temperature":
            g_c, kappa, temperature = sim.g_c, sim.kappa, value
        else:
            kappa = TWO_PI * value
            g_c, temperature = kappa, sim.temperature
        system = _build_system(config, g_c, kappa, temperature)
        info = _trajectory_info(system, sim.duration)
        record = dynamics.integrate(system, sim.duration, record_every=1)
        t95 = record.first_time(FIDELITY_THRESHOLD)
        status = STATUS_NOT_REACHED if math.isnan(t95) else STATUS_OK
        row = (value, record.max_fidelity, float(record.survival[-1]), t95, status)
        return row, info

    rows, infos = zip(*[one(value) for value in values])
    # a field shared by every point is written once, else per point in order
    info = {
        key: infos[0][key]
        if all(i[key] == infos[0][key] for i in infos)
        else ";".join(str(i[key]) for i in infos)
        for key in infos[0]
    }
    return ResultTable(
        columns=[
            (variable, unit),
            ("max_fidelity", "-"),
            ("survival", "-"),
            ("time_to_f95", "s"),
            ("status", "-"),
        ],
        rows=list(rows),
        meta={"config_sha256": config.config_hash, "run": "scan", **info},
    )
