"""In-memory span recorder for the traced benchmark pass, and its per-layer summary.

The tracer wraps public functions of ``transducer_sim`` at the module
attributes through which ``runner`` and ``cli`` call them, so nothing in
the package changes.  Each call records a span (id, parent id, name,
start, end, attributes); spans stay in memory and are written out once the
pass has ended.  A span's self time is its duration minus that of its
direct children, so the self times of all spans add up to the root span.
Counts (steps, modes, rows, bytes) are derived from the arguments and
return values of the wrapped calls, outside the timed interval.
"""

from __future__ import annotations

import functools
import math
import os
import time

#: per-layer metrics reported by a traced run, with their units
PER_LAYER = {
    "config.parse_s": "s",
    "config.parse_calls": "count",
    "mechanics.solve_s": "s",
    "mechanics.solve_calls": "count",
    "mechanics.solve_us_per_call": "us",
    "mechanics.pull_in_rows": "count",
    "circuit.match_s": "s",
    "circuit.match_calls": "count",
    "circuit.tuning_error_rows": "count",
    "coupling.rates_s": "s",
    "coupling.rates_calls": "count",
    "dynamics.build_s": "s",
    "dynamics.integrate_s": "s",
    "dynamics.integrate_calls": "count",
    "dynamics.steps": "count",
    "dynamics.modes": "count",
    "dynamics.us_per_step": "us",
    "dynamics.samples": "count",
    "dynamics.shared_comb_frac": "ratio",
    "dynamics.fidelity_err": "ratio",
    "runner.self_s": "s",
    "runner.rows": "count",
    "runner.not_reached_rows": "count",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.csv_bytes": "bytes",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

#: span name -> metric holding the summed self time of those spans
_SELF_METRIC = {
    "bench": "bench.self_s",
    "cli": "cli.self_s",
    "config.parse": "config.parse_s",
    "runner": "runner.self_s",
    "mechanics.solve": "mechanics.solve_s",
    "circuit.match": "circuit.match_s",
    "coupling.rates": "coupling.rates_s",
    "dynamics.build": "dynamics.build_s",
    "dynamics.integrate": "dynamics.integrate_s",
    "cli.write": "cli.write_s",
}


class Tracer:
    """Stack of open spans plus the list of finished ones."""

    def __init__(self):
        self.spans = []
        self._stack = []
        #: (span, system, duration, record) of every dynamics.integrate call
        self.trajectories = []

    def open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1][0] if self._stack else None, name, 0.0, 0.0, {}]
        self.spans.append(span)
        self._stack.append(span)
        span[3] = time.perf_counter()
        return span

    def close(self, span: list):
        span[4] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording a ``name`` span; ``describe`` adds attributes after the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if describe is not None:
                describe(span, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries as ``runner`` and ``cli`` call them."""
    from transducer_sim import cli, config, dynamics, mechanics, runner
    from transducer_sim import circuit as circuit_mod

    def describe_table(span, args, kwargs, table):
        statuses = table.column("status") if ("status", "-") in table.columns else []
        span[5]["rows"] = len(table.rows)
        for status in ("pull_in", "tuning_error", "not_reached"):
            span[5][status] = statuses.count(status)

    def describe_integrate(span, args, kwargs, record):
        system, duration = args[0], args[1] if len(args) > 1 else kwargs["duration"]
        dt = kwargs.get("dt", args[2] if len(args) > 2 else None)
        if dt is None:
            dt = dynamics.default_timestep(system)
        steps = max(1, math.ceil(duration / dt)) if duration > 0 else 0
        span[5].update(
            steps=steps,
            modes=system.mode_count,
            samples=len(record.times),
            comb=[system.mode_spacing, system.mode_count, duration / steps if steps else 0.0],
        )
        tracer.trajectories.append((span, system, duration, record))

    def describe_write(span, args, kwargs, result):
        span[5]["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    runs = {}
    for name in ("run_mechanics_sweep", "run_coupling_sweep", "run_transfer", "run_environment_scan"):
        runs[name] = tracer.wrap("runner", getattr(runner, name), describe_table)
        setattr(runner, name, runs[name])
    # cli dispatches through its command table, which holds the runner functions
    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = runs[fn.__name__]

    parse = tracer.wrap("config.parse", config.parse_config)
    cli.parse_config = parse
    config.parse_config = parse
    mechanics.solve_equilibrium = tracer.wrap("mechanics.solve", mechanics.solve_equilibrium)
    circuit_mod.matched_circuit = tracer.wrap("circuit.match", circuit_mod.matched_circuit)
    circuit_mod.electromechanical_coupling = tracer.wrap(
        "coupling.rates", circuit_mod.electromechanical_coupling
    )
    runner.strain_coupling = tracer.wrap("coupling.rates", runner.strain_coupling)
    runner.stark_coupling = tracer.wrap("coupling.rates", runner.stark_coupling)
    dynamics.make_transfer_system = tracer.wrap("dynamics.build", dynamics.make_transfer_system)
    dynamics.integrate = tracer.wrap("dynamics.integrate", dynamics.integrate, describe_integrate)
    runner.ResultTable.write = tracer.wrap("cli.write", runner.ResultTable.write, describe_write)


def summarize(spans: list) -> dict:
    """Per-layer metrics of one traced pass from its spans (root span: ``bench``)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[4] - span[3]
    out = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_frac"}
    calls = {}
    for span, children in zip(spans, child_time):
        _, _, name, start, end, attrs = span
        out[_SELF_METRIC[name]] += (end - start) - children
        calls[name] = calls.get(name, 0) + 1
        if name == "runner":
            out["runner.rows"] += attrs.get("rows", 0)
            out["mechanics.pull_in_rows"] += attrs.get("pull_in", 0)
            out["circuit.tuning_error_rows"] += attrs.get("tuning_error", 0)
            out["runner.not_reached_rows"] += attrs.get("not_reached", 0)
        elif name == "dynamics.integrate":
            out["dynamics.steps"] += attrs.get("steps", 0)
            out["dynamics.samples"] += attrs.get("samples", 0)
        elif name == "cli.write":
            out["cli.csv_bytes"] += attrs.get("bytes", 0)
        elif name == "bench":
            out["trace.wall_s"] += end - start

    out["config.parse_calls"] = calls.get("config.parse", 0)
    out["mechanics.solve_calls"] = calls.get("mechanics.solve", 0)
    out["circuit.match_calls"] = calls.get("circuit.match", 0)
    out["coupling.rates_calls"] = calls.get("coupling.rates", 0)
    out["dynamics.integrate_calls"] = calls.get("dynamics.integrate", 0)
    if out["mechanics.solve_calls"]:
        out["mechanics.solve_us_per_call"] = 1e6 * out["mechanics.solve_s"] / out["mechanics.solve_calls"]
    if out["dynamics.steps"]:
        out["dynamics.us_per_step"] = 1e6 * out["dynamics.integrate_s"] / out["dynamics.steps"]

    trajectories = [s for s in spans if s[2] == "dynamics.integrate" and s[5]]
    if trajectories:
        out["dynamics.modes"] = sum(s[5]["modes"] for s in trajectories) / len(trajectories)
        # a trajectory shares its comb when another one of the same runner
        # call has the same comb spacing, mode count and step
        keys = [(s[1], tuple(s[5]["comb"])) for s in trajectories]
        shared = sum(1 for key in keys if keys.count(key) > 1)
        out["dynamics.shared_comb_frac"] = shared / len(trajectories)
    return out
