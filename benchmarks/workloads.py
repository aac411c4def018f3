"""Seeded config documents for the three benchmark workloads.

The program under test only ever sees the documents generated here.  A
seed chooses *which* points a workload visits, never *how much* work it
is: point counts vary but their total is fixed, and endpoints move inside
narrow ranges, so runs with different seeds take comparable time and the
spread between them measures the machine, not the inputs.  See README.md
for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("statics_sweep", "transfer_benchmarks", "scan_temperature")

DEVICE = """\
[geometry]
length_m = 110e-9
width_m = 1e-6
thickness_m = 1.1e-9
youngs_modulus_pa = 1000e9

[circuit]
gap_m = 10e-9
bias_voltage_v = {bias}
"""

EMITTER = """
[emitter]
zpl_wavelength_m = 600e-9
optical_decay_hz = 53e6
strain_shift_mev_per_percent = 5.0
stark_shift_mev_per_v_per_m = 5.25e-8
"""

SIMULATION = """
[simulation]
g_c_hz = {g_c}
kappa_hz = 50e6
gamma_m_hz = 100e3
gamma_lc_hz = 100e3
temperature_k = 0.05
mode_frequency_hz = 5e9
duration_s = {duration}
"""

SWEEP = """
[sweep]
variable = {variable}
start = {start}
stop = {stop}
points = {points}
spacing = {spacing}
"""

#: the paper's four transfer trajectories: g_c/2pi (Hz) -> (duration s,
#: saturated fidelity as printed in the paper)
TRANSFER_CASES = {
    5e6: (2e-6, 0.905),
    20e6: (400e-9, 0.990),
    50e6: (200e-9, 0.995),
    200e6: (120e-9, 0.996),
}

#: statics sweeps: name -> (command, variable, spacing, bias V,
#: start range, stop range); every sweep gets 400 +- 8 points, 1600 in all
STATICS_SWEEPS = {
    "mechanics_bias": ("mechanics", "bias_voltage", "linear", 0.0, (0.0, 0.1), (5.9, 6.0)),
    "mechanics_thickness": ("mechanics", "thickness", "log", 3.3, (0.30e-9, 0.32e-9), (95e-9, 100e-9)),
    "couplings_bias": ("couplings", "bias_voltage", "linear", 0.0, (0.0, 0.1), (5.9, 6.0)),
    "couplings_displacement": ("couplings", "displacement", "linear", 0.0, (0.0, 0.1e-9), (8.8e-9, 9.0e-9)),
}
STATICS_POINTS = 1600
STATICS_POINT_JITTER = 8

#: temperature scan: g_c = kappa = 2 pi 50 MHz for 50 ns, 20 points
SCAN_POINTS = 20
SCAN_START_RANGE = (0.05, 0.08)
SCAN_STOP_RANGE = (0.95, 1.0)


@dataclass(frozen=True)
class Call:
    """One operation of a workload: a subcommand run on one config document."""

    name: str
    command: str   # mechanics | couplings | transfer | scan
    document: str


def _num(x: float) -> str:
    return format(x, ".6g")


def _draw(rng: random.Random, bounds) -> str:
    return _num(rng.uniform(*bounds))


def _statics(rng: random.Random):
    names = list(STATICS_SWEEPS)
    counts = [
        STATICS_POINTS // len(names) + rng.randint(-STATICS_POINT_JITTER, STATICS_POINT_JITTER)
        for _ in names[:-1]
    ]
    counts.append(STATICS_POINTS - sum(counts))
    calls = []
    for name, points in zip(names, counts):
        command, variable, spacing, bias, start_range, stop_range = STATICS_SWEEPS[name]
        text = DEVICE.format(bias=bias) + EMITTER + SWEEP.format(
            variable=variable,
            start=_draw(rng, start_range),
            stop=_draw(rng, stop_range),
            points=points,
            spacing=spacing,
        )
        calls.append(Call(name, command, text))
    return calls


def _transfer(rng: random.Random):
    # The paper fixes every parameter; the seed only permutes the order.
    order = list(TRANSFER_CASES)
    rng.shuffle(order)
    return [
        Call(
            f"transfer_{g_c / 1e6:g}MHz",
            "transfer",
            DEVICE.format(bias=3.3)
            + SIMULATION.format(g_c=_num(g_c), duration=_num(TRANSFER_CASES[g_c][0])),
        )
        for g_c in order
    ]


def _scan(rng: random.Random):
    text = DEVICE.format(bias=3.3) + SIMULATION.format(g_c="50e6", duration="50e-9") + SWEEP.format(
        variable="temperature",
        start=_draw(rng, SCAN_START_RANGE),
        stop=_draw(rng, SCAN_STOP_RANGE),
        points=SCAN_POINTS,
        spacing="linear",
    )
    return [Call("scan_temperature", "scan", text)]


_GENERATORS = {
    "statics_sweep": _statics,
    "transfer_benchmarks": _transfer,
    "scan_temperature": _scan,
}


def generate(workload: str, seed: int) -> list:
    """The workload's calls for ``seed``; the same seed gives identical documents."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def check_generator(workload: str, seed: int) -> list:
    """Problems with the generator's determinism and ranges (empty when sound)."""
    problems = []
    calls = generate(workload, seed)
    if calls != generate(workload, seed):
        problems.append("same seed gave different config documents")
    if workload == "transfer_benchmarks":
        if sorted(c.document for c in calls) != sorted(
            c.document for c in generate(workload, seed + 1)
        ):
            problems.append("transfer documents depend on the seed")
        return problems
    if [c.document for c in calls] == [c.document for c in generate(workload, seed + 1)]:
        problems.append("a different seed gave the same sweep points")
    if workload == "statics_sweep":
        total = 0
        for call in calls:
            sweep = sweep_fields(call.document)
            _, _, _, _, start_range, stop_range = STATICS_SWEEPS[call.name]
            total += int(sweep["points"])
            if not start_range[0] <= float(sweep["start"]) <= start_range[1]:
                problems.append(f"{call.name}: start outside {start_range}")
            if not stop_range[0] <= float(sweep["stop"]) <= stop_range[1]:
                problems.append(f"{call.name}: stop outside {stop_range}")
        if total != STATICS_POINTS:
            problems.append(f"statics sweeps have {total} points, not {STATICS_POINTS}")
    else:
        sweep = sweep_fields(calls[0].document)
        if not SCAN_START_RANGE[0] <= float(sweep["start"]) <= SCAN_START_RANGE[1]:
            problems.append(f"scan start outside {SCAN_START_RANGE}")
        if not SCAN_STOP_RANGE[0] <= float(sweep["stop"]) <= SCAN_STOP_RANGE[1]:
            problems.append(f"scan stop outside {SCAN_STOP_RANGE}")
    return problems


def sweep_fields(document: str) -> dict:
    section = document.split("[sweep]", 1)[1]
    return dict(
        (key.strip(), value.strip())
        for key, value in (line.split("=", 1) for line in section.splitlines() if "=" in line)
    )


def point_count(calls) -> int:
    """Sweep points or trajectories a pass over ``calls`` completes."""
    total = 0
    for call in calls:
        if call.command == "transfer":
            total += 1
        else:
            total += int(sweep_fields(call.document)["points"])
    return total
