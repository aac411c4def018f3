"""Every bundled config against the CSV recorded for it in ``tests/golden/``.

``COMMANDS`` and ``STATICS`` are the one list of bundled runs.  Each
config reruns in process through the CLI.  The ``#`` header lines, the
column line and every status cell must match exactly, and every numeric
cell within 1e-12 relative, so a change that is meant to leave the
outputs alone is checked here instead of by hand with ``cmp``.  The
statics configs must also match byte for byte, each alone and all four
in one process in either order: their rows come from scalar float
arithmetic alone, with no numpy and no step size, so any moved bit is a
changed solve.  A change that moves an output on purpose rewrites the
golden file and says why.  The CI workflow runs this file after
installing the run-time dependencies and pytest alone, with
``--noconftest`` (``conftest.py`` imports scipy), so it uses no fixture
of ``conftest.py`` and imports nothing beyond the package and pytest.
"""

import math
from pathlib import Path

import pytest

from transducer_sim.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

#: bundled config -> the subcommand it is written for
COMMANDS = {
    "couplings_displacement_sweep": "couplings",
    "couplings_voltage_sweep": "couplings",
    "mechanics_thickness_sweep": "mechanics",
    "mechanics_voltage_sweep": "mechanics",
    "paper_defaults": "transfer",
    "scan_kappa": "scan",
    "scan_temperature": "scan",
}

REL_TOL = 1e-12

#: configs whose output must equal the golden file byte for byte
STATICS = (
    "mechanics_voltage_sweep",
    "mechanics_thickness_sweep",
    "couplings_voltage_sweep",
    "couplings_displacement_sweep",
)


def test_every_bundled_config_has_a_golden_file():
    configs = {path.stem for path in (ROOT / "configs").glob("*.ini")}
    goldens = {path.stem for path in GOLDEN.glob("*.csv")}
    assert configs == goldens == set(COMMANDS) >= set(STATICS)


def run(name, out):
    config = ROOT / "configs" / f"{name}.ini"
    assert main([COMMANDS[name], "--config", str(config), "--out", str(out)]) == EXIT_OK


def cells_agree(expected: str, got: str) -> bool:
    try:
        a, b = float(expected), float(got)
    except ValueError:
        return expected == got  # a status cell
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_bundled_config_matches_golden(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    run(name, out)
    golden = GOLDEN / f"{name}.csv"
    expected = golden.read_text().splitlines()
    got = out.read_text().splitlines()

    def header(lines):
        return [line for line in lines if line.startswith("#")]

    assert header(got) == header(expected)
    expected_rows = [line.split(",") for line in expected if not line.startswith("#")]
    got_rows = [line.split(",") for line in got if not line.startswith("#")]
    assert got_rows[0] == expected_rows[0]  # the column names
    assert len(got_rows) == len(expected_rows)
    for i, (want, have) in enumerate(zip(expected_rows[1:], got_rows[1:]), start=1):
        assert len(have) == len(want), f"row {i}"
        bad = [j for j, (a, b) in enumerate(zip(want, have)) if not cells_agree(a, b)]
        assert not bad, f"row {i}, columns {bad}: {want} != {have}"
    if name in STATICS:
        assert out.read_bytes() == golden.read_bytes()


def test_statics_in_one_process_in_either_order(tmp_path):
    # the per-geometry factors and the fold are held in the process, which
    # a one-command run never shares with another run
    for order in (STATICS, STATICS[::-1]):
        for name in order:
            out = tmp_path / f"{name}.csv"
            run(name, out)
            assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes(), (order, name)


def test_ci_runs_this_file_on_the_run_time_dependencies():
    # the runtime-deps job: its steps up to the next blank line
    job = WORKFLOW.read_text().split("\n  runtime-deps:\n")[1].split("\n\n")[0]
    assert "pip install -e . pytest" in job
    assert "python -m pytest -q --noconftest tests/test_golden.py" in job
