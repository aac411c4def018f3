"""Every bundled config against the CSV recorded for it in ``tests/golden/``.

Each config reruns in process through the CLI.  The ``#`` header lines,
the column line and every status cell must match exactly, and every
numeric cell within 1e-12 relative, so a change that is meant to leave
the outputs alone is checked here instead of by hand with ``cmp``.  The
statics configs must also match byte for byte: their rows come from
scalar float arithmetic alone, with no numpy and no step size, so any
moved bit is a changed solve.  A change that moves an output on purpose
rewrites the golden file and says why.  The CI workflow reruns the same
configs after installing the run-time dependencies alone; its steps are
read here, so they name every golden file and no missing one.
"""

import math
import re
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
STATICS = {
    "couplings_displacement_sweep",
    "couplings_voltage_sweep",
    "mechanics_thickness_sweep",
    "mechanics_voltage_sweep",
}


def test_every_bundled_config_has_a_golden_file():
    configs = {path.stem for path in (ROOT / "configs").glob("*.ini")}
    goldens = {path.stem for path in GOLDEN.glob("*.csv")}
    assert configs == goldens == set(COMMANDS) >= STATICS


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
    config = ROOT / "configs" / f"{name}.ini"
    assert main([COMMANDS[name], "--config", str(config), "--out", str(out)]) == EXIT_OK
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


#: the lines of a ``runtime-deps`` step that runs ``configs/$name.ini`` and
#: checks its CSV against ``tests/golden/$name.csv``: whole, or by header,
#: row count and, for a scan, its status column (the fifth)
RUN_LINE = 'transducer-sim "$command" --config "configs/$name.ini" --out "$RUNNER_TEMP/$name.csv"'
CHECK_LINES = {
    "cmp": ('cmp "$RUNNER_TEMP/$name.csv" "tests/golden/$name.csv"',),
    "diff": (
        """diff <(grep '^#' "$RUNNER_TEMP/$name.csv") <(grep '^#' "tests/golden/$name.csv")""",
        'diff <(wc -l < "$RUNNER_TEMP/$name.csv") <(wc -l < "tests/golden/$name.csv")',
        'if [ "$command" = scan ]; then',
        """diff <(grep -v '^#' "$RUNNER_TEMP/$name.csv" | cut -d, -f5) """
        """<(grep -v '^#' "tests/golden/$name.csv" | cut -d, -f5)""",
        "fi",
    ),
}


def runtime_deps_runs():
    """``{check: {config name: command}}`` of the workflow's ``runtime-deps`` job.

    Each of its steps that loops over ``command:name`` pairs runs
    :data:`RUN_LINE` and all the lines of one of :data:`CHECK_LINES`.
    """
    job = re.search(r"^  runtime-deps:\n(.*?)(?=^  \S|\Z)", WORKFLOW.read_text(), re.M | re.S)
    assert job, "no runtime-deps job"
    runs = {check: {} for check in CHECK_LINES}
    for step in re.split(r"^ +- name: ", job.group(1), flags=re.M)[1:]:
        loop = re.search(r"for run in ([^;]*); do", step)
        if loop is None:
            continue
        lines = {line.strip() for line in step.splitlines()}
        assert RUN_LINE in lines, step
        checks = [check for check, needed in CHECK_LINES.items() if lines >= set(needed)]
        assert len(checks) == 1, step
        (check,) = checks
        for run in loop.group(1).split():
            command, name = run.split(":")
            runs[check][name] = command
    return runs


def test_ci_runs_every_golden_config():
    runs = runtime_deps_runs()
    for name in (*runs["cmp"], *runs["diff"]):
        assert (ROOT / "configs" / f"{name}.ini").is_file(), name
        assert (GOLDEN / f"{name}.csv").is_file(), name
    goldens = {path.stem for path in GOLDEN.glob("*.csv")}
    assert runs["cmp"] == {name: COMMANDS[name] for name in goldens & STATICS}
    assert runs["diff"] == {name: COMMANDS[name] for name in goldens - STATICS}
    # the fifth column that the status check cuts is each scan's status
    for name, command in runs["diff"].items():
        lines = (GOLDEN / f"{name}.csv").read_text().splitlines()
        columns = [line for line in lines if not line.startswith("#")][0]
        assert (columns.split(",")[4] == "status") == (command == "scan"), name
