"""The package's physical constants, and runs that load only what they use.

``constants.py`` writes c, e, eps0, hbar and k_B as literals so that no
run imports scipy.  The literals must be the very floats
``scipy.constants`` gives, or every output row would move.
``import transducer_sim`` and the statics runs (``mechanics``,
``couplings``) load only the standard library, and of it neither
``dataclasses`` nor ``inspect``; numpy is imported when a trajectory is
built.  These tests read the package in a fresh process, because this
test process has scipy and numpy loaded already.
"""

import json
import subprocess
import sys
from pathlib import Path

import scipy.constants

from test_harness import MINIMAL, sweep

ROOT = Path(__file__).resolve().parent.parent

#: package constant -> its name in scipy.constants
NAMES = {
    "SPEED_OF_LIGHT": "c",
    "ELEMENTARY_CHARGE": "e",
    "EPSILON_0": "epsilon_0",
    "HBAR": "hbar",
    "K_B": "k",
}

CONSTANTS = """
import json, sys
src, names = sys.argv[1:]
sys.path.insert(0, src)
from transducer_sim import constants
values = {name: getattr(constants, name) for name in json.loads(names)}
print(json.dumps({"values": values, "scipy": "scipy" in sys.modules}))
"""

CLI_RUNS = """
import json, sys
src, runs = sys.argv[1:]
sys.path.insert(0, src)
SLOW = ("dataclasses", "inspect")
import transducer_sim
from transducer_sim import cli
codes, numpy = [], []
slow = [[m for m in SLOW if m in sys.modules]]
for argv in json.loads(runs):
    codes.append(cli.main(argv))
    numpy.append("numpy" in sys.modules)
    slow.append([m for m in SLOW if m in sys.modules])
print(json.dumps({
    "codes": codes, "numpy": numpy, "slow": slow, "scipy": "scipy" in sys.modules,
}))
"""


def _run(script, arg):
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), arg],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_literals_equal_scipy_constants():
    report = _run(CONSTANTS, json.dumps(list(NAMES)))
    assert report["scipy"] is False
    for name, scipy_name in NAMES.items():
        assert report["values"][name] == getattr(scipy.constants, scipy_name), name


def _cli_runs(tmp_path):
    """argv of one small run per subcommand: the two statics runs first."""
    short = "\n[simulation]\ng_c_hz = 50e6\nduration_s = 5e-9\n"
    documents = {
        "mechanics": MINIMAL + sweep("bias_voltage", 0.0, 3.3),
        "couplings": MINIMAL + sweep("bias_voltage", 0.0, 3.3),
        "transfer": MINIMAL + short,
        "scan": MINIMAL + short + sweep("temperature", 0.05, 1.0),
    }
    runs = []
    for command, text in documents.items():
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(text)
        runs.append([command, "--config", str(cfg), "--out", str(tmp_path / f"{command}.csv")])
    return runs


def test_cli_runs_without_scipy(tmp_path):
    report = _run(CLI_RUNS, json.dumps(_cli_runs(tmp_path)))
    assert report["codes"] == [0, 0, 0, 0]
    assert report["scipy"] is False


def test_statics_runs_without_numpy(tmp_path):
    # the package and the statics runs leave numpy unloaded; the trajectory
    # runs after them import it and still succeed in the same process
    report = _run(CLI_RUNS, json.dumps(_cli_runs(tmp_path)))
    assert report["codes"] == [0, 0, 0, 0]
    assert report["numpy"] == [False, False, True, True]


def test_statics_runs_without_dataclasses_or_inspect(tmp_path):
    # set-up and the statics runs build their records without either module,
    # each of which takes milliseconds to import
    report = _run(CLI_RUNS, json.dumps(_cli_runs(tmp_path)))
    assert report["codes"] == [0, 0, 0, 0]
    assert report["slow"][:3] == [[], [], []]
