"""The package's physical constants, and runs that load only what they use.

``constants.py`` writes c, e, eps0, hbar and k_B as literals so that no
run imports scipy.  The literals must be the very floats
``scipy.constants`` gives, or every output row would move.
``import transducer_sim`` and the statics runs (``mechanics``,
``couplings``) load only the standard library, and of it neither
``dataclasses`` nor ``inspect``; numpy is imported when a trajectory is
built.  No run loads OpenSSL (``_hashlib``): the config hash comes from
the interpreter's own SHA-256.  These tests read the package in a fresh
process, because this test process has scipy, numpy and ``hashlib``
loaded already.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import scipy.constants

from test_harness import MINIMAL, sweep

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

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
from transducer_sim import cli, config
codes, numpy = [], []
slow = [[m for m in SLOW if m in sys.modules]]
openssl = ["_hashlib" in sys.modules]
for argv in json.loads(runs):
    codes.append(cli.main(argv))
    numpy.append("numpy" in sys.modules)
    slow.append([m for m in SLOW if m in sys.modules])
    openssl.append("_hashlib" in sys.modules)
print(json.dumps({
    "codes": codes, "numpy": numpy, "slow": slow, "scipy": "scipy" in sys.modules,
    "openssl": openssl, "sha256": config.sha256.__module__,
}))
"""

NUMPY_IMPORT = """
import json, sys
import numpy
print(json.dumps({"openssl": "_hashlib" in sys.modules}))
"""

#: the config hash of each document in a fresh process
DIGESTS = """
import hashlib, json, sys
src, texts = sys.argv[1:]
sys.path.insert(0, src)
from transducer_sim import config
print(json.dumps({
    "fallback": config.sha256 is hashlib.sha256,
    "digests": [config.parse_config(text).config_hash for text in json.loads(texts)],
}))
"""

#: ``DIGESTS`` in an interpreter without its own SHA-256 module
DIGESTS_WITHOUT_BUILTIN_SHA256 = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
""" + DIGESTS


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


def test_no_run_loads_openssl(tmp_path):
    # numpy before 2.0 imports ``numpy.random`` with itself, and through
    # ``secrets`` and ``hmac`` OpenSSL: a trajectory run loads no more than
    # numpy does
    numpy_openssl = _run(NUMPY_IMPORT, "")["openssl"]
    report = _run(CLI_RUNS, json.dumps(_cli_runs(tmp_path)))
    assert report["codes"] == [0, 0, 0, 0]
    assert report["openssl"] == [False, False, False, numpy_openssl, numpy_openssl]
    if sys.implementation.name == "cpython":
        # a silent fallback to ``hashlib`` would load OpenSSL again
        assert report["sha256"] in ("_sha2", "_sha256")


def test_config_hash_is_the_same_without_the_builtin_sha256():
    texts = [path.read_text(encoding="utf-8") for path in sorted(CONFIG_DIR.glob("*.ini"))]
    texts.append(MINIMAL + "# Kopplung über die Membran, g₀ ≈ 2π·1 kHz\n")
    expected = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
    builtin = _run(DIGESTS, json.dumps(texts))
    fallback = _run(DIGESTS_WITHOUT_BUILTIN_SHA256, json.dumps(texts))
    assert fallback["fallback"] is True
    assert fallback["digests"] == expected
    assert builtin["digests"] == expected
