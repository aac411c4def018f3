"""Smoke test of the benchmark tracer's hooks into the package.

``benchmarks/tracing.py`` times each layer by wrapping package functions
at the module attributes through which ``runner`` and ``cli`` call them.
A refactor that renames one of them, or imports it by value into its
caller, silently drops that layer's span; this test runs the CLI under
the tracer and checks that every layer still reports.  It runs in a
subprocess because the tracer patches the package for the whole process.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_harness import MINIMAL, sweep

ROOT = Path(__file__).resolve().parent.parent

LAYERS = {
    "config.parse",
    "runner",
    "mechanics.solve",
    "circuit.match",
    "coupling.rates",
    "dynamics.build",
    "dynamics.integrate",
    "cli.write",
}

TRACED_RUN = """
import json, sys
bench, src, runs = sys.argv[1:]
sys.path[:0] = [bench, src]
import tracing
from transducer_sim import cli
tracer = tracing.Tracer()
tracing.install(tracer)
codes = [cli.main(argv) for argv in json.loads(runs)]
print(json.dumps({"codes": codes, "spans": sorted({span[2] for span in tracer.spans})}))
"""


def test_every_layer_reports_a_span(tmp_path):
    couplings = tmp_path / "couplings.ini"
    couplings.write_text(MINIMAL + sweep("bias_voltage", 0.0, 3.3, points=3))
    scan = tmp_path / "scan.ini"
    scan.write_text(
        MINIMAL
        + "\n[simulation]\ng_c_hz = 50e6\nduration_s = 5e-9\n"
        + sweep("temperature", 0.05, 1.0)
    )
    runs = [
        ["couplings", "--config", str(couplings), "--out", str(tmp_path / "couplings.csv")],
        ["scan", "--config", str(scan), "--out", str(tmp_path / "scan.csv")],
    ]
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "benchmarks"), str(ROOT / "src")]
        + [json.dumps(runs)],
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0]
    assert LAYERS - set(report["spans"]) == set()
