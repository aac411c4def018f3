"""Smoke test of the benchmark tracer's hooks into the package.

``benchmarks/tracing.py`` times each layer by wrapping package functions
at the module attributes through which ``runner`` and ``cli`` call them.
A refactor that renames one of them, imports it by value into its
caller, or solves a whole sweep in one call, silently drops or merges that
layer's spans; this test runs the CLI under the tracer and checks that
every layer reports, once per point that reaches it.  It runs in a
subprocess because the tracer patches the package for the whole process.
"""

import json
import subprocess
import sys
from collections import Counter
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
print(json.dumps({"codes": codes, "spans": [span[2] for span in tracer.spans]}))
"""


def test_every_layer_reports_a_span(tmp_path):
    couplings = tmp_path / "couplings.ini"
    # 0 to 6 V: the top points are past pull-in, where no circuit is matched
    couplings.write_text(MINIMAL + sweep("bias_voltage", 0.0, 6.0, points=7))
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
    spans = Counter(report["spans"])
    assert LAYERS - set(spans) == set()
    lines = (tmp_path / "couplings.csv").read_text().splitlines()
    statuses = [line.rsplit(",", 1)[1] for line in lines if line[0] != "#"][1:]
    ok = statuses.count("ok")
    assert len(statuses) == 7 and 0 < ok < 7, statuses
    # one solve per bias point; one match and three rates (g_em, strain,
    # Stark) per ok row; one system and one trajectory per scan point
    assert spans["mechanics.solve"] == 7
    assert spans["circuit.match"] == ok
    assert spans["coupling.rates"] == 3 * ok
    assert spans["dynamics.build"] == spans["dynamics.integrate"] == 2
    assert spans["config.parse"] == spans["runner"] == spans["cli.write"] == 2
