"""Command-line interface.

    transducer-sim mechanics --config FILE [--out FILE]
    transducer-sim couplings --config FILE [--out FILE]
    transducer-sim transfer  --config FILE [--out FILE]
    transducer-sim scan      --config FILE [--out FILE]

Exit codes: 0 success, 2 configuration errors (including a config file
that cannot be read or decoded, and an output path that cannot be
written), 3 physics errors that are not survivable inside a sweep
(pull-in or tuning failure of a single-point run, a trajectory that
would take more than ``dynamics.MAX_STEPS`` steps).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import parse_config
from .errors import ConfigError, PullInError, StepSizeError, TuningError
from .runner import (
    run_coupling_sweep,
    run_environment_scan,
    run_mechanics_sweep,
    run_transfer,
)

_COMMANDS = {
    "mechanics": run_mechanics_sweep,
    "couplings": run_coupling_sweep,
    "transfer": run_transfer,
    "scan": run_environment_scan,
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="transducer-sim",
        description=(
            "Membrane electro-opto-mechanical transducer simulator: "
            "operating points, coupling rates and single-photon transfer "
            "fidelities from a config document."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("mechanics", "sweep thickness or bias voltage, tabulate the operating point"),
        ("couplings", "sweep bias voltage or displacement, tabulate coupling rates"),
        ("transfer", "integrate one state-transfer trajectory"),
        ("scan", "sweep temperature or optical decay, tabulate fidelities"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="config document path")
        cmd.add_argument("--out", help="output CSV path (default: config [output] path or stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text)
        table = _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PullInError, TuningError, StepSizeError) as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS

    out_path = args.out or config.output_path
    if out_path:
        try:
            table.write(out_path)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(table.to_csv_text())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
