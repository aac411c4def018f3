"""Membrane electro-opto-mechanical transducer simulator: operating
points, coupling rates and single-photon transfer fidelities from a
config document.

commands:
  mechanics  sweep thickness or bias voltage, tabulate the operating point
  couplings  sweep bias voltage or displacement, tabulate coupling rates
  transfer   integrate one state-transfer trajectory
  scan       sweep temperature or optical decay, tabulate fidelities

The CSV goes to the --out file, or to stdout without one.

exit codes: 0 success, 2 argument and configuration errors (including a
config file that cannot be read or decoded, an output path that cannot
be written, and a trajectory that would take more than 10^8 steps).
Pull-in and tuning failures are flagged per row of a sweep.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import parse_config
from .errors import ConfigError
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="transducer-sim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="COMMAND")
    parser.add_argument("--config", required=True, metavar="FILE")
    parser.add_argument("--out", metavar="FILE")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
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

    if args.out is not None:
        try:
            table.write(args.out)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(table.to_csv_text())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
