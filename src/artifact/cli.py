"""The ``artifact`` command.

``artifact verify [--case I]`` checks the semisimple table rows (all ten
families, or family I alone) and prints the report of
:func:`ssorbits.verify_ss_tables` as one JSON object, with the wall time of
each block under ``"seconds"``.  The exit status is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ssorbits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="artifact", description="Exact classification of real four-rebit states."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser(
        "verify", help="check the semisimple table rows and print the report as JSON"
    )
    verify.add_argument(
        "--case", type=int, choices=range(1, 11), metavar="I",
        help="check only the blocks of family I (1-10)",
    )
    args = parser.parse_args(argv)
    report = ssorbits.verify_ss_tables(args.case)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
