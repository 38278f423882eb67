"""Command line front end for the scanning scenarios.

Each subcommand runs a fixed bundle of scenario stages:

    localize     fiducial detection and plane fit only
    reconstruct  localize, then a depth-camera orbit and surface reconstruction
    scan         contact establishment plus a raster pass on the true surface
    pipeline     localize, reconstruct, then raster on the reconstructed chart
    report       print the summary report of a finished run

Run commands exit 0 when every report check passed and 1 otherwise; a
stage that fails outright keeps its partial artifacts in the output
directory and is flagged in the report.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .scenario import StageError, run_scenario
from .schema import SchemaError

_COMMAND_STAGES = {
    "localize": ("localize",),
    "reconstruct": ("localize", "reconstruct"),
    "scan": ("contact", "raster"),
    "pipeline": ("localize", "reconstruct", "raster"),
}


def _timeout(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("stage timeout must be positive and finite")
    return value


def _add_run_flags(p) -> None:
    p.add_argument("--config", metavar="FILE",
                   help="scenario config (YAML); built-in defaults when omitted")
    p.add_argument("--seed", type=int, metavar="N",
                   help="override the config seed (a non-negative integer)")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="output directory for logs, meshes and the report")
    p.add_argument("--stage-timeout", type=_timeout, default=None, metavar="S",
                   help="abort any single stage that runs longer than S seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfscan",
        description="Surface-following ultrasound scanning scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("localize", "fit the phantom plane from synthetic fiducials"),
        ("reconstruct", "localize, then reconstruct the surface from a depth orbit"),
        ("scan", "establish contact and raster-scan the ground-truth surface"),
        ("pipeline", "full run: localize, reconstruct, raster on the result"),
    ):
        _add_run_flags(sub.add_parser(name, help=text))
    rp = sub.add_parser("report", help="print the report of a finished run")
    rp.add_argument("--out", required=True, metavar="DIR",
                    help="output directory of the run to report on")
    return parser


def _run(args, stages) -> int:
    try:
        result = run_scenario({} if args.config is None else args.config, args.out, stages=stages,
                              seed=args.seed, stage_timeout=args.stage_timeout)
    except (SchemaError, OSError) as exc:  # the config, a file it names, or an --out that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        # partial artifacts stay in --out; the report marks the failed stage
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(result.report_path.read_text())
    return 0 if result.passed else 1


def _report(args) -> int:
    path = Path(args.out) / "report.txt"
    if not path.is_file():
        print(f"error: no report at {path}", file=sys.stderr)
        return 2
    text = path.read_text()
    sys.stdout.write(text)
    # the verdict is the last line: a scenario name may read "overall: PASS"
    return 0 if text.splitlines()[-1:] == ["overall: PASS"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return _report(args)
    return _run(args, _COMMAND_STAGES[args.command])


if __name__ == "__main__":
    raise SystemExit(main())
