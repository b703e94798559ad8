"""Command-line entry point.

    privads run --scenario scenarios/strawman.yaml [--seed 42] [--out report.jsonl]
                [--blocks blocks.jsonl] [--timings timings.json]
    privads verify-run --report report.jsonl --blocks blocks.jsonl

--timings writes the run's wall seconds by phase (runner.PHASES).  Exit
codes: 0 clean, 1 invariant violation (or verification failure), 2 a bad
scenario or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audit import verify_run, write_block_log
from .runner import report_bytes, run_scenario
from .scenario import ScenarioError, load_scenario


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario.seed = args.seed
        errors = scenario.validate()
        if errors:
            raise ScenarioError(errors)
        for path in filter(None, (args.out, args.blocks, args.timings)):
            open(path, "ab").close()  # fails before the run; "a" leaves an existing file whole
    except (ScenarioError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outcome = run_scenario(scenario)
    data = report_bytes(outcome.sections)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
    if args.blocks:
        write_block_log(outcome.chains, args.blocks)
    if args.timings:
        Path(args.timings).write_text(json.dumps(outcome.timings, indent=2))
    status = "clean" if outcome.ok else "VIOLATIONS"
    print(
        f"run {scenario.name}: {status}, complaints={outcome.complaints_total}",
        file=sys.stderr,
    )
    for violation in outcome.violations:
        print(f"  violation: {violation}", file=sys.stderr)
    return 0 if outcome.ok else 1


def _cmd_verify(args) -> int:
    try:
        for path in (args.report, args.blocks):
            open(path, "rb").close()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    ok, findings = verify_run(args.report, args.blocks)
    if ok:
        print("verify-run: clean")
        return 0
    print("verify-run: FAILED")
    for finding in findings:
        print(f"  {finding}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privads", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario end to end")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")
    run_p.add_argument("--blocks", default=None, help="write the block log here")
    run_p.add_argument("--timings", default=None, help="write the wall seconds of each phase here")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify-run", help="replay and audit a finished run")
    verify_p.add_argument("--report", required=True)
    verify_p.add_argument("--blocks", required=True)
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
