"""Command-line entry point.

    privads run --scenario scenarios/strawman.yaml [--seed 42] [--out report.jsonl]
                [--blocks blocks.jsonl] [--timings timings.json]
    privads verify-run --report report.jsonl --blocks blocks.jsonl

Exit codes: 0 clean, 1 invariant violation (or verification failure),
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    except (ScenarioError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outcome = run_scenario(scenario)
    data = report_bytes(outcome.sections)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    if args.blocks:
        write_block_log(outcome.chains, args.blocks)
    if args.timings:
        with open(args.timings, "w") as fh:
            json.dump(outcome.timings, fh, indent=2, sort_keys=True)
    status = "clean" if outcome.ok else "VIOLATIONS"
    print(
        f"run {scenario.name}: {status}, complaints={outcome.complaints_total}",
        file=sys.stderr,
    )
    for violation in outcome.violations:
        print(f"  violation: {violation}", file=sys.stderr)
    return 0 if outcome.ok else 1


def _cmd_verify(args) -> int:
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
    run_p.add_argument("--timings", default=None, help="write wall-clock timings here")
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
