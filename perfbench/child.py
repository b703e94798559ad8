"""One workload run in a fresh interpreter: build the scenario from the
seed, run it through `privads.runner.run_scenario`, check the outcome and
print one JSON result line.

    python3 perfbench/child.py --workload catalog --seed 1 --mode plain

`--mode plain` wraps only the actor entry points (latency samples);
`--mode trace` wraps every trace point and writes the spans to `--spans`;
`--mode setup` stops at the first claim and reports only setup_s.
A fresh interpreter per run matters: `_window_table` and `_baby_table` in
privads.group are process-global caches, and a warm cache would leak from
one run into the next.
"""

import time

T0 = time.perf_counter()  # setup_s starts at the first line of the process

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

# Pool sizes with threshold >= participants/2 warn on every DKG; the
# benchmark shapes use them on purpose.
warnings.filterwarnings("ignore", message="threshold >= expected/2")

import privads.runner  # noqa: E402  (builds the G/H fixed-base tables)

import tracing  # noqa: E402
import workloads  # noqa: E402


def _section(outcome, name: str) -> dict:
    return next(s for s in outcome.sections if s["section"] == name)


def oracle_failures(scenario, outcome) -> tuple[list, int]:
    """Correctness gate, computed from the scenario alone.

    Returns (failures, claims paid in full).  A claim is one user in one
    payout period; it is paid in full when the received note carries the
    plaintext dot product of the policy and interaction vectors."""
    failures = []
    verdict = _section(outcome, "verdict")
    if not verdict["ok"]:
        failures.append(f"verdict not ok: {verdict['violations'][:3]}")
    policies = scenario.policy_vector()
    per_claim = {
        (gi, period): sum(p * x for p, x in zip(policies, scenario.interaction_vector(gi, period)))
        for gi in range(scenario.users.count)
        for period in range(scenario.payout_periods)
    }
    paid_rows = {row["user"]: row["paid"] for row in _section(outcome, "users")["rows"]}
    if len(paid_rows) != scenario.users.count:
        failures.append(f"{len(paid_rows)} user rows for {scenario.users.count} users")
    for gi in range(scenario.users.count):
        expected = sum(per_claim[gi, p] for p in range(scenario.payout_periods))
        if paid_rows.get(f"user{gi}") != expected:
            failures.append(f"user{gi}: paid {paid_rows.get(f'user{gi}')} != oracle {expected}")
    paid_in_full = 0
    for run in outcome.chains:
        for gi, user in run.users:
            for period in range(scenario.payout_periods):
                received = user.received.get(period)
                if received is not None and received[2] == per_claim[gi, period]:
                    paid_in_full += 1
    partition = scenario.user_partition()
    for row in _section(outcome, "ad_totals")["rows"]:
        sums = [0] * scenario.catalog_size
        for gi in partition[row["chain"]]:
            for period in range(scenario.payout_periods):
                for slot, count in enumerate(scenario.interaction_vector(gi, period)):
                    sums[slot] += count
        if row["recovered_totals"] != sums:
            failures.append(f"chain {row['chain']}: ad_totals differ from element-wise sums")
    return failures, paid_in_full


def receipts(outcome) -> tuple[int, dict]:
    """(transactions, error-code histogram of failed receipts)."""
    txs, errors = 0, {}
    for run in outcome.chains:
        for block in run.chain.blocks:
            for record in block.receipt_records:
                txs += 1
                if not record["ok"]:
                    code = (record["error"] or "Unknown").split(":")[0]
                    errors[code] = errors.get(code, 0) + 1
    return txs, errors


def table_misses() -> dict:
    """Misses so far of the lru_caches that build fixed-base tables
    (_window_table) and baby-step tables (_baby_table)."""
    group = sys.modules["privads.group"]
    return {"window": group._window_table.cache_info().misses, "baby": group._baby_table.cache_info().misses}


class _SetupDone(Exception):
    pass


def setup_only(scenario) -> int:
    """Run up to the first UserAgent.claim call, then stop."""
    import privads.actors

    def first_claim(*args, **kwargs):
        raise _SetupDone(time.perf_counter())

    privads.actors.UserAgent.claim = first_claim
    try:
        privads.runner.run_scenario(scenario)
    except _SetupDone as done:
        print(json.dumps({"mode": "setup", "setup_s": done.args[0] - T0}))
        return 0
    raise RuntimeError("the scenario finished without a claim")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ALL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "setup"), default="plain")
    parser.add_argument("--spans", help="span output file (trace mode)")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer()
    tracing.install(tracer, full=args.mode == "trace")
    scenario = workloads.ALL[args.workload](args.seed)
    if args.mode == "setup":
        return setup_only(scenario)
    builds_before = table_misses()
    start = time.perf_counter()
    outcome = privads.runner.run_scenario(scenario)
    run_s = time.perf_counter() - start
    run_spans = len(tracer.names)
    table_builds = {name: misses - builds_before[name] for name, misses in table_misses().items()}

    failures, paid_in_full = oracle_failures(scenario, outcome)
    txs, errors = receipts(outcome)
    failed = sum(errors.values())
    if failed:
        failures.append(f"{failed} failed receipts: {errors}")
    samples = {"actors.claim": [], "actors.request_payment": [], "actors.audit": []}
    first_claim = None
    for name, begin, end, _ in tracer.spans()[:run_spans]:
        if name in samples:
            samples[name].append(end - begin)
            if name == "actors.claim" and first_claim is None:
                first_claim = begin
    if args.spans:
        tracer.dump(args.spans, origin=T0, limit=run_spans)
    pools = [run.pool for run in outcome.chains]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": first_claim - T0,
        "run_s": run_s,
        "claims_paid": paid_in_full,
        "claim_s": samples["actors.claim"],
        "request_s": samples["actors.request_payment"],
        "audit_s": samples["actors.audit"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "txs": txs,
        "receipts_failed": failed,
        "errors": errors,
        "table_builds": table_builds,
        "failures": failures,
        "report_sha256": hashlib.sha256(privads.runner.report_bytes(outcome.sections)).hexdigest(),
        "state_hashes": [row["final_state"] for row in _section(outcome, "chains")["rows"]],
        "shape": {
            "catalog": scenario.catalog_size,
            "users": scenario.users.count,
            "periods": scenario.payout_periods,
            "chains": scenario.chains,
            "advertisers": len(scenario.advertisers),
            "threshold": scenario.pool.threshold,
            "registrants": scenario.pool.draw_pool,
            "draws": sum(p.draws for p in pools),
            "winners": sum(len(p.winners) for p in pools),
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
