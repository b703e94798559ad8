"""Per-layer metrics derived from one traced run's spans.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly (one thread), so that is the part of its
interval no child covers.  The runner phase split comes from the order of
the top-level spans (the children of the runner.run_scenario span).
"""

from __future__ import annotations

import tracing

# Top-level actor spans that open a runner phase.
PHASE_MARKERS = {
    "actors.deploy_campaign": "deploy",
    "actors.verify_and_stake": "deploy",
    "actors.run_pool_lifecycle": "pool",
    "actors.new_period": "claims",
    "actors.claim": "claims",
    "actors.request_payment": "requests",
    "actors.pool_analytics": "analytics",
    "actors.settle": "settlement",
    "actors.verify_payment": "settlement",
    "actors.mark_processed": "settlement",
    "actors.redeem": "settlement",
    "actors.audit": "audit",
}
PHASES = ["deploy", "pool", "claims", "aggregate_block", "requests", "analytics", "settlement", "audit", "report"]
ROOT_SPAN = "runner.run_scenario"
# Largest share of run_s that no layer span may cover: the runner's own
# code between its calls.  It reads 0.05-0.5% on the workloads' default
# seeds.
UNCOVERED_MAX = 0.02


def self_times(spans) -> list:
    selfs = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def by_name(spans, names=()) -> dict:
    """name -> {"calls", "self_s", "total_s", "max_s"}; `names` that never
    occur are listed with zeros."""
    out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0} for name in names}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += end - start
        entry["max_s"] = max(entry["max_s"], end - start)
    return out


def count_under(spans, name: str, ancestor: str) -> int:
    """Spans called `name` that have a span called `ancestor` above them."""
    total = 0
    for span_name, _, _, parent in spans:
        if span_name != name:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total


def coverage_failures(spans) -> list:
    """The root span must be the only top-level span, and the time it
    covers without any child span (the runner's own code) must stay under
    UNCOVERED_MAX of its length.  A heavy call the runner makes outside
    every wrapper shows here; a call that escapes a wrapper deeper down
    lands in its caller's self time and is not seen."""
    tops = [i for i, span in enumerate(spans) if span[3] < 0]
    if [spans[i][0] for i in tops] != [ROOT_SPAN]:
        return [f"top-level spans are {sorted({spans[i][0] for i in tops})}, not only {ROOT_SPAN}"]
    root = tops[0]
    length = spans[root][2] - spans[root][1]
    uncovered = self_times(spans)[root] / length
    if uncovered > UNCOVERED_MAX:
        return [f"{uncovered:.1%} of run_s lies outside every layer span (at most {UNCOVERED_MAX:.0%})"]
    return []


def phase_split(spans) -> dict:
    """Seconds per runner phase, summed over chains.

    Top-level spans are cut into segments, each closed by a top-level
    ledger.mine_block.  A segment belongs to the phase of its first marker
    span; in a claims segment the closing block is the aggregate block.  The
    segment after the last block has no marker and is report assembly.
    A segment's time runs from the end of the previous segment, so the
    runner's own code between spans is charged too and the phases add up to
    the root span."""
    root = next(i for i, span in enumerate(spans) if span[0] == ROOT_SPAN and span[3] < 0)
    top = [i for i, span in enumerate(spans) if span[3] == root]
    phases = dict.fromkeys(PHASES, 0.0)
    cursor = spans[root][1]
    phase = "deploy"
    segment = []
    for index in top + [None]:
        if index is not None:
            segment.append(index)
            if spans[index][0] != "ledger.mine_block":
                continue
        marker = next((PHASE_MARKERS[spans[i][0]] for i in segment if spans[i][0] in PHASE_MARKERS), None)
        if index is None:
            phase = marker or "report"
            end = spans[root][2]
        else:
            phase = marker or phase
            end = spans[index][2]
        if phase == "claims" and index is not None:
            block = spans[index][2] - spans[index][1]
            phases["aggregate_block"] += block
            phases["claims"] += end - cursor - block
        else:
            phases[phase] += end - cursor
        cursor = end
        segment = []
    return phases


def layer_metrics(spans, counts: dict, result: dict) -> dict:
    """Every per-layer metric of one traced run, plus extra detail
    (calls and self time of every span name, the receipt error
    histogram) under their own names.

    group.window_table.builds and group.baby_table.builds are the misses
    of the fixed-base and baby-step lru_caches during run_scenario: each
    is one table built, whether on a base's first use or after the cache
    evicted it."""
    names = by_name(spans, tracing.span_names())
    vrf = [names[n] for n in ("proofs.vrf_rand", "proofs.vrf_eval", "proofs.vrf_verify")]
    claims = names["contracts.compute_aggregate"]["calls"]
    mine = names["ledger.mine_block"]
    partials = counts.get("threshold.partials_posted", 0)
    out = {}
    for name, entry in sorted(names.items()):
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    out.update(
        {
            "group.mul_gen.calls": counts.get("group.mul_gen", 0),
            "proofs.vrf.calls": sum(entry["calls"] for entry in vrf),
            "proofs.vrf.self_s": sum(entry["self_s"] for entry in vrf),
            "threshold.verify_partial.per_partial": (
                names["threshold.verify_partial"]["calls"] / partials if partials else 0.0
            ),
            "threshold.lottery.draws": result["shape"]["draws"],
            "ledger.block_max_s": mine["max_s"],
            "ledger.txs": result["txs"],
            "ledger.receipts_failed": result["receipts_failed"],
            "ledger.claims_per_busy_s": claims / mine["total_s"] if mine["total_s"] else 0.0,
            "contracts.policy_decrypts_per_claim": (
                count_under(spans, "group.hybrid_decrypt", "contracts.compute_aggregate") / claims if claims else 0.0
            ),
            "contracts.errors.total": result["receipts_failed"],
            "group.window_table.builds": result["table_builds"]["window"],
            "group.baby_table.builds": result["table_builds"]["baby"],
        }
    )
    for code, number in sorted(result["errors"].items()):
        out[f"contracts.errors.{code}"] = number
    for phase, seconds in phase_split(spans).items():
        out[f"runner.phase.{phase}_s"] = seconds
    return out
