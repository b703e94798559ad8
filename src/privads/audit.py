"""Independent replay verification of a finished run.

verify_run re-executes the scenario embedded in the report from its seed
(the seed regenerates every secret, which is the test-only key escrow),
checks the block log's hash chain record by record, compares the replayed
report and chain state against the stored ones, and reports the replayed
run's own violations (its reward oracle and conservation checks).  Every
discrepancy is returned as a finding.
"""

from __future__ import annotations

import json
from pathlib import Path

from .ledger import Block
from .runner import report_bytes, run_scenario
from .scenario import Scenario, ScenarioError

__all__ = ["write_block_log", "load_block_log", "verify_run"]

_BLOCK_FIELDS = {"chain", "height", "parent", "txs", "receipts", "state", "hash"}


def write_block_log(chains, path):
    """One JSON record per block, tagged with its chain id."""
    with open(path, "w") as fh:
        for run in chains:
            for block in run.chain.blocks:
                fh.write(json.dumps({"chain": run.chain.chain_id, **block.record()}, sort_keys=True,
                                    separators=(",", ":")) + "\n")


def load_block_log(path) -> dict:
    """Chain id -> its block records, in log order.  Raises ValueError for
    a log that is not UTF-8 or holds a line that is not a block record."""
    by_chain: dict[int, list] = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not isinstance(record, dict) or not isinstance(record.get("chain"), int) or not _BLOCK_FIELDS <= set(record):
            raise ValueError(f"line {number} is not a block record")
        by_chain.setdefault(record["chain"], []).append(record)
    return by_chain


def _check_hash_chain(records) -> list:
    findings = []
    parent = "genesis"
    for record in records:
        recomputed = Block.compute_hash(
            record["height"], record["parent"], record["txs"], record["receipts"], record["state"]
        )
        if recomputed != record["hash"]:
            findings.append(f"block {record['height']}: stored hash does not match its contents")
        if record["parent"] != parent:
            findings.append(f"block {record['height']}: hash chain broken (parent mismatch)")
        parent = record["hash"]
    return findings


def verify_run(report_path, blocks_path) -> tuple:
    """Returns (ok, findings).  Empty findings means the run checks out.
    A file that cannot be read raises OSError; content that does not parse
    is a finding."""
    findings = []
    raw = Path(report_path).read_bytes()
    try:
        by_chain = load_block_log(blocks_path)
    except ValueError as exc:
        return False, [f"block log: {exc}"]
    try:
        sections = [json.loads(line) for line in raw.decode().splitlines() if line.strip()]
    except ValueError:
        return False, ["report is not UTF-8 JSON lines"]
    meta = next((s for s in sections if isinstance(s, dict) and s.get("section") == "meta"), {})
    try:
        scenario = Scenario.from_dict(meta.get("scenario"))
    except ScenarioError as exc:
        return False, [f"report scenario: {exc}"]

    # 1. block log integrity
    for chain_id in sorted(by_chain):
        for finding in _check_hash_chain(by_chain[chain_id]):
            findings.append(f"chain {chain_id}: {finding}")

    # 2. deterministic replay
    outcome = run_scenario(scenario)
    if report_bytes(outcome.sections) != raw:
        findings.append("replayed report differs from the stored report")
    for run in outcome.chains:
        logged = by_chain.get(run.chain.chain_id)
        if logged is None:
            findings.append(f"chain {run.chain.chain_id}: missing from block log")
            continue
        replayed = [b.block_hash for b in run.chain.blocks]
        stored = [r["hash"] for r in logged]
        if replayed != stored:
            findings.append(f"chain {run.chain.chain_id}: replayed block hashes differ from the log")

    # 3. the replayed run's own verdict: reward oracle, analytics totals
    # and stake equations, as the runner checks them (the replay's ledger
    # has checked token conservation on every block)
    findings.extend(outcome.violations)

    return not findings, findings
