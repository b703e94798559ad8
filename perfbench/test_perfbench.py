"""The benchmark's own tests: trace completeness, the correctness gate and
the refusal to run without the program.

    python3 -m pytest perfbench -q

The per-workload cases run each benchmark workload once, traced, at its
default seed (about a minute in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import metrics
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# chains * (2 + advertisers) * k * N: post_analytics and combine_partials
# each verify k*N partials, and so does every advertiser's audit.
VERIFY_PARTIAL_CALLS = {"catalog": 960, "users": 160, "pool": 440}


def traced_run(workload: str, seed: int, tmp_path, tag: str = "0") -> tuple[dict, list, dict]:
    """Run one traced child in a fresh interpreter: (result, spans, layer metrics)."""
    spans_file = tmp_path / f"spans-{workload}-{seed}-{tag}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
         "--mode", "trace", "--spans", str(spans_file)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spans, counts = tracing.load_spans(spans_file)
    return result, spans, metrics.layer_metrics(spans, counts, result)


def assert_complete(result: dict, spans: list, layer: dict) -> None:
    shape = result["shape"]
    assert result["failures"] == []
    assert layer["threshold.verify_partial.calls"] == (
        shape["chains"] * (2 + shape["advertisers"]) * shape["threshold"] * shape["catalog"]
    )
    assert layer["contracts.compute_aggregate.calls"] == shape["users"] * shape["periods"]
    assert layer["contracts.policy_decrypts_per_claim"] == shape["catalog"]
    # Every registrant evaluates vrf_rand once per draw; every winner runs
    # vrf_eval and vrf_verify once.
    assert layer["proofs.vrf_rand.calls"] == shape["registrants"] * shape["draws"]
    assert layer["proofs.vrf_eval.calls"] == layer["proofs.vrf_verify.calls"]
    if shape["draws"] == shape["chains"]:  # no redraw: every evaluated winner joined the pool
        assert layer["proofs.vrf.calls"] == shape["registrants"] * shape["draws"] + 2 * shape["winners"]
    assert layer["threshold.lottery.draws"] == shape["draws"]
    # Every span lies under run_scenario, and the runner's own code outside
    # all layer spans is a small share of it.
    assert metrics.coverage_failures(spans) == []
    assert layer["actors.claim.calls"] == shape["users"] * shape["periods"]
    assert layer["ledger.receipts_failed"] == 0


def test_tiny_trace_is_complete_and_calls_repeat(tmp_path):
    first, spans, layer = traced_run("tiny", DEFAULT_SEED, tmp_path, "a")
    assert_complete(first, spans, layer)
    second, _, again = traced_run("tiny", DEFAULT_SEED, tmp_path, "b")
    calls = {k: v for k, v in layer.items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in again.items() if k.endswith(".calls")}
    assert first["report_sha256"] == second["report_sha256"]
    assert first["state_hashes"] == second["state_hashes"]


@pytest.mark.parametrize("workload", sorted(VERIFY_PARTIAL_CALLS))
def test_workload_trace_is_complete(workload, tmp_path):
    result, spans, layer = traced_run(workload, DEFAULT_SEED, tmp_path)
    assert_complete(result, spans, layer)
    assert layer["threshold.verify_partial.calls"] == VERIFY_PARTIAL_CALLS[workload]
    assert layer["threshold.verify_partial.per_partial"] == 5.0


def test_every_binding_site_is_wrapped():
    """`from .x import name` copies: after install no privads module may
    still hold an unwrapped original of a traced function."""
    code = (
        "import sys, importlib; sys.path[:0] = ['src', 'perfbench'];"
        "import privads.runner, privads.audit, privads.cli, tracing;"
        "originals = {(m, n): getattr(importlib.import_module('privads.' + m), n)"
        "             for m, names in tracing.FUNCTIONS.items() for n in names};"
        "tracing.install(tracing.Tracer(), full=True);"
        "left = [(mod, attr) for mod, module in sys.modules.items() if mod.startswith('privads')"
        "        for attr, value in vars(module).items() if value in originals.values()];"
        "print(left)"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_gate_catches_wrong_payout_and_totals():
    import child
    from privads.runner import run_scenario

    scenario = workloads.tiny(DEFAULT_SEED)
    outcome = run_scenario(scenario)
    assert child.oracle_failures(scenario, outcome)[0] == []
    users = next(s for s in outcome.sections if s["section"] == "users")
    users["rows"][0]["paid"] += 1
    totals = next(s for s in outcome.sections if s["section"] == "ad_totals")
    totals["rows"][0]["recovered_totals"][0] += 1
    failures, _ = child.oracle_failures(scenario, outcome)
    assert any(f.startswith("user0:") for f in failures)
    assert any("ad_totals" in f for f in failures)
    outcome.chains[0].chain.blocks[-1].receipt_records.append({"ok": False, "error": "BadProof: forged"})
    assert child.receipts(outcome)[1] == {"BadProof": 1}


def test_coverage_check_catches_uncovered_time_and_stray_spans():
    covered = [("runner.run_scenario", 0.0, 10.0, -1), ("actors.claim", 0.05, 9.95, 0)]
    assert metrics.coverage_failures(covered) == []
    # A call the runner makes outside every wrapper leaves its time in the
    # root span's self time.
    escaped = [("runner.run_scenario", 0.0, 10.0, -1), ("actors.claim", 0.0, 5.0, 0)]
    assert "outside every layer span" in metrics.coverage_failures(escaped)[0]
    stray = covered + [("group.mul", 11.0, 11.5, -1)]
    assert "top-level spans" in metrics.coverage_failures(stray)[0]


def test_phase_split_charges_gaps_and_report():
    spans = [
        ("runner.run_scenario", 0.0, 10.0, -1),
        ("actors.deploy_campaign", 0.5, 1.0, 0),
        ("ledger.mine_block", 1.0, 1.5, 0),
        ("actors.claim", 2.0, 3.0, 0),
        ("ledger.mine_block", 3.0, 4.0, 0),
        ("actors.audit", 4.0, 5.0, 0),
        ("ledger.mine_block", 5.0, 6.0, 0),
        ("ledger.state_hash", 7.0, 8.0, 0),
    ]
    phases = metrics.phase_split(spans)
    assert phases["deploy"] == 1.5
    assert phases["claims"] == 1.5 and phases["aggregate_block"] == 1.0
    assert phases["audit"] == 2.0
    assert phases["report"] == 4.0
    assert sum(phases.values()) == 10.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded_and_stakes_cover_payouts(workload):
    make = workloads.WORKLOADS[workload]
    assert make(3).to_dict() == make(3).to_dict()
    assert make(3).to_dict() != make(4).to_dict()
    scenario = make(3)
    for adv in scenario.advertisers:
        assert min(adv.impressions) >= scenario.users.count * scenario.payout_periods * scenario.users.max_count


def test_run_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
