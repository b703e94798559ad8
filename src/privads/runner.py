"""End-to-end campaign execution and report assembly.

A run is a pure function of (seed, scenario): every keypair, interaction
vector, nonce and block derives from the scenario seed, and the emitted
report is byte-identical across repetitions.  Wall-clock timings are
collected separately (RunOutcome.timings, written by `privads run
--timings`) so they never perturb the report.

Each batch of parties' own work (users' claims and payment requests, the
pool members' partial decryptions, the advertisers' audits) runs through
forking.fork_map: the parent does its own chunk through the parties' usual
calls, and forked children build the other parties' transactions, which
the parent submits in party order.  For a user whose claim or request was
built in a child, the interaction_encryption_s or request_generation_s
sample is the child's time to build the transaction plus the parent's time
to restore the user and submit it; the fork, and any wait for the child,
are in no sample.

Invariant checking is part of the run: reward payouts are compared to a
plaintext dot-product oracle, analytics to element-wise sums, and escrow
to the stake = payouts + refunds + fees equation (the ledger itself checks
token conservation on every block it mines); every advertiser audit check
but the refund equation (the stake equation again) must pass.  Detected
facilitator misbehavior is not a violation; it is recorded as complaints
(that is the protocol working).
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from statistics import median

from . import __version__
from .actors import (
    AUDIT_CLAIMS_PER_UNIT,
    AUDIT_COST,
    CLAIM_COST,
    REQUEST_COST,
    AdvertiserAgent,
    CampaignHandle,
    FacilitatorAgent,
    UserAgent,
    pool_analytics,
    run_pool_lifecycle,
)
from .bench import simulated_throughput
from .forking import fork_map
from .group import keygen
from .ledger import Chain
from .rng import Rng
from .scenario import Scenario

__all__ = ["RunOutcome", "run_scenario", "report_bytes", "public_text"]


@dataclass
class ChainRun:
    chain: Chain
    handle: CampaignHandle
    cf: FacilitatorAgent
    advertisers: list
    users: list  # (global_index, UserAgent)
    pool: object
    vectors: dict  # global_index -> the user's interaction vector in each period
    oracle_totals: list  # per-slot interaction sums over every user and period
    period_blocks: dict = field(default_factory=dict)  # period -> range of its block heights
    audit_verdicts: list = field(default_factory=list)


@dataclass
class RunOutcome:
    sections: list
    chains: list  # ChainRun
    timings: dict
    violations: list
    complaints_total: int

    @property
    def ok(self) -> bool:
        return not self.violations


def run_scenario(scenario: Scenario) -> RunOutcome:
    timings = {
        "interaction_encryption_s": [],
        "request_generation_s": [],
        "aggregate_computation_s": [],
        "settlement_s": [],
        "pool_formation_s": [],
    }
    partitions = scenario.user_partition()
    chain_runs = []
    for chain_index in range(scenario.chains):
        chain_runs.append(_run_chain(scenario, chain_index, partitions[chain_index], timings))
    sections, violations, complaints_total = _build_report(scenario, chain_runs)
    summarized = {key: _timing_summary(values) for key, values in timings.items()}
    return RunOutcome(sections, chain_runs, summarized, violations, complaints_total)


def _timing_summary(values):
    if not values:
        return {"median_s": None, "min_s": None, "max_s": None, "count": 0}
    return {"median_s": median(values), "min_s": min(values), "max_s": max(values), "count": len(values)}


def _run_chain(scenario: Scenario, chain_index: int, user_indices, timings) -> ChainRun:
    rng = Rng(f"{scenario.seed}/{scenario.name}").child(f"chain/{chain_index}")
    cf = FacilitatorAgent(
        keygen(rng.child("cf").take_bytes(32)), rng.child("cf-ops"), mode=scenario.cf_mode
    )
    advertisers = [
        AdvertiserAgent(
            adv_id=cfg.id,
            keypair=keygen(rng.child(f"adv/{cfg.id}").take_bytes(32)),
            slots=list(cfg.ads),
            policies=list(cfg.policies),
            impressions=list(cfg.impressions),
            fee=cfg.fee,
        )
        for cfg in scenario.advertisers
    ]
    users = [
        (
            gi,
            UserAgent(
                f"user{gi}",
                rng.child(f"user/{gi}"),
                interaction_cap=scenario.interaction_cap,
                recovery_bound=scenario.recovery_bound,
            ),
        )
        for gi in user_indices
    ]
    genesis = {adv.account: adv.budget + adv.fee for adv in advertisers}
    chain = Chain(chain_index, f"{scenario.seed}/{scenario.name}", genesis)
    handle = cf.deploy_campaign(
        chain, advertisers, scenario.catalog_size, scenario.reward_cap, scenario.epoch_blocks
    )
    vectors = {gi: [scenario.interaction_vector(gi, p) for p in range(scenario.payout_periods)] for gi in user_indices}
    every = [vector for periods in vectors.values() for vector in periods]
    totals = [sum(column) for column in zip(*every)] if every else [0] * scenario.catalog_size
    run = ChainRun(chain, handle, cf, advertisers, users, None, vectors, totals)
    for adv in advertisers:
        adv.verify_and_stake(handle)
    chain.mine_block()

    start = time.perf_counter()
    registrants = [
        (f"reg{chain_index}/{i}", rng.child(f"vrf/{i}").take_bytes(32)) for i in range(scenario.pool.draw_pool)
    ]
    lottery_seed = hashlib.sha256(
        f"lottery/{scenario.seed}/{scenario.name}/{chain_index}".encode()
    ).digest()
    pool = run_pool_lifecycle(
        registrants,
        scenario.pool_params(),
        lottery_seed,
        handle,
        rng.child("pool"),
        recovery_bound=max(run.oracle_totals) + 2,
    )
    run.pool = pool
    chain.mine_block()
    timings["pool_formation_s"].append(time.perf_counter() - start)

    users_by_payout = {}
    last_period = scenario.payout_periods - 1
    for period in range(scenario.payout_periods):
        first_height = chain.height
        if period > 0:
            chain.call(cf.account, handle.psc_address, "advance_period", {})

        def claim(gi, user):
            user.new_period(period)
            vector = vectors[gi][period]
            return lambda: user.claim(handle, vector), lambda: user.claim_tx(handle, vector)

        _fork_users(chain, users, claim, timings["interaction_encryption_s"], CLAIM_COST * scenario.catalog_size)
        start = time.perf_counter()
        chain.mine_block()
        timings["aggregate_computation_s"].append(time.perf_counter() - start)

        def request(gi, user):
            return lambda: user.request_payment(handle), lambda: user.request_tx(handle)

        _fork_users(chain, users, request, timings["request_generation_s"], REQUEST_COST)
        users_by_payout.update((user.payouts[period], user) for _, user in users if period in user.payouts)
        chain.mine_block()

        if period == last_period and users:
            pool_analytics(pool, handle, rng.child("analytics"))
            chain.mine_block()

        if users:
            start = time.perf_counter()
            marked = cf.settle(handle, users_by_payout)
            chain.mine_block()
            timings["settlement_s"].append(time.perf_counter() - start)

            for _, user in users:
                user.verify_payment(handle, period)
            chain.mine_block()

            cf.mark_processed(handle, marked)
            chain.mine_block()

            for _, user in users:
                user.redeem(handle, period)
            chain.mine_block()
        run.period_blocks[period] = range(first_height, chain.height)

    claims = len(handle.psc.reported_vectors)
    fork_map(
        lambda advs: [adv.audit_checks(handle) for adv in advs],
        advertisers,
        scenario.catalog_size * (AUDIT_COST * scenario.pool.threshold + claims // AUDIT_CLAIMS_PER_UNIT),
        own=lambda adv: run.audit_verdicts.append(adv.audit(handle)),
        then=lambda adv, checked: run.audit_verdicts.append(adv.file_claim(handle, *checked)),
    )
    chain.mine_block()
    return run


def _fork_users(chain: Chain, users: list, step, samples: list, cost: int) -> None:
    """One batch of users' own work through fork_map.  step(gi, user)
    does a user's untimed preliminaries and returns two calls: one that
    sends the user's transaction (the parent's own chunk) and one that only
    builds it (a child's chunk; the parent restores the user's state from
    the child and submits what it built).  `samples` gets each user's
    time in those calls; see the module docstring."""

    def act(party):
        send, _ = step(*party)
        start = time.perf_counter()
        send()
        samples.append(time.perf_counter() - start)

    def prepare(party):
        _, build = step(*party)
        start = time.perf_counter()
        tx = build()
        return party[1], tx, time.perf_counter() - start

    def submit(party, prepared):
        user, tx, seconds = prepared
        start = time.perf_counter()
        vars(party[1]).update(vars(user))
        if tx is not None:
            chain.submit_tx(tx)
        samples.append(seconds + time.perf_counter() - start)

    fork_map(lambda piece: [prepare(party) for party in piece], users, cost, own=act, then=submit)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _build_report(scenario: Scenario, chain_runs) -> tuple:
    violations = []
    user_rows, adv_rows, complaint_rows, conservation_rows, chain_rows, totals_rows = (
        [],
        [],
        [],
        [],
        [],
        [],
    )
    complaints_total = 0
    policies = scenario.policy_vector()

    for run in chain_runs:
        chain = run.chain
        fsc = run.handle.fsc
        chain_id = chain.chain_id

        for gi, user in run.users:
            claimed = sum(user.claimed.values())
            paid = sum(amount for _, _, amount in user.received.values())
            oracle = sum(sum(p * x for p, x in zip(policies, vector)) for vector in run.vectors[gi])
            row = {
                "user": user.user_id,
                "chain": chain_id,
                "claimed": claimed,
                "paid": paid,
                "oracle": oracle,
                "complaints": len(user.complaints),
            }
            user_rows.append(row)
            if claimed != oracle:
                violations.append(f"user {user.user_id}: claimed {claimed} != oracle {oracle}")
            if paid != claimed and not user.complaints:
                violations.append(f"user {user.user_id}: paid {paid} != claimed {claimed} without complaint")
            complaints_total += len(user.complaints)

        clicks = fsc.click_totals
        for adv in run.advertisers:
            record = fsc.advertisers[adv.adv_id]
            spent = sum(policies[slot] * clicks[slot] for slot in adv.slots)
            refunded = fsc.refunds_paid.get(adv.adv_id, 0)
            flagged = any(
                c.get("advertiser") == adv.adv_id for c in fsc.complaints if c["kind"] == "insufficient_refund"
            )
            adv_rows.append(
                {
                    "id": adv.adv_id,
                    "chain": chain_id,
                    "staked": record["staked"],
                    "spent": spent,
                    "refunded": refunded,
                    "fee": adv.fee,
                    "top_up_due": fsc.top_up_due.get(adv.adv_id, 0),
                    "flagged_cf": flagged,
                }
            )
            holds = spent + refunded + adv.fee == record["staked"] + fsc.top_up_due.get(adv.adv_id, 0)
            if fsc.status != "failed" and fsc.refunds_done and not holds:
                violations.append(f"advertiser {adv.adv_id}@chain{chain_id}: stake equation broken")
            conservation_rows.append(
                {
                    "chain": chain_id,
                    "advertiser": adv.adv_id,
                    "equation": "stake == spent + refund + fee",
                    "stake": record["staked"],
                    "spent": spent,
                    "refund": refunded,
                    "fee": adv.fee,
                    "holds": holds,
                }
            )

        for verdict in run.audit_verdicts:
            # refund_equation is the stake equation above, seen by one advertiser
            violations.extend(
                f"advertiser {verdict['advertiser']}@chain{chain_id}: audit check {name} failed"
                for name, ok in verdict["checks"]
                if not ok and name != "refund_equation"
            )

        totals_match = fsc.analytics_totals == run.oracle_totals if fsc.analytics_totals is not None else None
        totals_rows.append(
            {
                "chain": chain_id,
                "recovered_totals": fsc.analytics_totals,
                "oracle_totals": run.oracle_totals,
                "match": totals_match,
            }
        )
        if run.users and totals_match is False:
            violations.append(f"chain {chain_id}: analytics totals disagree with element-wise sums")
        if run.users and fsc.analytics_totals is None:
            violations.append(f"chain {chain_id}: analytics never combined")

        for complaint in fsc.complaints:
            complaint_rows.append({"chain": chain_id, **complaint})
        complaints_total += len([c for c in fsc.complaints if c["kind"] == "insufficient_refund"])

        chain_rows.append(
            {
                "chain": chain_id,
                "blocks": len(chain.blocks),
                "txs": sum(len(b.tx_records) for b in chain.blocks),
                "users": len(run.users),
                "status": fsc.status,
                "fees_paid": fsc.refunds_done,
                "sim_users_per_day": simulated_throughput(len(run.users), 1)["users_per_day"],
                "final_state": chain.state_hash(),
            }
        )
        violations.extend(_unlinkability_violations(run))

        if scenario.cf_mode == "honest" and (fsc.complaints or any(u.complaints for _, u in run.users)):
            violations.append(f"chain {chain_id}: complaints during an honest run")

    sections = [
        {
            "section": "meta",
            "name": scenario.name,
            "seed": scenario.seed,
            "cf_mode": scenario.cf_mode,
            "version": __version__,
            "scenario": scenario.to_dict(),
        },
        {"section": "users", "rows": user_rows},
        {"section": "advertisers", "rows": adv_rows},
        {"section": "ad_totals", "rows": totals_rows},
        {"section": "complaints", "rows": complaint_rows},
        {"section": "conservation", "rows": conservation_rows},
        {"section": "chains", "rows": chain_rows},
        {
            "section": "verdict",
            "ok": not violations,
            "violations": violations,
            "complaints_total": complaints_total,
        },
    ]
    return sections, violations, complaints_total


def public_text(block_records) -> str:
    """What anyone reading the blocks sees, as text to search: each tx's
    sender, the args of each public tx as their canonical JSON (the text
    decode_args reads, with points and bytes as plain hex), and the
    receipts.  A private tx's args are ciphertext and are left out."""
    lines = []
    for record in block_records:
        for tx in record["txs"]:
            lines.append(tx["sender"])
            if not tx["private"]:
                lines.append(bytes.fromhex(tx["args"]).decode(errors="backslashreplace"))
        lines.append(json.dumps(record["receipts"], sort_keys=True))
    return "\n".join(lines)


# A needle (a pk's hex, 66 characters, or an address's, 40) is looked for
# in full only where the text holds one of its _KEY-character pieces at a
# multiple of _STRIDE: any occurrence of a needle at least _STRIDE + _KEY - 1
# long covers one such piece.  The pieces come from one regex scan of the
# text.  On `users` (two periods of 110 kB of text a chain) this takes the
# check from 7 ms a chain to 3 ms.
_STRIDE, _KEY = 28, 13
_PIECES = re.compile(f"(?s)(.{{{_KEY}}}).{{0,{_STRIDE - _KEY}}}")


def _occurs(needle: str, text: str, pieces: set) -> bool:
    """needle in text, for a needle at least _STRIDE + _KEY - 1 long and
    the text's pieces, set(_PIECES.findall(text))."""
    keys = (needle[o : o + _KEY] for o in range(_STRIDE))
    return not pieces.isdisjoint(keys) and needle in text


def _unlinkability_violations(run: ChainRun) -> list:
    """No ephemeral pk, payout address or sender of a user's period may
    surface in another period's public_text, taken over every block the
    period mined (its analytics block included).  A period's sender is the
    account its claim and requests go out from."""
    violations = []
    if len(run.period_blocks) < 2:
        return violations
    texts = {
        period: public_text(run.chain.blocks[height].record() for height in heights)
        for period, heights in run.period_blocks.items()
    }
    pieces = {period: set(_PIECES.findall(text)) for period, text in texts.items()}

    def surfaces(needle: str, period) -> bool:
        return bool(needle) and _occurs(needle, texts[period], pieces[period])

    for _, user in run.users:
        for period in run.period_blocks:
            pk_hex = user.ephemerals.get(period, b"").hex()
            addr_hex = user.payouts.get(period, b"").hex()
            sender_hex = user.accounts.get(period, b"").hex()
            for other in texts:
                if other == period:
                    continue
                if surfaces(pk_hex, other):
                    violations.append(f"{user.user_id}: period {period} ephemeral pk leaked into period {other}")
                if surfaces(addr_hex, other):
                    violations.append(f"{user.user_id}: period {period} payout address leaked into period {other}")
                if surfaces(sender_hex, other):
                    violations.append(f"{user.user_id}: period {period} sender appears in period {other}")
    return violations


def report_bytes(sections) -> bytes:
    return ("\n".join(json.dumps(s, sort_keys=True, separators=(",", ":")) for s in sections) + "\n").encode()
