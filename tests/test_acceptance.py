"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Expected values come from independent oracles computed inside
each test (plain integer arithmetic, direct scalar multiplication,
binomial statistics), never from the code paths under test.
"""

import hashlib
import itertools
import json
import time
from pathlib import Path
from statistics import median

import pytest

from privads.audit import verify_run, write_block_log
from privads.bench import simulated_throughput
from privads.group import (
    G,
    combine_ciphertexts,
    decrypt,
    encrypt,
    encrypt_vector,
    keygen,
    keygen_batch,
    precompute_base,
    random_scalar,
    recover_plaintext,
)
from privads.proofs import (
    DecryptionProof,
    VrfOutput,
    prove_decryption,
    verify_decryption,
    vrf_eval,
    vrf_rand_batch,
    vrf_verify,
)
from privads.rng import Rng
from privads.runner import report_bytes, run_scenario
from privads.scenario import Scenario, load_scenario
from privads.threshold import (
    InsufficientShares,
    PoolParams,
    combine_partials,
    commitment_eval,
    dkg_run,
    draw_winner,
    max_draw,
    partial_decrypt,
)

from conftest import add_ciphertexts, scalar_mul_ciphertext

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def announce(number, text):
    print(f"\nACCEPTANCE {number}: PASS — {text}")


def section(outcome, name):
    return next(s for s in outcome.sections if s["section"] == name)


def random_scenario(index: int) -> Scenario:
    """N=64, 20 users, 3 advertisers, pool k=3 of nu=5 from D=50."""
    rng = Rng(f"acceptance1-{index}")
    n = 64
    cuts = [list(range(0, 22)), list(range(22, 43)), list(range(43, n))]
    advertisers = [
        {
            "id": f"adv{a}",
            "ads": owned,
            "policies": [rng.randrange(1, 21) for _ in owned],
            "impressions": [100] * len(owned),
            "fee": rng.randrange(5, 51),
        }
        for a, owned in enumerate(cuts)
    ]
    return Scenario.from_dict(
        {
            "name": f"acceptance1-{index}",
            "seed": 1000 + index,
            "catalog_size": n,
            "epoch_blocks": 60,
            "advertisers": advertisers,
            "users": {"count": 20, "max_count": 5},
            "pool": {"participants": 5, "threshold": 3, "draw_pool": 50, "vrf_modulus": 100_000},
        }
    )


def test_criterion_01_end_to_end_correctness():
    for index in range(20):
        scenario = random_scenario(index)
        started = time.perf_counter()
        outcome = run_scenario(scenario)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"scenario {index} took {elapsed:.1f}s"
        assert outcome.ok, outcome.violations
        policies = scenario.policy_vector()
        for row in section(outcome, "users")["rows"]:
            gi = int(row["user"].removeprefix("user"))
            oracle = sum(p * x for p, x in zip(policies, scenario.interaction_vector(gi, 0)))
            assert row["paid"] == oracle, f"scenario {index} user {gi}"
        totals_row = section(outcome, "ad_totals")["rows"][0]
        oracle_totals = [0] * scenario.catalog_size
        for gi in range(20):
            for slot, count in enumerate(scenario.interaction_vector(gi, 0)):
                oracle_totals[slot] += count
        assert totals_row["recovered_totals"] == oracle_totals
        for row in section(outcome, "conservation")["rows"]:
            assert row["stake"] == row["spent"] + row["refund"] + row["fee"], row
    announce(1, "20 random scenarios: payouts, analytics and escrow all token-exact, <60s each")


def test_criterion_02_strawman_worked_example():
    scenario = load_scenario(SCENARIOS / "strawman.yaml")
    policies, interactions = [4, 20, 12], [3, 0, 2]
    oracle = sum(p * x for p, x in zip(policies, interactions))  # independent dot product
    assert scenario.policy_vector() == policies
    assert scenario.interaction_vector(0, 0) == interactions
    outcome = run_scenario(scenario)
    assert outcome.ok
    row = section(outcome, "users")["rows"][0]
    assert row["claimed"] == row["paid"] == oracle == 36
    announce(2, "straw-man policies [4,20,12] x interactions [3,0,2] pay exactly 36 on-chain")


def test_criterion_03_homomorphism_suite():
    rng = Rng("acceptance3")
    kp = keygen(b"acceptance3")
    precompute_base(kp.pk)
    for _ in range(1000):
        m1, m2 = rng.randrange(2**16), rng.randrange(2**16)
        combined = add_ciphertexts(
            encrypt(kp.pk, m1, random_scalar(rng)), encrypt(kp.pk, m2, random_scalar(rng))
        )
        assert recover_plaintext(decrypt(kp.sk, combined), 2**17) == m1 + m2
    for _ in range(1000):
        k, m = rng.randrange(2**8), rng.randrange(2**8)
        scaled = scalar_mul_ciphertext(k, encrypt(kp.pk, m, random_scalar(rng)))
        assert recover_plaintext(decrypt(kp.sk, scaled), 2**17) == k * m
    announce(3, "1000 additive and 1000 scalar homomorphism trials recover exactly")


def test_criterion_04_proof_soundness():
    rng = Rng("acceptance4")
    tampered_rejections = 0
    for i in range(200):
        kp = keygen(b"acc4/%d" % i)
        ct = encrypt(kp.pk, rng.randrange(5000), random_scalar(rng))
        plain, proof = prove_decryption(kp, ct, rng)
        assert verify_decryption(kp.pk, ct, plain, proof)
        if i < 100:
            field = i % 4
            bad = DecryptionProof(
                proof.commit_a + G if field == 0 else proof.commit_a,
                proof.commit_b + G if field == 1 else proof.commit_b,
                proof.challenge + 1 if field == 2 else proof.challenge,
                proof.response + 1 if field == 3 else proof.response,
            )
            assert not verify_decryption(kp.pk, ct, plain, bad)
            tampered_rejections += 1
    for i in range(200):
        kp = keygen(b"acc4vrf/%d" % i)
        seed = b"seed-%d" % i
        out = vrf_eval(kp, seed, 10_000)
        assert vrf_verify(kp.pk, seed, out, 10_000)
        if i < 100:
            field = i % 6
            bad = VrfOutput(
                (out.rand + 1) % 10_000 if field == 0 else out.rand,
                out.gamma + G if field == 1 else out.gamma,
                DecryptionProof(
                    out.proof.commit_a + G if field == 2 else out.proof.commit_a,
                    out.proof.commit_b + G if field == 3 else out.proof.commit_b,
                    out.proof.challenge + 1 if field == 4 else out.proof.challenge,
                    out.proof.response + 1 if field == 5 else out.proof.response,
                ),
            )
            assert not vrf_verify(kp.pk, seed, bad, 10_000)
            tampered_rejections += 1
    assert tampered_rejections == 200
    announce(4, "200 decryption + 200 VRF proofs verify; 200 single-field tamperings reject")


def test_criterion_05_threshold_suite():
    rng = Rng("acceptance5")
    for n in range(1, 7):
        for k in range(1, n + 1):
            result = dkg_run(list(range(1, n + 1)), k, rng)
            # every participant's share lies on the joint commitment
            # polynomial, whose constant term is the public key
            verification = result.public_key.verification
            assert len(verification) == k and verification[0] == result.public_key.pk
            for participant, share in result.shares.items():
                assert G.mul(share.share) == share.commitment == commitment_eval(verification, participant)
            message = 5
            ct = encrypt(result.public_key.pk, message, random_scalar(rng))
            expected = G.mul(message)  # direct construction, not via shares
            partials = {i: partial_decrypt(result.shares[i], ct, rng) for i in result.shares}
            for subset in itertools.combinations(sorted(partials), k):
                point = combine_partials(result.public_key, [partials[i] for i in subset], ct, k)
                assert point == expected, (n, k, subset)
            if k > 1:
                for subset in itertools.combinations(sorted(partials), k - 1):
                    with pytest.raises(InsufficientShares):
                        combine_partials(result.public_key, [partials[i] for i in subset], ct, k)
    announce(5, "n<=6: every k-subset decrypts correctly, every (k-1)-subset fails, shares match pk")


def test_criterion_06_lottery_calibration():
    draw_pool, expected, seeds, modulus = 1000, 50, 100, 2**30
    params = PoolParams(expected=expected, threshold=3, draw_pool=draw_pool, modulus=modulus)
    threshold = max_draw(params)
    probability = threshold / modulus
    sigma = (draw_pool * probability * (1 - probability)) ** 0.5
    low, high = expected - 3 * sigma, expected + 3 * sigma
    kps = keygen_batch([b"lottery/%d" % i for i in range(draw_pool)])
    within = 0
    for s in range(seeds):
        seed = hashlib.sha256(b"round-%d" % s).digest()
        winners = sum(draw_winner(rand, threshold) for rand in vrf_rand_batch(kps, seed, modulus))
        if low <= winners <= high:
            within += 1
    assert within >= 95, f"only {within}/100 rounds within 3 sigma"
    announce(6, f"lottery calibration: {within}/100 rounds within 3 sigma of Binomial(1000, 0.05)")


def test_criterion_07_misbehavior_detection():
    underpay = run_scenario(load_scenario(SCENARIOS / "underpay.yaml"))
    complaints = section(underpay, "complaints")["rows"]
    assert [c["kind"] for c in complaints] == ["underpayment"]
    chain_row = section(underpay, "chains")["rows"][0]
    assert chain_row["status"] == "failed" and chain_row["fees_paid"] is False
    again = run_scenario(load_scenario(SCENARIOS / "underpay.yaml"))
    assert report_bytes(underpay.sections) == report_bytes(again.sections)

    divert = run_scenario(load_scenario(SCENARIOS / "divert.yaml"))
    kinds = [c["kind"] for c in section(divert, "complaints")["rows"]]
    assert "insufficient_refund" in kinds
    assert section(divert, "chains")["rows"][0]["status"] == "failed"
    again = run_scenario(load_scenario(SCENARIOS / "divert.yaml"))
    assert report_bytes(divert.sections) == report_bytes(again.sections)
    announce(7, "underpay -> one validated complaint, failed status, fees withheld; divert -> refund claim flags CF")


def median_seconds(op, repeats):
    """The median wall time of op(0), ..., op(repeats - 1)."""
    samples = []
    for repeat in range(repeats):
        started = time.perf_counter()
        op(repeat)
        samples.append(time.perf_counter() - started)
    return median(samples)


def test_criterion_08_desk_scale_performance():
    n, repeats = 256, 5
    # Interaction encryption: each repeat makes a fresh key, whose holder
    # then encrypts an n-entry interaction vector.
    rng = Rng(f"bench-enc-{n}")
    vector = [rng.randrange(10) for _ in range(n)]
    enc = median_seconds(lambda i: encrypt_vector(keygen(b"bench-enc-%d-%d" % (n, i)), vector, rng), repeats)
    # Request generation: prove the decryption of an n-term policy-weighted
    # aggregate, then recover its plaintext below the scenario's default
    # recovery bound.
    rng = Rng(f"bench-req-{n}")
    keypair = keygen(b"bench-req")
    policies = [rng.randrange(1, 21) for _ in range(n)]
    vector = [rng.randrange(10) for _ in range(n)]
    aggregate = combine_ciphertexts(policies, [encrypt(keypair.pk, x, random_scalar(rng)) for x in vector])
    req = median_seconds(lambda _: recover_plaintext(prove_decryption(keypair, aggregate, rng)[0], 2**20), repeats)
    assert enc <= 1.0, enc
    assert req <= 5.0, req
    announce(8, f"256-ad interaction encryption {enc:.3f}s <= 1.0s, request generation {req:.3f}s <= 5.0s")


def test_criterion_09_scaling_shape():
    single = simulated_throughput(600, 1)["users_per_day"]
    triple = simulated_throughput(600, 3)["users_per_day"]
    ratio = triple / single
    assert ratio >= 2.5, ratio
    values = [simulated_throughput(600, c)["users_per_day"] for c in (1, 2, 3, 4)]
    assert values == sorted(values)
    announce(9, f"simulated 3-chain throughput {ratio:.2f}x single-chain (>= 2.5x)")


def test_criterion_10_determinism_and_audit(tmp_path):
    for name in ("strawman", "honest_small", "multichain"):
        first = run_scenario(load_scenario(SCENARIOS / f"{name}.yaml"))
        second = run_scenario(load_scenario(SCENARIOS / f"{name}.yaml"))
        assert report_bytes(first.sections) == report_bytes(second.sections), name
        report = tmp_path / f"{name}.report.jsonl"
        blocks = tmp_path / f"{name}.blocks.jsonl"
        report.write_bytes(report_bytes(first.sections))
        write_block_log(first.chains, blocks)
        ok, findings = verify_run(report, blocks)
        assert ok, (name, findings)
    # one mutated block log must fail
    blocks = tmp_path / "strawman.blocks.jsonl"
    lines = blocks.read_text().splitlines()
    record = json.loads(lines[3])
    record["txs"] = record["txs"] + [{"forged": True}]
    lines[3] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    blocks.write_text("\n".join(lines) + "\n")
    ok, findings = verify_run(tmp_path / "strawman.report.jsonl", blocks)
    assert not ok and findings
    announce(10, "byte-identical reports; verify-run clean on honest runs, fails on a mutated log")
