"""Policy/fund contract semantics, driven through real ledger transactions.

The reward expectations are computed with a plain dot-product oracle; the
refund expectations with plain stake/spent/fee arithmetic.
"""

import ast
from pathlib import Path

import pytest

from privads.codec import canonical_json, encode_args
from privads.contracts import FundContract, PolicyContract
from privads.group import (
    G,
    ORDER,
    decrypt,
    encrypt_vector,
    hybrid_encrypt,
    keygen,
    random_scalar,
    recover_plaintext,
    sign,
)
from privads.ledger import address_from_pk
from privads.payments import build_batch, serialize_batch
from privads.proofs import prove_decryption
from privads.threshold import KeyShare, dkg_run, partial_decrypt

from conftest import build_campaign, claim_analytics, land_analytics, post_analytics, register_pool


def claim(campaign, vector, tag="user"):
    """Submit a claim, its analytics copy under the campaign's pool key (a
    one-member pool registered here if it has none); returns the ephemeral
    keypair used."""
    rng = campaign.rng
    kp = keygen(b"eph/" + tag.encode())
    pool = campaign.pool or register_pool(campaign)
    enc_vec = encrypt_vector(kp.pk, vector, rng)
    enc_vec_prime = encrypt_vector(pool.public_key.pk, vector, rng)
    campaign.chain.call(
        campaign.cf_account,
        campaign.psc_address,
        "compute_aggregate",
        {"user_pk": kp.pk, "enc_vec": enc_vec, "enc_vec_prime": enc_vec_prime},
    )
    campaign.mine()
    return kp


def request_payment(campaign, kp, amount=None, payout=None, rng=None):
    rng = rng or campaign.rng
    ct, _ = campaign.psc.get_aggregate(kp.pk)
    plain, proof = prove_decryption(kp, ct, rng)
    recovered = recover_plaintext(plain, 2**20)
    claim_amount = recovered if amount is None else amount
    payout = payout or address_from_pk(keygen(b"payout/" + kp.pk.encode()).pk)
    rid = campaign.chain.call(
        campaign.cf_account,
        campaign.psc_address,
        "payment_request",
        {
            "user_pk": kp.pk,
            "amount": claim_amount,
            "proof": proof,
            "payout_address": payout,
        },
        private=True,
        rng=rng,
    )
    campaign.mine()
    return rid, recovered, payout


class TestPolicyStorage:
    def test_cf_writes_slot(self):
        campaign = build_campaign(stake=False)
        assert campaign.psc.enc_policies[0] is not None

    def test_non_cf_rejected(self):
        campaign = build_campaign(stake=False)
        outsider = address_from_pk(keygen(b"outsider").pk)
        rid = campaign.chain.call(
            outsider, campaign.psc_address, "store_policy", {"index": 0, "enc_policy": b"x"}
        )
        campaign.mine()
        assert "NotCF" in campaign.chain.receipt(rid).error

    def test_write_after_init_rejected(self, campaign):
        rid = campaign.cf_call(campaign.psc_address, "store_policy", {"index": 0, "enc_policy": b"x"})
        campaign.mine()
        assert "AlreadyInitialized" in campaign.chain.receipt(rid).error

    def test_index_out_of_range(self):
        campaign = build_campaign(stake=False)
        rid = campaign.cf_call(campaign.psc_address, "store_policy", {"index": 3, "enc_policy": b"x"})
        campaign.mine()
        assert "IndexOutOfRange" in campaign.chain.receipt(rid).error

    def test_encrypted_keys_bad_signature(self):
        campaign = build_campaign(stake=False)
        rng = campaign.rng
        keys = [hybrid_encrypt(campaign.chain.validator_keypair.pk, b"k" * 32, rng) for _ in range(3)]
        sig = sign(campaign.cf, encode_args(keys), rng, tag=b"sig/enc-keys")
        tampered = keys[::-1]
        rid = campaign.cf_call(
            campaign.psc_address, "store_encrypted_keys", {"enc_keys": tampered, "sig": sig}
        )
        campaign.mine()
        assert "BadSignature" in campaign.chain.receipt(rid).error

    def test_encrypted_keys_wrong_signer(self):
        campaign = build_campaign(stake=False)
        rng = campaign.rng
        keys = [hybrid_encrypt(campaign.chain.validator_keypair.pk, b"k" * 32, rng) for _ in range(3)]
        sig = sign(keygen(b"not-cf"), encode_args(keys), rng, tag=b"sig/enc-keys")
        rid = campaign.cf_call(
            campaign.psc_address, "store_encrypted_keys", {"enc_keys": keys, "sig": sig}
        )
        campaign.mine()
        assert "BadSignature" in campaign.chain.receipt(rid).error


class TestAggregation:
    def test_worked_example(self, campaign):
        # policies 4/20/12, interactions 3/0/2; oracle: 4*3 + 20*0 + 12*2
        kp = claim(campaign, [3, 0, 2])
        ct, _ = campaign.psc.get_aggregate(kp.pk)
        expected = 4 * 3 + 20 * 0 + 12 * 2
        assert recover_plaintext(decrypt(kp.sk, ct), 1000) == expected == 36

    def test_zero_vector(self, campaign):
        kp = claim(campaign, [0, 0, 0], tag="zero")
        ct, _ = campaign.psc.get_aggregate(kp.pk)
        assert decrypt(kp.sk, ct).is_identity

    def test_length_mismatch(self, campaign):
        kp = keygen(b"short")
        enc = encrypt_vector(kp.pk, [1, 1], campaign.rng)
        rid = campaign.cf_call(
            campaign.psc_address,
            "compute_aggregate",
            {"user_pk": kp.pk, "enc_vec": enc, "enc_vec_prime": enc},
        )
        campaign.mine()
        assert "LengthMismatch" in campaign.chain.receipt(rid).error

    def test_unknown_user_before_compute(self, campaign):
        from privads.ledger import ContractError

        with pytest.raises(ContractError):
            campaign.psc.get_aggregate(keygen(b"nobody").pk)

    def test_claim_before_init_rejected(self):
        campaign = build_campaign(stake=False)
        kp = keygen(b"early")
        enc = encrypt_vector(kp.pk, [1, 0, 0], campaign.rng)
        rid = campaign.cf_call(
            campaign.psc_address,
            "compute_aggregate",
            {"user_pk": kp.pk, "enc_vec": enc, "enc_vec_prime": enc},
        )
        campaign.mine()
        assert "NotInitialized" in campaign.chain.receipt(rid).error

    @pytest.mark.parametrize("catalog_size", [8, 64, 256])
    def test_aggregate_correctness_random_catalogs(self, catalog_size):
        # plaintext dot-product oracle over a random catalog
        from privads.rng import Rng

        rng = Rng(f"catalog-{catalog_size}")
        policies = tuple(rng.randrange(1, 21) for _ in range(catalog_size))
        vector = [rng.randrange(6) for _ in range(catalog_size)]
        oracle = sum(p * x for p, x in zip(policies, vector))
        campaign = build_campaign(
            policies=policies,
            impressions=(10,) * catalog_size,
            seed=f"catalog-{catalog_size}",
        )
        kp = claim(campaign, vector, tag=f"n{catalog_size}")
        ct, _ = campaign.psc.get_aggregate(kp.pk)
        assert recover_plaintext(decrypt(kp.sk, ct), 2**20) == oracle

    def test_aggregate_signature_verifies(self, campaign):
        from privads.contracts import aggregate_message
        from privads.group import verify_sig

        kp = claim(campaign, [1, 1, 1], tag="signed")
        ct, sig = campaign.psc.get_aggregate(kp.pk)
        message = aggregate_message(kp.pk, ct)
        assert verify_sig(campaign.chain.aggregate_keypair.pk, message, sig, tag=b"sig/aggregate")


class TestAggregateOpCounts:
    """Deterministic operation counts that wall-clock bounds would miss."""

    def _count_calls(self, monkeypatch, owner, name, record):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            record.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_policies_decrypted_once_per_campaign(self, campaign, monkeypatch):
        import privads.group

        decrypts = []
        self._count_calls(monkeypatch, privads.group, "hybrid_decrypt", decrypts)
        first = claim(campaign, [3, 0, 2], tag="first")
        second = claim(campaign, [1, 1, 1], tag="second")
        assert len(decrypts) == campaign.psc.catalog_size
        oracle = {first: 4 * 3 + 12 * 2, second: 4 + 20 + 12}
        for kp, expected in oracle.items():
            ct, _ = campaign.psc.get_aggregate(kp.pk)
            assert recover_plaintext(decrypt(kp.sk, ct), 1000) == expected

    def test_aggregate_multiplies_no_ciphertext_point(self, campaign, monkeypatch):
        from privads.group import GroupElement

        claim(campaign, [1, 0, 0], tag="warm")  # decrypts and caches the policies
        kp = keygen(b"eph/counted")
        enc_vec = encrypt_vector(kp.pk, [3, 0, 2], campaign.rng)
        campaign.cf_call(
            campaign.psc_address,
            "compute_aggregate",
            {"user_pk": kp.pk, "enc_vec": enc_vec, "enc_vec_prime": enc_vec},
        )
        bases = []
        self._count_calls(monkeypatch, GroupElement, "mul", bases)
        campaign.mine()
        # only the aggregate signature multiplies, and only the generator
        assert bases and all(base == G for base in bases)
        ct, _ = campaign.psc.get_aggregate(kp.pk)
        assert recover_plaintext(decrypt(kp.sk, ct), 1000) == 36

    def test_policies_cached_only_once_frozen(self):
        from privads.ledger import ExecutionContext

        campaign = build_campaign(stake=False)  # store_policy still open
        ctx = ExecutionContext(campaign.chain, campaign.cf_account, campaign.chain.height, "probe")
        assert campaign.psc._decrypt_policies(ctx) == (4, 20, 12)
        assert campaign.psc._policy_values is None


class TestPaymentRequest:
    def test_honest_request_buffered(self, campaign):
        kp = claim(campaign, [3, 0, 2])
        rid, recovered, payout = request_payment(campaign, kp)
        assert campaign.chain.receipt(rid).ok
        assert campaign.fsc.payment_requests == [
            {"addr": payout, "amount": 36, "user_pk": kp.pk.encode()}
        ]
        assert recovered == 36

    def test_a_payout_address_takes_one_request(self, campaign):
        # A payout address is paid once, so a second request naming it
        # would never be marked; it fails and buffers nothing.
        first = claim(campaign, [3, 0, 2], tag="first")
        second = claim(campaign, [1, 1, 1], tag="second")
        rid, _, payout = request_payment(campaign, first)
        assert campaign.chain.receipt(rid).ok
        before = canonical_json(campaign.psc.state_dict()), canonical_json(campaign.fsc.state_dict())
        rid, _, _ = request_payment(campaign, second, payout=payout)
        assert campaign.chain.receipt(rid).error == f"DuplicatePayoutAddress: {payout.hex()}"
        assert (canonical_json(campaign.psc.state_dict()), canonical_json(campaign.fsc.state_dict())) == before

    def test_wrong_amount_rejected(self, campaign):
        kp = claim(campaign, [3, 0, 2])
        rid, _, _ = request_payment(campaign, kp, amount=37)
        assert "BadProof" in campaign.chain.receipt(rid).error

    def test_amount_minus_one_rejected(self, campaign):
        kp = claim(campaign, [3, 0, 2], tag="minus")
        rid, _, _ = request_payment(campaign, kp, amount=35)
        assert "BadProof" in campaign.chain.receipt(rid).error

    def test_cap_exceeded(self):
        campaign = build_campaign(reward_cap=35)
        kp = claim(campaign, [3, 0, 2])
        rid, _, _ = request_payment(campaign, kp)
        assert "CapExceeded" in campaign.chain.receipt(rid).error

    def test_duplicate_request(self, campaign):
        kp = claim(campaign, [3, 0, 2])
        rid1, _, _ = request_payment(campaign, kp)
        rid2, _, _ = request_payment(campaign, kp)
        assert campaign.chain.receipt(rid1).ok
        assert "DuplicateRequest" in campaign.chain.receipt(rid2).error

    def test_amount_aliased_below_zero_rejected(self, campaign):
        # amount - ORDER names the same point as amount, so the proof holds.
        kp = claim(campaign, [3, 0, 2])
        rid, _, _ = request_payment(campaign, kp, amount=36 - ORDER)
        assert campaign.chain.receipt(rid).error == f"NegativeAmount: {36 - ORDER}"
        assert campaign.fsc.payment_requests == []

    def test_public_submission_rejected(self, campaign):
        kp = claim(campaign, [3, 0, 2])
        ct, _ = campaign.psc.get_aggregate(kp.pk)
        _, proof = prove_decryption(kp, ct, campaign.rng)
        rid = campaign.cf_call(
            campaign.psc_address,
            "payment_request",
            {
                "user_pk": kp.pk,
                "amount": 36,
                "proof": proof,
                "payout_address": address_from_pk(kp.pk),
            },
        )
        campaign.mine()
        assert "NotPrivate" in campaign.chain.receipt(rid).error


class TestPeriods:
    def test_advance_period_reopens_requests(self, campaign):
        kp = claim(campaign, [3, 0, 2])
        request_payment(campaign, kp)
        outsider = address_from_pk(keygen(b"outsider").pk)
        rid = campaign.chain.call(outsider, campaign.psc_address, "advance_period", {})
        campaign.mine()
        assert "NotCF" in campaign.chain.receipt(rid).error
        rid = campaign.cf_call(campaign.psc_address, "advance_period", {})
        campaign.mine()
        assert campaign.chain.receipt(rid).ok
        assert campaign.psc.period == 1 and campaign.psc.requested_this_period == {}


class TestStaking:
    def test_all_stakes_flip_init(self):
        campaign = build_campaign(
            advertiser_split={"a": [0], "b": [1], "c": [2]}, stake=False
        )
        assert not campaign.fsc.init
        for adv_id, _, account, budget, fee, _, _ in campaign.advertisers:
            campaign.chain.call(account, campaign.fsc_address, "store_funds", {"id": adv_id, "amount": budget + fee})
        campaign.mine()
        assert campaign.fsc.init

    def test_partial_staking_keeps_uninitialized(self):
        campaign = build_campaign(advertiser_split={"a": [0], "b": [1], "c": [2]}, stake=False)
        for adv_id, _, account, budget, fee, _, _ in campaign.advertisers[:2]:
            campaign.chain.call(account, campaign.fsc_address, "store_funds", {"id": adv_id, "amount": budget + fee})
        campaign.mine()
        assert not campaign.fsc.init

    def test_wrong_stake_amount(self):
        # budget-formula oracle: required = sum(impressions*policy) + fee
        campaign = build_campaign(stake=False)
        adv_id, _, account, budget, fee, _, _ = campaign.advertisers[0]
        assert budget == 4 * 100 + 20 * 100 + 12 * 100
        rid = campaign.chain.call(
            account, campaign.fsc_address, "store_funds", {"id": adv_id, "amount": budget + fee - 1}
        )
        campaign.mine()
        assert "WrongStakeAmount" in campaign.chain.receipt(rid).error

    def test_unknown_advertiser(self, campaign):
        rid = campaign.cf_call(campaign.fsc_address, "store_funds", {"id": "ghost", "amount": 1})
        campaign.mine()
        assert "UnknownAdvertiser" in campaign.chain.receipt(rid).error

    def test_store_adv_after_init_rejected(self, campaign):
        rid = campaign.cf_call(
            campaign.fsc_address,
            "store_adv_id",
            {"id": "late", "account": campaign.cf_account, "budget": 1, "fee": 0, "ads": []},
        )
        campaign.mine()
        assert "AlreadyInitialized" in campaign.chain.receipt(rid).error


class TestAnalyticsPosts:
    def land(self, campaign, pool, *vectors):
        """Land each vector as one claim's analytics copy under the pool key."""
        for i, vector in enumerate(vectors):
            claim_analytics(campaign, encrypt_vector(pool.public_key.pk, vector, campaign.rng), tag=f"claim{i}")

    def test_threshold_combination(self, campaign):
        pool = register_pool(campaign, (1, 2, 3), threshold=2)
        self.land(campaign, pool, [2, 0, 3], [3, 0, 4])
        for index in (1, 2):
            receipt = post_analytics(campaign, pool, index)
            assert receipt.ok, receipt.error
        # oracle: the plaintext sum of the two claims
        assert campaign.fsc.analytics_totals == [5, 0, 7]

    def test_the_pool_threshold_is_the_vector_length(self, campaign):
        pool = register_pool(campaign, (1, 2, 3), threshold=2)
        assert campaign.fsc.pool_verification == tuple(pool.public_key.verification)
        assert campaign.fsc.pool_threshold == 2

    def test_post_before_any_claim_is_a_typed_code(self, campaign):
        pool = register_pool(campaign)
        before = canonical_json(campaign.fsc.state_dict())
        stray = encrypt_vector(G, [1, 2, 3], campaign.rng)
        partials = [partial_decrypt(pool.shares[1], ct, campaign.rng) for ct in stray]
        receipt = post_analytics(campaign, pool, 1, partials=partials)
        assert receipt.error == "NoClaims: no analytics vector to decrypt"
        assert canonical_json(campaign.fsc.state_dict()) == before

    def test_rejected_first_post_stores_nothing(self, campaign):
        # Member 3 posts first, decrypting the first claim's analytics
        # vector alone: the contract checks its partials against the sums
        # it takes from the claims, so the post fails, fixes nothing and
        # cannot block the honest posts.
        pool = register_pool(campaign, (1, 2, 3), threshold=2)
        self.land(campaign, pool, [2, 0, 3], [3, 0, 4])
        first_vector = campaign.psc.reported_vectors[0][2]
        junk = [partial_decrypt(pool.shares[3], ct, campaign.rng) for ct in first_vector]
        before = canonical_json(campaign.fsc.state_dict())
        receipt = post_analytics(campaign, pool, 3, partials=junk)
        assert receipt.error == "InvalidShareProof: 3"
        assert canonical_json(campaign.fsc.state_dict()) == before
        for index in (1, 2):
            receipt = post_analytics(campaign, pool, index)
            assert receipt.ok, receipt.error
        assert campaign.fsc.analytics_totals == [5, 0, 7]

    def test_the_first_post_fixes_the_sums(self, campaign):
        # A claim landing after the first post changes the policy
        # contract's sums but not the ones being decrypted; the audit's
        # homomorphic_sum_matches check is what reports it.
        pool = register_pool(campaign, (1, 2, 3), threshold=2)
        self.land(campaign, pool, [5, 0, 7])
        fixed = campaign.psc.analytics_sums()
        assert post_analytics(campaign, pool, 1).ok
        claim_analytics(campaign, encrypt_vector(pool.public_key.pk, [1, 1, 1], campaign.rng), tag="late")
        partials = [partial_decrypt(pool.shares[2], ct, campaign.rng) for ct in fixed]
        receipt = post_analytics(campaign, pool, 2, partials=partials)
        assert receipt.ok, receipt.error
        assert campaign.fsc.analytics_totals == [5, 0, 7]

    def test_each_partial_checked_once_in_a_batch(self, campaign, monkeypatch):
        import privads.proofs
        import privads.threshold

        rng = campaign.rng
        pool = register_pool(campaign, (1, 2, 3), threshold=2)
        self.land(campaign, pool, [5, 0, 7])
        sums = campaign.psc.analytics_sums()
        posts = {i: [partial_decrypt(pool.shares[i], ct, rng) for ct in sums] for i in (1, 2)}
        single, batched = [], []

        def counted_single(*args):
            single.append(args)
            return True

        def counted_batch(tag, statements, proofs):
            batched.append(len(proofs))
            return first_invalid(tag, statements, proofs)

        first_invalid = privads.threshold.dleq_first_invalid
        monkeypatch.setattr(privads.proofs, "dleq_verify", counted_single)
        monkeypatch.setattr(privads.threshold, "dleq_verify", counted_single)
        monkeypatch.setattr(privads.threshold, "dleq_first_invalid", counted_batch)
        for index, partials in posts.items():
            post_analytics(campaign, pool, index, partials=partials)
        assert campaign.fsc.analytics_totals == [5, 0, 7]
        assert single == []
        assert batched == [3, 3]

    def test_forged_partial_rejected(self, campaign):
        rng = campaign.rng
        pool = register_pool(campaign, (1, 2), threshold=2)
        self.land(campaign, pool, [1, 2, 3])
        partials = [partial_decrypt(pool.shares[1], ct, rng) for ct in campaign.psc.analytics_sums()]
        forged = [type(p)(p.index, p.share_point + G, p.proof) for p in partials]
        receipt = post_analytics(campaign, pool, 1, partials=forged)
        assert "InvalidShareProof" in receipt.error

    def test_post_cannot_bring_its_own_verification_vector(self, campaign):
        # A made-up index-3 share s with valid proofs, posted with the vector
        # [pk, (s*G - pk)/3] whose index-3 commitment is s*G.  Posts are
        # checked against the vector registered with the pool, so the
        # forgery fails and cannot block the honest posts.
        rng = campaign.rng
        pool = register_pool(campaign, (1, 2, 3), threshold=2)
        pk = pool.public_key.pk
        self.land(campaign, pool, [5, 0, 7])
        s = random_scalar(rng)
        made_up = KeyShare(3, s, G.mul(s))
        forged_vector = [pk, (G.mul(s) - pk).mul(pow(3, -1, ORDER))]
        forged = [partial_decrypt(made_up, ct, rng) for ct in campaign.psc.analytics_sums()]
        post = {"index": 3, "partials": forged}
        carried = campaign.cf_call(
            campaign.fsc_address, "post_analytics", {**post, "tpk_pk": pk, "tpk_vector": forged_vector}
        )
        rid = campaign.cf_call(campaign.fsc_address, "post_analytics", post)
        campaign.mine()
        assert campaign.chain.receipt(carried).error == "BadArgs: unknown tpk_pk, unknown tpk_vector"
        assert "InvalidShareProof" in campaign.chain.receipt(rid).error
        for index in (1, 2):
            receipt = post_analytics(campaign, pool, index)
            assert receipt.ok, receipt.error
        assert campaign.fsc.analytics_totals == [5, 0, 7]

    def test_aliased_index_rejected_before_any_group_work(self, campaign):
        # Share 1's public partials re-posted under an index that equals 1
        # modulo ORDER would pass the proof check and then break every
        # Lagrange combination; the contract refuses it outright.
        pool = register_pool(campaign, (1, 2, 3), threshold=2)
        self.land(campaign, pool, [5, 0, 7])
        honest = [partial_decrypt(pool.shares[1], ct, campaign.rng) for ct in campaign.psc.analytics_sums()]
        assert post_analytics(campaign, pool, 1, partials=honest).ok
        for index in (0, 1 - ORDER, 1 + ORDER):
            before = canonical_json(campaign.fsc.state_dict())
            replay = [type(p)(index, p.share_point, p.proof) for p in honest]
            receipt = post_analytics(campaign, pool, index, partials=replay)
            assert "IndexOutOfRange" in receipt.error
            assert canonical_json(campaign.fsc.state_dict()) == before
        for index in (2, 3):
            receipt = post_analytics(campaign, pool, index)
            assert receipt.ok, receipt.error
        assert campaign.fsc.analytics_totals == [5, 0, 7]

    @pytest.mark.parametrize("bad", ["other_key", "empty_vector"])
    def test_register_pool_checks_the_published_key(self, campaign, bad):
        pool = dkg_run([1, 2], 2, campaign.rng)
        campaign.cf_call(campaign.psc_address, "store_threshold_key", {"pk": pool.public_key.pk})
        if bad == "other_key":
            verification = dkg_run([1, 2], 2, campaign.rng).public_key.verification
        else:
            verification = []
        rid = campaign.cf_call(
            campaign.fsc_address,
            "register_pool",
            {"verification": verification, "recovery_bound": 2**12},
        )
        campaign.mine()
        assert "ThresholdKeyMismatch" in campaign.chain.receipt(rid).error
        assert campaign.fsc.pool_key is None


def settle_campaign(campaign, kps_with_amounts, underpay_addr=None, surplus=0):
    """Drive settlement: analytics over the claims, settlement request,
    batch, processed marks.

    Returns {payout_addr: (tx_ref, blinding, amount_paid)}.
    """
    rng = campaign.rng
    receipt = post_analytics(campaign, campaign.pool)
    assert receipt.ok, receipt.error

    pending = campaign.fsc.payment_requests
    total = sum(r["amount"] for r in pending) + surplus
    message = encode_args(["settlement", campaign.fsc_address, total, campaign.fsc.settlement_counter])
    sig = sign(campaign.cf, message, rng, tag=b"sig/settlement")
    campaign.cf_call(campaign.fsc_address, "settlement_request", {"amount": total, "sig": sig})
    campaign.mine()

    payments, openings = [], {}
    batch_total = 0
    for req in pending:
        amount = req["amount"]
        if underpay_addr == req["addr"]:
            amount -= 1
        blinding = random_scalar(rng)
        payments.append((req["addr"], amount, blinding))
        openings[req["addr"]] = (blinding, amount)
        batch_total += amount
    batch = build_batch(payments, batch_total, rng)
    campaign.chain.call(
        campaign.cf_account, None, "submit_batch", {"batch": serialize_batch(batch), "total": batch_total}
    )
    campaign.mine()
    result = {}
    for note in batch.notes:
        blinding, amount = openings[note.recipient]
        result[note.recipient] = (note.tx_ref, blinding, amount)
    return result


class TestSettlementAndClose:
    def test_settlement_transfers_sum_of_pending(self, campaign):
        kp = claim(campaign, [3, 0, 2])
        request_payment(campaign, kp)
        escrow_before = campaign.chain.balances[campaign.fsc_address]
        settle_campaign(campaign, [(kp, 36)])
        assert campaign.fsc.settled_total == 36
        assert escrow_before - campaign.chain.balances[campaign.fsc_address] == 36
        # the whole tau went into the settlement batch
        assert campaign.chain.note_pool_value == 36

    def test_overdraw_rejected(self, campaign):
        escrow = campaign.chain.balances[campaign.fsc_address]
        message = encode_args(["settlement", campaign.fsc_address, escrow + 1, 0])
        sig = sign(campaign.cf, message, campaign.rng, tag=b"sig/settlement")
        rid = campaign.cf_call(campaign.fsc_address, "settlement_request", {"amount": escrow + 1, "sig": sig})
        campaign.mine()
        assert "Overdraw" in campaign.chain.receipt(rid).error

    def test_non_cf_signature_rejected(self, campaign):
        message = encode_args(["settlement", campaign.fsc_address, 1, 0])
        sig = sign(keygen(b"evil"), message, campaign.rng, tag=b"sig/settlement")
        rid = campaign.cf_call(campaign.fsc_address, "settlement_request", {"amount": 1, "sig": sig})
        campaign.mine()
        assert "BadSignature" in campaign.chain.receipt(rid).error

    def test_full_close_pays_fees_and_refunds(self, campaign):
        kp = claim(campaign, [3, 0, 2])
        request_payment(campaign, kp)
        notes = settle_campaign(campaign, [(kp, 36)])
        (payout_addr, (tx_ref, _, _)), = notes.items()
        adv_id, _, account, budget, fee, _, policies = campaign.advertisers[0]
        before_adv = campaign.chain.balances[account]
        before_cf = campaign.chain.balances[campaign.cf_account]
        rid = campaign.cf_call(
            campaign.fsc_address, "payment_processed", {"tx_ref": tx_ref, "addr": payout_addr}
        )
        campaign.mine()
        receipt = campaign.chain.receipt(rid)
        assert receipt.ok and receipt.ret["all_paid"]
        # refund oracle: stake - spent - fee, spent = dot(policies, clicks)
        spent = 4 * 3 + 20 * 0 + 12 * 2
        stake = budget + fee
        assert campaign.fsc.refunds_paid == {adv_id: stake - spent - fee}
        assert campaign.chain.balances[account] - before_adv == stake - spent - fee
        assert campaign.chain.balances[campaign.cf_account] - before_cf == fee
        assert campaign.fsc.refunds_done
        assert campaign.chain.conservation_holds()

    def test_refund_boundary_cases(self):
        # zero clicks: refund = stake - fee
        campaign = build_campaign()
        kp = claim(campaign, [0, 0, 0], tag="idle")
        request_payment(campaign, kp)
        notes = settle_campaign(campaign, [(kp, 0)])
        (payout_addr, (tx_ref, _, _)), = notes.items()
        adv_id, _, account, budget, fee, _, _ = campaign.advertisers[0]
        campaign.cf_call(campaign.fsc_address, "payment_processed", {"tx_ref": tx_ref, "addr": payout_addr})
        campaign.mine()
        assert campaign.fsc.refunds_paid == {adv_id: budget}

    def test_bogus_txref(self, campaign):
        kp = claim(campaign, [3, 0, 2])
        request_payment(campaign, kp)
        rid = campaign.cf_call(
            campaign.fsc_address, "payment_processed", {"tx_ref": b"\x01" * 16, "addr": b"\x02" * 20}
        )
        campaign.mine()
        assert "UnknownTxRef" in campaign.chain.receipt(rid).error

    def test_finalize_before_campaign_end_rejected(self, campaign):
        rid = campaign.cf_call(campaign.fsc_address, "finalize", {})
        campaign.mine()
        assert "CampaignActive" in campaign.chain.receipt(rid).error

    def test_epoch_elapse_allows_finalize(self):
        # short epoch; refunds run on the zero-click totals once it elapses
        campaign = build_campaign(epoch_blocks=6)
        land_analytics(campaign, [0, 0, 0])
        while campaign.chain.height < 6:
            campaign.mine()
        rid = campaign.cf_call(campaign.fsc_address, "finalize", {})
        campaign.mine()
        assert campaign.chain.receipt(rid).ok, campaign.chain.receipt(rid).error
        adv_id, _, _, budget, fee, _, _ = campaign.advertisers[0]
        assert campaign.fsc.refunds_paid == {adv_id: budget}
        assert campaign.fsc.refunds_done

    def test_double_mark_idempotent(self, campaign):
        kp = claim(campaign, [3, 0, 2])
        request_payment(campaign, kp)
        notes = settle_campaign(campaign, [(kp, 36)])
        (payout_addr, (tx_ref, _, _)), = notes.items()
        campaign.cf_call(campaign.fsc_address, "payment_processed", {"tx_ref": tx_ref, "addr": payout_addr})
        rid = campaign.cf_call(campaign.fsc_address, "payment_processed", {"tx_ref": tx_ref, "addr": payout_addr})
        campaign.mine()
        receipt = campaign.chain.receipt(rid)
        assert receipt.ok and receipt.ret == {"already": True}

    def test_processed_mark_whose_close_fails_writes_nothing(self, campaign):
        """The last mark closes the campaign; with the escrow drained by the
        settlement the close cannot pay the fees, and the failed mark leaves
        the state as it was, so a retry fails the same way."""
        kp = claim(campaign, [3, 0, 2])
        _, _, payout = request_payment(campaign, kp)
        escrow = campaign.chain.balances[campaign.fsc_address]
        tx_ref, _, _ = settle_campaign(campaign, [(kp, 36)], surplus=escrow - 36)[payout]
        before = (canonical_json(campaign.fsc.state_dict()), dict(campaign.chain.balances))
        for _ in range(2):
            rid = campaign.cf_call(campaign.fsc_address, "payment_processed", {"tx_ref": tx_ref, "addr": payout})
            campaign.mine()
            assert campaign.chain.receipt(rid).error == "Overdraw: escrow cannot cover fees"
            assert (canonical_json(campaign.fsc.state_dict()), dict(campaign.chain.balances)) == before


class TestComplaints:
    def _settled(self, underpay=False):
        campaign = build_campaign()
        kp = claim(campaign, [3, 0, 2])
        _, _, payout = request_payment(campaign, kp)
        notes = settle_campaign(campaign, [(kp, 36)], underpay_addr=payout if underpay else None)
        tx_ref, blinding, paid = notes[payout]
        return campaign, kp, payout, tx_ref, blinding, paid

    def test_underpayment_flags_cf(self):
        campaign, kp, payout, tx_ref, blinding, paid = self._settled(underpay=True)
        assert paid == 35
        rid = campaign.cf_call(
            campaign.fsc_address,
            "raise_complaint",
            {"user_pk": kp.pk.encode(), "tx_ref": tx_ref, "blinding": blinding, "amount": paid},
        )
        campaign.mine()
        receipt = campaign.chain.receipt(rid)
        assert receipt.ok and receipt.ret["verdict"] == "cf_flagged"
        assert campaign.fsc.status == "failed"
        # fees and refunds withheld: neither the final payment_processed nor
        # finalize, nor any retired close path, moves escrowed tokens
        before = campaign.chain.balances[campaign.cf_account]
        escrow = campaign.chain.balances[campaign.fsc_address]
        campaign.cf_call(campaign.fsc_address, "payment_processed", {"tx_ref": tx_ref, "addr": payout})
        for function in ("finalize", "refund_advertisers", "pay_processing_fees"):
            campaign.cf_call(campaign.fsc_address, function, {})
        campaign.mine()
        assert not campaign.fsc.refunds_done
        assert campaign.fsc.refunds_paid == {}
        assert campaign.chain.balances[campaign.cf_account] == before
        assert campaign.chain.balances[campaign.fsc_address] == escrow

    def test_correct_payment_complaint_rejected(self):
        campaign, kp, payout, tx_ref, blinding, paid = self._settled(underpay=False)
        rid = campaign.cf_call(
            campaign.fsc_address,
            "raise_complaint",
            {"user_pk": kp.pk.encode(), "tx_ref": tx_ref, "blinding": blinding, "amount": paid},
        )
        campaign.mine()
        assert campaign.chain.receipt(rid).ret["verdict"] == "rejected"
        assert campaign.fsc.status == "active"

    def test_wrong_opening(self):
        campaign, kp, payout, tx_ref, blinding, paid = self._settled(underpay=False)
        rid = campaign.cf_call(
            campaign.fsc_address,
            "raise_complaint",
            {"user_pk": kp.pk.encode(), "tx_ref": tx_ref, "blinding": blinding + 1, "amount": paid},
        )
        campaign.mine()
        assert "BadOpening" in campaign.chain.receipt(rid).error

    def test_insufficient_refund_flow(self):
        # CF drains surplus from escrow, refund comes up short, advertiser claims
        campaign = build_campaign()
        kp = claim(campaign, [3, 0, 2])
        _, _, payout = request_payment(campaign, kp)
        notes = settle_campaign(campaign, [(kp, 36)], surplus=500)
        tx_ref, _, _ = notes[payout]
        campaign.cf_call(campaign.fsc_address, "payment_processed", {"tx_ref": tx_ref, "addr": payout})
        campaign.mine()
        adv_id, _, account, budget, fee, _, _ = campaign.advertisers[0]
        assert campaign.fsc.refunds_paid[adv_id] < budget - 36
        rid = campaign.cf_call(campaign.fsc_address, "claim_insufficient_refund", {"id": adv_id})
        campaign.mine()
        assert campaign.chain.receipt(rid).ret["verdict"] == "cf_flagged"
        assert campaign.fsc.status == "failed"

    def test_honest_refund_claim_rejected(self):
        campaign = build_campaign()
        kp = claim(campaign, [3, 0, 2])
        _, _, payout = request_payment(campaign, kp)
        notes = settle_campaign(campaign, [(kp, 36)])
        tx_ref, _, _ = notes[payout]
        campaign.cf_call(campaign.fsc_address, "payment_processed", {"tx_ref": tx_ref, "addr": payout})
        campaign.mine()
        adv_id = campaign.advertisers[0][0]
        rid = campaign.cf_call(campaign.fsc_address, "claim_insufficient_refund", {"id": adv_id})
        campaign.mine()
        assert campaign.chain.receipt(rid).ret["verdict"] == "rejected"

    def test_claim_before_refunds(self, campaign):
        rid = campaign.cf_call(campaign.fsc_address, "claim_insufficient_refund", {"id": "adv0"})
        campaign.mine()
        assert "RefundsNotExecuted" in campaign.chain.receipt(rid).error

    def test_unknown_advertiser_claim(self, campaign):
        rid = campaign.cf_call(campaign.fsc_address, "claim_insufficient_refund", {"id": "ghost"})
        campaign.mine()
        assert "UnknownAdvertiser" in campaign.chain.receipt(rid).error


class TestEntryPoints:
    def test_every_entry_point_is_called_and_retired_ones_are_unknown(self, campaign):
        tests = Path(__file__).resolve().parent
        sources = [tests.parent / "src" / "privads" / "actors.py", *sorted(tests.glob("*.py"))]
        literals = {
            node.value
            for path in sources
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        for contract in (PolicyContract, FundContract):
            assert contract.FUNCTIONS - literals == set(), contract.__name__
            assert all(callable(getattr(contract, name)) for name in contract.FUNCTIONS)
        retired = [
            (campaign.psc_address, "get_aggregate"),
            (campaign.fsc_address, "store_aggr_clicks"),
            (campaign.fsc_address, "refund_advertisers"),
            (campaign.fsc_address, "pay_processing_fees"),
        ]
        rids = [campaign.cf_call(target, function, {}) for target, function in retired]
        campaign.mine()
        for rid, (_, function) in zip(rids, retired):
            assert campaign.chain.receipt(rid).error == f"UnknownFunction: {function}"
