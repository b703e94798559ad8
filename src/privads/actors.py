"""Protocol drivers for the four roles: user, advertiser, campaign
facilitator, and consensus participant.

Each driver only touches shared state through ledger transactions (plus
the documented out-of-band channels: advertiser-facilitator policy
negotiation and the facilitator handing each user the opening of its
payment note).  The facilitator supports an honest mode and the two
misbehavior modes that the complaint machinery is meant to catch:
short-paying one user, and draining surplus escrow to itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .codec import encode_args
from .contracts import aggregate_message, policy_blob, policy_value, settlement_message
from .group import (
    KeyPair,
    NoSolutionInBound,
    dh_agree,
    encrypt_vector,
    hybrid_encrypt,
    keygen,
    keygen_batch,
    precompute_base,
    random_scalar,
    recover_plaintext,
    sign,
    sym_decrypt,
    sym_encrypt,
    verify_sig,
)
from .ledger import Chain, address_from_pk
from .payments import build_batch, serialize_batch
from .proofs import prove_decryption, vrf_eval, vrf_rand_batch, vrf_verify
from .rng import Rng
from .threshold import (
    InsufficientParticipants,
    InvalidShareProof,
    PoolParams,
    ThresholdPublicKey,
    dkg_run,
    draw_winner,
    max_draw,
    partial_decrypt,
    verify_partials,
)

__all__ = [
    "CampaignHandle",
    "UserAgent",
    "AdvertiserAgent",
    "FacilitatorAgent",
    "ConsensusParticipant",
    "PoolResult",
    "PolicyMismatch",
    "InsufficientWinners",
    "run_pool_lifecycle",
    "pool_analytics",
]


class PolicyMismatch(Exception):
    """On-chain encrypted policy does not open to the agreed value."""


class InsufficientWinners(Exception):
    """Lottery yielded fewer winners than the decryption threshold."""


@dataclass
class CampaignHandle:
    """Everything an actor needs to reach one campaign on one chain."""

    chain: Chain
    psc_address: bytes
    fsc_address: bytes
    cf_account: bytes

    @property
    def psc(self):
        return self.chain.contracts[self.psc_address]

    @property
    def fsc(self):
        return self.chain.contracts[self.fsc_address]


# ---------------------------------------------------------------------------
# Users
# ---------------------------------------------------------------------------


@dataclass
class UserAgent:
    user_id: str
    rng: Rng
    interaction_cap: int
    recovery_bound: int
    ephemeral: KeyPair | None = None
    payout_kp: KeyPair | None = None
    period: int = -1
    # per period records
    claimed: dict = field(default_factory=dict)  # period -> submitted amount
    payouts: dict = field(default_factory=dict)  # period -> payout address
    ephemerals: dict = field(default_factory=dict)  # period -> ephemeral pk bytes
    accounts: dict = field(default_factory=dict)  # period -> sender address of the ephemeral pk
    received: dict = field(default_factory=dict)  # period -> (tx_ref, blinding, amount)
    complaints: list = field(default_factory=list)

    def new_period(self, period: int):
        """Fresh ephemeral keypair and payout account: one per payout period,
        never reused, so requests stay unlinkable across periods.  The
        period's transactions go out from the ephemeral key's own address,
        so no sender links two periods either."""
        self.period = period
        self.ephemeral = keygen(self.rng.child(f"ephemeral/{period}").take_bytes(32))
        self.payout_kp = keygen(self.rng.child(f"payout/{period}").take_bytes(32))
        self.ephemerals[period] = self.ephemeral.pk.encode()
        self.accounts[period] = address_from_pk(self.ephemeral.pk)

    def claim(self, handle: CampaignHandle, vector) -> str:
        """Encrypt the interaction vector under the ephemeral key (rewards)
        and under the threshold key published in the policy contract
        (analytics), and submit both."""
        threshold_key = handle.psc.threshold_key
        if threshold_key is None:
            raise ValueError("no threshold key published in the policy contract")
        if sum(vector) > self.interaction_cap:
            raise ValueError(f"interaction vector exceeds per-period cap {self.interaction_cap}")
        if any(v < 0 for v in vector):
            raise ValueError("interaction counts must be non-negative")
        enc_vec = encrypt_vector(self.ephemeral, vector, self.rng)
        enc_vec_prime = encrypt_vector(threshold_key, vector, self.rng)
        return handle.chain.call(
            self.accounts[self.period],
            handle.psc_address,
            "compute_aggregate",
            {"user_pk": self.ephemeral.pk, "enc_vec": enc_vec, "enc_vec_prime": enc_vec_prime},
        )

    def request_payment(self, handle: CampaignHandle) -> str | None:
        """Fetch + verify the aggregate, decrypt and prove, recover, submit.

        Returns the receipt id, or None when the aggregate is outside the
        recovery bound (reported, nothing submitted).
        """
        ct, sig = handle.psc.get_aggregate(self.ephemeral.pk)
        message = aggregate_message(self.ephemeral.pk, ct)
        if not verify_sig(handle.chain.aggregate_keypair.pk, message, sig, tag=b"sig/aggregate"):
            raise ValueError("aggregate signature failed verification")
        plain_point, proof = prove_decryption(self.ephemeral, ct, self.rng)
        try:
            amount = recover_plaintext(plain_point, self.recovery_bound)
        except NoSolutionInBound:
            return None
        payout_address = address_from_pk(self.payout_kp.pk)
        self.claimed[self.period] = amount
        self.payouts[self.period] = payout_address
        return handle.chain.call(
            self.accounts[self.period],
            handle.psc_address,
            "payment_request",
            {
                "user_pk": self.ephemeral.pk,
                "amount": amount,
                "proof": proof,
                "payout_address": payout_address,
            },
            private=True,
            rng=self.rng.child(f"wrap/{self.period}"),
        )

    def receive_opening(self, period: int, tx_ref: bytes, blinding: int, amount: int):
        self.received[period] = (tx_ref, blinding, amount)

    def verify_payment(self, handle: CampaignHandle, period: int) -> str | None:
        """Check the received note against the requested amount; on a
        mismatch, file a complaint with the opening as evidence."""
        if period not in self.received or period not in self.claimed:
            return None
        tx_ref, blinding, amount = self.received[period]
        if amount == self.claimed[period]:
            return None
        self.complaints.append({"period": period, "expected": self.claimed[period], "paid": amount})
        return handle.chain.call(
            self.accounts[period],
            handle.fsc_address,
            "raise_complaint",
            {
                "user_pk": self.ephemerals[period],
                "tx_ref": tx_ref,
                "blinding": blinding,
                "amount": amount,
            },
        )

    def redeem(self, handle: CampaignHandle, period: int) -> str | None:
        if period not in self.received:
            return None
        tx_ref, blinding, amount = self.received[period]
        return handle.chain.call(
            self.payouts[period],
            None,
            "redeem_note",
            {"tx_ref": tx_ref, "blinding": blinding, "amount": amount},
        )


# ---------------------------------------------------------------------------
# Advertisers
# ---------------------------------------------------------------------------


@dataclass
class AdvertiserAgent:
    adv_id: str
    keypair: KeyPair
    slots: list  # catalog indices owned
    policies: list  # reward per owned slot, aligned with slots
    impressions: list  # impression targets per owned slot
    fee: int
    sym_key: bytes = b""
    account: bytes = b""

    def __post_init__(self):
        if not self.account:
            self.account = address_from_pk(self.keypair.pk)

    @property
    def budget(self) -> int:
        return sum(p * i for p, i in zip(self.policies, self.impressions))

    def establish_key(self, cf_pk) -> bytes:
        self.sym_key = dh_agree(self.keypair.sk, cf_pk)
        return self.sym_key

    def encrypted_policies(self, rng) -> dict:
        """Slot -> symmetric encryption of the agreed policy value."""
        return {slot: sym_encrypt(self.sym_key, policy_blob(value), rng) for slot, value in zip(self.slots, self.policies)}

    def verify_and_stake(self, handle: CampaignHandle) -> str:
        """Decrypt the on-chain policy slots and stake only if they match."""
        for slot, agreed in zip(self.slots, self.policies):
            blob = handle.psc.enc_policies[slot]
            if blob is None:
                raise PolicyMismatch(f"slot {slot} empty")
            if policy_value(sym_decrypt(self.sym_key, blob)) != agreed:
                raise PolicyMismatch(f"slot {slot} does not open to {agreed}")
        return handle.chain.call(
            self.account,
            handle.fsc_address,
            "store_funds",
            {"id": self.adv_id, "amount": self.budget + self.fee},
        )

    def audit(self, handle: CampaignHandle) -> dict:
        """Recompute the homomorphic analytics sum, verify the posted partial
        decryptions against the registered pool key, and check the refund
        equation; file a claim on mismatch.

        Returns a verdict dict; the claim receipt id is included when filed.
        """
        fsc = handle.fsc
        psc = handle.psc
        verdict = {"advertiser": self.adv_id, "ok": True, "checks": [], "claim_receipt": None}

        if fsc.analytics_enc_totals is not None and psc.reported_vectors:
            sums = psc.analytics_sums()
            match = all(
                a.encode() == b.encode() for a, b in zip(sums, fsc.analytics_enc_totals)
            )
            verdict["checks"].append(("homomorphic_sum_matches", match))
            posts = fsc.analytics_partials
            cts = fsc.analytics_enc_totals
            tpk = fsc.pool_key
            # One batch over every post; only when it fails is each post
            # checked on its own, to tell which one is bad.
            all_ok = _partials_verify(tpk, cts * len(posts), [p for partials in posts for p in partials])
            for partials in posts:
                ok = all_ok or _partials_verify(tpk, cts, partials)
                verdict["checks"].append((f"partials_from_{partials[0].index}_verify", ok))
            verdict["checks"].append(("enough_partials", len(posts) >= (fsc.pool_threshold or 0)))

        record = fsc.advertisers[self.adv_id]
        clicks = fsc.click_totals
        spent = sum(value * clicks[slot] for slot, value in zip(self.slots, self.policies))
        refund = fsc.refunds_paid.get(self.adv_id, 0) - fsc.top_up_due.get(self.adv_id, 0)
        balanced = spent + refund + self.fee == record["staked"]
        verdict["checks"].append(("refund_equation", balanced))
        verdict["ok"] = all(ok for _, ok in verdict["checks"])
        if not balanced and fsc.refunds_done:
            verdict["claim_receipt"] = handle.chain.call(
                self.account, handle.fsc_address, "claim_insufficient_refund", {"id": self.adv_id}
            )
        return verdict


def _partials_verify(tpk: ThresholdPublicKey, cts: list, partials: list) -> bool:
    try:
        verify_partials(tpk, cts, partials)
    except InvalidShareProof:
        return False
    return True


# ---------------------------------------------------------------------------
# Campaign facilitator
# ---------------------------------------------------------------------------


@dataclass
class FacilitatorAgent:
    keypair: KeyPair
    rng: Rng
    mode: str  # honest | underpay | divert
    account: bytes = b""
    sym_keys: dict = field(default_factory=dict)  # adv_id -> key
    diverted: int = 0
    divert_account: bytes = b""

    def __post_init__(self):
        if not self.account:
            self.account = address_from_pk(self.keypair.pk)
        if self.mode not in ("honest", "underpay", "divert"):
            raise ValueError(f"unknown facilitator mode {self.mode}")
        self.divert_account = address_from_pk(keygen(b"cf-sock-puppet").pk)

    def deploy_campaign(self, chain: Chain, advertisers, catalog_size: int, reward_cap: int, epoch_blocks: int) -> CampaignHandle:
        """Phase one: agree keys, merge encrypted policies, deploy both
        contracts, register advertisers."""
        rid = chain.call(
            self.account,
            None,
            "deploy",
            {"kind": "fsc", "params": {"cf_pk": self.keypair.pk, "catalog_size": catalog_size, "epoch_blocks": epoch_blocks}},
        )
        chain.mine_block()
        fsc_address = chain.receipt(rid).ret["address"]
        rid = chain.call(
            self.account,
            None,
            "deploy",
            {
                "kind": "psc",
                "params": {
                    "cf_pk": self.keypair.pk,
                    "catalog_size": catalog_size,
                    "fsc": fsc_address,
                    "reward_cap": reward_cap,
                },
            },
        )
        chain.mine_block()
        psc_address = chain.receipt(rid).ret["address"]
        chain.call(self.account, fsc_address, "link_psc", {"psc": psc_address})

        slot_blobs: dict[int, bytes] = {}
        slot_keys: dict[int, bytes] = {}
        for adv in advertisers:
            self.sym_keys[adv.adv_id] = dh_agree(self.keypair.sk, adv.keypair.pk)
            adv.establish_key(self.keypair.pk)
            encrypted = adv.encrypted_policies(self.rng)
            for slot, value in zip(adv.slots, adv.policies):
                # facilitator checks the agreed value before merging
                if policy_value(sym_decrypt(self.sym_keys[adv.adv_id], encrypted[slot])) != value:
                    raise PolicyMismatch(f"advertiser {adv.adv_id} slot {slot} does not open to {value}")
                slot_blobs[slot] = encrypted[slot]
                slot_keys[slot] = self.sym_keys[adv.adv_id]
        for slot in range(catalog_size):
            chain.call(
                self.account,
                psc_address,
                "store_policy",
                {"index": slot, "enc_policy": slot_blobs[slot]},
            )
        enc_keys = [
            hybrid_encrypt(chain.validator_keypair.pk, slot_keys[slot], self.rng)
            for slot in range(catalog_size)
        ]
        sig = sign(self.keypair, encode_args(enc_keys), self.rng, tag=b"sig/enc-keys")
        chain.call(self.account, psc_address, "store_encrypted_keys", {"enc_keys": enc_keys, "sig": sig})
        for adv in advertisers:
            chain.call(
                self.account,
                fsc_address,
                "store_adv_id",
                {"id": adv.adv_id, "account": adv.account, "budget": adv.budget, "fee": adv.fee, "ads": adv.slots},
            )
        chain.mine_block()
        return CampaignHandle(chain, psc_address, fsc_address, self.account)

    def settle(self, handle: CampaignHandle, users_by_payout: dict) -> dict:
        """Phase four: pull the needed funds and pay every buffered request
        with a confidential batch.  Misbehaving modes deviate here."""
        fsc = handle.fsc
        pending = list(fsc.payment_requests)
        unpaid = [r for r in pending if r["addr"] not in fsc.payed_requests]
        owed = sum(r["amount"] for r in unpaid)
        surplus = 0
        if self.mode == "divert":
            fees = sum(rec["fee"] for rec in fsc.advertisers.values())
            surplus = max(1, fees)
            self.diverted = surplus
        tau = owed + surplus
        message = settlement_message(handle.fsc_address, tau, fsc.settlement_counter)
        sig = sign(self.keypair, message, self.rng, tag=b"sig/settlement")
        handle.chain.call(self.account, handle.fsc_address, "settlement_request", {"amount": tau, "sig": sig})

        payments = []
        short_target = None
        if self.mode == "underpay" and self.diverted == 0:
            # short exactly one recipient across the whole run
            short_target = next((r["addr"] for r in unpaid if r["amount"] > 0), None)
        for request in unpaid:
            amount = request["amount"]
            if request["addr"] == short_target:
                amount -= 1
                self.diverted += 1
            blinding = random_scalar(self.rng)
            payments.append((request["addr"], amount, blinding))
        if self.mode == "divert" and surplus:
            payments.append((self.divert_account, surplus, random_scalar(self.rng)))
        batch_total = sum(amount for _, amount, _ in payments)
        batch = build_batch(payments, batch_total, self.rng)
        handle.chain.call(
            self.account, None, "submit_batch", {"batch": serialize_batch(batch), "total": batch_total}
        )
        # hand each user its note opening out-of-band
        marked = {}
        for note, (_, amount, blinding) in zip(batch.notes, payments):
            user = users_by_payout.get(note.recipient)
            if user is not None:
                period = next(p for p, addr in user.payouts.items() if addr == note.recipient)
                user.receive_opening(period, note.tx_ref, blinding, amount)
            marked[note.recipient] = note.tx_ref
        return marked

    def mark_processed(self, handle: CampaignHandle, marked: dict) -> list:
        receipts = []
        for addr in sorted(marked):
            if addr == self.divert_account:
                continue
            receipts.append(
                handle.chain.call(
                    self.account,
                    handle.fsc_address,
                    "payment_processed",
                    {"tx_ref": marked[addr], "addr": addr},
                )
            )
        return receipts


# ---------------------------------------------------------------------------
# Consensus pool
# ---------------------------------------------------------------------------


@dataclass
class ConsensusParticipant:
    participant_id: str
    vrf_keypair: KeyPair

    @property
    def account(self) -> bytes:
        return address_from_pk(self.vrf_keypair.pk)


@dataclass
class PoolResult:
    threshold_key: ThresholdPublicKey
    shares: dict  # participant_id -> KeyShare
    winners: list  # participant ids in index order
    registrants: dict  # participant_id -> ConsensusParticipant, every registrant
    draws: int = 1


MAX_DRAWS = 16  # lottery draws before a pool is given up as unformable


def run_pool_lifecycle(
    registrants: list,
    params: PoolParams,
    seed: bytes,
    handle: CampaignHandle,
    rng: Rng,
    recovery_bound: int,
) -> PoolResult:
    """Key derivation, lottery, then DKG among the winners, then key
    publication.

    `registrants` holds (participant id, key seed) pairs; each VRF key pair
    is keygen(key seed), all of them from one keygen_batch.  A draw
    evaluates every registrant's VRF in one vrf_rand_batch.  Losers never
    publish anything; winners publish their full proved VRF output, which
    is verified before they join the key generation.  If a draw yields
    fewer than `threshold` winners the seed is re-derived and the draw
    repeats, up to MAX_DRAWS draws.  The pool registers `recovery_bound`,
    the largest analytics total it will recover.
    """
    keypairs = keygen_batch([key_seed for _, key_seed in registrants])
    participants = [ConsensusParticipant(pid, kp) for (pid, _), kp in zip(registrants, keypairs)]
    threshold = max_draw(params)
    attempt = 0
    round_seed = seed
    while True:
        winners = []
        for registrant, rand in zip(participants, vrf_rand_batch(keypairs, round_seed, params.modulus)):
            if draw_winner(rand, threshold):
                out = vrf_eval(registrant.vrf_keypair, round_seed, params.modulus)
                if not vrf_verify(registrant.vrf_keypair.pk, round_seed, out, params.modulus):
                    continue  # an unproved win is dropped here; no contract checks VRF proofs yet
                winners.append(registrant)
        if len(winners) >= params.threshold:
            break
        attempt += 1
        if attempt >= MAX_DRAWS:
            raise InsufficientWinners(f"{len(winners)} winners after {attempt} draws, need {params.threshold}")
        round_seed = hashlib.sha256(round_seed + attempt.to_bytes(4, "big")).digest()

    indices = list(range(1, len(winners) + 1))
    try:
        result = dkg_run(indices, params.threshold, rng.child("dkg"))
    except InsufficientParticipants as exc:
        raise InsufficientWinners(str(exc)) from exc
    shares = {winners[i - 1].participant_id: result.shares[i] for i in indices}
    precompute_base(result.public_key.pk)  # every claim encrypts to it

    coordinator = winners[0]
    handle.chain.call(
        coordinator.account,
        handle.psc_address,
        "store_threshold_key",
        {"pk": result.public_key.pk},
    )
    handle.chain.call(
        coordinator.account,
        handle.fsc_address,
        "register_pool",
        {
            "verification": result.public_key.verification,
            "recovery_bound": recovery_bound,
        },
    )
    return PoolResult(
        result.public_key,
        shares,
        [w.participant_id for w in winners],
        {p.participant_id: p for p in participants},
        draws=attempt + 1,
    )


def pool_analytics(pool: PoolResult, handle: CampaignHandle, rng: Rng) -> list:
    """Campaign end: the first `threshold` winners each post their partial
    decryptions of the claims' summed analytics ciphertexts, which the fund
    contract sums for itself; it combines the posts into per-ad totals."""
    k = handle.fsc.pool_threshold
    sums = handle.psc.analytics_sums()
    if not sums:
        return []
    receipts = []
    for participant_id in pool.winners[:k]:
        share = pool.shares[participant_id]
        partials = [partial_decrypt(share, ct, rng.child(f"partial/{participant_id}")) for ct in sums]
        registrant = pool.registrants[participant_id]
        receipts.append(
            handle.chain.call(
                registrant.account,
                handle.fsc_address,
                "post_analytics",
                {"index": share.index, "partials": partials},
            )
        )
    return receipts
