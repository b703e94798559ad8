"""Shared campaign-building fixtures for contract-level tests."""

from dataclasses import dataclass, field

import pytest

from privads.codec import encode_args
from privads.contracts import FundContract, PolicyContract, policy_blob
from privads.group import Ciphertext, KeyPair, dh_agree, encrypt_vector, hybrid_encrypt, keygen, sign, sym_encrypt
from privads.ledger import Chain, address_from_pk
from privads.rng import Rng
from privads.threshold import dkg_run, partial_decrypt


def add_ciphertexts(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    """Oracle: the componentwise sum, an encryption of the plaintexts' sum."""
    return Ciphertext(a.c1 + b.c1, a.c2 + b.c2)


def scalar_mul_ciphertext(k: int, ct: Ciphertext) -> Ciphertext:
    """Oracle: both components times k, an encryption of k times the plaintext."""
    return Ciphertext(ct.c1.mul(k), ct.c2.mul(k))


@dataclass
class Campaign:
    chain: Chain
    cf: KeyPair
    cf_account: bytes
    advertisers: list  # (id, KeyPair, account, budget, fee, ads, policies)
    psc_address: bytes = b""
    fsc_address: bytes = b""
    rng: Rng = field(default_factory=lambda: Rng("campaign-fixture"))
    pool: object = None  # the DKG result register_pool registered, if any

    @property
    def psc(self) -> PolicyContract:
        return self.chain.contracts[self.psc_address]

    @property
    def fsc(self) -> FundContract:
        return self.chain.contracts[self.fsc_address]

    def cf_call(self, target, function, args):
        return self.chain.call(self.cf_account, target, function, args)

    def mine(self):
        return self.chain.mine_block()


def build_campaign(
    policies=(4, 20, 12),
    impressions=(100, 100, 100),
    fee=10,
    advertiser_split=None,
    reward_cap=10_000,
    epoch_blocks=50,
    seed="campaign-fixture",
    stake=True,
):
    """Deploy both contracts and (optionally) stake every advertiser.

    advertiser_split maps advertiser ids to catalog slots; default is one
    advertiser owning the whole catalog.
    """
    rng = Rng(seed)
    n = len(policies)
    split = advertiser_split or {"adv0": list(range(n))}
    cf = keygen(b"cf/" + str(seed).encode())
    cf_account = address_from_pk(cf.pk)
    adv_keys = {a: keygen(b"adv/" + a.encode()) for a in split}
    genesis = {cf_account: 0}
    budgets = {}
    for adv_id, slots in split.items():
        budget = sum(policies[i] * impressions[i] for i in slots)
        budgets[adv_id] = budget
        genesis[address_from_pk(adv_keys[adv_id].pk)] = budget + fee + 10_000
    chain = Chain(0, seed, genesis)

    rid = chain.call(
        cf_account,
        None,
        "deploy",
        {
            "kind": "fsc",
            "params": {"cf_pk": cf.pk, "catalog_size": n, "epoch_blocks": epoch_blocks},
        },
    )
    chain.mine_block()
    fsc_address = chain.receipt(rid).ret["address"]
    rid = chain.call(
        cf_account,
        None,
        "deploy",
        {
            "kind": "psc",
            "params": {"cf_pk": cf.pk, "catalog_size": n, "fsc": fsc_address, "reward_cap": reward_cap},
        },
    )
    chain.mine_block()
    psc_address = chain.receipt(rid).ret["address"]
    chain.call(cf_account, fsc_address, "link_psc", {"psc": psc_address})

    # campaign keys: one symmetric key per advertiser, reused for its slots
    sym_keys = {a: dh_agree(adv_keys[a].sk, cf.pk) for a in split}
    slot_owner = {}
    for adv_id, slots in split.items():
        for i in slots:
            slot_owner[i] = adv_id
    enc_keys = []
    for i in range(n):
        key = sym_keys[slot_owner[i]]
        chain.call(
            cf_account,
            psc_address,
            "store_policy",
            {"index": i, "enc_policy": sym_encrypt(key, policy_blob(policies[i]), rng)},
        )
        enc_keys.append(hybrid_encrypt(chain.validator_keypair.pk, key, rng))
    sig = sign(cf, encode_args(enc_keys), rng, tag=b"sig/enc-keys")
    chain.call(cf_account, psc_address, "store_encrypted_keys", {"enc_keys": enc_keys, "sig": sig})

    advertisers = []
    for adv_id, slots in split.items():
        account = address_from_pk(adv_keys[adv_id].pk)
        chain.call(
            cf_account,
            fsc_address,
            "store_adv_id",
            {"id": adv_id, "account": account, "budget": budgets[adv_id], "fee": fee, "ads": slots},
        )
        advertisers.append((adv_id, adv_keys[adv_id], account, budgets[adv_id], fee, slots, [policies[i] for i in slots]))
    chain.mine_block()

    campaign = Campaign(chain, cf, cf_account, advertisers, psc_address, fsc_address, rng)
    if stake:
        for adv_id, _, account, budget, fee_, _, _ in advertisers:
            chain.call(account, fsc_address, "store_funds", {"id": adv_id, "amount": budget + fee_})
        chain.mine_block()
    return campaign


def register_pool(campaign, participants=(1,), threshold=1):
    """Run a DKG among `participants`, publish its key in the policy
    contract and register its verification vector as the campaign's
    analytics pool; returns the DKG result, also kept as campaign.pool."""
    pool = dkg_run(list(participants), threshold, campaign.rng)
    campaign.cf_call(campaign.psc_address, "store_threshold_key", {"pk": pool.public_key.pk})
    campaign.cf_call(
        campaign.fsc_address,
        "register_pool",
        {"verification": pool.public_key.verification, "recovery_bound": 2**12},
    )
    campaign.mine()
    campaign.pool = pool
    return pool


def claim_analytics(campaign, enc_totals, tag="analytics"):
    """Land enc_totals as one claim's analytics vector (and its reward
    vector, which nobody requests), so they add into the sums the pool
    decrypts."""
    user_pk = keygen(b"analytics/" + tag.encode()).pk
    rid = campaign.cf_call(
        campaign.psc_address,
        "compute_aggregate",
        {"user_pk": user_pk, "enc_vec": enc_totals, "enc_vec_prime": enc_totals},
    )
    campaign.mine()
    receipt = campaign.chain.receipt(rid)
    assert receipt.ok, receipt.error


def post_analytics(campaign, pool, index=1, partials=None):
    """Post participant `index`'s partial decryptions of the claims'
    analytics sums (its honest ones unless `partials` is given); returns
    the receipt."""
    if partials is None:
        sums = campaign.psc.analytics_sums()
        partials = [partial_decrypt(pool.shares[index], ct, campaign.rng) for ct in sums]
    rid = campaign.cf_call(campaign.fsc_address, "post_analytics", {"index": index, "partials": partials})
    campaign.mine()
    return campaign.chain.receipt(rid)


def land_analytics(campaign, totals):
    """Land `totals` as one claim's analytics vector under the campaign's
    pool (a one-member pool registered here if it has none) and post
    through that pool, so the fund contract combines the claims' sums at
    once."""
    pool = campaign.pool or register_pool(campaign)
    claim_analytics(campaign, encrypt_vector(pool.public_key.pk, totals, campaign.rng))
    receipt = post_analytics(campaign, pool)
    assert receipt.ok, receipt.error


@pytest.fixture
def campaign():
    return build_campaign()
