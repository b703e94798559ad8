"""The transaction boundary: every entry point checks its args against its
own declaration, contract-expected failures are typed receipt codes, and
any other exception is a bug that escapes the block."""

import ast
import functools
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from privads import contracts
from privads.codec import canonical_json, decode_args, encode_args
from privads.contracts import FundContract, PolicyContract
from privads.group import (
    ANALYTICS_BOUND,
    IDENTITY,
    G,
    H,
    ORDER,
    Ciphertext,
    GroupElement,
    HybridCiphertext,
    Signature,
    encrypt_vector,
    keygen,
    sign,
)
from privads.ledger import Address, Chain, Transaction
from privads.payments import Commitment, TransferNote
from privads.proofs import DecryptionProof, VrfOutput
from privads.rng import Rng
from privads.threshold import PartialDecryption, dkg_run

from conftest import build_campaign, claim_analytics, post_analytics, register_pool

SRC = Path(__file__).resolve().parent.parent / "src" / "privads"
# Every code a ContractError is raised with somewhere in the program.
CODES = set(re.findall(r'ContractError\(\s*"(\w+)"', "".join(p.read_text() for p in SRC.glob("*.py"))))

ENTRY_POINTS = {
    "psc": {name: getattr(PolicyContract, name).wire_params for name in sorted(PolicyContract.FUNCTIONS)},
    "fsc": {name: getattr(FundContract, name).wire_params for name in sorted(FundContract.FUNCTIONS)},
    None: {name: getattr(Chain, f"_{name}").wire_params for name in sorted(Chain.NATIVES)},
}
CONSTRUCTORS = {cls.KIND: cls.__init__.wire_params for cls in (PolicyContract, FundContract)}


def test_every_entry_point_declares_its_args():
    assert set(ENTRY_POINTS["psc"]) == {
        "store_policy",
        "store_encrypted_keys",
        "store_threshold_key",
        "compute_aggregate",
        "payment_request",
        "advance_period",
    }
    assert len(ENTRY_POINTS["fsc"]) == 10
    assert set(ENTRY_POINTS[None]) == {"deploy", "submit_batch", "redeem_note", "transfer"}
    assert ENTRY_POINTS["psc"]["payment_request"] == {
        "user_pk": GroupElement,
        "amount": int,
        "proof": DecryptionProof,
        "payout_address": Address,
    }
    assert ENTRY_POINTS["fsc"]["post_analytics"] == {"index": int, "partials": list[PartialDecryption]}
    assert ENTRY_POINTS["fsc"]["register_pool"] == {"verification": list[GroupElement], "recovery_bound": int}
    assert ENTRY_POINTS["fsc"]["finalize"] == {}
    assert CONSTRUCTORS["fsc"] == {"cf_pk": GroupElement, "catalog_size": int, "epoch_blocks": int}


# -- wire values -----------------------------------------------------------------

POINTS = st.sampled_from([G, H, IDENTITY, G.mul(7)])
INTS = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([-1, 2**12, ORDER - 1, ORDER, ORDER + 1, -ORDER, 2**32, 2**64, 2**128, 2**256]),
)
# What a sender may put where a scalar belongs: the codec must reject all
# but ints.
FIELDS = st.one_of(INTS, st.booleans(), st.text(max_size=3), st.none(), st.lists(INTS, max_size=2))


def leaves(scalars) -> dict:
    """A strategy per domain type, with `scalars` in its integer fields."""
    proofs = st.builds(DecryptionProof, POINTS, POINTS, scalars, scalars)
    commitments = st.builds(Commitment, POINTS)
    return {
        GroupElement: POINTS,
        Ciphertext: st.builds(Ciphertext, POINTS, POINTS),
        HybridCiphertext: st.builds(HybridCiphertext, POINTS, st.binary(max_size=24)),
        Signature: st.builds(Signature, scalars, scalars),
        DecryptionProof: proofs,
        PartialDecryption: st.builds(PartialDecryption, scalars, POINTS, proofs),
        VrfOutput: st.builds(VrfOutput, scalars, POINTS, proofs),
        Commitment: commitments,
        TransferNote: st.builds(TransferNote, st.binary(max_size=20), st.binary(max_size=20), commitments),
    }


TYPED_LEAVES = leaves(INTS)
WIRE = st.recursive(
    st.one_of(
        st.none(), st.booleans(), INTS, st.text(max_size=6), st.binary(max_size=24), *leaves(FIELDS).values()
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)


def typed(hint, addresses=()):
    """Values of the declared type; bytes are sometimes one of `addresses`."""
    if hint is int:
        return INTS
    if hint is str:
        return st.one_of(st.sampled_from(["adv0", "adv1", "psc", "fsc"]), st.text(max_size=6))
    if hint in (bytes, Address):
        return st.one_of(
            st.binary(max_size=40),
            st.binary(min_size=Address.SIZE, max_size=Address.SIZE),
            *([st.sampled_from(addresses)] if addresses else []),
        )
    if hint is dict:
        return st.one_of(*(arguments(params, addresses) for params in CONSTRUCTORS.values()))
    if getattr(hint, "__origin__", None) is list:
        return st.lists(typed(hint.__args__[0], addresses), max_size=4)
    return TYPED_LEAVES[hint]


def arguments(params: dict, addresses=()):
    """An args value for `params`: the declared keys with typed values;
    with some values junk; with keys dropped and added; or any wire value."""
    well_typed = st.fixed_dictionaries({name: typed(hint, addresses) for name, hint in params.items()})
    mixed = st.fixed_dictionaries({name: st.one_of(typed(hint, addresses), WIRE) for name, hint in params.items()})
    drop = st.sets(st.sampled_from(sorted(params))) if params else st.just(set())
    extra = st.dictionaries(st.text(max_size=6), WIRE, max_size=2)
    mangled = st.builds(
        lambda args, gone, more: {**{k: v for k, v in args.items() if k not in gone}, **more}, mixed, drop, extra
    )
    return st.one_of(well_typed, mixed, mangled, WIRE)


@st.composite
def calls(draw):
    kind = draw(st.sampled_from(["psc", "fsc", None]))
    names = sorted(ENTRY_POINTS[kind])
    function = draw(st.sampled_from(names + ["nope", "state_dict", "_close"]))
    params = ENTRY_POINTS[kind].get(function, {})
    return (
        draw(st.sampled_from(["staked", "unstaked"])),
        draw(st.sampled_from(["cf", "adv", "outsider"])),
        kind,
        function,
        draw(arguments(params)),
        draw(st.booleans()),
    )


OUTSIDER = b"\x07" * 20


@functools.cache
def _campaigns() -> dict:
    """Two campaigns shared by every example: one staked with a 1-of-1 pool
    registered, one with nothing staked and no pool."""
    staked = build_campaign(seed="typed-staked")
    register_pool(staked)
    unstaked = build_campaign(seed="typed-unstaked", stake=False)
    return {"staked": staked, "unstaked": unstaked}


def _send(campaign_name, sender_name, kind, function, args, private) -> list:
    """Submit one call, mine it, and return the block's receipt records."""
    campaign = _campaigns()[campaign_name]
    sender = {"cf": campaign.cf_account, "adv": campaign.advertisers[0][2], "outsider": OUTSIDER}[sender_name]
    target = {"psc": campaign.psc_address, "fsc": campaign.fsc_address, None: None}[kind]
    campaign.chain.call(sender, target, function, args, private=private, rng=Rng("typed-wrap"))
    return campaign.chain.mine_block().receipt_records


def _assert_typed(records):
    for record in records:
        assert record["ok"] or record["error"].split(":")[0] in CODES, record["error"]


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(call=calls())
@example(call=("staked", "cf", "fsc", "settlement_request", {"amount": 1, "sig": Signature("a", "b")}, False))
@example(call=("staked", "cf", "fsc", "settlement_request", {"amount": 1, "sig": Signature(True, 5)}, False))
@example(call=("staked", "cf", None, "deploy", {"kind": "psc", "params": {}}, False))
@example(call=("staked", "cf", None, "deploy", {"kind": "fsc", "params": []}, False))
@example(call=("staked", "cf", "psc", "store_threshold_key", {}, False))
@example(call=("staked", "cf", "psc", "store_encrypted_keys", [1, 2], True))
@example(call=("staked", "cf", "fsc", "finalize", {"extra": 1}, False))
@example(call=("unstaked", "cf", "fsc", "store_adv_id", {"id": "a", "account": b"", "budget": 1, "fee": 1, "ads": [-1, 99]}, False))
@example(call=("unstaked", "cf", "fsc", "register_pool", {"verification": [G], "recovery_bound": 2**64}, False))
@example(call=("staked", "cf", None, "transfer", {"to": b"\x01" * 20, "amount": True}, False))
def test_every_call_gets_an_ok_or_typed_receipt(call):
    _assert_typed(_send(*call))


def _deploy(chain, sender, kind, params) -> bytes:
    rid = chain.call(sender, None, "deploy", {"kind": kind, "params": params})
    chain.mine_block()
    return chain.receipt(rid).ret["address"]


@settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_calls_on_fresh_contracts_get_typed_receipts(data):
    """A fund and a policy contract that the campaign's facilitator or an
    outsider deploys - epochs already over, catalogs that may differ, the
    psc pointing at the new fsc or the campaign's, linked or not - and then
    calls on them, with the four contracts' addresses among the args."""
    campaign = _campaigns()[data.draw(st.sampled_from(["staked", "unstaked"]))]
    chain = campaign.chain
    sender = data.draw(st.sampled_from([campaign.cf_account, OUTSIDER]))
    sizes = st.integers(1, 4)
    fsc = _deploy(chain, sender, "fsc", {"cf_pk": G, "catalog_size": data.draw(sizes), "epoch_blocks": data.draw(st.integers(-1, 2))})
    points_at = data.draw(st.sampled_from([fsc, campaign.fsc_address]))
    psc = _deploy(chain, sender, "psc", {"cf_pk": G, "catalog_size": data.draw(sizes), "fsc": points_at, "reward_cap": 100})
    addresses = [fsc, psc, campaign.fsc_address, campaign.psc_address]
    records = []
    if data.draw(st.booleans()):
        chain.call(sender, fsc, "link_psc", {"psc": data.draw(st.sampled_from([psc, campaign.psc_address]))})
        records += chain.mine_block().receipt_records
    for _ in range(data.draw(st.integers(1, 4))):
        target = data.draw(st.sampled_from([fsc, psc]))
        kind = chain.contracts[target].KIND
        function = data.draw(st.sampled_from(sorted(ENTRY_POINTS[kind])))
        chain.call(sender, target, function, data.draw(arguments(ENTRY_POINTS[kind][function], addresses)))
        records += chain.mine_block().receipt_records
    _assert_typed(records)


@settings(max_examples=100, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    raw=st.one_of(
        st.binary(max_size=64),
        st.sampled_from([b"[" * 100_000, b'{"amount":1.5}', b'{"amount":NaN}', b'{"!sig":[1]}', b"\xff"]),
    ),
    private=st.booleans(),
    kind=st.sampled_from(["fsc", None]),
)
def test_raw_argument_bytes_get_a_typed_receipt(raw, private, kind):
    campaign = _campaigns()["staked"]
    chain = campaign.chain
    target = campaign.fsc_address if kind else None
    tx = Transaction(campaign.cf_account, target, "transfer", raw, chain.next_nonce(campaign.cf_account), private)
    chain.submit_tx(tx)
    _assert_typed(chain.mine_block().receipt_records)


# -- the probes, each with its code --------------------------------------------------


def _receipt(campaign, target, function, args, sender=None):
    rid = campaign.chain.call(sender or campaign.cf_account, target, function, args)
    campaign.mine()
    return campaign.chain.receipt(rid)


def _state(contract) -> str:
    """The contract's state as the chain hashes it, frozen."""
    return canonical_json(contract.state_dict())


@pytest.mark.parametrize(
    "args, error",
    [
        ({"amount": 1, "sig": Signature("a", "b")}, "MalformedArgs: Signature.challenge: expected int, got str"),
        ({"amount": 1, "sig": Signature(True, 5)}, "MalformedArgs: Signature.challenge: expected int, got bool"),
        ({"amount": 1}, "BadArgs: missing sig"),
        ({"amount": True, "sig": Signature(1, 2)}, "BadArgs: amount: expected int, got bool"),
        ({"amount": [1], "sig": Signature(1, 2)}, "BadArgs: amount: expected int, got list"),
        ([1, Signature(1, 2)], "BadArgs: args: expected dict, got list"),
    ],
)
def test_malformed_args_get_typed_codes(campaign, args, error):
    assert _receipt(campaign, campaign.fsc_address, "settlement_request", args).error == error


@pytest.mark.parametrize("bad", [b"", b"\x01" * (Address.SIZE + 1)])
@pytest.mark.parametrize(
    "target, function, args, name",
    [
        (None, "transfer", {"amount": 5}, "to"),
        ("fsc", "link_psc", {}, "psc"),
        ("fsc", "store_adv_id", {"id": "adv9", "budget": 1, "fee": 1, "ads": [0]}, "account"),
        ("fsc", "payment_processed", {"tx_ref": b"\x00" * 32}, "addr"),
        (
            "psc",
            "payment_request",
            {"user_pk": G, "amount": 1, "proof": DecryptionProof(G, G, 1, 1)},
            "payout_address",
        ),
    ],
)
def test_address_args_take_exactly_20_bytes(campaign, bad, target, function, args, name):
    address = {"psc": campaign.psc_address, "fsc": campaign.fsc_address, None: None}[target]
    receipt = _receipt(campaign, address, function, {**args, name: bad}, sender=campaign.advertisers[0][2])
    assert receipt.error == f"BadArgs: {name}: expected 20 bytes, got {len(bad)}"
    assert campaign.chain.balances.get(bad) is None


@pytest.mark.parametrize("bad", [b"", b"\x01" * (Address.SIZE + 1)])
def test_policy_contract_takes_a_20_byte_fund_contract(campaign, bad):
    params = {"cf_pk": G, "catalog_size": 3, "fsc": bad, "reward_cap": 100}
    receipt = _receipt(campaign, None, "deploy", {"kind": "psc", "params": params})
    assert receipt.error == f"BadArgs: fsc: expected 20 bytes, got {len(bad)}"


@pytest.mark.parametrize(
    "params, error",
    [
        ({}, "BadArgs: missing cf_pk, missing catalog_size, missing epoch_blocks"),
        ({"cf_pk": G, "catalog_size": "3", "epoch_blocks": 5}, "BadArgs: catalog_size: expected int, got str"),
        ({"cf_pk": G, "catalog_size": 2**64, "epoch_blocks": 5}, f"BadParams: catalog_size {2**64} outside [1, 65536]"),
        ({"cf_pk": G, "catalog_size": 0, "epoch_blocks": 5}, "BadParams: catalog_size 0 outside [1, 65536]"),
    ],
)
def test_deploy_checks_constructor_params(campaign, params, error):
    before = dict(campaign.chain.contracts)
    assert _receipt(campaign, None, "deploy", {"kind": "fsc", "params": params}).error == error
    assert campaign.chain.contracts == before


@pytest.mark.parametrize(
    "ads, error",
    [
        ([-1, 99], "IndexOutOfRange: ads [-1, 99] outside [0, 3)"),
        ([3], "IndexOutOfRange: ads [3] outside [0, 3)"),
        ([1, 1], "DuplicateSlot: ads [1, 1] repeat a slot"),
        ([2], "DuplicateSlot: ads [2] repeat a slot"),  # adv0 owns the whole catalog
    ],
)
def test_store_adv_id_rejects_bad_slots(ads, error):
    campaign = build_campaign(stake=False)
    args = {"id": "adv1", "account": b"\x01" * 20, "budget": 1, "fee": 1, "ads": ads}
    assert _receipt(campaign, campaign.fsc_address, "store_adv_id", args).error == error
    assert list(campaign.fsc.advertisers) == ["adv0"]


def test_store_adv_id_rejects_negative_amounts():
    campaign = build_campaign(stake=False)
    args = {"id": "adv1", "account": b"\x01" * 20, "budget": -5, "fee": 5, "ads": []}
    assert _receipt(campaign, campaign.fsc_address, "store_adv_id", args).error == "NegativeAmount: budget -5, fee 5"


@pytest.mark.parametrize("bound", [0, -1, ANALYTICS_BOUND + 1, 2**64])
def test_register_pool_bounds_the_recovery_bound(campaign, bound):
    pool = dkg_run([1], 1, campaign.rng)
    campaign.cf_call(campaign.psc_address, "store_threshold_key", {"pk": pool.public_key.pk})
    campaign.mine()
    before = _state(campaign.fsc)
    args = {"verification": pool.public_key.verification, "recovery_bound": bound}
    receipt = _receipt(campaign, campaign.fsc_address, "register_pool", args)
    assert receipt.error == f"BadRecoveryBound: {bound} outside [1, {ANALYTICS_BOUND}]"
    assert _state(campaign.fsc) == before


def test_the_recovery_bound_is_state():
    """Two campaigns whose pools differ only in the registered bound hash
    to different chain states."""
    states = []
    for bound in (2**12, 2**12 + 1):
        campaign = build_campaign()
        pool = dkg_run([1], 1, campaign.rng)
        campaign.cf_call(campaign.psc_address, "store_threshold_key", {"pk": pool.public_key.pk})
        args = {"verification": pool.public_key.verification, "recovery_bound": bound}
        assert _receipt(campaign, campaign.fsc_address, "register_pool", args).ok
        states.append((_state(campaign.fsc), campaign.chain.state_hash()))
    (fsc_a, chain_a), (fsc_b, chain_b) = states
    assert fsc_a != fsc_b and chain_a != chain_b


def test_linking_a_psc_changes_the_fund_state(campaign):
    chain = campaign.chain
    fsc = _deploy(chain, campaign.cf_account, "fsc", {"cf_pk": G, "catalog_size": 3, "epoch_blocks": 0})
    psc = _deploy(chain, campaign.cf_account, "psc", {"cf_pk": G, "catalog_size": 3, "fsc": fsc, "reward_cap": 100})
    before = _state(chain.contracts[fsc])
    assert _receipt(campaign, fsc, "link_psc", {"psc": psc}).ok
    assert _state(chain.contracts[fsc]) != before


def test_a_zero_settlement_changes_the_fund_state(campaign):
    """A zero-amount settlement moves no tokens but uses up its counter, so
    its signature cannot be replayed: that write is state."""
    before = _state(campaign.fsc)
    sig = sign(campaign.cf, encode_args(["settlement", campaign.fsc_address, 0, 0]), campaign.rng, tag=b"sig/settlement")
    assert _receipt(campaign, campaign.fsc_address, "settlement_request", {"amount": 0, "sig": sig}).ok
    assert _state(campaign.fsc) != before


def test_unrecoverable_total_is_a_typed_code(campaign):
    # A 1-of-1 pool and one claim whose middle analytics slot decrypts to
    # -1: no discrete log below the registered bound.
    pool = register_pool(campaign)
    pk = pool.public_key.pk
    enc_totals = encrypt_vector(pk, [5, 0, 7], campaign.rng)
    enc_totals[1] = Ciphertext(enc_totals[1].c1, enc_totals[1].c2 - G)
    claim_analytics(campaign, enc_totals)
    receipt = post_analytics(campaign, pool)
    assert receipt.error == "NoSolutionInBound: no discrete log below 4096"


def test_unrecoverable_total_leaves_no_trace(campaign):
    """The post that fails NoSolutionInBound stores nothing: the fund
    state is unchanged, and a repost fails the same way rather than as a
    duplicate."""
    pool = register_pool(campaign)
    enc_totals = encrypt_vector(pool.public_key.pk, [5, 0, 7], campaign.rng)
    enc_totals[1] = Ciphertext(enc_totals[1].c1, enc_totals[1].c2 - G)
    claim_analytics(campaign, enc_totals)
    before = _state(campaign.fsc)
    for _ in range(2):
        assert post_analytics(campaign, pool).error == "NoSolutionInBound: no discrete log below 4096"
        assert _state(campaign.fsc) == before


def test_policy_blob_that_does_not_open_is_a_typed_code():
    campaign = build_campaign(stake=False)
    campaign.cf_call(campaign.psc_address, "store_policy", {"index": 0, "enc_policy": b"junk"})
    for adv_id, _, account, budget, fee, _, _ in campaign.advertisers:
        campaign.chain.call(account, campaign.fsc_address, "store_funds", {"id": adv_id, "amount": budget + fee})
    campaign.mine()
    kp_pk = G.mul(5)
    enc = encrypt_vector(kp_pk, [1, 0, 0], campaign.rng)
    args = {"user_pk": kp_pk, "enc_vec": enc, "enc_vec_prime": enc}
    receipt = _receipt(campaign, campaign.psc_address, "compute_aggregate", args)
    assert receipt.error == "AuthenticationFailure: a stored policy does not open"


def test_malformed_batch_is_a_typed_code(campaign):
    receipt = _receipt(campaign, None, "submit_batch", {"batch": b"\x00\x00\x00\x01", "total": 0})
    assert receipt.error.startswith("MalformedBatch: ")


def test_a_contract_of_the_wrong_kind_is_unknown():
    campaign = build_campaign(stake=False)
    fsc2 = _deploy(campaign.chain, campaign.cf_account, "fsc", {"cf_pk": G, "catalog_size": 3, "epoch_blocks": 5})
    receipt = _receipt(campaign, fsc2, "link_psc", {"psc": campaign.fsc_address})  # an fsc posing as the psc
    assert receipt.error == f"UnknownContract: no psc contract at {campaign.fsc_address.hex()}"
    assert campaign.chain.contracts[fsc2].psc_address is None


def test_an_unlinked_fsc_fails_with_a_typed_code(campaign):
    """Any sender may deploy an fsc whose epoch is already over and try to
    close it, or register a pool, before linking a psc."""
    fsc = _deploy(campaign.chain, OUTSIDER, "fsc", {"cf_pk": G, "catalog_size": 3, "epoch_blocks": 0})
    assert _receipt(campaign, fsc, "finalize", {}, OUTSIDER).error == "NotLinked: no psc contract linked"
    pool = {"verification": [G], "recovery_bound": 9}
    assert _receipt(campaign, fsc, "register_pool", pool, OUTSIDER).error == "NotLinked: no psc contract linked"
    claim = _receipt(campaign, fsc, "claim_insufficient_refund", {"id": "adv0"}, OUTSIDER)
    assert claim.error == "UnknownAdvertiser: adv0"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="CHANGES.md FOUND: store_threshold_key and register_pool accept any sender (P4, ROADMAP item 7)",
)
def test_an_outsider_cannot_set_the_pool_key(campaign):
    """P4: an outsider publishes the key of its own 1-of-1 DKG and
    registers its vector.  Both calls fail with a typed code, and the
    facilitator's pool then registers."""
    own = dkg_run([1], 1, campaign.rng).public_key
    published = _receipt(campaign, campaign.psc_address, "store_threshold_key", {"pk": own.pk}, OUTSIDER)
    args = {"verification": own.verification, "recovery_bound": 2**12}
    registered = _receipt(campaign, campaign.fsc_address, "register_pool", args, OUTSIDER)
    for receipt in (published, registered):
        assert not receipt.ok and receipt.error.split(":")[0] in CODES, receipt.record()
    pool = register_pool(campaign)
    assert campaign.fsc.pool_key.pk == pool.public_key.pk


@pytest.mark.parametrize("points_at, catalog_size", [("campaign", 3), ("fresh", 2), ("fresh", 4)])
def test_link_psc_needs_a_psc_deployed_for_this_fsc(campaign, points_at, catalog_size):
    """A psc deployed for another fsc, or for a catalog of another size
    (its slots would not index the fsc's), is refused."""
    chain = campaign.chain
    fsc = _deploy(chain, campaign.cf_account, "fsc", {"cf_pk": G, "catalog_size": 3, "epoch_blocks": 0})
    target = campaign.fsc_address if points_at == "campaign" else fsc
    params = {"cf_pk": G, "catalog_size": catalog_size, "fsc": target, "reward_cap": 100}
    psc = _deploy(chain, campaign.cf_account, "psc", params)
    receipt = _receipt(campaign, fsc, "link_psc", {"psc": psc})
    assert receipt.error == "NotLinked: the psc was not deployed for this fsc and its catalog"
    assert chain.contracts[fsc].psc_address is None
    assert _receipt(campaign, fsc, "finalize", {}).error == "NotLinked: no psc contract linked"


def test_a_foreign_psc_cannot_reach_the_campaign_fsc():
    """An outsider's psc that names the campaign's fsc, which never linked
    to it, can neither load policies nor compute aggregates, so it never
    buffers a payment request in the campaign's escrow."""
    campaign = build_campaign(stake=False)
    chain = campaign.chain
    key = keygen(b"outsider")
    params = {"cf_pk": key.pk, "catalog_size": 3, "fsc": campaign.fsc_address, "reward_cap": 10_000}
    psc = _deploy(chain, OUTSIDER, "psc", params)
    not_linked = f"NotLinked: fsc {campaign.fsc_address.hex()} is not linked to this psc"
    assert _receipt(campaign, psc, "store_policy", {"index": 0, "enc_policy": b"x"}, OUTSIDER).error == not_linked
    enc_keys = list(campaign.psc.enc_keys)
    sig = sign(key, encode_args(enc_keys), campaign.rng, tag=b"sig/enc-keys")
    keys = _receipt(campaign, psc, "store_encrypted_keys", {"enc_keys": enc_keys, "sig": sig}, OUTSIDER)
    assert keys.error == not_linked
    for adv_id, _, account, budget, fee, _, _ in campaign.advertisers:
        assert _receipt(campaign, campaign.fsc_address, "store_funds", {"id": adv_id, "amount": budget + fee}, account).ok
    enc = encrypt_vector(G.mul(5), [1, 0, 0], campaign.rng)
    args = {"user_pk": G.mul(5), "enc_vec": enc, "enc_vec_prime": enc}
    assert _receipt(campaign, psc, "compute_aggregate", args, OUTSIDER).error == not_linked
    assert campaign.fsc.payment_requests == []


# -- a bug is not a receipt ------------------------------------------------------------


def test_bug_inside_an_entry_point_escapes_the_block(campaign, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in contract code")

    monkeypatch.setattr(contracts, "verify_sig", broken)
    rid = campaign.cf_call(campaign.fsc_address, "settlement_request", {"amount": 1, "sig": Signature(1, 2)})
    height = campaign.chain.height
    with pytest.raises(RuntimeError, match="bug in contract code"):
        campaign.mine()
    assert rid not in campaign.chain.receipts
    assert campaign.chain.height == height


# -- the source keeps no catch-all ---------------------------------------------------------


def _handlers(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]


def _caught(handler) -> list:
    if handler.type is None:
        return ["<bare>"]
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [ast.unparse(node) for node in nodes]


def test_no_broad_except_in_src():
    broad = {"<bare>", "Exception", "BaseException"}
    found = [
        f"{path.name}:{handler.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for handler in _handlers(ast.parse(path.read_text()))
        if broad & set(_caught(handler))
    ]
    assert found == []


def test_execute_catches_contract_errors_only():
    tree = ast.parse((SRC / "ledger.py").read_text())
    execute = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_execute")
    assert [_caught(h) for h in _handlers(execute)] == [["ContractError"]]


def test_guard_sees_a_broad_except():
    source = "try:\n    pass\nexcept (ValueError, Exception):\n    pass\nexcept:\n    pass\n"
    assert [_caught(h) for h in _handlers(ast.parse(source))] == [["ValueError", "Exception"], ["<bare>"]]


def test_decode_args_rejects_what_it_cannot_type():
    for data in (b"[" * 100_000, b'{"a":1.5}', b'{"a":NaN}', b'{"!sig":[1,2,3]}', b'{"!part":[1,{"!b":"00"},null]}'):
        with pytest.raises(ValueError):
            decode_args(data)
    assert decode_args(encode_args({"sig": Signature(1, 2)})) == {"sig": Signature(1, 2)}

