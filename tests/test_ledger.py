"""Chain simulator: ordering, determinism, privacy, conservation."""

import json
from types import SimpleNamespace

import pytest

from privads.audit import load_block_log, write_block_log
from privads.codec import canonical_json, encode_args
from privads.contracts import FundContract, PolicyContract
from privads.group import ORDER, keygen, random_scalar
from privads.ledger import (
    BadNonce,
    Chain,
    ConservationBroken,
    ExecutionContext,
    Transaction,
    private_wrap,
)
from privads.payments import build_batch, serialize_batch
from privads.rng import Rng


def _addr(i: int) -> bytes:
    return bytes([i]) * 20


def fresh_chain(seed="ledger-test", balances=None):
    return Chain(0, seed, balances or {_addr(1): 1000, _addr(2): 500})


class TestTransactions:
    def test_sequential_nonces(self):
        chain = fresh_chain()
        chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 5})
        chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 5})
        block = chain.mine_block()
        assert len(block.tx_records) == 2
        assert all(r["ok"] for r in block.receipt_records)

    def test_replayed_nonce_rejected(self):
        chain = fresh_chain()
        tx = Transaction(_addr(1), None, "transfer", encode_args({"to": _addr(2), "amount": 5}), 0)
        chain.submit_tx(tx)
        with pytest.raises(BadNonce):
            chain.submit_tx(tx)

    def test_unseen_sender_starts_at_nonce_zero(self):
        # An account comes into being with the first transaction it sends:
        # no set-up call, and a failed one leaves it no balance entry.
        chain = fresh_chain()
        args = encode_args({"to": _addr(1), "amount": 1})
        with pytest.raises(BadNonce):
            chain.submit_tx(Transaction(_addr(9), None, "transfer", args, 1))
        assert _addr(9) not in chain.nonces
        rid = chain.submit_tx(Transaction(_addr(9), None, "transfer", args, 0))
        chain.mine_block()
        assert chain.receipt(rid).error.startswith("InsufficientBalance")
        assert chain.nonces[_addr(9)] == 1 and _addr(9) not in chain.balances
        with pytest.raises(BadNonce):
            chain.submit_tx(Transaction(_addr(9), None, "transfer", args, 0))

    def test_a_zero_transfer_creates_no_account(self):
        # A zero amount is no credit: neither end enters balances.
        chain = fresh_chain()
        rid = chain.call(_addr(7), None, "transfer", {"to": _addr(9), "amount": 0})
        chain.mine_block()
        assert chain.receipt(rid).ok
        assert chain.balances == {_addr(1): 1000, _addr(2): 500}

    def test_contract_kinds_are_declared_by_their_classes(self):
        # No registration call: defining PolicyContract and FundContract
        # made "psc" and "fsc" deployable on every chain.
        chain = fresh_chain()
        cf = keygen(b"kinds")
        fsc = chain.call(
            _addr(1), None, "deploy", {"kind": "fsc", "params": {"cf_pk": cf.pk, "catalog_size": 2, "epoch_blocks": 5}}
        )
        chain.mine_block()
        fsc_address = chain.receipt(fsc).ret["address"]
        psc = chain.call(
            _addr(1),
            None,
            "deploy",
            {"kind": "psc", "params": {"cf_pk": cf.pk, "catalog_size": 2, "fsc": fsc_address, "reward_cap": 9}},
        )
        nope = chain.call(_addr(1), None, "deploy", {"kind": "nope", "params": {}})
        chain.mine_block()
        psc_address = chain.receipt(psc).ret["address"]
        assert type(chain.contracts[fsc_address]) is FundContract
        assert type(chain.contracts[psc_address]) is PolicyContract
        assert chain.receipt(nope).error == "UnknownContractKind: nope"

    def test_execution_order_is_submission_order(self):
        # both txs spend the same balance; only the first can succeed
        chain = fresh_chain(balances={_addr(1): 10, _addr(2): 0})
        r1 = chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 10})
        r2 = chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 10})
        chain.mine_block()
        assert chain.receipt(r1).ok
        assert not chain.receipt(r2).ok


class TestBlocks:
    def test_empty_block(self):
        chain = fresh_chain()
        block = chain.mine_block()
        assert block.tx_records == [] and block.height == 0

    def test_identical_replay_identical_hashes(self):
        # replay oracle: two chains fed the same sequence agree bit-exactly
        def run(chain):
            chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 7})
            chain.mine_block()
            chain.call(_addr(2), None, "transfer", {"to": _addr(1), "amount": 3})
            chain.mine_block()
            return [b.block_hash for b in chain.blocks], chain.state_hash()

        a = run(fresh_chain())
        b = run(fresh_chain())
        assert a == b

    def test_failing_tx_does_not_abort_block(self):
        chain = fresh_chain()
        r1 = chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 5})
        r2 = chain.call(_addr(2), None, "transfer", {"to": _addr(1), "amount": 10_000})
        r3 = chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 5})
        chain.mine_block()
        assert chain.receipt(r1).ok and chain.receipt(r3).ok
        assert not chain.receipt(r2).ok
        assert chain.balances[_addr(2)] == 510

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="CHANGES.md FOUND: mine_block leaves a half-executed block when a bug escapes it (ROADMAP item 1)",
    )
    def test_a_bug_escaping_mine_block_leaves_no_half_block(self, monkeypatch):
        """A bug in the block's second call aborts the whole block: the
        transfer before it is neither applied nor receipted."""

        def bug(chain, ctx, tx, args):
            raise RuntimeError("planted bug")

        monkeypatch.setattr(Chain, "_redeem_note", bug)
        chain = fresh_chain(balances={_addr(1): 100})
        rid = chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 5})
        chain.call(_addr(2), None, "redeem_note", {"tx_ref": b"\x00" * 32, "blinding": 1, "amount": 1})
        before = chain.state_hash()
        with pytest.raises(RuntimeError, match="planted bug"):
            chain.mine_block()
        assert chain.state_hash() == before, chain.balances
        assert rid not in chain.receipts

    def test_hash_chain_links(self):
        chain = fresh_chain()
        chain.mine_block()
        chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 1})
        chain.mine_block()
        assert chain.blocks[1].parent == chain.blocks[0].block_hash
        assert chain.blocks[0].parent == "genesis"

    def test_block_log_roundtrip(self, tmp_path):
        chain = fresh_chain()
        chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 1})
        chain.mine_block()
        path = tmp_path / "blocks.jsonl"
        write_block_log([SimpleNamespace(chain=chain)], path)  # the writer reads each run.chain
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["hash"] == chain.blocks[0].block_hash
        assert load_block_log(path) == {chain.chain_id: records}

    def test_state_dump_matches_hash(self):
        import hashlib

        chain = fresh_chain()
        chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 1})
        block = chain.mine_block()
        dumped = canonical_json(chain.state_view())
        assert json.loads(dumped)["balances"]
        assert hashlib.sha256(dumped.encode()).hexdigest() == block.state_hash


class TestPrivateInputs:
    def test_roundtrip_through_execution(self):
        chain = fresh_chain()
        rng = Rng("private")
        rid = chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 9}, private=True, rng=rng)
        chain.mine_block()
        assert chain.receipt(rid).ok
        assert chain.balances[_addr(2)] == 509

    def test_tampered_ciphertext_fails_receipt(self):
        chain = fresh_chain()
        rng = Rng("private")
        args = encode_args({"to": _addr(2), "amount": 9})
        blob = private_wrap(chain.validator_keypair.pk, args, rng).encode()
        bad = blob[:-1] + bytes([blob[-1] ^ 1])
        tx = Transaction(_addr(1), None, "transfer", bad, 0, private=True)
        rid = chain.submit_tx(tx)
        chain.mine_block()
        receipt = chain.receipt(rid)
        assert not receipt.ok and "AuthenticationFailure" in receipt.error

    def test_no_plaintext_leak_in_block(self):
        # leakage probe: a sentinel argument value must not appear in the
        # serialized block when sent as a private input
        chain = fresh_chain()
        sentinel = bytes.fromhex("DEADBEEFCAFEBABE" * 4)
        rid = chain.call(_addr(7), None, "transfer", {"to": sentinel[:20], "amount": 0}, private=True, rng=Rng("private"))
        block = chain.mine_block()
        raw = json.dumps(block.record()).encode()
        assert sentinel[:20].hex().encode() not in raw
        assert sentinel[:20] not in raw
        assert chain.receipt(rid).ok


class TestConservationAndNotes:
    def test_transfer_conserves(self):
        chain = fresh_chain()
        chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 123})
        chain.mine_block()
        assert chain.conservation_holds()

    def test_minting_native_breaks_conservation(self, monkeypatch):
        # A planted bug: transfer credits the recipient without debiting
        # the sender.  mine_block refuses the block it would append.
        def mint(ctx, src, dst, amount):
            ctx.chain.balances[dst] = ctx.chain.balances.get(dst, 0) + amount

        monkeypatch.setattr(ExecutionContext, "transfer", mint)
        chain = fresh_chain()
        chain.mine_block()
        chain.call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 5})
        with pytest.raises(ConservationBroken) as broken:
            chain.mine_block()
        assert broken.value.height == 1 and chain.height == 1

    def test_batch_and_redemption_conserve(self):
        chain = fresh_chain()
        rng = Rng("batch")
        recipient = _addr(3)
        r = random_scalar(rng)
        batch = build_batch([(recipient, 40, r)], 40, rng)
        rid = chain.call(_addr(1), None, "submit_batch", {"batch": serialize_batch(batch), "total": 40})
        chain.mine_block()
        assert chain.receipt(rid).ok
        assert chain.conservation_holds()
        assert chain.note_pool_value == 40
        tx_ref = batch.notes[0].tx_ref
        rid = chain.call(recipient, None, "redeem_note", {"tx_ref": tx_ref, "blinding": r, "amount": 40})
        chain.mine_block()
        assert chain.receipt(rid).ok
        assert chain.balances[recipient] == 40
        assert chain.note_pool_value == 0
        assert chain.conservation_holds()

    def test_redeem_requires_recipient_and_opening(self):
        chain = fresh_chain()
        rng = Rng("batch2")
        recipient = _addr(3)
        r = random_scalar(rng)
        batch = build_batch([(recipient, 40, r)], 40, rng)
        chain.call(_addr(1), None, "submit_batch", {"batch": serialize_batch(batch), "total": 40})
        chain.mine_block()
        ref = batch.notes[0].tx_ref
        bad_sender = chain.call(_addr(4), None, "redeem_note", {"tx_ref": ref, "blinding": r, "amount": 40})
        bad_amount = chain.call(recipient, None, "redeem_note", {"tx_ref": ref, "blinding": r, "amount": 39})
        ok = chain.call(recipient, None, "redeem_note", {"tx_ref": ref, "blinding": r, "amount": 40})
        dup = chain.call(recipient, None, "redeem_note", {"tx_ref": ref, "blinding": r, "amount": 40})
        chain.mine_block()
        assert "NotNoteRecipient" in chain.receipt(bad_sender).error
        assert "BadOpening" in chain.receipt(bad_amount).error
        assert chain.receipt(ok).ok
        assert "AlreadyRedeemed" in chain.receipt(dup).error

    def test_redeem_rejects_an_aliased_amount(self):
        # amount + ORDER opens the same commitment point as amount.
        chain = fresh_chain()
        rng = Rng("batch4")
        recipient = _addr(3)
        r = random_scalar(rng)
        batch = build_batch([(recipient, 40, r)], 40, rng)
        chain.call(_addr(1), None, "submit_batch", {"batch": serialize_batch(batch), "total": 40})
        ref = batch.notes[0].tx_ref
        rid = chain.call(recipient, None, "redeem_note", {"tx_ref": ref, "blinding": r, "amount": 40 + ORDER})
        chain.mine_block()
        assert chain.receipt(rid).error == "BadOpening"
        assert recipient not in chain.balances and chain.note_pool_value == 40

    def test_a_zero_note_redemption_creates_no_account(self):
        # The note is spent, but a zero amount is no credit.
        chain = fresh_chain()
        rng = Rng("batch5")
        recipient = _addr(3)
        r = random_scalar(rng)
        batch = build_batch([(recipient, 0, r)], 0, rng)
        chain.call(_addr(1), None, "submit_batch", {"batch": serialize_batch(batch), "total": 0})
        ref = batch.notes[0].tx_ref
        ok = chain.call(recipient, None, "redeem_note", {"tx_ref": ref, "blinding": r, "amount": 0})
        dup = chain.call(recipient, None, "redeem_note", {"tx_ref": ref, "blinding": r, "amount": 0})
        chain.mine_block()
        assert chain.receipt(ok).ok and chain.receipt(dup).error == "AlreadyRedeemed"
        assert chain.balances == {_addr(1): 1000, _addr(2): 500}

    def test_bad_batch_proof_rejected(self):
        chain = fresh_chain()
        rng = Rng("batch3")
        r = random_scalar(rng)
        batch = build_batch([(_addr(3), 40, r)], 40, rng)
        rid = chain.call(_addr(1), None, "submit_batch", {"batch": serialize_batch(batch), "total": 41})
        chain.mine_block()
        assert "InvalidBatchProof" in chain.receipt(rid).error


class TestMultiChain:
    def test_chains_are_independent(self):
        chains = [Chain(i, "mc", {_addr(1): 100}) for i in range(3)]
        before = [c.state_hash() for c in chains]
        chains[0].call(_addr(1), None, "transfer", {"to": _addr(2), "amount": 10})
        chains[0].mine_block()
        after = [c.state_hash() for c in chains]
        assert after[0] != before[0]
        assert after[1] == before[1] and after[2] == before[2]

    def test_validator_keys_differ(self):
        chains = [Chain(i, "mc", {}) for i in range(2)]
        assert chains[0].validator_keypair.pk != chains[1].validator_keypair.pk
