"""Commitment scheme and batch settlement proofs.

The conservation oracle opens every note with its test-held (blinding,
amount) pair and checks plain integer sums against the declared total.
"""

import pytest

from privads.group import IDENTITY, ORDER, random_scalar
from privads.payments import (
    BalanceMismatch,
    SettlementBatch,
    build_batch,
    commit,
    deserialize_batch,
    open_verify,
    serialize_batch,
    verify_batch,
)
from privads.rng import Rng


@pytest.fixture
def rng():
    return Rng("payments-tests")


def _addr(i: int) -> bytes:
    return bytes([i]) * 20


class TestCommitment:
    def test_zero_zero_is_identity(self):
        assert commit(0, 0).point.is_identity
        assert commit(0, 0).point == IDENTITY

    def test_open_roundtrip(self, rng):
        r = random_scalar(rng)
        c = commit(36, r)
        assert open_verify(c, r, 36)

    def test_wrong_amount_rejected(self, rng):
        r = random_scalar(rng)
        c = commit(36, r)
        assert not open_verify(c, r, 35)

    def test_wrong_blinding_rejected(self, rng):
        r = random_scalar(rng)
        c = commit(36, r)
        assert not open_verify(c, r + 1, 36)

    def test_bound_enforced(self, rng):
        with pytest.raises(ValueError):
            commit(2**40, random_scalar(rng))

    def test_binding_fuzz(self, rng):
        # no second opening found across 10^4 random trials
        r = random_scalar(rng)
        c = commit(100, r)
        for _ in range(10_000):
            amount = rng.randrange(1000)
            blind = random_scalar(rng)
            if amount == 100 and blind == r:
                continue
            assert not open_verify(c, blind, amount)

    def test_hiding_shape(self, rng):
        # same amount, different blinding -> different commitments
        a = commit(50, random_scalar(rng))
        b = commit(50, random_scalar(rng))
        assert a != b


class TestBatch:
    def test_two_payment_batch_verifies(self, rng):
        # sum oracle: 10 + 26 == 36
        payments = [(_addr(1), 10, random_scalar(rng)), (_addr(2), 26, random_scalar(rng))]
        batch = build_batch(payments, 36, rng)
        assert verify_batch(batch, 36)

    def test_wrong_total_rejected_at_build(self, rng):
        payments = [(_addr(1), 10, random_scalar(rng)), (_addr(2), 26, random_scalar(rng))]
        with pytest.raises(BalanceMismatch):
            build_batch(payments, 37, rng)

    def test_empty_batch(self, rng):
        batch = build_batch([], 0, rng)
        assert verify_batch(batch, 0)

    def test_total_off_by_one_rejected(self, rng):
        payments = [(_addr(1), 10, random_scalar(rng)), (_addr(2), 26, random_scalar(rng))]
        batch = build_batch(payments, 36, rng)
        assert not verify_batch(batch, 37)
        assert not verify_batch(batch, 35)

    @pytest.mark.parametrize("total", [-1, 36 + ORDER, 2**256])
    def test_total_outside_its_encoding_rejected(self, rng, total):
        # 36 + ORDER passes the commitment equation, but the challenge
        # hashes the total as 16 bytes: it is a rejection, not an
        # OverflowError.
        batch = build_batch([(_addr(1), 36, random_scalar(rng))], 36, rng)
        assert not verify_batch(batch, total)

    def test_replaced_commitment_rejected(self, rng):
        payments = [(_addr(1), 10, random_scalar(rng)), (_addr(2), 26, random_scalar(rng))]
        batch = build_batch(payments, 36, rng)
        forged_note = type(batch.notes[0])(
            batch.notes[0].tx_ref, batch.notes[0].recipient, commit(11, random_scalar(rng))
        )
        forged = SettlementBatch(
            (forged_note, batch.notes[1]), batch.proof_commit, batch.proof_challenge, batch.proof_response
        )
        assert not verify_batch(forged, 36)

    def test_unique_tx_refs(self, rng):
        payments = [(_addr(i), i, random_scalar(rng)) for i in range(1, 9)]
        batch = build_batch(payments, sum(range(1, 9)), rng)
        refs = [n.tx_ref for n in batch.notes]
        assert len(set(refs)) == len(refs)

    def test_conservation_oracle(self, rng):
        # open every note and check the plain sum
        blinds = [random_scalar(rng) for _ in range(5)]
        amounts = [3, 14, 15, 9, 26]
        payments = [(_addr(i + 1), amounts[i], blinds[i]) for i in range(5)]
        batch = build_batch(payments, sum(amounts), rng)
        assert verify_batch(batch, sum(amounts))
        for note, amount, blind in zip(batch.notes, amounts, blinds):
            assert open_verify(note.commitment, blind, amount)
        assert sum(amounts) == 67

    def test_serialization_roundtrip(self, rng):
        payments = [(_addr(1), 10, random_scalar(rng)), (_addr(2), 26, random_scalar(rng))]
        batch = build_batch(payments, 36, rng)
        again = deserialize_batch(serialize_batch(batch))
        assert again == batch
        assert verify_batch(again, 36)

    def test_deserialize_rejects_other_bytes(self, rng):
        payments = [(_addr(1), 10, random_scalar(rng)), (_addr(2), 26, random_scalar(rng))]
        blob = serialize_batch(build_batch(payments, 36, rng))
        note = 4 + 4 + 69  # count, then the first note's size and body
        long_note = blob[:4] + (70).to_bytes(4, "big") + blob[8:note] + b"\x00" + blob[note:]
        for bad in (blob + b"\x00", blob[:-1], long_note):
            with pytest.raises(ValueError):
                deserialize_batch(bad)

    def test_amounts_not_derivable(self, rng):
        # the serialized batch must not contain the amounts in the clear
        payments = [(_addr(1), 123456, random_scalar(rng))]
        batch = build_batch(payments, 123456, rng)
        blob = serialize_batch(batch)
        assert (123456).to_bytes(4, "big") not in blob
        assert (123456).to_bytes(4, "little") not in blob
