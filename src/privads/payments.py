"""Confidential reward settlement: Pedersen commitments with a batch
balance proof.

A settlement batch carries one commitment note per recipient and a single
Schnorr proof that the committed amounts sum to the declared withdrawal.
Amounts are never readable from the batch; complaints open individual
notes with their (blinding, amount) pair.  Range proofs are deliberately
absent: amounts come out of verified payment requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import (
    G,
    H,
    IDENTITY,
    ORDER,
    ANALYTICS_BOUND,
    GroupElement,
    Scalar,
    hash_to_scalar,
    random_scalar,
    scalar_bytes,
    tagged_hash,
)

__all__ = [
    "Commitment",
    "TransferNote",
    "SettlementBatch",
    "BalanceMismatch",
    "commit",
    "open_verify",
    "build_batch",
    "verify_batch",
    "serialize_batch",
    "deserialize_batch",
]


class BalanceMismatch(Exception):
    """Declared withdrawal does not equal the sum of batch amounts."""


@dataclass(frozen=True)
class Commitment:
    point: GroupElement

    def encode(self) -> bytes:
        return self.point.encode()


def commit(amount: int, blinding: Scalar) -> Commitment:
    """amount*G + blinding*H; binding under the discrete log between G and H."""
    if not 0 <= amount < ANALYTICS_BOUND:
        raise ValueError(f"amount {amount} outside [0, {ANALYTICS_BOUND})")
    return Commitment(G.mul(amount) + H.mul(blinding))


def open_verify(c: Commitment, blinding: Scalar, amount: int) -> bool:
    """Whether (blinding, amount) opens c; only an amount commit accepts
    does, so amount + ORDER cannot open a commitment to amount."""
    if not 0 <= amount < ANALYTICS_BOUND:
        return False
    return c.point == G.mul(amount) + H.mul(blinding)


@dataclass(frozen=True)
class TransferNote:
    tx_ref: bytes
    recipient: bytes
    commitment: Commitment

    def encode(self) -> bytes:
        return self.tx_ref + self.recipient + self.commitment.encode()


@dataclass(frozen=True)
class SettlementBatch:
    notes: tuple
    proof_commit: GroupElement
    proof_challenge: Scalar
    proof_response: Scalar


_BATCH_TAG = b"batch-balance"


def _note_ref(salt: bytes, index: int, recipient: bytes, commitment: Commitment) -> bytes:
    return tagged_hash(b"note", salt, index.to_bytes(4, "big"), recipient, commitment.encode())[:16]


# A batch total is hashed as 16 bytes.
_TOTAL_LIMIT = 1 << 128


def _batch_challenge(notes, total: int, commit_point: GroupElement) -> Scalar:
    parts = [n.encode() for n in notes]
    parts.append(total.to_bytes(16, "big"))
    parts.append(commit_point.encode())
    return hash_to_scalar(_BATCH_TAG, *parts)


def build_batch(payments, total: int, rng) -> SettlementBatch:
    """Bundle (recipient, amount, blinding) triples into a proved batch.

    The proof is knowledge of the aggregate blinding factor for
    sum(commitments) - total*G, i.e. that the hidden amounts add up to the
    declared withdrawal.
    """
    if sum(amount for _, amount, _ in payments) != total:
        raise BalanceMismatch(f"amounts do not sum to {total}")
    salt = rng.getrandbits(128).to_bytes(16, "big")
    notes = []
    blinding_sum = 0
    for index, (recipient, amount, blinding) in enumerate(payments):
        c = commit(amount, blinding)
        notes.append(TransferNote(_note_ref(salt, index, recipient, c), recipient, c))
        blinding_sum = (blinding_sum + blinding) % ORDER
    notes = tuple(notes)
    w = random_scalar(rng)
    commit_point = H.mul(w)
    challenge = _batch_challenge(notes, total, commit_point)
    response = (w - challenge * blinding_sum) % ORDER
    return SettlementBatch(notes, commit_point, challenge, response)


def verify_batch(batch: SettlementBatch, total: int) -> bool:
    if not 0 <= total < _TOTAL_LIMIT:
        return False
    if not (0 <= batch.proof_challenge < ORDER and 0 <= batch.proof_response < ORDER):
        return False
    refs = [n.tx_ref for n in batch.notes]
    if len(set(refs)) != len(refs):
        return False
    agg = IDENTITY
    for note in batch.notes:
        agg = agg + note.commitment.point
    # sum(C_i) - total*G must be a commitment to zero
    statement = agg - G.mul(total)
    expected = H.mul(batch.proof_response) + statement.mul(batch.proof_challenge)
    if expected != batch.proof_commit:
        return False
    return _batch_challenge(batch.notes, total, batch.proof_commit) == batch.proof_challenge


_NOTE_SIZE = 16 + 20 + 33  # tx_ref, recipient, commitment
_PROOF_SIZE = 33 + 32 + 32  # commit point, challenge, response


def serialize_batch(batch: SettlementBatch) -> bytes:
    """Length-prefixed notes followed by the balance proof."""
    out = [len(batch.notes).to_bytes(4, "big")]
    for note in batch.notes:
        body = note.tx_ref + note.recipient + note.commitment.encode()
        out.append(len(body).to_bytes(4, "big") + body)
    out.append(batch.proof_commit.encode())
    out.append(scalar_bytes(batch.proof_challenge))
    out.append(scalar_bytes(batch.proof_response))
    return b"".join(out)


def deserialize_batch(data: bytes) -> SettlementBatch:
    """Inverse of serialize_batch.  ValueError unless every note body is 69
    bytes and the 97-byte proof ends the data."""
    count = int.from_bytes(data[:4], "big")
    pos = 4
    notes = []
    for _ in range(count):
        size = int.from_bytes(data[pos : pos + 4], "big")
        pos += 4
        body = data[pos : pos + size]
        pos += size
        if size != _NOTE_SIZE or len(body) != _NOTE_SIZE:
            raise ValueError(f"a note body is {_NOTE_SIZE} bytes")
        notes.append(
            TransferNote(body[:16], body[16:36], Commitment(GroupElement.decode(body[36:69])))
        )
    if len(data) - pos != _PROOF_SIZE:
        raise ValueError(f"a batch ends with its {_PROOF_SIZE}-byte proof")
    proof_commit = GroupElement.decode(data[pos : pos + 33])
    pos += 33
    challenge = int.from_bytes(data[pos : pos + 32], "little")
    response = int.from_bytes(data[pos + 32 : pos + 64], "little")
    return SettlementBatch(tuple(notes), proof_commit, challenge, response)
