"""Consensus-pool machinery: lottery threshold, distributed key generation,
and threshold decryption of analytics ciphertexts.

The DKG is a Feldman-style joint verifiable secret sharing run over a
simulated synchronous broadcast channel: every participant deals a random
degree-(k-1) polynomial, commitments are broadcast, sub-shares are sent
point-to-point and checked against the commitments.  A dealer whose
sub-share fails its check is excluded and the run restarts without it.
No party ever holds the combined secret; any k shares decrypt.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

from .group import (
    G,
    IDENTITY,
    ORDER,
    Ciphertext,
    GroupElement,
    Scalar,
    msm,
    random_scalar,
)
from .proofs import DecryptionProof, dleq_first_invalid, dleq_prove, dleq_verify

__all__ = [
    "PoolParams",
    "KeyShare",
    "ThresholdPublicKey",
    "PartialDecryption",
    "SyncChannel",
    "DkgResult",
    "ComplaintAgainstDealer",
    "InsufficientParticipants",
    "InsufficientShares",
    "InvalidShareProof",
    "DuplicateShareIndex",
    "ShareCommitmentMismatch",
    "max_draw",
    "draw_winner",
    "commitment_eval",
    "dkg_run",
    "partial_decrypt",
    "verify_partial",
    "verify_partials",
    "combine_partials",
    "combine_verified_partials",
    "lagrange_coefficients",
]


class ComplaintAgainstDealer(Exception):
    def __init__(self, dealer: int):
        self.dealer = dealer
        super().__init__(f"dealer {dealer} dealt an inconsistent sub-share")


class InsufficientParticipants(Exception):
    """Fewer than k participants remain after exclusions."""


class InsufficientShares(Exception):
    """Fewer than k valid partial decryptions supplied."""


class InvalidShareProof(Exception):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"partial decryption from share {index} has a bad proof")


class DuplicateShareIndex(Exception):
    """Two partials claim the same share index."""


class ShareCommitmentMismatch(Exception):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"key share {index} does not match the joint commitments")


@dataclass(frozen=True)
class PoolParams:
    """Lottery and threshold parameters.

    expected: expected number of DKG participants; threshold: shares needed
    to decrypt; draw_pool: number of registered candidates; modulus: size
    of the VRF output space.
    """

    expected: int
    threshold: int
    draw_pool: int
    modulus: int

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        # expected == 0 is the degenerate nobody-wins configuration
        if self.expected and not self.threshold <= self.expected:
            raise ValueError("need threshold <= expected participants")
        if self.expected < 0:
            raise ValueError("expected participant count must be >= 0")
        if self.draw_pool < 1 or self.modulus < 2:
            raise ValueError("draw_pool >= 1 and modulus >= 2 required")
        if self.threshold * 2 >= self.expected and self.expected > 1:
            # honest-majority assumption; a configuration smell, not an error
            warnings.warn("threshold >= expected/2 weakens the honest-majority assumption", stacklevel=2)


def max_draw(params: PoolParams) -> int:
    """VRF-output threshold below which a registrant wins the draw.

    Computed as floor(expected * modulus / draw_pool) so the win probability
    per registrant is expected/draw_pool even when the pool outnumbers the
    expected participant count.
    """
    return params.expected * params.modulus // params.draw_pool


def draw_winner(rand: int, threshold: int) -> bool:
    return rand < threshold


@dataclass(frozen=True)
class KeyShare:
    index: int
    share: Scalar
    commitment: GroupElement

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("share indices are 1-based")


@dataclass(frozen=True)
class ThresholdPublicKey:
    """Joint public key plus the aggregated coefficient commitments.

    verification[j] commits to the j-th coefficient of the joint
    polynomial; verification[0] is the public key itself.
    """

    pk: GroupElement
    verification: tuple
    _share_commitments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def share_commitment(self, index: int) -> GroupElement:
        """Expected commitment share*G for the holder of `index`, computed
        once per index."""
        commitment = self._share_commitments.get(index)
        if commitment is None:
            commitment = self._share_commitments[index] = commitment_eval(self.verification, index)
        return commitment


def commitment_eval(commitments, x: int) -> GroupElement:
    """sum(x**j * C_j): a committed polynomial evaluated in the exponent."""
    return msm([pow(x, j, ORDER) for j in range(len(commitments))], commitments)


@dataclass(frozen=True)
class PartialDecryption:
    index: int
    share_point: GroupElement
    proof: DecryptionProof


class SyncChannel:
    """In-process synchronous message transport with an auditable log."""

    def __init__(self):
        self.transcript: list[dict] = []
        self._broadcasts: dict = {}
        self._private: dict = {}

    def broadcast(self, round_tag: str, sender: int, payload):
        self.transcript.append({"round": round_tag, "from": sender, "to": "*", "note": _loggable(payload)})
        self._broadcasts.setdefault(round_tag, {})[sender] = payload

    def send(self, round_tag: str, sender: int, recipient: int, payload):
        self.transcript.append({"round": round_tag, "from": sender, "to": recipient, "note": "private"})
        self._private.setdefault(round_tag, {})[(sender, recipient)] = payload

    def broadcasts(self, round_tag: str) -> dict:
        return self._broadcasts.get(round_tag, {})

    def private(self, round_tag: str, sender: int, recipient: int):
        return self._private[round_tag][(sender, recipient)]

    def dump(self, path):
        with open(path, "w") as fh:
            for entry in self.transcript:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _loggable(payload):
    if isinstance(payload, (list, tuple)):
        return [_loggable(p) for p in payload]
    if isinstance(payload, GroupElement):
        return payload.encode().hex()
    return str(payload)


@dataclass
class DkgResult:
    public_key: ThresholdPublicKey
    shares: dict  # participant id -> KeyShare
    excluded: list = field(default_factory=list)


def dkg_run(participants, k: int, channel: SyncChannel, rng, corrupt=None, strict=False) -> DkgResult:
    """Run the joint key generation among `participants` (1-based ids).

    `corrupt` maps a dealer id to a set of recipient ids that receive a
    bad sub-share (test hook).  Such dealers are excluded by complaint and
    the protocol restarts without them; with strict=True the first
    complaint raises ComplaintAgainstDealer instead.
    """
    participants = sorted(participants)
    if len(set(participants)) != len(participants):
        raise ValueError("participant ids must be unique")
    if any(p < 1 for p in participants):
        raise ValueError("participant ids are 1-based")
    corrupt = corrupt or {}
    excluded: list[int] = []
    attempt = 0
    while True:
        active = [p for p in participants if p not in excluded]
        if len(active) < k:
            raise InsufficientParticipants(f"{len(active)} participants left, need {k}")
        tag = f"attempt{attempt}"
        # Round 1: every dealer commits to a random polynomial and deals
        # sub-shares f_i(j) point-to-point.
        polys = {}
        for dealer in active:
            coeffs = [random_scalar(rng) for _ in range(k)]
            polys[dealer] = coeffs
            channel.broadcast(f"{tag}/commit", dealer, [G.mul(c) for c in coeffs])
            for recipient in active:
                value = _poly_eval(coeffs, recipient)
                if recipient in corrupt.get(dealer, ()):
                    value = (value + 1) % ORDER
                channel.send(f"{tag}/deal", dealer, recipient, value)
        # Round 2: recipients check sub-shares against the commitments.
        complaints = []
        commits = channel.broadcasts(f"{tag}/commit")
        for recipient in active:
            for dealer in active:
                value = channel.private(f"{tag}/deal", dealer, recipient)
                if G.mul(value) != commitment_eval(commits[dealer], recipient):
                    complaints.append((recipient, dealer))
                    channel.broadcast(f"{tag}/complaint", recipient, dealer)
        if complaints:
            offender = min(dealer for _, dealer in complaints)
            if strict:
                raise ComplaintAgainstDealer(offender)
            excluded.append(offender)
            attempt += 1
            continue
        # Finalize: shares are sums of received sub-shares; the joint
        # coefficient commitments are the per-dealer commitment sums.
        verification = []
        for j in range(k):
            acc = IDENTITY
            for dealer in active:
                acc = acc + commits[dealer][j]
            verification.append(acc)
        tpk = ThresholdPublicKey(verification[0], tuple(verification))
        shares = {}
        for recipient in active:
            value = sum(channel.private(f"{tag}/deal", dealer, recipient) for dealer in active) % ORDER
            shares[recipient] = KeyShare(recipient, value, G.mul(value))
        for recipient, share in shares.items():
            if share.commitment != tpk.share_commitment(recipient):
                raise ShareCommitmentMismatch(recipient)
        return DkgResult(tpk, shares, excluded)


def _poly_eval(coeffs, x: int) -> Scalar:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % ORDER
    return acc


_PARTIAL_TAG = b"partial-decryption"


def partial_decrypt(share: KeyShare, ct: Ciphertext, rng) -> PartialDecryption:
    """Contribute share*c1 with a proof it matches the committed share."""
    point = ct.c1.mul(share.share)
    proof = dleq_prove(_PARTIAL_TAG, G, share.commitment, ct.c1, point, share.share, rng)
    return PartialDecryption(share.index, point, proof)


def verify_partial(tpk: ThresholdPublicKey, ct: Ciphertext, partial: PartialDecryption) -> bool:
    commitment = tpk.share_commitment(partial.index)
    return dleq_verify(_PARTIAL_TAG, G, commitment, ct.c1, partial.share_point, partial.proof)


def verify_partials(tpk: ThresholdPublicKey, cts, partials) -> None:
    """Check partials[i] against cts[i], all in one batch.

    Raises InvalidShareProof for the first partial, in order, whose proof
    fails: the same verdict as verify_partial on each pair in turn.
    """
    if len(cts) != len(partials):
        raise ValueError("one ciphertext per partial")
    statements = [(G, tpk.share_commitment(p.index), ct.c1, p.share_point) for ct, p in zip(cts, partials)]
    bad = dleq_first_invalid(_PARTIAL_TAG, statements, [p.proof for p in partials])
    if bad is not None:
        raise InvalidShareProof(partials[bad].index)


def lagrange_coefficients(indices) -> dict:
    """Lagrange basis at zero over the scalar field, keyed by index."""
    coeffs = {}
    for i in indices:
        num, den = 1, 1
        for j in indices:
            if j != i:
                num = num * j % ORDER
                den = den * (j - i) % ORDER
        coeffs[i] = num * pow(den, -1, ORDER) % ORDER
    return coeffs


def combine_partials(tpk: ThresholdPublicKey, partials, ct: Ciphertext, k: int) -> GroupElement:
    """Recover the decryption point m*G from k valid partials.

    Interpolates the shares in the exponent at zero and strips the result
    from c2, exactly as a single-key decryption would.
    """
    indices = [p.index for p in partials]
    if len(set(indices)) != len(indices):
        raise DuplicateShareIndex(f"duplicate indices in {indices}")
    verify_partials(tpk, [ct] * len(partials), partials)
    return combine_verified_partials(partials, ct, k)


def combine_verified_partials(partials, ct: Ciphertext, k: int) -> GroupElement:
    """combine_partials for partials with distinct indices whose proofs the
    caller has already checked."""
    if len(partials) < k:
        raise InsufficientShares(f"{len(partials)} valid partials, need {k}")
    chosen = partials[:k]
    lam = lagrange_coefficients([p.index for p in chosen])
    return ct.c2 - msm([lam[p.index] for p in chosen], [p.share_point for p in chosen])
