"""Consensus-pool machinery: lottery threshold, distributed key generation,
and threshold decryption of analytics ciphertexts.

The DKG is a Feldman-style joint verifiable secret sharing, run in
process: every participant deals a random degree-(k-1) polynomial,
publishes commitments to its coefficients and hands each participant a
sub-share, which is checked against the commitments.  A dealer whose
sub-share fails its check is excluded and the run restarts without it.
No party ever holds the combined secret; any k shares decrypt.

Each round's fixed-base multiplies (the n*k coefficient commitments and
the n share commitments) are one group.mul_batch over G each.  All n*n
sub-shares are checked against their dealers' commitments at once, as one
randomly weighted sum in one group.msm; only a batch that fails is
checked pair by pair (each sub-share point s*G against its dealer's
commitments evaluated by Horner's rule at the recipient's index,
group.commitment_eval) to name the dealers to exclude.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .group import (
    G,
    IDENTITY,
    ORDER,
    Ciphertext,
    GroupElement,
    Scalar,
    commitment_eval,
    msm,
    mul_batch,
    random_scalar,
    scalar_bytes,
    tagged_hash,
)
from .proofs import DecryptionProof, dleq_first_invalid, dleq_prove, dleq_verify

__all__ = [
    "PoolParams",
    "KeyShare",
    "ThresholdPublicKey",
    "PartialDecryption",
    "DkgResult",
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


@dataclass(frozen=True)
class PartialDecryption:
    index: int
    share_point: GroupElement
    proof: DecryptionProof


@dataclass
class DkgResult:
    public_key: ThresholdPublicKey
    shares: dict  # participant id -> KeyShare
    excluded: list = field(default_factory=list)


def dkg_run(participants, k: int, rng) -> DkgResult:
    """Run the joint key generation among `participants` (1-based ids).

    A dealer whose sub-share fails its recipient's check is excluded by
    complaint and the protocol restarts without it.
    """
    participants = sorted(participants)
    if len(set(participants)) != len(participants):
        raise ValueError("participant ids must be unique")
    if any(p < 1 for p in participants):
        raise ValueError("participant ids are 1-based")
    excluded: list[int] = []
    while True:
        active = [p for p in participants if p not in excluded]
        if len(active) < k:
            raise InsufficientParticipants(f"{len(active)} participants left, need {k}")
        # Round 1: every dealer commits to a random polynomial and deals
        # each participant its sub-share f_i(j).
        coeffs, dealt = _deal(active, k, rng)
        points = mul_batch([c for dealer in active for c in coeffs[dealer]], [G] * (len(active) * k))
        commits = {dealer: points[i * k : (i + 1) * k] for i, dealer in enumerate(active)}
        # Round 2: recipients check sub-shares against the commitments, all
        # in one weighted statement; only a failed batch is checked pair by
        # pair, to name the offenders.
        offenders = [] if _subshares_hold(active, commits, dealt) else _offenders(active, commits, dealt)
        if offenders:
            excluded.append(min(offenders))
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
        values = [sum(dealt[dealer, recipient] for dealer in active) % ORDER for recipient in active]
        shares = {
            recipient: KeyShare(recipient, value, commitment)
            for recipient, value, commitment in zip(active, values, mul_batch(values, [G] * len(values)))
        }
        for recipient, share in shares.items():
            if share.commitment != tpk.share_commitment(recipient):
                raise ShareCommitmentMismatch(recipient)
        return DkgResult(tpk, shares, excluded)


def _subshares_hold(active, commits: dict, dealt: dict) -> bool:
    """Whether every sub-share s of dealer d to recipient r matches d's
    commitments, s*G == sum_j r**j * C_{d,j}, checked at once as

        sum_{d,r} w_{d,r} * (s_{d,r}*G - sum_j r**j * C_{d,j}) == 0

    in one msm over G and the n*k commitments (small-exponent batch
    verification, Bellare-Garay-Rabin 1998), so a batch holding a false
    sub-share passes with probability about 2**-128.  The 128-bit weights
    hash every commitment and sub-share; no Rng is drawn."""
    seed = tagged_hash(
        b"dkg-batch",
        *(c.encode() for dealer in active for c in commits[dealer]),
        *(scalar_bytes(dealt[dealer, recipient]) for dealer in active for recipient in active),
    )
    at_g = 0
    scalars, points = [], []
    for dealer in active:
        coefficients = [0] * len(commits[dealer])
        for recipient in active:
            pair = f"{dealer}/{recipient}".encode()
            weight = int.from_bytes(tagged_hash(b"dkg-batch/weight", seed, pair)[:16], "big")
            at_g += weight * dealt[dealer, recipient]
            for j in range(len(coefficients)):
                coefficients[j] += weight
                weight = weight * recipient % ORDER
        scalars += coefficients
        points += [-c for c in commits[dealer]]
    return msm([at_g, *scalars], [G, *points]).is_identity


def _offenders(active, commits: dict, dealt: dict) -> list:
    """The dealer of each sub-share that fails its recipient's own check,
    once per failed pair."""
    pairs = [(dealer, recipient) for recipient in active for dealer in active]
    received = mul_batch([dealt[pair] for pair in pairs], [G] * len(pairs))
    return [
        dealer
        for (dealer, recipient), point in zip(pairs, received)
        if point != commitment_eval(commits[dealer], recipient)
    ]


def _deal(active, k: int, rng) -> tuple[dict, dict]:
    """Round 1's secret half: each dealer in turn draws its k coefficients
    and deals every participant its sub-share; returns the coefficients by
    dealer and the sub-shares by (dealer, recipient)."""
    coeffs, dealt = {}, {}
    for dealer in active:
        coeffs[dealer] = [random_scalar(rng) for _ in range(k)]
        for recipient in active:
            dealt[dealer, recipient] = _poly_eval(coeffs[dealer], recipient)
    return coeffs, dealt


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
