"""Zero-knowledge proofs: correct-decryption (DLEQ) and a verifiable
random function for the consensus-pool lottery.

Both are sigma protocols made non-interactive by Fiat-Shamir.  Every
transcript starts with a protocol-version tag and contains the full
statement plus all commitments, so a proof cannot be replayed against a
different statement or in a different context.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .forking import fork_map
from .group import (
    G,
    ORDER,
    Ciphertext,
    GroupElement,
    KeyPair,
    Scalar,
    hash_to_point,
    hash_to_scalar,
    msm,
    mul_batch,
    random_scalar,
    scalar_bytes,
    decrypt,
)
from .rng import Rng

__all__ = [
    "DecryptionProof",
    "VrfOutput",
    "dleq_prove",
    "dleq_verify",
    "dleq_first_invalid",
    "prove_decryption",
    "verify_decryption",
    "vrf_rand",
    "vrf_rand_batch",
    "vrf_eval",
    "vrf_verify",
]


@dataclass(frozen=True)
class DecryptionProof:
    """DLEQ proof: the same secret links both (base, public) pairs."""

    commit_a: GroupElement
    commit_b: GroupElement
    challenge: Scalar
    response: Scalar

    def encode(self) -> bytes:
        return (
            self.commit_a.encode()
            + self.commit_b.encode()
            + scalar_bytes(self.challenge)
            + scalar_bytes(self.response)
        )


def _dleq_challenge(tag, base_a, pub_a, base_b, pub_b, commit_a, commit_b) -> Scalar:
    return hash_to_scalar(
        b"dleq/" + tag,
        base_a.encode(),
        pub_a.encode(),
        base_b.encode(),
        pub_b.encode(),
        commit_a.encode(),
        commit_b.encode(),
    )


def dleq_prove(tag: bytes, base_a, pub_a, base_b, pub_b, secret: Scalar, rng) -> DecryptionProof:
    """Prove log_{base_a}(pub_a) == log_{base_b}(pub_b) == secret."""
    w = random_scalar(rng)
    commit_a = base_a.mul(w)
    commit_b = base_b.mul(w)
    c = _dleq_challenge(tag, base_a, pub_a, base_b, pub_b, commit_a, commit_b)
    s = (w - c * secret) % ORDER
    return DecryptionProof(commit_a, commit_b, c, s)


def dleq_verify(tag: bytes, base_a, pub_a, base_b, pub_b, proof: DecryptionProof) -> bool:
    """Each equation s*base + c*pub == commit is one two-term msm."""
    c, s = proof.challenge, proof.response
    if not (0 <= c < ORDER and 0 <= s < ORDER):
        return False
    if msm([s, c], [base_a, pub_a]) != proof.commit_a:
        return False
    if msm([s, c], [base_b, pub_b]) != proof.commit_b:
        return False
    return _dleq_challenge(tag, base_a, pub_a, base_b, pub_b, proof.commit_a, proof.commit_b) == c


_WEIGHT_MASK = (1 << 128) - 1


def dleq_first_invalid(tag: bytes, statements, proofs) -> int | None:
    """Position of the first proof that fails dleq_verify, or None when
    every proof verifies.

    statements[i] is (base_a, pub_a, base_b, pub_b) for proofs[i].  Each
    proof's ranges and Fiat-Shamir challenge are checked on their own; the
    two linear equations of every proof are then folded into one
    multi-scalar multiply under independent 128-bit weights
    (small-exponent batch verification, Bellare-Garay-Rabin 1998), so a
    batch holding a false proof passes with probability about 2**-128.
    A batch that fails is checked again one proof at a time, in order, to
    name the offender.
    """
    if len(statements) != len(proofs):
        raise ValueError("one statement per proof")
    if not _dleq_batch_holds(tag, statements, proofs):
        for position, (statement, proof) in enumerate(zip(statements, proofs)):
            if not dleq_verify(tag, *statement, proof):
                return position
    return None


def _dleq_batch_holds(tag: bytes, statements, proofs) -> bool:
    for (base_a, pub_a, base_b, pub_b), proof in zip(statements, proofs):
        if not (0 <= proof.challenge < ORDER and 0 <= proof.response < ORDER):
            return False
        if _dleq_challenge(tag, base_a, pub_a, base_b, pub_b, proof.commit_a, proof.commit_b) != proof.challenge:
            return False
    # Each challenge hashes its statement and commitments, so hashing
    # every (challenge, response) pair binds the weights to the whole
    # batch.  No Rng is drawn: the check is a pure function of its input.
    seed = scalar_bytes(
        hash_to_scalar(b"dleq-batch/" + tag, *(scalar_bytes(p.challenge) + scalar_bytes(p.response) for p in proofs))
    )
    scalars, points = [], []
    for position, ((base_a, pub_a, base_b, pub_b), proof) in enumerate(zip(statements, proofs)):
        weights = hash_to_scalar(b"dleq-batch/weights", seed, position.to_bytes(4, "big"))
        u, v = weights & _WEIGHT_MASK, weights >> 128
        c, s = proof.challenge, proof.response
        # u * (s*base_a + c*pub_a - commit_a) + v * (s*base_b + c*pub_b - commit_b)
        scalars += [u * s, u * c, u, v * s, v * c, v]
        points += [base_a, pub_a, -proof.commit_a, base_b, pub_b, -proof.commit_b]
    return msm(scalars, points).is_identity


_DEC_TAG = b"decryption"


def prove_decryption(keypair: KeyPair, ct: Ciphertext, rng) -> tuple[GroupElement, DecryptionProof]:
    """Decrypt ct under keypair's secret and prove it: (plain_point, proof).

    Statement: pk = sk*G  and  ct.c2 - plain_point = sk*ct.c1.
    """
    plain_point = decrypt(keypair.sk, ct)
    masked = ct.c2 - plain_point
    return plain_point, dleq_prove(_DEC_TAG, G, keypair.pk, ct.c1, masked, keypair.sk, rng)


def verify_decryption(pk: GroupElement, ct: Ciphertext, plain_point: GroupElement, proof: DecryptionProof) -> bool:
    return dleq_verify(_DEC_TAG, G, pk, ct.c1, ct.c2 - plain_point, proof)


# ---------------------------------------------------------------------------
# VRF: hash the seed to a curve point, expose sk*H(seed) plus a DLEQ proof,
# and derive the random number from the exposed point.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VrfOutput:
    rand: int
    gamma: GroupElement
    proof: DecryptionProof

    def encode(self) -> bytes:
        return self.rand.to_bytes(32, "little") + self.gamma.encode() + self.proof.encode()


def _vrf_point(vrf_pk: GroupElement, seed: bytes) -> GroupElement:
    return hash_to_point(b"vrf/h2c", vrf_pk.encode(), seed)


def _vrf_rand(gamma: GroupElement, p: int) -> int:
    # Not group.tagged_hash: these bytes decide every lottery draw, so they
    # stay as first defined.
    digest = hashlib.sha256(b"privads/v1/vrf/out" + gamma.encode()).digest()
    return int.from_bytes(digest, "big") % p


def _check_draw(seed: bytes, p: int) -> None:
    if p < 2:
        raise ValueError("modulus must be >= 2")
    if not seed:
        raise ValueError("seed must be non-empty")


def _vrf_gamma(vrf_keypair: KeyPair, seed: bytes, p: int) -> tuple:
    """(h, gamma = sk*h) for a draw; takes the keypair as held (pk = sk*G)."""
    _check_draw(seed, p)
    h = _vrf_point(vrf_keypair.pk, seed)
    return h, h.mul(vrf_keypair.sk)


def vrf_rand(vrf_keypair: KeyPair, seed: bytes, p: int) -> int:
    """Just the random number, no proof.

    Matches vrf_eval(...).rand exactly.  Lottery registrants evaluate this
    to learn whether they won; only winners go on to publish the full
    proved output.
    """
    return _vrf_rand(_vrf_gamma(vrf_keypair, seed, p)[1], p)


def vrf_rand_batch(vrf_keypairs, seed: bytes, p: int) -> list[int]:
    """[vrf_rand(kp, seed, p) for kp in vrf_keypairs]: one lottery round's
    draws.  Raises ValueError as vrf_rand does, for an empty list too.

    Each registrant evaluates its own VRF, so the draws are independent
    parties' work and run on every usable CPU: forking.fork_map splits the
    keypairs into chunks of at least forking.CHUNK_MIN, one per CPU, and
    each chunk runs its sk*h multiplies as lanes of one group.mul_batch.
    A smaller batch is one in-process call.  The draws are the same for any
    CPU count."""
    _check_draw(seed, p)

    def draws(keypairs):
        points = [_vrf_point(kp.pk, seed) for kp in keypairs]
        return [_vrf_rand(gamma, p) for gamma in mul_batch([kp.sk for kp in keypairs], points)]

    return fork_map(draws, vrf_keypairs)


def vrf_eval(vrf_keypair: KeyPair, seed: bytes, p: int) -> VrfOutput:
    """Deterministic random number in [0, p) plus proof of correctness."""
    h, gamma = _vrf_gamma(vrf_keypair, seed, p)
    # The proof nonce is derived, not sampled: evaluation stays a pure
    # function of (sk, seed).
    nonce_rng = Rng(b"privads/v1/vrf/nonce" + scalar_bytes(vrf_keypair.sk) + seed)
    proof = dleq_prove(b"vrf", G, vrf_keypair.pk, h, gamma, vrf_keypair.sk, nonce_rng)
    return VrfOutput(_vrf_rand(gamma, p), gamma, proof)


def vrf_verify(vrf_pk: GroupElement, seed: bytes, out: VrfOutput, p: int) -> bool:
    if p < 2 or not seed:
        return False
    h = _vrf_point(vrf_pk, seed)
    if not dleq_verify(b"vrf", G, vrf_pk, h, out.gamma, out.proof):
        return False
    return out.rand == _vrf_rand(out.gamma, p)

