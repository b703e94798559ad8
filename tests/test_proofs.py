"""Decryption-proof and VRF soundness/completeness tests.

Tamper oracles: every single-field mutation of a valid proof or of its
statement must flip verification to False.
"""

import pytest

from privads import group
from privads.group import G, GroupElement, encrypt, decrypt, keygen, random_scalar
from privads.proofs import (
    DecryptionProof,
    dleq_prove,
    prove_decryption,
    verify_decryption,
    vrf_eval,
    vrf_rand,
    vrf_rand_batch,
    vrf_verify,
)
from privads.rng import Rng


@pytest.fixture
def rng():
    return Rng("proof-tests")


def _proof_setup(rng, m=36):
    kp = keygen(b"prover")
    ct = encrypt(kp.pk, m, random_scalar(rng))
    plain, proof = prove_decryption(kp, ct, rng)
    assert plain == decrypt(kp.sk, ct)
    return kp, ct, plain, proof


class TestDecryptionProof:
    def test_honest_accepts(self, rng):
        kp, ct, plain, proof = _proof_setup(rng)
        assert verify_decryption(kp.pk, ct, plain, proof)

    def test_wrong_plain_rejected(self, rng):
        # Tamper oracle: claim 35 when the ciphertext holds 36, with the
        # honest proof and with one made for the false statement.
        kp, ct, _, proof = _proof_setup(rng, m=36)
        assert not verify_decryption(kp.pk, ct, G.mul(35), proof)
        forged = dleq_prove(b"decryption", G, kp.pk, ct.c1, ct.c2 - G.mul(35), kp.sk, rng)
        assert not verify_decryption(kp.pk, ct, G.mul(35), forged)

    def test_proof_bound_to_ciphertext(self, rng):
        kp, ct, plain, proof = _proof_setup(rng)
        other = encrypt(kp.pk, 36, random_scalar(rng))
        assert not verify_decryption(kp.pk, other, plain, proof)

    def test_single_field_tampering(self, rng):
        kp, ct, plain, proof = _proof_setup(rng)
        variants = [
            DecryptionProof(proof.commit_a + G, proof.commit_b, proof.challenge, proof.response),
            DecryptionProof(proof.commit_a, proof.commit_b + G, proof.challenge, proof.response),
            DecryptionProof(proof.commit_a, proof.commit_b, proof.challenge + 1, proof.response),
            DecryptionProof(proof.commit_a, proof.commit_b, proof.challenge, proof.response + 1),
        ]
        for bad in variants:
            assert not verify_decryption(kp.pk, ct, plain, bad)

    def test_wrong_pk_rejected(self, rng):
        _, ct, plain, proof = _proof_setup(rng)
        assert not verify_decryption(keygen(b"other").pk, ct, plain, proof)

    def test_randomized_soundness(self, rng):
        # 100 honest proofs verify; per-proof single-field tamper rejects.
        for i in range(100):
            kp = keygen(b"p%d" % i)
            m = rng.randrange(1000)
            ct = encrypt(kp.pk, m, random_scalar(rng))
            plain, proof = prove_decryption(kp, ct, rng)
            assert verify_decryption(kp.pk, ct, plain, proof)
            field = i % 4
            tampered = DecryptionProof(
                proof.commit_a + G if field == 0 else proof.commit_a,
                proof.commit_b + G if field == 1 else proof.commit_b,
                proof.challenge + 1 if field == 2 else proof.challenge,
                proof.response + 1 if field == 3 else proof.response,
            )
            assert not verify_decryption(kp.pk, ct, plain, tampered)

    def test_thousand_tamper_trials(self, rng):
        # >= 1000 randomized single-field tamperings across proof fields,
        # statement components, and VRF seed/rand/gamma: all must reject
        rejected = 0
        for i in range(72):
            kp = keygen(b"t%d" % i)
            m = rng.randrange(500)
            ct = encrypt(kp.pk, m, random_scalar(rng))
            plain, proof = prove_decryption(kp, ct, rng)
            bump = 1 + rng.randrange(1000)
            cases = [
                (kp.pk, ct, plain, DecryptionProof(proof.commit_a + G, proof.commit_b, proof.challenge, proof.response)),
                (kp.pk, ct, plain, DecryptionProof(proof.commit_a, proof.commit_b + G, proof.challenge, proof.response)),
                (kp.pk, ct, plain, DecryptionProof(proof.commit_a, proof.commit_b, proof.challenge + bump, proof.response)),
                (kp.pk, ct, plain, DecryptionProof(proof.commit_a, proof.commit_b, proof.challenge, proof.response + bump)),
                (kp.pk + G, ct, plain, proof),
                (kp.pk, type(ct)(ct.c1 + G, ct.c2), plain, proof),
                (kp.pk, type(ct)(ct.c1, ct.c2 + G), plain, proof),
                (kp.pk, ct, plain + G, proof),
            ]
            for pk, c, pl, pr in cases:
                assert not verify_decryption(pk, c, pl, pr)
                rejected += 1
        for i in range(72):
            kp = keygen(b"tv%d" % i)
            seed = b"trial-%d" % i
            out = vrf_eval(kp, seed, 10_000)
            p = out.proof
            cases = [
                (kp.pk, seed + b"x", out),
                (kp.pk + G, seed, out),
                (kp.pk, seed, type(out)((out.rand + 1) % 10_000, out.gamma, p)),
                (kp.pk, seed, type(out)(out.rand, out.gamma + G, p)),
                (kp.pk, seed, type(out)(out.rand, out.gamma, DecryptionProof(p.commit_a + G, p.commit_b, p.challenge, p.response))),
                (kp.pk, seed, type(out)(out.rand, out.gamma, DecryptionProof(p.commit_a, p.commit_b + G, p.challenge, p.response))),
                (kp.pk, seed, type(out)(out.rand, out.gamma, DecryptionProof(p.commit_a, p.commit_b, p.challenge + 1, p.response))),
                (kp.pk, seed, type(out)(out.rand, out.gamma, DecryptionProof(p.commit_a, p.commit_b, p.challenge, p.response + 1))),
            ]
            for pk, s, o in cases:
                assert not vrf_verify(pk, s, o, 10_000)
                rejected += 1
        assert rejected >= 1000


class TestVrf:
    def test_deterministic(self):
        kp = keygen(b"vrf")
        a = vrf_eval(kp, b"epoch-1", 1000)
        b = vrf_eval(kp, b"epoch-1", 1000)
        assert a.rand == b.rand and a.encode() == b.encode()

    def test_honest_verifies(self):
        kp = keygen(b"vrf")
        out = vrf_eval(kp, b"epoch-1", 1000)
        assert 0 <= out.rand < 1000
        assert vrf_verify(kp.pk, b"epoch-1", out, 1000)

    def test_wrong_pk_rejected(self):
        kp = keygen(b"vrf")
        out = vrf_eval(kp, b"epoch-1", 1000)
        assert not vrf_verify(keygen(b"other").pk, b"epoch-1", out, 1000)

    def test_rand_tamper_rejected(self):
        kp = keygen(b"vrf")
        out = vrf_eval(kp, b"epoch-1", 1000)
        forged = type(out)((out.rand + 1) % 1000, out.gamma, out.proof)
        assert not vrf_verify(kp.pk, b"epoch-1", forged, 1000)

    def test_seed_substitution_rejected(self):
        kp = keygen(b"vrf")
        out = vrf_eval(kp, b"epoch-1", 1000)
        assert not vrf_verify(kp.pk, b"epoch-2", out, 1000)

    def test_uniformity(self):
        # Uniformity oracle: empirical mean of rand/p over fresh seeds.
        # vrf_rand is vrf_eval's output without the proof
        # (test_rand_only_path_matches_full_eval).
        kp = keygen(b"vrf-uniform")
        p = 2**30
        n = 10_000
        total = sum(vrf_rand(kp, b"seed-%d" % i, p) for i in range(n))
        mean = total / n / p
        assert abs(mean - 0.5) < 0.02

    def test_distinct_keys_distinct_rand(self):
        p = 2**62
        a = vrf_eval(keygen(b"k1"), b"seed", p)
        b = vrf_eval(keygen(b"k2"), b"seed", p)
        assert a.rand != b.rand

    def test_rand_only_path_matches_full_eval(self):
        kp = keygen(b"vrf-fast")
        for i in range(20):
            seed = b"s%d" % i
            assert vrf_rand(kp, seed, 997) == vrf_eval(kp, seed, 997).rand


class TestVrfBatch:
    @pytest.mark.parametrize("n", [0, 1, group._MUL_LANES_MIN - 1, group._MUL_LANES_MIN, group._LANE_GROUP + 1])
    def test_matches_vrf_rand_per_keypair(self, n):
        keypairs = group.keygen_batch([b"draw-%d" % i for i in range(n)])
        seed = b"round-seed"
        assert vrf_rand_batch(keypairs, seed, 997) == [vrf_rand(kp, seed, 997) for kp in keypairs]

    @pytest.mark.parametrize("seed, p", [(b"", 997), (b"seed", 1), (b"seed", 0)])
    def test_raises_as_vrf_rand_does(self, seed, p):
        kp = keygen(b"draw")
        with pytest.raises(ValueError) as single:
            vrf_rand(kp, seed, p)
        with pytest.raises(ValueError) as batch:
            vrf_rand_batch([kp], seed, p)
        assert str(batch.value) == str(single.value)


def test_verify_decryption_makes_no_single_or_variable_base_multiply(monkeypatch, rng):
    kp, ct, plain, proof = _proof_setup(rng)
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(GroupElement, "mul")
    counting(group, "msm")  # a single multiply, P.mul, is group.msm of one term
    counting(group, "_straus")
    assert verify_decryption(kp.pk, ct, plain, proof)
    assert calls == ["_straus", "_straus"]  # one joint multiply per equation
