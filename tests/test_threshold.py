"""Lottery math, DKG, and threshold decryption.

The decryption oracle for combine tests is a test-only Lagrange
reconstruction of the joint secret, compared against the share-combining
path under test.
"""

import functools
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from privads.group import G, IDENTITY, ORDER, KeyPair, encrypt, decrypt, random_scalar
from privads.proofs import dleq_first_invalid, dleq_prove, vrf_rand
from privads.rng import Rng
from privads.threshold import (
    ComplaintAgainstDealer,
    DuplicateShareIndex,
    InsufficientParticipants,
    InsufficientShares,
    InvalidShareProof,
    PartialDecryption,
    PoolParams,
    ShareCommitmentMismatch,
    SyncChannel,
    ThresholdPublicKey,
    combine_partials,
    commitment_eval,
    dkg_run,
    draw_winner,
    lagrange_coefficients,
    max_draw,
    partial_decrypt,
    verify_partial,
    verify_partials,
)


@pytest.fixture
def rng():
    return Rng("threshold-tests")


def reconstruct_secret(shares, k):
    """Test-only oracle: Lagrange-interpolate the joint secret at zero."""
    chosen = shares[:k]
    lam = lagrange_coefficients([s.index for s in chosen])
    return sum(s.share * lam[s.index] for s in chosen) % ORDER


class TestLottery:
    def test_full_pool_case(self):
        params = PoolParams(expected=10, threshold=3, draw_pool=10, modulus=1000)
        assert max_draw(params) == 1000

    def test_arithmetic_oracle(self):
        # floor(10 * 1000 / 100) computed by hand
        params = PoolParams(expected=10, threshold=3, draw_pool=100, modulus=1000)
        assert max_draw(params) == 100

    def test_nobody_wins(self):
        params = PoolParams(expected=0, threshold=1, draw_pool=100, modulus=1000)
        assert max_draw(params) == 0
        assert not draw_winner(0, max_draw(params))

    def test_draw_strict_inequality(self):
        assert draw_winner(0, 1)
        assert not draw_winner(5, 5)
        assert draw_winner(4, 5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PoolParams(expected=3, threshold=4, draw_pool=10, modulus=100)
        with pytest.raises(ValueError):
            PoolParams(expected=3, threshold=0, draw_pool=10, modulus=100)
        with pytest.raises(ValueError):
            PoolParams(expected=3, threshold=1, draw_pool=0, modulus=100)

    def test_honest_majority_warning(self):
        with pytest.warns(UserWarning):
            PoolParams(expected=4, threshold=3, draw_pool=10, modulus=100)

    def test_winner_fraction_statistical(self, rng):
        # Simulation oracle: with threshold = expected*modulus/draw_pool the
        # winner count over the pool is Binomial(draw_pool, expected/draw_pool).
        params = PoolParams(expected=20, threshold=3, draw_pool=200, modulus=2**30)
        thr = max_draw(params)
        kps = [KeyPair(sk, G.mul(sk)) for sk in (random_scalar(rng) for _ in range(params.draw_pool))]
        winners = sum(draw_winner(vrf_rand(kp, b"round-seed", params.modulus), thr) for kp in kps)
        mean = params.expected
        sigma = (params.draw_pool * (mean / params.draw_pool) * (1 - mean / params.draw_pool)) ** 0.5
        assert abs(winners - mean) <= 3 * sigma


class TestDkg:
    def test_honest_run_common_key(self, rng):
        result = dkg_run([1, 2, 3], 2, SyncChannel(), rng)
        assert set(result.shares) == {1, 2, 3}
        assert result.excluded == []
        # all share commitments line up with the verification vector
        for share in result.shares.values():
            assert share.commitment == result.public_key.share_commitment(share.index)

    def test_all_subsets_reconstruct_same_secret(self, rng):
        result = dkg_run([1, 2, 3], 2, SyncChannel(), rng)
        shares = list(result.shares.values())
        secrets = set()
        for pair in itertools.combinations(shares, 2):
            secrets.add(reconstruct_secret(list(pair), 2))
        assert len(secrets) == 1
        assert G.mul(secrets.pop()) == result.public_key.pk

    def test_corrupt_dealer_excluded(self, rng):
        result = dkg_run([1, 2, 3, 4], 2, SyncChannel(), rng, corrupt={3: {1}})
        assert result.excluded == [3]
        assert set(result.shares) == {1, 2, 4}

    @pytest.mark.parametrize("k", [1, 2, 11])
    def test_commitment_eval_matches_per_term_sum(self, rng, k):
        commitments = [G.mul(random_scalar(rng)) for _ in range(k)]
        for x in (1, 2, 7, 24):
            expected = IDENTITY
            for j, c in enumerate(commitments):
                expected = expected + c.mul(x**j)
            assert commitment_eval(commitments, x) == expected

    def test_corrupt_dealer_excluded_at_large_threshold(self, rng):
        # k = 9 checks every sub-share through the bucket-method msm
        result = dkg_run(list(range(1, 11)), 9, SyncChannel(), rng, corrupt={4: {7}})
        assert result.excluded == [4]
        assert set(result.shares) == set(range(1, 11)) - {4}

    def test_strict_mode_raises(self, rng):
        with pytest.raises(ComplaintAgainstDealer) as exc:
            dkg_run([1, 2, 3], 2, SyncChannel(), rng, corrupt={2: {3}}, strict=True)
        assert exc.value.dealer == 2

    def test_too_many_exclusions(self, rng):
        with pytest.raises(InsufficientParticipants):
            dkg_run([1, 2], 2, SyncChannel(), rng, corrupt={1: {2}})

    def test_single_party_degenerate(self, rng):
        result = dkg_run([1], 1, SyncChannel(), rng)
        share = result.shares[1]
        assert G.mul(share.share) == result.public_key.pk

    def test_transcript_dump(self, rng, tmp_path):
        channel = SyncChannel()
        dkg_run([1, 2, 3], 2, channel, rng)
        out = tmp_path / "transcript.jsonl"
        channel.dump(out)
        lines = out.read_text().splitlines()
        assert len(lines) == len(channel.transcript) > 0

    def test_deterministic_given_seed(self):
        a = dkg_run([1, 2, 3], 2, SyncChannel(), Rng("dkg-seed"))
        b = dkg_run([1, 2, 3], 2, SyncChannel(), Rng("dkg-seed"))
        assert a.public_key.pk.encode() == b.public_key.pk.encode()


class TestThresholdDecryption:
    @pytest.fixture
    def setup(self, rng):
        result = dkg_run([1, 2, 3], 2, SyncChannel(), rng)
        ct = encrypt(result.public_key.pk, 5, random_scalar(rng))
        return result, ct

    def test_partial_verifies(self, rng, setup):
        result, ct = setup
        partial = partial_decrypt(result.shares[1], ct, rng)
        assert verify_partial(result.public_key, ct, partial)

    def test_tampered_partial_rejects(self, rng, setup):
        result, ct = setup
        partial = partial_decrypt(result.shares[1], ct, rng)
        forged = PartialDecryption(partial.index, partial.share_point + G, partial.proof)
        assert not verify_partial(result.public_key, ct, forged)

    def test_any_two_of_three_match_direct_decryption(self, rng, setup):
        result, ct = setup
        shares = list(result.shares.values())
        secret = reconstruct_secret(shares, 2)
        expected = decrypt(secret, ct)  # oracle: single-key decryption
        assert expected == G.mul(5)
        for pair in itertools.combinations(shares, 2):
            partials = [partial_decrypt(s, ct, rng) for s in pair]
            assert combine_partials(result.public_key, partials, ct, 2) == expected

    def test_insufficient_shares(self, rng, setup):
        result, ct = setup
        partials = [partial_decrypt(result.shares[1], ct, rng)]
        with pytest.raises(InsufficientShares):
            combine_partials(result.public_key, partials, ct, 2)

    def test_forged_partial_flagged(self, rng, setup):
        result, ct = setup
        partials = [partial_decrypt(result.shares[i], ct, rng) for i in (1, 2)]
        bad = PartialDecryption(2, partials[1].share_point + G, partials[1].proof)
        with pytest.raises(InvalidShareProof) as exc:
            combine_partials(result.public_key, [partials[0], bad], ct, 2)
        assert exc.value.index == 2

    def test_duplicate_indices_rejected(self, rng, setup):
        result, ct = setup
        partial = partial_decrypt(result.shares[1], ct, rng)
        with pytest.raises(DuplicateShareIndex):
            combine_partials(result.public_key, [partial, partial], ct, 2)

    def test_exhaustive_small_pools(self, rng):
        # Every k-subset agrees; every (k-1)-subset fails.
        for n, k in [(3, 2), (4, 3), (5, 2)]:
            result = dkg_run(list(range(1, n + 1)), k, SyncChannel(), rng)
            ct = encrypt(result.public_key.pk, 7, random_scalar(rng))
            partials = {i: partial_decrypt(result.shares[i], ct, rng) for i in result.shares}
            points = set()
            for subset in itertools.combinations(partials, k):
                point = combine_partials(result.public_key, [partials[i] for i in subset], ct, k)
                points.add(point.encode())
            assert points == {G.mul(7).encode()}
            for subset in itertools.combinations(partials, k - 1):
                with pytest.raises(InsufficientShares):
                    combine_partials(result.public_key, [partials[i] for i in subset], ct, k)


@functools.cache
def _batch_setup():
    """Three posts (indices 1-3 of a 2-of-3 pool) over four ciphertexts."""
    rng = Rng("batch-tests")
    result = dkg_run([1, 2, 3], 2, SyncChannel(), rng)
    cts = [encrypt(result.public_key.pk, m, random_scalar(rng)) for m in (5, 0, 9, 2)]
    partials = [partial_decrypt(result.shares[i], ct, rng) for i in (1, 2, 3) for ct in cts]
    return result, cts * 3, partials


def _first_failure_one_by_one(tpk, cts, partials):
    return next((p.index for ct, p in zip(cts, partials) if not verify_partial(tpk, ct, p)), None)


def _first_failure_batched(tpk, cts, partials):
    try:
        verify_partials(tpk, cts, partials)
    except InvalidShareProof as exc:
        return exc.index
    return None


def _tamper(cts, partials, slot, field, other):
    cts, partials = list(cts), list(partials)
    p = partials[slot]
    proof = p.proof
    if field == "reproved":  # a wrong share point under a proof whose challenge is consistent
        share = _batch_setup()[0].shares[p.index]
        point = p.share_point + G
        proof = dleq_prove(b"partial-decryption", G, share.commitment, cts[slot].c1, point, share.share, Rng("forger"))
        partials[slot] = PartialDecryption(p.index, point, proof)
    elif field == "share_point":
        partials[slot] = PartialDecryption(p.index, p.share_point + G, proof)
    elif field == "commit_a":
        partials[slot] = PartialDecryption(p.index, p.share_point, replace(proof, commit_a=proof.commit_a + G))
    elif field == "commit_b":
        partials[slot] = PartialDecryption(p.index, p.share_point, replace(proof, commit_b=proof.commit_b + G))
    elif field == "challenge":
        partials[slot] = PartialDecryption(p.index, p.share_point, replace(proof, challenge=proof.challenge + 1))
    elif field == "response":
        partials[slot] = PartialDecryption(p.index, p.share_point, replace(proof, response=proof.response + 1))
    elif field == "index":
        partials[slot] = PartialDecryption(p.index % 3 + 1, p.share_point, proof)
    else:  # swap the c1 of two slots that hold different ciphertexts
        if cts[slot].c1 == cts[other].c1:
            other = (other + 1) % len(cts)
        a, b = cts[slot], cts[other]
        cts[slot], cts[other] = type(a)(b.c1, a.c2), type(b)(a.c1, b.c2)
    return cts, partials


class TestBatchedPartialCheck:
    def test_honest_batch_passes(self):
        result, cts, partials = _batch_setup()
        tpk = result.public_key
        verify_partials(tpk, cts, partials)
        assert _first_failure_one_by_one(tpk, cts, partials) is None

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        slot=st.integers(0, 11),
        field=st.sampled_from(
            ["share_point", "reproved", "commit_a", "commit_b", "challenge", "response", "index", "swap_c1"]
        ),
        other=st.integers(0, 11),
    )
    def test_verdict_equals_one_by_one(self, slot, field, other):
        result, cts, partials = _batch_setup()
        tpk = result.public_key
        cts, partials = _tamper(cts, partials, slot, field, other)
        expected = _first_failure_one_by_one(tpk, cts, partials)
        assert expected is not None
        assert _first_failure_batched(tpk, cts, partials) == expected

    def test_fallback_names_first_bad_index(self):
        result, cts, partials = _batch_setup()
        tpk = result.public_key
        cts, partials = _tamper(cts, partials, 9, "response", 0)  # index 3
        cts, partials = _tamper(cts, partials, 6, "share_point", 0)  # index 2
        with pytest.raises(InvalidShareProof) as exc:
            verify_partials(tpk, cts, partials)
        assert exc.value.index == 2
        statements = [(G, tpk.share_commitment(p.index), ct.c1, p.share_point) for ct, p in zip(cts, partials)]
        assert dleq_first_invalid(b"partial-decryption", statements, [p.proof for p in partials]) == 6

    def test_batch_draws_no_randomness(self, monkeypatch):
        result, cts, partials = _batch_setup()
        tpk = result.public_key
        bad_cts, bad_partials = _tamper(cts, partials, 3, "commit_b", 0)
        global_state = random.getstate()

        def no_draw(self, *args):  # every Rng draw goes through one of these
            raise AssertionError("the batch check drew randomness")

        monkeypatch.setattr(Rng, "getrandbits", no_draw)
        monkeypatch.setattr(Rng, "random", no_draw)
        verify_partials(tpk, cts, partials)
        with pytest.raises(InvalidShareProof):
            verify_partials(tpk, bad_cts, bad_partials)
        assert random.getstate() == global_state


class TestProtocolChecksWithoutAsserts:
    def test_dkg_share_mismatch_raises(self, rng, monkeypatch):
        monkeypatch.setattr(ThresholdPublicKey, "share_commitment", lambda self, index: G)
        with pytest.raises(ShareCommitmentMismatch):
            dkg_run([1, 2, 3], 2, SyncChannel(), rng)
