"""Lottery math, DKG, and threshold decryption.

The decryption oracle for combine tests is a test-only Lagrange
reconstruction of the joint secret, compared against the share-combining
path under test.
"""

import functools
import hashlib
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import privads.group
import privads.threshold
from privads.group import G, IDENTITY, ORDER, GroupElement, KeyPair, encrypt, decrypt, random_scalar, scalar_bytes
from privads.proofs import dleq_first_invalid, dleq_prove, vrf_rand_batch
from privads.rng import Rng
from privads.threshold import (
    DuplicateShareIndex,
    InsufficientParticipants,
    InsufficientShares,
    InvalidShareProof,
    PartialDecryption,
    PoolParams,
    ShareCommitmentMismatch,
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


def corrupt_dealing(monkeypatch, bad):
    """Make dealer d hand each recipient in bad[d] a sub-share one too
    high, in every DKG round that d deals in."""
    deal = privads.threshold._deal

    def corrupted(active, k, rng):
        coeffs, dealt = deal(active, k, rng)
        for dealer, recipients in bad.items():
            for recipient in recipients:
                if (dealer, recipient) in dealt:
                    dealt[dealer, recipient] = (dealt[dealer, recipient] + 1) % ORDER
        return coeffs, dealt

    monkeypatch.setattr(privads.threshold, "_deal", corrupted)


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
        winners = sum(draw_winner(rand, thr) for rand in vrf_rand_batch(kps, b"round-seed", params.modulus))
        mean = params.expected
        sigma = (params.draw_pool * (mean / params.draw_pool) * (1 - mean / params.draw_pool)) ** 0.5
        assert abs(winners - mean) <= 3 * sigma


class TestDkg:
    def test_honest_run_common_key(self, rng):
        result = dkg_run([1, 2, 3], 2, rng)
        assert set(result.shares) == {1, 2, 3}
        assert result.excluded == []
        # all share commitments line up with the verification vector
        for share in result.shares.values():
            assert share.commitment == result.public_key.share_commitment(share.index)

    def test_all_subsets_reconstruct_same_secret(self, rng):
        result = dkg_run([1, 2, 3], 2, rng)
        shares = list(result.shares.values())
        secrets = set()
        for pair in itertools.combinations(shares, 2):
            secrets.add(reconstruct_secret(list(pair), 2))
        assert len(secrets) == 1
        assert G.mul(secrets.pop()) == result.public_key.pk

    def test_corrupt_dealer_excluded(self, rng, monkeypatch):
        corrupt_dealing(monkeypatch, {3: {1}})
        result = dkg_run([1, 2, 3, 4], 2, rng)
        assert result.excluded == [3]
        assert set(result.shares) == {1, 2, 4}

    def test_lowest_offender_excluded_first(self, rng, monkeypatch):
        corrupt_dealing(monkeypatch, {4: {1}, 2: {5}})
        result = dkg_run([1, 2, 3, 4, 5], 2, rng)
        assert result.excluded == [2, 4]
        assert set(result.shares) == {1, 3, 5}

    @pytest.mark.parametrize("k", [1, 2, 11, "identities"])
    def test_commitment_eval_matches_per_term_sum(self, rng, k):
        if k == "identities":  # at the top, in the middle, at the bottom
            commitments = [IDENTITY, G.mul(random_scalar(rng)), IDENTITY, G.mul(random_scalar(rng)), IDENTITY]
        else:
            commitments = [G.mul(random_scalar(rng)) for _ in range(k)]
        for x in range(1, 65):
            expected = IDENTITY
            for j, c in enumerate(commitments):
                expected = expected + c.mul(x**j)
            assert commitment_eval(commitments, x) == expected
        assert commitment_eval([IDENTITY] * 3, 5) == IDENTITY

    @pytest.mark.parametrize("x", [0, -1, ORDER, ORDER + 1])
    def test_commitment_eval_rejects_index_outside_the_field(self, rng, x):
        with pytest.raises(ValueError):
            commitment_eval([G.mul(random_scalar(rng))], x)

    def test_corrupt_dealer_excluded_at_large_threshold(self, rng, monkeypatch):
        corrupt_dealing(monkeypatch, {4: {7}})
        result = dkg_run(list(range(1, 11)), 9, rng)
        assert result.excluded == [4]
        assert set(result.shares) == set(range(1, 11)) - {4}

    def test_too_many_exclusions(self, rng, monkeypatch):
        corrupt_dealing(monkeypatch, {1: {2}})
        with pytest.raises(InsufficientParticipants):
            dkg_run([1, 2], 2, rng)

    def test_single_party_degenerate(self, rng):
        result = dkg_run([1], 1, rng)
        share = result.shares[1]
        assert G.mul(share.share) == result.public_key.pk

    def test_single_party_sums_no_lanes(self, rng, monkeypatch):
        lanes = []
        sum_lanes = privads.group._sum_lanes
        monkeypatch.setattr(privads.group, "_sum_lanes", lambda group: lanes.append(group) or sum_lanes(group))
        dkg_run([1], 1, rng)
        assert lanes == []

    def test_offsetting_corruptions_are_caught(self, rng, monkeypatch):
        # Two bad sub-shares of one dealer whose errors cancel in a plain
        # sum: the batch weights keep them apart.
        deal = privads.threshold._deal

        def corrupted(active, k, rng):
            coeffs, dealt = deal(active, k, rng)
            if 2 in active:
                dealt[2, 1] = (dealt[2, 1] + 1) % ORDER
                dealt[2, 3] = (dealt[2, 3] - 1) % ORDER
            return coeffs, dealt

        monkeypatch.setattr(privads.threshold, "_deal", corrupted)
        assert dkg_run([1, 2, 3, 4], 2, rng).excluded == [2]

    def test_deterministic_given_seed(self):
        a = dkg_run([1, 2, 3], 2, Rng("dkg-seed"))
        b = dkg_run([1, 2, 3], 2, Rng("dkg-seed"))
        assert a.public_key.pk.encode() == b.public_key.pk.encode()


def _dkg_digest(result):
    """sha256 over the public key, the verification vector and every
    share's (index, share, commitment)."""
    h = hashlib.sha256(result.public_key.pk.encode())
    for c in result.public_key.verification:
        h.update(c.encode())
    for index in sorted(result.shares):
        share = result.shares[index]
        h.update(share.index.to_bytes(4, "big") + scalar_bytes(share.share) + share.commitment.encode())
    return h.hexdigest()


class TestLargeDkg:
    """An 11-of-24 DKG, the size of the pool benchmark, pinned to the
    values of the per-check implementation (one G.mul per commitment and
    sub-share, one msm per commitment evaluation); the batched check must
    deal, exclude and restart exactly as that one did."""

    def test_honest_run_pinned(self):
        result = dkg_run(list(range(1, 25)), 11, Rng("golden/dkg-24-11"))
        assert result.excluded == []
        assert _dkg_digest(result) == "1377bfd03264d537aeac6e2319a7509443750de43485cfbf905139c0090652bc"

    def test_corrupt_run_pinned(self, monkeypatch):
        corrupt_dealing(monkeypatch, {4: {7}})
        result = dkg_run(list(range(1, 25)), 11, Rng("golden/dkg-24-11"))
        assert result.excluded == [4]
        assert _dkg_digest(result) == "5b4b6c2de3fdf2d578e9fad6ae34a9920b26add6ff263afeb4a1a8255cbb195a"

    def test_no_single_or_variable_base_multiply(self, monkeypatch):
        calls = []

        def counting(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        counting(GroupElement, "mul")
        counting(privads.group, "msm")
        counting(privads.threshold, "msm")
        counting(privads.group, "_straus")
        counting(privads.group, "_mul_lanes")
        result = dkg_run(list(range(1, 25)), 11, Rng("op-counts/dkg"))
        assert len(result.shares) == 24
        assert calls == ["msm"]  # every sub-share, checked in one statement


class TestThresholdDecryption:
    @pytest.fixture
    def setup(self, rng):
        result = dkg_run([1, 2, 3], 2, rng)
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
            result = dkg_run(list(range(1, n + 1)), k, rng)
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
    result = dkg_run([1, 2, 3], 2, rng)
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
            dkg_run([1, 2, 3], 2, rng)
