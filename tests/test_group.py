"""Group layer: homomorphic encryption, recovery, signatures, hybrid enc.

Expected values for the encrypted paths come from plain integer arithmetic
(the plaintext oracle) or from direct scalar multiplication, never from the
code path under test.
"""

import pytest

from privads.group import (
    G,
    H,
    IDENTITY,
    ORDER,
    AuthenticationFailure,
    Ciphertext,
    GroupElement,
    IdentityPoint,
    NoSolutionInBound,
    PlaintextOutOfBound,
    add_ciphertexts,
    combine_ciphertexts,
    decrypt,
    dh_agree,
    encrypt,
    encrypt_vector,
    hybrid_decrypt,
    hybrid_encrypt,
    keygen,
    msm,
    random_scalar,
    recover_plaintext,
    scalar_mul_ciphertext,
    sign,
    sym_decrypt,
    sym_encrypt,
    verify_sig,
)
from privads.group import _P, _batch_affine, _jac_add, _jac_double, _jac_to_affine, _window_table
from privads.rng import Rng


@pytest.fixture
def rng():
    return Rng("group-tests")


@pytest.fixture
def kp():
    return keygen(b"test-keypair")


class TestGroupElement:
    def test_generator_order(self):
        assert G.mul(ORDER).is_identity
        assert G.mul(ORDER + 5) == G.mul(5)

    def test_add_neg_roundtrip(self, rng):
        P = G.mul(random_scalar(rng))
        assert (P - P).is_identity
        assert P + IDENTITY == P
        assert IDENTITY + P == P

    def test_associativity_sample(self, rng):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert G.mul(a) + (G.mul(b) + G.mul(c)) == (G.mul(a) + G.mul(b)) + G.mul(c)

    def test_mul_distributes(self, rng):
        a, b = random_scalar(rng), random_scalar(rng)
        assert G.mul(a) + G.mul(b) == G.mul((a + b) % ORDER)

    def test_encode_decode(self, rng):
        P = G.mul(random_scalar(rng))
        assert GroupElement.decode(P.encode()) == P
        assert GroupElement.decode(IDENTITY.encode()).is_identity
        assert len(P.encode()) == 33

    @pytest.mark.parametrize("prefix", [0x00, 0x04, 0x05])
    def test_decode_rejects_other_prefixes(self, rng, prefix):
        P = G.mul(random_scalar(rng))
        with pytest.raises(ValueError):
            GroupElement.decode(bytes([prefix]) + P.encode()[1:])

    def test_decode_rejects_x_alias(self):
        # x = 1 is on the curve; 1 + p encodes the same x modulo p
        point = GroupElement.decode(b"\x02" + (1).to_bytes(32, "big"))
        assert point.x == 1
        with pytest.raises(ValueError):
            GroupElement.decode(b"\x02" + (1 + _P).to_bytes(32, "big"))

    def test_second_generator_independent(self):
        assert H != G
        assert not H.is_identity

    def test_windowed_matches_plain(self, rng):
        # G has a fixed-base table; an unregistered point does not.
        k = random_scalar(rng)
        Q = GroupElement(G.x, G.y)  # equal point, also table-backed
        assert G.mul(k) == Q.mul(k)
        R = G.mul(12345)
        assert R.mul(k) == G.mul(12345 * k % ORDER)


def _naive_window_table(B):
    """T[j][d] = d * 2**(4j) * B by repeated point addition, entry by entry."""
    cols = []
    col = B
    for _ in range(64):
        row, acc = [None], IDENTITY
        for _ in range(15):
            acc = acc + col
            row.append((acc.x, acc.y))
        cols.append(tuple(row))
        for _ in range(4):
            col = col + col
    return tuple(cols)


class TestFixedBaseTables:
    @pytest.mark.parametrize("which", ["G", "H", "k0", "k1", "k2"])
    def test_window_table_matches_naive(self, which):
        base = {"G": G, "H": H}.get(which) or G.mul(random_scalar(Rng(f"table-{which}")))
        assert _window_table.__wrapped__(base.x, base.y) == _naive_window_table(base)

    def test_batch_affine_matches_per_point(self):
        jac = [(G.x, G.y, 1)]
        for _ in range(6):
            jac.append(_jac_double(*jac[-1]))
        jac.append(_jac_add(*jac[2], *jac[4]))
        jac.insert(3, (0, 1, 0))  # the point at infinity
        assert _batch_affine(jac) == [_jac_to_affine(*j) for j in jac]
        assert _batch_affine(jac[-1:]) == [_jac_to_affine(*jac[-1])]
        assert _batch_affine([(0, 1, 0)]) == [None]
        assert _batch_affine([]) == []


def _msm_oracle(scalars, points):
    acc = IDENTITY
    for k, P in zip(scalars, points):
        acc = acc + P.mul(k)
    return acc


class TestMsm:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 16, 64, 300])
    def test_matches_per_term_sum(self, rng, n):
        points = [G.mul(random_scalar(rng)) for _ in range(n)]
        scalars = [rng.getrandbits(256) for _ in range(n)]
        for i in range(0, n, 5):  # zero scalars and scalars >= ORDER
            scalars[i] = 0 if i % 10 else ORDER + rng.getrandbits(64)
        for i in range(1, n, 7):  # identity points
            points[i] = IDENTITY
        for i in range(3, n, 4):  # repeated points, and P together with -P
            points[i] = points[i - 3] if i % 8 == 3 else -points[i - 3]
        assert msm(scalars, points) == _msm_oracle(scalars, points)

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_small_scalars(self, rng, n):
        points = [G.mul(random_scalar(rng)) for _ in range(n)]
        scalars = [rng.randrange(21) for _ in range(n)]
        assert msm(scalars, points) == _msm_oracle(scalars, points)

    def test_cancelling_terms_give_identity(self, rng):
        P = G.mul(random_scalar(rng))
        assert msm([5, 5], [P, -P]).is_identity
        assert msm([3, ORDER - 3], [P, P]).is_identity
        assert msm([1] * 20, [P] * 10 + [-P] * 10).is_identity

    def test_point_off_curve_rejected(self):
        with pytest.raises(ValueError):
            msm([2], [GroupElement(G.x, G.y + 1)])

    def test_combine_ciphertexts_matches_oracle(self, rng, kp):
        cts = encrypt_vector(kp.pk, [3, 0, 2, 7], rng)
        weights = [4, 20, 0, 12]
        combined = combine_ciphertexts(weights, cts)
        assert recover_plaintext(decrypt(kp.sk, combined), 1000) == 4 * 3 + 20 * 0 + 0 * 2 + 12 * 7
        with pytest.raises(ValueError):
            combine_ciphertexts([-1, 0, 0, 0], cts)


class TestKeygen:
    def test_deterministic(self):
        assert keygen(b"\x00\x01") == keygen(b"\x00\x01")

    def test_distinct_seeds(self):
        assert keygen(b"seed-a").sk != keygen(b"seed-b").sk

    def test_pk_matches_sk(self):
        kp = keygen(b"invariant")
        assert kp.pk == G.mul(kp.sk)

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            keygen(b"")


class TestEncryption:
    def test_zero_roundtrip(self, rng, kp):
        ct = encrypt(kp.pk, 0, random_scalar(rng))
        assert recover_plaintext(decrypt(kp.sk, ct), 10) == 0

    def test_roundtrip_seven(self, rng, kp):
        ct = encrypt(kp.pk, 7, random_scalar(rng))
        assert recover_plaintext(decrypt(kp.sk, ct), 100) == 7

    def test_homomorphic_add_oracle(self, rng, kp):
        # Oracle: plain integer addition of the two messages.
        m1, m2 = 4, 20
        expected = m1 + m2
        ct = add_ciphertexts(
            encrypt(kp.pk, m1, random_scalar(rng)),
            encrypt(kp.pk, m2, random_scalar(rng)),
        )
        assert recover_plaintext(decrypt(kp.sk, ct), 100) == expected

    def test_decrypt_returns_exponent(self, rng, kp):
        ct = encrypt(kp.pk, 12, random_scalar(rng))
        assert decrypt(kp.sk, ct) == G.mul(12)

    def test_decrypt_zero_is_identity(self, rng, kp):
        ct = encrypt(kp.pk, 0, random_scalar(rng))
        assert decrypt(kp.sk, ct).is_identity

    def test_wrong_key_unrecoverable(self, rng, kp):
        other = keygen(b"other")
        ct = encrypt(kp.pk, 3, random_scalar(rng))
        point = decrypt(other.sk, ct)
        assert point != G.mul(3)
        with pytest.raises(NoSolutionInBound):
            recover_plaintext(point, 2**10)

    def test_out_of_bound_rejected(self, rng, kp):
        with pytest.raises(PlaintextOutOfBound):
            encrypt(kp.pk, 2**32, random_scalar(rng))

    def test_add_identity_ciphertext(self, rng, kp):
        ct = encrypt(kp.pk, 9, random_scalar(rng))
        zero = encrypt(kp.pk, 0, random_scalar(rng))
        combined = add_ciphertexts(ct, zero)
        assert recover_plaintext(decrypt(kp.sk, combined), 100) == 9

    def test_add_commutes(self, rng, kp):
        a = encrypt(kp.pk, 4, random_scalar(rng))
        b = encrypt(kp.pk, 20, random_scalar(rng))
        assert add_ciphertexts(a, b) == add_ciphertexts(b, a)

    def test_scalar_mul_oracle(self, rng, kp):
        # Oracle: plain integer product k*m.
        ct = encrypt(kp.pk, 4, random_scalar(rng))
        tripled = scalar_mul_ciphertext(3, ct)
        assert recover_plaintext(decrypt(kp.sk, tripled), 100) == 3 * 4

    def test_scalar_mul_zero_and_one(self, rng, kp):
        ct = encrypt(kp.pk, 5, random_scalar(rng))
        assert recover_plaintext(decrypt(kp.sk, scalar_mul_ciphertext(0, ct)), 10) == 0
        assert scalar_mul_ciphertext(1, ct) == ct

    def test_dot_product_law(self, rng, kp):
        # Matches the aggregate formula: sum_i p_i * Enc(x_i).
        policies = [4, 20, 12]
        vector = [3, 0, 2]
        expected = sum(p * x for p, x in zip(policies, vector))
        cts = encrypt_vector(kp.pk, vector, rng)
        agg = Ciphertext(IDENTITY, IDENTITY)
        for p, ct in zip(policies, cts):
            agg = add_ciphertexts(agg, scalar_mul_ciphertext(p, ct))
        assert recover_plaintext(decrypt(kp.sk, agg), 1000) == expected

    def test_homomorphism_random_sample(self, rng, kp):
        for _ in range(25):
            m1 = rng.randrange(2**12)
            m2 = rng.randrange(2**12)
            ct = add_ciphertexts(
                encrypt(kp.pk, m1, random_scalar(rng)),
                encrypt(kp.pk, m2, random_scalar(rng)),
            )
            assert recover_plaintext(decrypt(kp.sk, ct), 2**13) == m1 + m2


class TestRecovery:
    def test_identity_is_zero(self):
        assert recover_plaintext(IDENTITY, 10) == 0

    def test_scalar_multiply_oracle(self):
        # Oracle: the point is constructed directly as 36*G.
        assert recover_plaintext(G.mul(36), 2**20) == 36

    def test_out_of_bound_raises(self):
        bound = 50
        with pytest.raises(NoSolutionInBound):
            recover_plaintext(G.mul(bound + 1), bound)

    def test_boundary_value(self):
        assert recover_plaintext(G.mul(49), 50) == 49

    def test_agrees_with_linear_scan(self):
        # Independent oracle: the point walks up by one generator per step,
        # so recovery must name every exponent below 2^12 in turn.
        acc = IDENTITY
        for m in range(2**12):
            assert recover_plaintext(acc, 2**12) == m
            acc = acc + G


class TestSignatures:
    def test_roundtrip(self, rng, kp):
        sig = sign(kp.sk, b"settlement request", rng)
        assert verify_sig(kp.pk, b"settlement request", sig)

    def test_bit_flip_rejected(self, rng, kp):
        sig = sign(kp.sk, b"settlement request", rng)
        assert not verify_sig(kp.pk, b"settlement sequest", sig)

    def test_wrong_pk_rejected(self, rng, kp):
        sig = sign(kp.sk, b"msg", rng)
        assert not verify_sig(keygen(b"imposter").pk, b"msg", sig)

    def test_domain_separation(self, rng, kp):
        sig = sign(kp.sk, b"msg", rng, tag=b"sig/aggregate")
        assert not verify_sig(kp.pk, b"msg", sig, tag=b"sig/default")
        assert verify_sig(kp.pk, b"msg", sig, tag=b"sig/aggregate")

    def test_random_signatures_reject(self, rng, kp):
        from privads.group import Signature

        for _ in range(50):
            fake = Signature(random_scalar(rng), random_scalar(rng))
            assert not verify_sig(kp.pk, b"msg", fake)


class TestHybrid:
    def test_roundtrip(self, rng, kp):
        blob = bytes(range(32))
        hc = hybrid_encrypt(kp.pk, blob, rng)
        assert hybrid_decrypt(kp.sk, hc) == blob

    def test_payload_tamper(self, rng, kp):
        hc = hybrid_encrypt(kp.pk, b"policy-keys", rng)
        bad = type(hc)(hc.wrapped_key, hc.payload[:-1] + bytes([hc.payload[-1] ^ 1]))
        with pytest.raises(AuthenticationFailure):
            hybrid_decrypt(kp.sk, bad)

    def test_wrong_key(self, rng, kp):
        hc = hybrid_encrypt(kp.pk, b"policy-keys", rng)
        with pytest.raises(AuthenticationFailure):
            hybrid_decrypt(keygen(b"not-me").sk, hc)

    def test_empty_payload_rejected(self, rng, kp):
        with pytest.raises(ValueError):
            hybrid_encrypt(kp.pk, b"", rng)

    def test_sym_roundtrip_and_tamper(self, rng):
        key = rng.take_bytes(32)
        blob = sym_encrypt(key, b"42", rng)
        assert sym_decrypt(key, blob) == b"42"
        with pytest.raises(AuthenticationFailure):
            sym_decrypt(key, blob[:-1] + bytes([blob[-1] ^ 1]))


class TestDiffieHellman:
    def test_symmetry(self, rng):
        for i in range(5):
            a = keygen(b"a%d" % i)
            b = keygen(b"b%d" % i)
            assert dh_agree(a.sk, b.pk) == dh_agree(b.sk, a.pk)

    def test_distinct_peers(self):
        a, b, c = keygen(b"a"), keygen(b"b"), keygen(b"c")
        assert dh_agree(a.sk, b.pk) != dh_agree(a.sk, c.pk)

    def test_identity_peer_rejected(self, kp):
        with pytest.raises(IdentityPoint):
            dh_agree(kp.sk, IDENTITY)
