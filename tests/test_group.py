"""Group layer: homomorphic encryption, recovery, signatures, hybrid enc.

Expected values for the encrypted paths come from plain integer arithmetic
(the plaintext oracle) or from direct scalar multiplication, never from the
code path under test.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from privads import group
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
    combine_ciphertexts,
    decrypt,
    dh_agree,
    encrypt,
    encrypt_vector,
    hybrid_decrypt,
    hybrid_encrypt,
    keygen,
    msm,
    mul_batch,
    precompute_base,
    random_scalar,
    recover_plaintext,
    sign,
    sum_batch,
    sym_decrypt,
    sym_encrypt,
    verify_sig,
)
from privads.group import (
    _P,
    _batch_affine,
    _jac_add,
    _jac_double,
    _jac_to_affine,
    _straus,
    _sum_lanes,
    _window_points,
    _window_table,
)
from privads.rng import Rng

from conftest import add_ciphertexts, scalar_mul_ciphertext


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

    @settings(max_examples=300, deadline=None)
    @given(prefix=st.sampled_from([2, 3]), x=st.integers(0, 2**256 - 1))
    @example(prefix=2, x=0)
    @example(prefix=3, x=1)
    @example(prefix=2, x=_P - 1)
    @example(prefix=3, x=_P)
    @example(prefix=2, x=2**256 - 1)
    @example(prefix=3, x=G.x)
    def test_decode_matches_reference_rule(self, prefix, x):
        data = bytes([prefix]) + x.to_bytes(32, "big")
        assert _outcome(GroupElement.decode, data) == _outcome(_decode_reference, data)

    def test_hash_to_point_matches_reference_rule(self):
        # some of these tags need more than one counter value
        for i in range(12):
            tag = f"reference/{i}".encode()
            assert group.hash_to_point(tag, b"part") == _hash_to_point_reference(tag, b"part")

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


def _sqrt_reference(x):
    """y with y*y == x**3 + 7 (mod p), or None: p = 3 (mod 4), so the
    candidate root is a single power."""
    y2 = (pow(x, 3, _P) + 7) % _P
    y = pow(y2, (_P + 1) // 4, _P)
    return y if y * y % _P == y2 else None


def _decode_reference(data):
    """The pure-Python decoding rule, kept as the oracle for the OpenSSL
    square root."""
    if len(data) != 33:
        raise ValueError("point encoding must be 33 bytes")
    if data == b"\x00" * 33:
        return IDENTITY
    if data[0] not in (2, 3):
        raise ValueError("point prefix must be 0x02 or 0x03")
    x = int.from_bytes(data[1:], "big")
    if x >= _P:
        raise ValueError("x coordinate not below the field prime")
    y = _sqrt_reference(x)
    if y is None:
        raise ValueError("x coordinate not on curve")
    return GroupElement(x, _P - y if (y & 1) != (data[0] == 3) else y)


def _hash_to_point_reference(tag, *parts):
    ctr = 0
    while True:
        digest = group._tagged(tag, parts)
        digest.update(ctr.to_bytes(4, "big"))
        x = int.from_bytes(digest.digest(), "big") % _P
        y = _sqrt_reference(x)
        if y is not None:
            return GroupElement(x, _P - y if y & 1 else y)
        ctr += 1


def _outcome(fn, data):
    try:
        return fn(data)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _naive_window_table(B):
    """T[j][d] = d * 2**(6j) * B, d = 1..32, for 43 columns, by repeated
    point addition, entry by entry."""
    cols = []
    col = B
    for _ in range(43):
        row, acc = [None], IDENTITY
        for _ in range(32):
            acc = acc + col
            row.append((acc.x, acc.y))
        cols.append(tuple(row))
        for _ in range(6):
            col = col + col
    return tuple(cols)


# Every 6-bit digit of this scalar is 33, just above the signed range: each
# becomes -31 or -30 with a carry, and the last carry lands in column 42.
_ALL_DIGITS_33 = sum(33 << (6 * j) for j in range(42))


@pytest.fixture
def registered(monkeypatch):
    """G, H and a random key, each multiplied through a long-lived table
    (the random key is registered in a copy of the table map)."""
    monkeypatch.setattr(group, "_table_bases", set(group._table_bases))
    P = G.mul(random_scalar(Rng("table-registered")))
    precompute_base(P)
    return [G, H, P]


class TestFixedBaseTables:
    @pytest.mark.parametrize("which", ["G", "H", "k0", "k1", "k2"])
    def test_window_table_matches_naive(self, which):
        base = {"G": G, "H": H}.get(which) or G.mul(random_scalar(Rng(f"table-{which}")))
        assert _window_table.__wrapped__(base.x, base.y) == _naive_window_table(base)

    @pytest.mark.parametrize("k", [1, 31, 32, 33, 63, 64, ORDER - 1, _ALL_DIGITS_33])
    def test_windowed_matches_variable_base_at_digit_edges(self, registered, k):
        for B in registered:
            table = _window_table(B.x, B.y)
            expected = _jac_to_affine(*_straus([(k, B.x, B.y)]))
            assert msm([k], [B]) == GroupElement(*expected)
            assert _sum_lanes([_window_points(k, table, [])]) == [expected]

    def test_windowed_matches_variable_base_random(self, registered):
        rng = Rng("windowed-random")
        for B in registered:
            for _ in range(200):
                k = random_scalar(rng)
                assert B.mul(k) == GroupElement(*_jac_to_affine(*_straus([(k, B.x, B.y)])))

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


def _lane_oracle(lane):
    acc = (0, 1, 0)
    for x, y in lane:
        acc = _jac_add(*acc, x, y, 1)
    return _jac_to_affine(*acc)


class TestLanes:
    def test_sums_match_per_lane_jacobian_sums(self, rng):
        pts = [G.mul(random_scalar(rng)) for _ in range(6)]
        P, Q = (pts[0].x, pts[0].y), (pts[1].x, pts[1].y)
        neg_p = (P[0], _P - P[1])
        lanes = [
            [],
            [Q],
            [(p.x, p.y) for p in pts],
            [(p.x, p.y) for p in pts[2:4]],
            [P, P],  # P + P: a doubling
            [P, neg_p],  # P + (-P): the identity
            [P, neg_p, Q],  # the identity, then Q
            [Q, P, neg_p, Q],  # back to Q, then Q + Q
        ]
        assert _sum_lanes(lanes) == [_lane_oracle(lane) for lane in lanes]
        assert _sum_lanes([]) == []

    def test_running_sum_meeting_its_own_point(self, rng):
        P = G.mul(random_scalar(rng))
        Q = G.mul(random_scalar(rng))
        S = P + Q
        double = [(P.x, P.y), (Q.x, Q.y), (S.x, S.y)]  # (P + Q) + (P + Q)
        cancel = [(P.x, P.y), (Q.x, Q.y), (S.x, _P - S.y)]  # (P + Q) - (P + Q)
        assert _sum_lanes([double, cancel]) == [_lane_oracle(double), None]
        assert GroupElement(*_sum_lanes([double])[0]) == S + S


_LANE_GROUP = group._LANE_GROUP
_EDGE_SCALARS = [0, 1, 2, ORDER - 1, ORDER, ORDER + 1, 2**256 - 1]


def _around_lane_group(n):
    """n scalars with the edge values on both sides of each lane-group
    boundary."""
    ks = [(i * 0x9E3779B97F4A7C15) ** 4 % ORDER for i in range(n)]
    for i, k in enumerate(_EDGE_SCALARS):
        ks[(_LANE_GROUP - 4 + i) % n] = k
    return ks


class TestMulGenBatch:
    """mul_batch over G: every product is a lane of G's window table."""

    @settings(max_examples=30, deadline=None)
    @given(
        ks=st.lists(st.one_of(st.sampled_from(_EDGE_SCALARS), st.integers(-(2**300), 2**300)), max_size=10),
        mirror=st.booleans(),
        repeat=st.booleans(),
    )
    @example(ks=[], mirror=False, repeat=False)
    @example(ks=[5, 5, ORDER - 5, 0, -5, 2**300], mirror=False, repeat=False)
    @example(ks=_around_lane_group(_LANE_GROUP - 1), mirror=False, repeat=False)
    @example(ks=_around_lane_group(_LANE_GROUP), mirror=False, repeat=False)
    @example(ks=_around_lane_group(_LANE_GROUP + 1), mirror=False, repeat=False)
    def test_matches_per_scalar_mul(self, ks, mirror, repeat):
        if mirror:  # k together with ORDER - k
            ks = ks + [ORDER - k % ORDER for k in ks]
        if repeat:
            ks = ks + ks[:3]
        assert mul_batch(ks, [G] * len(ks)) == [G.mul(k) for k in ks]

    def test_sums_one_lane_group_at_a_time(self, monkeypatch):
        calls = _counting(monkeypatch, "_sum_lanes", _sum_lanes)
        single = _counting(monkeypatch, "msm", msm)
        ks = list(range(1, 2 * _LANE_GROUP + 2))
        mul_batch(ks, [G] * len(ks))
        # the trailing one-lane group is below _SUM_LANES_MIN: multiplied alone
        assert [len(args[0]) for args in calls] == [_LANE_GROUP, _LANE_GROUP]
        assert [args[0] for args in single] == [(2 * _LANE_GROUP + 1,)]


def _double_and_add(k, P):
    """k * P by plain double-and-add over the bits of k mod ORDER, one
    affine point addition at a time: the oracle of the GLV/wNAF paths."""
    acc = IDENTITY
    for bit in bin(k % ORDER)[2:]:
        acc = acc + acc
        if bit == "1":
            acc = acc + P
    return acc


def _glv_sign_examples() -> list:
    """One scalar for each sign pattern (k1 < 0, k2 < 0) of its GLV split."""
    found = {}
    i = 1
    while len(found) < 4:
        k = (i * 0x9E3779B97F4A7C15) ** 3 % ORDER
        k1, k2 = group._glv_split(k)
        found.setdefault((k1 < 0, k2 < 0), k)
        i += 1
    return [found[signs] for signs in sorted(found)]


_GLV_SIGNS = _glv_sign_examples()
_MUL_LANES_MIN = group._MUL_LANES_MIN


class TestVariableBase:
    @pytest.mark.parametrize(
        "k", [k % ORDER for k in _EDGE_SCALARS + _GLV_SIGNS + [2**128 - 1, 2**128, _ALL_DIGITS_33] if k % ORDER]
    )
    def test_mul_var_matches_double_and_add(self, k):
        P = G.mul(0x5EED)
        assert GroupElement(*_jac_to_affine(*_straus([(k, P.x, P.y)]))) == _double_and_add(k, P)

    def test_naf_digits_recode_the_scalar(self):
        for k in [1, 7, 8, 15, 16, 2**128 - 1, *_GLV_SIGNS]:
            digits = group._naf_digits(k)
            assert sum(d << position for position, d in digits) == k
            assert all(d % 2 and -7 <= d <= 7 for _, d in digits)
            assert all(b - a >= 4 for (a, _), (b, _) in zip(digits, digits[1:]))


def _scalar_list(ks, pad):
    """ks, then `pad` more scalars, so a list can reach the lane path."""
    return ks + [(i * 0x9E3779B97F4A7C15) ** 5 % ORDER for i in range(1, pad + 1)]


class TestMulBatch:
    @settings(max_examples=20, deadline=None)
    @given(
        ks=st.lists(st.one_of(st.sampled_from(_EDGE_SCALARS + _GLV_SIGNS), st.integers(-(2**300), 2**300)), max_size=12),
        pad=st.sampled_from([0, _MUL_LANES_MIN]),
        bases=st.lists(st.integers(1, ORDER - 1), min_size=1, max_size=3),
        twist=st.sampled_from(["none", "negate", "identity"]),
    )
    @example(ks=[], pad=0, bases=[1], twist="none")
    @example(ks=_around_lane_group(_LANE_GROUP + 1), pad=0, bases=[3, 5], twist="negate")
    @example(ks=_scalar_list(_GLV_SIGNS, _MUL_LANES_MIN - 5), pad=0, bases=[7], twist="none")
    @example(ks=_scalar_list(_GLV_SIGNS, _MUL_LANES_MIN - 4), pad=0, bases=[7], twist="identity")
    def test_matches_per_point_mul(self, ks, pad, bases, twist):
        """Repeated points (a few bases cycled), negated ones and the
        identity, with scalars 0, 1, ORDER - 1, above ORDER and negative."""
        ks = _scalar_list(ks, pad)
        points = [G.mul(bases[i % len(bases)]) for i in range(len(ks))]
        if twist == "negate":
            points[1::2] = [-P for P in points[1::2]]
        if twist == "identity":
            points[::3] = [IDENTITY] * len(points[::3])
        assert group.mul_batch(ks, points) == [P.mul(k) for k, P in zip(ks, points)]

    def test_lanes_match_double_and_add(self):
        ks = _scalar_list(_GLV_SIGNS + [1, ORDER - 1, 2**128], _MUL_LANES_MIN)
        P = G.mul(0xBA5E)
        expected = [_double_and_add(k, P) for k in ks]
        assert [GroupElement(*a) for a in group._mul_lanes([(k, P.x, P.y) for k in ks])] == expected

    def test_small_groups_multiply_one_at_a_time(self, monkeypatch):
        P = G.mul(0xBA5E)  # a base without a table
        lanes = _counting(monkeypatch, "_mul_lanes", group._mul_lanes)
        per_point = _counting(monkeypatch, "msm", msm)
        ks = _scalar_list([], _LANE_GROUP + 1)
        group.mul_batch(ks, [P] * len(ks))
        assert [len(args[0]) for args in lanes] == [_LANE_GROUP]
        assert len(per_point) == 1

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            group.mul_batch([1, 2], [G])


_VARIABLE = G.mul(0x5EED)  # a base without a table
_TABLE_BASES = [G, H]
_VARIABLE_BASES = [_VARIABLE, -_VARIABLE, G.mul(7)]
_PATH_SCALARS = st.one_of(
    st.sampled_from([0, 1, ORDER - 1, ORDER, ORDER + 1]),
    st.integers(-(2**300), -1),
    st.integers(ORDER + 1, 2**300),
    st.integers(0, 2**33 - 1),
    st.integers(0, ORDER - 1),
)
_SUM_LANES_MIN = group._SUM_LANES_MIN


class TestMultiplyPaths:
    """Every multiply path against double-and-add: P.mul and one-term msm
    on table and variable bases, and mul_batch on mixed bases at the batch
    sizes around each kind's lane minimum and lane group."""

    @settings(max_examples=60, deadline=None)
    @given(k=_PATH_SCALARS, base=st.sampled_from(_TABLE_BASES + _VARIABLE_BASES + [IDENTITY]))
    def test_product(self, k, base):
        expected = _double_and_add(k, base)
        assert base.mul(k) == expected
        assert msm([k], [base]) == expected

    @pytest.mark.parametrize(
        "n",
        [
            _SUM_LANES_MIN - 1,
            _SUM_LANES_MIN,
            _SUM_LANES_MIN + 1,
            _MUL_LANES_MIN - 1,
            _MUL_LANES_MIN,
            _MUL_LANES_MIN + 1,
            _LANE_GROUP + 1,
        ],
    )
    @pytest.mark.parametrize("bases", ["table", "variable", "mixed"])
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_batch(self, n, bases, data):
        bases = {"table": _TABLE_BASES, "variable": _VARIABLE_BASES}.get(bases, _TABLE_BASES + _VARIABLE_BASES)
        ks = data.draw(st.lists(_PATH_SCALARS, min_size=n, max_size=n), label="ks")
        points = [bases[i % len(bases)] for i in range(n)]
        assert mul_batch(ks, points) == [_double_and_add(k, P) for k, P in zip(ks, points)]

    def test_point_off_curve_rejected(self):
        bad = GroupElement(G.x, G.y + 1)
        with pytest.raises(ValueError):
            bad.mul(2)
        with pytest.raises(ValueError):
            mul_batch([2], [bad])


def _msm_oracle(scalars, points):
    acc = IDENTITY
    for k, P in zip(scalars, points):
        acc = acc + _double_and_add(k, P)
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

    def test_long_lived_bases_on_the_straus_path(self, rng):
        points = [G, H, G.mul(random_scalar(rng)), -G]
        for n in range(1, len(points) + 1):
            scalars = [random_scalar(rng) for _ in range(n)]
            assert msm(scalars, points[:n]) == _msm_oracle(scalars, points[:n])

    @pytest.mark.parametrize("wide", [False, True])
    def test_long_lived_bases_on_the_pippenger_path(self, monkeypatch, rng, wide):
        """Small scalars, or _PIPPENGER_MIN_TERMS other terms: G's and H's
        terms are their table entries, and the buckets hold only the others."""
        others = [G.mul(random_scalar(rng)) for _ in range(group._PIPPENGER_MIN_TERMS if wide else 3)]
        points = [G, H, *others]
        scalars = [random_scalar(rng) if wide else rng.randrange(1, 21) for _ in points]
        buckets = _counting(monkeypatch, "_pippenger", group._pippenger)
        assert msm(scalars, points) == _msm_oracle(scalars, points)
        assert [sorted(x for _, x, _ in args[0]) for args in buckets] == [sorted(P.x for P in others)]

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


_LANE_BITS = group._LANE_BUCKET_MIN_BITS
_PIPPENGER_TERMS = group._PIPPENGER_MIN_TERMS
_BUCKET_POINTS = [G.mul(0xB0C4), G.mul(0xE7), H]


class TestPippenger:
    """Pippenger's buckets against double-and-add: Jacobian buckets below
    _LANE_BUCKET_MIN_BITS, lane buckets from it on."""

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        bits=st.sampled_from([1, 5, _LANE_BITS - 1, _LANE_BITS, _LANE_BITS + 1, 128, 256]),
        n=st.integers(1, 24),
    )
    @example(data=None, bits=_LANE_BITS, n=0)
    def test_buckets_match_double_and_add(self, data, bits, n):
        """Bases repeat and come negated, so one bucket holds P twice (its
        lane doubles) or P and -P (its sum reaches the identity)."""
        bases = _BUCKET_POINTS + [-P for P in _BUCKET_POINTS]
        terms = [
            (data.draw(st.integers(1, 2**bits - 1), label="k"), data.draw(st.sampled_from(bases), label="P"))
            for _ in range(n)
        ]
        if terms:  # the widest scalar has `bits` bits
            terms[0] = (terms[0][0] | 1 << (bits - 1), terms[0][1])
        acc = group._pippenger([(k, P.x, P.y) for k, P in terms])
        assert group._from_jac(acc) == _msm_oracle([k for k, _ in terms], [P for _, P in terms])

    @pytest.mark.parametrize("bits", [5, _LANE_BITS, 256])
    def test_every_bucket_reaching_the_identity(self, bits):
        """k on P next to k on -P puts every digit's P and -P in one bucket,
        and each of those sums is the identity; 3 on P twice puts P twice
        in one bucket, whose sum doubles."""
        P = _BUCKET_POINTS[0]
        k = (1 << (bits - 1)) | 0x5A5A5A5A5 % (1 << bits)
        terms = [(k, P.x, P.y), (k, P.x, _P - P.y), (3, P.x, P.y), (3, P.x, P.y)]
        assert group._from_jac(group._pippenger(terms)) == P.mul(6)

    @pytest.mark.parametrize("n", [_PIPPENGER_TERMS - 1, _PIPPENGER_TERMS, _PIPPENGER_TERMS + 1])
    @pytest.mark.parametrize("bits", [_LANE_BITS - 1, _LANE_BITS, 256])
    def test_msm_at_the_path_rules(self, rng, monkeypatch, n, bits):
        """Term counts around _PIPPENGER_MIN_TERMS and widths around
        _LANE_BUCKET_MIN_BITS: the sum matches double-and-add whichever
        path msm takes, and Pippenger's buckets are lanes exactly when some
        scalar has _LANE_BUCKET_MIN_BITS bits."""
        points = [G.mul(random_scalar(rng)) for _ in range(n)]
        scalars = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(n)]
        buckets = _counting(monkeypatch, "_pippenger", group._pippenger)
        lanes = _counting(monkeypatch, "_sum_lanes", _sum_lanes)
        assert msm(scalars, points) == _msm_oracle(scalars, points)
        assert len(buckets) == (n >= _PIPPENGER_TERMS or bits < group._STRAUS_MIN_BITS)
        assert len(lanes) == (len(buckets) == 1 and bits >= _LANE_BITS)

    def test_top_window_is_not_a_pile_of_carries(self, rng, monkeypatch):
        """128 terms of 255 bits take c = 5.  A top window holding only the
        carries out of the window below put about half the points in its
        one bucket, and the lane sum then ran that bucket's depth in rounds
        of one lane each: 122 rounds for these terms.  With the top digit
        unsigned, no bucket stands out."""
        points = [G.mul(random_scalar(rng)) for _ in range(128)]
        scalars = [rng.getrandbits(255) | 1 << 254 for _ in range(128)]
        rounds = _counting(monkeypatch, "_add_round", group._add_round)
        assert msm(scalars, points) == _msm_oracle(scalars, points)
        assert len(rounds) <= 24
        assert sum(len(adds) == 1 for _, _, adds in rounds) <= 2


class TestSumBatch:
    """sum_batch against one msm of all-one weights per list."""

    @settings(max_examples=20, deadline=None)
    @given(
        lists=st.lists(
            st.lists(st.sampled_from(_BUCKET_POINTS + [-P for P in _BUCKET_POINTS] + [IDENTITY, G]), max_size=9),
            max_size=6,
        )
    )
    @example(lists=[])
    @example(lists=[[], [IDENTITY], [G, -G], [G, G], [G, H, -G, -H, G]])
    def test_matches_per_list_msm(self, lists):
        assert sum_batch(lists) == [msm([1] * len(points), points) for points in lists]

    def test_columns_of_ciphertexts(self, rng, kp):
        vectors = [encrypt_vector(kp.pk, [i, 2 * i, 0], rng) for i in range(5)]
        vectors.append([Ciphertext(-a.c1, -a.c2) for a in vectors[0]])  # cancels the first vector
        columns = list(zip(*vectors))
        sums = sum_batch([[ct.c1 for ct in column] for column in columns])
        assert sums == [msm([1] * len(column), [ct.c1 for ct in column]) for column in columns]
        assert sum_batch([[vectors[0][0].c1, vectors[-1][0].c1]]) == [IDENTITY]

    def test_point_off_curve_rejected(self):
        with pytest.raises(ValueError):
            sum_batch([[G], [GroupElement(G.x, G.y + 1)]])


class TestKeygen:
    def test_batch_matches_one_at_a_time(self):
        seeds = [b"k%d" % i for i in range(20)]
        assert group.keygen_batch(seeds) == [keygen(seed) for seed in seeds]
        with pytest.raises(ValueError):
            group.keygen_batch([b"ok", b""])

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

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_vector_as_key_holder_matches_public_key(self, kp, n):
        values = Rng(f"vec-{n}")
        msgs = [values.randrange(1, 10) if i % 3 else 0 for i in range(n)]
        seed = f"encrypt-vector-{n}"
        as_holder = encrypt_vector(kp, msgs, Rng(seed))
        assert as_holder == encrypt_vector(kp.pk, msgs, Rng(seed))
        r_rng = Rng(seed)
        assert as_holder == [encrypt(kp.pk, m, random_scalar(r_rng)) for m in msgs]

    def test_vector_under_long_lived_key_matches_per_entry(self, registered):
        P = registered[2]
        values = Rng("encrypt-vector-registered-values")
        vectors = [[0, 5, 0, 2**31]]
        vectors += [[values.randrange(2**32) if i % 3 else 0 for i in range(n)] for n in (1, 8, 64)]
        for msgs in vectors:
            r_rng = Rng("encrypt-vector-registered")
            expected = [encrypt(P, m, random_scalar(r_rng)) for m in msgs]
            assert encrypt_vector(P, msgs, Rng("encrypt-vector-registered")) == expected

    @pytest.mark.parametrize("bad", [2**32, -1])
    def test_vector_out_of_bound_rejected(self, rng, kp, bad):
        for key in (kp, kp.pk):
            with pytest.raises(PlaintextOutOfBound):
                encrypt_vector(key, [1, bad], rng)

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


def _counting(monkeypatch, name, original):
    """Replace group.<name> with a wrapper that records each call's args."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(group, name, counted, raising=False)
    return calls


class TestOpCounts:
    @pytest.mark.parametrize("n", [8, 64])
    def test_vector_as_key_holder_adds_affine_with_one_inversion_per_step(self, monkeypatch, kp, n):
        group._base_table(G.x, G.y)  # G's table is built before counting
        mixed = _counting(monkeypatch, "_jac_add_affine", group._jac_add_affine)
        powers = _counting(monkeypatch, "pow", pow)
        cts = encrypt_vector(kp, [i % 5 for i in range(n)], Rng(f"op-counts-{n}"))
        assert len(cts) == n
        assert mixed == []
        assert all(args[1:] == (-1, _P) for args in powers)
        assert 0 < len(powers) <= 44

    def test_decode_takes_no_python_power(self, monkeypatch, rng):
        encodings = [G.mul(random_scalar(rng)).encode() for _ in range(8)]
        powers = _counting(monkeypatch, "pow", pow)
        for data in encodings:
            assert GroupElement.decode(data).encode() == data
        assert powers == []


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
        sig = sign(kp, b"settlement request", rng, tag=b"sig/test")
        assert verify_sig(kp.pk, b"settlement request", sig, tag=b"sig/test")

    def test_bit_flip_rejected(self, rng, kp):
        sig = sign(kp, b"settlement request", rng, tag=b"sig/test")
        assert not verify_sig(kp.pk, b"settlement sequest", sig, tag=b"sig/test")

    def test_wrong_pk_rejected(self, rng, kp):
        sig = sign(kp, b"msg", rng, tag=b"sig/test")
        assert not verify_sig(keygen(b"imposter").pk, b"msg", sig, tag=b"sig/test")

    def test_domain_separation(self, rng, kp):
        sig = sign(kp, b"msg", rng, tag=b"sig/aggregate")
        assert not verify_sig(kp.pk, b"msg", sig, tag=b"sig/test")
        assert verify_sig(kp.pk, b"msg", sig, tag=b"sig/aggregate")

    def test_random_signatures_reject(self, rng, kp):
        from privads.group import Signature

        for _ in range(50):
            fake = Signature(random_scalar(rng), random_scalar(rng))
            assert not verify_sig(kp.pk, b"msg", fake, tag=b"sig/test")


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
