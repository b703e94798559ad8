"""Wire codec: tagged-type roundtrips and canonical stability."""

import pytest
from hypothesis import example, given, strategies as st

from privads.codec import canonical_json, decode_args, digest, encode_args, from_wire, to_wire
from privads.group import Ciphertext, encrypt, keygen, random_scalar, sign
from privads.payments import Commitment, TransferNote, commit
from privads.proofs import prove_decryption, vrf_eval
from privads.rng import Rng


@pytest.fixture
def rng():
    return Rng("codec-tests")


def test_scalars_and_containers_roundtrip():
    obj = {"a": 1, "b": [True, None, "x"], "c": {"nested": 2}}
    assert decode_args(encode_args(obj)) == obj


def test_bytes_keys_and_values(rng):
    obj = {b"\x01\x02": b"\xff\x00", "plain": 3}
    again = decode_args(encode_args(obj))
    assert again[b"\x01\x02"] == b"\xff\x00" and again["plain"] == 3


def test_domain_types_roundtrip(rng):
    kp = keygen(b"codec")
    ct = encrypt(kp.pk, 9, random_scalar(rng))
    sig = sign(kp, b"m", rng)
    _, proof = prove_decryption(kp, ct, rng)
    out = vrf_eval(kp, b"seed", 100)
    note = TransferNote(b"r" * 16, b"a" * 20, commit(5, random_scalar(rng)))
    for obj in (kp.pk, ct, sig, proof, out, note, Commitment(kp.pk)):
        again = decode_args(encode_args({"v": obj}))["v"]
        assert again == obj, type(obj).__name__


def test_canonical_json_is_stable(rng):
    kp = keygen(b"codec2")
    obj = {"z": kp.pk, "a": [1, 2], "m": {"k": b"\x00"}}
    assert canonical_json(obj) == canonical_json(obj)
    assert digest(obj) == digest(obj)
    assert digest(obj) != digest({**obj, "a": [2, 1]})


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        to_wire(object())
    with pytest.raises(TypeError):
        from_wire(3.5j)


def test_unknown_tag_and_unescaped_key_rejected():
    with pytest.raises(ValueError):
        from_wire({"!zz": 1})
    with pytest.raises(ValueError):
        from_wire({"!b": "ab", "x": 1})


@pytest.mark.parametrize(
    "loose, canonical",
    [
        (b'{"v":{"!b":"AB"}}', b'{"v":{"!b":"ab"}}'),  # hex case of a bytes leaf
        (b'{"w":{"0xCD":1}}', b'{"w":{"0xcd":1}}'),  # hex case of a bytes key
        (b'{"a":1, "b":2}', b'{"a":1,"b":2}'),  # whitespace
        (b'{"b":2,"a":1}', b'{"a":1,"b":2}'),  # key order
        (b'{"!!k":1}', b'{"k":1}'),  # needless escape
    ],
)
def test_only_canonical_argument_bytes_decode(loose, canonical):
    with pytest.raises(ValueError):
        decode_args(loose)
    assert encode_args(decode_args(canonical)) == canonical


_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | st.binary(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text() | st.binary() | st.sampled_from(["0x", "0xab", "!", "!b", "!!b"]), children, max_size=4),
    max_leaves=12,
)


@given(_values)
@example({"0xab": 1})
@example({"!b": "ab"})
@example({"!!": {"!pt": b"\x00"}})
def test_roundtrip_any_value(value):
    assert decode_args(encode_args(value)) == value


@given(_values, _values)
@example({"0xab": 1}, {b"\xab": 1})
@example({"!b": "ab"}, b"\xab")
def test_distinct_values_encode_distinctly(a, b):
    if a != b:
        assert encode_args(a) != encode_args(b)
