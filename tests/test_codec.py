"""Wire codec: tagged-type roundtrips and canonical stability."""

import pytest

from privads.codec import canonical_json, decode_args, digest, encode_args, from_wire, to_wire
from privads.group import Ciphertext, encrypt, keygen, random_scalar, sign
from privads.payments import Commitment, TransferNote, commit
from privads.proofs import prove_decryption, vrf_eval
from privads.rng import Rng
from privads.group import decrypt


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
    sig = sign(kp.sk, b"m", rng)
    proof = prove_decryption(kp, ct, decrypt(kp.sk, ct), rng)
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
