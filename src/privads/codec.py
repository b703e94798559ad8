"""Canonical wire encoding for contract calls, state dumps and hashing.

Values are reduced to JSON with type-tagged leaves for bytes and the
crypto domain objects, serialized with sorted keys and no whitespace, so
every hash over encoded state is reproducible across runs and platforms.

The encoding is injective.  A tagged leaf is a one-key object whose key is
"!" plus a tag; a bytes dict key is written "0x" plus hex; a str dict key
that starts with "0x" or "!" is escaped with a leading "!!".  Decoding
rejects an unknown tag or an unescaped "!" key with ValueError, and
decode_args also rejects any bytes other than the canonical encoding of
the value they decode to (hex case, whitespace, key order, escapes).
"""

from __future__ import annotations

import hashlib
import json

from .group import Ciphertext, GroupElement, HybridCiphertext, Signature
from .payments import Commitment, TransferNote
from .proofs import DecryptionProof, VrfOutput
from .threshold import PartialDecryption

__all__ = ["to_wire", "from_wire", "encode_args", "decode_args", "canonical_json", "digest"]

# Leaves written as the hex of their own encode(), looked up by exact type.
_HEX_LEAVES = {GroupElement: "!pt", Ciphertext: "!ct", HybridCiphertext: "!hc", Commitment: "!com"}


def to_wire(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, bytes):
        return {"!b": obj.hex()}
    tag = _HEX_LEAVES.get(type(obj))
    if tag is not None:
        return {tag: obj.encode().hex()}
    if isinstance(obj, Signature):
        return {"!sig": [obj.challenge, obj.response]}
    if isinstance(obj, DecryptionProof):
        return {
            "!proof": [
                obj.commit_a.encode().hex(),
                obj.commit_b.encode().hex(),
                obj.challenge,
                obj.response,
            ]
        }
    if isinstance(obj, VrfOutput):
        return {"!vrf": [obj.rand, to_wire(obj.gamma), to_wire(obj.proof)]}
    if isinstance(obj, TransferNote):
        return {"!note": [obj.tx_ref.hex(), obj.recipient.hex(), obj.commitment.encode().hex()]}
    if isinstance(obj, PartialDecryption):
        return {"!part": [obj.index, to_wire(obj.share_point), to_wire(obj.proof)]}
    if isinstance(obj, (list, tuple)):
        return [to_wire(v) for v in obj]
    if isinstance(obj, dict):
        return {_wire_key(k): to_wire(v) for k, v in obj.items()}
    raise TypeError(f"cannot wire-encode {type(obj).__name__}")


_ESCAPE = "!!"


def _wire_key(key) -> str:
    if isinstance(key, str):
        return _ESCAPE + key if key.startswith(("0x", "!")) else key
    if isinstance(key, bytes):
        return "0x" + key.hex()
    raise TypeError(f"cannot use {type(key).__name__} as wire key")


def _key_from_wire(key: str):
    if key.startswith(_ESCAPE):
        return key[len(_ESCAPE) :]
    if key.startswith("0x"):
        return bytes.fromhex(key[2:])
    if key.startswith("!"):
        raise ValueError(f"unescaped wire key {key!r}")
    return key


def _point(hex_str: str) -> GroupElement:
    return GroupElement.decode(bytes.fromhex(hex_str))


_TAGS = {
    "!b": bytes.fromhex,
    "!pt": _point,
    "!ct": lambda v: Ciphertext.decode(bytes.fromhex(v)),
    "!sig": lambda v: Signature(v[0], v[1]),
    "!proof": lambda v: DecryptionProof(_point(v[0]), _point(v[1]), v[2], v[3]),
    "!vrf": lambda v: VrfOutput(v[0], from_wire(v[1]), from_wire(v[2])),
    "!hc": lambda v: HybridCiphertext.decode(bytes.fromhex(v)),
    "!com": lambda v: Commitment(_point(v)),
    "!note": lambda v: TransferNote(bytes.fromhex(v[0]), bytes.fromhex(v[1]), Commitment(_point(v[2]))),
    "!part": lambda v: PartialDecryption(v[0], from_wire(v[1]), from_wire(v[2])),
}


def from_wire(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, list):
        return [from_wire(v) for v in obj]
    if isinstance(obj, dict):
        if len(obj) == 1:
            (key, value), = obj.items()
            if key.startswith("!") and not key.startswith(_ESCAPE):
                decode = _TAGS.get(key)
                if decode is None:
                    raise ValueError(f"unknown wire tag {key!r}")
                return decode(value)
        return {_key_from_wire(key): from_wire(value) for key, value in obj.items()}
    raise TypeError(f"cannot wire-decode {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(to_wire(obj), sort_keys=True, separators=(",", ":"))


def encode_args(obj) -> bytes:
    return canonical_json(obj).encode()


def decode_args(data: bytes):
    """The value `data` encodes; ValueError unless `data` is its canonical
    encoding, so each argument value has exactly one byte form."""
    value = from_wire(json.loads(data.decode()))
    if encode_args(value) != data:
        raise ValueError("argument bytes are not in canonical form")
    return value


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()
