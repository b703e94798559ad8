"""Canonical wire encoding for contract calls, state dumps and hashing.

Values are reduced to JSON with type-tagged leaves for bytes and the
crypto domain objects, serialized with sorted keys and no whitespace, so
every hash over encoded state is reproducible across runs and platforms.

The encoding is injective.  A tagged leaf is a one-key object whose key is
"!" plus a tag; a bytes dict key is written "0x" plus hex; a str dict key
that starts with "0x" or "!" is escaped with a leading "!!".  Decoding
rejects an unknown tag, an unescaped "!" key, or a tagged leaf of the
wrong shape or whose fields do not fit their dataclass annotations
(type_error, the predicate the scenario schema and the contract entry
points share) with ValueError, and decode_args also rejects any bytes
other than the canonical encoding of the value they decode to (hex case,
whitespace, key order, escapes, non-integer numbers, deep nesting).
"""

from __future__ import annotations

import functools
import json
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .group import Ciphertext, GroupElement, HybridCiphertext, Signature
from .payments import Commitment, TransferNote
from .proofs import DecryptionProof, VrfOutput
from .threshold import PartialDecryption

__all__ = ["to_wire", "from_wire", "encode_args", "decode_args", "canonical_json", "type_error"]


def type_error(value, hint, path: str) -> str | None:
    """Why `value` does not fit the annotation `hint`, or None if it fits.

    A value fits a class if it is an instance of it (a bool is not an
    int), a bytes subclass with a SIZE (ledger.Address) if it is bytes of
    exactly SIZE bytes, `list[X]` if it is a list whose items fit X, and
    `X | None` if it fits X or is None.
    """
    options = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    for option in options:
        kind = get_origin(option) or option
        if hasattr(kind, "SIZE") and issubclass(kind, bytes):
            if isinstance(value, bytes) and len(value) == kind.SIZE:
                return None
            if isinstance(value, bytes):
                return f"{path}: expected {kind.SIZE} bytes, got {len(value)}"
            continue
        if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
            if kind is list and get_args(option):
                for i, item in enumerate(value):
                    error = type_error(item, get_args(option)[0], f"{path}[{i}]")
                    if error:
                        return error
            return None
    expected = " or ".join("None" if o is type(None) else (get_origin(o) or o).__name__ for o in options)
    return f"{path}: expected {expected}, got {type(value).__name__}"


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


@functools.cache
def _field_hints(cls) -> dict:
    return get_type_hints(cls)


def _typed(leaf):
    """`leaf`, decoded from a list of fields, if each field fits its
    dataclass annotation; ValueError otherwise."""
    for name, hint in _field_hints(type(leaf)).items():
        error = type_error(getattr(leaf, name), hint, f"{type(leaf).__name__}.{name}")
        if error:
            raise ValueError(error)
    return leaf


_TAGS = {
    "!b": bytes.fromhex,
    "!pt": _point,
    "!ct": lambda v: Ciphertext.decode(bytes.fromhex(v)),
    "!sig": lambda v: _typed(Signature(v[0], v[1])),
    "!proof": lambda v: _typed(DecryptionProof(_point(v[0]), _point(v[1]), v[2], v[3])),
    "!vrf": lambda v: _typed(VrfOutput(v[0], from_wire(v[1]), from_wire(v[2]))),
    "!hc": lambda v: HybridCiphertext.decode(bytes.fromhex(v)),
    "!com": lambda v: Commitment(_point(v)),
    "!note": lambda v: TransferNote(bytes.fromhex(v[0]), bytes.fromhex(v[1]), Commitment(_point(v[2]))),
    "!part": lambda v: _typed(PartialDecryption(v[0], from_wire(v[1]), from_wire(v[2]))),
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
                try:
                    return decode(value)
                except (TypeError, LookupError) as exc:  # a leaf of the wrong shape
                    raise ValueError(f"malformed {key} leaf: {exc}") from None
        return {_key_from_wire(key): from_wire(value) for key, value in obj.items()}
    raise TypeError(f"cannot wire-decode {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(to_wire(obj), sort_keys=True, separators=(",", ":"))


def _no_float(text: str):
    raise ValueError(f"not an integer: {text}")


def encode_args(obj) -> bytes:
    return canonical_json(obj).encode()


def decode_args(data: bytes):
    """The value `data` encodes; ValueError unless `data` is its canonical
    encoding, so each argument value has exactly one byte form."""
    try:
        value = from_wire(json.loads(data.decode(), parse_float=_no_float, parse_constant=_no_float))
    except RecursionError:
        raise ValueError("argument nesting too deep") from None
    if encode_args(value) != data:
        raise ValueError("argument bytes are not in canonical form")
    return value
