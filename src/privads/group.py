"""Elliptic-curve group with additively homomorphic encryption.

The group is secp256k1 (prime order, ~128-bit security).  Messages are
encoded in the exponent: Enc(pk, m) = (r*G, m*G + r*pk), so adding two
ciphertexts adds their plaintexts and decryption yields m*G, from which the
integer m is recovered by a bounded baby-step/giant-step search.

Canonical byte encodings used everywhere (hashing, transcripts, state
dumps):
  * points: 33 bytes, SEC1 compressed (0x02/0x03 prefix + big-endian x);
    the identity element encodes as 33 zero bytes.
  * scalars: 32 bytes, little-endian.

No constant-time hardening; this is simulation-grade crypto, reproducible
from explicit seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

__all__ = [
    "ORDER",
    "Scalar",
    "GroupElement",
    "G",
    "H",
    "KeyPair",
    "Ciphertext",
    "Signature",
    "HybridCiphertext",
    "NoSolutionInBound",
    "AuthenticationFailure",
    "IdentityPoint",
    "PlaintextOutOfBound",
    "REWARD_BOUND",
    "ANALYTICS_BOUND",
    "hash_to_scalar",
    "hash_to_point",
    "keygen",
    "random_scalar",
    "encrypt",
    "decrypt",
    "recover_plaintext",
    "add_ciphertexts",
    "scalar_mul_ciphertext",
    "combine_ciphertexts",
    "msm",
    "encrypt_vector",
    "precompute_base",
    "sign",
    "verify_sig",
    "sym_encrypt",
    "sym_decrypt",
    "hybrid_encrypt",
    "hybrid_decrypt",
    "dh_agree",
]

# secp256k1 parameters
_P = 2**256 - 2**32 - 977
ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# Scalars are plain integers reduced modulo ORDER.
Scalar = int

# Default plaintext-recovery bounds: per-user rewards stay small, analytics
# totals may accumulate across many users.
REWARD_BOUND = 2**20
ANALYTICS_BOUND = 2**32

_DOMAIN = b"privads/v1/"


class NoSolutionInBound(Exception):
    """No integer m below the requested bound satisfies m*G == point."""


class AuthenticationFailure(Exception):
    """Authenticated decryption failed (tampered data or wrong key)."""


class IdentityPoint(Exception):
    """The identity element is not acceptable here."""


class PlaintextOutOfBound(Exception):
    """Message exceeds the configured encryption bound."""


# ---------------------------------------------------------------------------
# Low-level Jacobian arithmetic on plain int triples (X, Y, Z).  Z == 0 is
# the point at infinity.  Kept as free functions with all state in locals:
# this is the hot path for the whole package.
# ---------------------------------------------------------------------------

_INF = (0, 1, 0)


def _jac_double(X1, Y1, Z1, p=_P):
    if not Z1 or not Y1:
        return _INF
    A = X1 * X1 % p
    B = Y1 * Y1 % p
    C = B * B % p
    D = 2 * ((X1 + B) * (X1 + B) - A - C) % p
    E = 3 * A % p
    F = E * E % p
    X3 = (F - 2 * D) % p
    Y3 = (E * (D - X3) - 8 * C) % p
    Z3 = 2 * Y1 * Z1 % p
    return X3, Y3, Z3


def _jac_add_affine(X1, Y1, Z1, x2, y2, p=_P):
    """Add an affine point (x2, y2) to a Jacobian point."""
    if not Z1:
        return x2, y2, 1
    Z1Z1 = Z1 * Z1 % p
    U2 = x2 * Z1Z1 % p
    S2 = y2 * Z1 * Z1Z1 % p
    H = (U2 - X1) % p
    r = (S2 - Y1) % p
    if not H:
        if not r:
            return _jac_double(X1, Y1, Z1, p)
        return _INF
    HH = H * H % p
    I = 4 * HH % p
    J = H * I % p
    r = 2 * r % p
    V = X1 * I % p
    X3 = (r * r - J - 2 * V) % p
    Y3 = (r * (V - X3) - 2 * Y1 * J) % p
    Z3 = 2 * Z1 * H % p
    return X3, Y3, Z3


def _jac_add(X1, Y1, Z1, X2, Y2, Z2, p=_P):
    if not Z1:
        return X2, Y2, Z2
    if not Z2:
        return X1, Y1, Z1
    Z1Z1 = Z1 * Z1 % p
    Z2Z2 = Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    U2 = X2 * Z1Z1 % p
    S1 = Y1 * Z2 * Z2Z2 % p
    S2 = Y2 * Z1 * Z1Z1 % p
    H = (U2 - U1) % p
    r = (S2 - S1) % p
    if not H:
        if not r:
            return _jac_double(X1, Y1, Z1, p)
        return _INF
    HH = H * H % p
    HHH = H * HH % p
    V = U1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    Y3 = (r * (V - X3) - S1 * HHH) % p
    Z3 = Z1 * Z2 * H % p
    return X3, Y3, Z3


def _jac_to_affine(X, Y, Z, p=_P):
    if not Z:
        return None
    zi = pow(Z, -1, p)
    zi2 = zi * zi % p
    return X * zi2 % p, Y * zi2 * zi % p


_WINDOW = 4
_WINDOW_MASK = (1 << _WINDOW) - 1
_WINDOW_COLS = -(-256 // _WINDOW)


def _batch_affine(points: Sequence[tuple]) -> list:
    """Affine (x, y) of each Jacobian point, None for infinity, with one
    field inversion for the whole list (Montgomery's trick: the inverse of
    the product of all Z, unwound with about 3 multiplies per point)."""
    prefix = []
    acc = 1
    for _, _, Z in points:
        prefix.append(acc)
        if Z:
            acc = acc * Z % _P
    inv = pow(acc, -1, _P)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        X, Y, Z = points[i]
        if Z:
            zi = inv * prefix[i] % _P
            inv = inv * Z % _P
            zi2 = zi * zi % _P
            out[i] = (X * zi2 % _P, Y * zi2 * zi % _P)
    return out


# Long-lived bases keep their tables in _table_bases, so this cache only
# spares a rebuild when a short-lived base comes back within 8 builds.
@lru_cache(maxsize=8)
def _window_table(x: int, y: int) -> tuple:
    """Per-base table T[j][d] = affine d * 2**(4j) * B for windowed mult.

    The column bases come from a Jacobian doubling chain and the multiples
    from mixed additions; each list goes affine in one batch inversion.
    """
    col = (x, y, 1)
    jac_cols = [col]
    for _ in range(_WINDOW_COLS - 1):
        for _ in range(_WINDOW):
            col = _jac_double(*col)
        jac_cols.append(col)
    multiples = []
    for cx, cy in _batch_affine(jac_cols):
        acc = (cx, cy, 1)
        multiples.append(acc)
        for _ in range(_WINDOW_MASK - 1):
            acc = _jac_add_affine(*acc, cx, cy)
            multiples.append(acc)
    flat = _batch_affine(multiples)
    return tuple((None, *flat[j : j + _WINDOW_MASK]) for j in range(0, len(flat), _WINDOW_MASK))


def _mul_windowed(k: int, table) -> tuple:
    acc = _INF
    j = 0
    while k:
        d = k & _WINDOW_MASK
        if d:
            e = table[j][d]
            acc = _jac_add_affine(*acc, e[0], e[1])
        k >>= _WINDOW
        j += 1
    return acc


# secp256k1 endomorphism: lambda * (x, y) == (beta * x, y).  Splitting the
# scalar across it halves the doubling count of a variable-base multiply.
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_G1A = 0x3086D221A7D46BCDE86C90E49284EB15
_G1B = 0xE4437ED6010E88286F547FA90ABFE4C3


def _glv_split(k: int) -> tuple[int, int]:
    """k = k1 + k2 * lambda  (mod order), with |k1|, |k2| ~ 128 bits.

    Correctness never depends on the rounding here: k1 is recomputed from
    k2 modulo the order, so a bad split only costs speed.
    """
    half = ORDER >> 1
    c1 = (_G1A * k + half) // ORDER
    c2 = (_G1B * k + half) // ORDER
    k2 = (c1 * _G1B - c2 * _G1A) % ORDER
    if k2 > half:
        k2 -= ORDER
    k1 = (k - k2 * _LAMBDA) % ORDER
    if k1 > half:
        k1 -= ORDER
    return k1, k2


def _naf_digits(k: int, w: int = 4) -> list:
    """Width-w non-adjacent form, least significant digit first."""
    digits = []
    window = 1 << w
    half = window >> 1
    while k:
        if k & 1:
            d = k & (window - 1)
            if d >= half:
                d -= window
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def _mul_var(k: int, x: int, y: int, p=_P) -> tuple:
    """Variable-base multiply via GLV split + interleaved signed windows."""
    k1, k2 = _glv_split(k)
    s1, s2 = (k1 < 0), (k2 < 0)
    n1, n2 = _naf_digits(abs(k1)), _naf_digits(abs(k2))
    # odd multiples 1P, 3P, 5P, 7P of each half-base
    y1 = (-y) % p if s1 else y
    odd1 = [(x, y1)]
    two = _jac_to_affine(*_jac_double(x, y1, 1))
    for _ in range(3):
        prev = odd1[-1]
        odd1.append(_jac_to_affine(*_jac_add_affine(prev[0], prev[1], 1, two[0], two[1])))
    flip = s1 != s2
    odd2 = [(_BETA * q[0] % p, (-q[1]) % p if flip else q[1]) for q in odd1]
    acc = _INF
    for i in range(max(len(n1), len(n2)) - 1, -1, -1):
        acc = _jac_double(*acc)
        if i < len(n1) and n1[i]:
            d = n1[i]
            e = odd1[(d if d > 0 else -d) >> 1]
            acc = _jac_add_affine(*acc, e[0], e[1] if d > 0 else (-e[1]) % p)
        if i < len(n2) and n2[i]:
            d = n2[i]
            e = odd2[(d if d > 0 else -d) >> 1]
            acc = _jac_add_affine(*acc, e[0], e[1] if d > 0 else (-e[1]) % p)
    return acc


# ---------------------------------------------------------------------------
# Public group element wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """Affine point on the curve; x is None for the identity element."""

    x: int | None
    y: int | None

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        j = _jac_add(self.x, self.y, 1, other.x, other.y, 1)
        return _from_jac(j)

    def __neg__(self) -> "GroupElement":
        if self.is_identity:
            return self
        return GroupElement(self.x, (-self.y) % _P)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def mul(self, k: int) -> "GroupElement":
        k %= ORDER
        if k == 0 or self.is_identity:
            return IDENTITY
        key = (self.x, self.y)
        if key in _table_bases:
            table = _table_bases[key]
            if table is None:
                table = _table_bases[key] = _window_table(*key)
            return _from_jac(_mul_windowed(k, table))
        return _from_jac(_mul_var(k, self.x, self.y))

    __rmul__ = mul

    def encode(self) -> bytes:
        if self.is_identity:
            return b"\x00" * 33
        prefix = b"\x03" if self.y & 1 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")

    @staticmethod
    def decode(data: bytes) -> "GroupElement":
        if len(data) != 33:
            raise ValueError("point encoding must be 33 bytes")
        if data == b"\x00" * 33:
            return IDENTITY
        if data[0] not in (2, 3):
            raise ValueError("point prefix must be 0x02 or 0x03")
        x = int.from_bytes(data[1:], "big")
        if x >= _P:
            raise ValueError("x coordinate not below the field prime")
        y2 = (pow(x, 3, _P) + 7) % _P
        y = pow(y2, (_P + 1) // 4, _P)
        if y * y % _P != y2:
            raise ValueError("x coordinate not on curve")
        if (y & 1) != (data[0] == 3):
            y = _P - y
        return GroupElement(x, y)


def _from_jac(j) -> GroupElement:
    a = _jac_to_affine(*j)
    if a is None:
        return IDENTITY
    return GroupElement(a[0], a[1])


IDENTITY = GroupElement(None, None)
G = GroupElement(_GX, _GY)

# Long-lived bases, (x, y) -> window table or None until the first mul
# builds it.  Only keys that serve a whole run belong here (G, H, the pool
# threshold key, each chain's validator and aggregate-signer keys); a
# one-shot key would hold a table that never pays for itself.
_table_bases: dict = {}


def precompute_base(point: GroupElement) -> None:
    """Mark a base as long-lived: from its first mul on, it is multiplied
    through a fixed-base window table held for the rest of the process."""
    if not point.is_identity:
        _table_bases.setdefault((point.x, point.y), None)


precompute_base(G)


# Below this many distinct terms a multi-scalar multiply runs one multiply
# per term; from here on Pippenger's bucket method is faster (measured with
# 256-bit scalars on CPython 3.11: per-term wins at 6 terms, loses at 8).
_PIPPENGER_MIN_TERMS = 8

# From this many multiplies of one base, building its window table for
# those multiplies alone beats the variable-base path.  Measured on CPython
# 3.11 with 256-bit scalars (median of 5 runs, 2-core x86-64): a build takes
# 16.7 ms and a windowed multiply 0.68 ms against 1.73 ms variable-base, so
# the table pays from 16.7 / 1.05 = 16 multiplies on.
_TABLE_MIN_MULS = 16


def msm(scalars: Sequence[int], points: Sequence[GroupElement]) -> GroupElement:
    """sum(k_i * P_i) in one pass: the package's multi-scalar multiply.

    Scalars are reduced modulo ORDER; zero scalars and identity points
    drop out, and repeated points (P and -P alike) are merged into one
    term first.  The sum stays Jacobian and is converted to affine once.
    Raises ValueError for a point that is not on the curve.
    """
    merged: dict = {}  # x -> [y, k]; on the curve one x holds only P and -P
    for k, point in zip(scalars, points, strict=True):
        k %= ORDER
        if not k or point.is_identity:
            continue
        x, y = point.x, point.y
        if not (0 <= x < _P and 0 <= y < _P) or (y * y - x * x * x - 7) % _P:
            raise ValueError("point not on the curve")
        entry = merged.get(x)
        if entry is None:
            merged[x] = [y, k]
        else:
            entry[1] = (entry[1] + (k if y == entry[0] else -k)) % ORDER
    terms = [(k, x, y) for x, (y, k) in merged.items() if k]
    if len(terms) >= _PIPPENGER_MIN_TERMS:
        return _from_jac(_pippenger(terms))
    acc = _INF
    for k, x, y in terms:
        acc = _jac_add(*acc, *_mul_var(k, x, y))
    return _from_jac(acc)


def _pippenger(terms: list) -> tuple:
    """Bucket method over signed base-2**c digits; terms are (k, x, y)
    with 0 < k < ORDER, and the result is Jacobian."""
    c = max(2, len(terms).bit_length() - 3)  # about log2(n) - 2
    full = 1 << c
    half = full >> 1
    mask = full - 1
    # k on P and ORDER - k on -P are the same term; the smaller scalar has
    # fewer digits (a small negative coefficient arrives as a 256-bit one).
    terms = [(ORDER - k, x, _P - y) if k > ORDER >> 1 else (k, x, y) for k, x, y in terms]
    windows = max(k.bit_length() for k, _, _ in terms) // c + 1
    # rows[w][b] is the Jacobian sum of every point whose digit w is +-b.
    rows = [[None] * (half + 1) for _ in range(windows)]
    for k, x, y in terms:
        w = 0
        while k:
            d = k & mask
            k >>= c
            if d > half:  # digits run over (-half, half], carrying into k
                d -= full
                k += 1
            if d:
                py = y if d > 0 else _P - y
                d = abs(d)
                row = rows[w]
                bucket = row[d]
                row[d] = (x, py, 1) if bucket is None else _jac_add_affine(*bucket, x, py)
            w += 1
    acc = _INF
    for row in reversed(rows):
        for _ in range(c):
            acc = _jac_double(*acc)
        running = total = _INF
        for bucket in row[:0:-1]:  # sum(b * row[b]) as a running sum of sums
            if bucket is not None:
                running = _jac_add(*running, *bucket)
            if running[2]:
                total = _jac_add(*total, *running)
        acc = _jac_add(*acc, *total)
    return acc


def hash_to_scalar(tag: bytes, *parts: bytes) -> Scalar:
    h = hashlib.sha256(_DOMAIN + tag)
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big") % ORDER


def hash_to_point(tag: bytes, *parts: bytes) -> GroupElement:
    """Map bytes to a curve point by try-and-increment over the x line."""
    ctr = 0
    while True:
        h = hashlib.sha256(_DOMAIN + tag)
        for part in parts:
            h.update(len(part).to_bytes(4, "big"))
            h.update(part)
        h.update(ctr.to_bytes(4, "big"))
        x = int.from_bytes(h.digest(), "big") % _P
        y2 = (pow(x, 3, _P) + 7) % _P
        y = pow(y2, (_P + 1) // 4, _P)
        if y * y % _P == y2:
            return GroupElement(x, y if y & 1 == 0 else _P - y)
        ctr += 1


# Second generator with unknown discrete log relative to G (used by the
# commitment scheme).
H = hash_to_point(b"generator/H", G.encode())
precompute_base(H)


def scalar_bytes(s: Scalar) -> bytes:
    return (s % ORDER).to_bytes(32, "little")


def scalar_from_bytes(data: bytes) -> Scalar:
    return int.from_bytes(data, "little") % ORDER


def random_scalar(rng) -> Scalar:
    """Uniform nonzero scalar from a seeded RNG handle."""
    while True:
        s = rng.getrandbits(256) % ORDER
        if s:
            return s


# ---------------------------------------------------------------------------
# Keys and encryption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyPair:
    sk: Scalar
    pk: GroupElement


def keygen(seed: bytes) -> KeyPair:
    """Deterministic keypair from a non-empty byte seed."""
    if not seed:
        raise ValueError("seed must be non-empty")
    sk = hash_to_scalar(b"keygen", seed)
    if sk == 0:
        sk = 1
    return KeyPair(sk, G.mul(sk))


@dataclass(frozen=True)
class Ciphertext:
    """ElGamal pair (r*G, m*G + r*pk); addition adds plaintexts."""

    c1: GroupElement
    c2: GroupElement

    def encode(self) -> bytes:
        return self.c1.encode() + self.c2.encode()

    @staticmethod
    def decode(data: bytes) -> "Ciphertext":
        return Ciphertext(GroupElement.decode(data[:33]), GroupElement.decode(data[33:66]))


def encrypt(pk: GroupElement, m: int, r: Scalar, bound: int = ANALYTICS_BOUND) -> Ciphertext:
    return _encrypt(pk.mul, m, r, bound)


def _encrypt(mask, m: int, r: Scalar, bound: int) -> Ciphertext:
    """Encryption with the mask r*pk computed by mask(r)."""
    if not 0 <= m < bound:
        raise PlaintextOutOfBound(f"message {m} outside [0, {bound})")
    return Ciphertext(G.mul(r), G.mul(m) + mask(r))


def decrypt(sk: Scalar, ct: Ciphertext) -> GroupElement:
    """Strip the mask; the message stays in the exponent (returns m*G)."""
    return ct.c2 - ct.c1.mul(sk)


def add_ciphertexts(a: Ciphertext, b: Ciphertext) -> Ciphertext:
    return Ciphertext(a.c1 + b.c1, a.c2 + b.c2)


def scalar_mul_ciphertext(k: int, ct: Ciphertext) -> Ciphertext:
    if k < 0:
        raise ValueError("scalar must be non-negative")
    return Ciphertext(ct.c1.mul(k), ct.c2.mul(k))


def combine_ciphertexts(weights: Sequence[int], cts: Sequence[Ciphertext]) -> Ciphertext:
    """sum(w_i * ct_i), an encryption of the weights' dot product with the
    plaintexts: one multi-scalar multiply per component."""
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    return Ciphertext(msm(weights, [ct.c1 for ct in cts]), msm(weights, [ct.c2 for ct in cts]))


def encrypt_vector(pk: GroupElement, msgs: Sequence[int], rng, bound: int = ANALYTICS_BOUND) -> list[Ciphertext]:
    """Encrypt each entry under pk.

    A long-lived pk multiplies through its own table.  Any other pk is not
    registered: with at least _TABLE_MIN_MULS entries it gets a window
    table for this call, below that each mask is a variable-base multiply.
    """
    mask = pk.mul
    if len(msgs) >= _TABLE_MIN_MULS and not pk.is_identity and (pk.x, pk.y) not in _table_bases:
        table = _window_table(pk.x, pk.y)

        def mask(r):
            return _from_jac(_mul_windowed(r, table))

    return [_encrypt(mask, m, random_scalar(rng), bound) for m in msgs]


# ---------------------------------------------------------------------------
# Bounded plaintext recovery (baby-step/giant-step)
# ---------------------------------------------------------------------------


# Points per batch inversion in _baby_table: one inversion up to the 2**20
# recovery bound, while a 2**32 bound keeps only this many Jacobian points
# in memory at once.
_BABY_BATCH = 4096


@lru_cache(maxsize=8)
def _baby_table(m: int) -> dict:
    """x-coordinate -> j for j*G, j in [0, m)."""
    table = {}
    acc = _INF
    for start in range(0, m, _BABY_BATCH):
        chunk = []
        for _ in range(min(_BABY_BATCH, m - start)):
            chunk.append(acc)
            acc = _jac_add_affine(*acc, _GX, _GY)
        for j, a in enumerate(_batch_affine(chunk), start):
            table[a[0] if a else None] = j
    return table


def recover_plaintext(point: GroupElement, bound: int) -> int:
    """Find m < bound with m*G == point, in O(sqrt(bound)) group ops."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if point.is_identity:
        return 0
    m = int(bound**0.5) + 1
    table = _baby_table(m)
    stride = G.mul(m)
    neg_x, neg_y = stride.x, (-stride.y) % _P
    cur = (point.x, point.y, 1)
    for i in range(m + 1):
        a = _jac_to_affine(*cur)
        j = table.get(a[0] if a else None)
        if j is not None:
            # The baby table is keyed on x alone, so a hit may stem from
            # either j*G or -j*G; check both candidates explicitly.
            for cand in (i * m + j, i * m - j):
                if 0 <= cand < bound and G.mul(cand) == point:
                    return cand
        cur = _jac_add_affine(*cur, neg_x, neg_y)
    raise NoSolutionInBound(f"no discrete log below {bound}")


# ---------------------------------------------------------------------------
# Schnorr signatures (challenge, response), domain-separated per message type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    challenge: Scalar
    response: Scalar

    def encode(self) -> bytes:
        return scalar_bytes(self.challenge) + scalar_bytes(self.response)


def sign(sk: Scalar, msg: bytes, rng, tag: bytes = b"sig/default") -> Signature:
    pk = G.mul(sk)
    k = random_scalar(rng)
    R = G.mul(k)
    c = hash_to_scalar(tag, pk.encode(), R.encode(), msg)
    s = (k - c * sk) % ORDER
    return Signature(c, s)


def verify_sig(pk: GroupElement, msg: bytes, sig: Signature, tag: bytes = b"sig/default") -> bool:
    try:
        if not (0 <= sig.challenge < ORDER and 0 <= sig.response < ORDER):
            return False
        R = G.mul(sig.response) + pk.mul(sig.challenge)
        return hash_to_scalar(tag, pk.encode(), R.encode(), msg) == sig.challenge
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Symmetric + hybrid encryption (policy confidentiality)
# ---------------------------------------------------------------------------

SYM_KEY_LEN = 32
_NONCE_LEN = 12


def sym_encrypt(key: bytes, payload: bytes, rng) -> bytes:
    """Authenticated symmetric encryption; output is nonce || ciphertext."""
    nonce = rng.getrandbits(8 * _NONCE_LEN).to_bytes(_NONCE_LEN, "big")
    return nonce + ChaCha20Poly1305(key).encrypt(nonce, payload, b"")


def sym_decrypt(key: bytes, blob: bytes) -> bytes:
    try:
        return ChaCha20Poly1305(key).decrypt(blob[:_NONCE_LEN], blob[_NONCE_LEN:], b"")
    except (InvalidTag, ValueError) as exc:
        raise AuthenticationFailure("symmetric decryption failed") from exc


@dataclass(frozen=True)
class HybridCiphertext:
    """Ephemeral key encapsulation plus authenticated payload."""

    wrapped_key: GroupElement
    payload: bytes

    def encode(self) -> bytes:
        return self.wrapped_key.encode() + self.payload

    @staticmethod
    def decode(data: bytes) -> "HybridCiphertext":
        return HybridCiphertext(GroupElement.decode(data[:33]), data[33:])


def _kem_key(shared: GroupElement, eph_pk: GroupElement) -> bytes:
    return hashlib.sha256(_DOMAIN + b"kdf/hybrid" + shared.encode() + eph_pk.encode()).digest()


def hybrid_encrypt(pk: GroupElement, payload: bytes, rng) -> HybridCiphertext:
    if not payload:
        raise ValueError("payload must be non-empty")
    e = random_scalar(rng)
    eph = G.mul(e)
    key = _kem_key(pk.mul(e), eph)
    return HybridCiphertext(eph, sym_encrypt(key, payload, rng))


def hybrid_decrypt(sk: Scalar, hc: HybridCiphertext) -> bytes:
    key = _kem_key(hc.wrapped_key.mul(sk), hc.wrapped_key)
    return sym_decrypt(key, hc.payload)


def dh_agree(my_sk: Scalar, their_pk: GroupElement) -> bytes:
    """Symmetric key from a Diffie-Hellman exchange (KDF of shared point)."""
    if their_pk.is_identity:
        raise IdentityPoint("peer public key is the identity element")
    shared = their_pk.mul(my_sk)
    return hashlib.sha256(_DOMAIN + b"kdf/dh" + shared.encode()).digest()
