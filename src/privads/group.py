"""Elliptic-curve group with additively homomorphic encryption.

The group is secp256k1 (prime order, ~128-bit security).  Messages are
encoded in the exponent: Enc(pk, m) = (r*G, m*G + r*pk), so adding two
ciphertexts adds their plaintexts and decryption yields m*G, from which the
integer m is recovered by a bounded baby-step/giant-step search.

Canonical byte encodings used everywhere (hashing, transcripts, state
dumps):
  * points: 33 bytes, SEC1 compressed (0x02/0x03 prefix + big-endian x);
    the identity element encodes as 33 zero bytes.  Decompression takes
    OpenSSL's square root (_lift_x), which hash_to_point shares.
  * scalars: 32 bytes, little-endian.

Arithmetic is pure Python on Jacobian triples.  Two routines multiply,
and only they choose between a window table and the variable-base path:
msm computes every product and sum of products (GroupElement.mul is msm
of one term), and mul_batch every batch of independent products.
sum_batch computes a batch of plain sums.

Long-lived bases get signed 6-bit window tables; a product through one
is a list of table entries (_window_points).  Any other base is
multiplied through its GLV split, each half recoded in width-4 NAF.
Many sums run as lanes of affine additions that share one field
inversion per step (_sum_lanes, _add_round).  In msm a table term's
entries are added to the sum with mixed additions; the other terms run
over one Jacobian doubling chain (Straus, _straus), or, when they are
many or their scalars small, through Pippenger's bucket method, whose
buckets are the lanes of one _sum_lanes call when some scalar is wide
(_LANE_BUCKET_MIN_BITS).  In mul_batch a table product is a lane of its
entries, and any other product a lane of one affine doubling chain
(_mul_lanes), whose doublings and additions are shared-inversion steps
too.  In sum_batch each sum is a lane.  A committed polynomial is
evaluated at a small share index by Horner's rule (commitment_eval).

No constant-time hardening; this is simulation-grade crypto, reproducible
from explicit seeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .forking import fork_map

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
    "ANALYTICS_BOUND",
    "tagged_hash",
    "hash_to_scalar",
    "hash_to_point",
    "keygen",
    "keygen_batch",
    "random_scalar",
    "encrypt",
    "decrypt",
    "recover_plaintext",
    "combine_ciphertexts",
    "msm",
    "mul_batch",
    "sum_batch",
    "commitment_eval",
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
_SECP256K1 = ec.SECP256K1()

# Scalars are plain integers reduced modulo ORDER.
Scalar = int

# Plaintext bound of every encryption and commitment: analytics totals may
# accumulate across many users.
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


# Fixed-base windows: signed 6-bit digits in (-32, 32], so a table holds the
# multiples 1..32 of each column base and a negative digit adds (x, p - y).
# A 256-bit scalar needs 256 // 6 + 1 = 43 digits: the carry out of the top
# full digit lands in the last column.
_WINDOW = 6
_WINDOW_FULL = 1 << _WINDOW
_WINDOW_HALF = _WINDOW_FULL >> 1
_WINDOW_MASK = _WINDOW_FULL - 1
_WINDOW_COLS = 256 // _WINDOW + 1


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


# The one store of window tables, for long-lived bases only (_base_table).
# A run uses G, H and three per chain (its pool key, validator and
# aggregate-signer keys).  Chains run one after another, so at most 5 are
# in use at once: `multichain` registers 11 bases over its 3 chains and
# builds each table once (11 misses, none rebuilt).  A process that runs
# many scenarios holds at most 8 tables.
@lru_cache(maxsize=8)
def _window_table(x: int, y: int) -> tuple:
    """Per-base table T[j][d] = affine d * 2**(6j) * B, d in 1..32, for
    signed windowed multiplication (T[j][0] is None).

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
        for _ in range(_WINDOW_HALF - 1):
            acc = _jac_add_affine(*acc, cx, cy)
            multiples.append(acc)
    flat = _batch_affine(multiples)
    return tuple((None, *flat[j : j + _WINDOW_HALF]) for j in range(0, len(flat), _WINDOW_HALF))


def _window_points(k: int, table, out: list) -> list:
    """Append to `out` the affine table entries that sum to k * B, one per
    nonzero signed digit of k (0 <= k < 2**256), and return it."""
    j = 0
    while k:
        d = k & _WINDOW_MASK
        k >>= _WINDOW
        if d > _WINDOW_HALF:  # digit d - 64, carrying one into k
            k += 1
            x, y = table[j][_WINDOW_FULL - d]
            out.append((x, _P - y))
        elif d:
            out.append(table[j][d])
        j += 1
    return out


def _sum_lanes(lanes: Sequence[list]) -> list:
    """Affine sum of each list of affine points, None for the identity:
    every lane takes one addition per step (_add_round)."""
    xs = [None] * len(lanes)
    ys = [None] * len(lanes)
    # Longest first, so each step reads only the lanes still running.
    order = sorted(range(len(lanes)), key=lambda i: len(lanes[i]), reverse=True)
    running = len(order)
    for step in range(len(lanes[order[0]]) if lanes else 0):
        while len(lanes[order[running - 1]]) <= step:
            running -= 1
        _add_round(xs, ys, [(i, lanes[i][step]) for i in order[:running]])
    return [None if x is None else (x, y) for x, y in zip(xs, ys)]


def _add_round(xs: list, ys: list, adds: list) -> None:
    """Add the affine point (x2, y2) to lane i's (xs[i], ys[i]) for each
    (i, (x2, y2)) in adds, at most one per lane; None is the identity.

    All the affine additions share one field inversion (Montgomery's
    trick), so a round costs one inversion plus about six multiplies per
    lane.  A lane whose point shares x with the added one is doubled
    (P + P) or becomes the identity (P + -P)."""
    p = _P
    work = []  # (lane, x1, y1, x2, numerator, denominator, prefix product)
    prod = 1
    for i, (x2, y2) in adds:
        x1, y1 = xs[i], ys[i]
        if x1 is None:
            xs[i], ys[i] = x2, y2
            continue
        if x1 != x2:
            num, den = y2 - y1, x2 - x1
        elif y1 == y2:
            num, den = 3 * x1 * x1, 2 * y1
        else:
            xs[i] = None
            continue
        work.append((i, x1, y1, x2, num, den, prod))
        prod = prod * den % p
    if not work:
        return
    inv = pow(prod, -1, p)
    for i, x1, y1, x2, num, den, before in reversed(work):
        lam = num * (inv * before % p) % p
        inv = inv * den % p
        x3 = (lam * lam - x1 - x2) % p
        xs[i] = x3
        ys[i] = (lam * (x1 - x3) - y1) % p


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


def _naf_digits(k: int) -> list:
    """The nonzero digits of k >= 0 in width-4 non-adjacent form, as
    (position, digit) pairs, least significant first: odd digits in
    [-7, 7], at least four positions apart.  A run of zero bits is skipped
    in one shift, so the loop runs once per nonzero digit."""
    digits = []
    position = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        position += zeros
        d = k & 15
        if d >= 8:
            d -= 16
        digits.append((position, d))
        k = (k - d) >> 4  # k - d is 0 mod 16: the next three digits are zero
        position += 4
    return digits


def _glv_halves(terms) -> list:
    """The additions of k*P's doubling chain for each term (k, x, y) with
    0 < k < ORDER: per term, one list per GLV half of k, of (position,
    point) such that k*P is the sum of 2**position * point over both lists,
    each point an affine (x, y).

    Each half is recoded in width-4 NAF, so its points are the odd
    multiples +-1..7 of P, or of lambda*P = (beta*x, y) for the second
    half.  The odd multiples of every term go affine in one batch
    inversion."""
    p = _P
    jac, splits = [], []
    for k, x, y in terms:
        k1, k2 = _glv_split(k)
        y1 = p - y if k1 < 0 else y
        two = _jac_double(x, y1, 1)
        three = _jac_add_affine(*two, x, y1)
        five = _jac_add(*three, *two)
        jac += (three, five, _jac_add(*five, *two))
        splits.append((k1, k2, x, y1))
    odd = _batch_affine(jac)
    halves = []
    for t, (k1, k2, x, y1) in enumerate(splits):
        odd1 = [(x, y1), *odd[3 * t : 3 * t + 3]]
        flip = (k1 < 0) != (k2 < 0)
        odd2 = [(_BETA * ox % p, p - oy if flip else oy) for ox, oy in odd1]
        halves.append((_signed_points(odd1, abs(k1)), _signed_points(odd2, abs(k2))))
    return halves


def _signed_points(odd: list, k: int) -> list:
    """(position, point) of each nonzero NAF digit d of k: the point is
    odd[|d| >> 1], negated for d < 0."""
    signed = [(x, _P - y) for x, y in reversed(odd)] + odd  # d = -7..7 at (d + 7) >> 1
    return [(position, signed[(d + 7) >> 1]) for position, d in _naf_digits(k)]


def _straus(terms) -> tuple:
    """sum(k * (x, y)) over terms (k, x, y) with 0 < k < ORDER, Jacobian:
    the GLV halves of every term interleaved over one doubling chain
    (Straus's method), one mixed addition per nonzero digit."""
    adds = sorted((a for halves in _glv_halves(terms) for half in halves for a in half), reverse=True)
    acc = _INF
    position = adds[0][0] if adds else 0
    for at, (x, y) in adds:
        for _ in range(position - at):
            acc = _jac_double(*acc)
        position = at
        acc = _jac_add_affine(*acc, x, y)
    for _ in range(position):
        acc = _jac_double(*acc)
    return acc


def _mul_lanes(terms) -> list:
    """Affine k * (x, y) of each term (k, x, y), 0 < k < ORDER, None for
    the identity: the terms as lanes of one affine doubling chain.

    Every step doubles each lane (an _add_round of each lane's point to
    itself), then adds each lane's digit of the first GLV half, then its
    digit of the second; each of these rounds shares one field inversion
    (Montgomery's trick).  An affine doubling costs about the 7 field
    multiplies of a Jacobian one; an affine addition costs about 6 against
    11, and no lane needs a final inversion of its own."""
    halves = _glv_halves(terms)
    top = max((half[-1][0] for pair in halves for half in pair if half), default=-1)
    # steps[position][half]: the lanes with a digit there.  A lane's
    # additions are popped off the top of its half as the chain reaches
    # them, so the lists shrink as the chain runs.
    steps = [([], []) for _ in range(top + 1)]
    for lane, pair in enumerate(halves):
        for which, half in enumerate(pair):
            for position, _ in half:
                steps[position][which].append(lane)
    xs = [None] * len(terms)
    ys = [None] * len(terms)
    for step in range(top, -1, -1):
        _add_round(xs, ys, [(i, (x, ys[i])) for i, x in enumerate(xs) if x is not None])
        for which, lanes in enumerate(steps[step]):
            _add_round(xs, ys, [(i, halves[i][which].pop()[1]) for i in lanes])
    return [None if x is None else (x, y) for x, y in zip(xs, ys)]


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
        """k * self: msm of one term.  Raises ValueError for a point that
        is not on the curve."""
        return msm((k,), (self,))

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
        return GroupElement(x, _lift_x(data))


def _lift_x(data: bytes) -> int:
    """y of a compressed point (0x02/0x03 prefix, x < p), its parity set by
    the prefix, from OpenSSL's square root.  Raises ValueError when x is
    not on the curve."""
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(_SECP256K1, data).public_numbers().y
    except ValueError:
        raise ValueError("x coordinate not on curve") from None


def _from_jac(j) -> GroupElement:
    a = _jac_to_affine(*j)
    if a is None:
        return IDENTITY
    return GroupElement(a[0], a[1])


IDENTITY = GroupElement(None, None)
G = GroupElement(_GX, _GY)

# Long-lived bases, as (x, y).  Only keys that serve a whole run belong
# here (G, H, the pool threshold key, each chain's validator and
# aggregate-signer keys); a one-shot key would get a table that never pays
# for itself.
_table_bases: set = set()


def precompute_base(point: GroupElement) -> None:
    """Mark a base as long-lived: from its first mul on, it is multiplied
    through a fixed-base window table from _window_table's cache."""
    if not point.is_identity:
        _table_bases.add((point.x, point.y))


precompute_base(G)


def _base_table(x: int, y: int):
    """The window table of a long-lived base; None for any other base."""
    return _window_table(x, y) if (x, y) in _table_bases else None


def _term(k: int, point: GroupElement):
    """(k mod ORDER, x, y) of the product k * point, None when it is the
    identity.  Raises ValueError for a point that is not on the curve."""
    k %= ORDER
    if not k or point.is_identity:
        return None
    x, y = point.x, point.y
    if not (0 <= x < _P and 0 <= y < _P) or (y * y - x * x * x - 7) % _P:
        raise ValueError("point not on the curve")
    return k, x, y


# In msm, the terms without a window table run over one doubling chain
# (Straus) below this many terms, if some scalar is wider than
# _STRAUS_MIN_BITS; otherwise Pippenger's bucket method is faster.
# Measured on CPython 3.11 (2-core x86-64), Straus against Pippenger with
# lane buckets: 256-bit scalars 12.4 vs 14.9 ms at 16 terms, 18.0 vs 19.5
# at 24, 21.0 vs 18.9 at 32, 30.7 vs 23.3 at 64; 64-bit scalars 1.5 vs 1.8
# ms at 8 terms, 2.8 vs 2.7 at 16, 5.1 vs 4.2 at 32; 5-bit scalars 0.22 vs
# 0.08 ms at 2 terms (Straus computes 3P, 5P and 7P of every term, which a
# small scalar never uses).
_PIPPENGER_MIN_TERMS = 32
_STRAUS_MIN_BITS = 33

# Pippenger's buckets are lanes of one _sum_lanes call when some scalar
# has at least this many bits, and Jacobian sums otherwise: narrow scalars
# give too few buckets for the lanes to share their inversions.  Measured
# as above, Jacobian against lane buckets: 1-bit scalars 0.14 vs 0.55 ms at
# 20 terms; 5-bit 1.0 vs 1.5 ms at 64; 32-bit 1.8 vs 1.5 ms at 16 and 4.5
# vs 4.6 at 64; 64-bit 8.7 vs 7.5 ms at 64; 256-bit 34 vs 24 ms at 64, 55
# vs 40 at 128, 198 vs 131 at 640.
_LANE_BUCKET_MIN_BITS = 33


def msm(scalars: Sequence[int], points: Sequence[GroupElement]) -> GroupElement:
    """sum(k_i * P_i) in one pass: the package's one routine for a product
    or a sum of products.

    Scalars are reduced modulo ORDER; zero scalars and identity points
    drop out, and repeated points (P and -P alike) are merged into one
    term first.  A long-lived base's term is its window-table entries; the
    other terms go through Straus's method or Pippenger's (see
    _PIPPENGER_MIN_TERMS), and the table entries are added to their sum.
    The sum stays Jacobian and is converted to affine once.  Raises
    ValueError for a point that is not on the curve.
    """
    merged: dict = {}  # x -> [y, k]; on the curve one x holds only P and -P
    for k, point in zip(scalars, points, strict=True):
        term = _term(k, point)
        if term is None:
            continue
        k, x, y = term
        entry = merged.get(x)
        if entry is None:
            merged[x] = [y, k]
        else:
            entry[1] = (entry[1] + (k if y == entry[0] else -k)) % ORDER
    chained, entries = [], []
    for x, (y, k) in merged.items():
        if not k:
            continue
        table = _base_table(x, y)
        if table is None:
            chained.append((k, x, y))
        else:
            _window_points(k, table, entries)
    if not chained:
        acc = _INF
    elif len(chained) >= _PIPPENGER_MIN_TERMS or all(k.bit_length() < _STRAUS_MIN_BITS for k, _, _ in chained):
        acc = _pippenger(chained)
    else:
        acc = _straus(chained)
    for x, y in entries:
        acc = _jac_add_affine(*acc, x, y)
    return _from_jac(acc)


def _pippenger(terms: list) -> tuple:
    """Bucket method over signed base-2**c digits; terms are (k, x, y)
    with 0 < k < ORDER, and the result is Jacobian.

    Bucket (w, b) holds every point whose digit w is +-b, as (x, y) or
    (x, p - y), two tuples made once per term (the top window's digit is
    unsigned, see below).  With a scalar of at least
    _LANE_BUCKET_MIN_BITS bits the buckets are summed as the lanes of one
    _sum_lanes call (one shared inversion per step); with narrower scalars
    there are too few buckets to share it, and each is a Jacobian sum."""
    c = max(2, len(terms).bit_length() - 3)  # about log2(n) - 2
    full = 1 << c
    half = full >> 1
    mask = full - 1
    # k on P and ORDER - k on -P are the same term; the smaller scalar has
    # fewer digits (a small negative coefficient arrives as a 256-bit one).
    terms = [(ORDER - k, x, _P - y) if k > ORDER >> 1 else (k, x, y) for k, x, y in terms]
    bits = max((k.bit_length() for k, _, _ in terms), default=0)
    # The top window takes what is left of k as one unsigned digit, at most
    # 2**c, so no carry leaves it: a window of carries alone would pile
    # about half of all points into its one bucket, a lane the others wait
    # on.  buckets[w * half + b - 1] lists the points whose digit w is +-b
    # (just +b in the top window, whose buckets run to b = full).
    top = (bits - 1) // c
    buckets = [[] for _ in range(top * half + full)]
    for k, x, y in terms:
        pos, neg = (x, y), (x, _P - y)
        at = -1
        for _ in range(top):
            if not k:
                break
            d = k & mask
            k >>= c
            if d > half:  # digits run over (-half, half], carrying into k
                k += 1
                buckets[at + full - d].append(neg)
            elif d:
                buckets[at + d].append(pos)
            at += half
        if k:  # what the top window takes
            buckets[at + k].append(pos)
    if bits >= _LANE_BUCKET_MIN_BITS:
        sums = [_INF if a is None else (*a, 1) for a in _sum_lanes(buckets)]
    else:
        sums = []
        for bucket in buckets:
            acc = _INF
            for x, y in bucket:
                acc = _jac_add_affine(*acc, x, y)
            sums.append(acc)
    acc = _INF
    for w in range(top, -1, -1):
        for _ in range(c):
            acc = _jac_double(*acc)
        running = total = _INF
        # sum(b * bucket b) as a running sum of sums
        for bucket in reversed(sums[w * half : w * half + (full if w == top else half)]):
            running = _jac_add(*running, *bucket)
            if running[2]:
                total = _jac_add(*total, *running)
        acc = _jac_add(*acc, *total)
    return acc


# Lanes per group in mul_batch: a group holds every lane's entries and
# sums at once, so a long batch goes in groups of this size.  1000
# variable-base lanes in one group peaked at 6.5 MB of traced memory
# against 1.1 MB in groups of 128, for at most a few percent of speed.
_LANE_GROUP = 128

# Below _SUM_LANES_MIN table-base lanes, or _MUL_LANES_MIN other lanes, a
# group of mul_batch computes one product at a time (msm): a lane step's
# shared inversion costs more than the cheaper affine additions save until
# enough lanes share it.  Measured on CPython 3.11 (2-core x86-64), per
# multiple of G: 611 vs 457 us at 4 lanes, 455 vs 456 at 8, 401 vs 450 at
# 12; per variable-base multiply: 1.60 vs 1.12 ms at 12 lanes, 1.50 vs
# 1.51 at 32, 1.67 vs 1.91 at 48, 1.52 vs 1.90 at 128.
_SUM_LANES_MIN = 8
_MUL_LANES_MIN = 32


def mul_batch(scalars: Sequence[int], points: Sequence[GroupElement]) -> list[GroupElement]:
    """[P.mul(k) for k, P in zip(scalars, points)] for independent
    products, the package's one routine for a batch.

    A long-lived base's product is a lane of its window-table entries
    (_sum_lanes), any other a lane of one affine doubling chain
    (_mul_lanes); each kind runs in groups of _LANE_GROUP lanes, and a
    group below that kind's lane minimum computes one product at a time.
    Raises ValueError for a point that is not on the curve."""
    out = [IDENTITY] * len(scalars)
    summed, chained = [], []  # (position, (k, table)); (position, (k, x, y))
    for i, (k, point) in enumerate(zip(scalars, points, strict=True)):
        term = _term(k, point)
        if term is None:
            continue
        table = _base_table(point.x, point.y)
        if table is None:
            chained.append((i, term))
        else:
            summed.append((i, (term[0], table)))
    for work, lanes, minimum in (
        (summed, lambda terms: _sum_lanes([_window_points(k, table, []) for k, table in terms]), _SUM_LANES_MIN),
        (chained, _mul_lanes, _MUL_LANES_MIN),
    ):
        for start in range(0, len(work), _LANE_GROUP):
            group = work[start : start + _LANE_GROUP]
            if len(group) < minimum:
                products = [msm((scalars[i],), (points[i],)) for i, _ in group]
            else:
                products = [IDENTITY if a is None else GroupElement(*a) for a in lanes([t for _, t in group])]
            for (i, _), product in zip(group, products):
                out[i] = product
    return out


def sum_batch(point_lists: Sequence[Sequence[GroupElement]]) -> list[GroupElement]:
    """[sum(points) for points in point_lists], each sum one lane of a
    single _sum_lanes call, so every step's additions share one field
    inversion.  Raises ValueError for a point that is not on the curve."""
    lanes = [[term[1:] for term in (_term(1, point) for point in points) if term] for points in point_lists]
    return [IDENTITY if a is None else GroupElement(*a) for a in _sum_lanes(lanes)]


def commitment_eval(commitments: Sequence[GroupElement], x: int) -> GroupElement:
    """sum(x**j * C_j): a committed polynomial evaluated in the exponent at
    a share index 1 <= x < ORDER.

    Horner's rule, acc <- x*acc + C_j from the top coefficient down, with
    x*acc a double-and-add over the bits of x: a share index is small, so
    this is a few doublings per coefficient.  The sum stays Jacobian and is
    converted to affine once."""
    if not 1 <= x < ORDER:
        raise ValueError("share index outside [1, ORDER)")
    bits = bin(x)[3:]  # below the leading one
    acc = _INF
    for c in reversed(commitments):
        if acc[2]:
            base = acc
            for bit in bits:
                acc = _jac_double(*acc)
                if bit == "1":
                    acc = _jac_add(*acc, *base)
        if not c.is_identity:
            acc = _jac_add_affine(*acc, c.x, c.y)
    return _from_jac(acc)


def _tagged(tag: bytes, parts):
    h = hashlib.sha256(_DOMAIN + tag)
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h


def tagged_hash(tag: bytes, *parts: bytes) -> bytes:
    """SHA-256 over the domain, the tag and each part with its 4-byte
    length, so no two (tag, parts) inputs share a pre-image."""
    return _tagged(tag, parts).digest()


def hash_to_scalar(tag: bytes, *parts: bytes) -> Scalar:
    return int.from_bytes(tagged_hash(tag, *parts), "big") % ORDER


def hash_to_point(tag: bytes, *parts: bytes) -> GroupElement:
    """Map bytes to a curve point by try-and-increment over the x line.

    The counter goes in without a length prefix: these bytes fix H and the
    VRF outputs, so they stay as they were first defined."""
    prefix = _tagged(tag, parts)
    ctr = 0
    while True:
        h = prefix.copy()
        h.update(ctr.to_bytes(4, "big"))
        x = int.from_bytes(h.digest(), "big") % _P
        try:
            return GroupElement(x, _lift_x(b"\x02" + x.to_bytes(32, "big")))
        except ValueError:
            ctr += 1


# Second generator with unknown discrete log relative to G (used by the
# commitment scheme).
H = hash_to_point(b"generator/H", G.encode())
precompute_base(H)


def scalar_bytes(s: Scalar) -> bytes:
    return (s % ORDER).to_bytes(32, "little")


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
    sk = _keygen_secret(seed)
    return KeyPair(sk, G.mul(sk))


def keygen_batch(seeds: Sequence[bytes]) -> list[KeyPair]:
    """[keygen(seed) for seed in seeds], for seeds that belong to separate
    parties (the pool lottery's registrants, each deriving its own key).

    Independent parties' work runs on every usable CPU: forking.fork_map
    splits the seeds into chunks of at least forking.CHUNK_MIN, one per
    CPU, and each chunk takes its public keys from one mul_batch over G.
    A smaller batch is one in-process call.  The keys are the same for any
    CPU count."""
    return fork_map(_keygen_chunk, seeds)


def _keygen_chunk(seeds: Sequence[bytes]) -> list[KeyPair]:
    sks = [_keygen_secret(seed) for seed in seeds]
    return [KeyPair(sk, pk) for sk, pk in zip(sks, mul_batch(sks, [G] * len(sks)))]


def _keygen_secret(seed: bytes) -> Scalar:
    if not seed:
        raise ValueError("seed must be non-empty")
    return hash_to_scalar(b"keygen", seed) or 1


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


def encrypt(pk: GroupElement, m: int, r: Scalar) -> Ciphertext:
    if not 0 <= m < ANALYTICS_BOUND:
        raise PlaintextOutOfBound(f"message {m} outside [0, {ANALYTICS_BOUND})")
    return Ciphertext(G.mul(r), msm((m, r), (G, pk)))


def decrypt(sk: Scalar, ct: Ciphertext) -> GroupElement:
    """Strip the mask; the message stays in the exponent (returns m*G)."""
    return ct.c2 - ct.c1.mul(sk)


def combine_ciphertexts(weights: Sequence[int], cts: Sequence[Ciphertext]) -> Ciphertext:
    """sum(w_i * ct_i), an encryption of the weights' dot product with the
    plaintexts: one multi-scalar multiply per component."""
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    return Ciphertext(msm(weights, [ct.c1 for ct in cts]), msm(weights, [ct.c2 for ct in cts]))


def encrypt_vector(key: KeyPair | GroupElement, msgs: Sequence[int], rng) -> list[Ciphertext]:
    """Encrypt each entry under a key pair or a bare public key.

    The key holder knows sk, so m*G + r*pk is (m + r*sk)*G: both halves of
    every ciphertext are products of G, all 2N of them one mul_batch.
    Under a bare key each of the 2N points is one lane of _sum_lanes, the
    window-table entries of its multiplies summed affine with one
    inversion per step across all lanes: the c2 lane holds the mask r*pk,
    as the r-entries of pk's table when pk is long-lived (the pool
    threshold key) and otherwise as one point from a mul_batch over pk,
    and then the m-entries of G's table.
    """
    for m in msgs:
        if not 0 <= m < ANALYTICS_BOUND:
            raise PlaintextOutOfBound(f"message {m} outside [0, {ANALYTICS_BOUND})")
    rs = [random_scalar(rng) for _ in msgs]
    if isinstance(key, KeyPair):
        scalars = [k for r, m in zip(rs, msgs) for k in (r, (m + r * key.sk) % ORDER)]
        flat = mul_batch(scalars, [G] * len(scalars))
    else:
        g_table = _base_table(_GX, _GY)
        table = _base_table(key.x, key.y)
        if table is None:
            masks = [[] if a.is_identity else [(a.x, a.y)] for a in mul_batch(rs, [key] * len(rs))]
        else:
            masks = [_window_points(r, table, []) for r in rs]
        lanes = []
        for r, m, mask in zip(rs, msgs, masks):
            lanes.append(_window_points(r, g_table, []))
            lanes.append(_window_points(m, g_table, mask))
        flat = [IDENTITY if a is None else GroupElement(*a) for a in _sum_lanes(lanes)]
    return [Ciphertext(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


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


def sign(kp: KeyPair, msg: bytes, rng, tag: bytes) -> Signature:
    k = random_scalar(rng)
    R = G.mul(k)
    c = hash_to_scalar(tag, kp.pk.encode(), R.encode(), msg)
    s = (k - c * kp.sk) % ORDER
    return Signature(c, s)


def verify_sig(pk: GroupElement, msg: bytes, sig: Signature, tag: bytes) -> bool:
    if not (0 <= sig.challenge < ORDER and 0 <= sig.response < ORDER):
        return False
    R = msm((sig.response, sig.challenge), (G, pk))
    return hash_to_scalar(tag, pk.encode(), R.encode(), msg) == sig.challenge


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
    return tagged_hash(b"kdf/hybrid", shared.encode(), eph_pk.encode())


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
    return tagged_hash(b"kdf/dh", shared.encode())
