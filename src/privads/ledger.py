"""Deterministic simulated proof-of-authority sidechain.

One validator keypair stands in for the whole validator set: private-input
transactions carry their arguments encrypted to it, and the decryption
happens only inside block execution, so serialized blocks never contain
the plaintext.  Blocks execute queued transactions in submission order.
Every entry point, native or contract, declares its arguments once as the
typed keyword-only parameters of its own signature (entry_point), and a
call's args are checked against them before it runs.  A ContractError is
a failed receipt and the block goes on; any other exception is a bug and
escapes mine_block.  The full chain state hashes canonically after every
block, and identical (seed, transaction sequence) reproduce identical
hashes.  That state is the chain's fields listed in state_view plus, for
each contract, its kind and every public attribute (state_dict); contract
memory that is not state is underscore-named.

Only transactions change that state.  Genesis balances are set when the
chain is made; after that an account enters `nonces` with the first
transaction it sends and `balances` with the first credit it receives
(a zero transfer is not a credit), and nothing else creates one.  A
deployable contract kind is one that a contract class declares
(CONTRACT_KINDS).  Every mined block must conserve tokens: balances
plus the value held in unredeemed notes equal the genesis total, or
mine_block raises ConservationBroken before it appends the block.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import dataclass
from typing import get_type_hints

from .codec import canonical_json, decode_args, encode_args, to_wire, type_error
from .group import (
    AuthenticationFailure,
    GroupElement,
    HybridCiphertext,
    KeyPair,
    Signature,
    keygen,
    precompute_base,
    sign,
    tagged_hash,
)
from .payments import deserialize_batch, open_verify, verify_batch
from .rng import Rng

__all__ = [
    "Address",
    "Transaction",
    "Receipt",
    "Block",
    "Chain",
    "ContractError",
    "ExecutionContext",
    "entry_point",
    "entry_points",
    "BadNonce",
    "ConservationBroken",
    "address_from_pk",
    "private_wrap",
]


class Address(bytes):
    """An account or contract address: an entry point argument declared
    Address takes bytes of exactly SIZE bytes (codec.type_error)."""

    SIZE = 20


class BadNonce(Exception):
    pass


class ConservationBroken(Exception):
    """The block at `height` left balances plus the note pool unequal to
    the genesis total: some code minted or burned tokens.  A bug, so it
    escapes mine_block before the block is appended."""

    def __init__(self, height: int):
        self.height = height
        super().__init__(f"token conservation broken in block {height}")


class ContractError(Exception):
    """A failure the protocol expects, named by a code: malformed or
    mistyped args, a caller or state the entry point refuses, a proof or
    signature that does not verify.  Its receipt records "code: detail"
    and the block goes on.  Contract code raises nothing else on purpose."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(f"{code}: {detail}" if detail else code)


def entry_point(fn):
    """Declare a transaction entry point, or a contract constructor whose
    args are a deploy's params: its keyword-only parameters (`wire_params`)
    are the args a call must carry.  The wrapper takes the context and then
    the args dict, and calls fn only if the dict has exactly those keys and
    each value fits its annotation; ContractError("BadArgs") otherwise."""
    hints = get_type_hints(fn)
    params = {name: hints[name] for name, p in inspect.signature(fn).parameters.items() if p.kind is p.KEYWORD_ONLY}

    @functools.wraps(fn)
    def call(*context_and_args):
        *context, args = context_and_args
        if not isinstance(args, dict):
            raise ContractError("BadArgs", f"args: expected dict, got {type(args).__name__}")
        wrong = [f"missing {name}" for name in params if name not in args]
        wrong += [f"unknown {key}" for key in args if key not in params]
        if wrong:
            raise ContractError("BadArgs", ", ".join(wrong))
        for name, hint in params.items():
            error = type_error(args[name], hint, name)
            if error:
                raise ContractError("BadArgs", error)
        return fn(*context, **args)

    call.wire_params = params
    return call


def entry_points(cls) -> frozenset:
    """The call names of cls's @entry_point methods, its constructor aside:
    each method's name without a leading underscore."""
    return frozenset(
        name.removeprefix("_") for name, f in vars(cls).items() if hasattr(f, "wire_params") and name != "__init__"
    )


# Deployable contract kinds, KIND -> class: each contract class enters
# itself as it is defined (contracts._Contract.__init_subclass__).
CONTRACT_KINDS: dict[str, type] = {}


def address_from_pk(pk: GroupElement) -> Address:
    return tagged_hash(b"addr", pk.encode())[:20]


def _contract_address(kind: str, deployer: Address, nonce: int) -> Address:
    return tagged_hash(b"contract", kind.encode(), deployer, nonce.to_bytes(8, "big"))[:20]


def private_wrap(validator_pk: GroupElement, args: bytes, rng) -> HybridCiphertext:
    """Encrypt call arguments to the validator key for a private-input tx."""
    from .group import hybrid_encrypt

    return hybrid_encrypt(validator_pk, args, rng)


@dataclass(frozen=True)
class Transaction:
    sender: Address
    target: Address | None  # None: deployment or ledger-native call
    function: str
    args: bytes  # canonical args, or an encoded HybridCiphertext if private
    nonce: int
    private: bool = False

    def record(self) -> dict:
        return {
            "sender": self.sender.hex(),
            "target": self.target.hex() if self.target else None,
            "function": self.function,
            "args": self.args.hex(),
            "nonce": self.nonce,
            "private": self.private,
        }


@dataclass
class Receipt:
    tx_hash: str
    ok: bool
    error: str | None = None
    ret: object = None

    def record(self) -> dict:
        return {"tx": self.tx_hash, "ok": self.ok, "error": self.error, "ret": to_wire(self.ret)}


@dataclass
class Block:
    height: int
    parent: str
    tx_records: list
    receipt_records: list
    state_hash: str
    block_hash: str = ""

    def record(self) -> dict:
        return {
            "height": self.height,
            "parent": self.parent,
            "txs": self.tx_records,
            "receipts": self.receipt_records,
            "state": self.state_hash,
            "hash": self.block_hash,
        }

    @staticmethod
    def compute_hash(height, parent, tx_records, receipt_records, state_hash) -> str:
        body = json.dumps(
            {"height": height, "parent": parent, "txs": tx_records, "receipts": receipt_records, "state": state_hash},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(body.encode()).hexdigest()


class ExecutionContext:
    """Per-transaction view handed to contract code during block execution."""

    def __init__(self, chain: "Chain", sender: Address, height: int, tx_tag: str, private: bool = False):
        self.chain = chain
        self.sender = sender
        self.height = height
        self.private = private
        self.rng = chain._rng.child(f"exec/{tx_tag}")

    def transfer(self, src: Address, dst: Address, amount: int):
        if amount < 0:
            raise ContractError("NegativeTransfer")
        balance = self.chain.balances.get(src, 0)
        if balance < amount:
            raise ContractError("InsufficientBalance", f"{src.hex()} holds {balance} < {amount}")
        if not amount:
            return  # a zero amount is not a credit, so it creates no account
        self.chain.balances[src] = balance - amount
        self.chain.balances[dst] = self.chain.balances.get(dst, 0) + amount

    def validator_decrypt(self, blob: HybridCiphertext) -> bytes:
        from .group import hybrid_decrypt

        return hybrid_decrypt(self.chain.validator_keypair.sk, blob)

    def sign_aggregate(self, message: bytes) -> Signature:
        return sign(self.chain.aggregate_keypair, message, self.rng, tag=b"sig/aggregate")

    def contract(self, address: Address | None, kind: str = ""):
        """The contract at `address`, of `kind` if one is named: NotLinked
        without an address, UnknownContract without such a contract."""
        if address is None:
            raise ContractError("NotLinked", f"no {kind} contract linked")
        contract = self.chain.contracts.get(address)
        if contract is None or kind not in ("", contract.KIND):
            raise ContractError("UnknownContract", f"no {kind or 'such'} contract at {address.hex()}")
        return contract

    def note(self, tx_ref: bytes):
        return self.chain.notes.get(tx_ref)


class Chain:
    """A single simulated sidechain with its own state and validator key."""

    def __init__(self, chain_id: int, seed, genesis_accounts: dict | None = None):
        self.chain_id = chain_id
        self._rng = Rng(seed).child(f"chain/{chain_id}")
        self.validator_keypair: KeyPair = keygen(self._rng.child("validator").take_bytes(32))
        self.aggregate_keypair: KeyPair = keygen(self._rng.child("aggregate-signer").take_bytes(32))
        # Every private transaction is wrapped to the validator key and every
        # claim checks two aggregate signatures: both serve the whole run.
        precompute_base(self.validator_keypair.pk)
        precompute_base(self.aggregate_keypair.pk)
        self.balances: dict[Address, int] = dict(genesis_accounts or {})
        self.genesis_total = sum(self.balances.values())
        self.nonces: dict[Address, int] = {}
        self.contracts: dict[Address, object] = {}
        self.notes: dict[bytes, object] = {}  # tx_ref -> TransferNote
        self.redeemed: set[bytes] = set()  # tx_refs of redeemed notes
        self.note_pool_value = 0
        self.pending: list[Transaction] = []
        self.blocks: list[Block] = []
        self.receipts: dict[str, Receipt] = {}

    # -- transactions ------------------------------------------------------

    def next_nonce(self, address: Address) -> int:
        return self.nonces.get(address, 0)

    def submit_tx(self, tx: Transaction) -> str:
        expected = self.next_nonce(tx.sender)
        if tx.nonce != expected:
            raise BadNonce(f"expected {expected}, got {tx.nonce}")
        self.nonces[tx.sender] = expected + 1
        self.pending.append(tx)
        return self._tx_hash(tx)

    def call(self, sender: Address, target: Address, function: str, args, private: bool = False, rng=None) -> str:
        """Build, optionally encrypt, and submit a contract call.  A private
        call's args are encrypted to the validator key with randomness from
        `rng`, which it must be given."""
        raw = encode_args(args)
        if private:
            if rng is None:
                raise ValueError("a private call needs the rng that wraps its args")
            raw = private_wrap(self.validator_keypair.pk, raw, rng).encode()
        return self.submit_tx(Transaction(sender, target, function, raw, self.next_nonce(sender), private))

    def _tx_hash(self, tx: Transaction) -> str:
        return hashlib.sha256(json.dumps(tx.record(), sort_keys=True).encode()).hexdigest()[:32]

    def receipt(self, receipt_id: str) -> Receipt:
        return self.receipts[receipt_id]

    # -- blocks ------------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.blocks)

    def mine_block(self) -> Block:
        txs, self.pending = self.pending, []
        height = self.height
        tx_records, receipt_records = [], []
        for index, tx in enumerate(txs):
            receipt = self._execute(tx, height, index)
            tx_records.append(tx.record())
            receipt_records.append(receipt.record())
            self.receipts[receipt.tx_hash] = receipt
        if not self.conservation_holds():
            raise ConservationBroken(height)
        state_hash = self.state_hash()
        parent = self.blocks[-1].block_hash if self.blocks else "genesis"
        block = Block(height, parent, tx_records, receipt_records, state_hash)
        block.block_hash = Block.compute_hash(height, parent, tx_records, receipt_records, state_hash)
        self.blocks.append(block)
        return block

    def _execute(self, tx: Transaction, height: int, index: int) -> Receipt:
        tx_hash = self._tx_hash(tx)
        ctx = ExecutionContext(self, tx.sender, height, f"{height}/{index}", private=tx.private)
        try:
            args = self._open_args(ctx, tx)
            if tx.target is None:
                ret = self._native_call(ctx, tx, args)
            else:
                ret = ctx.contract(tx.target).call(ctx, tx.function, args)
        except ContractError as exc:
            return Receipt(tx_hash, False, error=str(exc))
        return Receipt(tx_hash, True, ret=ret)

    def _open_args(self, ctx: ExecutionContext, tx: Transaction):
        """The call's args value, decrypted first if private."""
        try:
            raw = ctx.validator_decrypt(HybridCiphertext.decode(tx.args)) if tx.private else tx.args
            return decode_args(raw)
        except AuthenticationFailure:
            raise ContractError("AuthenticationFailure", "private args undecryptable") from None
        except ValueError as exc:
            raise ContractError("MalformedArgs", str(exc)) from None

    NATIVES: frozenset  # entry_points(Chain), set below the class

    def _native_call(self, ctx: ExecutionContext, tx: Transaction, args):
        if tx.function not in self.NATIVES:
            raise ContractError("UnknownFunction", tx.function)
        return getattr(self, f"_{tx.function}")(ctx, tx, args)

    @entry_point
    def _deploy(self, ctx: ExecutionContext, tx: Transaction, *, kind: str, params: dict):
        if kind not in CONTRACT_KINDS:
            raise ContractError("UnknownContractKind", kind)
        address = _contract_address(kind, tx.sender, tx.nonce)
        self.contracts[address] = CONTRACT_KINDS[kind](address, tx.sender, params)
        return {"address": address}

    @entry_point
    def _submit_batch(self, ctx: ExecutionContext, tx: Transaction, *, batch: bytes, total: int):
        try:
            settlement = deserialize_batch(batch)
        except ValueError as exc:
            raise ContractError("MalformedBatch", str(exc)) from None
        if not verify_batch(settlement, total):
            raise ContractError("InvalidBatchProof")
        for note in settlement.notes:
            if note.tx_ref in self.notes:
                raise ContractError("DuplicateTxRef", note.tx_ref.hex())
        balance = self.balances.get(tx.sender, 0)
        if balance < total:
            raise ContractError("InsufficientBalance", f"batch total {total} exceeds {balance}")
        self.balances[tx.sender] = balance - total
        self.note_pool_value += total
        for note in settlement.notes:
            self.notes[note.tx_ref] = note
        return {"notes": [note.tx_ref for note in settlement.notes]}

    @entry_point
    def _redeem_note(self, ctx: ExecutionContext, tx: Transaction, *, tx_ref: bytes, blinding: int, amount: int):
        note = self.notes.get(tx_ref)
        if note is None:
            raise ContractError("UnknownTxRef")
        if note.recipient != tx.sender:
            raise ContractError("NotNoteRecipient")
        if note.tx_ref in self.redeemed:
            raise ContractError("AlreadyRedeemed")
        if not open_verify(note.commitment, blinding, amount):
            raise ContractError("BadOpening")
        self.redeemed.add(note.tx_ref)
        self.note_pool_value -= amount
        if amount:  # a zero amount is not a credit, so it creates no account
            self.balances[tx.sender] = self.balances.get(tx.sender, 0) + amount
        return None

    @entry_point
    def _transfer(self, ctx: ExecutionContext, tx: Transaction, *, to: Address, amount: int):
        ctx.transfer(tx.sender, to, amount)
        return None

    # -- state -------------------------------------------------------------

    def state_view(self) -> dict:
        """Full chain state (the hashing pre-image), as plain values that
        codec.canonical_json wires."""
        return {
            "balances": {a.hex(): v for a, v in sorted(self.balances.items())},
            "nonces": {a.hex(): v for a, v in sorted(self.nonces.items())},
            "contracts": {a.hex(): self.contracts[a].state_dict() for a in sorted(self.contracts)},
            "notes": [self.notes[ref] for ref in sorted(self.notes)],
            "redeemed": sorted(ref.hex() for ref in self.redeemed),
            "pool_value": self.note_pool_value,
        }

    def state_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.state_view()).encode()).hexdigest()

    def conservation_holds(self) -> bool:
        return sum(self.balances.values()) + self.note_pool_value == self.genesis_total


Chain.NATIVES = entry_points(Chain)

