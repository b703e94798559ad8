"""Deterministic simulated proof-of-authority sidechain.

One validator keypair stands in for the whole validator set: private-input
transactions carry their arguments encrypted to it, and the decryption
happens only inside block execution, so serialized blocks never contain
the plaintext.  Blocks execute queued transactions in submission order;
per-transaction failures are recorded in receipts and never abort the
block.  The full chain state hashes canonically after every block, and
identical (seed, transaction sequence) reproduce identical hashes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .codec import canonical_json, decode_args, encode_args, to_wire
from .group import (
    AuthenticationFailure,
    GroupElement,
    HybridCiphertext,
    KeyPair,
    Signature,
    keygen,
    precompute_base,
    sign,
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
    "BadNonce",
    "UnknownSender",
    "address_from_pk",
    "private_wrap",
    "multi_chain",
]

Address = bytes  # 20 bytes


class BadNonce(Exception):
    pass


class UnknownSender(Exception):
    pass


class ContractError(Exception):
    """Raised by contract code; recorded in the receipt, never fatal."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(f"{code}: {detail}" if detail else code)


def address_from_pk(pk: GroupElement) -> Address:
    return hashlib.sha256(b"addr" + pk.encode()).digest()[:20]


def _contract_address(kind: str, deployer: Address, nonce: int) -> Address:
    return hashlib.sha256(b"contract" + kind.encode() + deployer + nonce.to_bytes(8, "big")).digest()[:20]


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
        self.chain.balances[src] = balance - amount
        self.chain.balances[dst] = self.chain.balances.get(dst, 0) + amount

    def validator_decrypt(self, blob: HybridCiphertext) -> bytes:
        from .group import hybrid_decrypt

        return hybrid_decrypt(self.chain.validator_keypair.sk, blob)

    def sign_aggregate(self, message: bytes) -> Signature:
        return sign(self.chain.aggregate_keypair.sk, message, self.rng, tag=b"sig/aggregate")

    def contract(self, address: Address):
        try:
            return self.chain.contracts[address]
        except KeyError:
            raise ContractError("UnknownContract", address.hex())

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
        self.balances: dict[Address, int] = {}
        self.nonces: dict[Address, int] = {}
        self.contracts: dict[Address, object] = {}
        self.contract_classes: dict[str, type] = {}
        self.notes: dict[bytes, object] = {}  # tx_ref -> TransferNote
        self.redeemed: dict[bytes, bool] = {}
        self.note_pool_value = 0
        self.genesis_total = 0
        self.pending: list[Transaction] = []
        self.blocks: list[Block] = []
        self.receipts: dict[str, Receipt] = {}
        self._wrap_counter = 0
        for address, balance in (genesis_accounts or {}).items():
            self.create_account(address, balance, genesis=True)

    # -- accounts ----------------------------------------------------------

    def create_account(self, address: Address, balance: int = 0, genesis: bool = False):
        if address in self.nonces:
            return
        self.nonces[address] = 0
        self.balances[address] = self.balances.get(address, 0) + balance
        if genesis:
            self.genesis_total += balance
        elif balance:
            raise ValueError("only genesis accounts may mint balance")

    def next_nonce(self, address: Address) -> int:
        try:
            return self.nonces[address]
        except KeyError:
            raise UnknownSender(address.hex())

    # -- transactions ------------------------------------------------------

    def submit_tx(self, tx: Transaction) -> str:
        if tx.sender not in self.nonces:
            raise UnknownSender(tx.sender.hex())
        if tx.nonce != self.nonces[tx.sender]:
            raise BadNonce(f"expected {self.nonces[tx.sender]}, got {tx.nonce}")
        self.nonces[tx.sender] += 1
        self.pending.append(tx)
        return self._tx_hash(tx)

    def call(self, sender: Address, target: Address, function: str, args, private: bool = False, rng=None) -> str:
        """Build, optionally encrypt, and submit a contract call."""
        raw = encode_args(args)
        if private:
            if rng is None:
                self._wrap_counter += 1
                rng = self._rng.child(f"wrap/{self._wrap_counter}")
            raw = private_wrap(self.validator_keypair.pk, raw, rng).encode()
        return self.submit_tx(Transaction(sender, target, function, raw, self.next_nonce(sender), private))

    def _tx_hash(self, tx: Transaction) -> str:
        return hashlib.sha256(json.dumps(tx.record(), sort_keys=True).encode()).hexdigest()[:32]

    # -- contracts ---------------------------------------------------------

    def register_contract_class(self, kind: str, cls: type):
        self.contract_classes[kind] = cls

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
            if tx.private:
                raw = ctx.validator_decrypt(HybridCiphertext.decode(tx.args))
            else:
                raw = tx.args
            args = decode_args(raw)
            if tx.target is None:
                ret = self._native_call(ctx, tx, args)
            else:
                contract = ctx.contract(tx.target)
                ret = contract.call(ctx, tx.function, args)
            return Receipt(tx_hash, True, ret=ret)
        except ContractError as exc:
            return Receipt(tx_hash, False, error=str(exc))
        except AuthenticationFailure:
            return Receipt(tx_hash, False, error="AuthenticationFailure: private args undecryptable")
        except Exception as exc:  # malformed args etc.
            return Receipt(tx_hash, False, error=f"{type(exc).__name__}: {exc}")

    def _native_call(self, ctx: ExecutionContext, tx: Transaction, args):
        if tx.function == "deploy":
            kind = args["kind"]
            if kind not in self.contract_classes:
                raise ContractError("UnknownContractKind", kind)
            address = _contract_address(kind, tx.sender, tx.nonce)
            instance = self.contract_classes[kind](address, tx.sender, args.get("params", {}))
            self.contracts[address] = instance
            return {"address": address}
        if tx.function == "submit_batch":
            return self._apply_batch(ctx, tx.sender, args)
        if tx.function == "redeem_note":
            return self._redeem_note(ctx, tx.sender, args)
        if tx.function == "transfer":
            ctx.transfer(tx.sender, args["to"], args["amount"])
            return None
        raise ContractError("UnknownFunction", tx.function)

    def _apply_batch(self, ctx: ExecutionContext, sender: Address, args):
        batch = deserialize_batch(args["batch"])
        total = args["total"]
        if not verify_batch(batch, total):
            raise ContractError("InvalidBatchProof")
        for note in batch.notes:
            if note.tx_ref in self.notes:
                raise ContractError("DuplicateTxRef", note.tx_ref.hex())
        balance = self.balances.get(sender, 0)
        if balance < total:
            raise ContractError("InsufficientBalance", f"batch total {total} exceeds {balance}")
        self.balances[sender] = balance - total
        self.note_pool_value += total
        for note in batch.notes:
            self.notes[note.tx_ref] = note
        return {"notes": [note.tx_ref for note in batch.notes]}

    def _redeem_note(self, ctx: ExecutionContext, sender: Address, args):
        note = self.notes.get(args["tx_ref"])
        if note is None:
            raise ContractError("UnknownTxRef")
        if note.recipient != sender:
            raise ContractError("NotNoteRecipient")
        if self.redeemed.get(note.tx_ref):
            raise ContractError("AlreadyRedeemed")
        if not open_verify(note.commitment, args["blinding"], args["amount"]):
            raise ContractError("BadOpening")
        self.redeemed[note.tx_ref] = True
        self.note_pool_value -= args["amount"]
        self.balances[sender] = self.balances.get(sender, 0) + args["amount"]
        return None

    # -- state -------------------------------------------------------------

    def state_view(self) -> dict:
        """Full structured chain state (the hashing pre-image)."""
        return {
            "balances": {a.hex(): v for a, v in sorted(self.balances.items())},
            "nonces": {a.hex(): v for a, v in sorted(self.nonces.items())},
            "contracts": {a.hex(): self.contracts[a].state_dict() for a in sorted(self.contracts)},
            "notes": [to_wire(self.notes[ref]) for ref in sorted(self.notes)],
            "redeemed": sorted(ref.hex() for ref, done in self.redeemed.items() if done),
            "pool_value": self.note_pool_value,
        }

    def state_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.state_view()).encode()).hexdigest()

    def dump_state(self, path):
        with open(path, "w") as fh:
            fh.write(canonical_json(self.state_view()) + "\n")

    def conservation_holds(self) -> bool:
        return sum(self.balances.values()) + self.note_pool_value == self.genesis_total

    def dump_blocks(self, path):
        with open(path, "w") as fh:
            for block in self.blocks:
                fh.write(json.dumps(block.record(), sort_keys=True, separators=(",", ":")) + "\n")


def multi_chain(n: int, seed, genesis_per_chain) -> list[Chain]:
    """n fully independent chains; genesis_per_chain[i] maps address->balance."""
    if n < 1:
        raise ValueError("need at least one chain")
    return [Chain(i, seed, genesis_per_chain[i] if genesis_per_chain else None) for i in range(n)]
