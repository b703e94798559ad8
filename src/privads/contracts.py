"""Policy and fund contracts: the two replicated state machines.

The policy contract stores the encrypted per-ad reward values and computes
each user's encrypted reward aggregate homomorphically; policies are only
ever decrypted inside validated block execution.  The fund contract
escrows advertiser stakes, buffers verified payment requests, settles
fees/refunds at campaign close, and adjudicates misbehavior complaints.
Any validated complaint flips its status to "failed", which is absorbing:
no fee payout or further settlement happens afterwards.  The two contracts
of a campaign are a pair: the fund contract links only a policy contract
deployed for it with the same catalog, and a policy contract reaches its
fund contract only once that link is in place.

Each transaction entry point is a method marked @entry_point whose
keyword-only parameters declare, with their types, the args a call must
carry; FUNCTIONS is the set of those names, and a call to any other name
fails with UnknownFunction.  Args that do not fit the declaration fail
with BadArgs before any contract code runs, and contract code turns every
failure it expects into a ContractError code.

A contract's state, which the chain's state hash covers, is its KIND plus
every public attribute; memory that is not state (a decrypted cache, the
pool key's commitment cache) is underscore-named.  No contract lists its
fields a second time.
"""

from __future__ import annotations

from .codec import encode_args
from .group import (
    ANALYTICS_BOUND,
    G,
    ORDER,
    AuthenticationFailure,
    GroupElement,
    Ciphertext,
    HybridCiphertext,
    NoSolutionInBound,
    Signature,
    combine_ciphertexts,
    recover_plaintext,
    sym_decrypt,
    verify_sig,
)
from .ledger import CONTRACT_KINDS, Address, ContractError, ExecutionContext, entry_point, entry_points
from .payments import open_verify
from .proofs import DecryptionProof, verify_decryption
from .threshold import InvalidShareProof, PartialDecryption, ThresholdPublicKey, combine_verified_partials, verify_partials

__all__ = ["PolicyContract", "FundContract", "policy_blob", "policy_value", "MAX_CATALOG"]

# Largest catalog a contract accepts: both allocate per-slot state at deploy.
MAX_CATALOG = 1 << 16


def policy_blob(value: int) -> bytes:
    """Plaintext encoding of one policy value before symmetric encryption."""
    return value.to_bytes(8, "big")


def policy_value(blob: bytes) -> int:
    return int.from_bytes(blob, "big")


def aggregate_message(user_pk: GroupElement, ct: Ciphertext) -> bytes:
    """Bytes signed by the aggregate-signing key for one stored aggregate."""
    return encode_args({"user_pk": user_pk, "aggregate": ct})


def settlement_message(fsc: Address, amount: int, counter: int) -> bytes:
    """Bytes the facilitator signs to pull `amount` from fund contract
    `fsc` as its settlement number `counter`."""
    return encode_args(["settlement", fsc, amount, counter])


def _check_catalog_size(catalog_size: int):
    if not 1 <= catalog_size <= MAX_CATALOG:
        raise ContractError("BadParams", f"catalog_size {catalog_size} outside [1, {MAX_CATALOG}]")


class _Contract:
    """Dispatch of a transaction to one of its subclass's entry points.
    Defining a subclass makes its KIND deployable."""

    KIND: str
    FUNCTIONS: frozenset

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.FUNCTIONS = entry_points(cls)
        CONTRACT_KINDS[cls.KIND] = cls

    def call(self, ctx: ExecutionContext, function: str, args):
        # Looked up by name on every call, so a method replaced on the class
        # (a tracing wrapper, say) is the one that runs.
        if function not in self.FUNCTIONS:
            raise ContractError("UnknownFunction", function)
        return getattr(self, function)(ctx, args)

    def _require_cf(self, ctx):
        if ctx.sender != self.cf_account:
            raise ContractError("NotCF")

    def _state(self) -> dict:
        """The contract's kind plus every public attribute, as plain values
        that codec.canonical_json wires and sorts.  The values are the live
        attributes, not copies, so a caller that keeps a state to compare
        with a later one serializes it first.  Each contract class still
        defines its own state_dict, so perfbench/tracing.py can wrap it on
        that class."""
        return {"kind": self.KIND, **{k: v for k, v in vars(self).items() if not k.startswith("_")}}


class PolicyContract(_Contract):
    """Per-catalog reward computation and payment-request validation."""

    KIND = "psc"

    @entry_point
    def __init__(self, address, deployer, *, cf_pk: GroupElement, catalog_size: int, fsc: Address, reward_cap: int):
        _check_catalog_size(catalog_size)
        self.address = address
        self.cf_account = deployer
        self.cf_pk = cf_pk
        self.catalog_size = catalog_size
        self.fsc_address = fsc
        self.reward_cap = reward_cap
        self.enc_policies: list = [None] * self.catalog_size
        self.enc_keys: list = [None] * self.catalog_size
        self.threshold_key: GroupElement | None = None
        self.aggregates: dict[bytes, Ciphertext] = {}
        self.aggregate_signatures: dict[bytes, Signature] = {}
        self.reported_vectors: list = []  # (period, user_pk bytes, tuple[Ciphertext])
        self.requested_this_period: dict[bytes, bool] = {}  # user pk bytes -> True
        self.period = 0
        # Contract memory outside the state: the policy values, decrypted on
        # first use once fsc.init has frozen enc_policies and enc_keys.
        self._policy_values: tuple | None = None

    # -- campaign setup -------------------------------------------------------

    def _fsc(self, ctx) -> "FundContract":
        """The fund contract this one was deployed for, once it has linked
        back: a psc pointing at another campaign's fsc reaches nothing."""
        fsc = ctx.contract(self.fsc_address, FundContract.KIND)
        if fsc.psc_address != self.address:
            raise ContractError("NotLinked", f"fsc {self.fsc_address.hex()} is not linked to this psc")
        return fsc

    @entry_point
    def store_policy(self, ctx, *, index: int, enc_policy: bytes):
        self._require_cf(ctx)
        if self._fsc(ctx).init:
            raise ContractError("AlreadyInitialized")
        if not 0 <= index < self.catalog_size:
            raise ContractError("IndexOutOfRange", str(index))
        self.enc_policies[index] = enc_policy
        return None

    @entry_point
    def store_encrypted_keys(self, ctx, *, enc_keys: list[HybridCiphertext], sig: Signature):
        if len(enc_keys) != self.catalog_size:
            raise ContractError("LengthMismatch")
        if not verify_sig(self.cf_pk, encode_args(enc_keys), sig, tag=b"sig/enc-keys"):
            raise ContractError("BadSignature")
        if self._fsc(ctx).init:
            raise ContractError("AlreadyInitialized")
        self.enc_keys = list(enc_keys)
        return None

    @entry_point
    def store_threshold_key(self, ctx, *, pk: GroupElement):
        if self.threshold_key is not None:
            raise ContractError("AlreadyInitialized", "threshold key already published")
        self.threshold_key = pk
        return None

    # -- reward aggregation ----------------------------------------------------

    def _decrypt_policies(self, ctx) -> tuple:
        if self._policy_values is not None:
            return self._policy_values
        if any(k is None for k in self.enc_keys) or any(p is None for p in self.enc_policies):
            raise ContractError("PolicyNotLoaded")
        try:
            values = tuple(
                policy_value(sym_decrypt(ctx.validator_decrypt(enc_key), enc_policy))
                for enc_key, enc_policy in zip(self.enc_keys, self.enc_policies)
            )
        except AuthenticationFailure:
            raise ContractError("AuthenticationFailure", "a stored policy does not open") from None
        if self._fsc(ctx).init:
            self._policy_values = values
        return values

    @entry_point
    def compute_aggregate(self, ctx, *, user_pk: GroupElement, enc_vec: list[Ciphertext], enc_vec_prime: list[Ciphertext]):
        if len(enc_vec) != self.catalog_size or len(enc_vec_prime) != self.catalog_size:
            raise ContractError("LengthMismatch")
        if not self._fsc(ctx).init:
            raise ContractError("NotInitialized")
        key = user_pk.encode()
        if key in self.aggregates:
            raise ContractError("DuplicateClaim")
        aggregate = combine_ciphertexts(self._decrypt_policies(ctx), enc_vec)
        self.aggregates[key] = aggregate
        self.aggregate_signatures[key] = ctx.sign_aggregate(aggregate_message(user_pk, aggregate))
        self.reported_vectors.append((self.period, key, tuple(enc_vec_prime)))
        return None

    def get_aggregate(self, user_pk: GroupElement):
        """Off-chain read used by clients between blocks."""
        key = user_pk.encode()
        if key not in self.aggregates:
            raise ContractError("UnknownUser")
        return self.aggregates[key], self.aggregate_signatures[key]

    def analytics_sums(self) -> list:
        """Per-slot homomorphic sum of every reported analytics vector;
        empty before the first claim."""
        vectors = [vec for _, _, vec in self.reported_vectors]
        return [combine_ciphertexts([1] * len(vectors), column) for column in zip(*vectors)]

    # -- payment requests -------------------------------------------------------

    @entry_point
    def payment_request(self, ctx, *, user_pk: GroupElement, amount: int, proof: DecryptionProof, payout_address: Address):
        if not ctx.private:
            raise ContractError("NotPrivate", "payment requests must be private-input")
        key = user_pk.encode()
        if key not in self.aggregates:
            raise ContractError("UnknownUser")
        if not verify_decryption(user_pk, self.aggregates[key], G.mul(amount), proof):
            raise ContractError("BadProof")
        if key in self.requested_this_period:
            raise ContractError("DuplicateRequest")
        if amount < 0:
            raise ContractError("NegativeAmount", str(amount))
        if amount > self.reward_cap:
            raise ContractError("CapExceeded", f"{amount} > {self.reward_cap}")
        self._fsc(ctx).buffer_payment(payout_address, amount, key)
        self.requested_this_period[key] = True
        return None

    @entry_point
    def advance_period(self, ctx):
        self._require_cf(ctx)
        self.period += 1
        self.requested_this_period = {}
        return None

    def state_dict(self) -> dict:
        return self._state()


class FundContract(_Contract):
    """Escrow, buffered payments, settlement, analytics, and complaints."""

    KIND = "fsc"

    @entry_point
    def __init__(self, address, deployer, *, cf_pk: GroupElement, catalog_size: int, epoch_blocks: int):
        _check_catalog_size(catalog_size)
        self.address = address
        self.cf_account = deployer
        self.cf_pk = cf_pk
        self.catalog_size = catalog_size
        self.epoch_blocks = epoch_blocks
        self.psc_address: Address | None = None
        self.init = False
        self.status = "active"
        self.advertisers: dict[str, dict] = {}
        self.payment_requests: list[dict] = []
        self.payed_requests: dict[bytes, bytes] = {}  # payout addr -> tx_ref
        self.pool_verification: tuple | None = None  # the pool key's coefficient commitments
        self._pool_key: ThresholdPublicKey | None = None  # built from them, with its commitment cache
        self.recovery_bound: int | None = None  # registered with the pool
        self.analytics_enc_totals: list | None = None
        self.analytics_partials: list[list[PartialDecryption]] = []  # one list per post, by share index
        self.analytics_totals: list | None = None
        self.settlement_counter = 0
        self.settled_total = 0
        self.refunds_paid: dict[str, int] = {}
        self.top_up_due: dict[str, int] = {}
        self.refunds_done = False  # set by _close, which pays fees and refunds together
        self.complaints: list[dict] = []

    @entry_point
    def link_psc(self, ctx, *, psc: Address):
        self._require_cf(ctx)
        if self.psc_address is not None:
            raise ContractError("AlreadyInitialized", "psc already linked")
        policy = ctx.contract(psc, PolicyContract.KIND)
        if policy.fsc_address != self.address or policy.catalog_size != self.catalog_size:
            raise ContractError("NotLinked", "the psc was not deployed for this fsc and its catalog")
        self.psc_address = psc
        return None

    # -- advertiser onboarding --------------------------------------------------

    @entry_point
    def store_adv_id(self, ctx, *, id: str, account: Address, budget: int, fee: int, ads: list[int]):
        self._require_cf(ctx)
        if self.init:
            raise ContractError("AlreadyInitialized")
        if id in self.advertisers:
            raise ContractError("DuplicateAdvertiser", id)
        if budget < 0 or fee < 0:
            raise ContractError("NegativeAmount", f"budget {budget}, fee {fee}")
        if any(not 0 <= slot < self.catalog_size for slot in ads):
            raise ContractError("IndexOutOfRange", f"ads {ads} outside [0, {self.catalog_size})")
        taken = [slot for record in self.advertisers.values() for slot in record["ads"]]
        if len(set(ads)) != len(ads) or set(ads) & set(taken):
            raise ContractError("DuplicateSlot", f"ads {ads} repeat a slot")
        self.advertisers[id] = {"account": account, "budget": budget, "fee": fee, "ads": ads, "staked": 0}
        return None

    @entry_point
    def store_funds(self, ctx, *, id: str, amount: int):
        record = self.advertisers.get(id)
        if record is None:
            raise ContractError("UnknownAdvertiser", id)
        if self.init:
            raise ContractError("AlreadyInitialized")
        if record["staked"]:
            raise ContractError("AlreadyStaked", id)
        required = record["budget"] + record["fee"]
        if amount != required:
            raise ContractError("WrongStakeAmount", f"need {required}, got {amount}")
        if ctx.sender != record["account"]:
            raise ContractError("NotAdvertiserAccount")
        ctx.transfer(ctx.sender, self.address, amount)
        record["staked"] = amount
        if all(r["staked"] for r in self.advertisers.values()):
            self.init = True
        return None

    # -- analytics ----------------------------------------------------------------

    @entry_point
    def register_pool(self, ctx, *, verification: list[GroupElement], recovery_bound: int):
        """Fix the pool's verification vector once; its head must be the
        threshold key published in the policy contract, and its length is
        the pool's threshold k."""
        if self.pool_verification is not None:
            raise ContractError("AlreadyInitialized", "pool already registered")
        published = ctx.contract(self.psc_address, PolicyContract.KIND).threshold_key
        if published is None or not verification or verification[0] != published:
            raise ContractError("ThresholdKeyMismatch", "vector head must be the published threshold key")
        if not 1 <= recovery_bound <= ANALYTICS_BOUND:
            raise ContractError("BadRecoveryBound", f"{recovery_bound} outside [1, {ANALYTICS_BOUND}]")
        self.recovery_bound = recovery_bound
        self.pool_verification = tuple(verification)
        self._pool_key = ThresholdPublicKey(published, self.pool_verification)
        return None

    @property
    def pool_key(self) -> ThresholdPublicKey | None:
        """The registered pool key, read-only."""
        return self._pool_key

    @property
    def pool_threshold(self) -> int | None:
        """Shares needed to decrypt: one per coefficient commitment."""
        return len(self.pool_verification) if self.pool_verification else None

    @property
    def click_totals(self) -> list:
        """Per-ad clicks the campaign pays for: the analytics totals, or
        zeros until they combine."""
        return self.analytics_totals or [0] * self.catalog_size

    @entry_point
    def post_analytics(self, ctx, *, index: int, partials: list[PartialDecryption]):
        """One consensus participant posts its partial decryptions of the
        claims' summed analytics ciphertexts, checked against the
        registered pool key; at threshold the contract combines them into
        the per-ad totals.  The first post that passes fixes the sums the
        policy contract holds at that moment.  A rejected post leaves no
        trace."""
        if self.pool_key is None:
            raise ContractError("NoPoolKey")
        if len(partials) != self.catalog_size:
            raise ContractError("LengthMismatch")
        if not 1 <= index < ORDER:  # i +- ORDER would alias share i
            raise ContractError("IndexOutOfRange", str(index))
        if any(post[0].index == index for post in self.analytics_partials):
            raise ContractError("DuplicatePost", str(index))
        if any(partial.index != index for partial in partials):
            raise ContractError("IndexMismatch")
        enc_totals = self.analytics_enc_totals or ctx.contract(self.psc_address, PolicyContract.KIND).analytics_sums()
        if not enc_totals:
            raise ContractError("NoClaims", "no analytics vector to decrypt")
        try:
            verify_partials(self.pool_key, enc_totals, partials)
        except InvalidShareProof:
            raise ContractError("InvalidShareProof", str(index)) from None
        posts = sorted([*self.analytics_partials, list(partials)], key=lambda post: post[0].index)
        totals = self.analytics_totals
        if totals is None and len(posts) >= self.pool_threshold:
            # every stored post was verified when it landed
            chosen = posts[: self.pool_threshold]
            totals = []
            for slot, ct in enumerate(enc_totals):
                point = combine_verified_partials([post[slot] for post in chosen], ct, self.pool_threshold)
                try:
                    totals.append(recover_plaintext(point, self.recovery_bound))
                except NoSolutionInBound as exc:
                    raise ContractError("NoSolutionInBound", str(exc)) from None
        # Nothing above writes, so a post rejected by any check leaves no trace.
        self.analytics_enc_totals = enc_totals
        self.analytics_partials = posts
        self.analytics_totals = totals
        return {"posted": index, "combined": totals is not None}

    # -- payments -------------------------------------------------------------------

    def buffer_payment(self, payout_address: Address, amount: int, user_pk: bytes):
        """Called by the policy contract after it validated a request.  A
        payout address is paid once, so it takes one request."""
        if any(req["addr"] == payout_address for req in self.payment_requests):
            raise ContractError("DuplicatePayoutAddress", payout_address.hex())
        self.payment_requests.append({"addr": payout_address, "amount": amount, "user_pk": user_pk})

    @entry_point
    def settlement_request(self, ctx, *, amount: int, sig: Signature):
        if self.status == "failed":
            raise ContractError("CampaignFailed")
        message = settlement_message(self.address, amount, self.settlement_counter)
        if not verify_sig(self.cf_pk, message, sig, tag=b"sig/settlement"):
            raise ContractError("BadSignature")
        balance = ctx.chain.balances.get(self.address, 0)
        if amount > balance:
            raise ContractError("Overdraw", f"{amount} > escrow {balance}")
        ctx.transfer(self.address, self.cf_account, amount)
        self.settlement_counter += 1
        self.settled_total += amount
        return None

    @entry_point
    def payment_processed(self, ctx, *, tx_ref: bytes, addr: Address):
        note = ctx.note(tx_ref)
        if note is None or note.recipient != addr:
            raise ContractError("UnknownTxRef")
        if not any(req["addr"] == addr for req in self.payment_requests):
            raise ContractError("UnknownAddress")
        if addr in self.payed_requests:
            return {"already": True}
        done = len(self.payed_requests) + 1 == len(self.payment_requests)  # once this one is marked
        if done and self.analytics_totals is not None and not self.refunds_done:
            self._close(ctx)  # first, so a close that fails leaves the mark unwritten
        self.payed_requests[addr] = tx_ref
        return {"already": False, "all_paid": done}

    # -- campaign close ----------------------------------------------------------------

    def _all_paid(self) -> bool:
        return bool(self.payment_requests) and len(self.payed_requests) == len(self.payment_requests)

    def _policies(self, ctx) -> list[int]:
        return ctx.contract(self.psc_address, PolicyContract.KIND)._decrypt_policies(ctx)

    def _spent(self, policies: list[int], adv_id: str) -> int:
        clicks = self.click_totals
        return sum(policies[i] * clicks[i] for i in self.advertisers[adv_id]["ads"])

    @entry_point
    def finalize(self, ctx):
        """Explicit campaign close (epoch elapsed or everything paid)."""
        if not (self._all_paid() or ctx.height >= self.epoch_blocks):
            raise ContractError("CampaignActive")
        if self.refunds_done:
            raise ContractError("AlreadyFinalized")
        self._close(ctx)
        return None

    def _close(self, ctx):
        """The one campaign close: pay the processing fees, then refund each
        advertiser stake - spent - fee.  A failed status blocks both.
        Shortfalls are paid out as far as the escrow allows and leave an
        auditable gap.  Every check comes before the first write, so a
        close that fails writes nothing."""
        if self.status == "failed":
            return
        policies = self._policies(ctx)
        total_fees = sum(r["fee"] for r in self.advertisers.values())
        if total_fees > ctx.chain.balances.get(self.address, 0):
            raise ContractError("Overdraw", "escrow cannot cover fees")
        ctx.transfer(self.address, self.cf_account, total_fees)
        for adv_id, record in self.advertisers.items():
            owed = record["staked"] - self._spent(policies, adv_id) - record["fee"]
            if owed < 0:
                # overspent campaign: the difference is requested back
                self.top_up_due[adv_id] = -owed
                owed = 0
            paid = min(owed, ctx.chain.balances.get(self.address, 0))
            ctx.transfer(self.address, record["account"], paid)
            self.refunds_paid[adv_id] = paid
        self.refunds_done = True

    # -- complaints -------------------------------------------------------------------

    @entry_point
    def raise_complaint(self, ctx, *, tx_ref: bytes, user_pk: bytes, blinding: int, amount: int):
        """User proves the confidential payment mismatches their request."""
        note = ctx.note(tx_ref)
        if note is None:
            raise ContractError("UnknownTxRef")
        request = next((r for r in self.payment_requests if r["user_pk"] == user_pk), None)
        if request is None or note.recipient != request["addr"]:
            raise ContractError("UnknownTxRef", "note does not resolve to the user's payout address")
        if not open_verify(note.commitment, blinding, amount):
            raise ContractError("BadOpening")
        if amount == request["amount"]:
            return {"verdict": "rejected"}
        self.status = "failed"
        self.complaints.append(
            {"kind": "underpayment", "user_pk": user_pk.hex(), "expected": request["amount"], "paid": amount}
        )
        return {"verdict": "cf_flagged"}

    @entry_point
    def claim_insufficient_refund(self, ctx, *, id: str):
        """Advertiser checks spent + refund + fee against their stake."""
        if id not in self.advertisers:
            raise ContractError("UnknownAdvertiser", id)
        if not self.refunds_done:
            raise ContractError("RefundsNotExecuted")
        record = self.advertisers[id]
        policies = self._policies(ctx)
        spent = self._spent(policies, id)
        refund = self.refunds_paid.get(id, 0) - self.top_up_due.get(id, 0)
        if spent + refund + record["fee"] == record["staked"]:
            return {"verdict": "rejected"}
        self.status = "failed"
        self.complaints.append(
            {
                "kind": "insufficient_refund",
                "advertiser": id,
                "stake": record["staked"],
                "spent": spent,
                "refund": refund,
                "fee": record["fee"],
            }
        )
        return {"verdict": "cf_flagged"}

    def state_dict(self) -> dict:
        return self._state()
