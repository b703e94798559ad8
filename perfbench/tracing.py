"""Span recording around privads layer calls, installed from outside.

Nothing under src/ is edited: `install` replaces functions and methods of
the loaded privads modules with wrappers.  A module-level function must be
replaced at every binding site, because `from .x import name` binds a
separate name in each importing module (`verify_partial` lives in
threshold, contracts and actors; `dleq_verify` in proofs and threshold).
Methods are replaced once, on their class.

Spans are kept in memory as four parallel lists (name, start, end, parent
index) and written out by `Tracer.dump` when the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Module-level functions, wrapped at every privads module that binds them.
# Recursive helpers (codec.to_wire, codec.from_wire) are left out: a span
# per recursion step would cost more than the work it measures.
FUNCTIONS = {
    "group": [
        "precompute_base",
        "keygen",
        "encrypt",
        "decrypt",
        "encrypt_vector",
        "recover_plaintext",
        "sign",
        "verify_sig",
        "hash_to_point",
        "sym_encrypt",
        "sym_decrypt",
        "hybrid_encrypt",
        "hybrid_decrypt",
        "dh_agree",
    ],
    "proofs": [
        "dleq_prove",
        "dleq_verify",
        "prove_decryption",
        "verify_decryption",
        "vrf_rand",
        "vrf_eval",
        "vrf_verify",
    ],
    "threshold": ["dkg_run", "partial_decrypt", "verify_partial", "combine_partials"],
    "payments": ["commit", "open_verify", "build_batch", "verify_batch", "serialize_batch", "deserialize_batch"],
    "codec": ["encode_args", "decode_args", "canonical_json"],
    "ledger": ["private_wrap"],
    "actors": ["run_pool_lifecycle", "pool_analytics"],
    "runner": ["run_scenario", "report_bytes"],
}

# (module, class, method, layer).  Both contract classes report under
# "contracts", so PolicyContract.state_dict and FundContract.state_dict
# share the span name contracts.state_dict.
METHODS = [
    ("group", "GroupElement", "mul", "group"),
    ("group", "GroupElement", "decode", "group"),
    ("threshold", "ThresholdPublicKey", "share_commitment", "threshold"),
    ("ledger", "Chain", "call", "ledger"),
    ("ledger", "Chain", "mine_block", "ledger"),
    ("ledger", "Chain", "state_hash", "ledger"),
    ("contracts", "PolicyContract", "store_policy", "contracts"),
    ("contracts", "PolicyContract", "store_encrypted_keys", "contracts"),
    ("contracts", "PolicyContract", "store_threshold_key", "contracts"),
    ("contracts", "PolicyContract", "compute_aggregate", "contracts"),
    ("contracts", "PolicyContract", "payment_request", "contracts"),
    ("contracts", "PolicyContract", "advance_period", "contracts"),
    ("contracts", "PolicyContract", "state_dict", "contracts"),
    ("contracts", "FundContract", "store_funds", "contracts"),
    ("contracts", "FundContract", "register_pool", "contracts"),
    ("contracts", "FundContract", "post_analytics", "contracts"),
    ("contracts", "FundContract", "settlement_request", "contracts"),
    ("contracts", "FundContract", "payment_processed", "contracts"),
    ("contracts", "FundContract", "claim_insufficient_refund", "contracts"),
    ("contracts", "FundContract", "state_dict", "contracts"),
    ("actors", "UserAgent", "new_period", "actors"),
    ("actors", "UserAgent", "claim", "actors"),
    ("actors", "UserAgent", "request_payment", "actors"),
    ("actors", "UserAgent", "verify_payment", "actors"),
    ("actors", "UserAgent", "redeem", "actors"),
    ("actors", "AdvertiserAgent", "verify_and_stake", "actors"),
    ("actors", "AdvertiserAgent", "audit", "actors"),
    ("actors", "FacilitatorAgent", "deploy_campaign", "actors"),
    ("actors", "FacilitatorAgent", "settle", "actors"),
    ("actors", "FacilitatorAgent", "mark_processed", "actors"),
]

# The untraced run wraps only these, for latency samples.
ENTRY_POINTS = [m for m in METHODS if m[1:3] in {("UserAgent", "claim"), ("UserAgent", "request_payment"),
                                                 ("AdvertiserAgent", "audit")}]


def span_names() -> list:
    """Every span name a full install can record."""
    return [f"{m}.{n}" for m, names in FUNCTIONS.items() for n in names] + [
        f"{layer}.{method}" for _, _, method, layer in METHODS
    ]


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: dict = {}
        self._stack = [-1]

    def wrap(self, name: str, fn, hook=None):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            if hook is not None:
                hook(self.counts, args)
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def spans(self) -> list:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def dump(self, path, origin: float = 0.0, limit: int | None = None) -> None:
        """Write the first `limit` spans as one JSON document: a name table
        plus rows of [name index, start, end, parent index], times relative
        to origin."""
        spans = self.spans()[:limit]
        table = {name: i for i, name in enumerate(dict.fromkeys(n for n, _, _, _ in spans))}
        rows = [[table[n], round(s - origin, 9), round(e - origin, 9), p] for n, s, e, p in spans]
        doc = {"fields": ["name", "start", "end", "parent"], "names": list(table), "spans": rows, "counts": self.counts}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def load_spans(path) -> tuple[list, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [(names[n], s, e, p) for n, s, e, p in doc["spans"]], doc["counts"]


def _count_generator_bases(privads_group):
    generators = frozenset((privads_group.G, privads_group.H))

    def hook(counts, args):
        if args[0] in generators:
            counts["group.mul_gen"] = counts.get("group.mul_gen", 0) + 1

    return hook


def _count_posted_partials(counts, args):
    counts["threshold.partials_posted"] = counts.get("threshold.partials_posted", 0) + len(args[2]["partials"])


def _modules() -> dict:
    return {name: mod for name, mod in sys.modules.items() if name == "privads" or name.startswith("privads.")}


def _wrap_method(tracer: Tracer, module: str, cls_name: str, method: str, layer: str, hooks: dict) -> None:
    cls = getattr(importlib.import_module(f"privads.{module}"), cls_name)
    raw = cls.__dict__[method]
    span = f"{layer}.{method}"
    if isinstance(raw, staticmethod):
        setattr(cls, method, staticmethod(tracer.wrap(span, raw.__func__, hooks.get(span))))
        return
    wrapped = tracer.wrap(span, raw, hooks.get(span))
    for attr, value in list(cls.__dict__.items()):
        if value is raw:  # aliases such as GroupElement.__rmul__ = mul
            setattr(cls, attr, wrapped)


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the trace points (full=True) or only the actor entry points."""
    importlib.import_module("privads.runner")
    group = importlib.import_module("privads.group")
    hooks = {"group.mul": _count_generator_bases(group), "contracts.post_analytics": _count_posted_partials}
    for module, cls_name, method, layer in METHODS if full else ENTRY_POINTS:
        _wrap_method(tracer, module, cls_name, method, layer, hooks)
    if not full:
        return
    modules = _modules()
    for module, names in FUNCTIONS.items():
        home = modules[f"privads.{module}"]
        for name in names:
            original = getattr(home, name)
            wrapped = tracer.wrap(f"{module}.{name}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
