"""Benchmark mode: client-side operation timings, settlement batching, and
the multi-sidechain scaling model.

Client timings are wall-clock medians over repeated runs.  Multi-chain
throughput is a deterministic simulated-clock model: each chain processes
a bounded number of claim transactions per block (the single-threaded
contract runtime is the bottleneck being modeled), blocks tick at a fixed
interval, and chains run in parallel, so capacity grows linearly with the
chain count.
"""

from __future__ import annotations

import time
from statistics import median

from .group import combine_ciphertexts, encrypt, encrypt_vector, keygen, random_scalar, recover_plaintext
from .payments import build_batch, verify_batch
from .proofs import prove_decryption
from .rng import Rng

__all__ = [
    "time_interaction_encryption",
    "time_request_generation",
    "time_aggregate_computation",
    "time_settlement_batches",
    "simulated_throughput",
    "run_bench",
    "format_table",
]

CLAIMS_PER_BLOCK = 100  # single-chain concurrency ceiling being modeled
BLOCK_INTERVAL_S = 1.0


def _timed(fn, repeats: int) -> dict:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {"median_s": median(samples), "min_s": min(samples), "max_s": max(samples), "repeats": repeats}


def time_interaction_encryption(catalog_size: int, repeats: int = 5) -> dict:
    """Encrypt one interaction vector of the given size under a fresh key."""
    rng = Rng(f"bench-enc-{catalog_size}")
    vector = [rng.randrange(10) for _ in range(catalog_size)]
    counter = [0]

    def op():
        kp = keygen(b"bench-enc-%d-%d" % (catalog_size, counter[0]))
        counter[0] += 1
        encrypt_vector(kp, vector, rng)

    result = _timed(op, repeats)
    result["catalog_size"] = catalog_size
    return result


def time_request_generation(catalog_size: int, repeats: int = 5) -> dict:
    """Decrypt the reward aggregate and prove it, then recover the plaintext
    below the scenario's default recovery bound."""
    rng = Rng(f"bench-req-{catalog_size}")
    kp = keygen(b"bench-req")
    policies = [rng.randrange(1, 21) for _ in range(catalog_size)]
    vector = [rng.randrange(10) for _ in range(catalog_size)]
    aggregate = combine_ciphertexts(policies, [encrypt(kp.pk, x, random_scalar(rng)) for x in vector])

    def op():
        plain, _ = prove_decryption(kp, aggregate, rng)
        recover_plaintext(plain, 2**20)

    result = _timed(op, repeats)
    result["catalog_size"] = catalog_size
    return result


def time_aggregate_computation(catalog_size: int, repeats: int = 3) -> dict:
    """Contract-side homomorphic dot product over one encrypted vector."""
    rng = Rng(f"bench-agg-{catalog_size}")
    kp = keygen(b"bench-agg")
    policies = [rng.randrange(1, 21) for _ in range(catalog_size)]
    enc_vec = encrypt_vector(kp.pk, [rng.randrange(10) for _ in range(catalog_size)], rng)

    def op():
        combine_ciphertexts(policies, enc_vec)

    result = _timed(op, repeats)
    result["catalog_size"] = catalog_size
    return result


def time_settlement_batches(batch_sizes=(80, 200, 400, 800), repeats: int = 3) -> list:
    """Batch proof generation/verification; verification should stay flat."""
    rng = Rng("bench-batch")
    rows = []
    for size in batch_sizes:
        payments = [(bytes([i % 251]) * 20, i % 97, random_scalar(rng)) for i in range(size)]
        total = sum(amount for _, amount, _ in payments)
        gen = _timed(lambda: build_batch(payments, total, rng), repeats)
        batch = build_batch(payments, total, rng)
        ver = _timed(lambda: verify_batch(batch, total), repeats)
        per_day = int(86400 / (ver["median_s"] / size)) if ver["median_s"] > 0 else None
        rows.append(
            {
                "batch_size": size,
                "generation": gen,
                "verification": ver,
                "extrapolated_payments_per_day": per_day,
            }
        )
    return rows


def simulated_throughput(total_users: int, chains: int) -> dict:
    """Deterministic scaling model: users split evenly, chains in parallel."""
    if chains < 1:
        raise ValueError("need at least one chain")
    if total_users == 0:
        return {"users": 0, "chains": chains, "makespan_s": 0.0, "users_per_day": 0}
    per_chain = [total_users // chains + (1 if i < total_users % chains else 0) for i in range(chains)]
    blocks = max(-(-n // CLAIMS_PER_BLOCK) for n in per_chain if n) if any(per_chain) else 0
    makespan = blocks * BLOCK_INTERVAL_S
    per_day = int(total_users / makespan * 86400) if makespan else 0
    return {"users": total_users, "chains": chains, "makespan_s": makespan, "users_per_day": per_day}


def run_bench(catalog_sizes=(64, 128, 256), user_counts=(10, 30, 60, 100), chain_counts=(1, 2, 3),
              repeats: int = 5, batch_sizes=(80, 200, 400, 800)) -> dict:
    client = []
    for n in catalog_sizes:
        client.append(
            {
                "catalog_size": n,
                "interaction_encryption": time_interaction_encryption(n, repeats),
                "request_generation": time_request_generation(n, repeats),
                "aggregate_computation": time_aggregate_computation(n, min(repeats, 3)),
            }
        )
    scaling = []
    base = None
    total = max(user_counts) if user_counts else 0
    # size the modeled load so the per-chain capacity actually binds
    load = max(total, CLAIMS_PER_BLOCK * max(chain_counts) * 2) if chain_counts else total
    for chains in chain_counts:
        row = simulated_throughput(load, chains)
        if base is None:
            base = row["users_per_day"] or 1
        row["speedup_vs_single"] = round(row["users_per_day"] / base, 3) if row["users_per_day"] else 0.0
        scaling.append(row)
    concurrent = [
        {"users": users, **simulated_throughput(users, 1)} for users in user_counts
    ]
    return {
        "client_operations": client,
        "settlement_batches": time_settlement_batches(batch_sizes, min(repeats, 3)),
        "concurrent_users": concurrent,
        "multi_chain_scaling": scaling,
        "model": {"claims_per_block": CLAIMS_PER_BLOCK, "block_interval_s": BLOCK_INTERVAL_S},
    }


def format_table(bench: dict) -> str:
    lines = []
    lines.append("client operations (median seconds)")
    lines.append(f"{'catalog':>8} {'interaction-enc':>16} {'request-gen':>12} {'aggregate':>10}")
    for row in bench["client_operations"]:
        lines.append(
            f"{row['catalog_size']:>8} {row['interaction_encryption']['median_s']:>16.4f} "
            f"{row['request_generation']['median_s']:>12.4f} {row['aggregate_computation']['median_s']:>10.4f}"
        )
    lines.append("")
    lines.append("settlement batches")
    lines.append(f"{'size':>6} {'gen(s)':>10} {'verify(s)':>10} {'payments/day':>14}")
    for row in bench["settlement_batches"]:
        lines.append(
            f"{row['batch_size']:>6} {row['generation']['median_s']:>10.4f} "
            f"{row['verification']['median_s']:>10.4f} {row['extrapolated_payments_per_day']:>14}"
        )
    lines.append("")
    lines.append("multi-chain scaling (simulated clock)")
    lines.append(f"{'chains':>7} {'users':>8} {'makespan(s)':>12} {'users/day':>12} {'speedup':>8}")
    for row in bench["multi_chain_scaling"]:
        lines.append(
            f"{row['chains']:>7} {row['users']:>8} {row['makespan_s']:>12.1f} "
            f"{row['users_per_day']:>12} {row['speedup_vs_single']:>8}"
        )
    if not bench["concurrent_users"]:
        lines.append("")
        lines.append("(no user counts requested: empty table)")
    return "\n".join(lines)
