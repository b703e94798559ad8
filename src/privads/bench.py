"""The multi-sidechain scaling model.

Multi-chain throughput is a deterministic simulated-clock model: each chain
processes a bounded number of claim transactions per block (the
single-threaded contract runtime is the bottleneck being modeled), blocks
tick at a fixed interval, and chains run in parallel, so capacity grows
linearly with the chain count.
"""

from __future__ import annotations

__all__ = ["simulated_throughput"]

CLAIMS_PER_BLOCK = 100  # single-chain concurrency ceiling being modeled
BLOCK_INTERVAL_S = 1.0


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
