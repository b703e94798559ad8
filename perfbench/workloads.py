"""Seeded scenario generators for the three benchmark workloads.

Each generator is a pure function of the seed and returns the
`privads.scenario.Scenario` that the program runs; nothing else is handed
to it.  Every stake covers the largest payout any seed can produce
(impressions per slot >= users * periods * max_count), so the correctness
gate can pass on every seed.

The pool workload holds its consensus pool fixed.  Its lottery winners are
Binomial(1000, 0.024), 16 to 31 over seeds 1-10, and key generation costs
about winners^2 * threshold multiplies, so a per-seed draw would make
set-up time vary about 3x from seed to seed.  The scenario seed that keys
the registrants and the lottery is therefore a constant whose draw has the
expected 24 winners; the benchmark seed picks the interaction vectors,
policies and fees.
"""

from __future__ import annotations

MAX_COUNT = 5
POOL_SCENARIO_SEED = 3  # its lottery draws 24 of the 1000 registrants


def _advertisers(rng, catalog_size: int, cuts, impressions: int) -> list:
    slots = list(range(catalog_size))
    advertisers, start = [], 0
    for index, size in enumerate(cuts):
        owned = slots[start : start + size]
        start += size
        advertisers.append(
            {
                "id": f"adv{index}",
                "ads": owned,
                "policies": [rng.randrange(1, 21) for _ in owned],
                "impressions": [impressions] * len(owned),
                "fee": rng.randrange(5, 51),
            }
        )
    return advertisers


def _scenario(name, seed, *, catalog_size, cuts, users, periods, chains, pool, scenario_seed=None):
    """With scenario_seed set, the program's own seed (keys, lottery) is
    that constant and the interaction vectors are drawn here from `seed`."""
    from privads.rng import Rng
    from privads.scenario import Scenario

    rng = Rng(f"perfbench/{name}/{seed}")
    advertisers = _advertisers(rng, catalog_size, cuts, users * periods * MAX_COUNT)
    user_config = {"count": users, "max_count": MAX_COUNT}
    if scenario_seed is not None:
        user_config["vectors"] = [[rng.randrange(MAX_COUNT + 1) for _ in range(catalog_size)] for _ in range(users)]
    return Scenario.from_dict(
        {
            "name": f"perfbench-{name}",
            "seed": seed if scenario_seed is None else scenario_seed,
            "catalog_size": catalog_size,
            "payout_periods": periods,
            "epoch_blocks": 60,
            "chains": chains,
            "cf_mode": "honest",
            "advertisers": advertisers,
            "users": user_config,
            "pool": pool,
        }
    )


def catalog(seed: int):
    """N=64, 3 advertisers, 20 users, 1 period, 1 chain, pool 3-of-5 from 50."""
    return _scenario(
        "catalog",
        seed,
        catalog_size=64,
        cuts=(22, 21, 21),
        users=20,
        periods=1,
        chains=1,
        pool={"participants": 5, "threshold": 3, "draw_pool": 50, "vrf_modulus": 100_000},
    )


def users(seed: int):
    """N=8, 3 advertisers, 64 users, 2 periods, 2 chains, pool 2-of-3 from 12."""
    return _scenario(
        "users",
        seed,
        catalog_size=8,
        cuts=(3, 3, 2),
        users=64,
        periods=2,
        chains=2,
        pool={"participants": 3, "threshold": 2, "draw_pool": 12, "vrf_modulus": 100_000},
    )


def pool(seed: int):
    """N=8, 3 advertisers, 8 users, 1 period, 1 chain, pool 11-of-24 from 1000."""
    return _scenario(
        "pool",
        seed,
        catalog_size=8,
        cuts=(3, 3, 2),
        users=8,
        periods=1,
        chains=1,
        pool={"participants": 24, "threshold": 11, "draw_pool": 1000, "vrf_modulus": 100_000},
        scenario_seed=POOL_SCENARIO_SEED,
    )


def tiny(seed: int):
    """N=4, 2 advertisers, 4 users, 2 periods, 2 chains, pool 2-of-3 from 6.

    Not a benchmark workload: a seconds-long shape with every phase, for
    the benchmark's own tests and smoke runs."""
    return _scenario(
        "tiny",
        seed,
        catalog_size=4,
        cuts=(2, 2),
        users=4,
        periods=2,
        chains=2,
        pool={"participants": 3, "threshold": 2, "draw_pool": 6, "vrf_modulus": 100_000},
    )


WORKLOADS = {"catalog": catalog, "users": users, "pool": pool}
ALL = {**WORKLOADS, "tiny": tiny}
