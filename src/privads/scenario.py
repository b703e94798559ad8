"""Scenario schema: the single declarative input that drives a run.

Scenarios are YAML mappings (see scenarios/ for bundled ones).  Every
field that influences behavior lives here, so a (seed, scenario) pair
pins the whole simulation.  validate() returns a list of human-readable
errors with field paths; load_scenario raises ScenarioError on any.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import yaml

from .codec import type_error
from .contracts import MAX_CATALOG
from .group import ANALYTICS_BOUND
from .rng import Rng
from .threshold import PoolParams

__all__ = ["Scenario", "PoolConfig", "AdvertiserConfig", "UserConfig", "ScenarioError", "load_scenario"]


class ScenarioError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _build(cls, data, path: str):
    """cls(**data) for a config dataclass: the keys of `data` must be fields
    of cls and include every field without a default, and each value must
    fit its field's annotation.  Errors name `path`."""
    prefix = f"{path}: " if path else ""
    if not isinstance(data, dict):
        raise ScenarioError([f"{prefix}must be a mapping"])
    hints = get_type_hints(cls)
    errors = [f"{prefix}unknown field: {key}" for key in data if key not in hints]
    errors += [
        f"{prefix}missing field: {f.name}"
        for f in fields(cls)
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    values = {}
    for key, value in data.items():
        try:
            if key in hints:
                values[key] = _built(hints[key], value, key)
        except ScenarioError as exc:
            errors += exc.errors
    errors += [f"{prefix}{error}" for key, value in values.items() if (error := type_error(value, hints[key], key))]
    if errors:
        raise ScenarioError(errors)
    return cls(**values)


def _built(hint, value, path: str):
    """`value` with a mapping under a config-dataclass annotation, or each
    one in a list of them, built by _build."""
    item = get_args(hint)[0] if get_origin(hint) is list else None
    if is_dataclass(hint):
        return _build(hint, value, path)
    if is_dataclass(item) and isinstance(value, list):
        return [_build(item, entry, f"{path}[{i}]") for i, entry in enumerate(value)]
    return value


@dataclass
class PoolConfig:
    participants: int = 3  # expected DKG size
    threshold: int = 2
    draw_pool: int = 10
    vrf_modulus: int = 100_000


@dataclass
class AdvertiserConfig:
    id: str
    ads: list[int]
    policies: list[int]
    impressions: list[int]
    fee: int = 10


@dataclass
class UserConfig:
    count: int = 1
    max_count: int = 5  # uniform interaction counts in [0, max_count]
    vectors: list[list[int]] | None = None  # optional explicit vectors, one per user


@dataclass
class Scenario:
    seed: int = 0
    catalog_size: int = 3
    payout_periods: int = 1
    epoch_blocks: int = 30
    reward_cap: int = 10_000
    interaction_cap: int = 1000
    recovery_bound: int = 2**20
    cf_mode: str = "honest"
    chains: int = 1
    name: str = "scenario"
    pool: PoolConfig = field(default_factory=PoolConfig)
    advertisers: list[AdvertiserConfig] = field(default_factory=list)
    users: UserConfig = field(default_factory=UserConfig)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        scenario = _build(Scenario, data, "")
        errors = scenario.validate()
        if errors:
            raise ScenarioError(errors)
        return scenario

    def to_dict(self) -> dict:
        return asdict(self)

    # -- validation ---------------------------------------------------------

    def validate(self) -> list:
        errors = []
        if self.seed < 0:
            errors.append("seed: must be non-negative")
        if self.catalog_size < 1:
            errors.append("catalog_size: must be >= 1")
        elif self.catalog_size > MAX_CATALOG:
            errors.append(f"catalog_size: must be <= {MAX_CATALOG}")
        if self.payout_periods < 1:
            errors.append("payout_periods: must be >= 1")
        if self.chains < 1:
            errors.append("chains: must be >= 1")
        if self.cf_mode not in ("honest", "underpay", "divert"):
            errors.append(f"cf_mode: {self.cf_mode!r} not one of honest/underpay/divert")
        if not self.advertisers:
            errors.append("advertisers: at least one required")
        if not 1 <= self.pool.threshold <= self.pool.participants:
            errors.append("pool.threshold: need 1 <= threshold <= participants")
        if self.pool.participants > self.pool.draw_pool:
            errors.append("pool.participants: cannot exceed pool.draw_pool")
        if self.pool.vrf_modulus < 2:
            errors.append("pool.vrf_modulus: must be >= 2")
        covered = []
        for i, adv in enumerate(self.advertisers):
            prefix = f"advertisers[{i}]"
            if len(adv.ads) != len(adv.policies) or len(adv.ads) != len(adv.impressions):
                errors.append(f"{prefix}: ads/policies/impressions lengths differ")
            if any(not 0 <= s < self.catalog_size for s in adv.ads):
                errors.append(f"{prefix}.ads: slot outside catalog")
            if any(p < 0 for p in adv.policies):
                errors.append(f"{prefix}.policies: negative reward")
            if adv.fee < 0:
                errors.append(f"{prefix}.fee: negative")
            covered.extend(adv.ads)
        if sorted(covered) != list(range(self.catalog_size)):
            errors.append("advertisers: ad slots must cover the catalog exactly once")
        if self.users.count < 0:
            errors.append("users.count: must be >= 0")
        if self.users.max_count < 0:
            errors.append("users.max_count: must be >= 0")
        if self.recovery_bound < 1:
            errors.append("recovery_bound: must be >= 1")
        elif self.recovery_bound > ANALYTICS_BOUND:
            errors.append(f"recovery_bound: must be <= {ANALYTICS_BOUND}")
        if self.users.vectors is not None:
            if len(self.users.vectors) != self.users.count:
                errors.append("users.vectors: need exactly one vector per user")
            for j, vec in enumerate(self.users.vectors):
                if len(vec) != self.catalog_size:
                    errors.append(f"users.vectors[{j}]: length != catalog_size")
                elif any(v < 0 for v in vec):
                    errors.append(f"users.vectors[{j}]: negative count")
            largest = max(map(sum, self.users.vectors), default=0)
        else:
            largest = self.users.max_count * self.catalog_size
        if self.interaction_cap < max(largest, 0):
            errors.append(f"interaction_cap: {self.interaction_cap} is below a user's largest vector sum {largest}")
        if sorted(covered) == list(range(self.catalog_size)):  # policy_vector needs every slot in the catalog
            policies = self.policy_vector()
            if self.users.vectors is not None:
                reward = max((sum(p * v for p, v in zip(policies, vec)) for vec in self.users.vectors), default=0)
            else:
                reward = self.users.max_count * sum(policies)
            if self.reward_cap < max(reward, 0):
                errors.append(f"reward_cap: {self.reward_cap} is below a user's largest reward {reward}")
        return errors

    # -- derived data ---------------------------------------------------------

    def pool_params(self) -> PoolParams:
        return PoolParams(
            expected=self.pool.participants,
            threshold=self.pool.threshold,
            draw_pool=self.pool.draw_pool,
            modulus=self.pool.vrf_modulus,
        )

    def policy_vector(self) -> list:
        policies = [0] * self.catalog_size
        for adv in self.advertisers:
            for slot, value in zip(adv.ads, adv.policies):
                policies[slot] = value
        return policies

    def interaction_vector(self, user_index: int, period: int) -> list:
        """Deterministic per-user interaction vector for one payout period."""
        if self.users.vectors is not None:
            return list(self.users.vectors[user_index])
        rng = Rng(self.seed).child(f"vector/{user_index}/{period}")
        return [rng.randrange(self.users.max_count + 1) for _ in range(self.catalog_size)]

    def user_partition(self) -> list:
        """Round-robin split of user indices across chains."""
        parts = [[] for _ in range(self.chains)]
        for index in range(self.users.count):
            parts[index % self.chains].append(index)
        return parts


def load_scenario(path) -> Scenario:
    try:
        data = yaml.safe_load(Path(path).read_bytes())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
        raise ScenarioError([f"{path}: not valid YAML{where}: {problem}"]) from None
    if not isinstance(data, dict):
        raise ScenarioError(["scenario file must contain a mapping"])
    scenario = Scenario.from_dict(data)
    if scenario.name == "scenario":
        scenario.name = Path(path).stem
    return scenario
