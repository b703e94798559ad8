"""Role drivers: claims, payment requests, advertiser setup/audit, pool."""

import copy
import dataclasses
import functools
import gc
import hashlib
from pathlib import Path

import pytest

from privads import actors, group
from privads.actors import (
    AdvertiserAgent,
    CampaignHandle,
    FacilitatorAgent,
    InsufficientWinners,
    PolicyMismatch,
    UserAgent,
    pool_analytics,
    run_pool_lifecycle,
)
from privads.contracts import policy_blob
from privads.group import G, H, keygen, sym_encrypt
from privads.ledger import Chain
from privads.proofs import vrf_rand
from privads.rng import Rng
from privads.runner import run_scenario
from privads.scenario import load_scenario
from privads.threshold import PoolParams, draw_winner, max_draw

from conftest import build_campaign

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def handle_of(campaign) -> CampaignHandle:
    return CampaignHandle(campaign.chain, campaign.psc_address, campaign.fsc_address, campaign.cf_account)


def make_user(campaign, uid="u0", period=0, interaction_cap=1000, recovery_bound=2**20) -> UserAgent:
    user = UserAgent(uid, Rng(f"user-{uid}"), interaction_cap, recovery_bound)
    user.new_period(period)
    return user


def pool_for(campaign, draw_pool=6, threshold=2, participants=2, seed=b"pool-seed"):
    rng = Rng("pool-tests")
    registrants = [(f"reg{i}", b"vrf%d" % i) for i in range(draw_pool)]
    params = PoolParams(expected=participants, threshold=threshold, draw_pool=draw_pool, modulus=100_000)
    pool = run_pool_lifecycle(registrants, params, seed, handle_of(campaign), rng, recovery_bound=2**12)
    campaign.mine()
    return pool


class TestUserClaims:
    def test_claim_needs_a_published_threshold_key(self, campaign):
        user = make_user(campaign, "u0")
        with pytest.raises(ValueError, match="no threshold key published"):
            user.claim(handle_of(campaign), [3, 0, 2])
        assert campaign.chain.pending == []

    def test_claim_encrypts_analytics_to_the_published_key(self, campaign, monkeypatch):
        pool = pool_for(campaign)
        keys = []
        encrypt_vector = actors.encrypt_vector

        def recording(key, *rest):
            keys.append(key)
            return encrypt_vector(key, *rest)

        monkeypatch.setattr(actors, "encrypt_vector", recording)
        make_user(campaign, "u0").claim(handle_of(campaign), [3, 0, 2])
        assert keys[1] == campaign.psc.threshold_key == pool.threshold_key.pk

    def test_worked_example_claim(self, campaign):
        pool = pool_for(campaign)
        user = make_user(campaign, "u0")
        user.claim(handle_of(campaign), [3, 0, 2])
        campaign.mine()
        rid = user.request_payment(handle_of(campaign))
        campaign.mine()
        assert campaign.chain.receipt(rid).ok
        assert user.claimed[0] == 36  # oracle: 4*3 + 20*0 + 12*2
        assert campaign.fsc.payment_requests[0]["amount"] == 36

    def test_all_zero_claim(self, campaign):
        pool = pool_for(campaign)
        user = make_user(campaign, "zero")
        user.claim(handle_of(campaign), [0, 0, 0])
        campaign.mine()
        user.request_payment(handle_of(campaign))
        campaign.mine()
        assert user.claimed[0] == 0

    def test_oversized_vector_rejected_locally(self, campaign):
        pool = pool_for(campaign)
        user = make_user(campaign, "greedy", interaction_cap=4)
        before = campaign.chain.height
        with pytest.raises(ValueError):
            user.claim(handle_of(campaign), [3, 0, 2])
        assert campaign.chain.height == before and not campaign.chain.pending

    def test_double_request_same_period(self, campaign):
        pool = pool_for(campaign)
        user = make_user(campaign, "dup")
        user.claim(handle_of(campaign), [1, 0, 0])
        campaign.mine()
        first = user.request_payment(handle_of(campaign))
        campaign.mine()
        second = user.request_payment(handle_of(campaign))
        campaign.mine()
        assert campaign.chain.receipt(first).ok
        assert "DuplicateRequest" in campaign.chain.receipt(second).error

    def test_request_decrypts_once(self, campaign, monkeypatch):
        # decrypting and proving share one sk*c1 multiply
        pool = pool_for(campaign)
        user = make_user(campaign, "u0")
        user.claim(handle_of(campaign), [3, 0, 2])
        campaign.mine()
        ct, _ = campaign.psc.get_aggregate(user.ephemeral.pk)
        mul, unmasks = group.GroupElement.mul, []

        def counting_mul(point, k):
            if point == ct.c1 and k == user.ephemeral.sk:
                unmasks.append(k)
            return mul(point, k)

        monkeypatch.setattr(group.GroupElement, "mul", counting_mul)
        assert user.request_payment(handle_of(campaign)) is not None
        assert len(unmasks) == 1

    def test_unrecoverable_aggregate_not_submitted(self, campaign):
        pool = pool_for(campaign)
        user = make_user(campaign, "tiny-bound", recovery_bound=10)
        user.claim(handle_of(campaign), [3, 0, 2])
        campaign.mine()
        assert user.request_payment(handle_of(campaign)) is None
        assert campaign.fsc.payment_requests == []


class TestAdvertiserSetup:
    def test_honest_setup_stakes_budget_plus_fee(self):
        rng = Rng("adv-setup")
        cf = FacilitatorAgent(keygen(b"cf"), rng, "honest")
        adv = AdvertiserAgent("acme", keygen(b"acme"), [0, 1, 2], [4, 20, 12], [100, 100, 100], fee=10)
        chain = Chain(0, "adv-setup", {cf.account: 0, adv.account: adv.budget + adv.fee})
        handle = cf.deploy_campaign(chain, [adv], 3, 10_000, 50)
        adv.verify_and_stake(handle)
        chain.mine_block()
        # budget oracle: sum(policy * impressions)
        assert adv.budget == 4 * 100 + 20 * 100 + 12 * 100
        assert handle.fsc.init
        assert chain.balances[handle.fsc_address] == adv.budget + 10

    def test_swapped_policy_aborts_before_staking(self):
        rng = Rng("adv-swap")
        cf = FacilitatorAgent(keygen(b"cf"), rng, "honest")
        adv = AdvertiserAgent("acme", keygen(b"acme"), [0, 1, 2], [4, 20, 12], [100, 100, 100], fee=10)
        chain = Chain(0, "adv-swap", {cf.account: 0, adv.account: adv.budget + adv.fee})
        handle = cf.deploy_campaign(chain, [adv], 3, 10_000, 50)
        # facilitator swaps slot 1 for a cheaper reward after the agreement
        swapped = sym_encrypt(adv.sym_key, policy_blob(2), rng)
        chain.call(cf.account, handle.psc_address, "store_policy", {"index": 1, "enc_policy": swapped})
        chain.mine_block()
        with pytest.raises(PolicyMismatch):
            adv.verify_and_stake(handle)
        chain.mine_block()
        assert not handle.fsc.init
        assert chain.balances.get(handle.fsc_address, 0) == 0


    def test_facilitator_refuses_blob_that_opens_to_another_value(self, monkeypatch):
        def lying_policies(self, rng):
            return {
                slot: sym_encrypt(self.sym_key, policy_blob(value + 1), rng)
                for slot, value in zip(self.slots, self.policies)
            }

        monkeypatch.setattr(AdvertiserAgent, "encrypted_policies", lying_policies)
        rng = Rng("adv-lie")
        cf = FacilitatorAgent(keygen(b"cf"), rng, "honest")
        adv = AdvertiserAgent("acme", keygen(b"acme"), [0, 1, 2], [4, 20, 12], [100, 100, 100], fee=10)
        chain = Chain(0, "adv-lie", {cf.account: 0, adv.account: adv.budget + adv.fee})
        with pytest.raises(PolicyMismatch):
            cf.deploy_campaign(chain, [adv], 3, 10_000, 50)


class TestPoolLifecycle:
    def test_threshold_key_published(self, campaign):
        pool = pool_for(campaign)
        assert campaign.psc.threshold_key == pool.threshold_key.pk
        assert campaign.fsc.pool_threshold == 2
        assert len(pool.winners) >= 2
        seed = b"pool-seed"  # the last draw's seed: each redraw re-derives it
        for attempt in range(1, pool.draws):
            seed = hashlib.sha256(seed + attempt.to_bytes(4, "big")).digest()
        threshold = max_draw(PoolParams(2, 2, 6, 100_000))
        assert pool.winners == [
            pid for pid, r in pool.registrants.items() if vrf_rand(r.vrf_keypair, seed, 100_000) < threshold
        ]

    def test_single_user_analytics(self, campaign):
        pool = pool_for(campaign)
        user = make_user(campaign, "solo")
        user.claim(handle_of(campaign), [3, 0, 2])
        campaign.mine()
        pool_analytics(pool, handle_of(campaign), Rng("analytics"))
        campaign.mine()
        assert campaign.fsc.analytics_totals == [3, 0, 2]

    def test_many_users_totals_are_elementwise_sums(self, campaign):
        pool = pool_for(campaign)
        vectors = [[1, 2, 0], [3, 0, 2], [0, 1, 1], [2, 2, 2]]
        for i, vector in enumerate(vectors):
            user = make_user(campaign, f"u{i}")
            user.claim(handle_of(campaign), vector)
        campaign.mine()
        pool_analytics(pool, handle_of(campaign), Rng("analytics"))
        campaign.mine()
        oracle = [sum(v[slot] for v in vectors) for slot in range(3)]
        assert campaign.fsc.analytics_totals == oracle

    def test_below_threshold_no_totals(self, campaign):
        pool = pool_for(campaign)
        user = make_user(campaign, "solo")
        user.claim(handle_of(campaign), [1, 1, 1])
        campaign.mine()
        # only one of the required two participants posts
        first = pool.winners[0]
        one_pool = dataclasses.replace(pool, winners=[first])
        pool_analytics(one_pool, handle_of(campaign), Rng("analytics"))
        campaign.mine()
        assert campaign.fsc.analytics_totals is None
        assert len(campaign.fsc.analytics_partials) == 1

    def test_insufficient_winners_raises(self, campaign):
        registrants = [(f"reg{i}", b"w%d" % i) for i in range(3)]
        params = PoolParams(expected=0, threshold=1, draw_pool=3, modulus=100_000)
        with pytest.raises(InsufficientWinners, match="after 16 draws"):
            run_pool_lifecycle(registrants, params, b"seed", handle_of(campaign), Rng("x"), recovery_bound=2**12)

    def test_redraw_with_derived_seed(self, campaign):
        # find a seed whose first draw has too few winners but whose
        # derived re-draw succeeds, then check the lifecycle used 2 draws
        registrants = [(f"reg{i}", b"r%d" % i) for i in range(4)]
        keypairs = [keygen(key_seed) for _, key_seed in registrants]
        params = PoolParams(expected=1, threshold=1, draw_pool=4, modulus=1000)
        threshold = max_draw(params)

        def winners_for(seed):
            return sum(draw_winner(vrf_rand(kp, seed, params.modulus), threshold) for kp in keypairs)

        chosen = None
        for i in range(500):
            seed = b"search-%d" % i
            if winners_for(seed) == 0:
                derived = hashlib.sha256(seed + (1).to_bytes(4, "big")).digest()
                if winners_for(derived) > 0:
                    chosen = seed
                    break
        assert chosen is not None
        pool = run_pool_lifecycle(registrants, params, chosen, handle_of(campaign), Rng("redraw"), recovery_bound=2**12)
        assert pool.draws == 2


class TestAdvertiserAudit:
    def test_honest_audit_passes(self, campaign):
        pool = pool_for(campaign)
        handle = handle_of(campaign)
        user = make_user(campaign, "u0")
        user.claim(handle, [3, 0, 2])
        campaign.mine()
        user.request_payment(handle)
        campaign.mine()
        pool_analytics(pool, handle, Rng("analytics"))
        campaign.mine()
        cf = FacilitatorAgent(campaign.cf, campaign.rng, "honest")
        marked = cf.settle(handle, {user.payouts[0]: user})
        campaign.mine()
        cf.mark_processed(handle, marked)
        campaign.mine()
        adv_id, adv_kp, _, budget, fee, slots, policies = campaign.advertisers[0]
        adv = AdvertiserAgent(adv_id, adv_kp, slots, policies, [100, 100, 100], fee)
        verdict = adv.audit(handle)
        assert verdict["ok"], verdict["checks"]
        assert verdict["claim_receipt"] is None

    def test_forged_partial_detected_by_audit(self, campaign):
        from privads.group import G
        from privads.threshold import PartialDecryption

        pool = pool_for(campaign)
        handle = handle_of(campaign)
        user = make_user(campaign, "u0")
        user.claim(handle, [1, 0, 0])
        campaign.mine()
        pool_analytics(pool, handle, Rng("analytics"))
        campaign.mine()
        # corrupt one stored partial after the fact; the audit must notice
        posts = campaign.fsc.analytics_partials
        index = posts[0][0].index
        posts[0] = [PartialDecryption(p.index, p.share_point + G, p.proof) for p in posts[0]]
        adv_id, adv_kp, _, budget, fee, slots, policies = campaign.advertisers[0]
        adv = AdvertiserAgent(adv_id, adv_kp, slots, policies, [100, 100, 100], fee)
        verdict = adv.audit(handle)
        assert not verdict["ok"]
        assert any(name == f"partials_from_{index}_verify" and not ok for name, ok in verdict["checks"])


class TestFixedBaseTables:
    """Only long-lived keys get a window table that outlives one call."""

    def _claim(self, n, monkeypatch):
        """One N-slot claim after a warm-up claim has built the long-lived
        tables: the user, the window tables it built and the base of every
        variable-base multiply it made."""
        campaign = build_campaign(policies=tuple(range(1, n + 1)), impressions=(100,) * n, seed=f"tables-{n}")
        pool = pool_for(campaign)
        handle = handle_of(campaign)
        make_user(campaign, "warm").claim(handle, [1] * n)
        user = make_user(campaign, "u0")
        bases, builds = set(group._table_bases), group._window_table.cache_info().misses
        var_bases = []
        for name in ("_straus", "_pippenger", "_mul_lanes"):  # the variable-base engines
            engine = getattr(group, name)

            def counting(terms, engine=engine):
                var_bases.extend((x, y) for _, x, y in terms)
                return engine(terms)

            monkeypatch.setattr(group, name, counting)
        user.claim(handle, [1] * n)
        assert group._table_bases == bases  # the ephemeral key is not registered
        return user, group._window_table.cache_info().misses - builds, var_bases

    def test_small_claim_builds_no_table(self, monkeypatch):
        assert self._claim(8, monkeypatch)[1] == 0

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_claim_keeps_ephemeral_key_off_tables_and_variable_base(self, n, monkeypatch):
        # The key holder encrypts through G's table alone: the ephemeral
        # key gets no table and no variable-base multiply at any size.
        user, builds, var_bases = self._claim(n, monkeypatch)
        assert builds == 0
        assert (user.ephemeral.pk.x, user.ephemeral.pk.y) not in var_bases

    @staticmethod
    def _tables_held() -> int:
        """Window tables reachable from the group module's globals, through
        dicts, sets, lists and caches."""
        containers = (dict, set, list, functools._lru_cache_wrapper)
        seen, frontier, tables = set(), list(vars(group).values()), 0
        for _ in range(3):
            reached = []
            for obj in frontier:
                if id(obj) in seen:
                    continue
                seen.add(id(obj))
                if type(obj) is tuple and len(obj) == group._WINDOW_COLS and obj[0][0] is None:
                    tables += 1
                elif isinstance(obj, containers):
                    reached.extend(gc.get_referents(obj))
            frontier = reached
        return tables

    def test_repeated_runs_hold_at_most_eight_tables(self, monkeypatch):
        # Each run registers new chain and pool keys; however many there
        # are, at most 8 tables stay held.
        monkeypatch.setattr(group, "_table_bases", copy.copy(group._table_bases))
        scenarios = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))
        for shift in (1, 2):
            for path in scenarios:
                scenario = load_scenario(path)
                run_scenario(dataclasses.replace(scenario, seed=scenario.seed + shift))
        assert len(group._table_bases) > 8
        assert 0 < self._tables_held() <= 8

    def test_run_registers_only_long_lived_keys(self, monkeypatch):
        monkeypatch.setattr(group, "_table_bases", {(P.x, P.y) for P in (G, H)})
        scenarios = Path(__file__).resolve().parent.parent / "scenarios"
        outcome = run_scenario(load_scenario(scenarios / "honest_small.yaml"))
        (run,) = outcome.chains
        long_lived = [G, H, run.pool.threshold_key.pk, run.chain.validator_keypair.pk, run.chain.aggregate_keypair.pk]
        assert set(group._table_bases) == {(P.x, P.y) for P in long_lived}
