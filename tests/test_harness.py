"""Scenario loading, end-to-end runs, CLI, bench model, replay audit."""

import json
import random
from pathlib import Path

import pytest
import yaml

from privads.audit import load_block_log, verify_run, write_block_log
from privads import runner
from privads.bench import simulated_throughput
from privads.cli import main as cli_main
from privads.contracts import MAX_CATALOG
from privads.group import ANALYTICS_BOUND
from privads.ledger import Chain
from privads.runner import _timing_summary, public_text, report_bytes, run_scenario
from privads.scenario import Scenario, ScenarioError, load_scenario

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ADVERTISER = {"id": "a", "ads": [0, 1, 2], "policies": [1, 1, 1], "impressions": [1, 1, 1]}


def whole_catalog(size):
    """A scenario of `size` slots held by one advertiser, with no users."""
    advertiser = {"id": "a", "ads": list(range(size)), "policies": [1] * size, "impressions": [1] * size}
    return {"catalog_size": size, "advertisers": [advertiser], "users": {"count": 0, "max_count": 0}}


def section(outcome, name):
    return next(s for s in outcome.sections if s["section"] == name)


class TestScenarioSchema:
    def test_bundled_scenarios_valid(self):
        for path in sorted(SCENARIOS.glob("*.yaml")):
            scenario = load_scenario(path)
            assert scenario.validate() == []
            assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_unknown_field_reported(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict({"bogus": 1, "advertisers": []})
        assert "unknown field: bogus" in str(exc.value)

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"advertisers": [{**ADVERTISER, "fees": 99}]}, "advertisers[0]: unknown field: fees"),
            ({"pool": {"participants": 3, "treshold": 2}}, "pool: unknown field: treshold"),
            ({"users": {"count": 1, "max_cuont": 5}}, "users: unknown field: max_cuont"),
            ({"advertisers": [{k: v for k, v in ADVERTISER.items() if k != "ads"}]}, "advertisers[0]: missing field: ads"),
        ],
    )
    def test_every_mapping_checks_its_keys(self, change, error):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict({"advertisers": [ADVERTISER], **change})
        assert exc.value.errors == [error]

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"seed": "7"}, "seed: expected int, got str"),
            ({"seed": True}, "seed: expected int, got bool"),
            ({"users": {"count": "2"}}, "users: count: expected int, got str"),
            ({"advertisers": [{**ADVERTISER, "ads": 5}]}, "advertisers[0]: ads: expected list, got int"),
            ({"advertisers": [{**ADVERTISER, "ads": [0, "1", 2]}]}, "advertisers[0]: ads[1]: expected int, got str"),
            ({"users": {"count": 1, "vectors": [[1, 2, 3.0]]}}, "users: vectors[0][2]: expected int, got float"),
        ],
    )
    def test_every_value_checks_its_type(self, change, error):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict({"advertisers": [ADVERTISER], **change})
        assert exc.value.errors == [error]

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"users": {"count": 1, "max_count": -1}}, "users.max_count: must be >= 0"),
            ({"recovery_bound": 0}, "recovery_bound: must be >= 1"),
            ({"interaction_cap": -1}, "interaction_cap: -1 is below a user's largest vector sum 15"),
            ({"interaction_cap": 14}, "interaction_cap: 14 is below a user's largest vector sum 15"),
            (
                {"interaction_cap": 5, "users": {"count": 2, "vectors": [[1, 2, 3], [0, 0, 1]]}},
                "interaction_cap: 5 is below a user's largest vector sum 6",
            ),
            ({"reward_cap": 14}, "reward_cap: 14 is below a user's largest reward 15"),
            (
                {
                    "reward_cap": 13,
                    "advertisers": [{**ADVERTISER, "policies": [4, 0, 2]}],
                    "users": {"count": 2, "vectors": [[1, 9, 3], [3, 0, 1]]},
                },
                "reward_cap: 13 is below a user's largest reward 14",
            ),
            # The bound the pool registration enforces; 2**48 would ask for
            # a baby-step table of 2**24 entries, about 2.4 GB.
            ({"recovery_bound": 2**48}, f"recovery_bound: must be <= {ANALYTICS_BOUND}"),
            # The fund contract's deploy refuses it (BadParams).
            (whole_catalog(MAX_CATALOG + 1), f"catalog_size: must be <= {MAX_CATALOG}"),
        ],
    )
    def test_inputs_a_run_cannot_serve_are_rejected(self, change, error):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict({"advertisers": [ADVERTISER], **change})
        assert exc.value.errors == [error]

    def test_reward_cap_may_equal_the_largest_reward(self):
        assert Scenario.from_dict({"advertisers": [ADVERTISER], "reward_cap": 15}).validate() == []
        vectors = {"count": 2, "vectors": [[1, 9, 3], [3, 0, 1]]}
        advertiser = {**ADVERTISER, "policies": [4, 0, 2]}
        assert Scenario.from_dict({"advertisers": [advertiser], "reward_cap": 14, "users": vectors}).validate() == []

    def test_catalog_and_recovery_bound_may_equal_the_contract_limits(self):
        assert Scenario.from_dict(whole_catalog(MAX_CATALOG)).validate() == []
        assert Scenario.from_dict({"advertisers": [ADVERTISER], "recovery_bound": ANALYTICS_BOUND}).validate() == []

    def test_interaction_cap_may_equal_the_largest_vector_sum(self):
        assert Scenario.from_dict({"advertisers": [ADVERTISER], "interaction_cap": 15}).validate() == []
        vectors = {"count": 2, "vectors": [[1, 2, 3], [0, 0, 1]]}
        assert Scenario.from_dict({"advertisers": [ADVERTISER], "interaction_cap": 6, "users": vectors}).validate() == []

    def test_bad_yaml_is_a_scenario_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: [1\n")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(bad)
        assert exc.value.errors == [f"{bad}: not valid YAML at line 2, column 1: expected ',' or ']', but got '<stream end>'"]

    def test_bad_cf_mode(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(
                {
                    "cf_mode": "embezzle",
                    "advertisers": [{"id": "a", "ads": [0, 1, 2], "policies": [1, 1, 1], "impressions": [1, 1, 1]}],
                }
            )
        assert any("cf_mode" in e for e in exc.value.errors)

    def test_slots_must_cover_catalog(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(
                {
                    "catalog_size": 3,
                    "advertisers": [{"id": "a", "ads": [0, 1], "policies": [1, 1], "impressions": [1, 1]}],
                }
            )
        assert any("cover the catalog" in e for e in exc.value.errors)

    def test_vector_shape_checked(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(
                {
                    "catalog_size": 3,
                    "advertisers": [{"id": "a", "ads": [0, 1, 2], "policies": [1, 1, 1], "impressions": [1, 1, 1]}],
                    "users": {"count": 1, "vectors": [[1, 2]]},
                }
            )
        assert any("users.vectors[0]" in e for e in exc.value.errors)

    def test_pool_threshold_bounds(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(
                {
                    "advertisers": [{"id": "a", "ads": [0, 1, 2], "policies": [1, 1, 1], "impressions": [1, 1, 1]}],
                    "pool": {"participants": 2, "threshold": 3, "draw_pool": 5},
                }
            )
        assert any("pool.threshold" in e for e in exc.value.errors)

    def test_interaction_vectors_deterministic(self):
        scenario = load_scenario(SCENARIOS / "honest_small.yaml")
        assert scenario.interaction_vector(0, 0) == scenario.interaction_vector(0, 0)
        assert scenario.interaction_vector(0, 0) != scenario.interaction_vector(0, 1)


class TestRunnerBehavior:
    def test_strawman_pays_oracle_amount(self):
        outcome = run_scenario(load_scenario(SCENARIOS / "strawman.yaml"))
        rows = section(outcome, "users")["rows"]
        assert rows[0]["paid"] == rows[0]["oracle"] == 36
        assert outcome.ok

    def test_payout_account_appears_with_its_first_transaction(self, monkeypatch):
        # The payout address rides in the period's private payment request,
        # blocks before it sends its redeem_note; the accounts in the state
        # hold it only from the block of that transaction on.
        accounts = []
        mine_block = Chain.mine_block

        def recording(chain):
            block = mine_block(chain)
            view = chain.state_view()
            accounts.append(set(view["balances"]) | set(view["nonces"]))
            return block

        monkeypatch.setattr(Chain, "mine_block", recording)
        outcome = run_scenario(load_scenario(SCENARIOS / "strawman.yaml"))
        ((_, user),) = outcome.chains[0].users
        payout = user.payouts[0].hex()
        blocks = outcome.chains[0].chain.blocks
        first = next(b.height for b in blocks if any(tx["sender"] == payout for tx in b.tx_records))
        assert [payout in held for held in accounts] == [height >= first for height in range(len(blocks))]

    def test_honest_run_clean(self):
        outcome = run_scenario(load_scenario(SCENARIOS / "honest_small.yaml"))
        assert outcome.ok
        assert outcome.complaints_total == 0
        chains = section(outcome, "chains")["rows"]
        assert all(r["status"] == "active" and r["fees_paid"] for r in chains)

    def test_underpay_detected(self):
        outcome = run_scenario(load_scenario(SCENARIOS / "underpay.yaml"))
        assert outcome.ok  # detection is the protocol working, not a violation
        assert outcome.complaints_total == 1
        chains = section(outcome, "chains")["rows"]
        assert chains[0]["status"] == "failed" and not chains[0]["fees_paid"]
        kinds = [c["kind"] for c in section(outcome, "complaints")["rows"]]
        assert kinds == ["underpayment"]

    def test_divert_detected(self):
        outcome = run_scenario(load_scenario(SCENARIOS / "divert.yaml"))
        assert outcome.ok
        kinds = [c["kind"] for c in section(outcome, "complaints")["rows"]]
        assert "insufficient_refund" in kinds
        assert section(outcome, "chains")["rows"][0]["status"] == "failed"

    def test_multichain_partition_equivalence(self):
        scenario = load_scenario(SCENARIOS / "multichain.yaml")
        outcome = run_scenario(scenario)
        assert outcome.ok
        multi_rows = {r["user"]: r for r in section(outcome, "users")["rows"]}
        # single-chain runs of each partition must yield the same amounts
        for part in scenario.user_partition():
            sub = Scenario.from_dict(
                {
                    **scenario.to_dict(),
                    "chains": 1,
                    "name": "partition",
                    "users": {
                        "count": len(part),
                        "max_count": scenario.users.max_count,
                        "vectors": [scenario.interaction_vector(gi, 0) for gi in part],
                    },
                }
            )
            sub_outcome = run_scenario(sub)
            sub_rows = section(sub_outcome, "users")["rows"]
            for local_row, gi in zip(sub_rows, part):
                assert local_row["claimed"] == multi_rows[f"user{gi}"]["claimed"]
                assert local_row["paid"] == multi_rows[f"user{gi}"]["paid"]

    def test_two_period_unlinkability_and_exactness(self):
        scenario = load_scenario(SCENARIOS / "honest_small.yaml")
        outcome = run_scenario(scenario)
        assert outcome.ok  # includes the unlinkability hygiene check
        totals = section(outcome, "ad_totals")["rows"][0]
        assert totals["match"] is True

    @pytest.mark.parametrize("length", [40, 66])  # an address's hex, a pk's
    def test_the_unlinkability_scan_finds_a_needle_at_any_offset(self, length):
        # The scan looks for a needle in full only where the text holds one
        # of its pieces; a needle is found wherever it starts, even inside
        # a longer run of hex, as `needle in text` finds it.
        rng = random.Random(length)
        hex_run = "".join(rng.choice("0123456789abcdef") for _ in range(300))
        needle = "".join(rng.choice("0123456789abcdef") for _ in range(length))
        for offset in range(2 * runner._STRIDE + 1):
            for text in (hex_run[:offset] + needle + hex_run[offset:], f'"{hex_run[:offset]}{needle}"'):
                assert runner._occurs(needle, text, set(runner._PIECES.findall(text)))
        assert not runner._occurs(needle, hex_run, set(runner._PIECES.findall(hex_run)))
        assert not runner._occurs(needle[1:] + "x", hex_run + needle, set(runner._PIECES.findall(hex_run + needle)))

    def test_reused_ephemeral_key_is_named(self, monkeypatch):
        # user0 claims and requests in period 1 under its period-0 key
        from privads.actors import UserAgent
        from privads.ledger import address_from_pk

        fresh_keys = UserAgent.new_period
        first = {}

        def reuse_first_key(user, period):
            fresh_keys(user, period)
            if user.user_id == "user0":
                user.ephemeral = first.setdefault(user.user_id, user.ephemeral)
                user.ephemerals[period] = user.ephemeral.pk.encode()
                user.accounts[period] = address_from_pk(user.ephemeral.pk)

        monkeypatch.setattr(UserAgent, "new_period", reuse_first_key)
        outcome = run_scenario(load_scenario(SCENARIOS / "honest_small.yaml"))
        assert "user0: period 0 ephemeral pk leaked into period 1" in outcome.violations
        assert "user0: period 1 ephemeral pk leaked into period 0" in outcome.violations
        assert not any(v.startswith("user1:") for v in outcome.violations)

    def test_reused_payout_address_does_not_block_the_close(self, monkeypatch):
        # user0 keeps its period-0 payout key: its period-1 request names an
        # address that already has a request, so it fails with a typed code
        # and every buffered request is still marked, which closes the
        # campaign (fees and refunds paid).
        from privads.actors import UserAgent
        from privads.ledger import address_from_pk

        fresh_keys = UserAgent.new_period
        first = {}

        def reuse_first_payout(user, period):
            fresh_keys(user, period)
            if user.user_id == "user0":
                user.payout_kp = first.setdefault(user.user_id, user.payout_kp)

        monkeypatch.setattr(UserAgent, "new_period", reuse_first_payout)
        outcome = run_scenario(load_scenario(SCENARIOS / "honest_small.yaml"))
        (run,) = outcome.chains
        errors = [r["error"] for block in run.chain.blocks for r in block.receipt_records if not r["ok"]]
        assert errors == [f"DuplicatePayoutAddress: {address_from_pk(first['user0'].pk).hex()}"]
        fsc = run.handle.fsc
        assert len(fsc.payment_requests) == len(fsc.payed_requests) == 11
        assert fsc.refunds_done

    def test_a_first_post_cannot_choose_what_the_pool_decrypts(self, monkeypatch):
        # Before the honest posts, pool member 3 posts its partial
        # decryptions of the first claim's analytics vector alone.  The
        # fund contract checks them against the claims' sums it computes
        # itself, so the post fails and the honest posts still combine to
        # the oracle totals.
        import privads.runner
        from privads.threshold import partial_decrypt

        honest_posts = privads.runner.pool_analytics
        bogus = []

        def bogus_first(pool, handle, rng):
            member = pool.winners[2]
            share = pool.shares[member]
            first_vector = handle.psc.reported_vectors[0][2]
            partials = [partial_decrypt(share, ct, rng.child("bogus")) for ct in first_vector]
            post = {"index": share.index, "partials": partials}
            bogus.append(handle.chain.call(pool.registrants[member].account, handle.fsc_address, "post_analytics", post))
            return honest_posts(pool, handle, rng)

        monkeypatch.setattr(privads.runner, "pool_analytics", bogus_first)
        outcome = run_scenario(load_scenario(SCENARIOS / "honest_small.yaml"))
        (run,) = outcome.chains
        (rid,) = bogus
        assert run.chain.receipt(rid).error == "InvalidShareProof: 3"
        assert run.handle.fsc.analytics_totals == run.oracle_totals
        assert run.handle.fsc.refunds_done
        assert outcome.ok, outcome.violations

    def test_failed_audit_check_is_a_violation(self, monkeypatch):
        import privads.actors
        from privads.threshold import InvalidShareProof

        def reject(tpk, cts, partials):
            raise InvalidShareProof(partials[0].index)

        # only the advertisers' audit sees this; the fund contract still
        # checks the posts with its own verify_partials
        monkeypatch.setattr(privads.actors, "verify_partials", reject)
        outcome = run_scenario(load_scenario(SCENARIOS / "strawman.yaml"))
        verdict = section(outcome, "verdict")
        assert not verdict["ok"]
        assert "advertiser acme@chain0: audit check partials_from_1_verify failed" in verdict["violations"]

    def test_report_byte_determinism(self):
        a = run_scenario(load_scenario(SCENARIOS / "strawman.yaml"))
        b = run_scenario(load_scenario(SCENARIOS / "strawman.yaml"))
        assert report_bytes(a.sections) == report_bytes(b.sections)

    def test_seed_changes_report(self):
        scenario = load_scenario(SCENARIOS / "strawman.yaml")
        a = report_bytes(run_scenario(scenario).sections)
        scenario2 = load_scenario(SCENARIOS / "strawman.yaml")
        scenario2.seed = scenario.seed + 1
        b = report_bytes(run_scenario(scenario2).sections)
        assert a != b

    def test_unrecoverable_aggregate_reported_not_crashed(self):
        # a recovery bound below the actual reward: the user cannot submit,
        # the run completes, and the mismatch surfaces as a violation
        scenario = Scenario.from_dict(
            {
                "name": "tiny-bound",
                "seed": 29,
                "catalog_size": 3,
                "recovery_bound": 8,
                "advertisers": [
                    {"id": "a", "ads": [0, 1, 2], "policies": [4, 20, 12], "impressions": [10, 10, 10]}
                ],
                "users": {"count": 1, "max_count": 5, "vectors": [[3, 0, 2]]},
                "pool": {"participants": 2, "threshold": 2, "draw_pool": 4},
            }
        )
        outcome = run_scenario(scenario)
        assert not outcome.ok
        assert any("claimed 0 != oracle 36" in v for v in outcome.violations)
        row = section(outcome, "users")["rows"][0]
        assert row["claimed"] == 0 and row["paid"] == 0

    def test_timing_summary_median_of_an_even_count(self):
        # The mean of the two middle samples, not the upper one.
        assert _timing_summary([4, 1, 3, 2]) == {"median_s": 2.5, "min_s": 1, "max_s": 4, "count": 4}

    def test_zero_users(self):
        scenario = Scenario.from_dict(
            {
                "catalog_size": 2,
                "advertisers": [{"id": "a", "ads": [0, 1], "policies": [1, 2], "impressions": [5, 5]}],
                "users": {"count": 0},
                "pool": {"participants": 1, "threshold": 1, "draw_pool": 2},
            }
        )
        outcome = run_scenario(scenario)
        assert outcome.ok
        assert section(outcome, "users")["rows"] == []

    def test_privacy_probe_no_plaintext_in_blocks(self, tmp_path):
        # sentinel policy value and odd interaction counts must never show
        # up in the serialized block log, in decimal or in their canonical
        # 8-byte plaintext encodings
        sentinel_policy = 777_213
        vector = [41, 0, 57]
        scenario = Scenario.from_dict(
            {
                "name": "probe",
                "seed": 23,
                "catalog_size": 3,
                "reward_cap": 2**26,
                "recovery_bound": 2**26,
                "advertisers": [
                    {
                        "id": "acme",
                        "ads": [0, 1, 2],
                        "policies": [sentinel_policy, 20, 12],
                        "impressions": [100, 100, 100],
                    }
                ],
                "users": {"count": 1, "max_count": 60, "vectors": [vector]},
                "pool": {"participants": 2, "threshold": 2, "draw_pool": 4},
            }
        )
        outcome = run_scenario(scenario)
        assert outcome.ok
        blocks = tmp_path / "blocks.jsonl"
        write_block_log(outcome.chains, blocks)
        # the log as written, and its public text (args as canonical JSON, points and bytes as plain hex)
        text = blocks.read_text() + public_text(load_block_log(blocks)[0])
        from privads.contracts import policy_blob

        assert str(sentinel_policy) not in text
        assert policy_blob(sentinel_policy).hex() not in text
        assert json.dumps(vector) not in text and "[41,0,57]" not in text
        for count in (41, 57):
            assert policy_blob(count).hex() not in text
        # the reward itself reaches the fund contract as a private input
        reward = sentinel_policy * 41 + 12 * 57
        row = section(outcome, "users")["rows"][0]
        assert row["paid"] == reward


class TestCli:
    def test_help_prints_each_command_on_its_own_line(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--help"])
        assert exit_info.value.code == 0
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        assert any(line.startswith("privads run --scenario ") for line in lines)
        assert any(line.startswith("privads verify-run --report ") for line in lines)
        assert not any("privads run" in line and "privads verify-run" in line for line in lines)

    def test_run_and_verify_roundtrip(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        blocks = tmp_path / "blocks.jsonl"
        timings = tmp_path / "timings.json"
        code = cli_main(
            [
                "run",
                "--scenario",
                str(SCENARIOS / "strawman.yaml"),
                "--out",
                str(report),
                "--blocks",
                str(blocks),
                "--timings",
                str(timings),
            ]
        )
        assert code == 0
        recorded = json.loads(timings.read_text())
        assert recorded["interaction_encryption_s"]["count"] == 1
        pool_formation = recorded["pool_formation_s"]
        assert pool_formation["count"] == 1  # one chain
        assert 0 < pool_formation["min_s"] == pool_formation["max_s"]
        code = cli_main(["verify-run", "--report", str(report), "--blocks", str(blocks)])
        assert code == 0

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("cf_mode: nonsense\nadvertisers: []\n")
        assert cli_main(["run", "--scenario", str(bad)]) == 2

    @pytest.mark.parametrize("data", [b"seed: [1\n", b"seed: '7'\nadvertisers: []\n", b"seed: \xff\n"])
    def test_malformed_scenario_file_exit_2(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(data)
        assert cli_main(["run", "--scenario", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("users.max_count", -1),
            ("recovery_bound", 0),
            ("recovery_bound", ANALYTICS_BOUND + 1),
            ("interaction_cap", -1),
            ("reward_cap", 0),
            ("catalog_size", 70_000),
        ],
    )
    def test_strawman_with_an_input_a_run_cannot_serve_exit_2(self, tmp_path, capsys, field, value):
        data = yaml.safe_load((SCENARIOS / "strawman.yaml").read_text())
        *outer, key = field.split(".")
        target = data[outer[0]] if outer else data
        target[key] = value
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(data))
        assert cli_main(["run", "--scenario", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    def test_seed_override(self, tmp_path, capsys):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        cli_main(["run", "--scenario", str(SCENARIOS / "strawman.yaml"), "--seed", "99", "--out", str(out1)])
        cli_main(["run", "--scenario", str(SCENARIOS / "strawman.yaml"), "--seed", "99", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        meta = json.loads(out1.read_text().splitlines()[0])
        assert meta["seed"] == 99 and meta["scenario"]["seed"] == 99

    def test_underpay_exit_zero_with_complaint(self, capsys):
        assert cli_main(["run", "--scenario", str(SCENARIOS / "underpay.yaml"), "--out", "/dev/null"]) == 0


class TestAudit:
    def _run(self, tmp_path, name="strawman", scenario=None):
        report = tmp_path / "report.jsonl"
        blocks = tmp_path / "blocks.jsonl"
        outcome = run_scenario(scenario or load_scenario(SCENARIOS / f"{name}.yaml"))
        report.write_bytes(report_bytes(outcome.sections))
        write_block_log(outcome.chains, blocks)
        return report, blocks

    def test_clean_run_verifies(self, tmp_path):
        report, blocks = self._run(tmp_path)
        ok, findings = verify_run(report, blocks)
        assert ok, findings

    def test_zero_user_run_verifies(self, tmp_path):
        # no payment request ever closes the campaign, so no refund is due
        scenario = Scenario.from_dict(
            {
                "catalog_size": 2,
                "advertisers": [{"id": "a", "ads": [0, 1], "policies": [1, 2], "impressions": [5, 5]}],
                "users": {"count": 0},
                "pool": {"participants": 1, "threshold": 1, "draw_pool": 2},
            }
        )
        report, blocks = self._run(tmp_path, scenario=scenario)
        assert verify_run(report, blocks) == (True, [])

    def test_mutated_block_detected(self, tmp_path):
        report, blocks = self._run(tmp_path)
        lines = blocks.read_text().splitlines()
        record = json.loads(lines[1])
        record["state"] = ("0" if record["state"][0] != "0" else "1") + record["state"][1:]
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        blocks.write_text("\n".join(lines) + "\n")
        ok, findings = verify_run(report, blocks)
        assert not ok
        assert any("does not match its contents" in f for f in findings)

    def test_tampered_report_detected(self, tmp_path):
        report, blocks = self._run(tmp_path)
        lines = report.read_text().splitlines()
        users = json.loads(lines[1])
        users["rows"][0]["paid"] += 1
        users["rows"][0]["claimed"] += 1
        lines[1] = json.dumps(users, sort_keys=True, separators=(",", ":"))
        report.write_text("\n".join(lines) + "\n")
        ok, findings = verify_run(report, blocks)
        assert not ok
        assert any("oracle" in f or "differs" in f for f in findings)

    def test_mistyped_report_scenario_is_a_finding(self, tmp_path):
        report, blocks = self._run(tmp_path)
        lines = report.read_text().splitlines()
        meta_index, meta = next((i, json.loads(line)) for i, line in enumerate(lines) if '"meta"' in line)
        meta["scenario"]["users"]["count"] = "2"
        lines[meta_index] = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        report.write_text("\n".join(lines) + "\n")
        assert verify_run(report, blocks) == (False, ["report scenario: users: count: expected int, got str"])

    def test_block_log_roundtrip(self, tmp_path):
        _, blocks = self._run(tmp_path, "multichain")
        by_chain = load_block_log(blocks)
        assert sorted(by_chain) == [0, 1, 2]


class TestBenchModel:
    def test_zero_users_empty(self):
        row = simulated_throughput(0, 3)
        assert row["users_per_day"] == 0 and row["makespan_s"] == 0.0

    def test_throughput_monotone_in_chains(self):
        values = [simulated_throughput(600, c)["users_per_day"] for c in (1, 2, 3, 4, 6)]
        assert values == sorted(values)

    def test_linear_scaling_shape(self):
        single = simulated_throughput(600, 1)["users_per_day"]
        triple = simulated_throughput(600, 3)["users_per_day"]
        assert triple >= 2.5 * single
