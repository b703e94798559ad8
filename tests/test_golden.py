"""Golden bytes: each bundled scenario yields a fixed report and final state.

The digests pin the sha256 of `report_bytes` and every chain's final state
hash.  A change that only makes the program faster leaves all of them
as they are; a change that alters what is computed must update them on
purpose, and say why.

PROTOCOL pins the same reports with the fields that carry no protocol
value removed: each chain's `final_state` (it hashes addresses, keys and
ciphertext bytes) and each user's `recovered`.  A change that moves bytes
without changing any computed value re-pins GOLDEN and leaves PROTOCOL
as it is.
"""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from privads.runner import report_bytes, run_scenario
from privads.scenario import load_scenario

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

GOLDEN = {
    "divert": (
        "8f3703653b50bb99b263be7a8b63ae7a3ae9a3a644dbc44ab9205542597ffae9",
        ["d0833e5308016a58009ce7f14584a65926c50876fc0fffaa11459b34bf2c2add"],
    ),
    "honest_small": (
        "a3a4cafc0a45b334397eb1e34c3ab3fe4459081bcbc94d1880ecfe0a2564498b",
        ["9c994942e1cbf12982b05c6e6492971836be7ace5f4bdcfe8b81a3bc0ae1ff3e"],
    ),
    "multichain": (
        "7e61007ddf0314227aafde717da002271fc78649dcbcc591f1c7811dd3676d18",
        [
            "37756eb89dbc576f519d22dee1a31c396efb46f3dbf02472aaa734da73739e70",
            "72624b6bfffc7f52f8096335bba7cf15f24e70fee1a5f7f07c9c08497dc33223",
            "36cb6c6c796677841cec87a4efb752256dbb23e2c15e0beda69afb0edf92e228",
        ],
    ),
    "strawman": (
        "6539a41d0fcfee342cea2336f9f805b8c98f565cd1aea526face72dead499251",
        ["9b3a6ebabbdc8bf6ea47b1e36ae6a87ef877c049a1ebe03501e7d77786c61b92"],
    ),
    "underpay": (
        "ea5fe7f48daeb682d729a4ad0c3547fbe6443e205208842543ab35f15b805545",
        ["b74832b4bf6f2fdfb0b13b7def944414a4bf654be365d686290355d1f4e74d84"],
    ),
}

PROTOCOL = {
    "divert": "1daec25bbe965db1fe184682863401b560bc2d1be740b535b296e2f0d89d22d5",
    "honest_small": "348ddd5f5d522e00fc5e6ac06ba3a767b621745fb8669cb386ffa5b40a48821b",
    "multichain": "1c4b0871d65dc1580e60cf2f537c5a7c3cf8dccc3cf41213e363e024f006bc9e",
    "strawman": "e2848045ec550973215b6f05fbf08dd7f021b29a4c7981e1ebe98dcb103f2cc4",
    "underpay": "6e006439771e6044ade20d952f54a863b51dc206ca87f83ec46ee9c93e4435ca",
}

NON_PROTOCOL_FIELDS = {"users": "recovered", "chains": "final_state"}


@functools.cache
def _outcome(name):
    return run_scenario(load_scenario(SCENARIOS / f"{name}.yaml"))


def test_every_bundled_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.yaml")) == sorted(GOLDEN) == sorted(PROTOCOL)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_and_state_hashes_unchanged(name):
    outcome = _outcome(name)
    chains = next(s for s in outcome.sections if s["section"] == "chains")
    report_sha256, state_hashes = GOLDEN[name]
    assert hashlib.sha256(report_bytes(outcome.sections)).hexdigest() == report_sha256
    assert [row["final_state"] for row in chains["rows"]] == state_hashes


@pytest.mark.parametrize("name", sorted(PROTOCOL))
def test_protocol_values_unchanged(name):
    sections = []
    for section in _outcome(name).sections:
        dropped = NON_PROTOCOL_FIELDS.get(section["section"])
        if dropped:
            rows = [{k: v for k, v in row.items() if k != dropped} for row in section["rows"]]
            section = {**section, "rows": rows}
        sections.append(section)
    assert hashlib.sha256(report_bytes(sections)).hexdigest() == PROTOCOL[name]


def test_strawman_report_unchanged_under_python_O(tmp_path):
    # Protocol checks are not asserts: with assert statements stripped the
    # command line writes the same report bytes.
    out = tmp_path / "report.jsonl"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-O", "-m", "privads.cli", "run", "--scenario", str(SCENARIOS / "strawman.yaml"), "--out", str(out)],
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["strawman"][0]
