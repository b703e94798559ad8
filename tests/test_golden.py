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
from pathlib import Path

import pytest

from privads.runner import report_bytes, run_scenario
from privads.scenario import load_scenario

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "divert": (
        "d453ed872aecd3c3a71cf369edee3b7a70ce7982324518bca0239c51b73f6d03",
        ["c9bff76c355a6ed53aea7c77a481bd7771cb0a8262a95903559bd3f41c1381b2"],
    ),
    "honest_small": (
        "a13aded36e6c21ce3c85f7eda5b870ca46b70bc07bc4474afde40803316e1513",
        ["c35a6f88e3f15e9342f0aa954b2803d264c0179a1c7e340b5a50510994963052"],
    ),
    "multichain": (
        "4cdd8baa235ef7f2d081fd404b04bd63a2c9f9a20667682bce56c44c060d4c0d",
        [
            "8b05baa522ea9950ebb32ec9047d6e64b290b5cc0b27c81c565df293d6aa128d",
            "10f73fe1625de10a693eb95b33ed5357c4cfd2b2453a14555ba09ffa186eba74",
            "c8059928674a5b9b1b031c29a2ce4c3718f230598723e8193727542388b99233",
        ],
    ),
    "strawman": (
        "4da30411cac9ebd3116e39f7a165630413d3effbdf0ffffcfe2914d8be2181e5",
        ["169ea02f92163731044715240da7b75aab921a1ec787fc13da423986fe5b7db6"],
    ),
    "underpay": (
        "1192c26b60561c53073c0bbb2c98b52dccf74484be8f8e57fd595690e34f1dfe",
        ["98c255110e406d9d943cad26c2e8e949954ccadde5853fce7c39478b0f0eb701"],
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
