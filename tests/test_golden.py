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
        "20fbf33dd4d7a2ed96eed19dd2e48d0ad1234a64271551702dbfe32499599de9",
        ["e84a43dfe97a0b497b952bc82db8caeab4311f4b6cd3f9654d36c8915b045b3b"],
    ),
    "honest_small": (
        "411fae23c62f3563a849c3e56ede0e2f4c7e5aecc150ee251464b360ab861e86",
        ["7bc535c89f39b87a6ed484b9cd6af6c9a11ab002cdc4fe624cfd6916eeb2bb1b"],
    ),
    "multichain": (
        "9fffa2acb0b58e3d77a3146018c8a63d8de614d7c1a264f0819f9dd5f959256e",
        [
            "a8fb280ce39cfb5a4af6bb22db125e2e9dd2315031a3c004c430e5cd185499d7",
            "f1c7472fa58f89ee1b3e655567a3c0e5a5cc46d87387c591bc562b65ca1391b6",
            "6f3bd362db2d6125ab13e0e5b33b334cd671953498eb0829810b53972387d6fa",
        ],
    ),
    "strawman": (
        "cc799240b26cb93a88ffd7fc8edfb81d81631602439954d3ba2991799a8fb725",
        ["d58a59a2b2b256e372ab8ec91a3c0949cb2511de47227ca09230cb24e89146f7"],
    ),
    "underpay": (
        "d885a4354bfdbd08f74a91eedb52a5c8623627607a8f8cde5799f2398430af4c",
        ["4d71a26f28ab996b0c386e3791f10f2221bd426d293ed73e12d46ac2c743adc3"],
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
