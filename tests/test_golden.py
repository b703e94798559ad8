"""Golden bytes: each bundled scenario yields a fixed report and final state.

The digests pin the sha256 of `report_bytes` and every chain's final state
hash.  A change that only makes the program faster leaves all of them
as they are; a change that alters what is computed must update them on
purpose, and say why.
"""

import hashlib
from pathlib import Path

import pytest

from privads.runner import report_bytes, run_scenario
from privads.scenario import load_scenario

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "divert": (
        "a83f902aaab1a3ed99b12643e5b573886c61958a14c6ba84358975d4d7de5296",
        ["1d46ad82600a0ae80e0cd1c948e29bd9d6f3e124d49a94e278f920948d7ffd5c"],
    ),
    "honest_small": (
        "ed65dd752d6f130f002e24d66cfd2924711167f3be06bbe24f7d4f2c8ffa93dc",
        ["ee9c2e510467f63a18ab28939de79ff12c2714adf4cb965ba2b385e6c8d49206"],
    ),
    "multichain": (
        "6ca43dc824333d5468ca9cd1b68dc41c01611a140e5ddae3deb9c281fa76e1d3",
        [
            "cc5418e7cadee1f1ff1c7a56619190e1d756fbd627ae97db2ef321e67af588b8",
            "7e170e588bd7ed91aa12fd9b58ed5bc56b8e5eaf2c889947834f4fd426aa8140",
            "186e32c988b9ed7b8cb02cf7c3a3d7bea3daa5b27431cb67a2011098cddf9df8",
        ],
    ),
    "strawman": (
        "568c70a2214123468324717c6df4ca3f0abaf9499952eb3fed54e3db5ba34360",
        ["4c775dbd60fd2155fb8f2d4a5ebb87af74560d9c966c254963f58e516dcd53b6"],
    ),
    "underpay": (
        "57af9a6d1d6d2ca6258523575bfd31b86c7c8ab3074be0836442b1eee46866a6",
        ["d4bd75656b862a06df87492108fa6bb97ba1b45c143398f4f20f379f9f20e17a"],
    ),
}


def test_every_bundled_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS.glob("*.yaml")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_and_state_hashes_unchanged(name):
    outcome = run_scenario(load_scenario(SCENARIOS / f"{name}.yaml"))
    chains = next(s for s in outcome.sections if s["section"] == "chains")
    report_sha256, state_hashes = GOLDEN[name]
    assert hashlib.sha256(report_bytes(outcome.sections)).hexdigest() == report_sha256
    assert [row["final_state"] for row in chains["rows"]] == state_hashes
