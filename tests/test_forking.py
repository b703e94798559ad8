"""Fork-per-batch: registrants' keys and VRF draws computed in forked
chunks equal the per-item results, parties' work forked the same way gives
the same report bytes and blocks, errors are raised as in one in-process
call, and every child is reaped."""

import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privads import forking
from privads.actors import UserAgent
from privads.group import keygen, keygen_batch
from privads.proofs import VRF_DRAW_COST, vrf_rand, vrf_rand_batch
from privads.rng import Rng
from privads.runner import report_bytes, run_scenario
from privads.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MIN = forking.CHUNK_MIN


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs on any machine, and a minute before a hung join
    fails the test; yields the list of pids forked."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def hung(signum, frame):
        raise TimeoutError("fork_map did not return within 60 s")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _all_reaped() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("n, children", [(1, 0), (MIN - 1, 0), (MIN, 0), (2 * MIN - 1, 0), (2 * MIN + 1, 1)])
def test_keys_and_draws_equal_the_per_item_results(forks, n, children):
    # `children` is the key batch's: a key is one unit of work.  A draw
    # weighs VRF_DRAW_COST units, so its batch forks from fewer items.
    seeds = [b"registrant-%d" % i for i in range(n)]
    keypairs = keygen_batch(seeds)
    assert keypairs == [keygen(seed) for seed in seeds]
    assert len(forks) == children
    assert vrf_rand_batch(keypairs, b"round", 1000) == [vrf_rand(kp, b"round", 1000) for kp in keypairs]
    assert len(forks) == children + (n >= 2 * -(-MIN // VRF_DRAW_COST))
    assert _all_reaped()


def test_one_cpu_never_forks(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    seeds = [b"registrant-%d" % i for i in range(2 * MIN + 1)]
    assert keygen_batch(seeds) == [keygen(seed) for seed in seeds]
    assert forks == []


@pytest.mark.parametrize("where", [0, -1])
def test_an_empty_seed_in_any_chunk_raises_as_in_process(forks, where):
    seeds = [b"registrant-%d" % i for i in range(2 * MIN + 1)]
    seeds[where] = b""
    with pytest.raises(ValueError, match="^seed must be non-empty$"):
        keygen_batch(seeds)
    assert len(forks) == 1
    assert _all_reaped()


def test_the_first_failing_chunk_wins(forks):
    def fail(chunk):
        raise KeyError(chunk[0])

    with pytest.raises(KeyError, match="^0$"):
        forking.fork_map(fail, list(range(2 * MIN)))
    assert len(forks) == 1
    assert _all_reaped()


def test_a_chunk_whose_child_dies_is_computed_in_the_parent(forks):
    parent = os.getpid()

    def squares(chunk):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return [i * i for i in chunk]

    items = list(range(2 * MIN + 1))
    assert forking.fork_map(squares, items) == [i * i for i in items]
    assert len(forks) == 1
    assert _all_reaped()


def test_a_result_larger_than_a_pipe_comes_back_whole(forks, monkeypatch):
    # Each child sends about 128 KiB, twice a Linux pipe's buffer.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    items = list(range(4 * MIN))
    out = forking.fork_map(lambda chunk: [bytes([i % 256]) * 2048 for i in chunk], items)
    assert out == [bytes([i % 256]) * 2048 for i in items]
    assert len(forks) == 3
    assert _all_reaped()


def test_a_child_flushes_no_stdio():
    # Text buffered in the parent's stdout before the fork is printed once:
    # a child that flushed it would print it again.
    script = (
        "import os, sys\n"
        "from privads import forking\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.stdout.write('before ')\n"
        "print(sum(forking.fork_map(lambda c: [i * i for i in c], list(range(4 * forking.CHUNK_MIN)))))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout stays block-buffered
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"before {sum(i * i for i in range(4 * MIN))}\n"


# ---------------------------------------------------------------------------
# The chunk rule
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 3000),
    cost=st.integers(1, 400),
    cpus=st.integers(1, 8),
    split=st.sampled_from([forking.SPLIT, forking.PARTY_SPLIT]),
)
def test_chunks_weigh_work_and_the_parent_takes_the_largest(n, cost, cpus, split):
    bounds = forking.chunk_bounds(n, cost, cpus, split)
    sizes = [end - start for start, end in zip(bounds, bounds[1:])]
    least = -(-MIN // cost)  # the fewest items that make CHUNK_MIN units
    assert bounds[0] == 0 and bounds[-1] == n and len(sizes) <= cpus
    if len(sizes) > 1:
        assert min(sizes) * cost >= MIN  # every chunk carries CHUNK_MIN units
        assert sizes[0] == max(sizes)  # the parent's chunk is the largest
        assert len(set(sizes[1:])) == 1  # the children's are equal
    # One chunk fewer only when the work would not fill one more.
    assert len(sizes) == max(1, min(cpus, n // least))


@pytest.mark.parametrize(
    "n, cost, split, bounds",
    [
        (20, 6 * 64, forking.SPLIT, [0, 10, 20]),  # an even split
        (21, 6 * 64, forking.SPLIT, [0, 11, 21]),  # the parent takes the odd item
        (20, 6 * 64, forking.PARTY_SPLIT, [0, 12, 20]),  # catalog's claims, a party batch: 3 parts to 2
        (3, 800, forking.PARTY_SPLIT, [0, 2, 3]),  # three audits
        (2, 96, forking.PARTY_SPLIT, [0, 1, 2]),  # a child takes CHUNK_MIN units at least
        (1000, 1, forking.SPLIT, [0, 500, 1000]),  # the pool's registrant keys
        (129, 1, forking.SPLIT, [0, 65, 129]),  # two chunks of CHUNK_MIN keys and one over
        (127, 1, forking.SPLIT, [0, 127]),  # too few keys for two chunks
        (50, VRF_DRAW_COST, forking.SPLIT, [0, 25, 50]),  # catalog's VRF draws: 11 make a chunk
        (10, VRF_DRAW_COST, forking.SPLIT, [0, 10]),
    ],
)
def test_chunk_bounds_on_the_shapes_that_run(n, cost, split, bounds):
    assert forking.chunk_bounds(n, cost, 2, split) == bounds


# ---------------------------------------------------------------------------
# Parties: own(item) in the parent, then(item, result) for a child's items
# ---------------------------------------------------------------------------


def test_parties_are_handled_in_item_order(forks):
    order = []
    items = list(range(20))
    forking.fork_map(
        lambda chunk: [i * i for i in chunk],
        items,
        MIN,  # one item per chunk is enough work
        own=lambda i: order.append(("own", i)),
        then=lambda i, square: order.append(("then", i, square)),
    )
    bounds = forking.chunk_bounds(20, MIN, 2, forking.PARTY_SPLIT)
    assert order == [("own", i) for i in range(bounds[1])] + [("then", i, i * i) for i in range(bounds[1], 20)]
    assert len(forks) == 1
    assert _all_reaped()


def test_the_parent_computes_its_first_item_before_it_forks(forks):
    # Whatever the first item builds lazily, the children inherit.
    seen = []
    forking.fork_map(
        lambda chunk: chunk, list(range(20)), MIN, own=lambda i: seen.append((i, len(forks))), then=lambda i, r: None
    )
    assert seen[:2] == [(0, 0), (1, 1)]
    assert _all_reaped()


@pytest.mark.parametrize("failing_call", [1, 2])
def test_a_party_raising_in_the_parent_leaves_no_child(forks, failing_call):
    # The first call raises before any fork (perfbench's set-up mode stops
    # a run at the first UserAgent.claim); a later one with a child running.
    calls = []

    def own(item):
        calls.append(item)
        if len(calls) == failing_call:
            raise KeyError(item)

    with pytest.raises(KeyError):
        forking.fork_map(lambda chunk: chunk, list(range(20)), MIN, own=own, then=lambda i, r: None)
    assert len(forks) == failing_call - 1
    assert _all_reaped()


# ---------------------------------------------------------------------------
# Whole runs: one CPU or two, the same bytes
# ---------------------------------------------------------------------------


def _run(name):
    outcome = run_scenario(load_scenario(SCENARIOS / f"{name}.yaml"))
    return report_bytes(outcome.sections), [[b.block_hash for b in run.chain.blocks] for run in outcome.chains]


def test_bundled_scenarios_are_the_same_on_one_cpu_and_two(forks, monkeypatch):
    names = sorted(path.stem for path in SCENARIOS.glob("*.yaml"))
    assert len(names) == 5
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = [_run(name) for name in names]
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    two = [_run(name) for name in names]
    assert forks  # honest_small's claims, requests, partials and audits fork
    assert two == one
    assert _all_reaped()


def test_a_run_stopped_at_its_first_claim_leaves_no_child(forks, monkeypatch):
    # perfbench's --mode setup replaces UserAgent.claim with one that raises.
    def first_claim(*args, **kwargs):
        raise RuntimeError("set-up done")

    monkeypatch.setattr(UserAgent, "claim", first_claim)
    with pytest.raises(RuntimeError, match="set-up done"):
        run_scenario(load_scenario(SCENARIOS / "honest_small.yaml"))
    assert _all_reaped()


def test_a_run_raising_in_a_later_claim_leaves_no_child(forks, monkeypatch):
    claim, calls = UserAgent.claim, []

    def second_claim_raises(user, handle, vector):
        calls.append(user.user_id)
        if len(calls) == 2:
            raise RuntimeError("stopped")
        return claim(user, handle, vector)

    monkeypatch.setattr(UserAgent, "claim", second_claim_raises)
    with pytest.raises(RuntimeError, match="stopped"):
        run_scenario(load_scenario(SCENARIOS / "honest_small.yaml"))
    assert len(forks) == 1  # the claims batch had forked its child
    assert _all_reaped()


def test_a_user_travels_back_whole():
    # A forked child hands back each user it worked for; its Rng goes as
    # seed material and state and draws on where the child left off.
    rng = Rng("user")
    rng.getrandbits(300)
    user = UserAgent("u0", rng, interaction_cap=5, recovery_bound=100)
    user.new_period(0)
    back = pickle.loads(pickle.dumps(user))
    assert vars(back).keys() == vars(user).keys()
    assert back.ephemeral == user.ephemeral and back.accounts == user.accounts
    assert back.rng.getrandbits(256) == user.rng.getrandbits(256)
    assert back.rng.child("x").random() == user.rng.child("x").random()
