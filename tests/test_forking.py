"""Fork-per-batch: registrants' keys and VRF draws computed in forked
chunks equal the per-item results, errors are raised as in one in-process
call, and every child is reaped."""

import os
import signal
import subprocess
import sys

import pytest

from privads import forking
from privads.group import keygen, keygen_batch
from privads.proofs import vrf_rand, vrf_rand_batch

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
    seeds = [b"registrant-%d" % i for i in range(n)]
    keypairs = keygen_batch(seeds)
    assert keypairs == [keygen(seed) for seed in seeds]
    assert vrf_rand_batch(keypairs, b"round", 1000) == [vrf_rand(kp, b"round", 1000) for kp in keypairs]
    assert len(forks) == 2 * children  # one child per batch call above the minimum
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
