"""Fork-per-batch: one batch of independent parties' own work, split into
chunks that run on separate CPUs.

Only work that each party does for itself goes through here: registrants
deriving their keys and evaluating their lottery VRFs, users encrypting
their claims and proving their payment requests, pool members decrypting
their partials, and advertisers checking their audits.  Validator,
contract and verifier code never forks, so its cost stays a one-core cost.
A party that sends a transaction builds it in a child, and the parent
submits it in item order, so nonces and blocks are the same for any CPU
count.  Which items the parent computes depends only on the batch and the
CPU count, never on timing, so traced runs of one seed count the same
calls.  Forking assumes a single-threaded process, as every privads entry
point is.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal

try:
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:  # no F_SETPIPE_SZ outside Linux: pipes keep their size
    F_SETPIPE_SZ = None

__all__ = ["CHUNK_MIN", "PARTY_SPLIT", "SPLIT", "chunk_bounds", "fork_map"]

# Fewest units of work per chunk, one unit being one multiple of G (a
# registrant's key): a batch forks only when each chunk gets at least this
# much.  Measured on CPython 3.11 (2-core x86-64, a 30 MB process with the
# G and H tables built; medians of 15, two runs): an empty fork_map costs
# 2.7 ms.  At 64 keys a chunk, keygen_batch took 24-28 ms against 32-40 ms
# in process, and 64 VRF draws 107-123 ms against 167-207 ms; at 24 keys a
# chunk, keygen_batch ranged from 2 ms faster to 5 ms slower.  Each batch
# states its items' cost in these units (see the callers).
CHUNK_MIN = 64


# The parent's chunk against a child's, in parts.  A registrant batch
# splits evenly, the parent taking any odd item: it runs inside the pool's
# set-up, where a longer parent chunk only delays the first claim.  A party
# batch runs from the runner, between blocks, where a parent left waiting
# on a child would wait outside every party's own work: it gives the parent
# 3 parts to a child's 2.  Measured per item on evenly split batches, a
# child took 1.04-1.53 times as long as the parent (median 1.25; CPython
# 3.11 on a 2-vCPU x86-64 VM): it starts with cold caches, copies each page
# it writes, and the second vCPU ran 10-15% slower.
SPLIT = (1, 1)
PARTY_SPLIT = (3, 2)


def chunk_bounds(n: int, cost: int, cpus: int, split: tuple = SPLIT) -> list:
    """Where fork_map cuts n items of `cost` units each on `cpus` CPUs:
    [0, ..., n], one chunk per CPU while each chunk still gets CHUNK_MIN
    units.  The first chunk, the parent's, is the largest: with split
    (p, c), a child takes c parts of the items to the parent's p, or
    CHUNK_MIN units if that is more, so that the parent, not a child, ends
    the batch.  One chunk means one in-process call."""
    least = -(-CHUNK_MIN // cost)  # items per chunk: CHUNK_MIN / cost, rounded up
    chunks = max(1, min(cpus, n // least))
    parent, part = split
    child = max(least, part * n // (parent + part * (chunks - 1)))
    head = n - child * (chunks - 1)
    return [0] + [head + child * i for i in range(chunks)]


def fork_map(fn, items, cost: int = 1, own=None, then=None):
    """fn(items) for a deterministic function fn from a list to a list of
    the same length, computed as fn over consecutive chunks of items (see
    chunk_bounds; each item is `cost` units of work): the parent computes
    the first chunk, and one forked child per further usable CPU computes
    each of the others.  The result is the same for any CPU count.

    When its chunk stays the largest without it, the parent computes its
    first item before it forks: whatever the batch builds on first use (a
    window table for a base first used here, a baby-step table) the
    children then inherit instead of each building it again.

    With `own` and `then` given (parties that each send something), the
    parent calls own(item) for each item of its own chunk, then
    then(item, result) with fn's result for each other item, in item
    order, and returns None.

    A chunk whose child fails (fn raised, or the child died) is computed
    again in the parent: an exception fn raises therefore comes from the
    first chunk that raises, with its type, message and traceback, as in
    one in-process call.  If the parent's own chunk raises, every child is
    killed.  Every child is reaped before fork_map returns or raises."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    bounds = chunk_bounds(len(items), cost, cpus, SPLIT if own is None else PARTY_SPLIT)
    ranges = list(zip(bounds[1:], bounds[2:]))  # the children's chunks
    first = 1 if ranges and bounds[1] - 1 > bounds[2] - bounds[1] else 0

    def compute(chunk) -> list:
        if own is None:
            return fn(chunk) if chunk else []
        for item in chunk:
            own(item)
        return []

    out = compute(items[:first])
    children = []  # (pid, read end of its result pipe)
    sent = None  # each child's pickled result, once the parent's own chunk is done
    try:
        for start, end in ranges:
            read, write = os.pipe()
            if F_SETPIPE_SZ is not None:  # a result fits, so the child need not wait for the parent to read
                with contextlib.suppress(OSError):  # over the user's pipe quota: the default size
                    fcntl(write, F_SETPIPE_SZ, 1 << 20)
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _serve(fn, items[start:end], write)
            os.close(write)
            children.append((pid, read))
        out += compute(items[first : bounds[1]])
        sent = [_read(read) for _, read in children]
        for (start, end), data in zip(ranges, sent):
            results = fn(items[start:end]) if data is None else pickle.loads(data)
            if own is None:
                out += results
            else:
                for item, result in zip(items[start:end], results):
                    then(item, result)
    finally:
        # Reaped last: a child that has sent its results may still be
        # tearing down its memory, and the parent need not wait for that.
        # A child whose results will not be read is killed first.
        for pid, read in children:
            if sent is None:
                os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
    return out if own is None else None


def _serve(fn, chunk, write: int) -> None:
    """A child's whole life: compute one chunk, send it down the pipe as an
    8-byte length and a pickle, and leave through os._exit, so no stdio
    buffer inherited from the parent is flushed and no exit handler runs.
    If fn raises, nothing is sent."""
    import gc

    gc.disable()  # a collection touches, and so copies, every page shared with the parent
    try:
        with open(write, "wb") as pipe:
            data = pickle.dumps(fn(chunk))
            pipe.write(len(data).to_bytes(8, "big") + data)
    finally:
        os._exit(0)


def _read(read: int) -> bytes | None:
    """A child's pickled result, read to the end of its pipe; None if the
    child sent no whole result."""
    with open(read, "rb", closefd=False) as pipe:
        data = pipe.read()
    if len(data) < 8 or int.from_bytes(data[:8], "big") != len(data) - 8:
        return None
    return data[8:]
