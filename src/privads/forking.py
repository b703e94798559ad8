"""Fork-per-batch: one batch of independent parties' own work, split into
chunks that run on separate CPUs.

Only work that each party does for itself goes through here (registrants
deriving their keys and evaluating their lottery VRFs); validator,
contract and verifier code never forks, so its cost stays a one-core cost.
The chunks are computed by the same function as one in-process call and
joined in item order, so the result is the same for any CPU count.
Forking assumes a single-threaded process, as every privads entry point
is.
"""

from __future__ import annotations

import os

__all__ = ["CHUNK_MIN", "fork_map"]

# Fewest items per chunk: a batch forks only when every chunk gets at
# least this many.  Measured on CPython 3.11 (2-core x86-64, a 30 MB
# process with the G and H tables built; medians of 15, two runs): an
# empty fork_map costs 2.7 ms.  At 64 items a chunk, keygen_batch took
# 24-28 ms against 32-40 ms in process, and vrf_rand_batch 107-123 ms
# against 167-207 ms; at 24 items a chunk, keygen_batch ranged from 2 ms
# faster to 5 ms slower.
CHUNK_MIN = 64


def fork_map(fn, items) -> list:
    """fn(items) for a deterministic function fn from a list to a list of
    the same length, computed as fn over consecutive chunks of items: the
    parent computes the first chunk, and one forked child per further
    usable CPU computes each of the others.  With one CPU, or fewer than
    CHUNK_MIN items per chunk, it is one in-process call.

    A chunk whose child fails (fn raised, or the child died) is computed
    again in the parent, after every child is reaped: an exception fn
    raises therefore comes from the first chunk that raises, with its type,
    message and traceback, as in one in-process call."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    chunks = min(cpus, len(items) // CHUNK_MIN)
    if chunks < 2:
        return fn(items)
    import pickle  # here, so a batch that never forks pays neither its 3 ms import nor its 0.5 MB

    bounds = [len(items) * i // chunks for i in range(chunks + 1)]
    ranges = list(zip(bounds[1:], bounds[2:]))  # the children's chunks
    children = []  # (pid, read end of its result pipe)
    try:
        for start, end in ranges:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(fn, items[start:end], write)
            os.close(write)
            children.append((pid, read))
        out = fn(items[: bounds[1]])
    finally:
        # Each pipe is read to its end before its child is waited for: a
        # result larger than the pipe buffer blocks the child until then.
        results = [_join(pid, read) for pid, read in children]
    for (start, end), data in zip(ranges, results):
        out += fn(items[start:end]) if data is None else pickle.loads(data)
    return out


def _child(fn, chunk, write: int) -> None:
    """Compute one chunk, pickle it down the pipe and leave through
    os._exit, with status 1 if fn raised: no stdio buffer inherited from
    the parent is flushed and no exit handler runs."""
    import pickle

    status = 1
    try:
        with open(write, "wb") as pipe:
            pickle.dump(fn(chunk), pipe)
        status = 0
    finally:
        os._exit(status)


def _join(pid: int, read: int) -> bytes | None:
    """The child's pickled result, or None if it failed."""
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return data if status == 0 else None
