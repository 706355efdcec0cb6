"""One way to spread an ensemble's independent units of work over every core.

An ensemble hands `in_workers` a function and its list of units: chunks or
blocks of samples whose numbers depend only on their own sample indices
(the counter-based stream contract of `streams`). The units are dealt
round-robin over up to `worker_count()` processes: the caller runs the first
share and forks a daemonic worker for each other one. Every process writes
its units' results into outputs the caller allocated with `shared_zeros`,
each element from exactly one process, and replies with what the function
returns, or with the exception it raised, which the caller re-raises typed.
A unit's numbers never depend on the process that computes it, so results
do not depend on the worker count.

A share never forks again: an `in_workers` call made while one runs, in a
worker or in the caller, runs in-process, so nested ensembles (the
`delta_metric` cells' field ensembles) do not oversubscribe the cores.

With one CPU, one unit, no `fork`, a daemonic caller (which may not have
children) or another thread running, everything runs in-process too. No
worker outlives the call.
"""

from __future__ import annotations

import mmap
import os
import threading

import numpy as np

from .errors import CollapseMcError

# True while this process runs a share; set and reset by `in_workers` alone,
# and inherited by the workers it forks
_in_share = False


def shared_zeros(shape, dtype=float) -> np.ndarray:
    """Zeros in an anonymous shared mapping, so that what a forked worker
    writes into them the caller reads."""
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def worker_count() -> int:
    """CPUs this process may run on; 1 where forking is unavailable or
    unsafe (a thread other than this one would not survive the fork)."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _reply(conn, run, units):
    """Worker body: send back `run(units)`, or the exception it raised."""
    try:
        reply = run(units)
    except Exception as exc:        # re-raised, typed, by the caller
        reply = exc
    conn.send(reply)


def in_workers(run, units) -> list:
    """`run(share)` for each round-robin share of `units` over up to
    `worker_count()` processes; returns the replies in share order, the
    caller's own share first."""
    global _in_share
    n = min(worker_count(), len(units))
    if n == 1 or _in_share:
        return [run(units)]
    import multiprocessing
    context = multiprocessing.get_context("fork")
    if context.current_process().daemon:    # may not have children
        return [run(units)]
    workers = []
    _in_share = True
    try:
        for i in range(1, n):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_reply, args=(send, run, units[i::n]),
                                     daemon=True)
            worker.start()
            send.close()
            workers.append((worker, receive))
        replies = [run(units[::n])]
        for worker, receive in workers:
            try:
                reply = receive.recv()
            except EOFError:
                worker.join()
                raise CollapseMcError(
                    f"ensemble worker exited with code {worker.exitcode}") from None
            if isinstance(reply, Exception):
                raise reply
            replies.append(reply)
    finally:
        _in_share = False
        for worker, receive in workers:
            worker.join()
            receive.close()
    return replies
