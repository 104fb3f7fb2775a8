"""An ordered map over forked worker processes.

``forked_map(fn, items)`` deals the items round-robin to up to one worker
per usable CPU (``usable_cpus``) and yields ``fn(item)`` for each, in item
order, as the caller's thread receives it. Each worker sends each result over
its own one-way pipe and blocks there until the caller takes it, so at most
one result per worker waits ahead of the caller, however many items there are.

Workers are forked, so ``fn`` and the items reach them without pickling, and
they inherit the imported modules instead of importing NumPy again; only the
results are pickled. The fork start method is named because Python 3.14
changes the Linux default. trackforge starts no thread of its own, and
OpenBLAS joins its threads before a fork.
"""

from __future__ import annotations

import os
import traceback
from typing import Callable, Iterator, Sequence


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _serve(fn: Callable, items: Sequence, conn) -> None:
    """A worker's loop: send ``(True, fn(item))`` for each item in turn, or
    ``(False, exception, traceback text)`` for the first that raises, and stop."""
    for item in items:
        try:
            result = True, fn(item)
        except Exception as exc:  # the caller raises it, as if fn had run there
            conn.send((False, exc, traceback.format_exc()))
            return
        conn.send(result)


def forked_map(fn: Callable, items: Sequence) -> Iterator:
    """``fn(item)`` for each of ``items``, in order, computed in forked workers.

    An exception ``fn`` raises in a worker is raised here, with its type and
    arguments, when its item's turn comes, chained to a RuntimeError that holds
    the worker's traceback; a worker that dies without sending raises EOFError.
    No worker outlives the generator: when it is exhausted, raises or is closed,
    every worker is ended and reaped. A caller that may stop early closes it,
    for example with ``contextlib.closing``.
    """
    # multiprocessing is imported here, so that a process that never forks does not load it
    import multiprocessing

    context = multiprocessing.get_context("fork")
    count = min(len(items), usable_cpus())
    conns, workers = [], []
    try:
        for k in range(count):
            recv, send = context.Pipe(duplex=False)
            conns.append(recv)
            workers.append(context.Process(target=_serve, args=(fn, items[k::count], send), daemon=True))
            workers[-1].start()
            send.close()  # the worker holds the only write end, so its exit ends the pipe
        for k in range(len(items)):
            ok, value, *trace = conns[k % count].recv()
            if not ok:
                raise value from RuntimeError(f"raised in a worker process:\n{trace[0]}")
            yield value
        for worker in workers:
            worker.join()
    finally:
        for worker in workers:  # a no-op on a worker already joined
            worker.terminate()
            worker.join()
        for conn in conns:
            conn.close()
