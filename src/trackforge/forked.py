"""An ordered map over forked worker processes.

``forked_map(fn, items)`` deals the items round-robin to up to one worker
per usable CPU (``usable_cpus``) and yields ``fn(item)`` for each, in item
order, as the caller's thread receives it. Each worker writes each result to
its own ``os.pipe`` and blocks there until the caller reads it, so at most
one result per worker waits ahead of the caller, however many items there are.

Workers are ``os.fork`` children, so ``fn`` and the items reach them without
pickling, and they inherit the imported modules instead of importing NumPy
again; only the results are pickled, and the caller unpickles each from its
worker's pipe as it streams in. ``multiprocessing`` is not imported, so a
process that maps this way does not load it. trackforge starts no thread of
its own, and OpenBLAS joins its threads before a fork.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import BinaryIO, Callable, Iterator, NoReturn, Sequence


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _flush_std_streams() -> None:
    sys.stdout.flush()
    sys.stderr.flush()


def _serve(fn: Callable, items: Sequence, pipe: BinaryIO) -> None:
    """A worker's loop: write ``(True, fn(item))`` pickled for each item in
    turn, or ``(False, exception, traceback text)`` for the first whose call
    or pickling raises, and stop."""
    for item in items:
        try:
            message = pickle.dumps((True, fn(item)))
        except Exception as exc:  # the caller raises it, as if fn had run there
            pipe.write(pickle.dumps((False, exc, traceback.format_exc())))
            pipe.flush()
            return
        pipe.write(message)
        pipe.flush()  # returns once the caller has read all but a pipe's capacity


def _work(fn: Callable, items: Sequence, fd: int, mask: set) -> NoReturn:
    """A forked worker: serve ``items`` into the pipe ``fd``, then end the
    process without returning into the caller's frames. SIGTERM ends it at
    once: an inherited handler would run the caller's code, so the default
    action is restored before the caller's signal ``mask`` is."""
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        with open(fd, "wb") as pipe:
            _serve(fn, items, pipe)
        code = 0
    except BaseException:  # the process ends here, so report what ended it
        traceback.print_exc()
    finally:
        _flush_std_streams()
        os._exit(code)


def forked_map(fn: Callable, items: Sequence) -> Iterator:
    """``fn(item)`` for each of ``items``, in order, computed in forked workers.

    An exception ``fn`` raises in a worker, or that pickling its result
    raises, is raised here, with its type and arguments, when its item's turn
    comes, chained to a RuntimeError that holds the worker's traceback; a
    worker that dies without sending raises EOFError. No worker outlives the
    generator: when it is exhausted, raises or is closed, every worker is
    sent SIGTERM and reaped. A caller that may stop early closes it, for
    example with ``contextlib.closing``.
    """
    count = min(len(items), usable_cpus())
    pids: list[int] = []
    pipes: list[BinaryIO] = []
    try:
        for k in range(count):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            _flush_std_streams()  # or the worker prints what is buffered here again
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})  # held until _work resets it
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, items[k::count], write_fd, mask)
                pids.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(write_fd)  # the worker holds the only write end, so its exit ends the pipe
        for k in range(len(items)):
            ok, value, *trace = pickle.load(pipes[k % count])
            if not ok:
                raise value from RuntimeError(f"raised in a worker process:\n{trace[0]}")
            yield value
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
