"""forked_map: results in item order, errors raised in the caller, and no
worker left once the generator ends, however it ends."""

import os
import pickle
import signal
from contextlib import closing

import pytest

from trackforge import forked
from trackforge.forked import forked_map


@pytest.fixture(params=[1, 2, 3])
def cpus(request, monkeypatch):
    monkeypatch.setattr(forked, "usable_cpus", lambda: request.param)
    return request.param


def _square_or_fail(x):
    if x == 5:
        raise KeyError(x, "five")
    return x * x


def test_results_in_item_order(cpus, forks):
    assert list(forked_map(lambda x: x * x, range(7))) == [x * x for x in range(7)]
    assert len(forks) == cpus and forks.alive() == 0


def test_items_dealt_round_robin_to_one_worker_per_cpu(cpus):
    pids = [pid for _, pid in forked_map(lambda x: (x, os.getpid()), range(7))]
    assert len(set(pids)) == cpus and os.getpid() not in pids
    assert all(pid == pids[k % cpus] for k, pid in enumerate(pids))


def test_no_more_workers_than_items(cpus):
    assert len({pid for pid in forked_map(lambda _: os.getpid(), [0])}) == 1


def test_no_items(cpus):
    assert list(forked_map(_square_or_fail, [])) == []


def test_worker_exception_raised_in_order(cpus, forks):
    results = forked_map(_square_or_fail, range(9))
    assert [next(results) for _ in range(5)] == [0, 1, 4, 9, 16]
    with pytest.raises(KeyError) as raised:
        next(results)
    assert raised.value.args == (5, "five")
    assert isinstance(raised.value.__cause__, RuntimeError)
    assert "_square_or_fail" in str(raised.value.__cause__)
    assert len(forks) == cpus and forks.alive() == 0


def test_unpicklable_result_raised_in_order(cpus, forks):
    with pytest.raises(Exception) as in_process:
        pickle.dumps(lambda: 3)
    results = forked_map(lambda x: (lambda: x) if x == 3 else x, range(6))
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(type(in_process.value)) as raised:
        next(results)
    assert "lambda" in str(raised.value)
    assert isinstance(raised.value.__cause__, RuntimeError)
    assert len(forks) == cpus and forks.alive() == 0


def test_worker_that_dies_without_sending(cpus, forks):
    with pytest.raises(EOFError):
        list(forked_map(lambda x: os._exit(3) if x == 2 else x, range(4)))
    assert len(forks) == cpus and forks.alive() == 0


def test_closed_early_leaves_no_worker(cpus, forks):
    # each result is larger than a pipe holds, so the workers wait in send
    with closing(forked_map(lambda x: bytes(1 << 20), range(6))) as results:
        assert len(next(results)) == 1 << 20
        assert len(forks) == cpus and forks.alive() == cpus
    assert forks.alive() == 0


def test_caller_sigterm_handler_does_not_keep_a_worker(cpus, forks):
    # a worker inherits the caller's handlers; one that ignored SIGTERM
    # would keep a worker waiting to send once the generator is closed
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    try:
        with closing(forked_map(lambda x: bytes(1 << 20), range(6))) as results:
            assert len(next(results)) == 1 << 20
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert len(forks) == cpus and forks.alive() == 0
