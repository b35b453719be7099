"""The ordered fork pool: answers and errors in item order, and workers that
hold nothing open, leave nothing behind and never outlive ``close``."""

import contextlib
import os
import signal
import time

import pytest

from fedbeam.errors import ContractViolationError, IngestionError, NumericsError
from fedbeam.pool import ForkPool

from helpers import has_no_child, run_python

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks")


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_item_zero_runs_here_and_answers_come_back_in_item_order():
    with ForkPool(lambda item: (item, os.getpid()), 3) as pool:
        # One item forks nothing.
        assert pool.map(["a"]) == [("a", os.getpid())]
        assert has_no_child()
        answers = pool.map(["a", "b", "c"])
        assert [item for item, _ in answers] == ["a", "b", "c"]
        pids = [pid for _, pid in answers]
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        # The same workers answer the next map.
        assert [pid for _, pid in pool.map(["d", "e", "f"])] == pids
    assert has_no_child()


@pytest.mark.parametrize(
    "errors, raised",
    [
        ([None, NumericsError("item 1"), IngestionError("item 2")], NumericsError("item 1")),
        ([IngestionError("item 0"), None, NumericsError("item 2")], IngestionError("item 0")),
        ([None, None, ChildProcessError(5, "item 2")], ChildProcessError(5, "item 2")),
    ],
)
def test_every_item_finishes_before_the_first_error_is_raised(tmp_path, errors, raised):
    def work(item):
        k, error = item
        # Later items finish first.
        time.sleep(0.05 * (3 - k))
        (tmp_path / f"done-{k}").touch()
        if error is not None:
            raise error
        return k

    with ForkPool(work, 3) as pool:
        with pytest.raises(type(raised)) as err:
            pool.map(list(enumerate(errors)))
        assert type(err.value) is type(raised) and str(err.value) == str(raised)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["done-0", "done-1", "done-2"]
        # The workers answer the next map.
        assert pool.map([(k, None) for k in range(3)]) == [0, 1, 2]
    assert has_no_child()


def test_a_map_takes_one_to_processes_items():
    pool = ForkPool(abs, 2)
    for items in ([], [1, 2, 3]):
        with pytest.raises(ContractViolationError, match="a pool of 2 processes"):
            pool.map(items)
    assert has_no_child()


def test_a_worker_whose_answer_cannot_be_pickled_ends_and_answers_with_an_error():
    with ForkPool(lambda item: (lambda: item), 2) as pool:
        with pytest.raises(ChildProcessError, match="ended before it answered"):
            pool.map([0, 1])
    assert has_no_child()


def test_a_worker_that_died_answers_with_a_child_process_error():
    with ForkPool(lambda item: os.getpid(), 2) as pool:
        _, pid = pool.map([0, 1])
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        with pytest.raises(ChildProcessError, match=f"worker process {pid} ended"):
            pool.map([0, 1])
    assert has_no_child()


def test_close_kills_and_reaps_a_worker_whose_answer_will_not_be_read():
    def work(item):
        if item == "here":
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with deadline(30), pytest.raises(KeyboardInterrupt):
        with ForkPool(work, 2) as pool:
            pool.map(["here", "there"])
    assert time.monotonic() - start < 30
    assert has_no_child()


def test_a_worker_holds_no_pipe_of_another_pool():
    # The second pool's worker is forked while the first pool's pipes are
    # open here.  Had it kept them, the first pool's worker would never read
    # end of file, and closing the first pool would wait for ever.
    with ForkPool(lambda item: os.getpid(), 2) as first:
        first.map([0, 1])
        with ForkPool(lambda item: os.getpid(), 2) as second:
            second.map([0, 1])
            with deadline(30):
                first.close()
            assert second.map([0, 1])[1] != os.getpid()
    assert has_no_child()


def test_a_worker_may_run_a_pool_of_its_own():
    def work(item):
        with ForkPool(lambda inner: os.getpid(), 2) as inner:
            return inner.map([0, 1])

    with ForkPool(work, 2) as outer:
        (here, helper), (worker, grandchild) = outer.map([0, 1])
    assert here == os.getpid()
    assert len({here, helper, worker, grandchild}) == 4
    assert has_no_child()


def test_a_worker_ignores_interrupts_and_leaves_quietly_without_flushing_stdio():
    # A subprocess, so that stdout is a pipe, block-buffered whatever
    # PYTHONUNBUFFERED says: the text sits unflushed in the buffer every
    # worker copies at its fork.
    result = run_python(
        "import os, signal, sys, time\n"
        "from fedbeam.pool import ForkPool\n"
        "sys.stdout = open(sys.stdout.fileno(), 'w', buffering=4096, closefd=False)\n"
        "sys.stdout.write('written once')\n"
        "pool = ForkPool(lambda item: os.getpid(), 2)\n"
        "_, pid = pool.map([0, 1])\n"
        "os.kill(pid, signal.SIGINT)\n"
        "time.sleep(0.3)\n"
        "assert os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None\n"
        "pool.close()\n"
    )
    assert result.returncode == 0, result.stderr
    assert (result.stdout, result.stderr) == ("written once", "")


def test_a_worker_exits_with_status_0_at_end_of_file(monkeypatch):
    statuses = []
    waitpid = os.waitpid

    def recording_waitpid(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    with ForkPool(lambda item: item, 3) as pool:
        pool.map([0, 1, 2])
        monkeypatch.setattr(os, "waitpid", recording_waitpid)
    assert statuses == [0, 0]
    monkeypatch.undo()
    assert has_no_child()
