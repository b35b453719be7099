"""An ordered pool of processes forked from this one.

``ForkPool(work, processes)`` maps ``work`` over at most ``processes``
items at a time: item 0 in the calling process, item k in worker k.  A
worker is forked the first time a map has an item for it, so it inherits
``work`` and everything ``work`` reads; only the items and the answers
cross between processes, each as one length-prefixed pickle over a pipe
(one pipe each way per worker).  Answers come back in item order.  Every
item finishes before an error is raised, and the first failed item's error
is raised, with its type and message, so which error a failing map raises
does not depend on timing.

It is built on ``os.fork`` and ``os.pipe`` alone.  On a 2-core box,
importing ``multiprocessing`` and starting one ``Process`` added 1.38 MB
of RSS to the parent and took ~9.5 ms; a fork and two pipes added 0.12 MB
and took ~1.2 ms.  The package runs no thread of its own, and OpenBLAS
stops its pool before a fork, so a fork copies a one-thread process.

A worker ignores SIGINT: an interrupt reaches the whole process group, and
the caller handles it.  It closes every pool pipe end it inherited, this
pool's and any other pool's in the process, so that no pipe is held open
past its owner's close.  It answers items until its parent closes its end,
and leaves through ``os._exit``, so it never flushes the stdio buffers or
runs the exit handlers it shares with its parent.  ``close`` reaps every
worker with ``waitpid``; a worker whose answer will not be read, because
the caller left a map by an interrupt, is killed first.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from .errors import ContractViolationError

_HEADER = struct.Struct("!Q")

# Every pool pipe end this process holds, as a pool's caller or as a worker.
# File descriptors belong to the process, not to a pool: a process forked
# from this one closes all of them, whichever pool forks it.
_held: set[int] = set()


def _write(fd: int, data: bytes) -> None:
    """Write ``data`` to ``fd`` after its length."""
    for chunk in (_HEADER.pack(len(data)), data):
        with memoryview(chunk) as view:
            while view:
                view = view[os.write(fd, view) :]


def _read_exactly(fd: int, size: int) -> bytearray:
    buffer = bytearray(size)
    with memoryview(buffer) as view:
        done = 0
        while done < size:
            count = os.readv(fd, [view[done:]])
            if not count:
                raise EOFError
            done += count
    return buffer


def _read(fd: int) -> bytearray:
    """The next bytes written to ``fd`` by ``_write``; EOFError at its end of
    file."""
    (size,) = _HEADER.unpack(_read_exactly(fd, _HEADER.size))
    return _read_exactly(fd, size)


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)


@dataclass
class _Worker:
    pid: int
    to_worker: int
    from_worker: int
    busy: bool = False


class ForkPool:
    """``work`` mapped over this process and workers forked from it (see the
    module docstring).  ``close``, or leaving a ``with`` block, ends them."""

    def __init__(self, work: Callable[[Any], Any], processes: int) -> None:
        self.work = work
        self.processes = processes
        self._workers: list[_Worker] = []

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def map(self, items: Sequence) -> list:
        """``work(item)`` for every item, item 0 in this process and item k in
        worker k, forked now if it has not been.  Returns the answers in
        item order, once every item has finished; raises the first failed
        item's error instead.  A worker that has gone answers with a
        ChildProcessError."""
        if not 0 < len(items) <= self.processes:
            raise ContractViolationError(
                f"a pool of {self.processes} processes maps 1 to {self.processes} items, "
                f"got {len(items)}"
            )
        while len(self._workers) < len(items) - 1:
            self._fork()
        workers = self._workers[: len(items) - 1]
        answers: list = [None] * len(items)
        for k, (worker, item) in enumerate(zip(workers, items[1:]), start=1):
            try:
                _write(worker.to_worker, _dumps(item))
            except BrokenPipeError:
                answers[k] = (False, _gone(worker))
            else:
                worker.busy = True
        try:
            answers[0] = (True, self.work(items[0]))
        except Exception as exc:  # raised below, once every item has finished
            answers[0] = (False, exc)
        for k, worker in enumerate(workers, start=1):
            if worker.busy:
                answers[k] = _answer(worker)
        for ok, value in answers:
            if not ok:
                raise value
        return [value for _, value in answers]

    def close(self) -> None:
        """Close this process's ends of every pipe and reap every worker: an
        idle one exits at end of file, and a busy one is killed."""
        workers, self._workers = self._workers, []
        for worker in workers:
            for fd in (worker.to_worker, worker.from_worker):
                os.close(fd)
                _held.discard(fd)
            if worker.busy:  # nothing will read its answer
                os.kill(worker.pid, signal.SIGKILL)
        for worker in workers:
            os.waitpid(worker.pid, 0)

    def _fork(self) -> None:
        to_worker = os.pipe()
        from_worker = os.pipe()
        pid = os.fork()
        if pid == 0:  # the worker
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                for fd in (*_held, to_worker[1], from_worker[0]):
                    os.close(fd)
                _held.clear()
                _held.update((to_worker[0], from_worker[1]))
                self._serve(to_worker[0], from_worker[1])
                status = 0
            finally:
                os._exit(status)
        os.close(to_worker[0])
        os.close(from_worker[1])
        _held.update((to_worker[1], from_worker[0]))
        self._workers.append(_Worker(pid, to_worker[1], from_worker[0]))

    def _serve(self, items: int, answers: int) -> None:
        """A worker's loop: answer each item until the parent's end closes.
        An answer is ``(True, result)``, or ``(False, error)`` for an item
        that failed."""
        while True:
            try:
                item = pickle.loads(_read(items))
            except EOFError:
                return
            try:
                answer = (True, self.work(item))
            except Exception as exc:  # the parent raises it
                answer = (False, exc)
            try:
                _write(answers, _dumps(answer))
            except BrokenPipeError:  # the parent has closed its end
                return


def _gone(worker: _Worker) -> ChildProcessError:
    return ChildProcessError(f"worker process {worker.pid} ended before it answered")


def _answer(worker: _Worker) -> tuple[bool, Any]:
    """A busy worker's answer: ``(ok, result or error)``."""
    try:
        return pickle.loads(_read(worker.from_worker))
    except EOFError:
        return False, _gone(worker)
    finally:
        worker.busy = False
