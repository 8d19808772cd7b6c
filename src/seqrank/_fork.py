"""Map a function over blocks in two processes: this one and a forked child.

Used where seqrank turns floats into text and back: ``render_csv``, the
CSV reader, ``StationarityReport.json_pieces`` (one asset a block) and the
lines of ``seqrank rank``. That work holds the interpreter lock, so
threads do not overlap it but a second process does. The child is started by
``os.fork``, so it shares the caller's code and data without pickling
them and without a second interpreter start, and iterates the caller's
blocks again. It sends back each result it computes as one pickle, which
marks its own end, as soon as that block is done, and leaves by
``os._exit``. Nothing is unpickled but what that child wrote.

Python 3.12 and later warn (``DeprecationWarning``) when a process with
more than one thread forks, because a lock another thread held at the
fork stays held in the child. numpy's OpenBLAS starts such a thread at
import. The child here runs only the caller's block function on text and
arrays and writes a pipe: it calls no BLAS routine and takes no lock that
another thread may hold, so that one warning is ignored around the fork.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, TypeVar

Block = TypeVar("Block")
Result = TypeVar("Result")


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_map(func: Callable[[Block], Result], blocks: Iterable[Block]) -> Iterator[Result]:
    """Yield ``func(block)`` for each of ``blocks``, in order.

    When ``os.fork`` exists, this process may run on at least two CPUs and
    there are at least two blocks, every other block (the second, the
    fourth, ...) is computed by one forked child, which iterates
    ``blocks`` again: a ``range``, or a source that reopens what it reads.
    This process reads the child's results between its own blocks. A
    block the child does not deliver (it failed, died, or sent a truncated
    result) is computed here, and so is every block if the fork fails, so
    the results never depend on the child. The child is killed and reaped
    when the iteration ends, however it ends; close the iterator when
    leaving it early.
    """
    rest = iter(blocks)
    head = list(islice(rest, 2))
    pid = None
    if len(head) == 2 and hasattr(os, "fork") and usable_cpus() > 1:
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # see the module docstring: the child never touches BLAS or a lock
                warnings.filterwarnings(
                    "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
                )
                pid = os.fork()
        except OSError:  # no process (EAGAIN) or memory (ENOMEM) to spare
            os.close(read_fd)
            os.close(write_fd)
    # the list, not held by the chain's arguments, is freed once iterated
    own = chain(iter(head), rest)
    del head
    if pid is None:
        for block in own:
            yield func(block)
        return
    if pid == 0:
        os.close(read_fd)
        _child(func, blocks, write_fd)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            delivering = True
            for index, block in enumerate(own):
                if index % 2 and delivering:
                    try:
                        result = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):  # the pipe ended before the result did
                        delivering = False
                    else:
                        yield result
                        del result  # before the next block is computed
                        continue
                yield func(block)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _child(func: Callable, blocks: Iterable, write_fd: int):
    """Compute and send the odd-numbered blocks, then leave without
    returning to the caller's frames. A write to a pipe whose reader is
    gone raises ``BrokenPipeError``, which ends the child too."""
    code = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            for index, block in enumerate(blocks):
                if index % 2:
                    _send(pipe, func(block))
        code = 0
    finally:
        os._exit(code)


def _send(pipe, result) -> None:
    pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
    pipe.flush()
