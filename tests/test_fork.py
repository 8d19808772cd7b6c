"""``seqrank._fork.split_map``: results in block order whatever the forked
child does, no child left behind, and the text of its users (``render_csv``,
the stationarity report, the rank lines) unchanged by it."""

from __future__ import annotations

import errno
import io
import os
import pickle
import signal
import time
import warnings
from pathlib import Path

import pytest

import seqrank._fork as _fork
import seqrank.cli as cli
import seqrank.timeseries as timeseries
from seqrank._atomic import write_files
from seqrank import JumpDiffusionConfig, monthly_stationarity_report, simulate_jump_diffusion
from seqrank.cli import json_chunks

from conftest import assert_no_child

BLOCKS = range(12)
PARENT = os.getpid()


def square(block: int):
    """The block's square and the process that computed it."""
    return block * block, os.getpid()


@pytest.fixture
def split(monkeypatch):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)


def run(func=square, blocks=BLOCKS):
    results = list(_fork.split_map(func, blocks))
    assert_no_child()
    assert [value for value, _ in results] == [b * b for b in BLOCKS]
    return [pid for _, pid in results]


def test_every_other_block_comes_from_the_child(split, forks):
    pids = run()
    assert len(forks) == 1
    assert set(pids[::2]) == {PARENT}
    assert PARENT not in pids[1::2] and len(set(pids[1::2])) == 1


@pytest.mark.parametrize("cpus, blocks", [(1, BLOCKS), (2, range(1)), (2, range(0))])
def test_one_cpu_or_one_block_stays_in_this_process(monkeypatch, forks, cpus, blocks):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
    assert list(_fork.split_map(square, blocks)) == [(b * b, PARENT) for b in blocks]
    assert forks == []


def in_child(action):
    """``square``, after running ``action(block)`` in the child."""

    def func(block):
        if os.getpid() != PARENT:
            action(block)
        return square(block)

    return func


class ExitAtOnce:
    """``BLOCKS``, whose iteration ends the child at once."""

    def __iter__(self):
        if os.getpid() != PARENT:
            os._exit(3)
        return iter(BLOCKS)


def die_after_first(block):
    if block > 1:
        os._exit(0)


def killed_mid_run(block):
    if block == 5:
        os.kill(os.getpid(), signal.SIGKILL)


def truncated(pipe, result):
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    pipe.write(payload[: len(payload) // 2])
    pipe.flush()
    os._exit(0)


def test_a_child_that_exits_at_once_gives_the_serial_result(split):
    assert set(run(blocks=ExitAtOnce())) == {PARENT}


def test_a_child_that_dies_after_one_block_gives_the_serial_result(split):
    pids = run(in_child(die_after_first))
    assert pids[1] != PARENT and set(pids[2:]) == {PARENT}


def test_a_child_killed_mid_run_gives_the_serial_result(split):
    pids = run(in_child(killed_mid_run))
    assert pids[3] != PARENT and set(pids[4:]) == {PARENT}


def test_a_truncated_result_is_computed_here(split, monkeypatch):
    monkeypatch.setattr(_fork, "_send", truncated)
    assert set(run()) == {PARENT}


def test_an_error_in_either_share_is_raised_here_and_ends_the_child(split):
    for bad in (4, 5):  # this process's block, then the child's

        def fails(block):
            if block == bad:
                raise ValueError(f"block {block}")
            return block

        with pytest.raises(ValueError, match=f"block {bad}"):
            list(_fork.split_map(fails, BLOCKS))
        assert_no_child()


@pytest.mark.parametrize("error", [BlockingIOError(errno.EAGAIN, "no process"), OSError(errno.ENOMEM, "no memory")])
def test_a_failed_fork_computes_every_block_here_and_closes_the_pipe(split, monkeypatch, error):
    fds = []
    pipe = os.pipe

    def recorded():
        ends = pipe()
        fds.extend(ends)
        return ends

    def failing():
        raise error

    monkeypatch.setattr(os, "pipe", recorded)
    monkeypatch.setattr(os, "fork", failing)
    assert set(run()) == {PARENT}
    assert len(fds) == 2
    for fd in fds:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF


def test_leaving_early_ends_the_child(split):
    results = _fork.split_map(square, BLOCKS)
    assert next(results)[0] == 0
    results.close()
    assert_no_child()


def test_a_child_whose_reader_is_gone_leaves_within_a_block(split):
    # a forked process stands in for a CLI killed mid-run: it takes one
    # result and leaves without cleaning up. Its child, the only other
    # holder of ``write_fd``, would take 2 s over its ten blocks.
    def slow(block):
        time.sleep(0.2)
        return block

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            results = _fork.split_map(slow, range(20))
            next(results)  # kept: closing it would kill the child
            os.close(write_fd)
        finally:
            os._exit(0)
    start = time.monotonic()
    os.close(write_fd)
    os.waitpid(pid, 0)
    with os.fdopen(read_fd, "rb") as pipe:
        assert pipe.read() == b""  # end of file: the child has exited
    assert time.monotonic() - start < 1.0


def test_the_fork_warning_of_python_3_12_is_ignored(split, monkeypatch):
    # from 3.12, os.fork warns so in a process with more than one thread
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
                "to deadlocks in the child.", DeprecationWarning, stacklevel=2,
            )
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run()


SECTORS = ("tech", "energy", "finance")


@pytest.mark.parametrize("sectors", [False, True])
@pytest.mark.parametrize("n_steps", [3, 40])
def test_render_csv_text_is_the_same_in_one_process(monkeypatch, forks, sectors, n_steps):
    panel = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=n_steps, n_assets=3, seed=5))
    if sectors:
        panel = timeseries.QuotePanel(
            dates=panel.dates, assets=panel.assets, bids=panel.bids, asks=panel.asks, sectors=SECTORS
        )
    monkeypatch.setattr(timeseries, "_BLOCK_ROWS", 12)  # 4 dates a block
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    split_blocks = list(timeseries.render_csv(panel))
    assert_no_child()
    assert len(forks) == (n_steps > 3)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
    assert split_blocks == list(timeseries.render_csv(panel))
    assert len(split_blocks) == 1 + -(-(n_steps + 1) // 4)


def test_a_write_that_fails_midway_ends_the_child(tmp_path, monkeypatch, forks):
    # the streamed text is left suspended in its fork when the write fails, not the render
    panel = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=40, n_assets=3, seed=5))
    monkeypatch.setattr(timeseries, "_BLOCK_ROWS", 12)
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)

    class Full(io.StringIO):
        """A file on a disk that is full after two chunks."""

        def writelines(self, chunks):
            for i, chunk in enumerate(chunks):
                if i == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.write(chunk)

    monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs: Full())
    text = timeseries.render_csv(panel)
    with pytest.raises(OSError, match="No space left"):
        write_files(tmp_path, {"panel.csv": text})
    assert len(forks) == 1
    assert_no_child()


def test_stationarity_text_is_the_same_in_one_process(monkeypatch, forks):
    panel = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=300, n_assets=5, seed=5))
    report = monthly_stationarity_report(panel, max_shift=3)
    payload = {"report": report.json_pieces}
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    split_text = "".join(json_chunks(payload))
    assert_no_child()
    assert len(forks) == 1
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
    assert split_text == "".join(json_chunks(payload))
    assert len(forks) == 1


def test_rank_lines_are_the_same_in_one_process(monkeypatch, forks):
    panel = simulate_jump_diffusion(JumpDiffusionConfig(n_steps=40, n_assets=3, seed=5))
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 12)  # 4 days a block
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    split_lines = list(cli._rank_lines(panel, 0.99))
    assert_no_child()
    assert len(forks) == 1
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
    assert split_lines == list(cli._rank_lines(panel, 0.99))
    assert len(split_lines) == 10 and "".join(split_lines).count("\n") == 40
