"""Helpers for tests of code that forks workers (autodiff.workers, spread)."""

import contextlib
import os
import signal
import time

import pytest

from g2k import autodiff as ad

# spread forks only where the process can fork and NumPy's BLAS thread count
# can be pinned; elsewhere it runs every item in the caller
forks = pytest.mark.skipif(not hasattr(os, "fork") or ad._blas() is None,
                           reason="spread forks no worker here")


def use_cpus(monkeypatch, n):
    """Make spread see n usable CPUs, so it runs up to n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def record_forks(monkeypatch):
    """A list that gets the pid of every child forked from here on (filled
    in the calling process)."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


@contextlib.contextmanager
def only_caller_returns(log):
    """A forked worker that leaves the block logs itself and exits here,
    instead of running the rest of the test session."""
    caller = os.getpid()
    try:
        yield
    finally:
        if os.getpid() != caller:
            with open(log, "a") as f:
                f.write(f"escaped {os.getpid()}\n")
            os._exit(0)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def within(seconds):
    """Fail the block with TimeoutError if it runs longer than seconds, so a
    worker pool that stalls fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


class Rendezvous:
    """Makes every worker of a pool take part in a run, whatever the
    scheduler does. Before a run that w workers share, the caller calls
    expect(w); work calls arrive() at the start of each item, which holds a
    process's first item of the run until w processes have arrived. A
    worker held there cannot pull another item, so the run's first w items
    go to w distinct workers. Arrivals go to a file that every process
    appends to; one that waits longer than timeout raises TimeoutError."""

    def __init__(self, path, timeout=30):
        self.path, self.timeout = path, timeout
        path.write_text("")
        self.joined = 0  # per process: the last run it arrived in

    def expect(self, w):
        with open(self.path, "a") as f:
            f.write(f"run {w}\n")

    def arrive(self):
        runs = [int(line[1]) for line in self.lines() if line[0] == "run"]
        if len(runs) == self.joined:  # no run expected, or arrived in this one
            return
        self.joined = len(runs)
        with open(self.path, "a") as f:
            f.write(f"at {self.joined} {os.getpid()}\n")
        deadline = time.monotonic() + self.timeout
        while len({line[2] for line in self.lines()
                   if line[:2] == ["at", str(self.joined)]}) < runs[-1]:
            if time.monotonic() > deadline:
                raise TimeoutError(f"{os.getpid()} waited for {runs[-1]} workers")
            time.sleep(0.001)

    def lines(self):
        return [line.split() for line in self.path.read_text().splitlines()]
