"""Helpers for tests of code that forks workers (autodiff.spread)."""

import contextlib
import os

import pytest

from g2k import autodiff as ad

# spread forks only where the process can fork and NumPy's BLAS thread count
# can be pinned; elsewhere it runs every item in the caller
forks = pytest.mark.skipif(not hasattr(os, "fork") or ad._blas() is None,
                           reason="spread forks no worker here")


def use_cpus(monkeypatch, n):
    """Make spread see n usable CPUs, so it runs up to n workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


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
