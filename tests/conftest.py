"""Helpers for tests that run work on forked worker processes."""

import os
import select

import pytest


def fake_cpus(monkeypatch, n):
    """Make ``os.sched_getaffinity`` report n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Gate:
    """Makes a test's tasks reach a forked worker: a task that calls
    ``in_child`` there opens the gate, and in the calling process waits
    for it to open, so the caller cannot take every task itself."""

    def __init__(self):
        self.parent = os.getpid()
        self.read_end, self.write_end = os.pipe()

    def in_child(self) -> bool:
        if os.getpid() != self.parent:
            os.write(self.write_end, b"x")
            return True
        select.select([self.read_end], [], [], 30.0)
        return False


@pytest.fixture
def gate():
    g = Gate()
    yield g
    os.close(g.read_end)
    os.close(g.write_end)
