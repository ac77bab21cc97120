"""Fixtures shared by every tier-1 test module."""

import glob

import pytest


def _children() -> set[int] | None:
    """Process ids of this process's children, running or not yet reaped,
    or None where the kernel has no ``/proc/self/task/*/children``."""
    paths = glob.glob("/proc/self/task/*/children")
    if not paths:
        return None
    pids = set()
    for path in paths:
        try:
            with open(path, encoding="ascii") as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return pids


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process behind: the sampler and the
    tree layer must join every worker they fork."""
    before = _children()
    yield
    if before is None:
        return
    left = _children() - before
    assert not left, f"the test left child processes {sorted(left)}"
