"""Fixtures shared by the harness tests."""

from __future__ import annotations

import os

import pytest


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def leaves_nothing_behind():
    """The test leaves no child process and no open file descriptor."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    _assert_no_children()
    before = _open_fds()
    yield
    _assert_no_children()
    assert _open_fds() == before
