"""Checks that hold around every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_is_left():
    """A test leaves no child process behind, running or unreaped: a run with
    several workers reaps every child it forks before it returns or raises."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
