import os

import pytest
from hypothesis import settings

settings.register_profile("suite", derandomize=True, deadline=None)
settings.load_profile("suite")


def set_cpus(monkeypatch, n):
    """Make the package see ``n`` usable CPUs: with one it forks nothing."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_forks(monkeypatch):
    """A list that gains an entry for each ``os.fork`` call from now on."""
    forks, real = [], os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True
