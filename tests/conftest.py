import os

import pytest


@pytest.fixture
def fork_count(monkeypatch):
    """A list that grows by one for each `os.fork` this process makes."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks
