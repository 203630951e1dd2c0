import os

import pytest

from ntcircle import fourier

try:
    from hypothesis import settings

    settings.register_profile("package", deadline=None, max_examples=50)
    settings.load_profile("package")
except ImportError:
    pass


@pytest.fixture
def two_cpus(monkeypatch):
    """A process that may run on two CPUs, whatever the machine, and a
    pool of the test's own, shut down afterwards.  Yields the list of
    split() results that were not None."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(fourier, "_pool", None)
    done = []
    split = fourier.split

    def recorded(*args):
        out = split(*args)
        if out is not None:
            done.append(out)
        return out

    monkeypatch.setattr(fourier, "split", recorded)
    yield done
    if fourier._pool is not None:
        fourier._pool[1].shutdown(wait=True)


@pytest.fixture
def forks(two_cpus, monkeypatch):
    """fourier.split_items forced to fork, whatever the machine.  Yields
    the pids of the workers forked."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield pids
