"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Dict

import numpy as np
import pytest

from repro.crypto import make_context
from repro.data import DataLoader, synthetic_tiny, train_val_split
from repro.utils import seed_everything


@pytest.fixture(autouse=True)
def _seed_all():
    """Make every test deterministic."""
    seed_everything(1234)
    yield


def open_fds() -> Dict[int, str]:
    """This process's open file descriptors and their targets, less the
    ``multiprocessing`` heap arenas in /dev/shm, which are kept for the
    process's lifetime by design."""
    fds = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the listing's own descriptor, closed by now
        if not target.startswith("/dev/shm/"):
            fds[int(fd)] = target
    return fds


@pytest.fixture(scope="module", autouse=True)
def _module_leaves_no_process_or_thread():
    """After each test module, no child process is alive, no non-daemon
    thread the module started still runs and no file descriptor it opened
    is still open (allowing 2 s for exits in flight).

    A leaked party process, worker thread or pipe fails the module that
    leaked it, not a later run that hangs on it or runs out of descriptors.
    """
    before, fds_before = set(threading.enumerate()), open_fds()
    yield

    def leaks():
        threads = [t for t in threading.enumerate() if t not in before and not t.daemon]
        fds = {fd: t for fd, t in open_fds().items() if fds_before.get(fd) != t}
        return multiprocessing.active_children(), threads, fds

    deadline = time.monotonic() + 2.0
    while any(leaks()) and time.monotonic() < deadline:
        time.sleep(0.05)
    children, threads, fds = leaks()
    assert not children, f"child processes outlived the module: {children}"
    assert not threads, f"non-daemon threads outlived the module: {threads}"
    assert not fds, f"file descriptors outlived the module: {fds}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)


@pytest.fixture
def ctx():
    """A fresh two-party context per test."""
    return make_context(seed=3)


@pytest.fixture
def tiny_dataset():
    return synthetic_tiny(num_samples=64, image_size=8, seed=0)


@pytest.fixture
def tiny_loaders(tiny_dataset):
    train, val = train_val_split(tiny_dataset, val_fraction=0.5, seed=0)
    return (
        DataLoader(train, batch_size=8, seed=1),
        DataLoader(val, batch_size=8, seed=2),
    )
