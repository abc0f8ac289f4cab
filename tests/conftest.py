"""Shared fixtures."""

import time
from concurrent.futures import Future

import pytest


@pytest.fixture
def worker_takes_every_chunk(monkeypatch):
    """Hold the main thread at each eigenvalue chunk or Gram until the worker has started it: none is taken back.

    ``lfa.block_spectra`` takes back a chunk, and ``lfa.block_power_norms`` a
    Gram, by cancelling its future, so each ``Future.cancel`` first waits (up
    to 30 s) for the worker to pick it up, and then finds it running or done.
    """
    cancel = Future.cancel

    def cancel_once_started(future):
        deadline = time.monotonic() + 30
        while not (future.running() or future.done()) and time.monotonic() < deadline:
            time.sleep(1e-4)
        return cancel(future)

    monkeypatch.setattr(Future, "cancel", cancel_once_started)
