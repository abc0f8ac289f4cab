"""Shared fixtures, and one BLAS thread unless the environment sets another count."""

import os
import time
from concurrent.futures import Future

import pytest

# as in CI: numpy is not loaded yet, so its BLAS reads these, and on a multi-core host
# the eigenvalue worker runs beside one BLAS thread instead of oversubscribing the cores
for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(var, "1")


@pytest.fixture
def worker_takes_every_chunk(monkeypatch):
    """Hold the main thread at each eigenvalue chunk until the worker has started it: none is taken back.

    ``lfa.block_spectra`` takes back a chunk by cancelling its future, so each
    ``Future.cancel`` first waits (up to 30 s) for the worker to pick it up,
    and then finds it running or done.
    """
    cancel = Future.cancel

    def cancel_once_started(future):
        deadline = time.monotonic() + 30
        while not (future.running() or future.done()) and time.monotonic() < deadline:
            time.sleep(1e-4)
        return cancel(future)

    monkeypatch.setattr(Future, "cancel", cancel_once_started)
