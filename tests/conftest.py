"""Shared fixtures."""

import numpy as np
import pytest
import scipy.linalg


@pytest.fixture
def dstemr_fails(monkeypatch):
    """Make LAPACK dstemr report a nonzero info (7) on every call."""
    def failing(d, e, *args, **kwargs):
        return 0, np.zeros(len(d)), np.zeros((len(d), len(d))), 7

    monkeypatch.setattr(scipy.linalg.lapack, "dstemr", failing)


@pytest.fixture
def dstevd_out_of_memory(monkeypatch):
    """Make LAPACK dstevd raise MemoryError, as a full solve at n = 10^5 does."""
    def failing(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for the eigenvectors")

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", failing)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count calls to LAPACK dstevd and dstemr, keyed by routine name."""
    counts = {"dstevd": 0, "dstemr": 0}
    for name in counts:
        real = getattr(scipy.linalg.lapack, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, counting)
    return counts
