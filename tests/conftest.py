"""Fixtures shared by the test modules."""

import pytest

from maflow import potential


@pytest.fixture(params=["inline", "worker"])
def fold_on(request, monkeypatch):
    """Fold every parameter-gradient product inline, or every one on the worker thread."""
    size = 0 if request.param == "worker" else 1 << 62
    monkeypatch.setattr(potential, "_WORKER_MIN_SIZE", size)
    return request.param
