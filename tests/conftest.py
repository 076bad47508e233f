"""Fixtures shared by the test modules."""

import pytest

from maflow import flow


@pytest.fixture(params=["inline", "worker"])
def fold_on(request):
    """A runner of ``fn()``: on the calling thread, or as a task on the worker thread."""
    if request.param == "inline":
        return lambda fn: fn()
    return lambda fn: flow._submit(fn).result(timeout=60)
