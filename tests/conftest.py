"""Fixtures shared by the test modules."""

import math
import mmap

import numpy as np
import pytest

from maflow import flow


def in_child(fn):
    """fn() in a child forked as for a worker row part; its value or exception comes back."""
    def program():
        yield fn()

    with flow._Child(program()) as child:
        error, value = child.recv()
    if error is not None:
        raise error
    return value


@pytest.fixture(params=["inline", "worker"])
def fold_on(request):
    """A runner of ``fn()``: on the caller, or in a forked child (``in_child``)."""
    if request.param == "inline":
        return lambda fn: fn()
    return in_child


@pytest.fixture
def forks_by_rule(monkeypatch):
    """The program of each child forked for a worker row part, in order; the children run.
    A child is forked only where ``flow`` finds the process running one thread."""
    programs, child = [], flow._Child

    def spy(program):
        programs.append(program)
        return child(program)

    monkeypatch.setattr(flow, "_Child", spy)
    return programs


@pytest.fixture
def forks(monkeypatch, forks_by_rule):
    """``forks_by_rule``, with a child forked at every two-part call, as in a process of one
    thread.  The tests that use it run no other thread that computes while a child is forked,
    the case the rule guards against; OpenBLAS's pool may be there, idle."""
    monkeypatch.setattr(flow, "_one_thread", lambda: True)
    return forks_by_rule


@pytest.fixture
def shared_zeros():
    """A maker of int64 arrays of zeros in memory that forked children share with the caller,
    so a child's writes show in the caller."""
    return lambda *shape: np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)),
                                        dtype=np.int64).reshape(shape)
