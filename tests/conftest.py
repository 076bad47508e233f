"""Fixtures shared by the test modules."""

import itertools
import math
import mmap
import os
import pickle

import numpy as np
import pytest

from maflow import flow


@pytest.fixture(autouse=True)
def no_worker_left():
    """Stop the standing row-part worker after each test that started one, so that no test
    sees another's worker and the run leaves no child process."""
    yield
    flow._stop_worker()


def in_child(fn):
    """fn() in a forked child, as a worker row part runs; its value or exception comes back."""
    read, write = os.pipe()
    pid = os.fork()
    if not pid:
        status = 1
        try:
            os.close(read)
            try:
                result = None, fn()
            except Exception as error:      # handed to the caller, which raises it
                result = error, None
            with open(write, "wb") as out:
                pickle.dump(result, out)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with open(read, "rb") as inbox:
        error, value = pickle.load(inbox)
    os.waitpid(pid, 0)
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
def jobs_by_rule(monkeypatch):
    """The pid of the worker that took each job, in order; the jobs run.  A worker is forked
    only where ``flow`` finds the process running one thread."""
    pids, start = [], flow._Worker.start

    def spy(worker, job):
        pids.append(worker.pid)
        return start(worker, job)

    monkeypatch.setattr(flow._Worker, "start", spy)
    return pids


@pytest.fixture
def jobs(monkeypatch, jobs_by_rule):
    """``jobs_by_rule``, with a worker forked at the first two-part call, as in a process of one
    thread.  The tests that use it run no other thread that computes while the worker is
    forked, the case the rule guards against; OpenBLAS's pool may be there, idle."""
    monkeypatch.setattr(flow, "_one_thread", lambda: True)
    return jobs_by_rule


class Shared(np.ndarray):
    """An array in a file mapped shared.  It pickles as its place in the file, and unpickles as
    a new mapping of that place, so what the row-part worker writes shows in the caller's
    array, wherever the worker was forked."""

    def __array_finalize__(self, obj):
        self.place = getattr(obj, "place", None)   # (path, address of the file's first byte)

    def __reduce_ex__(self, protocol):
        path, start = self.place
        return shared_array, (path, self.ctypes.data - start, self.shape, self.strides,
                              self.dtype)


def shared_array(path, offset, shape, strides, dtype):
    """The (shape, dtype, strides) array at ``offset`` in a new shared mapping of ``path``."""
    with open(path, "r+b") as f:
        whole = np.frombuffer(mmap.mmap(f.fileno(), 0), np.uint8)
    out = np.ndarray(shape, dtype, whole, offset, strides).view(Shared)
    out.place = path, whole.ctypes.data
    return out


@pytest.fixture
def shared_zeros(tmp_path):
    """A maker of int64 arrays of zeros in memory that the row-part worker shares with the
    caller, so a worker's writes show in the caller."""
    count = itertools.count()

    def make(*shape):
        path = tmp_path / f"shared-{next(count)}"
        path.write_bytes(bytes(8 * math.prod(shape)))
        return shared_array(str(path), 0, shape, None, np.int64)

    return make
