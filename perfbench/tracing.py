"""Spans recorded from the benchmark's side of each call into ``maflow``.

``Tracer`` keeps every span in memory (name, start, end, parent) and writes
them out once, at the end of a run.  ``TimingProxy`` wraps a potential
evaluator: it forwards every hook the integrator and the reverse pass use,
and records a span around the hooks it is given names for.  The package
itself is never patched.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from statistics import median

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._open = []

    def _begin(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(None)
        self._open.append(i)
        self.starts.append(_clock())
        return i

    def _end(self, i):
        self.ends[i] = _clock()
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        i = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(i)

    def span(self, name):
        return _Span(self, name)

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"names": self.names, "starts": self.starts, "ends": self.ends,
                       "parents": self.parents}, f)

    def summary(self):
        return SpanSummary(self)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._begin(self.name)

    def __exit__(self, *exc):
        self.tracer._end(self.index)
        return False


class _NoSpan:
    def __enter__(self):
        pass

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Records nothing; stands in for a Tracer on untraced steps."""

    _no_span = _NoSpan()

    def span(self, name):
        return self._no_span


class SpanSummary:
    """Durations and self times (duration minus direct children) by span name.

    Only spans under a root named ``root`` count, so that training and
    evaluation calls of the same hook stay apart.
    """

    def __init__(self, tracer):
        n = len(tracer.names)
        dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        child_time = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = tracer.parents[i]
            if p >= 0:
                child_time[p] += dur[i]
                root[i] = root[p]  # parents are opened, so recorded, before children
        self._by = defaultdict(list)
        for i in range(n):
            key = (tracer.names[root[i]], tracer.names[i])
            self._by[key].append((dur[i], dur[i] - child_time[i]))

    def count(self, root, name):
        return len(self._by[(root, name)])

    def durations(self, root, name):
        return [d for d, _ in self._by[(root, name)]]

    def self_times(self, root, name):
        return [s for _, s in self._by[(root, name)]]

    def median(self, root, name, self_time=False):
        """Median duration (or self time) in seconds; 0.0 when the layer never ran."""
        vals = self.self_times(root, name) if self_time else self.durations(root, name)
        return median(vals) if vals else 0.0

    def total(self, root, name):
        return sum(self.durations(root, name))


class TimingProxy:
    """A potential evaluator that times the wrapped evaluator's hooks.

    ``names`` maps hook names (``grad_lap``, ``vjp``, ``fingerprint``,
    ``grad_to_params``) to span names; other hooks are forwarded untimed.
    """

    def __init__(self, inner, tracer, names):
        self.inner = inner
        self.tracer = tracer
        self.names = names

    def _call(self, hook, *args, **kwargs):
        fn = getattr(self.inner, hook)
        name = self.names.get(hook)
        if name is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    @property
    def trainable(self):
        return self.inner.trainable

    @property
    def n_dim(self):
        return self.inner.n_dim

    @property
    def grad_size(self):
        return self.inner.grad_size

    def begin_trajectory(self, rng):
        return self.inner.begin_trajectory(rng)

    def begin_step(self, rng):
        return self.inner.begin_step(rng)

    def stage_context(self, stage):
        return self.inner.stage_context(stage)

    def grad_lap(self, X, ctx=None):
        return self._call("grad_lap", X, ctx)

    def vjp(self, X, w_grad, w_lap, ctx=None, aux=None):
        return self._call("vjp", X, w_grad, w_lap, ctx=ctx, aux=aux)

    def fingerprint(self):
        return self._call("fingerprint")

    def grad_to_params(self, flat):
        return self._call("grad_to_params", flat)


# ---------------------------------------------------------------------------
# computed counts


def grad_lap_flops(B, n, h):
    """Floating-point operations of one ``MLPPotential.grad_lap`` call, from shapes.

    Two (B, n) x (n, h) products at 2Bnh each; on the (B, h) activations:
    bias add, logistic, scale by a, S (1 - S) (two), scale by a; and the
    Laplacian contraction with the row norms (2Bh).  The logistic counts as
    one operation.
    """
    return 4 * B * n * h + 8 * B * h


def vjp_flops(B, n, h):
    """Floating-point operations of one ``MLPPotential.vjp`` call with saved activations.

    Four products at 2Bnh each (w_grad W^T, Bm^T X, S^T w_grad, (a Bm) W);
    15 operations per (B, h) activation for the elementwise chain, t2, the
    da contraction and the column sums; 5hn for the terms of dW; 3h for the
    (h,) vectors.
    """
    return 8 * B * n * h + 15 * B * h + 5 * h * n + 3 * h


def tape_bytes(traj):
    """Bytes held by a recorded trajectory, each array counted once."""
    seen = {}
    for rec in traj.steps:
        for arr in (rec.x0, rec.l0, *rec.stage_x, *rec.stage_grad, *rec.stage_lap,
                    *rec.stage_aux):
            if arr is not None and hasattr(arr, "nbytes"):
                seen[id(arr)] = arr.nbytes
    return sum(seen.values())
