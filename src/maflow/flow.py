"""Fixed-step RK4 integration of the coupled position / log-density system,
and its exact reverse pass.

The joint ODE is

    dx/dt      = grad phi(x)
    d ln p /dt = -lap phi(x)

integrated forward (sampling: noise -> data) or backward (inference:
data -> noise) with the classical fourth-order Runge-Kutta scheme at a
fixed step.  Backward integration runs the same stages with a negated
increment, so both directions cost the same.  Each direction has one
integration, ``_forward`` or ``_backward``: ``sample`` and ``log_prob`` call
them, and so do the two training losses, which also record the tape and
reverse it.  ``nll_loss`` (maximum likelihood) runs data -> noise and
``variational_loss`` (variational free energy) noise -> target.

Batch rows are independent; everything is float64 and deterministic for a
given seed.  Non-finite intermediates abort with diagnostics instead of
being clamped, because clamping would silently corrupt log-densities.

The tape (``integrate(..., record=True)``) stores, for every step, the entry
state (x0, l0), the signed step, and the four stage evaluations: gradients
(B, n), Laplacians (B,) and the evaluator contexts.  That is B*(5n + 5)*8
bytes per step, whatever the evaluator's hidden width: ``vjp`` recomputes
the hidden-layer activations from the stage input.  The stage inputs are
not stored either: stage i+1 starts at x0 + c_i*eta*g_i, so
``StepRecord.stage_x`` rebuilds them from x0 and the stored gradients with
the integrator's own expression, bit for bit.

``backprop`` differentiates the *discrete* RK4 map, so gradients are exact
at any step size; they approximate the continuous adjoint only in the limit
of small steps, which is irrelevant here because the loss is defined on the
discrete map itself.  Memory is O(steps * batch * dim): every step is kept,
and only the activations inside a stage are recomputed, not whole steps.

The parameter gradient is one ``ParamGrad`` for the whole trajectory.  Each
stage's ``vjp`` adds its db, da and t2 at once and its dW product L^T R into
one dense dW, in reverse step order and stages 4..1 inside each step; the
2 a (sum t2) W term of dW comes last, once.

Every row follows its own trajectory, so ``sample``, ``log_prob`` and the
losses run a batch of 32 rows or more as two row parts at once: rows :k in
the process's standing worker, rows k: on the caller.  The worker is a
child process forked at the first two-part call, only while the process
runs one thread, as a fork needs; it lives as long as the process and runs
one call's part at a time.  A call sends it one job (the evaluator, its
rows of the state, the config, the stage contexts, the loss's end rule and
the caller's ``np.geterr()``) and reads one reply: those rows' final
positions and log-densities and, when the call records, their dense
gradient sum, added to the caller's.  ``_JobPickler`` alone knows the job's
compact forms.  The end rule is None or the loss's (energy, n): both losses
are means over independent rows, so a row's terminal cotangents,
energy.grad(x) / n and 1 / n, are its own, and each part reverses its tape
from its own rows' (for ``nll_loss`` the energy is the base's |z|^2 / 2).
The parts share the stage contexts, drawn once before the job is sent, so
at a fixed BLAS thread count no result depends on which process ran a part
(a gradient's bits may depend on that count, as at n = 64, h = 512,
B = 64).  A two-part call that fails runs the batch again as one part on
the caller and raises that part's error, so two parts raise what one part
would: evaluators and targets are pure functions of (X, context).  Where
there is no worker and none can be forked, where another thread's call
holds it, or where the job does not pickle or does not load in the
worker, the two parts run in sequence on the caller, with the same bits.
A call that fails or is interrupted stops the worker, and the next
call forks another; an ``atexit`` hook stops it when the interpreter ends,
and a process forked later never uses it.  OpenBLAS's own threads count
against the one-thread rule, so a library user gets the worker by setting
``OPENBLAS_NUM_THREADS=1`` before numpy is imported, as the ``maflow``
command does unless the variable is set.  ``integrate`` and ``backprop``
run one part, and so does ``sample`` with a callback.
"""

from __future__ import annotations

import atexit
import collections
import copyreg
import io
import itertools
import math
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError, StaleTapeError
from .potential import MLPPotential, as_potential
from .symmetry import SymmetryGroup

FORWARD = "forward"
BACKWARD = "backward"

LOG_2PI = math.log(2.0 * math.pi)

# classical RK4 combination weights for stages 1..4
_RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)
# stage i+1 starts at x0 + _STAGE_OFFSETS[i] * eta * g_i, for stages i = 0..2
_STAGE_OFFSETS = (0.5, 0.5, 1.0)


@dataclass
class FlowState:
    """A batch of positions with their accumulated log-densities at time t."""

    X: np.ndarray  # (B, n)
    L: np.ndarray  # (B,)
    t: float = 0.0

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.L = np.asarray(self.L, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-d (batch, dim), got {self.X.shape}")
        if self.L.shape != (self.X.shape[0],):
            raise ValueError(f"L shape {self.L.shape} does not match batch {self.X.shape[0]}")
        self.t = float(self.t)

    @property
    def batch_size(self):
        return self.X.shape[0]

    @property
    def n_dim(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, step count and direction of one integration pass."""

    epsilon: float
    steps: int
    direction: str = FORWARD

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")
        if self.direction not in (FORWARD, BACKWARD):
            raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")

    @property
    def total_time(self):
        return self.epsilon * self.steps

    def reversed(self):
        d = BACKWARD if self.direction == FORWARD else FORWARD
        return replace(self, direction=d)


def gaussian_log_density(X):
    """log of the standard normal density for every row of X."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[-1]
    return -0.5 * (n * LOG_2PI + np.einsum("...j,...j->...", X, X))


def gaussian_base(n_dim, n_samples, rng):
    """Draw the base state: z ~ N(0, I), L = ln N(z), t = 0."""
    z = rng.standard_normal((n_samples, n_dim))
    return FlowState(z, gaussian_log_density(z), 0.0)


def _next_stage_input(x0, eta, i, g):
    """Input of stage i+1 from the entry positions and stage i's gradient."""
    return x0 + (_STAGE_OFFSETS[i] * eta) * g


def _combine_stages(x0, l0, eta, grads, laps):
    """One RK4 update of the joint (position, log-density) system.

    Shared by the integrator and ``replay`` so both produce bitwise identical
    arithmetic.  ``eta`` is the signed step.
    """
    g1, g2, g3, g4 = grads
    l1, l2, l3, l4 = laps
    x1 = x0 + (eta / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
    # d(log p)/dt = -lap, hence the minus sign
    l1_ = l0 - (eta / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return x1, l1_


@dataclass
class StepRecord:
    """Everything needed to replay and to reverse one RK4 step.

    Holds B*(5n + 5)*8 bytes (x0, l0, four gradients, four Laplacians) for
    any evaluator.  The stage inputs are not stored; ``stage_x`` rebuilds
    them bit for bit.
    """

    x0: np.ndarray          # entry positions (B, n)
    l0: np.ndarray          # entry log-densities (B,)
    eta: float              # signed step actually taken
    stage_grad: tuple       # 4 gradient-field evaluations
    stage_lap: tuple        # 4 Laplacian evaluations
    stage_ctx: tuple        # 4 evaluator contexts (e.g. sampled group element)

    @property
    def stage_aux(self):
        # compatibility name: perfbench's tape_bytes iterates it; removed with
        # benchmark v2 (ROADMAP direction 1)
        return (None,) * 4

    @property
    def stage_x(self):
        """The 4 stage input positions; stage_x[0] is x0, the others are new arrays."""
        xs = [self.x0]
        for i in range(3):
            xs.append(_next_stage_input(self.x0, self.eta, i, self.stage_grad[i]))
        return tuple(xs)


@dataclass
class Trajectory:
    """Recorded forward pass of ``integrate``; input to ``backprop``."""

    steps: list = field(default_factory=list)
    fingerprint: bytes = b""

    def __len__(self):
        return len(self.steps)


def _first_bad_row(X, L):
    """The lowest row whose position or log-density is not finite, or None."""
    rows = np.flatnonzero(~(np.isfinite(X).all(axis=1) & np.isfinite(L)))
    return int(rows[0]) if rows.size else None


def integrate(potential, state, config, rng=None, record=False):
    """Run ``config.steps`` RK4 steps; returns (final state, Trajectory or None).

    Calls ``potential.begin_trajectory(rng)`` once: it returns an iterator
    over the context of every stage of the trajectory (for a sampled
    symmetrized potential, the group element indices, drawn from ``rng``),
    or None when every stage has context None (for a symmetrized potential,
    the whole group).  Every step's four are drawn before the first step.
    A non-finite position or log-density raises NumericError naming the step
    and the lowest batch row where either is not finite, as two row parts
    name it.  With ``record=True`` the returned Trajectory holds every step's
    ``StepRecord`` (see the module docstring) and the potential's fingerprint,
    which ``backprop`` checks.  The batch runs as one part.
    """
    pot = as_potential(potential)
    contexts = _stage_contexts(pot, rng, config.steps)
    final, traj = _integrate(pot, state, config, contexts, record)
    if record:
        traj.fingerprint = pot.fingerprint()
    return final, traj


def _stage_contexts(pot, rng, steps):
    """The four stage contexts of each of ``steps`` steps, drawn from ``rng`` now."""
    contexts = pot.begin_trajectory(rng)
    return [(None,) * 4 if contexts is None else tuple(itertools.islice(contexts, 4))
            for _ in range(steps)]


def _integrate(pot, state, config, contexts, record=False, callback=None, rows=slice(0, None)):
    """``integrate`` of the state's ``rows``, with the ``_stage_contexts`` given and a tape that
    holds no fingerprint; ``callback(step_index, state)`` fires after every step."""
    if state.n_dim != pot.n_dim:
        raise ValueError(f"state dimension {state.n_dim} does not match potential {pot.n_dim}")
    eta = config.epsilon if config.direction == FORWARD else -config.epsilon
    traj = Trajectory() if record else None
    x0, l0, t = state.X[rows], state.L[rows], state.t
    for k in range(config.steps):
        ctx = contexts[k]
        grads, laps = [], []
        xi = x0
        # overflow surfaces as a non-finite value, reported below with its row
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(4):
                g, lap = pot.grad_lap(xi, ctx[i])
                grads.append(g)
                laps.append(lap)
                if i < 3:
                    xi = _next_stage_input(x0, eta, i, g)
            x1, l1 = _combine_stages(x0, l0, eta, grads, laps)
        # a non-finite stage gradient makes x1 non-finite in the same row
        bad = _first_bad_row(x1, l1)
        if bad is not None:
            raise NumericError(f"non-finite value during step {k}, batch row {rows.start + bad}")
        if record:
            traj.steps.append(StepRecord(x0, l0, eta, tuple(grads), tuple(laps), ctx))
        x0, l0, t = x1, l1, t + eta
        if callback is not None:
            callback(k + 1, FlowState(x0, l0, t))
    return FlowState(x0, l0, t), traj


def replay(traj):
    """Recompute the terminal state from the recorded stage evaluations.

    Starts from the first step's entry state (x0, l0) and applies every
    step's recorded gradients and Laplacians in turn.  Each chained state
    must equal the next step's recorded entry state, or StaleTapeError
    names the step whose update disagrees.  Returns (X, L), the chained
    terminal state; bitwise equality with the integrator output is a
    correctness check on the tape contents.
    """
    if not traj.steps:
        raise ValueError("empty trajectory")
    x, l = traj.steps[0].x0, traj.steps[0].l0
    for k, rec in enumerate(traj.steps):
        if not (np.array_equal(x, rec.x0) and np.array_equal(l, rec.l0)):
            raise StaleTapeError(f"step {k - 1}'s recorded stages do not lead to step {k}'s "
                                 f"entry state")
        x, l = _combine_stages(x, l, rec.eta, rec.stage_grad, rec.stage_lap)
    return x, l


@dataclass
class BackpropResult:
    param_grad: object        # materialized ParamGrad, or None for fixed fields
    d_x0: np.ndarray          # cotangent w.r.t. the entry positions


def backprop(traj, potential, d_x_final, d_l_final):
    """Pull terminal cotangents back through the recorded trajectory.

    ``potential`` must be the evaluator (or its parameters wrapped in one)
    that produced the tape; a fingerprint mismatch raises StaleTapeError.
    The log-density cotangent passes through unchanged, because nothing
    depends on l0, so only the entry positions' cotangent is returned.
    ``param_grad`` is the trajectory's one ``ParamGrad``, already
    materialized, summed in the order the module docstring gives, so results
    are reproducible bit for bit.  A non-finite position cotangent or
    parameter gradient raises NumericError.
    """
    pot = as_potential(potential)
    if traj.fingerprint != pot.fingerprint():
        raise StaleTapeError("trajectory was recorded under different potential parameters")
    grad, d_x0 = _reverse(traj, pot, d_x_final, d_l_final)
    return BackpropResult(_checked(grad), d_x0)


def _reverse(traj, pot, d_x_final, d_l_final):
    """``backprop`` of one tape, not checked against ``pot``: (unmaterialized ParamGrad, d_x0)."""
    if not traj.steps:
        raise ValueError("empty trajectory")

    B, n = traj.steps[0].x0.shape
    d_x = np.array(d_x_final, dtype=np.float64, copy=True)
    d_l = np.asarray(d_l_final, dtype=np.float64)
    if d_x.shape != (B, n) or d_l.shape != (B,):
        raise ValueError("cotangent shapes do not match the recorded batch")

    grad = None     # ParamGrad summed over every stage, or None for fixed fields

    # overflow surfaces as a non-finite cotangent, reported below with its step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(traj.steps) - 1, -1, -1):
            rec = traj.steps[k]
            eta = rec.eta
            xs = rec.stage_x
            # base cotangents on the four stage outputs from the combination rule, with the
            # minus of d ln p/dt = -lap in lbar's scalar; stages of equal weight share their
            # two arrays, which nothing writes into
            shared = {w: (d_x * (eta * w / 6.0), (-eta * w / 6.0) * d_l)
                      for w in set(_RK4_WEIGHTS)}
            kbar = [shared[w][0] for w in _RK4_WEIGHTS]
            lbar = [shared[w][1] for w in _RK4_WEIGHTS]
            d_x_new = d_x.copy()
            for i in (3, 2, 1, 0):
                pg, xcot = pot.vjp(xs[i], kbar[i], lbar[i], ctx=rec.stage_ctx[i])
                if pg is not None:
                    grad = pg if grad is None else grad.add(pg)
                d_x_new += xcot
                if i > 0:
                    # stage i's input is x0 + _STAGE_OFFSETS[i-1] * eta * g_{i-1}
                    kbar[i - 1] = kbar[i - 1] + (_STAGE_OFFSETS[i - 1] * eta) * xcot
            d_x = d_x_new
            if not np.isfinite(d_x).all():
                raise NumericError(f"non-finite position cotangent in the reverse pass "
                                   f"at step {k}")
    return grad, d_x


def _checked(grad):
    """``grad``, or None, after one check that its flat vector is finite."""
    if grad is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(grad.to_vector()).all():
                raise NumericError("non-finite parameter gradient in the reverse pass")
    return grad


class _Worker:
    """The standing worker: a process forked once, which runs one job at a time,
    ``_worker_part(*args)`` under the caller's ``np.geterr()``, and replies once.  ``start``
    pickles a job through ``_JobPickler``, so a job that does not pickle sends nothing.
    ``recv`` gives the reply, (error, value).  The error is ``_NotLoaded`` if the worker could
    not load the job; it then waits for the next, holding no symmetry group.  An exception of
    the job comes back pickled, or, if it does not come back from pickle, as a RuntimeError that
    carries its formatted traceback; a worker that ends without a message gives an error naming
    its exit status.  The worker ignores SIGINT and ends with ``os._exit`` at the end of its
    input, so it never runs the caller's exit path; ``stop`` kills and reaps it."""

    def __init__(self):
        fds = []
        try:
            down = os.pipe()
            fds += down
            up = os.pipe()
            fds += up
            for fd in (down[1], up[1]):
                _widen(fd)
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        if not self.pid:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(down[1])
                os.close(up[0])
                with open(down[0], "rb") as inbox, open(up[1], "wb") as outbox:
                    _work(inbox, outbox)
                status = 0
            finally:
                os._exit(status)
        os.close(down[0])
        os.close(up[1])
        # the file objects leave the descriptors open, so that a process forked later can close
        # them without flushing anything (``_forget_worker``)
        self.fds = down[1], up[0]
        self._outbox = open(down[1], "wb", closefd=False)
        self._inbox = open(up[0], "rb", closefd=False)
        self._sent = set()      # keys of the symmetry groups whose tables the worker holds

    def start(self, args):
        """Send the job of ``_worker_part(*args)``; False, with nothing sent, if it does not
        pickle."""
        stream, buffers = io.BytesIO(), []
        pickler = _JobPickler(stream, self._sent, buffers.append)
        try:
            pickler.dump((np.geterr(), args))
        except Exception:       # whatever the evaluator's pickling raises: the caller runs it
            return False
        self._sent = pickler.sent
        views = [b.raw() for b in buffers]
        try:
            pickle.dump((stream.getvalue(), [v.nbytes for v in views]), self._outbox,
                        pickle.HIGHEST_PROTOCOL)
            for data in views:
                self._outbox.write(data)
            self._outbox.flush()
        except BrokenPipeError:
            pass            # the worker has ended: recv says how
        return True

    def recv(self):
        try:
            return pickle.load(self._inbox)
        except (EOFError, pickle.UnpicklingError):
            status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = 0
            return RuntimeError(f"the row-part worker ended with exit status {status} and sent "
                                f"no result"), None

    def stop(self):
        """Close the pipes, and kill and reap the worker if it has not ended."""
        for pipe in (self._outbox, self._inbox):
            try:
                pipe.close()
            except OSError:
                pass        # a reply that the ended worker never read
        for fd in self.fds:
            os.close(fd)
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


def _widen(pipe):
    """Let a pipe hold 1 MB where Linux allows it, the most an unprivileged process may ask by
    default.  A job at n = 64, h = 512 (270 kB of parameters) and its gradient sum then cross
    at once, where at 64 kB the writer waited for the reader to wake up, several times a call."""
    try:
        import fcntl
        fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (ImportError, AttributeError, OSError):
        pass            # the pipe keeps its size


class _JobPickler(pickle.Pickler):
    """The pickler of a job, and the one owner of its compact forms.  Arrays go out of band to
    ``buffer_callback``, so the caller copies none.  An ``MLPPotential`` goes as its parameters,
    not its caches, which the worker builds again with the same code, so with the same bits; the
    table, looked up by exact type before copyreg's, lets a subclass cross whole.  A
    ``SymmetryGroup`` goes as its key, with its tables only the first time; ``sent`` holds the
    keys sent before, and this job's too once it has pickled."""

    dispatch_table = collections.ChainMap(
        {MLPPotential: lambda pot: (MLPPotential, (pot.params,))}, copyreg.dispatch_table)

    def __init__(self, file, sent, buffer_callback):
        super().__init__(file, 5, buffer_callback=buffer_callback)
        self.sent = set(sent)

    def persistent_id(self, obj):
        if type(obj) is not SymmetryGroup:
            return None
        key = obj.key()
        if key in self.sent:
            return key, None
        self.sent.add(key)
        return key, (obj.perms, obj.signs)


class _JobUnpickler(pickle.Unpickler):
    """The worker's unpickler of a job; ``groups`` holds, by key, every group it has received,
    validated where its tables arrive, so once per worker (about 2 ms for 1,024 rows at L = 8)."""

    def __init__(self, file, buffers, groups):
        super().__init__(file, buffers=buffers)
        self.groups = groups

    def persistent_load(self, pid):
        key, tables = pid
        if tables is not None:
            self.groups[key] = SymmetryGroup(*tables)
        return self.groups[key]


class _NotLoaded(Exception):
    """The worker could not load a job, as where its evaluator's class was defined after the
    fork; the caller runs the part itself."""


def _work(inbox, outbox):
    """The worker's loop: each job loaded, run under the caller's floating-point settings and
    answered, until the end of the input."""
    groups = {}
    while True:
        try:
            stream, sizes = pickle.load(inbox)
        except EOFError:
            return
        buffers = [bytearray(n) for n in sizes]
        for buffer in buffers:
            if inbox.readinto(buffer) < len(buffer):
                return
        try:
            settings, args = _JobUnpickler(io.BytesIO(stream), buffers, groups).load()
        except Exception as error:      # whatever loading the evaluator raises
            groups.clear()
            outbox.write(_pickled_error(_NotLoaded(repr(error))))
            outbox.flush()
            continue
        try:
            with np.errstate(**settings):
                message = None, _worker_part(*args)
        except BaseException as error:
            outbox.write(_pickled_error(error))
        else:
            pickle.dump(message, outbox, pickle.HIGHEST_PROTOCOL)
            del message         # the gradient sum, not held between jobs
        outbox.flush()


def _pickled_error(error):
    """(error, None) pickled; an error that does not come back from pickle becomes a
    RuntimeError that carries its formatted traceback."""
    try:
        data = pickle.dumps((error, None), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        return data
    except Exception:
        text = "".join(traceback.format_exception(error))
        return pickle.dumps((RuntimeError(f"the row-part worker raised an error that cannot be "
                                          f"pickled:\n{text}"), None))


def _one_thread():
    """Whether this process runs one thread, as ``/proc`` shows; False where it cannot be read.
    A fork copies only the thread that forks, so a lock another thread holds, OpenBLAS's or the
    allocator's, would stay held in the child.  OpenBLAS's own pool counts: at more than one
    BLAS thread its workers are threads of the process."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


_worker = None                      # this process's standing _Worker, once forked
_worker_free = threading.Lock()     # held by the call whose job the worker runs


def _stop_worker():
    """Stop the standing worker, if there is one; the next two-part call forks another."""
    global _worker
    worker, _worker = _worker, None
    if worker is not None:
        worker.stop()


def _forget_worker():
    """In a process forked from one with a worker: close the inherited pipes, so that the worker
    sees the end of its input when its own caller ends, and never use them."""
    global _worker, _worker_free
    if _worker is not None:
        for fd in _worker.fds:
            os.close(fd)
    _worker, _worker_free = None, threading.Lock()


atexit.register(_stop_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _take_worker(args):
    """The standing worker, with the job of ``_worker_part(*args)`` sent and ``_worker_free``
    held; or None.  It is forked first if the process has none and runs one thread.  None if
    another call holds it, if it cannot be forked, or if the job does not pickle."""
    global _worker
    if not _worker_free.acquire(blocking=False):
        return None
    try:
        if _worker is None and hasattr(os, "fork") and _one_thread():
            try:
                _worker = _Worker()
            except OSError:
                pass            # no process to spare: the parts run in sequence
        if _worker is not None and _worker.start(args):
            return _worker
    except BaseException:
        _stop_worker()
        _worker_free.release()
        raise
    _worker_free.release()
    return None


def _in_parts(args, own):
    """(``_worker_part(*args)``, ``own()``): the first in the worker that ``_take_worker`` gives
    while the caller runs ``own``, else on the caller after it.  An exception of either comes
    out as soon as the caller meets it, without waiting for the other part.  A call that leaves
    with one stops the worker; one that ends well leaves it waiting."""
    worker = _take_worker(args)     # held to the call's end, even if it did not load the job
    try:
        mine = own()
        if worker is not None:
            error, value = worker.recv()
            if error is None:
                return value, mine
            if not isinstance(error, _NotLoaded):
                raise error
            worker._sent.clear()
        return _worker_part(*args), mine
    except BaseException:
        if worker is not None:
            _stop_worker()
        raise
    finally:
        if worker is not None:
            _worker_free.release()


def _cotangents(X, energy, n):
    """A loss's terminal cotangents of its rows X, of n in all: (energy.grad(X) / n, 1 / n)."""
    return energy.grad(X) / n, np.full(len(X), 1.0 / n)


def _part(pot, state, config, contexts, end, rows, callback=None):
    """``_integrate`` of the state's ``rows`` and, if ``end`` is a loss's (energy, n), the
    reverse pass of their tape from their ``_cotangents``: (final state, ParamGrad or None)."""
    final, traj = _integrate(pot, state, config, contexts, end is not None, callback, rows)
    grad = None if end is None else _reverse(traj, pot, *_cotangents(final.X, *end))[0]
    return final, grad


def _worker_part(*args):
    """The worker's rows, ``_part(*args)``: their final X and L, and their gradient's
    ``dense()`` sum or None."""
    final, grad = _part(*args)
    return final.X, final.L, None if grad is None else grad.dense()


# Rows :k of a batch of B run in the standing worker and rows k: on the caller,
# k = 16 floor(B / 32); one part holds every row if k = 0 or sample's callback must see whole
# states.  OpenBLAS picks kernels by size, so a row's bits may depend on how many rows share
# its products; this k keeps every forward result bitwise the one-part one at n = 784,
# h = 1024, B = 100 and n = 64, h = 512, B = 64, where a 50/50 split at B = 100 is not, and a
# part's rows of the Ising energy's gradient, X K^-1, bitwise those of the whole batch.
# A process, not a thread: at n = 64, h = 512 a stage makes dozens of numpy calls of a few
# microseconds, and two threads hand the interpreter lock back and forth at each one.  A
# 32-row part there, forward and reverse, ran 0.99-1.49x faster than two in sequence on a
# second thread, and 1.29-1.94x in a forked child (8 rounds, one BLAS thread, 2 vCPUs); at
# n = 784, h = 1024 the calls are long and threads scaled too.  One standing worker, not a
# child forked per call: at n = 64, h = 512 a fork, its copy-on-write faults and the reap cost
# a 64-row sample 3.7 ms of about 55, and the caller took about 2,800 faults per loss and
# sample, and 15,900 per n = 784 nll_loss.  A fork is safe only while the process runs one
# thread, so the worker is forked only then, which also means one BLAS thread; otherwise, or if
# the fork fails, the two parts run in sequence on the caller, with the same bits.  At two
# BLAS threads on 2 vCPUs a second process only added a second BLAS pool (an n = 64, h = 512
# loss took 0.90-4.65 s), and parts in sequence beat parts on two threads: 0.24-0.28 s against
# 0.41-0.50 s there, 1.23-1.32 s against 2.75-2.77 s at n = 784, h = 1024.  On a host whose
# second vCPU is busy, any split is a loss: the parts then take turns on one core.
def _run_parts(pot, state, config, rng, callback=None, end=None):
    """``integrate`` of the batch in its row parts, each recorded and reversed if ``end`` is a
    loss's (energy, n), as ``_part`` does: (final state, checked ParamGrad or None).  The
    worker's gradient sum is added to the caller's, as part 1's to part 0's.  A two-part call
    that fails raises what the batch run again as one part raises, or the parts' error if that
    run ends well."""
    k = 0 if callback is not None else 16 * (state.batch_size // 32)
    contexts = _stage_contexts(pot, rng, config.steps)  # drawn once, as one part draws them
    if not k:
        final, grad = _part(pot, state, config, contexts, end, slice(0, None), callback)
        return final, _checked(grad)
    top = FlowState(state.X[:k], state.L[:k], state.t)
    try:
        (X, L, dense), (own, grad) = _in_parts(
            (pot, top, config, contexts, end, slice(0, k)),
            lambda: _part(pot, state, config, contexts, end, slice(k, None)))
    except Exception as error:
        failed = error
    else:
        if grad is not None:
            grad.add_dense(*dense)
        final = FlowState(np.concatenate([X, own.X]), np.concatenate([L, own.L]), own.t)
        return final, _checked(grad)
    # evaluators and targets are pure, so the batch run again as one part meets the same failure
    # and names its step and row as one part does; where that run ends well, as after a worker
    # that died, the parts' error stands
    _part(pot, state, config, contexts, end, slice(0, None))
    raise failed


def _forward(pot, n_samples, config, rng, callback=None, end=None):
    """The base Gaussian pushed forward: ``_run_parts``'s (final state, ParamGrad or None)."""
    if config.direction != FORWARD:
        raise ValueError("sampling integrates forward; got a backward config")
    state = gaussian_base(pot.n_dim, n_samples, rng)
    return _run_parts(pot, state, config, rng, callback, end)


def _backward(pot, X, config, rng=None, end=None):
    """Rows of X integrated back to the base: (log-densities, ParamGrad or None); ``end`` as in
    ``_run_parts``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != pot.n_dim:
        raise ValueError(f"data shape {X.shape} does not match potential dimension {pot.n_dim}")
    cfg = config if config.direction == BACKWARD else config.reversed()
    state = FlowState(X, np.zeros(X.shape[0]), cfg.total_time)
    final, grad = _run_parts(pot, state, cfg, rng, end=end)
    # backward accumulation leaves +integral(lap) in L
    return gaussian_log_density(final.X) - final.L, grad


def sample(potential, n_samples, config, rng, callback=None):
    """Draw n_samples from the model: base Gaussian pushed forward through the flow.

    The returned state carries the exact model log-density of each sample
    (up to integrator truncation error) in ``L``.  ``callback(step_index,
    state)`` fires after every step (used for frame dumps); it makes the
    batch run as one part, so that it sees whole states.
    """
    return _forward(as_potential(potential), n_samples, config, rng, callback)[0]


def log_prob(potential, X, config, rng=None):
    """Model log-density of the rows of X at time T = epsilon * steps.

    Integrates backward to the base, accumulating the Laplacian along the
    path:  ln p(x, T) = ln N(z) - integral of lap phi over the trajectory.
    """
    return _backward(as_potential(potential), X, config, rng)[0]


@dataclass
class LossResult:
    value: float
    grad: object              # ParamGrad of the parameters, or None when not requested
    per_sample: np.ndarray    # per-row contributions, mean equals ``value``


def nll_loss(potential, X_data, config, rng=None, want_grad=True):
    """Negative log-likelihood of the data rows under the model.

    ``log_prob``'s backward integration, recorded when ``want_grad``: the
    gradient comes from the tape, together with the chain through the
    reached base points.  ``per_sample`` is ``-log_prob`` bit for bit.
    """
    end = (_BaseEnergy, len(X_data)) if want_grad else None
    logp, grad = _backward(as_potential(potential), X_data, config, rng, end)
    return LossResult(-float(logp.mean()), grad, -logp)


class _BaseEnergy:
    """|z|^2 / 2, the base Gaussian's energy up to a constant, whose gradient is z."""

    grad = staticmethod(lambda X: X)


def variational_loss(potential, energy, n_samples, config, rng, want_grad=True):
    """Sampled free-energy bound: mean of [model log-density + target energy].

    Its expectation is at least -ln Z of the target for the exact
    log-density of the discrete RK4 map that draws the samples.  The
    log-density here is the RK4 integral of -lap phi instead, so the bound
    is not guaranteed: after training at L = 2 with one step of 1.0, it
    read 0.14 nats below the bound of the exact density.

    ``sample``'s forward integration, recorded when ``want_grad``;
    ``per_sample`` is ``sample(...).L`` plus the energy, bit for bit, under
    the same ``rng``.  The gradient is the pathwise (reparametrized)
    estimator: base noise is held fixed and the sampling map is
    differentiated through the tape.  ``energy.grad`` must work row by row,
    as each row part takes it of its own rows, and the energy must pickle,
    as the evaluator must, for a part to run in the worker.
    """
    pot = as_potential(potential)
    if energy.n_dim != pot.n_dim:
        raise ValueError(f"energy dimension {energy.n_dim} does not match potential {pot.n_dim}")

    end = (energy, n_samples) if want_grad else None
    final, grad = _forward(pot, n_samples, config, rng, end=end)
    per = final.L + energy.energy(final.X)
    return LossResult(float(per.mean()), grad, per)
