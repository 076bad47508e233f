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
losses run a batch of 32 rows or more as two row parts at once, one on a
worker thread: the one place that uses it.  The worker's executor is built
when the module is imported, and its one thread starts with the first part
it runs.  The parts share the stage contexts, drawn once before they start,
and join before anything reads the whole batch.  Each part's tape is then
reversed on its own, and part 1's ``ParamGrad`` folds into part 0's, so no
result depends on which thread ran a part.  ``integrate`` and ``backprop``
run one part, and so does ``sample`` with a callback.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError, StaleTapeError
from .potential import as_potential

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
    ``StepRecord`` (see the module docstring).  The batch runs as one part.
    """
    pot = as_potential(potential)
    contexts = _stage_contexts(pot, rng, config.steps)
    return _integrate(pot, state, config, contexts, record)


def _stage_contexts(pot, rng, steps):
    """The four stage contexts of each of ``steps`` steps, drawn from ``rng`` now."""
    contexts = pot.begin_trajectory(rng)
    return [(None,) * 4 if contexts is None else tuple(itertools.islice(contexts, 4))
            for _ in range(steps)]


def _integrate(pot, state, config, contexts, record=False, callback=None, rows=slice(0, None)):
    """``integrate`` of the state's ``rows``, with the ``_stage_contexts`` given;
    ``callback(step_index, state)`` fires after every step."""
    if state.n_dim != pot.n_dim:
        raise ValueError(f"state dimension {state.n_dim} does not match potential {pot.n_dim}")
    eta = config.epsilon if config.direction == FORWARD else -config.epsilon
    traj = Trajectory(fingerprint=pot.fingerprint()) if record else None
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
            raise NumericError(f"non-finite value during step {k}, batch row {rows.start + bad}", k)
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
    grad, d_x0 = _reverse_parts([(slice(0, None), traj)], as_potential(potential), d_x_final,
                                d_l_final)
    return BackpropResult(grad, d_x0[0])


def _reverse(traj, pot, d_x_final, d_l_final):
    """``backprop`` of one tape, its ParamGrad (or None) left unmaterialized: (ParamGrad, d_x0)."""
    if traj.fingerprint != pot.fingerprint():
        raise StaleTapeError("trajectory was recorded under different potential parameters")
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
                                   f"at step {k}", -k)     # the pass runs k downward
    return grad, d_x


def _in_parts(fn, parts):
    """``[fn(part) for part in parts]``, the first of two on the worker at once; a part never
    splits again.  An exception comes out once both are done; of two, the worker's, unless the
    caller's is a NumericError earlier in the pass, as one part would report it."""
    if len(parts) == 1:
        return [fn(parts[0])]
    first = _submit(fn, parts[0])
    try:
        last = fn(parts[1])
    except BaseException as late:
        early = first.exception()
        if early is None or getattr(late, "order", math.inf) < getattr(early, "order", -math.inf):
            raise
        raise early
    return [first.result(), last]


# Rows :k of a batch of B run on the worker and rows k: on the caller, k = 16 floor(B / 32);
# one part holds every row if k = 0 or sample's callback must see whole states.  OpenBLAS
# picks kernels by size, so a row's bits may depend on how many rows share its products; this
# k keeps every forward result bitwise the one-part one at n = 784, h = 1024, B = 100 and
# n = 64, h = 512, B = 64, where a 50/50 split at B = 100 is not.  Seconds per loss+grad
# call, one part -> two, 7 alternating rounds, one BLAS thread on 2 vCPUs: 0.830 -> 0.535
# at n = 2, h = 1024, B = 100, 100 steps; 0.323 -> 0.258 at n = 64, h = 512, B = 64, 50
# steps, sampled; 0.794 -> 0.589 at n = 256, same h, B and steps; 1.968 -> 1.190 at
# n = 784, h = 1024, B = 100, 20 steps.  On a host whose second vCPU is busy, any split
# is a loss: the parts then take turns on one core.
def _integrate_parts(pot, state, config, rng, record=False, callback=None):
    """``integrate`` of the batch in its row parts: (final state, [(rows, Trajectory or None)])."""
    k = 0 if callback is not None else 16 * (state.batch_size // 32)
    parts = (slice(0, k), slice(k, None)) if k else (slice(0, None),)
    contexts = _stage_contexts(pot, rng, config.steps)  # drawn once, as one part draws them
    outs = _in_parts(lambda rows: _integrate(pot, state, config, contexts, record, callback, rows),
                     parts)
    final = FlowState(np.concatenate([f.X for f, _ in outs]),
                      np.concatenate([f.L for f, _ in outs]), outs[0][0].t)
    return final, [(rows, traj) for rows, (_, traj) in zip(parts, outs)]


def _reverse_parts(tapes, pot, d_x, d_l):
    """(ParamGrad or None, each part's d_x0) of ``_integrate_parts``'s tapes, reversed at once
    against their rows; part 1's sum folds into part 0's before one checked ``to_vector``."""
    outs = _in_parts(lambda tape: _reverse(tape[1], pot, d_x[tape[0]], d_l[tape[0]]), tapes)
    grad = outs[0][0]
    if grad is not None:
        for other, _ in outs[1:]:
            grad.add(other)
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(grad.to_vector()).all():
                raise NumericError("non-finite parameter gradient in the reverse pass")
    return grad, [d for _, d in outs]


def _forward(pot, n_samples, config, rng, record=False, callback=None):
    """The base Gaussian pushed forward: (final state, ``_integrate_parts``'s tapes)."""
    if config.direction != FORWARD:
        raise ValueError("sampling integrates forward; got a backward config")
    state = gaussian_base(pot.n_dim, n_samples, rng)
    return _integrate_parts(pot, state, config, rng, record, callback)


def _backward(pot, X, config, rng=None, record=False):
    """Rows of X integrated back to the base: (log-densities, base points, tapes)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != pot.n_dim:
        raise ValueError(f"data shape {X.shape} does not match potential dimension {pot.n_dim}")
    cfg = config if config.direction == BACKWARD else config.reversed()
    state = FlowState(X, np.zeros(X.shape[0]), cfg.total_time)
    final, tapes = _integrate_parts(pot, state, cfg, rng, record)
    # backward accumulation leaves +integral(lap) in L
    return gaussian_log_density(final.X) - final.L, final.X, tapes


def sample(potential, n_samples, config, rng, callback=None):
    """Draw n_samples from the model: base Gaussian pushed forward through the flow.

    The returned state carries the exact model log-density of each sample
    (up to integrator truncation error) in ``L``.  ``callback(step_index,
    state)`` fires after every step (used for frame dumps); it makes the
    batch run as one part, so that it sees whole states.
    """
    return _forward(as_potential(potential), n_samples, config, rng, callback=callback)[0]


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
    pot = as_potential(potential)
    logp, base, tapes = _backward(pot, X_data, config, rng, record=want_grad)
    grad = None
    if want_grad:
        n = base.shape[0]
        grad = _reverse_parts(tapes, pot, base / n, np.full(n, 1.0 / n))[0]
    return LossResult(-float(logp.mean()), grad, -logp)


def variational_loss(potential, energy, n_samples, config, rng, want_grad=True):
    """Sampled free-energy bound: mean of [model log-density + target energy].

    Always at least -ln Z of the target.  ``sample``'s forward integration,
    recorded when ``want_grad``; ``per_sample`` is ``sample(...).L`` plus the
    energy, bit for bit, under the same ``rng``.  The gradient is the
    pathwise (reparametrized) estimator: base noise is held fixed and the
    sampling map is differentiated through the tape.
    """
    pot = as_potential(potential)
    if energy.n_dim != pot.n_dim:
        raise ValueError(f"energy dimension {energy.n_dim} does not match potential {pot.n_dim}")
    final, tapes = _forward(pot, n_samples, config, rng, record=want_grad)
    per = final.L + energy.energy(final.X)
    grad = None
    if want_grad:
        d_x = energy.grad(final.X) / n_samples
        grad = _reverse_parts(tapes, pot, d_x, np.full(n_samples, 1.0 / n_samples))[0]
    return LossResult(float(per.mean()), grad, per)


def _submit(fn, *args):
    """A future of ``fn(*args)`` on the worker thread, under the caller's ``np.geterr()``, so
    floating-point errors are handled alike on either thread.  The executor is built at import;
    its one thread starts with the first submit."""
    return _worker.submit(np.errstate(**np.geterr())(fn), *args)


def _forget_worker():
    """A new executor, with no thread yet: a forked child has no copy of the parent's thread."""
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="maflow-part")


_forget_worker()
os.register_at_fork(after_in_child=_forget_worker)
