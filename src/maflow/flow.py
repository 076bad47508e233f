"""Fixed-step RK4 integration of the coupled position / log-density system.

The joint ODE is

    dx/dt      = grad phi(x)
    d ln p /dt = -lap phi(x)

integrated forward (sampling: noise -> data) or backward (inference:
data -> noise) with the classical fourth-order Runge-Kutta scheme at a
fixed step.  Backward integration reuses the same stepper with a negated
increment, so both directions cost the same.  Each direction has one
integration, ``_forward`` or ``_backward``: ``sample`` and ``log_prob`` call
them, and so do the losses in ``targets``, which also record the tape.

Batch rows are independent; everything is float64 and deterministic for a
given seed.  Non-finite intermediates abort with diagnostics instead of
being clamped, because clamping would silently corrupt log-densities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .difftape import StepRecord, Trajectory, combine_stages, next_stage_input
from .errors import NumericError
from .potential import as_potential

FORWARD = "forward"
BACKWARD = "backward"

LOG_2PI = math.log(2.0 * math.pi)


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


def _first_bad_row(*arrays):
    for arr in arrays:
        bad = ~np.isfinite(arr)
        if bad.any():
            idx = np.argwhere(bad)[0]
            return int(idx[0])
    return None


def rk4_step(potential, state, epsilon, direction=FORWARD, ctx=None, record=False,
             step_index=None):
    """Advance the joint system by one RK4 step of size epsilon.

    ``direction='backward'`` integrates the same field with a negated time
    increment.  ``ctx`` holds the evaluator context of each of the four
    stages, as drawn by ``integrate`` from ``potential.begin_trajectory``;
    None evaluates every stage with context None (for a symmetrized
    potential, the whole group).  With ``record=True`` additionally returns
    a StepRecord for the reverse-mode pass, else None.
    """
    pot = as_potential(potential)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive; use direction='backward' to go back in time")
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
    eta = epsilon if direction == FORWARD else -epsilon
    ctx = (None,) * 4 if ctx is None else tuple(ctx)

    x0, l0 = state.X, state.L

    grads, laps = [], []
    xi = x0
    # overflow surfaces as a non-finite value, reported below with its row
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(4):
            g, lap = pot.grad_lap(xi, ctx[i])
            grads.append(g)
            laps.append(lap)
            if i < 3:
                xi = next_stage_input(x0, eta, i, g)

        x1, l1 = combine_stages(x0, l0, eta, grads, laps)

    bad = _first_bad_row(x1, l1, *grads)
    if bad is not None:
        where = f"step {step_index}" if step_index is not None else "integration step"
        raise NumericError(f"non-finite value during {where}, batch row {bad}")

    new_state = FlowState(x1, l1, state.t + eta)
    rec = None
    if record:
        rec = StepRecord(x0, l0, eta, tuple(grads), tuple(laps), ctx)
    return new_state, rec


def integrate(potential, state, config, rng=None, record=False, callback=None):
    """Run ``config.steps`` RK4 steps; returns (final state, Trajectory or None).

    Calls ``potential.begin_trajectory(rng)`` once: it returns an iterator
    over the context of every stage of the trajectory (for a sampled
    symmetrized potential, the group element indices, drawn lazily from
    ``rng``), or None when every stage has context None.  Each step takes
    the next four contexts.  ``callback(step_index, state)`` fires after
    every step (used for frame dumps).  With ``record=True`` the returned
    Trajectory holds every step's entry state and all four stage
    evaluations with their contexts (the stage inputs are rebuilt from
    these, see ``StepRecord.stage_x``).
    """
    pot = as_potential(potential)
    if state.n_dim != pot.n_dim:
        raise ValueError(f"state dimension {state.n_dim} does not match potential {pot.n_dim}")
    contexts = pot.begin_trajectory(rng)
    traj = Trajectory(fingerprint=pot.fingerprint()) if record else None
    for k in range(config.steps):
        ctx = None if contexts is None else tuple(itertools.islice(contexts, 4))
        state, rec = rk4_step(pot, state, config.epsilon, config.direction,
                              ctx=ctx, record=record, step_index=k)
        if record:
            traj.steps.append(rec)
        if callback is not None:
            callback(k + 1, state)
    return state, traj


def _forward(potential, n_samples, config, rng, record=False, callback=None):
    """The base Gaussian pushed forward: (final state, Trajectory or None)."""
    if config.direction != FORWARD:
        raise ValueError("sampling integrates forward; got a backward config")
    pot = as_potential(potential)
    state = gaussian_base(pot.n_dim, n_samples, rng)
    return integrate(pot, state, config, rng=rng, record=record, callback=callback)


def _backward(potential, X, config, rng=None, record=False, callback=None):
    """Rows of X integrated back to the base: (log-densities, base points, Trajectory or None)."""
    pot = as_potential(potential)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != pot.n_dim:
        raise ValueError(f"data shape {X.shape} does not match potential dimension {pot.n_dim}")
    cfg = config if config.direction == BACKWARD else config.reversed()
    state = FlowState(X, np.zeros(X.shape[0]), cfg.total_time)
    final, traj = integrate(pot, state, cfg, rng=rng, record=record, callback=callback)
    # backward accumulation leaves +integral(lap) in L
    return gaussian_log_density(final.X) - final.L, final.X, traj


def sample(potential, n_samples, config, rng, callback=None):
    """Draw n_samples from the model: base Gaussian pushed forward through the flow.

    The returned state carries the exact model log-density of each sample
    (up to integrator truncation error) in ``L``.
    """
    return _forward(potential, n_samples, config, rng, callback=callback)[0]


def log_prob(potential, X, config, rng=None, callback=None):
    """Model log-density of the rows of X at time T = epsilon * steps.

    Integrates backward to the base, accumulating the Laplacian along the
    path:  ln p(x, T) = ln N(z) - integral of lap phi over the trajectory.
    """
    return _backward(potential, X, config, rng, callback=callback)[0]
