"""Exact reverse-mode differentiation through recorded RK4 trajectories.

The tape stores, for every integration step, the entry state and the four
stage inputs together with the (grad, laplacian) evaluations used.  The
reverse pass differentiates the *discrete* RK4 map, so gradients are exact
at any step size; they approximate the continuous adjoint only in the limit
of small steps, which is irrelevant here because the loss is defined on the
discrete map itself.

Memory is O(steps * batch * dim): every step is kept, no checkpoint /
recompute scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StaleTapeError

# classical RK4 combination weights for stages 1..4
_RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)


def combine_stages(x0, l0, eta, grads, laps):
    """One RK4 update of the joint (position, log-density) system.

    Shared by the forward integrator and ``replay`` so both produce bitwise
    identical arithmetic.  ``eta`` is the signed step.
    """
    g1, g2, g3, g4 = grads
    l1, l2, l3, l4 = laps
    x1 = x0 + (eta / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
    # d(log p)/dt = -lap, hence the minus sign
    l1_ = l0 - (eta / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return x1, l1_


@dataclass
class StepRecord:
    """Everything needed to replay and to reverse one RK4 step."""

    x0: np.ndarray          # entry positions (B, n)
    l0: np.ndarray          # entry log-densities (B,)
    eta: float              # signed step actually taken
    stage_x: tuple          # 4 stage input position arrays; stage_x[0] is x0
    stage_grad: tuple       # 4 gradient-field evaluations
    stage_lap: tuple        # 4 Laplacian evaluations
    stage_ctx: tuple        # 4 evaluator contexts (e.g. sampled group element)
    stage_aux: tuple        # 4 evaluator-private caches for the reverse pass


@dataclass
class Trajectory:
    """Recorded forward pass of ``flow.integrate``; input to ``backprop``."""

    steps: list = field(default_factory=list)
    fingerprint: bytes = b""
    t0: float = 0.0

    def __len__(self):
        return len(self.steps)


def replay(traj):
    """Recompute the terminal state from the recorded stage evaluations.

    Returns (X, L).  Bitwise equality with the integrator output is a
    correctness check on the tape contents.
    """
    if not traj.steps:
        raise ValueError("empty trajectory")
    x, l = traj.steps[0].x0, traj.steps[0].l0
    for rec in traj.steps:
        x, l = combine_stages(rec.x0, rec.l0, rec.eta, rec.stage_grad, rec.stage_lap)
    return x, l


@dataclass
class BackpropResult:
    param_grad: object        # PotentialParams gradient, or None for fixed fields
    d_x0: np.ndarray          # cotangent w.r.t. the entry positions
    d_l0: np.ndarray          # cotangent w.r.t. the entry log-densities


def backprop(traj, potential, d_x_final, d_l_final):
    """Pull terminal cotangents back through the recorded trajectory.

    ``potential`` must be the evaluator (or its parameters wrapped in one)
    that produced the tape; a fingerprint mismatch raises StaleTapeError.
    Accumulation order is fixed: steps in reverse, stages 4..1 inside each
    step, so results are reproducible bit for bit.
    """
    from .flow import as_potential  # local import to avoid a cycle at module load

    pot = as_potential(potential)
    if traj.fingerprint != pot.fingerprint():
        raise StaleTapeError("trajectory was recorded under different potential parameters")
    if not traj.steps:
        raise ValueError("empty trajectory")

    B, n = traj.steps[0].x0.shape
    d_x = np.array(d_x_final, dtype=np.float64, copy=True)
    d_l = np.asarray(d_l_final, dtype=np.float64)
    if d_x.shape != (B, n) or d_l.shape != (B,):
        raise ValueError("cotangent shapes do not match the recorded batch")

    flat_grad = np.zeros(pot.grad_size) if pot.trainable else None

    for rec in reversed(traj.steps):
        eta = rec.eta
        # base cotangents on the four stage outputs from the combination rule
        kbar = [d_x * (eta * w / 6.0) for w in _RK4_WEIGHTS]
        lbar = [(eta * w / 6.0) * d_l for w in _RK4_WEIGHTS]
        # stage-input chaining factors: x2 = x0 + eta/2 k1, x3 = x0 + eta/2 k2,
        # x4 = x0 + eta k3
        chain = {3: (2, eta), 2: (1, eta / 2.0), 1: (0, eta / 2.0)}
        d_x_new = d_x.copy()
        for i in (3, 2, 1, 0):
            pg, xcot = pot.vjp(rec.stage_x[i], kbar[i], -lbar[i],
                               ctx=rec.stage_ctx[i], aux=rec.stage_aux[i])
            if flat_grad is not None and pg is not None:
                flat_grad += pg
            d_x_new += xcot
            if i in chain:
                j, fac = chain[i]
                kbar[j] = kbar[j] + fac * xcot
        d_x = d_x_new
        # log-density cotangent passes through unchanged: nothing depends on l0

    param_grad = None if flat_grad is None else pot.grad_to_params(flat_grad)
    return BackpropResult(param_grad, d_x, d_l.copy())
