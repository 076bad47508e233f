"""Exact reverse-mode differentiation through recorded RK4 trajectories.

The tape stores, for every integration step, the entry state (x0, l0), the
signed step, and the four stage evaluations: gradients (B, n), Laplacians
(B,) and the evaluator contexts.  That is B*(5n + 5)*8 bytes per step,
whatever the evaluator's hidden width: ``vjp`` recomputes the hidden-layer
activations from the stage input.  The stage inputs are not stored either:
stage i+1 starts at x0 + c_i*eta*g_i, so ``StepRecord.stage_x`` rebuilds
them from x0 and the stored gradients with the integrator's own expression,
bit for bit.

The reverse pass differentiates the *discrete* RK4 map, so gradients are
exact at any step size; they approximate the continuous adjoint only in the
limit of small steps, which is irrelevant here because the loss is defined
on the discrete map itself.

Memory is O(steps * batch * dim): every step is kept, and only the
activations inside a stage are recomputed, not whole steps.

The parameter gradient is one ``ParamGrad`` for the whole trajectory.  Each
stage's ``vjp`` adds its db, da and t2 at once and its dW product L^T R into
one dense dW, in reverse step order and stages 4..1 inside each step; the
2 a (sum t2) W term of dW comes last, once.  Large products run on a worker
thread beside the cotangent chain, in the same order, so the result does not
depend on which thread ran them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, StaleTapeError
from .potential import as_potential

# classical RK4 combination weights for stages 1..4
_RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)
# stage i+1 starts at x0 + _STAGE_OFFSETS[i] * eta * g_i, for stages i = 0..2
_STAGE_OFFSETS = (0.5, 0.5, 1.0)


def next_stage_input(x0, eta, i, g):
    """Input of stage i+1 from the entry positions and stage i's gradient.

    The integrator and ``StepRecord.stage_x`` both call this, so the stage
    inputs rebuilt from the tape are bitwise equal to the evaluated ones.
    """
    return x0 + (_STAGE_OFFSETS[i] * eta) * g


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
            xs.append(next_stage_input(self.x0, self.eta, i, self.stage_grad[i]))
        return tuple(xs)


@dataclass
class Trajectory:
    """Recorded forward pass of ``flow.integrate``; input to ``backprop``."""

    steps: list = field(default_factory=list)
    fingerprint: bytes = b""

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
    param_grad: object        # materialized ParamGrad, or None for fixed fields
    d_x0: np.ndarray          # cotangent w.r.t. the entry positions
    d_l0: np.ndarray          # cotangent w.r.t. the entry log-densities


def backprop(traj, potential, d_x_final, d_l_final):
    """Pull terminal cotangents back through the recorded trajectory.

    ``potential`` must be the evaluator (or its parameters wrapped in one)
    that produced the tape; a fingerprint mismatch raises StaleTapeError.
    Accumulation order is fixed: the per-call dW products, db, da and t2 in
    reverse step order and stages 4..1 inside each step, then the W term
    last, so results are reproducible bit for bit.  ``param_grad`` is the
    sum's ``ParamGrad``, already materialized.  A non-finite position
    cotangent or parameter gradient raises NumericError.
    """
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

    grad = None     # ParamGrad summed over every stage, or None for fixed fields

    # overflow surfaces as a non-finite cotangent, reported below with its step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(traj.steps) - 1, -1, -1):
            rec = traj.steps[k]
            eta = rec.eta
            xs = rec.stage_x
            # base cotangents on the four stage outputs from the combination rule
            kbar = [d_x * (eta * w / 6.0) for w in _RK4_WEIGHTS]
            lbar = [(eta * w / 6.0) * d_l for w in _RK4_WEIGHTS]
            d_x_new = d_x.copy()
            for i in (3, 2, 1, 0):
                pg, xcot = pot.vjp(xs[i], kbar[i], -lbar[i], ctx=rec.stage_ctx[i])
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
            # log-density cotangent passes through unchanged: nothing depends on l0
        if grad is not None and not np.isfinite(grad.to_vector()).all():
            raise NumericError("non-finite parameter gradient in the reverse pass")
    return BackpropResult(grad, d_x, d_l.copy())
