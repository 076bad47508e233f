"""Correctness checks the benchmark runs on the library's outputs.

Each check returns True when it passes.  They are cheap on purpose: the
replay and finite-difference checks integrate over ``GATE_STEPS`` RK4 steps
at the workload's full (batch, dim, hidden) shape.  Exactness of the tape
gradient does not depend on the step count.
"""

from __future__ import annotations

import numpy as np

from maflow import (FlowState, IntegratorConfig, PotentialParams, build_potential,
                    gaussian_base, integrate, nll_loss, replay, variational_loss)
from maflow.gradcheck import ABS_FLOOR, FD_STEP, REL_SCALE_FLOOR, REL_TOL

GATE_STEPS = 2


def replay_matches(traj, final):
    """``replay`` of the tape reproduces the integrator's terminal state bit for bit."""
    X, L = replay(traj)
    return bool(np.array_equal(X, final.X) and np.array_equal(L, final.L))


def all_finite(*arrays):
    return all(bool(np.isfinite(a).all()) for a in arrays)


class GateProblem:
    """The workload's objective at its full shape over ``GATE_STEPS`` RK4 steps."""

    def __init__(self, inputs):
        self.inputs = inputs
        cfg = inputs.config
        self.fwd = IntegratorConfig(cfg.epsilon, GATE_STEPS)
        if cfg.objective == "nll":
            self.X = inputs.eval_X[: cfg.batch_size]
        self.noise_seed = [inputs.seed, 4]

    def potential(self, params):
        cfg = self.inputs.config
        return build_potential(params, self.inputs.group, cfg.symmetry_mode, cfg.resample)

    def loss(self, params, want_grad):
        """Loss (and tape gradient); the variational one reuses its noise on every call."""
        pot = self.potential(params)
        rng = np.random.default_rng(self.noise_seed)
        if self.inputs.config.objective == "nll":
            return nll_loss(pot, self.X, self.fwd, rng=rng, want_grad=want_grad)
        return variational_loss(pot, self.inputs.target, self.inputs.config.batch_size,
                                self.fwd, rng, want_grad=want_grad)

    def replay_check(self, params):
        pot = self.potential(params)
        rng = np.random.default_rng(self.noise_seed)
        if self.inputs.config.objective == "nll":
            cfg = self.fwd.reversed()
            state = FlowState(self.X, np.zeros(self.X.shape[0]), cfg.total_time)
        else:
            cfg = self.fwd
            state = gaussian_base(pot.n_dim, self.inputs.config.batch_size, rng)
        final, traj = integrate(pot, state, cfg, rng=rng, record=True)
        return replay_matches(traj, final)

    def directional_check(self, params):
        """Tape gradient along one unit direction against a central difference.

        The direction is the sum of a random unit vector and the unit tape
        gradient, normalized.

        Tolerances are those of ``maflow.gradcheck``: agreement within
        ABS_FLOOR passes outright, otherwise the scaled relative error must
        stay below REL_TOL.
        """
        rng = np.random.default_rng([self.inputs.seed, 5])
        vec = params.to_vector()
        grad = self.loss(params, True).grad.to_vector()
        v = rng.standard_normal(vec.shape)
        v /= np.linalg.norm(v)
        # half of the direction along the gradient keeps the derivative well
        # above the rounding noise of the difference quotient
        g_norm = np.linalg.norm(grad)
        if g_norm > 0.0:
            v += grad / g_norm
            v /= np.linalg.norm(v)
        n, h = params.n_dim, params.n_hidden
        tape = float(grad @ v)
        up = self.loss(PotentialParams.from_vector(vec + FD_STEP * v, n, h), False).value
        dn = self.loss(PotentialParams.from_vector(vec - FD_STEP * v, n, h), False).value
        fd = (up - dn) / (2.0 * FD_STEP)
        diff = abs(tape - fd)
        return diff <= ABS_FLOOR or diff / max(abs(fd), abs(tape), REL_SCALE_FLOOR) <= REL_TOL
