"""Finite-difference validation of tape gradients for both objectives.

Central differences with step 1e-5 over randomly chosen parameter
coordinates, at desk scale (n=4, h=16, 20 integration steps, batch 8).
Because the tape differentiates the discrete map exactly, agreement must
hold at any step size.  Coordinates whose gradient is smaller than the
finite-difference noise floor are compared absolutely instead of
relatively.
"""

from __future__ import annotations

import numpy as np

from .flow import IntegratorConfig, nll_loss, variational_loss
from .potential import PotentialParams, init_params
from .targets import IsingEnergy, ising_spec

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-9
REL_SCALE_FLOOR = 1e-5


def central_difference(loss_fn, params, coord, h=FD_STEP):
    """(loss(theta + h e_j) - loss(theta - h e_j)) / 2h on the flat vector."""
    vec = params.to_vector()
    n, hid = params.n_dim, params.n_hidden
    up, dn = vec.copy(), vec.copy()
    up[coord] += h
    dn[coord] -= h
    lp = loss_fn(PotentialParams.from_vector(up, n, hid))
    lm = loss_fn(PotentialParams.from_vector(dn, n, hid))
    return (lp - lm) / (2.0 * h)


def compare_gradient(loss_and_grad, params, n_coords, rng):
    """Tape gradient vs central differences on n_coords random coordinates.

    Returns (max scaled relative error, number of coordinates checked).
    A coordinate passes outright when both sides agree within ABS_FLOOR.
    """
    loss_fn = lambda p: loss_and_grad(p, want_grad=False).value
    grad = loss_and_grad(params, want_grad=True).grad.to_vector()
    coords = rng.choice(params.size, size=min(n_coords, params.size), replace=False)
    worst = 0.0
    for j in coords:
        fd = central_difference(loss_fn, params, int(j))
        diff = abs(grad[j] - fd)
        if diff <= ABS_FLOOR:
            continue
        worst = max(worst, diff / max(abs(fd), abs(grad[j]), REL_SCALE_FLOOR))
    return worst, len(coords)


def run_gradcheck(seed=0, n_coords=20):
    """Both objectives at desk scale; returns the worst scaled relative error."""
    rng = np.random.default_rng(seed)
    n, hidden, steps, batch = 4, 16, 20, 8
    cfg = IntegratorConfig(0.1, steps)
    params = init_params(n, hidden, rng)
    # push away from the near-identity init so gradients are not degenerate
    params = PotentialParams(params.W, params.b, params.a * 3.0, 0.0)

    X = rng.standard_normal((batch, n)) * 1.3

    def nll(p, want_grad):
        return nll_loss(p, X, cfg, want_grad=want_grad)

    energy = IsingEnergy(ising_spec(2))
    noise_seed = int(rng.integers(2 ** 31))

    def varia(p, want_grad):
        return variational_loss(p, energy, batch, cfg,
                                np.random.default_rng(noise_seed), want_grad=want_grad)

    return max(compare_gradient(fn, params, n_coords, rng)[0] for fn in (nll, varia))
