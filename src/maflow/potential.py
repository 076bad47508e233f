"""One-hidden-layer scalar potential with closed-form derivatives.

The potential is

    phi(x) = a . softplus(W x + b) + c

with x in R^n and h hidden units.  softplus is smooth, so the gradient
field and the Laplacian exist in closed form and cost O(h n) per point:

    grad phi(x) = W^T (a * s(z)),              z = W x + b,  s = logistic
    lap  phi(x) = sum_k a_k s'(z_k) |W_k|^2,   s' = s (1 - s)

No Hessian is ever materialized.  All math is float64.

Two evaluation paths exist on purpose.  ``eval_potential`` / ``eval_batch`` /
``param_vjp`` are the reference per-point kernels: ``eval_batch`` loops rows
through ``eval_potential`` so batched and per-row results are bitwise equal.
``MLPPotential`` is the vectorized engine used inside the ODE integrator; it
computes the same quantities through BLAS matmuls, which reassociate sums and
therefore agree with the reference path only to ~1e-13 relative.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import NumericError


def softplus(z):
    """log(1 + exp(z)), overflow-safe for large |z|."""
    return np.logaddexp(0.0, z)


@dataclass
class PotentialParams:
    """Weights of phi(x) = a . softplus(W x + b) + c.

    Doubles as the container for parameter-space gradients, which have the
    same shape.  Shapes: W (h, n), b (h,), a (h,), c scalar.
    """

    W: np.ndarray
    b: np.ndarray
    a: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        self.W = np.ascontiguousarray(self.W, dtype=np.float64)
        self.b = np.ascontiguousarray(self.b, dtype=np.float64)
        self.a = np.ascontiguousarray(self.a, dtype=np.float64)
        self.c = float(self.c)
        if self.W.ndim != 2:
            raise ValueError(f"W must be 2-d, got shape {self.W.shape}")
        h, n = self.W.shape
        if h < 1 or n < 1:
            raise ValueError(f"need at least one hidden unit and one input, got W {self.W.shape}")
        if self.b.shape != (h,):
            raise ValueError(f"b shape {self.b.shape} inconsistent with W {self.W.shape}")
        if self.a.shape != (h,):
            raise ValueError(f"a shape {self.a.shape} inconsistent with W {self.W.shape}")
        for name, arr in (("W", self.W), ("b", self.b), ("a", self.a)):
            if not np.isfinite(arr).all():
                k = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise ValueError(f"non-finite entry in {name} at flat index {k}")
        if not np.isfinite(self.c):
            raise ValueError("non-finite c")

    @property
    def n_hidden(self):
        return self.W.shape[0]

    @property
    def n_dim(self):
        return self.W.shape[1]

    @property
    def size(self):
        h, n = self.W.shape
        return h * n + 2 * h + 1

    def copy(self):
        return PotentialParams(self.W.copy(), self.b.copy(), self.a.copy(), self.c)

    def to_vector(self):
        """Flatten to one float64 vector, order (W, b, a, c)."""
        return np.concatenate([self.W.ravel(), self.b, self.a, [self.c]])

    @classmethod
    def from_vector(cls, vec, n_dim, n_hidden):
        vec = np.asarray(vec, dtype=np.float64)
        h, n = n_hidden, n_dim
        if vec.shape != (h * n + 2 * h + 1,):
            raise ValueError(f"vector length {vec.shape} does not match (h={h}, n={n})")
        W = vec[: h * n].reshape(h, n)
        b = vec[h * n : h * n + h]
        a = vec[h * n + h : h * n + 2 * h]
        return cls(W.copy(), b.copy(), a.copy(), float(vec[-1]))

    def fingerprint(self):
        """Digest of shapes and raw bytes; changes whenever any weight changes."""
        md = hashlib.sha1()
        md.update(np.array(self.W.shape, dtype=np.int64).tobytes())
        md.update(self.W.tobytes())
        md.update(self.b.tobytes())
        md.update(self.a.tobytes())
        md.update(np.float64(self.c).tobytes())
        return md.digest()


@dataclass
class PotentialEval:
    """Value, gradient and Laplacian of the potential at one point (or a batch)."""

    value: float | np.ndarray
    grad: np.ndarray
    laplacian: float | np.ndarray


def init_params(n_dim, n_hidden, rng):
    """Near-identity initialization: W, a ~ U(-s, s) with s = 1/sqrt(fan-in), b = c = 0.

    Small initial weights keep the velocity field of the flow small, so the
    integrator starts as a small perturbation of the identity map.
    """
    s_w = 1.0 / np.sqrt(n_dim)
    s_a = 1.0 / np.sqrt(n_hidden)
    W = rng.uniform(-s_w, s_w, size=(n_hidden, n_dim))
    a = rng.uniform(-s_a, s_a, size=n_hidden)
    return PotentialParams(W, np.zeros(n_hidden), a, 0.0)


def _check_point(x, n_dim):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n_dim,):
        raise ValueError(f"point shape {x.shape} does not match potential dimension {n_dim}")
    return x


def eval_potential(params, x):
    """Value, gradient and Laplacian of phi at a single point x (shape (n,))."""
    x = _check_point(x, params.n_dim)
    z = params.W @ x + params.b
    s = expit(z)
    value = float(params.a @ softplus(z) + params.c)
    grad = params.W.T @ (params.a * s)
    rowsq = np.einsum("kj,kj->k", params.W, params.W)
    laplacian = float((params.a * s * (1.0 - s)) @ rowsq)
    if not np.isfinite(grad).all():
        k = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericError(f"non-finite potential gradient at coordinate {k}")
    if not (np.isfinite(value) and np.isfinite(laplacian)):
        raise NumericError("non-finite potential value or Laplacian")
    return PotentialEval(value, grad, laplacian)


def eval_batch(params, X):
    """Row-wise evaluation of a batch X (shape (B, n)).

    Deliberately loops through ``eval_potential`` so that the result is
    bitwise identical to evaluating each row on its own.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.n_dim:
        raise ValueError(f"batch shape {X.shape} does not match potential dimension {params.n_dim}")
    rows = [eval_potential(params, X[i]) for i in range(X.shape[0])]
    return PotentialEval(
        np.array([r.value for r in rows]),
        np.stack([r.grad for r in rows]) if rows else np.zeros((0, params.n_dim)),
        np.array([r.laplacian for r in rows]),
    )


def param_vjp(params, x, w_grad, w_lap):
    """Derivatives of F = w_grad . grad phi(x) + w_lap * lap phi(x).

    Returns (dparams, dx): dparams is a PotentialParams-shaped gradient over
    (W, b, a, c) and dx the derivative of the same scalar with respect to x.
    The c component is always zero since c never enters grad or lap.
    """
    x = _check_point(x, params.n_dim)
    w_grad = _check_point(w_grad, params.n_dim)
    w_lap = float(w_lap)
    W, b, a = params.W, params.b, params.a
    z = W @ x + b
    s = expit(z)
    sp = s * (1.0 - s)
    spp = sp * (1.0 - 2.0 * s)
    u = W @ w_grad
    rowsq = np.einsum("kj,kj->k", W, W)
    # common factor of the z-dependence: d/dz_k [s_k u_k + w_lap sp_k r_k]
    t = sp * u + w_lap * spp * rowsq
    da = s * u + w_lap * sp * rowsq
    db = a * t
    dW = a[:, None] * (t[:, None] * x[None, :] + s[:, None] * w_grad[None, :]
                       + 2.0 * w_lap * sp[:, None] * W)
    dx = W.T @ (a * t)
    return PotentialParams(dW, db, da, 0.0), dx


# ---------------------------------------------------------------------------
# vectorized engine


class MLPPotential:
    """Batch evaluator for the network potential, used by the flow integrator.

    Stateless apart from cached row norms of W; safe to share across callers
    as long as nobody mutates the underlying parameter arrays.
    """

    trainable = True

    def __init__(self, params):
        self.params = params
        self._rowsq = np.einsum("kj,kj->k", params.W, params.W)

    @property
    def n_dim(self):
        return self.params.n_dim

    @property
    def grad_size(self):
        return self.params.size

    def begin_trajectory(self, rng):
        """Stage contexts of one trajectory: none, every stage evaluates the same field."""
        return None

    def grad_lap(self, X, ctx=None):
        """Gradient field and Laplacian for every row of X.

        Returns (grad (B, n), lap (B,), aux); aux carries the hidden-layer
        activations for reuse in ``vjp`` on the reverse pass.
        """
        p = self.params
        Z = X @ p.W.T + p.b
        S = expit(Z)
        G = (p.a * S) @ p.W
        lap = (p.a * (S * (1.0 - S))) @ self._rowsq
        return G, lap, S

    def vjp(self, X, w_grad, w_lap, ctx=None, aux=None):
        """Batch-accumulated derivatives of sum_i [w_grad_i . grad_i + w_lap_i * lap_i].

        Returns (flat parameter gradient in to_vector() order, per-row x
        cotangents (B, n)).  ``aux`` may carry activations saved by
        ``grad_lap``; otherwise they are recomputed.
        """
        p = self.params
        W, a = p.W, p.a
        S = aux if aux is not None else expit(X @ W.T + p.b)
        Sp = S * (1.0 - S)
        U = w_grad @ W.T
        A1 = Sp * U
        A2 = w_lap[:, None] * (Sp * (1.0 - 2.0 * S))
        Bm = A1 + A2 * self._rowsq[None, :]
        t2 = Sp.T @ w_lap
        da = np.einsum("bk,bk->k", S, U) + t2 * self._rowsq
        db = a * Bm.sum(axis=0)
        dW = a[:, None] * (Bm.T @ X + S.T @ w_grad + 2.0 * W * t2[:, None])
        dX = (a[None, :] * Bm) @ W
        flat = np.concatenate([dW.ravel(), db, da, [0.0]])
        return flat, dX

    def grad_to_params(self, flat):
        return PotentialParams.from_vector(flat, self.params.n_dim, self.params.n_hidden)

    def fingerprint(self):
        return b"mlp:" + self.params.fingerprint()
