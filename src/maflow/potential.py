"""One-hidden-layer scalar potential with closed-form derivatives.

The potential is

    phi(x) = a . softplus(W x + b) + c

with x in R^n and h hidden units.  softplus is smooth, so the gradient
field and the Laplacian exist in closed form and cost O(h n) per point:

    grad phi(x) = W^T (a * s(z)),              z = W x + b,  s = logistic
    lap  phi(x) = sum_k a_k s'(z_k) |W_k|^2,   s' = s (1 - s)

No Hessian is ever materialized.  All math is float64.

Two evaluation paths exist on purpose.  ``eval_potential`` / ``eval_batch`` /
``param_vjp`` are the reference per-point kernels: they take the logistic from
scipy's ``expit``, and ``eval_batch`` loops rows through ``eval_potential`` so
batched and per-row results are bitwise equal.  ``MLPPotential`` is the
vectorized engine used inside the ODE integrator.  It computes the same
quantities through BLAS matmuls and in-place elementwise passes, with the
logistic written as ``1/2 + 1/2 tanh(z/2)`` (within 2.3e-16 absolute of
``expit`` on any z).  Reassociated sums and the different logistic make it
agree with the reference path to ~1e-12 absolute, not bitwise.  The engine
caches a_k W_k and a_k |W_k|^2 when it is built; parameters are read-only, so
the caches cannot go stale.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.special import expit

from .errors import NumericError


def softplus(z):
    """log(1 + exp(z)), overflow-safe for large |z|."""
    return np.logaddexp(0.0, z)


class PotentialParams:
    """Weights of phi(x) = a . softplus(W x + b) + c, held in one flat vector.

    The vector is C-contiguous float64, ``h n + 2 h + 1`` entries in the order
    (W row-major, b, a, c), and read-only: ``W`` (h, n), ``b`` (h,) and ``a``
    (h,) are views of it and ``c`` is its last entry, so writing into any of
    them raises ``ValueError`` and evaluators may cache what they derive from
    the weights.  Doubles as the container for parameter-space gradients.
    """

    def __init__(self, W, b, a, c=0.0):
        W = np.asarray(W, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError(f"W must be 2-d, got shape {W.shape}")
        h, n = W.shape
        for name, part in (("b", b), ("a", a)):
            if np.shape(part) != (h,):
                raise ValueError(f"{name} shape {np.shape(part)} inconsistent with W {W.shape}")
        vec = np.empty(vector_size(n, h))
        for view, part in zip(_split_vector(vec, h, n), (W, b, a, c)):
            view[...] = part
        self._adopt(vec, n, h)

    @classmethod
    def _wrap(cls, vec, n_dim, n_hidden):
        """Validate and hold ``vec`` read-only, uncopied: for float64 vectors just allocated."""
        return cls.__new__(cls)._adopt(vec, n_dim, n_hidden)

    def _adopt(self, vec, n_dim, n_hidden):
        if min(n_hidden, n_dim) < 1 or vec.shape != (vector_size(n_dim, n_hidden),):
            raise ValueError(f"vector of shape {vec.shape} does not hold h={n_hidden} hidden "
                             f"units and n={n_dim} inputs (need h, n >= 1)")
        vec.flags.writeable = False
        self._vec, parts = vec, _split_vector(vec, n_hidden, n_dim)
        self.W, self.b, self.a, self.c = *parts[:3], float(parts[3][0])
        self.n_hidden, self.n_dim, self.size = n_hidden, n_dim, vec.size
        if not np.isfinite(vec).all():
            k = int(np.flatnonzero(~np.isfinite(vec))[0])
            for name, part in zip("Wbac", parts):
                if k < part.size:
                    raise ValueError(f"non-finite entry in {name} at flat index {k}")
                k -= part.size
        return self

    def copy(self):
        return PotentialParams._wrap(self._vec.copy(), self.n_dim, self.n_hidden)

    def to_vector(self):
        """The flat read-only vector itself, order (W, b, a, c); no copy."""
        return self._vec

    @classmethod
    def from_vector(cls, vec, n_dim, n_hidden):
        """Validated parameters holding a copy of a to_vector()-ordered vector."""
        return cls._wrap(np.array(vec, dtype=np.float64), n_dim, n_hidden)

    def fingerprint(self):
        """Digest of shape and raw bytes; changes whenever any weight changes."""
        md = hashlib.sha1()
        md.update(np.array(self.W.shape, dtype=np.int64).tobytes())
        md.update(self._vec)
        return md.digest()


def vector_size(n_dim, n_hidden):
    """Length of the flat parameter vector of an (n_dim, n_hidden) potential."""
    return n_hidden * n_dim + 2 * n_hidden + 1


def _split_vector(vec, h, n):
    """Views of W (h, n), b (h,), a (h,) and c (1,) in a flat parameter vector.

    This is the one place that states the layout: W row-major, then b, a, c.
    """
    hn = h * n
    return vec[:hn].reshape(h, n), vec[hn:hn + h], vec[hn + h:hn + 2 * h], vec[hn + 2 * h:]


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

    Each kernel is a few BLAS products plus in-place elementwise passes over
    (B, h) buffers; neither builds an (h, n) temporary.  The logistic is
    ``1/2 + 1/2 tanh(z/2)`` (see ``_activations``), within 2.3e-16 absolute
    of the reference kernels' ``expit``.

    ``__init__`` caches |W_k|^2, a_k W_k and a_k |W_k|^2, once per
    evaluator, and ``fingerprint`` caches its digest on the first call.
    The wrapped ``PotentialParams`` are read-only, so the caches stay valid
    and the evaluator is stateless and safe to share.  Parameter gradients
    are flat vectors in the ``PotentialParams`` layout (W row-major, b, a, c).
    """

    trainable = True

    def __init__(self, params):
        self.params = params
        self._rowsq = np.einsum("kj,kj->k", params.W, params.W)
        self._aW = params.a[:, None] * params.W
        self._a_rowsq = params.a * self._rowsq
        self._fingerprint = None

    @property
    def n_dim(self):
        return self.params.n_dim

    @property
    def grad_size(self):
        return self.params.size

    def begin_trajectory(self, rng):
        """Stage contexts of one trajectory: none, every stage evaluates the same field."""
        return None

    def _activations(self, X):
        """S = s(X W^T + b), in place in the matmul's output.

        ``1/2 + 1/2 tanh(z/2)`` is the logistic through numpy's vectorized
        tanh; it cannot overflow for any finite or infinite z.
        """
        S = X @ self.params.W.T
        S += self.params.b
        S *= 0.5
        np.tanh(S, out=S)
        S *= 0.5
        S += 0.5
        return S

    def grad_lap(self, X, ctx=None):
        """Gradient field and Laplacian for every row of X.

        Returns (grad (B, n), lap (B,), aux); aux carries the hidden-layer
        activations for reuse in ``vjp`` on the reverse pass.
        """
        S = self._activations(X)
        G = S @ self._aW
        Sp = S * S
        np.subtract(S, Sp, out=Sp)      # s' = s (1 - s)
        return G, Sp @ self._a_rowsq, S

    def vjp(self, X, w_grad, w_lap, ctx=None, aux=None):
        """Batch-accumulated derivatives of sum_i [w_grad_i . grad_i + w_lap_i * lap_i].

        Returns (flat parameter gradient in to_vector() order, per-row x
        cotangents (B, n)).  ``aux`` may carry activations saved by
        ``grad_lap``; otherwise they are recomputed.  ``aux`` is only read.
        """
        p = self.params
        W, a, rowsq = p.W, p.a, self._rowsq
        h, n = W.shape
        B = X.shape[0]
        S = aux if aux is not None else self._activations(X)
        Sp = S * S
        np.subtract(S, Sp, out=Sp)      # s'
        U = w_grad @ W.T
        t2 = w_lap @ Sp

        flat = np.empty(p.size)
        dW, db, da, dc = _split_vector(flat, h, n)
        dc[0] = 0.0                     # c never enters grad or lap
        np.einsum("bk,bk->k", S, U, out=da)
        da += t2 * rowsq

        # rows :B hold a * dF/dz = a s' (U + w_lap (1 - 2s) |W_k|^2), rows B: hold a * s
        L = np.empty((2 * B, h))
        aBm, aS = L[:B], L[B:]
        np.multiply(S, -2.0 * rowsq, out=aBm)
        aBm += rowsq
        aBm *= w_lap[:, None]
        aBm += U
        aBm *= Sp
        aBm *= a
        np.multiply(S, a, out=aS)
        np.sum(aBm, axis=0, out=db)
        dX = aBm @ W

        # dW = 2 a t2 W + [a Bm; a s]^T [X; w_grad], accumulated in place by one GEMM
        np.multiply(W, (2.0 * a * t2)[:, None], out=dW)
        R = np.concatenate([X, w_grad])
        dgemm(1.0, R.T, L.T, beta=1.0, c=dW.T, trans_b=1, overwrite_c=1)
        return flat, dX

    def grad_to_params(self, flat):
        """The flat gradient as read-only PotentialParams viewing ``flat``, without a copy."""
        return PotentialParams._wrap(flat, self.n_dim, self.params.n_hidden)

    def fingerprint(self):
        """Digest of the wrapped parameters, hashed on the first call only."""
        if self._fingerprint is None:
            self._fingerprint = b"mlp:" + self.params.fingerprint()
        return self._fingerprint
