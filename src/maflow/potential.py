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
``logistic``, ``exp(-log(1 + exp(-z)))``, and ``eval_batch`` loops rows
through ``eval_potential`` so batched and per-row results are bitwise equal.
``MLPPotential`` is the vectorized engine used inside the ODE integrator.  It
computes the same quantities through BLAS matmuls and in-place elementwise
passes, in t = tanh((z + b)/2): the logistic is s = (1 + t)/2 (within 2.3e-16
absolute of ``logistic`` on any z) and s' = (1 - t^2)/4.  Reassociated sums
and the different logistic make it agree with the reference path to ~1e-12
absolute, not bitwise.  The engine caches (a_k/2) W_k and its sum over k,
q_k = a_k |W_k|^2 / 4 and its sum, |W_k|^2 and -2 |W_k|^2 when it is built;
parameters are read-only, so the caches cannot go stale.

``MLPPotential.grad_lap`` returns no activations to keep: ``vjp`` recomputes
t from X, with the forward pass's own operations, in the same GEMM as its
U = w_grad W^T (one product over the stack [X; w_grad]), so the tape of a
trajectory holds no (B, h) array and the recomputed t is bitwise the
forward pass's.

``MLPPotential.vjp`` returns its parameter gradient as a ``ParamGrad``: the
(h, n) block dW stays factored as L^T R plus a term linear in W until
``to_vector``, so the reverse pass sums one dense dW over a whole trajectory
instead of building one per RK4 stage.

Every kernel here runs whole on the thread that calls it.  The one place
that uses a second core is ``flow``, which runs a batch's row parts as
separate trajectories, one in a standing worker process; ``flow`` alone
decides how an evaluator crosses to it.  ``PotentialParams`` pickle as
their vector alone, validated and read-only where they unpickle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

def softplus(z):
    """log(1 + exp(z)), overflow-safe for large |z|."""
    return np.logaddexp(0.0, z)


def logistic(z):
    """1 / (1 + exp(-z)) as exp(-softplus(-z)): no overflow and no warning for any z."""
    return np.exp(-np.logaddexp(0.0, -z))


class PotentialParams:
    """Weights of phi(x) = a . softplus(W x + b) + c, held in one flat vector.

    The vector is C-contiguous float64, ``h n + 2 h + 1`` entries in the order
    (W row-major, b, a, c), and read-only: ``W`` (h, n), ``b`` (h,) and ``a``
    (h,) are views of it and ``c`` is its last entry, so writing into any of
    them raises ``ValueError`` and evaluators may cache what they derive from
    the weights.  The reference ``param_vjp`` returns its gradient in one.
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
    def wrap(cls, vec, n_dim, n_hidden):
        """Validated parameters holding ``vec`` itself, made read-only: no copy, so only for a
        float64 vector of the ``to_vector`` layout that no one else writes."""
        return cls.__new__(cls)._adopt(vec, n_dim, n_hidden)

    def _adopt(self, vec, n_dim, n_hidden):
        if min(n_hidden, n_dim) < 1 or vec.shape != (vector_size(n_dim, n_hidden),):
            raise ValueError(f"vector of shape {vec.shape} does not hold h={n_hidden} hidden "
                             f"units and n={n_dim} inputs (need h, n >= 1)")
        vec.flags.writeable = False
        self._vec, parts = vec, _split_vector(vec, n_hidden, n_dim)
        self.W, self.b, self.a, self.c = *parts[:3], float(parts[3][0])
        self.n_hidden, self.n_dim, self.size = n_hidden, n_dim, vec.size
        self._fingerprint = None
        if not np.isfinite(vec).all():
            k = int(np.flatnonzero(~np.isfinite(vec))[0])
            for name, part in zip("Wbac", parts):
                if k < part.size:
                    raise ValueError(f"non-finite entry in {name} at flat index {k}")
                k -= part.size
        return self

    def __reduce__(self):
        # pickled as the vector alone, validated and made read-only again where it unpickles
        return PotentialParams.wrap, (self._vec, self.n_dim, self.n_hidden)

    def copy(self):
        return PotentialParams.wrap(self._vec.copy(), self.n_dim, self.n_hidden)

    def to_vector(self):
        """The flat read-only vector itself, order (W, b, a, c); no copy."""
        return self._vec

    @classmethod
    def from_vector(cls, vec, n_dim, n_hidden):
        """Validated parameters holding a copy of a to_vector()-ordered vector."""
        return cls.wrap(np.array(vec, dtype=np.float64), n_dim, n_hidden)

    def fingerprint(self):
        """Digest of shape and raw bytes, hashed on the first call only: the vector is read-only."""
        if self._fingerprint is None:
            md = hashlib.sha1()
            md.update(np.array(self.W.shape, dtype=np.int64).tobytes())
            md.update(self._vec)
            self._fingerprint = md.digest()
        return self._fingerprint


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
    s = logistic(z)
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
    s = logistic(z)
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
    (B, h) and (2B, h) buffers: ``grad_lap`` makes four over one (B, h)
    buffer.  ``vjp`` builds no (h, n)-shaped array: its parameter gradient
    is a ``ParamGrad`` that holds dW as factors, and ``ParamGrad.to_vector``
    builds the flat vector in the ``PotentialParams`` layout (W row-major,
    b, a, c).  Both kernels work from t = tanh((z + b)/2) (see ``_squash``);
    the logistic (1 + t)/2 is within 2.3e-16 absolute of the reference
    kernels' ``logistic``.

    ``vjp`` takes no activations from ``grad_lap``: it recomputes t through
    one stacked product [X; w_grad] W^T and the same three passes, bitwise
    equal to the forward pass's t, and maps it to s.

    ``__init__`` caches (a_k/2) W_k, its sum over k, q_k = a_k |W_k|^2 / 4,
    its sum, |W_k|^2 and -2 |W_k|^2, once per evaluator.  The wrapped
    ``PotentialParams`` are read-only, so the caches stay valid and the
    evaluator is stateless and safe to share.
    ``fingerprint`` is the parameters' digest, which they cache, so the
    evaluator keeps no digest of its own.
    """

    def __init__(self, params):
        self.params = params
        # huge weights overflow here silently: the flow then aborts on its non-finite field
        with np.errstate(over="ignore", invalid="ignore"):
            self._rowsq = np.einsum("kj,kj->k", params.W, params.W)
            self._m2rowsq = -2.0 * self._rowsq
            self._half_aW = (0.5 * params.a)[:, None] * params.W
            self._half_aW_sum = self._half_aW.sum(axis=0)
            self._q = 0.25 * params.a * self._rowsq
            self._q_sum = self._q.sum()

    @property
    def n_dim(self):
        return self.params.n_dim

    def begin_trajectory(self, rng):
        """Stage contexts of one trajectory: none, every stage evaluates the same field."""
        return None

    def _squash(self, Z):
        """t = tanh((Z + b)/2) in place in Z, for Z a product X W^T.

        The logistic is s = (1 + t)/2 and s' = s (1 - s) = (1 - t^2)/4.
        numpy's vectorized tanh cannot overflow for any finite or infinite
        input.  ``grad_lap`` and ``vjp`` both take t from here, so the
        reverse pass's activations are bitwise the forward pass's.
        """
        Z += self.params.b
        Z *= 0.5
        np.tanh(Z, out=Z)
        return Z

    def grad_lap(self, X, ctx=None):
        """Gradient field (B, n) and Laplacian (B,) for every row of X.

        With t = tanh((z + b)/2), G = t (a/2) W + sum_k (a_k/2) W_k and
        lap = sum_k q_k - t^2 q, q_k = a_k |W_k|^2 / 4: four elementwise
        passes over one (B, h) buffer.  Nothing is kept for the reverse
        pass: ``vjp`` recomputes t from X.
        """
        T = self._squash(X @ self.params.W.T)
        G = T @ self._half_aW
        G += self._half_aW_sum
        T *= T
        lap = T @ self._q
        return G, np.subtract(self._q_sum, lap, out=lap)

    def vjp(self, X, w_grad, w_lap, ctx=None, aux=None):
        """Batch-accumulated derivatives of sum_i [w_grad_i . grad_i + w_lap_i * lap_i].

        Returns (``ParamGrad``, per-row x cotangents (B, n)).  The parameter
        gradient stays factored until ``ParamGrad.to_vector``.  The
        activations are recomputed: one GEMM gives [X; w_grad] W^T, whose
        rows :B become t through the same passes as in ``grad_lap``, then
        s = (1 + t)/2, and whose rows B: are U = w_grad W^T.
        """
        if aux is not None:
            # compatibility keyword for perfbench's TimingProxy; removed with
            # benchmark v2 (ROADMAP direction 1)
            raise ValueError("vjp recomputes the activations; aux must be None")
        p = self.params
        W, a, rowsq = p.W, p.a, self._rowsq
        B, h = X.shape[0], p.n_hidden
        R = np.concatenate([X, w_grad])
        ZU = R @ W.T
        S, U = self._squash(ZU[:B]), ZU[B:]
        S *= 0.5
        S += 0.5                        # s = (1 + t)/2
        # rows :B of L become a * dF/dz = a s' (U + w_lap (1 - 2s) |W_k|^2) and rows B: a * s;
        # rows B: hold s' until a * s is written there, last
        L = np.empty((2 * B, h))
        aBm, aS = L[:B], L[B:]
        Sp = np.multiply(S, S, out=aS)
        np.subtract(S, Sp, out=Sp)      # s'
        sums = np.empty((3, h))         # db, da, t2
        db, da, t2 = sums
        np.matmul(w_lap, Sp, out=t2)
        np.einsum("bk,bk->k", S, U, out=da)
        da += t2 * rowsq

        np.multiply(S, self._m2rowsq, out=aBm)
        aBm += rowsq
        aBm *= w_lap[:, None]
        aBm += U
        aBm *= Sp
        aBm *= a
        np.multiply(S, a, out=aS)
        np.sum(aBm, axis=0, out=db)
        dX = aBm @ W
        return ParamGrad(p, L, R, sums), dX

    def fingerprint(self):
        """Digest of the wrapped parameters, whose own digest is cached."""
        return b"mlp:" + self.params.fingerprint()


def as_potential(obj):
    """Coerce raw parameters into an evaluator; pass evaluators through."""
    if isinstance(obj, PotentialParams):
        return MLPPotential(obj)
    if hasattr(obj, "grad_lap") and hasattr(obj, "vjp"):
        return obj
    raise TypeError(f"not a potential evaluator: {type(obj)!r}")


# ---------------------------------------------------------------------------
# factored parameter gradients


# doubles in ParamGrad's scratch buffer (512 KB).  Each block's GEMM packs R again, and the
# first fold adds into zeros: it took 4.8 ms, against 4.0 ms for one GEMM straight into dW,
# at n = 784, h = 1024, 2B = 100 (one BLAS thread, 2 vCPUs, median of 5 rounds of 80 calls)
_BLOCK_DOUBLES = 2 ** 16


class ParamGrad:
    """Parameter gradient of one or more ``MLPPotential.vjp`` calls, summed lazily.

    One call's gradient is dW = L^T R + 2 a t2 W with L = [a Bm; a s] (2B, h)
    and R = [X; w_grad] (2B, n), plus db, da and dc = 0.  The call's
    ParamGrad holds L, R and ``sums``, one (3, h) array whose rows are db,
    da and t2, and no (h, n) array.

    ``add`` sums db, da and t2 in one pass and folds each product L^T R into one
    dense dW, in the order of the ``add`` calls; adding a sum folds its dW
    in place, and ``dense`` / ``add_dense`` carry a sum from another process.
    The term is linear in t2, so ``to_vector`` adds 2 a (sum t2) W once,
    after every product.

    dW starts as zeros, and every product and the term are added to it in
    row blocks of max(1, 2^16 // n) rows through one scratch buffer of at
    most that many rows (512 KB), so a sum never holds a second (h, n)
    array.  The first product, added into zeros in blocks, costs about 1 ms
    more than one GEMM at n = 784, h = 1024 (see ``_BLOCK_DOUBLES``).  A
    block's rows of L^T R are bitwise the whole product's at the benchmark
    shapes, and whenever h <= 2^16 // n makes one block.  Otherwise OpenBLAS
    may round them differently, as 0.3.31 does in the last four columns when
    n is not a multiple of 8, and in a last block of one row.
    """

    def __init__(self, params, L, R, sums):
        self._params = params
        self._factors = (L, R)      # this call's product, until it is folded
        self._flat = None           # the result vector, allocated by the first fold
        self._dW = None             # its (h, n) view, which sums the folded products
        self._scratch = None        # (rows, n) buffer for the blocks added to dW
        self._vector = None
        self.sums = sums            # (3, h): rows db, da and t2
        self.db, self.da, self.t2 = sums

    def add(self, other):
        """Fold ``other``, a gradient of the same parameters, into this sum; returns self."""
        if self._vector is not None or other._vector is not None:
            raise ValueError("cannot add to or from a materialized gradient")
        if other._params is not self._params:
            raise ValueError("cannot add gradients of different parameters")
        if other._factors is None:
            return self.add_dense(other.sums, other._flat)
        self.sums += other.sums
        self._fold_own()
        self._fold(*other._factors)
        return self

    def dense(self):
        """(sums, flat) of this sum, every product folded: its (3, h) rows db, da and t2, and the
        flat vector whose dW block sums the products; ``add_dense`` of another sum takes them."""
        self._fold_own()
        return self.sums, self._flat

    def add_dense(self, sums, flat):
        """Fold another sum of the same parameters, given as its ``dense()``, into this one;
        returns self.  Addition commutes, so the bits are those of the other sum's ``add`` of
        this one."""
        if self._vector is not None:
            raise ValueError("cannot add to a materialized gradient")
        self.sums += sums
        self._fold_own()
        self._flat += flat
        return self

    def to_vector(self):
        """The flat gradient in ``PotentialParams`` order (W row-major, b, a, c), read-only.

        Materializes the sum on the first call and returns the same vector
        on later ones; the gradient then takes no more ``add``.
        """
        if self._vector is None:
            self._fold_own()
            p = self._params
            coef = 2.0 * p.a * self.t2
            self._add_blocks(lambda rows, out: np.multiply(p.W[rows], coef[rows, None], out=out))
            _, db, da, _ = _split_vector(self._flat, *p.W.shape)
            db[...], da[...] = self.db, self.da     # dc stays 0: c never enters grad or lap
            self._flat.flags.writeable = False
            # keep only the vector: a caller may hold the gradient past the parameters
            self._vector, self._params, self._scratch = self._flat, None, None
        return self._vector

    def _fold_own(self):
        if self._factors is not None:
            factors, self._factors = self._factors, None
            self._fold(*factors)

    def _fold(self, L, R):
        self._add_blocks(lambda rows, out: np.matmul(L[:, rows].T, R, out=out))

    def _add_blocks(self, block):
        """dW[rows] += the scratch rows that ``block(rows, out)`` writes, for each row block."""
        h, n = self._params.W.shape
        size = max(1, _BLOCK_DOUBLES // n)
        if self._flat is None:
            self._flat = np.zeros(self._params.size)
            self._dW = _split_vector(self._flat, h, n)[0]
            self._scratch = np.empty((min(size, h), n))
        for k in range(0, h, size):
            out = self._scratch[:min(size, h - k)]
            block(slice(k, k + size), out)
            self._dW[k:k + size] += out
