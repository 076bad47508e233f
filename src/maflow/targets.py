"""Target densities and their analytic / brute-force oracles.

The continuous-variable Ising energy, which the variational loss trains
against, with its exact small-lattice partition function, and the
closed-form Gaussian flow under a quadratic potential used to validate the
integrator.  The training losses live in ``flow``, beside the integration
they record and reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .flow import LOG_2PI
from .potential import logistic

# standard square-lattice critical coupling, log(1 + sqrt(2)) / 2
CRITICAL_COUPLING = 0.5 * math.log(1.0 + math.sqrt(2.0))


# ---------------------------------------------------------------------------
# closed-form flow under a quadratic potential


class QuadraticPotential:
    """phi(x) = rate * |x|^2 / 2: drift rate*x, Laplacian rate*n, no parameters.

    Substituted for the network in integrator tests so integration error can
    be measured against the exact exponential solution.
    """

    def __init__(self, rate, n_dim):
        self.rate = float(rate)
        self.n_dim = int(n_dim)

    def begin_trajectory(self, rng):
        return None

    def grad_lap(self, X, ctx=None):
        return self.rate * X, np.full(X.shape[0], self.rate * self.n_dim)

    def vjp(self, X, w_grad, w_lap, ctx=None):
        return None, self.rate * w_grad

    def fingerprint(self):
        return b"quad:" + np.float64(self.rate).tobytes() + np.int64(self.n_dim).tobytes()


@dataclass(frozen=True)
class GaussianFlowSolution:
    """Exact 1-d flow under phi = rate * x^2 / 2 from a standard Gaussian.

    The density stays Gaussian with inverse width alpha(t) = exp(-rate * t);
    fluid parcels move as x(t) = exp(rate * t) * x(0).  Valid per coordinate
    for isotropic quadratic potentials in any dimension.
    """

    rate: float
    time: float

    def _exp(self, exponent):
        try:
            return math.exp(exponent)
        except OverflowError:
            raise NumericError(f"exact Gaussian flow overflows float64: exp({exponent!r}) at "
                               f"lambda*T = {self.rate * self.time!r}") from None

    @property
    def alpha(self):
        return self._exp(-self.rate * self.time)

    @property
    def scale(self):
        return self._exp(self.rate * self.time)

    def map(self, x0):
        return self.scale * np.asarray(x0, dtype=np.float64)

    def log_density(self, x):
        x = np.asarray(x, dtype=np.float64)
        return -self.rate * self.time - 0.5 * LOG_2PI - 0.5 * (self.alpha * x) ** 2


# ---------------------------------------------------------------------------
# continuous-variable Ising target


def _log_cosh(x):
    # |x| + log1p(exp(-2|x|)) - log 2, overflow-safe
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


@dataclass
class IsingSpec:
    """Offset coupling matrix of the periodic square-lattice Ising model.

    kplus = K + alpha*I where K couples nearest neighbors (bond weight beta,
    bonds doubling up on the L=2 torus) and alpha lifts the smallest
    eigenvalue to exactly 0.1 so the Gaussian decoupling is well defined.

    kplus is factored once, when the spec is built, by a Cholesky
    decomposition C C^T.  ``log_det`` reads the factor's diagonal, and
    ``solve`` multiplies by the cached read-only inverse C^-T C^-1: one GEMM
    per batch.  The eigenvalues of kplus lie in [0.1, 8 beta + 0.1], so its
    condition number is 80 beta + 1, about 36 at the critical coupling, and
    the inverse is as accurate as triangular solves.
    """

    side: int
    beta: float
    alpha: float
    kplus: np.ndarray
    _kinv: np.ndarray = field(init=False, repr=False, compare=False)
    _log_det: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        chol = np.linalg.cholesky(self.kplus)
        self._log_det = float(2.0 * np.sum(np.log(np.diag(chol))))
        chol_inv = np.linalg.inv(chol)
        self._kinv = chol_inv.T @ chol_inv
        self._kinv.flags.writeable = False

    @property
    def n_dim(self):
        return self.side * self.side

    def solve(self, Y):
        """kplus^{-1} y for rows of Y (or a single point), through the cached inverse."""
        return np.asarray(Y, dtype=np.float64) @ self._kinv

    def log_det(self):
        return self._log_det


def ising_spec(L, beta=CRITICAL_COUPLING):
    """Build the coupling for an L x L periodic lattice (L even, >= 2, 0 <= beta <= 1e6)."""
    L = int(L)
    if L < 2:
        raise ConfigError(f"lattice side must be at least 2, got {L}")
    if L % 2 != 0:
        raise ConfigError(
            f"odd lattice side {L} unsupported: the spectrum minimum sits at the "
            "(pi, pi) mode, which only exists for even sides")
    beta = float(beta)
    if not 0.0 <= beta <= 1e6:  # keeps the condition number of kplus, 80 beta + 1, far below 1/eps
        raise ConfigError(f"coupling beta must be in [0, 1e6], got {beta}")
    n = L * L
    idx = np.arange(n).reshape(L, L)
    K = np.zeros((n, n))
    for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        nb = np.roll(np.roll(idx, dr, axis=0), dc, axis=1)
        K[idx.ravel(), nb.ravel()] += beta
    # exact spectrum of the circulant coupling: 2 beta (cos k1 + cos k2)
    ks = 2.0 * np.pi * np.arange(L) / L
    lam = 2.0 * beta * (np.cos(ks)[:, None] + np.cos(ks)[None, :])
    alpha = 0.1 - float(lam.min())
    return IsingSpec(L, beta, alpha, K + alpha * np.eye(n))


def ising_energy(spec, x):
    """E(x) = x . kplus^{-1} x / 2 - sum_i log cosh x_i at a single point."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.n_dim,):
        raise ValueError(f"configuration shape {x.shape} does not match lattice {spec.n_dim}")
    return float(0.5 * (x @ spec.solve(x)) - _log_cosh(x).sum())


def ising_energy_grad(spec, x):
    """Analytic energy gradient kplus^{-1} x - tanh(x), for gradient checks."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.n_dim,):
        raise ValueError(f"configuration shape {x.shape} does not match lattice {spec.n_dim}")
    return spec.solve(x) - np.tanh(x)


class IsingEnergy:
    """Batch evaluator of the continuous Ising energy for the variational loss."""

    def __init__(self, spec):
        self.spec = spec

    @property
    def n_dim(self):
        return self.spec.n_dim

    def energy(self, X):
        X = np.asarray(X, dtype=np.float64)
        Y = self.spec.solve(X)
        return 0.5 * np.einsum("bj,bj->b", X, Y) - _log_cosh(X).sum(axis=1)

    def grad(self, X):
        X = np.asarray(X, dtype=np.float64)
        return self.spec.solve(X) - np.tanh(X)


ENUM_LIMIT = 4  # 2^16 spin states; beyond this exhaustive summation is pointless


def _check_enumerable(spec):
    if spec.side > ENUM_LIMIT:
        raise ConfigError(
            f"exhaustive enumeration is limited to side <= {ENUM_LIMIT}; for larger "
            "lattices use the Kaufman finite-lattice closed form, which this library "
            "does not implement")


def _spin_table(n):
    ints = np.arange(2 ** n, dtype=np.int64)
    bits = (ints[:, None] >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def enumerate_log_z_offset(spec):
    """ln sum_s exp(s . kplus s / 2) over all spin configurations (vectorized)."""
    _check_enumerable(spec)
    S = _spin_table(spec.n_dim)
    e = 0.5 * np.einsum("bj,bj->b", S @ spec.kplus, S)
    m = e.max()
    return float(m + np.log(np.sum(np.exp(e - m))))


def reference_log_z_offset(spec):
    """Independent enumeration: plain loop over states with a running log-sum-exp.

    Kept deliberately different from ``enumerate_log_z_offset`` (loop order,
    accumulation scheme) so the two implementations cross-check each other.
    """
    _check_enumerable(spec)
    n = spec.n_dim
    kp = spec.kplus
    m = -np.inf
    acc = 0.0
    for state in range(2 ** n):
        s = np.empty(n)
        for i in range(n):
            s[i] = 1.0 if (state >> i) & 1 else -1.0
        e = 0.5 * float(s @ (kp @ s))
        if e > m:
            acc = acc * math.exp(m - e) + 1.0 if math.isfinite(m) else 1.0
            m = e
        else:
            acc += math.exp(e - m)
    return m + math.log(acc)


def exact_neg_log_z(spec, enumerator=enumerate_log_z_offset):
    """-ln Z of the continuous model, exact at enumerable lattice sizes.

    Z = integral of exp(-E) over the continuous variables; relating it to the
    spin sum gives

        -ln Z = -ln Z_off - (1/2) ln det(kplus) + (N/2) ln(2/pi)

    with Z_off the offset-coupling spin partition sum.  This is the exact
    lower bound the variational loss can never cross.
    """
    _check_enumerable(spec)
    n = spec.n_dim
    lnz_off = enumerator(spec)
    return -lnz_off - 0.5 * spec.log_det() + 0.5 * n * math.log(2.0 / math.pi)


def ising_oracle_report(spec):
    """All quantities printed by the ising-oracle command, computed once."""
    lnz_off = enumerate_log_z_offset(spec)
    lnz_ref = reference_log_z_offset(spec)
    return {
        "alpha": spec.alpha,
        "log_det_kplus": spec.log_det(),
        "log_z_ising_offset": lnz_off,
        "log_z_ising": lnz_off - 0.5 * spec.n_dim * spec.alpha,
        "log_z_ising_offset_reference": lnz_ref,
        "enumeration_disagreement": abs(lnz_off - lnz_ref),
        "neg_log_z": exact_neg_log_z(spec, lambda _: lnz_off),
    }


def spin_sampler(x, rng):
    """Draw spins s_i = +1 with probability logistic(2 x_i), independently.

    Works on (n,) or (B, n); returns +-1.0 entries of the same shape.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.where(rng.random(x.shape) < logistic(2.0 * x), 1.0, -1.0)
