"""Symmetry groups on lattice configurations and symmetrized potentials.

Group elements are a global sign times an index permutation, applied as
(g x)_i = sign * x[perm[i]].  These are orthogonal maps, so pulling a
gradient back through an element is just the inverse element applied to the
gradient, and the Laplacian is invariant.

``SymmetrizedPotential`` averages a base potential over a group, either
exactly (every element) or stochastically (one element drawn per
integration step, the default, or per stage / per trajectory).  Like every
evaluator, it is a pure function of the points and a stage context; the
sampled element indices come from ``begin_trajectory(rng)``, which the
integrator calls once per trajectory and records on the tape.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .potential import MLPPotential, PotentialEval, eval_potential


@dataclass(eq=False)
class GroupElement:
    perm: np.ndarray  # (n,) int64 bijection on 0..n-1
    sign: int          # +1 or -1

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=np.int64)
        self.sign = int(self.sign)
        if self.sign not in (-1, 1):
            raise ConfigError(f"element sign must be +1 or -1, got {self.sign}")
        n = self.perm.shape[0]
        if self.perm.ndim != 1 or not np.array_equal(np.sort(self.perm), np.arange(n)):
            raise ConfigError("element permutation is not a bijection on 0..n-1")
        self.perm.setflags(write=False)

    def key(self):
        return (self.sign, self.perm.tobytes())

    @property
    def n_dim(self):
        return self.perm.shape[0]


def apply(g, x):
    """Apply one element: (g x)_i = sign * x[perm[i]].  Works on (n,) or (B, n)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != g.n_dim:
        raise ConfigError(f"configuration has {x.shape[-1]} sites, element acts on {g.n_dim}")
    return g.sign * x[..., g.perm]


def inverse(g):
    return GroupElement(np.argsort(g.perm), g.sign)


def compose(g1, g2):
    """Element performing g2 first, then g1."""
    return GroupElement(g2.perm[g1.perm], g1.sign * g2.sign)


def identity(n_dim):
    return GroupElement(np.arange(n_dim), 1)


class SymmetryGroup:
    """Immutable, enumerable set of elements; the identity must be present."""

    def __init__(self, elements):
        if not elements:
            raise ConfigError("a symmetry group needs at least the identity element")
        n = elements[0].n_dim
        if any(e.n_dim != n for e in elements):
            raise ConfigError("group elements act on different dimensions")
        ident = identity(n)
        if not any(e.key() == ident.key() for e in elements):
            raise ConfigError("group does not contain the identity element")
        self.elements = list(elements)
        self.n_dim = n
        self.perms = np.stack([e.perm for e in elements])
        self.inv_perms = np.stack([np.argsort(e.perm) for e in elements])
        self.signs = np.array([e.sign for e in elements])
        for arr in (self.perms, self.inv_perms, self.signs):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def key(self):
        md = hashlib.sha1()
        md.update(self.perms.tobytes())
        md.update(self.signs.tobytes())
        return md.digest()


def trivial_group(n_dim):
    return SymmetryGroup([identity(n_dim)])


def z2_group(n_dim):
    """Global sign flip and the identity."""
    return SymmetryGroup([identity(n_dim), GroupElement(np.arange(n_dim), -1)])


def _d4_source_maps(L):
    # output (r, c) <- source coordinates, for the 8 square symmetries
    m = L - 1
    return [
        lambda r, c: (r, c),
        lambda r, c: (c, m - r),          # 90 degree rotation
        lambda r, c: (m - r, m - c),      # 180
        lambda r, c: (m - c, r),          # 270
        lambda r, c: (r, m - c),          # horizontal flip
        lambda r, c: (m - r, c),          # vertical flip
        lambda r, c: (c, r),              # transpose
        lambda r, c: (m - c, m - r),      # anti-transpose
    ]


def d4_group(L):
    """The 8 point-group permutations of an L x L grid (sign +1), identity first."""
    rr, cc = np.divmod(np.arange(L * L), L)
    out = []
    for f in _d4_source_maps(L):
        sr, sc = f(rr, cc)
        out.append(GroupElement(sr * L + sc, 1))
    return out


def ising_group(L):
    """Sign flips x translations x square point group for an L x L periodic lattice.

    The naive product has 2 * L^2 * 8 members; coincident (perm, sign) pairs
    (which occur for small L, where e.g. the 180-degree rotation is also a
    translation) are removed, keeping the first occurrence in enumeration
    order.  The identity comes first.
    """
    if L < 2:
        raise ConfigError(f"lattice side must be at least 2, got {L}")
    rr, cc = np.divmod(np.arange(L * L), L)
    seen = set()
    elements = []
    for sign in (1, -1):
        for tr in range(L):
            for tc in range(L):
                tr_r = (rr + tr) % L
                tr_c = (cc + tc) % L
                for f in _d4_source_maps(L):
                    sr, sc = f(tr_r, tr_c)
                    e = GroupElement(sr * L + sc, sign)
                    k = e.key()
                    if k not in seen:
                        seen.add(k)
                        elements.append(e)
    return SymmetryGroup(elements)


def group_by_name(name, n_dim):
    """Resolve the config-file group names."""
    if name == "none":
        return None
    if name == "z2":
        return z2_group(n_dim)
    if name == "ising-full":
        L = int(round(np.sqrt(n_dim)))
        if L * L != n_dim:
            raise ConfigError(f"'ising-full' needs a square lattice, got dimension {n_dim}")
        return ising_group(L)
    raise ConfigError(f"unknown symmetry group '{name}' (choose none, z2, ising-full)")


def symmetrized_eval(params, group, x, mode="average", rng=None):
    """Evaluate the group-averaged potential at a single point.

    mode='average' returns (1/|G|) sum_g phi(g x) with the chain rule applied
    to the gradient; mode='sampled' evaluates a single uniformly drawn term.
    """
    if group is None or len(group) == 0:
        raise ConfigError("symmetrized evaluation needs a non-empty group")
    if mode == "sampled":
        if rng is None:
            raise ConfigError("sampled mode needs a random generator")
        members = [group[int(rng.integers(len(group)))]]
    elif mode == "average":
        members = list(group)
    else:
        raise ConfigError(f"unknown mode '{mode}'")

    value = 0.0
    grad = np.zeros(group.n_dim)
    lap = 0.0
    for g in members:
        ev = eval_potential(params, apply(g, x))
        value += ev.value
        grad += apply(inverse(g), ev.grad)
        lap += ev.laplacian
    m = float(len(members))
    return PotentialEval(value / m, grad / m, lap / m)


class SymmetrizedPotential:
    """Group-averaged wrapper around a base evaluator.

    mode='average' evaluates every element (exactly invariant, |G| times the
    cost).  mode='sampled' evaluates one element per stage, chosen by the
    stage context: ``begin_trajectory(rng)`` returns the schedule of element
    indices for one trajectory, drawn lazily from ``rng`` -- one draw per
    integration step (resample='step', the default), per stage, or per
    trajectory.  The integrator records each stage's index on the tape, so
    the reverse pass differentiates the computation that actually ran.

    The evaluator holds no per-call state: ``grad_lap`` and ``vjp`` are pure
    functions of their arguments and the context, so one evaluator can serve
    nested or interleaved integrations.
    """

    def __init__(self, base, group, mode="average", resample="step"):
        if group is None or len(group) == 0:
            raise ConfigError("symmetrized potential needs a non-empty group")
        if mode not in ("average", "sampled"):
            raise ConfigError(f"unknown symmetrization mode '{mode}'")
        if resample not in ("step", "stage", "trajectory"):
            raise ConfigError(f"unknown resample granularity '{resample}'")
        self.base = base
        if group.n_dim != base.n_dim:
            raise ConfigError("group and potential dimensions differ")
        self.group = group
        self.mode = mode
        self.resample = resample

    @property
    def trainable(self):
        return self.base.trainable

    @property
    def n_dim(self):
        return self.base.n_dim

    @property
    def grad_size(self):
        return self.base.grad_size

    def begin_trajectory(self, rng):
        """Stage contexts of one trajectory: an endless iterator of element indices.

        Returns None in average mode, where every stage evaluates the whole
        group.  Indices are drawn from ``rng`` only as the integrator asks
        for them, four stages at a time.
        """
        if self.mode != "sampled":
            return None
        if rng is None:
            raise ConfigError("sampled symmetrization needs an rng passed to the integrator")
        return self._schedule(rng)

    def _schedule(self, rng):
        k = len(self.group)
        if self.resample == "trajectory":
            yield from itertools.repeat(int(rng.integers(k)))
        while True:
            if self.resample == "stage":
                yield int(rng.integers(k))
            else:
                yield from itertools.repeat(int(rng.integers(k)), 4)

    def _transform(self, m, X):
        return self.group.signs[m] * X[..., self.group.perms[m]]

    def _untransform(self, m, V):
        return self.group.signs[m] * V[..., self.group.inv_perms[m]]

    def grad_lap(self, X, ctx=None):
        if ctx is not None:
            G, lap, aux = self.base.grad_lap(self._transform(ctx, X))
            return self._untransform(ctx, G), lap, aux
        Gs = np.zeros_like(X)
        laps = np.zeros(X.shape[0])
        for m in range(len(self.group)):
            G, lap, _ = self.base.grad_lap(self._transform(m, X))
            Gs += self._untransform(m, G)
            laps += lap
        k = float(len(self.group))
        return Gs / k, laps / k, None

    def vjp(self, X, w_grad, w_lap, ctx=None, aux=None):
        if ctx is not None:
            pg, xc = self.base.vjp(self._transform(ctx, X), self._transform(ctx, w_grad),
                                   w_lap, aux=aux)
            return pg, self._untransform(ctx, xc)
        pg_total = None
        xc_total = np.zeros_like(X)
        for m in range(len(self.group)):
            pg, xc = self.base.vjp(self._transform(m, X), self._transform(m, w_grad), w_lap)
            if pg is not None:
                pg_total = pg if pg_total is None else pg_total + pg
            xc_total += self._untransform(m, xc)
        k = float(len(self.group))
        if pg_total is not None:
            pg_total = pg_total / k
        return pg_total, xc_total / k

    def grad_to_params(self, flat):
        return self.base.grad_to_params(flat)

    def fingerprint(self):
        md = hashlib.sha1()
        md.update(b"sym:" + self.mode.encode() + b":" + self.resample.encode())
        md.update(self.group.key())
        md.update(self.base.fingerprint())
        return md.digest()


def build_potential(params, group=None, mode="average", resample="step"):
    """Wrap parameters in an evaluator, symmetrized when a group is given."""
    base = MLPPotential(params)
    if group is None:
        return base
    return SymmetrizedPotential(base, group, mode=mode, resample=resample)
