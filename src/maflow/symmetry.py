"""Symmetry groups on lattice configurations and symmetrized potentials.

A group is two read-only tables: ``perms``, one index permutation per row,
and ``signs``, one global sign per row.  Row m acts as
(g_m x)_i = signs[m] * x[perms[m, i]] (``act``).  These are orthogonal maps,
so pulling a gradient back through a row is the inverse row applied to the
gradient (``pull``), and the Laplacian is invariant.

``SymmetrizedPotential`` averages a base potential over a group, either
exactly (every row) or stochastically (one row drawn per integration step,
the default, or per stage / per trajectory).  Like every evaluator, it is a
pure function of the points and a stage context; the sampled row indices
come from ``begin_trajectory(rng)``, which the integrator calls once per
trajectory and records on the tape.  A sampled stage evaluates one row,
and its ``grad_lap`` and ``vjp`` divide nothing: each returns the base's
results around that row, one gather in and one out, negated in place for
a -1 row.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from .errors import ConfigError
from .potential import MLPPotential, PotentialEval, eval_potential

# the names group_by_name and SymmetrizedPotential take, and so a config may give
GROUPS = ("none", "z2", "ising-full")
MODES = ("sampled", "average")
RESAMPLES = ("step", "stage", "trajectory")


class SymmetryGroup:
    """A group as its read-only tables: ``perms`` (|G|, n) int64 bijections on 0..n-1,
    ``signs`` (|G|,) of +1 or -1, and ``inv_perms``, the inverse of each row; ``act`` and
    ``pull`` apply a row and its inverse.  The identity row must be present.  Row order is
    part of the group: a sampled index picks its element by row number."""

    def __init__(self, perms, signs):
        perms, signs = np.asarray(perms), np.asarray(signs)
        if (perms.ndim != 2 or perms.size == 0 or signs.shape != perms.shape[:1]
                or not np.issubdtype(perms.dtype, np.integer)):
            raise ConfigError(f"a symmetry group needs a non-empty (|G|, n) integer permutation "
                              f"table and |G| signs, got shapes {perms.shape} and {signs.shape}")
        n = perms.shape[1]
        inv_perms = np.argsort(perms, axis=1)
        bad = (np.take_along_axis(perms, inv_perms, axis=1) != np.arange(n)).any(axis=1)
        if bad.any():
            raise ConfigError(f"group row {np.flatnonzero(bad)[0]} is not a bijection on 0..n-1")
        bad = ~np.isin(signs, (-1, 1))
        if bad.any():
            raise ConfigError(f"group row {np.flatnonzero(bad)[0]} has sign "
                              f"{signs[bad][0]}, not +1 or -1")
        if not ((perms == np.arange(n)).all(axis=1) & (signs == 1)).any():
            raise ConfigError("group does not contain the identity element")
        self.perms, self.signs = perms.astype(np.int64), signs.astype(np.int64)
        self.inv_perms, self.n_dim, self._key = inv_perms, n, None
        for arr in (self.perms, self.inv_perms, self.signs):
            arr.setflags(write=False)

    def __reduce__(self):
        # pickled as its tables, validated and made read-only again where it unpickles
        return type(self), (self.perms, self.signs)

    def __len__(self):
        return self.perms.shape[0]

    def act(self, m, X):
        """Row m applied to the last axis of X: signs[m] * X[..., perms[m]], bitwise."""
        return self._signed_take(m, X, self.perms)

    def pull(self, m, V):
        """The inverse of row m applied to the last axis of V: undoes ``act(m, .)``."""
        return self._signed_take(m, V, self.inv_perms)

    def _signed_take(self, m, X, perms):
        # one gather, negated in place for a -1 row: the bits of signs[m] * X[..., perms[m]]
        out = np.take(X, perms[m], axis=-1)
        return np.negative(out, out=out) if self.signs[m] < 0 else out

    def key(self):
        """Digest of the permutation and sign tables, hashed on the first call only."""
        if self._key is None:
            md = hashlib.sha1()
            md.update(self.perms.tobytes())
            md.update(self.signs.tobytes())
            self._key = md.digest()
        return self._key


def z2_group(n_dim):
    """Global sign flip and the identity."""
    return SymmetryGroup(np.tile(np.arange(n_dim), (2, 1)), [1, -1])


def _square_maps(L):
    """(8, L*L) table: row f holds, for each output site (r, c), its source site under the
    f-th symmetry of the square."""
    r, c = np.divmod(np.arange(L * L), L)
    m = L - 1
    # identity, rotations by 90, 180 and 270 degrees, horizontal flip, vertical
    # flip, transpose, anti-transpose
    src_r = np.stack([r, c, m - r, m - c, r, m - r, c, m - c])
    src_c = np.stack([c, m - r, m - c, r, m - c, c, r, m - r])
    return src_r * L + src_c


def ising_group(L):
    """Sign flips x translations x square point group for an L x L periodic lattice.

    Rows are enumerated sign first (+1, then -1), then translation (tr, tc) in
    row-major order, then the 8 maps of ``_square_maps``; row (tr, tc, f) reads
    site (r, c) from the f-th map's source of ((r + tr) mod L, (c + tc) mod L).
    The naive product has 2 * L^2 * 8 rows; coincident rows (which occur for
    small L, where e.g. the 180-degree rotation is also a translation) are
    removed, keeping the first occurrence.  The identity comes first.  This
    order fixes which element a sampled index picks, and so every sampled result.
    """
    if L < 2:
        raise ConfigError(f"lattice side must be at least 2, got {L}")
    n = L * L
    r, c = np.divmod(np.arange(n), L)
    shifts = (r[:, None] + r) % L * L + (c[:, None] + c) % L   # [t, site], t = tr * L + tc
    perms = _square_maps(L)[:, shifts].swapaxes(0, 1).reshape(8 * n, n)   # a C-ordered copy
    # a +1 row never equals a -1 row, so deduplicate the permutations once for both halves
    rows = perms.view(np.dtype((np.void, perms.itemsize * n))).ravel()  # one byte key per row
    perms = perms[np.sort(np.unique(rows, return_index=True)[1])]
    return SymmetryGroup(np.concatenate([perms, perms]), np.repeat([1, -1], len(perms)))


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
    raise ConfigError(f"unknown symmetry group '{name}' (choose from {', '.join(GROUPS)})")


def symmetrized_eval(params, group, x, mode="average", rng=None):
    """Evaluate the group-averaged potential at a single point.

    mode='average' returns (1/|G|) sum_g phi(g x) with the chain rule applied
    to the gradient; mode='sampled' evaluates a single uniformly drawn term.
    """
    if group is None:
        raise ConfigError("symmetrized evaluation needs a symmetry group")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (group.n_dim,):
        raise ConfigError(f"point has shape {x.shape}, the group acts on {group.n_dim} sites")
    if mode == "sampled":
        if rng is None:
            raise ConfigError("sampled mode needs a random generator")
        members = [int(rng.integers(len(group)))]
    elif mode == "average":
        members = range(len(group))
    else:
        raise ConfigError(f"unknown mode '{mode}'")

    value = 0.0
    grad = np.zeros(group.n_dim)
    lap = 0.0
    for m in members:
        ev = eval_potential(params, group.act(m, x))
        value += ev.value
        grad += group.pull(m, ev.grad)
        lap += ev.laplacian
    k = float(len(members))
    return PotentialEval(value / k, grad / k, lap / k)


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
    nested or interleaved integrations.  ``fingerprint`` hashes mode,
    resample, the group's key and the base's digest on every call, so a tape
    recorded before one of them is reassigned is stale.
    """

    def __init__(self, base, group, mode="average", resample="step"):
        if group is None:
            raise ConfigError("symmetrized potential needs a symmetry group")
        if mode not in MODES:
            raise ConfigError(f"unknown symmetrization mode '{mode}'")
        if resample not in RESAMPLES:
            raise ConfigError(f"unknown resample granularity '{resample}'")
        self.base = base
        if group.n_dim != base.n_dim:
            raise ConfigError("group and potential dimensions differ")
        self.group = group
        self.mode = mode
        self.resample = resample

    @property
    def n_dim(self):
        return self.base.n_dim

    def begin_trajectory(self, rng):
        """Stage contexts of one trajectory: an endless iterator of element indices.

        Returns None in average mode, where every stage evaluates the whole
        group.  Indices are drawn from ``rng`` only as the integrator asks
        for them: four per step, for every step before the first.
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

    def grad_lap(self, X, ctx=None):
        """The base's G and Laplacian averaged over row ``ctx``, or every row if it is None."""
        rows = range(len(self.group)) if ctx is None else (ctx,)
        Gs = laps = None    # each sum starts as the first row's own arrays: one row copies nothing
        for m in rows:
            G, lap = self.base.grad_lap(self.group.act(m, X))
            G = self.group.pull(m, G)
            if Gs is None:
                Gs, laps = G, lap
            else:
                Gs += G
                laps += lap
        if len(rows) > 1:   # one row divides nothing
            Gs /= len(rows)
            laps /= len(rows)
        return Gs, laps

    def vjp(self, X, w_grad, w_lap, ctx=None, aux=None):
        """The base's vjp averaged over the same rows as ``grad_lap``."""
        if aux is not None:
            # compatibility keyword for perfbench's TimingProxy; removed with
            # benchmark v2 (ROADMAP direction 1)
            raise ValueError("vjp recomputes the activations; aux must be None")
        rows = range(len(self.group)) if ctx is None else (ctx,)
        if len(rows) > 1:
            # a vjp is linear in its cotangents: scale them instead of the row sums
            k = float(len(rows))
            w_grad, w_lap = w_grad / k, w_lap / k
        pg_total = xc_total = None
        for m in rows:
            pg, xc = self.base.vjp(self.group.act(m, X), self.group.act(m, w_grad), w_lap)
            xc = self.group.pull(m, xc)
            if xc_total is None:
                pg_total, xc_total = pg, xc
            else:
                pg_total = pg_total if pg is None else pg_total.add(pg)
                xc_total += xc
        return pg_total, xc_total

    def fingerprint(self):
        """Digest of mode, resample, group and base evaluator, hashed on every call."""
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
