"""Group tables, their action and symmetrized potentials."""

import os
import pickle

import numpy as np
import pytest

from maflow import (ConfigError, IntegratorConfig, IsingEnergy, MLPPotential,
                    PotentialParams, StaleTapeError, SymmetrizedPotential, SymmetryGroup,
                    backprop, build_potential, eval_potential, gaussian_base, init_params,
                    integrate, ising_energy, ising_group, ising_spec, log_prob, replay, sample,
                    symmetrized_eval, variational_loss, z2_group)
from maflow.gradcheck import REL_TOL, compare_gradient


def identity_group(n):
    return SymmetryGroup(np.arange(n)[None], [1])


def random_params(n, h, seed=0):
    rng = np.random.default_rng(seed)
    p = init_params(n, h, rng)
    return PotentialParams(p.W, rng.standard_normal(h) * 0.3, p.a * 4.0, 0.1)


def reference_ising_tables(L):
    """ising_group's rows by an independent loop: sign, then translation, then the 8 square
    maps written out as coordinate functions, keeping the first occurrence of each row."""
    m = L - 1
    maps = [lambda r, c: (r, c), lambda r, c: (c, m - r), lambda r, c: (m - r, m - c),
            lambda r, c: (m - c, r), lambda r, c: (r, m - c), lambda r, c: (m - r, c),
            lambda r, c: (c, r), lambda r, c: (m - c, m - r)]
    seen, perms, signs = set(), [], []
    for sign in (1, -1):
        for tr in range(L):
            for tc in range(L):
                for f in maps:
                    perm = []
                    for r in range(L):
                        for c in range(L):
                            sr, sc = f((r + tr) % L, (c + tc) % L)
                            perm.append(sr * L + sc)
                    if (sign, tuple(perm)) not in seen:
                        seen.add((sign, tuple(perm)))
                        perms.append(perm)
                        signs.append(sign)
    return np.array(perms, dtype=np.int64), np.array(signs, dtype=np.int64)


@pytest.mark.parametrize("L", [2, 3, 4, 6])
def test_ising_group_tables_match_reference_loop(L):
    group = ising_group(L)
    perms, signs = reference_ising_tables(L)
    assert group.perms.dtype == perms.dtype and group.signs.dtype == signs.dtype
    assert np.array_equal(group.perms, perms) and np.array_equal(group.signs, signs)
    assert np.array_equal(group.inv_perms, np.argsort(perms, axis=1))
    assert len(group) == len(perms) and group.n_dim == L * L
    assert not any(a.flags.writeable for a in (group.perms, group.inv_perms, group.signs))


def test_identity_element():
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(identity_group(3).act(0, x), x)
    g = ising_group(4)
    assert np.array_equal(g.perms[0], np.arange(16)) and g.signs[0] == 1


def test_spin_inversion():
    flip = z2_group(2)
    assert np.array_equal(flip.act(1, np.array([1.0, -2.0])), np.array([-1.0, 2.0]))


def test_rot90_four_times_is_identity():
    # ising_group's rows 0..7 are the square's 8 maps at translation (0, 0); row 1 turns by 90
    g = ising_group(4)
    r90 = g.perms[1]
    e = r90
    for _ in range(3):
        e = r90[e]  # the row doing e first, then r90
    assert np.array_equal(e, np.arange(16)) and g.signs[1] == 1
    assert not np.array_equal(r90[r90], np.arange(16))


def test_apply_preserves_magnitude_multiset():
    x = np.random.default_rng(0).standard_normal(16)
    y = ising_group(4).act(123, x)
    assert np.array_equal(np.sort(np.abs(y)), np.sort(np.abs(x)))


def test_inverse_composition_is_identity():
    # pull(m, act(m, X)) is X bitwise, and inv_perms[m] composed with perms[m] is the identity
    g = ising_group(2)
    X = np.random.default_rng(1).standard_normal((5, 4))
    for m in range(len(g)):
        assert np.array_equal(g.pull(m, g.act(m, X)), X)
        assert np.array_equal(g.pull(m, g.act(m, X[2])), X[2])
        assert np.array_equal(g.inv_perms[m][g.perms[m]], np.arange(4))


def test_bad_permutation_rejected():
    for bad_row in ([0, 0, 1], [0, 1, 3], [-1, 1, 2]):
        with pytest.raises(ConfigError, match="row 1 is not a bijection"):
            SymmetryGroup([[0, 1, 2], bad_row], [1, 1])


@pytest.mark.parametrize("perms,signs,match", [
    ([[0, 1], [1, 0]], [1, 2], "row 1 has sign 2"),
    ([[0, 1], [1, 0]], [1, 0.5], "row 1 has sign 0.5"),
    ([[1, 0]], [1], "identity"),
    ([[0, 1], [1, 0]], [-1, 1], "identity"),
    (np.zeros((0, 3), dtype=np.int64), [], "non-empty"),
    (np.zeros((1, 0), dtype=np.int64), [1], "non-empty"),
    ([0, 1, 2], [1], "non-empty"),
    ([[0, 1]], [1, 1], "non-empty"),
    ([[0.0, 1.0]], [1], "integer"),
], ids=["sign-2", "sign-0.5", "no-identity", "identity-only-with-sign-minus-1", "no-rows",
        "no-columns", "one-dimensional", "sign-count", "float-table"])
def test_group_table_refusals(perms, signs, match):
    with pytest.raises(ConfigError, match=match):
        SymmetryGroup(perms, signs)


def test_ising_group_sizes_deduplicated():
    # naive product is 2 * L^2 * 8; overlaps collapse it for L=2
    assert len(ising_group(2)) == 16
    assert len(ising_group(4)) == 256
    # no duplicate (perm, sign) rows survive
    g4 = ising_group(4)
    keys = {(int(s), p.tobytes()) for p, s in zip(g4.perms, g4.signs)}
    assert len(keys) == len(g4)


def test_group_closure_on_samples():
    g = ising_group(2)
    keys = {(int(s), p.tobytes()) for p, s in zip(g.perms, g.signs)}
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b = (int(rng.integers(len(g))) for _ in range(2))
        # b first, then a
        assert (int(g.signs[a] * g.signs[b]), g.perms[b][g.perms[a]].tobytes()) in keys


def test_uniform_configuration_maps_to_plus_minus_one():
    g = ising_group(4)
    ones = np.ones(16)
    for m in range(len(g)):
        y = g.act(m, ones)
        assert np.array_equal(y, ones) or np.array_equal(y, -ones)


def test_ising_energy_invariant_under_group():
    spec = ising_spec(4)
    g = ising_group(4)
    x = np.random.default_rng(2).standard_normal(16)
    e0 = ising_energy(spec, x)
    for m in range(len(g)):
        assert abs(ising_energy(spec, g.act(m, x)) - e0) <= 1e-12 * abs(e0)


def test_trivial_group_eval_identical():
    p = random_params(4, 8, seed=3)
    x = np.random.default_rng(3).standard_normal(4)
    a = symmetrized_eval(p, identity_group(4), x)
    b = eval_potential(p, x)
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)
    assert a.laplacian == b.laplacian


def test_full_average_value_invariant():
    p = random_params(4, 8, seed=4)
    group = ising_group(2)
    x = np.random.default_rng(4).standard_normal(4)
    v0 = symmetrized_eval(p, group, x).value
    for m in range(len(group)):
        v = symmetrized_eval(p, group, group.act(m, x)).value
        assert abs(v - v0) < 1e-12


def test_full_average_invariance_z2_and_l4():
    p = random_params(16, 8, seed=5)
    group = ising_group(4)
    x = np.random.default_rng(5).standard_normal(16)
    v0 = symmetrized_eval(p, group, x).value
    worst = max(abs(symmetrized_eval(p, group, group.act(m, x)).value - v0)
                for m in range(len(group)))
    assert worst < 1e-10


def test_sampled_expectation_equals_average():
    p = random_params(4, 8, seed=6)
    group = ising_group(2)
    x = np.random.default_rng(6).standard_normal(4)
    avg = symmetrized_eval(p, group, x, "average")

    class Forced:
        def __init__(self, m):
            self.m = m

        def integers(self, n):
            return self.m

    vals, grads, laps = [], [], []
    for m in range(len(group)):
        e = symmetrized_eval(p, group, x, "sampled", Forced(m))
        vals.append(e.value)
        grads.append(e.grad)
        laps.append(e.laplacian)
    assert abs(np.mean(vals) - avg.value) < 1e-12
    assert np.abs(np.mean(grads, axis=0) - avg.grad).max() < 1e-12
    assert abs(np.mean(laps) - avg.laplacian) < 1e-12


def test_average_gradient_uses_chain_rule():
    p = random_params(4, 8, seed=7)
    group = ising_group(2)
    x = np.random.default_rng(7).standard_normal(4)
    ev = symmetrized_eval(p, group, x)
    h = 1e-5
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (symmetrized_eval(p, group, x + e).value
              - symmetrized_eval(p, group, x - e).value) / (2 * h)
        assert abs(ev.grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_empty_or_missing_group_rejected():
    p = random_params(2, 4)
    with pytest.raises(ConfigError):
        symmetrized_eval(p, None, np.zeros(2))
    with pytest.raises(ConfigError):
        SymmetrizedPotential(MLPPotential(p), None)


@pytest.mark.parametrize("x", [np.zeros(3), np.zeros(5), np.zeros((2, 4)), np.float64(0.0)])
def test_symmetrized_eval_refuses_a_point_of_the_wrong_width(x):
    with pytest.raises(ConfigError, match="acts on 4 sites"):
        symmetrized_eval(random_params(4, 8), ising_group(2), x)


def test_drift_linearity_per_step():
    # averaging single-element drifts at fixed x equals the averaged-potential drift
    p = random_params(4, 8, seed=8)
    group = ising_group(2)
    base = MLPPotential(p)
    sym_avg = SymmetrizedPotential(base, group, "average")
    sym = SymmetrizedPotential(base, group, "sampled")
    X = np.random.default_rng(8).standard_normal((5, 4))
    G_acc = np.zeros_like(X)
    lap_acc = np.zeros(5)
    for m in range(len(group)):
        G, lap = sym.grad_lap(X, ctx=m)
        G_acc += G
        lap_acc += lap
    G_avg, lap_avg = sym_avg.grad_lap(X)
    assert np.abs(G_acc / len(group) - G_avg).max() < 1e-12
    assert np.abs(lap_acc / len(group) - lap_avg).max() < 1e-12


def test_z2_group():
    g = z2_group(3)
    assert len(g) == 2
    x = np.array([1.0, 2.0, -3.0])
    ys = sorted(tuple(g.act(m, x)) for m in range(len(g)))
    assert ys == sorted([tuple(x), tuple(-x)])


# ---------------------------------------------------------------------------
# sampled symmetry through the integrator and the tape

TAPE_CASES = [("average", "step"), ("sampled", "step"), ("sampled", "stage"),
              ("sampled", "trajectory")]


def _expected_stage_ctx(mode, resample, rng, steps, k):
    """Each mode's schedule, drawn from the stream after the base noise."""
    if mode == "average":
        return [(None,) * 4] * steps
    draw = lambda: int(rng.integers(k))
    if resample == "trajectory":
        return [(draw(),) * 4] * steps
    if resample == "step":
        return [(draw(),) * 4 for _ in range(steps)]
    return [tuple(draw() for _ in range(4)) for _ in range(steps)]


@pytest.mark.parametrize("mode,resample", TAPE_CASES)
def test_symmetrized_tape_replay_and_stage_contexts(mode, resample):
    group = ising_group(2)
    pot = build_potential(random_params(4, 8, seed=9), group, mode, resample)
    cfg = IntegratorConfig(0.1, 6)
    state = gaussian_base(4, 5, np.random.default_rng(10))
    final, traj = integrate(pot, state, cfg, rng=np.random.default_rng(11), record=True)
    X, L = replay(traj)
    assert np.array_equal(X, final.X) and np.array_equal(L, final.L)

    recorded = [rec.stage_ctx for rec in traj.steps]
    assert recorded == _expected_stage_ctx(mode, resample, np.random.default_rng(11),
                                           cfg.steps, len(group))
    if resample == "stage":
        assert any(len(set(c)) > 1 for c in recorded)
    if (mode, resample) == ("sampled", "step"):
        assert len({c[0] for c in recorded}) > 1


class ContextLog:
    """Forwards to ``inner``; writes the context of each grad_lap call, -1 for None, into its
    row part's row of ``log``, in memory shared with the worker."""

    def __init__(self, inner, log):
        self.inner, self.log, self.caller, self.calls = inner, log, os.getpid(), 0

    def __getattr__(self, name):
        if name.startswith("__"):       # as pickle looks them up, before inner is set
            raise AttributeError(name)
        return getattr(self.inner, name)

    def grad_lap(self, X, ctx=None):
        self.log[int(os.getpid() == self.caller), self.calls] = -1 if ctx is None else ctx
        self.calls += 1         # the worker counts in its own copy
        return self.inner.grad_lap(X, ctx)


@pytest.mark.parametrize("mode,resample", TAPE_CASES)
def test_both_parts_use_the_stage_contexts_of_one_part(jobs, shared_zeros, mode, resample):
    # drawn once, after the base noise, in the order one part draws them
    pot = build_potential(random_params(4, 8, seed=9), ising_group(2), mode, resample)
    cfg = IntegratorConfig(0.1, 6)
    one_rng, two_rng = np.random.default_rng(12), np.random.default_rng(12)
    state = gaussian_base(4, 40, one_rng)
    final, traj = integrate(pot, state, cfg, rng=one_rng, record=True)
    log = ContextLog(pot, shared_zeros(2, 4 * cfg.steps))
    joined = sample(log, 40, cfg, two_rng)
    assert len(jobs) == 1
    want = [-1 if c is None else c for rec in traj.steps for c in rec.stage_ctx]
    assert log.log.tolist() == [want, want]
    assert one_rng.bit_generator.state == two_rng.bit_generator.state
    assert np.array_equal(joined.X, final.X) and np.array_equal(joined.L, final.L)


def test_an_evaluator_pickles_as_its_parameters_and_a_group_as_its_tables():
    # what a job sends the row-part worker: no cache of the evaluator, a group neither
    # validated nor hashed again, and the same bits where it is loaded
    p = random_params(16, 32, seed=13)
    base = MLPPotential(p)
    assert len(pickle.dumps(base, 5)) < p.size * 8 + 1000
    group = ising_group(4)
    key = group.key()
    pot = SymmetrizedPotential(base, group, mode="sampled")
    back = pickle.loads(pickle.dumps(pot, 5))
    assert back.group._key == key and back.fingerprint() == pot.fingerprint()
    for arr in (back.base.params.to_vector(), back.group.perms, back.group.inv_perms,
                back.group.signs):
        assert not arr.flags.writeable
    X = np.random.default_rng(13).standard_normal((5, 16))
    for ctx in (0, 7):
        for got, want in zip(back.grad_lap(X, ctx), pot.grad_lap(X, ctx)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("mode,resample", TAPE_CASES)
def test_symmetrized_variational_gradient_matches_fd(mode, resample):
    group = ising_group(2)
    energy = IsingEnergy(ising_spec(2))
    cfg = IntegratorConfig(0.1, 8)

    def loss(p, want_grad):
        return variational_loss(build_potential(p, group, mode, resample), energy, 6, cfg,
                                np.random.default_rng(12), want_grad=want_grad)

    worst, _ = compare_gradient(loss, random_params(4, 8, seed=13), 15,
                                np.random.default_rng(14))
    assert worst < REL_TOL


def test_sampled_evaluator_keeps_no_generator():
    # a sampled evaluator that already ran with a generator still needs one
    pot = build_potential(random_params(4, 8, seed=15), ising_group(2), "sampled")
    cfg = IntegratorConfig(0.1, 3)
    state = sample(pot, 4, cfg, np.random.default_rng(16))
    with pytest.raises(ConfigError):
        log_prob(pot, state.X, cfg, rng=None)


def test_nested_reuse_keeps_trajectory_element():
    pot = build_potential(random_params(4, 8, seed=17), ising_group(2), "sampled",
                          "trajectory")
    cfg = IntegratorConfig(0.1, 6)
    state = gaussian_base(4, 3, np.random.default_rng(18))

    def evaluate(k, st):
        log_prob(pot, st.X, cfg, rng=np.random.default_rng(100 + k))

    _, traj = integrate(pot, state, cfg, rng=np.random.default_rng(19), record=True)
    assert len({c for rec in traj.steps for c in rec.stage_ctx}) == 1
    # integrations nested in sample's callback leave its trajectory as it was
    plain = sample(pot, 3, cfg, np.random.default_rng(19))
    nested = sample(pot, 3, cfg, np.random.default_rng(19), callback=evaluate)
    assert np.array_equal(nested.X, plain.X) and np.array_equal(nested.L, plain.L)


def test_symmetrized_fingerprint_tracks_its_parts():
    # only the read-only parts cache a digest; the evaluator hashes them on every call
    p = random_params(4, 8, seed=20)
    group = ising_group(2)
    pot = build_potential(p, group, "sampled", "step")
    assert group.key() is group.key()
    assert p.fingerprint() is p.fingerprint()
    assert pot.fingerprint() == build_potential(p, ising_group(2), "sampled", "step").fingerprint()
    for other in (build_potential(p, group, "sampled", "stage"),
                  build_potential(p, z2_group(4), "sampled", "step"),
                  build_potential(PotentialParams(p.W, p.b, p.a * 1.001, p.c), group, "sampled")):
        assert other.fingerprint() != pot.fingerprint()


@pytest.mark.parametrize("field", ["base", "mode"])
def test_reassigned_symmetrized_evaluator_rejects_its_old_tape(field):
    p = random_params(4, 8, seed=21)
    pot = build_potential(p, ising_group(2), "sampled", "step")
    state = gaussian_base(4, 5, np.random.default_rng(22))
    _, traj = integrate(pot, state, IntegratorConfig(0.1, 3), rng=np.random.default_rng(23),
                        record=True)
    if field == "base":
        pot.base = MLPPotential(random_params(4, 8, seed=24))
    else:
        pot.mode = "average"
    with pytest.raises(StaleTapeError):
        backprop(traj, pot, np.ones((5, 4)), np.ones(5))


@pytest.mark.parametrize("group", [ising_group(4), z2_group(16)], ids=["ising4", "z2"])
def test_act_and_pull_are_bitwise_the_signed_gather(group):
    # signed zeros and infinities included: a -1 row must flip the sign bit of every entry
    rng = np.random.default_rng(27)
    X = rng.standard_normal((3, 16))
    X[0, :4] = [0.0, -0.0, np.inf, -np.inf]
    X[2, 5::3] = -0.0
    for m in range(len(group)):
        for hook, perm in ((group.act, group.perms[m]), (group.pull, group.inv_perms[m])):
            want = group.signs[m] * X[..., perm]
            assert np.array_equal(hook(m, X).view(np.int64), want.view(np.int64))
        assert np.array_equal(group.pull(m, group.act(m, X)).view(np.int64), X.view(np.int64))


def test_sampled_hooks_are_the_base_hooks_around_one_row():
    group = ising_group(2)
    base = MLPPotential(random_params(4, 8, seed=25))
    pot = SymmetrizedPotential(base, group, "sampled")
    rng = np.random.default_rng(26)
    X, w_grad = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    w_lap = rng.standard_normal(6)
    for m in range(len(group)):
        G, lap = pot.grad_lap(X, m)
        G_base, lap_base = base.grad_lap(group.act(m, X))
        assert np.array_equal(G, group.pull(m, G_base)) and np.array_equal(lap, lap_base)

        pg, xc = pot.vjp(X, w_grad, w_lap, ctx=m)
        pg_base, xc_base = base.vjp(group.act(m, X), group.act(m, w_grad), w_lap)
        assert np.array_equal(pg.to_vector(), pg_base.to_vector())
        assert np.array_equal(xc, group.pull(m, xc_base))
