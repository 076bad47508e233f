"""Group construction, element algebra and symmetrized potentials."""

import numpy as np
import pytest

from maflow import (ConfigError, GroupElement, IntegratorConfig, IsingEnergy, MLPPotential,
                    PotentialParams, SymmetrizedPotential, apply, build_potential, compose,
                    d4_group, eval_potential, gaussian_base, identity, init_params,
                    integrate, inverse, ising_energy, ising_group, ising_spec, log_prob,
                    replay, sample, symmetrized_eval, trivial_group, variational_loss,
                    z2_group)
from maflow.gradcheck import REL_TOL, compare_gradient


def random_params(n, h, seed=0):
    rng = np.random.default_rng(seed)
    p = init_params(n, h, rng)
    return PotentialParams(p.W, rng.standard_normal(h) * 0.3, p.a * 4.0, 0.1)


def test_identity_element():
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(apply(identity(3), x), x)


def test_spin_inversion():
    flip = GroupElement(np.arange(2), -1)
    assert np.array_equal(apply(flip, np.array([1.0, -2.0])), np.array([-1.0, 2.0]))


def test_rot90_four_times_is_identity():
    r90 = d4_group(4)[1]
    e = r90
    for _ in range(3):
        e = compose(e, r90)
    assert np.array_equal(e.perm, np.arange(16)) and e.sign == 1


def test_apply_preserves_magnitude_multiset():
    g = ising_group(4)[123]
    x = np.random.default_rng(0).standard_normal(16)
    assert np.allclose(np.sort(np.abs(apply(g, x))), np.sort(np.abs(x)), rtol=0, atol=0)


def test_inverse_composition_is_identity():
    for g in ising_group(2):
        gi = inverse(g)
        c = compose(gi, g)
        assert np.array_equal(c.perm, np.arange(4)) and c.sign == 1


def test_bad_permutation_rejected():
    with pytest.raises(ConfigError):
        GroupElement(np.array([0, 0, 1]), 1)
    with pytest.raises(ConfigError):
        GroupElement(np.array([0, 1, 3]), 1)


def test_ising_group_sizes_deduplicated():
    # naive product is 2 * L^2 * 8; overlaps collapse it for L=2
    assert len(ising_group(2)) == 16
    assert len(ising_group(4)) == 256
    # no duplicate (perm, sign) pairs survive
    g4 = ising_group(4)
    keys = {e.key() for e in g4}
    assert len(keys) == len(g4)


def test_group_closure_on_samples():
    g = ising_group(2)
    keys = {e.key() for e in g}
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = g[int(rng.integers(len(g)))]
        b = g[int(rng.integers(len(g)))]
        assert compose(a, b).key() in keys


def test_uniform_configuration_maps_to_plus_minus_one():
    g = ising_group(4)
    ones = np.ones(16)
    for e in g:
        y = apply(e, ones)
        assert np.array_equal(y, ones) or np.array_equal(y, -ones)


def test_ising_energy_invariant_under_group():
    spec = ising_spec(4)
    g = ising_group(4)
    x = np.random.default_rng(2).standard_normal(16)
    e0 = ising_energy(spec, x)
    for elem in g:
        assert abs(ising_energy(spec, apply(elem, x)) - e0) <= 1e-12 * abs(e0)


def test_trivial_group_eval_identical():
    p = random_params(4, 8, seed=3)
    x = np.random.default_rng(3).standard_normal(4)
    a = symmetrized_eval(p, trivial_group(4), x)
    b = eval_potential(p, x)
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)
    assert a.laplacian == b.laplacian


def test_full_average_value_invariant():
    p = random_params(4, 8, seed=4)
    group = ising_group(2)
    x = np.random.default_rng(4).standard_normal(4)
    v0 = symmetrized_eval(p, group, x).value
    for g in group:
        v = symmetrized_eval(p, group, apply(g, x)).value
        assert abs(v - v0) < 1e-12


def test_full_average_invariance_z2_and_l4():
    p = random_params(16, 8, seed=5)
    group = ising_group(4)
    x = np.random.default_rng(5).standard_normal(16)
    v0 = symmetrized_eval(p, group, x).value
    worst = max(abs(symmetrized_eval(p, group, apply(g, x)).value - v0) for g in group)
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
        G, lap, _ = sym.grad_lap(X, ctx=m)
        G_acc += G
        lap_acc += lap
    G_avg, lap_avg, _ = sym_avg.grad_lap(X)
    assert np.abs(G_acc / len(group) - G_avg).max() < 1e-12
    assert np.abs(lap_acc / len(group) - lap_avg).max() < 1e-12


def test_z2_group():
    g = z2_group(3)
    assert len(g) == 2
    x = np.array([1.0, 2.0, -3.0])
    ys = sorted(tuple(apply(e, x)) for e in g)
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

    _, traj = integrate(pot, state, cfg, rng=np.random.default_rng(19), record=True,
                        callback=evaluate)
    assert len({c for rec in traj.steps for c in rec.stage_ctx}) == 1
