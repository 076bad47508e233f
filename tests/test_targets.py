"""Objectives, Ising construction, enumeration oracles, spin sampler, flow oracle."""

import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp

from maflow import (ConfigError, GaussianFlowSolution, IntegratorConfig, IsingEnergy,
                    PotentialParams, QuadraticPotential, build_potential, exact_neg_log_z,
                    gaussian_log_density, init_params, ising_energy,
                    ising_energy_grad, ising_group, ising_oracle_report, ising_spec, log_prob,
                    nll_loss, sample, spin_sampler, variational_loss)
from maflow.targets import (CRITICAL_COUPLING, enumerate_log_z_offset,
                            reference_log_z_offset)


def test_base_log_density_values():
    assert gaussian_log_density(np.zeros((1, 1)))[0] == pytest.approx(-0.9189385332, abs=1e-9)
    assert gaussian_log_density(np.zeros(2)) == pytest.approx(-1.8378770664, abs=1e-9)
    x = np.array([[0.3, -1.4, 0.9]])
    assert np.array_equal(gaussian_log_density(x), gaussian_log_density(-x))


# ---------------------------------------------------------------------------
# Ising construction


def test_ising_spec_alpha_and_minimum_eigenvalue():
    beta = 0.44068679
    spec = ising_spec(2, beta)
    assert spec.alpha == pytest.approx(0.1 + 4 * beta, abs=1e-12)
    w = np.linalg.eigvalsh(spec.kplus)
    assert abs(w.min() - 0.1) < 1e-10
    spec4 = ising_spec(4)
    w4 = np.linalg.eigvalsh(spec4.kplus)
    assert abs(w4.min() - 0.1) < 1e-10


def test_ising_spec_l2_bonds_double_up():
    spec = ising_spec(2, 0.25)
    off = spec.kplus - np.diag(np.diag(spec.kplus))
    # on the 2x2 torus each neighbor is reached two ways
    assert set(np.round(np.unique(off), 12)) == {0.0, 0.5}
    assert (np.abs(off[0]) > 0).sum() == 2


def test_ising_spec_l4_four_neighbors():
    spec = ising_spec(4, 0.3)
    off = spec.kplus - np.diag(np.diag(spec.kplus))
    for i in range(16):
        row = off[i]
        assert (row != 0).sum() == 4
        assert np.allclose(row[row != 0], 0.3)


@pytest.mark.parametrize("L", [2, 4, 8])
def test_solve_and_log_det_match_cholesky(L):
    spec = ising_spec(L)
    factor = cho_factor(spec.kplus, lower=True)
    Y = 3.0 * np.random.default_rng(L).standard_normal((50, spec.n_dim))
    assert np.abs(spec.solve(Y) - cho_solve(factor, Y.T).T).max() <= 1e-12
    assert np.abs(spec.solve(Y[7]) - cho_solve(factor, Y[7])).max() <= 1e-12
    assert spec.log_det() == pytest.approx(2.0 * np.log(np.diag(factor[0])).sum(), abs=1e-12)


def test_kplus_invariant_under_group():
    spec = ising_spec(4)
    for perm in ising_group(4).perms:
        assert np.allclose(spec.kplus[np.ix_(perm, perm)], spec.kplus, atol=1e-14)


def test_odd_side_rejected():
    with pytest.raises(ConfigError):
        ising_spec(3)


@pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf, 1e16])
def test_coupling_outside_its_range_rejected(beta):
    # at 1e16 the 0.1 lift of kplus is lost to rounding and the Cholesky factor fails
    with pytest.raises(ConfigError, match="beta"):
        ising_spec(4, beta)


def test_ising_energy_zero_at_origin():
    spec = ising_spec(2)
    assert ising_energy(spec, np.zeros(4)) == 0.0


def test_ising_energy_invariance():
    spec = ising_spec(4)
    x = np.random.default_rng(0).standard_normal(16) * 1.5
    e0 = ising_energy(spec, x)
    group = ising_group(4)
    for m in range(len(group)):
        gx = group.signs[m] * x[group.perms[m]]
        assert abs(ising_energy(spec, gx) - e0) <= 1e-12 * abs(e0)


def test_ising_force_matches_finite_differences():
    spec = ising_spec(2)
    x = np.random.default_rng(1).standard_normal(4)
    grad = ising_energy_grad(spec, x)
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (ising_energy(spec, x + e) - ising_energy(spec, x - e)) / (2 * h)
        assert abs(grad[j] - fd) <= 1e-6 * max(abs(fd), 1e-6)


def test_ising_energy_batch_matches_scalar():
    spec = ising_spec(2)
    en = IsingEnergy(spec)
    X = np.random.default_rng(2).standard_normal((6, 4))
    ev = en.energy(X)
    gv = en.grad(X)
    for i in range(6):
        assert ev[i] == pytest.approx(ising_energy(spec, X[i]), rel=1e-13)
        assert np.allclose(gv[i], ising_energy_grad(spec, X[i]), rtol=1e-12, atol=1e-14)


def test_log_cosh_overflow_safe():
    spec = ising_spec(2)
    x = np.array([500.0, -500.0, 0.0, 1.0])
    e = ising_energy(spec, x)
    assert math.isfinite(e)


# ---------------------------------------------------------------------------
# exact partition function


def test_enumeration_closed_form_beta_zero():
    spec = ising_spec(2, 0.0)
    # sum over 16 states of exp(alpha * N / 2) with N=4
    expected = math.log(16.0) + 2.0 * spec.alpha
    assert enumerate_log_z_offset(spec) == pytest.approx(expected, abs=1e-12)


def test_dual_enumeration_agreement():
    for L in (2, 4):
        spec = ising_spec(L)
        a = enumerate_log_z_offset(spec)
        b = reference_log_z_offset(spec)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@pytest.mark.parametrize("L,beta", [(2, 0.25), (2, CRITICAL_COUPLING), (4, CRITICAL_COUPLING)])
def test_enumeration_matches_logsumexp(L, beta):
    spec = ising_spec(L, beta)
    n = spec.n_dim
    S = 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) - 1.0
    e = 0.5 * np.einsum("bj,bj->b", S @ spec.kplus, S)
    assert enumerate_log_z_offset(spec) == pytest.approx(logsumexp(e), abs=1e-12)


def test_enumeration_refuses_large_lattice():
    spec6 = ising_spec(6)
    with pytest.raises(ConfigError, match="Kaufman"):
        exact_neg_log_z(spec6)


def test_oracle_report_consistency():
    spec = ising_spec(2)
    rep = ising_oracle_report(spec)
    assert rep["enumeration_disagreement"] < 1e-12
    assert rep["log_z_ising"] == pytest.approx(
        rep["log_z_ising_offset"] - 2.0 * spec.alpha, abs=1e-12)
    assert rep["neg_log_z"] == pytest.approx(exact_neg_log_z(spec), abs=1e-12)


def test_variational_bound_for_random_params():
    spec = ising_spec(2)
    energy = IsingEnergy(spec)
    exact = exact_neg_log_z(spec)
    cfg = IntegratorConfig(0.1, 10)
    for k in range(10):
        rng = np.random.default_rng(300 + k)
        p = init_params(4, 16, rng)
        p = PotentialParams(p.W * rng.uniform(0.5, 3), rng.standard_normal(16) * 0.5,
                            p.a * rng.uniform(0, 30), 0.0)
        res = variational_loss(p, energy, 256, cfg, np.random.default_rng(k),
                               want_grad=False)
        stderr = res.per_sample.std(ddof=1) / math.sqrt(res.per_sample.size)
        assert res.value - exact >= -5.0 * stderr


# ---------------------------------------------------------------------------
# spin sampler


def test_spin_sampler_values_and_saturation():
    rng = np.random.default_rng(3)
    s = spin_sampler(np.zeros((100, 4)), rng)
    assert set(np.unique(s)) <= {-1.0, 1.0}
    big = spin_sampler(np.full(10_000, 10.0), np.random.default_rng(4))
    assert (big == 1.0).mean() > 1.0 - 1e-4


def test_spin_sampler_fair_coin_at_zero():
    s = spin_sampler(np.zeros(100_000), np.random.default_rng(5))
    assert abs(s.mean()) < 4.0 / math.sqrt(100_000)


def test_spin_sampler_mean_matches_bernoulli():
    # mean of s at x=0.5 is 2*logistic(1) - 1
    n = 100_000
    s = spin_sampler(np.full(n, 0.5), np.random.default_rng(6))
    target = 2.0 / (1.0 + math.exp(-1.0)) - 1.0
    assert target == pytest.approx(0.462117, abs=1e-6)
    se = math.sqrt((1 - target ** 2) / n)
    assert abs(s.mean() - target) < 3.0 * se


# ---------------------------------------------------------------------------
# Gaussian flow oracle


def test_oracle_identity_at_time_zero():
    orc = GaussianFlowSolution(0.7, 0.0)
    assert orc.scale == 1.0 and orc.alpha == 1.0
    x = np.linspace(-2, 2, 5)
    assert np.allclose(orc.log_density(x), -0.5 * math.log(2 * math.pi) - x ** 2 / 2)


def test_oracle_scale_value():
    assert GaussianFlowSolution(0.5, 1.0).scale == pytest.approx(1.6487213, abs=1e-7)


def test_oracle_density_normalized():
    orc = GaussianFlowSolution(0.5, 1.0)
    dx = 0.001
    grid = np.arange(-12.0, 12.0, dx)
    mass = np.exp(orc.log_density(grid)).sum() * dx
    assert abs(mass - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# losses, trivial cases


def test_nll_zero_potential_is_base_nll():
    pot = QuadraticPotential(0.0, 3)
    X = np.random.default_rng(7).standard_normal((16, 3))
    res = nll_loss(pot, X, IntegratorConfig(0.1, 5), want_grad=False)
    expect = 0.5 * (3 * math.log(2 * math.pi) + (X ** 2).sum(axis=1))
    assert res.value == pytest.approx(expect.mean(), abs=1e-12)


def test_nll_invariant_under_row_permutation():
    p = init_params(3, 8, np.random.default_rng(8))
    X = np.random.default_rng(9).standard_normal((10, 3))
    cfg = IntegratorConfig(0.1, 5)
    a = nll_loss(p, X, cfg, want_grad=False)
    b = nll_loss(p, X[::-1].copy(), cfg, want_grad=False)
    assert a.value == pytest.approx(b.value, abs=1e-12)


class _NegBaseEnergy:
    """E(x) = -ln N(x) through the library's own kernel, so the loss is exactly zero."""

    n_dim = 3

    def energy(self, X):
        from maflow import gaussian_log_density
        return -gaussian_log_density(X)

    def grad(self, X):
        return X


class _UnnormalizedGaussianEnergy:
    """E(x) = |x|^2 / 2, Z = (2 pi)^{n/2}."""

    def __init__(self, n):
        self.n_dim = n

    def energy(self, X):
        return 0.5 * (X ** 2).sum(axis=1)

    def grad(self, X):
        return X


def test_variational_zero_for_matched_target():
    pot = QuadraticPotential(0.0, 3)
    res = variational_loss(pot, _NegBaseEnergy(), 64, IntegratorConfig(0.1, 5),
                           np.random.default_rng(10), want_grad=False)
    assert res.value == 0.0
    assert np.array_equal(res.per_sample, np.zeros(64))


def test_variational_equals_minus_log_z_for_gaussian_energy():
    # KL = 0, so the loss equals -ln Z = -(n/2) ln 2pi exactly
    n = 4
    pot = QuadraticPotential(0.0, n)
    res = variational_loss(pot, _UnnormalizedGaussianEnergy(n), 64,
                           IntegratorConfig(0.1, 5), np.random.default_rng(11),
                           want_grad=False)
    assert res.value == pytest.approx(-0.5 * n * math.log(2 * math.pi), abs=1e-12)


def test_losses_reproducible_under_seed():
    p = init_params(4, 8, np.random.default_rng(12))
    energy = IsingEnergy(ising_spec(2))
    cfg = IntegratorConfig(0.1, 10)
    a = variational_loss(p, energy, 32, cfg, np.random.default_rng(5))
    b = variational_loss(p, energy, 32, cfg, np.random.default_rng(5))
    assert a.value == b.value
    assert np.array_equal(a.grad.to_vector(), b.grad.to_vector())


def _evaluator(symmetrized, L=2):
    p = init_params(L * L, 8, np.random.default_rng(13))
    p = PotentialParams(p.W, p.b, p.a * 3.0, 0.0)
    return build_potential(p, ising_group(L) if symmetrized else None, "sampled", "stage")


@pytest.mark.parametrize("want_grad", [False, True])
@pytest.mark.parametrize("symmetrized", [False, True])
def test_nll_loss_is_log_prob_bitwise(symmetrized, want_grad):
    pot = _evaluator(symmetrized)
    X = np.random.default_rng(14).standard_normal((9, 4)) * 1.3
    cfg = IntegratorConfig(0.1, 6)
    res = nll_loss(pot, X, cfg, rng=np.random.default_rng(15), want_grad=want_grad)
    lp = log_prob(pot, X, cfg, rng=np.random.default_rng(15))
    assert np.array_equal(res.per_sample, -lp)
    assert res.value == -float(lp.mean())


@pytest.mark.parametrize("want_grad", [False, True])
@pytest.mark.parametrize("symmetrized", [False, True])
def test_variational_loss_is_sample_plus_energy_bitwise(symmetrized, want_grad):
    pot = _evaluator(symmetrized)
    energy = IsingEnergy(ising_spec(2))
    cfg = IntegratorConfig(0.1, 6)
    res = variational_loss(pot, energy, 9, cfg, np.random.default_rng(16), want_grad=want_grad)
    s = sample(pot, 9, cfg, np.random.default_rng(16))
    assert np.array_equal(res.per_sample, s.L + energy.energy(s.X))
    assert res.value == float(res.per_sample.mean())
