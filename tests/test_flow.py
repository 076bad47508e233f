"""Integrator correctness: trivial flows, the exact Gaussian solution,
reversibility, and sample/log_prob consistency."""

import math

import numpy as np
import pytest

from maflow import (FlowState, GaussianFlowSolution, IntegratorConfig, MLPPotential,
                    NumericError, PotentialParams, QuadraticPotential, gaussian_base,
                    gaussian_log_density, init_params, integrate, log_prob, nll_loss, sample)


def strong_params(n=4, h=32, amp=18.0):
    p = init_params(n, h, np.random.default_rng(7))
    return PotentialParams(p.W * 2.0, np.random.default_rng(8).standard_normal(h) * 0.5,
                           p.a * amp, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(0.0, 10)
    with pytest.raises(ValueError):
        IntegratorConfig(0.1, 0)
    with pytest.raises(ValueError):
        IntegratorConfig(0.1, 10, "sideways")
    assert IntegratorConfig(0.1, 10).total_time == pytest.approx(1.0)


def test_zero_potential_is_identity_flow():
    pot = QuadraticPotential(0.0, 3)
    X = np.random.default_rng(0).standard_normal((5, 3))
    st = FlowState(X, gaussian_log_density(X), 0.0)
    out, _ = integrate(pot, st, IntegratorConfig(0.1, 1))
    assert np.array_equal(out.X, X)
    assert np.array_equal(out.L, st.L)
    assert out.t == pytest.approx(0.1)
    fin, _ = integrate(pot, st, IntegratorConfig(0.1, 25))
    assert np.array_equal(fin.X, X)


def test_single_quadratic_step_matches_exponential():
    pot = QuadraticPotential(0.5, 1)
    st = FlowState(np.array([[1.0]]), np.zeros(1), 0.0)
    out, _ = integrate(pot, st, IntegratorConfig(0.1, 1))
    assert abs(out.X[0, 0] - math.exp(0.05)) < 1e-7


def test_quadratic_integrate_matches_oracle():
    pot = QuadraticPotential(0.5, 1)
    grid = np.linspace(-3, 3, 61)[:, None]
    st = FlowState(grid, gaussian_log_density(grid), 0.0)
    fin, _ = integrate(pot, st, IntegratorConfig(0.1, 10))
    oracle = GaussianFlowSolution(0.5, 1.0)
    exact = oracle.map(grid[:, 0])
    # per-step relative truncation (lam*eps)^5/5! compounds to ~2.6e-8 over 10 steps
    nz = np.abs(exact) > 0.1
    assert (np.abs(fin.X[:, 0] - exact)[nz] / np.abs(exact)[nz]).max() < 3e-8
    assert np.abs(fin.X[:, 0] - exact).max() < 1e-6
    assert np.abs(fin.L - oracle.log_density(fin.X[:, 0])).max() < 1e-6


def test_forward_backward_roundtrip_and_order():
    pot = MLPPotential(strong_params())
    X0 = np.random.default_rng(9).standard_normal((16, 4))
    st = FlowState(X0, gaussian_log_density(X0), 0.0)
    errs = []
    for eps, d in ((0.1, 100), (0.05, 200), (0.025, 400)):
        mid, _ = integrate(pot, st, IntegratorConfig(eps, d))
        back, _ = integrate(pot, mid, IntegratorConfig(eps, d, "backward"))
        errs.append(max(np.abs(back.X - X0).max(), np.abs(back.L - st.L).max()))
        assert back.t == pytest.approx(0.0, abs=1e-12)
    assert errs[0] < 1e-4
    # at least fourth order: halving the step cuts the error by 8x to 32x
    for a, b in zip(errs, errs[1:]):
        assert 8.0 <= a / b <= 32.0


def test_single_step_roundtrip_small_eps():
    pot = MLPPotential(strong_params(amp=5.0))
    X0 = np.random.default_rng(10).standard_normal((8, 4))
    st = FlowState(X0, gaussian_log_density(X0), 0.0)
    mid, _ = integrate(pot, st, IntegratorConfig(0.01, 1))
    back, _ = integrate(pot, mid, IntegratorConfig(0.01, 1, "backward"))
    assert np.abs(back.X - X0).max() < 1e-10


def test_sample_zero_potential_is_base_gaussian():
    pot = QuadraticPotential(0.0, 3)
    state = sample(pot, 128, IntegratorConfig(0.1, 5), np.random.default_rng(3))
    ref = gaussian_base(3, 128, np.random.default_rng(3))
    assert np.array_equal(state.X, ref.X)
    expect = -0.5 * (3 * math.log(2 * math.pi) + (state.X ** 2).sum(axis=1))
    assert np.abs(state.L - expect).max() < 1e-12


def test_sample_quadratic_std_grows_exponentially():
    lam, T = 0.4, 1.0
    pot = QuadraticPotential(lam, 1)
    state = sample(pot, 10_000, IntegratorConfig(0.1, 10), np.random.default_rng(4))
    target = math.exp(lam * T)
    std = state.X[:, 0].std()
    assert abs(std - target) < 4.0 * target / math.sqrt(2 * 10_000)


def test_sample_deterministic_given_seed():
    pot = QuadraticPotential(0.2, 2)
    cfg = IntegratorConfig(0.1, 5)
    a = sample(pot, 16, cfg, np.random.default_rng(11))
    b = sample(pot, 16, cfg, np.random.default_rng(11))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.L, b.L)


def test_log_prob_zero_potential_is_base_density():
    pot = QuadraticPotential(0.0, 2)
    X = np.random.default_rng(5).standard_normal((32, 2))
    lp = log_prob(pot, X, IntegratorConfig(0.1, 8))
    assert np.abs(lp - gaussian_log_density(X)).max() < 1e-12


def test_log_prob_quadratic_matches_closed_form():
    lam, T = 0.5, 1.0
    pot = QuadraticPotential(lam, 1)
    oracle = GaussianFlowSolution(lam, T)
    X = np.linspace(-4, 4, 41)[:, None]
    lp = log_prob(pot, X, IntegratorConfig(0.1, 10))
    assert np.abs(lp - oracle.log_density(X[:, 0])).max() < 1e-6


def test_sample_log_prob_self_consistency():
    pot = MLPPotential(strong_params(amp=8.0))
    cfg = IntegratorConfig(0.1, 50)
    state = sample(pot, 64, cfg, np.random.default_rng(6))
    lp = log_prob(pot, state.X, cfg)
    assert np.abs(lp - state.L).max() < 1e-5


def test_probability_mass_conservation_quadratic():
    # with the analytic Jacobian e^{n lam T} reinserted, importance weights average to 1
    lam, T, n = 0.3, 1.0, 2
    pot = QuadraticPotential(lam, n)
    cfg = IntegratorConfig(0.1, 10)
    state = sample(pot, 20_000, cfg, np.random.default_rng(12))
    base = gaussian_base(n, 20_000, np.random.default_rng(12))
    w = np.exp(base.L - state.L - n * lam * T)
    # the laplacian is constant here so the weights are exactly 1 up to roundoff
    assert abs(w.mean() - 1.0) < max(4.0 * w.std() / math.sqrt(w.size), 1e-12)


def test_non_finite_aborts_with_row_diagnostics():
    pot = QuadraticPotential(1.0, 2)
    X = np.array([[1.0, 1.0], [1e160, 1e160]])
    st = FlowState(X, np.zeros(2), 0.0)
    with pytest.raises(NumericError, match="row 1"):
        integrate(pot, st, IntegratorConfig(10.0, 400), rng=None)


class NanGradientAt(QuadraticPotential):
    """A quadratic field whose gradient is NaN in one row of one stage evaluation."""

    def __init__(self, step, stage, row):
        super().__init__(0.2, 2)
        self.calls, self.bad_call, self.row = 0, 4 * step + stage - 1, row

    def grad_lap(self, X, ctx=None):
        G, lap = super().grad_lap(X, ctx)
        if self.calls == self.bad_call:
            G[self.row] = np.nan
        self.calls += 1
        return G, lap


def test_non_finite_stage_gradient_names_its_step_and_row():
    pot = NanGradientAt(step=3, stage=2, row=2)
    X = np.random.default_rng(13).standard_normal((5, 2))
    with pytest.raises(NumericError, match=r"step 3, batch row 2$"):
        integrate(pot, FlowState(X, np.zeros(5)), IntegratorConfig(0.1, 6))
    assert pot.calls == 4 * 3 + 4       # the step ran its four stages, and no later step began


# log_prob's backward pass of a 64-row batch, as two row parts and, through integrate, as one
BOTH_PATHS = pytest.mark.parametrize("run", [
    lambda pot, X, cfg: log_prob(pot, X, cfg),
    lambda pot, X, cfg: integrate(pot, FlowState(X, np.zeros(len(X)), cfg.total_time),
                                  cfg.reversed()),
], ids=["two-parts", "one-part"])


@BOTH_PATHS
def test_two_row_parts_report_the_failure_one_part_reports(run):
    # row 40 (the caller's part) fails at step 2, row 0 (the worker's part) only at step 74
    pot, cfg = QuadraticPotential(-1.0, 2), IntegratorConfig(10.0, 400)
    X = np.ones((64, 2))
    X[0], X[40] = 1e100, 1e300
    with pytest.raises(NumericError, match=r"step 2, batch row 40$"):
        run(pot, X, cfg)
    # a tie goes to part 0, which holds the lower rows
    X[0] = 1e300
    with pytest.raises(NumericError, match=r"step 2, batch row 0$"):
        run(pot, X, cfg)


class NanLaplacianAndGradient(QuadraticPotential):
    """A still field whose Laplacian is NaN in the row with first coordinate 2 and whose
    gradient is NaN in the row with first coordinate 40."""

    def __init__(self):
        super().__init__(0.0, 2)

    def grad_lap(self, X, ctx=None):
        G, lap = super().grad_lap(X, ctx)
        lap[X[:, 0] == 2.0] = np.nan
        G[X[:, 0] == 40.0] = np.nan
        return G, lap


@BOTH_PATHS
def test_both_paths_name_the_lowest_row_with_a_bad_position_or_log_density(run):
    # row 2's log-density and row 40's position turn non-finite in the same step, in the
    # worker's part and the caller's part of two
    X = np.stack([np.arange(64.0), np.zeros(64)], axis=1)
    with pytest.raises(NumericError, match=r"step 0, batch row 2$"):
        run(NanLaplacianAndGradient(), X, IntegratorConfig(0.1, 3))


class NanCotangentAt(QuadraticPotential):
    """A quadratic field whose vjp gives a NaN cotangent at one reverse step of each row part,
    told apart by the sign of the part's rows."""

    def __init__(self, steps, bad_step):
        super().__init__(0.2, 2)
        self.steps, self.bad_step, self.calls = steps, bad_step, {True: 0, False: 0}

    def vjp(self, X, w_grad, w_lap, ctx=None):
        part = bool(X[0, 0] > 0)
        step = self.steps - 1 - self.calls[part] // 4     # the reverse pass runs steps downward
        self.calls[part] += 1
        pg, xcot = super().vjp(X, w_grad, w_lap, ctx)
        return pg, xcot * np.nan if step == self.bad_step[part] else xcot


def test_two_reverse_parts_report_the_step_the_reverse_pass_reaches_first():
    X = np.ones((64, 2))
    X[32:] = -1.0           # part 1, on the caller, fails at step 3, which the pass reaches first
    pot = NanCotangentAt(5, {True: 1, False: 3})
    with pytest.raises(NumericError, match=r"reverse pass at step 3$"):
        nll_loss(pot, X, IntegratorConfig(0.1, 5))
    assert pot.calls == {True: 4 * 4, False: 2 * 4}     # both parts ran to their own failure


def test_dimension_mismatch():
    pot = QuadraticPotential(0.1, 3)
    st = FlowState(np.zeros((2, 2)), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        integrate(pot, st, IntegratorConfig(0.1, 2))
    with pytest.raises(ValueError):
        log_prob(pot, np.zeros((2, 2)), IntegratorConfig(0.1, 2))


def test_callback_sees_every_step():
    # sample's callback sees whole states: 40 rows, which without it run as two parts
    pot = QuadraticPotential(0.1, 1)
    seen = []
    final = sample(pot, 40, IntegratorConfig(0.1, 7), np.random.default_rng(0),
                   callback=lambda k, s: seen.append((k, s.X.copy(), s.t)))
    assert [k for k, _, _ in seen] == list(range(1, 8))
    assert all(X.shape == (40, 1) for _, X, _ in seen)
    assert np.array_equal(seen[-1][1], final.X) and seen[-1][2] == final.t
