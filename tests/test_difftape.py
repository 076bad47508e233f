"""Reverse-mode differentiation through recorded trajectories vs finite differences."""

import collections
import dataclasses
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from maflow import flow
from maflow import (FlowState, IntegratorConfig, MLPPotential, NumericError, ParamGrad,
                    PotentialParams, StaleTapeError, SymmetrizedPotential, backprop,
                    build_potential, gaussian_log_density, group_by_name, init_params, integrate,
                    ising_group, nll_loss, replay, variational_loss)
from maflow.flow import StepRecord
from maflow.gradcheck import central_difference, run_gradcheck
from maflow.targets import IsingEnergy, ising_spec


def random_params(n, h, seed=0, amp=3.0):
    rng = np.random.default_rng(seed)
    p = init_params(n, h, rng)
    return PotentialParams(p.W, rng.standard_normal(h) * 0.2, p.a * amp, 0.0)


def make_trajectory(params, X, eps=0.1, steps=5, direction="forward"):
    st = FlowState(X, gaussian_log_density(X), 0.0)
    return integrate(MLPPotential(params), st, IntegratorConfig(eps, steps, direction),
                     record=True)


def test_replay_reproduces_terminal_state_bitwise():
    p = random_params(3, 16, seed=1)
    X = np.random.default_rng(1).standard_normal((9, 3))
    fin, traj = make_trajectory(p, X, steps=20)
    rx, rl = replay(traj)
    assert np.array_equal(rx, fin.X)
    assert np.array_equal(rl, fin.L)


@pytest.mark.parametrize("step", [0, 2])
def test_replay_names_the_step_whose_stages_were_corrupted(step):
    # a stage of an inner step changes that step's update but not the recorded entry
    # state of the next one, which replay checks for every step
    p = random_params(3, 16, seed=1)
    X = np.random.default_rng(1).standard_normal((9, 3))
    _, traj = make_trajectory(p, X, steps=5)
    if step == 0:
        traj.steps[0].stage_grad[1][...] += 1.0
    else:
        traj.steps[2].stage_lap[0][...] *= 7.0
    with pytest.raises(StaleTapeError, match=f"^step {step}'s recorded stages"):
        replay(traj)


def test_zero_cotangents_give_zero_gradient():
    p = random_params(3, 8, seed=2)
    X = np.random.default_rng(2).standard_normal((4, 3))
    _, traj = make_trajectory(p, X)
    res = backprop(traj, p, np.zeros((4, 3)), np.zeros(4))
    assert np.array_equal(res.param_grad.to_vector(), np.zeros(p.size))
    assert np.array_equal(res.d_x0, np.zeros((4, 3)))


def test_single_step_laplacian_gradient_matches_fd():
    # d=1, loss = mean(L_1): only the Laplacian term enters through the a-weights
    n, h = 3, 6
    p = PotentialParams(np.random.default_rng(3).standard_normal((h, n)) * 0.5,
                        np.zeros(h), np.zeros(h), 0.0)
    X = np.random.default_rng(4).standard_normal((5, n))

    def loss(pp):
        st = FlowState(X, np.zeros(X.shape[0]), 0.0)
        fin, traj = integrate(MLPPotential(pp), st, IntegratorConfig(0.1, 1), record=True)
        return fin, traj

    fin, traj = loss(p)
    B = X.shape[0]
    res = backprop(traj, p, np.zeros_like(X), np.full(B, 1.0 / B))
    g = res.param_grad.to_vector()
    vec = p.to_vector()
    for j in np.random.default_rng(5).choice(p.size, 15, replace=False):
        up, dn = vec.copy(), vec.copy()
        up[j] += 1e-6
        dn[j] -= 1e-6
        lp = loss(PotentialParams.from_vector(up, n, h))[0].L.mean()
        lm = loss(PotentialParams.from_vector(dn, n, h))[0].L.mean()
        fd = (lp - lm) / 2e-6
        assert abs(g[j] - fd) <= 1e-6 * max(abs(fd), abs(g[j]), 1e-3)


def test_full_pipeline_nll_gradient_matches_fd():
    p = random_params(4, 16, seed=6)
    cfg = IntegratorConfig(0.1, 20)
    rng = np.random.default_rng(8)
    for B in (8, 64):       # 64 rows run as two parts
        X = np.random.default_rng(7).standard_normal((B, 4)) * 1.3
        g = nll_loss(p, X, cfg).grad.to_vector()
        checked = 0
        for j in rng.choice(p.size, 20, replace=False):
            fd = central_difference(
                lambda pp: nll_loss(pp, X, cfg, want_grad=False).value, p, int(j))
            assert abs(g[j] - fd) <= 1e-4 * max(abs(fd), abs(g[j]), 1e-5)
            checked += 1
        assert checked >= 20


def test_variational_gradient_matches_fd():
    p = random_params(4, 16, seed=9)
    energy = IsingEnergy(ising_spec(2))
    cfg = IntegratorConfig(0.1, 20)
    # 64 rows run as two parts, which share the sampled group elements
    for B, group in ((8, "none"), (64, "ising-full")):

        def loss(pp, want_grad=True):
            pot = build_potential(pp, group_by_name(group, 4), "sampled")
            return variational_loss(pot, energy, B, cfg, np.random.default_rng(55),
                                    want_grad=want_grad)

        g = loss(p).grad.to_vector()
        for j in np.random.default_rng(10).choice(p.size, 20, replace=False):
            fd = central_difference(lambda pp: loss(pp, want_grad=False).value, p, int(j))
            assert abs(g[j] - fd) <= 1e-4 * max(abs(fd), abs(g[j]), 1e-5)


def test_gradient_linearity_in_cotangents():
    p = random_params(3, 8, seed=11)
    X = np.random.default_rng(11).standard_normal((6, 3))
    _, traj = make_trajectory(p, X, steps=10)
    rng = np.random.default_rng(12)
    dx1, dl1 = rng.standard_normal((6, 3)), rng.standard_normal(6)
    dx2, dl2 = rng.standard_normal((6, 3)), rng.standard_normal(6)
    a, b = 0.7, -1.3
    g1 = backprop(traj, p, dx1, dl1).param_grad.to_vector()
    g2 = backprop(traj, p, dx2, dl2).param_grad.to_vector()
    g = backprop(traj, p, a * dx1 + b * dx2, a * dl1 + b * dl2).param_grad.to_vector()
    assert np.abs(g - (a * g1 + b * g2)).max() < 1e-9 * max(1.0, np.abs(g).max())


def test_gradient_exact_at_coarse_steps():
    # differentiate-the-discretization: exactness does not depend on epsilon
    p = random_params(3, 8, seed=13, amp=1.0)
    X = np.random.default_rng(13).standard_normal((4, 3))
    cfg = IntegratorConfig(0.7, 3)
    res = nll_loss(p, X, cfg)
    g = res.grad.to_vector()
    for j in np.random.default_rng(14).choice(p.size, 10, replace=False):
        fd = central_difference(
            lambda pp: nll_loss(pp, X, cfg, want_grad=False).value, p, int(j))
        assert abs(g[j] - fd) <= 1e-4 * max(abs(fd), abs(g[j]), 1e-5)


def test_input_cotangents_match_fd():
    # d loss / d x_data, needed when the inputs are the data themselves
    p = random_params(3, 8, seed=15)
    X = np.random.default_rng(15).standard_normal((4, 3))
    cfg = IntegratorConfig(0.1, 10)

    def loss_of_data(Xv):
        return nll_loss(p, Xv, cfg, want_grad=False).value

    st = FlowState(X, np.zeros(4), cfg.total_time)
    fin, traj = integrate(MLPPotential(p), st, cfg.reversed(), record=True)
    d_x = fin.X / 4
    d_l = np.full(4, 1.0 / 4)
    res = backprop(traj, p, d_x, d_l)
    h = 1e-6
    for (i, j) in [(0, 0), (1, 2), (3, 1)]:
        up, dn = X.copy(), X.copy()
        up[i, j] += h
        dn[i, j] -= h
        fd = (loss_of_data(up) - loss_of_data(dn)) / (2 * h)
        assert abs(res.d_x0[i, j] - fd) <= 1e-5 * max(abs(fd), 1e-4)


def test_stale_tape_rejected():
    p = random_params(3, 8, seed=16)
    X = np.random.default_rng(16).standard_normal((4, 3))
    _, traj = make_trajectory(p, X)
    other = PotentialParams(p.W, p.b, p.a * 1.001, p.c)
    with pytest.raises(StaleTapeError):
        backprop(traj, other, np.zeros((4, 3)), np.zeros(4))


def test_backward_direction_tape():
    p = random_params(3, 8, seed=17)
    X = np.random.default_rng(17).standard_normal((5, 3))
    fin, traj = make_trajectory(p, X, steps=8, direction="backward")
    rx, rl = replay(traj)
    assert np.array_equal(rx, fin.X)
    res = backprop(traj, p, np.ones_like(X), np.zeros(5))
    assert np.isfinite(res.param_grad.to_vector()).all()


def reference_param_grad(traj, pot, d_x, d_l):
    """The summed vjp gradients' vector, in the order ``backprop`` documents."""
    total = None
    for rec in reversed(traj.steps):
        xs, eta = rec.stage_x, rec.eta
        kbar = [d_x * (eta * w / 6.0) for w in (1.0, 2.0, 2.0, 1.0)]
        lbar = [(eta * w / 6.0) * d_l for w in (1.0, 2.0, 2.0, 1.0)]
        d_x = d_x.copy()
        for i in (3, 2, 1, 0):
            pg, xcot = pot.vjp(xs[i], kbar[i], -lbar[i], ctx=rec.stage_ctx[i])
            total = pg if total is None else total.add(pg)
            d_x += xcot
            if i > 0:
                kbar[i - 1] = kbar[i - 1] + ((0.5, 0.5, 1.0)[i - 1] * eta) * xcot
    return total.to_vector()


@pytest.mark.parametrize("symmetrized", [False, True])
def test_backprop_returns_the_read_only_summed_param_grad(symmetrized):
    p = random_params(4, 16, seed=23)
    pot = MLPPotential(p)
    if symmetrized:
        pot = SymmetrizedPotential(pot, ising_group(2), mode="sampled", resample="stage")
    rng = np.random.default_rng(23)
    X = rng.standard_normal((6, 4))
    st = FlowState(X, gaussian_log_density(X), 0.0)
    _, traj = integrate(pot, st, IntegratorConfig(0.1, 5), rng=rng, record=True)
    d_x, d_l = rng.standard_normal((6, 4)), rng.standard_normal(6)
    grad = backprop(traj, pot, d_x, d_l).param_grad
    assert isinstance(grad, ParamGrad)
    vec = grad.to_vector()
    assert vec is grad.to_vector() and not vec.flags.writeable
    with pytest.raises(ValueError):
        vec[0] = 0.0
    assert np.array_equal(vec, reference_param_grad(traj, pot, d_x, d_l))


def test_gradcheck_suite():
    assert run_gradcheck(seed=0) < 1e-4


def test_non_finite_reverse_pass_is_a_numeric_error(fold_on):
    # overflow inside the reverse pass: no RuntimeWarning, on either thread, and the
    # error names a step
    p = init_params(3, 8, np.random.default_rng(0))
    p = PotentialParams(p.W * 30.0, p.b, p.a * 1e4, 0.0)
    X = np.random.default_rng(0).standard_normal((4, 3))
    _, traj = make_trajectory(p, X, steps=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="step"):
            fold_on(lambda: backprop(traj, p, np.full((4, 3), 1e308), np.zeros(4)))


class InfBiasGradientOnce:
    """Forwards every hook to an MLPPotential; the first vjp call's db gets an inf."""

    def __init__(self, params):
        self.inner, self.calls = MLPPotential(params), itertools.count()

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def vjp(self, X, w_grad, w_lap, ctx=None):
        pg, xcot = self.inner.vjp(X, w_grad, w_lap, ctx)
        if next(self.calls) == 0:
            pg.db[0] = np.inf
        return pg, xcot


def test_non_finite_parameter_gradient_is_a_numeric_error_in_one_part_and_in_two():
    p = random_params(3, 8, seed=25)
    cfg = IntegratorConfig(0.1, 3)
    X = np.random.default_rng(25).standard_normal((64, 3))
    message = r"^non-finite parameter gradient in the reverse pass$"
    with pytest.raises(NumericError, match=message):
        nll_loss(InfBiasGradientOnce(p), X, cfg)
    pot = InfBiasGradientOnce(p)
    _, traj = integrate(pot, FlowState(X, np.zeros(64)), cfg, record=True)
    with pytest.raises(NumericError, match=message):
        backprop(traj, pot, np.ones_like(X), np.ones(64))


def run_inline(fn, *args):
    """A completed future of ``fn(*args)``, run on the calling thread."""
    done = Future()
    done.set_result(fn(*args))
    return done


@pytest.mark.parametrize("mode", [None, "sampled", "average"])
def test_worker_gradient_is_bitwise_the_inline_one(monkeypatch, mode):
    # two row parts at once are bitwise the same two parts run on one thread, added in
    # part order, for both losses
    p = random_params(4, 16, seed=21)
    energy = IsingEnergy(ising_spec(2))
    cfg = IntegratorConfig(0.1, 5)
    pot = build_potential(p, None if mode is None else ising_group(2), mode or "sampled")
    rng = np.random.default_rng(21)
    data = rng.standard_normal((100, 4))
    names, submit = [], flow._submit

    def spy(fn, *args):
        names.append(threading.current_thread().name)
        return submit(fn, *args)

    for B in (32, 33, 64, 100):
        results = []
        for runner in (spy, run_inline):
            monkeypatch.setattr(flow, "_submit", runner)
            results.append([nll_loss(pot, data[:B], cfg, rng=np.random.default_rng(B)),
                            variational_loss(pot, energy, B, cfg, np.random.default_rng(B))])
        for two, one in zip(*results):
            assert two.value == one.value and np.array_equal(two.per_sample, one.per_sample)
            assert np.array_equal(two.grad.to_vector(), one.grad.to_vector())
    assert len(names) == 4 * 2 * 2      # a forward and a reverse task per loss call
    assert any(t.name.startswith("maflow-part") for t in threading.enumerate())


def test_concurrent_reverse_passes_share_the_worker():
    # four nll_loss callers, each splitting its batch with the one worker, under a
    # 1 us switch interval, give the serial results bit for bit
    p = random_params(5, 32, seed=24)
    cfg = IntegratorConfig(0.1, 6)
    rng = np.random.default_rng(24)
    Xs = [rng.standard_normal((64, 5)) for _ in range(4)]
    want = [nll_loss(p, X, cfg) for X in Xs]
    got = [None] * len(Xs)

    def run(j):
        got[j] = nll_loss(p, Xs[j], cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,), daemon=True) for j in range(len(Xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for w, g in zip(want, got):
        assert g.value == w.value and np.array_equal(g.grad.to_vector(), w.grad.to_vector())


@pytest.mark.parametrize("below,counts", [(1, "[0, 0, 0]"), (0, "[1, 1, 1]")],
                         ids=["31-rows", "32-rows"])
def test_worker_thread_started_once_by_the_first_batch_of_32_rows(below, counts):
    # counts after sample, after log_prob and after two nll_loss calls: a batch of 32
    # rows starts the one worker in its first forward pass, and nothing adds another
    code = f"""
import threading
n0 = threading.active_count()
import numpy as np
import maflow
from maflow import IntegratorConfig, build_potential, init_params, log_prob, nll_loss, sample
B = 32 - {below}
rng = np.random.default_rng(0)
pot = build_potential(init_params(3, 8, rng))
cfg = IntegratorConfig(0.1, 2)
X = sample(pot, B, cfg, rng).X
counts = [threading.active_count() - n0]
log_prob(pot, X, cfg)
counts.append(threading.active_count() - n0)
for _ in range(2):
    nll_loss(pot, X, cfg)
counts.append(threading.active_count() - n0)
print(counts)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == counts


class RecordingPotential:
    """Forwards every hook to ``inner`` and keeps a copy of each X given to grad_lap."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def grad_lap(self, X, ctx=None):
        self.seen.append(X.copy())
        return self.inner.grad_lap(X, ctx)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("symmetrized", [False, True])
def test_rebuilt_stage_inputs_equal_evaluated_ones(direction, symmetrized):
    p = random_params(4, 8, seed=18)
    pot = MLPPotential(p)
    if symmetrized:
        pot = SymmetrizedPotential(pot, ising_group(2), mode="sampled", resample="stage")
    rec_pot = RecordingPotential(pot)
    X = np.random.default_rng(18).standard_normal((5, 4))
    st = FlowState(X, gaussian_log_density(X), 0.0)
    _, traj = integrate(rec_pot, st, IntegratorConfig(0.3, 6, direction),
                        rng=np.random.default_rng(19), record=True)
    assert len(rec_pot.seen) == 4 * len(traj)
    for k, rec in enumerate(traj.steps):
        xs = rec.stage_x
        assert xs[0] is rec.x0
        for i in range(4):
            assert np.array_equal(xs[i], rec_pot.seen[4 * k + i])


def stored_arrays(rec):
    """The arrays a tape record holds in its dataclass fields."""
    out = []
    for f in dataclasses.fields(rec):
        v = getattr(rec, f.name)
        out.extend(a for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray))
    return out


def test_tape_holds_no_stage_inputs():
    B, n, h, steps = 5, 3, 8, 4
    p = random_params(n, h, seed=20)
    X = np.random.default_rng(20).standard_normal((B, n))
    _, traj = make_trajectory(p, X, steps=steps)
    assert "stage_x" not in [f.name for f in dataclasses.fields(StepRecord)]
    total = 0
    for rec in traj.steps:
        stored = stored_arrays(rec)
        total += sum(a.nbytes for a in stored)
        for xs in rec.stage_x[1:]:
            assert not any(a.shape == xs.shape and np.array_equal(a, xs) for a in stored)
    assert total == steps * B * (5 * n + 5) * 8


def test_tape_bytes_do_not_depend_on_hidden_width():
    B, n, steps = 5, 3, 4
    X = np.random.default_rng(21).standard_normal((B, n))
    sizes = []
    for h in (8, 256):
        _, traj = make_trajectory(random_params(n, h, seed=21), X, steps=steps)
        sizes.append(sum(a.nbytes for rec in traj.steps for a in stored_arrays(rec)))
    assert sizes == [steps * B * (5 * n + 5) * 8] * 2


def test_loss_and_grad_peak_stays_below_the_activation_caches():
    # a tape that kept the four (B, h) activations of every step would hold this alone
    B, n, h, steps = 16, 32, 512, 8
    caches = steps * 4 * B * h * 8
    p = random_params(n, h, seed=22, amp=1.0)
    X = np.random.default_rng(22).standard_normal((B, n))
    cfg = IntegratorConfig(0.05, steps, "backward")
    nll_loss(p, X, cfg)     # warm-up: lazy imports and first-call allocations
    tracemalloc.start()
    try:
        res = nll_loss(p, X, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.grad is not None
    assert peak < caches


def test_the_two_parts_sum_allocates_no_third_weight_array(monkeypatch):
    # an (h, n) array outweighs the tape here.  Once both parts are reversed, each part's
    # sum holds its dW and a scratch buffer of a few rows; adding them allocates no other
    # (h, n) array, and the gradient returned is one of the parts' own
    B, n, h = 32, 256, 1024
    p = random_params(n, h, seed=25, amp=1.0)
    X = np.random.default_rng(25).standard_normal((B, n))
    cfg = IntegratorConfig(0.05, 1, "backward")
    big = h * n * 8 // 2
    assert B * (5 * n + 5) * 8 < big
    in_parts, marks = flow._in_parts, []

    def marking(fn, parts):
        out = in_parts(fn, parts)
        if tracemalloc.is_tracing():
            marks.append((tracemalloc.get_traced_memory()[0], tracemalloc.take_snapshot()))
            tracemalloc.reset_peak()
        return out

    def large(snapshot):
        return collections.Counter(t.traceback for t in snapshot.traces if t.size >= big)

    monkeypatch.setattr(flow, "_in_parts", marking)
    pot = MLPPotential(p)   # built here, so its a_k W_k cache is not traced
    nll_loss(pot, X, cfg)   # warm-up: lazy imports and first-call allocations
    tracemalloc.start()
    try:
        res = nll_loss(pot, X, cfg)
        peak = tracemalloc.get_traced_memory()[1]
        end = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(marks) == 2      # the forward parts, then the reverse parts
    reversed_at, reversed_snapshot = marks[1]
    assert peak - reversed_at < big
    assert sum(large(reversed_snapshot).values()) == 2
    assert res.grad.to_vector().nbytes > big
    assert large(end) - large(reversed_snapshot) == collections.Counter()
