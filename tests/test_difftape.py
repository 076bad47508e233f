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

import numpy as np
import pytest

from maflow import flow
from maflow import (FlowState, IntegratorConfig, MLPPotential, NumericError, ParamGrad,
                    PotentialParams, StaleTapeError, SymmetrizedPotential, backprop,
                    build_potential, gaussian_base, gaussian_log_density, group_by_name,
                    init_params, integrate, ising_group, log_prob, nll_loss, replay, sample,
                    variational_loss)
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


class Unhashable(MLPPotential):
    """An MLPPotential whose fingerprint raises."""

    def fingerprint(self):
        raise AssertionError("the parameters were hashed")


@pytest.mark.parametrize("B", [31, 64], ids=["one-part", "two-parts"])
def test_the_losses_never_hash_the_parameters(jobs, B):
    # only integrate(record=True) and backprop check a tape against its potential; a loss
    # records and reverses its own tape, in one part or two, and hashes nothing
    p = random_params(4, 16, seed=38)
    energy = IsingEnergy(ising_spec(2))
    cfg = IntegratorConfig(0.1, 3)
    X = np.random.default_rng(38).standard_normal((B, 4))

    def losses(pot):
        return [nll_loss(pot, X, cfg),
                variational_loss(pot, energy, B, cfg, np.random.default_rng(38))]

    assert_same_calls(losses(Unhashable(p)), losses(MLPPotential(p)))
    assert len(jobs) == (4 if B == 64 else 0)


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
    # overflow inside the reverse pass: no RuntimeWarning, on the caller or in a child, and the
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
        if name.startswith("__"):       # as pickle looks them up, before inner is set
            raise AttributeError(name)
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


def in_sequence(monkeypatch):
    """Make every two-part call run its parts in sequence on the caller, as without a worker."""
    monkeypatch.setattr(flow, "_take_worker", lambda args: None)


@pytest.mark.parametrize("mode", [None, "sampled", "average"])
def test_worker_gradient_is_bitwise_the_inline_one(monkeypatch, jobs, mode):
    # two row parts at once, rows :k in the standing worker, are bitwise the same two parts run
    # in sequence on the caller, for both losses
    p = random_params(4, 16, seed=21)
    energy = IsingEnergy(ising_spec(2))
    cfg = IntegratorConfig(0.1, 5)
    pot = build_potential(p, None if mode is None else ising_group(2), mode or "sampled")
    rng = np.random.default_rng(21)
    data = rng.standard_normal((100, 4))
    for B in (32, 33, 64, 100):
        results = []
        for inline in (False, True):
            with monkeypatch.context() as m:
                if inline:
                    in_sequence(m)
                results.append([nll_loss(pot, data[:B], cfg, rng=np.random.default_rng(B)),
                                variational_loss(pot, energy, B, cfg, np.random.default_rng(B))])
        for two, one in zip(*results):
            assert two.value == one.value and np.array_equal(two.per_sample, one.per_sample)
            assert np.array_equal(two.grad.to_vector(), one.grad.to_vector())
    assert len(jobs) == 4 * 2 and len(set(jobs)) == 1   # one worker takes every loss call


class CountsFlushes:
    """A file that forwards to ``inner`` and counts its flushes, one per message, in
    ``counts["sent"]``."""

    def __init__(self, inner, counts):
        self.inner, self.counts = inner, counts

    def flush(self):
        self.counts["sent"] += 1
        self.inner.flush()

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_a_two_part_recording_call_makes_one_round_trip_to_the_worker(monkeypatch, jobs):
    # the job holds the loss's end rule, so the worker reverses its rows from their own
    # cotangents: each loss sends one message and reads one reply
    pot = MLPPotential(random_params(4, 16, seed=39))
    cfg = IntegratorConfig(0.1, 3)
    X = np.random.default_rng(39).standard_normal((64, 4))
    log_prob(pot, X, cfg)       # forks the worker
    counts, recv = collections.Counter(), flow._Worker.recv

    def counting_recv(worker):
        counts["read"] += 1
        return recv(worker)

    monkeypatch.setattr(flow._Worker, "recv", counting_recv)
    monkeypatch.setattr(flow._worker, "_outbox", CountsFlushes(flow._worker._outbox, counts))
    nll_loss(pot, X, cfg)
    variational_loss(pot, IsingEnergy(ising_spec(2)), 64, cfg, np.random.default_rng(39))
    assert counts == {"sent": 2, "read": 2}
    assert len(jobs) == 3 and len(set(jobs)) == 1


def test_successive_jobs_use_their_own_parameters(monkeypatch, jobs):
    # the worker keeps nothing of a job's evaluator: calls under other parameters, and back,
    # are each bitwise the parts run in sequence
    energy = IsingEnergy(ising_spec(2))
    cfg = IntegratorConfig(0.1, 4)
    group = ising_group(2)
    data = np.random.default_rng(27).standard_normal((64, 4))
    pots = [build_potential(random_params(4, 16, seed=s), group, "sampled") for s in (27, 28, 27)]

    def losses(pot):
        return [nll_loss(pot, data, cfg, rng=np.random.default_rng(27)),
                variational_loss(pot, energy, 64, cfg, np.random.default_rng(27))]

    got = [losses(pot) for pot in pots]
    in_sequence(monkeypatch)
    for pot, two in zip(pots, got):
        for t, one in zip(two, losses(pot)):
            assert t.value == one.value and np.array_equal(t.per_sample, one.per_sample)
            assert np.array_equal(t.grad.to_vector(), one.grad.to_vector())
    assert len(jobs) == 3 * 2 and len(set(jobs)) == 1


class Forward:
    """Forwards every attribute to ``inner``; it pickles for the row-part worker."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        if name.startswith("__"):       # as pickle looks them up, before inner is set
            raise AttributeError(name)
        return getattr(self.inner, name)


class Locked(Forward):
    """A forwarding evaluator that holds a lock, so it does not pickle."""

    def __init__(self, inner):
        super().__init__(inner)
        self.lock = threading.Lock()


class HoldsALambda(Forward):
    """A forwarding energy that holds a lambda, so it does not pickle."""

    def __init__(self, inner):
        super().__init__(inner)
        self.held = lambda X: X


class CountsWorkerCalls(Forward):
    """Forwards to ``inner``; counts in ``calls[0]``, in memory shared with the worker, the
    grad_lap calls made in another process than the caller's."""

    def __init__(self, inner, calls):
        super().__init__(inner)
        self.calls, self.caller = calls, os.getpid()

    def grad_lap(self, X, ctx=None):
        if os.getpid() != self.caller:
            self.calls[0] += 1
        return self.inner.grad_lap(X, ctx)


def assert_same_calls(got, want):
    """Equal bits of ``sample`` states and of loss values, rows and gradients."""
    for g, w in zip(got, want):
        if isinstance(w, FlowState):
            assert np.array_equal(g.X, w.X) and np.array_equal(g.L, w.L)
        else:
            assert g.value == w.value and np.array_equal(g.per_sample, w.per_sample)
            assert np.array_equal(g.grad.to_vector(), w.grad.to_vector())


def test_a_job_that_does_not_pickle_runs_in_sequence_and_the_worker_stays(monkeypatch, jobs):
    # the calls of an evaluator that does not pickle, and the variational loss of a target that
    # does not pickle, send no job and have the bits of the parts run in sequence; the worker
    # takes the next call that pickles
    pot = MLPPotential(random_params(4, 16, seed=31))
    energy = IsingEnergy(ising_spec(2))
    cfg = IntegratorConfig(0.1, 4)
    X = np.random.default_rng(31).standard_normal((64, 4))

    def calls(p, e):
        return [sample(p, 64, cfg, np.random.default_rng(32)), nll_loss(p, X, cfg),
                variational_loss(p, e, 64, cfg, np.random.default_rng(33))]

    log_prob(pot, X, cfg)
    assert len(jobs) == 1
    got = calls(Locked(pot), energy)
    got.append(variational_loss(pot, HoldsALambda(energy), 64, cfg, np.random.default_rng(33)))
    assert len(jobs) == 1
    log_prob(pot, X, cfg)
    assert len(jobs) == 2 and len(set(jobs)) == 1
    in_sequence(monkeypatch)
    want = calls(pot, energy)
    assert_same_calls(got, want + want[-1:])


def test_a_job_the_worker_cannot_load_runs_on_the_caller_and_the_worker_stays(monkeypatch, jobs,
                                                                              shared_zeros):
    # a class bound only after the fork is pickled by name, and the worker cannot find it: its
    # calls have the bits of the parts run in sequence, the worker stays, and takes the next
    # call, whose group's tables are sent again
    tables = []         # for each job's group: whether its tables went with the job
    persistent_id = flow._JobPickler.persistent_id

    def spy(pickler, obj):
        pid = persistent_id(pickler, obj)
        if pid is not None:
            tables.append(pid[1] is not None)
        return pid

    monkeypatch.setattr(flow._JobPickler, "persistent_id", spy)
    sym = build_potential(random_params(16, 16, seed=33), group_by_name("ising-full", 16),
                          "sampled")
    pot = CountsWorkerCalls(sym, shared_zeros(1))
    cfg = IntegratorConfig(0.1, 3)
    X = np.random.default_rng(33).standard_normal((64, 16))

    def calls(p):
        return [sample(p, 64, cfg, np.random.default_rng(34)),
                nll_loss(p, X, cfg, rng=np.random.default_rng(35))]

    want = calls(pot)
    assert tables == [True, False] and pot.calls[0] == 2 * 4 * cfg.steps
    late = type("LateForward", (Forward,), {"__module__": __name__})
    monkeypatch.setattr(sys.modules[__name__], "LateForward", late, raising=False)
    assert_same_calls(calls(late(pot)), want)
    assert tables[2:] == [False, True] and pot.calls[0] == 2 * 4 * cfg.steps
    assert_same_calls(calls(pot), want)
    assert tables[4:] == [True, False] and pot.calls[0] == 4 * 4 * cfg.steps
    assert len(jobs) == 6 and len(set(jobs)) == 1
    in_sequence(monkeypatch)
    assert_same_calls(calls(sym), want)


class DoubledField(MLPPotential):
    """The potential 2 phi: a subclass with kernels of its own."""

    def grad_lap(self, X, ctx=None):
        G, lap = super().grad_lap(X, ctx)
        return 2.0 * G, 2.0 * lap

    def vjp(self, X, w_grad, w_lap, ctx=None):
        return super().vjp(X, 2.0 * w_grad, 2.0 * w_lap, ctx)


def test_the_worker_runs_a_subclass_with_its_own_kernels(jobs):
    # a subclass of MLPPotential crosses to the worker whole: two-part calls equal the one-part
    # run in every row
    pot = DoubledField(random_params(4, 16, seed=36))
    cfg = IntegratorConfig(0.1, 4)
    X = np.random.default_rng(36).standard_normal((64, 4))
    two = sample(pot, 64, cfg, np.random.default_rng(37))
    rng = np.random.default_rng(37)
    one, _ = integrate(pot, gaussian_base(4, 64, rng), cfg, rng)
    assert np.array_equal(two.X, one.X) and np.array_equal(two.L, one.L)
    loss = nll_loss(pot, X, cfg)
    final, traj = integrate(pot, FlowState(X, np.zeros(64), cfg.total_time), cfg.reversed(),
                            record=True)
    logp = gaussian_log_density(final.X) - final.L
    assert np.array_equal(loss.per_sample, -logp) and loss.value == -float(logp.mean())
    grad = backprop(traj, pot, final.X / 64, np.full(64, 1.0 / 64)).param_grad.to_vector()
    assert np.allclose(loss.grad.to_vector(), grad, rtol=1e-12, atol=1e-14)
    assert len(jobs) == 2


def test_concurrent_reverse_passes_share_the_worker(jobs):
    # four nll_loss callers, under a 1 us switch interval, give the serial results bit for
    # bit; the worker that the serial calls forked takes one call at a time, no other worker is
    # forked, and a caller that finds it busy runs its two row parts in sequence
    p = random_params(5, 32, seed=24)
    cfg = IntegratorConfig(0.1, 6)
    rng = np.random.default_rng(24)
    Xs = [rng.standard_normal((64, 5)) for _ in range(4)]
    want = [nll_loss(p, X, cfg) for X in Xs]
    forked = set(jobs)
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
    assert len(forked) == 1 and set(jobs) == forked
    for w, g in zip(want, got):
        assert g.value == w.value and np.array_equal(g.grad.to_vector(), w.grad.to_vector())


@pytest.mark.parametrize("below", [1, 0], ids=["31-rows", "32-rows"])
def test_no_thread_is_started_and_concurrent_futures_is_not_imported(below):
    # thread counts after sample, after log_prob and after two nll_loss calls: a batch of 32
    # rows runs as two row parts, and nothing starts a thread
    code = f"""
import sys
import threading
import numpy as np
import maflow
from maflow import IntegratorConfig, build_potential, init_params, log_prob, nll_loss, sample
B = 32 - {below}
rng = np.random.default_rng(0)
pot = build_potential(init_params(3, 8, rng))
cfg = IntegratorConfig(0.1, 2)
X = sample(pot, B, cfg, rng).X
counts = [threading.active_count()]
log_prob(pot, X, cfg)
counts.append(threading.active_count())
for _ in range(2):
    nll_loss(pot, X, cfg)
counts.append(threading.active_count())
print(counts, "concurrent.futures" in sys.modules)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[1, 1, 1] False"


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
    # an (h, n) array outweighs the tape here.  Once both parts are reversed, the caller holds
    # its part's sum, whose dW comes with a scratch buffer of a few rows, and the child's sum,
    # received whole; adding them allocates no other (h, n) array, and the gradient returned
    # is the caller's part's own
    B, n, h = 32, 256, 1024
    p = random_params(n, h, seed=25, amp=1.0)
    X = np.random.default_rng(25).standard_normal((B, n))
    cfg = IntegratorConfig(0.05, 1, "backward")
    big = h * n * 8 // 2
    assert B * (5 * n + 5) * 8 < big
    in_parts, marks = flow._in_parts, []

    def marking(child, own):
        out = in_parts(child, own)
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
    assert len(marks) == 1      # both parts, each run forward and reversed
    reversed_at, reversed_snapshot = marks[0]
    assert peak - reversed_at < big
    assert sum(large(reversed_snapshot).values()) == 2
    assert res.grad.to_vector().nbytes > big
    assert large(end) - large(reversed_snapshot) == collections.Counter()
