"""Integrator correctness: trivial flows, the exact Gaussian solution,
reversibility, and sample/log_prob consistency."""

import errno
import math
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from maflow import flow
from maflow import (FlowState, GaussianFlowSolution, IntegratorConfig, MLPPotential,
                    NumericError, PotentialParams, QuadraticPotential, gaussian_base,
                    gaussian_log_density, init_params, integrate, log_prob, nll_loss, sample,
                    variational_loss)


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
    told apart by the sign of the part's rows; ``calls``, in shared memory, counts each part's
    vjp calls, part 0's in the worker too."""

    def __init__(self, steps, bad_step, calls):
        super().__init__(0.2, 2)
        self.steps, self.bad_step, self.calls = steps, bad_step, calls

    def vjp(self, X, w_grad, w_lap, ctx=None):
        part = int(X[0, 0] < 0)
        step = self.steps - 1 - self.calls[part] // 4     # the reverse pass runs steps downward
        self.calls[part] += 1
        pg, xcot = super().vjp(X, w_grad, w_lap, ctx)
        return pg, xcot * np.nan if step == self.bad_step[part] else xcot


def test_two_reverse_parts_report_the_step_the_reverse_pass_reaches_first(jobs, shared_zeros):
    X = np.ones((64, 2))
    X[32:] = -1.0           # part 1, on the caller, fails at step 3, which the pass reaches first
    pot = NanCotangentAt(5, (1, 3), shared_zeros(2))
    with pytest.raises(NumericError, match=r"reverse pass at step 3$"):
        nll_loss(pot, X, IntegratorConfig(0.1, 5))
    assert pot.calls.tolist() == [4 * 4, 2 * 4]     # both parts ran to their own failure
    assert len(jobs) == 1


class FailsInPhase(QuadraticPotential):
    """A still field whose rows are marked by their first coordinate, 0 to 63: the gradient is
    NaN in row ``rows[0]`` at forward step ``steps[0]``, and the position cotangent in row
    ``rows[1]`` at reverse step ``steps[1]`` of ``n_steps``.  ``calls[part]``, in shared memory,
    counts each row part's grad_lap and vjp calls, part 0 holding rows :32."""

    def __init__(self, rows, steps, n_steps, calls):
        super().__init__(0.0, 2)
        self.rows, self.steps, self.n_steps, self.calls = rows, steps, n_steps, calls

    def grad_lap(self, X, ctx=None):
        part = int(X[0, 0] >= 32)
        step = self.calls[part, 0] // 4
        self.calls[part, 0] += 1
        G, lap = super().grad_lap(X, ctx)
        G[(X[:, 0] == self.rows[0]) & (step == self.steps[0])] = np.nan
        return G, lap

    def vjp(self, X, w_grad, w_lap, ctx=None):
        part = int(X[0, 0] >= 32)
        step = self.n_steps - 1 - self.calls[part, 1] // 4     # the reverse pass runs downward
        self.calls[part, 1] += 1
        pg, xcot = super().vjp(X, w_grad, w_lap, ctx)
        xcot[(X[:, 0] == self.rows[1]) & (step == self.steps[1])] = np.nan
        return pg, xcot


@pytest.mark.parametrize("rows", [(5, 40), (40, 5)],
                         ids=["forward-in-the-worker", "forward-on-the-caller"])
def test_a_forward_error_outranks_the_other_parts_reverse_error(jobs, shared_zeros, rows):
    # one row part fails at forward step 3; the other runs its forward pass clean and fails at
    # reverse step 4, the first its reverse pass reaches.  The call raises the forward error,
    # with the step and row that one part names
    X = np.stack([np.arange(64.0), np.zeros(64)], axis=1)
    cfg = IntegratorConfig(0.1, 5)
    message = rf"^non-finite value during step 3, batch row {rows[0]}$"
    pot = FailsInPhase(rows, (3, 4), 5, shared_zeros(2, 2))
    with pytest.raises(NumericError, match=message):
        nll_loss(pot, X, cfg)
    forward, reverse = int(rows[0] >= 32), int(rows[1] >= 32)
    assert pot.calls[forward].tolist() == [4 * 4, 0]
    assert pot.calls[reverse].tolist() == [4 * 5, 4]
    assert len(jobs) == 1
    one = FailsInPhase(rows, (3, 4), 5, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(NumericError, match=message):
        integrate(one, FlowState(X, np.zeros(64), cfg.total_time), cfg.reversed(), record=True)


class InPart(QuadraticPotential):
    """A still field whose ``hook``, grad_lap or vjp, runs ``act()`` first in row part ``part``:
    0 in the worker, which runs rows :k, 1 on the caller."""

    def __init__(self, hook, part, act):
        super().__init__(0.0, 2)
        self.hook, self.part, self.act, self.caller = hook, part, act, os.getpid()

    def _maybe_act(self):
        if int(os.getpid() == self.caller) == self.part:
            self.act()

    def grad_lap(self, X, ctx=None):
        if self.hook == "grad_lap":
            self._maybe_act()
        return super().grad_lap(X, ctx)

    def vjp(self, X, w_grad, w_lap, ctx=None):
        if self.hook == "vjp":
            self._maybe_act()
        return super().vjp(X, w_grad, w_lap, ctx)


class ZeroEnergy:
    """A target of zero energy in two dimensions."""

    n_dim = 2

    def energy(self, X):
        return np.zeros(len(X))

    def grad(self, X):
        return np.zeros_like(X)


class EnergyWithFailingGrad(ZeroEnergy):
    """A zero energy whose gradient raises, between the forward and the reverse pass."""

    def grad(self, X):
        raise KeyError("energy.grad")


class NotPicklable(Exception):
    """An exception that pickles but does not unpickle: its constructor needs two arguments."""

    def __init__(self, message, detail):
        super().__init__(message)


def raise_not_picklable():
    raise NotPicklable("in the worker", "detail")


def child_exit_7():
    os._exit(7)


def raise_interrupt():
    raise KeyboardInterrupt


def blow_up(row):
    X = np.ones((64, 2))
    X[row] = 1e300
    return X


# (call, the error it must raise, or None) at B = 64: every call sends rows :32 to the worker
CFG = IntegratorConfig(0.1, 3)
NO_CHILD_LEFT_CASES = {
    "sample": (lambda: sample(QuadraticPotential(0.1, 2), 64, CFG, np.random.default_rng(0)),
               None),
    "log_prob": (lambda: log_prob(QuadraticPotential(0.1, 2), np.ones((64, 2)), CFG), None),
    "nll_loss": (lambda: nll_loss(MLPPotential(init_params(2, 8, np.random.default_rng(0))),
                                  np.ones((64, 2)), CFG), None),
    "variational_loss": (lambda: variational_loss(
        MLPPotential(init_params(2, 8, np.random.default_rng(0))), ZeroEnergy(), 64, CFG,
        np.random.default_rng(0)), None),
    "numeric-error-in-part-0": (lambda: log_prob(QuadraticPotential(-1.0, 2), blow_up(0),
                                                 IntegratorConfig(10.0, 400)),
                                (NumericError, r"batch row 0$")),
    "numeric-error-in-part-1": (lambda: log_prob(QuadraticPotential(-1.0, 2), blow_up(40),
                                                 IntegratorConfig(10.0, 400)),
                                (NumericError, r"batch row 40$")),
    "energy-grad-raises": (lambda: variational_loss(
        MLPPotential(init_params(2, 8, np.random.default_rng(0))), EnergyWithFailingGrad(), 64,
        CFG, np.random.default_rng(0)), (KeyError, "energy.grad")),
    "child-exits-7": (lambda: nll_loss(InPart("vjp", 0, child_exit_7), np.ones((64, 2)), CFG),
                      (RuntimeError, "row-part worker ended with exit status 7 ")),
    "child-error-not-picklable": (lambda: log_prob(InPart("grad_lap", 0, raise_not_picklable),
                                                   np.ones((64, 2)), CFG),
                                  (RuntimeError, r"row-part worker raised an error that "
                                                 r"cannot be pickled:\n(.|\n)*"
                                                 r"raise_not_picklable(.|\n)*in the worker")),
    "keyboard-interrupt-on-the-caller": (
        lambda: nll_loss(InPart("vjp", 1, raise_interrupt), np.ones((64, 2)), CFG),
        (KeyboardInterrupt, None)),
}


@pytest.mark.parametrize("case", NO_CHILD_LEFT_CASES)
def test_no_process_outlives_a_call(jobs, case):
    # a call that fails leaves no child process; one that succeeds leaves only the worker,
    # which the next call uses
    call, error = NO_CHILD_LEFT_CASES[case]
    if error is None:
        call()
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)
        NO_CHILD_LEFT_CASES["log_prob"][0]()
        assert len(jobs) == 2 and len(set(jobs)) == 1
        flow._stop_worker()
    else:
        with pytest.raises(error[0], match=error[1]):
            call()
        assert len(jobs) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def one_blas_thread_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
            "OPENBLAS_NUM_THREADS": "1"}


def run_one_blas_thread(code):
    """The stdout of ``code`` in a new interpreter with one BLAS thread, so that the process
    runs one thread and a two-part call forks the worker."""
    out = subprocess.run([sys.executable, "-c", code], env=one_blas_thread_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


COUNT_FORKS = """
import numpy as np
from maflow import flow
forks, worker = [], flow._Worker
flow._Worker = lambda: forks.append(None) or worker()
"""


def test_the_child_never_runs_the_callers_exit_path():
    # a buffered print and an atexit handler, made before a call that forks the worker, each
    # show once
    code = COUNT_FORKS + """
import atexit
from maflow import IntegratorConfig, init_params, nll_loss
print("printed before the call")
atexit.register(print, "atexit handler")
nll_loss(init_params(3, 8, np.random.default_rng(0)), np.ones((64, 3)), IntegratorConfig(0.1, 2))
print(len(forks), "fork")
"""
    assert run_one_blas_thread(code) == "printed before the call\n1 fork\natexit handler\n"


def test_a_child_is_forked_only_while_the_process_runs_one_thread():
    # the same loss alone and, with that worker stopped, beside an idle second thread: a fork
    # only alone, equal bits
    code = COUNT_FORKS + """
import threading
from maflow import IntegratorConfig, init_params, nll_loss
rng = np.random.default_rng(0)
p, X, cfg = init_params(3, 8, rng), rng.standard_normal((64, 3)), IntegratorConfig(0.1, 2)
alone = flow._one_thread(), nll_loss(p, X, cfg), len(forks)
flow._stop_worker()
stop = threading.Event()
other = threading.Thread(target=stop.wait)
other.start()
beside = flow._one_thread(), nll_loss(p, X, cfg), len(forks)
stop.set()
other.join()
print(alone[0], alone[2], beside[0], beside[2], alone[1].value == beside[1].value
      and np.array_equal(alone[1].grad.to_vector(), beside[1].grad.to_vector()))
"""
    assert run_one_blas_thread(code) == "True 1 False 1 True\n"


def test_a_one_part_caller_on_another_thread_makes_two_part_calls_fork_nothing(jobs_by_rule):
    # at the default BLAS thread count, a thread integrates a batch as one part, with products
    # large enough for OpenBLAS's pool, while the caller makes two-part loss calls: nothing
    # forks, nothing hangs, and the losses have their serial bits
    rng = np.random.default_rng(41)
    wide = MLPPotential(init_params(256, 256, rng))
    X_wide = rng.standard_normal((64, 256))
    pot = MLPPotential(init_params(3, 8, rng))
    X = rng.standard_normal((64, 3))
    cfg = IntegratorConfig(0.1, 2)
    want = nll_loss(pot, X, cfg)
    forked = set(jobs_by_rule)
    stop = threading.Event()

    def one_part():
        while not stop.is_set():
            integrate(wide, FlowState(X_wide, np.zeros(64), 0.0), cfg)

    other = threading.Thread(target=one_part, daemon=True)
    other.start()
    try:
        got = [nll_loss(pot, X, cfg) for _ in range(3)]
    finally:
        stop.set()
        other.join(60)
    assert not other.is_alive()
    assert set(jobs_by_rule) == forked
    for g in got:
        assert g.value == want.value and np.array_equal(g.grad.to_vector(), want.grad.to_vector())


@pytest.mark.parametrize("how", ["fork-fails", "no-fork"])
def test_without_a_child_the_two_parts_run_in_sequence_with_its_bits(monkeypatch, jobs, how):
    pot = MLPPotential(init_params(2, 8, np.random.default_rng(42)))
    X = np.random.default_rng(42).standard_normal((64, 2))
    cfg = IntegratorConfig(0.1, 3)

    def losses():
        return [nll_loss(pot, X, cfg),
                variational_loss(pot, ZeroEnergy(), 64, cfg, np.random.default_rng(42))]

    want = losses()
    assert len(jobs) == 2
    flow._stop_worker()
    fds = len(os.listdir("/proc/self/fd"))
    if how == "fork-fails":
        def refuse():
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        monkeypatch.setattr(os, "fork", refuse)
    else:
        monkeypatch.delattr(os, "fork")
    got = losses()
    assert len(jobs) == 2
    assert len(os.listdir("/proc/self/fd")) == fds      # no pipe left open
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    for g, w in zip(got, want):
        assert g.value == w.value and np.array_equal(g.per_sample, w.per_sample)
        assert np.array_equal(g.grad.to_vector(), w.grad.to_vector())


def wait_for(pid, timeout=60.0):
    """The exit code of child ``pid``, killed if it runs past ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    raise AssertionError(f"child {pid} ran past {timeout} s")


def test_a_process_forked_after_a_two_part_call_uses_a_worker_of_its_own(jobs):
    # the forked process never writes to its parent's worker: it forks its own, gets the same
    # bits, and stopping it leaves the parent's worker running
    pot = MLPPotential(init_params(3, 8, np.random.default_rng(43)))
    X = np.random.default_rng(43).standard_normal((64, 3))
    cfg = IntegratorConfig(0.1, 3)
    want = nll_loss(pot, X, cfg)

    def same(got):
        return got.value == want.value and np.array_equal(got.grad.to_vector(),
                                                          want.grad.to_vector())

    pid = os.fork()
    if not pid:
        status = 1
        try:
            status = 0 if same(nll_loss(pot, X, cfg)) and len(set(jobs)) == 2 else 2
            flow._stop_worker()
        finally:
            os._exit(status)
    assert wait_for(pid) == 0
    assert same(nll_loss(pot, X, cfg))
    assert len(jobs) == 2 and len(set(jobs)) == 1


def test_an_interpreter_ends_with_its_worker_reaped():
    # stdout is piped, as the benchmark reads it, and the worker holds that pipe while it runs;
    # an exit handler registered before maflow's, so run after it, finds no child left
    code = """
import atexit, os
def children():
    try:
        return os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return "none"
atexit.register(lambda: print("children at exit:", children()))
import numpy as np
from maflow import IntegratorConfig, flow, init_params, nll_loss
nll_loss(init_params(3, 8, np.random.default_rng(0)), np.ones((64, 3)), IntegratorConfig(0.1, 2))
print(flow._worker.pid)
"""
    proc = subprocess.Popen([sys.executable, "-c", code], env=one_blas_thread_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == 0, err
    pid, last = out.splitlines()
    assert last == "children at exit: none"
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)


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
