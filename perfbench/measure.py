"""The two kinds of benchmark run: untraced (end-to-end) and traced (per layer).

The untraced run drives ``maflow.train``, with ``log_prob`` or ``sample``
on the latest checkpoint between its steps, as a user would.  The traced
run assembles the optimizer step of ``train`` from the library's public
calls, wraps the evaluator in a ``TimingProxy`` and records spans around
every layer it calls.  It alternates traced and untraced steps of that
same loop, so that the cost of tracing itself is measured too.  Both runs
check the outputs (see ``gates``) and count every operation they attempt
and every one that fails.
"""

from __future__ import annotations

import copy
import os
import resource
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from maflow import (AdamState, Checkpoint, FlowState, MLPPotential, NumericError,
                    PotentialParams, SymmetrizedPotential, adam_update, backprop,
                    build_potential, gaussian_base, gaussian_log_density, init_params,
                    integrate, load_checkpoint, log_prob, nll_loss, sample,
                    save_checkpoint, train, variational_loss)
from maflow import data as data_mod

import gates
from tracing import (NullTracer, TimingProxy, Tracer, grad_lap_flops, tape_bytes,
                     vjp_flops)

# share of --seconds spent in optimizer steps; evaluation adds EVAL_RATIO
# seconds per training second, and set-up and gates come on top
TRAIN_SHARE = 0.7
EVAL_RATIO = 0.3
EVAL_MIN_BATCHES = 2

_clock = time.perf_counter
_NO_TRACE = NullTracer()


@dataclass
class Outcome:
    """Metrics of one run: name -> (value, unit), with the operation tally."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.setdefault("failures", []).append(what)

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _final_loss(inputs, loss):
    """Loss as reported: the variational loss is shifted by the exact -ln Z, a gap >= 0."""
    return loss - inputs.neg_log_z if inputs.neg_log_z is not None else loss


def _eval_rows(inputs):
    """Endless held-out batches (nll) or batch sizes (variational) for evaluation.

    ``eval_rows`` is a multiple of the batch size, so every batch is full.
    """
    B = inputs.config.batch_size
    if inputs.eval_X is None:
        while True:
            yield B
    k = 0
    while True:
        yield inputs.eval_X[k:k + B]
        k = (k + B) % inputs.eval_X.shape[0]


# ---------------------------------------------------------------------------
# untraced run


def run_untraced(inputs, seconds, work_dir):
    """``train`` for TRAIN_SHARE of ``seconds``, with evaluation interleaved.

    The host's speed drifts over tens of seconds, so evaluating only after
    training made ``eval_rows_per_s`` depend on when it ran.  Instead, from
    the second epoch on, ``stop_fn`` evaluates the latest epoch checkpoint
    between optimizer steps, about EVAL_RATIO seconds per training second.
    Time spent inside ``stop_fn`` is taken out of the training figures.
    """
    w, cfg = inputs.workload, inputs.config
    out = Outcome()
    out_dir = os.path.join(work_dir, "train")
    ckpt_path = os.path.join(out_dir, f"checkpoint_{cfg.run_hash()}.bin")
    fwd = cfg.integrator("forward")
    rng = np.random.default_rng([inputs.seed, 3])
    batches = _eval_rows(inputs)
    eval_s, step_s = [], []
    hook = {"left": None, "in_hook": 0.0, "epoch": 0, "pot": None}

    def evaluate(pot):
        item = next(batches)
        t = _clock()
        if inputs.eval_X is not None:
            outputs = (log_prob(pot, item, fwd),)
        else:
            s = sample(pot, item, fwd, rng)
            outputs = (s.X, s.L, inputs.target.energy(s.X))
        eval_s.append(_clock() - t)
        out.check(gates.all_finite(*outputs), "non-finite eval output")

    def between_steps(row):
        entered = _clock()
        step_s.append(entered - hook["left"])
        if row["epoch"] > hook["epoch"]:  # a checkpoint of the last epoch is on disk
            hook["epoch"] = row["epoch"]
            hook["pot"] = build_potential(load_checkpoint(ckpt_path).params, inputs.group,
                                          cfg.symmetry_mode, cfg.resample)
        while hook["pot"] is not None and sum(eval_s) < EVAL_RATIO * sum(step_s):
            evaluate(hook["pot"])
        hook["left"] = _clock()
        hook["in_hook"] += hook["left"] - entered
        return row["step"] >= w.min_steps and sum(step_s) >= TRAIN_SHARE * seconds

    try:
        hook["left"] = t_call = _clock()
        res = train(cfg, inputs.target, out_dir=out_dir, stop_fn=between_steps)
        wall = _clock() - t_call - hook["in_hook"]
        params = res.checkpoint.params
        pot = build_potential(params, inputs.group, cfg.symmetry_mode, cfg.resample)
        while len(eval_s) < EVAL_MIN_BATCHES:
            evaluate(pot)
    except NumericError as e:
        out.check(False, f"train or eval: {e}")
        return out
    rows = res.metrics
    for r in rows:
        out.check(np.isfinite(r["loss"]), f"non-finite loss at step {r['step']}")
    out.put("train_rows_per_s", len(rows) * cfg.batch_size / wall, "rows/s")
    out.put("train_step_p50_s", median(step_s), "s")
    out.put("final_loss", _final_loss(inputs, rows[w.min_steps - 1]["loss"]), "nats")
    # every batch has batch_size rows.  The host alternates between fast and
    # slow phases; the mean over batches spread across the run moves less
    # from run to run than their median, which jumps between the two.
    out.put("eval_rows_per_s", cfg.batch_size * len(eval_s) / sum(eval_s), "rows/s")
    out.notes.update(train_steps=len(rows), eval_batches=len(eval_s))

    _gate_checks(inputs, params, out)
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    return out


def _gate_checks(inputs, params, out):
    problem = gates.GateProblem(inputs)
    try:
        out.check(problem.replay_check(params), "replay differs from the integrator output")
        out.check(problem.directional_check(params),
                  "tape gradient disagrees with the central difference")
    except NumericError as e:
        out.check(False, f"gate: {e}")


# ---------------------------------------------------------------------------
# traced run


@dataclass
class StepTrace:
    """What one step of the manual loop leaves for the checks after it."""

    loss: float
    params: PotentialParams
    rng_state: dict
    X: np.ndarray | None
    traj: object
    final: FlowState


class ManualLoop:
    """The optimizer step of ``maflow.train``, assembled from public calls.

    Same order of random draws, same clipping and the same Adam update as
    ``train``, so that every span covers the work ``train`` does.
    """

    def __init__(self, inputs, work_dir):
        self.inputs = inputs
        cfg = inputs.config
        self.rng = np.random.default_rng(cfg.seed)
        self.params = init_params(inputs.workload.n_dim, cfg.hidden, self.rng)
        self.adam = AdamState.zeros(self.params.size)
        self.fwd = cfg.integrator("forward")
        self.batches, self.X_epoch = [], None
        self.epoch = self.step_count = 0
        self.ckpt_path = os.path.join(work_dir, "manual.ckpt")

    def potential(self, params, tracer):
        cfg, group = self.inputs.config, self.inputs.group
        if tracer is _NO_TRACE:
            return build_potential(params, group, cfg.symmetry_mode, cfg.resample)
        outer = {"fingerprint": "potential.fingerprint", "grad_to_params": "potential.param_copy"}
        base = {"grad_lap": "potential.grad_lap", "vjp": "potential.vjp"}
        if group is None:
            return TimingProxy(MLPPotential(params), tracer, {**base, **outer})
        inner = TimingProxy(MLPPotential(params), tracer, base)
        sym = SymmetrizedPotential(inner, group, mode=cfg.symmetry_mode, resample=cfg.resample)
        return TimingProxy(sym, tracer, {"grad_lap": "symmetry.grad_lap",
                                         "vjp": "symmetry.vjp", **outer})

    def _new_epoch(self):
        cfg = self.inputs.config
        if cfg.objective == "variational":
            self.batches = [None] * cfg.steps_per_epoch
            return
        ds = self.inputs.target
        if ds.space == data_mod.RAW:
            ds = data_mod.dequantize(ds, self.rng)
        if ds.space == data_mod.UNIT:
            ds, _ = data_mod.logit_transform(ds, cfg.logit_lambda)
        self.X_epoch = ds.X
        self.batches = list(data_mod.minibatch_indices(ds.X.shape[0], cfg.batch_size, self.rng))

    def _loss_grad(self, pot, batch, tracer):
        cfg, rng = self.inputs.config, self.rng
        if cfg.objective == "nll":
            X = self.X_epoch[batch]
            back = self.fwd.reversed()
            state = FlowState(X, np.zeros(X.shape[0]), back.total_time)
            with tracer.span("flow.integrate.record"):
                final, traj = integrate(pot, state, back, rng=rng, record=True)
            logp = gaussian_log_density(final.X) - final.L
            loss = -float(logp.mean())
            n = X.shape[0]
            d_x, d_l = final.X / n, np.full(n, 1.0 / n)
        else:
            X, n, energy = None, cfg.batch_size, self.inputs.target
            state = gaussian_base(pot.n_dim, n, rng)
            with tracer.span("flow.integrate.record"):
                final, traj = integrate(pot, state, self.fwd, rng=rng, record=True)
            with tracer.span("targets.energy"):
                per = final.L + energy.energy(final.X)
                d_x = energy.grad(final.X) / n
            loss = float(per.mean())
            d_l = np.full(n, 1.0 / n)
        with tracer.span("difftape.backprop"):
            grad = backprop(traj, pot, d_x, d_l).param_grad
        return loss, grad, X, traj, final

    def step(self, tracer, step_tracer):
        """One optimizer step; returns (StepTrace, seconds of the step itself).

        Epoch preparation and the checkpoint at the end of an epoch are
        recorded under ``tracer`` and left out of the step's seconds, so that
        traced and untraced steps do the same work.  ``step_tracer`` records
        the step.
        """
        cfg = self.inputs.config
        if not self.batches:
            with tracer.span("trainer.epoch"):
                if cfg.objective == "nll":
                    with tracer.span("data.epoch_prep"):
                        self._new_epoch()
                else:
                    self._new_epoch()
        t = _clock()
        with step_tracer.span("trainer.step"):
            batch = self.batches.pop(0)
            params = self.params
            rng_state = copy.deepcopy(self.rng.bit_generator.state)
            pot = self.potential(params, step_tracer)
            with step_tracer.span("targets.loss_grad"):
                loss, grad, X, traj, final = self._loss_grad(pot, batch, step_tracer)
            with step_tracer.span("potential.param_copy"):
                g = grad.to_vector()
            gnorm = float(np.linalg.norm(g))
            if not (np.isfinite(loss) and np.isfinite(gnorm)):
                raise NumericError(f"non-finite loss or gradient at step {self.step_count}")
            if cfg.grad_clip > 0.0 and gnorm > cfg.grad_clip:
                g = g * (cfg.grad_clip / gnorm)
            with step_tracer.span("trainer.adam_update"):
                delta, self.adam = adam_update(self.adam, g, cfg.learning_rate, cfg.beta1,
                                               cfg.beta2, cfg.adam_eps)
            with step_tracer.span("potential.param_copy"):
                self.params = PotentialParams.from_vector(params.to_vector() + delta,
                                                          params.n_dim, params.n_hidden)
            self.step_count += 1
        seconds = _clock() - t
        if not self.batches:
            self.epoch += 1
            self.save(tracer)
        return StepTrace(loss, params, rng_state, X, traj, final), seconds

    def save(self, tracer):
        cfg, a = self.inputs.config, self.adam
        with tracer.span("trainer.epoch"), tracer.span("trainer.save_checkpoint"):
            save_checkpoint(self.ckpt_path, Checkpoint(
                cfg, self.params.copy(), AdamState(a.m.copy(), a.v.copy(), a.count),
                self.epoch, self.step_count, self.rng.bit_generator.state))

    def public_loss(self, rec):
        """The same step's loss through ``nll_loss`` / ``variational_loss``, no tape."""
        cfg = self.inputs.config
        pot = build_potential(rec.params, self.inputs.group, cfg.symmetry_mode, cfg.resample)
        rng = np.random.default_rng()
        rng.bit_generator.state = rec.rng_state
        if cfg.objective == "nll":
            return nll_loss(pot, rec.X, self.fwd, rng=rng, want_grad=False).value
        return variational_loss(pot, self.inputs.target, cfg.batch_size, self.fwd, rng,
                                want_grad=False).value


def run_traced(inputs, seconds, work_dir):
    out = Outcome()
    tracer = Tracer()
    loop = ManualLoop(inputs, work_dir)
    traced_s, plain_s, loss_only_s = [], [], []
    tape = None
    t_begin = _clock()
    try:
        while not (traced_s and plain_s) or _clock() - t_begin < TRAIN_SHARE * seconds:
            traced = len(traced_s) <= len(plain_s)
            rec, step_s = loop.step(tracer, tracer if traced else _NO_TRACE)
            (traced_s if traced else plain_s).append(step_s)
            out.check(np.isfinite(rec.loss), f"non-finite loss at step {loop.step_count}")
            if traced:
                if tape is None:
                    tape = tape_bytes(rec.traj)
                out.check(gates.replay_matches(rec.traj, rec.final),
                          "replay differs from the integrator output")
                rec.traj = None
                t = _clock()
                public = loop.public_loss(rec)
                loss_only_s.append(_clock() - t)
                out.check(public == rec.loss, "traced loss differs from the public loss function")
            del rec  # no step may run while the previous step's tape is alive
        loop.save(tracer)  # train always ends with a checkpoint
    except NumericError as e:
        out.check(False, f"train: {e}")
        return out, tracer

    pot = loop.potential(loop.params, tracer)
    n_batches, spent = 0, 0.0
    for item in _eval_rows(inputs):
        if n_batches >= 1 and spent >= EVAL_RATIO * TRAIN_SHARE * seconds:
            break
        t = _clock()
        try:
            with tracer.span("eval"):
                if inputs.eval_X is not None:
                    back = loop.fwd.reversed()
                    state = FlowState(item, np.zeros(item.shape[0]), back.total_time)
                    with tracer.span("flow.integrate.norecord"):
                        final, _ = integrate(pot, state, back)
                    outputs = (gaussian_log_density(final.X) - final.L,)
                else:
                    state = gaussian_base(pot.n_dim, item, loop.rng)
                    with tracer.span("flow.integrate.norecord"):
                        final, _ = integrate(pot, state, loop.fwd, rng=loop.rng)
                    outputs = (final.X, final.L, inputs.target.energy(final.X))
        except NumericError as e:
            out.check(False, f"eval: {e}")
            return out, tracer
        spent += _clock() - t
        out.check(gates.all_finite(*outputs), "non-finite eval output")
        n_batches += 1

    _gate_checks(inputs, loop.params, out)
    _layer_metrics(out, tracer, inputs, traced_s, plain_s, loss_only_s, tape, loop.ckpt_path)
    return out, tracer


def _layer_metrics(out, tracer, inputs, traced_s, plain_s, loss_only_s, tape, ckpt_path):
    S = tracer.summary()
    R, E = "trainer.step", "trainer.epoch"
    n_steps = len(traced_s)
    B, n, h = inputs.config.batch_size, inputs.workload.n_dim, inputs.config.hidden
    ms = 1e3
    for hook, flops in (("grad_lap", grad_lap_flops(B, n, h)), ("vjp", vjp_flops(B, n, h))):
        name = f"potential.{hook}"
        per_call = S.median(R, name)
        out.put(f"{name}.calls", S.count(R, name) / n_steps, "calls/step")
        out.put(f"{name}.ms_per_call", per_call * ms, "ms")
        out.put(f"{name}.flops_per_call", flops, "flop")
        out.put(f"{name}.gflops", flops / per_call / 1e9, "GFLOP/s")
        out.put(f"symmetry.{hook}.self_ms", S.median(R, f"symmetry.{hook}", self_time=True) * ms,
                "ms")
    out.put("potential.fingerprint.ms_per_step",
            S.total(R, "potential.fingerprint") / n_steps * ms, "ms")
    out.put("potential.param_copy.ms_per_step",
            S.total(R, "potential.param_copy") / n_steps * ms, "ms")
    out.put("flow.integrate.record_s", S.median(R, "flow.integrate.record"), "s")
    out.put("flow.integrate.self_s", S.median(R, "flow.integrate.record", self_time=True), "s")
    out.put("flow.integrate.norecord_s", S.median("eval", "flow.integrate.norecord"), "s")
    out.put("difftape.tape_bytes", tape, "bytes")
    out.put("difftape.backprop_s", S.median(R, "difftape.backprop"), "s")
    out.put("difftape.backprop.self_s", S.median(R, "difftape.backprop", self_time=True), "s")
    out.put("targets.loss_grad_over_loss_only",
            S.median(R, "targets.loss_grad") / median(loss_only_s), "ratio")
    out.put("targets.energy.ms_per_step", S.total(R, "targets.energy") / n_steps * ms, "ms")
    out.put("trainer.adam_update.ms_per_step",
            S.total(R, "trainer.adam_update") / n_steps * ms, "ms")
    out.put("trainer.save_checkpoint.ms", S.median(E, "trainer.save_checkpoint") * ms, "ms")
    out.put("trainer.checkpoint_bytes", os.path.getsize(ckpt_path), "bytes")
    out.put("data.epoch_prep.ms", S.median(E, "data.epoch_prep") * ms, "ms")
    out.put("trace.train_rows_per_s", B / median(traced_s), "rows/s")
    out.put("trace.overhead_ratio", median(traced_s) / median(plain_s), "ratio")
    out.notes.update(traced_steps=n_steps, untraced_steps=len(plain_s),
                     loss_only_samples=len(loss_only_s),
                     computed=["difftape.tape_bytes", "potential.grad_lap.flops_per_call",
                               "potential.vjp.flops_per_call", "trainer.checkpoint_bytes"])
