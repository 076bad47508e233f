"""The benchmark's workloads and the seeded inputs it hands to ``maflow``.

A workload fixes the model shape, the objective and how much a run must do
at least.  ``prepare`` turns a seed into the inputs the library receives:
data sets, the Ising target and its symmetry group, and the training
configuration.  The library never sees the seed of the data generators.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from maflow import IsingEnergy, TrainConfig, ising_group, ising_spec, train
from maflow import data as data_mod


@dataclass(frozen=True)
class Workload:
    """Shape and budget of one workload.

    ``side`` is the image side for ``images``, the lattice side for
    ``ising`` and unused for ``toy``.  ``min_steps`` optimizer steps always
    run, whatever the time budget, and ``final_loss`` is read at that step,
    so it depends only on the seed.
    """

    name: str
    kind: str              # "toy" | "ising" | "images"
    side: int
    hidden: int
    batch: int
    steps: int
    epoch_steps: int       # optimizer steps per epoch; one checkpoint per epoch
    eval_rows: int         # held-out rows (nll) or samples (variational) per eval pass
    min_steps: int

    @property
    def n_dim(self):
        return 2 if self.kind == "toy" else self.side * self.side


WORKLOADS = {
    w.name: w for w in (
        Workload("toy", "toy", 0, hidden=1024, batch=100, steps=100,
                 epoch_steps=5, eval_rows=500, min_steps=10),
        Workload("ising8", "ising", 8, hidden=512, batch=64, steps=50,
                 epoch_steps=5, eval_rows=64, min_steps=10),
        Workload("mnist-shape", "images", 28, hidden=1024, batch=100, steps=20,
                 epoch_steps=2, eval_rows=200, min_steps=2),
    )
}


def tiny(w):
    """The same workload at a size that runs in milliseconds, for the smoke test."""
    side = {"toy": 0, "ising": 2, "images": 4}[w.kind]
    return replace(w, side=side, hidden=8, batch=8, steps=3, epoch_steps=2, eval_rows=16,
                   min_steps=2)


@dataclass
class Inputs:
    """Everything a run needs, built from the workload and the seed."""

    workload: Workload
    seed: int
    config: TrainConfig
    target: object             # Dataset (nll) or IsingEnergy (variational)
    eval_X: np.ndarray | None  # held-out rows in model space (nll only)
    group: object              # symmetry group, or None
    neg_log_z: float | None    # exact -ln Z of the Ising target (variational only)


def synthetic_digits(n, side, rng):
    """``n`` uint8 images (n, side, side): three soft blobs on black, like MNIST strokes."""
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    centers = rng.uniform(0.25 * side, 0.75 * side, size=(n, 3, 2))
    widths = rng.uniform(0.04 * side, 0.12 * side, size=(n, 3))
    d2 = ((yy[None, None] - centers[..., 0, None, None]) ** 2
          + (xx[None, None] - centers[..., 1, None, None]) ** 2)
    img = 255.0 * np.exp(-d2 / (2.0 * widths[..., None, None] ** 2)).sum(axis=1)
    return np.clip(img, 0.0, 255.0).astype(np.uint8)


def ising_neg_log_z(spec):
    """Exact -ln Z of the continuous Ising target at any even side, by row transfer matrix.

    The spin sum sum_s exp(s . K s / 2) of the offset coupling factors over
    rows of the periodic lattice: each row carries half of its in-row bonds
    in either direction, and consecutive rows couple through beta r . r'.
    Counting each direction separately reproduces the doubled bonds of the
    L=2 torus.  The continuous -ln Z then follows as in
    ``maflow.targets.exact_neg_log_z``.
    """
    L, beta, n = spec.side, spec.beta, spec.n_dim
    rows = 2.0 * ((np.arange(2 ** L)[:, None] >> np.arange(L)) & 1) - 1.0
    in_row = 0.5 * beta * (rows * np.roll(rows, 1, axis=1) + rows * np.roll(rows, -1, axis=1)).sum(1)
    T = np.exp(0.5 * in_row[:, None] + beta * rows @ rows.T + 0.5 * in_row[None, :])
    lam = np.linalg.eigvalsh(T)
    top = np.abs(lam).max()
    # trace(T^L) = sum lam^L; L is even, so every term is non-negative
    log_z_k = L * math.log(top) + math.log(np.sum((lam / top) ** L))
    log_z_off = log_z_k + 0.5 * n * spec.alpha
    return -log_z_off - 0.5 * spec.log_det() + 0.5 * n * math.log(2.0 / math.pi)


def prepare(w, seed, work_dir):
    """Build the inputs of workload ``w`` for ``seed``; files go under ``work_dir``."""
    rng = np.random.default_rng([seed, 1])
    train_rows = w.batch * w.epoch_steps
    group = neg_log_z = eval_X = None
    # epochs is a ceiling only: the run stops through train's stop_fn
    common = dict(steps=w.steps, hidden=w.hidden, batch_size=w.batch,
                  epochs=10 ** 6, checkpoint_every=1, seed=seed)
    if w.kind == "ising":
        spec = ising_spec(w.side)
        target = IsingEnergy(spec)
        group = ising_group(w.side)
        neg_log_z = ising_neg_log_z(spec)
        config = TrainConfig.for_ising(steps_per_epoch=w.epoch_steps, symmetry="ising-full",
                                       symmetry_mode="sampled", resample="step", **common)
    elif w.kind == "toy":
        target = data_mod.toy_density("mixture-of-8", train_rows, rng)
        eval_X = data_mod.toy_density("mixture-of-8", w.eval_rows, rng).X
        config = TrainConfig.for_density(**common)
    else:
        images = synthetic_digits(train_rows + w.eval_rows, w.side, rng)
        path = os.path.join(work_dir, "images.idx")
        data_mod.write_idx(path, images)
        raw = data_mod.load_idx(path)
        target = data_mod.Dataset(raw.X[:train_rows], data_mod.RAW)
        config = TrainConfig.for_density(**common)
        held_out = data_mod.dequantize(data_mod.Dataset(raw.X[train_rows:], data_mod.RAW), rng)
        eval_X = data_mod.logit_transform(held_out, config.logit_lambda)[0].X
    return Inputs(w, seed, config, target, eval_X, group, neg_log_z)


def warm_up(inputs, work_dir):
    """One optimizer step over a single RK4 step, so lazy set-up is done before timing."""
    cfg = replace(inputs.config, steps=1, max_steps=1, checkpoint_every=0)
    train(cfg, inputs.target, out_dir=os.path.join(work_dir, "warm-up"))
