"""Fixed-seed hashes of training checkpoints and evaluation outputs.

Prints one SHA-1 per case.  Run it on two commits and compare the lines:
a refactor that claims bitwise-identical results must print the same
hashes.  Every case is small.

    PYTHONPATH=src python scripts/bitwise_hashes.py

Cases: a 2-epoch ``train`` on the toy ring (nll); a 2-epoch ``train`` on
80 random 4x4 byte images read from an IDX file (nll on their logits,
with fresh dequantization jitter drawn every epoch); 2-epoch variational
``train`` runs at L=2 with six symmetry settings; ``sample`` followed
by ``log_prob`` with a sampled L=4 evaluator; the ``perms`` and
``signs`` tables of ``ising_group`` at L=2, 3, 4 and 8, whose row order
decides which element every sampled index picks; and ``log_prob`` and the
``nll_loss`` gradient at n=784, h=1024, B=100.  The toy, IDX, L=4 and
n=784 cases have batches of at least 32 rows, so they run as two row
parts, one on the worker thread.  OpenBLAS threads the n=784 case's products, so its hash
depends on the BLAS thread count.  The script sets ``OPENBLAS_NUM_THREADS=1`` before numpy is
imported unless the environment already sets it, so two runs compare
by default; a run with another explicit count prints another last line.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when numpy loads OpenBLAS

import numpy as np

from maflow import (IntegratorConfig, IsingEnergy, TrainConfig, build_potential, init_params,
                    ising_group, ising_spec, log_prob, nll_loss, sample, train)
from maflow import data as data_mod

ISING_CASES = (
    ("none", "sampled", "step"),
    ("z2", "average", "step"),
    ("ising-full", "sampled", "step"),
    ("ising-full", "sampled", "stage"),
    ("ising-full", "sampled", "trajectory"),
    ("ising-full", "average", "step"),
)


def checkpoint_hash(config, target):
    with tempfile.TemporaryDirectory() as d:
        res = train(config, target, out_dir=d)
        with open(res.checkpoint_path, "rb") as f:
            return hashlib.sha1(f.read()).hexdigest()


def main():
    out = []
    ring = data_mod.toy_density("ring", 200, np.random.default_rng(1))
    cfg = TrainConfig.for_density(epochs=2, hidden=32, steps=10, batch_size=50, seed=3)
    out.append(("toy nll", checkpoint_hash(cfg, ring)))

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "images.idx")
        data_mod.write_idx(path, np.random.default_rng(4).integers(0, 256, (80, 4, 4)))
        images = data_mod.load_idx(path)
    cfg = TrainConfig.for_density(epochs=2, hidden=16, steps=5, batch_size=32, seed=4)
    out.append(("idx nll", checkpoint_hash(cfg, images)))

    energy = IsingEnergy(ising_spec(2))
    for group, mode, resample in ISING_CASES:
        cfg = TrainConfig.for_ising(epochs=2, steps_per_epoch=3, hidden=16, steps=10,
                                    batch_size=16, seed=5, symmetry=group,
                                    symmetry_mode=mode, resample=resample)
        out.append((f"ising L=2 {group}/{mode}/{resample}", checkpoint_hash(cfg, energy)))

    rng = np.random.default_rng(7)
    pot = build_potential(init_params(16, 32, rng), ising_group(4), "sampled", "step")
    icfg = IntegratorConfig(0.1, 10)
    state = sample(pot, 32, icfg, rng)
    lp = log_prob(pot, state.X, icfg, rng=rng)
    md = hashlib.sha1()
    for arr in (state.X, state.L, lp):
        md.update(np.ascontiguousarray(arr).tobytes())
    out.append(("L=4 sampled sample+log_prob", md.hexdigest()))

    md = hashlib.sha1()
    for L in (2, 3, 4, 8):
        group = ising_group(L)
        md.update(group.perms.tobytes())
        md.update(group.signs.tobytes())
    out.append(("ising_group tables L=2,3,4,8", md.hexdigest()))

    rng = np.random.default_rng(11)
    pot = build_potential(init_params(784, 1024, rng))
    X = rng.standard_normal((100, 784))
    icfg = IntegratorConfig(0.1, 2)
    md = hashlib.sha1()
    md.update(log_prob(pot, X, icfg).tobytes())
    md.update(nll_loss(pot, X, icfg).grad.to_vector().tobytes())
    out.append(("n=784 h=1024 B=100 log_prob+nll grad", md.hexdigest()))

    for name, digest in out:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
