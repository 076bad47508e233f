"""Fixed-seed hashes of training checkpoints and evaluation outputs.

Prints one SHA-1 per case.  Run it on two commits and compare the lines:
a refactor that claims bitwise-identical results must print the same
hashes.  Every case is small.

    PYTHONPATH=src python scripts/bitwise_hashes.py

Cases: a 2-epoch ``train`` on the toy ring (nll); 2-epoch variational
``train`` runs at L=2 with six symmetry settings; and ``sample`` followed
by ``log_prob`` with a sampled L=4 evaluator.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile

import numpy as np

from maflow import (IntegratorConfig, IsingEnergy, TrainConfig, build_potential, init_params,
                    ising_group, ising_spec, log_prob, sample, train)
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

    for name, digest in out:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
