"""Checkpoint format, atomic saves and resume equivalence of the trainer."""

from dataclasses import replace

import numpy as np
import pytest

from maflow import (AdamState, Checkpoint, ConfigError, IsingEnergy, TrainConfig, init_params,
                    ising_spec, load_checkpoint, save_checkpoint, train)
from maflow import data as data_mod
from maflow.trainer import METRIC_COLUMNS


def assert_same_checkpoint(a, b):
    assert a.config == b.config
    assert (a.epoch, a.step) == (b.epoch, b.step)
    for name in ("W", "b", "a"):
        assert np.array_equal(getattr(a.params, name), getattr(b.params, name))
    assert a.params.c == b.params.c
    assert a.adam.count == b.adam.count
    assert np.array_equal(a.adam.m, b.adam.m) and np.array_equal(a.adam.v, b.adam.v)
    assert a.rng_state == b.rng_state


def make_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    params = init_params(3, 5, rng)
    adam = AdamState(rng.standard_normal(params.size), rng.random(params.size), 7)
    cfg = TrainConfig.for_density(hidden=5, steps=4, seed=seed)
    return Checkpoint(cfg, params, adam, 2, 11, rng.bit_generator.state)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    ck = make_checkpoint()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ck)
    assert_same_checkpoint(load_checkpoint(path), ck)


def test_failed_save_keeps_previous_checkpoint(tmp_path):
    good = make_checkpoint(0)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, good)
    bad = make_checkpoint(1)
    # fails after the header and parameters have been written
    bad.adam = AdamState(np.array(["x"] * bad.params.size), bad.adam.v, 1)
    with pytest.raises(ValueError):
        save_checkpoint(path, bad)
    assert_same_checkpoint(load_checkpoint(path), good)
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]


def _resume_cases():
    ring = data_mod.toy_density("ring", 120, np.random.default_rng(1))
    nll = TrainConfig.for_density(epochs=2, hidden=16, steps=5, batch_size=40, seed=2)
    energy = IsingEnergy(ising_spec(2))
    var = TrainConfig.for_ising(epochs=2, steps_per_epoch=2, hidden=8, steps=5, batch_size=8,
                                seed=3, symmetry="ising-full", symmetry_mode="sampled")
    return [pytest.param(nll, ring, id="toy-nll"),
            pytest.param(var, energy, id="ising2-sampled")]


@pytest.mark.parametrize("config,target", _resume_cases())
def test_resume_at_epoch_boundary_equals_uninterrupted(config, target):
    whole = train(config, target).checkpoint
    first = train(replace(config, epochs=1), target).checkpoint
    assert first.epoch == 1
    resumed = train(config, target, resume=first).checkpoint
    assert_same_checkpoint(resumed, whole)


def test_metrics_csv_closed_when_stop_fn_raises(tmp_path):
    ring = data_mod.toy_density("ring", 120, np.random.default_rng(1))
    config = TrainConfig.for_density(epochs=2, hidden=8, steps=3, batch_size=40, seed=2)

    def stop_fn(row):
        if row["step"] == 3:
            raise KeyError("stop")
        return False

    with pytest.raises(KeyError) as info:
        train(config, ring, out_dir=tmp_path, stop_fn=stop_fn)
    # the traceback still holds the frame of train; the file must be flushed anyway
    assert info.traceback
    lines = (tmp_path / f"metrics_{config.run_hash()}.csv").read_text().splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "2", "3"]


def test_resume_with_other_hidden_is_refused_up_front(tmp_path):
    ring = data_mod.toy_density("ring", 120, np.random.default_rng(1))
    config = TrainConfig.for_density(epochs=1, hidden=16, steps=3, batch_size=40, seed=2)
    ckpt = train(config, ring).checkpoint
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"hidden=16.*hidden=8"):
        train(replace(config, epochs=2, hidden=8), ring, out_dir=out, resume=ckpt)
    # refused before the run wrote anything: no metrics file, no checkpoint
    assert not out.exists()
