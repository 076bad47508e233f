"""Checkpoint format, atomic saves and resume equivalence of the trainer."""

import json
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

from maflow import (AdamState, Checkpoint, ConfigError, FormatError, IsingEnergy, NumericError,
                    TrainConfig, init_params, ising_spec, load_checkpoint, save_checkpoint, train)
from maflow import data as data_mod
from maflow import trainer
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


@pytest.mark.parametrize("config,target", _resume_cases())
def test_resume_to_no_more_epochs_keeps_the_counters_and_runs_no_step(config, target):
    whole = train(config, target).checkpoint
    assert whole.epoch == 2
    for epochs in (2, 1):
        noop = train(replace(config, epochs=epochs), target, resume=whole)
        assert noop.metrics == []
        assert (noop.checkpoint.epoch, noop.checkpoint.step) == (whole.epoch, whole.step)
    again = train(config, target, resume=noop.checkpoint)
    assert again.metrics == []
    assert_same_checkpoint(again.checkpoint, whole)


def test_a_step_budget_met_at_an_epoch_boundary_stops_before_the_next_epochs_draws():
    # 120 rows in batches of 40: max_steps = 3 ends the run exactly after epoch 0
    ring = data_mod.toy_density("ring", 120, np.random.default_rng(1))
    config = TrainConfig.for_density(epochs=2, hidden=16, steps=5, batch_size=40, seed=2)
    stopped = train(replace(config, max_steps=3), ring).checkpoint
    first = train(replace(config, epochs=1), ring).checkpoint
    assert (stopped.epoch, stopped.step) == (1, 3)
    assert_same_checkpoint(replace(stopped, config=config), replace(first, config=config))
    resumed = train(config, ring, resume=stopped).checkpoint
    assert_same_checkpoint(resumed, train(config, ring).checkpoint)


def test_the_next_loss_runs_without_the_last_steps_gradient_or_update(monkeypatch):
    # a tiny clip threshold makes every step clip, so each step makes four objects of its
    # own: the loss result, its gradient vector, the clipped copy and the update
    ring = data_mod.toy_density("ring", 120, np.random.default_rng(1))
    config = TrainConfig.for_density(epochs=2, hidden=16, steps=5, batch_size=40, seed=2,
                                     grad_clip=1e-9)
    loss, adam_update = trainer.nll_loss, trainer.adam_update
    refs, alive = [], []

    def watched_loss(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        res = loss(*args, **kwargs)
        refs.extend([weakref.ref(res), weakref.ref(res.grad.to_vector())])
        return res

    def watched_update(state, gradient, *args):
        delta, state = adam_update(state, gradient, *args)
        refs.extend([weakref.ref(gradient), weakref.ref(delta)])
        return delta, state

    monkeypatch.setattr(trainer, "nll_loss", watched_loss)
    monkeypatch.setattr(trainer, "adam_update", watched_update)
    result = train(config, ring)
    assert all(row["grad_norm"] > config.grad_clip for row in result.metrics)
    assert len(refs) == 4 * 6 and alive == 6 * [0]


class NanEnergyFrom:
    """``inner``'s energy, NaN from its ``bad``-th call on (counting from 0)."""

    def __init__(self, inner, bad):
        self.inner, self.bad, self.calls, self.n_dim = inner, bad, 0, inner.n_dim

    def energy(self, X):
        self.calls += 1
        e = self.inner.energy(X)
        return e if self.calls <= self.bad else np.full_like(e, np.nan)

    def grad(self, X):
        return self.inner.grad(X)


def test_adams_first_step_moves_each_weight_by_the_learning_rate():
    # bias correction makes the first step's moments g and g^2 themselves, whatever the betas
    g = np.array([3.0, -0.5, 1e-3])
    delta, state = trainer.adam_update(AdamState.zeros(3), g, 0.01, beta1=0.8, beta2=0.9)
    assert np.allclose(delta, -0.01 * g / (np.abs(g) + 1e-8), rtol=1e-12, atol=0)
    assert state.count == 1


def test_numeric_abort_leaves_the_checkpoint_of_the_last_completed_epoch(tmp_path):
    energy = IsingEnergy(ising_spec(2))
    config = TrainConfig.for_ising(epochs=3, steps_per_epoch=3, hidden=8, steps=5, batch_size=8,
                                   seed=3, checkpoint_every=1)
    with pytest.raises(NumericError, match="non-finite loss or gradient at step 4$"):
        train(config, NanEnergyFrom(energy, 4), out_dir=tmp_path / "abort")
    lines = (tmp_path / "abort" / f"metrics_{config.run_hash()}.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "2", "3", "4"]
    # steps 0-2 made epoch 0, step 3 ran in epoch 1 and step 4 failed: the file on disk is
    # the one that a run stopped by max_steps after epoch 0 writes, under this config
    last_good = train(replace(config, max_steps=3), energy).checkpoint
    assert (last_good.epoch, last_good.step) == (1, 3)
    save_checkpoint(tmp_path / "last_good.bin", replace(last_good, config=config))
    written = tmp_path / "abort" / f"checkpoint_{config.run_hash()}.bin"
    assert written.read_bytes() == (tmp_path / "last_good.bin").read_bytes()


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


def test_resume_with_changed_config_is_refused_naming_every_field(tmp_path):
    ring = data_mod.toy_density("ring", 120, np.random.default_rng(1))
    config = TrainConfig.for_density(epochs=1, hidden=16, steps=3, batch_size=40, seed=2)
    ckpt = train(config, ring).checkpoint
    out = tmp_path / "out"
    changed = replace(config, epochs=2, max_steps=9, checkpoint_every=1, learning_rate=0.01,
                      grad_clip=5.0)
    with pytest.raises(ConfigError) as info:
        train(changed, ring, out_dir=out, resume=ckpt)
    msg = str(info.value)
    assert "learning_rate=0.001 vs learning_rate=0.01" in msg
    assert "grad_clip=10.0 vs grad_clip=5.0" in msg
    assert not any(k in msg for k in ("epochs", "max_steps", "checkpoint_every"))
    assert not out.exists()
    # the three overridable fields alone are accepted
    allowed = replace(config, epochs=2, max_steps=9, checkpoint_every=1)
    assert train(allowed, ring, resume=ckpt).checkpoint.epoch == 2


def test_config_from_dict_checks_types_and_widens_ints():
    cfg = TrainConfig.from_dict({"epsilon": 1, "grad_clip": 5, "steps": 7})
    assert type(cfg.epsilon) is float and type(cfg.grad_clip) is float and cfg.steps == 7
    assert cfg.run_hash() == TrainConfig(epsilon=1.0, grad_clip=5.0, steps=7).run_hash()
    for bad in ({"steps": 7.0}, {"seed": False}, {"objective": 1}, {"epsilon": None}):
        with pytest.raises(ConfigError, match=f"'{next(iter(bad))}'"):
            TrainConfig.from_dict(bad)


def test_every_way_of_building_a_config_checks_it():
    cfg = TrainConfig.for_density(hidden=4)
    for build in (lambda: TrainConfig(steps="3"), lambda: replace(cfg, hidden=0),
                  lambda: TrainConfig.for_ising(symmetry="d4"),
                  lambda: TrainConfig(epsilon=float("nan")), lambda: TrainConfig(beta2=1.0),
                  lambda: TrainConfig(objective="mle"),
                  lambda: TrainConfig.from_dict({"seed": -1})):
        with pytest.raises(ConfigError):
            build()
    assert type(replace(cfg, learning_rate=1).learning_rate) is float


def test_checkpoint_params_section_layout(tmp_path):
    ck = make_checkpoint()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ck)
    raw = path.read_bytes()
    p = ck.params
    # magic, version, config length, config JSON, epoch and step, params header
    cfg_json = ck.config.canonical_json().encode()
    offset = 8 + 4 + 4 + len(cfg_json) + 16
    assert raw[offset:offset + 12] == struct.pack("<III", 1, p.n_dim, p.n_hidden)
    body = b"".join(np.asarray(x, dtype="<f8").tobytes() for x in (p.W, p.b, p.a, [p.c]))
    assert raw[offset + 12:offset + 12 + len(body)] == body
    # a file written section by section, as before the flat vector, loads the same
    rng_json = json.dumps(ck.rng_state, sort_keys=True, separators=(",", ":")).encode()
    old = b"".join([b"MAFLOW01", struct.pack("<II", 1, len(cfg_json)), cfg_json,
                    struct.pack("<QQ", ck.epoch, ck.step),
                    struct.pack("<III", 1, p.n_dim, p.n_hidden),
                    p.W.astype("<f8").tobytes(), p.b.astype("<f8").tobytes(),
                    p.a.astype("<f8").tobytes(), struct.pack("<d", p.c),
                    struct.pack("<BQ", 1, ck.adam.count), ck.adam.m.astype("<f8").tobytes(),
                    ck.adam.v.astype("<f8").tobytes(), struct.pack("<I", len(rng_json)),
                    rng_json])
    assert old == raw
    (tmp_path / "old.bin").write_bytes(old)
    assert_same_checkpoint(load_checkpoint(tmp_path / "old.bin"), ck)


def test_checkpoint_cut_at_any_byte_is_a_format_error(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, make_checkpoint())
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for k in range(len(raw)):
        cut.write_bytes(raw[:k])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(cut)


def test_checkpoint_length_past_the_end_is_a_format_error(tmp_path):
    ck = make_checkpoint()
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ck)
    raw = bytearray(path.read_bytes())
    offset = 8 + 4 + 4 + len(ck.config.canonical_json().encode()) + 16
    raw[offset + 4:offset + 8] = struct.pack("<I", 2 ** 31)  # n_dim: an 86 GB params section
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)
