"""Checkpoint format, atomic saves and resume equivalence of the trainer."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from maflow import (AdamState, Checkpoint, ConfigError, FormatError, IsingEnergy, TrainConfig,
                    init_params, ising_spec, load_checkpoint, save_checkpoint, train)
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
        with pytest.raises(FormatError):
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
