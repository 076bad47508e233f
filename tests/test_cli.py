"""Run-config parsing and exit codes of the command-line front end."""

import json
import math
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from maflow import (Checkpoint, PotentialParams, TrainConfig, init_params, load_checkpoint,
                    save_checkpoint)
from maflow import cli
from maflow import data as data_mod
from maflow.cli import _SCHEMA, load_run_config, main


def write_config(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


@pytest.mark.parametrize("cfg,key", [
    ({"task": "density", "train": {"epsilon": "0.1"}}, "train.epsilon"),
    ({"task": "density", "seed": "x"}, "seed"),
    ({"task": "ising", "ising": {"L": 4.7}}, "ising.L"),
    ({"task": "density", "train": {"steps": True}}, "train.steps"),
    ({"task": "density", "train": {"hidden": 0}}, "train.hidden"),
    ({"task": "density", "train": {"batch_size": 0}}, "train.batch_size"),
    ({"task": "ising", "train": {"steps_per_epoch": 0}}, "train.steps_per_epoch"),
    ({"task": "ising", "symmetry": {"group": "d4"}}, "symmetry.group"),
    ({"task": "density", "dataset": {"lambda": 0.7}}, "dataset.lambda"),
    ({"task": "density", "dataset": {"size": -1}}, "dataset.size"),
    ({"task": "density", "seed": -1}, "seed"),
    ({"task": "density", "objective": "nll"}, "objective"),
])
def test_wrongly_typed_value_is_a_config_error(tmp_path, capsys, cfg, key):
    # a tiny run around the bad value, so a value the checks miss does not train for minutes
    cfg = {**cfg, "out_dir": str(tmp_path / "out"),
           "train": {"epochs": 1, "hidden": 2, "steps": 1, **cfg.get("train", {})},
           "dataset": {"name": "ring", "size": 10, **cfg.get("dataset", {})},
           "ising": {"L": 2, **cfg.get("ising", {})}}
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"'{key}'" in err and "(line " in err


def test_ising_full_symmetry_on_a_non_square_density_exits_2(tmp_path, capsys):
    cfg = {"task": "density", "out_dir": str(tmp_path / "out"),
           "train": {"epochs": 1, "hidden": 3, "steps": 2},
           "symmetry": {"group": "ising-full"}, "dataset": {"name": "ring", "size": 10}}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "square lattice" in err


def test_toy_dataset_without_rows_is_a_config_error(tmp_path, capsys):
    cfg = {"task": "density", "out_dir": str(tmp_path / "out"), "dataset": {"size": 0}}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'dataset.size'" in err
    assert not (tmp_path / "out").exists()


# TrainConfig fields a run-config file leaves at the preset's value
PRESET_ONLY = {"objective", "beta1", "beta2", "adam_eps"}

# every key of the file set, each to a value neither preset has ...
EVERY_KEY = {
    "seed": 9, "out_dir": "runs",
    "train": {"epsilon": 0.05, "steps": 7, "hidden": 12, "batch_size": 30, "epochs": 3,
              "steps_per_epoch": 4, "learning_rate": 0.02, "grad_clip": 2.5,
              "checkpoint_every": 2, "max_steps": 11},
    "symmetry": {"group": "z2", "mode": "average", "resample": "stage"},
    "dataset": {"name": "ring", "path": None, "lambda": 1e-4, "size": 50},
    "ising": {"L": 2, "beta": 0.3},
}
# ... and the TrainConfig fields those keys set
EVERY_FIELD = dict(seed=9, epsilon=0.05, steps=7, hidden=12, batch_size=30, epochs=3,
                   steps_per_epoch=4, learning_rate=0.02, grad_clip=2.5, checkpoint_every=2,
                   max_steps=11, symmetry="z2", symmetry_mode="average", resample="stage",
                   logit_lambda=1e-4)


def schema_leaves(schema, prefix=""):
    for key, rule in schema.items():
        if isinstance(rule, dict):
            yield from schema_leaves(rule, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", rule


def test_schema_names_each_train_config_field_once():
    names = [rule for _, rule in schema_leaves(_SCHEMA) if isinstance(rule, str)]
    assert len(names) == len(set(names))
    assert set(names) | PRESET_ONLY == {f.name for f in fields(TrainConfig)}
    assert not set(names) & PRESET_ONLY
    assert sorted(names) == sorted(EVERY_FIELD)


@pytest.mark.parametrize("task,make", [("density", TrainConfig.for_density),
                                       ("ising", TrainConfig.for_ising)])
def test_file_setting_every_key_matches_its_preset(tmp_path, task, make):
    set_keys = {key for key, _ in schema_leaves(EVERY_KEY)}
    assert set_keys | {"task"} == {key for key, _ in schema_leaves(_SCHEMA)}
    for key, val in EVERY_FIELD.items():
        assert getattr(make(), key) != val
    run = load_run_config(write_config(tmp_path, {"task": task, **EVERY_KEY}))
    assert run["config"].run_hash() == make(**EVERY_FIELD).run_hash()


@pytest.mark.parametrize("cfg,make,overrides", [
    ({"task": "density", "seed": 4,
      "train": {"epsilon": 0.05, "steps": 20, "hidden": 64, "learning_rate": 0.01,
                "grad_clip": 5},
      "dataset": {"name": "ring", "lambda": 1e-5}},
     TrainConfig.for_density,
     dict(seed=4, epsilon=0.05, steps=20, hidden=64, learning_rate=0.01, grad_clip=5.0,
          logit_lambda=1e-5)),
    ({"task": "density", "symmetry": {"group": "z2", "mode": "average"}},
     TrainConfig.for_density, dict(symmetry="z2", symmetry_mode="average")),
    ({"task": "ising", "train": {"steps": 10, "hidden": 16, "max_steps": 3},
      "symmetry": {"group": "ising-full", "resample": "stage"}, "ising": {"L": 2}},
     TrainConfig.for_ising,
     dict(steps=10, hidden=16, max_steps=3, symmetry="ising-full", resample="stage")),
    ({"task": "ising"}, TrainConfig.for_ising, dict(symmetry="none")),
])
def test_config_matches_train_config_constructors(tmp_path, cfg, make, overrides):
    run = load_run_config(write_config(tmp_path, cfg))
    assert run["config"].run_hash() == make(**overrides).run_hash()


def test_train_then_logprob_end_to_end(tmp_path, capsys):
    cfg = {"task": "density", "out_dir": str(tmp_path / "out"),
           "train": {"steps": 3, "hidden": 8, "batch_size": 50, "epochs": 1},
           "dataset": {"name": "ring", "size": 100}}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
    ckpt = next((tmp_path / "out").glob("target_*/checkpoint_*.bin"))
    samples = str(tmp_path / "samples.csv")
    assert main(["sample", "--ckpt", str(ckpt), "--n", "5", "--out", samples]) == 0
    assert main(["logprob", "--ckpt", str(ckpt), "--data", samples,
                 "--out", str(tmp_path / "lp.csv")]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("mean NLL ")
    assert math.isfinite(float(line.split()[2]))


def test_idx_logprob_of_identity_flow_is_closed_form_bits_per_dim(tmp_path, capsys):
    # a = 0 makes phi constant, so the flow is the identity and the pixel-space density
    # is a product over pixels: N(z) |dz/dx| / 256 with z = logit(lam + (1 - 2 lam) x)
    count, rows, cols, h, lam, seed = 6, 3, 4, 8, 1e-3, 5
    n = rows * cols
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(count, rows, cols))
    data_mod.write_idx(str(tmp_path / "images.idx"), images)
    params = PotentialParams(rng.standard_normal((h, n)), rng.standard_normal(h), np.zeros(h))
    save_checkpoint(tmp_path / "identity.ckpt",
                    Checkpoint(TrainConfig.for_density(hidden=h, logit_lambda=lam), params,
                               None, 0, 0, rng.bit_generator.state))
    out = tmp_path / "lp.csv"
    assert main(["logprob", "--ckpt", str(tmp_path / "identity.ckpt"), "--seed", str(seed),
                 "--data", str(tmp_path / "images.idx"), "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]

    x = (images.reshape(count, n) + np.random.default_rng(seed).random((count, n))) / 256.0
    y = lam + (1.0 - 2.0 * lam) * x
    z = np.log(y) - np.log1p(-y)
    per_pixel = -0.5 * (math.log(2.0 * math.pi) + z * z) + math.log1p(-2.0 * lam) \
        - np.log(y) - np.log1p(-y) - math.log(256.0)
    lp = per_pixel.sum(axis=1)
    bits_per_dim = -lp.mean() / (n * math.log(2.0))
    assert np.abs(np.loadtxt(out, delimiter=",") - lp).max() <= 1e-12 * np.abs(lp).max()
    printed = re.fullmatch(r"mean NLL (\S+) over 6 rows, bits/dim (\S+); per-row .*", line)
    assert printed, line
    assert float(printed[1]) == pytest.approx(-lp.mean(), rel=1e-12, abs=0)
    assert abs(float(printed[2]) - bits_per_dim) <= 1e-12


@pytest.mark.parametrize("fmt,size,steps", [("idx", None, 201), ("idx", 100, 2),
                                             ("csv", None, 4), ("csv", 100, 2)])
def test_data_file_training_set_is_cut_only_by_an_explicit_size(tmp_path, capsys, fmt, size, steps):
    # 10,050 one-pixel images or 200 two-column rows, 50 rows a step
    path = tmp_path / f"x.{fmt}"
    rng = np.random.default_rng(2)
    if fmt == "idx":
        data_mod.write_idx(str(path), rng.integers(0, 256, size=(10_050, 1, 1)))
    else:
        data_mod.save_csv(str(path), rng.standard_normal((200, 2)))
    dataset = {"name": fmt, "path": str(path)}
    if size is not None:
        dataset["size"] = size
    cfg = {"task": "density", "out_dir": str(tmp_path / "out"), "dataset": dataset,
           "train": {"epochs": 1, "batch_size": 50, "hidden": 3, "steps": 2}}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out.startswith(f"trained {steps} steps, ")


def test_logprob_tells_idx_from_csv_by_the_magic(tmp_path, capsys):
    n, h = 4, 8
    rng = np.random.default_rng(2)
    ckpt = str(tmp_path / "c.ckpt")
    save_checkpoint(ckpt, Checkpoint(TrainConfig.for_density(hidden=h, steps=3),
                                     init_params(n, h, rng), None, 0, 0, rng.bit_generator.state))
    data_mod.write_idx(str(tmp_path / "x.csv"), rng.integers(0, 256, size=(3, 2, 2)))
    data_mod.save_csv(str(tmp_path / "x.idx"), rng.standard_normal((5, n)))
    out = []
    for name in ("x.csv", "x.idx", ""):
        code = main(["logprob", "--ckpt", ckpt, "--data", str(tmp_path / name),
                     "--out", str(tmp_path / "lp.csv")])
        out.append((code, *capsys.readouterr()))
    assert out[0][0] == 0 and " over 3 rows, bits/dim " in out[0][1]
    assert out[1][0] == 0 and " over 5 rows; " in out[1][1]
    assert out[2][0] == 2 and out[2][2].startswith("config error:")     # a directory


def data_file_argv(tmp_path, command, name, path):
    """argv of ``command`` reading the ``name`` data file ``path``: logprob under a small
    checkpoint, or a tiny train run."""
    if command == "logprob":
        ckpt = tmp_path / "ck.bin"
        save_small_checkpoint(ckpt, TrainConfig.for_density(hidden=3, steps=2))
        return ["logprob", "--ckpt", str(ckpt), "--data", str(path),
                "--out", str(tmp_path / "out.csv")]
    return ["train", "--config", write_config(tmp_path, {
        "task": "density", "out_dir": str(tmp_path / "out"),
        "train": {"epochs": 1, "hidden": 3, "steps": 2},
        "dataset": {"name": name, "path": str(path)}})]


@pytest.mark.parametrize("command", ["logprob", "train"])
@pytest.mark.parametrize("count,rows,cols,pixels", [
    (2 ** 31, 28, 28, 784), (2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1, 16), (0, 28, 28, 0),
    (5, 0, 0, 0)], ids=["2^31-images", "2^32-1-everything", "no-images", "no-pixels"])
def test_corrupt_or_empty_idx_exits_4(tmp_path, capsys, command, count, rows, cols, pixels):
    path = tmp_path / "x.idx"
    path.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + bytes(pixels))
    assert main(data_file_argv(tmp_path, command, "idx", path)) == 4
    err = capsys.readouterr().err
    assert err.startswith("format error:") and str(path) in err
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["logprob", "train"])
def test_non_finite_csv_value_exits_4_naming_its_line(tmp_path, capsys, command):
    # float() parses nan and 1e999; left in the data, they would abort the flow at a row of a
    # shuffled minibatch instead
    lines = [f"{0.1 * k},{-0.1 * k}" for k in range(34)]
    lines[1], lines[3] = "0.3,nan", "1e999,1"
    path = tmp_path / "x.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(data_file_argv(tmp_path, command, "csv", path)) == 4
    err = capsys.readouterr().err
    assert err == f"format error: {path}: non-finite value in row 2\n"
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out").exists()


def test_fresh_train_runs_of_two_datasets_write_only_their_own_files(tmp_path, capsys):
    # the same train section on two datasets: the run hash is the same, the targets differ
    def run(name):
        cfg = {"task": "density", "out_dir": str(tmp_path / "out"),
               "train": {"steps": 2, "hidden": 4, "batch_size": 50, "epochs": 1},
               "dataset": {"name": name, "size": 100}}
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
        paths = dict(line.split(": ") for line in capsys.readouterr().out.splitlines()[1:])
        return Path(paths["checkpoint"]), Path(paths["metrics"])

    def steps(metrics):
        lines = metrics.read_text().splitlines()
        assert lines[0].startswith("epoch,step,")
        return [line.split(",")[1] for line in lines[1:]]

    ring_ckpt, ring_metrics = run("ring")
    ring_bytes = ring_ckpt.read_bytes()
    moons_ckpt, moons_metrics = run("two-moons")
    assert moons_ckpt != ring_ckpt and moons_metrics != ring_metrics
    assert ring_ckpt.read_bytes() == ring_bytes != moons_ckpt.read_bytes()
    assert steps(ring_metrics) == steps(moons_metrics) == ["1", "2"]
    # a fresh re-run starts its metrics file again instead of appending to it
    assert run("ring") == (ring_ckpt, ring_metrics)
    assert steps(ring_metrics) == ["1", "2"] and ring_ckpt.read_bytes() == ring_bytes


def test_resume_with_other_hidden_exits_2(tmp_path, capsys):
    cfg = {"task": "density", "out_dir": str(tmp_path / "out"),
           "train": {"steps": 3, "hidden": 8, "batch_size": 50, "epochs": 1},
           "dataset": {"name": "ring", "size": 100}}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
    ckpt = next((tmp_path / "out").glob("target_*/checkpoint_*.bin"))
    cfg["train"].update(hidden=16, epochs=2)
    capsys.readouterr()
    assert main(["train", "--config", write_config(tmp_path, cfg), "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "hidden=8" in err and "hidden=16" in err


def test_resume_with_other_seed_exits_2(tmp_path, capsys):
    cfg = {"task": "density", "out_dir": str(tmp_path / "out"), "seed": 1,
           "train": {"steps": 3, "hidden": 8, "batch_size": 50, "epochs": 1},
           "dataset": {"name": "ring", "size": 100}}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
    ckpt = next((tmp_path / "out").glob("target_*/checkpoint_*.bin"))
    cfg["train"]["epochs"] = 2
    capsys.readouterr()
    assert main(["train", "--config", write_config(tmp_path, cfg), "--resume", str(ckpt),
                 "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed=1 vs seed=7" in err
    # nothing new was written
    assert list((tmp_path / "out").iterdir()) == [ckpt.parent]
    assert len(list(ckpt.parent.iterdir())) == 2


def save_small_checkpoint(path, config):
    rng = np.random.default_rng(0)
    n = 4 if config.objective == "variational" else 2
    params = init_params(n, config.hidden, rng)
    save_checkpoint(path, Checkpoint(config, params, None, 1, 3, rng.bit_generator.state))
    return path.read_bytes()


def corrupt_config_byte(raw, cfg_len):
    return raw[:16] + b"\xff" + raw[17:]


def corrupt_weight(raw, cfg_len):
    at = 16 + cfg_len + 16 + 12
    return raw[:at] + struct.pack("<d", float("nan")) + raw[at + 8:]


def corrupt_hidden(raw, cfg_len):
    at = 16 + cfg_len + 16 + 8
    return raw[:at] + struct.pack("<I", 0) + raw[at + 4:]


@pytest.mark.parametrize("corrupt,section", [(corrupt_config_byte, "config"),
                                             (corrupt_weight, "params"),
                                             (corrupt_hidden, "params")])
def test_corrupt_checkpoint_exits_4(tmp_path, capsys, corrupt, section):
    path = tmp_path / "ck.bin"
    raw = save_small_checkpoint(path, TrainConfig.for_density(hidden=3, steps=2))
    path.write_bytes(corrupt(raw, struct.unpack_from("<I", raw, 12)[0]))
    assert main(["sample", "--ckpt", str(path), "--n", "2",
                 "--out", str(tmp_path / "s.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("format error:") and f"corrupt {section}" in err


@pytest.mark.parametrize("key,value", [("steps", "x"), ("steps", True), ("hidden", 3.0),
                                       ("epsilon", "0.1"), ("symmetry", None),
                                       ("symmetry", "bogus"), ("steps", 0), ("resample", "x")])
def test_checkpoint_config_of_wrong_type_exits_4(tmp_path, capsys, key, value):
    path = tmp_path / "ck.bin"
    raw = save_small_checkpoint(path, TrainConfig.for_density(hidden=3, steps=2))
    cfg_len = struct.unpack_from("<I", raw, 12)[0]
    cfg = json.loads(raw[16:16 + cfg_len])
    cfg[key] = value
    cfg_json = json.dumps(cfg).encode()
    path.write_bytes(raw[:12] + struct.pack("<I", len(cfg_json)) + cfg_json
                     + raw[16 + cfg_len:])
    assert main(["sample", "--ckpt", str(path), "--n", "2",
                 "--out", str(tmp_path / "s.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("format error:") and "corrupt config" in err and f"'{key}'" in err


@pytest.mark.parametrize("rng_json", [b'{"bit_generator":"PCG64"}', b'[]',
                                      b'{"bit_generator":"MT19937","state":{}}'])
def test_checkpoint_rng_state_not_pcg64_exits_4_on_resume(tmp_path, capsys, rng_json):
    cfg = {"task": "density", "out_dir": str(tmp_path / "out"),
           "train": {"steps": 3, "hidden": 8, "batch_size": 50, "epochs": 1},
           "dataset": {"name": "ring", "size": 100}}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
    ckpt = next((tmp_path / "out").glob("target_*/checkpoint_*.bin"))
    raw = ckpt.read_bytes()
    at = raw.rindex(b'{"bit_generator"') - 4   # the RNG section ends the file
    ckpt.write_bytes(raw[:at] + struct.pack("<I", len(rng_json)) + rng_json)
    cfg["train"]["epochs"] = 2
    capsys.readouterr()
    assert main(["train", "--config", write_config(tmp_path, cfg), "--resume", str(ckpt)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("format error:") and "corrupt rng state" in err


def test_sampled_symmetry_evaluation_notes_the_seed(tmp_path, capsys):
    path = tmp_path / "ck.bin"
    save_small_checkpoint(path, TrainConfig.for_ising(hidden=3, steps=2, symmetry="ising-full"))
    (tmp_path / "x.csv").write_text("0,0,0,0\n1,0,-1,0.5\n")
    commands = [["sample", "--n", "2", "--out", str(tmp_path / "s.csv")],
                ["logprob", "--data", str(tmp_path / "x.csv"), "--out", str(tmp_path / "l.csv")]]
    for cmd in commands:
        assert main(cmd + ["--ckpt", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "note" not in out and len(out.splitlines()) == 1
        assert len(err.splitlines()) == 1
        assert all(w in err for w in ("ising-full", "resample=step", "--seed",
                                      "--symmetry-mode average"))
        assert main(cmd + ["--ckpt", str(path), "--symmetry-mode", "average"]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,flag", [
    (["gaussian1d-demo", "--steps", "0"], "--steps"),
    (["gaussian1d-demo", "--T", "0"], "--T"),
    (["gaussian1d-demo", "--lambda", "nan"], "--lambda"),
    (["ising-oracle", "--L", "2", "--beta", "nan"], "--beta"),
    (["sample", "--n", "2", "--steps", "0"], "--steps"),
    (["sample", "--n", "2", "--epsilon", "0"], "--epsilon"),
    (["sample", "--n", "-1"], "--n"),
    (["sample", "--n", "2", "--seed", "-1"], "--seed"),
    (["sample", "--n", "2", "--dump-every", "-1"], "--dump-every"),
    (["sample", "--n", "2", "--direction", "backward"], "--direction"),
    (["logprob", "--data", "x.csv", "--steps", "0"], "--steps"),
    (["logprob", "--data", "x.csv", "--epsilon", "inf"], "--epsilon"),
    (["train", "--config", "run.json", "--seed", "-1"], "--seed"),
    (["ising-oracle", "--L", "1000"], "--L"),
    (["ising-oracle", "--L", "-2"], "--L"),
])
def test_bad_flag_exits_2_naming_it(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    save_small_checkpoint(tmp_path / "ck.bin", TrainConfig.for_density(hidden=3, steps=2))
    (tmp_path / "x.csv").write_text("0,0\n")
    write_config(tmp_path, {"task": "density", "train": {"epochs": 1, "hidden": 3, "steps": 2},
                            "dataset": {"name": "ring", "size": 10}})
    if argv[0] in ("sample", "logprob"):
        argv = argv + ["--ckpt", "ck.bin", "--out", "out.csv"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--ckpt", ".", "--n", "2", "--out", "s.csv"],
    ["sample", "--ckpt", "x.csv/ck.bin", "--n", "2", "--out", "s.csv"],
    ["logprob", "--ckpt", "ck.bin", "--data", ".", "--out", "l.csv"],
    ["logprob", "--ckpt", "ck.bin", "--data", "x.csv/", "--out", "l.csv"],
], ids=["ckpt-dir", "ckpt-under-file", "data-dir", "data-under-file"])
def test_unreadable_input_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    save_small_checkpoint(tmp_path / "ck.bin", TrainConfig.for_density(hidden=3, steps=2))
    (tmp_path / "x.csv").write_text("0,0\n")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / argv[-1]).exists()


@pytest.mark.parametrize("rate", ["-50", "50"])
def test_gaussian_demo_overflow_is_a_numeric_abort(capsys, rate):
    assert main(["gaussian1d-demo", "--lambda", rate, "--T", "100"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric abort:") and f"lambda*T = {float(rate) * 100!r}" in err


def test_training_that_goes_non_finite_exits_3_and_leaves_a_loadable_checkpoint(tmp_path,
                                                                                 capsys):
    # Adam's first step moves every weight by about the learning rate, so the norm of the
    # second step's gradient overflows
    cfg = {"task": "density", "out_dir": str(tmp_path / "out"),
           "train": {"steps": 2, "hidden": 4, "batch_size": 50, "epochs": 3,
                     "checkpoint_every": 1, "learning_rate": 1e60},
           "dataset": {"name": "ring", "size": 50}}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err == "numeric abort: non-finite loss or gradient at step 1\n"
    ckpt = load_checkpoint(next((tmp_path / "out").glob("target_*/checkpoint_*.bin")))
    assert (ckpt.epoch, ckpt.step) == (1, 1)
    assert np.isfinite(ckpt.params.to_vector()).all()


def test_weights_that_overflow_the_evaluators_caches_exit_3_with_the_flows_abort(tmp_path,
                                                                                 capsys):
    # Adam's first step moves every weight by about 1e150, so a_k |W_k|^2 overflows when the
    # second step builds its evaluator; the non-finite field then aborts the flow
    cfg = {"task": "density", "out_dir": str(tmp_path / "out"),
           "train": {"steps": 2, "hidden": 4, "batch_size": 50, "epochs": 3,
                     "checkpoint_every": 1, "learning_rate": 1e150},
           "dataset": {"name": "ring", "size": 50}}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err == "numeric abort: non-finite value during step 0, batch row 0\n"


def test_value_error_from_the_library_is_not_a_config_error(monkeypatch):
    def broken(spec):
        raise ValueError("a bug, not a bad argument")
    monkeypatch.setattr(cli, "ising_oracle_report", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["ising-oracle", "--L", "2"])


def test_sample_spins_of_a_square_checkpoint_are_plus_or_minus_one(tmp_path, capsys):
    path = tmp_path / "ck.bin"
    save_small_checkpoint(path, TrainConfig.for_ising(hidden=3, steps=2))   # a 2x2 lattice
    out = tmp_path / "s.csv"
    assert main(["sample", "--ckpt", str(path), "--n", "5", "--out", str(out), "--spins"]) == 0
    assert str(tmp_path / "s_spins.csv") in capsys.readouterr().out
    spins = data_mod.load_csv(str(tmp_path / "s_spins.csv"))
    assert spins.shape == (5, 4) and set(np.unique(spins)) <= {-1.0, 1.0}


def test_sample_spins_of_a_non_square_checkpoint_exits_2_before_sampling(tmp_path, capsys):
    path = tmp_path / "ck.bin"
    save_small_checkpoint(path, TrainConfig.for_density(hidden=3, steps=2))   # the 2-d ring
    out = tmp_path / "s.csv"
    assert main(["sample", "--ckpt", str(path), "--n", "5", "--out", str(out),
                 "--dump-every", "1", "--spins"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: --spins needs a square")
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("config", [TrainConfig.for_density(hidden=8, steps=4),
                                    TrainConfig.for_ising(hidden=8, steps=4)],
                         ids=["density", "ising-sampled"])
def test_sample_dump_every_writes_the_same_final_samples(tmp_path, capsys, config):
    # the frame callback runs the batch as one part; without it, 40 rows run as two
    path = tmp_path / "ck.bin"
    save_small_checkpoint(path, config)
    outs = [tmp_path / "plain.csv", tmp_path / "dumped.csv"]
    assert main(["sample", "--ckpt", str(path), "--n", "40", "--out", str(outs[0])]) == 0
    assert main(["sample", "--ckpt", str(path), "--n", "40", "--out", str(outs[1]),
                 "--dump-every", "2"]) == 0
    assert (tmp_path / "dumped_step0004.csv").read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() == outs[1].read_bytes()
