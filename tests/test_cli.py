"""Run-config parsing and exit codes of the command-line front end."""

import json
import struct

import numpy as np
import pytest

from maflow import Checkpoint, TrainConfig, init_params, save_checkpoint
from maflow.cli import load_run_config, main


def write_config(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


@pytest.mark.parametrize("cfg,key", [
    ({"task": "density", "train": {"epsilon": "0.1"}}, "train.epsilon"),
    ({"task": "density", "seed": "x"}, "seed"),
    ({"task": "ising", "ising": {"L": 4.7}}, "ising.L"),
    ({"task": "density", "train": {"steps": True}}, "train.steps"),
])
def test_wrongly_typed_value_is_a_config_error(tmp_path, capsys, cfg, key):
    path = write_config(tmp_path, cfg)
    assert main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "(line " in err


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
    ckpt = next((tmp_path / "out").glob("checkpoint_*.bin"))
    samples = str(tmp_path / "samples.csv")
    assert main(["sample", "--ckpt", str(ckpt), "--n", "5", "--out", samples]) == 0
    assert main(["logprob", "--ckpt", str(ckpt), "--data", samples,
                 "--out", str(tmp_path / "lp.csv")]) == 0
    assert "mean NLL" in capsys.readouterr().out


def test_resume_with_other_hidden_exits_2(tmp_path, capsys):
    cfg = {"task": "density", "out_dir": str(tmp_path / "out"),
           "train": {"steps": 3, "hidden": 8, "batch_size": 50, "epochs": 1},
           "dataset": {"name": "ring", "size": 100}}
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
    ckpt = next((tmp_path / "out").glob("checkpoint_*.bin"))
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
    ckpt = next((tmp_path / "out").glob("checkpoint_*.bin"))
    cfg["train"]["epochs"] = 2
    capsys.readouterr()
    assert main(["train", "--config", write_config(tmp_path, cfg), "--resume", str(ckpt),
                 "--seed", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed=1 vs seed=7" in err
    assert len(list((tmp_path / "out").iterdir())) == 2  # nothing new was written


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
