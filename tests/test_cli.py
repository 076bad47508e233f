"""Run-config parsing and exit codes of the command-line front end."""

import json

import pytest

from maflow import TrainConfig
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
