"""Command-line front end.

Subcommands: train, sample, logprob, gaussian1d-demo, ising-oracle.  ``train``
writes its checkpoint and metrics CSV in ``<out_dir>/target_<digest>/``, one
directory per task, dataset and ising section.  Exit codes: 0 success, 2 a
bad config file, argument or input path, 3 numeric abort, 4 format error; any
other failure is a bug and ends in a traceback.  All commands are
deterministic given --seed.  Output artifacts are plain CSV; plotting happens
out of process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import data as data_mod
from .errors import ConfigError, FormatError, NumericError
from .flow import (BACKWARD, FORWARD, FlowState, IntegratorConfig, gaussian_log_density,
                   integrate, log_prob, sample)
from .symmetry import MODES, build_potential, group_by_name
from .targets import (CRITICAL_COUPLING, ENUM_LIMIT, GaussianFlowSolution, IsingEnergy,
                      QuadraticPotential, ising_oracle_report, ising_spec, spin_sampler)
from .trainer import FIELD_RULES, TrainConfig, check_value, load_checkpoint, train

# ---------------------------------------------------------------------------
# run configuration file

# a leaf names the TrainConfig field it sets, or gives its own (types, allowed) for check_value
_SCHEMA = {
    "task": ((str,), ("density", "ising")),
    "seed": "seed",
    "out_dir": ((str,), None),
    "train": {name: name for name in (
        "epsilon", "steps", "hidden", "batch_size", "epochs", "steps_per_epoch",
        "learning_rate", "grad_clip", "checkpoint_every", "max_steps")},
    "symmetry": {"group": "symmetry", "mode": "symmetry_mode", "resample": "resample"},
    "dataset": {
        "name": ((str,), None), "path": ((str, type(None)), None), "lambda": "logit_lambda",
        "size": ((int,), "[1, inf)"),
    },
    "ising": {"L": ((int,), None), "beta": ((float,), "(-inf, inf)")},
}


def _key_line(text, key):
    m = re.search(r'"%s"\s*:' % re.escape(key), text)
    if m is None:
        return "?"
    return text.count("\n", 0, m.start()) + 1


def _check_keys(node, schema, text, fields, prefix=""):
    """Reject unknown keys and values outside their rule; collect the TrainConfig fields set."""
    for key, val in node.items():
        where = f"config key '{prefix}{key}' (line {_key_line(text, key)})"
        rule = schema.get(key)
        if rule is None:
            raise ConfigError(f"unknown {where}")
        if isinstance(rule, dict):
            _check_keys(check_value(where, val, (dict,)), rule, text, fields, f"{prefix}{key}.")
        elif isinstance(rule, str):
            fields[rule] = check_value(where, val, *FIELD_RULES[rule])
        else:
            node[key] = check_value(where, val, *rule)


def load_run_config(path):
    """Parse and validate the JSON run config; unknown keys are rejected."""
    with open(path) as f:
        text = f.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: JSON parse error at line {e.lineno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    overrides = {"symmetry": "none"}  # unlike for_ising, off unless named
    _check_keys(raw, _SCHEMA, text, overrides)
    if "task" not in raw:
        raise ConfigError("config key 'task' is required: 'density' or 'ising'")

    ds = {"name": "mixture-of-8", "path": None, **raw.get("dataset", {})}
    ising = {"L": 4, "beta": CRITICAL_COUPLING, **raw.get("ising", {})}
    make = TrainConfig.for_density if raw["task"] == "density" else TrainConfig.for_ising
    return {"task": raw["task"], "config": make(**overrides), "dataset": ds, "ising": ising,
            "out_dir": raw.get("out_dir", "runs")}


def _target_dir(run):
    """The run's directory in ``out_dir``, named by a digest of its task, dataset and ising
    sections: ``train`` names its files by the training config alone."""
    key = json.dumps({k: run[k] for k in ("task", "dataset", "ising")}, sort_keys=True)
    return os.path.join(run["out_dir"], "target_" + hashlib.sha1(key.encode()).hexdigest()[:12])


def _build_target(run):
    if run["task"] == "ising":
        spec = ising_spec(run["ising"]["L"], run["ising"]["beta"])
        return IsingEnergy(spec)
    ds = run["dataset"]
    rng = np.random.default_rng(run["config"].seed + 1)  # data stream separate from training
    if ds["name"] in data_mod.TOY_NAMES:
        size = ds.get("size", 10000)     # a data file keeps every row unless "size" is set
        return data_mod.toy_density(ds["name"], size, rng)
    if ds["name"] in ("idx", "csv"):
        if not ds["path"]:
            raise ConfigError(f"dataset.name '{ds['name']}' needs dataset.path")
        loaded = (data_mod.load_idx(ds["path"]) if ds["name"] == "idx"
                  else data_mod.Dataset(data_mod.load_csv(ds["path"])))
        if ds.get("size", len(loaded)) < len(loaded):
            loaded = data_mod.Dataset(loaded.X[: ds["size"]].copy(), loaded.space)
        return loaded
    raise ConfigError(f"unknown dataset name '{ds['name']}'")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(args):
    run = load_run_config(args.config)
    if args.seed is not None:
        run["config"] = replace(run["config"], seed=args.seed)
    target = _build_target(run)
    resume = load_checkpoint(args.resume) if args.resume else None
    result = train(run["config"], target, out_dir=_target_dir(run), resume=resume)
    last = result.metrics[-1]["loss"] if result.metrics else float("nan")
    print(f"trained {len(result.metrics)} steps, final loss {last!r}")
    if result.metrics_path:
        print(f"metrics: {result.metrics_path}")
    if result.checkpoint_path:
        print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _evaluation(args, direction):
    """(potential, training config, integrator config, rng) of a sample or logprob run."""
    ckpt = load_checkpoint(args.ckpt)
    cfg = ckpt.config
    group_name = cfg.symmetry if args.symmetry_mode != "none" else "none"
    mode = args.symmetry_mode if args.symmetry_mode in MODES else cfg.symmetry_mode
    group = group_by_name(group_name, ckpt.params.n_dim)
    if group is not None and mode == "sampled":
        print(f"note: sampled {cfg.symmetry} symmetry (resample={cfg.resample}): per-row results "
              "depend on --seed; --symmetry-mode average is exact", file=sys.stderr)
    icfg = IntegratorConfig(args.epsilon or cfg.epsilon, args.steps or cfg.steps, direction)
    return (build_potential(ckpt.params, group, mode, cfg.resample), cfg, icfg,
            np.random.default_rng(args.seed))


def _frames_writer(out_path, every):
    base, ext = os.path.splitext(out_path)

    def cb(k, state):
        if every and k % every == 0:
            data_mod.save_csv(f"{base}_step{k:04d}{ext or '.csv'}", state.X)
    return cb if every else None


def _cmd_sample(args):
    pot, _, icfg, rng = _evaluation(args, FORWARD)
    if args.spins and math.isqrt(pot.n_dim) ** 2 != pot.n_dim:
        raise ConfigError(f"--spins needs a square-lattice checkpoint, got dimension {pot.n_dim}")
    state = sample(pot, args.n, icfg, rng, callback=_frames_writer(args.out, args.dump_every))
    data_mod.save_csv(args.out, state.X)
    print(f"wrote {args.n} samples to {args.out}")
    if args.spins:
        spins_path = os.path.splitext(args.out)[0] + "_spins.csv"
        data_mod.save_csv(spins_path, spin_sampler(state.X, rng))
        print(f"wrote spin configurations to {spins_path}")
    return 0


def _cmd_logprob(args):
    """Model log-density of CSV rows, or of IDX images in pixel space.

    A file that starts with the IDX magic is read as images, anything else
    as CSV.  An IDX image is read as its dequantized bytes in [0, 256)^n:
    its log-density is the model's in logit space plus the log-det of
    ``data.model_space``; bits/dim is the mean NLL over n ln 2, the
    convention of RealNVP (Dinh et al. 2016).
    """
    pot, cfg, icfg, rng = _evaluation(args, BACKWARD)
    ds = (data_mod.load_idx(args.data) if data_mod.is_idx(args.data)
          else data_mod.Dataset(data_mod.load_csv(args.data)))
    X, logdet = data_mod.model_space(ds, rng, cfg.logit_lambda)
    if X.shape[1] != pot.n_dim:
        raise ConfigError(f"data dimension {X.shape[1]} does not match checkpoint {pot.n_dim}")
    lp = log_prob(pot, X, icfg, rng=rng) + logdet
    bpd = (f", bits/dim {float(-lp.mean() / (X.shape[1] * math.log(2.0)))!r}"
           if ds.space == data_mod.RAW else "")
    data_mod.save_csv(args.out, lp[:, None])
    print(f"mean NLL {float(-lp.mean())!r} over {X.shape[0]} rows{bpd}; "
          f"per-row log-densities in {args.out}")
    return 0


def _cmd_gaussian1d_demo(args):
    steps = args.steps
    eps = args.T / steps
    oracle = GaussianFlowSolution(args.rate, args.T)
    pot = QuadraticPotential(args.rate, 1)
    grid = np.linspace(-3.0, 3.0, 61)
    state = FlowState(grid[:, None], gaussian_log_density(grid[:, None]), 0.0)
    final, _ = integrate(pot, state, IntegratorConfig(eps, steps, FORWARD))
    map_err = float(np.abs(final.X[:, 0] - oracle.map(grid)).max())
    den_err = float(np.abs(final.L - oracle.log_density(final.X[:, 0])).max())
    print(f"lambda={args.rate} T={args.T} steps={steps} epsilon={eps!r}")
    print(f"max map error      {map_err!r}")
    print(f"max log-density error {den_err!r}")
    tol = 1e-6
    if eps <= 0.1 and (map_err > tol or den_err > tol):
        print(f"FAIL: error above {tol} at epsilon <= 0.1", file=sys.stderr)
        return 1
    return 0


def _cmd_ising_oracle(args):
    spec = ising_spec(args.L, args.beta)
    rep = ising_oracle_report(spec)
    print(f"L={args.L} beta={args.beta!r} N={spec.n_dim}")
    print(f"alpha                      {rep['alpha']!r}")
    print(f"log det(K + alpha I)       {rep['log_det_kplus']!r}")
    print(f"ln Z_ising (offset enum)   {rep['log_z_ising_offset']!r}")
    print(f"ln Z_ising (no offset)     {rep['log_z_ising']!r}")
    print(f"enumeration cross-check    {rep['enumeration_disagreement']:.3e}")
    print(f"-ln Z (continuous model)   {rep['neg_log_z']!r}")
    return 0


def _flag(kind, allowed):
    """An argparse type: a ``kind`` within ``allowed``, as check_value reads them."""
    def parse(text):
        try:
            return check_value(text, kind(text), (kind,), allowed)
        except (ValueError, ConfigError):
            raise argparse.ArgumentTypeError(f"must be {kind.__name__} in {allowed}, "
                                             f"got {text!r}") from None
    return parse


def build_parser():
    p = argparse.ArgumentParser(
        prog="maflow",
        description="Gradient-flow generative models: train, sample, evaluate.")
    sub = p.add_subparsers(dest="command", required=True,
                           metavar="{train,sample,logprob,gaussian1d-demo,ising-oracle}")

    t = sub.add_parser("train", help="optimize a potential against a config-defined target")
    t.add_argument("--config", required=True, help="JSON run configuration")
    t.add_argument("--resume", help="checkpoint to continue from")
    t.add_argument("--seed", type=_flag(int, "[0, inf)"), default=None,
                   help="override the config seed")
    t.set_defaults(fn=_cmd_train)

    # the checkpoint evaluation flags that sample and logprob share
    ev = argparse.ArgumentParser(add_help=False)
    ev.add_argument("--ckpt", required=True, help="trained checkpoint")
    ev.add_argument("--seed", type=_flag(int, "[0, inf)"), default=0,
                    help="seed of every random draw of the run")
    ev.add_argument("--epsilon", type=_flag(float, "(0, inf)"), default=None,
                    help="override step size")
    ev.add_argument("--steps", type=_flag(int, "[1, inf)"), default=None,
                    help="override step count")
    ev.add_argument("--symmetry-mode", choices=MODES + ("none",), default=None,
                    help="override the checkpoint's symmetrization mode")

    s = sub.add_parser("sample", parents=[ev], help="draw samples from a trained checkpoint")
    s.add_argument("--n", type=_flag(int, "[1, inf)"), required=True, help="number of samples")
    s.add_argument("--out", required=True, help="output CSV")
    s.add_argument("--dump-every", type=_flag(int, "[0, inf)"), default=0, metavar="K",
                   help="write intermediate positions every K steps")
    s.add_argument("--spins", action="store_true",
                   help="also write +-1 spin configurations drawn from p(s|x)")
    s.set_defaults(fn=_cmd_sample)

    l = sub.add_parser("logprob", parents=[ev], help="model log-density of data rows")
    l.add_argument("--data", required=True,
                   help="CSV of points, or an IDX image file (recognized by its magic)")
    l.add_argument("--out", required=True,
                   help="output CSV of per-row log-densities (pixel space for IDX images)")
    l.set_defaults(fn=_cmd_logprob)

    g = sub.add_parser("gaussian1d-demo",
                       help="integrator accuracy against the exact 1-d Gaussian flow")
    g.add_argument("--lambda", dest="rate", type=_flag(float, "(-inf, inf)"), default=0.5)
    g.add_argument("--T", type=_flag(float, "(0, inf)"), default=1.0)
    g.add_argument("--steps", type=_flag(int, "[1, inf)"), default=10)
    g.set_defaults(fn=_cmd_gaussian1d_demo)

    o = sub.add_parser("ising-oracle",
                       help="exact small-lattice free energy by enumeration")
    o.add_argument("--L", type=_flag(int, f"[2, {ENUM_LIMIT}]"), required=True)
    o.add_argument("--beta", type=_flag(float, "(-inf, inf)"), default=CRITICAL_COUPLING)
    o.set_defaults(fn=_cmd_ising_oracle)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 3
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return 4


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
