"""Command-line front end.

Subcommands: train, sample, logprob, gaussian1d-demo, ising-oracle (and the
undocumented gradcheck diagnostic).  Exit codes: 0 success, 2 config error,
3 numeric abort, 4 format error.  All commands are deterministic given
--seed.  Output artifacts are plain CSV; plotting happens out of process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import data as data_mod
from .errors import ConfigError, FormatError, NumericError
from .flow import BACKWARD, FORWARD, IntegratorConfig, integrate, log_prob, sample
from .potential import PotentialParams, init_params
from .symmetry import build_potential, group_by_name
from .targets import (CRITICAL_COUPLING, IsingEnergy, QuadraticPotential,
                      gaussian_flow_oracle, ising_oracle_report, ising_spec)
from .trainer import TrainConfig, load_checkpoint, train

# ---------------------------------------------------------------------------
# run configuration file

_SCHEMA = {
    "task": ("density", "ising"),
    "objective": ("nll", "variational"),
    "seed": int,
    "out_dir": str,
    "train": {
        "epsilon": float, "steps": int, "hidden": int, "batch_size": int,
        "epochs": int, "steps_per_epoch": int, "learning_rate": float,
        "grad_clip": float, "checkpoint_every": int, "max_steps": int,
    },
    "symmetry": {
        "group": ("none", "z2", "ising-full"),
        "mode": ("sampled", "average"),
        "resample": ("step", "stage", "trajectory"),
    },
    "dataset": {
        "name": str, "path": (str, type(None)), "labels_path": (str, type(None)),
        "lambda": float, "size": int,
    },
    "ising": {"L": int, "beta": float},
}


def _key_line(text, key):
    m = re.search(r'"%s"\s*:' % re.escape(key), text)
    if m is None:
        return "?"
    return text.count("\n", 0, m.start()) + 1


def _check_keys(node, schema, text, prefix=""):
    """Reject unknown keys and wrongly typed values; an int given for a float becomes a float."""
    for key, val in node.items():
        if key not in schema:
            raise ConfigError(f"unknown config key '{prefix}{key}' (line {_key_line(text, key)})")
        rule = schema[key]
        if isinstance(rule, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key '{prefix}{key}' must be an object "
                                  f"(line {_key_line(text, key)})")
            _check_keys(val, rule, text, prefix=f"{prefix}{key}.")
        elif isinstance(rule, tuple) and all(isinstance(r, str) for r in rule):
            if val not in rule:
                raise ConfigError(f"config key '{prefix}{key}' must be one of {rule}, "
                                  f"got {val!r} (line {_key_line(text, key)})")
        else:
            types = rule if isinstance(rule, tuple) else (rule,)
            if float in types and type(val) is int:
                node[key] = float(val)  # 1 and 1.0 configure (and hash as) the same run
            elif isinstance(val, bool) or not isinstance(val, types):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ConfigError(f"config key '{prefix}{key}' must be {names}, "
                                  f"got {val!r} (line {_key_line(text, key)})")


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
    _check_keys(raw, _SCHEMA, text)

    task = raw.get("task")
    if task not in ("density", "ising"):
        raise ConfigError("config key 'task' is required and must be 'density' or 'ising'")
    objective = raw.get("objective", "nll" if task == "density" else "variational")
    if task == "density" and objective != "nll":
        raise ConfigError("the density task trains with the 'nll' objective")
    if task == "ising" and objective != "variational":
        raise ConfigError("the ising task trains with the 'variational' objective")

    overrides = dict(raw.get("train", {}))
    sym = raw.get("symmetry", {})
    overrides["symmetry"] = sym.get("group", "none")  # unlike for_ising, off unless named
    for key, name in (("mode", "symmetry_mode"), ("resample", "resample")):
        if key in sym:
            overrides[name] = sym[key]
    if "seed" in raw:
        overrides["seed"] = raw["seed"]
    ds = dict(name="mixture-of-8", path=None, labels_path=None, size=10000)
    ds.update(raw.get("dataset", {}))
    if "lambda" in ds:
        overrides["logit_lambda"] = ds.pop("lambda")
    ising = dict(L=4, beta=CRITICAL_COUPLING)
    ising.update(raw.get("ising", {}))

    make = TrainConfig.for_density if task == "density" else TrainConfig.for_ising
    config = make(**overrides)
    return {"task": task, "config": config, "dataset": ds, "ising": ising,
            "out_dir": raw.get("out_dir", "runs")}


def _build_target(run):
    if run["task"] == "ising":
        spec = ising_spec(run["ising"]["L"], run["ising"]["beta"])
        return IsingEnergy(spec)
    ds = run["dataset"]
    rng = np.random.default_rng(run["config"].seed + 1)  # data stream separate from training
    if ds["name"] in data_mod.TOY_NAMES:
        return data_mod.toy_density(ds["name"], ds["size"], rng)
    if ds["name"] == "idx":
        if not ds["path"]:
            raise ConfigError("dataset.name 'idx' needs dataset.path")
        loaded = data_mod.load_idx(ds["path"], ds["labels_path"])
        if ds["size"] and ds["size"] < len(loaded):
            loaded = data_mod.Dataset(loaded.X[: ds["size"]].copy(), loaded.space,
                                      None if loaded.labels is None
                                      else loaded.labels[: ds["size"]].copy())
        return loaded
    if ds["name"] == "csv":
        if not ds["path"]:
            raise ConfigError("dataset.name 'csv' needs dataset.path")
        return data_mod.Dataset(data_mod.load_csv(ds["path"]))
    raise ConfigError(f"unknown dataset name '{ds['name']}'")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_train(args):
    run = load_run_config(args.config)
    if args.seed is not None:
        run["config"].seed = args.seed
    target = _build_target(run)
    resume = load_checkpoint(args.resume) if args.resume else None
    result = train(run["config"], target, out_dir=run["out_dir"], resume=resume)
    last = result.metrics[-1]["loss"] if result.metrics else float("nan")
    print(f"trained {len(result.metrics)} steps, final loss {last!r}")
    if result.metrics_path:
        print(f"metrics: {result.metrics_path}")
    if result.checkpoint_path:
        print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _potential_from_checkpoint(path, mode_override=None):
    ckpt = load_checkpoint(path)
    cfg = ckpt.config
    group_name = cfg.symmetry if mode_override != "none" else "none"
    mode = mode_override if mode_override in ("sampled", "average") else cfg.symmetry_mode
    group = group_by_name(group_name, ckpt.params.n_dim)
    if group is not None and mode == "sampled":
        print(f"note: sampled {cfg.symmetry} symmetry (resample={cfg.resample}): per-row results "
              "depend on --seed; --symmetry-mode average is exact", file=sys.stderr)
    return build_potential(ckpt.params, group, mode, cfg.resample), cfg


def _frames_writer(out_path, every):
    base, ext = os.path.splitext(out_path)

    def cb(k, state):
        if every and k % every == 0:
            data_mod.save_csv(f"{base}_step{k:04d}{ext or '.csv'}", state.X)
    return cb if every else None


def _cmd_sample(args):
    pot, cfg = _potential_from_checkpoint(args.ckpt, args.symmetry_mode)
    icfg = IntegratorConfig(args.epsilon or cfg.epsilon, args.steps or cfg.steps,
                            args.direction)
    rng = np.random.default_rng(args.seed)
    state = sample(pot, args.n, icfg, rng, callback=_frames_writer(args.out, args.dump_every))
    data_mod.save_csv(args.out, state.X)
    print(f"wrote {args.n} samples to {args.out}")
    if args.spins:
        from .targets import spin_sampler
        side = math.isqrt(state.n_dim)
        if side * side != state.n_dim:
            raise ConfigError(f"--spins needs a square-lattice checkpoint, got dimension "
                              f"{state.n_dim}")
        spins_path = os.path.splitext(args.out)[0] + "_spins.csv"
        data_mod.save_csv(spins_path, spin_sampler(state.X, rng))
        print(f"wrote spin configurations to {spins_path}")
    return 0


def _cmd_logprob(args):
    pot, cfg = _potential_from_checkpoint(args.ckpt, args.symmetry_mode)
    rng = np.random.default_rng(args.seed)
    if args.data.endswith((".idx", "-ubyte")) or args.idx:
        ds = data_mod.load_idx(args.data)
        ds, _ = data_mod.logit_transform(data_mod.dequantize(ds, rng), cfg.logit_lambda)
        X = ds.X
    else:
        X = data_mod.load_csv(args.data)
    if X.shape[1] != pot.n_dim:
        raise ConfigError(f"data dimension {X.shape[1]} does not match checkpoint {pot.n_dim}")
    icfg = IntegratorConfig(args.epsilon or cfg.epsilon, args.steps or cfg.steps, BACKWARD)
    lp = log_prob(pot, X, icfg, rng=rng)
    data_mod.save_csv(args.out, lp[:, None])
    print(f"mean NLL {(-lp.mean())!r} over {X.shape[0]} rows; per-row log-densities in {args.out}")
    return 0


def _cmd_gaussian1d_demo(args):
    if not math.isfinite(args.rate):
        raise ConfigError("--lambda must be finite")
    steps = args.steps
    eps = args.T / steps
    oracle = gaussian_flow_oracle(args.rate, args.T)
    pot = QuadraticPotential(args.rate, 1)
    grid = np.linspace(-3.0, 3.0, 61)
    from .flow import FlowState, gaussian_log_density
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


def _cmd_gradcheck(args):
    from .gradcheck import run_gradcheck
    worst = run_gradcheck(seed=args.seed, verbose=True)
    print(f"max relative error {worst:.3e}")
    return 0 if worst < 1e-4 else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="maflow",
        description="Gradient-flow generative models: train, sample, evaluate.")
    sub = p.add_subparsers(dest="command", required=True,
                           metavar="{train,sample,logprob,gaussian1d-demo,ising-oracle}")

    t = sub.add_parser("train", help="optimize a potential against a config-defined target")
    t.add_argument("--config", required=True, help="JSON run configuration")
    t.add_argument("--resume", help="checkpoint to continue from")
    t.add_argument("--seed", type=int, default=None, help="override the config seed")
    t.set_defaults(fn=_cmd_train)

    s = sub.add_parser("sample", help="draw samples from a trained checkpoint")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--n", type=int, required=True, help="number of samples")
    s.add_argument("--out", required=True, help="output CSV")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--epsilon", type=float, default=None, help="override step size")
    s.add_argument("--steps", type=int, default=None, help="override step count")
    s.add_argument("--direction", choices=(FORWARD, BACKWARD), default=FORWARD)
    s.add_argument("--dump-every", type=int, default=0, metavar="K",
                   help="write intermediate positions every K steps")
    s.add_argument("--spins", action="store_true",
                   help="also write +-1 spin configurations drawn from p(s|x)")
    s.add_argument("--symmetry-mode", choices=("sampled", "average", "none"), default=None,
                   help="override the checkpoint's symmetrization mode")
    s.set_defaults(fn=_cmd_sample)

    l = sub.add_parser("logprob", help="model log-density of data rows")
    l.add_argument("--ckpt", required=True)
    l.add_argument("--data", required=True, help="CSV of points, or an IDX image file")
    l.add_argument("--out", required=True, help="output CSV of per-row log-densities")
    l.add_argument("--idx", action="store_true", help="force IDX parsing of --data")
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--epsilon", type=float, default=None)
    l.add_argument("--steps", type=int, default=None)
    l.add_argument("--symmetry-mode", choices=("sampled", "average", "none"), default=None)
    l.set_defaults(fn=_cmd_logprob)

    g = sub.add_parser("gaussian1d-demo",
                       help="integrator accuracy against the exact 1-d Gaussian flow")
    g.add_argument("--lambda", dest="rate", type=float, default=0.5)
    g.add_argument("--T", type=float, default=1.0)
    g.add_argument("--steps", type=int, default=10)
    g.set_defaults(fn=_cmd_gaussian1d_demo)

    o = sub.add_parser("ising-oracle",
                       help="exact small-lattice free energy by enumeration")
    o.add_argument("--L", type=int, required=True)
    o.add_argument("--beta", type=float, default=CRITICAL_COUPLING)
    o.set_defaults(fn=_cmd_ising_oracle)

    gc = sub.add_parser("gradcheck")
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(fn=_cmd_gradcheck)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, FileNotFoundError) as e:
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
