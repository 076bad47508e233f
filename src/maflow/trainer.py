"""Training loop, optimizer, checkpointing and metric logging.

One optimizer step at a time; losses and gradients come from the recorded
trajectory tape.  Everything is reproducible: the random generator state is
checkpointed, so training N epochs equals training, checkpointing and
resuming.  A run aborts on non-finite losses with the last good state saved.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import data as data_mod
from .errors import ConfigError, FormatError, NumericError
from .flow import IntegratorConfig
from .potential import PotentialParams, init_params, vector_size
from .symmetry import build_potential, group_by_name
from .targets import nll_loss, variational_loss

CHECKPOINT_MAGIC = b"MAFLOW01"
CHECKPOINT_VERSION = 1
PARAMS_SECTION_VERSION = 1

METRIC_COLUMNS = ("epoch", "step", "loss", "grad_norm", "seconds")


@dataclass
class TrainConfig:
    """Hyperparameters of one run; defaults follow the reference experiments."""

    objective: str = "nll"            # "nll" | "variational"
    epsilon: float = 0.1
    steps: int = 100
    hidden: int = 1024
    batch_size: int = 100
    epochs: int = 10
    steps_per_epoch: int = 10         # only used by the variational objective
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 10.0
    seed: int = 0
    symmetry: str = "none"            # "none" | "z2" | "ising-full"
    symmetry_mode: str = "sampled"    # "sampled" | "average"
    resample: str = "step"            # "step" | "stage" | "trajectory"
    logit_lambda: float = 1e-6
    checkpoint_every: int = 0         # epochs between checkpoints; 0 = final only
    max_steps: int = 0                # optimizer-step budget; 0 = no limit

    @classmethod
    def for_density(cls, **overrides):
        base = dict(objective="nll", epsilon=0.1, steps=100, hidden=1024, batch_size=100)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def for_ising(cls, **overrides):
        base = dict(objective="variational", epsilon=0.1, steps=50, hidden=512,
                    batch_size=64, symmetry="ising-full")
        base.update(overrides)
        return cls(**base)

    def integrator(self, direction="forward"):
        return IntegratorConfig(self.epsilon, self.steps, direction)

    def as_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**d)

    def canonical_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def run_hash(self):
        return hashlib.sha1(self.canonical_json().encode()).hexdigest()[:12]


@dataclass
class AdamState:
    """First/second moment accumulators over the flattened parameter vector."""

    m: np.ndarray
    v: np.ndarray
    count: int = 0

    @classmethod
    def zeros(cls, size):
        return cls(np.zeros(size), np.zeros(size), 0)


def adam_update(state, gradient, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One adaptive-moment step with bias correction.

    Returns (delta, new state); the caller applies params += delta.
    """
    g = np.asarray(gradient, dtype=np.float64)
    t = state.count + 1
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    delta = -lr * m_hat / (np.sqrt(v_hat) + eps)
    return delta, AdamState(m, v, t)


@dataclass
class Checkpoint:
    config: TrainConfig
    params: PotentialParams
    adam: AdamState | None
    epoch: int
    step: int
    rng_state: dict


def save_checkpoint(path, ckpt):
    """Binary container, little-endian: magic, ``<I`` version, ``<I`` length and config
    JSON, ``<QQ`` epoch and step, ``<III`` params version, n_dim and n_hidden and the
    ``<f8`` vector in ``to_vector()`` order, ``<B`` Adam flag (when set: ``<Q`` count,
    ``<f8`` m and v), ``<I`` length and RNG state JSON.

    The bytes go to a temporary file next to ``path``, which is flushed,
    fsynced and then renamed over ``path``: a write that fails part-way
    leaves the previous checkpoint in place.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            _write_checkpoint(f, ckpt)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_checkpoint(f, ckpt):
    cfg_json = ckpt.config.canonical_json().encode()
    rng_json = json.dumps(ckpt.rng_state, sort_keys=True, separators=(",", ":")).encode()
    p = ckpt.params
    f.write(CHECKPOINT_MAGIC)
    f.write(struct.pack("<I", CHECKPOINT_VERSION))
    f.write(struct.pack("<I", len(cfg_json)))
    f.write(cfg_json)
    f.write(struct.pack("<QQ", ckpt.epoch, ckpt.step))
    f.write(struct.pack("<III", PARAMS_SECTION_VERSION, p.n_dim, p.n_hidden))
    f.write(p.to_vector().astype("<f8").tobytes())
    if ckpt.adam is None:
        f.write(struct.pack("<B", 0))
    else:
        f.write(struct.pack("<B", 1))
        f.write(struct.pack("<Q", ckpt.adam.count))
        f.write(ckpt.adam.m.astype("<f8").tobytes())
        f.write(ckpt.adam.v.astype("<f8").tobytes())
    f.write(struct.pack("<I", len(rng_json)))
    f.write(rng_json)


def _read(f, n, path, what, decode=bytes):
    """The next n bytes through ``decode``; a short or undecodable section is a FormatError."""
    # a corrupt length must not make read() allocate far past the end of the file
    buf = f.read(n) if n <= os.fstat(f.fileno()).st_size - f.tell() else b""
    if len(buf) != n:
        raise FormatError(f"{path}: truncated checkpoint ({what})")
    try:
        return decode(buf)
    except (ValueError, TypeError, ConfigError) as e:  # TypeError: config not a JSON object
        raise FormatError(f"{path}: corrupt {what}: {e}") from None


def load_checkpoint(path):
    """Read a ``save_checkpoint`` file; any corrupt or truncated section is a FormatError."""
    with open(path, "rb") as f:
        if _read(f, 8, path, "magic") != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read(f, 4, path, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read(f, 4, path, "config length"))
        config = _read(f, cfg_len, path, "config", lambda b: TrainConfig.from_dict(json.loads(b)))
        epoch, step = struct.unpack("<QQ", _read(f, 16, path, "counters"))
        pver, n_dim, n_hidden = struct.unpack("<III", _read(f, 12, path, "params header"))
        if pver != PARAMS_SECTION_VERSION:
            raise FormatError(f"{path}: unsupported params section version {pver}")
        params = _read(f, 8 * vector_size(n_dim, n_hidden), path, "params", lambda b:
                       PotentialParams.from_vector(np.frombuffer(b, "<f8"), n_dim, n_hidden))
        (has_adam,) = struct.unpack("<B", _read(f, 1, path, "adam flag"))
        adam = None
        if has_adam:
            (count,) = struct.unpack("<Q", _read(f, 8, path, "adam count"))
            size = params.size
            m = np.frombuffer(_read(f, 8 * size, path, "adam m"), dtype="<f8").copy()
            v = np.frombuffer(_read(f, 8 * size, path, "adam v"), dtype="<f8").copy()
            adam = AdamState(m, v, count)
        (rng_len,) = struct.unpack("<I", _read(f, 4, path, "rng length"))
        rng_state = _read(f, rng_len, path, "rng state", json.loads)
        extra = f.read(1)
        if extra:
            raise FormatError(f"{path}: trailing bytes after checkpoint")
    return Checkpoint(config, params, adam, epoch, step, rng_state)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    metrics: list = field(default_factory=list)   # rows matching METRIC_COLUMNS
    metrics_path: str | None = None
    checkpoint_path: str | None = None
    stopped_early: bool = False


def _epoch_batches(target, config, rng):
    """Model-space matrix and batch index lists for one epoch of the objective."""
    if config.objective == "variational":
        return None, [None] * config.steps_per_epoch
    ds = target
    if ds.space == data_mod.RAW:
        # fresh jitter every epoch, then the padded logit map
        ds, _ = data_mod.logit_transform(data_mod.dequantize(ds, rng), config.logit_lambda)
    elif ds.space == data_mod.UNIT:
        ds, _ = data_mod.logit_transform(ds, config.logit_lambda)
    X = ds.X
    batches = list(data_mod.minibatch_indices(X.shape[0], config.batch_size, rng))
    return X, batches


def train(config, target, out_dir=None, resume=None, stop_fn=None):
    """Optimize the potential against a Dataset (nll) or an energy (variational).

    ``resume`` takes a Checkpoint and continues it (same data, more epochs).
    ``stop_fn(row_dict)`` may return True to end the run early.  Returns a
    TrainResult whose checkpoint reflects the final state.
    """
    if config.objective == "nll":
        if not isinstance(target, data_mod.Dataset):
            raise ConfigError("the nll objective needs a Dataset target")
        n_dim = target.n_dim
    elif config.objective == "variational":
        if not hasattr(target, "energy") or not hasattr(target, "grad"):
            raise ConfigError("the variational objective needs an energy function target")
        n_dim = target.n_dim
    else:
        raise ConfigError(f"unknown objective '{config.objective}'")

    group = group_by_name(config.symmetry, n_dim)
    fwd = config.integrator("forward")

    if resume is not None:
        old, new = resume.config.as_dict(), config.as_dict()
        changed = [f"{k}={old[k]!r} vs {k}={new[k]!r}" for k in old
                   if k not in ("epochs", "max_steps", "checkpoint_every") and old[k] != new[k]]
        if changed:
            raise ConfigError(f"config differs from the checkpoint's: {', '.join(changed)}")
        params = resume.params
        if params.n_dim != n_dim:
            raise ConfigError(f"checkpoint dimension {params.n_dim} does not match target {n_dim}")
        adam = resume.adam if resume.adam is not None else AdamState.zeros(params.size)
        rng = np.random.default_rng()
        rng.bit_generator.state = resume.rng_state
        start_epoch, step = resume.epoch, resume.step
    else:
        rng = np.random.default_rng(config.seed)
        params = init_params(n_dim, config.hidden, rng)
        adam = AdamState.zeros(params.size)
        start_epoch, step = 0, 0

    run_hash = config.run_hash()
    metrics_path = ckpt_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, f"metrics_{run_hash}.csv")
        ckpt_path = os.path.join(out_dir, f"checkpoint_{run_hash}.bin")

    def checkpoint_now(epoch_done):
        # params are read-only and adam_update returns new arrays: nothing here is mutated later
        ck = Checkpoint(config, params, adam, epoch_done, step, rng.bit_generator.state)
        if ckpt_path is not None:
            save_checkpoint(ckpt_path, ck)
        return ck

    # closed on every exit, so the rows written so far reach the disk
    with (open(metrics_path, "a") if metrics_path is not None
          else contextlib.nullcontext()) as metrics_file:
        if metrics_file is not None and metrics_file.tell() == 0:
            metrics_file.write(",".join(METRIC_COLUMNS) + "\n")
        metrics = []
        t_start = time.perf_counter()
        # always have a good state on disk in case the very first epoch aborts
        checkpoint_now(start_epoch)
        epoch_done = start_epoch
        stopped = False

        for epoch in range(start_epoch, config.epochs):
            X_epoch, batches = _epoch_batches(target, config, rng)
            for batch in batches:
                if config.max_steps and step >= config.max_steps:
                    stopped = True
                    break
                pot = build_potential(params, group, config.symmetry_mode, config.resample)
                if config.objective == "nll":
                    res = nll_loss(pot, X_epoch[batch], fwd, rng=rng)
                else:
                    res = variational_loss(pot, target, config.batch_size, fwd, rng)
                g = res.grad.to_vector()
                gnorm = float(np.linalg.norm(g))
                if not (np.isfinite(res.value) and np.isfinite(gnorm)):
                    raise NumericError(f"non-finite loss or gradient at step {step}")
                if config.grad_clip > 0.0 and gnorm > config.grad_clip:
                    g = g * (config.grad_clip / gnorm)
                delta, adam = adam_update(adam, g, config.learning_rate,
                                          config.beta1, config.beta2, config.adam_eps)
                params = PotentialParams._wrap(params.to_vector() + delta,
                                               params.n_dim, params.n_hidden)
                step += 1
                row = {"epoch": epoch, "step": step, "loss": res.value,
                       "grad_norm": gnorm, "seconds": time.perf_counter() - t_start}
                metrics.append(row)
                if metrics_file is not None:
                    metrics_file.write(f"{epoch},{step},{row['loss']!r},{gnorm!r},"
                                       f"{row['seconds']:.3f}\n")
                if stop_fn is not None and stop_fn(row):
                    stopped = True
                    break
            if stopped:
                break
            epoch_done = epoch + 1
            if config.checkpoint_every and epoch_done % config.checkpoint_every == 0:
                checkpoint_now(epoch_done)
        # an exception above, a NumericError included, skips this save: the last
        # checkpoint written stays on disk instead of the bad state
        final = checkpoint_now(epoch_done if stopped else config.epochs)
    return TrainResult(final, metrics, metrics_path, ckpt_path, stopped)
