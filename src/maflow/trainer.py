"""Training loop, optimizer, checkpointing and metric logging.

An epoch is its list of optimizer steps, each a loss of the potential, so both
objectives share one loop.  Everything is reproducible: the random generator
state is checkpointed, so training N epochs equals training, checkpointing and
resuming.  A checkpoint's epoch counts the epochs completed, so a resume to no
more epochs is a no-op.  A run aborts on non-finite losses with the last good
state saved.
"""

import contextlib
import hashlib
import json
import os
import struct
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import data as data_mod
from .errors import ConfigError, FormatError, NumericError
from .flow import IntegratorConfig, nll_loss, variational_loss
from .potential import PotentialParams, init_params, vector_size
from .symmetry import GROUPS, MODES, RESAMPLES, build_potential, group_by_name

CHECKPOINT_MAGIC = b"MAFLOW01"
CHECKPOINT_VERSION = 1
PARAMS_SECTION_VERSION = 1

METRIC_COLUMNS = ("epoch", "step", "loss", "grad_norm", "seconds")

OBJECTIVES = ("nll", "variational")


def check_value(what, val, types, allowed=None):
    """``val`` if of ``types`` and within ``allowed``, else a ConfigError on ``what``.  ``allowed``
    is None, a tuple of choices or an interval such as ``"[0, 1)"``, which nan is never in.
    ``bool`` is not ``int``; an ``int`` for a ``float`` becomes a float, as 1 and 1.0 configure
    (and hash as) the same run."""
    if float in types and type(val) is int:
        val = float(val)
    if isinstance(val, bool) or not isinstance(val, types):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ConfigError(f"{what} must be {names}, got {val!r}")
    if isinstance(allowed, tuple) and val not in allowed:
        raise ConfigError(f"{what} must be one of {allowed}, got {val!r}")
    if isinstance(allowed, str):
        lo, hi = (float(bound) for bound in allowed[1:-1].split(","))
        if not ((lo <= val if allowed[0] == "[" else lo < val)
                and (val <= hi if allowed[-1] == "]" else val < hi)):
            raise ConfigError(f"{what} must be in {allowed}, got {val!r}")
    return val


def _field(default, allowed):
    return field(default=default, metadata={"allowed": allowed})


@dataclass
class TrainConfig:
    """Hyperparameters of one run, and the schema of every config: each field's line gives
    its type, default and allowed values, as ``check_value`` reads them.  ``__post_init__``
    checks them all, so the presets, ``dataclasses.replace``, ``from_dict`` and the CLI's
    run-config file reject a bad value alike.  Defaults follow the reference experiments."""

    objective: str = _field("nll", OBJECTIVES)
    epsilon: float = _field(0.1, "(0, inf)")
    steps: int = _field(100, "[1, inf)")
    hidden: int = _field(1024, "[1, inf)")
    batch_size: int = _field(100, "[1, inf)")
    epochs: int = _field(10, "[1, inf)")
    steps_per_epoch: int = _field(10, "[1, inf)")     # only used by the variational objective
    learning_rate: float = _field(1e-3, "(0, inf)")
    beta1: float = _field(0.9, "[0, 1)")
    beta2: float = _field(0.999, "[0, 1)")
    adam_eps: float = _field(1e-8, "(0, inf)")
    grad_clip: float = _field(10.0, "[0, inf)")        # 0 = no clipping
    seed: int = _field(0, "[0, inf)")
    symmetry: str = _field("none", GROUPS)
    symmetry_mode: str = _field("sampled", MODES)
    resample: str = _field("step", RESAMPLES)
    logit_lambda: float = _field(1e-6, "[0, 0.5)")
    checkpoint_every: int = _field(0, "[0, inf)")      # epochs between checkpoints; 0 = final only
    max_steps: int = _field(0, "[0, inf)")             # optimizer-step budget; 0 = no limit

    def __post_init__(self):
        for name, rule in FIELD_RULES.items():
            setattr(self, name, check_value(f"train config key '{name}'", getattr(self, name),
                                            *rule))

    @classmethod
    def for_density(cls, **overrides):
        return cls(**overrides)

    @classmethod
    def for_ising(cls, **overrides):
        base = dict(objective="variational", steps=50, hidden=512, batch_size=64,
                    symmetry="ising-full")
        base.update(overrides)
        return cls(**base)

    def integrator(self, direction="forward"):
        return IntegratorConfig(self.epsilon, self.steps, direction)

    def as_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """A config from a JSON object such as ``as_dict`` gives; unknown keys are a ConfigError."""
        unknown = set(d) - set(FIELD_RULES)
        if unknown:
            raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**d)

    def canonical_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def run_hash(self):
        return hashlib.sha1(self.canonical_json().encode()).hexdigest()[:12]


# field name -> (types, allowed values), the arguments check_value takes
FIELD_RULES = {f.name: ((f.type,), f.metadata["allowed"]) for f in fields(TrainConfig)}


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
    # each vector is written as it is, uncopied, when it is already a contiguous <f8 array
    # (any float64 vector on a little-endian host)
    f.write(np.ascontiguousarray(p.to_vector(), "<f8"))
    f.write(struct.pack("<B", ckpt.adam is not None))
    if ckpt.adam is not None:
        f.write(struct.pack("<Q", ckpt.adam.count))
        f.write(np.ascontiguousarray(ckpt.adam.m, "<f8"))
        f.write(np.ascontiguousarray(ckpt.adam.v, "<f8"))
    f.write(struct.pack("<I", len(rng_json)))
    f.write(rng_json)


def _read(f, n, path, what, decode=bytes):
    """The next n bytes through ``decode``; a short or undecodable section is a FormatError."""
    buf = data_mod.read_exact(f, n, path, what)
    try:
        return decode(buf)
    except (ValueError, TypeError, ConfigError) as e:  # TypeError: config not a JSON object
        raise FormatError(f"{path}: corrupt {what}: {e}") from None


def _pcg64_state(buf):
    """The RNG section: JSON that a PCG64 bit generator accepts as its state."""
    state = json.loads(buf)
    try:
        np.random.PCG64(0).state = state    # raises TypeError or ValueError itself, too
    except (KeyError, OverflowError) as e:
        raise ValueError(f"not a PCG64 state ({type(e).__name__}: {e})") from None
    return state


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
        rng_state = _read(f, rng_len, path, "rng state", _pcg64_state)
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after checkpoint")
    return Checkpoint(config, params, adam, epoch, step, rng_state)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    metrics: list = field(default_factory=list)   # rows matching METRIC_COLUMNS
    metrics_path: str | None = None
    checkpoint_path: str | None = None


def _epoch(target, config, fwd, rng):
    """One epoch's optimizer steps, each a function from the potential to its LossResult; an
    nll epoch draws its model-space rows' jitter, then their permutation, now."""
    if config.objective == "variational":
        return config.steps_per_epoch * [
            lambda pot: variational_loss(pot, target, config.batch_size, fwd, rng)]
    X, _ = data_mod.model_space(target, rng, config.logit_lambda)    # fresh jitter every epoch
    return [lambda pot, rows=rows: nll_loss(pot, X[rows], fwd, rng=rng)
            for rows in data_mod.minibatch_indices(X.shape[0], config.batch_size, rng)]


def _optimizer_step(res, params, adam, config, step):
    """(params, Adam state, loss, gradient norm) of one clipped Adam step on the LossResult
    ``res`` of optimizer step ``step``.

    The gradient vector, its clipped copy and the update are locals here, so none of them
    outlives the step: the next loss runs without them.
    """
    g = res.grad.to_vector()
    with np.errstate(over="ignore"):    # a norm that overflows is reported below
        gnorm = float(np.linalg.norm(g))
    if not (np.isfinite(res.value) and np.isfinite(gnorm)):
        raise NumericError(f"non-finite loss or gradient at step {step}")
    if config.grad_clip > 0.0 and gnorm > config.grad_clip:
        g = g * (config.grad_clip / gnorm)
    delta, adam = adam_update(adam, g, config.learning_rate,
                              config.beta1, config.beta2, config.adam_eps)
    params = PotentialParams.wrap(params.to_vector() + delta, params.n_dim, params.n_hidden)
    return params, adam, res.value, gnorm


def train(config, target, out_dir=None, resume=None, stop_fn=None):
    """Optimize the potential against a Dataset (nll) or an energy (variational).

    ``resume`` takes a Checkpoint and continues it (same data, more epochs; none more runs no
    step), appending to its metrics file; a fresh run starts a new one.  ``stop_fn(row_dict)``
    may return True to end the run early.  The TrainResult's checkpoint holds the final state:
    its epoch counts the epochs run to their end.  A ``max_steps`` budget is checked before
    each step and before an epoch draws its batches, so a stop at an epoch boundary saves the
    state an ``epochs`` stop there saves.

    A variational target's ``grad`` must work row by row, and the target must
    pickle, as the potential must, for the row-part worker to take a part (see
    ``variational_loss``).

    Between steps the loop keeps the parameters, the Adam moments, the epoch's batches and
    the metric rows.  The last step's loss result, gradient, clipped gradient and update are
    gone before the next loss runs.
    """
    if config.objective == "nll":
        if not isinstance(target, data_mod.Dataset):
            raise ConfigError("the nll objective needs a Dataset target")
    elif not hasattr(target, "energy") or not hasattr(target, "grad"):
        raise ConfigError("the variational objective needs an energy function target")
    n_dim = target.n_dim

    group = group_by_name(config.symmetry, n_dim)
    fwd = config.integrator("forward")

    metrics_mode = "w" if resume is None else "a"
    if resume is None:      # a fresh run resumes its epoch-0 state
        rng = np.random.default_rng(config.seed)
        resume = Checkpoint(config, init_params(n_dim, config.hidden, rng), None, 0, 0,
                            rng.bit_generator.state)
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
    epoch_done, step = resume.epoch, resume.step
    del resume      # a fresh run's initial parameters are dropped after its first step

    metrics_path = ckpt_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, f"metrics_{config.run_hash()}.csv")
        ckpt_path = os.path.join(out_dir, f"checkpoint_{config.run_hash()}.bin")

    def checkpoint_now(epoch_done):
        # params are read-only and adam_update returns new arrays: nothing here is mutated later
        ck = Checkpoint(config, params, adam, epoch_done, step, rng.bit_generator.state)
        if ckpt_path is not None:
            save_checkpoint(ckpt_path, ck)
        return ck

    # closed on every exit, so the rows written so far reach the disk
    with (open(metrics_path, metrics_mode) if metrics_path is not None
          else contextlib.nullcontext()) as metrics_file:
        if metrics_file is not None and metrics_file.tell() == 0:
            metrics_file.write(",".join(METRIC_COLUMNS) + "\n")
        metrics = []
        t_start = time.perf_counter()
        # always have a good state on disk in case the very first epoch aborts
        checkpoint_now(epoch_done)

        def out_of_steps():
            return config.max_steps and step >= config.max_steps

        for epoch in range(epoch_done, config.epochs):
            if out_of_steps():      # before _epoch draws the epoch's jitter and permutation
                break
            for loss in _epoch(target, config, fwd, rng):
                if out_of_steps():
                    break
                params, adam, value, gnorm = _optimizer_step(
                    loss(build_potential(params, group, config.symmetry_mode, config.resample)),
                    params, adam, config, step)
                step += 1
                row = {"epoch": epoch, "step": step, "loss": value,
                       "grad_norm": gnorm, "seconds": time.perf_counter() - t_start}
                metrics.append(row)
                if metrics_file is not None:
                    metrics_file.write(f"{epoch},{step},{row['loss']!r},{gnorm!r},"
                                       f"{row['seconds']:.3f}\n")
                if stop_fn is not None and stop_fn(row):
                    break
            else:
                epoch_done = epoch + 1
                if config.checkpoint_every and epoch_done % config.checkpoint_every == 0:
                    checkpoint_now(epoch_done)
                continue
            break       # max_steps or stop_fn ended the run inside this epoch
        # an exception above, a NumericError included, skips this save: the last
        # checkpoint written stays on disk instead of the bad state
        final = checkpoint_now(epoch_done)
    return TrainResult(final, metrics, metrics_path, ckpt_path)
