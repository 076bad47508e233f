"""Dataset ingestion and the image-to-continuous-space pipeline.

Images arrive as IDX files of bytes, get uniform jitter ((byte + u)/256 with
u ~ U[0,1)) and then a padded logit map to the whole real line;
``model_space`` is that pipeline, for training and evaluation alike.  Toy
2-d densities with known log-densities provide desk-scale targets for density
estimation.  Datasets are immutable after construction.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError

RAW = "raw"            # integer byte values 0..255
UNIT = "unit"          # jittered values in [0, 1)
LOGIT = "logit"        # unconstrained model space for image data
PLAIN = "plain"        # already-continuous model space (toys, CSV loads)

_IDX_IMAGES_MAGIC = 0x00000803

TOY_NAMES = ("two-moons", "ring", "mixture-of-8")

MIX8_RADIUS = 2.0
MIX8_SIGMA = 0.1
RING_RADIUS = 2.0
RING_SIGMA = 0.1
MOONS_SIGMA = 0.1


@dataclass
class Dataset:
    """Row-major sample matrix tagged with the space its values live in."""

    X: np.ndarray
    space: str = PLAIN

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError(f"dataset matrix must be 2-d, got {self.X.shape}")
        if self.space not in (RAW, UNIT, LOGIT, PLAIN):
            raise ValueError(f"unknown space tag '{self.space}'")

    def __len__(self):
        return self.X.shape[0]

    @property
    def n_dim(self):
        return self.X.shape[1]


def read_exact(f, n, path, what):
    """The next n bytes of binary file f; fewer left is a FormatError naming ``what``."""
    # a corrupt size must not make read() allocate far past the end of the file
    buf = f.read(n) if n <= os.fstat(f.fileno()).st_size - f.tell() else b""
    if len(buf) != n:
        raise FormatError(f"{path}: truncated {what} at byte offset {f.tell() - len(buf)}")
    return buf


def is_idx(path):
    """True when the file starts with the IDX image magic, which no CSV text can start with."""
    with open(path, "rb") as f:
        return f.read(4) == struct.pack(">I", _IDX_IMAGES_MAGIC)


def load_idx(images_path):
    """Load an IDX image file into a raw Dataset.

    Expects the published big-endian container: magic 0x00000803, dimension
    sizes, then unsigned bytes.  Images are flattened row-major.  A file with
    no images or no pixels, or whose sizes disagree with its length, is a
    FormatError.
    """
    with open(images_path, "rb") as f:
        magic = struct.unpack(">I", read_exact(f, 4, images_path, "magic"))[0]
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(f"{images_path}: bad magic 0x{magic:08x} at byte offset 0, "
                              f"expected 0x{_IDX_IMAGES_MAGIC:08x}")
        count, rows, cols = struct.unpack(">III", read_exact(f, 12, images_path, "header"))
        if count * rows * cols == 0:
            raise FormatError(f"{images_path}: no image data ({count} images of {rows}x{cols})")
        raw = read_exact(f, count * rows * cols, images_path, "pixel data")
        extra = f.read(1)
        if extra:
            raise FormatError(f"{images_path}: trailing bytes at offset {f.tell() - 1}")
    X = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols)
    return Dataset(X, RAW)


def write_idx(images_path, images):
    """Write byte images (n, rows, cols) as an IDX file; inverse of load_idx."""
    images = np.asarray(images)
    if images.ndim != 3:
        raise ValueError(f"expected (n, rows, cols) byte images, got {images.shape}")
    if images.dtype != np.uint8:
        if images.min() < 0 or images.max() > 255:
            raise ValueError("image values outside 0..255")
        images = images.astype(np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", _IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def dequantize(dataset, rng):
    """Jitter raw bytes to (byte + u)/256 with u ~ U[0,1) per pixel."""
    if dataset.space != RAW:
        raise ValueError(f"dequantize expects raw byte data, got '{dataset.space}'")
    u = rng.random(dataset.X.shape)
    return Dataset((dataset.X + u) / 256.0, UNIT)


def logit_transform(dataset, lam=1e-6):
    """Map [0,1] data to the real line through logit(lam + (1-2 lam) x).

    Returns (logit dataset, per-row log-det-Jacobian) so callers can convert
    model-space likelihoods back to the original space when wanted.
    """
    if dataset.space != UNIT:
        raise ValueError(f"logit_transform expects unit-interval data, got '{dataset.space}'")
    y = lam + (1.0 - 2.0 * lam) * dataset.X
    log_y, log_1my = np.log(y), np.log1p(-y)
    logdet = (np.log1p(-2.0 * lam) - log_y - log_1my).sum(axis=1)
    return Dataset(log_y - log_1my, LOGIT), logdet


def inverse_logit_transform(dataset, lam=1e-6):
    """Undo logit_transform back to the unit interval."""
    if dataset.space != LOGIT:
        raise ValueError(f"expected logit-space data, got '{dataset.space}'")
    y = 1.0 / (1.0 + np.exp(-dataset.X))
    return Dataset((y - lam) / (1.0 - 2.0 * lam), UNIT)


def model_space(dataset, rng, lam=1e-6):
    """The rows in model space and each row's log-det-Jacobian from the dataset's own units.

    RAW bytes get fresh jitter from ``rng`` and the logit map; their log-det
    includes -n ln 256 for the scaling to [0, 1).  UNIT data gets the logit
    map.  Any other space is returned as it is, with zero log-det.
    """
    if dataset.space == RAW:
        ds, logdet = logit_transform(dequantize(dataset, rng), lam)
        return ds.X, logdet - dataset.n_dim * math.log(256.0)
    if dataset.space == UNIT:
        ds, logdet = logit_transform(dataset, lam)
        return ds.X, logdet
    return dataset.X, np.zeros(len(dataset))


# ---------------------------------------------------------------------------
# toy 2-d targets

_MIX8_ANGLES = 2.0 * np.pi * np.arange(8) / 8.0
_MIX8_CENTERS = MIX8_RADIUS * np.stack([np.cos(_MIX8_ANGLES), np.sin(_MIX8_ANGLES)], axis=1)


def _moon_centers(t):
    # sklearn-style construction: two interleaved half circles
    a = np.stack([np.cos(t), np.sin(t)], axis=-1)
    b = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=-1)
    return a, b


def toy_density(name, n_samples, rng):
    """Sample one of the named 2-d toy targets into a plain Dataset."""
    if name == "mixture-of-8":
        comp = rng.integers(8, size=n_samples)
        X = _MIX8_CENTERS[comp] + MIX8_SIGMA * rng.standard_normal((n_samples, 2))
    elif name == "ring":
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n_samples)
        rho = RING_RADIUS + RING_SIGMA * rng.standard_normal(n_samples)
        X = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=1)
    elif name == "two-moons":
        t = rng.uniform(0.0, np.pi, size=n_samples)
        a, b = _moon_centers(t)
        which = rng.integers(2, size=n_samples)
        X = np.where(which[:, None] == 0, a, b) + MOONS_SIGMA * rng.standard_normal((n_samples, 2))
    else:
        raise ConfigError(f"unknown toy density '{name}' (choose from {', '.join(TOY_NAMES)})")
    return Dataset(X, PLAIN)


# rows of X per two-moons block: a block holds (rows, 4002) doubles, 8 MB
_MOONS_BLOCK_ROWS = 256


def toy_log_density(name, X):
    """log-density of the named toy target at the rows of X.

    mixture-of-8 and ring are closed form; two-moons integrates over the arc
    parameter with a fine trapezoid rule (documented approximation), a block of
    rows at a time.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError(f"toy densities are 2-d, got {X.shape}")
    if name == "mixture-of-8":
        d2 = ((X[:, None, :] - _MIX8_CENTERS[None, :, :]) ** 2).sum(axis=2)
        comp = -d2 / (2.0 * MIX8_SIGMA ** 2) - np.log(2.0 * np.pi * MIX8_SIGMA ** 2)
        m = comp.max(axis=1)
        return m + np.log(np.exp(comp - m[:, None]).sum(axis=1)) - np.log(8.0)
    if name == "ring":
        r = np.sqrt((X ** 2).sum(axis=1))
        return (-0.5 * np.log(2.0 * np.pi * RING_SIGMA ** 2)
                - (r - RING_RADIUS) ** 2 / (2.0 * RING_SIGMA ** 2)
                - np.log(2.0 * np.pi * r))
    if name == "two-moons":
        t = np.linspace(0.0, np.pi, 2001)
        a, b = _moon_centers(t)
        centers = np.concatenate([a, b])  # equal weights over both arcs
        out = np.empty(X.shape[0])
        # each row reduces on its own, so the blocks bound memory without changing a bit
        for k in range(0, X.shape[0], _MOONS_BLOCK_ROWS):
            rows = X[k:k + _MOONS_BLOCK_ROWS]
            comp = (rows[:, :1] - centers[:, 0]) ** 2
            comp += (rows[:, 1:] - centers[:, 1]) ** 2
            comp /= -2.0 * MOONS_SIGMA ** 2
            comp -= np.log(2.0 * np.pi * MOONS_SIGMA ** 2)
            m = comp.max(axis=1)
            comp -= m[:, None]
            out[k:k + _MOONS_BLOCK_ROWS] = m + np.log(np.exp(comp, out=comp).mean(axis=1))
        return out
    raise ConfigError(f"unknown toy density '{name}' (choose from {', '.join(TOY_NAMES)})")


def minibatch_indices(n_rows, batch_size, rng):
    """Yield index batches covering every row exactly once, in shuffled order."""
    order = rng.permutation(n_rows)
    for start in range(0, n_rows, batch_size):
        yield order[start:start + batch_size]


# ---------------------------------------------------------------------------
# CSV interchange


def save_csv(path, X):
    """Write a sample matrix with full round-trip precision, '.' decimal separator."""
    X = np.asarray(X, dtype=np.float64)
    with open(path, "w") as f:
        for row in np.atleast_2d(X):
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def load_csv(path):
    """Read a sample matrix; a malformed row, or one with a value that is not finite, is a
    FormatError naming its line."""
    rows = []
    width = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise FormatError(f"{path}: malformed value in row {lineno}") from None
            if not all(map(math.isfinite, vals)):
                raise FormatError(f"{path}: non-finite value in row {lineno}")
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise FormatError(f"{path}: row {lineno} has {len(vals)} columns, expected {width}")
            rows.append(vals)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return np.array(rows)
