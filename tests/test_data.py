"""IDX round trips, dequantize/logit pipeline, toy targets, batching, CSV."""

import math

import numpy as np
import pytest

from maflow import ConfigError, FormatError
from maflow.data import (Dataset, dequantize, inverse_logit_transform, is_idx, load_csv,
                         load_idx, logit_transform, minibatch_indices, model_space, save_csv,
                         toy_density, toy_log_density, write_idx)


def test_idx_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(2, 5, 4)).astype(np.uint8)
    ip = tmp_path / "imgs.idx"
    write_idx(ip, imgs)
    ds = load_idx(ip)
    assert ds.X.shape == (2, 20)
    assert np.array_equal(ds.X.reshape(2, 5, 4), imgs.astype(np.float64))
    # second write from the loaded data is byte-identical
    ip2 = tmp_path / "imgs2.idx"
    write_idx(ip2, ds.X.reshape(2, 5, 4).astype(np.uint8))
    assert ip.read_bytes() == ip2.read_bytes()


def test_idx_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 8)
    with pytest.raises(FormatError, match="magic"):
        load_idx(p)
    q = tmp_path / "empty.idx"
    q.write_bytes(b"")
    with pytest.raises(FormatError):
        load_idx(q)
    r = tmp_path / "trunc.idx"
    r.write_bytes(b"\x00\x00\x08\x03" + np.array([5, 3, 3], ">u4").tobytes() + b"\x00" * 10)
    with pytest.raises(FormatError, match="offset"):
        load_idx(r)


def test_dequantize_ranges_and_reproducibility():
    ds = Dataset(np.array([[0.0, 255.0], [128.0, 1.0]]), "raw")
    a = dequantize(ds, np.random.default_rng(1))
    b = dequantize(ds, np.random.default_rng(1))
    assert np.array_equal(a.X, b.X)
    assert a.space == "unit"
    assert 0.0 <= a.X[0, 0] < 1.0 / 256.0
    assert 255.0 / 256.0 <= a.X[0, 1] < 1.0
    assert (a.X >= 0).all() and (a.X < 1).all()


def test_dequantize_preserves_pixel_correspondence():
    # row/pixel order is untouched: the byte is recoverable from each value
    rng = np.random.default_rng(2)
    ds = Dataset(rng.integers(0, 256, size=(20, 3)).astype(float), "raw")
    dq = dequantize(ds, rng)
    assert np.array_equal(np.floor(dq.X * 256.0), ds.X)


def test_logit_midpoint_is_zero():
    ds = Dataset(np.full((1, 3), 0.5), "unit")
    out, _ = logit_transform(ds)
    assert np.array_equal(out.X, np.zeros((1, 3)))


def test_logit_extreme_value():
    ds = Dataset(np.zeros((1, 1)), "unit")
    out, _ = logit_transform(ds, lam=1e-6)
    assert out.X[0, 0] == pytest.approx(-13.815509, abs=1e-6)


def test_logit_inverse_roundtrip():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.random((10, 4)), "unit")
    out, _ = logit_transform(ds)
    back = inverse_logit_transform(out)
    assert np.abs(back.X - ds.X).max() < 1e-12


def test_logit_logdet_matches_finite_differences():
    lam = 1e-6
    rng = np.random.default_rng(4)
    x = rng.random((1, 1))
    _, logdet = logit_transform(Dataset(x, "unit"), lam)
    h = 1e-7

    def fwd(v):
        y = lam + (1 - 2 * lam) * v
        return math.log(y / (1 - y))

    fd = (fwd(x[0, 0] + h) - fwd(x[0, 0] - h)) / (2 * h)
    assert logdet[0] == pytest.approx(math.log(fd), rel=1e-8)


def test_model_space_of_raw_bytes_is_dequantize_then_logit():
    ds = Dataset(np.random.default_rng(11).integers(0, 256, size=(6, 5)), "raw")
    X, logdet = model_space(ds, np.random.default_rng(12), 1e-3)
    want, want_logdet = logit_transform(dequantize(ds, np.random.default_rng(12)), 1e-3)
    assert np.array_equal(X, want.X)
    assert np.array_equal(logdet, want_logdet - 5 * math.log(256.0))


def test_model_space_of_unit_data_is_the_logit_map_and_plain_data_passes():
    ds = Dataset(np.random.default_rng(13).random((6, 5)), "unit")
    rng = np.random.default_rng(14)
    X, logdet = model_space(ds, rng, 1e-3)
    want, want_logdet = logit_transform(ds, 1e-3)
    assert np.array_equal(X, want.X) and np.array_equal(logdet, want_logdet)
    plain = Dataset(ds.X, "plain")
    X, logdet = model_space(plain, rng, 1e-3)
    assert X is plain.X and np.array_equal(logdet, np.zeros(6))
    # neither space draws from the generator
    assert rng.bit_generator.state == np.random.default_rng(14).bit_generator.state


def test_is_idx_reads_the_magic_not_the_name(tmp_path):
    write_idx(tmp_path / "x.csv", np.zeros((2, 3, 3), dtype=np.uint8))
    save_csv(tmp_path / "x.idx", np.ones((2, 9)))
    (tmp_path / "short").write_bytes(b"\x00\x00")
    assert is_idx(tmp_path / "x.csv")
    assert not is_idx(tmp_path / "x.idx") and not is_idx(tmp_path / "short")


def test_toy_samplers_shapes_and_determinism():
    for name in ("two-moons", "ring", "mixture-of-8"):
        a = toy_density(name, 100, np.random.default_rng(5))
        b = toy_density(name, 100, np.random.default_rng(5))
        assert a.X.shape == (100, 2) and a.space == "plain"
        assert np.array_equal(a.X, b.X)
    with pytest.raises(ConfigError):
        toy_density("nope", 10, np.random.default_rng(0))


def test_ring_samples_concentrate_on_radius():
    ds = toy_density("ring", 5000, np.random.default_rng(6))
    r = np.sqrt((ds.X ** 2).sum(axis=1))
    assert abs(r.mean() - 2.0) < 0.02
    assert (np.abs(r - 2.0) < 0.5).all()


def test_mixture8_log_density_normalized_and_consistent():
    # quadrature mass and a direct mixture evaluation at sample points
    sp = 0.02
    xs = np.arange(-3.2, 3.2 + sp / 2, sp)
    XX, YY = np.meshgrid(xs, xs, indexing="ij")
    P = np.stack([XX.ravel(), YY.ravel()], axis=1)
    mass = np.exp(toy_log_density("mixture-of-8", P)).sum() * sp ** 2
    assert abs(mass - 1.0) < 1e-6
    # empirical NLL of its own samples approaches the quadrature entropy
    ds = toy_density("mixture-of-8", 40_000, np.random.default_rng(7))
    nll = -toy_log_density("mixture-of-8", ds.X).mean()
    assert abs(nll - 0.3121484221) < 0.02


def test_ring_log_density_normalized():
    sp = 0.02
    xs = np.arange(-3.2, 3.2 + sp / 2, sp)
    XX, YY = np.meshgrid(xs, xs, indexing="ij")
    P = np.stack([XX.ravel(), YY.ravel()], axis=1)
    mass = np.exp(toy_log_density("ring", P)).sum() * sp ** 2
    assert abs(mass - 1.0) < 1e-6


def test_two_moons_log_density_normalized():
    # 7,000 grid points, more than one block of rows; spacing 0.02 gives the same mass to 1e-15
    sp = 0.05
    XX, YY = np.meshgrid(np.arange(-2.0, 3.0, sp), np.arange(-1.5, 2.0, sp), indexing="ij")
    P = np.stack([XX.ravel(), YY.ravel()], axis=1)
    mass = np.exp(toy_log_density("two-moons", P)).sum() * sp ** 2
    assert abs(mass - 1.0) < 1e-6


def test_minibatches_cover_every_row_once():
    rng = np.random.default_rng(8)
    seen = np.concatenate(list(minibatch_indices(103, 16, rng)))
    assert sorted(seen) == list(range(103))
    a = list(minibatch_indices(50, 10, np.random.default_rng(9)))
    b = list(minibatch_indices(50, 10, np.random.default_rng(9)))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_csv_roundtrip_full_precision(tmp_path):
    X = np.random.default_rng(10).standard_normal((7, 3)) * 1e3
    p = tmp_path / "x.csv"
    save_csv(p, X)
    Y = load_csv(p)
    assert np.array_equal(X, Y)


def test_csv_malformed_row_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(FormatError, match="row 2"):
        load_csv(p)
    q = tmp_path / "ragged.csv"
    q.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match="row 2"):
        load_csv(q)
