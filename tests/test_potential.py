"""Potential evaluation against finite-difference oracles and trivial cases."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from maflow import (MLPPotential, PotentialParams, eval_batch, eval_potential,
                    init_params, param_vjp)

LN2 = 0.6931471805599453


def random_params(n, h, seed=0, amp=3.0):
    rng = np.random.default_rng(seed)
    p = init_params(n, h, rng)
    return PotentialParams(p.W, rng.standard_normal(h) * 0.3, p.a * amp, rng.standard_normal())


def fd_gradient(params, x, h=1e-4):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (eval_potential(params, x + e).value - eval_potential(params, x - e).value) / (2 * h)
    return g


def fd_hessian_trace(params, x, h=1e-4):
    v0 = eval_potential(params, x).value
    tr = 0.0
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        vp = eval_potential(params, x + e).value
        vm = eval_potential(params, x - e).value
        tr += (vp - 2.0 * v0 + vm) / h ** 2
    return tr


def test_constant_potential():
    p = PotentialParams(np.zeros((3, 2)), np.zeros(3), np.zeros(3), 5.0)
    ev = eval_potential(p, np.array([0.3, -1.2]))
    assert ev.value == 5.0
    assert np.array_equal(ev.grad, np.zeros(2))
    assert ev.laplacian == 0.0


def test_single_unit_at_origin():
    p = PotentialParams(np.array([[1.0]]), np.zeros(1), np.ones(1), 0.0)
    ev = eval_potential(p, np.zeros(1))
    assert ev.value == pytest.approx(LN2, abs=1e-15)
    assert ev.grad[0] == pytest.approx(0.5, abs=1e-15)
    assert ev.laplacian == pytest.approx(0.25, abs=1e-15)


def test_gradient_matches_finite_differences():
    p = random_params(3, 8, seed=42)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(3)
        ev = eval_potential(p, x)
        fd = fd_gradient(p, x)
        assert np.abs(ev.grad - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def test_laplacian_matches_hessian_trace():
    rng = np.random.default_rng(9)
    for seed in range(5):
        p = random_params(4, 8, seed=seed)
        x = rng.standard_normal(4)
        ev = eval_potential(p, x)
        tr = fd_hessian_trace(p, x)
        assert abs(ev.laplacian - tr) <= 1e-4 * max(1.0, abs(tr))


def test_gradient_is_curl_free_in_2d():
    # cross-partials of a gradient field must agree
    p = random_params(2, 10, seed=3)
    x = np.array([0.4, -0.7])
    h = 1e-5

    def grad_at(pt):
        return eval_potential(p, pt).grad

    d_gx_dy = (grad_at(x + [0, h])[0] - grad_at(x - [0, h])[0]) / (2 * h)
    d_gy_dx = (grad_at(x + [h, 0])[1] - grad_at(x - [h, 0])[1]) / (2 * h)
    assert abs(d_gx_dy - d_gy_dx) < 1e-7


def test_constant_offset_only_shifts_value():
    p = random_params(3, 6, seed=5)
    shifted = PotentialParams(p.W, p.b, p.a, p.c + 2.5)
    x = np.array([0.1, 0.2, -0.3])
    e0, e1 = eval_potential(p, x), eval_potential(shifted, x)
    assert e1.value == pytest.approx(e0.value + 2.5, abs=1e-12)
    assert np.array_equal(e0.grad, e1.grad)
    assert e0.laplacian == e1.laplacian


def test_eval_is_pure():
    p = random_params(3, 8, seed=7)
    x = np.array([0.5, -1.0, 2.0])
    a, b = eval_potential(p, x), eval_potential(p, x)
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)
    assert a.laplacian == b.laplacian


def test_batch_matches_per_row_bitwise():
    p = random_params(16, 512, seed=21)
    X = np.random.default_rng(2).standard_normal((64, 16))
    batch = eval_batch(p, X)
    for i in range(64):
        row = eval_potential(p, X[i])
        assert batch.value[i] == row.value
        assert np.array_equal(batch.grad[i], row.grad)
        assert batch.laplacian[i] == row.laplacian


def test_batch_of_one_identical_to_eval():
    p = random_params(3, 4, seed=1)
    x = np.array([1.0, -2.0, 0.5])
    b = eval_batch(p, x[None])
    e = eval_potential(p, x)
    assert b.value[0] == e.value and np.array_equal(b.grad[0], e.grad)


def test_batch_duplicate_rows_identical():
    p = random_params(2, 4, seed=2)
    X = np.array([[0.3, 0.4], [0.3, 0.4]])
    b = eval_batch(p, X)
    assert b.value[0] == b.value[1]
    assert np.array_equal(b.grad[0], b.grad[1])


def test_shape_errors():
    p = random_params(3, 4)
    with pytest.raises(ValueError):
        eval_potential(p, np.zeros(2))
    with pytest.raises(ValueError):
        eval_batch(p, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PotentialParams(np.zeros((2, 2)), np.zeros(3), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        PotentialParams(np.array([[np.nan]]), np.zeros(1), np.zeros(1), 0.0)


def test_param_vjp_zero_weights_give_zero():
    p = random_params(3, 5, seed=11)
    g, dx = param_vjp(p, np.ones(3), np.zeros(3), 0.0)
    assert np.array_equal(g.to_vector(), np.zeros(p.size))
    assert np.array_equal(dx, np.zeros(3))


def test_param_vjp_c_component_always_zero():
    p = random_params(3, 5, seed=12)
    g, _ = param_vjp(p, np.ones(3), np.array([1.0, -2.0, 0.3]), 0.7)
    assert g.c == 0.0


def test_param_vjp_matches_finite_differences():
    p = random_params(4, 6, seed=13)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(4)
    wg = rng.standard_normal(4)
    wl = rng.standard_normal()

    def scalar(pp, xx):
        ev = eval_potential(pp, xx)
        return wg @ ev.grad + wl * ev.laplacian

    g, dx = param_vjp(p, x, wg, wl)
    vec, gvec = p.to_vector(), g.to_vector()
    h = 1e-6
    for j in rng.choice(p.size, 20, replace=False):
        up, dn = vec.copy(), vec.copy()
        up[j] += h
        dn[j] -= h
        fd = (scalar(PotentialParams.from_vector(up, 4, 6), x)
              - scalar(PotentialParams.from_vector(dn, 4, 6), x)) / (2 * h)
        assert abs(gvec[j] - fd) <= 1e-4 * max(abs(fd), abs(gvec[j]), 1e-5)
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (scalar(p, x + e) - scalar(p, x - e)) / (2 * h)
        assert abs(dx[j] - fd) <= 1e-4 * max(abs(fd), 1e-5)


def test_vectorized_engine_agrees_with_reference():
    # the BLAS engine reassociates sums; agreement is near machine precision
    p = random_params(5, 32, seed=15)
    X = np.random.default_rng(5).standard_normal((10, 5))
    ref = eval_batch(p, X)
    eng = MLPPotential(p)
    G, lap, _ = eng.grad_lap(X)
    assert np.abs(G - ref.grad).max() < 1e-12
    assert np.abs(lap - ref.laplacian).max() < 1e-12


def test_engine_vjp_matches_per_point_vjp():
    p = random_params(4, 16, seed=16)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((7, 4))
    WG = rng.standard_normal((7, 4))
    WL = rng.standard_normal(7)
    eng = MLPPotential(p)
    flat, dX = eng.vjp(X, WG, WL)
    acc = np.zeros(p.size)
    for i in range(7):
        g, dx = param_vjp(p, X[i], WG[i], WL[i])
        acc += g.to_vector()
        assert np.abs(dX[i] - dx).max() < 1e-12
    assert np.abs(flat - acc).max() < 1e-10


def test_engine_logistic_matches_expit():
    # the engine's tanh-form logistic, read through a 1x1 identity layer
    eng = MLPPotential(PotentialParams(np.ones((1, 1)), np.zeros(1), np.ones(1), 0.0))
    z = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [-1e300, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        S = eng._activations(z[:, None])[:, 0]
    assert np.abs(S - expit(z)).max() <= 2.3e-16
    assert S.min() >= 0.0 and S.max() <= 1.0
    assert S[-2] == 0.0 and S[-1] == 1.0


def saturated_params(n, h, seed):
    # every other hidden unit sits at |b| ~ 50, where s(z) rounds to 0 or 1
    p = random_params(n, h, seed=seed)
    b = p.b.copy()
    b[::4] += 50.0
    b[2::4] -= 50.0
    return PotentialParams(p.W, b, p.a, p.c)


def test_engine_agrees_with_reference_on_saturated_units():
    p = saturated_params(6, 64, seed=18)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((16, 6))
    WG = rng.standard_normal((16, 6))
    WL = rng.standard_normal(16)
    eng = MLPPotential(p)
    G, lap, S = eng.grad_lap(X)
    ref = eval_batch(p, X)
    assert np.abs(G - ref.grad).max() < 1e-12
    assert np.abs(lap - ref.laplacian).max() < 1e-12
    flat, dX = eng.vjp(X, WG, WL, aux=S)
    acc = np.zeros(p.size)
    for i in range(16):
        g, dx = param_vjp(p, X[i], WG[i], WL[i])
        acc += g.to_vector()
        assert np.abs(dX[i] - dx).max() < 1e-12
    assert np.abs(flat - acc).max() < 1e-12


def test_engine_vjp_builds_no_weight_sized_temporary():
    # B small against (h, n): any (h, n) temporary besides the result breaks the bound
    B, n, h = 8, 256, 512
    p = random_params(n, h, seed=19)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((B, n))
    WG = rng.standard_normal((B, n))
    WL = rng.standard_normal(B)
    eng = MLPPotential(p)
    _, _, S = eng.grad_lap(X)
    tracemalloc.start()
    try:
        flat, _ = eng.vjp(X, WG, WL, aux=S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < flat.nbytes + p.W.nbytes // 2


def test_to_from_vector_roundtrip():
    p = random_params(3, 5, seed=17)
    q = PotentialParams.from_vector(p.to_vector(), 3, 5)
    assert np.array_equal(p.W, q.W) and np.array_equal(p.b, q.b)
    assert np.array_equal(p.a, q.a) and p.c == q.c
    assert not np.shares_memory(p.to_vector(), q.to_vector())


def test_params_are_views_of_one_read_only_vector():
    p = random_params(3, 5, seed=18)
    vec = p.to_vector()
    assert vec is p.to_vector() and vec.flags.c_contiguous and vec.dtype == np.float64
    assert np.array_equal(vec, np.concatenate([p.W.ravel(), p.b, p.a, [p.c]]))
    for arr in (p.W, p.b, p.a):
        assert np.shares_memory(arr, vec)
    for arr in (p.W, p.b, p.a, vec):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        p.W[0, 0] += 1.0


@pytest.mark.parametrize("name,index", [("W", 7), ("b", 2), ("a", 4), ("c", 0)])
def test_non_finite_entry_is_named(name, index):
    p = random_params(3, 5, seed=20)
    parts = {"W": p.W.ravel(), "b": p.b, "a": p.a, "c": np.array([p.c])}
    parts[name] = parts[name].copy()
    parts[name][index] = np.inf
    vec = np.concatenate(list(parts.values()))
    with pytest.raises(ValueError, match=f"non-finite entry in {name} at flat index {index}$"):
        PotentialParams.from_vector(vec, 3, 5)
    with pytest.raises(ValueError, match=f"non-finite entry in {name} at flat index {index}$"):
        PotentialParams(parts["W"].reshape(5, 3), parts["b"], parts["a"], parts["c"][0])


def test_fingerprint_is_the_digest_of_shape_and_fields():
    p = random_params(3, 5, seed=21)
    md = hashlib.sha1()
    md.update(np.array([5, 3], dtype=np.int64).tobytes())
    for part in (p.W, p.b, p.a, np.float64(p.c)):
        md.update(part.tobytes())
    assert p.fingerprint() == md.digest()


def test_init_params_scales():
    rng = np.random.default_rng(0)
    p = init_params(9, 100, rng)
    assert np.abs(p.W).max() <= 1.0 / 3.0
    assert np.abs(p.a).max() <= 0.1
    assert np.array_equal(p.b, np.zeros(100)) and p.c == 0.0


def test_grad_to_params_views_the_flat_gradient():
    p = init_params(3, 5, np.random.default_rng(3))
    flat = np.arange(p.size, dtype=np.float64)
    g = MLPPotential(p).grad_to_params(flat)
    for arr in (g.W, g.b, g.a):
        assert np.shares_memory(arr, flat)
    assert g.to_vector() is flat and not flat.flags.writeable


def test_fingerprint_is_cached_and_tracks_the_weights():
    p = init_params(3, 5, np.random.default_rng(4))
    pot = MLPPotential(p)
    assert pot.fingerprint() is pot.fingerprint()
    assert pot.fingerprint() == MLPPotential(p.copy()).fingerprint()
    other = PotentialParams(p.W, p.b, p.a * 1.001, p.c)
    assert MLPPotential(other).fingerprint() != pot.fingerprint()
