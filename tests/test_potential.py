"""Potential evaluation against finite-difference oracles and trivial cases."""

import hashlib
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg.blas import dgemm
from scipy.special import expit

from maflow import flow
from maflow import (FlowState, IntegratorConfig, MLPPotential, NumericError, ParamGrad,
                    PotentialParams, SymmetrizedPotential, eval_batch, eval_potential,
                    gaussian_log_density, init_params, integrate, log_prob, nll_loss, param_vjp,
                    sample, z2_group)
from maflow.potential import logistic

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
    G, lap = eng.grad_lap(X)
    assert np.abs(G - ref.grad).max() < 1e-12
    assert np.abs(lap - ref.laplacian).max() < 1e-12


def test_engine_vjp_matches_per_point_vjp():
    p = random_params(4, 16, seed=16)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((7, 4))
    WG = rng.standard_normal((7, 4))
    WL = rng.standard_normal(7)
    eng = MLPPotential(p)
    pg, dX = eng.vjp(X, WG, WL)
    flat = pg.to_vector()
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
        S = eng.grad_lap(z[:, None])[0][:, 0]
    assert np.abs(S - expit(z)).max() <= 2.3e-16
    assert S.min() >= 0.0 and S.max() <= 1.0
    assert S[-2] == 0.0 and S[-1] == 1.0


def test_reference_logistic_matches_expit():
    z = np.concatenate([np.linspace(-800.0, 800.0, 160_001),
                        [-1e300, 1e300, -np.inf, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = logistic(z)
    assert np.abs(s - expit(z)).max() <= 2.3e-16
    assert s.min() >= 0.0 and s.max() <= 1.0
    assert s[-4] == s[-2] == 0.0 and s[-3] == s[-1] == 1.0


def dgemm_vjp(p, X, WG, WL):
    """Flat parameter gradient of ``MLPPotential.vjp`` with dW accumulated by BLAS
    dgemm(beta=1) onto the 2 a t2 W term, written out with the same elementwise steps."""
    W, a = p.W, p.a
    h, n = W.shape
    B = X.shape[0]
    rowsq = np.einsum("kj,kj->k", W, W)
    S = X @ W.T
    S += p.b
    S *= 0.5
    np.tanh(S, out=S)
    S *= 0.5
    S += 0.5
    Sp = S * S
    np.subtract(S, Sp, out=Sp)
    U = WG @ W.T
    t2 = WL @ Sp
    da = np.einsum("bk,bk->k", S, U)
    da += t2 * rowsq
    L = np.empty((2 * B, h))
    aBm, aS = L[:B], L[B:]
    np.multiply(S, -2.0 * rowsq, out=aBm)
    aBm += rowsq
    aBm *= WL[:, None]
    aBm += U
    aBm *= Sp
    aBm *= a
    np.multiply(S, a, out=aS)
    dW = np.empty((h, n))
    np.multiply(W, (2.0 * a * t2)[:, None], out=dW)
    R = np.concatenate([X, WG])
    dgemm(1.0, R.T, L.T, beta=1.0, c=dW.T, trans_b=1, overwrite_c=1)
    return np.concatenate([dW.ravel(), aBm.sum(axis=0), da, [0.0]])


@pytest.mark.parametrize("n,h,B", [(2, 1024, 100), (64, 512, 64), (784, 1024, 100)],
                         ids=["toy", "ising8", "mnist-shape"])
def test_engine_vjp_equals_dgemm_accumulation_bitwise(n, h, B):
    # one rounded add per dW entry, whichever operand comes first; this holds
    # while the BLAS adds the whole 2B-term product sum to C in one step
    p = random_params(n, h, seed=22)
    rng = np.random.default_rng(10)
    X, WG, WL = rng.standard_normal((B, n)), rng.standard_normal((B, n)), rng.standard_normal(B)
    pg, _ = MLPPotential(p).vjp(X, WG, WL)
    assert np.array_equal(pg.to_vector(), dgemm_vjp(p, X, WG, WL))


def sums_of_t2(t2):
    """A ``ParamGrad``'s (3, h) rows db, da and t2, with db = da = 0."""
    return np.stack([np.zeros_like(t2), np.zeros_like(t2), t2])


@pytest.mark.parametrize("rows,n,h", [(64, 64, 512), (96, 784, 1024), (104, 784, 1024),
                                      (40, 200, 700)],
                         ids=["ising8", "mnist-shape-part0", "mnist-shape-part1", "ragged"])
def test_blocked_fold_and_w_term_are_bitwise_the_single_gemm_results(rows, n, h):
    # L and R of one row part at the benchmark shapes (2B = 64; 2B = 96 and 104 for the 48
    # and 52 rows of B = 100), and at a shape whose last row block, 700 = 2 * 327 + 46, is
    # ragged, as mnist-shape's is (1024 = 12 * 83 + 28)
    p = random_params(n, h, seed=26)
    rng = np.random.default_rng(12)
    calls = [(rng.standard_normal((rows, h)), rng.standard_normal((rows, n)),
              rng.standard_normal(h)) for _ in range(3)]
    size = max(1, 2 ** 16 // n)
    assert (h > size and h % size != 0) == (n != 64)
    dW = calls[0][0].T @ calls[0][1]
    for L, R, _ in calls[1:]:
        dW += L.T @ R
    t2 = calls[0][2] + calls[1][2] + calls[2][2]
    dW += p.W * (2.0 * p.a * t2)[:, None]
    one = ParamGrad(p, *calls[0][:2], sums_of_t2(calls[0][2])).to_vector()
    assert np.array_equal(one[:h * n], (calls[0][0].T @ calls[0][1]
                                        + p.W * (2.0 * p.a * calls[0][2])[:, None]).ravel())
    total = None
    for L, R, t in calls:
        pg = ParamGrad(p, L, R, sums_of_t2(t))
        total = pg if total is None else total.add(pg)
    assert np.array_equal(total.to_vector()[:h * n], dW.ravel())


def test_sum_of_param_grads_matches_sum_of_single_vectors(fold_on):
    # mixed batch sizes and an average-mode sum (itself |G| calls with scaled cotangents)
    n, h = 6, 24
    p = random_params(n, h, seed=23)
    eng = MLPPotential(p)
    sym = SymmetrizedPotential(eng, z2_group(n), mode="average")
    rng = np.random.default_rng(11)
    calls = [(pot, rng.standard_normal((B, n)), rng.standard_normal((B, n)),
              rng.standard_normal(B)) for pot, B in ((eng, 3), (sym, 5), (eng, 1), (eng, 8),
                                                      (sym, 2), (eng, 5))]

    def summed():
        total = None
        for pot, X, WG, WL in calls:
            pg, _ = pot.vjp(X, WG, WL)
            total = pg if total is None else total.add(pg)
        return total

    total = fold_on(summed)
    ref = np.zeros(p.size)
    for pot, X, WG, WL in calls:
        if pot is eng:
            ref += eng.vjp(X, WG, WL)[0].to_vector()
            continue
        k = len(sym.group)
        for m in range(k):
            ref += eng.vjp(sym.group.act(m, X), sym.group.act(m, WG), WL)[0].to_vector() / k
    vec = fold_on(total.to_vector)
    assert np.abs(vec - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(vec, summed().to_vector())
    assert total.to_vector() is vec
    X, WG, WL = calls[0][1:]
    with pytest.raises(ValueError, match="materialized"):
        total.add(eng.vjp(X, WG, WL)[0])
    other = MLPPotential(random_params(n, h, seed=24)).vjp(X, WG, WL)[0]
    with pytest.raises(ValueError, match="different parameters"):
        eng.vjp(X, WG, WL)[0].add(other)


def test_overflow_in_a_product_follows_the_callers_settings(fold_on):
    # finite factors whose product L^T R overflows, folded on the caller or on the worker,
    # which runs under the caller's np.geterr()
    p = random_params(2, 3, seed=25)
    L, R = np.full((4, 3), 1e200), np.full((4, 2), 1e200)

    def overflowing():
        return ParamGrad(p, L, R, np.zeros((3, 3))).to_vector()

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        fold_on(overflowing)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = fold_on(overflowing)
    assert np.isinf(vec[:6]).all() and np.isfinite(vec[6:]).all()


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
    G, lap = eng.grad_lap(X)
    ref = eval_batch(p, X)
    assert np.abs(G - ref.grad).max() < 1e-12
    assert np.abs(lap - ref.laplacian).max() < 1e-12
    pg, dX = eng.vjp(X, WG, WL)
    flat = pg.to_vector()
    acc = np.zeros(p.size)
    for i in range(16):
        g, dx = param_vjp(p, X[i], WG[i], WL[i])
        acc += g.to_vector()
        assert np.abs(dX[i] - dx).max() < 1e-12
    assert np.abs(flat - acc).max() < 1e-12


@pytest.mark.parametrize("saturated", [False, True], ids=["plain", "saturated"])
@pytest.mark.parametrize("n,h", [(64, 512), (784, 1024)], ids=["ising8", "mnist-shape"])
def test_engine_agrees_with_reference_at_the_benchmark_shapes(n, h, saturated):
    # the tanh-form kernel sums sum_k q_k - t^2 q, which cancels to 0 on a saturated unit
    p = saturated_params(n, h, seed=27) if saturated else random_params(n, h, seed=27)
    rng = np.random.default_rng(13)
    B = 4
    X, WG, WL = rng.standard_normal((B, n)), rng.standard_normal((B, n)), rng.standard_normal(B)
    eng = MLPPotential(p)
    G, lap = eng.grad_lap(X)
    ref = eval_batch(p, X)
    assert np.abs(G - ref.grad).max() < 1e-12
    assert np.abs(lap - ref.laplacian).max() < 1e-12
    pg, dX = eng.vjp(X, WG, WL)
    acc = np.zeros(p.size)
    for i in range(B):
        g, dx = param_vjp(p, X[i], WG[i], WL[i])
        acc += g.to_vector()
        assert np.abs(dX[i] - dx).max() < 1e-12
    assert np.abs(pg.to_vector() - acc).max() < 1e-12


def test_grad_lap_holds_one_hidden_sized_buffer():
    # t, t^2 and the products all live in the one (B, h) buffer of X W^T
    B, n, h = 64, 64, 512
    p = random_params(n, h, seed=28)
    X = np.random.default_rng(14).standard_normal((B, n))
    eng = MLPPotential(p)
    tracemalloc.start()
    try:
        eng.grad_lap(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * B * h * 8


def test_engine_vjp_builds_no_weight_sized_temporary():
    # B small against (h, n): vjp keeps dW factored, so any (h, n) array breaks the bound
    B, n, h = 8, 256, 512
    p = random_params(n, h, seed=19)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((B, n))
    WG = rng.standard_normal((B, n))
    WL = rng.standard_normal(B)
    eng = MLPPotential(p)
    tracemalloc.start()
    try:
        eng.vjp(X, WG, WL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.W.nbytes // 2


@pytest.mark.parametrize("symmetrized", [False, True])
def test_vjp_refuses_saved_activations(symmetrized):
    n, h, B = 4, 8, 3
    pot = MLPPotential(random_params(n, h, seed=25))
    if symmetrized:
        pot = SymmetrizedPotential(pot, z2_group(n), mode="sampled")
    rng = np.random.default_rng(12)
    X, WG, WL = rng.standard_normal((B, n)), rng.standard_normal((B, n)), rng.standard_normal(B)
    with pytest.raises(ValueError, match="aux must be None"):
        pot.vjp(X, WG, WL, ctx=1 if symmetrized else None, aux=np.zeros((B, h)))


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


def test_fingerprint_is_cached_and_tracks_the_weights():
    p = init_params(3, 5, np.random.default_rng(4))
    pot = MLPPotential(p)
    assert p.fingerprint() is p.fingerprint()
    assert pot.fingerprint() == b"mlp:" + p.fingerprint()
    assert pot.fingerprint() == MLPPotential(p.copy()).fingerprint()
    other = PotentialParams(p.W, p.b, p.a * 1.001, p.c)
    assert MLPPotential(other).fingerprint() != pot.fingerprint()


# ---------------------------------------------------------------------------
# a batch in two row parts, one on the worker thread, at the mnist-shape width

N_MNIST, H_MNIST = 784, 1024


@pytest.fixture(scope="module")
def wide_engine():
    return MLPPotential(random_params(N_MNIST, H_MNIST, seed=30))


def spy_on_worker(monkeypatch):
    """Record the function of each task handed to the worker; the tasks still run."""
    tasks, submit = [], flow._submit

    def spy(fn, *args):
        tasks.append(fn)
        return submit(fn, *args)

    monkeypatch.setattr(flow, "_submit", spy)
    return tasks


@pytest.mark.parametrize("B", [31, 32, 33, 99, 100, 128])
def test_split_grad_lap_is_bitwise_the_one_part_rows(wide_engine, B):
    # B >= 32 rows run as two row parts, and grad_lap itself never splits; each part's first
    # stage, evaluated by its own trajectory, has the one-part rows' bits
    X = np.random.default_rng(B).standard_normal((B, N_MNIST))
    G, lap = wide_engine.grad_lap(X)
    _, tapes = flow._integrate_parts(wide_engine, FlowState(X, np.zeros(B)),
                                     IntegratorConfig(0.1, 1), None, record=True)
    k = 16 * (B // 32)
    assert [rows for rows, _ in tapes] == ([slice(0, k), slice(k, None)] if k else [slice(0, None)])
    for rows, traj in tapes:
        rec = traj.steps[0]
        assert np.array_equal(rec.stage_grad[0], G[rows])
        assert np.array_equal(rec.stage_lap[0], lap[rows])


def test_worker_gets_no_part_below_32_rows_or_from_integrate(monkeypatch):
    # two parts start at 32 rows; integrate, and sample with a callback, which must see whole
    # states, run one part
    pot = MLPPotential(random_params(3, 8, seed=34))
    cfg = IntegratorConfig(0.1, 2)
    tasks = spy_on_worker(monkeypatch)
    X = np.random.default_rng(34).standard_normal((64, 3))

    def one_part_log_prob(X):
        final, _ = integrate(pot, FlowState(X, np.zeros(len(X)), cfg.total_time), cfg.reversed())
        return gaussian_log_density(final.X) - final.L

    log_prob(pot, X[:31], cfg)
    one_part_log_prob(X)
    sample(pot, 64, cfg, np.random.default_rng(35), callback=lambda k, state: None)
    assert tasks == []
    split = log_prob(pot, X[:32], cfg)
    assert len(tasks) == 1
    assert np.array_equal(split, one_part_log_prob(X[:32]))


def in_thread(fn):
    """fn() on a thread joined with a timeout, so a deadlock fails instead of hanging."""
    out = []

    def run():
        try:
            out.append(fn())
        except Exception as e:      # handed to the test, which checks its type
            out.append(e)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(60)
    assert not t.is_alive()
    return out[0]


class FailingOnWorker:
    """Forwards to ``inner``; ``hook`` raises once on the worker thread, then forwards."""

    def __init__(self, inner, hook):
        self.inner, self.hook, self.threads = inner, hook, []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name != self.hook:
            return attr

        def failing(*args, **kwargs):
            self.threads.append(threading.current_thread().name)
            if self.threads[-1].startswith("maflow-part") and self.hook is not None:
                self.hook = None
                raise RuntimeError(f"{name} failed")
            return attr(*args, **kwargs)
        return failing


@pytest.mark.parametrize("hook", ["grad_lap", "vjp"])
def test_exception_in_the_worker_part_comes_out_of_the_call(hook):
    pot = MLPPotential(random_params(3, 8, seed=31))
    X = np.random.default_rng(31).standard_normal((64, 3))
    cfg = IntegratorConfig(0.1, 2)
    want = nll_loss(pot, X, cfg)
    failing = FailingOnWorker(pot, hook)
    err = in_thread(lambda: nll_loss(failing, X, cfg))
    assert isinstance(err, RuntimeError) and str(err) == f"{hook} failed"
    assert any(t.startswith("maflow-part") for t in failing.threads)
    assert any(not t.startswith("maflow-part") for t in failing.threads)
    # the worker survives a failed task
    got = in_thread(lambda: nll_loss(failing, X, cfg))
    assert got.value == want.value
    assert np.array_equal(got.grad.to_vector(), want.grad.to_vector())


class ErrorSettings:
    """Forwards to ``inner`` and records ``np.geterr()`` and the thread of each grad_lap."""

    def __init__(self, inner):
        self.inner, self.seen = inner, []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def grad_lap(self, X, ctx=None):
        self.seen.append((threading.current_thread().name, np.geterr()))
        return self.inner.grad_lap(X, ctx)


@pytest.mark.parametrize("row", [0, 99], ids=["worker-part", "caller-part"])
def test_floating_point_errors_follow_the_callers_settings_in_either_part(wide_engine, row):
    X = np.random.default_rng(32).standard_normal((100, N_MNIST))
    rec = ErrorSettings(wide_engine)
    with np.errstate(divide="raise", under="warn"):
        log_prob(rec, X, IntegratorConfig(0.1, 1))
    threads = {name.startswith("maflow-part") for name, _ in rec.seen}
    assert threads == {True, False}
    # the integrator ignores overflow and invalid values, and reports them by row below
    want = {"divide": "raise", "under": "warn", "over": "ignore", "invalid": "ignore"}
    assert all(err == want for _, err in rec.seen)
    X[row] = np.inf         # inf - inf inside X W^T
    with np.errstate(invalid="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"step 0, batch row {row}$"):
            log_prob(wide_engine, X, IntegratorConfig(0.1, 1))


def test_concurrent_log_prob_at_a_splitting_shape_is_bitwise_the_serial_one(monkeypatch,
                                                                           wide_engine):
    tasks = spy_on_worker(monkeypatch)
    cfg = IntegratorConfig(0.1, 2)
    rng = np.random.default_rng(33)
    Xs = [rng.standard_normal((100, N_MNIST)) for _ in range(4)]
    want = [log_prob(wide_engine, X, cfg) for X in Xs]
    assert len(tasks) == len(Xs)        # every call ran its rows :48 on the worker
    got = [None] * len(Xs)

    def run(j):
        got[j] = log_prob(wide_engine, Xs[j], cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,), daemon=True) for j in range(len(Xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
