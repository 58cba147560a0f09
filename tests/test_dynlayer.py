import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdutil import assert_fd_match

from dppnet import dynlayer, hashing
from dppnet.dynlayer import dyn_backward, dyn_forward, materialize_weights
from dppnet.errors import ShapeError
from dppnet.hashing import HashSpec


def random_instance(rng, max_dim=64):
    spec = HashSpec(
        out_dim=int(rng.integers(1, max_dim + 1)),
        in_dim=int(rng.integers(1, max_dim + 1)),
        num_candidates=int(rng.integers(1, max_dim + 1)),
    )
    b = int(rng.integers(1, 5))
    x = rng.normal(size=(b, spec.in_dim))
    p = rng.normal(size=(b, spec.num_candidates))
    bias = rng.normal(size=spec.out_dim)
    return spec, x, p, bias


def dense_oracle_forward(x, p, bias, spec):
    return np.stack([materialize_weights(p[i], spec) @ x[i] + bias for i in range(len(x))])


def dense_oracle_backward(x, p, d_out, spec):
    """Gradients computed from the explicit weight grids."""
    buckets = hashing.bucket_grid(spec)
    signs = hashing.sign_grid(spec).astype(np.float64)
    b = len(x)
    dx = np.zeros_like(x)
    dp = np.zeros_like(p)
    for i in range(b):
        w = materialize_weights(p[i], spec)
        dx[i] = w.T @ d_out[i]
        dw = np.outer(d_out[i], x[i])  # dL/dw[m,n] = delta_m * x_n
        for k in range(spec.num_candidates):
            dp[i, k] = (dw * signs)[buckets == k].sum()
    return dx, dp, d_out.sum(axis=0)


def test_zero_candidates_give_bias():
    spec = HashSpec(out_dim=3, in_dim=4, num_candidates=5)
    bias = np.array([1.0, -2.0, 0.5])
    x = np.random.default_rng(0).normal(size=(6, 4))
    out = dyn_forward(x, np.zeros((6, 5)), bias, spec)
    assert np.array_equal(out, np.tile(bias, (6, 1)))


def test_single_entry_expansion():
    spec = HashSpec(out_dim=1, in_dim=1, num_candidates=1)
    sign = hashing.sign(0, 0, spec)
    out = dyn_forward(np.array([[2.0]]), np.array([[3.0]]), np.array([0.25]), spec)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(sign * 3.0 * 2.0 + 0.25, abs=0)


def test_only_batches_are_taken():
    # a lone vector is refused, not treated as a batch of one
    spec = HashSpec(out_dim=2, in_dim=3, num_candidates=4)
    x, p, d = np.ones((1, 3)), np.ones((1, 4)), np.ones((1, 2))
    for args in ((x[0], p), (x, p[0]), (x[0], p[0]), (x[None], p)):
        with pytest.raises(ShapeError, match="batch"):
            dyn_forward(*args, np.zeros(2), spec)
    for args in ((x[0], p, d), (x, p[0], d), (x, p, d[0]), (x[0], p[0], d[0])):
        with pytest.raises(ShapeError, match="batch"):
            dyn_backward(*args, spec)


def test_forward_matches_materialized_oracle():
    rng = np.random.default_rng(1)
    spec = HashSpec(out_dim=8, in_dim=16, num_candidates=4)
    x = rng.normal(size=(3, 16))
    p = rng.normal(size=(3, 4))
    bias = rng.normal(size=8)
    got = dyn_forward(x, p, bias, spec)
    want = dense_oracle_forward(x, p, bias, spec)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_forward_backward_match_oracle_random_instances(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(5):
        spec, x, p, bias = random_instance(rng)
        d_out = rng.normal(size=(len(x), spec.out_dim))
        assert np.abs(
            dyn_forward(x, p, bias, spec) - dense_oracle_forward(x, p, bias, spec)
        ).max() <= 1e-12
        dx, dp, db = dyn_backward(x, p, d_out, spec)
        ox, op, ob = dense_oracle_backward(x, p, d_out, spec)
        assert np.abs(dx - ox).max() <= 1e-12
        assert np.abs(dp - op).max() <= 1e-12
        assert np.abs(db - ob).max() <= 1e-12


def test_bucket_identity_k1_closed_form():
    # every position shares the single candidate: the gradient is the
    # sign-weighted sum of input x output-delta products
    spec = HashSpec(out_dim=2, in_dim=1, num_candidates=1)
    x = np.array([[1.7]])
    p = np.array([[0.3]])
    d = np.array([[0.9, -0.4]])
    _, dp, _ = dyn_backward(x, p, d, spec)
    s00, s10 = hashing.sign(0, 0, spec), hashing.sign(1, 0, spec)
    expected = s00 * x[0, 0] * d[0, 0] + s10 * x[0, 0] * d[0, 1]
    assert dp[0, 0] == expected


def test_bucket_identity_k2_closed_form():
    spec = HashSpec(out_dim=2, in_dim=2, num_candidates=2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2))
    p = rng.normal(size=(1, 2))
    d = rng.normal(size=(1, 2))
    _, dp, _ = dyn_backward(x, p, d, spec)
    expected = np.zeros(2)
    for m in range(2):
        for n in range(2):
            k = hashing.bucket(m, n, spec)
            expected[k] += hashing.sign(m, n, spec) * x[0, n] * d[0, m]
    assert np.array_equal(dp[0], expected)


def test_zero_output_gradient_gives_zeros():
    rng = np.random.default_rng(4)
    spec, x, p, bias = random_instance(rng, max_dim=8)
    dx, dp, db = dyn_backward(x, p, np.zeros((len(x), spec.out_dim)), spec)
    assert not dx.any() and not dp.any() and not db.any()


def test_materialize_linearity_exact():
    rng = np.random.default_rng(5)
    spec = HashSpec(out_dim=7, in_dim=5, num_candidates=3)
    p1 = rng.normal(size=3)
    p2 = rng.normal(size=3)
    assert np.array_equal(
        materialize_weights(p1 + p2, spec),
        materialize_weights(p1, spec) + materialize_weights(p2, spec),
    )


def test_materialize_one_hot_places_signs():
    spec = HashSpec(out_dim=6, in_dim=6, num_candidates=3)
    k = 1
    p = np.zeros(3)
    p[k] = 1.0
    w = materialize_weights(p, spec)
    buckets = hashing.bucket_grid(spec)
    signs = hashing.sign_grid(spec)
    assert np.array_equal(w[buckets == k], signs[buckets == k].astype(float))
    assert not w[buckets != k].any()


def test_forward_linear_in_candidates():
    rng = np.random.default_rng(6)
    spec, x, p, bias = random_instance(rng, max_dim=16)
    alpha = 2.5
    base = dyn_forward(x, p, bias, spec)
    scaled = dyn_forward(x, alpha * p, bias, spec)
    assert np.abs(scaled - (alpha * (base - bias) + bias)).max() <= 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    spec, x, p, bias = random_instance(rng, max_dim=12)
    c = rng.normal(size=(len(x), spec.out_dim))
    dx, dp, db = dyn_backward(x, p, c, spec)
    eps = 1e-6

    def loss(arr):
        return float((c * dyn_forward(x, p, bias, spec)).sum())

    for target, analytic in ((x, dx), (p, dp), (bias, db)):
        numeric = np.zeros_like(target)
        for idx in np.ndindex(target.shape):
            orig = target[idx]
            target[idx] = orig + eps
            up = loss(target)
            target[idx] = orig - eps
            down = loss(target)
            target[idx] = orig
            numeric[idx] = (up - down) / (2 * eps)
        assert_fd_match(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_shape_errors():
    spec = HashSpec(out_dim=2, in_dim=3, num_candidates=4)
    with pytest.raises(ShapeError):
        dyn_forward(np.zeros(4), np.zeros(4), np.zeros(2), spec)
    with pytest.raises(ShapeError):
        dyn_forward(np.zeros(3), np.zeros(5), np.zeros(2), spec)
    with pytest.raises(ShapeError):
        dyn_forward(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(2), spec)
    with pytest.raises(ShapeError):
        dyn_backward(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 5)), spec)


def test_questions_must_index_the_candidate_rows():
    spec = HashSpec(out_dim=2, in_dim=3, num_candidates=4)
    x, p, bias, d = np.zeros((3, 3)), np.zeros((2, 4)), np.zeros(2), np.zeros((3, 2))
    for questions in ([0, 1], [0, 1, 2], [0, -1, 1], [0.0, 1.0, 1.0], [[0, 1, 1]]):
        with pytest.raises(ShapeError, match="questions"):
            dyn_forward(x, p, bias, spec, questions=np.asarray(questions))
        with pytest.raises(ShapeError, match="questions"):
            dyn_backward(x, p, d, spec, questions=np.asarray(questions))
    with pytest.raises(ShapeError):
        dyn_backward(x, p, np.zeros((2, 2)), spec, questions=np.array([0, 1, 1]))


def test_materialize_guard():
    spec = HashSpec(out_dim=2048, in_dim=1024, num_candidates=4)
    with pytest.raises(ShapeError, match="guard"):
        materialize_weights(np.zeros(4), spec)


def test_forward_memory_independent_of_grid_size():
    # the layer state is bias + spec; transient peak while streaming must stay
    # far below the grid footprint
    spec = HashSpec(out_dim=1024, in_dim=1024, num_candidates=8)
    x = np.random.default_rng(7).normal(size=(1, 1024))
    p = np.random.default_rng(8).normal(size=(1, 8))
    bias = np.zeros(1024)
    grid_bytes = spec.out_dim * spec.in_dim * 8
    dyn_forward(x, p, bias, spec)  # warm up allocator pools
    tracemalloc.start()
    dyn_forward(x, p, bias, spec)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < grid_bytes / 4

    tracemalloc.start()
    dyn_backward(x, p, np.ones((1, 1024)), spec)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < grid_bytes / 4


# --- blocked layer: properties and the contracts of the block iterator -----


def row_major_dp(x, d_out, spec):
    """d_candidates added one weight position at a time, row-major over (m, n),
    from the scalar hashes: the accumulation order the layer must reproduce."""
    dp = np.zeros((len(x), spec.num_candidates))
    for m in range(spec.out_dim):
        for n in range(spec.in_dim):
            dp[:, hashing.bucket(m, n, spec)] += x[:, n] * d_out[:, m] * hashing.sign(m, n, spec)
    return dp


def dense_weights(p, spec):
    """(batch, out, in) weight tensors built from the scalar hashes."""
    grid = [(m, n) for m in range(spec.out_dim) for n in range(spec.in_dim)]
    buckets = np.array([hashing.bucket(m, n, spec) for m, n in grid]).reshape(spec.out_dim, -1)
    signs = np.array([hashing.sign(m, n, spec) for m, n in grid]).reshape(spec.out_dim, -1)
    return p[:, buckets] * signs


def check_against_dense(spec, x, p, bias, d_out):
    w = dense_weights(p, spec)
    out = dyn_forward(x, p, bias, spec)
    assert np.abs(out - ((w @ x[:, :, None])[..., 0] + bias)).max() <= 1e-12
    dx, dp, db = dyn_backward(x, p, d_out, spec)
    assert np.abs(dx - (d_out[:, None, :] @ w)[:, 0]).max() <= 1e-12
    assert np.array_equal(dp, row_major_dp(x, d_out, spec))
    assert np.array_equal(db, d_out.sum(axis=0))
    # each row its own question, grouped: one run of one-row questions, so the
    # one loop takes the same tiles and sums as without questions
    own = np.arange(len(x))
    assert np.array_equal(dyn_forward(x, p, bias, spec, questions=own), out)
    grouped_dx, grouped_dp, grouped_db = dyn_backward(x, p, d_out, spec, questions=own)
    assert np.array_equal(grouped_dx, dx)
    assert np.array_equal(grouped_dp, dp) and np.array_equal(grouped_db, db)


def code_bytes(spec):
    """Bytes a cached spec takes: its code grid plus the int64 bucket and f64 sign of each code."""
    k = spec.num_candidates
    return spec.out_dim * spec.in_dim * np.min_scalar_type(2 * k - 1).itemsize + 2 * k * 16


@st.composite
def blocked_instances(draw):
    seeds = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=2, max_size=2, unique=True))
    spec = HashSpec(
        out_dim=draw(st.integers(1, 12)),
        in_dim=draw(st.integers(1, 12)),
        num_candidates=draw(st.integers(1, 20)),
        seed_bucket=seeds[0],
        seed_sign=seeds[1],
    )
    batch = draw(st.sampled_from([1, 2, 3, 256]))
    # small budgets put block boundaries inside the grid and inside the batch
    budget = draw(st.sampled_from([1, 5, 16, 64, 500, hashing.BLOCK_BUDGET]))
    # specs above the byte budget stream their codes; at or below it they are cached
    cache_bytes = draw(st.sampled_from([0, code_bytes(spec), hashing.CACHE_BYTES]))
    return spec, batch, budget, cache_bytes, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(blocked_instances())
def test_blocked_layer_matches_dense_and_row_major(instance):
    spec, batch, budget, cache_bytes, seed = instance
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, spec.in_dim))
    p = rng.normal(size=(batch, spec.num_candidates))
    bias = rng.normal(size=spec.out_dim)
    d_out = rng.normal(size=(batch, spec.out_dim))
    with mock.patch.multiple(hashing, BLOCK_BUDGET=budget, CACHE_BYTES=cache_bytes), \
            mock.patch.dict(hashing._grid_cache, clear=True):
        check_against_dense(spec, x, p, bias, d_out)
        assert (spec in hashing._grid_cache) == (cache_bytes > 0)
        out32 = dyn_forward(x.astype(np.float32), p.astype(np.float32), bias.astype(np.float32), spec)
        grads32 = dyn_backward(x.astype(np.float32), p.astype(np.float32),
                               d_out.astype(np.float32), spec)
    assert out32.dtype == np.float32
    assert [g.dtype for g in grads32] == [np.float32] * 3
    np.testing.assert_allclose(out32, dyn_forward(x, p, bias, spec), rtol=1e-4, atol=1e-4)
    for g32, g64 in zip(grads32, dyn_backward(x, p, d_out, spec)):
        np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-4)


def test_default_budget_splits_a_streamed_grid_mid_way(monkeypatch):
    # 200 x 180 is above the block budget; one batch row fits 182 output rows
    spec = HashSpec(out_dim=200, in_dim=180, num_candidates=16)
    assert spec.out_dim * spec.in_dim > hashing.BLOCK_BUDGET
    assert hashing.BLOCK_BUDGET // spec.in_dim < spec.out_dim
    monkeypatch.setattr(hashing, "_grid_cache", {})
    rng = np.random.default_rng(9)
    args = (rng.normal(size=(1, 180)), rng.normal(size=(1, 16)),
            rng.normal(size=200), rng.normal(size=(1, 200)))
    for cache_bytes in (0, hashing.CACHE_BYTES):  # codes hashed per block, then cached
        monkeypatch.setattr(hashing, "CACHE_BYTES", cache_bytes)
        check_against_dense(spec, *args)
        assert (spec in hashing._grid_cache) == (cache_bytes > 0)


def _counting_bucket_row(monkeypatch):
    calls = []
    real = hashing.bucket_row

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashing, "bucket_row", counted)
    return calls


def test_cached_spec_is_hashed_once(monkeypatch):
    spec = HashSpec(out_dim=32, in_dim=64, num_candidates=512, seed_bucket=3, seed_sign=4)
    hashing._grid_cache.pop(spec, None)
    calls = _counting_bucket_row(monkeypatch)
    rng = np.random.default_rng(10)
    x, p, d = rng.normal(size=(32, 64)), rng.normal(size=(32, 512)), rng.normal(size=(32, 32))
    dyn_forward(x, p, np.zeros(32), spec)
    assert len(calls) == 1
    dyn_forward(x, p, np.zeros(32), spec)
    dyn_backward(x, p, d, spec)
    assert len(calls) == 1
    assert spec in hashing._grid_cache


def test_spec_above_cache_limit_is_not_cached(monkeypatch):
    spec = HashSpec(out_dim=200, in_dim=200, num_candidates=8)
    monkeypatch.setattr(hashing, "CACHE_BYTES", code_bytes(spec) - 1)
    monkeypatch.setattr(hashing, "_grid_cache", {})
    calls = _counting_bucket_row(monkeypatch)
    rng = np.random.default_rng(11)
    dyn_forward(rng.normal(size=(2, 200)), rng.normal(size=(2, 8)), np.zeros(200), spec)
    first = len(calls)
    assert first > 0
    dyn_forward(rng.normal(size=(2, 200)), rng.normal(size=(2, 8)), np.zeros(200), spec)
    assert len(calls) == 2 * first
    assert spec not in hashing._grid_cache


def test_spec_above_cache_limit_is_hashed_once_per_backward(monkeypatch):
    # 81-row steps, two to a row block of 162 rows, each block hashed once
    spec = HashSpec(out_dim=200, in_dim=200, num_candidates=8)
    monkeypatch.setattr(hashing, "CACHE_BYTES", code_bytes(spec) - 1)
    monkeypatch.setattr(hashing, "_grid_cache", {})
    calls = _counting_bucket_row(monkeypatch)
    rng = np.random.default_rng(16)
    x, p, d = rng.normal(size=(3, 200)), rng.normal(size=(3, 8)), rng.normal(size=(3, 200))
    dyn_backward(x, p, d, spec)
    assert [(args[0], args[2]) for args in calls] == [(0, 162), (162, 200)]
    assert spec not in hashing._grid_cache


def test_spec_cache_is_bounded(monkeypatch):
    # eleven 256 KiB code grids against a 2 MiB budget
    monkeypatch.setattr(hashing, "_grid_cache", {})
    specs = [HashSpec(out_dim=256, in_dim=1024, num_candidates=2 + i) for i in range(11)]
    assert sum(code_bytes(spec) for spec in specs) > hashing.CACHE_BYTES
    x = np.ones((1, 1024))
    for spec in specs:
        dyn_forward(x, np.ones((1, spec.num_candidates)), np.zeros(256), spec)
    assert sum(code_bytes(codes.spec) for codes in hashing._grid_cache.values()) <= hashing.CACHE_BYTES
    assert specs[-1] in hashing._grid_cache
    assert specs[0] not in hashing._grid_cache


def test_cache_keeps_only_the_last_spec_that_fits(monkeypatch):
    # two specs that fit CACHE_BYTES together: the second replaces the first
    monkeypatch.setattr(hashing, "_grid_cache", {})
    first = HashSpec(out_dim=8, in_dim=16, num_candidates=4)
    second = HashSpec(out_dim=8, in_dim=16, num_candidates=5)
    assert code_bytes(first) + code_bytes(second) <= hashing.CACHE_BYTES
    hashing.spec_codes(first)
    codes = hashing.spec_codes(second)
    assert list(hashing._grid_cache) == [second]
    assert hashing._grid_cache[second] is codes


def test_spec_above_cache_bytes_leaves_the_cached_spec(monkeypatch):
    small = HashSpec(out_dim=8, in_dim=16, num_candidates=4)
    large = HashSpec(out_dim=64, in_dim=64, num_candidates=4)
    monkeypatch.setattr(hashing, "CACHE_BYTES", code_bytes(large) - 1)
    monkeypatch.setattr(hashing, "_grid_cache", {})
    cached = hashing.spec_codes(small)
    assert hashing.spec_codes(large).grid is None
    assert list(hashing._grid_cache) == [small]
    assert hashing.spec_codes(small) is cached


def test_eval_batch_transient_memory_stays_within_block_budget():
    # the default 32 x 64, K=512 layer at the 256-row eval batch: gathering the
    # whole batch x grid at once would take 16 blocks of BLOCK_BUDGET entries
    spec = HashSpec(out_dim=32, in_dim=64, num_candidates=512)
    rng = np.random.default_rng(12)
    x, p, d = rng.normal(size=(256, 64)), rng.normal(size=(256, 512)), rng.normal(size=(256, 32))
    bias = np.zeros(32)
    block_bytes = hashing.BLOCK_BUDGET * 8
    assert 256 * spec.out_dim * spec.in_dim >= 16 * hashing.BLOCK_BUDGET
    dyn_forward(x, p, bias, spec)  # warm up the spec cache and allocator pools
    dyn_backward(x, p, d, spec)

    tracemalloc.start()
    out = dyn_forward(x, p, bias, spec)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # one gathered block on top of the output
    assert peak - out.nbytes < 2 * block_bytes

    tracemalloc.start()
    grads = dyn_backward(x, p, d, spec)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # one block of int64 keys and f64 terms on top of the gradients
    assert peak - sum(g.nbytes for g in grads) < 3 * block_bytes


@pytest.mark.parametrize("out_dim", [4, 300])  # cached and streamed grids
def test_empty_batch(out_dim):
    spec = HashSpec(out_dim=out_dim, in_dim=200, num_candidates=3)
    out = dyn_forward(np.zeros((0, 200)), np.zeros((0, 3)), np.zeros(out_dim), spec)
    dx, dp, db = dyn_backward(np.zeros((0, 200)), np.zeros((0, 3)), np.zeros((0, out_dim)), spec)
    assert out.shape == (0, out_dim) and dx.shape == (0, 200) and dp.shape == (0, 3)
    assert np.array_equal(db, np.zeros(out_dim))


# --- signed-bucket code cache ------------------------------------------------

WIDE = HashSpec(out_dim=1024, in_dim=1024, num_candidates=8)


def test_wide_spec_is_hashed_once(monkeypatch):
    # the 1024 x 1024, K=8 grid fits the byte budget as one uint8 code per position
    monkeypatch.setattr(hashing, "_grid_cache", {})
    calls = _counting_bucket_row(monkeypatch)
    rng = np.random.default_rng(13)
    x, p, d = rng.normal(size=(32, 1024)), rng.normal(size=(32, 8)), rng.normal(size=(32, 1024))
    dyn_forward(x, p, np.zeros(1024), WIDE)
    first = len(calls)
    assert first > 0
    dyn_backward(x, p, d, WIDE)
    dyn_forward(x, p, np.zeros(1024), WIDE)
    assert len(calls) == first
    codes = hashing._grid_cache[WIDE]
    assert codes.grid.dtype == np.uint8 and codes.grid.nbytes == 1 << 20
    assert code_bytes(codes.spec) <= hashing.CACHE_BYTES


def sequential_dp(x, d_out, buckets, signs, k):
    """d_candidates added one position at a time in row-major order (np.add.at
    is unbuffered and applies its updates in index order)."""
    dp = np.zeros((len(x), k))
    for b in range(len(x)):
        terms = (x[b][None, :] * d_out[b][:, None]).astype(np.float64) * signs
        np.add.at(dp[b], buckets.ravel(), terms.ravel())
    return dp


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_wide_layer_matches_dense_at_full_size(dtype):
    spec = WIDE
    assert spec.out_dim * spec.in_dim == dynlayer.MATERIALIZE_LIMIT  # the guard admits it
    buckets = hashing.bucket_row(0, spec, spec.out_dim)
    signs = hashing.sign_row(0, spec, spec.out_dim)
    rng = np.random.default_rng(14)
    tol = 1e-12 if dtype == np.float64 else 1e-4
    # 10 and 11 are batches the trainer streams: d_candidates is carried
    # across row steps of 16 rows, each gathered for two rows at a time
    for batch in (2, 10, 11):
        x = rng.normal(size=(batch, 1024)).astype(dtype)
        p = rng.normal(size=(batch, 8)).astype(dtype)
        bias = rng.normal(size=1024).astype(dtype)
        d = rng.normal(size=(batch, 1024)).astype(dtype)
        out = dyn_forward(x, p, bias, spec)
        dx, dp, db = dyn_backward(x, p, d, spec)
        assert out.dtype == dx.dtype == dp.dtype == dtype
        for i in range(batch):  # one dense 1024 x 1024 matrix at a time
            w = materialize_weights(p[i], spec)
            assert np.array_equal(w, p[i][buckets] * signs)
            np.testing.assert_allclose(out[i], w @ x[i] + bias, rtol=tol, atol=tol)
            np.testing.assert_allclose(dx[i], d[i] @ w, rtol=tol, atol=tol)
        # f32 products are formed in f32 and summed in f64, then rounded once
        assert np.array_equal(dp, sequential_dp(x, d, buckets, signs, 8).astype(dtype))
        assert np.array_equal(db, d.sum(axis=0))


def test_nonfinite_candidates_give_the_bits_of_take_times_sign():
    spec = HashSpec(out_dim=6, in_dim=9, num_candidates=5)
    rng = np.random.default_rng(15)
    x, d = rng.normal(size=(3, 9)), rng.normal(size=(3, 6))
    p = rng.normal(size=(3, 5))
    p[0, 1], p[1, 2], p[1, 3], p[2, 0] = np.nan, np.inf, -np.inf, np.copysign(np.nan, -1)
    bias = rng.normal(size=6)
    w = np.take(p, hashing.bucket_grid(spec), axis=1) * hashing.sign_grid(spec)
    with np.errstate(invalid="ignore"):
        out = dyn_forward(x, p, bias, spec)
        dx, _, _ = dyn_backward(x, p, d, spec)
        out_ref = np.einsum("bmn,bn->bm", w, x) + bias
        dx_ref = np.einsum("bmn,bm->bn", w, d)
    assert np.isnan(out).any() and np.isinf(w).any()
    assert out.tobytes() == out_ref.tobytes()
    assert dx.tobytes() == dx_ref.tobytes()


# --- rows grouped by question --------------------------------------------------


def grouped_instance(spec, dtype, seed, batch=32, asked=9):
    """batch rows asking asked questions, the first three of them (or all, if
    fewer) asked once: features, each question's candidates, each row's
    question, bias and output gradient."""
    rng = np.random.default_rng(seed)
    questions = rng.permutation(np.r_[np.arange(asked),
                                      rng.integers(3, max(asked, 4), size=batch - asked)])
    arrays = (rng.normal(size=(batch, spec.in_dim)), rng.normal(size=(asked, spec.num_candidates)),
              rng.normal(size=spec.out_dim), rng.normal(size=(batch, spec.out_dim)))
    x, p, bias, d = (a.astype(dtype) for a in arrays)
    return x, p, questions, bias, d


DEFAULT = HashSpec(out_dim=32, in_dim=64, num_candidates=512)


GROUPED_CASES = pytest.mark.parametrize("spec, cache_bytes, batch, asked", [
    (DEFAULT, hashing.CACHE_BYTES, 32, 9),
    (HashSpec(out_dim=300, in_dim=200, num_candidates=50), 0, 32, 9),
    # near-distinct and heavily repeated batches, and a batch of one
    (DEFAULT, hashing.CACHE_BYTES, 32, 31), (DEFAULT, hashing.CACHE_BYTES, 256, 255),
    (DEFAULT, hashing.CACHE_BYTES, 256, 28), (DEFAULT, hashing.CACHE_BYTES, 1, 1),
], ids=["cached", "streamed", "cached-32-rows-31-questions", "cached-256-rows-255-questions",
        "cached-256-rows-28-questions", "cached-one-row"])


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                         ids=["f64", "f32"])
@GROUPED_CASES
def test_grouped_rows_match_the_per_row_layer(spec, cache_bytes, batch, asked, dtype, tol,
                                              monkeypatch):
    monkeypatch.setattr(hashing, "CACHE_BYTES", cache_bytes)
    monkeypatch.setattr(hashing, "_grid_cache", {})
    x, p, questions, bias, d = grouped_instance(spec, dtype, 17, batch, asked)
    rows_p = p[questions]  # the per-row layer's input: each row's own copy
    out = dyn_forward(x, p, bias, spec, questions=questions)
    assert np.array_equal(out, dyn_forward(x, rows_p, bias, spec))
    dx, dp, db = dyn_backward(x, p, d, spec, questions=questions)
    want_dx, want_dp, want_db = dyn_backward(x, rows_p, d, spec)
    assert dx.dtype == dp.dtype == dtype and dp.shape == p.shape
    assert np.abs(dx - want_dx).max() <= (1e-12 if dtype == np.float64 else 1e-4)
    assert np.array_equal(db, want_db)
    summed = np.zeros(p.shape)
    np.add.at(summed, questions, want_dp.astype(np.float64))
    for q in range(len(p)):
        rows = np.flatnonzero(questions == q)
        if len(rows) == 1:
            assert np.array_equal(dp[q], want_dp[rows[0]]), q
        else:
            assert np.abs(dp[q] - summed[q]).max() <= tol * np.abs(summed[q]).max(), q
    assert (spec in hashing._grid_cache) == (cache_bytes > 0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@GROUPED_CASES
def test_no_input_gradient_keeps_the_candidate_and_bias_bits(spec, cache_bytes, batch, asked,
                                                             dtype, monkeypatch):
    monkeypatch.setattr(hashing, "CACHE_BYTES", cache_bytes)
    monkeypatch.setattr(hashing, "_grid_cache", {})
    x, p, questions, _, d = grouped_instance(spec, dtype, 19, batch, asked)
    calls = [(p, questions), (p[questions], None)]  # grouped, then each row its own question
    wants = [dyn_backward(x, p, d, spec, questions=questions) for p, questions in calls]
    # no weight is gathered when no input gradient is asked for
    monkeypatch.setattr(hashing.SpecCodes, "signed_table", None)
    for (p, questions), (_, want_dp, want_db) in zip(calls, wants):
        dx, dp, db = dyn_backward(x, p, d, spec, questions=questions, d_features=False)
        assert dx is None
        assert dp.dtype == want_dp.dtype and dp.tobytes() == want_dp.tobytes()
        assert db.dtype == want_db.dtype and db.tobytes() == want_db.tobytes()


@pytest.mark.parametrize("spec, batch, asked, d_features", [
    (DEFAULT, 256, 28, True), (WIDE, 32, 8, True), (DEFAULT, 256, 255, True),
    (DEFAULT, 256, 28, False), (WIDE, 32, 8, False), (DEFAULT, 256, 255, False),
], ids=["eval-batch", "wide", "eval-batch-255-questions",
        "eval-batch-no-input-gradient", "wide-no-input-gradient",
        "eval-batch-255-questions-no-input-gradient"])
def test_grouped_transient_memory_stays_within_block_budget(spec, batch, asked, d_features):
    # the bounds of the per-row eval-batch test: one gathered block on top of
    # the output in forward, under three blocks on top of the gradients in backward
    rng = np.random.default_rng(18)
    questions = np.arange(batch) % asked
    x, d = rng.normal(size=(batch, spec.in_dim)), rng.normal(size=(batch, spec.out_dim))
    p, bias = rng.normal(size=(asked, spec.num_candidates)), np.zeros(spec.out_dim)
    block_bytes = hashing.BLOCK_BUDGET * 8
    dyn_forward(x, p, bias, spec, questions=questions)  # warm up the spec cache
    dyn_backward(x, p, d, spec, questions=questions)

    tracemalloc.start()
    out = dyn_forward(x, p, bias, spec, questions=questions)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak - out.nbytes < 2 * block_bytes

    tracemalloc.start()
    grads = dyn_backward(x, p, d, spec, questions=questions, d_features=d_features)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak - sum(g.nbytes for g in grads if g is not None) < 3 * block_bytes
