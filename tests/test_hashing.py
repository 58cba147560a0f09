import numpy as np
import pytest
import scipy.stats

from dppnet import hashing
from dppnet.dynlayer import materialize_weights
from dppnet.errors import ConfigError
from dppnet.hashing import HashSpec


def reference_splitmix64(x: int) -> int:
    """Independent reimplementation, kept deliberately different in style."""
    mask = 0xFFFFFFFFFFFFFFFF
    z = (x + 0x9E3779B97F4A7C15) & mask
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = ((z ^ (z >> shift)) * mult) & mask
    return z ^ (z >> 31)


def test_splitmix64_published_value():
    assert hashing.splitmix64(0) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("x", [0, 1, 2, 42, 0x5EED0001, (1 << 64) - 1])
def test_splitmix64_matches_reference(x):
    assert hashing.splitmix64(x) == reference_splitmix64(x)


def test_splitmix64_deterministic():
    x = 123456789
    assert hashing.splitmix64(x) == hashing.splitmix64(x)


def test_spec_validation():
    with pytest.raises(ConfigError):
        HashSpec(out_dim=0, in_dim=1, num_candidates=1)
    with pytest.raises(ConfigError):
        HashSpec(out_dim=1, in_dim=1, num_candidates=1, seed_bucket=7, seed_sign=7)


def test_bucket_k1_always_zero():
    spec = HashSpec(out_dim=4, in_dim=4, num_candidates=1)
    assert all(hashing.bucket(m, n, spec) == 0 for m in range(4) for n in range(4))


def test_bucket_repeatable_and_range():
    spec = HashSpec(out_dim=5, in_dim=9, num_candidates=7)
    for m in range(5):
        for n in range(9):
            b = hashing.bucket(m, n, spec)
            assert b == hashing.bucket(m, n, spec)
            assert 0 <= b < 7


def test_bucket_composed_from_reference_chain():
    # hand-compose the bucket from the reference hash for one position
    spec = HashSpec(out_dim=8, in_dim=8, num_candidates=10, seed_bucket=42, seed_sign=43)
    key = (3 << 32) | 7
    expected = reference_splitmix64(key ^ 42) % 10
    assert hashing.bucket(3, 7, spec) == expected


def test_out_of_range_rejected():
    spec = HashSpec(out_dim=2, in_dim=3, num_candidates=4)
    with pytest.raises(ConfigError):
        hashing.bucket(2, 0, spec)
    with pytest.raises(ConfigError):
        hashing.sign(0, 3, spec)


def test_sign_values_and_independence():
    spec = HashSpec(out_dim=16, in_dim=16, num_candidates=4)
    other = HashSpec(out_dim=16, in_dim=16, num_candidates=4, seed_bucket=0xDEAD)
    for m in range(16):
        for n in range(16):
            s = hashing.sign(m, n, spec)
            assert s in (1, -1)
            # changing the bucket seed must leave the sign hash untouched
            assert s == hashing.sign(m, n, other)


def test_sign_mean_binomial_bound():
    spec = HashSpec(out_dim=256, in_dim=256, num_candidates=4)
    mean = hashing.sign_grid(spec).astype(np.float64).mean()
    assert abs(mean) <= 4.0 / np.sqrt(256 * 256)


def test_rows_match_scalars():
    spec = HashSpec(out_dim=6, in_dim=33, num_candidates=5)
    for m in range(6):
        brow = hashing.bucket_row(m, spec, m + 1)[0]
        srow = hashing.sign_row(m, spec, m + 1)[0]
        for n in range(33):
            assert brow[n] == hashing.bucket(m, n, spec)
            assert srow[n] == hashing.sign(m, n, spec)


def test_hash_stats_report_fields():
    spec = HashSpec(out_dim=8, in_dim=8, num_candidates=4)
    report = hashing.hash_stats(spec)
    assert sum(report["bucket_loads"]) == 64
    assert report["dof"] == 3
    assert report["expected_load"] == 16.0


def test_hash_stats_chi_square_default_seeds():
    spec = HashSpec(out_dim=64, in_dim=64, num_candidates=256)
    report = hashing.hash_stats(spec)
    critical = scipy.stats.chi2.ppf(0.999, report["dof"])
    assert report["chi_square"] < critical
    assert abs(report["sign_mean"]) <= 4.0 / np.sqrt(64 * 64)


@pytest.mark.parametrize("out_dim,in_dim,k", [(16, 16, 4), (64, 64, 64), (32, 64, 32)])
def test_buckets_surjective_when_grid_dominates(out_dim, in_dim, k):
    # grid >= 64 * candidates with shipped default seeds
    assert out_dim * in_dim >= 64 * k
    spec = HashSpec(out_dim=out_dim, in_dim=in_dim, num_candidates=k)
    assert hashing.hash_stats(spec)["empty_buckets"] == 0


def test_row_ranges_match_single_rows():
    spec = HashSpec(out_dim=7, in_dim=5, num_candidates=3)
    block_b = hashing.bucket_row(2, spec, 6)
    block_s = hashing.sign_row(2, spec, 6)
    assert block_b.shape == block_s.shape == (4, 5)
    assert np.array_equal(block_b, np.stack([hashing.bucket_row(m, spec, m + 1)[0] for m in range(2, 6)]))
    assert np.array_equal(block_s, np.stack([hashing.sign_row(m, spec, m + 1)[0] for m in range(2, 6)]))
    for stop in (2, 1, 8):
        with pytest.raises(ConfigError):
            hashing.bucket_row(2, spec, stop)
    for m, stop in ((-1, 3), (7, 8)):
        with pytest.raises(ConfigError):
            hashing.sign_row(m, spec, stop)
    with pytest.raises(TypeError):  # the row range is always given
        hashing.bucket_row(2, spec)


def test_cached_grids_cannot_be_mutated():
    spec = HashSpec(out_dim=4, in_dim=6, num_candidates=5)
    buckets, signs = hashing.bucket_grid(spec), hashing.sign_grid(spec)
    copy = hashing.bucket_grid(spec)
    copy[0, 0] += 1  # the caller owns the copy it gets
    hashing.sign_grid(spec)[0, 0] *= -1
    assert np.array_equal(hashing.bucket_grid(spec), buckets)
    assert np.array_equal(hashing.sign_grid(spec), signs)
    assert spec in hashing._grid_cache
    codes = hashing.spec_codes(spec)
    for _, _, block in codes.blocks():
        with pytest.raises(ValueError):
            block[0, 0] = 0
    for table in (codes.buckets, codes.signs):
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("budget", [1, 7, hashing.BLOCK_BUDGET])
def test_block_paths_match_row_by_row_hashing(budget, monkeypatch):
    # grid, stats and blocks agree with stacking single rows, whatever the
    # block size and whether the grid streams or is cached
    monkeypatch.setattr(hashing, "BLOCK_BUDGET", budget)
    monkeypatch.setattr(hashing, "CACHE_BYTES", min(budget, hashing.CACHE_BYTES))
    monkeypatch.setattr(hashing, "_grid_cache", {})
    spec = HashSpec(out_dim=9, in_dim=4, num_candidates=6)
    rows_b = np.stack([hashing.bucket_row(m, spec, m + 1)[0] for m in range(9)])
    rows_s = np.stack([hashing.sign_row(m, spec, m + 1)[0] for m in range(9)])
    assert np.array_equal(hashing.bucket_grid(spec), rows_b)
    assert np.array_equal(hashing.sign_grid(spec), rows_s)
    bounds = [(lo, hi) for lo, hi, _ in hashing.spec_codes(spec).blocks()]
    assert bounds[0][0] == 0 and bounds[-1][1] == 9
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert all(hi - lo <= max(1, budget // 4) for lo, hi in bounds)
    report = hashing.hash_stats(spec)
    assert report["bucket_loads"] == np.bincount(rows_b.ravel(), minlength=6).tolist()
    assert report["sign_mean"] == rows_s.astype(np.float64).mean()


@pytest.mark.parametrize("k, dtype", [
    (1, np.uint8), (128, np.uint8), (129, np.uint16), (32768, np.uint16), (32769, np.uint32),
])
def test_codes_decode_to_the_row_hashes_at_dtype_boundaries(k, dtype, monkeypatch):
    monkeypatch.setattr(hashing, "_grid_cache", {})
    spec = HashSpec(out_dim=5, in_dim=7, num_candidates=k)
    buckets, signs = hashing.bucket_row(0, spec, 5), hashing.sign_row(0, spec, 5)
    codes = hashing.spec_codes(spec)
    assert codes.grid.dtype == dtype
    assert np.array_equal(codes.grid, buckets + k * (signs < 0))
    assert np.array_equal(codes.buckets[codes.grid], buckets)
    assert np.array_equal(codes.signs[codes.grid], signs)
    assert np.array_equal(hashing.bucket_grid(spec), buckets)
    assert np.array_equal(hashing.sign_grid(spec), signs)
    monkeypatch.setattr(hashing, "_grid_cache", {})
    monkeypatch.setattr(hashing, "CACHE_BYTES", 0)  # streamed codes decode the same way
    streamed = hashing.spec_codes(spec)
    assert streamed.grid is None
    (_, _, block), = streamed.blocks()
    assert np.array_equal(block, codes.grid)


def test_cached_grid_is_hashed_in_block_budget_chunks(monkeypatch):
    # BLOCK_BUDGET // in_dim = 32 rows per bucket_row call, the chunks that
    # streamed codes are hashed in
    monkeypatch.setattr(hashing, "_grid_cache", {})
    spec = HashSpec(out_dim=100, in_dim=1024, num_candidates=8)
    calls = []
    real = hashing.bucket_row
    monkeypatch.setattr(hashing, "bucket_row",
                        lambda m, s, stop: calls.append((m, stop)) or real(m, s, stop))
    codes = hashing.spec_codes(spec)
    assert codes.grid is not None
    assert calls == [(0, 32), (32, 64), (64, 96), (96, 100)]
    monkeypatch.setattr(hashing, "_grid_cache", {})
    monkeypatch.setattr(hashing, "CACHE_BYTES", 0)
    assert [(lo, hi) for lo, hi, _ in hashing.spec_codes(spec).blocks()] == calls[:4]


@pytest.mark.parametrize("k, dtype", [(5, np.uint8), (200, np.uint16)])
@pytest.mark.parametrize("streamed", [False, True])
def test_grid_readers_match_the_scalar_hashes(k, dtype, streamed, monkeypatch):
    # every reader of the code grid, cached or streamed in several blocks,
    # agrees with hashing.bucket / hashing.sign position by position
    monkeypatch.setattr(hashing, "_grid_cache", {})
    if streamed:
        monkeypatch.setattr(hashing, "CACHE_BYTES", 0)
        monkeypatch.setattr(hashing, "BLOCK_BUDGET", 40)
    spec = HashSpec(out_dim=9, in_dim=13, num_candidates=k)
    codes = hashing.spec_codes(spec)
    assert codes.grid is None if streamed else codes.grid.dtype == dtype
    assert len(list(codes.blocks())) == (3 if streamed else 1)
    positions = list(np.ndindex(9, 13))
    buckets = np.array([hashing.bucket(m, n, spec) for m, n in positions]).reshape(9, 13)
    signs = np.array([hashing.sign(m, n, spec) for m, n in positions]).reshape(9, 13)
    assert np.array_equal(hashing.bucket_grid(spec), buckets)
    assert hashing.bucket_grid(spec).dtype == np.int64
    assert np.array_equal(hashing.sign_grid(spec), signs)
    assert hashing.sign_grid(spec).dtype == np.int8
    p = np.random.default_rng(k).normal(size=k)
    for dt in (np.float64, np.float32):
        w = materialize_weights(p.astype(dt), spec)
        assert w.dtype == dt
        assert np.array_equal(w, p.astype(dt)[buckets] * signs.astype(dt))
    report = hashing.hash_stats(spec)
    loads = np.bincount(buckets.ravel(), minlength=k)
    assert report["bucket_loads"] == loads.tolist()
    assert (report["min_load"], report["max_load"]) == (loads.min(), loads.max())
    assert report["empty_buckets"] == (loads == 0).sum()
    assert report["sign_mean"] == signs.sum() / signs.size
    expected = signs.size / k
    assert report["chi_square"] == float(((loads - expected) ** 2 / expected).sum())
