"""Deterministic hashes that address the shared candidate weight vector.

A dynamic layer of shape ``out_dim x in_dim`` never stores its weight matrix.
Each position ``(m, n)`` is mapped to one of ``num_candidates`` buckets by a
bucket hash, and to a sign in ``{+1, -1}`` by an independent sign hash.  Both
are built on the SplitMix64 finalizer so that every run, thread, and platform
produces bit-identical assignments.

The dynamic layer reads both as one code per position, code = bucket +
K * (sign < 0), in the smallest unsigned dtype that holds 2K - 1 (one byte up
to K = 128).  The codes of the last spec that fits CACHE_BYTES are hashed once
and kept, read-only: that is the persistent memory of hashing, and a new spec
that fits replaces them.  A spec too large for the budget is hashed block by
block on every pass, its transient memory bounded by BLOCK_BUDGET like every
other blocked loop, and leaves the cached spec in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Shipped defaults; recorded in every checkpoint because the weight
# assignment is meaningless without them.
DEFAULT_SEED_BUCKET = 0x5EED0001
DEFAULT_SEED_SIGN = 0x5EED0002


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer of a 64-bit unsigned int; wraps modulo 2**64."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


_U = np.uint64


def _splitmix64_vec(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps like the scalar path masks
    x = x + _U(_GOLDEN)
    x = (x ^ (x >> _U(30))) * _U(_MIX1)
    x = (x ^ (x >> _U(27))) * _U(_MIX2)
    return x ^ (x >> _U(31))


@dataclass(frozen=True)
class HashSpec:
    """Dimensions and seeds that define an implicit dynamic weight matrix."""

    out_dim: int
    in_dim: int
    num_candidates: int
    seed_bucket: int = DEFAULT_SEED_BUCKET
    seed_sign: int = DEFAULT_SEED_SIGN

    def __post_init__(self):
        if min(self.out_dim, self.in_dim, self.num_candidates) < 1:
            raise ConfigError(
                f"hash dims must be >= 1, got out={self.out_dim} "
                f"in={self.in_dim} candidates={self.num_candidates}"
            )
        if not (0 <= self.seed_bucket <= _MASK64 and 0 <= self.seed_sign <= _MASK64):
            raise ConfigError("seed_bucket and seed_sign must be unsigned 64-bit integers")
        if self.seed_bucket == self.seed_sign:
            raise ConfigError(f"seed_bucket and seed_sign must differ, both are {self.seed_sign}")
        if self.out_dim >= 1 << 32 or self.in_dim >= 1 << 32:
            raise ConfigError(f"hash dims must fit in 32 bits, got out={self.out_dim} "
                              f"in={self.in_dim}")

    def _check(self, m: int, n: int):
        if not (0 <= m < self.out_dim and 0 <= n < self.in_dim):
            raise ConfigError(
                f"position ({m}, {n}) outside {self.out_dim} x {self.in_dim} grid"
            )


def bucket(m: int, n: int, spec: HashSpec) -> int:
    """Candidate index in [0, num_candidates) for weight position (m, n)."""
    spec._check(m, n)
    return splitmix64(((m << 32) | n) ^ spec.seed_bucket) % spec.num_candidates


def sign(m: int, n: int, spec: HashSpec) -> int:
    """Sign +1/-1 for weight position (m, n); independent of the bucket seed."""
    spec._check(m, n)
    return 1 if splitmix64(((m << 32) | n) ^ spec.seed_sign) & 1 == 0 else -1


def _row_hashes(m: int, stop: int, seed: int, spec: HashSpec) -> np.ndarray:
    if not 0 <= m < stop <= spec.out_dim:
        raise ConfigError(f"row range [{m}, {stop}) outside {spec.out_dim} rows")
    rows = np.arange(m, stop, dtype=np.uint64)[:, None]
    cols = np.arange(spec.in_dim, dtype=np.uint64)
    return _splitmix64_vec(((rows << _U(32)) | cols) ^ _U(seed))


def bucket_row(m: int, spec: HashSpec, stop: int) -> np.ndarray:
    """The (stop - m, in_dim) block of candidate indices of rows m..stop-1."""
    h = _row_hashes(m, stop, spec.seed_bucket, spec)
    return (h % _U(spec.num_candidates)).astype(np.int64)


def sign_row(m: int, spec: HashSpec, stop: int) -> np.ndarray:
    """The (stop - m, in_dim) block of +1/-1 int8 signs of rows m..stop-1."""
    h = _row_hashes(m, stop, spec.seed_sign, spec)
    return np.where(h & _U(1) == 0, 1, -1).astype(np.int8)


# Entries (questions x output rows x in_dim) one block may touch: it bounds
# the gathered weights and the uint64 hash temporaries of every blocked loop.
BLOCK_BUDGET = 1 << 15
# Bytes of codes and lookup tables the one cached spec may take; a new spec
# that fits replaces it.  A spec that does not fit is hashed block by block on
# every pass.
CACHE_BYTES = 1 << 21
_grid_cache: dict[HashSpec, SpecCodes] = {}


@dataclass(frozen=True, eq=False)
class SpecCodes:
    """One signed-bucket code per grid position: code = bucket + K * (sign < 0).

    buckets and signs map a code to its int64 bucket and f64 sign.  grid
    holds the whole read-only code grid when the spec is cached, in the
    smallest unsigned dtype that holds 2K - 1 (uint8 up to K = 128).
    """

    spec: HashSpec
    buckets: np.ndarray
    signs: np.ndarray
    grid: np.ndarray | None = None

    def blocks(self, rows: int | None = None):
        """Yield (lo, hi, codes) over all output rows, in order.

        Each block holds rows output rows (the last one what is left); by
        default as many as keep rows * in_dim within BLOCK_BUDGET, and at
        least one.  codes is a (hi - lo, in_dim) array, a read-only view of
        the grid when the spec is cached and freshly hashed int64 codes
        otherwise.
        """
        spec = self.spec
        if rows is None:
            rows = max(1, BLOCK_BUDGET // spec.in_dim)
        for lo in range(0, spec.out_dim, rows):
            hi = min(lo + rows, spec.out_dim)
            if self.grid is None:
                codes = bucket_row(lo, spec, hi)
                codes[sign_row(lo, spec, hi) < 0] += spec.num_candidates
                yield lo, hi, codes
            else:
                yield lo, hi, self.grid[lo:hi]

    def signed_table(self, p: np.ndarray) -> np.ndarray:
        """Per row of the B x K candidates p, the 2K signed weights by code:
        [p, p * -1.0], so table[:, code] is the IEEE product p[bucket] * sign."""
        return np.concatenate([p, p * -1.0], axis=1)


def spec_codes(spec: HashSpec) -> SpecCodes:
    """The codes of spec, hashed once; kept while it is the last spec to fit CACHE_BYTES."""
    hit = _grid_cache.get(spec)
    if hit is not None:
        return hit
    k = spec.num_candidates
    dtype = np.min_scalar_type(2 * k - 1)
    buckets = np.arange(2 * k, dtype=np.int64) % k
    signs = np.repeat([1.0, -1.0], k)
    size = spec.out_dim * spec.in_dim * dtype.itemsize + buckets.nbytes + signs.nbytes
    hashed = SpecCodes(spec, buckets, signs)
    if size > CACHE_BYTES:
        return hashed
    grid = np.empty((spec.out_dim, spec.in_dim), dtype=dtype)
    for lo, hi, block in hashed.blocks():
        grid[lo:hi] = block
    for array in (grid, buckets, signs):
        array.setflags(write=False)
    _grid_cache.clear()
    codes = _grid_cache[spec] = SpecCodes(spec, buckets, signs, grid)
    return codes


def bucket_grid(spec: HashSpec) -> np.ndarray:
    """Full out_dim x in_dim grid of candidate indices, a fresh copy (diagnostics/oracles)."""
    codes = spec_codes(spec)
    return np.concatenate([codes.buckets[block] for _, _, block in codes.blocks()])


def sign_grid(spec: HashSpec) -> np.ndarray:
    """Full out_dim x in_dim grid of int8 signs, a fresh copy (diagnostics/oracles)."""
    codes = spec_codes(spec)
    return np.concatenate([codes.signs[block].astype(np.int8) for _, _, block in codes.blocks()])


def hash_stats(spec: HashSpec) -> dict:
    """Distribution report over the full position grid.

    Returns the exact bucket histogram, a chi-square statistic against the
    uniform expectation grid_size / num_candidates, and the mean sign.
    """
    k = spec.num_candidates
    counts = np.zeros(2 * k, dtype=np.int64)  # per code: positive signs, then negative
    for _, _, block in spec_codes(spec).blocks():
        counts += np.bincount(block.ravel(), minlength=2 * k)
    loads = counts[:k] + counts[k:]
    sign_sum = int(counts[:k].sum() - counts[k:].sum())
    grid_size = spec.out_dim * spec.in_dim
    expected = grid_size / spec.num_candidates
    chi_square = float(((loads - expected) ** 2 / expected).sum())
    sign_mean = sign_sum / grid_size
    return {
        "out_dim": spec.out_dim,
        "in_dim": spec.in_dim,
        "num_candidates": spec.num_candidates,
        "seed_bucket": spec.seed_bucket,
        "seed_sign": spec.seed_sign,
        "grid_size": grid_size,
        "expected_load": expected,
        "bucket_loads": loads.tolist(),
        "min_load": int(loads.min()),
        "max_load": int(loads.max()),
        "empty_buckets": int((loads == 0).sum()),
        "chi_square": chi_square,
        "dof": spec.num_candidates - 1,
        "sign_mean": sign_mean,
    }
