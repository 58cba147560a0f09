"""The dynamic parameter layer.

Forward maps input features through a weight matrix that is never stored:
entry (m, n) is candidates[bucket(m, n)] * sign(m, n), where the candidate
vector comes from the question encoder.  Forward and backward walk the
batch x out_dim plane in blocks of at most hashing.BLOCK_BUDGET gathered
weights (at least one output row for the whole batch), so transient memory
stays O(BLOCK_BUDGET + batch * (in + out + candidates)) however large
out_dim * in_dim grows.  The layer reads one signed-bucket code per
position (hashing.SpecCodes, code = bucket + K * (sign < 0)): forward and
the d_features half of backward gather signed weights straight from a
per-tile table [p, p * -1.0] by code, and the d_candidates sums decode
bucket and sign from it.  The codes of a spec are hashed once and kept
while every cached spec fits hashing.CACHE_BYTES; a spec that does not fit
is hashed block by block on every call.  materialize_weights exists only as
a test and diagnostic oracle.
"""

from __future__ import annotations

import numpy as np

from . import hashing
from .errors import ShapeError
from .hashing import HashSpec

MATERIALIZE_LIMIT = 1 << 20


def _as_batch(x: np.ndarray, width: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
        single = True
    elif x.ndim == 2:
        single = False
    else:
        raise ShapeError(f"{what} must be a vector or batch, got shape {x.shape}")
    if x.shape[1] != width:
        raise ShapeError(f"{what} width {x.shape[1]} does not match layer width {width}")
    return x, single


def _tiles(codes: hashing.SpecCodes, p: np.ndarray, decode: bool):
    """Yield (batch rows, signed table, lo, hi, codes, *decoded) blocks covering batch x out_dim.

    The signed table of a tile is [p, p * -1.0] per batch row, so code c
    gathers the signed weight table[:, c], the same IEEE product as
    p[bucket] * sign.  With decode, each block also carries its int64
    buckets and f64 signs.  A grid that fits one block is taken whole and
    decoded once, and the batch split to fit the budget, so a batch row's
    bucket sums come from one block and need no carry.  A larger grid is
    split over output rows for the whole batch, under one table.
    """
    if not len(p):
        return
    spec = codes.spec
    grid = spec.out_dim * spec.in_dim
    if grid > hashing.BLOCK_BUDGET:
        table = _signed_table(p)
        for lo, hi, block in codes.blocks(len(p)):
            yield (slice(None), table, lo, hi, block, *_decoded(codes, block, decode))
        return
    width = hashing.BLOCK_BUDGET // grid
    (lo, hi, block), = codes.blocks(width)
    decoded = _decoded(codes, block, decode)
    for b0 in range(0, len(p), width):
        rows = slice(b0, b0 + width)
        yield (rows, _signed_table(p[rows]), lo, hi, block, *decoded)


def _signed_table(p: np.ndarray) -> np.ndarray:
    return np.concatenate([p, p * -1.0], axis=1)


def _decoded(codes: hashing.SpecCodes, block: np.ndarray, decode: bool) -> tuple:
    return (codes.buckets.take(block), codes.signs.take(block)) if decode else ()


def _bucket_sums(x, dm, buckets, signs, k: int, carry) -> np.ndarray:
    """d_candidates of one block: sign * x * delta summed per (batch row, bucket).

    One bincount adds the terms in row-major (m, n) order per batch row after
    the carried sums of earlier rows, if any, so the result equals sequential
    accumulation over the whole grid bit for bit.
    """
    nb = len(dm)
    shape = (nb, *buckets.shape)
    head = 0 if carry is None else nb * k
    keys = np.empty(head + nb * buckets.size, dtype=np.int64)
    vals = np.empty(len(keys))  # bincount sums in f64 whatever the input
    if carry is not None:
        keys[:head] = np.arange(head)
        vals[:head] = carry.ravel()
    np.add(np.arange(0, nb * k, k)[:, None, None], buckets, out=keys[head:].reshape(shape))
    terms = vals[head:].reshape(shape)
    np.multiply(x[:, None, :], dm[:, :, None], out=terms)
    terms *= signs
    return np.bincount(keys, vals, minlength=nb * k).reshape(nb, k)


def dyn_forward(features, candidates, bias: np.ndarray, spec: HashSpec) -> np.ndarray:
    """Apply the question-conditioned affine map: hashed weights, static bias."""
    x, single_x = _as_batch(features, spec.in_dim, "input features")
    p, single_p = _as_batch(candidates, spec.num_candidates, "candidate vector")
    if x.shape[0] != p.shape[0]:
        raise ShapeError(
            f"batch mismatch: {x.shape[0]} feature rows vs {p.shape[0]} candidate rows"
        )
    if bias.shape != (spec.out_dim,):
        raise ShapeError(f"bias shape {bias.shape} != ({spec.out_dim},)")
    out = np.empty((x.shape[0], spec.out_dim), dtype=x.dtype)
    for rows, table, lo, hi, block in _tiles(hashing.spec_codes(spec), p, decode=False):
        out[rows, lo:hi] = np.einsum("bmn,bn->bm", table.take(block, axis=1), x[rows])
    out += bias
    return out[0] if (single_x and single_p) else out


def dyn_backward(features, candidates, d_out, spec: HashSpec):
    """Gradients of the hashed affine map: (d_features, d_candidates, d_bias).

    Every weight position feeding bucket k contributes sign * input * delta to
    d_candidates[k]; accumulation runs row-major over (m, n) so results are
    bit-reproducible.
    """
    x, single_x = _as_batch(features, spec.in_dim, "input features")
    p, single_p = _as_batch(candidates, spec.num_candidates, "candidate vector")
    d, single_d = _as_batch(d_out, spec.out_dim, "output gradient")
    b = x.shape[0]
    if p.shape[0] != b or d.shape[0] != b:
        raise ShapeError(
            f"batch mismatch: features {b}, candidates {p.shape[0]}, output grad {d.shape[0]}"
        )
    dx = np.zeros_like(x)
    dp = np.zeros(p.shape)
    for rows, table, lo, hi, block, buckets, signs in _tiles(
            hashing.spec_codes(spec), p, decode=True):
        dm = d[rows, lo:hi]
        dx[rows] += np.einsum("bmn,bm->bn", table.take(block, axis=1), dm)
        del table  # a one-block tile's table goes before its bucket sums are formed
        dp[rows] = _bucket_sums(
            x[rows], dm, buckets, signs, spec.num_candidates, dp[rows] if lo else None
        )
        del buckets, signs  # and a row block's codes before the next one is decoded
    dp = dp.astype(p.dtype, copy=False)
    db = d.sum(axis=0)
    if single_x and single_p and single_d:
        return dx[0], dp[0], db
    return dx, dp, db


def materialize_weights(candidates: np.ndarray, spec: HashSpec) -> np.ndarray:
    """Explicit out_dim x in_dim weight matrix for one candidate vector.

    Guarded test/diagnostic oracle; the layer itself never builds this.
    """
    if spec.out_dim * spec.in_dim > MATERIALIZE_LIMIT:
        raise ShapeError(
            f"materialize_weights guard: {spec.out_dim} x {spec.in_dim} exceeds "
            f"{MATERIALIZE_LIMIT} entries"
        )
    p = np.asarray(candidates)
    if p.shape != (spec.num_candidates,):
        raise ShapeError(f"candidate shape {p.shape} != ({spec.num_candidates},)")
    w = np.empty((spec.out_dim, spec.in_dim), dtype=p.dtype)
    for lo, hi, buckets, signs in hashing.row_blocks(spec):
        w[lo:hi] = p[buckets] * signs
    return w
