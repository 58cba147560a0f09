"""The dynamic parameter layer.

Forward maps input features through a weight matrix that is never stored:
entry (m, n) is candidates[bucket(m, n)] * sign(m, n), where the candidate
vector comes from the question encoder.  Both passes take batches only:
B x in_dim features, B x K candidates and B x out_dim output gradients, any
other rank a ShapeError.  The layer reads one signed-bucket code per
position (hashing.SpecCodes, code = bucket + K * (sign < 0)) and gathers
signed weights straight from a SpecCodes.signed_table by code.

Per row, the passes walk the grid in row blocks of at most
hashing.BLOCK_BUDGET positions (at least one output row), whatever the
batch, and gather weights in tiles nested in them of at most BLOCK_BUDGET
batch x row x in_dim entries, so transient memory stays
O(BLOCK_BUDGET + batch * (in + out + candidates)) however large
out_dim * in_dim grows.  The d_candidates half of backward decodes a row
block's buckets and signs once, builds its bincount keys once, and runs one
bincount per group of batch rows that fits the budget.

Rows that ask one question share its weights, so with questions= (each
row's index into Q x K candidates) the passes run per row block of
SpecCodes.blocks() and then per question: that question's signed weights
are gathered once and serve all of its rows, and its d_candidates come from
the sum over its rows of delta x input, Q x M x N terms instead of
B x M x N.  These blocks hold as many rows as keep their int64 codes and one
question's gathered weights within BLOCK_BUDGET entries together, so
forward holds one budget on top of its output, and backward two on top of
its gradients (codes and weights, then int64 keys, f64 signs and terms).

The codes of a spec are hashed once and kept while every cached spec fits
hashing.CACHE_BYTES; a spec that does not fit is hashed row block by row
block on every call.  materialize_weights exists only as a test and
diagnostic oracle.
"""

from __future__ import annotations

import numpy as np

from . import hashing
from .errors import ShapeError
from .hashing import HashSpec

MATERIALIZE_LIMIT = 1 << 20


def _as_batch(x: np.ndarray, width: int, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"{what} must be a B x {width} batch, got shape {x.shape}")
    if x.shape[1] != width:
        raise ShapeError(f"{what} width {x.shape[1]} does not match layer width {width}")
    return x


def _question_rows(questions, b: int, q: int) -> list[np.ndarray]:
    """The batch rows of each of q questions, in batch order, from each of
    the b rows' question index."""
    questions = np.asarray(questions)
    if (questions.shape != (b,) or questions.dtype.kind not in "iu"
            or (b and not 0 <= questions.min() <= questions.max() < q)):
        raise ShapeError(
            f"questions must give each of the {b} feature rows an index below {q}, "
            f"got {questions.dtype} of shape {questions.shape}"
        )
    order = np.argsort(questions, kind="stable")
    return np.split(order, np.cumsum(np.bincount(questions, minlength=q))[:-1])


def _blocks(codes: hashing.SpecCodes, p: np.ndarray):
    """Yield (lo, hi, codes, tiles) over the row blocks of the grid, in order.

    A row block holds as many output rows as keep rows * in_dim within
    BLOCK_BUDGET, whatever the batch, or the whole grid when it fits; the
    d_candidates sums are formed once per block.  tiles yields the gather
    tiles nested in the block, (batch rows, signed table, output rows,
    codes); code c gathers the signed weight table[:, c].  A grid that fits
    the budget is gathered whole, for as many batch rows at a time as fit,
    each group under its own table.  A larger grid is gathered for the whole
    batch under one table, as many output rows at a time as fit and at least
    one, and its row blocks are a multiple of that.
    """
    if not len(p):
        return
    spec = codes.spec
    grid = spec.out_dim * spec.in_dim
    if grid <= hashing.BLOCK_BUDGET:
        width = hashing.BLOCK_BUDGET // grid
        (lo, hi, block), = codes.blocks(spec.out_dim)
        groups = (slice(b0, b0 + width) for b0 in range(0, len(p), width))
        yield lo, hi, block, ((rows, codes.signed_table(p[rows]), slice(lo, hi), block)
                              for rows in groups)
        return
    step = max(1, hashing.BLOCK_BUDGET // (len(p) * spec.in_dim))
    rows = max(step, hashing.BLOCK_BUDGET // spec.in_dim // step * step)
    table = codes.signed_table(p)
    for lo, hi, block in codes.blocks(rows):
        yield lo, hi, block, ((slice(None), table, slice(lo + r, min(lo + r + step, hi)),
                               block[r:r + step]) for r in range(0, hi - lo, step))


def dyn_forward(features, candidates, bias: np.ndarray, spec: HashSpec, *,
                questions=None) -> np.ndarray:
    """Apply the question-conditioned affine map: hashed weights, static bias.

    With questions, candidates holds one row per question and row b of the
    features uses candidate row questions[b].
    """
    x = _as_batch(features, spec.in_dim, "input features")
    p = _as_batch(candidates, spec.num_candidates, "candidates")
    if questions is None and x.shape[0] != p.shape[0]:
        raise ShapeError(
            f"batch mismatch: {x.shape[0]} feature rows vs {p.shape[0]} candidate rows"
        )
    if bias.shape != (spec.out_dim,):
        raise ShapeError(f"bias shape {bias.shape} != ({spec.out_dim},)")
    out = np.empty((x.shape[0], spec.out_dim), dtype=x.dtype)
    codes = hashing.spec_codes(spec)
    if questions is None:
        for _, _, _, tiles in _blocks(codes, p):
            for rows, table, cols, tile in tiles:
                out[rows, cols] = np.einsum("bmn,bn->bm", table.take(tile, axis=1), x[rows])
    else:
        groups = _question_rows(questions, len(x), len(p))
        table = codes.signed_table(p)
        for lo, hi, block in _question_blocks(codes):
            for signed, rows in zip(table, groups):
                # the per-row sums, in the per-row path's order and bits
                out[rows, lo:hi] = np.einsum("mn,bn->bm", signed.take(block), x[rows])
    out += bias
    return out


def dyn_backward(features, candidates, d_out, spec: HashSpec, *, questions=None):
    """Gradients of the hashed affine map: (d_features, d_candidates, d_bias).

    Every weight position feeding bucket k contributes sign * input * delta to
    d_candidates[k].  Per row block and group of batch rows, one bincount adds
    the terms in row-major (m, n) order per batch row after the sums carried
    from earlier blocks, so d_candidates equals sequential accumulation over
    the whole grid bit for bit.  With questions (as in dyn_forward),
    d_candidates has one row per question: the same carry-then-bincount
    scheme adds, per position, the sum of its rows' terms, so a question of
    one row gets the per-row bits.
    """
    x = _as_batch(features, spec.in_dim, "input features")
    p = _as_batch(candidates, spec.num_candidates, "candidates")
    d = _as_batch(d_out, spec.out_dim, "output gradient")
    b = x.shape[0]
    if (questions is None and p.shape[0] != b) or d.shape[0] != b:
        raise ShapeError(
            f"batch mismatch: features {b}, candidates {p.shape[0]}, output grad {d.shape[0]}"
        )
    if questions is not None:
        return _grouped_backward(x, p, d, spec, _question_rows(questions, b, len(p)))
    k = spec.num_candidates
    codes = hashing.spec_codes(spec)
    dx = np.zeros_like(x)
    dp = np.zeros(p.shape)
    keys = None
    for lo, hi, block, tiles in _blocks(codes, p):
        for rows, table, cols, tile in tiles:
            dx[rows] += np.einsum("bmn,bm->bn", table.take(tile, axis=1), d[rows, cols])
        del table  # a whole-grid tile's table goes before the block's sums are formed
        if keys is None:  # sized by the first block, room for the carry when more follow
            group = min(b, max(1, hashing.BLOCK_BUDGET // block.size))
            keys = np.empty(group * (block.size + k * (hi < spec.out_dim)), dtype=np.int64)
            vals = np.empty(len(keys))  # bincount sums in f64 whatever the input
        # per batch row j of a group: its carried sums keyed j * K + k, then
        # its terms keyed j * K + bucket, in row-major order
        head = k if lo else 0
        width = head + block.size
        key_rows = keys[:group * width].reshape(group, width)
        offsets = np.arange(0, group * k, k)[:, None]
        key_rows[:, :head] = offsets + np.arange(head)
        np.add(offsets, codes.buckets.take(block.ravel()), out=key_rows[:, head:])
        signs = codes.signs.take(block)
        for b0 in range(0, b, group):
            rows = slice(b0, b0 + group)
            n = min(group, b - b0)
            val_rows = vals[:n * width].reshape(n, width)
            val_rows[:, :head] = dp[rows, :head]
            terms = val_rows[:, head:].reshape(n, hi - lo, spec.in_dim)
            np.multiply(x[rows, None, :], d[rows, lo:hi, None], out=terms)
            terms *= signs
            dp[rows] = np.bincount(
                key_rows[:n].ravel(), val_rows.ravel(), minlength=n * k
            ).reshape(n, k)
        del signs  # before the next block's weights are gathered
    dp = dp.astype(p.dtype, copy=False)
    return dx, dp, d.sum(axis=0)


def _question_blocks(codes: hashing.SpecCodes):
    """SpecCodes.blocks() of as many output rows as keep a block's int64
    codes and one question's weights gathered by them within BLOCK_BUDGET,
    each block with those codes."""
    rows = max(1, hashing.BLOCK_BUDGET // (2 * codes.spec.in_dim))
    for lo, hi, block in codes.blocks(rows):
        yield lo, hi, block.astype(np.intp)  # one conversion serves every take


def _grouped_backward(x, p, d, spec: HashSpec, groups):
    k = spec.num_candidates
    codes = hashing.spec_codes(spec)
    table = codes.signed_table(p)
    dx = np.zeros_like(x)
    dp = np.zeros(p.shape)
    for lo, hi, block in _question_blocks(codes):
        for signed, rows in zip(table, groups):
            dx[rows] += d[rows, lo:hi] @ signed.take(block)
        # per question: its carried sums keyed k, then its terms keyed by bucket
        head = k if lo else 0
        keys = np.concatenate([np.arange(head), codes.buckets.take(block.ravel())])
        signs = codes.signs.take(block)
        del block  # before the terms are formed
        vals = np.empty(len(keys))  # bincount sums in f64 whatever the input
        terms = vals[head:].reshape(signs.shape)
        for q, rows in enumerate(groups):
            vals[:head] = dp[q, :head]
            np.matmul(d[rows, lo:hi].T, x[rows], out=terms)  # products formed in the input dtype
            terms *= signs
            dp[q] = np.bincount(keys, vals, minlength=k)
        del keys, signs, vals, terms  # before the next block's weights are gathered
    return dx, dp.astype(p.dtype, copy=False), d.sum(axis=0)


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
    codes = hashing.spec_codes(spec)
    table = codes.signed_table(p[None])[0]
    return np.concatenate([table[block] for _, _, block in codes.blocks()])
