"""The dynamic parameter layer.

Forward maps input features through a weight matrix that is never stored:
entry (m, n) is candidates[bucket(m, n)] * sign(m, n), where the candidate
vector comes from the question encoder.  Both passes take batches only:
B x in_dim features, B x K candidates and B x out_dim output gradients, any
other rank a ShapeError.  Weights are gathered by signed-bucket code
(hashing.SpecCodes) straight from a SpecCodes.signed_table.

Rows that ask one question share its weights.  With questions= (each row's
index into Q x K candidates, or those indices grouped once by group_rows)
the questions asked by c rows each form a run; without, each row is its own
question, one run with c = 1 in place.  Both passes take one loop: per row
step of the grid and tile of questions, the tile's signed weights are
gathered once for all of its rows.  A step holds as many output rows as keep
their int64 codes within half of hashing.BLOCK_BUDGET and a tile as many
questions as keep the step's weights within it, so transient memory stays
O(BLOCK_BUDGET + batch * (in + out + candidates)) however large the grid.
Codes are read in row blocks of two steps, hashed afresh on every call when
the spec does not fit hashing.CACHE_BYTES.  Backward gathers weights only
for the input gradient, so a call that asks for none (d_features=False)
reads codes and signs alone.
"""

from __future__ import annotations

from typing import NamedTuple

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


class RowGroups(NamedTuple):
    """A batch's rows grouped by question: order holds the questions and rows
    the batch rows, question by question, both sorted by row count; runs
    holds (first, end, c, first row) over them."""

    order: np.ndarray
    rows: np.ndarray
    runs: tuple


def group_rows(questions, count: int) -> RowGroups:
    """Group the rows of a batch by questions, each row's index below count."""
    questions = np.asarray(questions)
    if (questions.ndim != 1 or questions.dtype.kind not in "iu"
            or (len(questions) and not 0 <= questions.min() <= questions.max() < count)):
        raise ShapeError(f"questions must give each feature row an index below {count}, "
                         f"got {questions.dtype} of shape {questions.shape}")
    sizes = np.bincount(questions, minlength=count)
    order = np.argsort(sizes, kind="stable")
    rows = np.lexsort((questions, sizes[questions]))  # question by question, as in order
    sizes = sizes[order].tolist()
    starts = [q for q, c in enumerate(sizes) if c and (q == 0 or c != sizes[q - 1])]
    first = np.cumsum([0] + sizes).tolist()
    return RowGroups(order, rows, tuple((q0, q1, sizes[q0], first[q0])
                                        for q0, q1 in zip(starts, starts[1:] + [count])))


def _plan(codes: hashing.SpecCodes, questions, b: int, q: int):
    """(width, tiles, steps) for b rows asking q questions: steps yields
    (first output row, intp codes) per step; tiles holds per tile (its
    candidate rows, its runs as (their slice of the tile, c, batch rows,
    candidate rows)); width is the most questions a tile holds."""
    spec, budget = codes.spec, hashing.BLOCK_BUDGET
    step = min(spec.out_dim, max(1, budget // (2 * spec.in_dim)))
    width = max(1, budget // (step * spec.in_dim))
    if questions is None:
        if b != q:
            raise ShapeError(f"batch mismatch: {b} feature rows vs {q} candidate rows")
        tiles = [(s, ((slice(None), 1, s, s),))
                 for s in map(slice, range(0, b, width), range(width, b + width, width))]
    else:
        groups = questions if isinstance(questions, RowGroups) else group_rows(questions, q)
        if (len(groups.rows), len(groups.order)) != (b, q):
            raise ShapeError(f"questions must give each of the {b} feature rows an index below "
                             f"{q}, got groups of {len(groups.rows)} rows by {len(groups.order)}")
        order, rows = groups.order, groups.rows
        tiles = [(order[t0:t0 + width], [
            (slice(lo - t0, hi - t0), c, rows[r0 + (lo - q0) * c:r0 + (hi - q0) * c], order[lo:hi])
            for q0, q1, c, r0 in groups.runs
            for lo, hi in [(max(q0, t0), min(q1, t0 + width))] if lo < hi])
            for t0 in range(groups.runs[0][0] if groups.runs else q, q, width)]
    steps = ((lo + r, block[r:r + step].astype(np.intp, copy=False))  # one conversion serves every take
             for lo, hi, block in codes.blocks(max(step, budget // spec.in_dim // step * step))
             for r in range(0, hi - lo, step))
    return min(width, q), tiles, steps


def dyn_forward(features, candidates, bias: np.ndarray, spec: HashSpec, *,
                questions=None) -> np.ndarray:
    """Apply the question-conditioned affine map: hashed weights, static bias.

    With questions, candidates holds one row per question and row b of the
    features uses candidate row questions[b].
    """
    x = _as_batch(features, spec.in_dim, "input features")
    p = _as_batch(candidates, spec.num_candidates, "candidates")
    codes = hashing.spec_codes(spec)
    _, tiles, steps = _plan(codes, questions, len(x), len(p))
    if bias.shape != (spec.out_dim,):
        raise ShapeError(f"bias shape {bias.shape} != ({spec.out_dim},)")
    out = np.empty((x.shape[0], spec.out_dim), dtype=x.dtype)
    for lo, step in steps:
        cols = slice(lo, lo + len(step))
        for asked, runs in tiles:
            w = codes.signed_table(p[asked]).take(step, axis=1)
            for part, c, rows, _ in runs:
                y = (np.einsum("qmn,qn->qm", w[part], x[rows]) if c == 1  # each row's own sums
                     else np.einsum("qcn,qmn->qcm", x[rows].reshape(-1, c, x.shape[1]), w[part]))
                out[rows, cols] = y.reshape(-1, len(step))
            del w  # before the next tile's weights are gathered
    out += bias
    return out


def _sums(carry, x, d, signs, keys, k: int):
    """d_candidates of n questions after a step: their carried sums, then per
    position the sum over each one's rows of x * d * sign, by one bincount."""
    n, head = carry.shape
    vals = np.empty((n, keys.shape[1]))  # bincount sums in f64 whatever the input
    vals[:, :head] = carry
    terms = vals[:, head:]
    x, d = x.reshape(n, -1, x.shape[1]), d.reshape(n, -1, d.shape[1]).transpose(0, 2, 1)
    product = np.multiply if x.shape[1] == 1 else np.matmul  # formed in the input dtype
    product(d, x, out=terms.reshape(d.shape[:2] + x.shape[2:]))
    terms *= signs  # 2-D: in place on a 3-D view of the strided rows would copy them
    return np.bincount(keys[:n].ravel(), vals.ravel(), minlength=n * k).reshape(n, k)


def dyn_backward(features, candidates, d_out, spec: HashSpec, *, questions=None,
                 d_features=True):
    """Gradients of the hashed affine map: (d_features, d_candidates, d_bias).

    Every weight position feeding bucket k adds sign * input * delta, summed
    over the rows asking one question, to d_candidates[k].  Per step and run
    of a tile, one bincount adds each question's terms in row-major (m, n)
    order after its sums carried from earlier steps: sequential accumulation
    over the grid, bit for bit.  With questions (as in dyn_forward),
    d_candidates has one row per question.  With d_features false, as when
    the layer's input feeds no tensor being trained, no weight is gathered and
    d_features is None; d_candidates and d_bias keep their bits.
    """
    x = _as_batch(features, spec.in_dim, "input features")
    p = _as_batch(candidates, spec.num_candidates, "candidates")
    d = _as_batch(d_out, spec.out_dim, "output gradient")
    if d.shape[0] != x.shape[0]:
        raise ShapeError(f"batch mismatch: features {x.shape[0]}, output grad {d.shape[0]}")
    k = spec.num_candidates
    codes = hashing.spec_codes(spec)
    width, tiles, steps = _plan(codes, questions, len(x), len(p))
    dx = np.zeros_like(x) if d_features else None
    dp = np.zeros(p.shape)
    for lo, step in steps:
        cols = slice(lo, lo + len(step))
        for asked, runs in tiles if d_features else ():  # the weights serve dx alone
            w = codes.signed_table(p[asked]).take(step, axis=1)
            for part, c, rows, _ in runs:
                dy = d[rows, cols]
                dx[rows] += (np.einsum("qmn,qm->qn", w[part], dy) if c == 1 else
                             (dy.reshape(-1, c, len(step)) @ w[part]).reshape(-1, x.shape[1]))
            del w  # before the next tile's weights are gathered
        # question j of a run: its carried sums keyed j * K + k, then its
        # terms keyed j * K + bucket, in row-major order
        head = k if lo else 0
        keys = (np.concatenate([np.arange(head), codes.buckets.take(step.ravel())])
                + np.arange(0, width * k, k)[:, None])
        signs = codes.signs.take(step.ravel())
        del step  # before the sums are formed
        for _, runs in tiles:
            for _, _, rows, asked in runs:
                dp[asked] = _sums(dp[asked, :head], x[rows], d[rows, cols], signs, keys, k)
        del keys, signs  # before the next step's weights are gathered
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
