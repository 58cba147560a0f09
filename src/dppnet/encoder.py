"""Question encoder: word embedding, GRU recurrence, candidate projection.

The GRU follows the classic reset/update-gate form with no bias terms by
default; imported pre-trained encoders may carry biases.  Sequences are always
processed at their true length, batches hold equal-length questions only.

The recurrence is gate-fused.  The input weights are stacked as
[w_r; w_z; w_h] and the reset/update recurrent weights as [u_r; u_z] once per
sequence, so a step is one input projection, one recurrent projection and one
sigmoid for both gates, plus the reset-scaled candidate projection.  Steps
write their gates, candidates and entering states into time-major arrays (a
GruTrace), and the gate range check runs once over those arrays per sequence.
Backward walks only the state-gradient chain step by step, then forms every
parameter and input gradient with one matmul over all T x B rows.
gru_encode and gru_encode_backward are the only way into the recurrence; a
sequence always starts from the zero state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import ParamStore, activation, matmul

# Tests flip this on to assert gates stay strictly inside their open ranges;
# the closed-range sanity check below always runs.
STRICT_GATES = False


@dataclass
class GruParams:
    """The six GRU coefficient matrices (input H x E, recurrent H x H)."""

    w_r: np.ndarray
    w_z: np.ndarray
    w_h: np.ndarray
    u_r: np.ndarray
    u_z: np.ndarray
    u_h: np.ndarray
    b_r: np.ndarray | None = None
    b_z: np.ndarray | None = None
    b_h: np.ndarray | None = None

    def __post_init__(self):
        h, e = self.w_r.shape
        for name in ("w_z", "w_h"):
            if getattr(self, name).shape != (h, e):
                raise ShapeError(f"gru {name} shape {getattr(self, name).shape} != ({h}, {e})")
        for name in ("u_r", "u_z", "u_h"):
            if getattr(self, name).shape != (h, h):
                raise ShapeError(f"gru {name} shape {getattr(self, name).shape} != ({h}, {h})")
        biases = [self.b_r, self.b_z, self.b_h]
        if any(b is not None for b in biases):
            if not all(b is not None and b.shape == (h,) for b in biases):
                raise ShapeError("gru biases must be all present with shape (H,) or all absent")

    @property
    def hidden_dim(self) -> int:
        return self.w_r.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_r.shape[1]

    @property
    def has_bias(self) -> bool:
        return self.b_r is not None

    @classmethod
    def from_store(cls, store: ParamStore) -> "GruParams":
        get = lambda k: store[f"gru.{k}"]
        bias = "gru.b_r" in store
        return cls(
            w_r=get("w_r"), w_z=get("w_z"), w_h=get("w_h"),
            u_r=get("u_r"), u_z=get("u_z"), u_h=get("u_h"),
            b_r=get("b_r") if bias else None,
            b_z=get("b_z") if bias else None,
            b_h=get("b_h") if bias else None,
        )


@dataclass
class GruTrace:
    """A whole sequence's forward values, stacked time-major for backward.

    len() is the step count.
    """

    x: np.ndarray  # B x T x E input
    h_prev: np.ndarray  # T x B x H, the state entering each step
    rz: np.ndarray  # T x B x 2H, reset gate then update gate
    h_bar: np.ndarray  # T x B x H

    def __len__(self) -> int:
        return self.h_bar.shape[0]


def embed(tokens: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Look up embedding rows for a batch of equal-length token id sequences."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2 or tokens.shape[1] < 1:
        raise ShapeError(f"token batch must be B x T with T >= 1, got {tokens.shape}")
    if tokens.min() < 0 or tokens.max() >= table.shape[0]:
        raise ShapeError(
            f"token id out of range for vocabulary of {table.shape[0]} "
            f"(ids span {tokens.min()}..{tokens.max()})"
        )
    return table[tokens]


def embed_backward(tokens: np.ndarray, d_vectors: np.ndarray, vocab_size: int) -> np.ndarray:
    """Scatter sequence gradients back into the rows that were looked up.

    One bincount over (token, column) keys adds each entry's terms in token
    order, as np.add.at does, so f64 sums match it bit for bit.  bincount sums
    in f64 whatever the input; the table is cast to d_vectors' dtype once.
    """
    tokens = np.asarray(tokens)
    e = d_vectors.shape[-1]
    keys = (tokens.reshape(-1, 1) * e + np.arange(e)).ravel()
    d_table = np.bincount(keys, d_vectors.ravel(), minlength=vocab_size * e)
    return d_table.reshape(vocab_size, e).astype(d_vectors.dtype, copy=False)


def _check_gates(rz, h_bar):
    # min and max carry a NaN through, so non-finite inputs fail the ranges
    if not (rz.min() >= 0.0 and rz.max() <= 1.0):
        raise FloatingPointError("gru gate left [0, 1]; inputs were non-finite")
    if not (h_bar.min() >= -1.0 and h_bar.max() <= 1.0):
        raise FloatingPointError("gru candidate activation left [-1, 1]")
    if STRICT_GATES:
        r, z = np.split(rz, 2, axis=-1)
        assert np.all(r > 0.0) and np.all(r < 1.0), "reset gate saturated"
        assert np.all(z > 0.0) and np.all(z < 1.0), "update gate saturated"
        assert np.all(np.abs(h_bar) < 1.0), "candidate activation saturated"


def _fused(params: GruParams):
    """Stacked input weights [w_r; w_z; w_h], recurrent [u_r; u_z], bias or None."""
    w = np.concatenate([params.w_r, params.w_z, params.w_h])
    u_rz = np.concatenate([params.u_r, params.u_z])
    bias = np.concatenate([params.b_r, params.b_z, params.b_h]) if params.has_bias else None
    return w, u_rz, bias


def gru_encode(x_seq: np.ndarray, params: GruParams):
    """Run the recurrence from the zero state over a B x T x E sequence;
    returns (h_last, trace).

    The trace holds every step's values stacked time-major; len(trace) is T.
    """
    if x_seq.ndim != 3 or x_seq.shape[1] < 1:
        raise ShapeError(f"sequence must be B x T x E with T >= 1, got {x_seq.shape}")
    b, steps, e = x_seq.shape
    hd = params.hidden_dim
    if e != params.input_dim:
        raise ShapeError(f"gru input dim {e} != {params.input_dim}")
    w, u_rz, bias = _fused(params)
    dt = np.result_type(x_seq.dtype, w.dtype)
    h_prev = np.empty((steps, b, hd), dtype=dt)
    rz = np.empty((steps, b, 2 * hd), dtype=dt)
    h_bar = np.empty((steps, b, hd), dtype=dt)
    h = np.zeros((b, hd), dtype=dt)
    for t in range(steps):
        h_prev[t] = h
        # projected per step: all T at once would hold a T x B x 3H array
        a = matmul(x_seq[:, t, :], w.T)
        a_rz = a[:, : 2 * hd]
        a_rz += matmul(h, u_rz.T)
        if bias is not None:
            a_rz += bias[: 2 * hd]
        rz[t] = activation("sigmoid", a_rz)
        r, z = rz[t, :, :hd], rz[t, :, hd:]
        a_h = a[:, 2 * hd :] + matmul(r * h, params.u_h.T)
        if bias is not None:
            a_h += bias[2 * hd :]
        h_bar[t] = activation("tanh", a_h)
        h = (1.0 - z) * h + z * h_bar[t]
    _check_gates(rz, h_bar)
    return h, GruTrace(x=x_seq, h_prev=h_prev, rz=rz, h_bar=h_bar)


def gru_encode_backward(trace: GruTrace, params: GruParams, dh: np.ndarray):
    """Backward through time from dh, the gradient of h_last; returns
    (dx_seq, param grads dict).

    The loop carries only the state gradient and records each step's gate
    pre-activation gradients [da_r, da_z, da_h]; the parameter and input
    gradients are then one matmul each over all T x B rows.
    """
    steps, b, hd = trace.h_bar.shape
    w, u_rz, _ = _fused(params)
    h_prev, h_bar = trace.h_prev, trace.h_bar
    r, z = trace.rz[..., :hd], trace.rz[..., hd:]
    d_sig = trace.rz * (1.0 - trace.rz)
    g = np.empty((steps, b, 3 * hd), dtype=np.result_type(dh.dtype, trace.rz.dtype))
    for t in range(steps - 1, -1, -1):
        da_h = dh * z[t] * (1.0 - h_bar[t] * h_bar[t])
        drh = matmul(da_h, params.u_h)
        g[t, :, :hd] = drh * h_prev[t] * d_sig[t, :, :hd]
        g[t, :, hd : 2 * hd] = dh * (h_bar[t] - h_prev[t]) * d_sig[t, :, hd:]
        g[t, :, 2 * hd :] = da_h
        if t:  # the state entering step 0 is the zero state, with no gradient
            dh = dh * (1.0 - z[t]) + drh * r[t] + matmul(g[t, :, : 2 * hd], u_rz)
    g = g.reshape(steps * b, 3 * hd)
    x = trace.x.transpose(1, 0, 2).reshape(steps * b, -1)
    dw = matmul(g.T, x)
    du_rz = matmul(g[:, : 2 * hd].T, h_prev.reshape(steps * b, hd))
    grads = {
        "w_r": dw[:hd], "w_z": dw[hd : 2 * hd], "w_h": dw[2 * hd :],
        "u_r": du_rz[:hd], "u_z": du_rz[hd:],
        "u_h": matmul(g[:, 2 * hd :].T, (r * h_prev).reshape(steps * b, hd)),
    }
    if params.has_bias:
        db = g.sum(axis=0)
        grads.update(b_r=db[:hd], b_z=db[hd : 2 * hd], b_h=db[2 * hd :])
    dx_seq = matmul(g, w).reshape(steps, b, -1).transpose(1, 0, 2)
    return dx_seq, grads


def predict_candidates(h_last: np.ndarray, w_proj: np.ndarray) -> np.ndarray:
    """Project the question embedding to the candidate weight vector (no bias)."""
    return matmul(h_last, w_proj.T)


def predict_candidates_backward(h_last: np.ndarray, w_proj: np.ndarray, d_candidates: np.ndarray):
    """Returns (dh_last, dw_proj)."""
    return matmul(d_candidates, w_proj), matmul(d_candidates.T, h_last)
