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
parameter and input gradient with one matmul over all T x B rows.  gru_step
and gru_step_backward are the one-step case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint
from .errors import CheckpointError, ShapeError
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
    def from_store(cls, store: ParamStore, prefix: str = "gru") -> "GruParams":
        get = lambda k: store[f"{prefix}.{k}"]
        bias = f"{prefix}.b_r" in store
        return cls(
            w_r=get("w_r"), w_z=get("w_z"), w_h=get("w_h"),
            u_r=get("u_r"), u_z=get("u_z"), u_h=get("u_h"),
            b_r=get("b_r") if bias else None,
            b_z=get("b_z") if bias else None,
            b_h=get("b_h") if bias else None,
        )


@dataclass
class GruStepCache:
    """Per-step values needed by backward."""

    x: np.ndarray
    h_prev: np.ndarray
    r: np.ndarray
    z: np.ndarray
    h_bar: np.ndarray


@dataclass
class GruTrace:
    """A whole sequence's forward values, stacked time-major for backward.

    len() is the step count and trace[t] is step t's GruStepCache (views).
    """

    x: np.ndarray  # B x T x E input
    h_prev: np.ndarray  # T x B x H, the state entering each step
    rz: np.ndarray  # T x B x 2H, reset gate then update gate
    h_bar: np.ndarray  # T x B x H

    def __len__(self) -> int:
        return self.h_bar.shape[0]

    def __getitem__(self, t: int) -> GruStepCache:
        r, z = np.split(self.rz[t], 2, axis=1)
        return GruStepCache(
            x=self.x[:, t, :], h_prev=self.h_prev[t], r=r, z=z, h_bar=self.h_bar[t]
        )


def embed(tokens: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Look up embedding rows for a batch of equal-length token id sequences."""
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.ndim != 2 or tokens.shape[1] < 1:
        raise ShapeError(f"token batch must be B x T with T >= 1, got {tokens.shape}")
    if tokens.min() < 0 or tokens.max() >= table.shape[0]:
        raise ShapeError(
            f"token id out of range for vocabulary of {table.shape[0]} "
            f"(ids span {tokens.min()}..{tokens.max()})"
        )
    return table[tokens]


def embed_backward(tokens: np.ndarray, d_vectors: np.ndarray, vocab_size: int) -> np.ndarray:
    """Scatter sequence gradients back into the rows that were looked up."""
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    d_table = np.zeros((vocab_size, d_vectors.shape[-1]), dtype=d_vectors.dtype)
    np.add.at(d_table, tokens.ravel(), d_vectors.reshape(-1, d_vectors.shape[-1]))
    return d_table


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


def gru_step(x_t: np.ndarray, h_prev: np.ndarray, params: GruParams):
    """One recurrence step; returns (h_t, cache).

    Reset and update gates are sigmoids of affine maps of (x_t, h_prev); the
    candidate activation tanh-mixes x_t with the reset-scaled previous state;
    the new state is the update-gated convex combination.
    """
    h_t, trace = gru_encode(x_t[:, None, :], params, h_prev)
    return h_t, trace[0]


def gru_step_backward(cache: GruStepCache, params: GruParams, dh: np.ndarray, acc: dict):
    """Backward through one step; accumulates parameter grads into acc.

    Returns (dx_t, dh_prev).
    """
    trace = GruTrace(
        x=cache.x[:, None, :], h_prev=cache.h_prev[None],
        rz=np.concatenate([cache.r, cache.z], axis=1)[None], h_bar=cache.h_bar[None],
    )
    dx_seq, grads, dh_prev = _bptt(trace, params, dh)
    for k, g in grads.items():
        acc[k] += g
    return dx_seq[:, 0, :], dh_prev


def gru_encode(x_seq: np.ndarray, params: GruParams, h0: np.ndarray | None = None):
    """Run the recurrence over a B x T x E sequence; returns (h_last, trace).

    The trace holds every step's values stacked time-major; len(trace) is T.
    """
    if x_seq.ndim != 3 or x_seq.shape[1] < 1:
        raise ShapeError(f"sequence must be B x T x E with T >= 1, got {x_seq.shape}")
    b, steps, e = x_seq.shape
    hd = params.hidden_dim
    if e != params.input_dim:
        raise ShapeError(f"gru input dim {e} != {params.input_dim}")
    if h0 is not None and h0.shape != (b, hd):
        raise ShapeError(f"gru state shape {h0.shape} != ({b}, {hd})")
    w, u_rz, bias = _fused(params)
    dt = np.result_type(x_seq.dtype, w.dtype, x_seq.dtype if h0 is None else h0.dtype)
    h_prev = np.empty((steps, b, hd), dtype=dt)
    rz = np.empty((steps, b, 2 * hd), dtype=dt)
    h_bar = np.empty((steps, b, hd), dtype=dt)
    h = np.zeros((b, hd), dtype=dt) if h0 is None else h0
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


def _bptt(trace: GruTrace, params: GruParams, dh: np.ndarray):
    """Backward through a whole trace; returns (dx_seq, param grads, dh0).

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
    return dx_seq, grads, dh


def gru_encode_backward(caches, params: GruParams, dh_last: np.ndarray):
    """Backward through time; returns (dx_seq, param grads dict)."""
    dx_seq, grads, _ = _bptt(caches, params, dh_last)
    return dx_seq, grads


def predict_candidates(h_last: np.ndarray, w_proj: np.ndarray) -> np.ndarray:
    """Project the question embedding to the candidate weight vector (no bias)."""
    return matmul(h_last, w_proj.T)


def predict_candidates_backward(h_last: np.ndarray, w_proj: np.ndarray, d_candidates: np.ndarray):
    """Returns (dh_last, dw_proj)."""
    return matmul(d_candidates, w_proj), matmul(d_candidates.T, h_last)


ENCODER_PARAM_NAMES = ("embed.table", "gru.w_r", "gru.w_z", "gru.w_h", "gru.u_r", "gru.u_z", "gru.u_h")


def load_pretrained(directory, required: bool = False):
    """Import embedding + GRU weights from a params checkpoint directory.

    Returns (embedding table, GruParams, vocab dict or None).  Dimensions are
    adopted from the file; internal inconsistencies are rejected with
    specifics.
    """
    directory = Path(directory)
    if not (directory / checkpoint.MANIFEST_NAME).exists():
        if required:
            raise CheckpointError(f"pretrained encoder required but not found at {directory}")
        raise CheckpointError(f"no encoder checkpoint at {directory}")
    store = checkpoint.load_params(directory)
    missing = [n for n in ENCODER_PARAM_NAMES if n not in store]
    if missing:
        raise CheckpointError(f"encoder checkpoint {directory} missing tensors: {missing}")
    table = store["embed.table"]
    params = GruParams.from_store(store, "gru")
    if params.input_dim != table.shape[1]:
        raise CheckpointError(
            f"encoder checkpoint inconsistent: embedding dim {table.shape[1]} "
            f"but gru input dim {params.input_dim}"
        )
    vocab = None
    vocab_path = directory / "vocab.json"
    if vocab_path.exists():
        import json

        vocab = json.loads(vocab_path.read_text())
    return table, params, vocab
