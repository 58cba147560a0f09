"""Dense tensor primitives and the parameter store.

Tensors are numpy arrays in one of two scalar widths: f32 for cheap training,
f64 for anything checked against finite differences.  Every primitive here is
a pure function: batchnorm returns the running statistics a training batch
leads to instead of writing them, and ParamStore is the only mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

PRECISIONS = ("f32", "f64")
_DTYPES = {"f32": np.float32, "f64": np.float64}


def np_dtype(precision: str) -> np.dtype:
    if precision not in _DTYPES:
        raise ConfigError(f"unknown precision {precision!r}, expected one of {PRECISIONS}")
    return np.dtype(_DTYPES[precision])


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a 2-D left and right operand."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    return a @ b


ACTIVATIONS = ("sigmoid", "tanh", "relu")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; the two branches 1 / (1 + e^-x) and
    # e^x / (1 + e^x) then share one denominator, bit for bit.  min(x, -x) is
    # -|x| that passes a NaN through with its sign, as exp(x) did.
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0  # in place: one temporary fewer at the GRU's batch sizes
    out /= e
    return out


def activation(kind: str, x: np.ndarray) -> np.ndarray:
    """Elementwise nonlinearity; pair with activation_backward on the output."""
    if kind == "sigmoid":
        return _sigmoid(x)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "relu":
        return np.maximum(x, 0.0)
    raise ConfigError(f"unknown activation {kind!r}, expected one of {ACTIVATIONS}")


def activation_backward(kind: str, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. x given the forward output y and upstream dy."""
    if y.shape != dy.shape:
        raise ShapeError(f"activation backward shapes disagree: {y.shape} vs {dy.shape}")
    if kind == "sigmoid":
        return dy * y * (1.0 - y)
    if kind == "tanh":
        return dy * (1.0 - y * y)
    if kind == "relu":
        return dy * (y > 0)
    raise ConfigError(f"unknown activation {kind!r}, expected one of {ACTIVATIONS}")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a batch of logits."""
    if logits.ndim != 2:
        raise ShapeError(f"softmax expects B x C logits, got {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax_loss(logits: np.ndarray, targets):
    """(mean cross-entropy, log-probabilities, targets) after checking the shapes."""
    if logits.ndim != 2:
        raise ShapeError(f"softmax_xent expects B x C logits, got {logits.shape}")
    targets = np.asarray(targets)
    b, c = logits.shape
    if targets.shape != (b,):
        raise ShapeError(f"targets shape {targets.shape} does not match batch {b}")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise ShapeError(f"target index out of range for {c} classes: {targets}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logprobs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logprobs[np.arange(b), targets].mean()), logprobs, targets


def xent(logits: np.ndarray, targets) -> float:
    """Mean cross-entropy over the batch: the loss of softmax_xent, no gradient."""
    return _log_softmax_loss(logits, targets)[0]


def softmax_xent(logits: np.ndarray, targets) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    loss, logprobs, targets = _log_softmax_loss(logits, targets)
    b = len(logprobs)
    dlogits = np.exp(logprobs)
    dlogits[np.arange(b), targets] -= 1.0
    dlogits /= b
    return loss, dlogits


@dataclass
class BatchNormState:
    """Per-feature normalization state; running stats owned by the trainer."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float
    eps: float

    @classmethod
    def create(cls, dim: int, *, momentum: float, eps: float, precision: str = "f64"):
        dt = np_dtype(precision)
        return cls(np.ones(dim, dt), np.zeros(dim, dt), np.zeros(dim, dt), np.ones(dim, dt),
                   momentum, eps)


def batchnorm(x: np.ndarray, state: BatchNormState, mode: str):
    """Normalize per feature; returns (y, cache for backward, running).

    Train mode uses batch statistics, and running is the (mean, var) pair
    they fold the running statistics into; eval mode uses the running
    statistics, and running is state's own pair.  state is never written.
    """
    if x.ndim != 2:
        raise ShapeError(f"batchnorm expects B x D input, got {x.shape}")
    if x.shape[1] != state.gamma.shape[0]:
        raise ShapeError(f"batchnorm feature dim {x.shape[1]} != state dim {state.gamma.shape[0]}")
    if mode == "train":
        if x.shape[0] < 2:
            raise ShapeError(f"batchnorm train mode needs batch >= 2, got {x.shape[0]}")
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + state.eps)
        xhat = (x - mean) * inv_std
        m = state.momentum
        running = (
            (1.0 - m) * state.running_mean + m * mean,
            (1.0 - m) * state.running_var + m * var,
        )
        cache = (xhat, inv_std, state.gamma)
        return state.gamma * xhat + state.beta, cache, running
    if mode == "eval":
        xhat = (x - state.running_mean) / np.sqrt(state.running_var + state.eps)
        cache = (xhat, None, state.gamma)
        return state.gamma * xhat + state.beta, cache, (state.running_mean, state.running_var)
    raise ConfigError(f"unknown batchnorm mode {mode!r}")


def batchnorm_backward(cache, dy: np.ndarray):
    """Backward through train-mode batchnorm: returns (dx, dgamma, dbeta)."""
    xhat, inv_std, gamma = cache
    if inv_std is None:
        raise ShapeError("batchnorm backward requires a train-mode cache")
    b = dy.shape[0]
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * gamma
    # batch statistics depend on every row, hence the two correction terms
    dx = (inv_std / b) * (b * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return dx, dgamma, dbeta


class ParamStore:
    """Named parameter tensors, each tagged trainable or not.

    Every tensor is a view of one contiguous buffer, in declaration order:
    whole-store passes (an optimizer step, a copy, a checkpoint) run over
    spans of `buffer`.  Assignment writes into the view, so a view stays
    live; add appends by reallocating the buffer, after which views taken
    before it are stale.  Dynamic weights are never stored here, and neither
    is what a training step leaves frozen: trainer.ScheduleController holds
    that.
    """

    def __init__(self, precision: str = "f64", layout=()):
        """layout holds (name, shape, trainable) triples, zero-filled in one allocation."""
        self.precision = precision
        self.buffer = np.zeros(0, dtype=np_dtype(precision))
        self._slots: dict[str, tuple[int, int, tuple]] = {}  # (start, stop, shape) in buffer
        self._trainable: dict[str, bool] = {}
        self._extend(layout)

    def _extend(self, layout):
        used = stop = self.buffer.size
        for name, shape, trainable in layout:
            if name in self._slots:
                raise ConfigError(f"duplicate parameter name {name!r}")
            self._slots[name] = (stop, stop + math.prod(shape), tuple(shape))
            stop = self._slots[name][1]
            self._trainable[name] = trainable
        buffer = np.zeros(stop, dtype=self.buffer.dtype)
        buffer[:used] = self.buffer
        self.buffer = buffer
        self._params = {n: buffer[a:b].reshape(shape) for n, (a, b, shape) in self._slots.items()}

    def add(self, name: str, value, *, trainable: bool = True):
        value = np.asarray(value)
        self._extend([(name, value.shape, trainable)])
        self._params[name][...] = value

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __setitem__(self, name: str, value: np.ndarray):
        view, value = self._params[name], np.asarray(value)
        if value.shape != view.shape:
            raise ShapeError(f"assignment to {name!r} changes shape {view.shape} -> {value.shape}")
        view[...] = value

    def span(self, name: str) -> tuple[int, int]:
        """The (start, stop) of name's entries in buffer."""
        return self._slots[name][:2]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def is_trainable(self, name: str) -> bool:
        return self._trainable[name]
