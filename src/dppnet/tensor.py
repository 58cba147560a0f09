"""Dense tensor primitives and the parameter store.

Tensors are numpy arrays in one of two scalar widths: f32 for cheap training,
f64 for anything checked against finite differences.  Every primitive here is
a pure function; the only mutable state is BatchNormState, written by a single
training loop.
"""

from __future__ import annotations

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


def softmax_xent(logits: np.ndarray, targets) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
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
    loss = float(-logprobs[np.arange(b), targets].mean())
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
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def create(cls, dim: int, precision: str = "f64", momentum: float = 0.1, eps: float = 1e-5):
        dt = np_dtype(precision)
        return cls(
            gamma=np.ones(dim, dtype=dt),
            beta=np.zeros(dim, dtype=dt),
            running_mean=np.zeros(dim, dtype=dt),
            running_var=np.ones(dim, dtype=dt),
            momentum=momentum,
            eps=eps,
        )


def batchnorm(x: np.ndarray, state: BatchNormState, mode: str, update_running: bool = True):
    """Normalize per feature; returns (y, cache for backward).

    Train mode uses batch statistics and (optionally) folds them into the
    running statistics; eval mode uses running statistics only.
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
        if update_running:
            m = state.momentum
            state.running_mean = (1.0 - m) * state.running_mean + m * mean
            state.running_var = (1.0 - m) * state.running_var + m * var
        cache = (xhat, inv_std, state.gamma)
        return state.gamma * xhat + state.beta, cache
    if mode == "eval":
        xhat = (x - state.running_mean) / np.sqrt(state.running_var + state.eps)
        cache = (xhat, None, state.gamma)
        return state.gamma * xhat + state.beta, cache
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


ROLES = ("static", "dynamic-producing")


class ParamStore:
    """Named parameter tensors with trainable/frozen and role tags.

    Dynamic weights are never stored here: parameters tagged
    "dynamic-producing" are the ones whose outputs build them per question.
    """

    def __init__(self, precision: str = "f64"):
        self.precision = precision
        self._params: dict[str, np.ndarray] = {}
        self._trainable: dict[str, bool] = {}
        self._role: dict[str, str] = {}
        self._frozen: set[str] = set()

    def add(self, name: str, value, *, trainable: bool = True, role: str = "static"):
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if role not in ROLES:
            raise ConfigError(f"unknown role {role!r} for {name!r}")
        # own a writable copy; callers may hand us read-only buffer views
        self._params[name] = np.array(value, dtype=np_dtype(self.precision))
        self._trainable[name] = trainable
        self._role[name] = role

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __setitem__(self, name: str, value: np.ndarray):
        old = self._params[name]
        value = np.asarray(value, dtype=old.dtype)
        if value.shape != old.shape:
            raise ShapeError(f"assignment to {name!r} changes shape {old.shape} -> {value.shape}")
        self._params[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def role(self, name: str) -> str:
        return self._role[name]

    def is_trainable(self, name: str) -> bool:
        return self._trainable[name]

    def is_frozen(self, name: str) -> bool:
        return name in self._frozen

    def freeze(self, prefix: str):
        """Freeze all parameters whose name equals or starts with prefix."""
        hits = [n for n in self._params if n == prefix or n.startswith(prefix + ".")]
        if not hits:
            raise ConfigError(f"freeze: no parameter matches {prefix!r}")
        self._frozen.update(hits)

    def unfreeze(self, prefix: str):
        hits = [n for n in self._frozen if n == prefix or n.startswith(prefix + ".")]
        for n in hits:
            self._frozen.discard(n)

    def frozen_names(self) -> list[str]:
        return sorted(self._frozen)

    def updatable_names(self) -> list[str]:
        """Parameters an optimizer step may write."""
        return [n for n in self._params if self._trainable[n] and n not in self._frozen]

    def copy_values(self) -> dict[str, np.ndarray]:
        return {n: v.copy() for n, v in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]):
        for n, v in values.items():
            self[n] = v
