"""Central finite-difference gradient checking over a parameter store.

The caller passes a forward-only loss_fn(store) -> float and grads, the analytic
gradients computed once at the unperturbed store.  The checker perturbs one
scalar at a time and only ever sees the loss value.  An entry that misses the
tolerance is estimated again with a fourth-order difference and judged at the
same tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .tensor import ParamStore

EPS = 1e-5  # grad_check's step
TOLERANCE = 1e-5  # grad_check's default tolerance
FLOOR = 1e-3  # relative_error's denominator floor


@dataclass
class TensorCheck:
    name: str
    max_rel_err: float
    passed: bool
    note: str = ""


@dataclass
class GradCheckReport:
    tolerance: float
    tensors: list[TensorCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tensors)

    @property
    def max_rel_err(self) -> float:
        return max((t.max_rel_err for t in self.tensors), default=0.0)


def relative_error(analytic: float, numeric: float) -> float:
    """|a - n| over max(|a|, |n|, FLOOR).

    The floor turns the criterion into an absolute one for near-zero
    gradients, where finite differences carry irreducible rounding noise.
    """
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), FLOOR)


def _spread(loss_fn, store: ParamStore, w: np.ndarray, idx, h: float) -> float:
    """loss(w + h) - loss(w - h), moving only entry idx of w; NaN where the loss raises."""
    orig = w[idx]
    try:
        w[idx] = orig + h
        up = loss_fn(store)
        w[idx] = orig - h
        return up - loss_fn(store)
    except FloatingPointError:
        return math.nan
    finally:
        w[idx] = orig


def grad_check(
    loss_fn,
    store: ParamStore,
    grads: dict[str, np.ndarray],
    *,
    tolerance: float = TOLERANCE,
    names: list[str] | None = None,
) -> GradCheckReport:
    """Check grads, loss_fn's analytic gradients at store, against central differences.

    Requires 64-bit parameters; finite differences are unreliable at 32 bits.
    A non-finite or FloatingPointError-raising loss is reported as a failing
    tensor, never raised.
    """
    if store.precision != "f64":
        raise ConfigError("grad_check requires f64 precision")
    report = GradCheckReport(tolerance=tolerance)
    try:
        base_loss = loss_fn(store)
    except FloatingPointError as e:
        report.tensors.append(TensorCheck("<loss>", math.inf, False, f"loss raised: {e}"))
        return report
    if not math.isfinite(base_loss):
        report.tensors.append(TensorCheck("<loss>", math.inf, False, "non-finite loss"))
        return report

    if names is None:
        names = [n for n in store.names() if store.is_trainable(n)]
    for name in names:
        analytic = grads.get(name)
        if analytic is None:
            report.tensors.append(TensorCheck(name, math.inf, False, "no analytic gradient"))
            continue
        w = store[name]
        worst = 0.0
        note = ""
        for idx in np.ndindex(w.shape):
            diff = _spread(loss_fn, store, w, idx, EPS)
            if not math.isfinite(diff):
                worst = math.inf
                note = f"non-finite loss at {name}{list(idx)}"
                break
            err = relative_error(float(analytic[idx]), diff / (2.0 * EPS))
            if err > tolerance:
                # The central difference is off by O(eps^2) times the third
                # derivative, which a strongly curved loss (batch norm over two
                # rows) pushes past the tolerance.  The fourth-order
                # (Richardson) difference cancels that term, so only a wrong
                # analytic gradient still fails.
                diff2 = _spread(loss_fn, store, w, idx, 2.0 * EPS)
                if math.isfinite(diff2):
                    numeric = (8.0 * diff - diff2) / (12.0 * EPS)
                    err = relative_error(float(analytic[idx]), numeric)
            if err > worst:
                worst = err
        report.tensors.append(TensorCheck(name, worst, worst <= tolerance, note))
    return report
