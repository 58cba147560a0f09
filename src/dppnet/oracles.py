"""Finite-difference oracle suite over every differentiable operation.

Each entry builds a tiny random instance, runs the hand-written backward once
on it, and checks those gradients against central differences of a forward-only
scalar loss.  The full composed models are checked last at the toy dimensions.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np

from . import encoder as enc
from . import model as mdl
from .config import ModelConfig
from .dynlayer import dyn_backward, dyn_forward
from .gradcheck import EPS, GradCheckReport, grad_check
from .hashing import HashSpec
from .tensor import (
    BatchNormState,
    ParamStore,
    activation,
    activation_backward,
    batchnorm,
    batchnorm_backward,
    matmul,
    softmax_xent,
    xent,
)

TOY = ModelConfig(
    feature_dim=24,
    adapter_hidden=16,
    adapter_out=16,
    dyn_out=12,
    num_candidates=32,
    hidden_dim=8,
    embed_dim=8,
    num_answers=6,
    vocab_size=12,
)

# A stencil point moves one entry by at most 2 * eps.  That shifts a ReLU input
# by 2 * eps times the entry's coefficient in it: 1 for a bias, the layer input
# for a weight (standard normal features, smaller activations after them).
# Ten eps clears every coefficient up to 5.
KINK_MARGIN = 10 * EPS


def _store(**arrays) -> ParamStore:
    s = ParamStore("f64")
    for k, v in arrays.items():
        s.add(k, v)
    return s


def check_activation(kind: str, rng) -> GradCheckReport:
    x = rng.normal(size=(4, 5))
    c = rng.normal(size=(4, 5))

    def loss_fn(s):
        return float((c * activation(kind, s["x"])).sum())

    grads = {"x": activation_backward(kind, activation(kind, x), c)}
    return grad_check(loss_fn, _store(x=x), grads)


def check_softmax_xent(rng) -> GradCheckReport:
    logits = rng.normal(size=(5, 7))
    targets = rng.integers(0, 7, size=5)

    def loss_fn(s):
        return xent(s["logits"], targets)

    grads = {"logits": softmax_xent(logits, targets)[1]}
    return grad_check(loss_fn, _store(logits=logits), grads)


def check_batchnorm(rng) -> GradCheckReport:
    x = rng.normal(size=(8, 3)) * 2.0 + 1.0
    c = rng.normal(size=(8, 3))
    arrays = {"x": x, "gamma": rng.uniform(0.5, 1.5, size=3), "beta": rng.normal(size=3)}

    def forward(s):
        state = BatchNormState(s["gamma"], s["beta"], np.zeros(3), np.ones(3),
                               ModelConfig.bn_momentum, ModelConfig.bn_eps)
        y, cache, _ = batchnorm(s["x"], state, "train")
        return float((c * y).sum()), cache

    grads = dict(zip(("x", "gamma", "beta"), batchnorm_backward(forward(arrays)[1], c)))
    return grad_check(lambda s: forward(s)[0], _store(**arrays), grads, tolerance=1e-6)


def check_embed(rng) -> GradCheckReport:
    table = rng.normal(size=(6, 4))
    tokens = np.array([[1, 3, 1]])  # repeated token: gradients must sum
    c = rng.normal(size=(1, 3, 4))

    def loss_fn(s):
        return float((c * enc.embed(tokens, s["table"])).sum())

    grads = {"table": enc.embed_backward(tokens, c, 6)}
    return grad_check(loss_fn, _store(table=table), grads)


def check_gru(rng, steps: int = 4) -> GradCheckReport:
    h, e, b = 5, 4, 3
    arrays = {
        "gru.w_r": rng.normal(size=(h, e)), "gru.w_z": rng.normal(size=(h, e)),
        "gru.w_h": rng.normal(size=(h, e)), "gru.u_r": rng.normal(size=(h, h)),
        "gru.u_z": rng.normal(size=(h, h)), "gru.u_h": rng.normal(size=(h, h)),
        "x": rng.normal(size=(b, steps, e)),
    }
    c = rng.normal(size=(b, h))

    def forward(s):
        h_last, caches = enc.gru_encode(s["x"], enc.GruParams.from_store(s))
        return float((c * h_last).sum()), caches

    dx, grads = enc.gru_encode_backward(forward(arrays)[1], enc.GruParams.from_store(arrays), c)
    grads = {"x": dx, **{f"gru.{k}": g for k, g in grads.items()}}
    return grad_check(lambda s: forward(s)[0], _store(**arrays), grads)


def check_dyn_layer(rng) -> GradCheckReport:
    spec = HashSpec(out_dim=6, in_dim=9, num_candidates=4)
    arrays = {
        "x": rng.normal(size=(3, 9)),
        "p": rng.normal(size=(3, 4)),
        "b": rng.normal(size=6),
    }
    c = rng.normal(size=(3, 6))

    def loss_fn(s):
        return float((c * dyn_forward(s["x"], s["p"], s["b"], spec)).sum())

    grads = dict(zip(("x", "p", "b"), dyn_backward(arrays["x"], arrays["p"], c, spec)))
    return grad_check(loss_fn, _store(**arrays), grads, tolerance=1e-6)


def check_projection_with_dyn(rng) -> GradCheckReport:
    spec = HashSpec(out_dim=5, in_dim=7, num_candidates=6)
    h = 4
    arrays = {
        "w_p": rng.normal(size=(6, h)),
        "hq": rng.normal(size=(2, h)),
        "x": rng.normal(size=(2, 7)),
        "b": rng.normal(size=5),
    }
    c = rng.normal(size=(2, 5))

    def forward(s):
        p = enc.predict_candidates(s["hq"], s["w_p"])
        return float((c * dyn_forward(s["x"], p, s["b"], spec)).sum()), p

    dx, dp, db = dyn_backward(arrays["x"], forward(arrays)[1], c, spec)
    dh, dw = enc.predict_candidates_backward(arrays["hq"], arrays["w_p"], dp)
    grads = {"x": dx, "b": db, "hq": dh, "w_p": dw}
    return grad_check(lambda s: forward(s)[0], _store(**arrays), grads)


def _relu_inputs(cfg: ModelConfig, store: ParamStore, caches) -> list:
    """Every ReLU pre-activation of a full-model forward, from its caches."""
    xhat, _, gamma = caches["bn_cache"]
    inputs = [
        matmul(caches["features"], store["adapter.w1"].T) + store["adapter.b1"],
        matmul(caches["h1"], store["adapter.w2"].T) + store["adapter.b2"],
        gamma * xhat + store["bn.beta"],
    ]
    if cfg.variant == "concat":
        inputs.append(matmul(caches["joint"], store["mix.w1"].T) + store["mix.b1"])
    return inputs


def _full_model_instance(cfg: ModelConfig, rng, batch: int):
    """Draw (store, features, tokens, targets) until every ReLU input of the
    train-mode forward is more than KINK_MARGIN from the kink.

    A difference taken across a kink measures neither side's slope, so a
    right gradient fails there; draws that clear the margin are kept as drawn.
    """
    while True:
        store = mdl.init_params(cfg, "f64", seed=int(rng.integers(1 << 30)))
        feats = rng.normal(size=(batch, cfg.feature_dim))
        tokens = rng.integers(0, cfg.vocab_size, size=(batch, 5))
        targets = rng.integers(0, cfg.num_answers, size=batch)
        _, caches = mdl.forward(cfg, store, feats, tokens, "train")
        if all(np.abs(x).min() > KINK_MARGIN for x in _relu_inputs(cfg, store, caches)):
            return store, feats, tokens, targets


def _encoder_bytes(store: ParamStore, names) -> bytes:
    return b"".join(store[n].tobytes() for n in names)


def _full_model_case(variant: str, rng, batch: int = 2):
    """Draw a full-model instance; returns the (loss_fn, store, grads) to check."""
    from dataclasses import replace

    cfg = replace(TOY, variant=variant)
    store, feats, tokens, targets = _full_model_instance(cfg, rng, batch)
    _, caches, grads = mdl.loss_and_grads(cfg, store, feats, tokens, targets, "train")
    encoder = [n for n in store.names() if n.split(".")[0] in mdl.ENCODER_PREFIXES]
    # the encoder bytes last encoded and their encoding, first the base point's
    encoded = [_encoder_bytes(store, encoder),
               (caches["h_last"], caches["gru"], caches["shared"])]

    def loss_fn(s):
        # the calls loss_and_grads makes, so the loss has the same bits; the
        # question branch reruns only when an embed.* or gru.* byte moved
        key = _encoder_bytes(s, encoder)
        if key != encoded[0]:
            encoded[:] = key, mdl.question_branch(s, tokens)
        caches = mdl.head(cfg, s, feats, encoded[1], "train")
        return xent(caches["logits"], targets)

    return loss_fn, store, grads


def check_full_model(variant: str, rng, batch: int = 2) -> GradCheckReport:
    return grad_check(*_full_model_case(variant, rng, batch))


def _side_by_side(first, second):
    """Return (first(), second()), running first in a forked child on two CPUs.

    The child pipes back its pickled result, or the exception it raised, and
    leaves by os._exit, so it never flushes this process's stdio buffers.  It
    is reaped before this returns, and killed first if second raised.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or affinity is None or len(affinity(0)) < 2:
        return first(), second()
    read_fd, write_fd = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            os.close(read_fd)
            try:
                outcome = True, first()
            except BaseException as e:
                outcome = False, e
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            here = second()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if not data:
        raise ChildProcessError("the forked oracle sweep ended without a report")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value, here


def run_oracle_suite(seed: int = 0) -> dict:
    """Run every oracle once; returns a JSON-ready report.

    The two full-model sweeps run side by side (_side_by_side); the instances
    are drawn in report order, so the report does not depend on the CPU count.
    """
    rng = np.random.default_rng(seed)
    reports = {
        "activation.sigmoid": check_activation("sigmoid", rng),
        "activation.tanh": check_activation("tanh", rng),
        "activation.relu": check_activation("relu", rng),
        "softmax_xent": check_softmax_xent(rng),
        "batchnorm": check_batchnorm(rng),
        "embed": check_embed(rng),
        "gru_encode": check_gru(rng),
        "dyn_layer": check_dyn_layer(rng),
        "projection+dyn_layer": check_projection_with_dyn(rng),
    }
    dppnet = _full_model_case("dppnet", rng)
    reports["model.dppnet"], reports["model.concat"] = _side_by_side(
        lambda: grad_check(*dppnet), lambda: check_full_model("concat", rng))
    modules = [{"module": name, "passed": r.passed, "max_rel_err": r.max_rel_err,
                "tolerance": r.tolerance} for name, r in reports.items()]
    return {"passed": all(m["passed"] for m in modules), "seed": seed, "modules": modules}
