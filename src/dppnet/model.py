"""Model assembly: the dynamic-parameter answerer and its concat baseline.

Both variants share a small trainable feature adapter (standing in for a CNN
trunk) and the question encoder.  The dynamic variant routes the question
through a candidate-weight projection into the hashed dynamic layer; the
concat baseline mixes concatenated features through plain affine layers sized
to match the dynamic variant's parameter count.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import encoder as enc
from .config import ModelConfig, RunConfig
from .data import AnswerSpace, Vocabulary, length_batches
from .dynlayer import dyn_backward, dyn_forward
from .errors import CheckpointError, ConfigError, ShapeError
from .tensor import (
    BatchNormState,
    ParamStore,
    activation,
    activation_backward,
    batchnorm,
    batchnorm_backward,
    matmul,
    softmax,
    softmax_xent,
)

ADAPTER_PREFIX = "adapter"
ENCODER_PREFIXES = ("embed", "gru")


def concat_hidden_dim(cfg: ModelConfig) -> int:
    """Mixer width that matches the concat variant's parameter count to the
    dynamic variant's: the mixer replaces the candidate projection and the
    dynamic bias."""
    if cfg.concat_hidden is not None:
        return cfg.concat_hidden
    n, h, m, k = cfg.adapter_out, cfg.hidden_dim, cfg.dyn_out, cfg.num_candidates
    return max(1, round(k * h / (n + h + m + 1)))


def _uniform(rng, shape, fan_in, dtype):
    a = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-a, a, size=shape).astype(dtype, copy=False)


def init_params(cfg: ModelConfig, precision: str, seed: int) -> ParamStore:
    """Build all parameters for the configured variant.

    Draw order is fixed so variants sharing a sub-network start from identical
    values for identical seeds.
    """
    cfg.require_resolved()
    rng = np.random.default_rng(seed)
    store = ParamStore(precision)
    dt = np.float64  # draws at f64; store casts per its precision
    f, a, n = cfg.feature_dim, cfg.adapter_hidden, cfg.adapter_out
    h, e, m = cfg.hidden_dim, cfg.embed_dim, cfg.dyn_out
    store.add("adapter.w1", _uniform(rng, (a, f), f, dt))
    store.add("adapter.b1", np.zeros(a))
    store.add("adapter.w2", _uniform(rng, (n, a), a, dt))
    store.add("adapter.b2", np.zeros(n))
    dyn_role = "static" if cfg.variant == "concat" else "dynamic-producing"
    store.add("embed.table", _uniform(rng, (cfg.vocab_size, e), e, dt), role=dyn_role)
    for name in ("w_r", "w_z", "w_h"):
        store.add(f"gru.{name}", _uniform(rng, (h, e), e, dt), role=dyn_role)
    for name in ("u_r", "u_z", "u_h"):
        store.add(f"gru.{name}", _uniform(rng, (h, h), h, dt), role=dyn_role)
    if cfg.gru_bias:
        for name in ("b_r", "b_z", "b_h"):
            store.add(f"gru.{name}", np.zeros(h), role=dyn_role)
    if cfg.variant == "concat":
        d = concat_hidden_dim(cfg)
        store.add("mix.w1", _uniform(rng, (d, n + h), n + h, dt))
        store.add("mix.b1", np.zeros(d))
        store.add("mix.w2", _uniform(rng, (m, d), d, dt))
        store.add("mix.b2", np.zeros(m))
    else:
        store.add("proj.w", _uniform(rng, (cfg.num_candidates, h), h, dt), role="dynamic-producing")
        store.add("dyn.b", np.zeros(m))
    store.add("bn.gamma", np.ones(m))
    store.add("bn.beta", np.zeros(m))
    store.add("bn.running_mean", np.zeros(m), trainable=False)
    store.add("bn.running_var", np.ones(m), trainable=False)
    store.add("cls.w", _uniform(rng, (cfg.num_answers, m), m, dt))
    store.add("cls.b", np.zeros(cfg.num_answers))
    return store


def _bn_state(cfg: ModelConfig, store: ParamStore) -> BatchNormState:
    return BatchNormState(
        gamma=store["bn.gamma"],
        beta=store["bn.beta"],
        running_mean=store["bn.running_mean"],
        running_var=store["bn.running_var"],
        momentum=cfg.bn_momentum,
        eps=cfg.bn_eps,
    )


def _adapter_forward(store, features):
    h1 = activation("relu", matmul(features, store["adapter.w1"].T) + store["adapter.b1"])
    f_in = activation("relu", matmul(h1, store["adapter.w2"].T) + store["adapter.b2"])
    return f_in, h1


def _adapter_backward(store, features, h1, f_in, d_fin, grads):
    da2 = activation_backward("relu", f_in, d_fin)
    grads["adapter.w2"] = matmul(da2.T, h1)
    grads["adapter.b2"] = da2.sum(axis=0)
    dh1 = matmul(da2, store["adapter.w2"])
    da1 = activation_backward("relu", h1, dh1)
    grads["adapter.w1"] = matmul(da1.T, features)
    grads["adapter.b1"] = da1.sum(axis=0)


def forward(cfg: ModelConfig, store: ParamStore, features, tokens, mode="eval",
            update_running=False):
    """Full forward pass; returns (answer distribution, caches).

    `tokens` is a B x T batch of equal-length token id sequences; `features`
    is B x F.  In train mode batch statistics normalize the pre-classifier
    activations and, when update_running is set, fold into running stats.
    """
    cfg.require_resolved()
    features = np.atleast_2d(np.asarray(features, dtype=store["adapter.w1"].dtype))
    tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
    if features.shape[0] != tokens.shape[0]:
        raise ShapeError(
            f"batch mismatch: {features.shape[0]} feature rows, {tokens.shape[0]} questions"
        )
    if features.shape[1] != cfg.feature_dim:
        raise ShapeError(f"feature dim {features.shape[1]} != configured {cfg.feature_dim}")
    caches = {"features": features, "tokens": tokens, "mode": mode}

    f_in, h1 = _adapter_forward(store, features)
    caches["h1"], caches["f_in"] = h1, f_in

    x_seq = enc.embed(tokens, store["embed.table"])
    gru_params = enc.GruParams.from_store(store)
    h_last, step_caches = enc.gru_encode(x_seq, gru_params)
    caches["gru"] = step_caches
    caches["h_last"] = h_last

    bn = _bn_state(cfg, store)
    if cfg.variant == "concat":
        joint = np.concatenate([f_in, h_last], axis=1)
        z1 = activation("relu", matmul(joint, store["mix.w1"].T) + store["mix.b1"])
        z2 = matmul(z1, store["mix.w2"].T) + store["mix.b2"]
        caches["joint"], caches["z1"] = joint, z1
        pre_cls = z2
    else:
        candidates = enc.predict_candidates(h_last, store["proj.w"])
        caches["candidates"] = candidates
        pre_cls = dyn_forward(f_in, candidates, store["dyn.b"], cfg.hash_spec())

    y_bn, bn_cache = batchnorm(pre_cls, bn, mode, update_running=update_running)
    if update_running and mode == "train":
        store["bn.running_mean"] = bn.running_mean
        store["bn.running_var"] = bn.running_var
    r_out = activation("relu", y_bn)
    logits = matmul(r_out, store["cls.w"].T) + store["cls.b"]
    caches["bn_cache"], caches["r_out"], caches["logits"] = bn_cache, r_out, logits
    return softmax(logits), caches


def backward(cfg: ModelConfig, store: ParamStore, caches, dlogits) -> dict:
    """Gradients of the loss w.r.t. every trainable parameter."""
    grads: dict[str, np.ndarray] = {}
    r_out = caches["r_out"]
    grads["cls.w"] = matmul(dlogits.T, r_out)
    grads["cls.b"] = dlogits.sum(axis=0)
    d_rout = matmul(dlogits, store["cls.w"])
    d_bn = activation_backward("relu", r_out, d_rout)
    d_pre, grads["bn.gamma"], grads["bn.beta"] = batchnorm_backward(caches["bn_cache"], d_bn)

    if cfg.variant == "concat":
        z1, joint = caches["z1"], caches["joint"]
        grads["mix.w2"] = matmul(d_pre.T, z1)
        grads["mix.b2"] = d_pre.sum(axis=0)
        dz1 = activation_backward("relu", z1, matmul(d_pre, store["mix.w2"]))
        grads["mix.w1"] = matmul(dz1.T, joint)
        grads["mix.b1"] = dz1.sum(axis=0)
        d_joint = matmul(dz1, store["mix.w1"])
        n = cfg.adapter_out
        d_fin, dh_last = d_joint[:, :n], d_joint[:, n:]
    else:
        d_fin, d_cand, grads["dyn.b"] = dyn_backward(
            caches["f_in"], caches["candidates"], d_pre, cfg.hash_spec()
        )
        dh_last, grads["proj.w"] = enc.predict_candidates_backward(
            caches["h_last"], store["proj.w"], d_cand
        )

    gru_params = enc.GruParams.from_store(store)
    dx_seq, gru_grads = enc.gru_encode_backward(caches["gru"], gru_params, dh_last)
    for k, v in gru_grads.items():
        grads[f"gru.{k}"] = v
    grads["embed.table"] = enc.embed_backward(
        caches["tokens"], dx_seq, store["embed.table"].shape[0]
    )
    _adapter_backward(store, caches["features"], caches["h1"], caches["f_in"], d_fin, grads)
    return grads


def loss_and_grads(cfg: ModelConfig, store: ParamStore, features, tokens, targets,
                   mode="train", update_running=False):
    """Mean cross-entropy and all parameter gradients; returns (loss, logits, grads)."""
    _, caches = forward(cfg, store, features, tokens, mode, update_running)
    loss, dlogits = softmax_xent(caches["logits"], targets)
    grads = backward(cfg, store, caches, dlogits)
    return loss, caches["logits"], grads


def predict_classes(cfg: ModelConfig, store: ParamStore, features, tokens,
                    choice_mask=None) -> np.ndarray:
    """Most probable answer class per example; ties break to the lowest index.

    choice_mask, when given, restricts the argmax to a B x num_answers boolean
    candidate set (multiple-choice evaluation); a row with no allowed class
    yields -1.
    """
    probs, _ = forward(cfg, store, features, tokens, mode="eval")
    if choice_mask is None:
        return probs.argmax(axis=1)
    masked = np.where(choice_mask, probs, -np.inf)
    out = masked.argmax(axis=1)
    out[~choice_mask.any(axis=1)] = -1
    return out


def count_trainable(cfg: ModelConfig) -> int:
    cfg.require_resolved()
    store = init_params(cfg, "f64", seed=0)
    return sum(store[n].size for n in store.names() if store.is_trainable(n))


def parameter_counts(cfg: ModelConfig) -> dict:
    """Trainable parameter counts of the dynamic variant and its concat twin."""
    from dataclasses import replace

    dyn = count_trainable(replace(cfg, variant="dppnet"))
    con = count_trainable(replace(cfg, variant="concat"))
    return {
        "dppnet": dyn,
        "concat": con,
        "concat_hidden": concat_hidden_dim(cfg),
        "ratio": con / dyn,
    }


def encode_question(cfg: ModelConfig, store: ParamStore, token_ids) -> np.ndarray:
    """Question embedding (the encoder's final hidden state) for one question."""
    tokens = np.asarray(token_ids, dtype=np.int64)[None, :]
    x_seq = enc.embed(tokens, store["embed.table"])
    h_last, _ = enc.gru_encode(x_seq, enc.GruParams.from_store(store))
    return h_last[0]


def encode_questions(cfg: ModelConfig, store: ParamStore, token_id_lists) -> np.ndarray:
    """N x H question embeddings in input order, one encoder call per
    equal-length batch of at most 256 questions."""
    table = store["embed.table"]
    params = enc.GruParams.from_store(store)
    out = np.empty((len(token_id_lists), params.hidden_dim), dtype=table.dtype)
    for rows in length_batches(token_id_lists, 256):
        tokens = np.asarray([token_id_lists[i] for i in rows], dtype=np.int64)
        # the trace is dropped at once, so two buckets' traces never coexist
        out[rows] = enc.gru_encode(enc.embed(tokens, table), params)[0]
    return out


def retrieve_similar(cfg: ModelConfig, store: ParamStore, vocab: Vocabulary,
                     query: str, corpus: list[str], top_k: int) -> list[dict]:
    """The top_k corpus questions ranked by cosine similarity of their embeddings.

    Descending, stable order; zero-norm embeddings score 0.
    """
    if not corpus:
        raise ConfigError("retrieval corpus is empty")
    if top_k < 1:
        raise ConfigError(f"--top-k must be >= 1, got {top_k}")
    hq = encode_question(cfg, store, vocab.encode_question(query))
    emb = encode_questions(cfg, store, [vocab.encode_question(q) for q in corpus])
    denom = np.linalg.norm(emb, axis=1) * np.linalg.norm(hq)
    sims = np.divide(emb @ hq, denom, out=np.zeros(len(corpus)), where=denom > 0)
    order = np.argsort(-sims, kind="stable")[:top_k]
    return [
        {"rank": r + 1, "question": corpus[i], "similarity": float(sims[i]), "index": int(i)}
        for r, i in enumerate(order)
    ]


# --- whole-model checkpointing ---

CONFIG_NAME = "config.json"
VOCAB_NAME = "vocab.json"
ANSWERS_NAME = "answers.json"


def save_model(directory, run_config: RunConfig, store: ParamStore,
               vocab: Vocabulary, answers: AnswerSpace) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ckpt.save_params(store, directory)
    run_config.save(directory / CONFIG_NAME)
    (directory / VOCAB_NAME).write_text(json.dumps(vocab.as_dict(), indent=1))
    (directory / ANSWERS_NAME).write_text(json.dumps(answers.as_list(), indent=1))


def load_model(directory):
    """Returns (run_config, store, vocab, answers)."""
    directory = Path(directory)
    for name in (CONFIG_NAME, VOCAB_NAME, ANSWERS_NAME):
        if not (directory / name).exists():
            raise CheckpointError(f"checkpoint {directory} missing {name}")
    run_config = RunConfig.from_file(directory / CONFIG_NAME)
    store = ckpt.load_params(directory)
    vocab = Vocabulary.from_mapping(json.loads((directory / VOCAB_NAME).read_text()))
    answers = AnswerSpace(json.loads((directory / ANSWERS_NAME).read_text()))
    cfg = run_config.model
    if cfg.num_answers != len(answers):
        raise CheckpointError(
            f"checkpoint inconsistent: config lists {cfg.num_answers} answers, "
            f"answer file has {len(answers)}"
        )
    if cfg.vocab_size != len(vocab):
        raise CheckpointError(
            f"checkpoint inconsistent: config lists vocab {cfg.vocab_size}, "
            f"vocab file has {len(vocab)}"
        )
    return run_config, store, vocab, answers
