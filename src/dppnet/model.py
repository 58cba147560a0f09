"""Model assembly: the dynamic-parameter answerer and its concat baseline.

Both variants share a small trainable feature adapter (standing in for a CNN
trunk) and the question encoder.  The dynamic variant routes the question
through a candidate-weight projection into the hashed dynamic layer; the
concat baseline mixes concatenated features through plain affine layers sized
to match the dynamic variant's parameter count.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import encoder as enc
from .config import ModelConfig, RunConfig
from .data import AnswerSpace, Vocabulary, length_batches
from .dynlayer import dyn_backward, dyn_forward, group_rows
from .errors import CheckpointError, ConfigError, ShapeError
from .jsonio import read_json
from .tensor import (
    BatchNormState,
    ParamStore,
    activation,
    activation_backward,
    batchnorm,
    batchnorm_backward,
    matmul,
    np_dtype,
    softmax,
    softmax_xent,
)

ADAPTER_PREFIX = "adapter"
ENCODER_PREFIXES = ("embed", "gru")


def concat_hidden_dim(cfg: ModelConfig) -> int:
    """Mixer width that matches the concat variant's parameter count to the
    dynamic variant's: the mixer replaces the candidate projection and the
    dynamic bias."""
    n, h, m, k = cfg.adapter_out, cfg.hidden_dim, cfg.dyn_out, cfg.num_candidates
    return max(1, round(k * h / (n + h + m + 1)))


def _layout(cfg: ModelConfig):
    """Every parameter of the configured variant, in draw order, as
    (name, shape, init, trainable).

    init is either a fan-in, for a uniform draw in +-1/sqrt(fan_in), or the
    float that fills the tensor without a draw.
    """
    f, a, n = cfg.feature_dim, cfg.adapter_hidden, cfg.adapter_out
    h, e, m = cfg.hidden_dim, cfg.embed_dim, cfg.dyn_out
    yield "adapter.w1", (a, f), f, True
    yield "adapter.b1", (a,), 0.0, True
    yield "adapter.w2", (n, a), a, True
    yield "adapter.b2", (n,), 0.0, True
    # the parameter prediction network: the question encoder and, outside
    # concat, proj.w, whose outputs are the candidate weights
    yield "embed.table", (cfg.vocab_size, e), e, True
    for name in ("w_r", "w_z", "w_h"):
        yield f"gru.{name}", (h, e), e, True
    for name in ("u_r", "u_z", "u_h"):
        yield f"gru.{name}", (h, h), h, True
    if cfg.gru_bias:
        for name in ("b_r", "b_z", "b_h"):
            yield f"gru.{name}", (h,), 0.0, True
    if cfg.variant == "concat":
        d = concat_hidden_dim(cfg)
        yield "mix.w1", (d, n + h), n + h, True
        yield "mix.b1", (d,), 0.0, True
        yield "mix.w2", (m, d), d, True
        yield "mix.b2", (m,), 0.0, True
    else:
        yield "proj.w", (cfg.num_candidates, h), h, True
        yield "dyn.b", (m,), 0.0, True
    yield "bn.gamma", (m,), 1.0, True
    yield "bn.beta", (m,), 0.0, True
    yield "bn.running_mean", (m,), 0.0, False
    yield "bn.running_var", (m,), 1.0, False
    yield "cls.w", (cfg.num_answers, m), m, True
    yield "cls.b", (cfg.num_answers,), 0.0, True


# Above this a store is refused before it is allocated.  A training step holds
# up to seven vectors that size: the buffer, the best epoch's copy, Adam's four
# rows (moments, gathered gradient, scratch) and backward's own gradients.
MAX_PARAM_BYTES = 2**31

WIDTHS = ("feature_dim", "adapter_hidden", "adapter_out", "dyn_out", "num_candidates",
          "hidden_dim", "embed_dim", "num_answers", "vocab_size")


def init_params(cfg: ModelConfig, precision: str, seed: int) -> ParamStore:
    """Build all parameters for the configured variant, in one buffer.

    Draw order is fixed so variants sharing a sub-network start from identical
    values for identical seeds.  A model over MAX_PARAM_BYTES is a ConfigError.
    """
    cfg.require_resolved()
    layout = list(_layout(cfg))
    count = sum(math.prod(shape) for _, shape, _, _ in layout)
    if count * np_dtype(precision).itemsize > MAX_PARAM_BYTES:
        widths = ", ".join(f"{w}={getattr(cfg, w)}" for w in WIDTHS)
        raise ConfigError(
            f"{cfg.variant} model with {widths} has {count:,} {precision} parameters, "
            f"over the {MAX_PARAM_BYTES:,}-byte limit"
        )
    rng = np.random.default_rng(seed)
    store = ParamStore(precision, [(name, shape, trainable)
                                   for name, shape, _, trainable in layout])
    for name, shape, init, _ in layout:
        if isinstance(init, float):
            store[name].fill(init)
        else:  # drawn at f64; the store casts per its precision
            bound = 1.0 / np.sqrt(init)
            store[name][...] = rng.uniform(-bound, bound, size=shape)
    return store


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


def _distinct(sequences) -> tuple[list[tuple], list[int]]:
    """The distinct sequences, as tuples in first-occurrence order, and each
    input sequence's index among them."""
    index: dict[tuple, int] = {}
    inverse = [index.setdefault(tuple(seq), len(index)) for seq in sequences]
    return list(index), inverse


def question_branch(store: ParamStore, tokens: np.ndarray):
    """Embedding + GRU over a B x T token batch; returns (h_last, trace, question).

    The predicted weights depend on the question alone, so the encoder runs
    once per distinct token row, in first-occurrence order: h_last and trace
    cover those rows.  question is (the distinct token rows, each batch row's
    index among them, those indices grouped by dynlayer.group_rows or None
    when every row is its own question in order); a batch of one skips the
    check.  It reads only the embed.* and gru.* tensors.
    """
    inverse, groups = np.arange(len(tokens)), None
    if len(tokens) > 1:
        distinct, rows = _distinct(tokens.tolist())
        if len(distinct) < len(tokens):
            tokens, inverse = np.asarray(distinct, dtype=np.int64), np.asarray(rows)
            groups = group_rows(inverse, len(tokens))
    x_seq = enc.embed(tokens, store["embed.table"])
    h_last, trace = enc.gru_encode(x_seq, enc.GruParams.from_store(store))
    return h_last, trace, (tokens, inverse, groups)


def head(cfg: ModelConfig, store: ParamStore, features, encoding, mode: str) -> dict:
    """Everything after the question encoder; returns the caches, logits included.

    `encoding` is question_branch's (h_last, trace, question) for the same
    batch.  The adapter, the candidate projection + dynamic layer (or the
    concat mixer), batch norm and the classifier run here; the store is only
    read.  The projection runs once per distinct question, and the dynamic
    layer takes question's row grouping to gather each question's weights
    once for all of its rows; the concat mixer gets each row's own copy of
    its question's state.  caches["shared"] holds question for backward, and
    caches["candidates"] has one row per example.
    """
    h_last, trace, (_, inverse, groups) = encoding
    caches = {"features": features, "gru": trace, "h_last": h_last, "shared": encoding[2]}
    f_in, h1 = _adapter_forward(store, features)
    caches["h1"], caches["f_in"] = h1, f_in

    if cfg.variant == "concat":
        joint = np.concatenate([f_in, h_last[inverse]], axis=1)
        z1 = activation("relu", matmul(joint, store["mix.w1"].T) + store["mix.b1"])
        z2 = matmul(z1, store["mix.w2"].T) + store["mix.b2"]
        caches["joint"], caches["z1"] = joint, z1
        pre_cls = z2
    else:
        candidates = enc.predict_candidates(h_last, store["proj.w"])
        caches["question_candidates"] = candidates
        caches["candidates"] = candidates[inverse]
        pre_cls = dyn_forward(f_in, candidates, store["dyn.b"], cfg.hash_spec(),
                              questions=groups)

    bn = BatchNormState(store["bn.gamma"], store["bn.beta"], store["bn.running_mean"],
                        store["bn.running_var"], ModelConfig.bn_momentum, ModelConfig.bn_eps)
    y_bn, bn_cache, caches["bn_running"] = batchnorm(pre_cls, bn, mode)
    r_out = activation("relu", y_bn)
    logits = matmul(r_out, store["cls.w"].T) + store["cls.b"]
    caches["bn_cache"], caches["r_out"], caches["logits"] = bn_cache, r_out, logits
    return caches


def _batch(cfg: ModelConfig, store: ParamStore, features, tokens):
    """The (features, tokens) of a batch as validated 2-D arrays."""
    cfg.require_resolved()
    features = np.atleast_2d(np.asarray(features, dtype=store["adapter.w1"].dtype))
    tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
    if features.shape[0] != tokens.shape[0]:
        raise ShapeError(
            f"batch mismatch: {features.shape[0]} feature rows, {tokens.shape[0]} questions"
        )
    if features.shape[1] != cfg.feature_dim:
        raise ShapeError(f"feature dim {features.shape[1]} != configured {cfg.feature_dim}")
    return features, tokens


def forward(cfg: ModelConfig, store: ParamStore, features, tokens, mode="eval"):
    """Full forward pass, head(question_branch); returns (answer distribution, caches).

    `tokens` is a B x T batch of equal-length token id sequences; `features`
    is B x F.  In train mode batch statistics normalize the pre-classifier
    activations.  The store is only read: caches["bn_running"] is the
    (running_mean, running_var) pair after this batch, for the trainer to
    commit (in eval mode, the store's own pair).
    """
    features, tokens = _batch(cfg, store, features, tokens)
    caches = head(cfg, store, features, question_branch(store, tokens), mode)
    return softmax(caches["logits"]), caches


def backward(cfg: ModelConfig, store: ParamStore, caches, dlogits, frozen=()) -> dict:
    """Gradients of the loss w.r.t. the trainable tensors outside the frozen
    branches (name prefixes before the first dot), in the order they are
    formed, each with the bits it has when nothing is frozen.

    A frozen branch is not run: with the adapter frozen, the dynamic layer's
    input gradient (the concat mixer's adapter slice) and the adapter's
    backward; with the embedding and GRU frozen, the GRU's backward through
    time and the embedding scatter.
    """
    adapter = ADAPTER_PREFIX not in frozen
    encoder = not set(ENCODER_PREFIXES) <= set(frozen)
    grads: dict[str, np.ndarray] = {}
    r_out = caches["r_out"]
    grads["cls.w"] = matmul(dlogits.T, r_out)
    grads["cls.b"] = dlogits.sum(axis=0)
    d_rout = matmul(dlogits, store["cls.w"])
    d_bn = activation_backward("relu", r_out, d_rout)
    d_pre, grads["bn.gamma"], grads["bn.beta"] = batchnorm_backward(caches["bn_cache"], d_bn)

    tokens, inverse, groups = caches["shared"]
    if cfg.variant == "concat":
        z1, joint = caches["z1"], caches["joint"]
        grads["mix.w2"] = matmul(d_pre.T, z1)
        grads["mix.b2"] = d_pre.sum(axis=0)
        dz1 = activation_backward("relu", z1, matmul(d_pre, store["mix.w2"]))
        grads["mix.w1"] = matmul(dz1.T, joint)
        grads["mix.b1"] = dz1.sum(axis=0)
        w1, n = store["mix.w1"], cfg.adapter_out
        if adapter:
            d_fin = matmul(dz1, w1[:, :n])
        if encoder:
            # rows asking one question share its encoding, so their gradients
            # add up, in batch-row order, into that question's row
            dh_last = enc.embed_backward(inverse, matmul(dz1, w1[:, n:]), len(tokens))
    else:
        # d_candidates arrive summed per question
        d_fin, d_cand, grads["dyn.b"] = dyn_backward(
            caches["f_in"], caches["question_candidates"], d_pre, cfg.hash_spec(),
            questions=groups, d_features=adapter,
        )
        dh_last, grads["proj.w"] = enc.predict_candidates_backward(
            caches["h_last"], store["proj.w"], d_cand
        )

    if encoder:
        gru_params = enc.GruParams.from_store(store)
        dx_seq, gru_grads = enc.gru_encode_backward(caches["gru"], gru_params, dh_last)
        for k, v in gru_grads.items():
            grads[f"gru.{k}"] = v
        grads["embed.table"] = enc.embed_backward(tokens, dx_seq, store["embed.table"].shape[0])
    if adapter:
        _adapter_backward(store, caches["features"], caches["h1"], caches["f_in"], d_fin, grads)
    return {name: g for name, g in grads.items() if name.split(".")[0] not in frozen}


def loss_and_grads(cfg: ModelConfig, store: ParamStore, features, tokens, targets, mode="train",
                   frozen=()):
    """Mean cross-entropy and backward's gradients outside the frozen
    branches; returns (loss, caches, grads)."""
    _, caches = forward(cfg, store, features, tokens, mode)
    loss, dlogits = softmax_xent(caches["logits"], targets)
    grads = backward(cfg, store, caches, dlogits, frozen)
    return loss, caches, grads


def predict_classes(cfg: ModelConfig, store: ParamStore, features, tokens,
                    choice_mask=None) -> np.ndarray:
    """Most probable answer class per example, in eval mode; ties break to
    the lowest index.

    question_branch encodes each distinct question of the batch once.
    choice_mask, when given, restricts the argmax to a B x num_answers boolean
    candidate set (multiple-choice evaluation); a row with no allowed class
    yields -1.  A non-finite logit, which has no argmax, raises
    FloatingPointError.
    """
    features, tokens = _batch(cfg, store, features, tokens)
    logits = head(cfg, store, features, question_branch(store, tokens), "eval")["logits"]
    if not np.isfinite(logits).all():
        raise FloatingPointError("answer logits are not finite; the weights or features overflow")
    probs = softmax(logits)
    if choice_mask is None:
        return probs.argmax(axis=1)
    masked = np.where(choice_mask, probs, -np.inf)
    out = masked.argmax(axis=1)
    out[~choice_mask.any(axis=1)] = -1
    return out


def predict_dataset(cfg: ModelConfig, store: ParamStore, data, choice_mask=None) -> np.ndarray:
    """predict_classes over an encoded dataset (features, token_ids), in input order.

    One call per equal-length batch of at most 256 rows; choice_mask, when
    given, is N x num_answers and is applied row for row.
    """
    out = np.empty(len(data.token_ids), dtype=np.int64)
    for rows in length_batches(data.token_ids, 256):
        tokens = np.asarray([data.token_ids[i] for i in rows], dtype=np.int64)
        mask = None if choice_mask is None else choice_mask[rows]
        out[rows] = predict_classes(cfg, store, data.features[rows], tokens, mask)
    return out


def count_trainable(cfg: ModelConfig) -> int:
    cfg.require_resolved()
    return sum(math.prod(shape) for _, shape, _, trainable in _layout(cfg) if trainable)


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
    return encode_questions(cfg, store, [token_ids])[0]


def encode_questions(cfg: ModelConfig, store: ParamStore, token_id_lists) -> np.ndarray:
    """N x H question embeddings in input order.

    Each distinct token sequence is encoded once, in one encoder call per
    equal-length batch of at most 256 distinct sequences; repeats share its row.
    """
    distinct, inverse = _distinct(token_id_lists)
    u_h = store["gru.u_h"]
    emb = np.empty((len(distinct), u_h.shape[0]), dtype=u_h.dtype)
    for rows in length_batches(distinct, 256):
        tokens = np.asarray([distinct[i] for i in rows], dtype=np.int64)
        # the trace is dropped at once, so two buckets' traces never coexist
        emb[rows] = question_branch(store, tokens)[0]
    return emb[inverse]


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
    emb = encode_questions(cfg, store, vocab.encode_questions(corpus))
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
LOG_NAME = "log.jsonl"
CHECKPOINT_FILES = (ckpt.MANIFEST_NAME, ckpt.BLOB_NAME, CONFIG_NAME, VOCAB_NAME,
                    ANSWERS_NAME, LOG_NAME)


def save_model(directory, run_config: RunConfig, store: ParamStore,
               vocab: Vocabulary, answers: AnswerSpace, log=None) -> None:
    """Write a checkpoint, with log.jsonl holding the records of log when given.

    The files go to a sibling directory that then replaces directory whole,
    so a failure part way leaves the previous checkpoint as it was.
    """
    with ckpt.replacing(directory, CHECKPOINT_FILES) as new:
        ckpt.save_params(store, new)
        run_config.save(new / CONFIG_NAME)
        (new / VOCAB_NAME).write_text(json.dumps(vocab.as_dict(), indent=1))
        (new / ANSWERS_NAME).write_text(json.dumps(answers.as_list(), indent=1))
        if log is not None:
            (new / LOG_NAME).write_text("".join(json.dumps(entry) + "\n" for entry in log))


def load_model(directory):
    """Returns (run_config, store, vocab, answers)."""
    directory = Path(directory)
    for name in (CONFIG_NAME, VOCAB_NAME, ANSWERS_NAME):
        if not (directory / name).exists():
            raise CheckpointError(f"checkpoint {directory} missing {name}")
    run_config = RunConfig.from_file(directory / CONFIG_NAME)
    store = ckpt.load_params(directory)
    vocab = read_json(directory / VOCAB_NAME, CheckpointError, Vocabulary.from_mapping)
    answers = read_json(directory / ANSWERS_NAME, CheckpointError, AnswerSpace)
    cfg = run_config.model
    for name, count, file in (("num_answers", len(answers), ANSWERS_NAME),
                              ("vocab_size", len(vocab), VOCAB_NAME)):
        if getattr(cfg, name) != count:
            raise CheckpointError(f"checkpoint inconsistent: config.json's {name} is "
                                  f"{getattr(cfg, name)}, {file} holds {count}")
    check_layout(cfg, store, f"checkpoint {directory}")
    return run_config, store, vocab, answers


def check_layout(cfg: ModelConfig, tensors, where: str, prefixes=None) -> None:
    """A CheckpointError naming the first tensor by which tensors (a store or
    a name -> array mapping) are not exactly the configured model's, at its
    shapes; with prefixes, only the model's tensors under them count."""
    cfg.require_resolved()
    want = {name: shape for name, shape, _, _ in _layout(cfg)
            if prefixes is None or name.split(".")[0] in prefixes}
    for name in sorted(want.keys() | set(tensors)):
        got = tensors[name].shape if name in tensors else None
        if got != want.get(name):
            raise CheckpointError(f"{where} inconsistent: tensor {name!r} has shape {got}, "
                                  f"the configured model needs {want.get(name)}")


def load_encoder(directory):
    """A pretrained encoder: the embed.* and gru.* tensors of the params
    checkpoint in directory, by name, and its vocab.json's Vocabulary, or None
    without one.

    A directory that holds no checkpoint is a CheckpointError naming it, and
    so is one without the two matrices the encoder's widths are read from,
    embed.table and gru.w_r; train checks the rest with check_layout.
    """
    directory = Path(directory)
    store = ckpt.load_params(directory)
    tensors = {n: v for n, v in store.items() if n.split(".")[0] in ENCODER_PREFIXES}
    missing = [n for n in ("embed.table", "gru.w_r") if n not in tensors or tensors[n].ndim != 2]
    if missing:
        raise CheckpointError(f"encoder checkpoint {directory} missing tensors "
                              f"(or not matrices): {missing}")
    path = directory / VOCAB_NAME
    vocab = read_json(path, CheckpointError, Vocabulary.from_mapping) if path.exists() else None
    return tensors, vocab
