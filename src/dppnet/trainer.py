"""Training loop: Adam with global-norm clipping, early stopping, staged
adapter unfreezing, and permanent encoder freezing on overfit.

Everything is seeded and reduction orders are fixed, so two runs with the
same seed produce bit-identical logs at 64-bit precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from .config import RunConfig, TrainSchedule
from .data import (
    AnswerSpace, QAExample, Vocabulary, build_vocab, length_batches, length_buckets,
)
from .encoder import load_pretrained
from .errors import CheckpointError, ConfigError, DataFormatError
from .tensor import ParamStore


def clip_gradients(grads: dict, threshold: float):
    """Scale all gradients so the global L2 norm is at most threshold.

    Returns (grads, pre-clip norm); scaling happens only above the threshold.
    """
    if threshold <= 0:
        raise ConfigError("clip threshold must be > 0")
    sq = 0.0
    for g in grads.values():
        sq += float((g * g).sum())
    norm = math.sqrt(sq)
    if norm > threshold:
        scale = threshold / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads, norm


@dataclass
class AdamState:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_schedule(cls, schedule: TrainSchedule) -> "AdamState":
        return cls(lr=schedule.lr, beta1=schedule.beta1, beta2=schedule.beta2,
                   eps=schedule.adam_eps)


def adam_step(store: ParamStore, grads: dict, state: AdamState) -> None:
    """One bias-corrected moment update over every updatable parameter.

    Frozen and non-trainable parameters are untouched: values and moments.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name in store.updatable_names():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != store[name].shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter {name!r} {store[name].shape}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(store[name])
            state.v[name] = np.zeros_like(store[name])
        v = state.v[name]
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        state.m[name], state.v[name] = m, v
        store[name] = store[name] - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


@dataclass
class EpochDecision:
    improved: bool
    stop: bool
    unfreeze_adapter: bool
    freeze_encoder: bool


class ScheduleController:
    """Pure early-stop / unfreeze / overfit-freeze rule, fed one epoch at a time.

    Staleness counts epochs since the best validation accuracy; the adapter
    unfreezes once staleness reaches unfreeze_patience (staged policy only),
    the encoder freezes for good after overfit_epochs consecutive epochs with
    train - val accuracy above overfit_gap, and training stops at patience.
    """

    def __init__(self, schedule: TrainSchedule, adapter_policy: str = "staged"):
        if adapter_policy not in ("staged", "never"):
            raise ConfigError(f"unknown adapter policy {adapter_policy!r}")
        self.schedule = schedule
        self.adapter_policy = adapter_policy
        self.adapter_frozen = True
        self.encoder_frozen = False
        self.best_val = -math.inf
        self.best_epoch = 0
        self.stale = 0
        self.overfit_run = 0

    def update(self, epoch: int, train_acc: float, val_acc: float) -> EpochDecision:
        improved = val_acc > self.best_val
        if improved:
            self.best_val = val_acc
            self.best_epoch = epoch
            self.stale = 0
        else:
            self.stale += 1
        unfreeze = (
            self.adapter_policy == "staged"
            and self.adapter_frozen
            and self.stale >= self.schedule.unfreeze_patience
        )
        if unfreeze:
            self.adapter_frozen = False
        if train_acc - val_acc > self.schedule.overfit_gap:
            self.overfit_run += 1
        else:
            self.overfit_run = 0
        freeze_enc = not self.encoder_frozen and self.overfit_run >= self.schedule.overfit_epochs
        if freeze_enc:
            self.encoder_frozen = True
        return EpochDecision(
            improved=improved,
            stop=self.stale >= self.schedule.patience,
            unfreeze_adapter=unfreeze,
            freeze_encoder=freeze_enc,
        )


@dataclass
class EncodedDataset:
    features: np.ndarray  # B x F
    token_ids: list  # list of int lists, true lengths
    targets: np.ndarray  # class index, -1 for answers outside the space


def encode_dataset(examples: list[QAExample], vocab: Vocabulary,
                   answers: AnswerSpace, precision: str) -> EncodedDataset:
    if not examples:
        raise DataFormatError("empty dataset")
    dims = {ex.features.shape[-1] for ex in examples}
    if len(dims) != 1:
        raise DataFormatError(f"inconsistent feature dims in dataset: {sorted(dims)}")
    feats = np.stack([np.asarray(ex.features, dtype=np.float64) for ex in examples])
    if precision == "f32":
        feats = feats.astype(np.float32)
    ids = [vocab.encode_question(ex.question) for ex in examples]
    targets = np.array(
        [answers.class_of(ex.answers[0]) if answers.class_of(ex.answers[0]) is not None else -1
         for ex in examples],
        dtype=np.int64,
    )
    return EncodedDataset(features=feats, token_ids=ids, targets=targets)


def train_batches(data: EncodedDataset, batch_size: int, rng: np.random.Generator):
    """Shuffled equal-length batches; singleton batches are dropped because
    train-mode batch norm needs two rows."""
    batches = []
    for rows in length_buckets(data.token_ids).values():
        rows = rows[rng.permutation(len(rows))]
        for start in range(0, len(rows), batch_size):
            chunk = rows[start : start + batch_size]
            if len(chunk) >= 2:
                batches.append(chunk)
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def eval_batches(data: EncodedDataset, batch_size: int):
    return length_batches(data.token_ids, batch_size)


def _gather(data: EncodedDataset, rows: np.ndarray):
    tokens = np.asarray([data.token_ids[i] for i in rows], dtype=np.int64)
    return data.features[rows], tokens, data.targets[rows]


def evaluate(cfg, store: ParamStore, data: EncodedDataset, batch_size: int = 256) -> float:
    """Plain accuracy in eval mode; fixed example order, batch-size invariant."""
    correct = 0
    for rows in eval_batches(data, batch_size):
        feats, tokens, targets = _gather(data, rows)
        preds = mdl.predict_classes(cfg, store, feats, tokens)
        correct += int((preds == targets).sum())
    return correct / len(data.targets)


@dataclass
class TrainResult:
    run_config: RunConfig
    store: ParamStore
    vocab: Vocabulary
    answers: AnswerSpace
    log: list
    best_val_acc: float
    best_epoch: int
    epochs_run: int
    aborted: bool = False

    @property
    def epoch_losses(self) -> list[float]:
        return [entry["train_loss"] for entry in self.log]


def _adapter_policy(variant: str) -> str:
    # the frozen-trunk ablations never unfreeze; the full model and the
    # concat baseline follow the staged schedule
    return "never" if variant in ("cnn-fixed", "rand-gru") else "staged"


def train(run_config: RunConfig, train_examples, val_examples,
          progress=None) -> TrainResult:
    """Run the full schedule; returns the best-validation checkpoint and log.

    The adapter starts frozen for every variant.  A non-finite training loss
    aborts the run, keeping the best checkpoint seen so far.
    """
    from dataclasses import replace

    cfg = run_config.model
    schedule = run_config.train
    precision = run_config.precision

    pretrained = None
    if (
        run_config.pretrained_encoder is not None
        and run_config.pretrained_policy != "none"
        and cfg.variant != "rand-gru"
    ):
        from pathlib import Path

        from . import checkpoint as ckpt

        required = run_config.pretrained_policy == "required"
        path = Path(run_config.pretrained_encoder)
        if not (path / ckpt.MANIFEST_NAME).exists():
            if required:
                raise CheckpointError(f"pretrained encoder required but not found at {path}")
            pretrained = None  # optional and absent: fall back to random init
        else:
            pretrained = load_pretrained(path, required=required)
    elif run_config.pretrained_policy == "required" and cfg.variant != "rand-gru":
        raise ConfigError("pretrained_policy is 'required' but no encoder path given")

    if pretrained is not None and pretrained[2] is not None:
        vocab = Vocabulary.from_mapping(pretrained[2])
        answers = AnswerSpace.from_examples(train_examples)
    else:
        vocab, answers = build_vocab(train_examples)
        if pretrained is not None and pretrained[0].shape[0] != len(vocab):
            raise CheckpointError(
                f"pretrained encoder has {pretrained[0].shape[0]} embedding rows but no "
                f"vocab.json, and the training vocabulary has {len(vocab)} entries; "
                f"token ids cannot be aligned"
            )

    feature_dim = int(np.asarray(train_examples[0].features).shape[-1])
    cfg = replace(
        cfg,
        feature_dim=cfg.feature_dim or feature_dim,
        num_answers=cfg.num_answers or len(answers),
        vocab_size=cfg.vocab_size or len(vocab),
    )
    if pretrained is not None:
        table, gru, _ = pretrained
        cfg = replace(
            cfg,
            embed_dim=table.shape[1],
            hidden_dim=gru.hidden_dim,
            vocab_size=table.shape[0],
            gru_bias=gru.has_bias,
        )
    run_config = replace(run_config, model=cfg)

    store = mdl.init_params(cfg, precision, seed=schedule.seed)
    if pretrained is not None:
        table, gru, _ = pretrained
        store["embed.table"] = table
        for name in ("w_r", "w_z", "w_h", "u_r", "u_z", "u_h"):
            store[f"gru.{name}"] = getattr(gru, name)
        if gru.has_bias:
            for name in ("b_r", "b_z", "b_h"):
                store[f"gru.{name}"] = getattr(gru, name)

    train_data = encode_dataset(train_examples, vocab, answers, precision)
    val_data = encode_dataset(val_examples, vocab, answers, precision)
    if (train_data.targets < 0).any():
        raise DataFormatError("training split contains answers outside its own answer space")

    controller = ScheduleController(schedule, _adapter_policy(cfg.variant))
    store.freeze(mdl.ADAPTER_PREFIX)
    adam = AdamState.for_schedule(schedule)
    rng = np.random.default_rng(schedule.seed)

    best_values = store.copy_values()
    best_val_acc = -math.inf
    best_epoch = 0
    log = []
    aborted = False
    epochs_run = 0

    for epoch in range(1, schedule.max_epochs + 1):
        epochs_run = epoch
        loss_sum = 0.0
        seen = 0
        correct = 0
        for rows in train_batches(train_data, schedule.batch_size, rng):
            feats, tokens, targets = _gather(train_data, rows)
            try:
                loss, logits, grads = mdl.loss_and_grads(
                    cfg, store, feats, tokens, targets, mode="train", update_running=True
                )
            except FloatingPointError:
                aborted = True
                break
            if not math.isfinite(loss):
                aborted = True
                break
            loss_sum += loss * len(rows)
            seen += len(rows)
            correct += int((logits.argmax(axis=1) == targets).sum())
            grads, _ = clip_gradients(grads, schedule.clip_threshold)
            adam_step(store, grads, adam)
        if aborted:
            break
        train_loss = loss_sum / seen
        train_acc = correct / seen
        val_acc = evaluate(cfg, store, val_data)
        log.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "train_acc": train_acc,
                "val_acc": val_acc,
                "lr": schedule.lr,
                "frozen": store.frozen_names(),
            }
        )
        if progress is not None:
            progress(log[-1])
        decision = controller.update(epoch, train_acc, val_acc)
        if decision.improved:
            best_values = store.copy_values()
            best_val_acc = val_acc
            best_epoch = epoch
        if decision.unfreeze_adapter:
            store.unfreeze(mdl.ADAPTER_PREFIX)
        if decision.freeze_encoder:
            for prefix in mdl.ENCODER_PREFIXES:
                store.freeze(prefix)
        if decision.stop:
            break

    store.load_values(best_values)
    return TrainResult(
        run_config=run_config,
        store=store,
        vocab=vocab,
        answers=answers,
        log=log,
        best_val_acc=best_val_acc if best_val_acc > -math.inf else 0.0,
        best_epoch=best_epoch,
        epochs_run=epochs_run,
        aborted=aborted,
    )


def linear_probe_accuracy(train_examples, test_examples, *, steps: int = 300,
                          lr: float = 0.05, seed: int = 0) -> float:
    """Accuracy of a question-blind linear softmax classifier on the features.

    Serves as the floor certifying that a task actually needs the question.
    """
    from .tensor import softmax_xent

    vocab, answers = build_vocab(train_examples)
    tr = encode_dataset(train_examples, vocab, answers, "f64")
    te = encode_dataset(test_examples, vocab, answers, "f64")
    rng = np.random.default_rng(seed)
    f = tr.features.shape[1]
    c = len(answers)
    store = ParamStore("f64")
    store.add("w", rng.uniform(-1, 1, size=(c, f)) / np.sqrt(f))
    store.add("b", np.zeros(c))
    adam = AdamState(lr=lr)
    for _ in range(steps):
        logits = tr.features @ store["w"].T + store["b"]
        _, dlogits = softmax_xent(logits, tr.targets)
        grads = {"w": dlogits.T @ tr.features, "b": dlogits.sum(axis=0)}
        adam_step(store, grads, adam)
    preds = (te.features @ store["w"].T + store["b"]).argmax(axis=1)
    return float((preds == te.targets).mean())
