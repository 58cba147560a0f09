"""Training loop: Adam with global-norm clipping, early stopping, staged
adapter unfreezing, and permanent encoder freezing on overfit.

ScheduleController decides which branches a step leaves frozen, and
model.backward forms no gradient for them.  Each step hands the gradients it
does form to one call, adam_step.  It copies them into one vector laid out
like the store's buffer (AdamState.gather), then clips it and updates those
tensors in place: passes over the few runs of entries they fill, each one
IEEE operation of the per-tensor expressions in their order, so they keep the
bits of a per-tensor update.

Everything is seeded and reduction orders are fixed, so two runs with the
same seed produce bit-identical logs at 64-bit precision, apart from each
epoch record's wall-clock "timing", as long as both run at the same OpenBLAS
thread count: BLAS may order its sums differently at another count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import model as mdl
from .config import RunConfig, TrainSchedule
from .data import (
    AnswerSpace, QAExample, Vocabulary, build_vocab, length_batches, length_buckets,
)
from .errors import ConfigError, DataFormatError
from .tensor import ParamStore


class Gradients(dict):
    """Gradients by name, in the order given, as views of one vector, flat.

    runs are the merged (start, stop) stretches of flat they cover, in
    order; scratch is a second vector of flat's size.
    """

    def __init__(self, flat: np.ndarray, scratch: np.ndarray, spans: dict, shapes: dict):
        super().__init__((n, flat[a:b].reshape(shapes[n])) for n, (a, b) in spans.items())
        self.flat, self.scratch, self.spans, self.runs = flat, scratch, spans, []
        for a, b in sorted(spans.values()):
            if self.runs and self.runs[-1][1] == a:
                a = self.runs.pop()[0]
            self.runs.append((a, b))


def clip_gradients(grads: Gradients, threshold: float) -> float:
    """Scale the gathered gradients in place so the global L2 norm is at most
    threshold; returns the pre-clip norm.

    The norm adds each tensor's sum of squares in grads' order: the bits of a
    per-tensor sum.  adam_step passes model.backward's gradients, which
    leave out the frozen branches, so a frozen tensor counts in neither the
    norm nor the clipping (Pascanu et al., arXiv:1211.5063, rescale the applied
    update).
    """
    if threshold <= 0:
        raise ConfigError("clip threshold must be > 0")
    flat, sq = grads.flat, grads.scratch
    for a, b in grads.runs:
        np.multiply(flat[a:b], flat[a:b], out=sq[a:b])
    total = 0.0
    for a, b in grads.spans.values():
        total += float(sq[a:b].sum())
    norm = math.sqrt(total)
    if norm > threshold:
        for a, b in grads.runs:
            flat[a:b] *= threshold / norm
    return norm


@dataclass
class AdamState:
    """Adam's settings, step count and flat vectors: the rows of vectors are
    the moments m and v, the gathered gradient g and a scratch s, laid out
    like the store's buffer from its first entry ever updated, start.  So a
    tensor no step has handed a gradient (the frozen adapter) holds no
    moments until one does.  The default clip_threshold never clips."""

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_threshold: float = math.inf
    step: int = 0
    start: int = 0
    vectors: np.ndarray | None = None

    def gather(self, store: ParamStore, grads: dict) -> Gradients:
        """grads copied into g in their order; a gradient that is not one of
        a trainable tensor of store, at its shape, is a ConfigError."""
        for name in grads:
            if name not in store or not store.is_trainable(name):
                raise ConfigError(f"gradient for {name!r}, which is no trainable tensor "
                                  "of the store")
        spans = {n: store.span(n) for n in grads}
        size = store.buffer.size
        start = min((a for a, _ in spans.values()), default=size)
        if self.vectors is None or start < self.start:
            grown = np.zeros((4, size - start), dtype=store.buffer.dtype)
            if self.vectors is not None:
                grown[:, self.start - start:] = self.vectors
            self.vectors, self.start = grown, start
        if self.start + self.vectors.shape[1] != size:
            raise ConfigError(f"Adam state covers {self.start + self.vectors.shape[1]} "
                              f"parameter entries, the store holds {size}")
        out = Gradients(self.vectors[2], self.vectors[3],
                        {n: (a - self.start, b - self.start) for n, (a, b) in spans.items()},
                        {n: store[n].shape for n in spans})
        for name, view in out.items():
            if grads[name].shape != view.shape:
                raise ConfigError(
                    f"gradient shape {grads[name].shape} != parameter {name!r} {view.shape}")
            view[...] = grads[name]
        return out


def adam_step(store: ParamStore, grads: dict, state: AdamState) -> float:
    """One clipped, bias-corrected moment update of exactly the tensors grads
    names, in place, pass by pass over the runs of the buffer they fill;
    returns the pre-clip global norm.

    grads (model.backward's) are gathered into state, then clipped to
    state.clip_threshold.  Every other tensor is untouched: values and
    moments.  Each pass is one IEEE operation of the per-tensor expressions,
    in their order (m = b1*m + (1-b1)*g, ...), so the bits are theirs.
    """
    grads = state.gather(store, grads)
    norm = clip_gradients(grads, state.clip_threshold)
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    for a, b in grads.runs:
        m, v, g, s = state.vectors[:, a:b]
        np.multiply(g, 1.0 - b1, out=s)
        m *= b1
        m += s  # m = b1*m + (1-b1)*g
        np.multiply(g, g, out=g)
        g *= 1.0 - b2
        v *= b2
        v += g  # v = b2*v + (1-b2)*(g*g)
        np.divide(m, c1, out=s)
        s *= state.lr
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        g += state.eps
        s /= g
        store.buffer[state.start + a : state.start + b] -= s  # lr*(m/c1) / (sqrt(v/c2)+eps)
    return norm


@dataclass
class EpochDecision:
    improved: bool
    stop: bool


class ScheduleController:
    """Pure early-stop / unfreeze / overfit-freeze rule, fed one epoch at a
    time, and the one holder of the frozen set.

    frozen is the branch prefixes the next epoch's steps leave frozen, for
    model.backward: the adapter's at first, and the encoder's once it
    freezes.  Staleness counts epochs since the best validation accuracy, or
    since the adapter unfroze if later.  The adapter unfreezes once staleness
    reaches unfreeze_patience (if staged), the encoder freezes for good after
    overfit_epochs consecutive epochs with train - val accuracy above
    overfit_gap, and training stops at patience.
    """

    def __init__(self, schedule: TrainSchedule, staged: bool = True):
        self.schedule = schedule
        self.staged = staged
        self.frozen = (mdl.ADAPTER_PREFIX,)
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
        adapter, encoder = mdl.ADAPTER_PREFIX, mdl.ENCODER_PREFIXES
        if (self.staged and adapter in self.frozen
                and self.stale >= self.schedule.unfreeze_patience):
            self.frozen = tuple(p for p in self.frozen if p != adapter)
            self.stale = 0
        if train_acc - val_acc > self.schedule.overfit_gap:
            self.overfit_run += 1
        else:
            self.overfit_run = 0
        if (self.overfit_run >= self.schedule.overfit_epochs
                and not set(encoder) <= set(self.frozen)):
            self.frozen += encoder  # for good
        return EpochDecision(improved=improved, stop=self.stale >= self.schedule.patience)


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
    ids = vocab.encode_questions(ex.question for ex in examples)
    classes = (answers.class_of(ex.answers[0]) for ex in examples)
    targets = np.array([-1 if c is None else c for c in classes], dtype=np.int64)
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


def evaluate(cfg, store: ParamStore, data: EncodedDataset) -> float:
    """Plain accuracy in eval mode, over model.predict_dataset's batches."""
    return int((mdl.predict_dataset(cfg, store, data) == data.targets).sum()) / len(data.targets)


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


def train(run_config: RunConfig, train_examples, val_examples,
          progress=None) -> TrainResult:
    """Run the full schedule; returns the best-validation checkpoint and log.

    The adapter starts frozen for every variant.  A non-finite training loss
    and a FloatingPointError from a step or the validation pass abort the run,
    keeping the best checkpoint seen so far.
    """
    cfg = run_config.model
    schedule = run_config.train
    precision = run_config.precision

    encoder = vocab = None
    if cfg.variant != "rand-gru" and run_config.pretrained_encoder is not None:
        encoder, vocab = mdl.load_encoder(run_config.pretrained_encoder)
    if vocab is not None:
        answers = AnswerSpace.from_examples(train_examples)
    else:
        vocab, answers = build_vocab(train_examples)

    train_data = encode_dataset(train_examples, vocab, answers, precision)
    val_data = encode_dataset(val_examples, vocab, answers, precision)
    if (train_data.targets < 0).any():
        raise DataFormatError("training split contains answers outside its own answer space")
    feature_dim = train_data.features.shape[1]
    if val_data.features.shape[1] != feature_dim:
        raise DataFormatError(f"validation split has {val_data.features.shape[1]} features "
                              f"per example, the training split {feature_dim}")

    # the data decides these widths; a config that names another is wrong
    widths = {"feature_dim": feature_dim, "num_answers": len(answers), "vocab_size": len(vocab)}
    for name, value in widths.items():
        if getattr(cfg, name) not in (None, value):
            raise ConfigError(f"model.{name} is {getattr(cfg, name)}, but the training "
                              f"inputs give {value}")
    cfg = replace(cfg, **widths)
    if encoder is not None:
        # the encoder's own widths are adopted, and its tensors must fit them
        (_, embed_dim), (hidden_dim, _) = encoder["embed.table"].shape, encoder["gru.w_r"].shape
        cfg = replace(cfg, embed_dim=embed_dim, hidden_dim=hidden_dim,
                      gru_bias="gru.b_r" in encoder)
        mdl.check_layout(cfg, encoder, f"encoder checkpoint {run_config.pretrained_encoder}",
                         mdl.ENCODER_PREFIXES)
    run_config = replace(run_config, model=cfg)

    store = mdl.init_params(cfg, precision, seed=schedule.seed)
    for name, value in (encoder or {}).items():
        store[name] = value

    # the frozen-trunk ablations never unfreeze; the full model and the
    # concat baseline follow the staged schedule
    controller = ScheduleController(schedule, cfg.variant not in ("cnn-fixed", "rand-gru"))
    adam = AdamState(lr=schedule.lr, beta1=schedule.beta1, beta2=schedule.beta2,
                     eps=schedule.adam_eps, clip_threshold=schedule.clip_threshold)
    rng = np.random.default_rng(schedule.seed)

    best_values = store.buffer.copy()
    log = []
    aborted = False
    epochs_run = 0

    for epoch in range(1, schedule.max_epochs + 1):
        epochs_run = epoch
        started = time.perf_counter()
        loss_sum = 0.0
        seen = 0
        correct = 0
        grad_norms = []  # pre-clip global norm per step
        try:
            for rows in train_batches(train_data, schedule.batch_size, rng):
                feats, tokens, targets = _gather(train_data, rows)
                loss, caches, grads = mdl.loss_and_grads(cfg, store, feats, tokens, targets,
                                                         frozen=controller.frozen)
                if not math.isfinite(loss):
                    raise FloatingPointError(f"training loss {loss}")
                # only a step that is taken advances the batch-norm running stats
                store["bn.running_mean"], store["bn.running_var"] = caches["bn_running"]
                loss_sum += loss * len(rows)
                seen += len(rows)
                correct += int((caches["logits"].argmax(axis=1) == targets).sum())
                del caches  # two steps' caches (GRU trace included) never coexist
                grad_norms.append(adam_step(store, grads, adam))
                del grads  # nor two steps' gradients
            val_acc = evaluate(cfg, store, val_data)
        except FloatingPointError:
            aborted = True
            break
        train_loss = loss_sum / seen
        train_acc = correct / seen
        epoch_s = time.perf_counter() - started
        log.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "train_acc": train_acc,
                "val_acc": val_acc,
                "lr": schedule.lr,
                "frozen": sorted(n for n in store if n.split(".")[0] in controller.frozen),
                "grad_norm_mean": math.fsum(grad_norms) / len(grad_norms),
                "grad_norm_max": max(grad_norms),
                "clipped_fraction": sum(n > schedule.clip_threshold for n in grad_norms)
                / len(grad_norms),
                # wall clock, the one field two identical runs do not share
                "timing": {"epoch_s": epoch_s, "examples_per_s": seen / epoch_s},
            }
        )
        if progress is not None:
            progress(log[-1])
        decision = controller.update(epoch, train_acc, val_acc)
        if decision.improved:
            best_values = store.buffer.copy()
        if decision.stop:
            break

    store.buffer[...] = best_values
    return TrainResult(
        run_config=run_config,
        store=store,
        vocab=vocab,
        answers=answers,
        log=log,
        best_val_acc=controller.best_val if controller.best_epoch else 0.0,
        best_epoch=controller.best_epoch,
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
