"""Datasets: tokenization, vocabularies, JSONL interchange, synthetic scenes.

The interchange format is JSON-lines, one example per line:

    {"features": [..], "question": "...", "answers": ["..."], ...extras}

Extras (scene_id, template, id) are preserved but never required.  The
synthetic generator builds scenes of object slots (shape, color, count),
encodes them as concatenated one-hots plus noise, and asks templated
questions whose answers require reading the question, not just the features.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import _AT_LEAST_1, _check_ranges, _check_types
from .errors import ConfigError, DataFormatError
from .jsonio import read_jsonl

UNK_TOKEN = "<unk>"
UNK_ID = 0

_STRIP = string.punctuation


def tokenize(question: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation per token."""
    out = []
    for raw in question.lower().split():
        tok = raw.strip(_STRIP)
        if tok:
            out.append(tok)
    return out


class Vocabulary:
    """Frozen token -> id map with a reserved unknown id 0."""

    def __init__(self, tokens):
        self._ids = {UNK_TOKEN: UNK_ID}
        for tok in tokens:
            if tok == UNK_TOKEN or tok in self._ids:
                continue
            self._ids[tok] = len(self._ids)

    @classmethod
    def from_examples(cls, examples) -> "Vocabulary":
        seen = set()
        for question in {ex.question for ex in examples}:
            seen.update(tokenize(question))
        return cls(sorted(seen))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "Vocabulary":
        if not isinstance(mapping, dict) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in mapping.values()
        ):
            raise DataFormatError("vocabulary must map tokens to integer ids")
        vocab = cls([])
        for tok, idx in mapping.items():
            if tok == UNK_TOKEN:
                if idx != UNK_ID:
                    raise DataFormatError(f"vocabulary maps {UNK_TOKEN} to {idx}, expected {UNK_ID}")
                continue
            vocab._ids[tok] = idx
        ids = sorted(vocab._ids.values())
        if ids != list(range(len(ids))):
            raise DataFormatError("vocabulary ids are not a dense 0..V-1 range")
        return vocab

    def __len__(self) -> int:
        return len(self._ids)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self._ids.get(t, UNK_ID) for t in tokens]

    def encode_question(self, question: str) -> list[int]:
        ids = self.encode(tokenize(question))
        if not ids:
            raise DataFormatError(f"question tokenizes to nothing: {question!r}")
        return ids

    def encode_questions(self, questions) -> list[list[int]]:
        """encode_question of each question, in input order.

        Each distinct string is tokenized once, and its repeats share one id
        list, which callers must not mutate.
        """
        questions = list(questions)
        ids = {q: self.encode_question(q) for q in dict.fromkeys(questions)}
        return [ids[q] for q in questions]

    def as_dict(self) -> dict:
        return dict(self._ids)


class AnswerSpace:
    """Closed, ordered set of whole-answer classes."""

    def __init__(self, answers):
        self._answers = list(answers)
        if not all(isinstance(a, str) for a in self._answers):
            raise DataFormatError("answer classes must be strings")
        self._index = {a: i for i, a in enumerate(self._answers)}
        if len(self._index) != len(self._answers):
            raise DataFormatError("duplicate answer class")

    @classmethod
    def from_examples(cls, examples) -> "AnswerSpace":
        seen = {normalize_answer(a) for ex in examples for a in ex.answers}
        return cls(sorted(seen))

    def __len__(self) -> int:
        return len(self._answers)

    def class_of(self, answer: str) -> int | None:
        """Class index, or None for answers outside the space (scored wrong)."""
        return self._index.get(normalize_answer(answer))

    def answer_of(self, idx: int) -> str:
        return self._answers[idx]

    def as_list(self) -> list[str]:
        return list(self._answers)


def normalize_answer(answer: str) -> str:
    return answer.strip().lower()


@dataclass
class QAExample:
    features: np.ndarray
    question: str
    answers: list[str]
    meta: dict = field(default_factory=dict)


def length_buckets(token_ids) -> dict[int, np.ndarray]:
    """Row indices of the token id sequences, grouped by length (ascending)."""
    buckets: dict[int, list[int]] = {}
    for i, ids in enumerate(token_ids):
        buckets.setdefault(len(ids), []).append(i)
    return {length: np.asarray(rows) for length, rows in sorted(buckets.items())}


def length_batches(token_ids, batch_size: int) -> list[np.ndarray]:
    """Equal-length batches of at most batch_size rows, in bucket then row order."""
    return [
        rows[start : start + batch_size]
        for rows in length_buckets(token_ids).values()
        for start in range(0, len(rows), batch_size)
    ]


def build_vocab(train_examples) -> tuple[Vocabulary, AnswerSpace]:
    """Vocabulary and answer classes from the training split only."""
    examples = list(train_examples)
    if not examples:
        raise DataFormatError("cannot build a vocabulary from an empty split")
    return Vocabulary.from_examples(examples), AnswerSpace.from_examples(examples)


def save_jsonl(path, examples) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for ex in examples:
            rec = {
                "features": [float(v) for v in np.asarray(ex.features).ravel()],
                "question": ex.question,
                "answers": list(ex.answers),
            }
            rec.update(ex.meta)
            fh.write(json.dumps(rec) + "\n")


def validate_features(values, where: str) -> np.ndarray:
    """A JSON feature list as f64; `where` (a file line, a flag) leads the error.

    JSON booleans and Python's NaN/Infinity extensions parse as numbers, so
    both are rejected here rather than trained or predicted on.
    """
    if not isinstance(values, list):
        raise DataFormatError(f"{where}: features must be a list of numbers")
    # exact types: bool subclasses int
    if not set(map(type, values)) <= {int, float}:
        i, v = next((i, v) for i, v in enumerate(values) if type(v) not in (int, float))
        raise DataFormatError(f"{where}: feature {i} is {json.dumps(v)}, not a number")
    try:
        if all(map(math.isfinite, values)):
            return np.asarray(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        pass
    # NaN, +-Infinity or such an integer
    i = next(i for i, v in enumerate(values) if not abs(v) < 2**1024)
    raise DataFormatError(f"{where}: feature {i} is not a finite number")


def load_jsonl(path) -> list[QAExample]:
    """Load and validate an interchange file; errors carry line numbers."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"dataset file not found: {path}")
    examples: list[QAExample] = []
    feature_dim = None
    for lineno, rec in read_jsonl(path):
        for key in ("features", "question", "answers"):
            if key not in rec:
                raise DataFormatError(f"{path}:{lineno}: missing field {key!r}")
        feats = validate_features(rec["features"], f"{path}:{lineno}")
        if feature_dim is None:
            feature_dim = len(feats)
        elif len(feats) != feature_dim:
            raise DataFormatError(
                f"{path}:{lineno}: feature length {len(feats)} != {feature_dim} "
                f"established earlier in the file"
            )
        if not isinstance(rec["answers"], list) or not rec["answers"]:
            raise DataFormatError(f"{path}:{lineno}: answers must be a nonempty list")
        meta = {k: v for k, v in rec.items() if k not in ("features", "question", "answers")}
        examples.append(
            QAExample(
                features=feats,
                question=str(rec["question"]),
                answers=[str(a) for a in rec["answers"]],
                meta=meta,
            )
        )
    return examples


# --- synthetic compositional scenes ---

DEFAULT_SHAPES = ("square", "circle", "triangle", "star")
DEFAULT_COLORS = ("red", "blue", "green", "yellow")

TEMPLATES = ("color", "shape", "count", "exists")

# examples one GenConfig draws at most: about 80 s to draw and write, 0.9 GB and 0.55 GiB
# of JSON lines (100,000 took 8.0 s, 86 MB, 56 MiB; one core of a 2-core x86 host)
MAX_EXAMPLES = 1_000_000


@dataclass
class GenConfig:
    slots: int = 2
    shapes: tuple[str, ...] = DEFAULT_SHAPES
    colors: tuple[str, ...] = DEFAULT_COLORS
    counts: tuple[int, ...] = (1, 2, 3)
    noise: float = 0.05
    template_mix: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    n_train: int = 4000
    n_val: int = 500
    n_test: int = 500

    def __post_init__(self):
        _check_types(self)
        _check_ranges(self, {
            "slots": _AT_LEAST_1,
            **dict.fromkeys(("n_train", "n_val", "n_test"), (lambda v: v >= 0, ">= 0")),
            "noise": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
            "template_mix": (lambda v: all(0 <= w < math.inf for w in v), "finite weights >= 0"),
            **dict.fromkeys(("shapes", "colors", "counts"), (
                lambda v: 0 < len(v) == len(set(v)), "non-empty with distinct entries")),
        })
        total = self.n_train + self.n_val + self.n_test
        if total > MAX_EXAMPLES:
            raise ConfigError(f"n_train + n_val + n_test is {total:,}, over the "
                              f"{MAX_EXAMPLES:,} examples one config draws")
        for name in ("shapes", "colors"):
            if self.slots > len(getattr(self, name)):
                raise ConfigError(f"{self.slots} slots need {self.slots} distinct {name}, "
                                  f"only {len(getattr(self, name))} provided")
        if len(self.shapes) * len(self.colors) < 2:
            raise ConfigError("need at least two shape/color combinations")
        if len(self.template_mix) != len(TEMPLATES) or abs(sum(self.template_mix) - 1.0) > 1e-9:
            raise ConfigError("template_mix must give one weight per template, summing to 1")

    @property
    def feature_dim(self) -> int:
        return self.slots * (len(self.shapes) + len(self.colors) + len(self.counts))


def _scene_features(cfg: GenConfig, slots, rng) -> np.ndarray:
    parts = []
    for shape, color, count in slots:
        shape_vec = np.zeros(len(cfg.shapes))
        shape_vec[cfg.shapes.index(shape)] = 1.0
        color_vec = np.zeros(len(cfg.colors))
        color_vec[cfg.colors.index(color)] = 1.0
        count_vec = np.zeros(len(cfg.counts))
        count_vec[cfg.counts.index(count)] = 1.0
        parts.extend([shape_vec, color_vec, count_vec])
    feats = np.concatenate(parts)
    if cfg.noise > 0:
        feats = feats + rng.normal(0.0, cfg.noise, size=feats.shape)
    return feats


def _make_example(cfg: GenConfig, scene_id: int, rng) -> QAExample:
    shapes = rng.choice(len(cfg.shapes), size=cfg.slots, replace=False)
    colors = rng.choice(len(cfg.colors), size=cfg.slots, replace=False)
    counts = rng.choice(len(cfg.counts), size=cfg.slots, replace=True)
    slots = [
        (cfg.shapes[s], cfg.colors[c], cfg.counts[k])
        for s, c, k in zip(shapes, colors, counts)
    ]
    template = TEMPLATES[rng.choice(len(TEMPLATES), p=cfg.template_mix)]
    if template == "color":
        shape, color, _ = slots[rng.integers(cfg.slots)]
        question, answer = f"what color is the {shape}?", color
    elif template == "shape":
        shape, color, _ = slots[rng.integers(cfg.slots)]
        question, answer = f"what shape is {color}?", shape
    elif template == "count":
        shape, _, count = slots[rng.integers(cfg.slots)]
        question, answer = f"how many {shape}?", str(count)
    else:
        present = {(color, shape) for shape, color, _ in slots}
        if rng.random() < 0.5:
            color, shape = sorted(present)[rng.integers(len(present))]
            answer = "yes"
        else:
            absent = [
                (c, s)
                for c in cfg.colors
                for s in cfg.shapes
                if (c, s) not in present
            ]
            color, shape = absent[rng.integers(len(absent))]
            answer = "no"
        question = f"is there a {color} {shape}?"
    return QAExample(
        features=_scene_features(cfg, slots, rng),
        question=question,
        answers=[answer],
        meta={"scene_id": scene_id, "template": template},
    )


def generate_synthetic(cfg: GenConfig, seed: int):
    """Seeded (train, val, test) splits; scene ids never cross splits."""
    rng = np.random.default_rng(seed)
    scene_id = 0
    splits = []
    for n in (cfg.n_train, cfg.n_val, cfg.n_test):
        split = []
        for _ in range(n):
            split.append(_make_example(cfg, scene_id, rng))
            scene_id += 1
        splits.append(split)
    return tuple(splits)
