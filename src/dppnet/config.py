"""Run configuration: model dimensions, training schedule, paths, precision.

A resolved RunConfig is serialized into every checkpoint and output directory
so any run can be re-executed exactly from its artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar

from .errors import ConfigError
from .hashing import DEFAULT_SEED_BUCKET, DEFAULT_SEED_SIGN, HashSpec
from .jsonio import read_json
from .tensor import PRECISIONS

VARIANTS = ("dppnet", "concat", "cnn-fixed", "rand-gru")

_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}
_TYPE_CHECKS.update({f"tuple[{name}, ...]": lambda v, entry=check: (
    isinstance(v, tuple) and all(map(entry, v))) for name, check in list(_TYPE_CHECKS.items())})


def _check_types(config) -> None:
    """Every field holds its annotated type: an int field takes no bool or
    float, a float field takes an int, `X | None` also takes None, and
    `tuple[X, ...]` takes a tuple of X entries alone.  Fields of other types
    (nested configs) are checked by their own class."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, alt = f.type.partition(" | ")
        check = _TYPE_CHECKS.get(kind)
        if check is not None and not (check(value) or (alt == "None" and value is None)):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")


def _check_ranges(config, ranges: dict) -> None:
    """Every field named in ranges passes its (test, wording) pair; NaN fails
    every test."""
    for name, (ok, wording) in ranges.items():
        value = getattr(config, name)
        if not ok(value):
            raise ConfigError(f"{name} must be {wording}, got {value!r}")


_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0")


@dataclass
class ModelConfig:
    """Variant, widths and hash seeds; batch norm's constants are not fields."""

    bn_momentum: ClassVar[float] = 0.1
    bn_eps: ClassVar[float] = 1e-5
    variant: str = "dppnet"
    feature_dim: int | None = None  # train adopts the data's and refuses any other
    adapter_hidden: int = 96
    adapter_out: int = 64
    dyn_out: int = 32
    num_candidates: int = 512
    hidden_dim: int = 64
    embed_dim: int = 32
    num_answers: int | None = None  # train adopts the training answers', likewise
    vocab_size: int | None = None  # the encoder's vocab.json or the data's, likewise
    gru_bias: bool = False
    seed_bucket: int = DEFAULT_SEED_BUCKET
    seed_sign: int = DEFAULT_SEED_SIGN

    def __post_init__(self):
        _check_types(self)
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        _check_ranges(self, {
            **dict.fromkeys(("adapter_hidden", "adapter_out", "dyn_out", "num_candidates",
                             "hidden_dim", "embed_dim"), _AT_LEAST_1),
        })
        self.hash_spec()  # its seeds are checked where the hash reads them

    def hash_spec(self) -> HashSpec:
        return HashSpec(
            out_dim=self.dyn_out,
            in_dim=self.adapter_out,
            num_candidates=self.num_candidates,
            seed_bucket=self.seed_bucket,
            seed_sign=self.seed_sign,
        )

    def require_resolved(self):
        if None in (self.feature_dim, self.num_answers, self.vocab_size):
            raise ConfigError("model config not resolved against data "
                              "(feature_dim / num_answers / vocab_size missing)")


@dataclass
class TrainSchedule:
    """Training schedule; Adam's constants, not fields, are the values Kingma
    & Ba recommend (arXiv:1412.6980)."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8
    seed: int = 1
    max_epochs: int = 100
    patience: int = 5
    lr: float = 0.0015
    clip_threshold: float = 0.1
    batch_size: int = 32
    unfreeze_patience: int = 3
    overfit_gap: float = 0.30
    overfit_epochs: int = 2

    def __post_init__(self):
        _check_types(self)
        _check_ranges(self, {
            "seed": (lambda v: v >= 0, ">= 0"),
            "max_epochs": _AT_LEAST_1,
            "patience": _AT_LEAST_1,
            "lr": _POSITIVE,
            "clip_threshold": (lambda v: v > 0, "> 0"),
            "batch_size": (lambda v: v >= 2, ">= 2 (batch norm needs 2 rows)"),
            "unfreeze_patience": (lambda v: v >= 0, ">= 0"),
            # a NaN gap compares False with every accuracy gap: no freeze ever
            "overfit_gap": (math.isfinite, "finite"),
            "overfit_epochs": _AT_LEAST_1,
        })


# fields now constants, by section, at the one value a saved config may give:
# null for concat_hidden, whose width is always solved
RETIRED = {"model": {"concat_hidden": None, "bn_momentum": ModelConfig.bn_momentum,
                     "bn_eps": ModelConfig.bn_eps},
           "train": {n: getattr(TrainSchedule, n) for n in ("beta1", "beta2", "adam_eps")}}


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSchedule = field(default_factory=TrainSchedule)
    precision: str = "f64"
    pretrained_encoder: str | None = None  # checkpoint directory; None: a random encoder

    def __post_init__(self):
        _check_types(self)
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}")
        if self.pretrained_encoder == "":
            raise ConfigError("pretrained_encoder must be a directory or null, got ''")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        data = dict(data)
        # configs saved before the encoder path alone decided: "none" skipped it
        if data.pop("pretrained_policy", None) == "none":
            data["pretrained_encoder"] = None
        # every config saved before RETIRED's fields became constants holds them
        for section, retired in RETIRED.items():
            values = data.get(section)
            if isinstance(values, dict):
                for name in retired.keys() & values.keys():
                    if values[name] != retired[name]:
                        raise ConfigError(f"{section}.{name} is fixed at "
                                          f"{json.dumps(retired[name])}, got {values[name]!r}")
                data[section] = {k: v for k, v in values.items() if k not in retired}
        model = ModelConfig(**data.pop("model", {}))
        train = TrainSchedule(**data.pop("train", {}))
        unknown = set(data) - {"precision", "pretrained_encoder"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(model=model, train=train, **data)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return read_json(path, ConfigError, cls.from_dict)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=1))

    def with_overrides(self, **values) -> "RunConfig":
        """A copy with each value that is not None set on the field of its name,
        in the section that declares it: the run itself, model or train."""
        values = {name: v for name, v in values.items() if v is not None}
        sections = {}
        for section in ("model", "train"):
            part = getattr(self, section)
            names = values.keys() & {f.name for f in fields(part)}
            sections[section] = replace(part, **{name: values.pop(name) for name in names})
        return replace(self, **sections, **values)
