"""Command-line entry point.

One executable, one subcommand per workflow step.  stdout carries exactly one
JSON document (or JSON-lines for predictions); progress goes to stderr, and
failures print a machine-readable error object to stderr with a nonzero exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import checkpoint, hashing, metrics, model as mdl, oracles, trainer
from .config import RunConfig, VARIANTS
from .data import (
    GenConfig, QAExample, generate_synthetic, load_jsonl, save_jsonl, validate_features,
)
from .errors import ConfigError, DataFormatError, DppnetError
from .jsonio import read_json, read_jsonl
from .tensor import PRECISIONS

DATA_ROOT_ENV = "DPPNET_DATA_ROOT"


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve_data(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get(DATA_ROOT_ENV)
    if root and (Path(root) / p).exists():
        return Path(root) / p
    return p


def _gen_config(raw) -> GenConfig:
    if not isinstance(raw, dict):
        raise ConfigError("gen config must be a JSON object")
    unknown = set(raw) - {f.name for f in dataclasses.fields(GenConfig)}
    if unknown:
        raise ConfigError(f"unknown gen config keys: {sorted(unknown)}")
    return GenConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


def _seed(args, default: int) -> int:
    """The --seed flag's value, default when it is not given."""
    seed = default if args.seed is None else args.seed
    if seed < 0:  # numpy takes no negative seed
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    return seed


def cmd_gen(args) -> int:
    seed = _seed(args, 1)
    gen_cfg = GenConfig()
    if args.gen_config:
        gen_cfg = read_json(args.gen_config, ConfigError, _gen_config)
    out = Path(args.out)
    names = ("train", "val", "test")
    with checkpoint.replacing(out, [f"{n}.jsonl" for n in names] + ["gen_config.json"]) as new:
        # generated only once --out is accepted
        splits = generate_synthetic(gen_cfg, seed)
        for name, split in zip(names, splits):
            save_jsonl(new / f"{name}.jsonl", split)
        (new / "gen_config.json").write_text(
            json.dumps({**dataclasses.asdict(gen_cfg), "seed": seed}, indent=1)
        )
    _emit(
        {
            "out": str(out),
            "files": {n: str(out / f"{n}.jsonl") for n in names},
            "seed": seed,
            "feature_dim": gen_cfg.feature_dim,
            "counts": {n: len(s) for n, s in zip(names, splits)},
        }
    )
    return 0


# train's options besides --config, --data and --out: each overrides the
# RunConfig field of its name (RunConfig.with_overrides)
TRAIN_FLAGS = (
    ("seed", {"type": int, "help": "seed override"}),
    ("precision", {"choices": PRECISIONS}),
    ("variant", {"choices": VARIANTS}),
    ("pretrained_encoder", {"help": "encoder checkpoint directory"}),
    ("lr", {"type": float}), ("batch_size", {"type": int}), ("max_epochs", {"type": int}),
    ("patience", {"type": int}), ("clip_threshold", {"type": float}),
    ("unfreeze_patience", {"type": int}), ("overfit_gap", {"type": float}),
    ("overfit_epochs", {"type": int}),
)


def cmd_train(args) -> int:
    if args.config == "":
        raise ConfigError("--config must name a run config file, got ''")
    rc = RunConfig() if args.config is None else RunConfig.from_file(args.config)
    rc = rc.with_overrides(**{name: getattr(args, name) for name, _ in TRAIN_FLAGS})
    data_dir = _resolve_data(args.data)
    train_ex = load_jsonl(data_dir / "train.jsonl")
    val_ex = load_jsonl(data_dir / "val.jsonl")
    started = time.time()
    result = trainer.train(
        rc,
        train_ex,
        val_ex,
        progress=lambda e: _progress(
            f"epoch {e['epoch']}: loss {e['train_loss']:.4f} "
            f"train {e['train_acc']:.3f} val {e['val_acc']:.3f}"
        ),
    )
    out = Path(args.out)
    mdl.save_model(out, result.run_config, result.store, result.vocab, result.answers,
                   log=result.log)
    counts = mdl.parameter_counts(result.run_config.model)
    _emit(
        {
            "checkpoint": str(out),
            "variant": result.run_config.model.variant,
            "best_val_acc": result.best_val_acc,
            "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run,
            "aborted": result.aborted,
            "seconds": round(time.time() - started, 2),
            "param_counts": counts,
            "log": str(out / mdl.LOG_NAME),
        }
    )
    return 1 if result.aborted else 0


def _example_id(ex: QAExample, index: int):
    return ex.meta.get("id", index)


def _predict_answers(checkpoint, examples, choices_path=None):
    """The checkpoint's answer per example, in input order.

    With a choices file ({id, answers: [...]} lines) each argmax is restricted
    to the example's listed answers; an example none of whose choices is in
    the answer space gets None.
    """
    rc, store, vocab, answers = mdl.load_model(checkpoint)
    mask = None
    if choices_path is not None:
        mask = np.zeros((len(examples), len(answers)), dtype=bool)
        for i, choices in enumerate(_load_predictions_file(choices_path, examples)):
            for ch in choices:
                idx = answers.class_of(str(ch))
                if idx is not None:
                    mask[i, idx] = True
    data = trainer.encode_dataset(examples, vocab, answers, rc.precision)
    classes = mdl.predict_dataset(rc.model, store, data, mask)
    return [answers.answer_of(int(c)) if c >= 0 else None for c in classes]


def cmd_predict(args) -> int:
    if bool(args.data) == bool(args.example):
        raise ConfigError("predict needs exactly one of --data or --example")
    if args.example:
        try:
            rec = json.loads(args.example)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"--example: invalid JSON ({e})") from e
        for key in ("features", "question"):
            if not isinstance(rec, dict) or key not in rec:
                raise DataFormatError(f"--example missing field {key!r}")
        examples = [
            QAExample(
                features=validate_features(rec["features"], "--example"),
                question=str(rec["question"]),
                answers=["?"],
                meta={"id": rec.get("id", 0)},
            )
        ]
    else:
        examples = load_jsonl(_resolve_data(args.data))
    preds = _predict_answers(args.checkpoint, examples)
    for i, (ex, answer) in enumerate(zip(examples, preds)):
        sys.stdout.write(json.dumps({"id": _example_id(ex, i), "answer": answer}) + "\n")
    return 0


def _load_predictions_file(path, examples):
    """Answer lists in example order from {id, answer} or {id, answers: [...]}
    lines; the id, the answer and every listed answer are JSON scalars."""
    by_id = {}
    for lineno, rec in read_jsonl(path):
        if "id" not in rec or ("answer" not in rec and "answers" not in rec):
            raise DataFormatError(f"{path}:{lineno}: need id plus answer or answers")
        answers = rec.get("answers", [rec.get("answer")])
        if not isinstance(answers, list) or not answers:
            raise DataFormatError(f"{path}:{lineno}: answers must be a non-empty list")
        if any(isinstance(v, (list, dict)) for v in (rec["id"], *answers)):
            raise DataFormatError(f"{path}:{lineno}: id and answers must be JSON scalars")
        by_id[rec["id"]] = answers
    preds = []
    for i, ex in enumerate(examples):
        key = _example_id(ex, i)
        if key not in by_id:
            raise DataFormatError(f"predictions file has no entry for example id {key!r}")
        preds.append(by_id[key])
    return preds


def cmd_eval(args) -> int:
    if bool(args.checkpoint) == bool(args.predictions):
        raise ConfigError("eval needs exactly one of --checkpoint or --predictions")
    # flags eval would ignore: a predictions file holds its answers already
    if args.multiple_choice and args.predictions:
        raise ConfigError("--multiple-choice restricts a --checkpoint's answers; "
                          "it does not apply to --predictions")
    if args.wups_threshold and not args.taxonomy:
        raise ConfigError("--wups-threshold needs --taxonomy, which enables WUPS")
    examples = load_jsonl(_resolve_data(args.data))
    if not examples:
        raise DataFormatError("evaluation dataset is empty")
    if args.predictions:
        pred_lists = _load_predictions_file(args.predictions, examples)
    else:
        preds = _predict_answers(args.checkpoint, examples, args.multiple_choice)
        pred_lists = [[p] if p is not None else [] for p in preds]

    single_preds = [p[0] if p else None for p in pred_lists]
    report = {
        "examples": len(examples),
        "multiple_choice": bool(args.multiple_choice),
        "plain_accuracy": metrics.plain_accuracy(
            single_preds, [ex.answers[0] for ex in examples]
        ),
    }
    if args.vqa_consensus:
        report["vqa_accuracy"] = metrics.vqa_accuracy(
            single_preds, [ex.answers for ex in examples]
        )
    if args.taxonomy:
        taxonomy = metrics.Taxonomy.from_file(args.taxonomy)
        thresholds = args.wups_threshold if args.wups_threshold else [0.9, 0.0]
        records = [(p, ex.answers) for p, ex in zip(pred_lists, examples)]
        wups_out = {}
        for t in thresholds:
            rep = metrics.wups(records, taxonomy, t)
            wups_out[str(t)] = rep.as_dict()
        report["wups"] = wups_out
    _emit(report)
    return 0


def cmd_gradcheck(args) -> int:
    seed = _seed(args, 0)
    report = oracles.run_oracle_suite(seed)
    for m in report["modules"]:
        _progress(f"{'PASS' if m['passed'] else 'FAIL'} {m['module']}: {m['max_rel_err']:.2e}")
    _emit(report)
    return 0 if report["passed"] else 1


# hash-stats holds a few 2K-long arrays and reports K bucket loads
MAX_STATS_CANDIDATES = 1 << 20
# it hashes every position of the M x N grid: 2^28 positions (16384 x 16384)
# took 11.3 s, about 24 M a second, on one core of a 2-core x86 host
MAX_STATS_POSITIONS = 1 << 28


def cmd_hash_stats(args) -> int:
    if args.n > hashing.BLOCK_BUDGET:  # a row is hashed in one piece
        raise ConfigError(f"--n {args.n} is above hashing.BLOCK_BUDGET ({hashing.BLOCK_BUDGET})")
    if args.k > MAX_STATS_CANDIDATES:
        raise ConfigError(f"--k {args.k} is above the {MAX_STATS_CANDIDATES} candidates "
                          "hash-stats reports")
    spec = hashing.HashSpec(
        out_dim=args.m,
        in_dim=args.n,
        num_candidates=args.k,
        seed_bucket=args.seed_bucket,
        seed_sign=args.seed_sign,
    )
    materialized = None
    if args.materialize_candidates is not None:
        from .dynlayer import materialize_weights

        try:
            values = json.loads(args.materialize_candidates)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"--materialize-candidates: invalid JSON ({e})") from e
        candidates = validate_features(values, "--materialize-candidates")
        # before hash_stats, which walks the whole grid the size guard may refuse
        materialized = materialize_weights(candidates, spec).tolist()
    # materialize_weights' own guard keeps its grid far below this bound
    if args.m * args.n > MAX_STATS_POSITIONS:
        raise ConfigError(f"--m {args.m} x --n {args.n} is {args.m * args.n:,} positions; "
                          f"hash-stats walks at most {MAX_STATS_POSITIONS:,}")
    report = hashing.hash_stats(spec)
    if materialized is not None:
        report["materialized"] = materialized
    _emit(report)
    return 0


def cmd_retrieve(args) -> int:
    rc, store, vocab, _ = mdl.load_model(args.checkpoint)
    corpus_ex = load_jsonl(_resolve_data(args.corpus))
    corpus = [ex.question for ex in corpus_ex]
    ranked = mdl.retrieve_similar(rc.model, store, vocab, args.query, corpus, args.top_k)
    _emit({"query": args.query, "ranked": ranked})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dppnet parser, built once per process; every caller shares it."""
    parser = argparse.ArgumentParser(
        prog="dppnet",
        description="Question-conditioned dynamic weight prediction, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate the synthetic compositional QA dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--gen-config", help="generator config JSON file")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model on train.jsonl/val.jsonl")
    p.add_argument("--config", help="run config JSON file")
    p.add_argument("--data", required=True, help="directory with train.jsonl and val.jsonl")
    p.add_argument("--out", required=True, help="checkpoint output directory")
    for name, options in TRAIN_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", **options)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or a predictions file")
    p.add_argument("--checkpoint")
    p.add_argument("--predictions", help="JSON-lines {id, answer} file")
    p.add_argument("--data", required=True)
    p.add_argument("--taxonomy", help="taxonomy file enabling WUPS")
    p.add_argument("--wups-threshold", type=float, action="append", default=None)
    p.add_argument("--vqa-consensus", action="store_true")
    p.add_argument("--multiple-choice", help="JSON-lines {id, answers:[...]} candidate file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="write JSON-lines predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data")
    p.add_argument("--example", help="single {features, question} JSON object")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck", help="run the finite-difference oracle suite")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("hash-stats", help="bucket/sign distribution report")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed-bucket", type=lambda s: int(s, 0), default=hashing.DEFAULT_SEED_BUCKET)
    p.add_argument("--seed-sign", type=lambda s: int(s, 0), default=hashing.DEFAULT_SEED_SIGN)
    p.add_argument(
        "--materialize-candidates",
        help="diagnostic: JSON list of K candidate weights; adds the explicit matrix",
    )
    p.set_defaults(fn=cmd_hash_stats)

    p = sub.add_parser("retrieve", help="rank corpus questions by embedding similarity")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--corpus", required=True, help="JSON-lines dataset supplying questions")
    p.add_argument("--top-k", type=int, default=10)
    p.set_defaults(fn=cmd_retrieve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.fn(args)
    except (DppnetError, OSError, FloatingPointError, MemoryError) as e:
        # an OSError is a path that is missing or of the wrong kind (FileNotFound, ...);
        # a FloatingPointError is weights that overflow, raised by numpy in place of a
        # RuntimeWarning (underflow stays silent); a MemoryError is a size too large
        kind = "MemoryError" if isinstance(e, MemoryError) else type(e).__name__
        if isinstance(e, OSError):
            kind = kind.removesuffix("Error")
        json.dump({"error": {"type": kind, "message": str(e)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
