"""Command-line entry point.

One executable, one subcommand per workflow step.  stdout carries exactly one
JSON document (or JSON-lines for predictions); progress goes to stderr, and
failures print a machine-readable error object to stderr with a nonzero exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import hashing, metrics, model as mdl, oracles, trainer
from .config import RunConfig, VARIANTS
from .data import (
    GenConfig, QAExample, generate_synthetic, load_jsonl, save_jsonl, validate_features,
)
from .errors import ConfigError, DataFormatError, DppnetError
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


def _run_config(args) -> RunConfig:
    rc = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    return rc.with_overrides(
        seed=getattr(args, "seed", None),
        precision=getattr(args, "precision", None),
        variant=getattr(args, "variant", None),
    )


def cmd_gen(args) -> int:
    gen_cfg = GenConfig()
    if args.gen_config:
        raw = json.loads(Path(args.gen_config).read_text())
        raw = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
        gen_cfg = GenConfig(**raw)
    seed = args.seed if args.seed is not None else 1
    splits = generate_synthetic(gen_cfg, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, split in zip(("train", "val", "test"), splits):
        path = out / f"{name}.jsonl"
        save_jsonl(path, split)
        files[name] = str(path)
    (out / "gen_config.json").write_text(
        json.dumps({**dataclasses.asdict(gen_cfg), "seed": seed}, indent=1)
    )
    _emit(
        {
            "out": str(out),
            "files": files,
            "seed": seed,
            "feature_dim": gen_cfg.feature_dim,
            "counts": {n: len(s) for n, s in zip(("train", "val", "test"), splits)},
        }
    )
    return 0


SCHEDULE_FLAGS = (
    ("lr", float), ("batch_size", int), ("max_epochs", int), ("patience", int),
    ("clip_threshold", float), ("unfreeze_patience", int),
    ("overfit_gap", float), ("overfit_epochs", int),
)


def cmd_train(args) -> int:
    rc = _run_config(args)
    overrides = {
        name: getattr(args, name)
        for name, _ in SCHEDULE_FLAGS
        if getattr(args, name) is not None
    }
    if overrides:
        rc = dataclasses.replace(rc, train=dataclasses.replace(rc.train, **overrides))
    if args.pretrained_encoder:
        rc = dataclasses.replace(rc, pretrained_encoder=args.pretrained_encoder)
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
    mdl.save_model(out, result.run_config, result.store, result.vocab, result.answers)
    with (out / "log.jsonl").open("w") as fh:
        for entry in result.log:
            fh.write(json.dumps(entry) + "\n")
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
            "log": str(out / "log.jsonl"),
        }
    )
    return 1 if result.aborted else 0


def _example_id(ex: QAExample, index: int):
    return ex.meta.get("id", index)


def _predict_dataset(checkpoint, examples):
    rc, store, vocab, answers = mdl.load_model(checkpoint)
    data = trainer.encode_dataset(examples, vocab, answers, rc.precision)
    preds: list[str] = [""] * len(examples)
    for rows in trainer.eval_batches(data, 256):
        feats = data.features[rows]
        tokens = np.asarray([data.token_ids[i] for i in rows], dtype=np.int64)
        classes = mdl.predict_classes(rc.model, store, feats, tokens)
        for i, cls_idx in zip(rows, classes):
            preds[i] = answers.answer_of(int(cls_idx))
    return preds


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
    preds = _predict_dataset(args.checkpoint, examples)
    for i, (ex, answer) in enumerate(zip(examples, preds)):
        sys.stdout.write(json.dumps({"id": _example_id(ex, i), "answer": answer}) + "\n")
    return 0


def _load_predictions_file(path, examples):
    by_id = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{path}:{lineno}: invalid JSON ({e})") from e
        if "id" not in rec or ("answer" not in rec and "answers" not in rec):
            raise DataFormatError(f"{path}:{lineno}: need id plus answer or answers")
        by_id[rec["id"]] = rec.get("answers", [rec.get("answer")])
    preds = []
    for i, ex in enumerate(examples):
        key = _example_id(ex, i)
        if key not in by_id:
            raise DataFormatError(f"predictions file has no entry for example id {key!r}")
        preds.append(by_id[key])
    return preds


def _apply_choice_mask(checkpoint, examples, choices_path):
    rc, store, vocab, answers = mdl.load_model(checkpoint)
    choice_lists = _load_predictions_file(choices_path, examples)  # same wire shape
    data = trainer.encode_dataset(examples, vocab, answers, rc.precision)
    preds: list[str | None] = [None] * len(examples)
    mask_all = np.zeros((len(examples), len(answers)), dtype=bool)
    for i, choices in enumerate(choice_lists):
        for ch in choices:
            idx = answers.class_of(str(ch))
            if idx is not None:
                mask_all[i, idx] = True
    for rows in trainer.eval_batches(data, 256):
        feats = data.features[rows]
        tokens = np.asarray([data.token_ids[i] for i in rows], dtype=np.int64)
        classes = mdl.predict_classes(rc.model, store, feats, tokens, choice_mask=mask_all[rows])
        for i, cls_idx in zip(rows, classes):
            preds[i] = answers.answer_of(int(cls_idx)) if cls_idx >= 0 else None
    return preds


def cmd_eval(args) -> int:
    if bool(args.checkpoint) == bool(args.predictions):
        raise ConfigError("eval needs exactly one of --checkpoint or --predictions")
    examples = load_jsonl(_resolve_data(args.data))
    if not examples:
        raise DataFormatError("evaluation dataset is empty")
    if args.predictions:
        pred_lists = _load_predictions_file(args.predictions, examples)
    elif args.multiple_choice:
        pred_lists = [
            [p] if p is not None else []
            for p in _apply_choice_mask(args.checkpoint, examples, args.multiple_choice)
        ]
    else:
        pred_lists = [[p] for p in _predict_dataset(args.checkpoint, examples)]

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
    seed = args.seed if args.seed is not None else 0
    report = oracles.run_oracle_suite(seed)
    for m in report["modules"]:
        _progress(f"{'PASS' if m['passed'] else 'FAIL'} {m['module']}: {m['max_rel_err']:.2e}")
    _emit(report)
    return 0 if report["passed"] else 1


def cmd_hash_stats(args) -> int:
    spec = hashing.HashSpec(
        out_dim=args.m,
        in_dim=args.n,
        num_candidates=args.k,
        seed_bucket=args.seed_bucket,
        seed_sign=args.seed_sign,
    )
    report = hashing.hash_stats(spec)
    if args.materialize_candidates:
        from .dynlayer import materialize_weights

        candidates = np.asarray(json.loads(args.materialize_candidates), dtype=np.float64)
        report["materialized"] = materialize_weights(candidates, spec).tolist()
    _emit(report)
    return 0


def cmd_retrieve(args) -> int:
    rc, store, vocab, _ = mdl.load_model(args.checkpoint)
    corpus_ex = load_jsonl(_resolve_data(args.corpus))
    corpus = [ex.question for ex in corpus_ex]
    ranked = mdl.retrieve_similar(rc.model, store, vocab, args.query, corpus, args.top_k)
    _emit({"query": args.query, "ranked": ranked})
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="run config JSON file")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--precision", choices=PRECISIONS, default=None)
    p.add_argument("--variant", choices=VARIANTS, default=None)


def build_parser() -> argparse.ArgumentParser:
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
    _add_common(p)
    p.add_argument("--data", required=True, help="directory with train.jsonl and val.jsonl")
    p.add_argument("--out", required=True, help="checkpoint output directory")
    p.add_argument("--pretrained-encoder", help="encoder checkpoint directory")
    for name, cast in SCHEDULE_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", type=cast, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DppnetError as e:
        json.dump({"error": {"type": type(e).__name__, "message": str(e)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except FileNotFoundError as e:
        json.dump({"error": {"type": "FileNotFound", "message": str(e)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
