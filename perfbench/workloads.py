"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Each workload drives dppnet only through its public functions, always looked
up on the module (``trainer.train``, never a local alias) so that the traced
run's wrappers see every call.  A workload runs in one process, as a closed
loop with a single caller.

Lifecycle: ``setup`` (repeated; the last result is kept), ``warmup`` (once),
``op`` (timed, repeated), ``checks`` (after timing, untimed).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import tracemalloc
from pathlib import Path

import numpy as np

from dppnet import cli, data, dynlayer, encoder, model, oracles, trainer
from dppnet.config import ModelConfig, RunConfig, TrainSchedule


class Workload:
    name = ""
    item = ""  # what one counted item is
    op_kind = ""  # what one timed operation is
    setup_reps = 3
    min_ops = 1
    block_ops = 1  # operations per block of the latency figure (see run.py)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        pass

    def warmup(self):
        pass

    def kind(self, i: int) -> str:
        return self.op_kind

    def op(self, i: int) -> int:
        """Run operation i; return the number of items it processed."""
        raise NotImplementedError

    def named(self, lat: dict, items: int, wall: float) -> dict:
        """Workload-specific figures from per-kind latencies (seconds)."""
        return {}

    def checks(self) -> list:
        """Output checks as (name, passed, detail) triples."""
        return []


def _one_epoch(model_cfg=None) -> RunConfig:
    # Early stopping is disabled: patience exceeds the epoch count.
    return RunConfig(
        model=model_cfg or ModelConfig(),
        train=TrainSchedule(seed=1, max_epochs=1, patience=2),
        precision="f64",
    )


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


class Train(Workload):
    """One-epoch trainer.train calls on the default model and split."""

    name = "train"
    item = "training example"
    op_kind = "epoch"  # one trainer.train call with max_epochs=1
    setup_reps = 5
    gen = data.GenConfig()
    model_cfg = ModelConfig()
    val_floor = 0.2  # chance is ~0.08 over 13 answers; one epoch reaches ~0.35

    def setup(self):
        train_ex, val_ex, _ = data.generate_synthetic(self.gen, self.seed)
        data.build_vocab(train_ex)
        self.train_ex, self.val_ex = train_ex, val_ex
        self.rc = _one_epoch(self.model_cfg)
        self.logs = []

    def warmup(self):
        trainer.train(self.rc, self.train_ex[:256], self.val_ex[:64])

    def op(self, i):
        result = trainer.train(self.rc, self.train_ex, self.val_ex)
        self.logs.append(result.log[-1])
        self.last = result
        return len(self.train_ex)

    def named(self, lat, items, wall):
        return {"train_examples_per_s": items / wall}

    def checks(self):
        out = []
        ref = self.logs[0] if self.logs else None
        for k, log in enumerate(self.logs):
            loss = log["train_loss"]
            out.append((f"epoch {k} loss finite", math.isfinite(loss), loss))
            same = _close(loss, ref["train_loss"]) and log["val_acc"] == ref["val_acc"]
            out.append((f"epoch {k} matches the seed's reference run", same,
                        (loss, ref["train_loss"])))
            if self.val_floor is not None:
                out.append((f"epoch {k} val accuracy >= {self.val_floor}",
                            log["val_acc"] >= self.val_floor, log["val_acc"]))
        return out


class Wide(Train):
    """A 1024 x 1024 dynamic layer with 8 candidates on a small split."""

    name = "wide"
    gen = data.GenConfig(n_train=32, n_val=16, n_test=16)
    model_cfg = ModelConfig(adapter_out=1024, dyn_out=1024, num_candidates=8)
    # one optimizer step cannot learn the task, so there is no accuracy floor
    val_floor = None

    def warmup(self):
        trainer.train(self.rc, self.train_ex[:8], self.val_ex[:8])

    def checks(self):
        out = super().checks()
        if hasattr(self, "last"):
            out.append(self._transient_peak_check())
        return out

    def _transient_peak_check(self):
        # The layer streams over rows: its transient peak must stay far below
        # the bytes a materialized out x in grid would take.
        res = self.last
        cfg = res.run_config.model
        spec = cfg.hash_spec()
        enc = trainer.encode_dataset(self.train_ex, res.vocab, res.answers, "f64")
        rows = trainer.eval_batches(enc, 32)[0]
        feats = enc.features[rows]
        tokens = np.asarray([enc.token_ids[j] for j in rows])
        _, caches = model.forward(cfg, res.store, feats, tokens, mode="eval")
        f_in, cand = caches["f_in"], caches["candidates"]
        grid_bytes = spec.out_dim * spec.in_dim * 8
        peaks = []
        for call in (
            lambda: dynlayer.dyn_forward(f_in, cand, res.store["dyn.b"], spec),
            lambda: dynlayer.dyn_backward(f_in, cand, np.ones((len(rows), spec.out_dim)), spec),
        ):
            tracemalloc.start()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return ("dynamic layer transient peak < grid bytes / 4",
                max(peaks) < grid_bytes / 4, {"peaks": peaks, "grid_bytes": grid_bytes})


class Serve(Workload):
    """Inference on one checkpoint: a fixed mix of eval, predict and retrieve.

    Each round is one in-process `dppnet eval` call on the 500-example test
    split, ``predicts_per_round`` single-example predictions, and one
    retrieval over the 500-question test corpus.  Set-up generates the data,
    trains one epoch with a fixed training seed, saves and reloads the model.
    """

    name = "serve"
    item = "request (one eval call, one prediction or one retrieval)"
    gen = data.GenConfig(n_train=1000)
    predicts_per_round = 50
    block_ops = predicts_per_round + 2  # one round
    min_ops = 40 * block_ops  # retrieve p75 needs ten samples beyond it
    sample_every = 25  # predictions checked against the dense oracle
    top_k = 10

    def setup(self):
        train_ex, val_ex, test_ex = data.generate_synthetic(self.gen, self.seed)
        self.ckpt = self.workdir / "ckpt"
        self.test_path = self.workdir / "test.jsonl"
        data.save_jsonl(self.test_path, test_ex)
        res = trainer.train(_one_epoch(), train_ex, val_ex)
        model.save_model(self.ckpt, res.run_config, res.store, res.vocab, res.answers)
        rc, self.store, self.vocab, self.answers = model.load_model(self.ckpt)
        self.cfg = rc.model
        self.corpus = [ex.question for ex in test_ex]
        self.enc = trainer.encode_dataset(test_ex, self.vocab, self.answers, rc.precision)
        self.order = np.random.default_rng(self.seed).permutation(len(test_ex))
        self.evals, self.predicts, self.retrievals = [], [], []

    def kind(self, i):
        pos = i % (self.predicts_per_round + 2)
        return "eval" if pos == 0 else "retrieve" if pos == 1 else "predict"

    def named(self, lat, items, wall):
        return {
            "requests_per_s": items / wall,
            "eval_examples_per_s": len(self.enc.targets) * len(lat["eval"]) / sum(lat["eval"]),
        }

    def warmup(self):
        self._eval()
        for j in self.order[:20]:
            self._predict(int(j))
        self._retrieve(self.corpus[0])

    def op(self, i):
        j = int(self.order[i % len(self.order)])
        kind = self.kind(i)
        if kind == "eval":
            report = self._eval()
            self.evals.append(report["plain_accuracy"])
        elif kind == "retrieve":
            q = self.corpus[j]
            self.retrievals.append((q, self._retrieve(q)))
        else:
            cls = self._predict(j)
            if i % self.sample_every == 2:
                self.predicts.append((j, cls))
        return 1

    def _eval(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eval", "--checkpoint", str(self.ckpt), "--data", str(self.test_path)])
        if code != 0:
            raise RuntimeError(f"dppnet eval exited {code}")
        return json.loads(out.getvalue())

    def _predict(self, j):
        tokens = np.asarray([self.enc.token_ids[j]], dtype=np.int64)
        return int(model.predict_classes(self.cfg, self.store, self.enc.features[j : j + 1], tokens)[0])

    def _retrieve(self, query):
        return model.retrieve_similar(self.cfg, self.store, self.vocab, query, self.corpus, self.top_k)

    def checks(self):
        return self._eval_checks() + self._predict_checks() + self._retrieve_checks()

    def _eval_checks(self):
        ref = trainer.evaluate(self.cfg, self.store, self.enc)
        return [
            (f"eval {k} accuracy equals trainer.evaluate", _close(acc, ref), (acc, ref))
            for k, acc in enumerate(self.evals)
        ]

    def _predict_checks(self):
        out = []
        for j, cls in self.predicts:
            logits = _dense_logits(self.cfg, self.store, self.enc.features[j], self.enc.token_ids[j])
            # a tie within rounding may break either way
            ok = logits[cls] >= logits.max() - 1e-9 * max(1.0, abs(logits.max()))
            out.append((f"predict {j} equals the dense oracle", bool(ok),
                        (cls, int(logits.argmax()))))
        return out

    def _retrieve_checks(self):
        if not self.retrievals:
            return []
        emb = np.stack([
            model.encode_question(self.cfg, self.store, self.vocab.encode_question(c))
            for c in self.corpus
        ])
        norms = np.linalg.norm(emb, axis=1)
        out = []
        for q, ranked in self.retrievals:
            hq = model.encode_question(self.cfg, self.store, self.vocab.encode_question(q))
            denom = np.linalg.norm(hq) * norms
            sims = np.where(denom > 0, emb @ hq / np.where(denom > 0, denom, 1.0), 0.0)
            best = np.sort(sims)[::-1][: self.top_k]
            # compare similarities rank by rank, so equal-scored questions may
            # come in any order
            ok = len(ranked) == len(best) and len({r["index"] for r in ranked}) == len(ranked)
            for r, item in enumerate(ranked[: len(best)]):
                ok = ok and abs(item["similarity"] - sims[item["index"]]) <= 1e-9
                ok = ok and abs(item["similarity"] - best[r]) <= 1e-9
            out.append((f"retrieve {q!r} equals brute-force cosine top-{self.top_k}", bool(ok),
                        [it["index"] for it in ranked]))
        return out


def _dense_logits(cfg, store, features, token_ids):
    """Eval-mode logits for one example with an explicit dynamic weight matrix."""
    relu = lambda v: np.maximum(v, 0.0)
    h1 = relu(features @ store["adapter.w1"].T + store["adapter.b1"])
    f_in = relu(h1 @ store["adapter.w2"].T + store["adapter.b2"])
    x_seq = encoder.embed(np.asarray([token_ids]), store["embed.table"])
    h_last, _ = encoder.gru_encode(x_seq, encoder.GruParams.from_store(store))
    cand = h_last[0] @ store["proj.w"].T
    w = dynlayer.materialize_weights(cand, cfg.hash_spec())
    pre = w @ f_in + store["dyn.b"]
    xhat = (pre - store["bn.running_mean"]) / np.sqrt(store["bn.running_var"] + cfg.bn_eps)
    r = relu(store["bn.gamma"] * xhat + store["bn.beta"])
    return store["cls.w"] @ r + store["cls.b"]


class GradCheck(Workload):
    name = "gradcheck"
    item = "oracle module checked"
    op_kind = "gradcheck"  # one oracles.run_oracle_suite call, the `dppnet gradcheck` workflow
    setup_reps = 0  # the suite builds its own inputs from the seed

    def warmup(self):
        oracles.check_dyn_layer(np.random.default_rng(self.seed))
        self.reports = []

    def op(self, i):
        report = oracles.run_oracle_suite(self.seed)
        self.reports.append(report)
        return len(report["modules"])

    def named(self, lat, items, wall):
        return {"gradcheck_s": statistics.median(lat["gradcheck"])}

    def checks(self):
        return [
            (f"suite {k} passed", bool(rep["passed"] and rep["modules"]),
             [m["module"] for m in rep["modules"] if not m["passed"]])
            for k, rep in enumerate(self.reports)
        ]


WORKLOADS = {w.name: w for w in (Train, Wide, Serve, GradCheck)}
