import dataclasses

import numpy as np
import pytest

from conftest import toy_model_config

from dppnet import model as mdl, trainer
from dppnet.config import ModelConfig, RunConfig
from dppnet.data import build_vocab
from dppnet.errors import CheckpointError, ConfigError, ShapeError
from dppnet.tensor import softmax


@pytest.fixture
def toy_cfg():
    return toy_model_config()


@pytest.fixture
def toy_store(toy_cfg):
    return mdl.init_params(toy_cfg, "f64", seed=11)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes, through tuples and dataclasses."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and same_bits(vars(a), vars(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def toy_batch(cfg, rng, batch=3, steps=4):
    feats = rng.normal(size=(batch, cfg.feature_dim))
    tokens = rng.integers(0, cfg.vocab_size, size=(batch, steps))
    return feats, tokens


class TestForward:
    def test_distribution_sums_to_one(self, toy_cfg, toy_store):
        rng = np.random.default_rng(0)
        feats, tokens = toy_batch(toy_cfg, rng)
        probs, _ = mdl.forward(toy_cfg, toy_store, feats, tokens)
        assert probs.shape == (3, toy_cfg.num_answers)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_zero_projection_and_bias_ignores_question(self, toy_cfg, toy_store):
        toy_store["proj.w"] = np.zeros_like(toy_store["proj.w"])
        toy_store["dyn.b"] = np.zeros_like(toy_store["dyn.b"])
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(1, toy_cfg.feature_dim))
        q1 = rng.integers(0, toy_cfg.vocab_size, size=(1, 4))
        q2 = rng.integers(0, toy_cfg.vocab_size, size=(1, 6))
        p1, _ = mdl.forward(toy_cfg, toy_store, feats, q1)
        p2, _ = mdl.forward(toy_cfg, toy_store, feats, q2)
        assert np.array_equal(p1, p2)

    def test_eval_forward_bit_deterministic(self, toy_cfg, toy_store):
        rng = np.random.default_rng(2)
        feats, tokens = toy_batch(toy_cfg, rng)
        a, _ = mdl.forward(toy_cfg, toy_store, feats, tokens, mode="eval")
        b, _ = mdl.forward(toy_cfg, toy_store, feats, tokens, mode="eval")
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", ["dppnet", "concat"])
    def test_train_forward_leaves_the_store_unchanged(self, variant):
        cfg = toy_model_config(variant=variant)
        store = mdl.init_params(cfg, "f64", seed=13)
        before = {name: (value, value.tobytes()) for name, value in store.items()}
        feats, tokens = toy_batch(cfg, np.random.default_rng(6))
        _, caches = mdl.forward(cfg, store, feats, tokens, mode="train")
        for name, (value, bits) in before.items():
            assert store[name] is value and value.tobytes() == bits, name
        # the running stats the batch leads to are returned, not written
        mean, var = caches["bn_running"]
        assert not np.array_equal(mean, store["bn.running_mean"])
        assert not np.array_equal(var, store["bn.running_var"])

    @pytest.mark.parametrize("variant", ["dppnet", "concat"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_forward_is_head_of_question_branch(self, variant, mode):
        # the two stages the oracle calls separately give forward's bits
        cfg = toy_model_config(variant=variant)
        store = mdl.init_params(cfg, "f64", seed=17)
        feats, tokens = toy_batch(cfg, np.random.default_rng(8))
        probs, caches = mdl.forward(cfg, store, feats, tokens, mode=mode)
        staged = mdl.head(cfg, store, feats, mdl.question_branch(store, tokens), mode)
        assert same_bits(probs, softmax(staged["logits"]))
        assert set(caches) == set(staged)
        for key, value in staged.items():
            assert same_bits(caches[key], value), key

    def test_batch_mismatch_rejected(self, toy_cfg, toy_store):
        rng = np.random.default_rng(3)
        with pytest.raises(ShapeError):
            mdl.forward(toy_cfg, toy_store, rng.normal(size=(2, toy_cfg.feature_dim)),
                        rng.integers(0, 5, size=(3, 4)))

    def test_feature_dim_mismatch_rejected(self, toy_cfg, toy_store):
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeError):
            mdl.forward(toy_cfg, toy_store, rng.normal(size=(2, 7)),
                        rng.integers(0, 5, size=(2, 4)))

    def test_concat_distribution_sums_to_one(self):
        cfg = toy_model_config(variant="concat")
        store = mdl.init_params(cfg, "f64", seed=12)
        rng = np.random.default_rng(5)
        feats, tokens = toy_batch(cfg, rng)
        probs, _ = mdl.forward(cfg, store, feats, tokens)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_unresolved_config_rejected(self):
        cfg = ModelConfig()
        with pytest.raises(ConfigError, match="resolved"):
            mdl.init_params(cfg, "f64", seed=0)


class TestPredict:
    def test_unique_max(self, toy_cfg, toy_store):
        rng = np.random.default_rng(6)
        feats, tokens = toy_batch(toy_cfg, rng, batch=4)
        probs, _ = mdl.forward(toy_cfg, toy_store, feats, tokens)
        preds = mdl.predict_classes(toy_cfg, toy_store, feats, tokens)
        assert np.array_equal(preds, probs.argmax(axis=1))

    def test_uniform_distribution_breaks_tie_to_class_zero(self, toy_cfg):
        # zero weights everywhere -> logits identical -> lowest index wins
        store = mdl.init_params(toy_cfg, "f64", seed=13)
        for name in store.names():
            if store.is_trainable(name):
                store[name] = np.zeros_like(store[name])
        rng = np.random.default_rng(7)
        feats, tokens = toy_batch(toy_cfg, rng, batch=2)
        preds = mdl.predict_classes(toy_cfg, store, feats, tokens)
        assert np.array_equal(preds, [0, 0])

    def test_engineered_tie_between_two_and_five(self, toy_cfg):
        store = mdl.init_params(toy_cfg, "f64", seed=14)
        for name in store.names():
            if store.is_trainable(name):
                store[name] = np.zeros_like(store[name])
        bias = np.zeros(toy_cfg.num_answers)
        bias[2] = bias[5] = 1.0
        store["cls.b"] = bias
        rng = np.random.default_rng(8)
        feats, tokens = toy_batch(toy_cfg, rng, batch=1)
        assert mdl.predict_classes(toy_cfg, store, feats, tokens)[0] == 2

    def test_choice_mask_restricts_argmax(self, toy_cfg, toy_store):
        rng = np.random.default_rng(9)
        feats, tokens = toy_batch(toy_cfg, rng, batch=2)
        probs, _ = mdl.forward(toy_cfg, toy_store, feats, tokens)
        mask = np.zeros_like(probs, dtype=bool)
        mask[:, [1, 3]] = True
        preds = mdl.predict_classes(toy_cfg, toy_store, feats, tokens, choice_mask=mask)
        assert set(preds.tolist()) <= {1, 3}
        none_mask = np.zeros_like(mask)
        preds = mdl.predict_classes(toy_cfg, toy_store, feats, tokens, choice_mask=none_mask)
        assert np.array_equal(preds, [-1, -1])

    @pytest.mark.parametrize("variant", ["dppnet", "concat"])
    def test_overflowing_logits_are_refused(self, variant):
        # finite weights whose logits overflow: argmax over them would
        # answer class 0 for every row
        cfg = toy_model_config(variant=variant)
        store = mdl.init_params(cfg, "f64", seed=15)
        store["cls.w"] = np.full_like(store["cls.w"], 1e308)
        store["bn.beta"] = np.full_like(store["bn.beta"], 2.0)  # every r_out entry well above 0
        feats, tokens = toy_batch(cfg, np.random.default_rng(10), batch=3)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="logits"):
            mdl.predict_classes(cfg, store, feats, tokens)


class TestParameterAccounting:
    def test_counts_match_within_five_percent(self):
        cfg = ModelConfig(feature_dim=22, num_answers=13, vocab_size=16)
        counts = mdl.parameter_counts(cfg)
        assert 0.95 <= counts["ratio"] <= 1.05

    def test_counts_match_at_toy_dims(self, toy_cfg):
        counts = mdl.parameter_counts(toy_cfg)
        assert 0.95 <= counts["ratio"] <= 1.05

    @pytest.mark.parametrize("variant", ["dppnet", "concat"])
    @pytest.mark.parametrize("gru_bias", [False, True])
    def test_count_is_the_initialized_stores(self, variant, gru_bias):
        cfg = toy_model_config(variant=variant, gru_bias=gru_bias)
        store = mdl.init_params(cfg, "f64", seed=0)
        assert mdl.count_trainable(cfg) == sum(
            store[n].size for n in store.names() if store.is_trainable(n))

    @pytest.mark.parametrize("widths", [{}, {"adapter_out": 1024, "dyn_out": 1024,
                                             "num_candidates": 8}], ids=["default", "wide"])
    def test_size_limit_is_the_buffer_bytes(self, monkeypatch, widths):
        cfg = ModelConfig(feature_dim=22, num_answers=13, vocab_size=16, **widths)
        store = mdl.init_params(cfg, "f64", seed=0)
        # one buffer in draw order, the limit on its bytes inclusive
        assert [store.span(n)[0] for n in store] == sorted(store.span(n)[0] for n in store)
        monkeypatch.setattr(mdl, "MAX_PARAM_BYTES", store.buffer.nbytes)
        mdl.init_params(cfg, "f64", seed=0)
        monkeypatch.setattr(mdl, "MAX_PARAM_BYTES", store.buffer.nbytes - 1)
        with pytest.raises(ConfigError, match=r"adapter_out=\d+, dyn_out=\d+, num_candidates="):
            mdl.init_params(cfg, "f64", seed=0)
        mdl.init_params(cfg, "f32", seed=0)  # half the bytes

    def test_no_dynamic_weight_tensor_is_ever_stored(self, toy_cfg, toy_store):
        grid = toy_cfg.dyn_out * toy_cfg.adapter_out
        for name in toy_store.names():
            assert toy_store[name].size != grid or name == "proj.w"
        assert "dyn.w" not in toy_store
        assert "candidates" not in toy_store

    def test_optimizer_only_writes_static_and_producing_params(self, toy_cfg, toy_store):
        rng = np.random.default_rng(10)
        feats, tokens = toy_batch(toy_cfg, rng, batch=4)
        targets = rng.integers(0, toy_cfg.num_answers, size=4)
        loss, _, grads = mdl.loss_and_grads(toy_cfg, toy_store, feats, tokens, targets)
        st = trainer.AdamState()
        before = {n: toy_store[n].copy() for n in toy_store.names()}
        trainer.adam_step(toy_store, grads, st)
        for name in toy_store.names():
            if not toy_store.is_trainable(name):
                assert np.array_equal(before[name], toy_store[name]), name


class TestCheckpointRoundTrip:
    def test_save_load_bit_exact(self, tmp_path, toy_cfg, toy_store):
        from dppnet.data import QAExample

        examples = [QAExample(features=np.zeros(2), question="what is it", answers=["x"])]
        vocab, answers = build_vocab(examples)
        cfg = dataclasses.replace(toy_cfg, vocab_size=len(vocab), num_answers=len(answers))
        store = mdl.init_params(cfg, "f64", seed=15)
        rc = RunConfig(model=cfg)
        mdl.save_model(tmp_path, rc, store, vocab, answers)
        rc2, store2, vocab2, answers2 = mdl.load_model(tmp_path)
        assert rc2.model == cfg
        assert vocab2.as_dict() == vocab.as_dict()
        assert answers2.as_list() == answers.as_list()
        for name in store.names():
            assert np.array_equal(store[name], store2[name])

    def test_inconsistent_answer_count_rejected(self, tmp_path, toy_cfg):
        from dppnet.data import QAExample

        examples = [QAExample(features=np.zeros(2), question="what is it", answers=["x"])]
        vocab, answers = build_vocab(examples)
        cfg = dataclasses.replace(toy_cfg, vocab_size=len(vocab), num_answers=len(answers))
        store = mdl.init_params(cfg, "f64", seed=16)
        mdl.save_model(tmp_path, RunConfig(model=cfg), store, vocab, answers)
        bad = dataclasses.replace(cfg, num_answers=99)
        RunConfig(model=bad).save(tmp_path / "config.json")
        with pytest.raises(CheckpointError, match="answers"):
            mdl.load_model(tmp_path)

    def test_load_checks_shapes_without_drawing(self, tmp_path, toy_cfg, monkeypatch):
        saved = self._checkpoint(toy_cfg, "f64", 22)
        mdl.save_model(tmp_path, *saved)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        _, store, _, _ = mdl.load_model(tmp_path)
        assert all(same_bits(store[n], saved[1][n]) for n in saved[1].names())

    def test_missing_piece_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            mdl.load_model(tmp_path)

    @staticmethod
    def _checkpoint(toy_cfg, precision, seed):
        from dppnet.data import QAExample

        examples = [QAExample(features=np.zeros(2), question="what is it", answers=["x"])]
        vocab, answers = build_vocab(examples)
        cfg = dataclasses.replace(toy_cfg, vocab_size=len(vocab), num_answers=len(answers))
        rc = RunConfig(model=cfg, precision=precision)
        return rc, mdl.init_params(cfg, precision, seed=seed), vocab, answers

    def test_failed_save_leaves_the_old_checkpoint(self, tmp_path, toy_cfg, monkeypatch):
        from pathlib import Path

        directory = tmp_path / "ckpt"
        old = self._checkpoint(toy_cfg, "f64", 17)
        mdl.save_model(directory, *old, log=[{"epoch": 1}])
        saved = {p.name: p.read_bytes() for p in directory.iterdir()}
        assert set(saved) == set(mdl.CHECKPOINT_FILES)

        def fail(self, data):  # the blob, written right after the manifest
            raise OSError("no space left")

        monkeypatch.setattr(Path, "write_bytes", fail)
        with pytest.raises(OSError, match="no space"):
            mdl.save_model(directory, *self._checkpoint(toy_cfg, "f32", 18), log=[])
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == saved
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        _, store, _, _ = mdl.load_model(directory)
        assert all(same_bits(store[n], old[1][n]) for n in old[1].names())

    def test_save_replaces_a_checkpoint_whole(self, tmp_path, toy_cfg):
        directory = tmp_path / "ckpt"
        mdl.save_model(directory, *self._checkpoint(toy_cfg, "f64", 19), log=[{"epoch": 1}])
        new = self._checkpoint(toy_cfg, "f32", 20)
        mdl.save_model(directory, *new)
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            set(mdl.CHECKPOINT_FILES) - {mdl.LOG_NAME})
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        rc, store, _, _ = mdl.load_model(directory)
        assert rc.precision == "f32"
        assert all(same_bits(store[n], new[1][n]) for n in new[1].names())

    def test_save_leaves_a_directory_of_other_files_alone(self, tmp_path, toy_cfg):
        (tmp_path / "notes.txt").write_text("keep")
        with pytest.raises(FileExistsError, match="notes.txt"):
            mdl.save_model(tmp_path, *self._checkpoint(toy_cfg, "f64", 21))
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
        with pytest.raises(FileExistsError):
            mdl.save_model(tmp_path / "notes.txt", *self._checkpoint(toy_cfg, "f64", 21))


class TestRetrieval:
    def test_identical_question_ranks_first_with_similarity_one(self, toy_cfg, toy_store):
        from dppnet.data import QAExample

        corpus_ex = [QAExample(np.zeros(1), q, ["a"]) for q in
                     ("what color is it", "how many things", "is it red")]
        vocab, _ = build_vocab(corpus_ex)
        ranked = mdl.retrieve_similar(
            toy_cfg, toy_store, vocab, "how many things",
            [ex.question for ex in corpus_ex], top_k=3,
        )
        assert ranked[0]["question"] == "how many things"
        assert ranked[0]["similarity"] == pytest.approx(1.0, abs=1e-12)

    def test_top_k_larger_than_corpus_returns_all(self, toy_cfg, toy_store):
        from dppnet.data import QAExample

        corpus_ex = [QAExample(np.zeros(1), q, ["a"]) for q in ("what color", "how many")]
        vocab, _ = build_vocab(corpus_ex)
        ranked = mdl.retrieve_similar(toy_cfg, toy_store, vocab, "what color",
                                      [ex.question for ex in corpus_ex], top_k=50)
        assert len(ranked) == 2

    def test_repeated_corpus_matches_per_question_cosine(self, toy_cfg, toy_store):
        from dppnet.data import QAExample

        questions = ("what color is it", "how many things", "is it red", "what is it")
        pick = np.random.default_rng(25).integers(0, len(questions), size=300)
        corpus = [questions[i] for i in pick]
        vocab, _ = build_vocab([QAExample(np.zeros(1), q, ["a"]) for q in questions])
        ranked = mdl.retrieve_similar(toy_cfg, toy_store, vocab, "is it", corpus, top_k=300)
        hq = mdl.encode_question(toy_cfg, toy_store, vocab.encode_question("is it"))
        for r in ranked:
            h = mdl.encode_question(toy_cfg, toy_store, vocab.encode_question(r["question"]))
            want = h @ hq / (np.linalg.norm(h) * np.linalg.norm(hq))
            assert abs(r["similarity"] - want) <= 1e-12
        # repeats of one question score alike, so they rank in corpus order
        assert sorted(r["index"] for r in ranked) == list(range(300))
        for q in questions:
            at = [r["index"] for r in ranked if r["question"] == q]
            assert at == sorted(at)

    def test_empty_corpus_rejected(self, toy_cfg, toy_store):
        from dppnet.data import Vocabulary

        with pytest.raises(ConfigError):
            mdl.retrieve_similar(toy_cfg, toy_store, Vocabulary(["what"]), "what", [], 3)


class TestTrainedFixtureBehavior:
    def test_reaches_benchmark_accuracy(self, dppnet_seed1):
        assert dppnet_seed1["test_acc"] >= 0.90

    def test_question_sensitivity_on_same_image(self, dppnet_seed1):
        result = dppnet_seed1["result"]
        cfg = result.run_config.model
        distinct = 0
        for ex in dppnet_seed1["test_examples"][:40]:
            feats = ex.features[None, :]
            qa = result.vocab.encode_question("what color is the square?")
            qb = result.vocab.encode_question("how many square?")
            pa = mdl.predict_classes(cfg, result.store, feats, np.array([qa]))
            pb = mdl.predict_classes(cfg, result.store, feats, np.array([qb]))
            if pa[0] != pb[0]:
                distinct += 1
        assert distinct > 0  # the same image answers differently per question

    def test_color_probe_answers_ground_truth(self, dppnet_seed1):
        result = dppnet_seed1["result"]
        cfg = result.run_config.model
        from dppnet.data import GenConfig, generate_synthetic

        probe_cfg = GenConfig(
            n_train=60, n_val=1, n_test=1, noise=0.0,
            template_mix=(1.0, 0.0, 0.0, 0.0),
        )
        probes, _, _ = generate_synthetic(probe_cfg, seed=77)
        data = trainer.encode_dataset(probes, result.vocab, result.answers, "f64")
        acc = trainer.evaluate(cfg, result.store, data)
        assert acc >= 0.9
        # the headline probe: color of the square
        square = next(ex for ex in probes if ex.question == "what color is the square?")
        ids = result.vocab.encode_question(square.question)
        pred = mdl.predict_classes(cfg, result.store, square.features[None, :],
                                   np.array([ids]))[0]
        assert result.answers.answer_of(int(pred)) == square.answers[0]

    def test_retrieval_groups_templates(self, dppnet_seed1):
        # fine-tuned embeddings must organize by question type: per probe, the
        # mean retrieval rank of same-template questions beats the rest
        result = dppnet_seed1["result"]
        cfg = result.run_config.model
        by_template = {}
        for ex in dppnet_seed1["test_examples"]:
            bucket = by_template.setdefault(ex.meta["template"], [])
            if ex.question not in bucket:
                bucket.append(ex.question)
        templates = sorted(by_template)
        hits = 0
        probes = 0
        for template in templates:
            for q in by_template[template][:5]:
                same = [s for s in by_template[template] if s != q][:15]
                different = []
                for t in templates:
                    if t != template:
                        different.extend(by_template[t][:5])
                corpus = same + different
                ranked = mdl.retrieve_similar(cfg, result.store, result.vocab,
                                              q, corpus, top_k=len(corpus))
                ranks = {}
                for r in ranked:
                    ranks.setdefault(r["question"], r["rank"])
                probes += 1
                if np.mean([ranks[s] for s in same]) < np.mean(
                    [ranks[d] for d in different]
                ):
                    hits += 1
        assert hits / probes >= 0.9


class TestEncodeQuestions:
    def test_matches_per_question_encoding_across_buckets(self, toy_cfg, toy_store):
        rng = np.random.default_rng(21)
        # 300 questions of length 3 (two batches of at most 256), mixed in
        # with other lengths so input order and bucket order differ
        lengths = [3] * 300 + [1] * 7 + [5] * 40 + [9] * 2
        lengths = [lengths[i] for i in rng.permutation(len(lengths))]
        ids = [rng.integers(0, toy_cfg.vocab_size, size=n).tolist() for n in lengths]
        got = mdl.encode_questions(toy_cfg, toy_store, ids)
        want = np.stack([mdl.encode_question(toy_cfg, toy_store, q) for q in ids])
        assert got.shape == (len(ids), toy_cfg.hidden_dim)
        assert np.abs(got - want).max() <= 1e-12

    def test_one_gru_call_per_bucket_of_at_most_256(self, toy_cfg, toy_store, monkeypatch):
        from dppnet import encoder as enc

        sizes = []
        real = enc.gru_encode
        monkeypatch.setattr(enc, "gru_encode", lambda x, p: sizes.append(x.shape[:2]) or real(x, p))
        # distinct questions, so that none is shared: 300 of length 3 and 5 of length 1
        v = toy_cfg.vocab_size
        ids = [[i // (v * v), i // v % v, i % v] for i in range(300)] + [[i] for i in range(5)]
        mdl.encode_questions(toy_cfg, toy_store, ids)
        assert sorted(sizes) == [(5, 1), (44, 3), (256, 3)]

    def test_gru_encodes_each_distinct_question_once(self, toy_cfg, toy_store, monkeypatch):
        from dppnet import encoder as enc

        rows = []
        real = enc.gru_encode
        monkeypatch.setattr(enc, "gru_encode", lambda x, p: rows.append(len(x)) or real(x, p))
        v = toy_cfg.vocab_size
        pool = [[1, 2, 3], [3, 2, 1], [v - 1, 0, 5], [4], [7, 7, 7, 7, 7]]
        ids = [pool[i] for i in np.random.default_rng(23).integers(0, len(pool), size=400)]
        got = mdl.encode_questions(toy_cfg, toy_store, ids)
        assert sum(rows) == len(pool)
        want = np.stack([mdl.encode_question(toy_cfg, toy_store, q) for q in ids])
        assert np.abs(got - want).max() <= 1e-12

        rows.clear()
        tokens = np.asarray([q for q in ids if len(q) == 3][:256])
        feats = np.random.default_rng(24).normal(size=(len(tokens), toy_cfg.feature_dim))
        mdl.predict_classes(toy_cfg, toy_store, feats, tokens)
        assert rows == [3]


class TestRetrievalBoundaries:
    def corpus(self):
        from dppnet.data import QAExample

        corpus_ex = [QAExample(np.zeros(1), q, ["a"]) for q in ("what color", "how many")]
        vocab, _ = build_vocab(corpus_ex)
        return vocab, [ex.question for ex in corpus_ex]

    @pytest.mark.parametrize("top_k", [0, -1, -50])
    def test_top_k_below_one_rejected_naming_the_flag(self, toy_cfg, toy_store, top_k):
        vocab, corpus = self.corpus()
        with pytest.raises(ConfigError, match="--top-k"):
            mdl.retrieve_similar(toy_cfg, toy_store, vocab, "what color", corpus, top_k)

    def test_top_k_one_returns_one(self, toy_cfg, toy_store):
        vocab, corpus = self.corpus()
        ranked = mdl.retrieve_similar(toy_cfg, toy_store, vocab, "what color", corpus, 1)
        assert [r["question"] for r in ranked] == ["what color"]

    def test_zero_embeddings_score_zero(self, toy_cfg, toy_store):
        # zero GRU weights keep the state at zero: every norm is zero
        for name in toy_store.names():
            if name.startswith("gru."):
                toy_store[name] = np.zeros_like(toy_store[name])
        vocab, corpus = self.corpus()
        ranked = mdl.retrieve_similar(toy_cfg, toy_store, vocab, "what color", corpus, 2)
        assert [r["similarity"] for r in ranked] == [0.0, 0.0]
        assert [r["index"] for r in ranked] == [0, 1]


class TestPredictDataset:
    """model.predict_dataset is the one batched prediction path: validation,
    `dppnet eval`, `--multiple-choice` and `predict` all go through it."""

    def dataset(self, cfg, rng, distinct=None):
        # 300 questions of length 3 (two batches of at most 256), mixed in
        # with other lengths so input order and bucket order differ; with
        # `distinct`, each row asks one of that many questions per length
        lengths = [3] * 300 + [1] * 7 + [5] * 40 + [9] * 2
        lengths = [lengths[i] for i in rng.permutation(len(lengths))]
        ids = [rng.integers(0, cfg.vocab_size, size=n).tolist() for n in lengths]
        if distinct is not None:
            pool = {n: [ids[i] for i in range(len(ids)) if lengths[i] == n][:distinct]
                    for n in set(lengths)}
            ids = [pool[n][rng.integers(len(pool[n]))] for n in lengths]
        feats = rng.normal(size=(len(ids), cfg.feature_dim))
        targets = rng.integers(0, cfg.num_answers, size=len(ids))
        return trainer.EncodedDataset(features=feats, token_ids=ids, targets=targets)

    def row_by_row(self, cfg, store, data, mask=None):
        return np.array([
            mdl.predict_classes(cfg, store, data.features[i : i + 1], [data.token_ids[i]],
                                None if mask is None else mask[i : i + 1])[0]
            for i in range(len(data.token_ids))
        ])

    def test_equals_row_by_row_in_input_order(self, toy_cfg, toy_store):
        data = self.dataset(toy_cfg, np.random.default_rng(40))
        got = mdl.predict_dataset(toy_cfg, toy_store, data)
        assert len(set(got.tolist())) > 1
        assert np.array_equal(got, self.row_by_row(toy_cfg, toy_store, data))

    def test_repeated_questions_equal_row_by_row(self, toy_cfg, toy_store):
        data = self.dataset(toy_cfg, np.random.default_rng(44), distinct=3)
        assert len({tuple(q) for q in data.token_ids}) <= 12
        got = mdl.predict_dataset(toy_cfg, toy_store, data)
        assert len(set(got.tolist())) > 1
        assert np.array_equal(got, self.row_by_row(toy_cfg, toy_store, data))

    def test_choice_mask_row_by_row_and_empty_rows(self, toy_cfg, toy_store):
        rng = np.random.default_rng(41)
        data = self.dataset(toy_cfg, rng)
        mask = rng.random((len(data.token_ids), toy_cfg.num_answers)) < 0.4
        mask[::17] = False
        got = mdl.predict_dataset(toy_cfg, toy_store, data, mask)
        assert np.array_equal(got, self.row_by_row(toy_cfg, toy_store, data, mask))
        assert (got[::17] == -1).all()
        answered = np.flatnonzero(got >= 0)
        assert len(answered) == (mask.any(axis=1)).sum()
        assert mask[answered, got[answered]].all()

    def test_one_predict_call_per_batch_of_at_most_256(self, toy_cfg, toy_store, monkeypatch):
        sizes = []
        real = mdl.predict_classes
        monkeypatch.setattr(mdl, "predict_classes",
                            lambda c, s, f, t, m=None: sizes.append(t.shape) or real(c, s, f, t, m))
        data = self.dataset(toy_cfg, np.random.default_rng(42))
        mdl.predict_dataset(toy_cfg, toy_store, data)
        assert sorted(sizes) == [(2, 9), (7, 1), (40, 5), (44, 3), (256, 3)]

    def test_evaluate_equals_the_batched_loop(self, toy_cfg, toy_store):
        data = self.dataset(toy_cfg, np.random.default_rng(43))
        # make about half the targets right so the accuracy is not trivial
        preds = self.row_by_row(toy_cfg, toy_store, data)
        data.targets[::2] = preds[::2]
        correct = 0
        for rows in trainer.eval_batches(data, 256):
            tokens = np.asarray([data.token_ids[i] for i in rows], dtype=np.int64)
            classes = mdl.predict_classes(toy_cfg, toy_store, data.features[rows], tokens)
            correct += int((classes == data.targets[rows]).sum())
        want = correct / len(data.targets)
        assert 0.5 <= want < 1.0
        assert trainer.evaluate(toy_cfg, toy_store, data) == want


def all_rows_reference(cfg, store, feats, tokens, targets):
    """loss_and_grads with the encoder run forward and backward on every row:
    enc.embed and enc.gru_encode here, and enc.gru_encode_backward inside
    backward, since the identity record makes every row its own question."""
    from dppnet import encoder as enc
    from dppnet.tensor import softmax_xent

    x_seq = enc.embed(tokens, store["embed.table"])
    h_last, trace = enc.gru_encode(x_seq, enc.GruParams.from_store(store))
    question = (tokens, np.arange(len(tokens)), None)
    caches = mdl.head(cfg, store, feats, (h_last, trace, question), "train")
    loss, dlogits = softmax_xent(caches["logits"], targets)
    return loss, caches, mdl.backward(cfg, store, caches, dlogits)


class TestSharedQuestions:
    @staticmethod
    def batch(cfg, questions, seed):
        # one row per entry of questions, an index into a pool of distinct questions
        rng = np.random.default_rng(seed)
        pool = [rng.permutation(cfg.vocab_size)[:4] for _ in range(max(questions) + 1)]
        tokens = np.stack([pool[q] for q in questions])
        feats = rng.normal(size=(len(questions), cfg.feature_dim))
        targets = rng.integers(0, cfg.num_answers, size=len(questions))
        return feats, tokens, targets

    @pytest.mark.parametrize("variant, precision, rel", [
        ("dppnet", "f64", 1e-12), ("concat", "f64", 1e-12),
        ("dppnet", "f32", 1e-5), ("concat", "f32", 1e-5),
    ], ids=["dppnet", "concat", "dppnet-f32", "concat-f32"])
    def test_repeats_match_the_all_rows_reference(self, variant, precision, rel, monkeypatch):
        from dppnet import encoder as enc

        cfg = toy_model_config(variant=variant)
        store = mdl.init_params(cfg, precision, seed=31)
        feats, tokens, targets = self.batch(cfg, [0, 1, 0, 2, 1, 0], seed=32)
        feats = feats.astype(store["adapter.w1"].dtype)  # as forward casts them
        loss, caches, grads = mdl.loss_and_grads(cfg, store, feats, tokens, targets)
        assert len(caches["shared"][0]) == 3

        rows = []
        real = enc.gru_encode_backward
        monkeypatch.setattr(enc, "gru_encode_backward",
                            lambda trace, p, dh: rows.append(len(dh)) or real(trace, p, dh))
        want_loss, want_caches, want = all_rows_reference(cfg, store, feats, tokens, targets)
        assert rows == [6]
        assert abs(loss - want_loss) <= rel * abs(want_loss)
        assert np.abs(caches["logits"] - want_caches["logits"]).max() <= rel
        assert grads.keys() == want.keys()
        for name, g in want.items():
            assert grads[name].dtype == g.dtype == store[name].dtype, name
            assert np.abs(grads[name] - g).max() <= rel * np.abs(g).max(), name

    def encoder_calls(self, variant, monkeypatch):
        """(encoder function, rows...) for each encoder call one training step
        makes, on 8 rows asking 3 questions."""
        from dppnet import encoder as enc

        cfg = toy_model_config(variant=variant)
        store = mdl.init_params(cfg, "f64", seed=11)
        rows = []
        forward, backward, scatter = enc.gru_encode, enc.gru_encode_backward, enc.embed_backward
        monkeypatch.setattr(enc, "gru_encode", lambda x, p: rows.append(
            ("gru_encode", len(x))) or forward(x, p))
        monkeypatch.setattr(enc, "gru_encode_backward", lambda trace, p, dh: rows.append(
            ("gru_encode_backward", trace.h_bar.shape[1], len(dh))) or backward(trace, p, dh))
        monkeypatch.setattr(enc, "embed_backward", lambda tokens, d, v: rows.append(
            ("embed_backward", len(tokens), len(d))) or scatter(tokens, d, v))
        feats, tokens, targets = self.batch(cfg, [2, 0, 0, 1, 2, 2, 0, 1], seed=33)
        mdl.loss_and_grads(cfg, store, feats, tokens, targets)
        return rows

    def test_a_training_step_encodes_only_the_distinct_rows(self, monkeypatch):
        # the dynamic layer hands over d_candidates already summed per question
        assert self.encoder_calls("dppnet", monkeypatch) == [
            ("gru_encode", 3), ("gru_encode_backward", 3, 3), ("embed_backward", 3, 3)]

    def test_the_concat_mixer_sums_its_rows_before_the_gru(self, monkeypatch):
        # the first scatter sums the 8 rows' dh_last into the 3 questions' rows
        assert self.encoder_calls("concat", monkeypatch) == [
            ("gru_encode", 3), ("embed_backward", 8, 8),
            ("gru_encode_backward", 3, 3), ("embed_backward", 3, 3)]

    def test_a_training_step_predicts_each_questions_weights_once(self, toy_cfg, toy_store,
                                                                 monkeypatch):
        from dppnet import encoder as enc, hashing

        rows = []
        project, unproject = enc.predict_candidates, enc.predict_candidates_backward
        table = hashing.SpecCodes.signed_table
        monkeypatch.setattr(enc, "predict_candidates", lambda h, w: rows.append(
            ("predict_candidates", len(h))) or project(h, w))
        monkeypatch.setattr(enc, "predict_candidates_backward", lambda h, w, d: rows.append(
            ("predict_candidates_backward", len(h), len(d))) or unproject(h, w, d))
        monkeypatch.setattr(hashing.SpecCodes, "signed_table", lambda codes, p: rows.append(
            ("signed_table", len(p))) or table(codes, p))
        feats, tokens, targets = self.batch(toy_cfg, [2, 0, 0, 1, 2, 2, 0, 1], seed=37)
        _, caches, _ = mdl.loss_and_grads(toy_cfg, toy_store, feats, tokens, targets)
        assert rows == [("predict_candidates", 3), ("signed_table", 3), ("signed_table", 3),
                        ("predict_candidates_backward", 3, 3)]
        # the layer's input as perfbench reads it: one candidate row per example
        inverse = caches["shared"][1]
        assert same_bits(caches["candidates"], caches["question_candidates"][inverse])

    @pytest.mark.parametrize("variant", ["dppnet", "concat"])
    def test_distinct_rows_keep_the_all_rows_bits(self, variant):
        cfg = toy_model_config(variant=variant)
        store = mdl.init_params(cfg, "f64", seed=34)
        feats, tokens, targets = self.batch(cfg, [0, 1, 2, 3], seed=35)
        got = mdl.loss_and_grads(cfg, store, feats, tokens, targets)
        want = all_rows_reference(cfg, store, feats, tokens, targets)
        assert got[2]["embed.table"].any()
        assert same_bits(got[0], want[0]) and same_bits(got[2], want[2])
        for key, value in want[1].items():
            assert same_bits(got[1][key], value), key

    def test_a_single_row_skips_the_bookkeeping(self, toy_cfg, toy_store, monkeypatch):
        feats, tokens, _ = self.batch(toy_cfg, [0], seed=36)
        monkeypatch.setattr(mdl, "_distinct", None)
        _, caches = mdl.forward(toy_cfg, toy_store, feats, tokens)
        assert same_bits(caches["shared"], (tokens, np.arange(1), None))
        assert mdl.predict_classes(toy_cfg, toy_store, feats, tokens).shape == (1,)


class TestFrozenBranches:
    """backward returns the gradients of the updatable tensors alone, each
    with the bits the all-live backward gives it from the same caches, and
    runs no branch whose tensors are all frozen."""

    @pytest.mark.parametrize("frozen", [
        ("adapter",), ("embed", "gru"), ("adapter", "embed", "gru"),
    ], ids=["adapter", "encoder", "adapter-and-encoder"])
    @pytest.mark.parametrize("variant", ["dppnet", "concat"])
    def test_only_updatable_tensors_get_gradients(self, variant, frozen, monkeypatch):
        from dppnet import encoder as enc
        from dppnet.tensor import softmax_xent

        cfg = toy_model_config(variant=variant)
        store = mdl.init_params(cfg, "f64", seed=38)
        feats, tokens, targets = TestSharedQuestions.batch(cfg, [0, 1, 0, 2, 1, 0], seed=39)
        _, caches = mdl.forward(cfg, store, feats, tokens, "train")
        _, dlogits = softmax_xent(caches["logits"], targets)
        want = mdl.backward(cfg, store, caches, dlogits)
        assert set(want) == {n for n in store.names() if store.is_trainable(n)}

        calls = []
        for module, name in ((enc, "gru_encode_backward"), (enc, "embed_backward"),
                             (mdl, "_adapter_backward"), (mdl, "dyn_backward")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name, **kw: (
                calls.append((_name, kw.get("d_features"))) or _real(*a, **kw)))
        for prefix in frozen:
            store.freeze(prefix)
        got = mdl.backward(cfg, store, caches, dlogits)
        assert set(got) == set(store.updatable_names())
        for name, g in got.items():
            assert same_bits(g, want[name]), name
        ran = {name for name, _ in calls}
        assert ("_adapter_backward" in ran) == ("adapter" not in frozen)
        assert ("gru_encode_backward" in ran) == ("gru" not in frozen)
        assert ("embed_backward" in ran) == ("embed" not in frozen)
        if variant == "dppnet":
            assert ("dyn_backward", "adapter" not in frozen) in calls
