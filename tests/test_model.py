import dataclasses

import numpy as np
import pytest

from conftest import toy_model_config

from dppnet import model as mdl, trainer
from dppnet.config import ModelConfig, RunConfig
from dppnet.data import build_vocab
from dppnet.errors import CheckpointError, ConfigError, ShapeError


@pytest.fixture
def toy_cfg():
    return toy_model_config()


@pytest.fixture
def toy_store(toy_cfg):
    return mdl.init_params(toy_cfg, "f64", seed=11)


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


class TestParameterAccounting:
    def test_counts_match_within_five_percent(self):
        cfg = ModelConfig(feature_dim=22, num_answers=13, vocab_size=16)
        counts = mdl.parameter_counts(cfg)
        assert 0.95 <= counts["ratio"] <= 1.05

    def test_counts_match_at_toy_dims(self, toy_cfg):
        counts = mdl.parameter_counts(toy_cfg)
        assert 0.95 <= counts["ratio"] <= 1.05

    def test_no_dynamic_weight_tensor_is_ever_stored(self, toy_cfg, toy_store):
        grid = toy_cfg.dyn_out * toy_cfg.adapter_out
        for name in toy_store.names():
            assert toy_store[name].size != grid or name == "proj.w"
        assert "dyn.w" not in toy_store
        assert "candidates" not in toy_store

    def test_dynamic_producing_roles(self, toy_cfg, toy_store):
        producing = {n for n in toy_store.names()
                     if toy_store.role(n) == "dynamic-producing"}
        assert producing == {
            "embed.table", "gru.w_r", "gru.w_z", "gru.w_h",
            "gru.u_r", "gru.u_z", "gru.u_h", "proj.w",
        }

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

    def test_missing_piece_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            mdl.load_model(tmp_path)


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
        monkeypatch.setattr(enc, "gru_encode",
                            lambda x, p, h0=None: sizes.append(x.shape[:2]) or real(x, p, h0))
        ids = [[1, 2, 3]] * 300 + [[4]] * 5
        mdl.encode_questions(toy_cfg, toy_store, ids)
        assert sorted(sizes) == [(5, 1), (44, 3), (256, 3)]


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
