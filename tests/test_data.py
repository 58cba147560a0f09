from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from dppnet.data import (
    MAX_EXAMPLES,
    GenConfig,
    QAExample,
    AnswerSpace,
    Vocabulary,
    build_vocab,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    tokenize,
    validate_features,
)
from dppnet.errors import ConfigError, DataFormatError


class TestTokenize:
    def test_day_question(self):
        assert tokenize("Is this picture taken during the day?") == [
            "is", "this", "picture", "taken", "during", "the", "day",
        ]

    def test_internal_apostrophe_kept(self):
        assert tokenize("What's the color?") == ["what's", "the", "color"]

    def test_surrounding_punctuation_stripped(self):
        assert tokenize('  "Hello," she said!  ') == ["hello", "she", "said"]

    def test_all_punctuation_collapses_to_nothing(self):
        assert tokenize("?!? ... !!") == []

    @given(st.lists(st.sampled_from(["what", "color", "it's", "3", "red-ish"]), min_size=1))
    def test_idempotent_on_own_output(self, tokens):
        once = tokenize(" ".join(tokens))
        assert tokenize(" ".join(once)) == once


def make_example(question, answers, features=(0.0, 1.0)):
    return QAExample(features=np.asarray(features), question=question, answers=list(answers))


class TestVocab:
    def test_unk_reserved_and_count(self):
        vocab, _ = build_vocab(
            [make_example("red blue green", ["x"]), make_example("red what", ["y"])]
        )
        assert len(vocab) == 5  # 4 distinct tokens + unk
        assert vocab.encode(["zzz"]) == [0]

    def test_answer_space_whole_phrase(self):
        _, answers = build_vocab(
            [make_example("q", ["red car"]), make_example("q", ["Yes"])]
        )
        assert answers.as_list() == ["red car", "yes"]
        assert answers.class_of("RED CAR") == 0
        assert answers.class_of("blue") is None

    def test_three_distinct_answers_three_classes(self):
        _, answers = build_vocab(
            [make_example("q", [a]) for a in ("yes", "no", "2")]
        )
        assert len(answers) == 3

    def test_empty_split_rejected(self):
        with pytest.raises(DataFormatError):
            build_vocab([])

    def test_empty_question_rejected_at_encode(self):
        vocab, _ = build_vocab([make_example("what", ["x"])])
        with pytest.raises(DataFormatError):
            vocab.encode_question("??")
        with pytest.raises(DataFormatError):
            vocab.encode_questions(["what", "??", "what"])

    def test_each_distinct_question_tokenized_once(self, monkeypatch):
        from dppnet import data, trainer

        train_ex, val_ex, _ = generate_synthetic(GenConfig(n_train=300, n_val=200, n_test=0), 5)
        # per-example references, built before the spy goes in
        want_vocab = Vocabulary(sorted({t for ex in train_ex for t in tokenize(ex.question)}))
        want_ids = [want_vocab.encode_question(ex.question) for ex in val_ex]
        calls = Counter()
        real = data.tokenize
        monkeypatch.setattr(data, "tokenize", lambda q: calls.update([q]) or real(q))

        vocab, answers = build_vocab(train_ex)
        assert vocab.as_dict() == want_vocab.as_dict()
        assert calls == Counter({ex.question for ex in train_ex})
        calls.clear()
        encoded = trainer.encode_dataset(val_ex, vocab, answers, "f64")
        assert encoded.token_ids == want_ids
        assert calls == Counter({ex.question for ex in val_ex})
        assert len(calls) < len(val_ex) / 4

    def test_vocab_mapping_round_trip(self):
        vocab, _ = build_vocab([make_example("b a c", ["x"])])
        clone = Vocabulary.from_mapping(vocab.as_dict())
        assert clone.as_dict() == vocab.as_dict()


class TestJsonl:
    def test_round_trip(self, tmp_path):
        examples = [
            make_example("what color?", ["red"], features=[0.5, 1.5, -2.0]),
            make_example("how many?", ["2"], features=[1.0, 0.0, 3.0]),
        ]
        examples[0].meta["scene_id"] = 7
        path = tmp_path / "d.jsonl"
        save_jsonl(path, examples)
        loaded = load_jsonl(path)
        assert len(loaded) == 2
        assert loaded[0].question == "what color?"
        assert loaded[0].meta["scene_id"] == 7
        assert np.array_equal(loaded[0].features, examples[0].features)

    def test_empty_file_is_valid_and_empty(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        assert load_jsonl(path) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            load_jsonl(tmp_path / "missing.jsonl")

    def test_ragged_features_error_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"features": [1, 2], "question": "q", "answers": ["a"]}\n'
            '{"features": [1, 2, 3], "question": "q", "answers": ["a"]}\n'
        )
        with pytest.raises(DataFormatError, match=":2:"):
            load_jsonl(path)

    def test_missing_field_error_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"features": [1], "answers": ["a"]}\n')
        with pytest.raises(DataFormatError, match="question"):
            load_jsonl(path)

    def test_bad_json_error_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("{oops\n")
        with pytest.raises(DataFormatError, match=":1:"):
            load_jsonl(path)

    def test_empty_answers_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"features": [1], "question": "q", "answers": []}\n')
        with pytest.raises(DataFormatError, match="answers"):
            load_jsonl(path)


class TestGenerator:
    def test_noiseless_single_slot_color_question(self):
        cfg = GenConfig(slots=1, noise=0.0, template_mix=(1.0, 0.0, 0.0, 0.0),
                        n_train=50, n_val=5, n_test=5)
        train, _, _ = generate_synthetic(cfg, seed=0)
        for ex in train:
            shape = ex.question.split()[-1].rstrip("?")
            color = ex.answers[0]
            # the slot's one-hot block must match question and answer exactly
            feats = ex.features
            assert feats[cfg.shapes.index(shape)] == 1.0
            assert feats[len(cfg.shapes) + cfg.colors.index(color)] == 1.0

    def test_same_seed_byte_identical_files(self, tmp_path):
        cfg = GenConfig(n_train=30, n_val=10, n_test=10)
        for name in ("a", "b"):
            train, val, test = generate_synthetic(cfg, seed=9)
            save_jsonl(tmp_path / f"{name}.jsonl", train + val + test)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_scene_ids_disjoint_across_splits(self):
        cfg = GenConfig(n_train=40, n_val=20, n_test=20)
        train, val, test = generate_synthetic(cfg, seed=2)
        ids = [set(ex.meta["scene_id"] for ex in split) for split in (train, val, test)]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

    def test_more_slots_than_shapes_rejected(self):
        with pytest.raises(ConfigError):
            GenConfig(slots=5)

    def test_example_budget_edge(self):
        GenConfig(n_train=MAX_EXAMPLES - 2, n_val=1, n_test=1)  # built, nothing drawn
        with pytest.raises(ConfigError, match="n_train \\+ n_val \\+ n_test"):
            GenConfig(n_train=MAX_EXAMPLES - 1, n_val=1, n_test=1)

    def test_bad_template_mix_rejected(self):
        with pytest.raises(ConfigError):
            GenConfig(template_mix=(0.5, 0.5, 0.5, 0.5))

    def test_answers_within_templates_roughly_uniform(self):
        cfg = GenConfig(n_train=4000, n_val=0, n_test=0)
        train, _, _ = generate_synthetic(cfg, seed=1)
        groups = {}
        for ex in train:
            groups.setdefault(ex.meta["template"], []).append(ex.answers[0])
        assert set(groups) == {"color", "shape", "count", "exists"}
        for template, answers in groups.items():
            counts = np.array(sorted(Counter(answers).values()))
            expected = len(answers) / len(counts)
            chi2 = ((counts - expected) ** 2 / expected).sum()
            critical = scipy.stats.chi2.ppf(0.999, len(counts) - 1)
            assert chi2 < critical, f"{template}: {counts}"

    def test_every_answer_reachable_from_truth(self):
        cfg = GenConfig(n_train=500, n_val=0, n_test=0, noise=0.0)
        train, _, _ = generate_synthetic(cfg, seed=3)
        for ex in train:
            t = ex.meta["template"]
            if t == "exists":
                assert ex.answers[0] in ("yes", "no")
            elif t == "count":
                assert ex.answers[0] in ("1", "2", "3")
            elif t == "color":
                assert ex.answers[0] in cfg.colors
            else:
                assert ex.answers[0] in cfg.shapes

    def test_feature_dim_property(self):
        cfg = GenConfig()
        train, _, _ = generate_synthetic(GenConfig(n_train=3, n_val=1, n_test=1), seed=0)
        assert train[0].features.shape == (cfg.feature_dim,)


BAD_FEATURES = ["true", "false", "NaN", "Infinity", "-Infinity"]


class TestFeatureValidation:
    @pytest.mark.parametrize("bad", BAD_FEATURES)
    def test_jsonl_rejects_bool_and_non_finite_naming_the_line(self, tmp_path, bad):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"features": [1, 2], "question": "q", "answers": ["a"]}\n'
            f'{{"features": [0.5, {bad}], "question": "q", "answers": ["a"]}}\n'
        )
        with pytest.raises(DataFormatError, match=r":2: feature 1 "):
            load_jsonl(path)

    def test_integer_too_large_for_a_float_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"features": [1' + "0" * 400 + '], "question": "q", "answers": ["a"]}\n')
        with pytest.raises(DataFormatError, match=":1: feature 0 "):
            load_jsonl(path)

    def test_finite_ints_and_floats_still_accepted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"features": [1, -2.5, 0, 1e300], "question": "q", "answers": ["a"]}\n')
        (ex,) = load_jsonl(path)
        assert ex.features.dtype == np.float64
        assert ex.features.tolist() == [1.0, -2.5, 0.0, 1e300]

    @pytest.mark.parametrize("values", [[1, "2"], [None], "1, 2", {"a": 1}, [[1.0]]])
    def test_non_numbers_rejected(self, values):
        pattern = r"^where: (features must be a list of|feature \d+ is .*, not a) number"
        with pytest.raises(DataFormatError, match=pattern):
            validate_features(values, "where")
