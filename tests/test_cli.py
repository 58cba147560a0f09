import json
import sys

import numpy as np
import pytest

from dppnet.cli import main
from dppnet.data import GenConfig, generate_synthetic, save_jsonl


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def tiny_data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = GenConfig(n_train=300, n_val=80, n_test=80)
    train, val, test = generate_synthetic(cfg, seed=2)
    save_jsonl(root / "train.jsonl", train)
    save_jsonl(root / "val.jsonl", val)
    save_jsonl(root / "test.jsonl", test)
    return root


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory, tiny_data_dir):
    out = tmp_path_factory.mktemp("ckpt") / "model"
    cfg = {
        "model": {
            "adapter_hidden": 32,
            "adapter_out": 24,
            "dyn_out": 12,
            "num_candidates": 64,
            "hidden_dim": 24,
            "embed_dim": 12,
        },
        "train": {"max_epochs": 8, "seed": 3},
    }
    cfg_path = out.parent / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main([
        "train", "--data", str(tiny_data_dir), "--out", str(out),
        "--config", str(cfg_path),
    ])
    assert code == 0
    return out


class TestGen:
    def test_writes_files_and_report(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "gen", "--out", str(tmp_path / "d"), "--seed", "4"
        )
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["train"] == 4000
        assert (tmp_path / "d" / "train.jsonl").exists()
        assert (tmp_path / "d" / "gen_config.json").exists()

    def test_same_seed_identical_bytes(self, capsys, tmp_path):
        for name in ("a", "b"):
            code, _, _ = run_cli(capsys, "gen", "--out", str(tmp_path / name), "--seed", "9")
            assert code == 0
        assert (tmp_path / "a" / "train.jsonl").read_bytes() == (
            tmp_path / "b" / "train.jsonl"
        ).read_bytes()

    def test_custom_gen_config(self, capsys, tmp_path):
        gc = tmp_path / "gen.json"
        gc.write_text(json.dumps({"n_train": 20, "n_val": 5, "n_test": 5}))
        code, out, _ = run_cli(
            capsys, "gen", "--out", str(tmp_path / "d"), "--gen-config", str(gc)
        )
        assert code == 0
        assert json.loads(out)["counts"] == {"train": 20, "val": 5, "test": 5}


class TestTrainCommand:
    def test_checkpoint_layout_and_log(self, tiny_checkpoint):
        for name in ("manifest.json", "params.bin", "config.json",
                     "vocab.json", "answers.json", "log.jsonl"):
            assert (tiny_checkpoint / name).exists()
        entries = [json.loads(l) for l in (tiny_checkpoint / "log.jsonl").read_text().splitlines()]
        assert entries[0]["epoch"] == 1
        assert set(entries[0]) == {"epoch", "train_loss", "train_acc", "val_acc", "lr", "frozen"}

    def test_saved_config_reruns_identically(self, capsys, tiny_data_dir,
                                             tiny_checkpoint, tmp_path):
        code, out, _ = run_cli(
            capsys, "train", "--data", str(tiny_data_dir), "--out", str(tmp_path / "re"),
            "--config", str(tiny_checkpoint / "config.json"),
        )
        assert code == 0
        first = [json.loads(l)["train_loss"]
                 for l in (tiny_checkpoint / "log.jsonl").read_text().splitlines()]
        second = [json.loads(l)["train_loss"]
                  for l in (tmp_path / "re" / "log.jsonl").read_text().splitlines()]
        assert first == second


class TestEvalCommand:
    def test_model_eval_reports_accuracy(self, capsys, tiny_data_dir, tiny_checkpoint):
        code, out, _ = run_cli(
            capsys, "eval", "--checkpoint", str(tiny_checkpoint),
            "--data", str(tiny_data_dir / "test.jsonl"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["examples"] == 80
        assert 0.0 <= report["plain_accuracy"] <= 1.0

    def test_all_correct_predictions_score_one_everywhere(
        self, capsys, tiny_data_dir, tmp_path, toy_taxonomy_path
    ):
        data = tmp_path / "animals.jsonl"
        cat, dog = json.dumps(["cat"] * 10), json.dumps(["dog"] * 10)
        data.write_text(
            f'{{"features": [0.0], "question": "what is it", "answers": {cat}}}\n'
            f'{{"features": [1.0], "question": "what is it", "answers": {dog}}}\n'
        )
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"id": 0, "answer": "cat"}\n{"id": 1, "answer": "dog"}\n')
        code, out, _ = run_cli(
            capsys, "eval", "--predictions", str(preds), "--data", str(data),
            "--taxonomy", str(toy_taxonomy_path), "--vqa-consensus",
        )
        assert code == 0
        report = json.loads(out)
        assert report["plain_accuracy"] == 1.0
        assert report["vqa_accuracy"] == 1.0
        assert report["wups"]["0.9"]["score"] == 1.0
        assert report["wups"]["0.0"]["score"] == 1.0

    def test_wups_threshold_flag(self, capsys, tmp_path, toy_taxonomy_path):
        data = tmp_path / "d.jsonl"
        data.write_text('{"features": [0.0], "question": "q", "answers": ["dog"]}\n')
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": 0, "answer": "cat"}\n')
        code, out, _ = run_cli(
            capsys, "eval", "--predictions", str(preds), "--data", str(data),
            "--taxonomy", str(toy_taxonomy_path), "--wups-threshold", "0.0",
        )
        report = json.loads(out)
        assert report["wups"]["0.0"]["score"] == pytest.approx(2 / 3, abs=1e-9)

    def test_multiple_choice_masking(self, capsys, tiny_data_dir, tiny_checkpoint, tmp_path):
        lines = (tiny_data_dir / "test.jsonl").read_text().splitlines()[:10]
        data = tmp_path / "mc.jsonl"
        data.write_text("\n".join(lines) + "\n")
        choices = tmp_path / "choices.jsonl"
        with choices.open("w") as fh:
            for i, line in enumerate(lines):
                truth = json.loads(line)["answers"][0]
                fh.write(json.dumps({"id": i, "answers": [truth, "star", "no"]}) + "\n")
        code, out, _ = run_cli(
            capsys, "eval", "--checkpoint", str(tiny_checkpoint),
            "--data", str(data), "--multiple-choice", str(choices),
        )
        assert code == 0
        report = json.loads(out)
        assert report["multiple_choice"] is True
        # restricting to 3 candidates can only help a weak model
        assert report["plain_accuracy"] >= 0.3

    def test_needs_exactly_one_source(self, capsys, tiny_data_dir):
        code, _, err = run_cli(capsys, "eval", "--data", str(tiny_data_dir / "test.jsonl"))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ConfigError"


class TestPredictCommand:
    def test_jsonl_predictions(self, capsys, tiny_data_dir, tiny_checkpoint):
        code, out, _ = run_cli(
            capsys, "predict", "--checkpoint", str(tiny_checkpoint),
            "--data", str(tiny_data_dir / "test.jsonl"),
        )
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert len(lines) == 80
        assert set(lines[0]) == {"id", "answer"}

    def test_single_example(self, capsys, tiny_data_dir, tiny_checkpoint):
        record = json.loads((tiny_data_dir / "test.jsonl").read_text().splitlines()[0])
        example = json.dumps({"features": record["features"], "question": record["question"]})
        code, out, _ = run_cli(
            capsys, "predict", "--checkpoint", str(tiny_checkpoint), "--example", example
        )
        assert code == 0
        assert json.loads(out)["id"] == 0

    def test_predictions_round_trip_through_eval(self, capsys, tiny_data_dir,
                                                 tiny_checkpoint, tmp_path):
        code, out, _ = run_cli(
            capsys, "predict", "--checkpoint", str(tiny_checkpoint),
            "--data", str(tiny_data_dir / "test.jsonl"),
        )
        preds = tmp_path / "p.jsonl"
        preds.write_text(out)
        code, out2, _ = run_cli(
            capsys, "eval", "--predictions", str(preds),
            "--data", str(tiny_data_dir / "test.jsonl"),
        )
        code3, out3, _ = run_cli(
            capsys, "eval", "--checkpoint", str(tiny_checkpoint),
            "--data", str(tiny_data_dir / "test.jsonl"),
        )
        assert json.loads(out2)["plain_accuracy"] == json.loads(out3)["plain_accuracy"]


class TestDiagnostics:
    def test_gradcheck_passes(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        assert any(m["module"] == "model.dppnet" for m in report["modules"])
        assert "PASS" in err

    def test_hash_stats_json(self, capsys):
        code, out, _ = run_cli(capsys, "hash-stats", "--m", "16", "--n", "16", "--k", "8")
        assert code == 0
        report = json.loads(out)
        assert sum(report["bucket_loads"]) == 256

    def test_hash_stats_materialize_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "hash-stats", "--m", "2", "--n", "3", "--k", "2",
            "--materialize-candidates", "[1.0, -2.0]",
        )
        assert code == 0
        report = json.loads(out)
        w = np.asarray(report["materialized"])
        assert w.shape == (2, 3)
        assert set(np.abs(w).ravel().tolist()) <= {1.0, 2.0}

    def test_train_schedule_flag_overrides(self, capsys, tiny_data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"adapter_hidden": 16, "adapter_out": 12, "dyn_out": 8,
                      "num_candidates": 32, "hidden_dim": 12, "embed_dim": 8},
            "train": {"max_epochs": 9, "seed": 5},
        }))
        code, out, _ = run_cli(
            capsys, "train", "--data", str(tiny_data_dir),
            "--out", str(tmp_path / "m"), "--config", str(cfg),
            "--max-epochs", "2", "--patience", "2", "--lr", "0.01",
        )
        assert code == 0
        saved = json.loads((tmp_path / "m" / "config.json").read_text())
        assert saved["train"]["max_epochs"] == 2
        assert saved["train"]["lr"] == 0.01
        assert json.loads(out)["epochs_run"] <= 2

    def test_retrieve(self, capsys, tiny_data_dir, tiny_checkpoint):
        code, out, _ = run_cli(
            capsys, "retrieve", "--checkpoint", str(tiny_checkpoint),
            "--query", "what color is the star?",
            "--corpus", str(tiny_data_dir / "test.jsonl"), "--top-k", "3",
        )
        assert code == 0
        ranked = json.loads(out)["ranked"]
        assert len(ranked) == 3
        assert ranked[0]["rank"] == 1


class TestErrorSurface:
    def test_missing_checkpoint_is_machine_readable(self, capsys, tiny_data_dir):
        code, out, err = run_cli(
            capsys, "eval", "--checkpoint", "/nonexistent/ckpt",
            "--data", str(tiny_data_dir / "test.jsonl"),
        )
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert "message" in error and "type" in error

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", "x", "--frobnicate"])
        assert exc.value.code == 2

    def test_data_root_env_var(self, capsys, tiny_data_dir, tiny_checkpoint, monkeypatch):
        monkeypatch.setenv("DPPNET_DATA_ROOT", str(tiny_data_dir))
        code, out, _ = run_cli(
            capsys, "eval", "--checkpoint", str(tiny_checkpoint), "--data", "test.jsonl"
        )
        assert code == 0
        assert json.loads(out)["examples"] == 80


class TestBoundaryRejections:
    @pytest.mark.parametrize("bad", ["true", "false", "NaN", "Infinity", "-Infinity"])
    def test_predict_example_rejects_bool_and_non_finite(self, capsys, tiny_data_dir,
                                                         tiny_checkpoint, bad):
        record = json.loads((tiny_data_dir / "test.jsonl").read_text().splitlines()[0])
        feats = json.dumps(record["features"][:-1])[:-1] + f", {bad}]"
        example = f'{{"features": {feats}, "question": {json.dumps(record["question"])}}}'
        code, out, err = run_cli(
            capsys, "predict", "--checkpoint", str(tiny_checkpoint), "--example", example
        )
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DataFormatError"
        assert error["message"].startswith("--example: feature ")

    @pytest.mark.parametrize("bad", ["NaN", "true"])
    def test_predict_jsonl_rejects_bool_and_non_finite(self, capsys, tiny_data_dir,
                                                       tiny_checkpoint, tmp_path, bad):
        lines = (tiny_data_dir / "test.jsonl").read_text().splitlines()[:3]
        rec = json.loads(lines[2])
        lines[2] = json.dumps(rec).replace(json.dumps(rec["features"][0]), bad, 1)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            capsys, "predict", "--checkpoint", str(tiny_checkpoint), "--data", str(path)
        )
        assert code == 1
        assert out == ""
        assert ":3: feature 0 " in json.loads(err)["error"]["message"]

    def test_predict_example_question_read_as_text(self, capsys, tiny_data_dir, tiny_checkpoint):
        # load_jsonl reads a question with str(); --example must not crash on one
        record = json.loads((tiny_data_dir / "test.jsonl").read_text().splitlines()[0])
        example = json.dumps({"features": record["features"], "question": 5})
        code, out, _ = run_cli(
            capsys, "predict", "--checkpoint", str(tiny_checkpoint), "--example", example
        )
        assert code == 0
        assert set(json.loads(out)) == {"id", "answer"}

    @pytest.mark.parametrize("example", ["{not json", "[1, 2]"])
    def test_predict_example_must_be_a_json_object(self, capsys, tiny_checkpoint, example):
        code, out, err = run_cli(
            capsys, "predict", "--checkpoint", str(tiny_checkpoint), "--example", example
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "DataFormatError"

    @pytest.mark.parametrize("top_k", ["-1", "0"])
    def test_retrieve_rejects_top_k_below_one(self, capsys, tiny_data_dir,
                                              tiny_checkpoint, top_k):
        code, out, err = run_cli(
            capsys, "retrieve", "--checkpoint", str(tiny_checkpoint),
            "--query", "what color is the star?",
            "--corpus", str(tiny_data_dir / "test.jsonl"), "--top-k", top_k,
        )
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ConfigError"
        assert "--top-k" in error["message"]
