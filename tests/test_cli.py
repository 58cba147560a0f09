import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dppnet.encoder
from dppnet.cli import main
from dppnet.data import GenConfig, generate_synthetic, save_jsonl


def strict_json(text: str):
    """text as one JSON document; the NaN and Infinity json.loads accepts are
    not JSON, and raise."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def check_stdout(argv, out: str) -> None:
    """out holds one JSON document, or for predict one per line."""
    for doc in out.splitlines() if argv[0] == "predict" else [out]:
        strict_json(doc)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out:
        check_stdout(argv, captured.out)
    return code, captured.out, captured.err


def refused(code, out, err) -> dict:
    """The error object of a run that exits 1 with nothing on stdout and one
    {"error": ...} line on stderr."""
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    return json.loads(line)["error"]


def run_capped(*argv):
    """dppnet as a child process whose address space alone is capped at 3 GiB."""
    resource = pytest.importorskip("resource")
    cap = 3 * 2**30
    env = {**os.environ, "PYTHONPATH": str(Path(dppnet.encoder.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "dppnet.cli", *argv], capture_output=True, text=True, env=env,
        timeout=300, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


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

    @pytest.mark.parametrize("raw, named", [
        ({"slots": 0}, "slots"),
        ({"counts": []}, "counts"),
        ({"template_mix": [1.5, -0.5, 0, 0]}, "template_mix"),
        ({"template_mix": [float("nan"), 1, 0, 0]}, "template_mix"),
        ({"shapes": ["a", "a"], "colors": ["r", "g"]}, "shapes"),
        ({"colors": []}, "colors"),
        ({"counts": [1, 1, 2]}, "counts"),
        ({"noise": -1}, "noise"),
        ({"noise": float("nan")}, "noise"),
        ({"noise": float("inf")}, "noise"),
        ({"n_train": -3}, "n_train"),
        ({"n_val": -1}, "n_val"),
        ({"n_test": -1}, "n_test"),
        # a string is no tuple, though it holds distinct one-letter entries
        ({"shapes": "wxyz"}, "shapes"),
        ({"colors": "rgbk"}, "colors"),
        ({"counts": "123"}, "counts"),
        ({"template_mix": 1}, "template_mix"),
        ({"shapes": ["a", "b", 3, "d"]}, "shapes"),
        ({"colors": ["r", "g", None]}, "colors"),
        ({"counts": [1, "2", 3]}, "counts"),
        ({"counts": [1.0, 2, 3]}, "counts"),
        ({"counts": [True, 2, 3]}, "counts"),
        ({"template_mix": [0.5, "0.25", 0.25, 0]}, "template_mix"),
        ({"template_mix": [True, 0, 0, 0]}, "template_mix"),
    ], ids=["no slots", "no counts", "negative weight", "NaN weight", "repeated shape",
            "no colors", "repeated count", "negative noise", "NaN noise", "infinite noise",
            "negative n_train", "negative n_val", "negative n_test",
            "string shapes", "string colors", "string counts", "number template_mix",
            "int shape", "null color", "string count", "float count", "bool count",
            "string weight", "bool weight"])
    def test_out_of_range_gen_config_is_refused(self, capsys, tmp_path, raw, named):
        gc = tmp_path / "gen.json"
        gc.write_text(json.dumps(raw))
        out = tmp_path / "d"
        code, stdout, err = run_cli(capsys, "gen", "--out", str(out), "--gen-config", str(gc))
        assert (code, stdout) == (1, "")
        line, = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "ConfigError"
        assert named in error["message"]
        assert not out.exists()

    def test_failed_write_leaves_the_earlier_output(self, capsys, tmp_path, monkeypatch):
        import dppnet.cli

        gc = tmp_path / "gen.json"
        gc.write_text(json.dumps({"n_train": 20, "n_val": 5, "n_test": 5}))
        out = tmp_path / "d"
        argv = ["gen", "--out", str(out), "--gen-config", str(gc)]
        assert run_cli(capsys, *argv, "--seed", "4")[0] == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        written = []

        def second_split_fails(path, examples):
            written.append(path)
            if len(written) == 2:
                raise OSError(28, "No space left on device", str(path))
            save_jsonl(path, examples)

        monkeypatch.setattr(dppnet.cli, "save_jsonl", second_split_fails)
        code, stdout, err = run_cli(capsys, *argv, "--seed", "5")
        assert (code, stdout) == (1, "")
        assert "No space left" in json.loads(err)["error"]["message"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "gen.json"]

    def test_refuses_a_directory_holding_other_files(self, capsys, tmp_path):
        (tmp_path / "notes.txt").write_text("keep")
        code, out, err = run_cli(capsys, "gen", "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert "notes.txt" in json.loads(err)["error"]["message"]
        assert (tmp_path / "notes.txt").read_text() == "keep"

    def test_refused_out_generates_nothing(self, capsys, tmp_path, monkeypatch):
        import dppnet.cli

        calls = []
        monkeypatch.setattr(dppnet.cli, "generate_synthetic", lambda *a: calls.append(a))
        (tmp_path / "notes.txt").write_text("keep")
        code, out, err = run_cli(capsys, "gen", "--out", str(tmp_path))
        assert (code, out, calls) == (1, "", [])
        assert "notes.txt" in json.loads(err)["error"]["message"]


class TestTrainCommand:
    def test_checkpoint_layout_and_log(self, tiny_checkpoint):
        for name in ("manifest.json", "params.bin", "config.json",
                     "vocab.json", "answers.json", "log.jsonl"):
            assert (tiny_checkpoint / name).exists()
        entries = [json.loads(l) for l in (tiny_checkpoint / "log.jsonl").read_text().splitlines()]
        assert entries[0]["epoch"] == 1
        assert set(entries[0]) == {"epoch", "train_loss", "train_acc", "val_acc", "lr", "frozen",
                                   "grad_norm_mean", "grad_norm_max", "clipped_fraction", "timing"}

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

    @pytest.mark.parametrize("case, named", [
        ("short vocab.json", "'embed.table'"), ("vocab_size", "model.vocab_size"),
        ("num_answers", "model.num_answers"), ("feature_dim", "model.feature_dim"),
    ])
    def test_widths_its_data_contradicts_are_refused(self, capsys, tiny_data_dir,
                                                      tiny_checkpoint, tmp_path, case, named):
        # each would train and write a checkpoint that load_model then refuses
        out = tmp_path / "run"
        argv = ["train", "--data", str(tiny_data_dir), "--out", str(out), "--max-epochs", "1"]
        if case == "short vocab.json":  # two tokens fewer than embed.table has rows
            encoder = shutil.copytree(tiny_checkpoint, tmp_path / "encoder")
            ids = json.loads((encoder / "vocab.json").read_text())
            (encoder / "vocab.json").write_text(
                json.dumps({token: i for token, i in ids.items() if i < len(ids) - 2}))
            argv += ["--pretrained-encoder", str(encoder)]
        else:
            value = {"vocab_size": 40, "num_answers": 30, "feature_dim": 7}[case]
            (tmp_path / "cfg.json").write_text(json.dumps({"model": {case: value}}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        assert named in json.loads(line)["error"]["message"]
        assert not out.exists()

    def test_validation_split_narrower_than_training_is_refused(self, capsys, tiny_data_dir,
                                                                 tmp_path, monkeypatch):
        # refused before any step; it used to train an epoch, then fail as a ShapeError
        data = shutil.copytree(tiny_data_dir, tmp_path / "data")
        rows = [json.loads(l) for l in (data / "val.jsonl").read_text().splitlines()]
        width = len(rows[0]["features"])
        (data / "val.jsonl").write_text(
            "".join(json.dumps({**r, "features": r["features"][:-1]}) + "\n" for r in rows))

        def step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(dppnet.model, "loss_and_grads", step)
        out = tmp_path / "run"
        code, stdout, err = run_cli(capsys, "train", "--data", str(data), "--out", str(out),
                                    "--max-epochs", "1")
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "DataFormatError"
        assert "validation" in error["message"]
        assert f"{width - 1}" in error["message"] and f"{width}" in error["message"]
        assert not out.exists()


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

    def test_taxonomy_not_utf8(self, capsys, tmp_path):
        data = tmp_path / "d.jsonl"
        data.write_text('{"features": [0.0], "question": "q", "answers": ["dog"]}\n')
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"id": 0, "answer": "cat"}\n')
        taxonomy = tmp_path / "tax.txt"
        taxonomy.write_bytes(b"\xff\xfec\x00a\x00t\x00 \x00a\x00\n\x00")
        code, out, err = run_cli(
            capsys, "eval", "--predictions", str(preds), "--data", str(data),
            "--taxonomy", str(taxonomy),
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error["type"] == "TaxonomyError"
        assert str(taxonomy) in error["message"]

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

    @pytest.fixture
    def three_rows(self, tmp_path, tiny_data_dir):
        """(data, predictions, choices) files over three test rows: every
        prediction is right, and no choice is in the answer space."""
        lines = (tiny_data_dir / "test.jsonl").read_text().splitlines()[:3]
        data, preds, choices = (tmp_path / f"{name}.jsonl" for name in "dpc")
        data.write_text("\n".join(lines) + "\n")
        preds.write_text("".join(json.dumps({"id": i, "answer": json.loads(line)["answers"][0]})
                                 + "\n" for i, line in enumerate(lines)))
        choices.write_text("".join(json.dumps({"id": i, "answers": ["zebra"]}) + "\n"
                                   for i in range(3)))
        return data, preds, choices

    def test_multiple_choice_with_predictions_is_refused(self, capsys, three_rows):
        # the choices would go unread while the report says multiple_choice
        data, preds, choices = three_rows
        error = refused(*run_cli(capsys, "eval", "--predictions", str(preds), "--data", str(data),
                                 "--multiple-choice", str(choices)))
        assert error["type"] == "ConfigError"
        assert "--multiple-choice" in error["message"] and "--predictions" in error["message"]

    def test_wups_threshold_without_taxonomy_is_refused(self, capsys, three_rows):
        data, preds, _ = three_rows
        error = refused(*run_cli(capsys, "eval", "--predictions", str(preds), "--data", str(data),
                                 "--wups-threshold", "0.5"))
        assert error["type"] == "ConfigError"
        assert "--wups-threshold" in error["message"] and "--taxonomy" in error["message"]

    @pytest.mark.parametrize("threshold", ["1.5", "nan"])
    def test_wups_threshold_checked_with_no_prediction_to_score(
        self, capsys, three_rows, tiny_checkpoint, toy_taxonomy_path, threshold
    ):
        # no choice is in the answer space, so no record holds a prediction
        data, _, choices = three_rows
        error = refused(*run_cli(
            capsys, "eval", "--checkpoint", str(tiny_checkpoint), "--data", str(data),
            "--multiple-choice", str(choices), "--taxonomy", str(toy_taxonomy_path),
            "--wups-threshold", "0.5", "--wups-threshold", threshold))
        assert error["type"] == "DataFormatError"
        assert "threshold" in error["message"]


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

    def test_gradcheck_in_a_real_process_prints_one_report(self):
        # the suite may fork: a child that flushed this process's buffers or a
        # fork warning would show on stdout or stderr, buffered as a user runs it
        from dppnet.oracles import run_oracle_suite

        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(dppnet.encoder.__file__).parents[1])
        run = subprocess.run([sys.executable, "-m", "dppnet.cli", "gradcheck", "--seed", "0"],
                             capture_output=True, text=True, env=env, timeout=300)
        report = run_oracle_suite(0)
        assert (run.returncode, json.loads(run.stdout)) == (0, report)
        assert run.stdout == json.dumps(report, indent=1) + "\n"
        assert run.stderr.splitlines() == [
            f"PASS {m['module']}: {m['max_rel_err']:.2e}" for m in report["modules"]]

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

    def test_parser_built_once(self, capsys, monkeypatch):
        import argparse

        import dppnet.cli

        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        dppnet.cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for _ in range(2):
            assert run_cli(capsys, "hash-stats", "--m", "2", "--n", "3", "--k", "2")[0] == 0
        assert built.count("dppnet") == 1

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

    @pytest.mark.parametrize("where, kind", [
        ("absent", "CheckpointError"), ("empty", "CheckpointError"), ("", "ConfigError"),
    ])
    def test_missing_pretrained_encoder_is_refused(self, capsys, tiny_data_dir, tmp_path,
                                                   where, kind):
        # a given encoder is always loaded: no silent fall-back to a random one
        (tmp_path / "empty").mkdir()  # a directory without a checkpoint manifest
        path = str(tmp_path / where) if where else ""
        out = tmp_path / "model"
        code, stdout, err = run_cli(capsys, "train", "--data", str(tiny_data_dir),
                                    "--out", str(out), "--max-epochs", "1",
                                    "--pretrained-encoder", path)
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == kind
        assert (path or "pretrained_encoder") in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("policy, code", [("none", 0), ("optional", 1), ("required", 1)])
    def test_legacy_pretrained_policy_in_a_config(self, capsys, tiny_data_dir, tmp_path,
                                                  policy, code):
        # configs written before the path alone decided hold pretrained_policy;
        # "none" still trains without the encoder, any other value is dropped
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"adapter_hidden": 16, "adapter_out": 12, "dyn_out": 8,
                      "num_candidates": 32, "hidden_dim": 12, "embed_dim": 8},
            "train": {"max_epochs": 1},
            "pretrained_encoder": str(tmp_path / "absent"), "pretrained_policy": policy,
        }))
        out = tmp_path / "model"
        got, _, err = run_cli(capsys, "train", "--data", str(tiny_data_dir),
                              "--out", str(out), "--config", str(cfg))
        assert got == code
        if code:
            assert json.loads(err.splitlines()[-1])["error"]["type"] == "CheckpointError"
            assert not out.exists()
        else:
            saved = json.loads((out / "config.json").read_text())
            assert saved["pretrained_encoder"] is None and "pretrained_policy" not in saved

    def test_checkpoint_with_a_legacy_policy_loads(self, capsys, tmp_path, tiny_data_dir,
                                                   tiny_checkpoint):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(tiny_checkpoint, ckpt)
        config = json.loads((ckpt / "config.json").read_text())
        (ckpt / "config.json").write_text(json.dumps({**config, "pretrained_policy": "optional"}))
        argv = ["eval", "--data", str(tiny_data_dir / "test.jsonl"), "--checkpoint"]
        assert run_cli(capsys, *argv, str(ckpt)) == run_cli(capsys, *argv, str(tiny_checkpoint))

    def test_out_of_memory_is_one_error_line(self, tiny_data_dir, tmp_path):
        # a 1.91 GiB store is under model.MAX_PARAM_BYTES, but its proj.w draw
        # does not fit beside it under the cap
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"num_candidates": 4000000, "hidden_dim": 64}}))
        out = tmp_path / "model"
        run = run_capped("train", "--config", str(cfg), "--data", str(tiny_data_dir),
                         "--out", str(out), "--max-epochs", "1")
        assert (run.returncode, run.stdout) == (1, "")
        (line,) = run.stderr.splitlines()
        assert json.loads(line)["error"]["type"] == "MemoryError"
        assert not out.exists()

    @pytest.mark.parametrize("sizes, flag", [
        (("--m", "4", "--n", "4", "--k", "4000000000"), "--k"),
        (("--m", "2147483647", "--n", "2147483647", "--k", "8"), "--n"),
    ], ids=["k", "n"])
    def test_hash_stats_sizes_are_checked_before_allocating(self, sizes, flag):
        # each used to end in a MemoryError under the cap: a 59.6 GiB code
        # table for --k, a 16 GiB hash row for --n
        run = run_capped("hash-stats", *sizes)
        assert (run.returncode, run.stdout) == (1, "")
        (line,) = run.stderr.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(flag)

    def test_hash_stats_work_is_bounded(self, capsys, monkeypatch):
        # --m 1000000 --n 32768 would walk 3.3e10 positions, about 24 minutes
        from dppnet import cli, hashing

        walked = []
        monkeypatch.setattr(hashing, "hash_stats", lambda spec: walked.append(spec) or {})
        n = hashing.BLOCK_BUDGET
        for m in (1000000, cli.MAX_STATS_POSITIONS // n + 1):
            error = refused(*run_cli(capsys, "hash-stats", "--m", str(m), "--n", str(n),
                                     "--k", "8"))
            assert error["type"] == "ConfigError"
            assert error["message"].startswith(f"--m {m} x --n {n}")
        assert walked == []
        m = cli.MAX_STATS_POSITIONS // n
        assert run_cli(capsys, "hash-stats", "--m", str(m), "--n", str(n), "--k", "8")[0] == 0
        assert [(s.out_dim, s.in_dim) for s in walked] == [(m, n)]

    def test_hash_stats_at_its_size_bounds(self, capsys):
        from dppnet import cli, hashing

        for sizes in (("--m", "1", "--n", str(hashing.BLOCK_BUDGET), "--k", "8"),
                      ("--m", "1", "--n", "1", "--k", str(cli.MAX_STATS_CANDIDATES))):
            code, out, _ = run_cli(capsys, "hash-stats", *sizes)
            assert code == 0
            assert json.loads(out)["grid_size"] == int(sizes[3])

    def test_empty_config_path_is_refused(self, capsys, tiny_data_dir, tmp_path):
        # "" names no file: it must not mean "no config"
        out = tmp_path / "model"
        code, stdout, err = run_cli(capsys, "train", "--config", "", "--data",
                                    str(tiny_data_dir), "--out", str(out), "--max-epochs", "1")
        assert (code, stdout) == (1, "")
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "ConfigError"
        assert "--config" in error["message"]
        assert not out.exists()

    def test_model_too_large_to_allocate_is_refused(self, tiny_data_dir, tmp_path):
        # proj.w alone would be 2.98 TiB: refused from the widths, before any
        # allocation, in a child whose address space is capped at 3 GiB
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"num_candidates": 100000000, "hidden_dim": 4096}}))
        out = tmp_path / "model"
        run = run_capped("train", "--config", str(cfg), "--data", str(tiny_data_dir),
                         "--out", str(out), "--max-epochs", "1")
        assert (run.returncode, run.stdout) == (1, "")
        (line,) = run.stderr.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "ConfigError"
        assert "num_candidates=100000000" in error["message"]
        assert "hidden_dim=4096" in error["message"]
        assert not out.exists()

    def test_train_options_are_documented_and_name_config_fields(self):
        # the drift guard for train's one override table (cli.TRAIN_FLAGS)
        import argparse
        import dataclasses
        import re

        from dppnet.cli import build_parser
        from dppnet.config import ModelConfig, RunConfig, TrainSchedule

        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        options = [o for a in sub.choices["train"]._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"]
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert [o for o in options if not re.search(re.escape(o) + r"(?![\w-])", readme)] == []
        names = {f.name for c in (RunConfig, ModelConfig, TrainSchedule)
                 for f in dataclasses.fields(c)}
        overrides = [o for o in options if o not in ("--config", "--data", "--out")]
        assert [o for o in overrides if o[2:].replace("-", "_") not in names] == []


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

    @pytest.mark.parametrize("bad", ["[1,", "", '"abc"', "[1e400, 1]", "[true, 2]", "[NaN, 1]",
                                     "[1, [2]]"])
    def test_materialize_candidates_rejected_naming_the_flag(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "hash-stats", "--m", "2", "--n", "3", "--k", "2",
            "--materialize-candidates", bad,
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error["type"] == "DataFormatError"
        assert error["message"].startswith("--materialize-candidates")

    def test_materialize_size_refused_before_the_grid_walk(self, capsys, monkeypatch):
        from dppnet import hashing

        def walk(spec):
            raise AssertionError("hash_stats walked the grid before the size guard")

        monkeypatch.setattr(hashing, "hash_stats", walk)
        code, out, err = run_cli(
            capsys, "hash-stats", "--m", "4900000", "--n", "1000", "--k", "2",
            "--materialize-candidates", "[1, 2]",
        )
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ShapeError"
        assert "materialize_weights guard" in error["message"]


class TestPredictionsFileShape:
    """--predictions and --multiple-choice read {id, answer} or
    {id, answers: [...]} lines; anything else is a DataFormatError naming
    the file and line."""

    BAD_LINES = {
        "not an object": "5",
        "answers a string": '{"id": 1, "answers": "yes"}',
        "answers empty": '{"id": 1, "answers": []}',
        "answers nested": '{"id": 1, "answers": [["yes"]]}',
        "answer a list": '{"id": 1, "answer": ["yes"]}',
        "id a list": '{"id": [1], "answer": "yes"}',
        "id an object": '{"id": {"n": 1}, "answer": "yes"}',
    }

    def _files(self, tmp_path, tiny_data_dir, bad):
        lines = (tiny_data_dir / "test.jsonl").read_text().splitlines()[:2]
        data = tmp_path / "d.jsonl"
        data.write_text("\n".join(lines) + "\n")
        first = json.loads(lines[0])["answers"][0]
        bad_file = tmp_path / "bad.jsonl"
        bad_file.write_text(json.dumps({"id": 0, "answers": [first]}) + "\n" + bad + "\n")
        return data, bad_file

    @pytest.mark.parametrize("bad", list(BAD_LINES.values()), ids=list(BAD_LINES))
    def test_predictions_flag_rejects(self, capsys, tmp_path, tiny_data_dir, bad):
        data, preds = self._files(tmp_path, tiny_data_dir, bad)
        code, out, err = run_cli(capsys, "eval", "--predictions", str(preds), "--data", str(data))
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DataFormatError"
        assert f"{preds}:2:" in error["message"]

    @pytest.mark.parametrize("bad", list(BAD_LINES.values()), ids=list(BAD_LINES))
    def test_multiple_choice_flag_rejects(self, capsys, tmp_path, tiny_data_dir,
                                          tiny_checkpoint, bad):
        data, choices = self._files(tmp_path, tiny_data_dir, bad)
        code, out, err = run_cli(
            capsys, "eval", "--checkpoint", str(tiny_checkpoint), "--data", str(data),
            "--multiple-choice", str(choices),
        )
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DataFormatError"
        assert f"{choices}:2:" in error["message"]

    def test_answer_and_answers_list_forms_agree(self, capsys, tmp_path, tiny_data_dir):
        lines = (tiny_data_dir / "test.jsonl").read_text().splitlines()[:4]
        data = tmp_path / "d.jsonl"
        data.write_text("\n".join(lines) + "\n")
        truths = [json.loads(line)["answers"][0] for line in lines]
        accuracies = []
        for key, wrap in (("answer", lambda a: a), ("answers", lambda a: [a])):
            preds = tmp_path / f"{key}.jsonl"
            preds.write_text("".join(
                json.dumps({"id": i, key: wrap(t)}) + "\n" for i, t in enumerate(truths)
            ))
            code, out, _ = run_cli(capsys, "eval", "--predictions", str(preds),
                                   "--data", str(data))
            assert code == 0
            accuracies.append(json.loads(out)["plain_accuracy"])
        assert accuracies == [1.0, 1.0]


class TestCheckpointManifestThroughCli:
    @pytest.mark.parametrize("key", ["offset", "shape", "nbytes"])
    def test_predict_names_the_missing_key(self, capsys, tiny_data_dir, tiny_checkpoint,
                                           tmp_path, key):
        import shutil

        ckpt = tmp_path / "ckpt"
        shutil.copytree(tiny_checkpoint, ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        del manifest["entries"][0][key]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run_cli(
            capsys, "predict", "--checkpoint", str(ckpt),
            "--data", str(tiny_data_dir / "test.jsonl"),
        )
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "CheckpointError"
        assert f"entry 0 ('adapter.w1') key {key!r}" in error["message"]

    @pytest.mark.parametrize("file, old, new, named", [
        ("manifest.json", '"adapter.w1"', '"adapter.x1"', "'adapter.w1'"),
        ("config.json", '"dyn_out": 12', '"dyn_out": 13', "'bn.beta'"),
    ], ids=["renamed tensor", "config disagrees"])
    def test_tensors_must_match_the_config(self, capsys, tmp_path, tiny_data_dir,
                                           tiny_checkpoint, file, old, new, named):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(tiny_checkpoint, ckpt)
        text = (ckpt / file).read_text()
        assert old in text
        (ckpt / file).write_text(text.replace(old, new))
        code, out, err = run_cli(capsys, "predict", "--checkpoint", str(ckpt),
                                 "--data", str(tiny_data_dir / "test.jsonl"))
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "CheckpointError"
        assert named in error["message"]

    def test_legacy_role_and_frozen_tags_change_nothing(self, capsys, tmp_path, tiny_data_dir,
                                                        tiny_checkpoint):
        # every manifest written before the one tag holds both keys on every entry
        ckpt = shutil.copytree(tiny_checkpoint, tmp_path / "ckpt")
        manifest = json.loads((ckpt / "manifest.json").read_text())
        for entry in manifest["entries"]:
            entry["role"] = "static"
            entry["frozen"] = entry["name"].startswith("adapter.")
        (ckpt / "manifest.json").write_text(json.dumps(manifest, indent=1))
        data = str(tiny_data_dir / "test.jsonl")
        for argv in (["eval", "--data", data], ["predict", "--data", data]):
            got = run_cli(capsys, *argv, "--checkpoint", str(ckpt))
            assert got[0] == 0
            assert got == run_cli(capsys, *argv, "--checkpoint", str(tiny_checkpoint))


class TestJsonFilesThroughCli:
    """Every JSON or JSONL file a subcommand reads fails with a typed error
    naming the file (and the line, for JSONL), never with a traceback."""

    NOT_UTF8 = b"\xff\xfe{\x00}\x00\n"

    def _error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        return json.loads(err)["error"]

    def _predictions(self, tmp_path, tiny_data_dir):
        lines = (tiny_data_dir / "test.jsonl").read_text().splitlines()[:2]
        data = tmp_path / "d.jsonl"
        data.write_text("\n".join(lines) + "\n")
        preds = tmp_path / "p.jsonl"
        preds.write_text("".join(
            json.dumps({"id": i, "answer": "yes"}) + "\n" for i in range(2)
        ))
        return data, preds

    @pytest.mark.parametrize("bad", [b"5\n", b'["features"]\n', NOT_UTF8],
                             ids=["number", "list", "not utf-8"])
    def test_data_file(self, capsys, tmp_path, tiny_data_dir, bad):
        _, preds = self._predictions(tmp_path, tiny_data_dir)
        data = tmp_path / "bad.jsonl"
        data.write_bytes(bad)
        error = self._error(capsys, "eval", "--predictions", str(preds), "--data", str(data))
        assert error["type"] == "DataFormatError"
        assert f"{data}:1:" in error["message"]

    @pytest.mark.parametrize("flag", ["--predictions", "--multiple-choice"])
    def test_predictions_and_choices_not_utf8(self, capsys, tmp_path, tiny_data_dir,
                                              tiny_checkpoint, flag):
        data, _ = self._predictions(tmp_path, tiny_data_dir)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": 0, "answer": "yes"}\n' + self.NOT_UTF8)
        model = ["--checkpoint", str(tiny_checkpoint)] if flag == "--multiple-choice" else []
        error = self._error(capsys, "eval", *model, "--data", str(data), flag, str(bad))
        assert error["type"] == "DataFormatError"
        assert f"{bad}:2:" in error["message"]

    @pytest.mark.parametrize("text, named", [
        ('{"n_trian": 5}', "n_trian"),
        ("{not json", "gen.json"),
        ("[1, 2]", "gen.json"),
        ('{"n_train": "many"}', "n_train"),
    ], ids=["unknown key", "invalid JSON", "not an object", "wrong type"])
    def test_gen_config(self, capsys, tmp_path, text, named):
        gc = tmp_path / "gen.json"
        gc.write_text(text)
        error = self._error(capsys, "gen", "--out", str(tmp_path / "d"), "--gen-config", str(gc))
        assert error["type"] == "ConfigError"
        assert named in error["message"]

    @pytest.mark.parametrize("command, flag, path, kind", [
        ("eval", "--taxonomy", "dir", "IsADirectory"),
        ("eval", "--data", "dir", "IsADirectory"),
        ("eval", "--predictions", "dir", "IsADirectory"),
        ("train", "--config", "dir", "IsADirectory"),
        ("gen", "--gen-config", "dir", "IsADirectory"),
        ("gen", "--out", "file", "FileExists"),
        ("gen", "--out", "file/sub", "NotADirectory"),
    ])
    def test_path_of_the_wrong_kind(self, capsys, tmp_path, tiny_data_dir,
                                    command, flag, path, kind):
        data, preds = self._predictions(tmp_path, tiny_data_dir)
        argv = {
            "eval": {"--predictions": str(preds), "--data": str(data)},
            "train": {"--data": str(tiny_data_dir), "--out": str(tmp_path / "run")},
            "gen": {"--out": str(tmp_path / "gen")},
        }[command]
        argv[flag] = str({"dir": tmp_path, "file": data, "file/sub": data / "sub"}[path])
        error = self._error(capsys, command, *[a for kv in argv.items() for a in kv])
        assert error["type"] == kind
        assert argv[flag] in error["message"]

    def test_gen_config_not_utf8(self, capsys, tmp_path):
        gc = tmp_path / "gen.json"
        gc.write_bytes(self.NOT_UTF8)
        error = self._error(capsys, "gen", "--out", str(tmp_path / "d"), "--gen-config", str(gc))
        assert error["type"] == "ConfigError"
        assert str(gc) in error["message"]

    @pytest.mark.parametrize("name", ["vocab.json", "answers.json"])
    @pytest.mark.parametrize("text", ["{not json", "5"], ids=["invalid JSON", "wrong type"])
    def test_checkpoint_vocab_and_answers(self, capsys, tmp_path, tiny_data_dir,
                                          tiny_checkpoint, name, text):
        import shutil

        ckpt = tmp_path / "ckpt"
        shutil.copytree(tiny_checkpoint, ckpt)
        (ckpt / name).write_text(text)
        error = self._error(capsys, "predict", "--checkpoint", str(ckpt),
                            "--data", str(tiny_data_dir / "test.jsonl"))
        assert error["type"] == "CheckpointError"
        assert str(ckpt / name) in error["message"]

    @pytest.mark.parametrize("text", ["{not json", "[1]", '{"a": "b"}'],
                             ids=["invalid JSON", "not an object", "non-integer id"])
    def test_pretrained_encoder_vocab(self, capsys, tmp_path, tiny_data_dir,
                                      tiny_checkpoint, text):
        import shutil

        ckpt = tmp_path / "ckpt"
        shutil.copytree(tiny_checkpoint, ckpt)
        (ckpt / "vocab.json").write_text(text)
        error = self._error(
            capsys, "train", "--data", str(tiny_data_dir), "--out", str(tmp_path / "run"),
            "--pretrained-encoder", str(ckpt),
        )
        assert error["type"] == "CheckpointError"
        assert str(ckpt / "vocab.json") in error["message"]


def _mutate(data: bytes, edits) -> bytes:
    """Apply (op, position, byte) edits: replace, insert or delete one byte."""
    buf = bytearray(data)
    for op, pos, byte in edits:
        at = min(pos, len(buf))
        if op == "insert":
            buf.insert(at, byte)
        elif at < len(buf):
            if op == "delete":
                del buf[at]
            else:
                buf[at] = byte
    return bytes(buf)


class TestCliContract:
    """Byte-mutated inputs at every boundary: each run exits 0, or exits 1
    with nothing on stdout and one {"error": ...} line on stderr."""

    @pytest.fixture(scope="class")
    def valid(self, tiny_data_dir, tiny_checkpoint, toy_taxonomy_path):
        lines = (tiny_data_dir / "test.jsonl").read_text().splitlines()[:6]
        examples = [json.loads(line) for line in lines]
        answers = sorted({ex["answers"][0] for ex in examples})
        return {
            "data": "".join(line + "\n" for line in lines).encode(),
            "train --config": json.dumps({
                "model": {"adapter_hidden": 8, "adapter_out": 8, "dyn_out": 4,
                          "num_candidates": 8, "hidden_dim": 4, "embed_dim": 4},
                "train": {"seed": 1, "batch_size": 16},
                "precision": "f64",
            }).encode(),
            "gen --gen-config": json.dumps({"n_train": 20, "n_val": 5, "n_test": 5,
                                            "noise": 0.05}).encode(),
            "eval --predictions": "".join(
                json.dumps({"id": i, "answer": ex["answers"][0]}) + "\n"
                for i, ex in enumerate(examples)).encode(),
            "eval --multiple-choice": "".join(
                json.dumps({"id": i, "answers": answers}) + "\n"
                for i in range(len(examples))).encode(),
            "eval --taxonomy": toy_taxonomy_path.read_bytes(),
            "predict --example": json.dumps({
                "features": examples[0]["features"], "question": examples[0]["question"]
            }).encode(),
            "hash-stats --materialize-candidates": b"[0.5, -1.0, 2.0]",
            **{f"checkpoint {name}": (tiny_checkpoint / name).read_bytes()
               for name in ("manifest.json", "config.json", "vocab.json", "answers.json")},
            "data dir": tiny_data_dir,
            "checkpoint": tiny_checkpoint,
        }

    @staticmethod
    def _argv(boundary, valid, work, mutated: bytes):
        def put(name, content):
            (work / name).write_bytes(content)
            return str(work / name)

        data = put("data.jsonl", valid["data"])
        if boundary.startswith("checkpoint "):
            ckpt = shutil.copytree(valid["checkpoint"], work / "ckpt")
            put(f"ckpt/{boundary.split()[1]}", mutated)
            return ["predict", "--checkpoint", str(ckpt), "--data", data]
        ckpt = str(valid["checkpoint"])
        preds = put("p.jsonl", valid["eval --predictions"])
        file = put("mutated", mutated)
        value = mutated.decode("utf-8", "surrogateescape")
        return {
            "train --config": ["train", "--config", file, "--data", str(valid["data dir"]),
                               "--out", str(work / "run"), "--max-epochs", "1"],
            "gen --gen-config": ["gen", "--gen-config", file, "--out", str(work / "gen")],
            "eval --data": ["eval", "--checkpoint", ckpt, "--data", file],
            "eval --predictions": ["eval", "--data", data, "--predictions", file],
            "eval --multiple-choice": ["eval", "--checkpoint", ckpt, "--data", data,
                                       "--multiple-choice", file],
            "eval --taxonomy": ["eval", "--data", data, "--predictions", preds,
                                "--taxonomy", file],
            "retrieve --corpus": ["retrieve", "--checkpoint", ckpt, "--corpus", file,
                                  "--query", "what color is the cube", "--top-k", "3"],
            "predict --example": ["predict", "--checkpoint", ckpt, f"--example={value}"],
            "hash-stats --materialize-candidates": [
                "hash-stats", "--m", "3", "--n", "4", "--k", "3",
                f"--materialize-candidates={value}"],
        }[boundary]

    BOUNDARIES = (
        "train --config", "gen --gen-config", "eval --data", "eval --predictions",
        "eval --multiple-choice", "eval --taxonomy", "retrieve --corpus",
        "predict --example", "hash-stats --materialize-candidates",
        "checkpoint manifest.json", "checkpoint config.json",
        "checkpoint vocab.json", "checkpoint answers.json",
    )

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_mutated_input_exits_cleanly(self, valid, boundary):
        source = valid[{"eval --data": "data", "retrieve --corpus": "data"}.get(boundary, boundary)]
        flag = boundary in ("predict --example", "hash-stats --materialize-candidates")
        # bytes the input already holds keep most mutants parseable past the first check
        byte = st.one_of(st.sampled_from(sorted(set(source))), st.integers(int(flag), 255))
        edit = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                         st.integers(0, len(source)), byte)

        @settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @given(st.lists(edit, min_size=1, max_size=3))
        def run(edits):
            mutated = _mutate(source, edits)
            stdout, stderr = io.StringIO(), io.StringIO()
            with tempfile.TemporaryDirectory() as work, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                argv = self._argv(boundary, valid, Path(work), mutated)
                code = main(argv)
            out, err = stdout.getvalue(), stderr.getvalue()
            assert code in (0, 1), code
            assert "Traceback" not in err
            if code == 1 and not (boundary == "train --config" and out):
                assert out == ""
                lines = err.splitlines()
                assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]
            elif code == 1:  # train's documented abort: its result, marked aborted
                assert strict_json(out)["aborted"] is True
            else:
                check_stdout(argv, out)

        run()

    @staticmethod
    def _edit_tensor(valid, work, name, edit):
        """A copy of the checkpoint whose tensor name in params.bin holds
        edit(its flat entries), written in place."""
        ckpt = shutil.copytree(valid["checkpoint"], work / "ckpt")
        manifest = json.loads((ckpt / "manifest.json").read_text())
        entry = next(e for e in manifest["entries"] if e["name"] == name)
        wire = np.dtype({"f64": "<f8", "f32": "<f4"}[entry["dtype"]])
        with open(ckpt / "params.bin", "r+b") as blob:
            blob.seek(entry["offset"])
            flat = np.frombuffer(blob.read(entry["nbytes"]), dtype=wire)
            blob.seek(entry["offset"])
            blob.write(np.asarray(edit(flat), dtype=wire).tobytes())
        return ckpt

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("command, name", [
        ("predict", "cls.w"), ("predict", "proj.w"), ("train --pretrained-encoder", "gru.u_h"),
    ])
    def test_nonfinite_tensor_is_refused(self, valid, tmp_path, command, name, value):
        # one value-level mutant: a single entry of one tensor in params.bin
        ckpt = self._edit_tensor(valid, tmp_path, name, lambda flat: np.where(
            np.arange(len(flat)) == len(flat) // 2, value, flat))
        data = tmp_path / "data.jsonl"
        data.write_bytes(valid["data"])
        argv = (["predict", "--checkpoint", str(ckpt), "--data", str(data)] if command == "predict"
                else ["train", "--data", str(valid["data dir"]), "--out", str(tmp_path / "run"),
                      "--pretrained-encoder", str(ckpt), "--max-epochs", "1"])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert (code, stdout.getvalue()) == (1, "")
        (line,) = stderr.getvalue().splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "CheckpointError"
        assert repr(name) in error["message"] and "non-finite" in error["message"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [[1e300], [-1e300], [1e308, -1e308], [5e-324]],
                             ids=["+1e300", "-1e300", "+-1e308", "subnormal"])
    @pytest.mark.parametrize("name", ["cls.w", "proj.w", "gru.u_h", "embed.table"])
    @pytest.mark.parametrize("command", ["predict --example", "eval", "retrieve"])
    def test_extreme_finite_tensor_exits_cleanly(self, valid, tmp_path, monkeypatch,
                                                 command, name, value):
        # every entry of one tensor set to a finite extreme (cycling through
        # value): overflow inside the model is refused, never a traceback.
        # The CLI runs without the oracle regime's saturation asserts.
        monkeypatch.setattr(dppnet.encoder, "STRICT_GATES", False)
        ckpt = str(self._edit_tensor(valid, tmp_path, name,
                                     lambda flat: np.resize(value, len(flat))))
        data = tmp_path / "data.jsonl"
        data.write_bytes(valid["data"])
        argv = {
            "predict --example": ["predict", "--checkpoint", ckpt,
                                  "--example", valid["predict --example"].decode()],
            "eval": ["eval", "--checkpoint", ckpt, "--data", str(data)],
            "retrieve": ["retrieve", "--checkpoint", ckpt, "--corpus", str(data),
                         "--query", "what color is the cube", "--top-k", "3"],
        }[command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in (0, 1) and "Traceback" not in err
        assert [str(w.message) for w in caught] == []  # no numpy warning leaves main
        if code == 1:
            assert out == ""
            (line,) = err.splitlines()
            assert json.loads(line)["error"]["type"] == "FloatingPointError"
        else:
            def refuse(constant):
                raise AssertionError(f"non-finite number {constant} in the output")

            for doc in out.splitlines() if command.startswith("predict") else [out]:
                json.loads(doc, parse_constant=refuse)
        # on these rows alternating class weights of +-1e308 overflow scores
        # both ways; an argmax over them answered one class for every row.
        # The overflow itself is refused, before the logits check sees it
        if (command, name, len(value)) == ("eval", "cls.w", 2):
            assert code == 1 and "overflow encountered in matmul" in err

    @pytest.mark.parametrize("name", ["gru.u_h", "embed.table"])
    def test_overflow_is_one_stderr_line_in_a_real_process(self, valid, tmp_path, name):
        # pytest captures numpy's RuntimeWarnings in process; a dppnet process
        # would print them on stderr ahead of (or without) its error line
        ckpt = self._edit_tensor(valid, tmp_path, name,
                                 lambda flat: np.resize([1e308, -1e308], len(flat)))
        data = tmp_path / "data.jsonl"
        data.write_bytes(valid["data"])
        env = {**os.environ, "PYTHONPATH": str(Path(dppnet.encoder.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "dppnet.cli", "predict", "--checkpoint", str(ckpt),
             "--data", str(data)],
            capture_output=True, text=True, env=env, timeout=300)
        assert (run.returncode, run.stdout) == (1, "")
        (line,) = run.stderr.splitlines()
        assert json.loads(line)["error"]["type"] == "FloatingPointError"

    @pytest.mark.parametrize("command", ["gen", "gradcheck"])
    def test_seed_flag_values_exit_cleanly(self, command, tmp_path):
        # numpy refuses a negative seed; the flag must not reach it
        out = tmp_path / "gen"

        @settings(max_examples=10, deadline=None, derandomize=True, database=None)
        @given(st.just(-1) | st.integers(max_value=-2))
        def run(seed):
            argv = [command, f"--seed={seed}"] + (["--out", str(out)] if command == "gen" else [])
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert (code, stdout.getvalue()) == (1, "")
            (line,) = stderr.getvalue().splitlines()
            error = json.loads(line)["error"]
            assert error["type"] == "ConfigError" and "--seed" in error["message"]
            assert not out.exists()

        run()
