import dataclasses
import json

import pytest

from dppnet.cli import main
from dppnet.config import RETIRED, ModelConfig, RunConfig, TrainSchedule
from dppnet.data import GenConfig, generate_synthetic, save_jsonl
from dppnet.errors import ConfigError


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("train", "batch_size", 2.5),
        ("train", "max_epochs", "1"),
        ("train", "patience", True),
        ("train", "lr", "0.01"),
        ("train", "clip_threshold", False),
        ("train", "seed", None),
        ("model", "hidden_dim", "8"),
        ("model", "num_candidates", 64.0),
        ("model", "feature_dim", "24"),
        ("model", "gru_bias", 1),
        ("model", "bn_eps", [1e-5]),
    ],
)
def test_train_config_field_type_named(capsys, tmp_path, section, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {field: value}}))
    code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ConfigError"
    assert field in error["message"]


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (TrainSchedule, "seed", -1),
        (TrainSchedule, "lr", -0.01),
        (TrainSchedule, "lr", 0.0),
        (TrainSchedule, "lr", float("nan")),
        (TrainSchedule, "lr", float("inf")),
        (TrainSchedule, "max_epochs", 0),
        (TrainSchedule, "beta1", 1.0),
        (TrainSchedule, "beta1", -0.1),
        (TrainSchedule, "beta2", 1.0),
        (TrainSchedule, "beta2", float("nan")),
        (TrainSchedule, "adam_eps", 0.0),
        (TrainSchedule, "adam_eps", -1e-8),
        (TrainSchedule, "unfreeze_patience", -1),
        (TrainSchedule, "overfit_epochs", 0),
        (TrainSchedule, "overfit_gap", float("nan")),
        (TrainSchedule, "overfit_gap", float("inf")),
        (TrainSchedule, "overfit_gap", float("-inf")),
        (ModelConfig, "bn_eps", 0.0),
        (ModelConfig, "bn_eps", -1e-5),
        (ModelConfig, "bn_momentum", 1.5),
        (ModelConfig, "bn_momentum", -0.1),
        (ModelConfig, "bn_momentum", True),
        (ModelConfig, "bn_eps", 0.001),
        (ModelConfig, "concat_hidden", 16),
        (ModelConfig, "concat_hidden", 0),
        (TrainSchedule, "beta1", 0.5),
        (TrainSchedule, "beta2", "0.999"),
    ],
)
def test_values_that_would_train_wrong_are_refused(cls, field, value):
    # as a saved config gives them: the retired fields (config.RETIRED) are
    # refused at any value but their constant's
    section = {ModelConfig: "model", TrainSchedule: "train"}[cls]
    with pytest.raises(ConfigError, match=field):
        RunConfig.from_dict({section: {field: value}})


def test_range_edges_stay_valid():
    TrainSchedule(unfreeze_patience=0, overfit_epochs=1, max_epochs=1)
    ModelConfig(num_candidates=1)


def test_retired_fields_are_class_constants():
    assert (ModelConfig.bn_momentum, ModelConfig.bn_eps) == (0.1, 1e-5)
    assert (TrainSchedule.beta1, TrainSchedule.beta2, TrainSchedule.adam_eps) == (
        0.9, 0.999, 1e-8)
    retired = {name for names in RETIRED.values() for name in names}
    assert retired == {"concat_hidden", "bn_momentum", "bn_eps", "beta1", "beta2", "adam_eps"}
    fields = {f.name for cls in (ModelConfig, TrainSchedule) for f in dataclasses.fields(cls)}
    assert not retired & fields
    assert (len(dataclasses.fields(ModelConfig)), len(dataclasses.fields(TrainSchedule))) == (
        13, 9)


@pytest.mark.parametrize("flag, value", [("--lr", "-0.01"), ("--max-epochs", "0"), ("--seed", "-1"),
                                         ("--overfit-gap", "nan")])
def test_train_flag_out_of_range_writes_nothing(capsys, tmp_path, flag, value):
    splits = generate_synthetic(GenConfig(n_train=40, n_val=10, n_test=10), seed=2)
    for name, split in zip(("train", "val", "test"), splits):
        save_jsonl(tmp_path / f"{name}.jsonl", split)
    out = tmp_path / "out"
    code = main(["train", "--data", str(tmp_path), "--out", str(out), flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ConfigError"
    assert flag[2:].replace("-", "_") in error["message"]
    assert not out.exists()


def test_pretrained_encoder_path_must_be_text():
    with pytest.raises(ConfigError, match="pretrained_encoder"):
        RunConfig(pretrained_encoder=5)


def test_empty_pretrained_encoder_path_is_refused():
    # "" would name the working directory; None is the way to train without one
    with pytest.raises(ConfigError, match="pretrained_encoder"):
        RunConfig(pretrained_encoder="")
    with pytest.raises(ConfigError, match="pretrained_encoder"):
        RunConfig.from_dict({"pretrained_encoder": ""})


@pytest.mark.parametrize("policy, encoder", [
    ("none", None), ("optional", "enc"), ("required", "enc"), ("anything", "enc"),
])
def test_legacy_pretrained_policy_still_loads(tmp_path, policy, encoder):
    # every config.json written before the path alone decided holds the key;
    # "none" meant no encoder whatever the path said
    saved = {"precision": "f64", "pretrained_encoder": "enc", "pretrained_policy": policy}
    (tmp_path / "config.json").write_text(json.dumps(saved))
    rc = RunConfig.from_file(tmp_path / "config.json")
    assert rc.pretrained_encoder == encoder
    rc.save(tmp_path / "again.json")
    assert "pretrained_policy" not in json.loads((tmp_path / "again.json").read_text())


def test_with_overrides_sets_each_section():
    base = RunConfig()
    rc = base.with_overrides(precision="f32", pretrained_encoder="enc", variant="concat",
                             num_candidates=64, seed=7, lr=0.5)
    assert (rc.precision, rc.pretrained_encoder) == ("f32", "enc")
    assert rc.model == ModelConfig(variant="concat", num_candidates=64)
    assert rc.train == TrainSchedule(seed=7, lr=0.5)
    assert base == RunConfig()  # the original is left as it was


def test_with_overrides_leaves_none_unchanged():
    rc = RunConfig(precision="f32", pretrained_encoder="enc",
                   train=TrainSchedule(seed=4), model=ModelConfig(variant="concat"))
    assert rc.with_overrides(precision=None, pretrained_encoder=None, seed=None,
                             variant=None, lr=None) == rc


def test_with_overrides_checks_what_it_sets():
    with pytest.raises(ConfigError, match="lr"):
        RunConfig().with_overrides(lr=-1.0)
    with pytest.raises(ConfigError, match="variant"):
        RunConfig().with_overrides(variant="dense")
    with pytest.raises(TypeError, match="no_such_field"):
        RunConfig().with_overrides(no_such_field=1)


def test_float_fields_take_ints_and_optional_fields_take_none():
    sched = TrainSchedule(lr=1, clip_threshold=2, overfit_gap=0)
    assert (sched.lr, sched.clip_threshold) == (1, 2)
    cfg = ModelConfig(feature_dim=None, num_answers=None, vocab_size=None)
    with pytest.raises(ConfigError, match="not resolved"):
        cfg.require_resolved()


def test_saved_config_round_trips(tmp_path):
    rc = RunConfig(model=ModelConfig(feature_dim=24, gru_bias=True),
                   train=TrainSchedule(lr=0.5, max_epochs=3), pretrained_encoder="enc")
    rc.save(tmp_path / "c.json")
    assert RunConfig.from_file(tmp_path / "c.json") == rc
