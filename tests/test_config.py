import json

import pytest

from dppnet.cli import main
from dppnet.config import ModelConfig, RunConfig, TrainSchedule
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


def test_pretrained_encoder_path_must_be_text():
    with pytest.raises(ConfigError, match="pretrained_encoder"):
        RunConfig(pretrained_encoder=5)


def test_float_fields_take_ints_and_optional_fields_take_none():
    sched = TrainSchedule(lr=1, clip_threshold=2, overfit_gap=0)
    assert (sched.lr, sched.clip_threshold) == (1, 2)
    cfg = ModelConfig(feature_dim=None, num_answers=None, concat_hidden=None, bn_momentum=0)
    assert not cfg.resolved


def test_saved_config_round_trips(tmp_path):
    rc = RunConfig(model=ModelConfig(feature_dim=24, gru_bias=True),
                   train=TrainSchedule(lr=0.5, max_epochs=3), pretrained_encoder="enc")
    rc.save(tmp_path / "c.json")
    assert RunConfig.from_file(tmp_path / "c.json") == rc
