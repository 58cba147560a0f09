"""Every dppnet name the benchmark reaches exists.

perfbench/spans.py wraps (module, function) pairs for its traced run, and
perfbench/workloads.py calls dppnet through module attributes
(``trainer.eval_batches``, ``model.encode_question``), reads
``model.forward``'s caches (``caches["f_in"]``) and reads config attributes
(``cfg.bn_eps``).  Both files are only parsed here, never run, so a name
deleted or renamed in src/ fails tier-1 instead of a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from conftest import toy_model_config

from dppnet.config import ModelConfig, RunConfig

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(name):
    path = BENCH / name
    return ast.parse(path.read_text(), filename=str(path))


def span_pins():
    """SPANS' (module, function) pairs, read as a literal."""
    for node in _parse("spans.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return [(mod, attr) for mod, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no SPANS")


def workload_pins():
    """(module, name) for every `<module>.<attr>` read of a module imported
    with `from dppnet import ...`, and every `from dppnet.<module> import`."""
    tree = _parse("workloads.py")
    modules, pins = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dppnet":
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dppnet."):
            pins.update((node.module[len("dppnet."):], alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            pins.add((node.value.id, node.attr))
    return sorted(pins)


def _missing(pins):
    return [f"dppnet.{mod}.{attr}" for mod, attr in pins
            if not hasattr(importlib.import_module(f"dppnet.{mod}"), attr)]


def test_every_traced_span_wraps_a_dppnet_function():
    pins = span_pins()
    assert len(pins) >= 40
    assert _missing(pins) == []
    for mod, attr in pins:
        assert callable(getattr(importlib.import_module(f"dppnet.{mod}"), attr)), (mod, attr)


def test_every_dppnet_name_the_workloads_read_exists():
    pins = workload_pins()
    assert {("trainer", "eval_batches"), ("model", "encode_question"),
            ("dynlayer", "materialize_weights"), ("config", "TrainSchedule")} <= set(pins)
    assert len(pins) >= 26  # 23 module attributes and 3 imported config names
    assert _missing(pins) == []


def cache_pins():
    """The string keys workloads.py subscripts a name `caches` with."""
    return sorted({node.slice.value for node in ast.walk(_parse("workloads.py"))
                   if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                   and node.value.id == "caches" and isinstance(node.slice, ast.Constant)})


@pytest.mark.parametrize("questions", [[0, 1, 0, 2, 1], [0, 1, 2], [0]],
                         ids=["repeated", "distinct", "one-row"])
def test_every_cache_the_workloads_read_has_a_row_per_example(questions):
    from dppnet import model

    keys = cache_pins()
    assert {"f_in", "candidates"} <= set(keys)
    cfg = toy_model_config()
    store = model.init_params(cfg, "f64", seed=0)
    rng = np.random.default_rng(0)
    pool = rng.permutation(cfg.vocab_size)[:3 * 4].reshape(3, 4)  # three distinct questions
    feats = rng.normal(size=(len(questions), cfg.feature_dim))
    _, caches = model.forward(cfg, store, feats, pool[questions], mode="eval")
    for key in keys:
        assert len(caches[key]) == len(questions), key


# the names workloads.py gives a model config and a run config, by default
CONFIGS = {"cfg": ModelConfig(), "rc": RunConfig(), "run_config": RunConfig()}


def config_pins():
    """(name, attribute) for every attribute read on a name of CONFIGS."""
    return sorted({(node.value.id, node.attr) for node in ast.walk(_parse("workloads.py"))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in CONFIGS})


def test_every_config_attribute_the_workloads_read_exists():
    pins = config_pins()
    assert {("cfg", "bn_eps"), ("cfg", "hash_spec"), ("rc", "model"),
            ("rc", "precision")} <= set(pins)
    assert [f"{name}.{attr}" for name, attr in pins if not hasattr(CONFIGS[name], attr)] == []
