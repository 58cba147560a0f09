"""Every dppnet name the benchmark reaches exists.

perfbench/spans.py wraps (module, function) pairs for its traced run, and
perfbench/workloads.py calls dppnet through module attributes
(``trainer.eval_batches``, ``model.encode_question``).  Both files are only
parsed here, never run, so a name deleted or renamed in src/ fails tier-1
instead of a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

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
