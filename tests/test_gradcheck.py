import math

import numpy as np
import pytest

from dppnet.errors import ConfigError
from dppnet.gradcheck import grad_check, relative_error
from dppnet.tensor import ParamStore


def quadratic(store):
    w = store["w"]
    return float(0.5 * (w * w).sum()), {"w": w.copy()}


def test_quadratic_loss_analytic_gradient():
    store = ParamStore()
    store.add("w", np.linspace(-2, 2, 7))
    report = grad_check(quadratic, store, tolerance=1e-9)
    assert report.passed
    assert report.max_rel_err <= 1e-9


def test_corrupted_backward_is_flagged():
    store = ParamStore()
    store.add("w", np.linspace(0.5, 2, 6))

    def corrupted(s):
        loss, grads = quadratic(s)
        grads["w"][2] *= 1.10  # +10% on one component
        return loss, grads

    report = grad_check(corrupted, store)
    assert not report.passed
    assert report.tensors[0].max_rel_err > 1e-3


def test_non_finite_loss_reported_not_raised():
    store = ParamStore()
    store.add("w", np.ones(2))

    def bad(s):
        return float("nan"), {"w": np.zeros(2)}

    report = grad_check(bad, store)
    assert not report.passed
    assert report.tensors[0].name == "<loss>"


def test_f32_store_rejected():
    store = ParamStore("f32")
    store.add("w", np.ones(2))
    with pytest.raises(ConfigError):
        grad_check(quadratic, store)


def test_missing_gradient_fails_tensor():
    store = ParamStore()
    store.add("w", np.ones(2))
    store.add("b", np.ones(2))

    def partial(s):
        return float((s["w"] ** 2).sum() / 2), {"w": s["w"].copy()}

    report = grad_check(partial, store)
    assert not report.passed
    names = {t.name: t.passed for t in report.tensors}
    assert names["w"] and not names["b"]


def test_relative_error_floor_behaves_absolutely_near_zero():
    assert relative_error(0.0, 5e-9) == pytest.approx(5e-6)
    assert relative_error(1.0, 1.1) == pytest.approx(0.1 / 1.1)


def test_report_dict_shape():
    store = ParamStore()
    store.add("w", np.ones(3))
    d = grad_check(quadratic, store).as_dict()
    assert set(d) == {"passed", "tolerance", "max_rel_err", "tensors"}
    assert d["tensors"][0]["name"] == "w"


def steep(store, k=1000.0, scale=1.0):
    # the central difference at eps = 1e-5 is off by (k * eps)^2 / 6 ~ 1.7e-5
    w = store["w"]
    e = np.exp(k * w)
    return float(e.sum()), {"w": scale * k * e}


def test_curved_loss_passes_on_fourth_order_difference():
    store = ParamStore()
    store.add("w", np.linspace(-1e-3, 1e-3, 5))
    report = grad_check(steep, store)
    assert report.passed
    assert report.tolerance == 1e-5


def test_scaled_gradient_of_curved_loss_still_fails():
    store = ParamStore()
    store.add("w", np.linspace(-1e-3, 1e-3, 5))
    report = grad_check(lambda s: steep(s, scale=1.001), store)
    assert not report.passed
    assert report.max_rel_err > 9e-4


def test_scaled_model_gradient_still_fails():
    # a 0.1% error in the analytic gradient of the composed model is caught,
    # at the seed whose embedding table needed the fourth-order difference
    from dataclasses import replace

    from dppnet import model
    from dppnet.oracles import TOY

    cfg = replace(TOY, variant="dppnet")
    rng = np.random.default_rng(203)
    store = model.init_params(cfg, "f64", seed=5)
    feats = rng.normal(size=(2, cfg.feature_dim))
    tokens = rng.integers(0, cfg.vocab_size, size=(2, 5))
    targets = rng.integers(0, cfg.num_answers, size=2)

    def loss_fn(s, scale=1.0):
        loss, _, grads = model.loss_and_grads(
            cfg, s, feats, tokens, targets, mode="train", update_running=False
        )
        return loss, {k: scale * g for k, g in grads.items()}

    names = ["embed.table", "proj.w"]
    assert grad_check(loss_fn, store, names=names).passed
    report = grad_check(lambda s: loss_fn(s, 1.001), store, names=names)
    assert not any(t.passed for t in report.tensors)


@pytest.mark.parametrize("seed", [203, 210])
def test_oracle_suite_passes_where_central_differences_fell_short(seed):
    # central differences alone failed here: model.dppnet embed.table at 203
    # (rel err 1.67e-5) and model.concat mix.b1 at 210 (2.09e-4)
    from dppnet.oracles import run_oracle_suite

    report = run_oracle_suite(seed)
    assert report["passed"], [m for m in report["modules"] if not m["passed"]]
    assert all(m["tolerance"] in (1e-5, 1e-6) for m in report["modules"])
