import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dppnet.errors import ConfigError
from dppnet.gradcheck import GradCheckReport, grad_check, relative_error
from dppnet.tensor import ParamStore, softmax_xent


def quadratic(store):
    w = store["w"]
    return float(0.5 * (w * w).sum())


def test_quadratic_loss_analytic_gradient():
    store = ParamStore()
    store.add("w", np.linspace(-2, 2, 7))
    report = grad_check(quadratic, store, {"w": store["w"].copy()}, tolerance=1e-9)
    assert report.passed
    assert report.max_rel_err <= 1e-9


def test_corrupted_backward_is_flagged():
    store = ParamStore()
    store.add("w", np.linspace(0.5, 2, 6))
    grads = {"w": store["w"].copy()}
    grads["w"][2] *= 1.10  # +10% on one component

    report = grad_check(quadratic, store, grads)
    assert not report.passed
    assert report.tensors[0].max_rel_err > 1e-3


def test_non_finite_loss_reported_not_raised():
    store = ParamStore()
    store.add("w", np.ones(2))

    report = grad_check(lambda s: float("nan"), store, {"w": np.zeros(2)})
    assert not report.passed
    assert report.tensors[0].name == "<loss>"


def test_f32_store_rejected():
    store = ParamStore("f32")
    store.add("w", np.ones(2))
    with pytest.raises(ConfigError):
        grad_check(quadratic, store, {"w": store["w"].copy()})


def test_missing_gradient_fails_tensor():
    store = ParamStore()
    store.add("w", np.ones(2))
    store.add("b", np.ones(2))

    report = grad_check(quadratic, store, {"w": store["w"].copy()})
    assert not report.passed
    names = {t.name: t.passed for t in report.tensors}
    assert names["w"] and not names["b"]


def test_relative_error_floor_behaves_absolutely_near_zero():
    assert relative_error(0.0, 5e-9) == pytest.approx(5e-6)
    assert relative_error(1.0, 1.1) == pytest.approx(0.1 / 1.1)


def steep(store, k=1000.0):
    # the central difference at eps = 1e-5 is off by (k * eps)^2 / 6 ~ 1.7e-5
    return float(np.exp(k * store["w"]).sum())


def steep_grads(store, k=1000.0, scale=1.0):
    return {"w": scale * k * np.exp(k * store["w"])}


def test_curved_loss_passes_on_fourth_order_difference():
    store = ParamStore()
    store.add("w", np.linspace(-1e-3, 1e-3, 5))
    report = grad_check(steep, store, steep_grads(store))
    assert report.passed
    assert report.tolerance == 1e-5


def test_scaled_gradient_of_curved_loss_still_fails():
    store = ParamStore()
    store.add("w", np.linspace(-1e-3, 1e-3, 5))
    report = grad_check(steep, store, steep_grads(store, scale=1.001))
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

    def loss_fn(s):
        _, caches = model.forward(cfg, s, feats, tokens, "train")
        return softmax_xent(caches["logits"], targets)[0]

    _, _, grads = model.loss_and_grads(cfg, store, feats, tokens, targets, mode="train")
    names = ["embed.table", "proj.w"]
    assert grad_check(loss_fn, store, grads, names=names).passed
    scaled = {k: 1.001 * g for k, g in grads.items()}
    report = grad_check(loss_fn, store, scaled, names=names)
    assert not any(t.passed for t in report.tensors)


@pytest.mark.parametrize("variant", ["dppnet", "concat"])
def test_full_model_gradient_with_a_repeated_question(variant):
    # rows 0 and 2 ask one question: the encoder runs on 3 rows and backward
    # sums the two rows' h_last gradients before the GRU
    from dataclasses import replace

    from dppnet import model, oracles

    cfg = replace(oracles.TOY, variant=variant)
    store, feats, tokens, targets = oracles._full_model_instance(
        cfg, np.random.default_rng(41), batch=4)
    tokens[2] = tokens[0]
    _, caches, grads = model.loss_and_grads(cfg, store, feats, tokens, targets, "train")
    assert len(caches["shared"][0]) == 3
    relu_inputs = oracles._relu_inputs(cfg, store, caches)
    assert all(np.abs(x).min() > oracles.KINK_MARGIN for x in relu_inputs)

    def loss_fn(s):
        _, caches = model.forward(cfg, s, feats, tokens, "train")
        return softmax_xent(caches["logits"], targets)[0]

    report = grad_check(loss_fn, store, grads)
    assert report.passed, [t.name for t in report.tensors if not t.passed]


@pytest.mark.parametrize("variant", ["dppnet", "concat"])
def test_full_model_oracle_runs_backward_once(monkeypatch, variant):
    from dppnet import model, oracles

    calls = []
    backward = model.backward

    def counted(*args, **kwargs):
        calls.append(1)
        return backward(*args, **kwargs)

    monkeypatch.setattr(model, "backward", counted)
    report = oracles.check_full_model(variant, np.random.default_rng(0))
    assert report.passed
    assert len(calls) == 1


@pytest.mark.parametrize("variant", ["dppnet", "concat"])
def test_full_model_oracle_loss_is_the_training_loss(monkeypatch, variant):
    # the loss-only callable the oracle checks gives the same bits as the
    # loss model.loss_and_grads returns, at the base point and perturbed
    from dppnet import model, oracles

    seen = {}
    loss_and_grads = model.loss_and_grads

    def recorded(*args, **kwargs):
        seen["call"] = args, kwargs
        return loss_and_grads(*args, **kwargs)

    def captured(loss_fn, store, grads, **kwargs):
        seen["check"] = loss_fn, store
        return grad_check(loss_fn, store, grads, **kwargs)

    monkeypatch.setattr(model, "loss_and_grads", recorded)
    monkeypatch.setattr(oracles, "grad_check", captured)
    oracles.check_full_model(variant, np.random.default_rng(3))
    loss_fn, store = seen["check"]
    args, kwargs = seen["call"]
    assert args[1] is store
    assert loss_fn(store) == loss_and_grads(*args, **kwargs)[0]
    store["embed.table"][1, 2] += 1e-5
    assert loss_fn(store) == loss_and_grads(*args, **kwargs)[0]


@pytest.mark.parametrize("seed", [203, 210])
def test_oracle_suite_passes_where_central_differences_fell_short(seed):
    # central differences alone failed here: model.dppnet embed.table at 203
    # (rel err 1.67e-5) and model.concat mix.b1 at 210 (2.09e-4)
    from dppnet.oracles import run_oracle_suite

    report = run_oracle_suite(seed)
    assert report["passed"], [m for m in report["modules"] if not m["passed"]]
    assert all(m["tolerance"] in (1e-5, 1e-6) for m in report["modules"])


def test_full_model_instance_keeps_relu_inputs_off_the_kink():
    # seed 76 drew an adapter pre-activation 7.6e-6 from the ReLU kink, inside
    # the +-1e-5 stencil: model.dppnet failed adapter.w1 at rel err 0.27 and
    # adapter.b1 at 0.02, though both gradients pass at eps 1e-7
    from dppnet.oracles import run_oracle_suite

    report = run_oracle_suite(76)
    assert report["passed"], [m for m in report["modules"] if not m["passed"]]


@pytest.mark.parametrize("variant", ["dppnet", "concat"])
def test_full_model_oracle_loss_is_the_training_loss_for_every_tensor(monkeypatch, variant):
    # bit for bit at the base point and with each trainable tensor's entry of
    # largest gradient moved, so no cached encoding goes stale
    from dppnet import model, oracles

    seen = {}
    loss_and_grads = model.loss_and_grads

    def recorded(*args, **kwargs):
        seen["call"] = args, kwargs
        return loss_and_grads(*args, **kwargs)

    def captured(loss_fn, store, grads, **kwargs):
        seen["check"] = loss_fn, store
        return GradCheckReport(tolerance=1e-5)

    monkeypatch.setattr(model, "loss_and_grads", recorded)
    monkeypatch.setattr(oracles, "grad_check", captured)
    oracles.check_full_model(variant, np.random.default_rng(5))
    loss_fn, store = seen["check"]
    args, kwargs = seen["call"]
    base, _, grads = loss_and_grads(*args, **kwargs)
    assert loss_fn(store) == base
    for name in (n for n in store.names() if store.is_trainable(n)):
        w = store[name]
        idx = np.unravel_index(np.abs(grads[name]).argmax(), w.shape)
        orig = w[idx]
        w[idx] = orig + 1e-5
        moved = loss_and_grads(*args, **kwargs)[0]
        if name.split(".")[0] in model.ENCODER_PREFIXES:
            assert moved != base, name  # a stale encoding would show
        assert loss_fn(store) == moved, name
        w[idx] = orig
        assert loss_fn(store) == base, name


@pytest.mark.parametrize("name", ["gru.u_h", "cls.w"])
def test_full_model_oracle_catches_a_scaled_gradient(monkeypatch, name):
    # a 0.1% error on one encoder tensor and on one head tensor each fails
    from dppnet import model, oracles

    loss_and_grads = model.loss_and_grads

    def scaled(*args, **kwargs):
        loss, caches, grads = loss_and_grads(*args, **kwargs)
        grads[name] = 1.001 * grads[name]
        return loss, caches, grads

    monkeypatch.setattr(model, "loss_and_grads", scaled)
    report = oracles.check_full_model("dppnet", np.random.default_rng(0))
    assert [t.name for t in report.tensors if not t.passed] == [name]


@pytest.mark.parametrize("variant", ["dppnet", "concat"])
def test_full_model_oracle_encodes_only_moved_questions(monkeypatch, variant):
    from dppnet import encoder, model, oracles

    encodes = []
    gru_encode = encoder.gru_encode
    monkeypatch.setattr(encoder, "gru_encode", lambda *a: encodes.append(1) or gru_encode(*a))
    moved = []

    def counted(loss_fn, store, grads, **kwargs):
        names = [n for n in store.names() if n.split(".")[0] in model.ENCODER_PREFIXES]
        base = {n: store[n].copy() for n in names}

        def loss(s):
            moved.append(any(not np.array_equal(s[n], base[n]) for n in names))
            return loss_fn(s)

        encodes.clear()  # only the check's own evaluations count
        return grad_check(loss, store, grads, **kwargs)

    monkeypatch.setattr(oracles, "grad_check", counted)
    report = oracles.check_full_model(variant, np.random.default_rng(0))
    assert report.passed
    assert 0 < sum(moved) < len(moved)
    assert len(encodes) <= sum(moved) + 1


def test_loss_raising_at_a_stencil_point_fails_that_tensor():
    # an overflow raised once w[1] > 2 used to escape grad_check and leave
    # w[1] at 2.00001 in the caller's store
    def loss_fn(s):
        if s["w"][1] > 2.0:
            raise FloatingPointError("overflow encountered in exp")
        return quadratic(s)

    store = ParamStore()
    store.add("w", np.array([1.0, 2.0, 3.0]))
    store.add("b", np.ones(2))
    report = grad_check(loss_fn, store, {"w": store["w"].copy(), "b": np.zeros(2)})
    assert np.array_equal(store["w"], [1.0, 2.0, 3.0])
    w, b = report.tensors
    assert (w.name, w.passed, w.max_rel_err, w.note) == (
        "w", False, math.inf, "non-finite loss at w[1]")
    assert b.passed


def _suite_on_two_cpus(monkeypatch, seed):
    # the suite as run on a two-CPU host, whatever this one has; returns
    # (report, forks)
    from dppnet import oracles

    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        m.setattr(os, "fork", counted)
        report = oracles.run_oracle_suite(seed)
    return report, len(forks)


@pytest.mark.parametrize("seed", [0, 31, 76, 203, 210])
def test_oracle_suite_on_two_cpus_gives_the_in_order_report(monkeypatch, seed):
    from dppnet import oracles

    def refuse():
        raise AssertionError("the one-CPU suite forked")

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        m.setattr(os, "fork", refuse)
        in_order = oracles.run_oracle_suite(seed)
    two, forks = _suite_on_two_cpus(monkeypatch, seed)
    assert forks == 1
    assert two == in_order
    assert [m["module"] for m in two["modules"]][-2:] == ["model.dppnet", "model.concat"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_oracle_suite_leaves_no_child(monkeypatch):
    report, forks = _suite_on_two_cpus(monkeypatch, 0)
    assert report["passed"] and forks == 1
    _no_child_left()


@pytest.mark.parametrize("cpus", [2, 1])
def test_sweeps_run_after_the_one_fork_in_report_order(monkeypatch, cpus):
    # every case is drawn first: on two CPUs the child sweeps model.dppnet
    # while this process sweeps the other ten, none before the fork; on one
    # this process sweeps all eleven.  Either way in report order.
    from dppnet import oracles

    events = []  # "fork" and this process's sweeps
    fork = os.fork
    check = oracles.grad_check

    def forked():
        events.append("fork")
        return fork()

    def spied(loss_fn, store, grads, **kwargs):
        r = check(loss_fn, store, grads, **kwargs)
        events.append((os.getpid(), r.passed, r.max_rel_err, r.tolerance))
        return r

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(os, "fork", forked)
        m.setattr(oracles, "grad_check", spied)
        report = oracles.run_oracle_suite(0)
    here = [(os.getpid(), m["passed"], m["max_rel_err"], m["tolerance"])
            for m in report["modules"] if cpus == 1 or m["module"] != "model.dppnet"]
    assert events == ["fork"] * (cpus == 2) + here
    assert len(here) == 12 - cpus
    _no_child_left()


@pytest.mark.parametrize("side", ["child", "parent", "small"])
def test_a_failed_sweep_raises_here_and_leaves_no_child(monkeypatch, side):
    # the child checks model.dppnet while this process checks the nine
    # operation oracles (batchnorm's is the one store with a gamma) and then
    # model.concat, the one store with mix.* tensors; a child still sweeping
    # when this process fails is killed, not waited for
    from dppnet import oracles

    pid = os.getpid()
    check = oracles.grad_check
    marks = {"parent": "mix.w1", "small": "gamma"}

    def failing(loss_fn, store, grads, **kwargs):
        in_child = os.getpid() != pid
        if side == "child" and in_child or marks.get(side) in store.names():
            raise RuntimeError(f"sweep failed in the {side}")
        if in_child:
            time.sleep(60)
        return check(loss_fn, store, grads, **kwargs)

    monkeypatch.setattr(oracles, "grad_check", failing)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=f"^sweep failed in the {side}$"):
        _suite_on_two_cpus(monkeypatch, 0)
    assert time.perf_counter() - start < 30
    _no_child_left()


def test_forked_sweep_never_flushes_this_process_buffers():
    # stdout into a pipe is block-buffered: a child that flushed it on its way
    # out would print the pending text a second time
    import dppnet

    code = ("import os, sys; from dppnet import oracles; "
            "os.sched_getaffinity = lambda pid: {0, 1}; sys.stdout.write('pending'); "
            "oracles.run_oracle_suite(0)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(dppnet.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert (run.returncode, run.stdout, run.stderr) == (0, "pending", "")
