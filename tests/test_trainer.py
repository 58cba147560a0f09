import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_run_config

from dppnet import model as mdl, trainer
from dppnet.config import RunConfig, TrainSchedule
from dppnet.data import GenConfig, generate_synthetic
from dppnet.errors import ConfigError, DataFormatError
from dppnet.tensor import ParamStore
from dppnet.trainer import (
    AdamState,
    ScheduleController,
    adam_step,
    clip_gradients,
    linear_probe_accuracy,
    train,
)


def gathered(grads):
    """grads as adam_step hands them to clip_gradients: gathered into an
    AdamState's flat row over a store of their shapes."""
    store = ParamStore()
    for name, g in grads.items():
        store.add(name, np.zeros_like(g))
    return AdamState().gather(store, grads)


class TestClip:
    def test_below_threshold_unchanged(self):
        grads = {"w": np.array([0.03, 0.04])}  # norm 0.05
        clipped = gathered(grads)
        assert clip_gradients(clipped, 0.1) == pytest.approx(0.05)
        assert np.array_equal(clipped["w"], grads["w"])

    def test_scaling_hand_value(self):
        clipped = gathered({"a": np.array([0.3]), "b": np.array([0.4])})  # norm 0.5
        assert clip_gradients(clipped, 0.1) == pytest.approx(0.5)
        assert clipped["a"][0] == pytest.approx(0.06)
        assert clipped["b"][0] == pytest.approx(0.08)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20),
           st.floats(0.01, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_post_clip_norm_bounded(self, values, threshold):
        clipped = gathered({"w": np.array(values)})
        clip_gradients(clipped, threshold)
        assert math.sqrt(float((clipped["w"] ** 2).sum())) <= threshold + 1e-12

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ConfigError):
            clip_gradients(gathered({"w": np.ones(1)}), 0.0)
        # through the optimizer's one entry, before any parameter moves
        store = ParamStore()
        store.add("w", np.ones(1))
        with pytest.raises(ConfigError, match="clip threshold"):
            adam_step(store, {"w": np.ones(1)}, AdamState(clip_threshold=0.0))
        assert store["w"][0] == 1.0


class TestAdam:
    def test_first_step_moves_by_lr_against_gradient_sign(self):
        store = ParamStore()
        store.add("w", np.array([1.0, -2.0]))
        g = np.array([0.37, -0.11])
        state = AdamState(lr=0.01)
        adam_step(store, {"w": g}, state)
        # first bias-corrected step collapses to lr * sign(grad), epsilon aside
        assert np.allclose(store["w"], [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)

    def test_zero_grad_zero_moments_is_identity(self):
        store = ParamStore()
        store.add("w", np.array([3.0]))
        state = AdamState()
        adam_step(store, {"w": np.zeros(1)}, state)
        assert store["w"][0] == 3.0

    def test_quadratic_descent_matches_scalar_simulation(self):
        # independent scalar re-simulation of the same update rule
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        w, m, v = 1.0, 0.0, 0.0
        trace = []
        for t in range(1, 11):
            g = w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
            trace.append(w)
        store = ParamStore()
        store.add("w", np.array([1.0]))
        state = AdamState(lr=lr)
        prev = 1.0
        for t in range(10):
            adam_step(store, {"w": store["w"].copy()}, state)
            assert store["w"][0] == pytest.approx(trace[t], abs=1e-12)
            assert abs(store["w"][0]) < abs(prev)
            prev = store["w"][0]

    def test_frozen_parameter_bit_identical(self):
        # a tensor left out of grads keeps its value and moments, and resumes
        # from them when handed in again
        store = ParamStore()
        store.add("w", np.array([1.0]))
        store.add("frozen.w", np.array([2.0]))
        state = AdamState()
        adam_step(store, {"w": np.ones(1), "frozen.w": np.full(1, 0.5)}, state)
        raw = store["frozen.w"].tobytes()
        for _ in range(5):
            adam_step(store, {"w": np.ones(1)}, state)
        assert store["frozen.w"].tobytes() == raw
        assert store["w"][0] != 1.0
        # untouched moments: handed in again, step 7 starts from the moments of step 1
        adam_step(store, {"w": np.ones(1), "frozen.w": np.full(1, 0.25)}, state)
        b1, b2, eps = TrainSchedule.beta1, TrainSchedule.beta2, TrainSchedule.adam_eps
        g1, g7 = np.full(1, 0.5), np.full(1, 0.25)
        m = b1 * ((1.0 - b1) * g1) + (1.0 - b1) * g7
        v = b2 * ((1.0 - b2) * (g1 * g1)) + (1.0 - b2) * (g7 * g7)
        step = state.lr * (m / (1.0 - b1 ** 7)) / (np.sqrt(v / (1.0 - b2 ** 7)) + eps)
        assert store["frozen.w"].tobytes() == (np.frombuffer(raw) - step).tobytes()

    @pytest.mark.parametrize("name", ["bn.running_mean", "nope"])
    def test_gradient_of_no_trainable_tensor_is_refused(self, name):
        # a gradient the step cannot apply is an error, never dropped
        store = ParamStore()
        store.add("w", np.ones(2))
        store.add("bn.running_mean", np.zeros(2), trainable=False)
        before, state = store.buffer.copy(), AdamState()
        with pytest.raises(ConfigError, match=re.escape(repr(name))):
            adam_step(store, {"w": np.ones(2), name: np.ones(2)}, state)
        assert store.buffer.tobytes() == before.tobytes()
        assert state.step == 0

    def test_shape_mismatch_rejected(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        with pytest.raises(ConfigError):
            adam_step(store, {"w": np.ones(3)}, AdamState())

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_clip_and_step_match_a_per_tensor_reference(self, precision, monkeypatch):
        # the folded per-tensor expressions of the update and a norm of one
        # einsum per run of abutting tensors, byte for byte, over a store
        # whose gradients leave out a prefix, a tensor between two updated ones
        # and a non-trainable one, while the first two come back and another
        # drops out, as model.backward leaves out frozen branches
        dt = np.dtype(precision.replace("f", "float"))
        rng = np.random.default_rng(3)
        shapes = {"adapter.w": (4,), "a.w": (3, 4), "frozen.w": (5,), "b.w": (2, 3),
                  "stats": (4,), "c.b": (6,)}
        store = ParamStore(precision)
        for name, shape in shapes.items():
            store.add(name, rng.normal(size=shape), trainable=name != "stats")
        frozen = {"adapter.w", "frozen.w"}
        values = {n: store[n].copy() for n in shapes}
        m, v = {}, {}
        state = AdamState(lr=0.05, clip_threshold=1.0)
        lr, b1, b2, eps = (state.lr, TrainSchedule.beta1, TrainSchedule.beta2,
                           TrainSchedule.adam_eps)
        clipped = []  # each step's gathered gradients, as clipping left them
        real = trainer.clip_gradients

        def spy(grads, threshold):
            norm = real(grads, threshold)
            clipped.append({k: g.tobytes() for k, g in grads.items()})
            return norm

        monkeypatch.setattr(trainer, "clip_gradients", spy)
        for t in range(1, 9):
            if t == 3:
                frozen.discard("adapter.w")
            if t == 4:
                frozen.discard("frozen.w")
            if t == 7:
                frozen.add("b.w")
            live = [n for n in shapes if n not in ("stats", *frozen)]
            # backward's order is not the buffer's; the norm adds in the buffer's
            grads = {n: (rng.normal(size=shapes[n]) * 10.0 ** (t % 3 - 1)).astype(dt)
                     for n in reversed(live)}
            runs = []  # the live tensors' names, grouped into runs that abut in the buffer
            for name in live:
                if runs and store.span(runs[-1][-1])[1] == store.span(name)[0]:
                    runs[-1].append(name)
                else:
                    runs.append([name])
            sq = 0.0
            for run in runs:
                r = np.concatenate([grads[n].ravel() for n in run])
                sq += float(np.einsum("i,i->", r, r))
            ref_norm = math.sqrt(sq)
            ref = grads
            if ref_norm > 1.0:
                ref = {k: g * (1.0 / ref_norm) for k, g in grads.items()}
            assert adam_step(store, grads, state) == ref_norm
            assert clipped[-1] == {k: g.tobytes() for k, g in ref.items()}
            root = math.sqrt(1.0 - b2 ** t)
            a_t, eps_hat = lr * root / (1.0 - b1 ** t), eps * root
            for name in live:
                g = ref[name]
                m[name] = b1 * m.get(name, np.zeros_like(g)) + (1.0 - b1) * g
                v[name] = b2 * v.get(name, np.zeros_like(g)) + (1.0 - b2) * (g * g)
                values[name] = values[name] - (m[name] / (np.sqrt(v[name]) + eps_hat)) * a_t
            for name in shapes:
                assert store[name].dtype == dt
                assert store[name].tobytes() == values[name].tobytes(), (t, name)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_folded_step_matches_the_textbook_step(self, precision):
        # a_t*m / (sqrt(v)+eps_hat) against lr*(m/c1) / (sqrt(v/c2)+eps) on the
        # same moments, to 32 units of the dtype's epsilon, relative; gradients
        # from 1e-8 up, so epsilon weighs in on some steps
        dt = np.dtype(precision.replace("f", "float"))
        b1, b2, eps = TrainSchedule.beta1, TrainSchedule.beta2, TrainSchedule.adam_eps
        rng = np.random.default_rng(9)
        store = ParamStore(precision)
        store.add("w", np.zeros(400))
        state = AdamState(lr=0.05)
        for t in range(1, 41):
            store.buffer[...] = 0.0  # so the buffer holds minus the update
            scale = 10.0 ** rng.integers(-8, 2)
            adam_step(store, {"w": (rng.normal(size=400) * scale).astype(dt)}, state)
            m, v = state.vectors[0], state.vectors[1]  # the moments the step used
            textbook = state.lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            assert textbook.dtype == dt
            np.testing.assert_allclose(-store["w"], textbook, rtol=32 * np.finfo(dt).eps, atol=0)

    def test_layout_is_built_once_per_name_set_and_buffer(self):
        # the gradient views and runs are kept across steps and built again
        # when the adapter unfreezes, when the encoder freezes, and when the
        # store is another or has reallocated its buffer
        shapes = {"adapter.w": (3,), "gru.w": (2, 2), "cls.w": (4,)}

        def make(names):
            store = ParamStore()
            for name in names:
                store.add(name, np.zeros(shapes[name]))
            return store

        store, state, layouts = make(shapes), AdamState(), []
        for names in [("cls.w", "gru.w")] * 2 + [("cls.w", "gru.w", "adapter.w")] * 2 + [
                ("cls.w", "adapter.w")] * 2:
            adam_step(store, {n: np.ones(shapes[n]) for n in names}, state)
            layouts.append(state.layout[2])
        assert [a is b for a, b in zip(layouts, layouts[1:])] == [True, False, True, False, True]
        assert [out.runs for out in layouts[::2]] == [[(0, 8)], [(0, 11)], [(0, 3), (7, 11)]]
        # the same names and size, declared in another order: their spans move
        other = make(reversed(shapes))
        adam_step(other, {"cls.w": np.ones(4), "adapter.w": np.ones(3)}, state)
        assert state.layout[1] is other.buffer
        assert state.layout[2].runs == [(0, 4), (8, 11)]
        assert (other["cls.w"] < 0).all() and (other["adapter.w"] < 0).all()
        assert (other["gru.w"] == 0).all()
        other.add("extra", np.zeros(1))
        with pytest.raises(ConfigError, match="covers 11 .* holds 12"):
            adam_step(other, {"cls.w": np.ones(4), "adapter.w": np.ones(3)}, state)

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)])
    def test_wrong_shape_on_a_cached_step_is_refused(self, shape):
        # (1,) would broadcast into the view, (2, 1) raise numpy's own error
        store = ParamStore()
        store.add("w", np.ones(2))
        store.add("b", np.ones(2))
        state = AdamState()
        adam_step(store, {"w": np.ones(2), "b": np.ones(2)}, state)
        cached, before = state.layout[2], store.buffer.copy()
        with pytest.raises(ConfigError, match=re.escape(f"gradient shape {shape} != "
                                                        "parameter 'b' (2,)")):
            adam_step(store, {"w": np.ones(2), "b": np.ones(shape)}, state)
        assert state.layout[2] is cached
        assert store.buffer.tobytes() == before.tobytes() and state.step == 1

    def test_step_does_not_depend_on_the_blas_thread_count(self):
        # np.dot sums a run this long in another order at two OpenBLAS threads
        # than at one; the norm and the update must not
        code = textwrap.dedent("""
            import hashlib
            import numpy as np
            from dppnet.tensor import ParamStore
            from dppnet.trainer import AdamState, adam_step
            rng = np.random.default_rng(12)
            shapes = {"a.w": (256, 200), "a.b": (672,)}  # one run of 51,872 entries
            store = ParamStore()
            for name, shape in shapes.items():
                store.add(name, rng.normal(size=shape))
            state = AdamState(lr=0.01, clip_threshold=1.0)
            for _ in range(3):
                grads = {n: rng.normal(size=s) for n, s in reversed(shapes.items())}
                print(adam_step(store, grads, state).hex())
            print(hashlib.sha256(store.buffer.tobytes()).hexdigest())
        """)
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(trainer.__file__).parents[1])}
            run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=120)
            assert (run.returncode, run.stderr) == (0, "")
            outs.append(run.stdout.split())
        assert len(outs[0]) == 4 and outs[0] == outs[1]

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_moments_start_at_the_first_updated_entry(self, precision):
        # the moments begin at the first updated entry and grow once, when
        # the frozen prefix unfreezes
        rng = np.random.default_rng(5)
        shapes = {"adapter.w": (4, 3), "cls.w": (2, 3), "bn.mean": (3,), "cls.b": (2,)}
        store = ParamStore(precision)
        for name, shape in shapes.items():
            store.add(name, np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape),
                      trainable=name != "bn.mean")
        state = AdamState(lr=0.1, clip_threshold=1.0)
        rows = []
        for t in range(6):
            # as model.backward forms them: the adapter's once it unfreezes, at t = 3
            grads = {n: rng.normal(size=shapes[n]).astype(store.buffer.dtype)
                     for n in ("cls.b", "cls.w", "adapter.w") if t >= 3 or n != "adapter.w"}
            adam_step(store, grads, state)
            assert state.start == (12 if t < 3 else 0)
            assert state.vectors.shape == (4, store.buffer.size - state.start)
            rows.append(state.vectors)
        assert [r is rows[0] for r in rows] == [True] * 3 + [False] * 3
        assert all(r is rows[3] for r in rows[3:])

    def test_state_of_another_store_is_refused(self):
        store = ParamStore()
        store.add("w", np.ones(2))
        state = AdamState()
        adam_step(store, {"w": np.ones(2)}, state)
        store.add("b", np.ones(1))
        with pytest.raises(ConfigError, match="covers 2 .* holds 3"):
            adam_step(store, {"w": np.ones(2)}, state)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_gradient_aliasing_its_parameter_equals_a_copy(self, precision):
        stores = []
        for alias in (True, False):
            store = ParamStore(precision)
            store.add("w", np.linspace(-2.0, 3.0, 7))
            store.add("b", np.array([0.5, -0.25]))
            state = AdamState(lr=0.1, clip_threshold=2.0)
            for _ in range(4):
                grads = {n: store[n] if alias else store[n].copy() for n in ("b", "w")}
                adam_step(store, grads, state)
            stores.append(store)
        aliased, copied = stores
        for name in ("w", "b"):
            assert aliased[name].tobytes() == copied[name].tobytes()


class TestScheduleController:
    def run_trace(self, ctl, accs):
        """(the stopping epoch or None, its decision, ctl.frozen after each epoch)"""
        frozen = []
        for epoch, (tr, va) in enumerate(accs, start=1):
            d = ctl.update(epoch, tr, va)
            frozen.append(ctl.frozen)
            if d.stop:
                return epoch, d, frozen
        return None, None, frozen

    def test_patience_rule_trace(self):
        # improving for 10 epochs, then flat: stop at 15, best at 10
        ctl = ScheduleController(TrainSchedule(patience=5, unfreeze_patience=3), staged=False)
        accs = [(0.5, i / 100) for i in range(1, 11)] + [(0.9, 0.05)] * 10
        stopped_at, d, _ = self.run_trace(ctl, accs)
        assert stopped_at == 15
        assert ctl.best_epoch == 10

    def test_unfrozen_model_gets_the_full_patience(self):
        # improving for 10 epochs, then flat: the adapter unfreezes at 13, and
        # staleness starts over there, so the stop comes patience epochs later
        ctl = ScheduleController(TrainSchedule(patience=5, unfreeze_patience=3))
        accs = [(0.5, i / 100) for i in range(1, 11)] + [(0.9, 0.05)] * 10
        stopped_at, _, frozen = self.run_trace(ctl, accs)
        assert ["adapter" in f for f in frozen] == [True] * 12 + [False] * 6
        assert (stopped_at, ctl.best_epoch) == (18, 10)

    def test_unfreezing_epoch_never_stops(self):
        # unfreeze_patience == patience: the epoch that unfreezes the adapter
        # must not also stop the run, or the unfrozen model never trains
        ctl = ScheduleController(TrainSchedule(patience=3, unfreeze_patience=3))
        trace = [(ctl.update(e, 0.5, 0.4).stop, ctl.frozen) for e in range(1, 8)]
        assert trace == [(False, ("adapter",))] * 3 + [(False, ())] * 3 + [(True, ())]

    def test_adapter_unfreezes_on_saturation(self):
        ctl = ScheduleController(TrainSchedule(patience=5, unfreeze_patience=3))
        assert ctl.frozen == ("adapter",)
        _, _, frozen = self.run_trace(ctl, [(0.5, 0.4)] * 4)
        # epoch 1 improves (from -inf); epochs 2-4 are stale; stale hits 3 at epoch 4
        assert frozen == [("adapter",)] * 3 + [()]

    def test_never_policy_keeps_adapter_frozen(self):
        ctl = ScheduleController(TrainSchedule(), staged=False)
        for e in range(1, 12):
            ctl.update(e, 0.5, 0.1)
            assert "adapter" in ctl.frozen

    def test_overfit_freeze_needs_consecutive_epochs(self):
        sched = TrainSchedule(overfit_gap=0.10, overfit_epochs=2)
        ctl = ScheduleController(sched)
        ctl.update(1, 0.9, 0.5)  # first wide gap
        ctl.update(2, 0.6, 0.55)  # gap closes, run resets
        ctl.update(3, 0.9, 0.5)
        assert ctl.frozen == ("adapter",)
        ctl.update(4, 0.9, 0.5)  # second consecutive
        assert ctl.frozen == ("adapter", "embed", "gru")
        # permanent and added once, through the adapter's unfreeze (epoch 5) and
        # a closed gap
        ctl.update(5, 0.99, 0.2)
        assert ctl.frozen == ("embed", "gru")
        ctl.update(6, 0.2, 0.2)
        assert ctl.frozen == ("embed", "gru")


@pytest.fixture(scope="module")
def tiny_sets():
    cfg = GenConfig(n_train=600, n_val=150, n_test=150)
    return generate_synthetic(cfg, seed=3)


class TestTrainLoop:
    def test_same_seed_bit_identical_logs(self, tiny_sets):
        train_ex, val_ex, _ = tiny_sets
        rc = small_run_config(max_epochs=5, seed=11)
        r1 = train(rc, train_ex, val_ex)
        r2 = train(rc, train_ex, val_ex)
        assert r1.epoch_losses == r2.epoch_losses
        assert [e["val_acc"] for e in r1.log] == [e["val_acc"] for e in r2.log]

    def test_logs_differ_only_in_timing(self, tiny_sets):
        train_ex, val_ex, _ = tiny_sets
        rc = small_run_config(max_epochs=2, seed=12)
        r1 = train(rc, train_ex, val_ex)
        r2 = train(rc, train_ex, val_ex)
        timings = [e.pop("timing") for e in r1.log + r2.log]
        assert r1.log == r2.log
        for timing in timings:
            assert set(timing) == {"epoch_s", "examples_per_s"}
            assert timing["epoch_s"] > 0 and timing["examples_per_s"] > 0

    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_empty_split_is_named(self, tiny_sets, monkeypatch, empty):
        # refused before a vocabulary or an encoder is built
        train_ex, val_ex, _ = tiny_sets
        splits = {"training": train_ex, "validation": val_ex, empty: []}
        monkeypatch.setattr(trainer, "build_vocab", None)
        with pytest.raises(DataFormatError, match=f"^the {empty} split is empty$"):
            train(small_run_config(), splits["training"], splits["validation"])

    def test_different_seeds_differ(self, tiny_sets):
        train_ex, val_ex, _ = tiny_sets
        r1 = train(small_run_config(max_epochs=3, seed=1), train_ex, val_ex)
        r2 = train(small_run_config(max_epochs=3, seed=2), train_ex, val_ex)
        assert r1.epoch_losses != r2.epoch_losses

    def test_best_checkpoint_reproduces_logged_val_accuracy(self, tiny_sets):
        train_ex, val_ex, _ = tiny_sets
        rc = small_run_config(max_epochs=8, seed=4)
        res = train(rc, train_ex, val_ex)
        data = trainer.encode_dataset(val_ex, res.vocab, res.answers, rc.precision)
        again = trainer.evaluate(res.run_config.model, res.store, data)
        assert again == res.best_val_acc

    def test_adapter_starts_frozen_and_log_reports_it(self, tiny_sets):
        train_ex, val_ex, _ = tiny_sets
        res = train(small_run_config(max_epochs=2, seed=5), train_ex, val_ex)
        assert "adapter.w1" in res.log[0]["frozen"]

    def test_commits_running_stats_of_the_last_step(self, tiny_sets, monkeypatch):
        # loss_and_grads only reads the store; the loop commits the batch-norm
        # running stats each step returns, so one epoch ends on the last pair
        train_ex, val_ex, _ = tiny_sets
        real = mdl.loss_and_grads
        steps = []

        def spy(cfg, store, *args, **kwargs):
            before = store.buffer.copy()
            out = real(cfg, store, *args, **kwargs)
            assert store.buffer.tobytes() == before.tobytes()
            steps.append(out[1]["bn_running"])
            return out

        monkeypatch.setattr(mdl, "loss_and_grads", spy)
        res = train(small_run_config(max_epochs=1, seed=15), train_ex, val_ex)
        assert len(steps) > 1
        mean, var = steps[-1]
        assert res.store["bn.running_mean"].tobytes() == mean.tobytes()
        assert res.store["bn.running_var"].tobytes() == var.tobytes()
        assert not np.array_equal(steps[-2][0], mean)

    def test_log_reports_the_pre_clip_gradient_norms(self, tiny_sets, monkeypatch):
        train_ex, val_ex, _ = tiny_sets
        norms, epoch_ends = [], []
        real = trainer.adam_step

        def spy(store, grads, state):
            norms.append(real(store, grads, state))
            return norms[-1]

        monkeypatch.setattr(trainer, "adam_step", spy)
        # a threshold inside the norms' range, so some steps clip and some do not
        rc = small_run_config(max_epochs=3, seed=7, clip_threshold=1.5)
        res = train(rc, train_ex, val_ex, progress=lambda entry: epoch_ends.append(len(norms)))
        assert len(res.log) == 3
        fractions = []
        for entry, lo, hi in zip(res.log, [0] + epoch_ends, epoch_ends):
            epoch = norms[lo:hi]
            assert entry["grad_norm_mean"] == pytest.approx(sum(epoch) / len(epoch), rel=1e-12)
            assert entry["grad_norm_max"] == max(epoch)
            fractions.append(sum(n > 1.5 for n in epoch) / len(epoch))
            assert entry["clipped_fraction"] == fractions[-1]
        assert any(0 < f < 1 for f in fractions)

    def test_clipping_sees_only_the_updated_tensors(self, tiny_sets, monkeypatch):
        train_ex, val_ex, _ = tiny_sets
        seen, epoch_ends = [], []  # the gradient names of each step
        real = trainer.clip_gradients
        monkeypatch.setattr(trainer, "clip_gradients", lambda grads, threshold: (
            seen.append(set(grads)) or real(grads, threshold)))
        # the adapter unfreezes after epoch 1 and the encoder freezes after epoch 2
        rc = small_run_config(max_epochs=3, seed=16, unfreeze_patience=0,
                              overfit_gap=-1.0, overfit_epochs=2)
        res = train(rc, train_ex, val_ex, progress=lambda entry: epoch_ends.append(len(seen)))
        frozen = [set(entry["frozen"]) for entry in res.log]  # as each epoch's steps saw it
        assert ["adapter.w1" in names for names in frozen] == [True, False, False]
        assert ["gru.u_h" in names for names in frozen] == [False, False, True]
        trainable = {n for n in res.store.names() if res.store.is_trainable(n)}
        for names, lo, hi in zip(frozen, [0] + epoch_ends, epoch_ends):
            assert hi > lo
            assert all(step == trainable - names for step in seen[lo:hi])

    def test_each_step_is_one_adam_step_and_one_clip(self, tiny_sets, monkeypatch):
        # perfbench counts trainer.adam_step calls as steps and times both
        # spans by wrapping these module attributes
        train_ex, val_ex, _ = tiny_sets
        calls = []
        for module, name in ((mdl, "loss_and_grads"), (trainer, "adam_step"),
                             (trainer, "clip_gradients")):
            monkeypatch.setattr(module, name, lambda *args, real=getattr(module, name),
                                name=name, **kwargs: calls.append(name) or real(*args, **kwargs))
        rc = small_run_config(max_epochs=2, seed=17)
        res = train(rc, train_ex, val_ex)
        assert res.epochs_run == 2 and not res.aborted
        data = trainer.encode_dataset(train_ex, res.vocab, res.answers, rc.precision)
        # an epoch's batch count does not depend on the shuffle
        steps = 2 * len(trainer.train_batches(data, rc.train.batch_size, np.random.default_rng(0)))
        assert steps > 2
        assert calls == ["loss_and_grads", "adam_step", "clip_gradients"] * steps

    def test_memorizes_sixteen_examples(self):
        gen = GenConfig(n_train=16, n_val=16, n_test=0)
        train_ex, val_ex, _ = generate_synthetic(gen, seed=6)
        rc = small_run_config(max_epochs=500, seed=7, patience=500,
                              unfreeze_patience=1, batch_size=16)
        res = train(rc, train_ex, val_ex)
        assert min(res.epoch_losses) < 0.05
        assert res.epochs_run <= 500

    def test_nonfinite_loss_aborts_with_checkpoint(self, tiny_sets, monkeypatch):
        import dppnet.encoder

        monkeypatch.setattr(dppnet.encoder, "STRICT_GATES", False)
        train_ex, val_ex, _ = tiny_sets
        # features overflow f32 into inf, the first normalization turns that
        # into NaN, and the loop must bail out instead of crashing
        poisoned = [
            dataclasses.replace(ex, features=ex.features * 1e39) for ex in train_ex
        ]
        rc = small_run_config(max_epochs=30, seed=8)
        rc = dataclasses.replace(rc, precision="f32")
        with np.errstate(all="ignore"):
            res = train(rc, poisoned, val_ex)
        assert res.aborted
        assert res.epochs_run == 1 and res.log == []
        # the retained parameters are the last good ones and still evaluable
        data = trainer.encode_dataset(val_ex, res.vocab, res.answers, rc.precision)
        acc = trainer.evaluate(res.run_config.model, res.store, data)
        assert 0.0 <= acc <= 1.0

    def test_nonfinite_validation_logits_abort_with_checkpoint(self, tiny_sets, monkeypatch):
        train_ex, val_ex, _ = tiny_sets
        validated = []  # the parameters each validation pass saw
        real = mdl.predict_dataset

        def predict_dataset(cfg, store, data, choice_mask=None):
            if len(validated) == 2:  # as predict_classes refuses non-finite logits
                raise FloatingPointError("answer logits are not finite")
            validated.append(store.buffer.copy())
            return real(cfg, store, data, choice_mask)

        monkeypatch.setattr(mdl, "predict_dataset", predict_dataset)
        res = train(small_run_config(max_epochs=5, seed=8), train_ex, val_ex)
        assert res.aborted
        assert res.epochs_run == 3 and len(res.log) == 2
        # the kept parameters are those of the best epoch that finished
        assert np.array_equal(res.store.buffer, validated[res.best_epoch - 1])

    def test_pretrained_encoder_adopted_and_rand_gru_ignores_it(self, tiny_sets, tmp_path):
        from dppnet import checkpoint as ckpt

        train_ex, val_ex, _ = tiny_sets
        rc = small_run_config(max_epochs=2, seed=9)
        base = train(rc, train_ex, val_ex)
        enc_dir = tmp_path / "encoder"
        enc_store = ParamStore("f64")
        for name in ("embed.table", "gru.w_r", "gru.w_z", "gru.w_h",
                     "gru.u_r", "gru.u_z", "gru.u_h"):
            enc_store.add(name, base.store[name])
        ckpt.save_params(enc_store, enc_dir)
        import json

        (enc_dir / "vocab.json").write_text(json.dumps(base.vocab.as_dict()))

        rc2 = dataclasses.replace(small_run_config(max_epochs=1, seed=10),
                                  pretrained_encoder=str(enc_dir))
        warm = train(rc2, train_ex, val_ex)
        assert warm.log[0]["train_loss"] != base.log[0]["train_loss"]

        rc3 = rc2.with_overrides(variant="rand-gru")
        cold = train(rc3, train_ex, val_ex)
        rc4 = small_run_config(max_epochs=1, seed=10).with_overrides(variant="rand-gru")
        cold_again = train(rc4, train_ex, val_ex)
        assert cold.epoch_losses == cold_again.epoch_losses

    def test_pretrained_missing_is_refused(self, tiny_sets, tmp_path):
        from dppnet.errors import CheckpointError

        train_ex, val_ex, _ = tiny_sets
        rc = small_run_config(max_epochs=1, seed=13).with_overrides(
            pretrained_encoder=str(tmp_path / "absent"))
        # a given encoder is never swapped for a random one
        with pytest.raises(CheckpointError, match="absent"):
            train(rc, train_ex, val_ex)
        # rand-gru draws its encoder whatever the path says
        res = train(rc.with_overrides(variant="rand-gru"), train_ex, val_ex)
        assert not res.aborted

    def test_pretrained_corrupt_always_rejected(self, tiny_sets, tmp_path):
        from dppnet import checkpoint as ckpt
        from dppnet.errors import CheckpointError

        train_ex, val_ex, _ = tiny_sets
        enc_dir = tmp_path / "enc"
        store = ParamStore("f64")
        store.add("embed.table", np.zeros((4, 3)))
        ckpt.save_params(store, enc_dir)  # missing the gru tensors entirely
        rc = dataclasses.replace(small_run_config(max_epochs=1, seed=14),
                                 pretrained_encoder=str(enc_dir))
        with pytest.raises(CheckpointError, match="missing tensors"):
            train(rc, train_ex, val_ex)

    @pytest.mark.parametrize("variant, encoder", [
        ("dppnet", None), ("concat", None), ("cnn-fixed", None), ("rand-gru", None),
        ("dppnet", "with vocab.json"), ("dppnet", "without vocab.json"),
    ])
    def test_checkpoint_it_writes_loads(self, tiny_sets, tmp_path, variant, encoder):
        # a width train accepts and load_model refuses fails here
        from dppnet import checkpoint as ckpt
        import json

        train_ex, val_ex, _ = tiny_sets
        rc = small_run_config(max_epochs=1, seed=15).with_overrides(variant=variant)
        if encoder is not None:
            # the encoder's widths and biases are not the run config's
            donor = train(small_run_config(max_epochs=1, seed=16).with_overrides(
                embed_dim=8, hidden_dim=12, gru_bias=True), train_ex, val_ex)
            tensors = {n: v for n, v in donor.store.items() if n.split(".")[0] in ("embed", "gru")}
            ids = donor.vocab.as_dict()
            if encoder == "with vocab.json":  # a vocabulary wider than the data's
                tensors["embed.table"] = np.vstack([tensors["embed.table"], np.ones((2, 8))])
                ids.update({"zebra": len(ids), "zither": len(ids) + 1})
            enc_store = ParamStore("f64")
            for name, value in tensors.items():
                enc_store.add(name, value)
            ckpt.save_params(enc_store, tmp_path / "encoder")
            if encoder == "with vocab.json":
                (tmp_path / "encoder" / "vocab.json").write_text(json.dumps(ids))
            rc = rc.with_overrides(pretrained_encoder=str(tmp_path / "encoder"))
        res = train(rc, train_ex, val_ex)
        mdl.save_model(tmp_path / "model", res.run_config, res.store, res.vocab, res.answers)
        run_config, store, vocab, _ = mdl.load_model(tmp_path / "model")
        assert run_config == res.run_config
        assert np.array_equal(store.buffer, res.store.buffer)
        cfg = run_config.model
        if encoder is not None:
            assert (cfg.embed_dim, cfg.hidden_dim, cfg.gru_bias) == (8, 12, True)
            assert cfg.vocab_size == len(vocab) == len(ids)

    def test_gru_freeze_fires_and_is_permanent(self, tiny_sets):
        train_ex, val_ex, _ = tiny_sets
        # a gap threshold of zero freezes the encoder almost immediately
        rc = small_run_config(max_epochs=6, seed=12, overfit_gap=0.0,
                              overfit_epochs=2)
        res = train(rc, train_ex, val_ex)
        frozen_sets = [set(e["frozen"]) for e in res.log]
        assert any("gru.w_r" in s for s in frozen_sets)
        first = next(i for i, s in enumerate(frozen_sets) if "gru.w_r" in s)
        assert all("gru.w_r" in s for s in frozen_sets[first:])


class TestLinearProbe:
    def test_probe_beats_nothing_but_stays_weak(self, tiny_sets):
        train_ex, _, test_ex = tiny_sets
        acc = linear_probe_accuracy(train_ex, test_ex)
        from collections import Counter

        prior = Counter(ex.answers[0] for ex in test_ex).most_common(1)[0][1] / len(test_ex)
        assert acc <= prior + 0.10
