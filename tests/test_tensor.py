import math

import numpy as np
import pytest

from fdutil import assert_fd_match, central_diff

from dppnet.errors import ConfigError, ShapeError
from dppnet.tensor import (
    BatchNormState,
    ParamStore,
    activation,
    activation_backward,
    batchnorm,
    batchnorm_backward,
    matmul,
    softmax,
    softmax_xent,
)


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        x = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(matmul(np.eye(3), x), x)

    def test_scalar_case(self):
        assert matmul(np.array([[2.0]]), np.array([[3.0]])).tolist() == [[6.0]]

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 2))
        assert np.abs(matmul(a, b) - triple_loop_matmul(a, b)).max() <= 1e-12

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_bit_identical_across_calls(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(13, 7))
        b = rng.normal(size=(7, 11))
        first = matmul(a, b)
        for _ in range(3):
            assert np.array_equal(matmul(a, b), first)


class TestActivations:
    def test_fixed_points(self):
        assert activation("sigmoid", np.array([0.0]))[0] == 0.5
        assert activation("tanh", np.array([0.0]))[0] == 0.0
        assert activation("relu", np.array([-1.0, 2.0])).tolist() == [0.0, 2.0]

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            activation("gelu", np.zeros(1))

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh", "relu"])
    @pytest.mark.parametrize("seed", range(20))
    def test_backward_matches_finite_differences(self, kind, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 17, size=2))
        x = rng.normal(size=shape)
        c = rng.normal(size=shape)
        analytic = activation_backward(kind, activation(kind, x), c)
        numeric = central_diff(lambda: float((c * activation(kind, x)).sum()), x)
        assert_fd_match(analytic, numeric, rtol=1e-8)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        y = activation("sigmoid", np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(y))
        assert y[0] == 0.0 and y[1] == 1.0


class TestSoftmaxXent:
    def test_uniform_logits_loss_is_log_c(self):
        loss, _ = softmax_xent(np.zeros((2, 4)), [1, 3])
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_two_class_uniform(self):
        loss, _ = softmax_xent(np.zeros((1, 2)), [0])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        probs = softmax(rng.normal(size=(6, 9)) * 10)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_rows_sum_to_one_f32(self):
        rng = np.random.default_rng(3)
        probs = softmax(rng.normal(size=(6, 9)).astype(np.float32) * 5)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-5

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ShapeError):
            softmax_xent(np.zeros((2, 3)), [0, 3])
        with pytest.raises(ShapeError):
            softmax_xent(np.zeros((2, 3)), [-1, 0])

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(4, 6))
        targets = rng.integers(0, 6, size=4)
        _, analytic = softmax_xent(logits, targets)
        numeric = central_diff(lambda: softmax_xent(logits, targets)[0], logits)
        assert_fd_match(analytic, numeric, rtol=1e-8)


class TestBatchNorm:
    def test_already_normalized_input_passes_through(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(400, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        state = BatchNormState.create(3)
        y, _ = batchnorm(x, state, "train", update_running=False)
        assert np.abs(y - x).max() <= 1e-4

    def test_constant_column_outputs_beta(self):
        state = BatchNormState.create(2)
        state.beta = np.array([3.0, -1.0])
        x = np.full((5, 2), 7.0)
        y, _ = batchnorm(x, state, "train", update_running=False)
        assert np.allclose(y, state.beta)

    def test_train_needs_two_rows(self):
        with pytest.raises(ShapeError):
            batchnorm(np.zeros((1, 2)), BatchNormState.create(2), "train")

    def test_normalized_stats(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 4)) * 10.0 + 3.0  # comfortably non-degenerate columns
        state = BatchNormState.create(4)
        _, cache = batchnorm(x, state, "train", update_running=False)
        xhat = cache[0]
        assert np.abs(xhat.mean(axis=0)).max() <= 1e-10
        assert np.abs(xhat.var(axis=0) - 1.0).max() <= 1e-6

    def test_running_stats_update_with_momentum(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(32, 2)) + 5.0
        state = BatchNormState.create(2, momentum=0.1)
        batchnorm(x, state, "train", update_running=True)
        expect_mean = 0.9 * 0.0 + 0.1 * x.mean(axis=0)
        expect_var = 0.9 * 1.0 + 0.1 * x.var(axis=0)
        assert np.allclose(state.running_mean, expect_mean)
        assert np.allclose(state.running_var, expect_var)
        assert np.all(state.running_var > 0)

    def test_eval_uses_running_stats_only(self):
        state = BatchNormState.create(2)
        state.running_mean = np.array([1.0, -1.0])
        state.running_var = np.array([4.0, 0.25])
        x = np.array([[1.0, -1.0], [3.0, 0.0]])
        y, _ = batchnorm(x, state, "eval")
        expect = (x - state.running_mean) / np.sqrt(state.running_var + state.eps)
        assert np.allclose(y, expect)

    @pytest.mark.parametrize("seed", range(20))
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 3)) * 2 + 1
        gamma = rng.uniform(0.5, 1.5, size=3)
        beta = rng.normal(size=3)
        c = rng.normal(size=(8, 3))

        def run(xv):
            state = BatchNormState(gamma=gamma, beta=beta,
                                   running_mean=np.zeros(3), running_var=np.ones(3))
            y, cache = batchnorm(xv, state, "train", update_running=False)
            return y, cache

        y, cache = run(x)
        dx, dgamma, dbeta = batchnorm_backward(cache, c)
        numeric_dx = central_diff(lambda: float((c * run(x)[0]).sum()), x)
        assert_fd_match(dx, numeric_dx, rtol=1e-6, atol=1e-8)
        numeric_dgamma = central_diff(lambda: float((c * run(x)[0]).sum()), gamma)
        assert_fd_match(dgamma, numeric_dgamma, rtol=1e-6, atol=1e-8)
        assert np.allclose(dbeta, c.sum(axis=0))

    def test_eval_cache_rejected_by_backward(self):
        state = BatchNormState.create(2)
        _, cache = batchnorm(np.zeros((3, 2)), state, "eval")
        with pytest.raises(ShapeError):
            batchnorm_backward(cache, np.zeros((3, 2)))


class TestParamStore:
    def test_duplicate_names_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ConfigError):
            store.add("w", np.zeros(2))

    def test_shape_change_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ShapeError):
            store["w"] = np.zeros(3)

    def test_freeze_by_prefix(self):
        store = ParamStore()
        store.add("gru.w_r", np.zeros(1))
        store.add("gru.u_r", np.zeros(1))
        store.add("cls.w", np.zeros(1))
        store.freeze("gru")
        assert store.frozen_names() == ["gru.u_r", "gru.w_r"]
        assert store.updatable_names() == ["cls.w"]
        store.unfreeze("gru")
        assert store.frozen_names() == []

    def test_freeze_unknown_prefix_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(1))
        with pytest.raises(ConfigError):
            store.freeze("nope")

    def test_roles_and_trainable_tags(self):
        store = ParamStore()
        store.add("proj.w", np.zeros(1), role="dynamic-producing")
        store.add("bn.running_mean", np.zeros(1), trainable=False)
        assert store.role("proj.w") == "dynamic-producing"
        assert not store.is_trainable("bn.running_mean")
        assert "bn.running_mean" not in store.updatable_names()


def two_branch_sigmoid(x):
    # reference: split by sign so exp never overflows
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoidBranchFree:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_two_branch_reference(self, dtype):
        info = np.finfo(dtype)
        special = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, info.tiny, -info.tiny,
                   info.smallest_subnormal, -info.smallest_subnormal, info.max, -info.max]
        x = np.concatenate([np.linspace(-800.0, 800.0, 160_001), special]).astype(dtype)
        assert np.signbit(x[np.isnan(x)]).tolist() == [False, True]
        got = activation("sigmoid", x)
        want = two_branch_sigmoid(x)
        assert got.dtype == dtype
        # equal bit patterns, NaN included
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_keeps_shape_and_saturates_exactly(self):
        x = np.array([[-np.inf, -0.0], [0.0, np.inf]])
        y = activation("sigmoid", x)
        assert y.shape == (2, 2)
        assert y.tolist() == [[0.0, 0.5], [0.5, 1.0]]
