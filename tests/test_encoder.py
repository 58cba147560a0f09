import numpy as np
import pytest

from fdutil import assert_fd_match

from dppnet import checkpoint, encoder as enc
from dppnet.errors import CheckpointError, ShapeError
from dppnet.tensor import ParamStore


def random_gru(rng, hidden=5, embed=4, scale=1.0):
    return enc.GruParams(
        w_r=rng.normal(size=(hidden, embed)) * scale,
        w_z=rng.normal(size=(hidden, embed)) * scale,
        w_h=rng.normal(size=(hidden, embed)) * scale,
        u_r=rng.normal(size=(hidden, hidden)) * scale,
        u_z=rng.normal(size=(hidden, hidden)) * scale,
        u_h=rng.normal(size=(hidden, hidden)) * scale,
    )


class TestEmbed:
    def test_row_lookup_verbatim(self):
        table = np.arange(12.0).reshape(4, 3)
        out = enc.embed(np.array([[0, 2]]), table)
        assert np.array_equal(out[0, 0], table[0])
        assert np.array_equal(out[0, 1], table[2])

    def test_repeated_token_identical_vectors(self):
        table = np.random.default_rng(0).normal(size=(5, 3))
        out = enc.embed(np.array([[1, 1, 1]]), table)
        assert np.array_equal(out[0, 0], out[0, 1])

    def test_repeated_token_gradients_sum(self):
        d = np.ones((1, 3, 2))
        d_table = enc.embed_backward(np.array([[1, 1, 4]]), d, 6)
        assert np.array_equal(d_table[1], [2.0, 2.0])
        assert np.array_equal(d_table[4], [1.0, 1.0])
        assert not d_table[0].any()

    def test_unknown_id_rejected(self):
        with pytest.raises(ShapeError):
            enc.embed(np.array([[5]]), np.zeros((5, 2)))
        with pytest.raises(ShapeError):
            enc.embed(np.array([[-1]]), np.zeros((5, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(6, 4))
        tokens = np.array([[2, 5, 2]])
        c = rng.normal(size=(1, 3, 4))
        analytic = enc.embed_backward(tokens, c, 6)
        eps = 1e-6
        numeric = np.zeros_like(table)
        for idx in np.ndindex(table.shape):
            orig = table[idx]
            table[idx] = orig + eps
            up = float((c * enc.embed(tokens, table)).sum())
            table[idx] = orig - eps
            down = float((c * enc.embed(tokens, table)).sum())
            table[idx] = orig
            numeric[idx] = (up - down) / (2 * eps)
        assert_fd_match(analytic, numeric, rtol=1e-8)


class TestGruStep:
    def test_zero_params_halve_previous_state(self):
        params = enc.GruParams(
            w_r=np.zeros((3, 2)), w_z=np.zeros((3, 2)), w_h=np.zeros((3, 2)),
            u_r=np.zeros((3, 3)), u_z=np.zeros((3, 3)), u_h=np.zeros((3, 3)),
        )
        h_prev = np.array([[0.4, -0.2, 1.0]])
        h, cache = enc.gru_step(np.ones((1, 2)), h_prev, params)
        assert np.allclose(cache.r, 0.5)
        assert np.allclose(cache.z, 0.5)
        assert np.allclose(cache.h_bar, 0.0)
        assert np.allclose(h, 0.5 * h_prev)

    def test_zero_state_makes_reset_gate_irrelevant(self):
        rng = np.random.default_rng(1)
        params = random_gru(rng)
        x = rng.normal(size=(2, 4))
        h0 = np.zeros((2, 5))
        h1, cache = enc.gru_step(x, h0, params)
        expected = cache.z * np.tanh(x @ params.w_h.T)
        assert np.allclose(h1, expected)
        # changing the reset path must not matter when the state is zero
        params2 = enc.GruParams(
            w_r=params.w_r * -3.0, w_z=params.w_z, w_h=params.w_h,
            u_r=params.u_r, u_z=params.u_z, u_h=params.u_h,
        )
        h1b, _ = enc.gru_step(x, h0, params2)
        assert np.allclose(h1, h1b)

    def test_gates_strictly_open(self):
        rng = np.random.default_rng(2)
        params = random_gru(rng)
        _, cache = enc.gru_step(rng.normal(size=(4, 4)), rng.normal(size=(4, 5)) * 0.5, params)
        assert np.all((cache.r > 0) & (cache.r < 1))
        assert np.all((cache.z > 0) & (cache.z < 1))
        assert np.all(np.abs(cache.h_bar) < 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_step_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = random_gru(rng)
        x = rng.normal(size=(3, 4))
        h_prev = rng.normal(size=(3, 5)) * 0.5
        c = rng.normal(size=(3, 5))

        def forward():
            h, _ = enc.gru_step(x, h_prev, params)
            return float((c * h).sum())

        _, cache = enc.gru_step(x, h_prev, params)
        acc = {k: np.zeros_like(getattr(params, k))
               for k in ("w_r", "w_z", "w_h", "u_r", "u_z", "u_h")}
        dx, dh_prev = enc.gru_step_backward(cache, params, c, acc)
        eps = 1e-6
        for target, analytic in [(x, dx), (h_prev, dh_prev)] + [
            (getattr(params, k), acc[k]) for k in acc
        ]:
            numeric = np.zeros_like(target)
            for idx in np.ndindex(target.shape):
                orig = target[idx]
                target[idx] = orig + eps
                up = forward()
                target[idx] = orig - eps
                down = forward()
                target[idx] = orig
                numeric[idx] = (up - down) / (2 * eps)
            assert_fd_match(analytic, numeric, rtol=1e-6, atol=1e-8)


class TestGruEncode:
    def test_single_step_equivalence(self):
        rng = np.random.default_rng(3)
        params = random_gru(rng)
        x = rng.normal(size=(2, 1, 4))
        h_enc, caches = enc.gru_encode(x, params)
        h_step, _ = enc.gru_step(x[:, 0, :], np.zeros((2, 5)), params)
        assert np.array_equal(h_enc, h_step)
        assert len(caches) == 1

    def test_state_stays_in_unit_box(self, monkeypatch):
        # large weights saturate tanh to exactly +-1 in f64; the closed bound
        # still holds, so drop the strict-openness assertion here
        monkeypatch.setattr(enc, "STRICT_GATES", False)
        rng = np.random.default_rng(4)
        params = random_gru(rng, scale=3.0)
        x = rng.normal(size=(3, 10, 4)) * 3.0
        h, _ = enc.gru_encode(x, params)
        assert np.abs(h).max() <= 1.0

    def test_empty_sequence_rejected(self):
        params = random_gru(np.random.default_rng(5))
        with pytest.raises(ShapeError):
            enc.gru_encode(np.zeros((2, 0, 4)), params)

    @pytest.mark.parametrize("seed", range(7))
    @pytest.mark.parametrize("steps,hidden,embed", [(4, 5, 4), (6, 8, 8), (2, 3, 2)])
    def test_bptt_matches_finite_differences(self, seed, steps, hidden, embed):
        rng = np.random.default_rng(40 + seed)
        params = random_gru(rng, hidden=hidden, embed=embed)
        x = rng.normal(size=(2, steps, embed))
        c = rng.normal(size=(2, hidden))

        def forward():
            h, _ = enc.gru_encode(x, params)
            return float((c * h).sum())

        h, caches = enc.gru_encode(x, params)
        dx, grads = enc.gru_encode_backward(caches, params, c)
        eps = 1e-6
        for target, analytic in [(x, dx)] + [(getattr(params, k), grads[k]) for k in grads]:
            numeric = np.zeros_like(target)
            for idx in np.ndindex(target.shape):
                orig = target[idx]
                target[idx] = orig + eps
                up = forward()
                target[idx] = orig - eps
                down = forward()
                target[idx] = orig
                numeric[idx] = (up - down) / (2 * eps)
            assert_fd_match(analytic, numeric, rtol=1e-5, atol=1e-8)


class TestGruBias:
    def test_bias_path_matches_finite_differences(self):
        rng = np.random.default_rng(50)
        params = random_gru(rng, hidden=4, embed=3)
        params = enc.GruParams(
            w_r=params.w_r, w_z=params.w_z, w_h=params.w_h,
            u_r=params.u_r, u_z=params.u_z, u_h=params.u_h,
            b_r=rng.normal(size=4), b_z=rng.normal(size=4), b_h=rng.normal(size=4),
        )
        x = rng.normal(size=(2, 3, 3))
        c = rng.normal(size=(2, 4))

        def forward():
            h, _ = enc.gru_encode(x, params)
            return float((c * h).sum())

        _, caches = enc.gru_encode(x, params)
        _, grads = enc.gru_encode_backward(caches, params, c)
        eps = 1e-6
        for name in ("b_r", "b_z", "b_h"):
            target = getattr(params, name)
            numeric = np.zeros_like(target)
            for idx in np.ndindex(target.shape):
                orig = target[idx]
                target[idx] = orig + eps
                up = forward()
                target[idx] = orig - eps
                down = forward()
                target[idx] = orig
                numeric[idx] = (up - down) / (2 * eps)
            assert_fd_match(grads[name], numeric, rtol=1e-6, atol=1e-8)

    def test_partial_biases_rejected(self):
        rng = np.random.default_rng(51)
        with pytest.raises(ShapeError):
            enc.GruParams(
                w_r=rng.normal(size=(3, 2)), w_z=rng.normal(size=(3, 2)),
                w_h=rng.normal(size=(3, 2)), u_r=rng.normal(size=(3, 3)),
                u_z=rng.normal(size=(3, 3)), u_h=rng.normal(size=(3, 3)),
                b_r=rng.normal(size=3),
            )


class TestProjection:
    def test_zero_weights_zero_candidates(self):
        h = np.ones((2, 4))
        assert not enc.predict_candidates(h, np.zeros((6, 4))).any()

    def test_identity_projection_returns_state(self):
        h = np.random.default_rng(6).normal(size=(2, 4))
        assert np.array_equal(enc.predict_candidates(h, np.eye(4)), h)


class TestPretrained:
    def build_encoder_store(self, rng, vocab=7, embed=4, hidden=5):
        store = ParamStore("f64")
        store.add("embed.table", rng.normal(size=(vocab, embed)), role="dynamic-producing")
        for k in ("w_r", "w_z", "w_h"):
            store.add(f"gru.{k}", rng.normal(size=(hidden, embed)), role="dynamic-producing")
        for k in ("u_r", "u_z", "u_h"):
            store.add(f"gru.{k}", rng.normal(size=(hidden, hidden)), role="dynamic-producing")
        return store

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        store = self.build_encoder_store(rng)
        checkpoint.save_params(store, tmp_path)
        table, params, vocab = enc.load_pretrained(tmp_path)
        assert np.array_equal(table, store["embed.table"])
        for k in ("w_r", "w_z", "w_h", "u_r", "u_z", "u_h"):
            assert np.array_equal(getattr(params, k), store[f"gru.{k}"])
        assert vocab is None

    def test_missing_required_is_hard_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="required"):
            enc.load_pretrained(tmp_path / "nope", required=True)

    def test_missing_tensor_named(self, tmp_path):
        store = ParamStore("f64")
        store.add("embed.table", np.zeros((3, 2)))
        checkpoint.save_params(store, tmp_path)
        with pytest.raises(CheckpointError, match="gru.w_r"):
            enc.load_pretrained(tmp_path)

    def test_inconsistent_dims_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        store = ParamStore("f64")
        store.add("embed.table", rng.normal(size=(7, 9)))  # embed dim 9 vs gru 4
        for k in ("w_r", "w_z", "w_h"):
            store.add(f"gru.{k}", rng.normal(size=(5, 4)))
        for k in ("u_r", "u_z", "u_h"):
            store.add(f"gru.{k}", rng.normal(size=(5, 5)))
        checkpoint.save_params(store, tmp_path)
        with pytest.raises(CheckpointError, match="inconsistent"):
            enc.load_pretrained(tmp_path)

    def test_loaded_encoder_reproduces_recorded_state(self, tmp_path):
        rng = np.random.default_rng(9)
        store = self.build_encoder_store(rng)
        tokens = np.array([[1, 4, 2, 6]])
        x = enc.embed(tokens, store["embed.table"])
        recorded, _ = enc.gru_encode(x, enc.GruParams.from_store(store))
        checkpoint.save_params(store, tmp_path)
        table, params, _ = enc.load_pretrained(tmp_path)
        replayed, _ = enc.gru_encode(enc.embed(tokens, table), params)
        assert np.abs(replayed - recorded).max() <= 1e-6


# --- per-gate reference: one matmul per gate and per step, one scan per step ---

def _ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_encode(x_seq, p):
    h = np.zeros((x_seq.shape[0], p.hidden_dim))
    steps = []
    for t in range(x_seq.shape[1]):
        x = x_seq[:, t, :]
        a_r = x @ p.w_r.T + h @ p.u_r.T
        a_z = x @ p.w_z.T + h @ p.u_z.T
        if p.has_bias:
            a_r, a_z = a_r + p.b_r, a_z + p.b_z
        r, z = _ref_sigmoid(a_r), _ref_sigmoid(a_z)
        a_h = x @ p.w_h.T + (r * h) @ p.u_h.T
        if p.has_bias:
            a_h = a_h + p.b_h
        h_bar = np.tanh(a_h)
        steps.append((x, h, r, z, h_bar))
        h = (1.0 - z) * h + z * h_bar
    return h, steps


def ref_encode_backward(steps, p, dh):
    names = ("w_r", "w_z", "w_h", "u_r", "u_z", "u_h") + (("b_r", "b_z", "b_h") if p.has_bias else ())
    acc = {k: np.zeros_like(getattr(p, k)) for k in names}
    dx_seq = np.empty((dh.shape[0], len(steps), p.input_dim))
    for t in range(len(steps) - 1, -1, -1):
        x, h_prev, r, z, h_bar = steps[t]
        dz = dh * (h_bar - h_prev)
        da_h = dh * z * (1.0 - h_bar * h_bar)
        drh = da_h @ p.u_h
        da_r = drh * h_prev * r * (1.0 - r)
        da_z = dz * z * (1.0 - z)
        for k, d, inp in (("w_r", da_r, x), ("w_z", da_z, x), ("w_h", da_h, x),
                          ("u_r", da_r, h_prev), ("u_z", da_z, h_prev), ("u_h", da_h, r * h_prev)):
            acc[k] += d.T @ inp
        if p.has_bias:
            acc["b_r"] += da_r.sum(axis=0)
            acc["b_z"] += da_z.sum(axis=0)
            acc["b_h"] += da_h.sum(axis=0)
        dx_seq[:, t, :] = da_h @ p.w_h + da_r @ p.w_r + da_z @ p.w_z
        dh = dh * (1.0 - z) + drh * r + da_r @ p.u_r + da_z @ p.u_z
    return dx_seq, acc, dh


def _with_bias(p, rng):
    h = p.hidden_dim
    return enc.GruParams(
        w_r=p.w_r, w_z=p.w_z, w_h=p.w_h, u_r=p.u_r, u_z=p.u_z, u_h=p.u_h,
        b_r=rng.normal(size=h) * 0.3, b_z=rng.normal(size=h) * 0.3, b_h=rng.normal(size=h) * 0.3,
    )


def _close(a, b, tol=1e-12):
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


class TestFusedGruMatchesPerGateReference:
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("steps", [1, 12])
    @pytest.mark.parametrize("batch", [1, 300])
    def test_forward_and_backward(self, bias, steps, batch):
        rng = np.random.default_rng(1000 + 10 * steps + batch + bias)
        params = random_gru(rng, hidden=7, embed=5, scale=0.5)
        if bias:
            params = _with_bias(params, rng)
        x = rng.normal(size=(batch, steps, 5))
        dh = rng.normal(size=(batch, 7))

        h, trace = enc.gru_encode(x, params)
        h_ref, steps_ref = ref_encode(x, params)
        _close(h, h_ref)
        assert len(trace) == steps
        for t, (xt, h_prev, r, z, h_bar) in enumerate(steps_ref):
            cache = trace[t]
            for got, want in ((cache.x, xt), (cache.h_prev, h_prev), (cache.r, r),
                              (cache.z, z), (cache.h_bar, h_bar)):
                _close(got, want)

        dx, grads = enc.gru_encode_backward(trace, params, dh)
        dx_ref, grads_ref, _ = ref_encode_backward(steps_ref, params, dh)
        _close(dx, dx_ref)
        assert list(grads) == list(grads_ref)
        for k in grads_ref:
            _close(grads[k], grads_ref[k])

    @pytest.mark.parametrize("bias", [False, True])
    def test_step_wrappers(self, bias):
        rng = np.random.default_rng(77)
        params = random_gru(rng, hidden=6, embed=3, scale=0.5)
        if bias:
            params = _with_bias(params, rng)
        x = rng.normal(size=(4, 3))
        h_prev = rng.normal(size=(4, 6)) * 0.5
        dh = rng.normal(size=(4, 6))

        h, cache = enc.gru_step(x, h_prev, params)
        assert isinstance(cache, enc.GruStepCache)
        # the reference starts from zero state, so fold h_prev in by hand
        a_r = x @ params.w_r.T + h_prev @ params.u_r.T + (params.b_r if bias else 0.0)
        a_z = x @ params.w_z.T + h_prev @ params.u_z.T + (params.b_z if bias else 0.0)
        r, z = _ref_sigmoid(a_r), _ref_sigmoid(a_z)
        h_bar = np.tanh(x @ params.w_h.T + (r * h_prev) @ params.u_h.T
                        + (params.b_h if bias else 0.0))
        _close(h, (1.0 - z) * h_prev + z * h_bar)

        dx_ref, grads_ref, dh_prev_ref = ref_encode_backward(
            [(x, h_prev, r, z, h_bar)], params, dh
        )
        acc = {k: np.ones_like(g) for k, g in grads_ref.items()}
        dx, dh_prev = enc.gru_step_backward(cache, params, dh, acc)
        _close(dx, dx_ref[:, 0, :])
        _close(dh_prev, dh_prev_ref)
        for k, g in grads_ref.items():
            _close(acc[k], 1.0 + g)  # accumulated onto what acc held

    def test_f32_stays_f32(self):
        rng = np.random.default_rng(78)
        p = random_gru(rng, scale=0.5)
        p32 = enc.GruParams(**{k: getattr(p, k).astype(np.float32)
                               for k in ("w_r", "w_z", "w_h", "u_r", "u_z", "u_h")})
        x = rng.normal(size=(3, 4, 4)).astype(np.float32)
        h, trace = enc.gru_encode(x, p32)
        dx, grads = enc.gru_encode_backward(trace, p32, np.ones((3, 5), np.float32))
        assert h.dtype == dx.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads.values())

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 3, 2)])
    def test_nan_input_raises_floating_point_error(self, monkeypatch, strict, where):
        monkeypatch.setattr(enc, "STRICT_GATES", strict)
        rng = np.random.default_rng(79)
        params = random_gru(rng)
        x = rng.normal(size=(2, 4, 4))
        x[where] = np.nan
        with pytest.raises(FloatingPointError):
            enc.gru_encode(x, params)

    @pytest.mark.parametrize("gate", ["u_r", "u_z", "w_h"])
    def test_strict_gates_still_assert_saturation(self, gate):
        # conftest turns STRICT_GATES on; a huge weight saturates one gate
        rng = np.random.default_rng(81)
        params = random_gru(rng, scale=0.5)
        getattr(params, gate)[:] = 1e6
        x = np.abs(rng.normal(size=(2, 3, 4))) + 1.0
        name = {"u_r": "reset", "u_z": "update", "w_h": "candidate"}[gate]
        with pytest.raises(AssertionError, match=name):
            enc.gru_encode(x, params)

    def test_gate_check_runs_once_per_sequence(self, monkeypatch):
        calls = []
        real = enc._check_gates
        monkeypatch.setattr(enc, "_check_gates", lambda *a: calls.append(a) or real(*a))
        rng = np.random.default_rng(80)
        enc.gru_encode(rng.normal(size=(3, 9, 4)), random_gru(rng, scale=0.5))
        assert len(calls) == 1
        rz, h_bar = calls[0]
        assert rz.shape == (9, 3, 10) and h_bar.shape == (9, 3, 5)
