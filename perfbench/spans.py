"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the dppnet modules at every place a
caller looks them up: the defining module and every other dppnet module that
imported the function by name (model.py, for one, binds ``dyn_forward`` and
``matmul`` into its own namespace).  Each call records a span with its parent
and the operation it belongs to.  Aggregates (calls, total and self time) are
kept per phase, "setup" or "window", so that set-up work is not mixed into the
per-operation figures.  Everything stays in memory until ``dump`` is called.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import copy
import functools
import os
import sys
import tracemalloc
from time import perf_counter_ns

# (module, function, span name).  The span name is what the per-layer metrics
# use; it drops the "dyn_" prefix so dynlayer metrics read dynlayer.forward.
SPANS = (
    ("tensor", "matmul", "tensor.matmul"),
    ("tensor", "batchnorm", "tensor.batchnorm"),
    ("tensor", "batchnorm_backward", "tensor.batchnorm_backward"),
    ("tensor", "softmax", "tensor.softmax"),
    ("tensor", "softmax_xent", "tensor.softmax_xent"),
    ("hashing", "bucket_row", "hashing.bucket_row"),
    ("hashing", "sign_row", "hashing.sign_row"),
    ("hashing", "bucket_grid", "hashing.bucket_grid"),
    ("hashing", "sign_grid", "hashing.sign_grid"),
    ("hashing", "hash_stats", "hashing.hash_stats"),
    ("dynlayer", "dyn_forward", "dynlayer.forward"),
    ("dynlayer", "dyn_backward", "dynlayer.backward"),
    ("dynlayer", "materialize_weights", "dynlayer.materialize_weights"),
    ("encoder", "embed", "encoder.embed"),
    ("encoder", "embed_backward", "encoder.embed_backward"),
    ("encoder", "gru_encode", "encoder.gru_encode"),
    ("encoder", "gru_encode_backward", "encoder.gru_encode_backward"),
    ("encoder", "predict_candidates", "encoder.predict_candidates"),
    ("encoder", "predict_candidates_backward", "encoder.predict_candidates_backward"),
    ("model", "init_params", "model.init_params"),
    ("model", "forward", "model.forward"),
    ("model", "backward", "model.backward"),
    ("model", "loss_and_grads", "model.loss_and_grads"),
    ("model", "predict_classes", "model.predict_classes"),
    ("model", "encode_question", "model.encode_question"),
    ("model", "retrieve_similar", "model.retrieve_similar"),
    ("model", "save_model", "model.save_model"),
    ("model", "load_model", "model.load_model"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "encode_dataset", "trainer.encode_dataset"),
    ("trainer", "clip_gradients", "trainer.clip_gradients"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("trainer", "evaluate", "trainer.evaluate"),
    ("checkpoint", "save_params", "checkpoint.save_params"),
    ("checkpoint", "load_params", "checkpoint.load_params"),
    ("data", "build_vocab", "data.build_vocab"),
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("data", "save_jsonl", "data.save_jsonl"),
    ("data", "load_jsonl", "data.load_jsonl"),
    ("cli", "main", "cli.main"),
    ("gradcheck", "grad_check", "gradcheck.grad_check"),
    ("oracles", "run_oracle_suite", "oracles.run_oracle_suite"),
)

# The loss callable handed to grad_check gets its own span.
LOSS_SPAN = "gradcheck.loss"

# Spans each workload must fire at least once (set-up or window).  A wrapper
# patched on a name nobody calls through shows up here as a failed check.
_TRAINING = (
    "tensor.matmul", "tensor.batchnorm", "tensor.batchnorm_backward",
    "tensor.softmax", "tensor.softmax_xent", "hashing.bucket_row",
    "hashing.sign_row", "dynlayer.forward", "dynlayer.backward", "encoder.embed",
    "encoder.embed_backward", "encoder.gru_encode", "encoder.gru_encode_backward",
    "encoder.predict_candidates", "encoder.predict_candidates_backward",
    "model.init_params", "model.forward", "model.backward", "model.loss_and_grads",
    "model.predict_classes", "trainer.train", "trainer.encode_dataset",
    "trainer.clip_gradients", "trainer.adam_step", "trainer.evaluate",
    "data.build_vocab", "data.generate_synthetic",
)
EXPECTED = {
    "train": _TRAINING,
    "wide": _TRAINING,
    "serve": _TRAINING + (
        "model.save_model", "model.load_model", "checkpoint.save_params",
        "checkpoint.load_params", "data.save_jsonl", "data.load_jsonl", "cli.main",
        "model.retrieve_similar", "model.encode_question",
    ),
    "gradcheck": (
        "oracles.run_oracle_suite", "gradcheck.grad_check", LOSS_SPAN,
        "tensor.batchnorm", "tensor.batchnorm_backward", "tensor.softmax_xent",
        "tensor.matmul", "hashing.bucket_row", "hashing.sign_row",
        "dynlayer.forward", "dynlayer.backward", "encoder.embed",
        "encoder.embed_backward", "encoder.gru_encode", "encoder.gru_encode_backward",
        "encoder.predict_candidates", "encoder.predict_candidates_backward",
        "model.init_params", "model.forward", "model.backward", "model.loss_and_grads",
    ),
}

# Raw spans beyond this many are counted but not kept.
MAX_RAW_SPANS = 100_000


class Tracer:
    """Records spans from wrapped dppnet functions while installed."""

    def __init__(self):
        self.stats = {"setup": {}, "window": {}}  # phase -> name -> [calls, total_ns, self_ns]
        self.cur = self.stats["setup"]
        self.phase = "setup"
        self.op = -1  # operation (request) id shared by the spans it causes
        self.clock_ns = perf_counter_ns  # the timed window swaps in a clock without sampling time
        self._stack = []  # [span id, child ns] per open span
        self._next_id = 0
        self.raw = []
        self.dropped = 0
        # extra observations, traced window only
        self.hash_keys = set()
        self.gru_rows = 0
        self.peak = {}  # span name -> max transient bytes seen
        self._peak_calls = {}  # (name, input shapes) -> (name, args, kwargs)
        self._originals = {}
        self.checkpoint_bytes = 0
        self.loss_evals_with_model = 0
        self.backward_in_loss = 0
        self._sites = []  # (module, attribute, original)
        self._wrappers = {}

    def set_phase(self, phase: str):
        self.phase = phase
        self.cur = self.stats[phase]

    # --- recording ---

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0])
        return sid, self.clock_ns()

    def _exit(self, name, sid, t0):
        t1 = self.clock_ns()
        _, child = self._stack.pop()
        d = t1 - t0
        st = self.cur.get(name)
        if st is None:
            st = self.cur[name] = [0, 0, 0]
        st[0] += 1
        st[1] += d
        st[2] += d - child
        parent = -1
        if self._stack:
            self._stack[-1][1] += d
            parent = self._stack[-1][0]
        if len(self.raw) < MAX_RAW_SPANS:
            self.raw.append((name, sid, parent, self.op, t0, t1))
        else:
            self.dropped += 1

    def _wrap(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs, after = hook(tracer, name, args, kwargs)
            else:
                after = None
            sid, t0 = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, sid, t0)
                if after is not None:
                    after()

        return traced

    def wrap_loss(self, loss_fn):
        tracer = self

        @functools.wraps(loss_fn)
        def traced_loss(store):
            fwd = tracer.count("model.forward")
            bwd = tracer.count("model.backward")
            sid, t0 = tracer._enter()
            try:
                return loss_fn(store)
            finally:
                tracer._exit(LOSS_SPAN, sid, t0)
                if tracer.phase == "window" and tracer.count("model.forward") > fwd:
                    tracer.loss_evals_with_model += 1
                    tracer.backward_in_loss += tracer.count("model.backward") - bwd

        return traced_loss

    def count(self, name: str) -> int:
        st = self.cur.get(name)
        return st[0] if st else 0

    # --- installing ---

    def install(self):
        """Patch every lookup site of every declared span."""
        if self._sites:
            return
        pkg = {n: m for n, m in sys.modules.items() if n == "dppnet" or n.startswith("dppnet.")}
        for mod_name, attr, span in SPANS:
            module = pkg.get(f"dppnet.{mod_name}")
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                continue  # reported by coverage_failures
            self._originals[span] = original
            wrapper = self._wrappers.get(span)
            if wrapper is None:
                wrapper = self._wrappers[span] = self._wrap(span, original)
            for module in pkg.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._sites.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._sites):
            setattr(module, name, original)
        self._sites = []

    def measure_peaks(self):
        """Replay the recorded calls untraced and keep each span's peak bytes."""
        for name, args, kwargs in self._peak_calls.values():
            tracemalloc.start()
            try:
                self._originals[name](*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.peak[name] = max(self.peak.get(name, 0), peak)

    # --- results ---

    def fired(self) -> set:
        return {n for phase in self.stats.values() for n, st in phase.items() if st[0]}

    def coverage_failures(self, workload: str) -> list:
        absent = [
            f"span {span}: dppnet.{mod} has no attribute {attr}"
            for mod, attr, span in SPANS if span not in self._originals
        ]
        missing = [s for s in EXPECTED[workload] if s not in self.fired()]
        return absent + [f"span {s} never fired on {workload}" for s in missing]

    def table(self) -> dict:
        return {
            phase: {
                n: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                for n, (c, t, s) in sorted(stats.items())
            }
            for phase, stats in self.stats.items()
        }

    def dump(self) -> dict:
        return {
            "aggregates": self.table(),
            "span_fields": ["name", "id", "parent", "op", "start_ns", "end_ns"],
            "spans": self.raw,
            "dropped_spans": self.dropped,
        }


# --- per-span hooks: (tracer, name, args, kwargs) -> (args, kwargs, after) ---


def _hash_row(tracer, name, args, kwargs):
    if tracer.phase == "window":
        tracer.hash_keys.add((name, args[0], args[1]))
    return args, kwargs, None


def _gru_rows(tracer, name, args, kwargs):
    if tracer.phase == "window":
        tracer.gru_rows += len(args[0])
    return args, kwargs, None


def _peak(tracer, name, args, kwargs):
    # Keep a copy of the first call of each input shape; measure_peaks replays
    # it under tracemalloc once timing is over, so tracemalloc never slows a
    # timed call.
    key = (name, tuple(getattr(a, "shape", ()) for a in args[:3]))
    if tracer.phase == "window" and key not in tracer._peak_calls:
        tracer._peak_calls[key] = (name, copy.deepcopy(args), copy.deepcopy(kwargs))
    return args, kwargs, None


def _checkpoint_size(tracer, name, args, kwargs):
    directory = args[1] if name == "checkpoint.save_params" else args[0]

    def after():
        tracer.checkpoint_bytes = sum(
            os.path.getsize(os.path.join(directory, f))
            for f in ("manifest.json", "params.bin")
            if os.path.exists(os.path.join(directory, f))
        )

    return args, kwargs, after


def _grad_check(tracer, name, args, kwargs):
    return (tracer.wrap_loss(args[0]),) + tuple(args[1:]), kwargs, None


_HOOKS = {
    "hashing.bucket_row": _hash_row,
    "hashing.sign_row": _hash_row,
    "encoder.gru_encode": _gru_rows,
    "dynlayer.forward": _peak,
    "dynlayer.backward": _peak,
    "checkpoint.save_params": _checkpoint_size,
    "checkpoint.load_params": _checkpoint_size,
    "gradcheck.grad_check": _grad_check,
}


# --- per-layer metrics ---

# (metric, unit).  Counts and self times are per measured operation in the
# traced window; ".s" metrics are mean seconds per call over the whole traced
# run, set-up included, because that is where most of those calls happen.
LAYER_METRICS = (
    ("hashing.rows_hashed", "count/op"),
    ("hashing.distinct_row_ratio", "ratio"),
    ("hashing.self_s", "s/op"),
    ("dynlayer.forward.calls", "count/op"),
    ("dynlayer.forward.self_s", "s/op"),
    ("dynlayer.backward.self_s", "s/op"),
    ("dynlayer.forward.peak_alloc_bytes", "bytes"),
    ("dynlayer.backward.peak_alloc_bytes", "bytes"),
    ("encoder.gru_encode.calls", "count/op"),
    ("encoder.gru_encode.rows_per_call", "rows"),
    ("encoder.gru_encode.self_s", "s/op"),
    ("encoder.gru_encode_backward.self_s", "s/op"),
    ("encoder.embed.self_s", "s/op"),
    ("encoder.embed_backward.self_s", "s/op"),
    ("encoder.predict_candidates.self_s", "s/op"),
    ("tensor.matmul.calls", "count/op"),
    ("tensor.matmul.self_s", "s/op"),
    ("tensor.batchnorm.self_s", "s/op"),
    ("tensor.softmax_xent.self_s", "s/op"),
    ("process.cpu_s_per_wall_s", "ratio"),
    ("model.forward.self_s", "s/op"),
    ("model.backward.self_s", "s/op"),
    ("model.predict_classes.calls", "count/op"),
    ("model.encode_question.calls", "count/op"),
    ("trainer.steps", "count/op"),
    ("trainer.adam_step.self_s", "s/op"),
    ("trainer.clip_gradients.self_s", "s/op"),
    ("trainer.evaluate.self_s", "s/op"),
    ("trainer.encode_dataset.self_s", "s/op"),
    ("checkpoint.load_params.s", "s"),
    ("checkpoint.save_params.s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("data.generate_synthetic.s", "s"),
    ("data.load_jsonl.s", "s"),
    ("cli.main.self_s", "s/op"),
    ("gradcheck.loss_evals", "count/op"),
    ("gradcheck.backward_per_loss", "ratio"),
    ("gradcheck.self_s", "s/op"),
    ("trace.overhead", "ratio"),
)

_HASH_ROWS = ("hashing.bucket_row", "hashing.sign_row")
_GRADCHECK = ("gradcheck.grad_check", LOSS_SPAN, "oracles.run_oracle_suite")


def layer_metrics(tracer: Tracer, ops: int, cpu_ratio: float, overhead: float,
                  scale: float) -> dict:
    """Per-layer metrics; times are multiplied by scale (see run.CAL_REF_S)."""
    win = tracer.stats["window"]
    ops = max(ops, 1)

    def calls(name):
        return win.get(name, (0, 0, 0))[0]

    def self_s(*names):
        return sum(win.get(n, (0, 0, 0))[2] for n in names) / 1e9 / ops * scale

    def per_call_s(name):
        c = t = 0
        for phase in tracer.stats.values():
            st = phase.get(name, (0, 0, 0))
            c, t = c + st[0], t + st[1]
        return t / 1e9 / c * scale if c else 0.0

    rows_hashed = sum(calls(n) for n in _HASH_ROWS)
    hashing = [n for n in win if n.startswith("hashing.")]
    gru_calls = calls("encoder.gru_encode")
    values = {
        "hashing.rows_hashed": rows_hashed / ops,
        "hashing.distinct_row_ratio": len(tracer.hash_keys) / rows_hashed if rows_hashed else 0.0,
        "hashing.self_s": self_s(*hashing),
        "dynlayer.forward.calls": calls("dynlayer.forward") / ops,
        "dynlayer.forward.self_s": self_s("dynlayer.forward"),
        "dynlayer.backward.self_s": self_s("dynlayer.backward"),
        "dynlayer.forward.peak_alloc_bytes": tracer.peak.get("dynlayer.forward", 0),
        "dynlayer.backward.peak_alloc_bytes": tracer.peak.get("dynlayer.backward", 0),
        "encoder.gru_encode.calls": gru_calls / ops,
        "encoder.gru_encode.rows_per_call": tracer.gru_rows / gru_calls if gru_calls else 0.0,
        "encoder.gru_encode.self_s": self_s("encoder.gru_encode"),
        "encoder.gru_encode_backward.self_s": self_s("encoder.gru_encode_backward"),
        "encoder.embed.self_s": self_s("encoder.embed"),
        "encoder.embed_backward.self_s": self_s("encoder.embed_backward"),
        "encoder.predict_candidates.self_s": self_s("encoder.predict_candidates"),
        "tensor.matmul.calls": calls("tensor.matmul") / ops,
        "tensor.matmul.self_s": self_s("tensor.matmul"),
        "tensor.batchnorm.self_s": self_s("tensor.batchnorm"),
        "tensor.softmax_xent.self_s": self_s("tensor.softmax_xent"),
        "process.cpu_s_per_wall_s": cpu_ratio,
        "model.forward.self_s": self_s("model.forward"),
        "model.backward.self_s": self_s("model.backward"),
        "model.predict_classes.calls": calls("model.predict_classes") / ops,
        "model.encode_question.calls": calls("model.encode_question") / ops,
        "trainer.steps": calls("trainer.adam_step") / ops,
        "trainer.adam_step.self_s": self_s("trainer.adam_step"),
        "trainer.clip_gradients.self_s": self_s("trainer.clip_gradients"),
        "trainer.evaluate.self_s": self_s("trainer.evaluate"),
        "trainer.encode_dataset.self_s": self_s("trainer.encode_dataset"),
        "checkpoint.load_params.s": per_call_s("checkpoint.load_params"),
        "checkpoint.save_params.s": per_call_s("checkpoint.save_params"),
        "checkpoint.bytes": tracer.checkpoint_bytes,
        "data.generate_synthetic.s": per_call_s("data.generate_synthetic"),
        "data.load_jsonl.s": per_call_s("data.load_jsonl"),
        "cli.main.self_s": self_s("cli.main"),
        "gradcheck.loss_evals": calls(LOSS_SPAN) / ops,
        "gradcheck.backward_per_loss": (
            tracer.backward_in_loss / tracer.loss_evals_with_model
            if tracer.loss_evals_with_model else 0.0
        ),
        "gradcheck.self_s": self_s(*_GRADCHECK),
        "trace.overhead": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
