"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds nothing: it imports dppnet from
``src/`` next to this directory.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON summary with the environment, the workload-specific metric names,
tail latencies and the first failed checks.  The full record (and, with
``--trace 1``, the spans) goes to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
reports the per-layer metrics: it times half the run untraced and half
traced, and states the difference as ``trace.overhead``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# The host's speed drifts by up to 1.7x over minutes (other tenants), and it
# has slow spells of a second or so in which a predict takes twice as long.
# Three measures keep the gated figures steady:
# - A timer signal runs a pure-Python reference loop every CAL_EVERY_S seconds
#   while a window runs, inside long operations too; the sampling time is
#   taken out of every latency.  Latencies are scaled by CAL_REF_S over the
#   loop's quiet time, its HOST_Q quantile over the window: gated times read
#   as they would on a host where the loop takes CAL_REF_S.  The quantile
#   tracked the work better than the median or the mean of the loop's times.
# - A rate is the window's items over the sum of its latencies.
# - Latency is the mean over blocks of a workload's block_ops operations of
#   the block's median.  On serve a block is a round of requests: a plain
#   median over all requests jumps between the quiet and the slow mode.
CAL_LOOP = 75_000
CAL_REF_S = 0.006
CAL_EVERY_S = 0.25  # half the samples left ten-seed spreads 10-30% wider
HOST_Q = 0.25


def quantile(values, q: float) -> float:
    """The q-quantile (0 <= q <= 1) of values, interpolating linearly."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOP):
        s += i * i
    return time.perf_counter() - t0


class HostSampler:
    """Runs reference_loop on a SIGALRM timer; records (time, seconds)."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent sampling
        self._sampling = False

    def _tick(self, signum, frame):
        if self._sampling:  # a tick that lands inside a tick is dropped
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.samples.append((t0, reference_loop()))
        self.spent += time.perf_counter() - t0
        self._sampling = False

    def clock_ns(self) -> int:
        """perf_counter_ns without the time spent sampling."""
        return time.perf_counter_ns() - int(self.spent * 1e9)

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)


# Times the package import in a fresh interpreter; prints seconds.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dppnet.cli, dppnet.oracles; print(time.perf_counter() - t)"
)
IMPORT_REPS = 5


def _import_dppnet():
    """Import dppnet from src/; returns the median import time of fresh interpreters."""
    src = ROOT / "src"
    times = [
        float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src)], check=True,
                             capture_output=True, text=True, timeout=120).stdout)
        for _ in range(IMPORT_REPS)
    ]
    sys.path.insert(0, str(src))
    import dppnet.cli  # noqa: F401  (imports every module the CLI uses)
    import dppnet.oracles  # noqa: F401
    if Path(dppnet.cli.__file__).resolve().parent != src / "dppnet":
        raise SystemExit(f"error: imported dppnet from {dppnet.cli.__file__}, not {src}")
    return statistics.median(times)


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_effective": _blas_threads(),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def _cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Window:
    """One timed stretch of a closed loop with a single caller.

    It stops once less than half a mean operation is left of ``seconds``, so
    a run overshoots its length by half an operation at most on average.
    Host-speed sampling time is left out of latencies and busy time.
    """

    def __init__(self, wl, seconds: float, min_ops: int, tracer=None, first_op: int = 0):
        self.lat = {}  # operation kind -> latencies in seconds
        self.ops = 0
        self.items = 0
        self.failures = []
        blocks = {}  # i // block_ops -> [[latency], items]
        cpu0 = _cpu_s()
        start = time.perf_counter()
        i = first_op
        elapsed = 0.0
        with HostSampler() as host:
            if tracer is not None:
                tracer.clock_ns = host.clock_ns
            while self.ops < min_ops or elapsed < seconds - 0.5 * elapsed / max(self.ops, 1):
                if tracer is not None:
                    tracer.op = i
                spent = host.spent
                t0 = time.perf_counter()
                try:
                    n = wl.op(i)
                except Exception as e:  # a failing operation is counted, not fatal
                    self.failures.append(f"op {i}: {type(e).__name__}: {e}")
                    n = 0
                lat = time.perf_counter() - t0 - (host.spent - spent)
                self.lat.setdefault(wl.kind(i), []).append(lat)
                block = blocks.setdefault(i // wl.block_ops, [[], 0])
                block[0].append(lat)
                block[1] += n
                self.items += n
                self.ops += 1
                i += 1
                elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.clock_ns = time.perf_counter_ns
        self.cal = host.samples
        self.busy = time.perf_counter() - start - host.spent
        self.cpu_ratio = (_cpu_s() - cpu0 - host.spent) / self.busy
        self.next_op = i
        # a window that starts or ends inside a block leaves it partial
        self.blocks = [b for b in blocks.values() if len(b[0]) == wl.block_ops] or list(blocks.values())
        # factor that takes this window's latencies to the reference speed
        self.scale = CAL_REF_S / quantile([c for _, c in self.cal], HOST_Q)

    @property
    def scaled_rate(self) -> float:
        return self.items / sum(sum(lats) for lats in self.lat.values()) / self.scale

    @property
    def scaled_latency_ms(self) -> float:
        return statistics.fmean(statistics.median(lats) for lats, _ in self.blocks) * self.scale * 1e3


def tail(lat_s: list, prefix: str) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ms = sorted(x * 1e3 for x in lat_s)
    out = {f"{prefix}_p50_ms": statistics.median(ms), f"{prefix}_samples": len(ms)}
    for q in (99.9, 99, 90, 75):
        if len(ms) * (100 - q) / 100 >= 10:
            out[f"{prefix}_p{q:g}_ms"] = statistics.quantiles(ms, n=1000)[int(q * 10) - 1]
            break
    return out


def run(args) -> tuple[dict, dict]:
    t_start = time.perf_counter()
    if not (ROOT / "src" / "dppnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no dppnet sources under {ROOT / 'src'}; run from a full checkout")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path, t_start: float) -> tuple[dict, dict]:
    with HostSampler() as setup_host:
        import_s = _import_dppnet()
        import spans
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        wl = WORKLOADS[args.workload](args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()

        def timed(fn):
            spent, t0 = setup_host.spent, time.perf_counter()
            fn()
            return time.perf_counter() - t0 - (setup_host.spent - spent)

        setup_times = [timed(wl.setup) for _ in range(wl.setup_reps)]
        warmup_s = timed(wl.warmup)
    setup_s = import_s + (statistics.median(setup_times) if setup_times else 0.0) + warmup_s
    setup_cal = [c for _, c in setup_host.samples]

    if tracer is None:
        windows = [Window(wl, args.seconds, wl.min_ops)]
    else:
        tracer.uninstall()
        plain = Window(wl, args.seconds / 2, 1)
        tracer.set_phase("window")
        tracer.install()
        traced = Window(wl, args.seconds / 2, 1, tracer, plain.next_op)
        tracer.uninstall()
        tracer.measure_peaks()
        windows = [plain, traced]

    checks = wl.checks()
    if tracer is not None:
        checks += [(msg, False, None) for msg in tracer.coverage_failures(wl.name)]

    op_failures = [f for w in windows for f in w.failures]
    failed_checks = [(name, detail) for name, ok, detail in checks if not ok]
    ops = sum(w.ops for w in windows)
    attempted = ops + len(checks)
    failed = len(op_failures) + len(failed_checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    main = windows[0]
    cal = setup_cal + [c for w in windows for _, c in w.cal]
    scale = CAL_REF_S / quantile(setup_cal, HOST_Q)
    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item": wl.item,
        "env": environment(args.seed),
        "named": {
            "setup_s": setup_s,
            **wl.named(main.lat, main.items, main.busy),
            **{k: v for kind, lat in main.lat.items() for k, v in tail(lat, kind).items()},
            "peak_rss_mb": peak_rss_mb,
            "failed_ratio": failed / attempted,
        },
        "setup_parts_s": {"import_median": import_s, "setup_reps": setup_times, "warmup": warmup_s},
        "host": {
            "reference_loop_ms_median": statistics.median(cal) * 1e3,
            "reference_loop_ms_range": [min(cal) * 1e3, max(cal) * 1e3],
            "samples": len(cal),
            "setup_scale": scale,
            "window_scale": main.scale,
            "blocks": len(main.blocks),
        },
        "cpu_s_per_wall_s": main.cpu_ratio,
        "ops": ops,
        "checks": len(checks),
        "failures": (op_failures + [n if d is None else f"{n}: {d}" for n, d in failed_checks])[:20],
        "run_s": time.perf_counter() - t_start,
    }
    if tracer is None:
        values = {
            "setup_s": setup_s * scale,
            "items_per_s": main.scaled_rate,
            "latency_ms": main.scaled_latency_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        plain, traced = windows
        overhead = plain.scaled_rate / traced.scaled_rate - 1.0 if traced.scaled_rate else 0.0
        metrics = spans.layer_metrics(tracer, traced.ops, plain.cpu_ratio, overhead, traced.scale)
        summary["trace_overhead"] = overhead
    record = {
        "summary": summary,
        "metrics": metrics,
        "windows": [
            {"blocks": [[n, lats] for lats, n in w.blocks], "reference_loop_s": w.cal}
            for w in windows
        ],
        "setup_reference_loop_s": setup_host.samples,
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    out_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, default=str))
    summary["record"] = str(out_path.relative_to(ROOT))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    result, summary = run(args)
    print(json.dumps(summary, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
