"""lka-reid benchmark: one closed-loop, single-process workload per run.

    python3 benchmarks/run.py --workload train-toy --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones (see README.md).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0
when every output check passed, 1 when one failed, 2 when the checkout
holds no library to benchmark.

numpy is only imported inside functions: BLAS reads its thread count
when numpy loads, so ``bootstrap`` must run first.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_p90_over_p50": "x",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "frac",
}
# trunk 3x3 conv of the default ModelConfig at 48x48: 64 channels on 6x6
TRUNK_C, TRUNK_HW = 64, 6
GEMM_REPS = 60  # timed matmuls of the GEMM ceiling probe, after 5 warm-up
LKA_REPS = 15  # timed lka_forward+backward pairs of the scaling probe


def per_layer_units():
    from tracer import CONV_KINDS, LAYERS, NAMED_TENSOR_OPS

    units = {}
    for kind in CONV_KINDS:
        p = f"tensor.conv2d.{kind}"
        units.update({
            f"{p}.fwd_ms": "ms", f"{p}.bwd_ms": "ms", f"{p}.calls": "count",
            f"{p}.gflops": "GFLOP/s", f"{p}.flops": "FLOP", f"{p}.bytes": "B",
            f"{p}.flops_per_byte": "FLOP/B",
        })
    for name in NAMED_TENSOR_OPS + ("other",):
        units.update({f"tensor.{name}.fwd_ms": "ms", f"tensor.{name}.bwd_ms": "ms"})
    units.update({
        "tensor.backward.self_ms": "ms",
        "tensor.gemm_ceiling_gflops": "GFLOP/s",
        "attention.lka.self_ms": "ms",
        "attention.hca.self_ms": "ms",
        "attention.lka_scaling_2x": "x",
        "attention.lka_counted_scaling_2x": "x",
        "model.forward_train_ms": "ms",
        "model.extract_features_ms": "ms",
        "model.save_checkpoint_ms": "ms",
        "model.load_checkpoint_ms": "ms",
        "model.counted_flops": "FLOP",
        "training.step.forward_ms": "ms",
        "training.step.loss_ms": "ms",
        "training.step.backward_ms": "ms",
        "training.step.optimizer_ms": "ms",
        "training.pk_sample_ms": "ms",
    })
    for name in ("load_manifest", "pairwise_cosine", "protocol_filter", "average_precision", "cmc", "rank_self"):
        units[f"evaluation.{name}_ms"] = "ms"
    units.update({"evaluation.queries_scored": "count", "evaluation.queries_skipped": "count"})
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
    units["trace.overhead_frac"] = "x"
    return units


def _blas_runtime():
    """OpenBLAS thread count and build string from the library numpy loaded."""
    import ctypes

    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(dll, f"{prefix}_get_num_threads{suffix}")
                config = getattr(dll, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return int(threads()), config().decode()
    return None, None


def environment(threads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads, blas_config = _blas_runtime()
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    loc = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "lkareid").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas_config,
        "blas_threads": blas_threads if blas_threads is not None else threads,
        "nproc": threads,
        "cpu_model": cpu,
        "src_lkareid_loc": loc,
    }


def gemm_ceiling_gflops(batch):
    """Raw np.matmul at the trunk conv's im2col shape, float32."""
    import numpy as np

    rng = np.random.default_rng(0)
    k, n = TRUNK_C * 9, TRUNK_HW * TRUNK_HW
    w = rng.standard_normal((1, TRUNK_C, k), dtype=np.float32)
    cols = rng.standard_normal((batch, 1, k, n), dtype=np.float32)
    times = []
    for _ in range(GEMM_REPS + 5):
        t0 = time.perf_counter()
        np.matmul(w, cols)
        times.append(time.perf_counter() - t0)
    return 2 * batch * TRUNK_C * k * n / statistics.median(times[5:]) / 1e9


def lka_scaling(batch):
    """Timed and counted cost of lka_forward + backward at H x 2W over H x W."""
    import numpy as np

    from lkareid import attention
    from lkareid import tensor as T

    cfg = attention.LkaConfig(TRUNK_C)
    rng = np.random.default_rng(0)
    params = attention.init_params(attention.lka_param_shapes(cfg), rng, dtype=np.float32)

    def once(width):
        x = T.Tensor(rng.standard_normal((batch, TRUNK_C, TRUNK_HW, width), dtype=np.float32), requires_grad=True)
        for p in params.values():
            p.grad = None
        t0 = time.perf_counter()
        T.backward(T.tsum(attention.lka_forward(x, params, cfg)))
        return time.perf_counter() - t0

    once(TRUNK_HW), once(2 * TRUNK_HW)
    base, wide = [], []
    for _ in range(LKA_REPS):
        base.append(once(TRUNK_HW))
        wide.append(once(2 * TRUNK_HW))
    counted = (
        attention.count_params_flops(cfg, (batch, TRUNK_C, TRUNK_HW, 2 * TRUNK_HW))[1]
        / attention.count_params_flops(cfg, (batch, TRUNK_C, TRUNK_HW, TRUNK_HW))[1]
    )
    return statistics.median(wide) / statistics.median(base), counted


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def measure(workload_cls, seed, seconds, workdir, tracer):
    """Set up, warm up with one operation, then run operations for
    ``seconds``.  Untraced, the workload's other set-ups, each of a fresh
    instance in a spare directory, are spread evenly over the measuring
    window, which is stretched by their time: the host's speed drifts over
    seconds, and spread out the set-ups see it as the operations do.  When
    tracing, there is one set-up and every other operation runs with the
    wrappers installed."""
    from lkareid.tensor import NumericsError

    setup_times = []
    spare = workdir / "spare"
    spare.mkdir()

    def timed_setup(w):
        if tracer:
            tracer.install("setup")
        t0 = time.perf_counter()
        try:
            w.setup()
        finally:
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
        return setup_times[-1]

    w = workload_cls(seed, workdir)
    timed_setup(w)
    extra = 0 if tracer else workload_cls.setups - 1

    plain, traced, errors = [], [], []
    attempted = failed = 0
    k, deadline = 0, None
    while True:
        on = tracer is not None and k % 2 == 1
        if on:
            tracer.install(k)
        out = None  # the previous output is not part of this operation's memory
        t0 = time.perf_counter()
        try:
            out = w.op()
        except NumericsError as exc:  # TrainingDivergence is one too
            attempted, failed = attempted + 1, failed + 1
            errors.append(f"op {k}: {type(exc).__name__}: {exc}")
            break
        finally:
            dt = time.perf_counter() - t0
            if on:
                tracer.uninstall()
        attempted += 1
        problem = w.check_op(out)
        if problem:
            failed += 1
            errors.append(f"op {k}: {problem}")
        if on:
            for name, value in w.op_counters(out).items():
                tracer.counts[k][name] += value
        if k == 0:  # warm-up: not timed, opens the measuring window
            deadline = time.perf_counter() + seconds
        else:
            (traced if on else plain).append(dt)
        k += 1
        done = len(setup_times) - 1
        if done < extra and seconds - (deadline - time.perf_counter()) >= seconds * (done + 1) / (extra + 1):
            deadline += timed_setup(workload_cls(seed, spare))
        enough = len(plain) >= 3 and (tracer is None or len(traced) >= 2)
        if time.perf_counter() >= deadline and enough:
            break
    while len(setup_times) <= extra:  # operations too long to fit them all in
        timed_setup(workload_cls(seed, spare))

    if tracer:
        tracer.install("finish")
    try:
        w.finish()
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return w, setup_times, plain, traced, attempted, failed, errors, peak_rss_mb


def op_stats(w, plain):
    """Median and 90th-percentile operation time (s), and the rate in
    items per second at the median operation time."""
    p50 = statistics.median(plain)
    return {"p50": p50, "p90": _percentile(plain, 90), "rate": w.items_per_op / p50}


def end_to_end_metrics(w, setup_times, plain, attempted, failed, peak_rss_mb):
    # The tail is gated as p90/p50: on a shared host the machine's speed
    # drifts by tens of percent over minutes, which moves a raw p90 more
    # than any bound allows but cancels in the ratio.  The raw p90 is
    # printed with the workload's own metric names.
    stats = op_stats(w, plain)
    return {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": stats["p50"] * 1e3,
        "op_p90_over_p50": stats["p90"] / stats["p50"],
        "items_per_s": stats["rate"],
        "peak_rss_mb": peak_rss_mb,
        "ok_ops_frac": (attempted - failed) / attempted,
    }


def per_layer_metrics(w, tracer, plain, traced):
    from tracer import CONV_KINDS, layer_metrics, op_counts

    out = layer_metrics(tracer)
    counts, unsteady = op_counts(tracer)
    for kind in CONV_KINDS:
        p = f"tensor.conv2d.{kind}"
        flops, nbytes, fwd_ms = counts.get(p + ".flops", 0), counts.get(p + ".bytes", 0), out[p + ".fwd_ms"]
        out[p + ".calls"] = counts.get(p + ".calls", 0)
        out[p + ".flops"] = flops
        out[p + ".bytes"] = nbytes
        out[p + ".flops_per_byte"] = flops / nbytes if nbytes else 0.0
        out[p + ".gflops"] = flops / (fwd_ms * 1e6) if fwd_ms else 0.0
    for name in ("evaluation.queries_scored", "evaluation.queries_skipped"):
        out[name] = counts.get(name, 0)
    out["model.counted_flops"] = w.forward_flops()
    out["tensor.gemm_ceiling_gflops"] = gemm_ceiling_gflops(w.conv_batch)
    out["attention.lka_scaling_2x"], out["attention.lka_counted_scaling_2x"] = lka_scaling(w.conv_batch)
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain)
    return out, unsteady


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def bootstrap():
    """Pin BLAS threads before numpy loads and import lkareid from this
    checkout's src/.  Returns the thread count, or None (with a message)
    when the checkout holds no library to benchmark."""
    # one process; BLAS may use every CPU this process may run on, no more
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    if not (SRC / "lkareid" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no lkareid sources under {ROOT}; run from a checkout root", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import lkareid

    if Path(lkareid.__file__).resolve().parent != (SRC / "lkareid").resolve():
        print(f"error: imported lkareid from {lkareid.__file__}, not {SRC}", file=sys.stderr)
        return None
    return threads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = bootstrap()
    if threads is None:
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    env = environment(threads)
    print("env " + json.dumps(env, sort_keys=True))

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        w, setup_times, plain, traced, attempted, failed, errors, rss = measure(
            workload_cls, args.seed, args.seconds, workdir, tracer
        )
        checks_run = w.verify() if plain else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not plain:
        for e in errors:
            print(f"FAILED {e}", file=sys.stderr)
        return 1
    for name, problem in checks_run:
        attempted += 1
        if problem:
            failed += 1
            errors.append(f"check {name}: {problem}")
        print(f"check {name}: {'FAIL ' + problem if problem else 'ok'}")

    if args.trace:
        metrics, unsteady = per_layer_metrics(w, tracer, plain, traced)
        if unsteady:
            failed += 1
            errors.append(f"per-op work counts differ between operations: {unsteady}")
        units = per_layer_units()
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"env": env, "workload": args.workload, "seed": args.seed, "metrics": metrics,
             "counts": {str(op): dict(c) for op, c in tracer.counts.items()}, "spans": tracer.dump()}
        ))
        print(f"{'per-layer metric (per operation)':44s} {'value':>14s}  unit")
        for name, unit in units.items():
            print(f"{name:44s} {_fmt(metrics[name]):>14s}  {unit}")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(w, setup_times, plain, attempted, failed, rss)
        units = END_TO_END
        for name, unit in units.items():
            print(f"{name:20s} {_fmt(metrics[name]):>14s}  {unit}")
        print(f"  over {len(plain)} timed operations, {len(setup_times)} set-ups, {env['blas_threads']} BLAS threads")
        stats = op_stats(w, plain)
        for alias, (key, scale, unit) in workload_cls.aliases.items():
            print(f"  {alias} = {_fmt(stats[key] * scale)} {unit}")
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
