"""couplegen benchmark: one workload, timed end to end or traced per module.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0

Workloads are described in ``workloads.py``.  ``--trace 0`` repeats units of
work until ``--seconds`` have passed (and at least the workload's base units
have run), then prints the end-to-end metrics in reference-machine time (see
END_TO_END below) and in raw wall time.  ``--trace 1`` runs the base
units twice: once untraced on fresh inputs, once with spans around every call
into a couplegen module (``tracer.py``), then prints the per-layer metrics,
the tracing overhead and the traffic checks, and writes the spans to
``.perfbench_out/``.  Both modes check every op's output and print a sha256
digest of the base units' outputs; a digest that differs between two commits
means their numerics differ.

The program under test is imported from ``src/`` in the same process.  BLAS
is pinned to one thread in this process's environment before numpy loads.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))
try:
    import couplegen.cli  # noqa: F401
except ImportError as exc:
    sys.exit(f"cannot import couplegen from {SRC}: {exc}")
if not Path(couplegen.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"couplegen was imported from {couplegen.__file__}, not from {SRC}")

from tracer import ATTENTION_SPANS, Tracer, Traffic  # noqa: E402
from workloads import WORKLOADS, Clock  # noqa: E402

# (name, unit) of every end-to-end metric, printed with --trace 0.  Times are
# in reference-machine time ("_ref"; setup_s too, see STDLIB_PROBE): each op's
# wall time is scaled by the workload's reference slice time over the
# calibration slices timed next to it (``workloads.Calibrator``), because a
# shared 2-core machine changes speed by up to 2x for seconds at a time.  The
# raw wall-clock figures are printed beside them.
END_TO_END = [
    ("ops_per_s", "1/s_ref"),
    ("op_ms_p50", "ms_ref"),
    ("op_ms_p90", "ms_ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (name, unit) of every per-layer metric, printed with --trace 1.  Counts
# repeat exactly for a given seed; *_s are span self times.
PER_LAYER = [
    ("numerics.rng_fill.calls", "count"),
    ("numerics.rng_fill.values", "count"),
    ("numerics.rng_fill.self_s", "s"),
    ("prompt_io.embed.calls", "count"),
    ("prompt_io.embed.self_s", "s"),
    ("prompt_io.embed.repeat_share", "share"),
    ("attention.coupled.calls", "count"),
    ("attention.coupled.self_s", "s"),
    ("attention.coupled.boundary_share", "share"),
    ("attention.branch.calls", "count"),
    ("attention.branch.self_s", "s"),
    ("attention.joint.calls", "count"),
    ("attention.joint.self_s", "s"),
    ("attention.merge.self_s", "s"),
    ("attention.flops", "flop_computed"),
    ("attention.score_bytes", "byte_computed"),
    ("attention.gflops_per_s", "GFLOP/s"),
    ("pipeline.init.self_s", "s"),
    ("pipeline.sample.calls", "count"),
    ("pipeline.sample.self_s", "s"),
    ("pipeline.reference.calls", "count"),
    ("pipeline.reference.self_s", "s"),
    ("pipeline.double_block.calls", "count"),
    ("pipeline.double_block.self_s", "s"),
    ("pipeline.single_block.calls", "count"),
    ("pipeline.single_block.self_s", "s"),
    ("pipeline.steps", "count"),
    ("pipeline.step.fresh_share", "share"),
    ("metric.scorer_init.calls", "count"),
    ("metric.scorer_init.self_s", "s"),
    ("metric.score.self_s", "s"),
    ("metric.background_similarity.self_s", "s"),
    ("isotonic.evals", "count"),
    ("isotonic.accept_share", "share"),
    ("isotonic.pava.calls", "count"),
    ("isotonic.search.self_s", "s"),
    ("schedule.make.self_s", "s"),
    ("schedule.csv.calls", "count"),
    ("schedule.csv.self_s", "s"),
    ("pnm.write.calls", "count"),
    ("pnm.write.bytes", "B"),
    ("pnm.write.self_s", "s"),
    ("pnm.read.calls", "count"),
    ("pnm.read.bytes", "B"),
    ("pnm.read.self_s", "s"),
    ("pnm.quantize.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.run.failed", "count"),
    ("traffic.step.fresh_share", "share"),
    ("traffic.theta.boundary_share", "share"),
    ("traffic.text.repeat_share", "share"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_share", "share"),
    ("search.best_f_c", "score"),
]

# The input property each workload was chosen for, checked on the traced run
# from the inputs themselves (not from which functions the program calls).
TRAFFIC_CHECKS = {
    "roundtrip": [
        ("traffic.step.fresh_share", lambda v: v == 1.0, "== 1"),
        ("traffic.theta.boundary_share", lambda v: v == 0.0, "== 0"),
        ("traffic.text.repeat_share", lambda v: v < 0.3, "< 0.3"),
    ],
    "optimize": [
        ("traffic.step.fresh_share", lambda v: v < 0.75, "< 0.75"),
        ("traffic.text.repeat_share", lambda v: v > 0.9, "> 0.9"),
    ],
    "sweep_mid": [
        ("traffic.theta.boundary_share", lambda v: v == 1.0, "== 1"),
    ],
}

# Each prints how long its imports took in a fresh interpreter.  The stdlib
# probe shares no code with the repository and is timed right after the
# couplegen one; set-up time is scaled by STDLIB_PROBE_REF_S over it, because
# imports slow down with the machine differently from computation.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import couplegen.cli; "
    "print(time.perf_counter() - t)"
)
STDLIB_PROBE = (
    "import time; t = time.perf_counter(); import argparse, asyncio, csv, decimal, "
    "email.mime.multipart, http.client, json, logging, tarfile, unittest, "
    "xml.etree.ElementTree, zipfile; print(time.perf_counter() - t)"
)
STDLIB_PROBE_REF_S = 0.1  # the stdlib probe on a quiet 2-core 2.0 GHz Xeon VM
SETUP_REPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRAFFIC_CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn()
    return None


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
    }


def probe(code) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout)


def measure_setup(workload_cls, seed, workdir, clock):
    """Median over SETUP_REPS of: importing couplegen in a fresh interpreter,
    drawing the base inputs, and ``init_pipeline`` at the workload config,
    each in reference-machine seconds."""
    samples = []
    for _ in range(SETUP_REPS):
        import_s = probe(IMPORT_PROBE)
        stdlib_s = probe(STDLIB_PROBE)
        t0 = time.perf_counter()
        workload = workload_cls(seed, workdir, clock)
        specs = [workload.draw() for _ in range(workload.base_units)]
        seconds = import_s + time.perf_counter() - t0
        samples.append(seconds * STDLIB_PROBE_REF_S / stdlib_s)
    return statistics.median(samples), workload, specs


def digest(results):
    h = hashlib.sha256()
    for result in results:
        for part in result.digest_parts:
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


def throughput(results):
    return sum(r.attempted for r in results) / sum(r.busy_s for r in results)


def run_timed(workload, specs, seconds, tracer):
    results = []
    start = time.perf_counter()
    while len(results) < len(specs) or time.perf_counter() - start < seconds:
        spec = specs[len(results)] if len(results) < len(specs) else workload.draw()
        results.append(workload.run_unit(spec, tracer))
    return results


def end_to_end(results, setup_s, cal_ref_s):
    """Metrics in reference-machine time, and the same figures in raw wall time.

    Op i is scaled by cal_ref_s over the mean calibration slice timed after
    ops i-1, i and i+1, so over calibrations on both sides of it; a unit's
    busy time by the mean scale of its ops.
    """
    latencies = [x for r in results for x in r.latencies]
    cals = [c for r in results for c in r.cals]
    scale = [cal_ref_s / statistics.fmean(cals[max(0, i - 1): i + 2])
             for i in range(len(cals))]
    ref_busy, first = 0.0, 0
    for r in results:
        n = len(r.latencies)
        ref_busy += r.busy_s * statistics.fmean(scale[first: first + n] or scale)
        first += n
    attempted = sum(r.attempted for r in results)

    def summary(busy, lat):
        return {
            "ops_per_s": attempted / busy,
            "op_ms_p50": 1e3 * statistics.median(lat),
            "op_ms_p90": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        }

    common = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ref = summary(ref_busy, [x * k for x, k in zip(latencies, scale)]) | common
    raw = summary(sum(r.busy_s for r in results), latencies)
    return ref, raw, len(latencies)


def run_traced(workload, specs, tracer):
    """Untraced pass on fresh inputs, then the traced pass on ``specs``."""
    untraced = [workload.run_unit(workload.draw(), tracer) for _ in specs]
    traffic = Traffic()
    traced = []
    tracer.install()
    tracer.enabled = True
    try:
        for i, spec in enumerate(specs):
            tracer.op = i
            traced.append(workload.run_unit(spec, tracer))
            with tracer.paused():
                workload.add_traffic(spec, traffic)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    return untraced, traced, traffic


def per_layer(tracer, traffic, untraced, traced):
    stats = tracer.span_stats()
    counts = tracer.counts

    def calls(name):
        return stats[name][0] if name in stats else 0

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    metrics = {}
    for name, _ in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            metrics[name] = calls(layer)
        elif what == "self_s":
            metrics[name] = self_s(layer)
    attention_s = sum(self_s(name) for name in ATTENTION_SPANS)
    sampled = tracer.sampled
    traced_rate, untraced_rate = throughput(traced), throughput(untraced)
    best = [r.best_f_c for r in traced if r.best_f_c is not None]
    metrics.update({
        "numerics.rng_fill.values": counts["numerics.rng_fill.values"],
        "prompt_io.embed.repeat_share": share(counts["prompt_io.embed.repeats"],
                                              calls("prompt_io.embed")),
        "attention.coupled.boundary_share": share(counts["attention.coupled.boundary"],
                                                  calls("attention.coupled")),
        "attention.flops": counts["attention.flops"],
        "attention.score_bytes": counts["attention.score_bytes"],
        "attention.gflops_per_s": share(counts["attention.flops"], attention_s) / 1e9,
        "pipeline.steps": sampled.steps,
        "pipeline.step.fresh_share": share(sampled.fresh, sampled.steps),
        "isotonic.evals": counts["isotonic.evals"],
        "isotonic.accept_share": share(counts["isotonic.accepted"], counts["isotonic.evals"]),
        "pnm.write.bytes": counts["pnm.write.bytes"],
        "pnm.read.bytes": counts["pnm.read.bytes"],
        "cli.run.failed": counts["cli.run.failed"],
        "traffic.step.fresh_share": share(traffic.fresh, traffic.steps),
        "traffic.theta.boundary_share": share(traffic.boundary_steps, traffic.coupled_steps),
        "traffic.text.repeat_share": share(traffic.text_repeats, traffic.texts),
        "trace.traced_ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
        "search.best_f_c": max(best) if best else 0.0,
    })
    return {name: metrics[name] for name, _ in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload_cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer()
    calibrator = workload_cls.calibrator()
    clock = Clock(None if args.trace else calibrator)
    setup_s, workload, specs = measure_setup(workload_cls, args.seed, workdir, clock)
    print(f"# machine {json.dumps(machine())}")
    clock.install()
    try:
        if args.trace:
            untraced, traced, traffic = run_traced(workload, specs, tracer)
            results, base = untraced + traced, traced
            metrics = per_layer(tracer, traffic, untraced, traced)
            units = dict(PER_LAYER)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            print(f"# wrote {len(tracer.spans)} spans to {spans_path.relative_to(ROOT)}")
        else:
            results = run_timed(workload, specs, args.seconds, tracer)
            base = results[: len(specs)]
            metrics, raw, n_latencies = end_to_end(results, setup_s, calibrator.ref_s)
            units = dict(END_TO_END)
    finally:
        clock.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    if args.trace:
        for name, ok, expect in TRAFFIC_CHECKS[args.workload]:
            passed = ok(metrics[name])
            print(f"# traffic {name} = {metrics[name]!r} (want {expect}): "
                  f"{'ok' if passed else 'FAILED'}")
            if not passed:
                problems.append(f"traffic check {name} {expect} failed")
        print(f"# tracing overhead: {metrics['trace.traced_ops_per_s']:.4g} ops/s traced "
              f"vs {metrics['trace.untraced_ops_per_s']:.4g} untraced")
    else:
        print(f"# {args.workload} seed {args.seed}: {len(results)} units, {attempted} ops, "
              f"{n_latencies} latency samples")
        for name, value in raw.items():
            print(f"{'raw.' + name:40s} {value!r:>24} {units[name].removesuffix('_ref')}")
    for name, value in metrics.items():
        print(f"{name:40s} {value!r:>24} {units[name]}")
    print(f"{'error_rate':40s} {failed / attempted!r:>24} ({failed} of {attempted} ops)")
    best = [r.best_f_c for r in base if r.best_f_c is not None]
    if best and args.workload != "roundtrip":
        print(f"{'best_f_c':40s} {max(best)!r:>24}")
    print(f"{'digest':40s} sha256:{digest(base)}")
    for problem in problems[:20]:
        print(f"# FAILED: {problem}")

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
