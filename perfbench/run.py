"""Benchmark of apseq: offline map build and load, online scan stream, window sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/`` is put on the path.  With
``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics of a traced run.  A run record (machine,
versions, seed, sample counts, output digest) and, when traced, the spans
are written under ``.perfbench/`` in the checkout.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SPAN_CAP = 200_000  # tracing stops here to bound the recorder's memory


def percentile(values, p: float):
    """The p-th percentile (nearest rank) if at least ten samples lie beyond it, else None."""
    n = len(values)
    if n == 0 or n * (100.0 - p) / 100.0 < 10:
        return None
    ordered = sorted(values)
    return ordered[min(n - 1, max(0, -(-n * p // 100) - 1))]


def best_per_op(blocks: list[list[float]]) -> list[float]:
    """For each op position, its shortest time over the complete blocks.

    Every block repeats the same ops on the same inputs, so the minimum is
    the op's cost with the least interference from other load on the host.
    """
    size = max(len(b) for b in blocks)
    return [min(column) for column in zip(*(b for b in blocks if len(b) == size))]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class CpuRotation:
    """Pins the process to each of its allowed CPUs in turn.

    On the shared host one CPU at a time can run up to 2x slow for tens of
    seconds while the other runs at full speed.  Moving between blocks lets
    each op's best time come from the faster CPU; the process still runs on
    one CPU at a time.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

    def pin(self, turn: int) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})

    def restore(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, set(self.cpus))


def run(workload_cls, seed: int, seconds: float, trace: bool, workdir: str):
    """Set up, check, then run blocks for ``seconds``; returns the op times per block."""
    w = workload_cls(seed, workdir)
    recorder = tracing.Recorder() if trace else None
    patches = tracing.Patches(recorder) if trace else None
    cpus = CpuRotation()
    setup_times = []
    for i in range(w.setups):
        cpus.pin(i)
        traced = trace and i == w.setups - 1
        if traced:
            patches.install()
        t0 = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - t0)
        if traced:
            w.check_stores()
            patches.remove()
    if not trace:
        w.check_stores()
    w.prepare()

    # A traced run alternates untraced and traced blocks; comparing their op
    # times gives the tracing overhead.
    blocks = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced = trace and len(blocks[False]) > len(blocks[True]) and len(recorder.spans) < SPAN_CAP
        if traced:
            w.recorder = recorder
            patches.install()
        first = len(w.op_times)
        cpus.pin(len(blocks[traced]))  # traced and untraced blocks each rotate
        w.block()
        if traced:
            patches.remove()
            w.recorder = None
        blocks[traced].append(w.op_times[first:])
        if time.perf_counter() - start >= seconds:
            break
    cpus.restore()
    return w, recorder, setup_times, blocks, cpus.cpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "apseq")):
        print(f"error: no apseq sources under {SRC}", file=sys.stderr)
        return 2
    # One thread per run: pin BLAS/OpenMP pools before numpy is imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        w, recorder, setup_times, blocks, cpus = run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    best = best_per_op(blocks[False])
    all_ops = [t for b in blocks[False] for t in b]
    named = {  # the metric names of the workload's design, where it exercises them
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_fail_ratio": (w.outcomes.failed / w.outcomes.attempted, "ratio"),
    }
    if args.workload == "mapgen-dover":
        half = len(best) // 2
        named["mapgen_s"] = (sum(best[:half]), "s")
        named["cold_localize_s"] = (sum(best[half:]), "s")
    elif args.workload == "scan-stream-dover":
        tail = percentile(best, 99)
        named["scan_p50_us"] = (statistics.median(best) * 1e6, "us")
        named["scan_p99_us"] = (None if tail is None else tail * 1e6, "us")
        named["scans_per_s"] = (len(best) / sum(best), "1/s")
    else:
        named["sweep_s"] = (statistics.median(best), "s")

    if args.trace:
        traced = [t for b in blocks[True] for t in b]
        ratio = (sum(traced) / len(traced)) / (sum(all_ops) / len(all_ops)) if traced else 0.0
        metrics = tracing.layer_metrics(recorder.spans, sum(traced), ratio)
    else:
        metrics = {
            "setup_s": named["setup_s"],
            "latency_ms": (w.latency(best) * 1e3, "ms"),
            "ops_per_s": (len(best) / sum(best), "1/s"),
            "peak_rss_mb": named["peak_rss_mb"],
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "cpus_rotated": cpus,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
        },
        "samples": {
            "setups": len(setup_times),
            "untraced_blocks": len(blocks[False]),
            "traced_blocks": len(blocks[True]),
            "ops_per_block": len(best),
            "untraced_ops": len(all_ops),
        },
        "attempted": w.outcomes.attempted,
        "failed": w.outcomes.failed,
        "failures": w.outcomes.messages,
        "digest": w.digest(),
        "reference_summary": w.reference_summary,
        "design_metrics": named,
        "metrics": metrics,
        "times_s": {
            "setup": setup_times,
            "best_per_op": best if len(best) <= 100 else None,
            "all_ops_median": statistics.median(all_ops),
            "all_ops_p99": percentile(all_ops, 99),
            "block_medians": [statistics.median(b) for b in blocks[False]],
        },
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if recorder is not None:
        recorder.write(stem + ".spans.tsv.gz")

    for name, (value, unit) in named.items():
        shown = "n/a (fewer than 10 samples beyond p99)" if value is None else f"{value:.6g} {unit}"
        print(f"{name:16s} {shown}")
    print(f"{'samples':16s} {record['samples']}")
    print(f"{'digest':16s} {record['digest']}")
    print(f"{'record':16s} {os.path.relpath(stem, ROOT)}.json")
    for message in w.outcomes.messages[:3]:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": w.outcomes.failed == 0,
        "attempted": w.outcomes.attempted,
        "failed": w.outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
