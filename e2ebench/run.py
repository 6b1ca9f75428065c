"""End-to-end benchmark of the ST4ML reproduction, with a per-layer split.

Run from the repository root::

    python3 e2ebench/run.py --workload events_flow --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``events_flow`` — Selector + T-STR -> Event2Ts (hourly) -> TsFlow over
  NYC-like events on disk; selection dominates.
* ``trajs_raster_speed`` — Selector + T-STR -> Traj2Raster (8x8x12) ->
  RasterSpeed over Porto-like trajectories; conversion does half the work.
  It runs on request but is not in ``BENCHMARK.json``: its few long ops
  slow with the machine about twice as much as the reference task does,
  so its runs spread too widely to gate on.
* ``stream_ingest`` — daily micro-batches through ``StDataset.ingest``
  (with compaction) and ``Pipeline.run_incremental``; the write path.
* ``serve_mixed`` — a ``repro serve`` daemon answering a closed loop of
  two clients, half hot (cached) and half fresh ranges.

The benchmark pins itself, and the serve daemon it starts, to one CPU.
It generates every input from ``--seed``, sets up three times
(``setup_s`` is the median), runs operations for at least ``--seconds``
(whole 12-batch passes on ``stream_ingest``), checks every output against
brute-force oracles and prints one result line of JSON last.  Op times in
that line are in ``ref`` units, multiples of the run's median time of a
fixed reference task timed right before each op (see ``yardstick.py``),
so the machine's own speed swings cancel; the issue's wall-clock metrics
are printed above it.
``--trace 1`` instead sets up once
and splits the time across the program's layers with spans recorded
around public API calls; spans and run metadata are written under
``.e2ebench-runs/`` in the repository root.

The exit code is 0 when every output is correct, 1 when any oracle check
failed, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: CPUs this process may use, counted before it pins itself to one.
NPROC = len(os.sched_getaffinity(0))

#: Settings that would steer the program away from what a user gets.
SCRUBBED = ("REPRO_DEFAULT_BACKEND", "REPRO_FAULT_PLAN", "REPRO_LOCK_SANITIZER")

SETUP_REPEATS = 3

#: name -> (unit, better): the end-to-end metrics of a run with tracing off.
#: ``ref`` is the time of the reference task in ``yardstick.py``.
END_TO_END = {
    "op_p50_ref": ("ref", "lower"),
    "op_p95_ref": ("ref", "lower"),
    "records_per_ref": ("1/ref", "higher"),
    "ops_per_ref": ("1/ref", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: name -> (unit, better): the per-layer metrics of a traced run.  A layer
#: a workload does not exercise reads 0.
PER_LAYER = {
    "stio.load_s": ("s", "lower"),
    "stio.partitions_scanned": ("count", "lower"),
    "stio.partitions_pruned": ("count", "higher"),
    "stio.records_loaded": ("count", "lower"),
    "stio.bytes_read": ("bytes", "lower"),
    "stio.bytes_written_per_record": ("B/record", "lower"),
    "selector.select_s": ("s", "lower"),
    "selector.filter_s": ("s", "lower"),
    "selector.rows_out": ("count", "higher"),
    "selector.survival_ratio": ("ratio", "higher"),
    "selector.tasks": ("count", "lower"),
    "partitioners.repartition_s": ("s", "lower"),
    "partitioners.shuffle_records": ("count", "lower"),
    "partitioners.balance_cv": ("ratio", "lower"),
    "converters.convert_s": ("s", "lower"),
    "converters.broadcast_records": ("count", "lower"),
    "extractors.extract_s": ("s", "lower"),
    "extractors.cells_out": ("count", "higher"),
    "engine.tasks": ("count", "lower"),
    "engine.stages": ("count", "lower"),
    "engine.shuffle_records": ("count", "lower"),
    "stream.ingest_s": ("s", "lower"),
    "stream.compact_s": ("s", "lower"),
    "stream.incremental_s": ("s", "lower"),
    "stream.rebootstrap_s": ("s", "lower"),
    "stream.compactions": ("count", "lower"),
    "stream.late_records": ("count", "lower"),
    "serve.queue_ms": ("ms", "lower"),
    "serve.exec_hit_ms": ("ms", "lower"),
    "serve.exec_miss_ms": ("ms", "lower"),
    "serve.transport_ms": ("ms", "lower"),
    "serve.result_cache_hit_ratio": ("ratio", "higher"),
    "serve.index_cache_hit_ratio": ("ratio", "higher"),
    "serve.partitions_scanned_per_miss": ("count", "lower"),
    "trace.delta_frac": ("ratio", "lower"),
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every input size (the benchmark's own tests run tiny sizes)",
    )
    return parser.parse_args(argv)


def _pin() -> int:
    """Pin this process, and so every thread and child it starts, to one CPU.

    The reference task then runs on the CPU the measured work runs on.
    The serve daemon shares it with its client: a reply that crosses to
    another virtual CPU waits for the host to wake that CPU, a delay that
    swung serve throughput by a factor of two from run to run.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _peak_reset(pid: int) -> bool:
    """Reset the peak RSS (VmHWM) of ``pid`` to its current RSS."""
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
        return True
    except OSError:
        return False


def _peak_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _meta(args, workload, numpy_version: str, cpu: int) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "commit": commit or "unknown (not a git checkout)",
        "dirty": None if status is None else bool(status),
        "nproc": NPROC,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": workload.backend(),
        "inputs": workload.inputs_meta,
        "dataset_bytes": workload.dataset_bytes,
        "disk_reads": "page-cache reads: every dataset is read right after it is written",
    }


def _named(workload, out, e2e: dict, failed_frac: float) -> list[tuple[str, float, str]]:
    """The issue's workload-specific metrics, in wall-clock units."""
    from workloads import median, p95

    p50, tail = median(out.op_seconds), p95(out.op_seconds)
    records = sum(out.op_records) / out.wall_seconds
    label = workload.op_label
    if label == "pipeline":
        rows = [("pipeline_s", p50, "s"), ("records_per_s", records, "1/s")]
    elif label == "batch":
        rows = [("batch_to_feature_s", p50, "s"), ("records_ingested_per_s", records, "1/s")]
    else:
        rows = [
            ("query_p50_ms", p50 * 1e3, "ms"),
            ("query_p95_ms", tail * 1e3, "ms"),
            ("queries_per_s", len(out.op_seconds) / out.wall_seconds, "1/s"),
        ]
    return rows + [
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("failed_frac", failed_frac, "ratio"),
        ("setup_s", e2e["setup_s"], "s"),
        ("reference_ms", median(out.op_refs) * 1e3, "ms"),
    ]


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for key in list(os.environ):
        if key in SCRUBBED or key.startswith("REPRO_BENCH_"):
            del os.environ[key]
    cpu = _pin()
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds through the finally blocks, which reap the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import numpy

    import yardstick
    from spans import Spans
    from workloads import WORKLOADS, median, p95

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    runs = ROOT / ".e2ebench-runs"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = runs / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.scale, work, ROOT)
    spans = Spans() if args.trace else None
    try:
        setup_times = []
        for k in range(SETUP_REPEATS if not args.trace else 1):
            workload.discard()
            start = time.perf_counter()
            workload.setup(work / f"setup-{k}")
            setup_times.append(time.perf_counter() - start)
        workload.warm()
        reference = [yardstick.measure(5) * 1e3]
        pid = workload.measured_pid()
        peak_reset = _peak_reset(pid)
        if spans is None:
            out = workload.run(args.seconds)
        else:
            out = workload.run_traced(args.seconds, spans)
        peak = _peak_mb(pid)
        reference.append(yardstick.measure(5) * 1e3)
        meta = _meta(args, workload, numpy.__version__, cpu)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    meta["peak_rss_reset"] = peak_reset
    meta["reference_ms_before_after"] = [round(r, 3) for r in reference]
    print(f"== e2ebench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} ==")
    print("meta " + json.dumps(meta, sort_keys=True))
    if getattr(workload, "digest", None):
        print(f"output digest: {workload.digest}")
    for note in out.notes:
        print(f"FAILED: {note}".rstrip())
    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    if spans is None:
        ref = median(out.op_refs)
        wall = out.wall_seconds / ref if ref else 0.0
        metrics = {
            "op_p50_ref": median(out.op_seconds) / ref if ref else 0.0,
            "op_p95_ref": p95(out.op_seconds) / ref if ref else 0.0,
            "records_per_ref": sum(out.op_records) / wall if wall else 0.0,
            "ops_per_ref": len(out.op_seconds) / wall if wall else 0.0,
            "peak_rss_mb": peak,
            "setup_s": median(setup_times),
        }
        units = END_TO_END
        print(f"ops: {len(out.op_seconds)} {workload.op_label}s; setups: "
              + ", ".join(f"{s:.3f}" for s in setup_times) + " s")
        if out.op_seconds:
            for name, value, unit in _named(workload, out, metrics, failed_frac):
                print(f"metric {name} = {value:.6g} {unit}")
    else:
        metrics = {name: float(out.layer.get(name, 0.0)) for name in PER_LAYER}
        units = PER_LAYER
        print("median self time per op, by layer span:")
        for layer, seconds in sorted(out.self_times.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<40} {seconds * 1e3:10.3f} ms")
        for line in out.summary:
            print(line)
        for name in PER_LAYER:
            shown = "n/a (not exercised)" if name not in out.layer else f"{metrics[name]:.6g}"
            print(f"layer {name} = {shown} {PER_LAYER[name][0]}")
    result = {
        "correct": out.failed == 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    runs.mkdir(parents=True, exist_ok=True)
    samples = {"op_seconds": out.op_seconds, "op_refs": out.op_refs, "setup_seconds": setup_times}
    (runs / f"{tag}.json").write_text(
        json.dumps({"meta": meta, "result": result, "samples": samples}, indent=1)
    )
    if spans is not None:
        spans.write(runs / f"{tag}-spans.json")
    print(json.dumps(result))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
