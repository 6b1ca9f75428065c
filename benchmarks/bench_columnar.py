"""v1-vs-v2 cold-load benchmark (``BENCH_columnar.json``).

The ``cold_load_*`` workloads time the storage layer: a full
metadata-pruned selection from *disk* over the same dataset written in
the v1 (whole-partition pickle) and v2 (mmap columnar,
:mod:`repro.stio.blockv2`) block formats, with every process-level cache
dropped between runs.  Each row first checks that both formats select
identical instances.  ``cold_load_pruned`` uses a narrow query — the
regime v2 exists for, where it unpickles only matching rows;
``cold_load_broad`` keeps most of the data and documents the worst case
(per-row unpickling cannot beat one monolithic ``pickle.loads`` when
nearly every row survives, so that row is informational, not gated).

Run the full-size record (100k instances, sequential backend)::

    PYTHONPATH=src python benchmarks/bench_columnar.py

CI smoke (small n, all backends, nonzero exit if v2 is slower on the
pruned load)::

    PYTHONPATH=src python benchmarks/bench_columnar.py --smoke \
        --backends sequential,thread,process
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core import Selector  # noqa: E402
from repro.datasets import generate_nyc_events  # noqa: E402
from repro.datasets.common import EPOCH_2013  # noqa: E402
from repro.engine import EngineContext  # noqa: E402
from repro.geometry import Envelope  # noqa: E402
from repro.partitioners import TSTRPartitioner  # noqa: E402
from repro.temporal import Duration  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The broad cold-load range — covers the NYC hotspot band so the filter
#: keeps a meaningful fraction of the input.
QUERY_SPATIAL = Envelope(-74.0, 40.7, -73.92, 40.78)
QUERY_TEMPORAL = Duration(EPOCH_2013, EPOCH_2013 + 10 * 86_400.0)

#: Narrow range for the pruned cold-load workload — high selectivity is
#: the regime the v2 pushdown targets (decode only matching rows).
PRUNED_SPATIAL = Envelope(-73.99, 40.72, -73.96, 40.75)
PRUNED_TEMPORAL = Duration(EPOCH_2013, EPOCH_2013 + 2 * 86_400.0)


def _best_of(reps: int, fn) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _identities(instances) -> list:
    return sorted(inst.identity() for inst in instances)


def _bench_cold_load(ctx, directories, reps, spatial, temporal):
    """Full disk selection, v1 vs v2 blocks, all process caches cold."""
    from repro.columnar.cache import invalidate_partition_indexes

    results = {}
    timings = {}
    for fmt, directory in directories.items():

        def run(d=directory):
            invalidate_partition_indexes()
            return Selector(spatial, temporal).select(ctx, d).collect()

        results[fmt] = _identities(run())
        timings[fmt] = _best_of(reps, run)
    if results["v1"] != results["v2"]:
        raise AssertionError("cold-load parity violation: v1 != v2")
    return timings["v1"], timings["v2"]


def run_backend(backend: str, n: int, reps: int, directories: dict[str, Path]) -> list[dict]:
    ctx = EngineContext(default_parallelism=8, backend=backend)
    rows = []

    def record(workload, pair):
        v1_s, v2_s = pair
        rows.append(
            {
                "workload": workload,
                "backend": backend,
                "n": n,
                "v1_s": round(v1_s, 6),
                "v2_s": round(v2_s, 6),
                "speedup": round(v1_s / v2_s, 2) if v2_s else None,
            }
        )

    try:
        record(
            "cold_load_pruned",
            _bench_cold_load(ctx, directories, reps, PRUNED_SPATIAL, PRUNED_TEMPORAL),
        )
        record(
            "cold_load_broad",
            _bench_cold_load(ctx, directories, reps, QUERY_SPATIAL, QUERY_TEMPORAL),
        )
    finally:
        ctx.backend.stop()
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000, help="instance count")
    parser.add_argument("--reps", type=int, default=3, help="best-of repetitions")
    parser.add_argument(
        "--backends",
        default="sequential",
        help="comma-separated execution backends to time",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small-n CI mode: exit nonzero if v2 is slower than v1 on the pruned load",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.95,
        help="smoke-mode failure threshold on speedup (noise guard)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_columnar.json",
        help="output JSON path",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.n = min(args.n, 5_000)

    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    events = generate_nyc_events(args.n, seed=101, days=30)

    import shutil
    import tempfile

    from repro.stio import save_dataset

    workdir = Path(tempfile.mkdtemp(prefix="bench-coldload-"))
    directories = {}
    try:
        for fmt in ("v1", "v2"):
            directories[fmt] = workdir / fmt
            save_dataset(
                directories[fmt],
                events,
                "event",
                partitioner=TSTRPartitioner(4, 4),
                block_format=fmt,
            )
        results = []
        for backend in backends:
            print(f"[bench-columnar] backend={backend} n={args.n}", flush=True)
            results.extend(run_backend(backend, args.n, args.reps, directories))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "meta": {
            "n": args.n,
            "reps": args.reps,
            "backends": backends,
            "smoke": args.smoke,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(r["workload"]) for r in results)
    failures = []
    for r in results:
        print(
            f"  {r['workload']:<{width}}  {r['backend']:<10}"
            f"  v1 {r['v1_s'] * 1000:9.1f}ms  v2 {r['v2_s'] * 1000:9.1f}ms"
            f"  speedup {r['speedup']:6.2f}x"
        )
        # cold_load_broad is informational: when nearly every row
        # survives, per-row unpickling has no pruning to win with.
        if (
            args.smoke
            and r["workload"] != "cold_load_broad"
            and r["speedup"] < args.tolerance
        ):
            failures.append(r)
    print(f"[bench-columnar] wrote {args.out}")
    for r in failures:
        print(
            f"[bench-columnar] FAIL: {r['workload']} on {r['backend']} "
            f"v2 slower than v1 ({r['speedup']}x < {args.tolerance}x)",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
