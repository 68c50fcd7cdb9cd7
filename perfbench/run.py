"""hand_index_ray benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {ingest,serve,join} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}] [--inject knn_drop]

Run it from the repository root; all workloads, one after another:

    for w in ingest serve join; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 12 --trace 0
    done

BENCHMARK.json lists ingest and join only: 22 runs of each take about
35 minutes on one core, and serve's set-up plus a timed loop long
enough to sample appends would add about 20 more.  Workloads (``full`` size):

ingest  Fresh ``build_index`` then ``compact_index`` over a seeded
        2000-row images table in 16 fragments (synth's codec mix: one
        row in four is baseline JPEG), repeated for S seconds and at
        least twice.
serve   One closed-loop client against an index built in set-up.  Each
        round issues a seeded kNN (k=10), a ~2 degree bbox scan and a
        1.5 degree 8-gon ROI query (threshold 10%); every 7 rounds (21
        queries) a new 64-row fragment lands and is made queryable
        with ``build_index(resume=True)`` + ``compact_index``.
join    ``zonal_join`` of a 1000-row index whose footprints sit 40% in
        synth's hot spot against a fresh seeded 5000-polygon catalog per
        repetition, once on the salted co-group route
        (``zonal_broadcast_bytes=0``) and once on the broadcast route;
        at least two repetitions.

Every operation's answer is checked against a brute-force oracle
(checks.py); a wrong answer counts as failed.

End-to-end metrics (``--trace 0``), the same names on every workload:

setup_s      median of 2 cold Ray session starts (``num_cpus = nproc``)
             each with a warm-up pass of the workload's calls over a
             small table, plus the index build for serve and join.
             Input generation is excluded and reported as ``gen_s``.
op_p50_ms    median latency of the workload's timed operation: ingest,
             a build + compaction; serve, a query round; join, a
             co-group-route zonal join.
peak_rss_mb  peak summed RSS of this process and its descendants (Ray's
             GCS, raylet and workers), sampled from /proc.

``--trace 1`` runs the timed loop twice, untraced then traced, times
direct calls into each layer over the same fragments (the layer
ledger), writes the spans to ``.perfbench/out/`` and reports the
per-layer metrics of ``PER_LAYER`` with self times per span and the
traced-vs-untraced difference of ``op_p50_ms`` as
``trace.overhead_pct``.

Before the result, one ``{"perfbench": ...}`` line reports the host and
run stamp, ``gen_s``, per-operation latencies with sample counts, the
error rate and the first failures.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench"

END_TO_END = [("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")]

# spans around program calls; the benchmark's own spans (checks, ledger,
# ingest, append) are left in the span file only
SELF_SPANS = ["setup.session", "build_index", "compact_index", "knn_query", "bbox_scan",
              "roi_query", "zonal.cogroup", "zonal.broadcast", "parquet_read",
              "decode_images", "derive_footprints", "cell_encoder", "partition_write"]

# (name, unit, how the run's samples reduce to one value), grouped by the
# end-to-end metric each group should move.  A layer a workload does not
# run reports 0: the prediction there is no change.
PER_LAYER = [
    # kernels.jpeg/png/pnm/raw through kernels.image, stages.encode,
    # state.fsio: ingest op_p50_ms, and setup_s of serve/join, which
    # build their index there; serve's appends a little
    ("jpeg.decode_img_s", "img/s", "median"),
    ("png.decode_img_s", "img/s", "median"),
    ("ppm.decode_img_s", "img/s", "median"),
    ("raw.decode_img_s", "img/s", "median"),
    ("decode_images.rows_s", "rows/s", "median"),
    ("decode_images.quarantined", "count", "sum"),
    ("derive_footprints.rows_s", "rows/s", "median"),
    ("cell_encoder.rows_s", "rows/s", "median"),
    ("parquet_read.mb_s", "MB/s", "median"),
    ("partition_write.mb_s", "MB/s", "median"),
    ("build.files_written", "count", "median"),
    # state.manifest lookups: serve op_p50_ms
    ("manifest.lookup_ms", "ms", "median"),
    # pipelines.build: ingest op_p50_ms, serve's appends
    ("build_index.s", "s", "median"),
    ("build_index.fixed_s", "s", "median"),
    ("compact_index.s", "s", "median"),
    ("compact_index.bytes_written", "bytes", "median"),
    ("compact_index.write_amp", "ratio", "median"),
    # pipelines.query reads and the Ray Data launch: serve op_p50_ms;
    # no change on ingest and join
    ("knn.files_opened", "count", "mean"),
    ("knn.rings", "count", "mean"),
    ("bbox.files_scanned", "count", "mean"),
    ("roi.files_scanned", "count", "mean"),
    ("query.useful_file_ratio", "ratio", "median"),
    ("ray_data.launch_ms", "ms", "median"),
    # pipelines.query zonal and relational: join op_p50_ms (co-group:
    # shuffle, salting, the group primitive; the broadcast route is
    # timed too, reported here and in the info line as zonal_bcast_img_s);
    # no change on ingest and serve
    ("zonal.bcast_s", "s", "median"),
    ("zonal.shuffle_s", "s", "median"),
    ("zonal.pairs", "count", "median"),
    ("zonal.hot_cells", "count", "median"),
    ("zonal.max_group_rows", "count", "median"),
    ("relational.grouped_apply_bucketed.rows_s", "rows/s", "median"),
    ("trace.overhead_pct", "%", "median"),
] + [(f"self_s.{s}", "s", "sum") for s in SELF_SPANS]


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _stamp(seed: int) -> dict:
    import pyarrow
    import ray

    from hand_index_ray.sources import synth

    with open("/proc/meminfo") as f:
        mem_kb = int(next(line for line in f if line.startswith("MemTotal:")).split()[1])
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "hand_index_ray")
    for dirpath, dirnames, files in sorted(os.walk(pkg)):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    digest.update(name.encode() + f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = out.stdout.strip() or None
    from workloads import nproc

    return {"nproc": nproc(), "cpus_affinity": len(os.sched_getaffinity(0)),
            "ram_gb": round(mem_kb / 2**20, 1),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "synth_version": synth.SYNTH_VERSION, "seed": seed, "git_commit": commit,
            "source_sha256": digest.hexdigest()[:16]}


def _reduce(samples: list[float], how: str) -> float:
    from spans import median

    if not samples:
        return 0.0  # the workload does not exercise this layer
    if how == "sum":
        return float(sum(samples))
    if how == "mean":
        return float(sum(samples) / len(samples))
    return float(median(samples))


def _report(bench, setup_s: float) -> dict:
    """This workload's per-operation numbers by name, with units and counts."""
    from spans import median, summary

    rows = len(bench.fp.ids)
    out = {"setup_s": {"value": setup_s, "unit": "s", "n": len(bench.session_s)},
           "error_rate": {"value": bench.failed / max(bench.attempted, 1), "unit": "ratio",
                          "n": bench.attempted}}
    ops = {k: dict(summary(v, 1e3), samples=[round(x * 1e3, 1) for x in v[:50]])
           for k, v in bench.by_op.items()}
    if bench.workload == "ingest":
        out["ingest_img_s"] = {"value": rows / median(bench.main),
                               "unit": "images/s", "n": len(bench.main)}
        out["compact_p50_ms"] = {"value": median(bench.side) * 1e3, "unit": "ms",
                                 "n": len(bench.side)}
    if bench.workload == "join":
        out["zonal_shuffle_img_s"] = {"value": rows / median(bench.main),
                                      "unit": "footprints/s", "n": len(bench.main)}
        out["zonal_bcast_img_s"] = {"value": rows / median(bench.side),
                                    "unit": "footprints/s", "n": len(bench.side)}
    if bench.workload == "serve":
        for kind in ("knn", "bbox", "roi", "append"):
            for key, val in ops.get(kind, {}).items():
                if key.startswith("p"):
                    out[f"{kind}_{key}_ms"] = {"value": val, "unit": "ms", "n": ops[kind]["n"]}
    return {"metrics": out, "ops_ms": ops}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["ingest", "serve", "join"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--inject", choices=["knn_drop"], default=None,
                    help="plant a wrong answer (drop a kNN row) to prove the checks work")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "hand_index_ray", "__init__.py")):
        _fail(f"no hand_index_ray package under {ROOT}; run from a full checkout")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    # a termination request unwinds through the clean-up below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    # Ray workers import the engine from the checkout; usage reporting off
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    import workloads as wl
    from spans import RssSampler, Tracer, median

    pid = os.getpid()
    work = os.path.join(ROOT, WORK, f"run-{pid}")
    # Ray's socket paths must stay under 108 bytes whatever the checkout
    # path, so its session dir is named through this process's cwd link
    ray_rel = os.path.join(WORK, f"ray-{pid}")
    os.makedirs(ray_rel, exist_ok=True)
    tracer = Tracer(enabled=False)
    # numpy seeds must be non-negative; any integer maps to one input set
    bench = wl.Bench(args.workload, args.seed % 2**31, args.seconds, args.size, work, tracer,
                     inject=args.inject)
    result = None
    try:
        with RssSampler() as rss:
            bench.make_inputs(os.path.join(ROOT, WORK, "cache"), passes=1 + args.trace)
            tracer.enabled = bool(args.trace)
            setup_s = bench.setup(f"/proc/{pid}/cwd/{ray_rel}")
            tracer.enabled = False
            bench.measure()
            main_p50 = median(bench.main)
            metrics = {"setup_s": setup_s, "op_p50_ms": main_p50 * 1e3}
            report = _report(bench, setup_s)
            if args.trace:
                bench.reset_samples()
                tracer.enabled = True
                bench.measure()
                bench._sample("trace.overhead_pct",
                              100.0 * (median(bench.main) - main_p50) / main_p50)
                bench.ledger()
                tracer.enabled = False
            rss.sample()
        metrics["peak_rss_mb"] = rss.peak_mb
        report["metrics"]["peak_rss_mb"] = {"value": rss.peak_mb, "unit": "MB"}
        if args.trace:
            layer = bench.layer
            st = tracer.self_times()
            build_layers = sum(st.get(s, 0.0) for s in (
                "parquet_read", "decode_images", "derive_footprints", "cell_encoder",
                "partition_write"))
            layer["build_index.fixed_s"] = [x - build_layers for x in layer.get("build_index.s", [])]
            opened = sum(layer.get("query.files_opened", []))
            if opened:
                layer["query.useful_file_ratio"] = [sum(layer["query.files_useful"]) / opened]
            for s in SELF_SPANS:
                layer[f"self_s.{s}"] = [st.get(s, 0.0)]
            values = {name: (_reduce(layer.get(name, []), how), unit)
                      for name, unit, how in PER_LAYER}
            trace_path = os.path.join(WORK, "out", f"spans-{args.workload}-{args.seed}-{pid}.json")
            tracer.write(trace_path)
            report["trace_file"] = trace_path
        else:
            values = {name: (metrics[name], unit) for name, unit in END_TO_END}
        report.update({"stamp": _stamp(args.seed), "workload": args.workload,
                       "size": args.size, "seconds": args.seconds, "trace": args.trace,
                       "gen_s": bench.gen_s, "pool_gen_s": bench.pool_s,
                       "session_s": bench.session_s, "index_s": bench.index_s,
                       "failures": bench.failures})
        result = {"correct": bench.failed == 0, "attempted": bench.attempted,
                  "failed": bench.failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    except Exception:
        traceback.print_exc()
    finally:
        wl.stop_ray()
        left = wl.wait_children()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_rel, ignore_errors=True)
        if left:
            print(f"perfbench: killed {len(left)} leftover processes", file=sys.stderr)
    if result is None:
        return 1
    print(json.dumps({"perfbench": report}, default=float), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
