"""The three workloads, their set-up and the traced layer ledger.

One ``Bench`` per process.  ``setup`` starts the Ray session
(``num_cpus = nproc``) several times with a warm-up each, then builds
the index ``serve`` and ``join`` run against; ``measure`` runs the
workload's timed loop for the given seconds, checking every answer;
``ledger`` times direct calls into each layer over the same fragments.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from hand_index_ray.sources import synth

import checks
import fixtures as fx
from spans import Tracer, median

pc = time.perf_counter

SIZES = {
    # rows/fragments of the base table (join's own row count), rows per
    # appended fragment, query rounds between appends, polygons per
    # catalog.  join runs 1000 rows against 5000 polygons, not 2000
    # against 10000, to keep a join run under a minute on one core
    "full": {"rows": 2000, "join_rows": 1000, "fragments": 16, "append_rows": 64,
             "rounds_per_append": 7, "catalog": 5000, "hot_frac": 0.4, "warm_rows": 24,
             "ledger_codec_rows": 96},
    "tiny": {"rows": 160, "join_rows": 160, "fragments": 4, "append_rows": 16,
             "rounds_per_append": 3, "catalog": 400, "hot_frac": 0.4, "warm_rows": 12,
             "ledger_codec_rows": 8},
}
SESSIONS = 2          # set-ups per run; setup_s takes their median
KNN_K = 10
BBOX_HALF_DEG = 1.0   # ~2 degree boxes
ROI_RADIUS_DEG = 1.5  # 8-gons
ROI_THRESHOLD = 10.0
LAUNCH_PROBES = 10
LOOKUP_PROBES = 20
# timed repetitions per run, at least: one alone leaves the run's median
# at the mercy of a single slow operation
MIN_REPS = 2
QUERY_PROBES = 5      # ledger query rounds on workloads that issue none


def _ring(lon: float, lat: float, r: float, m: int = 8) -> np.ndarray:
    ang = 2 * np.pi * np.arange(m) / m
    return np.stack([lon + r * np.cos(ang), lat + r * np.sin(ang)], axis=1)


def nproc() -> int:
    """CPUs as ``nproc`` counts them: OMP_NUM_THREADS when set, else
    the CPUs this process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


def _ray_ready(temp_dir: str) -> None:
    import ray
    import ray.data

    ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, _temp_dir=temp_dir,
             object_store_memory=512 * 1024 * 1024)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, size: str,
                 work_dir: str, tracer: Tracer, inject: str | None = None):
        from hand_index_ray.config import EngineConfig

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.sz = SIZES[size]
        self.work = work_dir
        self.tr = tracer
        self.inject = inject
        self.cfg = EngineConfig()
        self.cfg_cogroup = EngineConfig(zonal_broadcast_bytes=0)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.main: list[float] = []   # primary op seconds
        self.side: list[float] = []   # secondary op seconds
        self.by_op: dict[str, list[float]] = {}
        self.layer: dict[str, list[float]] = {}  # traced per-layer samples
        self.gen_s = 0.0
        self.session_s: list[float] = []
        self.index_s = 0.0
        self._file_ids: dict[str, set] = {}
        self.reps = 0

    # ------------------------------------------------------------ fixtures

    def make_inputs(self, cache_dir: str, passes: int = 1) -> None:
        """Seeded inputs, untimed: the base images table, the serve
        append stream, the join catalogs with their expected pairs
        (enough for ``passes`` timed loops)."""
        t0 = pc()
        self.pool, pool_s = fx.payload_pool(cache_dir)
        rng = np.random.default_rng([self.seed, 0])
        if self.workload == "join":
            ids = fx.image_ids(rng, self.sz["join_rows"], hot_frac=self.sz["hot_frac"])
        else:
            ids = fx.image_ids(rng, self.sz["rows"])
        self.images = os.path.join(self.work, "images")
        self.table = fx.images_table(ids, self.pool, rng)
        fx.write_fragments(self.images, self.table, self.sz["fragments"])
        self.fp = checks.Footprints(ids)
        self.next_fragment = self.sz["fragments"]
        self.append_rng = np.random.default_rng([self.seed, 1])
        self.query_rng = np.random.default_rng([self.seed, 2])
        warm_rng = np.random.default_rng([self.seed, 3])
        warm_ids = fx.image_ids(warm_rng, self.sz["warm_rows"], hot_frac=0.25)
        self.warm_images = os.path.join(self.work, "warm-images")
        fx.write_fragments(self.warm_images, fx.images_table(warm_ids, self.pool, warm_rng), 2)
        self.catalogs: list[tuple[str, set]] = []
        if self.workload == "join":
            # distinct seeded catalogs: the broadcast route caches a
            # catalog's prepared index per file, and a zonal join runs
            # once per catalog in use, so every timed join gets a cold one
            n_cat = passes * max(MIN_REPS, int(np.ceil(self.seconds / 8.0)))
            for j in range(n_cat):
                path = os.path.join(self.work, f"catalog-{j}.parquet")
                fx.write_catalog(path, self.sz["catalog"], seed=self.seed * 1000 + j)
                self.catalogs.append((path, checks.zonal_expected(self.fp, path)))
            # one warm-up catalog per session, so each session starts cold
            self.warm_catalogs = [
                fx.write_catalog(os.path.join(self.work, f"catalog-warm-{k}.parquet"),
                                 max(100, self.sz["catalog"] // 50),
                                 seed=self.seed * 1000 + n_cat + k)
                for k in range(SESSIONS)]
        self.gen_s = pc() - t0
        self.pool_s = pool_s

    # ------------------------------------------------------------ set-up

    def setup(self, ray_temp: str) -> float:
        """SESSIONS cold Ray session starts, each warmed up by one pass
        of the workload's own calls over a small table; then the index
        for serve/join.  Returns setup_s: the median session plus the
        index build."""
        import ray

        for k in range(SESSIONS):
            if k:
                ray.shutdown()
            with self.tr.span("setup.session"):
                t0 = pc()
                _ray_ready(ray_temp)
                self._warm_up(k)
                self.session_s.append(pc() - t0)
        if self.workload in ("serve", "join"):
            self.index = os.path.join(self.work, "index")
            with self.tr.span("setup.index"):
                self.index_s = self._build(self.index, resume=False) + self._compact(self.index)
            err = checks.check_index(self.index, self.fp, self.cfg)
            if err:
                raise RuntimeError(f"set-up index is wrong: {err}")
        return median(self.session_s) + self.index_s

    def _warm_up(self, k: int) -> None:
        from hand_index_ray.pipelines.build import build_index, compact_index
        from hand_index_ray.pipelines.query import bbox_scan, knn_query, roi_query_footprints, zonal_join

        index_dir = os.path.join(self.work, f"warm-index-{k}")
        build_index(self.warm_images, index_dir, self.cfg, resume=False)
        compact_index(index_dir, self.cfg)
        if self.workload == "serve":
            knn_query(index_dir, -100.0, 38.0, KNN_K, self.cfg)
            ds = bbox_scan(index_dir, -126.0, 23.0, -66.0, 50.0)
            if ds is not None:
                ds.to_pandas()
            ds = roi_query_footprints(index_dir, _ring(-100.0, 38.0, 20.0), ROI_THRESHOLD)
            if ds is not None:
                ds.to_pandas()
        if self.workload == "join":
            for cfg in (self.cfg_cogroup, self.cfg):
                zonal_join(index_dir, self.warm_catalogs[k], cfg).to_pandas()
        shutil.rmtree(index_dir, ignore_errors=True)

    # ------------------------------------------------------------ layer calls

    def _build(self, index_dir: str, resume: bool) -> float:
        """Seconds of one build_index call."""
        from hand_index_ray.pipelines.build import build_index

        with self.tr.span("build_index" if not resume else "build_index.resume"):
            t0 = pc()
            build_index(self.images, index_dir, self.cfg, resume=resume)
            dt = pc() - t0
        if not resume:
            self._sample("build_index.s", dt)
        return dt

    def _compact(self, index_dir: str) -> float:
        """Seconds of one compact_index call; traced, also the bytes it
        wrote and their ratio to the bytes of the fragments it took in."""
        from hand_index_ray.pipelines.build import compact_index
        from hand_index_ray.state.manifest import Manifest

        if self.tr.enabled:
            man = Manifest(index_dir)
            _, covered, _ = man.compaction_full()
            new_bytes = sum(p.bytes for r in man.records() if r.fragment_id not in covered
                            for p in r.partitions)
        with self.tr.span("compact_index"):
            t0 = pc()
            compact_index(index_dir, self.cfg)
            dt = pc() - t0
        if self.tr.enabled:
            written = sum(p.bytes for p in Manifest(index_dir).compaction()[0])
            self._sample("compact_index.s", dt)
            self._sample("compact_index.bytes_written", written)
            self._sample("compact_index.write_amp", written / max(new_bytes, 1))
        return dt

    def _sample(self, name: str, value: float) -> None:
        if self.tr.enabled:
            self.layer.setdefault(name, []).append(float(value))

    def _op(self, kind: str, seconds: float) -> None:
        self.by_op.setdefault(kind, []).append(seconds)

    def _verdict(self, err: str | None) -> None:
        self.attempted += 1
        if err:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(err)

    # ------------------------------------------------------------ timed loops

    def reset_samples(self) -> None:
        """Forget timings (not verdicts) before another timed pass."""
        self.main, self.side, self.by_op = [], [], {}

    def measure(self) -> None:
        """The timed loop: runs until ``seconds`` have passed, finishing
        the operation in progress, and at least MIN_REPS times (serve:
        at least one append)."""
        getattr(self, f"_measure_{self.workload}")(pc() + self.seconds)

    def _measure_ingest(self, deadline: float) -> None:
        while True:
            # a fresh directory every time: build_index(resume=False) over
            # an old index would keep its compaction record
            self.reps += 1
            d = os.path.join(self.work, f"ingest-{self.reps}")
            try:
                with self.tr.span("ingest"):
                    build_s = self._build(d, resume=False)
                    compact_s = self._compact(d)
                self.main.append(build_s + compact_s)
                self.side.append(compact_s)
                self._op("ingest", build_s + compact_s)
                with self.tr.span("checks"):
                    err = checks.check_index(d, self.fp, self.cfg)
            except Exception as e:  # a failed ingest counts, the loop goes on
                err = f"ingest raised {type(e).__name__}: {e}"
            self._verdict(err)
            if getattr(self, "last_index", None):
                shutil.rmtree(self.last_index, ignore_errors=True)
            self.last_index = d
            if pc() >= deadline and len(self.main) >= MIN_REPS:
                break

    def _checked_query(self, op: str, span: str, call, check, count=None) -> float:
        """Run one query, check its answer and, traced, tally its read
        counters; returns its seconds (0.0 when it raised)."""
        dt = 0.0
        try:
            with self.tr.span(span):
                t0 = pc()
                got = call()
                dt = pc() - t0
            self._op(op, dt)
            if self.inject == "knn_drop" and op == "knn":
                got = got.iloc[:-1]
            with self.tr.span("checks"):
                err = check(got)
            if count is not None and self.tr.enabled:
                count(got)
        except Exception as e:
            err = f"{op} raised {type(e).__name__}: {e}"
        self._verdict(err)
        return dt

    def _query_round(self) -> None:
        """A seeded kNN, bbox scan and ROI query; the round's latency is
        the sum of the three."""
        from hand_index_ray.pipelines.query import bbox_scan, knn_query, roi_query_footprints

        def point() -> tuple[float, float]:
            return float(self.query_rng.uniform(-122.0, -69.0)), float(self.query_rng.uniform(26.0, 47.0))

        def rows(ds):
            return ds.to_pandas() if ds is not None else None

        fp = self.fp
        lon, lat = point()
        stats: dict = {}

        def knn_counters(got) -> None:
            self._sample("knn.files_opened", len(stats["files_opened"]))
            self._sample("knn.rings", stats["rings"])
            self._useful(stats["files_opened"], got)

        round_s = self._checked_query(
            "knn", "knn_query",
            lambda: knn_query(self.index, lon, lat, KNN_K, self.cfg,
                              stats=stats if self.tr.enabled else None),
            lambda got: checks.check_knn(got, fp, lon, lat, KNN_K), knn_counters)
        lon, lat = point()
        box = (lon - BBOX_HALF_DEG, lat - BBOX_HALF_DEG, lon + BBOX_HALF_DEG, lat + BBOX_HALF_DEG)
        round_s += self._checked_query(
            "bbox", "bbox_scan", lambda: rows(bbox_scan(self.index, *box)),
            lambda got: checks.check_set("bbox", got, checks.bbox_expected(fp, box)),
            lambda got: self._scanned("bbox.files_scanned", box, got))
        ring = _ring(*point(), ROI_RADIUS_DEG)
        ring_box = (*ring.min(axis=0).tolist(), *ring.max(axis=0).tolist())
        round_s += self._checked_query(
            "roi", "roi_query",
            lambda: rows(roi_query_footprints(self.index, ring, ROI_THRESHOLD, self.cfg)),
            lambda got: checks.check_set("roi", got, checks.roi_expected(fp, ring, ROI_THRESHOLD)),
            lambda got: self._scanned("roi.files_scanned", ring_box, got))
        self.main.append(round_s)

    def _scanned(self, name: str, box, got) -> None:
        from hand_index_ray.state.manifest import Manifest

        files = Manifest(self.index).files_for_bbox(self.index, *box)
        self._sample(name, len(files))
        self._useful(files, got)

    def _useful(self, files: list[str], got) -> None:
        """Tally files that gave at least one result row (traced runs)."""
        ids = set() if got is None or len(got) == 0 else set(got["image_id"].tolist())
        useful = 0
        for f in files:
            if f not in self._file_ids:
                self._file_ids[f] = set(pq.read_table(f, columns=["image_id"])
                                        .column("image_id").to_pylist())
            useful += bool(self._file_ids[f] & ids)
        self._sample("query.files_opened", len(files))
        self._sample("query.files_useful", useful)

    def _append(self) -> None:
        """Land one fragment of new ids, then make it queryable."""
        from hand_index_ray.pipelines.query import knn_query

        n = self.sz["append_rows"]
        lo = fx.APPEND_LO + self.next_fragment * fx.APPEND_SPAN  # disjoint per fragment
        ids = fx.image_ids(self.append_rng, n, lo=lo, hi=lo + fx.APPEND_SPAN)
        fx.write_fragments(self.images, fx.images_table(ids, self.pool, self.append_rng),
                           1, first_fragment=self.next_fragment)
        self.next_fragment += 1
        self.fp = self.fp.extend(ids)
        try:
            with self.tr.span("append"):
                append_s = self._build(self.index, resume=True) + self._compact(self.index)
            self.side.append(append_s)
            self._op("append", append_s)
            # visibility: a kNN at a new row's centroid must return it
            j = int(self.append_rng.integers(0, n))
            name = f"img-{ids[j]:09d}"
            lon, lat = synth.footprint_of(ids[j:j + 1])[4:6]
            got = knn_query(self.index, float(lon[0]), float(lat[0]), KNN_K, self.cfg)
            with self.tr.span("checks"):
                err = checks.check_knn(got, self.fp, float(lon[0]), float(lat[0]), KNN_K)
            if err is None and name not in set(got["image_id"]):
                err = f"append: {name} not visible"
        except Exception as e:
            err = f"append raised {type(e).__name__}: {e}"
        self._verdict(err)

    def _measure_serve(self, deadline: float) -> None:
        rounds = 0
        while True:
            self._query_round()
            rounds += 1
            if rounds % self.sz["rounds_per_append"] == 0:
                self._append()
            if pc() >= deadline and self.side:
                break

    def _measure_join(self, deadline: float) -> None:
        from hand_index_ray.pipelines.query import zonal_join

        while self.catalogs:
            path, want = self.catalogs.pop(0)
            try:
                sk: dict | None = {} if self.tr.enabled else None
                with self.tr.span("zonal.cogroup"):
                    t0 = pc()
                    got_c = zonal_join(self.index, path, self.cfg_cogroup, skew_stats=sk).to_pandas()
                    cogroup_s = pc() - t0
                with self.tr.span("zonal.broadcast"):
                    t0 = pc()
                    got_b = zonal_join(self.index, path, self.cfg).to_pandas()
                    broadcast_s = pc() - t0
                self.main.append(cogroup_s)
                self.side.append(broadcast_s)
                self._op("cogroup", cogroup_s)
                self._op("broadcast", broadcast_s)
                with self.tr.span("checks"):
                    pairs_c, pairs_b = checks.pair_set(got_c), checks.pair_set(got_b)
                    err = None
                    if len(pairs_c) != len(got_c) or len(pairs_b) != len(got_b):
                        err = "zonal: duplicate pairs"
                    elif pairs_c != pairs_b:
                        err = f"zonal: routes disagree on {len(pairs_c ^ pairs_b)} pairs"
                    elif pairs_c != want:
                        err = f"zonal: {len(pairs_c ^ want)} pairs differ from brute force"
                if sk is not None:
                    self._sample("zonal.pairs", len(pairs_c))
                    self._sample("zonal.hot_cells", sk["n_hot_cells"])
                    self._sample("zonal.max_group_rows", sk["max_group_rows"])
                    self._sample("zonal.shuffle_s", cogroup_s)
                    self._sample("zonal.bcast_s", broadcast_s)
            except Exception as e:
                err = f"zonal raised {type(e).__name__}: {e}"
            self._verdict(err)
            if pc() >= deadline and len(self.main) >= MIN_REPS:
                break

    # ------------------------------------------------------------ ledger

    def ledger(self) -> None:
        """Direct, traced calls into each layer over the base table's
        fragments: read, decode per codec, the encode stages, partition
        write, manifest lookups, checked queries with their read-path
        counters (serve issues its own), a Ray Data launch and (join)
        the bucketed group primitive."""
        with self.tr.span("ledger"):
            self._ledger_build_layers()
            self._ledger_codecs()
            if not hasattr(self, "index"):
                self.index = self.last_index
            index = self.index
            self._ledger_lookups(index)
            if self.workload != "serve":
                for _ in range(QUERY_PROBES):
                    self._query_round()
            self._ledger_launch()
            if self.workload == "join":
                self._ledger_grouped(index)

    def _ledger_build_layers(self) -> None:
        from hand_index_ray.kernels import s2
        from hand_index_ray.pipelines.build import list_fragments
        from hand_index_ray.stages.encode import CellEncoder, decode_images, derive_footprints
        from hand_index_ray.state.fsio import FS

        cfg = self.cfg
        out_dir = os.path.join(self.work, "ledger-write")
        enc = CellEncoder(cfg)
        rows = quarantined = 0
        t = {"read": 0.0, "decode": 0.0, "foot": 0.0, "enc": 0.0, "write": 0.0}
        read_b = write_b = 0
        io = FS()
        for fid, path in enumerate(list_fragments(self.images)[:self.sz["fragments"]]):
            with self.tr.span("parquet_read"):
                t0 = pc()
                tbl = pq.read_table(path, use_threads=False)
                t["read"] += pc() - t0
            read_b += os.path.getsize(path)
            outs = []
            for start in range(0, tbl.num_rows, cfg.decode_batch_size):
                chunk = tbl.slice(start, cfg.decode_batch_size)
                with self.tr.span("decode_images"):
                    t0 = pc()
                    chunk = decode_images(chunk)
                    t["decode"] += pc() - t0
                quarantined += int((~chunk.column("decode_ok").to_numpy(zero_copy_only=False)).sum())
                with self.tr.span("derive_footprints"):
                    t0 = pc()
                    chunk = derive_footprints(chunk, cfg.footprint_formula)
                    t["foot"] += pc() - t0
                with self.tr.span("cell_encoder"):
                    t0 = pc()
                    outs.append(enc(chunk))
                    t["enc"] += pc() - t0
                rows += chunk.num_rows
            out = pa.concat_tables(outs)
            # FragmentBuilder's layout: coarsen the cell key until the
            # fragment writes at most max_files_per_fragment files
            cells = out.column("part_cell").to_numpy().astype(np.uint64)
            level = cfg.part_level
            while level > 0 and len(np.unique(cells)) > cfg.max_files_per_fragment:
                level -= 1
                cells = s2.parent(cells, level)
            with self.tr.span("partition_write"):
                t0 = pc()
                for cell in np.unique(cells).tolist():
                    dest = FS.join(out_dir, f"cell={cell}", f"frag-{fid:06d}.parquet")
                    io.write_parquet_atomic(dest, out.filter(pa.array(cells == np.uint64(cell))))
                    write_b += io.size(dest)
                t["write"] += pc() - t0
        shutil.rmtree(out_dir, ignore_errors=True)
        self._sample("decode_images.rows_s", rows / t["decode"])
        self._sample("decode_images.quarantined", quarantined)
        self._sample("derive_footprints.rows_s", rows / t["foot"])
        self._sample("cell_encoder.rows_s", rows / t["enc"])
        self._sample("parquet_read.mb_s", read_b / 1e6 / t["read"])
        self._sample("partition_write.mb_s", write_b / 1e6 / t["write"])
        self.layer_build_s = sum(t.values())

    def _ledger_codecs(self) -> None:
        from hand_index_ray.kernels import image as imk

        fmts = np.asarray(self.table.column("fmt").to_pylist())
        blobs = self.table.column("bytes")
        ws = self.table.column("w").to_numpy()
        hs = self.table.column("h").to_numpy()
        cap = self.sz["ledger_codec_rows"]
        for fmt in ("jpg", "png", "ppm", "raw"):
            rows = np.flatnonzero(fmts == fmt)[:cap]
            bufs = [blobs[int(i)].as_buffer() for i in rows]
            name = "jpeg" if fmt == "jpg" else fmt
            with self.tr.span(f"decode.{name}"):
                t0 = pc()
                if fmt == "jpg":
                    imk.decode_jpeg_batch(bufs, strict=True)
                else:
                    for b, i in zip(bufs, rows):
                        imk.decode(b, fmt, w=int(ws[i]), h=int(hs[i]))
                dt = pc() - t0
            self._sample(f"{name}.decode_img_s", len(rows) / dt)

    def _ledger_lookups(self, index: str) -> None:
        from hand_index_ray.kernels import s2
        from hand_index_ray.state.manifest import Manifest

        r = np.random.default_rng([self.seed, 4])
        ms = []
        for j in range(LOOKUP_PROBES):
            lon, lat = float(r.uniform(-122.0, -69.0)), float(r.uniform(26.0, 47.0))
            with self.tr.span("manifest.lookup"):
                t0 = pc()
                man = Manifest(index)  # as each query does: parse, then prune
                if j % 2:
                    man.files_for_bbox(index, lon - 1, lat - 1, lon + 1, lat + 1)
                else:
                    cell = s2.lonlat_to_cell(np.array([lon]), np.array([lat]), self.cfg.part_level)
                    man.files_for_cells(index, {int(cell[0])})
                ms.append((pc() - t0) * 1e3)
        self._sample("manifest.lookup_ms", median(ms))
        files = sum(len(rec.partitions) for rec in Manifest(index).records()
                    if rec.fragment_id < self.sz["fragments"])
        self._sample("build.files_written", files)

    def _ledger_launch(self) -> None:
        import ray.data

        ms = []
        for _ in range(LAUNCH_PROBES):
            with self.tr.span("ray_data.launch"):
                t0 = pc()
                ray.data.from_items([{"x": 0}]).map_batches(
                    lambda b: b, batch_format="pyarrow").take_all()
                ms.append((pc() - t0) * 1e3)
        self._sample("ray_data.launch_ms", median(ms))

    def _ledger_grouped(self, index: str) -> None:
        """The shared bucketed group primitive over the footprint-cell
        rows the co-group join explodes to."""
        import ray.data

        from hand_index_ray.pipelines.query import lattice_cover
        from hand_index_ray.relational import grouped_apply_bucketed

        fp = self.fp
        idx, cells = lattice_cover(fp.minx, fp.miny, fp.maxx, fp.maxy, self.cfg.zonal_join_level)
        rows = pa.table({"cell": pa.array(cells, pa.uint64()),
                         "image_id": pa.array(fp.names[idx].tolist(), pa.string())})
        with self.tr.span("grouped_apply_bucketed"):
            t0 = pc()
            out = grouped_apply_bucketed(
                ray.data.from_arrow(rows), ["cell"],
                lambda g: g.iloc[:1].assign(n=len(g)), num_buckets=self.cfg.zonal_buckets)
            n = int(out.to_pandas()["n"].sum())
            dt = pc() - t0
        if n != rows.num_rows:
            self._verdict(f"grouped_apply_bucketed: counted {n} of {rows.num_rows} rows")
        self._sample("relational.grouped_apply_bucketed.rows_s", rows.num_rows / dt)


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


def wait_children(timeout_s: float = 30.0) -> list[int]:
    """Wait until no process started by this one is alive; returns the
    pids still alive after ``timeout_s`` (after killing them)."""
    import signal

    from spans import descendants

    me = os.getpid()
    end = pc() + timeout_s
    while True:
        _reap()
        left = descendants(me)
        if not left or pc() >= end:
            break
        time.sleep(0.2)
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    for _ in range(50):
        _reap()
        if not descendants(me):
            break
        time.sleep(0.1)
    return left


def _reap() -> None:
    """Collect the exit status of every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return

