"""Driver contract: entry() smoke, queries() ↔ oracle_sql() correctness.

Ray is initialised by the driver BEFORE this module is imported; nothing
here (nor in hand_index_ray) calls ray.init()/ray.shutdown().

Oracle-parity float discipline (see hand_index_ray/relational.py):
multi-row float SUMS are computed on integer-scaled values (cents /
basis points) so results are bit-exact regardless of distributed
summation order; per-row float expressions are written with identical
operation order in numpy and SQL (IEEE-deterministic); cosine
similarities are rounded to 6 decimals on both sides.

Query keys map to SURVEY.md §2 operators (comments inline).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from datetime import datetime
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

CACHE_ROOT = "/tmp/hand_index_ray_cache"


def _cache_dir(*parts: str) -> str:
    from hand_index_ray.sources.synth import SYNTH_VERSION

    return os.path.join(CACHE_ROOT, f"g{SYNTH_VERSION}", *parts)


def _t(sf_dir: str, name: str):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, f"{name}.parquet"))


def _tbl(sf_dir: str, name: str) -> pa.Table:
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(sf_dir, f"{name}.parquet"))


# ---------------------------------------------------------------------------
# derived tile footprints from lineitem (pure arithmetic — identical in SQL)

_KMUL1, _KMUL2, _M20 = 2654435761, 976369, 1048576


def _foot_batch(t: pa.Table) -> pa.Table:
    k = (t.column("l_orderkey").to_numpy() * 8 + t.column("l_linenumber").to_numpy()).astype(np.int64)
    lon = -125.0 + ((k * _KMUL1) % _M20) / 1048576.0 * 58.0
    lat = 24.0 + ((k * _KMUL2) % _M20) / 1048576.0 * 25.0
    half = ((t.column("l_partkey").to_numpy() % 64) + 1) / 1024.0
    out = pa.table({
        "k": pa.array(k),
        "lon": pa.array(lon), "lat": pa.array(lat),
        "minx": pa.array(lon - half), "miny": pa.array(lat - half),
        "maxx": pa.array(lon + half), "maxy": pa.array(lat + half),
        "l_returnflag": t.column("l_returnflag"),
        "l_quantity": t.column("l_quantity"),
    })
    return out


_FOOT_SQL = """
    SELECT (l_orderkey * 8 + l_linenumber) AS k,
           -125.0 + (((l_orderkey * 8 + l_linenumber) * 2654435761) % 1048576) / 1048576.0 * 58.0 AS lon,
           24.0 + (((l_orderkey * 8 + l_linenumber) * 976369) % 1048576) / 1048576.0 * 25.0 AS lat,
           ((l_partkey % 64) + 1) / 1024.0 AS half,
           l_returnflag, l_quantity
    FROM lineitem
"""


def _footprints(sf_dir: str):
    return _t(sf_dir, "lineitem").map_batches(_foot_batch, batch_format="pyarrow",
                                              zero_copy_batch=True)


# ---------------------------------------------------------------------------
# the spatial-engine cache (images index built once per sf_dir under /tmp)


def _image_index_tpch(sf_dir: str) -> str:
    """Build (once per sf_dir) the tpch-keyed images table + footprint
    index; return the index dir. Keys/footprints derive from the
    `orders` view by pure arithmetic (sources/synth.py tpch fixtures),
    so every engine-index query has a plain-SQL DuckDB oracle."""
    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.build import build_index, compact_index
    from hand_index_ray.sources import synth

    ks = synth.tpch_keys(sf_dir)
    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    images = _cache_dir(f"tpch-{tag}-n{len(ks)}", "images")
    index = _cache_dir(f"tpch-{tag}-n{len(ks)}", "index")
    synth.write_images_tpch(images, sf_dir, fragments=16)
    cfg = EngineConfig(footprint_formula="tpch")
    build_index(images, index, cfg)
    compact_index(index, cfg)
    return index


def _catchments_tpch(sf_dir: str) -> str:
    from hand_index_ray.sources import synth

    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    path = _cache_dir(f"tpch-{tag}-vector", "catchments.parquet")
    return synth.write_catchments_tpch(path, sf_dir)


# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship: sf0.001-scaled images table → decode → footprint →
    cell encode, fused into one task map (SURVEY.md §7.1 step 2).
    Returns the footprint Dataset."""
    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.build import footprint_dataset
    from hand_index_ray.sources import synth

    sf_dir = "/root/testdata/sf0.001"
    import pyarrow.parquet as pq

    nrows = pq.ParquetFile(os.path.join(sf_dir, "lineitem.parquet")).metadata.num_rows
    n = max(min(nrows // 20, 20000), 400)
    images = _cache_dir(f"entry-n{n}", "images")
    synth.write_images_ray(images, n, fragments=8)
    return footprint_dataset(images, EngineConfig())


# ---------------------------------------------------------------------------
# queries


def queries() -> dict[str, Callable[[str], Any]]:
    from hand_index_ray import relational as rel
    from hand_index_ray.pipelines import ann, text as textops

    def q01_groupby_sum(sf):  # A1/A2: grouped aggregate w/ partial pre-agg
        ds = rel.add_cents(rel.add_cents(_t(sf, "lineitem"), "l_quantity", "qty_cents"),
                           "l_extendedprice", "price_cents")
        return rel.grouped_agg(ds.select_columns(
            ["l_returnflag", "l_linestatus", "qty_cents", "price_cents"]),
            ["l_returnflag", "l_linestatus"], sum_cols=["qty_cents", "price_cents"])

    def q02_filter_project(sf):  # M2/M10/M-map: filter + computed column
        ds = _t(sf, "lineitem")

        def f(t: pa.Table) -> pa.Table:
            m = pc.less(t["l_shipdate"], pa.scalar(datetime(1995, 6, 1)))
            t = t.filter(m)
            price_c = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64())
            disc_bp = pc.cast(pc.round(pc.multiply(t["l_discount"], 10000.0)), pa.int64())
            rev = pc.multiply(price_c, pc.subtract(pa.scalar(10000, pa.int64()), disc_bp))
            return pa.table({"l_orderkey": t["l_orderkey"],
                             "l_linenumber": t["l_linenumber"],
                             "revenue_micros": rev})

        return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)

    def q03_broadcast_join_agg(sf):  # J2 broadcast dim join + aggregate
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice", "total_cents")
        cust = _tbl(sf, "customer").select(["c_custkey", "c_mktsegment"])
        joined = rel.broadcast_join(orders.select_columns(["o_custkey", "total_cents"]),
                                    cust.rename_columns(["o_custkey", "c_mktsegment"]),
                                    keys="o_custkey")
        return rel.grouped_agg(joined.select_columns(["c_mktsegment", "total_cents"]),
                               ["c_mktsegment"], sum_cols=["total_cents"])

    def q04_three_way_left_join(sf):  # J2 exact shape: 1:N left joins
        cust = _t(sf, "customer").select_columns(["c_custkey", "c_nationkey"])
        orders = _tbl(sf, "orders").select(["o_orderkey", "o_custkey"])
        nation = _tbl(sf, "nation").select(["n_nationkey", "n_name"])
        j1 = rel.broadcast_join(cust, orders.rename_columns(["o_orderkey", "c_custkey"]),
                                keys="c_custkey", join_type="left")
        j2 = rel.broadcast_join(j1, nation.rename_columns(["c_nationkey", "n_name"]),
                                keys="c_nationkey", join_type="left")
        return j2.select_columns(["c_custkey", "o_orderkey", "n_name"])

    def q05_semi_join(sf):  # J4: broadcast id-set semi join
        orders = _tbl(sf, "orders")
        big = orders.filter(pc.greater(orders["o_totalprice"], 150000.0))
        keys = pc.unique(big["o_orderkey"])
        ds = rel.add_cents(_t(sf, "lineitem"), "l_quantity", "qty_cents")
        kept = rel.semi_join(ds.select_columns(["l_orderkey", "l_returnflag", "qty_cents"]),
                             "l_orderkey", keys)
        return rel.grouped_agg(kept.select_columns(["l_returnflag", "qty_cents"]),
                               ["l_returnflag"], sum_cols=["qty_cents"])

    def q06_distinct(sf):  # A4b DISTINCT
        return rel.distinct(_t(sf, "lineitem"), ["l_returnflag", "l_linestatus"])

    def q07_dedup_first(sf):  # A4 dedup keep-first per key
        ds = _t(sf, "lineitem").select_columns(["l_orderkey", "l_linenumber"])
        first = rel.dedup_first(ds, "l_orderkey", "l_linenumber")
        return first.select_columns(["l_orderkey", "l_linenumber"])

    def q08_topk(sf):  # O1/O3 top-k with deterministic tiebreak
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice", "total_cents")
        return rel.topk(orders.select_columns(["o_orderkey", "total_cents"]),
                        "total_cents", 20, descending=True, tiebreak="o_orderkey")

    def q09_window_tumbling(sf):  # streaming-shaped tumbling window
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")
        return rel.tumbling_window(ev.select_columns(["ts", "event_type", "value_cents"]),
                                   "ts", ["event_type"], 3600, sum_cents_col="value_cents")

    def q10_union_counts(sf):  # set op: union-all then aggregate
        ev = _t(sf, "events").select_columns(["event_type"])
        a = ev.filter(lambda r: r["event_type"] == "error")
        b = ev.filter(lambda r: r["event_type"] == "purchase")
        return rel.grouped_agg(a.union(b), ["event_type"])

    def q11_regex_extract_join(sf):  # M8/J3: regex key extraction + join
        docs = _t(sf, "documents")

        def f(t: pa.Table) -> pa.Table:
            digits = pc.replace_substring_regex(t["source"], "[^0-9]", "")
            srcnum = pc.cast(digits, pa.int64())
            nkey = pc.cast(pc.subtract(srcnum, pc.multiply(pc.divide(srcnum, 25), 25)),
                           pa.int32())
            return pa.table({"doc_id": t["doc_id"], "n_nationkey": nkey})

        keyed = docs.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
        nation = _tbl(sf, "nation").select(["n_nationkey", "n_name"])
        joined = rel.broadcast_join(keyed, nation, keys="n_nationkey")
        return rel.grouped_agg(joined.select_columns(["n_name"]), ["n_name"])

    def q12_count_audit(sf):  # A3 global audit counts
        names = ["region", "nation", "customer", "supplier", "part", "orders", "lineitem"]
        rows = [{"table_name": n, "n": _t(sf, n).count()} for n in names]
        return pa.Table.from_pylist(rows)

    def q13_bbox_scan(sf):  # J5 bbox scan on derived footprints
        ds = _footprints(sf)

        def f(t: pa.Table) -> pa.Table:
            minx, miny, maxx, maxy = (t.column(c).to_numpy() for c in ("minx", "miny", "maxx", "maxy"))
            m = (minx <= -95.0) & (-105.0 <= maxx) & (miny <= 40.0) & (30.0 <= maxy)
            return pa.table({"k": t.column("k").filter(pa.array(m)),
                             "minx": t.column("minx").filter(pa.array(m))})

        return ds.map_batches(f, batch_format="pyarrow")

    def q14_pip_convex(sf):  # J1 point-in-polygon (convex half-planes)
        ds = _footprints(sf)
        # convex quad (CCW): (-110,30) (-90,30) (-90,45) (-110,45) — with a
        # slanted edge to exercise the cross-product test
        quad = [(-110.0, 30.0), (-92.0, 32.0), (-90.0, 45.0), (-110.0, 43.0)]

        def f(t: pa.Table) -> pa.Table:
            x = t.column("lon").to_numpy()
            y = t.column("lat").to_numpy()
            inside = np.ones(len(x), dtype=bool)
            for i in range(4):
                x1, y1 = quad[i]
                x2, y2 = quad[(i + 1) % 4]
                inside &= ((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)) >= 0.0
            return pa.table({"k": t.column("k").filter(pa.array(inside))})

        return ds.map_batches(f, batch_format="pyarrow")

    def q15_overlap_threshold(sf):  # A5 overlap filter w/ NA rule (SQL oracle!)
        ds = _footprints(sf)
        qx0, qy0, qx1, qy1 = -100.0, 33.0, -96.0, 37.0

        def f(t: pa.Table) -> pa.Table:
            minx, miny, maxx, maxy = (t.column(c).to_numpy() for c in ("minx", "miny", "maxx", "maxy"))
            area = (maxx - minx) * (maxy - miny)
            inter = (np.maximum(0.0, np.minimum(maxx, qx1) - np.maximum(minx, qx0))
                     * np.maximum(0.0, np.minimum(maxy, qy1) - np.maximum(miny, qy0)))
            pct = np.where(area == 0.0, 0.0, inter / np.where(area == 0.0, 1.0, area) * 100.0)
            contains = (minx <= qx0) & (miny <= qy0) & (maxx >= qx1) & (maxy >= qy1)
            within = (minx >= qx0) & (miny >= qy0) & (maxx <= qx1) & (maxy <= qy1)
            keep = contains | within | (pct >= 10.0)
            return pa.table({"k": t.column("k").filter(pa.array(keep)),
                             "overlap_pct": pa.array(pct[keep])})

        return ds.map_batches(f, batch_format="pyarrow")

    def q16_knn(sf):  # J6/O3 planar kNN top-k
        ds = _footprints(sf)
        qx, qy = -98.0, 36.0

        def f(t: pa.Table) -> pa.Table:
            x = t.column("lon").to_numpy()
            y = t.column("lat").to_numpy()
            d2 = (x - qx) * (x - qx) + (y - qy) * (y - qy)
            return pa.table({"k": t.column("k"), "d2": pa.array(d2)})

        scored = ds.map_batches(f, batch_format="pyarrow")
        return rel.topk(scored, "d2", 10, descending=False, tiebreak="k")

    def q17_grid_zonal_agg(sf):  # J7-style zonal aggregate on grid cells
        ds = _footprints(sf)

        def f(t: pa.Table) -> pa.Table:
            cx = np.floor(t.column("lon").to_numpy()).astype(np.int64)
            cy = np.floor(t.column("lat").to_numpy()).astype(np.int64)
            qc = np.round(t.column("l_quantity").to_numpy() * 100.0).astype(np.int64)
            return pa.table({"cell_x": pa.array(cx), "cell_y": pa.array(cy),
                             "qty_cents": pa.array(qc)})

        return rel.grouped_agg(ds.map_batches(f, batch_format="pyarrow"),
                               ["cell_x", "cell_y"], sum_cols=["qty_cents"])

    def q18_token_count(sf):  # text: token counting
        return textops.token_count(_t(sf, "documents")).select_columns(["doc_id", "n_tokens"])

    def q19_quality(sf):  # text: quality scoring features
        return textops.quality_score(_t(sf, "documents")).select_columns(
            ["doc_id", "n_chars_q", "n_tokens", "n_punct", "n_stop"])

    def q20_fingerprint_dedup(sf):  # text: md5 fingerprint + exact dedup
        return textops.exact_dedup(_t(sf, "documents"))

    def q21_langid(sf):  # text: language-ID (stopword-profile argmax, SQL oracle)
        ds = _t(sf, "documents").map_batches(textops.LangId(),
                                             batch_format="pyarrow")
        return ds.select_columns(["doc_id", "lang_pred"])

    def q22_ann_topk(sf):  # ANN: brute-force cosine top-k
        emb = _tbl(sf, "embeddings")
        q = np.asarray(emb.column("embedding")[0].as_py(), dtype=np.float64)
        return ann.cosine_topk(_t(sf, "embeddings"), q, 10)

    def q23_embedding_dups(sf):  # ANN: exact near-dup pairs (SQL oracle)
        return ann.dup_pairs_exact(_t(sf, "embeddings"), threshold=0.2, max_ids=300)

    def q24_minhash_pairs(sf):  # dedup: MinHash+LSH, exact-Jaccard verified (SQL oracle)
        return textops.minhash_lsh_pairs(_t(sf, "documents"), jaccard_threshold=0.5)

    def q25_simhash(sf):  # dedup: SimHash signatures (md5-lower word hash, SQL oracle)
        return textops.simhash(_t(sf, "documents")).select_columns(
            ["doc_id", "simhash_bits"])

    def q26_roi_footprints(sf):  # engine: ROI query on the image index (SQL oracle)
        from hand_index_ray.pipelines.query import roi_query_footprints

        idx = _image_index_tpch(sf)
        ring = np.array([[-106.3, 31.4], [-95.7, 31.4], [-95.7, 40.6], [-106.3, 40.6]])
        ds = roi_query_footprints(idx, ring, threshold_pct=10.0)
        if ds is None:
            return pa.table({"image_id": pa.array([], pa.string()),
                             "overlap_pct": pa.array([], pa.float64())})
        return ds.select_columns(["image_id", "overlap_pct"])

    def q27_knn_index(sf):  # engine: kNN cell-ring expansion (SQL oracle)
        from hand_index_ray.pipelines.query import knn_query

        idx = _image_index_tpch(sf)
        out = knn_query(idx, -98.0, 36.0, 25)
        return out[["image_id", "dist_mi"]]

    def q28_zonal_pairs(sf):  # engine: zonal raster↔vector join (SQL oracle)
        from hand_index_ray.config import EngineConfig
        from hand_index_ray.pipelines.query import zonal_join

        idx = _image_index_tpch(sf)
        cats = _catchments_tpch(sf)
        return zonal_join(idx, cats,
                          EngineConfig(footprint_formula="tpch", salt_hot_factor=4.0))

    def q29_hash_join(sf):  # J2 at scale: partitioned hash join, both sides large
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice", "total_cents") \
            .select_columns(["o_orderkey", "total_cents"])
        items = _t(sf, "lineitem").select_columns(["l_orderkey", "l_returnflag"])

        def ren(t: pa.Table) -> pa.Table:
            return t.rename_columns(["o_orderkey", "l_returnflag"])

        items = items.map_batches(ren, batch_format="pyarrow")
        joined = rel.hash_join(items, orders, "o_orderkey", how="inner")
        return rel.grouped_agg(joined.select_columns(["l_returnflag", "total_cents"]),
                               ["l_returnflag"], sum_cols=["total_cents"])

    def q30_sliding_window(sf):  # overlapping windows (stream-shaped)
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")
        return rel.sliding_window(ev.select_columns(["ts", "event_type", "value_cents"]),
                                  "ts", ["event_type"], window_s=7200, slide_s=3600,
                                  sum_cents_col="value_cents")

    def q31_session_window(sf):  # session windows per user
        ev = _t(sf, "events").select_columns(["ts", "user_id", "event_id"])
        return rel.session_window(ev, "ts", "user_id", gap_s=1800,
                                  order_tiebreak="event_id")

    def q32_bpe_tokens(sf):  # text: BPE-ish regex token counting
        return textops.bpe_token_count(_t(sf, "documents"))

    def q33_tile_dups(sf):  # image exact-dup pairs by decoded-pixel digest (SQL oracle)
        from hand_index_ray.pipelines.image_embed import exact_tile_dups

        idx = _image_index_tpch(sf)
        images = os.path.join(os.path.dirname(idx), "images")
        return exact_tile_dups(images)

    def q34_zonal_stats(sf):  # per-zone aggregate over the zonal join (SQL oracle)
        from hand_index_ray.config import EngineConfig
        from hand_index_ray.pipelines.query import zonal_tile_stats

        idx = _image_index_tpch(sf)
        cats = _catchments_tpch(sf)
        return zonal_tile_stats(idx, cats,
                                EngineConfig(footprint_formula="tpch", salt_hot_factor=4.0))

    def q35_wav_decode(sf):  # REAL RIFF/PCM16 decode; sample sums SQL-oracle-exact
        """Audio payloads are synthesized from integer arithmetic over
        `orders` (PCM16 round-trips v/32768 bit-exactly), decoded with
        the from-spec WAV codec (kernels/audio.py), and reduced to
        per-clip sample sums the oracle recomputes in plain SQL."""
        from hand_index_ray.kernels.audio import decode_wav, encode_wav

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen_decode(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 97 == 0]
            out_k, out_n, out_s = [], [], []
            for k in keys:
                n = 200 + int(k) % 300
                i = np.arange(n, dtype=np.int64)
                v = (int(k) * 7919 + i * 104729) % 65536 - 32768
                blob = encode_wav(v / 32768.0, 16000, bits=16)
                x, _rate = decode_wav(blob)
                rec = np.round(x * 32768.0).astype(np.int64)
                out_k.append(int(k))
                out_n.append(n)
                out_s.append(int(rec.sum()))
            return pa.table({"o_orderkey": pa.array(out_k, pa.int64()),
                             "n_samples": pa.array(out_n, pa.int64()),
                             "sum_samples": pa.array(out_s, pa.int64())})

        df = orders.map_batches(gen_decode, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q36_y4m_decode(sf):  # REAL Y4M frame decode; gray pixels SQL-oracle-exact
        """Video payloads are Y4M C444 streams of GRAY frames (R=G=B —
        the BT.601 round-trip is exact for gray), frame-decoded by
        offset arithmetic (kernels/video.py) and reduced to per-frame
        pixel sums the oracle recomputes in plain SQL."""
        from hand_index_ray.kernels.video import decode_y4m_frame, encode_y4m

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 101 == 0]
            ok, of, osum = [], [], []
            i = np.arange(256, dtype=np.int64)
            for k in keys:
                frames = np.empty((3, 16, 16, 3), np.uint8)
                for f in range(3):
                    v = ((int(k) * 31 + f * 977 + i * 13) % 256).astype(np.uint8).reshape(16, 16)
                    frames[f] = np.stack([v, v, v], axis=-1)
                blob = encode_y4m(frames, colorspace="C444")
                for f in range(3):
                    img = decode_y4m_frame(blob, f)
                    ok.append(int(k))
                    of.append(f)
                    osum.append(int(img[:, :, 0].astype(np.int64).sum()))
            return pa.table({"o_orderkey": pa.array(ok, pa.int64()),
                             "frame_idx": pa.array(of, pa.int64()),
                             "pixel_sum": pa.array(osum, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values(["o_orderkey", "frame_idx"]).reset_index(drop=True)

    def q37_ivf_topk(sf):  # partitioned IVF ANN: probe-all == exact (SQL oracle)
        """IVF index partitioned by nearest-centroid list (hive layout,
        directory-level pruning). With nprobe = nlist every partition
        is probed, so the result equals exact brute-force cosine top-k
        and the plain-SQL oracle applies; smaller nprobe is the scale
        path (read amplification tested in tests/test_text_ann.py)."""
        from hand_index_ray.pipelines.ann import ivf_build, ivf_query

        import pyarrow.parquet as _pq

        # cache key includes the row count (content fingerprint like the
        # tpch-{tag}-n{k} caches); build into a tmp dir and rename so a
        # killed build never leaves a half-written index that the next
        # run would append into
        n_emb = _pq.read_metadata(os.path.join(sf, "embeddings.parquet")).num_rows
        tag = os.path.basename(os.path.normpath(sf)) or "sf"
        idx = _cache_dir(f"ivf-{tag}-n{n_emb}", "index")
        if not os.path.exists(os.path.join(idx, "centroids.parquet")):
            import shutil as _sh
            import tempfile as _tf

            parent = os.path.dirname(idx)
            os.makedirs(parent, exist_ok=True)
            # half-built leftovers (no centroids marker) are garbage from
            # a pre-atomic-build version: move them aside, never delete a
            # directory a concurrent process may have just installed
            if os.path.isdir(idx):
                os.replace(idx, _tf.mkdtemp(dir=parent, prefix="index-stale-"))
            tmp = _tf.mkdtemp(dir=parent, prefix="index-tmp-")
            ivf_build(_t(sf, "embeddings"), tmp, nlist=8)
            try:
                os.replace(tmp, idx)
            except OSError:
                # lost the install race to a concurrent process — its
                # index is complete (replace is atomic); discard ours
                _sh.rmtree(tmp, ignore_errors=True)
        emb = _tbl(sf, "embeddings")
        q = np.asarray(emb.column("embedding")[1].as_py(), dtype=np.float64)
        return ivf_query(idx, q, 10, nprobe=8)

    def q38_quantile_sketch(sf):  # mergeable quantile sketch (SQL oracle)
        """Approximate-quantile sketch driven through its EXACT regime:
        the filtered column (o_orderkey % 977 == 0; ≤ ~160 rows at
        sf ≤ 0.1) stays below the sketch's compression threshold, so
        merged partials reproduce the exact order statistics and the
        rank-arithmetic SQL oracle applies. Larger columns exercise the
        compressed path in tests/test_sketch.py (rank-error bound)."""
        import ray.data

        from hand_index_ray import relational as rel

        ds = _t(sf, "orders")

        def cents(t: pa.Table) -> pa.Table:
            k = t.column("o_orderkey").to_numpy()
            keep = k % 977 == 0
            c = pc.cast(pc.round(pc.multiply(t.column("o_totalprice"), 100.0)),
                        pa.int64()).to_numpy()[keep]
            return pa.table({"c": pa.array(c, pa.int64())})

        vals = ds.map_batches(cents, batch_format="pyarrow")
        n_filtered = vals.count()
        if n_filtered > 512:  # sketch compression threshold (QK)
            raise AssertionError(
                f"q38 exact-regime precondition violated: {n_filtered} filtered "
                "rows > 512 — at this scale factor the sketch compresses and "
                "the rank-arithmetic oracle no longer applies; raise the "
                "filter modulus in BOTH the query and the oracle SQL")
        qs_micro = [250000, 500000, 900000]
        got = rel.approx_quantiles(vals, "c", [q / 1e6 for q in qs_micro])
        return pd.DataFrame({"q_micro": np.array(qs_micro, np.int64),
                             "value_cents": got.astype(np.int64)})

    def q39_multi_roi(sf):  # batched multi-ROI query: one scan, many ROIs (SQL oracle)
        """roi_query_footprints_multi amortizes ONE pruned index scan
        across a whole query log (the reference re-reads the catalog
        per GeoJSON). Axis-rect ROIs keep the overlap math GREATEST/
        LEAST-exact, so the oracle is two q26-style CTE selects
        UNION ALLed with roi labels."""
        from hand_index_ray.pipelines.query import roi_query_footprints_multi

        idx = _image_index_tpch(sf)
        rois = {
            "west": np.array([[-106.3, 31.4], [-95.7, 31.4],
                              [-95.7, 40.6], [-106.3, 40.6]]),
            "east": np.array([[-88.0, 33.0], [-78.5, 33.0],
                              [-78.5, 43.0], [-88.0, 43.0]]),
        }
        ds = roi_query_footprints_multi(idx, rois, threshold_pct=10.0)
        if ds is None:
            return pa.table({"roi": pa.array([], pa.string()),
                             "image_id": pa.array([], pa.string()),
                             "overlap_pct": pa.array([], pa.float64())})
        return ds.select_columns(["roi", "image_id", "overlap_pct"])

    def q40_sample_per_group(sf):  # O2: deterministic first-k per group (SQL oracle)
        """Per-group sampling (the reference's .head(display_count) per
        catchment, viz:361-365) made deterministic with an order column
        — SQL parity via ROW_NUMBER() OVER (PARTITION BY ... ORDER BY)."""
        from hand_index_ray.pipelines.query import sample_per_group

        ds = _t(sf, "lineitem").select_columns(["l_orderkey", "l_linenumber"])

        def pick(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(pc.bit_wise_and(t["l_orderkey"], 63), 0))

        sampled = sample_per_group(ds.map_batches(pick, batch_format="pyarrow"),
                                   "l_orderkey", 2, order_col="l_linenumber")
        return sampled.to_pandas().sort_values(
            ["l_orderkey", "l_linenumber"]).reset_index(drop=True)

    def q41_hll_distinct(sf):  # sparse/dense HLL driven through its EXACT regime
        """COUNT(DISTINCT) via the mergeable sparse/dense HLL
        (kernels/sketch.py state_*): below SPARSE_MAX distinct values
        the sketch holds the bijective-hashed value set itself, so the
        shuffle-free distributed count is EXACT and the plain SQL
        oracle applies; past the threshold it degrades to the ~1.6%
        dense estimate (exercised in tests/test_sketch.py). The same
        pattern as q38's exact-regime quantile sketch."""
        from hand_index_ray import relational as rel
        from hand_index_ray.kernels import sketch

        cols = [("c_mktsegment", "customer"),
                ("l_suppkey", "lineitem"),
                ("o_custkey", "orders")]
        out = []
        for col, table in cols:
            est = rel.approx_distinct(_t(sf, table).select_columns([col]), col)
            if est != int(est) or est >= sketch.SPARSE_MAX:
                raise AssertionError(
                    f"q41 exact-regime precondition violated: distinct({col}) "
                    f"estimate {est} — the sketch promoted to dense at this "
                    "scale factor and the COUNT(DISTINCT) oracle no longer "
                    "applies; pick a lower-cardinality column in BOTH sides")
            out.append((col, int(est)))
        return pd.DataFrame({"col_name": [c for c, _ in out],
                             "n_distinct": np.array([n for _, n in out], np.int64)})

    def q42_winnow_fp(sf):  # dedup: winnowing fingerprints, rolling hash (SQL oracle)
        return textops.winnow_fingerprints(_t(sf, "documents"))

    def _events_typed(sf, et):
        ev = _t(sf, "events")

        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["event_type"], et))

        return ev.select_columns(["event_id", "ts", "user_id",
                                  "event_type", "value"]) \
            .map_batches(f, batch_format="pyarrow", zero_copy_batch=True) \
            .drop_columns(["event_type"])

    def q43_asof_join(sf):  # custom op: as-of join, co-group shuffle (SQL oracle)
        """DuckDB ASOF JOIN parity: each click picks the latest view of
        the same user at-or-before its timestamp. Exercises the SCALE
        path (key-hash co-group + per-bucket merge_asof), not the
        broadcast fast path."""
        clicks = _events_typed(sf, "click")
        views = _events_typed(sf, "view").select_columns(["user_id", "ts", "value"])
        # resolve_dups folds the (user_id, ts) dedup into the join's own
        # co-group — no separate aggregation shuffle
        out = rel.asof_join(clicks, views, on="ts", by="user_id", how="inner",
                            resolve_dups="max")

        def finish(df):
            df = df.copy()
            df["ts_us"] = df["ts"].astype("int64")
            df["asof_ts_us"] = df["ts_r"].astype("int64")
            df["v_value"] = df["value_r"]
            return df[["event_id", "user_id", "ts_us", "asof_ts_us", "v_value"]]

        return out.map_batches(finish, batch_format="pandas")

    def q44_range_join(sf):  # custom op: interval join, exactly-once buckets (SQL oracle)
        """Events within 5 minutes after each error event of the same
        user. Time-bucketed exactly-once replication (interval copies
        to overlapped windows; pairs meet only in the left row's
        bucket), no dedup shuffle."""
        def to_us(t: pa.Table) -> pa.Table:
            return t.set_column(t.schema.get_field_index("ts"), "ts",
                                pc.cast(t["ts"], pa.int64()))

        ev = _t(sf, "events").select_columns(
            ["event_id", "ts", "user_id", "event_type"]) \
            .map_batches(to_us, batch_format="pyarrow", zero_copy_batch=True)

        def errs(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["event_type"], "error"))
            return pa.table({"err_id": t["event_id"], "user_id": t["user_id"],
                             "t_start": t["ts"],
                             "t_end": pc.add(t["ts"],
                                             pa.scalar(300_000_000, pa.int64()))})

        iv = ev.map_batches(errs, batch_format="pyarrow", zero_copy_batch=True)
        left = ev.drop_columns(["event_type"])
        out = rel.range_join(left, iv, key="user_id", on="ts",
                             start="t_start", end="t_end",
                             bucket_width_us=300_000_001)
        return out.map_batches(lambda df: df[["err_id", "event_id"]],
                               batch_format="pandas")

    def q45_hash_split(sf):  # train/val/test assignment, md5-deterministic (SQL oracle)
        split = rel.hash_split(
            _t(sf, "documents").select_columns(["doc_id", "lang"]),
            "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1})
        return rel.grouped_agg(split.select_columns(["split", "lang"]),
                               ["split", "lang"], count=True)

    def q46_grouped_topk(sf):  # top-2 events by value per user (SQL oracle)
        ev = _t(sf, "events").select_columns(["event_id", "user_id", "value"])
        return rel.grouped_topk(ev, ["user_id"], "value", k=2,
                                descending=True, tiebreak="event_id")

    def q47_anti_join(sf):  # customers with no urgent order (SQL oracle)
        """Broadcast anti join (reference J4's complement): the filtered
        key set is DISTINCT-reduced distributively first, then ships to
        the object store once."""
        urgent = _t(sf, "orders").select_columns(["o_custkey", "o_orderpriority"])

        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")) \
                    .select(["o_custkey"])

        keyset = rel.distinct(
            urgent.map_batches(f, batch_format="pyarrow", zero_copy_batch=True),
            ["o_custkey"]).to_pandas()
        cust = _t(sf, "customer").select_columns(["c_custkey", "c_nationkey"])
        return rel.semi_join(cust, "c_custkey",
                             pa.array(keyset["o_custkey"]), anti=True)

    def q48_bloom_join(sf):  # bloom prefilter + exact hash join (SQL oracle)
        """The 100 TB big-side-filter pattern: a mergeable Bloom bitmap
        built shuffle-free over urgent order keys prunes lineitem
        map-only; only the surviving minority (true matches + ~0.2%
        false positives at these parameters) pays the exact co-group
        hash join."""
        orders = _t(sf, "orders").select_columns(["o_orderkey", "o_orderpriority"])

        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")) \
                    .select(["o_orderkey"])

        urgent = orders.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
        words = rel.bloom_build(urgent, "o_orderkey", num_bits=1 << 20, k=4)
        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_quantity", "l_returnflag"])
        pre = rel.bloom_prefilter(li, "l_orderkey", words, num_bits=1 << 20, k=4)
        pre = pre.map_batches(
            lambda t: t.rename_columns(
                ["o_orderkey" if c == "l_orderkey" else c for c in t.column_names]),
            batch_format="pyarrow", zero_copy_batch=True)
        j = rel.hash_join(pre, urgent, key="o_orderkey", how="inner")
        qty = rel.add_cents(j, "l_quantity", "qty_cents")
        return rel.grouped_agg(qty.select_columns(["l_returnflag", "qty_cents"]),
                               ["l_returnflag"], sum_cols=["qty_cents"], count=True)

    def q49_pivot(sf):  # PIVOT as conditional aggregation (SQL oracle)
        li = _t(sf, "lineitem").select_columns(
            ["l_returnflag", "l_linestatus", "l_quantity"])
        qty = rel.add_cents(li, "l_quantity", "qty_cents")
        return rel.pivot_sum(qty, "l_returnflag", "l_linestatus", "qty_cents",
                             ["O", "F"], out_names=["qty_o", "qty_f"])

    def q50_rollup(sf):  # GROUP BY ROLLUP, '*' sentinel levels (SQL oracle)
        li = _t(sf, "lineitem").select_columns(
            ["l_returnflag", "l_linestatus", "l_quantity"])
        qty = rel.add_cents(li, "l_quantity", "qty_cents") \
                 .select_columns(["l_returnflag", "l_linestatus", "qty_cents"])
        return rel.rollup_counts(qty, ["l_returnflag", "l_linestatus"],
                                 sum_cols=["qty_cents"])

    def q51_lag_delta(sf):  # per-user LAG(ts) delta, inner rows (SQL oracle)
        def to_us(t: pa.Table) -> pa.Table:
            return t.set_column(t.schema.get_field_index("ts"), "ts",
                                pc.cast(t["ts"], pa.int64()))

        ev = _t(sf, "events").select_columns(["event_id", "ts", "user_id"]) \
            .map_batches(to_us, batch_format="pyarrow", zero_copy_batch=True)
        out = rel.lag_delta(ev, "user_id", "ts", "event_id", out="delta_us",
                            keep=["event_id"])
        return out.map_batches(lambda df: df[["event_id", "user_id", "delta_us"]],
                               batch_format="pandas")

    def q52_string_agg(sf):  # ordered distinct string_agg per group (SQL oracle)
        doc = _t(sf, "documents").select_columns(["lang", "source"])
        return rel.grouped_concat(doc, ["lang"], "source", out="sources")

    def q53_mode(sf):  # most frequent event_type per user (SQL oracle)
        ev = _t(sf, "events").select_columns(["user_id", "event_type"])
        return rel.grouped_mode(ev, ["user_id"], "event_type")

    def q54_normalize(sf):  # canonical text normalize + md5 (SQL oracle)
        doc = _t(sf, "documents").select_columns(["doc_id", "text"])
        nm = textops.normalize_text(doc, col="text", out="norm")
        fp = textops.fingerprint(nm, col="norm")
        return fp.drop_columns(["text", "norm"])

    def _arith_images(sf):
        """Images whose pixels are pure integer arithmetic over orders
        keys — p(y,x,c) = (k + 7y + 3x + 11c) % 256 at 32x24 — encoded
        with the raw codec, so decode-dependent results are
        SQL-oracle-exact (the q35/q36 payload pattern applied to the
        image axis)."""
        from hand_index_ray.kernels import image as imk

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 16 == 0])
            yy = 7 * np.arange(24, dtype=np.int64)[:, None, None]
            xx = 3 * np.arange(32, dtype=np.int64)[None, :, None]
            cc = 11 * np.arange(3, dtype=np.int64)[None, None, :]
            ids, bufs = [], []
            for k in keys.tolist():
                px = ((k + yy + xx + cc) % 256).astype(np.uint8)
                ids.append(f"img-{k:09d}")
                bufs.append(imk.encode(px, "raw"))
            n = len(ids)
            return pa.table({
                "image_id": pa.array(ids, pa.string()),
                "key": pa.array(keys, pa.int64()),
                "bytes": pa.array(bufs, pa.binary()),
                "w": pa.array([32] * n, pa.int32()),
                "h": pa.array([24] * n, pa.int32()),
                "fmt": pa.array(["raw"] * n, pa.string()),
            })

        return orders.map_batches(gen, batch_format="pyarrow")

    def q55_augment(sf):  # crop+flip augmentation, pixel sums SQL-exact
        """Deterministic augmentation (center crop to 16x12, flip when
        key % 32 == 0) through the real Augmenter task stage; the
        x-weighted sum is flip-sensitive so a wrong flip fails the
        oracle hash."""
        from hand_index_ray.pipelines.image_embed import augment_images

        return augment_images(_arith_images(sf), crop_frac=0.5,
                              flip_mod=32, emit="stats")

    def q56_channel_stats(sf):  # corpus per-channel sum/sumsq (SQL-exact)
        from hand_index_ray.pipelines.image_embed import channel_stats

        return channel_stats(_arith_images(sf))

    def q57_curate(sf):  # end-to-end corpus curation (SQL oracle)
        """The flagship training-data composition — token filter →
        normalize → prefix-fingerprint dedup (keep min doc_id) →
        md5 split — verified as ONE oracle over the whole chain."""
        from hand_index_ray.pipelines.curate import curate_corpus

        cur = curate_corpus(
            _t(sf, "documents").select_columns(["doc_id", "text", "lang"]),
            min_tokens=30, prefix_tokens=8)
        agg = rel.grouped_agg(cur.select_columns(["split", "lang", "n_tokens"]),
                              ["split", "lang"], sum_cols=["n_tokens"],
                              count=True)
        return agg.map_batches(
            lambda t: t.rename_columns(
                ["tok" if c == "n_tokens" else c for c in t.column_names]),
            batch_format="pyarrow", zero_copy_batch=True)

    def q58_grouped_nunique(sf):  # exact COUNT(DISTINCT) per group (SQL oracle)
        ev = _t(sf, "events").select_columns(["user_id", "event_type"])
        return rel.grouped_nunique(ev, ["user_id"], "event_type")

    def q60_jsonl_source(sf):  # JSONL ingestion roundtrip (SQL oracle)
        """Source-format breadth: documents export to JSONL shards
        once (cached), re-ingest through the distributed JSONL reader,
        and the token stats must equal the parquet-table oracle —
        proving the non-parquet ingestion path is lossless."""
        from hand_index_ray.sources.textfiles import (read_documents_jsonl,
                                                      write_documents_jsonl)

        tag = os.path.basename(os.path.normpath(sf))
        jdir = _cache_dir(f"jsonl-{tag}", "docs")
        if not (os.path.isdir(jdir) and os.listdir(jdir)):
            os.makedirs(jdir, exist_ok=True)
            write_documents_jsonl(
                _t(sf, "documents").select_columns(["doc_id", "text", "lang"]),
                jdir)
        docs = read_documents_jsonl(jdir, columns=["doc_id", "text", "lang"])
        tok = textops.token_count(docs)
        agg = rel.grouped_agg(tok.select_columns(["lang", "n_tokens"]),
                              ["lang"], sum_cols=["n_tokens"], count=True)
        return agg.map_batches(
            lambda t: t.rename_columns(
                ["tok" if c == "n_tokens" else c for c in t.column_names]),
            batch_format="pyarrow", zero_copy_batch=True)

    def q61_unnest(sf):  # UNNEST list column -> token frequencies (SQL oracle)
        docs = _t(sf, "documents").select_columns(["text"])

        def split(t: pa.Table) -> pa.Table:
            return pa.table({"toks": pc.split_pattern(t["text"], " ")})

        toks = docs.map_batches(split, batch_format="pyarrow",
                                zero_copy_batch=True)
        freq = rel.grouped_agg(rel.unnest(toks, "toks", keep=[], out="token"),
                               ["token"], count=True)
        return freq.map_batches(
            lambda t: t.filter(pc.greater_equal(t["n"],
                                                pa.scalar(5, pa.int64()))),
            batch_format="pyarrow", zero_copy_batch=True)

    def q62_histogram(sf):  # exact integer histogram of order totals (SQL oracle)
        orders = _t(sf, "orders").select_columns(["o_totalprice"])
        cents = rel.add_cents(orders, "o_totalprice", "price_cents")
        return rel.histogram_int(cents, "price_cents", width=1_000_000)

    def q59_grouped_hll(sf):  # per-group HLL distinct, exact regime (SQL oracle)
        """Per-group COUNT(DISTINCT) through mergeable sketches — the
        shuffle moves one small sketch per (batch, group), never the
        value column. Driven through the EXACT sparse regime (≤1500
        distinct users per event_type at every test sf; q41's
        precondition pattern), so plain SQL oracles it."""
        ev = _t(sf, "events").select_columns(["event_type", "user_id"])
        return rel.grouped_approx_distinct(ev, ["event_type"], "user_id",
                                           out="n_users")

    def _li_ints(sf):
        """lineitem with exact-integer measure columns (qty units,
        discount basis points) for the moment/percentile operators."""
        def mk(t: pa.Table) -> pa.Table:
            return pa.table({
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty": pc.cast(pc.round(t["l_quantity"]), pa.int64()),
                "disc_bp": pc.cast(pc.round(pc.multiply(t["l_discount"], 10000.0)),
                                   pa.int64())})
        return _t(sf, "lineitem").select_columns(
            ["l_returnflag", "l_linestatus", "l_quantity", "l_discount"]
        ).map_batches(mk, batch_format="pyarrow", zero_copy_batch=True)

    def q68_resize(sf):  # NN resize through the Resizer task stage (SQL oracle)
        """Nearest-neighbor thumbnail (24x32 → 10x14): the source-index
        gather sy=(y·24)//10, sx=(x·32)//14 is pure integer floor, so
        the oracle recomputes every output pixel; the x-weighted sum
        catches a wrong index map."""
        from hand_index_ray.pipelines.image_embed import resize_images

        return resize_images(_arith_images(sf), 10, 14, emit="stats")

    def q69_patch_grid(sf):  # ViT-style patchification, exact sums (SQL oracle)
        from hand_index_ray.pipelines.image_embed import patch_grid_stats

        return patch_grid_stats(_arith_images(sf), 8, 8)

    def q70_edit1_pairs(sf):  # symmetric-delete fuzzy match (SQL oracle)
        """Exact edit-distance-≤1 pairs via SymSpell-style deletion
        neighborhoods over a deterministic string domain derived from
        orders keys ('itm<n>' plus planted 'x'-suffix variants) — the
        oracle recomputes the domain and brute-forces levenshtein over
        the (length-prefiltered) cross join; the engine never goes
        quadratic."""
        from hand_index_ray.pipelines.text import edit1_pairs

        def mk(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy()
            n = (k * 2654435761) % 1000
            s = np.array([f"itm{v}" for v in n], dtype=object)
            tail = np.where(n % 3 == 0, "x", "")
            return pa.table({"s": pa.array(
                [a + b for a, b in zip(s, tail)], pa.string())})

        dom = rel.distinct(
            _t(sf, "orders").select_columns(["o_orderkey"])
            .map_batches(mk, batch_format="pyarrow"), ["s"])
        return edit1_pairs(dom, "s")

    def q71_tpch_q3(sf):  # multi-stage composition: TPC-H Q3 shape (SQL oracle)
        """Segment semi-join → date-filtered orders broadcast join →
        revenue aggregate → deterministic top-10: the classic
        warehouse pipeline as one chain of the engine's own operators
        (semi_join, broadcast_join, grouped_agg, topk)."""
        cust = _tbl(sf, "customer")
        bldg = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))
        ckeys = pc.unique(bldg["c_custkey"])

        orders = _t(sf, "orders").select_columns(
            ["o_orderkey", "o_custkey", "o_orderdate"])
        orders = rel.semi_join(orders, "o_custkey", ckeys)

        def ofilt(t: pa.Table) -> pa.Table:
            return t.filter(pc.less(t["o_orderdate"],
                                    pa.scalar(datetime(1995, 3, 15))))

        # the filtered-orders side is broadcast-sized (segment × date
        # selectivity); collect it once for the ray.put broadcast join
        osmall = pa.concat_tables(
            orders.map_batches(ofilt, batch_format="pyarrow")
            .select_columns(["o_orderkey", "o_orderdate"])
            .iter_batches(batch_format="pyarrow"))

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"])

        def lrev(t: pa.Table) -> pa.Table:
            t = t.filter(pc.greater(t["l_shipdate"],
                                    pa.scalar(datetime(1995, 3, 15))))
            price_c = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                              pa.int64())
            disc_bp = pc.cast(pc.round(pc.multiply(t["l_discount"], 10000.0)),
                              pa.int64())
            rev = pc.multiply(price_c,
                              pc.subtract(pa.scalar(10000, pa.int64()), disc_bp))
            return pa.table({"l_orderkey": t["l_orderkey"], "rev_micros": rev})

        li = li.map_batches(lrev, batch_format="pyarrow", zero_copy_batch=True)
        joined = rel.broadcast_join(
            li, osmall.rename_columns(["l_orderkey", "o_orderdate"]),
            keys="l_orderkey")
        agg = rel.grouped_agg(joined, ["l_orderkey", "o_orderdate"],
                              sum_cols=["rev_micros"], count=False)
        out = rel.topk(agg, "rev_micros", 10, descending=True,
                       tiebreak="l_orderkey")
        # numpy datetime roundtrips at 's' precision; the driver hash is
        # dtype-sensitive, so restore the parquet column's us precision
        out["o_orderdate"] = out["o_orderdate"].astype("datetime64[us]")
        return out

    def q72_band_join(sf):  # broadcast [low,high) tier lookup (SQL oracle)
        """Price-tier banding: the band table broadcasts once as flat
        sorted arrays; each batch resolves its tier with ONE
        searchsorted — no shuffle, no per-row predicate."""
        bins = pa.table({
            "lo": pa.array([0, 5_000_000, 15_000_000, 30_000_000], pa.int64()),
            "hi": pa.array([5_000_000, 15_000_000, 30_000_000, 60_000_000],
                           pa.int64()),
            "tier": pa.array(["low", "mid", "high", "lux"], pa.string())})
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice", "total_cents")
        banded = rel.band_join(
            orders.select_columns(["o_orderkey", "total_cents"]),
            bins, "total_cents", "lo", "hi", ["tier"])
        return rel.grouped_agg(banded.select_columns(["tier", "total_cents"]),
                               ["tier"], sum_cols=["total_cents"])

    def q73_arg_max(sf):  # FIRST_VALUE/arg_max as a mergeable aggregate (SQL oracle)
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice", "total_cents")
        return rel.grouped_arg_extreme(
            orders.select_columns(["o_orderpriority", "total_cents",
                                   "o_orderkey"]),
            ["o_orderpriority"], "total_cents", "o_orderkey", mode="max")

    def q74_heavy_hitters(sf):  # Misra-Gries top-k, exact regime (SQL oracle)
        """Top-20 part keys by lineitem count through mergeable MG
        summaries (shuffle-free; one small counter table per batch).
        Driven in the exact regime — distinct l_partkey ≤ capacity at
        every test sf — so plain COUNT GROUP BY oracles it (the q41/q59
        precondition pattern)."""
        li = _t(sf, "lineitem").select_columns(["l_partkey"])
        return rel.approx_top_k(li, "l_partkey", 20)

    def q75_zscore(sf):  # per-row group standardization, no row shuffle (SQL oracle)
        """Feature standardization: exact int (n, Σx, Σx²) per group
        broadcast back map-only — the two-phase pattern that replaces a
        windowed AVG/STDDEV shuffle at scale."""
        return rel.grouped_zscore(
            _li_ints(sf).select_columns(["l_returnflag", "l_linestatus", "qty"]),
            ["l_returnflag", "l_linestatus"], "qty", id_cols=[])

    def q76_month_rollup(sf):  # calendar bucketing (SQL oracle)
        """Month-bucket revenue: Arrow year/month kernels per batch,
        then the standard partial-agg shuffle of (month, sums)."""
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice", "total_cents")

        def mk(t: pa.Table) -> pa.Table:
            ym = pc.add(pc.multiply(pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                                    pa.scalar(100, pa.int64())),
                        pc.cast(pc.month(t["o_orderdate"]), pa.int64()))
            return pa.table({"ym": ym, "total_cents": t["total_cents"]})

        pre = orders.select_columns(["o_orderdate", "total_cents"]) \
            .map_batches(mk, batch_format="pyarrow", zero_copy_batch=True)
        return rel.grouped_agg(pre, ["ym"], sum_cols=["total_cents"])

    def q63_moments(sf):  # grouped variance/covariance/correlation (SQL oracle)
        """Second moments from mergeable (n, Σx, Σx², Σy, Σy², Σxy)
        partials — one tiny exchange; derived micro-ints mirror the
        oracle's float64 op order exactly (IEEE ×/÷/sqrt are correctly
        rounded, so bit parity holds)."""
        return rel.grouped_moments(_li_ints(sf),
                                   ["l_returnflag", "l_linestatus"],
                                   "qty", y="disc_bp")

    def q64_percentiles(sf):  # exact grouped PERCENTILE_DISC (SQL oracle)
        return rel.grouped_percentiles(
            _li_ints(sf).select_columns(["l_returnflag", "qty"]),
            ["l_returnflag"], "qty")

    def q65_window_rank(sf):  # ROW_NUMBER/RANK/DENSE_RANK top-3 (SQL oracle)
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice", "total_cents")
        return rel.window_rank(
            orders.select_columns(["o_orderpriority", "o_orderkey", "total_cents"]),
            ["o_orderpriority"], "total_cents", "o_orderkey",
            descending=True, max_rank=3)

    def q66_running_sum(sf):  # per-user ordered prefix sum (SQL oracle)
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")
        return rel.running_sum(
            ev.select_columns(["user_id", "event_id", "ts", "value_cents"]),
            "user_id", "ts", "value_cents", "event_id")

    def q67_set_ops(sf):  # INTERSECT ∪-tagged single-shuffle set op (SQL oracle)
        """Customers with a >100k order INTERSECT customers with an
        urgent order — both sides tagged and unioned so ONE keyed
        shuffle resolves membership (no driver sets)."""
        orders = _t(sf, "orders")
        a = orders.filter(lambda r: r["o_totalprice"] > 100000.0) \
                  .select_columns(["o_custkey"])
        b = orders.filter(lambda r: r["o_orderpriority"] == "1-URGENT") \
                  .select_columns(["o_custkey"])
        return rel.set_op(a, b, ["o_custkey"], op="intersect")

    def q77_sobel(sf):  # 3x3 Sobel gradient energy per image (SQL oracle)
        """Edge-energy scoring (the sharpness/quality filter a vision
        corpus applies before training): exact |gx|+|gy| over the valid
        interior, channel 0; the oracle recomputes every kernel
        response from the pixel formula."""
        from hand_index_ray.pipelines.image_embed import sobel_stats

        return sobel_stats(_arith_images(sf), channel=0)

    def q78_box_blur(sf):  # integral-image 3x3 box blur checksum (SQL oracle)
        """floor(window_sum/9) blur via ONE integral image per image
        (O(1)/pixel at any kernel size); x-weighted checksum catches a
        shifted window."""
        from hand_index_ray.pipelines.image_embed import box_blur_stats

        return box_blur_stats(_arith_images(sf), channel=0)

    def q79_luma_hist(sf):  # corpus-wide 256-bin luma histogram (SQL oracle)
        """Fixed-point BT.601 luma ((77R+150G+29B)>>8) binned per batch
        (bincount partials, ≤256 slim rows each) then one tiny grouped
        sum — shuffle-free at any corpus size."""
        from hand_index_ray.pipelines.image_embed import luma_histogram

        return luma_histogram(_arith_images(sf))

    def q80_components(sf):  # connected components of the edit-1 graph (SQL oracle)
        """Pairs → duplicate clusters: min-label propagation over the
        q70 edit-distance-1 edges (slim (node,label) shuffles per
        round, distributed fixpoint test); the oracle is a recursive
        reachability CTE taking MIN over each node's closure."""
        from hand_index_ray.pipelines.graph import connected_components
        from hand_index_ray.pipelines.text import edit1_pairs

        def mk(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy()
            n = (k * 2654435761) % 1000
            s = np.array([f"itm{v}" for v in n], dtype=object)
            tail = np.where(n % 3 == 0, "x", "")
            return pa.table({"s": pa.array(
                [a + b for a, b in zip(s, tail)], pa.string())})

        dom = rel.distinct(
            _t(sf, "orders").select_columns(["o_orderkey"])
            .map_batches(mk, batch_format="pyarrow"), ["s"])
        edges = edit1_pairs(dom, "s")
        return connected_components(edges, a="s_a", b="s_b")

    def q81_skyline(sf):  # 2-D Pareto frontier, local-prune + merge (SQL oracle)
        """Non-dominated (price, hash-dim) points: per-block skyline
        prune (sort + cummax scan) then a candidate-only merge — the
        oracle is the NOT EXISTS dominance anti-join."""
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice", "total_cents")

        def mk(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy()
            keep = k % 8 == 0
            return pa.table({
                "x": pa.array(t["total_cents"].to_numpy()[keep], pa.int64()),
                "y": pa.array((k[keep] * 2654435761) % 100000, pa.int64())})

        pts = orders.select_columns(["o_orderkey", "total_cents"]) \
            .map_batches(mk, batch_format="pyarrow")
        return rel.skyline(pts, "x", "y")

    def q82_funnel(sf):  # ordered signup→click→purchase funnel (SQL oracle)
        """Stage-i users = distinct users with a stage-i event strictly
        after their stage-(i-1) first time; one keyed shuffle, bucket
        partial counts, tiny driver sum."""
        return rel.funnel_counts(_t(sf, "events"), "user_id", "ts",
                                 "event_type",
                                 ["signup", "click", "purchase"])

    def q83_tfidf(sf):  # integer TF-IDF top-3 terms per doc (SQL oracle)
        from hand_index_ray.pipelines.text import tfidf_topk

        return tfidf_topk(_t(sf, "documents"), k=3).select_columns(
            ["doc_id", "term", "tf", "score"])

    def q84_dedup_reps(sf):  # near-dup clusters → canonical rep per doc (SQL oracle)
        """The flagship dedup composition: MinHash+LSH pairs →
        connected components → every doc labeled with its cluster
        representative (min doc_id; itself if unpaired) — the keep-mask
        a 100 TB curation run filters on."""
        from hand_index_ray.pipelines.graph import canonical_reps

        docs = _t(sf, "documents")
        pairs = textops.minhash_lsh_pairs(docs, jaccard_threshold=0.5)
        return canonical_reps(docs, pairs)

    def q85_cohort(sf):  # weekly cohort-retention matrix (SQL oracle)
        return rel.cohort_retention(_t(sf, "events"), "user_id", "ts")

    def q86_cube(sf):  # GROUP BY CUBE counts + exact cent sums (SQL oracle)
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice",
                               "total_cents")
        return rel.cube_counts(orders,
                               ["o_orderstatus", "o_orderpriority"],
                               sum_cols=["total_cents"])

    def q87_extent(sf):  # per-zone ST_Extent over the image index (SQL oracle)
        from hand_index_ray.pipelines.query import zone_extent

        return zone_extent(_image_index_tpch(sf), modulus=16)

    def q88_morphology(sf):  # 3x3 dilate/erode interior sums (SQL oracle)
        from hand_index_ray.pipelines.image_embed import morph_stats

        return morph_stats(_arith_images(sf))

    def q89_zero_crossings(sf):  # WAV decode → zero-crossing counts (SQL oracle)
        """q35's real-PCM16 payloads reduced to the classic audio
        feature: count of strict sign changes between adjacent
        samples (the decode round-trip is bit-exact, so the oracle
        recomputes crossings from the sample formula)."""
        from hand_index_ray.kernels.audio import decode_wav, encode_wav

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 97 == 0]
            ok, oz = [], []
            for k in keys:
                n = 200 + int(k) % 300
                i = np.arange(n, dtype=np.int64)
                v = (int(k) * 7919 + i * 104729) % 65536 - 32768
                blob = encode_wav(v / 32768.0, 16000, bits=16)
                x, _rate = decode_wav(blob)
                rec = np.round(x * 32768.0).astype(np.int64)
                ok.append(int(k))
                oz.append(int(np.sum(rec[:-1] * rec[1:] < 0)))
            return pa.table({"o_orderkey": pa.array(ok, pa.int64()),
                             "n_zc": pa.array(oz, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q90_scene_cuts(sf):  # Y4M frame-diff scene-change detection (SQL oracle)
        """q36's real Y4M payloads reduced to shot detection: per-video
        count of adjacent-frame |diff| sums above threshold, plus the
        total motion energy — decode round-trips bit-exactly, so the
        oracle recomputes both from the pixel formula."""
        from hand_index_ray.kernels.video import decode_y4m_frame, encode_y4m

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 101 == 0]
            ok, oc, od = [], [], []
            i = np.arange(256, dtype=np.int64)
            for k in keys:
                frames = np.empty((3, 16, 16, 3), np.uint8)
                for f in range(3):
                    v = ((int(k) * 31 + f * 977 + i * 13) % 256) \
                        .astype(np.uint8).reshape(16, 16)
                    frames[f] = np.stack([v, v, v], axis=-1)
                blob = encode_y4m(frames, colorspace="C444")
                prev = None
                cuts, total = 0, 0
                for f in range(3):
                    img = decode_y4m_frame(blob, f)[:, :, 0].astype(np.int64)
                    if prev is not None:
                        dsum = int(np.abs(img - prev).sum())
                        total += dsum
                        cuts += int(dsum > 20000)
                    prev = img
                ok.append(int(k))
                oc.append(cuts)
                od.append(total)
            return pa.table({"o_orderkey": pa.array(ok, pa.int64()),
                             "n_cuts": pa.array(oc, pa.int64()),
                             "total_diff": pa.array(od, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q91_bigrams(sf):  # corpus top-20 bigrams, exact counts (SQL oracle)
        from hand_index_ray.pipelines.text import bigram_topk

        return bigram_topk(_t(sf, "documents"), k=20)

    def q92_percentile_cont(sf):  # PERCENTILE_CONT per group (SQL oracle)
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice",
                               "total_cents")
        return rel.grouped_percentiles_cont(
            orders, ["o_orderpriority"], "total_cents")

    def q93_full_outer(sf):  # full outer join, both sides large (SQL oracle)
        """Partitioned full-outer hash join over disjoint-and-
        overlapping key ranges; unmatched sides surface sentinel
        values so the hash compare is dtype-stable."""
        def csub(t: pa.Table) -> pa.Table:
            k = t["c_custkey"].to_numpy()
            return t.filter(pa.array(k % 3 != 0))

        cust = _t(sf, "customer").select_columns(["c_custkey", "c_name"]) \
            .map_batches(csub, batch_format="pyarrow", zero_copy_batch=True)
        ords = rel.grouped_agg(
            _t(sf, "orders").select_columns(["o_custkey"]),
            ["o_custkey"], count=True)
        ords = ords.map_batches(
            lambda t: pa.table({"c_custkey": t["o_custkey"],
                                "n_orders": t["n"]}),
            batch_format="pyarrow")
        j = rel.hash_join(cust, ords, key="c_custkey", how="full")

        def finish(df):
            import pandas as pd

            return pd.DataFrame({
                "c_custkey": df["c_custkey"].astype("int64"),
                "c_name": df["c_name"].fillna("-").astype(str),
                "n_orders": df["n_orders"].fillna(0).astype("int64")})

        return j.map_batches(finish, batch_format="pandas")

    def q94_centroids(sf):  # per-label embedding centroid sums (SQL oracle)
        return rel.grouped_vector_sums(
            _t(sf, "embeddings").select_columns(["label", "embedding"]),
            "label", "embedding")

    def q95_nn_join(sf):  # spatial nearest-neighbor join over the index (SQL oracle)
        from hand_index_ray.pipelines.query import nn_join_centers

        return nn_join_centers(_image_index_tpch(sf), target_mod=8)

    def q96_transitions(sf):  # Markov transition counts LEAD-style (SQL oracle)
        return rel.event_transitions(_t(sf, "events"), "user_id", "ts",
                                     "event_type", tiebreak="event_id")

    def q97_otsu(sf):  # per-image Otsu threshold (SQL oracle)
        from hand_index_ray.pipelines.image_embed import otsu_threshold

        return otsu_threshold(_arith_images(sf))

    def q98_grid_heatmap(sf):  # spatial density grid over the index (SQL oracle)
        from hand_index_ray.pipelines.query import grid_heatmap

        return grid_heatmap(_image_index_tpch(sf), cell_deg=1.0)

    def q99_peak_concurrency(sf):  # sweep-line interval concurrency (SQL oracle)
        return rel.peak_concurrency(_t(sf, "events"), "ts", "value")

    def q100_dominant(sf):  # per-image dominant luma levels (SQL oracle)
        from hand_index_ray.pipelines.image_embed import dominant_levels

        return dominant_levels(_arith_images(sf), k=3)

    def q101_uncovered(sf):  # spatial ANTI join: footprints in no catchment (SQL oracle)
        """Complement of the zonal join — coverage-gap analysis. The
        covered id set comes from the engine's real zonal join; the
        subtraction is the keyed EXCEPT shuffle (scale-safe — no
        driver-side id set)."""
        import ray.data

        from hand_index_ray.config import EngineConfig
        from hand_index_ray.pipelines.query import zonal_join
        from hand_index_ray.state.manifest import Manifest

        idx = _image_index_tpch(sf)
        pairs = zonal_join(idx, _catchments_tpch(sf),
                           EngineConfig(footprint_formula="tpch"))
        covered = rel.distinct(pairs.select_columns(["image_id"]),
                               ["image_id"])
        man = Manifest(idx)
        allids = ray.data.read_parquet(man.all_files(idx),
                                       columns=["image_id"])
        unc = rel.set_op(allids, covered, ["image_id"], op="except")

        def zone(t: pa.Table) -> pa.Table:
            k = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 4, 99),
                        pa.int64()).to_numpy()
            return pa.table({"zone": pa.array(k % 16, pa.int64())})

        z = unc.map_batches(zone, batch_format="pyarrow")
        out = rel.grouped_agg(z, ["zone"], count=True)
        return out.map_batches(
            lambda t: t.rename_columns(
                ["n_uncovered" if c == "n" else c for c in t.column_names]),
            batch_format="pyarrow")

    def q102_moving_sum(sf):  # moving-frame window SUM (SQL oracle)
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice",
                               "total_cents")
        return rel.windowed_sum(orders, ["o_custkey"], "o_orderkey",
                                "total_cents", frame_rows=3)

    def q103_ntile(sf):  # NTILE(4) per customer (SQL oracle)
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice",
                               "total_cents")
        return rel.window_ntile(orders, ["o_custkey"], "total_cents",
                                "o_orderkey", n_tiles=4)

    def q104_streaks(sf):  # gaps-and-islands: longest active-day streak (SQL oracle)
        return rel.max_streak(_t(sf, "events"), "user_id", "ts")

    def q105_json_extract(sf):  # vectorized JSON field extraction (SQL oracle)
        ev = rel.extract_json_int(
            _t(sf, "events").select_columns(["event_type", "props"]),
            "props", "k", "k_val")
        out = rel.grouped_agg(ev.select_columns(["event_type", "k_val"]),
                              ["event_type"], sum_cols=["k_val"],
                              count=True)
        return out.map_batches(
            lambda t: t.rename_columns(
                ["k_sum" if c == "k_val" else c for c in t.column_names]),
            batch_format="pyarrow")

    def q106_unpivot(sf):  # melt/UNPIVOT lineitem measures (SQL oracle)
        def cents(t: pa.Table) -> pa.Table:
            out = {"l_orderkey": t["l_orderkey"],
                   "l_linenumber": t["l_linenumber"]}
            for c in ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]:
                v = np.round(t[c].to_numpy() * 100.0)
                out[c] = pa.array(v.astype(np.int64), pa.int64())
            return pa.table(out)

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_linenumber", "l_quantity",
             "l_extendedprice", "l_discount", "l_tax"]) \
            .map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
        long = rel.unpivot(li, ["l_orderkey", "l_linenumber"],
                           ["l_quantity", "l_extendedprice",
                            "l_discount", "l_tax"])
        out = rel.grouped_agg(long.select_columns(["measure", "value"]),
                              ["measure"], sum_cols=["value"], count=True)
        return out.map_batches(
            lambda t: t.rename_columns(
                ["v_sum" if c == "value" else c for c in t.column_names]),
            batch_format="pyarrow")

    def q107_iqr_outliers(sf):  # IQR-rule outlier counts per group (SQL oracle)
        """Composition: exact grouped percentiles → tiny bounds table
        broadcast back → map-only filter → grouped count. The 1.5×IQR
        rule (0.5×IQR fences — the synth price distribution has
        thin tails) is kept in integers (2c vs 2·q ± IQR)."""
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice",
                               "total_cents")
        pr = rel.grouped_percentiles(
            orders, ["o_orderpriority"], "total_cents",
            ps=(0.25, 0.75)).to_pandas()
        bounds = pa.Table.from_pandas(
            pr[["o_orderpriority", "p25", "p75"]], preserve_index=False)
        j = rel.broadcast_join(
            orders.select_columns(["o_orderpriority", "total_cents"]),
            bounds, keys="o_orderpriority")

        def flag(t: pa.Table) -> pa.Table:
            c = t["total_cents"].to_numpy()
            p25 = t["p25"].to_numpy()
            p75 = t["p75"].to_numpy()
            iqr = p75 - p25
            m = (2 * c > 2 * p75 + iqr) | (2 * c < 2 * p25 - iqr)
            return t.filter(pa.array(m)).select(["o_orderpriority"])

        f = j.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)
        out = rel.grouped_agg(f, ["o_orderpriority"], count=True)
        return out.map_batches(
            lambda t: t.rename_columns(
                ["n_outliers" if c == "n" else c for c in t.column_names]),
            batch_format="pyarrow")

    def q108_densify(sf):  # date-spine gap filling (SQL oracle)
        return rel.densify_days(_t(sf, "events"), "ts")

    def q109_weighted(sf):  # weighted-mean numerators per flag (SQL oracle)
        def cents(t: pa.Table) -> pa.Table:
            return pa.table({
                "l_returnflag": t["l_returnflag"],
                "price_cents": pa.array(np.round(
                    t["l_extendedprice"].to_numpy() * 100.0)
                    .astype(np.int64), pa.int64()),
                "qty": pa.array(t["l_quantity"].to_numpy()
                                .astype(np.int64), pa.int64())})

        li = _t(sf, "lineitem").select_columns(
            ["l_returnflag", "l_extendedprice", "l_quantity"]) \
            .map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
        return rel.grouped_weighted_sum(li, ["l_returnflag"],
                                        "price_cents", "qty")

    def q110_above_avg(sf):  # rows above their group average (SQL oracle)
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice",
                               "total_cents")
        return rel.above_group_avg(orders, ["o_orderpriority"],
                                   "total_cents")

    def q111_kmeans(sf):  # distributed exact-integer k-means, 2 rounds (SQL oracle)
        """Iterative ML on Ray Data with a bit-exact oracle: centroids
        re-quantize to integer micro-units every update, so each Lloyd
        round is a deterministic integer function DuckDB replays."""
        from hand_index_ray.pipelines.kmeans import kmeans_micro

        return kmeans_micro(_t(sf, "embeddings"), k=8, rounds=2)

    def q112_pagerank(sf):  # integer PageRank, 3 iterations (SQL oracle)
        """Iterative graph analytics with a bit-exact oracle: floor
        division everywhere, so the recurrence replays in SQL."""
        from hand_index_ray.pipelines.graph import pagerank_int

        def mk(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy()
            u = k % 1000
            v = (k * 2654435761) % 1000
            keep = u != v
            return pa.table({"u": pa.array(u[keep], pa.int64()),
                             "v": pa.array(v[keep], pa.int64())})

        edges = _t(sf, "orders").select_columns(["o_orderkey"]) \
            .map_batches(mk, batch_format="pyarrow", zero_copy_batch=True)
        return pagerank_int(edges, iters=3)

    def q113_triangles(sf):  # per-node triangle counts (SQL oracle)
        from hand_index_ray.pipelines.graph import triangle_counts

        def mk(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy()
            u = k % 100
            v = (k // 100) % 100
            keep = u != v
            return pa.table({"u": pa.array(u[keep], pa.int64()),
                             "v": pa.array(v[keep], pa.int64())})

        edges = _t(sf, "orders").select_columns(["o_orderkey"]) \
            .map_batches(mk, batch_format="pyarrow", zero_copy_batch=True)
        return triangle_counts(edges)

    def q114_mad(sf):  # robust stats: grouped median absolute deviation (SQL oracle)
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice",
                               "total_cents")
        return rel.grouped_mad(orders, ["o_orderpriority"], "total_cents")

    def q115_equalize(sf):  # histogram-equalization checksums (SQL oracle)
        from hand_index_ray.pipelines.image_embed import equalize_stats

        return equalize_stats(_arith_images(sf))

    def q116_pagination(sf):  # global ORDER BY + LIMIT/OFFSET page (SQL oracle)
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice",
                               "total_cents")
        return rel.sorted_slice(orders, ["total_cents", "o_orderkey"],
                                offset=50, k=20, descending=True)

    def q117_time_to_convert(sf):  # conversion-latency median (SQL oracle)
        return rel.time_to_convert(_t(sf, "events"), "user_id", "ts",
                                   "event_type", "signup", "purchase")

    def q118_drawdown(sf):  # per-customer max drawdown (SQL oracle)
        orders = rel.add_cents(_t(sf, "orders"), "o_totalprice",
                               "total_cents")
        return rel.max_drawdown(orders, ["o_custkey"], "o_orderkey",
                                "total_cents")

    def q119_h3_cell_stats(sf):  # engine: multi-res BIT-EXACT H3 aggregation
        """Tile counts per real Uber-H3 res-7 cell over the image index
        (kernels/h3exact.py — golden-vector-validated ids; reference
        h3_latlng_to_cell + GROUP BY parity, load.py:164-168/279-283).
        Oracle: H3 is not SQL-computable, but the frozen golden fixture
        tests/data/h3_golden_tpch.parquet (tools/gen_h3_fixture.py,
        published-vector-pinned) makes it a plain DuckDB join/group."""
        from hand_index_ray.pipelines.query import hex_cell_stats

        idx = _image_index_tpch(sf)
        return hex_cell_stats(idx, 7)

    def q120_flac_decode(sf):  # REAL FLAC encode→decode; sums SQL-oracle-exact
        """Compressed-audio parity (q35's pattern, FLAC instead of raw
        PCM): payloads synthesized from integer arithmetic over
        `orders`, compressed with the from-spec FLAC encoder and
        decoded by the vectorized Rice-orbit decoder (kernels/flac.py,
        CRC-verified). FLAC is lossless, so per-clip sample sums are
        bit-exact and the oracle recomputes them in plain SQL."""
        from hand_index_ray.kernels.flac import decode_flac, encode_flac

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen_decode(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 103 == 0]
            out_k, out_n, out_s = [], [], []
            for k in keys:
                n = 300 + int(k) % 200
                i = np.arange(n, dtype=np.int64)
                v = (int(k) * 6007 + i * 31627) % 65536 - 32768
                blob = encode_flac(v, 16000, bits=16)
                rec, _rate, _bits = decode_flac(blob, verify_md5=True)
                out_k.append(int(k))
                out_n.append(n)
                out_s.append(int(rec[:, 0].astype(np.int64).sum()))
            return pa.table({"o_orderkey": pa.array(out_k, pa.int64()),
                             "n_samples": pa.array(out_n, pa.int64()),
                             "sum_samples": pa.array(out_s, pa.int64())})

        df = orders.map_batches(gen_decode, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q121_mjpeg_decode(sf):  # REAL MJPEG AVI decode; sums SQL-oracle-exact
        """Compressed-VIDEO parity: per key, a 2-frame MJPEG AVI whose
        16×16 gray frames are four constant 8×8 blocks — at quality 100
        the Annex-K tables scale to all-ones, constant blocks are
        DC-only, and baseline JPEG decode is BIT-EXACT (verified in
        tests/test_avi.py), so per-frame pixel sums survive a real
        lossy-format entropy round-trip and the oracle recomputes them
        as 64·Σ block values in plain SQL (kernels/avi.py + jpeg.py)."""
        from hand_index_ray.kernels.avi import decode_avi_frames, encode_avi_mjpeg

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 107 == 0]
            ok, of, osum = [], [], []
            for k in keys:
                blocks = np.array(
                    [[(int(k) * 37 + f * 911 + b * 53) % 256
                      for b in range(4)] for f in range(2)], np.uint8)
                frames = np.repeat(np.repeat(
                    blocks.reshape(2, 2, 2), 8, axis=1), 8, axis=2)
                blob = encode_avi_mjpeg(frames, fps=24.0, quality=100)
                for f, img in enumerate(decode_avi_frames(blob)):
                    ok.append(int(k))
                    of.append(f)
                    osum.append(int(img.astype(np.int64).sum()))
            return pa.table({"o_orderkey": pa.array(ok, pa.int64()),
                             "frame_idx": pa.array(of, pa.int64()),
                             "pixel_sum": pa.array(osum, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values(["o_orderkey", "frame_idx"]).reset_index(drop=True)

    def q122_progressive_jpeg(sf):  # REAL SOF2 ingest; sums SQL-oracle-exact
        """Progressive-JPEG ingest parity (the q121 constant-block
        construction through the Annex-G path): per key one 16×16 gray
        progressive JPEG (DC first+refine, AC first+refine scans with
        optimized Huffman tables), ingested through the SAME
        decode_batch entry the image stages use — baseline members ride
        the lockstep machine, SOF2 members route to the Annex-G
        decoder. Quality 100 makes the round-trip bit-exact, so the
        oracle recomputes pixel sums in plain SQL."""
        from hand_index_ray.kernels.jpeg import decode_batch
        from hand_index_ray.kernels.jpeg_progressive import encode_progressive

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 109 == 0]
            blobs, ks = [], []
            for k in keys:
                blocks = np.array([(int(k) * 41 + b * 59) % 256
                                   for b in range(4)], np.uint8)
                img = np.repeat(np.repeat(
                    blocks.reshape(2, 2), 8, axis=0), 8, axis=1)
                blobs.append(encode_progressive(img, quality=100))
                ks.append(int(k))
            sums = [int(im.astype(np.int64).sum())
                    for im in decode_batch(blobs)]
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "pixel_sum": pa.array(sums, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q123_exif_orientation(sf):  # REAL EXIF parse + orientation (SQL oracle)
        """EXIF ingest parity: per key a real JPEG with a spec-correct
        APP1 segment (kernels/exif.py — TIFF IFDs, GPS sub-IFD with
        exact DMS rationals, orientation tag). The engine parses the
        segment back and applies the orientation transform to a
        deterministic asymmetric image; the oracle recomputes the
        oriented dims + probe pixels + integer GPS units by the spec's
        orientation corner mapping in plain SQL."""
        from hand_index_ray.kernels import jpeg
        from hand_index_ray.kernels.exif import (apply_orientation,
                                                 build_exif_app1, insert_app1)

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        base_jpg = jpeg.encode(np.full((8, 8), 99, np.uint8), 95)
        H, W = 8, 6

        def gen(t: pa.Table) -> pa.Table:
            from hand_index_ray.kernels.exif import parse_exif

            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 111 == 0]
            rows = {c: [] for c in ("o_orderkey", "orientation", "ori_h",
                                    "ori_w", "p00", "p01", "lat_units")}
            r_, c_ = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
            for k in keys:
                k = int(k)
                o = k % 8 + 1
                d, m, s4 = k % 90, k % 60, (k * 13) % 600000
                app1 = build_exif_app1(
                    orientation=o, make="synthcam", datetime_str="2026:01:01 00:00:00",
                    lat=(-1.0 if k % 2 else 1.0), lon=1.0,
                    lat_dms=[(d, 1), (m, 1), (s4, 10000)],
                    lon_dms=[(1, 1), (2, 1), (3, 10000)])
                meta = parse_exif(insert_app1(base_jpg, app1))
                img = (k * 7 + r_ * 13 + c_ * 17) % 251
                out = apply_orientation(img, meta["orientation"])
                dms = meta["gps_lat"]
                units = dms[0][0] * 36000000 + dms[1][0] * 600000 + dms[2][0]
                if meta["gps_lat_ref"] == "S":
                    units = -units
                rows["o_orderkey"].append(k)
                rows["orientation"].append(meta["orientation"])
                rows["ori_h"].append(out.shape[0])
                rows["ori_w"].append(out.shape[1])
                rows["p00"].append(int(out[0, 0]))
                rows["p01"].append(int(out[0, 1]))
                rows["lat_units"].append(units)
            return pa.table({c: pa.array(v, pa.int64())
                             for c, v in rows.items()})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q124_geotiff_stats(sf):  # REAL GeoTIFF decode; stats SQL-oracle-exact
        """Raster parity (the reference's ``*.tif`` HAND rasters,
        load.py:44-45, decoded for real): per key a 48×37 int32
        GeoTIFF with formula pixels, written by the from-spec encoder
        (kernels/geotiff.py) alternating LZW / Deflate compression and
        tiled / strip layout across keys, all with horizontal
        predictor 2 — then decoded + nodata-masked by the raster-stats
        pipeline (pipelines/raster.py). Lossless, so the oracle
        recomputes the masked aggregates from the pixel formula in
        plain SQL."""
        from hand_index_ray.kernels.geotiff import encode_geotiff
        from hand_index_ray.pipelines.raster import raster_stats

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        W, H = 48, 37
        yy, xx = np.meshgrid(np.arange(H, dtype=np.int64),
                             np.arange(W, dtype=np.int64), indexing="ij")

        def gen_blobs(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 127 == 0]
            blobs = []
            for k in keys:
                k = int(k)
                v = ((k * 13 + xx * 7 + yy * 3) % 256).astype(np.int32)
                blobs.append(encode_geotiff(
                    v, compression="lzw" if k % 2 else "deflate",
                    predictor=2,
                    tile=(16, 16) if k % 3 == 0 else None,
                    rows_per_strip=7, pixel_scale=(1.0, 1.0),
                    tiepoint=(0, 0, float(k), 1000.0), epsg=5070,
                    nodata=17))
            return pa.table({"o_orderkey": pa.array([int(k) for k in keys],
                                                    pa.int64()),
                             "bytes": pa.array(blobs, pa.binary())})

        blobs = orders.map_batches(gen_blobs, batch_format="pyarrow")
        df = raster_stats(blobs, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q125_cog_window(sf):  # COG window read; sums SQL-oracle-exact
        """Cloud-optimized-GeoTIFF shape: per key a 96×96 int32 raster
        tiled 16×16; the engine decodes ONLY the tiles intersecting a
        key-dependent 23×17 pixel window (kernels/geotiff.py
        decode_window — ranged reads, read amplification pinned in
        tests/test_geotiff.py). The window sum is recomputed from the
        pixel formula by the oracle in plain SQL."""
        from hand_index_ray.kernels.geotiff import encode_geotiff
        from hand_index_ray.pipelines.raster import window_sum_one

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(96, dtype=np.int64),
                             np.arange(96, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 131 == 0]
            ks, sums, npx = [], [], []
            for k in keys:
                k = int(k)
                v = ((k * 19 + xx * 5 + yy * 23) % 509).astype(np.int32)
                blob = encode_geotiff(v, compression="deflate", predictor=2,
                                      tile=(16, 16), epsg=5070)
                res = window_sum_one(blob, k % 41, k % 29, 23, 17)
                assert res["bytes_read"] < len(blob)  # partial read held
                ks.append(k)
                npx.append(res["n_px"])
                sums.append(res["win_sum"])
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "n_px": pa.array(npx, pa.int64()),
                             "win_sum": pa.array(sums, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    # --- terrain / hydrology raster family (pipelines/terrain.py) ---
    # The reference's rasters are hydrology terrain products (HAND +
    # catchment reaches, load.py:44-45); these queries run the
    # downstream terrain math the reference leaves to GDAL/WBT, over
    # formula-pixel GeoTIFFs so every op has a plain-SQL oracle.
    def _terrain_blobs(sf, mod: int, W: int, H: int, a: int, b: int,
                       c: int, m: int, div: int = 1, **enc):
        """Dataset of (o_orderkey, bytes) GeoTIFF blobs with pixels
        v = ((k*a + x*b + y*c) % m) // div over keys k ≡ 0 (mod
        ``mod``); ``div > 1`` makes plateaus (runs) for RLE-style
        ops."""
        from hand_index_ray.kernels.geotiff import encode_geotiff
        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(H, dtype=np.int64),
                             np.arange(W, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % mod == 0]
            blobs = [encode_geotiff(
                (((int(k) * a + xx * b + yy * c) % m) // div)
                .astype(np.int32), **enc)
                for k in keys]
            return pa.table({"o_orderkey": pa.array([int(k) for k in keys],
                                                    pa.int64()),
                             "bytes": pa.array(blobs, pa.binary())})

        return orders.map_batches(gen, batch_format="pyarrow")

    def q126_zonal_raster(sf):  # raster zonal stats; triangle zones
        """Raster zonal statistics (the raster-side sibling of the
        vector zonal join J7): two triangle zones, pixel-center PIP via
        the crossing-number kernel, nodata-masked per-(raster, zone)
        aggregates. Zone triangles have scaled-by-10 integer vertices
        chosen so NO pixel center lies on an edge (pinned by
        tests/test_terrain.py::test_zone_edges_clear), so the oracle's
        strict half-plane integer sign tests agree exactly."""
        from hand_index_ray.kernels import wkb as kwkb
        from hand_index_ray.pipelines.terrain import zonal_stats
        tris = [[(3.2, 1.7), (44.1, 5.3), (20.6, 34.8)],
                [(25.3, 2.1), (46.2, 30.7), (5.4, 28.9)]]
        wkbs = [kwkb.encode(kwkb.from_parts([[[np.array(t + t[:1])]]]))[0]
                for t in tris]
        ds = _terrain_blobs(sf, 137, 48, 37, 13, 7, 3, 256,
                            compression="lzw", predictor=2, nodata=17)
        df = zonal_stats(ds, wkbs, id_col="o_orderkey").to_pandas()
        return df.sort_values(["o_orderkey", "zone"]).reset_index(drop=True)

    def q127_slope_stats(sf):  # terrain gradient; interior |dx|+|dy|
        """Slope-map core: integer central-difference gradient
        magnitude over interior pixels, map-only partial aggregates
        (pipelines/terrain.py:slope_stats)."""
        from hand_index_ray.pipelines.terrain import slope_stats
        ds = _terrain_blobs(sf, 139, 48, 37, 13, 7, 3, 256,
                            compression="deflate", predictor=2)
        df = slope_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q128_flow_direction(sf):  # D8 steepest descent histogram
        """D8 flow direction (the first pass of HAND / flow
        accumulation): per interior pixel the steepest-descent
        neighbor code (ties → lowest code, pits → -1), histogrammed
        per raster. Vectorized as 8 shifted slices + one argmax
        (pipelines/terrain.py:_d8_one)."""
        from hand_index_ray.pipelines.terrain import flow_direction_counts
        ds = _terrain_blobs(sf, 149, 32, 24, 11, 5, 7, 97,
                            compression="deflate", predictor=2)
        df = flow_direction_counts(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values(["o_orderkey", "direction"]).reset_index(drop=True)

    def q129_overviews(sf):  # COG overview pyramid checksums
        """COG overview levels (gdaladdo 'average'): 2x2 floor-mean
        downsample, two levels, one checksum row per (raster, level)
        (pipelines/terrain.py:overview_checksums)."""
        from hand_index_ray.pipelines.terrain import overview_checksums
        ds = _terrain_blobs(sf, 151, 48, 36, 13, 7, 3, 256,
                            compression="lzw", predictor=2)
        df = overview_checksums(ds, levels=2, id_col="o_orderkey").to_pandas()
        return df.sort_values(["o_orderkey", "level"]).reset_index(drop=True)

    def q130_contours(sf):  # marching-squares cell classification
        """Contour-extraction cell pass: marching-squares case code
        (4 corner bits vs threshold 127) per 2x2 cell, counted per
        raster (pipelines/terrain.py:contour_case_counts)."""
        from hand_index_ray.pipelines.terrain import contour_case_counts
        ds = _terrain_blobs(sf, 157, 48, 37, 13, 7, 3, 256,
                            compression="none", predictor=1, tile=(16, 16))
        df = contour_case_counts(ds, threshold=127,
                                 id_col="o_orderkey").to_pandas()
        return df.sort_values(["o_orderkey", "ms_case"]).reset_index(drop=True)

    def q131_resample(sf):  # nearest-neighbor regrid
        """Regridding core: nearest-neighbor resample 48x37 → 17x13
        by integer source-index mapping (GDAL NN), aggregates over the
        resampled grid (pipelines/terrain.py:resample_nn)."""
        from hand_index_ray.pipelines.terrain import resample_nn
        ds = _terrain_blobs(sf, 163, 48, 37, 17, 11, 29, 251,
                            compression="deflate", predictor=2)
        df = resample_nn(ds, 17, 13, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q134_mosaic(sf):  # grouped raster mosaic (MAX composite)
        """Raster mosaic — the one genuinely WIDE op in the terrain
        family: rasters shuffle to their mosaic group (keyed groupby),
        each group composites pixel-wise MAX locally
        (pipelines/terrain.py:mosaic_max). Group = (k // 179) % 5."""
        from hand_index_ray.pipelines.terrain import mosaic_max
        ds = _terrain_blobs(sf, 179, 24, 18, 13, 7, 3, 256,
                            compression="deflate", predictor=2)

        def add_grp(t: pa.Table) -> pa.Table:
            k = t.column("o_orderkey").to_numpy()
            return t.append_column("grp", pa.array((k // 179) % 5, pa.int64()))

        df = mosaic_max(ds.map_batches(add_grp, batch_format="pyarrow"),
                        "grp").to_pandas()
        return df.sort_values("grp").reset_index(drop=True)

    def q135_bilinear(sf):  # integer-exact bilinear resample
        """Bilinear resample 48x37 → 16x11 in EXACT scaled-integer
        arithmetic (numerators over denominator (out-1), floored once
        — no float rounding anywhere), so the oracle reproduces every
        interpolated pixel with the same integer formula
        (pipelines/terrain.py:_bilinear_one)."""
        from hand_index_ray.pipelines.terrain import resample_bilinear
        ds = _terrain_blobs(sf, 181, 48, 37, 23, 13, 19, 241,
                            compression="deflate", predictor=2)
        df = resample_bilinear(ds, 16, 11, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q136_morphology(sf):  # 3x3 dilate/erode + morphological gradient
        """Morphological dilate (3x3 max), erode (3x3 min) and the
        morphological gradient (dilate - erode) over interior pixels
        (pipelines/terrain.py:morphology_stats) — 9 shifted slices,
        two reductions, map-only."""
        from hand_index_ray.pipelines.terrain import morphology_stats
        ds = _terrain_blobs(sf, 191, 48, 37, 13, 7, 3, 256,
                            compression="lzw", predictor=2)
        df = morphology_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q137_flow_accum(sf):  # flow accumulation + stream delineation
        """D8 flow accumulation (upstream-cell count per cell) by
        level-ordered accumulation — one np.add.at per distinct
        elevation (flow is strictly downhill, so every contributor is
        final before it contributes) — and stream delineation
        (cells with acc >= 5). The oracle counts path visits from
        q132's recursive walk (pipelines/terrain.py:flow_accumulation)."""
        from hand_index_ray.pipelines.terrain import flow_accumulation
        ds = _terrain_blobs(sf, 193, 16, 12, 7, 3, 5, 53,
                            compression="deflate", predictor=2)
        df = flow_accumulation(ds, channel_thresh=5,
                               id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q138_zonal_windowed(sf):  # zonal stats via COG window reads
        """The 100 TB zonal path: the zone's pixel bbox is decoded via
        COG ranged reads (header + intersecting tiles only,
        pipelines/terrain.py:ZonalStatsWindowed) instead of full-blob
        decode; results equal full zonal exactly. Zone triangle has
        scaled-by-10 integer vertices clear of every pixel center
        (tests/test_terrain.py::test_zone_c_edges_clear)."""
        from hand_index_ray.kernels import wkb as kwkb
        from hand_index_ray.pipelines.terrain import zonal_stats_windowed
        tri = [(12.7, 8.3), (52.7, 14.6), (30.7, 40.5)]
        wkbb = kwkb.encode(kwkb.from_parts([[[np.array(tri + tri[:1])]]]))[0]
        ds = _terrain_blobs(sf, 197, 96, 80, 13, 7, 3, 256,
                            compression="deflate", predictor=2,
                            tile=(16, 16), nodata=17)
        df = zonal_stats_windowed(ds, [wkbb], id_col="o_orderkey").to_pandas()
        df = df.drop(columns=["bytes_read"])  # oracle-comparable columns
        return df.sort_values(["o_orderkey", "zone"]).reset_index(drop=True)

    def q139_polygonize(sf):  # raster -> regions (connected components)
        """Raster polygonize summary: 4-connected region counts of the
        thresholded raster per class, labels resolved by vectorized
        min-label propagation + pointer jumping
        (pipelines/terrain.py:_cc_labels). The oracle reaches the same
        regions by transitive closure (recursive UNION) and counts
        distinct min-index labels."""
        from hand_index_ray.pipelines.terrain import polygonize_counts
        ds = _terrain_blobs(sf, 199, 16, 10, 3, 5, 11, 23,
                            compression="deflate", predictor=2)
        df = polygonize_counts(ds, threshold=11,
                               id_col="o_orderkey").to_pandas()
        return df.sort_values(["o_orderkey", "above"]).reset_index(drop=True)

    def q140_voronoi(sf):  # nearest-site (Voronoi) rasterization
        """Vector→raster nearest-site labeling: each pixel center
        joins its closest of 6 broadcast sites (exact doubled-integer
        distances, ties → lowest site index), then per-site pixel
        counts and value sums (pipelines/terrain.py:
        nearest_site_counts) — the raster half of an IDW/Voronoi
        interpolation."""
        from hand_index_ray.pipelines.terrain import nearest_site_counts
        sites = [(3.5, 2.5), (20.5, 30.5), (40.5, 10.5),
                 (10.5, 18.5), (33.5, 28.5), (45.5, 33.5)]
        ds = _terrain_blobs(sf, 211, 48, 37, 13, 7, 3, 256,
                            compression="lzw", predictor=2)
        df = nearest_site_counts(ds, sites, id_col="o_orderkey").to_pandas()
        return df.sort_values(["o_orderkey", "site"]).reset_index(drop=True)

    def q141_rle(sf):  # run-length stats (compression planning)
        """Row-wise RLE statistics over plateau rasters (values
        quantized //32 so runs exist): run count + longest run per
        raster (pipelines/terrain.py:rle_stats — one diff pass)."""
        from hand_index_ray.pipelines.terrain import rle_stats
        ds = _terrain_blobs(sf, 223, 48, 37, 13, 7, 3, 256, div=32,
                            compression="packbits", predictor=1)
        df = rle_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q142_value_histogram(sf):  # exact per-raster histogram
        """Per-raster exact value histogram over the 8-level quantized
        rasters — one bincount per raster, map-only
        (pipelines/terrain.py:value_histogram)."""
        from hand_index_ray.pipelines.terrain import value_histogram
        ds = _terrain_blobs(sf, 227, 48, 37, 13, 7, 3, 256, div=32,
                            compression="deflate", predictor=2)
        df = value_histogram(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values(["o_orderkey", "value"]).reset_index(drop=True)

    def q143_band_math(sf):  # NDVI-style math over multi-band BigTIFF
        """Band math over CHUNKY MULTI-BAND BigTIFF rasters (the codec
        now carries SamplesPerPixel>1 + PlanarConfig 1 + magic-43
        8-byte offsets): per raster, count vegetation pixels
        (nir > red) and sum the integer NDVI numerator (nir - red) —
        the classic two-band index kept in exact integers."""
        from hand_index_ray.kernels.geotiff import encode_geotiff, decode_geotiff
        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(24, dtype=np.int64),
                             np.arange(32, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 229 == 0]
            ks, veg, num = [], [], []
            for k in keys:
                k = int(k)
                red = (k * 5 + xx * 3 + yy * 7) % 199
                nir = (k * 11 + xx * 13 + yy * 17) % 199
                a = np.stack([red, nir], axis=-1).astype(np.int32)
                blob = encode_geotiff(a, compression="deflate",
                                      predictor=2, bigtiff=True)
                d, info = decode_geotiff(blob)
                assert info["bigtiff"] and info["bands"] == 2
                r64 = d[..., 0].astype(np.int64)
                n64 = d[..., 1].astype(np.int64)
                ks.append(k)
                veg.append(int((n64 > r64).sum()))
                num.append(int((n64 - r64).sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "n_veg": pa.array(veg, pa.int64()),
                             "ndvi_num_sum": pa.array(num, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q144_overview_scan(sf):  # window read at an overview level
        """COG overview scan: the blob carries a chained
        reduced-resolution IFD (2x2 floor-mean); the engine window-
        reads a sub-rect AT LEVEL 1 touching only that level's tiles.
        The oracle rebuilds the overview with floor-div CTEs (q129's
        arithmetic) and sums the same window."""
        from hand_index_ray.kernels.geotiff import encode_geotiff, decode_window
        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(64, dtype=np.int64),
                             np.arange(96, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 233 == 0]
            ks, sums, npx = [], [], []
            for k in keys:
                k = int(k)
                v = ((k * 13 + xx * 7 + yy * 3) % 256).astype(np.int32)
                blob = encode_geotiff(v, compression="deflate", predictor=2,
                                      tile=(16, 16), overviews=1)
                win, info = decode_window(blob, k % 11, k % 7, 17, 13,
                                          level=1)
                assert info["window_bytes_read"] < len(blob) / 2
                ks.append(k)
                npx.append(int(win.size))
                sums.append(int(win.astype(np.int64).sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "n_px": pa.array(npx, pa.int64()),
                             "ov_sum": pa.array(sums, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q145_gpkg_source(sf):  # S3 for real: sqlite3 GeoPackage ingest
        """REAL GeoPackage source (reference S3: globs
        ``*gw_catchments*.gpkg`` branch trees and reads all non-null
        geometries per file, load.py:41,67,143): spec-correct GPKG
        fixtures (application_id/user_version pragmas, gpkg_contents /
        gpkg_geometry_columns / gpkg_spatial_ref_sys, 'GP'-headed
        blobs) are read by the sharded stdlib-sqlite3 reader; WKB bbox
        areas + a property aggregate per branch dir. Fixture geometry
        derives from orders keys, so the oracle recomputes from the
        generating formulas — no file access on the SQL side."""
        from hand_index_ray.kernels import wkb as wkblib
        from hand_index_ray.sources import gpkg as gk

        root = _cache_dir("gpkg_src", os.path.basename(os.path.normpath(sf)))
        marker = os.path.join(root, "_done")
        if not os.path.exists(marker):
            keys = _tbl(sf, "orders").column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 97 == 0])
            for b in range(8):
                ks = [int(k) for k in keys if (k // 97) % 8 == b]
                bdir = os.path.join(root, f"branch_{b}")
                os.makedirs(bdir, exist_ok=True)
                blobs = []
                for k in ks:
                    if k % 5 == 0:
                        blobs.append(None)  # NULL geometry row
                    else:
                        x0 = float((k * 7) % 360 - 180)
                        y0 = float((k * 3) % 170 - 85)
                        s = float(1 + k % 5)
                        blobs.append(wkblib.encode_box(
                            np.array([x0]), np.array([y0]),
                            np.array([x0 + s]), np.array([y0 + s]))[0])
                gk.write_gpkg(
                    os.path.join(bdir, f"gw_catchments_{b}.gpkg"),
                    "gw_catchments", ks, blobs,
                    props={"ht": [(k * 13) % 1000 for k in ks]})
            with open(marker, "w") as f:
                f.write("ok")

        ds = gk.read_gpkg(os.path.join(root, "branch_*",
                                       "*gw_catchments*.gpkg"))

        def feat(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "wkb" not in t.column_names:
                return pa.table({"branch": pa.array([], pa.int64()),
                                 "area_sum": pa.array([], pa.int64()),
                                 "ht": pa.array([], pa.int64())})
            r = wkblib.decode(t.column("wkb").to_pylist())
            starts = r.ring_coord_off[r.part_ring_off[r.geom_part_off[:-1]]]
            mx = np.maximum.reduceat(r.coords, starts, axis=0)
            mn = np.minimum.reduceat(r.coords, starts, axis=0)
            area = np.round((mx[:, 0] - mn[:, 0])
                            * (mx[:, 1] - mn[:, 1])).astype(np.int64)
            b = pc.cast(pc.struct_field(pc.extract_regex(
                t.column("src_path"), r"branch_(?P<b>\d+)"), "b"), pa.int64())
            return pa.table({"branch": b,
                             "area_sum": pa.array(area, pa.int64()),
                             "ht": pc.cast(t.column("ht"), pa.int64())})

        agg = rel.grouped_agg(
            ds.map_batches(feat, batch_format="pyarrow"),
            ["branch"], sum_cols=["area_sum", "ht"])
        df = agg.to_pandas().rename(columns={"ht": "ht_sum", "n": "n_feat"})
        return df[["branch", "n_feat", "area_sum", "ht_sum"]] \
            .sort_values("branch").reset_index(drop=True)

    def q146_png_formats(sf):  # full PNG surface through decode path
        """Real-world PNG variant ingest (kernels/png.py): grayscale,
        palette (PLTE gather), RGBA (alpha dropped), 16-bit (MSB), and
        Adam7-interlaced RGB payloads are built from integer formulas,
        routed through the ENGINE decode path (image.decode → full
        from-spec decoder), and reduced to per-image channel sums.
        Lossless + deterministic normalization ⇒ the oracle recomputes
        every variant's sum from the formulas in plain SQL."""
        from hand_index_ray.kernels import image as imk
        from hand_index_ray.kernels import png as pnglib

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(20, dtype=np.int64),
                             np.arange(28, dtype=np.int64), indexing="ij")
        pal = np.stack([(np.arange(16) * 37 + 11) % 256,
                        (np.arange(16) * 59 + 3) % 256,
                        (np.arange(16) * 83 + 7) % 256],
                       axis=1).astype(np.uint8)

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 239 == 0]
            ks, variants, sums = [], [], []
            for k in keys:
                k = int(k)
                blobs = {
                    "gray8": pnglib.encode(
                        ((k * 3 + xx * 5 + yy * 11) % 256).astype(np.uint8)),
                    "palette": pnglib.encode(
                        ((k + xx + yy) % 16).astype(np.uint8), palette=pal),
                    "rgba": pnglib.encode(np.stack(
                        [(k + xx * 2) % 256, (yy * 3 + k * 5) % 256,
                         (xx + yy + k) % 256, (xx * yy) % 256],
                        axis=-1).astype(np.uint8)),
                    "adam7": pnglib.encode(np.stack(
                        [(k + xx) % 256, (2 * yy + k) % 256,
                         (xx + yy) % 256], axis=-1).astype(np.uint8),
                        interlace=True),
                }
                for v, blob in blobs.items():
                    assert imk.sniff_format(blob) == "png"
                    px = imk.decode(blob, "png")
                    ks.append(k)
                    variants.append(v)
                    sums.append(int(px.astype(np.int64).sum()))
                # 16-bit gray: hand-built stream (encoder is 8-bit)
                v16 = ((k * 7 + xx * 13 + yy * 29) % 65536).astype(np.uint16)
                rows = b"".join(b"\x00" + v16[r].astype(">u2").tobytes()
                                for r in range(20))
                import struct as _st
                import zlib as _zl
                ihdr = _st.pack(">IIBBBBB", 28, 20, 16, 0, 0, 0, 0)
                parts = [b"\x89PNG\r\n\x1a\n"]
                for tag, body in ((b"IHDR", ihdr),
                                  (b"IDAT", _zl.compress(rows)),
                                  (b"IEND", b"")):
                    parts.append(_st.pack(">I", len(body)) + tag + body
                                 + _st.pack(">I", _zl.crc32(tag + body)
                                            & 0xFFFFFFFF))
                px = imk.decode(b"".join(parts), "png")
                ks.append(k)
                variants.append("gray16")
                sums.append(int(px.astype(np.int64).sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "variant": pa.array(variants, pa.string()),
                             "px_sum": pa.array(sums, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values(["o_orderkey", "variant"]) \
            .reset_index(drop=True)

    def q147_shapefile_source(sf):  # ESRI .shp/.shx/.dbf trio ingest
        """ESRI Shapefile source (sources/shapefile.py — from the
        published spec): fixture trios derive from orders keys (Null
        Shape when k%7=0, mirroring the null-geometry policy of the
        reference's GPKG path load.py:143), the reader shards by .shx
        record ranges, decodes dBase attributes typed, and the WKB bbox
        areas + an attribute sum aggregate per dbf ZONE. Oracle
        recomputes from the generating formulas."""
        from hand_index_ray.kernels import wkb as wkblib
        from hand_index_ray.sources import shapefile as shplib

        root = _cache_dir("shp_src", os.path.basename(os.path.normpath(sf)))
        marker = os.path.join(root, "_done")
        if not os.path.exists(marker):
            os.makedirs(root, exist_ok=True)
            keys = _tbl(sf, "orders").column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 101 == 0])
            for part in range(4):
                ks = [int(k) for k in keys if k % 4 == part]
                geoms, zones, hts = [], [], []
                for k in ks:
                    zones.append((k // 101) % 5)
                    hts.append((k * 17) % 1000)
                    if k % 7 == 0:
                        geoms.append(None)
                    else:
                        s = float(1 + k % 4)
                        x0 = float((k * 11) % 300 - 150)
                        y0 = float((k * 5) % 160 - 80)
                        ring = np.array(
                            [[x0, y0], [x0 + s, y0], [x0 + s, y0 + s],
                             [x0, y0 + s], [x0, y0]])
                        geoms.append([[ring]])
                shplib.write_shapefile(
                    os.path.join(root, f"catch_{part}"), geoms,
                    fields={"FID_K": ks, "ZONE": zones, "HT": hts})
            with open(marker, "w") as f:
                f.write("ok")

        ds = shplib.read_shapefile(os.path.join(root, "catch_*.shp"))

        def feat(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "wkb" not in t.column_names:
                return pa.table({"zone": pa.array([], pa.int64()),
                                 "area_sum": pa.array([], pa.int64()),
                                 "ht": pa.array([], pa.int64())})
            r = wkblib.decode(t.column("wkb").to_pylist())
            starts = r.ring_coord_off[r.part_ring_off[r.geom_part_off[:-1]]]
            mx = np.maximum.reduceat(r.coords, starts, axis=0)
            mn = np.minimum.reduceat(r.coords, starts, axis=0)
            area = np.round((mx[:, 0] - mn[:, 0])
                            * (mx[:, 1] - mn[:, 1])).astype(np.int64)
            return pa.table({"zone": pc.cast(t.column("ZONE"), pa.int64()),
                             "area_sum": pa.array(area, pa.int64()),
                             "ht": pc.cast(t.column("HT"), pa.int64())})

        agg = rel.grouped_agg(
            ds.map_batches(feat, batch_format="pyarrow"),
            ["zone"], sum_cols=["area_sum", "ht"])
        df = agg.to_pandas().rename(columns={"ht": "ht_sum", "n": "n_feat"})
        return df[["zone", "n_feat", "area_sum", "ht_sum"]] \
            .sort_values("zone").reset_index(drop=True)

    def q148_mvt_tiles(sf):  # vector-tile sink: per-tile MVT encode
        """Mapbox Vector Tile sink surface (kernels/mvt.py — protobuf
        wire + spec-2.1 command/zigzag geometry encoding, implemented
        from the published spec): features derived from orders keys
        are grouped per tile, each tile's features encode into ONE
        protobuf blob (dictionary-deduplicated tags), decode back, and
        per-tile aggregates are computed from the DECODED data — so
        the oracle's formula recomputation proves the whole wire
        round-trip is lossless."""
        from hand_index_ray.kernels import mvt as mvtlib

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 211 == 0].astype(np.int64)
            return pa.table({
                "tile": pa.array(keys % 6, pa.int64()),
                "k": pa.array(keys, pa.int64()),
                "x0": pa.array((keys * 19) % 4000, pa.int64()),
                "y0": pa.array((keys * 23) % 4000, pa.int64()),
                "s": pa.array(1 + keys % 7, pa.int64()),
                "ht": pa.array((keys * 29) % 500, pa.int64()),
            })

        feats = orders.map_batches(gen, batch_format="pyarrow")

        def encode_tile_group(g):
            tile = int(g["tile"].iloc[0])
            fl = []
            for _, row in g.iterrows():
                x0, y0, s = int(row.x0), int(row.y0), int(row.s)
                ring = np.array([[x0, y0], [x0 + s, y0],
                                 [x0 + s, y0 + s], [x0, y0 + s]])
                fl.append({"id": int(row.k), "type": mvtlib.POLYGON,
                           "geometry": [[ring]],
                           "tags": {"ht": int(row.ht)}})
            blob = mvtlib.encode_tile([{"name": "catch", "features": fl}])
            dec = mvtlib.decode_tile(blob)[0]["features"]
            assert len(dec) == len(fl)
            vert = ht = 0
            for f in dec:
                for part in f["geometry"]:
                    for r in part:
                        vert += int(r.sum())
                ht += int(f["tags"]["ht"])
            return pd.DataFrame({"tile": [tile], "n_feat": [len(dec)],
                                 "vert_sum": [vert], "ht_sum": [ht]})

        out = rel.grouped_apply_bucketed(feats, ["tile"],
                                         encode_tile_group,
                                         num_buckets=8)
        df = out.to_pandas()
        for c in ("tile", "n_feat", "vert_sum", "ht_sum"):
            df[c] = df[c].astype(np.int64)
        return df[["tile", "n_feat", "vert_sum", "ht_sum"]] \
            .sort_values("tile").reset_index(drop=True)

    def q149_zorder_scan(sf):  # Morton-key bbox scan with range cover
        """Z-order spatial index scan (kernels/zorder.py): footprint
        grid coords → vectorized Morton keys; a query bbox becomes an
        EXACT set of contiguous key ranges by linear-quadtree
        decomposition, then a capped (coarsened) cover whose over-
        selection is removed by decoding the keys back — so the result
        also proves encode/decode are inverse. At scale this is the
        sorted-column pruning path: ranges map to parquet row groups.
        The oracle recomputes the 8-bit interleave arithmetically."""
        from hand_index_ray.kernels import zorder as z

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        X0, Y0, X1, Y1 = 40, 25, 199, 170
        ranges = z.bbox_ranges(X0, Y0, X1, Y1, 8, max_ranges=24)

        def scan(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 3 == 0].astype(np.int64)
            x = (keys * 13) % 256
            y = (keys * 7) % 256
            mk = z.encode(x, y).astype(np.int64)
            cand = z.keys_in_ranges(mk, ranges)
            # exact re-verify from the DECODED key (roundtrip proof)
            dx, dy = z.decode(mk[cand])
            keep = (dx >= X0) & (dx <= X1) & (dy >= Y0) & (dy <= Y1)
            sel = mk[cand][keep]
            return pa.table({
                "n": pa.array([int(keep.sum())], pa.int64()),
                "key_sum": pa.array([int(sel.sum())], pa.int64()),
                "xy_sum": pa.array([int(dx[keep].sum()
                                        + dy[keep].sum())], pa.int64())})

        parts = orders.map_batches(scan, batch_format="pyarrow") \
            .to_pandas()
        return pd.DataFrame({"n": [int(parts.n.sum())],
                             "key_sum": [int(parts.key_sum.sum())],
                             "xy_sum": [int(parts.xy_sum.sum())]})

    def q150_hillshade(sf):  # integer lambertian hillshade aggregates
        """Hillshade quick-look (pipelines/terrain.py:hillshade_stats):
        per interior pixel raw = 128 - 2*gx - 3*gy with SIGNED central
        differences (directional light — the lambertian product the
        normalizing-sqrt renderers approximate), clipped at 0;
        per-raster shade sum + shadowed-pixel count. Map-only."""
        from hand_index_ray.pipelines.terrain import hillshade_stats
        ds = _terrain_blobs(sf, 157, 40, 30, 11, 5, 3, 199,
                            compression="deflate", predictor=2)
        df = hillshade_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q151_las_source(sf):  # LiDAR point-cloud ingest (LAS 1.2)
        """LAS point-cloud source (sources/las.py — ASPRS 1.2 spec):
        fixture tiles with formula-derived points (16 per key), read
        back via record-range shards (one structured frombuffer per
        shard, zero per-point Python), aggregated per classification.
        The raw int32 grid coords stay exact, so the oracle recomputes
        everything from the generating formulas."""
        from hand_index_ray.sources import las as laslib

        root = _cache_dir("las_src", os.path.basename(os.path.normpath(sf)))
        marker = os.path.join(root, "_done")
        if not os.path.exists(marker):
            os.makedirs(root, exist_ok=True)
            keys = _tbl(sf, "orders").column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 223 == 0]).astype(np.int64)
            ii = np.arange(16, dtype=np.int64)
            for part in range(3):
                ks = keys[keys % 3 == part]
                kk = np.repeat(ks, 16)
                iv = np.tile(ii, len(ks))
                laslib.write_las(
                    os.path.join(root, f"tile_{part}.las"),
                    (kk * 7 + iv * 13) % 10000,
                    (kk * 11 + iv * 17) % 10000,
                    (kk * 3 + iv * 5) % 500,
                    intensity=(kk * 19 + iv) % 1024,
                    cls=(kk + iv) % 6)
            with open(marker, "w") as f:
                f.write("ok")

        ds = laslib.read_las(os.path.join(root, "tile_*.las"),
                             shard_points=1024)
        agg = rel.grouped_agg(
            ds.map_batches(lambda t: t.select(
                ["classification", "xi", "zi", "intensity"]),
                batch_format="pyarrow"),
            ["classification"], sum_cols=["xi", "zi", "intensity"])
        df = agg.to_pandas().rename(columns={
            "xi": "xi_sum", "zi": "zi_sum", "intensity": "int_sum",
            "n": "n_pts"})
        return df[["classification", "n_pts", "xi_sum", "zi_sum",
                   "int_sum"]].sort_values("classification") \
            .reset_index(drop=True)

    def q152_wkt_export(sf):  # WKT interchange emit + parse roundtrip
        """WKT export surface (kernels/wkt.py): WKB squares from
        formulas emit as canonical WKT strings (integer coords print
        bare), each string re-parsed and checked against the source
        coords before emission — the oracle builds the identical
        strings with SQL concatenation, so a hash match proves the
        emitter's exact formatting AND the parser's inverse."""
        from hand_index_ray.kernels import wkb as wkblib
        from hand_index_ray.kernels import wkt as wktlib

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 227 == 0].astype(np.int64)
            if len(keys) == 0:
                return pa.table({"o_orderkey": pa.array([], pa.int64()),
                                 "wkt": pa.array([], pa.string())})
            x0 = (keys * 9) % 500
            y0 = (keys * 13) % 400
            s = 1 + keys % 6
            blobs = wkblib.encode_box(x0.astype(float), y0.astype(float),
                                      (x0 + s).astype(float),
                                      (y0 + s).astype(float))
            rag = wkblib.decode(blobs)
            wkts = wktlib.encode_wkt(rag)
            back = wktlib.decode_wkt(wkts)
            assert np.array_equal(back.coords, rag.coords)
            return pa.table({"o_orderkey": pa.array(keys, pa.int64()),
                             "wkt": pa.array(wkts, pa.string())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q153_geojsonseq(sf):  # NDJSON Feature stream source
        """GeoJSONSeq source (sources/geojsonseq.py — one Feature per
        line, the GDAL-GeoJSONSeq / RFC-8142 streaming layout): NDJSON
        fixtures from orders formulas are read through read_text →
        batch JSON parse → WKB, then per-zone bbox-area + property
        aggregates. The sink's canonical integer formatting keeps the
        text roundtrip exact, so the oracle recomputes from formulas."""
        from hand_index_ray.kernels import wkb as wkblib
        from hand_index_ray.sources import geojsonseq as gjslib

        root = _cache_dir("gjs_src", os.path.basename(os.path.normpath(sf)))
        marker = os.path.join(root, "_done")
        if not os.path.exists(marker):
            os.makedirs(root, exist_ok=True)
            keys = _tbl(sf, "orders").column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 241 == 0]).astype(np.int64)
            for part in range(2):
                ks = keys[keys % 2 == part]
                x0 = (ks * 3) % 600
                y0 = (ks * 5) % 400
                s = 1 + ks % 5
                rag = wkblib.decode(wkblib.encode_box(
                    x0.astype(float), y0.astype(float),
                    (x0 + s).astype(float), (y0 + s).astype(float)))
                props = [{"zone": int((k // 241) % 4),
                          "ht": int((k * 23) % 800)} for k in ks]
                gjslib.write_geojsonseq(
                    os.path.join(root, f"feat_{part}.ndjson"), rag, props)
            with open(marker, "w") as f:
                f.write("ok")

        ds = gjslib.read_geojsonseq(os.path.join(root, "feat_*.ndjson"))

        def feat(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "wkb" not in t.column_names:
                return pa.table({"zone": pa.array([], pa.int64()),
                                 "area_sum": pa.array([], pa.int64()),
                                 "ht": pa.array([], pa.int64())})
            r = wkblib.decode(t.column("wkb").to_pylist())
            starts = r.ring_coord_off[r.part_ring_off[r.geom_part_off[:-1]]]
            mx = np.maximum.reduceat(r.coords, starts, axis=0)
            mn = np.minimum.reduceat(r.coords, starts, axis=0)
            area = np.round((mx[:, 0] - mn[:, 0])
                            * (mx[:, 1] - mn[:, 1])).astype(np.int64)
            return pa.table({"zone": pc.cast(t.column("zone"), pa.int64()),
                             "area_sum": pa.array(area, pa.int64()),
                             "ht": pc.cast(t.column("ht"), pa.int64())})

        agg = rel.grouped_agg(
            ds.map_batches(feat, batch_format="pyarrow"),
            ["zone"], sum_cols=["area_sum", "ht"])
        df = agg.to_pandas().rename(columns={"ht": "ht_sum", "n": "n_feat"})
        return df[["zone", "n_feat", "area_sum", "ht_sum"]] \
            .sort_values("zone").reset_index(drop=True)

    def q154_las_catchment_join(sf):  # point-cloud × vector PIP join
        """LiDAR-to-catchment enrichment (the HAND ingest step before
        gridding): the q151 LAS tiles stream against a BROADCAST
        catchment-rectangle table (supplier formulas — small side via
        ray.put, the J7 no-shuffle pattern); per-batch vectorized
        containment, per-catchment point count + elevation sum.
        Oracle: BETWEEN cross join on the two formula CTEs."""
        from hand_index_ray.sources import las as laslib

        q151_las_source(sf)  # ensure the LAS fixture exists
        root = _cache_dir("las_src", os.path.basename(os.path.normpath(sf)))
        sup = _tbl(sf, "supplier").column("s_suppkey").to_numpy()
        sup = np.sort(sup[sup % 7 == 0]).astype(np.int64)
        rx0 = (sup * 31) % 9000
        ry0 = (sup * 41) % 9000
        rw = 400 + sup % 600
        rh = 300 + sup % 500
        import ray as _ray
        rects_ref = _ray.put((sup, rx0, ry0, rx0 + rw, ry0 + rh))

        def pip_join(t: pa.Table) -> pa.Table:
            s_, x0, y0, x1, y1 = _ray.get(rects_ref)
            xi = t.column("xi").to_numpy()
            yi = t.column("yi").to_numpy()
            zi = t.column("zi").to_numpy()
            ss, ns, zs = [], [], []
            for j in range(len(s_)):
                m = ((xi >= x0[j]) & (xi <= x1[j])
                     & (yi >= y0[j]) & (yi <= y1[j]))
                if m.any():
                    ss.append(int(s_[j]))
                    ns.append(int(m.sum()))
                    zs.append(int(zi[m].sum()))
            return pa.table({"s_suppkey": pa.array(ss, pa.int64()),
                             "n_pts": pa.array(ns, pa.int64()),
                             "zi": pa.array(zs, pa.int64())})

        ds = laslib.read_las(os.path.join(root, "tile_*.las"),
                             shard_points=1024)
        agg = rel.grouped_agg(
            ds.map_batches(pip_join, batch_format="pyarrow"),
            ["s_suppkey"], sum_cols=["n_pts", "zi"], count=False)
        df = agg.to_pandas().rename(columns={"zi": "zi_sum"})
        return df[["s_suppkey", "n_pts", "zi_sum"]] \
            .sort_values("s_suppkey").reset_index(drop=True)

    def q155_ground_filter(sf):  # LiDAR ground classification
        """Ground-point extraction (the classic progressive-filter
        core): per 500-unit grid cell the minimum elevation, each
        point classified ground when zi - cell_min <= 20. Grid minima
        via grouped partial-agg, tagged back by a BROADCAST join (two
        passes over a streaming source, no big shuffle); per-column
        (cell_x) ground/total counts. Oracle: MIN() OVER (PARTITION BY
        cell)."""
        from hand_index_ray.sources import las as laslib

        q151_las_source(sf)
        root = _cache_dir("las_src", os.path.basename(os.path.normpath(sf)))

        def cells(t: pa.Table) -> pa.Table:
            xi = t.column("xi").to_numpy()
            yi = t.column("yi").to_numpy()
            zi = t.column("zi").to_numpy()
            return pa.table({"cx": pa.array(xi // 500, pa.int64()),
                             "cy": pa.array(yi // 500, pa.int64()),
                             "zi": pa.array(zi, pa.int64())})

        src = lambda: laslib.read_las(  # noqa: E731
            os.path.join(root, "tile_*.las"), shard_points=1024) \
            .map_batches(cells, batch_format="pyarrow")

        minima = pa.Table.from_pandas(
            rel.grouped_agg(src(), ["cx", "cy"], min_cols=["zi"],
                            count=False).to_pandas(),
            preserve_index=False)
        pts = rel.broadcast_join(src(), minima, ["cx", "cy"])

        def classify(t: pa.Table) -> pa.Table:
            zi = t.column("zi").to_numpy()
            mn = t.column("min_zi").to_numpy()
            ground = (zi - mn) <= 20
            return pa.table({"cell_x": t.column("cx"),
                             "n_ground": pa.array(
                                 ground.astype(np.int64), pa.int64()),
                             "one": pa.array(
                                 np.ones(len(zi), np.int64), pa.int64())})

        agg = rel.grouped_agg(
            pts.map_batches(classify, batch_format="pyarrow"),
            ["cell_x"], sum_cols=["n_ground", "one"], count=False)
        df = agg.to_pandas().rename(columns={"one": "n_pts"})
        return df[["cell_x", "n_ground", "n_pts"]] \
            .sort_values("cell_x").reset_index(drop=True)

    def q156_zorder_pruned_scan(sf):  # persisted z-index, pruned read
        """The persisted half of q149: footprints written ONCE as a
        Morton-SORTED parquet with small row groups; a bbox query
        turns into key ranges (kernels/zorder.py), the scan reads ONLY
        row groups whose [min, max] key statistics intersect a range
        (asserted: touched row groups < total), then decode-re-verify
        removes the over-cover. This is the 100 TB pruning path made
        concrete: range cover → row-group statistics → partial read."""
        import pyarrow.parquet as pq

        from hand_index_ray.kernels import zorder as z

        root = _cache_dir("zidx", os.path.basename(os.path.normpath(sf)))
        fp = os.path.join(root, "zsorted.parquet")
        if not os.path.exists(fp):
            os.makedirs(root, exist_ok=True)
            keys = _tbl(sf, "orders").column("o_orderkey").to_numpy()
            keys = keys[keys % 2 == 0].astype(np.int64)
            x = (keys * 29) % 1024
            y = (keys * 37) % 1024
            mk = z.encode(x, y).astype(np.int64)
            order = np.argsort(mk, kind="stable")
            tbl = pa.table({"mk": pa.array(mk[order], pa.int64()),
                            "k": pa.array(keys[order], pa.int64())})
            tmp = fp + ".tmp"
            pq.write_table(tbl, tmp, row_group_size=128)
            os.replace(tmp, fp)

        X0, Y0, X1, Y1 = 100, 50, 420, 300
        ranges = z.bbox_ranges(X0, Y0, X1, Y1, 10, max_ranges=32)
        f = pq.ParquetFile(fp)
        touched = []
        for rg in range(f.metadata.num_row_groups):
            st = f.metadata.row_group(rg).column(0).statistics
            lo, hi = st.min, st.max
            # row group intersects any range?
            i = np.searchsorted(ranges[:, 0], hi, side="right") - 1
            if (i >= 0 and ranges[i, 1] >= lo) or \
               (i + 1 < len(ranges) and ranges[i + 1, 0] <= hi):
                touched.append(rg)
        assert 0 < len(touched) < f.metadata.num_row_groups, \
            (len(touched), f.metadata.num_row_groups)
        t = f.read_row_groups(touched)
        mk = t.column("mk").to_numpy()
        cand = z.keys_in_ranges(mk, ranges)
        dx, dy = z.decode(mk[cand].astype(np.uint64))
        keep = (dx >= X0) & (dx <= X1) & (dy >= Y0) & (dy <= Y1)
        kk = t.column("k").to_numpy()[cand][keep]
        return pd.DataFrame({"n": [int(keep.sum())],
                             "k_sum": [int(kk.sum())],
                             "key_sum": [int(mk[cand][keep].sum())]})

    def q157_las_to_dem(sf):  # point cloud → gridded DEM raster
        """The gridding step that turns LiDAR into the DEMs the HAND
        family consumes: per 500-unit cell floor-mean elevation from
        the q151 LAS tiles (grouped partial sums — the only shuffle),
        the 20×20 mean grid PACKED into a real GeoTIFF (nodata -1 for
        empty cells), decoded back, and per-grid-row aggregates taken
        from the DECODED raster — the oracle's floor-div groupby proves
        grid + raster round-trip. Driver-side collect is the bounded
        400-cell grid, never the points."""
        from hand_index_ray.kernels.geotiff import (decode_geotiff,
                                                    encode_geotiff)
        from hand_index_ray.sources import las as laslib

        q151_las_source(sf)
        root = _cache_dir("las_src", os.path.basename(os.path.normpath(sf)))

        def cells(t: pa.Table) -> pa.Table:
            xi = t.column("xi").to_numpy()
            yi = t.column("yi").to_numpy()
            zi = t.column("zi").to_numpy()
            return pa.table({"cx": pa.array(xi // 500, pa.int64()),
                             "cy": pa.array(yi // 500, pa.int64()),
                             "zi": pa.array(zi, pa.int64())})

        ds = laslib.read_las(os.path.join(root, "tile_*.las"),
                             shard_points=1024) \
            .map_batches(cells, batch_format="pyarrow")
        gridded = rel.grouped_agg(ds, ["cx", "cy"], sum_cols=["zi"]) \
            .to_pandas()  # ≤ 400 rows: the grid, not the points
        dem = np.full((20, 20), -1, np.int32)
        cy = gridded.cy.to_numpy(np.int64)
        cx = gridded.cx.to_numpy(np.int64)
        dem[cy, cx] = (gridded.zi.to_numpy(np.int64)
                       // gridded.n.to_numpy(np.int64)).astype(np.int32)
        blob = encode_geotiff(dem, compression="deflate", predictor=2)
        back, info = decode_geotiff(blob)
        assert info["compression"] == "deflate"
        assert np.array_equal(back, dem)
        valid = back >= 0
        return pd.DataFrame({
            "gy": np.arange(20, dtype=np.int64),
            "n_cells": valid.sum(axis=1).astype(np.int64),
            "mean_sum": np.where(valid, back, 0).sum(axis=1)
            .astype(np.int64)})

    def q158_fir_decimate(sf):  # integer FIR low-pass + 4x decimation
        """Audio downsampling (the resample stage of any speech
        corpus): PCM16 clips (q35's WAV round-trip) convolved with the
        integer taps [1,2,3,4,3,2,1] and decimated 4× — one
        np.convolve per clip, valid region only, exact int64. Oracle:
        a 7-term dot product over the sample formula at stride 4."""
        from hand_index_ray.kernels.audio import decode_wav, encode_wav

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        taps = np.array([1, 2, 3, 4, 3, 2, 1], np.int64)

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 197 == 0]
            out_k, out_n, out_s, out_m = [], [], [], []
            for k in keys:
                n = 160 + int(k) % 120
                i = np.arange(n, dtype=np.int64)
                v = (int(k) * 13 + i * 31) % 2000 - 1000
                blob = encode_wav(v / 32768.0, 16000, bits=16)
                x, _rate = decode_wav(blob)
                s = np.round(x * 32768.0).astype(np.int64)
                y = np.convolve(s, taps[::-1], mode="valid")[::4]
                out_k.append(int(k))
                out_n.append(len(y))
                out_s.append(int(y.sum()))
                out_m.append(int(y.max()))
            return pa.table({"o_orderkey": pa.array(out_k, pa.int64()),
                             "n_out": pa.array(out_n, pa.int64()),
                             "y_sum": pa.array(out_s, pa.int64()),
                             "y_max": pa.array(out_m, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q159_reclassify(sf):  # raster reclass via lookup table
        """Raster reclassification (land-cover / flood-class maps):
        decoded GeoTIFF values mapped through a 256-entry LUT (one
        vectorized gather per raster — class = value bucket), per-
        (raster, class) pixel counts and value sums. Oracle: the same
        buckets as a CASE expression."""
        from hand_index_ray.kernels.geotiff import decode_geotiff

        ds = _terrain_blobs(sf, 163, 36, 27, 9, 7, 5, 256,
                            compression="lzw", predictor=2)
        # LUT: 0-63→0, 64-127→1, 128-191→2, 192-223→3, 224-255→4
        lut = np.zeros(256, np.int64)
        lut[64:128] = 1; lut[128:192] = 2
        lut[192:224] = 3; lut[224:] = 4

        def fn(t: pa.Table) -> pa.Table:
            ks, cls, cnt, vs = [], [], [], []
            for i in range(t.num_rows):
                k = t.column("o_orderkey")[i].as_py()
                arr, _ = decode_geotiff(t.column("bytes")[i].as_py())
                c = lut[arr.astype(np.int64)]
                for cid in np.unique(c):
                    m = c == cid
                    ks.append(k); cls.append(int(cid))
                    cnt.append(int(m.sum()))
                    vs.append(int(arr.astype(np.int64)[m].sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "cls": pa.array(cls, pa.int64()),
                             "n_px": pa.array(cnt, pa.int64()),
                             "v_sum": pa.array(vs, pa.int64())})

        df = ds.map_batches(fn, batch_format="pyarrow").to_pandas()
        return df.sort_values(["o_orderkey", "cls"]).reset_index(drop=True)

    def q160_dem_difference(sf):  # DEM of difference (two epochs)
        """Change detection between two raster epochs (the
        geomorphologist's 'DEM of difference'): epoch A and B rasters
        per key decode independently, the per-pixel signed difference
        splits into erosion (negative) and deposition (positive)
        volumes plus unchanged-pixel counts. Both epochs ride the same
        GeoTIFF codec; the oracle differences the two formulas."""
        from hand_index_ray.kernels.geotiff import (decode_geotiff,
                                                    encode_geotiff)

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(22, dtype=np.int64),
                             np.arange(30, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 167 == 0]
            ks, dep, ero, unch = [], [], [], []
            for k in keys:
                k = int(k)
                a = (k * 7 + xx * 5 + yy * 9) % 211
                b = (k * 3 + xx * 11 + yy * 2) % 211
                da, _ = decode_geotiff(encode_geotiff(
                    a.astype(np.int32), compression="deflate", predictor=2))
                db, _ = decode_geotiff(encode_geotiff(
                    b.astype(np.int32), compression="lzw", predictor=2))
                d = db.astype(np.int64) - da.astype(np.int64)
                ks.append(k)
                dep.append(int(d[d > 0].sum()))
                ero.append(int(-d[d < 0].sum()))
                unch.append(int((d == 0).sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "deposition": pa.array(dep, pa.int64()),
                             "erosion": pa.array(ero, pa.int64()),
                             "n_same": pa.array(unch, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q161_inundation(sf):  # FIM: hydrotable stage → depth raster
        """Flood-inundation mapping — the reference's end product
        (hydrotable stage lookup + HAND thresholding,
        query_geojson.py semantics): per catchment a synthetic
        relative-elevation raster rides the GeoTIFF codec, the
        forecast discharge interpolates INTEGER stage from a
        piecewise-linear hydrotable (floor arithmetic, bracketing
        breakpoint), and depth = max(0, stage - hand) yields flooded
        pixel counts + depth volumes. Oracle: the same bracketing +
        interpolation in SQL."""
        from hand_index_ray.kernels.geotiff import (decode_geotiff,
                                                    encode_geotiff)

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(18, dtype=np.int64),
                             np.arange(24, dtype=np.int64), indexing="ij")
        jj = np.arange(10, dtype=np.int64)

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 179 == 0]
            ks, stages, nf, dsum = [], [], [], []
            for k in keys:
                k = int(k)
                hand = (k * 5 + xx * 3 + yy * 7) % 97
                hv, _ = decode_geotiff(encode_geotiff(
                    hand.astype(np.int32), compression="deflate",
                    predictor=2))
                a = 3 + k % 5
                dis = jj * jj * a + jj          # monotone breakpoints
                stg = jj * 12
                q = (k * 37) % int(dis[-1])     # within table range
                j = int(np.searchsorted(dis, q, side="right") - 1)
                stage = int(stg[j] + (q - dis[j]) * 12
                            // (dis[j + 1] - dis[j]))
                depth = stage - hv.astype(np.int64)
                ks.append(k)
                stages.append(stage)
                nf.append(int((depth > 0).sum()))
                dsum.append(int(depth[depth > 0].sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "stage": pa.array(stages, pa.int64()),
                             "n_flooded": pa.array(nf, pa.int64()),
                             "depth_sum": pa.array(dsum, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q162_corner_nms(sf):  # keypoint response + 3×3 non-max suppression
        """Keypoint detection core (Harris/FAST-style): an integer
        corner response per interior pixel (|gx|·|gy| of central
        differences — strong at orthogonal edges), then 3×3
        NON-MAX SUPPRESSION: a pixel survives only if its response
        STRICTLY exceeds all 8 neighbors. Vectorized as shifted
        slices; per-image keypoint count + response sum. Oracle: the
        9-way strict comparison in SQL."""
        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        H, W = 20, 26
        yy, xx = np.meshgrid(np.arange(H, dtype=np.int64),
                             np.arange(W, dtype=np.int64), indexing="ij")

        def resp(k):
            v = (k * 7 + xx * xx * 3 + yy * yy * 5 + xx * yy) % 151
            gx = np.abs(v[1:-1, 2:] - v[1:-1, :-2])
            gy = np.abs(v[2:, 1:-1] - v[:-2, 1:-1])
            return gx * gy  # (H-2, W-2)

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 193 == 0]
            ks, nk, rs = [], [], []
            for k in keys:
                r = resp(int(k))
                c = r[1:-1, 1:-1]
                peak = np.ones_like(c, bool)
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dx == 0 and dy == 0:
                            continue
                        peak &= c > r[1 + dy:r.shape[0] - 1 + dy,
                                      1 + dx:r.shape[1] - 1 + dx]
                ks.append(int(k))
                nk.append(int(peak.sum()))
                rs.append(int(c[peak].sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "n_keypoints": pa.array(nk, pa.int64()),
                             "resp_sum": pa.array(rs, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q163_palette_quantize(sf):  # nearest-palette color quantization
        """Color quantization to a fixed 8-entry palette (integer
        squared-distance argmin, first-wins tie-break) — the
        preprocessing step of palette-PNG export and perceptual
        bucketing. Per (image, palette-entry) pixel counts + distance
        sums. Oracle: the 8 candidate distances with a first-min
        ROW_NUMBER."""
        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        H, W = 16, 22
        yy, xx = np.meshgrid(np.arange(H, dtype=np.int64),
                             np.arange(W, dtype=np.int64), indexing="ij")
        pal = np.stack([(np.arange(8) * 36) % 256,
                        (np.arange(8) * 52 + 17) % 256,
                        (np.arange(8) * 77 + 5) % 256], axis=1) \
            .astype(np.int64)  # (8, 3)

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 181 == 0]
            ks, pe, cnt, dsums = [], [], [], []
            for k in keys:
                k = int(k)
                r = (k * 3 + xx * 7 + yy * 11) % 256
                g = (k * 5 + xx * 13 + yy * 3) % 256
                b = (k * 11 + xx * 2 + yy * 17) % 256
                px = np.stack([r, g, b], axis=-1).reshape(-1, 3)
                d = ((px[:, None, :] - pal[None, :, :]) ** 2).sum(axis=2)
                best = np.argmin(d, axis=1)  # first-min tie-break
                bd = d[np.arange(len(px)), best]
                for e in np.unique(best):
                    m = best == e
                    ks.append(k); pe.append(int(e))
                    cnt.append(int(m.sum())); dsums.append(int(bd[m].sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "entry": pa.array(pe, pa.int64()),
                             "n_px": pa.array(cnt, pa.int64()),
                             "d_sum": pa.array(dsums, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values(["o_orderkey", "entry"]).reset_index(drop=True)

    def q164_template_match(sf):  # integer cross-correlation argmax
        """Template matching (integer cross-correlation — the
        registration primitive behind tile alignment and QC): a 3×3
        per-image template slides over the image, best position =
        max score with row-major first-wins tie-break. Vectorized as
        9 shifted-slice multiply-adds. Oracle: 9-term score over all
        positions + ROW_NUMBER(score DESC, y, x)."""
        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        H, W = 20, 24
        yy, xx = np.meshgrid(np.arange(H, dtype=np.int64),
                             np.arange(W, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 191 == 0]
            ks, bx, by, bs = [], [], [], []
            for k in keys:
                k = int(k)
                img = (k * 3 + xx * 13 + yy * 7) % 64
                tpl = np.array([[(k * 5 + i * 3 + j * 11) % 9
                                 for j in range(3)] for i in range(3)],
                               np.int64)
                score = np.zeros((H - 2, W - 2), np.int64)
                for i in range(3):
                    for j in range(3):
                        score += tpl[i, j] * img[i:i + H - 2, j:j + W - 2]
                pos = int(np.argmax(score))  # row-major first max
                ks.append(k)
                by.append(pos // (W - 2))
                bx.append(pos % (W - 2))
                bs.append(int(score.ravel()[pos]))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "best_x": pa.array(bx, pa.int64()),
                             "best_y": pa.array(by, pa.int64()),
                             "best_score": pa.array(bs, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q165_pii_redact(sf):  # PII scrub: count + redact emails
        """Curation-time PII scrubbing over the documents table:
        emails (injected deterministically per doc so the corpus has
        known PII) are counted and replaced with a placeholder —
        ALL-Arrow kernels (count_substring_regex /
        replace_substring_regex, RE2 — the same engine DuckDB uses,
        so redacted lengths compare exactly)."""
        docs = _t(sf, "documents").select_columns(["doc_id", "text"])
        pat = r"[A-Za-z0-9_.]+@[A-Za-z0-9]+\.[A-Za-z]{2,4}"

        def gen(t: pa.Table) -> pa.Table:
            idn = t.column("doc_id").to_numpy()
            t = t.filter(pa.array(idn % 5 == 0))
            idn = t.column("doc_id").to_numpy()
            ids = t.column("doc_id")
            txt = pc.binary_join_element_wise(
                t.column("text"),
                pc.binary_join_element_wise(
                    pa.array(["contact u"] * t.num_rows),
                    pc.cast(ids, pa.string()),
                    pa.array(["@ex"] * t.num_rows),
                    pa.array((idn % 7).astype("U"), pa.string()),
                    pa.array([".com now"] * t.num_rows), ""),
                " ")
            n = pc.count_substring_regex(txt, pat)
            red = pc.replace_substring_regex(txt, pat, "<EMAIL>")
            return pa.table({"doc_id": ids,
                             "n_matches": pc.cast(n, pa.int64()),
                             "red_len": pc.cast(
                                 pc.utf8_length(red), pa.int64())})

        df = docs.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("doc_id").reset_index(drop=True)

    def q166_validity_check(sf):  # geometry QC: self-intersection scan
        """Ingest-time geometry validation (every real vector corpus
        carries bowties/self-touches that break area/clip kernels
        downstream): a vectorized non-adjacent-edge proper-crossing
        test per ring (geom.ring_is_simple) flags invalid geometries.
        The fixture plants bowties at a known rule (k%3=0 swaps two
        vertices), so the oracle labels by construction while the
        ENGINE must find them geometrically. Per-zone valid/invalid
        counts + valid bbox area sum."""
        from hand_index_ray.kernels import geom as geomlib
        from hand_index_ray.kernels import wkb as wkblib

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 157 == 0].astype(np.int64)
            if len(keys) == 0:
                return pa.table({"zone": pa.array([], pa.int64()),
                                 "n_valid": pa.array([], pa.int64()),
                                 "n_invalid": pa.array([], pa.int64()),
                                 "area_sum": pa.array([], pa.int64())})
            geoms = []
            for k in keys:
                k = int(k)
                x0 = float((k * 7) % 300)
                y0 = float((k * 11) % 300)
                s = float(1 + k % 5)
                if k % 3 == 0:  # bowtie: diagonal vertex order
                    ring = np.array([[x0, y0], [x0 + s, y0 + s],
                                     [x0 + s, y0], [x0, y0 + s],
                                     [x0, y0]])
                else:
                    ring = np.array([[x0, y0], [x0 + s, y0],
                                     [x0 + s, y0 + s], [x0, y0 + s],
                                     [x0, y0]])
                geoms.append([[ring]])
            rag = wkblib.decode(wkblib.encode(wkblib.from_parts(geoms)))
            ok = geomlib.simple_flags(rag)
            s = 1 + keys % 5
            area = np.where(ok, s * s, 0).astype(np.int64)
            zone = keys % 4
            return pa.table({"zone": pa.array(zone, pa.int64()),
                             "n_valid": pa.array(ok.astype(np.int64)),
                             "n_invalid": pa.array((~ok).astype(np.int64)),
                             "area_sum": pa.array(area, pa.int64())})

        agg = rel.grouped_agg(
            orders.map_batches(gen, batch_format="pyarrow"),
            ["zone"], sum_cols=["n_valid", "n_invalid", "area_sum"],
            count=False)
        return agg.to_pandas()[["zone", "n_valid", "n_invalid",
                                "area_sum"]].sort_values("zone") \
            .reset_index(drop=True)

    def q167_gif_decode(sf):  # animated GIF ingest (LZW + palettes)
        """Animated GIF ingest (kernels/gif.py — real LSB-first LZW,
        per-frame LOCAL color tables, graphic-control delays): 3-frame
        animations built from integer formulas decode through the
        engine path; per-(image, frame) channel sums. The palette
        gather + lossless LZW make the oracle pure formula algebra."""
        from hand_index_ray.kernels import gif as giflib
        from hand_index_ray.kernels import image as imk

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(14, dtype=np.int64),
                             np.arange(18, dtype=np.int64), indexing="ij")
        ii = np.arange(16, dtype=np.int64)

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 251 == 0]
            ks, fr, sums = [], [], []
            for k in keys:
                k = int(k)
                frames = [((k + xx * 3 + yy * 5 + f * 7) % 16)
                          .astype(np.uint8) for f in range(3)]
                pals = [np.stack([(ii * 31 + f * 13 + 1) % 256,
                                  (ii * 47 + f * 3) % 256,
                                  (ii * 11 + f * 29 + 5) % 256],
                                 axis=1).astype(np.uint8)
                        for f in range(3)]
                blob = giflib.encode_gif(frames, pals,
                                         delays=[4, 4, 4])
                assert imk.sniff_format(blob) == "gif"
                dec, info = giflib.decode_gif(blob)
                assert info["n_frames"] == 3
                for f, img in enumerate(dec):
                    ks.append(k)
                    fr.append(f)
                    sums.append(int(img.astype(np.int64).sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "frame": pa.array(fr, pa.int64()),
                             "px_sum": pa.array(sums, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values(["o_orderkey", "frame"]) \
            .reset_index(drop=True)

    def q168_mixed_sniff(sf):  # untyped mixed-container ingest
        """Real-corpus ingest: the SAME image ships in four containers
        (24-bit BMP, RLE8 palette BMP, animated-capable GIF, palette
        PNG) with NO format column — magic-byte sniffing routes each
        payload to its from-spec decoder and all four must produce
        identical pixels. Per-(image, container) channel sums; the
        oracle computes one formula and fans it across containers."""
        from hand_index_ray.kernels import bmp as bmplib
        from hand_index_ray.kernels import gif as giflib
        from hand_index_ray.kernels import image as imk
        from hand_index_ray.kernels import png as pnglib

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(12, dtype=np.int64),
                             np.arange(16, dtype=np.int64), indexing="ij")
        ii = np.arange(16, dtype=np.int64)
        pal = np.stack([(ii * 29 + 3) % 256, (ii * 53 + 11) % 256,
                        (ii * 71 + 1) % 256], axis=1).astype(np.uint8)

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 257 == 0]
            ks, fmts, sums = [], [], []
            for k in keys:
                k = int(k)
                idx = ((k + xx * 2 + yy * 3) % 16).astype(np.uint8)
                rgb = pal[idx]
                blobs = {
                    "bmp24": bmplib.encode_bmp(rgb),
                    "bmp_rle": bmplib.encode_bmp(idx, palette=pal,
                                                 rle=True),
                    "gif": giflib.encode_gif(idx, pal),
                    "png_pal": pnglib.encode(idx, palette=pal),
                }
                want = int(rgb.astype(np.int64).sum())
                for name, blob in blobs.items():
                    fmt = imk.sniff_format(blob)
                    px = imk.decode(blob, fmt)
                    s = int(px.astype(np.int64).sum())
                    assert s == want, (name, s, want)
                    ks.append(k)
                    fmts.append(name)
                    sums.append(s)
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "container": pa.array(fmts, pa.string()),
                             "px_sum": pa.array(sums, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values(["o_orderkey", "container"]) \
            .reset_index(drop=True)

    def q169_zip_ingest(sf):  # archive-of-images corpus ingest
        """Dataset-distribution realism: the corpus arrives as ZIP
        archives of small image files (the standard download layout).
        sources/archive.py shards by central-directory member ranges;
        each member sniffs to its codec (PNG/BMP here), the key parses
        from the member NAME (M8 path-extract pattern), and per-(key,
        container) sums must match the single formula the oracle
        computes."""
        import zipfile as ziplib

        from hand_index_ray.kernels import bmp as bmplib
        from hand_index_ray.kernels import image as imk
        from hand_index_ray.kernels import png as pnglib
        from hand_index_ray.sources import archive as arclib

        root = _cache_dir("zip_src", os.path.basename(os.path.normpath(sf)))
        marker = os.path.join(root, "_done")
        yy, xx = np.meshgrid(np.arange(10, dtype=np.int64),
                             np.arange(14, dtype=np.int64), indexing="ij")
        ii = np.arange(16, dtype=np.int64)
        pal = np.stack([(ii * 19 + 7) % 256, (ii * 43 + 13) % 256,
                        (ii * 61 + 2) % 256], axis=1).astype(np.uint8)
        if not os.path.exists(marker):
            os.makedirs(root, exist_ok=True)
            keys = _tbl(sf, "orders").column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 263 == 0]).astype(np.int64)
            for part in range(2):
                with ziplib.ZipFile(
                        os.path.join(root, f"corpus_{part}.zip"),
                        "w") as z:
                    for k in keys[keys % 2 == part]:
                        k = int(k)
                        idx = ((k * 3 + xx + yy * 5) % 16) \
                            .astype(np.uint8)
                        z.writestr(f"img_{k}.png",
                                   pnglib.encode(idx, palette=pal))
                        z.writestr(f"img_{k}.bmp",
                                   bmplib.encode_bmp(idx, palette=pal,
                                                     rle=True))
            with open(marker, "w") as f:
                f.write("ok")

        ds = arclib.read_archive(os.path.join(root, "corpus_*.zip"))

        def feat(t: pa.Table) -> pa.Table:
            ks, cont, sums = [], [], []
            for i in range(t.num_rows):
                name = t.column("name")[i].as_py()
                blob = t.column("bytes")[i].as_py()
                fmt = imk.sniff_format(blob)
                px = imk.decode(blob, fmt)
                ks.append(int(name.split("_")[1].split(".")[0]))
                cont.append(fmt)
                sums.append(int(px.astype(np.int64).sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "container": pa.array(cont, pa.string()),
                             "px_sum": pa.array(sums, pa.int64())})

        df = ds.map_batches(feat, batch_format="pyarrow").to_pandas()
        return df.sort_values(["o_orderkey", "container"]) \
            .reset_index(drop=True)

    def q170_webdataset(sf):  # tar-shard image+caption pairs (WebDataset)
        """WebDataset ingest — the tar-shard (stem.png + stem.txt)
        layout large image+caption corpora ship in. read_webdataset
        groups adjacent same-stem members into ONE (key, png, txt)
        row with blobs kept in Arrow; pixels decode through the
        from-spec PNG codec and captions must equal the generator's
        strings byte-for-byte (input_hint: caption equality per
        row)."""
        import io as iolib
        import tarfile as tarlib

        from hand_index_ray.kernels import image as imk
        from hand_index_ray.kernels import png as pnglib
        from hand_index_ray.sources import archive as arclib

        root = _cache_dir("wds_src", os.path.basename(os.path.normpath(sf)))
        marker = os.path.join(root, "_done")
        yy, xx = np.meshgrid(np.arange(10, dtype=np.int64),
                             np.arange(14, dtype=np.int64), indexing="ij")
        ii = np.arange(16, dtype=np.int64)
        pal = np.stack([(ii * 23 + 5) % 256, (ii * 47 + 9) % 256,
                        (ii * 59 + 4) % 256], axis=1).astype(np.uint8)
        if not os.path.exists(marker):
            os.makedirs(root, exist_ok=True)
            keys = _tbl(sf, "orders").column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 269 == 0]).astype(np.int64)
            for part in range(2):
                with tarlib.open(os.path.join(root, f"shard_{part}.tar"),
                                 "w") as tf:
                    for k in keys[keys % 2 == part]:
                        k = int(k)
                        idx = ((k * 5 + xx * 2 + yy * 7) % 16) \
                            .astype(np.uint8)
                        for name, data in (
                                (f"{k:012d}.png",
                                 pnglib.encode(idx, palette=pal)),
                                (f"{k:012d}.txt",
                                 f"tile {k} of corpus".encode())):
                            info = tarlib.TarInfo(name)
                            info.size = len(data)
                            tf.addfile(info, iolib.BytesIO(data))
            with open(marker, "w") as f:
                f.write("ok")

        ds = arclib.read_webdataset(os.path.join(root, "shard_*.tar"),
                                    shard_members=64)

        def feat(t: pa.Table) -> pa.Table:
            ks = [int(s) for s in t.column("key").to_pylist()]
            caps = t.column("txt").cast(pa.string())
            sums = []
            for i in range(t.num_rows):
                px = imk.decode(t.column("png")[i].as_py(), "png")
                sums.append(int(px.astype(np.int64).sum()))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "px_sum": pa.array(sums, pa.int64()),
                             "caption": caps})

        df = ds.map_batches(feat, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q171_merge_upsert(sf):  # CDC MERGE INTO apply (latest wins)
        """Incremental catalog maintenance: apply a CDC change stream
        to a base table with Delta-MERGE semantics — latest change per
        key wins, 'D' deletes the key, unseen keys insert (the
        reference rebuilds its catalog from scratch per load,
        load.py drop+recreate; at 100 TB only an incremental merge is
        viable). base = customer(c_custkey, c_nationkey); changes
        derive from orders (ts = orderdate epoch-us, tiebreak =
        orderkey, delete when orderkey%7=0). ONE slim-row key shuffle;
        per-bucket resolution is a vectorized sort + keep-last."""
        from hand_index_ray.pipelines import table as tbl

        def prep_base(t: pa.Table) -> pa.Table:
            return pa.table({
                "k": pc.cast(t.column("c_custkey"), pa.int64()),
                "v": pc.cast(t.column("c_nationkey"), pa.int64())})

        def prep_ch(t: pa.Table) -> pa.Table:
            ok = t.column("o_orderkey").to_numpy()
            op = np.where(ok % 7 == 0, "D", "U")
            return pa.table({
                "k": pc.cast(t.column("o_custkey"), pa.int64()),
                "v": pa.array(ok % 1000, pa.int64()),
                "ts": pc.cast(t.column("o_orderdate"), pa.int64()),
                "tb": pa.array(ok, pa.int64()),
                "op": pa.array(op, pa.string())})

        base = _t(sf, "customer") \
            .select_columns(["c_custkey", "c_nationkey"]) \
            .map_batches(prep_base, batch_format="pyarrow")
        ch = _t(sf, "orders") \
            .select_columns(["o_orderkey", "o_custkey", "o_orderdate"]) \
            .map_batches(prep_ch, batch_format="pyarrow")
        merged = tbl.merge_upsert(base, ch, key="k", ts="ts",
                                  tiebreak="tb", op="op")
        return merged.to_pandas().sort_values("k").reset_index(drop=True)

    def q172_scd2(sf):  # SCD2 validity intervals from a change stream
        """Slowly-changing-dimension type-2 history build: order the
        change stream per key by (ts, tiebreak), collapse consecutive
        rows whose tracked attribute is unchanged, and emit
        [valid_from, valid_to) intervals with valid_to = -1 for the
        open interval — the standard warehouse history table, here as
        one bucketed key shuffle with whole-bucket vectorized interval
        assembly (pipelines/table.py:scd2)."""
        from hand_index_ray.pipelines import table as tbl

        def prep(t: pa.Table) -> pa.Table:
            ok = t.column("o_orderkey").to_numpy()
            return pa.table({
                "k": pc.cast(t.column("o_custkey"), pa.int64()),
                "ts": pc.cast(t.column("o_orderdate"), pa.int64()),
                "tb": pa.array(ok, pa.int64()),
                "attr": pa.array(ok % 5, pa.int64())})

        ch = _t(sf, "orders") \
            .select_columns(["o_orderkey", "o_custkey", "o_orderdate"]) \
            .map_batches(prep, batch_format="pyarrow")
        iv = tbl.scd2(ch, key="k", ts="ts", tiebreak="tb", attr="attr")
        return iv.to_pandas() \
            .sort_values(["k", "valid_from", "valid_to"]) \
            .reset_index(drop=True)

    def q173_orc_interchange(sf):  # ORC + Feather shard roundtrip
        """Warehouse interchange: orders shards out as ORC and as
        Feather (Arrow IPC) files — one file per block, streamed, no
        driver materialization (sources/columnar.py) — then BOTH
        trees read back with column pruning at the decoder and
        aggregated. Oracle = the same aggregate over the parquet
        source, doubled (two containers of the same rows); any codec
        or pruning defect breaks the sums."""
        import glob as globlib

        from hand_index_ray.sources import columnar as col

        root = _cache_dir("columnar", os.path.basename(os.path.normpath(sf)))
        marker = os.path.join(root, "_done")
        if not os.path.exists(marker):
            src = _t(sf, "orders").select_columns(
                ["o_orderkey", "o_custkey", "o_totalprice"])
            col.write_shards(src, os.path.join(root, "orc"),
                             "orc").materialize()
            col.write_shards(src, os.path.join(root, "fea"),
                             "feather").materialize()
            with open(marker, "w") as f:
                f.write("ok")
        a = col.read_shards(
            globlib.glob(os.path.join(root, "orc", "*.orc")), "orc",
            columns=["o_orderkey", "o_custkey"])
        b = col.read_shards(
            globlib.glob(os.path.join(root, "fea", "*.feather")),
            "feather", columns=["o_orderkey", "o_custkey"])

        def feat(t: pa.Table) -> pa.Table:
            ck = t.column("o_custkey").to_numpy()
            return pa.table({
                "bucket": pa.array(ck % 10, pa.int64()),
                "key_sum": pc.cast(t.column("o_orderkey"), pa.int64())})

        agg = rel.grouped_agg(a.union(b).map_batches(
            feat, batch_format="pyarrow"), ["bucket"],
            sum_cols=["key_sum"], count=True)
        df = agg.to_pandas()[["bucket", "key_sum", "n"]]
        return df.sort_values("bucket").reset_index(drop=True)

    def q174_regression(sf):  # grouped OLS slope (integer-exact)
        """Per-group linear regression of price-cents on quantity:
        mergeable integer partial sums per batch (n, Σx, Σy, Σxx, Σxy)
        → one tiny groupby, then the OLS slope emitted as an EXACT
        int64 numerator/denominator pair (n·Σxy−Σx·Σy, n·Σxx−(Σx)²) —
        no float fixpoint, so the DuckDB oracle matches bit-for-bit
        (relational.py:grouped_regression)."""
        li = _t(sf, "lineitem").select_columns(
            ["l_suppkey", "l_quantity", "l_extendedprice"])

        def prep(t: pa.Table) -> pa.Table:
            sk = t.column("l_suppkey").to_numpy()
            q = t.column("l_quantity").to_numpy()
            p = t.column("l_extendedprice").to_numpy()
            return pa.table({
                "g": pa.array(sk % 100, pa.int64()),
                "x": pa.array(q.astype(np.int64), pa.int64()),
                "y": pa.array(np.round(p * 100.0).astype(np.int64),
                              pa.int64())})

        out = rel.grouped_regression(
            li.map_batches(prep, batch_format="pyarrow"), ["g"],
            x="x", y="y")
        df = out.to_pandas()[["g", "n", "sum_x", "sum_y",
                              "slope_num", "slope_den"]]
        return df.sort_values("g").reset_index(drop=True)

    def q175_phase_corr(sf):  # FFT image registration (exact shifts)
        """Tile registration by phase correlation: each pair is a
        pseudo-noise tile and its planted cyclic shift; ONE batched
        FFT over the (N,32,32) stack recovers every displacement
        exactly (kernels/image.py:phase_correlate_batch — the
        mosaic/stitch alignment step; O(HW log HW) instead of the
        O(H²W²) spatial search). Oracle = the planted-shift formula;
        the ENGINE must find it from pixels."""
        from hand_index_ray.kernels import image as imk

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        H = W = 32
        yy, xx = np.meshgrid(np.arange(H, dtype=np.int64),
                             np.arange(W, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 181 == 0].astype(np.int64)
            if len(keys) == 0:
                return pa.table({"k": pa.array([], pa.int64()),
                                 "dy": pa.array([], pa.int64()),
                                 "dx": pa.array([], pa.int64())})
            base = (keys[:, None, None] * 17 + xx * 73 + yy * 151
                    + xx * yy * 7) % 251
            sy = keys % H
            sx = (keys * 7) % W
            shifted = np.empty_like(base)
            for i in range(len(keys)):  # per-pair roll (tiny: N≤batch)
                shifted[i] = np.roll(base[i], (int(sy[i]), int(sx[i])),
                                     (0, 1))
            d = imk.phase_correlate_batch(base.astype(np.float64),
                                          shifted.astype(np.float64))
            return pa.table({"k": pa.array(keys, pa.int64()),
                             "dy": pa.array(d[:, 0], pa.int64()),
                             "dx": pa.array(d[:, 1], pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("k").reset_index(drop=True)

    def q176_block_motion(sf):  # MPEG-style SAD motion vectors
        """Block motion estimation between consecutive frames (the
        scene-alignment / video-dedup primitive): full SAD search of
        the central 8×8 block over ±4 px, vectorized across the batch
        AND the 81-candidate window
        (kernels/image.py:block_motion_batch). Frames are pseudo-noise
        with a planted whole-frame translation, so the motion vector
        is exactly the negated plant and SAD is exactly 0 — the
        oracle states that formula, the engine searches pixels."""
        from hand_index_ray.kernels import image as imk

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        H = W = 32
        yy, xx = np.meshgrid(np.arange(H, dtype=np.int64),
                             np.arange(W, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 173 == 0].astype(np.int64)
            if len(keys) == 0:
                return pa.table({"k": pa.array([], pa.int64()),
                                 "dy": pa.array([], pa.int64()),
                                 "dx": pa.array([], pa.int64()),
                                 "sad": pa.array([], pa.int64())})
            prev = (keys[:, None, None] * 29 + xx * 67 + yy * 139
                    + xx * yy * 11) % 249
            sy = keys % 9 - 4
            sx = (keys // 9) % 9 - 4
            cur = np.empty_like(prev)
            for i in range(len(keys)):
                cur[i] = np.roll(prev[i], (int(sy[i]), int(sx[i])),
                                 (0, 1))
            m = imk.block_motion_batch(prev, cur, block=8, radius=4)
            return pa.table({"k": pa.array(keys, pa.int64()),
                             "dy": pa.array(m[:, 0], pa.int64()),
                             "dx": pa.array(m[:, 1], pa.int64()),
                             "sad": pa.array(m[:, 2], pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("k").reset_index(drop=True)

    def q177_hough_lines(sf):  # digital Hough line detection
        """Dominant-line detection (striping/scan-artifact QC): each
        fixture image carries one planted full-length line (vertical
        or horizontal by k%2, offset k%29) plus 8 noise points kept
        off the line, so the strongest Hough bin is exactly (angle,
        offset, 32 votes). kernels/image.py:hough4_batch accumulates
        all four integer direction functionals for the WHOLE batch in
        one flat bincount; the oracle states the planted formula."""
        from hand_index_ray.kernels import image as imk

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        S = 32

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 167 == 0].astype(np.int64)
            if len(keys) == 0:
                return pa.table({"k": pa.array([], pa.int64()),
                                 "angle": pa.array([], pa.int64()),
                                 "rho": pa.array([], pa.int64()),
                                 "votes": pa.array([], pa.int64())})
            n = len(keys)
            d = keys % 29
            vert = (keys % 2 == 0)
            line = np.arange(S, dtype=np.int64)
            j = np.arange(8, dtype=np.int64)
            # noise stays off the planted line: offset+1..+31 mod S != offset
            noff = (1 + (keys[:, None] * (j + 3) + j * 13) % (S - 1))
            n_on = (d[:, None] + noff) % S        # the line's own axis
            n_free = (keys[:, None] * 7 + j * 11) % S
            xs = np.empty((n, S + 8), np.int64)
            ys = np.empty((n, S + 8), np.int64)
            xs[:, :S] = np.where(vert[:, None], d[:, None], line)
            ys[:, :S] = np.where(vert[:, None], line, d[:, None])
            xs[:, S:] = np.where(vert[:, None], n_on, n_free)
            ys[:, S:] = np.where(vert[:, None], n_free, n_on)
            best = imk.hough4_batch(xs, ys, size=S)
            return pa.table({"k": pa.array(keys, pa.int64()),
                             "angle": pa.array(best[:, 0], pa.int64()),
                             "rho": pa.array(best[:, 1], pa.int64()),
                             "votes": pa.array(best[:, 2], pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("k").reset_index(drop=True)

    def q178_gpx_tracks(sf):  # GPX track ingest + per-track stats
        """GPS-trace ingest (sources/gpx.py — stdlib-XML GPX reader,
        one file per read task, coordinates parsed as EXACT integer
        microdegrees with no float round-trip): per-track point count,
        Manhattan path length in µdeg, total climb in cm, and time
        span — all integer, so the window-function oracle hashes
        identically. Fixture tracks derive from order keys; the
        writer→reader roundtrip is part of what's under test."""
        from hand_index_ray.sources import gpx as gpxlib

        root = _cache_dir("gpx_src", os.path.basename(os.path.normpath(sf)))
        marker = os.path.join(root, "_done")
        keys = _tbl(sf, "orders").column("o_orderkey").to_numpy()
        keys = np.sort(keys[keys % 131 == 0]).astype(np.int64)
        if not os.path.exists(marker):
            os.makedirs(root, exist_ok=True)
            for t in range(6):
                ks = keys[keys % 6 == t]
                pts = [(0,
                        int(35_000_000 + (k % 997) * 1000),
                        int(-98_000_000 + ((k * 3) % 997) * 1000),
                        int((k % 500) * 10),
                        int((1_600_000_000 + k % 86400) * 1_000_000))
                       for k in ks]
                gpxlib.write_gpx(os.path.join(root, f"track_{t}.gpx"),
                                 pts)
            with open(marker, "w") as f:
                f.write("ok")
        import glob as globlib

        ds = gpxlib.read_gpx(globlib.glob(os.path.join(root, "*.gpx")))

        def per_track(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["seg", "idx"], kind="mergesort")
            lat = g["lat_udeg"].to_numpy()
            lon = g["lon_udeg"].to_numpy()
            ele = g["ele_cm"].to_numpy()
            ts = g["ts_us"].to_numpy()
            dlat = np.abs(np.diff(lat))
            dlon = np.abs(np.diff(lon))
            dele = np.diff(ele)
            return pd.DataFrame({
                "track_id": [int(g["track_id"].iloc[0])],
                "n": [len(g)],
                "length_udeg": [int((dlat + dlon).sum())],
                "climb_cm": [int(dele[dele > 0].sum())],
                "span_us": [int(ts.max() - ts.min())]})

        out = rel.grouped_apply_bucketed(ds, ["track_id"], per_track,
                                         num_buckets=8)
        df = out.to_pandas()[["track_id", "n", "length_udeg",
                              "climb_cm", "span_us"]]
        return df.sort_values("track_id").reset_index(drop=True)

    def q179_tile_pyramid(sf):  # z/x/y sum-pyramid build
        """Slippy-map tile-pyramid build — the cross-tile shuffle the
        per-raster overview chains (q129/q144) don't exercise: four
        level-z tiles co-locate via a hash shuffle on the parent key
        and assemble the level-(z-1) tile, each level moving 4× less
        data than the one below (pipelines/raster.py:pyramid_reduce).
        Integer sum-pyramid ⇒ every tile's pixel sum equals the sum of
        its base region, which is exactly what the oracle recomputes
        from the base formula for ALL four levels."""
        from hand_index_ray.pipelines import raster as rst

        orders = _t(sf, "orders").select_columns(["o_orderkey"]).limit(1)
        T = 8

        def gen_base(t: pa.Table) -> pa.Table:
            # fixture: full 8×8 tile grid at z=3, pixels from a formula
            yy, xx = np.meshgrid(np.arange(T, dtype=np.int64),
                                 np.arange(T, dtype=np.int64),
                                 indexing="ij")
            zs, txs, tys, pxs = [], [], [], []
            for tx in range(8):
                for ty in range(8):
                    v = (tx * 131 + ty * 17 + xx * 7 + yy * 3) % 256
                    zs.append(3)
                    txs.append(tx)
                    tys.append(ty)
                    pxs.append(v.reshape(-1).tolist())
            return pa.table({"z": pa.array(zs, pa.int64()),
                             "tx": pa.array(txs, pa.int64()),
                             "ty": pa.array(tys, pa.int64()),
                             "px": pa.array(pxs, pa.list_(pa.int64()))})

        base = orders.map_batches(
            lambda t: gen_base(t), batch_format="pyarrow")
        levels = [base]
        for _ in range(3):
            levels.append(rst.pyramid_reduce(levels[-1], tile_px=T))

        def stats(t: pa.Table) -> pa.Table:
            n = t.num_rows
            if n == 0:
                return pa.table({"z": pa.array([], pa.int64()),
                                 "tx": pa.array([], pa.int64()),
                                 "ty": pa.array([], pa.int64()),
                                 "px_sum": pa.array([], pa.int64()),
                                 "px00": pa.array([], pa.int64())})
            px = np.asarray(t.column("px").to_pylist(), np.int64)
            return pa.table({"z": t.column("z"), "tx": t.column("tx"),
                             "ty": t.column("ty"),
                             "px_sum": pa.array(px.sum(axis=1),
                                                pa.int64()),
                             "px00": pa.array(px[:, 0], pa.int64())})

        out = levels[0].map_batches(stats, batch_format="pyarrow")
        for lv in levels[1:]:
            out = out.union(lv.map_batches(stats, batch_format="pyarrow"))
        df = out.to_pandas()
        return df.sort_values(["z", "tx", "ty"]).reset_index(drop=True)

    def q180_avro_source(sf):  # Avro OCF ingest (from-spec codec)
        """Avro container ingest (kernels/avro.py — OCF header/blocks/
        deflate from the public spec, no avro lib in the sandbox).
        All-varint record schemas decode via ONE vectorized scan per
        block (terminator-bit varint split + union record starts by
        pointer doubling — no per-record Python); the fixture uses a
        [null,long] union so the nullable path is what's under test.
        Read back as nullable Arrow columns and aggregated."""
        import glob as globlib

        from hand_index_ray.kernels import avro as avrolib
        from hand_index_ray.sources import avro_src

        root = _cache_dir("avro_src", os.path.basename(os.path.normpath(sf)))
        marker = os.path.join(root, "_done")
        if not os.path.exists(marker):
            os.makedirs(root, exist_ok=True)
            keys = _tbl(sf, "orders").column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 127 == 0]).astype(np.int64)
            schema = {"type": "record", "name": "ev", "fields": [
                {"name": "id", "type": "long"},
                {"name": "flag", "type": "boolean"},
                {"name": "cat", "type": "int"},
                {"name": "opt", "type": ["null", "long"]}]}
            for part in range(3):
                ks = keys[keys % 3 == part]
                rows = [{"id": int(k), "flag": bool(k % 3 == 0),
                         "cat": int(k % 11),
                         "opt": None if k % 4 == 0 else int(k % 100)}
                        for k in ks]
                avrolib.write_ocf(
                    os.path.join(root, f"part_{part}.avro"), schema,
                    rows, codec="deflate", block_rows=200)
            with open(marker, "w") as f:
                f.write("ok")

        ds = avro_src.read_avro(
            globlib.glob(os.path.join(root, "*.avro")))

        def feat(t: pa.Table) -> pa.Table:
            opt = t.column("opt")
            return pa.table({
                "cat": pc.cast(t.column("cat"), pa.int64()),
                "flag_n": pc.cast(t.column("flag"), pa.int64()),
                "opt_sum": pc.fill_null(opt, 0),
                "null_n": pc.cast(pc.is_null(opt), pa.int64())})

        agg = rel.grouped_agg(ds.map_batches(feat, batch_format="pyarrow"),
                              ["cat"],
                              sum_cols=["flag_n", "opt_sum", "null_n"],
                              count=True)
        df = agg.to_pandas()[["cat", "n", "flag_n", "opt_sum", "null_n"]]
        return df.sort_values("cat").reset_index(drop=True)

    def q181_table_diff(sf):  # version diff (added/removed/changed)
        """Anti-entropy table diff between two catalog versions: one
        key shuffle co-locates both sides, a vectorized boundary pass
        classifies churn, unchanged keys never leave the task
        (pipelines/table.py:table_diff — output scales with churn,
        not table size). Version B is derived from customer by rule:
        k%13=0 dropped, k%5=0 value-bumped, k%17=0 re-added under a
        shifted key."""
        from hand_index_ray.pipelines import table as tbl

        def prep_a(t: pa.Table) -> pa.Table:
            return pa.table({
                "k": pc.cast(t.column("c_custkey"), pa.int64()),
                "v": pc.cast(t.column("c_nationkey"), pa.int64())})

        def prep_b(t: pa.Table) -> pa.Table:
            k = t.column("c_custkey").to_numpy()
            v = t.column("c_nationkey").to_numpy().astype(np.int64)
            keep = k % 13 != 0
            kk = k[keep]
            vv = v[keep] + (kk % 5 == 0)
            addk = k[k % 17 == 0] + 10_000_000
            addv = (k[k % 17 == 0] % 7).astype(np.int64)
            return pa.table({
                "k": pa.array(np.concatenate([kk, addk]), pa.int64()),
                "v": pa.array(np.concatenate([vv, addv]), pa.int64())})

        cust = _t(sf, "customer").select_columns(
            ["c_custkey", "c_nationkey"])
        a = cust.map_batches(prep_a, batch_format="pyarrow")
        b = cust.map_batches(prep_b, batch_format="pyarrow")
        out = tbl.table_diff(a, b, key="k")
        return out.to_pandas().sort_values("k").reset_index(drop=True)

    def q182_frequent_pairs(sf):  # market-basket pair mining
        """Frequent co-occurring part pairs (the a-priori first round
        of market-basket / co-purchase mining): per-order distinct
        parts emit their pairs inside the keyed bucket shuffle
        (bounded by parts-per-order, never a global cross join),
        partial-agg counts shuffle as slim (p1,p2,n) rows, and the
        global top-20 merges per-block candidates via sorted_slice —
        no full sort."""
        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_partkey"])

        def pairs(g: pd.DataFrame) -> pd.DataFrame:
            parts = np.unique(g["l_partkey"].to_numpy())
            if len(parts) < 2:
                return pd.DataFrame({
                    "p1": pd.Series([], dtype="int64"),
                    "p2": pd.Series([], dtype="int64")})
            i, j = np.triu_indices(len(parts), k=1)
            return pd.DataFrame({"p1": parts[i], "p2": parts[j]})

        pr = rel.grouped_apply_bucketed(li, ["l_orderkey"], pairs,
                                        num_buckets=64,
                                        min_group_size=2)
        agg = rel.grouped_agg(pr, ["p1", "p2"], count=True)

        def neg(t: pa.Table) -> pa.Table:
            return t.append_column(
                "neg_cnt", pc.multiply(pc.cast(t.column("n"),
                                               pa.int64()),
                                       pa.scalar(-1, pa.int64())))

        top = rel.sorted_slice(agg.map_batches(neg,
                                               batch_format="pyarrow"),
                               ["neg_cnt", "p1", "p2"], 0, 20)
        top["cnt"] = -top["neg_cnt"]
        return top[["p1", "p2", "cnt"]]

    def q183_changepoint(sf):  # per-user CUSUM change detection
        """Change-point detection over each user's event-value series
        (drift/regression detection for metrics pipelines): the CUSUM
        statistic |n·prefix_k − k·total| stays INTEGER by scaling
        through by n — no float mean, so the window-function oracle
        hashes exactly (relational.py:cusum_changepoint). Earliest-k
        tie-break; single-event users emit nothing."""
        ev = _t(sf, "events").select_columns(
            ["user_id", "ts", "event_id", "value"])

        def prep(t: pa.Table) -> pa.Table:
            v = t.column("value").to_numpy()
            return pa.table({
                "user_id": pc.cast(t.column("user_id"), pa.int64()),
                "ts": pc.cast(t.column("ts"), pa.int64()),
                "event_id": pc.cast(t.column("event_id"), pa.int64()),
                "v": pa.array(np.round(v * 100.0).astype(np.int64),
                              pa.int64())})

        out = rel.cusum_changepoint(
            ev.map_batches(prep, batch_format="pyarrow"),
            key="user_id", order="ts", tiebreak="event_id", value="v")
        return out.to_pandas().sort_values("user_id") \
            .reset_index(drop=True)

    def q184_profile(sf):  # one-pass table profiler
        """Data-quality profiler over lineitem's integer columns: row
        count, null count, min and max from ONE mergeable-partial pass
        (4 int64 cells per column per batch — no row shuffle) plus
        exact per-column distinct counts
        (relational.py:profile_int_columns; at 100 TB the distinct leg
        swaps for the HLL sketch, same output shape)."""
        li = _t(sf, "lineitem").select_columns(
            ["l_partkey", "l_linenumber", "l_quantity"])

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({
                "l_partkey": pc.cast(t.column("l_partkey"), pa.int64()),
                "l_linenumber": pc.cast(t.column("l_linenumber"),
                                        pa.int64()),
                "l_quantity": pa.array(
                    t.column("l_quantity").to_numpy()
                    .astype(np.int64), pa.int64())})

        return rel.profile_int_columns(
            li.map_batches(prep, batch_format="pyarrow"),
            ["l_partkey", "l_linenumber", "l_quantity"])

    def q185_viewshed(sf):  # line-of-sight visibility counts
        """1-D viewshed over synthetic terrain profiles (the per-ray
        reduction of tower-siting / flood-observation visibility
        analysis): a cell is visible iff its sight-line slope strictly
        beats every intermediate slope, evaluated with integer
        cross-multiplication — exact, no division
        (pipelines/terrain.py:row_viewshed_batch, W−1 whole-batch
        numpy steps). Oracle = the NOT EXISTS brute force over the
        same formula terrain."""
        from hand_index_ray.pipelines.terrain import row_viewshed_batch

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        W = 24
        xs = np.arange(W, dtype=np.int64)

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 151 == 0].astype(np.int64)
            if len(keys) == 0:
                return pa.table({"k": pa.array([], pa.int64()),
                                 "n_visible": pa.array([], pa.int64())})
            h = (keys[:, None] * 7 + xs * xs * 3
                 + ((keys[:, None] + xs) % 11) * 5) % 97
            cnt = row_viewshed_batch(h)
            return pa.table({"k": pa.array(keys, pa.int64()),
                             "n_visible": pa.array(cnt, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("k").reset_index(drop=True)

    def q187_bfs_hops(sf):  # multi-source BFS hop distance
        """Multi-source shortest hops over a pseudo-random graph
        derived from order keys (impact-radius / blast-radius
        analysis): raw-task BFS waves with edges partitioned ONCE and
        labels never on the driver (pipelines/graph.py:bfs_hops — the
        hop metric rules out pointer jumping, so rounds = seed-set
        eccentricity, the BFS lower bound). Oracle = DuckDB recursive
        CTE over the same edges; unreachable nodes appear in
        neither."""
        from hand_index_ray.pipelines.graph import bfs_hops

        def edges(t: pa.Table) -> pa.Table:
            k = t.column("o_orderkey").to_numpy()
            k = k[k % 11 == 0].astype(np.int64)
            return pa.table({"a": pa.array(k % 1000, pa.int64()),
                             "b": pa.array((k * 7) % 1000, pa.int64())})

        e = _t(sf, "orders").select_columns(["o_orderkey"]) \
            .map_batches(edges, batch_format="pyarrow")
        out = bfs_hops(e, np.array([7, 13], dtype=np.int64),
                       num_buckets=8)
        return out.to_pandas().sort_values("node").reset_index(drop=True)

    def q186_pitch_detect(sf):  # autocorrelation period estimation
        """Pitch detection over WAV clips (audio-curation primitive —
        fundamental-period estimation): each fixture clip is a square
        wave of planted even period P ∈ [20,48]; INTEGER
        autocorrelation R[τ] = Σ x[t]x[t+τ] peaks at exactly τ=P with
        R[P] = (N−P)·A² (finite-length overlap shrinks later peaks, so
        the argmax is unique). The WAV encode→decode roundtrip is in
        the loop (kernels/audio.py); the oracle states the planted
        formulas."""
        from hand_index_ray.kernels import audio as audk

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        N = 400

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 163 == 0].astype(np.int64)
            if len(keys) == 0:
                return pa.table({"k": pa.array([], pa.int64()),
                                 "period": pa.array([], pa.int64()),
                                 "peak": pa.array([], pa.int64())})
            xs = np.empty((len(keys), N), np.int64)
            for i, k in enumerate(keys):
                P = int(20 + 2 * (k % 15))
                A = int(1000 + k % 7)
                tt = np.arange(N)
                wave = np.where((tt % P) < P // 2, A, -A) \
                    .astype(np.float64) / 32768.0
                buf = audk.encode_wav(wave, 8000, bits=16)
                dec, _sr = audk.decode_wav(buf)  # float64 in [-1, 1)
                # 16-bit PCM is exact at /32768 — recover the integers
                xs[i] = np.round(dec.ravel()[:N] * 32768.0) \
                    .astype(np.int64)
            lags = np.arange(20, 50)
            R = np.empty((len(keys), len(lags)), np.int64)
            for j, tau in enumerate(lags):
                R[:, j] = (xs[:, :N - tau] * xs[:, tau:]).sum(axis=1)
            arg = np.argmax(R, axis=1)
            return pa.table({
                "k": pa.array(keys, pa.int64()),
                "period": pa.array(lags[arg], pa.int64()),
                "peak": pa.array(R[np.arange(len(keys)), arg],
                                 pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("k").reset_index(drop=True)

    def q188_segment_snap(sf):  # map-matching: nearest segment
        """Map-matching / snapping: each point takes its nearest of 8
        planted axis-aligned segments with EXACT integer
        point-to-segment distances (cross-multiplied fraction argmin,
        kernels/geom.py:snap_to_segments_int — the generic kernel
        handles oblique segments too; axis-aligned keeps the SQL
        oracle integer). Segments broadcast; points never shuffle."""
        from hand_index_ray.kernels import geom as geomlib

        segs = np.array([
            [10, 20, 130, 20], [35, 5, 35, 95],
            [20, 100, 140, 100], [105, 15, 105, 105],
            [30, 180, 150, 180], [175, 25, 175, 115],
            [40, 260, 160, 260], [245, 35, 245, 125]], np.int64)
        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 7 == 0].astype(np.int64)
            px = (keys * 13) % 400
            py = (keys * 29) % 400
            idx, num, den = geomlib.snap_to_segments_int(px, py, segs)
            return pa.table({"k": pa.array(keys, pa.int64()),
                             "seg": pa.array(idx, pa.int64()),
                             "d2": pa.array(num // den, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("k").reset_index(drop=True)

    def q201_dbscan(sf):  # distributed DBSCAN (grid shuffle + CC)
        """Full DBSCAN composed from the engine's own distributed
        primitives (pipelines/cluster.py:dbscan): eps-grid cell
        shuffle with 8-ghost replication → local core counting →
        exactly-once core-edge emission → connected-component label
        waves → bucketed border/anchor resolve; noise decided locally.
        Deterministic variant: border joins its MINIMUM core
        neighbor's cluster; cluster id = min core id. Oracle =
        recursive min-label closure over the core graph."""
        from hand_index_ray.pipelines.cluster import dbscan

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            k = keys[keys % 11 == 0].astype(np.int64)
            return pa.table({"id": pa.array(k, pa.int64()),
                             "x": pa.array((k * 13) % 200, pa.int64()),
                             "y": pa.array((k * 29) % 200, pa.int64())})

        pts = orders.map_batches(gen, batch_format="pyarrow")
        out = dbscan(pts, eps=6, min_pts=4, num_buckets=16).to_pandas()
        return out.astype({"id": "int64", "cluster": "int64",
                           "role": "int64"}) \
            .sort_values("id").reset_index(drop=True)

    def q199_idw(sf):  # exact inverse-distance-weighted interpolation
        """IDW (power 2) spatial interpolation against 5 broadcast
        sites as an exact integer rational (kernels/geom.py:idw_exact
        — denominators cleared, no floats): per point the fraction
        (num, den) and the floor estimate. Odd point coords vs even
        site coords guarantee d² ≥ 1. Oracle builds Π_{t≠s}d² via a
        NULL-skipping product over the site self-join."""
        from hand_index_ray.kernels.geom import idw_exact

        sites = np.array([(4, 8), (20, 30), (44, 12), (10, 50),
                          (52, 48)], np.int64)
        vals = np.array([120, 200, 60, 180, 240], np.int64)
        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            k = keys[keys % 19 == 0].astype(np.int64)
            px = ((k * 3) % 30) * 2 + 1
            py = ((k * 7) % 30) * 2 + 1
            num, den = idw_exact(px, py, sites, vals)
            return pa.table({"o_orderkey": pa.array(k, pa.int64()),
                             "num": pa.array(num, pa.int64()),
                             "den": pa.array(den, pa.int64()),
                             "est": pa.array(num // den, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q200_butterflies(sf):  # bipartite co-pair / butterfly counts
        """Butterfly (bipartite 4-cycle) counting
        (pipelines/graph.py:copair_counts): right-key group emits
        left-pairs (wedge explode), pair-key group counts — common-
        neighbor count c and C(c,2) butterflies per left pair with
        c ≥ 2. Oracle = the DISTINCT self-join count."""
        from hand_index_ray.pipelines.graph import copair_counts

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            k = keys[keys % 7 == 0].astype(np.int64)
            return pa.table({"u": pa.array(k % 25, pa.int64()),
                             "w": pa.array((k // 25) % 12, pa.int64())})

        edges = orders.map_batches(gen, batch_format="pyarrow")
        out = copair_counts(edges, num_buckets=16)
        return out.to_pandas().sort_values(["u1", "u2"]) \
            .reset_index(drop=True)

    def q197_geohash(sf):  # geohash cell encoding (3rd cell family)
        """Geohash encode from EXACT integer microdegrees
        (kernels/geohash.py — Morton-spread interleave, published
        base-32 alphabet, validated against the classic bisection on
        1200 random points + published vectors): sortable uint64 cell
        key + the 6-char string per point. Oracle reproduces every
        bit with shift/mask arithmetic."""
        from hand_index_ray.kernels import geohash as ghlib

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            k = keys[keys % 17 == 0].astype(np.int64)
            lat = (k * 9301) % 180_000_000 - 90_000_000
            lon = (k * 7817) % 360_000_000 - 180_000_000
            code, s = ghlib.encode_udeg(lat, lon, 6)
            return pa.table({"o_orderkey": pa.array(k, pa.int64()),
                             "code": pa.array(code.astype(np.int64),
                                              pa.int64()),
                             "gh": pa.array(s.tolist(), pa.string())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q198_kcore(sf):  # k-core decomposition by distributed peeling
        """3-core of a planted forest of clique+tail components
        (pipelines/graph.py:kcore — one hash(u) edge partition, per-
        round traffic O(newly dead), bucket-local degrees): tails peel
        away, cliques survive with degree c−1. Oracle states the
        planted structure; the general algorithm is brute-checked in
        tests/test_graph_ext.py."""
        from hand_index_ray.pipelines.graph import kcore

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            ks = keys[keys % 53 == 0].astype(np.int64)
            aa, bb = [], []
            for k in ks:
                base = int(k) * 100
                c = 4 + int(k) % 3
                for i in range(c):
                    for j in range(i + 1, c):
                        aa.append(base + i); bb.append(base + j)
                for e0, e1 in ((0, 50), (50, 51), (51, 52)):
                    aa.append(base + e0); bb.append(base + e1)
            return pa.table({"a": pa.array(aa, pa.int64()),
                             "b": pa.array(bb, pa.int64())})

        edges = orders.map_batches(gen, batch_format="pyarrow")
        out = kcore(edges, 3, num_buckets=8)
        return out.to_pandas().sort_values("node").reset_index(drop=True)

    def q196_overlay(sf):  # vector<->vector polygon layer overlay
        """Two polygon layers (planted integer rectangles, WKB-encoded)
        overlay to exact pairwise intersection areas through the full
        general machinery — lattice-cell explode, one cell-key
        shuffle, bbox prefilter, concave-capable exact clip,
        canonical-cell exactly-once emission
        (pipelines/overlay.py:overlay_intersection_areas). Rect inputs
        keep the SQL oracle integer; the engine path is shape-agnostic.
        """
        from hand_index_ray.kernels import wkb as kwkb
        from hand_index_ray.pipelines.overlay import \
            overlay_intersection_areas

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def rect_layer(mod, fx, fy, fw, fh, mw, mh):
            def gen(t: pa.Table) -> pa.Table:
                keys = t.column("o_orderkey").to_numpy()
                k = keys[keys % mod == 0].astype(np.int64)
                x0 = (k * fx) % 50
                y0 = (k * fy) % 50
                x1 = x0 + 4 + (k * fw) % mw
                y1 = y0 + 4 + (k * fh) % mh
                wkbs = kwkb.encode(kwkb.from_parts(
                    [[[np.array([(a, b), (c, b), (c, d), (a, d),
                                 (a, b)], np.float64)]]
                      for a, b, c, d in zip(x0, y0, x1, y1)])) \
                    if len(k) else []
                return pa.table({"id": pa.array(k, pa.int64()),
                                 "wkb": pa.array(wkbs, pa.binary())})
            return gen

        a = orders.map_batches(rect_layer(29, 1, 3, 5, 9, 7, 5),
                               batch_format="pyarrow")
        b = orders.map_batches(rect_layer(31, 7, 11, 13, 3, 6, 8),
                               batch_format="pyarrow")
        out = overlay_intersection_areas(a, b, cell=16.0,
                                         num_buckets=16).to_pandas()
        out["area"] = out["area"].round().astype("int64")
        return out.sort_values(["a_id", "b_id"]).reset_index(drop=True)

    def q192_staypoints(sf):  # trajectory stay-point detection
        """Stay-point detection (the dwell/move segmentation stage of
        trajectory mining, pipelines/trajectory.py:staypoint_stats):
        planted trajectories pause ~8 steps (jitter < 5) then jump
        blocks; anchor t qualifies iff the next 6 points stay within
        Chebyshev radius 4. One shuffle on the trajectory key; sliding
        extrema via stride tricks. Oracle = window MAX/MIN over
        following rows."""
        from hand_index_ray.pipelines.trajectory import staypoint_stats

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        T = 64

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 37 == 0].astype(np.int64)
            k = np.repeat(keys, T)
            tt = np.tile(np.arange(T, dtype=np.int64), len(keys))
            return pa.table({
                "k": pa.array(k, pa.int64()),
                "t": pa.array(tt, pa.int64()),
                "x": pa.array((tt // 8) * 40 + (k + tt) % 5, pa.int64()),
                "y": pa.array((tt // 8) * 30 + (k * 2 + tt * 3) % 5,
                              pa.int64())})

        pts = orders.map_batches(gen, batch_format="pyarrow")
        out = staypoint_stats(pts, "k", "t", "x", "y",
                              window=6, radius=4, num_buckets=16)
        return out.to_pandas().sort_values("k").reset_index(drop=True)

    def q193_rasterize(sf):  # distributed vector->raster line burn
        """Line-network rasterization with a tile-key shuffle
        (pipelines/raster.py:rasterize_lines): x-major segments burn
        their exact closest-pixel DDA trace (half-up rational round,
        no floats), slim (tile, x, y) rows shuffle once, tiles
        aggregate locally (hits, distinct pixels, checksum). Oracle
        evaluates the same closed-form pixel row per column."""
        from hand_index_ray.pipelines.raster import rasterize_lines

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            k = keys[keys % 23 == 0].astype(np.int64)
            return pa.table({
                "x0": pa.array(k % 16, pa.int64()),
                "x1": pa.array(100 + (k * 3) % 28, pa.int64()),
                "y0": pa.array((k * 5) % 60, pa.int64()),
                "y1": pa.array((k * 7) % 60, pa.int64())})

        lines = orders.map_batches(gen, batch_format="pyarrow")
        out = rasterize_lines(lines, tile_px=32, tiles_x=4,
                              num_buckets=8)
        return out.to_pandas().sort_values("tile").reset_index(drop=True)

    def q194_wht_bands(sf):  # Walsh-Hadamard sequency analysis
        """Integer-exact spectral analysis over WAV clips: the
        Walsh–Hadamard transform (kernels/audio.py:wht_batch — fast
        butterfly, log₂N whole-batch passes) replaces the DFT where
        exactness matters; sequency band coefficients + total WHT
        energy (Parseval-checked in tests). WAV encode→decode is in
        the loop. Oracle = the (−1)^popcount(t&j) definition via
        bit_count."""
        from hand_index_ray.kernels import audio as audk

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        N = 64

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 151 == 0].astype(np.int64)
            cols = {"o_orderkey": pa.array(keys, pa.int64())}
            names = ["c1", "c8", "c21", "c63", "energy"]
            if len(keys) == 0:
                for nm in names:
                    cols[nm] = pa.array([], pa.int64())
                return pa.table(cols)
            tt = np.arange(N, dtype=np.int64)
            xs = np.empty((len(keys), N), np.int64)
            for i, k in enumerate(keys):
                s = ((int(k) * 3 + tt * 7) % 17 - 8) * 100
                buf = audk.encode_wav(s / 32768.0, 8000, bits=16)
                dec, _sr = audk.decode_wav(buf)
                xs[i] = np.round(dec.ravel()[:N] * 32768.0)
            C = audk.wht_batch(xs)
            for nm, j in zip(names[:4], (1, 8, 21, 63)):
                cols[nm] = pa.array(C[:, j], pa.int64())
            cols["energy"] = pa.array((C * C).sum(axis=1), pa.int64())
            return pa.table(cols)

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q195_hausdorff(sf):  # mask <-> point-set shape matching
        """Directed Hausdorff distances (squared, integer) between
        planted binary masks and a broadcast 5-point template
        (kernels/image.py:directed_hausdorff_masks — min-distance
        grids precomputed once, two masked reductions per image).
        Oracle = the max-min double aggregation in SQL."""
        from hand_index_ray.kernels import image as imk

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        H, W = 12, 16
        pts = np.array([[2, 3], [14, 1], [7, 10], [0, 8], [13, 9]],
                       np.int64)
        yy, xx = np.meshgrid(np.arange(H, dtype=np.int64),
                             np.arange(W, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 43 == 0].astype(np.int64)
            if len(keys) == 0:
                return pa.table({"o_orderkey": pa.array([], pa.int64()),
                                 "h_ab": pa.array([], pa.int64()),
                                 "h_ba": pa.array([], pa.int64())})
            masks = ((keys[:, None, None] + 3 * xx + 7 * yy) % 11) == 0
            hab, hba = imk.directed_hausdorff_masks(masks, pts)
            return pa.table({"o_orderkey": pa.array(keys, pa.int64()),
                             "h_ab": pa.array(hab, pa.int64()),
                             "h_ba": pa.array(hba, pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q189_moments(sf):  # raw image moments / shape descriptors
        """Raw image moments M00..M02 (centroid/orientation core,
        kernels/image.py:raw_moments_batch — marginal-sum contraction,
        one einsum for M11) over PNG-encoded images with the codec
        round-trip IN the measured path. Oracle sums v·x^p·y^q over
        the planted pixel formula."""
        from hand_index_ray.kernels import image as imk

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        H, W = 18, 24
        yy, xx = np.meshgrid(np.arange(H, dtype=np.int64),
                             np.arange(W, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 59 == 0].astype(np.int64)
            cols = {"o_orderkey": pa.array(keys, pa.int64())}
            names = ["m00", "m10", "m01", "m11", "m20", "m02"]
            if len(keys) == 0:
                for nm in names:
                    cols[nm] = pa.array([], pa.int64())
                return pa.table(cols)
            dec = np.empty((len(keys), H, W), np.int64)
            for i, k in enumerate(keys):
                v = ((int(k) * 7 + xx * 5 + yy * 11 + xx * yy) % 256) \
                    .astype(np.uint8)
                rgb = np.stack([v, (v * 3).astype(np.uint8),
                                (v * 7).astype(np.uint8)], axis=2)
                buf = imk.encode(rgb, "png")
                dec[i] = imk.decode(buf, "png")[:, :, 0]
            mm = imk.raw_moments_batch(dec)
            for j, nm in enumerate(names):
                cols[nm] = pa.array(mm[:, j], pa.int64())
            return pa.table(cols)

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q190_dither(sf):  # ordered (Bayer 8x8) halftoning
        """Ordered dithering against the published 8×8 Bayer index
        matrix (built by the spec recursion, pinned to the closed
        bit form — kernels/image.py:bayer8_matrix/bayer_dither_batch),
        PNG round-trip in the loop; per-image on-pixel count and a
        position checksum. The oracle recomputes the matrix from the
        closed form in SQL."""
        from hand_index_ray.kernels import image as imk

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        H, W = 16, 24
        yy, xx = np.meshgrid(np.arange(H, dtype=np.int64),
                             np.arange(W, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 61 == 0].astype(np.int64)
            if len(keys) == 0:
                return pa.table({"o_orderkey": pa.array([], pa.int64()),
                                 "n_on": pa.array([], pa.int64()),
                                 "pos_sum": pa.array([], pa.int64())})
            dec = np.empty((len(keys), H, W), np.int64)
            for i, k in enumerate(keys):
                v = ((int(k) * 5 + xx * 11 + yy * 17) % 256) \
                    .astype(np.uint8)
                rgb = np.stack([v, v, v], axis=2)
                buf = imk.encode(rgb, "png")
                dec[i] = imk.decode(buf, "png")[:, :, 0]
            on = imk.bayer_dither_batch(dec)
            pos = (xx + 100 * yy)[None, :, :]
            return pa.table({
                "o_orderkey": pa.array(keys, pa.int64()),
                "n_on": pa.array(on.sum(axis=(1, 2)), pa.int64()),
                "pos_sum": pa.array((on * pos).sum(axis=(1, 2)),
                                    pa.int64())})

        df = orders.map_batches(gen, batch_format="pyarrow").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q191_laplacian(sf):  # terrain curvature (5-point Laplacian)
        """Per-raster curvature aggregates (∇² = N+S+E+W−4v on
        interior cells; pipelines/terrain.py:laplacian_stats) over
        LZW+predictor GeoTIFF blobs — curvature drives flow
        convergence in HAND-style terrain analysis. Oracle recomputes
        the stencil from the pixel formula."""
        from hand_index_ray.pipelines.terrain import laplacian_stats
        ds = _terrain_blobs(sf, 227, 48, 37, 13, 7, 3, 256,
                            compression="lzw", predictor=2)
        df = laplacian_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q132_flow_paths(sf):  # D8 routing via pointer doubling
        """Full D8 flow routing (the step after q128's direction
        grid): every interior cell's path is resolved by pointer
        doubling over the flow graph — O(log max_path) rounds of two
        numpy gathers (pipelines/terrain.py:_flow_terminals). Paths
        end at an interior pit/flat or leave through the boundary.
        The oracle walks the same paths with a recursive CTE over a
        precomputed per-cell direction table (q128's CASE ladder)."""
        from hand_index_ray.pipelines.terrain import flow_path_stats
        ds = _terrain_blobs(sf, 167, 16, 12, 7, 3, 5, 53,
                            compression="deflate", predictor=2)
        df = flow_path_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q133_hand(sf):  # height above nearest drainage (the namesake)
        """HAND — the reference's namesake raster product
        (load.py:44-45 catalogs *rem_zeroed*.tif HAND outputs): each
        interior cell flows along D8 until it reaches a drainage cell
        (v < 8), a pit, or the boundary; HAND = start elevation minus
        the reached drainage elevation. Same pointer-doubling kernel
        with drainage cells pinned as terminals."""
        from hand_index_ray.pipelines.terrain import hand_stats
        ds = _terrain_blobs(sf, 173, 16, 12, 7, 3, 5, 53,
                            compression="lzw", predictor=2)
        df = hand_stats(ds, drain_thresh=8, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q202_fill_depressions(sf):  # Priority-Flood DEM conditioning
        """Exact depression filling (Planchon–Darboux / Priority-Flood
        fixpoint, pipelines/terrain.py:fill_depressions) — the DEM
        conditioning step hydrology toolchains run before computing
        the reference's HAND rasters (load.py:44-45 *rem_zeroed*.tif).
        The fixture's 16x12 pattern depends on the key only through
        k mod 256, and the Jacobi sweep converges in ≤9 iterations
        over ALL 256 residues (checked exhaustively), so the oracle's
        12 unrolled relaxation waves are provably at fixpoint at any
        scale factor."""
        from hand_index_ray.pipelines.terrain import fill_depression_stats
        ds = _terrain_blobs(sf, 211, 16, 12, 13, 7, 3, 256,
                            compression="lzw", predictor=2)
        df = fill_depression_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q203_edt(sf):  # exact squared Euclidean distance transform
        """Exact integer squared-EDT aggregates with features = cells
        below 80 (proximity-to-drainage — the Euclidean sibling of the
        HAND product; pipelines/terrain.py:squared_edt: per-column
        directional scans then a vectorized horizontal broadcast min,
        all int64, no rationals). Threshold 80 provably leaves no
        featureless raster: coverage was checked over all 256 key
        residues the fixture can produce. Oracle is the literal
        brute-force MIN over feature cells."""
        from hand_index_ray.pipelines.terrain import edt_stats
        ds = _terrain_blobs(sf, 211, 20, 16, 17, 7, 3, 256,
                            compression="lzw", predictor=2)
        df = edt_stats(ds, 80, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q204_moran(sf):  # global Moran's I (rook weights), exact
        """Global spatial-autocorrelation components per raster
        (pipelines/terrain.py:moran_stats): deviations scaled by n
        (dev = n·v − Σv) keep numerator/denominator exact int64
        through the pipeline; Moran's I = (n/w_sum)·num/den divides
        only at the reader. The standard QC gate for interpolated
        terrain products. Oracle recomputes the same scaled integers
        from the pixel formula with rook-neighbor self-joins."""
        from hand_index_ray.pipelines.terrain import moran_stats
        ds = _terrain_blobs(sf, 251, 24, 18, 19, 7, 3, 256,
                            compression="lzw", predictor=2)
        df = moran_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q205_semivariogram(sf):  # experimental (Matheron) semivariogram
        """Kriging's fitting input — the experimental semivariogram
        over a site table (pipelines/geostat.py): one eps-grid ghost
        shuffle (the DBSCAN cell shape), exactly-once pair ownership
        by the smaller id's home cell, per-bin int64 partials
        (n_pairs, Σ(v_i−v_j)²) — pairs are never materialized as
        rows. γ(bin) = gamma_num / (2·n_pairs) divides only at the
        reader. Oracle is the literal brute pair self-join."""
        from hand_index_ray.pipelines.geostat import semivariogram

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            k = keys[keys % 41 == 0].astype(np.int64)
            return pa.table({"id": pa.array(k, pa.int64()),
                             "x": pa.array((k * 37) % 400, pa.int64()),
                             "y": pa.array((k * 61) % 400, pa.int64()),
                             "v": pa.array((k * 7) % 100, pa.int64())})

        pts = orders.map_batches(gen, batch_format="pyarrow")
        out = semivariogram(pts, max_lag=60, nbins=8,
                            num_buckets=16).to_pandas()
        if out.empty:
            out = pd.DataFrame({"d2_bin": pd.Series([], dtype="int64"),
                                "n_pairs": pd.Series([], dtype="int64"),
                                "gamma_num": pd.Series([], dtype="int64")})
        return out.astype({"d2_bin": "int64", "n_pairs": "int64",
                           "gamma_num": "int64"}) \
            .sort_values("d2_bin").reset_index(drop=True)

    def q207_cost_distance(sf):  # least-cost path / corridor analysis
        """Accumulated-cost surface from the west edge
        (pipelines/terrain.py:cost_distance — GRASS r.cost semantics,
        4-connectivity, cost on entry) by exact Bellman–Ford Jacobi
        sweeps; east_min is the cheapest full crossing (corridor
        analysis). The 16x12 fixture depends on the key only through
        k mod 64 and converges in ≤27 sweeps over ALL 64 residues
        (checked exhaustively), so the oracle's 30 unrolled waves are
        provably at fixpoint at any scale factor."""
        from hand_index_ray.pipelines.terrain import cost_distance_stats
        ds = _terrain_blobs(sf, 191, 16, 12, 23, 7, 3, 64,
                            compression="lzw", predictor=2)
        df = cost_distance_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q206_otsu(sf):  # histogram binarization threshold
        """Exact Otsu threshold per raster
        (pipelines/terrain.py:otsu_threshold): between-class variance
        maximized as the exact fraction A²/B (A = s0·n − S·c0,
        B = c0·(n−c0)), ties to the smallest t — the standard
        land/water binarization step, no floats anywhere. The oracle
        recomputes every candidate t and keeps the fraction-max by
        cross-multiplied anti-join."""
        from hand_index_ray.pipelines.terrain import otsu_stats
        ds = _terrain_blobs(sf, 181, 16, 12, 19, 5, 11, 64,
                            compression="deflate", predictor=2)
        df = otsu_stats(ds, nlevels=64, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q209_seam_carving(sf):  # content-aware resize seam DP
        """Seam carving (Avidan–Shamir): clamped central-gradient
        energy, min-energy 8-connected top→bottom DP
        (pipelines/terrain.py:seam_bottom_costs). Unlike q207's
        fixpoint, this is a DIRECTED acyclic DP — one wave per row,
        exactly H−1 waves, so the oracle's 11 unrolled CTEs are the
        computation itself, not a bound."""
        from hand_index_ray.pipelines.terrain import seam_stats
        ds = _terrain_blobs(sf, 197, 16, 12, 29, 11, 5, 64,
                            compression="lzw", predictor=2)
        df = seam_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q208_glcm(sf):  # Haralick GLCM texture features
        """Gray-level co-occurrence matrix for the (dx=1,dy=0) offset
        (pipelines/terrain.py:glcm_features): contrast, energy
        (Σ count², needs the actual matrix — counted per (a,b) pair),
        the modal pair count, and the occupied-cell count. The
        Haralick texture family over terrain rasters, exact int64;
        oracle groups neighbor pairs per raster."""
        from hand_index_ray.pipelines.terrain import glcm_stats
        ds = _terrain_blobs(sf, 191, 16, 12, 23, 7, 13, 64,
                            compression="deflate", predictor=2)
        df = glcm_stats(ds, nlevels=64, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q210_median_filter(sf):  # 3x3 rank-order denoise filter
        """3×3 median filter over interior pixels
        (pipelines/terrain.py:median3_interior): 9 shifted slices,
        one np.partition — the salt-and-pepper denoise pass. Reports
        Σ filtered, max filtered, and the pixels-changed count. The
        oracle takes QUANTILE_DISC(0.5) over the 9-neighbor join
        (odd count ⇒ both conventions hit the exact middle)."""
        from hand_index_ray.pipelines.terrain import median_filter_stats
        ds = _terrain_blobs(sf, 193, 16, 12, 31, 5, 7, 64,
                            compression="deflate", predictor=2)
        df = median_filter_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q211_quadtree(sf):  # linear-quadtree decomposition size
        """Quadtree raster compression measure
        (pipelines/terrain.py:quadtree_leaves): min/max pyramids by
        2×2 reduceat, a leaf = homogeneous block whose parent is not.
        Reports leaf count, solid (size>1) leaf count, and the
        largest leaf side. Oracle: per-level GROUP BY (x>>s, y>>s)
        min=max flags, child⟕parent anti-condition."""
        from hand_index_ray.pipelines.terrain import quadtree_stats
        ds = _terrain_blobs(sf, 199, 16, 16, 11, 2, 2, 64, div=16,
                            compression="lzw", predictor=2)
        df = quadtree_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q212_ssim(sf):  # exact-rational global SSIM between epochs
        """Global SSIM (Wang et al.) between two raster epochs as an
        EXACT int64 rational — the formula multiplied through by n⁴
        (pipelines/terrain.py:ssim_global, c1=1/c2=9 integer
        stabilizers). The change-detection quality metric next to
        q160's DEM-of-difference volumes; oracle computes the same
        rational from per-key pixel sums."""
        from hand_index_ray.kernels.geotiff import encode_geotiff
        from hand_index_ray.pipelines.terrain import ssim_stats

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(12, dtype=np.int64),
                             np.arange(16, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 173 == 0]
            ks, ba, bb = [], [], []
            for k in keys:
                k = int(k)
                a = (k * 7 + xx * 5 + yy * 9) % 32
                b = (k * 3 + xx * 11 + yy * 2) % 32
                ks.append(k)
                ba.append(encode_geotiff(a.astype(np.int32),
                                         compression="deflate", predictor=2))
                bb.append(encode_geotiff(b.astype(np.int32),
                                         compression="lzw", predictor=2))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "bytes_a": pa.array(ba, pa.binary()),
                             "bytes_b": pa.array(bb, pa.binary())})

        ds = orders.map_batches(gen, batch_format="pyarrow")
        df = ssim_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q213_hog(sf):  # HOG octant orientation histogram
        """Histogram of oriented gradients, exact-integer octant code
        4·(gy<0)+2·(gx<0)+(|gy|>|gx|) over interior central
        differences, zero gradients excluded
        (pipelines/terrain.py:hog_octants); long form with per-octant
        pixel counts and L1-magnitude sums."""
        from hand_index_ray.pipelines.terrain import hog_stats
        ds = _terrain_blobs(sf, 227, 16, 12, 17, 9, 4, 64,
                            compression="deflate", predictor=2)
        df = hog_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values(["o_orderkey", "octant"]) \
            .reset_index(drop=True)

    def q214_strahler(sf):  # Strahler stream order over D8 forest
        """Strahler order over the D8 flow forest (every cell a node;
        donors along the steepest strictly-positive drop, ties →
        smallest code — same rule as q128 flow direction). Vectorized
        monotone fixpoint (pipelines/terrain.py:strahler_orders),
        measured ≤3 waves over the full key range; the oracle unrolls
        4 SQL waves (max-donor + count-at-max + coalesce per wave)
        from the QUALIFY-selected steepest-descent edge set."""
        from hand_index_ray.pipelines.terrain import strahler_stats
        ds = _terrain_blobs(sf, 179, 12, 10, 11, 4, 7, 41,
                            compression="deflate", predictor=2)
        df = strahler_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values(["o_orderkey", "strahler"]) \
            .reset_index(drop=True)

    def q215_frechet(sf):  # discrete Fréchet distance to a template
        """Discrete Fréchet (Eiter–Mannila coupling DP, squared int)
        from each trajectory to a broadcast 4-point template
        (pipelines/trajectory.py:frechet_to_template) — the DP unrolls
        over the fixed template axis and runs ONE lockstep wave per
        point index across all trajectories in a bucket. Oracle: a
        genuine recursive CTE carrying the 4 DP columns, advancing one
        point per iteration (lateral column aliases chain the same-row
        dependencies)."""
        from hand_index_ray.pipelines.trajectory import frechet_to_template

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

        def prep(t: pa.Table) -> pa.Table:
            ok = t.column("l_orderkey").to_numpy()
            ln = t.column("l_linenumber").to_numpy().astype(np.int64)
            x = t.column("l_partkey").to_numpy() % 64
            y = t.column("l_suppkey").to_numpy() % 64
            # (orderkey, linenumber) is NOT unique in the synthetic
            # lineitem — extend the order key by the point coords so
            # the order is total up to identical points (DP-invariant)
            o = ((ok * 8 + ln) * 64 + x) * 64 + y
            return pa.table({
                "gid": pa.array(ok % 401, pa.int64()),
                "ord": pa.array(o, pa.int64()),
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64())})

        ds = li.map_batches(prep, batch_format="pyarrow")
        tpl = np.array([[5, 7], [20, 40], [45, 12], [60, 60]], np.int64)
        df = frechet_to_template(ds, "gid", "ord", "x", "y", tpl) \
            .to_pandas()
        return df.sort_values("gid").reset_index(drop=True)

    def q216_closest_pair(sf):  # grid-pruned closest pair per group
        """Per-group closest pair (squared Euclidean, exact): the
        engine prunes with a consecutive-x upper bound + 3×3 grid-cell
        candidate join (pipelines/pointset.py:closest_pair); the
        oracle is the honest O(n²) self-join min."""
        from hand_index_ray.pipelines.pointset import closest_pair

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

        def prep(t: pa.Table) -> pa.Table:
            ok = t.column("l_orderkey").to_numpy()
            return pa.table({
                "gid": pa.array(ok % 251, pa.int64()),
                "x": pa.array((t.column("l_partkey").to_numpy() * 7)
                              % 101, pa.int64()),
                "y": pa.array((t.column("l_suppkey").to_numpy() * 11)
                              % 101, pa.int64())})

        ds = li.map_batches(prep, batch_format="pyarrow")
        df = closest_pair(ds, "gid", "x", "y").to_pandas()
        return df.sort_values("gid").reset_index(drop=True)

    def q217_diameter(sf):  # farthest pair via quickhull prefilter
        """Per-group diameter (max squared distance + count of pairs
        achieving it): the engine eliminates points strictly inside
        the 4-extreme quadrilateral (they cannot be hull vertices)
        then self-joins only the survivors
        (pipelines/pointset.py:diameter); oracle = O(n²) max."""
        from hand_index_ray.pipelines.pointset import diameter

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_partkey", "l_suppkey"])

        def prep(t: pa.Table) -> pa.Table:
            ok = t.column("l_orderkey").to_numpy()
            return pa.table({
                "gid": pa.array(ok % 233, pa.int64()),
                "x": pa.array((t.column("l_partkey").to_numpy() * 3)
                              % 211, pa.int64()),
                "y": pa.array((t.column("l_suppkey").to_numpy() * 5)
                              % 211, pa.int64())})

        ds = li.map_batches(prep, batch_format="pyarrow")
        df = diameter(ds, "gid", "x", "y").to_pandas()
        return df.sort_values("gid").reset_index(drop=True)

    def q218_rollup(sf):  # GROUP BY ROLLUP in one pass
        """ROLLUP(l_returnflag, l_linestatus) sums + counts — finest
        partials stream once, coarser levels re-aggregate the partials
        driver-side (relational.py:rollup_sums); oracle is DuckDB's
        native GROUP BY ROLLUP with COALESCE('ALL') markers."""
        from hand_index_ray.relational import rollup_sums

        li = _t(sf, "lineitem").select_columns(
            ["l_returnflag", "l_linestatus", "l_quantity"])
        df = rollup_sums(li, ["l_returnflag", "l_linestatus"],
                         "l_quantity")
        return df.sort_values(["l_returnflag", "l_linestatus"]) \
            .reset_index(drop=True)

    def q219_watershed(sf):  # pour-point basin labeling
        """Watershed labeling over the D8 flow forest: every cell's
        terminal sink found by pointer DOUBLING (⌈log₂(H·W)⌉
        vectorized gathers, pipelines/terrain.py:watershed_labels) —
        the O(log n) path-resolution trick the oracle mirrors with 7
        unrolled next∘next self-joins. Reports basin count, largest
        basin, and the sink-index checksum."""
        from hand_index_ray.pipelines.terrain import watershed_stats
        ds = _terrain_blobs(sf, 211, 12, 10, 13, 5, 3, 47,
                            compression="deflate", predictor=2)
        df = watershed_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q220_jaccard_join(sf):  # exact similarity join, prefix filter
        """Exact Jaccard τ≥0.6 self-join over word-3-gram sets via
        AllPairs/PPJoin prefix filtering
        (pipelines/text.py:jaccard_join_prefix): only the hash-order
        prefix of each set enters the shuffle, candidates length-
        filter cross-multiplied, exact verify in a pair-keyed bucket
        shuffle. The deterministic (no-LSH) sibling of q24; oracle is
        the brute all-pairs list_intersect."""
        from hand_index_ray.pipelines.text import jaccard_join_prefix
        out = jaccard_join_prefix(_t(sf, "documents"), tau_num=3,
                                  tau_den=5).to_pandas()
        return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    def q221_largest_rect(sf):  # largest all-below-threshold rectangle
        """Largest axis-aligned rectangle of cells with v < 20 (the
        'largest buildable flat patch' query): histogram-stack
        reduction per raster — O(H·W), vs the oracle's brute
        enumerate-all-rectangles NOT EXISTS — plus an exact
        count-at-max via divisor-pair sliding sums
        (pipelines/terrain.py:largest_zero_rect)."""
        from hand_index_ray.pipelines.terrain import largest_rect_stats
        ds = _terrain_blobs(sf, 241, 12, 8, 7, 3, 11, 64,
                            compression="lzw", predictor=2)
        df = largest_rect_stats(ds, thresh=20,
                                id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q222_tophat(sf):  # white top-hat (v − opening) small features
        """Morphological white top-hat (value minus 3×3 opening) over
        the border-free (H−4)×(W−4) core — the classic small-bright-
        feature extractor / background remover
        (pipelines/terrain.py:tophat_stats; exact int64, shifted-slice
        min then max, map-only). Oracle: erosion and dilation as two
        chained 3×3-neighborhood GROUP BY joins."""
        from hand_index_ray.pipelines.terrain import tophat_stats
        ds = _terrain_blobs(sf, 223, 13, 11, 9, 5, 2, 50,
                            compression="deflate", predictor=2)
        df = tophat_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q223_histmatch(sf):  # radiometric normalization (CDF match)
        """Exact histogram matching of raster epoch A to reference B:
        m(v) = min{w : cdf_B(w) ≥ cdf_A(v)} — the integer-exact
        radiometric normalization used to align image epochs before
        differencing (pipelines/terrain.py:histmatch_stats; one
        bincount+cumsum+searchsorted per pair). Oracle rebuilds both
        full-range CDFs and takes MIN(w) per level."""
        from hand_index_ray.kernels.geotiff import encode_geotiff
        from hand_index_ray.pipelines.terrain import histmatch_stats

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(9, dtype=np.int64),
                             np.arange(14, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 229 == 0]
            ks, ba, bb = [], [], []
            for k in keys:
                a = (int(k) * 7 + xx * 3 + yy * 5) % 32
                b = (int(k) * 11 + xx * 2 + yy * 9) % 32
                ks.append(int(k))
                ba.append(encode_geotiff(a.astype(np.int32),
                                         compression="deflate",
                                         predictor=2))
                bb.append(encode_geotiff(b.astype(np.int32),
                                         compression="lzw", predictor=2))
            return pa.table({"o_orderkey": pa.array(ks, pa.int64()),
                             "bytes_a": pa.array(ba, pa.binary()),
                             "bytes_b": pa.array(bb, pa.binary())})

        ds = orders.map_batches(gen, batch_format="pyarrow")
        df = histmatch_stats(ds, nlevels=32,
                             id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q224_dtw(sf):  # dynamic time warping to a template
        """DTW distance (Sakoe–Chiba DP, squared-int point costs) from
        each trajectory to a broadcast 4-point template
        (pipelines/trajectory.py:dtw_to_template) — the elastic
        sibling of q215's Fréchet: same lockstep one-wave-per-point
        vectorization, the fixed template axis unrolled. Oracle: a
        recursive CTE carrying the 4 DP columns, base row = template-
        axis cumsum, same-row dependencies nested."""
        from hand_index_ray.pipelines.trajectory import dtw_to_template

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

        def prep(t: pa.Table) -> pa.Table:
            ok = t.column("l_orderkey").to_numpy()
            ln = t.column("l_linenumber").to_numpy().astype(np.int64)
            x = t.column("l_partkey").to_numpy() % 64
            y = t.column("l_suppkey").to_numpy() % 64
            o = ((ok * 8 + ln) * 64 + x) * 64 + y
            return pa.table({
                "gid": pa.array(ok % 397, pa.int64()),
                "ord": pa.array(o, pa.int64()),
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64())})

        ds = li.map_batches(prep, batch_format="pyarrow")
        tpl = np.array([[3, 9], [30, 22], [50, 50], [9, 60]], np.int64)
        df = dtw_to_template(ds, "gid", "ord", "x", "y", tpl) \
            .to_pandas()
        return df.sort_values("gid").reset_index(drop=True)

    def q225_ema(sf):  # exact integer exponential moving average
        """Per-user EMA with α = 1/4 over event values in cents:
        ema_t = (v_t + 3·ema_{t-1}) >> 2 — floor-exact integer
        smoothing, no float drift (relational.py:integer_ema, ONE
        lockstep vectorized wave per sequence index across every user
        in the bucket). Oracle: recursive CTE advancing one event per
        user per iteration with the same floor division."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents") \
            .select_columns(["user_id", "event_id", "value_cents"])
        df = rel.integer_ema(ev, "user_id", "event_id", "value_cents",
                             shift=2).to_pandas()
        return df.sort_values("user_id").reset_index(drop=True)

    def q226_segment_crossings(sf):  # line-layer crossing join
        """Distributed line-layer crossing join (the candidate-pair
        pass of GIS node-ing): proper crossings between two integer
        segment layers via ONE cell-key shuffle — bbox cell covers,
        vectorized orientation sign tests, exactly-once canonical-cell
        emission (pipelines/overlay.py:segment_crossings). Oracle is
        the brute all-pairs sign-test self-join."""
        from hand_index_ray.pipelines.overlay import segment_crossings

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def seg(side):
            def fn(t: pa.Table) -> pa.Table:
                ok = t.column("o_orderkey").to_numpy()
                ok = ok[(ok % 7 == 0) & (ok % 2 == side)]
                return pa.table({
                    "id": pa.array(ok, pa.int64()),
                    "x1": pa.array((ok * 3) % 97, pa.int64()),
                    "y1": pa.array((ok * 7) % 97, pa.int64()),
                    "x2": pa.array((ok * 5 + 13) % 97, pa.int64()),
                    "y2": pa.array((ok * 11 + 29) % 97, pa.int64())})
            return fn

        la = orders.map_batches(seg(0), batch_format="pyarrow")
        lb = orders.map_batches(seg(1), batch_format="pyarrow")
        pairs = segment_crossings(la, lb, cs=16).to_pandas()
        pairs["gid"] = pairs["a_id"] % 13
        pairs["checksum"] = pairs["a_id"] + 2 * pairs["b_id"]
        out = pairs.groupby("gid", as_index=False).agg(
            n_cross=("a_id", "size"), checksum=("checksum", "sum"))
        out["n_cross"] = out["n_cross"].astype("int64")
        return out.sort_values("gid").reset_index(drop=True)

    def q227_hotspot(sf):  # Getis-Ord-style local hotspot detection
        """Local hotspot detection (the Getis–Ord Gi* shape, exact
        integer form): interior cell hot iff den·H·W·local9 >
        num·9·total — local mean > 1.25× global mean, cross-multiplied
        (pipelines/terrain.py:hotspot_stats). The LOCAL sibling of
        q204's global Moran's I. Oracle: 3×3 neighbor GROUP BY join
        + the same integer inequality."""
        from hand_index_ray.pipelines.terrain import hotspot_stats
        ds = _terrain_blobs(sf, 233, 12, 9, 8, 3, 5, 43,
                            compression="deflate", predictor=2)
        df = hotspot_stats(ds, num=5, den=4,
                           id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q228_hilbert(sf):  # Hilbert-curve keys (4th index family)
        """Hilbert-curve distance keys over integer points — the
        locality-optimal total order next to Morton/geohash/H3/S2
        (kernels/hilbert.py: one vectorized pass over bit levels,
        quadrant Gray code + canonical re-framing; unit-step adjacency
        and bijection pinned in tests). Oracle: recursive CTE running
        the same per-level rotation arithmetic."""
        from hand_index_ray.kernels import hilbert

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_partkey", "l_suppkey"])

        def enc(t: pa.Table) -> pa.Table:
            d = hilbert.encode(t.column("l_partkey").to_numpy() % 1024,
                               t.column("l_suppkey").to_numpy() % 1024,
                               order=10)
            return pa.table({
                "gid": pa.array(t.column("l_orderkey").to_numpy() % 101,
                                pa.int64()),
                "d": pa.array(d, pa.int64())})

        ds = li.map_batches(enc, batch_format="pyarrow")
        df = rel.grouped_agg(ds, ["gid"], sum_cols=["d"],
                             max_cols=["d"]).to_pandas()
        df = df.rename(columns={"d": "hilbert_sum"})
        df["n"] = df["n"].astype("int64")
        return df[["gid", "hilbert_sum", "max_d", "n"]] \
            .sort_values("gid").reset_index(drop=True)

    def q229_edge_nms(sf):  # gradient non-maximum suppression
        """Edge thinning by gradient NMS (Canny stage 2): 3×3 Sobel,
        exact-integer 4-sector quantization (|gx| ≥ 2|gy| horizontal,
        |gy| ≥ 2|gx| vertical, else sign(gx·gy) diagonal), survivor
        iff mag² strictly beats both sector neighbors and ≥ thresh
        (pipelines/terrain.py:edge_nms_stats). Oracle: Sobel as an
        8-neighbor weighted join + CASE sector + neighbor compares."""
        from hand_index_ray.pipelines.terrain import edge_nms_stats
        ds = _terrain_blobs(sf, 239, 12, 10, 15, 6, 11, 59,
                            compression="lzw", predictor=2)
        df = edge_nms_stats(ds, thresh2=500,
                            id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q230_rlsa(sf):  # run-length smoothing (document layout)
        """Horizontal RLSA (the classic document-layout block
        segmentation pass): 0-runs of length ≤ 2 between set pixels
        filled — per-pixel nearest-set-left/right via two
        maximum.accumulate passes, one fill formula, map-only
        (pipelines/terrain.py:rlsa_horizontal). Reports set-before,
        newly-filled, and run counts after smoothing. Oracle: window
        MAX/MIN over each row + LAG run starts."""
        from hand_index_ray.pipelines.terrain import rlsa_stats
        ds = _terrain_blobs(sf, 251, 14, 9, 10, 7, 3, 37,
                            compression="deflate", predictor=2)
        df = rlsa_stats(ds, thresh=12, gap=2,
                        id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q231_lcss(sf):  # LCSS trajectory similarity
        """LCSS similarity to a broadcast template under a Chebyshev
        ε-match — the noise-robust sibling of q224's DTW (outliers are
        skipped, not paid for); same lockstep one-wave-per-point
        vectorization (pipelines/trajectory.py:lcss_to_template).
        Oracle: recursive CTE carrying the 4 DP columns with CASE
        match arms."""
        from hand_index_ray.pipelines.trajectory import lcss_to_template

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

        def prep(t: pa.Table) -> pa.Table:
            ok = t.column("l_orderkey").to_numpy()
            ln = t.column("l_linenumber").to_numpy().astype(np.int64)
            x = t.column("l_partkey").to_numpy() % 64
            y = t.column("l_suppkey").to_numpy() % 64
            o = ((ok * 8 + ln) * 64 + x) * 64 + y
            return pa.table({
                "gid": pa.array(ok % 389, pa.int64()),
                "ord": pa.array(o, pa.int64()),
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64())})

        ds = li.map_batches(prep, batch_format="pyarrow")
        tpl = np.array([[10, 10], [25, 30], [40, 15], [55, 50]],
                       np.int64)
        df = lcss_to_template(ds, "gid", "ord", "x", "y", tpl, eps=6) \
            .to_pandas()
        return df.sort_values("gid").reset_index(drop=True)

    def q232_weighted_median(sf):  # grouped weighted median
        """Lower weighted median of event value (cents) per event
        type, weighted by user_id%7+1 — weights pre-summed per
        distinct value so ties are deterministic; one keyed shuffle,
        sort+reduceat first-crossing inside the bucket, no per-group
        loop (relational.py:grouped_weighted_median). Oracle: window
        cumulative weights + MIN(v) at the crossing."""
        from hand_index_ray.relational import grouped_weighted_median

        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def w(t: pa.Table) -> pa.Table:
            return pa.table({
                "event_type": t.column("event_type"),
                "value_cents": t.column("value_cents"),
                "w": pa.array(t.column("user_id").to_numpy() % 7 + 1,
                              pa.int64())})

        ds = ev.map_batches(w, batch_format="pyarrow")
        df = grouped_weighted_median(ds, "event_type", "value_cents",
                                     "w").to_pandas()
        return df.sort_values("event_type").reset_index(drop=True)

    def q233_mann_kendall(sf):  # nonparametric trend test statistic
        """Mann–Kendall S per user over event values in cents — the
        classic hydrology/climatology trend statistic, Σ sign(vⱼ−vᵢ)
        over time-ordered pairs, exact integer
        (relational.py:mann_kendall: L lockstep waves inside the
        bucket, no per-key loop, no L×L×G tensor). Oracle: the literal
        pair self-join SUM(SIGN(...))."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents") \
            .select_columns(["user_id", "event_id", "value_cents"])
        df = rel.mann_kendall(ev, "user_id", "event_id",
                              "value_cents").to_pandas()
        return df.sort_values("user_id").reset_index(drop=True)

    def q234_kernel_heatmap(sf):  # exact-integer KDE heat map
        """Triangle-kernel heatmap rasterization (the exact-integer
        KDE heat map): each point tents weight r−|Δ| per axis onto the
        16×16 cell-center grid — SHUFFLE-FREE: each batch scatter-adds
        a dense grid and emits nx·ny partial rows, a tiny grouped sum
        merges (pipelines/geostat.py:kernel_heatmap). Oracle: the
        literal cells × points GREATEST product sum."""
        from hand_index_ray.pipelines.geostat import kernel_heatmap

        ev = _t(sf, "events").select_columns(["event_id"])

        def pts(t: pa.Table) -> pa.Table:
            e = t.column("event_id").to_numpy()
            return pa.table({"px": pa.array((e * 7) % 256, pa.int64()),
                             "py": pa.array((e * 13) % 256, pa.int64())})

        ds = ev.map_batches(pts, batch_format="pyarrow")
        df = kernel_heatmap(ds, "px", "py", r=12, cs=16, nx=16,
                            ny=16).to_pandas()
        return df.sort_values(["cx", "cy"]).reset_index(drop=True)

    def q235_interval_union(sf):  # per-key interval union (coverage)
        """Interval-union coverage per user: each event opens a
        half-open [ts, ts + (user_id%5+1) min) window; overlapping or
        touching windows merge, reporting islands / covered time /
        longest island — ONE keyed shuffle, C-speed cummax sweep, no
        per-key loop (relational.py:interval_union). Oracle: window
        running-max islands."""
        ev = _t(sf, "events").select_columns(["user_id", "ts"])

        def iv(t: pa.Table) -> pa.Table:
            u = t.column("user_id").to_numpy()
            s = pc.cast(t["ts"], pa.int64()).to_numpy()
            return pa.table({
                "user_id": pa.array(u, pa.int64()),
                "s": pa.array(s, pa.int64()),
                "e": pa.array(s + (u % 5 + 1) * 60_000_000, pa.int64())})

        ds = ev.map_batches(iv, batch_format="pyarrow")
        df = rel.interval_union(ds, "user_id", "s", "e").to_pandas()
        return df.sort_values("user_id").reset_index(drop=True)

    def q236_forest_rank(sf):  # forest depth+root by pointer doubling
        """Depth and root of every node of a synthetic forest over the
        customer keys (parent(k) = k // (k%7 + 2), 0 = root) —
        distributed pointer doubling / parallel list ranking: O(log
        depth) slim task waves, state never on the driver
        (pipelines/graph.py:forest_rank). Oracle: the recursive CTE
        this replaces at warehouse scale."""
        from hand_index_ray.pipelines.graph import forest_rank

        cust = _t(sf, "customer").select_columns(["c_custkey"])

        def nodes(t: pa.Table) -> pa.Table:
            k = t.column("c_custkey").to_numpy().astype(np.int64)
            return pa.table({
                "node": pa.array(k, pa.int64()),
                "parent": pa.array(k // (k % 7 + 2), pa.int64())})

        ds = cust.map_batches(nodes, batch_format="pyarrow")
        df = forest_rank(ds).to_pandas()
        return df.sort_values("node").reset_index(drop=True)

    def q237_cheapest_hops(sf):  # hop-bounded min-plus shortest path
        """Cheapest cost within 4 hops from a 3-seed set over a
        directed weighted graph minted from lineitem — distributed
        Bellman–Ford cut at a hop budget: edges hash-partitioned once,
        one relax + one min-reduce wave per round, parallel multi-edges
        absorbed by the min (pipelines/graph.py:cheapest_hops).
        Oracle: 4 chained relax CTEs."""
        from hand_index_ray.pipelines.graph import cheapest_hops

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_partkey", "l_suppkey"])

        def edges(t: pa.Table) -> pa.Table:
            pk = t.column("l_partkey").to_numpy().astype(np.int64)
            sk = t.column("l_suppkey").to_numpy().astype(np.int64)
            ok = t.column("l_orderkey").to_numpy().astype(np.int64)
            return pa.table({
                "u": pa.array(pk * 17 % 2000, pa.int64()),
                "v": pa.array((sk * 131 + pk) % 2000, pa.int64()),
                "w": pa.array(ok % 97 + 1, pa.int64())})

        ds = li.map_batches(edges, batch_format="pyarrow")
        df = cheapest_hops(ds, np.array([0, 7, 130]), hops=4).to_pandas()
        df = df.rename(columns={"cost": "cost"})
        return df.sort_values("node").reset_index(drop=True)

    def q238_cdc_chunks(sf):  # content-defined chunking dedup ledger
        """Content-defined chunking (FastCDC/LBFS shape) over the
        documents corpus: Rabin–Karp gram hash ≡ 0 (mod 64) cuts,
        chunk ids from the same ONE flat modular prefix sum, corpus-
        wide chunk dedup through a slim (fp, len) shuffle, per
        size-class dedup ledger (pipelines/text.py:cdc_chunks).
        Oracle: the identical polynomial arithmetic via a windowed
        modular prefix sum."""
        return textops.cdc_chunks(_t(sf, "documents"), k=8, div=64)

    def q239_hysteresis(sf):  # Canny hysteresis edge linking
        """Canny stage 3 — hysteresis linking on NMS survivors of a
        disc fixture (ring edges vary gradient magnitude ALONG the
        boundary, so strong and weak survivors are 8-adjacent): strong
        (mag² ≥ hi) seeds flood through weak survivors, per-image
        vectorized dilation to fixpoint, map-only across the corpus
        (pipelines/terrain.py:hysteresis_stats). Oracle: join-based
        Sobel + NMS, then a recursive-CTE flood from the strong set."""
        from hand_index_ray.kernels.geotiff import encode_geotiff
        from hand_index_ray.pipelines.terrain import hysteresis_stats
        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(12, dtype=np.int64),
                             np.arange(14, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 239 == 0]
            blobs = []
            for k in keys:
                k = int(k)
                cx, cy = 4 + k % 6, 4 + (k // 6) % 4
                disc = (xx - cx) ** 2 + (yy - cy) ** 2 <= 5 + k % 9
                v = np.where(disc, 40 + k % 7, k % 5).astype(np.int32)
                blobs.append(encode_geotiff(v, compression="lzw",
                                            predictor=2))
            return pa.table({"o_orderkey": pa.array(
                                 [int(k) for k in keys], pa.int64()),
                             "bytes": pa.array(blobs, pa.binary())})

        ds = orders.map_batches(gen, batch_format="pyarrow")
        df = hysteresis_stats(ds, lo2=5000, hi2=30000,
                              id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q240_rect_union(sf):  # union area of rectangle footprints
        """Tile-coverage measure: union area of axis-aligned integer
        rectangle footprints per group, overlaps counted once — ONE
        keyed shuffle, per key a coordinate-compressed 2-D difference
        array built by one np.add.at scatter over ALL rectangle
        corners + two cumsums (pipelines/geostat.py:rect_union_area).
        Oracle: distinct covered unit cells."""
        from hand_index_ray.pipelines.geostat import rect_union_area

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def rects(t: pa.Table) -> pa.Table:
            k = t.column("o_orderkey").to_numpy().astype(np.int64)
            x1 = (k * 3) % 50
            y1 = (k * 7) % 40
            return pa.table({
                "gid": pa.array(k % 13, pa.int64()),
                "x1": pa.array(x1, pa.int64()),
                "y1": pa.array(y1, pa.int64()),
                "x2": pa.array(x1 + k % 9 + 1, pa.int64()),
                "y2": pa.array(y1 + k % 6 + 1, pa.int64())})

        ds = orders.map_batches(rects, batch_format="pyarrow")
        df = rect_union_area(ds, "gid", "x1", "y1", "x2", "y2") \
            .to_pandas()
        return df.sort_values("gid").reset_index(drop=True)

    def q241_range_frame_sum(sf):  # time-RANGE windowed sum
        """RANGE-frame windowed aggregate — per event, the sum/count
        of value over the user's events in the trailing 10 minutes
        (timestamp peers included, SQL RANGE semantics): one keyed
        shuffle, groups shifted onto disjoint integer segments so ONE
        global searchsorted per frame edge + prefix-sum gathers window
        every row at once (relational.py:range_frame_sum). Oracle:
        native RANGE BETWEEN window."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "value_cents": t["value_cents"]})

        ds = ev.map_batches(prep, batch_format="pyarrow")
        df = rel.range_frame_sum(ds, "user_id", "ts_us", "value_cents",
                                 width=600_000_000).to_pandas()
        df = df[["event_id", "user_id", "ts_us", "w_sum", "w_cnt"]]
        return df.sort_values("event_id").reset_index(drop=True)

    def q242_rrf(sf):  # reciprocal-rank fusion of two orderings
        """Hybrid-retrieval merge: per event type, fuse the
        value-descending and time-ascending orderings with reciprocal
        rank fusion (k=60) and keep the top 3 — the score rides as the
        EXACT unreduced fraction (num, den) and ordering uses the
        integer key num·2⁴⁰ // den with id tiebreak, a deterministic
        total order SQL reproduces bit-for-bit
        (relational.py:rrf_topk). Oracle: two ROW_NUMBER orderings +
        the same integer sort key."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({
                "event_type": t["event_type"],
                "event_id": t["event_id"],
                "value_cents": t["value_cents"],
                "ts_us": pc.cast(t["ts"], pa.int64())})

        ds = ev.map_batches(prep, batch_format="pyarrow")
        df = rel.rrf_topk(ds, "event_type", "event_id", "value_cents",
                          "ts_us", k=60, topk=3).to_pandas()
        return df.sort_values(["event_type", "rk"]).reset_index(drop=True)

    def _discbar_blobs(sf):
        """Disc ∪ 2-pixel bar masks (values 30/0) as GeoTIFFs — the
        skeletonization fixture (elongated shapes → line skeletons)."""
        from hand_index_ray.kernels.geotiff import encode_geotiff
        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(12, dtype=np.int64),
                             np.arange(14, dtype=np.int64), indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 239 == 0]
            blobs = []
            for k in keys:
                k = int(k)
                cx, cy = 4 + k % 6, 4 + (k // 6) % 4
                by = 2 + k % 7
                m = (((xx - cx) ** 2 + (yy - cy) ** 2 <= 5 + k % 9)
                     | ((yy >= by) & (yy <= by + 1)
                        & (xx >= 1) & (xx <= 12)))
                blobs.append(encode_geotiff(
                    np.where(m, 30, 0).astype(np.int32),
                    compression="deflate", predictor=2))
            return pa.table({"o_orderkey": pa.array(
                                 [int(k) for k in keys], pa.int64()),
                             "bytes": pa.array(blobs, pa.binary())})

        return orders.map_batches(gen, batch_format="pyarrow")

    def q243_skeleton(sf):  # Zhang-Suen raster skeletonization
        """Zhang–Suen thinning of disc∪bar masks to line skeletons —
        the two alternating delete sub-iterations (B∈[2,6], A=1, phase
        product conditions) run vectorized to fixpoint per raster,
        map-only across the corpus
        (pipelines/terrain.py:zhang_suen_core). Oracle: 16 unrolled
        sub-iteration CTEs (≥ the measured 6-iteration fixpoint)."""
        from hand_index_ray.pipelines.terrain import skeleton_stats
        df = skeleton_stats(_discbar_blobs(sf), thresh=20,
                            id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q244_resample_tracks(sf):  # trajectory resampling to a grid
        """GPS-track resampling: every trajectory re-sampled at the
        global tick grid 5·ℤ inside [t_first, t_last], floor-exact
        linear interpolation of the bracketing points, ONE keyed
        shuffle + one global searchsorted for every bracket
        (pipelines/trajectory.py:resample_tracks). Points are first
        deduped to the min packed (x,y) per (gid, t) — the synthetic
        lineitem repeats (orderkey, linenumber) pairs. Oracle: LEAD
        segments range-joined to the tick series."""
        from hand_index_ray.pipelines.trajectory import resample_tracks

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

        def prep(t: pa.Table) -> pa.Table:
            ok = t.column("l_orderkey").to_numpy().astype(np.int64)
            ln = t.column("l_linenumber").to_numpy().astype(np.int64)
            pk = t.column("l_partkey").to_numpy().astype(np.int64)
            sk = t.column("l_suppkey").to_numpy().astype(np.int64)
            return pa.table({
                "gid": pa.array(ok % 389, pa.int64()),
                "t": pa.array((ok // 389) * 8 + ln, pa.int64()),
                "c": pa.array((pk % 64) * 64 + sk % 64, pa.int64())})

        pts = rel.grouped_agg_hash(
            li.map_batches(prep, batch_format="pyarrow"),
            ["gid", "t"], min_cols=["c"], count=False)

        def unpack(t: pa.Table) -> pa.Table:
            c = t.column("min_c").to_numpy()
            return pa.table({"gid": t["gid"], "t": t["t"],
                             "x": pa.array(c // 64, pa.int64()),
                             "y": pa.array(c % 64, pa.int64())})

        ds = pts.map_batches(unpack, batch_format="pyarrow")
        df = resample_tracks(ds, "gid", "t", "x", "y", step=5).to_pandas()
        return df.sort_values(["gid", "tick"]).reset_index(drop=True)

    def q245_mode_filter(sf):  # 3x3 majority (mode) filter
        """Categorical-raster denoise: 3×3 majority filter over the
        8-level plateau fixture, smallest-value tie-break, one
        shifted-slice count pass per label (no per-pixel loop)
        (pipelines/terrain.py:mode_filter_stats). Oracle: 3×3 offsets
        cross join + QUALIFY argmax."""
        from hand_index_ray.pipelines.terrain import mode_filter_stats
        ds = _terrain_blobs(sf, 241, 14, 11, 13, 7, 3, 256, div=32,
                            compression="lzw", predictor=2)
        df = mode_filter_stats(ds, nvals=8,
                               id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q246_zonal_majority(sf):  # majority class per zone band
        """Corpus-wide zonal majority (the land-cover rollup): every
        raster bincounts (y-band, class) locally so PARTIALS, not
        pixels, cross the wire; a tiny grouped sum merges and the
        per-band argmax breaks ties toward the smaller class
        (pipelines/terrain.py:zonal_majority). Oracle: GROUP BY +
        window argmax."""
        from hand_index_ray.pipelines.terrain import zonal_majority
        ds = _terrain_blobs(sf, 241, 14, 11, 13, 7, 3, 256,
                            compression="lzw", predictor=2)
        df = zonal_majority(ds, band_h=3, nclasses=8, div=32,
                            id_col="o_orderkey").to_pandas()
        return df.sort_values("band").reset_index(drop=True)

    def q247_theil_sen(sf):  # robust trend slope (Theil-Sen)
        """Theil–Sen slope per user over event values in cents (t =
        event id): the exact lower-median pairwise slope, reported as
        the (med_dy, med_dx) pair; median ordering by the integer key
        dy·2⁴⁰ // dx with (dy, dx) tiebreak — SQL-reproducible
        bit-for-bit (relational.py:theil_sen; the robust sibling of
        q174's OLS and q233's Mann–Kendall). Oracle: pair self-join +
        QUALIFY median pick with truncation-safe floor division."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents") \
            .select_columns(["user_id", "event_id", "value_cents"])
        df = rel.theil_sen(ev, "user_id", "event_id",
                           "value_cents").to_pandas()
        return df.sort_values("user_id").reset_index(drop=True)

    def q248_autocov(sf):  # lag-k autocovariance partials
        """Lag-3 autocovariance sufficient statistics per user —
        m = n−3 overlapped pairs, Σ x·x₊₃ and the two marginal sums,
        exact integers from one groupby shift inside the bucket
        (relational.py:lag_autocov). Oracle: rn+3 self-join."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents") \
            .select_columns(["user_id", "event_id", "value_cents"])
        df = rel.lag_autocov(ev, "user_id", "event_id", "value_cents",
                             lag=3).to_pandas()
        return df.sort_values("user_id").reset_index(drop=True)

    def q249_soundex(sf):  # phonetic blocking (entity resolution)
        """Phonetic blocking over part-name nouns: simplified Soundex
        (h/w rule omitted, mirrored exactly by the oracle) codes every
        distinct last word, buckets report fuzzy-candidate yield —
        fully vectorized flat code-point pass, slim (code, word)
        shuffle (pipelines/text.py:soundex_codes). Oracle: translate()
        + per-char LAG run-collapse + STRING_AGG."""
        from hand_index_ray.pipelines.text import soundex_buckets
        df = soundex_buckets(_t(sf, "part"), "p_name").to_pandas()
        return df.sort_values("code").reset_index(drop=True)

    def q250_ohlc(sf):  # OHLC candlestick resampling
        """OHLC bars per (event type, hour): open/high/low/close of
        value cents with (ts, event_id) tie-break, one keyed shuffle +
        one pandas groupby.agg (relational.py:ohlc_bars). Oracle:
        window ROW_NUMBER first/last + MIN/MAX."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({
                "event_type": t["event_type"],
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "event_id": t["event_id"],
                "value_cents": t["value_cents"]})

        ds = ev.map_batches(prep, batch_format="pyarrow")
        df = rel.ohlc_bars(ds, "event_type", "ts_us", "event_id",
                           "value_cents",
                           width=3_600_000_000).to_pandas()
        return df.sort_values(["event_type", "window_id"]) \
            .reset_index(drop=True)

    def q251_gini(sf):  # exact Gini impurity per key
        """Label-skew diagnostic: Gini impurity of each user's
        event-type distribution as the EXACT unreduced rational
        (n² − Σc², n²) — class counts pre-aggregate per batch, no
        float ever (relational.py:gini_impurity). Oracle: the same
        integer algebra over GROUP BY counts."""
        ev = _t(sf, "events").select_columns(["user_id", "event_type"])
        df = rel.gini_impurity(ev, "user_id", "event_type").to_pandas()
        return df.sort_values("user_id").reset_index(drop=True)

    def q252_interval_join(sf):  # interval x interval overlap join
        """Two-sided interval overlap join per user — error windows
        [ts, ts+5 min) against view windows [ts, ts+3 min), every
        overlapping pair exactly once via time-cell co-groups with the
        canonical max(sa, sb) cell rule
        (relational.py:interval_overlap_join). Oracle: the brute
        sa < eb AND sb < ea theta join."""
        ev = _t(sf, "events").select_columns(
            ["event_id", "ts", "user_id", "event_type"])

        def side(et, dur):
            def fn(t: pa.Table) -> pa.Table:
                t = t.filter(pc.equal(t["event_type"], et))
                s = pc.cast(t["ts"], pa.int64()).to_numpy()
                return pa.table({
                    "event_id": t["event_id"],
                    "user_id": t["user_id"],
                    "s": pa.array(s, pa.int64()),
                    "e": pa.array(s + dur, pa.int64())})
            return fn

        da = ev.map_batches(side("error", 300_000_000),
                            batch_format="pyarrow")
        db = ev.map_batches(side("view", 180_000_000),
                            batch_format="pyarrow")
        pairs = rel.interval_overlap_join(
            da, db, "user_id", "event_id", "s", "e",
            cell_us=300_000_000).to_pandas()
        out = pairs.groupby("user_id", as_index=False).agg(
            n_pairs=("a_id", "size"),
            checksum=("a_id", "sum"))
        out["checksum"] = (out["checksum"]
                           + 2 * pairs.groupby("user_id")["b_id"].sum()
                           .reindex(out["user_id"]).to_numpy())
        out["n_pairs"] = out["n_pairs"].astype("int64")
        out["checksum"] = out["checksum"].astype("int64")
        return out.sort_values("user_id").reset_index(drop=True)

    def q253_rolling_active(sf):  # rolling 7-day distinct users
        """DAU/WAU: per day present in events, distinct users that day
        and over the trailing 7 days — exact without per-window sets:
        dedup (user, day), explode each survivor to the 7 windows it
        influences, dedup (user, window); every shuffle carries slim
        pairs (relational.py:rolling_distinct). Oracle: correlated
        COUNT(DISTINCT) over the day range."""
        ev = _t(sf, "events").select_columns(["user_id", "ts"])

        def prep(t: pa.Table) -> pa.Table:
            d = pc.cast(t["ts"], pa.int64()).to_numpy() // 86_400_000_000
            return pa.table({"user_id": t["user_id"],
                             "day": pa.array(d, pa.int64())})

        ds = ev.map_batches(prep, batch_format="pyarrow")
        return rel.rolling_distinct(ds, "user_id", "day", window=7)

    def q254_shared_ngrams(sf):  # exact shared-12-gram dedup pairs
        """ExactSubstr-style dedup candidates: doc pairs sharing ≥ 20
        distinct character 12-grams, EVERY gram counted (q42's
        winnowing samples; this is the exact-at-gram-granularity
        sibling) — distinct (hash, doc) slim rows from one flat prefix
        sum, posting-list pair emission, count shuffle
        (pipelines/text.py:shared_ngram_pairs). Oracle: the same
        polynomial grams via 12 explicit terms + a brute hash-equality
        self-join."""
        from hand_index_ray.pipelines.text import shared_ngram_pairs
        df = shared_ngram_pairs(_t(sf, "documents"), k=12,
                                min_shared=20).to_pandas()
        return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    def q255_twap(sf):  # time-weighted average partials
        """TWAP per user: Σ value·Δt over consecutive events plus the
        covered duration, exact integers (the value holds until the
        next event; single-event users carry no duration and drop)
        (relational.py:twap). Oracle: LEAD deltas."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t["user_id"],
                             "ts_us": pc.cast(t["ts"], pa.int64()),
                             "value_cents": t["value_cents"]})

        ds = ev.map_batches(prep, batch_format="pyarrow")
        df = rel.twap(ds, "user_id", "ts_us", "value_cents").to_pandas()
        return df.sort_values("user_id").reset_index(drop=True)

    def q256_label_dict(sf):  # global categorical dictionary
        """Label-encoding dictionary for part names: every distinct
        value with a stable dense id (= sorted rank) and its row count
        — distinct+count through the bucketed shuffle, only the
        VOCABULARY is ever sorted (relational.py:label_dictionary).
        Oracle: ROW_NUMBER over the distinct values."""
        df = rel.label_dictionary(_t(sf, "part"), "p_name")
        return df.sort_values("p_name").reset_index(drop=True)

    def q257_str_pack(sf):  # STR bulk-load spatial partitioning
        """Sort-Tile-Recursive packing of point footprints into 8×8
        NTILE leaves with per-leaf count + bbox — exact global (cx,id)
        ranks WITHOUT a global sort: domain-bounded value counts
        broadcast as offsets + per-value id ranks inside the value's
        hash bucket (relational.py:str_pack; the bulk R-tree loading
        layout). Oracle: two native NTILE windows."""
        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def pts(t: pa.Table) -> pa.Table:
            k = t.column("o_orderkey").to_numpy().astype(np.int64)
            return pa.table({"id": pa.array(k, pa.int64()),
                             "cx": pa.array((k * 7) % 500, pa.int64()),
                             "cy": pa.array((k * 13) % 500, pa.int64())})

        ds = orders.map_batches(pts, batch_format="pyarrow")
        df = rel.str_pack(ds, "id", "cx", "cy", slabs=8,
                          leaves=8).to_pandas()
        return df.sort_values(["slab", "leaf"]).reset_index(drop=True)

    def q258_nearest_join(sf):  # nearest-event join (sensor fusion)
        """Each error event joined to the same user's NEAREST view
        event by |Δt| (earlier side wins exact ties) — one
        co-partitioning shuffle, per-bucket two-direction merge_asof +
        vectorized tie resolve (relational.py:nearest_join). Oracle:
        QUALIFY argmin over the pair join."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def typed(et, cols):
            def fn(t: pa.Table) -> pa.Table:
                t = t.filter(pc.equal(t["event_type"], et))
                out = {"user_id": t["user_id"],
                       "ts_us": pc.cast(t["ts"], pa.int64())}
                for c in cols:
                    out[c] = t[c]
                return pa.table(out)
            return fn

        err = ev.map_batches(typed("error", ["event_id"]),
                             batch_format="pyarrow")
        view = ev.map_batches(typed("view", ["value_cents"]),
                              batch_format="pyarrow")
        df = rel.nearest_join(err, view, on="ts_us", by="user_id",
                              left_cols=["event_id"],
                              right_cols=["value_cents"]).to_pandas()
        return df.sort_values("event_id").reset_index(drop=True)

    def q259_locf(sf):  # LOCF gap-fill to an hourly grid
        """Last-observation-carried-forward regularization: per user,
        hourly ticks inside [first, last] carry the latest
        at-or-before value — tick enumeration by repeat/arange, ONE
        global searchsorted on segment-shifted times; (user, ts)
        deduped to min cents first (relational.py:locf_grid). Oracle:
        tick spine + native ASOF JOIN."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t["user_id"],
                             "ts_us": pc.cast(t["ts"], pa.int64()),
                             "value_cents": t["value_cents"]})

        pts = rel.grouped_agg_hash(
            ev.map_batches(prep, batch_format="pyarrow"),
            ["user_id", "ts_us"], min_cols=["value_cents"],
            count=False)

        def unpack(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t["user_id"],
                             "ts_us": t["ts_us"],
                             "v": t["min_value_cents"]})

        ds = pts.map_batches(unpack, batch_format="pyarrow")
        df = rel.locf_grid(ds, "user_id", "ts_us", "v",
                           step=3_600_000_000).to_pandas()
        return df.sort_values(["user_id", "tick"]).reset_index(drop=True)

    def q260_cdf_join(sf):  # broadcast empirical-CDF rank join
        """Percentile-rank every event value against the order-price
        calibration distribution: the sorted reference broadcasts once
        and each batch is one searchsorted — MAP-ONLY, no join shuffle
        (relational.py:cdf_rank_join; the score-normalization lookup).
        Oracle: correlated COUNT(ref ≤ v)."""
        orders = _t(sf, "orders").select_columns(["o_totalprice"]) \
            .to_pandas()
        ref = np.round(orders["o_totalprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"event_id": t["event_id"],
                             "value_cents": t["value_cents"]})

        ds = ev.map_batches(prep, batch_format="pyarrow")
        df = rel.cdf_rank_join(ds, "value_cents", ref).to_pandas()
        return df.sort_values("event_id").reset_index(drop=True)

    def q261_sliding_max(sf):  # ROWS-frame sliding maximum
        """Peak-hold: per user, the max value over the trailing 5
        rows by event id — every key of the bucket processed at once
        on a padded grid with one numpy sliding-window view
        (relational.py:sliding_max). Oracle: MAX OVER ROWS 4
        PRECEDING."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents") \
            .select_columns(["user_id", "event_id", "value_cents"])
        df = rel.sliding_max(ev, "user_id", "event_id", "value_cents",
                             window=5).to_pandas()
        return df.sort_values(["user_id", "event_id"]) \
            .reset_index(drop=True)

    def q262_emd1d(sf):  # exact EMD vs the global distribution
        """Distribution-drift diagnostic: exact 1-D earth mover's
        distance of each event type's binned value histogram against
        the corpus, as the unreduced rational (Σ|n_g·C_k − n_k·C_g|,
        n_k·n_g) — count partials cross the wire, the fold is
        |types|×64 (relational.py:emd1d_vs_global). Oracle: windowed
        cumulative sums over a zero-filled grid."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def prep(t: pa.Table) -> pa.Table:
            b = np.clip(t.column("value_cents").to_numpy() // 200,
                        0, 63)
            return pa.table({"event_type": t["event_type"],
                             "b": pa.array(b, pa.int64())})

        ds = ev.map_batches(prep, batch_format="pyarrow")
        return rel.emd1d_vs_global(ds, "event_type", "b", nbins=64)

    def q263_audience_overlap(sf):  # segment-overlap matrix
        """Audience overlap: users active in BOTH event types, for
        every type pair — each user folds to one bitmask row, mask
        frequencies aggregate to ≤ 2^|types| rows, pairs fold on the
        counts; the data never self-joins
        (relational.py:audience_overlap). Oracle: distinct-pair
        self-join."""
        ev = _t(sf, "events").select_columns(["user_id", "event_type"])
        return rel.audience_overlap(ev, "user_id", "event_type")

    def q264_largest_remainder(sf):  # pro-rata integer allocation
        """Hamilton largest-remainder allocation: 10 000 units per
        event type split across its users proportional to activity,
        base + largest-remainder bonuses (ties → smaller user id), so
        the per-type total is EXACT
        (relational.py:largest_remainder). Oracle: window base/rem
        arithmetic + ROW_NUMBER bonus rank."""
        ev = _t(sf, "events").select_columns(["event_type", "user_id"])
        counts = rel.grouped_agg_hash(ev, ["event_type", "user_id"],
                                      count=True)
        df = rel.largest_remainder(counts, "event_type", "user_id",
                                   "n", total=10_000).to_pandas()
        return df.sort_values(["event_type", "user_id"]) \
            .reset_index(drop=True)

    def q265_mase(sf):  # forecast-baseline error partials
        """MASE ledger per user: Σ|v_t−v_{t−1}| (naive) and
        Σ|v_t−v_{t−7}| (seasonal) step errors as exact integers from
        two groupby shifts (relational.py:mase_partials). Oracle: two
        LAG windows."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents") \
            .select_columns(["user_id", "event_id", "value_cents"])
        df = rel.mase_partials(ev, "user_id", "event_id",
                               "value_cents", season=7).to_pandas()
        return df.sort_values("user_id").reset_index(drop=True)

    def q266_seq_packing(sf):  # LLM context-window packing
        """Greedy sequential context-window packing (the LLM training
        batcher): documents stream per source in doc-id order filling
        2000-token bins; the carry recurrence runs as one lockstep
        vectorized wave per sequence index across every source at once
        (pipelines/text.py:sequence_packing, the integer_ema shape).
        Oracle: recursive CTE carrying (fill, bin)."""
        from hand_index_ray.pipelines.text import sequence_packing
        docs = _t(sf, "documents").select_columns(
            ["source", "doc_id", "n_chars"])
        df = sequence_packing(docs, "source", "doc_id", "n_chars",
                              capacity=2000).to_pandas()
        return df.sort_values(["source", "doc_id"]) \
            .reset_index(drop=True)

    def q267_linear_reference(sf):  # locate-along-measure
        """Linear referencing: the exact point 1/4, 2/4 and 3/4 of the
        way along each trajectory's L1 chainage (integer metric — the
        euclidean one needs sqrt; oracle mirrors it), floor-exact
        interpolation inside the containing segment, one flat
        searchsorted per fraction
        (pipelines/trajectory.py:linear_reference). Oracle: window
        prefix sums + QUALIFY last-vertex-at-or-before pick."""
        from hand_index_ray.pipelines.trajectory import linear_reference

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

        def prep(t: pa.Table) -> pa.Table:
            ok = t.column("l_orderkey").to_numpy().astype(np.int64)
            ln = t.column("l_linenumber").to_numpy().astype(np.int64)
            pk = t.column("l_partkey").to_numpy().astype(np.int64)
            sk = t.column("l_suppkey").to_numpy().astype(np.int64)
            return pa.table({
                "gid": pa.array(ok % 389, pa.int64()),
                "t": pa.array((ok // 389) * 8 + ln, pa.int64()),
                "c": pa.array((pk % 64) * 64 + sk % 64, pa.int64())})

        pts = rel.grouped_agg_hash(
            li.map_batches(prep, batch_format="pyarrow"),
            ["gid", "t"], min_cols=["c"], count=False)

        def unpack(t: pa.Table) -> pa.Table:
            c = t.column("min_c").to_numpy()
            return pa.table({"gid": t["gid"], "t": t["t"],
                             "x": pa.array(c // 64, pa.int64()),
                             "y": pa.array(c % 64, pa.int64())})

        ds = pts.map_batches(unpack, batch_format="pyarrow")
        df = linear_reference(ds, "gid", "t", "x", "y",
                              fractions=[1, 2, 3], denom=4).to_pandas()
        return df.sort_values(["gid", "frac_num"]).reset_index(drop=True)

    def q268_shoelace(sf):  # exact polygon area + centroid
        """Exact shoelace area and area-weighted centroid of
        star-shaped integer polygons (8 fixed directions, key-mixed
        radii), carried as the unreduced triple (2A, cx_num, cy_num) —
        divide by 3·2A downstream, no float
        (pipelines/geostat.py:shoelace_stats). Oracle: LEAD cross
        products with modular wraparound."""
        from hand_index_ray.pipelines.geostat import shoelace_stats

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        dirs = np.array([(1, 0), (1, 1), (0, 1), (-1, 1),
                         (-1, 0), (-1, -1), (0, -1), (1, -1)],
                        np.int64)

        def verts(t: pa.Table) -> pa.Table:
            k = t.column("o_orderkey").to_numpy().astype(np.int64)
            k = k[k % 11 == 0]
            i = np.tile(np.arange(8, dtype=np.int64), len(k))
            kk = np.repeat(k, 8)
            r = (kk * (i + 3)) % 9 + 2
            return pa.table({
                "gid": pa.array(kk, pa.int64()),
                "i": pa.array(i, pa.int64()),
                "x": pa.array(100 + r * dirs[i, 0], pa.int64()),
                "y": pa.array(100 + r * dirs[i, 1], pa.int64())})

        ds = orders.map_batches(verts, batch_format="pyarrow")
        df = shoelace_stats(ds, "gid", "i", "x", "y").to_pandas()
        return df.sort_values("gid").reset_index(drop=True)

    def q269_lbp(sf):  # local-binary-pattern texture
        """LBP texture descriptor over the plateau fixture: 8-bit
        neighbor-threshold codes per interior pixel, uniform-pattern
        count (≤2 circular transitions), code checksum and distinct
        codes — one shifted-slice pass per bit, map-only
        (pipelines/terrain.py:lbp_stats). Oracle: 8 neighbor joins +
        bit_count(xor(...)) transitions."""
        from hand_index_ray.pipelines.terrain import lbp_stats
        ds = _terrain_blobs(sf, 241, 14, 11, 13, 7, 3, 256, div=32,
                            compression="lzw", predictor=2)
        df = lbp_stats(ds, id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q270_blob_stats(sf):  # 8-connected component statistics
        """Connected-component statistics of disc∪bar masks: blob
        count, largest blob, and the Σ of per-blob min flat pixel
        indices — vectorized min-label propagation to fixpoint per
        raster (measured ≤14 waves on every fixture mask), map-only
        (pipelines/terrain.py:blob_stats). Oracle: 16 unrolled
        8-neighbor MIN waves."""
        from hand_index_ray.pipelines.terrain import blob_stats
        df = blob_stats(_discbar_blobs(sf), thresh=20,
                        id_col="o_orderkey").to_pandas()
        return df.sort_values("o_orderkey").reset_index(drop=True)

    def q271_benford(sf):  # Benford first-digit profile
        """Benford's-law screen: leading-digit counts of positive
        event cents per event type — digits from one vectorized
        decimal-string view (no float log10), per-batch partials
        (relational.py:benford_profile). Oracle: substr of the
        decimal cast."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")
        df = rel.benford_profile(ev, "event_type",
                                 "value_cents").to_pandas()
        return df.sort_values(["event_type", "digit"]) \
            .reset_index(drop=True)

    def q272_front_coding(sf):  # dictionary front-coding ledger
        """Front-coding compression ledger of the distinct part
        names: per first-character block, terms / bytes / bytes saved
        by each term's LCP with its sorted predecessor — terms bucket
        by FIRST CHARACTER so every sorted-neighbor pair shares a
        bucket and cross-bucket neighbors provably share no prefix
        (relational.py:front_coding_ledger). Oracle: LAG + monotone
        MAX-prefix-equality LCP."""
        df = rel.front_coding_ledger(_t(sf, "part"),
                                     "p_name").to_pandas()
        return df.sort_values("first_char").reset_index(drop=True)

    def q273_stratified_sample(sf):  # deterministic stratified sample
        """1000-row proportional stratified sample of events by type:
        largest-remainder per-stratum allocation (exact total) and a
        content-stable md5(id) pick within each stratum — no RNG, SQL
        reproduces it row for row
        (relational.py:stratified_sample). Oracle: the same allocation
        windows + md5 ROW_NUMBER."""
        ev = _t(sf, "events").select_columns(["event_type", "event_id"])
        df = rel.stratified_sample(ev, "event_type", "event_id",
                                   total=1000).to_pandas()
        return df.sort_values(["event_type", "event_id"]) \
            .reset_index(drop=True)

    def q274_containment(sf):  # asymmetric containment near-dups
        """Containment dedup candidates over documents: ordered pairs
        where ≥ 1/2 of the contained side's distinct 12-grams appear
        in the other doc (cross-multiplied, no float) — the
        quote/superset rule Jaccard misses
        (pipelines/text.py:containment_pairs). Oracle: the q254 gram
        join + a per-doc gram-count join."""
        from hand_index_ray.pipelines.text import containment_pairs
        df = containment_pairs(_t(sf, "documents"), k=12, tau_num=1,
                               tau_den=2).to_pandas()
        return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    def q275_lift(sf):  # decile lift table (model evaluation)
        """Ranked-model lift: events NTILE into 10 score deciles
        (value cents DESC, id tiebreak) with per-decile rows /
        positives (clicks) / cumulative positives — exact global
        NTILE without a global sort (the str_pack rank trick)
        (relational.py:lift_table). Oracle: native NTILE windows."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def prep(t: pa.Table) -> pa.Table:
            lab = pc.equal(t["event_type"], "click")
            return pa.table({
                "value_cents": t["value_cents"],
                "event_id": t["event_id"],
                "is_click": pc.cast(lab, pa.int64())})

        ds = ev.map_batches(prep, batch_format="pyarrow")
        return rel.lift_table(ds, "value_cents", "event_id",
                              "is_click", tiles=10)

    def q276_auc(sf):  # exact AUC (Mann-Whitney with ties)
        """Exact AUC of value cents predicting clicks, as the
        unreduced rational (2U, 2·n_pos·n_neg) — tie-aware
        Mann–Whitney from score-histogram partials, fold bounded by
        the distinct-cents domain, no pair join, no float
        (relational.py:auc_exact). Oracle: the same cumulative
        algebra in SQL windows."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def prep(t: pa.Table) -> pa.Table:
            lab = pc.equal(t["event_type"], "click")
            return pa.table({"value_cents": t["value_cents"],
                             "is_click": pc.cast(lab, pa.int64())})

        ds = ev.map_batches(prep, batch_format="pyarrow")
        return rel.auc_exact(ds, "value_cents", "is_click")

    def q277_ks_test(sf):  # exact two-sample KS statistic
        """Two-sample Kolmogorov–Smirnov drift test between click and
        view value distributions, exact as the unreduced rational
        max|n_b·C_a − n_a·C_b| / n_a·n_b over cent values — count
        partials only, no float (relational.py:ks_two_sample).
        Oracle: the same cumulative algebra in SQL windows."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents") \
            .select_columns(["event_type", "value_cents"])
        return rel.ks_two_sample(ev, "event_type", "value_cents",
                                 "click", "view")

    def q279_reciprocity(sf):  # directed-graph reciprocity
        """Reciprocity of the q237 directed graph: distinct directed
        edges whose reverse also exists — each edge folds to its
        undirected key + orientation bit, one hash-bucket shuffle,
        per-pair OR; only 3 counters reach the driver
        (pipelines/graph.py:reciprocity). Oracle: distinct-edge
        self-join."""
        from hand_index_ray.pipelines.graph import reciprocity

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_partkey", "l_suppkey"])

        def edges(t: pa.Table) -> pa.Table:
            pk = t.column("l_partkey").to_numpy().astype(np.int64)
            sk = t.column("l_suppkey").to_numpy().astype(np.int64)
            return pa.table({
                "u": pa.array(pk * 17 % 2000, pa.int64()),
                "v": pa.array((sk * 131 + pk) % 2000, pa.int64())})

        ds = li.map_batches(edges, batch_format="pyarrow")
        return reciprocity(ds)

    def q278_pair_lift(sf):  # association lift between categories
        """Surprising event-type co-occurrence among HIGH-VALUE
        events (cents > 20000 — the full incidence is saturated):
        pairs whose joint user-incidence meets or beats independence,
        cross-multiplied (obs·N·den ≥ num·c_a·c_b) — rides the
        audience-overlap bitmask fold, the data never self-joins
        (relational.py:pair_lift). Oracle: distinct-pair join + the
        same integer inequality."""
        ev = rel.add_cents(_t(sf, "events"), "value", "value_cents")

        def hi(t: pa.Table) -> pa.Table:
            t = t.filter(pc.greater(t["value_cents"],
                                    pa.scalar(20000, pa.int64())))
            return pa.table({"user_id": t["user_id"],
                             "event_type": t["event_type"]})

        ds = ev.map_batches(hi, batch_format="pyarrow")
        return rel.pair_lift(ds, "user_id", "event_type",
                             lift_num=1, lift_den=1)

    def q280_delta_varint(sf):  # column-encoding cost ledger
        """Delta+varint encoding ledger of each user's sorted event
        timestamps (the encoding chooser's cost model): LEB128 byte
        sizes and the bit-packing width, exact integers — bit lengths
        from an exact power-of-two repair of float log2
        (relational.py:delta_varint_ledger). Oracle: length(bin(Δ))
        arithmetic."""
        ev = _t(sf, "events").select_columns(["user_id", "ts"])

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t["user_id"],
                             "ts_us": pc.cast(t["ts"], pa.int64())})

        ds = ev.map_batches(prep, batch_format="pyarrow")
        df = rel.delta_varint_ledger(ds, "user_id", "ts_us").to_pandas()
        return df.sort_values("user_id").reset_index(drop=True)

    def q281_bm25(sf):  # BM25 retrieval scoring (log-free rational idf)
        """BM25 top-25 with k1=6/5, b=3/4 and the log-free idf ratio
        (2N−2df+1)/(2df+1) — the whole per-term score is one exact
        int64 rational, floor(10⁶·num/den + ½) with ONE double
        division in identical order on both sides
        (pipelines/mining.py:bm25_topk). Two streaming passes (corpus
        stats, then scoring) + bounded local-top-k merge."""
        from hand_index_ray.pipelines import mining
        return mining.bm25_topk(_t(sf, "documents"),
                                ["hash", "merge", "window"], k=25)

    def q282_link_pred(sf):  # common-neighbor link prediction
        """Link prediction over the derived graph (q279's edge
        formula): top-25 NON-adjacent pairs by common-neighbor count,
        with the neighborhood-Jaccard denominator. Per-node vectorized
        wedge explosion → high-cardinality pair count → streamed
        anti-edge filter (pipelines/mining.py:link_prediction)."""
        from hand_index_ray.pipelines import mining

        def edges(t: pa.Table) -> pa.Table:
            p = t.column("l_partkey").to_numpy().astype(np.int64)
            s = t.column("l_suppkey").to_numpy().astype(np.int64)
            return pa.table({"u": pa.array(p * 17 % 2000),
                             "v": pa.array((s * 131 + p) % 2000)})

        ds = _t(sf, "lineitem").select_columns(
            ["l_partkey", "l_suppkey"]).map_batches(
            edges, batch_format="pyarrow")
        return mining.link_prediction(ds, "u", "v", k=25)

    def q283_bool_and(sf):  # conjunctive boolean retrieval
        """Posting-list AND: documents whose token set contains EVERY
        query term — a map-only membership filter, no index
        materialization (pipelines/mining.py:boolean_and)."""
        from hand_index_ray.pipelines import mining
        ds = mining.boolean_and(_t(sf, "documents"),
                                ["hash", "merge", "window", "scan"],
                                keep=["n_chars"])
        return ds.to_pandas().sort_values("doc_id").reset_index(drop=True)

    def q284_k_anonymity(sf):  # privacy audit of quasi-identifiers
        """k-anonymity ledger over (nation, segment, balance-bucket):
        group sizes via the hash-bucket groupby, 1-row-per-batch
        ledger partials (pipelines/mining.py:k_anonymity_ledger)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            ab = np.floor(t.column("c_acctbal").to_numpy()
                          / 100.0).astype(np.int64)
            return pa.table({"c_nationkey": t.column("c_nationkey"),
                             "c_mktsegment": t.column("c_mktsegment"),
                             "ab": pa.array(ab)})

        ds = _t(sf, "customer").map_batches(prep, batch_format="pyarrow")
        return mining.k_anonymity_ledger(
            ds, ["c_nationkey", "c_mktsegment", "ab"], k=5)

    def q285_linkage(sf):  # blocked record-linkage scoring
        """Fellegi–Sunter-style agreement scoring inside nation
        blocks: same segment (+4), |Δcents| ≤ 10000 (+2), same sign
        (+1); pairs ≥ 6 (pipelines/mining.py:linkage_pairs). One
        shuffle on the blocking key, O(block²) vectorized pair
        matrices — never all-pairs."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            cents = rel.round_half_away(
                t.column("c_acctbal").to_numpy() * 100.0)
            return pa.table({"c_custkey": t.column("c_custkey"),
                             "c_nationkey": t.column("c_nationkey"),
                             "c_mktsegment": t.column("c_mktsegment"),
                             "cents": pa.array(cents.astype(np.int64))})

        ds = _t(sf, "customer").map_batches(prep, batch_format="pyarrow")
        out = mining.linkage_pairs(ds, "c_nationkey", "c_custkey",
                                   "c_mktsegment", "cents",
                                   close=10000, threshold=6)
        return (out.to_pandas().sort_values(["id_a", "id_b"])
                .reset_index(drop=True))

    def q286_lttb(sf):  # LTTB-mean series downsampling
        """Largest-Triangle downsampling with bucket-MEAN anchors
        (the parallel LTTB variant — every bucket's argmax is
        independent): 6 equal-frequency buckets per user, triangle
        areas compared by the exact integer numerator over the common
        denominator n_prev²·n_next (pipelines/mining.py:lttb_mean)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            cents = rel.round_half_away(
                t.column("value").to_numpy() * 100.0)
            return pa.table({"user_id": t.column("user_id"),
                             "event_id": t.column("event_id"),
                             "us": pc.cast(t.column("ts"), pa.int64()),
                             "cents": pa.array(cents.astype(np.int64))})

        ds = _t(sf, "events").map_batches(prep, batch_format="pyarrow")
        out = mining.lttb_mean(ds, "user_id", "us", "cents",
                               "event_id", nbuckets=6)
        return (out.to_pandas().sort_values(["user_id", "bucket"])
                .reset_index(drop=True))

    def q287_priority_sample(sf):  # weighted sampling without replacement
        """Duffield–Lund–Thorup priority sampling: priority = w/u with
        the deterministic multiplicative-hash u, top-200 — map-only +
        bounded top-k merge (pipelines/mining.py:priority_sample)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            cents = rel.round_half_away(
                t.column("o_totalprice").to_numpy() * 100.0)
            return pa.table({"o_orderkey": t.column("o_orderkey"),
                             "w_cents": pa.array(cents.astype(np.int64))})

        ds = _t(sf, "orders").map_batches(prep, batch_format="pyarrow")
        return mining.priority_sample(ds, "o_orderkey", "w_cents", k=200)

    def q288_pq_assign(sf):  # product-quantization codebook assignment
        """PQ assignment (the PQ half of IVF-PQ; q37 holds the IVF
        half): embeddings quantized to integers, 4 sub-spaces × 16
        codes, nearest code by EXACT integer squared L2, total
        reconstruction error per vector — broadcast codebook,
        tensorized per-batch argmin (pipelines/mining.py:pq_assign)."""
        from hand_index_ray.pipelines import mining
        out = mining.pq_assign(_t(sf, "embeddings"), ncodes=16, m=4)
        return (out.to_pandas().sort_values("vec_id")
                .reset_index(drop=True))

    def q289_compact_cells(sf):  # H3-compact cell-set compaction
        """Hierarchical cell-set compaction (H3 ``compact``
        semantics, kernels/h3exact.py holds the real bit layout):
        wherever all 7 children are present replace them by the
        parent, recursively. ONE shuffle on the root ancestor — every
        merge is subtree-local
        (pipelines/mining.py:compact_hierarchy)."""
        from hand_index_ray.pipelines import mining

        def leaves(t: pa.Table) -> pa.Table:
            c = (t.column("l_partkey").to_numpy().astype(np.int64) * 31
                 + t.column("l_suppkey").to_numpy().astype(np.int64) * 7
                 + t.column("l_orderkey").to_numpy().astype(np.int64))
            return pa.table({"cell": pa.array(c % 9604)})

        ds = _t(sf, "lineitem").select_columns(
            ["l_partkey", "l_suppkey", "l_orderkey"]).map_batches(
            leaves, batch_format="pyarrow")
        out = mining.compact_hierarchy(ds, "cell", depth=4, arity=7,
                                       nroots=4)
        return (out.to_pandas().sort_values(["res", "cell"])
                .reset_index(drop=True))

    def q290_lead_lag(sf):  # lead-lag cross-correlation detection
        """Best-lag between click and view streams per user: 1-hour
        buckets, integer cross-correlation over ℓ ∈ [−3, 3], argmax
        with ties to the smallest lag
        (pipelines/mining.py:lead_lag)."""
        from hand_index_ray.pipelines import mining
        out = mining.lead_lag(_t(sf, "events"), "user_id", "ts",
                              "event_type", "click", "view", max_lag=3)
        return (out.to_pandas().sort_values("user_id")
                .reset_index(drop=True))

    def q291_zone_adjacency(sf):  # region-adjacency boundary ledger
        """Region-adjacency graph of a label raster: shared-boundary
        length in pixel edges per unordered label pair
        (4-connectivity) — the decision input of dissolve/merge
        planning (pipelines/mining.py:zone_adjacency). Map-only,
        per-raster independent; oracle = shifted self-joins."""
        from hand_index_ray.pipelines import mining
        ds = _terrain_blobs(sf, 211, 16, 12, 37, 3, 5, 48, div=8,
                            compression="deflate", predictor=2)
        out = mining.zone_adjacency(ds)
        return (out.to_pandas().sort_values(["o_orderkey", "za", "zb"])
                .reset_index(drop=True))

    def q292_euler(sf):  # Euler characteristic (hole counting)
        """Image topology by Gray's quad counts over the zero-padded
        foreground mask (v ≥ 128): Q1/Q3/QD pattern counts, E4 and E8
        Euler numbers (components − holes), exact integers
        (pipelines/mining.py:euler_stats)."""
        from hand_index_ray.pipelines import mining
        ds = _terrain_blobs(sf, 223, 16, 12, 41, 7, 3, 256,
                            compression="deflate", predictor=2)
        out = mining.euler_stats(ds, thresh=128)
        return (out.to_pandas().sort_values("o_orderkey")
                .reset_index(drop=True))

    def q293_hist_pairs(sf):  # histogram-intersection retrieval pairs
        """Image retrieval by histogram intersection with DOMINANT-BIN
        blocking (pairs only inside equal-dominant-bin blocks — the
        retrieval blocking trick, never all-pairs); similarity =
        Σ min(h_a, h_b) exact ints
        (pipelines/mining.py:hist_intersection_pairs)."""
        from hand_index_ray.pipelines import mining
        ds = _terrain_blobs(sf, 227, 16, 12, 43, 9, 7, 256,
                            compression="deflate", predictor=2)
        df = mining.hist_intersection_pairs(ds, nbins=16,
                                            binw=16).to_pandas()
        if df.empty:  # no block had 2+ members (tiny sf)
            df = pd.DataFrame({c: pd.Series([], dtype="int64")
                               for c in ("id_a", "id_b", "dom", "sim")})
        return (df.sort_values(["id_a", "id_b"]).reset_index(drop=True))

    def q294_latency_hist(sf):  # power-of-two inter-arrival histogram
        """Telemetry latency ledger: per-user consecutive timestamp
        deltas bucketed by bit length (frexp-exact), global counts
        (pipelines/mining.py:latency_histogram)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t.column("user_id"),
                             "event_id": t.column("event_id"),
                             "us": pc.cast(t.column("ts"), pa.int64())})

        ds = _t(sf, "events").map_batches(prep, batch_format="pyarrow")
        return mining.latency_histogram(ds, "user_id", "us", "event_id")

    def q295_zonemap(sf):  # data-skipping zone-map ledger
        """Zone-map pruning ledger over key-range blocks of 512
        orders: per-block min/max/count, blocks skippable for a
        cents ≥ 4·10⁷ scan, and the exact match count
        (pipelines/mining.py:zonemap_ledger) — the manifest-pruning
        primitive (state/manifest.py) as a queryable operator."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            k = t.column("o_orderkey").to_numpy().astype(np.int64)
            cents = rel.round_half_away(
                t.column("o_totalprice").to_numpy() * 100.0)
            return pa.table({"blk": pa.array(k // 512),
                             "cents": pa.array(cents.astype(np.int64))})

        ds = _t(sf, "orders").map_batches(prep, batch_format="pyarrow")
        return mining.zonemap_ledger(ds, "blk", "cents",
                                     threshold=40000000)

    def q296_covariance(sf):  # feature covariance numerators
        """Cross-feature covariance matrix numerators (n·Σxy − Σx·Σy)
        for three integer features in one mergeable-partial pass —
        exact int64, bounds: x ≤ 50, y < 1000, z ≤ 10, so n·Σxy stays
        < 2⁶³ through sf10 (pipelines/mining.py:covariance_partials)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            q = t.column("l_quantity").to_numpy().astype(np.int64)
            p = t.column("l_partkey").to_numpy().astype(np.int64)
            d = rel.round_half_away(
                t.column("l_discount").to_numpy() * 100.0)
            return pa.table({"x": pa.array(q),
                             "y": pa.array(p % 1000),
                             "z": pa.array(d.astype(np.int64))})

        ds = _t(sf, "lineitem").select_columns(
            ["l_quantity", "l_partkey", "l_discount"]).map_batches(
            prep, batch_format="pyarrow")
        return mining.covariance_partials(ds, "x", "y", "z")

    def q297_sat_rects(sf):  # summed-area-table rectangle queries
        """Integral-image rectangle sums: 5 arithmetic-derived rects
        per raster answered in O(1) each via the 4-corner SAT
        identity; the oracle recomputes each naively
        (pipelines/mining.py:sat_rect_queries)."""
        from hand_index_ray.pipelines import mining
        ds = _terrain_blobs(sf, 229, 16, 12, 47, 11, 9, 256,
                            compression="deflate", predictor=2)
        out = mining.sat_rect_queries(ds, nq=5)
        return (out.to_pandas().sort_values(["o_orderkey", "j"])
                .reset_index(drop=True))

    def q298_late_events(sf):  # watermark lateness audit
        """Streaming allowed-lateness sizing: events ordered by a
        jittered ARRIVAL time; count arrivals > 1 h behind the running
        max event time per user, with the max lateness
        (pipelines/mining.py:late_event_ledger)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            us = pc.cast(t.column("ts"), pa.int64()).to_numpy()
            eid = t.column("event_id").to_numpy().astype(np.int64)
            arr = us + ((eid * 2654435761) % 14400) * 1000000
            return pa.table({"user_id": t.column("user_id"),
                             "event_id": t.column("event_id"),
                             "us": pa.array(us),
                             "arr": pa.array(arr)})

        ds = _t(sf, "events").map_batches(prep, batch_format="pyarrow")
        out = mining.late_event_ledger(ds, "user_id", "us", "arr",
                                       "event_id",
                                       w_us=3_600_000_000)
        return (out.to_pandas().sort_values("user_id")
                .reset_index(drop=True))

    def q299_compass(sf):  # movement-direction histogram
        """Compass-rose ledger over derived integer positions:
        consecutive per-user moves classified into axis-centered
        quadrants by exact integer comparisons (no trigonometry),
        global sector counts (pipelines/mining.py:compass_rose)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            eid = t.column("event_id").to_numpy().astype(np.int64)
            return pa.table({"user_id": t.column("user_id"),
                             "event_id": t.column("event_id"),
                             "us": pc.cast(t.column("ts"), pa.int64()),
                             "x": pa.array((eid * 48271) % 1024),
                             "y": pa.array((eid * 69621) % 1024)})

        ds = _t(sf, "events").map_batches(prep, batch_format="pyarrow")
        return mining.compass_rose(ds, "user_id", "us", "event_id",
                                   "x", "y")

    def q300_join_estimate(sf):  # spatial-join cardinality planning
        """Join-size estimation from grid histograms — the planner
        primitive behind zonal salting: exact equal-cell pair count on
        the 64×64 grid vs the 8×8-coarse estimate
        (pipelines/mining.py:join_cardinality_estimate)."""
        from hand_index_ray.pipelines import mining

        def cells_l(t: pa.Table) -> pa.Table:
            k = (t.column("l_orderkey").to_numpy() * 8
                 + t.column("l_linenumber").to_numpy()).astype(np.int64)
            cx = ((k * 2654435761) % 1048576) // 16384
            cy = ((k * 976369) % 1048576) // 16384
            return pa.table({"cell": pa.array(cx * 64 + cy)})

        def cells_o(t: pa.Table) -> pa.Table:
            k = t.column("o_orderkey").to_numpy().astype(np.int64)
            cx = ((k * 2654435761) % 1048576) // 16384
            cy = ((k * 976369) % 1048576) // 16384
            return pa.table({"cell": pa.array(cx * 64 + cy)})

        a = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_linenumber"]).map_batches(
            cells_l, batch_format="pyarrow")
        b = _t(sf, "orders").select_columns(["o_orderkey"]).map_batches(
            cells_o, batch_format="pyarrow")
        return mining.join_cardinality_estimate(a, b, "cell", dim=64,
                                                coarse_shift=3)

    def q301_census(sf):  # census transform (stereo-matching local op)
        """8-bit census codes over interior pixels (bit b set when
        D8 neighbor b exceeds the center), distinct/sum/max per raster
        (pipelines/mining.py:census_stats)."""
        from hand_index_ray.pipelines import mining
        ds = _terrain_blobs(sf, 233, 16, 12, 53, 13, 11, 64,
                            compression="deflate", predictor=2)
        out = mining.census_stats(ds)
        return (out.to_pandas().sort_values("o_orderkey")
                .reset_index(drop=True))

    def q302_top_paths(sf):  # clickstream 3-step path mining
        """Top-10 consecutive 3-step event-type paths across all
        users (pipelines/mining.py:top_paths)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t.column("user_id"),
                             "event_id": t.column("event_id"),
                             "us": pc.cast(t.column("ts"), pa.int64()),
                             "event_type": t.column("event_type")})

        ds = _t(sf, "events").map_batches(prep, batch_format="pyarrow")
        return mining.top_paths(ds, "user_id", "us", "event_id",
                                "event_type", k=10)

    def q303_fk_audit(sf):  # referential-integrity audit
        """Orphan-key audit of lineitem→part against a deliberately
        corrupted parent set (parts with p_partkey % 7 = 0 removed):
        orphan rows/keys + parent coverage, parent keys broadcast once
        (pipelines/mining.py:fk_audit; bloom_prefilter is the
        documented at-scale path)."""
        from hand_index_ray.pipelines import mining

        def par(t: pa.Table) -> pa.Table:
            k = t.column("p_partkey").to_numpy().astype(np.int64)
            return pa.table({"p_partkey": pa.array(k[k % 7 != 0])})

        parent = _t(sf, "part").select_columns(["p_partkey"]).map_batches(
            par, batch_format="pyarrow")
        child = _t(sf, "lineitem").select_columns(["l_partkey"])
        return mining.fk_audit(child, "l_partkey", parent, "p_partkey")

    def q304_triangle_threshold(sf):  # Zack triangle binarization
        """Triangle-method threshold per raster (the geometric sibling
        of q206's Otsu) over quadratic-residue rasters — peak→last-bin
        line, exact integer cross-product argmax
        (pipelines/mining.py:triangle_threshold)."""
        from hand_index_ray.kernels.geotiff import encode_geotiff
        from hand_index_ray.pipelines import mining
        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy, xx = np.meshgrid(np.arange(12, dtype=np.int64),
                             np.arange(16, dtype=np.int64),
                             indexing="ij")

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = keys[keys % 239 == 0]
            blobs = [encode_geotiff(
                ((int(k) * 59 + xx * xx * 17 + yy * yy * 13) % 64)
                .astype(np.int32), compression="deflate", predictor=2)
                for k in keys]
            return pa.table({"o_orderkey": pa.array(
                [int(k) for k in keys], pa.int64()),
                "bytes": pa.array(blobs, pa.binary())})

        ds = orders.map_batches(gen, batch_format="pyarrow")
        out = mining.triangle_threshold(ds, nlevels=64)
        return (out.to_pandas().sort_values("o_orderkey")
                .reset_index(drop=True))

    def q305_assortativity(sf):  # degree-assortativity numerators
        """Degree assortativity of the derived graph (q279's edges) as
        exact integer Pearson numerator/denominator over directed edge
        endpoints (pipelines/mining.py:assortativity_partials)."""
        from hand_index_ray.pipelines import mining

        def edges(t: pa.Table) -> pa.Table:
            p = t.column("l_partkey").to_numpy().astype(np.int64)
            s = t.column("l_suppkey").to_numpy().astype(np.int64)
            return pa.table({"u": pa.array(p * 17 % 2000),
                             "v": pa.array((s * 131 + p) % 2000)})

        ds = _t(sf, "lineitem").select_columns(
            ["l_partkey", "l_suppkey"]).map_batches(
            edges, batch_format="pyarrow")
        return mining.assortativity_partials(ds, "u", "v")

    def q306_dominant_period(sf):  # recurring-visit periodicity
        """Per-user dominant inter-arrival gap in hours (mode of
        consecutive deltas, tie → smallest gap) with support
        (pipelines/mining.py:dominant_period)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t.column("user_id"),
                             "event_id": t.column("event_id"),
                             "us": pc.cast(t.column("ts"), pa.int64())})

        ds = _t(sf, "events").map_batches(prep, batch_format="pyarrow")
        out = mining.dominant_period(ds, "user_id", "us", "event_id",
                                     unit_us=3_600_000_000)
        return (out.to_pandas().sort_values("user_id")
                .reset_index(drop=True))

    def q307_pyramid_error(sf):  # overview reconstruction QA
        """Pyramid-level QA: 2×2 floor-mean downsample (sum // 4, the
        COG overview rule), repeat-upsample, Σ|v−up| and max per
        raster (pipelines/mining.py:pyramid_error)."""
        from hand_index_ray.pipelines import mining
        ds = _terrain_blobs(sf, 241, 16, 12, 61, 19, 15, 256,
                            compression="deflate", predictor=2)
        out = mining.pyramid_error(ds)
        return (out.to_pandas().sort_values("o_orderkey")
                .reset_index(drop=True))

    def q308_top_keyword(sf):  # per-document keyness extraction
        """Keyword extraction: per doc the term maximizing the exact
        rational tf/ctf (corpus term frequency broadcast once; doc
        constants cancel, so the argmax is an integer cross-multiplied
        compare, ties → smaller term)
        (pipelines/mining.py:top_keyword)."""
        from hand_index_ray.pipelines import mining
        out = mining.top_keyword(_t(sf, "documents"))
        return (out.to_pandas().sort_values("doc_id")
                .reset_index(drop=True))

    def q309_nearest_city(sf):  # reverse-geocode assignment
        """Each derived event position assigned to the nearest of 8
        derived centers by exact integer L1 (tie → smallest id);
        per-center counts + total distance
        (pipelines/mining.py:nearest_center)."""
        from hand_index_ray.pipelines import mining
        ii = np.arange(8, dtype=np.int64)
        centers = np.stack([(ii * 2654435761) % 1024,
                            (ii * 976369) % 1024], axis=1)

        def prep(t: pa.Table) -> pa.Table:
            eid = t.column("event_id").to_numpy().astype(np.int64)
            return pa.table({"x": pa.array((eid * 48271) % 1024),
                             "y": pa.array((eid * 69621) % 1024)})

        ds = _t(sf, "events").select_columns(["event_id"]).map_batches(
            prep, batch_format="pyarrow")
        return mining.nearest_center(ds, "x", "y", centers)

    def q310_radius_gyration(sf):  # mobility radius of gyration
        """Radius-of-gyration numerators per user over derived integer
        positions — rog² = (n·(Σx²+Σy²) − Σx² − Σy²)/n² as exact
        integer numerator + n; pure grouped sums, no per-series pass
        (pipelines/mining.py:radius_gyration)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            eid = t.column("event_id").to_numpy().astype(np.int64)
            return pa.table({"user_id": t.column("user_id"),
                             "x": pa.array((eid * 48271) % 1024),
                             "y": pa.array((eid * 69621) % 1024)})

        ds = _t(sf, "events").select_columns(
            ["user_id", "event_id"]).map_batches(
            prep, batch_format="pyarrow")
        out = mining.radius_gyration(ds, "user_id", "x", "y")
        return (out.to_pandas().sort_values("user_id")
                .reset_index(drop=True))

    def q311_burstiness(sf):  # Fano-style burstiness numerators
        """Burstiness per user over nonzero hourly buckets:
        n·Σc² − (Σc)² numerators, exact ints — two chained
        hash-bucket groupbys (pipelines/mining.py:burstiness)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t.column("user_id"),
                             "us": pc.cast(t.column("ts"), pa.int64())})

        ds = _t(sf, "events").map_batches(prep, batch_format="pyarrow")
        out = mining.burstiness(ds, "user_id", "us",
                                bucket_us=3_600_000_000)
        return (out.to_pandas().sort_values("user_id")
                .reset_index(drop=True))

    def q312_contribution(sf):  # percent-of-total contribution ledger
        """Exact-ppm contribution ledger over (priority, status):
        cents, ppm of the priority subtotal, the subtotal, its ppm of
        the grand total — all integer floor division
        (pipelines/mining.py:contribution_ledger)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            cents = rel.round_half_away(
                t.column("o_totalprice").to_numpy() * 100.0)
            return pa.table({"pri": t.column("o_orderpriority"),
                             "st": t.column("o_orderstatus"),
                             "cents": pa.array(cents.astype(np.int64))})

        ds = _t(sf, "orders").map_batches(prep, batch_format="pyarrow")
        return mining.contribution_ledger(ds, "pri", "st", "cents")

    def q313_cooccurrence(sf):  # temporal co-occurrence mining
        """Unordered event-type pairs within 10 minutes in the same
        user stream, counted exactly once per event pair
        (pipelines/mining.py:cooccurrence)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t.column("user_id"),
                             "event_id": t.column("event_id"),
                             "us": pc.cast(t.column("ts"), pa.int64()),
                             "event_type": t.column("event_type")})

        ds = _t(sf, "events").map_batches(prep, batch_format="pyarrow")
        return mining.cooccurrence(ds, "user_id", "us", "event_id",
                                   "event_type", w_us=600_000_000)

    def q314_haar_energy(sf):  # 2-level Haar wavelet subband energies
        """Integer lifting Haar over channel 0 of the arithmetic
        corpus — subband detail energies + LL2 mass per image
        (pipelines/image_embed.py:haar_stats)."""
        from hand_index_ray.pipelines.image_embed import haar_stats

        return haar_stats(_arith_images(sf), channel=0)

    def q315_dhash(sf):  # difference-hash duplicate buckets
        """56-bit dHash (8x8 exact block sums, row-adjacent compare)
        packed into int64, counted per hash value
        (pipelines/image_embed.py:dhash_counts)."""
        from hand_index_ray.pipelines.image_embed import dhash_counts

        return dhash_counts(_arith_images(sf), channel=0)

    def q316_vocab_growth(sf):  # Heaps-law vocabulary growth curve
        """Distinct-token count after the first T docs in id order,
        T at quarters of the corpus (pipelines/text.py:vocab_growth —
        one token-keyed min shuffle, curve from slim partials)."""
        from hand_index_ray.pipelines.text import vocab_growth

        docs = _t(sf, "documents").select_columns(["doc_id", "text"])
        n = docs.count()
        ts = [-(-n * j // 4) for j in (1, 2, 3, 4)]
        return vocab_growth(docs, ts)

    def q317_dag_layers(sf):  # DAG longest-path layering (wave relaxation)
        """Critical-path depth per node of a level-structured synthetic
        DAG (edges always climb the level ladder ⇒ acyclic, depth ≤ 7)
        via broadcast wave relaxation (pipelines/graph.py:dag_layers)."""
        from hand_index_ray.pipelines.graph import dag_layers

        def mk(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy()
            a = ((k * 2654435761) // 8) % 4096
            b = ((k * 2246822519) // 8) % 4096
            keep = (a % 8) != (b % 8)
            a, b = a[keep], b[keep]
            lo_first = (a % 8) < (b % 8)
            return pa.table({
                "u": pa.array(np.where(lo_first, a, b), pa.int64()),
                "v": pa.array(np.where(lo_first, b, a), pa.int64())})

        edges = _t(sf, "orders").select_columns(["o_orderkey"]) \
            .map_batches(mk, batch_format="pyarrow")
        return dag_layers(edges, "u", "v", max_rounds=8)

    def q318_sax(sf):  # SAX symbolic series words
        """PAA(4 frames) + global-quartile binning of each order's
        quantity series into an a-d word, counted per word — exact
        cross-multiplied integer comparisons throughout
        (pipelines/mining.py:sax_words)."""
        from hand_index_ray.pipelines import mining

        ds = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_linenumber", "l_quantity"])
        return mining.sax_words(ds, "l_orderkey", "l_linenumber",
                                "l_quantity", frames=4)

    def q319_phrase(sf):  # positional phrase query (adjacent tokens)
        """Per-doc count of the exact phrase "data group" — the
        positional-index adjacency query computed scan-side, map-only
        (pipelines/text.py:phrase_counts)."""
        from hand_index_ray.pipelines.text import phrase_counts

        return phrase_counts(_t(sf, "documents"), "data", "group")

    def q320_trigram_lm(sf):  # trigram LM next-token argmax table
        """Most frequent next token per bigram context (count >= 3,
        lexicographic tie-break) — pipelines/text.py:trigram_lm, one
        context-keyed shuffle of per-batch count partials."""
        from hand_index_ray.pipelines.text import trigram_lm

        return trigram_lm(_t(sf, "documents"), min_n=3)

    def q321_chunking(sf):  # RAG context-window chunk ledger
        """Window-32/stride-24 token chunking of every document:
        per-chunk index, token count, first/last token — map-only
        (pipelines/text.py:chunk_ledger)."""
        from hand_index_ray.pipelines.text import chunk_ledger

        return chunk_ledger(_t(sf, "documents"), window=32, stride=24)

    def q322_ttr(sf):  # type-token ratio partials
        """Lexical diversity: distinct vs total tokens per document as
        exact integers (pipelines/text.py:ttr_scores)."""
        from hand_index_ray.pipelines.text import ttr_scores

        return ttr_scores(_t(sf, "documents"))

    def q323_repeated_ngrams(sf):  # boilerplate repeated-n-gram screen
        """Largest n in {1,2,4,8} whose token n-gram repeats within the
        doc — exact lexsort window dedup, no hashing
        (pipelines/text.py:repeated_ngram_max)."""
        from hand_index_ray.pipelines.text import repeated_ngram_max

        return repeated_ngram_max(_t(sf, "documents"))

    def q324_silence(sf):  # silence-run ledger over REAL WAV decode
        """PCM16 payloads synthesized with deliberate silent blocks
        (|v| < 2048 when ((i//16)+k)%4 = 0), decoded by the from-spec
        WAV codec and run-length analyzed
        (stages/multimodal.py:silence_runs). Oracle recomputes the
        runs with a gaps-and-islands window over the sample formula."""
        import ray.data as rd

        from hand_index_ray.kernels.audio import encode_wav
        from hand_index_ray.stages.multimodal import silence_runs

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 89 == 0])
            ids, bufs, ns = [], [], []
            for k in keys.tolist():
                n = 300 + k % 200
                i = np.arange(n, dtype=np.int64)
                quiet = ((i // 16) + k) % 4 == 0
                vq = (k * 31 + i * 7) % 4095 - 2047
                m = 2048 + (k * 7919 + i * 104729) % 30720
                vl = np.where(i % 2 == 0, m, -m)
                v = np.where(quiet, vq, vl)
                ids.append(f"clip-{k:09d}")
                bufs.append(encode_wav(v / 32768.0, 16000, bits=16))
                ns.append(n)
            nn = len(ids)
            return pa.table({
                "clip_id": pa.array(ids, pa.string()),
                "bytes": pa.array(bufs, pa.binary()),
                "sample_rate": pa.array([16000] * nn, pa.int32()),
                "n_samples": pa.array(ns, pa.int64()),
                "codec": pa.array(["wav"] * nn, pa.string())})

        clips = orders.map_batches(gen, batch_format="pyarrow")
        return silence_runs(clips, threshold=2048, min_run=8)

    def q325_freeze(sf):  # frozen-frame detector over REAL Y4M decode
        """Y4M clips with deliberately repeated frames (frame f copies
        f-1 when (k+f)%4 < 2), detected by exact decoded-frame
        comparison (stages/multimodal.py:freeze_frames); oracle
        recomputes the freeze pattern + islands."""
        from hand_index_ray.kernels.video import encode_y4m
        from hand_index_ray.stages.multimodal import freeze_frames

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 101 == 0])
            ids, bufs, nfs = [], [], []
            h, w = 6, 8
            yy = 3 * np.arange(h, dtype=np.int64)[:, None]
            xx = 2 * np.arange(w, dtype=np.int64)[None, :]
            for k in keys.tolist():
                n = 8 + k % 5
                frames = np.zeros((n, h, w, 3), np.uint8)
                eff = 0
                for f in range(n):
                    if not (f > 0 and (k + f) % 4 < 2):
                        eff = f
                    g = ((k + 5 * eff + yy + xx) % 256).astype(np.uint8)
                    frames[f] = g[:, :, None]
                ids.append(f"vid-{k:09d}")
                bufs.append(encode_y4m(frames))
                nfs.append(n)
            nn = len(ids)
            return pa.table({
                "video_id": pa.array(ids, pa.string()),
                "bytes": pa.array(bufs, pa.binary()),
                "w": pa.array([w] * nn, pa.int32()),
                "h": pa.array([h] * nn, pa.int32()),
                "fps": pa.array([30.0] * nn, pa.float64()),
                "n_frames": pa.array(nfs, pa.int32()),
                "codec": pa.array(["y4m"] * nn, pa.string())})

        vids = orders.map_batches(gen, batch_format="pyarrow")
        return freeze_frames(vids)

    def q326_polyline(sf):  # Google encoded-polyline wire-cost ledger
        """REAL polyline codec (kernels/polyline.py — spec example
        bit-exact) over per-user fixed-point tracks; oracle recomputes
        byte length + byte-value sum from the zigzag/5-bit-chunk
        arithmetic (pipelines/mining.py:polyline_ledger)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            e = t.column("event_id").to_numpy()
            return pa.table({
                "user_id": t.column("user_id"),
                "event_id": t.column("event_id"),
                "la": pa.array((e * 2654435761) % 17000000 - 8500000,
                               pa.int64()),
                "lg": pa.array((e * 976369) % 35000000 - 17500000,
                               pa.int64())})

        ds = _t(sf, "events").select_columns(["user_id", "event_id"]) \
            .map_batches(prep, batch_format="pyarrow")
        return mining.polyline_ledger(ds, "user_id", "event_id",
                                      "la", "lg")

    def q327_survivorship(sf):  # golden-record merge (MDM survivorship)
        """Latest non-null attribute per entity with a -1 sentinel for
        never-set (pipelines/mining.py:survivorship)."""
        from hand_index_ray.pipelines import mining

        def prep2(t: pa.Table) -> pa.Table:
            e = t.column("event_id").to_numpy()
            a = (e * 7) % 997
            b = (e * 13) % 991
            return pa.table({
                "user_id": t.column("user_id"),
                "event_id": t.column("event_id"),
                "a": pa.array(a.astype(float), mask=(e % 3 == 0)),
                "b": pa.array(b.astype(float), mask=(e % 5 == 0))})

        ds = _t(sf, "events").select_columns(["user_id", "event_id"]) \
            .map_batches(prep2, batch_format="pyarrow")
        out = mining.survivorship(ds, "user_id", "event_id", ["a", "b"])

        def seal(t: pa.Table) -> pa.Table:
            cols = {n: t.column(n) for n in t.column_names}
            for c in ("last_a", "last_b"):
                v = t.column(c).to_pandas().fillna(-1).astype("int64")
                cols[c] = pa.array(v, pa.int64())
            return pa.table(cols)

        return out.map_batches(seal, batch_format="pyarrow")

    def q328_payload_audit(sf):  # metadata-vs-decoded-payload audit
        """Clips whose catalog n_samples disagrees with the REAL WAV
        decode (stages/multimodal.py:payload_audit); the corpus plants
        +10 drift on k%5==0 clips."""
        from hand_index_ray.kernels.audio import encode_wav
        from hand_index_ray.stages.multimodal import payload_audit

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 97 == 0])
            ids, bufs, metas = [], [], []
            for k in keys.tolist():
                n = 200 + k % 300
                i = np.arange(n, dtype=np.int64)
                v = (k * 7919 + i * 104729) % 65536 - 32768
                ids.append(f"clip-{k:09d}")
                bufs.append(encode_wav(v / 32768.0, 16000, bits=16))
                metas.append(n + (10 if k % 5 == 0 else 0))
            nn = len(ids)
            return pa.table({
                "clip_id": pa.array(ids, pa.string()),
                "bytes": pa.array(bufs, pa.binary()),
                "sample_rate": pa.array([16000] * nn, pa.int32()),
                "n_samples": pa.array(metas, pa.int64()),
                "codec": pa.array(["wav"] * nn, pa.string())})

        clips = orders.map_batches(gen, batch_format="pyarrow")
        return payload_audit(clips)

    def q329_edit2_pairs(sf):  # Levenshtein<=2 near-dup pairs
        """SymSpell d=2 delete-neighborhood join + banded DP verify
        (pipelines/text.py:edit2_pairs); brute levenshtein SQL oracle."""
        from hand_index_ray.pipelines.text import edit2_pairs

        def mk(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy()
            n = (k * 2654435761) % 1500
            sfx = np.where(n % 4 == 0, "xy",
                           np.where(n % 4 == 1, "x", ""))
            s = np.array([f"itm{v}{x}" for v, x in
                          zip(n.tolist(), sfx.tolist())], dtype=object)
            return pa.table({"s": pa.array(s, pa.string())})

        dom = rel.distinct(
            _t(sf, "orders").select_columns(["o_orderkey"])
            .map_batches(mk, batch_format="pyarrow"), ["s"])
        return edit2_pairs(dom, "s")

    def q330_rolling_ols(sf):  # rolling regression numerators
        """Trailing-8 least-squares slope num/den per event, exact
        integers (pipelines/mining.py:rolling_ols); SQL ROWS-frame
        oracle."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            e = t.column("event_id").to_numpy()
            return pa.table({
                "user_id": t.column("user_id"),
                "event_id": t.column("event_id"),
                "x": pa.array((e * 31) % 1009, pa.int64()),
                "y": pa.array((e * 53) % 997, pa.int64())})

        ds = _t(sf, "events").select_columns(["user_id", "event_id"]) \
            .map_batches(prep, batch_format="pyarrow")
        return mining.rolling_ols(ds, "user_id", "event_id", "x", "y",
                                  window=8)

    def q331_hgt(sf):  # SRTM .hgt DEM window ledger
        """Raw big-endian headerless DEM tiles (kernels/hgt.py — the
        public SRTM format) with planted voids, decoded and reduced to
        exact window stats (pipelines/terrain.py:hgt_window_stats)."""
        from hand_index_ray.kernels import hgt as hgtk
        from hand_index_ray.pipelines.terrain import hgt_window_stats

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 61 == 0])
            yy = 13 * np.arange(32, dtype=np.int64)[:, None]
            xx = 9 * np.arange(32, dtype=np.int64)[None, :]
            lin = (np.arange(32)[:, None] * 32
                   + np.arange(32)[None, :]).astype(np.int64)
            ids, bufs = [], []
            for k in keys.tolist():
                g = ((k + yy + xx) % 4000 - 500).astype(np.int64)
                g[(lin + k) % 97 == 0] = hgtk.VOID
                ids.append(f"hgt-{k:09d}")
                bufs.append(hgtk.encode_hgt(g.astype(np.int16)))
            return pa.table({"tile_id": pa.array(ids, pa.string()),
                             "bytes": pa.array(bufs, pa.binary())})

        tiles = orders.map_batches(gen, batch_format="pyarrow")
        return hgt_window_stats(tiles, 4, 28, 6, 30)

    def q332_slippy(sf):  # slippy z/x/y.png tile tree publish + scan
        """End-to-end web-map publishing: REAL PNGs written one per
        tile under z/x/y.png (tmp+rename, rerun-skips), read back with
        path-regex z/x/y extraction and real PNG decode
        (pipelines/terrain.py:write_slippy_png_tiles /
        read_slippy_png_tiles). Pixel formula seeded by MAX(o_orderkey)
        so the tree is sf-dependent; oracle recomputes sums
        arithmetically."""
        import ray.data as rd

        from hand_index_ray.pipelines.terrain import (
            read_slippy_png_tiles, write_slippy_png_tiles)

        kmax = int(pc.max(_tbl(sf, "orders").column("o_orderkey")).as_py())
        rows = []
        for z in (2, 3):
            for x in range(1 << z):
                for y in range(1 << z):
                    rr = np.arange(8, dtype=np.int64)[:, None, None]
                    cc = np.arange(8, dtype=np.int64)[None, :, None]
                    ch = np.arange(3, dtype=np.int64)[None, None, :]
                    px = ((kmax + 37 * z + 11 * x + 7 * y
                           + 3 * rr + 2 * cc + ch) % 256).astype(np.uint8)
                    rows.append({"z": z, "x": x, "y": y, "w": 8, "h": 8,
                                 "px": px.tobytes()})
        out_dir = f"/tmp/hand_index_ray_slippy_{kmax}"
        write_slippy_png_tiles(rd.from_items(rows), out_dir)
        return read_slippy_png_tiles(out_dir)

    def q333_g711(sf):  # G.711 mu-law companding ledger
        """REAL mu-law codec (kernels/g711.py — spec XOR masks, 0xFF =
        +0, full scale ±32124): per-clip decoded-sample sum + code-byte
        sum, oracle recomputed via length(bin()) segment arithmetic
        (stages/multimodal.py:ulaw_ledger)."""
        from hand_index_ray.kernels.g711 import encode_ulaw
        from hand_index_ray.stages.multimodal import ulaw_ledger

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 83 == 0])
            ids, bufs, ns = [], [], []
            for k in keys.tolist():
                n = 150 + k % 250
                i = np.arange(n, dtype=np.int64)
                x = (k * 7919 + i * 104729) % 65536 - 32768
                ids.append(f"clip-{k:09d}")
                bufs.append(encode_ulaw(x).tobytes())
                ns.append(n)
            nn = len(ids)
            return pa.table({
                "clip_id": pa.array(ids, pa.string()),
                "bytes": pa.array(bufs, pa.binary()),
                "sample_rate": pa.array([8000] * nn, pa.int32()),
                "n_samples": pa.array(ns, pa.int64()),
                "codec": pa.array(["ulaw"] * nn, pa.string())})

        clips = orders.map_batches(gen, batch_format="pyarrow")
        return ulaw_ledger(clips)

    def q334_pnm(sf):  # Netpbm P5 decode (header comments) checksum
        """Gray P5 payloads WITH header comment lines, decoded by the
        robust Netpbm parser (kernels/pnm.py) through the standard
        image contract (gray → RGB replicate); x-weighted checksum
        catches a mis-parsed header offset."""
        from hand_index_ray.kernels import pnm as pnmk
        from hand_index_ray.pipelines.image_embed import channel_stats

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 16 == 0])
            yy = 7 * np.arange(24, dtype=np.int64)[:, None]
            xx = 3 * np.arange(32, dtype=np.int64)[None, :]
            ids, bufs = [], []
            for k in keys.tolist():
                g = ((k + yy + xx) % 256).astype(np.uint8)
                blob = pnmk.encode_pnm(g)
                # plant a legal header comment to exercise the parser
                blob = blob[:2] + b"\n# synthetic tile\n" + blob[3:]
                ids.append(f"img-{k:09d}")
                bufs.append(blob)
            n = len(ids)
            return pa.table({
                "image_id": pa.array(ids, pa.string()),
                "key": pa.array(keys, pa.int64()),
                "bytes": pa.array(bufs, pa.binary()),
                "w": pa.array([32] * n, pa.int32()),
                "h": pa.array([24] * n, pa.int32()),
                "fmt": pa.array(["pnm"] * n, pa.string())})

        return channel_stats(orders.map_batches(gen, batch_format="pyarrow"))

    def q335_confusion(sf):  # language-ID confusion matrix
        """LangId predictions (q21's SQL-expressible scorer) crossed
        with the corpus's true lang column — the per-pair confusion
        counts a curation run reviews before trusting the filter."""
        from hand_index_ray.pipelines import text as textops

        ds = _t(sf, "documents").map_batches(
            textops.LangId(), batch_format="pyarrow")
        return rel.grouped_agg(
            ds.select_columns(["lang", "lang_pred"]),
            ["lang", "lang_pred"], count=True)

    def q336_fits(sf):  # FITS CCD dark-frame calibration ledger
        """REAL FITS frames (primary HDU, BITPIX 16, BZERO-32768
        unsigned convention) minus a broadcast master dark, clamped at
        0 (pipelines/terrain.py:fits_dark_subtract)."""
        from hand_index_ray.kernels.fits import encode_fits
        from hand_index_ray.pipelines.terrain import fits_dark_subtract

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy = 17 * np.arange(16, dtype=np.int64)[:, None]
        xx = 23 * np.arange(20, dtype=np.int64)[None, :]
        dark = ((11 * np.arange(16, dtype=np.int64)[:, None]
                 + 13 * np.arange(20, dtype=np.int64)[None, :]) % 300)

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 73 == 0])
            ids, bufs = [], []
            for k in keys.tolist():
                v = (k + yy + xx) % 60000
                ids.append(f"ccd-{k:09d}")
                bufs.append(encode_fits(v, bzero=32768))
            return pa.table({"frame_id": pa.array(ids, pa.string()),
                             "bytes": pa.array(bufs, pa.binary())})

        frames = orders.map_batches(gen, batch_format="pyarrow")
        return fits_dark_subtract(frames, dark)

    def q337_ascgrid(sf):  # Esri ASCII grid ingest ledger
        """Text-format DEM tiles (kernels/ascgrid.py) with planted
        NODATA, parsed and reduced to exact valid-cell stats
        (pipelines/terrain.py:asc_grid_stats)."""
        from hand_index_ray.kernels.ascgrid import encode_asc
        from hand_index_ray.pipelines.terrain import asc_grid_stats

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        yy = 19 * np.arange(10, dtype=np.int64)[:, None]
        xx = 7 * np.arange(14, dtype=np.int64)[None, :]
        lin = (np.arange(10)[:, None] * 14
               + np.arange(14)[None, :]).astype(np.int64)

        def gen(t: pa.Table) -> pa.Table:
            keys = t.column("o_orderkey").to_numpy()
            keys = np.sort(keys[keys % 67 == 0])
            ids, bufs = [], []
            for k in keys.tolist():
                g = (k + yy + xx) % 3000 - 400
                g[(lin + k) % 53 == 0] = -9999
                ids.append(f"asc-{k:09d}")
                bufs.append(encode_asc(g, xll=100, yll=200, cellsize=30))
            return pa.table({"grid_id": pa.array(ids, pa.string()),
                             "bytes": pa.array(bufs, pa.binary())})

        grids = orders.map_batches(gen, batch_format="pyarrow")
        return asc_grid_stats(grids)

    def q338_composite(sf):  # Porter-Duff watermark compositing
        """Integer 'over' blend of a broadcast RGBA overlay at (4,6)
        onto the arithmetic corpus — round-half-up fixed point, exact
        (pipelines/image_embed.py:composite_stats)."""
        from hand_index_ray.pipelines.image_embed import composite_stats

        ly = np.arange(8, dtype=np.int64)[:, None]
        lx = np.arange(10, dtype=np.int64)[None, :]
        ch = np.arange(3, dtype=np.int64)[None, None, :]
        fg = (40 + 5 * ly[:, :, None] + 3 * lx[:, :, None] + 7 * ch) % 256
        alpha = (ly * 10 + lx) * 255 // 79
        return composite_stats(_arith_images(sf), fg, alpha, ox=4, oy=6)

    def q339_percent_rank(sf):  # exact PERCENT_RANK fractions
        """Tie-aware (rank-1, n-1) integer pairs per event within its
        user's value distribution (pipelines/mining.py:
        percent_rank_exact)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            e = t.column("event_id").to_numpy()
            return pa.table({"user_id": t.column("user_id"),
                             "event_id": t.column("event_id"),
                             "v": pa.array((e * 17) % 1000, pa.int64())})

        ds = _t(sf, "events").select_columns(["user_id", "event_id"]) \
            .map_batches(prep, batch_format="pyarrow")
        return mining.percent_rank_exact(ds, "user_id", "event_id", "v")

    def q340_crossing_points(sf):  # planar-overlay node-ing points
        """Exact rational intersection coordinates (x_num, y_num, den>0)
        of every properly-crossing segment pair — q226's join upgraded
        to the node-ing step (pipelines/overlay.py:crossing_points)."""
        from hand_index_ray.pipelines.overlay import crossing_points

        orders = _t(sf, "orders").select_columns(["o_orderkey"])

        def seg(side):
            def fn(t: pa.Table) -> pa.Table:
                ok = t.column("o_orderkey").to_numpy()
                ok = ok[(ok % 7 == 0) & (ok % 2 == side)]
                return pa.table({
                    "id": pa.array(ok, pa.int64()),
                    "x1": pa.array((ok * 3) % 97, pa.int64()),
                    "y1": pa.array((ok * 7) % 97, pa.int64()),
                    "x2": pa.array((ok * 5 + 13) % 97, pa.int64()),
                    "y2": pa.array((ok * 11 + 29) % 97, pa.int64())})
            return fn

        la = orders.map_batches(seg(0), batch_format="pyarrow")
        lb = orders.map_batches(seg(1), batch_format="pyarrow")
        return crossing_points(la, lb, cs=16)

    def q341_roaring(sf):  # roaring-bitmap container planning ledger
        """Per-2^16-chunk container choice (array/run/bitmap by the
        public cost model) over the distinct derived value set
        (pipelines/mining.py:roaring_ledger)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            e = t.column("event_id").to_numpy()
            return pa.table({"v": pa.array((e * 2654435761) % 4194304,
                                           pa.int64())})

        ds = _t(sf, "events").select_columns(["event_id"]) \
            .map_batches(prep, batch_format="pyarrow")
        return mining.roaring_ledger(ds, "v")

    def q342_cidr(sf):  # longest-prefix CIDR classification
        """32-bit addresses vs a broadcast 20-block prefix table, most
        specific match wins, unmatched → /0
        (pipelines/mining.py:cidr_assign)."""
        from hand_index_ray.pipelines import mining

        blocks = []
        for j in range(1, 21):
            plen = 8 + (j * 5) % 17
            raw = (j * 2654435761) % 4294967296
            net = (raw >> (32 - plen)) << (32 - plen)
            blocks.append((plen, net))

        def prep(t: pa.Table) -> pa.Table:
            e = t.column("event_id").to_numpy()
            return pa.table({"ip": pa.array((e * 2654435761) % 4294967296,
                                            pa.int64())})

        ds = _t(sf, "events").select_columns(["event_id"]) \
            .map_batches(prep, batch_format="pyarrow")
        return mining.cidr_assign(ds, "ip", blocks)

    def q343_iso_week(sf):  # ISO-8601 week revenue rollup
        """Exact integer ISO week/year from days-since-epoch (Thursday
        rule + civil_from_days), quantity sums per (iso_year, iso_week)
        (pipelines/mining.py:iso_week_rollup)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({
                "ts": t.column("l_shipdate"),
                "q": pc.cast(t.column("l_quantity"), pa.int64())})

        ds = _t(sf, "lineitem").select_columns(
            ["l_shipdate", "l_quantity"]).map_batches(
            prep, batch_format="pyarrow")
        return mining.iso_week_rollup(ds, "ts", "q")

    def q344_debounce(sf):  # greedy idempotency-window dedup
        """Keep events > 20 min after the LAST KEPT one per user — the
        sequential-carry debounce, vectorized via packed searchsorted
        jumps + orbit advance (pipelines/mining.py:debounce); oracle
        walks the chain with a recursive LATERAL."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t.column("user_id"),
                             "event_id": t.column("event_id"),
                             "us": pc.cast(t.column("ts"), pa.int64())})

        ds = _t(sf, "events").map_batches(prep, batch_format="pyarrow")
        return mining.debounce(ds, "user_id", "us", "event_id",
                               gap_us=1_200_000_000)

    def q345_hdr(sf):  # HDR log-bucketed latency histogram
        """HdrHistogram bucketing arithmetic (bucket = bitlen−5, 32
        sub-buckets per power of two), exact lower bounds
        (pipelines/mining.py:hdr_buckets)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            e = t.column("event_id").to_numpy()
            return pa.table({"v": pa.array((e * 7919) % 1000000,
                                           pa.int64())})

        ds = _t(sf, "events").select_columns(["event_id"]) \
            .map_batches(prep, batch_format="pyarrow")
        return mining.hdr_buckets(ds, "v", sub_bits=5)

    def q346_oov(sf):  # tokenizer OOV-rate audit
        """Top-16 global tokens as the vocabulary (count desc, token
        asc ties), per-doc OOV counts via one Arrow is_in
        (pipelines/mining.py:oov_audit)."""
        from hand_index_ray.pipelines import mining

        return mining.oov_audit(_t(sf, "documents"), vocab_k=16)

    def q347_dhash_pairs(sf):  # near-dup image pairs by dHash hamming
        """Hash-level pair generation: band LSH (4×14 bits, pigeonhole
        for hamming≤3) + vectorized popcount verify, exactly-once from
        the first equal band
        (pipelines/image_embed.py:dhash_hamming_pairs)."""
        from hand_index_ray.pipelines.image_embed import dhash_hamming_pairs

        return dhash_hamming_pairs(_arith_images(sf), channel=0,
                                   max_hamming=3)

    def q348_csv(sf):  # CSV sink + source roundtrip (quoted fields)
        """Engine-written CSV (Arrow writer, fields with embedded
        commas quoted) read back through ray.data.read_csv and
        aggregated — the plain-text interchange ingest the format
        battery lacked. Oracle recomputes from the orders view."""
        import os

        import ray.data as rd

        orders = _t(sf, "orders").select_columns(["o_orderkey"])
        kmax = int(pc.max(_tbl(sf, "orders").column("o_orderkey")).as_py())
        out_dir = f"/tmp/hand_index_ray_csv_{kmax}"

        def mk(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy()
            tag = np.array([f"g,{v % 5}" for v in k.tolist()],
                           dtype=object)
            return pa.table({"k": pa.array(k, pa.int64()),
                             "tag": pa.array(tag, pa.string())})

        if not os.path.isdir(out_dir):
            orders.map_batches(mk, batch_format="pyarrow") \
                .write_csv(out_dir)
        back = rd.read_csv(out_dir)
        return rel.grouped_agg(back, ["tag"], sum_cols=["k"], count=True)

    def q349_feature_hash(sf):  # hashing-trick featurization
        """Sparse (doc, bucket, ±count) triplets via md5 bucket+sign —
        DuckDB md5_number_lower parity
        (pipelines/text.py:feature_hash)."""
        from hand_index_ray.pipelines.text import feature_hash

        return feature_hash(_t(sf, "documents"), buckets=64)

    def q350_bipartite(sf):  # per-component bipartiteness audit
        """Distributed CC + multi-source BFS parity + equal-parity edge
        audit (pipelines/graph.py:bipartite_check); oracle = parity
        reachability closure (both-parities-reachable ⇔ odd cycle)."""
        from hand_index_ray.pipelines.graph import bipartite_check

        def mk(t: pa.Table) -> pa.Table:
            k = t["o_orderkey"].to_numpy()
            k = k[k % 11 == 0]
            u = ((k * 2654435761) // 8) % 1024
            v = ((k * 2246822519) // 8) % 1024
            keep = u != v
            return pa.table({"u": pa.array(u[keep], pa.int64()),
                             "v": pa.array(v[keep], pa.int64())})

        edges = _t(sf, "orders").select_columns(["o_orderkey"]) \
            .map_batches(mk, batch_format="pyarrow")
        return bipartite_check(edges, "u", "v")

    def q351_topic_scores(sf):  # broadcast linear-scorer inference
        """Per-doc argmax of md5-derived per-topic token weights — the
        batched linear-model scoring shape
        (pipelines/text.py:topic_scores)."""
        from hand_index_ray.pipelines.text import topic_scores

        return topic_scores(_t(sf, "documents"), n_topics=4)

    def q352_base64(sf):  # from-scratch base64 vs DuckDB's own
        """RFC 4648 armoring of each document (kernels/polyline.py:
        base64_encode — stdlib-parity fuzz-tested) reduced to encoded
        length + tail; the oracle is DuckDB's NATIVE base64() — an
        external implementation, not a self-derived formula."""
        from hand_index_ray.kernels.polyline import base64_encode

        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy()
            texts = t["text"].to_pylist()
            encs = [base64_encode(s.encode("utf-8")) for s in texts]
            return pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "enc_len": pa.array([len(e) for e in encs], pa.int64()),
                "tail4": pa.array([e[-4:].decode("ascii") for e in encs],
                                  pa.string())})

        return _t(sf, "documents").select_columns(["doc_id", "text"]) \
            .map_batches(f, batch_format="pyarrow")

    def q353_urls(sf):  # URL parsing / host rollup
        """Synthetic request-log URLs parsed with one vectorized Arrow
        extract_regex (host + path segment), rolled up per host — the
        standard web-log ETL split."""
        def f(t: pa.Table) -> pa.Table:
            e = t["event_id"].to_numpy()
            urls = pa.array(
                [f"https://h{k % 7}.example.com/p/{k % 13}?q={k % 3}"
                 for k in e.tolist()], pa.string())
            m = pc.extract_regex(
                urls, r"^https://(?P<host>[^/]+)/p/(?P<seg>\d+)")
            host = pc.struct_field(m, "host")
            seg = pc.cast(pc.struct_field(m, "seg"), pa.int64())
            return pa.table({"host": host, "seg": seg})

        ds = _t(sf, "events").select_columns(["event_id"]) \
            .map_batches(f, batch_format="pyarrow")
        return rel.grouped_agg(ds, ["host"], sum_cols=["seg"], count=True)

    def q354_rules(sf):  # association rules with exact confidence
        """Directed A→B rules over co-purchased parts (support ≥ 5),
        confidence as exact (n_ab, n_a) fractions
        (pipelines/mining.py:association_rules)."""
        from hand_index_ray.pipelines import mining

        li = _t(sf, "lineitem").select_columns(
            ["l_orderkey", "l_partkey"])
        return mining.association_rules(li, "l_orderkey", "l_partkey",
                                        min_pair=5)

    def q355_luhn(sf):  # Luhn check-digit intake audit
        """Mod-10 double-every-second-digit validation over synthetic
        account numbers — vectorized divmod digit extraction,
        shuffle-free ledger (pipelines/mining.py:luhn_audit)."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            e = t.column("event_id").to_numpy()
            return pa.table({"acct": pa.array(
                100000 + (e * 7919) % 900000000, pa.int64())})

        ds = _t(sf, "events").select_columns(["event_id"]) \
            .map_batches(prep, batch_format="pyarrow")
        return mining.luhn_audit(ds, "acct")

    def q356_wow(sf):  # week-over-week delta report
        """ISO-week totals + delta vs the previous calendar week
        (year-rollover aware) — pipelines/mining.py:wow_delta."""
        from hand_index_ray.pipelines import mining

        def prep(t: pa.Table) -> pa.Table:
            return pa.table({
                "ts": t.column("l_shipdate"),
                "q": pc.cast(t.column("l_quantity"), pa.int64())})

        ds = _t(sf, "lineitem").select_columns(
            ["l_shipdate", "l_quantity"]).map_batches(
            prep, batch_format="pyarrow")
        return mining.wow_delta(ds, "ts", "q")

    def q357_adler(sf):  # Adler-32 ledger (RFC 1950)
        """zlib's rolling checksum per document, one vectorized pass
        over the batch's contiguous Arrow byte buffer
        (pipelines/mining.py:adler32_ledger). Unit test pins zlib
        parity; the oracle recomputes A/B sums from character codes."""
        from hand_index_ray.pipelines import mining

        return mining.adler32_ledger(
            _t(sf, "documents").select_columns(["doc_id", "text"]),
            "text")

    def q358_diversity(sf):  # Simpson diversity per source
        """Exact (Σ n_c(n_c−1), N(N−1)) fractions per document source
        over its language mix (pipelines/mining.py:simpson_diversity)."""
        from hand_index_ray.pipelines import mining

        return mining.simpson_diversity(
            _t(sf, "documents").select_columns(["source", "lang"]),
            "source", "lang")

    def q359_bytescreen(sf):  # payload compressibility screen
        """Per-payload byte-histogram stats (distinct byte values +
        max byte frequency) over the raw image payloads — the
        already-compressed / low-entropy intake screen; one bincount
        per blob, map-only."""
        def f(t: pa.Table) -> pa.Table:
            ids = t["image_id"].to_pylist()
            bts = t["bytes"]
            nd = np.zeros(t.num_rows, np.int64)
            mf = np.zeros(t.num_rows, np.int64)
            for i in range(t.num_rows):
                b = np.frombuffer(bts[i].as_buffer(), np.uint8)
                cnt = np.bincount(b, minlength=256)
                nd[i] = int((cnt > 0).sum())
                mf[i] = int(cnt.max())
            return pa.table({"image_id": pa.array(ids, pa.string()),
                             "n_distinct": pa.array(nd, pa.int64()),
                             "max_freq": pa.array(mf, pa.int64())})

        return _arith_images(sf).map_batches(f, batch_format="pyarrow",
                                             zero_copy_batch=True)

    def q360_warc(sf):  # WARC (Common Crawl) ingest
        """Documents packed into REAL WARC/1.0 files (gzip member per
        record — the splittable Common Crawl layout, kernels/warc.py),
        parsed back through the extraction stage
        (stages/multimodal.py:warc_extract): response records only,
        (uri, payload_len, adler32) per page."""
        from hand_index_ray.kernels.warc import encode_warc
        from hand_index_ray.stages.multimodal import warc_extract

        docs = _t(sf, "documents").select_columns(["doc_id", "text"])

        def gen(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy()
            texts = t["text"].to_pylist()
            order = np.argsort(ids)
            groups: dict = {}
            for j in order.tolist():
                groups.setdefault(int(ids[j]) // 50, []).append(j)
            wids, bufs = [], []
            for gid, idxs in sorted(groups.items()):
                recs = [("metadata", f"warc://{gid}", b"synthetic")]
                for j in idxs:
                    recs.append(("response",
                                 f"http://corpus/doc/{int(ids[j])}",
                                 texts[j].encode("utf-8")))
                wids.append(f"warc-{gid:06d}")
                bufs.append(encode_warc(recs, gzip_members=True))
            return pa.table({"warc_id": pa.array(wids, pa.string()),
                             "bytes": pa.array(bufs, pa.binary())})

        files = docs.map_batches(gen, batch_format="pyarrow")
        return warc_extract(files)

    def q361_chunk_dedup(sf):  # C4-style corpus chunk-dedup ledger
        """Non-overlapping 10-token chunks deduped corpus-wide (first
        occurrence by (doc_id, chunk_idx) wins); per-doc total vs
        surviving chunk counts (pipelines/text.py:chunk_dedup) — the
        rewrite statistic of a line/paragraph dedup pass."""
        return textops.chunk_dedup(_t(sf, "documents"), window=10)

    def q362_term_commonness(sf):  # unigram-LM commonness score
        """Integer perplexity proxy: corpus term frequencies (one
        vocab-sized grouped sum, broadcast once) then map-only per-doc
        (n_tokens, Σ freq[token]) (pipelines/text.py:term_commonness)."""
        return textops.term_commonness(_t(sf, "documents"))

    def q363_cms_counts(sf):  # count-min sketch point frequencies
        """Event-type frequencies through mergeable count-min sketches
        — one fixed-size matrix per batch, no shuffle; exact regime
        (distinct << width) so plain GROUP BY oracles it
        (relational.py:cms_key_counts, kernels/sketch.py cms_*)."""
        df = rel.cms_key_counts(_t(sf, "events"), "event_type")
        return df.sort_values("event_type").reset_index(drop=True)

    def q364_knn_graph(sf):  # exact cosine kNN graph over embeddings
        """Every vector's top-3 neighbors (self excluded): broadcast
        normalized corpus matrix, per-batch matmul + partial top-k,
        (sim desc, dst asc) ranking in integer micro-units
        (pipelines/ann.py:knn_graph); vec_id < 600 keeps the O(n²)
        DuckDB oracle tractable."""
        from hand_index_ray.pipelines.ann import knn_graph

        out = knn_graph(_t(sf, "embeddings"), k=3, max_id=600).to_pandas()
        return out.sort_values(["src", "rank"]).reset_index(drop=True)

    def q365_tfidf_topk(sf):  # per-doc top-3 tf-idf terms, integer-exact
        """tf from one tokenize pass, df broadcast once, ranking by the
        integer surrogate tf*1e6 // df with term tie-break
        (pipelines/mining.py:tfidf_topk)."""
        from hand_index_ray.pipelines.mining import tfidf_topk

        out = tfidf_topk(_t(sf, "documents"), k=3).to_pandas()
        return out.sort_values(["doc_id", "rank"]).reset_index(drop=True)

    def q366_contamination(sf):  # benchmark-contamination screen
        """Test-set leakage check: docs sharing ≥1 word-3-gram with the
        held-out benchmark slice (doc_id % 50 == 0) are flagged; the
        benchmark gram set broadcasts once, the screen is map-only
        (pipelines/text.py:contamination_screen)."""
        return textops.contamination_screen(_t(sf, "documents"),
                                            every=50, n=3)

    def q367_int8_calib(sf):  # int8 quantization calibration + audit
        """Per-dim min/max bounds (one dim-sized reduce) broadcast once;
        map-only quantize q = floor((x-mn)*255/(mx-mn)+0.5); integer
        audit (sum_q, saturated-cell count)
        (pipelines/ann.py:int8_calibration)."""
        from hand_index_ray.pipelines.ann import int8_calibration

        return int8_calibration(_t(sf, "embeddings"))

    def q368_mixture_sample(sf):  # pretraining mixture token quotas
        """Per-source token-quota fill in deterministic md5(doc_id)
        order (Pile/ROOTS mixture weighting): slim rows, one
        groupby-source shuffle, in-group sort+cumsum
        (pipelines/text.py:mixture_sample)."""
        return textops.mixture_sample(_t(sf, "documents"),
                                      quota_tokens=600)

    def q369_editdist_pairs(sf):  # blocked Levenshtein near-dup pairs
        """Record-linkage / title-dedup screen: exact edit distance ≤ 5
        over 60-char prefixes, blocked by first token + length band
        (pipelines/text.py:editdist_pairs; banded row-vectorized DP).
        Oracle: DuckDB's native levenshtein() under the same blocking
        rule — an external reference implementation."""
        df = textops.editdist_pairs(_t(sf, "documents"),
                                    max_dist=5).to_pandas()
        return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    def q370_exact_substr(sf):  # ExactSubstr dedup (Lee et al. 2022)
        """Longest shared token substring per doc pair (≥12 tokens):
        positional 8-gram anchors → cross-doc diagonal islands — the
        variable-length verbatim-quote dedup a fixed-k gram screen
        can't grade (pipelines/text.py:exact_substr_pairs)."""
        df = textops.exact_substr_pairs(_t(sf, "documents"), k=8,
                                        min_tokens=12).to_pandas()
        return df.sort_values(["id_a", "id_b"]).reset_index(drop=True)

    def q371_neighbor_agg(sf):  # one GNN layer: kNN-edge label gather
        """Scatter-gather neighborhood aggregation (one message-passing
        layer of graph feature prep): each vector's top-3 cosine
        neighbors (q364's exact kNN graph) contribute their int label —
        per-node (n_nbrs, label_sum). Labels broadcast once; the edge
        list is the only shuffled state (pipelines/ann.py:knn_graph +
        broadcast gather)."""
        from hand_index_ray.pipelines.ann import knn_graph, neighbor_label_agg

        edges = knn_graph(_t(sf, "embeddings"), k=3, max_id=600)
        return neighbor_label_agg(edges, _t(sf, "embeddings"))

    def q372_repetition_stats(sf):  # Gopher repetition screens
        """Per-doc word-repetition counts (Rae et al. 2021 Table A1
        family): total/distinct words + top-bigram occurrences — the
        boilerplate/keyword-stuffing screen thresholds. Map-only,
        integer-exact (pipelines/text.py:repetition_stats)."""
        return textops.repetition_stats(_t(sf, "documents"))

    def q373_kcenter(sf):  # greedy k-center diversity selection
        """Farthest-point coreset sampling over embeddings (min-id
        seed, max-min cosine distance in integer micro-units, ties to
        the smaller id) — iterative selection as per-chunk remote
        partial-argmax rounds, the raw-task pattern for loops the
        Dataset API can't express (pipelines/ann.py:kcenter_select).
        Oracle: the k=4 greedy unrolled as LEAST-chain CTEs."""
        from hand_index_ray.pipelines.ann import kcenter_select

        return kcenter_select(_t(sf, "embeddings"), k=4, max_id=400)

    def q374_semdedup(sf):  # SemDeDup semantic dedup in clusters
        """SemDeDup (Abbas et al. 2023): deterministic id-seeded
        clusters, per-cluster drop of items with a lower-id mate at
        cos ≥ 0.95 — cluster-bucketed shuffle + vectorized triangular
        max (pipelines/ann.py:semdedup)."""
        from hand_index_ray.pipelines.ann import semdedup

        out = semdedup(_t(sf, "embeddings"), n_clusters=8,
                       threshold=0.95, max_id=500).to_pandas()
        return out.sort_values("vec_id").reset_index(drop=True)

    def q375_source_overlap(sf):  # cross-source gram-overlap matrix
        """Corpus mixture audit: distinct word-3-grams shared per
        source pair — slim (gram, source) shuffle, per-gram pair
        emission, grouped count (pipelines/text.py:source_overlap)."""
        return textops.source_overlap(_t(sf, "documents"), n=3)

    def q376_truncation_dups(sf):  # prefix-truncation duplicate pairs
        """Same-article-cut-at-different-lengths dedup: exact
        token-prefix containment, blocked on the first-6-token head
        (necessarily shared — zero pairs dropped), string-prefix
        verify (pipelines/text.py:truncation_dups)."""
        df = textops.truncation_dups(_t(sf, "documents"), k=6) \
            .to_pandas()
        return df.sort_values(["id_short", "id_long"]) \
            .reset_index(drop=True)

    return {
        "q01_groupby_sum": q01_groupby_sum,
        "q02_filter_project": q02_filter_project,
        "q03_broadcast_join_agg": q03_broadcast_join_agg,
        "q04_three_way_left_join": q04_three_way_left_join,
        "q05_semi_join": q05_semi_join,
        "q06_distinct": q06_distinct,
        "q07_dedup_first": q07_dedup_first,
        "q08_topk": q08_topk,
        "q09_window_tumbling": q09_window_tumbling,
        "q10_union_counts": q10_union_counts,
        "q11_regex_extract_join": q11_regex_extract_join,
        "q12_count_audit": q12_count_audit,
        "q13_bbox_scan": q13_bbox_scan,
        "q14_pip_convex": q14_pip_convex,
        "q15_overlap_threshold": q15_overlap_threshold,
        "q16_knn": q16_knn,
        "q17_grid_zonal_agg": q17_grid_zonal_agg,
        "q18_token_count": q18_token_count,
        "q19_quality": q19_quality,
        "q20_fingerprint_dedup": q20_fingerprint_dedup,
        "q21_langid": q21_langid,
        "q22_ann_topk": q22_ann_topk,
        "q23_embedding_dups": q23_embedding_dups,
        "q24_minhash_pairs": q24_minhash_pairs,
        "q25_simhash": q25_simhash,
        "q26_roi_footprints": q26_roi_footprints,
        "q27_knn_index": q27_knn_index,
        "q28_zonal_pairs": q28_zonal_pairs,
        "q29_hash_join": q29_hash_join,
        "q30_sliding_window": q30_sliding_window,
        "q31_session_window": q31_session_window,
        "q32_bpe_tokens": q32_bpe_tokens,
        "q33_tile_dups": q33_tile_dups,
        "q34_zonal_stats": q34_zonal_stats,
        "q35_wav_decode": q35_wav_decode,
        "q36_y4m_decode": q36_y4m_decode,
        "q37_ivf_topk": q37_ivf_topk,
        "q38_quantile_sketch": q38_quantile_sketch,
        "q39_multi_roi": q39_multi_roi,
        "q40_sample_per_group": q40_sample_per_group,
        "q41_hll_distinct": q41_hll_distinct,
        "q42_winnow_fp": q42_winnow_fp,
        "q43_asof_join": q43_asof_join,
        "q44_range_join": q44_range_join,
        "q45_hash_split": q45_hash_split,
        "q46_grouped_topk": q46_grouped_topk,
        "q47_anti_join": q47_anti_join,
        "q48_bloom_join": q48_bloom_join,
        "q49_pivot": q49_pivot,
        "q50_rollup": q50_rollup,
        "q51_lag_delta": q51_lag_delta,
        "q52_string_agg": q52_string_agg,
        "q53_mode": q53_mode,
        "q54_normalize": q54_normalize,
        "q55_augment": q55_augment,
        "q56_channel_stats": q56_channel_stats,
        "q57_curate": q57_curate,
        "q58_grouped_nunique": q58_grouped_nunique,
        "q59_grouped_hll": q59_grouped_hll,
        "q60_jsonl_source": q60_jsonl_source,
        "q61_unnest": q61_unnest,
        "q62_histogram": q62_histogram,
        "q63_moments": q63_moments,
        "q64_percentiles": q64_percentiles,
        "q65_window_rank": q65_window_rank,
        "q66_running_sum": q66_running_sum,
        "q67_set_ops": q67_set_ops,
        "q68_resize": q68_resize,
        "q69_patch_grid": q69_patch_grid,
        "q70_edit1_pairs": q70_edit1_pairs,
        "q71_tpch_q3": q71_tpch_q3,
        "q72_band_join": q72_band_join,
        "q73_arg_max": q73_arg_max,
        "q74_heavy_hitters": q74_heavy_hitters,
        "q75_zscore": q75_zscore,
        "q76_month_rollup": q76_month_rollup,
        "q77_sobel": q77_sobel,
        "q78_box_blur": q78_box_blur,
        "q79_luma_hist": q79_luma_hist,
        "q80_components": q80_components,
        "q81_skyline": q81_skyline,
        "q82_funnel": q82_funnel,
        "q83_tfidf": q83_tfidf,
        "q84_dedup_reps": q84_dedup_reps,
        "q85_cohort": q85_cohort,
        "q86_cube": q86_cube,
        "q87_extent": q87_extent,
        "q88_morphology": q88_morphology,
        "q89_zero_crossings": q89_zero_crossings,
        "q90_scene_cuts": q90_scene_cuts,
        "q91_bigrams": q91_bigrams,
        "q92_percentile_cont": q92_percentile_cont,
        "q93_full_outer": q93_full_outer,
        "q94_centroids": q94_centroids,
        "q95_nn_join": q95_nn_join,
        "q96_transitions": q96_transitions,
        "q97_otsu": q97_otsu,
        "q98_grid_heatmap": q98_grid_heatmap,
        "q99_peak_concurrency": q99_peak_concurrency,
        "q100_dominant": q100_dominant,
        "q101_uncovered": q101_uncovered,
        "q102_moving_sum": q102_moving_sum,
        "q103_ntile": q103_ntile,
        "q104_streaks": q104_streaks,
        "q105_json_extract": q105_json_extract,
        "q106_unpivot": q106_unpivot,
        "q107_iqr_outliers": q107_iqr_outliers,
        "q108_densify": q108_densify,
        "q109_weighted": q109_weighted,
        "q110_above_avg": q110_above_avg,
        "q111_kmeans": q111_kmeans,
        "q112_pagerank": q112_pagerank,
        "q113_triangles": q113_triangles,
        "q114_mad": q114_mad,
        "q115_equalize": q115_equalize,
        "q116_pagination": q116_pagination,
        "q117_time_to_convert": q117_time_to_convert,
        "q118_drawdown": q118_drawdown,
        "q119_h3_cell_stats": q119_h3_cell_stats,
        "q120_flac_decode": q120_flac_decode,
        "q121_mjpeg_decode": q121_mjpeg_decode,
        "q122_progressive_jpeg": q122_progressive_jpeg,
        "q123_exif_orientation": q123_exif_orientation,
        "q124_geotiff_stats": q124_geotiff_stats,
        "q125_cog_window": q125_cog_window,
        "q132_flow_paths": q132_flow_paths,
        "q133_hand": q133_hand,
        "q134_mosaic": q134_mosaic,
        "q135_bilinear": q135_bilinear,
        "q136_morphology": q136_morphology,
        "q137_flow_accum": q137_flow_accum,
        "q138_zonal_windowed": q138_zonal_windowed,
        "q139_polygonize": q139_polygonize,
        "q140_voronoi": q140_voronoi,
        "q141_rle": q141_rle,
        "q142_value_histogram": q142_value_histogram,
        "q143_band_math": q143_band_math,
        "q144_overview_scan": q144_overview_scan,
        "q145_gpkg_source": q145_gpkg_source,
        "q146_png_formats": q146_png_formats,
        "q147_shapefile_source": q147_shapefile_source,
        "q148_mvt_tiles": q148_mvt_tiles,
        "q149_zorder_scan": q149_zorder_scan,
        "q150_hillshade": q150_hillshade,
        "q151_las_source": q151_las_source,
        "q152_wkt_export": q152_wkt_export,
        "q153_geojsonseq": q153_geojsonseq,
        "q154_las_catchment_join": q154_las_catchment_join,
        "q155_ground_filter": q155_ground_filter,
        "q156_zorder_pruned_scan": q156_zorder_pruned_scan,
        "q157_las_to_dem": q157_las_to_dem,
        "q158_fir_decimate": q158_fir_decimate,
        "q159_reclassify": q159_reclassify,
        "q160_dem_difference": q160_dem_difference,
        "q161_inundation": q161_inundation,
        "q162_corner_nms": q162_corner_nms,
        "q163_palette_quantize": q163_palette_quantize,
        "q164_template_match": q164_template_match,
        "q165_pii_redact": q165_pii_redact,
        "q166_validity_check": q166_validity_check,
        "q167_gif_decode": q167_gif_decode,
        "q168_mixed_sniff": q168_mixed_sniff,
        "q169_zip_ingest": q169_zip_ingest,
        "q170_webdataset": q170_webdataset,
        "q171_merge_upsert": q171_merge_upsert,
        "q172_scd2": q172_scd2,
        "q173_orc_interchange": q173_orc_interchange,
        "q174_regression": q174_regression,
        "q175_phase_corr": q175_phase_corr,
        "q176_block_motion": q176_block_motion,
        "q177_hough_lines": q177_hough_lines,
        "q178_gpx_tracks": q178_gpx_tracks,
        "q179_tile_pyramid": q179_tile_pyramid,
        "q180_avro_source": q180_avro_source,
        "q181_table_diff": q181_table_diff,
        "q182_frequent_pairs": q182_frequent_pairs,
        "q183_changepoint": q183_changepoint,
        "q184_profile": q184_profile,
        "q185_viewshed": q185_viewshed,
        "q186_pitch_detect": q186_pitch_detect,
        "q187_bfs_hops": q187_bfs_hops,
        "q188_segment_snap": q188_segment_snap,
        "q189_moments": q189_moments,
        "q190_dither": q190_dither,
        "q191_laplacian": q191_laplacian,
        "q192_staypoints": q192_staypoints,
        "q193_rasterize": q193_rasterize,
        "q194_wht_bands": q194_wht_bands,
        "q195_hausdorff": q195_hausdorff,
        "q196_overlay": q196_overlay,
        "q197_geohash": q197_geohash,
        "q198_kcore": q198_kcore,
        "q199_idw": q199_idw,
        "q200_butterflies": q200_butterflies,
        "q201_dbscan": q201_dbscan,
        "q202_fill_depressions": q202_fill_depressions,
        "q203_edt": q203_edt,
        "q204_moran": q204_moran,
        "q205_semivariogram": q205_semivariogram,
        "q206_otsu": q206_otsu,
        "q207_cost_distance": q207_cost_distance,
        "q208_glcm": q208_glcm,
        "q209_seam_carving": q209_seam_carving,
        "q210_median_filter": q210_median_filter,
        "q211_quadtree": q211_quadtree,
        "q212_ssim": q212_ssim,
        "q213_hog": q213_hog,
        "q214_strahler": q214_strahler,
        "q215_frechet": q215_frechet,
        "q216_closest_pair": q216_closest_pair,
        "q217_diameter": q217_diameter,
        "q218_rollup": q218_rollup,
        "q219_watershed": q219_watershed,
        "q220_jaccard_join": q220_jaccard_join,
        "q221_largest_rect": q221_largest_rect,
        "q222_tophat": q222_tophat,
        "q223_histmatch": q223_histmatch,
        "q224_dtw": q224_dtw,
        "q225_ema": q225_ema,
        "q226_segment_crossings": q226_segment_crossings,
        "q227_hotspot": q227_hotspot,
        "q228_hilbert": q228_hilbert,
        "q229_edge_nms": q229_edge_nms,
        "q230_rlsa": q230_rlsa,
        "q231_lcss": q231_lcss,
        "q232_weighted_median": q232_weighted_median,
        "q233_mann_kendall": q233_mann_kendall,
        "q234_kernel_heatmap": q234_kernel_heatmap,
        "q235_interval_union": q235_interval_union,
        "q236_forest_rank": q236_forest_rank,
        "q237_cheapest_hops": q237_cheapest_hops,
        "q238_cdc_chunks": q238_cdc_chunks,
        "q239_hysteresis": q239_hysteresis,
        "q240_rect_union": q240_rect_union,
        "q241_range_frame_sum": q241_range_frame_sum,
        "q242_rrf": q242_rrf,
        "q243_skeleton": q243_skeleton,
        "q244_resample_tracks": q244_resample_tracks,
        "q245_mode_filter": q245_mode_filter,
        "q246_zonal_majority": q246_zonal_majority,
        "q247_theil_sen": q247_theil_sen,
        "q248_autocov": q248_autocov,
        "q249_soundex": q249_soundex,
        "q250_ohlc": q250_ohlc,
        "q251_gini": q251_gini,
        "q252_interval_join": q252_interval_join,
        "q253_rolling_active": q253_rolling_active,
        "q254_shared_ngrams": q254_shared_ngrams,
        "q255_twap": q255_twap,
        "q256_label_dict": q256_label_dict,
        "q257_str_pack": q257_str_pack,
        "q258_nearest_join": q258_nearest_join,
        "q259_locf": q259_locf,
        "q260_cdf_join": q260_cdf_join,
        "q261_sliding_max": q261_sliding_max,
        "q262_emd1d": q262_emd1d,
        "q263_audience_overlap": q263_audience_overlap,
        "q264_largest_remainder": q264_largest_remainder,
        "q265_mase": q265_mase,
        "q266_seq_packing": q266_seq_packing,
        "q267_linear_reference": q267_linear_reference,
        "q268_shoelace": q268_shoelace,
        "q269_lbp": q269_lbp,
        "q270_blob_stats": q270_blob_stats,
        "q271_benford": q271_benford,
        "q272_front_coding": q272_front_coding,
        "q273_stratified_sample": q273_stratified_sample,
        "q274_containment": q274_containment,
        "q275_lift": q275_lift,
        "q276_auc": q276_auc,
        "q277_ks_test": q277_ks_test,
        "q278_pair_lift": q278_pair_lift,
        "q279_reciprocity": q279_reciprocity,
        "q280_delta_varint": q280_delta_varint,
        "q281_bm25": q281_bm25,
        "q282_link_pred": q282_link_pred,
        "q283_bool_and": q283_bool_and,
        "q284_k_anonymity": q284_k_anonymity,
        "q285_linkage": q285_linkage,
        "q286_lttb": q286_lttb,
        "q287_priority_sample": q287_priority_sample,
        "q288_pq_assign": q288_pq_assign,
        "q289_compact_cells": q289_compact_cells,
        "q290_lead_lag": q290_lead_lag,
        "q291_zone_adjacency": q291_zone_adjacency,
        "q292_euler": q292_euler,
        "q293_hist_pairs": q293_hist_pairs,
        "q294_latency_hist": q294_latency_hist,
        "q295_zonemap": q295_zonemap,
        "q296_covariance": q296_covariance,
        "q297_sat_rects": q297_sat_rects,
        "q298_late_events": q298_late_events,
        "q299_compass": q299_compass,
        "q300_join_estimate": q300_join_estimate,
        "q301_census": q301_census,
        "q302_top_paths": q302_top_paths,
        "q303_fk_audit": q303_fk_audit,
        "q304_triangle_threshold": q304_triangle_threshold,
        "q305_assortativity": q305_assortativity,
        "q306_dominant_period": q306_dominant_period,
        "q307_pyramid_error": q307_pyramid_error,
        "q308_top_keyword": q308_top_keyword,
        "q309_nearest_city": q309_nearest_city,
        "q310_radius_gyration": q310_radius_gyration,
        "q311_burstiness": q311_burstiness,
        "q312_contribution": q312_contribution,
        "q313_cooccurrence": q313_cooccurrence,
        "q314_haar_energy": q314_haar_energy,
        "q315_dhash": q315_dhash,
        "q316_vocab_growth": q316_vocab_growth,
        "q317_dag_layers": q317_dag_layers,
        "q318_sax": q318_sax,
        "q319_phrase": q319_phrase,
        "q320_trigram_lm": q320_trigram_lm,
        "q321_chunking": q321_chunking,
        "q322_ttr": q322_ttr,
        "q323_repeated_ngrams": q323_repeated_ngrams,
        "q324_silence": q324_silence,
        "q325_freeze": q325_freeze,
        "q326_polyline": q326_polyline,
        "q327_survivorship": q327_survivorship,
        "q328_payload_audit": q328_payload_audit,
        "q329_edit2_pairs": q329_edit2_pairs,
        "q330_rolling_ols": q330_rolling_ols,
        "q331_hgt": q331_hgt,
        "q332_slippy": q332_slippy,
        "q333_g711": q333_g711,
        "q334_pnm": q334_pnm,
        "q335_confusion": q335_confusion,
        "q336_fits": q336_fits,
        "q337_ascgrid": q337_ascgrid,
        "q338_composite": q338_composite,
        "q339_percent_rank": q339_percent_rank,
        "q340_crossing_points": q340_crossing_points,
        "q341_roaring": q341_roaring,
        "q342_cidr": q342_cidr,
        "q343_iso_week": q343_iso_week,
        "q344_debounce": q344_debounce,
        "q345_hdr": q345_hdr,
        "q346_oov": q346_oov,
        "q347_dhash_pairs": q347_dhash_pairs,
        "q348_csv": q348_csv,
        "q349_feature_hash": q349_feature_hash,
        "q350_bipartite": q350_bipartite,
        "q351_topic_scores": q351_topic_scores,
        "q352_base64": q352_base64,
        "q353_urls": q353_urls,
        "q354_rules": q354_rules,
        "q355_luhn": q355_luhn,
        "q356_wow": q356_wow,
        "q357_adler": q357_adler,
        "q358_diversity": q358_diversity,
        "q359_bytescreen": q359_bytescreen,
        "q360_warc": q360_warc,
        "q361_chunk_dedup": q361_chunk_dedup,
        "q362_term_commonness": q362_term_commonness,
        "q363_cms_counts": q363_cms_counts,
        "q364_knn_graph": q364_knn_graph,
        "q365_tfidf_topk": q365_tfidf_topk,
        "q366_contamination": q366_contamination,
        "q367_int8_calib": q367_int8_calib,
        "q368_mixture_sample": q368_mixture_sample,
        "q369_editdist_pairs": q369_editdist_pairs,
        "q370_exact_substr": q370_exact_substr,
        "q371_neighbor_agg": q371_neighbor_agg,
        "q372_repetition_stats": q372_repetition_stats,
        "q373_kcenter": q373_kcenter,
        "q374_semdedup": q374_semdedup,
        "q375_source_overlap": q375_source_overlap,
        "q376_truncation_dups": q376_truncation_dups,
        "q126_zonal_raster": q126_zonal_raster,
        "q127_slope_stats": q127_slope_stats,
        "q128_flow_direction": q128_flow_direction,
        "q129_overviews": q129_overviews,
        "q130_contours": q130_contours,
        "q131_resample": q131_resample,
    }


# ---------------------------------------------------------------------------
# oracle SQL (DuckDB; tables pre-registered as views)

# engine-index fixtures (q26-q28, q33, q34): image keys + footprints are
# pure arithmetic over `orders` (sources/synth.py footprint_of_tpch),
# rect catchments over `supplier` — the CTEs below recompute them
# exactly; the engine answers the same questions through the BUILT
# index (pruned reads, cell-ring kNN, salted zonal shuffle).
_TK_FOOT = """
      SELECT o_orderkey AS k,
             -125.0 + ((o_orderkey * 2654435761) % 1048576) / 1048576.0 * 58.0 AS lon,
             24.0 + ((o_orderkey * 976369) % 1048576) / 1048576.0 * 25.0 AS lat,
             ((o_orderkey % 64) + 1) / 1024.0 AS half
      FROM orders WHERE o_orderkey % 4 = 0
"""

_CAT_RECTS = """
      SELECT s_suppkey AS s,
             -123.0 + ((s_suppkey * 2654435761) % 1048576) / 1048576.0 * 54.0 AS lonc,
             25.5 + ((s_suppkey * 976369) % 1048576) / 1048576.0 * 22.0 AS latc,
             ((s_suppkey % 16) + 2) * 0.22 AS halfw,
             ((s_suppkey % 8) + 2) * 0.2 AS halfh
      FROM supplier
"""

_Q26_SQL = f"""
    WITH f AS ({_TK_FOOT}),
    m AS (
      SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
             lon - half AS minx, lat - half AS miny,
             lon + half AS maxx, lat + half AS maxy
      FROM f),
    s AS (
      SELECT image_id, minx, miny, maxx, maxy,
             (maxx - minx) * (maxy - miny) AS area,
             GREATEST(0.0, LEAST(maxx, -95.7) - GREATEST(minx, -106.3))
             * GREATEST(0.0, LEAST(maxy, 40.6) - GREATEST(miny, 31.4)) AS inter
      FROM m)
    SELECT image_id,
           CASE WHEN area = 0.0 THEN 0.0 ELSE inter / area * 100.0 END AS overlap_pct
    FROM s
    WHERE (minx <= -106.3 AND miny <= 31.4 AND maxx >= -95.7 AND maxy >= 40.6)
       OR (minx >= -106.3 AND miny >= 31.4 AND maxx <= -95.7 AND maxy <= 40.6)
       OR (CASE WHEN area = 0.0 THEN 0.0 ELSE inter / area * 100.0 END) >= 10.0
"""

def _roi_rect_sql(name: str, x0: float, y0: float, x1: float, y1: float) -> str:
    """One q26-style per-ROI select (axis-rect overlap, GREATEST/LEAST
    exact) labeled with the roi name — UNION ALLed for q39."""
    return f"""
    SELECT '{name}' AS roi, image_id,
           CASE WHEN area = 0.0 THEN 0.0 ELSE inter / area * 100.0 END AS overlap_pct
    FROM (
      SELECT image_id, minx, miny, maxx, maxy,
             (maxx - minx) * (maxy - miny) AS area,
             GREATEST(0.0, LEAST(maxx, {x1}) - GREATEST(minx, {x0}))
             * GREATEST(0.0, LEAST(maxy, {y1}) - GREATEST(miny, {y0})) AS inter
      FROM (
        SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
               lon - half AS minx, lat - half AS miny,
               lon + half AS maxx, lat + half AS maxy
        FROM ({_TK_FOOT})))
    WHERE (minx <= {x0} AND miny <= {y0} AND maxx >= {x1} AND maxy >= {y1})
       OR (minx >= {x0} AND miny >= {y0} AND maxx <= {x1} AND maxy <= {y1})
       OR (CASE WHEN area = 0.0 THEN 0.0 ELSE inter / area * 100.0 END) >= 10.0
    """


_Q39_SQL = (_roi_rect_sql("west", -106.3, 31.4, -95.7, 40.6)
            + " UNION ALL " + _roi_rect_sql("east", -88.0, 33.0, -78.5, 43.0))

_Q27_SQL = f"""
    WITH f AS ({_TK_FOOT})
    SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
           CAST(ROUND(2.0 * 6371008.8 * ASIN(SQRT(LEAST(GREATEST(
               POW(SIN(RADIANS(lat - 36.0) / 2), 2)
               + COS(RADIANS(36.0)) * COS(RADIANS(lat))
                 * POW(SIN(RADIANS(lon - (-98.0)) / 2), 2), 0.0), 1.0))))
                AS BIGINT) AS dist_mi
    FROM f ORDER BY dist_mi, image_id LIMIT 25
"""

_Q28_SQL = f"""
    WITH f AS ({_TK_FOOT}),
    m AS (SELECT k, lon - half AS minx, lat - half AS miny,
                 lon + half AS maxx, lat + half AS maxy FROM f),
    c AS ({_CAT_RECTS})
    SELECT 'img-' || lpad(CAST(m.k AS VARCHAR), 9, '0') AS image_id,
           'cat-' || lpad(CAST(c.s AS VARCHAR), 5, '0') AS catchment_id
    FROM m, c
    WHERE m.minx <= c.lonc + c.halfw AND c.lonc - c.halfw <= m.maxx
      AND m.miny <= c.latc + c.halfh AND c.latc - c.halfh <= m.maxy
"""

_Q33_SQL = """
    SELECT 'img-' || lpad(CAST(o_orderkey - 4 AS VARCHAR), 9, '0') AS id_a,
           'img-' || lpad(CAST(o_orderkey AS VARCHAR), 9, '0') AS id_b
    FROM orders WHERE o_orderkey % 100 = 0 AND o_orderkey > 0
"""

_Q34_SQL = f"""
    WITH f AS ({_TK_FOOT}),
    m AS (
      SELECT k, lon - half AS minx, lat - half AS miny,
             lon + half AS maxx, lat + half AS maxy,
             CASE WHEN (CASE WHEN k % 100 = 0 AND k > 0 THEN k - 4 ELSE k END) % 3 = 0
                  THEN 4096 ELSE 12288 END AS npx
      FROM f),
    c AS ({_CAT_RECTS}),
    j AS (
      SELECT 'cat-' || lpad(CAST(c.s AS VARCHAR), 5, '0') AS catchment_id, m.npx
      FROM m, c
      WHERE m.minx <= c.lonc + c.halfw AND c.lonc - c.halfw <= m.maxx
        AND m.miny <= c.latc + c.halfh AND c.latc - c.halfh <= m.maxy)
    SELECT catchment_id, CAST(SUM(npx) AS BIGINT) AS npixels, COUNT(*) AS n
    FROM j GROUP BY catchment_id
"""

# q21: stopword-profile language-ID — profiles and tie rule mirror
# hand_index_ray/pipelines/text.py LangId exactly (alphabetical lang
# order on ties, zero hits → unknown).
_LANGID_SQL = """
    WITH tok AS (
      SELECT doc_id, string_split(lower(text), ' ') AS ws FROM documents
    ), c AS (
      SELECT doc_id,
        len(list_filter(ws, w -> w IN ('column','key','row','table','value'))) AS de_c,
        len(list_filter(ws, w -> w IN ('a','big','fast','slow','the'))) AS en_c,
        len(list_filter(ws, w -> w IN ('agg','group','join','merge','sort'))) AS es_c,
        len(list_filter(ws, w -> w IN ('batch','filter','scan','stream','window'))) AS fr_c
      FROM tok)
    SELECT doc_id,
      CASE WHEN GREATEST(de_c, en_c, es_c, fr_c) = 0 THEN 'unknown'
           WHEN de_c = GREATEST(de_c, en_c, es_c, fr_c) THEN 'de'
           WHEN en_c = GREATEST(de_c, en_c, es_c, fr_c) THEN 'en'
           WHEN es_c = GREATEST(de_c, en_c, es_c, fr_c) THEN 'es'
           ELSE 'fr' END AS lang_pred
    FROM c
"""

# q24: brute-force exact word-3-gram Jaccard over all doc pairs — the
# ground truth the LSH pipeline must reproduce exactly (gram definition
# mirrors text.py _gram_hash_sets: single-space split, 3-token windows,
# whole-token-list gram for docs shorter than 3 tokens).
_MINHASH_SQL = """
    WITH g AS (
      SELECT doc_id,
             list_distinct(list_transform(
               generate_series(1, GREATEST(len(string_split(text, ' ')) - 2, 1)),
               i -> array_to_string((string_split(text, ' '))[i:i+2], ' '))) AS grams
      FROM documents
    ), p AS (
      SELECT a.doc_id AS id_a, b.doc_id AS id_b,
             len(list_intersect(a.grams, b.grams)) AS i,
             len(a.grams) + len(b.grams) AS s
      FROM g a JOIN g b ON a.doc_id < b.doc_id
    )
    SELECT id_a, id_b,
           CAST(ROUND(1000000.0 * i / (s - i)) AS BIGINT) AS j_micro
    FROM p
    WHERE CAST(ROUND(1000000.0 * i / (s - i)) AS BIGINT) >= 500000
"""


def _morph_sql() -> str:
    """q88: 3x3 dilate/erode over the arith-image interior — GREATEST /
    LEAST of the 9 neighborhood pixel formulas, summed per image."""
    terms = ", ".join(
        f"((k + 7*(y.y+{dy}) + 3*(x.x+{dx})) % 256)"
        for dy in (-1, 0, 1) for dx in (-1, 0, 1))
    return f"""
    WITH ks AS (SELECT o_orderkey AS k FROM orders
                WHERE o_orderkey % 16 = 0),
    m AS (SELECT k, GREATEST({terms}) AS d, LEAST({terms}) AS e
          FROM ks, generate_series(1, 22) y(y),
               generate_series(1, 30) x(x))
    SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
           CAST(SUM(d) AS BIGINT) AS d_sum,
           CAST(SUM(e) AS BIGINT) AS e_sum
    FROM m GROUP BY k
"""


def _simhash_sql() -> str:
    """q25: SimHash in SQL — 64 per-bit vote sums over md5_number_lower
    word hashes (bit-identical to text.py _md5_u64), emitted as the
    MSB-first bit string."""
    votes = ",\n        ".join(
        f"SUM(CASE WHEN (hv >> {j}) & 1 = 1 THEN 1 ELSE -1 END) AS s{j}"
        for j in range(64))
    bits = " || ".join(
        f"CASE WHEN s{j} > 0 THEN '1' ELSE '0' END" for j in range(63, -1, -1))
    return f"""
    WITH w AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents
    ), h AS (
      SELECT doc_id, md5_number_lower(word) AS hv FROM w
    ), v AS (
      SELECT doc_id,
        {votes}
      FROM h GROUP BY doc_id)
    SELECT doc_id, {bits} AS simhash_bits FROM v
"""


def _winnow_sql(k: int = 8, w: int = 4) -> str:
    """q42: winnowing fingerprints in SQL — the gram hash is the same
    degree-(k-1) polynomial mod 2^31-1 the engine rolls
    (text.py winnow_fingerprints), spelled out as k explicit
    ascii(substr(...)) terms (each term < 2^52, the k-term sum < 2^55:
    BIGINT-safe); fingerprints are window MINs over w consecutive
    grams, full windows only, DISTINCT per doc."""
    from hand_index_ray.pipelines.text import WINNOW_BASE, WINNOW_MOD
    P = [pow(WINNOW_BASE, j, WINNOW_MOD) for j in range(k)]
    terms = " + ".join(
        f"ascii(substr(text, t.pos + {j}, 1)) * {P[k - 1 - j]}::BIGINT"
        for j in range(k))
    return f"""
    WITH g AS (
      SELECT doc_id, t.pos AS pos, ({terms}) % {WINNOW_MOD} AS gh
      FROM documents,
           LATERAL (SELECT UNNEST(generate_series(1, length(text) - {k - 1}))
                    AS pos) t
      WHERE length(text) >= {k + w - 1}
    ), wm AS (
      SELECT doc_id, pos,
             MIN(gh) OVER (PARTITION BY doc_id ORDER BY pos
                           ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING)
               AS fp,
             COUNT(*) OVER (PARTITION BY doc_id) AS n_gram
      FROM g
    ), sel AS (
      SELECT DISTINCT doc_id, fp FROM wm WHERE pos <= n_gram - {w - 1}
    )
    SELECT doc_id, COUNT(*)::BIGINT AS n_fp, MIN(fp)::BIGINT AS fp_min,
           CAST(SUM(fp) AS BIGINT) AS fp_sum
    FROM sel GROUP BY doc_id
"""


def _shared_ngrams_sql(k: int = 12, min_shared: int = 20) -> str:
    """q254: exact shared-k-gram pairs — the same polynomial gram hash
    as q42/q238 spelled as k explicit terms, DISTINCT per doc, brute
    hash-equality self-join, pairs with >= min_shared shared grams."""
    from hand_index_ray.pipelines.text import WINNOW_BASE, WINNOW_MOD
    P = [pow(WINNOW_BASE, j, WINNOW_MOD) for j in range(k)]
    terms = " + ".join(
        f"ascii(substr(text, t.pos + {j}, 1)) * {P[k - 1 - j]}::BIGINT"
        for j in range(k))
    return f"""
    WITH g AS (
      SELECT doc_id, ({terms}) % {WINNOW_MOD} AS gh
      FROM documents,
           LATERAL (SELECT UNNEST(generate_series(1, length(text) - {k - 1}))
                    AS pos) t
      WHERE length(text) >= {k}
    ), dg AS (SELECT DISTINCT doc_id, gh FROM g),
    p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                 COUNT(*) AS shared
          FROM dg a JOIN dg b ON b.gh = a.gh AND b.doc_id > a.doc_id
          GROUP BY 1, 2)
    SELECT id_a, id_b, CAST(shared AS BIGINT) AS shared
    FROM p WHERE shared >= {min_shared} ORDER BY 1, 2"""


def _containment_sql(k: int = 12, tau_num: int = 1,
                     tau_den: int = 2) -> str:
    """q274: the q254 distinct-gram machinery + per-doc gram counts;
    ordered pairs kept iff tau_den·shared >= tau_num·|grams(a)|."""
    from hand_index_ray.pipelines.text import WINNOW_BASE, WINNOW_MOD
    P = [pow(WINNOW_BASE, j, WINNOW_MOD) for j in range(k)]
    terms = " + ".join(
        f"ascii(substr(text, t.pos + {j}, 1)) * {P[k - 1 - j]}::BIGINT"
        for j in range(k))
    return f"""
    WITH g AS (
      SELECT doc_id, ({terms}) % {WINNOW_MOD} AS gh
      FROM documents,
           LATERAL (SELECT UNNEST(generate_series(1, length(text) - {k - 1}))
                    AS pos) t
      WHERE length(text) >= {k}
    ), dg AS (SELECT DISTINCT doc_id, gh FROM g),
    nc AS (SELECT doc_id, COUNT(*) AS n_a FROM dg GROUP BY 1),
    p AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                 COUNT(*) AS shared
          FROM dg a JOIN dg b ON b.gh = a.gh
               AND b.doc_id <> a.doc_id
          GROUP BY 1, 2)
    SELECT p.id_a, p.id_b, CAST(p.shared AS BIGINT) AS shared,
           CAST(nc.n_a AS BIGINT) AS n_a
    FROM p JOIN nc ON nc.doc_id = p.id_a
    WHERE {tau_den} * p.shared >= {tau_num} * nc.n_a
    ORDER BY 1, 2"""


def _fill_waves_sql(waves: int = 12) -> str:
    """Unrolled Jacobi relaxation for q202: W_{n+1} = min(W_n,
    max(dem, min of 4-neighbor W_n)) on interior cells, boundary
    pinned at dem. 12 waves ≥ the exhaustively-checked 9-sweep
    fixpoint bound over every raster the fixture can produce."""
    ctes = ["""ks AS (SELECT o_orderkey AS k FROM orders
                      WHERE o_orderkey % 211 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 13 + x.x * 7 + y.y * 3) % 256 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            w0 AS MATERIALIZED (SELECT k, x, y, v,
                          CASE WHEN x = 0 OR x = 15 OR y = 0 OR y = 11
                               THEN v ELSE 1152921504606846976 END AS w
                   FROM dem)"""]
    for i in range(1, waves + 1):
        p, q = f"w{i - 1}", f"w{i}"
        ctes.append(f"""{q} AS MATERIALIZED (
                SELECT p.k, p.x, p.y, p.v,
                       CASE WHEN p.x = 0 OR p.x = 15
                                 OR p.y = 0 OR p.y = 11 THEN p.v
                            ELSE LEAST(p.w, GREATEST(p.v,
                                 LEAST(e.w, wn.w, nn.w, ss.w))) END AS w
                FROM {p} p
                LEFT JOIN {p} e  ON e.k = p.k AND e.x = p.x + 1
                                 AND e.y = p.y
                LEFT JOIN {p} wn ON wn.k = p.k AND wn.x = p.x - 1
                                 AND wn.y = p.y
                LEFT JOIN {p} nn ON nn.k = p.k AND nn.x = p.x
                                 AND nn.y = p.y - 1
                LEFT JOIN {p} ss ON ss.k = p.k AND ss.x = p.x
                                 AND ss.y = p.y + 1)""")
    return ("WITH " + ",\n".join(ctes) + f"""
            SELECT k AS o_orderkey,
                   CAST(SUM(w - v) AS BIGINT) AS fill_volume,
                   CAST(SUM(CASE WHEN w > v THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_filled,
                   CAST(MAX(w - v) AS BIGINT) AS max_raise
            FROM w{waves} GROUP BY k ORDER BY k""")


def _cost_waves_sql(waves: int = 30) -> str:
    """Unrolled Bellman–Ford for q207: D_{n+1} = min(D_n, min of
    4-neighbor D_n + v) with the west edge pinned at v. 30 waves ≥ the
    exhaustively-checked 27-sweep fixpoint bound over every raster the
    fixture can produce (pattern depends on k mod 64 only)."""
    ctes = ["""ks AS (SELECT o_orderkey AS k FROM orders
                      WHERE o_orderkey % 191 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 23 + x.x * 7 + y.y * 3) % 64 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            c0 AS MATERIALIZED (SELECT k, x, y, v,
                          CASE WHEN x = 0 THEN v
                               ELSE 1152921504606846976 END AS d
                   FROM dem)"""]
    for i in range(1, waves + 1):
        p, q = f"c{i - 1}", f"c{i}"
        ctes.append(f"""{q} AS MATERIALIZED (
                SELECT p.k, p.x, p.y, p.v,
                       CASE WHEN p.x = 0 THEN p.v
                            ELSE LEAST(p.d,
                                 LEAST(e.d, wn.d, nn.d, ss.d) + p.v)
                       END AS d
                FROM {p} p
                LEFT JOIN {p} e  ON e.k = p.k AND e.x = p.x + 1
                                 AND e.y = p.y
                LEFT JOIN {p} wn ON wn.k = p.k AND wn.x = p.x - 1
                                 AND wn.y = p.y
                LEFT JOIN {p} nn ON nn.k = p.k AND nn.x = p.x
                                 AND nn.y = p.y - 1
                LEFT JOIN {p} ss ON ss.k = p.k AND ss.x = p.x
                                 AND ss.y = p.y + 1)""")
    return ("WITH " + ",\n".join(ctes) + f"""
            SELECT k AS o_orderkey,
                   CAST(SUM(d) AS BIGINT) AS cost_sum,
                   CAST(MAX(d) AS BIGINT) AS cost_max,
                   CAST(MIN(CASE WHEN x = 15 THEN d END)
                        AS BIGINT) AS east_min
            FROM c{waves} GROUP BY k ORDER BY k""")


def _seam_waves_sql() -> str:
    """Directed DP for q209: energy from clamped central gradients,
    then exactly H−1 = 11 row waves (this is the whole computation —
    the DP is acyclic, one wave per row)."""
    ctes = ["""ks AS (SELECT o_orderkey AS k FROM orders
                      WHERE o_orderkey % 197 = 0),
            dem AS MATERIALIZED (SELECT ks.k, x.x, y.y,
                           (ks.k * 29 + x.x * 11 + y.y * 5) % 64 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            en AS MATERIALIZED (SELECT d.k, d.x, d.y,
                           ABS(r.v - l.v) + ABS(dn.v - up.v) AS e
                    FROM dem d
                    JOIN dem r  ON r.k = d.k AND r.y = d.y
                                AND r.x = LEAST(d.x + 1, 15)
                    JOIN dem l  ON l.k = d.k AND l.y = d.y
                                AND l.x = GREATEST(d.x - 1, 0)
                    JOIN dem dn ON dn.k = d.k AND dn.x = d.x
                                AND dn.y = LEAST(d.y + 1, 11)
                    JOIN dem up ON up.k = d.k AND up.x = d.x
                                AND up.y = GREATEST(d.y - 1, 0)),
            s0 AS MATERIALIZED (SELECT k, x, e AS d FROM en
                                WHERE y = 0)"""]
    big = 1 << 40
    for i in range(1, 12):
        p, q = f"s{i - 1}", f"s{i}"
        ctes.append(f"""{q} AS MATERIALIZED (
                SELECT e.k, e.x,
                       e.e + LEAST(COALESCE(a.d, {big}), b.d,
                                   COALESCE(c.d, {big})) AS d
                FROM en e
                JOIN {p} b      ON b.k = e.k AND b.x = e.x
                LEFT JOIN {p} a ON a.k = e.k AND a.x = e.x - 1
                LEFT JOIN {p} c ON c.k = e.k AND c.x = e.x + 1
                WHERE e.y = {i})""")
    ctes.append("""m AS (SELECT k, MIN(d) AS md, SUM(d) AS sd
                         FROM s11 GROUP BY k)""")
    return ("WITH " + ",\n".join(ctes) + """
            SELECT m.k AS o_orderkey,
                   CAST(m.md AS BIGINT) AS seam_min,
                   CAST(MIN(s.x) AS BIGINT) AS seam_argmin,
                   CAST(m.sd AS BIGINT) AS bottom_sum
            FROM m JOIN s11 s ON s.k = m.k AND s.d = m.md
            GROUP BY m.k, m.md, m.sd ORDER BY 1""")


def _strahler_waves_sql(waves: int = 4) -> str:
    """q214: D8 steepest-descent edges via QUALIFY, then ``waves``
    unrolled Strahler fixpoint rounds (measured convergence ≤3 over
    the full key range; monotone, so extra waves are identity)."""
    ctes = ["""ks AS (SELECT o_orderkey AS k FROM orders
                      WHERE o_orderkey % 179 = 0),
            dem AS MATERIALIZED (SELECT ks.k, x.x, y.y,
                           (ks.k * 11 + x.x * 4 + y.y * 7) % 41 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 11)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 9)) y),
            nb AS (SELECT d.k, d.y * 12 + d.x AS src,
                          n.y * 12 + n.x AS dst,
                          d.v - n.v AS drp, o.code
                   FROM dem d
                   CROSS JOIN (VALUES (0,1,0),(1,1,1),(2,0,1),(3,-1,1),
                                      (4,-1,0),(5,-1,-1),(6,0,-1),
                                      (7,1,-1)) o(code, dx, dy)
                   JOIN dem n ON n.k = d.k AND n.x = d.x + o.dx
                              AND n.y = d.y + o.dy
                   WHERE d.v - n.v > 0),
            edges AS MATERIALIZED (SELECT k, src, dst FROM nb
                   QUALIFY ROW_NUMBER() OVER (PARTITION BY k, src
                       ORDER BY drp DESC, code) = 1),
            cells AS MATERIALIZED (SELECT k, y * 12 + x AS cell FROM dem),
            w0 AS (SELECT k, cell, 1 AS o FROM cells)"""]
    for i in range(1, waves + 1):
        p = f"w{i - 1}"
        ctes.append(f"""a{i} AS (SELECT e.k, e.dst, MAX(p.o) AS m
                   FROM edges e JOIN {p} p ON p.k = e.k
                     AND p.cell = e.src GROUP BY 1, 2)""")
        ctes.append(f"""c{i} AS (SELECT a.k, a.dst, COUNT(*) AS c
                   FROM a{i} a
                   JOIN edges e ON e.k = a.k AND e.dst = a.dst
                   JOIN {p} p ON p.k = e.k AND p.cell = e.src
                     AND p.o = a.m GROUP BY 1, 2)""")
        ctes.append(f"""w{i} AS (SELECT cl.k, cl.cell,
                   COALESCE(a.m + CASE WHEN c.c >= 2 THEN 1 ELSE 0 END,
                            1) AS o
                   FROM cells cl
                   LEFT JOIN a{i} a ON a.k = cl.k AND a.dst = cl.cell
                   LEFT JOIN c{i} c ON c.k = cl.k AND c.dst = cl.cell)""")
    return ("WITH " + ",\n".join(ctes) + f"""
            SELECT k AS o_orderkey, CAST(o AS BIGINT) AS strahler,
                   CAST(COUNT(*) AS BIGINT) AS n_cells
            FROM w{waves} GROUP BY 1, 2 ORDER BY 1, 2""")


def _frechet_sql() -> str:
    """q215: genuine recursive-CTE Fréchet DP — the 4 template-axis
    DP columns ride each recursion row; same-row dependencies
    (dF(i,j−1) next to dF(i,j)) are expanded by nesting the earlier
    column's expression."""
    tpl = [(5, 7), (20, 40), (45, 12), (60, 60)]
    dcols = ",\n                   ".join(
        f"((l_partkey % 64) - {tx}) * ((l_partkey % 64) - {tx})"
        f" + ((l_suppkey % 64) - {ty}) * ((l_suppkey % 64) - {ty})"
        f" AS d{j + 1}"
        for j, (tx, ty) in enumerate(tpl))
    base = ["d1"]
    for j in range(1, 4):
        base.append(f"GREATEST(d{j + 1}, {base[j - 1]})")
    base_sel = ", ".join(f"{e} AS f{j + 1}" for j, e in enumerate(base))
    nf = ["GREATEST(p.d1, s.f1)"]
    for j in range(1, 4):
        nf.append(f"GREATEST(p.d{j + 1}, "
                  f"LEAST(s.f{j + 1}, s.f{j}, {nf[j - 1]}))")
    rec_sel = ", ".join(f"{e} AS f{j + 1}" for j, e in enumerate(nf))
    return f"""
        WITH RECURSIVE pts AS (
            SELECT l_orderkey % 401 AS gid,
                   CAST(ROW_NUMBER() OVER (
                       PARTITION BY l_orderkey % 401
                       ORDER BY ((l_orderkey * 8 + l_linenumber) * 64
                                 + l_partkey % 64) * 64
                                + l_suppkey % 64)
                       AS BIGINT) AS i,
                   {dcols}
            FROM lineitem),
        st AS (
            SELECT gid, i, {base_sel} FROM pts WHERE i = 1
            UNION ALL
            SELECT p.gid, p.i, {rec_sel}
            FROM st s JOIN pts p ON p.gid = s.gid AND p.i = s.i + 1),
        cnt AS (SELECT gid, COUNT(*) AS n FROM pts GROUP BY 1)
        SELECT s.gid, CAST(s.f4 AS BIGINT) AS frechet_d2,
               CAST(cnt.n AS BIGINT) AS n_pts
        FROM st s JOIN cnt ON cnt.gid = s.gid
        QUALIFY ROW_NUMBER() OVER (PARTITION BY s.gid
                                   ORDER BY s.i DESC) = 1
        ORDER BY 1"""


def _dtw_sql() -> str:
    """q224: recursive-CTE DTW DP — the 4 template-axis DP columns
    ride each recursion row; base row is the cumsum over the template
    axis, recursion nf_j = d_j + LEAST(f_j, f_{j−1}, nf_{j−1}) with
    same-row dependencies expanded by nesting."""
    tpl = [(3, 9), (30, 22), (50, 50), (9, 60)]
    dcols = ",\n                   ".join(
        f"((l_partkey % 64) - {tx}) * ((l_partkey % 64) - {tx})"
        f" + ((l_suppkey % 64) - {ty}) * ((l_suppkey % 64) - {ty})"
        f" AS d{j + 1}"
        for j, (tx, ty) in enumerate(tpl))
    base = ["d1"]
    for j in range(1, 4):
        base.append(f"d{j + 1} + ({base[j - 1]})")
    base_sel = ", ".join(f"{e} AS f{j + 1}" for j, e in enumerate(base))
    nf = ["p.d1 + s.f1"]
    for j in range(1, 4):
        nf.append(f"p.d{j + 1} + "
                  f"LEAST(s.f{j + 1}, s.f{j}, ({nf[j - 1]}))")
    rec_sel = ", ".join(f"{e} AS f{j + 1}" for j, e in enumerate(nf))
    return f"""
        WITH RECURSIVE pts AS (
            SELECT l_orderkey % 397 AS gid,
                   CAST(ROW_NUMBER() OVER (
                       PARTITION BY l_orderkey % 397
                       ORDER BY ((l_orderkey * 8 + l_linenumber) * 64
                                 + l_partkey % 64) * 64
                                + l_suppkey % 64)
                       AS BIGINT) AS i,
                   {dcols}
            FROM lineitem),
        st AS (
            SELECT gid, i, {base_sel} FROM pts WHERE i = 1
            UNION ALL
            SELECT p.gid, p.i, {rec_sel}
            FROM st s JOIN pts p ON p.gid = s.gid AND p.i = s.i + 1),
        cnt AS (SELECT gid, COUNT(*) AS n FROM pts GROUP BY 1)
        SELECT s.gid, CAST(s.f4 AS BIGINT) AS dtw_d2,
               CAST(cnt.n AS BIGINT) AS n_pts
        FROM st s JOIN cnt ON cnt.gid = s.gid
        QUALIFY ROW_NUMBER() OVER (PARTITION BY s.gid
                                   ORDER BY s.i DESC) = 1
        ORDER BY 1"""


def _lcss_sql() -> str:
    """q231: recursive-CTE LCSS DP — 4 boolean match columns ride each
    point row; base row f_j = m_j ? 1 : f_{j−1}; recursion
    nf_j = m_j ? f_{j−1}+1 : GREATEST(f_j, nf_{j−1}) (f_0 ≡ 0),
    same-row dependencies expanded by nesting."""
    tpl = [(10, 10), (25, 30), (40, 15), (55, 50)]
    mcols = ",\n                   ".join(
        f"(abs((l_partkey % 64) - {tx}) <= 6"
        f" AND abs((l_suppkey % 64) - {ty}) <= 6) AS m{j + 1}"
        for j, (tx, ty) in enumerate(tpl))
    base = ["CASE WHEN m1 THEN 1 ELSE 0 END"]
    for j in range(1, 4):
        base.append(f"CASE WHEN m{j + 1} THEN 1 ELSE ({base[j - 1]}) END")
    base_sel = ", ".join(f"CAST({e} AS BIGINT) AS f{j + 1}"
                         for j, e in enumerate(base))
    nf = ["CASE WHEN p.m1 THEN 1 ELSE s.f1 END"]
    for j in range(1, 4):
        nf.append(f"CASE WHEN p.m{j + 1} THEN s.f{j} + 1 "
                  f"ELSE GREATEST(s.f{j + 1}, ({nf[j - 1]})) END")
    rec_sel = ", ".join(f"CAST({e} AS BIGINT) AS f{j + 1}"
                        for j, e in enumerate(nf))
    return f"""
        WITH RECURSIVE pts AS (
            SELECT l_orderkey % 389 AS gid,
                   CAST(ROW_NUMBER() OVER (
                       PARTITION BY l_orderkey % 389
                       ORDER BY ((l_orderkey * 8 + l_linenumber) * 64
                                 + l_partkey % 64) * 64
                                + l_suppkey % 64)
                       AS BIGINT) AS i,
                   {mcols}
            FROM lineitem),
        st AS (
            SELECT gid, i, {base_sel} FROM pts WHERE i = 1
            UNION ALL
            SELECT p.gid, p.i, {rec_sel}
            FROM st s JOIN pts p ON p.gid = s.gid AND p.i = s.i + 1),
        cnt AS (SELECT gid, COUNT(*) AS n FROM pts GROUP BY 1)
        SELECT s.gid, CAST(s.f4 AS BIGINT) AS lcss_len,
               CAST(cnt.n AS BIGINT) AS n_pts
        FROM st s JOIN cnt ON cnt.gid = s.gid
        QUALIFY ROW_NUMBER() OVER (PARTITION BY s.gid
                                   ORDER BY s.i DESC) = 1
        ORDER BY 1"""


def _edge_nms_sql() -> str:
    """q229: Sobel gradients computed ARITHMETICALLY from the fixture
    formula (no neighbor joins needed for g), then 8 mag²-grid joins
    for the sector-neighbor compares."""
    def v(xe: str, ye: str) -> str:
        return f"(k * 15 + ({xe}) * 6 + ({ye}) * 11) % 59"
    gx = (f"({v('x+1', 'y-1')} + 2 * ({v('x+1', 'y')}) + {v('x+1', 'y+1')}"
          f" - {v('x-1', 'y-1')} - 2 * ({v('x-1', 'y')})"
          f" - {v('x-1', 'y+1')})")
    gy = (f"({v('x-1', 'y+1')} + 2 * ({v('x', 'y+1')}) + {v('x+1', 'y+1')}"
          f" - {v('x-1', 'y-1')} - 2 * ({v('x', 'y-1')})"
          f" - {v('x+1', 'y-1')})")
    return f"""
        WITH ks AS (SELECT o_orderkey AS k FROM orders
                    WHERE o_orderkey % 239 = 0),
        g AS MATERIALIZED (
            SELECT ks.k, x.x, y.y, {gx} AS gx, {gy} AS gy
            FROM ks
            CROSS JOIN (SELECT generate_series AS x
                        FROM generate_series(1, 10)) x
            CROSS JOIN (SELECT generate_series AS y
                        FROM generate_series(1, 8)) y),
        m AS MATERIALIZED (
            SELECT k, x, y, gx * gx + gy * gy AS m2,
                   CASE WHEN abs(gx) >= 2 * abs(gy) THEN 0
                        WHEN abs(gy) >= 2 * abs(gx) THEN 1
                        WHEN gx * gy > 0 THEN 2 ELSE 3 END AS sec
            FROM g),
        core AS (
            SELECT c.k, c.m2,
                   CASE c.sec
                     WHEN 0 THEN c.m2 > e.m2 AND c.m2 > w.m2
                     WHEN 1 THEN c.m2 > s.m2 AND c.m2 > n.m2
                     WHEN 2 THEN c.m2 > se.m2 AND c.m2 > nw.m2
                     ELSE c.m2 > sw.m2 AND c.m2 > ne.m2
                   END AND c.m2 >= 500 AS kp
            FROM m c
            JOIN m e  ON e.k = c.k AND e.x = c.x + 1 AND e.y = c.y
            JOIN m w  ON w.k = c.k AND w.x = c.x - 1 AND w.y = c.y
            JOIN m s  ON s.k = c.k AND s.x = c.x AND s.y = c.y + 1
            JOIN m n  ON n.k = c.k AND n.x = c.x AND n.y = c.y - 1
            JOIN m se ON se.k = c.k AND se.x = c.x + 1 AND se.y = c.y + 1
            JOIN m nw ON nw.k = c.k AND nw.x = c.x - 1 AND nw.y = c.y - 1
            JOIN m sw ON sw.k = c.k AND sw.x = c.x - 1 AND sw.y = c.y + 1
            JOIN m ne ON ne.k = c.k AND ne.x = c.x + 1 AND ne.y = c.y - 1
            WHERE c.x BETWEEN 2 AND 9 AND c.y BETWEEN 2 AND 7)
        SELECT k AS o_orderkey,
               CAST(COUNT(*) FILTER (WHERE kp) AS BIGINT) AS n_edges,
               CAST(COALESCE(SUM(m2) FILTER (WHERE kp), 0) AS BIGINT)
                   AS edge_mag2_sum,
               CAST(MAX(m2) AS BIGINT) AS max_mag2
        FROM core GROUP BY 1 ORDER BY 1"""


def _hysteresis_sql(lo2: int = 5000, hi2: int = 30000) -> str:
    """q239: disc-fixture pixels (CASE inside/outside), join-based
    Sobel + the q229 NMS core, then a recursive-CTE flood — reach =
    strong pixels UNION weak 8-neighbors of reach (recursive-UNION
    dedup terminates the recursion at the fixpoint)."""
    return f"""
        WITH RECURSIVE ks AS (SELECT o_orderkey AS k FROM orders
                    WHERE o_orderkey % 239 = 0),
        px AS MATERIALIZED (
            SELECT ks.k, x.x, y.y,
                   CASE WHEN (x.x - (4 + ks.k % 6))
                            * (x.x - (4 + ks.k % 6))
                          + (y.y - (4 + (ks.k // 6) % 4))
                            * (y.y - (4 + (ks.k // 6) % 4))
                          <= 5 + ks.k % 9
                        THEN 40 + ks.k % 7 ELSE ks.k % 5 END AS v
            FROM ks
            CROSS JOIN (SELECT generate_series AS x
                        FROM generate_series(0, 13)) x
            CROSS JOIN (SELECT generate_series AS y
                        FROM generate_series(0, 11)) y),
        m AS MATERIALIZED (
            SELECT c.k, c.x, c.y,
                   (ne.v + 2 * e.v + se.v - nw.v - 2 * w.v - sw.v)
                 * (ne.v + 2 * e.v + se.v - nw.v - 2 * w.v - sw.v)
                 + (sw.v + 2 * s.v + se.v - nw.v - 2 * n.v - ne.v)
                 * (sw.v + 2 * s.v + se.v - nw.v - 2 * n.v - ne.v)
                       AS m2,
                   CASE WHEN abs(ne.v + 2 * e.v + se.v
                                 - nw.v - 2 * w.v - sw.v)
                             >= 2 * abs(sw.v + 2 * s.v + se.v
                                        - nw.v - 2 * n.v - ne.v) THEN 0
                        WHEN abs(sw.v + 2 * s.v + se.v
                                 - nw.v - 2 * n.v - ne.v)
                             >= 2 * abs(ne.v + 2 * e.v + se.v
                                        - nw.v - 2 * w.v - sw.v) THEN 1
                        WHEN (ne.v + 2 * e.v + se.v
                              - nw.v - 2 * w.v - sw.v)
                           * (sw.v + 2 * s.v + se.v
                              - nw.v - 2 * n.v - ne.v) > 0 THEN 2
                        ELSE 3 END AS sec
            FROM px c
            JOIN px e  ON e.k = c.k AND e.x = c.x + 1 AND e.y = c.y
            JOIN px w  ON w.k = c.k AND w.x = c.x - 1 AND w.y = c.y
            JOIN px s  ON s.k = c.k AND s.x = c.x AND s.y = c.y + 1
            JOIN px n  ON n.k = c.k AND n.x = c.x AND n.y = c.y - 1
            JOIN px se ON se.k = c.k AND se.x = c.x + 1 AND se.y = c.y + 1
            JOIN px nw ON nw.k = c.k AND nw.x = c.x - 1 AND nw.y = c.y - 1
            JOIN px sw ON sw.k = c.k AND sw.x = c.x - 1 AND sw.y = c.y + 1
            JOIN px ne ON ne.k = c.k AND ne.x = c.x + 1 AND ne.y = c.y - 1
            WHERE c.x BETWEEN 1 AND 12 AND c.y BETWEEN 1 AND 10),
        core AS MATERIALIZED (
            SELECT c.k, c.x, c.y, c.m2,
                   CASE c.sec
                     WHEN 0 THEN c.m2 > e.m2 AND c.m2 > w.m2
                     WHEN 1 THEN c.m2 > s.m2 AND c.m2 > n.m2
                     WHEN 2 THEN c.m2 > se.m2 AND c.m2 > nw.m2
                     ELSE c.m2 > sw.m2 AND c.m2 > ne.m2
                   END AND c.m2 >= {lo2} AS kp
            FROM m c
            JOIN m e  ON e.k = c.k AND e.x = c.x + 1 AND e.y = c.y
            JOIN m w  ON w.k = c.k AND w.x = c.x - 1 AND w.y = c.y
            JOIN m s  ON s.k = c.k AND s.x = c.x AND s.y = c.y + 1
            JOIN m n  ON n.k = c.k AND n.x = c.x AND n.y = c.y - 1
            JOIN m se ON se.k = c.k AND se.x = c.x + 1 AND se.y = c.y + 1
            JOIN m nw ON nw.k = c.k AND nw.x = c.x - 1 AND nw.y = c.y - 1
            JOIN m sw ON sw.k = c.k AND sw.x = c.x - 1 AND sw.y = c.y + 1
            JOIN m ne ON ne.k = c.k AND ne.x = c.x + 1 AND ne.y = c.y - 1
            WHERE c.x BETWEEN 2 AND 11 AND c.y BETWEEN 2 AND 9),
        strong AS (SELECT k, x, y, m2 FROM core
                   WHERE kp AND m2 >= {hi2}),
        weak AS MATERIALIZED (SELECT k, x, y, m2 FROM core
                              WHERE kp AND m2 < {hi2}),
        rch AS (
            SELECT k, x, y FROM strong
            UNION
            SELECT w.k, w.x, w.y
            FROM rch r JOIN weak w ON w.k = r.k
                 AND abs(w.x - r.x) <= 1 AND abs(w.y - r.y) <= 1),
        linked AS (SELECT r.k, w.m2 FROM rch r
                   JOIN weak w ON w.k = r.k AND w.x = r.x AND w.y = r.y)
        SELECT ks.k AS o_orderkey,
               CAST(COALESCE(st.n, 0) AS BIGINT) AS n_strong,
               CAST(COALESCE(wk.n, 0) AS BIGINT) AS n_weak,
               CAST(COALESCE(lk.n, 0) AS BIGINT) AS n_linked,
               CAST(COALESCE(st.s, 0) + COALESCE(lk.s, 0) AS BIGINT)
                   AS edge_mag2_sum
        FROM ks
        LEFT JOIN (SELECT k, COUNT(*) AS n, SUM(m2) AS s FROM strong
                   GROUP BY k) st ON st.k = ks.k
        LEFT JOIN (SELECT k, COUNT(*) AS n FROM weak GROUP BY k) wk
               ON wk.k = ks.k
        LEFT JOIN (SELECT k, COUNT(*) AS n, SUM(m2) AS s FROM linked
                   GROUP BY k) lk ON lk.k = ks.k
        ORDER BY 1"""


def _cdc_sql(k: int = 8, div: int = 64) -> str:
    """q238: content-defined chunking in SQL — the gram hash is the
    same degree-(k-1) polynomial mod 2^31-1 as q42's winnowing
    (k explicit ascii(substr) terms); cuts where it ≡ 0 (mod div)
    plus the forced end-of-doc cut; each chunk's id is the polynomial
    over the whole chunk, evaluated from a B^-j-weighted windowed
    prefix sum (HUGEINT-safe cumulative, mod at use) times B^b —
    exactly the engine's flat-prefix arithmetic."""
    from hand_index_ray.pipelines.text import WINNOW_BASE, WINNOW_MOD
    P = [pow(WINNOW_BASE, j, WINNOW_MOD) for j in range(k)]
    terms = " + ".join(
        f"ascii(substr(text, t.pos + {j}, 1)) * {P[k - 1 - j]}::BIGINT"
        for j in range(k))
    inv = pow(WINNOW_BASE, WINNOW_MOD - 2, WINNOW_MOD)
    return f"""
    WITH RECURSIVE pw(e, p, ip) AS (
        SELECT 0, 1::BIGINT, 1::BIGINT
        UNION ALL
        SELECT e + 1, (p * {WINNOW_BASE}) % {WINNOW_MOD},
               (ip * {inv}) % {WINNOW_MOD}
        FROM pw WHERE e < (SELECT MAX(length(text)) FROM documents)
    ), g AS (
      SELECT doc_id, t.pos AS pos, ({terms}) % {WINNOW_MOD} AS gh
      FROM documents,
           LATERAL (SELECT UNNEST(generate_series(1, length(text) - {k - 1}))
                    AS pos) t
      WHERE length(text) >= {k}
    ), cuts AS (
      -- explicit DISTINCT: inside a WITH RECURSIVE clause DuckDB does
      -- not apply plain-UNION dedup semantics to non-recursive CTEs
      SELECT DISTINCT doc_id, b FROM (
        SELECT doc_id, pos + {k - 1} AS b FROM g WHERE gh % {div} = 0
        UNION ALL
        SELECT doc_id, length(text) AS b FROM documents
        WHERE length(text) > 0)
    ), ch AS (
      SELECT doc_id,
             COALESCE(LAG(b) OVER (PARTITION BY doc_id ORDER BY b), 0)
                 AS a, b
      FROM cuts
    ), chars AS (
      SELECT doc_id, t.i AS i,
             ascii(substr(text, t.i + 1, 1))::BIGINT AS cp
      FROM documents,
           LATERAL (SELECT UNNEST(generate_series(0, length(text) - 1))
                    AS i) t
      WHERE length(text) > 0
    ), pref AS (
      SELECT c.doc_id, c.i,
             SUM(c.cp * pw.ip) OVER (PARTITION BY c.doc_id ORDER BY c.i)
                 AS s
      FROM chars c JOIN pw ON pw.e = c.i + 1
    ), hx AS (
      SELECT ch.doc_id, ch.b - ch.a AS len,
             (CAST(((pb.s - COALESCE(pa.s, 0)) % {WINNOW_MOD}
                    + {WINNOW_MOD}) % {WINNOW_MOD} AS BIGINT)
              * pwb.p) % {WINNOW_MOD} AS fp
      FROM ch
      JOIN pref pb ON pb.doc_id = ch.doc_id AND pb.i = ch.b - 1
      LEFT JOIN pref pa ON pa.doc_id = ch.doc_id AND pa.i = ch.a - 1
      JOIN pw pwb ON pwb.e = ch.b
    ), per AS (
      SELECT fp, len, COUNT(*) AS n FROM hx GROUP BY 1, 2
    )
    SELECT len % 8 AS sc,
           CAST(SUM(n) AS BIGINT) AS n_chunks,
           CAST(COUNT(*) AS BIGINT) AS n_distinct,
           CAST(SUM(n * len) AS BIGINT) AS bytes_total,
           CAST(SUM(len) AS BIGINT) AS bytes_distinct
    FROM per GROUP BY 1 ORDER BY 1"""


def _cheapest_hops_sql(hops: int = 4) -> str:
    """q237: ``hops`` unrolled min-plus relax CTEs — d_{{t+1}}(v) =
    min(d_t(v), min over edges (u,v) of d_t(u) + w), the SQL mirror of
    the engine's Bellman–Ford waves."""
    ctes = ["""e AS MATERIALIZED (
                SELECT l_partkey * 17 % 2000 AS u,
                       (l_suppkey * 131 + l_partkey) % 2000 AS v,
                       MIN(l_orderkey % 97 + 1) AS w
                FROM lineitem GROUP BY 1, 2),
            d0 AS (SELECT n, 0::BIGINT AS d
                   FROM (SELECT u AS n FROM e UNION SELECT v FROM e)
                   WHERE n IN (0, 7, 130))"""]
    for t in range(1, hops + 1):
        p, q = f"d{t - 1}", f"d{t}"
        ctes.append(f"""{q} AS MATERIALIZED (
                SELECT n, MIN(d) AS d FROM (
                    SELECT n, d FROM {p}
                    UNION ALL
                    SELECT e.v AS n, {p}.d + e.w AS d
                    FROM {p} JOIN e ON e.u = {p}.n)
                GROUP BY n)""")
    return ("WITH " + ",\n".join(ctes) + f"""
            SELECT n AS node, CAST(d AS BIGINT) AS cost
            FROM d{hops} ORDER BY 1""")


def _zhang_suen_sql(subiters: int = 16) -> str:
    """q243: Zhang–Suen thinning as ``subiters`` unrolled
    sub-iteration CTEs (phase alternates; 16 ≥ the measured 6-full-
    iteration fixpoint over every mask the fixture can produce).
    Out-of-grid neighbors are 0 via LEFT JOIN + COALESCE."""
    offs = {2: (0, -1), 3: (1, -1), 4: (1, 0), 5: (1, 1),
            6: (0, 1), 7: (-1, 1), 8: (-1, 0), 9: (-1, -1)}

    def nb(i):
        return f"COALESCE(p{i}.v, 0)"

    ring = [2, 3, 4, 5, 6, 7, 8, 9, 2]
    B = " + ".join(nb(i) for i in range(2, 10))
    A = " + ".join(f"(1 - {nb(ring[i])}) * {nb(ring[i + 1])}"
                   for i in range(8))
    conds = ["({p2} * {p4} * {p6}) = 0 AND ({p4} * {p6} * {p8}) = 0",
             "({p2} * {p4} * {p8}) = 0 AND ({p2} * {p6} * {p8}) = 0"]
    ctes = ["""ks AS (SELECT o_orderkey AS k FROM orders
                      WHERE o_orderkey % 239 = 0),
            m0 AS MATERIALIZED (
                SELECT ks.k, x.x, y.y,
                       CASE WHEN (x.x - (4 + ks.k % 6))
                                * (x.x - (4 + ks.k % 6))
                              + (y.y - (4 + (ks.k // 6) % 4))
                                * (y.y - (4 + (ks.k // 6) % 4))
                              <= 5 + ks.k % 9
                              OR (y.y >= 2 + ks.k % 7
                                  AND y.y <= 3 + ks.k % 7
                                  AND x.x BETWEEN 1 AND 12)
                            THEN 1 ELSE 0 END AS v
                FROM ks
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 13)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 11)) y)"""]
    for s in range(1, subiters + 1):
        cond = conds[(s - 1) % 2].format(
            p2=nb(2), p4=nb(4), p6=nb(6), p8=nb(8))
        joins = "\n".join(
            f"LEFT JOIN m{s - 1} p{i} ON p{i}.k = c.k "
            f"AND p{i}.x = c.x + {dx} AND p{i}.y = c.y + {dy}"
            for i, (dx, dy) in offs.items())
        ctes.append(f"""m{s} AS MATERIALIZED (
            SELECT c.k, c.x, c.y,
                   CASE WHEN c.v = 1
                             AND ({B}) BETWEEN 2 AND 6
                             AND ({A}) = 1
                             AND {cond}
                        THEN 0 ELSE c.v END AS v
            FROM m{s - 1} c
            {joins})""")
    return ("WITH " + ",\n".join(ctes) + f"""
        SELECT a.k AS o_orderkey, a.n_set, b.n_skel, b.pos_sum
        FROM (SELECT k, CAST(SUM(v) AS BIGINT) AS n_set
              FROM m0 GROUP BY k) a
        JOIN (SELECT k, CAST(SUM(v) AS BIGINT) AS n_skel,
                     CAST(COALESCE(SUM(CASE WHEN v = 1
                                       THEN x + 100 * y END), 0)
                          AS BIGINT) AS pos_sum
              FROM m{subiters} GROUP BY k) b ON b.k = a.k
        ORDER BY 1""")


def _watershed_sql(doublings: int = 7) -> str:
    """q219: D8 next-pointer table, then ``doublings`` unrolled
    pointer-doubling self-joins (2⁷ = 128 ≥ any path on the 12×10
    grid) — the SQL mirror of the engine's log-time gathers."""
    ctes = ["""ks AS (SELECT o_orderkey AS k FROM orders
                      WHERE o_orderkey % 211 = 0),
            dem AS MATERIALIZED (SELECT ks.k, x.x, y.y,
                           (ks.k * 13 + x.x * 5 + y.y * 3) % 47 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 11)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 9)) y),
            nb AS (SELECT d.k, d.y * 12 + d.x AS src,
                          n.y * 12 + n.x AS dst,
                          d.v - n.v AS drp, o.code
                   FROM dem d
                   CROSS JOIN (VALUES (0,1,0),(1,1,1),(2,0,1),(3,-1,1),
                                      (4,-1,0),(5,-1,-1),(6,0,-1),
                                      (7,1,-1)) o(code, dx, dy)
                   JOIN dem n ON n.k = d.k AND n.x = d.x + o.dx
                              AND n.y = d.y + o.dy
                   WHERE d.v - n.v > 0),
            e AS (SELECT k, src, dst FROM nb
                  QUALIFY ROW_NUMBER() OVER (PARTITION BY k, src
                      ORDER BY drp DESC, code) = 1),
            t0 AS (SELECT d.k, d.y * 12 + d.x AS src,
                          COALESCE(e.dst, d.y * 12 + d.x) AS dst
                   FROM dem d LEFT JOIN e ON e.k = d.k
                     AND e.src = d.y * 12 + d.x)"""]
    for i in range(1, doublings + 1):
        p = f"t{i - 1}"
        ctes.append(f"""t{i} AS (SELECT a.k, a.src, b.dst
                   FROM {p} a JOIN {p} b ON b.k = a.k
                     AND b.src = a.dst)""")
    return ("WITH " + ",\n".join(ctes) + f"""
            , b AS (SELECT k, dst, COUNT(*) AS sz
                    FROM t{doublings} GROUP BY 1, 2)
            SELECT k AS o_orderkey,
                   CAST(COUNT(*) AS BIGINT) AS n_basins,
                   CAST(MAX(sz) AS BIGINT) AS max_basin,
                   CAST(SUM(dst * sz) AS BIGINT) AS sink_sum
            FROM b GROUP BY 1 ORDER BY 1""")


# q119 golden-fixture path: resolved relative to this module at
# oracle-build time, so the oracle survives any checkout location
# (ADVICE r4 — was a hardcoded /root/repo path)
_H3_FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "tests", "data", "h3_golden_tpch.parquet")


def oracle_sql() -> dict[str, str]:
    foot = f"({_FOOT_SQL})"
    return {
        "q202_fill_depressions": _fill_waves_sql(),
        "q206_otsu": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 181 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 19 + x.x * 5 + y.y * 11) % 64 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            st AS (SELECT d.k, ts.t,
                          COUNT(*) FILTER (WHERE d.v <= ts.t) AS c0,
                          CAST(SUM(CASE WHEN d.v <= ts.t THEN d.v
                                        ELSE 0 END) AS BIGINT) AS s0,
                          CAST(SUM(d.v) AS BIGINT) AS s,
                          COUNT(*) AS n
                   FROM dem d
                   CROSS JOIN (SELECT generate_series AS t
                               FROM generate_series(0, 62)) ts
                   GROUP BY 1, 2),
            sc AS (SELECT k, t,
                          (s0 * n - s * c0) * (s0 * n - s * c0) AS num,
                          c0 * (n - c0) AS den
                   FROM st WHERE c0 * (n - c0) > 0)
            SELECT k AS o_orderkey, CAST(t AS BIGINT) AS otsu_t,
                   CAST(num AS BIGINT) AS bcv_num,
                   CAST(den AS BIGINT) AS bcv_den
            FROM sc a
            WHERE NOT EXISTS (SELECT 1 FROM sc b WHERE b.k = a.k
                AND (b.num * a.den > a.num * b.den
                     OR (b.num * a.den = a.num * b.den
                         AND b.t < a.t)))
            ORDER BY 1
        """,
        "q209_seam_carving": _seam_waves_sql(),
        "q208_glcm": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 191 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 23 + x.x * 7 + y.y * 13) % 64 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            pr AS (SELECT d.k, d.v AS a, r.v AS b
                   FROM dem d JOIN dem r ON r.k = d.k AND r.y = d.y
                                         AND r.x = d.x + 1),
            cm AS (SELECT k, a, b, COUNT(*) AS c FROM pr GROUP BY 1, 2, 3)
            SELECT k AS o_orderkey,
                   CAST(SUM(c * (a - b) * (a - b)) AS BIGINT) AS contrast,
                   CAST(SUM(c * c) AS BIGINT) AS energy,
                   CAST(MAX(c) AS BIGINT) AS glcm_max,
                   CAST(COUNT(*) AS BIGINT) AS glcm_distinct
            FROM cm GROUP BY 1 ORDER BY 1
        """,
        "q210_median_filter": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 193 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 31 + x.x * 5 + y.y * 7) % 64 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            med AS (SELECT d.k, d.x, d.y,
                           QUANTILE_DISC(n.v, 0.5) AS mv,
                           MIN(d.v) AS cv
                    FROM dem d
                    CROSS JOIN (VALUES (-1,-1),(0,-1),(1,-1),(-1,0),(0,0),
                                       (1,0),(-1,1),(0,1),(1,1)) o(dx, dy)
                    JOIN dem n ON n.k = d.k AND n.x = d.x + o.dx
                               AND n.y = d.y + o.dy
                    WHERE d.x BETWEEN 1 AND 14 AND d.y BETWEEN 1 AND 10
                    GROUP BY 1, 2, 3)
            SELECT k AS o_orderkey,
                   CAST(SUM(mv) AS BIGINT) AS med_sum,
                   CAST(MAX(mv) AS BIGINT) AS med_max,
                   CAST(COUNT(*) FILTER (WHERE mv <> cv) AS BIGINT)
                       AS n_changed
            FROM med GROUP BY 1 ORDER BY 1
        """,
        "q212_ssim": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 173 = 0),
            px AS (SELECT ks.k,
                          (ks.k * 7 + x.x * 5 + y.y * 9) % 32 AS a,
                          (ks.k * 3 + x.x * 11 + y.y * 2) % 32 AS b
                   FROM ks
                   CROSS JOIN (SELECT generate_series AS x
                               FROM generate_series(0, 15)) x
                   CROSS JOIN (SELECT generate_series AS y
                               FROM generate_series(0, 11)) y),
            s AS (SELECT k, COUNT(*) AS n,
                         CAST(SUM(a) AS BIGINT) AS sx,
                         CAST(SUM(b) AS BIGINT) AS sy,
                         CAST(SUM(a * a) AS BIGINT) AS sxx,
                         CAST(SUM(b * b) AS BIGINT) AS syy,
                         CAST(SUM(a * b) AS BIGINT) AS sxy
                  FROM px GROUP BY 1)
            SELECT k AS o_orderkey,
                   CAST((2 * sx * sy + n * n)
                        * (2 * (n * sxy - sx * sy) + 9 * n * n)
                        AS BIGINT) AS ssim_num,
                   CAST((sx * sx + sy * sy + n * n)
                        * (n * sxx - sx * sx + n * syy - sy * sy
                           + 9 * n * n) AS BIGINT) AS ssim_den
            FROM s ORDER BY 1
        """,
        "q213_hog": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 227 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 17 + x.x * 9 + y.y * 4) % 64 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            g AS (SELECT d.k, r.v - l.v AS gx, dn.v - up.v AS gy
                  FROM dem d
                  JOIN dem r  ON r.k = d.k AND r.y = d.y
                              AND r.x = d.x + 1
                  JOIN dem l  ON l.k = d.k AND l.y = d.y
                              AND l.x = d.x - 1
                  JOIN dem dn ON dn.k = d.k AND dn.x = d.x
                              AND dn.y = d.y + 1
                  JOIN dem up ON up.k = d.k AND up.x = d.x
                              AND up.y = d.y - 1
                  WHERE d.x BETWEEN 1 AND 14 AND d.y BETWEEN 1 AND 10),
            h AS (SELECT k,
                         4 * CASE WHEN gy < 0 THEN 1 ELSE 0 END
                         + 2 * CASE WHEN gx < 0 THEN 1 ELSE 0 END
                         + CASE WHEN ABS(gy) > ABS(gx) THEN 1 ELSE 0 END
                             AS octant,
                         gx, gy
                  FROM g WHERE gx <> 0 OR gy <> 0)
            SELECT k AS o_orderkey, CAST(octant AS BIGINT) AS octant,
                   CAST(COUNT(*) AS BIGINT) AS n_px,
                   CAST(SUM(ABS(gx) + ABS(gy)) AS BIGINT) AS wsum
            FROM h GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q214_strahler": _strahler_waves_sql(),
        "q215_frechet": _frechet_sql(),
        "q216_closest_pair": """
            WITH p AS (SELECT l_orderkey % 251 AS gid,
                              ROW_NUMBER() OVER () AS rid,
                              (l_partkey * 7) % 101 AS x,
                              (l_suppkey * 11) % 101 AS y
                       FROM lineitem),
            n AS (SELECT gid, COUNT(*) AS n_pts FROM p GROUP BY 1),
            d AS (SELECT a.gid,
                         MIN((a.x - b.x) * (a.x - b.x)
                             + (a.y - b.y) * (a.y - b.y)) AS d2
                  FROM p a JOIN p b ON b.gid = a.gid AND b.rid > a.rid
                  GROUP BY 1)
            SELECT d.gid, CAST(d.d2 AS BIGINT) AS d2_min,
                   CAST(n.n_pts AS BIGINT) AS n_pts
            FROM d JOIN n USING (gid) ORDER BY 1
        """,
        "q217_diameter": """
            WITH p AS (SELECT l_orderkey % 233 AS gid,
                              ROW_NUMBER() OVER () AS rid,
                              (l_partkey * 3) % 211 AS x,
                              (l_suppkey * 5) % 211 AS y
                       FROM lineitem),
            n AS (SELECT gid, COUNT(*) AS n_pts FROM p GROUP BY 1),
            d AS (SELECT a.gid,
                         (a.x - b.x) * (a.x - b.x)
                         + (a.y - b.y) * (a.y - b.y) AS d2
                  FROM p a JOIN p b ON b.gid = a.gid AND b.rid > a.rid),
            m AS (SELECT gid, MAX(d2) AS mx FROM d GROUP BY 1),
            c AS (SELECT d.gid, COUNT(*) AS c
                  FROM d JOIN m ON m.gid = d.gid AND d.d2 = m.mx
                  GROUP BY 1)
            SELECT m.gid, CAST(m.mx AS BIGINT) AS d2_max,
                   CAST(c.c AS BIGINT) AS n_pairs_max,
                   CAST(n.n_pts AS BIGINT) AS n_pts
            FROM m JOIN c USING (gid) JOIN n USING (gid) ORDER BY 1
        """,
        "q219_watershed": _watershed_sql(),
        "q222_tophat": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 223 = 0),
            dem AS MATERIALIZED (SELECT ks.k, x.x, y.y,
                           (ks.k * 9 + x.x * 5 + y.y * 2) % 50 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 12)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 10)) y),
            ero AS (SELECT d.k, d.x, d.y, MIN(n.v) AS e
                    FROM dem d JOIN dem n ON n.k = d.k
                     AND abs(n.x - d.x) <= 1 AND abs(n.y - d.y) <= 1
                    WHERE d.x BETWEEN 1 AND 11 AND d.y BETWEEN 1 AND 9
                    GROUP BY 1, 2, 3),
            opn AS (SELECT a.k, a.x, a.y, MAX(b.e) AS o
                    FROM ero a JOIN ero b ON b.k = a.k
                     AND abs(b.x - a.x) <= 1 AND abs(b.y - a.y) <= 1
                    WHERE a.x BETWEEN 2 AND 10 AND a.y BETWEEN 2 AND 8
                    GROUP BY 1, 2, 3),
            th AS (SELECT o.k, d.v - o.o AS t
                   FROM opn o JOIN dem d
                     ON d.k = o.k AND d.x = o.x AND d.y = o.y)
            SELECT k AS o_orderkey,
                   CAST(SUM(t) AS BIGINT) AS tophat_sum,
                   CAST(MAX(t) AS BIGINT) AS tophat_max,
                   CAST(COUNT(*) FILTER (WHERE t > 0) AS BIGINT) AS n_pos
            FROM th GROUP BY 1 ORDER BY 1
        """,
        "q223_histmatch": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 229 = 0),
            px AS MATERIALIZED (SELECT ks.k, x.x, y.y,
                          (ks.k * 7 + x.x * 3 + y.y * 5) % 32 AS va,
                          (ks.k * 11 + x.x * 2 + y.y * 9) % 32 AS vb
                   FROM ks
                   CROSS JOIN (SELECT generate_series AS x
                               FROM generate_series(0, 13)) x
                   CROSS JOIN (SELECT generate_series AS y
                               FROM generate_series(0, 8)) y),
            lv AS (SELECT generate_series AS v
                   FROM generate_series(0, 31)),
            ca AS (SELECT ks.k, lv.v, COUNT(p.x) AS cdf
                   FROM ks CROSS JOIN lv
                   LEFT JOIN px p ON p.k = ks.k AND p.va <= lv.v
                   GROUP BY 1, 2),
            cb AS (SELECT ks.k, lv.v AS w, COUNT(p.x) AS cdf
                   FROM ks CROSS JOIN lv
                   LEFT JOIN px p ON p.k = ks.k AND p.vb <= lv.v
                   GROUP BY 1, 2),
            mp AS (SELECT ca.k, ca.v, MIN(cb.w) AS m
                   FROM ca JOIN cb ON cb.k = ca.k AND cb.cdf >= ca.cdf
                   GROUP BY 1, 2),
            cnt AS (SELECT k, va AS v, COUNT(*) AS c FROM px
                    GROUP BY 1, 2)
            SELECT cnt.k AS o_orderkey,
                   CAST(SUM(cnt.c * mp.m) AS BIGINT) AS matched_sum,
                   CAST(MAX(mp.m) AS BIGINT) AS matched_max,
                   CAST(COALESCE(SUM(cnt.c) FILTER (WHERE mp.m <> cnt.v),
                                 0) AS BIGINT) AS n_changed
            FROM cnt JOIN mp ON mp.k = cnt.k AND mp.v = cnt.v
            GROUP BY 1 ORDER BY 1
        """,
        "q224_dtw": _dtw_sql(),
        "q226_segment_crossings": """
            WITH s AS (SELECT o_orderkey AS id,
                              (o_orderkey * 3) % 97 AS x1,
                              (o_orderkey * 7) % 97 AS y1,
                              (o_orderkey * 5 + 13) % 97 AS x2,
                              (o_orderkey * 11 + 29) % 97 AS y2
                       FROM orders WHERE o_orderkey % 7 = 0),
            a AS (SELECT * FROM s WHERE id % 2 = 0),
            b AS (SELECT * FROM s WHERE id % 2 = 1),
            p AS (SELECT a.id AS ai, b.id AS bi FROM a, b
                  WHERE ((a.x2 - a.x1) * (b.y1 - a.y1)
                         - (a.y2 - a.y1) * (b.x1 - a.x1))
                      * ((a.x2 - a.x1) * (b.y2 - a.y1)
                         - (a.y2 - a.y1) * (b.x2 - a.x1)) < 0
                    AND ((b.x2 - b.x1) * (a.y1 - b.y1)
                         - (b.y2 - b.y1) * (a.x1 - b.x1))
                      * ((b.x2 - b.x1) * (a.y2 - b.y1)
                         - (b.y2 - b.y1) * (a.x2 - b.x1)) < 0)
            SELECT ai % 13 AS gid,
                   CAST(COUNT(*) AS BIGINT) AS n_cross,
                   CAST(SUM(ai + 2 * bi) AS BIGINT) AS checksum
            FROM p GROUP BY 1 ORDER BY 1
        """,
        "q227_hotspot": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 233 = 0),
            dem AS MATERIALIZED (SELECT ks.k, x.x, y.y,
                           (ks.k * 8 + x.x * 3 + y.y * 5) % 43 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 11)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 8)) y),
            loc AS (SELECT d.k, d.x, d.y, SUM(n.v) AS l9
                    FROM dem d JOIN dem n ON n.k = d.k
                     AND abs(n.x - d.x) <= 1 AND abs(n.y - d.y) <= 1
                    WHERE d.x BETWEEN 1 AND 10 AND d.y BETWEEN 1 AND 7
                    GROUP BY 1, 2, 3),
            tot AS (SELECT k, SUM(v) AS t FROM dem GROUP BY 1)
            SELECT loc.k AS o_orderkey,
                   CAST(COUNT(*) FILTER (WHERE 4 * 108 * l9 > 5 * 9 * tot.t)
                        AS BIGINT) AS n_hot,
                   CAST(MAX(l9) AS BIGINT) AS max_local,
                   CAST(SUM(l9) AS BIGINT) AS local_sum
            FROM loc JOIN tot ON tot.k = loc.k
            GROUP BY 1 ORDER BY 1
        """,
        "q228_hilbert": """
            WITH RECURSIVE h AS (
                SELECT l_orderkey % 101 AS gid,
                       CAST(l_partkey % 1024 AS BIGINT) AS x,
                       CAST(l_suppkey % 1024 AS BIGINT) AS y,
                       CAST(0 AS BIGINT) AS d, 9 AS i
                FROM lineitem
                UNION ALL
                SELECT gid,
                       CASE WHEN (y >> i) & 1 = 1
                              THEN x & ((1 << i) - 1)
                            WHEN (x >> i) & 1 = 0
                              THEN y & ((1 << i) - 1)
                            ELSE (1 << i) - 1 - (y & ((1 << i) - 1))
                       END AS x,
                       CASE WHEN (y >> i) & 1 = 1
                              THEN y & ((1 << i) - 1)
                            WHEN (x >> i) & 1 = 0
                              THEN x & ((1 << i) - 1)
                            ELSE (1 << i) - 1 - (x & ((1 << i) - 1))
                       END AS y,
                       d + (CAST(1 AS BIGINT) << (2 * i)) *
                           (CASE WHEN (x >> i) & 1 = 0
                                  AND (y >> i) & 1 = 0 THEN 0
                                 WHEN (x >> i) & 1 = 0 THEN 1
                                 WHEN (y >> i) & 1 = 1 THEN 2
                                 ELSE 3 END) AS d,
                       i - 1 AS i
                FROM h WHERE i >= 0)
            SELECT gid, CAST(SUM(d) AS BIGINT) AS hilbert_sum,
                   CAST(MAX(d) AS BIGINT) AS max_d,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM h WHERE i = -1 GROUP BY 1 ORDER BY 1
        """,
        "q229_edge_nms": _edge_nms_sql(),
        "q230_rlsa": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 251 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 10 + x.x * 7 + y.y * 3) % 37 < 12 AS m
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 13)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 8)) y),
            w AS (SELECT k, x, y, m,
                         MAX(CASE WHEN m THEN x END) OVER (
                             PARTITION BY k, y ORDER BY x
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND CURRENT ROW) AS lft,
                         MIN(CASE WHEN m THEN x END) OVER (
                             PARTITION BY k, y ORDER BY x
                             ROWS BETWEEN CURRENT ROW
                                      AND UNBOUNDED FOLLOWING) AS rgt
                  FROM dem),
            s AS (SELECT k, x, y, m,
                         m OR (lft IS NOT NULL AND rgt IS NOT NULL
                               AND rgt - lft - 1 <= 2) AS sm
                  FROM w),
            r AS (SELECT k, m, sm,
                         LAG(sm, 1, FALSE) OVER (
                             PARTITION BY k, y ORDER BY x) AS prev
                  FROM s)
            SELECT k AS o_orderkey,
                   CAST(COUNT(*) FILTER (WHERE m) AS BIGINT) AS n_set,
                   CAST(COUNT(*) FILTER (WHERE sm AND NOT m)
                        AS BIGINT) AS n_filled,
                   CAST(COUNT(*) FILTER (WHERE sm AND NOT prev)
                        AS BIGINT) AS n_runs
            FROM r GROUP BY 1 ORDER BY 1
        """,
        "q231_lcss": _lcss_sql(),
        "q233_mann_kendall": """
            WITH b AS (SELECT user_id, event_id,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v
                       FROM events),
            cnt AS (SELECT user_id, COUNT(*) AS n FROM b GROUP BY 1),
            s AS (SELECT a.user_id, SUM(SIGN(x2.v - a.v)) AS s
                  FROM b a JOIN b x2 ON x2.user_id = a.user_id
                                    AND x2.event_id > a.event_id
                  GROUP BY 1)
            SELECT cnt.user_id,
                   CAST(COALESCE(s.s, 0) AS BIGINT) AS s_stat,
                   CAST(cnt.n AS BIGINT) AS n_events
            FROM cnt LEFT JOIN s ON s.user_id = cnt.user_id
            ORDER BY 1
        """,
        "q235_interval_union": """
            WITH iv AS (
                SELECT user_id AS u, epoch_us(ts) AS s,
                       epoch_us(ts) + (user_id % 5 + 1) * 60000000 AS e
                FROM events),
            c AS (
                SELECT u, s, e,
                       MAX(e) OVER (PARTITION BY u ORDER BY s, e
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS pm
                FROM iv),
            st AS (
                SELECT u, s, e,
                       CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END
                           AS st
                FROM c),
            isl AS (
                SELECT u, s, e,
                       SUM(st) OVER (PARTITION BY u ORDER BY s, e
                                     ROWS UNBOUNDED PRECEDING) AS iid
                FROM st),
            agg AS (SELECT u, iid, MIN(s) AS a, MAX(e) AS b
                    FROM isl GROUP BY 1, 2)
            SELECT u AS user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_islands,
                   CAST(SUM(b - a) AS BIGINT) AS covered,
                   CAST(MAX(b - a) AS BIGINT) AS max_island
            FROM agg GROUP BY 1 ORDER BY 1
        """,
        "q236_forest_rank": """
            WITH RECURSIVE n AS (
                SELECT c_custkey AS node,
                       c_custkey // (c_custkey % 7 + 2) AS parent
                FROM customer),
            r AS (
                SELECT node, node AS root, 0 AS depth
                FROM n WHERE parent <= 0
                UNION ALL
                SELECT n.node, r.root, r.depth + 1
                FROM n JOIN r ON n.parent = r.node AND n.parent > 0)
            SELECT node, CAST(root AS BIGINT) AS root,
                   CAST(depth AS BIGINT) AS depth
            FROM r ORDER BY 1
        """,
        "q237_cheapest_hops": _cheapest_hops_sql(),
        "q238_cdc_chunks": _cdc_sql(),
        "q239_hysteresis": _hysteresis_sql(),
        "q281_bm25": """
            WITH tok AS (SELECT doc_id,
                                unnest(string_split(text, ' ')) AS term
                         FROM documents),
            dln AS (SELECT doc_id,
                           len(string_split(text, ' ')) AS dl
                    FROM documents),
            c AS (SELECT (SELECT COUNT(*) FROM documents) AS n,
                         (SELECT SUM(dl) FROM dln) AS a),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
                   FROM tok WHERE term IN ('hash', 'merge', 'window')
                   GROUP BY 1, 2),
            df AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df
                   FROM tf GROUP BY 1),
            sc AS (SELECT tf.doc_id, dln.dl,
                          CAST(FLOOR(1000000.0
                               * (22 * tf.tf * c.a
                                  * (2 * c.n - 2 * df.df + 1))
                               / ((10 * c.a * tf.tf + 3 * c.a
                                   + 9 * dln.dl * c.n)
                                  * (2 * df.df + 1)) + 0.5)
                               AS BIGINT) AS s
                   FROM tf JOIN df USING (term)
                           JOIN dln USING (doc_id) CROSS JOIN c)
            SELECT doc_id, CAST(MAX(dl) AS BIGINT) AS dl,
                   CAST(SUM(s) AS BIGINT) AS score_ppm
            FROM sc GROUP BY 1
            ORDER BY score_ppm DESC, doc_id LIMIT 25
        """,
        "q282_link_pred": """
            WITH e0 AS (SELECT DISTINCT l_partkey * 17 % 2000 AS u,
                               (l_suppkey * 131 + l_partkey) % 2000 AS v
                        FROM lineitem),
            e AS (SELECT LEAST(u, v) AS a, GREATEST(u, v) AS b
                  FROM e0 WHERE u <> v GROUP BY 1, 2),
            s AS (SELECT a AS node, b AS nbr FROM e
                  UNION ALL SELECT b, a FROM e),
            deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS d
                    FROM s GROUP BY 1),
            w AS (SELECT s1.nbr AS a, s2.nbr AS b
                  FROM s s1 JOIN s s2 ON s1.node = s2.node
                                     AND s1.nbr < s2.nbr),
            cn AS (SELECT a, b, CAST(COUNT(*) AS BIGINT) AS cn
                   FROM w GROUP BY 1, 2),
            ne AS (SELECT cn.* FROM cn
                   WHERE NOT EXISTS (SELECT 1 FROM e
                                     WHERE e.a = cn.a AND e.b = cn.b))
            SELECT ne.a, ne.b, ne.cn, da.d AS deg_a, db.d AS deg_b,
                   CAST(da.d + db.d - ne.cn AS BIGINT) AS jac_den
            FROM ne JOIN deg da ON da.node = ne.a
                    JOIN deg db ON db.node = ne.b
            ORDER BY ne.cn DESC, ne.a, ne.b LIMIT 25
        """,
        "q283_bool_and": """
            WITH tok AS (SELECT doc_id,
                                unnest(string_split(text, ' ')) AS term
                         FROM documents)
            SELECT d.doc_id, d.n_chars FROM documents d
            WHERE (SELECT COUNT(DISTINCT term) FROM tok
                   WHERE tok.doc_id = d.doc_id
                     AND term IN ('hash', 'merge', 'window', 'scan')) = 4
            ORDER BY d.doc_id
        """,
        "q284_k_anonymity": """
            WITH g AS (SELECT c_nationkey, c_mktsegment,
                              CAST(FLOOR(c_acctbal / 100.0) AS BIGINT) AS ab,
                              COUNT(*) AS c
                       FROM customer GROUP BY 1, 2, 3)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_groups,
                   CAST(SUM(c) AS BIGINT) AS n_rows,
                   CAST(SUM(CASE WHEN c < 5 THEN 1 ELSE 0 END)
                        AS BIGINT) AS risky_groups,
                   CAST(SUM(CASE WHEN c < 5 THEN c ELSE 0 END)
                        AS BIGINT) AS risky_rows,
                   CAST(MIN(c) AS BIGINT) AS min_size,
                   CAST(MAX(c) AS BIGINT) AS max_size
            FROM g
        """,
        "q285_linkage": """
            WITH c AS (SELECT c_custkey, c_nationkey, c_mktsegment,
                              CAST(ROUND(c_acctbal * 100.0) AS BIGINT)
                                  AS cents
                       FROM customer),
            p AS (SELECT a.c_custkey AS id_a, b.c_custkey AS id_b,
                         CAST((CASE WHEN a.c_mktsegment = b.c_mktsegment
                                    THEN 4 ELSE 0 END)
                              + (CASE WHEN ABS(a.cents - b.cents) <= 10000
                                      THEN 2 ELSE 0 END)
                              + (CASE WHEN (a.cents >= 0) = (b.cents >= 0)
                                      THEN 1 ELSE 0 END) AS BIGINT)
                             AS score
                  FROM c a JOIN c b ON a.c_nationkey = b.c_nationkey
                                   AND a.c_custkey < b.c_custkey)
            SELECT id_a, id_b, score FROM p WHERE score >= 6
            ORDER BY id_a, id_b
        """,
        "q286_lttb": """
            WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS us,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS y
                       FROM events),
            m AS (SELECT user_id, MIN(us) AS mn, COUNT(*) AS n
                  FROM e GROUP BY 1),
            r AS (SELECT e.user_id, e.y, m.n,
                         (e.us - m.mn) // 60000000 AS x,
                         (ROW_NUMBER() OVER (PARTITION BY e.user_id
                             ORDER BY e.us, e.event_id) - 1) AS rk
                  FROM e JOIN m USING (user_id) WHERE m.n >= 6),
            rb AS (SELECT *, rk * 6 // n AS bucket FROM r),
            b AS (SELECT user_id, bucket, COUNT(*) AS nb,
                         SUM(x) AS sx, SUM(y) AS sy
                  FROM rb GROUP BY 1, 2),
            mid AS (SELECT rb.user_id, rb.bucket, rb.x, rb.y, rb.rk,
                           ABS((p.sx * c.nb - c.sx * p.nb)
                               * (p.nb * rb.y - p.sy)
                               - (p.sx - p.nb * rb.x)
                               * (p.sy * c.nb - c.sy * p.nb)) AS a
                    FROM rb
                    JOIN b p ON p.user_id = rb.user_id
                            AND p.bucket = rb.bucket - 1
                    JOIN b c ON c.user_id = rb.user_id
                            AND c.bucket = rb.bucket + 1
                    WHERE rb.bucket BETWEEN 1 AND 4),
            pick AS (SELECT user_id, bucket, x, y,
                            ROW_NUMBER() OVER (PARTITION BY user_id,
                                bucket ORDER BY a DESC, rk) AS rn
                     FROM mid)
            SELECT user_id, CAST(bucket AS BIGINT) AS bucket,
                   CAST(x AS BIGINT) AS x_min, y AS y_cents
            FROM rb WHERE (bucket = 0 AND rk = 0)
                       OR (bucket = 5 AND rk = n - 1)
            UNION ALL
            SELECT user_id, CAST(bucket AS BIGINT), CAST(x AS BIGINT), y
            FROM pick WHERE rn = 1
            ORDER BY user_id, bucket
        """,
        "q287_priority_sample": """
            WITH w AS (SELECT o_orderkey,
                              CAST(ROUND(o_totalprice * 100.0) AS BIGINT)
                                  AS w_cents,
                              (o_orderkey * 2654435761) % 1048576 + 1 AS u
                       FROM orders)
            SELECT o_orderkey, w_cents,
                   CAST(w_cents AS DOUBLE) / u AS priority
            FROM w ORDER BY priority DESC, o_orderkey LIMIT 200
        """,
        "q288_pq_assign": """
            WITH t AS (SELECT vec_id, unnest(embedding) AS xx,
                              unnest(generate_series(0,
                                  len(embedding) - 1)) AS i
                       FROM embeddings),
            q AS (SELECT vec_id, i, i // 16 AS sub,
                         CAST(FLOOR(xx * 1000.0 + 0.5) AS BIGINT) AS v
                  FROM t),
            cb AS (SELECT vec_id AS code, sub, i, v FROM q
                   WHERE vec_id < 16),
            d AS (SELECT a.vec_id, a.sub, c.code,
                         CAST(SUM((a.v - c.v) * (a.v - c.v)) AS BIGINT)
                             AS sq
                  FROM q a JOIN cb c ON c.i = a.i GROUP BY 1, 2, 3),
            best AS (SELECT vec_id, sub, code, sq,
                            ROW_NUMBER() OVER (PARTITION BY vec_id, sub
                                ORDER BY sq, code) AS rn
                     FROM d)
            SELECT vec_id,
                   CAST(MAX(CASE WHEN sub = 0 THEN code END) AS BIGINT) AS c0,
                   CAST(MAX(CASE WHEN sub = 1 THEN code END) AS BIGINT) AS c1,
                   CAST(MAX(CASE WHEN sub = 2 THEN code END) AS BIGINT) AS c2,
                   CAST(MAX(CASE WHEN sub = 3 THEN code END) AS BIGINT) AS c3,
                   CAST(SUM(sq) AS BIGINT) AS err
            FROM best WHERE rn = 1 GROUP BY 1 ORDER BY 1
        """,
        "q289_compact_cells": """
            WITH l4 AS (SELECT DISTINCT (l_partkey * 31 + l_suppkey * 7
                               + l_orderkey) % 9604 AS c
                        FROM lineitem),
            p3 AS (SELECT c // 7 AS c FROM l4 GROUP BY 1
                   HAVING COUNT(*) = 7),
            k4 AS (SELECT c FROM l4
                   WHERE c // 7 NOT IN (SELECT c FROM p3)),
            p2 AS (SELECT c // 7 AS c FROM p3 GROUP BY 1
                   HAVING COUNT(*) = 7),
            k3 AS (SELECT c FROM p3
                   WHERE c // 7 NOT IN (SELECT c FROM p2)),
            p1 AS (SELECT c // 7 AS c FROM p2 GROUP BY 1
                   HAVING COUNT(*) = 7),
            k2 AS (SELECT c FROM p2
                   WHERE c // 7 NOT IN (SELECT c FROM p1)),
            p0 AS (SELECT c // 7 AS c FROM p1 GROUP BY 1
                   HAVING COUNT(*) = 7),
            k1 AS (SELECT c FROM p1
                   WHERE c // 7 NOT IN (SELECT c FROM p0))
            SELECT CAST(4 AS BIGINT) AS res, c AS cell FROM k4
            UNION ALL SELECT 3, c FROM k3
            UNION ALL SELECT 2, c FROM k2
            UNION ALL SELECT 1, c FROM k1
            UNION ALL SELECT 0, c FROM p0
            ORDER BY 1, 2
        """,
        "q290_lead_lag": """
            WITH s AS (SELECT user_id, event_type,
                              epoch_us(ts) // 3600000000 AS t
                       FROM events
                       WHERE event_type IN ('click', 'view')),
            ca AS (SELECT user_id, t, CAST(COUNT(*) AS BIGINT) AS c
                   FROM s WHERE event_type = 'click' GROUP BY 1, 2),
            cb AS (SELECT user_id, t, CAST(COUNT(*) AS BIGINT) AS c
                   FROM s WHERE event_type = 'view' GROUP BY 1, 2),
            lg AS (SELECT generate_series AS lag
                   FROM generate_series(-3, 3)),
            corr AS (SELECT ca.user_id, lg.lag,
                            CAST(SUM(ca.c * cb.c) AS BIGINT) AS corr
                     FROM ca JOIN lg ON TRUE
                             JOIN cb ON cb.user_id = ca.user_id
                                    AND cb.t = ca.t + lg.lag
                     GROUP BY 1, 2),
            best AS (SELECT user_id, lag, corr,
                            ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY corr DESC, lag) AS rn
                     FROM corr)
            SELECT user_id, CAST(lag AS BIGINT) AS best_lag,
                   corr AS best_corr
            FROM best WHERE rn = 1 AND corr > 0 ORDER BY user_id
        """,
        "q291_zone_adjacency": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 211 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           ((ks.k * 37 + x.x * 3 + y.y * 5) % 48) // 8 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            pr AS (SELECT d.k, LEAST(d.v, r.v) AS za,
                          GREATEST(d.v, r.v) AS zb
                   FROM dem d JOIN dem r ON r.k = d.k AND r.y = d.y
                                        AND r.x = d.x + 1
                   WHERE d.v <> r.v
                   UNION ALL
                   SELECT d.k, LEAST(d.v, r.v), GREATEST(d.v, r.v)
                   FROM dem d JOIN dem r ON r.k = d.k AND r.x = d.x
                                        AND r.y = d.y + 1
                   WHERE d.v <> r.v)
            SELECT k AS o_orderkey, CAST(za AS BIGINT) AS za,
                   CAST(zb AS BIGINT) AS zb,
                   CAST(COUNT(*) AS BIGINT) AS boundary_px
            FROM pr GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
        "q292_euler": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 223 = 0),
            px AS (SELECT ks.k, x.x, y.y,
                          CASE WHEN (ks.k * 41 + x.x * 7 + y.y * 3)
                                    % 256 >= 128
                               THEN 1 ELSE 0 END AS fg
                   FROM ks
                   CROSS JOIN (SELECT generate_series AS x
                               FROM generate_series(0, 15)) x
                   CROSS JOIN (SELECT generate_series AS y
                               FROM generate_series(0, 11)) y),
            qd AS (SELECT ks.k,
                          COALESCE(tl.fg, 0) AS tl, COALESCE(tr.fg, 0) AS tr,
                          COALESCE(bl.fg, 0) AS bl, COALESCE(br.fg, 0) AS br
                   FROM ks
                   CROSS JOIN (SELECT generate_series AS x
                               FROM generate_series(-1, 15)) qx
                   CROSS JOIN (SELECT generate_series AS y
                               FROM generate_series(-1, 11)) qy
                   LEFT JOIN px tl ON tl.k = ks.k AND tl.x = qx.x
                                  AND tl.y = qy.y
                   LEFT JOIN px tr ON tr.k = ks.k AND tr.x = qx.x + 1
                                  AND tr.y = qy.y
                   LEFT JOIN px bl ON bl.k = ks.k AND bl.x = qx.x
                                  AND bl.y = qy.y + 1
                   LEFT JOIN px br ON br.k = ks.k AND br.x = qx.x + 1
                                  AND br.y = qy.y + 1),
            agg AS (SELECT k,
                           CAST(SUM(CASE WHEN tl + tr + bl + br = 1
                                    THEN 1 ELSE 0 END) AS BIGINT) AS q1,
                           CAST(SUM(CASE WHEN tl + tr + bl + br = 3
                                    THEN 1 ELSE 0 END) AS BIGINT) AS q3,
                           CAST(SUM(CASE WHEN tl + tr + bl + br = 2
                                         AND tl = br AND tl <> tr
                                    THEN 1 ELSE 0 END) AS BIGINT) AS qd
                    FROM qd GROUP BY 1)
            SELECT k AS o_orderkey, q1, q3, qd,
                   CAST((q1 - q3 + 2 * qd) // 4 AS BIGINT) AS euler4,
                   CAST((q1 - q3 - 2 * qd) // 4 AS BIGINT) AS euler8
            FROM agg ORDER BY 1
        """,
        "q293_hist_pairs": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 227 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 43 + x.x * 9 + y.y * 7) % 256 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            h AS (SELECT k, v // 16 AS bin,
                         CAST(COUNT(*) AS BIGINT) AS c
                  FROM dem GROUP BY 1, 2),
            dm AS (SELECT k, bin AS dom FROM
                       (SELECT k, bin, ROW_NUMBER() OVER (PARTITION BY k
                            ORDER BY c DESC, bin) AS rn FROM h)
                   WHERE rn = 1),
            pr AS (SELECT da.k AS id_a, db.k AS id_b, da.dom
                   FROM dm da JOIN dm db ON db.dom = da.dom
                                        AND da.k < db.k)
            SELECT pr.id_a, pr.id_b, CAST(pr.dom AS BIGINT) AS dom,
                   CAST(SUM(LEAST(ha.c, hb.c)) AS BIGINT) AS sim
            FROM pr JOIN h ha ON ha.k = pr.id_a
                    JOIN h hb ON hb.k = pr.id_b AND hb.bin = ha.bin
            GROUP BY 1, 2, 3 ORDER BY 1, 2
        """,
        "q294_latency_hist": """
            WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS us
                       FROM events),
            d AS (SELECT us - LAG(us) OVER (PARTITION BY user_id
                      ORDER BY us, event_id) AS d FROM e)
            SELECT CAST(CASE WHEN d = 0 THEN 0
                             ELSE length(bin(d)) END AS BIGINT) AS bucket,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM d WHERE d IS NOT NULL GROUP BY 1 ORDER BY 1
        """,
        "q295_zonemap": """
            WITH w AS (SELECT o_orderkey // 512 AS blk,
                              CAST(ROUND(o_totalprice * 100.0) AS BIGINT)
                                  AS cents
                       FROM orders),
            b AS (SELECT blk, COUNT(*) AS n, MAX(cents) AS mx
                  FROM w GROUP BY 1)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_blocks,
                   CAST(SUM(n) AS BIGINT) AS n_rows,
                   CAST(SUM(CASE WHEN mx < 40000000 THEN 1 ELSE 0 END)
                        AS BIGINT) AS skip_blocks,
                   CAST(SUM(CASE WHEN mx < 40000000 THEN n ELSE 0 END)
                        AS BIGINT) AS skip_rows,
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM w
                    WHERE cents >= 40000000) AS match_rows
            FROM b
        """,
        "q296_covariance": """
            WITH f AS (SELECT CAST(l_quantity AS BIGINT) AS x,
                              l_partkey % 1000 AS y,
                              CAST(ROUND(l_discount * 100.0) AS BIGINT)
                                  AS z
                       FROM lineitem),
            s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(x) AS BIGINT) AS sx,
                         CAST(SUM(y) AS BIGINT) AS sy,
                         CAST(SUM(z) AS BIGINT) AS sz,
                         CAST(SUM(x * y) AS BIGINT) AS sxy,
                         CAST(SUM(x * z) AS BIGINT) AS sxz,
                         CAST(SUM(y * z) AS BIGINT) AS syz
                  FROM f)
            SELECT n, sx, sy, sz,
                   CAST(n * sxy - sx * sy AS BIGINT) AS cxy,
                   CAST(n * sxz - sx * sz AS BIGINT) AS cxz,
                   CAST(n * syz - sy * sz AS BIGINT) AS cyz
            FROM s
        """,
        "q297_sat_rects": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 229 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 47 + x.x * 11 + y.y * 9) % 256 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            qs AS (SELECT ks.k, j.j,
                          (3 * ks.k + 5 * j.j) % 10 AS x1,
                          (7 * ks.k + 3 * j.j) % 8 AS y1
                   FROM ks CROSS JOIN (SELECT generate_series AS j
                                       FROM generate_series(0, 4)) j)
            SELECT qs.k AS o_orderkey, CAST(qs.j AS BIGINT) AS j,
                   CAST(SUM(d.v) AS BIGINT) AS rect_sum
            FROM qs JOIN dem d ON d.k = qs.k
                 AND d.x BETWEEN qs.x1 AND qs.x1 + 2 + (qs.j % 3)
                 AND d.y BETWEEN qs.y1 AND qs.y1 + 1 + (qs.j % 2)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q298_late_events": """
            WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS us,
                              epoch_us(ts) + ((event_id * 2654435761)
                                  % 14400) * CAST(1000000 AS BIGINT)
                                  AS arr
                       FROM events),
            r AS (SELECT user_id, us,
                         MAX(us) OVER (PARTITION BY user_id
                             ORDER BY arr, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND 1 PRECEDING) AS wm
                  FROM e),
            l AS (SELECT user_id, wm - us AS late FROM r
                  WHERE wm - us > 3600000000)
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_late,
                   CAST(MAX(late) AS BIGINT) AS max_late_us
            FROM l GROUP BY 1 ORDER BY 1
        """,
        "q299_compass": """
            WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS us,
                              (event_id * 48271) % 1024 AS x,
                              (event_id * 69621) % 1024 AS y
                       FROM events),
            d AS (SELECT x - LAG(x) OVER w AS dx,
                         y - LAG(y) OVER w AS dy
                  FROM e WINDOW w AS (PARTITION BY user_id
                                      ORDER BY us, event_id)),
            s AS (SELECT CASE WHEN dx = 0 AND dy = 0 THEN 8
                              WHEN dy > -dx AND dy <= dx THEN 0
                              WHEN dx >= -dy AND dx < dy THEN 2
                              WHEN dy >= dx AND dy < -dx THEN 4
                              ELSE 6 END AS sector
                  FROM d WHERE dx IS NOT NULL)
            SELECT CAST(sector AS BIGINT) AS sector,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM s GROUP BY 1 ORDER BY 1
        """,
        "q300_join_estimate": """
            WITH a AS (SELECT (((l_orderkey * 8 + l_linenumber)
                               * 2654435761) % 1048576) // 16384 AS cx,
                              (((l_orderkey * 8 + l_linenumber)
                               * 976369) % 1048576) // 16384 AS cy
                       FROM lineitem),
            b AS (SELECT ((o_orderkey * 2654435761) % 1048576) // 16384
                             AS cx,
                         ((o_orderkey * 976369) % 1048576) // 16384
                             AS cy
                  FROM orders),
            ha AS (SELECT cx, cy, CAST(COUNT(*) AS BIGINT) AS n
                   FROM a GROUP BY 1, 2),
            hb AS (SELECT cx, cy, CAST(COUNT(*) AS BIGINT) AS n
                   FROM b GROUP BY 1, 2),
            ca AS (SELECT cx // 8 AS cx, cy // 8 AS cy,
                          CAST(SUM(n) AS BIGINT) AS n
                   FROM ha GROUP BY 1, 2),
            cb AS (SELECT cx // 8 AS cx, cy // 8 AS cy,
                          CAST(SUM(n) AS BIGINT) AS n
                   FROM hb GROUP BY 1, 2)
            SELECT (SELECT CAST(SUM(ha.n * hb.n) AS BIGINT) FROM ha
                    JOIN hb ON hb.cx = ha.cx AND hb.cy = ha.cy)
                       AS exact_pairs,
                   (SELECT CAST(SUM(ca.n * cb.n) AS BIGINT) FROM ca
                    JOIN cb ON cb.cx = ca.cx AND cb.cy = ca.cy)
                       AS coarse_estimate
        """,
        "q301_census": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 233 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 53 + x.x * 13 + y.y * 11) % 64 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            offs(w, dx, dy) AS (VALUES (1, 1, 0), (2, 1, 1), (4, 0, 1),
                                       (8, -1, 1), (16, -1, 0),
                                       (32, -1, -1), (64, 0, -1),
                                       (128, 1, -1)),
            codes AS (SELECT d.k, d.x, d.y,
                             CAST(SUM(CASE WHEN nb.v > d.v THEN o.w
                                      ELSE 0 END) AS BIGINT) AS code
                      FROM dem d JOIN offs o ON TRUE
                      JOIN dem nb ON nb.k = d.k AND nb.x = d.x + o.dx
                                 AND nb.y = d.y + o.dy
                      WHERE d.x BETWEEN 1 AND 14
                        AND d.y BETWEEN 1 AND 10
                      GROUP BY 1, 2, 3)
            SELECT k AS o_orderkey,
                   CAST(COUNT(DISTINCT code) AS BIGINT) AS n_codes,
                   CAST(SUM(code) AS BIGINT) AS code_sum,
                   CAST(MAX(code) AS BIGINT) AS max_code
            FROM codes GROUP BY 1 ORDER BY 1
        """,
        "q302_top_paths": """
            WITH e AS (SELECT user_id, event_id, event_type,
                              epoch_us(ts) AS us FROM events),
            w AS (SELECT event_type AS a,
                         LEAD(event_type, 1) OVER win AS b,
                         LEAD(event_type, 2) OVER win AS c
                  FROM e WINDOW win AS (PARTITION BY user_id
                                        ORDER BY us, event_id)),
            p AS (SELECT a || '>' || b || '>' || c AS path FROM w
                  WHERE c IS NOT NULL)
            SELECT path, CAST(COUNT(*) AS BIGINT) AS n
            FROM p GROUP BY 1 ORDER BY n DESC, path LIMIT 10
        """,
        "q303_fk_audit": """
            WITH par AS (SELECT p_partkey FROM part
                         WHERE p_partkey % 7 <> 0),
            ch AS (SELECT l_partkey,
                          CASE WHEN EXISTS (SELECT 1 FROM par
                                            WHERE p_partkey = l_partkey)
                               THEN 1 ELSE 0 END AS ok
                   FROM lineitem)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(SUM(1 - ok) AS BIGINT) AS n_orphan_rows,
                   CAST(COUNT(DISTINCT CASE WHEN ok = 0
                              THEN l_partkey END) AS BIGINT)
                       AS n_orphan_keys,
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM par)
                       AS n_parents,
                   CAST(COUNT(DISTINCT CASE WHEN ok = 1
                              THEN l_partkey END) AS BIGINT)
                       AS n_parents_referenced
            FROM ch
        """,
        "q304_triangle_threshold": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 239 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 59 + x.x * x.x * 17
                            + y.y * y.y * 13) % 64 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            h AS (SELECT k, b.b AS bin,
                         CAST(COUNT(*) FILTER (WHERE v = b.b)
                              AS BIGINT) AS c
                  FROM dem CROSS JOIN (SELECT generate_series AS b
                                       FROM generate_series(0, 63)) b
                  GROUP BY 1, 2),
            pk AS (SELECT k, bin AS p, c AS hp FROM
                       (SELECT k, bin, c, ROW_NUMBER() OVER
                            (PARTITION BY k ORDER BY c DESC, bin) rn
                        FROM h) WHERE rn = 1),
            lst AS (SELECT k, MAX(bin) AS e FROM h WHERE c > 0
                    GROUP BY 1),
            sc AS (SELECT h.k, h.bin AS t,
                          ABS((lst.e - pk.p) * (h.c - pk.hp)
                              - (h.bin - pk.p) * (he.c - pk.hp))
                              AS cr
                   FROM h JOIN pk ON pk.k = h.k
                          JOIN lst ON lst.k = h.k
                          JOIN h he ON he.k = h.k AND he.bin = lst.e
                   WHERE h.bin BETWEEN pk.p AND lst.e)
            SELECT sc.k AS o_orderkey, pk.p AS peak,
                   CAST(lst.e AS BIGINT) AS last,
                   CAST(sc.t AS BIGINT) AS thr,
                   CAST(sc.cr AS BIGINT) AS cross_abs
            FROM sc JOIN pk ON pk.k = sc.k JOIN lst ON lst.k = sc.k
            WHERE NOT EXISTS (SELECT 1 FROM sc s2 WHERE s2.k = sc.k
                AND (s2.cr > sc.cr
                     OR (s2.cr = sc.cr AND s2.t < sc.t)))
            ORDER BY 1
        """,
        "q305_assortativity": """
            WITH e0 AS (SELECT DISTINCT l_partkey * 17 % 2000 AS u,
                               (l_suppkey * 131 + l_partkey) % 2000 AS v
                        FROM lineitem),
            e AS (SELECT LEAST(u, v) AS a, GREATEST(u, v) AS b
                  FROM e0 WHERE u <> v GROUP BY 1, 2),
            s AS (SELECT a AS node, b AS nbr FROM e
                  UNION ALL SELECT b, a FROM e),
            deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS d
                    FROM s GROUP BY 1),
            x AS (SELECT du.d AS xu, dv.d AS xv
                  FROM s JOIN deg du ON du.node = s.node
                         JOIN deg dv ON dv.node = s.nbr),
            agg AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
                           CAST(SUM(xu) AS BIGINT) AS sx,
                           CAST(SUM(xu * xu) AS BIGINT) AS sxx,
                           CAST(SUM(xu * xv) AS BIGINT) AS sxy
                    FROM x)
            SELECT n, sx, sxx, sxy,
                   CAST(n * sxy - sx * sx AS BIGINT) AS num,
                   CAST(n * sxx - sx * sx AS BIGINT) AS den
            FROM agg
        """,
        "q306_dominant_period": """
            WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS us
                       FROM events),
            d AS (SELECT user_id,
                         (us - LAG(us) OVER (PARTITION BY user_id
                              ORDER BY us, event_id)) // 3600000000
                             AS gap
                  FROM e),
            g AS (SELECT user_id, gap, CAST(COUNT(*) AS BIGINT) AS c
                  FROM d WHERE gap IS NOT NULL GROUP BY 1, 2),
            b AS (SELECT user_id, gap, c,
                         ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY c DESC, gap) AS rn
                  FROM g)
            SELECT user_id, CAST(gap AS BIGINT) AS period,
                   c AS support
            FROM b WHERE rn = 1 ORDER BY user_id
        """,
        "q307_pyramid_error": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 241 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 61 + x.x * 19 + y.y * 15) % 256 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 11)) y),
            blk AS (SELECT k, x // 2 AS bx, y // 2 AS by,
                           CAST(SUM(v) // 4 AS BIGINT) AS up
                    FROM dem GROUP BY 1, 2, 3),
            e AS (SELECT d.k, ABS(d.v - b.up) AS d
                  FROM dem d JOIN blk b ON b.k = d.k
                       AND b.bx = d.x // 2 AND b.by = d.y // 2)
            SELECT k AS o_orderkey, CAST(SUM(d) AS BIGINT) AS abs_err,
                   CAST(MAX(d) AS BIGINT) AS max_err
            FROM e GROUP BY 1 ORDER BY 1
        """,
        "q308_top_keyword": """
            WITH tok AS (SELECT doc_id,
                                unnest(string_split(text, ' ')) AS term
                         FROM documents),
            ctf AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS c
                    FROM tok GROUP BY 1),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
                   FROM tok GROUP BY 1, 2),
            j AS (SELECT tf.doc_id, tf.term, tf.tf, ctf.c
                  FROM tf JOIN ctf USING (term))
            SELECT doc_id, term, tf, c AS ctf FROM j a
            WHERE NOT EXISTS (SELECT 1 FROM j b
                WHERE b.doc_id = a.doc_id
                  AND (b.tf * a.c > a.tf * b.c
                       OR (b.tf * a.c = a.tf * b.c
                           AND b.term < a.term)))
            ORDER BY doc_id
        """,
        "q309_nearest_city": """
            WITH p AS (SELECT event_id,
                              (event_id * 48271) % 1024 AS x,
                              (event_id * 69621) % 1024 AS y
                       FROM events),
            c AS (SELECT i.i AS city,
                         (i.i * 2654435761) % 1024 AS cx,
                         (i.i * 976369) % 1024 AS cy
                  FROM (SELECT generate_series AS i
                        FROM generate_series(0, 7)) i),
            d AS (SELECT p.event_id, c.city,
                         ABS(p.x - c.cx) + ABS(p.y - c.cy) AS l1,
                         ROW_NUMBER() OVER (PARTITION BY p.event_id
                             ORDER BY ABS(p.x - c.cx)
                                 + ABS(p.y - c.cy), c.city) AS rn
                  FROM p CROSS JOIN c)
            SELECT CAST(city AS BIGINT) AS city,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(l1) AS BIGINT) AS sum_l1
            FROM d WHERE rn = 1 GROUP BY 1 ORDER BY 1
        """,
        "q310_radius_gyration": """
            WITH p AS (SELECT user_id,
                              (event_id * 48271) % 1024 AS x,
                              (event_id * 69621) % 1024 AS y
                       FROM events),
            g AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(x) AS BIGINT) AS sx,
                         CAST(SUM(y) AS BIGINT) AS sy,
                         CAST(SUM(x * x) AS BIGINT) AS sxx,
                         CAST(SUM(y * y) AS BIGINT) AS syy
                  FROM p GROUP BY 1)
            SELECT user_id, n,
                   CAST(n * (sxx + syy) - sx * sx - sy * sy AS BIGINT)
                       AS rog_num
            FROM g ORDER BY 1
        """,
        "q311_burstiness": """
            WITH b AS (SELECT user_id,
                              epoch_us(ts) // 3600000000 AS b,
                              CAST(COUNT(*) AS BIGINT) AS c
                       FROM events GROUP BY 1, 2),
            g AS (SELECT user_id,
                         CAST(COUNT(*) AS BIGINT) AS n_buckets,
                         CAST(SUM(c) AS BIGINT) AS sum_c,
                         CAST(SUM(c * c) AS BIGINT) AS scc
                  FROM b GROUP BY 1)
            SELECT user_id, n_buckets, sum_c,
                   CAST(n_buckets * scc - sum_c * sum_c AS BIGINT)
                       AS fano_num
            FROM g ORDER BY 1
        """,
        "q312_contribution": """
            WITH w AS (SELECT o_orderpriority AS pri,
                              o_orderstatus AS st,
                              CAST(ROUND(o_totalprice * 100.0) AS BIGINT)
                                  AS cents
                       FROM orders),
            g AS (SELECT pri, st, CAST(SUM(cents) AS BIGINT) AS cents
                  FROM w GROUP BY 1, 2),
            s AS (SELECT pri, CAST(SUM(cents) AS BIGINT) AS lvl1_cents
                  FROM g GROUP BY 1),
            t AS (SELECT CAST(SUM(cents) AS BIGINT) AS total FROM g)
            SELECT g.pri, g.st, g.cents, s.lvl1_cents,
                   CAST(g.cents * 1000000 // s.lvl1_cents AS BIGINT)
                       AS ppm_of_lvl1,
                   CAST(s.lvl1_cents * 1000000 // t.total AS BIGINT)
                       AS ppm_of_total
            FROM g JOIN s USING (pri) CROSS JOIN t ORDER BY 1, 2
        """,
        "q313_cooccurrence": """
            WITH e AS (SELECT user_id, event_id, event_type,
                              epoch_us(ts) AS us FROM events),
            pr AS (SELECT LEAST(a.event_type, b.event_type) AS ta,
                          GREATEST(a.event_type, b.event_type) AS tb
                   FROM e a JOIN e b ON b.user_id = a.user_id
                        AND (b.us > a.us
                             OR (b.us = a.us
                                 AND b.event_id > a.event_id))
                        AND b.us <= a.us + 600000000)
            SELECT ta, tb, CAST(COUNT(*) AS BIGINT) AS n
            FROM pr GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q314_haar_energy": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            l1 AS (SELECT k, y.by AS by, x.bx AS bx,
                     ((k + 14*y.by + 6*x.bx     ) % 256) AS pa,
                     ((k + 14*y.by + 6*x.bx +  3) % 256) AS pb,
                     ((k + 14*y.by + 6*x.bx +  7) % 256) AS pc,
                     ((k + 14*y.by + 6*x.bx + 10) % 256) AS pd
                   FROM ks, generate_series(0, 11) y(by),
                        generate_series(0, 15) x(bx)),
            d1 AS (SELECT k, by, bx,
                     pa+pb+pc+pd AS ll,
                     (pa+pb)-(pc+pd) AS lh,
                     (pa-pb)+(pc-pd) AS hl,
                     (pa-pb)-(pc-pd) AS hh FROM l1),
            e1 AS (SELECT k, SUM(lh*lh) AS e_lh1, SUM(hl*hl) AS e_hl1,
                          SUM(hh*hh) AS e_hh1 FROM d1 GROUP BY k),
            l2 AS (SELECT k, by//2 AS b2y, bx//2 AS b2x,
                     SUM(ll) AS ll2,
                     SUM(CASE WHEN (by%2)=(bx%2) THEN ll ELSE -ll END)
                       AS hh2
                   FROM d1 GROUP BY k, by//2, bx//2),
            e2 AS (SELECT k, SUM(ll2) AS ll2_sum, SUM(hh2*hh2) AS e_hh2
                   FROM l2 GROUP BY k)
            SELECT 'img-' || lpad(CAST(e1.k AS VARCHAR), 9, '0')
                     AS image_id,
                   CAST(e_lh1 AS BIGINT) AS e_lh1,
                   CAST(e_hl1 AS BIGINT) AS e_hl1,
                   CAST(e_hh1 AS BIGINT) AS e_hh1,
                   CAST(ll2_sum AS BIGINT) AS ll2_sum,
                   CAST(e_hh2 AS BIGINT) AS e_hh2
            FROM e1 JOIN e2 ON e1.k = e2.k
        """,
        "q315_dhash": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            s AS (SELECT k, r.r AS r, c.c AS c,
                    SUM((k + 7*(3*r.r + dy.dy) + 3*(4*c.c + dx.dx)) % 256)
                      AS sv
                  FROM ks, generate_series(0, 7) r(r),
                       generate_series(0, 7) c(c),
                       generate_series(0, 2) dy(dy),
                       generate_series(0, 3) dx(dx)
                  GROUP BY k, r.r, c.c),
            h AS (SELECT a.k,
                    SUM(CASE WHEN a.sv > b.sv
                        THEN (CAST(1 AS BIGINT) << (a.r*7 + a.c))
                        ELSE 0 END) AS dhash
                  FROM s a JOIN s b
                    ON b.k = a.k AND b.r = a.r AND b.c = a.c + 1
                  WHERE a.c < 7
                  GROUP BY a.k)
            SELECT CAST(dhash AS BIGINT) AS dhash,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM h GROUP BY dhash
        """,
        "q316_vocab_growth": """
            WITH nn AS (SELECT COUNT(*) AS c FROM documents),
            tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok
                    FROM documents),
            m AS (SELECT tok, MIN(doc_id) AS first_doc FROM tok
                  WHERE tok <> '' GROUP BY tok),
            cps AS (SELECT ((SELECT c FROM nn) * j.j + 3) // 4 AS t
                    FROM generate_series(1, 4) j(j))
            SELECT t AS n_docs,
                   CAST(SUM(CASE WHEN first_doc < t THEN 1 ELSE 0 END)
                        AS BIGINT) AS vocab
            FROM cps, m GROUP BY t
        """,
        "q317_dag_layers": """
            WITH RECURSIVE e0 AS (SELECT DISTINCT
                   ((o_orderkey * 2654435761) // 8) % 4096 AS a,
                   ((o_orderkey * 2246822519) // 8) % 4096 AS b
                 FROM orders),
            ed AS (SELECT DISTINCT
                     CASE WHEN a%8 < b%8 THEN a ELSE b END AS u,
                     CASE WHEN a%8 < b%8 THEN b ELSE a END AS v
                   FROM e0 WHERE a%8 <> b%8),
            n AS (SELECT DISTINCT x AS node FROM
                    (SELECT u AS x FROM ed UNION SELECT v FROM ed)),
            walk(node, len) AS (
              SELECT node, 0 FROM n
              UNION
              SELECT ed.v, walk.len + 1 FROM walk
              JOIN ed ON ed.u = walk.node)
            SELECT node, CAST(MAX(len) AS BIGINT) AS layer
            FROM walk GROUP BY node
        """,
        "q318_sax": """
            WITH q AS (SELECT
                 CAST(percentile_disc(0.25) WITHIN GROUP
                      (ORDER BY l_quantity) AS BIGINT) AS q1,
                 CAST(percentile_disc(0.50) WITHIN GROUP
                      (ORDER BY l_quantity) AS BIGINT) AS q2,
                 CAST(percentile_disc(0.75) WITHIN GROUP
                      (ORDER BY l_quantity) AS BIGINT) AS q3
               FROM lineitem),
            s AS (SELECT l_orderkey AS k,
                    CAST(l_quantity AS BIGINT) AS v,
                    ROW_NUMBER() OVER (PARTITION BY l_orderkey
                                       ORDER BY l_linenumber,
                                                l_quantity) - 1 AS i,
                    COUNT(*) OVER (PARTITION BY l_orderkey) AS cnt
                  FROM lineitem),
            f AS (SELECT k, (4*i) // cnt AS frame, SUM(v) AS sv,
                         COUNT(*) AS c
                  FROM s GROUP BY k, (4*i) // cnt),
            sym AS (SELECT k, frame,
                      CASE WHEN sv < q.q1 * c THEN 'a'
                           WHEN sv < q.q2 * c THEN 'b'
                           WHEN sv < q.q3 * c THEN 'c'
                           ELSE 'd' END AS sym
                    FROM f, q),
            w AS (SELECT k, string_agg(sym, '' ORDER BY frame) AS word
                  FROM sym GROUP BY k)
            SELECT word, CAST(COUNT(*) AS BIGINT) AS n
            FROM w GROUP BY word
        """,
        "q319_phrase": """
            WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                       FROM documents),
            p AS (SELECT doc_id, unnest(l) AS tok,
                         generate_subscripts(l, 1) AS pos FROM t)
            SELECT a.doc_id, CAST(COUNT(*) AS BIGINT) AS n_phrase
            FROM p a JOIN p b
              ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
            WHERE a.tok = 'data' AND b.tok = 'group'
            GROUP BY a.doc_id
        """,
        "q320_trigram_lm": """
            WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                       FROM documents),
            p AS (SELECT doc_id, unnest(l) AS tok,
                         generate_subscripts(l, 1) AS pos FROM t),
            tri AS (SELECT a.tok AS w1, b.tok AS w2, c.tok AS w3,
                           COUNT(*) AS cnt
                    FROM p a
                    JOIN p b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
                    JOIN p c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
                    GROUP BY 1, 2, 3),
            best AS (SELECT w1, w2, w3, cnt FROM tri
                     QUALIFY ROW_NUMBER() OVER
                       (PARTITION BY w1, w2
                        ORDER BY cnt DESC, w3) = 1)
            SELECT w1, w2, w3, CAST(cnt AS BIGINT) AS n
            FROM best WHERE cnt >= 3
        """,
        "q321_chunking": """
            WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                       FROM documents),
            c AS (SELECT doc_id, l, i.i AS chunk_idx, i.i * 24 AS st,
                         LEAST(i.i * 24 + 32, len(l)) AS en
                  FROM t, generate_series(0, 127) i(i)
                  WHERE i.i * 24 < len(l))
            SELECT doc_id, CAST(chunk_idx AS BIGINT) AS chunk_idx,
                   CAST(en - st AS BIGINT) AS n_tokens,
                   l[st + 1] AS first_tok,
                   l[en] AS last_tok
            FROM c
        """,
        "q322_ttr": """
            WITH p AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok
                       FROM documents)
            SELECT doc_id,
                   CAST(COUNT(DISTINCT tok) AS BIGINT) AS n_types,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens
            FROM p WHERE tok <> '' GROUP BY doc_id
        """,
        "q323_repeated_ngrams": """
            WITH t AS (SELECT doc_id, string_split(text, ' ') AS l
                       FROM documents),
            p AS (SELECT doc_id, l, generate_subscripts(l, 1) AS pos,
                         unnest(l) AS tok FROM t),
            ns AS (SELECT unnest([1, 2, 4, 8]) AS n),
            g AS (SELECT p.doc_id, ns.n,
                         array_to_string(p.l[p.pos : p.pos + ns.n - 1],
                                         ' ') AS gram
                  FROM p, ns WHERE p.pos + ns.n - 1 <= len(p.l)),
            rep AS (SELECT doc_id, n FROM g
                    GROUP BY doc_id, n, gram HAVING COUNT(*) > 1)
            SELECT t.doc_id,
                   CAST(COALESCE(MAX(rep.n), 0) AS BIGINT) AS max_rep
            FROM t LEFT JOIN rep ON rep.doc_id = t.doc_id
            GROUP BY t.doc_id
        """,
        "q324_silence": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 89 = 0),
            s AS (SELECT k, i.i AS i,
                    CASE WHEN ((i.i // 16) + k) % 4 = 0
                         THEN (k*31 + i.i*7) % 4095 - 2047
                         WHEN i.i % 2 = 0
                         THEN 2048 + (k*7919 + i.i*104729) % 30720
                         ELSE -(2048 + (k*7919 + i.i*104729) % 30720)
                    END AS v
                  FROM ks, generate_series(0, 499) i(i)
                  WHERE i.i < 300 + k % 200),
            sil AS (SELECT k, i FROM s WHERE abs(v) < 2048),
            isl AS (SELECT k,
                      i - ROW_NUMBER() OVER (PARTITION BY k ORDER BY i)
                        AS grp
                    FROM sil),
            runs AS (SELECT k, COUNT(*) AS c FROM isl GROUP BY k, grp),
            agg AS (SELECT k,
                      CAST(COUNT(*) FILTER (c >= 8) AS BIGINT) AS n_runs,
                      CAST(COALESCE(SUM(c) FILTER (c >= 8), 0)
                           AS BIGINT) AS silent_samples,
                      CAST(COALESCE(MAX(c) FILTER (c >= 8), 0)
                           AS BIGINT) AS longest_run
                    FROM runs GROUP BY k)
            SELECT 'clip-' || lpad(CAST(ks.k AS VARCHAR), 9, '0')
                     AS clip_id,
                   COALESCE(n_runs, 0) AS n_runs,
                   COALESCE(silent_samples, 0) AS silent_samples,
                   COALESCE(longest_run, 0) AS longest_run
            FROM ks LEFT JOIN agg ON agg.k = ks.k
        """,
        "q325_freeze": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 101 = 0),
            f AS (SELECT k, f.f AS f FROM ks, generate_series(1, 12) f(f)
                  WHERE f.f < 8 + k % 5),
            froz AS (SELECT k, f FROM f WHERE (k + f) % 4 < 2),
            isl AS (SELECT k,
                      f - ROW_NUMBER() OVER (PARTITION BY k ORDER BY f)
                        AS grp
                    FROM froz),
            runs AS (SELECT k, COUNT(*) AS c FROM isl GROUP BY k, grp),
            agg AS (SELECT k, CAST(SUM(c) AS BIGINT) AS n_freeze,
                           CAST(MAX(c) AS BIGINT) AS longest_freeze
                    FROM runs GROUP BY k)
            SELECT 'vid-' || lpad(CAST(ks.k AS VARCHAR), 9, '0')
                     AS video_id,
                   COALESCE(n_freeze, 0) AS n_freeze,
                   COALESCE(longest_freeze, 0) AS longest_freeze
            FROM ks LEFT JOIN agg ON agg.k = ks.k
        """,
        "q326_polyline": """
            WITH e AS (SELECT user_id, event_id,
                         (event_id*2654435761) % 17000000 - 8500000 AS la,
                         (event_id*976369) % 35000000 - 17500000 AS lg
                       FROM events),
            d AS (SELECT user_id, event_id,
                    la - COALESCE(LAG(la) OVER w, 0) AS dl,
                    lg - COALESCE(LAG(lg) OVER w, 0) AS dg
                  FROM e
                  WINDOW w AS (PARTITION BY user_id ORDER BY event_id)),
            v AS (SELECT user_id, event_id, 0 AS ax,
                    CASE WHEN dl >= 0 THEN 2*dl ELSE -2*dl - 1 END AS zz
                  FROM d
                  UNION ALL
                  SELECT user_id, event_id, 1,
                    CASE WHEN dg >= 0 THEN 2*dg ELSE -2*dg - 1 END
                  FROM d),
            c AS (SELECT user_id, event_id, ax, zz,
                    CASE WHEN zz = 0 THEN 1
                         ELSE (length(bin(zz)) + 4) // 5 END AS nc
                  FROM v),
            ch AS (SELECT user_id, event_id, ax, nc,
                     SUM((zz // (CAST(1 AS BIGINT) << (5*i.i))) % 32)
                       AS csum
                   FROM c, generate_series(0, 6) i(i)
                   WHERE i.i < nc
                   GROUP BY user_id, event_id, ax, zz, nc)
            SELECT user_id,
                   CAST(COUNT(*) / 2 AS BIGINT) AS n_pts,
                   CAST(SUM(nc) AS BIGINT) AS enc_len,
                   CAST(SUM(csum + 63*nc + 32*(nc - 1)) AS BIGINT)
                     AS char_sum
            FROM ch GROUP BY user_id
        """,
        "q327_survivorship": """
            WITH s AS (SELECT user_id, event_id,
                         CASE WHEN event_id % 3 <> 0
                              THEN (event_id*7) % 997 END AS a,
                         CASE WHEN event_id % 5 <> 0
                              THEN (event_id*13) % 991 END AS b
                       FROM events)
            SELECT user_id,
                   CAST(MAX(event_id) AS BIGINT) AS last_ord,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(COALESCE(arg_max(a, event_id)
                                   FILTER (a IS NOT NULL), -1)
                        AS BIGINT) AS last_a,
                   CAST(COALESCE(arg_max(b, event_id)
                                   FILTER (b IS NOT NULL), -1)
                        AS BIGINT) AS last_b
            FROM s GROUP BY user_id
        """,
        "q328_payload_audit": """
            SELECT 'clip-' || lpad(CAST(k AS VARCHAR), 9, '0')
                     AS clip_id,
                   CAST(n + 10 AS BIGINT) AS meta_samples,
                   CAST(n AS BIGINT) AS actual_samples
            FROM (SELECT o_orderkey AS k,
                         200 + o_orderkey % 300 AS n
                  FROM orders WHERE o_orderkey % 97 = 0)
            WHERE k % 5 = 0
        """,
        "q329_edit2_pairs": """
            WITH d AS (SELECT DISTINCT
                 'itm' || CAST((o_orderkey * 2654435761) % 1500
                               AS VARCHAR)
                 || CASE WHEN ((o_orderkey * 2654435761) % 1500) % 4 = 0
                         THEN 'xy'
                         WHEN ((o_orderkey * 2654435761) % 1500) % 4 = 1
                         THEN 'x' ELSE '' END AS s
                 FROM orders)
            SELECT a.s AS s_a, b.s AS s_b,
                   CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
            FROM d a JOIN d b
              ON a.s < b.s AND abs(len(a.s) - len(b.s)) <= 2
            WHERE levenshtein(a.s, b.s) BETWEEN 1 AND 2
        """,
        "q330_rolling_ols": """
            WITH s AS (SELECT user_id, event_id,
                         (event_id*31) % 1009 AS x,
                         (event_id*53) % 997 AS y
                       FROM events),
            w AS (SELECT user_id, event_id,
                    COUNT(*) OVER win AS c,
                    SUM(x) OVER win AS sx, SUM(y) OVER win AS sy,
                    SUM(x*y) OVER win AS sxy, SUM(x*x) OVER win AS sxx
                  FROM s
                  WINDOW win AS (PARTITION BY user_id ORDER BY event_id
                                 ROWS BETWEEN 7 PRECEDING
                                          AND CURRENT ROW))
            SELECT user_id, event_id,
                   CAST(8*sxy - sx*sy AS BIGINT) AS s_num,
                   CAST(8*sxx - sx*sx AS BIGINT) AS s_den
            FROM w WHERE c = 8
        """,
        "q331_hgt": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 61 = 0),
            c AS (SELECT k, y.y AS y, x.x AS x,
                    (k + 13*y.y + 9*x.x) % 4000 - 500 AS v,
                    ((y.y*32 + x.x + k) % 97 = 0) AS void
                  FROM ks, generate_series(4, 27) y(y),
                       generate_series(6, 29) x(x))
            SELECT 'hgt-' || lpad(CAST(k AS VARCHAR), 9, '0') AS tile_id,
                   CAST(COALESCE(SUM(v) FILTER (NOT void), 0) AS BIGINT)
                     AS win_sum,
                   CAST(COALESCE(MIN(v) FILTER (NOT void), 0) AS BIGINT)
                     AS win_min,
                   CAST(COALESCE(MAX(v) FILTER (NOT void), 0) AS BIGINT)
                     AS win_max,
                   CAST(SUM(CASE WHEN void THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_void
            FROM c GROUP BY k
        """,
        "q332_slippy": """
            WITH km AS (SELECT MAX(o_orderkey) AS km FROM orders),
            t AS (SELECT z.z AS z, x.x AS x, y.y AS y
                  FROM generate_series(2, 3) z(z),
                       generate_series(0, 7) x(x),
                       generate_series(0, 7) y(y)
                  WHERE x.x < (1 << z.z) AND y.y < (1 << z.z)),
            p AS (SELECT t.z, t.x, t.y, cc.cc AS col,
                    ((SELECT km FROM km) + 37*t.z + 11*t.x + 7*t.y
                     + 3*rr.rr + 2*cc.cc + ch.ch) % 256 AS v
                  FROM t, generate_series(0, 7) rr(rr),
                       generate_series(0, 7) cc(cc),
                       generate_series(0, 2) ch(ch))
            SELECT z, x, y,
                   CAST(SUM(v) AS BIGINT) AS px_sum,
                   CAST(SUM(v * col) AS BIGINT) AS px_xw
            FROM p GROUP BY z, x, y
        """,
        "q333_g711": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 83 = 0),
            s AS (SELECT k, (k*7919 + i.i*104729) % 65536 - 32768 AS x
                  FROM ks, generate_series(0, 399) i(i)
                  WHERE i.i < 150 + k % 250),
            e AS (SELECT k, x < 0 AS neg,
                         LEAST(abs(x), 32635) // 4 + 33 AS v FROM s),
            f AS (SELECT k, neg, v, length(bin(v)) - 6 AS seg FROM e),
            g AS (SELECT k, neg, seg,
                         (v // (CAST(1 AS BIGINT) << (seg + 1))) % 16
                           AS man
                  FROM f),
            h AS (SELECT k,
                    CASE WHEN neg THEN 127 - (seg*16 + man)
                         ELSE 255 - (seg*16 + man) END AS code,
                    CASE WHEN neg
                         THEN -(((2*man + 33) * (CAST(1 AS BIGINT) << seg))
                                - 33) * 4
                         ELSE (((2*man + 33) * (CAST(1 AS BIGINT) << seg))
                               - 33) * 4 END AS dec
                  FROM g)
            SELECT 'clip-' || lpad(CAST(k AS VARCHAR), 9, '0') AS clip_id,
                   CAST(SUM(dec) AS BIGINT) AS dec_sum,
                   CAST(SUM(code) AS BIGINT) AS code_sum
            FROM h GROUP BY k
        """,
        "q334_pnm": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            p AS (SELECT k, (k + 7*y.y + 3*x.x) % 256 AS g
                  FROM ks, generate_series(0, 23) y(y),
                       generate_series(0, 31) x(x))
            SELECT CAST(ch.c AS BIGINT) AS c,
                   CAST(SUM(g) AS BIGINT) AS s,
                   CAST(SUM(g*g) AS BIGINT) AS ss,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM p, (SELECT unnest([0, 1, 2]) AS c) ch
            GROUP BY ch.c
        """,
        "q335_confusion": ("WITH pred AS (" + _LANGID_SQL + """)
            SELECT d.lang, p.lang_pred, CAST(COUNT(*) AS BIGINT) AS n
            FROM documents d JOIN pred p ON p.doc_id = d.doc_id
            GROUP BY 1, 2
        """),
        "q336_fits": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 73 = 0),
            p AS (SELECT k,
                    (k + 17*y.y + 23*x.x) % 60000 AS v,
                    (11*y.y + 13*x.x) % 300 AS dark
                  FROM ks, generate_series(0, 15) y(y),
                       generate_series(0, 19) x(x))
            SELECT 'ccd-' || lpad(CAST(k AS VARCHAR), 9, '0')
                     AS frame_id,
                   CAST(SUM(GREATEST(v - dark, 0)) AS BIGINT) AS cal_sum,
                   CAST(SUM(CASE WHEN v < dark THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_clamped
            FROM p GROUP BY k
        """,
        "q337_ascgrid": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 67 = 0),
            p AS (SELECT k,
                    CASE WHEN (y.y*14 + x.x + k) % 53 = 0 THEN -9999
                         ELSE (k + 19*y.y + 7*x.x) % 3000 - 400
                    END AS v
                  FROM ks, generate_series(0, 9) y(y),
                       generate_series(0, 13) x(x))
            SELECT 'asc-' || lpad(CAST(k AS VARCHAR), 9, '0') AS grid_id,
                   CAST(COALESCE(SUM(v) FILTER (v <> -9999), 0)
                        AS BIGINT) AS v_sum,
                   CAST(COALESCE(MIN(v) FILTER (v <> -9999), 0)
                        AS BIGINT) AS v_min,
                   CAST(COALESCE(MAX(v) FILTER (v <> -9999), 0)
                        AS BIGINT) AS v_max,
                   CAST(SUM(CASE WHEN v = -9999 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_nodata,
                   CAST(30 AS BIGINT) AS cellsize
            FROM p GROUP BY k
        """,
        "q338_composite": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            px AS (SELECT k, y.y AS y, x.x AS x, c.c AS c,
                     (k + 7*y.y + 3*x.x + 11*c.c) % 256 AS bg,
                     (y.y BETWEEN 6 AND 13) AND (x.x BETWEEN 4 AND 13)
                       AS inw
                   FROM ks, generate_series(0, 23) y(y),
                        generate_series(0, 31) x(x),
                        generate_series(0, 2) c(c)),
            b AS (SELECT k, bg, inw,
                    CASE WHEN inw THEN
                      ((40 + 5*(y-6) + 3*(x-4) + 7*c) % 256
                         * (((y-6)*10 + (x-4)) * 255 // 79)
                       + bg * (255 - ((y-6)*10 + (x-4)) * 255 // 79)
                       + 127) // 255
                    ELSE bg END AS outv
                  FROM px)
            SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0')
                     AS image_id,
                   CAST(SUM(outv) AS BIGINT) AS out_sum,
                   CAST(SUM(CASE WHEN inw AND outv <> bg
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_changed
            FROM b GROUP BY k
        """,
        "q339_percent_rank": """
            WITH s AS (SELECT user_id, event_id,
                         (event_id*17) % 1000 AS v FROM events)
            SELECT event_id,
                   CAST(RANK() OVER (PARTITION BY user_id ORDER BY v)
                        - 1 AS BIGINT) AS pr_num,
                   CAST(COUNT(*) OVER (PARTITION BY user_id) - 1
                        AS BIGINT) AS pr_den
            FROM s
        """,
        "q340_crossing_points": """
            WITH s AS (SELECT o_orderkey AS id, o_orderkey % 2 AS side,
                         (o_orderkey*3) % 97 AS x1,
                         (o_orderkey*7) % 97 AS y1,
                         (o_orderkey*5 + 13) % 97 AS x2,
                         (o_orderkey*11 + 29) % 97 AS y2
                       FROM orders WHERE o_orderkey % 7 = 0),
            pr AS (SELECT a.id AS a_id, b.id AS b_id,
                     (a.x2-a.x1)*(b.y1-a.y1) - (a.y2-a.y1)*(b.x1-a.x1)
                       AS d1,
                     (a.x2-a.x1)*(b.y2-a.y1) - (a.y2-a.y1)*(b.x2-a.x1)
                       AS d2,
                     (b.x2-b.x1)*(a.y1-b.y1) - (b.y2-b.y1)*(a.x1-b.x1)
                       AS d3,
                     (b.x2-b.x1)*(a.y2-b.y1) - (b.y2-b.y1)*(a.x2-b.x1)
                       AS d4,
                     b.x1 AS bx1, b.y1 AS by1,
                     b.x2 - b.x1 AS dbx, b.y2 - b.y1 AS dby
                   FROM s a JOIN s b ON a.side = 0 AND b.side = 1),
            hit AS (SELECT a_id, b_id, d1 - d2 AS den,
                      bx1*(d1 - d2) + d1*dbx AS x_num,
                      by1*(d1 - d2) + d1*dby AS y_num
                    FROM pr WHERE d1*d2 < 0 AND d3*d4 < 0)
            SELECT a_id, b_id,
                   CAST(CASE WHEN den < 0 THEN -x_num ELSE x_num END
                        AS BIGINT) AS x_num,
                   CAST(CASE WHEN den < 0 THEN -y_num ELSE y_num END
                        AS BIGINT) AS y_num,
                   CAST(abs(den) AS BIGINT) AS den
            FROM hit
        """,
        "q341_roaring": """
            WITH dv AS (SELECT DISTINCT
                          (event_id * 2654435761) % 4194304 AS v
                        FROM events),
            r AS (SELECT v // 65536 AS chunk, v,
                    CASE WHEN v - LAG(v) OVER (PARTITION BY v // 65536
                                               ORDER BY v) = 1
                         THEN 0 ELSE 1 END AS rs
                  FROM dv),
            a AS (SELECT chunk, CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(rs) AS BIGINT) AS runs
                  FROM r GROUP BY chunk),
            b AS (SELECT chunk, n, runs,
                    CASE WHEN n <= 4096 THEN 2*n
                         ELSE 1099511627776 END AS sa,
                    2 + 4*runs AS sr
                  FROM a)
            SELECT chunk, n, runs,
                   CASE WHEN sa = LEAST(sa, sr, 8192) THEN 'array'
                        WHEN sr = LEAST(sa, sr, 8192) THEN 'run'
                        ELSE 'bitmap' END AS container,
                   CAST(LEAST(sa, sr, 8192) AS BIGINT) AS bytes
            FROM b
        """,
        "q342_cidr": """
            WITH bl AS (SELECT DISTINCT
                   8 + (j.j*5) % 17 AS plen,
                   (((j.j*2654435761) % 4294967296)
                      // (CAST(1 AS BIGINT) << (32 - (8 + (j.j*5) % 17))))
                    * (CAST(1 AS BIGINT) << (32 - (8 + (j.j*5) % 17)))
                     AS net
                 FROM generate_series(1, 20) j(j)),
            ips AS (SELECT event_id,
                      (event_id * 2654435761) % 4294967296 AS ip
                    FROM events),
            m AS (SELECT i.event_id, bl.plen, bl.net
                  FROM ips i JOIN bl
                    ON i.ip // (CAST(1 AS BIGINT) << (32 - bl.plen))
                     = bl.net // (CAST(1 AS BIGINT) << (32 - bl.plen))),
            best AS (SELECT event_id, plen, net FROM m
                     QUALIFY ROW_NUMBER() OVER
                       (PARTITION BY event_id
                        ORDER BY plen DESC, net) = 1),
            lab AS (SELECT i.event_id,
                      COALESCE(b.net, 0) AS net,
                      COALESCE(b.plen, 0) AS plen
                    FROM ips i LEFT JOIN best b
                      ON b.event_id = i.event_id)
            SELECT net, plen, CAST(COUNT(*) AS BIGINT) AS n_ips
            FROM lab GROUP BY net, plen
        """,
        "q343_iso_week": """
            SELECT CAST(isoyear(l_shipdate) AS BIGINT) AS iso_year,
                   CAST(week(l_shipdate) AS BIGINT) AS iso_week,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                     AS total
            FROM lineitem GROUP BY 1, 2
        """,
        "q344_debounce": """
            WITH RECURSIVE e AS (SELECT user_id, event_id,
                                        epoch_us(ts) AS us FROM events),
            seed AS (SELECT user_id, event_id, us FROM e
                     QUALIFY ROW_NUMBER() OVER
                       (PARTITION BY user_id ORDER BY us, event_id) = 1),
            rec(user_id, event_id, us) AS (
              SELECT * FROM seed
              UNION ALL
              SELECT l.user_id, l.event_id, l.us FROM rec r, LATERAL (
                SELECT e.user_id, e.event_id, e.us FROM e
                WHERE e.user_id = r.user_id
                  AND e.us > r.us + 1200000000
                ORDER BY e.us, e.event_id LIMIT 1) l)
            SELECT user_id, event_id, us FROM rec
        """,
        "q345_hdr": """
            WITH v AS (SELECT (event_id * 7919) % 1000000 AS v
                       FROM events),
            b AS (SELECT v, CASE WHEN v = 0 THEN 0
                                 ELSE GREATEST(length(bin(v)) - 5, 0)
                            END AS bucket FROM v),
            s AS (SELECT bucket,
                         v // (CAST(1 AS BIGINT) << bucket) AS sub
                  FROM b)
            SELECT bucket, sub,
                   CAST(sub * (CAST(1 AS BIGINT) << bucket) AS BIGINT)
                     AS lb,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM s GROUP BY bucket, sub
        """,
        "q346_oov": """
            WITH tok AS (SELECT doc_id,
                           unnest(string_split(text, ' ')) AS tok
                         FROM documents),
            tk AS (SELECT tok FROM
                     (SELECT tok, COUNT(*) AS c FROM tok
                      WHERE tok <> '' GROUP BY tok)
                   QUALIFY ROW_NUMBER() OVER
                     (ORDER BY c DESC, tok) <= 16)
            SELECT doc_id,
                   CAST(SUM(CASE WHEN tok IN (SELECT tok FROM tk)
                            THEN 0 ELSE 1 END) AS BIGINT) AS n_oov,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens
            FROM tok WHERE tok <> '' GROUP BY doc_id
        """,
        "q347_dhash_pairs": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            s AS (SELECT k, r.r AS r, c.c AS c,
                    SUM((k + 7*(3*r.r + dy.dy) + 3*(4*c.c + dx.dx)) % 256)
                      AS sv
                  FROM ks, generate_series(0, 7) r(r),
                       generate_series(0, 7) c(c),
                       generate_series(0, 2) dy(dy),
                       generate_series(0, 3) dx(dx)
                  GROUP BY k, r.r, c.c),
            h AS (SELECT a.k,
                    CAST(SUM(CASE WHEN a.sv > b.sv
                        THEN (CAST(1 AS BIGINT) << (a.r*7 + a.c))
                        ELSE 0 END) AS BIGINT) AS dhash
                  FROM s a JOIN s b
                    ON b.k = a.k AND b.r = a.r AND b.c = a.c + 1
                  WHERE a.c < 7
                  GROUP BY a.k),
            cg AS (SELECT dhash, CAST(COUNT(*) AS BIGINT) AS n
                   FROM h GROUP BY dhash)
            SELECT a.dhash AS h_a, b.dhash AS h_b,
                   CAST(bit_count(xor(a.dhash, b.dhash)) AS BIGINT)
                     AS hamming,
                   CAST(a.n * b.n AS BIGINT) AS n_pairs
            FROM cg a JOIN cg b ON a.dhash < b.dhash
            WHERE bit_count(xor(a.dhash, b.dhash)) <= 3
        """,
        "q348_csv": """
            SELECT 'g,' || CAST(o_orderkey % 5 AS VARCHAR) AS tag,
                   CAST(SUM(o_orderkey) AS BIGINT) AS k,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM orders GROUP BY 1
        """,
        "q349_feature_hash": """
            WITH tok AS (SELECT doc_id,
                           unnest(string_split(text, ' ')) AS tok
                         FROM documents),
            h AS (SELECT doc_id, md5_number_lower(tok) AS hv
                  FROM tok WHERE tok <> ''),
            s AS (SELECT doc_id, CAST(hv % 64 AS BIGINT) AS bucket,
                    CASE WHEN (hv // 64) % 2 = 0 THEN 1 ELSE -1 END
                      AS sg
                  FROM h)
            SELECT doc_id, bucket, CAST(SUM(sg) AS BIGINT) AS v
            FROM s GROUP BY doc_id, bucket HAVING SUM(sg) <> 0
        """,
        "q350_bipartite": """
            WITH RECURSIVE e0 AS (SELECT DISTINCT
                   ((o_orderkey*2654435761) // 8) % 1024 AS ua,
                   ((o_orderkey*2246822519) // 8) % 1024 AS vb
                 FROM orders WHERE o_orderkey % 11 = 0),
            ed AS (SELECT DISTINCT u, v FROM (
                     SELECT ua AS u, vb AS v FROM e0 WHERE ua <> vb
                     UNION ALL
                     SELECT vb, ua FROM e0 WHERE ua <> vb)),
            n AS (SELECT DISTINCT u AS node FROM ed),
            reach(node, r) AS (
              SELECT node, node FROM n
              UNION
              SELECT reach.node, ed.v FROM reach
              JOIN ed ON ed.u = reach.r),
            nc AS (SELECT node, MIN(r) AS comp FROM reach GROUP BY node),
            pw(node, par) AS (
              SELECT comp, 0 FROM (SELECT DISTINCT comp FROM nc)
              UNION
              SELECT ed.v, 1 - pw.par FROM pw JOIN ed ON ed.u = pw.node),
            twop AS (SELECT node FROM pw GROUP BY node
                     HAVING COUNT(DISTINCT par) = 2),
            badc AS (SELECT DISTINCT nc.comp FROM twop
                     JOIN nc ON nc.node = twop.node)
            SELECT nc.comp,
                   CAST(COUNT(*) AS BIGINT) AS n_nodes,
                   CAST(CASE WHEN nc.comp IN (SELECT comp FROM badc)
                        THEN 0 ELSE 1 END AS BIGINT) AS is_bipartite
            FROM nc GROUP BY nc.comp
        """,
        "q351_topic_scores": """
            WITH tok AS (SELECT doc_id,
                           unnest(string_split(text, ' ')) AS tok
                         FROM documents),
            h AS (SELECT doc_id, md5_number_lower(tok) AS hv
                  FROM tok WHERE tok <> ''),
            sc AS (SELECT doc_id, t.t AS topic,
                     CAST(SUM(CAST((hv // CAST(CASE t.t
                            WHEN 0 THEN 1 WHEN 1 THEN 7
                            WHEN 2 THEN 49 ELSE 343 END AS UBIGINT))
                          % 5 AS BIGINT)) AS BIGINT) AS score
                   FROM h, generate_series(0, 3) t(t)
                   GROUP BY doc_id, t.t)
            SELECT doc_id, CAST(topic AS BIGINT) AS topic, score
            FROM sc
            QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                                       ORDER BY score DESC, topic) = 1
        """,
        "q352_base64": """
            SELECT doc_id,
                   CAST(length(base64(CAST(text AS BLOB))) AS BIGINT)
                     AS enc_len,
                   right(base64(CAST(text AS BLOB)), 4) AS tail4
            FROM documents
        """,
        "q353_urls": """
            WITH u AS (SELECT 'h' || CAST(event_id % 7 AS VARCHAR)
                              || '.example.com' AS host,
                              event_id % 13 AS seg
                       FROM events)
            SELECT host, CAST(SUM(seg) AS BIGINT) AS seg,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM u GROUP BY host
        """,
        "q354_rules": """
            WITH d AS (SELECT DISTINCT l_orderkey AS k, l_partkey AS p
                       FROM lineitem),
            pr AS (SELECT a.p AS pa_, b.p AS pb_, COUNT(*) AS n
                   FROM d a JOIN d b ON a.k = b.k AND a.p < b.p
                   GROUP BY 1, 2),
            s AS (SELECT p, COUNT(*) AS np FROM d GROUP BY p),
            f AS (SELECT pa_, pb_, n FROM pr WHERE n >= 5)
            SELECT pa_ AS antecedent, pb_ AS consequent,
                   CAST(n AS BIGINT) AS conf_num,
                   CAST(sa.np AS BIGINT) AS conf_den
            FROM f JOIN s sa ON sa.p = f.pa_
            UNION ALL
            SELECT pb_, pa_, CAST(n AS BIGINT), CAST(sb.np AS BIGINT)
            FROM f JOIN s sb ON sb.p = f.pb_
        """,
        "q355_luhn": """
            WITH v AS (SELECT event_id,
                         100000 + (event_id * 7919) % 900000000 AS acct
                       FROM events),
            dg AS (SELECT event_id, p.p AS p,
                     (acct // CAST(POWER(10, p.p) AS BIGINT)) % 10 AS d
                   FROM v, generate_series(0, 17) p(p)),
            t AS (SELECT event_id,
                    SUM(CASE WHEN p % 2 = 1 THEN
                          CASE WHEN 2*d > 9 THEN 2*d - 9 ELSE 2*d END
                        ELSE d END) AS total
                  FROM dg GROUP BY event_id)
            SELECT CAST(SUM(CASE WHEN total % 10 = 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_valid,
                   CAST(SUM(CASE WHEN total % 10 = 0 THEN 0 ELSE 1 END)
                        AS BIGINT) AS n_invalid
            FROM t
        """,
        "q356_wow": """
            WITH w AS (SELECT date_trunc('week', l_shipdate) AS mon,
                              CAST(SUM(CAST(l_quantity AS BIGINT))
                                   AS BIGINT) AS total
                       FROM lineitem GROUP BY 1)
            SELECT CAST(isoyear(a.mon) AS BIGINT) AS iso_year,
                   CAST(week(a.mon) AS BIGINT) AS iso_week,
                   a.total,
                   CAST(a.total - COALESCE(p.total, 0) AS BIGINT)
                     AS delta
            FROM w a LEFT JOIN w p
              ON p.mon = a.mon - INTERVAL 7 DAY
        """,
        "q357_adler": """
            WITH t AS (SELECT doc_id, text, length(text) AS n
                       FROM documents),
            d AS (SELECT doc_id, n, i.i AS i,
                    ascii(substr(text, i.i, 1)) AS b
                  FROM t, generate_series(1, 1024) i(i)
                  WHERE i.i <= n),
            ab AS (SELECT doc_id,
                     (1 + COALESCE(SUM(b), 0)) % 65521 AS a,
                     (MAX(n) + COALESCE(SUM((n - i + 1) * b), 0))
                       % 65521 AS bb
                   FROM d GROUP BY doc_id),
            alld AS (SELECT t.doc_id,
                       COALESCE(ab.a, 1) AS a,
                       COALESCE(ab.bb, t.n % 65521) AS bb
                     FROM t LEFT JOIN ab ON ab.doc_id = t.doc_id)
            SELECT doc_id,
                   CAST(bb * 65536 + a AS BIGINT) AS adler32
            FROM alld
        """,
        "q358_diversity": """
            WITH c AS (SELECT source, lang, COUNT(*) AS n
                       FROM documents GROUP BY 1, 2)
            SELECT source,
                   CAST(SUM(n * (n - 1)) AS BIGINT) AS num,
                   CAST(SUM(n) * (SUM(n) - 1) AS BIGINT) AS den
            FROM c GROUP BY source
        """,
        "q359_bytescreen": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            px AS (SELECT k,
                     (k + 7*y.y + 3*x.x + 11*c.c) % 256 AS v
                   FROM ks, generate_series(0, 23) y(y),
                        generate_series(0, 31) x(x),
                        generate_series(0, 2) c(c)),
            h AS (SELECT k, v, COUNT(*) AS c FROM px GROUP BY k, v)
            SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0')
                     AS image_id,
                   CAST(COUNT(*) AS BIGINT) AS n_distinct,
                   CAST(MAX(c) AS BIGINT) AS max_freq
            FROM h GROUP BY k
        """,
        "q360_warc": """
            WITH t AS (SELECT doc_id, text, length(text) AS n
                       FROM documents),
            d AS (SELECT doc_id, n, i.i AS i,
                    ascii(substr(text, i.i, 1)) AS b
                  FROM t, generate_series(1, 1024) i(i)
                  WHERE i.i <= n),
            ab AS (SELECT doc_id,
                     (1 + COALESCE(SUM(b), 0)) % 65521 AS a,
                     (MAX(n) + COALESCE(SUM((n - i + 1) * b), 0))
                       % 65521 AS bb
                   FROM d GROUP BY doc_id),
            alld AS (SELECT t.doc_id, t.n,
                       COALESCE(ab.a, 1) AS a,
                       COALESCE(ab.bb, t.n % 65521) AS bb
                     FROM t LEFT JOIN ab ON ab.doc_id = t.doc_id)
            SELECT 'http://corpus/doc/' || CAST(doc_id AS VARCHAR)
                     AS uri,
                   CAST(n AS BIGINT) AS payload_len,
                   CAST(bb * 65536 + a AS BIGINT) AS adler32
            FROM alld
        """,
        "q361_chunk_dedup": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            c AS (SELECT doc_id, g.i AS chunk_idx,
                         array_to_string(ws[g.i * 10 + 1 : g.i * 10 + 10],
                                         ' ') AS chunk
                  FROM w CROSS JOIN (SELECT generate_series AS i
                                     FROM generate_series(0, 31)) g
                  WHERE g.i * 10 < len(ws)),
            k AS (SELECT chunk,
                         MIN(doc_id * 1048576 + chunk_idx) AS mp
                  FROM c GROUP BY chunk),
            kept AS (SELECT mp // 1048576 AS doc_id,
                            COUNT(*) AS n_kept
                     FROM k GROUP BY 1),
            tot AS (SELECT doc_id, COUNT(*) AS n_chunks
                    FROM c GROUP BY doc_id)
            SELECT t.doc_id, t.n_chunks,
                   CAST(COALESCE(kp.n_kept, 0) AS BIGINT) AS n_kept
            FROM tot t LEFT JOIN kept kp USING (doc_id)
        """,
        "q362_term_commonness": """
            WITH words AS (SELECT doc_id,
                                  unnest(string_split(text, ' ')) AS w
                           FROM documents),
            freq AS (SELECT w, COUNT(*) AS f FROM words GROUP BY w)
            SELECT wo.doc_id, COUNT(*) AS n_tokens,
                   CAST(SUM(f.f) AS BIGINT) AS common_sum
            FROM words wo JOIN freq f USING (w)
            GROUP BY wo.doc_id
        """,
        # q363: exact regime — distinct event_type << sketch width, so
        # every key has a collision-free row and est == exact count
        "q363_cms_counts": """
            SELECT event_type, COUNT(*) AS est
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "q364_knn_graph": """
            WITH sub AS (SELECT vec_id,
                                CAST(embedding AS DOUBLE[]) AS v
                         FROM embeddings WHERE vec_id < 600),
            p AS (SELECT a.vec_id AS src, b.vec_id AS dst,
                    CAST(ROUND(list_cosine_similarity(a.v, b.v)
                               * 1000000.0) AS BIGINT) AS sim_micro
                  FROM sub a JOIN sub b ON a.vec_id <> b.vec_id),
            r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY src
                      ORDER BY sim_micro DESC, dst) AS rank FROM p)
            SELECT src, rank, dst, sim_micro FROM r
            WHERE rank <= 3 ORDER BY src, rank
        """,
        "q365_tfidf_topk": """
            WITH words AS (SELECT doc_id,
                                  unnest(string_split(text, ' ')) AS w
                           FROM documents),
            tf AS (SELECT doc_id, w AS term, COUNT(*) AS tf
                   FROM words GROUP BY doc_id, w),
            df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY term),
            r AS (SELECT tf.doc_id, tf.term, tf.tf, df.df,
                         ROW_NUMBER() OVER (PARTITION BY tf.doc_id
                             ORDER BY tf.tf * 1000000 // df.df DESC,
                                      tf.term) AS rank
                  FROM tf JOIN df USING (term))
            SELECT doc_id, rank, term, CAST(tf AS BIGINT) AS tf,
                   CAST(df AS BIGINT) AS df
            FROM r WHERE rank <= 3 ORDER BY doc_id, rank
        """,
        "q366_contamination": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            g AS (SELECT doc_id,
                         array_to_string(ws[g.i + 1 : g.i + 3], ' ') AS gram
                  FROM w CROSS JOIN (SELECT generate_series AS i
                                     FROM generate_series(0, 127)) g
                  WHERE g.i + 3 <= len(ws)
                     OR (g.i = 0 AND len(ws) < 3)),
            gd AS (SELECT DISTINCT doc_id, gram FROM g),
            bench AS (SELECT DISTINCT gram FROM gd
                      WHERE doc_id % 50 = 0),
            hits AS (SELECT doc_id, COUNT(*) AS n_shared
                     FROM gd JOIN bench USING (gram)
                     WHERE doc_id % 50 <> 0 GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(COALESCE(h.n_shared, 0) AS BIGINT) AS n_shared,
                   COALESCE(h.n_shared, 0) >= 1 AS contaminated
            FROM (SELECT doc_id FROM documents WHERE doc_id % 50 <> 0) d
            LEFT JOIN hits h USING (doc_id)
        """,
        "q367_int8_calib": """
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
                       FROM embeddings),
            dims AS (SELECT generate_series AS i
                     FROM generate_series(1, 64)),
            el AS (SELECT vec_id, i, v[i] AS x FROM e CROSS JOIN dims),
            b AS (SELECT i, MIN(x) AS mn, MAX(x) AS mx
                  FROM el GROUP BY i),
            q AS (SELECT el.vec_id,
                         FLOOR((el.x - b.mn) * 255.0 / (b.mx - b.mn)
                               + 0.5) AS qq
                  FROM el JOIN b USING (i))
            SELECT vec_id, CAST(SUM(qq) AS BIGINT) AS sum_q,
                   CAST(SUM(CASE WHEN qq = 0 OR qq = 255
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_sat
            FROM q GROUP BY vec_id
        """,
        "q368_mixture_sample": """
            WITH d AS (SELECT doc_id, source,
                              len(string_split(text, ' ')) AS n_tokens,
                              md5_number_lower(CAST(doc_id AS VARCHAR))
                                % 1000000 AS ord
                       FROM documents),
            c AS (SELECT *, CAST(SUM(n_tokens) OVER (
                      PARTITION BY source ORDER BY ord, doc_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                      AS BIGINT) AS cum_tokens
                  FROM d)
            SELECT doc_id, source, CAST(n_tokens AS BIGINT) AS n_tokens,
                   cum_tokens
            FROM c WHERE cum_tokens - n_tokens < 600
        """,
        "q369_editdist_pairs": """
            WITH d AS (SELECT doc_id, substr(text, 1, 60) AS s,
                              string_split(text, ' ')[1] AS ft
                       FROM documents)
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
            FROM d a JOIN d b
              ON a.doc_id < b.doc_id AND a.ft = b.ft
            WHERE abs(length(a.s) - length(b.s)) <= 5
              AND levenshtein(a.s, b.s) <= 5
            ORDER BY id_a, id_b
        """,
        "q370_exact_substr": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            g AS (SELECT doc_id, i.i AS pos,
                         array_to_string(ws[i.i + 1 : i.i + 8], ' ') AS gram
                  FROM w CROSS JOIN (SELECT generate_series AS i
                                     FROM generate_series(0, 127)) i
                  WHERE i.i + 8 <= len(ws)),
            j AS (SELECT DISTINCT a.doc_id AS ida, b.doc_id AS idb,
                         a.pos AS pa, a.pos - b.pos AS diag
                  FROM g a JOIN g b USING (gram)
                  WHERE a.doc_id < b.doc_id),
            isl AS (SELECT ida, idb, diag, pa,
                       pa - ROW_NUMBER() OVER (PARTITION BY ida, idb, diag
                                               ORDER BY pa) AS grp
                    FROM j),
            runs AS (SELECT ida, idb, COUNT(*) + 7 AS shared
                     FROM isl GROUP BY ida, idb, diag, grp)
            SELECT ida AS id_a, idb AS id_b,
                   CAST(MAX(shared) AS BIGINT) AS max_shared_tokens
            FROM runs GROUP BY ida, idb
            HAVING MAX(shared) >= 12
        """,
        "q371_neighbor_agg": """
            WITH sub AS (SELECT vec_id,
                                CAST(embedding AS DOUBLE[]) AS v
                         FROM embeddings WHERE vec_id < 600),
            p AS (SELECT a.vec_id AS src, b.vec_id AS dst,
                    CAST(ROUND(list_cosine_similarity(a.v, b.v)
                               * 1000000.0) AS BIGINT) AS sim_micro
                  FROM sub a JOIN sub b ON a.vec_id <> b.vec_id),
            r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY src
                      ORDER BY sim_micro DESC, dst) AS rank FROM p)
            SELECT r.src, COUNT(*) AS n_nbrs,
                   CAST(SUM(e.label) AS BIGINT) AS label_sum
            FROM r JOIN embeddings e ON e.vec_id = r.dst
            WHERE r.rank <= 3 GROUP BY r.src
        """,
        # q372: Gopher repetition screens — integer counts only, so the
        # oracle is two grouped aggregates over the same single-space
        # token stream (top bigram via the fixed-bound series pattern,
        # q35/q366 style; documents are < 128 tokens at every sf)
        "q372_repetition_stats": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            tok AS (SELECT doc_id, unnest(ws) AS t FROM w),
            s AS (SELECT doc_id, COUNT(*) AS n_words,
                         COUNT(DISTINCT t) AS n_distinct
                  FROM tok GROUP BY doc_id),
            bg AS (SELECT doc_id,
                          ws[g.i] || ' ' || ws[g.i + 1] AS b
                   FROM w CROSS JOIN (SELECT generate_series AS i
                                      FROM generate_series(1, 127)) g
                   WHERE g.i + 1 <= len(ws)),
            bc AS (SELECT doc_id, b, COUNT(*) AS c
                   FROM bg GROUP BY doc_id, b),
            top AS (SELECT doc_id, MAX(c) AS top_bigram_n
                    FROM bc GROUP BY doc_id)
            SELECT s.doc_id, CAST(s.n_words AS BIGINT) AS n_words,
                   CAST(s.n_distinct AS BIGINT) AS n_distinct,
                   CAST(COALESCE(t.top_bigram_n, 0) AS BIGINT)
                       AS top_bigram_n
            FROM s LEFT JOIN top t USING (doc_id)
        """,
        # q373: greedy k-center unrolled (k=4): each sN picks the
        # max-min-distance vector (dist_micro = 1e6 − ROUND(cos·1e6),
        # ties to the smaller id); dN chains LEAST against the new
        # center. Engine mirrors the identical integer arithmetic.
        "q373_kcenter": """
            WITH e AS (SELECT vec_id,
                              CAST(embedding AS DOUBLE[]) AS v
                       FROM embeddings WHERE vec_id < 400),
            s1 AS (SELECT MIN(vec_id) AS id FROM e),
            d1 AS (SELECT e.vec_id,
                          1000000 - CAST(ROUND(list_cosine_similarity(
                              e.v, (SELECT v FROM e
                                    WHERE vec_id = (SELECT id FROM s1)))
                              * 1000000.0) AS BIGINT) AS d
                   FROM e WHERE e.vec_id <> (SELECT id FROM s1)),
            s2 AS (SELECT vec_id AS id, d FROM d1
                   ORDER BY d DESC, vec_id LIMIT 1),
            d2 AS (SELECT d1.vec_id,
                          LEAST(d1.d,
                                1000000 - CAST(ROUND(list_cosine_similarity(
                                    e.v, (SELECT v FROM e
                                          WHERE vec_id = (SELECT id FROM s2)))
                                    * 1000000.0) AS BIGINT)) AS d
                   FROM d1 JOIN e USING (vec_id)
                   WHERE d1.vec_id <> (SELECT id FROM s2)),
            s3 AS (SELECT vec_id AS id, d FROM d2
                   ORDER BY d DESC, vec_id LIMIT 1),
            d3 AS (SELECT d2.vec_id,
                          LEAST(d2.d,
                                1000000 - CAST(ROUND(list_cosine_similarity(
                                    e.v, (SELECT v FROM e
                                          WHERE vec_id = (SELECT id FROM s3)))
                                    * 1000000.0) AS BIGINT)) AS d
                   FROM d2 JOIN e USING (vec_id)
                   WHERE d2.vec_id <> (SELECT id FROM s3)),
            s4 AS (SELECT vec_id AS id, d FROM d3
                   ORDER BY d DESC, vec_id LIMIT 1)
            SELECT CAST(1 AS BIGINT) AS rank,
                   (SELECT id FROM s1) AS vec_id,
                   CAST(0 AS BIGINT) AS dist_micro
            UNION ALL SELECT 2, id, d FROM s2
            UNION ALL SELECT 3, id, d FROM s3
            UNION ALL SELECT 4, id, d FROM s4
            ORDER BY rank
        """,
        # q374: SemDeDup — clusters seeded at ids 0..7 (argmax cosine,
        # ties to smaller centroid id), drop when a lower-id cluster
        # mate reaches 0.95 cosine; −1000001 marks "no lower mate"
        "q374_semdedup": """
            WITH e AS (SELECT vec_id,
                              CAST(embedding AS DOUBLE[]) AS v
                       FROM embeddings WHERE vec_id < 500),
            c AS (SELECT vec_id AS cid, v AS cv FROM e
                  WHERE vec_id < 8),
            a AS (SELECT e.vec_id, e.v,
                         (SELECT c.cid FROM c
                          ORDER BY CAST(ROUND(list_cosine_similarity(
                                        e.v, c.cv) * 1000000.0)
                                   AS BIGINT) DESC, c.cid
                          LIMIT 1) AS cluster_id
                  FROM e),
            s AS (SELECT a.vec_id, a.cluster_id,
                         (SELECT MAX(CAST(ROUND(list_cosine_similarity(
                                          a.v, b.v) * 1000000.0)
                                     AS BIGINT))
                          FROM a b
                          WHERE b.cluster_id = a.cluster_id
                            AND b.vec_id < a.vec_id) AS mx
                  FROM a)
            SELECT vec_id, cluster_id,
                   CAST(COALESCE(mx, -1000001) AS BIGINT)
                       AS max_lower_sim_micro,
                   COALESCE(mx, -1000001) < 950000 AS kept
            FROM s ORDER BY vec_id
        """,
        # q375: cross-source distinct-3-gram overlap (q366's gram rule:
        # whole-doc gram for docs shorter than n)
        "q375_source_overlap": """
            WITH w AS (SELECT doc_id, source,
                              string_split(text, ' ') AS ws
                       FROM documents),
            g AS (SELECT source,
                         array_to_string(ws[g.i + 1 : g.i + 3], ' ')
                             AS gram
                  FROM w CROSS JOIN (SELECT generate_series AS i
                                     FROM generate_series(0, 127)) g
                  WHERE g.i + 3 <= len(ws)
                     OR (g.i = 0 AND len(ws) < 3)),
            gd AS (SELECT DISTINCT source, gram FROM g)
            SELECT a.source AS source_a, b.source AS source_b,
                   CAST(COUNT(*) AS BIGINT) AS shared_grams
            FROM gd a JOIN gd b USING (gram)
            WHERE a.source < b.source
            GROUP BY 1, 2
        """,
        # q376: truncation dups — token-list prefix containment via
        # DuckDB list slice equality (1-based inclusive ws[1:n])
        "q376_truncation_dups": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            f AS (SELECT doc_id, ws, len(ws) AS n,
                         array_to_string(ws[1:6], ' ') AS head
                  FROM w WHERE len(ws) >= 6)
            SELECT a.doc_id AS id_short, b.doc_id AS id_long,
                   CAST(a.n AS BIGINT) AS n_tokens_short
            FROM f a JOIN f b
              ON a.head = b.head AND a.n < b.n
            WHERE b.ws[1:a.n] = a.ws
            ORDER BY id_short, id_long
        """,
        "q280_delta_varint": """
            WITH s AS (SELECT user_id, epoch_us(ts) AS v FROM events),
            d AS (SELECT user_id, v,
                         LAG(v) OVER (PARTITION BY user_id
                                      ORDER BY v) AS p
                  FROM s),
            e AS (SELECT user_id,
                         CASE WHEN p IS NULL THEN 8
                              WHEN v - p = 0 THEN 1
                              ELSE (length(bin(v - p)) + 6) // 7
                         END AS vb,
                         CASE WHEN p IS NULL OR v = p THEN 0
                              ELSE length(bin(v - p)) END AS mb
                  FROM d)
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(8 * COUNT(*) AS BIGINT) AS raw_bytes,
                   CAST(SUM(vb) AS BIGINT) AS varint_bytes,
                   CAST(MAX(mb) AS BIGINT) AS max_bits
            FROM e GROUP BY 1 ORDER BY 1
        """,
        "q279_reciprocity": """
            WITH e AS (SELECT DISTINCT
                              l_partkey * 17 % 2000 AS u,
                              (l_suppkey * 131 + l_partkey) % 2000 AS v
                       FROM lineitem
                       WHERE l_partkey * 17 % 2000
                             <> (l_suppkey * 131 + l_partkey) % 2000),
            r AS (SELECT e.u, e.v,
                         CASE WHEN EXISTS (SELECT 1 FROM e e2
                                           WHERE e2.u = e.v
                                             AND e2.v = e.u)
                              THEN 1 ELSE 0 END AS has_rev
                  FROM e)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_directed,
                   CAST(COUNT(DISTINCT LEAST(u, v) * 2147483648
                              + GREATEST(u, v)) AS BIGINT)
                       AS n_undirected,
                   CAST(SUM(has_rev) // 2 AS BIGINT) AS n_reciprocal
            FROM r
        """,
        "q277_ks_test": """
            WITH s AS (SELECT event_type,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v
                       FROM events
                       WHERE event_type IN ('click', 'view')),
            h AS (SELECT v,
                         CAST(SUM(CASE WHEN event_type = 'click'
                                  THEN 1 ELSE 0 END) AS BIGINT) AS ca,
                         CAST(SUM(CASE WHEN event_type = 'view'
                                  THEN 1 ELSE 0 END) AS BIGINT) AS cb
                  FROM s GROUP BY 1),
            c AS (SELECT v,
                         SUM(ca) OVER (ORDER BY v) AS cca,
                         SUM(cb) OVER (ORDER BY v) AS ccb
                  FROM h),
            t AS (SELECT CAST(SUM(ca) AS BIGINT) AS na,
                         CAST(SUM(cb) AS BIGINT) AS nb
                  FROM h)
            SELECT t.na AS n_a, t.nb AS n_b,
                   CAST(MAX(ABS(t.nb * c.cca - t.na * c.ccb))
                        AS BIGINT) AS ks_num,
                   CAST(t.na * t.nb AS BIGINT) AS ks_den
            FROM c CROSS JOIN t GROUP BY 1, 2
        """,
        "q278_pair_lift": """
            WITH hi AS (SELECT user_id, event_type FROM events
                        WHERE CAST(ROUND(value * 100.0) AS BIGINT)
                              > 20000),
            d AS (SELECT DISTINCT user_id, event_type FROM hi),
            n AS (SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT)
                      AS nk FROM hi),
            c AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS cnt
                  FROM d GROUP BY 1),
            p AS (SELECT a.event_type AS cat_a, b.event_type AS cat_b,
                         CAST(COUNT(*) AS BIGINT) AS n_both
                  FROM d a JOIN d b ON b.user_id = a.user_id
                       AND b.event_type > a.event_type
                  GROUP BY 1, 2)
            SELECT p.cat_a, p.cat_b, p.n_both,
                   ca.cnt AS n_a, cb.cnt AS n_b, n.nk AS n_keys
            FROM p
            JOIN c ca ON ca.event_type = p.cat_a
            JOIN c cb ON cb.event_type = p.cat_b
            CROSS JOIN n
            WHERE p.n_both * n.nk >= ca.cnt * cb.cnt
            ORDER BY 1, 2
        """,
        "q275_lift": """
            WITH s AS (SELECT event_id,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v,
                              CASE WHEN event_type = 'click'
                                   THEN 1 ELSE 0 END AS pos
                       FROM events),
            r AS (SELECT *, NTILE(10) OVER (ORDER BY v DESC, event_id)
                                AS tile
                  FROM s),
            a AS (SELECT tile, CAST(COUNT(*) AS BIGINT) AS n,
                         CAST(SUM(pos) AS BIGINT) AS n_pos
                  FROM r GROUP BY 1)
            SELECT tile, n, n_pos,
                   CAST(SUM(n_pos) OVER (ORDER BY tile) AS BIGINT)
                       AS cum_pos
            FROM a ORDER BY 1
        """,
        "q276_auc": """
            WITH s AS (SELECT CAST(ROUND(value * 100.0) AS BIGINT) AS v,
                              CASE WHEN event_type = 'click'
                                   THEN 1 ELSE 0 END AS pos
                       FROM events),
            h AS (SELECT v, CAST(SUM(pos) AS BIGINT) AS p,
                         CAST(COUNT(*) - SUM(pos) AS BIGINT) AS ng
                  FROM s GROUP BY 1),
            c AS (SELECT v, p, ng,
                         COALESCE(SUM(ng) OVER (ORDER BY v
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING), 0) AS cnb
                  FROM h)
            SELECT CAST(SUM(p) AS BIGINT) AS n_pos,
                   CAST(SUM(ng) AS BIGINT) AS n_neg,
                   CAST(SUM(p * (2 * cnb + ng)) AS BIGINT) AS auc_num,
                   CAST(2 * SUM(p) * SUM(ng) AS BIGINT) AS auc_den
            FROM c
        """,
        "q273_stratified_sample": """
            WITH c AS (SELECT event_type, COUNT(*) AS n FROM events
                       GROUP BY 1),
            a AS (SELECT event_type, n, SUM(n) OVER () AS W FROM c),
            b AS (SELECT event_type, n, (1000 * n) // W AS base,
                         (1000 * n) % W AS rem
                  FROM a),
            l AS (SELECT *, 1000 - SUM(base) OVER () AS lft,
                         ROW_NUMBER() OVER (ORDER BY rem DESC,
                                            event_type) - 1 AS rk
                  FROM b),
            alloc AS (SELECT event_type,
                             base + CASE WHEN rk < lft THEN 1 ELSE 0 END
                                 AS ns
                      FROM l),
            r AS (SELECT event_type, event_id,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                             ORDER BY md5(CAST(event_id AS VARCHAR)),
                                      event_id) AS rn
                  FROM events)
            SELECT r.event_type, r.event_id
            FROM r JOIN alloc USING (event_type)
            WHERE r.rn <= alloc.ns ORDER BY 1, 2
        """,
        "q274_containment": _containment_sql(),
        "q271_benford": """
            WITH s AS (SELECT event_type,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v
                       FROM events)
            SELECT event_type,
                   CAST(substr(CAST(v AS VARCHAR), 1, 1) AS BIGINT)
                       AS digit,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM s WHERE v > 0 GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q272_front_coding": """
            WITH d AS (SELECT DISTINCT p_name FROM part),
            s AS (SELECT p_name, substr(p_name, 1, 1) AS fc,
                         LAG(p_name) OVER (ORDER BY p_name) AS prev
                  FROM d),
            l AS (SELECT fc, length(p_name) AS len,
                         CASE WHEN prev IS NULL
                                   OR substr(prev, 1, 1) <> fc THEN 0
                              ELSE COALESCE(
                                  (SELECT MAX(j.j) FROM (
                                       SELECT UNNEST(generate_series(
                                           1, LEAST(length(p_name),
                                                    length(prev))))
                                           AS j) j
                                   WHERE substr(p_name, 1, j.j)
                                         = substr(prev, 1, j.j)), 0)
                         END AS lcp
                  FROM s)
            SELECT fc AS first_char,
                   CAST(COUNT(*) AS BIGINT) AS n_terms,
                   CAST(SUM(len) AS BIGINT) AS total_bytes,
                   CAST(SUM(lcp) AS BIGINT) AS saved_bytes
            FROM l GROUP BY 1 ORDER BY 1
        """,
        "q268_shoelace": """
            WITH dirs(i, dx, dy) AS (VALUES
                (0, 1, 0), (1, 1, 1), (2, 0, 1), (3, -1, 1),
                (4, -1, 0), (5, -1, -1), (6, 0, -1), (7, 1, -1)),
            v AS (
                SELECT o.o_orderkey AS g, d.i,
                       100 + ((o.o_orderkey * (d.i + 3)) % 9 + 2)
                           * d.dx AS x,
                       100 + ((o.o_orderkey * (d.i + 3)) % 9 + 2)
                           * d.dy AS y
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 11 = 0) o
                CROSS JOIN dirs d),
            w AS (SELECT a.g, a.x, a.y, b.x AS nx, b.y AS ny
                  FROM v a JOIN v b ON b.g = a.g
                       AND b.i = (a.i + 1) % 8)
            SELECT g AS gid, CAST(8 AS BIGINT) AS n_vertices,
                   CAST(SUM(x * ny - nx * y) AS BIGINT) AS twice_area,
                   CAST(SUM((x + nx) * (x * ny - nx * y)) AS BIGINT)
                       AS cx_num,
                   CAST(SUM((y + ny) * (x * ny - nx * y)) AS BIGINT)
                       AS cy_num
            FROM w GROUP BY 1 ORDER BY 1
        """,
        "q269_lbp": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 241 = 0),
            px AS MATERIALIZED (
                SELECT ks.k, x.x, y.y,
                       ((ks.k * 13 + x.x * 7 + y.y * 3) % 256) // 32 AS v
                FROM ks
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 13)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 10)) y),
            code AS (
                SELECT c.k,
                       (CASE WHEN w.v >= c.v THEN 1 ELSE 0 END)
                     + (CASE WHEN nw.v >= c.v THEN 2 ELSE 0 END)
                     + (CASE WHEN n.v >= c.v THEN 4 ELSE 0 END)
                     + (CASE WHEN ne.v >= c.v THEN 8 ELSE 0 END)
                     + (CASE WHEN e.v >= c.v THEN 16 ELSE 0 END)
                     + (CASE WHEN se.v >= c.v THEN 32 ELSE 0 END)
                     + (CASE WHEN s.v >= c.v THEN 64 ELSE 0 END)
                     + (CASE WHEN sw.v >= c.v THEN 128 ELSE 0 END)
                         AS code
                FROM px c
                JOIN px w  ON w.k = c.k AND w.x = c.x - 1 AND w.y = c.y
                JOIN px nw ON nw.k = c.k AND nw.x = c.x - 1
                          AND nw.y = c.y - 1
                JOIN px n  ON n.k = c.k AND n.x = c.x AND n.y = c.y - 1
                JOIN px ne ON ne.k = c.k AND ne.x = c.x + 1
                          AND ne.y = c.y - 1
                JOIN px e  ON e.k = c.k AND e.x = c.x + 1 AND e.y = c.y
                JOIN px se ON se.k = c.k AND se.x = c.x + 1
                          AND se.y = c.y + 1
                JOIN px s  ON s.k = c.k AND s.x = c.x AND s.y = c.y + 1
                JOIN px sw ON sw.k = c.k AND sw.x = c.x - 1
                          AND sw.y = c.y + 1
                WHERE c.x BETWEEN 1 AND 12 AND c.y BETWEEN 1 AND 9)
            SELECT k AS o_orderkey,
                   CAST(COUNT(*) FILTER (WHERE bit_count(
                        CAST(xor(code, (code // 2)
                                 + (code % 2) * 128) AS BIGINT)) <= 2)
                        AS BIGINT) AS n_uniform,
                   CAST(SUM(code) AS BIGINT) AS code_checksum,
                   CAST(COUNT(DISTINCT code) AS BIGINT) AS n_codes
            FROM code GROUP BY 1 ORDER BY 1
        """,
        "q270_blob_stats": """WITH ks AS (SELECT o_orderkey AS k FROM orders
                      WHERE o_orderkey % 239 = 0),
            m0 AS MATERIALIZED (
                SELECT ks.k, x.x, y.y,
                       CASE WHEN (x.x - (4 + ks.k % 6))
                                * (x.x - (4 + ks.k % 6))
                              + (y.y - (4 + (ks.k // 6) % 4))
                                * (y.y - (4 + (ks.k // 6) % 4))
                              <= 5 + ks.k % 9
                              OR (y.y >= 2 + ks.k % 7
                                  AND y.y <= 3 + ks.k % 7
                                  AND x.x BETWEEN 1 AND 12)
                            THEN y.y * 14 + x.x ELSE NULL END AS lbl,
                       x.x, y.y
                FROM ks
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 13)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 11)) y),\n            m1 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m0 c
                LEFT JOIN m0 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m0 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m0 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m0 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m0 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m0 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m0 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m0 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m2 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m1 c
                LEFT JOIN m1 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m1 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m1 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m1 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m1 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m1 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m1 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m1 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m3 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m2 c
                LEFT JOIN m2 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m2 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m2 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m2 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m2 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m2 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m2 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m2 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m4 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m3 c
                LEFT JOIN m3 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m3 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m3 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m3 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m3 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m3 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m3 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m3 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m5 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m4 c
                LEFT JOIN m4 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m4 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m4 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m4 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m4 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m4 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m4 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m4 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m6 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m5 c
                LEFT JOIN m5 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m5 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m5 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m5 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m5 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m5 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m5 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m5 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m7 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m6 c
                LEFT JOIN m6 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m6 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m6 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m6 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m6 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m6 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m6 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m6 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m8 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m7 c
                LEFT JOIN m7 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m7 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m7 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m7 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m7 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m7 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m7 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m7 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m9 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m8 c
                LEFT JOIN m8 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m8 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m8 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m8 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m8 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m8 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m8 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m8 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m10 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m9 c
                LEFT JOIN m9 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m9 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m9 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m9 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m9 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m9 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m9 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m9 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m11 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m10 c
                LEFT JOIN m10 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m10 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m10 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m10 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m10 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m10 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m10 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m10 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m12 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m11 c
                LEFT JOIN m11 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m11 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m11 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m11 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m11 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m11 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m11 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m11 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m13 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m12 c
                LEFT JOIN m12 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m12 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m12 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m12 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m12 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m12 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m12 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m12 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m14 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m13 c
                LEFT JOIN m13 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m13 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m13 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m13 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m13 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m13 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m13 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m13 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m15 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m14 c
                LEFT JOIN m14 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m14 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m14 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m14 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m14 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m14 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m14 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m14 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1),\n            m16 AS MATERIALIZED (
                SELECT c.k, c.x, c.y,
                       CASE WHEN c.lbl IS NULL THEN NULL
                            ELSE LEAST(c.lbl,
                                 COALESCE(p1.lbl, c.lbl),
                                 COALESCE(p2.lbl, c.lbl),
                                 COALESCE(p3.lbl, c.lbl),
                                 COALESCE(p4.lbl, c.lbl),
                                 COALESCE(p5.lbl, c.lbl),
                                 COALESCE(p6.lbl, c.lbl),
                                 COALESCE(p7.lbl, c.lbl),
                                 COALESCE(p8.lbl, c.lbl)) END AS lbl
                FROM m15 c
                LEFT JOIN m15 p1 ON p1.k=c.k AND p1.x=c.x+1 AND p1.y=c.y
                LEFT JOIN m15 p2 ON p2.k=c.k AND p2.x=c.x-1 AND p2.y=c.y
                LEFT JOIN m15 p3 ON p3.k=c.k AND p3.x=c.x AND p3.y=c.y+1
                LEFT JOIN m15 p4 ON p4.k=c.k AND p4.x=c.x AND p4.y=c.y-1
                LEFT JOIN m15 p5 ON p5.k=c.k AND p5.x=c.x+1 AND p5.y=c.y+1
                LEFT JOIN m15 p6 ON p6.k=c.k AND p6.x=c.x-1 AND p6.y=c.y-1
                LEFT JOIN m15 p7 ON p7.k=c.k AND p7.x=c.x+1 AND p7.y=c.y-1
                LEFT JOIN m15 p8 ON p8.k=c.k AND p8.x=c.x-1 AND p8.y=c.y+1)
            , blobs AS (SELECT k, lbl, COUNT(*) AS sz FROM m16
                        WHERE lbl IS NOT NULL GROUP BY 1, 2)
            SELECT k AS o_orderkey,
                   CAST(COUNT(*) AS BIGINT) AS n_blobs,
                   CAST(MAX(sz) AS BIGINT) AS max_blob,
                   CAST(SUM(lbl) AS BIGINT) AS label_checksum
            FROM blobs GROUP BY 1 ORDER BY 1""",
        "q266_seq_packing": """
            WITH RECURSIVE s AS (
                SELECT source, doc_id, n_chars AS t,
                       ROW_NUMBER() OVER (PARTITION BY source
                                          ORDER BY doc_id) AS rn
                FROM documents),
            r AS (
                SELECT source, doc_id, t, rn, t AS fill, 0 AS bin
                FROM s WHERE rn = 1
                UNION ALL
                SELECT s.source, s.doc_id, s.t, s.rn,
                       CASE WHEN r.fill + s.t <= 2000
                            THEN r.fill + s.t ELSE s.t END,
                       CASE WHEN r.fill + s.t <= 2000
                            THEN r.bin ELSE r.bin + 1 END
                FROM r JOIN s ON s.source = r.source
                            AND s.rn = r.rn + 1)
            SELECT source, doc_id, CAST(t AS BIGINT) AS n_tokens,
                   CAST(bin AS BIGINT) AS bin_id
            FROM r ORDER BY 1, 2
        """,
        "q267_linear_reference": """
            WITH p0 AS (
                SELECT l_orderkey % 389 AS g,
                       (l_orderkey // 389) * 8 + l_linenumber AS t,
                       MIN((l_partkey % 64) * 64 + l_suppkey % 64) AS c
                FROM lineitem GROUP BY 1, 2),
            pts AS (SELECT g, t, c // 64 AS x, c % 64 AS y FROM p0),
            seg AS (
                SELECT g, t, x, y,
                       ROW_NUMBER() OVER w AS i,
                       LEAD(x) OVER w AS nx, LEAD(y) OVER w AS ny,
                       abs(LEAD(x) OVER w - x)
                       + abs(LEAD(y) OVER w - y) AS sl
                FROM pts WINDOW w AS (PARTITION BY g ORDER BY t)),
            pref AS (
                SELECT *,
                       COALESCE(SUM(sl) OVER (PARTITION BY g ORDER BY t
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS pr,
                       COALESCE(SUM(sl) OVER (PARTITION BY g), 0)
                           AS tot
                FROM seg),
            fr(p) AS (VALUES (1), (2), (3)),
            cand AS (
                SELECT pref.g, fr.p, pref.x, pref.y, pref.nx, pref.ny,
                       pref.sl, pref.pr, (pref.tot * fr.p) // 4 AS tgt
                FROM pref CROSS JOIN fr
                WHERE pref.pr <= (pref.tot * fr.p) // 4
                QUALIFY ROW_NUMBER() OVER (PARTITION BY pref.g, fr.p
                                           ORDER BY pref.i DESC) = 1)
            -- floor division (DuckDB // truncates; the interpolation
            -- numerator can be negative): (a - posmod(a, b)) // b
            SELECT g AS gid, CAST(p AS BIGINT) AS frac_num,
                   CAST(x + (COALESCE(nx - x, 0) * (tgt - pr)
                        - ((COALESCE(nx - x, 0) * (tgt - pr))
                           % GREATEST(COALESCE(sl, 0), 1)
                           + GREATEST(COALESCE(sl, 0), 1))
                          % GREATEST(COALESCE(sl, 0), 1))
                        // GREATEST(COALESCE(sl, 0), 1) AS BIGINT)
                       AS px,
                   CAST(y + (COALESCE(ny - y, 0) * (tgt - pr)
                        - ((COALESCE(ny - y, 0) * (tgt - pr))
                           % GREATEST(COALESCE(sl, 0), 1)
                           + GREATEST(COALESCE(sl, 0), 1))
                          % GREATEST(COALESCE(sl, 0), 1))
                        // GREATEST(COALESCE(sl, 0), 1) AS BIGINT)
                       AS py
            FROM cand ORDER BY 1, 2
        """,
        "q264_largest_remainder": """
            WITH c AS (SELECT event_type, user_id, COUNT(*) AS n
                       FROM events GROUP BY 1, 2),
            s AS (SELECT event_type, user_id, n,
                         SUM(n) OVER (PARTITION BY event_type) AS W
                  FROM c),
            b AS (SELECT *, (10000 * n) // W AS base,
                         (10000 * n) % W AS rem
                  FROM s),
            l AS (SELECT *,
                         10000 - SUM(base) OVER (PARTITION BY
                                                 event_type) AS lft,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                                            ORDER BY rem DESC,
                                                     user_id) - 1 AS rk
                  FROM b)
            SELECT event_type, user_id,
                   CAST(base + CASE WHEN rk < lft THEN 1 ELSE 0 END
                        AS BIGINT) AS alloc
            FROM l ORDER BY 1, 2
        """,
        "q265_mase": """
            WITH s AS (SELECT user_id,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v,
                              ROW_NUMBER() OVER (PARTITION BY user_id
                                                 ORDER BY event_id)
                                  AS rn
                       FROM events),
            d AS (SELECT user_id, v,
                         LAG(v, 1) OVER (PARTITION BY user_id
                                         ORDER BY rn) AS p1,
                         LAG(v, 7) OVER (PARTITION BY user_id
                                         ORDER BY rn) AS p7
                  FROM s)
            SELECT user_id,
                   CAST(COUNT(p1) AS BIGINT) AS m1,
                   CAST(COALESCE(SUM(ABS(v - p1)), 0) AS BIGINT)
                       AS abs_naive,
                   CAST(COUNT(p7) AS BIGINT) AS ms,
                   CAST(COALESCE(SUM(ABS(v - p7)), 0) AS BIGINT)
                       AS abs_seasonal
            FROM d GROUP BY 1 ORDER BY 1
        """,
        "q261_sliding_max": """
            WITH s AS (SELECT user_id, event_id,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v
                       FROM events)
            SELECT user_id, event_id,
                   CAST(MAX(v) OVER (PARTITION BY user_id
                                     ORDER BY event_id
                                     ROWS BETWEEN 4 PRECEDING
                                     AND CURRENT ROW) AS BIGINT)
                       AS wmax
            FROM s ORDER BY 1, 2
        """,
        "q262_emd1d": """
            WITH e AS (SELECT event_type,
                              LEAST(GREATEST(
                                  CAST(ROUND(value * 100.0) AS BIGINT)
                                  // 200, 0), 63) AS b
                       FROM events),
            h AS (SELECT event_type, b, COUNT(*) AS n
                  FROM e GROUP BY 1, 2),
            grid AS (SELECT t.event_type, g.g AS b
                     FROM (SELECT DISTINCT event_type FROM e) t
                     CROSS JOIN (SELECT generate_series AS g
                                 FROM generate_series(0, 63)) g),
            f AS (SELECT grid.event_type, grid.b,
                         COALESCE(h.n, 0) AS n
                  FROM grid LEFT JOIN h USING (event_type, b)),
            c AS (SELECT event_type, b,
                         SUM(n) OVER (PARTITION BY event_type
                                      ORDER BY b) AS ck,
                         SUM(n) OVER (PARTITION BY event_type) AS nk
                  FROM f),
            gg AS (SELECT b, SUM(n) AS gn FROM f GROUP BY 1),
            cg AS (SELECT b, SUM(gn) OVER (ORDER BY b) AS cgb FROM gg),
            tot AS (SELECT CAST(SUM(n) AS BIGINT) AS ng FROM f)
            SELECT c.event_type, CAST(MAX(c.nk) AS BIGINT) AS n,
                   CAST(SUM(ABS(tot.ng * c.ck - c.nk * cg.cgb))
                        AS BIGINT) AS emd_num,
                   CAST(MAX(c.nk) * tot.ng AS BIGINT) AS emd_den
            FROM c JOIN cg USING (b) CROSS JOIN tot
            WHERE c.b < 63
            GROUP BY 1, tot.ng ORDER BY 1
        """,
        "q263_audience_overlap": """
            WITH d AS (SELECT DISTINCT user_id, event_type FROM events)
            SELECT a.event_type AS cat_a, b.event_type AS cat_b,
                   CAST(COUNT(*) AS BIGINT) AS n_both
            FROM d a JOIN d b ON b.user_id = a.user_id
                 AND b.event_type > a.event_type
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q258_nearest_join": """
            WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS t
                       FROM events WHERE event_type = 'error'),
            v AS (SELECT user_id, epoch_us(ts) AS t,
                         CAST(ROUND(value * 100.0) AS BIGINT) AS vc
                  FROM events WHERE event_type = 'view')
            SELECT e.user_id, e.t AS ts_us, e.event_id,
                   v.t AS ts_us_r, v.vc AS value_cents_r
            FROM e JOIN v ON v.user_id = e.user_id
            QUALIFY ROW_NUMBER() OVER (PARTITION BY e.event_id
                                       ORDER BY abs(v.t - e.t), v.t)
                    = 1
            ORDER BY e.event_id
        """,
        "q259_locf": """
            WITH s AS (SELECT user_id, epoch_us(ts) AS t,
                              MIN(CAST(ROUND(value * 100.0) AS BIGINT))
                                  AS v
                       FROM events GROUP BY 1, 2),
            b AS (SELECT user_id, MIN(t) AS tmin, MAX(t) AS tmax
                  FROM s GROUP BY 1),
            ticks AS (
                SELECT b.user_id, g.g * 3600000000 AS tick
                FROM b JOIN (SELECT generate_series AS g
                             FROM generate_series(0, 600000)) g
                  ON g.g * 3600000000 >= b.tmin
                 AND g.g * 3600000000 <= b.tmax)
            SELECT t.user_id, t.tick, s.v
            FROM ticks t ASOF JOIN s
                 ON s.user_id = t.user_id AND t.tick >= s.t
            ORDER BY 1, 2
        """,
        "q260_cdf_join": """
            WITH r AS (SELECT CAST(ROUND(o_totalprice * 100.0)
                              AS BIGINT) AS rv FROM orders),
            e AS (SELECT event_id,
                         CAST(ROUND(value * 100.0) AS BIGINT) AS v
                  FROM events)
            SELECT e.event_id, e.v AS value_cents,
                   CAST((SELECT COUNT(*) FROM r WHERE r.rv <= e.v)
                        AS BIGINT) AS rank_le,
                   CAST((SELECT COUNT(*) FROM r) AS BIGINT) AS n_ref
            FROM e ORDER BY 1
        """,
        "q255_twap": """
            WITH s AS (SELECT user_id, epoch_us(ts) AS t,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v
                       FROM events),
            d AS (SELECT user_id, v,
                         LEAD(t) OVER (PARTITION BY user_id
                                       ORDER BY t) - t AS dt
                  FROM s)
            SELECT user_id,
                   CAST(SUM(v * dt) AS BIGINT) AS twap_num,
                   CAST(SUM(dt) AS BIGINT) AS twap_den,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM d GROUP BY 1 HAVING SUM(dt) > 0 ORDER BY 1
        """,
        "q256_label_dict": """
            WITH d AS (SELECT p_name, COUNT(*) AS n FROM part
                       GROUP BY 1)
            SELECT p_name,
                   CAST(ROW_NUMBER() OVER (ORDER BY p_name) - 1
                        AS BIGINT) AS label_id,
                   CAST(n AS BIGINT) AS n
            FROM d ORDER BY 1
        """,
        "q257_str_pack": """
            WITH p AS (SELECT o_orderkey AS id,
                              (o_orderkey * 7) % 500 AS cx,
                              (o_orderkey * 13) % 500 AS cy
                       FROM orders),
            r AS (SELECT *, NTILE(8) OVER (ORDER BY cx, id) AS slab
                  FROM p),
            l AS (SELECT *, NTILE(8) OVER (PARTITION BY slab
                                           ORDER BY cy, id) AS leaf
                  FROM r)
            SELECT slab, leaf, CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(MIN(cx) AS BIGINT) AS min_x,
                   CAST(MAX(cx) AS BIGINT) AS max_x,
                   CAST(MIN(cy) AS BIGINT) AS min_y,
                   CAST(MAX(cy) AS BIGINT) AS max_y
            FROM l GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q253_rolling_active": """
            WITH ud AS (SELECT DISTINCT user_id,
                               epoch_us(ts) // 86400000000 AS day
                        FROM events),
            days AS (SELECT DISTINCT day FROM ud)
            SELECT d.day,
                   CAST((SELECT COUNT(*) FROM ud
                         WHERE ud.day = d.day) AS BIGINT) AS dau,
                   CAST((SELECT COUNT(DISTINCT user_id) FROM ud
                         WHERE ud.day BETWEEN d.day - 6 AND d.day)
                        AS BIGINT) AS wau
            FROM days d ORDER BY 1
        """,
        "q254_shared_ngrams": _shared_ngrams_sql(),
        "q250_ohlc": """
            WITH s AS (SELECT event_type, event_id,
                              epoch_us(ts) AS t,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v
                       FROM events),
            w AS (SELECT event_type, t // 3600000000 AS window_id,
                         v,
                         ROW_NUMBER() OVER (PARTITION BY event_type,
                                            t // 3600000000
                                            ORDER BY t, event_id) AS rf,
                         ROW_NUMBER() OVER (PARTITION BY event_type,
                                            t // 3600000000
                                            ORDER BY t DESC,
                                                     event_id DESC) AS rl
                  FROM s)
            SELECT event_type, window_id,
                   CAST(MAX(CASE WHEN rf = 1 THEN v END) AS BIGINT)
                       AS open,
                   CAST(MAX(v) AS BIGINT) AS high,
                   CAST(MIN(v) AS BIGINT) AS low,
                   CAST(MAX(CASE WHEN rl = 1 THEN v END) AS BIGINT)
                       AS close,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM w GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q251_gini": """
            WITH c AS (SELECT user_id, event_type, COUNT(*) AS c
                       FROM events GROUP BY 1, 2),
            a AS (SELECT user_id, CAST(SUM(c) AS BIGINT) AS n,
                         CAST(SUM(c * c) AS BIGINT) AS c2
                  FROM c GROUP BY 1)
            SELECT user_id, n,
                   CAST(n * n - c2 AS BIGINT) AS gini_num,
                   CAST(n * n AS BIGINT) AS gini_den
            FROM a ORDER BY 1
        """,
        "q252_interval_join": """
            WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS s,
                              epoch_us(ts) + 300000000 AS x
                       FROM events WHERE event_type = 'error'),
            v AS (SELECT event_id, user_id, epoch_us(ts) AS s,
                         epoch_us(ts) + 180000000 AS x
                  FROM events WHERE event_type = 'view'),
            p AS (SELECT e.user_id, e.event_id AS a_id,
                         v.event_id AS b_id
                  FROM e JOIN v ON v.user_id = e.user_id
                       AND e.s < v.x AND v.s < e.x)
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_pairs,
                   CAST(SUM(a_id + 2 * b_id) AS BIGINT) AS checksum
            FROM p GROUP BY 1 ORDER BY 1
        """,
        "q247_theil_sen": """
            WITH s AS (SELECT user_id AS u, event_id AS t,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v
                       FROM events),
            p AS (SELECT a.u, b.v - a.v AS dy, b.t - a.t AS dx
                  FROM s a JOIN s b ON b.u = a.u AND b.t > a.t),
            sk AS (SELECT u, dy, dx,
                          (dy * 1099511627776
                           - ((dy * 1099511627776) % dx + dx) % dx)
                          // dx AS skey
                   FROM p),
            m AS (SELECT u, dy, dx,
                         ROW_NUMBER() OVER (PARTITION BY u
                                            ORDER BY skey, dy, dx) AS rn,
                         COUNT(*) OVER (PARTITION BY u) AS np
                  FROM sk)
            SELECT u AS user_id, CAST(dy AS BIGINT) AS med_dy,
                   CAST(dx AS BIGINT) AS med_dx,
                   CAST(np AS BIGINT) AS n_pairs
            FROM m WHERE rn = (np + 1) // 2 ORDER BY 1
        """,
        "q248_autocov": """
            WITH s AS (SELECT user_id AS u,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v,
                              ROW_NUMBER() OVER (PARTITION BY user_id
                                                 ORDER BY event_id) AS rn
                       FROM events)
            SELECT a.u AS user_id, CAST(COUNT(*) AS BIGINT) AS m,
                   CAST(SUM(a.v * b.v) AS BIGINT) AS s_xy,
                   CAST(SUM(a.v) AS BIGINT) AS s_x,
                   CAST(SUM(b.v) AS BIGINT) AS s_y
            FROM s a JOIN s b ON b.u = a.u AND b.rn = a.rn + 3
            GROUP BY 1 ORDER BY 1
        """,
        "q249_soundex": """
            WITH w AS (SELECT lower(regexp_extract(p_name,
                                     '([a-zA-Z]+)$', 1)) AS word
                       FROM part),
            dw AS (SELECT DISTINCT word FROM w),
            d0 AS (SELECT word,
                          translate(word,
                                    'abcdefghijklmnopqrstuvwxyz',
                                    '01230120022455012623010202') AS ds
                   FROM dw),
            ch AS (SELECT word, t.i AS i, substr(ds, t.i, 1) AS c
                   FROM d0,
                        LATERAL (SELECT UNNEST(generate_series(
                                     1, length(ds))) AS i) t),
            kept AS (SELECT word, i, c FROM (
                         SELECT word, i, c,
                                LAG(c) OVER (PARTITION BY word
                                             ORDER BY i) AS p
                         FROM ch)
                     WHERE i = 1 OR c <> p),
            tail AS (SELECT word, STRING_AGG(c, '' ORDER BY i) AS digs
                     FROM kept WHERE i > 1 AND c <> '0' GROUP BY word),
            code AS (SELECT dw.word,
                            upper(substr(dw.word, 1, 1))
                            || substr(COALESCE(t.digs, '') || '000',
                                      1, 3) AS code
                     FROM dw LEFT JOIN tail t USING (word)),
            cnt AS (SELECT word, COUNT(*) AS n FROM w GROUP BY 1),
            per AS (SELECT c.code, COUNT(*) AS n_words,
                           SUM(cnt.n) AS n_rows
                    FROM code c JOIN cnt USING (word) GROUP BY 1)
            SELECT code, CAST(n_words AS BIGINT) AS n_words,
                   CAST(n_rows AS BIGINT) AS n_rows,
                   CAST(n_words * (n_words - 1) // 2 AS BIGINT)
                       AS n_pairs
            FROM per ORDER BY code
        """,
        "q243_skeleton": _zhang_suen_sql(),
        "q244_resample_tracks": """
            WITH p0 AS (
                SELECT l_orderkey % 389 AS g,
                       (l_orderkey // 389) * 8 + l_linenumber AS t,
                       MIN((l_partkey % 64) * 64 + l_suppkey % 64) AS c
                FROM lineitem GROUP BY 1, 2),
            pts AS (SELECT g, t, c // 64 AS x, c % 64 AS y FROM p0),
            seg AS (
                SELECT g, t, x, y,
                       LEAD(t) OVER w AS t2, LEAD(x) OVER w AS x2,
                       LEAD(y) OVER w AS y2
                FROM pts WINDOW w AS (PARTITION BY g ORDER BY t)),
            bounds AS (SELECT g, MIN(t) AS tmin, MAX(t) AS tmax
                       FROM pts GROUP BY 1),
            ticks AS (
                SELECT b.g, s.s * 5 AS tick
                FROM bounds b
                JOIN (SELECT generate_series AS s
                      FROM generate_series(0, 200000)) s
                  ON s.s * 5 >= b.tmin AND s.s * 5 <= b.tmax),
            -- floor division (DuckDB // truncates; numerators can be
            -- negative): a_floordiv_b = (a - posmod(a,b)) // b
            interp AS (
                SELECT t.g, t.tick,
                       CASE WHEN s.t2 IS NULL THEN s.x
                            ELSE s.x + ((s.x2 - s.x) * (t.tick - s.t)
                                 - (((s.x2 - s.x) * (t.tick - s.t))
                                    % (s.t2 - s.t) + (s.t2 - s.t))
                                   % (s.t2 - s.t)) // (s.t2 - s.t)
                       END AS xi,
                       CASE WHEN s.t2 IS NULL THEN s.y
                            ELSE s.y + ((s.y2 - s.y) * (t.tick - s.t)
                                 - (((s.y2 - s.y) * (t.tick - s.t))
                                    % (s.t2 - s.t) + (s.t2 - s.t))
                                   % (s.t2 - s.t)) // (s.t2 - s.t)
                       END AS yi
                FROM ticks t
                JOIN seg s ON s.g = t.g AND t.tick >= s.t
                     AND (t.tick < s.t2
                          OR (s.t2 IS NULL AND t.tick = s.t)))
            SELECT g AS gid, tick, CAST(xi AS BIGINT) AS xi,
                   CAST(yi AS BIGINT) AS yi
            FROM interp ORDER BY 1, 2
        """,
        "q245_mode_filter": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 241 = 0),
            px AS MATERIALIZED (
                SELECT ks.k, x.x, y.y,
                       ((ks.k * 13 + x.x * 7 + y.y * 3) % 256) // 32 AS v
                FROM ks
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 13)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 10)) y),
            off(dx, dy) AS (VALUES (-1,-1), (0,-1), (1,-1), (-1,0),
                                   (0,0), (1,0), (-1,1), (0,1), (1,1)),
            nb AS (
                SELECT c.k, c.x, c.y, p.v
                FROM px c
                JOIN off o ON TRUE
                JOIN px p ON p.k = c.k AND p.x = c.x + o.dx
                         AND p.y = c.y + o.dy
                WHERE c.x BETWEEN 1 AND 12 AND c.y BETWEEN 1 AND 9),
            cnts AS (SELECT k, x, y, v, COUNT(*) AS c
                     FROM nb GROUP BY 1, 2, 3, 4),
            modes AS (SELECT k, x, y, v FROM cnts
                      QUALIFY ROW_NUMBER() OVER (PARTITION BY k, x, y
                                                 ORDER BY c DESC, v) = 1)
            SELECT m.k AS o_orderkey,
                   CAST(SUM(CASE WHEN m.v <> px.v THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_changed,
                   CAST(SUM(m.v * (1 + (m.x - 1) + 100 * (m.y - 1)))
                        AS BIGINT) AS mode_checksum
            FROM modes m
            JOIN px ON px.k = m.k AND px.x = m.x AND px.y = m.y
            GROUP BY 1 ORDER BY 1
        """,
        "q246_zonal_majority": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 241 = 0),
            px AS (
                SELECT ks.k, x.x, y.y,
                       ((ks.k * 13 + x.x * 7 + y.y * 3) % 256) // 32 AS v
                FROM ks
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 13)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 10)) y),
            b AS (SELECT y // 3 AS band, v AS cls, COUNT(*) AS cnt
                  FROM px GROUP BY 1, 2)
            SELECT band, CAST(cls AS BIGINT) AS maj_class,
                   CAST(cnt AS BIGINT) AS n_pixels,
                   CAST(tot AS BIGINT) AS n_total
            FROM (SELECT band, cls, cnt,
                         SUM(cnt) OVER (PARTITION BY band) AS tot,
                         ROW_NUMBER() OVER (PARTITION BY band
                                            ORDER BY cnt DESC, cls) AS rn
                  FROM b)
            WHERE rn = 1 ORDER BY band
        """,
        "q240_rect_union": """
            WITH r AS (
                SELECT o_orderkey % 13 AS gid,
                       (o_orderkey * 3) % 50 AS x1,
                       (o_orderkey * 7) % 40 AS y1,
                       (o_orderkey * 3) % 50 + o_orderkey % 9 + 1 AS x2,
                       (o_orderkey * 7) % 40 + o_orderkey % 6 + 1 AS y2
                FROM orders),
            cells AS (
                SELECT DISTINCT gid, i.i, j.j
                FROM r
                JOIN (SELECT generate_series AS i
                      FROM generate_series(0, 58)) i
                  ON i.i >= r.x1 AND i.i < r.x2
                JOIN (SELECT generate_series AS j
                      FROM generate_series(0, 45)) j
                  ON j.j >= r.y1 AND j.j < r.y2),
            n AS (SELECT gid, COUNT(*) AS n_rects FROM r GROUP BY 1)
            SELECT n.gid, CAST(COALESCE(c.area, 0) AS BIGINT) AS area,
                   CAST(n.n_rects AS BIGINT) AS n_rects
            FROM n LEFT JOIN (SELECT gid, COUNT(*) AS area FROM cells
                              GROUP BY 1) c ON c.gid = n.gid
            ORDER BY 1
        """,
        "q241_range_frame_sum": """
            WITH s AS (SELECT event_id, user_id, epoch_us(ts) AS t,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v
                       FROM events)
            SELECT event_id, user_id, t AS ts_us,
                   CAST(SUM(v) OVER (PARTITION BY user_id ORDER BY t
                                     RANGE BETWEEN 600000000 PRECEDING
                                     AND CURRENT ROW) AS BIGINT)
                       AS w_sum,
                   CAST(COUNT(*) OVER (PARTITION BY user_id ORDER BY t
                                       RANGE BETWEEN 600000000 PRECEDING
                                       AND CURRENT ROW) AS BIGINT)
                       AS w_cnt
            FROM s ORDER BY event_id
        """,
        "q242_rrf": """
            WITH s AS (SELECT event_type, event_id,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v,
                              epoch_us(ts) AS t
                       FROM events),
            r AS (SELECT event_type, event_id,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                                            ORDER BY v DESC, event_id)
                             AS ra,
                         ROW_NUMBER() OVER (PARTITION BY event_type
                                            ORDER BY t, event_id) AS rb
                  FROM s),
            f AS (SELECT event_type, event_id,
                         120 + ra + rb AS num,
                         (60 + ra) * (60 + rb) AS den
                  FROM r),
            t AS (SELECT event_type, event_id, num, den,
                         ROW_NUMBER() OVER (
                             PARTITION BY event_type
                             ORDER BY num * 1099511627776 // den DESC,
                                      event_id) AS rk
                  FROM f)
            SELECT event_type, CAST(rk AS BIGINT) AS rk, event_id,
                   CAST(num AS BIGINT) AS num, CAST(den AS BIGINT) AS den
            FROM t WHERE rk <= 3 ORDER BY 1, 2
        """,
        "q234_kernel_heatmap": """
            WITH pts AS (SELECT (event_id * 7) % 256 AS px,
                                (event_id * 13) % 256 AS py
                         FROM events),
            cells AS (SELECT i.i AS cx, j.j AS cy
                      FROM (SELECT generate_series AS i
                            FROM generate_series(0, 15)) i
                      CROSS JOIN (SELECT generate_series AS j
                                  FROM generate_series(0, 15)) j)
            SELECT c.cx, c.cy,
                   CAST(SUM(GREATEST(0, 12 - abs(c.cx * 16 - p.px))
                            * GREATEST(0, 12 - abs(c.cy * 16 - p.py)))
                        AS BIGINT) AS heat
            FROM cells c CROSS JOIN pts p
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q232_weighted_median": """
            WITH b AS (SELECT event_type,
                              CAST(ROUND(value * 100.0) AS BIGINT) AS v,
                              user_id % 7 + 1 AS w
                       FROM events),
            a AS (SELECT event_type, v, SUM(w) AS w
                  FROM b GROUP BY 1, 2),
            c AS (SELECT event_type, v,
                         SUM(w) OVER (PARTITION BY event_type
                                      ORDER BY v) AS cw,
                         SUM(w) OVER (PARTITION BY event_type) AS tw
                  FROM a)
            SELECT event_type,
                   CAST(MIN(v) FILTER (WHERE 2 * cw >= tw) AS BIGINT)
                       AS wmedian,
                   CAST(MAX(tw) AS BIGINT) AS total_w
            FROM c GROUP BY 1 ORDER BY 1
        """,
        "q225_ema": """
            WITH RECURSIVE s AS (
                SELECT user_id,
                       CAST(ROW_NUMBER() OVER (PARTITION BY user_id
                                               ORDER BY event_id)
                            AS BIGINT) AS rn,
                       CAST(ROUND(value * 100.0) AS BIGINT) AS v
                FROM events),
            e AS (
                SELECT user_id, rn, v AS ema, v AS tot
                FROM s WHERE rn = 1
                UNION ALL
                SELECT s.user_id, s.rn,
                       (s.v + 3 * e.ema) // 4,
                       e.tot + (s.v + 3 * e.ema) // 4
                FROM e JOIN s ON s.user_id = e.user_id
                             AND s.rn = e.rn + 1)
            SELECT user_id, ema AS ema_last, tot AS ema_sum,
                   rn AS n_events
            FROM e
            QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                                       ORDER BY rn DESC) = 1
            ORDER BY 1
        """,
        "q220_jaccard_join": """
            WITH g AS (
              SELECT doc_id,
                     list_distinct(list_transform(
                       generate_series(1, GREATEST(
                           len(string_split(text, ' ')) - 2, 1)),
                       i -> array_to_string(
                           (string_split(text, ' '))[i:i+2], ' ')))
                         AS grams
              FROM documents),
            p AS (
              SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                     len(list_intersect(a.grams, b.grams)) AS i,
                     len(a.grams) + len(b.grams)
                         - len(list_intersect(a.grams, b.grams)) AS u
              FROM g a JOIN g b ON a.doc_id < b.doc_id)
            SELECT id_a, id_b, CAST(i AS BIGINT) AS inter,
                   CAST(u AS BIGINT) AS uni
            FROM p WHERE i * 5 >= 3 * u ORDER BY 1, 2
        """,
        "q221_largest_rect": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 241 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 7 + x.x * 3 + y.y * 11) % 64 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 11)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 7)) y),
            r AS (SELECT ks.k, x1.i AS x1, x2.i AS x2,
                         y1.i AS y1, y2.i AS y2,
                         (x2.i - x1.i + 1) * (y2.i - y1.i + 1) AS area
                  FROM ks
                  CROSS JOIN (SELECT generate_series AS i
                              FROM generate_series(0, 11)) x1
                  CROSS JOIN (SELECT generate_series AS i
                              FROM generate_series(0, 11)) x2
                  CROSS JOIN (SELECT generate_series AS i
                              FROM generate_series(0, 7)) y1
                  CROSS JOIN (SELECT generate_series AS i
                              FROM generate_series(0, 7)) y2
                  WHERE x2.i >= x1.i AND y2.i >= y1.i
                    AND NOT EXISTS (
                      SELECT 1 FROM dem d
                      WHERE d.k = ks.k AND d.x BETWEEN x1.i AND x2.i
                        AND d.y BETWEEN y1.i AND y2.i AND d.v >= 20)),
            m AS (SELECT k, MAX(area) AS mx FROM r GROUP BY 1),
            c AS (SELECT r.k, COUNT(*) AS c
                  FROM r JOIN m ON m.k = r.k AND r.area = m.mx
                  GROUP BY 1),
            nm AS (SELECT k, COUNT(*) FILTER (WHERE v < 20) AS nmask
                   FROM dem GROUP BY 1)
            SELECT nm.k AS o_orderkey,
                   CAST(COALESCE(m.mx, 0) AS BIGINT) AS max_area,
                   CAST(COALESCE(c.c, 0) AS BIGINT) AS n_at_max,
                   CAST(nm.nmask AS BIGINT) AS n_mask
            FROM nm LEFT JOIN m ON m.k = nm.k
                    LEFT JOIN c ON c.k = nm.k
            ORDER BY 1
        """,
        "q218_rollup": """
            SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
                   COALESCE(l_linestatus, 'ALL') AS l_linestatus,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                       AS sum_v,
                   CAST(COUNT(*) AS BIGINT) AS n_rows
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
            ORDER BY 1, 2
        """,
        "q211_quadtree": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 199 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           ((ks.k * 11 + x.x * 2 + y.y * 2) % 64) // 16 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 15)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 15)) y),
            hom AS (SELECT d.k, s.s, d.x >> s.s AS bx, d.y >> s.s AS by,
                           (MIN(d.v) = MAX(d.v)) AS h
                    FROM dem d
                    CROSS JOIN (VALUES (0),(1),(2),(3),(4)) s(s)
                    GROUP BY 1, 2, 3, 4),
            leaf AS (SELECT c.k, c.s
                     FROM hom c LEFT JOIN hom p
                       ON p.k = c.k AND p.s = c.s + 1
                      AND p.bx = c.bx // 2 AND p.by = c.by // 2
                     WHERE c.h AND (p.k IS NULL OR NOT p.h))
            SELECT k AS o_orderkey,
                   CAST(COUNT(*) AS BIGINT) AS qt_leaves,
                   CAST(COUNT(*) FILTER (WHERE s > 0) AS BIGINT) AS qt_solid,
                   CAST(MAX(1 << s) AS BIGINT) AS qt_max_side
            FROM leaf GROUP BY 1 ORDER BY 1
        """,
        "q205_semivariogram": """
            WITH p AS (SELECT o_orderkey AS id,
                              (o_orderkey * 37) % 400 AS x,
                              (o_orderkey * 61) % 400 AS y,
                              (o_orderkey * 7) % 100 AS v
                       FROM orders WHERE o_orderkey % 41 = 0),
            pr AS (SELECT (a.x - b.x) * (a.x - b.x)
                          + (a.y - b.y) * (a.y - b.y) AS d2,
                          (a.v - b.v) * (a.v - b.v) AS dv2
                   FROM p a JOIN p b ON a.id < b.id)
            SELECT CAST((d2 - 1) * 8 // 3600 AS BIGINT) AS d2_bin,
                   CAST(COUNT(*) AS BIGINT) AS n_pairs,
                   CAST(SUM(dv2) AS BIGINT) AS gamma_num
            FROM pr WHERE d2 BETWEEN 1 AND 3600
            GROUP BY 1 ORDER BY 1
        """,
        "q207_cost_distance": _cost_waves_sql(),
        "q203_edt": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 211 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 17 + x.x * 7 + y.y * 3) % 256 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 19)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 15)) y),
            feat AS (SELECT k, x, y FROM dem WHERE v < 80),
            nf AS (SELECT k, CAST(COUNT(*) AS BIGINT) AS n_feat
                   FROM feat GROUP BY k),
            d AS (SELECT d.k, d.x, d.y,
                         MIN((d.x - f.x) * (d.x - f.x)
                             + (d.y - f.y) * (d.y - f.y)) AS d2
                  FROM dem d JOIN feat f ON f.k = d.k
                  GROUP BY d.k, d.x, d.y)
            SELECT d.k AS o_orderkey,
                   CAST(SUM(d.d2) AS BIGINT) AS d2_sum,
                   CAST(MAX(d.d2) AS BIGINT) AS d2_max,
                   nf.n_feat
            FROM d JOIN nf ON nf.k = d.k
            GROUP BY d.k, nf.n_feat ORDER BY d.k
        """,
        "q204_moran": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 251 = 0),
            dem AS (SELECT ks.k, x.x, y.y,
                           (ks.k * 19 + x.x * 7 + y.y * 3) % 256 AS v
                    FROM ks
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 23)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 17)) y),
            s AS (SELECT k, SUM(v) AS sv FROM dem GROUP BY k),
            dev AS (SELECT d.k, d.x, d.y, 432 * d.v - s.sv AS dv
                    FROM dem d JOIN s ON s.k = d.k),
            h AS (SELECT a.k, SUM(a.dv * b.dv) AS p
                  FROM dev a JOIN dev b
                    ON b.k = a.k AND b.x = a.x + 1 AND b.y = a.y
                  GROUP BY a.k),
            vt AS (SELECT a.k, SUM(a.dv * b.dv) AS p
                   FROM dev a JOIN dev b
                     ON b.k = a.k AND b.x = a.x AND b.y = a.y + 1
                   GROUP BY a.k),
            den AS (SELECT k, SUM(dv * dv) AS dn FROM dev GROUP BY k)
            SELECT den.k AS o_orderkey,
                   CAST(2 * (h.p + vt.p) AS BIGINT) AS num_scaled,
                   CAST(den.dn AS BIGINT) AS den_scaled,
                   CAST(1644 AS BIGINT) AS w_sum
            FROM den JOIN h ON h.k = den.k JOIN vt ON vt.k = den.k
            ORDER BY den.k
        """,
        "q01_groupby_sum": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(ROUND(l_quantity * 100.0) AS BIGINT)) AS BIGINT) AS qty_cents,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100.0) AS BIGINT)) AS BIGINT) AS price_cents,
                   COUNT(*) AS n
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "q02_filter_project": """
            SELECT l_orderkey, l_linenumber,
                   CAST(ROUND(l_extendedprice * 100.0) AS BIGINT)
                   * (10000 - CAST(ROUND(l_discount * 10000.0) AS BIGINT)) AS revenue_micros
            FROM lineitem WHERE l_shipdate < TIMESTAMP '1995-06-01'
        """,
        "q03_broadcast_join_agg": """
            SELECT c.c_mktsegment,
                   CAST(SUM(CAST(ROUND(o.o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS total_cents,
                   COUNT(*) AS n
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
        "q04_three_way_left_join": """
            SELECT c.c_custkey, o.o_orderkey, n.n_name
            FROM customer c
            LEFT JOIN orders o ON o.o_custkey = c.c_custkey
            LEFT JOIN nation n ON n.n_nationkey = c.c_nationkey
        """,
        "q05_semi_join": """
            SELECT l_returnflag,
                   CAST(SUM(CAST(ROUND(l_quantity * 100.0) AS BIGINT)) AS BIGINT) AS qty_cents,
                   COUNT(*) AS n
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders WHERE o_totalprice > 150000.0)
            GROUP BY l_returnflag
        """,
        "q06_distinct": "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem",
        "q07_dedup_first": """
            SELECT l_orderkey, MIN(l_linenumber) AS l_linenumber
            FROM lineitem GROUP BY l_orderkey
        """,
        "q08_topk": """
            SELECT o_orderkey, CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS total_cents
            FROM orders ORDER BY total_cents DESC, o_orderkey LIMIT 20
        """,
        "q09_window_tumbling": """
            SELECT event_type, epoch_us(ts) // 3600000000 AS window_id,
                   CAST(SUM(CAST(ROUND(value * 100.0) AS BIGINT)) AS BIGINT) AS value_cents,
                   COUNT(*) AS n
            FROM events GROUP BY event_type, window_id
        """,
        "q10_union_counts": """
            SELECT event_type, COUNT(*) AS n FROM (
                SELECT event_type FROM events WHERE event_type = 'error'
                UNION ALL
                SELECT event_type FROM events WHERE event_type = 'purchase'
            ) GROUP BY event_type
        """,
        "q11_regex_extract_join": """
            SELECT n.n_name, COUNT(*) AS n
            FROM (SELECT CAST(regexp_replace(source, '[^0-9]', '', 'g') AS BIGINT) % 25
                      AS n_nationkey
                  FROM documents) d
            JOIN nation n ON n.n_nationkey = d.n_nationkey
            GROUP BY n.n_name
        """,
        "q12_count_audit": """
            SELECT 'region' AS table_name, COUNT(*) AS n FROM region
            UNION ALL SELECT 'nation', COUNT(*) FROM nation
            UNION ALL SELECT 'customer', COUNT(*) FROM customer
            UNION ALL SELECT 'supplier', COUNT(*) FROM supplier
            UNION ALL SELECT 'part', COUNT(*) FROM part
            UNION ALL SELECT 'orders', COUNT(*) FROM orders
            UNION ALL SELECT 'lineitem', COUNT(*) FROM lineitem
        """,
        "q13_bbox_scan": f"""
            SELECT k, lon - half AS minx FROM {foot}
            WHERE (lon - half) <= -95.0 AND -105.0 <= (lon + half)
              AND (lat - half) <= 40.0 AND 30.0 <= (lat + half)
        """,
        "q14_pip_convex": f"""
            SELECT k FROM {foot}
            WHERE ((-92.0 - -110.0) * (lat - 30.0) - (32.0 - 30.0) * (lon - -110.0)) >= 0.0
              AND ((-90.0 - -92.0) * (lat - 32.0) - (45.0 - 32.0) * (lon - -92.0)) >= 0.0
              AND ((-110.0 - -90.0) * (lat - 45.0) - (43.0 - 45.0) * (lon - -90.0)) >= 0.0
              AND ((-110.0 - -110.0) * (lat - 43.0) - (30.0 - 43.0) * (lon - -110.0)) >= 0.0
        """,
        "q15_overlap_threshold": f"""
            WITH m AS (
              SELECT k,
                     (lon - half) AS minx, (lat - half) AS miny,
                     (lon + half) AS maxx, (lat + half) AS maxy,
                     ((lon + half) - (lon - half)) * ((lat + half) - (lat - half)) AS area,
                     GREATEST(0.0, LEAST(lon + half, -96.0) - GREATEST(lon - half, -100.0))
                     * GREATEST(0.0, LEAST(lat + half, 37.0) - GREATEST(lat - half, 33.0)) AS inter
              FROM {foot})
            SELECT k,
                   CASE WHEN area = 0.0 THEN 0.0 ELSE inter / area * 100.0 END AS overlap_pct
            FROM m
            WHERE (minx <= -100.0 AND miny <= 33.0 AND maxx >= -96.0 AND maxy >= 37.0)
               OR (minx >= -100.0 AND miny >= 33.0 AND maxx <= -96.0 AND maxy <= 37.0)
               OR (CASE WHEN area = 0.0 THEN 0.0 ELSE inter / area * 100.0 END) >= 10.0
        """,
        "q16_knn": f"""
            SELECT k, (lon - -98.0) * (lon - -98.0) + (lat - 36.0) * (lat - 36.0) AS d2
            FROM {foot} ORDER BY d2, k LIMIT 10
        """,
        "q17_grid_zonal_agg": f"""
            SELECT CAST(FLOOR(lon) AS BIGINT) AS cell_x,
                   CAST(FLOOR(lat) AS BIGINT) AS cell_y,
                   CAST(SUM(CAST(ROUND(l_quantity * 100.0) AS BIGINT)) AS BIGINT) AS qty_cents,
                   COUNT(*) AS n
            FROM {foot} GROUP BY cell_x, cell_y
        """,
        "q18_token_count": """
            SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
            FROM documents
        """,
        "q19_quality": """
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars_q,
                   CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
                   CAST(length(text) - length(replace(replace(text, '.', ''), ',', ''))
                        AS BIGINT) AS n_punct,
                   CAST(len(list_filter(string_split(text, ' '),
                            x -> x IN ('the','a','an','and','or','of','to','in','is','it')))
                        AS BIGINT) AS n_stop
            FROM documents
        """,
        "q20_fingerprint_dedup": """
            SELECT md5(text) AS fp, MIN(doc_id) AS min_doc_id, COUNT(*) AS n
            FROM documents GROUP BY md5(text)
        """,
        "q22_ann_topk": """
            SELECT e.vec_id,
                   CAST(ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                         (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)) * 1000000.0)
                        AS BIGINT) AS sim_micro
            FROM embeddings e ORDER BY sim_micro DESC, e.vec_id LIMIT 10
        """,
        "q23_embedding_dups": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   CAST(ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) * 1000000.0)
                        AS BIGINT) AS sim_micro
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE a.vec_id < 300 AND b.vec_id < 300
              AND CAST(ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) * 1000000.0)
                       AS BIGINT) >= 200000
        """,
        "q29_hash_join": """
            SELECT l.l_returnflag,
                   CAST(SUM(CAST(ROUND(o.o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS total_cents,
                   COUNT(*) AS n
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY l.l_returnflag
        """,
        "q30_sliding_window": """
            SELECT e.event_type, w.window_id,
                   CAST(SUM(CAST(ROUND(e.value * 100.0) AS BIGINT)) AS BIGINT) AS value_cents,
                   COUNT(*) AS n
            FROM events e,
                 LATERAL (SELECT UNNEST(generate_series(
                              (epoch_us(e.ts) - 7200000000) // 3600000000 + 1,
                              epoch_us(e.ts) // 3600000000)) AS window_id) w
            GROUP BY e.event_type, w.window_id
        """,
        "q31_session_window": """
            WITH gaps AS (
              SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                     CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER
                              (PARTITION BY user_id ORDER BY ts, event_id)
                              > 1800000000 THEN 1 ELSE 0 END AS new_sess
              FROM events),
            tagged AS (
              SELECT user_id, ts_us,
                     CAST(SUM(new_sess) OVER (PARTITION BY user_id
                                         ORDER BY ts_us, event_id) AS BIGINT) AS session_id
              FROM gaps)
            SELECT user_id, session_id, COUNT(*) AS n,
                   MIN(ts_us) AS start_us, MAX(ts_us) AS end_us
            FROM tagged GROUP BY user_id, session_id
        """,
        "q32_bpe_tokens": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text,
                        '''[a-z]+|[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+')) AS BIGINT)
                       AS n_bpe_tokens
            FROM documents
        """,
        "q21_langid": _LANGID_SQL,
        "q24_minhash_pairs": _MINHASH_SQL,
        "q25_simhash": _simhash_sql(),
        "q26_roi_footprints": _Q26_SQL,
        "q27_knn_index": _Q27_SQL,
        "q28_zonal_pairs": _Q28_SQL,
        "q33_tile_dups": _Q33_SQL,
        "q34_zonal_stats": _Q34_SQL,
        # q35/q36: payloads are integer arithmetic over `orders`; PCM16
        # (v/32768) and gray-frame BT.601 round-trip bit-exactly, so the
        # SQL recomputes the decoded sums without touching a codec
        "q35_wav_decode": """
            SELECT o.o_orderkey, o.n AS n_samples,
                   CAST(SUM((o.o_orderkey * 7919 + g.i * 104729) % 65536 - 32768)
                        AS BIGINT) AS sum_samples
            FROM (SELECT o_orderkey, 200 + o_orderkey % 300 AS n
                  FROM orders WHERE o_orderkey % 97 = 0) o
            CROSS JOIN (SELECT generate_series AS i
                        FROM generate_series(0, 499)) g
            WHERE g.i < o.n
            GROUP BY o.o_orderkey, o.n
            ORDER BY o.o_orderkey
        """,
        # q119: H3 ids are not SQL-computable, but the FROZEN golden
        # fixture (tests/data/h3_golden_tpch.parquet — generated once by
        # tools/gen_h3_fixture.py from the published-vector-pinned
        # h3exact kernel) maps every tpch image key to its res-7 id, so
        # the oracle is a plain join + group-by (VERDICT r3 item 3).
        # Fixture scope: keys of sf0.001/0.01/0.1 (the graded dirs) —
        # enforced by the key-coverage guard in the SQL itself: a key
        # outside the fixture makes the audit CTE call error() and the
        # oracle FAILS LOUDLY instead of silently undercounting via the
        # INNER JOIN (DuckDB 1/0 is NULL, not an error — so a division
        # guard would silently return empty; verified). Rerun
        # tools/gen_h3_fixture.py for a new sf. Path resolves relative
        # to THIS module, not a hardcoded checkout root (ADVICE r4).
        "q119_h3_cell_stats": f"""
            WITH g AS (SELECT * FROM
                       read_parquet('{_H3_FIXTURE}')),
            ks AS (SELECT o_orderkey AS k FROM orders
                   WHERE o_orderkey % 4 = 0),
            audit AS (SELECT CASE WHEN (SELECT COUNT(*)
                                        FROM ks ANTI JOIN g USING (k)) = 0
                             THEN 1
                             ELSE error('q119 fixture stale: queried keys missing from h3_golden_tpch.parquet — rerun tools/gen_h3_fixture.py')
                             END AS ok)
            SELECT g.h3_r7, COUNT(*) AS n
            FROM ks JOIN g USING (k)
            WHERE (SELECT ok FROM audit) = 1
            GROUP BY g.h3_r7
        """,
        # q120: FLAC is lossless, so the decoded sums equal the
        # synthesized-PCM sums — same oracle shape as q35
        "q120_flac_decode": """
            SELECT o.o_orderkey, o.n AS n_samples,
                   CAST(SUM((o.o_orderkey * 6007 + g.i * 31627) % 65536 - 32768)
                        AS BIGINT) AS sum_samples
            FROM (SELECT o_orderkey, 300 + o_orderkey % 200 AS n
                  FROM orders WHERE o_orderkey % 103 = 0) o
            CROSS JOIN (SELECT generate_series AS i
                        FROM generate_series(0, 499)) g
            WHERE g.i < o.n
            GROUP BY o.o_orderkey, o.n
            ORDER BY o.o_orderkey
        """,
        # q121: constant 8×8 blocks at JPEG quality 100 decode
        # bit-exactly (all-ones tables, DC-only), so the MJPEG AVI
        # round-trip reduces to 64·Σ block values per frame
        "q121_mjpeg_decode": """
            SELECT o.o_orderkey, f.f AS frame_idx,
                   CAST(SUM(64 * ((o.o_orderkey * 37 + f.f * 911 + b.b * 53) % 256))
                        AS BIGINT) AS pixel_sum
            FROM (SELECT o_orderkey FROM orders WHERE o_orderkey % 107 = 0) o
            CROSS JOIN (SELECT generate_series AS f FROM generate_series(0, 1)) f
            CROSS JOIN (SELECT generate_series AS b FROM generate_series(0, 3)) b
            GROUP BY 1, 2
            ORDER BY 1, 2
        """,
        # q122: same constant-block q100 bit-exactness through the
        # progressive (SOF2) Annex-G decode path
        "q122_progressive_jpeg": """
            SELECT o.o_orderkey,
                   CAST(SUM(64 * ((o.o_orderkey * 41 + b.b * 59) % 256))
                        AS BIGINT) AS pixel_sum
            FROM (SELECT o_orderkey FROM orders WHERE o_orderkey % 109 = 0) o
            CROSS JOIN (SELECT generate_series AS b FROM generate_series(0, 3)) b
            GROUP BY 1
            ORDER BY 1
        """,
        # q123: EXIF orientation is one of 8 dihedral transforms; the
        # oracle maps each to its output dims + the input cells that
        # land at (0,0)/(0,1), over img[r,c] = (k*7 + r*13 + c*17) % 251
        # with H=8, W=6; GPS DMS rationals are exact integers
        "q123_exif_orientation": """
            SELECT o_orderkey,
                   CAST(o_orderkey % 8 + 1 AS BIGINT) AS orientation,
                   CAST(CASE WHEN o_orderkey % 8 + 1 >= 5 THEN 6 ELSE 8 END
                        AS BIGINT) AS ori_h,
                   CAST(CASE WHEN o_orderkey % 8 + 1 >= 5 THEN 8 ELSE 6 END
                        AS BIGINT) AS ori_w,
                   CAST(CASE o_orderkey % 8 + 1
                     WHEN 1 THEN (o_orderkey * 7) % 251
                     WHEN 2 THEN (o_orderkey * 7 + 5 * 17) % 251
                     WHEN 3 THEN (o_orderkey * 7 + 7 * 13 + 5 * 17) % 251
                     WHEN 4 THEN (o_orderkey * 7 + 7 * 13) % 251
                     WHEN 5 THEN (o_orderkey * 7) % 251
                     WHEN 6 THEN (o_orderkey * 7 + 7 * 13) % 251
                     WHEN 7 THEN (o_orderkey * 7 + 7 * 13 + 5 * 17) % 251
                     WHEN 8 THEN (o_orderkey * 7 + 5 * 17) % 251
                   END AS BIGINT) AS p00,
                   CAST(CASE o_orderkey % 8 + 1
                     WHEN 1 THEN (o_orderkey * 7 + 17) % 251
                     WHEN 2 THEN (o_orderkey * 7 + 4 * 17) % 251
                     WHEN 3 THEN (o_orderkey * 7 + 7 * 13 + 4 * 17) % 251
                     WHEN 4 THEN (o_orderkey * 7 + 7 * 13 + 17) % 251
                     WHEN 5 THEN (o_orderkey * 7 + 13) % 251
                     WHEN 6 THEN (o_orderkey * 7 + 6 * 13) % 251
                     WHEN 7 THEN (o_orderkey * 7 + 6 * 13 + 5 * 17) % 251
                     WHEN 8 THEN (o_orderkey * 7 + 13 + 5 * 17) % 251
                   END AS BIGINT) AS p01,
                   CAST((CASE WHEN o_orderkey % 2 = 1 THEN -1 ELSE 1 END) *
                        ((o_orderkey % 90) * 36000000
                         + (o_orderkey % 60) * 600000
                         + (o_orderkey * 13) % 600000) AS BIGINT) AS lat_units
            FROM orders WHERE o_orderkey % 111 = 0
            ORDER BY o_orderkey
        """,
        # q124: GeoTIFF (LZW/Deflate + predictor 2) is lossless, so the
        # nodata-masked stats equal the pixel-formula aggregates
        "q124_geotiff_stats": """
            WITH px AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256 AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 127 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 47)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 36)) y)
            SELECT k AS o_orderkey,
                   CAST(48 AS BIGINT) AS width, CAST(37 AS BIGINT) AS height,
                   CAST(COUNT(*) FILTER (WHERE v <> 17) AS BIGINT) AS n_valid,
                   CAST(SUM(v) FILTER (WHERE v <> 17) AS BIGINT) AS px_sum,
                   CAST(MIN(v) FILTER (WHERE v <> 17) AS BIGINT) AS px_min,
                   CAST(MAX(v) FILTER (WHERE v <> 17) AS BIGINT) AS px_max
            FROM px GROUP BY k ORDER BY k
        """,
        # q125: the COG window read is exact, so the window sum equals
        # the pixel formula summed over the key's 23×17 window
        "q125_cog_window": """
            WITH px AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey * 19 + (o.o_orderkey % 41 + x.x) * 5
                        + (o.o_orderkey % 29 + y.y) * 23) % 509 AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 131 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 22)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 16)) y)
            SELECT k AS o_orderkey, CAST(COUNT(*) AS BIGINT) AS n_px,
                   CAST(SUM(v) AS BIGINT) AS win_sum
            FROM px GROUP BY k ORDER BY k
        """,
        # q126: zone triangles have scaled-by-10 integer vertices with
        # NO pixel center on any edge (tests/test_terrain.py), so the
        # engine's crossing-number PIP equals these strict half-plane
        # integer sign tests; the GeoTIFF round-trip is lossless.
        "q126_zonal_raster": """
            WITH px AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256 AS v,
                       x.x * 10 + 5 AS px, y.y * 10 + 5 AS py
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 137 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 47)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 36)) y
                WHERE (o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256 <> 17),
            sgn AS (
                SELECT k, v, CAST(0 AS BIGINT) AS zone,
                       409*(py-17) - 36*(px-32) AS c1,
                       -235*(py-53) - 295*(px-441) AS c2,
                       -174*(py-348) + 331*(px-206) AS c3
                FROM px
                UNION ALL
                SELECT k, v, CAST(1 AS BIGINT) AS zone,
                       209*(py-21) - 286*(px-253) AS c1,
                       -408*(py-307) + 18*(px-462) AS c2,
                       199*(py-289) + 268*(px-54) AS c3
                FROM px)
            SELECT k AS o_orderkey, zone,
                   CAST(SUM(v) AS BIGINT) AS zone_sum,
                   CAST(COUNT(*) AS BIGINT) AS zone_count
            FROM sgn
            WHERE (c1 > 0 AND c2 > 0 AND c3 > 0)
               OR (c1 < 0 AND c2 < 0 AND c3 < 0)
            GROUP BY k, zone ORDER BY k, zone
        """,
        # q127: lossless codec ⇒ interior central-difference gradient
        # recomputed from the pixel formula
        "q127_slope_stats": """
            WITH g AS (
                SELECT o.o_orderkey AS k,
                       ABS((o.o_orderkey * 13 + (x.x+1) * 7 + y.y * 3) % 256
                           - (o.o_orderkey * 13 + (x.x-1) * 7 + y.y * 3) % 256)
                       + ABS((o.o_orderkey * 13 + x.x * 7 + (y.y+1) * 3) % 256
                             - (o.o_orderkey * 13 + x.x * 7 + (y.y-1) * 3) % 256)
                       AS grad
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 139 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(1, 46)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(1, 35)) y)
            SELECT k AS o_orderkey, CAST(SUM(grad) AS BIGINT) AS grad_sum,
                   CAST(MAX(grad) AS BIGINT) AS grad_max,
                   CAST(COUNT(*) AS BIGINT) AS n_interior
            FROM g GROUP BY k ORDER BY k
        """,
        # q128: D8 codes 0..7 = E,SE,S,SW,W,NW,N,NE; steepest strict
        # descent, ties to the LOWEST code, -1 = pit/flat — mirrored by
        # the CASE ladder evaluating codes in order
        "q128_flow_direction": """
            WITH d AS (
                SELECT o.o_orderkey AS k,
                  (o.o_orderkey*11 + x.x*5 + y.y*7) % 97
                    - (o.o_orderkey*11 + (x.x+1)*5 + y.y*7) % 97 AS d0,
                  (o.o_orderkey*11 + x.x*5 + y.y*7) % 97
                    - (o.o_orderkey*11 + (x.x+1)*5 + (y.y+1)*7) % 97 AS d1,
                  (o.o_orderkey*11 + x.x*5 + y.y*7) % 97
                    - (o.o_orderkey*11 + x.x*5 + (y.y+1)*7) % 97 AS d2,
                  (o.o_orderkey*11 + x.x*5 + y.y*7) % 97
                    - (o.o_orderkey*11 + (x.x-1)*5 + (y.y+1)*7) % 97 AS d3,
                  (o.o_orderkey*11 + x.x*5 + y.y*7) % 97
                    - (o.o_orderkey*11 + (x.x-1)*5 + y.y*7) % 97 AS d4,
                  (o.o_orderkey*11 + x.x*5 + y.y*7) % 97
                    - (o.o_orderkey*11 + (x.x-1)*5 + (y.y-1)*7) % 97 AS d5,
                  (o.o_orderkey*11 + x.x*5 + y.y*7) % 97
                    - (o.o_orderkey*11 + x.x*5 + (y.y-1)*7) % 97 AS d6,
                  (o.o_orderkey*11 + x.x*5 + y.y*7) % 97
                    - (o.o_orderkey*11 + (x.x+1)*5 + (y.y-1)*7) % 97 AS d7
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 149 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(1, 30)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(1, 22)) y),
            dd AS (
                SELECT k, GREATEST(d0,d1,d2,d3,d4,d5,d6,d7) AS g,
                       d0,d1,d2,d3,d4,d5,d6,d7 FROM d)
            SELECT k AS o_orderkey,
                   CAST(CASE WHEN g <= 0 THEN -1
                             WHEN d0 = g THEN 0 WHEN d1 = g THEN 1
                             WHEN d2 = g THEN 2 WHEN d3 = g THEN 3
                             WHEN d4 = g THEN 4 WHEN d5 = g THEN 5
                             WHEN d6 = g THEN 6 ELSE 7 END AS BIGINT)
                       AS direction,
                   CAST(COUNT(*) AS BIGINT) AS n_px
            FROM dd GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # q129: gdaladdo-'average' on integers = floor(sum/4) per 2x2
        # block, level 2 built FROM level-1 values (not from source)
        "q129_overviews": """
            WITH px AS (
                SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                       (o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256 AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 151 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 47)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 35)) y),
            l1 AS (
                SELECT k, x // 2 AS bx, y // 2 AS by,
                       CAST(SUM(v) AS BIGINT) // 4 AS v1
                FROM px GROUP BY k, bx, by),
            l2 AS (
                SELECT k, bx // 2 AS cx, by // 2 AS cy,
                       CAST(SUM(v1) AS BIGINT) // 4 AS v2
                FROM l1 GROUP BY k, cx, cy)
            SELECT k AS o_orderkey, CAST(1 AS BIGINT) AS level,
                   CAST(SUM(v1) AS BIGINT) AS px_sum,
                   CAST(24 AS BIGINT) AS w, CAST(18 AS BIGINT) AS h
            FROM l1 GROUP BY k
            UNION ALL
            SELECT k, CAST(2 AS BIGINT), CAST(SUM(v2) AS BIGINT),
                   CAST(12 AS BIGINT), CAST(9 AS BIGINT)
            FROM l2 GROUP BY k
            ORDER BY 1, 2
        """,
        # q130: marching-squares case bits (strict >): 1=top-left,
        # 2=top-right, 4=bottom-left, 8=bottom-right
        "q130_contours": """
            WITH c AS (
                SELECT o.o_orderkey AS k,
                  CASE WHEN (o.o_orderkey*13 + x.x*7 + y.y*3) % 256 > 127
                       THEN 1 ELSE 0 END
                  + 2 * CASE WHEN (o.o_orderkey*13 + (x.x+1)*7 + y.y*3) % 256 > 127
                             THEN 1 ELSE 0 END
                  + 4 * CASE WHEN (o.o_orderkey*13 + x.x*7 + (y.y+1)*3) % 256 > 127
                             THEN 1 ELSE 0 END
                  + 8 * CASE WHEN (o.o_orderkey*13 + (x.x+1)*7 + (y.y+1)*3) % 256 > 127
                             THEN 1 ELSE 0 END AS code
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 157 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 46)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 35)) y)
            SELECT k AS o_orderkey, CAST(code AS BIGINT) AS ms_case,
                   CAST(COUNT(*) AS BIGINT) AS n_cells
            FROM c GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # q132: the engine resolves D8 paths by pointer doubling; the
        # oracle walks them stepwise — a recursive CTE over a
        # precomputed direction table (q128's CASE ladder). Paths stop
        # at interior pits/flats (dir=-1) or on the boundary ring
        # (cells absent from mv). Strictly-descending elevations bound
        # recursion depth.
        "q132_flow_paths": """
            WITH RECURSIVE dirs AS (
                SELECT k, x, y,
                       CASE WHEN g <= 0 THEN -1
                            WHEN d0 = g THEN 0 WHEN d1 = g THEN 1
                            WHEN d2 = g THEN 2 WHEN d3 = g THEN 3
                            WHEN d4 = g THEN 4 WHEN d5 = g THEN 5
                            WHEN d6 = g THEN 6 ELSE 7 END AS dir
                FROM (
                    SELECT k, x, y, d0,d1,d2,d3,d4,d5,d6,d7,
                           GREATEST(d0,d1,d2,d3,d4,d5,d6,d7) AS g
                    FROM (
                        SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x+1)*3 + y.y*5) % 53 AS d0,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x+1)*3 + (y.y+1)*5) % 53 AS d1,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + x.x*3 + (y.y+1)*5) % 53 AS d2,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x-1)*3 + (y.y+1)*5) % 53 AS d3,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x-1)*3 + y.y*5) % 53 AS d4,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x-1)*3 + (y.y-1)*5) % 53 AS d5,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + x.x*3 + (y.y-1)*5) % 53 AS d6,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x+1)*3 + (y.y-1)*5) % 53 AS d7
                        FROM (SELECT o_orderkey FROM orders
                              WHERE o_orderkey % 167 = 0) o
                        CROSS JOIN (SELECT generate_series AS x
                                    FROM generate_series(1, 14)) x
                        CROSS JOIN (SELECT generate_series AS y
                                    FROM generate_series(1, 10)) y))),
            mv AS (
                SELECT k, x, y,
                       CASE dir WHEN 0 THEN 1 WHEN 1 THEN 1 WHEN 2 THEN 0
                                WHEN 3 THEN -1 WHEN 4 THEN -1 WHEN 5 THEN -1
                                WHEN 6 THEN 0 ELSE 1 END AS dx,
                       CASE dir WHEN 0 THEN 0 WHEN 1 THEN 1 WHEN 2 THEN 1
                                WHEN 3 THEN 1 WHEN 4 THEN 0 WHEN 5 THEN -1
                                WHEN 6 THEN -1 ELSE -1 END AS dy
                FROM dirs WHERE dir >= 0),
            walk AS (
                SELECT k, x AS sx, y AS sy, x, y, 0 AS n FROM dirs
                UNION ALL
                SELECT w.k, w.sx, w.sy, w.x + s.dx, w.y + s.dy, w.n + 1
                FROM walk w JOIN mv s
                  ON s.k = w.k AND s.x = w.x AND s.y = w.y),
            fin AS (
                SELECT w.k, w.sx, w.sy, w.x, w.y, w.n
                FROM walk w LEFT JOIN mv s
                  ON s.k = w.k AND s.x = w.x AND s.y = w.y
                WHERE s.k IS NULL)
            SELECT k AS o_orderkey,
                   CAST(SUM(n) AS BIGINT) AS path_sum,
                   CAST(MAX(n) AS BIGINT) AS path_max,
                   CAST(SUM(CASE WHEN x BETWEEN 1 AND 14
                                  AND y BETWEEN 1 AND 10
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_pit,
                   CAST(SUM(CASE WHEN x BETWEEN 1 AND 14
                                  AND y BETWEEN 1 AND 10
                             THEN 0 ELSE 1 END) AS BIGINT) AS n_edge
            FROM fin GROUP BY k ORDER BY k
        """,
        # q133: same walk, but drainage cells (v < 8) are also
        # terminals; HAND = start elevation - reached drainage
        # elevation, defined only for cells whose path hits drainage
        "q133_hand": """
            WITH RECURSIVE dirs AS (
                SELECT k, x, y,
                       CASE WHEN g <= 0 THEN -1
                            WHEN d0 = g THEN 0 WHEN d1 = g THEN 1
                            WHEN d2 = g THEN 2 WHEN d3 = g THEN 3
                            WHEN d4 = g THEN 4 WHEN d5 = g THEN 5
                            WHEN d6 = g THEN 6 ELSE 7 END AS dir
                FROM (
                    SELECT k, x, y, d0,d1,d2,d3,d4,d5,d6,d7,
                           GREATEST(d0,d1,d2,d3,d4,d5,d6,d7) AS g
                    FROM (
                        SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x+1)*3 + y.y*5) % 53 AS d0,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x+1)*3 + (y.y+1)*5) % 53 AS d1,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + x.x*3 + (y.y+1)*5) % 53 AS d2,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x-1)*3 + (y.y+1)*5) % 53 AS d3,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x-1)*3 + y.y*5) % 53 AS d4,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x-1)*3 + (y.y-1)*5) % 53 AS d5,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + x.x*3 + (y.y-1)*5) % 53 AS d6,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x+1)*3 + (y.y-1)*5) % 53 AS d7
                        FROM (SELECT o_orderkey FROM orders
                              WHERE o_orderkey % 173 = 0) o
                        CROSS JOIN (SELECT generate_series AS x
                                    FROM generate_series(1, 14)) x
                        CROSS JOIN (SELECT generate_series AS y
                                    FROM generate_series(1, 10)) y))),
            mv AS (
                SELECT k, x, y,
                       CASE dir WHEN 0 THEN 1 WHEN 1 THEN 1 WHEN 2 THEN 0
                                WHEN 3 THEN -1 WHEN 4 THEN -1 WHEN 5 THEN -1
                                WHEN 6 THEN 0 ELSE 1 END AS dx,
                       CASE dir WHEN 0 THEN 0 WHEN 1 THEN 1 WHEN 2 THEN 1
                                WHEN 3 THEN 1 WHEN 4 THEN 0 WHEN 5 THEN -1
                                WHEN 6 THEN -1 ELSE -1 END AS dy
                FROM dirs
                WHERE dir >= 0
                  AND (k*7 + x*3 + y*5) % 53 >= 8),
            walk AS (
                SELECT k, x AS sx, y AS sy, x, y, 0 AS n FROM dirs
                UNION ALL
                SELECT w.k, w.sx, w.sy, w.x + s.dx, w.y + s.dy, w.n + 1
                FROM walk w JOIN mv s
                  ON s.k = w.k AND s.x = w.x AND s.y = w.y),
            fin AS (
                SELECT w.k,
                       (w.k*7 + w.sx*3 + w.sy*5) % 53 AS v0,
                       (w.k*7 + w.x*3 + w.y*5) % 53 AS vt
                FROM walk w LEFT JOIN mv s
                  ON s.k = w.k AND s.x = w.x AND s.y = w.y
                WHERE s.k IS NULL)
            SELECT k AS o_orderkey,
                   CAST(SUM(CASE WHEN vt < 8 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_drained,
                   CAST(COALESCE(SUM(CASE WHEN vt < 8 THEN v0 - vt END), 0)
                        AS BIGINT) AS hand_sum,
                   CAST(COALESCE(MAX(CASE WHEN vt < 8 THEN v0 - vt END), 0)
                        AS BIGINT) AS hand_max,
                   CAST(SUM(CASE WHEN vt < 8 THEN 0 ELSE 1 END) AS BIGINT)
                       AS n_undrained
            FROM fin GROUP BY k ORDER BY k
        """,
        # q134: mosaic = per-pixel MAX across the group's rasters, then
        # group-level aggregates; membership counted from the key set
        "q134_mosaic": """
            WITH px AS (
                SELECT (o.o_orderkey // 179) % 5 AS grp, o.o_orderkey AS k,
                       x.x AS x, y.y AS y,
                       (o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256 AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 179 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 23)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 17)) y),
            mos AS (
                SELECT grp, x, y, MAX(v) AS mv
                FROM px GROUP BY grp, x, y),
            mem AS (
                SELECT (o_orderkey // 179) % 5 AS grp,
                       CAST(COUNT(*) AS BIGINT) AS n_members
                FROM orders WHERE o_orderkey % 179 = 0 GROUP BY 1)
            SELECT m.grp, mem.n_members,
                   CAST(SUM(m.mv) AS BIGINT) AS mosaic_sum,
                   CAST(MAX(m.mv) AS BIGINT) AS mosaic_max
            FROM mos m JOIN mem ON mem.grp = m.grp
            GROUP BY m.grp, mem.n_members ORDER BY m.grp
        """,
        # q135: exact rational bilinear — numerators over denominator
        # (out_dim-1), one floor at the end; mirrors _bilinear_one
        "q135_bilinear": """
            WITH g AS (
                SELECT o.o_orderkey AS k,
                       (ox.i * 47) // 15 AS x0, (ox.i * 47) % 15 AS fx,
                       LEAST((ox.i * 47) // 15 + 1, 47) AS x1,
                       (oy.i * 36) // 10 AS y0, (oy.i * 36) % 10 AS fy,
                       LEAST((oy.i * 36) // 10 + 1, 36) AS y1
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 181 = 0) o
                CROSS JOIN (SELECT generate_series AS i
                            FROM generate_series(0, 15)) ox
                CROSS JOIN (SELECT generate_series AS i
                            FROM generate_series(0, 10)) oy),
            bl AS (
                SELECT k,
                       ((15 - fx) * (10 - fy) * ((k*23 + x0*13 + y0*19) % 241)
                        + fx * (10 - fy) * ((k*23 + x1*13 + y0*19) % 241)
                        + (15 - fx) * fy * ((k*23 + x0*13 + y1*19) % 241)
                        + fx * fy * ((k*23 + x1*13 + y1*19) % 241)) // 150
                       AS v
                FROM g)
            SELECT k AS o_orderkey, CAST(SUM(v) AS BIGINT) AS bl_sum,
                   CAST(MIN(v) AS BIGINT) AS bl_min,
                   CAST(MAX(v) AS BIGINT) AS bl_max
            FROM bl GROUP BY k ORDER BY k
        """,
        # q136: 3x3 dilate/erode = GREATEST/LEAST of the 9 formula
        # neighbors; morphological gradient = dilate - erode
        "q136_morphology": """
            WITH m AS (
                SELECT o.o_orderkey AS k,
                  GREATEST(
                    (o.o_orderkey*13 + (x.x-1)*7 + (y.y-1)*3) % 256,
                    (o.o_orderkey*13 + x.x*7 + (y.y-1)*3) % 256,
                    (o.o_orderkey*13 + (x.x+1)*7 + (y.y-1)*3) % 256,
                    (o.o_orderkey*13 + (x.x-1)*7 + y.y*3) % 256,
                    (o.o_orderkey*13 + x.x*7 + y.y*3) % 256,
                    (o.o_orderkey*13 + (x.x+1)*7 + y.y*3) % 256,
                    (o.o_orderkey*13 + (x.x-1)*7 + (y.y+1)*3) % 256,
                    (o.o_orderkey*13 + x.x*7 + (y.y+1)*3) % 256,
                    (o.o_orderkey*13 + (x.x+1)*7 + (y.y+1)*3) % 256) AS di,
                  LEAST(
                    (o.o_orderkey*13 + (x.x-1)*7 + (y.y-1)*3) % 256,
                    (o.o_orderkey*13 + x.x*7 + (y.y-1)*3) % 256,
                    (o.o_orderkey*13 + (x.x+1)*7 + (y.y-1)*3) % 256,
                    (o.o_orderkey*13 + (x.x-1)*7 + y.y*3) % 256,
                    (o.o_orderkey*13 + x.x*7 + y.y*3) % 256,
                    (o.o_orderkey*13 + (x.x+1)*7 + y.y*3) % 256,
                    (o.o_orderkey*13 + (x.x-1)*7 + (y.y+1)*3) % 256,
                    (o.o_orderkey*13 + x.x*7 + (y.y+1)*3) % 256,
                    (o.o_orderkey*13 + (x.x+1)*7 + (y.y+1)*3) % 256) AS er
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 191 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(1, 46)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(1, 35)) y)
            SELECT k AS o_orderkey, CAST(SUM(di) AS BIGINT) AS dilate_sum,
                   CAST(SUM(er) AS BIGINT) AS erode_sum,
                   CAST(SUM(di - er) AS BIGINT) AS mgrad_sum
            FROM m GROUP BY k ORDER BY k
        """,
        # q137: flow accumulation = number of walk rows arriving at a
        # cell after >=1 step (paths are simple, so each start counts
        # each visited cell once); channel cells have acc >= 5
        "q137_flow_accum": """
            WITH RECURSIVE dirs AS (
                SELECT k, x, y,
                       CASE WHEN g <= 0 THEN -1
                            WHEN d0 = g THEN 0 WHEN d1 = g THEN 1
                            WHEN d2 = g THEN 2 WHEN d3 = g THEN 3
                            WHEN d4 = g THEN 4 WHEN d5 = g THEN 5
                            WHEN d6 = g THEN 6 ELSE 7 END AS dir
                FROM (
                    SELECT k, x, y, d0,d1,d2,d3,d4,d5,d6,d7,
                           GREATEST(d0,d1,d2,d3,d4,d5,d6,d7) AS g
                    FROM (
                        SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x+1)*3 + y.y*5) % 53 AS d0,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x+1)*3 + (y.y+1)*5) % 53 AS d1,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + x.x*3 + (y.y+1)*5) % 53 AS d2,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x-1)*3 + (y.y+1)*5) % 53 AS d3,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x-1)*3 + y.y*5) % 53 AS d4,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x-1)*3 + (y.y-1)*5) % 53 AS d5,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + x.x*3 + (y.y-1)*5) % 53 AS d6,
                          (o.o_orderkey*7 + x.x*3 + y.y*5) % 53
                            - (o.o_orderkey*7 + (x.x+1)*3 + (y.y-1)*5) % 53 AS d7
                        FROM (SELECT o_orderkey FROM orders
                              WHERE o_orderkey % 193 = 0) o
                        CROSS JOIN (SELECT generate_series AS x
                                    FROM generate_series(1, 14)) x
                        CROSS JOIN (SELECT generate_series AS y
                                    FROM generate_series(1, 10)) y))),
            mv AS (
                SELECT k, x, y,
                       CASE dir WHEN 0 THEN 1 WHEN 1 THEN 1 WHEN 2 THEN 0
                                WHEN 3 THEN -1 WHEN 4 THEN -1 WHEN 5 THEN -1
                                WHEN 6 THEN 0 ELSE 1 END AS dx,
                       CASE dir WHEN 0 THEN 0 WHEN 1 THEN 1 WHEN 2 THEN 1
                                WHEN 3 THEN 1 WHEN 4 THEN 0 WHEN 5 THEN -1
                                WHEN 6 THEN -1 ELSE -1 END AS dy
                FROM dirs WHERE dir >= 0),
            walk AS (
                SELECT k, x AS sx, y AS sy, x, y, 0 AS n FROM dirs
                UNION ALL
                SELECT w.k, w.sx, w.sy, w.x + s.dx, w.y + s.dy, w.n + 1
                FROM walk w JOIN mv s
                  ON s.k = w.k AND s.x = w.x AND s.y = w.y),
            acc AS (
                SELECT k, x, y, COUNT(*) AS a
                FROM walk WHERE n >= 1 GROUP BY k, x, y)
            SELECT k AS o_orderkey, CAST(MAX(a) AS BIGINT) AS acc_max,
                   CAST(SUM(CASE WHEN a >= 5 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_channel
            FROM acc GROUP BY k ORDER BY k
        """,
        # q138: windowed zonal ≡ full zonal — strict half-plane sign
        # tests at pixel centers (scaled-by-10 ints), nodata masked
        "q138_zonal_windowed": """
            WITH px AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256 AS v,
                       x.x * 10 + 5 AS px, y.y * 10 + 5 AS py
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 197 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 95)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 79)) y
                WHERE (o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256 <> 17)
            SELECT k AS o_orderkey, CAST(0 AS BIGINT) AS zone,
                   CAST(SUM(v) AS BIGINT) AS zone_sum,
                   CAST(COUNT(*) AS BIGINT) AS zone_count
            FROM px
            WHERE ((400*(py-83) - 63*(px-127) > 0
                    AND -220*(py-146) - 259*(px-527) > 0
                    AND -180*(py-405) + 322*(px-307) > 0)
                OR (400*(py-83) - 63*(px-127) < 0
                    AND -220*(py-146) - 259*(px-527) < 0
                    AND -180*(py-405) + 322*(px-307) < 0))
            GROUP BY k ORDER BY k
        """,
        # q139: regions by transitive closure — recursive UNION
        # (dedup) reaches every same-class 4-neighbor; a region's
        # label is its minimum flat index, regions counted DISTINCT
        "q139_polygonize": """
            WITH RECURSIVE cells AS (
                SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                       CASE WHEN (o.o_orderkey*3 + x.x*5 + y.y*11) % 23 > 11
                            THEN 1 ELSE 0 END AS above
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 199 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 15)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 9)) y),
            reach AS (
                SELECT k, x, y, above, x AS rx, y AS ry FROM cells
                UNION
                SELECT r.k, r.x, r.y, r.above, c.x, c.y
                FROM reach r JOIN cells c
                  ON c.k = r.k AND c.above = r.above
                 AND ((ABS(c.x - r.rx) = 1 AND c.y = r.ry)
                      OR (c.x = r.rx AND ABS(c.y - r.ry) = 1))),
            lab AS (
                SELECT k, x, y, above, MIN(ry * 16 + rx) AS lbl
                FROM reach GROUP BY k, x, y, above)
            SELECT k AS o_orderkey, CAST(above AS BIGINT) AS above,
                   CAST(COUNT(DISTINCT lbl) AS BIGINT) AS n_regions,
                   CAST(COUNT(*) AS BIGINT) AS n_px
            FROM lab GROUP BY k, above ORDER BY k, above
        """,
        # q140: nearest site by exact doubled-integer distances; ties
        # break to the lowest site index via the ORDER BY
        "q140_voronoi": """
            WITH s(sid, x2, y2) AS (
                VALUES (0, 7, 5), (1, 41, 61), (2, 81, 21),
                       (3, 21, 37), (4, 67, 57), (5, 91, 67)),
            px AS (
                SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                       (o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256 AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 211 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 47)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 36)) y),
            asg AS (
                SELECT k, x, y, v, sid,
                       ROW_NUMBER() OVER (
                           PARTITION BY k, x, y
                           ORDER BY (2*x + 1 - x2) * (2*x + 1 - x2)
                                  + (2*y + 1 - y2) * (2*y + 1 - y2),
                                    sid) AS rn
                FROM px CROSS JOIN s)
            SELECT k AS o_orderkey, CAST(sid AS BIGINT) AS site,
                   CAST(COUNT(*) AS BIGINT) AS n_px,
                   CAST(SUM(v) AS BIGINT) AS site_sum
            FROM asg WHERE rn = 1
            GROUP BY k, sid ORDER BY k, sid
        """,
        # q143: the multi-band BigTIFF round-trip is lossless, so the
        # two-band NDVI aggregates recompute from the band formulas
        "q143_band_math": """
            WITH b AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey * 5 + x.x * 3 + y.y * 7) % 199 AS red,
                       (o.o_orderkey * 11 + x.x * 13 + y.y * 17) % 199 AS nir
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 229 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 31)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 23)) y)
            SELECT k AS o_orderkey,
                   CAST(SUM(CASE WHEN nir > red THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_veg,
                   CAST(SUM(nir - red) AS BIGINT) AS ndvi_num_sum
            FROM b GROUP BY k ORDER BY k
        """,
        # q144: level-1 overview = 2x2 floor-mean of the formula grid
        # (q129 arithmetic); window filter in overview coordinates
        "q144_overview_scan": """
            WITH px AS (
                SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                       (o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256 AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 233 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 95)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 63)) y),
            l1 AS (
                SELECT k, x // 2 AS bx, y // 2 AS by,
                       CAST(SUM(v) AS BIGINT) // 4 AS v1
                FROM px GROUP BY k, bx, by)
            SELECT k AS o_orderkey, CAST(COUNT(*) AS BIGINT) AS n_px,
                   CAST(SUM(v1) AS BIGINT) AS ov_sum
            FROM l1
            WHERE bx BETWEEN k % 11 AND k % 11 + 16
              AND by BETWEEN k % 7 AND k % 7 + 12
            GROUP BY k ORDER BY k
        """,
        # q145: the GPKG fixture derives every feature from orders keys
        # (branch = (k//97)%8; NULL geometry when k%5=0 — dropped like
        # the reference's WHERE geom IS NOT NULL; square side 1+k%5;
        # ht = (k*13)%1000), so the per-branch aggregate recomputes
        # from the formulas without touching the files
        "q145_gpkg_source": """
            SELECT (o_orderkey // 97) % 8 AS branch,
                   CAST(COUNT(*) AS BIGINT) AS n_feat,
                   CAST(SUM((1 + o_orderkey % 5) * (1 + o_orderkey % 5))
                        AS BIGINT) AS area_sum,
                   CAST(SUM((o_orderkey * 13) % 1000) AS BIGINT) AS ht_sum
            FROM orders
            WHERE o_orderkey % 97 = 0 AND o_orderkey % 5 <> 0
            GROUP BY branch ORDER BY branch
        """,
        # q146: every PNG variant is lossless with a deterministic
        # RGB normalization (gray replicated ×3, palette gathered,
        # alpha dropped, 16-bit MSB, Adam7 == progressive of the same
        # pixels), so each per-image channel sum recomputes from the
        # generating formulas
        "q146_png_formats": """
            WITH px AS (
                SELECT o.o_orderkey AS k, x.x AS x, y.y AS y
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 239 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 27)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 19)) y)
            SELECT k AS o_orderkey, v.variant,
                   CAST(SUM(CASE v.variant
                     WHEN 'gray8' THEN 3 * ((k*3 + x*5 + y*11) % 256)
                     WHEN 'palette' THEN
                          (((k+x+y) % 16) * 37 + 11) % 256
                        + (((k+x+y) % 16) * 59 + 3) % 256
                        + (((k+x+y) % 16) * 83 + 7) % 256
                     WHEN 'rgba' THEN (k + x*2) % 256
                        + (y*3 + k*5) % 256 + (x+y+k) % 256
                     WHEN 'gray16' THEN
                          3 * (((k*7 + x*13 + y*29) % 65536) // 256)
                     WHEN 'adam7' THEN (k+x) % 256 + (2*y+k) % 256
                        + (x+y) % 256
                   END) AS BIGINT) AS px_sum
            FROM px CROSS JOIN (SELECT UNNEST(['gray8','palette','rgba',
                                               'gray16','adam7']) AS variant) v
            GROUP BY k, v.variant ORDER BY k, v.variant
        """,
        # q147: shapefile fixture formulas (Null Shape rows dropped by
        # the reader, like the reference's IS NOT NULL policy)
        "q147_shapefile_source": """
            SELECT (o_orderkey // 101) % 5 AS zone,
                   CAST(COUNT(*) AS BIGINT) AS n_feat,
                   CAST(SUM((1 + o_orderkey % 4) * (1 + o_orderkey % 4))
                        AS BIGINT) AS area_sum,
                   CAST(SUM((o_orderkey * 17) % 1000) AS BIGINT) AS ht_sum
            FROM orders
            WHERE o_orderkey % 101 = 0 AND o_orderkey % 7 <> 0
            GROUP BY zone ORDER BY zone
        """,
        # q148: MVT wire round-trip is lossless for integer tile
        # coords, so decoded per-tile vertex/tag sums recompute from
        # the feature formulas (4 open-ring vertices per square:
        # sum(x)+sum(y) = 4*x0 + 4*y0 + 4*s)
        "q148_mvt_tiles": """
            SELECT o_orderkey % 6 AS tile,
                   CAST(COUNT(*) AS BIGINT) AS n_feat,
                   CAST(SUM(4 * ((o_orderkey * 19) % 4000)
                          + 4 * ((o_orderkey * 23) % 4000)
                          + 4 * (1 + o_orderkey % 7)) AS BIGINT)
                       AS vert_sum,
                   CAST(SUM((o_orderkey * 29) % 500) AS BIGINT) AS ht_sum
            FROM orders WHERE o_orderkey % 211 = 0
            GROUP BY tile ORDER BY tile
        """,
        # q149: the Morton key of an 8-bit (x, y) is the plain bit
        # interleave — recomputable arithmetically; the bbox filter is
        # the direct coordinate test (the engine's range cover + decode
        # re-verify must select exactly these rows)
        "q149_zorder_scan": """
            WITH g AS (
                SELECT ((o_orderkey * 13) % 256) AS x,
                       ((o_orderkey * 7) % 256) AS y
                FROM orders WHERE o_orderkey % 3 = 0),
            f AS (
                SELECT x, y,
                       ((x >> 0) & 1) * 2     + ((y >> 0) & 1) * 1
                     + ((x >> 1) & 1) * 8     + ((y >> 1) & 1) * 4
                     + ((x >> 2) & 1) * 32    + ((y >> 2) & 1) * 16
                     + ((x >> 3) & 1) * 128   + ((y >> 3) & 1) * 64
                     + ((x >> 4) & 1) * 512   + ((y >> 4) & 1) * 256
                     + ((x >> 5) & 1) * 2048  + ((y >> 5) & 1) * 1024
                     + ((x >> 6) & 1) * 8192  + ((y >> 6) & 1) * 4096
                     + ((x >> 7) & 1) * 32768 + ((y >> 7) & 1) * 16384
                       AS mk
                FROM g
                WHERE x BETWEEN 40 AND 199 AND y BETWEEN 25 AND 170)
            SELECT CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(COALESCE(SUM(mk), 0) AS BIGINT) AS key_sum,
                   CAST(COALESCE(SUM(x + y), 0) AS BIGINT) AS xy_sum
            FROM f
        """,
        # q150: signed central differences of the formula grid feed
        # the integer lambertian product; GREATEST(0, ...) mirrors the
        # shade clip
        "q150_hillshade": """
            WITH g AS (
                SELECT o.o_orderkey AS k,
                       128
                       - 2 * ((o.o_orderkey * 11 + (x.x+1) * 5 + y.y * 3) % 199
                              - (o.o_orderkey * 11 + (x.x-1) * 5 + y.y * 3) % 199)
                       - 3 * ((o.o_orderkey * 11 + x.x * 5 + (y.y+1) * 3) % 199
                              - (o.o_orderkey * 11 + x.x * 5 + (y.y-1) * 3) % 199)
                       AS raw
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 157 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(1, 38)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(1, 28)) y)
            SELECT k AS o_orderkey,
                   CAST(SUM(GREATEST(raw, 0)) AS BIGINT) AS shade_sum,
                   CAST(SUM(CASE WHEN raw < 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_shadow,
                   CAST(COUNT(*) AS BIGINT) AS n_interior
            FROM g GROUP BY k ORDER BY k
        """,
        # q151: LAS stores raw int32 grid coords, so the per-class
        # sums recompute from the point-generation formulas (16 points
        # per key, classification = (k+i)%6)
        "q151_las_source": """
            WITH p AS (
                SELECT o.o_orderkey AS k, i.i AS i
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 223 = 0) o
                CROSS JOIN (SELECT generate_series AS i
                            FROM generate_series(0, 15)) i)
            SELECT (k + i) % 6 AS classification,
                   CAST(COUNT(*) AS BIGINT) AS n_pts,
                   CAST(SUM((k * 7 + i * 13) % 10000) AS BIGINT) AS xi_sum,
                   CAST(SUM((k * 3 + i * 5) % 500) AS BIGINT) AS zi_sum,
                   CAST(SUM((k * 19 + i) % 1024) AS BIGINT) AS int_sum
            FROM p GROUP BY classification ORDER BY classification
        """,
        # q152: canonical WKT of the formula squares built by string
        # concatenation — byte-identical to the engine emitter
        "q152_wkt_export": """
            WITH b AS (
                SELECT o_orderkey,
                       (o_orderkey * 9) % 500 AS x0,
                       (o_orderkey * 13) % 400 AS y0,
                       1 + o_orderkey % 6 AS s
                FROM orders WHERE o_orderkey % 227 = 0)
            SELECT o_orderkey,
                   'POLYGON ((' || CAST(x0 AS VARCHAR) || ' ' ||
                   CAST(y0 AS VARCHAR) || ', ' ||
                   CAST(x0 + s AS VARCHAR) || ' ' ||
                   CAST(y0 AS VARCHAR) || ', ' ||
                   CAST(x0 + s AS VARCHAR) || ' ' ||
                   CAST(y0 + s AS VARCHAR) || ', ' ||
                   CAST(x0 AS VARCHAR) || ' ' ||
                   CAST(y0 + s AS VARCHAR) || ', ' ||
                   CAST(x0 AS VARCHAR) || ' ' ||
                   CAST(y0 AS VARCHAR) || '))' AS wkt
            FROM b ORDER BY o_orderkey
        """,
        # q153: NDJSON text roundtrip is exact on integer coords
        "q153_geojsonseq": """
            SELECT (o_orderkey // 241) % 4 AS zone,
                   CAST(COUNT(*) AS BIGINT) AS n_feat,
                   CAST(SUM((1 + o_orderkey % 5) * (1 + o_orderkey % 5))
                        AS BIGINT) AS area_sum,
                   CAST(SUM((o_orderkey * 23) % 800) AS BIGINT) AS ht_sum
            FROM orders WHERE o_orderkey % 241 = 0
            GROUP BY zone ORDER BY zone
        """,
        # q154: the LAS fixture points (q151 formulas) BETWEEN-joined
        # to supplier-derived rectangles
        "q154_las_catchment_join": """
            WITH p AS (
                SELECT (o.o_orderkey * 7 + i.i * 13) % 10000 AS xi,
                       (o.o_orderkey * 11 + i.i * 17) % 10000 AS yi,
                       (o.o_orderkey * 3 + i.i * 5) % 500 AS zi
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 223 = 0) o
                CROSS JOIN (SELECT generate_series AS i
                            FROM generate_series(0, 15)) i),
            r AS (
                SELECT s_suppkey,
                       (s_suppkey * 31) % 9000 AS x0,
                       (s_suppkey * 41) % 9000 AS y0,
                       (s_suppkey * 31) % 9000 + 400 + s_suppkey % 600 AS x1,
                       (s_suppkey * 41) % 9000 + 300 + s_suppkey % 500 AS y1
                FROM supplier WHERE s_suppkey % 7 = 0)
            SELECT r.s_suppkey, CAST(COUNT(*) AS BIGINT) AS n_pts,
                   CAST(SUM(p.zi) AS BIGINT) AS zi_sum
            FROM p JOIN r ON p.xi BETWEEN r.x0 AND r.x1
                         AND p.yi BETWEEN r.y0 AND r.y1
            GROUP BY r.s_suppkey ORDER BY r.s_suppkey
        """,
        # q155: ground = zi - MIN(zi) OVER (PARTITION BY cell) <= 20
        "q155_ground_filter": """
            WITH p AS (
                SELECT (o.o_orderkey * 7 + i.i * 13) % 10000 AS xi,
                       (o.o_orderkey * 11 + i.i * 17) % 10000 AS yi,
                       (o.o_orderkey * 3 + i.i * 5) % 500 AS zi
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 223 = 0) o
                CROSS JOIN (SELECT generate_series AS i
                            FROM generate_series(0, 15)) i),
            c AS (
                SELECT xi // 500 AS cell_x, zi,
                       zi - MIN(zi) OVER (PARTITION BY xi // 500,
                                          yi // 500) AS dz
                FROM p)
            SELECT cell_x,
                   CAST(SUM(CASE WHEN dz <= 20 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_ground,
                   CAST(COUNT(*) AS BIGINT) AS n_pts
            FROM c GROUP BY cell_x ORDER BY cell_x
        """,
        # q156: 10-bit interleave over the even orders keys, filtered
        # by the coordinate bbox (the engine must reach the same rows
        # through row-group-statistics pruning + decode re-verify)
        "q156_zorder_pruned_scan": """
            WITH g AS (
                SELECT o_orderkey AS k,
                       ((o_orderkey * 29) % 1024) AS x,
                       ((o_orderkey * 37) % 1024) AS y
                FROM orders WHERE o_orderkey % 2 = 0),
            f AS (
                SELECT k, x, y,
                       (SELECT SUM(((x >> i.i) & 1) * (1 << (2 * i.i + 1))
                                 + ((y >> i.i) & 1) * (1 << (2 * i.i)))
                        FROM generate_series(0, 9) i(i)) AS mk
                FROM g
                WHERE x BETWEEN 100 AND 420 AND y BETWEEN 50 AND 300)
            SELECT CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(COALESCE(SUM(k), 0) AS BIGINT) AS k_sum,
                   CAST(COALESCE(SUM(mk), 0) AS BIGINT) AS key_sum
            FROM f
        """,
        # q157: per-cell floor-mean from the q151 point formulas; the
        # left join against the full row series keeps empty DEM rows
        "q157_las_to_dem": """
            WITH p AS (
                SELECT (o.o_orderkey * 7 + i.i * 13) % 10000 AS xi,
                       (o.o_orderkey * 11 + i.i * 17) % 10000 AS yi,
                       (o.o_orderkey * 3 + i.i * 5) % 500 AS zi
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 223 = 0) o
                CROSS JOIN (SELECT generate_series AS i
                            FROM generate_series(0, 15)) i),
            c AS (
                SELECT xi // 500 AS cx, yi // 500 AS cy,
                       CAST(SUM(zi) AS BIGINT) // COUNT(*) AS mean_z
                FROM p GROUP BY cx, cy)
            SELECT g.gy,
                   CAST(COUNT(c.cy) AS BIGINT) AS n_cells,
                   CAST(COALESCE(SUM(c.mean_z), 0) AS BIGINT) AS mean_sum
            FROM (SELECT generate_series AS gy
                  FROM generate_series(0, 19)) g
            LEFT JOIN c ON c.cy = g.gy
            GROUP BY g.gy ORDER BY g.gy
        """,
        # q158: the PCM16 roundtrip is exact, so each decimated output
        # is a 7-term dot product over the sample formula at stride 4
        # (valid region: 4t+6 <= n-1)
        "q158_fir_decimate": """
            WITH ks AS (
                SELECT o_orderkey AS k, 160 + o_orderkey % 120 AS n
                FROM orders WHERE o_orderkey % 197 = 0),
            y AS (
                SELECT k,
                       1 * ((k*13 + (4*t.t + 0) * 31) % 2000 - 1000)
                     + 2 * ((k*13 + (4*t.t + 1) * 31) % 2000 - 1000)
                     + 3 * ((k*13 + (4*t.t + 2) * 31) % 2000 - 1000)
                     + 4 * ((k*13 + (4*t.t + 3) * 31) % 2000 - 1000)
                     + 3 * ((k*13 + (4*t.t + 4) * 31) % 2000 - 1000)
                     + 2 * ((k*13 + (4*t.t + 5) * 31) % 2000 - 1000)
                     + 1 * ((k*13 + (4*t.t + 6) * 31) % 2000 - 1000)
                       AS y
                FROM ks CROSS JOIN (SELECT generate_series AS t
                                    FROM generate_series(0, 100)) t
                WHERE 4 * t.t + 6 <= n - 1)
            SELECT k AS o_orderkey, CAST(COUNT(*) AS BIGINT) AS n_out,
                   CAST(SUM(y) AS BIGINT) AS y_sum,
                   CAST(MAX(y) AS BIGINT) AS y_max
            FROM y GROUP BY k ORDER BY k
        """,
        # q159: the LUT buckets as a CASE over the pixel formula
        "q159_reclassify": """
            WITH px AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey * 9 + x.x * 7 + y.y * 5) % 256 AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 163 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 35)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 26)) y),
            c AS (
                SELECT k, v,
                       CASE WHEN v < 64 THEN 0 WHEN v < 128 THEN 1
                            WHEN v < 192 THEN 2 WHEN v < 224 THEN 3
                            ELSE 4 END AS cls
                FROM px)
            SELECT k AS o_orderkey, CAST(cls AS BIGINT) AS cls,
                   CAST(COUNT(*) AS BIGINT) AS n_px,
                   CAST(SUM(v) AS BIGINT) AS v_sum
            FROM c GROUP BY k, cls ORDER BY k, cls
        """,
        # q160: signed difference of the two epoch formulas
        "q160_dem_difference": """
            WITH px AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey * 3 + x.x * 11 + y.y * 2) % 211
                       - (o.o_orderkey * 7 + x.x * 5 + y.y * 9) % 211 AS d
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 167 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 29)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 21)) y)
            SELECT k AS o_orderkey,
                   CAST(SUM(CASE WHEN d > 0 THEN d ELSE 0 END) AS BIGINT)
                       AS deposition,
                   CAST(SUM(CASE WHEN d < 0 THEN -d ELSE 0 END) AS BIGINT)
                       AS erosion,
                   CAST(SUM(CASE WHEN d = 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_same
            FROM px GROUP BY k ORDER BY k
        """,
        # q161: bracketing breakpoint j = MAX(j) with dis_j <= Q, then
        # integer interpolation and the depth threshold per pixel
        "q161_inundation": """
            WITH ks AS (
                SELECT o_orderkey AS k, 3 + o_orderkey % 5 AS a
                FROM orders WHERE o_orderkey % 179 = 0),
            ht AS (
                SELECT ks.k, ks.a, j.j,
                       j.j * j.j * ks.a + j.j AS dis, j.j * 12 AS stg
                FROM ks CROSS JOIN (SELECT generate_series AS j
                                    FROM generate_series(0, 9)) j),
            qq AS (
                SELECT k, a, (k * 37) % (81 * a + 9) AS q FROM ks),
            br AS (
                SELECT qq.k, qq.q, MAX(ht.j) AS j
                FROM qq JOIN ht ON ht.k = qq.k AND ht.dis <= qq.q
                GROUP BY qq.k, qq.q),
            st AS (
                SELECT br.k,
                       lo.stg + (br.q - lo.dis) * 12 // (hi.dis - lo.dis)
                           AS stage
                FROM br
                JOIN ht lo ON lo.k = br.k AND lo.j = br.j
                JOIN ht hi ON hi.k = br.k AND hi.j = br.j + 1),
            px AS (
                SELECT st.k, st.stage,
                       st.stage - (st.k * 5 + x.x * 3 + y.y * 7) % 97
                           AS depth
                FROM st
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 23)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 17)) y)
            SELECT k AS o_orderkey, CAST(stage AS BIGINT) AS stage,
                   CAST(SUM(CASE WHEN depth > 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_flooded,
                   CAST(SUM(CASE WHEN depth > 0 THEN depth ELSE 0 END)
                        AS BIGINT) AS depth_sum
            FROM px GROUP BY k, stage ORDER BY k
        """,
        # q162: response r = |dx|*|dy| of the formula grid; NMS keeps
        # strict 8-neighborhood maxima (NOT EXISTS a >= neighbor)
        "q162_corner_nms": """
            WITH v AS (
                SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                       (o.o_orderkey * 7 + x.x * x.x * 3
                        + y.y * y.y * 5 + x.x * y.y) % 151 AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 193 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 25)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 19)) y),
            r AS (
                SELECT a.k, a.x, a.y,
                       ABS(r1.v - l1.v) * ABS(d1.v - u1.v) AS r
                FROM v a
                JOIN v r1 ON r1.k = a.k AND r1.x = a.x + 1 AND r1.y = a.y
                JOIN v l1 ON l1.k = a.k AND l1.x = a.x - 1 AND l1.y = a.y
                JOIN v d1 ON d1.k = a.k AND d1.x = a.x AND d1.y = a.y + 1
                JOIN v u1 ON u1.k = a.k AND u1.x = a.x AND u1.y = a.y - 1
                WHERE a.x BETWEEN 1 AND 24 AND a.y BETWEEN 1 AND 18),
            peaks AS (
                SELECT c.k, c.r FROM r c
                WHERE c.x BETWEEN 2 AND 23 AND c.y BETWEEN 2 AND 17
                  AND NOT EXISTS (
                      SELECT 1 FROM r n
                      WHERE n.k = c.k
                        AND ABS(n.x - c.x) <= 1 AND ABS(n.y - c.y) <= 1
                        AND NOT (n.x = c.x AND n.y = c.y)
                        AND n.r >= c.r))
            SELECT k AS o_orderkey,
                   CAST(COUNT(*) AS BIGINT) AS n_keypoints,
                   CAST(COALESCE(SUM(r), 0) AS BIGINT) AS resp_sum
            FROM peaks GROUP BY k ORDER BY k
        """,
        # q163: squared-distance argmin over the 8 palette formulas,
        # first-wins tie-break via ROW_NUMBER ordered (d, e)
        "q163_palette_quantize": """
            WITH px AS (
                SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                       (o.o_orderkey * 3 + x.x * 7 + y.y * 11) % 256 AS r,
                       (o.o_orderkey * 5 + x.x * 13 + y.y * 3) % 256 AS g,
                       (o.o_orderkey * 11 + x.x * 2 + y.y * 17) % 256 AS b
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 181 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 21)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 15)) y),
            d AS (
                SELECT px.k, px.x, px.y, e.e,
                       (px.r - (e.e * 36) % 256) * (px.r - (e.e * 36) % 256)
                     + (px.g - (e.e * 52 + 17) % 256)
                       * (px.g - (e.e * 52 + 17) % 256)
                     + (px.b - (e.e * 77 + 5) % 256)
                       * (px.b - (e.e * 77 + 5) % 256) AS d,
                       ROW_NUMBER() OVER (PARTITION BY px.k, px.x, px.y
                                          ORDER BY (px.r - (e.e*36)%256)
                                          * (px.r - (e.e*36)%256)
                                          + (px.g - (e.e*52+17)%256)
                                          * (px.g - (e.e*52+17)%256)
                                          + (px.b - (e.e*77+5)%256)
                                          * (px.b - (e.e*77+5)%256),
                                          e.e) AS rn
                FROM px CROSS JOIN (SELECT generate_series AS e
                                    FROM generate_series(0, 7)) e)
            SELECT k AS o_orderkey, CAST(e AS BIGINT) AS entry,
                   CAST(COUNT(*) AS BIGINT) AS n_px,
                   CAST(SUM(d) AS BIGINT) AS d_sum
            FROM d WHERE rn = 1
            GROUP BY k, e ORDER BY k, e
        """,
        # q164: score at (px, py) = Σ tpl(i,j)·img(px+j, py+i); argmax
        # with row-major first-wins = ROW_NUMBER(score DESC, py, px)
        "q164_template_match": """
            WITH ks AS (
                SELECT o_orderkey AS k FROM orders
                WHERE o_orderkey % 191 = 0),
            pos AS (
                SELECT ks.k, px.px, py.py,
                       (SELECT SUM(((ks.k * 5 + i.i * 3
                                     + j.j * 11) % 9)
                                   * ((ks.k * 3 + (px.px + j.j) * 13
                                       + (py.py + i.i) * 7) % 64))
                        FROM generate_series(0, 2) i(i),
                             generate_series(0, 2) j(j)) AS score
                FROM ks
                CROSS JOIN (SELECT generate_series AS px
                            FROM generate_series(0, 21)) px
                CROSS JOIN (SELECT generate_series AS py
                            FROM generate_series(0, 17)) py),
            best AS (
                SELECT k, px, py, score,
                       ROW_NUMBER() OVER (PARTITION BY k
                                          ORDER BY score DESC, py, px)
                           AS rn
                FROM pos)
            SELECT k AS o_orderkey, CAST(px AS BIGINT) AS best_x,
                   CAST(py AS BIGINT) AS best_y,
                   CAST(score AS BIGINT) AS best_score
            FROM best WHERE rn = 1 ORDER BY k
        """,
        # q165: same RE2 pattern; DuckDB len() over extract_all for
        # the count, regexp_replace(..., 'g') for the redaction
        "q165_pii_redact": """
            WITH d AS (
                SELECT doc_id,
                       text || ' contact u' || CAST(doc_id AS VARCHAR)
                       || '@ex' || CAST(doc_id % 7 AS VARCHAR)
                       || '.com now' AS t2
                FROM documents WHERE doc_id % 5 = 0)
            SELECT doc_id,
                   CAST(LEN(regexp_extract_all(t2,
                        '[A-Za-z0-9_.]+@[A-Za-z0-9]+\\.[A-Za-z]{2,4}'))
                        AS BIGINT) AS n_matches,
                   CAST(LENGTH(regexp_replace(t2,
                        '[A-Za-z0-9_.]+@[A-Za-z0-9]+\\.[A-Za-z]{2,4}',
                        '<EMAIL>', 'g')) AS BIGINT) AS red_len
            FROM d ORDER BY doc_id
        """,
        # q166: the construction rule labels validity (bowtie when
        # k%3=0) — the engine must reach the same labels by geometry
        "q166_validity_check": """
            SELECT o_orderkey % 4 AS zone,
                   CAST(SUM(CASE WHEN o_orderkey % 3 <> 0
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_valid,
                   CAST(SUM(CASE WHEN o_orderkey % 3 = 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_invalid,
                   CAST(SUM(CASE WHEN o_orderkey % 3 <> 0
                            THEN (1 + o_orderkey % 5) * (1 + o_orderkey % 5)
                            ELSE 0 END) AS BIGINT) AS area_sum
            FROM orders WHERE o_orderkey % 157 = 0
            GROUP BY zone ORDER BY zone
        """,
        # q167: per frame f, pixel index i = (k + 3x + 5y + 7f) % 16
        # gathered through the frame-f palette formulas
        "q167_gif_decode": """
            WITH px AS (
                SELECT o.o_orderkey AS k, f.f,
                       (o.o_orderkey + x.x * 3 + y.y * 5 + f.f * 7) % 16
                           AS i
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 251 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 17)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 13)) y
                CROSS JOIN (SELECT generate_series AS f
                            FROM generate_series(0, 2)) f)
            SELECT k AS o_orderkey, f AS frame,
                   CAST(SUM((i * 31 + f * 13 + 1) % 256
                          + (i * 47 + f * 3) % 256
                          + (i * 11 + f * 29 + 5) % 256) AS BIGINT)
                       AS px_sum
            FROM px GROUP BY k, f ORDER BY k, f
        """,
        # q168: one formula sum fanned across the four containers (all
        # four are lossless representations of the same palette image)
        "q168_mixed_sniff": """
            WITH px AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey + x.x * 2 + y.y * 3) % 16 AS i
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 257 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 15)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 11)) y),
            s AS (
                SELECT k, CAST(SUM((i * 29 + 3) % 256
                             + (i * 53 + 11) % 256
                             + (i * 71 + 1) % 256) AS BIGINT) AS px_sum
                FROM px GROUP BY k)
            SELECT s.k AS o_orderkey, c.container, s.px_sum
            FROM s CROSS JOIN (SELECT UNNEST(['bmp24', 'bmp_rle',
                                              'gif', 'png_pal'])
                               AS container) c
            ORDER BY s.k, c.container
        """,
        # q169: both members of each key are lossless palette images
        # of the same formula; container = sniffed format name
        "q169_zip_ingest": """
            WITH px AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey * 3 + x.x + y.y * 5) % 16 AS i
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 263 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 13)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 9)) y),
            s AS (
                SELECT k, CAST(SUM((i * 19 + 7) % 256
                             + (i * 43 + 13) % 256
                             + (i * 61 + 2) % 256) AS BIGINT) AS px_sum
                FROM px GROUP BY k)
            SELECT s.k AS o_orderkey, c.container, s.px_sum
            FROM s CROSS JOIN (SELECT UNNEST(['bmp', 'png'])
                               AS container) c
            ORDER BY s.k, c.container
        """,
        # q170: lossless palette PNG ⇒ pixel sums re-derive from the
        # generator formula; captions rebuild with string concat
        "q170_webdataset": """
            WITH px AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey * 5 + x.x * 2 + y.y * 7) % 16 AS i
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 269 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 13)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 9)) y)
            SELECT k AS o_orderkey,
                   CAST(SUM((i * 23 + 5) % 256 + (i * 47 + 9) % 256
                          + (i * 59 + 4) % 256) AS BIGINT) AS px_sum,
                   'tile ' || CAST(k AS VARCHAR) || ' of corpus'
                       AS caption
            FROM px GROUP BY k ORDER BY k
        """,
        "q171_merge_upsert": """
            WITH ch AS (
                SELECT o_custkey AS k, o_orderkey % 1000 AS v,
                       epoch_us(o_orderdate) AS ts, o_orderkey AS tb,
                       CASE WHEN o_orderkey % 7 = 0 THEN 'D' ELSE 'U'
                           END AS op
                FROM orders),
            latest AS (
                SELECT k, v, op FROM (
                    SELECT k, v, op,
                           ROW_NUMBER() OVER (PARTITION BY k
                               ORDER BY ts DESC, tb DESC) AS rn
                    FROM ch) WHERE rn = 1),
            base AS (SELECT c_custkey AS k,
                            CAST(c_nationkey AS BIGINT) AS v
                     FROM customer)
            SELECT COALESCE(l.k, b.k) AS k,
                   CAST(COALESCE(l.v, b.v) AS BIGINT) AS v
            FROM base b FULL OUTER JOIN latest l ON b.k = l.k
            WHERE COALESCE(l.op, 'U') <> 'D'
            ORDER BY k
        """,
        "q172_scd2": """
            WITH ch AS (
                SELECT o_custkey AS k, epoch_us(o_orderdate) AS ts,
                       o_orderkey AS tb, o_orderkey % 5 AS attr
                FROM orders),
            ord AS (
                SELECT k, ts, tb, attr,
                       LAG(attr) OVER (PARTITION BY k
                           ORDER BY ts, tb) AS pattr
                FROM ch),
            chg AS (SELECT k, ts, tb, attr FROM ord
                    WHERE pattr IS NULL OR attr <> pattr),
            iv AS (
                SELECT k, attr, ts AS valid_from,
                       COALESCE(LEAD(ts) OVER (PARTITION BY k
                           ORDER BY ts, tb), -1) AS valid_to
                FROM chg)
            SELECT k, attr, valid_from, valid_to FROM iv
            ORDER BY k, valid_from, valid_to
        """,
        "q173_orc_interchange": """
            SELECT o_custkey % 10 AS bucket,
                   CAST(2 * SUM(o_orderkey) AS BIGINT) AS key_sum,
                   CAST(2 * COUNT(*) AS BIGINT) AS n
            FROM orders GROUP BY 1 ORDER BY 1
        """,
        "q174_regression": """
            WITH t AS (
                SELECT l_suppkey % 100 AS g,
                       CAST(l_quantity AS BIGINT) AS x,
                       CAST(ROUND(l_extendedprice * 100.0) AS BIGINT) AS y
                FROM lineitem)
            SELECT g, COUNT(*) AS n,
                   CAST(SUM(x) AS BIGINT) AS sum_x,
                   CAST(SUM(y) AS BIGINT) AS sum_y,
                   CAST(COUNT(*) * SUM(x * y) - SUM(x) * SUM(y)
                        AS BIGINT) AS slope_num,
                   CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x)
                        AS BIGINT) AS slope_den
            FROM t GROUP BY g ORDER BY g
        """,
        "q175_phase_corr": """
            SELECT o_orderkey AS k,
                   o_orderkey % 32 AS dy,
                   (o_orderkey * 7) % 32 AS dx
            FROM orders WHERE o_orderkey % 181 = 0 ORDER BY k
        """,
        "q176_block_motion": """
            SELECT o_orderkey AS k,
                   -(o_orderkey % 9 - 4) AS dy,
                   -((o_orderkey // 9) % 9 - 4) AS dx,
                   CAST(0 AS BIGINT) AS sad
            FROM orders WHERE o_orderkey % 173 = 0 ORDER BY k
        """,
        "q177_hough_lines": """
            SELECT o_orderkey AS k,
                   o_orderkey % 2 AS angle,
                   o_orderkey % 29 AS rho,
                   CAST(32 AS BIGINT) AS votes
            FROM orders WHERE o_orderkey % 167 = 0 ORDER BY k
        """,
        "q178_gpx_tracks": """
            WITH pts AS (
                SELECT o_orderkey % 6 AS track_id,
                       ROW_NUMBER() OVER (PARTITION BY o_orderkey % 6
                           ORDER BY o_orderkey) - 1 AS idx,
                       35000000 + (o_orderkey % 997) * 1000 AS lat,
                       -98000000 + ((o_orderkey * 3) % 997) * 1000 AS lon,
                       (o_orderkey % 500) * 10 AS ele,
                       (1600000000 + o_orderkey % 86400) * 1000000 AS ts
                FROM orders WHERE o_orderkey % 131 = 0),
            d AS (SELECT track_id, idx, ele, ts,
                         lat - LAG(lat) OVER w AS dlat,
                         lon - LAG(lon) OVER w AS dlon,
                         ele - LAG(ele) OVER w AS dele
                  FROM pts
                  WINDOW w AS (PARTITION BY track_id ORDER BY idx))
            SELECT track_id, COUNT(*) AS n,
                   CAST(COALESCE(SUM(ABS(dlat) + ABS(dlon)), 0)
                        AS BIGINT) AS length_udeg,
                   CAST(COALESCE(SUM(CASE WHEN dele > 0 THEN dele
                                     ELSE 0 END), 0) AS BIGINT)
                       AS climb_cm,
                   MAX(ts) - MIN(ts) AS span_us
            FROM d GROUP BY track_id ORDER BY track_id
        """,
        "q179_tile_pyramid": """
            WITH base AS (
                SELECT tx.g AS tx, ty.g AS ty, x.g AS x, y.g AS y,
                       (tx.g * 131 + ty.g * 17 + x.g * 7 + y.g * 3)
                           % 256 AS v,
                       tx.g * 8 + x.g AS gx, ty.g * 8 + y.g AS gy
                FROM (SELECT generate_series AS g
                      FROM generate_series(0, 7)) tx,
                     (SELECT generate_series AS g
                      FROM generate_series(0, 7)) ty,
                     (SELECT generate_series AS g
                      FROM generate_series(0, 7)) x,
                     (SELECT generate_series AS g
                      FROM generate_series(0, 7)) y),
            lv AS (SELECT generate_series AS z
                   FROM generate_series(0, 3))
            SELECT lv.z AS z,
                   gx // (8 * (1 << (3 - lv.z))) AS tx,
                   gy // (8 * (1 << (3 - lv.z))) AS ty,
                   CAST(SUM(v) AS BIGINT) AS px_sum,
                   CAST(SUM(v) FILTER (WHERE
                       gx // (1 << (3 - lv.z))
                           = (gx // (8 * (1 << (3 - lv.z)))) * 8
                       AND gy // (1 << (3 - lv.z))
                           = (gy // (8 * (1 << (3 - lv.z)))) * 8)
                       AS BIGINT) AS px00
            FROM base, lv GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
        "q180_avro_source": """
            SELECT o_orderkey % 11 AS cat, COUNT(*) AS n,
                   CAST(SUM(CASE WHEN o_orderkey % 3 = 0
                            THEN 1 ELSE 0 END) AS BIGINT) AS flag_n,
                   CAST(SUM(CASE WHEN o_orderkey % 4 = 0 THEN 0
                            ELSE o_orderkey % 100 END) AS BIGINT)
                       AS opt_sum,
                   CAST(SUM(CASE WHEN o_orderkey % 4 = 0
                            THEN 1 ELSE 0 END) AS BIGINT) AS null_n
            FROM orders WHERE o_orderkey % 127 = 0
            GROUP BY 1 ORDER BY 1
        """,
        "q181_table_diff": """
            WITH a AS (SELECT c_custkey AS k,
                              CAST(c_nationkey AS BIGINT) AS v
                       FROM customer),
            b AS (SELECT k,
                         CASE WHEN k % 5 = 0 THEN v + 1 ELSE v END AS v
                  FROM a WHERE k % 13 <> 0
                  UNION ALL
                  SELECT c_custkey + 10000000,
                         CAST(c_custkey % 7 AS BIGINT)
                  FROM customer WHERE c_custkey % 17 = 0)
            SELECT COALESCE(a.k, b.k) AS k,
                   CASE WHEN a.k IS NULL THEN 'added'
                        WHEN b.k IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM a FULL OUTER JOIN b ON a.k = b.k
            WHERE a.k IS NULL OR b.k IS NULL OR a.v <> b.v
            ORDER BY 1
        """,
        "q182_frequent_pairs": """
            WITH dp AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM lineitem),
            pr AS (SELECT a.l_partkey AS p1, b.l_partkey AS p2
                   FROM dp a JOIN dp b
                   ON a.l_orderkey = b.l_orderkey
                      AND a.l_partkey < b.l_partkey),
            c AS (SELECT p1, p2, COUNT(*) AS cnt FROM pr GROUP BY 1, 2)
            SELECT p1, p2, cnt FROM c
            ORDER BY cnt DESC, p1, p2 LIMIT 20
        """,
        "q183_changepoint": """
            WITH e AS (
                SELECT user_id,
                       ROW_NUMBER() OVER (PARTITION BY user_id
                           ORDER BY ts, event_id) AS k,
                       CAST(ROUND(value * 100.0) AS BIGINT) AS v
                FROM events),
            tot AS (SELECT user_id, CAST(SUM(v) AS BIGINT) AS total,
                           COUNT(*) AS n
                    FROM e GROUP BY 1),
            pre AS (SELECT user_id, k,
                           CAST(SUM(v) OVER (PARTITION BY user_id
                               ORDER BY k) AS BIGINT) AS p
                    FROM e),
            dev AS (SELECT p.user_id, p.k,
                           ABS(t.n * p.p - p.k * t.total) AS d
                    FROM pre p JOIN tot t USING (user_id)
                    WHERE p.k < t.n),
            r AS (SELECT user_id, k, d,
                         ROW_NUMBER() OVER (PARTITION BY user_id
                             ORDER BY d DESC, k) AS rn
                  FROM dev)
            SELECT user_id, k AS change_k, CAST(d AS BIGINT) AS dev
            FROM r WHERE rn = 1 ORDER BY user_id
        """,
        "q184_profile": """
            SELECT 'l_linenumber' AS col, COUNT(*) AS n,
                   CAST(SUM(CASE WHEN l_linenumber IS NULL
                            THEN 1 ELSE 0 END) AS BIGINT) AS nulls,
                   CAST(MIN(l_linenumber) AS BIGINT) AS min_v,
                   CAST(MAX(l_linenumber) AS BIGINT) AS max_v,
                   COUNT(DISTINCT l_linenumber) AS n_distinct
            FROM lineitem
            UNION ALL
            SELECT 'l_partkey', COUNT(*),
                   CAST(SUM(CASE WHEN l_partkey IS NULL
                            THEN 1 ELSE 0 END) AS BIGINT),
                   CAST(MIN(l_partkey) AS BIGINT),
                   CAST(MAX(l_partkey) AS BIGINT),
                   COUNT(DISTINCT l_partkey)
            FROM lineitem
            UNION ALL
            SELECT 'l_quantity', COUNT(*),
                   CAST(SUM(CASE WHEN l_quantity IS NULL
                            THEN 1 ELSE 0 END) AS BIGINT),
                   CAST(MIN(CAST(l_quantity AS BIGINT)) AS BIGINT),
                   CAST(MAX(CAST(l_quantity AS BIGINT)) AS BIGINT),
                   COUNT(DISTINCT CAST(l_quantity AS BIGINT))
            FROM lineitem
            ORDER BY col
        """,
        "q185_viewshed": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 151 = 0),
            terr AS (
                SELECT ks.k, x.g AS x,
                       (ks.k * 7 + x.g * x.g * 3
                        + ((ks.k + x.g) % 11) * 5) % 97 AS h
                FROM ks, (SELECT generate_series AS g
                          FROM generate_series(0, 23)) x),
            h0 AS (SELECT k, h AS h0 FROM terr WHERE x = 0)
            SELECT t.k, COUNT(*) AS n_visible
            FROM terr t JOIN h0 USING (k)
            WHERE t.x >= 1 AND NOT EXISTS (
                SELECT 1 FROM terr b
                WHERE b.k = t.k AND b.x >= 1 AND b.x < t.x
                  AND (t.h - h0.h0) * b.x <= (b.h - h0.h0) * t.x)
            GROUP BY t.k ORDER BY t.k
        """,
        "q187_bfs_hops": """
            WITH RECURSIVE e AS (
                SELECT o_orderkey % 1000 AS u,
                       (o_orderkey * 7) % 1000 AS v
                FROM orders WHERE o_orderkey % 11 = 0),
            sym AS (SELECT u, v FROM e UNION SELECT v, u FROM e),
            bfs(node, hops) AS (
                SELECT DISTINCT u, 0 FROM sym WHERE u IN (7, 13)
                UNION
                SELECT s.v, b.hops + 1
                FROM bfs b JOIN sym s ON s.u = b.node
                WHERE b.hops < 50)
            SELECT node, CAST(MIN(hops) AS BIGINT) AS hops
            FROM bfs GROUP BY node ORDER BY node
        """,
        "q186_pitch_detect": """
            SELECT o_orderkey AS k,
                   20 + 2 * (o_orderkey % 15) AS period,
                   (400 - (20 + 2 * (o_orderkey % 15)))
                       * (1000 + o_orderkey % 7)
                       * (1000 + o_orderkey % 7) AS peak
            FROM orders WHERE o_orderkey % 163 = 0 ORDER BY k
        """,
        "q188_segment_snap": """
            WITH segs(sid, x1, y1, x2, y2) AS (VALUES
                (0, 10, 20, 130, 20), (1, 35, 5, 35, 95),
                (2, 20, 100, 140, 100), (3, 105, 15, 105, 105),
                (4, 30, 180, 150, 180), (5, 175, 25, 175, 115),
                (6, 40, 260, 160, 260), (7, 245, 35, 245, 125)),
            pts AS (SELECT o_orderkey AS k,
                           (o_orderkey * 13) % 400 AS px,
                           (o_orderkey * 29) % 400 AS py
                    FROM orders WHERE o_orderkey % 7 = 0),
            d AS (SELECT k, sid,
                         CASE WHEN x1 = x2 THEN
                             (px - x1) * (px - x1)
                             + CASE WHEN py < y1 THEN (y1 - py) * (y1 - py)
                                    WHEN py > y2 THEN (py - y2) * (py - y2)
                                    ELSE 0 END
                         ELSE
                             (py - y1) * (py - y1)
                             + CASE WHEN px < x1 THEN (x1 - px) * (x1 - px)
                                    WHEN px > x2 THEN (px - x2) * (px - x2)
                                    ELSE 0 END
                         END AS d2
                  FROM pts, segs),
            r AS (SELECT k, sid, d2,
                         ROW_NUMBER() OVER (PARTITION BY k
                             ORDER BY d2, sid) AS rn
                  FROM d)
            SELECT k, CAST(sid AS BIGINT) AS seg, CAST(d2 AS BIGINT) AS d2
            FROM r WHERE rn = 1 ORDER BY k
        """,
        # q201: nb includes self (deg counts the point itself, the
        # sklearn convention); the recursive term floods every label
        # through core edges, MIN(lbl) per id = min core id of the
        # component
        "q201_dbscan": """
            WITH RECURSIVE pts AS (
                SELECT o_orderkey AS id,
                       (o_orderkey * 13) % 200 AS x,
                       (o_orderkey * 29) % 200 AS y
                FROM orders WHERE o_orderkey % 11 = 0),
            nb AS (SELECT a.id AS ia, b.id AS ib
                   FROM pts a JOIN pts b
                     ON (a.x - b.x) * (a.x - b.x)
                        + (a.y - b.y) * (a.y - b.y) <= 36),
            core AS (SELECT ia AS id FROM nb GROUP BY ia
                     HAVING COUNT(*) >= 4),
            ce AS (SELECT n.ia, n.ib FROM nb n
                   JOIN core c1 ON n.ia = c1.id
                   JOIN core c2 ON n.ib = c2.id),
            r(id, lbl) AS (
                SELECT id, id FROM core
                UNION
                SELECT ce.ib, r.lbl FROM r JOIN ce ON ce.ia = r.id),
            cl AS (SELECT id, MIN(lbl) AS cluster FROM r GROUP BY id),
            bor AS (SELECT n.ia AS id, MIN(n.ib) AS anchor
                    FROM nb n JOIN core c ON n.ib = c.id
                    WHERE n.ia NOT IN (SELECT id FROM core)
                    GROUP BY n.ia)
            SELECT id, cluster, CAST(2 AS BIGINT) AS role FROM cl
            UNION ALL
            SELECT b.id, cl.cluster, CAST(1 AS BIGINT)
            FROM bor b JOIN cl ON cl.id = b.anchor
            UNION ALL
            SELECT p.id, CAST(-1 AS BIGINT), CAST(0 AS BIGINT)
            FROM pts p
            WHERE p.id NOT IN (SELECT id FROM core)
              AND p.id NOT IN (SELECT id FROM bor)
            ORDER BY id
        """,
        # q199: product() skips NULLs, so the self-join CASE builds
        # Π_{t≠s} d²; the double-precision product is exact below 2^53
        # and the BIGINT cast restores integer arithmetic for the sums
        "q199_idw": """
            WITH pts AS (
                SELECT o_orderkey AS k,
                       ((o_orderkey * 3) % 30) * 2 + 1 AS px,
                       ((o_orderkey * 7) % 30) * 2 + 1 AS py
                FROM orders WHERE o_orderkey % 19 = 0),
            s(sx, sy, v) AS (VALUES (4, 8, 120), (20, 30, 200),
                                    (44, 12, 60), (10, 50, 180),
                                    (52, 48, 240)),
            d AS (SELECT k, sx, sy, v,
                         (px - sx) * (px - sx)
                         + (py - sy) * (py - sy) AS d2
                  FROM pts, s),
            pr AS (SELECT a.k, a.sx, a.v,
                          CAST(product(CASE WHEN b.sx = a.sx
                                             AND b.sy = a.sy THEN NULL
                                        ELSE b.d2 END) AS BIGINT) AS po
                   FROM d a JOIN d b ON a.k = b.k
                   GROUP BY a.k, a.sx, a.sy, a.v)
            SELECT k AS o_orderkey,
                   CAST(SUM(v * po) AS BIGINT) AS num,
                   CAST(SUM(po) AS BIGINT) AS den,
                   CAST(SUM(v * po) AS BIGINT)
                       // CAST(SUM(po) AS BIGINT) AS est
            FROM pr GROUP BY k ORDER BY k
        """,
        "q200_butterflies": """
            WITH e AS (
                SELECT DISTINCT o_orderkey % 25 AS u,
                                (o_orderkey // 25) % 12 AS w
                FROM orders WHERE o_orderkey % 7 = 0),
            p AS (SELECT a.u AS u1, b.u AS u2,
                         CAST(COUNT(*) AS BIGINT) AS c
                  FROM e a JOIN e b ON a.w = b.w AND a.u < b.u
                  GROUP BY a.u, b.u)
            SELECT u1, u2, c, c * (c - 1) // 2 AS bf
            FROM p WHERE c >= 2 ORDER BY u1, u2
        """,
        # q197: lonq/latq are exact integer quantizations; interleave
        # (lon on odd bit positions) via shift/mask over a 15-bit
        # series; chars from the published base-32 alphabet
        "q197_geohash": """
            WITH pts AS (
                SELECT o_orderkey AS k,
                       (o_orderkey * 9301) % 180000000 - 90000000
                           AS lat,
                       (o_orderkey * 7817) % 360000000 - 180000000
                           AS lon
                FROM orders WHERE o_orderkey % 17 = 0),
            q AS (
                SELECT k,
                       ((lon + 180000000) * 32768) // 360000000
                           AS lonq,
                       ((lat + 90000000) * 32768) // 180000000
                           AS latq
                FROM pts),
            code AS (
                SELECT k,
                       CAST(SUM((((lonq >> i.i) & 1) << (2 * i.i + 1))
                                + (((latq >> i.i) & 1) << (2 * i.i)))
                            AS BIGINT) AS code
                FROM q CROSS JOIN (SELECT generate_series AS i
                                   FROM generate_series(0, 14)) i
                GROUP BY k)
            SELECT k AS o_orderkey, code,
                   substr('0123456789bcdefghjkmnpqrstuvwxyz',
                          CAST(((code >> 25) & 31) + 1 AS INT), 1)
                || substr('0123456789bcdefghjkmnpqrstuvwxyz',
                          CAST(((code >> 20) & 31) + 1 AS INT), 1)
                || substr('0123456789bcdefghjkmnpqrstuvwxyz',
                          CAST(((code >> 15) & 31) + 1 AS INT), 1)
                || substr('0123456789bcdefghjkmnpqrstuvwxyz',
                          CAST(((code >> 10) & 31) + 1 AS INT), 1)
                || substr('0123456789bcdefghjkmnpqrstuvwxyz',
                          CAST(((code >> 5) & 31) + 1 AS INT), 1)
                || substr('0123456789bcdefghjkmnpqrstuvwxyz',
                          CAST((code & 31) + 1 AS INT), 1) AS gh
            FROM code ORDER BY k
        """,
        # q198: the planted 3-core — tails peel, cliques of size
        # c = 4 + k%3 survive with degree c-1
        "q198_kcore": """
            SELECT o.o_orderkey * 100 + i.i AS node,
                   CAST(3 + o.o_orderkey % 3 AS BIGINT) AS deg
            FROM (SELECT o_orderkey FROM orders
                  WHERE o_orderkey % 53 = 0) o
            JOIN (SELECT generate_series AS i
                  FROM generate_series(0, 5)) i
              ON i.i < 4 + o.o_orderkey % 3
            ORDER BY node
        """,
        "q196_overlay": """
            WITH a AS (
                SELECT o_orderkey AS aid,
                       o_orderkey % 50 AS x0,
                       (o_orderkey * 3) % 50 AS y0,
                       o_orderkey % 50 + 4 + (o_orderkey * 5) % 7 AS x1,
                       (o_orderkey * 3) % 50 + 4
                           + (o_orderkey * 9) % 5 AS y1
                FROM orders WHERE o_orderkey % 29 = 0),
            b AS (
                SELECT o_orderkey AS bid,
                       (o_orderkey * 7) % 50 AS x0,
                       (o_orderkey * 11) % 50 AS y0,
                       (o_orderkey * 7) % 50 + 4
                           + (o_orderkey * 13) % 6 AS x1,
                       (o_orderkey * 11) % 50 + 4
                           + (o_orderkey * 3) % 8 AS y1
                FROM orders WHERE o_orderkey % 31 = 0)
            SELECT a.aid AS a_id, b.bid AS b_id,
                   CAST((LEAST(a.x1, b.x1) - GREATEST(a.x0, b.x0))
                        * (LEAST(a.y1, b.y1) - GREATEST(a.y0, b.y0))
                        AS BIGINT) AS area
            FROM a, b
            WHERE LEAST(a.x1, b.x1) > GREATEST(a.x0, b.x0)
              AND LEAST(a.y1, b.y1) > GREATEST(a.y0, b.y0)
            ORDER BY a_id, b_id
        """,
        "q192_staypoints": """
            WITH pts AS (
                SELECT o.o_orderkey AS k, t.t AS t,
                       (t.t // 8) * 40 + (o.o_orderkey + t.t) % 5 AS x,
                       (t.t // 8) * 30
                           + (o.o_orderkey * 2 + t.t * 3) % 5 AS y
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 37 = 0) o
                CROSS JOIN (SELECT generate_series AS t
                            FROM generate_series(0, 63)) t),
            w AS (
                SELECT k, t,
                       MAX(x) OVER win - x AS dxp,
                       x - MIN(x) OVER win AS dxn,
                       MAX(y) OVER win - y AS dyp,
                       y - MIN(y) OVER win AS dyn
                FROM pts
                WINDOW win AS (PARTITION BY k ORDER BY t
                               ROWS BETWEEN CURRENT ROW
                               AND 5 FOLLOWING)),
            a AS (SELECT k, t FROM w
                  WHERE t <= 58 AND dxp <= 4 AND dxn <= 4
                    AND dyp <= 4 AND dyn <= 4)
            SELECT k, CAST(COUNT(*) AS BIGINT) AS n_stay,
                   CAST(SUM(t) AS BIGINT) AS idx_sum,
                   CAST(MIN(t) AS BIGINT) AS first_stay
            FROM a GROUP BY k ORDER BY k
        """,
        # q193: closest-pixel DDA row per column (exact half-up
        # rational round); coverage per 32px tile with distinct-pixel
        # dedup
        "q193_rasterize": """
            WITH lines AS (
                SELECT o_orderkey AS k,
                       o_orderkey % 16 AS x0,
                       100 + (o_orderkey * 3) % 28 AS x1,
                       (o_orderkey * 5) % 60 AS y0,
                       (o_orderkey * 7) % 60 AS y1
                FROM orders WHERE o_orderkey % 23 = 0),
            px AS (
                SELECT k, g.x AS x,
                       (2 * (y0 * (x1 - g.x) + y1 * (g.x - x0))
                        + (x1 - x0)) // (2 * (x1 - x0)) AS y
                FROM lines
                JOIN (SELECT generate_series AS x
                      FROM generate_series(0, 127)) g
                  ON g.x BETWEEN x0 AND x1),
            tt AS (SELECT (y // 32) * 4 + (x // 32) AS tile, x, y
                   FROM px),
            d AS (SELECT DISTINCT tile, x, y FROM tt),
            agg1 AS (SELECT tile, CAST(COUNT(*) AS BIGINT) AS n_hits
                     FROM tt GROUP BY tile),
            agg2 AS (SELECT tile, CAST(COUNT(*) AS BIGINT) AS n_pix,
                            CAST(SUM(x + 131 * y) AS BIGINT)
                                AS checksum
                     FROM d GROUP BY tile)
            SELECT agg1.tile, agg1.n_hits, agg2.n_pix, agg2.checksum
            FROM agg1 JOIN agg2 ON agg1.tile = agg2.tile
            ORDER BY agg1.tile
        """,
        "q194_wht_bands": """
            WITH s AS (
                SELECT o.o_orderkey AS k, t.t AS t,
                       ((o.o_orderkey * 3 + t.t * 7) % 17 - 8) * 100
                           AS x
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 151 = 0) o
                CROSS JOIN (SELECT generate_series AS t
                            FROM generate_series(0, 63)) t),
            c AS (
                SELECT k, j.j AS j,
                       CAST(SUM(x * CASE WHEN
                                bit_count(CAST(t AS BIGINT) & j.j)
                                % 2 = 0 THEN 1 ELSE -1 END)
                            AS BIGINT) AS c
                FROM s CROSS JOIN (SELECT generate_series AS j
                                   FROM generate_series(0, 63)) j
                GROUP BY k, j.j)
            SELECT k AS o_orderkey,
                   CAST(MAX(CASE WHEN j = 1 THEN c END) AS BIGINT)
                       AS c1,
                   CAST(MAX(CASE WHEN j = 8 THEN c END) AS BIGINT)
                       AS c8,
                   CAST(MAX(CASE WHEN j = 21 THEN c END) AS BIGINT)
                       AS c21,
                   CAST(MAX(CASE WHEN j = 63 THEN c END) AS BIGINT)
                       AS c63,
                   CAST(SUM(c * c) AS BIGINT) AS energy
            FROM c GROUP BY k ORDER BY k
        """,
        "q195_hausdorff": """
            WITH cells AS (
                SELECT o.o_orderkey AS k, x.x AS x, y.y AS y
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 43 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 15)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 11)) y
                WHERE (o.o_orderkey + 3 * x.x + 7 * y.y) % 11 = 0),
            b(bx, by) AS (VALUES (2, 3), (14, 1), (7, 10), (0, 8),
                                 (13, 9)),
            dab AS (SELECT k, x, y,
                           MIN((x - bx) * (x - bx)
                               + (y - by) * (y - by)) AS dmin
                    FROM cells, b GROUP BY k, x, y),
            dba AS (SELECT k, bx, by,
                           MIN((x - bx) * (x - bx)
                               + (y - by) * (y - by)) AS dmin
                    FROM cells, b GROUP BY k, bx, by),
            h1 AS (SELECT k, MAX(dmin) AS h_ab FROM dab GROUP BY k),
            h2 AS (SELECT k, MAX(dmin) AS h_ba FROM dba GROUP BY k)
            SELECT h1.k AS o_orderkey,
                   CAST(h1.h_ab AS BIGINT) AS h_ab,
                   CAST(h2.h_ba AS BIGINT) AS h_ba
            FROM h1 JOIN h2 ON h1.k = h2.k ORDER BY h1.k
        """,
        "q189_moments": """
            SELECT k AS o_orderkey,
                   CAST(SUM(v) AS BIGINT) AS m00,
                   CAST(SUM(v * x) AS BIGINT) AS m10,
                   CAST(SUM(v * y) AS BIGINT) AS m01,
                   CAST(SUM(v * x * y) AS BIGINT) AS m11,
                   CAST(SUM(v * x * x) AS BIGINT) AS m20,
                   CAST(SUM(v * y * y) AS BIGINT) AS m02
            FROM (
                SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                       (o.o_orderkey * 7 + x.x * 5 + y.y * 11
                        + x.x * y.y) % 256 AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 59 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 23)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 17)) y)
            GROUP BY k ORDER BY k
        """,
        # q190: Bayer index via the closed bit form (one base-4 digit
        # per coordinate-bit pair, LSBs most significant); pixel on
        # iff 128*v > (2*M+1)*256
        "q190_dither": """
            SELECT k AS o_orderkey,
                   CAST(SUM(CASE WHEN 128 * v > (2 * m + 1) * 256
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_on,
                   CAST(SUM(CASE WHEN 128 * v > (2 * m + 1) * 256
                            THEN x + 100 * y ELSE 0 END) AS BIGINT)
                       AS pos_sum
            FROM (
                SELECT k, x, y, v,
                       16 * ((2 * (x % 2) + 3 * (y % 2)) % 4)
                       + 4 * ((2 * ((x // 2) % 2)
                               + 3 * ((y // 2) % 2)) % 4)
                       + ((2 * ((x // 4) % 2)
                           + 3 * ((y // 4) % 2)) % 4) AS m
                FROM (
                    SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                           (o.o_orderkey * 5 + x.x * 11 + y.y * 17)
                               % 256 AS v
                    FROM (SELECT o_orderkey FROM orders
                          WHERE o_orderkey % 61 = 0) o
                    CROSS JOIN (SELECT generate_series AS x
                                FROM generate_series(0, 23)) x
                    CROSS JOIN (SELECT generate_series AS y
                                FROM generate_series(0, 15)) y))
            GROUP BY k ORDER BY k
        """,
        "q191_laplacian": """
            SELECT k AS o_orderkey,
                   CAST(SUM(ABS(lap)) AS BIGINT) AS abs_sum,
                   CAST(SUM(CASE WHEN lap > 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_concave,
                   CAST(SUM(CASE WHEN lap < 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_convex
            FROM (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey*13 + x.x*7 + (y.y-1)*3) % 256
                     + (o.o_orderkey*13 + x.x*7 + (y.y+1)*3) % 256
                     + (o.o_orderkey*13 + (x.x-1)*7 + y.y*3) % 256
                     + (o.o_orderkey*13 + (x.x+1)*7 + y.y*3) % 256
                     - 4 * ((o.o_orderkey*13 + x.x*7 + y.y*3) % 256)
                         AS lap
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 227 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(1, 46)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(1, 35)) y)
            GROUP BY k ORDER BY k
        """,
        # q141: a run starts at x=0 or on a value change; run lengths
        # from the islands trick (run id = running count of starts)
        "q141_rle": """
            WITH px AS (
                SELECT o.o_orderkey AS k, x.x AS x, y.y AS y,
                       ((o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256) // 32
                           AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 223 = 0) o
                CROSS JOIN (SELECT generate_series AS x
                            FROM generate_series(0, 47)) x
                CROSS JOIN (SELECT generate_series AS y
                            FROM generate_series(0, 36)) y),
            st AS (
                SELECT k, x, y, v,
                       CASE WHEN x = 0 OR v <> LAG(v) OVER
                            (PARTITION BY k, y ORDER BY x)
                            THEN 1 ELSE 0 END AS s
                FROM px),
            runs AS (
                SELECT k, y,
                       SUM(s) OVER (PARTITION BY k, y ORDER BY x) AS rid
                FROM st),
            a1 AS (SELECT k, CAST(SUM(s) AS BIGINT) AS n_runs
                   FROM st GROUP BY k),
            a2 AS (SELECT k, CAST(MAX(rl) AS BIGINT) AS max_run
                   FROM (SELECT k, y, rid, COUNT(*) AS rl
                         FROM runs GROUP BY k, y, rid) GROUP BY k)
            SELECT a1.k AS o_orderkey, a1.n_runs, a2.max_run
            FROM a1 JOIN a2 ON a1.k = a2.k ORDER BY 1
        """,
        # q142: exact histogram of the 8-level quantized rasters
        "q142_value_histogram": """
            SELECT o.o_orderkey,
                   ((o.o_orderkey * 13 + x.x * 7 + y.y * 3) % 256) // 32
                       AS value,
                   CAST(COUNT(*) AS BIGINT) AS n_px
            FROM (SELECT o_orderkey FROM orders
                  WHERE o_orderkey % 227 = 0) o
            CROSS JOIN (SELECT generate_series AS x
                        FROM generate_series(0, 47)) x
            CROSS JOIN (SELECT generate_series AS y
                        FROM generate_series(0, 36)) y
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # q131: GDAL nearest-neighbor grid: src = out_idx*src_dim //
        # out_dim; the sampled values re-derive from the pixel formula
        "q131_resample": """
            WITH s AS (
                SELECT o.o_orderkey AS k,
                       (o.o_orderkey * 17 + ((ox.i * 48) // 17) * 11
                        + ((oy.i * 37) // 13) * 29) % 251 AS v
                FROM (SELECT o_orderkey FROM orders
                      WHERE o_orderkey % 163 = 0) o
                CROSS JOIN (SELECT generate_series AS i
                            FROM generate_series(0, 16)) ox
                CROSS JOIN (SELECT generate_series AS i
                            FROM generate_series(0, 12)) oy)
            SELECT k AS o_orderkey, CAST(SUM(v) AS BIGINT) AS rs_sum,
                   CAST(MIN(v) AS BIGINT) AS rs_min,
                   CAST(MAX(v) AS BIGINT) AS rs_max
            FROM s GROUP BY k ORDER BY k
        """,
        "q36_y4m_decode": """
            SELECT o.o_orderkey, f.f AS frame_idx,
                   CAST(SUM((o.o_orderkey * 31 + f.f * 977 + g.i * 13) % 256)
                        AS BIGINT) AS pixel_sum
            FROM (SELECT o_orderkey FROM orders WHERE o_orderkey % 101 = 0) o
            CROSS JOIN (SELECT generate_series AS f FROM generate_series(0, 2)) f
            CROSS JOIN (SELECT generate_series AS i FROM generate_series(0, 255)) g
            GROUP BY 1, 2
            ORDER BY 1, 2
        """,
        # q37: with nprobe = nlist the IVF query reads every partition,
        # so its result is exactly the brute-force cosine top-k
        "q37_ivf_topk": """
            SELECT e.vec_id,
                   CAST(ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                         (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 1)) * 1000000.0)
                        AS BIGINT) AS sim_micro
            FROM embeddings e ORDER BY sim_micro DESC, e.vec_id LIMIT 10
        """,
        # q38: sketch quantile = value at 1-based rank ceil(q*n) — the
        # searchsorted-on-cumulative-weights semantics, in integer
        # arithmetic so there is no float-rank fuzz
        "q38_quantile_sketch": """
            WITH v AS (SELECT CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS c
                       FROM orders WHERE o_orderkey % 977 = 0),
                 nrow AS (SELECT COUNT(*) AS n FROM v),
                 ranked AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS r FROM v)
            SELECT CAST(t.q_micro AS BIGINT) AS q_micro, ranked.c AS value_cents
            FROM (SELECT UNNEST([250000, 500000, 900000]) AS q_micro) t,
                 nrow, ranked
            WHERE ranked.r = (t.q_micro * nrow.n + 999999) // 1000000
            ORDER BY t.q_micro
        """,
        "q39_multi_roi": _Q39_SQL,
        "q40_sample_per_group": """
            SELECT l_orderkey, l_linenumber FROM (
              SELECT l_orderkey, l_linenumber,
                     ROW_NUMBER() OVER (PARTITION BY l_orderkey
                                        ORDER BY l_linenumber) AS rn
              FROM lineitem WHERE l_orderkey % 64 = 0)
            WHERE rn <= 2 ORDER BY l_orderkey, l_linenumber
        """,
        "q41_hll_distinct": """
            SELECT 'c_mktsegment' AS col_name,
                   CAST(COUNT(DISTINCT c_mktsegment) AS BIGINT) AS n_distinct
            FROM customer
            UNION ALL
            SELECT 'l_suppkey', CAST(COUNT(DISTINCT l_suppkey) AS BIGINT)
            FROM lineitem
            UNION ALL
            SELECT 'o_custkey', CAST(COUNT(DISTINCT o_custkey) AS BIGINT)
            FROM orders
            ORDER BY col_name
        """,
        "q42_winnow_fp": _winnow_sql(),
        "q43_asof_join": """
            WITH v AS (SELECT user_id, ts, MAX(value) AS v_value FROM events
                       WHERE event_type = 'view' GROUP BY user_id, ts),
            c AS (SELECT event_id, user_id, ts FROM events
                  WHERE event_type = 'click')
            SELECT c.event_id, c.user_id, epoch_us(c.ts) AS ts_us,
                   epoch_us(v.ts) AS asof_ts_us, v.v_value AS v_value
            FROM c ASOF JOIN v
              ON c.user_id = v.user_id AND v.ts <= c.ts
        """,
        "q44_range_join": """
            WITH w AS (SELECT event_id AS err_id, user_id,
                              epoch_us(ts) AS t0, epoch_us(ts) + 300000000 AS t1
                       FROM events WHERE event_type = 'error')
            SELECT w.err_id, e.event_id
            FROM w JOIN events e
              ON e.user_id = w.user_id
             AND epoch_us(e.ts) >= w.t0 AND epoch_us(e.ts) <= w.t1
        """,
        "q45_hash_split": """
            WITH s AS (
              SELECT lang,
                     CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR))
                               % 10000 < 8000 THEN 'train'
                          WHEN md5_number_lower(CAST(doc_id AS VARCHAR))
                               % 10000 < 9000 THEN 'val'
                          ELSE 'test' END AS split
              FROM documents)
            SELECT split, lang, COUNT(*) AS n FROM s GROUP BY split, lang
        """,
        "q46_grouped_topk": """
            SELECT event_id, user_id, value FROM (
              SELECT event_id, user_id, value,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY value DESC, event_id) AS rn
              FROM events) WHERE rn <= 2
        """,
        "q47_anti_join": """
            SELECT c_custkey, c_nationkey FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                                    WHERE o_orderpriority = '1-URGENT')
        """,
        "q48_bloom_join": """
            SELECT l_returnflag,
                   CAST(SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
                     AS qty_cents,
                   COUNT(*) AS n
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE o_orderpriority = '1-URGENT'
            GROUP BY l_returnflag
        """,
        "q49_pivot": """
            SELECT l_returnflag,
                   CAST(SUM(CASE WHEN l_linestatus = 'O'
                        THEN CAST(round(l_quantity * 100) AS BIGINT)
                        ELSE 0 END) AS BIGINT) AS qty_o,
                   CAST(SUM(CASE WHEN l_linestatus = 'F'
                        THEN CAST(round(l_quantity * 100) AS BIGINT)
                        ELSE 0 END) AS BIGINT) AS qty_f
            FROM lineitem GROUP BY l_returnflag
        """,
        "q50_rollup": """
            SELECT COALESCE(l_returnflag, '*') AS l_returnflag,
                   COALESCE(l_linestatus, '*') AS l_linestatus,
                   CAST(SUM(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
                     AS qty_cents,
                   COUNT(*) AS n
            FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
        """,
        "q51_lag_delta": """
            SELECT event_id, user_id, delta_us FROM (
              SELECT event_id, user_id,
                     epoch_us(ts) - LAG(epoch_us(ts)) OVER (
                       PARTITION BY user_id
                       ORDER BY epoch_us(ts), event_id) AS delta_us
              FROM events) WHERE delta_us IS NOT NULL
        """,
        "q52_string_agg": """
            SELECT lang, string_agg(DISTINCT source, ',' ORDER BY source)
                     AS sources
            FROM documents GROUP BY lang
        """,
        "q53_mode": """
            SELECT user_id, event_type, n FROM (
              SELECT user_id, event_type, COUNT(*) AS n,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY COUNT(*) DESC, event_type) AS rk
              FROM events GROUP BY user_id, event_type) WHERE rk = 1
        """,
        "q54_normalize": """
            SELECT doc_id,
                   md5(trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')))
                     AS fp
            FROM documents
        """,
        "q55_augment": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            px AS (
              SELECT k, x.x AS x,
                     CASE WHEN k % 32 = 0 THEN 8 + (15 - x.x)
                          ELSE 8 + x.x END AS xg,
                     6 + y.y AS yg, c.c AS c
              FROM ks, generate_series(0, 11) y(y),
                   generate_series(0, 15) x(x), generate_series(0, 2) c(c)),
            v AS (SELECT k, x, ((k + 7 * yg + 3 * xg + 11 * c) % 256) AS p
                  FROM px)
            SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
                   CAST(SUM(p) AS BIGINT) AS aug_sum,
                   CAST(SUM(p * (x + 1)) AS BIGINT) AS aug_xw
            FROM v GROUP BY k
        """,
        "q56_channel_stats": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            v AS (SELECT c.c AS c,
                         ((k + 7 * y.y + 3 * x.x + 11 * c.c) % 256) AS p
                  FROM ks, generate_series(0, 23) y(y),
                       generate_series(0, 31) x(x), generate_series(0, 2) c(c))
            SELECT c, CAST(SUM(p) AS BIGINT) AS s,
                   CAST(SUM(CAST(p AS BIGINT) * p) AS BIGINT) AS ss,
                   COUNT(*) AS n
            FROM v GROUP BY c
        """,
        "q57_curate": """
            WITH q AS (
              SELECT doc_id, lang,
                     CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
                     md5(array_to_string(list_slice(string_split(
                       trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')),
                       ' '), 1, 8), ' ')) AS pfp
              FROM documents),
            f AS (SELECT * FROM q WHERE n_tokens >= 30),
            d AS (SELECT * FROM f
                  QUALIFY ROW_NUMBER() OVER (PARTITION BY pfp
                                             ORDER BY doc_id) = 1),
            s AS (SELECT lang, n_tokens,
                         CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR))
                                   % 10000 < 8000 THEN 'train'
                              WHEN md5_number_lower(CAST(doc_id AS VARCHAR))
                                   % 10000 < 9000 THEN 'val'
                              ELSE 'test' END AS split
                  FROM d)
            SELECT split, lang, COUNT(*) AS n,
                   CAST(SUM(n_tokens) AS BIGINT) AS tok
            FROM s GROUP BY split, lang
        """,
        "q58_grouped_nunique": """
            SELECT user_id, CAST(COUNT(DISTINCT event_type) AS BIGINT) AS n
            FROM events GROUP BY user_id
        """,
        "q59_grouped_hll": """
            SELECT event_type,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type
        """,
        "q60_jsonl_source": """
            SELECT lang,
                   CAST(SUM(CAST(len(string_split(text, ' ')) AS BIGINT))
                        AS BIGINT) AS tok,
                   COUNT(*) AS n
            FROM documents GROUP BY lang
        """,
        "q61_unnest": """
            SELECT token, COUNT(*) AS n
            FROM (SELECT UNNEST(string_split(text, ' ')) AS token
                  FROM documents)
            GROUP BY token HAVING COUNT(*) >= 5
        """,
        "q62_histogram": """
            SELECT CAST(round(o_totalprice * 100) AS BIGINT) // 1000000 AS bin,
                   COUNT(*) AS n
            FROM orders GROUP BY bin
        """,
        "q63_moments": """
            WITH b AS (SELECT l_returnflag, l_linestatus,
                CAST(ROUND(l_quantity) AS BIGINT) AS x,
                CAST(ROUND(l_discount*10000.0) AS BIGINT) AS y FROM lineitem),
            m AS (SELECT l_returnflag, l_linestatus, COUNT(*)::BIGINT AS n,
                CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(x*x) AS BIGINT) AS sxx,
                CAST(SUM(y) AS BIGINT) AS sy, CAST(SUM(y*y) AS BIGINT) AS syy,
                CAST(SUM(x*y) AS BIGINT) AS sxy
              FROM b GROUP BY 1, 2)
            SELECT l_returnflag, l_linestatus, n, sx AS sum_x, sy AS sum_y,
              CAST(ROUND(1000000.0*(CAST(n AS DOUBLE)*sxx - CAST(sx AS DOUBLE)*sx)
                   / (CAST(n AS DOUBLE)*n)) AS BIGINT) AS var_micro,
              CAST(ROUND(1000000.0*(CAST(n AS DOUBLE)*sxy - CAST(sx AS DOUBLE)*sy)
                   / (CAST(n AS DOUBLE)*n)) AS BIGINT) AS cov_micro,
              CAST(ROUND(CASE WHEN (CAST(n AS DOUBLE)*sxx - CAST(sx AS DOUBLE)*sx)
                             * (CAST(n AS DOUBLE)*syy - CAST(sy AS DOUBLE)*sy) > 0.0
                THEN 1000000.0*(CAST(n AS DOUBLE)*sxy - CAST(sx AS DOUBLE)*sy)
                     / SQRT((CAST(n AS DOUBLE)*sxx - CAST(sx AS DOUBLE)*sx)
                            * (CAST(n AS DOUBLE)*syy - CAST(sy AS DOUBLE)*sy))
                ELSE 0.0 END) AS BIGINT) AS corr_micro
            FROM m
        """,
        "q64_percentiles": """
            WITH b AS (SELECT l_returnflag,
                CAST(ROUND(l_quantity) AS BIGINT) AS qty FROM lineitem)
            SELECT l_returnflag, COUNT(*)::BIGINT AS n,
              percentile_disc(0.25) WITHIN GROUP (ORDER BY qty) AS p25,
              percentile_disc(0.5)  WITHIN GROUP (ORDER BY qty) AS p50,
              percentile_disc(0.75) WITHIN GROUP (ORDER BY qty) AS p75
            FROM b GROUP BY 1
        """,
        "q65_window_rank": """
            WITH b AS (SELECT o_orderpriority, o_orderkey,
              CAST(ROUND(o_totalprice*100.0) AS BIGINT) AS total_cents FROM orders),
            r AS (SELECT *,
              ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                                 ORDER BY total_cents DESC, o_orderkey) AS row_number,
              RANK() OVER (PARTITION BY o_orderpriority
                           ORDER BY total_cents DESC) AS rank,
              DENSE_RANK() OVER (PARTITION BY o_orderpriority
                                 ORDER BY total_cents DESC) AS dense_rank FROM b)
            SELECT o_orderpriority, o_orderkey, total_cents,
                   row_number, rank, dense_rank
            FROM r WHERE row_number <= 3
        """,
        "q66_running_sum": """
            WITH b AS (SELECT user_id, event_id, ts,
              CAST(ROUND(value*100.0) AS BIGINT) AS value_cents FROM events)
            SELECT user_id, event_id, ts, value_cents,
              CAST(SUM(value_cents) OVER (PARTITION BY user_id
                ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running
            FROM b
        """,
        "q67_set_ops": """
            SELECT o_custkey FROM orders WHERE o_totalprice > 100000.0
            INTERSECT
            SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
        """,
        "q68_resize": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            v AS (SELECT k, x.x AS x,
                         ((k + 7 * ((y.y * 24) // 10)
                             + 3 * ((x.x * 32) // 14) + 11 * c.c) % 256) AS p
                  FROM ks, generate_series(0, 9) y(y),
                       generate_series(0, 13) x(x), generate_series(0, 2) c(c))
            SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
                   CAST(SUM(p) AS BIGINT) AS rs_sum,
                   CAST(SUM(p * (x + 1)) AS BIGINT) AS rs_xw
            FROM v GROUP BY k
        """,
        "q69_patch_grid": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            v AS (SELECT k, y.y // 8 AS py, x.x // 8 AS px,
                         ((k + 7 * y.y + 3 * x.x + 11 * c.c) % 256) AS p
                  FROM ks, generate_series(0, 23) y(y),
                       generate_series(0, 31) x(x), generate_series(0, 2) c(c))
            SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
                   py, px, CAST(SUM(p) AS BIGINT) AS p_sum
            FROM v GROUP BY k, py, px
        """,
        "q70_edit1_pairs": """
            WITH d AS (
              SELECT DISTINCT 'itm' || CAST((o_orderkey * 2654435761) % 1000
                                            AS VARCHAR)
                     || CASE WHEN ((o_orderkey * 2654435761) % 1000) % 3 = 0
                             THEN 'x' ELSE '' END AS s
              FROM orders)
            SELECT a.s AS s_a, b.s AS s_b,
                   CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
            FROM d a JOIN d b
              ON a.s < b.s AND abs(len(a.s) - len(b.s)) <= 1
            WHERE levenshtein(a.s, b.s) <= 1
        """,
        "q71_tpch_q3": """
            SELECT l_orderkey, o_orderdate,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100.0) AS BIGINT)
                        * (10000 - CAST(ROUND(l_discount * 10000.0) AS BIGINT)))
                        AS BIGINT) AS rev_micros
            FROM customer, orders, lineitem
            WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
              AND l_orderkey = o_orderkey
              AND o_orderdate < TIMESTAMP '1995-03-15'
              AND l_shipdate > TIMESTAMP '1995-03-15'
            GROUP BY l_orderkey, o_orderdate
            ORDER BY rev_micros DESC, l_orderkey
            LIMIT 10
        """,
        "q72_band_join": """
            WITH bins(lo, hi, tier) AS (VALUES
              (0::BIGINT, 5000000::BIGINT, 'low'),
              (5000000::BIGINT, 15000000::BIGINT, 'mid'),
              (15000000::BIGINT, 30000000::BIGINT, 'high'),
              (30000000::BIGINT, 60000000::BIGINT, 'lux')),
            o AS (SELECT CAST(ROUND(o_totalprice * 100.0) AS BIGINT)
                         AS total_cents FROM orders)
            SELECT tier, CAST(SUM(total_cents) AS BIGINT) AS total_cents,
                   COUNT(*) AS n
            FROM o JOIN bins ON o.total_cents >= lo AND o.total_cents < hi
            GROUP BY tier
        """,
        "q73_arg_max": """
            WITH b AS (SELECT o_orderpriority,
              CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS total_cents,
              o_orderkey FROM orders)
            SELECT o_orderpriority, total_cents, o_orderkey
            FROM b QUALIFY ROW_NUMBER() OVER (PARTITION BY o_orderpriority
              ORDER BY total_cents DESC, o_orderkey DESC) = 1
        """,
        "q74_heavy_hitters": """
            SELECT l_partkey, COUNT(*) AS n FROM lineitem
            GROUP BY l_partkey
            ORDER BY n DESC, l_partkey LIMIT 20
        """,
        "q75_zscore": """
            WITH b AS (SELECT l_returnflag, l_linestatus,
                CAST(ROUND(l_quantity) AS BIGINT) AS qty FROM lineitem),
            m AS (SELECT l_returnflag, l_linestatus, COUNT(*)::BIGINT AS n,
                CAST(SUM(qty) AS BIGINT) AS sx,
                CAST(SUM(qty*qty) AS BIGINT) AS sxx
              FROM b GROUP BY 1, 2)
            SELECT b.l_returnflag, b.l_linestatus, b.qty,
              CAST(ROUND(CASE WHEN CAST(n AS DOUBLE)*sxx
                                   - CAST(sx AS DOUBLE)*sx > 0.0
                THEN 1000000.0*(CAST(n AS DOUBLE)*qty - CAST(sx AS DOUBLE))
                     / SQRT(CAST(n AS DOUBLE)*sxx - CAST(sx AS DOUBLE)*sx)
                ELSE 0.0 END) AS BIGINT) AS z_micro
            FROM b JOIN m USING (l_returnflag, l_linestatus)
        """,
        "q76_month_rollup": """
            SELECT CAST(EXTRACT(year FROM o_orderdate) * 100
                        + EXTRACT(month FROM o_orderdate) AS BIGINT) AS ym,
                   CAST(SUM(CAST(ROUND(o_totalprice * 100.0) AS BIGINT))
                        AS BIGINT) AS total_cents,
                   COUNT(*) AS n
            FROM orders GROUP BY ym
        """,
        "q77_sobel": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            g AS (SELECT k,
                    abs( ((k + 7*(y.y-1) + 3*(x.x+1)) % 256)
                       + 2*((k + 7*y.y     + 3*(x.x+1)) % 256)
                       + ((k + 7*(y.y+1) + 3*(x.x+1)) % 256)
                       - ((k + 7*(y.y-1) + 3*(x.x-1)) % 256)
                       - 2*((k + 7*y.y     + 3*(x.x-1)) % 256)
                       - ((k + 7*(y.y+1) + 3*(x.x-1)) % 256) )
                  + abs( ((k + 7*(y.y+1) + 3*(x.x-1)) % 256)
                       + 2*((k + 7*(y.y+1) + 3*x.x    ) % 256)
                       + ((k + 7*(y.y+1) + 3*(x.x+1)) % 256)
                       - ((k + 7*(y.y-1) + 3*(x.x-1)) % 256)
                       - 2*((k + 7*(y.y-1) + 3*x.x    ) % 256)
                       - ((k + 7*(y.y-1) + 3*(x.x+1)) % 256) ) AS g
                  FROM ks, generate_series(1, 22) y(y),
                       generate_series(1, 30) x(x))
            SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
                   CAST(SUM(g) AS BIGINT) AS g_sum,
                   CAST(MAX(g) AS BIGINT) AS g_max
            FROM g GROUP BY k
        """,
        "q78_box_blur": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            b AS (SELECT k, x.x AS x,
                    ( ((k + 7*(y.y-1) + 3*(x.x-1)) % 256)
                    + ((k + 7*(y.y-1) + 3*x.x    ) % 256)
                    + ((k + 7*(y.y-1) + 3*(x.x+1)) % 256)
                    + ((k + 7*y.y     + 3*(x.x-1)) % 256)
                    + ((k + 7*y.y     + 3*x.x    ) % 256)
                    + ((k + 7*y.y     + 3*(x.x+1)) % 256)
                    + ((k + 7*(y.y+1) + 3*(x.x-1)) % 256)
                    + ((k + 7*(y.y+1) + 3*x.x    ) % 256)
                    + ((k + 7*(y.y+1) + 3*(x.x+1)) % 256) ) // 9 AS b
                  FROM ks, generate_series(1, 22) y(y),
                       generate_series(1, 30) x(x))
            SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
                   CAST(SUM(b) AS BIGINT) AS bb_sum,
                   CAST(SUM(b * x) AS BIGINT) AS bb_xw
            FROM b GROUP BY k
        """,
        "q79_luma_hist": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            v AS (SELECT (  77 * ((k + 7*y.y + 3*x.x     ) % 256)
                         + 150 * ((k + 7*y.y + 3*x.x + 11) % 256)
                         +  29 * ((k + 7*y.y + 3*x.x + 22) % 256)) // 256 AS lum
                  FROM ks, generate_series(0, 23) y(y),
                       generate_series(0, 31) x(x))
            SELECT lum, COUNT(*) AS n_px FROM v GROUP BY lum
        """,
        "q80_components": """
            WITH RECURSIVE d AS (
              SELECT DISTINCT 'itm' || CAST((o_orderkey * 2654435761) % 1000
                                            AS VARCHAR)
                     || CASE WHEN ((o_orderkey * 2654435761) % 1000) % 3 = 0
                             THEN 'x' ELSE '' END AS s
              FROM orders),
            e0 AS (SELECT a.s AS sa, b.s AS sb FROM d a JOIN d b
                   ON a.s < b.s AND abs(len(a.s) - len(b.s)) <= 1
                   WHERE levenshtein(a.s, b.s) <= 1),
            e AS (SELECT sa AS u, sb AS v FROM e0
                  UNION ALL SELECT sb, sa FROM e0),
            n AS (SELECT DISTINCT u AS node FROM e),
            reach(node, r) AS (
              SELECT node, node FROM n
              UNION
              SELECT reach.node, e.v FROM reach JOIN e ON reach.r = e.u)
            SELECT node, MIN(r) AS comp FROM reach GROUP BY node
        """,
        "q81_skyline": """
            WITH p AS (SELECT DISTINCT
                         CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS x,
                         (o_orderkey * 2654435761) % 100000 AS y
                       FROM orders WHERE o_orderkey % 8 = 0)
            SELECT x, y FROM p a
            WHERE NOT EXISTS (SELECT 1 FROM p b
                              WHERE b.x >= a.x AND b.y >= a.y
                                AND (b.x > a.x OR b.y > a.y))
        """,
        "q82_funnel": """
            WITH f1 AS (SELECT user_id, MIN(ts) AS t FROM events
                        WHERE event_type = 'signup' GROUP BY user_id),
            f2 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
                   JOIN f1 ON e.user_id = f1.user_id AND e.ts > f1.t
                   WHERE e.event_type = 'click' GROUP BY e.user_id),
            f3 AS (SELECT e.user_id, MIN(e.ts) AS t FROM events e
                   JOIN f2 ON e.user_id = f2.user_id AND e.ts > f2.t
                   WHERE e.event_type = 'purchase' GROUP BY e.user_id)
            SELECT 1::BIGINT AS stage, COUNT(*)::BIGINT AS n_users FROM f1
            UNION ALL
            SELECT 2::BIGINT, COUNT(*)::BIGINT FROM f2
            UNION ALL
            SELECT 3::BIGINT, COUNT(*)::BIGINT FROM f3
        """,
        "q84_dedup_reps": f"""
            WITH RECURSIVE pairs AS ({_MINHASH_SQL}),
            e AS (SELECT id_a AS u, id_b AS v FROM pairs
                  UNION ALL SELECT id_b, id_a FROM pairs),
            nn AS (SELECT DISTINCT u AS node FROM e),
            reach(node, r) AS (
              SELECT node, node FROM nn
              UNION
              SELECT reach.node, e.v FROM reach JOIN e ON reach.r = e.u),
            comp AS (SELECT node, MIN(r) AS rep FROM reach GROUP BY node)
            SELECT d.doc_id, COALESCE(c.rep, d.doc_id) AS rep_id
            FROM documents d LEFT JOIN comp c ON d.doc_id = c.node
        """,
        "q85_cohort": """
            WITH f AS (SELECT user_id, MIN(epoch_us(ts)) AS t0
                       FROM events GROUP BY user_id),
            a AS (SELECT DISTINCT e.user_id,
                         f.t0 // 604800000000 AS cohort,
                         epoch_us(e.ts) // 604800000000
                           - f.t0 // 604800000000 AS offs
                  FROM events e JOIN f USING (user_id))
            SELECT cohort, offs, CAST(COUNT(*) AS BIGINT) AS n_users
            FROM a GROUP BY cohort, offs
        """,
        "q86_cube": """
            WITH o AS (SELECT o_orderstatus AS st, o_orderpriority AS pri,
                              CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS c
                       FROM orders)
            SELECT COALESCE(st, '*') AS o_orderstatus,
                   COALESCE(pri, '*') AS o_orderpriority,
                   CAST(SUM(c) AS BIGINT) AS total_cents,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM o GROUP BY CUBE(st, pri)
        """,
        "q87_extent": f"""
            WITH f AS ({_TK_FOOT}),
            m AS (SELECT k % 16 AS zone,
                         lon - half AS minx, lat - half AS miny,
                         lon + half AS maxx, lat + half AS maxy FROM f)
            SELECT zone, CAST(COUNT(*) AS BIGINT) AS n_images,
                   MIN(minx) AS ext_minx, MIN(miny) AS ext_miny,
                   MAX(maxx) AS ext_maxx, MAX(maxy) AS ext_maxy
            FROM m GROUP BY zone
        """,
        "q88_morphology": _morph_sql(),
        "q90_scene_cuts": """
            WITH o AS (SELECT o_orderkey AS k FROM orders
                       WHERE o_orderkey % 101 = 0),
            d AS (SELECT k, f.f AS f,
                     CAST(SUM(ABS( ((k*31 + f.f*977 + g.i*13) % 256)
                                 - ((k*31 + (f.f-1)*977 + g.i*13) % 256) ))
                          AS BIGINT) AS dsum
                  FROM o, generate_series(1, 2) f(f),
                       generate_series(0, 255) g(i)
                  GROUP BY k, f.f)
            SELECT k AS o_orderkey,
                   CAST(SUM(CASE WHEN dsum > 20000 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_cuts,
                   CAST(SUM(dsum) AS BIGINT) AS total_diff
            FROM d GROUP BY k
        """,
        "q91_bigrams": """
            WITH tok AS (SELECT string_split(text, ' ') AS t FROM documents),
            b AS (SELECT t[g.i] || ' ' || t[g.i + 1] AS bg
                  FROM tok CROSS JOIN (SELECT generate_series AS i
                                       FROM generate_series(1, 511)) g
                  WHERE g.i < len(t))
            SELECT bg, CAST(COUNT(*) AS BIGINT) AS n
            FROM b GROUP BY bg ORDER BY n DESC, bg LIMIT 20
        """,
        "q92_percentile_cont": """
            WITH o AS (SELECT o_orderpriority,
                              CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS c
                       FROM orders)
            SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n,
                   quantile_cont(c, 0.25) AS p25,
                   quantile_cont(c, 0.50) AS p50,
                   quantile_cont(c, 0.75) AS p75
            FROM o GROUP BY o_orderpriority
        """,
        "q93_full_outer": """
            WITH c AS (SELECT c_custkey, c_name FROM customer
                       WHERE c_custkey % 3 != 0),
            oc AS (SELECT o_custkey AS k, CAST(COUNT(*) AS BIGINT) AS n_orders
                   FROM orders GROUP BY o_custkey)
            SELECT COALESCE(c.c_custkey, oc.k) AS c_custkey,
                   COALESCE(c.c_name, '-') AS c_name,
                   COALESCE(oc.n_orders, 0) AS n_orders
            FROM c FULL OUTER JOIN oc ON c.c_custkey = oc.k
        """,
        "q95_nn_join": f"""
            WITH f AS ({_TK_FOOT}),
            pts AS (SELECT k,
                       'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
                       ((lon - half) + (lon + half)) / 2.0 AS cx,
                       ((lat - half) + (lat + half)) / 2.0 AS cy
                    FROM f),
            t AS (SELECT * FROM pts WHERE k % 8 = 0),
            s AS (SELECT * FROM pts WHERE k % 8 != 0),
            d AS (SELECT s.image_id, t.image_id AS nn_id,
                     (s.cx - t.cx)*(s.cx - t.cx)
                       + (s.cy - t.cy)*(s.cy - t.cy) AS d2,
                     ROW_NUMBER() OVER (PARTITION BY s.image_id
                       ORDER BY (s.cx - t.cx)*(s.cx - t.cx)
                              + (s.cy - t.cy)*(s.cy - t.cy),
                                t.image_id) AS rn
                  FROM s, t)
            SELECT image_id, nn_id, d2 FROM d WHERE rn = 1
        """,
        "q98_grid_heatmap": f"""
            WITH f AS ({_TK_FOOT}),
            c AS (SELECT CAST(FLOOR(((lon - half) + (lon + half)) / 2.0
                                    / 1.0) AS BIGINT) AS gx,
                         CAST(FLOOR(((lat - half) + (lat + half)) / 2.0
                                    / 1.0) AS BIGINT) AS gy
                  FROM f)
            SELECT gx, gy, CAST(COUNT(*) AS BIGINT) AS n
            FROM c GROUP BY gx, gy
        """,
        "q99_peak_concurrency": """
            WITH iv AS (SELECT epoch_us(ts) AS s,
                               epoch_us(ts) // 86400000000 AS d,
                               LEAST(epoch_us(ts)
                                       + CAST(ROUND(value * 1000000) AS BIGINT),
                                     (epoch_us(ts) // 86400000000 + 1)
                                       * 86400000000) AS e
                        FROM events),
            c AS (SELECT a.d AS day, a.s AS t,
                    CAST(SUM(CASE WHEN b.s <= a.s AND a.s < b.e
                                  THEN 1 ELSE 0 END) AS BIGINT) AS conc
                  FROM iv a JOIN iv b ON a.d = b.d GROUP BY a.d, a.s)
            SELECT day, CAST(MAX(conc) AS BIGINT) AS peak
            FROM c GROUP BY day
        """,
        "q101_uncovered": f"""
            WITH f AS ({_TK_FOOT}),
            m AS (SELECT k, lon - half AS minx, lat - half AS miny,
                         lon + half AS maxx, lat + half AS maxy FROM f),
            c AS ({_CAT_RECTS}),
            u AS (SELECT m.k FROM m WHERE NOT EXISTS (
                    SELECT 1 FROM c
                    WHERE m.minx <= c.lonc + c.halfw
                      AND c.lonc - c.halfw <= m.maxx
                      AND m.miny <= c.latc + c.halfh
                      AND c.latc - c.halfh <= m.maxy))
            SELECT k % 16 AS zone, CAST(COUNT(*) AS BIGINT) AS n_uncovered
            FROM u GROUP BY zone
        """,
        "q102_moving_sum": """
            SELECT o_custkey, o_orderkey,
                   CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS total_cents,
                   CAST(SUM(CAST(ROUND(o_totalprice * 100.0) AS BIGINT))
                        OVER (PARTITION BY o_custkey ORDER BY o_orderkey
                              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                        AS BIGINT) AS mv_sum
            FROM orders
        """,
        "q103_ntile": """
            SELECT o_custkey, o_orderkey,
                   CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS total_cents,
                   CAST(NTILE(4) OVER (PARTITION BY o_custkey
                        ORDER BY CAST(ROUND(o_totalprice * 100.0) AS BIGINT),
                                 o_orderkey) AS BIGINT) AS tile
            FROM orders
        """,
        "q117_time_to_convert": """
            WITH f AS (SELECT user_id, MIN(epoch_us(ts)) AS t FROM events
                       WHERE event_type = 'signup' GROUP BY user_id),
            p AS (SELECT user_id, MIN(epoch_us(ts)) AS t FROM events
                  WHERE event_type = 'purchase' GROUP BY user_id),
            d AS (SELECT p.t - f.t AS delta FROM f JOIN p USING (user_id)
                  WHERE p.t - f.t > 0)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_converted,
                   CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY delta)
                        AS BIGINT) AS p50_us
            FROM d
        """,
        "q118_drawdown": """
            WITH o AS (SELECT o_custkey, o_orderkey,
                              CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS c
                       FROM orders),
            w AS (SELECT o_custkey,
                         MAX(c) OVER (PARTITION BY o_custkey
                                      ORDER BY o_orderkey) - c AS dd
                  FROM o)
            SELECT o_custkey, CAST(MAX(dd) AS BIGINT) AS max_dd
            FROM w GROUP BY o_custkey
        """,
        "q116_pagination": """
            SELECT CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS total_cents,
                   o_orderkey
            FROM orders
            ORDER BY total_cents DESC, o_orderkey DESC
            LIMIT 20 OFFSET 50
        """,
        "q114_mad": """
            WITH o AS (SELECT o_orderpriority,
                              CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS c
                       FROM orders),
            m AS (SELECT o_orderpriority,
                         CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY c)
                              AS BIGINT) AS med,
                         CAST(COUNT(*) AS BIGINT) AS n
                  FROM o GROUP BY o_orderpriority),
            d AS (SELECT o.o_orderpriority, ABS(o.c - m.med) AS dev
                  FROM o JOIN m USING (o_orderpriority))
            SELECT m.o_orderpriority, m.n, m.med,
                   CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY d.dev)
                        AS BIGINT) AS mad
            FROM d JOIN m USING (o_orderpriority)
            GROUP BY m.o_orderpriority, m.n, m.med
        """,
        "q115_equalize": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            px AS (SELECT k, (k + 7*y.y + 3*x.x) % 256 AS p
                   FROM ks, generate_series(0, 23) y(y),
                        generate_series(0, 31) x(x)),
            h AS (SELECT k, p, CAST(COUNT(*) AS BIGINT) AS c
                  FROM px GROUP BY k, p),
            cd AS (SELECT k, p, c,
                     SUM(c) OVER (PARTITION BY k ORDER BY p) AS cdf,
                     SUM(c) OVER (PARTITION BY k) AS n,
                     MIN(c) OVER (PARTITION BY k) AS _dummy
                   FROM h),
            cm AS (SELECT k, MIN(cdf) AS cdf_min FROM cd GROUP BY k),
            eq AS (SELECT cd.k, ((cd.cdf - cm.cdf_min) * 255)
                                // (cd.n - cm.cdf_min) AS e, cd.c
                   FROM cd JOIN cm USING (k))
            SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
                   CAST(SUM(e * c) AS BIGINT) AS eq_sum
            FROM eq GROUP BY k
        """,
        "q113_triangles": """
            WITH e0 AS (SELECT DISTINCT o_orderkey % 100 AS u,
                               (o_orderkey // 100) % 100 AS v
                        FROM orders
                        WHERE o_orderkey % 100
                              != (o_orderkey // 100) % 100),
            e AS (SELECT DISTINCT LEAST(u, v) AS u, GREATEST(u, v) AS v
                  FROM e0),
            t AS (SELECT a.u AS x, a.v AS y, c.v AS z
                  FROM e a JOIN e b ON b.u = a.u AND b.v > a.v
                       JOIN e c ON c.u = a.v AND c.v = b.v),
            n AS (SELECT x AS node FROM t
                  UNION ALL SELECT y FROM t
                  UNION ALL SELECT z FROM t)
            SELECT node, CAST(COUNT(*) AS BIGINT) AS n_tri
            FROM n GROUP BY node
        """,
        "q112_pagerank": """
            WITH e AS (SELECT DISTINCT o_orderkey % 1000 AS u,
                              (o_orderkey * 2654435761) % 1000 AS v
                       FROM orders
                       WHERE o_orderkey % 1000
                             != (o_orderkey * 2654435761) % 1000),
            n AS (SELECT DISTINCT node FROM
                    (SELECT u AS node FROM e UNION SELECT v FROM e)),
            cnt AS (SELECT COUNT(*) AS N FROM n),
            deg AS (SELECT u, CAST(COUNT(*) AS BIGINT) AS d
                    FROM e GROUP BY u),
            r0 AS (SELECT node, 1000000000 // (SELECT N FROM cnt) AS r
                   FROM n),
            s1 AS (SELECT e.v AS node, CAST(SUM(r0.r // deg.d) AS BIGINT) AS s
                   FROM e JOIN r0 ON e.u = r0.node
                        JOIN deg ON e.u = deg.u GROUP BY e.v),
            r1 AS (SELECT n.node,
                          150000000 // (SELECT N FROM cnt)
                            + (85 * COALESCE(s1.s, 0)) // 100 AS r
                   FROM n LEFT JOIN s1 USING (node)),
            s2 AS (SELECT e.v AS node, CAST(SUM(r1.r // deg.d) AS BIGINT) AS s
                   FROM e JOIN r1 ON e.u = r1.node
                        JOIN deg ON e.u = deg.u GROUP BY e.v),
            r2 AS (SELECT n.node,
                          150000000 // (SELECT N FROM cnt)
                            + (85 * COALESCE(s2.s, 0)) // 100 AS r
                   FROM n LEFT JOIN s2 USING (node)),
            s3 AS (SELECT e.v AS node, CAST(SUM(r2.r // deg.d) AS BIGINT) AS s
                   FROM e JOIN r2 ON e.u = r2.node
                        JOIN deg ON e.u = deg.u GROUP BY e.v),
            r3 AS (SELECT n.node,
                          150000000 // (SELECT N FROM cnt)
                            + (85 * COALESCE(s3.s, 0)) // 100 AS r
                   FROM n LEFT JOIN s3 USING (node))
            SELECT node, CAST(r AS BIGINT) AS rank FROM r3
        """,
        "q111_kmeans": """
            WITH v AS (SELECT vec_id, g.i AS dim,
                         CAST(ROUND(CAST(embedding[g.i] AS DOUBLE)
                                    * 1000000.0) AS BIGINT) AS x
                       FROM embeddings
                       CROSS JOIN (SELECT generate_series AS i
                                   FROM generate_series(1, 512)) g
                       WHERE g.i <= len(embedding)),
            init AS (SELECT vec_id,
                            DENSE_RANK() OVER (ORDER BY vec_id) - 1 AS cluster
                     FROM (SELECT DISTINCT vec_id FROM embeddings
                           ORDER BY vec_id LIMIT 8)),
            c0 AS (SELECT init.cluster, v.dim, v.x AS c
                   FROM v JOIN init USING (vec_id)),
            d1 AS (SELECT v.vec_id, c0.cluster,
                          SUM((v.x - c0.c) * (v.x - c0.c)) AS d2
                   FROM v JOIN c0 USING (dim) GROUP BY v.vec_id, c0.cluster),
            a1 AS (SELECT vec_id, cluster FROM
                     (SELECT *, ROW_NUMBER() OVER (PARTITION BY vec_id
                        ORDER BY d2, cluster) AS rn FROM d1)
                   WHERE rn = 1),
            u1 AS (SELECT a1.cluster, v.dim,
                          CAST(ROUND(CAST(SUM(v.x) AS DOUBLE) / COUNT(*))
                               AS BIGINT) AS c
                   FROM v JOIN a1 USING (vec_id)
                   GROUP BY a1.cluster, v.dim),
            c1 AS (SELECT c0.cluster, c0.dim, COALESCE(u1.c, c0.c) AS c
                   FROM c0 LEFT JOIN u1
                     ON c0.cluster = u1.cluster AND c0.dim = u1.dim),
            dd2 AS (SELECT v.vec_id, c1.cluster,
                           SUM((v.x - c1.c) * (v.x - c1.c)) AS d2
                    FROM v JOIN c1 USING (dim) GROUP BY v.vec_id, c1.cluster),
            a2 AS (SELECT vec_id, cluster FROM
                     (SELECT *, ROW_NUMBER() OVER (PARTITION BY vec_id
                        ORDER BY d2, cluster) AS rn FROM dd2)
                   WHERE rn = 1),
            u2 AS (SELECT a2.cluster, v.dim,
                          CAST(ROUND(CAST(SUM(v.x) AS DOUBLE) / COUNT(*))
                               AS BIGINT) AS c
                   FROM v JOIN a2 USING (vec_id)
                   GROUP BY a2.cluster, v.dim),
            c2 AS (SELECT c1.cluster, c1.dim, COALESCE(u2.c, c1.c) AS c
                   FROM c1 LEFT JOIN u2
                     ON c1.cluster = u2.cluster AND c1.dim = u2.dim),
            n2 AS (SELECT cluster, CAST(COUNT(*) AS BIGINT) AS n
                   FROM a2 GROUP BY cluster)
            SELECT c2.cluster, c2.dim, c2.c AS c_micro,
                   COALESCE(n2.n, 0) AS n
            FROM c2 LEFT JOIN n2 USING (cluster)
        """,
        "q108_densify": """
            WITH c AS (SELECT epoch_us(ts) // 86400000000 AS day,
                              CAST(COUNT(*) AS BIGINT) AS n
                       FROM events GROUP BY day),
            b AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM c),
            s AS (SELECT lo + g.i AS day
                  FROM b CROSS JOIN (SELECT generate_series AS i
                                     FROM generate_series(0, 100000)) g
                  WHERE lo + g.i <= hi)
            SELECT s.day, COALESCE(c.n, 0) AS n
            FROM s LEFT JOIN c USING (day)
        """,
        "q109_weighted": """
            SELECT l_returnflag,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100.0) AS BIGINT)
                            * CAST(l_quantity AS BIGINT)) AS BIGINT) AS w_sum,
                   CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS w,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM lineitem GROUP BY l_returnflag
        """,
        "q110_above_avg": """
            WITH o AS (SELECT o_orderpriority,
                              CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS c
                       FROM orders),
            a AS (SELECT o_orderpriority, CAST(SUM(c) AS BIGINT) AS s,
                         CAST(COUNT(*) AS BIGINT) AS n
                  FROM o GROUP BY o_orderpriority)
            SELECT o.o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_above
            FROM o JOIN a USING (o_orderpriority)
            WHERE o.c * a.n > a.s GROUP BY o.o_orderpriority
        """,
        "q105_json_extract": """
            SELECT event_type,
                   CAST(SUM(TRY_CAST(NULLIF(regexp_extract(props,
                        '"k"\\s*:\\s*(-?\\d+)', 1), '') AS BIGINT)) AS BIGINT)
                     AS k_sum,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM events GROUP BY event_type
        """,
        "q106_unpivot": """
            WITH li AS (SELECT
                  CAST(ROUND(l_quantity * 100.0) AS BIGINT) AS l_quantity,
                  CAST(ROUND(l_extendedprice * 100.0) AS BIGINT) AS l_extendedprice,
                  CAST(ROUND(l_discount * 100.0) AS BIGINT) AS l_discount,
                  CAST(ROUND(l_tax * 100.0) AS BIGINT) AS l_tax
                FROM lineitem),
            long AS (
              SELECT 'l_quantity' AS measure, l_quantity AS value FROM li
              UNION ALL
              SELECT 'l_extendedprice', l_extendedprice FROM li
              UNION ALL
              SELECT 'l_discount', l_discount FROM li
              UNION ALL
              SELECT 'l_tax', l_tax FROM li)
            SELECT measure, CAST(SUM(value) AS BIGINT) AS v_sum,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM long GROUP BY measure
        """,
        "q107_iqr_outliers": """
            WITH o AS (SELECT o_orderpriority,
                              CAST(ROUND(o_totalprice * 100.0) AS BIGINT) AS c
                       FROM orders),
            b AS (SELECT o_orderpriority,
                         CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY c)
                              AS BIGINT) AS p25,
                         CAST(percentile_disc(0.75) WITHIN GROUP (ORDER BY c)
                              AS BIGINT) AS p75
                  FROM o GROUP BY o_orderpriority)
            SELECT o.o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_outliers
            FROM o JOIN b USING (o_orderpriority)
            WHERE 2*o.c > 2*b.p75 + (b.p75 - b.p25)
               OR 2*o.c < 2*b.p25 - (b.p75 - b.p25)
            GROUP BY o.o_orderpriority
        """,
        "q104_streaks": """
            WITH d AS (SELECT DISTINCT user_id,
                              epoch_us(ts) // 86400000000 AS day
                       FROM events),
            g AS (SELECT user_id, day,
                         day - ROW_NUMBER() OVER (PARTITION BY user_id
                                                  ORDER BY day) AS grp
                  FROM d),
            r AS (SELECT user_id, CAST(COUNT(*) AS BIGINT) AS len
                  FROM g GROUP BY user_id, grp)
            SELECT user_id, MAX(len) AS max_streak FROM r GROUP BY user_id
        """,
        "q100_dominant": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            v AS (SELECT k, (  77 * ((k + 7*y.y + 3*x.x     ) % 256)
                            + 150 * ((k + 7*y.y + 3*x.x + 11) % 256)
                            +  29 * ((k + 7*y.y + 3*x.x + 22) % 256)) // 256
                         AS lum
                  FROM ks, generate_series(0, 23) y(y),
                       generate_series(0, 31) x(x)),
            h AS (SELECT k, lum, CAST(COUNT(*) AS BIGINT) AS n_px
                  FROM v GROUP BY k, lum),
            r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY k
                    ORDER BY n_px DESC, lum) AS rnk FROM h)
            SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
                   CAST(lum AS BIGINT) AS lum, n_px,
                   CAST(rnk AS BIGINT) AS rank
            FROM r WHERE rnk <= 3
        """,
        "q96_transitions": """
            WITH o AS (SELECT user_id, event_type,
                              LEAD(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
                       FROM events)
            SELECT event_type AS from_type, nxt AS to_type,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM o WHERE nxt IS NOT NULL GROUP BY event_type, nxt
        """,
        "q97_otsu": """
            WITH ks AS (SELECT o_orderkey AS k FROM orders
                        WHERE o_orderkey % 16 = 0),
            px AS (SELECT k, (k + 7*y.y + 3*x.x) % 256 AS p
                   FROM ks, generate_series(0, 23) y(y),
                        generate_series(0, 31) x(x)),
            h AS (SELECT k, p, CAST(COUNT(*) AS BIGINT) AS n
                  FROM px GROUP BY k, p),
            c AS (SELECT k, p,
                    SUM(n) OVER (PARTITION BY k ORDER BY p) AS w1,
                    SUM(p * n) OVER (PARTITION BY k ORDER BY p) AS s1,
                    SUM(n) OVER (PARTITION BY k) AS wt,
                    SUM(p * n) OVER (PARTITION BY k) AS st
                  FROM h),
            sc AS (SELECT k, p,
                     (CAST(s1 AS DOUBLE)/w1 - CAST(st - s1 AS DOUBLE)/(wt - w1))
                     * (CAST(s1 AS DOUBLE)/w1 - CAST(st - s1 AS DOUBLE)/(wt - w1))
                     * CAST(w1 AS DOUBLE)
                     * (CAST(wt AS DOUBLE) - CAST(w1 AS DOUBLE)) AS score
                   FROM c WHERE w1 < wt),
            r AS (SELECT k, p, ROW_NUMBER() OVER (PARTITION BY k
                    ORDER BY score DESC, p) AS rn FROM sc)
            SELECT 'img-' || lpad(CAST(k AS VARCHAR), 9, '0') AS image_id,
                   CAST(p AS BIGINT) AS otsu_t
            FROM r WHERE rn = 1
        """,
        "q94_centroids": """
            WITH x AS (SELECT CAST(label AS BIGINT) AS label, g.i AS dim,
                              CAST(ROUND(CAST(embedding[g.i] AS DOUBLE)
                                         * 1000000.0) AS BIGINT) AS v
                       FROM embeddings
                       CROSS JOIN (SELECT generate_series AS i
                                   FROM generate_series(1, 512)) g
                       WHERE g.i <= len(embedding))
            SELECT label, dim, CAST(SUM(v) AS BIGINT) AS s_micro,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM x GROUP BY label, dim
        """,
        "q89_zero_crossings": """
            WITH o AS (SELECT o_orderkey AS k, 200 + o_orderkey % 300 AS n
                       FROM orders WHERE o_orderkey % 97 = 0),
            v AS (SELECT k, n, g.i AS i,
                         (k * 7919 + g.i * 104729) % 65536 - 32768 AS v
                  FROM o CROSS JOIN (SELECT generate_series AS i
                                     FROM generate_series(0, 499)) g
                  WHERE g.i < n),
            p AS (SELECT a.k, a.v AS va, b.v AS vb
                  FROM v a JOIN v b ON a.k = b.k AND b.i = a.i + 1)
            SELECT k AS o_orderkey,
                   CAST(SUM(CASE WHEN va * vb < 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_zc
            FROM p GROUP BY k
        """,
        "q83_tfidf": """
            WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
                         FROM documents),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
                   FROM tok GROUP BY doc_id, term),
            df AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS d
                   FROM tf GROUP BY term),
            s AS (SELECT tf.doc_id, tf.term, tf.tf,
                         CAST((tf.tf * 1000000) // df.d AS BIGINT) AS score
                  FROM tf JOIN df USING (term)),
            r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                    ORDER BY score DESC, term) AS rn FROM s)
            SELECT doc_id, term, tf, score FROM r WHERE rn <= 3
        """,
    }
