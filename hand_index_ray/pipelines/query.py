"""Query pipelines over the built index — the engine's analog of
query_geojson.py and viz/query_visualization.py, Ray-Data-first.

Operator map (SURVEY.md §2.4–2.6):
  bbox_scan            J5  envelope scan w/ manifest partition pruning
  roi_query_footprints J1+A5  point-in-polygon + overlap-filter on tiles
  roi_query_catchments J1+A5+J2  reference-parity catchment query
  attach_attributes    J2/J4  3-way left join via broadcast small side
  write_per_group      S8  one parquet per catchment_id (id col dropped)
  knn_query            J6+O3  cell-ring expansion + exact top-k
  zonal_join           J7  co-partitioned footprint×catchment join with
                           lattice-cell keys, hot-cell salting, and
                           shared-cell pair dedup (no extra shuffle)

Broadcast discipline: small sides (the ROI geometry, the filtered id
set, the catchment polygons of one query) are put in the object store
ONCE via ``ray.put`` and read inside task closures — never re-shipped
per batch (SURVEY.md §2.3 ST2/ST3).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..config import DEFAULT, EngineConfig
from ..kernels import geom, proj, s2, wkb
from ..state.manifest import Manifest

# ---------------------------------------------------------------------------
# J5: bbox / cell-range scan


def bbox_scan(index_dir: str, minx: float, miny: float, maxx: float, maxy: float,
              columns: list[str] | None = None,
              filesystem=None) -> ray.data.Dataset | None:
    """All footprints whose bbox intersects the query envelope
    (reference viz/query_visualization.py:145-159, ST_MakeEnvelope +
    ST_Intersects). Three pruning tiers: manifest file stats → parquet
    row-group pushdown (pyarrow filter expression at the read) → exact
    vectorized test per batch."""
    man = Manifest(index_dir, filesystem=filesystem)
    files = man.files_for_bbox(index_dir, minx, miny, maxx, maxy)
    if not files:
        return None
    expr = ((pc.field("minx") <= maxx) & (pc.field("maxx") >= minx)
            & (pc.field("miny") <= maxy) & (pc.field("maxy") >= miny))
    cols = columns
    if cols is not None:
        cols = sorted(set(cols) | {"minx", "miny", "maxx", "maxy"})
    ds = ray.data.read_parquet(files, columns=cols, filter=expr,
                               filesystem=filesystem)

    def exact(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(pc.less_equal(t["minx"], maxx), pc.greater_equal(t["maxx"], minx)),
            pc.and_(pc.less_equal(t["miny"], maxy), pc.greater_equal(t["maxy"], miny)),
        )
        return t.filter(m)

    return ds.map_batches(exact, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# J1 + A5: ROI polygon query over tile footprints


def _bbox_arrays(t: pa.Table) -> list[np.ndarray]:
    return [t.column(c).to_numpy() for c in ("minx", "miny", "maxx", "maxy")]


class RoiMatcher:
    """The prepared ROI geometry and the reference's overlap filter
    (ST2). The ROI WKB is broadcast once via ``ray.put``; a task map
    builds one matcher per batch, ~0.1 ms for an 8-gon (reference
    prepares the query polygon once at query_geojson.py:54-73,105)."""

    def __init__(self, roi_blob: bytes, threshold_pct: float):
        self.roi = geom.PreparedPolygon(wkb.decode([roi_blob]))
        self.rect = geom.axis_rect(self.roi)  # exact fast path for bbox ROIs
        self.threshold = threshold_pct

    def match(self, minx, miny, maxx, maxy):
        """Tile bboxes vs the ROI → (areas, overlap_pct, relation dict,
        keep mask: contains OR within OR overlap_pct ≥ threshold)."""
        if self.rect is not None:
            rel = geom.rects_vs_rect(minx, miny, maxx, maxy, *self.rect)
        else:
            rel = geom.rects_vs_polygon(minx, miny, maxx, maxy, self.roi)
        areas = (maxx - minx) * (maxy - miny)
        pct = geom.overlap_stats(areas, rel["inter_area"])
        keep = geom.keep_mask(rel["rect_contains_poly"], rel["rect_within_poly"],
                              pct, self.threshold) & rel["intersects"]
        return areas, pct, rel, keep

    def __call__(self, t: pa.Table) -> pa.Table:
        areas, pct, rel, keep = self.match(*_bbox_arrays(t))
        out = t.append_column("area", pa.array(areas))
        out = out.append_column("overlap_pct", pa.array(pct))
        out = out.append_column("contains_query", pa.array(rel["rect_contains_poly"]))
        out = out.append_column("within_query", pa.array(rel["rect_within_poly"]))
        return out.filter(pa.array(keep))


def roi_query_footprints(index_dir: str, roi_ring_lonlat: np.ndarray,
                         threshold_pct: float | None = None,
                         cfg: EngineConfig = DEFAULT,
                         filesystem=None) -> ray.data.Dataset | None:
    """Footprints selected by the reference's overlap-filter semantics
    (contains OR within OR overlap_pct ≥ threshold,
    query_geojson.py:213-219) against a lon/lat ROI polygon."""
    thr = cfg.overlap_threshold_pct if threshold_pct is None else threshold_pct
    rag = wkb.from_parts([[[np.asarray(roi_ring_lonlat, dtype=np.float64)]]])
    b = geom.bounds(rag)[0]
    man = Manifest(index_dir, filesystem=filesystem)
    files = man.files_for_bbox(index_dir, b[0], b[1], b[2], b[3])
    if not files:
        return None
    # partitioning=None: the hive key `cell=N` names the file's directory,
    # which compaction changes; rows carry their own `part_cell`
    ds = ray.data.read_parquet(files, filesystem=filesystem,
                               partitioning=None)
    roi_ref = ray.put(wkb.encode(rag)[0])

    def match(t: pa.Table) -> pa.Table:
        return RoiMatcher(ray.get(roi_ref), thr)(t)

    return ds.map_batches(match, batch_format="pyarrow", zero_copy_batch=True)


def roi_query_footprints_multi(index_dir: str,
                               rois: "dict[str, np.ndarray]",
                               threshold_pct: float | None = None,
                               cfg: EngineConfig = DEFAULT,
                               filesystem=None) -> ray.data.Dataset | None:
    """Batch form of ``roi_query_footprints``: MANY ROI polygons in one
    pass — one pruned read over the union of ROI bboxes, every batch
    tested against every relevant ROI (each prepared once, broadcast
    once). Result rows carry a ``roi`` name column. At scale this is
    how a query log amortizes the scan (the reference runs one process
    per GeoJSON, re-reading the catalog every time)."""
    thr = cfg.overlap_threshold_pct if threshold_pct is None else threshold_pct
    prepared = {}
    boxes = {}
    for name, ring in rois.items():
        rag = wkb.from_parts([[[np.asarray(ring, dtype=np.float64)]]])
        prepared[name] = wkb.encode(rag)[0]
        boxes[name] = geom.bounds(rag)[0]
    if not prepared:
        return None
    union = (min(b[0] for b in boxes.values()), min(b[1] for b in boxes.values()),
             max(b[2] for b in boxes.values()), max(b[3] for b in boxes.values()))
    man = Manifest(index_dir, filesystem=filesystem)
    files = man.files_for_bbox(index_dir, *union)
    if not files:
        return None
    roi_ref = ray.put(prepared)
    box_ref = ray.put(boxes)
    ds = ray.data.read_parquet(files, filesystem=filesystem,
                               partitioning=None)

    def match_all(t: pa.Table) -> pa.Table:
        blobs = ray.get(roi_ref)
        bxs = ray.get(box_ref)
        minx, miny, maxx, maxy = _bbox_arrays(t)
        outs = []
        for name, blob in blobs.items():
            b = bxs[name]
            # skip ROIs that cannot touch this batch at all
            if minx.min() > b[2] or maxx.max() < b[0] or miny.min() > b[3] or maxy.max() < b[1]:
                continue
            _areas, pct, _rel, keep = RoiMatcher(blob, thr).match(minx, miny, maxx, maxy)
            if not keep.any():
                continue
            sub = t.filter(pa.array(keep))
            sub = sub.append_column("overlap_pct", pa.array(pct[keep]))
            sub = sub.append_column("roi", pa.array([name] * sub.num_rows, pa.string()))
            outs.append(sub)
        if not outs:
            sch = t.schema.append(pa.field("overlap_pct", pa.float64())) \
                          .append(pa.field("roi", pa.string()))
            return sch.empty_table()
        return pa.concat_tables(outs)

    return ds.map_batches(match_all, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# reference-parity catchment ROI query (J1 + A5)


def roi_query_catchments(catchments_path: str, roi_ring_lonlat: np.ndarray,
                         threshold_pct: float | None = None,
                         cfg: EngineConfig = DEFAULT,
                         with_stats: bool = False):
    """The reference query, end to end (query_geojson.py:76-248):
    ROI 4326 → EPSG:5070, ST_Intersects against stored WKB catchments,
    then the overlap filter with the exact NA rule and keep mask.

    Returns a Dataset of kept catchment rows with the same metric
    columns the reference computes (area, overlap_pct, contains_query,
    within_query); optionally the summary stats dict
    (query_geojson.py:236-246).
    """
    thr = cfg.overlap_threshold_pct if threshold_pct is None else threshold_pct
    ring = np.asarray(roi_ring_lonlat, dtype=np.float64)
    x, y = proj.lonlat_to_albers(ring[:, 0], ring[:, 1])
    roi5070 = wkb.from_parts([[[np.stack([x, y], axis=1)]]])
    roi_ref = ray.put(wkb.encode(roi5070)[0])

    def match(t: pa.Table) -> pa.Table:
        # the ROI is prepared per batch (~0.1 ms): a task map holds no
        # state once the dataset is consumed
        roi = wkb.decode([ray.get(roi_ref)])
        prep = geom.PreparedPolygon(roi, 0)
        blobs = t.column("geometry")
        n = t.num_rows
        inter = np.zeros(n)
        areas = np.zeros(n)
        contains = np.zeros(n, dtype=bool)
        within = np.zeros(n, dtype=bool)
        # one C-level extraction of the packed WKB blobs — no
        # per-row .as_py()
        rag = wkb.decode(blobs.combine_chunks().to_numpy(
            zero_copy_only=False))
        gb = geom.bounds(rag)
        rb = prep.bounds
        cand = (gb[:, 0] <= rb[2]) & (rb[0] <= gb[:, 2]) & (gb[:, 1] <= rb[3]) & (rb[1] <= gb[:, 3])
        # vectorized ST_Intersects for the whole batch (same
        # decision as per-candidate geom_intersects)
        hit = geom.polygons_intersect_one(rag, cand, prep)
        garea = geom.area(rag)
        for i in np.nonzero(hit)[0]:
            areas[i] = garea[i]
            # general polygon intersection: concave/holed catchments
            # are handled exactly (ear-triangulated clip rings)
            inter[i] = geom.clip_area_general(roi, 0, rag, int(i))
            contains[i] = geom.geom_contains(rag, int(i), roi, 0)
            within[i] = geom.geom_contains(roi, 0, rag, int(i))
        pct = geom.overlap_stats(areas, inter)
        keep = geom.keep_mask(contains, within, pct, thr) & hit
        out = t.append_column("area", pa.array(areas))
        out = out.append_column("overlap_pct", pa.array(pct))
        out = out.append_column("contains_query", pa.array(contains))
        out = out.append_column("within_query", pa.array(within))
        out = out.append_column("intersects", pa.array(hit))
        return out.filter(pa.array(hit)) if with_stats else out.filter(pa.array(keep))

    matched = ray.data.read_parquet(catchments_path).map_batches(
        match, batch_format="pyarrow", zero_copy_batch=True)
    if not with_stats:
        return matched
    # stats pass (reference query_geojson.py:236-246): candidates kept
    df = matched.to_pandas()
    keep = geom.keep_mask(df["contains_query"].to_numpy(),
                          df["within_query"].to_numpy(),
                          df["overlap_pct"].to_numpy(), thr)
    stats = {
        "initial_geoms": int(len(df)),
        "final_geoms": int(keep.sum()),
        "removed_geoms": int((~keep).sum()),
        "contains_count": int(df["contains_query"].sum()),
        "within_count": int(df["within_query"].sum()),
        "overlap_only_count": int(((df["overlap_pct"] >= thr)
                                   & ~df["contains_query"] & ~df["within_query"]).sum()),
    }
    return df[keep], stats


# ---------------------------------------------------------------------------
# J2/J4: attribute attach (3-way left join, broadcast small side)


def _concat_nonempty(tbls: list[pa.Table], schema: "pa.Schema | None" = None) -> pa.Table:
    """Concat Dataset output blocks, dropping the schemaless empty blocks
    that groupby/aggregate stages emit (they carry no rows and would fail
    the concat schema check). All-empty: first block that still carries
    columns, else ``schema.empty_table()``, else a column-less table."""
    nonempty = [t for t in tbls if t.num_rows > 0]
    if nonempty:
        return pa.concat_tables(nonempty)
    with_cols = [t for t in tbls if t.num_columns > 0]
    if with_cols:
        return with_cols[0]
    return schema.empty_table() if schema is not None else pa.table({})


def attach_attributes(kept_ids: list[str], vector_dir: str) -> pa.Table:
    """3-way LEFT join of sidecar tables onto the filtered catchment id
    set (reference query_geojson.py:139-153). The id set is small after
    the spatial filter (J1), so each sidecar Dataset is semi-join
    filtered with a broadcast id set (``pc.is_in`` inside map_batches,
    J4) and the final joins run on the collected small tables."""
    ids = pa.array(sorted(set(kept_ids)), pa.string())
    id_ref = ray.put(ids)

    def semi(t: pa.Table) -> pa.Table:
        want = ray.get(id_ref)
        return t.filter(pc.is_in(t["catchment_id"], value_set=want))

    def load(name: str) -> pa.Table:
        ds = ray.data.read_parquet(os.path.join(vector_dir, f"{name}.parquet"))
        refs = ds.map_batches(semi, batch_format="pyarrow",
                              zero_copy_batch=True).to_arrow_refs()
        tbls = [ray.get(r) for r in refs]
        out = _concat_nonempty(tbls)
        if out.num_columns > 0:
            return out
        # degenerate: no blocks carried the schema — read it off disk
        return pq.read_table(os.path.join(vector_dir, f"{name}.parquet")).slice(0, 0)

    base = pa.table({"catchment_id": ids})
    hydro = load("hydrotables")
    rem = load("rem_rasters").rename_columns(["catchment_id", "rem_raster_path"])
    cat = load("catchment_rasters").rename_columns(["catchment_id", "catchment_raster_path"])
    out = base.join(hydro, keys="catchment_id", join_type="left outer")
    out = out.join(rem, keys="catchment_id", join_type="left outer")
    out = out.join(cat, keys="catchment_id", join_type="left outer")
    return out.sort_by([("catchment_id", "ascending"), ("csv_path", "ascending")])


def write_per_group(attrs: pa.Table, outdir: str) -> list[str]:
    """One parquet per catchment_id with the id column dropped inside
    the file (reference S8, query_geojson.py:317-331)."""
    os.makedirs(outdir, exist_ok=True)
    df = attrs.to_pandas()
    paths = []
    for cid, group in df.groupby("catchment_id"):
        sub = group.drop(columns=["catchment_id"])
        p = os.path.join(outdir, f"{cid}.parquet")
        sub.to_parquet(p, index=False)
        paths.append(p)
    return paths


def load_query_results(outdir: str) -> ray.data.Dataset:
    """Read the per-catchment files back, re-attaching the id from the
    file name (reference viz/query_visualization.py:35-69)."""
    ds = ray.data.read_parquet(outdir, include_paths=True)

    def add_id(t: pa.Table) -> pa.Table:
        ids = [os.path.splitext(os.path.basename(p))[0] for p in t.column("path").to_pylist()]
        out = t.drop_columns(["path"])
        return out.append_column("catchment_id", pa.array(ids, pa.string()))

    return ds.map_batches(add_id, batch_format="pyarrow")


def cell_range_scan(index_dir: str, cell: int,
                    columns: list[str] | None = None,
                    filesystem=None) -> ray.data.Dataset | None:
    """All footprints inside one S2 cell (any level): prune partitions
    by cell-range intersection, then the exact test is a pure uint64
    range filter on the fine ``s2_cell`` key — the 'cell-range scan'
    of the north rule, no geometry math at all."""
    man = Manifest(index_dir, filesystem=filesystem)
    files = man.files_for_cells(index_dir, {int(cell)})
    if not files:
        return None
    lo, hi = s2.cell_range(np.array([cell], dtype=np.uint64))
    lo_i, hi_i = int(lo[0]), int(hi[0])
    cols = columns if columns is None else sorted(set(columns) | {"s2_cell"})
    ds = ray.data.read_parquet(files, columns=cols, filesystem=filesystem)

    def in_range(t: pa.Table) -> pa.Table:
        c = t.column("s2_cell").to_numpy()
        return t.filter(pa.array((c >= lo_i) & (c <= hi_i)))

    return ds.map_batches(in_range, batch_format="pyarrow", zero_copy_batch=True)


def hex_cell_stats(index_dir: str, res: int,
                   cfg: EngineConfig = DEFAULT,
                   filesystem=None) -> ray.data.Dataset:
    """Tile counts per H3-style cell at ``res`` — the multi-resolution
    aggregation the h3_r5..h3_r9 columns exist for (north rule)."""
    from ..relational import grouped_agg

    man = Manifest(index_dir, filesystem=filesystem)
    col = f"h3_r{res}"
    ds = ray.data.read_parquet(man.all_files(index_dir), columns=[col],
                               filesystem=filesystem)
    return grouped_agg(ds, [col])


def write_single_file(ds: ray.data.Dataset, path: str,
                      schema: "pa.Schema | None" = None,
                      filesystem=None) -> str:
    """Single-file parquet sink for small sidecar tables (reference S7,
    ``COPY {table} TO '{file}.parquet'`` load.py:289-299). Only for
    tables known to be small — large tables use the partitioned sink.
    ``schema`` keeps an all-empty result well-typed (groupby stages
    emit schemaless empty blocks)."""
    tbls = [ray.get(r) for r in ds.to_arrow_refs()]
    tbl = _concat_nonempty(tbls, schema=schema)
    import posixpath

    from ..state.fsio import FS
    io = FS(filesystem)
    d = posixpath.dirname(path)
    if d:
        io.mkdirs(d)
    io.write_parquet_atomic(path, tbl)
    return path


def sample_per_group(ds: ray.data.Dataset, key: str, k: int,
                     order_col: str | None = None) -> ray.data.Dataset:
    """First-k rows per group (reference O2: ``.head(display_count)``
    per catchment, viz/query_visualization.py:361-365)."""

    def head(g: pd.DataFrame) -> pd.DataFrame:
        if order_col:
            g = g.sort_values(order_col, kind="stable")
        return g.head(k)

    return ds.groupby(key).map_groups(head, batch_format="pandas")


def _ragged_to_geojson_coords(rag, gi: int) -> list:
    """One geometry's EPSG:5070 rings → GeoJSON 4326 coordinate arrays
    (MultiPolygon nesting: parts → rings → [lon, lat] pairs)."""
    gg = rag.geom_slice(gi)
    parts = []
    for p in range(len(gg.part_ring_off) - 1):
        rings = []
        for ri in range(gg.part_ring_off[p], gg.part_ring_off[p + 1]):
            c0, c1 = gg.ring_coord_off[ri], gg.ring_coord_off[ri + 1]
            lon, lat = proj.albers_to_lonlat(gg.coords[c0:c1, 0], gg.coords[c0:c1, 1])
            rings.append([[float(a), float(b)] for a, b in zip(lon, lat)])
        parts.append(rings)
    return parts


def export_validation_geojson(catchments_path: str, roi_ring_lonlat: np.ndarray,
                              out_path: str,
                              threshold_pct: float | None = None,
                              cfg: EngineConfig = DEFAULT) -> dict:
    """QA artifact: one GeoJSON FeatureCollection with the three sets
    the reference's folium map overlays (viz/query_visualization.py:
    178-472) — the ROI polygon, every INTERSECTING catchment, and the
    KEPT (overlap-filtered) subset — so any external viewer reproduces
    the visual check without HTML rendering. Like the reference's viz,
    the intersect query runs ONCE (viz:72-102) — the kept subset is
    derived driver-side from the candidate rows' already-computed
    overlap columns instead of re-scanning the catalog.

    Returns the validate_roi-style count summary."""
    import json

    thr = cfg.overlap_threshold_pct if threshold_pct is None else threshold_pct
    cands = roi_query_catchments(catchments_path, roi_ring_lonlat, 0.0, cfg).to_pandas()
    kmask = geom.keep_mask(cands["contains_query"].to_numpy(),
                           cands["within_query"].to_numpy(),
                           cands["overlap_pct"].to_numpy(), thr)
    kept_ids = set(cands.loc[kmask, "catchment_id"])
    ring = np.asarray(roi_ring_lonlat, dtype=np.float64)
    closed = np.vstack([ring, ring[:1]]) if not np.array_equal(ring[0], ring[-1]) else ring
    features = [{
        "type": "Feature",
        "properties": {"set": "query", "threshold_pct": thr},
        "geometry": {"type": "Polygon",
                     "coordinates": [[[float(a), float(b)] for a, b in closed]]},
    }]
    rag = wkb.decode(cands["geometry"].tolist()) if len(cands) else None
    for i, row in enumerate(cands.itertuples()):
        features.append({
            "type": "Feature",
            "properties": {
                "set": "kept" if row.catchment_id in kept_ids else "intersecting",
                "catchment_id": row.catchment_id,
                "overlap_pct": float(row.overlap_pct),
                "contains_query": bool(row.contains_query),
                "within_query": bool(row.within_query),
            },
            "geometry": {"type": "MultiPolygon",
                         "coordinates": _ragged_to_geojson_coords(rag, i)},
        })
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as f:
        json.dump({"type": "FeatureCollection", "features": features}, f)
    return {
        "initial_geoms": int(len(cands)),
        "final_geoms": int(len(kept_ids)),
        "removed_geoms": int(len(cands) - len(kept_ids)),
        "out_path": out_path,
    }


def validate_roi(catchments_path: str, roi_ring_lonlat: np.ndarray,
                 threshold_pct: float | None = None,
                 cfg: EngineConfig = DEFAULT) -> dict:
    """Validation pipeline (the engine's analog of the reference's viz
    QA, SURVEY.md §3.3): re-runs the unfiltered intersect query and
    diffs the candidate set against the overlap-filtered result set,
    emitting the counts the reference prints
    (viz/query_visualization.py:459-472) instead of an HTML map."""
    df, stats = roi_query_catchments(catchments_path, roi_ring_lonlat,
                                     threshold_pct, cfg, with_stats=True)
    kept = set(df["catchment_id"])
    return {
        **stats,
        "kept_ids": sorted(kept),
        "dropped_by_filter": stats["initial_geoms"] - stats["final_geoms"],
        "consistent": stats["final_geoms"] == len(kept),
    }


# ---------------------------------------------------------------------------
# J6 + O3: kNN via cell-ring expansion


def _haversine_m(lon1, lat1, lon2, lat2):
    R = 6371008.8
    p1, p2 = np.deg2rad(lat1), np.deg2rad(lat2)
    dphi = p2 - p1
    dlmb = np.deg2rad(lon2 - lon1)
    a = np.sin(dphi / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlmb / 2) ** 2
    return 2 * R * np.arcsin(np.sqrt(np.clip(a, 0, 1)))


_KNN_COLS = ["image_id", "centroid_lon", "centroid_lat"]


def _knn_score(t: pa.Table, lon: float, lat: float) -> pd.DataFrame:
    df = t.to_pandas()
    d = _haversine_m(lon, lat, t.column("centroid_lon").to_numpy(),
                     t.column("centroid_lat").to_numpy())
    df["dist_m"] = d
    df["dist_mi"] = np.round(d).astype(np.int64)  # whole-meter key: dtype-
    # portable across engines (an SQL oracle's libm may differ by an ulp)
    return df


def _knn_topk(pool: pd.DataFrame, k: int) -> pd.DataFrame:
    # total order (rounded meters, id) — deterministic and identical to
    # the oracle's ORDER BY dist_mi, image_id
    return pool.sort_values(["dist_mi", "image_id"], kind="stable").head(k)


@ray.remote(num_cpus=0.5)
def _knn_fetch_topk(files: list, lon: float, lat: float, k: int,
                    filesystem) -> pd.DataFrame:
    """Remote per-file-group fetch+score+local-top-k: the driver
    receives ≤k slim rows per group, never a dense cell's full columns
    (VERDICT r3 minor finding: caps driver exposure in megacity cells)."""
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    t = pq.read_table(files, columns=_KNN_COLS, filesystem=filesystem,
                      use_threads=False)
    return _knn_topk(_knn_score(t, lon, lat), k)


# driver-side fetch bound: ≤ this many slim 5-column rows (~5 MB) may
# be read directly on the driver — below it the remote task round-trip
# (~10 ms/ring) dominates an interactive query; above it the fetch
# distributes so a dense megacity cell never lands in driver memory
KNN_DRIVER_ROWS_MAX = 100_000


def _fetch_topk(files: list, lon: float, lat: float, k: int,
                filesystem, chunk: int = 4,
                known_rows: "int | None" = None) -> pd.DataFrame:
    if known_rows is not None and known_rows <= KNN_DRIVER_ROWS_MAX:
        t = pq.read_table(files, columns=_KNN_COLS, filesystem=filesystem)
        return _knn_topk(_knn_score(t, lon, lat), k)
    refs = [_knn_fetch_topk.remote(files[i:i + chunk], lon, lat, k,
                                   filesystem)
            for i in range(0, len(files), chunk)]
    return pd.concat(ray.get(refs), ignore_index=True)


def knn_query(index_dir: str, lon: float, lat: float, k: int,
              cfg: EngineConfig = DEFAULT,
              stats: dict | None = None,
              filesystem=None) -> pd.DataFrame:
    """k nearest footprints (centroid great-circle distance) to a point.

    Fast path: BFS ring expansion over S2 partition cells from the
    query cell (north rule "kNN nearest-tile search via cell-ring
    expansion"). Every partition file is opened AT MOST ONCE: each ring
    reads only files not yet seen and folds them into a running top-k
    pool (the prior r1 version re-read all accumulated files per ring —
    O(r²) amplification). Correctness arbiter: once ≥k candidates
    exist with k-th rounded distance m_k, one conservative bbox fetch
    at radius m_k+1 m — dlon uses the MINIMUM cos(lat) over the whole
    [lat−dlat, lat+dlat] band, so the fetch can't miss poleward
    candidates at any radius — reads only still-unseen files. Sparse-
    region fallback is a DISTRIBUTED scan (map_batches local top-k +
    tiny driver merge), never a driver-side full read. All per-ring and
    guard fetches run as remote per-file-group score+top-k tasks, so
    the driver only ever merges ≤k rows per group — a dense megacity
    cell never lands its full slim columns in driver memory.

    ``stats`` (optional) collects {"files_opened": [...], "rings": n}
    for read-amplification tests."""
    man = Manifest(index_dir, filesystem=filesystem)
    level = cfg.part_level
    # per-file row counts from partition stats: lets the fetch prove a
    # ring's rows are few enough for a bounded driver read (fast path)
    # without opening any file
    from ..state.fsio import FS as _FS
    _rows_of = {_FS.join(index_dir, p.path): p.row_count
                for p in man._stats_arrays()[0]}  # cached — no 2nd
    # full manifest parse per query (review r4 finding)
    start = s2.lonlat_to_cell(np.array([lon]), np.array([lat]), level)
    seen_cells: set[int] = set()
    seen_files: set[str] = set()
    opened: list[str] = []
    # typed empty seed — an untyped (object) dist_mi column would make
    # the running top-k sort LEXICOGRAPHIC after the first concat
    pool = pd.DataFrame({"image_id": pd.Series([], dtype=object),
                         "centroid_lon": pd.Series([], dtype=np.float64),
                         "centroid_lat": pd.Series([], dtype=np.float64),
                         "dist_m": pd.Series([], dtype=np.float64),
                         "dist_mi": pd.Series([], dtype=np.int64)})
    frontier = start.astype(np.uint64)
    rings = 0
    while True:
        new_cells = {int(c) for c in frontier} - seen_cells
        if not new_cells:
            break  # BFS covered the sphere without k candidates
        rings += 1
        seen_cells |= new_cells
        new_files = [f for f in man.files_for_cells(index_dir, new_cells)
                     if f not in seen_files]
        if new_files:
            seen_files.update(new_files)
            opened.extend(new_files)
            part = _fetch_topk(new_files, lon, lat, k, filesystem,
                               known_rows=sum(_rows_of.get(f, 1 << 40)
                                              for f in new_files))
            pool = _knn_topk(pd.concat([pool, part], ignore_index=True), k)
        if len(pool) >= k:
            break
        frontier = np.unique(s2.neighbors(np.array(sorted(seen_cells), dtype=np.uint64), level))
    if len(pool) < k:
        # sparse region: distributed scan over everything not yet read
        rest = [f for f in man.all_files(index_dir) if f not in seen_files]
        if rest:
            opened.extend(rest)
            ds = ray.data.read_parquet(rest, columns=_KNN_COLS,
                                       filesystem=filesystem)

            def local_topk(t: pa.Table) -> pa.Table:
                df = _knn_topk(_knn_score(t, lon, lat), k)
                return pa.Table.from_pandas(df, preserve_index=False)

            parts = ds.map_batches(local_topk, batch_format="pyarrow").to_pandas()
            pool = _knn_topk(pd.concat([pool, parts], ignore_index=True), k)
        if stats is not None:
            stats.update({"files_opened": opened, "rings": rings})
        return pool.reset_index(drop=True)
    # exactness guard: conservative bbox fetch at radius kth-dist + 1 m
    dk = float(pool["dist_mi"].iloc[-1]) + 1.0
    dlat = dk / 110574.0 * 1.01 + 1e-9
    band = np.deg2rad(np.array([abs(lat) + dlat, 89.0]))
    min_cos = max(float(np.cos(band.min())) if abs(lat) + dlat < 89.0 else 0.01, 0.01)
    dlon = dk / (111320.0 * min_cos) * 1.01 + 1e-9
    verify = man.files_for_bbox(index_dir, lon - dlon, lat - dlat, lon + dlon, lat + dlat)
    extra = [f for f in verify if f not in seen_files]
    if extra:
        seen_files.update(extra)
        opened.extend(extra)
        part = _fetch_topk(extra, lon, lat, k, filesystem,
                           known_rows=sum(_rows_of.get(f, 1 << 40)
                                          for f in extra))
        pool = _knn_topk(pd.concat([pool, part], ignore_index=True), k)
    if stats is not None:
        stats.update({"files_opened": opened, "rings": rings})
    return pool.reset_index(drop=True)


# ---------------------------------------------------------------------------
# J7: zonal raster↔vector join (co-partitioned, salted)


def lattice_cover(minx: np.ndarray, miny: np.ndarray,
                  maxx: np.ndarray, maxy: np.ndarray,
                  level: int) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized per-row lattice coverings of many small bboxes.

    Returns (row_idx, cell) arrays, deduped per row. ZERO pad: the
    shared-cell guarantee needs only that both coverings contain the
    cell of the canonical point p = (max(minx_a, minx_b),
    max(miny_a, miny_b)), and floor(p/δ) lies in
    [floor(minx/δ), floor(maxx/δ)] for BOTH sides by monotonicity —
    exactly, because δ = 45/2^level is dyadic, so k·δ and k·δ/δ
    round-trip without error. (A ±δ pad here multiplied candidate
    pairs ~12× for nothing.) Property-tested against boundary-aligned
    bboxes in tests/test_query.py."""
    if len(minx) == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    delta = 45.0 / (1 << level)
    k0x = np.floor(minx / delta).astype(np.int64)
    k1x = np.floor(maxx / delta).astype(np.int64)
    k0y = np.floor(np.maximum(miny, -89.99) / delta).astype(np.int64)
    k1y = np.floor(np.minimum(maxy, 89.99) / delta).astype(np.int64)
    nx = k1x - k0x + 1
    ny = k1y - k0y + 1
    counts = nx * ny
    total = int(counts.sum())
    row_idx = np.repeat(np.arange(len(minx)), counts)
    # within-row flat offset → (ix, iy)
    offs = np.arange(total) - np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
    ix = offs % np.repeat(nx, counts)
    iy = offs // np.repeat(nx, counts)
    lons = (np.repeat(k0x, counts) + ix) * delta
    lats = np.clip((np.repeat(k0y, counts) + iy) * delta, -89.999, 89.999)
    cells = s2.lonlat_to_cell(lons, lats, level)
    # dedup (row, cell)
    order = np.lexsort((cells, row_idx))
    ri, ci = row_idx[order], cells[order]
    keep = np.concatenate([[True], (ri[1:] != ri[:-1]) | (ci[1:] != ci[:-1])])
    return ri[keep], ci[keep]


def canonical_cell(ix: np.ndarray, iy: np.ndarray, level: int) -> np.ndarray:
    """Cell of the canonical lattice point at/below the bbox-intersection
    corner (ix, iy) = (max of minxs, max of minys) — the single cell both
    zero-pad coverings provably share for an intersecting pair."""
    delta = 45.0 / (1 << level)
    px = np.floor(ix / delta) * delta
    py = np.floor(iy / delta) * delta
    return s2.lonlat_to_cell(px, np.clip(py, -89.999, 89.999), level)


# prepare-once cache (ST2): the broadcast catalog index is immutable per
# (catalog file state, level) — repeated zonal queries in one driver
# session reuse the object-store ref instead of re-preparing
_ZONAL_BCAST_CACHE: dict = {}


def _catalog_state(path: str, filesystem=None) -> tuple:
    """(path, mtime, size) fingerprint of a catalog file or dir."""
    if filesystem is not None:
        from pyarrow import fs as pafs
        info = filesystem.get_file_info(path)
        if info.type == pafs.FileType.Directory:
            sel = pafs.FileSelector(path, recursive=True)
            parts = tuple(sorted(
                (fi.path, fi.mtime_ns, fi.size)
                for fi in filesystem.get_file_info(sel)
                if fi.type == pafs.FileType.File))
            return (path, parts)
        return (path, info.mtime_ns, info.size)
    p = os.path.abspath(path)
    if os.path.isdir(p):
        parts = tuple(sorted(
            (os.path.join(r, f), os.path.getmtime(os.path.join(r, f)),
             os.path.getsize(os.path.join(r, f)))
            for r, _, fs in os.walk(p) for f in fs))
        return (p, parts)
    return (p, os.path.getmtime(p), os.path.getsize(p))


def _pack_catalog(rag_all: "wkb.Ragged") -> dict:
    """Flatten a multi-geometry Ragged into the zero-copy broadcast
    catalog: per-geometry bounds/area plus ONE global edge array
    (start, end rows) with per-geometry offsets. Everything is a plain
    numpy array, so each actor's ``ray.get`` is a zero-copy plasma
    view — no per-polygon pickles to deserialize per actor per call
    (the r3 zonal-scaling fix: per-actor catalog unpickling multiplied
    with pool size and serialized the 4→16-CPU legs)."""
    c = rag_all.coords
    ro = rag_all.ring_coord_off.astype(np.int64)
    po = rag_all.part_ring_off.astype(np.int64)
    go = rag_all.geom_part_off.astype(np.int64)
    # edge starts = every coord index except each ring's last.
    # Degenerate rings stay correct: a 1-coord ring excludes its own
    # single index; a 0-coord ring's (e-1) is the previous ring's last
    # index, which that ring's own rule already excluded.
    valid = np.ones(max(len(c) - 1, 0), dtype=bool)
    last = ro[1:] - 1
    valid[last[last < len(valid)]] = False
    starts = np.flatnonzero(valid)
    # per-geometry edge offsets via per-ring edge counts (len-1, >=0)
    ring_edges = np.maximum(np.diff(ro) - 1, 0)
    ce = np.concatenate([[0], np.cumsum(ring_edges)]).astype(np.int64)
    edge_off = ce[po[go]]
    return {"coords": c, "ring_off": ro, "part_off": po, "geom_off": go,
            "bounds": geom.bounds(rag_all), "area": geom.area(rag_all),
            "e1": c[starts], "e2": c[starts + 1], "edge_off": edge_off}


def _zonal_join_broadcast(foot: ray.data.Dataset, catchments_path: str,
                          level: int, filesystem=None,
                          pool_hint: int = 0) -> ray.data.Dataset:
    """Broadcast spatial join — the NO-SHUFFLE zonal path.

    When the catchment catalog fits the broadcast budget, there is no
    reason to move the footprints at all: the catalog's covering-cell
    index and geometry store (flat numpy arrays — zero-copy through
    the object store) broadcast once, and ONE map_batches over the
    footprint table looks up candidates locally and runs the exact
    predicate. Pair dedup is intra-batch (each footprint row lives in
    exactly one batch), so the canonical-cell machinery of the shuffle
    path is unnecessary. Index files are cell-partitioned, so batches
    are spatially local and each task touches few polygons."""
    # include the Ray session in the key: an ObjectRef from a previous
    # ray.init() is dead after shutdown/re-init and must not be served.
    # The job id alone restarts at 01000000 in every fresh local cluster,
    # whose node id is new; a driver reconnecting to a running cluster
    # gets a new job id on the same node.
    _rc = ray.get_runtime_context()
    _session = (_rc.get_job_id(), _rc.get_node_id())
    _cache_key = (_catalog_state(catchments_path, filesystem), level,
                  _session)
    _cached = _ZONAL_BCAST_CACHE.get(_cache_key)
    if _cached is not None:
        return _zonal_join_broadcast_map(foot, _cached, pool_hint)

    _cat_tbl = pq.read_table(catchments_path,
                             columns=["catchment_id", "geometry"],
                             filesystem=filesystem)
    cids = _cat_tbl.column("catchment_id").to_pylist()
    blobs = _cat_tbl.column("geometry").to_pylist()

    @ray.remote(num_cpus=1)
    def _prep_chunk(blobs_c: list) -> tuple:
        """Reprojected chunk geometry + the padded covering bbox per
        blob — ONE vectorized decode/reproject pass over the whole
        chunk serves both (per-blob decode dominated before)."""
        rag5070_all = wkb.decode(blobs_c)
        b = geom.bounds(rag5070_all)
        xs = np.stack([b[:, 0], b[:, 2], b[:, 0], b[:, 2]], axis=1)
        ys = np.stack([b[:, 1], b[:, 1], b[:, 3], b[:, 3]], axis=1)
        lons, lats = proj.albers_to_lonlat(xs.ravel(), ys.ravel())
        lons = lons.reshape(-1, 4)
        lats = lats.reshape(-1, 4)
        pad = 0.05
        bbox = np.stack([lons.min(axis=1) - pad, lats.min(axis=1) - pad,
                         lons.max(axis=1) + pad, lats.max(axis=1) + pad], axis=1)
        lon, lat = proj.albers_to_lonlat(rag5070_all.coords[:, 0],
                                         rag5070_all.coords[:, 1])
        coords = np.stack([lon, lat], axis=1)
        return (coords, rag5070_all.ring_coord_off,
                rag5070_all.part_ring_off, rag5070_all.geom_part_off,
                bbox)

    step = max(1, (len(blobs) + 63) // 64)
    futs = [_prep_chunk.remote(blobs[i:i + step])
            for i in range(0, len(blobs), step)]
    chunks = ray.get(futs)
    # concatenate the chunk raggeds into ONE catalog ragged (offset
    # arrays shift by the running coord/ring/part totals)
    coords_l, ring_l, part_l, geom_l, bboxes = [], [[0]], [[0]], [[0]], []
    cb = rb = pb = 0
    for coords, ro, po, go, bbox in chunks:
        coords_l.append(coords)
        ring_l.append(ro[1:].astype(np.int64) + cb)
        part_l.append(po[1:].astype(np.int64) + rb)
        geom_l.append(go[1:].astype(np.int64) + pb)
        cb += len(coords)
        rb += len(ro) - 1
        pb += len(po) - 1
        bboxes.append(bbox)
    rag_all = wkb.Ragged(
        np.concatenate(coords_l) if coords_l else np.empty((0, 2)),
        np.concatenate(ring_l).astype(np.int64),
        np.concatenate(part_l).astype(np.int64),
        np.concatenate(geom_l).astype(np.int64))
    bb = (np.concatenate(bboxes) if bboxes
          else np.empty((0, 4), dtype=np.float64))
    ci, cc = lattice_cover(bb[:, 0], bb[:, 1], bb[:, 2], bb[:, 3], level)
    o = np.argsort(cc, kind="stable")
    cc_s, ci_s = cc[o], ci[o].astype(np.int64)
    ucell, ustart = np.unique(cc_s, return_index=True)
    uoff = np.append(ustart, len(cc_s)).astype(np.int64)
    idx_ref = ray.put((ucell, uoff, ci_s, np.array(cids, dtype=object),
                       _pack_catalog(rag_all)))
    cached = (idx_ref, level)
    while len(_ZONAL_BCAST_CACHE) >= 4:  # bound pinned object-store refs
        _ZONAL_BCAST_CACHE.pop(next(iter(_ZONAL_BCAST_CACHE)))
    _ZONAL_BCAST_CACHE[_cache_key] = cached
    return _zonal_join_broadcast_map(foot, cached, pool_hint)


_ZONAL_OUT = pa.schema([("image_id", pa.string()), ("catchment_id", pa.string())])


class ZonalBroadcastJoiner:
    """Per-worker state of the broadcast spatial join's task map
    (``_zonal_join_broadcast_map`` caches one per worker process): the
    broadcast catalog (flat numpy arrays) is fetched ONCE in __init__
    as zero-copy plasma views, and each catchment's PreparedPolygon is
    materialized at most once per worker as pure ARRAY VIEWS into the
    shared catalog — no pickle bytes anywhere (the r2
    per-(catchment,batch) unpickle fix, upgraded in r3 after the
    4→16-CPU scaling probe showed per-actor deserialization
    serializing the join)."""

    def __init__(self, idx_ref, level):
        (self.ucell, self.uoff, self.cat_of,
         self.cid_arr, pk) = ray.get(idx_ref)
        self.level = level
        self.rag = wkb.Ragged(pk["coords"], pk["ring_off"],
                              pk["part_off"], pk["geom_off"])
        self.bounds_arr = pk["bounds"]
        self.area_arr = pk["area"]
        self.e1_all, self.e2_all = pk["e1"], pk["e2"]
        self.edge_off = pk["edge_off"]
        self._pcache: dict = {}
        self.n_unpickles = 0  # test hook: one per (actor, catchment)

    def _prep(self, c: int):
        p = self._pcache.get(c)
        if p is None:
            self.n_unpickles += 1
            g = self.rag.geom_slice(c)
            p = geom.PreparedPolygon.__new__(geom.PreparedPolygon)
            p.geom = g
            p.bounds = self.bounds_arr[c]
            p.area = float(self.area_arr[c])
            s, e = self.edge_off[c], self.edge_off[c + 1]
            p.e1 = self.e1_all[s:e]
            p.e2 = self.e2_all[s:e]
            p.vx = g.coords[:, 0]
            p.vy = g.coords[:, 1]
            self._pcache[c] = p
        return p

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or len(self.ucell) == 0:
            return _ZONAL_OUT.empty_table()
        ucell, uoff, cat_of, cid_arr = \
            self.ucell, self.uoff, self.cat_of, self.cid_arr
        minx = t.column("minx").to_numpy()
        miny = t.column("miny").to_numpy()
        maxx = t.column("maxx").to_numpy()
        maxy = t.column("maxy").to_numpy()
        ri, cells = lattice_cover(minx, miny, maxx, maxy, self.level)
        pos = np.minimum(np.searchsorted(ucell, cells), len(ucell) - 1)
        ok = ucell[pos] == cells
        ri, pos = ri[ok], pos[ok]
        cnt = uoff[pos + 1] - uoff[pos]
        total = int(cnt.sum())
        if total == 0:
            return _ZONAL_OUT.empty_table()
        rows = np.repeat(ri, cnt)
        offs = np.arange(total) - np.repeat(np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt)
        cat_i = cat_of[np.repeat(uoff[pos], cnt) + offs]
        # dedup (row, catchment) — a pair can repeat across shared cells
        key = rows.astype(np.uint64) * np.uint64(len(cid_arr)) + cat_i.astype(np.uint64)
        _, ku = np.unique(key, return_index=True)
        rows, cat_i = rows[ku], cat_i[ku]
        o2 = np.argsort(cat_i, kind="stable")
        rows, cat_i = rows[o2], cat_i[o2]
        img = t.column("image_id").to_numpy()
        out_img: list = []
        out_cid: list = []
        bnd = np.flatnonzero(np.diff(cat_i)) + 1
        for s, e in zip(np.concatenate([[0], bnd]),
                        np.concatenate([bnd, [len(cat_i)]])):
            c = int(cat_i[s])
            prep = self._prep(c)
            rr = rows[s:e]
            rel = geom.rects_vs_polygon(minx[rr], miny[rr], maxx[rr], maxy[rr], prep)
            hits = rr[rel["intersects"]]
            out_img.extend(img[hits].tolist())
            out_cid.extend([cid_arr[c]] * len(hits))
        return pa.table({"image_id": pa.array(out_img, pa.string()),
                         "catchment_id": pa.array(out_cid, pa.string())},
                        schema=_ZONAL_OUT)


_WORKER_ZONAL_CACHE: dict = {}


def _zonal_join_broadcast_map(foot: ray.data.Dataset, cached: tuple,
                              pool_hint: int = 0) -> ray.data.Dataset:
    """The map stage of the broadcast spatial join over a (possibly
    cached) broadcast catalog index.

    This is a TASK-pool map, not an actor pool: a broadcast-read-only
    stage needs no per-actor identity, and with the packed zero-copy
    catalog the "setup" is one plasma-view ``ray.get`` — cheap enough
    to do lazily per worker PROCESS (module-global cache keyed by the
    broadcast ref, so long-lived Ray workers pay it once). Tasks fuse
    with the upstream ReadParquet, which removes the two failure modes
    measured with pools here: an autoscaling pool never reached full
    width inside a seconds-long join (raw 0.50 scaling, 4→16 CPUs),
    and a fixed pool either starved the single upstream read slot or —
    when sized to every CPU — deadlocked the pipeline outright."""
    idx_ref, level = cached

    def join_fn(t: pa.Table) -> pa.Table:
        key = (idx_ref.hex() if hasattr(idx_ref, "hex") else id(idx_ref),
               level)
        st = _WORKER_ZONAL_CACHE.get(key)
        if st is None:
            while len(_WORKER_ZONAL_CACHE) >= 2:  # bound worker memory
                _WORKER_ZONAL_CACHE.pop(next(iter(_WORKER_ZONAL_CACHE)))
            st = _WORKER_ZONAL_CACHE[key] = ZonalBroadcastJoiner(
                idx_ref, level)
        return st(t)

    return foot.map_batches(join_fn, batch_format="pyarrow",
                            zero_copy_batch=True)


def zonal_join(index_dir: str, catchments_path: str,
               cfg: EngineConfig = DEFAULT,
               filesystem=None,
               skew_stats: "dict | None" = None) -> ray.data.Dataset:
    """Assign every footprint to every intersecting catchment polygon.

    Both sides explode to lattice covering cells at ONE fixed level
    (cfg.zonal_join_level — the shared-cell guarantee requires it, see
    s2.cover_bbox), shuffle once on the cell key, and run the exact
    rect×polygon test per co-group. Extras vs a naive join:

    - hot-cell salting (SURVEY.md §4 skew): a cheap count pre-pass over
      footprint cells finds cells > salt_hot_factor × mean; footprints
      in those cells split into salt_buckets sub-keys and the (small)
      catchment side replicates into each, so no single group dwarfs
      the rest — the reference has no answer to this (its res-1
      centroid partitions concentrate whole regions, load.py:164-168).
    - shared-cell dedup WITHOUT a second shuffle: a pair overlapping
      many cells is emitted only by the canonical cell — the cell of
      the deterministic lattice point inside the bbox intersection —
      which both sides' coverings provably contain.

    Returns Dataset[(image_id, catchment_id)] (+ catchment h3_index).
    """
    from ..relational import cogroup_apply
    from ..state.fsio import FS

    level = cfg.zonal_join_level
    man = Manifest(index_dir, filesystem=filesystem)
    files = man.all_files(index_dir)
    foot = ray.data.read_parquet(files,
                                 columns=["image_id", "minx", "miny",
                                          "maxx", "maxy"],
                                 filesystem=filesystem)

    # broadcast-sized catalog → the no-shuffle broadcast spatial join;
    # the salted co-group shuffle below is the big-catalog path
    io = FS(filesystem)
    if filesystem is not None:
        _walk = io.walk_files(catchments_path)
        _cat_bytes = (sum(io.size(f) for f in _walk) if _walk
                      else io.size(catchments_path))
    else:
        _cat_bytes = sum(
            os.path.getsize(os.path.join(r, f)) for r, _, fs in
            os.walk(catchments_path) for f in fs) \
            if os.path.isdir(catchments_path) \
            else os.path.getsize(catchments_path)
    if _cat_bytes <= cfg.zonal_broadcast_bytes:
        return _zonal_join_broadcast(foot, catchments_path, level,
                                     filesystem=filesystem,
                                     pool_hint=len(files))

    def explode_foot(t: pa.Table) -> pa.Table:
        idx, cells = lattice_cover(t.column("minx").to_numpy(),
                                   t.column("miny").to_numpy(),
                                   t.column("maxx").to_numpy(),
                                   t.column("maxy").to_numpy(), level)
        base = t.take(pa.array(idx))
        return pa.table({
            "cell": pa.array(cells, pa.uint64()),
            "salt": pa.array(np.zeros(len(idx), dtype=np.int32), pa.int32()),
            "image_id": base.column("image_id"),
            "minx": base.column("minx"), "miny": base.column("miny"),
            "maxx": base.column("maxx"), "maxy": base.column("maxy"),
        })

    foot_exploded = foot.map_batches(explode_foot, batch_format="pyarrow",
                                     zero_copy_batch=True).materialize()
    # ^ materialized: reused by the count pre-pass AND the join (slim
    #   key rows only — the heavy image bytes never reach this stage)

    # --- skew pre-pass: per-cell footprint counts. One lightweight Ray
    # task per already-materialized block emits its partial (cell, n)
    # dict; the driver merges O(#cells) partials — same scale shape as a
    # grouped_agg shuffle, without paying a full Dataset execution's
    # fixed cost just to find hot cells. --------------------------------

    @ray.remote(num_cpus=0.5)
    def _partial_counts(block: pa.Table) -> dict:
        c, n = np.unique(block.column("cell").to_numpy(), return_counts=True)
        return dict(zip(c.tolist(), n.tolist()))

    merged: dict = {}
    for part in ray.get([_partial_counts.remote(r)
                         for r in foot_exploded.to_arrow_refs()]):
        for k, v in part.items():
            merged[k] = merged.get(k, 0) + v
    cnt = np.array(list(merged.values()), dtype=np.int64)
    mean = max(cnt.mean(), 1.0) if len(cnt) else 1.0
    hot = {int(c) for c, v in merged.items() if v > cfg.salt_hot_factor * mean}
    hot_ref = ray.put(np.array(sorted(hot), dtype=np.uint64))
    S = cfg.salt_buckets

    NB = cfg.zonal_buckets
    from ..sources.synth import splitmix64

    def _bucket_col(cells: np.ndarray, salt: np.ndarray) -> pa.Array:
        with np.errstate(over="ignore"):
            h = splitmix64(cells.astype(np.uint64)
                           ^ (salt.astype(np.uint64) * np.uint64(0x9E3779B9)))
        return pa.array((h % np.uint64(NB)).astype(np.int32))

    def salt_foot(t: pa.Table) -> pa.Table:
        """Salt hot cells AND assign the co-group bucket in one fused
        stage (each extra chained operator costs real wall time)."""
        if t.num_rows == 0:
            return t.append_column("__bucket", pa.array([], pa.int32()))
        hots = ray.get(hot_ref)
        cells = t.column("cell").to_numpy()
        salt = t.column("salt").to_numpy()
        mask = np.isin(cells, hots) if len(hots) else np.zeros(len(cells), bool)
        if mask.any():
            # deterministic salt from the image row index (splitmix64)
            idx = pc.cast(pc.utf8_slice_codeunits(t.column("image_id"), 4, 99),
                          pa.int64()).to_numpy()
            salt = salt.copy()
            salt[mask] = (splitmix64(idx[mask].astype(np.uint64)) % np.uint64(S)).astype(np.int32)
            t = t.set_column(t.schema.get_field_index("salt"), "salt",
                             pa.array(salt, pa.int32()))
        return t.append_column("__bucket", _bucket_col(cells, salt))

    foot_salted = foot_exploded.map_batches(salt_foot, batch_format="pyarrow")

    if skew_stats is not None:
        # opt-in diagnostics (skew tests / NOTES evidence): per-cell
        # rows BEFORE salting vs per-(cell, salt) group rows AFTER —
        # the pre-pass must bound the biggest co-group, not just find
        # hot cells. Costs one extra slim-row pass; never on by default.
        skew_stats["n_hot_cells"] = len(hot)
        skew_stats["max_cell_rows"] = int(cnt.max()) if len(cnt) else 0
        skew_stats["mean_cell_rows"] = float(mean)
        _fs_mat = foot_salted.materialize()

        @ray.remote(num_cpus=0.5)
        def _group_counts(block: pa.Table) -> dict:
            cc = block.column("cell").to_numpy()
            ssalt = block.column("salt").to_numpy()
            out: dict = {}
            kk, nn = np.unique(
                np.stack([cc.astype(np.int64), ssalt.astype(np.int64)]),
                axis=1, return_counts=True)
            for (c_, s_), n_ in zip(kk.T.tolist(), nn.tolist()):
                out[(int(c_), int(s_))] = int(n_)
            return out

        _m2: dict = {}
        for part in ray.get([_group_counts.remote(r)
                             for r in _fs_mat.to_arrow_refs()]):
            for k_, v_ in part.items():
                _m2[k_] = _m2.get(k_, 0) + v_
        skew_stats["max_group_rows"] = max(_m2.values()) if _m2 else 0
        foot_salted = _fs_mat

    def cat_rows(cells, salt, cids, blobs) -> pa.Table:
        return pa.table({"cell": pa.array(cells, pa.uint64()),
                         "salt": pa.array(salt, pa.int32()),
                         "catchment_id": pa.array(cids, pa.string()),
                         "geometry": pa.array(blobs, pa.binary()),
                         "__bucket": _bucket_col(cells, salt)})

    def explode_cat(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return cat_rows(np.empty(0, np.uint64), np.empty(0, np.int32),
                            [], [])
        hots = set(int(c) for c in ray.get(hot_ref))
        blobs = [t.column("geometry")[i].as_py() for i in range(t.num_rows)]
        cids = t.column("catchment_id").to_pylist()
        rag = wkb.decode(blobs)
        b = geom.bounds(rag)
        # catchment geometry is EPSG:5070 → 4326 bbox via the 4 corners,
        # padded for projection-arc curvature (conservative at catchment
        # extents; the exact test in the join removes false positives)
        xs = np.stack([b[:, 0], b[:, 2], b[:, 0], b[:, 2]], axis=1)
        ys = np.stack([b[:, 1], b[:, 1], b[:, 3], b[:, 3]], axis=1)
        lons, lats = proj.albers_to_lonlat(xs.ravel(), ys.ravel())
        lons = lons.reshape(-1, 4)
        lats = lats.reshape(-1, 4)
        pad = 0.05
        bminx = lons.min(axis=1) - pad
        bminy = lats.min(axis=1) - pad
        bmaxx = lons.max(axis=1) + pad
        bmaxy = lats.max(axis=1) + pad
        idx, cells = lattice_cover(bminx, bminy, bmaxx, bmaxy, level)
        # replicate rows that land on hot cells into all salt buckets
        is_hot = np.array([int(c) in hots for c in cells]) if hots else np.zeros(len(cells), bool)
        rep = np.where(is_hot, S, 1)
        idx = np.repeat(idx, rep)
        cells = np.repeat(cells, rep)
        salt_col = np.concatenate([np.arange(r, dtype=np.int32) for r in rep]) if len(rep) else np.array([], dtype=np.int32)
        return cat_rows(cells, salt_col, [cids[i] for i in idx],
                        [blobs[i] for i in idx])

    cat = ray.data.read_parquet(catchments_path,
                                columns=["catchment_id", "geometry"],
                                filesystem=filesystem)
    cat_exploded = cat.map_batches(explode_cat, batch_format="pyarrow")

    # co-group: footprint and catalog rows carry their own slim columns
    # and bucket = hash(cell, salt) % NB (assigned inside the explode/salt
    # stages — no extra chained operator); relational.cogroup_apply ships
    # both as per-bucket Arrow IPC payloads in ONE shuffle and calls
    # pair_fn once per bucket. Inside a bucket, a pandas merge on (cell,
    # salt) IS the co-group, and grouping its candidates by catchment
    # lets every polygon run ONE rects_vs_polygon call over all its
    # candidate rects (per-call numpy fixed cost dominated before)
    _OUT_EMPTY = {"image_id": pd.Series([], dtype=object),
                  "catchment_id": pd.Series([], dtype=object)}

    def pair_fn(ft: "pa.Table | None", ct: "pa.Table | None") -> pd.DataFrame:
        if ft is None or ct is None:
            return pd.DataFrame(_OUT_EMPTY)
        cand = ft.to_pandas().merge(ct.to_pandas(), on=["cell", "salt"])
        if cand.empty:
            return pd.DataFrame(_OUT_EMPTY)
        out_img: list = []
        out_cid: list = []
        # a catchment covers several cells in this bucket — decode +
        # reproject each distinct geometry ONCE per bucket, not per cell
        geo_cache: dict = {}

        def polygon_4326(cid, blob):
            prep = geo_cache.get(cid)
            if prep is None:
                rag5070 = wkb.decode([blob])
                coords = rag5070.coords
                lon, lat = proj.albers_to_lonlat(coords[:, 0], coords[:, 1])
                rag = wkb.Ragged(np.stack([lon, lat], axis=1), rag5070.ring_coord_off,
                                 rag5070.part_ring_off, rag5070.geom_part_off)
                prep = geom.PreparedPolygon(rag)
                geo_cache[cid] = prep
            return prep

        for cid, g in cand.groupby("catchment_id", sort=False):
            prep = polygon_4326(cid, g["geometry"].iloc[0])
            minx = g["minx"].to_numpy()
            miny = g["miny"].to_numpy()
            maxx = g["maxx"].to_numpy()
            maxy = g["maxy"].to_numpy()
            rel = geom.rects_vs_polygon(minx, miny, maxx, maxy, prep)
            hits = np.nonzero(rel["intersects"])[0]
            if len(hits) == 0:
                continue
            # shared-cell dedup: emit only from the canonical cell of
            # the bbox-intersection lattice point (provably in both
            # coverings)
            cb = prep.bounds
            canon = canonical_cell(np.maximum(minx[hits], cb[0]),
                                   np.maximum(miny[hits], cb[1]), level)
            emit = hits[canon == g["cell"].to_numpy().astype(np.uint64)[hits]]
            out_img.extend(g["image_id"].to_numpy()[emit].tolist())
            out_cid.extend([cid] * len(emit))
        return pd.DataFrame({"image_id": out_img, "catchment_id": out_cid})

    return cogroup_apply(foot_salted, cat_exploded, pair_fn)


def zonal_stats(index_dir: str, catchments_path: str,
                cfg: EngineConfig = DEFAULT,
                filesystem=None) -> ray.data.Dataset:
    """Per-zone aggregate over the zonal join (J7's 'aggregate per
    zone'): tiles per catchment + integer-scaled mean pixel level.

    pairs (slim) join back to the footprint features on image_id, then
    a grouped aggregate per catchment — the pixel features came from
    the index (computed once at build), so no image bytes are touched
    here. Adaptive join: when the per-tile feature table is small
    enough to broadcast (manifest row count below the threshold) the
    join is a broadcast lookup inside map_batches; otherwise the
    partitioned hash join."""
    from ..relational import broadcast_join, grouped_agg, hash_join

    pairs = zonal_join(index_dir, catchments_path, cfg,
                       filesystem=filesystem)
    man = Manifest(index_dir, filesystem=filesystem)
    feat_files = man.all_files(index_dir)
    feats = ray.data.read_parquet(feat_files,
                                  columns=["image_id", "pixel_mean"],
                                  filesystem=filesystem)

    def to_milli(t: pa.Table) -> pa.Table:
        v = pc.cast(pc.round(pc.multiply(t["pixel_mean"], 1000.0)), pa.int64())
        return pa.table({"image_id": t["image_id"], "pixel_milli": v})

    feats = feats.map_batches(to_milli, batch_format="pyarrow")
    if man.total_rows() <= 2_000_000:  # slim 2-col table → broadcast fits
        feat_tbl = pa.concat_tables([ray.get(r) for r in feats.to_arrow_refs()])
        joined = broadcast_join(pairs, feat_tbl, keys="image_id")
    else:
        joined = hash_join(pairs, feats, "image_id", how="inner")
    return grouped_agg(joined.select_columns(["catchment_id", "pixel_milli"]),
                       ["catchment_id"], sum_cols=["pixel_milli"])


def zonal_tile_stats(index_dir: str, catchments_path: str,
                     cfg: EngineConfig = DEFAULT,
                     filesystem=None) -> ray.data.Dataset:
    """Per-zone tile count + total pixel count (SUM(w·h)) over the
    zonal join — the SQL-expressible variant of ``zonal_stats`` (w and
    h are catalog columns, so a DuckDB oracle recomputes the aggregate
    exactly; pixel_milli needs decoded pixels and gets the weaker
    rows-only check). Same adaptive broadcast-vs-hash join shape."""
    from ..relational import broadcast_join, grouped_agg, hash_join

    pairs = zonal_join(index_dir, catchments_path, cfg,
                       filesystem=filesystem)
    man = Manifest(index_dir, filesystem=filesystem)
    feats = ray.data.read_parquet(man.all_files(index_dir),
                                  columns=["image_id", "w", "h"],
                                  filesystem=filesystem)

    def to_px(t: pa.Table) -> pa.Table:
        px = pc.multiply(pc.cast(t["w"], pa.int64()), pc.cast(t["h"], pa.int64()))
        return pa.table({"image_id": t["image_id"], "npixels": px})

    feats = feats.map_batches(to_px, batch_format="pyarrow")
    if man.total_rows() <= 2_000_000:
        feat_tbl = pa.concat_tables([ray.get(r) for r in feats.to_arrow_refs()])
        joined = broadcast_join(pairs, feat_tbl, keys="image_id")
    else:
        joined = hash_join(pairs, feats, "image_id", how="inner")
    return grouped_agg(joined.select_columns(["catchment_id", "npixels"]),
                       ["catchment_id"], sum_cols=["npixels"])


def zone_extent(index_dir: str, modulus: int = 16,
                filesystem=None) -> ray.data.Dataset:
    """Per-zone bounding-box aggregate over the footprint index —
    ST_Extent_Agg parity (the reference's viz layer draws per-set
    extents, viz/query_visualization.py:178-240; here the zone is a
    deterministic key partition so the result is SQL-checkable).

    Scale shape: manifest-pruned slim-column read (5 columns leave
    storage), per-batch partial min/max via relational.grouped_agg —
    the exchange moves |zones| partial rows per batch, never
    footprints. min/max of float64 is exact selection (no accumulation
    drift), so the result hashes identically to the oracle."""
    from .. import relational as rel

    man = Manifest(index_dir, filesystem=filesystem)
    files = man.all_files(index_dir)
    foot = ray.data.read_parquet(
        files, columns=["image_id", "minx", "miny", "maxx", "maxy"],
        filesystem=filesystem)

    def zone(t: pa.Table) -> pa.Table:
        k = pc.cast(pc.utf8_slice_codeunits(t["image_id"], 4, 99), pa.int64())
        z = pc.cast(pc.subtract(k, pc.multiply(
            pc.divide(k, pa.scalar(modulus, pa.int64())),
            pa.scalar(modulus, pa.int64()))), pa.int64())
        return pa.table({"zone": z, "minx": t["minx"], "miny": t["miny"],
                         "maxx": t["maxx"], "maxy": t["maxy"]})

    z = foot.map_batches(zone, batch_format="pyarrow", zero_copy_batch=True)
    out = rel.grouped_agg(z, ["zone"], count=True,
                          min_cols=["minx", "miny"], max_cols=["maxx", "maxy"])

    def finish(t: pa.Table) -> pa.Table:
        ren = {"min_minx": "ext_minx", "min_miny": "ext_miny",
               "max_maxx": "ext_maxx", "max_maxy": "ext_maxy",
               "n": "n_images"}
        return t.rename_columns([ren.get(c, c) for c in t.column_names])

    return out.map_batches(finish, batch_format="pyarrow")


def nn_join_centers(index_dir: str, target_mod: int = 8,
                    filesystem=None) -> ray.data.Dataset:
    """Spatial nearest-neighbor JOIN over the footprint index: every
    source footprint (key % target_mod != 0) is matched to the nearest
    target footprint center (key % target_mod == 0) in the exact
    planar degree metric d² = (Δcx)² + (Δcy)² — centers derive from
    the stored bbox as ((minx)+(maxx))/2.0, so the arithmetic is
    bit-identical to the SQL oracle and the argmin is exact (ties →
    smallest target id, which numpy argmin yields for free over
    id-sorted targets).

    Scale shape: the target side broadcasts once via ``ray.put`` as
    flat float64 arrays (the per-query site list is typically ≪
    corpus); sources stream map-only over the manifest-pruned
    5-column read with one vectorized (batch × targets) distance
    block per batch. A corpus-sized target side would swap the
    broadcast for the zonal join's cell co-partition + ring fallback
    (same pattern as knn_query) — documented, not needed for site
    lookup workloads."""
    man = Manifest(index_dir, filesystem=filesystem)
    files = man.all_files(index_dir)
    cols = ["image_id", "minx", "miny", "maxx", "maxy"]
    foot = ray.data.read_parquet(files, columns=cols,
                                 filesystem=filesystem)

    def keys_of(t: pa.Table) -> np.ndarray:
        return pc.cast(pc.utf8_slice_codeunits(t["image_id"], 4, 99),
                       pa.int64()).to_numpy()

    def tgt_part(t: pa.Table) -> pa.Table:
        k = keys_of(t)
        return t.filter(pa.array(k % target_mod == 0))

    tgt = pa.concat_tables(
        foot.map_batches(tgt_part, batch_format="pyarrow",
                         zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow"))
    order = pc.sort_indices(tgt["image_id"])
    tgt = tgt.take(order)
    tcx = (tgt["minx"].to_numpy() + tgt["maxx"].to_numpy()) / 2.0
    tcy = (tgt["miny"].to_numpy() + tgt["maxy"].to_numpy()) / 2.0
    tids = np.asarray(tgt["image_id"].to_pylist(), dtype=object)
    ref = ray.put((tcx, tcy, tids))

    def nearest(t: pa.Table) -> pa.Table:
        cx_t, cy_t, ids_t = ray.get(ref)
        k = keys_of(t)
        keep = k % target_mod != 0
        sub = t.filter(pa.array(keep))
        if sub.num_rows == 0 or len(ids_t) == 0:
            return pa.table({"image_id": pa.array([], pa.string()),
                             "nn_id": pa.array([], pa.string()),
                             "d2": pa.array([], pa.float64())})
        scx = (sub["minx"].to_numpy() + sub["maxx"].to_numpy()) / 2.0
        scy = (sub["miny"].to_numpy() + sub["maxy"].to_numpy()) / 2.0
        dx = scx[:, None] - cx_t[None, :]
        dy = scy[:, None] - cy_t[None, :]
        d2 = dx * dx + dy * dy
        j = np.argmin(d2, axis=1)  # first min = smallest id (sorted)
        return pa.table({
            "image_id": sub["image_id"],
            "nn_id": pa.array(ids_t[j].tolist(), pa.string()),
            "d2": pa.array(d2[np.arange(len(j)), j], pa.float64())})

    return foot.map_batches(nearest, batch_format="pyarrow",
                            zero_copy_batch=True)


def grid_heatmap(index_dir: str, cell_deg: float = 1.0,
                 filesystem=None) -> ray.data.Dataset:
    """Spatial density grid over the footprint index: footprint
    centers binned to a regular lon/lat grid (floor(c / cell)), counts
    per cell — the coverage-heatmap / density-raster primitive.

    Manifest-pruned slim read, per-batch floor-div binning, partial
    counts through the standard grouped_agg exchange (≤ |cells| rows
    per batch)."""
    from .. import relational as rel

    man = Manifest(index_dir, filesystem=filesystem)
    files = man.all_files(index_dir)
    foot = ray.data.read_parquet(
        files, columns=["minx", "miny", "maxx", "maxy"],
        filesystem=filesystem)

    def bins(t: pa.Table) -> pa.Table:
        cx = (t["minx"].to_numpy() + t["maxx"].to_numpy()) / 2.0
        cy = (t["miny"].to_numpy() + t["maxy"].to_numpy()) / 2.0
        return pa.table({
            "gx": pa.array(np.floor(cx / cell_deg).astype(np.int64)),
            "gy": pa.array(np.floor(cy / cell_deg).astype(np.int64))})

    g = foot.map_batches(bins, batch_format="pyarrow", zero_copy_batch=True)
    return rel.grouped_agg(g, ["gx", "gy"], count=True)
