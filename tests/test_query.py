"""Query pipeline tests: bbox scan, ROI queries, attribute join,
per-group sink, kNN, zonal join — each against a brute-force oracle."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from hand_index_ray.config import EngineConfig
from hand_index_ray.kernels import geom, proj, wkb
from hand_index_ray.sources import synth
from hand_index_ray.state.manifest import Manifest

CFG = EngineConfig(decode_batch_size=64,
                   salt_hot_factor=2.0, salt_buckets=4, zonal_join_level=7)


@pytest.fixture(scope="module")
def index_dir(ray_session, smoke_dirs, tmp_path_factory):
    from hand_index_ray.pipelines.build import build_index

    out = str(tmp_path_factory.mktemp("qidx") / "index")
    build_index(smoke_dirs["images"], out, CFG)
    return out


@pytest.fixture(scope="module")
def all_footprints(index_dir):
    man = Manifest(index_dir)
    return pq.read_table(man.all_files(index_dir)).to_pandas()


def test_bbox_scan_exact(index_dir, all_footprints):
    from hand_index_ray.pipelines.query import bbox_scan

    for q in synth.bbox_queries():
        ds = bbox_scan(index_dir, *q)
        got = set() if ds is None else set(ds.to_pandas()["image_id"])
        f = all_footprints
        truth = set(f.loc[(f.minx <= q[2]) & (q[0] <= f.maxx)
                          & (f.miny <= q[3]) & (q[1] <= f.maxy), "image_id"])
        assert got == truth, q


def test_roi_query_footprints_matches_bruteforce(index_dir, all_footprints):
    from hand_index_ray.pipelines.query import roi_query_footprints

    rois = synth.roi_polygons()
    for name in ("huge", "straddle", "many_vertex"):
        ring = rois[name]
        ds = roi_query_footprints(index_dir, ring, threshold_pct=10.0, cfg=CFG)
        got = set() if ds is None else set(ds.to_pandas()["image_id"])
        # brute force with the same kernels over ALL rows (no pruning)
        f = all_footprints
        rag = wkb.from_parts([[[ring]]])
        rel = geom.rects_vs_polygon(f.minx.to_numpy(), f.miny.to_numpy(),
                                    f.maxx.to_numpy(), f.maxy.to_numpy(), rag)
        areas = (f.maxx - f.minx).to_numpy() * (f.maxy - f.miny).to_numpy()
        pct = geom.overlap_stats(areas, rel["inter_area"])
        keep = geom.keep_mask(rel["rect_contains_poly"], rel["rect_within_poly"],
                              pct, 10.0) & rel["intersects"]
        truth = set(f.loc[keep, "image_id"])
        assert got == truth, name


def test_roi_threshold_monotonicity(index_dir):
    from hand_index_ray.pipelines.query import roi_query_footprints

    ring = synth.roi_polygons()["straddle"]
    sizes = []
    kept_prev = None
    for thr in (0.0, 10.0, 50.0, 100.0):
        ds = roi_query_footprints(index_dir, ring, threshold_pct=thr, cfg=CFG)
        kept = set() if ds is None else set(ds.to_pandas()["image_id"])
        if kept_prev is not None:
            assert kept <= kept_prev  # raising threshold never adds rows
        kept_prev = kept
        sizes.append(len(kept))
    assert sizes[0] >= sizes[-1]


def test_roi_query_catchments_reference_semantics(ray_session, smoke_dirs):
    from hand_index_ray.pipelines.query import roi_query_catchments

    cpath = os.path.join(smoke_dirs["vector"], "catchments.parquet")
    ring = synth.roi_polygons()["huge"]
    df, stats = roi_query_catchments(cpath, ring, threshold_pct=10.0, cfg=CFG,
                                     with_stats=True)
    assert stats["initial_geoms"] >= stats["final_geoms"]
    assert stats["final_geoms"] == len(df)
    # oracle: scalar loop over every catchment with the same kernels
    src = pq.read_table(cpath).to_pandas()
    x, y = proj.lonlat_to_albers(ring[:, 0], ring[:, 1])
    roi = wkb.from_parts([[[np.stack([x, y], axis=1)]]])
    rag = wkb.decode(src["geometry"].tolist())
    keep_ids = []
    contains_n = within_n = 0
    for i in range(len(src)):
        if not geom.geom_intersects(rag, i, roi, 0):
            continue
        a = geom.area(rag.geom_slice(i))[0]
        inter = geom.clip_area(roi, 0, rag, i)
        pct = geom.overlap_stats(np.array([a]), np.array([inter]))[0]
        cq = geom.geom_contains(rag, i, roi, 0)
        wq = geom.geom_contains(roi, 0, rag, i)
        contains_n += cq
        within_n += wq
        if cq or wq or pct >= 10.0:
            keep_ids.append(src["catchment_id"].iloc[i])
    assert set(df["catchment_id"]) == set(keep_ids)
    assert stats["contains_count"] == contains_n
    assert stats["within_count"] == within_n


def test_attribute_join_and_per_group_sink(ray_session, smoke_dirs, tmp_path):
    import duckdb

    from hand_index_ray.pipelines.query import (attach_attributes,
                                                load_query_results,
                                                write_per_group)

    vec = smoke_dirs["vector"]
    src = pq.read_table(os.path.join(vec, "catchments.parquet")).to_pandas()
    kept = sorted(src["catchment_id"].head(40).tolist())
    attrs = attach_attributes(kept, vec)
    # oracle: DuckDB 3-way left join (reference query_geojson.py:139-153)
    con = duckdb.connect()
    truth = con.execute(f"""
        SELECT k.catchment_id, h.csv_path,
               r.raster_path AS rem_raster_path,
               c.raster_path AS catchment_raster_path
        FROM (SELECT UNNEST(?) AS catchment_id) k
        LEFT JOIN read_parquet('{vec}/hydrotables.parquet') h USING (catchment_id)
        LEFT JOIN read_parquet('{vec}/rem_rasters.parquet') r USING (catchment_id)
        LEFT JOIN read_parquet('{vec}/catchment_rasters.parquet') c USING (catchment_id)
        ORDER BY catchment_id, csv_path
    """, [kept]).fetch_df()
    got = attrs.to_pandas()
    assert len(got) == len(truth)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).fillna(""),
        truth.reset_index(drop=True).fillna("")[got.columns],
        check_dtype=False)
    # NOTE: reference duplicates hydrotable rows are preserved (no
    # DISTINCT at query time) — the duplicate path rows appear here too.
    outdir = str(tmp_path / "per_group")
    paths = write_per_group(attrs, outdir)
    assert len(paths) == len(kept)
    one = pq.read_table(paths[0]).to_pandas()
    assert "catchment_id" not in one.columns  # id dropped inside file (S8)
    back = load_query_results(outdir).to_pandas()
    assert set(back["catchment_id"]) == set(kept)
    assert len(back) == len(got)


def test_knn_exact(index_dir, all_footprints):
    from hand_index_ray.pipelines.query import _haversine_m, knn_query

    f = all_footprints
    for (lon, lat) in synth.knn_queries():
        for k in (1, 10, 100):
            stats = {}
            got = knn_query(index_dir, lon, lat, k, CFG, stats=stats)
            d = _haversine_m(lon, lat, f["centroid_lon"].to_numpy(),
                             f["centroid_lat"].to_numpy())
            truth = f.assign(dist_mi=np.round(d).astype(np.int64)) \
                .sort_values(["dist_mi", "image_id"]).head(k)
            assert list(got["image_id"]) == list(truth["image_id"]), (lon, lat, k)
            # read-amplification guard: every index file opened at most once
            opened = stats["files_opened"]
            assert len(opened) == len(set(opened)), (lon, lat, k)


@pytest.mark.parametrize("path_kind", ["broadcast", "shuffle"])
def test_zonal_join_matches_bruteforce(ray_session, index_dir, smoke_dirs,
                                       all_footprints, path_kind):
    """Both zonal paths — the no-shuffle broadcast spatial join and the
    salted co-group shuffle (forced via zonal_broadcast_bytes=0) — must
    equal the brute-force pair set exactly."""
    from dataclasses import replace

    from hand_index_ray.pipelines.query import zonal_join

    cfg = CFG if path_kind == "broadcast" else replace(CFG, zonal_broadcast_bytes=0)
    cpath = os.path.join(smoke_dirs["vector"], "catchments.parquet")
    pairs = zonal_join(index_dir, cpath, cfg).to_pandas()
    got = set(zip(pairs["image_id"], pairs["catchment_id"]))
    assert len(got) == len(pairs), "zonal join emitted duplicate pairs"
    # brute force: all footprints × all catchments with the same kernels
    src = pq.read_table(cpath).to_pandas()
    rag5070 = wkb.decode(src["geometry"].tolist())
    f = all_footprints
    truth = set()
    for i in range(len(src)):
        gg = rag5070.geom_slice(i)
        lon, lat = proj.albers_to_lonlat(gg.coords[:, 0], gg.coords[:, 1])
        rag = wkb.Ragged(np.stack([lon, lat], axis=1), gg.ring_coord_off,
                         gg.part_ring_off, gg.geom_part_off)
        rel = geom.rects_vs_polygon(f.minx.to_numpy(), f.miny.to_numpy(),
                                    f.maxx.to_numpy(), f.maxy.to_numpy(), rag)
        for img in f.loc[rel["intersects"], "image_id"]:
            truth.add((img, src["catchment_id"].iloc[i]))
    assert got == truth


@pytest.mark.parametrize("catalog", ["all_miss", "zero_rows"])
def test_zonal_join_empty_result_on_both_routes(ray_session, index_dir,
                                                smoke_dirs, all_footprints,
                                                tmp_path, catalog):
    """A catalog whose polygons all miss the index, and a zero-row
    catalog, give an empty (image_id, catchment_id) result on the
    co-group route and on the broadcast route."""
    from dataclasses import replace

    import pyarrow as pa

    from hand_index_ray.pipelines.query import zonal_join

    src = pq.read_table(os.path.join(smoke_dirs["vector"], "catchments.parquet"))
    if catalog == "zero_rows":
        cat = src.slice(0, 0)
    else:
        # 0.1° boxes in the mid-Atlantic, far from every footprint
        lon0 = -30.0 + 0.2 * np.arange(src.num_rows)
        assert (all_footprints.maxx < -40.0).all()
        x0, y0 = proj.lonlat_to_albers(lon0, np.full(src.num_rows, 40.0))
        x1, y1 = proj.lonlat_to_albers(lon0 + 0.1, np.full(src.num_rows, 40.1))
        boxes = wkb.encode_box(np.minimum(x0, x1), np.minimum(y0, y1),
                               np.maximum(x0, x1), np.maximum(y0, y1))
        cat = src.set_column(src.schema.get_field_index("geometry"), "geometry",
                             pa.array(boxes, src.schema.field("geometry").type))
    cpath = str(tmp_path / f"{catalog}.parquet")
    pq.write_table(cat, cpath)
    for cfg in (replace(CFG, zonal_broadcast_bytes=0), CFG):
        pairs = zonal_join(index_dir, cpath, cfg).to_pandas()
        assert len(pairs) == 0, cfg.zonal_broadcast_bytes
        assert set(pairs.columns) <= {"image_id", "catchment_id"}


def test_zonal_broadcast_path_has_no_shuffle(ray_session, index_dir, smoke_dirs):
    """Scale-design regression guard: the broadcast-regime zonal join
    must be a pure map pipeline — no all-to-all exchange operator
    (Sort / Aggregate / shuffle-repartition) in the executed plan. The
    shuffle would silently reappear if someone reintroduced a groupby
    on the broadcast path."""
    from hand_index_ray.pipelines.query import zonal_join

    cpath = os.path.join(smoke_dirs["vector"], "catchments.parquet")
    ds = zonal_join(index_dir, cpath, CFG)
    assert ds.count() > 0
    stats = ds.stats()
    for marker in ("Sort", "Aggregate", "AllToAll", "RandomShuffle", "Repartition"):
        assert marker not in stats, f"broadcast zonal path gained a {marker} stage:\n{stats[:800]}"


def test_cell_range_scan(index_dir, all_footprints):
    from hand_index_ray.kernels import s2
    from hand_index_ray.pipelines.query import cell_range_scan

    f = all_footprints
    # pick the cell (at a coarser level) of some row's fine key
    fine = np.uint64(f["s2_cell"].iloc[10])
    cell = int(s2.parent(np.array([fine]), 8)[0])
    ds = cell_range_scan(index_dir, cell)
    got = set(ds.to_pandas()["image_id"])
    lo, hi = s2.cell_range(np.array([cell], dtype=np.uint64))
    keys = f["s2_cell"].to_numpy().astype(np.uint64)
    truth = set(f.loc[(keys >= lo[0]) & (keys <= hi[0]), "image_id"])
    assert got == truth and len(got) > 0


def test_hex_cell_stats(index_dir, all_footprints):
    from hand_index_ray.pipelines.query import hex_cell_stats

    out = hex_cell_stats(index_dir, 6).to_pandas()
    assert out["n"].sum() == len(all_footprints)
    truth = all_footprints.groupby("h3_r6").size()
    got = out.set_index("h3_r6")["n"]
    assert got.sort_index().equals(truth.sort_index().rename("n"))


def test_zonal_stats(ray_session, index_dir, smoke_dirs, all_footprints):
    from hand_index_ray.pipelines.query import zonal_join, zonal_stats

    cpath = os.path.join(smoke_dirs["vector"], "catchments.parquet")
    stats = zonal_stats(index_dir, cpath, CFG).to_pandas()
    pairs = zonal_join(index_dir, cpath, CFG).to_pandas()
    truth = pairs.merge(all_footprints[["image_id", "pixel_mean"]], on="image_id")
    truth["pixel_milli"] = np.round(truth["pixel_mean"] * 1000.0).astype(np.int64)
    agg = truth.groupby("catchment_id").agg(n=("image_id", "size"),
                                            pixel_milli=("pixel_milli", "sum"))
    got = stats.set_index("catchment_id").sort_index()
    agg = agg.sort_index()
    assert got["n"].equals(agg["n"])
    assert got["pixel_milli"].equals(agg["pixel_milli"])


def test_roi_query_multi_matches_single(ray_session, index_dir):
    from hand_index_ray.pipelines.query import (roi_query_footprints,
                                                roi_query_footprints_multi)

    rois = {k: v for k, v in synth.roi_polygons().items()
            if k in ("huge", "straddle", "many_vertex")}
    multi = roi_query_footprints_multi(index_dir, rois, threshold_pct=10.0, cfg=CFG)
    mdf = multi.to_pandas()
    for name, ring in rois.items():
        ds = roi_query_footprints(index_dir, ring, threshold_pct=10.0, cfg=CFG)
        single = set() if ds is None else set(ds.to_pandas()["image_id"])
        got = set(mdf.loc[mdf["roi"] == name, "image_id"])
        assert got == single, name


def test_roi_query_degenerate_fixtures(index_dir, all_footprints):
    """FIXTURES F4 edge ROIs: 'tiny' (smaller than any tile) and
    'sliver' (near-zero-area polygon) run through the exact same
    keep-mask semantics without error and match brute force."""
    from hand_index_ray.pipelines.query import roi_query_footprints

    f = all_footprints
    for name in ("tiny", "sliver"):
        ring = synth.roi_polygons()[name]
        ds = roi_query_footprints(index_dir, ring, threshold_pct=10.0, cfg=CFG)
        if ds is None:
            got = set()
        else:
            df = ds.to_pandas()
            got = set(df["image_id"]) if "image_id" in df.columns else set()
        rag = wkb.from_parts([[[ring]]])
        rel = geom.rects_vs_polygon(f.minx.to_numpy(), f.miny.to_numpy(),
                                    f.maxx.to_numpy(), f.maxy.to_numpy(), rag)
        areas = (f.maxx - f.minx).to_numpy() * (f.maxy - f.miny).to_numpy()
        pct = geom.overlap_stats(areas, rel["inter_area"])
        keep = geom.keep_mask(rel["rect_contains_poly"], rel["rect_within_poly"],
                              pct, 10.0) & rel["intersects"]
        assert got == set(f.loc[keep, "image_id"]), name


def test_lattice_cover_shared_cell_invariant_boundary_aligned():
    """Zero-pad covering invariant: for ANY two intersecting bboxes the
    canonical cell lies in BOTH coverings — exercised adversarially with
    edges exactly ON lattice lines, one ulp below, and one ulp above,
    across levels (the dyadic-δ exactness argument this relies on)."""
    import numpy as np

    from hand_index_ray.pipelines.query import canonical_cell, lattice_cover

    rng = np.random.default_rng(7)
    for level in (5, 6, 7, 8, 9):
        delta = 45.0 / (1 << level)
        ks = rng.integers(-800, 800, size=60)
        # corner styles: exact lattice line, one ulp below, one ulp above
        base = ks * delta
        lo = np.nextafter(base, -np.inf)
        hi = np.nextafter(base, np.inf)
        xs = np.concatenate([base, lo, hi])
        xs = xs[(xs > -170 * 1.0) & (xs < 170.0)]
        # build intersecting pairs: a = [x, x+w], b = [x+eps..]
        n = len(xs) - 1
        a_min, a_max = xs[:n], xs[:n] + rng.uniform(0.01, 3.0, n)
        b_min = a_min + rng.uniform(-1.0, 0.9, n) * (a_max - a_min)
        b_max = b_min + rng.uniform(0.01, 3.0, n)
        ay_min = np.clip(xs[1:n + 1], -80, 80)
        ay_max = ay_min + rng.uniform(0.01, 2.0, n)
        by_min = ay_min + rng.uniform(-1.0, 0.9, n) * (ay_max - ay_min)
        by_max = by_min + rng.uniform(0.01, 2.0, n)
        inter = (b_min <= a_max) & (a_min <= b_max) & \
                (by_min <= ay_max) & (ay_min <= by_max)
        idx = np.nonzero(inter)[0]
        canon = canonical_cell(np.maximum(a_min, b_min)[idx],
                               np.maximum(ay_min, by_min)[idx], level)
        ra, ca = lattice_cover(a_min[idx], ay_min[idx], a_max[idx], ay_max[idx], level)
        rb, cb = lattice_cover(b_min[idx], by_min[idx], b_max[idx], by_max[idx], level)
        cov_a = {}
        for r, c in zip(ra, ca):
            cov_a.setdefault(int(r), set()).add(int(c))
        cov_b = {}
        for r, c in zip(rb, cb):
            cov_b.setdefault(int(r), set()).add(int(c))
        for j, cc in enumerate(canon):
            assert int(cc) in cov_a[j], (level, j, "A missing canonical cell")
            assert int(cc) in cov_b[j], (level, j, "B missing canonical cell")


def test_zonal_broadcast_cache_invalidates_on_catalog_change(ray_session, index_dir, smoke_dirs, tmp_path):
    """The prepare-once broadcast-catalog cache keys on the catalog's
    file state: rewriting the catalog must produce fresh results, not a
    stale cached index."""
    import shutil

    from hand_index_ray.pipelines.query import zonal_join

    src = os.path.join(smoke_dirs["vector"], "catchments.parquet")
    cpath = str(tmp_path / "catchments.parquet")
    shutil.copyfile(src, cpath)
    full = zonal_join(index_dir, cpath, CFG).to_pandas()
    assert len(full) > 0
    # rewrite the catalog with only its first row
    t = pq.read_table(cpath)
    one = t.slice(0, 1)
    pq.write_table(one, cpath)
    after = zonal_join(index_dir, cpath, CFG).to_pandas()
    kept_cid = one.column("catchment_id")[0].as_py()
    assert len(after) < len(full)
    if len(after):  # Ray to_pandas drops columns on an all-empty result
        assert set(after["catchment_id"]) <= {kept_cid}


_REINIT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ray
from hand_index_ray.config import EngineConfig
from hand_index_ray.pipelines.query import zonal_join

cfg = EngineConfig(zonal_join_level=7)
runs = []
for _ in range(2):
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    df = zonal_join(sys.argv[2], sys.argv[3], cfg).to_pandas()
    runs.append(sorted(zip(df["image_id"], df["catchment_id"])))
    ray.shutdown()
print(json.dumps(runs))
"""


def test_zonal_broadcast_cache_survives_ray_reinit(index_dir, smoke_dirs):
    """A broadcast zonal join on a catalog already joined before
    ray.shutdown()/ray.init() in the same process must rebuild its
    catalog ref, not serve the dead one from the previous session."""
    import json
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cpath = os.path.join(smoke_dirs["vector"], "catchments.parquet")
    proc = subprocess.run([sys.executable, "-c", _REINIT_SCRIPT, root,
                           index_dir, cpath], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    first, second = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(first) > 0
    assert first == second
