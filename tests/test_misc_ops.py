"""GeoJSON reader (S4), single-file sink (S7), per-group sampling (O2),
validate pipeline (§3.3 analog)."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from hand_index_ray.kernels import geom
from hand_index_ray.sources import synth
from hand_index_ray.sources.geojson import roi_from_geojson, roi_ring_from_geojson


def test_geojson_feature_collection_and_bare():
    ring = [[-100.0, 35.0], [-99.0, 35.0], [-99.0, 36.0], [-100.0, 36.0], [-100.0, 35.0]]
    fc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {},
         "geometry": {"type": "Polygon", "coordinates": [ring]}}]}
    rag = roi_from_geojson(fc)
    assert len(rag) == 1
    assert geom.area(rag)[0] == pytest.approx(1.0)
    # bare geometry + string input
    rag2 = roi_from_geojson(json.dumps({"type": "Polygon", "coordinates": [ring]}))
    np.testing.assert_allclose(rag2.coords, rag.coords)
    # outer-ring helper
    r = roi_ring_from_geojson(fc)
    assert r.shape == (5, 2)


def test_geojson_multipolygon_and_file(tmp_path):
    ring1 = [[-100, 35], [-99, 35], [-99, 36], [-100, 36], [-100, 35]]
    ring2 = [[-90, 30], [-89, 30], [-89, 31], [-90, 31], [-90, 30]]
    doc = {"type": "MultiPolygon", "coordinates": [[ring1], [ring2]]}
    p = tmp_path / "roi.geojson"
    p.write_text(json.dumps(doc))
    rag = roi_from_geojson(str(p))
    assert rag.num_parts() == 2
    assert geom.area(rag)[0] == pytest.approx(2.0)


def test_geojson_crs_policy():
    ring = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
    ok = {"type": "Polygon", "coordinates": [ring],
          "crs": {"type": "name", "properties": {"name": "urn:ogc:def:crs:OGC:1.3:CRS84"}}}
    roi_from_geojson(ok)
    bad = {"type": "Polygon", "coordinates": [ring],
           "crs": {"type": "name", "properties": {"name": "EPSG:5070"}}}
    with pytest.raises(ValueError):
        roi_from_geojson(bad)


def test_write_single_file_and_sample_per_group(ray_session, tmp_path):
    import ray.data

    from hand_index_ray.pipelines.query import sample_per_group, write_single_file

    rows = [{"k": i % 3, "v": i} for i in range(30)]
    ds = ray.data.from_items(rows)
    p = write_single_file(ds, str(tmp_path / "out" / "side.parquet"))
    t = pq.read_table(p)
    assert t.num_rows == 30
    samp = sample_per_group(ray.data.from_items(rows), "k", 2, order_col="v").to_pandas()
    assert len(samp) == 6
    # first-2 by v in group k are exactly {k, k+3}
    for k, g in samp.groupby("k"):
        assert sorted(g["v"]) == [k, k + 3]


def test_validate_roi(ray_session, smoke_dirs):
    from hand_index_ray.pipelines.query import validate_roi

    cpath = os.path.join(smoke_dirs["vector"], "catchments.parquet")
    out = validate_roi(cpath, synth.roi_polygons()["huge"], threshold_pct=10.0)
    assert out["consistent"]
    assert out["initial_geoms"] >= out["final_geoms"] == len(out["kept_ids"])
    assert out["dropped_by_filter"] == out["removed_geoms"]


def test_export_validation_geojson(ray_session, smoke_dirs, tmp_path):
    """QA artifact: query/intersecting/kept sets in one FeatureCollection
    (reference viz overlay as portable GeoJSON)."""
    import json

    from hand_index_ray.pipelines.query import export_validation_geojson, validate_roi

    cpath = os.path.join(smoke_dirs["vector"], "catchments.parquet")
    ring = synth.roi_polygons()["huge"]
    out_path = str(tmp_path / "qa.geojson")
    rep = export_validation_geojson(cpath, ring, out_path, threshold_pct=10.0)
    with open(out_path) as f:
        fc = json.load(f)
    assert fc["type"] == "FeatureCollection"
    sets = [f["properties"]["set"] for f in fc["features"]]
    assert sets.count("query") == 1
    ref = validate_roi(cpath, ring, threshold_pct=10.0)
    assert sets.count("kept") == ref["final_geoms"] == rep["final_geoms"]
    assert sets.count("kept") + sets.count("intersecting") == rep["initial_geoms"]
    # kept features carry the metric columns; geometry is 4326
    kept_f = next(f for f in fc["features"] if f["properties"]["set"] == "kept")
    assert 0.0 <= kept_f["properties"]["overlap_pct"] <= 100.0
    lon, lat = kept_f["geometry"]["coordinates"][0][0][0]
    assert -180 <= lon <= 180 and -90 <= lat <= 90


def test_catchments_hive_partitioned_roundtrip(ray_session, smoke_dirs, tmp_path):
    """Reference S6 parity for the vector side: the catalog written
    hive-partitioned by h3_index (load.py:279-283 PARTITION_BY) and
    read back — including by the ROI query, which accepts the
    partitioned directory exactly like the reference's
    hive_partitioning=1 views (query_geojson.py:29-31)."""
    import pyarrow.parquet as pqm
    import ray.data

    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.build import build_catchments
    from hand_index_ray.pipelines.query import roi_query_catchments

    cfg = EngineConfig()
    src = os.path.join(smoke_dirs["vector"], "catchments.parquet")
    raw = ray.data.read_parquet(src)
    catalog = build_catchments(raw.select_columns(["geometry", "branch_path"]), cfg)
    outdir = str(tmp_path / "catchments_hive")
    catalog.write_parquet(outdir, partition_cols=["h3_index"])
    # hive dirs per cell exist
    subdirs = [d for d in os.listdir(outdir) if d.startswith("h3_index=")]
    assert len(subdirs) >= 1
    back = ray.data.read_parquet(outdir).to_pandas()
    orig = pqm.read_table(src).to_pandas()
    assert len(back) == orig["branch_path"].nunique()
    # the ROI query consumes the partitioned directory directly
    kept_hive = roi_query_catchments(outdir, synth.roi_polygons()["huge"],
                                     threshold_pct=10.0, cfg=cfg).to_pandas()
    kept_flat = roi_query_catchments(src, synth.roi_polygons()["huge"],
                                     threshold_pct=10.0, cfg=cfg).to_pandas()
    assert set(kept_hive["catchment_id"]) == set(kept_flat["catchment_id"])


# ---------------------------------------------------------------------------
# hash split + grouped top-k


def test_hash_split_deterministic_and_salted(ray_session):
    import hashlib

    import numpy as np
    import pandas as pd
    import ray.data

    from hand_index_ray import relational as rel

    df = pd.DataFrame({"doc_id": np.arange(2000, dtype=np.int64)})
    ds = ray.data.from_pandas(df).repartition(4)
    fr = {"train": 0.8, "val": 0.1, "test": 0.1}
    a = rel.hash_split(ds, "doc_id", fr).to_pandas().set_index("doc_id")["split"]
    b = rel.hash_split(ds, "doc_id", fr).to_pandas().set_index("doc_id")["split"]
    pd.testing.assert_series_equal(a.sort_index(), b.sort_index())  # stable
    # matches the md5 formula row-by-row
    for i in (0, 7, 1234):
        h = int.from_bytes(hashlib.md5(str(i).encode()).digest()[8:16],
                           "little") % 10_000
        want = "train" if h < 8000 else ("val" if h < 9000 else "test")
        assert a.loc[i] == want
    # ~fractions hold
    counts = a.value_counts(normalize=True)
    assert abs(counts["train"] - 0.8) < 0.05
    # salt re-deals
    c = rel.hash_split(ds, "doc_id", fr, salt="v2").to_pandas() \
        .set_index("doc_id")["split"]
    assert (a.sort_index() != c.sort_index()).mean() > 0.1
    import pytest

    with pytest.raises(ValueError):
        rel.hash_split(ds, "doc_id", {"train": 0.5, "test": 0.1})


def test_grouped_topk_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from hand_index_ray import relational as rel

    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "g": rng.integers(0, 20, 1000).astype(np.int64),
        "id": np.arange(1000, dtype=np.int64),
        "v": rng.integers(0, 50, 1000).astype(np.int64),  # many value ties
    })
    ds = ray.data.from_pandas(df).repartition(8)
    out = rel.grouped_topk(ds, ["g"], "v", k=3, descending=True,
                           tiebreak="id").to_pandas() \
        .sort_values(["g", "id"]).reset_index(drop=True)
    ref = df.sort_values(["v", "id"], ascending=[False, True],
                         kind="mergesort").groupby("g", sort=False).head(3) \
        .sort_values(["g", "id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out[["g", "id", "v"]], ref[["g", "id", "v"]])
    # ascending variant
    out2 = rel.grouped_topk(ds, ["g"], "v", k=1, descending=False,
                            tiebreak="id").to_pandas()
    ref2 = df.sort_values(["v", "id"], ascending=[True, True],
                          kind="mergesort").groupby("g", sort=False).head(1)
    assert set(out2["id"]) == set(ref2["id"])


def test_jsonl_csv_document_sources(ray_session, tmp_path):
    """JSONL/CSV ingestion normalizes to the documents schema and
    roundtrips losslessly (sources/textfiles.py)."""
    import pandas as pd
    import pytest as _pytest
    import ray.data

    from hand_index_ray.sources.textfiles import (read_documents_csv,
                                                  read_documents_jsonl,
                                                  write_documents_jsonl)

    df = pd.DataFrame({"doc_id": np.arange(20, dtype=np.int32),  # int32 → int64
                       "text": [f"doc number {i} body" for i in range(20)],
                       "lang": ["en", "fr"] * 10})
    jdir = str(tmp_path / "j")
    write_documents_jsonl(ray.data.from_pandas(df).repartition(3), jdir)
    back = read_documents_jsonl(jdir).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    assert back.doc_id.dtype == np.int64
    pd.testing.assert_frame_equal(
        back[["doc_id", "text", "lang"]],
        df.assign(doc_id=df.doc_id.astype(np.int64))[["doc_id", "text", "lang"]])

    cpath = str(tmp_path / "c.csv")
    df.to_csv(cpath, index=False)
    got = read_documents_csv(cpath, columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(got.columns) == ["doc_id", "text"]
    assert got.text.tolist() == df.text.tolist()

    # missing required column fails loudly
    bad = str(tmp_path / "bad.csv")
    df.drop(columns=["text"]).to_csv(bad, index=False)
    with _pytest.raises(Exception):
        read_documents_csv(bad).to_pandas()


def test_kernel_heatmap_brute(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from hand_index_ray.pipelines.geostat import kernel_heatmap

    rng = np.random.default_rng(101)
    px = rng.integers(0, 256, 300)
    py = rng.integers(0, 256, 300)
    df = pd.DataFrame({"px": px, "py": py})
    got = kernel_heatmap(ray.data.from_pandas(df).repartition(4),
                         "px", "py", r=12, cs=16, nx=16, ny=16) \
        .to_pandas().sort_values(["cx", "cy"]).reset_index(drop=True)
    assert len(got) == 256
    ci, cj = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    want = (np.maximum(0, 12 - np.abs(ci.ravel()[:, None] * 16 - px))
            * np.maximum(0, 12 - np.abs(cj.ravel()[:, None] * 16 - py))
            ).sum(axis=1)
    assert got["heat"].to_numpy().tolist() == want.tolist()
    # conservation: total heat == sum of per-point separable masses
    wx = np.maximum(0, 12 - np.abs(np.arange(16)[:, None] * 16 - px))
    wy = np.maximum(0, 12 - np.abs(np.arange(16)[:, None] * 16 - py))
    assert int(got["heat"].sum()) == int((wx.sum(0) * wy.sum(0)).sum())


def test_rect_union_area_vs_brute(ray_session):
    import ray.data
    from hand_index_ray.pipelines.geostat import rect_union_area

    rng = np.random.RandomState(11)
    n = 200
    g = rng.randint(0, 5, n)
    x1 = rng.randint(0, 40, n)
    y1 = rng.randint(0, 30, n)
    x2 = x1 + rng.randint(1, 10, n)
    y2 = y1 + rng.randint(1, 8, n)
    t = pa.table({"gid": pa.array(g, pa.int64()),
                  "x1": pa.array(x1, pa.int64()),
                  "y1": pa.array(y1, pa.int64()),
                  "x2": pa.array(x2, pa.int64()),
                  "y2": pa.array(y2, pa.int64())})
    got = rect_union_area(ray.data.from_arrow(t), "gid",
                          "x1", "y1", "x2", "y2") \
        .to_pandas().set_index("gid").sort_index()
    for k in range(5):
        cells = set()
        m = g == k
        for a, b, c, d in zip(x1[m], y1[m], x2[m], y2[m]):
            cells |= {(i, j) for i in range(a, c) for j in range(b, d)}
        assert got.loc[k, "area"] == len(cells), k
        assert got.loc[k, "n_rects"] == int(m.sum()), k


def test_hash_join_salt_hot_matches_and_spreads(ray_session):
    """salt_hot=True on a corpus where ONE key is 50% of the left rows:
    identical join output, and the hot key's left rows spread across
    ~salt_buckets distinct buckets instead of one (VERDICT r3 item 8)."""
    import numpy as np
    import ray.data

    from hand_index_ray.relational import _bucket_hash, hash_join

    n = 4000
    keys = np.where(np.arange(n) % 2 == 0, 0, np.arange(n) % 97 + 1)
    left = ray.data.from_items(
        [{"k": int(k), "l": i} for i, k in enumerate(keys)])
    right = ray.data.from_items([{"k": i, "r": i * 10} for i in range(98)])

    base = hash_join(left, right, "k", how="inner").to_pandas()
    salted = hash_join(left, right, "k", how="inner", salt_hot=True,
                       salt_buckets=8).to_pandas()
    ca = base.sort_values(["k", "l"]).reset_index(drop=True)[sorted(base.columns)]
    cb = salted.sort_values(["k", "l"]).reset_index(drop=True)[sorted(salted.columns)]
    assert ca.equals(cb)
    assert (cb["k"] == 0).sum() == n // 2  # the hot key fully joined

    # left join parity too (hot key present on right)
    bl = hash_join(left, right, "k", how="left").to_pandas()
    sl = hash_join(left, right, "k", how="left", salt_hot=True,
                   salt_buckets=8).to_pandas()
    assert len(bl) == len(sl) == n

    # bucket-spread evidence: round-robin salts put the hot key's rows
    # in ~min(salt_buckets, num_buckets) buckets, not one
    import pyarrow as pa
    h0 = _bucket_hash(np.array([0], dtype=np.int64), True)[0]
    GOLD = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        spread = {int((h0 + np.uint64(s) * GOLD) % np.uint64(64))
                  for s in range(8)}
    assert len(spread) >= 6  # distinct salted buckets for the hot key


@pytest.mark.parametrize("how", ["inner", "left", "full"])
@pytest.mark.parametrize("empty_side", ["left", "right"])
def test_hash_join_one_empty_side_matches_pandas_merge(ray_session, how,
                                                       empty_side):
    """A zero-row side still co-groups: inner gives nothing, and the
    outer joins keep the other side's rows with nulls, as pandas.merge
    does. Column lists are passed explicitly, as callers with a
    possibly-empty side must."""
    import pandas as pd
    import ray.data

    from hand_index_ray.relational import hash_join

    lt = pa.table({"k": pa.array([i % 5 for i in range(40)], pa.int64()),
                   "l": pa.array(range(40), pa.int64())})
    rt = pa.table({"k": pa.array(range(3, 8), pa.int64()),
                   "r": pa.array([10 * i for i in range(3, 8)], pa.int64())})
    if empty_side == "left":
        lt = lt.slice(0, 0)
    else:
        rt = rt.slice(0, 0)
    got = hash_join(ray.data.from_arrow(lt), ray.data.from_arrow(rt), "k",
                    how=how, left_cols=["k", "l"],
                    right_cols=["k", "r"]).to_pandas()
    want = lt.to_pandas().merge(rt.to_pandas(), on="k",
                                how={"full": "outer"}.get(how, how))

    def rows(df):
        return sorted(tuple(None if pd.isna(v) else int(v) for v in r)
                      for r in df[["k", "l", "r"]].itertuples(index=False))

    if len(want) == 0:
        assert len(got) == 0
    else:
        assert list(got.columns) == ["k", "l", "r"]
        assert rows(got) == rows(want)


def test_hash_join_salt_hot_rejects_full(ray_session):
    import pytest
    import ray.data

    from hand_index_ray.relational import hash_join

    l = ray.data.from_items([{"k": 1, "l": 1}])
    r = ray.data.from_items([{"k": 1, "r": 1}])
    with pytest.raises(ValueError):
        hash_join(l, r, "k", how="full", salt_hot=True)


def test_hash_join_salt_hot_colliding_buckets_no_dups(ray_session):
    """Regression: salts colliding on the same bucket (num_buckets
    divides (s1-s2)*GOLD, e.g. NB=10) must not duplicate join rows —
    hot right rows replicate once per DISTINCT salted bucket."""
    import numpy as np
    import ray.data

    from hand_index_ray.relational import hash_join

    n = 1000
    keys = np.where(np.arange(n) % 2 == 0, 0, np.arange(n) % 31 + 1)
    left = ray.data.from_items(
        [{"k": int(k), "l": i} for i, k in enumerate(keys)])
    right = ray.data.from_items([{"k": i, "r": i * 10} for i in range(32)])
    base = hash_join(left, right, "k", how="inner",
                     num_buckets=10).to_pandas()
    salted = hash_join(left, right, "k", how="inner", num_buckets=10,
                       salt_hot=True, salt_buckets=8).to_pandas()
    ca = base.sort_values(["k", "l"]).reset_index(drop=True)[sorted(base.columns)]
    cb = salted.sort_values(["k", "l"]).reset_index(drop=True)[sorted(salted.columns)]
    assert len(cb) == len(ca)
    assert ca.equals(cb)
