"""Compaction: per-cell merge preserves query results, pruning and
resume semantics."""

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from hand_index_ray.config import EngineConfig
from hand_index_ray.sources import synth
from hand_index_ray.state.manifest import Manifest

CFG = EngineConfig(decode_batch_size=64)


@pytest.fixture(scope="module")
def compacted(ray_session, smoke_dirs, tmp_path_factory):
    from hand_index_ray.pipelines.build import build_index, compact_index

    out = str(tmp_path_factory.mktemp("cidx") / "index")
    build_index(smoke_dirs["images"], out, CFG)
    man = Manifest(out)
    before_files = man.all_files(out)
    before_rows = pq.read_table(before_files).to_pandas()
    # the built index as it stood before compaction, for tests that
    # compact their own copy
    built = out + "-built"
    shutil.copytree(out, built)
    stats = compact_index(out, CFG)
    return {"dir": out, "built": built, "before_files": before_files,
            "before_rows": before_rows, "stats": stats}


def _compacted_tables(index_dir):
    return {p.cell: pq.read_table(os.path.join(index_dir, p.path))
            for p in Manifest(index_dir).compaction()[0]}


def test_compaction_reduces_files_same_rows(compacted):
    man = Manifest(compacted["dir"])
    after_files = man.all_files(compacted["dir"])
    assert len(after_files) < len(compacted["before_files"])
    assert all("compacted-g" in os.path.basename(f) for f in after_files)
    after = pq.read_table(after_files).to_pandas()
    assert len(after) == len(compacted["before_rows"])
    assert set(after["image_id"]) == set(compacted["before_rows"]["image_id"])


def test_fine_cells_recorded_per_file(compacted):
    """Every build partition records the distinct part_cell values of
    its file; every compaction part records its own cell."""
    idx = compacted["dir"]
    man = Manifest(idx)
    parts = [p for r in man.records() for p in r.partitions]
    assert parts
    for p in parts:
        col = pq.read_table(os.path.join(idx, p.path), columns=["part_cell"])
        assert p.fine_cells == np.unique(col.column("part_cell").to_numpy()).tolist()
    assert any(len(p.fine_cells) > 1 for p in parts)  # coarsened files exist
    for p in man.compaction()[0]:
        assert p.fine_cells == [p.cell]


def test_compacted_files_hold_one_cell_sorted(compacted):
    for cell, tbl in _compacted_tables(compacted["dir"]).items():
        assert tbl.num_rows > 0
        assert np.unique(tbl.column("part_cell").to_numpy()).tolist() == [cell]
        s2 = tbl.column("s2_cell").to_numpy()
        assert (s2[1:] >= s2[:-1]).all()


def test_fresh_compaction_reads_no_part_cells(compacted, tmp_path, monkeypatch):
    """Fine cells come from the manifest: a freshly built index never
    takes the distributed part_cell pass."""
    from hand_index_ray.pipelines import build

    def _fail(*_a, **_k):
        raise AssertionError("_distinct_part_cells called on a fresh index")

    monkeypatch.setattr(build, "_distinct_part_cells", _fail)
    idx = str(tmp_path / "index")
    shutil.copytree(compacted["built"], idx)
    build.compact_index(idx, CFG)
    want = _compacted_tables(compacted["dir"])
    got = _compacted_tables(idx)
    assert got.keys() == want.keys()
    assert all(got[c].equals(want[c]) for c in want)


def test_legacy_records_compact_the_same(compacted, tmp_path, monkeypatch):
    """Records written before `fine_cells` existed: only their files go
    through _distinct_part_cells, and the compacted tables equal the
    fresh index's cell by cell."""
    from hand_index_ray.pipelines import build

    idx = str(tmp_path / "index")
    shutil.copytree(compacted["built"], idx)
    mdir = os.path.join(idx, "_manifest")
    legacy = set()
    for name in sorted(os.listdir(mdir))[::2]:
        path = os.path.join(mdir, name)
        with open(path) as f:
            rec = json.load(f)
        for p in rec["partitions"]:
            del p["fine_cells"]
            legacy.add(os.path.join(idx, p["path"]))
        with open(path, "w") as f:
            json.dump(rec, f)
    assert legacy
    scanned = []
    real = build._distinct_part_cells

    def _spy(paths, *a, **k):
        scanned.extend(paths)
        return real(paths, *a, **k)

    monkeypatch.setattr(build, "_distinct_part_cells", _spy)
    build.compact_index(idx, CFG)
    assert sorted(scanned) == sorted(legacy)
    want = _compacted_tables(compacted["dir"])
    got = _compacted_tables(idx)
    assert got.keys() == want.keys()
    assert all(got[c].equals(want[c]) for c in want)


def test_compaction_reports_cell_files(compacted):
    """`cells` counts the compacted cell files, as the skipped path
    does, not the merge groups (a group can hold several cells)."""
    parts = Manifest(compacted["dir"]).compaction()[0]
    assert compacted["stats"]["cells"] == len(parts)


def _wide_rois(index_dir):
    """A rect and an 8-gon over the whole index extent."""
    f = pq.read_table(Manifest(index_dir).all_files(index_dir),
                      columns=["minx", "miny", "maxx", "maxy"]).to_pandas()
    x0, y0, x1, y1 = f.minx.min(), f.miny.min(), f.maxx.max(), f.maxy.max()
    rect = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])
    ang = 2 * np.pi * np.arange(8) / 8
    cx, cy, r = (x0 + x1) / 2, (y0 + y1) / 2, 0.45 * max(x1 - x0, y1 - y0)
    gon = np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)
    return {"rect": rect, "8-gon": gon}


def test_roi_query_many_files_matches_compacted(compacted):
    """An ROI over more than 32 build files returns the same rows as
    the same query over the compacted index, every column exact, in
    the single and the multi-ROI query."""
    from hand_index_ray.kernels import geom, wkb
    from hand_index_ray.pipelines.query import (roi_query_footprints,
                                                roi_query_footprints_multi)

    built, idx = compacted["built"], compacted["dir"]
    for name, ring in _wide_rois(built).items():
        b = geom.bounds(wkb.from_parts([[[ring]]]))[0]
        assert len(Manifest(built).files_for_bbox(built, *b)) > 32, name
        got, want = (roi_query_footprints(d, ring, 10.0, CFG).to_pandas()
                     .sort_values("image_id").reset_index(drop=True)
                     for d in (built, idx))
        assert len(want) > 0, name
        pd.testing.assert_frame_equal(got, want, check_exact=True)
        got, want = (roi_query_footprints_multi(d, {name: ring}, 10.0, CFG)
                     .to_pandas().sort_values("image_id")
                     .reset_index(drop=True)
                     for d in (built, idx))
        pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_queries_identical_after_compaction(compacted, smoke_dirs):
    from hand_index_ray.pipelines.query import bbox_scan, knn_query

    idx = compacted["dir"]
    q = synth.bbox_queries()[0]
    ds = bbox_scan(idx, *q)
    got = set() if ds is None else set(ds.to_pandas()["image_id"])
    f = compacted["before_rows"]
    truth = set(f.loc[(f.minx <= q[2]) & (q[0] <= f.maxx)
                      & (f.miny <= q[3]) & (q[1] <= f.maxy), "image_id"])
    assert got == truth
    out = knn_query(idx, -98.0, 36.0, 10, CFG)
    from hand_index_ray.pipelines.query import _haversine_m

    d = _haversine_m(-98.0, 36.0, f["centroid_lon"].to_numpy(), f["centroid_lat"].to_numpy())
    expect = f.assign(dist_mi=np.round(d).astype(np.int64)) \
        .sort_values(["dist_mi", "image_id"]).head(10)
    assert list(out["image_id"]) == list(expect["image_id"])


def test_resume_after_compaction(compacted, smoke_dirs):
    from hand_index_ray.pipelines.build import build_index

    stats = build_index(smoke_dirs["images"], compacted["dir"], CFG)
    assert stats["fragments_built"] == 0  # all covered by manifest records


def test_recompaction_after_new_fragments(ray_session, tmp_path):
    """New fragments arriving after a compaction: queries see both the
    compacted files and the new fragment's files; a second compaction
    folds everything into per-cell files again."""
    import numpy as np
    import pyarrow.parquet as pqw

    from hand_index_ray.pipelines.build import build_index, compact_index

    images = str(tmp_path / "images")
    idx = str(tmp_path / "index")
    synth.write_images(images, n=100, fragments=2)
    build_index(images, idx, CFG)
    compact_index(idx, CFG)
    # a new input fragment arrives
    extra = synth.images_batch(np.arange(100, 150), 2)
    pqw.write_table(extra, os.path.join(images, "frag-00002.parquet"))
    stats = build_index(images, idx, CFG)
    assert stats["fragments_built"] == 1
    man = Manifest(idx)
    live = man.all_files(idx)
    assert any("frag-000002" in f for f in live)
    assert any("compacted-g1" in f for f in live)
    assert sum(pq.ParquetFile(f).metadata.num_rows for f in live) == 150
    stats2 = compact_index(idx, CFG)
    assert stats2["cells"] >= 1
    live2 = Manifest(idx).all_files(idx)
    # generation bump: the re-compaction wrote NEW g2 files — the g1
    # files the prior record references were never overwritten, so a
    # kill mid-rewrite leaves the old generation serving (ADVICE r1)
    assert all("compacted-g2" in os.path.basename(f) for f in live2)
    for f in live:
        if "compacted-g1" in f:
            assert os.path.exists(f)  # still intact until gc
    assert sum(pq.ParquetFile(f).metadata.num_rows for f in live2) == 150
    from hand_index_ray.pipelines.build import gc_index

    removed = gc_index(idx)
    assert removed["files_removed"] >= 1  # g1 generation collected
    assert all(os.path.exists(f) for f in live2)


def test_resume_raises_on_changed_input_listing(ray_session, tmp_path):
    """ADVICE r1 build.py:208: resume keys on listing position — if the
    input set changes so positions shift, fail loudly instead of
    silently skipping never-built inputs."""
    from hand_index_ray.pipelines.build import build_index

    images = str(tmp_path / "images")
    idx = str(tmp_path / "index")
    synth.write_images(images, n=60, fragments=2)
    build_index(images, idx, CFG)
    # a file whose name sorts BEFORE the existing fragments shifts ids
    src = os.path.join(images, "frag-00000.parquet")
    os.rename(src, os.path.join(images, "aaa-frag.parquet"))
    with pytest.raises(ValueError, match="resume mismatch"):
        build_index(images, idx, CFG)


def test_grouped_agg_counts_null_keys(ray_session):
    """ADVICE r1 relational.py:53: COUNT(*) not COUNT(key) — null-key
    groups must report their true row count."""
    import pyarrow as pa
    import ray.data

    from hand_index_ray.relational import grouped_agg

    t = pa.table({"k": pa.array(["a", "a", None, None, None], pa.string()),
                  "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    out = grouped_agg(ray.data.from_arrow(t), ["k"], sum_cols=["v"]).to_pandas()
    out = out.set_index("k")
    assert out.loc["a", "n"] == 2 and out.loc["a", "v"] == 3
    null_row = out[out.index.isnull()]
    assert null_row["n"].iloc[0] == 3 and null_row["v"].iloc[0] == 12


def test_distinct_part_cells_is_distributed(compacted):
    """VERDICT r3 finding 1: fine-cell discovery must return O(#cells)
    values via remote partials, never concatenate row-level columns on
    the driver. Checks the helper directly: result equals the exact
    distinct set and each partial's payload is already deduplicated."""
    import ray

    from hand_index_ray.pipelines.build import _distinct_part_cells
    from hand_index_ray.state.manifest import Manifest

    man = Manifest(compacted["dir"])
    files = man.all_files(compacted["dir"])
    got = _distinct_part_cells(files, group=2)
    exact = np.unique(pq.read_table(files, columns=["part_cell"])
                      .column("part_cell").to_numpy())
    assert np.array_equal(got, exact)
    # driver-side peak is bounded by #cells (deduped), far below #rows
    nrows = pq.read_table(files, columns=["part_cell"]).num_rows
    assert len(got) < nrows


def test_rebuild_without_resume_drops_old_compaction(ray_session, tmp_path):
    """build → compact → build(resume=False) over different input →
    compact must serve the new input only: the old compaction record
    covered every fragment id, so it used to make compact_index skip and
    queries return the previous build's rows."""
    from hand_index_ray.pipelines.build import build_index, compact_index
    from hand_index_ray.pipelines.query import bbox_scan

    old_images, new_images = str(tmp_path / "old"), str(tmp_path / "new")
    synth.write_images(old_images, n=120, fragments=4)
    synth.write_images(new_images, n=48, fragments=4)
    out = str(tmp_path / "index")
    build_index(old_images, out, CFG)
    compact_index(out, CFG)
    build_index(new_images, out, CFG, resume=False)
    assert not compact_index(out, CFG).get("skipped")
    man = Manifest(out)
    rows = pq.read_table(man.all_files(out)).to_pandas()
    want = {f"img-{i:09d}" for i in range(48)}
    assert set(rows["image_id"]) == want and len(rows) == 48
    assert man.total_rows() == 48
    ds = bbox_scan(out, -180.0, -90.0, 180.0, 90.0)
    assert set(ds.to_pandas()["image_id"]) == want
