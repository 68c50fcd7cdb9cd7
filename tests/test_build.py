"""Build pipeline tests: streaming footprint dataset, resumable
materialized index, catchments catalog, per-row invariants."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from hand_index_ray.config import EngineConfig
from hand_index_ray.kernels import image as imk
from hand_index_ray.kernels import s2
from hand_index_ray.sources import synth
from hand_index_ray.state.manifest import Manifest

CFG = EngineConfig(decode_batch_size=64)


@pytest.fixture(scope="module")
def footprints(ray_session, smoke_dirs):
    from hand_index_ray.pipelines.build import footprint_dataset

    ds = footprint_dataset(smoke_dirs["images"], CFG)
    return ds.to_pandas()


def test_footprint_dataset_schema_and_rows(footprints, smoke_dirs):
    df = footprints
    assert len(df) == 400
    for col in ["image_id", "caption", "phash", "phash_decoded", "pixel_mean",
                "minx", "miny", "maxx", "maxy", "centroid_lon", "centroid_lat",
                "h3_r5", "h3_r6", "h3_r7", "h3_r8", "h3_r9", "s2_cell", "part_cell",
                "fragment_id", "row_idx"]:
        assert col in df.columns, col
    assert "bytes" not in df.columns  # heavy payload dropped after decode


def test_per_row_invariants_vs_oracle(footprints):
    """Decoded-pixel + caption invariants (BASELINE.json input_hint):
    re-derive each row with the scalar oracle and compare."""
    df = footprints.set_index("image_id").sort_index()
    idx = np.array([int(i[4:]) for i in df.index])
    # caption equality per row
    minx, miny, maxx, maxy, clon, clat = synth.footprint_of(idx)
    np.testing.assert_allclose(df["minx"].to_numpy(), minx)
    np.testing.assert_allclose(df["maxy"].to_numpy(), maxy)
    # cell assignment matches direct oracle encode (real Uber-H3 ids)
    from hand_index_ray.kernels import h3exact

    np.testing.assert_array_equal(df["h3_r7"].to_numpy().astype(np.uint64),
                                  h3exact.latlng_to_cell(clat, clon, 7))
    np.testing.assert_array_equal(df["s2_cell"].to_numpy().astype(np.uint64),
                                  s2.lonlat_to_cell(clon, clat, CFG.s2_level))
    np.testing.assert_array_equal(
        df["part_cell"].to_numpy().astype(np.uint64),
        s2.parent(s2.lonlat_to_cell(clon, clat, CFG.s2_level), CFG.part_level))
    # pixel invariant: decoded phash matches stored phash for lossless
    # rows exactly, and within small hamming distance for lossy (qjpg)
    ham = imk.phash_hamming(df["phash"].to_numpy().astype(np.uint64),
                            df["phash_decoded"].to_numpy().astype(np.uint64))
    lossless = df["fmt"].isin(["raw", "ppm", "png"]).to_numpy()
    assert (ham[lossless] == 0).all()
    assert (ham <= 4).all()
    # spot-check full pixel equality against oracle regeneration
    for i in [0, 7, 123]:
        row = df.loc[f"img-{i:09d}"]
        src = i
        # oracle: recompute duplicate-source exactly like synth.image_row
        if i > 0 and int(synth._mix(synth.SEED, np.array([i]), 7)[0] % np.uint64(1000)) < 10:
            src = i - 1
        px = synth.make_pixels(src, int(row["w"]), int(row["h"]))
        buf = imk.encode(px, row["fmt"])
        dec = imk.decode(buf, row["fmt"], w=int(row["w"]), h=int(row["h"]))
        if row["fmt"] in ("qjpg", "jpg"):  # lossy slots
            assert imk.psnr(px, dec) >= 40.0
        else:
            np.testing.assert_array_equal(px, dec)
        assert row["caption"] == f"tile {i} over cell {int(h3exact.latlng_to_cell(clat[df.index.get_loc(row.name)][None], clon[df.index.get_loc(row.name)][None], 5)[0])}" or row["caption"].startswith(f"tile {i} ")


def test_build_index_and_resume(ray_session, smoke_dirs, tmp_path):
    from hand_index_ray.pipelines.build import build_index

    out = str(tmp_path / "index")
    s1 = build_index(smoke_dirs["images"], out, CFG)
    assert s1["fragments_built"] == 8
    assert s1["rows_built"] == 400
    man = Manifest(out)
    assert man.total_rows() == 400
    files = man.all_files(out)
    assert files and all(os.path.exists(f) for f in files)
    # partition dirs are cell-keyed
    assert all("/cell=" in f for f in files)
    # resume: nothing to rebuild
    s2_ = build_index(smoke_dirs["images"], out, CFG)
    assert s2_["fragments_built"] == 0
    assert s2_["fragments_skipped_resume"] == 8
    assert s2_["rows_total"] == 400


def test_resume_after_partial_kill(ray_session, smoke_dirs, tmp_path):
    """Simulate a kill: delete some manifest records (and one output
    file); rerun; outputs must be complete and byte-identical."""
    from hand_index_ray.pipelines.build import build_index

    out = str(tmp_path / "index2")
    build_index(smoke_dirs["images"], out, CFG)
    man = Manifest(out)
    before = {f: open(f, "rb").read() for f in man.all_files(out)}
    # wipe 3 fragments' completion markers (simulates mid-run kill)
    for fid in (2, 5, 7):
        os.unlink(Manifest.record_path(man.dir, fid))
    stats = build_index(smoke_dirs["images"], out, CFG)
    assert stats["fragments_built"] == 3
    assert stats["fragments_skipped_resume"] == 5
    after = {f: open(f, "rb").read() for f in Manifest(out).all_files(out)}
    assert set(before) == set(after)
    for f in before:
        assert before[f] == after[f], f"output not byte-identical after resume: {f}"


def test_manifest_bbox_pruning_is_conservative(ray_session, smoke_dirs, tmp_path):
    from hand_index_ray.pipelines.build import build_index

    out = str(tmp_path / "index3")
    build_index(smoke_dirs["images"], out, CFG)
    man = Manifest(out)
    q = (-100.0, 35.0, -95.0, 40.0)
    files = man.files_for_bbox(out, *q)
    got = pq.read_table(files, columns=["image_id", "minx", "miny", "maxx", "maxy"]).to_pandas()
    # every true bbox-overlapping row must be inside the pruned file set
    allf = pq.read_table(man.all_files(out),
                         columns=["image_id", "minx", "miny", "maxx", "maxy"]).to_pandas()
    truth = allf[(allf.minx <= q[2]) & (q[0] <= allf.maxx)
                 & (allf.miny <= q[3]) & (q[1] <= allf.maxy)]
    assert set(truth.image_id) <= set(got.image_id)
    assert len(files) < len(man.all_files(out))  # actually prunes


def test_build_catchments_groupby_union(ray_session, smoke_dirs):
    import ray.data

    from hand_index_ray.pipelines.build import build_catchments

    raw = ray.data.read_parquet(os.path.join(smoke_dirs["vector"], "catchments.parquet"))
    # explode: treat each stored catchment row as one "branch file geometry"
    cat = build_catchments(raw.select_columns(["geometry", "branch_path"]), CFG)
    df = cat.to_pandas()
    src = pq.read_table(os.path.join(smoke_dirs["vector"], "catchments.parquet")).to_pandas()
    assert len(df) == src["branch_path"].nunique()
    assert (df["geom_count"] == 1).all()
    # deterministic ids: uuid5(branch) matches the fixture's ids
    merged = df.merge(src[["branch_path", "catchment_id"]], on="branch_path",
                      suffixes=("_built", "_src"))
    assert (merged["catchment_id_built"] == merged["catchment_id_src"]).all()


def test_resume_accepts_respelled_input_path(ray_session, smoke_dirs, tmp_path):
    """Resuming with a different SPELLING of the same input directory
    (relative vs absolute) must not trip the lineage guard; a genuinely
    different input set still must."""
    from hand_index_ray.pipelines.build import build_index

    out = str(tmp_path / "index_respell")
    build_index(smoke_dirs["images"], out, CFG)
    rel = os.path.relpath(smoke_dirs["images"])
    s = build_index(rel, out, CFG)
    assert s["fragments_built"] == 0 and s["fragments_skipped_resume"] == 8
    # different input set → loud failure
    other = str(tmp_path / "other_images")
    os.makedirs(other)
    for f in sorted(os.listdir(smoke_dirs["images"]))[:3]:
        os.link(os.path.join(smoke_dirs["images"], f), os.path.join(other, f))
    import pytest as _pytest

    with _pytest.raises(ValueError, match="resume mismatch"):
        build_index(other, out, CFG)
