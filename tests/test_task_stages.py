"""Package map stages run as plain Ray tasks and give their CPUs back
when the dataset finishes.

Ray Data 2.49 retires a finished actor pool by dropping its actor
handles; a handle caught in a reference cycle keeps its actor, and that
actor's CPU, until Python's cyclic GC runs. With the GC off, each call
of a pooled stage left one more CPU held (4 → 3 → 2 → 1 on a 4-CPU
session). Task maps hold nothing once the dataset is consumed.
"""
import gc
import time
from functools import partial

import numpy as np
import pyarrow as pa
import pytest


def _broadcast_join():
    import ray.data

    from hand_index_ray import relational as rel

    big = ray.data.from_items([{"k": i % 7, "v": i} for i in range(64)])
    small = pa.table({"k": pa.array(range(7), pa.int64()),
                      "name": [f"n{i}" for i in range(7)]})
    assert rel.broadcast_join(big, small, "k").count() == 64


def _bloom_prefilter():
    import ray.data

    from hand_index_ray import relational as rel

    keys = ray.data.from_items([{"k": i} for i in range(0, 200, 2)])
    words = rel.bloom_build(keys, "k", num_bits=1 << 12, k=4)
    big = ray.data.from_items([{"k": i} for i in range(200)])
    kept = set(rel.bloom_prefilter(big, "k", words, num_bits=1 << 12, k=4)
               .to_pandas()["k"])
    assert set(range(0, 200, 2)) <= kept


def _band_join():
    import ray.data

    from hand_index_ray import relational as rel

    ds = ray.data.from_items([{"v": i} for i in range(100)])
    bins = pa.table({"lo": [0, 50], "hi": [50, 90], "tier": ["a", "b"]})
    assert rel.band_join(ds, bins, "v", "lo", "hi", ["tier"]).count() == 90


def _embed_images():
    import ray.data

    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.image_embed import embed_images
    from hand_index_ray.sources import synth

    tbl = synth.images_batch(np.arange(16), 0)
    emb = embed_images(ray.data.from_arrow(tbl),
                       cfg=EngineConfig(decode_batch_size=4)).to_pandas()
    assert len(emb) == 16


def _augment_spec():
    import tempfile

    import pyarrow.parquet as pq

    from hand_index_ray.sources import synth
    from hand_index_ray.steps import Pipeline

    # a kernel class named in a spec without `concurrency` is a task map
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/images.parquet"
        pq.write_table(synth.images_batch(np.arange(16), 0), path)
        spec = {"source": {"parquet": path},
                "steps": [{"kernel": "augment", "params": {"emit": "stats"},
                           "batch_size": 4}]}
        out = Pipeline.from_spec(spec).run().to_pandas()
    assert len(out) == 16


def _footprint_dataset():
    import tempfile

    from hand_index_ray.pipelines.build import footprint_dataset
    from hand_index_ray.sources import synth

    with tempfile.TemporaryDirectory() as d:
        synth.write_images(d, n=64, fragments=4)
        assert footprint_dataset(d).count() == 64


def _roi_query_footprints():
    import tempfile

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.build import build_index
    from hand_index_ray.pipelines.query import roi_query_footprints
    from hand_index_ray.sources import synth
    from hand_index_ray.state.manifest import Manifest

    # an uncompacted index and an ROI over all of it: more than 32
    # candidate files
    with tempfile.TemporaryDirectory() as d:
        synth.write_images(f"{d}/images", n=400, fragments=8)
        idx = f"{d}/index"
        build_index(f"{d}/images", idx, EngineConfig(decode_batch_size=64))
        files = Manifest(idx).all_files(idx)
        assert len(files) > 32
        f = pq.read_table(files, columns=["minx", "miny", "maxx", "maxy"])
        x0, y0 = pc.min(f["minx"]).as_py(), pc.min(f["miny"]).as_py()
        x1, y1 = pc.max(f["maxx"]).as_py(), pc.max(f["maxy"]).as_py()
        ring = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])
        assert roi_query_footprints(idx, ring, 10.0).count() == 400


def _roi_query_catchments():
    import tempfile

    from hand_index_ray.pipelines.query import roi_query_catchments
    from hand_index_ray.sources import synth

    with tempfile.TemporaryDirectory() as d:
        path = synth.write_catchment_suite(d, n=50)["catchments"]
        ring = synth.roi_polygons()["huge"]
        assert roi_query_catchments(path, ring, 10.0).count() > 0


def _catalog_paths():
    import tempfile

    from hand_index_ray.kernels import geotiff
    from hand_index_ray.pipelines import raster

    with tempfile.TemporaryDirectory() as d:
        paths = []
        for i in range(4):
            paths.append(f"{d}/r{i}.tif")
            with open(paths[-1], "wb") as f:
                f.write(geotiff.encode_geotiff(np.full((8, 8), i, np.int32)))
        assert len(raster.catalog_paths(paths).to_pandas()) == 4


def _zonal_rasters():
    import ray.data

    from hand_index_ray.kernels import geotiff, wkb

    tri = np.array([[1.5, 1.5], [14.5, 2.5], [7.5, 13.5], [1.5, 1.5]])
    zone = wkb.encode(wkb.from_parts([[[tri]]]))[0]
    blobs = [geotiff.encode_geotiff(np.full((16, 16), i, np.int32),
                                    tile=(16, 16)) for i in range(4)]
    ds = ray.data.from_arrow(pa.table({"path": [f"r{i}" for i in range(4)],
                                       "bytes": pa.array(blobs, pa.binary())}))
    return ds, [zone]


def _zonal_stats():
    from hand_index_ray.pipelines import terrain

    assert len(terrain.zonal_stats(*_zonal_rasters()).to_pandas()) == 4


def _zonal_stats_windowed():
    from hand_index_ray.pipelines import terrain

    out = terrain.zonal_stats_windowed(*_zonal_rasters()).to_pandas()
    assert len(out) == 4


def _read_las():
    import tempfile

    from hand_index_ray.sources import las

    with tempfile.TemporaryDirectory() as d:
        las.write_las(f"{d}/a.las", np.arange(40), np.arange(40),
                      np.arange(40))
        assert las.read_las(f"{d}/a.las", shard_points=8).count() == 40


def _read_gpkg():
    import tempfile

    from hand_index_ray.kernels import wkb
    from hand_index_ray.sources import gpkg

    blobs = wkb.encode_box(np.arange(12.0), np.arange(12.0),
                           np.arange(12.0) + 1, np.arange(12.0) + 1)
    with tempfile.TemporaryDirectory() as d:
        gpkg.write_gpkg(f"{d}/a.gpkg", "t", range(1, 13), blobs)
        assert gpkg.read_gpkg(f"{d}/a.gpkg", shard_rows=3).count() == 12


def _read_shapefile():
    import tempfile

    from hand_index_ray.sources import shapefile

    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], float)
    with tempfile.TemporaryDirectory() as d:
        shapefile.write_shapefile(f"{d}/a", [[[sq + i]] for i in range(12)],
                                  fields={"n": list(range(12))})
        assert shapefile.read_shapefile(f"{d}/a",
                                        shard_records=3).count() == 12


def _read_archive(kind: str):
    import io
    import tarfile
    import tempfile
    import zipfile

    from hand_index_ray.sources import archive

    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/a.{kind}"
        if kind == "zip":
            with zipfile.ZipFile(path, "w") as z:
                for i in range(8):
                    z.writestr(f"{i}.bin", bytes([i]) * 4)
        else:
            with tarfile.open(path, "w") as t:
                for i in range(8):
                    info = tarfile.TarInfo(f"{i}.bin")
                    info.size = 4
                    t.addfile(info, io.BytesIO(bytes([i]) * 4))
        assert archive.read_archive(path, shard_members=2).count() == 8


def _grouped_zscore():
    import ray.data

    from hand_index_ray import relational as rel

    ds = ray.data.from_items([{"g": i % 3, "v": i, "id": i}
                              for i in range(30)])
    assert rel.grouped_zscore(ds, ["g"], "v", ["id"]).count() == 30


def _wait_for_cpus(ray, want: float, timeout_s: float = 5.0) -> float:
    end = time.monotonic() + timeout_s
    while True:
        got = ray.available_resources().get("CPU", 0.0)
        if got >= want or time.monotonic() >= end:
            return got
        time.sleep(0.1)


@pytest.mark.parametrize("run", [_broadcast_join, _bloom_prefilter,
                                 _band_join, _embed_images, _augment_spec,
                                 _footprint_dataset, _roi_query_footprints,
                                 _roi_query_catchments, _catalog_paths,
                                 _zonal_stats, _zonal_stats_windowed,
                                 _read_las, _read_gpkg, _read_shapefile,
                                 partial(_read_archive, "zip"),
                                 partial(_read_archive, "tar"),
                                 _grouped_zscore],
                         ids=["broadcast_join", "bloom_prefilter",
                              "band_join", "embed_images", "augment_spec",
                              "footprint_dataset", "roi_query_footprints",
                              "roi_query_catchments", "catalog_paths",
                              "zonal_stats", "zonal_stats_windowed",
                              "read_las", "read_gpkg", "read_shapefile",
                              "read_archive_zip", "read_archive_tar",
                              "grouped_zscore"])
def test_task_stage_gives_back_cpus(ray_session, run):
    import ray

    start = _wait_for_cpus(ray, ray.cluster_resources().get("CPU", 0.0))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for call in range(3):
            run()
            got = _wait_for_cpus(ray, start)
            assert got >= start, (
                f"call {call + 1}: {got} of {start} CPUs free 5 s after "
                "the dataset finished")
    finally:
        if was_enabled:
            gc.enable()
