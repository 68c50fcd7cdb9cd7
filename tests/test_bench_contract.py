"""The engine surface that ``perfbench/`` calls, checked without Ray.

If the benchmark's set-up raises, or every timed repetition raises,
``perfbench/run.py`` exits non-zero and the run is lost. This test
imports every name ``perfbench/{workloads,checks,fixtures}.py`` import
from ``hand_index_ray`` and binds each call shape they use against the
real signatures (``inspect.signature(...).bind``), so a renamed or
dropped keyword fails here, in seconds, instead of in a benchmark run.
The layer ledger's direct calls, made only by ``--trace 1`` runs, are
run once on a tiny table.
"""
import dataclasses
import inspect

import pytest

_X = object()  # placeholder argument: bind() checks shape, not type


def _binds(fn, *args, **kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_perfbench_imports_resolve():
    from hand_index_ray.config import EngineConfig  # noqa: F401
    from hand_index_ray.kernels import geom, h3exact, proj, s2, wkb
    from hand_index_ray.kernels import image as imk
    from hand_index_ray.pipelines.build import (build_index,  # noqa: F401
                                                compact_index, list_fragments)
    from hand_index_ray.pipelines.query import (  # noqa: F401
        bbox_scan, knn_query, lattice_cover, roi_query_footprints, zonal_join)
    from hand_index_ray.relational import grouped_apply_bucketed  # noqa: F401
    from hand_index_ray.sources import synth
    from hand_index_ray.stages.encode import (CellEncoder,  # noqa: F401
                                              decode_images, derive_footprints)
    from hand_index_ray.state.fsio import FS  # noqa: F401
    from hand_index_ray.state.manifest import Manifest

    used = {
        synth: ["HOT_LAT", "HOT_LON", "SYNTH_VERSION", "_FMTS", "_HS", "_WS",
                "catchment_table", "footprint_of", "images_batch",
                "make_pixels"],
        geom: ["PreparedPolygon", "bounds", "keep_mask", "overlap_stats",
               "rects_vs_polygon"],
        h3exact: ["latlng_to_cell"],
        imk: ["decode", "decode_jpeg_batch", "encode", "phash64"],
        proj: ["albers_to_lonlat"],
        s2: ["lonlat_to_cell", "parent"],
        wkb: ["Ragged", "decode", "from_parts"],
        Manifest: ["all_files", "files_for_bbox", "files_for_cells",
                   "compaction", "compaction_full", "records"],
    }
    missing = [f"{getattr(m, '__name__', m)}.{a}" for m, names in used.items()
               for a in names if not hasattr(m, a)]
    assert not missing, missing


def test_perfbench_call_shapes_bind():
    from hand_index_ray.config import EngineConfig
    from hand_index_ray.kernels import image as imk
    from hand_index_ray.pipelines.build import build_index, compact_index
    from hand_index_ray.pipelines.query import (bbox_scan, knn_query,
                                                lattice_cover,
                                                roi_query_footprints,
                                                zonal_join)
    from hand_index_ray.relational import grouped_apply_bucketed
    from hand_index_ray.stages.encode import derive_footprints

    _binds(build_index, _X, _X, _X, resume=False)
    _binds(compact_index, _X, _X)
    _binds(zonal_join, _X, _X, _X, skew_stats={})
    _binds(grouped_apply_bucketed, _X, ["cell"], _X, num_buckets=8)
    _binds(imk.decode_jpeg_batch, [b""], strict=True)
    _binds(imk.decode, b"", "png", w=8, h=8)
    _binds(knn_query, _X, 0.0, 0.0, 3, _X, stats=None)
    _binds(bbox_scan, _X, 0.0, 0.0, 1.0, 1.0)
    _binds(roi_query_footprints, _X, _X, 0.5, _X)
    _binds(lattice_cover, _X, _X, _X, _X, 10)
    _binds(derive_footprints, _X, _X)
    # the join workload's co-group config
    _binds(EngineConfig, zonal_broadcast_bytes=0)


@pytest.mark.parametrize("field", [
    "decode_batch_size", "footprint_formula", "part_level",
    "max_files_per_fragment", "zonal_join_level", "zonal_buckets",
    "zonal_broadcast_bytes", "hex_res_max", "s2_level"])
def test_engine_config_fields_perfbench_reads(field):
    from hand_index_ray.config import EngineConfig

    assert field in {f.name for f in dataclasses.fields(EngineConfig)}
    assert getattr(EngineConfig(), field) is not None


def test_perfbench_traced_ledger_calls_run(tmp_path):
    """Only ``--trace 1`` runs execute the ledger's direct layer calls
    (``_ledger_build_layers``, ``_ledger_lookups``); run each of them
    once here, on two tiny fragments, the way the ledger makes them."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hand_index_ray.config import EngineConfig
    from hand_index_ray.kernels import s2
    from hand_index_ray.pipelines.build import list_fragments
    from hand_index_ray.sources import synth
    from hand_index_ray.stages.encode import (CellEncoder, decode_images,
                                              derive_footprints)
    from hand_index_ray.state.fsio import FS
    from hand_index_ray.state.manifest import (FragmentRecord, Manifest,
                                               PartitionStat)

    cfg = EngineConfig()
    images = str(tmp_path / "images")
    synth.write_images(images, n=8, fragments=2)
    paths = list_fragments(images)
    assert len(paths) == 2
    tbl = pq.read_table(paths[0], use_threads=False)
    chunk = decode_images(tbl.slice(0, cfg.decode_batch_size))
    assert "decode_ok" in chunk.column_names
    chunk = derive_footprints(chunk, cfg.footprint_formula)
    out = CellEncoder(cfg)(chunk)
    cells = s2.parent(out.column("part_cell").to_numpy().astype(np.uint64),
                      cfg.part_level)
    cell = int(cells[0])

    index = str(tmp_path / "index")
    io = FS()
    rel = FS.join(f"cell={cell}", "frag-000000.parquet")
    dest = FS.join(index, rel)
    io.write_parquet_atomic(dest, out.filter(pa.array(cells == np.uint64(cell))))
    size = io.size(dest)
    assert size > 0

    Manifest.write_record(FS.join(index, "_manifest"), FragmentRecord(
        fragment_id=0, input_path=paths[0], row_count=out.num_rows,
        partitions=[PartitionStat(cell=cell, path=rel, row_count=out.num_rows,
                                  bytes=size, minx=-180.0, miny=-90.0,
                                  maxx=180.0, maxy=90.0)]))
    man = Manifest(index)
    assert man.files_for_cells(index, {cell}) == [dest]
    assert man.files_for_bbox(index, -1.0, -1.0, 1.0, 1.0) == [dest]
    rec, = man.records()
    assert rec.fragment_id == 0
    assert [p.bytes for p in rec.partitions] == [size]
