"""End-to-end workflow: the reference's full usage story on this
engine, in one chain (SURVEY.md §3):

  build images index (load.py analog) → build catchments catalog →
  ROI query with overlap filter (query_geojson.py) → attach sidecar
  attributes → per-catchment parquet sink → load results back →
  validate counts (viz analog) → kNN + zonal over the same index.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow.parquet as pq

from hand_index_ray.config import EngineConfig
from hand_index_ray.sources import synth

CFG = EngineConfig(decode_batch_size=64)


def test_full_workflow(ray_session, smoke_dirs, tmp_path):
    import ray.data

    from hand_index_ray.pipelines.build import (build_catchments, build_index,
                                                compact_index)
    from hand_index_ray.pipelines.query import (attach_attributes, knn_query,
                                                load_query_results,
                                                roi_query_catchments,
                                                roi_query_footprints,
                                                validate_roi, write_per_group,
                                                zonal_join)

    # 1) build + compact the footprint index
    idx = str(tmp_path / "index")
    stats = build_index(smoke_dirs["images"], idx, CFG)
    assert stats["rows_built"] == 400
    compact_index(idx, CFG)

    # 2) vector-side catalog from raw geometries (grouped union)
    raw = ray.data.read_parquet(os.path.join(smoke_dirs["vector"], "catchments.parquet"))
    catalog = build_catchments(raw.select_columns(["geometry", "branch_path"]), CFG)
    cat_path = str(tmp_path / "catalog.parquet")
    pq.write_table(
        __import__("pyarrow").concat_tables(
            [__import__("ray").get(r) for r in catalog.to_arrow_refs()]),
        cat_path)

    # 3) ROI query on the original catchments (reference parity path)
    ring = synth.roi_polygons()["huge"]
    kept = roi_query_catchments(os.path.join(smoke_dirs["vector"], "catchments.parquet"),
                                ring, threshold_pct=10.0, cfg=CFG).to_pandas()
    assert len(kept) > 0

    # 4) attributes + per-catchment sink + reload
    ids = sorted(set(kept["catchment_id"]))
    attrs = attach_attributes(ids, smoke_dirs["vector"])
    outdir = str(tmp_path / "results")
    files = write_per_group(attrs, outdir)
    assert len(files) == len(ids)
    back = load_query_results(outdir).to_pandas()
    assert set(back["catchment_id"]) == set(ids)

    # 5) validation counts are self-consistent
    rep = validate_roi(os.path.join(smoke_dirs["vector"], "catchments.parquet"),
                       ring, threshold_pct=10.0)
    assert rep["consistent"] and set(rep["kept_ids"]) == set(ids)

    # 6) footprint-side ROI + kNN + zonal on the same index
    ds = roi_query_footprints(idx, ring, threshold_pct=10.0, cfg=CFG)
    roi_tiles = 0 if ds is None else ds.count()
    knn = knn_query(idx, -98.0, 36.0, 10, CFG)
    assert len(knn) == 10
    pairs = zonal_join(idx, os.path.join(smoke_dirs["vector"], "catchments.parquet"),
                       CFG).count()
    assert roi_tiles >= 0 and pairs >= 0


def test_cli_subprocess_smoke(smoke_dirs, tmp_path):
    """Launch the real module CLI in a fresh process (its own Ray)."""
    out = str(tmp_path / "subproc_index")
    env = dict(os.environ)
    env["PYTHONPATH"] = "/root/repo"
    proc = subprocess.run(
        [sys.executable, "-m", "hand_index_ray", "build",
         "--images-dir", smoke_dirs["images"], "--output-dir", out, "--compact"],
        # generous: a fresh ray.init alone can take tens of seconds in
        # this VM's documented slow windows (BASELINE.md pathology), and
        # this test may run while the session-scoped suite holds 4 CPUs
        capture_output=True, text=True, timeout=540, env=env, cwd="/root/repo")
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["rows_built"] == 400
    assert res["compaction"]["cells"] >= 1
