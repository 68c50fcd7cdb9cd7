"""Determinism guarantees: parallel generation byte-identity, bucketed
group-apply equivalence, manifest cache semantics, codec fuzz."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hand_index_ray.kernels import image as imk
from hand_index_ray.sources import synth

settings.register_profile("fast2", max_examples=25, deadline=None)
settings.load_profile("fast2")


def test_parallel_generation_byte_identical(ray_session, tmp_path):
    """write_images_ray (Ray-parallel) must produce byte-identical
    fragment files to write_images (driver-side) — generation is a pure
    function of (seed, row range), required for resume byte-identity."""
    a = str(tmp_path / "serial")
    b = str(tmp_path / "parallel")
    pa_ = synth.write_images(a, n=120, fragments=4)
    pb = synth.write_images_ray(b, n=120, fragments=4)
    assert len(pa_) == len(pb) == 4
    for fa, fb in zip(pa_, pb):
        assert open(fa, "rb").read() == open(fb, "rb").read(), (fa, fb)


def test_grouped_apply_bucketed_equals_plain_groupby(ray_session):
    import pandas as pd
    import ray.data

    from hand_index_ray.relational import grouped_apply_bucketed

    rows = [{"k1": i % 13, "k2": f"g{i % 5}", "v": i} for i in range(500)]
    ds = ray.data.from_items(rows)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k1": [g["k1"].iloc[0]], "k2": [g["k2"].iloc[0]],
                             "s": [int(g["v"].sum())]})

    got = grouped_apply_bucketed(ds, ["k1", "k2"], fn, num_buckets=8).to_pandas()
    truth = (pd.DataFrame(rows).groupby(["k1", "k2"])["v"].sum()
             .reset_index().rename(columns={"v": "s"}))
    g = got.sort_values(["k1", "k2"]).reset_index(drop=True)
    t = truth.sort_values(["k1", "k2"]).reset_index(drop=True)
    assert g["s"].tolist() == t["s"].tolist()
    assert g["k1"].tolist() == t["k1"].tolist()


def test_manifest_fresh_instance_sees_new_records(ray_session, smoke_dirs, tmp_path):
    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.build import build_index
    from hand_index_ray.state.manifest import Manifest

    cfg = EngineConfig(decode_batch_size=64)
    idx = str(tmp_path / "m")
    build_index(smoke_dirs["images"], idx, cfg)
    m1 = Manifest(idx)
    n1 = len(m1.all_files(idx))
    assert n1 > 0
    # stats cache is per instance: a fresh Manifest re-reads disk
    os.unlink(Manifest.record_path(m1.dir, 0))
    m2 = Manifest(idx)
    assert len(m2.all_files(idx)) < n1
    # the old instance's cached view is unchanged (documented semantics)
    assert len(m1._stats_arrays()[0]) >= len(m2._stats_arrays()[0])


@given(h=st.integers(4, 80), w=st.integers(4, 80), seed=st.integers(0, 1000))
def test_codec_roundtrip_fuzz(h, w, seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    for fmt in ("raw", "ppm", "png"):
        out = imk.decode(imk.encode(img, fmt), fmt, w=w, h=h)
        np.testing.assert_array_equal(out, img)
    q = imk.decode(imk.encode(img, "qjpg"), "qjpg")
    assert np.abs(q.astype(int) - img.astype(int)).max() <= 3
    # phash defined for any size, scalar == batch
    assert imk.phash64(img) == imk.phash64_batch(img[None])[0]


@given(n=st.integers(1, 400))
def test_image_row_pure_function(n):
    r1 = synth.image_row(n)
    r2 = synth.image_row(n)
    assert r1["bytes"] == r2["bytes"]
    assert r1["phash"] == r2["phash"]
    assert r1["caption"] == r2["caption"]


def test_cell_ids_identical_across_processes():
    """Cell encoders are shuffle/partition keys: their values must be
    bit-identical in every worker process (tables built at import)."""
    import json
    import subprocess
    import sys

    script = (
        "import sys, json, numpy as np\n"
        "sys.path.insert(0, '/root/repo')\n"
        "from hand_index_ray.kernels import h3exact, s2\n"
        "lon = np.linspace(-120, -70, 50); lat = np.linspace(25, 48, 50)\n"
        "print(json.dumps({'s2': s2.lonlat_to_cell(lon, lat, 16).tolist(),\n"
        "                  'h3': h3exact.latlng_to_cell(lat, lon, 7).tolist()}))\n"
    )
    outs = []
    for _ in range(2):
        p = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, timeout=120)
        assert p.returncode == 0, p.stderr[-500:]
        outs.append(json.loads(p.stdout.strip().splitlines()[-1]))
    assert outs[0] == outs[1]
    # and identical to this process
    import numpy as np

    from hand_index_ray.kernels import h3exact, s2

    lon = np.linspace(-120, -70, 50)
    lat = np.linspace(25, 48, 50)
    assert s2.lonlat_to_cell(lon, lat, 16).tolist() == outs[0]["s2"]
    assert h3exact.latlng_to_cell(lat, lon, 7).tolist() == outs[0]["h3"]


def test_wkb_decode_rejects_malformed():
    import pytest as _pt

    from hand_index_ray.kernels import wkb as _wkb

    import struct
    # unsupported geometry type (LineString = 2)
    bad = struct.pack("<BI", 1, 2) + b"\x00" * 16
    with _pt.raises(ValueError):
        _wkb.decode([bad])
