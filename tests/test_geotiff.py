"""GeoTIFF codec + raster pipelines (kernels/geotiff.py,
pipelines/raster.py).

Reference parity: the reference globs ``*.tif`` HAND rasters and
stores their PATHS (load.py:44-45, load.py:239-253); this engine
additionally decodes them from spec. Spec pins: the TIFF-6 PackBits
worked example, MSB-first LZW bit packing on a hand-assembled stream,
early-change width growth via incompressible segments, TechNote-3
float predictor, zero-padded edge tiles, and the COG property that a
window read touches only intersecting tiles."""

import io

import numpy as np
import pyarrow as pa
import pytest

from hand_index_ray.kernels import geotiff as gt


def _rng():
    return np.random.default_rng(20260818)


# ---------------------------------------------------------------------------
# compression primitives


def test_packbits_spec_example():
    # TIFF 6.0 spec, PackBits section, published worked example
    packed = bytes.fromhex("FEAA0280002AFDAA0380002A22F7AA")
    expected = (b"\xAA" * 3 + b"\x80\x00\x2A" + b"\xAA" * 4
                + b"\x80\x00\x2A\x22" + b"\xAA" * 10)
    assert gt._packbits_decode(packed, len(expected)) == expected


def test_packbits_roundtrip():
    rng = _rng()
    for n in (1, 2, 3, 127, 128, 129, 300, 5000):
        for hi in (2, 256):  # runs-heavy and incompressible
            d = rng.integers(0, hi, size=n).astype(np.uint8).tobytes()
            assert gt._packbits_decode(gt._packbits_encode(d), n) == d


def test_lzw_hand_assembled_stream():
    # CLEAR, 'A', 'B', 258 (="AB"), EOI at 9 bits, MSB-first packing
    bits = "".join(format(c, "09b") for c in (256, 65, 66, 258, 257))
    bits += "0" * ((8 - len(bits) % 8) % 8)
    stream = bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
    assert gt._lzw_decode(stream) == b"ABAB"


def test_lzw_roundtrip_width_growth_and_clear():
    rng = _rng()
    cases = [b"", b"A", b"\x00" * 20000,
             bytes(range(256)) * 64,                      # dense table reuse
             rng.integers(0, 256, 70000).astype(np.uint8).tobytes()]  # forces 9→12 bits + CLEAR-on-full
    for d in cases:
        enc = gt._lzw_encode(d)
        assert gt._lzw_decode(enc, len(d)) == d
    # incompressible data must have grown the table past every
    # early-change boundary and reset at least once
    assert len(gt._lzw_encode(cases[-1])) > 70000  # expands ⇒ hit 12-bit codes


def test_lzw_truncated_raises():
    enc = gt._lzw_encode(b"ABCD" * 100)
    with pytest.raises(ValueError):
        gt._lzw_decode(enc[: len(enc) // 2], 400)


# ---------------------------------------------------------------------------
# predictors


def test_float_predictor_roundtrip_values():
    rng = _rng()
    a = rng.normal(size=(9, 31)).astype(np.float32)
    raw = gt._fpdiff_encode(a)
    back = gt._fpdiff_decode(raw, 9, 31, 4)
    assert np.array_equal(back.astype(np.float32), a)


def test_hdiff_wraparound():
    a = np.array([[0, 255, 0, 128], [7, 7, 7, 7]], np.uint8)
    assert np.array_equal(gt._hdiff_decode(gt._hdiff_encode(a)), a)
    b = np.array([[-(2 ** 31), 2 ** 31 - 1, -5]], np.int32)
    assert np.array_equal(gt._hdiff_decode(gt._hdiff_encode(b)), b)


# ---------------------------------------------------------------------------
# full-file roundtrips


@pytest.mark.parametrize("dtype,comp,pred,tile", [
    (np.uint8, "none", 1, None),
    (np.uint8, "packbits", 1, None),
    (np.uint8, "lzw", 2, None),
    (np.uint16, "lzw", 2, None),
    (np.int16, "deflate", 2, (16, 16)),
    (np.int32, "deflate", 2, None),
    (np.int32, "lzw", 2, (32, 16)),
    (np.float32, "deflate", 3, None),
    (np.float32, "lzw", 3, (16, 32)),
    (np.float64, "deflate", 3, None),
])
def test_geotiff_roundtrip(dtype, comp, pred, tile):
    rng = _rng()
    a = rng.integers(-100 if np.dtype(dtype).kind == "i" else 0, 200,
                     size=(37, 53)).astype(dtype)
    if np.dtype(dtype).kind == "f":
        a = (a * 0.37).astype(dtype)
    blob = gt.encode_geotiff(a, compression=comp, predictor=pred, tile=tile,
                             rows_per_strip=5, pixel_scale=(2.0, 2.0),
                             tiepoint=(0, 0, 100.0, 500.0), epsg=5070,
                             nodata=-9999)
    out, info = gt.decode_geotiff(blob)
    assert out.dtype == a.dtype and np.array_equal(out, a)
    assert info["compression"] == comp
    assert info["epsg"] == 5070 and info["nodata"] == -9999.0
    # geo bbox from tiepoint+scale (north-up)
    assert info["bbox"] == (100.0, 500.0 - 37 * 2.0, 100.0 + 53 * 2.0, 500.0)


def test_geographic_key_and_parse_info_header_only():
    a = np.arange(48 * 32, dtype=np.int32).reshape(48, 32)
    blob = gt.encode_geotiff(a, compression="lzw", predictor=2,
                             rows_per_strip=8, pixel_scale=(0.5, 0.5),
                             tiepoint=(0, 0, -98.0, 45.0), epsg=4326)
    info = gt.parse_info(blob)
    assert info["epsg"] == 4326 and info["dtype"] == "int32"
    assert not info["tiled"] and info["n_segments"] > 1
    # catalog stage contract: the IFD parse touches a tiny prefix of
    # the file, never the pixel segments
    assert info["header_bytes_read"] < 600 < len(blob)


def test_window_reads_only_intersecting_tiles():
    rng = _rng()
    a = rng.integers(0, 1000, size=(256, 256)).astype(np.int32)
    blob = gt.encode_geotiff(a, compression="lzw", predictor=2, tile=(64, 64),
                             pixel_scale=(1, 1), tiepoint=(0, 0, 0, 256),
                             epsg=5070)
    win, info = gt.decode_window(blob, 10, 10, 50, 50)  # 1 tile
    assert np.array_equal(win, a[10:60, 10:60])
    assert info["window_bytes_read"] < len(blob) / 8
    win2, info2 = gt.decode_window(blob, 60, 60, 10, 10)  # 4 tiles
    assert np.array_equal(win2, a[60:70, 60:70])
    assert info2["window_bytes_read"] < len(blob) / 2
    # file-like source (the pyarrow-fs shape) gives identical results
    win3, _ = gt.decode_window(io.BytesIO(blob), 10, 10, 50, 50)
    assert np.array_equal(win3, win)


def test_window_clamps_at_edges():
    a = np.arange(40 * 24, dtype=np.uint16).reshape(40, 24)
    blob = gt.encode_geotiff(a, compression="deflate", predictor=2,
                             rows_per_strip=7)
    win, _ = gt.decode_window(blob, 20, 35, 100, 100)
    assert np.array_equal(win, a[35:, 20:])


def test_big_endian_decode():
    """MM-order file (hand-built by byte-swapping the writer's output
    is unsafe; instead build a minimal MM file directly)."""
    a = np.array([[1, 2, 3], [4, 5, 600]], np.uint16)
    data = a.astype(">u2").tobytes()
    entries = [
        (256, 3, 1, (3,)), (257, 3, 1, (2,)), (258, 3, 1, (16,)),
        (259, 3, 1, (1,)), (262, 3, 1, (1,)), (273, 4, 1, (8,)),
        (277, 3, 1, (1,)), (278, 4, 1, (2,)), (279, 4, 1, (len(data),)),
        (339, 3, 1, (1,)),
    ]
    import struct
    ifd_off = 8 + len(data)
    buf = b"MM\x00*" + struct.pack(">I", ifd_off) + data
    buf += struct.pack(">H", len(entries))
    for tag, ft, cnt, vals in entries:
        ch = {3: "H", 4: "I"}[ft]
        payload = struct.pack(f">{cnt}{ch}", *vals).ljust(4, b"\x00")
        buf += struct.pack(">HHI", tag, ft, cnt) + payload
    buf += struct.pack(">I", 0)
    out, info = gt.decode_geotiff(buf)
    assert info["byte_order"] == ">"
    assert np.array_equal(out, a)


def test_reject_unknown_compression_and_multiband():
    a = np.zeros((8, 8), np.uint8)
    blob = bytearray(gt.encode_geotiff(a, compression="none"))
    with pytest.raises(ValueError):
        gt.encode_geotiff(a, compression="jpegish")
    with pytest.raises(ValueError):
        gt.encode_geotiff(np.zeros((4, 4), np.float32), predictor=2)
    with pytest.raises(ValueError):
        gt.encode_geotiff(a, compression="packbits", predictor=2)
    with pytest.raises(ValueError):
        gt.decode_geotiff(b"notatiff" + bytes(blob))


# ---------------------------------------------------------------------------
# image-ingest routing + pipelines


def test_sniff_and_image_decode_route():
    from hand_index_ray.kernels import image
    a = np.arange(32 * 48, dtype=np.int32).reshape(32, 48) % 251
    blob = gt.encode_geotiff(a, compression="lzw", predictor=2)
    assert image.sniff_format(blob) == "tif"
    rgb = image.decode(blob, "tif")
    assert rgb.shape == (32, 48, 3) and rgb.dtype == np.uint8
    assert np.array_equal(rgb[..., 0], rgb[..., 2])  # replicated band


def test_catalog_and_stats_pipelines(ray_session, tmp_path):
    import ray.data

    from hand_index_ray.pipelines import raster

    rng = _rng()
    blobs, paths = [], []
    for i in range(6):
        a = ((rng.integers(0, 256, size=(24, 20)) + i) % 256).astype(np.int32)
        a[0, :5] = 17  # nodata pixels
        blob = gt.encode_geotiff(a, compression="lzw" if i % 2 else "deflate",
                                 predictor=2, pixel_scale=(1.0, 1.0),
                                 tiepoint=(0, 0, 10.0 * i, 50.0), epsg=5070,
                                 nodata=17)
        blobs.append(blob)
        p = tmp_path / f"r{i}.tif"
        p.write_bytes(blob)
        paths.append(str(p))

    # path catalog: header-only ranged reads through the FS adapter
    cat = raster.catalog_paths(paths).to_pandas()
    cat = cat.sort_values("path").reset_index(drop=True)
    assert len(cat) == 6
    assert (cat["width"] == 20).all() and (cat["epsg"] == 5070).all()
    assert cat.loc[0, "minx"] == 0.0 and cat.loc[0, "maxy"] == 50.0
    assert set(cat["compression"]) == {"lzw", "deflate"}

    # blob catalog matches the path catalog
    ds = ray.data.from_arrow(pa.table({
        "path": pa.array(paths, pa.string()),
        "bytes": pa.array(blobs, pa.binary())}))
    cat2 = raster.catalog_blobs(ds).to_pandas().sort_values("path").reset_index(drop=True)
    assert cat2.equals(cat)

    # stats: nodata-masked exact integer aggregation
    st = raster.raster_stats(ds).to_pandas().sort_values("path").reset_index(drop=True)
    for i in range(6):
        arr, info = gt.decode_geotiff(blobs[i])
        m = arr != 17
        row = st[st["path"] == paths[i]].iloc[0]
        assert row["n_valid"] == int(m.sum())
        assert row["px_sum"] == int(arr[m].astype(np.int64).sum())
        assert row["px_min"] == int(arr[m].min())
        assert row["px_max"] == int(arr[m].max())


def test_window_scan_via_fs_adapter(tmp_path):
    """COG shape end-to-end: open via FS adapter, ranged reads only."""
    from hand_index_ray.pipelines.raster import window_sum_one
    from hand_index_ray.state.fsio import FS

    rng = _rng()
    a = rng.integers(0, 500, size=(128, 128)).astype(np.int32)
    blob = gt.encode_geotiff(a, compression="deflate", predictor=2,
                             tile=(32, 32))
    p = tmp_path / "cog.tif"
    p.write_bytes(blob)
    io_ = FS(None)
    f = io_.open_input(str(p))
    try:
        res = window_sum_one(f, 5, 5, 20, 20)
    finally:
        f.close()
    assert res["win_sum"] == int(a[5:25, 5:25].astype(np.int64).sum())
    assert res["n_px"] == 400
    assert res["bytes_read"] < len(blob) / 4  # 1 of 16 tiles + IFD


# ---------------------------------------------------------------------------
# multi-band (chunky), BigTIFF, overview IFD chain


def _rngnd(seed, shape, hi=256, dtype=np.int32):
    return np.random.RandomState(seed).randint(0, hi, size=shape).astype(dtype)


def test_multiband_roundtrip_strip_and_tile():
    a = _rngnd(70, (21, 17, 3))
    for kw in (dict(compression="deflate", predictor=2),
               dict(compression="lzw", predictor=2),
               dict(compression="packbits"),
               dict(compression="deflate", predictor=2, tile=(16, 16))):
        blob = gt.encode_geotiff(a, **kw)
        out, info = gt.decode_geotiff(blob)
        assert info["bands"] == 3
        np.testing.assert_array_equal(out, a)


def test_multiband_predictor_differenced_per_channel():
    # a constant-per-channel image must compress tiny under predictor 2
    # ONLY if differencing respects the channel stride
    a = np.empty((32, 32, 3), np.int32)
    a[..., 0], a[..., 1], a[..., 2] = 11, 222, 3333
    blob = gt.encode_geotiff(a, compression="deflate", predictor=2)
    assert len(blob) < a.nbytes // 20
    out, _ = gt.decode_geotiff(blob)
    np.testing.assert_array_equal(out, a)


def test_multiband_window():
    a = _rngnd(71, (48, 64, 2))
    blob = gt.encode_geotiff(a, compression="deflate", predictor=2,
                                  tile=(16, 16))
    win, info = gt.decode_window(blob, 10, 5, 20, 30)
    np.testing.assert_array_equal(win, a[5:35, 10:30])
    assert info["window_bytes_read"] < len(blob)


def test_bigtiff_roundtrip_and_window():
    a = _rngnd(72, (37, 48))
    blob = gt.encode_geotiff(a, compression="lzw", predictor=2,
                                  tile=(16, 16), bigtiff=True, epsg=5070,
                                  nodata=7)
    assert blob[:4] == b"II+\x00"
    info = gt.parse_info(blob)
    assert info["bigtiff"] and info["epsg"] == 5070 and info["nodata"] == 7.0
    out, _ = gt.decode_geotiff(blob)
    np.testing.assert_array_equal(out, a)
    win, wi = gt.decode_window(blob, 17, 3, 13, 21)
    np.testing.assert_array_equal(win, a[3:24, 17:30])
    assert wi["window_bytes_read"] < len(blob)


def test_bigtiff_classic_same_pixels():
    a = _rngnd(73, (25, 30))
    c = gt.decode_geotiff(gt.encode_geotiff(a))[0]
    b = gt.decode_geotiff(gt.encode_geotiff(a, bigtiff=True))[0]
    np.testing.assert_array_equal(c, b)


def test_overview_chain_parse_and_decode():
    a = _rngnd(74, (40, 56))
    blob = gt.encode_geotiff(a, compression="deflate", predictor=2,
                                  overviews=2)
    info = gt.parse_info(blob)
    assert [o["width"] for o in info["overviews"]] == [28, 14]
    assert [o["height"] for o in info["overviews"]] == [20, 10]
    assert all(o["is_overview"] for o in info["overviews"])
    assert not info["is_overview"]
    l0, _ = gt.decode_geotiff(blob)
    np.testing.assert_array_equal(l0, a)
    exp1 = gt._halve_floor(a)
    l1, i1 = gt.decode_geotiff(blob, level=1)
    np.testing.assert_array_equal(l1, exp1)
    assert i1["is_overview"]
    l2, _ = gt.decode_geotiff(blob, level=2)
    np.testing.assert_array_equal(l2, gt._halve_floor(exp1))


def test_overview_odd_dims_edge_average():
    # 5x5: the last overview row/col averages only the existing pixels
    a = np.arange(25, dtype=np.int32).reshape(5, 5)
    ov = gt._halve_floor(a)
    assert ov.shape == (3, 3)
    assert ov[0, 0] == (0 + 1 + 5 + 6) // 4
    assert ov[0, 2] == (4 + 9) // 2       # 1x2 edge block
    assert ov[2, 2] == 24                 # single corner pixel


def test_overview_window_read_partial():
    a = _rngnd(75, (96, 128), hi=1000)
    blob = gt.encode_geotiff(a, compression="deflate", predictor=2,
                                  tile=(16, 16), overviews=1)
    exp = gt._halve_floor(a)
    win, info = gt.decode_window(blob, 4, 6, 20, 10, level=1)
    np.testing.assert_array_equal(win, exp[6:16, 4:24])
    # level-1 window touches only that level's tiles, not level 0
    assert info["window_bytes_read"] < len(blob) / 4


def test_overview_levels_deeper_than_chain_raises():
    blob = gt.encode_geotiff(_rngnd(76, (16, 16)), overviews=1)
    with pytest.raises(ValueError, match="no overview level"):
        gt.decode_geotiff(blob, level=2)


def test_bigtiff_multiband_overviews_combined():
    a = _rngnd(77, (33, 45, 3), hi=500)
    blob = gt.encode_geotiff(a, compression="lzw", predictor=2,
                                  tile=(16, 16), bigtiff=True, overviews=2)
    info = gt.parse_info(blob)
    assert info["bigtiff"] and info["bands"] == 3
    assert len(info["overviews"]) == 2
    out, _ = gt.decode_geotiff(blob)
    np.testing.assert_array_equal(out, a)
    l1, _ = gt.decode_geotiff(blob, level=1)
    np.testing.assert_array_equal(l1, gt._halve_floor(a))
