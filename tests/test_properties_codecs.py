"""Hypothesis property batteries for the late-r3 codecs/sources:
PNG (all color types), MVT geometry commands, Z-order covers, WKT,
LAS records, GeoPackage blobs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hand_index_ray.kernels import mvt, png, wkb, wkt, zorder


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["gray", "rgb", "rgba", "palette"]),
       st.booleans())
def test_png_roundtrip_property(h, w, seed, mode, interlace):
    rng = np.random.default_rng(seed)
    if mode == "gray":
        img = rng.integers(0, 256, (h, w), dtype=np.uint8)
        out, _ = png.decode(png.encode(img, interlace=interlace),
                            verify_crc=True)
        np.testing.assert_array_equal(out, img)
    elif mode == "rgb":
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        out, _ = png.decode(png.encode(img, interlace=interlace),
                            verify_crc=True)
        np.testing.assert_array_equal(out, img)
    elif mode == "rgba":
        img = rng.integers(0, 256, (h, w, 4), dtype=np.uint8)
        out, _ = png.decode(png.encode(img, interlace=interlace),
                            verify_crc=True)
        np.testing.assert_array_equal(out, img)
    else:
        npal = int(rng.integers(2, 256))
        pal = rng.integers(0, 256, (npal, 3), dtype=np.uint8)
        idx = rng.integers(0, npal, (h, w), dtype=np.uint8)
        out, _ = png.decode(png.encode(idx, palette=pal,
                                       interlace=interlace),
                            verify_crc=True)
        np.testing.assert_array_equal(out, pal[idx])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(3, 9))
def test_mvt_polygon_roundtrip_property(seed, nparts, nv):
    rng = np.random.default_rng(seed)
    parts = []
    for p in range(nparts):
        # strictly convex-ish ring around a random center: no
        # degenerate zero-area rings
        cx, cy = rng.integers(100, 4000, 2)
        ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
        rad = rng.integers(5, 90)
        ring = np.column_stack([
            cx + np.round(rad * np.cos(ang)),
            cy + np.round(rad * np.sin(ang))]).astype(np.int64)
        ring = ring[np.concatenate([[True], (np.diff(ring, axis=0) != 0)
                                    .any(axis=1)])]
        if len(ring) < 3:
            return
        # rounding can still collapse the ring to collinear points —
        # zero-area rings are invalid MVT geometry (the decoder's
        # exterior/hole grouping is by ring sign), so skip them
        x, y = ring[:, 0], ring[:, 1]
        a2 = int((x * np.roll(y, -1) - np.roll(x, -1) * y).sum())
        if a2 == 0:
            continue
        parts.append([ring])
    if not parts:
        return
    blob = mvt.encode_tile([{"name": "t", "features": [
        {"id": 1, "type": mvt.POLYGON, "geometry": parts}]}])
    dec = mvt.decode_tile(blob)[0]["features"][0]["geometry"]
    got = sorted(tuple(map(tuple, p[0])) for p in dec)
    want = sorted(tuple(map(tuple, p[0])) for p in parts)
    for g, w in zip(got, want):
        assert set(g) == set(w)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63),
       st.integers(0, 63), st.integers(1, 1000))
def test_zorder_cover_property(x0, y0, dx, dy, max_r):
    x1, y1 = min(x0 + dx, 63), min(y0 + dy, 63)
    r = zorder.bbox_ranges(x0, y0, x1, y1, 6, max_ranges=max_r)
    xs, ys = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    keys = zorder.encode(xs.ravel(), ys.ravel()).astype(np.int64)
    inside = ((xs.ravel() >= x0) & (xs.ravel() <= x1)
              & (ys.ravel() >= y0) & (ys.ravel() <= y1))
    got = zorder.keys_in_ranges(keys, r)
    # always a superset; exact when the cap doesn't coarsen
    assert (got | ~inside).all()
    if len(r) < max_r:
        np.testing.assert_array_equal(got, inside)
    assert len(r) <= max_r


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_wkt_roundtrip_property(seed, nparts):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(nparts):
        x0, y0 = rng.integers(-500, 500, 2)
        s = int(rng.integers(1, 50))
        ring = np.array([[x0, y0], [x0 + s, y0], [x0 + s, y0 + s],
                         [x0, y0 + s], [x0, y0]], float)
        parts.append([ring])
    r = wkb.from_parts([parts])
    back = wkt.decode_wkt(wkt.encode_wkt(r))
    np.testing.assert_array_equal(back.coords, r.coords)
    np.testing.assert_array_equal(back.part_ring_off, r.part_ring_off)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 500), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0, 1]))
def test_las_record_roundtrip_property(n, seed, fmt):
    import tempfile

    from hand_index_ray.sources import las

    rng = np.random.default_rng(seed)
    p = tempfile.mktemp(suffix=".las")
    xi = rng.integers(-2 ** 30, 2 ** 30, n)
    yi = rng.integers(-2 ** 30, 2 ** 30, n)
    zi = rng.integers(-2 ** 20, 2 ** 20, n)
    las.write_las(p, xi, yi, zi, point_format=fmt,
                  cls=rng.integers(0, 32, n))
    h = las.read_header(p)
    assert h["n_points"] == n
    # decode without Ray: one shard via the reader function directly
    import pyarrow as pa
    t = las._read_las_shards(pa.Table.from_pylist(las._las_shards(p, n)))
    np.testing.assert_array_equal(np.sort(t.column("xi").to_numpy()),
                                  np.sort(xi))
    np.testing.assert_array_equal(np.sort(t.column("zi").to_numpy()),
                                  np.sort(zi))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_gpkg_header_property(seed, big_endian, with_env):
    import struct

    from hand_index_ray.sources import gpkg

    rng = np.random.default_rng(seed)
    payload = bytes(rng.integers(0, 256, int(rng.integers(1, 64)),
                                 dtype=np.uint8))
    srs = int(rng.integers(-10, 10000))
    order = ">" if big_endian else "<"
    flags = (0 if big_endian else 1) | ((1 if with_env else 0) << 1)
    env = struct.pack(order + "4d", 0, 1, 2, 3) if with_env else b""
    blob = b"GP\x00" + bytes([flags]) + struct.pack(order + "i", srs) \
        + env + payload
    got_srs, got_wkb = gpkg.split_gp_header(blob)
    assert got_srs == srs and got_wkb == payload
