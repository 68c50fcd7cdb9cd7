"""Terrain/hydrology raster ops (pipelines/terrain.py) vs brute-force
pure-Python references, plus the no-edge-pixel guarantee the zonal
oracle SQL relies on."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from hand_index_ray.kernels import geotiff
from hand_index_ray.kernels import wkb as kwkb
from hand_index_ray.pipelines import mining, terrain

# Triangles used by q126's zones (pixel space). Scaled-by-10 integer
# vertices so exact sign tests are possible in SQL and in this test.
TRI_A = [(3.2, 1.7), (44.1, 5.3), (20.6, 34.8)]
TRI_B = [(25.3, 2.1), (46.2, 30.7), (5.4, 28.9)]
W, H = 48, 37


def tri_wkb(tri):
    return kwkb.encode(kwkb.from_parts([[[np.array(tri + [tri[0]])]]]))[0]


def tri_mask_exact(tri, w, h):
    """Strict-sign half-plane containment at pixel centers with
    scaled-by-10 EXACT integer arithmetic (the oracle's formulation)."""
    v = [(round(a * 10), round(b * 10)) for a, b in tri]
    xs = np.arange(w) * 10 + 5
    ys = np.arange(h) * 10 + 5
    X, Y = np.meshgrid(xs, ys)  # both (h, w), row-major like the raster
    c = []
    for i in range(3):
        (x0, y0), (x1, y1) = v[i], v[(i + 1) % 3]
        c.append((x1 - x0) * (Y - y0) - (y1 - y0) * (X - x0))
    c = np.stack(c)
    assert (c != 0).all(), "a pixel center lies exactly on a zone edge"
    return (c > 0).all(axis=0) | (c < 0).all(axis=0)


def blob_of(arr, **kw):
    kw.setdefault("compression", "deflate")
    kw.setdefault("predictor", 2)
    return geotiff.encode_geotiff(arr, **kw)


def rng_raster(seed, h=H, w=W, lo=0, hi=256, dtype=np.int32):
    r = np.random.RandomState(seed)
    return r.randint(lo, hi, size=(h, w)).astype(dtype)


def ds_of(arrs, **kw):
    t = pa.table({"path": pa.array([f"r{i}" for i in range(len(arrs))]),
                  "bytes": pa.array([blob_of(a, **kw) for a in arrs],
                                    pa.binary())})
    return ray.data.from_arrow(t)


def test_zone_edges_clear():
    # the property every zonal oracle depends on: no pixel center of
    # the q126 grid sits exactly on an edge of either zone triangle
    tri_mask_exact(TRI_A, W, H)
    tri_mask_exact(TRI_B, W, H)


def test_zonal_stats_vs_exact_mask(ray_session):
    arrs = [rng_raster(s) for s in (1, 2, 3)]
    nd = 17
    ds = ds_of(arrs, nodata=nd)
    out = terrain.zonal_stats(
        ds, [tri_wkb(TRI_A), tri_wkb(TRI_B)]).to_pandas()
    out = out.sort_values(["path", "zone"]).reset_index(drop=True)
    masks = [tri_mask_exact(TRI_A, W, H), tri_mask_exact(TRI_B, W, H)]
    exp = []
    for i, a in enumerate(arrs):
        for zi, m in enumerate(masks):
            sel = a[m & (a != nd)]
            exp.append((f"r{i}", zi, int(sel.astype(np.int64).sum()),
                        int(sel.size)))
    got = list(out.itertuples(index=False, name=None))
    assert got == exp


def test_zonal_mask_cached_per_dims(ray_session):
    st = terrain.ZonalStats([tri_wkb(TRI_A)])
    t = pa.table({"path": ["a", "b"],
                  "bytes": pa.array([blob_of(rng_raster(7)),
                                     blob_of(rng_raster(8))], pa.binary())})
    st(t)
    assert list(st._masks) == [(H, W)]
    first = st._masks[(H, W)][0]
    st(t)
    assert st._masks[(H, W)][0] is first  # not recomputed


def brute_slope(a):
    a = a.astype(np.int64)
    s = mx = n = 0
    for y in range(1, a.shape[0] - 1):
        for x in range(1, a.shape[1] - 1):
            g = abs(a[y, x + 1] - a[y, x - 1]) + abs(a[y + 1, x] - a[y - 1, x])
            s += g
            mx = max(mx, g)
            n += 1
    return s, mx, n


def test_slope_stats(ray_session):
    arrs = [rng_raster(s, h=9, w=11) for s in (4, 5)]
    out = terrain.slope_stats(ds_of(arrs)).to_pandas()
    out = out.sort_values("path").reset_index(drop=True)
    for i, a in enumerate(arrs):
        s, mx, n = brute_slope(a)
        row = out.iloc[i]
        assert (row.grad_sum, row.grad_max, row.n_interior) == (s, mx, n)


def brute_d8(a):
    a = a.astype(np.int64)
    out = {}
    for y in range(1, a.shape[0] - 1):
        for x in range(1, a.shape[1] - 1):
            best, bd = -1, 0
            for code, (dx, dy) in enumerate(terrain.D8_OFFSETS):
                drop = a[y, x] - a[y + dy, x + dx]
                if drop > bd:  # strict: first max wins ties
                    best, bd = code, drop
            out[best] = out.get(best, 0) + 1
    return out


def test_flow_direction_counts(ray_session):
    arrs = [rng_raster(s, h=8, w=10, hi=12) for s in (6, 7)]  # small range → ties+pits
    out = terrain.flow_direction_counts(ds_of(arrs)).to_pandas()
    for i, a in enumerate(arrs):
        sub = out[out.path == f"r{i}"]
        got = dict(zip(sub.direction, sub.n_px))
        assert got == brute_d8(a)
    # pits exist in at least one raster with such a tiny value range
    assert (out.direction == -1).any()


def test_flow_direction_tiebreak_first_code(ray_session):
    # plateau sloping equally E and S: code 0 (E) must win over 2 (S)
    a = np.zeros((3, 3), np.int32)
    a[1, 1] = 5
    a[1, 2] = a[2, 1] = 1  # equal drops E and S
    a[0, :] = a[:, 0] = a[2, 2] = a[0, 2] = a[2, 0] = 9
    d8 = terrain._d8_one(a)
    assert d8.shape == (1, 1) and d8[0, 0] == 0


def brute_overviews(a, levels):
    a = a.astype(np.int64)
    out = []
    for _ in range(levels):
        h, w = a.shape
        nxt = np.zeros((h // 2, w // 2), np.int64)
        for y in range(h // 2):
            for x in range(w // 2):
                nxt[y, x] = a[2 * y:2 * y + 2, 2 * x:2 * x + 2].sum() // 4
        out.append(nxt)
        a = nxt
    return out


def test_overview_checksums(ray_session):
    arrs = [rng_raster(s, h=12, w=8) for s in (9, 10)]
    out = terrain.overview_checksums(ds_of(arrs), levels=2).to_pandas()
    for i, a in enumerate(arrs):
        sub = out[out.path == f"r{i}"].sort_values("level")
        exp = brute_overviews(a, 2)
        assert list(sub.px_sum) == [int(e.sum()) for e in exp]
        assert list(zip(sub.h, sub.w)) == [e.shape for e in exp]


def test_overview_odd_dims_raises():
    with pytest.raises(ValueError, match="even dims"):
        terrain._overview_levels(np.zeros((6, 6), np.int32), levels=2)


def test_contour_case_counts(ray_session):
    arrs = [rng_raster(s, h=7, w=9, hi=4) for s in (11, 12)]
    thr = 1
    out = terrain.contour_case_counts(ds_of(arrs), threshold=thr).to_pandas()
    for i, a in enumerate(arrs):
        sub = out[out.path == f"r{i}"]
        got = dict(zip(sub.ms_case, sub.n_cells))
        exp = {}
        for y in range(a.shape[0] - 1):
            for x in range(a.shape[1] - 1):
                code = (int(a[y, x] > thr) + 2 * int(a[y, x + 1] > thr)
                        + 4 * int(a[y + 1, x] > thr)
                        + 8 * int(a[y + 1, x + 1] > thr))
                exp[code] = exp.get(code, 0) + 1
        assert got == exp


def test_resample_nn(ray_session):
    arrs = [rng_raster(s, h=13, w=17) for s in (13, 14)]
    ow, oh = 5, 4
    out = terrain.resample_nn(ds_of(arrs), ow, oh).to_pandas()
    out = out.sort_values("path").reset_index(drop=True)
    for i, a in enumerate(arrs):
        r = np.array([[a[(y * 13) // oh, (x * 17) // ow]
                       for x in range(ow)] for y in range(oh)], np.int64)
        row = out.iloc[i]
        assert (row.rs_sum, row.rs_min, row.rs_max) == (
            int(r.sum()), int(r.min()), int(r.max()))


def brute_walk(a, drain_thresh=None):
    """Step-by-step D8 walk from one start cell: returns (path_len,
    terminal_flat_idx)."""
    a = a.astype(np.int64)
    h, w = a.shape

    def walk(y, x):
        n = 0
        while True:
            if drain_thresh is not None and a[y, x] < drain_thresh:
                return n, y * w + x
            if y in (0, h - 1) or x in (0, w - 1):
                return n, y * w + x
            best, bd = -1, 0
            for code, (dx, dy) in enumerate(terrain.D8_OFFSETS):
                drop = a[y, x] - a[y + dy, x + dx]
                if drop > bd:
                    best, bd = code, drop
            if best == -1:
                return n, y * w + x
            dx, dy = terrain.D8_OFFSETS[best]
            x, y, n = x + dx, y + dy, n + 1

    return walk


def test_flow_terminals_vs_brute(ray_session):
    for seed in (30, 31):
        a = rng_raster(seed, h=9, w=11, hi=40)
        d, term = terrain._flow_terminals(a)
        wk = brute_walk(a)
        for y in range(1, 8):
            for x in range(1, 10):
                n, t = wk(y, x)
                i = y * 11 + x
                assert (d[i], term[i]) == (n, t), (seed, y, x)


def test_flow_terminals_drainage_vs_brute(ray_session):
    thr = 6
    for seed in (32, 33):
        a = rng_raster(seed, h=9, w=11, hi=30)
        d, term = terrain._flow_terminals(a, drain_thresh=thr)
        wk = brute_walk(a, drain_thresh=thr)
        for y in range(1, 8):
            for x in range(1, 10):
                n, t = wk(y, x)
                i = y * 11 + x
                assert (d[i], term[i]) == (n, t), (seed, y, x)


def test_flow_path_stats(ray_session):
    arrs = [rng_raster(s, h=10, w=12, hi=25) for s in (34, 35)]
    out = terrain.flow_path_stats(ds_of(arrs)).to_pandas()
    out = out.sort_values("path").reset_index(drop=True)
    for i, a in enumerate(arrs):
        wk = brute_walk(a)
        lens, pits, edges = [], 0, 0
        for y in range(1, 9):
            for x in range(1, 11):
                n, t = wk(y, x)
                lens.append(n)
                ty, tx = divmod(t, 12)
                if ty in (0, 9) or tx in (0, 11):
                    edges += 1
                else:
                    pits += 1
        row = out.iloc[i]
        assert (row.path_sum, row.path_max, row.n_pit, row.n_edge) == (
            sum(lens), max(lens), pits, edges)
        assert row.n_pit + row.n_edge == 8 * 10


def test_hand_stats(ray_session):
    thr = 5
    arrs = [rng_raster(s, h=10, w=12, hi=28) for s in (36, 37)]
    out = terrain.hand_stats(ds_of(arrs), drain_thresh=thr).to_pandas()
    out = out.sort_values("path").reset_index(drop=True)
    for i, a in enumerate(arrs):
        wk = brute_walk(a, drain_thresh=thr)
        hands, und = [], 0
        av = a.astype(np.int64).ravel()
        for y in range(1, 9):
            for x in range(1, 11):
                _, t = wk(y, x)
                if av[t] < thr:
                    hands.append(av[y * 12 + x] - av[t])
                else:
                    und += 1
        row = out.iloc[i]
        assert (row.n_drained, row.hand_sum, row.hand_max,
                row.n_undrained) == (len(hands), sum(hands),
                                     max(hands) if hands else 0, und)
        assert (out.iloc[i].n_drained + und) == 8 * 10
    # HAND is nonneg by construction (values strictly decrease downhill)
    assert (out.hand_max >= 0).all()


def test_flow_accumulation_vs_walk(ray_session):
    thr = 4
    arrs = [rng_raster(s, h=9, w=11, hi=30) for s in (40, 41)]
    out = terrain.flow_accumulation(ds_of(arrs), channel_thresh=thr).to_pandas()
    out = out.sort_values("path").reset_index(drop=True)
    for i, a in enumerate(arrs):
        wk = brute_walk(a)
        acc = np.zeros(9 * 11, np.int64)
        for y in range(1, 8):
            for x in range(1, 10):
                # walk the path, incrementing every cell AFTER the start
                cy, cx = y, x
                while True:
                    n0, t = wk(cy, cx)
                    if n0 == 0:
                        break
                    best, bd = -1, 0
                    for code, (dx, dy) in enumerate(terrain.D8_OFFSETS):
                        drop = int(a[cy, cx]) - int(a[cy + dy, cx + dx])
                        if drop > bd:
                            best, bd = code, drop
                    dx, dy = terrain.D8_OFFSETS[best]
                    cx, cy = cx + dx, cy + dy
                    acc[cy * 11 + cx] += 1
        row = out.iloc[i]
        assert row.acc_max == acc.max()
        assert row.n_channel == int((acc >= thr).sum())


def test_morphology_stats(ray_session):
    arrs = [rng_raster(s, h=8, w=9) for s in (42, 43)]
    out = terrain.morphology_stats(ds_of(arrs)).to_pandas()
    out = out.sort_values("path").reset_index(drop=True)
    for i, a in enumerate(arrs):
        a64 = a.astype(np.int64)
        di = np.zeros((6, 7), np.int64)
        er = np.zeros((6, 7), np.int64)
        for y in range(1, 7):
            for x in range(1, 8):
                nb = a64[y - 1:y + 2, x - 1:x + 2]
                di[y - 1, x - 1] = nb.max()
                er[y - 1, x - 1] = nb.min()
        row = out.iloc[i]
        assert (row.dilate_sum, row.erode_sum, row.mgrad_sum) == (
            int(di.sum()), int(er.sum()), int((di - er).sum()))


def test_bilinear_exact_rational(ray_session):
    from fractions import Fraction
    a = rng_raster(44, h=7, w=9)
    out = terrain._bilinear_one(a, 5, 4)
    for oy in range(4):
        for ox in range(5):
            u = Fraction(ox * 8, 4)   # x coord, den 4 = out_w-1
            v = Fraction(oy * 6, 3)   # y coord, den 3 = out_h-1
            x0, y0 = int(u), int(v)
            fx, fy = u - x0, v - y0
            x1, y1 = min(x0 + 1, 8), min(y0 + 1, 6)
            val = ((1 - fx) * (1 - fy) * int(a[y0, x0])
                   + fx * (1 - fy) * int(a[y0, x1])
                   + (1 - fx) * fy * int(a[y1, x0])
                   + fx * fy * int(a[y1, x1]))
            assert out[oy, ox] == val.numerator // val.denominator


def test_bilinear_corners_exact(ray_session):
    a = rng_raster(45, h=6, w=8)
    out = terrain._bilinear_one(a, 3, 3)
    assert out[0, 0] == a[0, 0] and out[2, 2] == a[5, 7]
    assert out[0, 2] == a[0, 7] and out[2, 0] == a[5, 0]


def test_mosaic_max(ray_session):
    arrs = [rng_raster(s, h=6, w=7) for s in (46, 47, 48, 49)]
    grp = [0, 0, 1, 1]
    t = pa.table({"grp": pa.array(grp, pa.int64()),
                  "bytes": pa.array([blob_of(a) for a in arrs], pa.binary())})
    out = terrain.mosaic_max(ray.data.from_arrow(t), "grp").to_pandas()
    out = out.sort_values("grp").reset_index(drop=True)
    for g in (0, 1):
        mo = np.maximum(*[a.astype(np.int64)
                          for a, gg in zip(arrs, grp) if gg == g])
        row = out.iloc[g]
        assert (row.n_members, row.mosaic_sum, row.mosaic_max) == (
            2, int(mo.sum()), int(mo.max()))


TRI_C = [(12.7, 8.3), (52.7, 14.6), (30.7, 40.5)]  # q138's window zone


def test_zone_c_edges_clear():
    tri_mask_exact(TRI_C, 96, 80)


def test_zonal_windowed_equals_full(ray_session):
    arrs = [rng_raster(s, h=80, w=96) for s in (50, 51)]
    ds = ds_of(arrs, tile=(16, 16), nodata=17)
    zw = [tri_wkb(TRI_C)]
    full = terrain.zonal_stats(ds_of(arrs, tile=(16, 16), nodata=17),
                               zw).to_pandas()
    win = terrain.zonal_stats_windowed(ds, zw).to_pandas()
    full = full.sort_values("path").reset_index(drop=True)
    win = win.sort_values("path").reset_index(drop=True)
    assert list(win.zone_sum) == list(full.zone_sum)
    assert list(win.zone_count) == list(full.zone_count)
    # the zone bbox covers ~12 of 30 tiles: the windowed path must
    # touch well under the full blob
    blob_len = len(blob_of(arrs[0], tile=(16, 16), nodata=17))
    assert (win.bytes_read < 0.6 * blob_len).all()


def test_zonal_windowed_mask_cache(ray_session):
    st = terrain.ZonalStatsWindowed([tri_wkb(TRI_C)])
    t = pa.table({"path": ["a", "b"],
                  "bytes": pa.array([blob_of(rng_raster(52, h=80, w=96),
                                             tile=(16, 16)),
                                     blob_of(rng_raster(53, h=80, w=96),
                                             tile=(16, 16))], pa.binary())})
    st(t)
    assert len(st._masks) == 1  # one (zone, window) pair, built once


def brute_cc_count(binm):
    h, w = binm.shape
    seen = np.zeros_like(binm, bool)
    n = 0
    for y0 in range(h):
        for x0 in range(w):
            if binm[y0, x0] and not seen[y0, x0]:
                n += 1
                stack = [(y0, x0)]
                seen[y0, x0] = True
                while stack:
                    y, x = stack.pop()
                    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < h and 0 <= xx < w and binm[yy, xx] \
                                and not seen[yy, xx]:
                            seen[yy, xx] = True
                            stack.append((yy, xx))
    return n


def test_cc_labels_vs_bfs(ray_session):
    for seed in (54, 55, 56):
        b = rng_raster(seed, h=13, w=17, hi=2).astype(bool)
        lab = terrain._cc_labels(b)
        assert np.unique(lab[lab >= 0]).size == brute_cc_count(b)
        assert (lab[~b] == -1).all()
        # label of each region is its minimum flat index
        for r in np.unique(lab[lab >= 0]):
            cells = np.flatnonzero((lab == r).ravel())
            assert r == cells.min()


def test_polygonize_counts(ray_session):
    arrs = [rng_raster(s, h=10, w=12, hi=23) for s in (57, 58)]
    out = terrain.polygonize_counts(ds_of(arrs), threshold=11).to_pandas()
    for i, a in enumerate(arrs):
        sub = out[out.path == f"r{i}"].sort_values("above")
        b = a > 11
        assert list(sub.n_regions) == [brute_cc_count(~b), brute_cc_count(b)]
        assert list(sub.n_px) == [int((~b).sum()), int(b.sum())]


def test_nearest_site_counts(ray_session):
    sites = [(2.5, 1.5), (8.5, 6.5), (4.5, 9.5)]
    arrs = [rng_raster(s, h=11, w=10) for s in (59, 60)]
    out = terrain.nearest_site_counts(ds_of(arrs), sites).to_pandas()
    for i, a in enumerate(arrs):
        sub = out[out.path == f"r{i}"].sort_values("site")
        cnt = {s: 0 for s in range(3)}
        ssum = {s: 0 for s in range(3)}
        for y in range(11):
            for x in range(10):
                d2 = [(x + 0.5 - sx) ** 2 + (y + 0.5 - sy) ** 2
                      for sx, sy in sites]
                s = int(np.argmin(d2))  # numpy argmin = first min
                cnt[s] += 1
                ssum[s] += int(a[y, x])
        assert list(sub.n_px) == [cnt[s] for s in range(3)]
        assert list(sub.site_sum) == [ssum[s] for s in range(3)]


def test_ops_survive_mixed_codecs(ray_session):
    # same raster through 4 codec paths must agree op-for-op
    a = rng_raster(20, h=12, w=16)
    variants = [blob_of(a), blob_of(a, compression="lzw"),
                blob_of(a, compression="packbits", predictor=1),
                blob_of(a, compression="none", predictor=1, tile=(16, 16))]
    t = pa.table({"path": [f"v{i}" for i in range(4)],
                  "bytes": pa.array(variants, pa.binary())})
    ds = ray.data.from_arrow(t)
    sl = terrain.slope_stats(ds).to_pandas()
    assert sl.grad_sum.nunique() == 1 and sl.grad_max.nunique() == 1
    ov = terrain.overview_checksums(ds, levels=2).to_pandas()
    assert ov.groupby("level").px_sum.nunique().eq(1).all()


def test_hillshade_brute_parity(ray_session):
    """hillshade_stats vs a scalar reimplementation on random grids."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from hand_index_ray.kernels.geotiff import encode_geotiff
    from hand_index_ray.pipelines import mining, terrain

    rng = np.random.default_rng(11)
    arrs = [rng.integers(0, 200, (9, 12)).astype(np.int32)
            for _ in range(3)]
    ds = ray.data.from_arrow(pa.table({
        "path": pa.array([f"r{i}" for i in range(3)]),
        "bytes": pa.array([encode_geotiff(a) for a in arrs],
                          pa.binary())}))
    df = terrain.hillshade_stats(ds, lx=2, ly=3, lz_k=128) \
        .to_pandas().sort_values("path").reset_index(drop=True)
    for i, a in enumerate(arrs):
        a = a.astype(np.int64)
        want_sum = want_shadow = 0
        for y in range(1, 8):
            for x in range(1, 11):
                raw = 128 - 2 * (a[y, x + 1] - a[y, x - 1]) \
                    - 3 * (a[y + 1, x] - a[y - 1, x])
                want_sum += max(raw, 0)
                want_shadow += raw < 0
        assert df.shade_sum[i] == want_sum
        assert df.n_shadow[i] == want_shadow
        assert df.n_interior[i] == 7 * 10


def test_laplacian_stats_brute(ray_session):
    from hand_index_ray.kernels.geotiff import encode_geotiff
    from hand_index_ray.pipelines.terrain import laplacian_stats

    rng = np.random.default_rng(9)
    arr = rng.integers(0, 200, (9, 12)).astype(np.int32)
    blob = encode_geotiff(arr)
    ds = ray.data.from_arrow(pa.table({
        "path": pa.array([7], pa.int64()),
        "bytes": pa.array([blob], pa.binary())}))
    got = laplacian_stats(ds, id_col="path").to_pandas()
    v = arr.astype(np.int64)
    lap = (v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:]
           - 4 * v[1:-1, 1:-1])
    assert got["abs_sum"].iloc[0] == np.abs(lap).sum()
    assert got["n_concave"].iloc[0] == (lap > 0).sum()
    assert got["n_convex"].iloc[0] == (lap < 0).sum()


def test_fill_depressions_minimax_parity():
    """Fixpoint fill == heap Priority-Flood (minimax boundary path)."""
    import heapq
    rng = np.random.default_rng(41)
    for _ in range(12):
        a = rng.integers(0, 50, (8, 10)).astype(np.int32)
        w, iters = terrain.fill_depressions(a)
        H, W = a.shape
        best = np.full((H, W), 10 ** 9, np.int64)
        pq = []
        for r in range(H):
            for c in range(W):
                if r in (0, H - 1) or c in (0, W - 1):
                    best[r, c] = a[r, c]
                    heapq.heappush(pq, (int(a[r, c]), r, c))
        while pq:
            d, r, c = heapq.heappop(pq)
            if d > best[r, c]:
                continue
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nr, nc = r + dr, c + dc
                if 0 < nr < H - 1 and 0 < nc < W - 1:
                    nd = max(d, int(a[nr, nc]))
                    if nd < best[nr, nc]:
                        best[nr, nc] = nd
                        heapq.heappush(pq, (nd, nr, nc))
        assert np.array_equal(w, best)
        assert (w >= a).all()
        assert iters >= 1


def test_fill_depressions_no_pit_is_identity():
    # strictly monotone ramp has no depressions
    yy, xx = np.meshgrid(np.arange(6), np.arange(7), indexing="ij")
    a = (3 * xx + 5 * yy).astype(np.int32)
    w, _ = terrain.fill_depressions(a)
    assert np.array_equal(w, a)


def test_squared_edt_brute_parity():
    rng = np.random.default_rng(42)
    for _ in range(12):
        feat = rng.random((9, 11)) < 0.12
        d2 = terrain.squared_edt(feat)
        fr, fc = np.nonzero(feat)
        for r in range(9):
            for c in range(11):
                if len(fr) == 0:
                    assert d2[r, c] == -1
                else:
                    assert d2[r, c] == ((fr - r) ** 2 + (fc - c) ** 2).min()


def test_moran_stats_checkerboard(ray_session):
    """Perfect checkerboard = maximal negative autocorrelation:
    num_scaled = -w_sum * den_scaled / n (every rook pair is (+d)(-d))."""
    from hand_index_ray.kernels.geotiff import encode_geotiff

    a = np.indices((6, 8)).sum(axis=0) % 2
    blob = encode_geotiff((a * 10).astype(np.int32))
    ds = ray.data.from_arrow(pa.table({
        "path": pa.array([1], pa.int64()),
        "bytes": pa.array([blob], pa.binary())}))
    got = terrain.moran_stats(ds, id_col="path").to_pandas()
    n = 48
    v = (a * 10).astype(np.int64)
    dev = n * v - v.sum()
    den = int((dev * dev).sum())
    wsum = 2 * (6 * 7 + 8 * 5)
    assert got["den_scaled"].iloc[0] == den
    assert got["w_sum"].iloc[0] == wsum
    # every neighbor pair multiplies opposite-sign equal-magnitude devs
    assert got["num_scaled"].iloc[0] == -wsum * den // n


def test_cost_distance_dijkstra_parity():
    """Bellman–Ford Jacobi sweeps == heap Dijkstra with west-edge
    sources and cost-on-entry (GRASS r.cost semantics)."""
    import heapq
    rng = np.random.default_rng(43)
    for _ in range(12):
        a = rng.integers(0, 60, (9, 11)).astype(np.int32)
        d, sweeps = terrain.cost_distance(a)
        H, W = a.shape
        best = np.full((H, W), 10 ** 12, np.int64)
        pq = []
        for r in range(H):
            best[r, 0] = a[r, 0]
            heapq.heappush(pq, (int(a[r, 0]), r, 0))
        while pq:
            cd, r, c = heapq.heappop(pq)
            if cd > best[r, c]:
                continue
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nr, nc = r + dr, c + dc
                if 0 <= nr < H and 0 <= nc < W:
                    nd = cd + int(a[nr, nc])
                    if nd < best[nr, nc]:
                        best[nr, nc] = nd
                        heapq.heappush(pq, (nd, nr, nc))
        assert np.array_equal(d, best)
        assert sweeps >= 1


def test_cost_distance_uniform_is_manhattan():
    # uniform cost 1: D = x+1 (enter x+1 cells including the start)
    a = np.ones((5, 7), np.int32)
    d, _ = terrain.cost_distance(a)
    want = np.tile(np.arange(1, 8, dtype=np.int64), (5, 1))
    assert np.array_equal(d, want)


def test_semivariogram_brute_parity(ray_session):
    """Eps-grid ghost-shuffle semivariogram == brute all-pairs, across
    cell boundaries and bin edges."""
    from hand_index_ray.pipelines.geostat import semivariogram

    rng = np.random.default_rng(44)
    n, max_lag, nbins = 120, 13, 5
    x = rng.integers(0, 90, n).astype(np.int64)
    y = rng.integers(0, 90, n).astype(np.int64)
    v = rng.integers(0, 50, n).astype(np.int64)
    ids = np.arange(n, dtype=np.int64)
    pts = ray.data.from_arrow(pa.table(
        {"id": ids, "x": x, "y": y, "v": v}))
    got = semivariogram(pts, max_lag=max_lag, nbins=nbins,
                        num_buckets=8).to_pandas() \
        .sort_values("d2_bin").reset_index(drop=True)

    max2 = max_lag * max_lag
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    dv2 = (v[:, None] - v[None, :]) ** 2
    iu = np.triu_indices(n, 1)
    d2 = d2[iu]; dv2 = dv2[iu]
    keep = (d2 >= 1) & (d2 <= max2)
    b = (d2[keep] - 1) * nbins // max2
    cnt = np.bincount(b, minlength=nbins)
    num = np.zeros(nbins, np.int64)
    np.add.at(num, b, dv2[keep])
    nz = np.flatnonzero(cnt)
    assert got["d2_bin"].tolist() == nz.tolist()
    assert got["n_pairs"].to_numpy().tolist() == cnt[nz].tolist()
    assert got["gamma_num"].to_numpy().tolist() == num[nz].tolist()


def test_semivariogram_duplicate_coords(ray_session):
    """Co-located distinct sites (d2=0) are excluded; ids never pair
    with themselves; exactly-once across ghost replicas."""
    from hand_index_ray.pipelines.geostat import semivariogram

    pts = ray.data.from_arrow(pa.table({
        "id": pa.array([1, 2, 3, 4], pa.int64()),
        "x": pa.array([0, 0, 4, 5], pa.int64()),
        "y": pa.array([0, 0, 0, 0], pa.int64()),
        "v": pa.array([10, 20, 30, 41], pa.int64())}))
    got = semivariogram(pts, max_lag=5, nbins=1,
                        num_buckets=4).to_pandas()
    # pairs with 1<=d2<=25: (1,3)d2=16 (1,4)d2=25 (2,3)16 (2,4)25 (3,4)1
    assert got["n_pairs"].sum() == 5
    assert got["gamma_num"].sum() == (20**2 + 31**2 + 10**2 + 21**2
                                      + 11**2)


def test_otsu_brute_parity():
    """otsu_threshold vs float brute-force between-class variance."""
    from hand_index_ray.pipelines.terrain import otsu_threshold

    rng = np.random.default_rng(11)
    for _ in range(20):
        L = int(rng.integers(4, 64))
        arr = rng.integers(0, L, size=(int(rng.integers(3, 12)),
                                       int(rng.integers(3, 12))))
        t, num, den = otsu_threshold(arr, L)
        v = arr.ravel().astype(np.float64)
        n = v.size
        best_t, best_s = -1, -1.0
        for tt in range(L - 1):
            m0 = v <= tt
            c0 = m0.sum()
            if c0 == 0 or c0 == n:
                continue
            w0, w1 = c0 / n, 1 - c0 / n
            s = w0 * w1 * (v[m0].mean() - v[~m0].mean()) ** 2
            if s > best_s + 1e-12:
                best_s, best_t = s, tt
        assert t == best_t
        # exact fraction num/den == n^2 * sigma_B^2
        assert abs(num / den - n * n * best_s) < 1e-6 * max(1.0, num / den)


def test_seam_dp_brute_parity():
    """seam_bottom_costs vs exhaustive path enumeration on tiny grids."""
    from itertools import product

    from hand_index_ray.pipelines.terrain import seam_bottom_costs

    rng = np.random.default_rng(7)
    for _ in range(10):
        H, W = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        arr = rng.integers(0, 30, size=(H, W)).astype(np.int64)
        v = arr
        cx, cy = np.arange(W), np.arange(H)
        E = (np.abs(v[:, np.minimum(cx + 1, W - 1)]
                    - v[:, np.maximum(cx - 1, 0)])
             + np.abs(v[np.minimum(cy + 1, H - 1), :]
                      - v[np.maximum(cy - 1, 0), :]))
        d = seam_bottom_costs(arr)
        # brute force: all column sequences with |c[r+1]-c[r]|<=1
        best = np.full(W, np.int64(1) << 50)
        for path in product(range(W), repeat=H):
            if any(abs(path[r + 1] - path[r]) > 1 for r in range(H - 1)):
                continue
            cost = sum(int(E[r, path[r]]) for r in range(H))
            if cost < best[path[-1]]:
                best[path[-1]] = cost
        assert d.tolist() == best.tolist()


def test_glcm_brute_parity():
    from hand_index_ray.pipelines.terrain import glcm_features

    rng = np.random.default_rng(3)
    for _ in range(10):
        L = int(rng.integers(3, 20))
        arr = rng.integers(0, L, size=(int(rng.integers(2, 9)),
                                       int(rng.integers(2, 9))))
        co, en, mx, di = glcm_features(arr, L)
        from collections import Counter
        c = Counter()
        contrast = 0
        for y in range(arr.shape[0]):
            for x in range(arr.shape[1] - 1):
                a, b = int(arr[y, x]), int(arr[y, x + 1])
                c[(a, b)] += 1
                contrast += (a - b) ** 2
        assert co == contrast
        assert en == sum(v * v for v in c.values())
        assert mx == max(c.values())
        assert di == len(c)


def test_median3_brute_parity():
    from hand_index_ray.pipelines.terrain import median3_interior

    rng = np.random.default_rng(5)
    for _ in range(10):
        H, W = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        arr = rng.integers(0, 40, size=(H, W))
        m = median3_interior(arr)
        ref = np.array([[sorted(arr[y-1:y+2, x-1:x+2].ravel())[4]
                         for x in range(1, W - 1)]
                        for y in range(1, H - 1)])
        assert (m == ref).all()


def test_quadtree_brute_parity():
    from hand_index_ray.pipelines.terrain import quadtree_leaves

    def brute(arr):
        leaves = []

        def rec(x0, y0, s):
            blk = arr[y0:y0 + s, x0:x0 + s]
            if blk.min() == blk.max():
                leaves.append(s)
            else:
                h = s // 2
                for dy in (0, h):
                    for dx in (0, h):
                        rec(x0 + dx, y0 + dy, h)

        rec(0, 0, arr.shape[0])
        return (len(leaves), sum(1 for s in leaves if s > 1),
                max(leaves))

    rng = np.random.default_rng(9)
    for n in (4, 8, 16):
        for _ in range(6):
            arr = rng.integers(0, 3, size=(n, n))
            assert quadtree_leaves(arr) == brute(arr)
    assert quadtree_leaves(np.zeros((8, 8), np.int64)) == (1, 1, 8)


def test_ssim_float_parity():
    from hand_index_ray.pipelines.terrain import ssim_global

    rng = np.random.default_rng(13)
    for _ in range(12):
        a = rng.integers(0, 32, size=(8, 9)).astype(np.float64)
        b = rng.integers(0, 32, size=(8, 9)).astype(np.float64)
        num, den = ssim_global(a.astype(np.int64), b.astype(np.int64))
        n = a.size
        mx, my = a.mean(), b.mean()
        vx, vy = a.var(), b.var()
        cov = ((a - mx) * (b - my)).mean()
        c1, c2 = 1 / n / n * n * n, 9  # c1=1, c2=9 in pixel units
        ref = ((2 * mx * my + 1) * (2 * cov + 9)) / \
              ((mx * mx + my * my + 1) * (vx + vy + 9))
        assert abs(num / den - ref) < 1e-9 * max(1.0, abs(ref))
    # identical images: SSIM == 1 exactly
    a = rng.integers(0, 32, size=(8, 9)).astype(np.int64)
    num, den = ssim_global(a, a)
    assert num == den


def test_hog_octants_brute():
    from hand_index_ray.pipelines.terrain import hog_octants

    rng = np.random.default_rng(17)
    arr = rng.integers(0, 64, size=(9, 11))
    cnt, w = hog_octants(arr)
    bc = np.zeros(8, np.int64)
    bw = np.zeros(8, np.int64)
    for y in range(1, 8):
        for x in range(1, 10):
            gx = int(arr[y, x + 1]) - int(arr[y, x - 1])
            gy = int(arr[y + 1, x]) - int(arr[y - 1, x])
            if gx == 0 and gy == 0:
                continue
            code = 4 * (gy < 0) + 2 * (gx < 0) + (abs(gy) > abs(gx))
            bc[code] += 1
            bw[code] += abs(gx) + abs(gy)
    assert cnt.tolist() == bc.tolist()
    assert w.tolist() == bw.tolist()


def test_strahler_brute_parity():
    """Vectorized fixpoint vs a recursive bottom-up reference on the
    same D8 forest (random small DEMs, unique values ⇒ no flats)."""
    import sys

    from hand_index_ray.pipelines.terrain import (D8_OFFSETS,
                                                  strahler_orders)

    rng = np.random.default_rng(21)
    sys.setrecursionlimit(10000)
    for _ in range(8):
        H, W = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        arr = rng.permutation(H * W).reshape(H, W).astype(np.int64)
        got = strahler_orders(arr)
        # build donor lists from the same steepest-descent rule
        donors = {i: [] for i in range(H * W)}
        for y in range(H):
            for x in range(W):
                best, bd = -1, 0
                for code, (dx, dy) in enumerate(D8_OFFSETS):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < W and 0 <= ny < H:
                        drop = int(arr[y, x]) - int(arr[ny, nx])
                        if drop > bd:
                            bd, best = drop, code
                if best >= 0:
                    dx, dy = D8_OFFSETS[best]
                    donors[(y + dy) * W + (x + dx)].append(y * W + x)

        memo = {}

        def order(v):
            if v in memo:
                return memo[v]
            ds_ = [order(u) for u in donors[v]]
            if not ds_:
                memo[v] = 1
            else:
                m = max(ds_)
                memo[v] = m + (1 if ds_.count(m) >= 2 else 0)
            return memo[v]

        ref = np.array([order(v) for v in range(H * W)])
        assert (got == ref).all()


def test_watershed_brute_parity():
    """Pointer doubling vs step-by-step pointer chasing."""
    from hand_index_ray.pipelines.terrain import (D8_OFFSETS,
                                                  watershed_labels)

    rng = np.random.default_rng(23)
    for _ in range(8):
        H, W = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        arr = rng.integers(0, 30, size=(H, W)).astype(np.int64)
        got = watershed_labels(arr)
        for y in range(H):
            for x in range(W):
                cy, cx = y, x
                for _ in range(H * W + 1):
                    best, bd = None, 0
                    for code, (dx, dy) in enumerate(D8_OFFSETS):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < H and 0 <= nx < W:
                            drop = int(arr[cy, cx]) - int(arr[ny, nx])
                            if drop > bd:
                                bd, best = drop, (ny, nx)
                    if best is None:
                        break
                    cy, cx = best
                assert got[y * W + x] == cy * W + cx


def test_largest_rect_brute_parity():
    from hand_index_ray.pipelines.terrain import largest_zero_rect

    rng = np.random.default_rng(29)
    for density in (0.3, 0.6, 0.9):
        for _ in range(5):
            H, W = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            m = rng.random((H, W)) < density
            a, n = largest_zero_rect(m)
            best, cnt = 0, 0
            for y1 in range(H):
                for y2 in range(y1, H):
                    for x1 in range(W):
                        for x2 in range(x1, W):
                            if m[y1:y2 + 1, x1:x2 + 1].all():
                                ar = (y2 - y1 + 1) * (x2 - x1 + 1)
                                if ar > best:
                                    best, cnt = ar, 1
                                elif ar == best and ar > 0:
                                    cnt += 1
                            # (zero-area impossible: loops inclusive)
            assert (a, n) == (best, cnt), (m, a, n, best, cnt)
    assert largest_zero_rect(np.zeros((3, 4), bool)) == (0, 0)
    assert largest_zero_rect(np.ones((3, 4), bool)) == (12, 1)


def test_tophat_brute_parity():
    from hand_index_ray.pipelines.terrain import tophat_core

    rng = np.random.default_rng(53)
    for _ in range(6):
        H, W = int(rng.integers(5, 14)), int(rng.integers(5, 14))
        v = rng.integers(0, 60, (H, W)).astype(np.int64)
        got = tophat_core(v)
        assert got.shape == (H - 4, W - 4)
        for y in range(2, H - 2):
            for x in range(2, W - 2):
                # opening at (y,x): max over 3x3 of the 3x3-min field
                op = max(v[yy - 1:yy + 2, xx - 1:xx + 2].min()
                         for yy in range(y - 1, y + 2)
                         for xx in range(x - 1, x + 2))
                assert got[y - 2, x - 2] == v[y, x] - op
        assert (got >= 0).all()  # opening is anti-extensive


def test_histmatch_brute_parity():
    from hand_index_ray.pipelines.terrain import histogram_match

    rng = np.random.default_rng(59)
    for _ in range(8):
        n = 32
        a = rng.integers(0, n, (9, 14)).astype(np.int64)
        b = rng.integers(0, n, (9, 14)).astype(np.int64)
        m = histogram_match(a, b, n)
        ca = np.cumsum(np.bincount(a.ravel(), minlength=n))
        cb = np.cumsum(np.bincount(b.ravel(), minlength=n))
        for v in range(n):
            want = min(w for w in range(n) if cb[w] >= ca[v])
            assert m[v] == want
        # matching A to itself is the identity on present levels
        mi = histogram_match(a, a, n)
        present = np.flatnonzero(np.bincount(a.ravel(), minlength=n))
        assert (mi[present] == present).all()


def test_edge_nms_brute_parity():
    from hand_index_ray.pipelines.terrain import edge_nms_core

    rng = np.random.default_rng(71)
    for _ in range(5):
        H, W = int(rng.integers(5, 12)), int(rng.integers(5, 12))
        v = rng.integers(0, 60, (H, W)).astype(np.int64)
        keep, m = edge_nms_core(v, thresh2=300)
        assert keep.shape == (H - 4, W - 4) and m.shape == keep.shape
        for y in range(2, H - 2):
            for x in range(2, W - 2):
                def grad(yy, xx):
                    gx = (v[yy - 1, xx + 1] + 2 * v[yy, xx + 1]
                          + v[yy + 1, xx + 1] - v[yy - 1, xx - 1]
                          - 2 * v[yy, xx - 1] - v[yy + 1, xx - 1])
                    gy = (v[yy + 1, xx - 1] + 2 * v[yy + 1, xx]
                          + v[yy + 1, xx + 1] - v[yy - 1, xx - 1]
                          - 2 * v[yy - 1, xx] - v[yy - 1, xx + 1])
                    return gx, gy
                gx, gy = grad(y, x)
                m2 = gx * gx + gy * gy
                assert m[y - 2, x - 2] == m2
                if abs(gx) >= 2 * abs(gy):
                    nbs = ((y, x + 1), (y, x - 1))
                elif abs(gy) >= 2 * abs(gx):
                    nbs = ((y + 1, x), (y - 1, x))
                elif gx * gy > 0:
                    nbs = ((y + 1, x + 1), (y - 1, x - 1))
                else:
                    nbs = ((y + 1, x - 1), (y - 1, x + 1))
                want = m2 >= 300 and all(
                    m2 > sum(g * g for g in grad(*nb)) for nb in nbs)
                assert bool(keep[y - 2, x - 2]) == want


def test_hotspot_brute_parity():
    from hand_index_ray.pipelines.terrain import hotspot_core

    rng = np.random.default_rng(73)
    for _ in range(6):
        H, W = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        v = rng.integers(0, 50, (H, W)).astype(np.int64)
        hot, loc, total = hotspot_core(v, num=5, den=4)
        assert total == v.sum()
        for y in range(1, H - 1):
            for x in range(1, W - 1):
                l9 = int(v[y - 1:y + 2, x - 1:x + 2].sum())
                assert loc[y - 1, x - 1] == l9
                assert bool(hot[y - 1, x - 1]) == \
                    (4 * H * W * l9 > 5 * 9 * total)


def test_rlsa_brute_parity():
    from hand_index_ray.pipelines.terrain import rlsa_horizontal

    rng = np.random.default_rng(79)
    for gap in (0, 1, 2, 4):
        for _ in range(4):
            H, W = int(rng.integers(1, 8)), int(rng.integers(1, 14))
            m = rng.random((H, W)) < 0.4
            got = rlsa_horizontal(m, gap)
            want = m.copy()
            for y in range(H):
                xs = np.flatnonzero(m[y])
                for a, b in zip(xs[:-1], xs[1:]):
                    if b - a - 1 <= gap:
                        want[y, a:b + 1] = True
            assert (got == want).all(), (gap, m)


def test_hysteresis_linking():
    """A bright disc ring yields strong+weak NMS survivors that are
    8-adjacent: weak pixels connected to strong survive, isolated weak
    pixels do not, and the masks partition the NMS survivor set."""
    import numpy as np
    from hand_index_ray.pipelines.terrain import (edge_nms_core,
                                                  hysteresis_core)

    yy, xx = np.meshgrid(np.arange(12), np.arange(14), indexing="ij")
    arr = np.where((xx - 6) ** 2 + (yy - 5) ** 2 <= 9, 44, 2) \
        .astype(np.int64)
    keep, m = edge_nms_core(arr, 5000)
    s, w, l, m2 = hysteresis_core(arr, 5000, 30000)
    assert (m2 == m).all()
    assert ((s | w) == keep).all() and not (s & w).any()
    assert (s & (m < 30000)).sum() == 0 and (w & (m >= 30000)).sum() == 0
    # every linked weak pixel has an 8-path to a strong pixel through
    # weak pixels — brute-force BFS oracle
    import collections
    H, W = s.shape
    reach = set(zip(*np.nonzero(s)))
    q = collections.deque(reach)
    weakset = set(zip(*np.nonzero(w)))
    while q:
        y, x = q.popleft()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                p = (y + dy, x + dx)
                if p in weakset and p not in reach:
                    reach.add(p)
                    q.append(p)
    exp_linked = reach & weakset
    assert set(zip(*np.nonzero(l))) == exp_linked
    # the fixture actually exercises the flood
    assert s.any() and w.any()


def test_zhang_suen_properties():
    """Skeleton of a thick bar is its 1-px center line shape: subset
    of the input, connected survives, single pixel for a disc, and
    idempotent (thinning a skeleton changes nothing)."""
    import numpy as np
    from hand_index_ray.pipelines.terrain import zhang_suen_core

    m = np.zeros((9, 16), bool)
    m[3:6, 1:15] = True                       # 3-thick horizontal bar
    sk, _ = zhang_suen_core(m)
    assert (sk <= m).all()
    assert sk.sum() > 4                       # a line, not a point
    ys = np.nonzero(sk)[0]
    assert set(ys) == {4}                     # centered on the middle row
    sk2, it2 = zhang_suen_core(sk)
    assert (sk2 == sk).all() and it2 == 1     # idempotent

    yy, xx = np.meshgrid(np.arange(12), np.arange(14), indexing="ij")
    disc = (xx - 6) ** 2 + (yy - 5) ** 2 <= 9
    skd, _ = zhang_suen_core(disc)
    assert skd.sum() == 1                     # disc collapses to a point


def test_mode_filter_vs_brute():
    import numpy as np
    from hand_index_ray.pipelines.terrain import mode_filter_stats  # noqa
    # brute the vectorized core through the public stats fn is covered
    # by the q245 oracle; here pin the tie-break: two values tied 4-4
    # in a 3x3 -> smallest wins (np.argmax first-index)
    v = np.array([[0, 0, 1],
                  [0, 7, 1],
                  [1, 1, 5]])
    # neighborhood of center: {0:3, 1:4, 7:1, 5:1} -> mode 1
    cnt = np.bincount(v.ravel(), minlength=8)
    assert cnt[1] == 4 and np.argmax(cnt) == 1


def test_lbp_uniform_and_blobs():
    import numpy as np
    from hand_index_ray.pipelines.terrain import blob_stats  # noqa
    # LBP on a flat image: all neighbors == center -> code 255
    # (all-ones), rot transitions = 0 -> uniform
    v = np.full((5, 6), 7, np.int64)
    c = v[1:-1, 1:-1]
    code = np.zeros_like(c)
    offs = [(0, -1), (-1, -1), (-1, 0), (-1, 1),
            (0, 1), (1, 1), (1, 0), (1, -1)]
    H, W = v.shape
    for b, (dy, dx) in enumerate(offs):
        nb = v[1 + dy:H - 1 + dy or None, 1 + dx:W - 1 + dx or None]
        code |= ((nb >= c).astype(np.int64) << b)
    assert (code == 255).all()


def test_blob_label_core():
    import numpy as np
    # two separate blobs + diagonal connectivity
    m = np.zeros((6, 8), bool)
    m[1, 1] = True; m[2, 2] = True          # diagonal pair = 1 blob
    m[4, 5] = True; m[4, 6] = True          # second blob
    H, W = m.shape
    lbl = np.where(m, np.arange(H * W).reshape(H, W), H * W)
    while True:
        p = np.pad(lbl, 1, constant_values=H * W)
        best = lbl.copy()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy or dx:
                    np.minimum(best, p[1 + dy:H + 1 + dy,
                                       1 + dx:W + 1 + dx], out=best)
        best = np.where(m, best, H * W)
        if (best == lbl).all():
            break
        lbl = best
    labs = lbl[m]
    assert len(np.unique(labs)) == 2
    assert sorted(np.unique(labs)) == [1 * 8 + 1, 4 * 8 + 5]


# Every per-raster operator's exact output: column names in order, the
# id keeping its input type, every value column int64. The mining
# operators read the int64 ``o_orderkey`` id, the terrain ones ``path``.
_PATH = ("path", pa.string())
_KEY = ("o_orderkey", pa.int64())
_SCHEMA_CASES = [
    ("polygonize_counts", lambda ds: terrain.polygonize_counts(ds, 32),
     _PATH, ["above", "n_regions", "n_px"]),
    ("nearest_site_counts",
     lambda ds: terrain.nearest_site_counts(ds, [(3.5, 4.5), (20.5, 10.5)]),
     _PATH, ["site", "n_px", "site_sum"]),
    ("slope_stats", terrain.slope_stats,
     _PATH, ["grad_sum", "grad_max", "n_interior"]),
    ("flow_direction_counts", terrain.flow_direction_counts,
     _PATH, ["direction", "n_px"]),
    ("overview_checksums", terrain.overview_checksums,
     _PATH, ["level", "px_sum", "w", "h"]),
    ("contour_case_counts", lambda ds: terrain.contour_case_counts(ds, 32),
     _PATH, ["ms_case", "n_cells"]),
    ("flow_path_stats", terrain.flow_path_stats,
     _PATH, ["path_sum", "path_max", "n_pit", "n_edge"]),
    ("hand_stats", lambda ds: terrain.hand_stats(ds, 10),
     _PATH, ["n_drained", "hand_sum", "hand_max", "n_undrained"]),
    ("flow_accumulation", lambda ds: terrain.flow_accumulation(ds, 5),
     _PATH, ["acc_max", "n_channel"]),
    ("morphology_stats", terrain.morphology_stats,
     _PATH, ["dilate_sum", "erode_sum", "mgrad_sum"]),
    ("resample_bilinear", lambda ds: terrain.resample_bilinear(ds, 7, 5),
     _PATH, ["bl_sum", "bl_min", "bl_max"]),
    ("rle_stats", terrain.rle_stats, _PATH, ["n_runs", "max_run"]),
    ("value_histogram", terrain.value_histogram, _PATH, ["value", "n_px"]),
    ("resample_nn", lambda ds: terrain.resample_nn(ds, 7, 5),
     _PATH, ["rs_sum", "rs_min", "rs_max"]),
    ("hillshade_stats", terrain.hillshade_stats,
     _PATH, ["shade_sum", "n_shadow", "n_interior"]),
    ("laplacian_stats", terrain.laplacian_stats,
     _PATH, ["abs_sum", "n_concave", "n_convex"]),
    ("fill_depression_stats", terrain.fill_depression_stats,
     _PATH, ["fill_volume", "n_filled", "max_raise"]),
    ("edt_stats", lambda ds: terrain.edt_stats(ds, 8),
     _PATH, ["d2_sum", "d2_max", "n_feat"]),
    ("moran_stats", terrain.moran_stats,
     _PATH, ["num_scaled", "den_scaled", "w_sum"]),
    ("cost_distance_stats", terrain.cost_distance_stats,
     _PATH, ["cost_sum", "cost_max", "east_min"]),
    ("otsu_stats", terrain.otsu_stats,
     _PATH, ["otsu_t", "bcv_num", "bcv_den"]),
    ("seam_stats", terrain.seam_stats,
     _PATH, ["seam_min", "seam_argmin", "bottom_sum"]),
    ("glcm_stats", terrain.glcm_stats,
     _PATH, ["contrast", "energy", "glcm_max", "glcm_distinct"]),
    ("median_filter_stats", terrain.median_filter_stats,
     _PATH, ["med_sum", "med_max", "n_changed"]),
    ("quadtree_stats", terrain.quadtree_stats,
     _PATH, ["qt_leaves", "qt_solid", "qt_max_side"]),
    ("hog_stats", terrain.hog_stats, _PATH, ["octant", "n_px", "wsum"]),
    ("strahler_stats", terrain.strahler_stats,
     _PATH, ["strahler", "n_cells"]),
    ("watershed_stats", terrain.watershed_stats,
     _PATH, ["n_basins", "max_basin", "sink_sum"]),
    ("largest_rect_stats", lambda ds: terrain.largest_rect_stats(ds, 32),
     _PATH, ["max_area", "n_at_max", "n_mask"]),
    ("tophat_stats", terrain.tophat_stats,
     _PATH, ["tophat_sum", "tophat_max", "n_pos"]),
    ("hotspot_stats", terrain.hotspot_stats,
     _PATH, ["n_hot", "max_local", "local_sum"]),
    ("edge_nms_stats", lambda ds: terrain.edge_nms_stats(ds, 100),
     _PATH, ["n_edges", "edge_mag2_sum", "max_mag2"]),
    ("rlsa_stats", lambda ds: terrain.rlsa_stats(ds, 32, 2),
     _PATH, ["n_set", "n_filled", "n_runs"]),
    ("hysteresis_stats", lambda ds: terrain.hysteresis_stats(ds, 100, 1000),
     _PATH, ["n_strong", "n_weak", "n_linked", "edge_mag2_sum"]),
    ("skeleton_stats", lambda ds: terrain.skeleton_stats(ds, 32),
     _PATH, ["n_set", "n_skel", "pos_sum"]),
    ("mode_filter_stats", lambda ds: terrain.mode_filter_stats(ds, 4),
     _PATH, ["n_changed", "mode_checksum"]),
    ("lbp_stats", terrain.lbp_stats,
     _PATH, ["n_uniform", "code_checksum", "n_codes"]),
    ("blob_stats", lambda ds: terrain.blob_stats(ds, 32),
     _PATH, ["n_blobs", "max_blob", "label_checksum"]),
    ("zonal_stats", lambda ds: terrain.zonal_stats(ds, [tri_wkb(TRI_A)]),
     _PATH, ["zone", "zone_sum", "zone_count"]),
    ("zonal_stats_windowed",
     lambda ds: terrain.zonal_stats_windowed(ds, [tri_wkb(TRI_A)]),
     _PATH, ["zone", "zone_sum", "zone_count", "bytes_read"]),
    # one bin: both rasters share the dominant bin, so one pair
    ("hist_intersection_pairs",
     lambda ds: mining.hist_intersection_pairs(ds, nbins=1, binw=64),
     None, ["id_a", "id_b", "dom", "sim"]),
    ("census_stats", mining.census_stats,
     _KEY, ["n_codes", "code_sum", "max_code"]),
    ("triangle_threshold", mining.triangle_threshold,
     _KEY, ["peak", "last", "thr", "cross_abs"]),
    ("pyramid_error", mining.pyramid_error, _KEY, ["abs_err", "max_err"]),
    ("zone_adjacency", mining.zone_adjacency,
     _KEY, ["za", "zb", "boundary_px"]),
    ("euler_stats", lambda ds: mining.euler_stats(ds, 32),
     _KEY, ["q1", "q3", "qd", "euler4", "euler8"]),
]


@pytest.mark.parametrize("op,id_field,cols",
                         [c[1:] for c in _SCHEMA_CASES],
                         ids=[c[0] for c in _SCHEMA_CASES])
def test_per_raster_output_schema(ray_session, op, id_field, cols):
    arrs = [rng_raster(s, h=32, w=32, hi=64) for s in (61, 62)]
    t = pa.table({"path": pa.array(["r0", "r1"]),
                  "o_orderkey": pa.array([5, 9], pa.int64()),
                  "bytes": pa.array([blob_of(a, tile=(16, 16))
                                     for a in arrs], pa.binary())})
    out = pa.concat_tables([b for b in ray.get(
        op(ray.data.from_arrow(t)).to_arrow_refs()) if b.num_rows])
    want = pa.schema(([id_field] if id_field else [])
                     + [(c, pa.int64()) for c in cols])
    assert out.schema.equals(want), out.schema
