"""Deterministic synthetic tables per FIXTURES.md — pure (seed, row idx).

The reference ships no test data (its .gitignore:4 excludes test_data/),
so the conformance corpus is generated here: the ``images`` table in
the exact shape of BASELINE.json's input_hint
(image_id, bytes, w, h, fmt, caption, phash), the ``catchments``
vector side mirroring schema/hand-index-ver-fim100.sql:5-11, the
sidecar pointer tables (…sql:13-26), and the query fixtures (ROIs,
bboxes, kNN points).

Every value is a pure function of (seed, row index) via a vectorized
splitmix64 counter PRNG, so any row is reproducible in isolation —
required by the resume test (a re-run must regenerate byte-identical
inputs) and by the oracle (recompute any row on demand).

The images table is written as N parquet "fragments" with explicit
``fragment_id``/``row_idx`` columns standing in for Lance fragment ids
(lance itself is unavailable in this sandbox; SURVEY.md §7.0).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..kernels import image as imk
from ..kernels import proj, wkb
from ..kernels import h3exact

SEED = 42
# bump when generated bytes change (e.g. codec/phash definition changes)
# — cache directories key on this so stale /tmp caches self-invalidate
SYNTH_VERSION = 6  # r3: real JPEG lossy slot, restart_mcus=1 entropy layout

# CONUS box for footprints (FIXTURES.md F1)
LON0, LON_SPAN = -125.0, 58.0
LAT0, LAT_SPAN = 24.0, 25.0
HOT_FRAC = 0.005  # rows forced into one hot cell (skew exercise)
HOT_LON, HOT_LAT = -95.0, 38.0
DUP_FRAC = 0.01  # near-duplicate rows (phash exercise)

_WS = (64, 128, 96)
_HS = (64, 96, 128)
#  the lossy slot is REAL baseline JPEG (kernels/jpeg.py, q98 ⇒ PSNR≥43dB
#  on this corpus) — the flagship build pipeline decodes real-world bytes
_FMTS = ("raw", "ppm", "png", "jpg")


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 — the engine's hash64 (pure, stateless)."""
    z = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 over a LARGE uint64 array with zero allocations beyond
    the caller-provided scratch buffer — ~10x faster than the expression
    form on multi-hundred-MB matrices (same bit-exact results). ``z`` is
    hashed in place; ``tmp`` must be same-shape uint64 scratch."""
    np.add(z, np.uint64(0x9E3779B97F4A7C15), out=z)
    np.right_shift(z, np.uint64(30), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, np.uint64(0xBF58476D1CE4E5B9), out=z)
    np.right_shift(z, np.uint64(27), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, np.uint64(0x94D049BB133111EB), out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def _mix(seed: int, i: np.ndarray, k: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return splitmix64(np.asarray(i, dtype=np.uint64)
                          ^ (np.uint64(seed) * np.uint64(0xA24BAED4963EE407))
                          ^ (np.uint64(k) * np.uint64(0x9FB21C651E98DF25)))


def _unit(seed: int, i: np.ndarray, k: int) -> np.ndarray:
    """Uniform [0,1) per row, pure function of (seed, i, k)."""
    return (_mix(seed, i, k) >> np.uint64(11)).astype(np.float64) / float(1 << 53)


# ---------------------------------------------------------------------------
# footprints (documented formula, FIXTURES.md F1)


def footprint_of(i: np.ndarray, seed: int = SEED):
    """Tile footprint for row index i: (minx, miny, maxx, maxy,
    centroid lon/lat) in EPSG:4326 degrees. Pure; both the engine and
    the oracle derive footprints with this exact formula."""
    i = np.asarray(i, dtype=np.int64)
    u_lon = (_mix(seed, i, 1) % np.uint64(1 << 20)).astype(np.float64) / float(1 << 20)
    u_lat = (_mix(seed, i, 2) % np.uint64(1 << 20)).astype(np.float64) / float(1 << 20)
    lon = LON0 + u_lon * LON_SPAN
    lat = LAT0 + u_lat * LAT_SPAN
    hot = (_mix(seed, i, 3) % np.uint64(1000)).astype(np.int64) < int(HOT_FRAC * 1000)
    jit = _unit(seed, i, 4) * 0.05
    lon = np.where(hot, HOT_LON + jit, lon)
    lat = np.where(hot, HOT_LAT + jit, lat)
    w = np.asarray(_WS, dtype=np.float64)[i % 3]
    h = np.asarray(_HS, dtype=np.float64)[i % 3]
    dw = w / (1 << 14)
    dh = h / (1 << 14)
    return lon - dw / 2, lat - dh / 2, lon + dw / 2, lat + dh / 2, lon, lat


# ---------------------------------------------------------------------------
# images table


def make_pixels(i: int, w: int, h: int, seed: int = SEED) -> np.ndarray:
    """Deterministic H×W×3 pattern: gradient + per-row-keyed noise."""
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    base = np.empty((h, w, 3), dtype=np.float64)
    phase = float(_unit(seed, np.array([i]), 5)[0]) * 255.0
    base[..., 0] = (yy * 255.0 / max(h - 1, 1)) + 0 * xx
    base[..., 1] = (xx * 255.0 / max(w - 1, 1)) + 0 * yy
    base[..., 2] = phase
    # counter-based noise: one uint64 → 8 noise bytes
    n = h * w * 3
    words = _mix(seed, np.full((n + 7) // 8, i, dtype=np.int64) * np.int64(1 << 20)
                 + np.arange((n + 7) // 8, dtype=np.int64), 6)
    noise = words.view(np.uint8)[:n].reshape(h, w, 3).astype(np.float64)
    return np.clip(base * 0.75 + (noise / 255.0) * 64.0, 0, 255).astype(np.uint8)


def image_row(i: int, seed: int = SEED) -> dict:
    """One images-table row (pure). ~DUP_FRAC of rows duplicate the
    pixels of row i-1 (re-encoded), exercising near-dup detection."""
    src = i
    if i > 0 and int(_mix(seed, np.array([i]), 7)[0] % np.uint64(1000)) < int(DUP_FRAC * 1000):
        src = i - 1
    w = _WS[src % 3]
    h = _HS[src % 3]
    fmt = _FMTS[i % 4]
    px = make_pixels(src, w, h, seed)
    buf = imk.encode(px, fmt)
    decoded = imk.decode(buf, fmt, w=w, h=h)
    _, _, _, _, clon, clat = footprint_of(np.array([i]), seed)
    cell_token = int(h3exact.latlng_to_cell(clat, clon, 5)[0])  # real H3
    return {
        "image_id": f"img-{i:09d}",
        "bytes": buf,
        "w": np.int32(w),
        "h": np.int32(h),
        "fmt": fmt,
        "caption": f"tile {i} over cell {cell_token}",
        "phash": np.int64(np.uint64(imk.phash64(decoded)).astype(np.int64)),
    }


def images_batch(indices: np.ndarray, fragment_id: int, seed: int = SEED) -> pa.Table:
    rows = [image_row(int(i), seed) for i in indices]
    return pa.table({
        "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
        "bytes": pa.array([r["bytes"] for r in rows], pa.binary()),
        "w": pa.array([r["w"] for r in rows], pa.int32()),
        "h": pa.array([r["h"] for r in rows], pa.int32()),
        "fmt": pa.array([r["fmt"] for r in rows], pa.string()),
        "caption": pa.array([r["caption"] for r in rows], pa.string()),
        "phash": pa.array([r["phash"] for r in rows], pa.int64()),
        "fragment_id": pa.array([fragment_id] * len(rows), pa.int32()),
        "row_idx": pa.array([int(i) - int(indices[0]) for i in indices], pa.int64()),
    })


def write_images(out_dir: str, n: int, fragments: int = 8, seed: int = SEED) -> list[str]:
    """Write the images table as ``fragments`` parquet files (driver-side,
    for tests/small scale; bench-scale generation goes through Ray in
    bench.py). Idempotent: skips fragments that already exist."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    bounds = np.linspace(0, n, fragments + 1).astype(int)
    for f in range(fragments):
        path = os.path.join(out_dir, f"frag-{f:05d}.parquet")
        paths.append(path)
        if os.path.exists(path):
            continue
        idx = np.arange(bounds[f], bounds[f + 1])
        tbl = images_batch(idx, f, seed)
        pq.write_table(tbl, path)
    return paths


def write_images_ray(out_dir: str, n: int, fragments: int = 16, seed: int = SEED) -> list[str]:
    """Ray-parallel images-table generation (same bytes as
    ``write_images``: each fragment is a pure function of (seed, range)).
    Requires an initialized Ray session (caller-owned). Idempotent."""
    import ray
    import ray.data

    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, n, fragments + 1).astype(int)
    todo = []
    paths = []
    for f in range(fragments):
        path = os.path.join(out_dir, f"frag-{f:05d}.parquet")
        paths.append(path)
        if not os.path.exists(path):
            todo.append({"fragment_id": f, "lo": int(bounds[f]), "hi": int(bounds[f + 1]),
                         "path": path, "seed": seed})
    if todo:
        def gen(batch: pa.Table) -> pa.Table:
            import tempfile
            done = []
            for row in batch.to_pylist():
                idx = np.arange(row["lo"], row["hi"])
                tbl = images_batch(idx, row["fragment_id"], row["seed"])
                d = os.path.dirname(row["path"])
                fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
                os.close(fd)
                pq.write_table(tbl, tmp)
                os.replace(tmp, row["path"])
                done.append({"fragment_id": row["fragment_id"], "rows": len(idx)})
            return pa.Table.from_pylist(done)

        ray.data.from_items(todo).map_batches(
            gen, batch_format="pyarrow", batch_size=1).materialize()
    return paths


# ---------------------------------------------------------------------------
# tpch-derived fixtures: an images table whose keys and footprints are
# pure +,*,%,/ arithmetic over the driver's `orders`/`supplier` views,
# so a plain-SQL DuckDB oracle (no splitmix64, no overflow) recomputes
# every footprint, duplicate pair, and zonal assignment exactly.

TPCH_KEY_MOD = 4      # image keys = o_orderkey % TPCH_KEY_MOD == 0
TPCH_DUP_MOD = 100    # keys % TPCH_DUP_MOD == 0 duplicate the pixels of key-4
_LOSSLESS_FMTS = ("raw", "ppm", "png")  # exact-dup parity needs lossless codecs


def tpch_keys(sf_dir: str) -> np.ndarray:
    """Image keys for a scale-factor dir: the orders keys divisible by
    TPCH_KEY_MOD (SQL: ``WHERE o_orderkey % 4 = 0``)."""
    ok = pq.read_table(os.path.join(sf_dir, "orders.parquet"),
                       columns=["o_orderkey"]).column("o_orderkey").to_numpy()
    return np.sort(ok[ok % TPCH_KEY_MOD == 0]).astype(np.int64)


def footprint_of_tpch(k: np.ndarray):
    """Footprint from an orders key — every operation is exact BIGINT
    arithmetic followed by IEEE float ops in an order DuckDB mirrors
    verbatim (see __ray_entry__ oracle CTEs). k*2654435761 < 2^63 for
    any realistic orderkey, so no overflow on either side."""
    k = np.asarray(k, dtype=np.int64)
    lon = -125.0 + ((k * 2654435761) % 1048576) / 1048576.0 * 58.0
    lat = 24.0 + ((k * 976369) % 1048576) / 1048576.0 * 25.0
    half = ((k % 64) + 1) / 1024.0
    return lon - half, lat - half, lon + half, lat + half, lon, lat


def tpch_src(k: np.ndarray) -> np.ndarray:
    """Pixel-source key: keys divisible by TPCH_DUP_MOD re-use the
    pixels of key-TPCH_KEY_MOD (planted exact duplicates; SQL:
    ``CASE WHEN k % 100 = 0 AND k > 0 THEN k - 4 ELSE k END``)."""
    k = np.asarray(k, dtype=np.int64)
    return np.where((k % TPCH_DUP_MOD == 0) & (k > 0), k - TPCH_KEY_MOD, k)


def images_batch_tpch(ks: np.ndarray, fragment_id: int, seed: int = SEED) -> pa.Table:
    """images-table rows for explicit orders keys. Pixel dims follow
    the SOURCE key (duplicates must decode to identical arrays); the
    codec varies by key but is always lossless."""
    ks = np.asarray(ks, dtype=np.int64)
    srcs = tpch_src(ks)
    ids, bufs, ws, hs, fmts, caps, phs = [], [], [], [], [], [], []
    for k, src in zip(ks.tolist(), srcs.tolist()):
        w = _WS[src % 3]
        h = _HS[src % 3]
        fmt = _LOSSLESS_FMTS[k % 3]
        px = make_pixels(src, w, h, seed)
        buf = imk.encode(px, fmt)
        decoded = imk.decode(buf, fmt, w=w, h=h)
        ids.append(f"img-{k:09d}")
        bufs.append(buf)
        ws.append(np.int32(w))
        hs.append(np.int32(h))
        fmts.append(fmt)
        caps.append(f"tile {k}")
        phs.append(np.int64(np.uint64(imk.phash64(decoded)).astype(np.int64)))
    return pa.table({
        "image_id": pa.array(ids, pa.string()),
        "bytes": pa.array(bufs, pa.binary()),
        "w": pa.array(ws, pa.int32()),
        "h": pa.array(hs, pa.int32()),
        "fmt": pa.array(fmts, pa.string()),
        "caption": pa.array(caps, pa.string()),
        "phash": pa.array(phs, pa.int64()),
        "fragment_id": pa.array([fragment_id] * len(ids), pa.int32()),
        "row_idx": pa.array(np.arange(len(ids), dtype=np.int64), pa.int64()),
    })


def write_images_tpch(out_dir: str, sf_dir: str, fragments: int = 16,
                      seed: int = SEED) -> list[str]:
    """Ray-parallel tpch-keyed images table (idempotent; each fragment
    is a pure function of its contiguous key slice)."""
    import ray
    import ray.data

    ks = tpch_keys(sf_dir)
    os.makedirs(out_dir, exist_ok=True)
    slices = np.array_split(ks, fragments)
    todo, paths = [], []
    for f, sl in enumerate(slices):
        path = os.path.join(out_dir, f"frag-{f:05d}.parquet")
        paths.append(path)
        if not os.path.exists(path):
            todo.append({"fragment_id": f, "keys": sl.tolist(), "path": path, "seed": seed})
    if todo:
        def gen(batch: pa.Table) -> pa.Table:
            import tempfile
            done = []
            for row in batch.to_pylist():
                tbl = images_batch_tpch(np.asarray(row["keys"], np.int64),
                                        row["fragment_id"], row["seed"])
                d = os.path.dirname(row["path"])
                fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
                os.close(fd)
                pq.write_table(tbl, tmp)
                os.replace(tmp, row["path"])
                done.append({"fragment_id": row["fragment_id"], "rows": tbl.num_rows})
            return pa.Table.from_pylist(done)

        ray.data.from_items(todo, override_num_blocks=len(todo)).map_batches(
            gen, batch_format="pyarrow", batch_size=1).materialize()
    return paths


def catchment_rect_table_tpch(sf_dir: str) -> pa.Table:
    """Axis-aligned rectangle catchments from supplier keys, stored —
    like every catchment — as EPSG:5070 WKB (schema parity with
    schema/hand-index-ver-fim100.sql:5-11). The 4326 rect corners are
    pure arithmetic over s_suppkey; the projection round-trips to
    ~1e-11°, so the engine's general polygon predicates agree with the
    SQL rect-overlap oracle everywhere off a measure-zero boundary."""
    s = np.sort(pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                              columns=["s_suppkey"]).column("s_suppkey").to_numpy()).astype(np.int64)
    lonc = -123.0 + ((s * 2654435761) % 1048576) / 1048576.0 * 54.0
    latc = 25.5 + ((s * 976369) % 1048576) / 1048576.0 * 22.0
    halfw = ((s % 16) + 2) * 0.22
    halfh = ((s % 8) + 2) * 0.2
    x0, y0, x1, y1 = lonc - halfw, latc - halfh, lonc + halfw, latc + halfh
    geoms = []
    for i in range(len(s)):
        ring = np.array([[x0[i], y0[i]], [x1[i], y0[i]], [x1[i], y1[i]], [x0[i], y1[i]]])
        rx, ry = proj.lonlat_to_albers(ring[:, 0], ring[:, 1])
        geoms.append([[np.stack([rx, ry], axis=1)]])
    rag = wkb.from_parts(geoms)
    blobs = wkb.encode(rag)
    h3_index = h3exact.latlng_to_cell(latc, lonc, 1)  # real H3 ids
    return pa.table({
        "catchment_id": pa.array([f"cat-{int(k):05d}" for k in s], pa.string()),
        "hand_version_id": pa.array(["fimtest1"] * len(s), pa.string()),
        "geometry": pa.array([b for b in blobs], pa.binary()),
        "h3_index": pa.array(h3_index.astype(np.uint64), pa.uint64()),
        "branch_path": pa.array([f"s3://fix/sup/{int(k):05d}/" for k in s], pa.string()),
    })


def write_catchments_tpch(path: str, sf_dir: str) -> str:
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        pq.write_table(catchment_rect_table_tpch(sf_dir), path)
    return path


# ---------------------------------------------------------------------------
# catchments + sidecars (FIXTURES.md F3; mirrors schema/…sql:5-26)


def catchment_table(n: int, seed: int = SEED) -> pa.Table:
    """Convex 6–12-gon catchments over CONUS in EPSG:5070, ~5%
    two-part multipolygons, row 0 degenerate zero-area (exercises the
    0-area→NA→0 rule, query_geojson.py:193-196)."""
    import uuid

    i = np.arange(n, dtype=np.int64)
    grid = int(np.ceil(np.sqrt(n)))
    gx = (i % grid).astype(np.float64) / grid
    gy = (i // grid).astype(np.float64) / grid
    lon = LON0 + 2.0 + (gx + (_unit(seed, i, 10) - 0.5) * 0.5 / grid) * (LON_SPAN - 4.0)
    lat = LAT0 + 2.0 + (gy + (_unit(seed, i, 11) - 0.5) * 0.5 / grid) * (LAT_SPAN - 4.0)
    cx, cy = proj.lonlat_to_albers(lon, lat)
    radius = 4000.0 + _unit(seed, i, 12) * 22000.0  # 4–26 km
    nv = 6 + (_mix(seed, i, 13) % np.uint64(7)).astype(np.int64)  # 6..12
    multi = (_mix(seed, i, 14) % np.uint64(100)).astype(np.int64) < 5

    geoms = []
    for k in range(n):
        if k == 0:
            ring = np.array([[cx[k], cy[k]], [cx[k] + 5000.0, cy[k]], [cx[k], cy[k]]])
            geoms.append([[ring]])
            continue
        m = int(nv[k])
        ang = 2 * np.pi * np.arange(m) / m
        # constant radius per catchment keeps every part convex, which the
        # clip kernel requires on the clip side (geom.clip_area docstring)
        rad = radius[k]
        ring = np.stack([cx[k] + rad * np.cos(ang), cy[k] + rad * np.sin(ang)], axis=1)
        parts = [[ring]]
        if multi[k]:
            off = radius[k] * 3.0
            parts.append([ring * 0.5 + np.array([cx[k] * 0.5 + off, cy[k] * 0.5 + off])])
        geoms.append(parts)
    rag = wkb.from_parts(geoms)
    blobs = wkb.encode(rag)

    from ..kernels import geom as g

    gcx, gcy = g.centroid(rag)
    glon, glat = proj.albers_to_lonlat(gcx, gcy)
    h3_index = h3exact.latlng_to_cell(glat, glon, 1)  # reference default res 1 (load.py:314), real H3 ids

    branch = [f"s3://fix/huc{k // 8:04d}/branches/{k % 8}/" for k in range(n)]
    cid = [str(uuid.uuid5(uuid.NAMESPACE_URL, b)) for b in branch]
    return pa.table({
        "catchment_id": pa.array(cid, pa.string()),
        "hand_version_id": pa.array(["fimtest1"] * n, pa.string()),
        "geometry": pa.array([b for b in blobs], pa.binary()),
        "h3_index": pa.array(h3_index.astype(np.uint64), pa.uint64()),
        "branch_path": pa.array(branch, pa.string()),
    })


def sidecar_tables(catchments: pa.Table, seed: int = SEED) -> dict[str, pa.Table]:
    """hydrotables (1–3 rows/catchment + exact duplicates → DISTINCT
    exercise, load.py:212), rem/catchment rasters (1 row, ~3% missing
    → LEFT-join null exercise, query_geojson.py:148-150)."""
    cids = catchments.column("catchment_id").to_pylist()
    branches = catchments.column("branch_path").to_pylist()
    n = len(cids)
    i = np.arange(n, dtype=np.int64)
    n_hydro = 1 + (_mix(seed, i, 20) % np.uint64(3)).astype(np.int64)
    dup = (_mix(seed, i, 21) % np.uint64(10)).astype(np.int64) < 2
    hc, hp = [], []
    for k in range(n):
        for j in range(int(n_hydro[k])):
            hc.append(cids[k])
            hp.append(f"{branches[k]}hydroTable_{j}.csv")
        if dup[k]:
            hc.append(cids[k])
            hp.append(f"{branches[k]}hydroTable_0.csv")
    miss_rem = (_mix(seed, i, 22) % np.uint64(100)).astype(np.int64) < 3
    miss_cat = (_mix(seed, i, 23) % np.uint64(100)).astype(np.int64) < 3
    rem_c = [cids[k] for k in range(n) if not miss_rem[k]]
    rem_p = [f"{branches[k]}rem_zeroed.tif" for k in range(n) if not miss_rem[k]]
    cat_c = [cids[k] for k in range(n) if not miss_cat[k]]
    cat_p = [f"{branches[k]}gw_catchments_reaches.tif" for k in range(n) if not miss_cat[k]]
    return {
        "hydrotables": pa.table({"catchment_id": pa.array(hc, pa.string()),
                                 "csv_path": pa.array(hp, pa.string())}),
        "rem_rasters": pa.table({"catchment_id": pa.array(rem_c, pa.string()),
                                 "raster_path": pa.array(rem_p, pa.string())}),
        "catchment_rasters": pa.table({"catchment_id": pa.array(cat_c, pa.string()),
                                       "raster_path": pa.array(cat_p, pa.string())}),
    }


def write_catchment_suite(out_dir: str, n: int, seed: int = SEED) -> dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    cpath = os.path.join(out_dir, "catchments.parquet")
    cat = catchment_table(n, seed)
    if not os.path.exists(cpath):
        pq.write_table(cat, cpath)
    paths["catchments"] = cpath
    for name, tbl in sidecar_tables(cat, seed).items():
        p = os.path.join(out_dir, f"{name}.parquet")
        if not os.path.exists(p):
            pq.write_table(tbl, p)
        paths[name] = p
    return paths


# ---------------------------------------------------------------------------
# query fixtures (FIXTURES.md F4)


def roi_polygons() -> dict[str, np.ndarray]:
    """Seeded ROI polygons in EPSG:4326 (lon, lat rings):
    tiny / huge / straddling / multi-vertex / degenerate sliver."""
    def poly(cx, cy, r_deg, m, rot=0.0):
        ang = 2 * np.pi * np.arange(m) / m + rot
        return np.stack([cx + r_deg * np.cos(ang), cy + r_deg * 0.8 * np.sin(ang)], axis=1)

    return {
        "tiny": poly(-98.3, 36.2, 0.01, 6),
        "huge": poly(-100.0, 38.0, 6.0, 10),
        "straddle": poly(-90.0, 35.0, 1.5, 8, rot=0.3),
        "many_vertex": poly(-110.0, 40.0, 2.0, 48),
        "sliver": np.array([[-97.0, 33.0], [-96.0, 33.0005], [-95.0, 33.0], [-96.0, 33.0002], [-97.0, 33.0]]),
    }


def bbox_queries() -> list[tuple[float, float, float, float]]:
    return [
        (-105.0, 35.0, -100.0, 40.0),
        (-90.5, 30.0, -89.5, 31.0),
        (-120.0 - 0.5, 40.0 - 0.5, -119.0 + 0.5, 41.0 + 0.5),  # buffered (viz:119-127)
    ]


def knn_queries() -> list[tuple[float, float]]:
    return [(-98.0, 36.0), (-122.0, 47.0), (-70.5, 44.0), (HOT_LON, HOT_LAT), (-80.0, 26.0)]
