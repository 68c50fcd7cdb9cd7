"""GeoTIFF raster pipelines — catalog, stats, COG window scans.

Reference parity: the reference only *collects* raster paths into
pointer tables (``load.py:44-45`` globs ``*.tif``; ``load.py:239-253``
attaches them per catchment) and leaves pixels to downstream GDAL.
This engine goes one level deeper with the from-spec codec in
``kernels/geotiff.py``: the catalog stage reads REAL metadata (dims,
CRS, nodata, geo bbox) from the IFD, and window scans decode only the
tiles an ROI touches.

Scale shapes (the 100 TB design points):
- ``catalog_paths``: header-only ranged reads through the FS adapter —
  a few hundred bytes per raster no matter the file size; a task map
  ships the filesystem handle with each task. Never ships pixel bytes.
- ``raster_stats`` / ``window_sums``: per-blob decode inside
  ``map_batches`` (segments are independent; batch-level parallelism),
  partial aggregates only — no shuffle, no full-corpus materialization.
- ``window_sums`` over tiled files touches header + intersecting tiles
  (read amplification pinned by tests/test_geotiff.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels import geotiff
from ..state.fsio import FS

_CATALOG_SCHEMA = pa.schema([
    ("path", pa.string()), ("width", pa.int64()), ("height", pa.int64()),
    ("dtype", pa.string()), ("compression", pa.string()),
    ("tiled", pa.bool_()), ("n_segments", pa.int64()),
    ("data_bytes", pa.int64()), ("epsg", pa.int64()),
    ("nodata", pa.float64()),
    ("minx", pa.float64()), ("miny", pa.float64()),
    ("maxx", pa.float64()), ("maxy", pa.float64()),
])


def _info_row(info: dict, path: str) -> dict:
    bbox = info.get("bbox", (None, None, None, None))
    return {"path": path, "width": info["width"], "height": info["height"],
            "dtype": info["dtype"], "compression": info["compression"],
            "tiled": info["tiled"], "n_segments": info["n_segments"],
            "data_bytes": info["data_bytes"], "epsg": info.get("epsg"),
            "nodata": info.get("nodata"),
            "minx": bbox[0], "miny": bbox[1], "maxx": bbox[2], "maxy": bbox[3]}


class CatalogFromFS:
    """GeoTIFF metadata catalog from paths, reading ONLY the IFD byte
    ranges through the (picklable) FS adapter — the raster-pointer-table
    analog of the reference's ``load.py:239-253``, but with real
    metadata instead of bare paths. It holds only the FS adapter, so it
    is mapped as an instance on plain tasks."""

    def __init__(self, filesystem=None):
        self.io = FS(filesystem)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for path in batch.column("path").to_pylist():
            f = self.io.open_input(path)
            try:
                rows.append(_info_row(geotiff.parse_info(f), path))
            finally:
                f.close()
        return pa.Table.from_pylist(rows, schema=_CATALOG_SCHEMA)


def catalog_paths(paths, filesystem=None):
    """Dataset of GeoTIFF metadata for ``paths`` — header-only reads."""
    import ray.data
    ds = ray.data.from_items([{"path": p} for p in paths])
    return ds.map_batches(CatalogFromFS(filesystem), batch_format="pyarrow")


def catalog_blobs(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Metadata catalog over in-table raster payloads (Lance-style
    binary column). Parses the IFD only — pixels are never decoded."""
    def fn(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        rows = [_info_row(geotiff.parse_info(b.as_py()), i)
                for i, b in zip(ids, t.column(bytes_col))]
        return pa.Table.from_pylist(rows, schema=_CATALOG_SCHEMA)
    return ds.map_batches(fn, batch_format="pyarrow")


def stats_table(t: pa.Table, bytes_col: str, id_col: str) -> pa.Table:
    """Per-raster pixel stats (nodata-masked) for one Arrow batch —
    full decode, all-integer aggregation when the band is integral."""
    widths, heights, n_valid = [], [], []
    sums, mins, maxs = [], [], []
    is_float = False  # empty batches stay int64 (single-dtype corpora)
    id_vals = t.column(id_col).to_pylist()
    for blob in t.column(bytes_col):
        arr, info = geotiff.decode_geotiff(blob.as_py())
        nd = info.get("nodata")
        mask = np.ones(arr.shape, bool) if nd is None else (arr != np.asarray(nd, arr.dtype))
        vals = arr[mask]
        is_float = is_float or arr.dtype.kind == "f"
        widths.append(info["width"])
        heights.append(info["height"])
        n_valid.append(int(mask.sum()))
        if vals.size:
            sums.append(int(vals.astype(np.int64).sum()) if arr.dtype.kind != "f"
                        else float(vals.sum()))
            mins.append(vals.min())
            maxs.append(vals.max())
        else:
            sums.append(0)
            mins.append(None)
            maxs.append(None)
    num = pa.float64() if is_float else pa.int64()
    conv = float if is_float else int
    return pa.table({id_col: pa.array(id_vals,
                                      type=t.schema.field(id_col).type),
                     "width": pa.array(widths, pa.int64()),
                     "height": pa.array(heights, pa.int64()),
                     "n_valid": pa.array(n_valid, pa.int64()),
                     "px_sum": pa.array(sums, num),
                     "px_min": pa.array([None if m is None else conv(m)
                                         for m in mins], num),
                     "px_max": pa.array([None if m is None else conv(m)
                                         for m in maxs], num)})


def raster_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster decode + nodata-masked stats, map-only."""
    return ds.map_batches(lambda t: stats_table(t, bytes_col, id_col),
                          batch_format="pyarrow")


def window_sum_one(src, x0: int, y0: int, w: int, h: int) -> dict:
    """COG window scan of a single raster source (bytes or open file):
    decodes only intersecting tiles; returns the window aggregate plus
    the touched-bytes evidence."""
    win, info = geotiff.decode_window(src, x0, y0, w, h)
    is_f = win.dtype.kind == "f"
    return {"win_sum": float(win.sum()) if is_f else int(win.astype(np.int64).sum()),
            "n_px": int(win.size),
            "bytes_read": int(info["window_bytes_read"]),
            "num_reads": int(info["window_num_reads"])}


def pyramid_reduce(ds, tile_px: int = 8, num_buckets: int = 32):
    """One tile-pyramid reduction step: level-z tiles → level-(z-1).

    Input rows ``(z, tx, ty, px)`` where ``px`` is a row-major
    ``tile_px × tile_px`` int64 list. Each child tile first
    downsamples IN-TASK (2×2 block SUM — integer-exact, the sum
    pyramid; a mean pyramid would leave integer arithmetic), then the
    four children of each parent co-locate via ONE hash shuffle on the
    parent key and assemble into the parent tile. Missing children
    (sparse coverage) contribute zeros — exactly how a z/x/y slippy
    tree handles ocean tiles.

    Scale shape: the downsample quarters the data BEFORE the shuffle,
    so each pyramid level moves 4× less than the one below — the whole
    pyramid costs ~4/3 of one pass over the base level.
    """
    import pandas as pd

    from .. import relational as rel

    half = tile_px // 2

    def downsample(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table({"z": pa.array([], pa.int64()),
                             "ptx": pa.array([], pa.int64()),
                             "pty": pa.array([], pa.int64()),
                             "qx": pa.array([], pa.int64()),
                             "qy": pa.array([], pa.int64()),
                             "q": pa.array([], pa.list_(pa.int64()))})
        px = np.asarray(t.column("px").to_pylist(), np.int64) \
            .reshape(n, tile_px, tile_px)
        small = px.reshape(n, half, 2, half, 2).sum(axis=(2, 4))
        tx = t.column("tx").to_numpy()
        ty = t.column("ty").to_numpy()
        return pa.table({
            "z": pa.array(t.column("z").to_numpy() - 1, pa.int64()),
            "ptx": pa.array(tx // 2, pa.int64()),
            "pty": pa.array(ty // 2, pa.int64()),
            "qx": pa.array(tx % 2, pa.int64()),
            "qy": pa.array(ty % 2, pa.int64()),
            "q": pa.array(list(small.reshape(n, half * half)),
                          pa.list_(pa.int64()))})

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        out = np.zeros((tile_px, tile_px), np.int64)
        for _, r in g.iterrows():
            quad = np.asarray(r["q"], np.int64).reshape(half, half)
            y0, x0 = int(r["qy"]) * half, int(r["qx"]) * half
            out[y0:y0 + half, x0:x0 + half] = quad
        return pd.DataFrame({
            "z": [int(g["z"].iloc[0])],
            "tx": [int(g["ptx"].iloc[0])],
            "ty": [int(g["pty"].iloc[0])],
            "px": [out.reshape(-1).tolist()]})

    small = ds.map_batches(downsample, batch_format="pyarrow")
    return rel.grouped_apply_bucketed(small, ["z", "ptx", "pty"],
                                      assemble, num_buckets=num_buckets)


def rasterize_lines(lines: ray.data.Dataset, tile_px: int, tiles_x: int,
                    x0: str = "x0", y0: str = "y0", x1: str = "x1",
                    y1: str = "y1", num_buckets: int = 64) -> ray.data.Dataset:
    """Distributed vector→raster line burn-in (stream/road network
    rasterization): each x-major segment (x0 < x1, |dy| ≤ dx) is
    rasterized to its closest-pixel DDA trace — pixel row at column x
    is the EXACT half-up rational round
    ``y = (2·(y0·(x1−x) + y1·(x−x0)) + dx) // (2·dx)`` — then pixels
    shuffle ONCE on their tile key (``tile = (y//tile_px)·tiles_x +
    x//tile_px``) and each tile aggregates coverage locally.

    Scale shape: the wide exchange carries only slim (tile, x, y)
    rows; a segment crossing many tiles contributes to each without
    any raster materialized; per-tile state is bounded by tile_px².
    Returns one row per non-empty tile: (tile, n_hits, n_pix,
    checksum) where n_pix counts DISTINCT burned pixels and checksum
    = Σ (x + 131·y) over them.
    """
    from ..relational import grouped_apply_bucketed

    def burn(t: pa.Table) -> pa.Table:
        ax0 = t.column(x0).to_numpy().astype(np.int64)
        ax1 = t.column(x1).to_numpy().astype(np.int64)
        ay0 = t.column(y0).to_numpy().astype(np.int64)
        ay1 = t.column(y1).to_numpy().astype(np.int64)
        n = ax1 - ax0 + 1  # columns per segment (x-major contract)
        if len(n) == 0 or n.sum() == 0:
            return pa.table({"tile": pa.array([], pa.int64()),
                             "x": pa.array([], pa.int64()),
                             "y": pa.array([], pa.int64())})
        # ragged expansion: flat (segment, column) index arrays
        seg = np.repeat(np.arange(len(n)), n)
        step = np.arange(n.sum(), dtype=np.int64) - np.repeat(
            np.cumsum(n) - n, n)
        X = ax0[seg] + step
        dx = (ax1 - ax0)[seg]
        num = ay0[seg] * (ax1[seg] - X) + ay1[seg] * (X - ax0[seg])
        Y = (2 * num + dx) // (2 * dx)
        tile = (Y // tile_px) * tiles_x + X // tile_px
        return pa.table({"tile": pa.array(tile, pa.int64()),
                         "x": pa.array(X, pa.int64()),
                         "y": pa.array(Y, pa.int64())})

    pix = lines.map_batches(burn, batch_format="pyarrow")

    def per_tile(g: pd.DataFrame) -> pd.DataFrame:
        pid = g["x"].to_numpy() * 100000 + g["y"].to_numpy()
        u = np.unique(pid)
        return pd.DataFrame({
            "tile": [int(g["tile"].iloc[0])],
            "n_hits": [len(g)],
            "n_pix": [len(u)],
            "checksum": [int((u // 100000 + 131 * (u % 100000)).sum())]})

    return grouped_apply_bucketed(pix, ["tile"], per_tile,
                                  num_buckets=num_buckets)
