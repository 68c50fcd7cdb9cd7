"""Terrain / hydrology raster operators over GeoTIFF blob tables.

The reference's rasters ARE terrain hydrology products — HAND
("height above nearest drainage") and catchment-reach grids
(``load.py:44-45`` globs ``*rem_zeroed*.tif`` /
``*gw_catchments_reaches*.tif``); the reference stores paths and
leaves the raster math to downstream GDAL/WBT. This module is the
engine-side version of that downstream math, each op a map-only
``map_batches`` stage over in-table GeoTIFF payloads (decoded by
``kernels/geotiff.py``):

- ``zonal_stats``: polygon-masked per-raster aggregates (the
  raster-side sibling of the vector zonal join, ``query.py`` J7) —
  pixel-center point-in-polygon via the crossing-number kernel
  (``kernels/geom.py:points_in_geom``), mask cached per (dims, zone).
- ``slope_stats``: interior central-difference gradient magnitude
  (|dx| + |dy|), the integer-exact core of slope/aspect maps.
- ``flow_direction_counts``: D8 steepest-descent direction histogram
  (codes 0..7 = E, SE, S, SW, W, NW, N, NE; -1 = pit/flat), the first
  step of every HAND/flow-accumulation computation.
- ``overview_checksums``: COG overview pyramid levels by 2x2
  floor-mean downsampling (what ``gdaladdo`` builds), one checksum
  row per level.
- ``contour_case_counts``: marching-squares 2x2 corner case codes
  (0..15) vs a threshold — the cell-classification pass of contour
  extraction.
- ``resample_nn``: nearest-neighbor resample to a target grid (the
  integer-exact core of regridding/reprojection), returning the
  resampled sum.

Scale shape: every op is per-raster-independent — no shuffle, no
driver materialization; partial aggregates stream out as small Arrow
tables. Every map is a Ray task map: the per-raster operators share
one batch shell (``_per_raster``) and keep only a row function, and
the zonal stages map a class instance whose zone masks are cached
per task, keyed by raster dims.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels import geotiff
from ..kernels.geom import points_in_geom
from ..kernels.wkb import decode as wkb_decode

# D8 direction codes, clockwise from east. (dx, dy) per code; dy grows
# DOWN the row axis (raster convention).
D8_OFFSETS = ((1, 0), (1, 1), (0, 1), (-1, 1),
              (-1, 0), (-1, -1), (0, -1), (1, -1))


def _decode_batch(t: pa.Table, bytes_col: str, id_col: str):
    """(id, 2-D array) pairs for one Arrow batch of GeoTIFF blobs."""
    ids = t.column(id_col).to_pylist()
    blobs = t.column(bytes_col)
    for i, blob in zip(ids, blobs):
        arr, info = geotiff.decode_geotiff(blob.as_py())
        yield i, arr, info


def _id_array(t: pa.Table, id_col: str, vals) -> pa.Array:
    return pa.array(vals, type=t.schema.field(id_col).type)


def _per_raster(ds, bytes_col: str, id_col: str, cols, rows_of):
    """Task map of ``rows_of(arr)`` over every decoded raster. Each
    tuple it returns is one output row: the raster's id (input type
    kept) followed by the values of ``cols``, all int64."""
    def fn(t: pa.Table) -> pa.Table:
        ids, rows = [], []
        for rid, arr, _ in _decode_batch(t, bytes_col, id_col):
            for row in rows_of(arr):
                ids.append(rid)
                rows.append(row)
        vals = list(zip(*rows)) or [()] * len(cols)
        return pa.table({id_col: _id_array(t, id_col, ids),
                         **{c: pa.array(v, pa.int64())
                            for c, v in zip(cols, vals)}})
    return ds.map_batches(fn, batch_format="pyarrow")


class ZonalStats:
    """Per (raster, zone) nodata-aware masked aggregates, mapped as an
    instance in a task map. Zones are WKB polygons evaluated at PIXEL
    CENTERS ((col + 0.5, row + 0.5) in pixel space) with the even-odd
    crossing-number kernel. The boolean mask per (dims, zone) is
    computed once per task and cached — zones and grid shapes repeat
    across a corpus, blobs don't."""

    def __init__(self, zone_wkbs: list[bytes], bytes_col: str = "bytes",
                 id_col: str = "path"):
        self.zones = [wkb_decode([w]) for w in zone_wkbs]
        self.bytes_col = bytes_col
        self.id_col = id_col
        self._masks: dict[tuple[int, int], list[np.ndarray]] = {}

    def _masks_for(self, h: int, w: int) -> list[np.ndarray]:
        key = (h, w)
        got = self._masks.get(key)
        if got is None:
            yy, xx = np.meshgrid(np.arange(h, dtype=np.float64) + 0.5,
                                 np.arange(w, dtype=np.float64) + 0.5,
                                 indexing="ij")
            px, py = xx.ravel(), yy.ravel()
            got = [points_in_geom(px, py, z).reshape(h, w)
                   for z in self.zones]
            self._masks[key] = got
        return got

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, zids, sums, cnts = [], [], [], []
        for rid, arr, info in _decode_batch(t, self.bytes_col, self.id_col):
            masks = self._masks_for(*arr.shape)
            nd = info.get("nodata")
            valid = (np.ones(arr.shape, bool) if nd is None
                     else arr != np.asarray(nd, arr.dtype))
            for zi, m in enumerate(masks):
                sel = arr[m & valid]
                ids.append(rid)
                zids.append(zi)
                cnts.append(int(sel.size))
                sums.append(int(sel.astype(np.int64).sum())
                            if arr.dtype.kind != "f" else float(sel.sum()))
        return pa.table({self.id_col: _id_array(t, self.id_col, ids),
                         "zone": pa.array(zids, pa.int64()),
                         "zone_sum": pa.array(sums, pa.int64()),
                         "zone_count": pa.array(cnts, pa.int64())})


def zonal_stats(ds, zone_wkbs, bytes_col: str = "bytes",
                id_col: str = "path"):
    """Raster zonal statistics: one row per (raster, zone)."""
    return ds.map_batches(ZonalStats(zone_wkbs, bytes_col, id_col),
                          batch_format="pyarrow")


class ZonalStatsWindowed:
    """Zonal statistics through COG WINDOW reads — the 100 TB path:
    instead of decoding whole rasters, each zone's pixel bbox is
    decoded via ``geotiff.decode_window`` (header + intersecting tiles
    only; ranged reads), and the PIP mask is evaluated only inside the
    window. Equals ``ZonalStats`` exactly (pinned by q138 sharing
    q126's oracle form) while touching a fraction of the bytes —
    ``bytes_read`` is emitted per (raster, zone) so read amplification
    stays observable end to end."""

    def __init__(self, zone_wkbs: list[bytes], bytes_col: str = "bytes",
                 id_col: str = "path"):
        self.zones = [wkb_decode([w]) for w in zone_wkbs]
        # per-zone pixel-center bbox: centers (x+0.5, y+0.5) inside the
        # polygon satisfy minx < x+0.5 < maxx
        self.boxes = []
        for z in self.zones:
            c = z.coords
            self.boxes.append((c[:, 0].min(), c[:, 1].min(),
                               c[:, 0].max(), c[:, 1].max()))
        self.bytes_col = bytes_col
        self.id_col = id_col
        self._masks: dict[tuple, np.ndarray] = {}

    def _window_of(self, zi: int, w: int, h: int):
        minx, miny, maxx, maxy = self.boxes[zi]
        x0 = max(0, int(np.floor(minx - 0.5)))
        y0 = max(0, int(np.floor(miny - 0.5)))
        x1 = min(w - 1, int(np.ceil(maxx - 0.5)))
        y1 = min(h - 1, int(np.ceil(maxy - 0.5)))
        return x0, y0, x1 - x0 + 1, y1 - y0 + 1

    def _mask_for(self, zi: int, x0: int, y0: int, ww: int, wh: int):
        key = (zi, x0, y0, ww, wh)
        got = self._masks.get(key)
        if got is None:
            yy, xx = np.meshgrid(y0 + np.arange(wh) + 0.5,
                                 x0 + np.arange(ww) + 0.5, indexing="ij")
            got = points_in_geom(xx.ravel(), yy.ravel(),
                                 self.zones[zi]).reshape(wh, ww)
            self._masks[key] = got
        return got

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, zids, sums, cnts, br = [], [], [], [], []
        id_vals = t.column(self.id_col).to_pylist()
        for rid, blob in zip(id_vals, t.column(self.bytes_col)):
            blob = blob.as_py()
            info0 = geotiff.parse_info(blob)
            w, h = info0["width"], info0["height"]
            nd = info0.get("nodata")
            for zi in range(len(self.zones)):
                x0, y0, ww, wh = self._window_of(zi, w, h)
                win, info = geotiff.decode_window(blob, x0, y0, ww, wh)
                m = self._mask_for(zi, x0, y0, ww, wh)
                if nd is not None:
                    m = m & (win != np.asarray(nd, win.dtype))
                sel = win[m]
                ids.append(rid)
                zids.append(zi)
                cnts.append(int(sel.size))
                sums.append(int(sel.astype(np.int64).sum())
                            if win.dtype.kind != "f" else float(sel.sum()))
                br.append(int(info["window_bytes_read"]))
        return pa.table({self.id_col: _id_array(t, self.id_col, ids),
                         "zone": pa.array(zids, pa.int64()),
                         "zone_sum": pa.array(sums, pa.int64()),
                         "zone_count": pa.array(cnts, pa.int64()),
                         "bytes_read": pa.array(br, pa.int64())})


def zonal_stats_windowed(ds, zone_wkbs, bytes_col: str = "bytes",
                         id_col: str = "path"):
    """Zonal statistics via COG window reads; one row per (raster,
    zone) with the touched-bytes evidence column."""
    return ds.map_batches(ZonalStatsWindowed(zone_wkbs, bytes_col, id_col),
                          batch_format="pyarrow")


def _cc_labels(binm: np.ndarray, max_rounds: int = 10000) -> np.ndarray:
    """4-connected component labels of a boolean grid by iterative
    min-label propagation with pointer-jumping: each round takes the
    min of the 4 neighbors' labels (within the class) then compresses
    the label forest (label = label[label]) — converges in
    O(diameter / 2^k)-ish rounds, fully vectorized. Labels are flat
    indices of each region's minimum cell; cells outside the class
    keep label -1."""
    h, w = binm.shape
    lbl = np.where(binm.ravel(), np.arange(h * w, dtype=np.int64), -1)
    for _ in range(max_rounds):
        g = lbl.reshape(h, w)
        m = g.copy()
        m[:, 1:] = np.minimum(m[:, 1:], np.where(g[:, :-1] >= 0, g[:, :-1], m[:, 1:]))
        m[:, :-1] = np.minimum(m[:, :-1], np.where(g[:, 1:] >= 0, g[:, 1:], m[:, :-1]))
        m[1:, :] = np.minimum(m[1:, :], np.where(g[:-1, :] >= 0, g[:-1, :], m[1:, :]))
        m[:-1, :] = np.minimum(m[:-1, :], np.where(g[1:, :] >= 0, g[1:, :], m[:-1, :]))
        m = np.where(binm, m, -1).ravel()
        # pointer-jump: compress chains through the label forest
        j = m >= 0
        while True:
            nm = m.copy()
            nm[j] = m[m[j]]
            if np.array_equal(nm, m):
                break
            m = nm
        if np.array_equal(m, lbl):
            return lbl.reshape(h, w)
        lbl = m
    raise RuntimeError("cc did not converge")


def polygonize_counts(ds, threshold: int, bytes_col: str = "bytes",
                      id_col: str = "path"):
    """Raster polygonize (region extraction) summary: 4-connected
    component counts of the thresholded raster, per class. Rows
    (id, above, n_regions, n_px) for class above = v > threshold and
    class above = 0 (v <= threshold)."""
    def rows(arr):
        b = arr > threshold
        out = []
        for above, m in ((1, b), (0, ~b)):
            lab = _cc_labels(m)
            out.append((above, int(np.unique(lab[lab >= 0]).size),
                        int(m.sum())))
        return out
    return _per_raster(ds, bytes_col, id_col,
                       ("above", "n_regions", "n_px"), rows)


def nearest_site_counts(ds, sites, bytes_col: str = "bytes",
                        id_col: str = "path"):
    """Voronoi rasterization / nearest-site labeling: each pixel
    center is assigned to the site with minimum squared distance
    (integer arithmetic on doubled coordinates so centers are exact;
    ties → lowest site index). Rows (id, site, n_px, site_sum) where
    site_sum adds the raster values of the site's cells.

    ``sites`` is a list of (x, y) pixel-space coordinates shared by
    every raster (the broadcast small side of a raster↔vector op)."""
    sx = np.asarray([s[0] for s in sites], np.float64)
    sy = np.asarray([s[1] for s in sites], np.float64)
    # doubled-integer site coords: exact when sites are half-integral
    sx2 = np.rint(sx * 2).astype(np.int64)
    sy2 = np.rint(sy * 2).astype(np.int64)

    cache: dict[tuple[int, int], np.ndarray] = {}

    def rows(arr):
        h, w = arr.shape
        lab = cache.get((h, w))
        if lab is None:
            # doubled pixel-center coords (2x+1, 2y+1): exact ints
            px = 2 * np.arange(w, dtype=np.int64) + 1
            py = 2 * np.arange(h, dtype=np.int64) + 1
            dx = px[None, :, None] - sx2[None, None, :]
            dy = py[:, None, None] - sy2[None, None, :]
            d2 = dx * dx + dy * dy
            lab = d2.argmin(axis=2)   # first min = lowest site idx
            cache[(h, w)] = lab
        a = arr.astype(np.int64)
        out = []
        for s in range(len(sites)):
            m = lab == s
            out.append((s, int(m.sum()), int(a[m].sum())))
        return out
    return _per_raster(ds, bytes_col, id_col,
                       ("site", "n_px", "site_sum"), rows)


def _slope_one(arr: np.ndarray):
    """Interior central-difference |dx|+|dy| (integer-exact)."""
    a = arr.astype(np.int64)
    dx = np.abs(a[1:-1, 2:] - a[1:-1, :-2])
    dy = np.abs(a[2:, 1:-1] - a[:-2, 1:-1])
    g = dx + dy
    return int(g.sum()), int(g.max()) if g.size else 0, int(g.size)


def slope_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster gradient-magnitude stats over interior pixels:
    (grad_sum, grad_max, n_interior)."""
    return _per_raster(ds, bytes_col, id_col,
                       ("grad_sum", "grad_max", "n_interior"),
                       lambda arr: [_slope_one(arr)])


def _d8_one(arr: np.ndarray) -> np.ndarray:
    """D8 direction grid over interior pixels: per pixel the code
    (0..7, D8_OFFSETS order) of the steepest-descent neighbor, first
    code winning ties; -1 where no neighbor is strictly lower
    (pit/flat). Vectorized: 8 shifted slices stacked, one argmax."""
    a = arr.astype(np.int64)
    c = a[1:-1, 1:-1]
    drops = np.stack([c - a[1 + dy:a.shape[0] - 1 + dy,
                             1 + dx:a.shape[1] - 1 + dx]
                      for dx, dy in D8_OFFSETS])
    best = drops.argmax(axis=0)          # first max = lowest code
    out = best.astype(np.int64)
    out[np.take_along_axis(drops, best[None], 0)[0] <= 0] = -1
    return out


def flow_direction_counts(ds, bytes_col: str = "bytes",
                          id_col: str = "path"):
    """Per-raster D8 direction histogram: rows (id, direction, n_px),
    direction in -1..7, only nonzero counts emitted."""
    def rows(arr):
        cnt = np.bincount((_d8_one(arr) + 1).ravel(), minlength=9)
        return [(int(code) - 1, int(cnt[code]))
                for code in np.nonzero(cnt)[0]]
    return _per_raster(ds, bytes_col, id_col, ("direction", "n_px"), rows)


def _overview_levels(arr: np.ndarray, levels: int):
    """COG-style overview pyramid: each level halves both dims by
    2x2 block FLOOR-mean (gdaladdo 'average' on integers, rounded
    down). Dims must stay even at every level built."""
    a = arr.astype(np.int64)
    out = []
    for lvl in range(1, levels + 1):
        h, w = a.shape
        if h % 2 or w % 2:
            raise ValueError(f"overview level {lvl} needs even dims, got {a.shape}")
        a = (a[0::2, 0::2] + a[0::2, 1::2]
             + a[1::2, 0::2] + a[1::2, 1::2]) // 4
        out.append(a)
    return out


def overview_checksums(ds, levels: int = 2, bytes_col: str = "bytes",
                       id_col: str = "path"):
    """Per-raster overview-pyramid checksums: rows
    (id, level, px_sum, w, h) for levels 1..``levels``."""
    def rows(arr):
        return [(li, int(ov.sum()), ov.shape[1], ov.shape[0])
                for li, ov in enumerate(_overview_levels(arr, levels), 1)]
    return _per_raster(ds, bytes_col, id_col,
                       ("level", "px_sum", "w", "h"), rows)


def _ms_cases(arr: np.ndarray, threshold: int) -> np.ndarray:
    """Marching-squares case code per 2x2 cell: bit 0 = top-left
    corner above threshold, bit 1 = top-right, bit 2 = bottom-left,
    bit 3 = bottom-right (strict >)."""
    b = (arr > threshold)
    return (b[:-1, :-1].astype(np.int64)
            + 2 * b[:-1, 1:] + 4 * b[1:, :-1] + 8 * b[1:, 1:])


def contour_case_counts(ds, threshold: int, bytes_col: str = "bytes",
                        id_col: str = "path"):
    """Marching-squares cell classification vs ``threshold``: rows
    (id, ms_case, n_cells), case in 0..15, nonzero counts only."""
    def rows(arr):
        cnt = np.bincount(_ms_cases(arr, threshold).ravel(), minlength=16)
        return [(int(code), int(cnt[code])) for code in np.nonzero(cnt)[0]]
    return _per_raster(ds, bytes_col, id_col, ("ms_case", "n_cells"), rows)


def _flow_terminals(arr: np.ndarray, drain_thresh=None):
    """Per-cell D8 flow routing by pointer doubling.

    Builds the functional graph next[cell] = steepest strictly-lower
    D8 neighbor (interior cells; boundary cells, pits/flats and —
    when ``drain_thresh`` is given — drainage cells ``v <
    drain_thresh`` are terminals pointing at themselves), then
    resolves every cell's full path with pointer doubling: O(log
    max_path) rounds of two gathers, no per-cell Python. Strictly
    descending values guarantee acyclicity. Returns (path_len,
    terminal) flat int64 arrays.

    This is the engine-side first half of the reference's namesake
    HAND product (height above nearest drainage): the reference
    catalogs ``*rem_zeroed*.tif`` HAND rasters (load.py:44-45)
    computed upstream by exactly this routing."""
    h, w = arr.shape
    idx = np.arange(h * w, dtype=np.int64)
    d8 = _d8_one(arr)
    off = np.array([dy * w + dx for dx, dy in D8_OFFSETS], np.int64)
    nxt = idx.copy().reshape(h, w)
    inner = nxt[1:-1, 1:-1]
    nxt[1:-1, 1:-1] = inner + np.where(d8 >= 0, off[np.clip(d8, 0, None)], 0)
    nxt = nxt.ravel()
    if drain_thresh is not None:
        drain = arr.ravel() < np.asarray(drain_thresh, arr.dtype)
        nxt[drain] = idx[drain]
    d = (nxt != idx).astype(np.int64)
    while True:
        nn = nxt[nxt]
        if np.array_equal(nn, nxt):
            break
        d = d + d[nxt]
        nxt = nn
    return d, nxt


def _interior_flat(h: int, w: int) -> np.ndarray:
    g = np.zeros((h, w), bool)
    g[1:-1, 1:-1] = True
    return g.ravel()


def flow_path_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster D8 flow-path stats over interior start cells: rows
    (id, path_sum, path_max, n_pit, n_edge) — every path ends either
    at an interior pit/flat (n_pit) or leaves through the boundary
    ring (n_edge)."""
    def rows(arr):
        d, term = _flow_terminals(arr)
        interior = _interior_flat(*arr.shape)
        di, ti = d[interior], term[interior]
        term_interior = interior[ti]
        return [(int(di.sum()), int(di.max()) if di.size else 0,
                 int(term_interior.sum()), int((~term_interior).sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("path_sum", "path_max", "n_pit", "n_edge"), rows)


def hand_stats(ds, drain_thresh: int, bytes_col: str = "bytes",
               id_col: str = "path"):
    """HAND — height above nearest drainage — per raster: every
    interior cell flows along D8 until it reaches a drainage cell
    (``v < drain_thresh``), a pit, or the boundary; HAND = start
    elevation minus the drainage cell's elevation for cells that
    reach drainage. Rows (id, n_drained, hand_sum, hand_max,
    n_undrained)."""
    def rows(arr):
        _, term = _flow_terminals(arr, drain_thresh=drain_thresh)
        v = arr.ravel().astype(np.int64)
        interior = _interior_flat(*arr.shape)
        vi, ti = v[interior], term[interior]
        drained = v[ti] < drain_thresh
        hand = vi[drained] - v[ti[drained]]
        return [(int(drained.sum()), int(hand.sum()),
                 int(hand.max()) if hand.size else 0,
                 int((~drained).sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("n_drained", "hand_sum", "hand_max", "n_undrained"),
                       rows)


def flow_accumulation(ds, channel_thresh: int, bytes_col: str = "bytes",
                      id_col: str = "path"):
    """D8 flow accumulation + stream delineation per raster: acc(c) =
    number of interior cells whose flow path passes through c (c
    itself excluded). Computed by level-ordered in-place accumulation:
    cells processed in strictly descending elevation order (flow only
    goes downhill, so every contributor is final before it
    contributes), one vectorized ``np.add.at`` per distinct elevation
    level — O(#levels) passes, no per-cell Python. Rows
    (id, acc_max, n_channel) where n_channel counts cells with acc >=
    ``channel_thresh`` (the classic stream-network threshold)."""
    def acc_of(arr: np.ndarray) -> np.ndarray:
        idx = np.arange(arr.size, dtype=np.int64)
        # one-step next pointers (terminals point at themselves)
        d8 = _d8_one(arr)
        off = np.array([dy * arr.shape[1] + dx for dx, dy in D8_OFFSETS],
                       np.int64)
        nxt = idx.copy().reshape(arr.shape)
        inner = nxt[1:-1, 1:-1]
        nxt[1:-1, 1:-1] = inner + np.where(d8 >= 0,
                                           off[np.clip(d8, 0, None)], 0)
        nxt = nxt.ravel()
        interior = _interior_flat(*arr.shape)
        a = interior.astype(np.int64)  # each interior cell carries itself
        v = arr.ravel()
        movers = nxt != idx
        order = np.argsort(v, kind="stable")[::-1]
        lv = v[order]
        starts = np.flatnonzero(np.r_[True, lv[1:] != lv[:-1]])
        for s, e in zip(starts, np.r_[starts[1:], lv.size]):
            cells = order[s:e]
            cells = cells[movers[cells]]
            if cells.size:
                np.add.at(a, nxt[cells], a[cells])
        return a - interior  # exclude the cell itself

    def rows(arr):
        acc = acc_of(arr)
        return [(int(acc.max()), int((acc >= channel_thresh).sum()))]
    return _per_raster(ds, bytes_col, id_col, ("acc_max", "n_channel"), rows)


def _morph_one(arr: np.ndarray):
    """3x3 dilate (max) / erode (min) over interior pixels."""
    a = arr.astype(np.int64)
    sl = [a[1 + dy:a.shape[0] - 1 + dy, 1 + dx:a.shape[1] - 1 + dx]
          for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    st = np.stack(sl)
    return st.max(axis=0), st.min(axis=0)


def morphology_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster 3x3 morphological dilate/erode sums over interior
    pixels plus the gradient (dilate - erode) sum — the morphological
    edge detector."""
    def rows(arr):
        di, er = _morph_one(arr)
        return [(int(di.sum()), int(er.sum()), int((di - er).sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("dilate_sum", "erode_sum", "mgrad_sum"), rows)


def _bilinear_one(arr: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Integer-exact bilinear resample: source coordinate u =
    out_idx * (src_dim - 1), a rational with denominator (out_dim -
    1); the interpolated value is computed in scaled-integer
    numerators and floored ONCE at the end — bit-reproducible across
    platforms (no float rounding anywhere)."""
    h, w = arr.shape
    a = arr.astype(np.int64)
    qx, qy = out_w - 1, out_h - 1
    ux = np.arange(out_w, dtype=np.int64) * (w - 1)   # numerator, den qx
    uy = np.arange(out_h, dtype=np.int64) * (h - 1)
    x0 = ux // qx
    y0 = uy // qy
    fx = ux - x0 * qx                                  # 0..qx-1
    fy = uy - y0 * qy
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    v00 = a[np.ix_(y0, x0)]
    v10 = a[np.ix_(y0, x1)]
    v01 = a[np.ix_(y1, x0)]
    v11 = a[np.ix_(y1, x1)]
    FX, FY = fx[None, :], fy[:, None]
    num = ((qx - FX) * (qy - FY) * v00 + FX * (qy - FY) * v10
           + (qx - FX) * FY * v01 + FX * FY * v11)
    return num // (qx * qy)


def resample_bilinear(ds, out_w: int, out_h: int, bytes_col: str = "bytes",
                      id_col: str = "path"):
    """Integer-exact bilinear resample to (out_w, out_h): rows
    (id, bl_sum, bl_min, bl_max)."""
    def rows(arr):
        r = _bilinear_one(arr, out_w, out_h)
        return [(int(r.sum()), int(r.min()), int(r.max()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("bl_sum", "bl_min", "bl_max"), rows)


def rle_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Row-wise run-length statistics (compression planning for the
    tile store): rows (id, n_runs, max_run). Runs never span rows —
    every row start opens a run, matching TIFF strip semantics."""
    def rows(arr):
        starts = np.ones(arr.shape, bool)
        starts[:, 1:] = arr[:, 1:] != arr[:, :-1]
        flat = starts.ravel()           # row-major; x=0 always True
        pos = np.flatnonzero(flat)
        lens = np.diff(np.r_[pos, flat.size])
        return [(int(pos.size), int(lens.max()))]
    return _per_raster(ds, bytes_col, id_col, ("n_runs", "max_run"), rows)


def value_histogram(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster exact value histogram (small non-negative integer
    domains): rows (id, value, n_px), nonzero counts only — one
    bincount per raster, map-only partials."""
    def rows(arr):
        c = np.bincount(arr.ravel().astype(np.int64))
        return [(int(v), int(c[v])) for v in np.nonzero(c)[0]]
    return _per_raster(ds, bytes_col, id_col, ("value", "n_px"), rows)


def mosaic_max(ds, group_col: str, bytes_col: str = "bytes"):
    """Grouped raster mosaic: pixel-wise MAX composite of every raster
    in a group (same dims required — tile stacks share a grid). The
    one genuinely wide op in this family: a keyed groupby shuffle
    moves blobs to their group, then each group composites locally.
    Rows (group, n_members, mosaic_sum, mosaic_max)."""
    import pandas as pd

    def combine(g: "pd.DataFrame") -> "pd.DataFrame":
        arrs = [geotiff.decode_geotiff(b)[0] for b in g[bytes_col]]
        st = np.stack([a.astype(np.int64) for a in arrs])
        mo = st.max(axis=0)
        return pd.DataFrame({group_col: [g[group_col].iloc[0]],
                             "n_members": [len(arrs)],
                             "mosaic_sum": [int(mo.sum())],
                             "mosaic_max": [int(mo.max())]})

    return ds.groupby(group_col).map_groups(combine, batch_format="pandas")


def _resample_nn_one(arr: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resample by integer source-index mapping:
    src = floor(out_idx * src_dim / out_dim) — GDAL's NN grid."""
    h, w = arr.shape
    sy = (np.arange(out_h, dtype=np.int64) * h) // out_h
    sx = (np.arange(out_w, dtype=np.int64) * w) // out_w
    return arr[np.ix_(sy, sx)]


def resample_nn(ds, out_w: int, out_h: int, bytes_col: str = "bytes",
                id_col: str = "path"):
    """Per-raster nearest-neighbor resample to (out_w, out_h):
    rows (id, rs_sum, rs_min, rs_max) over the resampled grid."""
    def rows(arr):
        r = _resample_nn_one(arr, out_w, out_h).astype(np.int64)
        return [(int(r.sum()), int(r.min()), int(r.max()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("rs_sum", "rs_min", "rs_max"), rows)


def _hillshade_one(arr: np.ndarray, lx: int, ly: int, lz_k: int):
    """Integer lambertian quick-look hillshade: per interior pixel
    raw = lz_k - lx*gx - ly*gy with central-difference gradients,
    clipped at 0 (the unnormalized fast-hillshade renderers use; the
    normalizing sqrt would leave integers). Returns (shade_sum,
    n_shadow, n_interior)."""
    a = arr.astype(np.int64)
    gx = a[1:-1, 2:] - a[1:-1, :-2]
    gy = a[2:, 1:-1] - a[:-2, 1:-1]
    raw = lz_k - lx * gx - ly * gy
    return (int(np.maximum(raw, 0).sum()), int((raw < 0).sum()),
            int(raw.size))


def hillshade_stats(ds, lx: int = 2, ly: int = 3, lz_k: int = 128,
                    bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster integer hillshade aggregates (shade_sum, n_shadow,
    n_interior) — the directional-light sibling of slope_stats."""
    return _per_raster(ds, bytes_col, id_col,
                       ("shade_sum", "n_shadow", "n_interior"),
                       lambda arr: [_hillshade_one(arr, lx, ly, lz_k)])


def row_viewshed_batch(h: np.ndarray) -> np.ndarray:
    """Batched 1-D line-of-sight viewshed: for each terrain profile
    ``h[i]`` (observer at x=0, eye height = terrain there), a cell x
    is visible iff its sight-line slope strictly exceeds every
    intermediate one: (h[x]−h0)·t > (h[t]−h0)·x ∀ 0<t<x — evaluated
    with INTEGER cross-multiplication, no division, so results are
    exact (the standard per-ray viewshed reduction; 2-D viewsheds run
    this kernel once per ray). Vectorized across the batch: W−1 steps
    of whole-column numpy, maintaining the running max slope as a
    (num, den) pair. Returns (N,) int64 visible-cell counts
    (excluding the observer cell).
    """
    h = np.asarray(h, np.int64)
    n, w = h.shape
    h0 = h[:, 0]
    best_num = h[:, 1] - h0          # x=1 is always visible
    best_den = np.ones(n, np.int64)
    count = np.ones(n, np.int64) if w > 1 else np.zeros(n, np.int64)
    for x in range(2, w):
        num = h[:, x] - h0
        vis = num * best_den > best_num * x
        count += vis
        best_num = np.where(vis, num, best_num)
        best_den = np.where(vis, x, best_den)
    return count


def laplacian_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster 5-point Laplacian (∇²v = N+S+E+W−4v on interior
    cells) aggregates: abs_sum (total curvature magnitude),
    n_concave (∇² > 0, local basins), n_convex (∇² < 0, local ridges)
    — the second-derivative sibling of slope_stats/hillshade_stats
    (curvature drives flow convergence in HAND-style terrain
    analysis). Pure shifted-slice integer arithmetic."""
    def rows(arr):
        v = arr.astype(np.int64)
        lap = (v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2]
               + v[1:-1, 2:] - 4 * v[1:-1, 1:-1])
        return [(int(np.abs(lap).sum()), int((lap > 0).sum()),
                 int((lap < 0).sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("abs_sum", "n_concave", "n_convex"), rows)


def fill_depressions(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact depression filling (the Planchon–Darboux / Priority-Flood
    result): the unique fixpoint of

        W(c) = dem(c)                         on boundary cells
        W(c) = max(dem(c), min_{n in N4(c)} W(n))   on interior cells

    reached by monotone Jacobi iteration from W = +inf interior — the
    published equivalence with heap-based Priority-Flood (Barnes 2014:
    the filled elevation of a cell is the minimax over boundary paths
    of path-max elevation, which is exactly this fixpoint). Every
    sweep is four shifted-slice mins + one max; iteration count is
    bounded by the longest optimal drain path (≈ grid diameter), so
    per-raster work is O(iters · n) fully vectorized. Returns the
    filled surface and the sweep count (DEM conditioning is the step
    hydrology toolchains run BEFORE computing the reference's HAND
    rasters, load.py:44-45 *rem_zeroed*.tif)."""
    dem = arr.astype(np.int64)
    big = np.int64(np.iinfo(np.int64).max // 4)
    w = np.full_like(dem, big)
    w[0, :] = dem[0, :]
    w[-1, :] = dem[-1, :]
    w[:, 0] = dem[:, 0]
    w[:, -1] = dem[:, -1]
    iters = 0
    while True:
        nmin = np.minimum(
            np.minimum(w[:-2, 1:-1], w[2:, 1:-1]),
            np.minimum(w[1:-1, :-2], w[1:-1, 2:]))
        new = np.maximum(dem[1:-1, 1:-1], nmin)
        # monotone: W only ever decreases toward the fixpoint
        new = np.minimum(w[1:-1, 1:-1], new)
        iters += 1
        if np.array_equal(new, w[1:-1, 1:-1]):
            break
        w[1:-1, 1:-1] = new
    return w, iters


def fill_depression_stats(ds, bytes_col: str = "bytes",
                          id_col: str = "path"):
    """Per-raster depression-fill aggregates over GeoTIFF blobs:
    fill_volume = Σ (filled − dem), n_filled = cells raised, max_raise
    = deepest fill. Map-only; see ``fill_depressions``."""
    def rows(arr):
        d = fill_depressions(arr)[0] - arr.astype(np.int64)
        return [(int(d.sum()), int((d > 0).sum()), int(d.max()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("fill_volume", "n_filled", "max_raise"), rows)


def squared_edt(feat: np.ndarray) -> np.ndarray:
    """EXACT squared Euclidean distance transform of a boolean feature
    mask (True = feature): two integer phases. Phase 1: per column,
    the exact |row distance| to the nearest feature in that column
    (two directional scans). Phase 2: per cell, min over source
    columns of (dx² + dy²(col, row)) — a vectorized (W × W) broadcast
    per row block. All int64, no rationals, no float: the production
    scale path would swap phase 2 for the Felzenszwalb lower-envelope
    O(n) pass; at raster-tile sizes the dense min is faster in numpy
    and bit-identical. Cells with no feature anywhere get -1."""
    h, w = feat.shape
    big = np.int64(1) << 40
    # phase 1: vertical distances per column (forward + backward scan)
    dy = np.full((h, w), big, np.int64)
    dy[feat] = 0
    for r in range(1, h):
        dy[r] = np.minimum(dy[r], dy[r - 1] + 1)
    for r in range(h - 2, -1, -1):
        dy[r] = np.minimum(dy[r], dy[r + 1] + 1)
    dy2 = np.where(dy >= big, big, dy * dy)
    # phase 2: horizontal broadcast min  d2[r, x] = min_c (x-c)^2 + dy2[r, c]
    xs = np.arange(w, dtype=np.int64)
    dx2 = (xs[:, None] - xs[None, :]) ** 2          # (x, c)
    d2 = (dx2[None, :, :] + dy2[:, None, :]).min(axis=2)
    return np.where(d2 >= big, -1, d2)


def edt_stats(ds, feature_thresh: int, bytes_col: str = "bytes",
              id_col: str = "path"):
    """Per-raster exact squared-EDT aggregates with features = cells
    strictly below ``feature_thresh`` (proximity-to-drainage rasters —
    the Euclidean sibling of the reference's HAND product): d2_sum,
    d2_max, n_feat."""
    def rows(arr):
        feat = arr < feature_thresh
        d2 = squared_edt(feat)
        return [(int(d2.sum()), int(d2.max()), int(feat.sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("d2_sum", "d2_max", "n_feat"), rows)


def moran_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster global Moran's I components under rook (4-neighbor,
    binary-weight) adjacency, kept EXACT by scaling deviations by n:
    with S = Σv and n = H·W, dev(c) = n·v(c) − S, report

        num_scaled = Σ_{directed rook pairs (i,j)} dev(i)·dev(j)
        den_scaled = Σ_i dev(i)²
        w_sum      = number of directed rook pairs

    so Moran's I = (n / w_sum) · num_scaled / den_scaled with zero
    float drift in the shuffled parts (the division happens at the
    reader). Spatial autocorrelation is the standard QC gate for
    interpolated terrain products."""
    def rows(arr):
        v = arr.astype(np.int64)
        h, w = v.shape
        dev = h * w * v - v.sum()
        horiz = (dev[:, :-1] * dev[:, 1:]).sum()
        vert = (dev[:-1, :] * dev[1:, :]).sum()
        return [(int(2 * (horiz + vert)), int((dev * dev).sum()),
                 int(2 * (h * (w - 1) + w * (h - 1))))]
    return _per_raster(ds, bytes_col, id_col,
                       ("num_scaled", "den_scaled", "w_sum"), rows)


def cost_distance(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact accumulated-cost surface from the WEST edge (the
    least-cost-path / cost-distance operator, GRASS ``r.cost``
    semantics with 4-connectivity and cost charged on cell ENTRY):

        D(0, y-col 0 cells) = v(cell)           (start cells pay own cost)
        D(c)               = min_{n in N4(c)} D(n) + v(c)

    computed by monotone Bellman–Ford Jacobi sweeps (four shifted-slice
    mins + one add per sweep) to the unique fixpoint — exact int64, no
    heap, no float. Returns (D, sweeps)."""
    v = arr.astype(np.int64)
    big = np.int64(np.iinfo(np.int64).max // 4)
    d = np.full_like(v, big)
    d[:, 0] = v[:, 0]
    sweeps = 0
    while True:
        inner = np.full_like(v, big)
        inner[:, 1:] = np.minimum(inner[:, 1:], d[:, :-1])
        inner[:, :-1] = np.minimum(inner[:, :-1], d[:, 1:])
        inner[1:, :] = np.minimum(inner[1:, :], d[:-1, :])
        inner[:-1, :] = np.minimum(inner[:-1, :], d[1:, :])
        new = np.minimum(d, np.where(inner >= big, big, inner + v))
        new[:, 0] = v[:, 0]
        sweeps += 1
        if np.array_equal(new, d):
            break
        d = new
    return d, sweeps


def cost_distance_stats(ds, bytes_col: str = "bytes",
                        id_col: str = "path"):
    """Per-raster accumulated-cost aggregates (west-edge sources):
    cost_sum, cost_max, east_min = cheapest full west→east crossing
    (the corridor-analysis number)."""
    def rows(arr):
        d, _ = cost_distance(arr)
        return [(int(d.sum()), int(d.max()), int(d[:, -1].min()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("cost_sum", "cost_max", "east_min"), rows)


def otsu_threshold(arr: np.ndarray, nlevels: int) -> tuple[int, int, int]:
    """Exact Otsu threshold over integer levels 0..nlevels-1: the t
    (class0 = v ≤ t) maximizing between-class variance, compared as
    the exact fraction A²/B with A = s0·n − S·c0, B = c0·(n − c0)
    (σ²_B scaled by n²; no floats, ties break to the smallest t —
    the classic histogram-based binarization used to split rasters
    into land/water or foreground/background classes). Returns
    (t, A², B)."""
    v = arr.astype(np.int64).ravel()
    n = v.size
    cnt = np.bincount(v, minlength=nlevels)
    vals = np.arange(nlevels, dtype=np.int64)
    c0 = np.cumsum(cnt)[: nlevels - 1]
    s0 = np.cumsum(cnt * vals)[: nlevels - 1]
    S = int((cnt * vals).sum())
    A = s0 * n - S * c0
    B = c0 * (n - c0)
    best_t, bn, bd = -1, -1, 1
    for tt in range(nlevels - 1):
        if B[tt] <= 0:
            continue
        num = int(A[tt]) ** 2
        den = int(B[tt])
        if best_t < 0 or num * bd > bn * den:
            best_t, bn, bd = tt, num, den
    return best_t, bn, bd


def otsu_stats(ds, nlevels: int = 64, bytes_col: str = "bytes",
               id_col: str = "path"):
    """Per-raster exact Otsu threshold + the winning between-class
    variance as the exact fraction (bcv_num, bcv_den)."""
    return _per_raster(ds, bytes_col, id_col,
                       ("otsu_t", "bcv_num", "bcv_den"),
                       lambda arr: [otsu_threshold(arr, nlevels)])


def seam_bottom_costs(arr: np.ndarray) -> np.ndarray:
    """Seam-carving DP (Avidan–Shamir content-aware resize): energy =
    clamped central gradient |v[r,c+1]−v[r,c−1]| + |v[r+1,c]−v[r−1,c]|,
    then the minimum-energy 8-connected top→bottom path table
    D(r,c) = E + min(D(r−1, c−1..c+1)). Exact int64; returns the
    bottom row of D (the cheapest vertical seam ends at its argmin)."""
    v = arr.astype(np.int64)
    H, W = v.shape
    cx = np.arange(W)
    cy = np.arange(H)
    E = (np.abs(v[:, np.minimum(cx + 1, W - 1)]
                - v[:, np.maximum(cx - 1, 0)])
         + np.abs(v[np.minimum(cy + 1, H - 1), :]
                  - v[np.maximum(cy - 1, 0), :]))
    big = np.int64(1) << 40
    d = E[0].copy()
    for r in range(1, H):
        left = np.concatenate(([big], d[:-1]))
        right = np.concatenate((d[1:], [big]))
        d = E[r] + np.minimum(d, np.minimum(left, right))
    return d


def seam_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster cheapest-vertical-seam aggregates: seam_min (the
    seam the first removal would take), seam_argmin (its bottom
    column, ties → smallest), bottom_sum (Σ of the DP bottom row)."""
    def rows(arr):
        d = seam_bottom_costs(arr)
        return [(int(d.min()), int(np.flatnonzero(d == d.min())[0]),
                 int(d.sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("seam_min", "seam_argmin", "bottom_sum"), rows)


def glcm_features(arr: np.ndarray, nlevels: int) -> tuple[int, int, int, int]:
    """Gray-level co-occurrence matrix features for the (dx=1, dy=0)
    offset (Haralick texture): over all horizontal neighbor pairs
    (v[y,x], v[y,x+1]), contrast = Σ c(a,b)·(a−b)² (= Σ (vi−vj)² over
    pairs), energy = Σ c(a,b)² (needs the actual matrix), glcm_max =
    the most frequent pair's count, glcm_distinct = #occupied cells.
    All exact int64."""
    v = arr.astype(np.int64)
    a = v[:, :-1].ravel()
    b = v[:, 1:].ravel()
    contrast = int(((a - b) ** 2).sum())
    cnt = np.bincount(a * nlevels + b, minlength=nlevels * nlevels)
    energy = int((cnt.astype(np.int64) ** 2).sum())
    return contrast, energy, int(cnt.max()), int((cnt > 0).sum())


def glcm_stats(ds, nlevels: int = 64, bytes_col: str = "bytes",
               id_col: str = "path"):
    """Per-raster GLCM texture features (map-only, no shuffle)."""
    return _per_raster(ds, bytes_col, id_col,
                       ("contrast", "energy", "glcm_max", "glcm_distinct"),
                       lambda arr: [glcm_features(arr, nlevels)])


def median3_interior(arr: np.ndarray) -> np.ndarray:
    """3×3 median filter over interior pixels: stack the 9 shifted
    slices, partition on the middle element — the rank-order denoise
    filter (salt-and-pepper removal), exact for integer rasters."""
    v = arr.astype(np.int64)
    st = np.stack([v[1 + dy:v.shape[0] - 1 + dy or None,
                     1 + dx:v.shape[1] - 1 + dx or None]
                   for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
    return np.partition(st, 4, axis=0)[4]


def median_filter_stats(ds, bytes_col: str = "bytes",
                        id_col: str = "path"):
    """Per-raster 3×3 median-filter aggregates over the interior:
    med_sum (Σ of filtered values), med_max, and n_changed (pixels the
    filter altered — the denoise-activity count)."""
    def rows(arr):
        med = median3_interior(arr)
        ctr = arr.astype(np.int64)[1:-1, 1:-1]
        return [(int(med.sum()), int(med.max()), int((med != ctr).sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("med_sum", "med_max", "n_changed"), rows)


def quadtree_leaves(arr: np.ndarray) -> tuple[int, int, int]:
    """Quadtree decomposition size of a 2^L × 2^L raster: recursively
    split any non-homogeneous (min ≠ max) block into 4 quadrants; a
    leaf is a homogeneous block whose parent is not homogeneous (the
    root, if homogeneous, is the single leaf). Returns (n_leaves,
    n_solid — leaves with size > 1, max_leaf_size — side length of
    the largest leaf). The classic raster-compression measure: low
    leaf counts = large uniform regions."""
    n = arr.shape[0]
    assert arr.shape == (n, n) and n & (n - 1) == 0
    mn = arr.astype(np.int64)
    mx = mn.copy()
    hom = [mn == mx]  # level 0: always True
    while mn.shape[0] > 1:
        mn = np.minimum.reduceat(np.minimum.reduceat(mn, np.arange(0, mn.shape[0], 2), axis=0),
                                 np.arange(0, mn.shape[1], 2), axis=1)
        mx = np.maximum.reduceat(np.maximum.reduceat(mx, np.arange(0, mx.shape[0], 2), axis=0),
                                 np.arange(0, mx.shape[1], 2), axis=1)
        hom.append(mn == mx)
    leaves = solid = 0
    max_side = 0
    for lv in range(len(hom)):
        h = hom[lv]
        if lv == len(hom) - 1:
            leaf = h
        else:
            parent = np.repeat(np.repeat(hom[lv + 1], 2, axis=0), 2, axis=1)
            leaf = h & ~parent
        c = int(leaf.sum())
        leaves += c
        if lv > 0:
            solid += c
        if c:
            max_side = 1 << lv
    return leaves, solid, max_side


def quadtree_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster quadtree leaf counts (map-only)."""
    return _per_raster(ds, bytes_col, id_col,
                       ("qt_leaves", "qt_solid", "qt_max_side"),
                       lambda arr: [quadtree_leaves(arr)])


def ssim_global(a: np.ndarray, b: np.ndarray, c1: int = 1,
                c2: int = 9) -> tuple[int, int]:
    """Global (single-window) SSIM between two integer rasters as an
    EXACT rational: with n pixels and integer sums Sx,Sy,Sxx,Syy,Sxy,
    multiply Wang et al.'s formula through by n⁴ —
      num = (2·Sx·Sy + c1·n²) · (2·(n·Sxy − Sx·Sy) + c2·n²)
      den = (Sx² + Sy² + c1·n²) · (n·Sxx − Sx² + n·Syy − Sy² + c2·n²)
    (population variances; c1/c2 are the integer stabilizers). Exact
    in int64 for value range < 32 at n ≤ a few hundred."""
    x = a.astype(np.int64).ravel()
    y = b.astype(np.int64).ravel()
    n = x.size
    sx, sy = int(x.sum()), int(y.sum())
    sxx, syy, sxy = int((x * x).sum()), int((y * y).sum()), int((x * y).sum())
    num = (2 * sx * sy + c1 * n * n) * (2 * (n * sxy - sx * sy) + c2 * n * n)
    den = ((sx * sx + sy * sy + c1 * n * n)
           * (n * sxx - sx * sx + n * syy - sy * sy + c2 * n * n))
    return num, den


def ssim_stats(ds, bytes_a: str = "bytes_a", bytes_b: str = "bytes_b",
               id_col: str = "path", c1: int = 1, c2: int = 9):
    """Per-key exact-rational global SSIM between two raster epochs
    (change-detection quality metric); map-only over a two-blob-column
    table."""
    def fn(t: pa.Table) -> pa.Table:
        ids, nums, dens = [], [], []
        ida = t.column(id_col).to_pylist()
        for rid, ba, bb in zip(ida, t.column(bytes_a), t.column(bytes_b)):
            a, _ = geotiff.decode_geotiff(ba.as_py())
            b, _ = geotiff.decode_geotiff(bb.as_py())
            num, den = ssim_global(a, b, c1, c2)
            ids.append(rid); nums.append(num); dens.append(den)
        return pa.table({id_col: _id_array(t, id_col, ids),
                         "ssim_num": pa.array(nums, pa.int64()),
                         "ssim_den": pa.array(dens, pa.int64())})
    return ds.map_batches(fn, batch_format="pyarrow")


def hog_octants(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Histogram-of-oriented-gradients octant code over interior
    pixels: central differences gx = v[y,x+1]−v[y,x−1],
    gy = v[y+1,x]−v[y−1,x]; octant = 4·(gy<0) + 2·(gx<0) + (|gy|>|gx|)
    (an exact-integer 8-way orientation code — quadrant plus axis
    dominance); zero-gradient pixels are excluded. Returns (count,
    L1-magnitude sum) per octant 0..7."""
    v = arr.astype(np.int64)
    gx = v[1:-1, 2:] - v[1:-1, :-2]
    gy = v[2:, 1:-1] - v[:-2, 1:-1]
    nz = (gx != 0) | (gy != 0)
    gx, gy = gx[nz], gy[nz]
    code = (4 * (gy < 0) + 2 * (gx < 0)
            + (np.abs(gy) > np.abs(gx))).astype(np.int64)
    cnt = np.bincount(code, minlength=8)
    w = np.zeros(8, np.int64)
    np.add.at(w, code, np.abs(gx) + np.abs(gy))
    return cnt.astype(np.int64), w


def hog_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster HOG octant histogram, long form (id, octant, n_px,
    wsum); empty octants are omitted."""
    def rows(arr):
        cnt, w = hog_octants(arr)
        return [(o, int(cnt[o]), int(w[o])) for o in range(8) if cnt[o]]
    return _per_raster(ds, bytes_col, id_col, ("octant", "n_px", "wsum"), rows)


def strahler_orders(arr: np.ndarray) -> np.ndarray:
    """Strahler stream order over the D8 flow forest of a DEM (every
    cell a network node): donors flow along the steepest strictly
    positive drop (ties → smallest D8 code, matching
    flow_direction_counts); order fixpoint ord(v) = 1 for sources,
    else M + (≥2 donors at M) where M = max donor order. Converges in
    ≤ max-order waves (monotone); fully vectorized per raster."""
    v = arr.astype(np.int64)
    H, W = v.shape
    big = np.int64(1) << 40
    bestdrop = np.zeros((H, W), np.int64)
    bestcode = np.full((H, W), -1, np.int64)
    for code, (dx, dy) in enumerate(D8_OFFSETS):
        nb = np.full((H, W), big, np.int64)
        ys0, ys1 = max(0, -dy), min(H, H - dy)
        xs0, xs1 = max(0, -dx), min(W, W - dx)
        nb[ys0:ys1, xs0:xs1] = v[ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
        drop = v - nb
        better = drop > bestdrop
        bestdrop = np.where(better, drop, bestdrop)
        bestcode = np.where(better, code, bestcode)
    idx = np.arange(H * W).reshape(H, W)
    srcs, dsts = [], []
    for code, (dx, dy) in enumerate(D8_OFFSETS):
        ys, xs = np.nonzero(bestcode == code)
        srcs.append(idx[ys, xs])
        dsts.append(idx[ys + dy, xs + dx])
    src = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
    o = np.ones(H * W, np.int64)
    while True:
        if not len(src):
            break
        po = o[src]
        m = np.zeros(H * W, np.int64)
        np.maximum.at(m, dst, po)
        c = np.zeros(H * W, np.int64)
        np.add.at(c, dst, (po == m[dst]).astype(np.int64))
        has = np.zeros(H * W, bool)
        has[dst] = True
        new = np.where(has, m + (c >= 2), 1)
        if (new == o).all():
            break
        o = new
    return o


def strahler_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster Strahler order histogram, long form (id, strahler,
    n_cells)."""
    def rows(arr):
        o = strahler_orders(arr)
        return [(int(val), int((o == val).sum())) for val in np.unique(o)]
    return _per_raster(ds, bytes_col, id_col, ("strahler", "n_cells"), rows)


def watershed_labels(arr: np.ndarray) -> np.ndarray:
    """Watershed (pour-point) labeling: every cell follows its D8
    steepest-descent pointer (same rule as strahler_orders /
    flow_direction_counts: strictly positive drop, ties → smallest
    code; pits point at themselves) to its terminal sink. Pointer
    DOUBLING — nxt ← nxt[nxt] — resolves every path in ⌈log₂ L⌉
    vectorized gathers instead of L sequential steps. Returns the
    sink cell index (y·W + x) per cell."""
    v = arr.astype(np.int64)
    H, W = v.shape
    big = np.int64(1) << 40
    bestdrop = np.zeros((H, W), np.int64)
    bestcode = np.full((H, W), -1, np.int64)
    for code, (dx, dy) in enumerate(D8_OFFSETS):
        nb = np.full((H, W), big, np.int64)
        ys0, ys1 = max(0, -dy), min(H, H - dy)
        xs0, xs1 = max(0, -dx), min(W, W - dx)
        nb[ys0:ys1, xs0:xs1] = v[ys0 + dy:ys1 + dy, xs0 + dx:xs1 + dx]
        drop = v - nb
        better = drop > bestdrop
        bestdrop = np.where(better, drop, bestdrop)
        bestcode = np.where(better, code, bestcode)
    idx = np.arange(H * W)
    nxt = idx.copy()
    for code, (dx, dy) in enumerate(D8_OFFSETS):
        ys, xs = np.nonzero(bestcode == code)
        nxt[ys * W + xs] = (ys + dy) * W + (xs + dx)
    steps = max(1, int(np.ceil(np.log2(H * W))))
    for _ in range(steps):
        nn = nxt[nxt]
        if (nn == nxt).all():
            break
        nxt = nn
    return nxt


def watershed_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster watershed aggregates: basin count, largest basin
    size, and the sum over cells of their sink index (a
    label-assignment checksum)."""
    def rows(arr):
        lab = watershed_labels(arr)
        _, counts = np.unique(lab, return_counts=True)
        return [(len(counts), int(counts.max()), int(lab.sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("n_basins", "max_basin", "sink_sum"), rows)


def largest_zero_rect(mask: np.ndarray) -> tuple[int, int]:
    """Largest all-True axis-aligned rectangle in a boolean mask (the
    classic histogram-stack reduction: per row, column heights of
    consecutive True cells; the max rectangle in each histogram by a
    monotone stack — O(H·W) total). Returns (max_area, n_at_max —
    the number of distinct (x1,x2,y1,y2) rectangles achieving it,
    counted exactly by a bounded second pass)."""
    H, W = mask.shape
    heights = np.zeros(W, np.int64)
    best = 0
    for r in range(H):
        heights = np.where(mask[r], heights + 1, 0)
        stack: list[int] = []
        for c in range(W + 1):
            h = int(heights[c]) if c < W else 0
            while stack and heights[stack[-1]] >= h:
                top = stack.pop()
                left = stack[-1] + 1 if stack else 0
                area = int(heights[top]) * (c - left)
                if area > best:
                    best = area
        # (second pass below counts exactly; stack pass finds the max)
            if c < W:
                stack.append(c)
    if best == 0:
        return 0, 0
    # exact count of maximal-area rectangles: enumerate (w, h) factor
    # pairs of `best` and count placements where the w×h all-True
    # window fits — O(d(best) · H · W) via 2-D sliding sums
    ii = np.zeros((H + 1, W + 1), np.int64)
    ii[1:, 1:] = np.cumsum(np.cumsum(mask.astype(np.int64), 0), 1)
    n_at = 0
    for w in range(1, W + 1):
        if best % w or best // w > H:
            continue
        h = best // w
        s = (ii[h:H + 1, w:W + 1] - ii[0:H - h + 1, w:W + 1]
             - ii[h:H + 1, 0:W - w + 1] + ii[0:H - h + 1, 0:W - w + 1])
        n_at += int((s == w * h).sum())
    return best, n_at


def largest_rect_stats(ds, thresh: int, bytes_col: str = "bytes",
                       id_col: str = "path"):
    """Per-raster largest rectangle of cells with v < thresh (the
    'largest buildable flat patch' query): max area, count of
    rectangles achieving it, and the mask cell count."""
    def rows(arr):
        m = arr.astype(np.int64) < thresh
        return [(*largest_zero_rect(m), int(m.sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("max_area", "n_at_max", "n_mask"), rows)


def tophat_core(arr: np.ndarray) -> np.ndarray:
    """White top-hat transform (v − opening, the classic small-bright-
    feature extractor / background remover): 3×3 erosion on the
    interior, 3×3 dilation of that on ITS interior, so the (H−4)×(W−4)
    core needs no border convention at all. Exact int64, ≥ 0 by
    anti-extensivity of the opening."""
    v = arr.astype(np.int64)
    st = np.stack([v[1 + dy:v.shape[0] - 1 + dy or None,
                     1 + dx:v.shape[1] - 1 + dx or None]
                   for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
    ero = st.min(axis=0)
    st2 = np.stack([ero[1 + dy:ero.shape[0] - 1 + dy or None,
                        1 + dx:ero.shape[1] - 1 + dx or None]
                    for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
    opening = st2.max(axis=0)
    return v[2:-2, 2:-2] - opening


def tophat_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster white top-hat aggregates over the core: sum, max,
    and the count of strictly positive responses."""
    def rows(arr):
        th = tophat_core(arr)
        return [(int(th.sum()), int(th.max()), int((th > 0).sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("tophat_sum", "tophat_max", "n_pos"), rows)


def histogram_match(a: np.ndarray, b: np.ndarray,
                    nlevels: int) -> np.ndarray:
    """Exact histogram matching (radiometric normalization): map each
    value v of raster A to m(v) = min{w : cdf_B(w) ≥ cdf_A(v)} — the
    integer-exact form of the classic CDF-matching used to normalize
    one image epoch to a reference. Returns the per-level mapping
    array m[0..nlevels-1] (levels absent from A map by their CDF rank
    too, harmlessly)."""
    ca = np.cumsum(np.bincount(a.ravel(), minlength=nlevels))
    cb = np.cumsum(np.bincount(b.ravel(), minlength=nlevels))
    return np.searchsorted(cb, ca, side="left").astype(np.int64)


def histmatch_stats(ds, nlevels: int, bytes_a: str = "bytes_a",
                    bytes_b: str = "bytes_b", id_col: str = "path"):
    """Per-key histogram-matching aggregates (A normalized to B):
    matched_sum = Σ m(v) over A's pixels, matched_max over values
    present in A, n_changed = pixels where m(v) ≠ v."""
    def fn(t: pa.Table) -> pa.Table:
        ids, sm, mx, ch = [], [], [], []
        ida = t.column(id_col).to_pylist()
        for rid, ba, bb in zip(ida, t.column(bytes_a), t.column(bytes_b)):
            a, _ = geotiff.decode_geotiff(ba.as_py())
            b, _ = geotiff.decode_geotiff(bb.as_py())
            a = a.astype(np.int64)
            m = histogram_match(a, b.astype(np.int64), nlevels)
            cnt = np.bincount(a.ravel(), minlength=nlevels)
            vals = np.flatnonzero(cnt)
            ids.append(rid)
            sm.append(int((cnt[vals] * m[vals]).sum()))
            mx.append(int(m[vals].max()))
            ch.append(int(cnt[vals][m[vals] != vals].sum()))
        return pa.table({id_col: _id_array(t, id_col, ids),
                         "matched_sum": pa.array(sm, pa.int64()),
                         "matched_max": pa.array(mx, pa.int64()),
                         "n_changed": pa.array(ch, pa.int64())})
    return ds.map_batches(fn, batch_format="pyarrow")


def hotspot_core(arr: np.ndarray, num: int = 2, den: int = 1):
    """Getis–Ord-style local hotspot test over interior cells: a cell
    is hot iff its 3×3 local sum exceeds ``num/den`` times the expected
    local sum under uniformity (9·total/(H·W)) — cross-multiplied so
    the comparison is exact int64:  den·H·W·local9 > num·9·total.
    Returns (hot mask, local-sum grid, total)."""
    v = arr.astype(np.int64)
    H, W = v.shape
    loc = np.zeros((H - 2, W - 2), np.int64)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            loc += v[1 + dy:H - 1 + dy or None, 1 + dx:W - 1 + dx or None]
    total = int(v.sum())
    hot = den * H * W * loc > num * 9 * total
    return hot, loc, total


def hotspot_stats(ds, num: int = 2, den: int = 1,
                  bytes_col: str = "bytes", id_col: str = "path"):
    """Per-raster hotspot aggregates: hot-cell count, max local sum,
    and the interior local-sum checksum."""
    def rows(arr):
        hot, loc, _ = hotspot_core(arr, num, den)
        return [(int(hot.sum()), int(loc.max()), int(loc.sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("n_hot", "max_local", "local_sum"), rows)


def edge_nms_core(arr: np.ndarray, thresh2: int):
    """Gradient non-maximum suppression (the edge-thinning pass of
    Canny): 3×3 Sobel gx/gy on the interior, squared magnitude, the
    gradient direction quantized to 4 sectors by the exact integer
    rule |gx| ≥ 2|gy| → horizontal, |gy| ≥ 2|gx| → vertical, else the
    diagonal picked by sign(gx·gy); a pixel survives iff its mag² is
    STRICTLY greater than both neighbors along its sector and
    ≥ ``thresh2``. Runs over the (H−4)×(W−4) core so every survivor's
    sector neighbors carry full Sobel support. Returns (keep mask,
    mag² core grid)."""
    v = arr.astype(np.int64)
    H, W = v.shape
    s = {(dy, dx): v[1 + dy:H - 1 + dy or None, 1 + dx:W - 1 + dx or None]
         for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
    gx = (s[(-1, 1)] + 2 * s[(0, 1)] + s[(1, 1)]
          - s[(-1, -1)] - 2 * s[(0, -1)] - s[(1, -1)])
    gy = (s[(1, -1)] + 2 * s[(1, 0)] + s[(1, 1)]
          - s[(-1, -1)] - 2 * s[(-1, 0)] - s[(-1, 1)])
    mag2 = gx * gx + gy * gy
    ax, ay = np.abs(gx), np.abs(gy)
    horiz = ax >= 2 * ay          # neighbors at dx = ±1
    vert = ay >= 2 * ax           # neighbors at dy = ±1
    diag_main = ~horiz & ~vert & (gx * gy > 0)   # (+1,+1)/(−1,−1)
    # remaining: anti-diagonal (+1,−1)/(−1,+1)
    h, w = mag2.shape
    core = np.s_[1:h - 1], np.s_[1:w - 1]
    m = mag2[core]

    def nb(dy, dx):
        return mag2[1 + dy:h - 1 + dy or None, 1 + dx:w - 1 + dx or None]

    keep = np.where(
        horiz[core], (m > nb(0, 1)) & (m > nb(0, -1)),
        np.where(vert[core], (m > nb(1, 0)) & (m > nb(-1, 0)),
                 np.where(diag_main[core],
                          (m > nb(1, 1)) & (m > nb(-1, -1)),
                          (m > nb(1, -1)) & (m > nb(-1, 1)))))
    keep &= m >= thresh2
    return keep, m


def edge_nms_stats(ds, thresh2: int, bytes_col: str = "bytes",
                   id_col: str = "path"):
    """Per-raster thinned-edge aggregates: surviving-pixel count, the
    sum of their squared magnitudes, and the max core mag²."""
    def rows(arr):
        keep, m = edge_nms_core(arr, thresh2)
        return [(int(keep.sum()), int(m[keep].sum()), int(m.max()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("n_edges", "edge_mag2_sum", "max_mag2"), rows)


def rlsa_horizontal(mask: np.ndarray, gap: int):
    """Horizontal run-length smoothing (RLSA, the classic document-
    layout block-segmentation pass): every 0-run of length ≤ ``gap``
    lying BETWEEN two set pixels in its row is filled. Fully
    vectorized: per-pixel nearest-set-index to the left/right via two
    maximum.accumulate passes, one boolean fill formula. Returns the
    smoothed mask."""
    H, W = mask.shape
    idx = np.arange(W, dtype=np.int64)[None, :]
    left = np.maximum.accumulate(np.where(mask, idx, -1), axis=1)
    rr = np.where(mask[:, ::-1], idx, -1)
    right_rev = np.maximum.accumulate(rr, axis=1)[:, ::-1]
    right = np.where(right_rev >= 0, W - 1 - right_rev, W)
    fill = (~mask & (left >= 0) & (right < W)
            & (right - left - 1 <= gap))
    return mask | fill


def rlsa_stats(ds, thresh: int, gap: int, bytes_col: str = "bytes",
               id_col: str = "path"):
    """Per-raster horizontal-RLSA aggregates over the mask v < thresh:
    set-pixel count before, newly filled count, and the number of
    horizontal runs after smoothing (the block count layout analysis
    consumes)."""
    def rows(arr):
        m = arr.astype(np.int64) < thresh
        sm = rlsa_horizontal(m, gap)
        starts = sm & ~np.pad(sm[:, :-1], ((0, 0), (1, 0)),
                              constant_values=False)
        return [(int(m.sum()), int(sm.sum()) - int(m.sum()),
                 int(starts.sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("n_set", "n_filled", "n_runs"), rows)


def hysteresis_core(arr: np.ndarray, lo2: int, hi2: int):
    """Canny stage 3 — hysteresis edge linking on the NMS survivors:
    strong survivors (mag² ≥ ``hi2``) are edges; weak survivors
    (``lo2`` ≤ mag² < ``hi2``) are kept iff 8-connected to a strong
    pixel THROUGH weak pixels. The flood is vectorized shifts-dilate
    iterated to fixpoint — per image, bounded by the image diameter,
    map-only across the corpus. Returns (strong, weak, linked) masks
    on the NMS core grid."""
    keep, m = edge_nms_core(arr, lo2)     # m is already the core grid
    strong = keep & (m >= hi2)
    weak = keep & ~strong
    reach = strong.copy()
    while True:
        p = np.pad(reach, 1)
        dil = np.zeros_like(reach)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy or dx:
                    dil |= p[1 + dy:p.shape[0] - 1 + dy or None,
                             1 + dx:p.shape[1] - 1 + dx or None]
        grow = dil & weak & ~reach
        if not grow.any():
            break
        reach |= grow
    linked = reach & weak
    return strong, weak, linked, m


def hysteresis_stats(ds, lo2: int, hi2: int, bytes_col: str = "bytes",
                     id_col: str = "path"):
    """Per-raster hysteresis-linking aggregates: strong count, weak
    count, weak pixels linked to an edge, and the mag² sum over the
    final (strong + linked) edge set."""
    def rows(arr):
        s, w, l, m = hysteresis_core(arr, lo2, hi2)
        return [(int(s.sum()), int(w.sum()), int(l.sum()),
                 int(m[s | l].sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("n_strong", "n_weak", "n_linked", "edge_mag2_sum"),
                       rows)


def zhang_suen_core(mask: np.ndarray) -> tuple:
    """Zhang–Suen thinning (the classic raster skeletonization): the
    two alternating sub-iterations delete boundary pixels with
    2 ≤ B(p) ≤ 6 neighbors, exactly one 0→1 transition A(p) around
    the ring, and the phase's two product conditions, until a full
    iteration deletes nothing. Fully vectorized shifted slices per
    sub-iteration; pixels outside the grid are 0. Returns
    (skeleton mask, iterations run)."""
    m = mask.astype(bool).copy()
    iters = 0
    while True:
        iters += 1
        any_change = False
        for phase in (0, 1):
            p = np.pad(m, 1)
            P2 = p[:-2, 1:-1]; P3 = p[:-2, 2:]; P4 = p[1:-1, 2:]
            P5 = p[2:, 2:]; P6 = p[2:, 1:-1]; P7 = p[2:, :-2]
            P8 = p[1:-1, :-2]; P9 = p[:-2, :-2]
            ring = [P2, P3, P4, P5, P6, P7, P8, P9, P2]
            B = sum(x.astype(np.int64) for x in ring[:8])
            A = sum(((~ring[i]) & ring[i + 1]).astype(np.int64)
                    for i in range(8))
            if phase == 0:
                cond = (~(P2 & P4 & P6)) & (~(P4 & P6 & P8))
            else:
                cond = (~(P2 & P4 & P8)) & (~(P2 & P6 & P8))
            kill = m & (B >= 2) & (B <= 6) & (A == 1) & cond
            if kill.any():
                m &= ~kill
                any_change = True
        if not any_change:
            return m, iters


def skeleton_stats(ds, thresh: int, bytes_col: str = "bytes",
                   id_col: str = "path"):
    """Per-raster Zhang–Suen skeleton aggregates over the mask
    v ≥ thresh: set pixels before, skeleton pixels after, and the
    position checksum Σ (x + 100·y) over the skeleton."""
    def rows(arr):
        mask = arr.astype(np.int64) >= thresh
        sk, _ = zhang_suen_core(mask)
        yy, xx = np.nonzero(sk)
        return [(int(mask.sum()), int(sk.sum()), int((xx + 100 * yy).sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("n_set", "n_skel", "pos_sum"), rows)


def mode_filter_stats(ds, nvals: int, bytes_col: str = "bytes",
                      id_col: str = "path"):
    """3×3 majority (mode) filter over a small label domain — the
    classic categorical-raster denoise (land-cover smoothing): each
    interior pixel takes the most frequent value of its 3×3
    neighborhood, ties broken by the SMALLEST value. Vectorized as
    one shifted-slice count pass per label value (nvals × 9 adds, no
    per-pixel loop). Reports changed-pixel count and the mode-grid
    checksum per raster."""
    def rows(arr):
        v = arr.astype(np.int64)
        H, W = v.shape
        sh = {(dy, dx): v[1 + dy:H - 1 + dy or None,
                          1 + dx:W - 1 + dx or None]
              for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
        cnt = np.zeros((nvals, H - 2, W - 2), np.int64)
        for c in range(nvals):
            for s in sh.values():
                cnt[c] += s == c
        # argmax with smallest-value tie-break = plain argmax
        # (np.argmax returns the FIRST max index)
        mode = cnt.argmax(axis=0)
        yy, xx = np.indices(mode.shape)
        return [(int((mode != v[1:-1, 1:-1]).sum()),
                 int((mode * (1 + xx + 100 * yy)).sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("n_changed", "mode_checksum"), rows)


def zonal_majority(ds, band_h: int, nclasses: int, div: int,
                   bytes_col: str = "bytes", id_col: str = "path",
                   num_buckets: int = 16):
    """Majority class per horizontal zone band ACROSS the whole raster
    corpus (the land-cover majority rollup): every raster bincounts
    (band, class) locally — partials, not pixels, cross the wire —
    one tiny grouped sum merges them, and the per-band argmax (ties →
    smallest class) runs on the merged counts. Returns
    (band, maj_class, n_pixels, n_total)."""
    from ..relational import grouped_agg, grouped_apply_bucketed

    def partial(t: pa.Table) -> pa.Table:
        acc = {}
        for _, arr, _ in _decode_batch(t, bytes_col, id_col):
            v = arr.astype(np.int64) // div
            H, W = v.shape
            band = (np.arange(H) // band_h)
            for b in np.unique(band):
                rows = v[band == b]
                bc = np.bincount(rows.ravel(), minlength=nclasses)
                key = int(b)
                acc[key] = acc.get(key, 0) + bc
        bands, classes, counts = [], [], []
        for b, bc in acc.items():
            for c in range(nclasses):
                if bc[c]:
                    bands.append(b); classes.append(c)
                    counts.append(int(bc[c]))
        return pa.table({"band": pa.array(bands, pa.int64()),
                         "cls": pa.array(classes, pa.int64()),
                         "cnt": pa.array(counts, pa.int64())})

    merged = grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                         ["band", "cls"], sum_cols=["cnt"], count=False)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["band", "cnt", "cls"],
                          ascending=[True, False, True],
                          kind="mergesort")
        top = g.groupby("band", sort=True).first().reset_index()
        tot = g.groupby("band", sort=True)["cnt"].sum().reset_index()
        out = top.merge(tot, on="band", suffixes=("", "_tot"))
        return pd.DataFrame({"band": out["band"].astype("int64"),
                             "maj_class": out["cls"].astype("int64"),
                             "n_pixels": out["cnt"].astype("int64"),
                             "n_total": out["cnt_tot"].astype("int64")})

    return grouped_apply_bucketed(merged, ["band"], pick,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def lbp_stats(ds, bytes_col: str = "bytes", id_col: str = "path"):
    """Local-binary-pattern texture descriptor per raster: each
    interior pixel's 8-bit code sets bit b iff neighbor b ≥ center
    (clockwise from west: W, NW, N, NE, E, SE, S, SW); reports the
    number of UNIFORM patterns (≤ 2 circular 0↔1 transitions — the
    texture-classification workhorse), the code-histogram checksum
    Σ code·count, and the distinct code count. One shifted-slice pass
    per bit, map-only."""
    offs = [(0, -1), (-1, -1), (-1, 0), (-1, 1),
            (0, 1), (1, 1), (1, 0), (1, -1)]

    def rows(arr):
        v = arr.astype(np.int64)
        H, W = v.shape
        c = v[1:-1, 1:-1]
        code = np.zeros_like(c)
        for b, (dy, dx) in enumerate(offs):
            nb = v[1 + dy:H - 1 + dy or None,
                   1 + dx:W - 1 + dx or None]
            code |= ((nb >= c).astype(np.int64) << b)
        rot = code ^ ((code >> 1) | ((code & 1) << 7))
        trans = np.zeros_like(code)
        for b in range(8):
            trans += (rot >> b) & 1
        hist = np.bincount(code.ravel(), minlength=256)
        return [(int((trans <= 2).sum()),
                 int((np.arange(256) * hist).sum()),
                 int((hist > 0).sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("n_uniform", "code_checksum", "n_codes"), rows)


def blob_stats(ds, thresh: int, bytes_col: str = "bytes",
               id_col: str = "path"):
    """8-connected component statistics of the mask v ≥ thresh per
    raster: component count, largest blob size, and the sum of each
    blob's min flat pixel index (a label checksum the SQL oracle can
    reproduce). Vectorized min-label propagation to fixpoint per
    image — map-only across the corpus."""
    def rows(arr):
        m = arr.astype(np.int64) >= thresh
        H, W = m.shape
        lbl = np.where(m, np.arange(H * W).reshape(H, W), np.int64(H * W))
        while True:
            p = np.pad(lbl, 1, constant_values=H * W)
            best = lbl.copy()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy or dx:
                        np.minimum(best,
                                   p[1 + dy:H + 1 + dy, 1 + dx:W + 1 + dx],
                                   out=best)
            best = np.where(m, best, H * W)
            if (best == lbl).all():
                break
            lbl = best
        labs = lbl[m]
        if not len(labs):
            return [(0, 0, 0)]
        u, cnt = np.unique(labs, return_counts=True)
        return [(len(u), int(cnt.max()), int(u.sum()))]
    return _per_raster(ds, bytes_col, id_col,
                       ("n_blobs", "max_blob", "label_checksum"), rows)


def hgt_window_stats(ds, r0: int, r1: int, c0: int, c1: int,
                     bytes_col: str = "bytes", id_col: str = "tile_id"):
    """SRTM .hgt window ledger: decode the raw big-endian DEM tile
    (kernels/hgt.py — the public headerless n×n int16 format) and emit
    exact window statistics (sum / min / max over non-void samples +
    void count) for rows [r0,r1) × cols [c0,c1). Map-only; one ledger
    row per tile; at 100 TB the decode streams with the payload
    partitioning like every raster stage here."""
    from ..kernels import hgt as hgtk

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        bts = t.column(bytes_col)
        s = np.zeros(t.num_rows, np.int64)
        vmin = np.zeros(t.num_rows, np.int64)
        vmax = np.zeros(t.num_rows, np.int64)
        nv = np.zeros(t.num_rows, np.int64)
        for i in range(t.num_rows):
            g = hgtk.decode_hgt(bytes(bts[i].as_buffer()))
            win = g[r0:r1, c0:c1].astype(np.int64)
            void = win == hgtk.VOID
            ok = win[~void]
            nv[i] = int(void.sum())
            s[i] = int(ok.sum()) if ok.size else 0
            vmin[i] = int(ok.min()) if ok.size else 0
            vmax[i] = int(ok.max()) if ok.size else 0
        return pa.table({id_col: pa.array(ids, pa.string()),
                         "win_sum": pa.array(s, pa.int64()),
                         "win_min": pa.array(vmin, pa.int64()),
                         "win_max": pa.array(vmax, pa.int64()),
                         "n_void": pa.array(nv, pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def write_slippy_png_tiles(ds, out_dir: str,
                           bytes_col: str = "px") -> int:
    """Publish tiles as the standard slippy-map directory layout —
    one REAL PNG per (z, x, y) under ``out_dir/z/x/y.png`` (the layout
    every web map client reads). Input rows: (z, x, y, px) where px is
    the H×W×3 raw pixel buffer plus w/h columns. Files write
    tmp+rename per tile (resume-safe: rerun skips tiles already
    present), one directory per z/x so a 256-node run never contends
    on one directory. Returns tiles written."""
    import os

    from ..kernels import png as pnglib

    def w(t: pa.Table) -> pa.Table:
        z = t.column("z").to_numpy()
        x = t.column("x").to_numpy()
        y = t.column("y").to_numpy()
        ww = t.column("w").to_numpy()
        hh = t.column("h").to_numpy()
        px = t.column(bytes_col)
        n = 0
        for i in range(t.num_rows):
            d = os.path.join(out_dir, str(int(z[i])), str(int(x[i])))
            os.makedirs(d, exist_ok=True)
            path = os.path.join(d, f"{int(y[i])}.png")
            if os.path.exists(path):
                continue
            img = np.frombuffer(px[i].as_buffer(), np.uint8).reshape(
                int(hh[i]), int(ww[i]), 3)
            blob = pnglib.encode(img)
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
            n += 1
        return pa.table({"n": pa.array([n], pa.int64())})

    parts = ds.map_batches(w, batch_format="pyarrow", zero_copy_batch=True)
    return int(parts.to_pandas()["n"].sum())


def read_slippy_png_tiles(root: str):
    """Read a slippy z/x/y.png tree back as a Dataset of decoded tile
    stats rows (z, x, y from the PATH — the M8 regex-extract pattern —
    plus exact pixel sum and x-weighted sum from the REAL PNG decode).
    One file per read task via the glob fan-out."""
    import glob
    import os
    import re

    import ray.data

    from ..kernels import png as pnglib

    files = sorted(glob.glob(os.path.join(root, "*", "*", "*.png")))
    rx = re.compile(r"[/\\](\d+)[/\\](\d+)[/\\](\d+)\.png$")

    def rd(batch: pa.Table) -> pa.Table:
        zs, xs, ys, ps, xw = [], [], [], [], []
        for path in batch.column("path").to_pylist():
            m = rx.search(path)
            with open(path, "rb") as f:
                img = pnglib.decode_rgb(f.read())
            zs.append(int(m.group(1)))
            xs.append(int(m.group(2)))
            ys.append(int(m.group(3)))
            a = img.astype(np.int64)
            ps.append(int(a.sum()))
            xw.append(int((a.sum(axis=(0, 2))
                           * np.arange(img.shape[1])).sum()))
        return pa.table({"z": pa.array(zs, pa.int64()),
                         "x": pa.array(xs, pa.int64()),
                         "y": pa.array(ys, pa.int64()),
                         "px_sum": pa.array(ps, pa.int64()),
                         "px_xw": pa.array(xw, pa.int64())})

    src = ray.data.from_items([{"path": f} for f in files])
    return src.map_batches(rd, batch_format="pyarrow")


def fits_dark_subtract(ds, dark, bytes_col: str = "bytes",
                       id_col: str = "frame_id"):
    """CCD calibration ledger over REAL FITS frames (kernels/fits.py —
    primary HDU, BITPIX 16, BZERO unsigned convention): subtract the
    broadcast master dark frame, clamp at 0, and emit the exact
    calibrated sum + the count of pixels that hit the clamp (the
    under-bias diagnostic). The dark broadcasts via ``ray.put`` once;
    the map is a task pool (worker-global ``ray.get`` is zero-copy)."""
    import ray

    from ..kernels import fits as fitsk

    dark_ref = ray.put(np.asarray(dark, dtype=np.int64))

    def fn(t: pa.Table) -> pa.Table:
        import ray

        dark = ray.get(dark_ref)
        ids = t.column(id_col).to_pylist()
        bts = t.column(bytes_col)
        cal = np.zeros(t.num_rows, np.int64)
        clamped = np.zeros(t.num_rows, np.int64)
        for i in range(t.num_rows):
            img = fitsk.decode_fits(bytes(bts[i].as_buffer()))
            d = img - dark
            clamped[i] = int((d < 0).sum())
            cal[i] = int(np.maximum(d, 0).sum())
        return pa.table({id_col: pa.array(ids, pa.string()),
                         "cal_sum": pa.array(cal, pa.int64()),
                         "n_clamped": pa.array(clamped, pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def asc_grid_stats(ds, bytes_col: str = "bytes", id_col: str = "grid_id"):
    """Esri ASCII-grid ledger (kernels/ascgrid.py): parse the text
    raster, respect NODATA, and emit exact sum/min/max over valid
    cells + the nodata count + the parsed cellsize — the quick-look
    pass a DEM-catalog ingest runs per file. Map-only."""
    from ..kernels import ascgrid as asck

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        bts = t.column(bytes_col)
        s = np.zeros(t.num_rows, np.int64)
        vmin = np.zeros(t.num_rows, np.int64)
        vmax = np.zeros(t.num_rows, np.int64)
        nd = np.zeros(t.num_rows, np.int64)
        cs = np.zeros(t.num_rows, np.int64)
        for i in range(t.num_rows):
            g, hdr = asck.decode_asc(bytes(bts[i].as_buffer()))
            bad = g == hdr["nodata_value"]
            ok = g[~bad]
            nd[i] = int(bad.sum())
            cs[i] = hdr["cellsize"]
            s[i] = int(ok.sum()) if ok.size else 0
            vmin[i] = int(ok.min()) if ok.size else 0
            vmax[i] = int(ok.max()) if ok.size else 0
        return pa.table({id_col: pa.array(ids, pa.string()),
                         "v_sum": pa.array(s, pa.int64()),
                         "v_min": pa.array(vmin, pa.int64()),
                         "v_max": pa.array(vmax, pa.int64()),
                         "n_nodata": pa.array(nd, pa.int64()),
                         "cellsize": pa.array(cs, pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)
