"""Answer checks: brute-force oracles over the known input id set.

Every footprint is ``synth.footprint_of(id)``, so the expected answer of
any query is computable in this process without the index.  Each check
returns None when the answer is right and a short reason otherwise.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from hand_index_ray.config import EngineConfig
from hand_index_ray.kernels import geom, h3exact, proj, s2, wkb
from hand_index_ray.sources import synth
from hand_index_ray.state.manifest import Manifest


class Footprints:
    """Footprint arrays of an id set, in id order."""

    def __init__(self, ids: np.ndarray):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.names = np.array([f"img-{i:09d}" for i in self.ids.tolist()], dtype=object)
        (self.minx, self.miny, self.maxx, self.maxy,
         self.lon, self.lat) = synth.footprint_of(self.ids)

    def extend(self, ids: np.ndarray) -> "Footprints":
        return Footprints(np.concatenate([self.ids, ids]))


def _diff(name: str, got: set, want: set) -> str | None:
    if got == want:
        return None
    return f"{name}: {len(got - want)} unexpected, {len(want - got)} missing of {len(want)}"


def check_index(index_dir: str, fp: Footprints, cfg: EngineConfig) -> str | None:
    """A freshly ingested index: every id once, every row decoded, cells
    equal to the kernels recomputed from synth's footprint, and
    ``phash_decoded == phash`` on lossless rows."""
    files = Manifest(index_dir).all_files(index_dir)
    t = pq.read_table(files, columns=["image_id", "fmt", "decode_ok", "phash",
                                      "phash_decoded", "h3_r9", "s2_cell"])
    df = t.to_pandas().sort_values("image_id", kind="stable")
    if len(df) != len(fp.ids):
        return f"ingest: {len(df)} rows, want {len(fp.ids)}"
    if not np.array_equal(df["image_id"].to_numpy(), fp.names):
        return "ingest: id set differs"
    if not df["decode_ok"].all():
        return f"ingest: {int((~df['decode_ok']).sum())} rows not decoded"
    h3 = h3exact.latlng_to_cell(fp.lat, fp.lon, cfg.hex_res_max)
    if not np.array_equal(df["h3_r9"].to_numpy().astype(np.uint64), h3.astype(np.uint64)):
        return "ingest: h3_r9 differs from kernels.h3exact"
    s2c = s2.lonlat_to_cell(fp.lon, fp.lat, cfg.s2_level)
    if not np.array_equal(df["s2_cell"].to_numpy().astype(np.uint64), s2c.astype(np.uint64)):
        return "ingest: s2_cell differs from kernels.s2"
    lossless = df["fmt"].to_numpy() != "jpg"
    bad = (df["phash"].to_numpy() != df["phash_decoded"].to_numpy()) & lossless
    if bad.any():
        return f"ingest: {int(bad.sum())} lossless rows with phash_decoded != phash"
    return None


def _haversine_m(lon1, lat1, lon2, lat2):
    r = 6371008.8
    p1, p2 = np.deg2rad(lat1), np.deg2rad(lat2)
    a = (np.sin((p2 - p1) / 2) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin(np.deg2rad(lon2 - lon1) / 2) ** 2)
    return 2 * r * np.arcsin(np.sqrt(np.clip(a, 0, 1)))


def knn_expected(fp: Footprints, lon: float, lat: float, k: int) -> list[str]:
    """Top-k by (whole-metre great-circle distance, image_id)."""
    d = np.round(_haversine_m(lon, lat, fp.lon, fp.lat)).astype(np.int64)
    order = np.lexsort((fp.names, d))
    return fp.names[order[:k]].tolist()


def check_knn(got: pd.DataFrame, fp: Footprints, lon: float, lat: float, k: int) -> str | None:
    want = knn_expected(fp, lon, lat, k)
    have = got["image_id"].tolist()
    return None if have == want else f"knn: got {len(have)} ids, {len(set(want) - set(have))} wrong"


def bbox_expected(fp: Footprints, box) -> set:
    x0, y0, x1, y1 = box
    m = (fp.minx <= x1) & (fp.maxx >= x0) & (fp.miny <= y1) & (fp.maxy >= y0)
    return set(fp.names[m].tolist())


def roi_expected(fp: Footprints, ring: np.ndarray, threshold_pct: float) -> set:
    """The overlap filter of kernels.geom over every footprint, no pruning."""
    prep = geom.PreparedPolygon(wkb.from_parts([[[ring]]]))
    rel = geom.rects_vs_polygon(fp.minx, fp.miny, fp.maxx, fp.maxy, prep)
    areas = (fp.maxx - fp.minx) * (fp.maxy - fp.miny)
    pct = geom.overlap_stats(areas, rel["inter_area"])
    keep = geom.keep_mask(rel["rect_contains_poly"], rel["rect_within_poly"],
                          pct, threshold_pct) & rel["intersects"]
    return set(fp.names[keep].tolist())


def check_set(name: str, got: pd.DataFrame | None, want: set) -> str | None:
    have = set() if got is None or len(got) == 0 else set(got["image_id"].tolist())
    if got is not None and len(got) != len(have):
        return f"{name}: duplicate rows"
    return _diff(name, have, want)


def zonal_expected(fp: Footprints, catalog_path: str) -> set:
    """Every (image_id, catchment_id) whose footprint rect intersects
    the catchment polygon, reprojected to lon/lat, by
    ``geom.rects_vs_polygon`` after a bbox prefilter."""
    t = pq.read_table(catalog_path, columns=["catchment_id", "geometry"])
    cids = t.column("catchment_id").to_pylist()
    rag = wkb.decode(t.column("geometry").to_pylist())
    lon, lat = proj.albers_to_lonlat(rag.coords[:, 0], rag.coords[:, 1])
    rag = wkb.Ragged(np.stack([lon, lat], axis=1), rag.ring_coord_off,
                     rag.part_ring_off, rag.geom_part_off)
    b = geom.bounds(rag)
    order = np.argsort(fp.minx, kind="stable")
    sminx = fp.minx[order]
    width = float((fp.maxx - fp.minx).max()) if len(fp.ids) else 0.0
    pairs = set()
    for g in range(len(cids)):
        lo = np.searchsorted(sminx, b[g, 0] - width, "left")
        hi = np.searchsorted(sminx, b[g, 2], "right")
        cand = order[lo:hi]
        cand = cand[(fp.maxx[cand] >= b[g, 0]) & (fp.miny[cand] <= b[g, 3])
                    & (fp.maxy[cand] >= b[g, 1])]
        if len(cand) == 0:
            continue
        prep = geom.PreparedPolygon(rag.geom_slice(g))
        rel = geom.rects_vs_polygon(fp.minx[cand], fp.miny[cand],
                                    fp.maxx[cand], fp.maxy[cand], prep)
        pairs.update((n, cids[g]) for n in fp.names[cand[rel["intersects"]]].tolist())
    return pairs


def pair_set(df: pd.DataFrame) -> set:
    if len(df) == 0:  # Ray drops the columns of an all-empty result
        return set()
    return set(zip(df["image_id"].tolist(), df["catchment_id"].tolist()))
