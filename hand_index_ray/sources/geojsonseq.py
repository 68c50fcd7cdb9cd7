"""Newline-delimited GeoJSON (GeoJSONSeq / RFC 8142-style) source +
sink — the streaming text cousin of the S4 ROI reader
(sources/geojson.py): one Feature document per line, the layout GDAL's
GeoJSONSeq driver and most geo-ETL exports use for big collections
(regular GeoJSON's single FeatureCollection array cannot be split;
NDJSON lines shard for free via ray.data.read_text).

Reader: read_text → per-batch stdlib-json parse → WKB + typed property
columns. Sink: canonical one-line Feature serialization (sorted keys,
integer-valued coords printed bare) so output is byte-deterministic.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

import ray.data

from ..kernels import wkb as wkblib


def _geom_to_parts(g: dict):
    t = g.get("type")
    cs = g.get("coordinates")
    if t == "Polygon":
        return [[np.asarray(r, np.float64) for r in cs]]
    if t == "MultiPolygon":
        return [[np.asarray(r, np.float64) for r in part] for part in cs]
    if t == "Point":
        return [[np.asarray([cs], np.float64)]]
    raise ValueError(f"unsupported GeoJSON geometry type {t!r}")


def _parts_to_geom(r: "wkblib.Ragged", g: int) -> dict:
    gg = r.geom_slice(g)
    parts = []
    for p in range(len(gg.part_ring_off) - 1):
        rings = []
        for ri in range(gg.part_ring_off[p], gg.part_ring_off[p + 1]):
            c0, c1 = gg.ring_coord_off[ri], gg.ring_coord_off[ri + 1]
            rings.append([[_jnum(x), _jnum(y)]
                          for x, y in gg.coords[c0:c1]])
        parts.append(rings)
    if len(parts) == 1 and len(parts[0]) == 1 and len(parts[0][0]) == 1:
        return {"type": "Point", "coordinates": parts[0][0][0]}
    if len(parts) == 1:
        return {"type": "Polygon", "coordinates": parts[0]}
    return {"type": "MultiPolygon", "coordinates": parts}


def _jnum(v: float):
    return int(v) if float(v) == int(v) and abs(v) < 1e15 else float(v)


def parse_feature_lines(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Batch transform: NDJSON Feature lines → (wkb, properties...).
    Property keys are unioned across the batch; missing → null."""
    lines = t.column(text_col).to_pylist()
    geoms, props = [], []
    for ln in lines:
        ln = ln.strip()
        if not ln:
            continue
        doc = json.loads(ln)
        if doc.get("type") != "Feature":
            raise ValueError(f"not a Feature line: {ln[:40]!r}")
        g = doc.get("geometry")
        geoms.append(None if g is None else _geom_to_parts(g))
        props.append(doc.get("properties") or {})
    present = [g for g in geoms if g is not None]
    blobs = iter(wkblib.encode(wkblib.from_parts(present))
                 if present else [])
    out = {"wkb": pa.array(
        [None if g is None else next(blobs) for g in geoms],
        pa.binary())}
    keys: list[str] = []
    for p in props:
        for k in p:
            if k not in keys:
                keys.append(k)
    for k in keys:
        out[k] = pa.array([p.get(k) for p in props])
    return pa.table(out)


def read_geojsonseq(paths, *, drop_null_geom: bool = True) -> ray.data.Dataset:
    """NDJSON Feature file(s)/glob(s) → Dataset of (wkb, <properties>)."""
    from . import expand_paths

    ds = ray.data.read_text(expand_paths(paths, "GeoJSONSeq files"))
    ds = ds.map_batches(parse_feature_lines, batch_format="pyarrow")
    if drop_null_geom:
        import pyarrow.compute as pc
        ds = ds.map_batches(
            lambda t: t.filter(pc.is_valid(t["wkb"]))
            if "wkb" in t.column_names else t,
            batch_format="pyarrow")
    return ds


def feature_lines(rag: "wkblib.Ragged", props: "list[dict]") -> "list[str]":
    """Canonical one-line Feature strings (sorted property keys) —
    byte-deterministic for a given geometry+property input."""
    out = []
    for g in range(len(rag)):
        doc = {"type": "Feature",
               "geometry": _parts_to_geom(rag, g),
               "properties": dict(sorted(props[g].items()))}
        out.append(json.dumps(doc, separators=(",", ":")))
    return out


def write_geojsonseq(path: str, rag: "wkblib.Ragged",
                     props: "list[dict]") -> None:
    with open(path, "w") as f:
        for ln in feature_lines(rag, props):
            f.write(ln + "\n")
