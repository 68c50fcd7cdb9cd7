"""GPX (GPS Exchange Format) track source — stdlib XML, sharded by file.

Field-collected GPS tracks are the vector cousin of the reference's
catchment inputs (ROI polygons arrive as GeoJSON, sources/geojson.py);
GPX is the de-facto interchange for GPS traces. Reader contract:

* one file = one read task (files shard across the cluster like every
  other container source here);
* ``<trk>/<trkseg>/<trkpt lat lon>`` with optional ``<ele>`` and
  ``<time>`` children → one row per point with ``(track_id, seg, idx,
  lat_udeg, lon_udeg, ele_cm, ts_us)``;
* coordinates land as integer microdegrees and elevation as integer
  centimeters — exact decimal parsing (scaled-string arithmetic, no
  float round-trip), so downstream sums/lengths hash identically to a
  SQL oracle.

A spec-correct writer exists for fixtures (no GPS hardware in this
sandbox).
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

import ray.data

_NS = "{http://www.topografix.com/GPX/1/1}"


def _scaled_int(text: str, scale: int) -> int:
    """Exact decimal-string → scaled integer (no float): '12.3456'
    at scale 1_000_000 → 12345600. Truncates digits beyond scale."""
    text = text.strip()
    m = re.fullmatch(r"(-?)(\d+)(?:\.(\d*))?", text)
    if not m:
        raise ValueError(f"bad decimal {text!r}")
    sign = -1 if m.group(1) else 1
    whole = int(m.group(2))
    frac = (m.group(3) or "")
    digits = len(str(scale)) - 1
    frac = (frac + "0" * digits)[:digits]
    return sign * (whole * scale + int(frac or 0))


def _parse_iso_us(text: str) -> int:
    """ISO-8601 UTC timestamp → epoch microseconds (stdlib only)."""
    from datetime import datetime, timezone

    t = text.strip().replace("Z", "+00:00")
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1_000_000)


def parse_gpx_bytes(data: bytes, track_id: int) -> pa.Table:
    """Parse one GPX document into the point table."""
    root = ET.fromstring(data)
    segs, idxs, lats, lons, eles, tss = [], [], [], [], [], []
    tid = []
    for trk in root.iter(f"{_NS}trk"):
        for si, seg in enumerate(trk.iter(f"{_NS}trkseg")):
            for pi, pt in enumerate(seg.iter(f"{_NS}trkpt")):
                tid.append(track_id)
                segs.append(si)
                idxs.append(pi)
                lats.append(_scaled_int(pt.get("lat"), 1_000_000))
                lons.append(_scaled_int(pt.get("lon"), 1_000_000))
                ele = pt.find(f"{_NS}ele")
                eles.append(_scaled_int(ele.text, 100)
                            if ele is not None else 0)
                tm = pt.find(f"{_NS}time")
                tss.append(_parse_iso_us(tm.text)
                           if tm is not None else -1)
    return pa.table({
        "track_id": pa.array(tid, pa.int64()),
        "seg": pa.array(segs, pa.int64()),
        "idx": pa.array(idxs, pa.int64()),
        "lat_udeg": pa.array(lats, pa.int64()),
        "lon_udeg": pa.array(lons, pa.int64()),
        "ele_cm": pa.array(eles, pa.int64()),
        "ts_us": pa.array(tss, pa.int64()),
    })


def read_gpx(paths: list[str]) -> ray.data.Dataset:
    """Read GPX files as one point Dataset; ``track_id`` is the
    file's position in the sorted path list (stable across runs)."""
    paths = sorted(paths)
    src = ray.data.from_items(
        [{"path": p, "track_id": i} for i, p in enumerate(paths)])

    def read_one(t: pa.Table):
        ids = t.column("track_id").to_pylist()
        for p, tid in zip(t.column("path").to_pylist(), ids):
            with open(p, "rb") as f:
                yield parse_gpx_bytes(f.read(), tid)

    return src.map_batches(read_one, batch_format="pyarrow", batch_size=1)


def write_gpx(path: str, points) -> None:
    """Fixture writer: ``points`` is an iterable of (seg, lat_udeg,
    lon_udeg, ele_cm, ts_us) tuples, already point-ordered."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<gpx version="1.1" creator="hand_index_ray"'
           ' xmlns="http://www.topografix.com/GPX/1/1">', "<trk>"]
    cur_seg = None
    from datetime import datetime, timezone

    for seg, lat, lon, ele, ts in points:
        if seg != cur_seg:
            if cur_seg is not None:
                out.append("</trkseg>")
            out.append("<trkseg>")
            cur_seg = seg
        lat_s = f"{lat / 1_000_000:.6f}"
        lon_s = f"{lon / 1_000_000:.6f}"
        out.append(f'<trkpt lat="{lat_s}" lon="{lon_s}">')
        out.append(f"<ele>{ele / 100:.2f}</ele>")
        if ts >= 0:
            dt = datetime.fromtimestamp(ts / 1_000_000, tz=timezone.utc)
            out.append(f"<time>{dt.strftime('%Y-%m-%dT%H:%M:%SZ')}</time>")
        out.append("</trkpt>")
    if cur_seg is not None:
        out.append("</trkseg>")
    out.append("</trk></gpx>")
    with open(path, "w") as f:
        f.write("\n".join(out))
