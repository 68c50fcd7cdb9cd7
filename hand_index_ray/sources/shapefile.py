"""ESRI Shapefile source — from the published technical description
(ESRI white paper, 1998; public knowledge). Hydrology corpora ship
sidecar vector data as shapefiles as often as GeoPackages, so the
engine reads the trio natively: ``.shp`` (geometry records), ``.shx``
(fixed-width record index — the random-access structure that makes
record-range SHARDING exact), ``.dbf`` (dBase III attributes).

Reader design (Ray-Data-first, same shape as sources/gpkg.py):
- the driver reads each ``.shx`` ONCE (8 bytes per record) to learn
  the record count, then emits (path, rec_lo, rec_hi) shards →
  ``from_items`` → a ``map_batches`` task map;
- each shard reads only its own bytes: its slice of ``.shx``, the
  ``.shp`` byte range those offsets span, and the ``.dbf`` header plus
  its record range — shards never scan each other's records;
- Polygon/PolyLine parts decode vectorized (one ``np.frombuffer`` per
  record's point block); rings classify outer/hole by signed area
  (shapefile winding rule: outer rings clockwise) and re-emit as WKB
  POLYGON/MULTIPOLYGON for the engine's ragged kernels;
- dBase attributes decode by field descriptor (C→string, N/F→int64 or
  float64, L→bool-as-int, D→string), fixed-width slices over one
  buffer — no per-cell parsing loop beyond the numpy slice.

Writer emits the same trio (fixtures — the sandbox ships no
shapefiles), byte-faithful to the spec: BE file headers with 16-bit
word lengths, LE record payloads, dBase header/descriptor/record
layout with the 0x0D terminator and 0x1A EOF marker.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa

import ray.data

from ..kernels import wkb as wkblib
from . import expand_paths

SHAPE_NULL = 0
SHAPE_POINT = 1
SHAPE_POLYLINE = 3
SHAPE_POLYGON = 5


# ---------------------------------------------------------------------------
# writer (spec-correct fixture generator)


def _ring_signed_area2(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def write_shapefile(base: str, geoms: "list[list[list[np.ndarray]] | None]",
                    fields: "dict[str, list] | None" = None,
                    shape_type: int = SHAPE_POLYGON) -> None:
    """Write ``base``.shp/.shx/.dbf. ``geoms``: per record, a list of
    parts, each a list of rings, each an (n, 2) float64 closed ring
    (None → Null Shape record). Outer rings are written clockwise and
    holes counter-clockwise per the spec's winding rule."""
    fields = fields or {}
    recs = []
    all_pts = []
    for g in geoms:
        if g is None:
            recs.append(struct.pack("<i", SHAPE_NULL))
            continue
        rings = []
        for part in g:
            for j, ring in enumerate(part):
                r = np.asarray(ring, dtype=np.float64)
                a2 = _ring_signed_area2(r[:-1])
                # outer (j==0) must be CW (negative signed area in
                # math axes); holes CCW
                if (j == 0) == (a2 > 0):
                    r = r[::-1]
                rings.append(r)
        npts = sum(len(r) for r in rings)
        pts = np.concatenate(rings, axis=0)
        all_pts.append(pts)
        parts_off = np.cumsum([0] + [len(r) for r in rings[:-1]]).astype("<i4")
        bbox = (pts[:, 0].min(), pts[:, 1].min(),
                pts[:, 0].max(), pts[:, 1].max())
        body = (struct.pack("<i4d", shape_type, *bbox)
                + struct.pack("<ii", len(rings), npts)
                + parts_off.tobytes()
                + np.ascontiguousarray(pts, dtype="<f8").tobytes())
        recs.append(body)
    if all_pts:
        allp = np.concatenate(all_pts, axis=0)
        gbox = (allp[:, 0].min(), allp[:, 1].min(),
                allp[:, 0].max(), allp[:, 1].max())
    else:
        gbox = (0.0, 0.0, 0.0, 0.0)

    shp_parts, shx_parts = [], []
    off_words = 50  # header = 100 bytes
    for i, body in enumerate(recs):
        content_words = len(body) // 2
        shp_parts.append(struct.pack(">ii", i + 1, content_words) + body)
        shx_parts.append(struct.pack(">ii", off_words, content_words))
        off_words += 4 + content_words

    def header(total_words: int) -> bytes:
        return (struct.pack(">i", 9994) + b"\x00" * 20
                + struct.pack(">i", total_words)
                + struct.pack("<ii", 1000, shape_type)
                + struct.pack("<8d", gbox[0], gbox[1], gbox[2], gbox[3],
                              0, 0, 0, 0))

    with open(base + ".shp", "wb") as f:
        f.write(header(off_words))
        f.writelines(shp_parts)
    with open(base + ".shx", "wb") as f:
        f.write(header(50 + 4 * len(recs)))
        f.writelines(shx_parts)

    # dBase III attribute table
    descrs, widths, fmts = [], [], []
    for name, vals in fields.items():
        v0 = next((v for v in vals if v is not None), "")
        if isinstance(v0, (int, np.integer)):
            ftype, width, dec = b"N", 18, 0
        elif isinstance(v0, (float, np.floating)):
            ftype, width, dec = b"N", 19, 6
        else:
            width = max([len(str(v)) for v in vals if v is not None] or [1])
            ftype, width, dec = b"C", min(max(width, 1), 254), 0
        descrs.append(struct.pack("<11s c 4x B B 14x",
                                  name.encode()[:10], ftype, width, dec))
        widths.append(width)
        fmts.append((ftype, width, dec))
    n = len(geoms)
    rec_size = 1 + sum(widths)
    hdr_size = 32 + 32 * len(fields) + 1
    with open(base + ".dbf", "wb") as f:
        f.write(struct.pack("<B3B i HH 20x", 0x03, 126, 1, 1, n,
                            hdr_size, rec_size))
        f.writelines(descrs)
        f.write(b"\x0d")
        for i in range(n):
            row = [b" "]
            for (ftype, width, dec), (name, vals) in zip(fmts, fields.items()):
                v = vals[i]
                if v is None:
                    s = b" " * width
                elif ftype == b"N" and dec == 0:
                    s = str(int(v)).rjust(width).encode()
                elif ftype == b"N":
                    s = f"{float(v):.{dec}f}".rjust(width).encode()
                else:
                    s = str(v)[:width].ljust(width).encode()
                row.append(s[:width])
            f.write(b"".join(row))
        f.write(b"\x1a")


# ---------------------------------------------------------------------------
# low-level parsers


def _read_shx(path: str, lo: int = 0, count: int = -1) -> np.ndarray:
    """(n, 2) int64 [byte_offset, content_bytes] for ``count`` records
    from record ``lo`` (default: every record)."""
    with open(path, "rb") as f:
        head = f.read(100)
        if struct.unpack_from(">i", head, 0)[0] != 9994:
            raise ValueError(f"{path}: bad shapefile file code")
        f.seek(100 + 8 * lo)
        raw = np.frombuffer(f.read(8 * count if count >= 0 else -1),
                            dtype=">i4").astype(np.int64)
    pairs = raw.reshape(-1, 2) * 2  # 16-bit words → bytes
    return pairs


def _dbf_schema(buf: memoryview):
    n_rec, hdr_size, rec_size = struct.unpack_from("<iHH", buf, 4)
    fields = []
    pos = 32
    while pos < hdr_size - 1 and buf[pos] != 0x0D:
        name = bytes(buf[pos:pos + 11]).split(b"\x00")[0].decode("ascii")
        ftype = chr(buf[pos + 11])
        width = buf[pos + 16]
        dec = buf[pos + 17]
        fields.append((name, ftype, width, dec))
        pos += 32
    return n_rec, hdr_size, rec_size, fields


def _decode_dbf_rows(buf: memoryview, lo: int, hi: int):
    """Decode dBase records lo..hi (0-based, inclusive) → dict of
    numpy/python columns, fixed-width slices over one byte matrix."""
    n_rec, hdr_size, rec_size, fields = _dbf_schema(buf)
    hi = min(hi, n_rec - 1)
    cnt = hi - lo + 1
    if cnt <= 0:
        return {}, fields
    mat = np.frombuffer(buf, dtype=np.uint8, count=cnt * rec_size,
                        offset=hdr_size + lo * rec_size) \
        .reshape(cnt, rec_size)
    out = {}
    pos = 1  # deletion flag byte
    for name, ftype, width, dec in fields:
        cell = mat[:, pos:pos + width]
        txt = [bytes(cell[i]).decode("ascii", "replace").strip()
               for i in range(cnt)]
        if ftype in ("N", "F"):
            if dec == 0 and ftype == "N":
                out[name] = [int(t) if t else None for t in txt]
            else:
                out[name] = [float(t) if t else None for t in txt]
        elif ftype == "L":
            out[name] = [None if t in ("", "?") else int(t in "TtYy")
                         for t in txt]
        else:
            out[name] = txt
        pos += width
    return out, fields


def _read_dbf_rows(path: str, lo: int, hi: int):
    """``_decode_dbf_rows`` for records lo..hi, reading only the dBase
    header and that record range."""
    with open(path, "rb") as f:
        head = f.read(32)
        n_rec, hdr_size, rec_size = struct.unpack_from("<iHH", head, 4)
        head += f.read(hdr_size - 32)
        hi = min(hi, n_rec - 1)
        f.seek(hdr_size + lo * rec_size)
        recs = f.read(max(hi - lo + 1, 0) * rec_size)
    return _decode_dbf_rows(memoryview(head + recs), 0, hi - lo)


def _shape_to_wkb(body: bytes) -> "bytes | None":
    """One .shp record body → WKB (POLYGON/MULTIPOLYGON/POINT/
    LINESTRING-as-MULTILINE parts kept simple: polylines re-emit each
    part as a POLYGON-free WKB LineString is out of engine scope, so
    polylines raise). Null shapes → None."""
    (stype,) = struct.unpack_from("<i", body, 0)
    if stype == SHAPE_NULL:
        return None
    if stype == SHAPE_POINT:
        x, y = struct.unpack_from("<2d", body, 4)
        return struct.pack("<BIdd", 1, 1, x, y)
    if stype != SHAPE_POLYGON:
        raise ValueError(f"unsupported shape type {stype}")
    nparts, npts = struct.unpack_from("<ii", body, 36)
    parts = np.frombuffer(body, "<i4", count=nparts, offset=44) \
        .astype(np.int64)
    pts = np.frombuffer(body, "<f8", count=npts * 2,
                        offset=44 + 4 * nparts).reshape(npts, 2)
    ends = np.append(parts[1:], npts)
    # classify rings: shapefile outer rings are CW (negative signed
    # area in math axes), holes CCW; holes attach to the preceding
    # outer (the common exporter layout)
    polys: list[list[np.ndarray]] = []
    for s, e in zip(parts, ends):
        ring = pts[s:e]
        a2 = _ring_signed_area2(ring[:-1] if len(ring) > 1 else ring)
        is_outer = a2 < 0 or not polys
        # WKB convention downstream is winding-agnostic (ragged decode
        # normalizes), keep file order
        if is_outer:
            polys.append([ring])
        else:
            polys[-1].append(ring)
    return wkblib.encode(wkblib.from_parts([polys]))[0]


# ---------------------------------------------------------------------------
# reader


def _read_shp_shards(batch: pa.Table) -> pa.Table:
    """Decode a batch of record-range shards. A shard reads its slice
    of ``.shx``, the ``.shp`` byte range its records span, and the
    ``.dbf`` header plus its record range — never a whole file."""
    tables = []
    for s in batch.to_pylist():
        base, lo, hi = s["base"], s["lo"], s["hi"]
        idx = _read_shx(base + ".shx", lo, hi - lo + 1)
        start = int(idx[:, 0].min())
        with open(base + ".shp", "rb") as f:
            f.seek(start)
            shp = f.read(int((idx[:, 0] + 8 + idx[:, 1]).max()) - start)
        wkbs = [_shape_to_wkb(shp[off - start + 8:off - start + 8 + nbytes])
                for off, nbytes in idx.tolist()]
        # shapefile record numbers are 1-based
        cols = {"fid": pa.array(range(lo + 1, hi + 2), pa.int64()),
                "wkb": pa.array(wkbs, pa.binary()),
                "src_path": pa.array([base + ".shp"] * len(wkbs),
                                     pa.string())}
        if os.path.exists(base + ".dbf"):
            attrs, fields = _read_dbf_rows(base + ".dbf", lo, hi)
            for name, ftype, _w, dec in fields:
                vals = attrs[name]
                if ftype in ("N", "F"):
                    typ = pa.int64() if (dec == 0 and ftype == "N") \
                        else pa.float64()
                elif ftype == "L":
                    typ = pa.int64()
                else:
                    typ = pa.string()
                cols[name] = pa.array(vals, typ)
        tables.append(pa.table(cols))
    if not tables:
        return pa.table({"fid": pa.array([], pa.int64())})
    return pa.concat_tables(tables, promote_options="default")


def read_shapefile(paths, *, drop_null_geom: bool = True,
                   shard_records: int = 65536) -> ray.data.Dataset:
    """Read one or more shapefiles (path(s) or glob(s), with or
    without the ``.shp`` suffix) as a streaming Dataset of
    ``fid | wkb | src_path | <dbf attributes>``."""
    bases = dict.fromkeys(
        m[:-4] if m.lower().endswith((".shp", ".shx", ".dbf")) else m
        for m in expand_paths(paths, "shapefiles"))
    shards = []
    for base in bases:
        n = len(_read_shx(base + ".shx"))
        for s in range(0, n, shard_records):
            shards.append({"base": base, "lo": s,
                           "hi": min(s + shard_records - 1, n - 1)})
    ds = ray.data.from_items(shards).map_batches(
        _read_shp_shards, batch_format="pyarrow", batch_size=4)
    if drop_null_geom:
        import pyarrow.compute as pc
        ds = ds.map_batches(
            lambda t: t.filter(pc.is_valid(t["wkb"]))
            if "wkb" in t.column_names else t,
            batch_format="pyarrow")
    return ds
