"""LAS point-cloud source — from the published ASPRS LAS 1.2
specification (public). LiDAR point clouds are the raw input of every
HAND/terrain product (the DEMs the reference's rasters derive from are
gridded LiDAR), so the engine reads them natively: fixed-size point
records make this the ideal record-range-sharded source — a shard is
``offset + lo*reclen .. offset + (hi+1)*reclen``, one seek, one
``np.frombuffer`` with a structured dtype, zero per-point Python.

Supported: point data record formats 0 (20 B) and 1 (+GPS time,
28 B); header-declared scale/offset applied to the raw int32 grid
coords (both the exact ints and the scaled float64s are emitted —
downstream integer pipelines stay exact); classification and the
return-number bitfield decoded vectorized.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

import ray.data

from . import expand_paths

HEADER_SIZE_12 = 227

_PT0 = np.dtype([("xi", "<i4"), ("yi", "<i4"), ("zi", "<i4"),
                 ("intensity", "<u2"), ("flags", "u1"), ("cls", "u1"),
                 ("scan_angle", "i1"), ("user", "u1"), ("psid", "<u2")])
_PT1 = np.dtype(_PT0.descr + [("gps_time", "<f8")])
_FORMATS = {0: _PT0, 1: _PT1}


def write_las(path: str, xi, yi, zi, *, intensity=None, cls=None,
              scale=(0.01, 0.01, 0.01), offset=(0.0, 0.0, 0.0),
              point_format: int = 0, gps_time=None) -> None:
    """Write a LAS 1.2 file from raw int32 grid coordinates (already
    in scale/offset space, as the spec stores them)."""
    xi = np.asarray(xi, "<i4"); yi = np.asarray(yi, "<i4")
    zi = np.asarray(zi, "<i4")
    n = len(xi)
    dt = _FORMATS[point_format]
    rec = np.zeros(n, dt)
    rec["xi"], rec["yi"], rec["zi"] = xi, yi, zi
    rec["intensity"] = np.zeros(n, "<u2") if intensity is None \
        else np.asarray(intensity, "<u2")
    rec["cls"] = np.zeros(n, "u1") if cls is None else np.asarray(cls, "u1")
    rec["flags"] = 0x09  # return 1 of 1 (bits 0-2 = 1, bits 3-5 = 1)
    if point_format == 1:
        rec["gps_time"] = np.zeros(n) if gps_time is None \
            else np.asarray(gps_time, "<f8")
    sx, sy, sz = scale
    ox, oy, oz = offset
    fx = xi * sx + ox; fy = yi * sy + oy; fz = zi * sz + oz
    hdr = bytearray(HEADER_SIZE_12)
    hdr[0:4] = b"LASF"
    hdr[24] = 1; hdr[25] = 2  # version 1.2
    struct.pack_into("<31s", hdr, 26, b"hand_index_ray")  # system id
    struct.pack_into("<H", hdr, 90, 2026)  # creation year @90 (doy @88)
    struct.pack_into("<H", hdr, 94, HEADER_SIZE_12)
    struct.pack_into("<I", hdr, 96, HEADER_SIZE_12)  # offset to points
    struct.pack_into("<I", hdr, 100, 0)  # VLR count
    hdr[104] = point_format
    struct.pack_into("<H", hdr, 105, dt.itemsize)
    struct.pack_into("<I", hdr, 107, n)
    struct.pack_into("<I", hdr, 111, n)  # returns[0]
    struct.pack_into("<3d", hdr, 131, sx, sy, sz)
    struct.pack_into("<3d", hdr, 155, ox, oy, oz)
    mx = (float(fx.max()), float(fx.min())) if n else (0.0, 0.0)
    my = (float(fy.max()), float(fy.min())) if n else (0.0, 0.0)
    mz = (float(fz.max()), float(fz.min())) if n else (0.0, 0.0)
    struct.pack_into("<6d", hdr, 179, mx[0], mx[1], my[0], my[1],
                     mz[0], mz[1])
    with open(path, "wb") as f:
        f.write(bytes(hdr))
        f.write(rec.tobytes())


def read_header(path: str) -> dict:
    with open(path, "rb") as f:
        hdr = f.read(HEADER_SIZE_12)
    if hdr[:4] != b"LASF":
        raise ValueError(f"{path}: not a LAS file")
    fmt = hdr[104] & 0x3F  # high bits flag compression (LAZ) — reject
    if hdr[104] & 0xC0:
        raise ValueError(f"{path}: LAZ-compressed points not supported")
    if fmt not in _FORMATS:
        raise ValueError(f"{path}: unsupported point format {fmt}")
    reclen = struct.unpack_from("<H", hdr, 105)[0]
    if reclen < _FORMATS[fmt].itemsize:
        raise ValueError(f"{path}: record length {reclen} too small")
    return {
        "version": (hdr[24], hdr[25]),
        "point_offset": struct.unpack_from("<I", hdr, 96)[0],
        "point_format": fmt,
        "record_length": reclen,
        "n_points": struct.unpack_from("<I", hdr, 107)[0],
        "scale": struct.unpack_from("<3d", hdr, 131),
        "offset": struct.unpack_from("<3d", hdr, 155),
    }


def _read_las_shards(batch: pa.Table) -> pa.Table:
    """Decode a batch of point-record shards. Each shard row carries
    the header fields the driver parsed (``point_offset``,
    ``record_length``, ``point_format``, ``scale``, ``offset``), so a
    shard costs one seek and one structured frombuffer."""
    tables = []
    for s in batch.to_pylist():
        dt = _FORMATS[s["point_format"]]
        reclen = s["record_length"]
        cnt = s["hi"] - s["lo"] + 1
        with open(s["path"], "rb") as f:
            f.seek(s["point_offset"] + s["lo"] * reclen)
            buf = f.read(cnt * reclen)
        if reclen == dt.itemsize:
            rec = np.frombuffer(buf, dt)
        else:  # extra bytes per record: strided view then copy
            raw = np.frombuffer(buf, np.uint8).reshape(cnt, reclen)
            rec = np.ascontiguousarray(raw[:, :dt.itemsize]) \
                .view(dt).reshape(cnt)
        sx, sy, sz = s["scale"]
        ox, oy, oz = s["offset"]
        cols = {
            "xi": pa.array(rec["xi"].astype(np.int64)),
            "yi": pa.array(rec["yi"].astype(np.int64)),
            "zi": pa.array(rec["zi"].astype(np.int64)),
            "x": pa.array(rec["xi"] * sx + ox),
            "y": pa.array(rec["yi"] * sy + oy),
            "z": pa.array(rec["zi"] * sz + oz),
            "intensity": pa.array(rec["intensity"].astype(np.int64)),
            "classification": pa.array(rec["cls"].astype(np.int64)),
            "return_number": pa.array(
                (rec["flags"] & 0x7).astype(np.int64)),
            "n_returns": pa.array(
                ((rec["flags"] >> 3) & 0x7).astype(np.int64)),
            "src_path": pa.array([s["path"]] * cnt, pa.string()),
        }
        if s["point_format"] == 1:
            cols["gps_time"] = pa.array(rec["gps_time"])
        tables.append(pa.table(cols))
    if not tables:
        return pa.table({"xi": pa.array([], pa.int64())})
    return pa.concat_tables(tables, promote_options="default")


def _las_shards(path: str, shard_points: int) -> "list[dict]":
    """Shard rows of one LAS file: point-record ranges of at most
    ``shard_points``, each with the header fields its reader needs."""
    h = read_header(path)
    keep = ("point_offset", "record_length", "point_format", "scale",
            "offset")
    n = h["n_points"]
    return [{"path": path, "lo": s, "hi": min(s + shard_points - 1, n - 1),
             **{k: h[k] for k in keep}}
            for s in range(0, n, shard_points)]


def read_las(paths, *, shard_points: int = 2_000_000) -> ray.data.Dataset:
    """Read LAS file(s)/glob(s) as a streaming Dataset; shards are
    point-record ranges read by a task map (a billion-point tile
    parallelizes with zero overlap — record size is fixed, so shard
    boundaries are exact byte offsets, and each shard reads only its
    own bytes)."""
    shards = [s for path in expand_paths(paths, "LAS files")
              for s in _las_shards(path, shard_points)]
    return ray.data.from_items(shards).map_batches(
        _read_las_shards, batch_format="pyarrow", batch_size=4)
