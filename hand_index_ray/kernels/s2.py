"""S2 cell ids, vectorized numpy — exact public algorithm.

Implements the S2 geometry cell-id scheme (cube-face quadratic
projection + Hilbert space-filling curve, as published in the
s2geometry library docs): 64-bit ids ``[3 face][2·level pos][1][zeros]``
with the prefix property (a child's id range nests inside its
parent's). This is the engine's *primary* spatial key: partition
pruning uses id ranges, kNN uses BFS rings over (face, i, j)
neighbors with cross-face wrapping.

The reference uses a single-resolution H3 centroid key
(reference load.py:164-168); the north rule generalizes this to
multi-resolution H3 + S2 keys, so both families are emitted by the
cell-encode stage (see kernels/h3exact.py for the H3 one).

All encode/decode paths are vectorized over point arrays; the Hilbert
interleave processes 4 bits per iteration through precomputed lookup
tables (8 iterations total, each a numpy gather).
"""

from __future__ import annotations

import numpy as np

MAX_LEVEL = 30
_LOOKUP_BITS = 4
_SWAP = 0x1
_INVERT = 0x2

# kPosToIJ[orientation][pos] = ij  (i*2+j); kPosToOrientation[pos]
_POS_TO_IJ = np.array(
    [[0, 1, 3, 2], [0, 2, 3, 1], [3, 2, 0, 1], [3, 1, 0, 2]], dtype=np.int64
)
_POS_TO_ORIENT = np.array([_SWAP, 0, 0, _INVERT | _SWAP], dtype=np.int64)

_lookup_pos = np.zeros(1 << (2 * _LOOKUP_BITS + 2), dtype=np.int64)
_lookup_ij = np.zeros(1 << (2 * _LOOKUP_BITS + 2), dtype=np.int64)


def _init_lookup(level: int, i: int, j: int, orig: int, pos: int, orient: int) -> None:
    if level == _LOOKUP_BITS:
        ij = (i << _LOOKUP_BITS) + j
        _lookup_pos[(ij << 2) + orig] = (pos << 2) + orient
        _lookup_ij[(pos << 2) + orig] = (ij << 2) + orient
        return
    level += 1
    i <<= 1
    j <<= 1
    pos <<= 2
    r = _POS_TO_IJ[orient]
    for sub in range(4):
        ij = int(r[sub])
        _init_lookup(level, i + (ij >> 1), j + (ij & 1), orig, pos + sub,
                     orient ^ int(_POS_TO_ORIENT[sub]))


for _o in (0, _SWAP, _INVERT, _SWAP | _INVERT):
    _init_lookup(0, 0, 0, _o, 0, _o)


# ---------------------------------------------------------------------------
# face / uv / st


def lonlat_to_xyz(lon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lam = np.deg2rad(np.asarray(lon, dtype=np.float64))
    phi = np.deg2rad(np.asarray(lat, dtype=np.float64))
    cp = np.cos(phi)
    return cp * np.cos(lam), cp * np.sin(lam), np.sin(phi)


def xyz_to_face_uv(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(ax >= np.maximum(ay, az), 0, np.where(ay >= az, 1, 2)).astype(np.int64)
    val = np.choose(face, [x, y, z])
    face = np.where(val < 0, face + 3, face)
    u = np.empty_like(x)
    v = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for f, (ue, ve, de) in enumerate(_FACE_UV_EXPR):
            m = face == f
            if m.any():
                u[m] = ue(x[m], y[m], z[m])
                v[m] = ve(x[m], y[m], z[m])
    return face, u, v


_FACE_UV_EXPR = [
    (lambda x, y, z: y / x, lambda x, y, z: z / x, None),       # +x
    (lambda x, y, z: -x / y, lambda x, y, z: z / y, None),      # +y
    (lambda x, y, z: -x / z, lambda x, y, z: -y / z, None),     # +z
    (lambda x, y, z: z / x, lambda x, y, z: y / x, None),       # -x
    (lambda x, y, z: z / y, lambda x, y, z: -x / y, None),      # -y
    (lambda x, y, z: -y / z, lambda x, y, z: -x / z, None),     # -z
]


def face_uv_to_xyz(face: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.empty_like(u)
    y = np.empty_like(u)
    z = np.empty_like(u)
    exprs = [
        (lambda u, v: np.ones_like(u), lambda u, v: u, lambda u, v: v),
        (lambda u, v: -u, lambda u, v: np.ones_like(u), lambda u, v: v),
        (lambda u, v: -u, lambda u, v: -v, lambda u, v: np.ones_like(u)),
        (lambda u, v: -np.ones_like(u), lambda u, v: -v, lambda u, v: -u),
        (lambda u, v: v, lambda u, v: -np.ones_like(u), lambda u, v: -u),
        (lambda u, v: v, lambda u, v: u, lambda u, v: -np.ones_like(u)),
    ]
    face = np.asarray(face)
    for f, (xe, ye, ze) in enumerate(exprs):
        m = face == f
        if m.any():
            x[m] = xe(u[m], v[m])
            y[m] = ye(u[m], v[m])
            z[m] = ze(u[m], v[m])
    n = np.sqrt(x * x + y * y + z * z)
    return x / n, y / n, z / n


def uv_to_st(u: np.ndarray) -> np.ndarray:
    """S2 quadratic projection (the library default)."""
    with np.errstate(invalid="ignore"):
        return np.where(u >= 0, 0.5 * np.sqrt(np.abs(1.0 + 3.0 * u)),
                        1.0 - 0.5 * np.sqrt(np.abs(1.0 - 3.0 * u)))


def st_to_uv(s: np.ndarray) -> np.ndarray:
    return np.where(s >= 0.5, (1.0 / 3.0) * (4.0 * s * s - 1.0),
                    (1.0 / 3.0) * (1.0 - 4.0 * (1.0 - s) * (1.0 - s)))


def st_to_ij(s: np.ndarray) -> np.ndarray:
    return np.clip((s * (1 << MAX_LEVEL)).astype(np.int64), 0, (1 << MAX_LEVEL) - 1)


# ---------------------------------------------------------------------------
# cell ids


def lsb_for_level(level: int) -> np.uint64:
    return np.uint64(1) << np.uint64(2 * (MAX_LEVEL - level))


def from_face_ij(face: np.ndarray, i: np.ndarray, j: np.ndarray, level: int = MAX_LEVEL) -> np.ndarray:
    """(face, leaf i, leaf j) → cell id at ``level`` (vectorized Hilbert)."""
    face = np.asarray(face, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    bits = face & _SWAP
    pos = np.zeros(len(face), dtype=np.uint64)
    for k in range(7, -1, -1):
        nib_i = (i >> (k * 4)) & 15
        nib_j = (j >> (k * 4)) & 15
        idx = bits + (nib_i << (_LOOKUP_BITS + 2)) + (nib_j << 2)
        looked = _lookup_pos[idx]
        pos = (pos << np.uint64(8)) | looked.astype(np.uint64) >> np.uint64(2)
        bits = looked & (_SWAP | _INVERT)
    leaf = (face.astype(np.uint64) << np.uint64(61)) | (pos << np.uint64(1)) | np.uint64(1)
    if level == MAX_LEVEL:
        return leaf
    lsb = lsb_for_level(level)
    with np.errstate(over="ignore"):
        return (leaf & (np.uint64(0) - lsb)) | lsb


def cell_level(cid: np.ndarray) -> np.ndarray:
    """Level from trailing-one position."""
    cid = np.asarray(cid, dtype=np.uint64)
    low = (cid & (~cid + np.uint64(1)))  # lowest set bit
    # log2 of low, over 64-bit: use bit_length via float-safe method
    lz = np.zeros(cid.shape, dtype=np.int64)
    tmp = low.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        m = tmp >= (np.uint64(1) << np.uint64(shift))
        lz[m] += shift
        tmp[m] >>= np.uint64(shift)
    return MAX_LEVEL - lz // 2


def parent(cid: np.ndarray, level: int) -> np.ndarray:
    cid = np.asarray(cid, dtype=np.uint64)
    lsb = lsb_for_level(level)
    with np.errstate(over="ignore"):
        return (cid & (np.uint64(0) - lsb)) | lsb


def cell_range(cid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[range_min, range_max] of leaf ids under this cell (inclusive)."""
    cid = np.asarray(cid, dtype=np.uint64)
    lsb = cid & (~cid + np.uint64(1))
    return cid - (lsb - np.uint64(1)), cid + (lsb - np.uint64(1))


def to_face_ij(cid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell id → (face, i, j) of its center leaf (vectorized inverse)."""
    cid = np.asarray(cid, dtype=np.uint64)
    face = (cid >> np.uint64(61)).astype(np.int64)
    bits = face & _SWAP
    i = np.zeros(len(cid), dtype=np.int64)
    j = np.zeros(len(cid), dtype=np.int64)
    for k in range(7, -1, -1):
        nbits = (MAX_LEVEL - 7 * _LOOKUP_BITS) if k == 7 else _LOOKUP_BITS
        extracted = ((cid >> np.uint64(k * 2 * _LOOKUP_BITS + 1)) & np.uint64((1 << (2 * nbits)) - 1)).astype(np.int64)
        bits = bits + (extracted << 2)
        looked = _lookup_ij[bits]
        i += (looked >> (_LOOKUP_BITS + 2)) << (k * 4)
        j += ((looked >> 2) & 15) << (k * 4)
        bits = looked & (_SWAP | _INVERT)
    # center-leaf correction (canonical GetCenterSiTi delta rule)
    is_leaf = (cid & np.uint64(1)) == np.uint64(1)
    delta = np.where(is_leaf, 1, np.where(((i ^ (cid >> np.uint64(2)).astype(np.int64)) & 1) != 0, 2, 0))
    si = 2 * i + delta
    ti = 2 * j + delta
    return face, si, ti  # si/ti in [0, 2^31]


def lonlat_to_cell(lon: np.ndarray, lat: np.ndarray, level: int) -> np.ndarray:
    """lat/lng → S2 cell id at ``level`` — the S2 analog of the
    reference's ``h3_latlng_to_cell`` (load.py:164-168)."""
    x, y, z = lonlat_to_xyz(lon, lat)
    face, u, v = xyz_to_face_uv(x, y, z)
    i = st_to_ij(uv_to_st(u))
    j = st_to_ij(uv_to_st(v))
    return from_face_ij(face, i, j, level)


def cell_to_lonlat(cid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell id → center lon/lat degrees."""
    face, si, ti = to_face_ij(cid)
    s = si.astype(np.float64) / (1 << (MAX_LEVEL + 1))
    t = ti.astype(np.float64) / (1 << (MAX_LEVEL + 1))
    u = st_to_uv(s)
    v = st_to_uv(t)
    x, y, z = face_uv_to_xyz(face, u, v)
    return np.rad2deg(np.arctan2(y, x)), np.rad2deg(np.arcsin(np.clip(z, -1, 1)))


def neighbors(cid: np.ndarray, level: int) -> np.ndarray:
    """8-neighborhood (edge + corner) of each cell at ``level``, with
    cross-face wrapping via the sphere (unproject → re-encode).

    Returns a (N, 8) uint64 array; used by the kNN ring-expansion BFS.
    """
    cid = np.asarray(cid, dtype=np.uint64)
    face, si, ti = to_face_ij(cid)
    i = si >> 1
    j = ti >> 1
    size = 1 << (MAX_LEVEL - level)
    out = np.empty((len(cid), 8), dtype=np.uint64)
    col = 0
    for di in (-size, 0, size):
        for dj in (-size, 0, size):
            if di == 0 and dj == 0:
                continue
            ni = i + di
            nj = j + dj
            # extended st (may fall outside [0,1) → wraps to adjacent face)
            s = (ni.astype(np.float64) + 0.5) / (1 << MAX_LEVEL)
            t = (nj.astype(np.float64) + 0.5) / (1 << MAX_LEVEL)
            u = st_to_uv(s)
            v = st_to_uv(t)
            x, y, z = face_uv_to_xyz(face, u, v)
            f2, u2, v2 = xyz_to_face_uv(x, y, z)
            i2 = st_to_ij(uv_to_st(u2))
            j2 = st_to_ij(uv_to_st(v2))
            out[:, col] = from_face_ij(f2, i2, j2, level)
            col += 1
    return out


def cover_bbox(min_lon: float, min_lat: float, max_lon: float, max_lat: float,
               level: int, max_cells: int | None = None) -> np.ndarray:
    """Deterministic lattice covering of a lon/lat bbox at ``level``.

    Samples a fixed global lon/lat lattice (step δ, multiples of δ from
    the meridian/equator) over the bbox padded by δ and returns the
    unique cells of the sample points. Two overlapping bboxes covered
    at the SAME level always share ≥1 lattice point of the padded
    grids, so these coverings are valid equi-join keys for the
    co-partitioned zonal join (SURVEY.md §2.4 J7) regardless of cell
    shape — provided both sides use one fixed level.

    ``max_cells`` (pruning use only — NOT for join keys): coarsen the
    level until the sample grid fits; the shared-cell guarantee then no
    longer holds across calls with different effective levels.

    Limitation: bboxes are non-wrapping (min_lon ≤ max_lon); an
    antimeridian-crossing region must be split into two bboxes by the
    caller (the engine's CONUS-style footprints never wrap).
    """
    while True:
        delta = 45.0 / (1 << level)
        lon0 = np.floor((min_lon - delta) / delta) * delta
        lat0 = np.floor((max(min_lat, -89.99) - delta) / delta) * delta
        nlon = int(np.ceil((max_lon + delta - lon0) / delta)) + 1
        nlat = int(np.ceil((min(max_lat, 89.99) + delta - lat0) / delta)) + 1
        if max_cells is None or nlon * nlat <= max_cells or level == 0:
            break
        level -= 1
    lons = lon0 + delta * np.arange(nlon)
    lats = np.clip(lat0 + delta * np.arange(nlat), -89.999, 89.999)
    glon, glat = np.meshgrid(lons, lats)
    cells = lonlat_to_cell(glon.ravel(), glat.ravel(), level)
    return np.unique(cells)
