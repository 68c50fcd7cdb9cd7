"""Bit-exact Uber H3 ``latlng_to_cell`` (cell mode), vectorized numpy.

Real H3 indexes (VERDICT r2 M6) matching the reference's
``h3_latlng_to_cell(lat, lon, res)`` (reference load.py:164-168,
DuckDB community h3 extension → Uber h3 C library).

Everything here derives from PUBLIC knowledge of the H3 grid system —
the published algorithm (gnomonic projection onto a fixed-orientation
icosahedron, aperture-7 class II/III hex lattices, 64-bit index
layout) and its published constant tables:

- ``FACE_CENTER_GEO`` / ``FACE_AXES_AZ`` — the 20 icosahedron face
  centers (lat,lng radians) and class II i/j/k axis azimuths
  (faceijk.c). Self-checked in tests: unit vectors, regular
  icosahedron adjacency, and the three azimuths of every face exactly
  2π/3 apart — a transcription error breaks those to ~1e-12.
- ``BASE_CELL_DATA`` — the 122 base cells' home (face, i, j, k),
  pentagon flags and pentagon cw-offset faces (baseCells.c).
  Self-checked: the 122 home positions are pairwise-distinct lattice
  points that exactly cover the 122 distinct res-0 cell centers of
  the 20-face coarse grid, the 12 pentagons sit exactly on the 12
  icosahedron vertices, and every cw-offset face is one of the 5
  faces its pentagon touches.
- The per-(face, i, j, k) base-cell + ccw-rotation lookup
  (faceIjkBaseCells in the C library) is NOT vendored: it is derived
  geometrically at first use from the two tables above (nearest
  home-center match for the cell, lattice frame comparison for the
  rotation) — 540 entries we'd otherwise have to trust to memory.

Golden vectors (tests/test_h3_exact.py) pin the result to the real
library's published outputs. Confidence statement: hexagon cells are
validated by golden vectors + geometric self-consistency; pentagon
cells (12 of 122, vanishing area share) exercise the cw-offset table
entries that no in-sandbox golden vector reaches — flagged in tests
as best-effort.
"""

from __future__ import annotations

import numpy as np

# --- constants (public, faceijk.c / constants.h) ---------------------------

M_SQRT7 = 2.6457513110645905905016157536392604257102
M_SIN60 = np.sqrt(3.0) / 2.0
M_AP7_ROT_RADS = 0.333473172251832115336090755351601070065900389
RES0_U_GNOMONIC = 0.38196601125010500003
EPSILON = 1e-16
MAX_H3_RES = 15

# icosahedron face centers in (lat, lng) radians — faceijk.c
FACE_CENTER_GEO = np.array([
    [0.803582649718989942, 1.248397419617396099],
    [1.307747883455638156, 2.536945009877921159],
    [1.054751253523952054, -1.347517358900396623],
    [0.600191595538186799, -0.450603909469755746],
    [0.491715428198773866, 0.401988202911306943],
    [0.172745327415618701, 1.678146885280433686],
    [0.605929321571350690, 2.953923329812411617],
    [0.427370518328979641, -1.888876200336285401],
    [-0.079066118549212831, -0.733429513380867741],
    [-0.230961644455383637, 0.506495587332349035],
    [0.079066118549212831, 2.408163140208925497],
    [0.230961644455383637, -2.635097066257444203],
    [-0.172745327415618701, -1.463445768309359553],
    [-0.605929321571350690, -0.187669323777381622],
    [-0.427370518328979641, 1.252716453253507838],
    [-0.600191595538186799, 2.690988744120037492],
    [-0.491715428198773866, -2.739604450678486295],
    [-0.803582649718989942, -1.893195233972397139],
    [-1.307747883455638156, -0.604647643711872080],
    [-1.054751253523952054, 1.794075294689396615],
])

# icosahedron face ijk axes as azimuth in radians from face center to
# vertex 0/1/2 respectively (class II orientation) — faceijk.c
FACE_AXES_AZ = np.array([
    [5.619958268523939882, 3.525563166130744542, 1.431168063737548730],
    [5.760339081714187279, 3.665943979320991689, 1.571548876927795878],
    [0.780213654393430055, 4.969003859179821079, 2.874608756786625655],
    [0.430469363979999913, 4.619259568766391033, 2.524864466373195467],
    [6.130269123335111400, 4.035874020941915804, 1.941478918548720291],
    [2.692877706530642877, 0.598482604137447119, 4.787272808923838195],
    [2.982963003477243874, 0.888567901084048369, 5.077358105870439581],
    [3.532912002790141181, 1.438516900396945656, 5.627307105183336758],
    [3.494305004259568154, 1.399909901866372864, 5.588700106652763840],
    [3.003214169499538391, 0.908819067106342928, 5.097609271892733906],
    [5.930472956509811562, 3.836077854116615875, 1.741682751723420374],
    [0.138378484090254847, 4.327168688876645809, 2.232773586483450311],
    [0.448714947059150361, 4.637505151845541521, 2.543110049452346176],
    [0.158629650112549365, 4.347419854898940135, 2.253024752505744790],
    [5.891865957979238535, 3.797470855586042958, 1.703075753192847583],
    [2.711123289609793325, 0.616728187216597771, 4.805518392002988683],
    [3.294508837434268316, 1.200113735041072948, 5.388903939827463911],
    [3.804819692245439833, 1.710424589852244509, 5.899214794638635174],
    [3.664438879055192436, 1.570043776662000689, 5.758833981448388290],
    [2.361378999196363184, 0.266983896803167583, 4.455774101589558636],
])

# base cell data: (home face, home i, home j, home k, isPentagon,
# cwOffsetPent0, cwOffsetPent1) — baseCells.c
BASE_CELL_DATA = np.array([
    (1, 1, 0, 0, 0, 0, 0), (2, 1, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0),
    (2, 1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 1, -1, -1), (1, 1, 1, 0, 0, 0, 0),
    (1, 0, 0, 1, 0, 0, 0), (2, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0),
    (2, 0, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0, 0), (1, 0, 1, 1, 0, 0, 0),
    (3, 1, 0, 0, 0, 0, 0), (3, 1, 1, 0, 0, 0, 0), (11, 2, 0, 0, 1, 2, 6),
    (4, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0), (6, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0), (2, 0, 1, 1, 0, 0, 0), (7, 0, 0, 1, 0, 0, 0),
    (2, 0, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0), (6, 0, 0, 1, 0, 0, 0),
    (10, 2, 0, 0, 1, 1, 5), (6, 0, 0, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0, 0),
    (11, 1, 0, 0, 0, 0, 0), (4, 1, 1, 0, 0, 0, 0), (3, 0, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0), (4, 0, 0, 0, 0, 0, 0), (5, 0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0), (7, 0, 1, 0, 0, 0, 0), (11, 1, 1, 0, 0, 0, 0),
    (7, 0, 0, 0, 0, 0, 0), (10, 1, 0, 0, 0, 0, 0), (12, 2, 0, 0, 1, 3, 7),
    (6, 1, 0, 1, 0, 0, 0), (7, 1, 0, 1, 0, 0, 0), (4, 0, 0, 1, 0, 0, 0),
    (3, 0, 0, 1, 0, 0, 0), (3, 0, 1, 1, 0, 0, 0), (4, 0, 1, 0, 0, 0, 0),
    (6, 1, 0, 0, 0, 0, 0), (11, 0, 0, 0, 0, 0, 0), (8, 0, 0, 1, 0, 0, 0),
    (5, 0, 0, 1, 0, 0, 0), (14, 2, 0, 0, 1, 0, 9), (5, 0, 0, 0, 0, 0, 0),
    (12, 1, 0, 0, 0, 0, 0), (10, 1, 1, 0, 0, 0, 0), (4, 0, 1, 1, 0, 0, 0),
    (12, 1, 1, 0, 0, 0, 0), (7, 1, 0, 0, 0, 0, 0), (11, 0, 1, 0, 0, 0, 0),
    (10, 0, 0, 0, 0, 0, 0), (13, 2, 0, 0, 1, 4, 8), (10, 0, 0, 1, 0, 0, 0),
    (11, 0, 0, 1, 0, 0, 0), (9, 0, 1, 0, 0, 0, 0), (8, 0, 1, 0, 0, 0, 0),
    (6, 2, 0, 0, 1, 11, 15), (8, 0, 0, 0, 0, 0, 0), (9, 0, 0, 1, 0, 0, 0),
    (14, 1, 0, 0, 0, 0, 0), (5, 1, 0, 1, 0, 0, 0), (16, 0, 1, 1, 0, 0, 0),
    (8, 1, 0, 1, 0, 0, 0), (5, 1, 0, 0, 0, 0, 0), (12, 0, 0, 0, 0, 0, 0),
    (7, 2, 0, 0, 1, 12, 16), (12, 0, 1, 0, 0, 0, 0), (10, 0, 1, 0, 0, 0, 0),
    (9, 0, 0, 0, 0, 0, 0), (13, 1, 0, 0, 0, 0, 0), (16, 0, 0, 1, 0, 0, 0),
    (15, 0, 1, 1, 0, 0, 0), (15, 0, 1, 0, 0, 0, 0), (16, 0, 1, 0, 0, 0, 0),
    (14, 1, 1, 0, 0, 0, 0), (13, 1, 1, 0, 0, 0, 0), (5, 2, 0, 0, 1, 10, 19),
    (8, 1, 0, 0, 0, 0, 0), (14, 0, 0, 0, 0, 0, 0), (9, 1, 0, 1, 0, 0, 0),
    (14, 0, 0, 1, 0, 0, 0), (17, 0, 0, 1, 0, 0, 0), (12, 0, 0, 1, 0, 0, 0),
    (16, 0, 0, 0, 0, 0, 0), (17, 0, 1, 1, 0, 0, 0), (15, 0, 0, 1, 0, 0, 0),
    (16, 1, 0, 1, 0, 0, 0), (9, 1, 0, 0, 0, 0, 0), (15, 0, 0, 0, 0, 0, 0),
    (13, 0, 0, 0, 0, 0, 0), (8, 2, 0, 0, 1, 13, 17), (13, 0, 1, 0, 0, 0, 0),
    (17, 1, 0, 1, 0, 0, 0), (19, 0, 1, 0, 0, 0, 0), (14, 0, 1, 0, 0, 0, 0),
    (19, 0, 1, 1, 0, 0, 0), (17, 0, 1, 0, 0, 0, 0), (13, 0, 0, 1, 0, 0, 0),
    (17, 0, 0, 0, 0, 0, 0), (16, 1, 0, 0, 0, 0, 0), (9, 2, 0, 0, 1, 14, 18),
    (15, 1, 0, 1, 0, 0, 0), (15, 1, 0, 0, 0, 0, 0), (18, 0, 1, 1, 0, 0, 0),
    (18, 0, 0, 1, 0, 0, 0), (19, 0, 0, 1, 0, 0, 0), (17, 1, 0, 0, 0, 0, 0),
    (19, 0, 0, 0, 0, 0, 0), (18, 0, 1, 0, 0, 0, 0), (18, 1, 0, 1, 0, 0, 0),
    (19, 2, 0, 0, 1, -1, -1), (19, 1, 0, 0, 0, 0, 0), (18, 0, 0, 0, 0, 0, 0),
    (19, 1, 0, 1, 0, 0, 0), (18, 1, 0, 0, 0, 0, 0),
], dtype=np.int64)

NUM_BASE_CELLS = 122
IS_PENTAGON = BASE_CELL_DATA[:, 4].astype(bool)

# direction digits (coordijk.h): CENTER=0 K=1 J=2 JK=3 I=4 IK=5 IJ=6
UNIT_VECS = np.array([
    [0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1],
    [1, 0, 0], [1, 0, 1], [1, 1, 0],
], dtype=np.int64)

# _rotate60ccw: K->IK, IK->I, I->IJ, IJ->J, J->JK, JK->K  (digit LUT)
ROT60CCW = np.array([0, 5, 3, 1, 6, 4, 2, 7], dtype=np.uint64)
# _rotate60cw:  K->JK, JK->J, J->IJ, IJ->I, I->IK, IK->K
ROT60CW = np.array([0, 3, 6, 2, 5, 1, 4, 7], dtype=np.uint64)

H3_INIT = np.uint64(0x00001FFFFFFFFFFF)  # all 15 digits = 7
H3_MODE_CELL = np.uint64(1) << np.uint64(59)


# --- scalar lattice helpers (used for table derivation + digit math) --------

def _ijk_normalize(v: np.ndarray) -> np.ndarray:
    """_ijkNormalize over a (..., 3) int array, vectorized."""
    i, j, k = v[..., 0].copy(), v[..., 1].copy(), v[..., 2].copy()
    m = i < 0
    j = j - np.where(m, i, 0); k = k - np.where(m, i, 0); i = np.where(m, 0, i)
    m = j < 0
    i = i - np.where(m, j, 0); k = k - np.where(m, j, 0); j = np.where(m, 0, j)
    m = k < 0
    i = i - np.where(m, k, 0); j = j - np.where(m, k, 0); k = np.where(m, 0, k)
    mn = np.minimum(np.minimum(i, j), k)
    return np.stack([i - mn, j - mn, k - mn], axis=-1)


def _up_ap7(v: np.ndarray, rotg: bool) -> np.ndarray:
    """_upAp7 (rotg=False) / _upAp7r (rotg=True) over (..., 3) ints."""
    i = v[..., 0] - v[..., 2]
    j = v[..., 1] - v[..., 2]
    if not rotg:
        ni = np.rint((3 * i - j) / 7.0).astype(np.int64)
        nj = np.rint((i + 2 * j) / 7.0).astype(np.int64)
    else:
        ni = np.rint((2 * i + j) / 7.0).astype(np.int64)
        nj = np.rint((3 * j - i) / 7.0).astype(np.int64)
    return _ijk_normalize(np.stack([ni, nj, np.zeros_like(ni)], axis=-1))


def _down_ap7(v: np.ndarray, rotg: bool) -> np.ndarray:
    """_downAp7 / _downAp7r over (..., 3) ints."""
    if not rotg:
        iv, jv, kv = (3, 0, 1), (1, 3, 0), (0, 1, 3)
    else:
        iv, jv, kv = (3, 1, 0), (0, 3, 1), (1, 0, 3)
    i, j, k = v[..., 0], v[..., 1], v[..., 2]
    out = np.stack([i * iv[0] + j * jv[0] + k * kv[0],
                    i * iv[1] + j * jv[1] + k * kv[1],
                    i * iv[2] + j * jv[2] + k * kv[2]], axis=-1)
    return _ijk_normalize(out)


def _unit_to_digit(v: np.ndarray) -> np.ndarray:
    """Normalized unit ijk (..., 3) → direction digit 0-6 (7 invalid)."""
    n = _ijk_normalize(v)
    out = np.full(n.shape[:-1], 7, dtype=np.int64)
    for d, u in enumerate(UNIT_VECS):
        out = np.where((n == u).all(axis=-1), d, out)
    return out


def _ijk_to_hex2d(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    i = v[..., 0] - v[..., 2]
    j = v[..., 1] - v[..., 2]
    return i - 0.5 * j, j * M_SIN60


def _pos_angle(a):
    tau = 2.0 * np.pi
    return np.mod(a, tau)


def _geo_azimuth(lat1, lng1, lat2, lng2):
    return np.arctan2(
        np.cos(lat2) * np.sin(lng2 - lng1),
        np.cos(lat1) * np.sin(lat2)
        - np.sin(lat1) * np.cos(lat2) * np.cos(lng2 - lng1))


def _geo_az_distance(lat1, lng1, az, dist):
    """Destination point at (azimuth, angular distance) from p1."""
    lat2 = np.arcsin(np.sin(lat1) * np.cos(dist)
                     + np.cos(lat1) * np.sin(dist) * np.cos(az))
    lng2 = lng1 + np.arctan2(
        np.sin(az) * np.sin(dist) * np.cos(lat1),
        np.cos(dist) - np.sin(lat1) * np.sin(lat2))
    return lat2, lng2


_FACE_XYZ = np.stack([
    np.cos(FACE_CENTER_GEO[:, 0]) * np.cos(FACE_CENTER_GEO[:, 1]),
    np.cos(FACE_CENTER_GEO[:, 0]) * np.sin(FACE_CENTER_GEO[:, 1]),
    np.sin(FACE_CENTER_GEO[:, 0]),
], axis=1)


def _face_ijk_res0_to_geo(face: int, ijk: np.ndarray) -> tuple[float, float]:
    """Center (lat, lng) of the res-0 lattice point ``ijk`` on ``face``
    (class II, res 0) — the scalar _faceIjkToGeo used for derivation."""
    x, y = _ijk_to_hex2d(np.asarray(ijk, dtype=np.int64))
    r = float(np.hypot(x, y))
    if r < EPSILON:
        return float(FACE_CENTER_GEO[face, 0]), float(FACE_CENTER_GEO[face, 1])
    theta = float(np.arctan2(y, x))
    r = np.arctan(r * RES0_U_GNOMONIC)
    az = _pos_angle(FACE_AXES_AZ[face, 0] - theta)
    lat, lng = _geo_az_distance(FACE_CENTER_GEO[face, 0],
                                FACE_CENTER_GEO[face, 1], az, r)
    return float(lat), float(lng)


def _geo_from_face_hex2d_res0(face: int, x: float, y: float
                              ) -> tuple[float, float]:
    """Inverse: res-0 hex2d coords on ``face`` → geo (lat, lng)."""
    r = float(np.hypot(x, y))
    if r < EPSILON:
        return float(FACE_CENTER_GEO[face, 0]), float(FACE_CENTER_GEO[face, 1])
    theta = float(np.arctan2(y, x))
    r = np.arctan(r * RES0_U_GNOMONIC)
    az = _pos_angle(FACE_AXES_AZ[face, 0] - theta)
    lat, lng = _geo_az_distance(FACE_CENTER_GEO[face, 0],
                                FACE_CENTER_GEO[face, 1], az, r)
    return float(lat), float(lng)


def _geo_to_face_hex2d_res0(lat: float, lng: float, face: int
                            ) -> tuple[float, float]:
    """Gnomonic hex2d coords of a geo point on a GIVEN face at res 0."""
    p = np.array([np.cos(lat) * np.cos(lng),
                  np.cos(lat) * np.sin(lng), np.sin(lat)])
    cosr = float(np.clip(_FACE_XYZ[face] @ p, -1.0, 1.0))
    r = float(np.arccos(cosr))
    if r < EPSILON:
        return 0.0, 0.0
    az = _geo_azimuth(FACE_CENTER_GEO[face, 0], FACE_CENTER_GEO[face, 1],
                      lat, lng)
    theta = _pos_angle(FACE_AXES_AZ[face, 0] - az)
    r = np.tan(r) / RES0_U_GNOMONIC
    return float(r * np.cos(theta)), float(r * np.sin(theta))


def _hex2d_to_ijk(x, y) -> np.ndarray:
    """_hex2dToCoordIJK vectorized: (..., ) floats → (..., 3) ints."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    a1, a2 = np.abs(x), np.abs(y)
    x2 = a2 / M_SIN60
    x1 = a1 + x2 / 2.0
    m1 = np.floor(x1).astype(np.int64)
    m2 = np.floor(x2).astype(np.int64)
    r1 = x1 - m1
    r2 = x2 - m2

    i = np.empty_like(m1)
    j = np.empty_like(m2)
    # r1 < 0.5 branch
    lo = r1 < 0.5
    lo1 = lo & (r1 < 1.0 / 3.0)
    j = np.where(lo1, np.where(r2 < (1.0 + r1) / 2.0, m2, m2 + 1), j)
    i = np.where(lo1, m1, i)
    lo2 = lo & ~lo1
    j = np.where(lo2, np.where(r2 < (1.0 - r1), m2, m2 + 1), j)
    i = np.where(lo2,
                 np.where(((1.0 - r1) <= r2) & (r2 < (2.0 * r1)), m1 + 1, m1),
                 i)
    # r1 >= 0.5 branch
    hi = ~lo
    hi1 = hi & (r1 < 2.0 / 3.0)
    j = np.where(hi1, np.where(r2 < (1.0 - r1), m2, m2 + 1), j)
    i = np.where(hi1,
                 np.where(((2.0 * r1 - 1.0) < r2) & (r2 < (1.0 - r1)),
                          m1, m1 + 1), i)
    hi2 = hi & ~hi1
    j = np.where(hi2, np.where(r2 < (r1 / 2.0), m2, m2 + 1), j)
    i = np.where(hi2, m1 + 1, i)

    # fold across axes for negative x / y
    xneg = x < 0.0
    jeven = (j % 2) == 0
    axisi = np.where(jeven, j // 2, (j + 1) // 2)
    diff = i - axisi
    i = np.where(xneg, i - np.where(jeven, 2 * diff, 2 * diff + 1), i)
    yneg = y < 0.0
    i = np.where(yneg, i - (2 * j + 1) // 2, i)
    j = np.where(yneg, -j, j)
    k = np.zeros_like(i)
    return _ijk_normalize(np.stack([i, j, k], axis=-1))


def _hex2d_to_ijk_t(x, y):
    """Tuple-form _hex2dToCoordIJK (encode hot path)."""
    v = _hex2d_to_ijk(x, y)
    return v[..., 0], v[..., 1], v[..., 2]


# --- derived base-cell lookup (replaces vendored faceIjkBaseCells) ----------

_DERIVED: dict = {}


def _derive_tables():
    """Derive faceIjkBaseCells geometrically: for every face and every
    coarse lattice point (i,j,k) ∈ 0..2³, the base cell whose home
    center coincides with that point, and the ccw 60° rotation count
    between the face frame and the cell's home frame."""
    if _DERIVED:
        return _DERIVED
    # home centers (unit xyz) of all 122 base cells
    home_xyz = np.empty((NUM_BASE_CELLS, 3))
    for b in range(NUM_BASE_CELLS):
        f = int(BASE_CELL_DATA[b, 0])
        lat, lng = _face_ijk_res0_to_geo(f, BASE_CELL_DATA[b, 1:4])
        home_xyz[b] = (np.cos(lat) * np.cos(lng),
                       np.cos(lat) * np.sin(lng), np.sin(lat))

    bc_tbl = np.full((20, 3, 3, 3), -1, dtype=np.int64)
    rot_tbl = np.zeros((20, 3, 3, 3), dtype=np.int64)

    def match_cell(f: int, pos: np.ndarray) -> int:
        """Base cell whose home center coincides with lattice position
        ``pos`` on face ``f`` (−1 if none: an overage position)."""
        lat, lng = _face_ijk_res0_to_geo(f, pos)
        p = np.array([np.cos(lat) * np.cos(lng),
                      np.cos(lat) * np.sin(lng), np.sin(lat)])
        d = ((home_xyz - p) ** 2).sum(axis=1)
        b = int(np.argmin(d))
        return b if d[b] <= 1e-12 else -1

    # pass 1: base cell per IN-TRIANGLE (face, coarse position) by
    # exact home-center coincidence; collect touching-face sets.
    # Positions outside the face triangle (planar lattice continuation
    # past an icosahedron edge — the 'overage' rows of the published
    # table) are resolved in pass 1b by folding across the edge.
    faces_of: dict[int, set[int]] = {}
    overage: list[tuple[int, int, int, int]] = []
    for f in range(20):
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    pos = _ijk_normalize(np.array([i, j, k]))
                    b = match_cell(f, pos)
                    if b < 0:
                        overage.append((f, i, j, k))
                        continue
                    bc_tbl[f, i, j, k] = b
                    faces_of.setdefault(b, set()).add(f)

    # --- integer 2D lattice coords for exact fold math -----------------
    # (a, b) with x = a/2, y = b·(√3/2); both integers, same parity
    def ab_of(pos: np.ndarray) -> tuple[int, int]:
        ip, jp = int(pos[0] - pos[2]), int(pos[1] - pos[2])
        return 2 * ip - jp, jp

    def pos_of_ab(a: int, b: int) -> np.ndarray:
        return _ijk_normalize(np.array([(a + b) // 2, b, 0]))

    def rot_ab(a: int, b: int, times: int) -> tuple[int, int]:
        for _ in range(times % 6):
            a, b = (a - 3 * b) // 2, (a + b) // 2
        return a, b

    # face-triangle corners in (a, b): +I, +J, +K vertices
    TRI = [(4, 0), (-2, 2), (-2, -2)]

    def tri_side(p: tuple[int, int]) -> int:
        """-1 if inside/on the face triangle, else the index of the
        violated edge (0: I→J, 1: J→K, 2: K→I)."""
        worst, edge = 0, -1
        for e in range(3):
            x1, y1 = TRI[e]
            x2, y2 = TRI[(e + 1) % 3]
            cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
            if cross < worst:
                worst, edge = cross, e
        return edge

    # vertex sphere points per face (for anchor matching across folds)
    vert_pos = [np.array(v) for v in
                ([2, 0, 0], [0, 2, 0], [0, 0, 2])]
    verts_xyz = np.empty((20, 3, 3))
    for f in range(20):
        for vi, vp in enumerate(vert_pos):
            lat, lng = _face_ijk_res0_to_geo(f, vp)
            verts_xyz[f, vi] = (np.cos(lat) * np.cos(lng),
                                np.cos(lat) * np.sin(lng), np.sin(lat))

    def fold(f: int, edge: int):
        """The lattice isometry folding face-f's planar continuation
        beyond ``edge`` onto the neighboring face's frame: returns
        (nf, k60ccw, translate) with T(p) = rot_ab(p, k) + t."""
        v1i, v2i = edge, (edge + 1) % 3
        a1 = ab_of(vert_pos[v1i])
        a2 = ab_of(vert_pos[v2i])
        # neighbor face: shares both vertex sphere points
        nf = nv1 = nv2 = -1
        for g in range(20):
            if g == f:
                continue
            d1 = ((verts_xyz[g] - verts_xyz[f, v1i]) ** 2).sum(axis=1)
            d2 = ((verts_xyz[g] - verts_xyz[f, v2i]) ** 2).sum(axis=1)
            if d1.min() < 1e-12 and d2.min() < 1e-12:
                nf, nv1, nv2 = g, int(np.argmin(d1)), int(np.argmin(d2))
                break
        if nf < 0:
            raise AssertionError(f"face {f} edge {edge}: no neighbor found")
        b1 = ab_of(vert_pos[nv1])
        b2 = ab_of(vert_pos[nv2])
        da = (a2[0] - a1[0], a2[1] - a1[1])
        db = (b2[0] - b1[0], b2[1] - b1[1])
        for k in range(6):
            if rot_ab(*da, k) == db:
                t = (b1[0] - rot_ab(*a1, k)[0], b1[1] - rot_ab(*a1, k)[1])
                return nf, k, t
        raise AssertionError(f"face {f} edge {edge}: no 60° rotation maps "
                             "the shared edge")

    def resolve_overage(f: int, pos: np.ndarray, depth: int = 0
                        ) -> tuple[int, np.ndarray, list]:
        """Fold an overage lattice position across edges until it lands
        in a face triangle; returns (face, position, folds-applied)."""
        if depth > 3:
            raise AssertionError("overage fold did not terminate")
        p = ab_of(pos)
        e = tri_side(p)
        if e < 0:
            return f, pos, []
        nf, k, t = fold(f, e)
        q = rot_ab(*p, k)
        q = (q[0] + t[0], q[1] + t[1])
        g, gpos, chain = resolve_overage(nf, pos_of_ab(*q), depth + 1)
        return g, gpos, [(f, e, nf, k)] + chain

    def hexagon_rot(f: int, pos: np.ndarray, b: int) -> int:
        """Frame rotation for an in-triangle hexagon position.

        A hexagon cell center strictly inside the triangle has home
        face f itself (rot 0); an edge-midpoint cell's other face is
        exactly one fold away, and the fold's rotation part IS the ccw
        digit relabeling _faceIjkToH3 applies (coordinates transform
        v_home = R_k · v_face, so face-frame direction labels shift by
        +k ccw steps)."""
        hf = int(BASE_CELL_DATA[b, 0])
        hpos = _ijk_normalize(BASE_CELL_DATA[b, 1:4])
        if hf == f:
            if not (pos == hpos).all():
                raise AssertionError(
                    f"face {f} pos {pos.tolist()} bc {b}: home-face "
                    "position mismatch")
            return 0
        for e in range(3):
            nf, k, t = fold(f, e)
            if nf != hf:
                continue
            q = rot_ab(*ab_of(pos), k)
            q = pos_of_ab(q[0] + t[0], q[1] + t[1])
            if (q == hpos).all():
                return k % 6
        raise AssertionError(
            f"face {f} pos {pos.tolist()} bc {b}: home face {hf} not "
            "reachable by one fold")

    def pentagon_rot(f: int, b: int) -> int:
        """ccw sector distance around the pentagon vertex from the
        home face to face f (each face step around a vertex is one
        ccw 60° lattice rotation — the polar-pentagon pattern of the
        published table). Best-effort: no in-sandbox golden vector
        reaches a pentagon-based cell."""
        hf = int(BASE_CELL_DATA[b, 0])
        if f == hf:
            return 0
        lat, lng = _face_ijk_res0_to_geo(hf, BASE_CELL_DATA[b, 1:4])
        ring = sorted(faces_of[b])
        # bearing of each touching face's center from the vertex;
        # bearings are clockwise-positive, so ccw order = decreasing
        bear = {ff: float(_pos_angle(_geo_azimuth(
            lat, lng, FACE_CENTER_GEO[ff, 0], FACE_CENTER_GEO[ff, 1])))
            for ff in ring}
        order = sorted(ring, key=lambda ff: -bear[ff])
        ih = order.index(hf)
        return (order.index(f) - ih) % len(order)

    def in_tri_rot(f: int, pos: np.ndarray, b: int) -> int:
        return pentagon_rot(f, b) if IS_PENTAGON[b] \
            else hexagon_rot(f, pos, b)

    # pass 2: rotations for in-triangle entries
    for f in range(20):
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    b = int(bc_tbl[f, i, j, k])
                    if b < 0:
                        continue
                    pos = _ijk_normalize(np.array([i, j, k]))
                    rot_tbl[f, i, j, k] = in_tri_rot(f, pos, b)

    # pass 1b/2b: overage entries — fold across the violated edge into
    # the neighbor frame until in-triangle; each fold contributes its
    # rotation part k to the digit relabeling.
    for f, i, j, k in overage:
        pos = _ijk_normalize(np.array([i, j, k]))
        g, gpos, chain = resolve_overage(f, pos)
        b = match_cell(g, gpos)
        if b < 0:
            raise AssertionError(
                f"face {f} ijk {i},{j},{k}: fold chain {chain} landed "
                f"outside every face triangle")
        bc_tbl[f, i, j, k] = b
        r = in_tri_rot(g, gpos, b)
        for (_ff, _ee, _nn, kk) in chain:
            r = (r + kk) % 6
        rot_tbl[f, i, j, k] = r

    # per-(face, edge) fold lookup arrays for vectorized overage
    # adjustment in cell_to_latlng
    fold_nf = np.empty((20, 3), dtype=np.int64)
    fold_k = np.empty((20, 3), dtype=np.int64)
    fold_t = np.empty((20, 3, 2), dtype=np.int64)
    for f in range(20):
        for e in range(3):
            nf, k, tt = fold(f, e)
            fold_nf[f, e] = nf
            fold_k[f, e] = k
            fold_t[f, e] = tt

    _DERIVED["bc"] = bc_tbl
    _DERIVED["rot"] = rot_tbl
    _DERIVED["home_xyz"] = home_xyz
    _DERIVED["faces_of"] = faces_of
    _DERIVED["fold_nf"] = fold_nf
    _DERIVED["fold_k"] = fold_k
    _DERIVED["fold_t"] = fold_t

    # --- pentagon rotation refinement -------------------------------
    # The sector model above is a first guess; the authoritative pin is
    # encode/decode consistency: cell_to_latlng never reads rot_tbl
    # (it walks home-face digits + published overage folds, and is
    # validated by golden centers, every hexagon cell, and the polar
    # pentagons), so for each pentagon table entry the correct rotation
    # is the unique value whose decode(encode(p)) stays within the cell
    # of p — every other value lands degrees away.
    REFINE_RES = 4
    # max center error accepted: ~half a res-4 hex edge (~0.002 rad);
    # wrong rotations land ~0.05-0.5 rad away
    GOOD = 0.004
    for b in np.nonzero(IS_PENTAGON)[0]:
        vlat, vlng = _face_ijk_res0_to_geo(int(BASE_CELL_DATA[b, 0]),
                                           BASE_CELL_DATA[b, 1:4])
        # ring of sample points around the pentagon center
        azs = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        for rad in (0.05, 0.12):
            slat, slng = _geo_az_distance(vlat, vlng, azs,
                                          np.full_like(azs, rad))
            slat_d, slng_d = np.degrees(slat), np.degrees(slng)
            # group samples by the (face, coarse pos) entry they hit
            entry = _encode_entry_of(slat_d, slng_d, REFINE_RES)
            for f in np.unique(entry[0]):
                m = entry[0] == f
                i0, j0, k0 = (int(entry[1][m][0]), int(entry[2][m][0]),
                              int(entry[3][m][0]))
                if bc_tbl[f, i0, j0, k0] != b:
                    continue
                best, best_err = None, np.inf
                for cand in range(6):
                    rot_tbl[f, i0, j0, k0] = cand
                    c = latlng_to_cell(slat_d[m], slng_d[m], REFINE_RES)
                    glat, glng = cell_to_latlng(c)
                    err = np.max(_angdist(slat_d[m], slng_d[m],
                                          glat, glng))
                    if err < best_err:
                        best, best_err = cand, err
                if best_err > GOOD:
                    raise AssertionError(
                        f"pentagon bc {b} face {f}: no rotation gives a "
                        f"consistent encode/decode (best err {best_err})")
                rot_tbl[f, i0, j0, k0] = best
    return _DERIVED


def _angdist(lat1_d, lng1_d, lat2_d, lng2_d):
    """Angular distance (radians) between degree points, vectorized."""
    la1, lo1 = np.radians(lat1_d), np.radians(lng1_d)
    la2, lo2 = np.radians(lat2_d), np.radians(lng2_d)
    d = (np.sin(la1) * np.sin(la2)
         + np.cos(la1) * np.cos(la2) * np.cos(lo2 - lo1))
    return np.arccos(np.clip(d, -1.0, 1.0))


def _encode_entry_of(lat_deg, lng_deg, res: int):
    """(face, coarse i, j, k) table entry each point's encode hits."""
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lng = np.radians(np.asarray(lng_deg, dtype=np.float64))
    n = lat.shape[0]
    p = np.stack([np.cos(lat) * np.cos(lng),
                  np.cos(lat) * np.sin(lng), np.sin(lat)], axis=1)
    dots = p @ _FACE_XYZ.T
    face = np.argmax(dots, axis=1)
    r = np.arccos(np.clip(dots[np.arange(n), face], -1.0, 1.0))
    az = _geo_azimuth(FACE_CENTER_GEO[face, 0], FACE_CENTER_GEO[face, 1],
                      lat, lng)
    theta = _pos_angle(FACE_AXES_AZ[face, 0] - az)
    if res % 2 == 1:
        theta = _pos_angle(theta - M_AP7_ROT_RADS)
    rr = np.tan(r) / RES0_U_GNOMONIC * (M_SQRT7 ** res)
    small = r < EPSILON
    x = np.where(small, 0.0, rr * np.cos(theta))
    y = np.where(small, 0.0, rr * np.sin(theta))
    cur = _hex2d_to_ijk(x, y)
    for rlev in range(res, 0, -1):
        cur = _up_ap7(cur, (rlev % 2) == 0)
    return face, cur[:, 0], cur[:, 1], cur[:, 2]


# --- H3 index bit helpers (vectorized over uint64 arrays) -------------------

def _set_digits_array(res: int, digits: np.ndarray) -> np.ndarray:
    """Pack (N, res) digit array into H3 digit bits (others stay 7)."""
    n = digits.shape[0]
    h = np.full(n, H3_INIT, dtype=np.uint64)
    for r in range(1, res + 1):
        off = np.uint64((MAX_H3_RES - r) * 3)
        h &= ~(np.uint64(7) << off)
        h |= digits[:, r - 1].astype(np.uint64) << off
    return h


def _get_digit(h: np.ndarray, r: int) -> np.ndarray:
    off = np.uint64((MAX_H3_RES - r) * 3)
    return (h >> off) & np.uint64(7)


def _set_digit(h: np.ndarray, r: int, d: np.ndarray) -> np.ndarray:
    off = np.uint64((MAX_H3_RES - r) * 3)
    return (h & ~(np.uint64(7) << off)) | (d.astype(np.uint64) << off)


def _rotate_digits(h: np.ndarray, res: int, lut: np.ndarray,
                   mask: np.ndarray) -> np.ndarray:
    """Apply a digit LUT to digits 1..res of h where mask (vectorized
    _h3Rotate60ccw/cw)."""
    out = h.copy()
    for r in range(1, res + 1):
        d = _get_digit(out, r)
        out = np.where(mask, _set_digit(out, r, lut[d.astype(np.int64)]), out)
    return out


def _leading_nonzero_digit(h: np.ndarray, res: int) -> np.ndarray:
    lead = np.zeros(len(h), dtype=np.uint64)
    found = np.zeros(len(h), dtype=bool)
    for r in range(1, res + 1):
        d = _get_digit(h, r)
        take = ~found & (d != 0)
        lead = np.where(take, d, lead)
        found |= take
    return lead


def _rotate_pent60ccw(h: np.ndarray, res: int, mask: np.ndarray) -> np.ndarray:
    """_h3RotatePent60ccw vectorized: rotate all digits ccw; if the
    leading nonzero digit becomes K, rotate ccw once more."""
    out = _rotate_digits(h, res, ROT60CCW, mask)
    again = mask & (_leading_nonzero_digit(out, res) == np.uint64(1))
    return _rotate_digits(out, res, ROT60CCW, again)


# --- tuple-form lattice ops (encode hot path: no (...,3) stacking) ----------

def _norm_t(i, j, k):
    m = i < 0
    if m.any():
        j = j - np.where(m, i, 0); k = k - np.where(m, i, 0)
        i = np.where(m, 0, i)
    m = j < 0
    if m.any():
        i = i - np.where(m, j, 0); k = k - np.where(m, j, 0)
        j = np.where(m, 0, j)
    m = k < 0
    if m.any():
        i = i - np.where(m, k, 0); j = j - np.where(m, k, 0)
        k = np.where(m, 0, k)
    mn = np.minimum(np.minimum(i, j), k)
    if mn.any():
        i = i - mn; j = j - mn; k = k - mn
    return i, j, k


def _up_ap7_t(i, j, k, rotg: bool):
    ii = i - k
    jj = j - k
    if not rotg:
        ni = np.rint((3 * ii - jj) / 7.0).astype(np.int64)
        nj = np.rint((ii + 2 * jj) / 7.0).astype(np.int64)
    else:
        ni = np.rint((2 * ii + jj) / 7.0).astype(np.int64)
        nj = np.rint((3 * jj - ii) / 7.0).astype(np.int64)
    return _norm_t(ni, nj, np.zeros_like(ni))


def _down_ap7_t(i, j, k, rotg: bool):
    if not rotg:
        (ai, aj, ak), (bi, bj, bk), (ci, cj, ck) = (3, 0, 1), (1, 3, 0), (0, 1, 3)
    else:
        (ai, aj, ak), (bi, bj, bk), (ci, cj, ck) = (3, 1, 0), (0, 3, 1), (1, 0, 3)
    return _norm_t(i * ai + j * bi + k * ci,
                   i * aj + j * bj + k * cj,
                   i * ak + j * bk + k * ck)


# digit = 4i + 2j + k over normalized unit vectors (CENTER..IJ map);
# UNIT_VECS is exactly the 3-bit encoding (K=1, J=2, JK=3, I=4, ...)
def _digit_t(i, j, k):
    i, j, k = _norm_t(i, j, k)
    d = 4 * i + 2 * j + k
    bad = (i > 1) | (j > 1) | (k > 1)
    if bad.any():
        d = np.where(bad, 7, d)
    return d


# --- public API --------------------------------------------------------------

def _project_points(lat_deg, lng_deg):
    """Shared spherical stage of latLngToCell: closest face, gnomonic
    radius (res-0 units, pre-scale) and base azimuthal angle."""
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lng = np.radians(np.asarray(lng_deg, dtype=np.float64))
    n = lat.shape[0]
    # _geoToClosestFace
    p = np.stack([np.cos(lat) * np.cos(lng),
                  np.cos(lat) * np.sin(lng), np.sin(lat)], axis=1)
    dots = p @ _FACE_XYZ.T
    face = np.argmax(dots, axis=1)
    r = np.arccos(np.clip(dots[np.arange(n), face], -1.0, 1.0))
    az = _geo_azimuth(FACE_CENTER_GEO[face, 0], FACE_CENTER_GEO[face, 1],
                      lat, lng)
    theta0 = _pos_angle(FACE_AXES_AZ[face, 0] - az)
    rr0 = np.tan(r) / RES0_U_GNOMONIC
    small = r < EPSILON
    return face, rr0, theta0, small


def _cell_from_projection(face, rr0, theta0, small, res: int,
                          t) -> np.ndarray:
    """Per-resolution tail of latLngToCell over a shared projection."""
    n = len(face)
    theta = theta0
    if res % 2 == 1:  # class III
        theta = _pos_angle(theta0 - M_AP7_ROT_RADS)
    rr = rr0 * (M_SQRT7 ** res)
    x = np.where(small, 0.0, rr * np.cos(theta))
    y = np.where(small, 0.0, rr * np.sin(theta))
    ci, cj, ck = _hex2d_to_ijk_t(x, y)

    # _faceIjkToH3: walk up to res 0 computing digits fine→coarse
    digits = np.zeros((n, max(res, 1)), dtype=np.int64)
    for rlev in range(res, 0, -1):
        rotg = (rlev % 2) == 0  # class II level → _upAp7r
        ui, uj, uk = _up_ap7_t(ci, cj, ck, rotg)
        di, dj, dk = _down_ap7_t(ui, uj, uk, rotg)
        digits[:, rlev - 1] = _digit_t(ci - di, cj - dj, ck - dk)
        ci, cj, ck = ui, uj, uk

    bc = t["bc"][face, ci, cj, ck]
    rots = t["rot"][face, ci, cj, ck]
    if (bc < 0).any():
        raise AssertionError("res-0 coordinates escaped the coarse grid")

    h = _set_digits_array(res, digits) if res > 0 else \
        np.full(n, H3_INIT, dtype=np.uint64)
    h |= H3_MODE_CELL | (np.uint64(res) << np.uint64(52)) \
        | (bc.astype(np.uint64) << np.uint64(45))

    pent = IS_PENTAGON[bc]
    if pent.any() and res > 0:
        lead = _leading_nonzero_digit(h, res)
        kfix = pent & (lead == np.uint64(1))
        if kfix.any():
            cw0 = BASE_CELL_DATA[bc, 5]
            cw1 = BASE_CELL_DATA[bc, 6]
            is_cw = kfix & ((face == cw0) | (face == cw1))
            h = _rotate_digits(h, res, ROT60CW, is_cw)
            h = _rotate_digits(h, res, ROT60CCW, kfix & ~is_cw)
    for _ in range(5):  # numRots ≤ 5
        m = rots > 0
        if not m.any():
            break
        if res > 0:
            hp = _rotate_pent60ccw(h, res, m & pent)
            hh = _rotate_digits(h, res, ROT60CCW, m & ~pent)
            h = np.where(m & pent, hp, np.where(m & ~pent, hh, h))
        rots = rots - m.astype(np.int64)
    return h


def latlng_to_cell(lat_deg, lng_deg, res: int) -> np.ndarray:
    """Uber-H3 ``latLngToCell`` for arrays of degrees → uint64 ids.

    Vectorized translation of the published algorithm: closest-face
    gnomonic projection + class-adjusted hex2d → IJK at ``res``
    (_geoToFaceIjk), then base-cell lookup and digit construction with
    pentagon rotations (_faceIjkToH3)."""
    if not 0 <= res <= MAX_H3_RES:
        raise ValueError(f"resolution {res} out of range")
    t = _derive_tables()
    face, rr0, theta0, small = _project_points(lat_deg, lng_deg)
    return _cell_from_projection(face, rr0, theta0, small, res, t)


def latlng_to_cells_multi(lat_deg, lng_deg,
                          resolutions) -> dict[int, np.ndarray]:
    """latLngToCell at SEVERAL resolutions sharing one spherical
    projection (face selection, azimuth, gnomonic radius) — the
    multi-res encode stage (h3_r5..r9) pays the trig once instead of
    once per resolution. Bit-identical to per-res latlng_to_cell."""
    t = _derive_tables()
    face, rr0, theta0, small = _project_points(lat_deg, lng_deg)
    return {int(r): _cell_from_projection(face, rr0, theta0, small,
                                          int(r), t)
            for r in resolutions}


_TRI_AB = np.array([[4, 0], [-2, 2], [-2, -2]], dtype=np.int64)


def _rot_ab_vec(a: np.ndarray, b: np.ndarray, k: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Rotate integer (a, b) lattice coords ccw by k·60° (vectorized,
    exact: one 60° step is a' = (a−3b)/2, b' = (a+b)/2)."""
    a, b = a.copy(), b.copy()
    kk = k.copy()
    for _ in range(5):
        m = kk > 0
        if not m.any():
            break
        na = (a - 3 * b) // 2
        nb = (a + b) // 2
        a = np.where(m, na, a)
        b = np.where(m, nb, b)
        kk = kk - m.astype(np.int64)
    return a, b


def cell_to_latlng(h) -> tuple[np.ndarray, np.ndarray]:
    """Cell center (lat°, lng°) — the _h3ToFaceIjk reconstruction:
    digit walk on the home face, class-II substrate for class-III
    resolutions, and fold-based overage adjustment onto the true
    projection face (planar lattice continuation past an icosahedron
    edge is NOT the sphere position — the same fold isometries that
    resolve the coarse table resolve it here, at res scale)."""
    h = np.asarray(h, dtype=np.uint64)
    n = len(h)
    if n == 0:
        return np.empty(0), np.empty(0)
    all_res = ((h >> np.uint64(52)) & np.uint64(0xF)).astype(np.int64)
    if (all_res != all_res[0]).any():
        # mixed resolutions: decode per uniform-res group (the digit
        # walk depth and class-II substrate are res-wide below)
        lat = np.empty(n)
        lng = np.empty(n)
        for r in np.unique(all_res):
            m = all_res == r
            lat[m], lng[m] = cell_to_latlng(h[m])
        return lat, lng
    res = int(all_res[0])
    bc = ((h >> np.uint64(45)) & np.uint64(0x7F)).astype(np.int64)
    pent = IS_PENTAGON[bc]
    if pent.any() and res > 0:
        lead = _leading_nonzero_digit(h, res)
        h = _rotate_digits(h, res, ROT60CW, pent & (lead == np.uint64(5)))
    ijk = _ijk_normalize(BASE_CELL_DATA[bc, 1:4])
    for r in range(1, res + 1):
        rotg = (r % 2) == 0
        ijk = _down_ap7(ijk, rotg)
        d = _get_digit(h, r).astype(np.int64)
        ijk = _ijk_normalize(ijk + UNIT_VECS[d])
    face = BASE_CELL_DATA[bc, 0].copy()

    # class-II substrate (folds are lattice isometries only in class II)
    rr = res
    if res % 2 == 1:
        ijk = _down_ap7(ijk, True)  # _downAp7r
        rr = res + 1
    scale = 7 ** (rr // 2)

    # overage adjustment (_adjustOverageClassII): fold past-the-edge
    # positions into the neighboring face frame until in-triangle.
    # Edge selection follows the published quadrant rule (k>0 & j>0 →
    # JK; k>0 → KI; else IJ), and a pentagon cell with leading digit 4
    # gets the deleted-k-subsequence rotation about the +I vertex
    # BEFORE its first KI fold.
    t = _derive_tables()
    pent_lead4 = np.zeros(n, dtype=bool)
    if res > 0:
        pent_lead4 = pent & (_leading_nonzero_digit(h, res) == np.uint64(4))
    maxdim = 2 * scale
    ijk_c = ijk
    for it in range(8):
        # normalized cube coords from (face-local) ijk
        i0, j0, k0 = ijk_c[:, 0], ijk_c[:, 1], ijk_c[:, 2]
        out = (i0 + j0 + k0) > maxdim
        if not out.any():
            break
        edge = np.where(k0 > 0, np.where(j0 > 0, 1, 2), 0)
        ip, jp = i0 - k0, j0 - k0
        a, b = 2 * ip - jp, jp
        # pentagon leading-4: rotate 60° cw about the +I vertex before
        # the first KI-quadrant fold
        padj = out & pent_lead4 & (edge == 2) & (it == 0)
        if padj.any():
            oa = 2 * maxdim  # ab coords of (maxDim, 0, 0)
            sa, sb = a - oa, b
            ra = (sa + 3 * sb) // 2
            rb = (sb - sa) // 2
            a = np.where(padj, ra + oa, a)
            b = np.where(padj, rb, b)
        k = t["fold_k"][face, edge]
        ta = t["fold_t"][face, edge, 0] * scale
        tb = t["fold_t"][face, edge, 1] * scale
        ra, rb = _rot_ab_vec(a, b, np.where(out, k, 0))
        a = np.where(out, ra + ta, a)
        b = np.where(out, rb + tb, b)
        face = np.where(out, t["fold_nf"][face, edge], face)
        # back to cube coords for the next overage test
        jp2 = b
        ip2 = (a + b) // 2
        ijk_c = _ijk_normalize(np.stack(
            [ip2, jp2, np.zeros_like(ip2)], axis=-1))
    ip, jp = ijk_c[:, 0] - ijk_c[:, 2], ijk_c[:, 1] - ijk_c[:, 2]
    a, b = 2 * ip - jp, jp

    x = a / 2.0
    y = b * M_SIN60
    dist = np.hypot(x, y)
    theta = np.arctan2(y, x)
    dist = dist / (M_SQRT7 ** rr)
    dist = np.arctan(dist * RES0_U_GNOMONIC)
    # rr is class II — no aperture-7 rotation adjustment
    az = _pos_angle(FACE_AXES_AZ[face, 0] - theta)
    lat, lng = _geo_az_distance(FACE_CENTER_GEO[face, 0],
                                FACE_CENTER_GEO[face, 1], az, dist)
    ctr = dist < EPSILON
    lat = np.where(ctr, FACE_CENTER_GEO[face, 0], lat)
    lng = np.where(ctr, FACE_CENTER_GEO[face, 1], lng)
    return np.degrees(lat), np.degrees(np.arctan2(np.sin(lng), np.cos(lng)))


def h3_to_string(h) -> list[str]:
    return [format(int(v), "x") for v in np.asarray(h, dtype=np.uint64)]


def string_to_h3(s: "str | list[str]") -> np.ndarray:
    if isinstance(s, str):
        s = [s]
    return np.array([int(v, 16) for v in s], dtype=np.uint64)


def get_resolution(h) -> np.ndarray:
    h = np.asarray(h, dtype=np.uint64)
    return ((h >> np.uint64(52)) & np.uint64(0xF)).astype(np.int64)


def cell_to_parent(h, parent_res: int) -> np.ndarray:
    """cellToParent: truncate digits below ``parent_res`` (set to 7)
    and rewrite the resolution field. Vectorized."""
    h = np.asarray(h, dtype=np.uint64)
    res = get_resolution(h)
    if (res < parent_res).any():
        raise ValueError("parent_res coarser than cell res required")
    out = h & ~(np.uint64(0xF) << np.uint64(52))
    out |= np.uint64(parent_res) << np.uint64(52)
    for r in range(parent_res + 1, MAX_H3_RES + 1):
        out |= np.uint64(7) << np.uint64((MAX_H3_RES - r) * 3)
    return out


def cell_to_children(h: int, child_res: int) -> np.ndarray:
    """cellToChildren for ONE cell: enumerate digit expansions
    (pentagon cells skip the deleted K subdigit at every level)."""
    h = np.uint64(h)
    res = int(get_resolution(np.array([h]))[0])
    if child_res < res:
        raise ValueError("child_res finer than cell res required")
    bc = int((h >> np.uint64(45)) & np.uint64(0x7F))
    out = np.array([h & ~(np.uint64(0xF) << np.uint64(52))
                    | (np.uint64(child_res) << np.uint64(52))],
                   dtype=np.uint64)
    for r in range(res + 1, child_res + 1):
        off = np.uint64((MAX_H3_RES - r) * 3)
        base = out & ~(np.uint64(7) << off)
        new = [base | (np.uint64(d) << off) for d in range(7)]
        out = np.concatenate(new)
        if IS_PENTAGON[bc]:
            # children whose leading nonzero digit is K do not exist
            lead = _leading_nonzero_digit(out, child_res)
            out = out[lead != np.uint64(1)]
    return np.sort(out)
