"""Unit tests: S2, geohash and other cell kernels (no Ray needed)."""

import numpy as np

from hand_index_ray.kernels import s2


def _ang(l1, a1, l2, a2):
    l1, a1, l2, a2 = map(np.deg2rad, (l1, a1, l2, a2))
    return np.arccos(np.clip(np.sin(a1) * np.sin(a2) + np.cos(a1) * np.cos(a2) * np.cos(l1 - l2), -1, 1))


def test_s2_known_anchor():
    # canonical S2 leaf id of (lat=0, lng=0): center of face 0
    cid = s2.lonlat_to_cell(np.array([0.0]), np.array([0.0]), 30)
    assert int(cid[0]) == 0x1000000000000001
    # level-0 face cells
    for lng, lat, face in [(0, 0, 0), (90, 0, 1), (0, 90, 2), (180, 0, 3), (-90, 0, 4), (0, -90, 5)]:
        cid = s2.lonlat_to_cell(np.array([float(lng)]), np.array([float(lat)]), 0)
        assert int(cid[0]) >> 61 == face


def test_s2_roundtrip_and_hierarchy():
    rng = np.random.default_rng(42)
    lon = rng.uniform(-180, 180, 2000)
    lat = rng.uniform(-89, 89, 2000)
    prev = None
    for lvl in (2, 6, 10, 16, 30):
        cid = s2.lonlat_to_cell(lon, lat, lvl)
        assert (s2.cell_level(cid) == lvl).all()
        clon, clat = s2.cell_to_lonlat(cid)
        assert (s2.lonlat_to_cell(clon, clat, lvl) == cid).all()
        if prev is not None:
            plvl, pcid = prev
            # prefix/nesting: parent of finer cell == coarser assignment of same point
            assert (s2.parent(cid, plvl) == pcid).all()
            lo, hi = s2.cell_range(pcid)
            assert ((cid >= lo) & (cid <= hi)).all()
        prev = (lvl, cid)


def test_s2_neighbors_adjacent_even_cross_face():
    pts = (np.array([-100.0, 44.999, 179.9]), np.array([40.0, 0.0, -85.0]))
    for lvl in (4, 9, 14):
        cid = s2.lonlat_to_cell(*pts, lvl)
        nb = s2.neighbors(cid, lvl)
        clon, clat = s2.cell_to_lonlat(cid)
        for r in range(len(cid)):
            nlon, nlat = s2.cell_to_lonlat(nb[r])
            d = np.rad2deg(_ang(np.full(8, clon[r]), np.full(8, clat[r]), nlon, nlat))
            assert (s2.cell_level(nb[r]) == lvl).all()
            assert (d < 3 * 90.0 / (1 << lvl)).all()
            assert len(np.unique(nb[r])) >= 7


def test_s2_cover_bbox_join_key_guarantee():
    # overlapping bboxes must share >=1 covering cell (zonal-join key property)
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = rng.uniform(-120, -70)
        y = rng.uniform(25, 45)
        a = (x, y, x + rng.uniform(0.01, 2), y + rng.uniform(0.01, 2))
        # b overlaps a by construction
        b = (a[2] - 0.005, a[3] - 0.005, a[2] + rng.uniform(0.01, 1), a[3] + rng.uniform(0.01, 1))
        ca = s2.cover_bbox(*a, level=10)
        cb = s2.cover_bbox(*b, level=10)
        assert len(np.intersect1d(ca, cb)) > 0


# --------------------------------------------------------------- geohash

def test_geohash_published_vectors():
    from hand_index_ray.kernels.geohash import encode_udeg

    _, s = encode_udeg(np.array([57_649_110]), np.array([10_407_440]), 11)
    assert s[0] == "u4pruydqqvj"
    _, s = encode_udeg(np.array([42_605_000]), np.array([-5_603_000]), 5)
    assert s[0] == "ezs42"
    _, s = encode_udeg(np.array([0]), np.array([0]), 6)
    assert s[0] == "s00000"


def test_geohash_matches_classic_bisection():
    from hand_index_ray.kernels.geohash import encode_udeg

    def classic(lat, lon, precision):
        B32 = "0123456789bcdefghjkmnpqrstuvwxyz"
        latr, lonr = [-90.0, 90.0], [-180.0, 180.0]
        bits, even = [], True
        while len(bits) < precision * 5:
            r, v = (lonr, lon) if even else (latr, lat)
            mid = (r[0] + r[1]) / 2
            if v >= mid:
                bits.append(1); r[0] = mid
            else:
                bits.append(0); r[1] = mid
            even = not even
        return "".join(B32[int("".join(map(str, bits[c * 5:(c + 1) * 5])),
                               2)] for c in range(precision))

    rng = np.random.default_rng(0)
    lat = rng.integers(-89_999_999, 90_000_000, 60)
    lon = rng.integers(-179_999_999, 180_000_000, 60)
    for p in (1, 5, 6, 7, 12):  # both parities of total bits
        _, s = encode_udeg(lat, lon, p)
        for i in range(len(lat)):
            assert s[i] == classic(lat[i] / 1e6, lon[i] / 1e6, p)


def test_geohash_prefix_is_containment():
    from hand_index_ray.kernels.geohash import encode_udeg

    # precision p codes of points sharing a precision-(p-1) cell share
    # the (p-1)-char prefix; and code == prefix-code * 32 + last char
    rng = np.random.default_rng(1)
    lat = rng.integers(-89_999_999, 90_000_000, 100)
    lon = rng.integers(-179_999_999, 180_000_000, 100)
    c6, s6 = encode_udeg(lat, lon, 6)
    c5, s5 = encode_udeg(lat, lon, 5)
    assert all(a.startswith(b) for a, b in zip(s6, s5))
    assert ((c6 >> np.uint64(5)) == c5).all()
