"""ESRI Shapefile trio (.shp/.shx/.dbf): spec writer + sharded reader."""

import struct

import numpy as np
import pytest

from hand_index_ray.kernels import wkb
from hand_index_ray.sources import shapefile as shp


def _sq(x0, y0, s):
    return np.array([[x0, y0], [x0 + s, y0], [x0 + s, y0 + s],
                     [x0, y0 + s], [x0, y0]], float)


def _fixture(base, n=8):
    geoms = []
    for i in range(1, n + 1):
        if i % 5 == 0:
            geoms.append(None)  # Null Shape record
        elif i % 3 == 0:
            # polygon with a hole
            outer = _sq(i, i, 4)
            hole = _sq(i + 1, i + 1, 1)
            geoms.append([[outer, hole]])
        else:
            geoms.append([[_sq(i, 2 * i, 1 + i % 3)]])
    shp.write_shapefile(base, geoms,
                        fields={"HT": [i * 10 for i in range(1, n + 1)],
                                "NAME": [f"c{i}" for i in range(1, n + 1)],
                                "W": [i * 0.25 for i in range(1, n + 1)]})
    return geoms


def test_headers(tmp_path):
    base = str(tmp_path / "a")
    _fixture(base)
    for ext in (".shp", ".shx"):
        head = open(base + ext, "rb").read(36)
        assert struct.unpack_from(">i", head, 0)[0] == 9994
        assert struct.unpack_from("<ii", head, 28) == (1000, 5)
    idx = shp._read_shx(base + ".shx")
    assert len(idx) == 8 and idx[0, 0] == 100


def test_roundtrip_attrs_and_nulls(tmp_path, ray_session):
    base = str(tmp_path / "b")
    _fixture(base)
    df = shp.read_shapefile(base + ".shp").to_pandas().sort_values("fid")
    assert list(df.fid) == [1, 2, 3, 4, 6, 7, 8]  # fid 5 = Null Shape
    assert list(df.HT) == [f * 10 for f in df.fid]
    assert df.W.dtype == np.float64 and list(df.NAME) == \
        [f"c{f}" for f in df.fid]
    df2 = shp.read_shapefile(base, drop_null_geom=False).to_pandas()
    assert len(df2) == 8 and df2.wkb.isna().sum() == 1


def test_geometry_winding_and_holes(tmp_path, ray_session):
    base = str(tmp_path / "c")
    _fixture(base)
    df = shp.read_shapefile(base).to_pandas().sort_values("fid")
    r = wkb.decode(list(df.wkb))
    # fid 3: one part, two rings (hole survived part grouping)
    g3 = r.geom_slice(list(df.fid).index(3))
    assert g3.num_parts() == 1
    assert len(g3.part_ring_off) - 1 == 1
    assert len(g3.ring_coord_off) - 1 == 2
    # plain squares decode with exact vertices
    g1 = r.geom_slice(0)
    assert len(g1.coords) == 5
    assert g1.coords[:, 0].min() == 1.0 and g1.coords[:, 0].max() == 3.0


def test_sharding_multi_file(tmp_path, ray_session):
    for b in range(3):
        _fixture(str(tmp_path / f"t{b}"), n=7)
    ds = shp.read_shapefile(str(tmp_path / "t*.shp"), shard_records=3)
    df = ds.to_pandas()
    assert len(df) == 3 * 6  # one Null Shape dropped per file
    assert df.src_path.nunique() == 3


def test_point_and_errors(tmp_path, ray_session):
    # point shapes decode to WKB points
    body = struct.pack("<i2d", shp.SHAPE_POINT, 3.5, -2.0)
    w = shp._shape_to_wkb(body)
    assert struct.unpack_from("<BI", w)[1] == 1
    assert struct.unpack_from("<2d", w, 5) == (3.5, -2.0)
    with pytest.raises(ValueError):
        shp._shape_to_wkb(struct.pack("<i", 13))  # unsupported type
    with pytest.raises(FileNotFoundError):
        shp.read_shapefile(str(tmp_path / "zzz*.shp"))


def test_dbf_only_schema(tmp_path):
    base = str(tmp_path / "d")
    _fixture(base, n=4)
    buf = memoryview(open(base + ".dbf", "rb").read())
    n, hdr, rec, fields = shp._dbf_schema(buf)
    assert n == 4
    assert [f[0] for f in fields] == ["HT", "NAME", "W"]
    attrs, _ = shp._decode_dbf_rows(buf, 1, 2)
    assert attrs["HT"] == [20, 30]
    assert attrs["W"] == [0.5, 0.75]


def test_rewritten_in_place(tmp_path, ray_session):
    # a second read in the same session sees the new trio
    base = str(tmp_path / "s")
    _fixture(base, n=4)
    assert len(shp.read_shapefile(base).to_pandas()) == 4
    sq = _sq(0, 0, 2)
    shp.write_shapefile(base, [[[sq + i]] for i in range(6)],
                        fields={"HT": [7 * i for i in range(6)]})
    df = shp.read_shapefile(base).to_pandas().sort_values("fid")
    assert list(df["fid"]) == list(range(1, 7))
    assert list(df["HT"]) == [7 * i for i in range(6)]
    assert "NAME" not in df.columns
