"""ZIP/TAR archive sources (sources/archive.py)."""

import io
import tarfile
import zipfile

import numpy as np
import pytest

from hand_index_ray.sources import archive


def _make_zip(path, n=10, prefix="img"):
    with zipfile.ZipFile(path, "w") as z:
        z.writestr(f"{prefix}/", "")  # directory entry (skipped)
        for i in range(n):
            z.writestr(f"{prefix}/{i:03d}.bin", bytes([i]) * (i + 1))


def _make_tar(path, n=6):
    with tarfile.open(path, "w:gz") as t:
        for i in range(n):
            data = bytes([100 + i]) * (i + 2)
            info = tarfile.TarInfo(f"doc/{i}.dat")
            info.size = len(data)
            t.addfile(info, io.BytesIO(data))


def test_zip_members(tmp_path, ray_session):
    p = str(tmp_path / "a.zip")
    _make_zip(p)
    df = archive.read_archive(p).to_pandas().sort_values("name")
    assert len(df) == 10
    assert list(df["size"]) == list(range(1, 11))
    assert bytes(df.iloc[3]["bytes"]) == bytes([3]) * 4


def test_zip_sharding(tmp_path, ray_session):
    p = str(tmp_path / "b.zip")
    _make_zip(p, n=25)
    df = archive.read_archive(p, shard_members=7).to_pandas()
    assert len(df) == 25 and df["name"].nunique() == 25


def test_tar_members(tmp_path, ray_session):
    p = str(tmp_path / "c.tar.gz")
    _make_tar(p)
    df = archive.read_archive(p, shard_members=4).to_pandas() \
        .sort_values("name")
    assert len(df) == 6
    assert bytes(df.iloc[0]["bytes"]) == bytes([100]) * 2


def test_mixed_glob(tmp_path, ray_session):
    _make_zip(str(tmp_path / "x1.zip"), n=3)
    _make_tar(str(tmp_path / "x2.tar.gz"), n=2)
    df = archive.read_archive([str(tmp_path / "x1.zip"),
                               str(tmp_path / "x2.tar.gz")]).to_pandas()
    assert len(df) == 5 and df.src_path.nunique() == 2
    with pytest.raises(FileNotFoundError):
        archive.read_archive(str(tmp_path / "zz*.zip"))


def test_webdataset_pairs(tmp_path, ray_session):
    import tarfile as tf

    p = str(tmp_path / "wds.tar")
    with tf.open(p, "w") as t:
        for i in range(8):
            for ext, data in (("png", bytes([i]) * 3),
                              ("txt", f"caption {i}".encode())):
                info = tf.TarInfo(f"{i:05d}.{ext}")
                info.size = len(data)
                t.addfile(info, io.BytesIO(data))
    df = archive.read_webdataset(p, shard_members=4).to_pandas() \
        .sort_values("key")
    assert len(df) == 8
    assert set(df.columns) == {"key", "png", "txt"}
    assert bytes(df.iloc[2]["txt"]) == b"caption 2"
    assert bytes(df.iloc[5]["png"]) == bytes([5]) * 3


def test_zip_rewritten_in_place(tmp_path, ray_session):
    # a second read in the same session sees the new archive, not a
    # handle or member list left from the first
    p = str(tmp_path / "s.zip")
    _make_zip(p, n=4)
    assert len(archive.read_archive(p).to_pandas()) == 4
    _make_zip(p, n=6, prefix="new")
    df = archive.read_archive(p).to_pandas().sort_values("name")
    assert list(df["name"]) == [f"new/{i:03d}.bin" for i in range(6)]
    assert list(df["size"]) == list(range(1, 7))
