"""Archive sources: ZIP (stdlib zipfile) and TAR (stdlib tarfile) —
real image/document corpora ship as archives of small files far more
often than as loose trees; HTTP-range-readable ZIPs are a standard
dataset distribution. Shard law matches the other container sources
(sources/gpkg.py, las.py): the driver reads only the CENTRAL DIRECTORY
(zip) or one sequential header walk (tar) to learn the member list,
then emits member-index ranges; a task map reads them and extracts
exactly each shard's members — zip members are random-access via the
directory (parsed once per worker process and archive version), so
shards never touch each other's bytes.

Output: one row per member — ``name | bytes | size | src_path`` —
feeding straight into the sniff-based decode stages (q168 pattern).
"""

from __future__ import annotations

import os
import tarfile
import zipfile

import pyarrow as pa

import ray.data

from . import expand_paths


def _member_table(names, blobs, srcs) -> pa.Table:
    return pa.table({"name": pa.array(names, pa.string()),
                     "bytes": pa.array(blobs, pa.binary()),
                     "size": pa.array([len(b) for b in blobs], pa.int64()),
                     "src_path": pa.array(srcs, pa.string())})


_WORKER_ZIPS: dict = {}


def _open_zip(path: str) -> tuple:
    """(ZipFile, member names) of ``path``, cached per worker process:
    parsing the central directory of a 100k-member archive takes
    ~0.4 s, several times what a batch of 4 shards spends reading.
    The key carries mtime and size, so a rewritten archive is opened
    afresh."""
    st = os.stat(path)
    key = (path, st.st_mtime_ns, st.st_size)
    ent = _WORKER_ZIPS.get(key)
    if ent is None:
        while len(_WORKER_ZIPS) >= 4:  # bound open handles per worker
            _WORKER_ZIPS.pop(next(iter(_WORKER_ZIPS)))[0].close()
        z = zipfile.ZipFile(path, "r")
        ent = _WORKER_ZIPS[key] = (z, [i.filename for i in z.infolist()
                                       if not i.is_dir()])
    return ent


def _read_zip_shards(batch: pa.Table) -> pa.Table:
    """Zip members are random-access through the central directory."""
    names, blobs, srcs = [], [], []
    for s in batch.to_pylist():
        z, members = _open_zip(s["path"])
        for m in members[s["lo"]:s["hi"] + 1]:
            names.append(m)
            blobs.append(z.read(m))
            srcs.append(s["path"])
    return _member_table(names, blobs, srcs)


def _read_tar_shards(batch: pa.Table) -> pa.Table:
    """Tar is sequential; each shard walks headers (cheap: 512-byte
    reads) and extracts only its member range."""
    names, blobs, srcs = [], [], []
    for s in batch.to_pylist():
        path, lo, hi = s["path"], s["lo"], s["hi"]
        with tarfile.open(path, "r:*") as t:
            idx = -1
            for m in t:
                if not m.isfile():
                    continue
                idx += 1
                if idx < lo:
                    continue
                if idx > hi:
                    break
                names.append(m.name)
                blobs.append(t.extractfile(m).read())
                srcs.append(path)
    return _member_table(names, blobs, srcs)


def read_archive(paths, *, shard_members: int = 1024) -> ray.data.Dataset:
    """ZIP/TAR file(s)/glob(s) → Dataset of (name, bytes, size,
    src_path). Format chosen per file by suffix/magic."""
    zip_shards, tar_shards = [], []
    for path in expand_paths(paths, "archives"):
        if zipfile.is_zipfile(path):
            with zipfile.ZipFile(path) as z:
                n = sum(1 for i in z.infolist() if not i.is_dir())
            target = zip_shards
        else:
            with tarfile.open(path, "r:*") as t:
                n = sum(1 for m in t if m.isfile())
            target = tar_shards
        for s in range(0, n, shard_members):
            target.append({"path": path, "lo": s,
                           "hi": min(s + shard_members - 1, n - 1)})
    parts = []
    if zip_shards:
        parts.append(ray.data.from_items(zip_shards).map_batches(
            _read_zip_shards, batch_format="pyarrow", batch_size=4))
    if tar_shards:
        parts.append(ray.data.from_items(tar_shards).map_batches(
            _read_tar_shards, batch_format="pyarrow", batch_size=4))
    if not parts:
        raise FileNotFoundError(f"no members in {paths!r}")
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    return ds


def read_webdataset(paths, *,
                    shard_members: int = 1024) -> ray.data.Dataset:
    """WebDataset-style paired-member reader: members sharing a stem
    ("000123.png" + "000123.txt" + ...) group into ONE row
    ``key | <ext>: bytes ...`` — the tar-shard convention large
    image+caption corpora actually ship in. Stems must not straddle
    shard boundaries for exactness; shards are member ranges rounded
    to stem groups (zip: directory order; tar: archive order — the
    WebDataset contract is that a sample's members are adjacent)."""
    ds = read_archive(paths, shard_members=shard_members)

    def group(t: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc

        # names are tiny strings — parse them in Python; the (large)
        # blobs never leave Arrow: each ext column is a take() of the
        # original binary array by member index.
        names = t.column("name").to_pylist()
        stems, exts = [], []
        for n in names:
            base = n.rsplit("/", 1)[-1]
            stem, _, ext = base.rpartition(".")
            if not stem:
                stem, ext = base, ""
            stems.append(stem)
            exts.append(ext)
        order = list(dict.fromkeys(stems))
        pos = {s: i for i, s in enumerate(order)}
        blobs = t.column("bytes").combine_chunks()
        cols: dict = {"key": pa.array(order, pa.string())}
        for e in dict.fromkeys(exts):
            idx = np.zeros(len(order), dtype=np.int64)
            mask = np.zeros(len(order), dtype=bool)
            for i, (s, x) in enumerate(zip(stems, exts)):
                if x == e:
                    j = pos[s]
                    idx[j] = i
                    mask[j] = True
            col = blobs.take(pa.array(idx, pa.int64()))
            if not mask.all():
                col = pc.if_else(pa.array(mask), col,
                                 pa.scalar(None, col.type))
            cols[e] = col
        return pa.table(cols)

    # batch_size=None → batches follow the shard readers' blocks, so a
    # sample's adjacent members stay in one group call (choose
    # shard_members as a multiple of members-per-sample)
    return ds.map_batches(group, batch_format="pyarrow", batch_size=None)
