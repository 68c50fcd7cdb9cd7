"""Seeded benchmark inputs: images tables, id sets and catchment catalogs.

Payload pool.  Encoding one baseline JPEG with the engine's pure-Python
encoder costs ~0.5 s, so a per-seed table of 2000 distinct images would
take minutes for every seed.  Instead the pixel payloads come from a
pool of ``POOL_PER_SLOT`` images per (codec, dims) slot, made once with
``synth.make_pixels`` + ``kernels.image.encode`` and cached on disk per
``synth.SYNTH_VERSION``.  The seed chooses everything the engine's
behaviour depends on:

- the image id set.  ``stages.encode.derive_footprints`` derives the
  geography from the ``image_id`` number with synth's fixed ``SEED``,
  so only the ids move footprints, cells and partitions;
- each row's payload within its slot;
- for ``join``, which ids sit in synth's hot spot (~40% of rows).

Each row follows synth's layout: codec ``_FMTS[id % 4]`` (one in four
rows is baseline JPEG), dims ``(_WS[id % 3], _HS[id % 3])``, which are
also the footprint's dims.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from hand_index_ray.kernels import h3exact
from hand_index_ray.kernels import image as imk
from hand_index_ray.sources import synth

POOL_PER_SLOT = 24
# image ids are ``img-{i:09d}``; base tables draw below APPEND_LO and
# each fragment appended during ``serve`` draws from its own APPEND_SPAN
# above it, so no appended id collides with another id
APPEND_LO = 900_000_000
APPEND_SPAN = 100_000
# synth's hot spot: footprints forced to (HOT_LON, HOT_LAT) + [0, 0.05)
HOT_BOX = (synth.HOT_LON, synth.HOT_LAT, synth.HOT_LON + 0.05, synth.HOT_LAT + 0.05)


def _write_atomic(path: str, table: pa.Table) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def payload_pool(cache_dir: str) -> tuple[pa.Table, float]:
    """The cached payload pool and the seconds spent making it now
    (0.0 on a cache hit). Columns: slot, bytes, phash."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"pool-v{synth.SYNTH_VERSION}-p{POOL_PER_SLOT}.parquet")
    if os.path.exists(path):
        return pq.read_table(path), 0.0
    t0 = time.perf_counter()
    slots, blobs, phashes = [], [], []
    for f, fmt in enumerate(synth._FMTS):
        for d in range(3):
            w, h = synth._WS[d], synth._HS[d]
            for j in range(POOL_PER_SLOT):
                px = synth.make_pixels(3 * (f * POOL_PER_SLOT + j) + d, w, h)
                buf = imk.encode(px, fmt)
                dec = (imk.decode_jpeg_batch([buf], strict=True)[0] if fmt == "jpg"
                       else imk.decode(buf, fmt, w=w, h=h))
                slots.append(f * 3 + d)
                blobs.append(buf)
                phashes.append(int(np.uint64(imk.phash64(dec)).astype(np.int64)))
    table = pa.table({"slot": pa.array(slots, pa.int32()),
                      "bytes": pa.array(blobs, pa.binary()),
                      "phash": pa.array(phashes, pa.int64())})
    _write_atomic(path, table)
    return table, time.perf_counter() - t0


def hot_mask(ids: np.ndarray) -> np.ndarray:
    """Rows whose synth footprint centroid sits in the hot spot."""
    _, _, _, _, lon, lat = synth.footprint_of(ids)
    x0, y0, x1, y1 = HOT_BOX
    return (lon >= x0) & (lon < x1) & (lat >= y0) & (lat < y1)


def image_ids(rng: np.random.Generator, n: int, lo: int = 0, hi: int = APPEND_LO,
              hot_frac: float | None = None) -> np.ndarray:
    """``n`` distinct sorted ids from [lo, hi). With ``hot_frac``, that
    share of them is drawn from the ids synth places in its hot spot
    (about 1 id in 200), the rest from outside it."""
    want_hot = 0 if hot_frac is None else int(round(n * hot_frac))
    hot: set[int] = set()
    cold: set[int] = set()
    while len(hot) < want_hot or len(cold) < n - want_hot:
        cand = rng.integers(lo, hi, size=max(4 * n, 4096), dtype=np.int64)
        m = hot_mask(cand) if hot_frac is not None else np.zeros(len(cand), bool)
        for i in cand[m].tolist():
            if len(hot) < want_hot:
                hot.add(i)
        for i in cand[~m].tolist():
            if len(cold) < n - want_hot and i not in hot:
                cold.add(i)
    return np.array(sorted(hot | cold), dtype=np.int64)


def images_table(ids: np.ndarray, pool: pa.Table, rng: np.random.Generator) -> pa.Table:
    """images-table rows (synth.images_batch schema minus lineage
    columns) for ``ids``, payloads drawn from ``pool``."""
    ids = np.asarray(ids, dtype=np.int64)
    slot = (ids % 4) * 3 + ids % 3
    pick = rng.integers(0, POOL_PER_SLOT, size=len(ids))
    pool_slot = pool.column("slot").to_numpy()
    order = np.argsort(pool_slot, kind="stable")  # pool rows grouped by slot
    rows = order[slot * POOL_PER_SLOT + pick]
    _, _, _, _, clon, clat = synth.footprint_of(ids)
    cell = h3exact.latlng_to_cell(clat, clon, 5)
    return pa.table({
        "image_id": pa.array([f"img-{i:09d}" for i in ids.tolist()], pa.string()),
        "bytes": pool.column("bytes").take(pa.array(rows)),
        "w": pa.array(np.asarray(synth._WS, np.int32)[ids % 3], pa.int32()),
        "h": pa.array(np.asarray(synth._HS, np.int32)[ids % 3], pa.int32()),
        "fmt": pa.array(np.asarray(synth._FMTS)[ids % 4].tolist(), pa.string()),
        "caption": pa.array([f"tile {i} over cell {int(c)}"
                             for i, c in zip(ids.tolist(), cell.tolist())], pa.string()),
        "phash": pool.column("phash").take(pa.array(rows)),
    })


def write_fragments(out_dir: str, table: pa.Table, fragments: int,
                    first_fragment: int = 0) -> list[str]:
    """Split ``table`` into ``fragments`` parquet files named so that
    the build's sorted listing gives fragment ids ``first_fragment``..."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    bounds = np.linspace(0, table.num_rows, fragments + 1).astype(int)
    for k in range(fragments):
        fid = first_fragment + k
        sub = table.slice(int(bounds[k]), int(bounds[k + 1] - bounds[k]))
        sub = sub.append_column("fragment_id", pa.array(np.full(sub.num_rows, fid, np.int32)))
        sub = sub.append_column("row_idx", pa.array(np.arange(sub.num_rows, dtype=np.int64)))
        path = os.path.join(out_dir, f"frag-{fid:05d}.parquet")
        _write_atomic(path, sub)
        paths.append(path)
    return paths


def write_catalog(path: str, n: int, seed: int) -> str:
    """A seeded catchment catalog (synth.catchment_table) as parquet."""
    _write_atomic(path, synth.catchment_table(n, seed=seed))
    return path
