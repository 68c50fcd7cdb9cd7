"""ORC and Feather (Arrow IPC file) interchange — sharded sink + source.

The reference hands results around as parquet/CSV
(`/root/reference/load.py` COPY ... TO); warehouse neighbors frequently
speak ORC (Hive/Trino) and Feather/Arrow-IPC (pandas/R interop), and
pyarrow ships both codecs, so the engine supports them as first-class
sharded containers:

* sink: one file per input block via ``map_batches`` (streaming — no
  driver materialization; each task writes its own shard and emits one
  manifest row ``(path, rows)``), mirroring the S6 partitioned-sink
  shape so a failed run re-lists what finished.
* source: shard paths fan out as rows; an actor-pool batch fn opens
  each file with the pyarrow reader. Column pruning pushes into both
  readers (``columns=``) so a 2-column scan of a wide ORC tree never
  decodes the other columns.

At 100 TB the unit of parallelism is the shard file (same as the
parquet fragment path in pipelines/build.py); pyarrow's ORC stripe /
IPC record-batch layout keeps per-shard memory bounded.
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa

import ray.data


def _writer(fmt: str):
    if fmt == "orc":
        import pyarrow.orc as orc

        return lambda table, path: orc.write_table(table, path)
    if fmt == "feather":
        import pyarrow.feather as feather

        return lambda table, path: feather.write_feather(table, path)
    raise ValueError(f"unsupported columnar format {fmt!r}")


def write_shards(ds: ray.data.Dataset, out_dir: str, fmt: str,
                 prefix: str = "part") -> ray.data.Dataset:
    """Write ``ds`` as one ``fmt`` file per block under ``out_dir``.

    Returns a manifest Dataset ``(path, rows)``; consuming it drives
    the writes (lazy like every Dataset sink here). File names embed a
    uuid4 so concurrent tasks never collide; list the directory (or
    keep the manifest) to read back.
    """
    os.makedirs(out_dir, exist_ok=True)
    write = _writer(fmt)
    ext = "orc" if fmt == "orc" else "feather"

    def write_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        name = f"{prefix}-{uuid.uuid4().hex}.{ext}"
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        write(t, tmp)
        os.replace(tmp, path)
        return pa.table({"path": pa.array([path], pa.string()),
                         "rows": pa.array([t.num_rows], pa.int64())})

    return ds.map_batches(write_block, batch_format="pyarrow")


def read_shards(paths: list[str], fmt: str,
                columns: list[str] | None = None) -> ray.data.Dataset:
    """Read a list of ORC/Feather shard files as one Dataset.

    Each path becomes one read task (the shard is the parallelism
    unit); ``columns`` prunes at the decoder. Raises on unknown fmt
    up front so a typo fails before any task is scheduled.
    """
    _writer(fmt)  # validate fmt eagerly
    src = ray.data.from_items([{"path": p} for p in sorted(paths)])

    def read_one(t: pa.Table):
        for p in t.column("path").to_pylist():
            if fmt == "orc":
                import pyarrow.orc as orc

                yield orc.ORCFile(p).read(columns=columns)
            else:
                import pyarrow.feather as feather

                yield feather.read_table(p, columns=columns)

    return src.map_batches(read_one, batch_format="pyarrow", batch_size=1)
