"""Avro OCF Dataset source — wraps kernels/avro.py (from-spec codec).

One file = one read task (the container's block structure keeps
per-task memory bounded; at scale, shard Avro datasets by file exactly
like parquet fragments in pipelines/build.py). Union ``[null, T]``
fields surface as nullable Arrow columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..kernels import avro as avrolib


def _cols_to_table(schema: dict, cols: dict) -> pa.Table:
    out = {}
    for f in schema["fields"]:
        name = f["name"]
        t = f["type"]
        vals = cols[name]
        if isinstance(t, list):  # [null, T]
            if name + "__present" in cols:  # vectorized varint path
                present = np.asarray(cols[name + "__present"])
                out[name] = pa.array(np.asarray(vals), _arrow_type(t[1]),
                                     mask=~present)
            else:  # scalar path: Nones mark nulls natively
                out[name] = pa.array(list(vals), _arrow_type(t[1]))
        else:
            out[name] = pa.array(np.asarray(vals)
                                 if not isinstance(vals, list) else vals,
                                 _arrow_type(t))
    return pa.table(out)


def _arrow_type(t: str):
    return {"null": pa.int64(), "boolean": pa.bool_(),
            "int": pa.int64(), "long": pa.int64(),
            "float": pa.float32(), "double": pa.float64(),
            "string": pa.string(), "bytes": pa.binary()}[t]


def read_avro(paths: list[str]) -> ray.data.Dataset:
    """Read Avro OCF files as one Dataset (one task per file)."""
    src = ray.data.from_items([{"path": p} for p in sorted(paths)])

    def read_one(t: pa.Table):
        for p in t.column("path").to_pylist():
            schema, cols = avrolib.read_ocf(p)
            yield _cols_to_table(schema, cols)

    return src.map_batches(read_one, batch_format="pyarrow", batch_size=1)
