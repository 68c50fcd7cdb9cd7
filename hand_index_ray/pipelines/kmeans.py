"""Distributed k-means (Lloyd's) over an embedding column — the
iterative-ML pattern on Ray Data done exactly.

Per round: ONE `map_batches` pass assigns every vector to its nearest
centroid and emits per-(cluster, dim) partial sums (k×d int64 rows per
batch — vectors never shuffle); the driver reduces the tiny partial
table and re-quantizes centroids. Rounds are data-parallel map-only
passes, so the iteration cost is O(rounds) Dataset executions with no
exchange — the standard mini-batch-free Lloyd shape for cluster-sized
k·d state (beyond that, keep centroids in the object store and reduce
with a task tree).

Exactness contract (what makes this SQL-oracle-checkable, which
iterative float k-means never is): vectors are quantized once to
integer micro-units (ROUND(v·1e6), the q94 convention); centroids are
RE-QUANTIZED to integer micro-units after every update
(ROUND(sum/n half-away)); distances are exact int64 sums of squared
differences; argmin ties break to the smallest cluster id. Every
round is therefore a deterministic integer function both the engine
and DuckDB compute bit-identically.

Initial centroids: the vectors of the k smallest ids (deterministic,
resume-stable — kmeans++ would need the same determinism contract).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..relational import round_half_away


def _micro(t: pa.Table, vec_col: str, d: int) -> np.ndarray:
    flat = pc.list_flatten(t[vec_col]).to_numpy().astype(np.float64)
    return round_half_away(flat * 1e6).astype(np.int64).reshape(-1, d)


def kmeans_micro(ds: ray.data.Dataset, id_col: str = "vec_id",
                 vec_col: str = "embedding", k: int = 8,
                 rounds: int = 2) -> pd.DataFrame:
    """Run ``rounds`` exact Lloyd iterations; returns the long-form
    result (cluster, dim, c_micro, n) — final quantized centroids and
    cluster sizes (n repeated per dim, q94 layout)."""
    if rounds < 1:
        raise ValueError(f"kmeans_micro needs rounds >= 1, got {rounds}")
    slim = ds.select_columns([id_col, vec_col])

    # deterministic init: vectors of the k smallest ids (tiny driver
    # pull of exactly k rows via the local-topk pattern)
    def low(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(t[id_col])
        return t.take(order[:k])

    cand = pa.concat_tables(
        slim.map_batches(low, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow"))
    cand = cand.take(pc.sort_indices(cand[id_col])[:k])
    if cand.num_rows < k:
        # fewer rows than clusters: clamp so init/emit stay consistent
        k = cand.num_rows
    if k == 0:
        raise ValueError("kmeans_micro: dataset is empty")
    d = len(cand[vec_col][0])
    cents = _micro(cand, vec_col, d)  # (k, d) int64

    for _ in range(rounds):
        ref = ray.put(cents)

        def partials(t: pa.Table) -> pa.Table:
            c = ray.get(ref)
            v = _micro(t, vec_col, d)
            if not len(v):
                return pa.table({"cluster": pa.array([], pa.int64()),
                                 "dim": pa.array([], pa.int64()),
                                 "s": pa.array([], pa.int64()),
                                 "n": pa.array([], pa.int64())})
            # exact int64 distances; (b, k) fits: |batch| x k x d int ops
            diff = v[:, None, :] - c[None, :, :]
            d2 = np.einsum("bkd,bkd->bk", diff, diff)
            a = np.argmin(d2, axis=1)  # first min = smallest cluster id
            dfv = pd.DataFrame(v)
            dfv["__a"] = a
            g = dfv.groupby("__a", sort=True)
            s = g.sum()
            n = g.size()
            kk = np.repeat(s.index.to_numpy(), d)
            return pa.table({
                "cluster": pa.array(kk, pa.int64()),
                "dim": pa.array(np.tile(np.arange(1, d + 1), len(s)),
                                pa.int64()),
                "s": pa.array(s.to_numpy().ravel(), pa.int64()),
                "n": pa.array(np.repeat(n.to_numpy(), d), pa.int64())})

        parts = slim.map_batches(partials, batch_format="pyarrow",
                                 zero_copy_batch=True).to_pandas()
        agg = parts.groupby(["cluster", "dim"], as_index=False)[["s", "n"]].sum()
        new = cents.copy()
        for cl, sub in agg.groupby("cluster"):
            sub = sub.sort_values("dim")
            new[int(cl)] = round_half_away(
                sub["s"].to_numpy().astype(np.float64)
                / sub["n"].to_numpy()).astype(np.int64)
        cents = new
        last_agg = agg

    out = last_agg.sort_values(["cluster", "dim"]).reset_index(drop=True)
    rows = []
    sizes = out.groupby("cluster")["n"].max()
    for cl in range(k):
        n_cl = int(sizes.get(cl, 0))
        for dim in range(1, d + 1):
            rows.append((cl, dim, int(cents[cl, dim - 1]), n_cl))
    return pd.DataFrame(rows, columns=["cluster", "dim", "c_micro", "n"]) \
        .astype({"cluster": "int64", "dim": "int64",
                 "c_micro": "int64", "n": "int64"})
