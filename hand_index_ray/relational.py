"""Generic relational operators over Ray Data, Arrow-batch-first.

These re-express the reference's embedded-SQL relational surface
(SURVEY.md §2: joins J2–J4, aggregations A1–A4, distinct, limit/top-k
O1–O3) as reusable Ray Data building blocks, with the scale rules
baked in:

- **Pre-aggregate before the shuffle**: ``grouped_agg`` computes
  per-batch partials with Arrow's hash kernels (one row per key per
  batch) and only then runs the (tiny) global ``groupby().aggregate``.
- **Broadcast the small side**: ``broadcast_join`` / ``semi_join`` put
  the dimension table in the object store once (``ray.put``) and join
  inside ``map_batches`` — no shuffle of the big side.
- **Top-k without a global sort**: per-batch local top-k, then one
  small driver-side merge.

Float discipline for oracle parity: multi-row float sums are computed
on integer-scaled values (cents) so results are bit-exact regardless of
summation order; unaggregated per-row float math is IEEE-deterministic
and needs no rounding.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Max, Min, Sum


def _tables(ds: ray.data.Dataset) -> list[pa.Table]:
    """Every block of a (small) dataset as an Arrow table. It is
    materialized first: ``to_arrow_refs`` on a lazy dataset asks for
    the schema afterwards, and Ray 2.49 answers that with a partial
    re-execution."""
    return ray.get(ds.materialize().to_arrow_refs())


def grouped_agg(ds: ray.data.Dataset, keys: list[str],
                sum_cols: list[str] | None = None,
                count: bool = True,
                min_cols: list[str] | None = None,
                max_cols: list[str] | None = None) -> ray.data.Dataset:
    """groupby + sum/count/min/max with per-batch partial aggregation.

    The partial pass emits ≤ |keys-cardinality| rows per input batch,
    so the all-to-all exchange moves partials, not rows (the reference
    leans on DuckDB to do this internally; in Ray Data it is explicit,
    SURVEY.md §7.3)."""
    sum_cols = sum_cols or []
    min_cols = min_cols or []
    max_cols = max_cols or []

    def partial(t: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sum_cols] + [(c, "min") for c in min_cols] + [(c, "max") for c in max_cols]
        if count:
            # count_all, not count(key): rows with a null key must report
            # their true COUNT(*) (ADVICE r1 relational.py:53)
            aggs.append(([], "count_all"))
        g = t.group_by(keys).aggregate(aggs)
        names = list(g.column_names)
        # normalize partial names: col_sum → col, count_all → __cnt
        ren = {}
        for c in sum_cols:
            ren[f"{c}_sum"] = c
        for c in min_cols:
            ren[f"{c}_min"] = f"__min_{c}"
        for c in max_cols:
            ren[f"{c}_max"] = f"__max_{c}"
        if count:
            ren["count_all"] = "__cnt"
        return g.rename_columns([ren.get(n, n) for n in names])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    aggs = [Sum(c, alias_name=c) for c in sum_cols]
    aggs += [Min(f"__min_{c}", alias_name=f"__min_{c}") for c in min_cols]
    aggs += [Max(f"__max_{c}", alias_name=f"__max_{c}") for c in max_cols]
    if count:
        aggs.append(Sum("__cnt", alias_name="__cnt"))
    out = partials.groupby(keys).aggregate(*aggs)

    def finish(t: pa.Table) -> pa.Table:
        names = []
        for n in t.column_names:
            if n == "__cnt":
                names.append("n")
            elif n.startswith("__min_"):
                names.append(f"min_{n[6:]}")
            elif n.startswith("__max_"):
                names.append(f"max_{n[6:]}")
            else:
                names.append(n)
        return t.rename_columns(names)

    return out.map_batches(finish, batch_format="pyarrow")


def broadcast_join(big: ray.data.Dataset, small: pa.Table, keys: list[str] | str,
                   join_type: str = "inner",
                   small_prefix: str = "") -> ray.data.Dataset:
    """Join a large Dataset against a small Arrow table without a
    shuffle: the small side ships to the object store once and each
    batch joins locally (reference J2/J3 pattern, SURVEY.md §2.4)."""
    ref = ray.put(small)
    keys = [keys] if isinstance(keys, str) else list(keys)

    jt = {"inner": "inner", "left": "left outer"}.get(join_type, join_type)

    def join(t: pa.Table) -> pa.Table:
        return t.join(ray.get(ref), keys=keys, join_type=jt,
                      right_suffix=small_prefix or None)

    return big.map_batches(join, batch_format="pyarrow", zero_copy_batch=True)


def hash_join(left: ray.data.Dataset, right: ray.data.Dataset,
              key: str, how: str = "inner", num_buckets: int = 64,
              left_cols: "list[str] | None" = None,
              right_cols: "list[str] | None" = None,
              salt_hot: bool = False, salt_buckets: int = 8,
              salt_hot_factor: float = 8.0) -> ray.data.Dataset:
    """Partitioned hash join for two LARGE sides (SURVEY.md §2.4 J2
    "at scale" path): both sides are tagged with bucket = hash(key) % B
    and co-grouped by ``cogroup_apply`` (one shuffle of Arrow IPC
    payloads); each bucket runs one pyarrow join. Output columns are
    ``left_cols + right_cols`` minus the right key; unmatched outer
    rows carry nulls. A side passed without its column list is
    materialized first and its names read from the blocks (a lazy
    ``schema()`` would run a partial execution); callers with a
    possibly-empty side (``schema()`` is None on a zero-block dataset)
    pass the column lists explicitly.

    Skewed hot keys: pass ``salt_hot=True`` (inner/left only) — a
    count pre-pass over the left side finds keys above
    ``salt_hot_factor`` × mean frequency; hot LEFT rows spread across
    ``salt_buckets`` salted buckets round-robin while the RIGHT side's
    hot-key rows replicate once per salt (the zonal join's
    replicate-small-side pattern, lifted here per VERDICT r3 item 8).
    The pre-pass re-executes the left lineage once — opt in only when
    skew is expected. Supported ``how``: inner, left, full
    (``salt_hot`` rejects full: replicated unmatched right rows would
    duplicate).
    """
    if salt_hot and how == "full":
        raise ValueError("salt_hot supports inner/left joins only")
    # a lazy dataset's schema() runs a partial execution; read the
    # names off a materialized input instead
    if left_cols is None:
        left = left.materialize()
        left_cols = left.schema().names
    if right_cols is None:
        right = right.materialize()
        right_cols = right.schema().names
    hot_vals = None
    if salt_hot:
        def _pc(t: pa.Table) -> pa.Table:
            agg = t.select([key]).group_by(key).aggregate([([], "count_all")])
            return agg.rename_columns([key, "__n"])

        freq = left.map_batches(_pc, batch_format="pyarrow").to_pandas()
        if len(freq):
            agg = freq.groupby(key)["__n"].sum()
            mean = max(float(agg.mean()), 1.0)
            hot = agg[agg > salt_hot_factor * mean]
            if len(hot):
                hot_vals = pa.array(list(hot.index))
    _GOLD = np.uint64(0x9E3779B97F4A7C15)
    S = np.uint64(max(int(salt_buckets), 1))

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            k = t.column(key)
            # _bucket_hash is deterministic across processes (Python
            # hash() is salted per process and must never be a shuffle
            # key) and vectorized for both int and string keys
            h = _bucket_hash(k.to_numpy(zero_copy_only=False),
                             pa.types.is_integer(k.type))
            NB = np.uint64(num_buckets)
            with np.errstate(over="ignore"):
                b = (h % NB).astype(np.int32)
                # S <= 1 means no salting configured: left salt would be
                # a no-op and the right-side np.stack over an empty salt
                # range would raise — skip hot handling entirely
                if hot_vals is not None and int(S) > 1:
                    is_hot = pc.is_in(k, value_set=hot_vals.cast(k.type)
                                      ).to_numpy(zero_copy_only=False)
                    idx = np.nonzero(is_hot)[0]
                    if len(idx):
                        if side == 0:
                            # spread hot LEFT rows round-robin over the
                            # S salted buckets (salt 0 == base bucket);
                            # arange is retry-stable within a batch
                            salt = np.arange(len(idx), dtype=np.uint64) % S
                            b[idx] = ((h[idx] + salt * _GOLD) % NB
                                      ).astype(np.int32)
                        else:
                            # replicate hot RIGHT rows once per DISTINCT
                            # salted bucket: two salts can collide on
                            # the same bucket (e.g. NB | (s1-s2)*GOLD),
                            # and a duplicate copy there would duplicate
                            # every matched join row — dedupe per
                            # (row, bucket) before replicating
                            hh = h[idx]
                            salts = np.arange(1, int(S), dtype=np.uint64)
                            bmat = ((hh[:, None] + salts[None, :] * _GOLD)
                                    % NB).astype(np.int64)  # (rows, S-1)
                            base_b = b[idx].astype(np.int64)
                            # vectorized per-(row, bucket) dedup: one
                            # unique over composite row*NB+bucket keys
                            # (bucket < NB so the key is collision-free)
                            rr = np.repeat(np.arange(len(idx)), int(S) - 1)
                            bb = bmat.ravel()
                            keep = bb != base_b[rr]
                            combo = np.unique(rr[keep] * np.int64(NB)
                                              + bb[keep])
                            rows = idx[combo // np.int64(NB)]
                            if len(rows):
                                t = pa.concat_tables(
                                    [t, t.take(pa.array(rows))])
                                b = np.concatenate(
                                    [b, (combo % np.int64(NB))
                                        .astype(np.int32)])
            return t.append_column("__bucket", pa.array(b, pa.int32()))
        return f

    lcols, rcols = list(left_cols), list(right_cols)
    cols_out = lcols + [c for c in rcols if c != key]
    jt = {"inner": "inner", "left": "left outer", "full": "full outer"}[how]

    def pad(t: pa.Table, missing: list[str]) -> pd.DataFrame:
        df = t.to_pandas()
        for c in missing:
            if c != key:
                df[c] = None
        return df.reindex(columns=cols_out)

    def pair_fn(lt: pa.Table | None, rt: pa.Table | None) -> pd.DataFrame:
        if lt is None:
            if how == "full" and rt is not None:
                return pad(rt, lcols)
            return pd.DataFrame(columns=cols_out)
        if rt is None:
            if how in ("left", "full"):
                return pad(lt, rcols)
            return pd.DataFrame(columns=cols_out)
        return lt.join(rt, keys=key, join_type=jt).to_pandas() \
            .reindex(columns=cols_out)

    return cogroup_apply(
        left.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True),
        right.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True),
        pair_fn)


def semi_join(big: ray.data.Dataset, key: str, values: pa.Array,
              anti: bool = False) -> ray.data.Dataset:
    """Semi/anti join by broadcast key set (reference J4,
    query_geojson.py:221-233)."""
    ref = ray.put(values)

    def f(t: pa.Table) -> pa.Table:
        vs = ray.get(ref)
        m = pc.is_in(t[key], value_set=vs)
        if anti:
            m = pc.invert(m)
        return t.filter(m)

    return big.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _bucket_hash(values, is_integer: bool) -> np.ndarray:
    """Deterministic cross-process uint64 hash of a key column
    (splitmix64 for ints, vectorized siphash via
    ``pandas.util.hash_array`` otherwise — pandas uses a FIXED hash key
    so the value is stable across processes/nodes, unlike Python's
    process-salted hash(), and the string path runs in C instead of a
    per-row Python loop)."""
    from .sources.synth import splitmix64

    with np.errstate(over="ignore"):
        if is_integer:
            return splitmix64(np.asarray(values).astype(np.uint64))
        arr = np.asarray(values, dtype=object)
        return splitmix64(pd.util.hash_array(arr, categorize=False))


def distinct(ds: ray.data.Dataset, keys: list[str]) -> ray.data.Dataset:
    """DISTINCT on key columns: per-batch local dedup (Arrow hash
    group_by) then a global groupby — the shuffle moves unique keys
    only (reference A4b, ``SELECT DISTINCT`` at load.py:212)."""

    def local(t: pa.Table) -> pa.Table:
        return t.select(keys).group_by(keys).aggregate([])

    return ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True) \
             .groupby(keys).count().drop_columns(["count()"])


def dedup_first(ds: ray.data.Dataset, key: str, order_col: str) -> ray.data.Dataset:
    """Exact dedup keeping the row with min(order_col) per key
    (deterministic analog of the reference's dict-first /
    ON CONFLICT DO NOTHING, load.py:84-86,192-196).

    Shape: vectorized LOCAL first-per-key per batch (the shuffle then
    moves ≤1 row per key per batch), one hash-bucket shuffle, and a
    whole-bucket vectorized drop_duplicates — never a per-key UDF
    dispatch (10⁴ tiny groups made the old groupby().map_groups
    dispatch-bound)."""
    def local_first(df: pd.DataFrame) -> pd.DataFrame:
        out = df.sort_values([key, order_col], kind="stable") \
                .drop_duplicates(subset=[key], keep="first")
        # empty batches must still carry __bucket — mixed block schemas
        # through a groupby are undefined behavior in Ray
        h = _bucket_hash(out[key].to_numpy(),
                         pd.api.types.is_integer_dtype(out[key]))
        return out.assign(__bucket=(h % np.uint64(64)).astype(np.int32))

    def bucket_first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values([key, order_col], kind="stable") \
                .drop_duplicates(subset=[key], keep="first") \
                .drop(columns=["__bucket"])

    pre = ds.map_batches(local_first, batch_format="pandas")
    return pre.groupby("__bucket").map_groups(bucket_first, batch_format="pandas")


def topk(ds: ray.data.Dataset, col: str, k: int, descending: bool = True,
         tiebreak: str | None = None) -> pd.DataFrame:
    """Top-k without a global sort: local top-k per batch, merge on the
    driver (the candidate set is ≤ k × num_batches rows)."""
    by = [col] + ([tiebreak] if tiebreak else [])
    asc = [not descending] + ([True] if tiebreak else [])

    def local(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(by, ascending=asc, kind="stable").head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    parts = ds.map_batches(local, batch_format="pyarrow").to_pandas()
    return parts.sort_values(by, ascending=asc, kind="stable").head(k).reset_index(drop=True)


def tumbling_window(ds: ray.data.Dataset, ts_col: str, keys: list[str],
                    window_s: int, sum_cents_col: str | None = None) -> ray.data.Dataset:
    """Streaming-shaped tumbling-window aggregate: window id =
    floor(epoch/window) computed per batch, then grouped_agg. Ray Data
    has no event-time runtime (SURVEY.md §2.9) — windows over a batch
    table are a grouped aggregate by construction."""

    def widx(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.int64()).to_numpy()  # µs since epoch
        w = ts // (window_s * 1_000_000)
        return t.append_column("window_id", pa.array(w, pa.int64()))

    withw = ds.map_batches(widx, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(withw, keys + ["window_id"],
                       sum_cols=[sum_cents_col] if sum_cents_col else [])


def sliding_window(ds: ray.data.Dataset, ts_col: str, keys: list[str],
                   window_s: int, slide_s: int,
                   sum_cents_col: str | None = None) -> ray.data.Dataset:
    """Sliding-window aggregate: each event explodes to every window
    [k·slide, k·slide + window) containing it (vectorized per batch),
    then grouped_agg — windows overlap, so rows fan out by
    window/slide."""
    W = window_s * 1_000_000
    S = slide_s * 1_000_000

    def explode(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.int64()).to_numpy()
        k_min = (ts - W) // S + 1
        k_max = ts // S
        counts = (k_max - k_min + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(ts)), counts)
        offs = np.arange(counts.sum()) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        wid = np.repeat(k_min, counts) + offs
        out = t.take(pa.array(idx))
        return out.append_column("window_id", pa.array(wid, pa.int64()))

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(exploded.select_columns(
        keys + ["window_id"] + ([sum_cents_col] if sum_cents_col else [])),
        keys + ["window_id"],
        sum_cols=[sum_cents_col] if sum_cents_col else [])


def session_window(ds: ray.data.Dataset, ts_col: str, key: str, gap_s: int,
                   order_tiebreak: str | None = None) -> ray.data.Dataset:
    """Session windows: per key, sort by (ts, tiebreak); a gap >
    ``gap_s`` starts a new session. One shuffle (groupby key), sessions
    assigned with vectorized pandas inside the group. Emits one row per
    (key, session_id) with n events and start/end epoch-µs."""
    gap_us = gap_s * 1_000_000

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        by = [ts_col] + ([order_tiebreak] if order_tiebreak else [])
        g = g.sort_values(by, kind="stable")
        ts = g[ts_col].astype("int64").to_numpy()
        new = np.concatenate([[0], (np.diff(ts) > gap_us).astype(np.int64)])
        sid = np.cumsum(new)
        out = pd.DataFrame({key: g[key].to_numpy(), "session_id": sid, "ts_us": ts})
        agg = out.groupby("session_id").agg(
            n=("ts_us", "size"), start_us=("ts_us", "min"), end_us=("ts_us", "max"))
        agg[key] = g[key].iloc[0]
        return agg.reset_index()[[key, "session_id", "n", "start_us", "end_us"]]

    return ds.groupby(key).map_groups(sessions, batch_format="pandas")


def grouped_apply_bucketed(ds: ray.data.Dataset, keys: list[str],
                           fn, num_buckets: int = 128,
                           min_group_size: int = 1,
                           whole_bucket: bool = False) -> ray.data.Dataset:
    """Apply ``fn(group_df)`` per distinct key combination, but shuffle
    on hash(keys) % num_buckets and iterate key-groups inside each
    bucket with pandas C-speed grouping.

    Ray's ``groupby(keys).map_groups`` dispatches the UDF once per
    group; with 10⁵ tiny groups (LSH buckets, lattice cells) that
    dispatch dominates. One dispatch per hash bucket amortizes it
    ~|groups|/num_buckets-fold. fn must not depend on cross-group state.

    ``min_group_size``: drop groups smaller than this with ONE
    vectorized duplicated() pass instead of iterating them — for
    pair-generation UDFs (LSH verify) where singleton groups can never
    emit, this skips the dominant per-tiny-group pandas overhead.

    ``whole_bucket``: pass the entire bucket DataFrame to ``fn`` in one
    call instead of iterating key-groups — for UDFs that are themselves
    vectorized across groups (pandas groupby transforms: rank, cumsum,
    percentile picks). Key co-location still holds (all rows of a key
    land in one bucket); fn must group internally.
    """
    from .sources.synth import splitmix64

    def add_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("__bucket", pa.array([], pa.int32()))
        h = np.zeros(t.num_rows, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for i, k in enumerate(keys):
                col = t.column(k)
                hk = _bucket_hash(col.to_numpy(zero_copy_only=False),
                                  pa.types.is_integer(col.type))
                h ^= splitmix64(hk + np.uint64(0x9E3779B9 * (i + 1)))
        return t.append_column("__bucket",
                               pa.array((h % np.uint64(num_buckets)).astype(np.int32)))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if whole_bucket:
            return fn(g.drop(columns=["__bucket"]))
        if min_group_size > 1 and len(g):
            sizes = g.groupby(keys, sort=False)[keys[0]].transform("size")
            g = g[sizes >= min_group_size]
            if not len(g):
                return fn(g.drop(columns=["__bucket"]))
        outs = [fn(sub.drop(columns=["__bucket"]))
                for _, sub in g.groupby(keys, sort=False)]
        outs = [o for o in outs if o is not None and len(o)]
        if not outs:
            return fn(g.iloc[0:0].drop(columns=["__bucket"]))
        return pd.concat(outs, ignore_index=True)

    return ds.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("__bucket").map_groups(per_bucket, batch_format="pandas")


def approx_distinct(ds: ray.data.Dataset, col: str) -> float:
    """COUNT(DISTINCT col) via mergeable sparse/dense HyperLogLog
    sketches: one small sketch per batch, merged on the driver — no
    shuffle at any scale (kernels/sketch.py). EXACT below
    ``sketch.SPARSE_MAX`` distinct values (the sparse regime keeps the
    bijective-hashed value set itself, like Redis/DataSketches HLLs);
    ~1.6% standard error once promoted to dense registers."""
    from .kernels import sketch

    def partial(t: pa.Table) -> pa.Table:
        st = sketch.state_add(
            sketch.state_empty(),
            t.column(col).to_pylist()
            if not pa.types.is_integer(t.column(col).type)
            else t.column(col).to_numpy())
        return pa.table({"sketch": pa.array([sketch.state_serialize(st)], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    st = sketch.state_empty()
    for t in _tables(parts):
        for b in t.column("sketch").to_pylist():
            st = sketch.state_merge(st, sketch.state_deserialize(b))
    return sketch.state_estimate(st)


def add_cents(ds: ray.data.Dataset, col: str, out: str, scale: int = 100) -> ray.data.Dataset:
    """Integer-scale a float column so downstream sums are order-exact
    (see module docstring float discipline)."""

    def f(t: pa.Table) -> pa.Table:
        v = pc.cast(pc.round(pc.multiply(t[col], float(scale))), pa.int64())
        return t.append_column(out, v)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def approx_quantiles(ds: ray.data.Dataset, col: str, qs) -> "np.ndarray":
    """Approximate quantiles of a numeric column via mergeable
    compressed-sample sketches (kernels/sketch.py q_*): one few-KB
    sketch per batch, merged on the driver — shuffle-free at any scale,
    like ``approx_distinct``. Rank error ~O(1/512)."""
    from .kernels import sketch

    def partial(t: pa.Table) -> pa.Table:
        st = sketch.q_add(sketch.q_empty(), t.column(col).to_numpy())
        return pa.table({"qsk": pa.array([sketch.q_serialize(st)], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    st = sketch.q_empty()
    for t in _tables(parts):
        if "qsk" not in t.schema.names:  # schemaless empty block
            continue
        for b in t.column("qsk").to_pylist():
            st = sketch.q_merge(st, sketch.q_deserialize(b))
    return sketch.q_quantile(st, qs)


# ---------------------------------------------------------------------------
# time joins: as-of and range (interval) — custom operators Ray Data
# lacks, composed from map_batches + one co-group shuffle (SURVEY §2.4
# "custom operators" clause; the reference has no time joins — these
# are training-data extensions like the dedup family)


def _ipc_bytes(sub: pa.Table) -> bytes:
    """Arrow IPC stream bytes — shuffle payloads stay Arrow end to end
    (no pickle re-serialization; the receiver reads zero-copy)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, sub.schema) as w:
        w.write_table(sub)
    return sink.getvalue().to_pybytes()


def _ipc_read(b: bytes) -> pa.Table:
    return pa.ipc.open_stream(pa.py_buffer(b)).read_all()


def _pack_buckets(side: int):
    """Batch fn: group rows of a tagged table by its __bucket column
    into one IPC payload row per (bucket, batch) — the co-group shuffle
    then moves a few fat Arrow rows instead of many thin ones."""

    def f(t: pa.Table) -> pa.Table:
        empty = pa.table({"__bucket": pa.array([], pa.int64()),
                          "__side": pa.array([], pa.int64()),
                          "payload": pa.array([], pa.binary())})
        if t.num_rows == 0:
            return empty
        buckets = t.column("__bucket").to_numpy()
        order = np.argsort(buckets, kind="stable")
        tt = t.take(pa.array(order))
        bs = tt.column("__bucket").to_numpy()
        cuts = np.flatnonzero(np.diff(bs)) + 1
        starts = np.concatenate([[0], cuts])
        ends = np.concatenate([cuts, [len(bs)]])
        rows = []
        for s, e in zip(starts, ends):
            sub = tt.slice(int(s), int(e - s)).drop_columns(["__bucket"])
            rows.append({"__bucket": int(bs[s]), "__side": side,
                         "payload": _ipc_bytes(sub)})
        return pa.Table.from_pylist(rows)

    return f


def cogroup_apply(left: ray.data.Dataset, right: ray.data.Dataset,
                  pair_fn) -> ray.data.Dataset:
    """Co-group two Datasets that already carry an int __bucket column
    and apply ``pair_fn(left_table | None, right_table | None) ->
    pd.DataFrame`` once per bucket. ONE all-to-all exchange total; the
    payloads ride as Arrow IPC. This is the package's one two-sided
    co-group: ``hash_join``, ``asof_join``, ``range_join`` and the
    zonal join's shuffle route all run on it."""
    packed = left.map_batches(_pack_buckets(0), batch_format="pyarrow",
                              zero_copy_batch=True).union(
        right.map_batches(_pack_buckets(1), batch_format="pyarrow",
                          zero_copy_batch=True))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ls = [_ipc_read(b) for b in g.loc[g["__side"] == 0, "payload"]]
        rs = [_ipc_read(b) for b in g.loc[g["__side"] == 1, "payload"]]
        lt = pa.concat_tables(ls) if ls else None
        rt = pa.concat_tables(rs) if rs else None
        return pair_fn(lt, rt)

    return packed.groupby("__bucket").map_groups(per_bucket,
                                                 batch_format="pandas")


def _tag_bucket_on(key: str, num_buckets: int):
    def f(t: pa.Table) -> pa.Table:
        k = t.column(key)
        h = _bucket_hash(k.to_numpy(zero_copy_only=False)
                         if pa.types.is_integer(k.type) else k.to_pylist(),
                         pa.types.is_integer(k.type))
        b = (h % np.uint64(num_buckets)).astype(np.int32)
        return t.append_column("__bucket", pa.array(b, pa.int32()))

    return f


def asof_join(left: ray.data.Dataset, right: ray.data.Dataset,
              on: str = "ts", by: str = "user_id", how: str = "inner",
              num_buckets: int = 64,
              broadcast_right: pa.Table | None = None,
              resolve_dups: str | None = None) -> ray.data.Dataset:
    """As-of join: each left row picks the LATEST right row of the same
    ``by`` key with ``right.on <= left.on`` (DuckDB ``ASOF JOIN``
    semantics; ``how='inner'`` drops unmatched left rows, ``'left'``
    keeps them with nulls).

    Scale shape: both sides co-partition on hash(by) — ONE shuffle of
    slim tagged rows, then a per-bucket sorted ``pd.merge_asof``
    (C-speed, by-aware). An as-of join never needs time-range
    partitioning because each left row matches at most one right row
    per key; keys are independent, so key-hash buckets parallelize it
    exactly. Pass ``broadcast_right`` (a small Arrow table) to skip the
    shuffle entirely: the right side ships once via ``ray.put`` and
    every left batch joins locally — the quote-table case.

    The right side must be unique per (by, on) — ties would make "the"
    latest row ambiguous (DuckDB leaves it unspecified too). Either
    pre-aggregate, or pass ``resolve_dups='max'|'min'`` to resolve
    duplicates deterministically per (by, on) INSIDE the join: the
    co-group already puts every row of a key in one bucket, so this
    costs a per-bucket groupby instead of a whole extra all-to-all
    aggregation pass (measured: removing the upstream grouped_agg cut
    the q43 pipeline from ~7.5 s to ~4 s at sf0.1/32cpu). Right's
    ``on`` survives as ``{on}_r`` so callers can compute staleness.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"asof_join supports inner/left, not {how!r}")
    if resolve_dups not in (None, "max", "min"):
        raise ValueError(f"resolve_dups must be max/min/None, not {resolve_dups!r}")

    def merge(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pd.DataFrame:
        ldf = ldf.sort_values(on, kind="mergesort").reset_index(drop=True)
        if resolve_dups and len(rdf):
            agg = rdf.groupby([by, on], sort=False, as_index=False)
            rdf = agg.max() if resolve_dups == "max" else agg.min()
        rdf = rdf.sort_values(on, kind="mergesort").reset_index(drop=True)
        rdf = rdf.assign(**{f"{on}_r": rdf[on]})
        out = pd.merge_asof(ldf, rdf, on=on, by=by, direction="backward",
                            suffixes=("", "_r"))
        if how == "inner":
            out = out[out[f"{on}_r"].notna()].reset_index(drop=True)
        return out

    if broadcast_right is not None:
        ref = ray.put(broadcast_right.to_pandas())
        return left.map_batches(lambda ldf: merge(ldf, ray.get(ref)),
                                batch_format="pandas")

    # column names and types from materialized blocks: a lazy schema()
    # runs a partial execution
    left, right = left.materialize(), right.materialize()
    lcols = list(left.schema().names)
    rschema = right.schema().base_schema
    rcols = list(rschema.names)
    # pd.merge_asof suffixes colliding right names with _r; right's own
    # `on` always survives as {on}_r
    out_cols = lcols + [(c if c not in lcols else f"{c}_r")
                        for c in rcols if c not in (by, on)] + [f"{on}_r"]
    if isinstance(rschema, pa.Schema):
        empty_rdf = rschema.empty_table().to_pandas()
    else:  # PandasBlockSchema (from_pandas-backed datasets)
        empty_rdf = pd.DataFrame({n: pd.Series(dtype=t) for n, t in
                                  zip(rschema.names, rschema.types)})

    def pair_fn(lt: pa.Table | None, rt: pa.Table | None) -> pd.DataFrame:
        if lt is None:
            return pd.DataFrame(columns=out_cols)
        ldf = lt.to_pandas()
        if rt is None:
            if how == "inner":
                return pd.DataFrame(columns=out_cols)
            return merge(ldf, empty_rdf)[out_cols]
        return merge(ldf, rt.to_pandas())[out_cols]

    lt = left.map_batches(_tag_bucket_on(by, num_buckets),
                          batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(_tag_bucket_on(by, num_buckets),
                           batch_format="pyarrow", zero_copy_batch=True)
    return cogroup_apply(lt, rt, pair_fn)


def range_join(left: ray.data.Dataset, right: ray.data.Dataset,
               key: str = "user_id", on: str = "ts",
               start: str = "t_start", end: str = "t_end",
               num_buckets: int = 64,
               bucket_width_us: int | None = None,
               broadcast_right: pa.Table | None = None) -> ray.data.Dataset:
    """Range (interval) join: inner-join left rows to right intervals
    with ``left.key == right.key AND start <= left.on <= end``. ``on``,
    ``start``, ``end`` are int64 epoch-microsecond columns.

    Scale shape — time-bucketed exactly-once replication: time splits
    into windows of ``bucket_width_us`` (default: the max interval
    length, so every interval overlaps <= 2 windows); each interval is
    replicated to every (key, window) bucket it overlaps, each left row
    goes ONLY to its own, and the exact predicate evaluates per bucket
    — a pair can only meet in the left row's bucket, so emission is
    exactly-once with no dedup shuffle (the same argument as the zonal
    join's canonical cell and MinHash's minimal colliding band).
    Buckets are hash(key, window) % num_buckets; duplicate interval
    copies landing in one bucket via different windows are dropped
    vectorized before the in-bucket merge.

    ``broadcast_right``: small interval tables skip the shuffle (ships
    once, every left batch joins locally).
    """
    from .sources.synth import splitmix64

    rcols_keep = None  # all right columns survive

    def in_bucket_join(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pd.DataFrame:
        out = ldf.merge(rdf, on=key, how="inner")
        if not len(out):
            return out
        m = (out[on].to_numpy() >= out[start].to_numpy()) & \
            (out[on].to_numpy() <= out[end].to_numpy())
        return out[m].reset_index(drop=True)

    if broadcast_right is not None:
        ref = ray.put(broadcast_right.to_pandas())
        return left.map_batches(lambda ldf: in_bucket_join(ldf, ray.get(ref)),
                                batch_format="pandas")

    # column names from materialized blocks (a lazy schema() runs a
    # partial execution); the interval-length pass reads them too
    left, right = left.materialize(), right.materialize()
    if bucket_width_us is None:
        bucket_width_us = max(
            [int(pc.max(pc.subtract(t[end], t[start])).as_py() or 0)
             for t in _tables(right) if t.num_rows] or [0]) + 1
    W = np.int64(max(bucket_width_us, 1))
    NB = np.uint64(num_buckets)

    def bucket_of(kh: np.ndarray, tb: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return (splitmix64(kh ^ tb.astype(np.uint64)) % NB).astype(np.int32)

    def tag_left(t: pa.Table) -> pa.Table:
        kh = _bucket_hash(t.column(key).to_numpy(zero_copy_only=False),
                          pa.types.is_integer(t.column(key).type))
        tb = t.column(on).to_numpy() // W
        return t.append_column("__bucket",
                               pa.array(bucket_of(kh, tb), pa.int32()))

    def tag_right(t: pa.Table) -> pa.Table:
        """Replicate each interval to every time window it overlaps."""
        if t.num_rows == 0:
            return t.append_column("__bucket", pa.array([], pa.int32()))
        s = t.column(start).to_numpy()
        e = t.column(end).to_numpy()
        w0 = s // W
        w1 = e // W
        reps = (w1 - w0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(t.num_rows), reps)
        # window of each copy: w0[i] + intra-run offset
        offs = np.arange(len(idx)) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)])[:-1], reps)
        tb = w0[idx] + offs
        tt = t.take(pa.array(idx))
        kh = _bucket_hash(tt.column(key).to_numpy(zero_copy_only=False),
                          pa.types.is_integer(tt.column(key).type))
        return tt.append_column("__bucket",
                                pa.array(bucket_of(kh, tb), pa.int32()))

    lcols = list(left.schema().names)
    rcols = list(right.schema().names)
    out_cols = lcols + [c for c in rcols if c != key]

    def pair_fn(lt: pa.Table | None, rt: pa.Table | None) -> pd.DataFrame:
        if lt is None or rt is None:
            return pd.DataFrame(columns=out_cols)
        rdf = rt.to_pandas().drop_duplicates().reset_index(drop=True)
        return in_bucket_join(lt.to_pandas(), rdf)[out_cols]

    lt = left.map_batches(tag_left, batch_format="pyarrow",
                          zero_copy_batch=True)
    rt = right.map_batches(tag_right, batch_format="pyarrow",
                           zero_copy_batch=True)
    return cogroup_apply(lt, rt, pair_fn)


def hash_split(ds: ray.data.Dataset, id_col: str,
               fractions: dict[str, float],
               salt: str = "") -> ray.data.Dataset:
    """Deterministic train/val/test assignment by content-stable hash.

    Each row lands in a split by ``md5(str(id) + salt)`` bucket (0-9999
    per-mille-of-ten ranges in ``fractions`` insertion order) — stable
    across runs, machines and engine versions, and reproducible in SQL
    (``md5_number_lower``), unlike ``random_shuffle``-based splits.
    Map-only: no shuffle, no state. Changing ``salt`` re-deals the
    assignment without touching ids.
    """
    import hashlib

    total = sum(fractions.values())
    if not 0.999 <= total <= 1.001:
        raise ValueError(f"fractions must sum to 1, got {total}")
    bounds = []
    acc = 0.0
    for name, frac in fractions.items():
        acc += frac
        bounds.append((name, int(round(acc * 10_000))))
    bounds[-1] = (bounds[-1][0], 10_000)  # absorb fp residue

    salt_b = salt.encode()

    def f(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return t.append_column("split", pa.array([], pa.string()))
        # md5 itself is per-value by SQL-parity necessity
        # (md5_number_lower in the oracle), but the string encode runs
        # once through Arrow and the loop slices a packed byte buffer —
        # no per-row Python string objects.
        sa = pc.cast(t.column(id_col), pa.large_string()).combine_chunks()
        offs = np.frombuffer(sa.buffers()[1], dtype=np.int64,
                             count=n + 1, offset=8 * sa.offset)
        mv = memoryview(sa.buffers()[2])
        md5, fb = hashlib.md5, int.from_bytes
        h = np.fromiter(
            (fb(md5(mv[offs[i]:offs[i + 1]].tobytes() + salt_b)
                 .digest()[8:16], "little") for i in range(n)),
            dtype=np.uint64, count=n)
        bucket = (h % np.uint64(10_000)).astype(np.int64)
        split = np.empty(len(bucket), dtype=object)
        lo = 0
        for name, hi in bounds:
            split[(bucket >= lo) & (bucket < hi)] = name
            lo = hi
        return t.append_column("split", pa.array(split, pa.string()))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def grouped_topk(ds: ray.data.Dataset, keys: list[str], value: str,
                 k: int, descending: bool = True,
                 tiebreak: str | None = None) -> ray.data.Dataset:
    """Top-k rows per group by ``value`` (deterministic: ties break on
    ``tiebreak`` ascending). Partial top-k per batch per group first,
    so the exchange moves <= k rows per (batch, group) — the same
    combiner shape as grouped_agg; the final per-group top-k runs in
    hash buckets (one dispatch per bucket, not per group).
    """
    order_cols = [value] + ([tiebreak] if tiebreak else [])
    asc = [not descending] + ([True] if tiebreak else [])

    def local(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return df.sort_values(order_cols, ascending=asc, kind="mergesort") \
            .groupby(keys, sort=False).head(k)

    partial = ds.map_batches(local, batch_format="pandas")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return local(g)

    return grouped_apply_bucketed(partial, keys, final)


# ---------------------------------------------------------------------------
# bloom-filter semi join (scale path for big-side filtering when the
# filter side's key SET is too large to broadcast exactly but a bitmap
# fits: build is shuffle-free mergeable partials like the HLL sketch,
# the prefilter is map-only, and the surviving minority flows through
# an exact join to remove false positives — SURVEY §2.4 J4 "at scale")


def _bloom_positions(h1: np.ndarray, num_bits: int, k: int) -> np.ndarray:
    """Kirsch–Mitzenmacher double hashing: pos_i = h1 + i*h2 (mod bits).
    h2 is forced odd so the probe sequence cycles the whole table."""
    from .sources.synth import splitmix64

    with np.errstate(over="ignore"):
        h2 = splitmix64(h1 ^ np.uint64(0xA5A5A5A55A5A5A5A)) | np.uint64(1)
        i = np.arange(k, dtype=np.uint64)[:, None]
        return ((h1[None, :] + i * h2[None, :]) % np.uint64(num_bits)).ravel()


def bloom_build(ds: ray.data.Dataset, col: str,
                num_bits: int = 1 << 20, k: int = 4) -> np.ndarray:
    """Build a Bloom filter over ``col`` distributively: each batch
    sets bits in a LOCAL bitmap and ships one ``num_bits/8``-byte
    binary row; bitmaps OR-merge on the driver (mergeable and
    shuffle-free, same shape as ``approx_distinct``). Returns the
    merged uint64 word array — broadcast it with ``ray.put`` (flat
    numpy ships zero-copy)."""
    nwords = (num_bits + 63) // 64

    def partial(t: pa.Table) -> pa.Table:
        words = np.zeros(nwords, dtype=np.uint64)
        if t.num_rows:
            is_int = pa.types.is_integer(t.column(col).type)
            h1 = _bucket_hash(
                t.column(col).to_numpy() if is_int
                else t.column(col).to_pylist(), is_int)
            pos = _bloom_positions(h1, num_bits, k)
            np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (pos & np.uint64(63)))
        return pa.table({"bloom": pa.array([words.tobytes()], pa.binary())})

    merged = np.zeros(nwords, dtype=np.uint64)
    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    for t in _tables(parts):
        if "bloom" not in t.schema.names:  # schemaless empty block
            continue
        for b in t.column("bloom").to_pylist():
            merged |= np.frombuffer(b, dtype=np.uint64)
    return merged


def bloom_prefilter(big: ray.data.Dataset, key: str, words: np.ndarray,
                    num_bits: int = 1 << 20, k: int = 4) -> ray.data.Dataset:
    """Map-only Bloom prefilter: keeps every true match plus a false-
    positive minority (rate ~(1-e^{-kn/m})^k). Pair with an exact join
    on the survivors for exactness."""
    ref = ray.put(words)

    def filt(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        words_ = ray.get(ref)
        is_int = pa.types.is_integer(t.column(key).type)
        h1 = _bucket_hash(
            t.column(key).to_numpy() if is_int
            else t.column(key).to_pylist(), is_int)
        pos = _bloom_positions(h1, num_bits, k).reshape(k, -1)
        hit = np.ones(t.num_rows, dtype=bool)
        for i in range(k):
            p = pos[i]
            bits = (words_[(p >> np.uint64(6)).astype(np.int64)]
                    >> (p & np.uint64(63))) & np.uint64(1)
            hit &= bits.astype(bool)
        return t.filter(pa.array(hit))

    return big.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# pivot / rollup / lag / grouped concat / mode — relational extensions
# with the same partial-before-shuffle discipline as grouped_agg


def pivot_sum(ds: ray.data.Dataset, key: str, pivot_col: str,
              value_col: str, categories: list[str],
              out_names: list[str] | None = None) -> ray.data.Dataset:
    """PIVOT as conditional aggregation (SUM(CASE WHEN pivot=cat THEN v
    END) per category): per batch each category becomes a masked value
    column and ONE Arrow hash-agg emits per-key partials, so the
    exchange moves |keys|x|cats| partial sums — never rows. Values
    should be integer-scaled (add_cents) for order-exact sums."""
    out_names = out_names or [f"{value_col}_{c}" for c in categories]

    def partial(t: pa.Table) -> pa.Table:
        cols = {key: t[key]}
        for cat, name in zip(categories, out_names):
            m = pc.equal(t[pivot_col], cat)
            cols[name] = pc.if_else(m, t[value_col],
                                    pa.scalar(0, t[value_col].type))
        return pa.table(cols)

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(pre, [key], sum_cols=out_names, count=False)


def rollup_counts(ds: ray.data.Dataset, keys: list[str],
                  sum_cols: list[str] | None = None,
                  sentinel: str = "*") -> ray.data.Dataset:
    """GROUP BY ROLLUP(keys): counts (and optional exact integer sums)
    at every prefix level, coarser levels marked with ``sentinel`` in
    the rolled-up key columns (string keys only — a sentinel, not NULL,
    so the result hash-partitions and compares deterministically).

    Single pass: each batch computes the FINEST partial with one Arrow
    hash-agg, then re-aggregates that tiny partial per coarser level
    driver-side-free inside the same task — the shuffle moves
    |groups|x|levels| partial rows."""
    sum_cols = sum_cols or []

    def partial(t: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sum_cols] + [([], "count_all")]
        fine = t.group_by(keys).aggregate(aggs)
        ren = {f"{c}_sum": c for c in sum_cols}
        ren["count_all"] = "__cnt"
        fine = fine.rename_columns([ren.get(n, n) for n in fine.column_names])
        levels = [fine]
        cur = fine
        for i in range(len(keys) - 1, -1, -1):
            # roll level i up: re-aggregate the previous (tiny) partial
            gk = keys[:i]
            aggs2 = [(c, "sum") for c in sum_cols] + [("__cnt", "sum")]
            if gk:
                up = cur.group_by(gk).aggregate(aggs2)
            else:
                up = pa.table({f"{c}_sum": [pc.sum(cur[c]).as_py() or 0]
                               for c in sum_cols}
                              | {"__cnt_sum": [pc.sum(cur["__cnt"]).as_py() or 0]})
            ren2 = {f"{c}_sum": c for c in sum_cols}
            ren2["__cnt_sum"] = "__cnt"
            up = up.rename_columns([ren2.get(n, n) for n in up.column_names])
            for j in range(i, len(keys)):
                up = up.append_column(
                    keys[j], pa.array([sentinel] * up.num_rows, pa.string())) \
                    if keys[j] not in up.column_names else up
            up = up.select([*keys, *sum_cols, "__cnt"])
            levels.append(up)
            cur = up
        fine = fine.select([*keys, *sum_cols, "__cnt"])
        levels[0] = fine
        return pa.concat_tables(levels)

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    aggs = [Sum(c, alias_name=c) for c in sum_cols] + [Sum("__cnt", alias_name="n")]
    return partials.groupby(keys).aggregate(*aggs)


def lag_delta(ds: ray.data.Dataset, key: str, ts: str, tiebreak: str,
              out: str = "delta", keep: list[str] | None = None) -> ray.data.Dataset:
    """Per-key LAG difference: for each key's rows ordered by
    (ts, tiebreak), emit ts - lag(ts) for every row but the first
    (inner semantics — the NULL first row is dropped so output dtypes
    stay exact int64). One hash-bucket shuffle on the key; the sort is
    per key inside the bucket (grouped_apply_bucketed), never global."""
    keep = keep or []

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return g.assign(**{out: np.array([], dtype=np.int64)})
        g = g.sort_values([ts, tiebreak], kind="mergesort")
        d = g[ts].to_numpy()
        g = g.assign(**{out: np.concatenate([d[:1] * 0, d[1:] - d[:-1]])})
        return g.iloc[1:]

    slim = ds.select_columns(list(dict.fromkeys([key, ts, tiebreak, *keep])))
    return grouped_apply_bucketed(slim, [key], per_key)


def grouped_concat(ds: ray.data.Dataset, keys: list[str], col: str,
                   sep: str = ",", out: str | None = None) -> ray.data.Dataset:
    """string_agg(DISTINCT col, sep ORDER BY col) per key group:
    a distinct pre-pass first (the shuffle moves unique (keys, col)
    rows only), then whole-bucket sorted joins."""
    out = out or f"{col}_list"
    uniq = distinct(ds.select_columns([*keys, col]), [*keys, col])

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        vals = sorted(g[col].astype(str))
        first = g.iloc[:1][keys].copy()
        first[out] = sep.join(vals)
        return first

    return grouped_apply_bucketed(uniq, keys, per_key)


def grouped_mode(ds: ray.data.Dataset, keys: list[str],
                 col: str) -> ray.data.Dataset:
    """Most frequent ``col`` value per key group (ties break on the
    smallest value — deterministic). Composition: partial-agg counts
    per (keys, col), then grouped top-1 by count — both stages move
    partials only."""
    counts = grouped_agg(ds.select_columns([*keys, col]), [*keys, col],
                         count=True)
    return grouped_topk(counts, keys, "n", k=1, descending=True,
                        tiebreak=col)


def grouped_nunique(ds: ray.data.Dataset, keys: list[str], col: str,
                    out: str = "n", num_buckets: int = 64) -> ray.data.Dataset:
    """Exact COUNT(DISTINCT col) per key group in ONE shuffle: each
    batch locally dedups (keys, col) with Arrow's hash kernel (the
    exchange moves unique rows only), buckets on hash(keys), and each
    bucket counts uniques with one vectorized pandas pass — not a
    chained distinct + grouped_agg (two sort shuffles, measured 3×
    slower at sf0.01)."""

    def local(t: pa.Table) -> pa.Table:
        u = t.select([*keys, col]).group_by([*keys, col]).aggregate([])
        df = u.to_pandas()
        hcols = [_bucket_hash(df[k].to_numpy(),
                              pd.api.types.is_integer_dtype(df[k]))
                 for k in keys]
        h = hcols[0].copy()
        for extra in hcols[1:]:
            h ^= extra
        return pa.Table.from_pandas(
            df.assign(__bucket=(h % np.uint64(num_buckets)).astype(np.int32)),
            preserve_index=False)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        u = g.drop_duplicates([*keys, col])
        res = u.groupby(keys, as_index=False, sort=False).size() \
               .rename(columns={"size": out})
        res[out] = res[out].astype(np.int64)
        return res

    pre = ds.select_columns([*keys, col]).map_batches(
        local, batch_format="pyarrow", zero_copy_batch=True)
    return pre.groupby("__bucket").map_groups(per_bucket, batch_format="pandas")


def grouped_approx_distinct(ds: ray.data.Dataset, keys: list[str], col: str,
                            out: str = "n_distinct") -> ray.data.Dataset:
    """Per-group COUNT(DISTINCT) via mergeable sparse/dense HLL
    sketches — the at-scale shape for high-cardinality counts
    (distinct users per day over 10¹² events): each batch ships ONE
    serialized sketch per key it saw (bounded by kernels/sketch.py
    SPARSE_MAX), the key-bucket shuffle moves sketches instead of
    values, and each group merges its sketches with no global
    all-to-all of the content column. EXACT below SPARSE_MAX distinct
    values per group (sparse regime keeps the bijective-hashed value
    set); ~1.6% past it."""
    from .kernels import sketch

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = {k: [] for k in keys}
        sks = []
        if len(df):
            for kv, sub in df.groupby(keys, sort=False):
                kv = kv if isinstance(kv, tuple) else (kv,)
                for k, v in zip(keys, kv):
                    cols[k].append(v)
                vals = sub[col].to_numpy()
                if not np.issubdtype(vals.dtype, np.integer):
                    vals = sub[col].astype(str).tolist()
                sks.append(sketch.state_serialize(
                    sketch.state_add(sketch.state_empty(), vals)))
        out_df = pd.DataFrame(cols)
        out_df["__sk"] = pd.Series(sks, dtype=object)
        return out_df

    pre = ds.select_columns([*keys, col]).map_batches(
        partial, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        st = sketch.state_empty()
        for b in g["__sk"]:
            st = sketch.state_merge(st, sketch.state_deserialize(b))
        first = g.iloc[:1][keys].copy()
        first[out] = np.int64(round(sketch.state_estimate(st)))
        return first

    return grouped_apply_bucketed(pre, keys, merge)


def unnest(ds: ray.data.Dataset, list_col: str, keep: list[str],
           out: str | None = None) -> ray.data.Dataset:
    """UNNEST a list column to one row per element, carrying ``keep``
    columns — vectorized with Arrow's list_flatten + parent_indices
    (one take per batch, no Python row loop). Map-only: the explode
    happens inside the batch, so downstream aggregations still see the
    partial-before-shuffle discipline."""
    out = out or list_col

    def f(t: pa.Table) -> pa.Table:
        flat = pc.list_flatten(t[list_col])
        parents = pc.list_parent_indices(t[list_col])
        cols = {k: pc.take(t[k], parents) for k in keep}
        cols[out] = flat
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def histogram_int(ds: ray.data.Dataset, col: str, width: int,
                  out: str = "bin") -> ray.data.Dataset:
    """Exact integer histogram: bin = floor_div(col, width) computed
    per batch, counts via grouped_agg partials — one tiny shuffle of
    (bin, count) partials regardless of data size. ``col`` must be an
    exact integer column (add_cents floats first)."""

    def f(t: pa.Table) -> pa.Table:
        b = np.floor_divide(t[col].to_numpy(), np.int64(width))
        return pa.table({out: pa.array(b, pa.int64())})

    pre = ds.select_columns([col]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(pre, [out], count=True)

def grouped_moments(ds: ray.data.Dataset, keys: list[str], x: str,
                    y: str | None = None) -> ray.data.Dataset:
    """Grouped second-moment aggregates (population variance; with
    ``y``: covariance + Pearson correlation), shuffle-light.

    The reference funnels every aggregate through embedded DuckDB
    (load.py:141-160 style GROUP BYs); here the partial pass emits one
    (n, Σx, Σx² [, Σy, Σy², Σxy]) row per key per batch, so the
    exchange moves O(|keys|) partials — the same discipline as
    ``grouped_agg``. Inputs must be exact integer columns (``add_cents``
    floats first): the partials are then exact int64 and the derived
    moments are reproducible bit-for-bit.

    Derived outputs are micro-scaled int64 with DuckDB-mirroring float64
    op order, so an oracle can recompute them verbatim:

        var_micro  = ROUND(1e6 * (CAST(n AS DOUBLE)*sxx - CAST(sx AS DOUBLE)*sx)
                            / (CAST(n AS DOUBLE)*n))
        cov_micro  = ROUND(1e6 * (n*sxy - sx*sy) / (n*n))          (same casts)
        corr_micro = ROUND(1e6 * (n*sxy - sx*sy)
                            / SQRT((n*sxx - sx*sx) * (n*syy - sy*sy)))

    (IEEE sqrt/×/÷ are correctly rounded, so numpy and DuckDB agree
    bit-for-bit when the op order matches.)
    """
    pair = y is not None

    def partial(t: pa.Table) -> pa.Table:
        cols = {k: t[k] for k in keys}
        xv = t[x].to_numpy()
        cols["__x"] = pa.array(xv, pa.int64())
        cols["__xx"] = pa.array(xv * xv, pa.int64())
        if pair:
            yv = t[y].to_numpy()
            cols["__y"] = pa.array(yv, pa.int64())
            cols["__yy"] = pa.array(yv * yv, pa.int64())
            cols["__xy"] = pa.array(xv * yv, pa.int64())
        g = pa.table(cols).group_by(keys).aggregate(
            [(c, "sum") for c in cols if c.startswith("__")] + [([], "count_all")])
        ren = {f"{c}_sum": c for c in cols if c.startswith("__")}
        ren["count_all"] = "__n"
        return g.rename_columns([ren.get(n, n) for n in g.column_names])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    moment_cols = ["__x", "__xx"] + (["__y", "__yy", "__xy"] if pair else []) + ["__n"]
    agg = partials.groupby(keys).aggregate(
        *[Sum(c, alias_name=c) for c in moment_cols])

    def finish(t: pa.Table) -> pa.Table:
        n = t["__n"].to_numpy().astype(np.float64)
        sx = t["__x"].to_numpy().astype(np.float64)
        sxx = t["__xx"].to_numpy().astype(np.float64)
        var_num = n * sxx - sx * sx
        out = {k: t[k] for k in keys}
        out["n"] = pa.array(t["__n"].to_numpy(), pa.int64())
        out["sum_x"] = pa.array(t["__x"].to_numpy(), pa.int64())
        out["var_micro"] = pa.array(round_half_away(1e6 * var_num / (n * n)).astype(np.int64))
        if pair:
            sy = t["__y"].to_numpy().astype(np.float64)
            syy = t["__yy"].to_numpy().astype(np.float64)
            sxy = t["__xy"].to_numpy().astype(np.float64)
            cov_num = n * sxy - sx * sy
            out["sum_y"] = pa.array(t["__y"].to_numpy(), pa.int64())
            out["cov_micro"] = pa.array(round_half_away(1e6 * cov_num / (n * n)).astype(np.int64))
            denom = np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = np.where(denom > 0.0, 1e6 * cov_num / denom, 0.0)
            out["corr_micro"] = pa.array(round_half_away(corr).astype(np.int64))
        return pa.table(out)

    return agg.map_batches(finish, batch_format="pyarrow")

def grouped_percentiles(ds: ray.data.Dataset, keys: list[str], col: str,
                        ps: tuple = (0.25, 0.5, 0.75),
                        num_buckets: int = 64) -> ray.data.Dataset:
    """Exact grouped percentiles with PERCENTILE_DISC semantics: the
    smallest actual element whose cumulative fraction ≥ p (index
    ceil(p·n)−1 in sorted order) — deterministic, no interpolation.

    One keyed-hash shuffle co-locates each group, then the bucket is
    processed in ONE vectorized pass: sort by (keys, col), compute group
    offsets, gather the percentile positions — no per-group Python.
    Scale: the shuffle moves only (keys, col) slim rows; a single
    group's rows must fit one task (same assumption as any exact
    per-group order statistic; use approx_quantiles for sketched)."""
    ps = tuple(ps)

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        out_cols = keys + ["n"] + [f"p{int(round(p * 100)):02d}" for p in ps]
        if not len(g):
            return pd.DataFrame({c: pd.Series(dtype="int64") if c not in keys
                                 else pd.Series(dtype=g[c].dtype if c in g else "object")
                                 for c in out_cols})
        g = g.sort_values(keys + [col], kind="mergesort", ignore_index=True)
        sizes = g.groupby(keys, sort=False)[col].size().to_numpy()
        offs = np.concatenate(([0], np.cumsum(sizes)))[:-1]
        vals = g[col].to_numpy()
        heads = g.iloc[offs][keys].reset_index(drop=True)
        res = {k: heads[k] for k in keys}
        res["n"] = sizes.astype(np.int64)
        for p in ps:
            idx = offs + np.ceil(p * sizes).astype(np.int64) - 1
            res[f"p{int(round(p * 100)):02d}"] = vals[np.maximum(idx, offs)]
        return pd.DataFrame(res)

    slim = ds.select_columns(keys + [col])
    return grouped_apply_bucketed(slim, keys, bucket_fn,
                                  num_buckets=num_buckets, whole_bucket=True)


def window_rank(ds: ray.data.Dataset, keys: list[str], order: str,
                tiebreak: str, descending: bool = True,
                max_rank: int | None = None,
                num_buckets: int = 64) -> ray.data.Dataset:
    """ROW_NUMBER / RANK / DENSE_RANK over (PARTITION BY keys ORDER BY
    order [DESC], tiebreak) — one keyed shuffle, then vectorized pandas
    groupby ranks per bucket (C-speed, no per-group dispatch).

    ``max_rank`` filters to row_number ≤ max_rank inside the bucket so
    the output (and any downstream exchange) stays bounded per group —
    the windowed analog of ``grouped_topk``, but emitting all three
    rank flavors so ties are observable."""

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + [order, tiebreak], kind="mergesort",
                          ascending=[True] * len(keys) + [not descending, True],
                          ignore_index=True)
        if len(g):
            grp = g.groupby(keys, sort=False)
            g["row_number"] = (grp.cumcount() + 1).astype(np.int64)
            g["rank"] = grp[order].rank(
                method="min", ascending=not descending).astype(np.int64)
            g["dense_rank"] = grp[order].rank(
                method="dense", ascending=not descending).astype(np.int64)
            if max_rank is not None:
                g = g[g["row_number"] <= max_rank].reset_index(drop=True)
        else:
            for c in ("row_number", "rank", "dense_rank"):
                g[c] = pd.Series(dtype="int64")
        return g

    slim = ds.select_columns(list(dict.fromkeys(keys + [order, tiebreak])))
    return grouped_apply_bucketed(slim, keys, bucket_fn,
                                  num_buckets=num_buckets, whole_bucket=True)


def running_sum(ds: ray.data.Dataset, key: str, order: str, val: str,
                tiebreak: str, num_buckets: int = 64) -> ray.data.Dataset:
    """Per-key ordered prefix sum (SUM OVER ROWS UNBOUNDED PRECEDING):
    one keyed shuffle, then a single vectorized groupby().cumsum() per
    bucket. ``val`` must be exact integer (cents) so the running total
    is order-independent-exact and oracle-reproducible."""

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order, tiebreak], kind="mergesort",
                          ignore_index=True)
        g["running"] = (g.groupby(key, sort=False)[val].cumsum()
                        if len(g) else pd.Series(dtype="int64"))
        g["running"] = g["running"].astype(np.int64, errors="ignore")
        return g

    slim = ds.select_columns(list(dict.fromkeys([key, order, val, tiebreak])))
    return grouped_apply_bucketed(slim, [key], bucket_fn,
                                  num_buckets=num_buckets, whole_bucket=True)


def set_op(left: ray.data.Dataset, right: ray.data.Dataset,
           keys: list[str], op: str = "intersect",
           num_buckets: int = 64) -> ray.data.Dataset:
    """Distinct-tuple INTERSECT / EXCEPT on ``keys`` — the two inputs
    are tagged with a side bit and unioned, so ONE keyed-hash shuffle
    co-locates every occurrence of a tuple; per bucket a vectorized
    drop_duplicates + presence test resolves membership. SQL bag
    semantics for INTERSECT/EXCEPT (both are set-distinct in ANSI
    default) are matched exactly; no driver materialization."""
    if op not in ("intersect", "except"):
        raise ValueError(op)

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.select(keys)
            return t.append_column("__side", pa.array(
                np.full(t.num_rows, side, dtype=np.int8)))
        return f

    both = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow"))

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(keys + ["__side"])
        piv = d.groupby(keys, sort=False)["__side"].agg(["min", "max"]).reset_index()
        if op == "intersect":
            keep = piv[(piv["min"] == 0) & (piv["max"] == 1)]
        else:
            keep = piv[(piv["min"] == 0) & (piv["max"] == 0)]
        return keep[keys].reset_index(drop=True)

    return grouped_apply_bucketed(both, keys, bucket_fn,
                                  num_buckets=num_buckets, whole_bucket=True)


def band_join(big: ray.data.Dataset, bins: pa.Table, value_col: str,
              low_col: str, high_col: str,
              label_cols: list[str]) -> ray.data.Dataset:
    """Inner join each row to the [low, high) band containing its
    value — the warehouse tier/banding lookup. The band table is
    broadcast once (``ray.put``) as FLAT sorted numpy arrays and every
    batch resolves membership with ONE ``searchsorted`` — no shuffle,
    no per-row predicate, O(log #bands) per row. Bands must be
    non-overlapping (validated once at build)."""
    order = pc.sort_indices(bins, sort_keys=[(low_col, "ascending")])
    bins = bins.take(order)
    lows = bins[low_col].to_numpy()
    highs = bins[high_col].to_numpy()
    if (highs < lows).any() or (lows[1:] < highs[:-1]).any():
        raise ValueError("bands must be sorted and non-overlapping")
    payload = {c: bins[c].to_numpy(zero_copy_only=False) for c in label_cols}
    ref = ray.put((lows, highs, payload))

    def band(t: pa.Table) -> pa.Table:
        lows_, highs_, payload_ = ray.get(ref)
        v = t[value_col].to_numpy()
        idx = np.searchsorted(lows_, v, side="right") - 1
        ok = (idx >= 0) & (v < highs_[np.clip(idx, 0, None)])
        idx = idx[ok]
        t = t.filter(pa.array(ok))
        cols = {c: t[c] for c in t.column_names}
        for c, arr in payload_.items():
            cols[c] = pa.array(arr[idx])
        return pa.table(cols)

    return big.map_batches(band, batch_format="pyarrow", zero_copy_batch=True)


def grouped_arg_extreme(ds: ray.data.Dataset, keys: list[str], order: str,
                        payload: str, mode: str = "max") -> ray.data.Dataset:
    """Per group, the payload at the extreme of ``order`` —
    FIRST_VALUE/arg_max as a MERGEABLE aggregate: each batch reduces to
    one (keys, order, payload) row per group (vectorized sort +
    drop_duplicates), the exchange moves only those partials, and the
    final pass re-reduces per bucket. Ties on ``order`` break toward
    the extreme ``payload`` (lexicographic (order, payload)), so the
    result is deterministic and SQL-expressible."""
    asc = mode == "min"
    if mode not in ("min", "max"):
        raise ValueError(mode)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return b
        b = b.sort_values(keys + [order, payload], kind="mergesort",
                          ascending=[True] * len(keys) + [asc, asc])
        return b.drop_duplicates(keys, keep="first")

    slim = ds.select_columns(list(dict.fromkeys(keys + [order, payload])))
    partials = slim.map_batches(partial, batch_format="pandas")
    return grouped_apply_bucketed(partials, keys, partial, num_buckets=32,
                                  whole_bucket=True)


def grouped_zscore(ds: ray.data.Dataset, keys: list[str], x: str,
                   id_cols: list[str]) -> ray.data.Dataset:
    """Per-row population z-score against the row's group — the
    training-pipeline feature standardization — WITHOUT a row shuffle:
    phase 1 computes exact int64 (n, Σx, Σx²) per group (tiny result),
    phase 2 broadcasts them (``ray.put``) and a task map merges them
    onto the rows and standardizes.

    Emitted as z_micro = ROUND(1e6·(n·x − Σx)/√(n·Σx² − Σx²-term)) —
    integer-exact inputs, one float64 expression, oracle-reproducible.
    Constant groups (zero variance) emit z_micro = 0."""

    def stat_partial(t: pa.Table) -> pa.Table:
        xv = t[x].to_numpy()
        cols = {k: t[k] for k in keys}
        cols["__x"] = pa.array(xv, pa.int64())
        cols["__xx"] = pa.array(xv * xv, pa.int64())
        g = pa.table(cols).group_by(keys).aggregate(
            [("__x", "sum"), ("__xx", "sum"), ([], "count_all")])
        return g.rename_columns(keys + ["__x", "__xx", "__n"])

    slim = ds.select_columns(list(dict.fromkeys(keys + [x] + id_cols)))
    stats = slim.select_columns(keys + [x]).map_batches(
        stat_partial, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby(keys).aggregate(Sum("__x", alias_name="__sx"),
                                 Sum("__xx", alias_name="__sxx"),
                                 Sum("__n", alias_name="__n")).to_pandas()
    ref = ray.put(stats)

    def standardize(b: pd.DataFrame) -> pd.DataFrame:
        # a left merge keeps the batch's row order and, unlike an Arrow
        # join, matches a null key to its group
        b = b[id_cols + keys + [x]].merge(ray.get(ref), on=keys, how="left")
        n, sx, sxx = (b[c].to_numpy(np.float64)
                      for c in ("__n", "__sx", "__sxx"))
        xv = b[x].to_numpy().astype(np.float64)
        denom = np.sqrt(n * sxx - sx * sx)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(denom > 0.0, 1e6 * (n * xv - sx) / denom, 0.0)
        b["z_micro"] = round_half_away(z).astype(np.int64)
        return b.drop(columns=["__n", "__sx", "__sxx"])

    return slim.map_batches(standardize, batch_format="pandas")


def approx_top_k(ds: ray.data.Dataset, col: str, k: int,
                 capacity: int | None = None) -> pd.DataFrame:
    """Heavy hitters via mergeable Misra–Gries summaries: one ≤capacity
    counter table per batch, merged on the driver — shuffle-free like
    ``approx_distinct``/``approx_quantiles``, the 100 TB top-k shape
    when an exact groupby would shuffle the whole column. Counts are
    within N/(capacity+1) of truth always, and EXACT whenever the
    column's distinct count stays ≤ capacity (the oracle-checked
    regime). Output: (value, n) top-k by count desc, value asc."""
    from .kernels import sketch

    cap = capacity or sketch.MG_CAPACITY

    def partial(t: pa.Table) -> pa.Table:
        st = sketch.mg_add(sketch.mg_empty(),
                           t.column(col).to_numpy(zero_copy_only=False), cap)
        # the null column carries the input's Arrow type to the driver
        return pa.table({"mg": pa.array([sketch.mg_serialize(st)], pa.binary()),
                         "typ": pa.nulls(1, t.column(col).type)})

    parts = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)
    st = sketch.mg_empty()
    typ = pa.null()
    for t in _tables(parts):
        if "mg" not in t.schema.names:
            continue
        typ = t.schema.field("typ").type
        for b in t.column("mg").to_pylist():
            st = sketch.mg_merge(st, sketch.mg_deserialize(b), cap)
    items, counts = sketch.mg_topk(st, k)
    # MG summaries hold items as object dtype; restore the column's
    # Arrow type so the driver's dtype-sensitive hash matches
    return pa.table({col: pa.array(items.tolist(), typ),
                     "n": pa.array(counts, pa.int64())}).to_pandas()


def cms_key_counts(ds: ray.data.Dataset, col: str, width: int = 2048,
                   depth: int = 4) -> pd.DataFrame:
    """Per-key frequency estimates through mergeable count-min sketches
    (kernels/sketch.py cms_*): one fixed-size (depth × width) counter
    matrix per batch, elementwise-summed on the driver — shuffle-free
    like ``approx_top_k``'s Misra–Gries, but answering POINT frequency
    queries for every observed key instead of top-k membership.
    Estimates are upper bounds, EXACT when some row is collision-free
    for the key — guaranteed in the oracle-checked regime (distinct
    keys << width). Output: (col, est) for every distinct key, sorted.

    The distinct-key list rides the same pass as one per-batch unique
    set (vocabulary-bounded); at open-key scale the caller would query
    specific keys instead of enumerating."""
    from .kernels import sketch

    def partial(t: pa.Table) -> pa.Table:
        vals = t.column(col).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(vals, return_inverse=True)
        cnt = np.bincount(inv).astype(np.int64)
        h = _bucket_hash(uniq, pa.types.is_integer(t.schema.field(col).type))
        sk = sketch.cms_add_hashed(sketch.cms_empty(width, depth), h, cnt)
        import pickle
        return pa.table({"sk": pa.array([pickle.dumps((sk, uniq.tolist()))],
                                        pa.binary()),
                         "typ": pa.nulls(1, t.column(col).type)})

    parts = ds.select_columns([col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)
    import pickle
    sk = sketch.cms_empty(width, depth)
    keys: set = set()
    for t in _tables(parts):
        if "sk" not in t.schema.names:
            continue
        typ = t.schema.field("typ").type
        for b in t.column("sk").to_pylist():
            s_, u_ = pickle.loads(b)
            sk = sketch.cms_merge(sk, s_)
            keys.update(u_)
    uniq = np.array(sorted(keys), dtype=object)
    if not len(uniq):
        return pd.DataFrame({col: pd.Series([], dtype=object),
                             "est": pd.Series([], dtype=np.int64)})
    is_int = all(isinstance(u, (int, np.integer)) for u in uniq)
    h = _bucket_hash(uniq if not is_int else uniq.astype(np.int64), is_int)
    est = sketch.cms_query_hashed(sk, h)
    return pa.table({col: pa.array(uniq.tolist(), typ),
                     "est": pa.array(est, pa.int64())}).to_pandas()


def skyline(ds: ray.data.Dataset, x: str, y: str) -> pd.DataFrame:
    """2-D Pareto frontier over distinct (x, y) points, maximizing
    both: a point survives iff no other point is ≥ in both dims and
    > in one. Local skylines are a superset of the global one, so each
    block prunes independently (one sort + cummax scan, vectorized) and
    only candidates — O(expected sqrt/log of block size) for
    non-degenerate data — reach the driver merge, which reruns the
    same scan. No global sort, no pairwise O(n²) anywhere."""

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates([x, y]) \
               .sort_values([x, y], ascending=False, kind="stable") \
               .reset_index(drop=True)
        if not len(df):
            return df
        v = df[y].to_numpy()
        best = np.maximum.accumulate(v)
        keep = np.empty(len(v), bool)
        keep[0] = True
        keep[1:] = v[1:] > best[:-1]
        return df[keep]

    def local(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(scan(t.select([x, y]).to_pandas()),
                                    preserve_index=False)

    cand = ds.map_batches(local, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas()
    return scan(cand).reset_index(drop=True)


def funnel_counts(events: ray.data.Dataset, key: str, ts_col: str,
                  type_col: str, stages: list[str],
                  num_buckets: int = 64) -> pd.DataFrame:
    """Ordered-funnel analysis: how many distinct ``key``s reached
    stage i, where stage 0 is the key's earliest ``stages[0]`` event
    and stage i requires a ``stages[i]`` event STRICTLY after the
    key's stage-(i-1) time. One keyed-hash shuffle of the prefiltered
    (key, ts, type) rows co-locates each key; inside a bucket the
    whole cascade is pandas groupby-min merges (no per-key loop); each
    bucket emits ≤ len(stages) partial count rows, so the reduce is a
    driver-side O(stages × buckets) sum."""
    stage_set = set(stages)

    def pre(t: pa.Table) -> pa.Table:
        t = t.select([key, ts_col, type_col])
        return t.filter(pc.is_in(t[type_col],
                                 value_set=pa.array(sorted(stage_set))))

    slim = events.map_batches(pre, batch_format="pyarrow",
                              zero_copy_batch=True)

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        reached = g[g[type_col] == stages[0]].groupby(key)[ts_col].min()
        counts = [len(reached)]
        for s in stages[1:]:
            ev = g[g[type_col] == s][[key, ts_col]]
            ev = ev.merge(reached.rename("__prev"), left_on=key,
                          right_index=True)
            ev = ev[ev[ts_col] > ev["__prev"]]
            reached = ev.groupby(key)[ts_col].min()
            counts.append(len(reached))
        return pd.DataFrame({
            "stage": pd.Series(range(1, len(stages) + 1), dtype="int64"),
            "n_users": pd.Series(counts, dtype="int64")})

    parts = grouped_apply_bucketed(slim, [key], bucket_fn,
                                   num_buckets=num_buckets,
                                   whole_bucket=True).to_pandas()
    if not len(parts):
        return pd.DataFrame({"stage": pd.Series(range(1, len(stages) + 1),
                                                dtype="int64"),
                             "n_users": pd.Series([0] * len(stages),
                                                  dtype="int64")})
    out = parts.groupby("stage", as_index=False)["n_users"].sum()
    return out.sort_values("stage").reset_index(drop=True)


def cohort_retention(events: ray.data.Dataset, key: str, ts_col: str,
                     bucket_us: int = 7 * 86400 * 1_000_000,
                     num_buckets: int = 64) -> pd.DataFrame:
    """Cohort-retention matrix: cohort(u) = floor(first event time /
    bucket), and for each (cohort, offset) count the distinct keys
    active ``offset`` buckets after their cohort bucket.

    Shape at scale: ONE keyed-hash shuffle of slim (key, ts) rows
    co-locates each key; inside a bucket the first-event time, bucket
    offsets, and per-key distinct activity are all vectorized pandas;
    each bucket emits only its |cohorts|x|offsets| partial counts, so
    the reduce is a driver-side sum over a tiny matrix (the same
    partial-count shape as funnel_counts)."""
    slim = events.select_columns([key, ts_col]).map_batches(
        lambda t: pa.table({key: t[key],
                            "__ts": t.column(ts_col).cast(pa.int64())}),
        batch_format="pyarrow")

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        t0 = g.groupby(key)["__ts"].transform("min")
        cohort = t0.to_numpy() // bucket_us
        off = g["__ts"].to_numpy() // bucket_us - cohort
        d = pd.DataFrame({key: g[key].to_numpy(), "cohort": cohort,
                          "offs": off}).drop_duplicates()
        out = d.groupby(["cohort", "offs"], as_index=False).size()
        return pd.DataFrame({"cohort": out["cohort"].astype("int64"),
                             "offs": out["offs"].astype("int64"),
                             "n_users": out["size"].astype("int64")})

    parts = grouped_apply_bucketed(slim, [key], bucket_fn,
                                   num_buckets=num_buckets,
                                   whole_bucket=True).to_pandas()
    if not len(parts):
        return pd.DataFrame({"cohort": pd.Series([], dtype="int64"),
                             "offs": pd.Series([], dtype="int64"),
                             "n_users": pd.Series([], dtype="int64")})
    out = parts.groupby(["cohort", "offs"], as_index=False)["n_users"].sum()
    return out.sort_values(["cohort", "offs"]).reset_index(drop=True)


def cube_counts(ds: ray.data.Dataset, keys: list[str],
                sum_cols: list[str] | None = None,
                sentinel: str = "*") -> ray.data.Dataset:
    """GROUP BY CUBE(keys): counts (and optional exact integer sums)
    for EVERY subset of the key columns, rolled-up columns marked with
    ``sentinel`` (string keys only — same convention as rollup_counts).

    Same single-pass shape as rollup_counts: one fine Arrow hash-agg
    per batch, then the 2^|keys|-1 coarser levels re-aggregate that
    tiny partial inside the task, so the exchange moves
    |groups|x2^|keys| partial rows — no extra pass per level."""
    sum_cols = sum_cols or []
    masks = list(range((1 << len(keys)) - 1, -1, -1))

    def partial(t: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sum_cols] + [([], "count_all")]
        fine = t.group_by(keys).aggregate(aggs)
        ren = {f"{c}_sum": c for c in sum_cols}
        ren["count_all"] = "__cnt"
        fine = fine.rename_columns([ren.get(n, n) for n in fine.column_names])
        levels = []
        for m in masks:
            gk = [k for i, k in enumerate(keys) if m & (1 << i)]
            if len(gk) == len(keys):
                lvl = fine
            else:
                aggs2 = [(c, "sum") for c in sum_cols] + [("__cnt", "sum")]
                if gk:
                    lvl = fine.group_by(gk).aggregate(aggs2)
                else:
                    lvl = pa.table(
                        {f"{c}_sum": [pc.sum(fine[c]).as_py() or 0]
                         for c in sum_cols}
                        | {"__cnt_sum": [pc.sum(fine["__cnt"]).as_py() or 0]})
                ren2 = {f"{c}_sum": c for c in sum_cols}
                ren2["__cnt_sum"] = "__cnt"
                lvl = lvl.rename_columns(
                    [ren2.get(n, n) for n in lvl.column_names])
                for k in keys:
                    if k not in lvl.column_names:
                        lvl = lvl.append_column(
                            k, pa.array([sentinel] * lvl.num_rows, pa.string()))
            levels.append(lvl.select([*keys, *sum_cols, "__cnt"]))
        return pa.concat_tables(levels)

    partials = ds.select_columns(keys + sum_cols).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)
    aggs = [Sum(c, alias_name=c) for c in sum_cols]
    aggs.append(Sum("__cnt", alias_name="__cnt"))
    out = partials.groupby(keys).aggregate(*aggs)
    return out.map_batches(
        lambda t: t.rename_columns(
            ["n" if c == "__cnt" else c for c in t.column_names]),
        batch_format="pyarrow")


def grouped_percentiles_cont(ds: ray.data.Dataset, keys: list[str], col: str,
                             ps: tuple = (0.25, 0.5, 0.75),
                             num_buckets: int = 64) -> ray.data.Dataset:
    """Exact grouped percentiles with PERCENTILE_CONT (linear
    interpolation) semantics: h = p·(n−1); v = v[⌊h⌋] + (v[⌈h⌉] −
    v[⌊h⌋])·frac(h) — the formula DuckDB's quantile_cont and numpy's
    'linear' method share, so integer inputs hash float-identically.

    Same single-shuffle vectorized shape as grouped_percentiles (the
    DISC variant): sort bucket once, gather both bracketing order
    statistics per group, interpolate vectorized."""
    ps = tuple(ps)

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        pcols = [f"p{int(round(p * 100)):02d}" for p in ps]
        if not len(g):
            return pd.DataFrame(
                {**{k: pd.Series(dtype=g[k].dtype if k in g else "object")
                    for k in keys},
                 "n": pd.Series(dtype="int64"),
                 **{c: pd.Series(dtype="float64") for c in pcols}})
        g = g.sort_values(keys + [col], kind="mergesort", ignore_index=True)
        sizes = g.groupby(keys, sort=False)[col].size().to_numpy()
        offs = np.concatenate(([0], np.cumsum(sizes)))[:-1]
        vals = g[col].to_numpy().astype(np.float64)
        heads = g.iloc[offs][keys].reset_index(drop=True)
        res = {k: heads[k] for k in keys}
        res["n"] = sizes.astype(np.int64)
        for p, c in zip(ps, pcols):
            h = p * (sizes - 1)
            lo = np.floor(h).astype(np.int64)
            hi = np.ceil(h).astype(np.int64)
            vlo = vals[offs + lo]
            vhi = vals[offs + hi]
            res[c] = vlo + (vhi - vlo) * (h - lo)
        return pd.DataFrame(res)

    slim = ds.select_columns(keys + [col])
    return grouped_apply_bucketed(slim, keys, bucket_fn,
                                  num_buckets=num_buckets, whole_bucket=True)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """DuckDB-parity ROUND: half away from zero, either sign."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def grouped_vector_sums(ds: ray.data.Dataset, key: str, vec_col: str,
                        scale: int = 1_000_000) -> pd.DataFrame:
    """Per-group embedding centroid numerators: each float32 vector is
    scaled to exact integer micro-units (ROUND(v·scale), half-away —
    float32→float64 products are exact, so engine and SQL agree
    bit-for-bit) and summed per (group, dimension) with int64
    arithmetic. Output (key, dim 1-based, s_micro, n); the centroid is
    s_micro / (n·scale) downstream — kept as exact integers here so
    the result is oracle-hashable and mergeable.

    Scale shape: per-batch partial sums collapse each batch to
    |groups|×|dims| rows before the exchange (the classic per-class
    centroid / LDA / k-means-update step); vectors never shuffle."""

    def partial(t: pa.Table) -> pa.Table:
        lens = pc.list_value_length(t[vec_col]).to_numpy()
        if t.num_rows == 0 or lens.max(initial=0) == 0:
            return pa.table({key: pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "s_micro": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        d = int(lens.max())
        flat = pc.list_flatten(t[vec_col]).to_numpy().astype(np.float64)
        mat = flat.reshape(-1, d)  # ragged inputs would need masking
        mi = round_half_away(mat * float(scale)).astype(np.int64)
        ks = pc.cast(t[key], pa.int64()).to_numpy()
        df = pd.DataFrame(mi)
        df["__k"] = ks
        g = df.groupby("__k", sort=False)
        s = g.sum()
        n = g.size()
        out_k = np.repeat(s.index.to_numpy(), d)
        out_dim = np.tile(np.arange(1, d + 1, dtype=np.int64), len(s))
        return pa.table({key: pa.array(out_k, pa.int64()),
                         "dim": pa.array(out_dim, pa.int64()),
                         "s_micro": pa.array(s.to_numpy().ravel(), pa.int64()),
                         "n": pa.array(np.repeat(n.to_numpy(), d), pa.int64())})

    parts = ds.select_columns([key, vec_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    # each block already collapsed to |labels|x|dims| partial rows, so
    # the driver merge sums |blocks|x|labels|x|dims| ints — label
    # domains are class-sized; route through grouped_agg instead if a
    # caller ever has corpus-sized keys
    if not len(parts):
        return pd.DataFrame({key: pd.Series(dtype="int64"),
                             "dim": pd.Series(dtype="int64"),
                             "s_micro": pd.Series(dtype="int64"),
                             "n": pd.Series(dtype="int64")})
    out = parts.groupby([key, "dim"], as_index=False)[["s_micro", "n"]].sum()
    return out.sort_values([key, "dim"]).reset_index(drop=True)


def event_transitions(events: ray.data.Dataset, key: str, ts_col: str,
                      type_col: str, tiebreak: str,
                      num_buckets: int = 64) -> pd.DataFrame:
    """First-order Markov transition counts: for each key's event
    stream ordered by (ts, tiebreak), count (from_type → to_type)
    pairs of consecutive events. ONE keyed-hash shuffle co-locates
    each key; inside a bucket the successor is a vectorized shift
    (rows are sorted by (key, ts, tiebreak) once, a transition is
    valid iff adjacent rows share the key); each bucket emits ≤
    |types|² partial counts, so the reduce is a driver-side sum over
    a tiny matrix."""

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"from_type": pd.Series(dtype="object"),
                                 "to_type": pd.Series(dtype="object"),
                                 "n": pd.Series(dtype="int64")})
        g = g.sort_values([key, ts_col, tiebreak], kind="mergesort",
                          ignore_index=True)
        same = g[key].to_numpy()[:-1] == g[key].to_numpy()[1:]
        frm = g[type_col].to_numpy()[:-1][same]
        to = g[type_col].to_numpy()[1:][same]
        out = pd.DataFrame({"from_type": frm, "to_type": to}) \
            .groupby(["from_type", "to_type"], as_index=False).size()
        return pd.DataFrame({"from_type": out["from_type"],
                             "to_type": out["to_type"],
                             "n": out["size"].astype("int64")})

    slim = events.select_columns([key, ts_col, type_col, tiebreak])
    parts = grouped_apply_bucketed(slim, [key], bucket_fn,
                                   num_buckets=num_buckets,
                                   whole_bucket=True).to_pandas()
    if not len(parts):
        return pd.DataFrame({"from_type": pd.Series(dtype="object"),
                             "to_type": pd.Series(dtype="object"),
                             "n": pd.Series(dtype="int64")})
    out = parts.groupby(["from_type", "to_type"], as_index=False)["n"].sum()
    return out.sort_values(["from_type", "to_type"]).reset_index(drop=True)


def peak_concurrency(events: ray.data.Dataset, ts_col: str, dur_col: str,
                     bucket_us: int = 86400 * 1_000_000,
                     num_buckets: int = 32) -> pd.DataFrame:
    """Peak within-bucket interval concurrency: each event opens an
    interval [s, s + dur) clipped at its time bucket's end (so a
    bucket fully owns its intervals and the keyed shuffle is exact);
    the peak is the max over interval starts of #(starts ≤ t) −
    #(ends ≤ t) — the classic sweep-line, two sorted arrays and two
    searchsorted calls per bucket, no pairwise work. Durations are
    seconds scaled to µs with DuckDB-parity half-away rounding.

    One keyed shuffle of slim (bucket, s, e) rows; each bucket emits a
    single (bucket, peak) row, so the reduce is a driver max."""

    def pre(t: pa.Table) -> pa.Table:
        s = t.column(ts_col).cast(pa.int64()).to_numpy()
        dur = round_half_away(
            t.column(dur_col).to_numpy().astype(np.float64) * 1e6) \
            .astype(np.int64)
        d = s // bucket_us
        e = np.minimum(s + dur, (d + 1) * bucket_us)
        return pa.table({"day": pa.array(d, pa.int64()),
                         "s": pa.array(s, pa.int64()),
                         "e": pa.array(e, pa.int64())})

    slim = events.map_batches(pre, batch_format="pyarrow",
                              zero_copy_batch=True)

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"day": pd.Series(dtype="int64"),
                                 "peak": pd.Series(dtype="int64")})
        out_d, out_p = [], []
        for d, sub in g.groupby("day", sort=False):
            s = np.sort(sub["s"].to_numpy())
            e = np.sort(sub["e"].to_numpy())
            conc = (np.searchsorted(s, s, side="right")
                    - np.searchsorted(e, s, side="right"))
            out_d.append(d)
            out_p.append(int(conc.max()))
        return pd.DataFrame({"day": pd.Series(out_d, dtype="int64"),
                             "peak": pd.Series(out_p, dtype="int64")})

    parts = grouped_apply_bucketed(slim, ["day"], bucket_fn,
                                   num_buckets=num_buckets,
                                   whole_bucket=True).to_pandas()
    if not len(parts):
        return pd.DataFrame({"day": pd.Series(dtype="int64"),
                             "peak": pd.Series(dtype="int64")})
    out = parts.groupby("day", as_index=False)["peak"].max()
    return out.sort_values("day").reset_index(drop=True)


def windowed_sum(ds: ray.data.Dataset, keys: list[str], order: str,
                 value: str, frame_rows: int,
                 num_buckets: int = 64) -> ray.data.Dataset:
    """Moving-frame window aggregate: SUM(value) OVER (PARTITION BY
    keys ORDER BY order ROWS BETWEEN frame_rows-1 PRECEDING AND
    CURRENT ROW). One keyed shuffle; inside a bucket the frame sums
    are one pandas C-speed grouped rolling pass over the sorted
    bucket. ``order`` must be unique per key (ties would make the
    frame ill-defined)."""

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            g["mv_sum"] = pd.Series(dtype="int64")
            return g
        g = g.sort_values(keys + [order], kind="mergesort",
                          ignore_index=True)
        g["mv_sum"] = g.groupby(keys, sort=False)[value] \
            .rolling(frame_rows, min_periods=1).sum() \
            .reset_index(drop=True).astype("int64")
        return g

    slim = ds.select_columns(keys + [order, value])
    return grouped_apply_bucketed(slim, keys, bucket_fn,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def window_ntile(ds: ray.data.Dataset, keys: list[str], order: str,
                 tiebreak: str, n_tiles: int,
                 num_buckets: int = 64) -> ray.data.Dataset:
    """NTILE(n) OVER (PARTITION BY keys ORDER BY order, tiebreak):
    ANSI semantics — the first (m mod n) tiles hold ceil(m/n) rows.
    One keyed shuffle, vectorized rank arithmetic per bucket."""

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            g["tile"] = pd.Series(dtype="int64")
            return g
        g = g.sort_values(keys + [order, tiebreak], kind="mergesort",
                          ignore_index=True)
        sizes = g.groupby(keys, sort=False)[order].transform("size") \
            .to_numpy().astype(np.int64)
        r = g.groupby(keys, sort=False).cumcount().to_numpy() + 1
        q, rem = sizes // n_tiles, sizes % n_tiles
        big_span = rem * (q + 1)
        in_big = r <= big_span
        tile = np.where(
            in_big,
            (r - 1) // np.maximum(q + 1, 1) + 1,
            rem + np.where(q > 0, (r - big_span - 1) // np.maximum(q, 1), 0) + 1)
        g["tile"] = tile.astype(np.int64)
        return g

    slim = ds.select_columns(keys + [order, tiebreak])
    return grouped_apply_bucketed(slim, keys, bucket_fn,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def max_streak(events: ray.data.Dataset, key: str, ts_col: str,
               bucket_us: int = 86400 * 1_000_000,
               num_buckets: int = 64) -> ray.data.Dataset:
    """Gaps-and-islands: longest run of CONSECUTIVE active time
    buckets (days) per key. One keyed shuffle of distinct (key, day)
    rows; per bucket the streaks fall out of one sorted diff pass
    (run boundaries where day - prev_day != 1 or the key changes)."""

    def pre(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.int64()).to_numpy()
        return pa.table({key: t[key],
                         "day": pa.array(ts // bucket_us, pa.int64())})

    slim = distinct(events.select_columns([key, ts_col]).map_batches(
        pre, batch_format="pyarrow", zero_copy_batch=True), [key, "day"])

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype
                                                if key in g else "object"),
                                 "max_streak": pd.Series(dtype="int64")})
        g = g.sort_values([key, "day"], kind="mergesort", ignore_index=True)
        k = g[key].to_numpy()
        d = g["day"].to_numpy()
        new_run = np.ones(len(g), bool)
        new_run[1:] = (k[1:] != k[:-1]) | (d[1:] - d[:-1] != 1)
        run_id = np.cumsum(new_run)
        df = pd.DataFrame({key: k, "__r": run_id})
        runs = df.groupby([key, "__r"], sort=False).size().reset_index(name="len")
        out = runs.groupby(key, as_index=False)["len"].max()
        return pd.DataFrame({key: out[key],
                             "max_streak": out["len"].astype("int64")})

    return grouped_apply_bucketed(slim, [key], bucket_fn,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def extract_json_int(ds: ray.data.Dataset, col: str, field: str,
                     out: str) -> ray.data.Dataset:
    """Extract an integer field from a flat JSON-string column with
    ONE vectorized RE2 pass (`pc.extract_regex`) — the
    structured-log-ingestion primitive. Missing/non-numeric fields
    become null. Map-only; for nested JSON swap the regex for a real
    parser inside the same batch fn."""
    pat = rf'"{field}"\s*:\s*(?P<v>-?\d+)'

    def f(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t[col], pattern=pat)
        v = pc.cast(pc.struct_field(m, "v"), pa.int64())
        return t.append_column(out, v)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def unpivot(ds: ray.data.Dataset, id_cols: list[str],
            value_cols: list[str], var_name: str = "measure",
            value_name: str = "value") -> ray.data.Dataset:
    """Melt/UNPIVOT: wide value columns become (measure, value) long
    rows — one in-batch concat of |value_cols| column-slices, map-only
    (the inverse of pivot_sum). Value columns must share one castable
    type (cast to the first column's type)."""

    def f(t: pa.Table) -> pa.Table:
        typ = t.schema.field(value_cols[0]).type
        parts = []
        for c in value_cols:
            parts.append(pa.table(
                {**{i: t[i] for i in id_cols},
                 var_name: pa.array([c] * t.num_rows, pa.string()),
                 value_name: pc.cast(t[c], typ)}))
        return pa.concat_tables(parts)

    return ds.select_columns(id_cols + value_cols).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)


def densify_days(events: ray.data.Dataset, ts_col: str,
                 bucket_us: int = 86400 * 1_000_000) -> pd.DataFrame:
    """Date-spine densification: per-bucket (day) event counts INCLUDING
    empty buckets between the global min and max — the gap-filling ETL
    primitive dashboards need. Counts ride the standard partial-agg
    shuffle; the spine is range arithmetic over the (tiny) day-count
    table on the driver (|days| rows, not |events|)."""

    def pre(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.int64()).to_numpy()
        return pa.table({"day": pa.array(ts // bucket_us, pa.int64())})

    counts = grouped_agg(events.select_columns([ts_col]).map_batches(
        pre, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], count=True).to_pandas()
    if not len(counts):
        return pd.DataFrame({"day": pd.Series(dtype="int64"),
                             "n": pd.Series(dtype="int64")})
    lo, hi = int(counts["day"].min()), int(counts["day"].max())
    spine = pd.DataFrame({"day": pd.Series(range(lo, hi + 1),
                                           dtype="int64")})
    out = spine.merge(counts, on="day", how="left")
    out["n"] = out["n"].fillna(0).astype("int64")
    return out


def grouped_weighted_sum(ds: ray.data.Dataset, keys: list[str],
                         value: str, weight: str) -> ray.data.Dataset:
    """Weighted-aggregate numerators: per group Σ(w·v), Σw, n as exact
    int64 (the weighted mean is w_sum/w downstream — kept integral so
    the result is mergeable and oracle-hashable). Per-batch partials:
    one product column + one Arrow hash-agg; the exchange moves
    |groups| rows per batch."""

    def prod(t: pa.Table) -> pa.Table:
        wv = pc.multiply(pc.cast(t[value], pa.int64()),
                         pc.cast(t[weight], pa.int64()))
        return pa.table({**{k: t[k] for k in keys},
                         "w_sum": wv,
                         "w": pc.cast(t[weight], pa.int64())})

    p = ds.select_columns(keys + [value, weight]).map_batches(
        prod, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(p, keys, sum_cols=["w_sum", "w"], count=True)


def above_group_avg(ds: ray.data.Dataset, keys: list[str], value: str,
                    num_buckets: int = 64) -> ray.data.Dataset:
    """Correlated-subquery pattern: rows whose value exceeds their
    group's average, counted per group — decorrelated as (tiny
    per-group (Σv, n) table) broadcast back + a map-only integer
    cross-multiply filter (v·n > Σv: no float division anywhere)."""
    sums = grouped_agg(ds.select_columns(keys + [value]), keys,
                       sum_cols=[value], count=True).to_pandas()
    sums = sums.rename(columns={value: "__sum", "n": "__n"})
    small = pa.Table.from_pandas(sums, preserve_index=False)

    j = broadcast_join(ds.select_columns(keys + [value]), small, keys=keys)

    def flag(t: pa.Table) -> pa.Table:
        v = t[value].to_numpy().astype(np.int64)
        m = v * t["__n"].to_numpy() > t["__sum"].to_numpy()
        return t.filter(pa.array(m)).select(keys)

    f = j.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_agg(f, keys, count=True)
    return out.map_batches(
        lambda t: t.rename_columns(
            ["n_above" if c == "n" else c for c in t.column_names]),
        batch_format="pyarrow")


def grouped_mad(ds: ray.data.Dataset, keys: list[str], col: str,
                num_buckets: int = 64) -> ray.data.Dataset:
    """Robust spread: per-group median absolute deviation with
    PERCENTILE_DISC semantics at both levels (med = disc-median of x;
    mad = disc-median of |x − med|) — exact integers end to end. One
    keyed shuffle; the bucket pass sorts once for the medians and once
    for the deviations, all vectorized."""

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {**{k: pd.Series(dtype=g[k].dtype if k in g else "object")
                    for k in keys},
                 "n": pd.Series(dtype="int64"),
                 "med": pd.Series(dtype="int64"),
                 "mad": pd.Series(dtype="int64")})

        # ONE vectorized pass per order statistic (the
        # grouped_percentiles pattern): sort by (keys, col) → gather
        # medians at ceil(n/2)−1 per group; then sort the absolute
        # deviations within groups (lexsort on a dense group id) and
        # gather again for the MAD. No per-group Python dispatch.
        g = g.sort_values(keys + [col], kind="mergesort",
                          ignore_index=True)
        sizes = g.groupby(keys, sort=False)[col].size().to_numpy()
        offs = np.concatenate(([0], np.cumsum(sizes)))[:-1]
        vals = g[col].to_numpy().astype(np.int64)
        mid = offs + np.ceil(0.5 * sizes).astype(np.int64) - 1
        med = vals[np.maximum(mid, offs)]
        gid = np.repeat(np.arange(len(sizes)), sizes)
        dev = np.abs(vals - med[gid])
        dev_sorted = dev[np.lexsort((dev, gid))]
        mad = dev_sorted[np.maximum(mid, offs)]
        heads = g.iloc[offs][keys].reset_index(drop=True)
        return pd.DataFrame(
            {**{k: heads[k] for k in keys},
             "n": sizes.astype(np.int64), "med": med, "mad": mad})

    slim = ds.select_columns(keys + [col])
    return grouped_apply_bucketed(slim, keys, bucket_fn,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def sorted_slice(ds: ray.data.Dataset, by: list[str], offset: int,
                 k: int, descending: bool = False) -> pd.DataFrame:
    """Global ORDER BY ... LIMIT k OFFSET offset — result pagination
    without a global sort: each block keeps its local top-(offset+k)
    (only candidates travel), the driver merges and slices. Scale note:
    cost grows with offset+k, the right trade for page-sized offsets;
    deep pagination should keyset-paginate on ``by`` instead (ANSI
    OFFSET semantics require counting past rows regardless of engine).
    ``by`` must be a total order (include a tiebreak column)."""
    n = offset + k
    asc = [not descending] * len(by)

    def local(t: pa.Table) -> pa.Table:
        df = t.select(by).to_pandas().sort_values(
            by, ascending=asc, kind="stable").head(n)
        return pa.Table.from_pandas(df, preserve_index=False)

    cand = ds.map_batches(local, batch_format="pyarrow",
                          zero_copy_batch=True).to_pandas()
    out = cand.sort_values(by, ascending=asc, kind="stable") \
        .iloc[offset:offset + k]
    return out.reset_index(drop=True)


def time_to_convert(events: ray.data.Dataset, key: str, ts_col: str,
                    type_col: str, from_type: str, to_type: str,
                    num_buckets: int = 64) -> pd.DataFrame:
    """Conversion-latency summary: per key, delta = first ``to_type``
    minus first ``from_type`` event time (µs, only keys where the
    conversion happened strictly after); output one row —
    (n_converted, p50_us) with the PERCENTILE_DISC median over keys.
    One keyed shuffle; buckets emit one delta per converted key, so the
    median runs over a key-domain-sized driver table."""

    def pre(t: pa.Table) -> pa.Table:
        t = t.select([key, ts_col, type_col])
        return t.filter(pc.is_in(t[type_col],
                                 value_set=pa.array([from_type, to_type])))

    slim = events.map_batches(pre, batch_format="pyarrow",
                              zero_copy_batch=True)

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"delta": pd.Series(dtype="int64")})
        f = g[g[type_col] == from_type].groupby(key)[ts_col].min() \
            .astype("int64")
        t2 = g[g[type_col] == to_type].groupby(key)[ts_col].min() \
            .astype("int64")
        # inner merge on the key keeps the arithmetic in int64 end to
        # end (an outer-aligned concat would promote to float64)
        m = f.rename("f").reset_index().merge(
            t2.rename("t").reset_index(), on=key, how="inner")
        d = m["t"] - m["f"]
        d = d[d > 0]
        return pd.DataFrame({"delta": d.astype("int64").to_numpy()})

    deltas = grouped_apply_bucketed(slim, [key], bucket_fn,
                                    num_buckets=num_buckets,
                                    whole_bucket=True).to_pandas()
    if not len(deltas):
        return pd.DataFrame({"n_converted": pd.Series([0], dtype="int64"),
                             "p50_us": pd.Series([0], dtype="int64")})
    v = np.sort(deltas["delta"].to_numpy())
    med = int(v[int(np.ceil(0.5 * len(v))) - 1])
    return pd.DataFrame({"n_converted": pd.Series([len(v)], dtype="int64"),
                         "p50_us": pd.Series([med], dtype="int64")})


def max_drawdown(ds: ray.data.Dataset, keys: list[str], order: str,
                 value: str, num_buckets: int = 64) -> ray.data.Dataset:
    """Per-key maximum drawdown: max over the ``order``-sorted series
    of (running peak − current value) — exact integers, the
    risk-analytics window that needs a full prefix scan. One keyed
    shuffle; per bucket it is one sort + grouped cummax + subtract +
    grouped max, all vectorized."""

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(
                {**{k: pd.Series(dtype=g[k].dtype if k in g else "object")
                    for k in keys},
                 "max_dd": pd.Series(dtype="int64")})
        g = g.sort_values(keys + [order], kind="mergesort",
                          ignore_index=True)
        peak = g.groupby(keys, sort=False)[value].cummax()
        dd = (peak - g[value]).astype("int64")
        g["__dd"] = dd
        out = g.groupby(keys, as_index=False)["__dd"].max()
        return out.rename(columns={"__dd": "max_dd"}) \
            .astype({"max_dd": "int64"})

    slim = ds.select_columns(keys + [order, value])
    return grouped_apply_bucketed(slim, keys, bucket_fn,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def grouped_regression(ds: ray.data.Dataset, keys: list[str],
                       x: str, y: str) -> ray.data.Dataset:
    """Per-group OLS sufficient statistics, integer-exact.

    Emits ``(keys, n, sum_x, sum_y, slope_num, slope_den)`` where
    ``slope = slope_num / slope_den`` with ``slope_num = n·Σxy − Σx·Σy``
    and ``slope_den = n·Σxx − (Σx)²`` — the regression coefficient kept
    as two exact int64s (no float fixpoint, hash-stable across engines;
    the same trick pipelines/kmeans.py uses for centroids). The
    intercept follows as ``(Σy·slope_den − slope_num·Σx) / (n·slope_den)``.

    Shape: per-batch partial sums (5 int64 cells per key per batch)
    → one small groupby — the mergeable-partial pattern, no row-level
    shuffle. Inputs must be integer-castable; caller scales floats to
    cents/micros first (q01 pattern).
    """
    def prep(t: pa.Table) -> pa.Table:
        xa = pc.cast(t.column(x), pa.int64())
        ya = pc.cast(t.column(y), pa.int64())
        cols = {k: t.column(k) for k in keys}
        cols["__x"] = xa
        cols["__y"] = ya
        cols["__xx"] = pc.multiply(xa, xa)
        cols["__xy"] = pc.multiply(xa, ya)
        return pa.table(cols)

    agg = grouped_agg(ds.map_batches(prep, batch_format="pyarrow"), keys,
                      sum_cols=["__x", "__y", "__xx", "__xy"], count=True)

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy().astype(np.int64)
        sx = t.column("__x").to_numpy().astype(np.int64)
        sy = t.column("__y").to_numpy().astype(np.int64)
        sxx = t.column("__xx").to_numpy().astype(np.int64)
        sxy = t.column("__xy").to_numpy().astype(np.int64)
        cols = {k: t.column(k) for k in keys}
        cols["n"] = pa.array(n, pa.int64())
        cols["sum_x"] = pa.array(sx, pa.int64())
        cols["sum_y"] = pa.array(sy, pa.int64())
        cols["slope_num"] = pa.array(n * sxy - sx * sy, pa.int64())
        cols["slope_den"] = pa.array(n * sxx - sx * sx, pa.int64())
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow")


def cusum_changepoint(ds: ray.data.Dataset, key: str, order: str,
                      tiebreak: str, value: str,
                      num_buckets: int = 64) -> ray.data.Dataset:
    """Per-key CUSUM change-point: the 1-based index k (1 ≤ k < n)
    maximizing |n·prefix_k − k·total| — the scaled cumulative
    deviation from the mean, kept INTEGER by multiplying through by n
    (no float mean, hash-stable). Ties take the earliest k. Keys with
    a single row emit nothing (no interior split point).

    One keyed shuffle; inside each bucket the prefix sums, deviations
    and per-key argmax are whole-frame pandas/numpy passes.
    """
    empty = pd.DataFrame({key: pd.Series([], dtype="int64"),
                          "change_k": pd.Series([], dtype="int64"),
                          "dev": pd.Series([], dtype="int64")})

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return empty
        g = g.sort_values([key, order, tiebreak], kind="mergesort")
        k = g[key].to_numpy()
        v = g[value].to_numpy().astype(np.int64)
        first = np.empty(len(g), dtype=bool)
        first[0] = True
        first[1:] = k[1:] != k[:-1]
        gid = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(g)))
        csum = np.cumsum(v)
        base = np.concatenate([[0], csum[starts[1:] - 1]])
        prefix = csum - base[gid]
        total = prefix[np.append(starts[1:] - 1, len(g) - 1)]
        n = sizes
        pos = np.arange(len(g), dtype=np.int64) - starts[gid] + 1
        dev = np.abs(n[gid] * prefix - pos * total[gid])
        interior = pos < n[gid]
        df = pd.DataFrame({key: k[interior], "__pos": pos[interior],
                           "__dev": dev[interior]})
        if not len(df):
            return empty
        df = df.sort_values([key, "__dev", "__pos"],
                            ascending=[True, False, True],
                            kind="mergesort")
        best = df.drop_duplicates(subset=[key], keep="first")
        return pd.DataFrame({key: best[key].to_numpy(),
                             "change_k": best["__pos"].to_numpy(),
                             "dev": best["__dev"].to_numpy()})

    slim = ds.select_columns([key, order, tiebreak, value])
    return grouped_apply_bucketed(slim, [key], bucket_fn,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def profile_int_columns(ds: ray.data.Dataset,
                        cols: list[str]) -> pd.DataFrame:
    """Table profiler over integer-valued columns: per column the row
    count, null count, min, max (ONE mergeable-partial pass over the
    data — 4 int64 cells per column per batch) plus EXACT distinct
    counts (one dedup shuffle per column). Long output ``(col, n,
    nulls, min_v, max_v, n_distinct)`` sorted by column name.

    Scale note: exact distinct is the oracle-parity choice here; at
    100 TB swap it for ``grouped_approx_distinct`` (HLL partials, no
    shuffle) — same loop, same output shape.
    """
    def partial(t: pa.Table) -> pa.Table:
        names, mns, mxs, nulls, ns = [], [], [], [], []
        for c in cols:
            col = t.column(c)
            if len(col) == 0:
                continue
            nn = col.null_count
            valid = col.drop_null() if nn else col
            names.append(c)
            if len(valid):
                mns.append(pc.min(valid).as_py())
                mxs.append(pc.max(valid).as_py())
            else:
                # all-null batch: identity sentinels keep the merged
                # min/max correct whenever ANY batch has a value (an
                # all-null COLUMN reports the sentinels — callers with
                # nullable columns read `nulls == n` first)
                mns.append(np.iinfo(np.int64).max)
                mxs.append(np.iinfo(np.int64).min)
            nulls.append(nn)
            ns.append(len(col))
        return pa.table({"col": pa.array(names, pa.string()),
                         "min_v": pa.array(mns, pa.int64()),
                         "max_v": pa.array(mxs, pa.int64()),
                         "nulls": pa.array(nulls, pa.int64()),
                         "n": pa.array(ns, pa.int64())})

    agg = grouped_agg(ds.map_batches(partial, batch_format="pyarrow"),
                      ["col"], sum_cols=["nulls", "n"],
                      min_cols=["min_v"], max_cols=["max_v"],
                      count=False).to_pandas()
    agg = agg.rename(columns={"min_min_v": "min_v",
                              "max_max_v": "max_v"})
    nd = {c: distinct(ds.select_columns([c]), [c]).count()
          for c in cols}
    agg["n_distinct"] = agg["col"].map(nd).astype("int64")
    out = agg[["col", "n", "nulls", "min_v", "max_v", "n_distinct"]]
    return out.sort_values("col").reset_index(drop=True)


def rollup_sums(ds: ray.data.Dataset, keys: list[str], value: str,
                all_marker: str = "ALL") -> pd.DataFrame:
    """GROUP BY ROLLUP(keys...): sums + counts at every prefix level
    (finest, each coarser prefix, grand total), rolled-up columns
    replaced by ``all_marker``. ONE pass over the data — per-batch
    partials at the finest level stream to the driver (bounded by the
    finest key domain, not the row count), coarser levels re-aggregate
    those partials; no second scan, no shuffle."""

    def partial(t: pa.Table) -> pa.Table:
        df = t.select(keys + [value]).to_pandas()
        df[value] = df[value].astype("int64")
        g = df.groupby(keys, as_index=False).agg(
            __s=(value, "sum"), __n=(value, "size"))
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    finest = parts.groupby(keys, as_index=False)[["__s", "__n"]].sum()
    levels = [finest]
    for lv in range(len(keys) - 1, -1, -1):
        sub = keys[:lv]
        if sub:
            agg = finest.groupby(sub, as_index=False)[["__s", "__n"]].sum()
        else:
            agg = finest[["__s", "__n"]].sum().to_frame().T
        for k in keys[lv:]:
            agg[k] = all_marker
        levels.append(agg[keys + ["__s", "__n"]])
    out = pd.concat(levels, ignore_index=True)
    out = out.rename(columns={"__s": "sum_v", "__n": "n_rows"})
    out["sum_v"] = out["sum_v"].astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    return out.sort_values(keys).reset_index(drop=True)


def integer_ema(ds: ray.data.Dataset, key: str, order: str, value: str,
                shift: int = 2, num_buckets: int = 64) -> ray.data.Dataset:
    """Per-key exact integer exponential moving average with
    α = 1/2^shift: ema₁ = v₁, emaₜ = (vₜ + (2^shift − 1)·emaₜ₋₁)
    >> shift (floor — exact for non-negative values, no float drift).
    The classic streaming smoother, run as ONE lockstep vectorized
    wave per sequence index across every key in the bucket (no
    per-key Python loop). Returns (key, ema_last, ema_sum, n_events).
    """
    mul = (1 << shift) - 1

    def per(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order], kind="mergesort")
        keys_arr = g[key].to_numpy()
        vs = g[value].to_numpy().astype(np.int64)
        uk, start = np.unique(keys_arr, return_index=True)
        G = len(uk)
        if G == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 "ema_last": pd.Series(dtype="int64"),
                                 "ema_sum": pd.Series(dtype="int64"),
                                 "n_events": pd.Series(dtype="int64")})
        sizes = np.diff(np.append(start, len(g)))
        L = int(sizes.max())
        pos = np.arange(len(g)) - np.repeat(start, sizes)
        gi = np.repeat(np.arange(G), sizes)
        v = np.zeros((G, L), np.int64)
        v[gi, pos] = vs
        alive = np.zeros((G, L), bool)
        alive[gi, pos] = True
        ema = v[:, 0].copy()
        tot = ema.copy()
        for i in range(1, L):
            ne = (v[:, i] + mul * ema) >> shift
            ema = np.where(alive[:, i], ne, ema)
            tot += np.where(alive[:, i], ema, 0)
        return pd.DataFrame({key: uk,
                             "ema_last": ema.astype(np.int64),
                             "ema_sum": tot.astype(np.int64),
                             "n_events": sizes.astype(np.int64)})

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def grouped_weighted_median(ds: ray.data.Dataset, key: str, value: str,
                            weight: str,
                            num_buckets: int = 64) -> ray.data.Dataset:
    """Lower weighted median per key — the smallest v with 2·cumw(v) ≥
    total_w, weights first summed per distinct (key, value) so ties are
    deterministic (the corpus-stats form: e.g. median document quality
    weighted by token count). ONE keyed shuffle; inside each bucket a
    single sort + reduceat/cumsum pass, first-crossing by a
    minimum.reduceat — no per-group Python loop. Returns
    (key, wmedian, total_w)."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby([key, value], sort=True)[weight].sum().reset_index()
        if len(a) == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 "wmedian": pd.Series(dtype="int64"),
                                 "total_w": pd.Series(dtype="int64")})
        k = a[key].to_numpy()
        v = a[value].to_numpy().astype(np.int64)
        w = a[weight].to_numpy().astype(np.int64)
        n = len(a)
        uk, start = np.unique(k, return_index=True)
        counts = np.diff(np.append(start, n))
        cum = np.cumsum(w)
        tot = np.add.reduceat(w, start)
        offs = np.concatenate(([0], np.cumsum(tot)[:-1]))
        within = cum - np.repeat(offs, counts)
        cond = 2 * within >= np.repeat(tot, counts)
        first = np.minimum.reduceat(np.where(cond, np.arange(n), n),
                                    start)
        return pd.DataFrame({key: uk,
                             "wmedian": v[first].astype(np.int64),
                             "total_w": tot.astype(np.int64)})

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def mann_kendall(ds: ray.data.Dataset, key: str, order: str, value: str,
                 num_buckets: int = 64) -> ray.data.Dataset:
    """Mann–Kendall trend statistic per key — S = Σ_{i<j}
    sign(v_j − v_i) over the time-ordered values (the classic
    nonparametric hydrology/climatology trend test; exact integer,
    ties contribute 0). ONE keyed shuffle; inside the bucket the pair
    sum runs as L lockstep vectorized waves of width ≤ L across every
    key at once (never a per-key Python loop, never an L×L×G tensor).
    Returns (key, s_stat, n_events)."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order], kind="mergesort")
        keys_arr = g[key].to_numpy()
        vs = g[value].to_numpy().astype(np.int64)
        uk, start = np.unique(keys_arr, return_index=True)
        G = len(uk)
        if G == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 "s_stat": pd.Series(dtype="int64"),
                                 "n_events": pd.Series(dtype="int64")})
        sizes = np.diff(np.append(start, len(g)))
        L = int(sizes.max())
        pos = np.arange(len(g)) - np.repeat(start, sizes)
        gi = np.repeat(np.arange(G), sizes)
        v = np.zeros((G, L), np.int64)
        v[gi, pos] = vs
        alive = np.zeros((G, L), bool)
        alive[gi, pos] = True
        s = np.zeros(G, np.int64)
        for i in range(L - 1):
            d = np.sign(v[:, i + 1:] - v[:, i:i + 1])
            ok = alive[:, i:i + 1] & alive[:, i + 1:]
            s += np.where(ok, d, 0).sum(axis=1)
        return pd.DataFrame({key: uk,
                             "s_stat": s,
                             "n_events": sizes.astype(np.int64)})

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def interval_union(ds: ray.data.Dataset, key: str, start: str, end: str,
                   num_buckets: int = 64) -> ray.data.Dataset:
    """Per-key interval union (merge overlapping/touching intervals):
    the classic coverage aggregate — total covered length, number of
    merged islands, and the longest island, per key. Half-open
    ``[start, end)`` integer intervals; intervals that merely touch
    (a.end == b.start) merge.

    ONE keyed shuffle; inside each bucket a single sort + per-key
    running-max sweep in pandas/numpy C kernels (groupby cummax +
    shift), never a per-key Python loop: an island starts where the
    interval's start exceeds the running max end of everything before
    it in its key. Returns (key, n_islands, covered, max_island).

    Reference parity: the reference has no interval algebra (its
    window is DuckDB windowing, SURVEY §2.9); this is the
    gaps-and-islands coverage form (q104 streaks' continuous-time
    sibling) every sessionized-events pipeline needs at scale.
    """
    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 "n_islands": pd.Series(dtype="int64"),
                                 "covered": pd.Series(dtype="int64"),
                                 "max_island": pd.Series(dtype="int64")})
        g = g.sort_values([key, start, end], kind="mergesort",
                          ignore_index=True)
        grp = g.groupby(key, sort=False)
        cm = grp[end].cummax()
        prev = cm.groupby(g[key], sort=False).shift(1)
        is_start = prev.isna() | (g[start] > prev)
        iid = np.cumsum(is_start.to_numpy())
        isl = pd.DataFrame({key: g[key], "__iid": iid,
                            "__s": g[start], "__e": cm})
        per_isl = isl.groupby("__iid", sort=False).agg(
            **{key: (key, "first"), "__s": ("__s", "first"),
               "__e": ("__e", "last")})
        per_isl["__len"] = (per_isl["__e"] - per_isl["__s"]).astype("int64")
        out = per_isl.groupby(key, sort=False).agg(
            n_islands=("__len", "size"), covered=("__len", "sum"),
            max_island=("__len", "max")).reset_index()
        out["n_islands"] = out["n_islands"].astype("int64")
        return out

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def range_frame_sum(ds: ray.data.Dataset, key: str, ts: str, value: str,
                    width: int,
                    num_buckets: int = 64) -> ray.data.Dataset:
    """Time-RANGE windowed sum: for every row, the sum and count of
    ``value`` over the key's rows with timestamp in
    ``[ts - width, ts]`` — SQL ``RANGE BETWEEN width PRECEDING AND
    CURRENT ROW`` semantics, so timestamp PEERS (equal ts) include
    each other regardless of physical order (the q102 moving-frame
    sibling keyed by TIME, not row count).

    ONE keyed shuffle; inside the bucket every group is processed in
    the same flat pass: rows sort once by (key, ts), each group's
    timestamps are shifted onto a disjoint integer segment (group
    rank × (span + width + 2)), and ONE global searchsorted per frame
    edge finds every row's window — prefix sums turn each window into
    two gathers. No per-key loop, no per-row loop.
    Returns the input keys plus (w_sum, w_cnt) per row."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return g.assign(w_sum=pd.Series(dtype="int64"),
                            w_cnt=pd.Series(dtype="int64"))
        g = g.sort_values([key, ts], kind="mergesort", ignore_index=True)
        t = g[ts].to_numpy(np.int64)
        v = g[value].to_numpy(np.int64)
        gid = g.groupby(key, sort=False).ngroup().to_numpy()
        span = int(t.max() - t.min()) if len(t) else 0
        base = np.int64(span + width + 2)
        comp = gid * base + (t - t.min())
        lo = np.searchsorted(comp, comp - width, side="left")
        hi = np.searchsorted(comp, comp, side="right")
        cum = np.concatenate([[0], np.cumsum(v)])
        g["w_sum"] = (cum[hi] - cum[lo]).astype("int64")
        g["w_cnt"] = (hi - lo).astype("int64")
        return g

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def rrf_topk(ds: ray.data.Dataset, key: str, id_col: str, a: str, b: str,
             k: int = 60, topk: int = 3,
             num_buckets: int = 64) -> ray.data.Dataset:
    """Reciprocal-rank fusion of two orderings per key (the classic
    hybrid-retrieval merge: BM25 list + vector list): rank items by
    ``a`` DESC and by ``b`` ASC (ties broken by id), fuse with
    RRF(i) = 1/(k+rank_a) + 1/(k+rank_b), and keep each key's top
    ``topk``. The score is carried EXACTLY as the unreduced fraction
    num = 2k + ra + rb, den = (k+ra)(k+rb); ordering uses the integer
    key num·2⁴⁰ // den with id as the final tiebreak — a deterministic
    total order both the engine and a SQL oracle reproduce bit-for-bit
    (floats would differ in the last ulp).

    ONE keyed shuffle; ranks are argsort positions, selection is a
    lexsort + per-key prefix mask — no per-key loop.
    Returns (key, rk, id, num, den)."""
    SCALE = np.int64(1) << np.int64(40)

    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 "rk": pd.Series(dtype="int64"),
                                 id_col: pd.Series(dtype="int64"),
                                 "num": pd.Series(dtype="int64"),
                                 "den": pd.Series(dtype="int64")})
        kv = g[key].to_numpy()
        # lexsort needs a sortable key; group identity is all that
        # matters for per-key ranks, so factorized codes suffice
        kcode = pd.factorize(g[key], sort=True)[0].astype(np.int64)
        ids = g[id_col].to_numpy(np.int64)
        av = g[a].to_numpy(np.int64)
        bv = g[b].to_numpy(np.int64)
        n = len(g)
        # rank within key: argsort positions minus the key's offset
        def ranks(order):
            pos = np.empty(n, np.int64)
            pos[order] = np.arange(n)
            kk = kcode[order]
            starts = np.concatenate([[0], np.nonzero(kk[1:] != kk[:-1])[0] + 1])
            off = np.zeros(n, np.int64)
            off[starts] = starts
            off = np.maximum.accumulate(off)
            return pos - off[pos] + 1

        oa = np.lexsort((ids, -av, kcode))
        ob = np.lexsort((ids, bv, kcode))
        ra = ranks(oa)
        rb = ranks(ob)
        num = 2 * k + ra + rb
        den = (k + ra) * (k + rb)
        skey = num * SCALE // den
        sel = np.lexsort((ids, -skey, kcode))
        kk = kv[sel]
        starts = np.concatenate([[0], np.nonzero(kk[1:] != kk[:-1])[0] + 1])
        off = np.zeros(n, np.int64)
        off[starts] = starts
        off = np.maximum.accumulate(off)
        rk = np.arange(n) - off + 1
        keep = rk <= topk
        return pd.DataFrame({key: kk[keep], "rk": rk[keep],
                             id_col: ids[sel][keep],
                             "num": num[sel][keep],
                             "den": den[sel][keep]})

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def theil_sen(ds: ray.data.Dataset, key: str, t: str, value: str,
              num_buckets: int = 64) -> ray.data.Dataset:
    """Theil–Sen slope estimator per key — the robust trend slope:
    the (lower) median of all pairwise slopes (v_j − v_i)/(t_j − t_i)
    over t-ordered pairs, reported as the EXACT pair (med_dy, med_dx).
    The median ordering uses the integer key dy·2⁴⁰ // dx (floor; dx >
    0 because t is strictly increasing per key) with (dy, dx) as the
    tiebreak — a deterministic total order a SQL oracle reproduces
    bit-for-bit. |dy| must stay below 2²² so dy·2⁴⁰ fits int64.

    ONE keyed shuffle; inside the bucket the pair set is built as L−1
    lockstep gap waves across every key at once (the mann_kendall
    shape) and each key's median is picked by one lexsort + offset
    arithmetic — no per-key loop. Pair count is Σ n_k(n_k−1)/2: fine
    for the grouped-series regime (per-key n in the hundreds), cap
    upstream for hot keys. Returns (key, med_dy, med_dx, n_pairs)."""
    SCALE = np.int64(1) << np.int64(40)

    def per(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                              "med_dy": pd.Series(dtype="int64"),
                              "med_dx": pd.Series(dtype="int64"),
                              "n_pairs": pd.Series(dtype="int64")})
        if len(g) == 0:
            return empty
        g = g.sort_values([key, t], kind="mergesort", ignore_index=True)
        kc, uniq = pd.factorize(g[key], sort=True)
        kc = kc.astype(np.int64)
        tv = g[t].to_numpy(np.int64)
        vv = g[value].to_numpy(np.int64)
        n = len(g)
        sizes = np.bincount(kc)
        L = int(sizes.max())
        kparts, dyp, dxp = [], [], []
        for gap in range(1, L):
            ok = np.nonzero(kc[gap:] == kc[:-gap])[0]
            if len(ok) == 0:
                continue
            kparts.append(kc[ok])
            dyp.append(vv[ok + gap] - vv[ok])
            dxp.append(tv[ok + gap] - tv[ok])
        if not kparts:
            return empty
        kk = np.concatenate(kparts)
        dy = np.concatenate(dyp)
        dx = np.concatenate(dxp)
        skey = dy * SCALE // dx
        order = np.lexsort((dx, dy, skey, kk))
        kk, dy, dx = kk[order], dy[order], dx[order]
        starts = np.concatenate([[0], np.nonzero(kk[1:] != kk[:-1])[0] + 1])
        cnt = np.diff(np.append(starts, len(kk)))
        med = starts + (cnt - 1) // 2
        uk = np.asarray(uniq)
        return pd.DataFrame({key: uk[kk[starts]],
                             "med_dy": dy[med].astype("int64"),
                             "med_dx": dx[med].astype("int64"),
                             "n_pairs": cnt.astype("int64")})

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def lag_autocov(ds: ray.data.Dataset, key: str, order: str, value: str,
                lag: int, num_buckets: int = 64) -> ray.data.Dataset:
    """Lag-k autocovariance partials per key — the exact integer
    sufficient statistics of the series' serial correlation at lag
    ``lag`` over the ``order``-sorted values: m = n − lag overlapped
    pairs, Σ x_t·x_{t+lag}, Σ x_t (first m), Σ x_{t+lag} (last m).
    ONE keyed shuffle; inside the bucket one groupby shift + three
    vectorized sums (no per-key loop).
    Returns (key, m, s_xy, s_x, s_y)."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 "m": pd.Series(dtype="int64"),
                                 "s_xy": pd.Series(dtype="int64"),
                                 "s_x": pd.Series(dtype="int64"),
                                 "s_y": pd.Series(dtype="int64")})
        g = g.sort_values([key, order], kind="mergesort",
                          ignore_index=True)
        x = g[value].astype("int64")
        y = g.groupby(key, sort=False)[value].shift(-lag)
        ok = y.notna()
        yv = y.fillna(0).astype("int64")
        d = pd.DataFrame({key: g[key], "m": ok.astype("int64"),
                          "s_xy": (x * yv).where(ok, 0),
                          "s_x": x.where(ok, 0),
                          "s_y": yv.where(ok, 0)})
        out = d.groupby(key, sort=True, as_index=False).sum()
        out = out[out["m"] > 0]  # keys shorter than the lag drop out
        for c in ("m", "s_xy", "s_x", "s_y"):
            out[c] = out[c].astype("int64")
        return out.reset_index(drop=True)

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def ohlc_bars(ds: ray.data.Dataset, key: str, ts: str, id_col: str,
              value: str, width: int,
              num_buckets: int = 64) -> ray.data.Dataset:
    """OHLC candlestick resampling: per (key, time bucket ts // width)
    the open (value at the smallest (ts, id)), high, low, close
    (largest (ts, id)) and row count — the time-series downsampling
    every market/telemetry pipeline runs. Ties on ts are broken by
    ``id_col`` so open/close are deterministic. ONE keyed shuffle;
    inside the bucket one sort + a single pandas groupby.agg
    (first/max/min/last all C kernels).
    Returns (key, window_id, open, high, low, close, n)."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 "window_id": pd.Series(dtype="int64"),
                                 "open": pd.Series(dtype="int64"),
                                 "high": pd.Series(dtype="int64"),
                                 "low": pd.Series(dtype="int64"),
                                 "close": pd.Series(dtype="int64"),
                                 "n": pd.Series(dtype="int64")})
        g = g.sort_values([key, ts, id_col], kind="mergesort",
                          ignore_index=True)
        g["window_id"] = (g[ts].to_numpy(np.int64) // width)
        out = g.groupby([key, "window_id"], sort=True).agg(
            open=(value, "first"), high=(value, "max"),
            low=(value, "min"), close=(value, "last"),
            n=(value, "size")).reset_index()
        for c in ("open", "high", "low", "close", "n"):
            out[c] = out[c].astype("int64")
        return out

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def gini_impurity(ds: ray.data.Dataset, key: str, cls: str,
                  num_buckets: int = 64) -> ray.data.Dataset:
    """Gini impurity of the class distribution per key, EXACT as the
    unreduced rational (num, den) = (n² − Σ c², n²) — the integer form
    of 1 − Σ (c/n)², so no float ever enters (the label-skew /
    data-quality diagnostic of a curation pipeline). Class counts
    pre-aggregate per batch (partials cross the wire), the per-key
    fold is one groupby. Returns (key, n, gini_num, gini_den)."""
    counts = grouped_agg(ds.select_columns([key, cls]), [key, cls],
                         count=True)

    def per(g: pd.DataFrame) -> pd.DataFrame:
        c = g["n"].to_numpy(np.int64)
        d = pd.DataFrame({key: g[key], "n": c, "c2": c * c})
        out = d.groupby(key, sort=True, as_index=False).sum()
        n = out["n"].to_numpy(np.int64)
        out["gini_num"] = n * n - out["c2"].to_numpy(np.int64)
        out["gini_den"] = n * n
        out["n"] = out["n"].astype("int64")
        return out[[key, "n", "gini_num", "gini_den"]]

    return grouped_apply_bucketed(counts, [key], per,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def interval_overlap_join(da: ray.data.Dataset, db: ray.data.Dataset,
                          key: str, id_col: str, start: str, end: str,
                          cell_us: int,
                          num_buckets: int = 64) -> ray.data.Dataset:
    """Interval × interval overlap join per key (half-open
    [start, end) integer intervals overlap iff sa < eb AND sb < ea) —
    the two-sided sibling of range_join's point-in-interval: every
    overlapping (a, b) pair emitted EXACTLY ONCE as
    (key, a_id, b_id). Both sides explode to the time cells of width
    ``cell_us`` their interval covers; each (key, cell) co-group runs
    a fully vectorized broadcast overlap test; a pair spanning many
    cells is emitted only by the canonical cell containing
    max(sa, sb) — which both coverings provably contain (the 1-D form
    of segment_crossings' exactly-once rule)."""
    def explode(side):
        def fn(t: pa.Table) -> pa.Table:
            ids = t.column(id_col).to_numpy().astype(np.int64)
            kv = t.column(key).to_numpy().astype(np.int64)
            s = t.column(start).to_numpy().astype(np.int64)
            e = t.column(end).to_numpy().astype(np.int64)
            ok = e > s
            ids, kv, s, e = ids[ok], kv[ok], s[ok], e[ok]
            c0 = s // cell_us
            c1 = (e - 1) // cell_us
            cnt = (c1 - c0 + 1).astype(np.int64)
            rep = np.repeat(np.arange(len(ids)), cnt)
            offs = np.arange(len(rep)) - np.repeat(
                np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt)
            return pa.table({
                "k": pa.array(kv[rep], pa.int64()),
                "cell": pa.array(c0[rep] + offs, pa.int64()),
                "side": pa.array(np.full(len(rep), side, np.int8)),
                "iid": pa.array(ids[rep], pa.int64()),
                "s": pa.array(s[rep], pa.int64()),
                "e": pa.array(e[rep], pa.int64())})
        return fn

    both = da.map_batches(explode(0), batch_format="pyarrow").union(
        db.map_batches(explode(1), batch_format="pyarrow"))

    def per_cell(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({key: pd.Series([], dtype="int64"),
                              "a_id": pd.Series([], dtype="int64"),
                              "b_id": pd.Series([], dtype="int64")})
        a = g[g["side"] == 0]
        b = g[g["side"] == 1]
        if len(a) == 0 or len(b) == 0:
            return empty
        cell = int(g["cell"].iloc[0])
        sa = a["s"].to_numpy()[:, None]; ea = a["e"].to_numpy()[:, None]
        sb = b["s"].to_numpy()[None, :]; eb = b["e"].to_numpy()[None, :]
        canon = np.maximum(sa, sb) // cell_us == cell
        hit = canon & (sa < eb) & (sb < ea)
        ii, jj = np.nonzero(hit)
        if len(ii) == 0:
            return empty
        return pd.DataFrame({key: np.full(len(ii),
                                          int(g["k"].iloc[0]), np.int64),
                             "a_id": a["iid"].to_numpy()[ii],
                             "b_id": b["iid"].to_numpy()[jj]})

    return grouped_apply_bucketed(both, ["k", "cell"], per_cell,
                                  num_buckets=num_buckets)


def rolling_distinct(ds: ray.data.Dataset, key: str, bucket: str,
                     window: int) -> ray.data.Dataset:
    """Rolling distinct-count over bucketed time — DAU/WAU: for every
    bucket b present in the data, the distinct keys in b (dau) and in
    the trailing ``window`` buckets (b-window+1 .. b, wau). EXACT at
    scale without per-window sets: dedup (key, bucket) once, explode
    each survivor to the ``window`` windows it influences, dedup
    (key, window) — every shuffle carries slim pairs, counts are
    grouped sums, never a per-window set on any node.
    Returns (bucket, dau, wau) for buckets present in the input."""
    kb = grouped_agg(ds.select_columns([key, bucket]), [key, bucket],
                     count=True).drop_columns(["n"])

    def explode(t: pa.Table) -> pa.Table:
        k = t.column(key).to_numpy()
        b = t.column(bucket).to_numpy()
        rep = np.repeat(np.arange(len(k)), window)
        offs = np.tile(np.arange(window, dtype=np.int64), len(k))
        return pa.table({key: pa.array(k[rep]),
                         "w": pa.array(b[rep] + offs, pa.int64())})

    kw = grouped_agg(kb.map_batches(explode, batch_format="pyarrow"),
                     [key, "w"], count=True).drop_columns(["n"])
    wau = grouped_agg(kw, ["w"], count=True)
    dau = grouped_agg(kb, [bucket], count=True)
    # final fold: both sides are one row per bucket — driver-bounded
    d = dau.to_pandas().rename(columns={bucket: "w", "n": "dau"})
    w = wau.to_pandas().rename(columns={"n": "wau"})
    out = d.merge(w, on="w", how="left")
    out = out.rename(columns={"w": bucket})
    out["dau"] = out["dau"].astype("int64")
    out["wau"] = out["wau"].astype("int64")
    return out.sort_values(bucket).reset_index(drop=True)


def grouped_agg_hash(ds: ray.data.Dataset, keys: list[str],
                     sum_cols: list[str] | None = None,
                     count: bool = True,
                     min_cols: list[str] | None = None,
                     max_cols: list[str] | None = None,
                     num_buckets: int = 128) -> ray.data.Dataset:
    """grouped_agg for HIGH-CARDINALITY keys: same contract and output
    names (sums keep their name, count → n, min/max → min_/max_), but
    the exchange is the hash-bucket shuffle + one pandas C-speed
    groupby per bucket instead of Ray Data's native sort-based
    Aggregate — measured 40× faster at 10⁵-10⁶ distinct keys (the
    native Aggregate pays per-key reduce overhead; the bucket path
    pays per-bucket). Per-batch Arrow partials still pre-aggregate so
    only partials cross the wire."""
    sum_cols = sum_cols or []
    min_cols = min_cols or []
    max_cols = max_cols or []

    def partial(t: pa.Table) -> pa.Table:
        aggs = ([(c, "sum") for c in sum_cols]
                + [(c, "min") for c in min_cols]
                + [(c, "max") for c in max_cols])
        if count:
            aggs.append(([], "count_all"))
        g = t.group_by(keys).aggregate(aggs)
        ren = {f"{c}_sum": c for c in sum_cols}
        ren.update({f"{c}_min": f"__min_{c}" for c in min_cols})
        ren.update({f"{c}_max": f"__max_{c}" for c in max_cols})
        if count:
            ren["count_all"] = "__cnt"
        return g.rename_columns([ren.get(n, n) for n in g.column_names])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        spec = {c: (c, "sum") for c in sum_cols}
        spec.update({f"min_{c}": (f"__min_{c}", "min")
                     for c in min_cols})
        spec.update({f"max_{c}": (f"__max_{c}", "max")
                     for c in max_cols})
        if count:
            spec["n"] = ("__cnt", "sum")
        out = g.groupby(keys, sort=False, as_index=False).agg(**spec)
        if count:
            out["n"] = out["n"].astype("int64")
        return out

    return grouped_apply_bucketed(partials, keys, final,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def twap(ds: ray.data.Dataset, key: str, ts: str, value: str,
         num_buckets: int = 64) -> ray.data.Dataset:
    """Time-weighted average partials per key — Σ v_i·(t_{i+1} − t_i)
    over consecutive events plus the covered duration, EXACT integers
    (the value holds from its event until the next; the last event
    carries no weight). The canonical telemetry/market TWAP; divide
    num/den downstream. ONE keyed shuffle, groupby shift, vectorized
    sums. Keys with a single event are omitted (no duration).
    Returns (key, twap_num, twap_den, n_events)."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 "twap_num": pd.Series(dtype="int64"),
                                 "twap_den": pd.Series(dtype="int64"),
                                 "n_events": pd.Series(dtype="int64")})
        g = g.sort_values([key, ts], kind="mergesort", ignore_index=True)
        nxt = g.groupby(key, sort=False)[ts].shift(-1)
        ok = nxt.notna()
        dt = (nxt.fillna(0).astype("int64") - g[ts]).where(ok, 0)
        d = pd.DataFrame({key: g[key],
                          "twap_num": g[value].astype("int64") * dt,
                          "twap_den": dt,
                          "n_events": 1})
        out = d.groupby(key, sort=True, as_index=False).sum()
        out = out[out["twap_den"] > 0]
        for c in ("twap_num", "twap_den", "n_events"):
            out[c] = out[c].astype("int64")
        return out.reset_index(drop=True)

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def label_dictionary(ds: ray.data.Dataset, col: str) -> "pd.DataFrame":
    """Global categorical dictionary: every distinct value of ``col``
    with a STABLE dense id = its rank in sorted order, plus its row
    count — the label-encoding table a feature pipeline persists.
    Distinct+count is one bucketed shuffle of slim (value, n) partials;
    the rank assignment sorts only the VOCABULARY (driver-bounded by
    |distinct|, documented), never the data."""
    counts = grouped_agg_hash(ds.select_columns([col]), [col],
                              count=True)
    df = counts.to_pandas().sort_values(col, kind="mergesort",
                                        ignore_index=True)
    df["label_id"] = np.arange(len(df), dtype=np.int64)
    df["n"] = df["n"].astype("int64")
    return df[[col, "label_id", "n"]]


def _ntile(rank: np.ndarray, n: int, tiles: int) -> np.ndarray:
    """SQL NTILE: first (n % tiles) tiles get ceil(n/tiles) rows."""
    q, r = divmod(n, tiles)
    cut = r * (q + 1)
    small = np.maximum(rank - cut, 0)
    return np.where(rank < cut, rank // max(q + 1, 1),
                    r + small // max(q, 1)).astype(np.int64) + 1


def str_pack(ds: ray.data.Dataset, id_col: str, cx: str, cy: str,
             slabs: int, leaves: int,
             num_buckets: int = 64) -> ray.data.Dataset:
    """Sort-Tile-Recursive bulk-load partitioning (the classic R-tree
    packing): rows rank by (cx, id) into ``slabs`` NTILE slabs, then
    within each slab by (cy, id) into ``leaves`` NTILE leaves; emits
    each leaf's count and bounding box — the partition layout a bulk
    spatial-index build writes. EXACT global ranks WITHOUT a global
    sort: per-coordinate-value counts (domain-bounded, broadcast as
    cumulative offsets) plus an id-rank within each coordinate value
    computed in that value's hash bucket — every row's rank is
    offset[value] + local rank, because a value's rows all land in one
    bucket. Two such passes, no all-to-all sort of the data.
    Returns (slab, leaf, n, min_x, max_x, min_y, max_y)."""
    def ranks_pass(dsx, vcol, within, out_name):
        # global (value, id) rank split by `within` (None = global)
        keys = ([within] if within else []) + [vcol]
        cnt = grouped_agg_hash(dsx.select_columns(keys), keys,
                               count=True).to_pandas()
        cnt = cnt.sort_values(keys, kind="mergesort", ignore_index=True)
        grpc = cnt.groupby(within)["n"] if within else None
        if within:
            cnt["__off"] = cnt.groupby(within)["n"].cumsum() - cnt["n"]
        else:
            cnt["__off"] = cnt["n"].cumsum() - cnt["n"]
        off_map = cnt.set_index(keys)["__off"]
        off_ref = ray.put(off_map)

        def add_rank(g: pd.DataFrame) -> pd.DataFrame:
            om = ray.get(off_ref)
            g = g.sort_values(keys + [id_col], kind="mergesort",
                              ignore_index=True)
            local = g.groupby(keys, sort=False).cumcount()
            idx = pd.MultiIndex.from_frame(g[keys]) if len(keys) > 1 \
                else pd.Index(g[vcol])
            g[out_name] = om.loc[idx].to_numpy() + local.to_numpy()
            return g

        return grouped_apply_bucketed(dsx, [vcol], add_rank,
                                      num_buckets=num_buckets,
                                      whole_bucket=True)

    n_total = ds.count()
    ranked = ranks_pass(ds, cx, None, "__xr")

    def slab_of(t: pa.Table) -> pa.Table:
        s = _ntile(t.column("__xr").to_numpy(), n_total, slabs)
        return t.drop_columns(["__xr"]).append_column(
            "slab", pa.array(s, pa.int64()))

    with_slab = ranked.map_batches(slab_of, batch_format="pyarrow")
    # per-slab sizes for the inner NTILE
    sl = grouped_agg_hash(with_slab.select_columns(["slab"]), ["slab"],
                          count=True).to_pandas()
    size_ref = ray.put(sl.set_index("slab")["n"])
    ranked2 = ranks_pass(with_slab, cy, "slab", "__yr")

    def leaf_of(g: pd.DataFrame) -> pd.DataFrame:
        sizes = ray.get(size_ref)
        out = []
        for s, gg in g.groupby("slab", sort=False):
            lf = _ntile(gg["__yr"].to_numpy(), int(sizes.loc[s]),
                        leaves)
            gg = gg.assign(leaf=lf)
            out.append(gg)
        r = pd.concat(out, ignore_index=True)
        agg = r.groupby(["slab", "leaf"], as_index=False).agg(
            n=(id_col, "size"), min_x=(cx, "min"), max_x=(cx, "max"),
            min_y=(cy, "min"), max_y=(cy, "max"))
        for c in agg.columns:
            agg[c] = agg[c].astype("int64")
        return agg

    leaves_ds = grouped_apply_bucketed(ranked2, ["slab"], leaf_of,
                                       num_buckets=min(num_buckets,
                                                       slabs),
                                       whole_bucket=True)
    # a slab lives in ONE bucket, so the per-(slab, leaf) partials are
    # already final rows
    return leaves_ds


def nearest_join(left: ray.data.Dataset, right: ray.data.Dataset,
                 on: str = "ts", by: str = "user_id",
                 left_cols: list[str] | None = None,
                 right_cols: list[str] | None = None,
                 num_buckets: int = 64) -> ray.data.Dataset:
    """Nearest-event join (sensor fusion's asof sibling): each left
    row picks the right row of the same ``by`` key minimizing
    |right.on − left.on|, EARLIER side winning exact-distance ties —
    a deterministic rule both pandas and SQL reproduce. Same scale
    shape as :func:`asof_join`: ONE co-partitioning shuffle of slim
    tagged rows, per-bucket sorted ``pd.merge_asof`` both directions +
    a vectorized tie resolve. Right must be unique per (by, on);
    every joined column must be integer. Left rows with no right key
    match drop (inner). ``left_cols`` / ``right_cols`` name the value
    columns of each side (disjoint from ``on``/``by``); right values
    come back suffixed ``_r``. Returns by, on, left_cols, on_r,
    right value columns ``_r``."""
    left_cols = left_cols or []
    right_cols = right_cols or []

    def tag(side, vals):
        def fn(t: pa.Table) -> pa.Table:
            cols = {by: t[by], on: t[on]}
            for c in left_cols:
                cols[c] = t[c] if c in vals else \
                    pa.nulls(t.num_rows, pa.int64())
            for c in right_cols:
                cols[f"__r_{c}"] = t[c] if c in vals else \
                    pa.nulls(t.num_rows, pa.int64())
            cols["__side"] = pa.array(np.full(t.num_rows, side, np.int8))
            return pa.table(cols)
        return fn

    both = left.map_batches(tag(0, set(left_cols)),
                            batch_format="pyarrow").union(
        right.map_batches(tag(1, set(right_cols)),
                          batch_format="pyarrow"))

    def per(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == 0][[by, on] + left_cols]
        r = g[g["__side"] == 1][[by, on]
                                + [f"__r_{c}" for c in right_cols]]
        r = r.rename(columns={on: f"{on}_r"})
        out_cols = [by, on] + left_cols + [f"{on}_r"] \
            + [f"{c}_r" for c in right_cols]
        if len(l) == 0 or len(r) == 0:
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in out_cols})
        l = l.sort_values(on, kind="mergesort", ignore_index=True)
        r = r.sort_values(f"{on}_r", kind="mergesort",
                          ignore_index=True)
        back = pd.merge_asof(l, r, left_on=on, right_on=f"{on}_r",
                             by=by, direction="backward")
        fwd = pd.merge_asof(l, r, left_on=on, right_on=f"{on}_r",
                            by=by, direction="forward")
        db = (l[on] - back[f"{on}_r"]).abs()
        df_ = (fwd[f"{on}_r"] - l[on]).abs()
        use_fwd = (back[f"{on}_r"].isna()
                   | (df_.notna() & (df_ < db))).to_numpy()
        out = back.copy()
        out.loc[use_fwd, :] = fwd.loc[use_fwd, :].to_numpy()
        out = out[out[f"{on}_r"].notna()]
        out = out.rename(columns={f"__r_{c}": f"{c}_r"
                                  for c in right_cols})
        out = out[out_cols]
        for c in out_cols:
            out[c] = out[c].astype("int64")
        return out

    return grouped_apply_bucketed(both, [by], per,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def locf_grid(ds: ray.data.Dataset, key: str, ts: str, value: str,
              step: int, num_buckets: int = 64) -> ray.data.Dataset:
    """Gap-fill to a fixed tick grid with last-observation-carried-
    forward: for every key and every tick of ``step``·ℤ inside
    [t_first, t_last], the latest value at-or-before the tick — the
    time-series regularization pass (the LOCF sibling of q244's
    interpolating resampler). ONE keyed shuffle; ticks enumerate by
    repeat/arange and ONE global searchsorted on segment-shifted
    timestamps finds every carry source. Timestamps must be unique
    per key. Returns (key, tick, v)."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                              "tick": pd.Series(dtype="int64"),
                              "v": pd.Series(dtype="int64")})
        if len(g) == 0:
            return empty
        g = g.sort_values([key, ts], kind="mergesort", ignore_index=True)
        kv = g[key].to_numpy()
        tv = g[ts].to_numpy(np.int64)
        vv = g[value].to_numpy(np.int64)
        n = len(g)
        starts = np.concatenate([[0],
                                 np.nonzero(kv[1:] != kv[:-1])[0] + 1])
        ends = np.concatenate([starts[1:], [n]])
        t0 = -(-tv[starts] // step) * step
        t1 = (tv[ends - 1] // step) * step
        cnt = np.maximum(0, (t1 - t0) // step + 1)
        if cnt.sum() == 0:
            return empty
        gi = np.repeat(np.arange(len(starts)), cnt)
        offs = np.arange(len(gi)) - np.repeat(
            np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt)
        ticks = np.repeat(t0, cnt) + offs * step
        span = int(tv.max() - tv.min()) + step + 2
        comp_pts = np.arange(len(starts)).repeat(ends - starts) * span \
            + (tv - tv.min())
        comp_tk = gi * span + (ticks - tv.min())
        ia = np.searchsorted(comp_pts, comp_tk, side="right") - 1
        return pd.DataFrame({key: kv[starts][gi], "tick": ticks,
                             "v": vv[ia].astype("int64")})

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def cdf_rank_join(ds: ray.data.Dataset, value: str,
                  ref_sorted: "np.ndarray") -> ray.data.Dataset:
    """Percentile-rank every row against a BROADCAST reference
    distribution: appends rank_le = |{r ∈ ref : r ≤ v}| and n_ref —
    the empirical-CDF lookup (score normalization against a
    calibration table). The reference ships once via ``ray.put`` and
    each batch is one vectorized searchsorted: MAP-ONLY at any scale,
    no join shuffle."""
    ref = np.sort(np.asarray(ref_sorted))
    ref_ref = ray.put(ref)

    def rank(t: pa.Table) -> pa.Table:
        ref_ = ray.get(ref_ref)
        v = t.column(value).to_numpy()
        le = np.searchsorted(ref_, v, side="right")
        return t.append_column(
            "rank_le", pa.array(le.astype(np.int64), pa.int64())) \
            .append_column("n_ref",
                           pa.array(np.full(len(v), len(ref_), np.int64),
                                    pa.int64()))

    return ds.map_batches(rank, batch_format="pyarrow", zero_copy_batch=True)


def sliding_max(ds: ray.data.Dataset, key: str, order: str, value: str,
                window: int, num_buckets: int = 64) -> ray.data.Dataset:
    """Sliding-window maximum per key — SQL ``MAX(v) OVER (PARTITION
    BY key ORDER BY ord ROWS window−1 PRECEDING..CURRENT)``: the
    telemetry peak-hold. ONE keyed shuffle; inside the bucket every
    key is processed at once on a (groups × maxlen) grid with a
    numpy sliding-window view — no per-key loop.
    Returns (key, order, wmax)."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 order: pd.Series(dtype="int64"),
                                 "wmax": pd.Series(dtype="int64")})
        g = g.sort_values([key, order], kind="mergesort",
                          ignore_index=True)
        kv = g[key].to_numpy()
        ov = g[order].to_numpy(np.int64)
        vv = g[value].to_numpy(np.int64)
        n = len(g)
        starts = np.concatenate([[0],
                                 np.nonzero(kv[1:] != kv[:-1])[0] + 1])
        sizes = np.diff(np.append(starts, n))
        G, L = len(starts), int(sizes.max())
        NEG = np.int64(np.iinfo(np.int64).min)
        grid = np.full((G, L + window - 1), NEG, np.int64)
        gi = np.repeat(np.arange(G), sizes)
        pos = np.arange(n) - np.repeat(starts, sizes)
        grid[gi, pos + window - 1] = vv
        wins = np.lib.stride_tricks.sliding_window_view(
            grid, window, axis=1).max(axis=2)
        return pd.DataFrame({key: kv, order: ov,
                             "wmax": wins[gi, pos].astype("int64")})

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def emd1d_vs_global(ds: ray.data.Dataset, key: str, bin_col: str,
                    nbins: int) -> "pd.DataFrame":
    """Exact 1-D earth mover's distance of each key's binned
    distribution against the GLOBAL one, as the unreduced rational
    (Σ_b |n_g·C_k(b) − n_k·C_g(b)|, n_k·n_g) over unit-spaced bins —
    the drift/skew diagnostic between a slice and the corpus, no
    float. Per-batch (key, bin) count partials cross the wire; the
    fold is |keys|×nbins, driver-bounded. Returns
    (key, n, emd_num, emd_den)."""
    counts = grouped_agg(ds.select_columns([key, bin_col]),
                         [key, bin_col], count=True).to_pandas()
    piv = counts.pivot_table(index=key, columns=bin_col, values="n",
                             aggfunc="sum", fill_value=0)
    piv = piv.reindex(columns=range(nbins), fill_value=0)
    H = piv.to_numpy(np.int64)
    nk = H.sum(axis=1)
    g = H.sum(axis=0)
    ng = int(g.sum())
    Ck = np.cumsum(H, axis=1)[:, :-1]
    Cg = np.cumsum(g)[:-1]
    num = np.abs(ng * Ck - nk[:, None] * Cg).sum(axis=1)
    out = pd.DataFrame({key: piv.index.to_numpy(), "n": nk,
                        "emd_num": num, "emd_den": nk * ng})
    for c in ("n", "emd_num", "emd_den"):
        out[c] = out[c].astype("int64")
    return out.sort_values(key).reset_index(drop=True)


def audience_overlap(ds: ray.data.Dataset, key: str,
                     cat: str) -> "pd.DataFrame":
    """Pairwise audience overlap: for every pair of categories, how
    many keys appear in BOTH — the segment-overlap matrix. Each key
    folds to ONE bitmask row (dedup (key, cat) then OR of bits), mask
    frequencies aggregate to ≤ 2^|cats| rows, and the pair fold runs
    on those counts — the data is touched once, pairs never join.
    Categories are the sorted distinct values (driver-bounded ≤ 64).
    Returns (cat_a, cat_b, n_both) for cat_a < cat_b."""
    cats = sorted(grouped_agg_hash(ds.select_columns([cat]), [cat],
                                   count=True).to_pandas()[cat])
    if len(cats) > 64:
        raise ValueError("audience_overlap supports <= 64 categories")
    cmap = {c: i for i, c in enumerate(cats)}
    cref = ray.put(cmap)

    def mask(t: pa.Table) -> pa.Table:
        cmap_ = ray.get(cref)
        k = t.column(key).to_numpy()
        bits = np.array([1 << cmap_[c] for c in t.column(cat).to_pylist()],
                        np.int64)
        df = pd.DataFrame({key: k, "b": bits}) \
            .groupby(key, as_index=False)["b"] \
            .agg(lambda s: np.bitwise_or.reduce(s.to_numpy()))
        return pa.Table.from_pandas(df, preserve_index=False)

    partial = ds.select_columns([key, cat]).map_batches(
        mask, batch_format="pyarrow")

    def orfold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(key, as_index=False)["b"].agg(
            lambda s: int(np.bitwise_or.reduce(s.to_numpy())))
        return out

    masks = grouped_apply_bucketed(partial, [key], orfold,
                                   whole_bucket=True)
    mc = grouped_agg_hash(masks.select_columns(["b"]), ["b"],
                          count=True).to_pandas()
    bvals = mc["b"].to_numpy(np.int64)
    ns = mc["n"].to_numpy(np.int64)
    rows = []
    for a in range(len(cats)):
        for bb in range(a + 1, len(cats)):
            m = (1 << a) | (1 << bb)
            rows.append((cats[a], cats[bb],
                         int(ns[(bvals & m) == m].sum())))
    out = pd.DataFrame(rows, columns=["cat_a", "cat_b", "n_both"])
    out = out[out["n_both"] > 0].reset_index(drop=True)
    out["n_both"] = out["n_both"].astype("int64")
    return out


def largest_remainder(ds: ray.data.Dataset, key: str, id_col: str,
                      weight: str, total: int,
                      num_buckets: int = 64) -> ray.data.Dataset:
    """Pro-rata integer allocation with largest-remainder rounding
    (the Hamilton / budget-allocation method): each key's ``total``
    units split across its rows proportional to ``weight`` — base =
    total·w // W, then the rows with the largest remainders (ties →
    smaller id) take the leftover units, so Σ alloc = total EXACTLY
    per key. ONE keyed shuffle; remainder ranking is one lexsort +
    per-key prefix mask across the whole bucket.
    Returns (key, id, alloc)."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 id_col: pd.Series(dtype="int64"),
                                 "alloc": pd.Series(dtype="int64")})
        g = g.sort_values([key, id_col], kind="mergesort",
                          ignore_index=True)
        kc, uniq = pd.factorize(g[key], sort=True)
        kc = kc.astype(np.int64)
        w = g[weight].to_numpy(np.int64)
        ids = g[id_col].to_numpy(np.int64)
        W = np.bincount(kc, weights=w).astype(np.int64)
        Wr = W[kc]
        base = total * w // np.maximum(Wr, 1)
        rem = total * w - base * Wr            # scaled remainder
        used = np.bincount(kc, weights=base).astype(np.int64)
        left = (total - used)[kc]              # leftover per key
        order = np.lexsort((ids, -rem, kc))
        kk = kc[order]
        starts = np.concatenate([[0],
                                 np.nonzero(kk[1:] != kk[:-1])[0] + 1])
        off = np.zeros(len(kk), np.int64)
        off[starts] = starts
        off = np.maximum.accumulate(off)
        rank = np.arange(len(kk)) - off        # 0-based within key
        bonus = np.zeros(len(kk), np.int64)
        bonus[order] = (rank < left[order]).astype(np.int64)
        return pd.DataFrame({key: g[key], id_col: ids,
                             "alloc": (base + bonus).astype("int64")})

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def mase_partials(ds: ray.data.Dataset, key: str, order: str,
                  value: str, season: int,
                  num_buckets: int = 64) -> ray.data.Dataset:
    """Forecast-baseline error partials per key (the MASE
    denominator/numerator ledger): Σ|v_t − v_{t−1}| over m1 = n−1
    naive steps and Σ|v_t − v_{t−season}| over ms = n−season seasonal
    steps, exact integers from two groupby shifts. Keys shorter than
    season+1 report ms = 0. Returns (key, m1, abs_naive, ms,
    abs_seasonal)."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 "m1": pd.Series(dtype="int64"),
                                 "abs_naive": pd.Series(dtype="int64"),
                                 "ms": pd.Series(dtype="int64"),
                                 "abs_seasonal": pd.Series(dtype="int64")})
        g = g.sort_values([key, order], kind="mergesort",
                          ignore_index=True)
        x = g[value].astype("int64")
        p1 = g.groupby(key, sort=False)[value].shift(1)
        ps = g.groupby(key, sort=False)[value].shift(season)
        d = pd.DataFrame({
            key: g[key],
            "m1": p1.notna().astype("int64"),
            "abs_naive": (x - p1.fillna(0).astype("int64")).abs()
            .where(p1.notna(), 0),
            "ms": ps.notna().astype("int64"),
            "abs_seasonal": (x - ps.fillna(0).astype("int64")).abs()
            .where(ps.notna(), 0)})
        out = d.groupby(key, sort=True, as_index=False).sum()
        for c in ("m1", "abs_naive", "ms", "abs_seasonal"):
            out[c] = out[c].astype("int64")
        return out

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)


def benford_profile(ds: ray.data.Dataset, key: str, value: str,
                    num_buckets: int = 32) -> ray.data.Dataset:
    """Benford first-digit profile per key: counts of leading digits
    1..9 of the positive values (the fraud/data-quality screen).
    First digits come from one vectorized decimal-string view — no
    float log10, so exact at any magnitude; per-batch partials cross
    the wire. Returns (key, digit, n)."""
    def digits(t: pa.Table) -> pa.Table:
        v = t.column(value).to_numpy()
        k = t.column(key).to_numpy(zero_copy_only=False)
        pos = v > 0
        v, k = v[pos], k[pos]
        if len(v) == 0:
            return pa.table({key: pa.array([], pa.string()),
                             "digit": pa.array([], pa.int64())})
        d = np.char.mod("%d", v).astype("U1").astype(np.int64)
        return pa.table({key: pa.array(k), "digit": pa.array(d,
                                                             pa.int64())})

    return grouped_agg(ds.select_columns([key, value]).map_batches(
        digits, batch_format="pyarrow"), [key, "digit"], count=True)


def front_coding_ledger(ds: ray.data.Dataset, col: str,
                        num_buckets: int = 64) -> ray.data.Dataset:
    """Front-coding (incremental/prefix) compression ledger of the
    DISTINCT values of ``col``: per first-character bucket, the term
    count, total bytes, and bytes saved by sharing each term's longest
    common prefix with its sorted predecessor — the dictionary-block
    layout every search index writes. Distributed exactly: terms
    bucket by FIRST CHARACTER, so every sorted-neighbor pair lives in
    one bucket (cross-bucket neighbors share no prefix by
    construction) and each bucket's LCP sweep is one vectorized
    char-compare. Returns (first_char, n_terms, total_bytes,
    saved_bytes)."""
    distinct = grouped_agg_hash(ds.select_columns([col]), [col],
                                count=True).drop_columns(["n"])

    def first_char(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2
        return pa.table({col: t[col],
                         "fc": pc2.utf8_slice_codeunits(t[col], 0, 1)})

    keyed = distinct.map_batches(first_char, batch_format="pyarrow")

    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"first_char": pd.Series(dtype=object),
                                 "n_terms": pd.Series(dtype="int64"),
                                 "total_bytes": pd.Series(dtype="int64"),
                                 "saved_bytes": pd.Series(dtype="int64")})
        g = g.sort_values([col], kind="mergesort", ignore_index=True)
        terms = g[col].tolist()
        lens = np.fromiter((len(s) for s in terms), np.int64,
                           count=len(terms))
        L = int(lens.max()) if len(lens) else 0
        grid = np.zeros((len(terms), L), np.uint32)
        flat = np.frombuffer("".join(terms).encode("utf-32-le"),
                             dtype=np.uint32)
        off = np.concatenate([[0], np.cumsum(lens)])
        rows = np.repeat(np.arange(len(terms)), lens)
        cols = np.arange(len(flat)) - np.repeat(off[:-1], lens)
        grid[rows, cols] = flat
        same = (grid[1:] == grid[:-1]) & (grid[1:] != 0)
        lcp = np.zeros(len(terms), np.int64)
        if len(terms) > 1:
            # longest common prefix = leading run of equal chars
            neq = ~same
            first_diff = np.where(neq.any(axis=1),
                                  neq.argmax(axis=1), L)
            lim = np.minimum(lens[1:], lens[:-1])
            lcp[1:] = np.minimum(first_diff, lim)
        samekey = np.concatenate(
            [[False], g["fc"].to_numpy()[1:] == g["fc"].to_numpy()[:-1]])
        lcp = np.where(samekey, lcp, 0)
        d = pd.DataFrame({"first_char": g["fc"], "len": lens,
                          "lcp": lcp})
        out = d.groupby("first_char", as_index=False).agg(
            n_terms=("len", "size"), total_bytes=("len", "sum"),
            saved_bytes=("lcp", "sum"))
        for c in ("n_terms", "total_bytes", "saved_bytes"):
            out[c] = out[c].astype("int64")
        return out

    return grouped_apply_bucketed(keyed, ["fc"], per,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def stratified_sample(ds: ray.data.Dataset, stratum: str, id_col: str,
                      total: int,
                      num_buckets: int = 32) -> ray.data.Dataset:
    """Deterministic proportional stratified sample: ``total`` rows
    split across strata by largest-remainder allocation (exact total,
    remainder ties → lexicographically smaller stratum), and within
    each stratum the rows with the SMALLEST md5(id) hex digests win —
    content-stable like hash_split, reproducible in SQL, no RNG.
    Stratum counts and the allocation table are driver-bounded by the
    number of strata; the selection is one keyed shuffle + a
    vectorized rank mask. Returns (stratum, id) of the sample."""
    import hashlib

    counts = grouped_agg(ds.select_columns([stratum]), [stratum],
                         count=True).to_pandas() \
        .sort_values(stratum, ignore_index=True)
    n = counts["n"].to_numpy(np.int64)
    W = int(n.sum())
    base = total * n // max(W, 1)
    rem = total * n - base * W
    left = total - int(base.sum())
    order = np.lexsort((np.arange(len(n)), -rem))
    bonus = np.zeros(len(n), np.int64)
    bonus[order[:left]] = 1
    alloc = dict(zip(counts[stratum], (base + bonus).tolist()))
    aref = ray.put(alloc)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        am = ray.get(aref)
        md5 = hashlib.md5
        h = np.array([md5(str(int(i)).encode()).hexdigest()
                      for i in g[id_col]], dtype=object)
        g = g.assign(__h=h).sort_values([stratum, "__h", id_col],
                                        kind="mergesort",
                                        ignore_index=True)
        rk = g.groupby(stratum, sort=False).cumcount()
        ns = g[stratum].map(am).to_numpy()
        out = g[rk.to_numpy() < ns][[stratum, id_col]]
        return out.reset_index(drop=True)

    return grouped_apply_bucketed(ds.select_columns([stratum, id_col]),
                                  [stratum], pick,
                                  num_buckets=num_buckets,
                                  whole_bucket=True)


def lift_table(ds: ray.data.Dataset, score: str, id_col: str,
               label: str, tiles: int = 10,
               num_buckets: int = 64) -> ray.data.Dataset:
    """Decile lift table (the ranked-model evaluation): rows rank by
    (score DESC, id) into ``tiles`` NTILE buckets; per bucket the row
    count, positives, and cumulative positives — exact global NTILE
    WITHOUT a global sort via the str_pack trick (score-value counts
    broadcast as offsets + per-value id ranks inside the value's own
    hash bucket; score domains are bounded in cents).
    Returns (tile, n, n_pos, cum_pos)."""
    cnt = grouped_agg_hash(ds.select_columns([score]), [score],
                           count=True).to_pandas() \
        .sort_values(score, ascending=False, ignore_index=True)
    cnt["__off"] = cnt["n"].cumsum() - cnt["n"]
    off_map = cnt.set_index(score)["__off"]
    n_total = int(cnt["n"].sum())
    off_ref = ray.put(off_map)

    def per(g: pd.DataFrame) -> pd.DataFrame:
        om = ray.get(off_ref)
        g = g.sort_values([score, id_col], ascending=[False, True],
                          kind="mergesort", ignore_index=True)
        local = g.groupby(score, sort=False).cumcount()
        rank = g[score].map(om).to_numpy() + local.to_numpy()
        tile = _ntile(rank, n_total, tiles)
        d = pd.DataFrame({"tile": tile, "n": 1,
                          "n_pos": g[label].to_numpy(np.int64)})
        out = d.groupby("tile", as_index=False).sum()
        for c in ("n", "n_pos"):
            out[c] = out[c].astype("int64")
        return out

    parts = grouped_apply_bucketed(ds, [score], per,
                                   num_buckets=num_buckets,
                                   whole_bucket=True)
    agg = grouped_agg(parts, ["tile"], sum_cols=["n", "n_pos"],
                      count=False).to_pandas().sort_values(
        "tile", ignore_index=True)
    agg["cum_pos"] = agg["n_pos"].cumsum().astype("int64")
    for c in ("tile", "n", "n_pos"):
        agg[c] = agg[c].astype("int64")
    return agg


def auc_exact(ds: ray.data.Dataset, score: str,
              label: str) -> "pd.DataFrame":
    """Exact AUC (Mann–Whitney U with tie handling) as the unreduced
    rational (2U, 2·n_pos·n_neg): 2U = Σ_v nPos(v)·(2·cumNeg(<v) +
    nNeg(v)) over distinct score values ascending — per-batch
    (score, pos, neg) count partials cross the wire; the fold is
    bounded by the distinct-score domain (cents). No float, no pair
    join. Returns one row (n_pos, n_neg, auc_num, auc_den)."""
    def part(t: pa.Table) -> pa.Table:
        lab = t.column(label).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({score: t[score],
                         "pos": pa.array(lab, pa.int64()),
                         "neg": pa.array(1 - lab, pa.int64())})

    counts = grouped_agg(ds.map_batches(part, batch_format="pyarrow"),
                         [score], sum_cols=["pos", "neg"],
                         count=False).to_pandas() \
        .sort_values(score, ignore_index=True)
    p = counts["pos"].to_numpy(np.int64)
    ng = counts["neg"].to_numpy(np.int64)
    cum_neg_below = np.cumsum(ng) - ng
    u2 = int((p * (2 * cum_neg_below + ng)).sum())
    npos, nneg = int(p.sum()), int(ng.sum())
    return pd.DataFrame({"n_pos": [npos], "n_neg": [nneg],
                         "auc_num": [u2],
                         "auc_den": [2 * npos * nneg]}).astype("int64")


def ks_two_sample(ds: ray.data.Dataset, group: str, bin_col: str,
                  a: str, b: str) -> "pd.DataFrame":
    """Exact two-sample Kolmogorov–Smirnov statistic between slices
    ``a`` and ``b`` of the binned values: D = max_v |CDF_a − CDF_b|
    as the unreduced rational (max_v |n_b·C_a(v) − n_a·C_b(v)|,
    n_a·n_b) — the drift test next to q262's EMD, exact by
    cross-multiplication. Per-batch (bin, side) count partials; the
    fold is |distinct bins|, driver-bounded for cent-domain scores.
    Returns one row (n_a, n_b, ks_num, ks_den)."""
    def part(t: pa.Table) -> pa.Table:
        g = t.column(group).to_numpy(zero_copy_only=False)
        keep = (g == a) | (g == b)
        t = t.filter(pa.array(keep))
        g = g[keep]
        return pa.table({bin_col: t[bin_col],
                         "ca": pa.array((g == a).astype(np.int64),
                                        pa.int64()),
                         "cb": pa.array((g == b).astype(np.int64),
                                        pa.int64())})

    counts = grouped_agg(ds.select_columns([group, bin_col])
                         .map_batches(part, batch_format="pyarrow"),
                         [bin_col], sum_cols=["ca", "cb"],
                         count=False).to_pandas() \
        .sort_values(bin_col, ignore_index=True)
    cca = counts["ca"].to_numpy(np.int64).cumsum()
    ccb = counts["cb"].to_numpy(np.int64).cumsum()
    na, nb = int(cca[-1]) if len(cca) else 0, int(ccb[-1]) if len(ccb) else 0
    num = int(np.abs(nb * cca - na * ccb).max()) if len(cca) else 0
    return pd.DataFrame({"n_a": [na], "n_b": [nb], "ks_num": [num],
                         "ks_den": [na * nb]}).astype("int64")


def pair_lift(ds: ray.data.Dataset, key: str, cat: str,
              lift_num: int, lift_den: int) -> "pd.DataFrame":
    """Association lift between category pairs: keep (a, b) where
    P(a,b) ≥ (lift_num/lift_den)·P(a)·P(b), cross-multiplied over the
    distinct-(key,cat) incidence so no float enters: obs·N·lift_den ≥
    lift_num·c_a·c_b with N = distinct keys. Rides audience_overlap's
    bitmask fold (the data never self-joins); categories driver-
    bounded ≤ 64. Returns (cat_a, cat_b, n_both, n_a, n_b, n_keys)
    for qualifying pairs."""
    ov = audience_overlap(ds, key, cat)
    singles = grouped_agg(ds.select_columns([key, cat]), [key, cat],
                          count=True)
    per_cat = grouped_agg(singles.drop_columns(["n"]), [cat],
                          count=True).to_pandas()
    cmap = dict(zip(per_cat[cat], per_cat["n"].astype(int)))
    nkeys = int(grouped_agg_hash(ds.select_columns([key]), [key],
                                 count=True).count())
    rows = []
    for r in ov.itertuples():
        ca, cb = cmap[r.cat_a], cmap[r.cat_b]
        if r.n_both * nkeys * lift_den >= lift_num * ca * cb:
            rows.append((r.cat_a, r.cat_b, int(r.n_both), ca, cb,
                         nkeys))
    out = pd.DataFrame(rows, columns=["cat_a", "cat_b", "n_both",
                                      "n_a", "n_b", "n_keys"])
    for c in ("n_both", "n_a", "n_b", "n_keys"):
        out[c] = out[c].astype("int64")
    return out


def delta_varint_ledger(ds: ray.data.Dataset, key: str, value: str,
                        num_buckets: int = 64) -> ray.data.Dataset:
    """Delta + varint compression ledger per key (the column-encoding
    chooser's cost model): sort the key's values, first value at full
    8 bytes, each nonnegative delta at its LEB128 varint size
    (⌈bits/7⌉ bytes, 1 byte for 0) — plus the bit-packing width
    max_bits = bits of the largest delta. Exact integers; one keyed
    shuffle, groupby shift + vectorized byte-size classing.
    Returns (key, n, raw_bytes, varint_bytes, max_bits)."""
    def per(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({key: pd.Series(dtype=g[key].dtype),
                                 "n": pd.Series(dtype="int64"),
                                 "raw_bytes": pd.Series(dtype="int64"),
                                 "varint_bytes": pd.Series(dtype="int64"),
                                 "max_bits": pd.Series(dtype="int64")})
        g = g.sort_values([key, value], kind="mergesort",
                          ignore_index=True)
        prev = g.groupby(key, sort=False)[value].shift(1)
        first = prev.isna()
        d = (g[value] - prev.fillna(0)).astype("int64") \
            .where(~first, 0).to_numpy()
        # varint size = ceil(bit_length / 7), min 1; first value = 8
        bits = np.zeros(len(d), np.int64)
        nz = d > 0
        bits[nz] = np.floor(np.log2(d[nz].astype(np.float64))) \
            .astype(np.int64) + 1
        # float log2 can be off by one at exact powers: repair exactly
        too_hi = bits > 0
        bits = np.where(too_hi & (d < (np.int64(1) << np.maximum(
            bits - 1, 0))), bits - 1, bits)
        bits = np.where(d >> bits > 0, bits + 1, bits)
        vb = np.where(first.to_numpy(), 8,
                      np.maximum(1, -(-bits // 7)))
        out = pd.DataFrame({key: g[key], "n": 1, "vb": vb,
                            "mb": np.where(first.to_numpy(), 0, bits)})
        agg = out.groupby(key, sort=True, as_index=False).agg(
            n=("n", "sum"), varint_bytes=("vb", "sum"),
            max_bits=("mb", "max"))
        agg["raw_bytes"] = 8 * agg["n"]
        for c in ("n", "raw_bytes", "varint_bytes", "max_bits"):
            agg[c] = agg[c].astype("int64")
        return agg[[key, "n", "raw_bytes", "varint_bytes", "max_bits"]]

    return grouped_apply_bucketed(ds, [key], per, num_buckets=num_buckets,
                                  whole_bucket=True)
