"""Cross-domain mining / retrieval operators (round-3 batch 2).

Training-data-pipeline operators beyond the reference's surface —
retrieval scoring, privacy auditing, record linkage, sampling,
vector quantization, hierarchical cell-set compaction, series
downsampling, lead-lag detection, and two raster-topology ledgers.
Every operator is exact-integer (or single-rounding IEEE-identical)
so a DuckDB oracle can reproduce it bit-for-bit; every shuffle is a
slim keyed exchange with partials computed inside ``map_batches``.

Scale shapes (the 100 TB analysis, per operator):

- ``bm25_topk``: two streaming passes — a 1-row-per-batch corpus-stat
  partial (N docs, total tokens, per-term document frequencies), then
  a map-only scoring pass + bounded local-top-k merge. No shuffle.
- ``boolean_and``: map-only token-membership filter (posting-list AND
  without materializing an index).
- ``k_anonymity_ledger``: one high-cardinality hash-bucket groupby
  (``grouped_agg_hash``) then a 1-row-per-batch ledger partial.
- ``linkage_pairs``: Fellegi–Sunter-style agreement scoring over
  pairs generated INSIDE blocks (one keyed shuffle on the blocking
  key; O(block²) vectorized pair matrices, never all-pairs).
- ``lttb_mean``: one keyed shuffle, per-series vectorized bucket
  sums + integer cross-product argmax (common-denominator trick —
  no float area anywhere).
- ``priority_sample``: map-only priority computation + bounded
  local-top-k merge (Duffield–Lund–Thorup priority sampling with a
  deterministic arithmetic hash).
- ``pq_assign``: broadcast integer codebook, per-batch tensorized
  sub-space argmin — the product-quantization assignment step of an
  IVF-PQ ANN index (pipelines/ann.py holds the IVF side).
- ``compact_hierarchy``: cell-set compaction (H3-compact semantics,
  kernels/h3exact.py holds the real-H3 bit layout) — ONE shuffle on
  the coarsest ancestor, then each subtree compacts locally (all
  merge decisions are subtree-local by construction).
- ``lead_lag``: per-key bucketed second-resolution cross-correlation
  over a bounded lag window.
- ``zone_adjacency`` / ``euler_stats``: map-only per-raster
  shifted-slice ledgers (region-adjacency boundary lengths; the
  Gray-quad Euler characteristic = components − holes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .. import relational as rel


# ---------------------------------------------------------------------------
# BM25 (rational, log-free idf ratio) --------------------------------------

def _tokens_flat(t: pa.Table, text_col: str):
    """(values Arrow StringArray, offsets ndarray[int64]) space-split."""
    toks = t.column(text_col)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    toks = pc.split_pattern(toks, " ")
    offs = toks.offsets.to_numpy().astype(np.int64)
    return toks.values, offs


def _term_tf(vals, offs: np.ndarray, term: str) -> np.ndarray:
    """Per-document term frequency from the flat token array —
    Arrow-vectorized equality, one cumsum, one offset gather."""
    m = pc.equal(vals, term).to_numpy(zero_copy_only=False).astype(np.int64)
    cs = np.concatenate(([0], np.cumsum(m)))
    base = offs[0]
    return cs[offs[1:] - base] - cs[offs[:-1] - base]


def bm25_topk(docs: ray.data.Dataset, terms: list[str], k: int = 25,
              text_col: str = "text", id_col: str = "doc_id") -> pd.DataFrame:
    """BM25 top-k with k1=6/5, b=3/4 and the LOG-FREE idf ratio
    (N−df+½)/(df+½) = (2N−2df+1)/(2df+1), so the whole score is one
    exact rational per (doc, term): with A = total corpus tokens and
    N = docs, num = 22·tf·A·(2N−2df+1) and den =
    (10·A·tf + 3·A + 9·dl·N)·(2df+1) (k1, b multiplied through).
    score_ppm = floor(10⁶·num/den + ½) — num, den exact int64 < 2⁵³,
    ONE double division in identical order on both sides, so the
    DuckDB oracle matches bit-exactly. Two streaming passes; partial
    rows are 1-per-batch; top-k is the bounded local-top-k merge."""
    terms = list(terms)

    def stat_partial(t: pa.Table) -> pa.Table:
        vals, offs = _tokens_flat(t, text_col)
        row = {"n_docs": [t.num_rows], "n_tokens": [int(offs[-1] - offs[0])]}
        for j, term in enumerate(terms):
            tf = _term_tf(vals, offs, term)
            row[f"df_{j}"] = [int((tf > 0).sum())]
        return pa.table(row)

    stats = docs.map_batches(stat_partial, batch_format="pyarrow").to_pandas()
    n = int(stats["n_docs"].sum())
    a = int(stats["n_tokens"].sum())
    df = [int(stats[f"df_{j}"].sum()) for j in range(len(terms))]

    def score(t: pa.Table) -> pa.Table:
        vals, offs = _tokens_flat(t, text_col)
        dl = (offs[1:] - offs[:-1]).astype(np.int64)
        total = np.zeros(t.num_rows, dtype=np.int64)
        hit = np.zeros(t.num_rows, dtype=bool)
        for j, term in enumerate(terms):
            tf = _term_tf(vals, offs, term)
            num = 22 * tf * a * (2 * n - 2 * df[j] + 1)
            den = (10 * a * tf + 3 * a + 9 * dl * n) * (2 * df[j] + 1)
            s = np.floor(1e6 * num.astype(np.float64) / den.astype(np.float64)
                         + 0.5).astype(np.int64)
            m = tf > 0
            total[m] += s[m]
            hit |= m
        return pa.table({id_col: t.column(id_col).filter(pa.array(hit)),
                         "dl": pa.array(dl[hit]),
                         "score_ppm": pa.array(total[hit])})

    out = rel.topk(docs.map_batches(score, batch_format="pyarrow"),
                   "score_ppm", k, descending=True, tiebreak=id_col)
    return out[[id_col, "dl", "score_ppm"]]


def boolean_and(docs: ray.data.Dataset, terms: list[str],
                text_col: str = "text", id_col: str = "doc_id",
                keep: list[str] | None = None) -> ray.data.Dataset:
    """Conjunctive boolean retrieval: docs whose token set contains
    EVERY query term (posting-list intersection semantics, executed
    as a map-only membership filter — no index materialization)."""
    keep = keep or []
    terms = list(terms)

    def f(t: pa.Table) -> pa.Table:
        vals, offs = _tokens_flat(t, text_col)
        ok = np.ones(t.num_rows, dtype=bool)
        for term in terms:
            ok &= _term_tf(vals, offs, term) > 0
        m = pa.array(ok)
        cols = {id_col: t.column(id_col).filter(m)}
        for c in keep:
            cols[c] = t.column(c).filter(m)
        return pa.table(cols)

    return docs.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# k-anonymity audit ----------------------------------------------------------

def k_anonymity_ledger(ds: ray.data.Dataset, keys: list[str],
                       k: int) -> pd.DataFrame:
    """Privacy audit of a quasi-identifier tuple: group sizes via the
    high-cardinality hash-bucket groupby, then a 1-row-per-batch
    ledger partial (groups, rows, risky = size < k, min/max size).
    The whole-dataset reduce is bounded at 6 ints per batch."""
    sizes = rel.grouped_agg_hash(ds, keys, count=True)

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        c = g["n"].to_numpy()
        risky = c < k
        return pd.DataFrame({
            "n_groups": [len(c)], "n_rows": [int(c.sum())],
            "risky_groups": [int(risky.sum())],
            "risky_rows": [int(c[risky].sum())],
            "min_size": [int(c.min()) if len(c) else 0],
            "max_size": [int(c.max()) if len(c) else 0]})

    parts = sizes.map_batches(partial, batch_format="pandas").to_pandas()
    out = pd.DataFrame({
        "n_groups": [int(parts["n_groups"].sum())],
        "n_rows": [int(parts["n_rows"].sum())],
        "risky_groups": [int(parts["risky_groups"].sum())],
        "risky_rows": [int(parts["risky_rows"].sum())],
        "min_size": [int(parts["min_size"].min())],
        "max_size": [int(parts["max_size"].max())]})
    return out.astype("int64")


# ---------------------------------------------------------------------------
# record linkage (Fellegi–Sunter-style agreement weights) -------------------

def linkage_pairs(ds: ray.data.Dataset, block: str, id_col: str,
                  seg_col: str, cents_col: str, close: int,
                  w_seg: int = 4, w_close: int = 2, w_sign: int = 1,
                  threshold: int = 6,
                  num_buckets: int = 64) -> ray.data.Dataset:
    """Blocked record-linkage scoring: within each blocking-key group,
    score every pair by integer agreement weights (same segment,
    |Δcents| ≤ close, same sign) and keep pairs ≥ threshold. One
    shuffle on the blocking key; pair generation is an O(block²)
    vectorized triangular matrix INSIDE the block — never all-pairs
    across blocks (the Fellegi–Sunter blocking discipline)."""

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = len(g)
        if m < 2:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="int64")})
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy()
        seg = g[seg_col].to_numpy()
        cents = g[cents_col].to_numpy().astype(np.int64)
        ia, ib = np.triu_indices(m, k=1)
        score = (w_seg * (seg[ia] == seg[ib]).astype(np.int64)
                 + w_close * (np.abs(cents[ia] - cents[ib])
                              <= close).astype(np.int64)
                 + w_sign * ((cents[ia] >= 0)
                             == (cents[ib] >= 0)).astype(np.int64))
        keep = score >= threshold
        return pd.DataFrame({"id_a": ids[ia[keep]], "id_b": ids[ib[keep]],
                             "score": score[keep]})

    return rel.grouped_apply_bucketed(ds, [block], pairs,
                                      num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# LTTB-mean downsampling -----------------------------------------------------

def lttb_mean(events: ray.data.Dataset, key: str, ts_us: str,
              cents: str, tiebreak: str, nbuckets: int,
              num_buckets: int = 64) -> ray.data.Dataset:
    """Largest-Triangle downsampling with BUCKET-MEAN anchors (the
    parallel-friendly LTTB variant: anchors are the neighbor buckets'
    means, not the previously-selected point, so every bucket's argmax
    is independent — no sequential chain). Equal-frequency buckets by
    rank; bucket 0 keeps the first point, bucket B−1 the last. The
    triangle area is compared by its exact integer numerator over the
    common denominator n_prev²·n_next (x in minutes rebased to the
    series start, y in cents):
    T = (Sxp·nc − Sxc·np)(np·y − Syp) − (Sxp − np·x)(Syp·nc − Syc·np).
    Keys with fewer than ``nbuckets`` points are dropped."""
    B = nbuckets

    def per_series(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({key: pd.Series([], dtype="int64"),
                              "bucket": pd.Series([], dtype="int64"),
                              "x_min": pd.Series([], dtype="int64"),
                              "y_cents": pd.Series([], dtype="int64")})
        n = len(g)
        if n < B:
            return empty
        g = g.sort_values([ts_us, tiebreak], kind="stable")
        us = g[ts_us].to_numpy().astype(np.int64)
        x = (us - us[0]) // 60_000_000
        y = g[cents].to_numpy().astype(np.int64)
        r = np.arange(n, dtype=np.int64)
        b = r * B // n
        nb = np.bincount(b, minlength=B)
        sx = np.bincount(b, weights=x, minlength=B).astype(np.int64)
        sy = np.bincount(b, weights=y, minlength=B).astype(np.int64)
        sel = np.empty(B, dtype=np.int64)
        sel[0], sel[B - 1] = 0, n - 1
        for bi in range(1, B - 1):
            lo, hi = np.searchsorted(b, [bi, bi + 1])
            np_, nc = nb[bi - 1], nb[bi + 1]
            sxp, syp = sx[bi - 1], sy[bi - 1]
            sxc, syc = sx[bi + 1], sy[bi + 1]
            t_num = ((sxp * nc - sxc * np_) * (np_ * y[lo:hi] - syp)
                     - (sxp - np_ * x[lo:hi]) * (syp * nc - syc * np_))
            a = np.abs(t_num)
            # argmax keeps the FIRST max — rank order is (ts, tiebreak)
            # ascending, so ties resolve to the smallest rank, exactly
            # the oracle's ORDER BY abs_t DESC, r ASC
            sel[bi] = lo + int(np.argmax(a))
        return pd.DataFrame({key: g[key].to_numpy()[sel],
                             "bucket": np.arange(B, dtype=np.int64),
                             "x_min": x[sel], "y_cents": y[sel]})

    return rel.grouped_apply_bucketed(events, [key], per_series,
                                      num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# priority sampling ----------------------------------------------------------

def priority_sample(ds: ray.data.Dataset, id_col: str, cents_col: str,
                    k: int) -> pd.DataFrame:
    """Duffield–Lund–Thorup priority sampling: priority = w/u with a
    deterministic arithmetic pseudo-uniform u = (id·2654435761) mod 2²⁰
    + 1 (the multiplicative-hash family the engine's SQL oracles
    share), top-k by priority. ONE double division in identical order
    on both sides → bit-exact vs SQL. Map-only + bounded local-top-k
    merge — the weighted-sample primitive for importance-weighted
    training-data selection."""

    def f(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy().astype(np.int64)
        w = t.column(cents_col).to_numpy().astype(np.int64)
        u = (ids * 2654435761) % 1048576 + 1
        pri = w.astype(np.float64) / u.astype(np.float64)
        return pa.table({id_col: pa.array(ids), "w_cents": pa.array(w),
                         "priority": pa.array(pri)})

    out = rel.topk(ds.map_batches(f, batch_format="pyarrow"),
                   "priority", k, descending=True, tiebreak=id_col)
    return out[[id_col, "w_cents", "priority"]]


# ---------------------------------------------------------------------------
# product quantization -------------------------------------------------------

def pq_assign(emb: ray.data.Dataset, ncodes: int = 16, m: int = 4,
              vec_col: str = "embedding",
              id_col: str = "vec_id") -> ray.data.Dataset:
    """Product-quantization assignment (the PQ half of IVF-PQ;
    pipelines/ann.py:ivf_build holds the IVF half): vectors are
    quantized to integers (floor(x·1000 + ½) — one float multiply,
    identical both sides), split into ``m`` sub-spaces, and each
    sub-vector is assigned the nearest of ``ncodes`` codebook entries
    by EXACT integer squared L2 (tie → smallest code, argmin's first
    hit). The codebook is the first ``ncodes`` vectors by id —
    deterministic, broadcast once via ray.put, never reshipped.
    Emits the code tuple + total reconstruction error per vector."""
    import ray as _ray

    def pick(t: pa.Table) -> pa.Table:
        return (t.select([id_col, vec_col])
                .filter(pc.less(t.column(id_col), pa.scalar(ncodes))))

    cb_rows = emb.map_batches(pick, batch_format="pyarrow").take_all()
    cb_rows.sort(key=lambda r: r[id_col])
    cb = np.stack([np.asarray(r[vec_col], dtype=np.float64)
                   for r in cb_rows])
    cbq = np.floor(cb * 1000.0 + 0.5).astype(np.int64)
    d = cbq.shape[1]
    dsub = d // m
    cb_ref = _ray.put(cbq.reshape(ncodes, m, dsub))

    def assign(t: pa.Table) -> pa.Table:
        codebook = _ray.get(cb_ref)
        lst = t.column(vec_col).combine_chunks()
        flat = lst.values.to_numpy(zero_copy_only=False).astype(np.float64)
        bq = np.floor(flat * 1000.0 + 0.5).astype(np.int64)
        bq = bq.reshape(t.num_rows, m, dsub)
        # (B, ncodes, m) squared distances
        diff = bq[:, None, :, :] - codebook[None, :, :, :]
        sq = np.einsum("bkms,bkms->bkm", diff, diff)
        codes = sq.argmin(axis=1)
        err = sq.min(axis=1).sum(axis=1)
        cols = {id_col: t.column(id_col)}
        for j in range(m):
            cols[f"c{j}"] = pa.array(codes[:, j].astype(np.int64))
        cols["err"] = pa.array(err.astype(np.int64))
        return pa.table(cols)

    return emb.map_batches(assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# hierarchical cell-set compaction (H3-compact semantics) -------------------

def compact_hierarchy(ds: ray.data.Dataset, cell_col: str, depth: int,
                      arity: int = 7, nroots: int = 16,
                      num_buckets: int = 64) -> ray.data.Dataset:
    """H3-``compact``-style cell-set compaction over an ``arity``-ary
    hierarchy: wherever ALL children of a parent are present, replace
    them by the parent, recursively to the roots. Cell ids at res r
    live in [0, nroots·arity^r); parent(c) = c // arity. ONE shuffle
    on the root ancestor — every merge decision is subtree-local, so
    each root's subtree compacts independently (the partitioning
    assumption documented for scale: a planetary cell set shards by
    res-0 cell with zero cross-shard coordination). Input may contain
    duplicates (they're deduped per subtree). Emits (res, cell)."""
    leaf_span = arity ** depth

    def add_root(t: pa.Table) -> pa.Table:
        c = t.column(cell_col).to_numpy().astype(np.int64)
        return pa.table({cell_col: pa.array(c),
                         "__root": pa.array(c // leaf_span)})

    def compact(g: pd.DataFrame) -> pd.DataFrame:
        cells = np.unique(g[cell_col].to_numpy().astype(np.int64))
        out_res, out_cell = [], []
        for res in range(depth, 0, -1):
            parents, counts = np.unique(cells // arity, return_counts=True)
            complete = parents[counts == arity]
            keep = ~np.isin(cells // arity, complete)
            out_res.append(np.full(int(keep.sum()), res, dtype=np.int64))
            out_cell.append(cells[keep])
            cells = complete
            if not len(cells):
                break
        if len(cells):
            out_res.append(np.zeros(len(cells), dtype=np.int64))
            out_cell.append(cells)
        return pd.DataFrame({"res": np.concatenate(out_res),
                             "cell": np.concatenate(out_cell)})

    tagged = ds.map_batches(add_root, batch_format="pyarrow")
    return rel.grouped_apply_bucketed(tagged, ["__root"], compact,
                                      num_buckets=num_buckets,
                                      whole_bucket=False)


# ---------------------------------------------------------------------------
# link prediction (common neighbors / neighborhood Jaccard) -----------------

def link_prediction(edges: ray.data.Dataset, u: str, v: str,
                    k: int = 25, num_buckets: int = 64) -> pd.DataFrame:
    """Common-neighbor link prediction: for every NON-adjacent pair
    with ≥1 shared neighbor, the common-neighbor count plus the
    neighborhood-Jaccard denominator (deg_a + deg_b − cn). Shapes:
    canonical undirected dedup → symmetric (node, nbr) emission →
    per-node vectorized wedge explosion (one keyed shuffle, O(deg²)
    pairs per node, never all-pairs) → high-cardinality hash-bucket
    pair count. Degrees and the edge set here ride a driver-side
    broadcast (bounded by the node-id domain / edge count of the
    derived graph); at web scale both become hash_join/anti paths on
    the same packed pair key."""

    def canon(t: pa.Table) -> pa.Table:
        a = t.column(u).to_numpy().astype(np.int64)
        b = t.column(v).to_numpy().astype(np.int64)
        m = a != b
        a, b = a[m], b[m]
        return pa.table({"a": pa.array(np.minimum(a, b)),
                         "b": pa.array(np.maximum(a, b))})

    e = rel.distinct(edges.map_batches(canon, batch_format="pyarrow"),
                     ["a", "b"])

    def sym(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy().astype(np.int64)
        b = t.column("b").to_numpy().astype(np.int64)
        return pa.table({"node": pa.array(np.concatenate([a, b])),
                         "nbr": pa.array(np.concatenate([b, a]))})

    s = e.map_batches(sym, batch_format="pyarrow")

    deg_df = rel.grouped_agg_hash(s, ["node"], count=True).to_pandas()
    e_df = e.to_pandas()
    pack = (e_df["a"].to_numpy().astype(np.int64) * 2147483648
            + e_df["b"].to_numpy().astype(np.int64))
    edge_set = np.sort(pack)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        nb = np.sort(g["nbr"].to_numpy().astype(np.int64))
        if len(nb) < 2:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        ia, ib = np.triu_indices(len(nb), k=1)
        return pd.DataFrame({"a": nb[ia], "b": nb[ib]})

    w = rel.grouped_apply_bucketed(s, ["node"], wedges,
                                   num_buckets=num_buckets,
                                   min_group_size=2)
    cn_ds = rel.grouped_agg_hash(w, ["a", "b"], count=True)

    import ray as _ray
    state_ref = _ray.put((edge_set,
                          deg_df["node"].to_numpy().astype(np.int64),
                          deg_df["n"].to_numpy().astype(np.int64)))

    def attach(t: pa.Table) -> pa.Table:
        eset, dnode, dcnt = _ray.get(state_ref)
        a = t.column("a").to_numpy().astype(np.int64)
        b = t.column("b").to_numpy().astype(np.int64)
        c = t.column("n").to_numpy().astype(np.int64)
        key = a * 2147483648 + b
        idx = np.searchsorted(eset, key)
        is_edge = idx < len(eset)
        is_edge[is_edge] = eset[idx[is_edge]] == key[is_edge]
        keep = ~is_edge
        a, b, c, key = a[keep], b[keep], c[keep], key[keep]
        order = np.argsort(dnode)
        da = dcnt[order[np.searchsorted(dnode, a, sorter=order)]]
        db = dcnt[order[np.searchsorted(dnode, b, sorter=order)]]
        return pa.table({"a": pa.array(a), "b": pa.array(b),
                         "cn": pa.array(c),
                         "deg_a": pa.array(da), "deg_b": pa.array(db),
                         "jac_den": pa.array(da + db - c),
                         "pair_key": pa.array(key)})

    cand = cn_ds.map_batches(attach, batch_format="pyarrow")
    out = rel.topk(cand, "cn", k, descending=True, tiebreak="pair_key")
    return out[["a", "b", "cn", "deg_a", "deg_b",
                "jac_den"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# lead-lag cross-correlation -------------------------------------------------

def lead_lag(events: ray.data.Dataset, key: str, ts_us: str,
             type_col: str, type_a: str, type_b: str, max_lag: int,
             bucket_us: int = 3_600_000_000,
             num_buckets: int = 64) -> ray.data.Dataset:
    """Best-lag detection between two event streams per key: bucket
    both series to ``bucket_us``-wide counts, compute the integer
    cross-correlation corr(ℓ) = Σ_t a(t)·b(t+ℓ) for ℓ ∈ [−L, L], and
    keep the argmax (tie → smallest ℓ). Only keys where some
    corr > 0. One keyed shuffle; the lag sweep is 2L+1 vectorized
    searchsorted dot products per key."""

    def prep(t: pa.Table) -> pa.Table:
        m = pc.is_in(t.column(type_col),
                     value_set=pa.array([type_a, type_b]))
        t = t.filter(m)
        sec = pc.divide(pc.cast(t.column(ts_us), pa.int64()),
                        pa.scalar(bucket_us, pa.int64()))
        return pa.table({key: t.column(key), "sec": sec,
                         "et": t.column(type_col)})

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({key: pd.Series([], dtype="int64"),
                              "best_lag": pd.Series([], dtype="int64"),
                              "best_corr": pd.Series([], dtype="int64")})
        a = g[g["et"] == type_a]
        b = g[g["et"] == type_b]
        if not len(a) or not len(b):
            return empty
        ta, ca = np.unique(a["sec"].to_numpy(), return_counts=True)
        tb, cb = np.unique(b["sec"].to_numpy(), return_counts=True)
        best_corr, best_lag = 0, None
        for lag in range(-max_lag, max_lag + 1):
            idx = np.searchsorted(tb, ta + lag)
            ok = (idx < len(tb))
            ok[ok] = tb[idx[ok]] == ta[ok] + lag
            corr = int((ca[ok] * cb[idx[ok]]).sum())
            if corr > best_corr:
                best_corr, best_lag = corr, lag
        if best_lag is None:
            return empty
        return pd.DataFrame({key: [g[key].iloc[0]],
                             "best_lag": [best_lag],
                             "best_corr": [best_corr]})

    prepped = events.map_batches(prep, batch_format="pyarrow")
    return rel.grouped_apply_bucketed(prepped, [key], per_key,
                                      num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# batch 3: retrieval blocking, telemetry ledgers, stats partials -------------

def hist_intersection_pairs(blobs: ray.data.Dataset, nbins: int = 16,
                            binw: int = 16,
                            id_col: str = "o_orderkey",
                            bytes_col: str = "bytes",
                            num_buckets: int = 32) -> ray.data.Dataset:
    """Histogram-intersection image retrieval with DOMINANT-BIN
    blocking: per raster a ``nbins``-bin histogram (map-only), then
    pairs are generated only INSIDE equal-dominant-bin blocks (the
    classic retrieval blocking trick — never all-pairs), similarity
    = Σ min(h_a, h_b), exact integers. Dominant-bin ties break to the
    smaller bin id."""
    from .terrain import _per_raster

    def hist(arr):
        h = np.bincount((arr.ravel() // binw).astype(np.int64),
                        minlength=nbins)[:nbins]
        return [(int(h.argmax()), *h.tolist())]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = len(g)
        if m < 2:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "dom": pd.Series([], dtype="int64"),
                                 "sim": pd.Series([], dtype="int64")})
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy()
        hm = g[[f"h{j}" for j in range(nbins)]].to_numpy()
        ia, ib = np.triu_indices(m, k=1)
        sim = np.minimum(hm[ia], hm[ib]).sum(axis=1)
        return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib],
                             "dom": g["dom"].to_numpy()[ia],
                             "sim": sim.astype(np.int64)})

    hds = _per_raster(blobs, bytes_col, id_col,
                      ["dom"] + [f"h{j}" for j in range(nbins)], hist)
    return rel.grouped_apply_bucketed(hds, ["dom"], pairs,
                                      num_buckets=num_buckets)


def latency_histogram(events: ray.data.Dataset, key: str, ts_us: str,
                      tiebreak: str,
                      num_buckets: int = 64) -> pd.DataFrame:
    """Power-of-two inter-arrival histogram: per key, consecutive
    timestamp deltas (order ts, tiebreak), bucketed by bit length
    (0 for zero deltas) — the classic telemetry latency ledger. One
    keyed shuffle; per-series diff + frexp bit-length (exact for
    ints < 2⁵³) + bincount partials; the final merge is ≤64 rows."""

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_us, tiebreak], kind="stable")
        us = g[ts_us].to_numpy().astype(np.int64)
        if len(us) < 2:
            return pd.DataFrame({"bucket": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        d = np.diff(us)
        bits = np.zeros(len(d), dtype=np.int64)
        pos = d > 0
        bits[pos] = np.frexp(d[pos].astype(np.float64))[1]
        c = np.bincount(bits, minlength=64)
        nz = np.flatnonzero(c)
        return pd.DataFrame({"bucket": nz.astype(np.int64),
                             "n": c[nz].astype(np.int64)})

    parts = rel.grouped_apply_bucketed(events, [key], per_key,
                                       num_buckets=num_buckets)
    df = parts.to_pandas()
    out = (df.groupby("bucket", as_index=False)["n"].sum()
           .sort_values("bucket").reset_index(drop=True))
    return out.astype("int64")


def zonemap_ledger(ds: ray.data.Dataset, block: str, cents: str,
                   threshold: int) -> pd.DataFrame:
    """Data-skipping ledger: per-block min/max/count zone maps (the
    manifest-pruning primitive as a queryable operator), plus how much
    a ``cents ≥ threshold`` scan could skip — blocks whose max falls
    below the threshold, with their row counts — and the exact match
    count for calibration. One hash-bucket groupby + two 1-row-per-
    batch partial reduces."""
    blocks = rel.grouped_agg_hash(ds, [block], count=True,
                                  min_cols=[cents], max_cols=[cents])

    def bpart(g: pd.DataFrame) -> pd.DataFrame:
        skip = g[f"max_{cents}"] < threshold
        return pd.DataFrame({
            "n_blocks": [len(g)], "n_rows": [int(g["n"].sum())],
            "skip_blocks": [int(skip.sum())],
            "skip_rows": [int(g.loc[skip, "n"].sum())]})

    bl = blocks.map_batches(bpart, batch_format="pandas").to_pandas()

    def mpart(t: pa.Table) -> pa.Table:
        c = t.column(cents).to_numpy()
        return pa.table({"m": pa.array([int((c >= threshold).sum())],
                                       pa.int64())})

    mt = ds.map_batches(mpart, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({
        "n_blocks": [int(bl["n_blocks"].sum())],
        "n_rows": [int(bl["n_rows"].sum())],
        "skip_blocks": [int(bl["skip_blocks"].sum())],
        "skip_rows": [int(bl["skip_rows"].sum())],
        "match_rows": [int(mt["m"].sum())]}).astype("int64")


def covariance_partials(ds: ray.data.Dataset, x: str, y: str,
                        z: str) -> pd.DataFrame:
    """Feature covariance numerators for three integer features in ONE
    streaming pass of mergeable partials: n, ΣX per column, and the
    pairwise n·ΣXY − ΣX·ΣY covariance numerators — all exact int64
    (bounds documented at the call site). No shuffle; the driver merge
    is 1 row per batch."""

    def part(t: pa.Table) -> pa.Table:
        ax = t.column(x).to_numpy().astype(np.int64)
        ay = t.column(y).to_numpy().astype(np.int64)
        az = t.column(z).to_numpy().astype(np.int64)
        return pa.table({
            "n": pa.array([len(ax)], pa.int64()),
            "sx": pa.array([int(ax.sum())], pa.int64()),
            "sy": pa.array([int(ay.sum())], pa.int64()),
            "sz": pa.array([int(az.sum())], pa.int64()),
            "sxy": pa.array([int((ax * ay).sum())], pa.int64()),
            "sxz": pa.array([int((ax * az).sum())], pa.int64()),
            "syz": pa.array([int((ay * az).sum())], pa.int64())})

    p = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    n = int(p["n"].sum())
    sx, sy, sz = (int(p[c].sum()) for c in ("sx", "sy", "sz"))
    sxy, sxz, syz = (int(p[c].sum()) for c in ("sxy", "sxz", "syz"))
    return pd.DataFrame({
        "n": [n], "sx": [sx], "sy": [sy], "sz": [sz],
        "cxy": [n * sxy - sx * sy], "cxz": [n * sxz - sx * sz],
        "cyz": [n * syz - sy * sz]}).astype("int64")


def sat_rect_queries(blobs: ray.data.Dataset, nq: int = 5,
                     id_col: str = "o_orderkey",
                     bytes_col: str = "bytes") -> ray.data.Dataset:
    """Summed-area-table rectangle queries: per raster, one integral
    image, then ``nq`` arithmetic-derived rectangle sums answered in
    O(1) each via the 4-corner SAT identity (the windowed-aggregate
    primitive of sliding zonal stats). Rect j of raster k:
    x1=(3k+5j)%10, y1=(7k+3j)%8, w=3+(j%3), h=2+(j%2). Map-only;
    the oracle recomputes each sum naively."""
    from .terrain import _decode_batch

    def f(t: pa.Table) -> pa.Table:
        ids, js, sums = [], [], []
        for rid, arr, _ in _decode_batch(t, bytes_col, id_col):
            s = np.zeros((arr.shape[0] + 1, arr.shape[1] + 1),
                         dtype=np.int64)
            s[1:, 1:] = arr.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
            for j in range(nq):
                x1 = (3 * rid + 5 * j) % 10
                y1 = (7 * rid + 3 * j) % 8
                x2 = x1 + 2 + (j % 3)
                y2 = y1 + 1 + (j % 2)
                v = int(s[y2 + 1, x2 + 1] - s[y1, x2 + 1]
                        - s[y2 + 1, x1] + s[y1, x1])
                ids.append(rid)
                js.append(j)
                sums.append(v)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "j": pa.array(js, pa.int64()),
                         "rect_sum": pa.array(sums, pa.int64())})

    return blobs.map_batches(f, batch_format="pyarrow")


def late_event_ledger(events: ray.data.Dataset, key: str, ts_us: str,
                      arrival: str, tiebreak: str, w_us: int,
                      num_buckets: int = 64) -> ray.data.Dataset:
    """Watermark lateness audit: order each key's events by ARRIVAL,
    track the running max event time (the watermark source), and count
    events arriving more than ``w_us`` behind it — the measurement a
    streaming runtime needs to size its allowed-lateness window. Per
    key: n_late and the max lateness; keys with none are dropped."""

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([arrival, tiebreak], kind="stable")
        us = g[ts_us].to_numpy().astype(np.int64)
        if len(us) < 2:
            return pd.DataFrame({key: pd.Series([], dtype="int64"),
                                 "n_late": pd.Series([], dtype="int64"),
                                 "max_late_us": pd.Series([],
                                                          dtype="int64")})
        wm = np.maximum.accumulate(us)[:-1]
        late = wm - us[1:]
        m = late > w_us
        if not m.any():
            return pd.DataFrame({key: pd.Series([], dtype="int64"),
                                 "n_late": pd.Series([], dtype="int64"),
                                 "max_late_us": pd.Series([],
                                                          dtype="int64")})
        return pd.DataFrame({key: [g[key].iloc[0]],
                             "n_late": [int(m.sum())],
                             "max_late_us": [int(late[m].max())]})

    return rel.grouped_apply_bucketed(events, [key], per_key,
                                      num_buckets=num_buckets)


def compass_rose(events: ray.data.Dataset, key: str, ts_us: str,
                 tiebreak: str, x: str, y: str,
                 num_buckets: int = 64) -> pd.DataFrame:
    """Movement-direction histogram: per key, consecutive moves
    (order ts, tiebreak) classified into the four axis-centered
    quadrants by EXACT integer comparisons (E: −dx < dy ≤ dx;
    N: −dy ≤ dx < dy; W: dx ≤ dy < −dx; S: dy < dx ≤ −dy; 8 =
    stationary) — a disjoint cover of the plane, no trigonometry.
    Global sector counts; per-series diffs ride one keyed shuffle."""

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_us, tiebreak], kind="stable")
        gx = g[x].to_numpy().astype(np.int64)
        gy = g[y].to_numpy().astype(np.int64)
        if len(gx) < 2:
            return pd.DataFrame({"sector": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        dx, dy = np.diff(gx), np.diff(gy)
        sec = np.select(
            [(dx == 0) & (dy == 0),
             (dy > -dx) & (dy <= dx),
             (dx >= -dy) & (dx < dy),
             (dy >= dx) & (dy < -dx),
             (dx > dy) & (dx <= -dy)],
            [8, 0, 2, 4, 6])
        c = np.bincount(sec, minlength=9)
        nz = np.flatnonzero(c)
        return pd.DataFrame({"sector": nz.astype(np.int64),
                             "n": c[nz].astype(np.int64)})

    parts = rel.grouped_apply_bucketed(events, [key], per_key,
                                       num_buckets=num_buckets)
    df = parts.to_pandas()
    out = (df.groupby("sector", as_index=False)["n"].sum()
           .sort_values("sector").reset_index(drop=True))
    return out.astype("int64")


# ---------------------------------------------------------------------------
# batch 4: planner/audit ledgers, CV transforms, path mining -----------------

def join_cardinality_estimate(a: ray.data.Dataset, b: ray.data.Dataset,
                              cell: str, dim: int = 64,
                              coarse_shift: int = 3) -> pd.DataFrame:
    """Spatial-join output-size estimation from per-cell histograms —
    the planner primitive behind the engine's zonal salting decision:
    exact pair count at the fine ``dim``×``dim`` grid (Σ ca·cb over
    equal cells, cell = cx·dim + cy) vs the estimate from a
    ``2^coarse_shift``-times-coarser grid (cx,cy each shifted — true
    spatial coarsening, not a bit-shift of the packed key). Both sides
    reduce to (cell, n) via the hash-bucket groupby (bounded by the
    cell domain), so nothing bigger than the histogram ever moves."""
    ha = rel.grouped_agg_hash(a, [cell], count=True).to_pandas()
    hb = rel.grouped_agg_hash(b, [cell], count=True).to_pandas()
    m = ha.merge(hb, on=cell, suffixes=("_a", "_b"))
    exact = int((m["n_a"].to_numpy().astype(np.int64)
                 * m["n_b"].to_numpy()).sum())

    def coarsen(h: pd.DataFrame) -> pd.DataFrame:
        c = h[cell].to_numpy().astype(np.int64)
        key = ((c // dim) >> coarse_shift) * (dim >> coarse_shift) \
            + ((c % dim) >> coarse_shift)
        return (h.assign(c=key)
                .groupby("c", as_index=False)["n"].sum())

    mc = coarsen(ha).merge(coarsen(hb), on="c", suffixes=("_a", "_b"))
    est = int((mc["n_a"].to_numpy().astype(np.int64)
               * mc["n_b"].to_numpy()).sum())
    return pd.DataFrame({"exact_pairs": [exact],
                         "coarse_estimate": [est]}).astype("int64")


def census_stats(blobs: ray.data.Dataset, id_col: str = "o_orderkey",
                 bytes_col: str = "bytes") -> ray.data.Dataset:
    """Census transform ledger (the non-parametric local transform of
    stereo matching): per interior pixel an 8-bit code, bit b set when
    neighbor b exceeds the center (fixed E,SE,S,SW,W,NW,N,NE order).
    Emits distinct-code count, code sum and max code per raster —
    map-only shifted slices, exact ints."""
    from .terrain import D8_OFFSETS, _per_raster

    def rows(arr):
        v = arr.astype(np.int64)
        c = v[1:-1, 1:-1]
        code = np.zeros_like(c)
        for bit, (dx, dy) in enumerate(D8_OFFSETS):
            nb = v[1 + dy:v.shape[0] - 1 + dy,
                   1 + dx:v.shape[1] - 1 + dx]
            code |= (nb > c).astype(np.int64) << bit
        return [(int(len(np.unique(code))), int(code.sum()),
                 int(code.max()))]

    return _per_raster(blobs, bytes_col, id_col,
                       ("n_codes", "code_sum", "max_code"), rows)


def top_paths(events: ray.data.Dataset, key: str, ts_us: str,
              tiebreak: str, step_col: str, k: int = 10,
              num_buckets: int = 64) -> pd.DataFrame:
    """Clickstream path mining: per key, consecutive 3-step paths
    (order ts, tiebreak) joined as 'a>b>c'; global counts; top-k by
    count with lexicographic tie-break. One keyed shuffle for the
    per-series triples, one hash-bucket count, bounded top-k merge."""

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_us, tiebreak], kind="stable")
        s = g[step_col].to_numpy().astype(str)
        if len(s) < 3:
            return pd.DataFrame({"path": pd.Series([], dtype="object")})
        path = np.char.add(np.char.add(np.char.add(
            np.char.add(s[:-2], ">"), s[1:-1]), ">"), s[2:])
        return pd.DataFrame({"path": path})

    trips = rel.grouped_apply_bucketed(events, [key], per_key,
                                       num_buckets=num_buckets)
    counts = rel.grouped_agg_hash(trips, ["path"], count=True)
    out = rel.topk(counts, "n", k, descending=True, tiebreak="path")
    return out[["path", "n"]].reset_index(drop=True)


def fk_audit(child: ray.data.Dataset, child_key: str,
             parent: ray.data.Dataset, parent_key: str) -> pd.DataFrame:
    """Referential-integrity audit: orphan child rows (no matching
    parent key), distinct orphan keys, and parent coverage (parents
    referenced by ≥1 child). Parent keys broadcast once via ray.put
    (bloom_prefilter is the documented at-scale path); child side is
    one streaming membership pass + a small distinct."""
    import ray as _ray

    pk = parent.select_columns([parent_key]).to_pandas()
    pkeys = np.unique(pk[parent_key].to_numpy().astype(np.int64))
    ref = _ray.put(pkeys)

    def part(t: pa.Table) -> pa.Table:
        keys_sorted = _ray.get(ref)
        keys = t.column(child_key).to_numpy().astype(np.int64)
        idx = np.searchsorted(keys_sorted, keys)
        ok = idx < len(keys_sorted)
        ok[ok] = keys_sorted[idx[ok]] == keys[ok]
        # parent coverage as a packed bitmap over key positions
        # (|parents|/8 bytes per batch — the driver merge is an OR)
        cover = np.zeros(len(keys_sorted), dtype=bool)
        cover[idx[ok]] = True
        orph = np.unique(keys[~ok])
        return pa.table({
            "n_rows": pa.array([len(keys)], pa.int64()),
            "n_orphan_rows": pa.array([int((~ok).sum())], pa.int64()),
            "orph": pa.array([orph.tolist()], pa.list_(pa.int64())),
            "cover": pa.array([np.packbits(cover).tobytes()],
                              pa.binary())})

    p = child.map_batches(part, batch_format="pyarrow").to_pandas()
    cover = np.zeros(len(pkeys), dtype=bool)
    for blob in p["cover"]:
        cover |= np.unpackbits(
            np.frombuffer(blob, np.uint8))[:len(pkeys)].astype(bool)
    orph_lists = [np.asarray(x, dtype=np.int64) for x in p["orph"]]
    orph = (np.unique(np.concatenate(orph_lists)) if orph_lists
            else np.array([], dtype=np.int64))
    return pd.DataFrame({
        "n_rows": [int(p["n_rows"].sum())],
        "n_orphan_rows": [int(p["n_orphan_rows"].sum())],
        "n_orphan_keys": [len(orph)],
        "n_parents": [len(pkeys)],
        "n_parents_referenced": [int(cover.sum())]}).astype("int64")


def triangle_threshold(blobs: ray.data.Dataset, nlevels: int = 64,
                       id_col: str = "o_orderkey",
                       bytes_col: str = "bytes") -> ray.data.Dataset:
    """Triangle (Zack) threshold per raster — the geometric sibling of
    q206's Otsu: draw the line from the histogram PEAK (max count, tie
    smallest bin) to the LAST nonzero bin and pick the bin between
    them maximizing the perpendicular distance, which shares its
    argmax with the exact integer cross product
    |(e−p)·(h_t−h_p) − (t−p)·(h_e−h_p)| (tie → smallest t)."""
    from .terrain import _per_raster

    def rows(arr):
        h = np.bincount(arr.ravel().astype(np.int64),
                        minlength=nlevels)[:nlevels].astype(np.int64)
        p = int(h.argmax())
        nz = np.flatnonzero(h)
        e = int(nz[-1])
        ts = np.arange(p, e + 1, dtype=np.int64)
        cross = np.abs((e - p) * (h[ts] - h[p])
                       - (ts - p) * (h[e] - h[p]))
        j = int(np.argmax(cross))
        return [(p, e, int(ts[j]), int(cross[j]))]

    return _per_raster(blobs, bytes_col, id_col,
                       ("peak", "last", "thr", "cross_abs"), rows)


def assortativity_partials(edges: ray.data.Dataset, u: str,
                           v: str) -> pd.DataFrame:
    """Degree-assortativity numerators over the undirected simple
    graph: with each edge counted in both directions, r =
    (n·Σxy − (Σx)²) / (n·Σx² − (Σx)²) where x, y are endpoint degrees
    — emitted as exact int64 numerator/denominator. Degrees broadcast
    once; per-edge products stream as 1-row partials."""
    import ray as _ray

    def canon(t: pa.Table) -> pa.Table:
        a = t.column(u).to_numpy().astype(np.int64)
        b = t.column(v).to_numpy().astype(np.int64)
        m = a != b
        a, b = a[m], b[m]
        return pa.table({"a": pa.array(np.minimum(a, b)),
                         "b": pa.array(np.maximum(a, b))})

    e = rel.distinct(edges.map_batches(canon, batch_format="pyarrow"),
                     ["a", "b"])

    def sym(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy().astype(np.int64)
        b = t.column("b").to_numpy().astype(np.int64)
        return pa.table({"node": pa.array(np.concatenate([a, b])),
                         "nbr": pa.array(np.concatenate([b, a]))})

    s = e.map_batches(sym, batch_format="pyarrow")
    deg_df = rel.grouped_agg_hash(s, ["node"], count=True).to_pandas()
    dn = deg_df["node"].to_numpy().astype(np.int64)
    dc = deg_df["n"].to_numpy().astype(np.int64)
    order = np.argsort(dn)
    dn, dc = dn[order], dc[order]
    ref = _ray.put((dn, dc))

    def part(t: pa.Table) -> pa.Table:
        nodes, cnts = _ray.get(ref)
        du = cnts[np.searchsorted(nodes, t.column("node").to_numpy())]
        dv = cnts[np.searchsorted(nodes, t.column("nbr").to_numpy())]
        return pa.table({
            "n": pa.array([len(du)], pa.int64()),
            "sx": pa.array([int(du.sum())], pa.int64()),
            "sxx": pa.array([int((du * du).sum())], pa.int64()),
            "sxy": pa.array([int((du * dv).sum())], pa.int64())})

    p = s.map_batches(part, batch_format="pyarrow").to_pandas()
    n = int(p["n"].sum())
    sx, sxx, sxy = (int(p[c].sum()) for c in ("sx", "sxx", "sxy"))
    return pd.DataFrame({
        "n": [n], "sx": [sx], "sxx": [sxx], "sxy": [sxy],
        "num": [n * sxy - sx * sx],
        "den": [n * sxx - sx * sx]}).astype("int64")


def dominant_period(events: ray.data.Dataset, key: str, ts_us: str,
                    tiebreak: str, unit_us: int,
                    num_buckets: int = 64) -> ray.data.Dataset:
    """Periodicity detection: per key, the most common inter-arrival
    gap in ``unit_us`` units (mode of consecutive deltas, tie →
    smallest gap) with its support count — the weekly/daily recurring-
    visit detector. One keyed shuffle, vectorized per series."""

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_us, tiebreak], kind="stable")
        us = g[ts_us].to_numpy().astype(np.int64)
        if len(us) < 2:
            return pd.DataFrame({key: pd.Series([], dtype="int64"),
                                 "period": pd.Series([], dtype="int64"),
                                 "support": pd.Series([], dtype="int64")})
        d = np.diff(us) // unit_us
        vals, cnts = np.unique(d, return_counts=True)
        j = int(np.argmax(cnts))  # unique() sorts → first max = smallest
        return pd.DataFrame({key: [g[key].iloc[0]],
                             "period": [int(vals[j])],
                             "support": [int(cnts[j])]})

    return rel.grouped_apply_bucketed(events, [key], per_key,
                                      num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# batch 5: pyramid QA, keyness, mobility/telemetry stats ---------------------

def pyramid_error(blobs: ray.data.Dataset, id_col: str = "o_orderkey",
                  bytes_col: str = "bytes") -> ray.data.Dataset:
    """Overview-pyramid reconstruction error: downsample 2×2 by
    floor-mean (sum // 4 — the gdaladdo-style level the engine's COG
    chains store), upsample by repetition, and ledger Σ|v − up| and
    max|v − up| per raster — the QA number that decides whether a
    pyramid level is servable. Map-only, exact ints."""
    from .terrain import _per_raster

    def rows(arr):
        v = arr.astype(np.int64)
        h2, w2 = v.shape[0] // 2, v.shape[1] // 2
        q = v[:h2 * 2, :w2 * 2]
        down = (q[0::2, 0::2] + q[0::2, 1::2]
                + q[1::2, 0::2] + q[1::2, 1::2]) // 4
        up = np.repeat(np.repeat(down, 2, axis=0), 2, axis=1)
        d = np.abs(q - up)
        return [(int(d.sum()), int(d.max()))]

    return _per_raster(blobs, bytes_col, id_col, ("abs_err", "max_err"),
                       rows)


def top_keyword(docs: ray.data.Dataset, text_col: str = "text",
                id_col: str = "doc_id") -> ray.data.Dataset:
    """Keyness extraction: per document the term maximizing
    tf_doc/ctf_corpus (the log-free keyness ratio — document A and dl
    cancel inside a doc, so the argmax is the exact integer
    cross-multiplied compare tf₁·ctf₂ > tf₂·ctf₁, ties → smaller
    term). Corpus term frequencies reduce via the hash-bucket groupby
    (vocabulary-bounded) and broadcast once."""
    import ray as _ray

    def toks(t: pa.Table) -> pa.Table:
        vals, offs = _tokens_flat(t, text_col)
        return pa.table({"term": vals})

    ctf_df = rel.grouped_agg_hash(
        docs.map_batches(toks, batch_format="pyarrow"),
        ["term"], count=True).to_pandas()
    terms = ctf_df["term"].to_numpy().astype(str)
    order = np.argsort(terms)
    ref = _ray.put((terms[order],
                    ctf_df["n"].to_numpy().astype(np.int64)[order]))

    def pick(t: pa.Table) -> pa.Table:
        vocab, ctf = _ray.get(ref)
        vals, offs = _tokens_flat(t, text_col)
        base = offs[0]
        va = vals.to_numpy(zero_copy_only=False).astype(str)
        doc = np.repeat(np.arange(t.num_rows),
                        (offs[1:] - offs[:-1]))
        # per (doc, term) tf via lexsort run-lengths
        tid = np.searchsorted(vocab, va)
        key = doc * (len(vocab) + 1) + tid
        sk = np.sort(key)
        uniq, tf = np.unique(sk, return_counts=True)
        udoc = uniq // (len(vocab) + 1)
        utid = uniq % (len(vocab) + 1)
        uctf = ctf[utid]
        best = np.full(t.num_rows, -1, dtype=np.int64)
        bt = np.zeros(t.num_rows, dtype=np.int64)
        bc = np.ones(t.num_rows, dtype=np.int64)
        if len(uniq):
            # vectorized float preselect (per-doc max of tf/ctf), then
            # an EXACT cross-multiplied confirm over the few survivors
            # — float alone could merge distinct rationals at 2⁻⁵³
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(udoc)) + 1))
            gidx = np.cumsum(np.isin(np.arange(len(uniq)), starts)) - 1
            f = tf / uctf
            gmax = np.maximum.reduceat(f, starts)
            cand = np.flatnonzero(f >= gmax[gidx] * (1.0 - 1e-9))
            for i in cand:  # candidates: ~1 per doc
                d = udoc[i]
                if best[d] < 0 or tf[i] * bc[d] > bt[d] * uctf[i]:
                    best[d], bt[d], bc[d] = utid[i], tf[i], uctf[i]
        m = best >= 0
        return pa.table({
            id_col: t.column(id_col).filter(pa.array(m)),
            "term": pa.array(vocab[best[m]]),
            "tf": pa.array(bt[m]), "ctf": pa.array(bc[m])})

    return docs.map_batches(pick, batch_format="pyarrow")


def nearest_center(pts: ray.data.Dataset, x: str, y: str,
                   centers: "np.ndarray") -> pd.DataFrame:
    """Reverse-geocode assignment: each point to its nearest of K
    centers by exact integer L1 distance (tie → smallest center id),
    emitting per-center counts and total distance. Centers broadcast
    in the task closure (K is small); assignment is a (B × K)
    vectorized argmin; global counts are K-row partials."""
    cx = centers[:, 0].astype(np.int64)
    cy = centers[:, 1].astype(np.int64)
    k = len(cx)

    def part(t: pa.Table) -> pa.Table:
        px = t.column(x).to_numpy().astype(np.int64)
        py = t.column(y).to_numpy().astype(np.int64)
        d = (np.abs(px[:, None] - cx[None, :])
             + np.abs(py[:, None] - cy[None, :]))
        a = d.argmin(axis=1)
        dist = d[np.arange(len(px)), a]
        n = np.bincount(a, minlength=k)
        s = np.bincount(a, weights=dist, minlength=k).astype(np.int64)
        return pa.table({"city": pa.array(np.arange(k, dtype=np.int64)),
                         "n": pa.array(n.astype(np.int64)),
                         "sum_l1": pa.array(s)})

    p = pts.map_batches(part, batch_format="pyarrow").to_pandas()
    out = (p.groupby("city", as_index=False)[["n", "sum_l1"]].sum()
           .sort_values("city").reset_index(drop=True))
    return out[out["n"] > 0].reset_index(drop=True).astype("int64")


def radius_gyration(pts: ray.data.Dataset, key: str, x: str, y: str
                    ) -> ray.data.Dataset:
    """Radius-of-gyration numerators per key (the classic mobility
    metric): with n points and integer coordinates, rog² =
    (n·(Σx²+Σy²) − (Σx)² − (Σy)²) / n² — emitted as exact integer
    numerator + n. Pure grouped sums: per-batch Arrow partials, one
    hash-bucket groupby, no per-series pass at all."""
    def prep(t: pa.Table) -> pa.Table:
        px = t.column(x).to_numpy().astype(np.int64)
        py = t.column(y).to_numpy().astype(np.int64)
        return pa.table({key: t.column(key),
                         "sx": pa.array(px), "sy": pa.array(py),
                         "sxx": pa.array(px * px),
                         "syy": pa.array(py * py)})

    g = rel.grouped_agg_hash(pts.map_batches(prep, batch_format="pyarrow"),
                             [key], sum_cols=["sx", "sy", "sxx", "syy"],
                             count=True)

    def final(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy().astype(np.int64)
        sx = t.column("sx").to_numpy().astype(np.int64)
        sy = t.column("sy").to_numpy().astype(np.int64)
        sxx = t.column("sxx").to_numpy().astype(np.int64)
        syy = t.column("syy").to_numpy().astype(np.int64)
        return pa.table({key: t.column(key), "n": pa.array(n),
                         "rog_num": pa.array(n * (sxx + syy)
                                             - sx * sx - sy * sy)})

    return g.map_batches(final, batch_format="pyarrow")


def burstiness(events: ray.data.Dataset, key: str, ts_us: str,
               bucket_us: int) -> ray.data.Dataset:
    """Burstiness numerators per key: over the NONZERO activity
    buckets, the Fano-style variance/mean numerators n·Σc² − (Σc)²
    (den = n·Σc) as exact ints — distinguishes periodic from bursty
    streams. Two chained hash-bucket groupbys (key+bucket counts,
    then per-key sums)."""
    def prep(t: pa.Table) -> pa.Table:
        b = pc.divide(pc.cast(t.column(ts_us), pa.int64()),
                      pa.scalar(bucket_us, pa.int64()))
        return pa.table({key: t.column(key), "b": b})

    per_bucket = rel.grouped_agg_hash(
        events.map_batches(prep, batch_format="pyarrow"),
        [key, "b"], count=True)

    def prep2(t: pa.Table) -> pa.Table:
        c = t.column("n").to_numpy().astype(np.int64)
        return pa.table({key: t.column(key), "sc": pa.array(c),
                         "scc": pa.array(c * c)})

    g = rel.grouped_agg_hash(
        per_bucket.map_batches(prep2, batch_format="pyarrow"),
        [key], sum_cols=["sc", "scc"], count=True)

    def final(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy().astype(np.int64)
        sc = t.column("sc").to_numpy().astype(np.int64)
        scc = t.column("scc").to_numpy().astype(np.int64)
        return pa.table({key: t.column(key), "n_buckets": pa.array(n),
                         "sum_c": pa.array(sc),
                         "fano_num": pa.array(n * scc - sc * sc)})

    return g.map_batches(final, batch_format="pyarrow")


def contribution_ledger(ds: ray.data.Dataset, lvl1: str, lvl2: str,
                        cents: str) -> pd.DataFrame:
    """Percent-of-total contribution ledger (exact ppm by integer
    floor division): per (lvl1, lvl2) cents, its ppm of the lvl1
    subtotal, the subtotal, and the subtotal's ppm of the grand total.
    One grouped partial pass; the two rollup levels are derived on the
    driver from the (lvl1, lvl2) table (bounded by group count)."""
    g = rel.grouped_agg_hash(ds.map_batches(
        lambda t: t.select([lvl1, lvl2, cents]),
        batch_format="pyarrow"), [lvl1, lvl2],
        sum_cols=[cents], count=False).to_pandas()
    g[cents] = g[cents].astype("int64")
    sub = g.groupby(lvl1, as_index=False)[cents].sum() \
        .rename(columns={cents: "lvl1_cents"})
    total = int(g[cents].sum())
    out = g.merge(sub, on=lvl1)
    out["ppm_of_lvl1"] = (out[cents] * 1000000) // out["lvl1_cents"]
    out["ppm_of_total"] = (out["lvl1_cents"] * 1000000) // total
    out = out.sort_values([lvl1, lvl2]).reset_index(drop=True)
    out["ppm_of_lvl1"] = out["ppm_of_lvl1"].astype("int64")
    out["ppm_of_total"] = out["ppm_of_total"].astype("int64")
    out["lvl1_cents"] = out["lvl1_cents"].astype("int64")
    return out


def cooccurrence(events: ray.data.Dataset, key: str, ts_us: str,
                 tiebreak: str, type_col: str, w_us: int,
                 num_buckets: int = 64) -> pd.DataFrame:
    """Temporal co-occurrence mining: unordered event-type pairs
    occurring within ``w_us`` of each other in the same key's stream,
    counted exactly once per event pair (strict (ts, tiebreak)
    ordering). Per-series pair emission is searchsorted ranges +
    np.repeat (bounded by stream density × window); counts ride the
    hash-bucket groupby."""

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_us, tiebreak], kind="stable")
        us = g[ts_us].to_numpy().astype(np.int64)
        et = g[type_col].to_numpy().astype(str)
        n = len(us)
        if n < 2:
            return pd.DataFrame({"ta": pd.Series([], dtype="object"),
                                 "tb": pd.Series([], dtype="object")})
        hi = np.searchsorted(us, us + w_us, side="right")
        cnt = hi - np.arange(n) - 1
        ii = np.repeat(np.arange(n), np.maximum(cnt, 0))
        jj = (np.concatenate([np.arange(i + 1, h) for i, h in
                              enumerate(hi)])
              if cnt.sum() else np.array([], dtype=np.int64))
        a, b = et[ii], et[jj]
        lo = a <= b
        return pd.DataFrame({"ta": np.where(lo, a, b),
                             "tb": np.where(lo, b, a)})

    pairs = rel.grouped_apply_bucketed(events, [key], per_key,
                                       num_buckets=num_buckets)
    counts = rel.grouped_agg_hash(pairs, ["ta", "tb"],
                                  count=True).to_pandas()
    return (counts.sort_values(["ta", "tb"]).reset_index(drop=True))


# ---------------------------------------------------------------------------
# raster topology ledgers ----------------------------------------------------

def zone_adjacency(blobs: ray.data.Dataset, id_col: str = "o_orderkey",
                   bytes_col: str = "bytes") -> ray.data.Dataset:
    """Region-adjacency ledger of a label raster: for every unordered
    pair of distinct labels, the shared-boundary length in pixel edges
    (4-connectivity, right+down shifted slices) — the decision input
    of dissolve/merge planning over classified rasters. Map-only,
    per-raster independent."""
    from .terrain import _per_raster

    def rows(arr):
        v = arr.astype(np.int64)
        pairs = []
        for pa_, pb_ in ((v[:, :-1], v[:, 1:]), (v[:-1, :], v[1:, :])):
            a, b = pa_.ravel(), pb_.ravel()
            m = a != b
            pairs.append(np.stack([np.minimum(a[m], b[m]),
                                   np.maximum(a[m], b[m])], axis=1))
        uq, c = np.unique(np.concatenate(pairs), axis=0,
                          return_counts=True)
        return zip(uq[:, 0].tolist(), uq[:, 1].tolist(), c.tolist())

    return _per_raster(blobs, bytes_col, id_col,
                       ("za", "zb", "boundary_px"), rows)


def euler_stats(blobs: ray.data.Dataset, thresh: int,
                id_col: str = "o_orderkey",
                bytes_col: str = "bytes") -> ray.data.Dataset:
    """Euler characteristic of the foreground mask (v ≥ thresh) by
    Gray's quad-counting: over all 2×2 windows of the zero-padded
    mask, count Q1 (exactly one fg), Q3 (exactly three) and QD (the
    two diagonal patterns). E4 = (Q1 − Q3 + 2QD)/4 (components minus
    8-connected holes), E8 = (Q1 − Q3 − 2QD)/4 — integer-exact image
    topology (hole counting) as a map-only per-raster ledger."""
    from .terrain import _per_raster

    def rows(arr):
        fg = np.zeros((arr.shape[0] + 2, arr.shape[1] + 2), dtype=np.int64)
        fg[1:-1, 1:-1] = (arr >= thresh).astype(np.int64)
        tl, tr = fg[:-1, :-1], fg[:-1, 1:]
        bl, br = fg[1:, :-1], fg[1:, 1:]
        s = tl + tr + bl + br
        q1 = int((s == 1).sum())
        q3 = int((s == 3).sum())
        qd = int(((s == 2) & (tl == br) & (tl != tr)).sum())
        return [(q1, q3, qd, (q1 - q3 + 2 * qd) // 4,
                 (q1 - q3 - 2 * qd) // 4)]

    return _per_raster(blobs, bytes_col, id_col,
                       ("q1", "q3", "qd", "euler4", "euler8"), rows)


def sax_words(ds: ray.data.Dataset, key: str, ord_col: str, val: str,
              frames: int = 4, num_buckets: int = 64) -> ray.data.Dataset:
    """SAX symbolization (Lin et al., "A Symbolic Representation of
    Time Series"): each key's ordered integer series is PAA-reduced to
    ``frames`` segments (frame(i) = frames*i // n) and each segment
    mean is binned against the GLOBAL quartiles of the value
    distribution into symbols a-d; emits (word, n) — how many series
    share each symbolic shape. All comparisons are exact integers:
    mean < q  ⇔  sum < q*count (cross-multiplication, no division),
    and the quartiles are percentile_disc picks (sorted element at
    ceil(p*n), DuckDB parity) read off an exact value histogram.

    Scale: the histogram is a shuffle-free bincount partial per batch
    (value domain bounded); the series pass is ONE keyed hash-bucket
    shuffle with whole-bucket vectorized frame sums (sort + groupby
    cumcount — no per-group Python); the word count is a tiny grouped
    sum (≤ 4^frames distinct words)."""
    from .. import relational as rel

    # pass 1: exact global quartiles from a value histogram
    def hist(t: pa.Table) -> pa.Table:
        v = t[val].to_numpy(zero_copy_only=False).astype(np.int64)
        u, c = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(u, pa.int64()),
                         "c": pa.array(c, pa.int64())})

    hs = rel.grouped_agg(ds.map_batches(hist, batch_format="pyarrow",
                                        zero_copy_batch=True),
                         ["v"], sum_cols=["c"], count=False).to_pandas()
    hs = hs.sort_values("v").reset_index(drop=True)
    cum = hs["c"].to_numpy().cumsum()
    n_total = int(cum[-1])
    qs = []
    for j in (1, 2, 3):
        rank = -(-j * n_total // 4)  # ceil(j*n/4), 1-based
        qs.append(int(hs["v"].to_numpy()[np.searchsorted(cum, rank)]))
    q1, q2, q3 = qs

    def words(g: pd.DataFrame) -> pd.DataFrame:
        # tiebreak on the value itself: rows tied on (key, ord, val) are
        # interchangeable, so frame sums are well-defined even when the
        # ordering column repeats within a series
        g = g.sort_values([key, ord_col, val], kind="mergesort")
        gk = g.groupby(key, sort=False)
        i = gk.cumcount().to_numpy()
        n = gk[ord_col].transform("size").to_numpy()
        f = pd.DataFrame({
            "k": g[key].to_numpy(),
            "frame": frames * i // n,
            "v": g[val].to_numpy().astype(np.int64)})
        fr = f.groupby(["k", "frame"], sort=True, as_index=False).agg(
            s=("v", "sum"), c=("v", "size"))
        s, c = fr["s"].to_numpy(), fr["c"].to_numpy()
        sym = np.where(s < q1 * c, "a",
                       np.where(s < q2 * c, "b",
                                np.where(s < q3 * c, "c", "d")))
        fr["sym"] = sym
        w = fr.groupby("k", sort=False)["sym"].agg("".join)
        return pd.DataFrame({"word": w.to_numpy()})

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({key: t[key],
                         ord_col: t[ord_col],
                         val: pc.cast(t[val], pa.int64())})

    ws = rel.grouped_apply_bucketed(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        [key], words, num_buckets=num_buckets, whole_bucket=True)
    return rel.grouped_agg(ws, ["word"], count=True)


def polyline_ledger(events: ray.data.Dataset, key: str, ord_col: str,
                    lat5: str, lng5: str,
                    num_buckets: int = 64) -> ray.data.Dataset:
    """Encode each key's ordered coordinate track with the REAL Google
    Encoded Polyline codec (kernels/polyline.py — spec-example
    bit-exact) and emit the wire-cost ledger per track: point count,
    encoded byte length, and the byte-value sum (an order-sensitive
    checksum the oracle reproduces arithmetically from the delta/
    zigzag/5-bit-chunk spec). The planning input for 'how much smaller
    do tracks get on the wire' — polyline vs raw 8-byte coords.

    Scale: one keyed hash-bucket shuffle; encoding is whole-bucket
    vectorized (the codec encodes every delta of every track in the
    bucket in one chunk-matrix pass)."""
    from .. import relational as rel
    from ..kernels import polyline as pl

    def enc(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ord_col], kind="mergesort")
        ks = g[key].to_numpy()
        la = g[lat5].to_numpy().astype(np.int64)
        lg = g[lng5].to_numpy().astype(np.int64)
        n = len(g)
        if n == 0:
            return pd.DataFrame({key: pd.Series(dtype=ks.dtype),
                                 "n_pts": pd.Series(dtype="int64"),
                                 "enc_len": pd.Series(dtype="int64"),
                                 "char_sum": pd.Series(dtype="int64")})
        new = np.concatenate([[True], ks[1:] != ks[:-1]])
        sid = np.cumsum(new) - 1
        # per-track deltas (first point deltas from 0), interleaved
        # lat/lng — one global arrays pass, tracks stay contiguous
        dl = la - np.where(new, 0, np.concatenate([[0], la[:-1]]))
        dg = lg - np.where(new, 0, np.concatenate([[0], lg[:-1]]))
        vals = np.empty(2 * n, np.int64)
        vals[0::2] = dl
        vals[1::2] = dg
        buf, nc = pl.encode_values(vals, return_counts=True)
        vsid = np.repeat(sid, 2)
        nseries = int(sid[-1]) + 1
        enc_len = np.bincount(vsid, weights=nc,
                              minlength=nseries).astype(np.int64)
        bytes_sid = np.repeat(vsid, nc)
        bvals = np.frombuffer(buf, np.uint8).astype(np.int64)
        char_sum = np.bincount(bytes_sid, weights=bvals,
                               minlength=nseries).astype(np.int64)
        n_pts = np.bincount(sid, minlength=nseries).astype(np.int64)
        return pd.DataFrame({key: ks[new], "n_pts": n_pts,
                             "enc_len": enc_len, "char_sum": char_sum})

    return rel.grouped_apply_bucketed(events, [key], enc,
                                      num_buckets=num_buckets,
                                      whole_bucket=True)


def survivorship(ds: ray.data.Dataset, key: str, ord_col: str,
                 cols: list, num_buckets: int = 64) -> ray.data.Dataset:
    """Golden-record merge (survivorship): per entity, each attribute
    survives from the LATEST row (by ``ord_col``) where it is
    non-null — the master-data-management step after CDC lands
    partial updates. Emits one row per key: last_<col> for every
    attribute, plus last_ord and n_rows.

    Scale: one keyed hash-bucket shuffle; inside each bucket one
    descending sort and, per column, a vectorized first-valid pick
    (groupby + first on the non-null subframe) — no per-entity loop."""
    from .. import relational as rel

    def golden(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ord_col], ascending=[True, False],
                          kind="mergesort")
        gk = g.groupby(key, sort=False)
        out = gk.agg(last_ord=(ord_col, "max"), n_rows=(ord_col, "size"))
        for c in cols:
            sub = g[~g[c].isna()]
            first = sub.groupby(key, sort=False)[c].first()
            out[f"last_{c}"] = first  # aligned on the key index; NaN if never set
        return out.reset_index()

    return rel.grouped_apply_bucketed(ds, [key], golden,
                                      num_buckets=num_buckets,
                                      whole_bucket=True)


def rolling_ols(events: ray.data.Dataset, key: str, ord_col: str,
                x: str, y: str, window: int = 8,
                num_buckets: int = 64) -> ray.data.Dataset:
    """Rolling least-squares slope numerator/denominator per event over
    the trailing ``window`` rows of its key's series — emitted as the
    EXACT integers s_num = n·Σxy − Σx·Σy and s_den = n·Σx² − (Σx)²
    (the caller divides; this engine never rounds). Only positions
    with a full window emit (SQL ROWS BETWEEN parity via COUNT = n).

    Scale: one keyed shuffle; rolling sums are cumulative-sum
    differences per series, vectorized across the whole bucket."""
    from .. import relational as rel

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ord_col], kind="mergesort")
        ks = g[key].to_numpy()
        xv = g[x].to_numpy().astype(np.int64)
        yv = g[y].to_numpy().astype(np.int64)
        pos = np.arange(len(g)) - np.maximum.accumulate(
            np.where(np.concatenate([[True], ks[1:] != ks[:-1]]),
                     np.arange(len(g)), 0))
        w = window

        def rsum(v):
            c = np.concatenate([[0], np.cumsum(v)])
            return c[1:] - c[np.maximum(np.arange(len(v)) + 1 - w, 0)]

        # windows that would cross a series boundary are masked below,
        # so the cumsum bleeding across keys never reaches the output
        sx, sy = rsum(xv), rsum(yv)
        sxy, sxx = rsum(xv * yv), rsum(xv * xv)
        full = pos >= w - 1
        return pd.DataFrame({
            key: ks[full], ord_col: g[ord_col].to_numpy()[full],
            "s_num": (w * sxy - sx * sy)[full],
            "s_den": (w * sxx - sx * sx)[full]})

    return rel.grouped_apply_bucketed(events, [key], roll,
                                      num_buckets=num_buckets,
                                      whole_bucket=True)


def percent_rank_exact(ds: ray.data.Dataset, key: str, id_col: str,
                       val: str, num_buckets: int = 64) -> ray.data.Dataset:
    """SQL PERCENT_RANK as EXACT integers: per key, each row's
    (rank−1, n−1) pair where rank is the tie-aware RANK() of its value
    — the caller divides (single-row groups emit (0, 0), matching
    SQL's defined 0). One keyed hash-bucket shuffle; ranks are one
    whole-bucket pandas rank(method='min') pass."""
    from .. import relational as rel

    def pr(g: pd.DataFrame) -> pd.DataFrame:
        gk = g.groupby(key, sort=False)
        rank = gk[val].rank(method="min").astype(np.int64)
        n = gk[val].transform("size").astype(np.int64)
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             "pr_num": (rank - 1).to_numpy(),
                             "pr_den": (n - 1).to_numpy()})

    return rel.grouped_apply_bucketed(ds, [key], pr,
                                      num_buckets=num_buckets,
                                      whole_bucket=True)


def roaring_ledger(ds: ray.data.Dataset, val: str,
                   num_buckets: int = 64) -> ray.data.Dataset:
    """Roaring-bitmap container planning ledger (the public format's
    cost model): distinct values split into 2^16-value chunks; each
    chunk chooses the cheapest container — sorted array (2 bytes/value,
    only when n ≤ 4096), run container (2 + 4·runs bytes), or fixed
    bitmap (8192 bytes) — ties broken array > run > bitmap. Emits per
    chunk (n distinct, runs, container, bytes): the decision table an
    index builder materializes before writing postings.

    Scale: per-batch distinct partials, ONE chunk-keyed hash shuffle,
    whole-bucket vectorized run counting (sort + diff)."""
    from .. import relational as rel

    def parts(t: pa.Table) -> pa.Table:
        v = np.unique(t[val].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        return pa.table({"chunk": pa.array(v >> 16, pa.int64()),
                         "v": pa.array(v, pa.int64())})

    dv = rel.distinct(ds.map_batches(parts, batch_format="pyarrow",
                                     zero_copy_batch=True), ["chunk", "v"])

    def plan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["chunk", "v"], kind="mergesort")
        ch = g["chunk"].to_numpy()
        v = g["v"].to_numpy()
        new_chunk = np.concatenate([[True], ch[1:] != ch[:-1]])
        run_start = new_chunk | np.concatenate([[True], v[1:] != v[:-1] + 1])
        f = pd.DataFrame({"chunk": ch, "one": 1,
                          "rs": run_start.astype(np.int64)})
        agg = f.groupby("chunk", sort=False, as_index=False).agg(
            n=("one", "sum"), runs=("rs", "sum"))
        n = agg["n"].to_numpy()
        r = agg["runs"].to_numpy()
        size_arr = np.where(n <= 4096, 2 * n, np.int64(1) << 40)
        size_run = 2 + 4 * r
        size_bmp = np.full(len(n), 8192, np.int64)
        best = np.minimum(np.minimum(size_arr, size_run), size_bmp)
        kind = np.where(size_arr == best, "array",
                        np.where(size_run == best, "run", "bitmap"))
        return pd.DataFrame({"chunk": agg["chunk"], "n": n, "runs": r,
                             "container": kind, "bytes": best})

    return rel.grouped_apply_bucketed(dv, ["chunk"], plan,
                                      num_buckets=num_buckets,
                                      whole_bucket=True)


def cidr_assign(ds: ray.data.Dataset, ip_col: str, blocks,
                num_buckets: int = 64) -> ray.data.Dataset:
    """Longest-prefix CIDR classification: each 32-bit address matches
    the most specific block of a broadcast prefix table (the routing /
    geo-IP join of network-log pipelines); unmatched addresses report
    prefix length 0. Emits (net, plen, n_ips) counts.

    Scale: the block table broadcasts once (``ray.put``); matching is
    one (rows × blocks) vectorized shift-compare per batch — never a
    shuffle for the join itself, one tiny grouped sum for the counts."""
    import ray as _ray

    from .. import relational as rel

    bl = sorted({(int(plen), int(net)) for plen, net in blocks})
    plens = np.array([p for p, _ in bl], dtype=np.int64)
    nets = np.array([n for _, n in bl], dtype=np.int64)
    ref = _ray.put((plens, nets))

    def match(t: pa.Table) -> pa.Table:
        pl, nt = _ray.get(ref)
        ip = t[ip_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = (ip[:, None] >> (32 - pl[None, :])) == \
             (nt[None, :] >> (32 - pl[None, :]))
        score = np.where(ok, pl[None, :], -1)
        bi = score.argmax(axis=1)
        hit = score[np.arange(len(ip)), bi] >= 0
        net = np.where(hit, nt[bi], 0)
        plen = np.where(hit, pl[bi], 0)
        f = pd.DataFrame({"net": net, "plen": plen, "one": 1})
        g = f.groupby(["net", "plen"], sort=False, as_index=False)["one"].sum()
        return pa.table({"net": pa.array(g["net"], pa.int64()),
                         "plen": pa.array(g["plen"], pa.int64()),
                         "c": pa.array(g["one"].to_numpy(), pa.int64())})

    parts = ds.map_batches(match, batch_format="pyarrow",
                           zero_copy_batch=True)
    out = rel.grouped_agg(parts, ["net", "plen"], sum_cols=["c"],
                          count=False)

    def ren(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["n_ips" if n == "c" else n for n in t.column_names])

    return out.map_batches(ren, batch_format="pyarrow")


def _civil_from_days(days: np.ndarray):
    """Days-since-epoch → (year, month, day), the public
    era-of-400-years integer algorithm (Howard Hinnant's civil_from_days
    — published public-domain date arithmetic)."""
    z = days + 719468
    era = np.floor_divide(z, 146097)
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    y = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    d = doy - (153 * mp + 2) // 5 + 1
    m = np.where(mp < 10, mp + 3, mp - 9)
    return np.where(m <= 2, y + 1, y), m, d


def _days_from_civil(y: np.ndarray, m: np.ndarray, d: np.ndarray):
    yy = np.where(m <= 2, y - 1, y)
    era = np.floor_divide(yy, 400)
    yoe = yy - era * 400
    doy = (153 * np.where(m > 2, m - 3, m + 9) + 2) // 5 + d - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def iso_week_rollup(ds: ray.data.Dataset, ts_col: str, val: str,
                    out_val: str = "total") -> ray.data.Dataset:
    """ISO-8601 week rollup with EXACT integer calendar arithmetic:
    the ISO (year, week) of a date is derived from its week's Thursday
    (dow from days-since-epoch — 1970-01-01 was a Thursday — then
    civil_from_days for the Thursday's year and Jan-1 ordinal). Sums
    ``val`` per (iso_year, iso_week). Per-batch partials collapse to
    ≤53 rows/year before the tiny grouped sum — shuffle-free at any
    corpus size."""
    from .. import relational as rel

    def part(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        days = us // 86_400_000_000
        dow = (days + 3) % 7  # 0 = Monday
        thu = days - dow + 3
        y, _m, _d = _civil_from_days(thu)
        jan1 = _days_from_civil(y, np.ones_like(y), np.ones_like(y))
        week = (thu - jan1) // 7 + 1
        v = t[val].to_numpy(zero_copy_only=False).astype(np.int64)
        f = pd.DataFrame({"iso_year": y, "iso_week": week, "v": v})
        g = f.groupby(["iso_year", "iso_week"], sort=False,
                      as_index=False)["v"].sum()
        return pa.table({"iso_year": pa.array(g["iso_year"], pa.int64()),
                         "iso_week": pa.array(g["iso_week"], pa.int64()),
                         "v": pa.array(g["v"].to_numpy(), pa.int64())})

    out = rel.grouped_agg(ds.map_batches(part, batch_format="pyarrow",
                                         zero_copy_batch=True),
                          ["iso_year", "iso_week"], sum_cols=["v"],
                          count=False)

    def ren(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            [out_val if n == "v" else n for n in t.column_names])

    return out.map_batches(ren, batch_format="pyarrow")


def debounce(events: ray.data.Dataset, key: str, ts_us: str,
             id_col: str, gap_us: int,
             num_buckets: int = 64) -> ray.data.Dataset:
    """Greedy debounce dedup (retry / double-fire suppression): per
    key, keep the first event, then each event whose timestamp exceeds
    the LAST KEPT timestamp by more than ``gap_us`` — the sequential
    carry every ingest pipeline needs for idempotency windows, NOT the
    LAG approximation (which re-admits an event suppressed by a
    suppressed predecessor).

    Vectorized despite being sequential: within one bucket sorted by
    (key, ts, id), jump(i) = first index of the same series with
    ts > ts(i) + gap comes from ONE packed searchsorted (series index
    × rebased-span + ts — disjoint ranges per series), and the kept
    set is the orbit of each series' first index under jump, advanced
    for ALL series at once (rounds = max kept per series, each round a
    single gather). Falls back to per-series searchsorted only if the
    packing would overflow int64."""
    from .. import relational as rel

    def keep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_us, id_col], kind="mergesort")
        ks = g[key].to_numpy()
        ts = g[ts_us].to_numpy().astype(np.int64)
        n = len(g)
        new = np.concatenate([[True], ks[1:] != ks[:-1]])
        sid = np.cumsum(new) - 1           # series index per row
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], n)
        base = ts.min() if n else 0
        span = int(ts.max() - base) + 1 if n else 1
        gap = int(gap_us)
        if (sid.max() + 1) * (span + gap + 1) < (1 << 62):
            packed = sid * (span + gap + 1) + (ts - base)
            q = sid * (span + gap + 1) + np.minimum(ts - base + gap,
                                                    span + gap)
            jump = np.searchsorted(packed, q, side="right")
        else:  # pathological span: per-series exact fallback
            jump = np.empty(n, np.int64)
            for s, e in zip(starts, ends):
                jump[s:e] = s + np.searchsorted(ts[s:e], ts[s:e] + gap,
                                                side="right")
        jump = np.minimum(jump, ends[sid])  # never cross the series
        kept = np.zeros(n, dtype=bool)
        frontier = starts
        while len(frontier):
            kept[frontier] = True
            nxt = jump[frontier]
            frontier = nxt[nxt < ends[sid[frontier]]]
        out = g[kept]
        return pd.DataFrame({key: out[key].to_numpy(),
                             id_col: out[id_col].to_numpy(),
                             ts_us: out[ts_us].to_numpy()})

    return rel.grouped_apply_bucketed(events, [key], keep,
                                      num_buckets=num_buckets,
                                      whole_bucket=True)


def hdr_buckets(ds: ray.data.Dataset, val: str, sub_bits: int = 5) -> ray.data.Dataset:
    """HdrHistogram-style log-bucketed latency histogram (the public
    HDR bucketing arithmetic): value v lands in bucket
    b = max(0, bit_length(v) − sub_bits) with sub-index v >> b — fixed
    RELATIVE precision (2^sub_bits sub-buckets per power of two), the
    standard shape for latency SLO ledgers. Emits per (bucket, sub):
    count + exact lower bound (sub << bucket).

    Shuffle-free: per-batch (bucket, sub) partials (≤ 64·2^sub_bits
    rows) into one tiny grouped sum."""
    from .. import relational as rel

    k = sub_bits

    def part(t: pa.Table) -> pa.Table:
        v = t[val].to_numpy(zero_copy_only=False).astype(np.int64)
        bl = np.zeros(len(v), np.int64)
        tv = v.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            m = tv >= (np.int64(1) << shift)
            bl[m] += shift
            tv[m] >>= shift
        bl[v > 0] += 1  # bit length; v=0 -> 0
        b = np.maximum(bl - k, 0)
        sub = v >> b
        f = pd.DataFrame({"bucket": b, "sub": sub, "one": 1})
        g = f.groupby(["bucket", "sub"], sort=False, as_index=False)["one"].sum()
        return pa.table({"bucket": pa.array(g["bucket"], pa.int64()),
                         "sub": pa.array(g["sub"], pa.int64()),
                         "c": pa.array(g["one"].to_numpy(), pa.int64())})

    out = rel.grouped_agg(ds.map_batches(part, batch_format="pyarrow",
                                         zero_copy_batch=True),
                          ["bucket", "sub"], sum_cols=["c"], count=False)

    def fin(t: pa.Table) -> pa.Table:
        b = t["bucket"].to_numpy(zero_copy_only=False)
        s = t["sub"].to_numpy(zero_copy_only=False)
        return pa.table({"bucket": t["bucket"], "sub": t["sub"],
                         "lb": pa.array(s << b, pa.int64()),
                         "n": t["c"]})

    return out.map_batches(fin, batch_format="pyarrow")


def oov_audit(docs: ray.data.Dataset, vocab_k: int = 16,
              col: str = "text", id_col: str = "doc_id",
              num_buckets: int = 64) -> ray.data.Dataset:
    """Tokenizer-vocabulary coverage audit: the corpus's top-K tokens
    by global frequency (ties broken lexicographically) form the
    vocabulary; each document reports its out-of-vocabulary token
    count and total — the OOV-rate screen run before committing a
    tokenizer to a corpus.

    Two passes: a token-count shuffle (per-batch partials →
    grouped_agg_hash) whose top-K collapses driver-side (K rows,
    bounded), then a map-only membership count via one Arrow is_in."""
    from ..pipelines.text import _tokenize_batch

    from .. import relational as rel

    def parts(t: pa.Table) -> pa.Table:
        words, off = _tokenize_batch(t, col)
        keep = words != ""
        f = pd.DataFrame({"tok": words[keep], "one": 1})
        g = f.groupby("tok", sort=False, as_index=False)["one"].sum()
        return pa.table({"tok": pa.array(g["tok"], pa.string()),
                         "c": pa.array(g["one"].to_numpy(), pa.int64())})

    counts = rel.grouped_agg_hash(
        docs.map_batches(parts, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["tok"], sum_cols=["c"], count=False,
        num_buckets=num_buckets).to_pandas()
    counts = counts.sort_values(["c", "tok"], ascending=[False, True],
                                kind="mergesort")
    vocab = counts["tok"].to_numpy()[:vocab_k].tolist()
    vocab_arr = pa.array(vocab, pa.string())

    def audit(t: pa.Table) -> pa.Table:
        words, off = _tokenize_batch(t, col)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = words != ""
        doc = np.repeat(np.arange(len(ids)), np.diff(off))[keep]
        inv = pc.is_in(pa.array(words[keep], pa.string()),
                       value_set=vocab_arr).to_numpy(zero_copy_only=False)
        n_tok = np.bincount(doc, minlength=len(ids)).astype(np.int64)
        n_in = np.bincount(doc, weights=inv.astype(np.float64),
                           minlength=len(ids)).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_oov": pa.array(n_tok - n_in, pa.int64()),
                         "n_tokens": pa.array(n_tok, pa.int64())})

    return docs.map_batches(audit, batch_format="pyarrow",
                            zero_copy_batch=True)


def association_rules(baskets: ray.data.Dataset, key: str, item: str,
                      min_pair: int = 5,
                      num_buckets: int = 64) -> ray.data.Dataset:
    """A-priori round 2: directed association rules A→B over basket
    pairs with support ≥ ``min_pair``, with confidence as the EXACT
    fraction (conf_num = n_ab, conf_den = n_a — the caller divides).
    Both directions emit (the rule miner's table before lift ranking).

    Scale: per-basket distinct-pair emission inside the basket-keyed
    shuffle (bounded by items-per-basket²), pair counts as slim
    partials through a hash-bucket groupby; item supports are a second
    slim shuffle joined in via broadcast (item supports are
    vocabulary-sized)."""
    import ray as _ray

    from .. import relational as rel

    dk = rel.distinct(baskets.select_columns([key, item]), [key, item])

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        it = np.sort(g[item].to_numpy())
        if len(it) < 2:
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64")})
        iu, ju = np.triu_indices(len(it), k=1)
        return pd.DataFrame({"a": it[iu], "b": it[ju]})

    pair_counts = rel.grouped_agg_hash(
        rel.grouped_apply_bucketed(dk, [key], pairs,
                                   num_buckets=num_buckets,
                                   min_group_size=2),
        ["a", "b"], count=True, num_buckets=num_buckets)
    supports = rel.grouped_agg_hash(dk, [item], count=True,
                                    num_buckets=num_buckets).to_pandas()
    sup = dict(zip(supports[item].astype(int), supports["n"].astype(int)))
    ref = _ray.put(sup)

    def rules(t: pa.Table) -> pa.Table:
        s = _ray.get(ref)
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = n >= min_pair
        a, b, n = a[keep], b[keep], n[keep]
        na = np.array([s[int(x)] for x in a], dtype=np.int64)
        nb = np.array([s[int(x)] for x in b], dtype=np.int64)
        return pa.table({
            "antecedent": pa.array(np.concatenate([a, b]), pa.int64()),
            "consequent": pa.array(np.concatenate([b, a]), pa.int64()),
            "conf_num": pa.array(np.concatenate([n, n]), pa.int64()),
            "conf_den": pa.array(np.concatenate([na, nb]), pa.int64())})

    return pair_counts.map_batches(rules, batch_format="pyarrow",
                                   zero_copy_batch=True)


def luhn_audit(ds: ray.data.Dataset, col: str) -> ray.data.Dataset:
    """Luhn check-digit validation (the public mod-10 algorithm behind
    card/ID validation): per value, double every second digit from the
    right (summing the digit pair when > 9) and accept when the total
    is ≡ 0 (mod 10). Emits the ledger (n_valid, n_invalid) — the ETL
    intake screen. Fully vectorized digit extraction (repeated
    divmod on the integer column), shuffle-free 1-row partials."""
    from .. import relational as rel

    def part(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
        total = np.zeros(len(v), np.int64)
        x = v.copy()
        pos = 0
        while (x > 0).any():
            d = x % 10
            if pos % 2 == 1:
                d = d * 2
                d = np.where(d > 9, d - 9, d)
            total += d
            x //= 10
            pos += 1
        ok = (total % 10 == 0) & (v > 0)
        return pa.table({
            "n_valid": pa.array([int(ok.sum())], pa.int64()),
            "n_invalid": pa.array([int((~ok).sum())], pa.int64())})

    out = rel.grouped_agg(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(lambda t: t.append_column(
            "g", pa.array([0] * t.num_rows, pa.int64())),
            batch_format="pyarrow"),
        ["g"], sum_cols=["n_valid", "n_invalid"], count=False)
    return out.map_batches(lambda t: t.drop_columns(["g"]),
                           batch_format="pyarrow")


def wow_delta(ds: ray.data.Dataset, ts_col: str, val: str) -> ray.data.Dataset:
    """Week-over-week delta report keyed on the week's MONDAY (pure
    integer day arithmetic — the previous week is always monday−7, so
    no 52-vs-53-week ISO rollover cases exist). Weeks with no data the
    week before report delta = total. Labels (iso_year, iso_week) come
    from the week's Thursday via the exact civil calendar. The weekly
    table is ≤53 rows/year — the delta join happens on the tiny rollup
    after shuffle-free partials."""
    from .. import relational as rel

    def part(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        days = us // 86_400_000_000
        monday = days - (days + 3) % 7
        v = t[val].to_numpy(zero_copy_only=False).astype(np.int64)
        f = pd.DataFrame({"monday": monday, "v": v})
        g = f.groupby("monday", sort=False, as_index=False)["v"].sum()
        return pa.table({"monday": pa.array(g["monday"], pa.int64()),
                         "v": pa.array(g["v"].to_numpy(), pa.int64())})

    weekly = rel.grouped_agg(ds.map_batches(part, batch_format="pyarrow",
                                            zero_copy_batch=True),
                             ["monday"], sum_cols=["v"],
                             count=False).to_pandas()
    weekly = weekly.sort_values("monday").reset_index(drop=True)
    mon = weekly["monday"].to_numpy().astype(np.int64)
    t = weekly["v"].to_numpy().astype(np.int64)
    prev_map = dict(zip(mon.tolist(), t.tolist()))
    prev = np.array([prev_map.get(int(m) - 7, 0) for m in mon],
                    dtype=np.int64)
    thu = mon + 3
    y, _m, _d = _civil_from_days(thu)
    jan1 = _days_from_civil(y, np.ones_like(y), np.ones_like(y))
    week = (thu - jan1) // 7 + 1
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "iso_year": pa.array(y, pa.int64()),
        "iso_week": pa.array(week, pa.int64()),
        "total": pa.array(t, pa.int64()),
        "delta": pa.array(t - prev, pa.int64())}))


def adler32_ledger(ds: ray.data.Dataset, col: str,
                   id_col: str = "doc_id") -> ray.data.Dataset:
    """Adler-32 (the zlib/rsync rolling checksum, public RFC 1950):
    A = 1 + Σ bytes (mod 65521), B = n + Σ (n−i)·byte_i (mod 65521),
    checksum = B·65536 + A. Computed for every document in ONE
    vectorized pass over the batch's concatenated UTF-8 bytes
    (offsets + cumsum — no per-doc loop). Map-only."""
    M = 65521

    def f(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        col_arr = t[col]
        if isinstance(col_arr, pa.ChunkedArray):
            col_arr = col_arr.combine_chunks()
        # zero-copy byte access: large_binary = int64 offsets + one
        # contiguous data buffer (no per-doc .as_py() materialization)
        la = pc.cast(col_arr, pa.large_binary())
        if isinstance(la, pa.ChunkedArray):
            la = la.combine_chunks()
        ob = np.frombuffer(la.buffers()[1], np.int64)
        ob = ob[la.offset:la.offset + len(la) + 1]
        data = np.frombuffer(la.buffers()[2], np.uint8)
        flat = data[ob[0]:ob[-1]].astype(np.int64)
        off = (ob - ob[0]).astype(np.int64)
        lens = np.diff(off)
        cs = np.concatenate([[0], np.cumsum(flat)])
        # weighted sum Σ (n-i)·b_i per doc via two cumsums:
        # Σ_{j=s..e-1} (e - j)·b_j = Σ (C(e) - C(j))·... use position-
        # weighted cumsum: W(j) = Σ_{<j} j·b_j
        pw = np.concatenate([[0], np.cumsum(np.arange(len(flat)) * flat)])
        s, e = off[:-1], off[1:]
        sums = cs[e] - cs[s]
        wsum = (e * (cs[e] - cs[s])) - (pw[e] - pw[s])  # Σ (e-j)·b_j
        A = (1 + sums) % M
        B = (lens + wsum) % M
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "adler32": pa.array(B * 65536 + A, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def simpson_diversity(ds: ray.data.Dataset, group: str, cat: str,
                      num_buckets: int = 64) -> ray.data.Dataset:
    """Simpson diversity index per group as EXACT integer fractions:
    num = Σ_c n_c·(n_c−1), den = N·(N−1) (probability two random
    members share a category — content-mix audit for corpus sources).
    One (group, cat)-keyed partial shuffle, then a slim per-group
    reduce."""
    from .. import relational as rel

    counts = rel.grouped_agg(ds.select_columns([group, cat]),
                             [group, cat], count=True)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        gk = g.groupby(group, sort=False)
        n = gk["n"].sum()
        num = gk["n"].apply(lambda s: int((s * (s - 1)).sum()))
        return pd.DataFrame({group: n.index.to_numpy(),
                             "num": num.to_numpy().astype(np.int64),
                             "den": (n * (n - 1)).to_numpy()
                             .astype(np.int64)})

    return rel.grouped_apply_bucketed(counts, [group], fold,
                                      num_buckets=num_buckets,
                                      whole_bucket=True)


def tfidf_topk(docs: ray.data.Dataset, k: int = 3,
               text_col: str = "text",
               id_col: str = "doc_id",
               output: str = "rank",
               scale: int = 1_000_000) -> ray.data.Dataset:
    """Per-document top-k tf-idf terms, integer-exact: tf from one
    tokenize pass, document frequency (df) from a distinct-(term, doc)
    grouped count whose shuffle moves only unique pairs, and ranking by
    the integer surrogate ``tf * scale // df`` (monotone in tf/df;
    DuckDB ``//`` truncation == numpy floor for the positive operands
    here) with (term asc) tie-break — so the oracle is plain SQL with a
    ROW_NUMBER window, no floats anywhere.

    Scale shape: df is vocabulary-sized and broadcast once; the per-doc
    ranking is map-only (a doc never spans batches).

    THE canonical tf-idf implementation (VERDICT r4 item 6 — the round-3
    variant in ``pipelines/text.py`` now delegates here). ``output``
    picks the contract:

    - ``"rank"`` (q365): (doc_id, rank, term, tf, df) with rank 1..k;
    - ``"score"`` (q83): (doc_id, term, tf, score) with
      score = tf · scale // df — same selection rule, no rank column.
    """
    if output not in ("rank", "score"):
        raise ValueError(f"output must be 'rank' or 'score', got {output!r}")
    from .text import _tokenize_batch

    def tf_pairs(t: pa.Table) -> pa.Table:
        words, off = _tokenize_batch(t, text_col)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        doc = np.repeat(np.arange(len(ids)), np.diff(off))
        if not len(words):
            return pa.table({id_col: pa.array([], pa.int64()),
                             "term": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64())})
        df_ = pd.DataFrame({"d": doc, "w": words})
        g = df_.groupby(["d", "w"], sort=False).size().reset_index(name="tf")
        return pa.table({id_col: pa.array(ids[g["d"].to_numpy()], pa.int64()),
                         "term": pa.array(g["w"].to_numpy(dtype=object),
                                          pa.string()),
                         "tf": pa.array(g["tf"].to_numpy(np.int64),
                                        pa.int64())})

    pairs = docs.map_batches(tf_pairs, batch_format="pyarrow",
                             zero_copy_batch=True)
    # df: count of docs per term — pairs are already distinct (term, doc)
    dfreq = rel.grouped_agg(pairs.select_columns(["term"]), ["term"]) \
        .to_pandas()
    _terms = dfreq["term"].to_numpy(dtype=object)
    _dfv = dfreq["n"].to_numpy(np.int64)
    _o = np.argsort(_terms)
    import ray as _ray
    ref = _ray.put((_terms[_o], _dfv[_o]))

    def rank(t: pa.Table) -> pa.Table:
        # ranks over DOCUMENTS rows (one row per doc — a doc can never
        # split across blocks, unlike the exploded tf_pairs output,
        # which Ray's dynamic block splitting may slice mid-document),
        # recomputing the doc-local tf from the text column
        terms_s, dfv_s = _ray.get(ref)
        tp = tf_pairs(t)
        ids = tp.column(id_col).to_numpy()
        terms = tp.column("term").to_numpy(zero_copy_only=False)
        tf = tp.column("tf").to_numpy()
        df_vals = dfv_s[np.searchsorted(terms_s, terms)]
        score = tf.astype(np.int64) * int(scale) // df_vals
        dd = pd.DataFrame({id_col: ids, "term": terms, "tf": tf,
                           "df": df_vals, "s": score})
        dd = dd.sort_values([id_col, "s", "term"],
                            ascending=[True, False, True], kind="stable")
        dd["rank"] = dd.groupby(id_col, sort=False).cumcount() + 1
        dd = dd[dd["rank"] <= k]
        if output == "score":
            return pa.table({
                id_col: pa.array(dd[id_col].to_numpy(np.int64),
                                 pa.int64()),
                "term": pa.array(dd["term"].to_numpy(dtype=object),
                                 pa.string()),
                "tf": pa.array(dd["tf"].to_numpy(np.int64), pa.int64()),
                "score": pa.array(dd["s"].to_numpy(np.int64),
                                  pa.int64())})
        return pa.table({
            id_col: pa.array(dd[id_col].to_numpy(np.int64), pa.int64()),
            "rank": pa.array(dd["rank"].to_numpy(np.int64), pa.int64()),
            "term": pa.array(dd["term"].to_numpy(dtype=object), pa.string()),
            "tf": pa.array(dd["tf"].to_numpy(np.int64), pa.int64()),
            "df": pa.array(dd["df"].to_numpy(np.int64), pa.int64())})

    return docs.map_batches(rank, batch_format="pyarrow",
                            zero_copy_batch=True)
