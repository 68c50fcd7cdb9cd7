"""Round-5 hardening tests: knn_graph route parity (dense broadcast vs
IVF-partitioned, VERDICT r4 finding 1), editdist_pairs length-band
blocking + hot-block cap (finding 2), salt_hot degenerate-bucket guard,
neighbor_label_agg missing-node guard (ADVICE r4)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _emb_ds(n=40, dim=8, seed=3):
    import ray.data

    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim))
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in m],
                              pa.list_(pa.float64()))})), m


def _docs_ds(rows):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    }))


@pytest.mark.parametrize("nlist", [1, 4, 9])
def test_knn_graph_routes_identical(ray_session, nlist):
    """The IVF-partitioned route (forced via broadcast_bytes=0) with
    nprobe=None (all lists probed) must be output-identical to the
    dense broadcast route — the route is a memory/layout decision, not
    a semantics change (house pattern parity test, VERDICT r4 item 1)."""
    from hand_index_ray.pipelines.ann import knn_graph

    ds, _ = _emb_ds(n=37, dim=6, seed=11)
    dense = knn_graph(ds, k=4).to_pandas() \
        .sort_values(["src", "rank"]).reset_index(drop=True)
    ivf = knn_graph(ds, k=4, broadcast_bytes=0, nlist=nlist) \
        .to_pandas().sort_values(["src", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(dense, ivf)


def test_knn_graph_ivf_nprobe_subset(ray_session):
    """nprobe < nlist is the documented approximate trade: every row
    still reports k valid, rank-contiguous neighbors, each neighbor's
    sim no better than the exact answer at that rank."""
    from hand_index_ray.pipelines.ann import knn_graph

    ds, _ = _emb_ds(n=50, dim=6, seed=5)
    exact = knn_graph(ds, k=3).to_pandas()
    approx = knn_graph(ds, k=3, broadcast_bytes=0, nlist=5,
                       nprobe=2).to_pandas()
    ex = exact.set_index(["src", "rank"])["sim_micro"]
    for src, grp in approx.groupby("src"):
        assert list(grp.sort_values("rank")["rank"]) == \
            list(range(1, len(grp) + 1))
        for _, r in grp.iterrows():
            assert r["sim_micro"] <= ex.loc[(src, r["rank"])]
            assert r["dst"] != src


def test_knn_graph_sim_micro_rounds_half_away_from_zero(ray_session):
    """DuckDB ROUND is half-away-from-zero; floor(x+0.5) (half-UP)
    diverges on negative exact halves (ADVICE r4). Pin with vectors
    engineered to land a cosine of exactly -0.5e-6... impractical in
    float — instead pin the rounding helper directly."""
    from hand_index_ray.pipelines.ann import _sim_micro

    sims = np.array([0.0000005, -0.0000005, 0.0000014, -0.0000014,
                     0.25, -0.25])
    got = _sim_micro(sims)
    assert got.tolist() == [1, -1, 1, -1, 250000, -250000]


def test_editdist_band_key_equals_bruteforce_on_hot_token(ray_session):
    """Skew case (VERDICT r4 item 2): ONE first token covers half the
    corpus. The (first-token, length-band) key must still reproduce the
    documented blocking rule exactly — banding the key drops no pairs."""
    from hand_index_ray.pipelines.text import editdist_pairs

    rng = np.random.default_rng(19)
    rows = []
    for d in range(60):
        ft = "the" if d % 2 == 0 else f"w{d % 7}"
        # lengths spread over many bands so the hot token splits
        body = "x" * int(rng.integers(0, 55))
        if rng.integers(0, 3) == 0 and d > 0:
            body = rows[d - 1][1].split(" ", 1)[-1]  # near-dup seed
        rows.append((d, f"{ft} {body}"))
    got = editdist_pairs(_docs_ds(rows), max_dist=4).to_pandas() \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)

    def lev(a, b):
        la, lb = len(a), len(b)
        dp = list(range(lb + 1))
        for i in range(1, la + 1):
            prev, dp[0] = dp[0], i
            for j in range(1, lb + 1):
                prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1,
                                         prev + (a[i - 1] != b[j - 1]))
        return dp[lb]

    want = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i][1][:60], rows[j][1][:60]
            if a.split(" ")[0] != b.split(" ")[0]:
                continue
            if abs(len(a) - len(b)) > 4:
                continue
            d = lev(a, b)
            if d <= 4:
                want.append((i, j, d))
    assert [tuple(r) for r in got.to_numpy()] == sorted(want)


def test_editdist_max_block_cap_drops_oversize_block(ray_session):
    """Residual hot blocks (same first token AND same length band)
    beyond max_block are dropped whole — the documented boilerplate
    cap; unrelated small blocks are unaffected."""
    from hand_index_ray.pipelines.text import editdist_pairs

    rows = [(d, f"the aaaa{d % 2}") for d in range(6)]      # one block, 6 rows
    rows += [(10, "zz hello"), (11, "zz hellp")]            # small block
    got = editdist_pairs(_docs_ds(rows), max_dist=2,
                         max_block=5).to_pandas()
    pairs = {(int(a), int(b)) for a, b in
             zip(got["id_a"], got["id_b"])}
    assert pairs == {(10, 11)}  # hot block dropped, small block kept

    # raise the cap: the hot block's pairs come back
    got2 = editdist_pairs(_docs_ds(rows), max_dist=2,
                          max_block=100).to_pandas()
    assert len(got2) > 1


def test_editdist_per_block_rows_are_banded(ray_session):
    """Structural check that the shuffle key actually splits a hot
    first token: with lengths spanning B bands, no (ft, blk) group may
    exceed ~2/B of the hot rows (each row lands in 2 blocks)."""
    from hand_index_ray.pipelines.text import editdist_pairs

    n = 120
    rows = [(d, "the " + "x" * (d % 48)) for d in range(n)]
    # max_dist=4 → band width 4 → ~13 bands over lengths 4..51
    got = editdist_pairs(_docs_ds(rows), max_dist=4).to_pandas()
    # correctness: pairs must respect |len diff| <= 4
    lens = {d: len(t[:60]) for d, t in rows}
    for _, r in got.iterrows():
        assert abs(lens[int(r["id_a"])] - lens[int(r["id_b"])]) <= 4
    # the banding itself: recompute the key distribution the slim stage
    # produces and assert the hot token is split across many blocks
    bands = {(len(t[:60]) // 4) for _, t in rows}
    assert len(bands) >= 10


def test_salt_hot_single_bucket_is_noop(ray_session):
    """salt_buckets=1 must degrade to no salting (ADVICE r4: np.stack
    over an empty list raised ValueError), with join output unchanged."""
    import ray.data

    from hand_index_ray.relational import hash_join

    n = 400
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([7] * (n // 2) + list(range(n // 2)), pa.int64()),
        "lv": pa.array(np.arange(n), pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(50), pa.int64()),
        "rv": pa.array(np.arange(50) * 10, pa.int64())}))
    base = hash_join(left, right, "k").to_pandas() \
        .sort_values(["k", "lv"]).reset_index(drop=True)
    salted1 = hash_join(left, right, "k", salt_hot=True,
                        salt_buckets=1).to_pandas() \
        .sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(base, salted1[base.columns])


def test_salt_hot_vectorized_replication_matches_plain(ray_session):
    """The vectorized per-(row, bucket) right-side dedup must keep the
    salted join row-identical to the unsalted one on a skewed key."""
    import ray.data

    from hand_index_ray.relational import hash_join

    rng = np.random.default_rng(23)
    n = 600
    keys = np.where(rng.integers(0, 2, n) == 0, 3,
                    rng.integers(0, 40, n)).astype(np.int64)
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(keys), "lv": pa.array(np.arange(n), pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array(np.arange(40), pa.int64()),
        "rv": pa.array(np.arange(40) * 10, pa.int64())}))
    base = hash_join(left, right, "k").to_pandas() \
        .sort_values(["k", "lv"]).reset_index(drop=True)
    salted = hash_join(left, right, "k", salt_hot=True,
                       salt_buckets=8).to_pandas() \
        .sort_values(["k", "lv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(base, salted[base.columns])


def test_neighbor_label_agg_missing_dst_raises(ray_session):
    """An edge pointing at a node absent from the node set must raise,
    not silently aggregate a neighboring id's label (ADVICE r4)."""
    import ray.data

    from hand_index_ray.pipelines.ann import neighbor_label_agg

    nodes = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "label": pa.array([5, 6, 7], pa.int64())}))
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array([0, 1], pa.int64()),
        "dst": pa.array([1, 99], pa.int64())}))
    with pytest.raises(Exception) as ei:
        neighbor_label_agg(edges, nodes).to_pandas()
    assert "absent" in str(ei.value)


def test_neighbor_label_agg_empty_node_table(ray_session):
    """Every node block empty: the aggregation over no edges is empty,
    and an edge into the empty node set still fails the absent-dst
    guard instead of np.concatenate([]) raising first (ADVICE r5)."""
    import ray.data

    from hand_index_ray.pipelines.ann import neighbor_label_agg

    def _ds(**cols):
        return ray.data.from_arrow(pa.table(
            {k: pa.array(v, pa.int64()) for k, v in cols.items()}))

    nodes = _ds(vec_id=[], label=[])
    got = neighbor_label_agg(_ds(src=[], dst=[]), nodes).to_pandas()
    assert len(got) == 0
    with pytest.raises(Exception) as ei:
        neighbor_label_agg(_ds(src=[0], dst=[1]), nodes).to_pandas()
    assert "absent" in str(ei.value)


def test_neighbor_label_agg_happy_path_unchanged(ray_session):
    import ray.data

    from hand_index_ray.pipelines.ann import neighbor_label_agg

    nodes = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "label": pa.array([5, 6, 7], pa.int64())}))
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array([0, 0, 2], pa.int64()),
        "dst": pa.array([1, 2, 0], pa.int64())}))
    got = neighbor_label_agg(edges, nodes).to_pandas() \
        .sort_values("src").reset_index(drop=True)
    assert got["src"].tolist() == [0, 2]
    ncol = [c for c in got.columns if "n_nbrs" in c][0]
    lcol = [c for c in got.columns if "label_sum" in c][0]
    assert got[ncol].tolist() == [2, 1]
    assert got[lcol].tolist() == [13, 5]


def test_zonal_salt_bounds_pathological_cell(ray_session, tmp_path):
    """VERDICT r4 item 7: one lattice cell holding >30% of all tiles.
    The salt pre-pass must (a) flag the cell hot, (b) split its
    co-group across salt buckets so the biggest (cell, salt) group
    after salting is a fraction of the unsalted hot cell, and (c) keep
    the pair output identical to the broadcast route."""
    import os
    from dataclasses import replace

    import pyarrow.parquet as pq

    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.query import zonal_join
    from hand_index_ray.sources import synth
    from hand_index_ray.state.manifest import (FragmentRecord, Manifest,
                                               PartitionStat)

    rng = np.random.default_rng(41)
    n_hot, n_cold = 240, 360  # 40% of tiles in ONE level-7 cell
    # level-7 lattice cell ≈ 0.3516°; the hot cluster spans 0.04°
    lon = np.concatenate([-95.10 + rng.uniform(0, 0.04, n_hot),
                          rng.uniform(-120.0, -70.0, n_cold)])
    lat = np.concatenate([38.10 + rng.uniform(0, 0.04, n_hot),
                          rng.uniform(28.0, 45.0, n_cold)])
    d = 0.002
    n = n_hot + n_cold
    tbl = pa.table({
        "image_id": pa.array([f"img-{i:09d}" for i in range(n)],
                             pa.string()),
        "minx": pa.array(lon - d, pa.float64()),
        "miny": pa.array(lat - d, pa.float64()),
        "maxx": pa.array(lon + d, pa.float64()),
        "maxy": pa.array(lat + d, pa.float64())})
    idx = tmp_path / "skew_index"
    idx.mkdir()
    fpath = idx / "part-00000.parquet"
    pq.write_table(tbl, str(fpath))
    Manifest.write_record(str(idx / "_manifest"), FragmentRecord(
        fragment_id=0, input_path="synthetic", row_count=n,
        partitions=[PartitionStat(
            cell=0, path="part-00000.parquet", row_count=n,
            bytes=os.path.getsize(fpath),
            minx=float(tbl["minx"][0].as_py()), miny=float(lat.min() - d),
            maxx=float(lon.max() + d), maxy=float(lat.max() + d))]))

    vec = tmp_path / "vector"
    synth.write_catchment_suite(str(vec), n=80)
    cpath = str(vec / "catchments.parquet")

    cfg = EngineConfig(zonal_join_level=7, salt_hot_factor=2.0,
                       salt_buckets=4)
    stats: dict = {}
    shuffled = zonal_join(str(idx), cpath,
                          replace(cfg, zonal_broadcast_bytes=0),
                          skew_stats=stats).to_pandas()
    broadcast = zonal_join(str(idx), cpath, cfg).to_pandas()
    assert set(zip(shuffled["image_id"], shuffled["catchment_id"])) == \
        set(zip(broadcast["image_id"], broadcast["catchment_id"]))

    # the pathological premise: one cell really holds ≥30% of tiles
    assert stats["max_cell_rows"] >= 0.3 * n
    assert stats["n_hot_cells"] >= 1
    # the salt pre-pass bound: biggest post-salt co-group is a strict
    # fraction of the unsalted hot cell (S=4 → expect ~max/4; assert
    # the conservative half-bound so splitmix64 unevenness can't flake)
    assert stats["max_group_rows"] <= stats["max_cell_rows"] / 2


def test_knn_graph_ivf_singleton_corpus_returns_empty(ray_session):
    """r5 review: a batch whose candidates are ALL filtered self
    matches used to produce concatenated-empty arrays and IndexError
    in the merge; it must return an empty edge set like the dense
    route."""
    import ray.data

    from hand_index_ray.pipelines.ann import knn_graph

    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([7], pa.int64()),
        "embedding": pa.array([[1.0, 0.0, 0.0]],
                              pa.list_(pa.float64()))}))
    out = knn_graph(ds, k=2, broadcast_bytes=0, nlist=2).to_pandas()
    assert len(out) == 0


def test_knn_graph_ivf_default_nlist_is_clamped(ray_session):
    """r5 review: with the route-forcing broadcast_bytes=0 and NO
    explicit nlist, the list-count formula must not degenerate to
    size_bytes-many lists (millions of num_returns refs + a full-corpus
    driver sample). Output must still equal the dense route."""
    from hand_index_ray.pipelines.ann import knn_graph

    ds, _ = _emb_ds(n=30, dim=5, seed=9)
    dense = knn_graph(ds, k=3).to_pandas() \
        .sort_values(["src", "rank"]).reset_index(drop=True)
    ivf = knn_graph(ds, k=3, broadcast_bytes=0).to_pandas() \
        .sort_values(["src", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(dense, ivf)


def test_editdist_default_is_uncapped(ray_session):
    """r5 review: the hot-block cap has no SQL-oracle counterpart, so
    the DEFAULT must be exact (no drops) at any block size; the cap is
    an explicit opt-in."""
    from hand_index_ray.pipelines.text import editdist_pairs

    rows = [(d, f"the aaaa{d % 3}") for d in range(40)]  # one big block
    got = editdist_pairs(_docs_ds(rows), max_dist=2).to_pandas()
    # every same-suffix pair is dist 0, cross-suffix dist 1 — all kept
    assert len(got) == 40 * 39 // 2


def test_repetition_stats_matches_bruteforce(ray_session):
    """Gopher repetition screens vs a direct per-doc recomputation."""
    from hand_index_ray.pipelines.text import repetition_stats

    rng = np.random.default_rng(31)
    rows = []
    for d in range(50):
        toks = [f"w{v}" for v in rng.integers(0, 6, rng.integers(1, 25))]
        if d % 7 == 0:  # heavy repetition case
            toks = ["spam", "spam"] * 6
        rows.append((d, " ".join(toks)))
    got = repetition_stats(_docs_ds(rows)).to_pandas() \
        .set_index("doc_id").sort_index()

    for d, text in rows:
        toks = text.split(" ")
        assert got.loc[d, "n_words"] == len(toks)
        assert got.loc[d, "n_distinct"] == len(set(toks))
        bgs: dict = {}
        for a, b in zip(toks, toks[1:]):
            bgs[(a, b)] = bgs.get((a, b), 0) + 1
        assert got.loc[d, "top_bigram_n"] == (max(bgs.values())
                                              if bgs else 0)


def test_kcenter_select_matches_bruteforce(ray_session):
    """Greedy farthest-point selection vs a direct numpy recomputation
    of the same integer-micro greedy (min-id seed, max-min dist, ties
    to smaller id)."""
    from hand_index_ray.pipelines.ann import _sim_micro, kcenter_select

    ds, m = _emb_ds(n=40, dim=6, seed=17)
    got = kcenter_select(ds, k=5)

    nm = m / np.linalg.norm(m, axis=1)[:, None]
    ids = np.arange(len(m))
    sel = [0]
    dists = [0]
    for _ in range(4):
        rest = np.setdiff1d(ids, sel)
        micro = _sim_micro(nm[rest] @ nm[sel].T)
        dmin = (1_000_000 - micro).min(axis=1)
        j = np.lexsort((rest, -dmin))[0]
        sel.append(int(rest[j]))
        dists.append(int(dmin[j]))
    assert got["vec_id"].tolist() == sel
    assert got["dist_micro"].tolist() == dists
    assert got["rank"].tolist() == [1, 2, 3, 4, 5]


def test_semdedup_matches_bruteforce(ray_session):
    """SemDeDup rule vs direct recomputation: id-seeded clusters
    (argmax micro cosine, ties to smaller centroid id), drop when any
    lower-id cluster mate reaches the threshold."""
    from hand_index_ray.pipelines.ann import _sim_micro, semdedup

    ds, m = _emb_ds(n=60, dim=6, seed=23)
    got = semdedup(ds, n_clusters=4, threshold=0.9).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)

    nm = m / np.linalg.norm(m, axis=1)[:, None]
    cl = np.argmax(_sim_micro(nm @ nm[:4].T), axis=1)
    for i in range(len(m)):
        mates = [j for j in range(i) if cl[j] == cl[i]]
        mx = max((int(_sim_micro(np.array([nm[i] @ nm[j]]))[0])
                  for j in mates), default=-1_000_001)
        row = got.iloc[i]
        assert row["vec_id"] == i
        assert row["cluster_id"] == cl[i]
        assert row["max_lower_sim_micro"] == mx
        assert bool(row["kept"]) == (mx < 900000)


def test_source_overlap_matches_bruteforce(ray_session):
    """Cross-source distinct-gram overlap vs direct recomputation over
    literal gram strings (hash identity is w.h.p. injective)."""
    import ray.data

    from hand_index_ray.pipelines.text import source_overlap

    rng = np.random.default_rng(29)
    rows = []
    for d in range(40):
        toks = [f"w{v}" for v in rng.integers(0, 9, rng.integers(1, 12))]
        rows.append((d, " ".join(toks), f"s{d % 3}"))
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "source": pa.array([r[2] for r in rows], pa.string())}))
    got = source_overlap(ds, n=3).to_pandas() \
        .sort_values(["source_a", "source_b"]).reset_index(drop=True)

    per_src: dict = {}
    for _d, text, s in rows:
        toks = text.split(" ")
        grams = {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)} \
            if len(toks) >= 3 else {" ".join(toks)}
        per_src.setdefault(s, set()).update(grams)
    want = []
    keys = sorted(per_src)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            n_shared = len(per_src[keys[i]] & per_src[keys[j]])
            if n_shared:
                want.append((keys[i], keys[j], n_shared))
    assert [tuple(r) for r in got.to_numpy()] == want


def test_truncation_dups_matches_bruteforce(ray_session):
    """Exact prefix-containment pairs vs direct recomputation,
    including a truncation family and a shares-head-but-diverges
    decoy."""
    from hand_index_ray.pipelines.text import truncation_dups

    base = "alpha beta gamma delta eps zeta eta theta iota kappa"
    rows = [
        (0, base),                                   # full article
        (1, " ".join(base.split()[:7])),             # truncated copy
        (2, " ".join(base.split()[:6])),             # shorter cut
        (3, "alpha beta gamma delta eps zeta XX YY"),  # diverges after head
        (4, "totally different opening words here now"),
        (5, "alpha beta gamma"),                     # < k tokens: excluded
        (6, base),                                   # exact same length: excluded (strict)
    ]
    got = truncation_dups(_docs_ds(rows), k=6).to_pandas() \
        .sort_values(["id_short", "id_long"]).reset_index(drop=True)

    want = []
    for i, (si, ti) in enumerate(rows):
        for j, (sj, tj) in enumerate(rows):
            a, b = ti.split(" "), tj.split(" ")
            if len(a) >= 6 and len(b) > len(a) and b[:len(a)] == a:
                want.append((si, sj, len(a)))
    want.sort()
    assert [tuple(r) for r in got.to_numpy()] == want
    # the family: 1 and 2 are prefixes of 0 and 3 (head-sharers),
    # and 2 is a prefix of 1
    assert (2, 1, 6) in want and (1, 0, 7) in want and (2, 0, 6) in want


def test_semdedup_empty_input_returns_empty(ray_session):
    """r5 review: an empty (or filtered-to-empty) corpus must yield an
    empty result, not a np.stack ValueError."""
    import ray.data

    from hand_index_ray.pipelines.ann import semdedup

    empty = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float64()))}))
    out = semdedup(empty, n_clusters=4).to_pandas()
    assert len(out) == 0
