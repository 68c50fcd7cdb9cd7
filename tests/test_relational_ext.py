"""Relational extensions: bloom-filter semi join, pivot, rollup,
lag delta, grouped concat/mode, text normalization (SURVEY §2 A/J
extensions; each also has a driver query + SQL oracle, q47-q54)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

def _rd():
    import ray.data

    return ray.data


import hand_index_ray.relational as rel
from hand_index_ray.pipelines import text as tx


@pytest.fixture(scope="module")
def li_ds(ray_session):
    import ray.data

    rng = np.random.default_rng(7)
    n = 5000
    return ray.data.from_arrow(pa.table({
        "k": rng.integers(0, 900, n),
        "flag": rng.choice(["A", "N", "R"], n),
        "status": rng.choice(["O", "F"], n),
        "v": rng.integers(1, 100, n),
    })).repartition(8)


def test_bloom_no_false_negatives_and_low_fp(ray_session):
    import ray.data

    member = np.arange(0, 4000, 2, dtype=np.int64)          # evens
    probe = np.arange(0, 8000, dtype=np.int64)               # half members
    ds = ray.data.from_arrow(pa.table({"k": member})).repartition(4)
    words = rel.bloom_build(ds, "k", num_bits=1 << 16, k=4)
    big = ray.data.from_arrow(pa.table({"k": probe})).repartition(4)
    kept = rel.bloom_prefilter(big, "k", words, num_bits=1 << 16, k=4) \
        .to_pandas()["k"].to_numpy()
    member_set = set(member.tolist())
    # every true member survives
    assert member_set <= set(kept.tolist())
    # false-positive minority: << the non-member half
    fp = len(kept) - len(member)
    assert fp / (len(probe) - len(member)) < 0.05


def test_bloom_string_keys(ray_session):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"s": [f"doc-{i}" for i in range(100)]}))
    words = rel.bloom_build(ds, "s", num_bits=1 << 12, k=3)
    probe = ray.data.from_arrow(pa.table(
        {"s": [f"doc-{i}" for i in range(0, 200)]}))
    kept = set(rel.bloom_prefilter(probe, "s", words, num_bits=1 << 12,
                                   k=3).to_pandas()["s"])
    assert {f"doc-{i}" for i in range(100)} <= kept


def test_pivot_sum_matches_pandas(li_ds):
    got = rel.pivot_sum(li_ds, "flag", "status", "v", ["O", "F"],
                        out_names=["v_o", "v_f"]).to_pandas() \
        .sort_values("flag").reset_index(drop=True)
    df = li_ds.to_pandas()
    exp = df.assign(v_o=df.v.where(df.status == "O", 0),
                    v_f=df.v.where(df.status == "F", 0)) \
        .groupby("flag", as_index=False)[["v_o", "v_f"]].sum() \
        .sort_values("flag").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_like=True)


def test_rollup_counts_levels(li_ds):
    got = rel.rollup_counts(li_ds.select_columns(["flag", "status", "v"]),
                            ["flag", "status"], sum_cols=["v"]).to_pandas()
    df = li_ds.to_pandas()
    # fine level
    fine = got[(got.flag != "*") & (got.status != "*")]
    exp = df.groupby(["flag", "status"]).size()
    assert len(fine) == len(exp)
    for (f, s), n in exp.items():
        row = fine[(fine.flag == f) & (fine.status == s)].iloc[0]
        assert row.n == n
        assert row.v == df[(df.flag == f) & (df.status == s)].v.sum()
    # mid level rolls status
    mid = got[(got.flag != "*") & (got.status == "*")]
    assert dict(zip(mid.flag, mid.n)) == df.groupby("flag").size().to_dict()
    # grand total
    top = got[(got.flag == "*") & (got.status == "*")]
    assert len(top) == 1 and top.iloc[0].n == len(df) and top.iloc[0].v == df.v.sum()


def test_lag_delta_per_key(ray_session):
    import ray.data

    t = pa.table({"u": [1, 1, 1, 2, 2, 3],
                  "ts": [10, 3, 7, 5, 5, 9],
                  "id": [0, 1, 2, 3, 4, 5]})
    out = rel.lag_delta(_rd().from_arrow(t), "u", "ts", "id",
                        out="d", keep=["id"]).to_pandas() \
        .sort_values(["u", "ts", "id"]).reset_index(drop=True)
    # u=1 sorted ts: 3,7,10 → deltas 4,3 ; u=2 ties (5,5) → delta 0 ; u=3 single → none
    assert out.u.tolist() == [1, 1, 2]
    assert out.d.tolist() == [4, 3, 0]
    assert out.d.dtype == np.int64


def test_grouped_concat_sorted_distinct(ray_session):
    import ray.data

    t = pa.table({"g": ["x", "x", "x", "y"], "s": ["b", "a", "b", "c"]})
    out = rel.grouped_concat(_rd().from_arrow(t), ["g"], "s",
                             out="ss").to_pandas().sort_values("g")
    assert out.ss.tolist() == ["a,b", "c"]


def test_grouped_mode_ties_break_small(ray_session):
    import ray.data

    t = pa.table({"g": [1, 1, 1, 1, 2, 2], "s": ["b", "b", "a", "a", "z", "q"]})
    out = rel.grouped_mode(_rd().from_arrow(t), ["g"], "s").to_pandas() \
        .sort_values("g").reset_index(drop=True)
    assert out.s.tolist() == ["a", "q"]  # ties → lexicographically smallest
    assert out.n.tolist() == [2, 1]


def test_normalize_text_re2_semantics(ray_session):
    import ray.data

    t = pa.table({"text": ["  Hello, WORLD!!  42 ", "a--b", ""]})
    out = tx.normalize_text(_rd().from_arrow(t)).to_pandas()["norm"].tolist()
    assert out == ["hello world 42", "a b", ""]


def test_grouped_nunique_exact(li_ds):
    got = rel.grouped_nunique(li_ds, ["flag"], "k").to_pandas() \
        .sort_values("flag").reset_index(drop=True)
    df = li_ds.to_pandas()
    exp = df.groupby("flag")["k"].nunique()
    assert dict(zip(got.flag, got.n)) == exp.to_dict()
    assert got.n.dtype == np.int64


def test_grouped_approx_distinct_exact_regime(li_ds):
    got = rel.grouped_approx_distinct(li_ds, ["flag"], "k",
                                      out="nd").to_pandas()
    df = li_ds.to_pandas()
    exp = df.groupby("flag")["k"].nunique()
    # < SPARSE_MAX distinct per group → sketch is exact
    assert dict(zip(got.flag, got.nd)) == exp.to_dict()


def test_grouped_approx_distinct_string_values(ray_session):
    import ray.data

    t = pa.table({"g": ["a"] * 50 + ["b"] * 30,
                  "v": [f"u{i % 17}" for i in range(50)] + [f"w{i % 9}" for i in range(30)]})
    got = rel.grouped_approx_distinct(_rd().from_arrow(t).repartition(4),
                                      ["g"], "v").to_pandas()
    assert dict(zip(got.g, got.n_distinct)) == {"a": 17, "b": 9}


def test_unnest_with_carried_columns(ray_session):
    import ray.data

    t = pa.table({"id": [1, 2, 3],
                  "xs": [[10, 20], [], [30]]})
    out = rel.unnest(_rd().from_arrow(t), "xs", keep=["id"],
                     out="x").to_pandas().sort_values(["id", "x"]) \
        .reset_index(drop=True)
    assert out.id.tolist() == [1, 1, 3]
    assert out.x.tolist() == [10, 20, 30]


def test_histogram_int_exact(li_ds):
    got = rel.histogram_int(li_ds, "v", width=10).to_pandas() \
        .sort_values("bin").reset_index(drop=True)
    df = li_ds.to_pandas()
    exp = (df.v // 10).value_counts().sort_index()
    assert got.bin.tolist() == exp.index.tolist()
    assert got.n.tolist() == exp.values.tolist()


def test_pivot_rollup_nunique_empty_input(ray_session):
    """Empty datasets flow through without crashing (the Ray
    empty-block schema gotcha)."""
    import ray.data

    empty = ray.data.from_arrow(pa.table({
        "k": pa.array([], pa.int64()), "flag": pa.array([], pa.string()),
        "status": pa.array([], pa.string()), "v": pa.array([], pa.int64())}))
    assert rel.pivot_sum(empty, "flag", "status", "v", ["O"]).count() == 0
    assert rel.grouped_nunique(empty, ["flag"], "k").count() == 0
    ru = rel.rollup_counts(empty, ["flag", "status"], sum_cols=["v"]).to_pandas()
    # ROLLUP's grand-total row exists even over empty input (SQL parity)
    assert len(ru) <= 1
    if len(ru):
        assert ru.iloc[0].n == 0


# --- round-2 late additions: moments, percentiles, rank windows,
#     running sums, set ops (driver queries q63-q67) ---

def test_grouped_moments_matches_numpy(li_ds):
    got = rel.grouped_moments(li_ds, ["flag"], "v", y="k").to_pandas() \
        .sort_values("flag").reset_index(drop=True)
    df = li_ds.to_pandas()
    for _, row in got.iterrows():
        sub = df[df.flag == row.flag]
        x = sub.v.to_numpy(dtype=np.float64)
        y = sub.k.to_numpy(dtype=np.float64)
        assert row.n == len(sub)
        assert row.sum_x == sub.v.sum()
        assert abs(row.var_micro / 1e6 - x.var()) < 1e-3
        cov = ((x - x.mean()) * (y - y.mean())).mean()
        assert abs(row.cov_micro / 1e6 - cov) < 1e-2
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(row.corr_micro / 1e6 - corr) < 1e-4


def test_grouped_moments_degenerate_group(ray_session):
    """A constant group has zero variance and (by the guarded CASE)
    zero correlation — no NaN/inf leaks into the output."""
    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "g": ["a"] * 5 + ["b"] * 3,
        "x": [7] * 5 + [1, 2, 3],
        "y": [1, 2, 3, 4, 5] + [9] * 3}))
    got = rel.grouped_moments(ds, ["g"], "x", y="y").to_pandas() \
        .set_index("g")
    assert got.loc["a"].var_micro == 0
    assert got.loc["a"].corr_micro == 0      # denom 0 -> guarded to 0
    assert got.loc["b"].cov_micro == 0       # y constant


def test_grouped_percentiles_disc_semantics(ray_session):
    """PERCENTILE_DISC picks the element at ceil(p*n)-1 — verified
    against a brute-force sort."""
    import ray.data

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 1000, 101)
    ds = ray.data.from_arrow(pa.table({"g": ["z"] * 101, "v": vals}))
    got = rel.grouped_percentiles(ds, ["g"], "v", ps=(0.1, 0.5, 0.9)) \
        .to_pandas().iloc[0]
    s = np.sort(vals)
    for p, col in [(0.1, "p10"), (0.5, "p50"), (0.9, "p90")]:
        assert got[col] == s[int(np.ceil(p * 101)) - 1]


def test_window_rank_ties(ray_session):
    """RANK leaves gaps after ties, DENSE_RANK doesn't, ROW_NUMBER is
    tiebreak-deterministic."""
    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "g": ["a"] * 4, "id": [1, 2, 3, 4], "v": [50, 50, 40, 60]}))
    got = rel.window_rank(ds, ["g"], "v", "id", descending=True) \
        .to_pandas().sort_values("row_number").reset_index(drop=True)
    assert got.id.tolist() == [4, 1, 2, 3]
    assert got["rank"].tolist() == [1, 2, 2, 4]
    assert got.dense_rank.tolist() == [1, 2, 2, 3]
    assert got.row_number.tolist() == [1, 2, 3, 4]


def test_running_sum_prefix(ray_session):
    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "u": [1, 1, 1, 2, 2], "i": [3, 1, 2, 1, 2],
        "t": [30, 10, 20, 10, 20], "v": [5, 1, 2, 10, 20]})).repartition(3)
    got = rel.running_sum(ds, "u", "t", "v", "i").to_pandas() \
        .sort_values(["u", "t"]).reset_index(drop=True)
    assert got.running.tolist() == [1, 3, 8, 10, 30]


def test_set_ops_distinct_semantics(ray_session):
    """INTERSECT/EXCEPT are set-distinct even when inputs carry dup
    rows (ANSI default), and survive empty sides."""
    import ray.data

    a = ray.data.from_arrow(pa.table({"k": [1, 1, 2, 3, 3, 3]}))
    b = ray.data.from_arrow(pa.table({"k": [2, 2, 3, 4]}))
    it = sorted(rel.set_op(a, b, ["k"], op="intersect").to_pandas().k)
    ex = sorted(rel.set_op(a, b, ["k"], op="except").to_pandas().k)
    assert it == [2, 3]
    assert ex == [1]
    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    assert rel.set_op(a, empty, ["k"], op="intersect").count() == 0
    assert sorted(rel.set_op(a, empty, ["k"], op="except").to_pandas().k) == [1, 2, 3]


def test_band_join_searchsorted(ray_session):
    """[low, high) membership: boundary values land in the right band,
    out-of-band rows drop (inner semantics), bands validate."""
    import ray.data

    bins = pa.table({"lo": pa.array([0, 10, 50], pa.int64()),
                     "hi": pa.array([10, 20, 60], pa.int64()),
                     "tier": ["a", "b", "c"]})
    ds = ray.data.from_arrow(pa.table(
        {"v": pa.array([0, 9, 10, 19, 20, 49, 50, 59, 60, -1], pa.int64())}))
    got = rel.band_join(ds, bins, "v", "lo", "hi", ["tier"]).to_pandas() \
        .sort_values("v").reset_index(drop=True)
    assert got.v.tolist() == [0, 9, 10, 19, 50, 59]
    assert got.tier.tolist() == ["a", "a", "b", "b", "c", "c"]
    with pytest.raises(ValueError):
        overlapping = pa.table({"lo": pa.array([0, 5], pa.int64()),
                                "hi": pa.array([10, 15], pa.int64()),
                                "tier": ["a", "b"]})
        rel.band_join(ds, overlapping, "v", "lo", "hi", ["tier"])


def test_grouped_arg_extreme(ray_session):
    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "g": ["a", "a", "a", "b", "b"],
        "v": pa.array([5, 9, 9, 1, 1], pa.int64()),
        "p": pa.array([100, 7, 42, 3, 8], pa.int64())})).repartition(3)
    mx = rel.grouped_arg_extreme(ds, ["g"], "v", "p", mode="max") \
        .to_pandas().set_index("g")
    assert mx.loc["a"].v == 9 and mx.loc["a"].p == 42  # tie -> max payload
    assert mx.loc["b"].v == 1 and mx.loc["b"].p == 8
    mn = rel.grouped_arg_extreme(ds, ["g"], "v", "p", mode="min") \
        .to_pandas().set_index("g")
    assert mn.loc["a"].v == 5 and mn.loc["a"].p == 100
    assert mn.loc["b"].v == 1 and mn.loc["b"].p == 3  # tie -> min payload


def test_grouped_zscore_matches_numpy(li_ds):
    got = rel.grouped_zscore(li_ds, ["flag"], "v", id_cols=["k"]).to_pandas()
    df = li_ds.to_pandas()
    assert len(got) == len(df)
    for flag, sub in df.groupby("flag"):
        x = sub.v.to_numpy(dtype=np.float64)
        mu, sd = x.mean(), x.std()
        gs = got[got.flag == flag].sort_values(["k", "v"]).reset_index(drop=True)
        ss = sub.sort_values(["k", "v"]).reset_index(drop=True)
        np.testing.assert_allclose(gs.z_micro.to_numpy() / 1e6,
                                   (ss.v.to_numpy() - mu) / sd, atol=2e-3)


def test_grouped_zscore_null_key_is_a_group(ray_session):
    import ray.data

    t = pa.table({"g": pa.array(["a", None, "b", "a", None]),
                  "v": pa.array([1, 2, 3, 5, 4], pa.int64()),
                  "id": pa.array(range(5), pa.int64())})
    got = rel.grouped_zscore(ray.data.from_arrow(t), ["g"], "v", ["id"]) \
        .to_pandas().sort_values("id")
    assert list(got.z_micro) == [-10 ** 6, -10 ** 6, 0, 10 ** 6, 10 ** 6]


def test_misra_gries_sketch():
    from hand_index_ray.kernels import sketch

    rng = np.random.default_rng(5)
    # zipf-ish stream with 50 distinct, capacity 16: counts within N/17
    vals = rng.zipf(1.5, 20000) % 50
    st = sketch.mg_empty()
    for chunk in np.array_split(vals, 7):
        st = sketch.mg_add(st, chunk, capacity=16)
    items, counts = st
    true = pd.Series(vals).value_counts()
    n = len(vals)
    for it, c in zip(items, counts):
        t = true.get(it, 0)
        assert t - n / 17 <= c <= t, (it, c, t)
    # exact regime: distinct <= capacity -> exact counts, merge-stable
    a = sketch.mg_add(sketch.mg_empty(), vals[:10000] % 10, capacity=64)
    b = sketch.mg_add(sketch.mg_empty(), vals[10000:] % 10, capacity=64)
    m = sketch.mg_merge(a, b, capacity=64)
    items, counts = sketch.mg_topk(m, 10)
    true = pd.Series(vals % 10).value_counts()
    for it, c in zip(items, counts):
        assert c == true[it]
    # serialization roundtrip
    rt = sketch.mg_deserialize(sketch.mg_serialize(m))
    assert list(rt[0]) == list(m[0]) and (rt[1] == m[1]).all()


def test_approx_top_k_exact_regime(li_ds):
    got = rel.approx_top_k(li_ds, "k", 15)
    df = li_ds.to_pandas()
    true = df.k.value_counts().reset_index()
    true.columns = ["k", "n"]
    true = true.sort_values(["n", "k"], ascending=[False, True]) \
        .head(15).reset_index(drop=True)
    assert got.k.tolist() == true.k.tolist()
    assert got.n.tolist() == true.n.tolist()
    assert str(got.k.dtype) == str(df.k.dtype)


def test_grouped_regression_matches_polyfit(ray_session):
    import ray.data

    rng = np.random.default_rng(3)
    n = 4000
    g = rng.integers(0, 5, n)
    x = rng.integers(1, 50, n)
    y = 3 * x + g * 100 + rng.integers(-20, 20, n)
    ds = ray.data.from_arrow(pa.table({
        "g": g.astype("int64"), "x": x.astype("int64"),
        "y": y.astype("int64")})).repartition(6)
    out = rel.grouped_regression(ds, ["g"], "x", "y").to_pandas() \
        .sort_values("g").reset_index(drop=True)
    assert out["n"].sum() == n
    for _, r in out.iterrows():
        m = g == r["g"]
        slope = np.polyfit(x[m].astype(float), y[m].astype(float), 1)[0]
        assert abs(r["slope_num"] / r["slope_den"] - slope) < 1e-9
        assert r["sum_x"] == x[m].sum() and r["sum_y"] == y[m].sum()


def test_cusum_changepoint_matches_bruteforce(ray_session):
    import ray.data

    rng = np.random.default_rng(13)
    n = 3000
    key = rng.integers(0, 40, n)
    order = rng.permutation(n)
    tb = np.arange(n)
    # planted level shift for some keys
    v = rng.integers(0, 20, n) + (order > n // 2) * (key % 3 == 0) * 50
    ds = ray.data.from_arrow(pa.table({
        "k": key.astype("int64"), "o": order.astype("int64"),
        "tb": tb.astype("int64"), "v": v.astype("int64")})) \
        .repartition(5)
    out = rel.cusum_changepoint(ds, "k", "o", "tb", "v") \
        .to_pandas().sort_values("k").reset_index(drop=True)
    for kk in np.unique(key):
        m = key == kk
        vv = v[m][np.argsort(order[m], kind="stable")]
        nn = len(vv)
        if nn < 2:
            assert kk not in out["k"].values
            continue
        pref = np.cumsum(vv)
        dev = np.abs(nn * pref[:-1] - np.arange(1, nn) * pref[-1])
        bk = int(np.argmax(dev)) + 1
        row = out[out["k"] == kk].iloc[0]
        assert row["change_k"] == bk and row["dev"] == dev[bk - 1]


def test_profile_int_columns_with_nulls(ray_session):
    import ray.data

    t = pa.table({
        "a": pa.array([1, None, 3, None, 7], pa.int64()),
        "b": pa.array([5, 5, 5, 5, 5], pa.int64())})
    prof = rel.profile_int_columns(_rd().from_arrow(t), ["a", "b"])
    pa_row = prof[prof["col"] == "a"].iloc[0]
    assert pa_row["n"] == 5 and pa_row["nulls"] == 2
    assert pa_row["min_v"] == 1 and pa_row["max_v"] == 7
    assert pa_row["n_distinct"] == 4  # 1, 3, 7, null
    pb = prof[prof["col"] == "b"].iloc[0]
    assert pb["n_distinct"] == 1 and pb["min_v"] == 5


def test_integer_ema_brute(ray_session):
    import ray.data
    from hand_index_ray.relational import integer_ema

    rng = np.random.default_rng(61)
    rows = []
    for k in range(7):
        n = int(rng.integers(1, 40))
        for i in range(n):
            rows.append((k, i, int(rng.integers(0, 50000))))
    df = pd.DataFrame(rows, columns=["k", "ord", "v"])
    got = integer_ema(ray.data.from_pandas(df), "k", "ord", "v",
                      shift=2).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    for _, row in got.iterrows():
        sub = df[df["k"] == row["k"]].sort_values("ord")["v"].tolist()
        ema, tot = sub[0], sub[0]
        for v in sub[1:]:
            ema = (v + 3 * ema) >> 2
            tot += ema
        assert row["ema_last"] == ema
        assert row["ema_sum"] == tot
        assert row["n_events"] == len(sub)


def test_grouped_weighted_median_brute(ray_session):
    import ray.data
    from hand_index_ray.relational import grouped_weighted_median

    rng = np.random.default_rng(89)
    rows = []
    for k in range(8):
        n = int(rng.integers(1, 50))
        for _ in range(n):
            rows.append((k, int(rng.integers(0, 20)),
                         int(rng.integers(1, 9))))
    df = pd.DataFrame(rows, columns=["k", "v", "w"])
    got = grouped_weighted_median(ray.data.from_pandas(df), "k", "v",
                                  "w").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    for _, row in got.iterrows():
        sub = df[df["k"] == row["k"]]
        agg = sub.groupby("v")["w"].sum().sort_index()
        tot = int(agg.sum())
        cum = 0
        for v, w in agg.items():
            cum += int(w)
            if 2 * cum >= tot:
                assert row["wmedian"] == v
                break
        assert row["total_w"] == tot


def test_mann_kendall_brute(ray_session):
    import ray.data
    from hand_index_ray.relational import mann_kendall

    rng = np.random.default_rng(97)
    rows = []
    for k in range(7):
        n = int(rng.integers(1, 40))
        for i in range(n):
            rows.append((k, i, int(rng.integers(0, 12))))  # many ties
    df = pd.DataFrame(rows, columns=["k", "ord", "v"])
    got = mann_kendall(ray.data.from_pandas(df), "k", "ord", "v") \
        .to_pandas().sort_values("k").reset_index(drop=True)
    for _, row in got.iterrows():
        sub = df[df["k"] == row["k"]].sort_values("ord")["v"].to_numpy()
        s = sum(int(np.sign(sub[j] - sub[i]))
                for i in range(len(sub)) for j in range(i + 1, len(sub)))
        assert row["s_stat"] == s
        assert row["n_events"] == len(sub)
    # monotone sequences hit the exact extremes
    mono = pd.DataFrame({"k": [0] * 5 + [1] * 5, "ord": list(range(5)) * 2,
                         "v": [1, 2, 3, 4, 5, 9, 7, 5, 3, 1]})
    got = mann_kendall(ray.data.from_pandas(mono), "k", "ord", "v") \
        .to_pandas().sort_values("k")
    assert got["s_stat"].tolist() == [10, -10]


def test_interval_union(ray_session):
    from hand_index_ray.relational import interval_union

    # overlapping, touching (merge), disjoint, nested, duplicate
    rows = [
        (1, 0, 10), (1, 5, 12), (1, 12, 20),      # one island [0,20)
        (1, 30, 35), (1, 31, 33),                  # nested -> [30,35)
        (2, 0, 1), (2, 2, 3), (2, 2, 3),           # dup row, 2 islands
        (3, 7, 8),
    ]
    t = pa.table({"k": pa.array([r[0] for r in rows], pa.int64()),
                  "s": pa.array([r[1] for r in rows], pa.int64()),
                  "e": pa.array([r[2] for r in rows], pa.int64())})
    got = interval_union(_rd().from_arrow(t), "k", "s", "e") \
        .to_pandas().set_index("k").sort_index()
    assert got.loc[1].tolist() == [2, 25, 20]   # islands, covered, max
    assert got.loc[2].tolist() == [2, 2, 1]
    assert got.loc[3].tolist() == [1, 1, 1]


def test_range_frame_sum_vs_brute(ray_session):
    from hand_index_ray.relational import range_frame_sum

    rng = np.random.RandomState(3)
    n = 300
    k = rng.randint(0, 6, n)
    # duplicate timestamps on purpose: RANGE peers must co-include
    ts = rng.randint(0, 50, n).astype(np.int64) * 10
    v = rng.randint(-5, 20, n).astype(np.int64)
    rid = np.arange(n, dtype=np.int64)
    t = pa.table({"k": pa.array(k, pa.int64()),
                  "ts": pa.array(ts, pa.int64()),
                  "v": pa.array(v, pa.int64()),
                  "rid": pa.array(rid, pa.int64())})
    W = 70
    got = range_frame_sum(_rd().from_arrow(t), "k", "ts", "v", width=W) \
        .to_pandas().set_index("rid").sort_index()
    for i in range(n):
        m = (k == k[i]) & (ts >= ts[i] - W) & (ts <= ts[i])
        assert got.loc[i, "w_sum"] == v[m].sum(), i
        assert got.loc[i, "w_cnt"] == int(m.sum()), i


def test_rrf_topk_vs_brute(ray_session):
    from fractions import Fraction

    from hand_index_ray.relational import rrf_topk

    rng = np.random.RandomState(9)
    n = 120
    key = np.array(["ab", "cd", "e"])[rng.randint(0, 3, n)]
    ids = np.arange(n, dtype=np.int64)
    a = rng.randint(0, 40, n).astype(np.int64)   # deliberate ties
    b = rng.randint(0, 40, n).astype(np.int64)
    t = pa.table({"key": pa.array(key), "id": pa.array(ids, pa.int64()),
                  "a": pa.array(a, pa.int64()),
                  "b": pa.array(b, pa.int64())})
    K, TOP = 60, 4
    got = rrf_topk(_rd().from_arrow(t), "key", "id", "a", "b",
                   k=K, topk=TOP).to_pandas()
    for kk in ["ab", "cd", "e"]:
        m = key == kk
        sub = sorted(zip(-a[m], ids[m]))
        ra = {i: r + 1 for r, (_, i) in enumerate(sub)}
        sub = sorted(zip(b[m], ids[m]))
        rb = {i: r + 1 for r, (_, i) in enumerate(sub)}
        scored = sorted(
            ids[m],
            key=lambda i: (-((2 * K + ra[i] + rb[i]) * (1 << 40)
                            // ((K + ra[i]) * (K + rb[i]))), i))
        g = got[got["key"] == kk].sort_values("rk")
        assert g["id"].tolist() == scored[:TOP]
        for _, row in g.iterrows():
            i = row["id"]
            assert row["num"] == 2 * K + ra[i] + rb[i]
            assert row["den"] == (K + ra[i]) * (K + rb[i])
        # the integer sort key respects the true fraction order
        # whenever fractions differ beyond 2^-40
        fr = {i: Fraction(1, K + ra[i]) + Fraction(1, K + rb[i])
              for i in ids[m]}
        for x, y in zip(scored, scored[1:]):
            assert fr[x] >= fr[y] or \
                abs(fr[x] - fr[y]) < Fraction(1, 1 << 39)


def test_theil_sen_vs_brute(ray_session):
    from fractions import Fraction

    from hand_index_ray.relational import theil_sen

    rng = np.random.RandomState(17)
    n = 90
    k = rng.randint(0, 5, n)
    t = np.arange(n, dtype=np.int64)            # unique, increasing
    v = rng.randint(-100, 100, n).astype(np.int64)
    tab = pa.table({"k": pa.array(k, pa.int64()),
                    "t": pa.array(t, pa.int64()),
                    "v": pa.array(v, pa.int64())})
    got = theil_sen(_rd().from_arrow(tab), "k", "t", "v") \
        .to_pandas().set_index("k").sort_index()
    S = 1 << 40
    for g in range(5):
        m = k == g
        tt, vv = t[m], v[m]
        pairs = [(int(vv[j] - vv[i]), int(tt[j] - tt[i]))
                 for i in range(len(tt)) for j in range(i + 1, len(tt))]
        pairs.sort(key=lambda p: (p[0] * S // p[1], p[0], p[1]))
        dy, dx = pairs[(len(pairs) - 1) // 2]
        assert got.loc[g, "med_dy"] == dy
        assert got.loc[g, "med_dx"] == dx
        assert got.loc[g, "n_pairs"] == len(pairs)
        # the chosen median is a genuine slope median up to 2^-40 key
        # collisions: its true Fraction sits at the lower median rank
        fr = sorted(Fraction(a, b) for a, b in pairs)
        assert abs(Fraction(dy, dx) - fr[(len(fr) - 1) // 2]) \
            < Fraction(1, 1 << 38)


def test_lag_autocov_vs_brute(ray_session):
    from hand_index_ray.relational import lag_autocov

    rng = np.random.RandomState(23)
    n = 120
    k = rng.randint(0, 8, n)                    # some keys < lag long
    o = np.arange(n, dtype=np.int64)
    v = rng.randint(-9, 9, n).astype(np.int64)
    tab = pa.table({"k": pa.array(k, pa.int64()),
                    "o": pa.array(o, pa.int64()),
                    "v": pa.array(v, pa.int64())})
    LAG = 4
    got = lag_autocov(_rd().from_arrow(tab), "k", "o", "v", lag=LAG) \
        .to_pandas().set_index("k")
    for g in range(8):
        vv = v[k == g]
        m = len(vv) - LAG
        if m <= 0:
            assert g not in got.index
            continue
        assert got.loc[g, "m"] == m
        assert got.loc[g, "s_xy"] == int((vv[:-LAG] * vv[LAG:]).sum())
        assert got.loc[g, "s_x"] == int(vv[:-LAG].sum())
        assert got.loc[g, "s_y"] == int(vv[LAG:].sum())


def test_ohlc_bars(ray_session):
    from hand_index_ray.relational import ohlc_bars

    rows = [  # key, ts, id, v  (ties on ts inside one window)
        (1, 10, 5, 100), (1, 10, 3, 200), (1, 19, 9, 50),
        (1, 25, 1, 70),                       # second window
        (2, 5, 2, 7),
    ]
    t = pa.table({"k": pa.array([r[0] for r in rows], pa.int64()),
                  "ts": pa.array([r[1] for r in rows], pa.int64()),
                  "id": pa.array([r[2] for r in rows], pa.int64()),
                  "v": pa.array([r[3] for r in rows], pa.int64())})
    got = ohlc_bars(_rd().from_arrow(t), "k", "ts", "id", "v",
                    width=20).to_pandas()
    got = got.set_index(["k", "window_id"]).sort_index()
    # window (1,0): open = id3 (ts tie, smaller id) = 200, close = 50
    assert got.loc[(1, 0)].tolist() == [200, 200, 50, 50, 3]
    assert got.loc[(1, 1)].tolist() == [70, 70, 70, 70, 1]
    assert got.loc[(2, 0)].tolist() == [7, 7, 7, 7, 1]


def test_gini_impurity(ray_session):
    from hand_index_ray.relational import gini_impurity

    t = pa.table({"k": pa.array([1]*4 + [2]*3, pa.int64()),
                  "c": pa.array(["a", "a", "b", "c", "x", "x", "x"])})
    got = gini_impurity(_rd().from_arrow(t), "k", "c") \
        .to_pandas().set_index("k")
    # key 1: n=4, counts 2,1,1 -> num = 16 - 6 = 10, den = 16
    assert got.loc[1].tolist() == [4, 10, 16]
    # key 2: pure -> impurity 0
    assert got.loc[2].tolist() == [3, 0, 9]


def test_interval_overlap_join_exactly_once(ray_session):
    from hand_index_ray.relational import interval_overlap_join

    rng = np.random.RandomState(31)
    n = 150
    def mk(seed_ids):
        k = rng.randint(0, 4, n)
        s = rng.randint(0, 1000, n).astype(np.int64)
        e = s + rng.randint(1, 400, n)          # spans many cells
        return pa.table({"id": pa.array(seed_ids, pa.int64()),
                         "k": pa.array(k, pa.int64()),
                         "s": pa.array(s, pa.int64()),
                         "e": pa.array(e, pa.int64())}), k, s, e
    ta, ka, sa, ea = mk(np.arange(n, dtype=np.int64))
    tb, kb, sb, eb = mk(np.arange(n, 2 * n, dtype=np.int64))
    got = interval_overlap_join(_rd().from_arrow(ta),
                                _rd().from_arrow(tb),
                                "k", "id", "s", "e", cell_us=64) \
        .to_pandas()
    pairs = sorted(zip(got["a_id"], got["b_id"]))
    assert len(pairs) == len(set(pairs))        # exactly once
    exp = sorted((int(ai), int(bi + n))
                 for ai in range(n) for bi in range(n)
                 if ka[ai] == kb[bi] and sa[ai] < eb[bi]
                 and sb[bi] < ea[ai])
    assert pairs == exp


def test_grouped_agg_hash_matches_native(ray_session):
    from hand_index_ray.relational import grouped_agg, grouped_agg_hash

    rng = np.random.RandomState(41)
    n = 5000
    t = pa.table({"k1": pa.array(rng.randint(0, 300, n), pa.int64()),
                  "k2": pa.array(rng.randint(0, 300, n), pa.int64()),
                  "v": pa.array(rng.randint(-50, 50, n), pa.int64())})
    a = grouped_agg(_rd().from_arrow(t), ["k1", "k2"], sum_cols=["v"],
                    count=True, min_cols=["v"], max_cols=["v"]) \
        .to_pandas()
    b = grouped_agg_hash(_rd().from_arrow(t), ["k1", "k2"],
                         sum_cols=["v"], count=True, min_cols=["v"],
                         max_cols=["v"]).to_pandas()
    cols = sorted(a.columns)
    assert sorted(b.columns) == cols
    a = a[cols].sort_values(cols).reset_index(drop=True)
    b = b[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_rolling_distinct(ray_session):
    from hand_index_ray.relational import rolling_distinct

    rows = [(1, 0), (1, 0), (2, 0), (1, 2), (3, 2), (1, 9), (1, 10)]
    t = pa.table({"u": pa.array([r[0] for r in rows], pa.int64()),
                  "d": pa.array([r[1] for r in rows], pa.int64())})
    got = rolling_distinct(_rd().from_arrow(t), "u", "d", window=3)
    got = got.set_index("d")
    assert got.loc[0].tolist() == [2, 2]      # day0: users {1,2}
    assert got.loc[2].tolist() == [2, 3]      # win {0,1,2}: {1,2,3}
    assert got.loc[9].tolist() == [1, 1]
    assert got.loc[10].tolist() == [1, 1]     # win {8,9,10}: {1}


def test_twap_vs_brute(ray_session):
    from hand_index_ray.relational import twap

    rows = [(1, 0, 10), (1, 10, 20), (1, 40, 5),   # 10*10+20*30 / 40
            (2, 7, 99),                             # single -> dropped
            (3, 0, 1), (3, 1, 2)]
    t = pa.table({"k": pa.array([r[0] for r in rows], pa.int64()),
                  "ts": pa.array([r[1] for r in rows], pa.int64()),
                  "v": pa.array([r[2] for r in rows], pa.int64())})
    got = twap(_rd().from_arrow(t), "k", "ts", "v") \
        .to_pandas().set_index("k")
    assert got.loc[1].tolist() == [10 * 10 + 20 * 30, 40, 3]
    assert 2 not in got.index
    assert got.loc[3].tolist() == [1, 1, 2]


def test_str_pack_vs_ntile_brute(ray_session):
    from hand_index_ray.relational import str_pack

    rng = np.random.RandomState(13)
    n = 777                                   # not divisible by tiles
    ids = np.arange(n, dtype=np.int64)
    cx = rng.randint(0, 60, n).astype(np.int64)   # heavy ties
    cy = rng.randint(0, 60, n).astype(np.int64)
    t = pa.table({"id": pa.array(ids), "cx": pa.array(cx),
                  "cy": pa.array(cy)})
    S, L = 5, 4
    got = str_pack(_rd().from_arrow(t), "id", "cx", "cy",
                   slabs=S, leaves=L).to_pandas()
    got = got.set_index(["slab", "leaf"]).sort_index()

    def ntile(ranks, total, tiles):
        q, r = divmod(total, tiles)
        return [(rk // (q + 1) if rk < r * (q + 1)
                 else r + (rk - r * (q + 1)) // q) + 1 for rk in ranks]

    order = sorted(range(n), key=lambda i: (cx[i], ids[i]))
    slab = np.empty(n, np.int64)
    slab[order] = ntile(range(n), n, S)
    leaf = np.empty(n, np.int64)
    for s in range(1, S + 1):
        m = np.nonzero(slab == s)[0]
        o2 = sorted(m, key=lambda i: (cy[i], ids[i]))
        leaf[o2] = ntile(range(len(m)), len(m), L)
    for s in range(1, S + 1):
        for lf in range(1, L + 1):
            m = (slab == s) & (leaf == lf)
            assert got.loc[(s, lf), "n"] == int(m.sum())
            assert got.loc[(s, lf), "min_x"] == int(cx[m].min())
            assert got.loc[(s, lf), "max_x"] == int(cx[m].max())
            assert got.loc[(s, lf), "min_y"] == int(cy[m].min())
            assert got.loc[(s, lf), "max_y"] == int(cy[m].max())


def test_sliding_max_vs_brute(ray_session):
    from hand_index_ray.relational import sliding_max

    rng = np.random.RandomState(29)
    n = 200
    k = rng.randint(0, 6, n)
    o = np.arange(n, dtype=np.int64)
    v = rng.randint(-50, 50, n).astype(np.int64)
    t = pa.table({"k": pa.array(k, pa.int64()),
                  "o": pa.array(o, pa.int64()),
                  "v": pa.array(v, pa.int64())})
    W = 4
    got = sliding_max(_rd().from_arrow(t), "k", "o", "v", window=W) \
        .to_pandas().set_index("o").sort_index()
    for g in range(6):
        idx = np.nonzero(k == g)[0]
        for p, i in enumerate(idx):
            lo = max(0, p - W + 1)
            assert got.loc[o[i], "wmax"] == v[idx[lo:p + 1]].max()


def test_emd1d_and_overlap(ray_session):
    from fractions import Fraction

    from hand_index_ray.relational import (audience_overlap,
                                           emd1d_vs_global)

    t = pa.table({"k": pa.array(["a"] * 4 + ["b"] * 2),
                  "b": pa.array([0, 0, 1, 3, 3, 3], pa.int64())})
    got = emd1d_vs_global(_rd().from_arrow(t), "k", "b", nbins=4) \
        .set_index("k")
    # brute: EMD between normalized histograms = sum |CDF diff|
    for kk, hist in (("a", [2, 1, 0, 1]), ("b", [0, 0, 0, 2])):
        gl = [2, 1, 0, 3]
        nk, ng = sum(hist), sum(gl)
        exp = sum(abs(Fraction(sum(hist[:i + 1]), nk)
                      - Fraction(sum(gl[:i + 1]), ng))
                  for i in range(3))
        assert Fraction(int(got.loc[kk, "emd_num"]),
                        int(got.loc[kk, "emd_den"])) == exp

    t2 = pa.table({"u": pa.array([1, 1, 2, 2, 3, 1], pa.int64()),
                   "c": pa.array(["x", "y", "x", "z", "y", "x"])})
    ov = audience_overlap(_rd().from_arrow(t2), "u", "c")
    gm = {(r.cat_a, r.cat_b): r.n_both for r in ov.itertuples()}
    assert gm == {("x", "y"): 1, ("x", "z"): 1}


def test_largest_remainder(ray_session):
    from hand_index_ray.relational import largest_remainder

    t = pa.table({"k": pa.array(["a"] * 3 + ["b"] * 2),
                  "id": pa.array([1, 2, 3, 1, 2], pa.int64()),
                  "w": pa.array([1, 1, 1, 3, 1], pa.int64())})
    got = largest_remainder(_rd().from_arrow(t), "k", "id", "w",
                            total=10).to_pandas()
    gm = {(r.k, r.id): r.alloc for r in got.itertuples()}
    # a: 10/3 each -> base 3,3,3 rem equal -> ties by id: 1 bonus unit
    assert gm[("a", 1)] == 4 and gm[("a", 2)] == 3 and gm[("a", 3)] == 3
    # b: w 3:1 -> 7.5/2.5 -> base 7,2; remainders .5/.5 tie -> id 1
    assert gm[("b", 1)] == 8 and gm[("b", 2)] == 2
    # exact totals
    assert sum(v for (k, _), v in gm.items() if k == "a") == 10
    assert sum(v for (k, _), v in gm.items() if k == "b") == 10


def test_mase_partials(ray_session):
    from hand_index_ray.relational import mase_partials

    v = np.array([5, 9, 2, 2, 7], np.int64)
    t = pa.table({"k": pa.array([1] * 5, pa.int64()),
                  "o": pa.array(np.arange(5), pa.int64()),
                  "v": pa.array(v, pa.int64())})
    got = mase_partials(_rd().from_arrow(t), "k", "o", "v", season=2) \
        .to_pandas().set_index("k")
    assert got.loc[1, "m1"] == 4
    assert got.loc[1, "abs_naive"] == int(np.abs(np.diff(v)).sum())
    assert got.loc[1, "ms"] == 3
    assert got.loc[1, "abs_seasonal"] == int(np.abs(v[2:] - v[:-2]).sum())


def test_front_coding_ledger(ray_session):
    from hand_index_ray.relational import front_coding_ledger

    words = ["apple", "applet", "apply", "banana", "band", "bz",
             "apple"]                       # dup collapses
    t = pa.table({"w": pa.array(words)})
    got = front_coding_ledger(_rd().from_arrow(t), "w") \
        .to_pandas().set_index("first_char").sort_index()
    # a: apple(5,0) applet(6,5) apply(5,4) -> 3 terms 16 bytes 9 saved
    assert got.loc["a"].tolist() == [3, 16, 9]
    # b: banana(6,0) band(4,3) bz(2,1) -> 3 terms 12 bytes 4 saved
    assert got.loc["b"].tolist() == [3, 12, 4]


def test_benford_profile(ray_session):
    from hand_index_ray.relational import benford_profile

    t = pa.table({"k": pa.array(["x"] * 5),
                  "v": pa.array([1, 19, 100, 950, -7], pa.int64())})
    got = benford_profile(_rd().from_arrow(t), "k", "v").to_pandas()
    gm = {int(r.digit): int(r.n) for r in got.itertuples()}
    assert gm == {1: 3, 9: 1}               # negatives excluded


def test_auc_exact_vs_sklearnless_brute(ray_session):
    from fractions import Fraction

    from hand_index_ray.relational import auc_exact

    rng = np.random.RandomState(47)
    n = 400
    s = rng.randint(0, 30, n).astype(np.int64)   # heavy ties
    y = rng.randint(0, 2, n).astype(np.int64)
    t = pa.table({"s": pa.array(s), "y": pa.array(y, pa.int64())})
    got = auc_exact(_rd().from_arrow(t), "s", "y").iloc[0]
    pos = s[y == 1]
    neg = s[y == 0]
    u = Fraction(0)
    for a in pos:
        u += int((a > neg).sum()) + Fraction(int((a == neg).sum()), 2)
    assert Fraction(int(got["auc_num"]), int(got["auc_den"])) \
        == u / (len(pos) * len(neg))


def test_lift_table(ray_session):
    from hand_index_ray.relational import lift_table

    rng = np.random.RandomState(53)
    n = 500
    v = rng.randint(0, 40, n).astype(np.int64)
    ids = np.arange(n, dtype=np.int64)
    y = (v + rng.randint(0, 10, n) > 30).astype(np.int64)
    t = pa.table({"v": pa.array(v), "id": pa.array(ids),
                  "y": pa.array(y, pa.int64())})
    got = lift_table(_rd().from_arrow(t), "v", "id", "y", tiles=10)
    # NTILE brute
    order = sorted(range(n), key=lambda i: (-v[i], ids[i]))
    q, r = divmod(n, 10)
    exp_pos, k = [], 0
    for tdx in range(10):
        size = q + 1 if tdx < r else q
        exp_pos.append(int(sum(y[order[k + j]] for j in range(size))))
        k += size
    assert got["n_pos"].tolist() == exp_pos
    assert got["cum_pos"].tolist() == list(np.cumsum(exp_pos))
    assert int(got["n"].sum()) == n


def test_ks_and_pair_lift(ray_session):
    from fractions import Fraction

    from hand_index_ray.relational import ks_two_sample, pair_lift

    rng = np.random.RandomState(59)
    n = 300
    g = np.array(["p", "q", "z"])[rng.randint(0, 3, n)]
    v = np.where(g == "p", rng.randint(0, 20, n),
                 rng.randint(5, 30, n)).astype(np.int64)
    t = pa.table({"g": pa.array(g), "v": pa.array(v, pa.int64())})
    got = ks_two_sample(_rd().from_arrow(t), "g", "v", "p", "q").iloc[0]
    pv = np.sort(v[g == "p"])
    qv = np.sort(v[g == "q"])
    grid = np.unique(np.concatenate([pv, qv]))
    d = max(abs(Fraction(int((pv <= x).sum()), len(pv))
                - Fraction(int((qv <= x).sum()), len(qv)))
            for x in grid)
    assert Fraction(int(got["ks_num"]), int(got["ks_den"])) == d

    t2 = pa.table({"u": pa.array([1, 1, 2, 2, 3, 4], pa.int64()),
                   "c": pa.array(["x", "y", "x", "y", "x", "z"])})
    # N=4; x:{1,2,3} y:{1,2} z:{4}; (x,y) both: 2 -> lift
    # 2*4/(3*2)=4/3 >= 1 keep; (x,z) and (y,z) have no joint user
    got2 = pair_lift(_rd().from_arrow(t2), "u", "c", 1, 1)
    gm = {(r.cat_a, r.cat_b): r.n_both for r in got2.itertuples()}
    assert gm == {("x", "y"): 2}


def test_delta_varint_ledger(ray_session):
    from hand_index_ray.relational import delta_varint_ledger

    v = np.array([100, 100, 101, 228, 228 + (1 << 14)], np.int64)
    t = pa.table({"k": pa.array([1] * 5, pa.int64()),
                  "v": pa.array(v, pa.int64())})
    got = delta_varint_ledger(_rd().from_arrow(t), "k", "v") \
        .to_pandas().set_index("k")
    # deltas: first(8B), 0(1B), 1(1B), 127(1B), 16384(15 bits -> 3B)
    assert got.loc[1, "n"] == 5
    assert got.loc[1, "raw_bytes"] == 40
    assert got.loc[1, "varint_bytes"] == 8 + 1 + 1 + 1 + 3
    assert got.loc[1, "max_bits"] == 15
