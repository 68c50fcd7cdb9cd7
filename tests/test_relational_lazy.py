"""The relational joins and sketches take column names and types
without a partial execution.

``Dataset.schema()`` on a lazy dataset whose schema is not yet known,
and ``Dataset.limit()``, run a partial execution that ends by
cancelling in-flight tasks; Ray 2.49 can abort the driver on those
cancels. Here both raise where they would run one (``limit()`` on any
dataset that is not materialized), and each operator must still
return its full answer from lazy inputs.
"""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture
def no_partial_execution(ray_session, monkeypatch):
    import ray.data

    schema, limit = ray.data.Dataset.schema, ray.data.Dataset.limit
    in_schema = []

    def guarded_schema(self, fetch_if_missing: bool = True):
        # an unknown schema is fetched by executing limit(1)
        if fetch_if_missing and self._plan.schema(
                fetch_if_missing=False) is None:
            raise AssertionError("schema() on a lazy dataset")
        in_schema.append(self)  # its limit(1) is built, never executed
        try:
            return schema(self, fetch_if_missing)
        finally:
            in_schema.pop()

    def guarded_limit(self, n):
        if not in_schema and not self._plan.has_computed_output():
            raise AssertionError("limit() on a lazy dataset")
        return limit(self, n)

    monkeypatch.setattr(ray.data.Dataset, "schema", guarded_schema)
    monkeypatch.setattr(ray.data.Dataset, "limit", guarded_limit)


def _lazy(df: pd.DataFrame):
    import ray.data

    return ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(3).map_batches(lambda t: t, batch_format="pyarrow")


LEFT = pd.DataFrame({"k": np.arange(40, dtype=np.int64) % 7,
                     "t": np.arange(40, dtype=np.int64) * 10,
                     "lid": np.arange(40, dtype=np.int64)})
RIGHT = pd.DataFrame({"k": np.arange(5, dtype=np.int64),
                      "t": np.arange(5, dtype=np.int64) * 7,
                      "v": np.arange(5, dtype=np.int64) * 100})
IVALS = pd.DataFrame({"k": np.arange(7, dtype=np.int64),
                      "s": np.arange(7, dtype=np.int64) * 20,
                      "e": np.arange(7, dtype=np.int64) * 20 + 150})


def _hash_join(rel):
    right = RIGHT.drop(columns="t")
    got = rel.hash_join(_lazy(LEFT), _lazy(right), "k", how="full") \
        .to_pandas()
    want = LEFT.merge(right, on="k", how="outer")
    assert list(got.columns) == ["k", "t", "lid", "v"]
    assert len(got) == len(want)
    assert sorted(got["lid"].dropna()) == sorted(want["lid"].dropna())


def _asof_join(rel):
    got = rel.asof_join(_lazy(LEFT), _lazy(RIGHT), on="t", by="k",
                        how="left").to_pandas()
    assert len(got) == len(LEFT)
    assert list(got.columns) == ["k", "t", "lid", "v", "t_r"]
    matched = LEFT.merge(RIGHT, on="k", suffixes=("", "_r"))
    assert got["t_r"].notna().sum() == \
        matched[matched.t_r <= matched.t]["lid"].nunique()


def _range_join(rel):
    got = rel.range_join(_lazy(LEFT), _lazy(IVALS), key="k", on="t",
                         start="s", end="e").to_pandas()
    m = LEFT.merge(IVALS, on="k")
    want = m[(m.t >= m.s) & (m.t <= m.e)]
    assert sorted(got["lid"]) == sorted(want["lid"])


def _approx_top_k(rel):
    got = rel.approx_top_k(_lazy(LEFT), "k", 3)
    assert str(got["k"].dtype) == "int64"
    assert list(got["k"]) == [0, 1, 2] and list(got["n"]) == [6, 6, 6]


def _cms_key_counts(rel):
    got = rel.cms_key_counts(_lazy(LEFT), "k")
    assert str(got["k"].dtype) == "int64"
    assert dict(zip(got["k"], got["est"])) == \
        LEFT["k"].value_counts().to_dict()


def _sketches(rel):
    ds = _lazy(LEFT)
    assert round(rel.approx_distinct(ds, "k")) == 7
    assert list(rel.approx_quantiles(ds, "lid", [0.0, 1.0])) == [0, 39]
    words = rel.bloom_build(ds, "k", num_bits=1 << 10, k=3)
    assert rel.bloom_prefilter(_lazy(RIGHT), "k", words, num_bits=1 << 10,
                               k=3).count() == 5


def _grouped_zscore(rel):
    got = rel.grouped_zscore(_lazy(LEFT), ["k"], "t", ["lid"]).to_pandas()
    assert list(got.columns) == ["lid", "k", "t", "z_micro"]
    assert len(got) == len(LEFT)


@pytest.mark.parametrize("run", [_hash_join, _asof_join, _range_join,
                                 _approx_top_k, _cms_key_counts, _sketches,
                                 _grouped_zscore],
                         ids=["hash_join", "asof_join", "range_join",
                              "approx_top_k", "cms_key_counts", "sketches",
                              "grouped_zscore"])
def test_no_partial_execution(no_partial_execution, run):
    from hand_index_ray import relational as rel

    run(rel)


def test_guard_catches_schema_of_lazy_dataset(no_partial_execution):
    with pytest.raises(AssertionError):
        _lazy(LEFT).schema()
    assert _lazy(LEFT).materialize().schema().names == ["k", "t", "lid"]
