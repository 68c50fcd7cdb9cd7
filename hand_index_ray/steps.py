"""Composable pipeline steps + batch-kernel registry (SURVEY §2.10).

The reference has no plugin/UDF system — its extension points are CLI
flags and a swappable DDL file (load.py:304-322). This engine's
extension surface is the idiomatic Ray Data shape instead:

- a **kernel registry**: named, vectorized per-batch functions
  (``pa.Table -> pa.Table``) registered with ``@kernel("name")`` — the
  unit a user adds when extending the engine;
- a **Step protocol**: anything callable ``Dataset -> Dataset``;
  ``MapStep`` lifts a registered kernel into a step (actor-pool
  configurable for stateful kernels), ``DatasetStep`` wraps the
  pipeline-level functions (token_count, quality_score, ...);
- a **Pipeline**: source → steps → optional sink, assemblable from a
  plain spec list (dicts — config/CLI/JSON-friendly) via
  ``Pipeline.from_spec``.

Everything stays lazy: a Pipeline run returns the composed Dataset
(streaming executor schedules it); only the optional sink consumes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

import ray.data

# --------------------------------------------------------------------------
# kernel registry: named pa.Table -> pa.Table batch functions

KERNELS: "dict[str, Callable]" = {}


def kernel(name: str) -> Callable:
    """Register a vectorized batch kernel under ``name``.

    The wrapped function must take a ``pa.Table`` first (extra keyword
    params allowed) and return a ``pa.Table``."""
    def deco(fn: Callable) -> Callable:
        if name in KERNELS:
            raise ValueError(f"kernel {name!r} already registered")
        KERNELS[name] = fn
        return fn
    return deco


def _register_builtins() -> None:
    """Built-in kernels — the engine's own stages exposed by name."""
    from .stages.encode import decode_images, derive_footprints

    KERNELS.setdefault("decode_images", decode_images)
    KERNELS.setdefault("derive_footprints", derive_footprints)

    import pyarrow as pa
    import pyarrow.compute as pc

    def select(t: pa.Table, columns: list) -> pa.Table:
        return t.select(list(columns))

    def drop_nulls(t: pa.Table, column: str) -> pa.Table:
        return t.filter(pc.is_valid(t[column]))

    def filter_expr(t: pa.Table, column: str, op: str, value: Any) -> pa.Table:
        f = {"==": pc.equal, "!=": pc.not_equal, "<": pc.less,
             "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal}[op]
        return t.filter(f(t[column], value))

    KERNELS.setdefault("select", select)
    KERNELS.setdefault("drop_nulls", drop_nulls)
    KERNELS.setdefault("filter", filter_expr)


_register_builtins()


# --------------------------------------------------------------------------
# step protocol + concrete steps


@runtime_checkable
class Step(Protocol):
    """Anything callable Dataset -> Dataset is a pipeline step."""

    def __call__(self, ds: ray.data.Dataset) -> ray.data.Dataset: ...


@dataclass
class MapStep:
    """Lift a registered kernel into a map_batches step.

    ``concurrency``/``batch_size``/``num_cpus`` pass through to
    map_batches. A kernel class runs on an actor pool (params go to
    ``__init__``) only when ``concurrency`` is set; otherwise its
    instance ``cls(**params)`` runs as a plain task map, which holds no
    CPU once the dataset is consumed."""

    kernel: str
    params: dict = field(default_factory=dict)
    batch_size: "int | None" = None
    concurrency: "int | tuple | None" = None
    num_cpus: "float | None" = None

    def __call__(self, ds: ray.data.Dataset) -> ray.data.Dataset:
        fn = KERNELS[self.kernel]
        kw: dict = {"batch_format": "pyarrow", "zero_copy_batch": True}
        if isinstance(fn, type) and self.concurrency is not None:
            bound = fn
            if self.params:
                kw["fn_constructor_kwargs"] = self.params
        elif isinstance(fn, type):
            bound = fn(**self.params)
        else:
            bound = functools.partial(fn, **self.params) if self.params else fn
        if self.concurrency is not None:
            kw["concurrency"] = self.concurrency
        if self.batch_size is not None:
            kw["batch_size"] = self.batch_size
        if self.num_cpus is not None:
            kw["num_cpus"] = self.num_cpus
        return ds.map_batches(bound, **kw)


@dataclass
class DatasetStep:
    """Wrap a Dataset-level function (token_count, quality_score, ...)."""

    fn: Callable
    params: dict = field(default_factory=dict)

    def __call__(self, ds: ray.data.Dataset) -> ray.data.Dataset:
        return self.fn(ds, **self.params)


# Dataset-level functions assemblable by name from a spec
DATASET_FNS: "dict[str, Callable]" = {}


def _register_dataset_fns() -> None:
    from .pipelines import text
    from .stages.multimodal import AudioFeatures, FrameSampler

    DATASET_FNS.setdefault("token_count", text.token_count)
    DATASET_FNS.setdefault("quality_score", text.quality_score)
    DATASET_FNS.setdefault("bpe_token_count", text.bpe_token_count)
    DATASET_FNS.setdefault("simhash", text.simhash)
    DATASET_FNS.setdefault("fingerprint", text.fingerprint)
    DATASET_FNS.setdefault("normalize_text", text.normalize_text)
    DATASET_FNS.setdefault("edit1_pairs", text.edit1_pairs)

    from . import relational as rel

    DATASET_FNS.setdefault("hash_split", rel.hash_split)
    DATASET_FNS.setdefault("lag_delta", rel.lag_delta)
    DATASET_FNS.setdefault("grouped_concat", rel.grouped_concat)
    DATASET_FNS.setdefault("grouped_mode", rel.grouped_mode)
    DATASET_FNS.setdefault("grouped_nunique", rel.grouped_nunique)
    DATASET_FNS.setdefault("grouped_approx_distinct", rel.grouped_approx_distinct)
    DATASET_FNS.setdefault("unnest", rel.unnest)
    DATASET_FNS.setdefault("histogram_int", rel.histogram_int)
    DATASET_FNS.setdefault("pivot_sum", rel.pivot_sum)
    DATASET_FNS.setdefault("rollup_counts", rel.rollup_counts)
    DATASET_FNS.setdefault("grouped_moments", rel.grouped_moments)
    DATASET_FNS.setdefault("grouped_percentiles", rel.grouped_percentiles)
    DATASET_FNS.setdefault("window_rank", rel.window_rank)
    DATASET_FNS.setdefault("running_sum", rel.running_sum)
    DATASET_FNS.setdefault("set_op", rel.set_op)
    DATASET_FNS.setdefault("grouped_arg_extreme", rel.grouped_arg_extreme)
    DATASET_FNS.setdefault("grouped_zscore", rel.grouped_zscore)

    DATASET_FNS.setdefault("skyline", rel.skyline)
    DATASET_FNS.setdefault("funnel_counts", rel.funnel_counts)
    DATASET_FNS.setdefault("cohort_retention", rel.cohort_retention)
    DATASET_FNS.setdefault("cube_counts", rel.cube_counts)
    DATASET_FNS.setdefault("grouped_percentiles_cont",
                           rel.grouped_percentiles_cont)
    DATASET_FNS.setdefault("grouped_vector_sums", rel.grouped_vector_sums)
    DATASET_FNS.setdefault("tfidf_topk", text.tfidf_topk)
    DATASET_FNS.setdefault("bigram_topk", text.bigram_topk)

    from .pipelines.graph import (canonical_reps, connected_components,
                                  pagerank_int)

    DATASET_FNS.setdefault("connected_components", connected_components)
    DATASET_FNS.setdefault("canonical_reps", canonical_reps)
    DATASET_FNS.setdefault("pagerank_int", pagerank_int)

    from .pipelines.graph import triangle_counts

    DATASET_FNS.setdefault("triangle_counts", triangle_counts)

    from .pipelines.image_embed import equalize_stats

    DATASET_FNS.setdefault("grouped_mad", rel.grouped_mad)
    DATASET_FNS.setdefault("sorted_slice", rel.sorted_slice)
    DATASET_FNS.setdefault("time_to_convert", rel.time_to_convert)
    DATASET_FNS.setdefault("max_drawdown", rel.max_drawdown)
    DATASET_FNS.setdefault("equalize_stats", equalize_stats)

    from .pipelines.curate import curate_corpus

    DATASET_FNS.setdefault("curate_corpus", curate_corpus)
    # stateful actor-pool kernels (classes) register as kernels
    from .pipelines.image_embed import (Augmenter, Resizer, TileEmbedder,
                                        patch_grid_stats)

    DATASET_FNS.setdefault("patch_grid_stats", patch_grid_stats)

    from .pipelines.image_embed import morph_stats, sobel_stats

    DATASET_FNS.setdefault("morph_stats", morph_stats)
    DATASET_FNS.setdefault("sobel_stats", sobel_stats)

    from .pipelines.image_embed import otsu_threshold

    DATASET_FNS.setdefault("otsu_threshold", otsu_threshold)
    DATASET_FNS.setdefault("event_transitions", rel.event_transitions)

    from .pipelines.query import nn_join_centers, zone_extent

    DATASET_FNS.setdefault("nn_join_centers", nn_join_centers)
    DATASET_FNS.setdefault("zone_extent", zone_extent)

    from .pipelines.image_embed import dominant_levels
    from .pipelines.query import grid_heatmap

    DATASET_FNS.setdefault("grid_heatmap", grid_heatmap)
    DATASET_FNS.setdefault("peak_concurrency", rel.peak_concurrency)
    DATASET_FNS.setdefault("dominant_levels", dominant_levels)
    DATASET_FNS.setdefault("windowed_sum", rel.windowed_sum)
    DATASET_FNS.setdefault("window_ntile", rel.window_ntile)
    DATASET_FNS.setdefault("max_streak", rel.max_streak)
    DATASET_FNS.setdefault("extract_json_int", rel.extract_json_int)
    DATASET_FNS.setdefault("unpivot", rel.unpivot)
    from .pipelines.kmeans import kmeans_micro

    DATASET_FNS.setdefault("kmeans_micro", kmeans_micro)
    DATASET_FNS.setdefault("densify_days", rel.densify_days)
    DATASET_FNS.setdefault("grouped_weighted_sum", rel.grouped_weighted_sum)
    DATASET_FNS.setdefault("above_group_avg", rel.above_group_avg)

    KERNELS.setdefault("langid", text.LangId)
    KERNELS.setdefault("trigram_langid", text.TrigramLangId)
    KERNELS.setdefault("audio_features", AudioFeatures)
    KERNELS.setdefault("frame_sampler", FrameSampler)
    KERNELS.setdefault("augment", Augmenter)
    KERNELS.setdefault("resize", Resizer)
    KERNELS.setdefault("tile_embed", TileEmbedder)


_register_dataset_fns()


# --------------------------------------------------------------------------
# pipeline


@dataclass
class Pipeline:
    """source → steps → (optional) parquet sink; lazy until consumed."""

    source: "Callable[[], ray.data.Dataset] | ray.data.Dataset"
    steps: "list[Step]" = field(default_factory=list)
    sink_path: "str | None" = None
    sink_partition_cols: "list[str] | None" = None

    def dataset(self) -> ray.data.Dataset:
        ds = self.source() if callable(self.source) else self.source
        for step in self.steps:
            ds = step(ds)
        return ds

    def run(self) -> "ray.data.Dataset | str":
        ds = self.dataset()
        if self.sink_path is None:
            return ds
        kw = {}
        if self.sink_partition_cols:
            kw["partition_cols"] = self.sink_partition_cols
        ds.write_parquet(self.sink_path, **kw)
        return self.sink_path

    @staticmethod
    def from_spec(spec: dict) -> "Pipeline":
        """Assemble from a plain-dict spec (JSON/config-friendly):

        ``{"source": {"parquet": path, "columns": [...]},
           "steps": [{"kernel": name, "params": {...}, "batch_size": ...}
                     | {"fn": name, "params": {...}}],
           "sink": {"path": ..., "partition_cols": [...]}}``
        """
        src = spec["source"]
        if "parquet" in src:
            path, cols = src["parquet"], src.get("columns")

            def source():
                return ray.data.read_parquet(path, columns=cols)
        elif "tiles" in src:
            # container-agnostic tile table (Lance or Parquet;
            # sources/tiles.py)
            path, cols = src["tiles"], src.get("columns")

            def source():
                from .sources.tiles import read_tiles

                return read_tiles(path, columns=cols)
        else:
            raise ValueError(f"unknown source spec {src!r}")
        steps: list[Step] = []
        for s in spec.get("steps", []):
            if "kernel" in s:
                if s["kernel"] not in KERNELS:
                    raise ValueError(f"unknown kernel {s['kernel']!r} "
                                     f"(registered: {sorted(KERNELS)})")
                steps.append(MapStep(s["kernel"], s.get("params", {}),
                                     s.get("batch_size"), s.get("concurrency"),
                                     s.get("num_cpus")))
            elif "fn" in s:
                if s["fn"] not in DATASET_FNS:
                    raise ValueError(f"unknown dataset fn {s['fn']!r} "
                                     f"(registered: {sorted(DATASET_FNS)})")
                steps.append(DatasetStep(DATASET_FNS[s["fn"]], s.get("params", {})))
            else:
                raise ValueError(f"step spec needs 'kernel' or 'fn': {s!r}")
        sink = spec.get("sink") or {}
        return Pipeline(source, steps, sink.get("path"),
                        sink.get("partition_cols"))
