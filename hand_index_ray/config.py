"""Engine configuration (the analog of the reference's CLI knobs:
--h3-resolution load.py:314, --batch-size load.py:317-322,
--threshold query_geojson.py:269-275, --calb load.py:315)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    # cell index resolutions (north rule: H3 res 5–9 + S2 per footprint)
    hex_res_min: int = 5
    hex_res_max: int = 9
    s2_level: int = 16          # fine S2 key per row
    part_level: int = 4         # S2 level of the output partition key
    # physical-layout guard: a fragment coarsens its write partitioning
    # (cell parent levels) until it emits at most this many files, so
    # small fragments never explode into thousands of tiny parquet files
    # (manifest bbox stats keep pruning exact at any level; S2 range
    # nesting keeps cell lookups correct — see Manifest.files_for_cells)
    max_files_per_fragment: int = 16
    # fixed S2 covering level for zonal-join keys; finer cells (L8 ≈
    # 0.18°) shrink the per-cell candidate cross product ~5x vs L6 for
    # small-tile footprints while keeping the catchment-side covering
    # a few dozen cells per polygon
    zonal_join_level: int = 8
    zonal_buckets: int = 128    # hash buckets for the co-group shuffle
    # catchment catalogs at or below this on-disk size broadcast their
    # geometry blobs once via ray.put instead of replicating WKB through
    # the cell shuffle (one copy per covering cell × salt otherwise)
    zonal_broadcast_bytes: int = 256 * 1024 * 1024
    # reference-parity knobs
    catchment_h3_res: int = 1   # reference default (load.py:314)
    simplify_tol_m: float = 100.0  # ST_Simplify tolerance (load.py:155-156)
    overlap_threshold_pct: float = 10.0  # query default (query_geojson.py:269-275)
    # footprint geo-referencing formula for the images table:
    # "synth"  — the seeded splitmix64 formula (sources/synth.footprint_of)
    # "tpch"   — the orders-key formula (sources/synth.footprint_of_tpch),
    #            recomputable by a plain-SQL oracle over the driver's views
    footprint_formula: str = "synth"
    # execution
    decode_batch_size: int = 256       # wide binary rows → small batches
    # skew handling: salt cells whose row count exceeds this multiple of
    # the mean (pre-pass counts, SURVEY.md §4 "skew")
    salt_hot_factor: float = 8.0
    salt_buckets: int = 8
    hand_version: str = "fimtest1"
    # versioned-schema registry key (state/schemas.py — the reference's
    # --schema-path DDL indirection, load.py:307-311)
    schema_version: str = "fim100"


DEFAULT = EngineConfig()
