"""Index build pipelines — the engine's flagship (reference load.py).

Two entry points:

``footprint_dataset(source)``
    The pure streaming pipeline: ``read_parquet`` → decode, footprint
    and cell encode as task maps (Ray Data fuses them into one task
    per block), returning a lazy Dataset of footprint rows. Used by
    ``entry()``, queries and benchmarks.

``build_index(images_dir, out_dir)``
    The resumable, materialized build (analog of
    ``partition_tables_to_parquet``, load.py:263-301). Resume unit =
    input fragment; each fragment is processed by one Ray Data task
    (deterministic output file per (fragment, cell), atomic manifest
    record last — see state/manifest.py). Partitioning assumption,
    stated: fragments are the parallelism grain (a 100 TB input has
    10³–10⁵ fragments, far above cluster core counts), and each
    fragment's rows are grouped to output cells in-memory (a fragment
    is sized to fit a worker's heap, like any Lance/parquet fragment).

Also here: ``build_catchments`` — the vector-side catalog (grouped
geometry union + simplify + centroid cell, reference load.py:146-173)
expressed as ``groupby(branch).map_groups``.
"""

from __future__ import annotations

import os
import uuid as uuidlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..config import DEFAULT, EngineConfig
from ..kernels import geom, proj, wkb
from ..stages.encode import CellEncoder, decode_images, derive_footprints, encode_cells
from ..state.fsio import FS
from ..state.manifest import FragmentRecord, Manifest, PartitionStat

FOOTPRINT_META_COLS = [
    "image_id", "w", "h", "fmt", "caption", "phash", "fragment_id", "row_idx",
]


def list_fragments(images_dir: str, filesystem=None) -> list[str]:
    """Fragment listing; pass a ``pyarrow.fs`` handle for non-local
    trees (ST4 filesystem passthrough — the reference's s3fs handle,
    load.py:94; local default stays a plain listdir)."""
    if filesystem is not None:
        from pyarrow import fs as pafs

        sel = pafs.FileSelector(images_dir, recursive=False)
        return sorted(fi.path for fi in filesystem.get_file_info(sel)
                      if fi.type == pafs.FileType.File and fi.path.endswith(".parquet"))
    return sorted(
        os.path.join(images_dir, f) for f in os.listdir(images_dir) if f.endswith(".parquet")
    )


def _cluster_cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 1))
    except Exception:
        return 1


def footprint_dataset(source: "str | list[str] | ray.data.Dataset",
                      cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """images table → footprint+cells Dataset (lazy, streaming)."""
    if isinstance(source, ray.data.Dataset):
        ds = source
    elif isinstance(source, str):
        from ..sources.tiles import is_lance_path, read_tiles

        # container seam: a Lance tile table streams through unchanged
        # (sources/tiles.py); Parquet trees glob to fragment files so
        # block boundaries align with build lineage
        ds = (read_tiles(source) if is_lance_path(source)
              else ray.data.read_parquet(list_fragments(source)))
    else:
        ds = ray.data.read_parquet(source)
    import functools

    foot_fn = functools.partial(derive_footprints, formula=cfg.footprint_formula)
    return (
        ds.map_batches(decode_images, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=cfg.decode_batch_size)
        .map_batches(foot_fn, batch_format="pyarrow", zero_copy_batch=True)
        # a plain function, not a CellEncoder: its warm-up would build
        # the module tables in the calling process, which never encodes
        # (~2 s on a first call); a worker builds them on its first batch
        .map_batches(functools.partial(encode_cells, cfg=cfg),
                     batch_format="pyarrow", zero_copy_batch=True,
                     # batch_size=None → batches follow upstream blocks;
                     # a fixed large batch size here would make the FUSED
                     # decode+encode operator coalesce the whole input
                     # into a handful of giant batches (observed: 8 tasks
                     # on 32 CPUs), serializing the decode work
                     batch_size=None)
    )


def _process_fragment_table(tbl: pa.Table, fragment_id: int, cfg: EngineConfig) -> pa.Table:
    """Run the decode→footprint→cells stages over one fragment table."""
    enc = CellEncoder(cfg)
    outs = []
    bs = cfg.decode_batch_size
    for start in range(0, tbl.num_rows, bs):
        chunk = tbl.slice(start, bs)
        chunk = decode_images(chunk)
        chunk = derive_footprints(chunk, cfg.footprint_formula)
        outs.append(enc(chunk))
    return pa.concat_tables(outs) if outs else None


class FragmentBuilder:
    """Per-fragment build callable (used as stateless map_batches tasks —
    the instance is tiny and pickles with the task, so there is no
    actor-pool startup cost and parallelism is fully elastic).

    For each input fragment: transform → group by partition cell →
    write one deterministic file per (fragment, cell) via tmp+rename →
    write the atomic manifest record LAST (completion marker).
    """

    def __init__(self, out_dir: str, cfg: EngineConfig = DEFAULT, filesystem=None,
                 out_filesystem=None):
        self.out_dir = out_dir
        self.cfg = cfg
        self.manifest_dir = FS.join(out_dir, "_manifest")
        # pyarrow.fs handles (ST4): ``filesystem`` reads the input
        # tree, ``out_filesystem`` owns the index root (both pickle
        # with the task, reconstructed per worker)
        self.filesystem = filesystem
        self.out_filesystem = out_filesystem

    def __call__(self, batch: pa.Table) -> pa.Table:
        # one Arrow thread per task: Ray already runs num_cpus tasks in
        # parallel, and pyarrow's default per-process pool (one thread
        # per core, PER worker process) oversubscribes the machine
        # num_workers-fold — reads were 4× slower at 32 CPUs before this
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
        stats_rows = []
        for row in batch.to_pylist():
            path, fid = row["path"], int(row["fragment_id"])
            tbl = pq.read_table(path, use_threads=False, filesystem=self.filesystem)
            out = _process_fragment_table(tbl, fid, self.cfg)
            parts: list[PartitionStat] = []
            nrows = 0
            if out is not None and out.num_rows:
                nrows = out.num_rows
                fine = cells = out.column("part_cell").to_numpy().astype(np.uint64)
                # adaptive physical partitioning: coarsen the write key
                # until this fragment emits ≤ max_files_per_fragment files
                # (row `part_cell` column keeps the configured level; only
                # the file layout coarsens — pruning stays exact via the
                # manifest bbox stats and S2 range nesting)
                from ..kernels import s2 as s2k

                level = self.cfg.part_level
                while level > 0 and len(np.unique(cells)) > self.cfg.max_files_per_fragment:
                    level -= 1
                    cells = s2k.parent(cells, level)
                order = np.argsort(cells, kind="stable")
                sorted_cells = cells[order]
                sorted_fine = fine[order]
                bounds = np.flatnonzero(np.diff(sorted_cells)) + 1
                starts = np.concatenate([[0], bounds])
                ends = np.concatenate([bounds, [len(cells)]])
                taken = out.take(pa.array(order))
                io = FS(self.out_filesystem)
                for s, e in zip(starts, ends):
                    cell = int(sorted_cells[s])
                    sub = taken.slice(int(s), int(e - s))
                    rel = FS.join(f"cell={cell}", f"frag-{fid:06d}.parquet")
                    dest = FS.join(self.out_dir, rel)
                    io.write_parquet_atomic(dest, sub)
                    parts.append(PartitionStat(
                        cell=cell, path=rel, row_count=sub.num_rows,
                        bytes=io.size(dest),
                        minx=float(pc.min(sub.column("minx")).as_py()),
                        miny=float(pc.min(sub.column("miny")).as_py()),
                        maxx=float(pc.max(sub.column("maxx")).as_py()),
                        maxy=float(pc.max(sub.column("maxy")).as_py()),
                        fine_cells=np.unique(sorted_fine[s:e]).tolist(),
                    ))
            Manifest.write_record(self.manifest_dir, FragmentRecord(
                fragment_id=fid, input_path=path, row_count=nrows,
                partitions=parts), filesystem=self.out_filesystem)
            stats_rows.append({"fragment_id": fid, "rows": nrows, "cells": len(parts)})
        return pa.Table.from_pylist(stats_rows) if stats_rows else pa.table(
            {"fragment_id": pa.array([], pa.int64()),
             "rows": pa.array([], pa.int64()),
             "cells": pa.array([], pa.int64())})


def build_index(images_dir: str, out_dir: str, cfg: EngineConfig = DEFAULT,
                resume: bool = True,
                filesystem=None, out_filesystem=None) -> dict:
    """Resumable materialized footprint index build.

    Returns summary stats. Safe to re-run after a kill: completed
    fragments (manifest records present) are pruned from the input scan
    before any work is scheduled — the north rule's "resumes without
    re-encoding completed partitions". ``resume=False`` first drops the
    fragment and compaction records, so the index holds only this run's
    input.
    """
    FS(out_filesystem).mkdirs(out_dir)
    manifest = Manifest(out_dir, filesystem=out_filesystem)
    frags = list_fragments(images_dir, filesystem=filesystem)
    if not resume:
        # an old compaction record would keep serving (and, covering
        # every fragment id, stop compact_index from replacing) the
        # previous build's rows
        manifest.reset()
    done = manifest.completed_fragments()
    if done:
        # resume-lineage guard (ADVICE r1 build.py:208): fragment ids key
        # off the sorted listing position, so a record must point at the
        # same input path it was built from. A changed input set would
        # silently skip never-built inputs and misattribute lineage —
        # fail loudly instead.
        def _norm(p):
            # same directory addressed via a different spelling (relative
            # vs absolute, './' prefix) is still the same input — compare
            # canonical local paths; leave URI-style paths untouched
            return (p if p is None or "://" in p
                    else os.path.normpath(os.path.abspath(p)))

        for rec in manifest.records():
            current = frags[rec.fragment_id] if rec.fragment_id < len(frags) else None
            if _norm(current) != _norm(rec.input_path):
                raise ValueError(
                    "resume mismatch: manifest fragment "
                    f"{rec.fragment_id} was built from {rec.input_path!r} but the "
                    f"current listing has {current!r} at that position — the input "
                    "set changed since the last run; rebuild into a fresh out_dir "
                    "or pass resume=False")
    todo = [{"path": p, "fragment_id": i} for i, p in enumerate(frags) if i not in done]
    skipped = len(frags) - len(todo)
    if todo:
        # one block per fragment → one task per fragment: finest-grain
        # load balancing (a coarser packing quantizes the run into
        # straggler-bound waves), never capped by Ray's default
        # input-block packing
        ds = ray.data.from_items(todo, override_num_blocks=len(todo))
        # stateless tasks (no actor-pool startup cost; the tiny builder
        # instance pickles with each task)
        builder = FragmentBuilder(out_dir, cfg, filesystem=filesystem,
                                  out_filesystem=out_filesystem)
        stats = ds.map_batches(
            builder, batch_format="pyarrow", batch_size=1,
        )
        built = stats.to_pandas()
        rows_built = int(built["rows"].sum()) if len(built) else 0
    else:
        rows_built = 0
    return {
        "fragments_total": len(frags),
        "fragments_built": len(todo),
        "fragments_skipped_resume": skipped,
        "rows_built": rows_built,
        "rows_total": manifest.total_rows(),
    }


def _distinct_part_cells(paths: list[str], filesystem=None,
                         group: int = 16) -> "np.ndarray":
    """Distributed distinct of the `part_cell` column across index files.

    Scale shape (VERDICT r3 finding 1): each remote partial reads ONE
    group of files (column-pruned to `part_cell`) and returns the
    np.unique of its rows — O(#cells-per-group) values, never O(#rows).
    The driver then takes a unique-of-uniques: its peak memory is
    Σ per-partial distinct counts, bounded by #partials × #cells, not
    by the 10^12-row index. The previous implementation concatenated
    every row's part_cell on the driver (~8 TB at target scale).
    """
    import numpy as np

    if not paths:
        return np.array([], dtype=np.uint64)

    @ray.remote(num_cpus=0.5)
    def _partial_unique(group_paths: list[str]) -> "np.ndarray":
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
        io = FS(filesystem)
        uniqs = []
        for p in group_paths:
            t = io.read_parquet(p, columns=["part_cell"], use_threads=False)
            uniqs.append(np.unique(t.column("part_cell").to_numpy()))
        return np.unique(np.concatenate(uniqs))

    groups = [paths[i:i + group] for i in range(0, len(paths), group)]
    partials = ray.get([_partial_unique.remote(g) for g in groups])
    return np.unique(np.concatenate(partials))


def compact_index(index_dir: str, cfg: EngineConfig = DEFAULT,
                  filesystem=None) -> dict:
    """Merge per-(fragment, cell) files into one file per cell.

    The LSM-style compaction step: a build over F fragments leaves up
    to F × max_files_per_fragment small files; queries then pay a
    per-file open cost. Compaction rewrites them as one file per cell
    (rows sorted by s2_cell for locality), records the merged layout +
    covered fragment ids atomically in the manifest, and leaves the
    per-fragment lineage records untouched — resume still keys off
    fragment completeness (state/manifest.py docstring).

    The plan comes from the manifest alone: each build partition
    records the fine cells its file holds (``PartitionStat.fine_cells``)
    and each earlier compaction part is one fine cell, so no file is
    read before the merge. Only partitions recorded without
    ``fine_cells`` (legacy records) go through ``_distinct_part_cells``.
    Each file group is read once, sorted once by (part_cell, s2_cell)
    and sliced per fine cell; the groups are packed into at most two
    tasks per cluster CPU, largest recorded bytes first.

    Idempotent and kill-safe: merged files are written tmp+rename and
    the compaction record is written last; a killed compaction leaves
    the index serving from the original fragment files.
    """
    import heapq

    from ..kernels import s2 as s2k

    man = Manifest(index_dir, filesystem=filesystem)
    prev_parts, covered, prev_gen = man.compaction_full()
    gen = prev_gen + 1
    records = man.records()
    if prev_parts and {r.fragment_id for r in records} <= covered:
        # every fragment is already covered by the live compaction —
        # re-running would only rewrite identical files
        return {"cells": len(prev_parts), "files_merged": 0, "skipped": True}
    live: list[PartitionStat] = list(prev_parts)
    frag_ids: set[int] = set(covered)
    for rec in records:
        if rec.fragment_id not in covered:
            frag_ids.add(rec.fragment_id)
            live.extend(rec.partitions)
    if not live:
        return {"cells": 0, "files_merged": 0}

    # target layout = one file per FINE cell at cfg.part_level: the
    # per-fragment adaptive coarsening (small fragments write coarser
    # cells) is undone here using the fine cells each file holds,
    # restoring the configured pruning granularity index-wide
    fine = {p.cell for p in prev_parts}
    legacy = []
    for p in live[len(prev_parts):]:
        if p.fine_cells is None:
            legacy.append(FS.join(index_dir, p.path))
        else:
            fine.update(p.fine_cells)
    if legacy:
        fine.update(_distinct_part_cells(legacy, filesystem).tolist())
    fine_cells = np.array(sorted(fine), dtype=np.uint64)
    slo, shi = s2k.cell_range(np.array([p.cell for p in live], dtype=np.uint64))
    flo, fhi = s2k.cell_range(fine_cells)
    # group fine cells by their SOURCE-FILE SET: a group reads each of
    # its sources once and slices out every fine cell they hold
    groups: dict[tuple, list[int]] = {}
    for j, fc in enumerate(fine_cells.tolist()):
        hit = (slo <= fhi[j]) & (flo[j] <= shi)
        paths = tuple(sorted({live[i].path for i in np.nonzero(hit)[0]}))
        groups.setdefault(paths, []).append(fc)
    # a task launch costs more than merging a small group: pack the
    # groups into a few tasks, largest recorded bytes first, each onto
    # the lightest task so far
    nbytes = {p.path: p.bytes for p in live}
    sized = sorted(((sum(nbytes[p] for p in paths), paths, cells)
                    for paths, cells in groups.items()),
                   key=lambda g: -g[0])
    heap = [(0, t) for t in range(min(len(sized), 2 * _cluster_cpus()))]
    work = [{"cells": [], "paths": []} for _ in heap]
    for size, paths, cells in sized:
        load, t = heapq.heappop(heap)
        work[t]["cells"].append([str(c) for c in cells])
        work[t]["paths"].append(list(paths))
        heapq.heappush(heap, (load + size, t))

    def merge(batch: pa.Table) -> pa.Table:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
        io = FS(filesystem)
        out_rows = []
        for row in batch.to_pylist():
            # groups one at a time: peak memory stays one group
            for cells, paths in zip(row["cells"], row["paths"]):
                src = pa.concat_tables([
                    io.read_parquet(FS.join(index_dir, rel), use_threads=False)
                    for rel in paths])
                # Arrow's sort is stable, so each cell's slice equals a
                # per-cell filter followed by sort_by("s2_cell")
                src = src.sort_by([("part_cell", "ascending"),
                                   ("s2_cell", "ascending")])
                part = src.column("part_cell").to_numpy()
                keys = np.array([int(c) for c in cells], dtype=np.uint64)
                los = np.searchsorted(part, keys, "left")
                his = np.searchsorted(part, keys, "right")
                for cell, lo, hi in zip(keys.tolist(), los.tolist(), his.tolist()):
                    if lo == hi:
                        continue
                    tbl = src.slice(lo, hi - lo)
                    # generation-suffixed file name: a re-compaction NEVER
                    # overwrites files the live compaction record references
                    # — a kill mid-rewrite leaves the old generation intact
                    # and serving (ADVICE r1 build.py:296); gc_index collects
                    # superseded generations once the new record commits.
                    rel = FS.join(f"cell={cell}", f"compacted-g{gen}.parquet")
                    dest = FS.join(index_dir, rel)
                    io.write_parquet_atomic(dest, tbl)
                    out_rows.append({
                        "cell": cell, "path": rel, "row_count": tbl.num_rows,
                        "bytes": io.size(dest),
                        "minx": float(pc.min(tbl.column("minx")).as_py()),
                        "miny": float(pc.min(tbl.column("miny")).as_py()),
                        "maxx": float(pc.max(tbl.column("maxx")).as_py()),
                        "maxy": float(pc.max(tbl.column("maxy")).as_py()),
                    })
        schema = pa.schema([("cell", pa.uint64()), ("path", pa.string()),
                            ("row_count", pa.int64()), ("bytes", pa.int64()),
                            ("minx", pa.float64()), ("miny", pa.float64()),
                            ("maxx", pa.float64()), ("maxy", pa.float64())])
        return pa.Table.from_pylist(out_rows, schema=schema)

    ds = ray.data.from_items(work, override_num_blocks=len(work))
    merged = ds.map_batches(merge, batch_format="pyarrow", batch_size=1).to_pandas()
    parts = [PartitionStat(cell=int(r["cell"]), path=str(r["path"]),
                           row_count=int(r["row_count"]), bytes=int(r["bytes"]),
                           minx=float(r["minx"]), miny=float(r["miny"]),
                           maxx=float(r["maxx"]), maxy=float(r["maxy"]),
                           fine_cells=[int(r["cell"])])
             for r in merged.to_dict("records")]
    man.write_compaction(parts, frag_ids, generation=gen)
    # old fragment files stay on disk until a GC pass; queries already
    # route through the compaction record
    return {"cells": len(parts), "files_merged": len(nbytes)}


def gc_index(index_dir: str, filesystem=None) -> dict:
    """Delete data files superseded by a compaction (and stray tmp
    files from killed runs). Safe: only removes files that are neither
    live (per the manifest/compaction view) nor manifest records."""
    io = FS(filesystem)
    man = Manifest(index_dir, filesystem=filesystem)
    live = set(man.all_files(index_dir))
    removed = 0
    for full in io.walk_files(index_dir):
        if "_manifest" in full.split("/"):
            continue
        if full in live:
            continue
        if full.endswith(".parquet") or full.endswith(".tmp"):
            io.remove(full)
            removed += 1
    return {"files_removed": removed}


# ---------------------------------------------------------------------------
# vector side: catchments catalog build (reference load.py:131-196)


def build_catchments(raw: "ray.data.Dataset", cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Grouped geometry union per branch → simplify → centroid cell.

    Reference semantics (load.py:146-173): GROUP BY branch_path,
    ST_Union_Agg(geom) → ST_Simplify(…, 100 m) → uuid + centroid-H3 at
    res 1. Difference, by design: deterministic uuid5(branch_path)
    instead of random uuid() (load.py:161) so rebuilds are idempotent
    (SURVEY.md §4 idempotency). The union DISSOLVES shared boundaries
    (geom.dissolve_union): catchments of a branch tessellate it, so
    coincident interior edges cancel exactly — matching ST_Union_Agg on
    mesh inputs; disjoint parts pass through as a multipolygon (for
    which collection IS the union).

    Input: Dataset with (geometry: WKB binary, branch_path: string).
    The groupby is the build's one shuffle, keyed on branch_path
    (SURVEY.md §7.3).
    """

    def union_branch(group: pa.Table) -> pa.Table:
        branch = group.column("branch_path")[0].as_py()
        blobs = [v.as_py() for v in group.column("geometry") if v.is_valid]
        blobs = [b for b in blobs if b is not None]
        if not blobs:
            return pa.Table.from_pylist([])
        rag = wkb.decode(blobs)
        # dissolve shared boundaries across all parts (ST_Union_Agg,
        # load.py:153) — exact for tessellated branch meshes; disjoint
        # parts pass through unchanged
        merged = geom.dissolve_union(rag)
        if len(merged.coords) == 0:
            # all-degenerate branch (zero-area slivers cancel away):
            # fall back to collecting the raw parts so the row keeps a
            # geometry, like the reference's union of slivers
            parts = []
            for g in range(len(rag)):
                gg = rag.geom_slice(g)
                for p in range(len(gg.part_ring_off) - 1):
                    rings = [gg.coords[gg.ring_coord_off[ri]:gg.ring_coord_off[ri + 1]]
                             for ri in range(gg.part_ring_off[p], gg.part_ring_off[p + 1])]
                    parts.append(rings)
            merged = wkb.from_parts([parts])
        merged = geom.simplify(merged, cfg.simplify_tol_m)
        cx, cy = geom.centroid(merged)
        lon, lat = proj.albers_to_lonlat(cx, cy)
        # bit-exact Uber H3 partition key (reference load.py:164-168,
        # --h3-resolution default 1)
        from ..kernels import h3exact
        cell = h3exact.latlng_to_cell(lat, lon, cfg.catchment_h3_res)
        return pa.table({
            "catchment_id": pa.array([str(uuidlib.uuid5(uuidlib.NAMESPACE_URL, branch))]),
            "hand_version_id": pa.array([cfg.hand_version]),
            "geometry": pa.array(wkb.encode(merged), pa.binary()),
            "h3_index": pa.array(cell.astype(np.uint64), pa.uint64()),
            "branch_path": pa.array([branch]),
            "geom_count": pa.array([len(rag)], pa.int64()),
        })

    return raw.groupby("branch_path").map_groups(union_branch, batch_format="pyarrow")
