"""Lineage manifest: per-fragment / per-partition checkpoint records.

The reference's only resume mechanism is ``--skip-load`` on a whole
DuckDB file (load.py:316,350-363) and it *loses data silently* on
per-batch errors (load.py:175-180). Here every completed input
fragment writes one atomic JSON record (tmp + rename) into
``<out>/_manifest/`` carrying its lineage: which output partition
(cell) files it produced, per-partition row counts, byte sizes and
footprint bbox stats, and the distinct fine ``part_cell`` values each
file holds.

The manifest doubles as the partition-stats index: query-time pruning
(bbox scans, ROI queries, kNN radius search) selects candidate files
from these stats *exactly-conservatively* — the stats are derived from
the actual data, so pruning can never drop a true match (SURVEY.md §4
"checkpoint / resume" + §2.4 J5).

Resume contract: a fragment id present in the manifest is complete and
is skipped; output files without a manifest record are from a killed
run and are safely overwritten (ids and content are deterministic, so
the rewrite is byte-identical — FIXTURES.md F6 invariant 5).

Compaction plans from these records alone: the fine cells a partition
file holds are recorded when it is written, so ``compact_index`` reads
data files only to merge them. Records written before ``fine_cells``
existed load with it unset, and only their files are scanned for
``part_cell``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .fsio import FS


@dataclass
class PartitionStat:
    cell: int            # partition key (uint64 cell id as int)
    path: str            # output file, relative to the index root
    row_count: int
    bytes: int
    minx: float
    miny: float
    maxx: float
    maxy: float
    # distinct `part_cell` values (cells at the configured part_level)
    # among the file's rows: a build file at a coarsened `cell` holds
    # several, a compacted file exactly its own. None on records written
    # before the field existed.
    fine_cells: list[int] | None = None


@dataclass
class FragmentRecord:
    fragment_id: int
    input_path: str
    row_count: int
    status: str = "done"
    partitions: list[PartitionStat] = field(default_factory=list)


class Manifest:
    """Directory of one-JSON-file-per-fragment records, plus an
    optional compaction record.

    Compaction (``pipelines/build.py:compact_index``) merges the many
    per-(fragment, cell) files into one file per cell — the LSM-style
    answer to small-file buildup. The per-fragment records are KEPT
    (they are the resume/lineage source of truth: a fragment id in the
    manifest means its input is fully encoded); the compaction record
    lists the merged files and which fragment ids they cover, and the
    file-listing methods below substitute compacted files for covered
    fragments' partitions."""

    COMPACTION = "compaction.json"

    def __init__(self, index_dir: str, filesystem=None):
        self.io = FS(filesystem)
        self.dir = self.io.join(index_dir, "_manifest")
        self.io.mkdirs(self.dir)

    @staticmethod
    def record_path(manifest_dir: str, fragment_id: int) -> str:
        return FS.join(manifest_dir, f"frag-{fragment_id:06d}.json")

    @staticmethod
    def write_record(manifest_dir: str, rec: FragmentRecord,
                     filesystem=None) -> None:
        """Atomic: write tmp in the same dir, fsync, rename (FS adapter
        handles the remote-store equivalent)."""
        io = FS(filesystem)
        io.mkdirs(manifest_dir)
        io.write_json_atomic(Manifest.record_path(manifest_dir,
                                                  rec.fragment_id),
                             asdict(rec))

    def completed_fragments(self) -> set[int]:
        out = set()
        for name in self.io.listdir(self.dir):
            if name.startswith("frag-") and name.endswith(".json"):
                out.add(int(name[5:-5]))
        return out

    def records(self) -> list[FragmentRecord]:
        recs = []
        for name in self.io.listdir(self.dir):
            if not (name.startswith("frag-") and name.endswith(".json")):
                continue
            d = self.io.read_json(self.io.join(self.dir, name))
            recs.append(FragmentRecord(
                fragment_id=d["fragment_id"], input_path=d["input_path"],
                row_count=d["row_count"], status=d.get("status", "done"),
                partitions=[PartitionStat(**p) for p in d["partitions"]],
            ))
        return recs

    def reset(self) -> None:
        """Forget every fragment and compaction record, so a build that
        does not resume starts from an empty index. The compaction record
        goes first: a kill part-way leaves a smaller but consistent
        index. Data files the records named become garbage for
        ``gc_index``."""
        path = self.io.join(self.dir, self.COMPACTION)
        if self.io.exists(path):
            self.io.remove(path)
        for name in self.io.listdir(self.dir):
            if name.startswith("frag-") and name.endswith(".json"):
                self.io.remove(self.io.join(self.dir, name))

    # ---- compaction ---------------------------------------------------------

    def write_compaction(self, partitions: list[PartitionStat],
                         covered_fragments: set[int],
                         generation: int = 1) -> None:
        """Atomic: record the merged per-cell files + covered fragments
        + the generation whose suffixed file names this record owns."""
        payload = {
            "covered_fragments": sorted(covered_fragments),
            "partitions": [asdict(p) for p in partitions],
            "generation": generation,
        }
        self.io.write_json_atomic(self.io.join(self.dir, self.COMPACTION),
                                  payload)

    def compaction(self) -> tuple[list[PartitionStat], set[int]]:
        parts, covered, _gen = self.compaction_full()
        return parts, covered

    def compaction_full(self) -> tuple[list[PartitionStat], set[int], int]:
        path = self.io.join(self.dir, self.COMPACTION)
        if not self.io.exists(path):
            return [], set(), 0
        d = self.io.read_json(path)
        return ([PartitionStat(**p) for p in d["partitions"]],
                set(d["covered_fragments"]),
                int(d.get("generation", 1)))

    def _live_partitions(self) -> list[PartitionStat]:
        """Compacted files + partitions of fragments not yet compacted."""
        compacted, covered = self.compaction()
        out = list(compacted)
        for rec in self.records():
            if rec.fragment_id in covered:
                continue
            out.extend(rec.partitions)
        return out

    def _stats_arrays(self):
        """Columnar view of live partition stats, cached per Manifest
        instance — pruning over 10⁵+ partitions becomes four numpy
        comparisons instead of a Python loop. (Instances are cheap and
        short-lived; create a fresh Manifest to observe new records.)"""
        import numpy as np

        if getattr(self, "_stats_cache", None) is None:
            parts = [p for p in self._live_partitions() if p.row_count > 0]
            self._stats_cache = (
                parts,
                np.array([p.minx for p in parts]),
                np.array([p.miny for p in parts]),
                np.array([p.maxx for p in parts]),
                np.array([p.maxy for p in parts]),
                np.array([p.cell for p in parts], dtype=np.uint64),
            )
        return self._stats_cache

    # ---- query-side pruning -------------------------------------------------

    def files_for_bbox(self, index_dir: str, minx: float, miny: float,
                       maxx: float, maxy: float) -> list[str]:
        """Files whose partition bbox stats overlap the query bbox —
        exact-conservative pruning (never misses a candidate)."""
        import numpy as np

        parts, pminx, pminy, pmaxx, pmaxy, _cells = self._stats_arrays()
        if not parts:
            return []
        hit = (pminx <= maxx) & (minx <= pmaxx) & (pminy <= maxy) & (miny <= pmaxy)
        return sorted({FS.join(index_dir, parts[i].path)
                       for i in np.nonzero(hit)[0]})

    def files_for_cells(self, index_dir: str, cells: set[int]) -> list[str]:
        """Files whose partition cell RANGE intersects any query cell's
        range. S2 id ranges nest (prefix property), so this is correct
        for any mix of levels — a fragment that coarsened its physical
        partitioning (build.py adaptive layout) still matches queries
        issued at the configured partition level."""
        import numpy as np

        from ..kernels import s2 as s2k

        if not cells:
            return []
        qlo, qhi = s2k.cell_range(np.array(sorted(cells), dtype=np.uint64))
        parts, _x0, _y0, _x1, _y1, pcells = self._stats_arrays()
        if not parts:
            return []
        plo, phi = s2k.cell_range(pcells)
        # (P, Q) range-intersection matrix, any() over queries
        hit = ((qlo[None, :] <= phi[:, None]) & (plo[:, None] <= qhi[None, :])).any(axis=1)
        return sorted({FS.join(index_dir, parts[i].path)
                       for i in np.nonzero(hit)[0]})

    def all_files(self, index_dir: str) -> list[str]:
        return sorted({FS.join(index_dir, p.path)
                       for p in self._live_partitions()})

    def total_rows(self) -> int:
        return sum(rec.row_count for rec in self.records())
