"""Build-side stages: image decode, footprint derivation, cell encode.

These are the engine's analog of the reference's per-branch insert
pipeline (load.py:146-173: read → union → centroid → h3 cell → row),
re-expressed as vectorized Arrow batch transforms. All three are plain
functions run as Ray tasks. The icosahedron face / Hilbert lookup
tables that ``encode_cells`` relies on are module-level, so each worker
process builds them once, on its first batch (SURVEY.md §2.3 ST1);
``CellEncoder`` builds them up front for in-process callers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT, EngineConfig
from ..kernels import h3exact
from ..kernels import image as imk
from ..kernels import s2
from ..sources import synth


def decode_images(batch: pa.Table) -> pa.Table:
    """Decode pixel payloads; emit per-row image features.

    Zero-copy reads of the ``bytes`` column (Arrow buffer → numpy view
    inside each codec); the heavy binary column is DROPPED from the
    output so downstream stages and shuffles move only slim metadata —
    the reference analogously never carries raster bytes through its
    pipeline, only paths (schema/…sql:18-26).

    Per-row invariant hooks (BASELINE.json input_hint): ``phash_decoded``
    recomputed from decoded pixels (allclose/PSNR checks compare it to
    the stored ``phash``), caption passed through untouched.
    """
    n = batch.num_rows
    bts = batch.column("bytes")
    if "fmt" in batch.column_names:
        fmts = batch.column("fmt").to_pylist()
        # untrusted/absent fmt entries fall back to magic-byte sniffing
        # (real-world corpora carry baseline JPEG/PNG without typing)
        fmts = [f if f else imk.sniff_format(bts[i].as_buffer())
                for i, f in enumerate(fmts)]
    else:
        fmts = [imk.sniff_format(bts[i].as_buffer()) for i in range(n)]
    ws = batch.column("w").to_numpy()
    hs0 = batch.column("h").to_numpy()
    # no magic matched: a payload of exactly w*h*3 bytes is headerless
    # raw; anything else is quarantined per row (decode_ok=False below)
    # rather than killing the whole task on one corrupt blob
    fmts = [f if f is not None
            else ("raw" if len(bts[i].as_buffer()) == int(ws[i]) * int(hs0[i]) * 3
                  else None)
            for i, f in enumerate(fmts)]
    hs = batch.column("h").to_numpy()
    phash_dec = np.zeros(n, dtype=np.int64)
    pix_mean = np.zeros(n, dtype=np.float64)
    ok = np.ones(n, dtype=bool)
    # decode per row (codec work) straight into preallocated per-(h,w)
    # group buffers, then run the feature kernels (phash + gray mean,
    # fused single pass) vectorized per group
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        if fmts[i] is None:
            ok[i] = False  # quarantined: unknown format, wrong size
            continue
        groups.setdefault((int(hs[i]), int(ws[i])), []).append(i)
    # all JPEG rows of the batch decode in ONE lockstep pass (the
    # entropy scans run as parallel lanes of a single vectorized
    # Huffman machine — kernels/jpeg.py decode_batch); failures → None
    jpg_rows = [i for i in range(n) if fmts[i] == "jpg"]
    jpg_dec: dict[int, np.ndarray | None] = {}
    if jpg_rows:
        outs = imk.decode_jpeg_batch(
            [bts[i].as_buffer() for i in jpg_rows], strict=False)
        jpg_dec = dict(zip(jpg_rows, outs))
    for (gh, gw), idxs in groups.items():
        stack = np.empty((len(idxs), gh, gw, 3), dtype=np.uint8)
        good = []
        for j, i in enumerate(idxs):
            if i in jpg_dec:
                d = jpg_dec[i]
                if d is None or d.shape != (gh, gw, 3):
                    ok[i] = False  # corrupt payload or lying metadata
                else:
                    stack[j] = d
                    good.append(j)
                continue
            buf = bts[i].as_buffer()  # zero-copy view into the Arrow block
            try:
                stack[j] = imk.decode(buf, fmts[i], w=gw, h=gh)
                good.append(j)
            except (ValueError, AssertionError, IndexError):
                ok[i] = False  # corrupt payload: quarantine the row
        if good:
            gi = np.array(good)
            ph, mn = imk.phash_and_graymean_batch(stack[gi])
            ii = np.array(idxs)[gi]
            phash_dec[ii] = ph.astype(np.int64)
            pix_mean[ii] = mn
    keep = [c for c in batch.column_names if c != "bytes"]
    out = batch.select(keep)
    out = out.append_column("phash_decoded", pa.array(phash_dec, pa.int64()))
    out = out.append_column("pixel_mean", pa.array(pix_mean, pa.float64()))
    # always present so every block shares one schema; False rows are
    # quarantined (zeroed features), never a dead task on one bad blob
    out = out.append_column("decode_ok", pa.array(ok))
    return out


def derive_footprints(batch: pa.Table, formula: str = "synth") -> pa.Table:
    """Attach the tile footprint (EPSG:4326 bbox + centroid) from the
    configured deterministic geo-referencing formula (FIXTURES.md F1;
    ``formula="tpch"`` selects the SQL-oracle-recomputable variant).

    Vectorized: image ids are parsed to row indices with Arrow string
    kernels, the footprint math is pure numpy.
    """
    ids = pc.utf8_slice_codeunits(batch.column("image_id"), 4, 99)
    idx = pc.cast(ids, pa.int64()).to_numpy()
    fp_fn = synth.footprint_of_tpch if formula == "tpch" else synth.footprint_of
    minx, miny, maxx, maxy, clon, clat = fp_fn(idx)
    cols = {
        "minx": minx, "miny": miny, "maxx": maxx, "maxy": maxy,
        "centroid_lon": clon, "centroid_lat": clat,
    }
    out = batch
    for name, arr in cols.items():
        out = out.append_column(name, pa.array(arr, pa.float64()))
    return out


def encode_cells(batch: pa.Table, cfg: EngineConfig = DEFAULT) -> pa.Table:
    """Multi-resolution spatial keys per footprint.

    The engine's ``h3_latlng_to_cell`` (reference load.py:164-168)
    generalized per the north rule: H3-style cells at res 5–9, the S2
    fine key, and the S2 parent at the partition level (the hive
    partition key, playing the role of the reference's single
    ``h3_index`` partition column, load.py:279-283). Pure vectorized
    numpy per batch.
    """
    lon = batch.column("centroid_lon").to_numpy()
    lat = batch.column("centroid_lat").to_numpy()
    out = batch
    # bit-exact Uber H3 ids (reference load.py:164-168 parity);
    # one shared spherical projection serves all resolutions
    cells = h3exact.latlng_to_cells_multi(
        lat, lon, range(cfg.hex_res_min, cfg.hex_res_max + 1))
    for res, arr in cells.items():
        out = out.append_column(f"h3_r{res}", pa.array(arr, pa.uint64()))
    s2c = s2.lonlat_to_cell(lon, lat, cfg.s2_level)
    out = out.append_column("s2_cell", pa.array(s2c, pa.uint64()))
    out = out.append_column("part_cell",
                            pa.array(s2.parent(s2c, cfg.part_level), pa.uint64()))
    return out


class CellEncoder:
    """``encode_cells`` for in-process callers (the fragment build, the
    benchmark ledger): ``__init__`` warms the module-level face/Hilbert
    tables, so their one-time cost lands before the first batch."""

    def __init__(self, cfg: EngineConfig = DEFAULT):
        self.cfg = cfg
        # touch the module-level tables so their lazy construction cost
        # (h3 base-cell derivation, Hilbert LUTs) lands here — once per
        # process, not per batch
        h3exact.latlng_to_cell(np.array([0.0]), np.array([0.0]),
                               cfg.hex_res_min)
        s2.lonlat_to_cell(np.array([0.0]), np.array([0.0]), cfg.s2_level)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return encode_cells(batch, self.cfg)
