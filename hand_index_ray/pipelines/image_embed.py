"""Image-embedding pipeline: decode → embed → per-tile features.

Bridges the image side to the similarity-search operators: a
``map_batches`` stage that decodes tiles and emits an L2-normalized
embedding per row (the batched-model-inference shape), plus exact
duplicate tiles by decoded-pixel digest and per-tile augment, resize
and pixel-statistics stages.

Every stage here runs as plain Ray tasks. The callable classes
(``TileEmbedder``, ``Augmenter``, ``Resizer``) hold only their
constructor parameters, so each map passes an *instance* that pickles
with the task, as ``build.FragmentBuilder`` does. A stage that loads
real state once (model weights) would instead pass the class and a
pool size, and run as an actor pool.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..config import DEFAULT, EngineConfig
from ..kernels import image as imk


class TileEmbedder:
    """Task stage: bytes → embedding (list<float64>).

    The deterministic block-feature embedder needs no weights, so an
    instance is mapped as a plain task. A real model (ONNX/torch) would
    load in ``__init__`` and be mapped as a class on an actor pool, so
    it loads once per actor."""

    def __init__(self, grid: int = 4):
        self.grid = grid

    def __call__(self, t: pa.Table) -> pa.Table:
        bts = t.column("bytes")
        fmts = t.column("fmt").to_pylist()
        ws = t.column("w").to_numpy()
        hs = t.column("h").to_numpy()
        embs = []
        for i in range(t.num_rows):
            img = imk.decode(bts[i].as_buffer(), fmts[i], w=int(ws[i]), h=int(hs[i]))
            embs.append(imk.embed_tile(img, self.grid))
        return pa.table({
            "image_id": t.column("image_id"),
            "embedding": pa.array([e.tolist() for e in embs],
                                  pa.list_(pa.float64())),
        })


def embed_images(source: "str | ray.data.Dataset", grid: int = 4,
                 cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """images table → (image_id, embedding) Dataset."""
    from .build import list_fragments

    if isinstance(source, ray.data.Dataset):
        ds = source
    else:
        ds = ray.data.read_parquet(list_fragments(source))
    return ds.map_batches(TileEmbedder(grid), batch_format="pyarrow",
                          zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def exact_tile_dups(source: "str | ray.data.Dataset",
                    cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Exact duplicate tile pairs by decoded-pixel digest.

    Decode each tile once (stateless tasks), emit (image_id, md5 of the
    raw RGB array); the one shuffle moves only those slim rows, keyed
    on the digest; identical pixels ⇒ identical digest regardless of
    which lossless codec stored them. Returns
    Dataset[(id_a, id_b)] with id_a < id_b — all pairs per digest
    group. The image-payload analog of text exact_dedup (reference A4),
    and the driver-oracled q33 path (planted dups are SQL-derivable)."""
    import hashlib

    from .build import list_fragments

    if isinstance(source, ray.data.Dataset):
        ds = source
    else:
        ds = ray.data.read_parquet(list_fragments(source))

    def digest(t: pa.Table) -> pa.Table:
        bts = t.column("bytes")
        fmts = t.column("fmt").to_pylist()
        ws = t.column("w").to_numpy()
        hs = t.column("h").to_numpy()
        out = []
        for i in range(t.num_rows):
            px = imk.decode(bts[i].as_buffer(), fmts[i], w=int(ws[i]), h=int(hs[i]))
            out.append(hashlib.md5(px.tobytes()).hexdigest())
        return pa.table({"image_id": t.column("image_id"),
                         "pxd": pa.array(out, pa.string())})

    slim = ds.map_batches(digest, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)

    def pairs(g: "pd.DataFrame") -> "pd.DataFrame":
        ids = sorted(g["image_id"].tolist())
        if len(ids) < 2:
            return pd.DataFrame({"id_a": pd.Series([], dtype=object),
                                 "id_b": pd.Series([], dtype=object)})
        a, b = [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a.append(ids[i])
                b.append(ids[j])
        return pd.DataFrame({"id_a": a, "id_b": b})

    from ..relational import grouped_apply_bucketed

    return grouped_apply_bucketed(slim, ["pxd"], pairs, min_group_size=2)


class Augmenter:
    """Task stage: decode → center-crop → deterministic flip →
    re-encode (or stats). The augmentation policy is a pure function of
    the image key (``flip_mod``), never a per-task RNG — reruns,
    retries and resumed runs produce identical bytes (the same
    determinism rule as the id mint, reference load.py's reproducible
    build).

    ``emit="bytes"`` returns augmented images re-encoded with the raw
    codec (schema: image_id, bytes, w, h, fmt); ``emit="stats"`` skips
    the re-encode and emits exact integer pixel sums (aug_sum) and the
    x-weighted sum (aug_xw — flip-sensitive, so a wrong flip shows up
    in the oracle hash)."""

    def __init__(self, crop_frac: float = 0.5, flip_mod: int = 2,
                 emit: str = "bytes"):
        self.crop_frac = crop_frac
        self.flip_mod = flip_mod
        self.emit = emit

    def __call__(self, t: pa.Table) -> pa.Table:
        bts = t.column("bytes")
        fmts = t.column("fmt").to_pylist()
        ws = t.column("w").to_numpy()
        hs = t.column("h").to_numpy()
        ids = t.column("image_id").to_pylist()
        if "key" in t.schema.names:
            keys = t.column("key").to_numpy()
        else:
            # no key column: derive one from the image id — the flip
            # policy must stay a function of row IDENTITY, never of
            # batch position (repartitions would change the output)
            import zlib

            keys = np.array([zlib.crc32(s.encode()) for s in ids],
                            dtype=np.int64)
        out_b, out_w, out_h, s_sum, s_xw = [], [], [], [], []
        for i in range(t.num_rows):
            img = imk.decode(bts[i].as_buffer(), fmts[i],
                             w=int(ws[i]), h=int(hs[i]))
            ch = max(1, int(img.shape[0] * self.crop_frac))
            cw = max(1, int(img.shape[1] * self.crop_frac))
            k = int(keys[i])
            aug = imk.augment_crop_flip(img, ch, cw,
                                        flip=(k % self.flip_mod == 0))
            if self.emit == "bytes":
                out_b.append(imk.encode(np.ascontiguousarray(aug), "raw"))
                out_w.append(cw)
                out_h.append(ch)
            else:
                p = aug.astype(np.int64)
                s_sum.append(int(p.sum()))
                s_xw.append(int((p * (np.arange(cw, dtype=np.int64) + 1)
                                 [None, :, None]).sum()))
        if self.emit == "bytes":
            return pa.table({
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(out_b, pa.binary()),
                "w": pa.array(out_w, pa.int32()),
                "h": pa.array(out_h, pa.int32()),
                "fmt": pa.array(["raw"] * len(ids), pa.string()),
            })
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "aug_sum": pa.array(s_sum, pa.int64()),
            "aug_xw": pa.array(s_xw, pa.int64()),
        })


def augment_images(source: "str | ray.data.Dataset", crop_frac: float = 0.5,
                   flip_mod: int = 2, emit: str = "bytes",
                   cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """images table → augmented tiles (or exact per-tile stats)."""
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))
    return ds.map_batches(Augmenter(crop_frac, flip_mod, emit),
                          batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def channel_stats(source: "str | ray.data.Dataset",
                  cfg: EngineConfig = DEFAULT) -> pd.DataFrame:
    """Global per-channel pixel statistics (the normalization constants
    a training pipeline computes once over the corpus): exact integer
    sum / sum-of-squares / count per channel. Per-batch partials are
    3 rows each — the reduce is driver-side and O(channels), the same
    shuffle-free mergeable shape as approx_distinct."""
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))

    def partial(t: pa.Table) -> pa.Table:
        s = np.zeros(3, np.int64)
        ss = np.zeros(3, np.int64)
        n = np.zeros(3, np.int64)
        bts = t.column("bytes")
        fmts = t.column("fmt").to_pylist()
        ws = t.column("w").to_numpy()
        hs = t.column("h").to_numpy()
        for i in range(t.num_rows):
            img = imk.decode(bts[i].as_buffer(), fmts[i],
                             w=int(ws[i]), h=int(hs[i])).astype(np.int64)
            s += img.sum(axis=(0, 1))
            ss += (img * img).sum(axis=(0, 1))
            n += img.shape[0] * img.shape[1]
        return pa.table({"c": pa.array([0, 1, 2], pa.int64()),
                         "s": pa.array(s, pa.int64()),
                         "ss": pa.array(ss, pa.int64()),
                         "n": pa.array(n, pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True,
                           batch_size=cfg.decode_batch_size)
    df = parts.to_pandas()
    if not len(df):
        return pd.DataFrame({"c": pd.Series([], dtype="int64"),
                             "s": pd.Series([], dtype="int64"),
                             "ss": pd.Series([], dtype="int64"),
                             "n": pd.Series([], dtype="int64")})
    return df.groupby("c", as_index=False)[["s", "ss", "n"]].sum() \
             .sort_values("c").reset_index(drop=True)


class Resizer:
    """Task stage: decode → nearest-neighbor resize → re-encode
    (or exact stats). The NN gather (``kernels.image.resize_nearest``)
    is the dataloader-style thumbnail path; ``emit="stats"`` returns
    exact integer pixel sums plus the x-weighted sum so a wrong source
    index mapping is visible in the oracle hash (reference parity rule:
    decoded-pixel exactness, load.py's reproducible build)."""

    def __init__(self, out_h: int, out_w: int, emit: str = "bytes"):
        self.out_h = out_h
        self.out_w = out_w
        self.emit = emit

    def __call__(self, t: pa.Table) -> pa.Table:
        bts = t.column("bytes")
        fmts = t.column("fmt").to_pylist()
        ws = t.column("w").to_numpy()
        hs = t.column("h").to_numpy()
        ids = t.column("image_id").to_pylist()
        out_b, s_sum, s_xw = [], [], []
        for i in range(t.num_rows):
            img = imk.decode(bts[i].as_buffer(), fmts[i],
                             w=int(ws[i]), h=int(hs[i]))
            small = imk.resize_nearest(img, self.out_h, self.out_w)
            if self.emit == "bytes":
                out_b.append(imk.encode(np.ascontiguousarray(small), "raw"))
            else:
                p = small.astype(np.int64)
                s_sum.append(int(p.sum()))
                s_xw.append(int((p * (np.arange(self.out_w, dtype=np.int64) + 1)
                                 [None, :, None]).sum()))
        if self.emit == "bytes":
            n = len(ids)
            return pa.table({
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(out_b, pa.binary()),
                "w": pa.array([self.out_w] * n, pa.int32()),
                "h": pa.array([self.out_h] * n, pa.int32()),
                "fmt": pa.array(["raw"] * n, pa.string()),
            })
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "rs_sum": pa.array(s_sum, pa.int64()),
            "rs_xw": pa.array(s_xw, pa.int64()),
        })


def resize_images(source: "str | ray.data.Dataset", out_h: int, out_w: int,
                  emit: str = "bytes",
                  cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """images table → NN-resized thumbnails (or exact per-image stats)."""
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))
    return ds.map_batches(Resizer(out_h, out_w, emit),
                          batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def patch_grid_stats(source: "str | ray.data.Dataset", patch_h: int,
                     patch_w: int,
                     cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Explode each image into its (⌈h/ph⌉ × ⌈w/pw⌉) patch grid — one
    row per (image, py, px) with the exact int64 patch pixel sum
    (channels summed). The ViT-style patchification shape: the explode
    happens inside the batch (map-only, no shuffle), patch sums come
    from two reduceat passes per image, and downstream per-patch
    dedup/stats see slim rows, never pixels."""
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))

    def explode(t: pa.Table) -> pa.Table:
        bts = t.column("bytes")
        fmts = t.column("fmt").to_pylist()
        ws = t.column("w").to_numpy()
        hs = t.column("h").to_numpy()
        ids = t.column("image_id").to_pylist()
        out_id, out_py, out_px, out_s = [], [], [], []
        for i in range(t.num_rows):
            img = imk.decode(bts[i].as_buffer(), fmts[i],
                             w=int(ws[i]), h=int(hs[i]))
            sums = imk.patch_sums(img, patch_h, patch_w)
            gy, gx = sums.shape
            out_id.extend([ids[i]] * (gy * gx))
            yy, xx = np.meshgrid(np.arange(gy, dtype=np.int64),
                                 np.arange(gx, dtype=np.int64), indexing="ij")
            out_py.append(yy.ravel())
            out_px.append(xx.ravel())
            out_s.append(sums.ravel())
        if not out_id:
            return pa.table({"image_id": pa.array([], pa.string()),
                             "py": pa.array([], pa.int64()),
                             "px": pa.array([], pa.int64()),
                             "p_sum": pa.array([], pa.int64())})
        return pa.table({
            "image_id": pa.array(out_id, pa.string()),
            "py": pa.array(np.concatenate(out_py), pa.int64()),
            "px": pa.array(np.concatenate(out_px), pa.int64()),
            "p_sum": pa.array(np.concatenate(out_s), pa.int64()),
        })

    return ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def _decode_rows(t: pa.Table):
    """Yield (row_index, decoded uint8 HxWxC array) for an images batch."""
    bts = t.column("bytes")
    fmts = t.column("fmt").to_pylist()
    ws = t.column("w").to_numpy()
    hs = t.column("h").to_numpy()
    for i in range(t.num_rows):
        yield i, imk.decode(bts[i].as_buffer(), fmts[i],
                            w=int(ws[i]), h=int(hs[i]))


def sobel_stats(source: "str | ray.data.Dataset", channel: int = 0,
                cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Per-image Sobel gradient energy over the valid interior of one
    channel: g = |gx| + |gy| with the standard 3x3 kernels, summed and
    maxed per image in exact int64 (no float, no border padding — the
    oracle recomputes every response from the pixel formula).

    The convolution is pure shifted-slice arithmetic on the decoded
    array (map-only, one row out per image); at 100 TB the stage
    streams as decode tasks and never shuffles.
    """
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column("image_id").to_pylist()
        g_sum = np.zeros(t.num_rows, np.int64)
        g_max = np.zeros(t.num_rows, np.int64)
        for i, img in _decode_rows(t):
            p = img[:, :, channel].astype(np.int64)
            right = p[:-2, 2:] + 2 * p[1:-1, 2:] + p[2:, 2:]
            left = p[:-2, :-2] + 2 * p[1:-1, :-2] + p[2:, :-2]
            bot = p[2:, :-2] + 2 * p[2:, 1:-1] + p[2:, 2:]
            top = p[:-2, :-2] + 2 * p[:-2, 1:-1] + p[:-2, 2:]
            g = np.abs(right - left) + np.abs(bot - top)
            g_sum[i] = g.sum()
            g_max[i] = g.max() if g.size else 0
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "g_sum": pa.array(g_sum, pa.int64()),
                         "g_max": pa.array(g_max, pa.int64())})

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def box_blur_stats(source: "str | ray.data.Dataset", channel: int = 0,
                   cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Per-image 3x3 integer box blur (floor(window_sum / 9)) over the
    valid interior of one channel, reduced to an exact checksum pair
    (sum + x-weighted sum). The window sums come from ONE 2-D integral
    image per image (two cumsums + four gathers), not nine shifted
    adds — the O(1)-per-pixel box-filter shape that stays cheap at any
    kernel size."""
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column("image_id").to_pylist()
        b_sum = np.zeros(t.num_rows, np.int64)
        b_xw = np.zeros(t.num_rows, np.int64)
        for i, img in _decode_rows(t):
            p = img[:, :, channel].astype(np.int64)
            h, w = p.shape
            if h < 3 or w < 3:
                continue
            ii = np.zeros((h + 1, w + 1), np.int64)
            np.cumsum(np.cumsum(p, axis=0), axis=1, out=ii[1:, 1:])
            win = (ii[3:, 3:] - ii[:-3, 3:] - ii[3:, :-3] + ii[:-3, :-3])
            b = win // 9
            b_sum[i] = b.sum()
            # weight by the blurred pixel's x coordinate (1-based interior)
            xw = np.arange(1, w - 1, dtype=np.int64)[None, :]
            b_xw[i] = (b * xw).sum()
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "bb_sum": pa.array(b_sum, pa.int64()),
                         "bb_xw": pa.array(b_xw, pa.int64())})

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def luma_histogram(source: "str | ray.data.Dataset",
                   cfg: EngineConfig = DEFAULT) -> pd.DataFrame:
    """Corpus-wide 256-bin histogram of integer luma
    ((77R + 150G + 29B) >> 8, the BT.601 fixed-point weights): each
    batch emits one bincount partial (≤256 slim rows), the reduce is a
    tiny grouped sum — the same shuffle-free mergeable-partial shape as
    channel_stats, so the histogram costs one streaming pass at any
    corpus size."""
    from .build import list_fragments
    from .. import relational as rel

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))

    def partial(t: pa.Table) -> pa.Table:
        counts = np.zeros(256, np.int64)
        for _, img in _decode_rows(t):
            p = img.astype(np.int64)
            lum = (77 * p[:, :, 0] + 150 * p[:, :, 1] + 29 * p[:, :, 2]) >> 8
            counts += np.bincount(lum.ravel(), minlength=256)
        nz = np.nonzero(counts)[0]
        return pa.table({"lum": pa.array(nz.astype(np.int64), pa.int64()),
                         "n_px": pa.array(counts[nz], pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True,
                           batch_size=cfg.decode_batch_size)
    out = rel.grouped_agg(parts, ["lum"], sum_cols=["n_px"], count=False) \
        .to_pandas()
    return out.sort_values("lum").reset_index(drop=True)


def morph_stats(source: "str | ray.data.Dataset", channel: int = 0,
                cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Per-image 3x3 grayscale morphology over the valid interior of
    one channel: dilation (neighborhood max) and erosion (neighborhood
    min), reduced to exact int64 sums per image — the classic
    despeckle/boundary-extract primitives (morphological gradient =
    d_sum - e_sum).

    Same execution shape as sobel_stats: the min/max over the 9
    shifted slices is pure vectorized numpy on the decoded array,
    map-only, one row out per image; at 100 TB the stage streams as
    decode tasks and never shuffles."""
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column("image_id").to_pylist()
        d_sum = np.zeros(t.num_rows, np.int64)
        e_sum = np.zeros(t.num_rows, np.int64)
        for i, img in _decode_rows(t):
            p = img[:, :, channel].astype(np.int64)
            shifts = [p[dy:dy + p.shape[0] - 2, dx:dx + p.shape[1] - 2]
                      for dy in (0, 1, 2) for dx in (0, 1, 2)]
            st = np.stack(shifts)
            d_sum[i] = st.max(axis=0).sum()
            e_sum[i] = st.min(axis=0).sum()
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "d_sum": pa.array(d_sum, pa.int64()),
                         "e_sum": pa.array(e_sum, pa.int64())})

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def otsu_threshold(source: "str | ray.data.Dataset", channel: int = 0,
                   cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Per-image Otsu binarization threshold over one channel,
    restricted to observed gray levels (the between-class variance is
    constant between observed values, so evaluating only at them is
    lossless): t* = argmax over observed p of
    w1·(N−w1)·(μ1−μ2)² with w1/s1 the cumulative count/value sums at
    p — float64 expression written in the exact op order the SQL
    oracle uses, ties → smallest p.

    Map-only decode-pool stage; one (image_id, otsu_t) row per image.
    """
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column("image_id").to_pylist()
        th = np.zeros(t.num_rows, np.int64)
        for i, img in _decode_rows(t):
            p = img[:, :, channel].astype(np.int64).ravel()
            n_tot = np.int64(p.size)
            vals, cnts = np.unique(p, return_counts=True)
            w1 = np.cumsum(cnts)
            s1 = np.cumsum(vals * cnts)
            s_tot = s1[-1]
            m = w1 < n_tot  # class 2 must be non-empty
            w1f = w1[m].astype(np.float64)
            mu1 = s1[m].astype(np.float64) / w1f
            mu2 = (s_tot - s1[m]).astype(np.float64) / (n_tot - w1[m])
            df = mu1 - mu2
            score = df * df * w1f * (np.float64(n_tot) - w1f)
            th[i] = vals[m][int(np.argmax(score))] if m.any() else int(vals[0])
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "otsu_t": pa.array(th, pa.int64())})

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def dominant_levels(source: "str | ray.data.Dataset", k: int = 3,
                    cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Per-image top-k dominant luma levels by pixel count (the
    palette / dominant-color primitive on the luma axis): luma =
    (77R + 150G + 29B) >> 8 per pixel (the luma_histogram kernel),
    then a vectorized bincount and a (count desc, level asc) top-k —
    map-only decode-pool stage, k rows out per image."""
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column("image_id").to_pylist()
        out_id, out_l, out_n, out_r = [], [], [], []
        for i, img in _decode_rows(t):
            p = img.astype(np.int64)
            lum = (77 * p[:, :, 0] + 150 * p[:, :, 1]
                   + 29 * p[:, :, 2]) // 256
            cnt = np.bincount(lum.ravel(), minlength=256)
            order = np.lexsort((np.arange(256), -cnt))[:k]
            order = order[cnt[order] > 0]
            for r, lv in enumerate(order, 1):
                out_id.append(ids[i])
                out_l.append(int(lv))
                out_n.append(int(cnt[lv]))
                out_r.append(r)
        return pa.table({"image_id": pa.array(out_id, pa.string()),
                         "lum": pa.array(out_l, pa.int64()),
                         "n_px": pa.array(out_n, pa.int64()),
                         "rank": pa.array(out_r, pa.int64())})

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def equalize_stats(source: "str | ray.data.Dataset", channel: int = 0,
                   cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Per-image histogram equalization checksum: eq(p) =
    ((cdf(p) − cdf_min) · 255) // (N − cdf_min) over one channel —
    the classic contrast-normalization LUT, all-integer so the oracle
    recomputes it from cumulative counts. Emits the equalized pixel
    sum per image (the LUT gather itself is np take — map-only)."""
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column("image_id").to_pylist()
        out = np.zeros(t.num_rows, np.int64)
        for i, img in _decode_rows(t):
            p = img[:, :, channel].astype(np.int64).ravel()
            n = p.size
            cnt = np.bincount(p, minlength=256)
            cdf = np.cumsum(cnt)
            cdf_min = int(cdf[np.flatnonzero(cnt)[0]]) if n else 0
            if n == cdf_min:  # constant image → eq is all zeros
                out[i] = 0
                continue
            lut = ((cdf - cdf_min) * 255) // (n - cdf_min)
            out[i] = int(lut[p].sum())
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "eq_sum": pa.array(out, pa.int64())})

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def haar_stats(source: "str | ray.data.Dataset", channel: int = 0,
               cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Per-image 2-level integer Haar wavelet subband statistics over
    one channel — the un-normalized lifting transform (sums and
    differences, no sqrt(2) scaling) so every subband coefficient is
    an exact int64 and the oracle can recompute it from the pixel
    formula. Level-1 over 2x2 pixel blocks:

        LL = a+b+c+d   LH = (a+b)-(c+d)
        HL = (a-b)+(c-d)   HH = (a-b)-(c-d)

    (a,b = top row, c,d = bottom row); level-2 applies the same
    butterfly to the LL grid. Emits detail energies (sum of squared
    coefficients) per level plus the LL2 mass — the texture/smoothness
    fingerprint used to stratify image corpora before training.

    Scale: map-only (one row out per image), rides the decode actor
    pool; wavelet energy never shuffles. Reference analog: the raster
    stats family (/root/reference/load.py raster summaries)."""
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))

    def stats(t: pa.Table) -> pa.Table:
        ids = t.column("image_id").to_pylist()
        cols = {k: np.zeros(t.num_rows, np.int64)
                for k in ("e_lh1", "e_hl1", "e_hh1", "ll2_sum", "e_hh2")}
        for i, img in _decode_rows(t):
            p = img[:, :, channel].astype(np.int64)
            h2, w2 = p.shape[0] // 2, p.shape[1] // 2
            q = p[:2 * h2, :2 * w2].reshape(h2, 2, w2, 2)
            a, b = q[:, 0, :, 0], q[:, 0, :, 1]
            c, d = q[:, 1, :, 0], q[:, 1, :, 1]
            ll = a + b + c + d
            lh = (a + b) - (c + d)
            hl = (a - b) + (c - d)
            hh = (a - b) - (c - d)
            cols["e_lh1"][i] = (lh * lh).sum()
            cols["e_hl1"][i] = (hl * hl).sum()
            cols["e_hh1"][i] = (hh * hh).sum()
            h4, w4 = h2 // 2, w2 // 2
            q2 = ll[:2 * h4, :2 * w4].reshape(h4, 2, w4, 2)
            a2, b2 = q2[:, 0, :, 0], q2[:, 0, :, 1]
            c2, d2 = q2[:, 1, :, 0], q2[:, 1, :, 1]
            ll2 = a2 + b2 + c2 + d2
            hh2 = (a2 - b2) - (c2 - d2)
            cols["ll2_sum"][i] = ll2.sum()
            cols["e_hh2"][i] = (hh2 * hh2).sum()
        out = {"image_id": pa.array(ids, pa.string())}
        out.update({k: pa.array(v, pa.int64()) for k, v in cols.items()})
        return pa.table(out)

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def dhash_counts(source: "str | ray.data.Dataset", channel: int = 0,
                 grid: int = 8, cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Difference-hash (dHash) duplicate buckets: downsample one
    channel to a ``grid x grid`` lattice of EXACT block sums (integer
    — no resampling filter, so the oracle reproduces it), set bit
    (r*(grid-1)+c) when block(r,c) > block(r,c+1), pack into one
    int64, and count images per hash. dHash survives brightness
    shifts and re-encodes, making it the standard cheap near-dup key
    for web image corpora (phash's gradient-domain sibling).

    Scale: map-only hash + a slim (hash, count) partial per batch
    into a tiny grouped sum — the same shuffle-free shape as
    ``luma_histogram``; bucket joins downstream use the hash as the
    equi-join key."""
    from .build import list_fragments
    from .. import relational as rel

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))
    g = grid

    def hashes(t: pa.Table) -> pa.Table:
        out = np.zeros(t.num_rows, np.int64)
        for i, img in _decode_rows(t):
            p = img[:, :, channel].astype(np.int64)
            bh, bw = p.shape[0] // g, p.shape[1] // g
            s = p[:g * bh, :g * bw].reshape(g, bh, g, bw).sum(axis=(1, 3))
            bits = (s[:, :-1] > s[:, 1:]).ravel()
            w = np.int64(1) << np.arange(g * (g - 1), dtype=np.int64)
            out[i] = int((bits * w).sum())
        return pa.table({"dhash": pa.array(out, pa.int64())})

    hs = ds.map_batches(hashes, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=cfg.decode_batch_size)
    return rel.grouped_agg(hs, ["dhash"], count=True)


def composite_stats(source: "str | ray.data.Dataset", overlay_rgb,
                    overlay_alpha, ox: int = 0, oy: int = 0,
                    cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Porter-Duff 'over' watermark compositing checksum: blend a
    broadcast RGBA overlay onto each image at (ox, oy) with the exact
    integer formula out = (fg·a + bg·(255−a) + 127) // 255 (round-half-
    up fixed point — the reference blend every compositor implements),
    and emit the composited pixel sum + the changed-pixel count. The
    overlay ships once via ``ray.put``; the map is task-pooled."""
    from .build import list_fragments

    ds = source if isinstance(source, ray.data.Dataset) else \
        ray.data.read_parquet(list_fragments(source))
    ref = ray.put((np.asarray(overlay_rgb, np.int64),
                   np.asarray(overlay_alpha, np.int64)))

    def stats(t: pa.Table) -> pa.Table:
        fg, al = ray.get(ref)
        oh, ow = al.shape
        ids = t.column("image_id").to_pylist()
        out_sum = np.zeros(t.num_rows, np.int64)
        changed = np.zeros(t.num_rows, np.int64)
        for i, img in _decode_rows(t):
            p = img.astype(np.int64)
            win = p[oy:oy + oh, ox:ox + ow]
            blend = (fg * al[:, :, None]
                     + win * (255 - al[:, :, None]) + 127) // 255
            changed[i] = int((blend != win).sum())
            q = p.copy()
            q[oy:oy + oh, ox:ox + ow] = blend
            out_sum[i] = int(q.sum())
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "out_sum": pa.array(out_sum, pa.int64()),
                         "n_changed": pa.array(changed, pa.int64())})

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=cfg.decode_batch_size)


def dhash_hamming_pairs(source: "str | ray.data.Dataset",
                        channel: int = 0, grid: int = 8,
                        max_hamming: int = 3,
                        cfg: EngineConfig = DEFAULT) -> ray.data.Dataset:
    """Near-duplicate image pair generation by dHash hamming distance:
    the distinct (dhash, n) table pairs up every two hash values
    within ``max_hamming`` bits and reports the pair multiplicity
    n_a·n_b — the candidate-pair pass of image dedup at the HASH
    level, which is the only level that scales (pairing raw images
    within an equal hash is quadratic in duplicates; pairing hash
    VALUES is quadratic only in distinct hashes).

    Scale shape: band LSH — each 56-bit hash explodes to 4 14-bit
    bands; hamming ≤ 3 guarantees (pigeonhole) one equal band, so
    candidates come from a band-keyed shuffle, verified by one
    vectorized XOR popcount, deduped by emitting only from the FIRST
    matching band (exactly-once, no distinct pass)."""
    from .. import relational as rel

    hs = dhash_counts(source, channel=channel, grid=grid, cfg=cfg)
    nb, bw = 4, 14

    def explode(t: pa.Table) -> pa.Table:
        h = t["dhash"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        bands, hh, nn, bi = [], [], [], []
        for b in range(nb):
            bands.append((h >> (b * bw)) & ((1 << bw) - 1))
            hh.append(h)
            nn.append(n)
            bi.append(np.full(len(h), b, np.int64))
        return pa.table({
            "band": pa.array(np.concatenate(bi) * (1 << bw)
                             + np.concatenate(bands), pa.int64()),
            "dhash": pa.array(np.concatenate(hh), pa.int64()),
            "n": pa.array(np.concatenate(nn), pa.int64())})

    ex = hs.map_batches(explode, batch_format="pyarrow",
                        zero_copy_batch=True)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:  # empty/singleton buckets reach fn as-is
            return pd.DataFrame({"h_a": pd.Series(dtype="int64"),
                                 "h_b": pd.Series(dtype="int64"),
                                 "hamming": pd.Series(dtype="int64"),
                                 "n_pairs": pd.Series(dtype="int64")})
        h = g["dhash"].to_numpy()
        n = g["n"].to_numpy()
        band = int(g["band"].iloc[0]) >> bw  # band index of this group
        order = np.argsort(h, kind="mergesort")
        h, n = h[order], n[order]
        iu, ju = np.triu_indices(len(h), k=1)
        ha, hb = h[iu], h[ju]
        x = ha ^ hb
        # vectorized popcount on int64
        pop = np.zeros(len(x), np.int64)
        t = x.copy()
        while True:
            pop += t & 1
            t >>= 1
            if not t.any():
                break
        ok = pop <= max_hamming
        # exactly-once: emit only when THIS band is the first equal one
        first = np.zeros(len(x), np.int64)
        for b in range(nb):
            eq = ((ha >> (b * bw)) & ((1 << bw) - 1)) == \
                 ((hb >> (b * bw)) & ((1 << bw) - 1))
            first = np.where((first == 0) & eq, b + 1, first)
        ok &= first == band + 1
        return pd.DataFrame({"h_a": ha[ok], "h_b": hb[ok],
                             "hamming": pop[ok],
                             "n_pairs": (n[iu] * n[ju])[ok]})

    return rel.grouped_apply_bucketed(ex, ["band"], pairs,
                                      min_group_size=2)
