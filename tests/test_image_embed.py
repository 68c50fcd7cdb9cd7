"""Image resize/embedding pipeline tests."""

import numpy as np
import pyarrow as pa
import pytest

from hand_index_ray.kernels import image as imk


def test_resize_box_exact_downscale():
    # constant blocks → exact block values after resize
    img = np.zeros((8, 8, 3), dtype=np.uint8)
    img[:4, :4] = 10
    img[:4, 4:] = 20
    img[4:, :4] = 30
    img[4:, 4:] = 40
    out = imk.resize_box(img, 2, 2)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out[0, 0], [10] * 3)
    np.testing.assert_array_equal(out[0, 1], [20] * 3)
    np.testing.assert_array_equal(out[1, 0], [30] * 3)
    np.testing.assert_array_equal(out[1, 1], [40] * 3)
    # non-divisible sizes also work
    out2 = imk.resize_box(np.full((10, 7, 3), 99, np.uint8), 3, 3)
    assert out2.shape == (3, 3, 3)
    np.testing.assert_array_equal(out2, np.full((3, 3, 3), 99))


def test_embed_tile_metric_behavior():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
    # lossy re-encode of a → cosine ≈ 1
    a2 = imk.decode(imk.encode(a, "qjpg"), "qjpg")
    b = np.ascontiguousarray(np.rot90(a))
    ea, ea2, eb = (imk.embed_tile(x) for x in (a, a2, b))
    assert float(ea @ ea2) > 0.99
    assert float(ea @ eb) < float(ea @ ea2)
    assert abs(np.linalg.norm(ea) - 1) < 1e-12


def test_embed_images(ray_session, smoke_dirs):
    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.image_embed import embed_images

    cfg = EngineConfig(decode_batch_size=64)
    emb = embed_images(smoke_dirs["images"], cfg=cfg).to_pandas()
    assert len(emb) == 400
    assert all(len(v) == 48 for v in emb["embedding"])  # 4*4*3


def test_augment_crop_flip_kernel():
    img = np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3)
    out = imk.augment_crop_flip(img, 2, 2, flip=False)
    np.testing.assert_array_equal(out, img[1:3, 2:4])
    flipped = imk.augment_crop_flip(img, 2, 2, flip=True)
    np.testing.assert_array_equal(flipped, img[1:3, 2:4][:, ::-1])
    with pytest.raises(ValueError):
        imk.augment_crop_flip(img, 5, 2, flip=False)


def test_augment_images_matches_numpy(ray_session, smoke_dirs):
    """Actor-pool augmentation reproduces a direct decode→crop→flip
    per image (bytes mode), and the stats mode's integer sums match."""
    import pyarrow.parquet as pq
    import ray.data

    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.build import list_fragments
    from hand_index_ray.pipelines.image_embed import augment_images

    cfg = EngineConfig(decode_batch_size=64)
    out = augment_images(smoke_dirs["images"], crop_frac=0.5, flip_mod=2,
                         emit="bytes", cfg=cfg).to_pandas() \
        .set_index("image_id")
    src = pq.read_table(list_fragments(smoke_dirs["images"])).to_pandas()
    assert len(out) == len(src) == 400
    import zlib

    for _, r in src.sample(12, random_state=0).iterrows():
        img = imk.decode(r["bytes"], r["fmt"], w=int(r["w"]), h=int(r["h"]))
        ch, cw = img.shape[0] // 2, img.shape[1] // 2
        o = out.loc[r["image_id"]]
        assert (int(o["h"]), int(o["w"])) == (ch, cw)
        got = imk.decode(o["bytes"], "raw", w=cw, h=ch)
        # without a key column the flip derives from crc32(image_id) —
        # row identity, never batch position (repartition-stable)
        flip = zlib.crc32(r["image_id"].encode()) % 2 == 0
        exp = imk.augment_crop_flip(img, ch, cw, flip=flip)
        assert (got == exp).all()


def test_augment_stats_and_channel_stats_exact(ray_session):
    """Stats mode + channel_stats vs direct numpy on an in-memory
    arithmetic images table (keyed flips are deterministic)."""
    import pyarrow as pa
    import ray.data

    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.image_embed import augment_images, channel_stats

    keys = np.arange(0, 40, 2, dtype=np.int64)
    yy = 5 * np.arange(8, dtype=np.int64)[:, None, None]
    xx = 3 * np.arange(10, dtype=np.int64)[None, :, None]
    cc = 7 * np.arange(3, dtype=np.int64)[None, None, :]
    imgs = [((k + yy + xx + cc) % 256).astype(np.uint8) for k in keys]
    t = pa.table({
        "image_id": pa.array([f"im-{k}" for k in keys], pa.string()),
        "key": pa.array(keys, pa.int64()),
        "bytes": pa.array([imk.encode(im, "raw") for im in imgs], pa.binary()),
        "w": pa.array([10] * len(keys), pa.int32()),
        "h": pa.array([8] * len(keys), pa.int32()),
        "fmt": pa.array(["raw"] * len(keys), pa.string()),
    })
    ds = ray.data.from_arrow(t).repartition(4)
    cfg = EngineConfig(decode_batch_size=16)
    st = augment_images(ds, crop_frac=0.5, flip_mod=4, emit="stats",
                        cfg=cfg).to_pandas().set_index("image_id")
    for k, im in zip(keys, imgs):
        aug = imk.augment_crop_flip(im, 4, 5, flip=(k % 4 == 0)).astype(np.int64)
        assert st.loc[f"im-{k}", "aug_sum"] == aug.sum()
        assert st.loc[f"im-{k}", "aug_xw"] == \
            (aug * (np.arange(5, dtype=np.int64) + 1)[None, :, None]).sum()
    cs = channel_stats(ds, cfg=cfg)
    allpx = np.stack(imgs).astype(np.int64)
    np.testing.assert_array_equal(cs["s"].to_numpy(), allpx.sum(axis=(0, 1, 2)))
    np.testing.assert_array_equal(cs["ss"].to_numpy(),
                                  (allpx * allpx).sum(axis=(0, 1, 2)))
    assert (cs["n"] == len(keys) * 8 * 10).all()


def test_resize_nearest_kernel():
    """NN gather: output pixel (y,x) is exactly source ((y*h)//oh,
    (x*w)//ow); identity resize is a no-op; upscale repeats pixels."""
    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, (24, 32, 3), dtype=np.uint8)
    r = imk.resize_nearest(img, 10, 14)
    for y in range(10):
        for x in range(14):
            np.testing.assert_array_equal(r[y, x], img[(y * 24) // 10, (x * 32) // 14])
    np.testing.assert_array_equal(imk.resize_nearest(img, 24, 32), img)
    up = imk.resize_nearest(img, 48, 64)
    np.testing.assert_array_equal(up[::2, ::2], img)
    np.testing.assert_array_equal(up[1::2, 1::2], img)


def test_patch_sums_kernel_ragged():
    rng = np.random.default_rng(12)
    img = rng.integers(0, 256, (21, 30, 3), dtype=np.uint8)
    p = imk.patch_sums(img, 8, 8)
    assert p.shape == (3, 4)
    assert p.sum() == img.astype(np.int64).sum()
    np.testing.assert_array_equal(
        p[2, 3], img[16:21, 24:30].astype(np.int64).sum())


def test_resize_images_bytes_and_patch_grid(ray_session):
    """Resizer emit='bytes' round-trips through the raw codec; the
    patch grid explode emits gy*gx rows per image with exact sums."""
    import ray.data

    from hand_index_ray.config import EngineConfig
    from hand_index_ray.pipelines.image_embed import (patch_grid_stats,
                                                      resize_images)

    rng = np.random.default_rng(13)
    imgs = [rng.integers(0, 256, (24, 32, 3), dtype=np.uint8) for _ in range(6)]
    t = pa.table({
        "image_id": pa.array([f"r-{i}" for i in range(6)], pa.string()),
        "bytes": pa.array([imk.encode(im, "raw") for im in imgs], pa.binary()),
        "w": pa.array([32] * 6, pa.int32()),
        "h": pa.array([24] * 6, pa.int32()),
        "fmt": pa.array(["raw"] * 6, pa.string()),
    })
    ds = ray.data.from_arrow(t).repartition(3)
    cfg = EngineConfig(decode_batch_size=4)
    out = resize_images(ds, 6, 8, emit="bytes", cfg=cfg).to_pandas() \
        .set_index("image_id")
    for i, im in enumerate(imgs):
        row = out.loc[f"r-{i}"]
        dec = imk.decode(row["bytes"], row["fmt"], w=int(row["w"]), h=int(row["h"]))
        np.testing.assert_array_equal(dec, imk.resize_nearest(im, 6, 8))
    pg = patch_grid_stats(ds, 8, 8, cfg=cfg).to_pandas()
    assert len(pg) == 6 * 3 * 4
    got = pg.set_index(["image_id", "py", "px"])["p_sum"]
    for i, im in enumerate(imgs):
        assert got[(f"r-{i}", 1, 2)] == im[8:16, 16:24].astype(np.int64).sum()


def _img_table(arrs):
    ids, bufs, ws, hs = [], [], [], []
    for i, a in enumerate(arrs):
        ids.append(f"t{i}")
        bufs.append(imk.encode(np.ascontiguousarray(a), "raw"))
        hs.append(a.shape[0])
        ws.append(a.shape[1])
    n = len(ids)
    return pa.table({
        "image_id": pa.array(ids, pa.string()),
        "bytes": pa.array(bufs, pa.binary()),
        "w": pa.array(ws, pa.int32()),
        "h": pa.array(hs, pa.int32()),
        "fmt": pa.array(["raw"] * n, pa.string()),
    })


def test_sobel_stats_known_values(ray_session):
    import ray
    from hand_index_ray.pipelines.image_embed import sobel_stats

    # vertical step edge: gx = 4*step on the two columns straddling it
    img = np.zeros((5, 6, 3), np.uint8)
    img[:, 3:] = 10  # step of 10 between x=2 and x=3
    ds = ray.data.from_arrow(_img_table([img]))
    out = sobel_stats(ds).to_pandas()
    # interior is y in 1..3, x in 1..4; gx=|±40| at x=2,3 rows 1..3; gy=0
    assert int(out.g_max[0]) == 40
    assert int(out.g_sum[0]) == 40 * 2 * 3

    # flat image → zero energy
    flat = np.full((4, 4, 3), 7, np.uint8)
    out2 = sobel_stats(ray.data.from_arrow(_img_table([flat]))).to_pandas()
    assert int(out2.g_sum[0]) == 0 and int(out2.g_max[0]) == 0


def test_box_blur_matches_naive(ray_session):
    import ray
    from hand_index_ray.pipelines.image_embed import box_blur_stats

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)
    p = img[:, :, 0].astype(np.int64)
    naive = np.zeros((7, 9), np.int64)
    for y in range(1, 8):
        for x in range(1, 10):
            naive[y - 1, x - 1] = p[y - 1:y + 2, x - 1:x + 2].sum() // 9
    out = box_blur_stats(ray.data.from_arrow(_img_table([img]))).to_pandas()
    assert int(out.bb_sum[0]) == int(naive.sum())
    xw = np.arange(1, 10, dtype=np.int64)[None, :]
    assert int(out.bb_xw[0]) == int((naive * xw).sum())


def test_luma_histogram_counts(ray_session):
    import ray
    from hand_index_ray.pipelines.image_embed import luma_histogram

    # constant-color image → single luma bin holding every pixel
    img = np.zeros((6, 8, 3), np.uint8)
    img[:, :, 0] = 100
    img[:, :, 1] = 50
    img[:, :, 2] = 200
    lum = (77 * 100 + 150 * 50 + 29 * 200) >> 8
    out = luma_histogram(ray.data.from_arrow(_img_table([img])))
    assert len(out) == 1
    assert int(out.lum[0]) == lum and int(out.n_px[0]) == 48
