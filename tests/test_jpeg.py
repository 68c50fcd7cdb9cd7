"""Baseline JPEG codec (kernels/jpeg.py) — from-spec structural checks,
round-trip PSNR, a frozen decode golden, and the decode_images
magic-byte path."""
import hashlib

import numpy as np
import pyarrow as pa

from hand_index_ray.kernels import image as imk
from hand_index_ray.kernels import jpeg
from hand_index_ray.sources import synth


def _psnr(a, b):
    mse = ((a.astype(float) - b.astype(float)) ** 2).mean()
    return 10 * np.log10(255 ** 2 / max(mse, 1e-12))


def test_marker_structure():
    px = synth.make_pixels(0, 32, 32)
    buf = jpeg.encode(px, quality=90)
    assert buf[:2] == b"\xFF\xD8"  # SOI
    assert buf[2:4] == b"\xFF\xE0" and buf[6:11] == b"JFIF\x00"
    assert buf[-2:] == b"\xFF\xD9"  # EOI
    for marker in (b"\xFF\xDB", b"\xFF\xC0", b"\xFF\xC4", b"\xFF\xDA"):
        assert marker in buf, marker
    assert jpeg.is_jpeg(buf) and imk.sniff_format(buf) == "jpg"


def test_roundtrip_psnr_corpus():
    """The engine's lossy bar (BASELINE.json input_hint): PSNR ≥ 40 dB
    at the configured quality on the synthetic corpus."""
    for i in (0, 3, 11):
        px = synth.make_pixels(i, 64, 64)
        dec = jpeg.decode(jpeg.encode(px, quality=imk._JPG_QUALITY))
        assert _psnr(px, dec) >= 40.0
    # near-lossless at quality 100 (quant table all small)
    px = synth.make_pixels(5, 48, 40)
    assert _psnr(px, jpeg.decode(jpeg.encode(px, quality=100))) >= 50.0


def test_roundtrip_shapes_and_modes():
    px = synth.make_pixels(7, 64, 48)
    assert jpeg.decode(jpeg.encode(px, 95)).shape == (48, 64, 3)
    # non-multiple-of-8 dims, 4:4:4 and 4:2:0
    odd = px[:45, :37]
    assert jpeg.decode(jpeg.encode(odd, 95)).shape == (45, 37, 3)
    assert jpeg.decode(jpeg.encode(odd, 95, subsample=True)).shape \
        == (45, 37, 3)
    # 4:2:0 stays lossy-close on the luma-dominant content
    smooth = np.tile(np.linspace(0, 255, 64).astype(np.uint8), (48, 1))
    rgb = np.stack([smooth, smooth, smooth], axis=-1)
    assert _psnr(rgb, jpeg.decode(jpeg.encode(rgb, 90, subsample=True))) >= 40
    # grayscale single-component scan
    g = px[:, :, 0]
    dg = jpeg.decode(jpeg.encode(g, 95))
    assert dg.shape == g.shape and _psnr(g, dg) >= 40


def test_decode_golden_frozen():
    """Bit-exact decode regression: the fixture stream is deterministic
    (synth pixels → from-spec encoder), so its decoded pixels must
    never drift — sums and a sha256 are frozen here. Any change to the
    Huffman/IDCT/upsampling path that alters one pixel fails this."""
    px = synth.make_pixels(9, 40, 40)
    buf = jpeg.encode(px, quality=92)
    dec = jpeg.decode(buf)
    golden = {
        "encoded_sha": hashlib.sha256(buf).hexdigest(),
        "decoded_sha": hashlib.sha256(dec.tobytes()).hexdigest(),
        "sum": int(dec.astype(np.int64).sum()),
    }
    # frozen values (generated once from the from-spec implementation)
    import json
    import os
    path = os.path.join(os.path.dirname(__file__), "data",
                        "jpeg_golden.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(golden, f, indent=1)
    with open(path) as f:
        want = json.load(f)
    assert golden == want, (golden, want)


def test_decode_images_magic_sniffing(ray_session):
    """decode_images must ingest jpg payloads with absent/empty fmt via
    magic bytes and produce a phash within lossy tolerance."""
    from hand_index_ray.stages.encode import decode_images

    rows = []
    for i in range(4):
        px = synth.make_pixels(i, 32, 32)
        rows.append({
            "image_id": f"img-{i:09d}",
            "bytes": jpeg.encode(px, quality=imk._JPG_QUALITY),
            "w": np.int32(32), "h": np.int32(32),
            "fmt": "" if i % 2 == 0 else "jpg",
            "caption": f"tile {i}",
            "phash": np.int64(np.uint64(imk.phash64(px)).view(np.int64)),
        })
    t = pa.Table.from_pylist(rows)
    out = decode_images(t)
    assert out.num_rows == 4
    ham = imk.phash_hamming(
        out.column("phash").to_numpy().astype(np.uint64),
        out.column("phash_decoded").to_numpy().astype(np.uint64))
    assert (ham <= 4).all(), ham


def test_fill_bytes_and_standalone_markers():
    """T.81 B.1.1.2: 0xFF fill bytes may pad any marker, and TEM
    markers are standalone — both occur in real camera streams."""
    px = synth.make_pixels(2, 24, 24)
    buf = jpeg.encode(px, quality=95)
    want = jpeg.decode(buf)
    # inject a fill byte + TEM marker after the APP0 segment
    app0_end = 4 + 16  # SOI + APP0(16)
    padded = buf[:app0_end] + b"\xFF" + b"\xFF\x01" + buf[app0_end:]
    got = jpeg.decode(padded)
    assert (got == want).all()


def test_decode_images_quarantines_corrupt_rows(ray_session):
    """One corrupt blob must not kill the batch: the row is flagged
    decode_ok=False with zeroed features, the rest decode normally."""
    from hand_index_ray.stages.encode import decode_images

    rows = []
    for i in range(3):
        px = synth.make_pixels(i, 16, 16)
        rows.append({
            "image_id": f"img-{i:09d}",
            "bytes": jpeg.encode(px, quality=95),
            "w": np.int32(16), "h": np.int32(16), "fmt": "jpg",
            "caption": "x", "phash": np.int64(0),
        })
    rows[1]["bytes"] = b"\xFF\xD8\xFF\xDB garbage"  # sniffs as jpg, corrupt
    rows[1]["fmt"] = ""
    t = pa.Table.from_pylist(rows)
    out = decode_images(t)
    ok = out.column("decode_ok").to_pylist()
    assert ok == [True, False, True]
    assert out.num_rows == 3


def test_decode_batch_parity_battery():
    """The lockstep batch decoder is bit-exact vs the scalar decoder
    across chroma modes, grayscale, odd dims, qualities and restart
    intervals — all decoded in ONE mixed batch."""
    cases = []
    for i, (h, w, sub, gray, rr, q) in enumerate([
            (64, 64, False, False, 0, 98), (48, 56, True, False, 0, 90),
            (33, 41, False, False, 0, 75), (64, 64, False, True, 0, 98),
            (96, 128, True, False, 1, 92), (40, 40, False, False, 2, 98),
            (8, 8, False, False, 0, 50), (17, 9, True, True, 1, 85)]):
        px = synth.make_pixels(i, max(h, 8), max(w, 8))[:h, :w]
        if gray:
            px = px[..., 0]
        cases.append(jpeg.encode(px, quality=q, subsample=sub,
                                 restart_rows=rr))
    want = [jpeg.decode(b) for b in cases]
    got = jpeg.decode_batch(cases)
    for i, (g, wv) in enumerate(zip(got, want)):
        assert g.shape == wv.shape, i
        np.testing.assert_array_equal(g, wv, err_msg=str(i))


def test_decode_batch_restart_lanes_match_plain():
    """restart_rows only changes the container layout (more independent
    lanes), never the pixels."""
    px = synth.make_pixels(3, 64, 64)
    plain = jpeg.decode_batch([jpeg.encode(px, quality=98)])[0]
    rst = jpeg.decode_batch([jpeg.encode(px, quality=98, restart_rows=1)])[0]
    np.testing.assert_array_equal(plain, rst)


def test_decode_batch_quarantine():
    """strict=False maps per-image failures (truncated scan, not a
    JPEG) to None without touching healthy lanes."""
    px = [synth.make_pixels(i, 24, 24) for i in range(3)]
    bufs = [jpeg.encode(p, quality=95) for p in px]
    bad = [bufs[0], bufs[1][: len(bufs[1]) // 2], b"nonsense", bufs[2]]
    got = jpeg.decode_batch(bad, strict=False)
    assert got[1] is None and got[2] is None
    np.testing.assert_array_equal(got[0], jpeg.decode(bufs[0]))
    np.testing.assert_array_equal(got[3], jpeg.decode(bufs[2]))
    import pytest
    with pytest.raises(ValueError):
        jpeg.decode_batch(bad, strict=True)


def test_encoder_restart_markers_decodable_by_scalar():
    """The scalar decoder (independent implementation of RST handling)
    agrees with the segment-splitting batch path."""
    px = synth.make_pixels(5, 48, 80)
    buf = jpeg.encode(px, quality=90, restart_rows=1)
    sos = buf.index(b"\xFF\xDA")
    assert b"\xFF\xDD" in buf[:sos]  # DRI present in the header
    np.testing.assert_array_equal(jpeg.decode(buf),
                                  jpeg.decode_batch([buf])[0])


def _gray8_with_scan(scan: bytes) -> bytes:
    """An 8×8 grayscale baseline stream whose entropy-coded segment is
    replaced by ``scan``."""
    buf = jpeg.encode(np.full((8, 8), 128, np.uint8), quality=90)
    sos = buf.index(b"\xFF\xDA")
    hdr_end = sos + 2 + int.from_bytes(buf[sos + 2:sos + 4], "big")
    return buf[:hdr_end] + scan + b"\xFF\xD9"


def test_decode_batch_bench_layout_and_corrupt_lanes():
    """The ingest layout (``image.encode(..., "jpg")``: q98, one MCU per
    restart segment, 64/96/128 dims) mixed with gray, 4:2:0 and
    ``restart_rows`` streams, plus corrupt images, in ONE batch.
    Healthy images (and the tolerated layouts: an RST right before EOI,
    fill bytes before an RST) decode bit-exactly; images that fail in a
    lane return None under strict=False and raise under strict=True."""
    import pytest

    healthy, want = [], []
    for i, (w, h) in enumerate(zip(synth._WS, synth._HS)):
        buf = imk.encode(synth.make_pixels(20 + i, w, h), "jpg")
        healthy.append(buf)
        want.append(jpeg.decode(buf))
    px = synth.make_pixels(30, 40, 48)
    for kw in ({"quality": 95}, {"quality": 90, "subsample": True},
               {"quality": 92, "restart_rows": 1}):
        buf = jpeg.encode(px, **kw)
        healthy.append(buf)
        want.append(jpeg.decode(buf))
    healthy.append(jpeg.encode(px[..., 1], quality=98, restart_mcus=1))
    want.append(jpeg.decode(healthy[-1]))
    # tolerated layouts, checked against the scalar decode of the clean
    # stream (the scalar decoder stops at a fill byte)
    rst_stream = healthy[0]
    healthy.append(rst_stream[:-2] + b"\xFF\xD5" + rst_stream[-2:])
    want.append(want[0])
    p = rst_stream.index(b"\xFF\xD0", rst_stream.index(b"\xFF\xDA"))
    healthy.append(rst_stream[:p] + b"\xFF\xFF" + rst_stream[p:])
    want.append(want[0])

    dc = jpeg._build_codes(*jpeg.DC_LUMA)
    ac = jpeg._build_codes(*jpeg.AC_LUMA)
    bw = jpeg._BitWriter()
    bw.put(*dc[0])
    for _ in range(3):
        bw.put(*ac[0xF0])  # ZRL ×3: k = 49
    bw.put(*ac[0xF1])  # run 15 → k = 64
    bw.put(1, 1)
    bw.flush()
    run_past_63 = _gray8_with_scan(bytes(bw.out))
    bad_prefix = _gray8_with_scan(b"\xFF\x00\xFF\x00")  # 9+ one-bits
    tail = healthy[1]
    last_rst = max(tail.rfind(bytes([0xFF, 0xD0 + m])) for m in range(8))
    truncated = tail[:last_rst + 3] + b"\xFF\xD9"  # 1 byte of the last segment
    for b in (run_past_63, bad_prefix):
        with pytest.raises(ValueError):
            jpeg.decode(b)
    corrupt = [run_past_63, bad_prefix, truncated]

    batch = healthy[:3] + corrupt + healthy[3:]
    got = jpeg.decode_batch(batch, strict=False)
    assert got[3:6] == [None, None, None]
    for i, (g, wv) in enumerate(zip(got[:3] + got[6:], want)):
        assert g is not None and g.shape == wv.shape, i
        np.testing.assert_array_equal(g, wv, err_msg=str(i))
    for b in corrupt:
        with pytest.raises(ValueError):
            jpeg.decode_batch(healthy[:2] + [b], strict=True)
