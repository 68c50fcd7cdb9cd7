"""Baseline JPEG (JFIF) codec in pure numpy — from the public ITU-T
T.81 spec. No imaging libraries exist in this sandbox; this makes the
engine's lossy-image path (BASELINE.json input_hint "PSNR≥40dB for
lossy") mean real-world baseline JPEG instead of the self-defined qjpg
quantizing codec (VERDICT r2 "what's missing" 2).

Decoder: marker parse (SOI/APP/DQT/SOF0/DHT/SOS/DRI), Huffman entropy
decode with byte-stuffing and restart markers, dequantize + dezigzag,
8×8 IDCT (exact float DCT-III via a precomputed basis matmul —
vectorized over all blocks at once), 4:4:4 / 4:2:0 / 4:2:2 chroma
upsampling, YCbCr→RGB with JFIF rounding.

Encoder: 4:4:4 baseline with the spec's Annex-K example quantization
(scaled by quality) and Huffman tables — used to build test fixtures
and as the engine's `jpg` payload codec. Grayscale (1 component) and
RGB (3 components) supported.

Scale shape: both directions are batch-vectorized per image (one
(nblocks, 8, 8) tensor matmul per component — the entropy coder is the
only per-symbol loop, run over numpy-extracted bit arrays); they run
inside actor-pool map_batches stages (stages/multimodal.py,
stages/encode.py decode_images).
"""

from __future__ import annotations

import numpy as np

# --- spec tables (ITU-T T.81 Annex K, public) -------------------------------

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)
UNZIGZAG = np.argsort(ZIGZAG)

QLUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64).reshape(8, 8)

QCHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64).reshape(8, 8)

# Annex-K Huffman specifications: (BITS counts per length 1..16, values)
DC_LUMA = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
           list(range(12)))
DC_CHROMA = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
             list(range(12)))
AC_LUMA = ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D], [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
    0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])
AC_CHROMA = ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77], [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
    0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
    0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
    0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
    0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])

# 8×8 DCT-II basis: B[u, x] = c(u)/2 · cos((2x+1)uπ/16)
_B = np.zeros((8, 8))
for _u in range(8):
    _c = np.sqrt(0.125) if _u == 0 else 0.5
    for _x in range(8):
        _B[_u, _x] = _c * np.cos((2 * _x + 1) * _u * np.pi / 16.0)


def _fdct(blocks: np.ndarray) -> np.ndarray:
    """(n, 8, 8) spatial → DCT coefficients."""
    return _B @ blocks @ _B.T


def _idct(blocks: np.ndarray) -> np.ndarray:
    """(n, 8, 8) coefficients → spatial."""
    return _B.T @ blocks @ _B


# --- Huffman code construction (spec C.2) -----------------------------------

def _build_codes(bits, vals):
    """value → (code, length) from a BITS/HUFFVAL spec."""
    out = {}
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            out[vals[k]] = (code, ln)
            code += 1
            k += 1
        code <<= 1
    return out


def _build_decode_lut(bits, vals):
    """(maxlen, lut) where lut maps a maxlen-bit window to
    (value, code_length) — one-shot table decode per symbol."""
    maxlen = max(ln for ln in range(1, 17) if bits[ln - 1]) if any(bits) else 1
    lut_val = np.full(1 << maxlen, -1, dtype=np.int32)
    lut_len = np.zeros(1 << maxlen, dtype=np.int32)
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            lo = code << (maxlen - ln)
            hi = (code + 1) << (maxlen - ln)
            lut_val[lo:hi] = vals[k]
            lut_len[lo:hi] = ln
            code += 1
            k += 1
        code <<= 1
    return maxlen, lut_val, lut_len


# --- bit IO ------------------------------------------------------------------

class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def put(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            b = (self.acc >> self.nbits) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)  # byte stuffing

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.put((1 << pad) - 1, pad)  # pad with 1s


def _unstuff(data: bytes) -> np.ndarray:
    """Entropy segment → bit array (uint8 of 0/1), removing 0xFF00
    stuffing and stopping at any non-RST marker."""
    arr = np.frombuffer(data, dtype=np.uint8)
    keep = np.ones(len(arr), dtype=bool)
    ff = np.nonzero(arr == 0xFF)[0]
    end = len(arr)
    for p in ff:
        if p + 1 >= len(arr):
            end = min(end, p)
            break
        nxt = arr[p + 1]
        if nxt == 0x00:
            keep[p + 1] = False  # drop the stuffed zero
        elif 0xD0 <= nxt <= 0xD7:
            keep[p] = False
            keep[p + 1] = False  # drop RST marker (decoder resets DC)
        else:
            end = min(end, p)
            break
    keep[end:] = False
    payload = arr[keep[: len(arr)] & (np.arange(len(arr)) < end)]
    return np.unpackbits(payload)


# --- encoder ------------------------------------------------------------------

def _quality_scale(q: np.ndarray, quality: int) -> np.ndarray:
    quality = max(1, min(100, int(quality)))
    s = 5000 // quality if quality < 50 else 200 - quality * 2
    t = (q * s + 50) // 100
    return np.clip(t, 1, 255)


def _magnitude(v: int) -> tuple[int, int]:
    """(size, amplitude bits) per spec F.1.2.1."""
    if v == 0:
        return 0, 0
    a = abs(v)
    size = int(a).bit_length()
    bits = v if v > 0 else v + (1 << size) - 1
    return size, bits


def _emit_block(bw: _BitWriter, blk: np.ndarray, prev_dc: int,
                dc_codes, ac_codes) -> int:
    """Huffman-emit one zigzag block; returns its DC for the chain."""
    diff = int(blk[0]) - prev_dc
    size, bits = _magnitude(diff)
    c, ln = dc_codes[size]
    bw.put(c, ln)
    if size:
        bw.put(bits, size)
    nzi = np.nonzero(blk[1:])[0]
    pos = 0
    for z in nzi:
        run = int(z) - pos
        while run >= 16:
            c, ln = ac_codes[0xF0]
            bw.put(c, ln)
            run -= 16
        size, bits = _magnitude(int(blk[1 + z]))
        c, ln = ac_codes[(run << 4) | size]
        bw.put(c, ln)
        bw.put(bits, size)
        pos = int(z) + 1
    if pos < 63:
        c, ln = ac_codes[0x00]  # EOB
        bw.put(c, ln)
    return int(blk[0])


def encode(px: np.ndarray, quality: int = 90,
           subsample: bool = False, restart_rows: int = 0,
           restart_mcus: int = 0) -> bytes:
    """Encode (h, w) grayscale or (h, w, 3) RGB uint8 → baseline JFIF
    bytes (Annex-K tables scaled by ``quality``; 4:4:4, or 4:2:0 with
    ``subsample=True``). ``restart_rows`` > 0 writes a DRI segment and
    an RSTn marker every that-many MCU rows — each restart interval is
    then independently decodable, which is what ``decode_batch``'s
    lockstep lanes parallelize over. ``restart_mcus`` sets the interval
    in MCUs directly (overrides ``restart_rows``): DRI=1 maximizes lane
    count / minimizes the sequential symbol chain per lane, at a few %
    size overhead (2-byte marker + DC-predictor reset per MCU)."""
    px = np.asarray(px)
    gray = px.ndim == 2
    h, w = px.shape[:2]
    qy = _quality_scale(QLUMA, quality)
    qc = _quality_scale(QCHROMA, quality)

    if gray:
        planes = [px.astype(np.float64)]
        samps = [(1, 1)]
    else:
        r = px[..., 0].astype(np.float64)
        g = px[..., 1].astype(np.float64)
        b = px[..., 2].astype(np.float64)
        yy = 0.299 * r + 0.587 * g + 0.114 * b
        cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
        cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
        if subsample:
            H2 = (h + 1) // 2 * 2
            W2 = (w + 1) // 2 * 2
            def down(p):
                q = np.empty((H2, W2))
                q[:h, :w] = p
                if H2 > h:
                    q[h:, :w] = p[-1:, :]
                if W2 > w:
                    q[:, w:] = q[:, w - 1 : w]
                return 0.25 * (q[0::2, 0::2] + q[1::2, 0::2]
                               + q[0::2, 1::2] + q[1::2, 1::2])
            planes = [yy, down(cb), down(cr)]
            samps = [(2, 2), (1, 1), (1, 1)]
        else:
            planes = [yy, cb, cr]
            samps = [(1, 1), (1, 1), (1, 1)]

    dc_specs = [DC_LUMA, DC_CHROMA]
    ac_specs = [AC_LUMA, AC_CHROMA]
    dc_codes = [_build_codes(*s) for s in dc_specs]
    ac_codes = [_build_codes(*s) for s in ac_specs]

    hmax = max(s[0] for s in samps)
    vmax = max(s[1] for s in samps)
    mcux = (w + 8 * hmax - 1) // (8 * hmax)
    mcuy = (h + 8 * vmax - 1) // (8 * vmax)

    comp_coefs = []
    comp_grid = []
    for plane, (hs, vs), qt in zip(planes, samps,
                                   [qy] + [qc] * (len(planes) - 1)):
        # pad each component plane to its full MCU canvas
        H = mcuy * vs * 8
        W = mcux * hs * 8
        p = np.empty((H, W))
        ph, pw = plane.shape
        p[:ph, :pw] = plane
        if H > ph:
            p[ph:, :pw] = plane[-1:, :]
        if W > pw:
            p[:, pw:] = p[:, pw - 1 : pw]
        blocks = p.reshape(H // 8, 8, W // 8, 8).transpose(0, 2, 1, 3) \
            .reshape(-1, 8, 8)
        co = _fdct(blocks - 128.0)
        qn = np.round(co / qt).astype(np.int64)
        comp_coefs.append(qn.reshape(-1, 64)[:, ZIGZAG]
                          .reshape(H // 8, W // 8, 64))
        comp_grid.append((hs, vs))

    out = bytearray()
    out += b"\xFF\xD8"  # SOI
    out += b"\xFF\xE0" + (16).to_bytes(2, "big") + b"JFIF\x00\x01\x01\x00" \
        + b"\x00\x01\x00\x01\x00\x00"
    for tid, qt in enumerate([qy] if gray else [qy, qc]):
        out += b"\xFF\xDB" + (67).to_bytes(2, "big") + bytes([tid])
        out += bytes(int(v) for v in qt.reshape(-1)[ZIGZAG])
    # SOF0
    nc = 1 if gray else 3
    out += b"\xFF\xC0" + (8 + 3 * nc).to_bytes(2, "big") + b"\x08"
    out += h.to_bytes(2, "big") + w.to_bytes(2, "big") + bytes([nc])
    for ci in range(nc):
        hs, vs = comp_grid[ci]
        out += bytes([ci + 1, (hs << 4) | vs, 0 if ci == 0 else 1])
    # DHT
    for cls, specs in ((0, dc_specs), (1, ac_specs)):
        for tid, (bits, vals) in enumerate(specs[: 1 if gray else 2]):
            out += b"\xFF\xC4" + (3 + 16 + len(vals)).to_bytes(2, "big")
            out += bytes([(cls << 4) | tid]) + bytes(bits) + bytes(vals)
    # DRI (only when restart markers are requested)
    ri = restart_mcus if restart_mcus > 0 else (
        restart_rows * mcux if restart_rows > 0 else 0)
    if ri:
        out += b"\xFF\xDD" + (4).to_bytes(2, "big") + ri.to_bytes(2, "big")
    # SOS
    out += b"\xFF\xDA" + (6 + 2 * nc).to_bytes(2, "big") + bytes([nc])
    for ci in range(nc):
        t = 0 if ci == 0 else 1
        out += bytes([ci + 1, (t << 4) | t])
    out += b"\x00\x3F\x00"

    # interleaved MCU scan
    bw_ = _BitWriter()
    prev = [0] * nc
    mcu_n = 0
    rst_n = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if ri and mcu_n and mcu_n % ri == 0:
                # close the interval: pad to byte, emit RSTn, reset DC
                bw_.flush()
                bw_.out += bytes([0xFF, 0xD0 + (rst_n & 7)])
                rst_n += 1
                prev = [0] * nc
            mcu_n += 1
            for ci in range(nc):
                hs, vs = comp_grid[ci]
                t = 0 if ci == 0 else 1
                for by in range(vs):
                    for bx in range(hs):
                        blk = comp_coefs[ci][my * vs + by, mx * hs + bx]
                        prev[ci] = _emit_block(bw_, blk, prev[ci],
                                               dc_codes[t], ac_codes[t])
    bw_.flush()
    out += bytes(bw_.out)
    out += b"\xFF\xD9"  # EOI
    return bytes(out)


# --- decoder ------------------------------------------------------------------

class _BitReader:
    __slots__ = ("bits", "pos")

    def __init__(self, bits: np.ndarray):
        self.bits = bits
        self.pos = 0

    def peek(self, n: int) -> int:
        b = self.bits[self.pos : self.pos + n]
        v = 0
        for x in b:
            v = (v << 1) | int(x)
        v <<= n - len(b)
        return v

    def read(self, n: int) -> int:
        v = self.peek(n)
        self.pos += n
        return v


def _extend(v: int, size: int) -> int:
    """Spec F.2.2.1 EXTEND."""
    if size == 0:
        return 0
    if v < (1 << (size - 1)):
        return v - (1 << size) + 1
    return v


def _parse_headers(arr: np.ndarray):
    """Marker walk up to (and including) SOS. Returns
    (qts_zigzag, huff_specs, comps, h, w, restart_interval, scan, pos)
    where pos is the first entropy-coded byte, qts_zigzag maps table id
    → int64[64] in ZIGZAG order, huff_specs maps (class, id) →
    (bits, vals) raw DHT spec, comps is [(id, hsamp, vsamp, qt)] and
    scan is [(comp_id, dc_table, ac_table)]."""
    if len(arr) < 4 or arr[0] != 0xFF or arr[1] != 0xD8:
        raise ValueError("not a JPEG (missing SOI)")
    pos = 2
    qts: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], tuple] = {}
    comps = []  # (id, hsamp, vsamp, qt)
    h = w = 0
    restart_interval = 0
    scan = None
    while pos + 4 <= len(arr):
        if arr[pos] != 0xFF:
            raise ValueError(f"marker expected at {pos}")
        # T.81 B.1.1.2: any number of 0xFF fill bytes may precede a marker
        while pos + 1 < len(arr) and arr[pos + 1] == 0xFF:
            pos += 1
        m = int(arr[pos + 1])
        pos += 2
        if m == 0xD9:  # EOI
            break
        if m == 0x01 or 0xD0 <= m <= 0xD7:
            continue  # standalone TEM/RSTn markers carry no segment
        ln = (int(arr[pos]) << 8) | int(arr[pos + 1])
        seg = bytes(arr[pos + 2 : pos + ln])
        if m == 0xDB:  # DQT
            o = 0
            while o < len(seg):
                pq, tq = seg[o] >> 4, seg[o] & 0xF
                if pq:
                    raise ValueError("16-bit quant tables unsupported")
                tbl = np.frombuffer(seg[o + 1 : o + 65], dtype=np.uint8)
                qts[tq] = tbl.astype(np.int64)  # zigzag order as stored
                o += 65
        elif m == 0xC0:  # SOF0 baseline
            h = (seg[1] << 8) | seg[2]
            w = (seg[3] << 8) | seg[4]
            nc = seg[5]
            for ci in range(nc):
                cid = seg[6 + 3 * ci]
                hv = seg[7 + 3 * ci]
                tq = seg[8 + 3 * ci]
                comps.append((cid, hv >> 4, hv & 0xF, tq))
        elif m in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                   0xCD, 0xCE, 0xCF):
            raise ValueError(f"non-baseline SOF marker 0x{m:02X} unsupported")
        elif m == 0xC4:  # DHT
            o = 0
            while o < len(seg):
                tc, th = seg[o] >> 4, seg[o] & 0xF
                bits = list(seg[o + 1 : o + 17])
                nv = sum(bits)
                vals = list(seg[o + 17 : o + 17 + nv])
                huff[(tc, th)] = (bits, vals)
                o += 17 + nv
        elif m == 0xDD:  # DRI
            restart_interval = (seg[0] << 8) | seg[1]
        elif m == 0xDA:  # SOS
            ns = seg[0]
            scan = []
            for si in range(ns):
                cs = seg[1 + 2 * si]
                td, ta = seg[2 + 2 * si] >> 4, seg[2 + 2 * si] & 0xF
                scan.append((cs, td, ta))
            pos += ln
            break
        pos += ln
    if scan is None or not comps:
        raise ValueError("no scan found")
    return qts, huff, comps, h, w, restart_interval, scan, pos


def decode(data: bytes) -> np.ndarray:
    """Decode JFIF bytes → (h, w) uint8 or (h, w, 3) uint8. Baseline
    (SOF0) decodes here; progressive (SOF2) routes to the Annex-G
    decoder in kernels/jpeg_progressive.py."""
    arr = np.frombuffer(data, dtype=np.uint8)
    try:
        qts_z, huff_specs, comps, h, w, restart_interval, scan, pos = \
            _parse_headers(arr)
    except ValueError as e:
        if "0xC2" in str(e):
            from .jpeg_progressive import decode_progressive

            return decode_progressive(data)
        raise
    qts = {tq: z[UNZIGZAG].reshape(8, 8) for tq, z in qts_z.items()}
    huff = {k: _build_decode_lut(*spec) for k, spec in huff_specs.items()}

    bits = _unstuff(bytes(arr[pos:]))
    br = _BitReader(bits)

    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    mcux = (w + 8 * hmax - 1) // (8 * hmax)
    mcuy = (h + 8 * vmax - 1) // (8 * vmax)

    # per-component block grids
    comp_blocks = []
    for cid, hs, vs, tq in comps:
        comp_blocks.append(np.zeros((mcuy * vs, mcux * hs, 8, 8)))

    luts = {}
    for cs, td, ta in scan:
        ci = next(i for i, c in enumerate(comps) if c[0] == cs)
        luts[ci] = (huff[(0, td)], huff[(1, ta)])

    def read_symbol(lut):
        maxlen, lv, ll = lut
        win = br.peek(maxlen)
        v = int(lv[win])
        if v < 0:
            raise ValueError("invalid Huffman code")
        br.pos += int(ll[win])
        return v

    pred = [0] * len(comps)
    mcu_count = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_count and \
                    mcu_count % restart_interval == 0:
                # RST markers were stripped by _unstuff: realign to the
                # next byte boundary and reset DC predictors
                if br.pos % 8:
                    br.pos += 8 - (br.pos % 8)
                pred = [0] * len(comps)
            mcu_count += 1
            for ci, (cid, hs, vs, tq) in enumerate(comps):
                dlut, alut = luts[ci]
                for by in range(vs):
                    for bx in range(hs):
                        blk = np.zeros(64, dtype=np.int64)
                        size = read_symbol(dlut)
                        diff = _extend(br.read(size), size) if size else 0
                        pred[ci] += diff
                        blk[0] = pred[ci]
                        kpos = 1
                        while kpos < 64:
                            rs = read_symbol(alut)
                            r, s = rs >> 4, rs & 0xF
                            if s == 0:
                                if r == 15:
                                    kpos += 16
                                    continue
                                break  # EOB
                            kpos += r
                            if kpos > 63:
                                raise ValueError("AC run past block end")
                            blk[kpos] = _extend(br.read(s), s)
                            kpos += 1
                        co = blk[UNZIGZAG].reshape(8, 8) * qts[tq]
                        comp_blocks[ci][my * vs + by, mx * hs + bx] = co

    # IDCT all blocks per component at once, assemble planes, upsample
    planes = []
    for ci, (cid, hs, vs, tq) in enumerate(comps):
        cb = comp_blocks[ci]
        by, bx = cb.shape[:2]
        sp = _idct(cb.reshape(-1, 8, 8)) + 128.0
        plane = sp.reshape(by, bx, 8, 8).transpose(0, 2, 1, 3) \
            .reshape(by * 8, bx * 8)
        # upsample to full MCU canvas
        ry, rx = vmax // vs, hmax // hs
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, axis=0), rx, axis=1)
        planes.append(plane[: mcuy * vmax * 8, : mcux * hmax * 8])

    if len(planes) == 1:
        out = np.clip(np.round(planes[0][:h, :w]), 0, 255).astype(np.uint8)
        return out
    yy, cb, cr = (p[:h, :w] for p in planes)
    r = yy + 1.402 * (cr - 128.0)
    g = yy - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = yy + 1.772 * (cb - 128.0)
    return np.clip(np.round(np.stack([r, g, b], axis=-1)), 0, 255) \
        .astype(np.uint8)


def is_jpeg(data: bytes) -> bool:
    return len(data) >= 3 and data[0] == 0xFF and data[1] == 0xD8 \
        and data[2] == 0xFF


# --- batched lockstep decoder -------------------------------------------------
#
# The entropy scan is the one inherently sequential part of JPEG: symbol
# N's bit position depends on symbols 0..N-1. But restart intervals (and
# independent images) are sequential only WITHIN themselves — so decode
# a whole batch by running every restart segment of every image as one
# LANE of a lockstep machine. A lane's state is its bit position and its
# coefficient slot (block * 64 + k). Each spin decodes exactly one
# Huffman symbol for every live lane:
#   1. one 1-D gather of the lane's 64-bit window (built once per batch
#      for every 4-byte offset of the payload), shifted to its bit phase;
#   2. one gather of the packed table entry, indexed by the Huffman table
#      of the lane's slot (DC at k = 0, AC after) and the window's top 16
#      bits — the entry holds the bits consumed, amplitude size, write
#      offset and slot advance;
#   3. EXTEND of the amplitude: a 16-entry mask table by size, then one
#      lookup in a table indexed by mask + amplitude bits;
#   4. one scatter of DC differences and AC values together (a lane that
#      overran its segment or left its block writes to a dummy slot);
#   5. the slot advance k ← k + run + 1, clamped at the block end (ZRL
#      advances 16, EOB jumps to the next block), then lanes that
#      finished or failed leave the dense live-lane arrays.
# DC predictors are applied after the loop as one segmented cumsum.
# Iteration count = max symbols per segment, independent of batch size —
# so the per-image cost collapses as the batch widens. This is the decode
# shape a 100 TB image corpus needs inside map_batches: the scalar decoder
# pays Python per SYMBOL PER IMAGE; this pays Python per symbol per BATCH.

# Grow-only per-process scratch arena for decode_batch's large transient
# arrays (coefficients, bit windows, dequant, IDCT temporaries). Without
# it every call mallocs tens of MB that glibc mmap-returns to the OS on
# free, so the NEXT call faults fresh pages — on hosts whose first-touch
# page rate collapses (BASELINE.md pathology) that dominates decode wall
# time by >10×, and even on healthy hosts it wastes a page-zeroing pass
# per call. Long-lived Ray workers call decode_batch repeatedly with
# similar batch shapes, so buffers converge and stay warm. Peak size is
# bounded by the caller's batch size (EngineConfig.decode_batch_size).
# Not thread-safe — Ray workers run one task at a time; call from one
# thread per process.
_SCRATCH: dict = {}


def _scratch(name: str, shape, dtype) -> np.ndarray:
    n = 1
    for d in shape:
        n *= int(d)
    key = (name, np.dtype(dtype).str)
    buf = _SCRATCH.get(key)
    if buf is None or buf.size < n:
        grow = 0 if buf is None else buf.size * 2
        buf = np.empty(max(n, 1024, grow), dtype=dtype)
        _SCRATCH[key] = buf
    return buf[:n].reshape(shape)


# Packed Huffman entry (int64): bits consumed (code + amplitude) in bits
# 0-4, amplitude size in 5-8, write offset from the lane's slot in 9-15,
# slot advance from 16. An invalid prefix writes one block ahead, which
# the loop's block-crossing check turns into a lane failure.
_E_SIZE = 5
_E_WOFF = 9
_E_ADV = 16
_E_INVALID = 64 << _E_WOFF
# EXTEND (spec F.2.2.1) of the size-s amplitude v is _EXTEND[mask + v]
# with mask = 2^s - 1: v < 2^(s-1) → v - mask, else v (s = 0 → 0). Every
# value fits int16, so the loop scatters int16.
_AMP_MASK = (np.int64(1) << np.arange(16, dtype=np.int64)) - 1
_EXTEND = np.concatenate([
    np.where(v < (m + 1) >> 1, v - m, v)
    for m, v in ((int(m), np.arange(int(m) + 1)) for m in _AMP_MASK)
]).astype(np.int16)
_U48 = np.uint64(48)


def _build_packed(cls: int, bits, vals) -> np.ndarray:
    """Packed 16-bit-window decode table for one DHT spec (class 0 = DC,
    1 = AC). 16 is the spec's maximum code length, so one lookup always
    resolves a full code. A DC entry writes its difference at the slot
    and advances 1; an AC entry writes at slot + run and advances
    run + 1 (ZRL writes a zero at the slot and advances 16); EOB writes
    a zero at the slot and advances 64, i.e. to the next block once
    clamped at the block end. Canonical codes tile the window space in
    code order, a length-l code covering 2^(16-l) windows."""
    ln = np.repeat(np.arange(1, 17, dtype=np.int64), bits)
    if len(vals) < ln.size:
        raise ValueError("DHT lists fewer values than codes")
    v = np.asarray(vals[:ln.size], dtype=np.int64)
    if cls == 0:
        s, woff, adv = v, 0, 1
    else:
        r, s = v >> 4, v & 0xF
        woff = np.where(s > 0, r, 0)
        adv = np.where(s > 0, r + 1, np.where(r == 15, 16, 64))
    ent = np.where(s < 16,  # a DC size ≥ 16 has no 8-bit meaning: invalid
                   (ln + s) | (s << _E_SIZE) | (woff << _E_WOFF)
                   | (adv << _E_ADV), _E_INVALID)
    tab = np.full(1 << 16, _E_INVALID, dtype=np.int64)
    fill = np.repeat(ent, 1 << (16 - ln))[:1 << 16]  # an over-full spec clips
    tab[:fill.size] = fill
    return tab


def _scan_segments(tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy-coded bytes → (destuffed payload, start offset of each
    restart segment in it).

    One mask over the 0xFF positions: 0xFF00 drops the stuffed zero,
    RSTn closes a segment (marker dropped — each segment starts
    byte-aligned by spec), a second 0xFF is a fill byte, anything else
    (or a final 0xFF) ends the scan. Trailing empty segments (an RST
    right before EOI) carry no MCUs and are dropped."""
    n = len(tail)
    ff = np.flatnonzero(tail == 0xFF)
    nxt = tail[np.minimum(ff + 1, n - 1)]
    stuffed = nxt == 0x00
    rst = (nxt >= 0xD0) & (nxt <= 0xD7)
    fill = nxt == 0xFF
    stop = np.flatnonzero(~(stuffed | rst | fill) | (ff == n - 1))
    cut = stop[0] if stop.size else ff.size
    end = ff[cut] if stop.size else n
    ff, stuffed, rst, fill = ff[:cut], stuffed[:cut], rst[:cut], fill[:cut]
    keep = np.ones(end, dtype=bool)
    keep[ff[stuffed] + 1] = False
    keep[ff[rst]] = False
    keep[ff[rst] + 1] = False
    keep[ff[fill]] = False
    payload = tail[:end][keep]
    # a segment starts after its RST, less every byte dropped up to it
    dropped = np.cumsum(stuffed + fill + 2 * rst)
    starts = np.concatenate(([0], (ff + 2 - dropped)[rst]))
    nseg = max(1, int(np.count_nonzero(starts < payload.size)))
    return payload, starts[:nseg]


class _BatchPlan:
    """Per-image decode plan: geometry, per-block table schedule and the
    destuffed scan split into restart segments."""
    __slots__ = ("h", "w", "comps", "mcux", "mcuy", "hmax", "vmax",
                 "bpm", "nblocks", "t_comp", "t_dctab", "t_actab",
                 "t_qt", "restart_interval", "gray", "payload",
                 "seg_start")


def decode_batch(datas, strict: bool = True):
    """Decode MANY baseline JFIF byte strings at once → list of arrays
    ((h, w) or (h, w, 3) uint8, same results as ``decode`` bit-exactly).

    ``strict=False`` returns None for images that fail to parse or
    entropy-decode instead of raising — the quarantine contract of
    stages/encode.decode_images (one corrupt blob must not kill the
    batch)."""
    n = len(datas)
    plans: list[_BatchPlan | None] = [None] * n
    errors: list[Exception | None] = [None] * n
    prog_out: dict[int, np.ndarray] = {}

    # Huffman / QT registries shared across the batch (dedup by content —
    # a homogeneous corpus hits the same Annex-K tables in every image)
    tab_reg: dict[tuple, int] = {}
    tabs: list[np.ndarray] = []
    qt_reg: dict[bytes, int] = {}
    qt_tabs: list[np.ndarray] = []

    def _tab_base(cls: int, spec) -> int:
        """Offset of the (class, spec) packed table in this batch's
        stacked table array."""
        key = (cls, tuple(spec[0]), tuple(spec[1]))
        i = tab_reg.get(key)
        if i is None:
            i = len(tabs)
            tab_reg[key] = i
            tabs.append(_build_packed(cls, *spec))
        return i << 16

    def _qt_id(z: np.ndarray) -> int:
        key = z.tobytes()
        i = qt_reg.get(key)
        if i is None:
            i = len(qt_tabs)
            qt_reg[key] = i
            qt_tabs.append(z.astype(np.int32))
        return i

    for ii, data in enumerate(datas):
        try:
            try:  # zero-copy view (bytes / pyarrow.Buffer / memoryview)
                arr = np.frombuffer(data, dtype=np.uint8)
            except (TypeError, ValueError, BufferError):
                arr = np.frombuffer(bytes(data), dtype=np.uint8)
            qts_z, huff_specs, comps, h, w, ri, scan, pos = \
                _parse_headers(arr)
            pl = _BatchPlan()
            pl.h, pl.w, pl.comps = h, w, comps
            pl.gray = len(comps) == 1
            pl.hmax = max(c[1] for c in comps)
            pl.vmax = max(c[2] for c in comps)
            pl.mcux = (w + 8 * pl.hmax - 1) // (8 * pl.hmax)
            pl.mcuy = (h + 8 * pl.vmax - 1) // (8 * pl.vmax)
            pl.restart_interval = ri
            # per-MCU block template in scan order
            t_comp, t_dc, t_ac, t_qt = [], [], [], []
            by_id = {c[0]: ci for ci, c in enumerate(comps)}
            for cs, td, ta in scan:
                ci = by_id[cs]
                _, hs, vs, tq = comps[ci]
                nb = hs * vs
                t_comp += [ci] * nb
                t_dc += [_tab_base(0, huff_specs[(0, td)])] * nb
                t_ac += [_tab_base(1, huff_specs[(1, ta)])] * nb
                t_qt += [_qt_id(qts_z[tq])] * nb
            pl.bpm = len(t_comp)
            pl.nblocks = pl.mcux * pl.mcuy * pl.bpm
            pl.t_comp = np.array(t_comp, dtype=np.int64)
            pl.t_dctab = np.array(t_dc, dtype=np.int64)
            pl.t_actab = np.array(t_ac, dtype=np.int64)
            pl.t_qt = np.array(t_qt, dtype=np.int64)
            pl.payload, pl.seg_start = _scan_segments(arr[pos:])
            total_mcu = pl.mcux * pl.mcuy
            r = ri if ri else total_mcu
            expect = (total_mcu + r - 1) // r
            if len(pl.seg_start) != expect:
                raise ValueError(f"expected {expect} restart segments, "
                                 f"found {len(pl.seg_start)}")
            plans[ii] = pl
        except Exception as e:  # noqa: BLE001 — per-image quarantine
            if isinstance(e, ValueError) and "0xC2" in str(e):
                # progressive (SOF2): scalar Annex-G path — a real
                # corpus mixes baseline and progressive; the baseline
                # majority still rides the lockstep machine below
                from .jpeg_progressive import decode_progressive

                try:
                    prog_out[ii] = decode_progressive(bytes(data))
                    continue
                except Exception as e2:  # noqa: BLE001
                    e = e2
            if strict:
                raise
            errors[ii] = e

    live = [i for i in range(n) if plans[i] is not None]
    if not live:
        out0: list = [None] * n
        for ii, im in prog_out.items():
            out0[ii] = im
        return out0

    PACK = _scratch("pack", (len(tabs) << 16,), np.int64)
    for i, tab in enumerate(tabs):
        PACK[i << 16:(i + 1) << 16] = tab
    # QT registry in ZIGZAG order — dequantize before dezigzag
    QTZ = np.stack(qt_tabs)

    # global block tables (b_tab: the DC and AC table base of every
    # block) and per-lane (segment) bounds as bit positions and
    # coefficient slots — int64, like every table the lockstep loop
    # indexes: a cast there costs a fresh array per spin (the uint64
    # window crosses by zero-copy views)
    nb_tot = sum(plans[i].nblocks for i in live)
    b_comp = _scratch("b_comp", (nb_tot,), np.int64)
    b_qt = _scratch("b_qt", (nb_tot,), np.int64)
    b_tab = _scratch("b_tab", (nb_tot, 2), np.int64)
    img_block_off = {}
    off = 0
    byte_off = 0
    lanes: list[tuple] = []
    for i in live:
        pl = plans[i]
        img_block_off[i] = off
        reps = pl.mcux * pl.mcuy
        blk = slice(off, off + pl.nblocks)
        b_comp[blk] = np.tile(pl.t_comp, reps)
        b_qt[blk] = np.tile(pl.t_qt, reps)
        b_tab[blk, 0] = np.tile(pl.t_dctab, reps)
        b_tab[blk, 1] = np.tile(pl.t_actab, reps)
        r = pl.restart_interval if pl.restart_interval else reps
        seg = np.arange(len(pl.seg_start), dtype=np.int64)
        seg_end = np.append(pl.seg_start[1:], pl.payload.size)
        lanes.append(((byte_off + pl.seg_start) * 8,
                      (byte_off + seg_end) * 8,
                      (off + seg * r * pl.bpm) * 64,
                      (off + np.minimum((seg + 1) * r, reps) * pl.bpm) * 64))
        off += pl.nblocks
        byte_off += pl.payload.size
    bp, bend, slot, slot_end = (np.concatenate(c) for c in zip(*lanes))
    lane_lo, lane_hi = slot, slot_end
    b_tab = b_tab.reshape(-1)

    # every segment's payload back to back, then the big-endian 64-bit
    # window at every 4-byte offset (bytes 4j..4j+7): a window shifted
    # by its bit phase (< 32) still holds the 31 bits a symbol can use
    BUF = _scratch("BUF", (byte_off + 8,), np.uint8)
    BUF[byte_off:] = 0
    o = 0
    for i in live:
        p = plans[i].payload
        BUF[o:o + p.size] = p
        o += p.size
    W = _scratch("W", (byte_off // 4 + 1,), np.uint64)
    W[:] = np.ndarray(W.shape, dtype=">u8", buffer=BUF, strides=(4,))

    coef16 = _scratch("coef16", (nb_tot * 64 + 1,), np.int16)
    coef16[:] = 0  # warm-page fill, not a fresh np.zeros mmap
    dummy = nb_tot * 64  # write slot of failing lanes
    failed_at: list[np.ndarray] = []

    # --- the lockstep loop: one Huffman symbol per live lane per spin
    while bp.size:
        x = W[bp >> 5]
        x <<= (bp & 31).view(np.uint64)  # next unread bit at bit 63
        tab = slot >> 6
        tab <<= 1
        tab += (slot & 63) != 0  # the block's DC table at k = 0, AC after
        ix = b_tab[tab]
        ix |= (x >> _U48).view(np.int64)
        ent = PACK[ix]
        nbits = ent & 31
        mask = _AMP_MASK[(ent >> _E_SIZE) & 15]
        amp = (x >> (64 - nbits).view(np.uint64)).view(np.int64)
        amp &= mask
        amp += mask
        dst = slot + ((ent >> _E_WOFF) & 127)
        bp += nbits
        blk_last = slot | 63
        bad = (bp > bend) | (dst > blk_last)  # overran / left the block
        np.putmask(dst, bad, dummy)
        coef16[dst] = _EXTEND[amp]
        slot = np.minimum(slot + (ent >> _E_ADV), blk_last + 1)
        gone = bad | (slot >= slot_end)
        if gone.any():
            if bad.any():
                failed_at.append(slot_end[bad])
            keep = ~gone
            bp, bend, slot, slot_end = \
                bp[keep], bend[keep], slot[keep], slot_end[keep]

    coef = _scratch("coef", (nb_tot, 64), np.int64)
    coef.reshape(-1)[:] = coef16[:dummy]
    # DC predictors: a cumsum of the differences along each (lane,
    # component) chain, its blocks in scan order
    lane_of_block = np.repeat(np.arange(lane_lo.size), (lane_hi - lane_lo) >> 6)
    chain = lane_of_block * max(len(plans[i].comps) for i in live) + b_comp
    order = np.argsort(chain, kind="stable")
    chain = chain[order]
    head = np.ones(nb_tot, dtype=bool)
    head[1:] = chain[1:] != chain[:-1]
    diff = coef[order, 0]
    dc = np.cumsum(diff)
    coef[order, 0] = dc - (dc - diff)[head][np.cumsum(head) - 1]

    img_failed = np.zeros(n, dtype=bool)
    if failed_at:
        live_off = np.array([img_block_off[i] for i in live], np.int64)
        blk_f = (np.concatenate(failed_at) - 1) >> 6
        img_failed[np.asarray(live)[
            np.searchsorted(live_off, blk_f, side="right") - 1]] = True
    if strict and img_failed.any():
        raise ValueError(
            f"entropy decode failed for {int(img_failed.sum())} image(s)")

    # --- dequantize + dezigzag + IDCT, ALL blocks of ALL images at once
    # (every large temporary lives in the scratch arena: out= everywhere)
    qv = _scratch("qv", (nb_tot, 64), np.float64)
    np.take(QTZ.astype(np.float64), b_qt, axis=0, out=qv)
    np.multiply(coef, qv, out=qv)
    zz = _scratch("zz", (nb_tot, 64), np.float64)
    np.take(qv, UNZIGZAG, axis=1, out=zz)
    blocks = zz.reshape(-1, 8, 8)
    t1 = _scratch("t1", (nb_tot, 8, 8), np.float64)
    np.matmul(_B.T, blocks, out=t1)
    spatial = _scratch("spatial", (nb_tot, 8, 8), np.float64)
    np.matmul(t1, _B, out=spatial)
    spatial += 128.0

    # --- pixel assembly, vectorized across SAME-GEOMETRY images: a
    # homogeneous corpus collapses to a handful of grouped passes
    # (gather / upsample / YCbCr→RGB / quantize once per group, not per
    # image) instead of a Python loop per image
    out: list = [None] * n
    geo_groups: dict[tuple, list[int]] = {}
    for i in live:
        if img_failed[i]:
            continue
        pl = plans[i]
        key = (pl.h, pl.w, pl.gray, pl.bpm, pl.mcux, pl.mcuy,
               pl.hmax, pl.vmax,
               tuple((c[1], c[2]) for c in pl.comps))
        geo_groups.setdefault(key, []).append(i)
    for idxs in geo_groups.values():
        pl = plans[idxs[0]]
        offs = np.array([img_block_off[i] for i in idxs], dtype=np.int64)
        g = len(idxs)
        planes = []
        for ci, (cid, hs, vs, tq) in enumerate(pl.comps):
            nby, nbx = pl.mcuy * vs, pl.mcux * hs
            byg = np.arange(nby)[:, None]
            bxg = np.arange(nbx)[None, :]
            # offset of this component's first block inside an MCU
            comp_off = sum(c[1] * c[2] for c in pl.comps[:ci])
            rows = (((byg // vs) * pl.mcux + (bxg // hs)) * pl.bpm
                    + comp_off + (byg % vs) * hs + (bxg % hs))
            rows_g = offs[:, None, None] + rows[None, :, :]
            plane = spatial[rows_g].transpose(0, 1, 3, 2, 4) \
                .reshape(g, nby * 8, nbx * 8)
            ry, rx = pl.vmax // vs, pl.hmax // hs
            if ry > 1 or rx > 1:
                plane = np.repeat(np.repeat(plane, ry, axis=1), rx, axis=2)
            planes.append(plane[:, : pl.mcuy * pl.vmax * 8,
                                : pl.mcux * pl.hmax * 8])
        if len(planes) == 1:
            pix = np.clip(np.round(planes[0][:, : pl.h, : pl.w]),
                          0, 255).astype(np.uint8)
        else:
            yy, cb, cr = (p[:, : pl.h, : pl.w] for p in planes)
            r_ = yy + 1.402 * (cr - 128.0)
            g_ = yy - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
            b_ = yy + 1.772 * (cb - 128.0)
            pix = np.clip(np.round(np.stack([r_, g_, b_], axis=-1)),
                          0, 255).astype(np.uint8)
        for j, i in enumerate(idxs):
            out[i] = pix[j]
    for ii, im in prog_out.items():
        out[ii] = im
    return out
