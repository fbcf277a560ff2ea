"""Binary PNM image I/O: PPM (P6) for RGB, PGM (P5) for mosaics, PFM for floats.

8-bit files map to [0, 1] by dividing by 255 on read; writing quantizes with
round-half-up (floor(v * 255 + 0.5)) after clipping, so write(read(f)) == f
for any valid 8-bit file.  Only maxval 255 is supported.

PFM stores float32 scanlines bottom-to-top; the scale line's sign encodes
endianness and files are written little-endian (scale -1.0).  Malformed
content raises ImageFormatError, which is an OSError: corrupt and missing
files are the same failure class to callers.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ImageFormatError


def _quantize(img: np.ndarray) -> np.ndarray:
    v = np.clip(np.asarray(img, dtype=np.float64), 0.0, 1.0)
    return np.floor(v * 255.0 + 0.5).astype(np.uint8)


class _Scanner:
    """Whitespace/comment-aware tokenizer over header bytes."""

    def __init__(self, blob: bytes, path) -> None:
        self.blob = blob
        self.pos = 0
        self.path = path

    def fail(self, msg: str) -> ImageFormatError:
        return ImageFormatError(f"{self.path}: {msg}")

    def token(self) -> bytes:
        blob, n = self.blob, len(self.blob)
        while self.pos < n:
            ch = blob[self.pos:self.pos + 1]
            if ch == b"#":
                nl = blob.find(b"\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            elif ch.isspace():
                self.pos += 1
            else:
                break
        if self.pos >= n:
            raise self.fail("truncated header")
        start = self.pos
        while self.pos < n and not blob[self.pos:self.pos + 1].isspace():
            self.pos += 1
        return blob[start:self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise self.fail(f"bad {what}: {tok!r}") from None

    def body(self) -> bytes:
        # Exactly one whitespace byte separates the header from pixel data.
        if self.pos >= len(self.blob) or not self.blob[self.pos:self.pos + 1].isspace():
            raise self.fail("missing separator before pixel data")
        return self.blob[self.pos + 1:]


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    sc = _Scanner(blob, path)
    if sc.token() != magic:
        raise sc.fail(f"not a {magic.decode()} file")
    w = sc.int_token("width")
    h = sc.int_token("height")
    maxval = sc.int_token("maxval")
    if w < 1 or h < 1:
        raise sc.fail(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise sc.fail(f"unsupported maxval {maxval} (only 255)")
    data = sc.body()
    need = w * h * channels
    if len(data) < need:
        raise sc.fail(f"pixel data truncated: {len(data)} < {need} bytes")
    arr = np.frombuffer(data[:need], dtype=np.uint8).reshape(h, w, channels)
    return np.transpose(arr, (2, 0, 1)).astype(np.float64) / 255.0


def read_ppm(path) -> np.ndarray:
    """P6 file to RGB array (3, H, W) in [0, 1]."""
    return _read_pnm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    """P5 file to single-channel array (1, H, W) in [0, 1]."""
    return _read_pnm(path, b"P5", 1)


def _write_pnm(path, magic: bytes, img: np.ndarray) -> None:
    u8 = _quantize(img)
    c, h, w = u8.shape
    header = magic + b"\n%d %d\n255\n" % (w, h)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(np.transpose(u8, (1, 2, 0))).tobytes())


def write_ppm(path, img) -> None:
    """RGB (3, H, W) in [0, 1] to a P6 file, round-half-up quantization."""
    arr = np.asarray(img)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ContractError(f"write_ppm expects (3, H, W), got {arr.shape}")
    _write_pnm(path, b"P6", arr)


def write_pgm(path, img) -> None:
    """Single-channel (1, H, W) or (H, W) in [0, 1] to a P5 file."""
    arr = np.asarray(img)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] != 1:
        raise ContractError(f"write_pgm expects (1, H, W), got {arr.shape}")
    _write_pnm(path, b"P5", arr)


def read_pfm(path) -> np.ndarray:
    """PFM file to float64 array (1, H, W) or (3, H, W), exact float32 values."""
    with open(path, "rb") as fh:
        blob = fh.read()
    sc = _Scanner(blob, path)
    magic = sc.token()
    if magic not in (b"PF", b"Pf"):
        raise sc.fail(f"not a PFM file (magic {magic!r})")
    channels = 3 if magic == b"PF" else 1
    w = sc.int_token("width")
    h = sc.int_token("height")
    if w < 1 or h < 1:
        raise sc.fail(f"bad dimensions {w}x{h}")
    scale_tok = sc.token()
    try:
        scale = float(scale_tok)
    except ValueError:
        raise sc.fail(f"bad scale {scale_tok!r}") from None
    if scale == 0:
        raise sc.fail("scale must be non-zero")
    dt = "<f4" if scale < 0 else ">f4"
    data = sc.body()
    need = w * h * channels * 4
    if len(data) < need:
        raise sc.fail(f"pixel data truncated: {len(data)} < {need} bytes")
    arr = np.frombuffer(data[:need], dtype=dt).reshape(h, w, channels)
    arr = np.transpose(arr[::-1], (2, 0, 1))  # rows are stored bottom-to-top
    return arr.astype(np.float64)


def write_pfm(path, img) -> None:
    """(1|3, H, W) float array to a little-endian PFM file."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise ContractError(f"write_pfm expects (1|3, H, W), got {arr.shape}")
    c, h, w = arr.shape
    magic = b"PF" if c == 3 else b"Pf"
    rows = np.ascontiguousarray(np.transpose(arr, (1, 2, 0))[::-1].astype("<f4"))
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n-1.0\n" % (w, h))
        fh.write(rows.tobytes())


def read_image(path) -> tuple:
    """Read any supported format by magic; returns (array, kind).

    kind is one of "ppm", "pgm", "pfm"; the array is (C, H, W) float64.
    """
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"P6":
        return read_ppm(path), "ppm"
    if head == b"P5":
        return read_pgm(path), "pgm"
    if head in (b"PF", b"Pf"):
        return read_pfm(path), "pfm"
    raise ImageFormatError(f"{path}: unrecognized image magic {head!r}")
