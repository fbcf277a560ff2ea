"""Binary PNM image I/O: PPM (P6) for RGB, PGM (P5) for mosaics, PFM for floats.

8-bit files map to [0, 1] by dividing by 255 on read; writing quantizes with
round-half-up (floor(v * 255 + 0.5)) after clipping, so write(read(f)) == f
for any valid 8-bit file.  Only maxval 255 is supported.

PFM stores float32 scanlines bottom-to-top; the scale line's sign encodes
endianness and files are written little-endian (scale -1.0).  Malformed
content raises ImageFormatError, which is an OSError: corrupt and missing
files are the same failure class to callers.

One reader parses every format, reading its file once: a table maps the
magic to the channel count and pixel dtype.  A header is a run of fields,
each preceded by any whitespace and ``#`` comments (a comment runs to the
next newline) and ending at the next whitespace byte; a ``#`` glued to a field
is part of that field, so ``P5#c`` is not a P5 file.  Exactly one whitespace
byte separates the last field from the pixel data.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ContractError, ImageFormatError


def _quantize(img: np.ndarray) -> np.ndarray:
    """Round half up to 8 bits in one float64 working copy of ``img``."""
    v = np.array(img, dtype=np.float64)
    np.clip(v, 0.0, 1.0, out=v)
    v *= 255.0
    v += 0.5
    return np.floor(v, out=v).astype(np.uint8)


# one header field, empty only at the end of the file
_FIELD = re.compile(rb"(?:\s|#[^\n]*\n?)*(\S*)")


# magic -> (kind, channels, pixel dtype); a PFM's scale gives its byte order
_FORMATS = {b"P6": ("ppm", 3, "u1"), b"P5": ("pgm", 1, "u1"),
            b"PF": ("pfm", 3, "f4"), b"Pf": ("pfm", 1, "f4")}


def _read(path, magics, wrong: str) -> tuple:
    """(array, kind) of a file whose magic is one of ``magics``; ``wrong``
    formats the error for any other magic."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def fail(msg: str) -> ImageFormatError:
        return ImageFormatError(f"{path}: {msg}")

    def field(parse=bytes, bad: str = ""):
        nonlocal pos
        m = _FIELD.match(blob, pos)
        tok, pos = m[1], m.end()
        if not tok:
            raise fail("truncated header")
        try:
            return parse(tok)
        except ValueError:
            raise fail(f"{bad}{tok!r}") from None

    magic = field()
    if magic not in magics:
        raise fail(wrong.format(magic))
    kind, channels, dtype = _FORMATS[magic]
    w = field(int, "bad width: ")
    h = field(int, "bad height: ")
    # a PNM's third field, its maxval, is parsed before the dimensions are checked
    maxval = 255 if kind == "pfm" else field(int, "bad maxval: ")
    if w < 1 or h < 1:
        raise fail(f"bad dimensions {w}x{h}")
    if maxval != 255:
        raise fail(f"unsupported maxval {maxval} (only 255)")
    if kind == "pfm":  # a PFM's third field is its scale
        scale = field(float, "bad scale ")
        if scale == 0:
            raise fail("scale must be non-zero")
        dtype = ("<" if scale < 0 else ">") + dtype
    # exactly one whitespace byte separates the header from the pixel data
    if not blob[pos:pos + 1].isspace():
        raise fail("missing separator before pixel data")
    data = memoryview(blob)[pos + 1:]
    count, size = w * h * channels, np.dtype(dtype).itemsize
    if len(data) < count * size:
        raise fail(f"pixel data truncated: {len(data)} < {count * size} bytes")
    arr = np.frombuffer(data, dtype, count).reshape(h, w, channels)
    if kind == "pfm":  # rows are stored bottom-to-top
        return np.transpose(arr[::-1], (2, 0, 1)).astype(np.float64), kind
    return np.transpose(arr, (2, 0, 1)).astype(np.float64) / 255.0, kind


def read_ppm(path) -> np.ndarray:
    """P6 file to RGB array (3, H, W) in [0, 1]."""
    return _read(path, (b"P6",), "not a P6 file")[0]


def read_pgm(path) -> np.ndarray:
    """P5 file to single-channel array (1, H, W) in [0, 1]."""
    return _read(path, (b"P5",), "not a P5 file")[0]


def read_pfm(path) -> np.ndarray:
    """PFM file to float64 array (1, H, W) or (3, H, W), exact float32 values."""
    return _read(path, (b"PF", b"Pf"), "not a PFM file (magic {!r})")[0]


def read_image(path) -> tuple:
    """Read any supported format by magic; returns (array, kind).

    kind is one of "ppm", "pgm", "pfm"; the array is (C, H, W) float64.
    """
    return _read(path, _FORMATS, "unrecognized image magic {!r}")


def _shaped(img, channels: tuple, name: str, dtype=None) -> np.ndarray:
    """``img`` as a (C, H, W) array with C in ``channels``; (H, W) is one channel."""
    arr = np.asarray(img, dtype=dtype)
    if arr.ndim == 2 and 1 in channels:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in channels:
        raise ContractError(f"{name} expects ({'|'.join(map(str, channels))}, H, W), "
                            f"got {arr.shape}")
    return arr


def _write(path, magic: bytes, third: bytes, chw: np.ndarray) -> None:
    """Header, then the pixels of the (C, H, W) array ``chw``, channels interleaved."""
    _, h, w = chw.shape
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n%s\n" % (w, h, third))
        fh.write(np.ascontiguousarray(np.transpose(chw, (1, 2, 0))))


def write_ppm(path, img) -> None:
    """RGB (3, H, W) in [0, 1] to a P6 file, round-half-up quantization."""
    _write(path, b"P6", b"255", _quantize(_shaped(img, (3,), "write_ppm")))


def write_pgm(path, img) -> None:
    """Single-channel (1, H, W) or (H, W) in [0, 1] to a P5 file."""
    _write(path, b"P5", b"255", _quantize(_shaped(img, (1,), "write_pgm")))


def write_pfm(path, img) -> None:
    """(1|3, H, W) float array to a little-endian PFM file."""
    arr = _shaped(img, (1, 3), "write_pfm", np.float64)
    # rows are stored bottom-to-top
    _write(path, b"PF" if arr.shape[0] == 3 else b"Pf", b"-1.0", arr[:, ::-1].astype("<f4"))
