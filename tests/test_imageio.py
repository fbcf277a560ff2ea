"""PNM/PFM round trips, quantization rule, header tokenizing, error class."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from demosaick import imageio
from demosaick.errors import ContractError, ImageFormatError
from demosaick.imageio import (read_image, read_pfm, read_pgm, read_ppm,
                               write_pfm, write_pgm, write_ppm)


def test_ppm_write_read_roundtrip_on_8bit_grid(tmp_path):
    # Values on the exact 8-bit lattice survive write -> read unchanged.
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(3, 7, 5)).astype(np.float64) / 255.0
    p = tmp_path / "a.ppm"
    write_ppm(p, img)
    back = read_ppm(p)
    assert back.shape == (3, 7, 5)
    assert np.array_equal(back, img)


def test_ppm_file_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(3, 4, 6)).astype(np.float64) / 255.0
    p1 = tmp_path / "a.ppm"
    p2 = tmp_path / "b.ppm"
    write_ppm(p1, img)
    write_ppm(p2, read_ppm(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_quantization_rounds_half_up_and_clips(tmp_path):
    # floor(255 v + 0.5): exactly representable midpoints round upward, and
    # out-of-range values clip before quantizing.
    vals = np.array([[-0.5, 0.0, 0.5 / 255.0, 1.0 / 255.0, 1.49 / 255.0,
                      1.5 / 255.0, 0.999, 1.0, 2.0]])
    p = tmp_path / "q.pgm"
    write_pgm(p, vals)
    raw = p.read_bytes()
    body = raw.split(b"255\n", 1)[1]
    assert list(body) == [0, 0, 1, 1, 1, 2, 255, 255, 255]


def test_pgm_roundtrip_and_2d_input(tmp_path):
    img = np.arange(12, dtype=np.float64).reshape(3, 4) / 255.0
    p = tmp_path / "m.pgm"
    write_pgm(p, img)
    back = read_pgm(p)
    assert back.shape == (1, 3, 4)
    assert np.array_equal(back[0], img)


def test_pnm_header_comments_and_whitespace(tmp_path):
    body = bytes(range(6))
    blob = b"P5 # comment right after magic\n# full comment line\n  3\n\t2 # w h\n255\n" + body
    p = tmp_path / "c.pgm"
    p.write_bytes(blob)
    arr = read_pgm(p)
    assert arr.shape == (1, 2, 3)
    assert np.array_equal(arr, np.arange(6).reshape(1, 2, 3) / 255.0)


def test_pnm_rejects_nonstandard_maxval(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ImageFormatError, match="maxval"):
        read_pgm(p)


@pytest.mark.parametrize("blob,msg", [
    (b"P6\n", "truncated header"),
    (b"P6\nxx 3\n255\n" + bytes(27), "bad width"),
    (b"P6\n0 3\n255\n", "bad dimensions"),
    (b"P6\n3 3\n255\n" + bytes(5), "truncated"),
    (b"P5\n2 2\n255\n" + bytes(4), "not a P6"),
])
def test_ppm_malformed_raises_image_format_error(tmp_path, blob, msg):
    p = tmp_path / "bad.ppm"
    p.write_bytes(blob)
    with pytest.raises(ImageFormatError, match=msg):
        read_ppm(p)


def test_write_contracts():
    with pytest.raises(ContractError, match="write_ppm"):
        write_ppm("/tmp/never.ppm", np.zeros((1, 4, 4)))
    with pytest.raises(ContractError, match="write_pgm"):
        write_pgm("/tmp/never.pgm", np.zeros((3, 4, 4)))
    with pytest.raises(ContractError, match="write_pfm"):
        write_pfm("/tmp/never.pfm", np.zeros((2, 4, 4)))


def test_pfm_roundtrip_gray_and_rgb(tmp_path):
    rng = np.random.default_rng(2)
    gray = rng.standard_normal((1, 5, 4)).astype(np.float32).astype(np.float64)
    rgb = rng.standard_normal((3, 4, 7)).astype(np.float32).astype(np.float64)
    pg = tmp_path / "g.pfm"
    pc = tmp_path / "c.pfm"
    write_pfm(pg, gray)
    write_pfm(pc, rgb)
    assert np.array_equal(read_pfm(pg), gray)
    assert np.array_equal(read_pfm(pc), rgb)


def test_pfm_header_and_row_order(tmp_path):
    # Scanlines are stored bottom-to-top, little-endian when scale < 0.
    img = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # (1, 2, 2), row 0 = top
    p = tmp_path / "o.pfm"
    write_pfm(p, img)
    raw = p.read_bytes()
    assert raw.startswith(b"Pf\n2 2\n-1.0\n")
    pix = np.frombuffer(raw.split(b"-1.0\n", 1)[1], dtype="<f4")
    assert pix.tolist() == [3.0, 4.0, 1.0, 2.0]  # bottom row first


def test_pfm_big_endian_scale_is_honored(tmp_path):
    vals = np.array([1.5, -2.25, 0.0, 8.0], dtype=">f4")
    p = tmp_path / "be.pfm"
    p.write_bytes(b"Pf\n2 2\n1.0\n" + vals.tobytes())
    arr = read_pfm(p)
    assert arr.shape == (1, 2, 2)
    assert arr[0].tolist() == [[0.0, 8.0], [1.5, -2.25]]


@pytest.mark.parametrize("blob,msg", [
    (b"PX\n2 2\n-1.0\n" + bytes(16), "not a PFM"),
    (b"Pf\n2 2\n0\n" + bytes(16), "non-zero"),
    (b"Pf\n2 2\nabc\n" + bytes(16), "bad scale"),
    (b"Pf\n2 2\n-1.0\n" + bytes(10), "truncated"),
])
def test_pfm_malformed_raises(tmp_path, blob, msg):
    p = tmp_path / "bad.pfm"
    p.write_bytes(blob)
    with pytest.raises(ImageFormatError, match=msg):
        read_pfm(p)


@pytest.mark.parametrize("header", [b"Pf\n-4 2\n-1.0\n", b"Pf\n0 2\n-1.0\n"])
def test_pfm_rejects_non_positive_dimensions(tmp_path, header):
    p = tmp_path / "bad.pfm"
    p.write_bytes(header + bytes(32))
    with pytest.raises(ImageFormatError, match="bad dimensions"):
        read_pfm(p)


def test_read_image_sniffs_magic(tmp_path):
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, size=(3, 3, 3)).astype(np.float64) / 255.0
    gray = rng.integers(0, 256, size=(1, 3, 3)).astype(np.float64) / 255.0
    flt = rng.standard_normal((3, 3, 3)).astype(np.float32).astype(np.float64)
    write_ppm(tmp_path / "a.ppm", rgb)
    write_pgm(tmp_path / "a.pgm", gray)
    write_pfm(tmp_path / "a.pfm", flt)
    for name, kind, ref in [("a.ppm", "ppm", rgb), ("a.pgm", "pgm", gray),
                            ("a.pfm", "pfm", flt)]:
        arr, got_kind = read_image(tmp_path / name)
        assert got_kind == kind
        assert np.array_equal(arr, ref)
    (tmp_path / "junk.bin").write_bytes(b"GIF89a....")
    with pytest.raises(ImageFormatError, match="magic"):
        read_image(tmp_path / "junk.bin")


def test_image_format_error_is_oserror(tmp_path):
    assert issubclass(ImageFormatError, OSError)
    with pytest.raises(OSError):
        read_ppm(tmp_path / "missing.ppm")


# SHA-256 of the files the writers write and of the arrays read back: the
# formats' bytes, and the layouts that later sums round by, must not move
WRITTEN = {
    "a.ppm": "e5199c4d1ec8f18f939ce72ae065b4f321df0e623b135b4072e4a58866a434e8",
    "a.pgm": "a02083b042ae387e65d2d1f6d333d6e079d86a90c2bc7bb7ccfdc1354b5a8803",
    "a.pfm": "322183329454726c4dec63dc8c630486ef4322694815a21d7da5a80952180c20",
    "g.pfm": "ffd989b091b429f5097b1ad8ac40e2130cd94179810bd22946bf77fc672f68b2",
}
# name -> (kind, shape, strides, SHA-256 of the array's bytes); the 3-channel
# arrays come back channels-last in memory
READ = {
    "a.ppm": ("ppm", (3, 5, 7), (8, 168, 24),
              "2fcd8b06104e9a97f42179e8bd0642c0c3e1f1a8eb5aa14d09dc08164ec1061d"),
    "a.pgm": ("pgm", (1, 5, 7), (280, 56, 8),
              "de55fc397f05f874dfd65c1a10a60d927abc18b3518359c982b56c6b71c90f4b"),
    "a.pfm": ("pfm", (3, 5, 7), (8, 168, 24),
              "501efb0e8d28fc957e1f12e8e9feea7203b1802a7d4ea44678638c06d0bf3d74"),
    "g.pfm": ("pfm", (1, 5, 7), (56, 56, 8),
              "765dd8d77c2edbca497e651e2398044643d5fdee70580bf0f2d44a6335a67eed"),
    "be.pfm": ("pfm", (3, 5, 7), (8, 168, 24),
               "9e97716c0773e4bd93a30b5844f8794b593715a42f09655184880ac896ddc82f"),
}


def _pinned_files(tmp_path):
    rng = np.random.default_rng(11)
    rgb = rng.random((3, 5, 7)) * 1.2 - 0.1  # some values out of [0, 1]
    write_ppm(tmp_path / "a.ppm", rgb)
    write_pgm(tmp_path / "a.pgm", rgb[1])
    write_pfm(tmp_path / "a.pfm", rgb.astype(np.float32))
    write_pfm(tmp_path / "g.pfm", rgb[:1])
    (tmp_path / "be.pfm").write_bytes(b"PF\n7 5\n2.5\n"
                                      + rgb.astype(">f4").transpose(1, 2, 0).tobytes())


def test_files_and_arrays_are_pinned(tmp_path):
    _pinned_files(tmp_path)
    for name, digest in WRITTEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    readers = {"ppm": read_ppm, "pgm": read_pgm, "pfm": read_pfm}
    for name, (kind, shape, strides, digest) in READ.items():
        arr, got_kind = read_image(tmp_path / name)
        for a in (arr, readers[kind](tmp_path / name)):
            assert (got_kind, a.dtype, a.shape, a.strides) == (kind, np.float64, shape, strides)
            assert hashlib.sha256(a.tobytes()).hexdigest() == digest, name


def test_read_image_opens_its_file_once(tmp_path, monkeypatch):
    _pinned_files(tmp_path)
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(imageio, "open", spy, raising=False)
    for name in READ:
        opened.clear()
        read_image(tmp_path / name)
        assert opened == [tmp_path / name]


def test_read_image_skips_what_the_readers_skip_before_the_magic(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"# made by hand\n P5 2 1 255\n" + bytes([0, 255]))
    arr, kind = read_image(p)
    assert kind == "pgm" and np.array_equal(arr, read_pgm(p))


def test_read_pfm_does_not_copy_the_payload(tmp_path):
    p = tmp_path / "big.pfm"
    write_pfm(p, np.zeros((3, 512, 512)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        read_pfm(p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 3 MiB of file and 6 MiB of float64; a copy of the payload made it 12
    assert peak < 10 << 20, f"{peak / 2 ** 20:.2f} MiB"


def test_writing_quantizes_in_one_working_copy(tmp_path):
    img = np.random.default_rng(12).uniform(-0.2, 1.2, (3, 512, 512))
    before = img.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_ppm(tmp_path / "big.ppm", img)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 6 MiB of float64 and 0.75 MiB of bytes; clip, scale and floor each
    # building a full-size float64 array made it 18
    assert peak < 8 << 20, f"{peak / 2 ** 20:.2f} MiB"
    assert img.tobytes() == before.tobytes()  # the caller's array is left alone
    assert np.array_equal(read_ppm(tmp_path / "big.ppm"),
                          np.floor(np.clip(before, 0.0, 1.0) * 255.0 + 0.5) / 255.0)
