"""Seeded mutations of every file reader: each either loads or raises its
documented error class, and none runs long.

A checkpoint raises CheckpointError (exit 3 in the CLI); PPM, PGM and PFM
files raise ImageFormatError (exit 2). A mutant that is still a valid file,
say a flipped pixel byte, loads.
"""

import contextlib
import signal

import numpy as np
import pytest

from demosaick import cfa
from demosaick.checkpoint import load_checkpoint_bundle, save_checkpoint
from demosaick.errors import CheckpointError, ImageFormatError
from demosaick.imageio import read_pfm, read_pgm, read_ppm, write_pfm, write_pgm, write_ppm
from demosaick.model import build_model, tiny_config

MUTANTS = 300   # per file: a third each of bit flips, truncations and inserted digits
BOUND_S = 5.0   # per read; a tiny checkpoint loads in ~0.04 s


@contextlib.contextmanager
def _deadline(seconds: float, what: str):
    def expire(signum, frame):
        raise TimeoutError(f"{what} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _mutants(blob: bytes, header_lines: int, rng: np.random.Generator):
    """(kind, bytes) pairs: a flipped bit anywhere, a truncation anywhere, or a
    digit inserted before a digit of the header, which makes a number larger."""
    header = sum(len(line) + 1 for line in blob.split(b"\n", header_lines)[:header_lines])
    digits = [i for i in range(header) if blob[i:i + 1].isdigit()]
    for k in range(MUTANTS):
        if k % 3 == 0:
            pos = int(rng.integers(len(blob)))
            flipped = blob[pos] ^ (1 << int(rng.integers(8)))
            yield "flip", blob[:pos] + bytes([flipped]) + blob[pos + 1:]
        elif k % 3 == 1:
            yield "truncation", blob[:int(rng.integers(len(blob)))]
        else:
            pos = digits[int(rng.integers(len(digits)))]
            yield "digit", blob[:pos] + str(int(rng.integers(10))).encode() + blob[pos:]


def _write(kind: str, path):
    """A valid file of ``kind`` at ``path``; returns its reader, error class and header lines."""
    if kind == "checkpoint":
        save_checkpoint(build_model(tiny_config(), seed=0), path, meta={"step": 3})
        return load_checkpoint_bundle, CheckpointError, 1
    img = np.random.default_rng(0).random((3, 24, 24))
    write, read = {"ppm": (write_ppm, read_ppm), "pgm": (write_pgm, read_pgm),
                   "pfm": (write_pfm, read_pfm)}[kind]
    write(path, cfa.mosaic(img) if kind == "pgm" else img)
    return read, ImageFormatError, 3


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("kind", ["checkpoint", "ppm", "pgm", "pfm"])
def test_mutated_files_load_or_raise_the_documented_error_in_bounded_time(tmp_path, kind):
    path = tmp_path / f"good.{kind}"
    reader, error, header_lines = _write(kind, path)
    blob = path.read_bytes()
    rng = np.random.default_rng({"checkpoint": 1, "ppm": 2, "pgm": 3, "pfm": 4}[kind])
    raised = 0
    for n, (how, mutant) in enumerate(_mutants(blob, header_lines, rng)):
        bad = tmp_path / f"mutant.{kind}"
        bad.write_bytes(mutant)
        with _deadline(BOUND_S, f"{kind} mutant {n} ({how})"):
            try:
                reader(bad)
            except error:
                raised += 1
            except Exception as exc:  # the deadline's TimeoutError too
                pytest.fail(f"{kind} mutant {n} ({how}) raised {exc!r}")
    assert raised >= MUTANTS // 3  # at least the truncations past the header
