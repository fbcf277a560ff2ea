"""Property-based checks of the inputs that come from outside the program:
image headers, ``--config`` files and checkpoint bytes.

Runs are derandomized and keep no example database, so they are reproducible.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from demosaick.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from demosaick.cli import EvalConfig, main  # noqa: E402
from demosaick.errors import CheckpointError, ContractError, ImageFormatError  # noqa: E402
from demosaick.imageio import (  # noqa: E402
    read_image, read_pfm, read_pgm, read_ppm, write_pfm, write_pgm, write_ppm)
from demosaick.losses import LossConfig  # noqa: E402
from demosaick.model import ModelConfig, build_model, tiny_config  # noqa: E402
from demosaick.training import TrainConfig  # noqa: E402


def _settings(examples: int):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


# -- image readers -------------------------------------------------------------

MAGICS = (b"P6", b"P5", b"PF", b"Pf")
READERS = (read_ppm, read_pgm, read_pfm, read_image)

# header-like bytes, so that examples reach the checks past the magic
_header_bytes = st.lists(st.sampled_from(
    [b" ", b"\n", b"\t", b"\r", b"#", b"# c\n", b"0", b"1", b"7", b"255", b"-1.0", b"-",
     b".", b"e", b"nan", b"inf", b"\x00", b"\xff"]), max_size=16).map(b"".join)


@_settings(400)
@given(magic=st.sampled_from(MAGICS), tail=st.binary(max_size=64) | _header_bytes)
def test_readers_raise_only_documented_errors(workdir, magic, tail):
    path = workdir / "any.img"
    path.write_bytes(magic + tail)
    for read in READERS:
        try:
            read(path)
        except (ImageFormatError, ContractError):
            pass


_space = st.sampled_from([bytes([b]) for b in b" \t\n\r\x0b\x0c"])
# '#' to the end of its line; a '\r' does not end a comment
_comment = st.binary(max_size=12).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
_gap = st.lists(_space | _comment, max_size=4).map(b"".join)


@_settings(400)
@given(data=st.data(), magic=st.sampled_from(MAGICS),
       w=st.integers(1, 4), h=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_header_whitespace_and_comments_leave_pixels_unchanged(workdir, data, magic, w, h, seed):
    channels = 3 if magic in (b"P6", b"PF") else 1
    img = np.random.default_rng(seed).random((channels, h, w))
    path = workdir / "plain.img"
    {b"P6": write_ppm, b"P5": write_pgm}.get(magic, write_pfm)(path, img)
    blob = path.read_bytes()
    # the writers emit the four fields, one separator byte each, then the pixels
    fields = blob.split(maxsplit=4)[:4]
    body = blob[sum(len(f) + 1 for f in fields):]
    # a comment may open the file; before any later field, whitespace comes
    # first, since a '#' glued to a field is part of it
    out = data.draw(_gap)
    for k, f in enumerate(fields):
        if k:
            out += data.draw(_space) + data.draw(_gap)
        out += f
    out += data.draw(_space) + body
    spaced = workdir / "spaced.img"
    spaced.write_bytes(out)
    want, kind = read_image(path)
    got, got_kind = read_image(spaced)
    assert got_kind == kind
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- --config sections -----------------------------------------------------------

_FIELDS = sorted({"preset"} | {f.name for c in (ModelConfig, TrainConfig, LossConfig, EvalConfig)
                               for f in dataclasses.fields(c)})
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def dataset(workdir):
    data = workdir / "data"
    data.mkdir()
    write_ppm(data / "a.ppm", np.random.default_rng(0).random((3, 16, 16)))
    return data


@_settings(150)
@given(section=st.sampled_from(["model", "train", "loss", "eval"]), value=_json)
def test_any_config_section_gives_an_exit_code(workdir, dataset, section, value):
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps({section: value}))
    # eval runs on one 16x16 image; train stops at its missing dataset, after
    # every section has been resolved
    for argv in (["eval", "--dataset", str(dataset), "--nn"],
                 ["train", "--dataset", str(workdir / "missing")]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv + ["--out", str(workdir / "out"), "--config", str(cfg)])
        assert code in range(5), (argv[0], value)


# -- checkpoint bytes ------------------------------------------------------------

@pytest.fixture(scope="module")
def checkpoint_bytes(workdir):
    path = workdir / "good.ckpt"
    save_checkpoint(build_model(tiny_config(), seed=0), path, meta={"step": 3})
    return path.read_bytes()


# a tiny checkpoint's header line is about 11 kB of its 650 kB; most edits land there
@_settings(200)
@given(edits=st.lists(st.tuples(st.sampled_from(["flip", "cut", "insert"]),
                                st.integers(0, 12000) | st.integers(0, 2**31), st.binary(max_size=3)),
                      min_size=1, max_size=3))
def test_mutated_checkpoint_raises_only_documented_errors(workdir, checkpoint_bytes, edits):
    blob = checkpoint_bytes
    for how, pos, extra in edits:
        pos %= len(blob) + 1
        if how == "flip" and pos < len(blob):
            blob = blob[:pos] + bytes([blob[pos] ^ (extra or b"\x01")[0]]) + blob[pos + 1:]
        elif how == "cut":
            blob = blob[:pos]
        else:
            blob = blob[:pos] + extra + blob[pos:]
    path = workdir / "mutant.ckpt"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except (CheckpointError, OSError):
        pass
