"""Checkpoint serialization: one JSON header line plus a raw binary payload.

Layout: ``header_json + b"\\n" + payload``.  The header is canonical JSON
(sorted keys, compact separators) carrying the format tag, version, dtype,
model config, parameter index (name, shape, byte offset), an index of extra
arrays (optimizer state), free-form JSON metadata, and a checksum.  The
payload is the concatenation of all arrays as little-endian bytes in index
order.  The checksum is the first 16 hex digits of SHA-256 over the payload,
so a truncated or corrupted file fails loudly instead of producing a model.

Saving a freshly loaded checkpoint reproduces the original file byte for
byte: the header is canonical and arrays round-trip exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from .errors import (
    CheckpointChecksumError,
    CheckpointConfigError,
    CheckpointError,
    CheckpointVersionError,
)
from .model import DemosaickModel, ModelConfig, _skeleton

FORMAT_TAG = "demosaick-checkpoint"
VERSION = 1

# the header's dtype name -> the payload's little-endian array format
_WIRE = {"float32": "<f4", "float64": "<f8"}


def _checksum(digest) -> str:
    return digest.hexdigest()[:16]


def save_checkpoint(model: DemosaickModel, path, extra_arrays: dict | None = None,
                    meta: dict | None = None) -> None:
    """Write model parameters, optional extra arrays, and metadata to ``path``.

    The arrays are hashed and then written one by one, so no copy of the
    whole payload is ever built.
    """
    name = np.dtype(model.dtype).name
    arrays: list[np.ndarray] = []
    digest = hashlib.sha256()
    offset = 0

    def push(arr: np.ndarray) -> int:
        nonlocal offset
        raw = np.ascontiguousarray(arr, dtype=_WIRE[name])
        arrays.append(raw)
        digest.update(raw)
        start = offset
        offset += raw.nbytes
        return start

    params = []
    for leaf in model.leaves():
        params.append([leaf.name, list(leaf.value.shape), push(leaf.value.data)])
    extras = []
    for key in sorted(extra_arrays or {}):
        arr = np.asarray((extra_arrays or {})[key])
        extras.append([key, list(arr.shape), push(arr)])

    header = {
        "format": FORMAT_TAG,
        "version": VERSION,
        "dtype": name,
        "config": model.config.to_dict(),
        "params": params,
        "extra": extras,
        "meta": meta or {},
        "checksum": _checksum(digest),
    }
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n")
        for raw in arrays:
            fh.write(raw)
    os.replace(tmp, path)


def _read(path) -> tuple:
    """(header, params, extras): the payload after the header line, read once
    into two writable byte buffers split where the extra arrays begin. A
    loaded model's leaves view the first, so they keep no optimizer state alive.
    A header whose array index or metadata is malformed raises CheckpointError."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise CheckpointError(f"{path}: no header line found")
        try:
            header = json.loads(line[:-1].decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: malformed header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
            raise CheckpointError(f"{path}: not a {FORMAT_TAG} file")
        if header.get("version") != VERSION:
            raise CheckpointVersionError(
                f"{path}: unsupported checkpoint version {header.get('version')!r}, expected {VERSION}")
        for key, index in (("params", header.get("params")), ("extra", header.get("extra", []))):
            if not isinstance(index, list) or not all(
                    isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
                    and isinstance(e[1], list)
                    and all(type(v) is int and v >= 0 for v in e[1] + e[2:]) for e in index):
                raise CheckpointError(f"{path}: malformed {key!r} index, expected a list of "
                                      "[name, [count, ...], offset] entries")
        if not isinstance(header.get("meta", {}), dict):
            raise CheckpointError(f"{path}: malformed 'meta', expected an object")
        size = os.fstat(fh.fileno()).st_size - len(line)
        split = max(0, min([size] + [off for _, _, off in header.get("extra", [])]))
        digest = hashlib.sha256()
        parts = []
        for nbytes in (split, size - split):
            buf = np.empty(nbytes, dtype=np.uint8)
            buf = buf[:fh.readinto(buf)]
            digest.update(buf)
            parts.append(buf)
    if _checksum(digest) != header.get("checksum"):
        raise CheckpointChecksumError(f"{path}: payload checksum mismatch (file truncated or corrupted)")
    return header, parts[0], parts[1]


def _unpack(buf: np.ndarray, base: int, index, wire: str) -> dict:
    """The arrays of ``index`` as views of ``buf``, the payload bytes from offset ``base``."""
    out = {}
    dtype = np.dtype(wire)
    for name, shape, off in index:
        count = math.prod(shape)
        start = off - base  # at least 0: the payload is split at the first extra offset
        if start + count * dtype.itemsize > buf.size:
            raise CheckpointChecksumError(f"array {name!r} lies outside its part of the payload")
        arr = buf[start:start + count * dtype.itemsize].view(dtype).reshape(shape)
        out[name] = arr.astype(dtype.newbyteorder("="), copy=False)
    return out


def _first(names: list, cap: int = 8) -> str:
    """The first ``cap`` names, and how many more there are."""
    more = f" and {len(names) - cap} more" if len(names) > cap else ""
    return f"{names[:cap]}{more}"


def load_checkpoint_bundle(path, expect_config: ModelConfig | None = None):
    """Load ``path`` and return (model, extra_arrays, meta)."""
    header, params, extra = _read(path)
    try:
        config = ModelConfig.from_dict(header["config"])
    except Exception as exc:
        raise CheckpointConfigError(f"{path}: bad stored config: {exc}") from exc
    if expect_config is not None and config != expect_config:
        diffs = [
            f.name for f in dataclasses.fields(ModelConfig)
            if getattr(config, f.name) != getattr(expect_config, f.name)
        ]
        raise CheckpointConfigError(
            f"{path}: stored config differs from expected in fields {diffs}")
    dtype = header.get("dtype")
    if not isinstance(dtype, str) or dtype not in _WIRE:
        raise CheckpointError(f"{path}: unsupported dtype {dtype!r}")

    # the checksum does not cover the header, and building costs time per block:
    # every cell and mixer adds a leaf, so a config with more blocks than the
    # index has entries cannot match it, and is refused before it is built
    blocks = config.n_cells + sum(config.mixers_per_cell)
    if blocks > len(header["params"]):
        raise CheckpointError(f"{path}: stored config has {blocks} blocks, more than the "
                              f"{len(header['params'])} parameters in its index")
    model = _skeleton(config, dtype)
    stored = _unpack(params, 0, header["params"], _WIRE[dtype])
    expected = {leaf.name for leaf in model.leaves()}
    if set(stored) != expected:
        missing = _first(sorted(expected - set(stored)))
        surplus = _first(sorted(set(stored) - expected))
        raise CheckpointError(f"{path}: parameter name mismatch, missing={missing}, surplus={surplus}")
    for leaf in model.leaves():
        arr = stored[leaf.name]
        if tuple(arr.shape) != leaf.value.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {leaf.name!r}: {arr.shape} vs {leaf.value.shape}")
        leaf.value.data = np.ascontiguousarray(arr, dtype=model.dtype)

    extras = _unpack(extra, params.size, header.get("extra", []), _WIRE[dtype])
    return model, extras, header.get("meta", {})


def load_checkpoint(path, expect_config: ModelConfig | None = None) -> DemosaickModel:
    """Rebuild the stored model; raises distinct errors for version, checksum,
    and config mismatches."""
    return load_checkpoint_bundle(path, expect_config)[0]
