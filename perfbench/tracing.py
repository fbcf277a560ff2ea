"""Outside-in tracing of the demosaick package, from the benchmark's own files.

:class:`Tracer` replaces public names of the package with thin wrappers that
record a span (name, start, end, parent, unit id) around each call and then
call the original unchanged, so tracing adds time but changes no arithmetic.
A name bound in several modules (``training.backward`` is
``tensor.backward``) is replaced everywhere it is bound.  ``Tape.append`` is
wrapped too: it counts nodes and wraps each node's ``backward_fn``, so
backward time is charged to the op and the blocks that recorded the node.

Spans stay in memory and are written out once, at the end of a run.
:meth:`Tracer.per_layer` turns them into the per-layer metrics named by
:func:`metric_names`.  Self time is a span's duration minus the durations of
its child spans.  Every metric is a total over the traced timed units divided
by their number (so "per unit"), except the ``checkpoint.*`` metrics, which
are means per call over the whole traced phase, set-up included.

* ``ops.<op>.fwd_s``/``.bwd_s``: self time of the op's forward call and of
  the backward functions of the nodes it recorded; ``.calls`` and
  ``.out_bytes`` count forward calls and output bytes.
* ``blocks.<Block>.fwd_s``/``.bwd_s``/``.nodes``: inclusive times of the
  block's calls, and the backward time and node count of every node recorded
  inside them.  ``blocks.cells.<i>`` is the model's i-th coding cell.
* ``tensor.backward_self_s``: the reverse sweep minus the op backward
  functions and finiteness checks it calls.
* ``training.validate_s`` and ``training.checkpoint_s``: predictions, PSNR
  calls and checkpoint writes made inside ``training.train``.
"""

from __future__ import annotations

import array
import collections
import gzip
import json
import os
import sys
from time import perf_counter

ELEMENTWISE = ("add", "sub", "mul", "div", "scale", "neg", "abs_", "pow_const", "clamp_min")
SHAPE = ("reshape", "permute", "concat", "_slice_axis", "crop2d", "pixel_shuffle",
         "pixel_unshuffle")
REDUCE = ("sum_", "mean_")
OWN = ("gelu", "matmul", "softmax", "layer_norm", "bilinear_sample", "conv_transpose2d",
       "sigmoid", "take_last", "global_avg_pool")
OP_KEYS = ("conv2d", "conv2d_depthwise") + OWN + ("elementwise", "shape", "reduce")
BLOCKS = {"DeformableGroupedConv": "__call__", "WindowTransformer": "transform",
          "SpectralMixer": "__call__", "MobileNetV3Unit": "__call__", "CodingCell": "__call__"}
N_CELLS = 5
# Spans whose total time is reported as is: span name -> metric.
_SIMPLE = {
    "cfa.mosaic": "cfa.mosaic_s", "cfa.pack_rggb": "cfa.pack_rggb_s",
    "cfa.warm_start": "cfa.warm_start_s", "cfa.add_noise": "cfa.add_noise_s",
    "training.sample_batch": "training.sample_batch_s",
    "training.adamw_step": "training.adamw_step_s",
    "metrics.psnr": "metrics.psnr_s", "metrics.ssim": "metrics.ssim_s",
    "metrics.ms_ssim": "metrics.ms_ssim_s",
    "imageio.read": "imageio.read_s", "imageio.write": "imageio.write_s",
    "model.forward": "model.forward_s", "model.predict": "model.predict_s",
    "losses.mixed_loss": "losses.mixed_loss.fwd_s",
    "tensor.backward": "tensor.backward_s", "tensor.check_finite": "tensor.check_finite_s",
}


def metric_names() -> list:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = [("tensor.nodes", "count"), ("tensor.check_finite_s", "s"),
           ("tensor.check_finite_calls", "count"), ("tensor.backward_s", "s"),
           ("tensor.backward_self_s", "s")]
    for k in OP_KEYS:
        out += [(f"ops.{k}.fwd_s", "s"), (f"ops.{k}.bwd_s", "s"),
                (f"ops.{k}.calls", "count"), (f"ops.{k}.out_bytes", "bytes")]
    for b in BLOCKS:
        out += [(f"blocks.{b}.fwd_s", "s"), (f"blocks.{b}.bwd_s", "s"),
                (f"blocks.{b}.nodes", "count")]
    for i in range(N_CELLS):
        out += [(f"blocks.cells.{i}.fwd_s", "s"), (f"blocks.cells.{i}.bwd_s", "s")]
    out += [("model.forward_s", "s"), ("model.predict_s", "s"),
            ("model.forward_out_bytes", "bytes"),
            ("cfa.mosaic_s", "s"), ("cfa.pack_rggb_s", "s"), ("cfa.warm_start_s", "s"),
            ("cfa.add_noise_s", "s"),
            ("losses.mixed_loss.fwd_s", "s"), ("losses.mixed_loss.bwd_s", "s"),
            ("losses.mixed_loss.nodes", "count"),
            ("training.sample_batch_s", "s"), ("training.adamw_step_s", "s"),
            ("training.validate_s", "s"), ("training.checkpoint_s", "s"),
            ("checkpoint.load_s", "s"), ("checkpoint.save_s", "s"),
            ("checkpoint.save_bytes", "bytes"),
            ("metrics.psnr_s", "s"), ("metrics.ssim_s", "s"), ("metrics.ms_ssim_s", "s"),
            ("imageio.read_s", "s"), ("imageio.write_s", "s"), ("imageio.bytes", "bytes"),
            ("trace.overhead_share", "ratio"), ("trace.spans", "count")]
    return out


def _conv_key(args, kwargs) -> str:
    x = args[0]
    groups = kwargs.get("groups", args[5] if len(args) > 5 else 1)
    return "conv2d_depthwise" if groups > 1 and groups == x.shape[1] else "conv2d"


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        # One entry per span in parallel flat containers, so that tracing
        # adds no objects for the garbage collector to scan.
        self._name: list = []
        self._time = array.array("d")    # start, end of each span
        self._parent = array.array("q")  # index of the enclosing span, or -1
        self._unit: list = []
        self._extra: list = []
        self.unit = "setup"
        self.counts: collections.defaultdict = collections.defaultdict(float)
        self._stack: list = []    # indices of open spans
        self._ops: list = []      # keys of open op calls
        self._scopes: list = []   # metric prefixes of open blocks and of the loss
        self._cells: dict = {}    # id(CodingCell) -> "cells.<i>"
        self._forward_depth = 0
        self._undo: list = []

    def set_unit(self, unit) -> None:
        self.unit = unit

    # -- span primitives ---------------------------------------------------

    def _begin(self, name: str, extra=None) -> int:
        idx = len(self._name)
        self._name.append(name)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._unit.append(self.unit)
        self._extra.append(extra)
        self._stack.append(idx)
        self._time.append(perf_counter())
        self._time.append(0.0)
        return idx

    def _end(self, idx: int) -> None:
        self._time[2 * idx + 1] = perf_counter()
        self._stack.pop()

    def _spans(self):
        """(name, start, end, parent, unit, extra) of every span, in start order."""
        t = self._time
        for i, name in enumerate(self._name):
            yield name, t[2 * i], t[2 * i + 1], self._parent[i], self._unit[i], self._extra[i]

    def _count(self, metric: str, value: float) -> None:
        self.counts[(self.unit, metric)] += value

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, scope: bool = False, file_bytes=None):
        """Span around ``fn``; optionally a scope for node charging, or file bytes."""
        tr = self

        def wrapper(*args, **kwargs):
            idx = tr._begin(name)
            if scope:
                tr._scopes.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._end(idx)
                if scope:
                    tr._scopes.pop()
                if file_bytes is not None:
                    path = file_bytes(args, kwargs)
                    size = os.path.getsize(path) if os.path.exists(path) else 0
                    tr._extra[idx] = size
                    tr._count(name.split(".")[0] + ".bytes", size)

        wrapper.__wrapped__ = fn
        return wrapper

    def _op(self, fn, key_fn):
        tr = self

        def wrapper(*args, **kwargs):
            key = key_fn(args, kwargs)
            idx = tr._begin("ops." + key)
            tr._ops.append(key)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._end(idx)
                tr._ops.pop()
            nbytes = out.data.nbytes
            tr._count(f"ops.{key}.out_bytes", nbytes)
            if tr._forward_depth:
                tr._count("model.forward_out_bytes", nbytes)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _block(self, cls_name: str, fn):
        tr = self
        name = "blocks." + cls_name

        def wrapper(blk, *args, **kwargs):
            cell = tr._cells.get(id(blk)) if cls_name == "CodingCell" else None
            scopes = [name] if cell is None else [name, "blocks." + cell]
            idx = tr._begin(name, cell)
            tr._scopes.extend(scopes)
            try:
                return fn(blk, *args, **kwargs)
            finally:
                tr._end(idx)
                del tr._scopes[-len(scopes):]

        wrapper.__wrapped__ = fn
        return wrapper

    def _forward(self, fn, coding_cell):
        tr = self

        def forward(model, *args, **kwargs):
            for attr, value in vars(model).items():
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        if isinstance(item, coding_cell):
                            tr._cells[id(item)] = f"{attr}.{i}"
            idx = tr._begin("model.forward")
            tr._forward_depth += 1
            try:
                return fn(model, *args, **kwargs)
            finally:
                tr._end(idx)
                tr._forward_depth -= 1

        forward.__wrapped__ = fn
        return forward

    def _append(self, fn):
        tr = self

        def append(tape, node):
            key = tr._ops[-1] if tr._ops else node.op
            scopes = tuple(tr._scopes)
            tr._count("tensor.nodes", 1)
            for s in scopes:
                tr._count(s + ".nodes", 1)
            inner = node.backward_fn
            name = f"ops.{key}.bwd"

            def backward_fn(g):
                idx = tr._begin(name, scopes)
                try:
                    return inner(g)
                finally:
                    tr._end(idx)

            node.backward_fn = backward_fn
            return fn(tape, node)

        append.__wrapped__ = fn
        return append

    # -- installation ------------------------------------------------------

    def _replace(self, modules, orig, wrapper) -> None:
        """Rebind ``orig`` to ``wrapper`` in every module and package class that binds it."""
        for mod in modules:
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__.startswith("demosaick")]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, key, wrapper)
                        self._undo.append((owner, key, orig))

    def _method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, dm) -> None:
        """Wrap the public names of an imported ``demosaick`` package."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "demosaick" or n.startswith("demosaick.")]
        ops = dm.ops
        for name in ELEMENTWISE + SHAPE + REDUCE + OWN:
            group = ("elementwise" if name in ELEMENTWISE else "shape" if name in SHAPE
                     else "reduce" if name in REDUCE else name)
            fn = getattr(ops, name)
            self._replace(mods, fn, self._op(fn, lambda a, k, g=group: g))
        self._replace(mods, ops.conv2d, self._op(ops.conv2d, _conv_key))

        timed = [
            (dm.tensor, "check_finite", "tensor.check_finite", False, None),
            (dm.tensor, "backward", "tensor.backward", False, None),
            (dm.losses, "mixed_loss", "losses.mixed_loss", True, None),
            (dm.training, "sample_batch", "training.sample_batch", False, None),
            (dm.training, "train", "training.train", False, None),
            (dm.checkpoint, "load_checkpoint_bundle", "checkpoint.load", False, None),
            (dm.checkpoint, "save_checkpoint", "checkpoint.save", False, lambda a, k: a[1]),
        ]
        timed += [(dm.cfa, n, "cfa." + n, False, None)
                  for n in ("mosaic", "pack_rggb", "warm_start", "add_noise")]
        timed += [(dm.metrics, n, "metrics." + n, False, None)
                  for n in ("psnr", "ssim", "ms_ssim")]
        timed += [(dm.imageio, n, "imageio." + n[:-4], False, lambda a, k: a[0])
                  for n in ("read_ppm", "read_pgm", "read_pfm", "write_ppm", "write_pgm",
                            "write_pfm")]
        for mod, attr, name, scope, file_bytes in timed:
            fn = getattr(mod, attr)
            self._replace(mods, fn, self._timed(name, fn, scope, file_bytes))

        for cls_name, attr in BLOCKS.items():
            cls = getattr(dm.blocks, cls_name)
            self._method(cls, attr, self._block(cls_name, cls.__dict__[attr]))
        model_cls = dm.model.DemosaickModel
        self._method(model_cls, "forward",
                     self._forward(model_cls.forward, dm.blocks.CodingCell))
        self._method(model_cls, "predict", self._timed("model.predict", model_cls.predict))
        self._method(dm.training.AdamW, "step",
                     self._timed("training.adamw_step", dm.training.AdamW.step))
        self._method(dm.tensor.Tape, "append", self._append(dm.tensor.Tape.append))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def per_layer(self, units) -> dict:
        """Per-layer metric values (without the ``trace.*`` ones) over ``units``."""
        units = set(units)
        child = [0.0] * len(self._name)
        for _, t0, t1, parent, _, _ in self._spans():
            if parent >= 0:
                child[parent] += t1 - t0
        in_train = [False] * len(self._name)
        tot: collections.defaultdict = collections.defaultdict(float)
        io_calls = collections.defaultdict(list)
        for i, (name, t0, t1, parent, unit, extra) in enumerate(self._spans()):
            in_train[i] = name == "training.train" or (parent >= 0 and in_train[parent])
            dur = t1 - t0
            if name in ("checkpoint.load", "checkpoint.save"):
                io_calls[name].append((dur, extra or 0))
            if unit not in units:
                continue
            own = dur - child[i]
            if name.startswith("ops."):
                if name.endswith(".bwd"):
                    tot[name[:-4] + ".bwd_s"] += own
                    for scope in extra:
                        tot[scope + ".bwd_s"] += dur
                else:
                    tot[name + ".fwd_s"] += own
                    tot[name + ".calls"] += 1
            elif name.startswith("blocks."):
                tot[name + ".fwd_s"] += dur
                if extra:
                    tot[f"blocks.{extra}.fwd_s"] += dur
            if name in _SIMPLE:
                tot[_SIMPLE[name]] += dur
            if name == "tensor.check_finite":
                tot["tensor.check_finite_calls"] += 1
            elif name == "tensor.backward":
                tot["tensor.backward_self_s"] += own
            elif name in ("model.predict", "metrics.psnr") and in_train[i]:
                tot["training.validate_s"] += dur
            elif name == "checkpoint.save" and in_train[i]:
                tot["training.checkpoint_s"] += dur
        for (unit, metric), value in self.counts.items():
            if unit in units:
                tot[metric] += value
        n = max(len(units), 1)
        out = {name: tot.get(name, 0.0) / n for name, _ in metric_names()
               if not name.startswith(("trace.", "checkpoint."))}
        loads, saves = io_calls["checkpoint.load"], io_calls["checkpoint.save"]
        out["checkpoint.load_s"] = sum(d for d, _ in loads) / len(loads) if loads else 0.0
        out["checkpoint.save_s"] = sum(d for d, _ in saves) / len(saves) if saves else 0.0
        out["checkpoint.save_bytes"] = sum(b for _, b in saves) / len(saves) if saves else 0.0
        return out

    def spans_in(self, units) -> int:
        units = set(units)
        return sum(1 for u in self._unit if u in units)

    def write(self, path: str) -> None:
        """Write every span as gzipped JSON: a name table plus one row per span."""
        names: dict = {}
        base = self._time[0] if self._time else 0.0
        rows = []
        for name, t0, t1, parent, unit, extra in self._spans():
            row = [names.setdefault(name, len(names)), round(t0 - base, 7),
                   round(t1 - base, 7), parent, unit]
            if extra is not None:
                row.append(list(extra) if isinstance(extra, tuple) else extra)
            rows.append(row)
        doc = {"fields": ["name", "start_s", "end_s", "parent", "unit", "extra"],
               "names": list(names), "spans": rows}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
