"""Dense tensors and taped reverse-mode automatic differentiation.

The engine is small on purpose: values are numpy arrays wrapped in
:class:`Tensor`, every differentiable operation appends one :class:`Node` to
the active :class:`Tape`, and :func:`backward` replays the tape once in
reverse execution order. Gradients accumulate with ``+=`` so parameters used
several times sum their contributions.

Precision is an engine-wide switch: ``standard`` mode computes in float32,
``high`` mode in float64. High precision exists for gradient checking;
operations infer their dtype from their inputs, so a model built under one
mode keeps that dtype afterwards.

Operations validate that their outputs are finite. A NaN or Inf produced from
finite inputs raises :class:`~demosaick.errors.NonFiniteError` instead of
propagating silently. Pure rearrangements (reshape, permute, slicing, ...)
cannot create one, so they skip the scan, forward and backward; the reverse
sweep scans a gradient again wherever two contributions are summed.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from . import parallel
from .errors import ContractError, NonFiniteError

_DTYPES = {"standard": np.float32, "high": np.float64}
_precision_mode = "standard"


def set_precision(mode: str) -> None:
    """Select the engine-wide precision mode ("standard" or "high")."""
    if mode not in _DTYPES:
        raise ContractError(f"unknown precision mode {mode!r}; expected 'standard' or 'high'")
    global _precision_mode
    _precision_mode = mode


def get_precision() -> str:
    return _precision_mode


@contextlib.contextmanager
def precision(mode: str):
    """Temporarily switch the engine precision mode."""
    previous = _precision_mode
    set_precision(mode)
    try:
        yield
    finally:
        set_precision(previous)


def default_dtype() -> np.dtype:
    return np.dtype(_DTYPES[_precision_mode])


class Tensor:
    """Immutable dense value. Operations never modify an existing Tensor."""

    __slots__ = ("data", "requires_grad", "leaf")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else default_dtype())
        self.data = arr
        self.requires_grad = requires_grad
        self.leaf: "ParamLeaf | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # Arithmetic dunders are attached by demosaick.ops at import time so the
    # op implementations stay in one module.


def constant(data, dtype=None) -> Tensor:
    """Wrap data as a non-differentiable Tensor in the engine dtype."""
    return Tensor(data, requires_grad=False, dtype=dtype)


class ParamLeaf:
    """A named trainable parameter: a value tensor plus a same-shape gradient.

    Gradients live as plain numpy arrays and accumulate across backward calls
    until :meth:`zero_grad`. Names are dotted paths; uniqueness is enforced by
    whoever owns a collection of leaves (the model), not globally.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, data, dtype=None):
        if not name:
            raise ContractError("ParamLeaf requires a non-empty name")
        self.name = name
        self.value = Tensor(data, requires_grad=True, dtype=dtype)
        self.value.leaf = self
        self.grad = np.zeros_like(self.value.data)

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0

    def __repr__(self) -> str:
        return f"ParamLeaf({self.name!r}, shape={self.shape})"


def zero_grads(leaves: Iterable[ParamLeaf]) -> None:
    for leaf in leaves:
        leaf.zero_grad()


class Node:
    """One recorded operation: inputs, output, and a backward rule.

    ``backward_fn`` maps the output gradient to a tuple of input gradients
    aligned with ``inputs`` (None for inputs that do not need gradients).
    """

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op: str, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], Sequence["np.ndarray | None"]]):
        self.op = op
        self.inputs = tuple(inputs)
        self.output = output
        self.backward_fn = backward_fn


_tape_stack: list["Tape"] = []


class Tape:
    """Records operation nodes in execution order while active."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._recorded_ids: set[int] = set()

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: exited a tape that was not innermost")

    def __len__(self) -> int:
        return len(self.nodes)

    def recorded(self, tensor: Tensor) -> bool:
        return id(tensor) in self._recorded_ids

    def append(self, node: Node) -> None:
        self.nodes.append(node)
        self._recorded_ids.add(id(node.output))


def active_tape() -> "Tape | None":
    return _tape_stack[-1] if _tape_stack else None


# Ops that only move or copy elements: their outputs are finite whenever their
# inputs are, so the forward finiteness scan is skipped for them.
REARRANGE_OPS = frozenset({"reshape", "permute", "concat", "slice", "crop2d",
                           "pixel_shuffle", "pixel_unshuffle", "take_last"})


# Ops whose backward only moves gradient values as well, so a finite output
# gradient gives finite input gradients. take_last is not one: its backward
# sums the gradients of repeated indices.
MOVE_GRAD_OPS = REARRANGE_OPS - {"take_last"}


# The scan is bound by memory bandwidth, so only very large arrays gain from
# a second thread.
_SCAN_GRAIN = 1 << 21


def _all_finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


def check_finite(op: str, arr: np.ndarray) -> None:
    if not all(parallel.elementwise(_all_finite, np.asarray(arr), grain=_SCAN_GRAIN)):
        raise NonFiniteError(f"operation {op!r} produced non-finite values")


def record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
           backward_fn: Callable[[np.ndarray], Sequence["np.ndarray | None"]]) -> Tensor:
    """Finalize an op: finiteness check, wrap output, record if needed.

    The finiteness check is skipped for the pure rearrangements in
    ``REARRANGE_OPS``. The node is recorded only when a tape is active and at
    least one input requires a gradient; otherwise the output is a plain
    constant.
    """
    if op not in REARRANGE_OPS:
        check_finite(op, out_data)
    tape = active_tape()
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=False, dtype=out_data.dtype)
    if tape is not None and needs:
        out.requires_grad = True
        tape.append(Node(op, inputs, out, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse sweep: accumulate d loss / d leaf into every reachable ParamLeaf.

    The loss must hold a single element and must have been recorded on the
    given tape. Leaves the loss does not depend on are left untouched, so a
    freshly zeroed disconnected leaf reads an all-zero gradient.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not tape.recorded(loss):
        raise ContractError("backward: loss tensor was not recorded on this tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        gout = grads.pop(id(node.output), None)
        if gout is None:
            continue
        gins = node.backward_fn(gout)
        if len(gins) != len(node.inputs):
            raise ContractError(f"op {node.op!r} backward returned {len(gins)} grads "
                                f"for {len(node.inputs)} inputs")
        moves = node.op in MOVE_GRAD_OPS
        for tensor, gin in zip(node.inputs, gins):
            if gin is None or (tensor.leaf is None and not tensor.requires_grad):
                continue  # nothing to accumulate into
            if not moves:
                check_finite(f"{node.op}.backward", gin)
            if tensor.leaf is not None:
                tensor.leaf.grad += gin
            else:
                key = id(tensor)
                if key in grads:
                    grads[key] += gin  # two finite gradients can sum to Inf
                    check_finite(f"{node.op}.backward", grads[key])
                else:
                    grads[key] = gin
