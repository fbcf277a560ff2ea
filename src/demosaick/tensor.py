"""Dense tensors and taped reverse-mode automatic differentiation.

The engine is small on purpose: values are numpy arrays wrapped in
:class:`Tensor`, every differentiable operation appends one :class:`Node` to
the active :class:`Tape`, and :func:`backward` replays the tape once in
reverse execution order. Gradients accumulate with ``+=`` so parameters used
several times sum their contributions.

A node holds no tensor. It keeps each input's serial key, parameter leaf and
``requires_grad``, its output's key and a backward rule that holds only the
shapes, flags and arrays it reads. So an intermediate that no backward reads
is freed as soon as the forward drops it, and :func:`backward` drops each
rule once it has run, freeing what the rule held as the sweep passes it.
Gradients are keyed by the serial key, not by ``id()``, which a new tensor
may reuse once an intermediate is freed. A tape can be swept once.

Precision is an engine-wide switch: ``standard`` mode computes in float32,
``high`` mode in float64. High precision exists for gradient checking;
operations infer their dtype from their inputs, so a model built under one
mode keeps that dtype afterwards.

The tapes a thread opens and the modes it enters with :func:`precision` are
its own: an op records onto its thread's innermost tape, and a thread inside
``precision("high")`` leaves other threads' new tensors at the engine-wide
mode that :func:`set_precision` selects.

Operations validate that their outputs are finite. A NaN or Inf produced from
finite inputs raises :class:`~demosaick.errors.NonFiniteError` instead of
propagating silently. Pure rearrangements (reshape, permute, slicing, ...)
cannot create one, so they skip the scan, forward and backward; the reverse
sweep scans a gradient again wherever two contributions are summed.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NonFiniteError

_DTYPES = {"standard": np.float32, "high": np.float64}
_precision_mode = "standard"


class _ThreadState(threading.local):
    """What one thread's ops read: its open tapes and its precision() overrides, innermost last."""

    def __init__(self):
        self.tapes: list["Tape"] = []
        self.precision: list[str] = []


_state = _ThreadState()


def _check_mode(mode: str) -> None:
    if mode not in _DTYPES:
        raise ContractError(f"unknown precision mode {mode!r}; expected 'standard' or 'high'")


def set_precision(mode: str) -> None:
    """Select the engine-wide precision mode ("standard" or "high")."""
    _check_mode(mode)
    global _precision_mode
    _precision_mode = mode


def get_precision() -> str:
    """This thread's innermost :func:`precision` mode, else the engine-wide one."""
    overrides = _state.precision
    return overrides[-1] if overrides else _precision_mode


@contextlib.contextmanager
def precision(mode: str):
    """Switch the precision mode of the calling thread only, for the block."""
    _check_mode(mode)
    _state.precision.append(mode)
    try:
        yield
    finally:
        _state.precision.pop()


def default_dtype() -> np.dtype:
    return np.dtype(_DTYPES[get_precision()])


# Serial keys of tensors: unlike id(), never reused within a process.
_keys = itertools.count()


class Tensor:
    """Immutable dense value. Operations never modify an existing Tensor."""

    __slots__ = ("data", "requires_grad", "_leaf", "_key")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else default_dtype())
        self.data = arr
        self.requires_grad = requires_grad
        self._leaf = None
        self._key = next(_keys)

    @property
    def leaf(self) -> "ParamLeaf | None":
        """The parameter this tensor is the value of, if any (held weakly)."""
        return None if self._leaf is None else self._leaf()

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
    until :meth:`zero_grad`. The gradient is allocated, as zeros, when
    :attr:`grad` is first read, so a model that only predicts holds its
    weights and nothing else. Names are dotted paths; uniqueness is enforced
    by whoever owns a collection of leaves (the model), not globally.
    """

    __slots__ = ("name", "value", "_grad", "__weakref__")

    def __init__(self, name: str, data, dtype=None):
        if not name:
            raise ContractError("ParamLeaf requires a non-empty name")
        self.name = name
        self.value = Tensor(data, requires_grad=True, dtype=dtype)
        # a weak back-reference: a strong one would form a cycle, and a dropped
        # model's arrays would stay allocated until the cycle collector ran
        self.value._leaf = weakref.ref(self)
        self._grad = None

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.data.shape

    @property
    def grad(self) -> np.ndarray:
        """The accumulated gradient, zeros of the value's shape until a backward adds to it."""
        if self._grad is None:
            self._grad = np.zeros_like(self.value.data)
        return self._grad

    @grad.setter
    def grad(self, arr: np.ndarray) -> None:
        self._grad = arr

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0

    def __repr__(self) -> str:
        return f"ParamLeaf({self.name!r}, shape={self.shape})"


def zero_grads(leaves: Iterable[ParamLeaf]) -> None:
    for leaf in leaves:
        leaf.zero_grad()


class Node:
    """One recorded operation: what its inputs and output were, and a backward rule.

    ``inputs`` holds ``(key, leaf, requires_grad)`` per input, with ``leaf``
    the weak reference to its :class:`ParamLeaf` (or None). ``backward_fn``
    maps the output gradient to a tuple of input gradients aligned with
    ``inputs`` (None for inputs that do not need gradients); :func:`backward`
    sets it to None once it has run.
    """

    __slots__ = ("op", "inputs", "out_key", "backward_fn")

    def __init__(self, op: str, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], Sequence["np.ndarray | None"]]):
        self.op = op
        self.inputs = tuple((t._key, t._leaf, t.requires_grad) for t in inputs)
        self.out_key = output._key
        self.backward_fn = backward_fn


class Tape:
    """Records operation nodes in execution order while active."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        _state.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _state.tapes.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: exited a tape that was not innermost")

    def __len__(self) -> int:
        return len(self.nodes)

    def recorded(self, tensor: Tensor) -> bool:
        """Whether a node on this tape output ``tensor``; a loss is the last node."""
        return any(node.out_key == tensor._key for node in reversed(self.nodes))

    def append(self, node: Node) -> None:
        self.nodes.append(node)


def active_tape() -> "Tape | None":
    """The calling thread's innermost open tape."""
    tapes = _state.tapes
    return tapes[-1] if tapes else None


# Ops that only move or copy elements: their outputs are finite whenever their
# inputs are, so the forward finiteness scan is skipped for them.
REARRANGE_OPS = frozenset({"reshape", "permute", "concat", "slice", "crop2d",
                           "pixel_shuffle", "pixel_unshuffle", "take_last"})


# Ops whose backward only moves gradient values as well, so a finite output
# gradient gives finite input gradients. take_last is not one: its backward
# sums the gradients of repeated indices.
MOVE_GRAD_OPS = REARRANGE_OPS - {"take_last"}


def _all_finite(a: np.ndarray) -> bool:
    """Whether every element of ``a`` is finite.

    A NaN propagates into both the minimum and the maximum, and an infinity
    is one of them, so two reductions answer without the boolean array
    ``np.isfinite`` would allocate, a byte per element of ``a``.
    """
    return a.size == 0 or (math.isfinite(np.minimum.reduce(a, axis=None))
                           and math.isfinite(np.maximum.reduce(a, axis=None)))


def _nonfinite(op: str) -> NonFiniteError:
    return NonFiniteError(f"operation {op!r} produced non-finite values")


def check_finite(op: str, arr: np.ndarray) -> None:
    if not _all_finite(np.asarray(arr)):
        raise _nonfinite(op)


def recording(*inputs: Tensor) -> bool:
    """Whether an op on ``inputs`` records a node: a tape is active and one needs a gradient."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


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
    out = Tensor(out_data, requires_grad=False, dtype=out_data.dtype)
    if recording(*inputs):
        out.requires_grad = True
        active_tape().append(Node(op, inputs, out, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse sweep: accumulate d loss / d leaf into every reachable ParamLeaf.

    The loss must hold a single element and must have been recorded on the
    given tape. Leaves the loss does not depend on are left untouched, so a
    freshly zeroed disconnected leaf reads an all-zero gradient. The sweep
    drops every node's backward rule, so a second backward that reaches a
    swept node raises ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not tape.recorded(loss):
        raise ContractError("backward: loss tensor was not recorded on this tape")

    grads: dict[int, np.ndarray] = {loss._key: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        fn, node.backward_fn = node.backward_fn, None
        gout = grads.pop(node.out_key, None)
        if gout is None:
            continue
        if fn is None:
            raise ContractError(f"backward: op {node.op!r} was swept by an earlier backward "
                                "over this tape; record the forward again")
        gins = fn(gout)
        if len(gins) != len(node.inputs):
            raise ContractError(f"op {node.op!r} backward returned {len(gins)} grads "
                                f"for {len(node.inputs)} inputs")
        moves = node.op in MOVE_GRAD_OPS
        for (key, leaf_ref, requires_grad), gin in zip(node.inputs, gins):
            leaf = None if leaf_ref is None else leaf_ref()
            if gin is None or (leaf is None and not requires_grad):
                continue  # nothing to accumulate into
            if not moves:
                check_finite(f"{node.op}.backward", gin)
            if leaf is not None:
                leaf.grad += gin
            elif key in grads:
                grads[key] += gin  # two finite gradients can sum to Inf
                check_finite(f"{node.op}.backward", grads[key])
            else:
                grads[key] = gin
