"""Differentiable operations on :class:`~demosaick.tensor.Tensor`.

Every public function computes its result eagerly with numpy, then hands the
output to :func:`~demosaick.tensor.record`, which validates finiteness and
appends a node to the active tape when a gradient is required.

Layout conventions: image tensors are N x C x H x W. ``conv2d`` accumulates
its forward sum in a fixed order (input channel outer, kernel taps row-major
inner) with no cross-element reductions per step, so its output is
bit-identical across runs and BLAS thread counts. Backward passes and the
matmul family reduce with numpy primitives and BLAS GEMMs, which are
deterministic for a fixed numpy build; the tests pin that their results do
not depend on the BLAS thread count. The backward passes of ``mul``,
``div``, ``matmul``, ``conv2d`` and ``bilinear_sample`` compute only the
gradients of inputs that require one and return None for the others.
Rearrangements share one rule each: reductions spread their gradient
through ``_spread``, slices and crops scatter theirs into zeros through
``_sliced``, and ``pixel_shuffle`` and
``pixel_unshuffle`` are :func:`demosaick.cfa.depth_to_space` and
:func:`demosaick.cfa.space_to_depth`, each the other's backward.
``conv_transpose2d`` has no kernel of its own: its stride is its kernel size,
so it is a 1x1 ``conv2d`` followed by ``pixel_shuffle`` and a bias ``add``.

A recorded op's backward rule holds no tensor. It keeps an input's values
only when a gradient it returns reads them, and otherwise only shapes,
dtypes and flags: ``add``, ``sub``, ``reshape``, the reductions, slices,
crops and ``take_last`` keep no values, ``mul``, ``div`` and ``matmul``
keep an operand only for the other's gradient, and ``conv2d`` keeps its
input only for the weight gradient. Besides those it keeps only what its
backward cannot rebuild in a pass or two: ``layer_norm``'s mean and 1 / std
per position, and ``bilinear_sample``'s corners (the indices only for the
input's gradient). GELU keeps neither its input nor Phi (an erf pass) but
one array, its derivative, which its forward builds after Phi and its
backward multiplies by the output gradient in place. ``conv2d`` pads its
input and builds its im2col matrix again in the backward, and ``abs_``,
``clamp_min`` and ``bilinear_sample`` build their masks there. A gradient
scattered into zeros takes the input's axis order in memory, as
``np.zeros_like`` of the input would, so later sums round the same.

Inside a :func:`demosaick.parallel.blas_budget` scope (every
``DemosaickModel.predict``) the forward passes of ``gelu``, ``layer_norm``
and the tap loop of ``conv2d`` run in contiguous pieces on several threads.
A kernel is cut only along axes it does not reduce over: ``gelu`` anywhere,
``layer_norm`` along axis 2 and never over channels, the tap loop over
groups, or over blocks of output rows when there is one group. Every output
element sees the same operations in the same order as in one piece, so
results are bitwise-identical for any thread count. Backward passes run on
the calling thread.

The forward kernels of ``gelu``, ``softmax``, ``layer_norm`` and
``bilinear_sample`` and the GEMM of ``matmul`` and of ``conv2d``'s GEMM path
are the private ``_gelu``, ``_softmax``, ``_layer_norm``, ``_bilinear`` and
``_gemm``. The tape-free blocks of :mod:`demosaick.blocks` chain them on
plain arrays, a block of pixels or a chunk of windows at a time, bit for
bit the ops' results.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as _erf

from . import cfa, parallel
from .errors import ContractError
from .tensor import Tensor, record, recording

__all__ = [
    "add", "sub", "neg", "mul", "div", "scale", "abs_", "pow_const", "clamp_min",
    "sigmoid", "gelu", "softmax", "layer_norm", "matmul",
    "sum_", "mean_", "global_avg_pool",
    "reshape", "permute", "concat", "split", "crop2d", "take_last",
    "conv2d", "conv_transpose2d", "bilinear_sample",
    "pixel_shuffle", "pixel_unshuffle",
]


def _as_pair(v, name: str) -> tuple[int, int]:
    if isinstance(v, int):
        return (v, v)
    a, b = v
    return (int(a), int(b))


def _check_same_dtype(op: str, *tensors: Tensor) -> np.dtype:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ContractError(f"{op}: mixed dtypes {dt} and {t.data.dtype}")
    return dt


def _zeros_later(a: np.ndarray):
    """A maker of ``np.zeros_like(a)`` that does not keep ``a``.

    The zeros keep ``a``'s axis order in memory, as ``zeros_like`` does (for
    a transposed view, say), so later sums over a gradient built in them
    round as they would over ``zeros_like``.
    """
    shape, dtype = a.shape, a.dtype
    if a.flags.c_contiguous:
        return lambda: np.zeros(shape, dtype)
    # numpy's keep-order rule: axes by decreasing absolute stride, ties in axis order
    order = sorted(range(a.ndim), key=lambda i: -abs(a.strides[i]))
    inner, back = tuple(shape[i] for i in order), tuple(np.argsort(order))
    return lambda: np.zeros(inner, dtype).transpose(back)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape the operand had before broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("add", a, b)
    out = a.data + b.data
    sa, sb = a.shape, b.shape

    def bwd(g):
        return (_unbroadcast(g, sa), _unbroadcast(g, sb))

    return record("add", (a, b), out, bwd)


def neg(a: Tensor) -> Tensor:
    return record("neg", (a,), -a.data, lambda g: (-g,))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("sub", a, b)
    out = a.data - b.data
    sa, sb = a.shape, b.shape

    def bwd(g):
        return (_unbroadcast(g, sa), _unbroadcast(-g, sb))

    return record("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("mul", a, b)
    out = a.data * b.data
    sa, sb = a.shape, b.shape
    # each operand's values only for the other's gradient
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def bwd(g):
        return (None if bd is None else _unbroadcast(g * bd, sa),
                None if ad is None else _unbroadcast(g * ad, sb))

    return record("mul", (a, b), out, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("div", a, b)
    out = a.data / b.data
    sa, sb = a.shape, b.shape
    need_a, need_b = a.requires_grad, b.requires_grad
    ad, bd = a.data if need_b else None, b.data

    def bwd(g):
        ga = _unbroadcast(g / bd, sa) if need_a else None
        gb = _unbroadcast(-g * ad / (bd * bd), sb) if need_b else None
        return (ga, gb)

    return record("div", (a, b), out, bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    return record("scale", (a,), a.data * s, lambda g: (g * s,))


def abs_(a: Tensor) -> Tensor:
    # Subgradient at 0 is 0 (sign(0) == 0).
    x = a.data
    return record("abs", (a,), np.abs(x), lambda g: (g * np.sign(x),))


def pow_const(a: Tensor, p: float) -> Tensor:
    """a ** p for a constant exponent. Requires a > 0 when p is fractional."""
    x = a.data
    out = x ** x.dtype.type(p)

    def bwd(g):
        return (g * p * x ** x.dtype.type(p - 1.0),)

    return record("pow_const", (a,), out, bwd)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient passes wherever a >= lo."""
    x = a.data
    lo = x.dtype.type(lo)
    return record("clamp_min", (a,), np.maximum(x, lo), lambda g: (g * (x >= lo),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return record("sigmoid", (a,), out, bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu(x: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """GELU of ``x`` into ``out``, building Phi in ``cdf``, which may be ``out``."""

    def piece(xs, cs, os):
        # Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), built in one buffer.
        np.multiply(xs, _INV_SQRT2, out=cs)
        _erf(cs, out=cs)
        cs += 1.0
        cs *= 0.5
        np.multiply(xs, cs, out=os)

    parallel.elementwise(piece, x, cdf, out)  # erf is costly: small pieces pay
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF via erf.

    A recorded node builds its derivative Phi(x) + x * pdf(x) right after Phi
    and keeps only that, neither x nor Phi; otherwise Phi is built in the
    output buffer and the op allocates nothing else.
    """
    x = a.data
    out = np.empty_like(x)
    if not recording(a):
        return record("gelu", (a,), _gelu(x, out, out), None)
    cdf = np.empty_like(x)
    _gelu(x, cdf, out)
    # pdf(x) = exp(-0.5 * x * x) / sqrt(2 pi), built in one buffer in x's
    # layout in the order of that expression, then Phi(x) added
    d = np.multiply(x, -0.5)
    d *= x
    np.exp(d, out=d)
    d *= _INV_SQRT2PI
    d *= x
    d += cdf
    del cdf

    def bwd(g):
        # in place, as the sweep runs a rule once: the gradient keeps x's
        # layout, where g * d would take g's and sums over it would round apart
        return (np.multiply(d, g, out=d),)

    return record("gelu", (a,), out, bwd)


def _max_by_halving(xs: np.ndarray, scratch: np.ndarray, ax: int) -> np.ndarray:
    """``xs.max(axis=ax, keepdims=True)``, folding halves with np.maximum first.

    numpy's max over a short axis is several times slower than an elementwise
    maximum (a 16-long axis about 2.5x). The maximum is exact, so the result
    equals the plain max. The first fold goes to ``scratch``, a flat buffer
    of at least xs.size // 2 elements, and each later one into its own lower
    half, instead of fresh arrays.
    """
    m = xs
    while m.shape[ax] > 1 and m.shape[ax] % 2 == 0:
        lo, hi = np.split(m, 2, axis=ax)
        out = lo if m is not xs else scratch[:lo.size].reshape(lo.shape)
        m = np.maximum(lo, hi, out=out)
    return m.max(axis=ax, keepdims=True)


def _softmax(x: np.ndarray, ax: int, inplace: bool = False) -> np.ndarray:
    """Softmax of ``x`` along axis ``ax``, into a new array or, if ``inplace``, into ``x``."""
    if inplace:
        out, scratch = x, np.empty(x.size // 2, x.dtype)
    else:
        out = np.empty_like(x)
        scratch = out.ravel(order="K")
    np.subtract(x, _max_by_halving(x, scratch, ax), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=ax, keepdims=True)
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Shift-invariant softmax along one axis."""
    x = a.data
    if not x.ndim:
        raise ContractError("softmax needs an array with at least one axis")
    out = _softmax(x, axis % x.ndim)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return record("softmax", (a,), out, bwd)


def _layer_norm(xd: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """(output, mean, 1 / std) of a layer norm over axis 1 of ``xd``, in pieces
    along axis 2 that keep ``xd``'s layout, so they sum channels as the whole would."""
    xv = xd[..., None] if xd.ndim == 2 else xd  # an (N, C) input: one position
    out = np.empty_like(xv)
    mean = np.empty_like(xv[:, :1])
    inv_std = np.empty_like(mean)
    eps_t = xd.dtype.type(eps)
    cb = (-1,) + (1,) * (xv.ndim - 2)  # gamma and beta across the positions

    def piece(lo, hi):
        xs, ms, ins, os = (a[:, :, lo:hi] for a in (xv, mean, inv_std, out))
        np.mean(xs, axis=1, keepdims=True, out=ms)
        np.subtract(xs, ms, out=os)
        var = np.multiply(os, os, out=os).mean(axis=1, keepdims=True)
        np.divide(1.0, np.sqrt(var + eps_t), out=ins)
        np.subtract(xs, ms, out=os)
        os *= ins
        os *= gamma.reshape(cb)
        os += beta.reshape(cb)

    parallel.run(piece, xv.shape[2], math.prod(xv.shape[:2] + xv.shape[3:]), grain=1 << 19)
    stats = xd.shape[:1] + (1,) + xd.shape[2:]
    return out.reshape(xd.shape), mean.reshape(stats), inv_std.reshape(stats)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the channel axis (axis 1), one statistic per position.

    gamma and beta are per-channel vectors of length C.
    """
    if x.ndim < 2:
        raise ContractError(f"layer_norm expects at least 2 dims, got {x.shape}")
    C = x.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ContractError(f"layer_norm: gamma/beta must have shape ({C},)")
    _check_same_dtype("layer_norm", x, gamma, beta)
    xd = x.data
    out, mean, inv_std = _layer_norm(xd, gamma.data, beta.data, eps)
    axes = tuple(i for i in range(x.ndim) if i != 1)
    gamma_b = gamma.data.reshape((1, C) + (1,) * (x.ndim - 2))

    def bwd(g):
        xhat = xd - mean
        xhat *= inv_std
        tmp = g * xhat
        dgamma = tmp.sum(axis=axes)
        dbeta = g.sum(axis=axes)
        # dx = inv_std * (dxhat - m1 - xhat * m2), built in dxhat's buffer
        dx = g * gamma_b
        m1 = dx.mean(axis=1, keepdims=True)
        m2 = np.multiply(dx, xhat, out=tmp).mean(axis=1, keepdims=True)
        dx -= m1
        dx -= np.multiply(xhat, m2, out=tmp)
        dx *= inv_std
        return (dx.astype(xd.dtype, copy=False), dgamma, dbeta)

    return record("layer_norm", (x, gamma, beta), out, bwd)


# ---------------------------------------------------------------------------
# reductions


def _spread(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Backward of a reduction over ``axis``: g copied across the reduced axes of ``shape``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = np.asarray(a.data.sum(axis=axis, keepdims=keepdims))
    shape = a.shape
    return record("sum", (a,), out, lambda g: (_spread(g, shape, axis, keepdims),))


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = np.asarray(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.data.dtype.type(a.data.size // max(out.size, 1))
    shape = a.shape
    return record("mean", (a,), out, lambda g: (_spread(g / count, shape, axis, keepdims),))


def global_avg_pool(a: Tensor) -> Tensor:
    """N x C x H x W -> N x C x 1 x 1 spatial mean."""
    if a.ndim != 4:
        raise ContractError(f"global_avg_pool expects NCHW, got {a.shape}")
    out = a.data.mean(axis=(2, 3), keepdims=True)
    count = a.data.dtype.type(a.shape[2] * a.shape[3])
    shape = a.shape
    return record("global_avg_pool", (a,), out,
                  lambda g: (_spread(g / count, shape, (2, 3), True),))


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    before = a.shape
    return record("reshape", (a,), out, lambda g: (g.reshape(before),))


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = a.data.transpose(axes)
    return record("permute", (a,), out, lambda g: (g.transpose(inverse),))


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ContractError("concat of zero tensors")
    _check_same_dtype("concat", *tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    cuts = np.cumsum([t.data.shape[axis] for t in tensors[:-1]])
    return record("concat", tensors, out, lambda g: tuple(np.split(g, cuts, axis=axis)))


def _sliced(op: str, a: Tensor, idx: tuple) -> Tensor:
    """Record a copy of ``a.data[idx]``; its gradient lands in zeros shaped like a."""
    zeros = _zeros_later(a.data)

    def bwd(g):
        full = zeros()
        full[idx] = g
        return (full,)

    return record(op, (a,), a.data[idx].copy(), bwd)


def _slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    return _sliced("slice", a, tuple(idx))


def split(a: Tensor, sizes, axis: int):
    """Split along one axis into parts of the given sizes."""
    sizes = tuple(int(s) for s in sizes)
    if sum(sizes) != a.shape[axis]:
        raise ContractError(f"split sizes {sizes} do not sum to axis extent {a.shape[axis]}")
    parts = []
    offset = 0
    for s in sizes:
        parts.append(_slice_axis(a, axis, offset, offset + s))
        offset += s
    return tuple(parts)


def crop2d(a: Tensor, top: int, left: int, height: int, width: int) -> Tensor:
    """Crop the trailing two (spatial) axes."""
    if a.ndim < 2:
        raise ContractError("crop2d expects spatial trailing axes")
    return _sliced("crop2d", a, (Ellipsis, slice(top, top + height), slice(left, left + width)))


def take_last(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather along the last axis with a constant integer index vector."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ContractError("take_last expects a 1-D integer index array")
    out = a.data[..., idx].copy()
    shape, zeros = a.shape, _zeros_later(a.data)

    def bwd(g):
        flat_g = g.reshape(-1, idx.size)
        flat = zeros().reshape(-1, shape[-1])
        rows = np.arange(flat.shape[0])[:, None]
        np.add.at(flat, (rows, idx[None, :]), flat_g)
        return (flat.reshape(shape),)

    return record("take_last", (a,), out, bwd)


# ---------------------------------------------------------------------------
# matmul family


def _gemm(a: np.ndarray, b: np.ndarray, bias: "np.ndarray | None" = None,
          out: "np.ndarray | None" = None) -> np.ndarray:
    """``a @ b`` (numpy matmul rules), plus ``bias[..., i]`` on every row i.

    The forward GEMM of ``matmul`` and of ``conv2d``'s GEMM path, and of the
    tape-free blocks that rebuild their chains from these kernels.
    """
    out = np.matmul(a, b, out=out)
    if bias is not None:
        out += bias[..., None]
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product supporting 2-D and batched 3-D operands.

    Accepted rank combinations: 2x2, 3x3 (matching batch), 3x2, 2x3. The
    forward and the input gradients are numpy matmuls (einsum for the 2-D
    operand of 2x3). The weight gradient of a 3x2 product, which sums over
    batch and rows, is one flat GEMM over the stacked rows. It is the one
    backward here that sums in another order than a per-batch reduction
    would, so it differs from one by rounding. All are deterministic for a
    fixed build.
    """
    _check_same_dtype("matmul", a, b)
    ra, rb = a.ndim, b.ndim
    if (ra, rb) not in {(2, 2), (3, 3), (3, 2), (2, 3)}:
        raise ContractError(f"matmul: unsupported ranks {ra} and {rb}")
    if ra == 3 and rb == 3 and a.shape[0] != b.shape[0]:
        raise ContractError(f"matmul: batch mismatch {a.shape[0]} vs {b.shape[0]}")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul: inner dims {a.shape} @ {b.shape}")
    out = _gemm(a.data, b.data)
    # each operand's values only for the other's gradient
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def bwd(g):
        ga = gb = None
        if bd is not None:
            if ra == 2 and rb == 3:
                ga = np.einsum("bmn,bkn->mk", g, bd)
            else:
                ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        if ad is not None:
            if ra == 3 and rb == 2:
                gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return (ga, gb)

    return record("matmul", (a, b), out, bwd)


# ---------------------------------------------------------------------------
# convolution

# im2col bytes one GEMM of conv2d reads, taped or not: the 3x3 64->64 convs of
# the default preset at 256x256 would otherwise fault in a fresh 36 MiB matrix
# on every call.
_IM2COL_BYTES = 8 << 20

# Elements of the whole im2col matrix (about 1 GiB of float64) above which a
# dense conv takes the tap loop. It predates the row blocks and stays: huge
# inputs take the tap loop under it, and lifting it would change their
# outputs in the last bits.
_IM2COL_CAP = 1 << 27

# A one-group tap loop hands blocks of this many output rows to the thread
# pool, and every piece sums its rows in runs whose product buffer stays
# within _TAP_BYTES: small enough to stay in cache for a wide dense conv
# (one full-output product per tap made a 64->64 3x3 conv on a 488x488 grid
# memory-bound), large enough that a depthwise conv's per-tap calls stay few.
# A piece pads its input in blocks of groups within half of _TAP_BYTES, so a
# block and its products stay in cache together (a whole 2 MiB block was
# slower).
_TAP_ROWS = 16
_TAP_BYTES = 2 << 20


def _padded_rows(buf: np.ndarray, x: np.ndarray, ph: int, pw: int, y0: int,
                 y1: int) -> np.ndarray:
    """Rows ``y0:y1`` of ``x`` zero-padded by (``ph``, ``pw``), written into the
    front of the flat ``buf``: (N, C, y1 - y0, W + 2 * pw)."""
    n, c, h, w = x.shape
    out = buf[:n * c * (y1 - y0) * (w + 2 * pw)].reshape(n, c, y1 - y0, w + 2 * pw)
    a = min(max(y0, ph), y1)
    z = max(min(y1, ph + h), a)  # x's rows fill padded rows a:z
    out[:, :, :a - y0] = 0
    out[:, :, z - y0:] = 0
    inner = out[:, :, a - y0:z - y0]
    inner[..., :pw] = 0
    inner[..., pw + w:] = 0
    inner[..., pw:pw + w] = x[:, :, a - ph:z - ph]
    return out


def _im2col(xp: np.ndarray, groups: int, kh: int, kw: int, sh: int, sw: int,
            rows: slice, wo: int) -> np.ndarray:
    """(groups, cg*kh*kw, N*r*wo) columns of the output rows ``rows`` over padded ``xp``.

    Column order is (image, output row, output column), row order (channel,
    tap row, tap column).
    """
    n, cin = xp.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::sh, ::sw][:, :, rows, :wo]
    r = win.shape[2]
    return np.ascontiguousarray(
        win.reshape(n, groups, cin // groups, r, wo, kh, kw).transpose(1, 2, 5, 6, 0, 3, 4)
    ).reshape(groups, cin // groups * kh * kw, n * r * wo)


def conv2d(x: Tensor, w: Tensor, b: "Tensor | None" = None, stride=1, padding=0,
           groups: int = 1) -> Tensor:
    """Grouped 2-D cross-correlation over N x C x H x W.

    Weight shape is (Cout, Cin // groups, kh, kw). Zero padding. Dense and
    low-group-count kernels run as im2col GEMMs; depthwise-style kernels
    (many groups, few channels per group) accumulate per tap instead, since
    im2col would inflate memory by kh*kw there for no GEMM benefit. Both
    paths reduce each output element in a fixed order, so repeated runs on
    the same build match bitwise.

    A conv with a kh x kw > 1 kernel and at least 8 output channels per
    group builds its im2col matrix a block of output rows at a time, within
    ``_IM2COL_BYTES``, taped or not, and drops each after its GEMM; blocks
    are equal to within a few rows, and the output is bitwise the one-GEMM
    output. The GEMM path pads the whole input once. The tap loop makes no
    padded copy of the whole input: each block of groups pads only the
    rows it reads, and the output is bitwise the whole-input loop's.

    Backward computes only the gradients whose input requires one, so the
    constant windows of the loss get no weight gradient. The weight
    gradient pads ``x`` for one GEMM against the whole im2col matrix
    (GEMM path) or one dot product per tap (tap loop). The input gradient
    of a depthwise-shaped conv (one channel in and out per group) is a
    broadcast multiply-add per tap; other convs scatter GEMM columns tap by
    tap. Every gradient is bitwise reproducible, and the depthwise input
    gradient equals its GEMM formulation bit for bit, since a product with
    K = 1 is exact.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ContractError(f"conv2d expects 4-D input and weight, got {x.shape}, {w.shape}")
    tensors = (x, w) if b is None else (x, w, b)
    _check_same_dtype("conv2d", *tensors)
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    sh, sw = _as_pair(stride, "stride")
    ph, pw = _as_pair(padding, "padding")
    if cin % groups or cout % groups:
        raise ContractError(f"conv2d: channels {cin}->{cout} not divisible by groups={groups}")
    if cg != cin // groups:
        raise ContractError(f"conv2d: weight expects {cg} channels per group, input has {cin // groups}")
    if b is not None and b.shape != (cout,):
        raise ContractError(f"conv2d: bias must have shape ({cout},)")
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    if ho <= 0 or wo <= 0:
        raise ContractError(f"conv2d: empty output for input {x.shape} kernel {w.shape}")
    cog = cout // groups

    def padded(a):
        return np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else a

    wv = w.data.reshape(groups, cog, cg, kh, kw)
    hp, wp = h + 2 * ph, wd + 2 * pw

    # im2col pays off unless the conv is depthwise-style
    use_gemm = (kh == 1 and kw == 1) or (
        groups <= 4 and cg * kh * kw * n * ho * wo <= _IM2COL_CAP)
    bias = None if b is None else b.data.reshape(groups, cog)
    wk = wv.reshape(groups, cog, cg * kh * kw)
    if use_gemm:
        xp = padded(x.data)
        bounds = [0, ho]
        if kh * kw > 1 and cog >= 8:
            # A 1x1 conv's matrix is no larger than its input. A block's GEMM
            # must sum each column as the whole one does, but OpenBLAS
            # switches kernels for a thin block, for fewer than 8 weight
            # rows, and for a block's columns past a multiple of 8. So blocks
            # hold whole units of rows spanning a multiple of 8 columns,
            # differ by at most one unit, and the last also takes the rows left.
            unit = 8 // math.gcd(n * wo, 8)
            units = max(1, ho // unit)
            unit_bytes = unit * groups * cg * kh * kw * n * wo * xp.itemsize
            blocks = -(-units // max(1, _IM2COL_BYTES // unit_bytes))
            bounds = [unit * (units * k // blocks) for k in range(blocks)] + [ho]
        out = None if len(bounds) == 2 else np.empty((n, groups, cog, ho, wo), dtype=x.data.dtype)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            res = _gemm(wk, _im2col(xp, groups, kh, kw, sh, sw, slice(lo, hi), wo), bias)
            res = res.reshape(groups, cog, n, hi - lo, wo).transpose(2, 0, 1, 3, 4)
            if out is None:
                # one block: its result is the output, copied only to put
                # images before groups (one image in one group copies nothing)
                out = np.ascontiguousarray(res)
            else:
                out[:, :, :, lo:hi] = res
        out = out.reshape(n, cout, ho, wo)
    else:
        # Each output element sums its (channel, tap row, tap column)
        # products in that order. Pieces take groups, or blocks of
        # _TAP_ROWS output rows when there is one group. A piece works a
        # block of groups at a time and sums its rows in runs, padding only
        # the input rows a run reads, halo included.
        acc = np.zeros((n, groups, cog, ho, wo), dtype=x.data.dtype)
        isz = acc.itemsize

        def taps(g0, g1, lo, hi):
            rows_in = sh * (hi - lo - 1) + kh  # padded rows the piece reads
            gb = max(1, min(g1 - g0, _TAP_BYTES // 2 // (n * cg * rows_in * wp * isz)))
            run_rows = max(_TAP_ROWS, _TAP_BYTES // (n * gb * cog * wo * isz))
            most = min(run_rows, hi - lo)
            prod = np.empty(n * gb * cog * most * wo, dtype=acc.dtype)
            slab = np.empty(n * gb * cg * (sh * (most - 1) + kh) * wp, dtype=acc.dtype)
            for ga in range(g0, g1, gb):
                gz = min(ga + gb, g1)
                for r0 in range(lo, hi, run_rows):
                    r1 = min(r0 + run_rows, hi)
                    xs = _padded_rows(slab, x.data[:, ga * cg:gz * cg], ph, pw,
                                      sh * r0, sh * (r1 - 1) + kh)
                    xs = xs.reshape(n, gz - ga, cg, -1, wp)
                    part = acc[:, ga:gz, :, r0:r1]
                    pp = prod[:part.size].reshape(part.shape)
                    for c in range(cg):
                        plane = xs[:, :, c]
                        for i in range(kh):
                            for j in range(kw):
                                s = plane[:, :, i:i + sh * (r1 - r0):sh, j:j + sw * wo:sw]
                                np.multiply(wv[np.newaxis, ga:gz, :, c, i, j, np.newaxis,
                                               np.newaxis], s[:, :, np.newaxis], out=pp)
                                part += pp

        work = n * cout * ho * wo * cg * kh * kw
        if groups > 1:
            parallel.run(lambda lo, hi: taps(lo, hi, 0, ho), groups, work // groups,
                         grain=1 << 20)
        else:
            rows = -(-ho // _TAP_ROWS)
            parallel.run(lambda lo, hi: taps(0, 1, lo * _TAP_ROWS, min(hi * _TAP_ROWS, ho)),
                         rows, work // rows, grain=1 << 20, least=1)
        out = acc.reshape(n, cout, ho, wo)
        if b is not None:
            out += b.data.reshape(1, cout, 1, 1)

    need_x, need_w = x.requires_grad, w.requires_grad
    b_grad = None if b is None else b.requires_grad
    depthwise = cg == 1 and cog == 1
    dt, w_shape = x.data.dtype, w.shape
    x_in = x if need_w else None  # only the weight gradient reads the input

    def taps_of(a):
        """(i, j, strided view of a's padded grid under tap (i, j)) in row-major tap order."""
        for i in range(kh):
            for j in range(kw):
                yield i, j, a[..., i:i + sh * ho:sh, j:j + sw * wo:sw]

    def bwd(g):
        gv = g.reshape(n, groups, cog, ho, wo)
        gx = gw = None
        if need_w or not depthwise:
            # (g, cog, N*ho*wo) once; the heavy work is then batched GEMMs.
            gvr = np.ascontiguousarray(gv.transpose(1, 2, 0, 3, 4)).reshape(groups, cog, -1)
        if need_w and use_gemm:
            col = _im2col(padded(x_in.data), groups, kh, kw, sh, sw, slice(0, ho), wo)
            gw = np.matmul(gvr, col.swapaxes(1, 2)).reshape(w_shape)
        elif need_w:
            gwv = np.zeros_like(wv)
            for i, j, s in taps_of(padded(x_in.data).reshape(n, groups, cg, hp, wp)):
                sr = np.ascontiguousarray(s.transpose(1, 2, 0, 3, 4)).reshape(groups, cg, -1)
                gwv[:, :, :, i, j] = np.matmul(gvr, sr.swapaxes(1, 2))
            gw = gwv.reshape(w_shape)
        if need_x:
            gx_pad = np.zeros((n, groups, cg, hp, wp), dtype=dt)
            if depthwise:
                # One channel in and out per group: each tap is a broadcast
                # multiply-add, the exact K=1 product the GEMMs would give.
                for i, j, dst in taps_of(gx_pad):
                    dst += gv * wv[np.newaxis, :, :, 0, i, j, np.newaxis, np.newaxis]
            elif use_gemm:
                gcol = np.matmul(wk.swapaxes(1, 2), gvr).reshape(groups, cg, kh, kw, n, ho, wo)
                for i, j, dst in taps_of(gx_pad):
                    dst += gcol[:, :, i, j].transpose(2, 0, 1, 3, 4)
            else:
                for i, j, dst in taps_of(gx_pad):
                    gs = np.matmul(wv[:, :, :, i, j].swapaxes(1, 2), gvr)
                    dst += gs.reshape(groups, cg, n, ho, wo).transpose(2, 0, 1, 3, 4)
            gx = gx_pad.reshape(n, cin, hp, wp)[:, :, ph:ph + h, pw:pw + wd]
        if b_grad is None:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2, 3)) if b_grad else None)

    return record("conv2d", tensors, out, bwd)


def conv_transpose2d(x: Tensor, w: Tensor, b: "Tensor | None" = None) -> Tensor:
    """Transposed convolution whose stride is its kernel size: an s x s up-sampler.

    Weight shape is (Cx, Cy, s, s) where Cx matches the input channels. With
    the same weight array, <conv2d(x, w, stride=s), y> == <x, conv_transpose2d(y, w)>.
    Taps never overlap, so each input pixel writes one s x s output block:
    the weight is permuted to a 1x1 ``conv2d`` to Cy*s*s channels, and
    ``pixel_shuffle`` lays those out as the blocks.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ContractError(f"conv_transpose2d expects 4-D input and weight, got {x.shape}, {w.shape}")
    cx, cy, kh, kw = w.shape
    if x.shape[1] != cx:
        raise ContractError(f"conv_transpose2d: input has {x.shape[1]} channels, weight expects {cx}")
    if kh != kw:
        raise ContractError(f"conv_transpose2d: kernel {kh}x{kw} is not square")
    if b is not None and b.shape != (cy,):
        raise ContractError(f"conv_transpose2d: bias must have shape ({cy},)")
    # (Cx, Cy, s, s) -> (Cy*s*s, Cx, 1, 1): channel c*s*s + i*s + j is tap (i, j) of c
    w1 = reshape(permute(w, (1, 2, 3, 0)), (cy * kh * kw, cx, 1, 1))
    out = pixel_shuffle(conv2d(x, w1), kh)
    return out if b is None else add(out, reshape(b, (1, cy, 1, 1)))


def _bilinear(x: np.ndarray, cy_raw: np.ndarray, cx_raw: np.ndarray, out: np.ndarray):
    """Bilinear samples of the planes of ``x`` into ``out``.

    ``x`` is N x C x H x W, ``cy_raw`` and ``cx_raw`` hold the (y, x)
    positions of each image (N, ...), clamped to the image rectangle, and
    ``out``, which may be a strided view, takes the samples (N, C, ...). The
    forward kernel of ``bilinear_sample``; tape-free blocks run it on ranges
    of positions, and every sample is computed alone, so a range gets the
    bits the whole would. Returns the corner indices (y0, x0, y1, x1), the
    weights (wy, wx) broadcast over channels and the corner values, which
    the backward reads.
    """
    n, c, h, w = x.shape
    cy = np.clip(cy_raw, 0.0, h - 1.0)
    cx = np.clip(cx_raw, 0.0, w - 1.0)
    y0 = np.floor(cy).astype(np.int64)
    x0 = np.floor(cx).astype(np.int64)
    wy = (cy - y0).astype(x.dtype)[:, None]
    wx = (cx - x0).astype(x.dtype)[:, None]
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    # one flat take per corner: plane (i, j) starts at (i * c + j) * h * w
    flat = x.reshape(-1)
    planes = (np.arange(n * c) * (h * w)).reshape((n, c) + (1,) * (cy.ndim - 1))
    v = [flat.take(planes + (yy * w + xx)[:, None])
         for yy, xx in ((y0, x0), (y0, x1), (y1, x0), (y1, x1))]
    # (1-wy)(1-wx) v00 + (1-wy) wx v01 + wy (1-wx) v10 + wy wx v11, summed left to right
    acc = (1 - wy) * (1 - wx) * v[0]
    acc += (1 - wy) * wx * v[1]
    acc += wy * (1 - wx) * v[2]
    np.add(acc, wy * wx * v[3], out=out)
    return (y0, x0, y1, x1), (wy, wx), v


def bilinear_sample(x: Tensor, coords: Tensor) -> Tensor:
    """Sample x at fractional (y, x) positions shared across channels.

    x is N x C x H x W, coords is N x P x 2 holding (y, x) in pixel units.
    Coordinates clamp to the valid rectangle; the clamp passes zero gradient
    for positions outside it. Returns N x C x P. The forward is
    ``_bilinear`` over all positions.
    """
    if x.ndim != 4 or coords.ndim != 3 or coords.shape[-1] != 2:
        raise ContractError(f"bilinear_sample: got input {x.shape}, coords {coords.shape}")
    if coords.shape[0] != x.shape[0]:
        raise ContractError("bilinear_sample: batch mismatch between input and coords")
    _check_same_dtype("bilinear_sample", x, coords)
    n, c, h, w = x.shape
    dt = x.data.dtype

    cy_raw = coords.data[:, :, 0]
    cx_raw = coords.data[:, :, 1]
    out = np.empty((n, c, coords.shape[1]), dtype=dt)
    corners, (wyb, wxb), (v00, v01, v10, v11) = _bilinear(x.data, cy_raw, cx_raw, out)
    if not x.requires_grad:
        corners = None  # only the input's gradient reads the corner indices

    def bwd(g):
        gx = None
        if corners is not None:
            y0, x0, y1, x1 = corners
            nn = np.arange(n)[:, None, None]
            cc = np.arange(c)[None, :, None]
            gx_flat = np.zeros((n, c, h * w), dtype=dt)
            for yy, xx, ww in ((y0, x0, (1 - wyb) * (1 - wxb)), (y0, x1, (1 - wyb) * wxb),
                               (y1, x0, wyb * (1 - wxb)), (y1, x1, wyb * wxb)):
                np.add.at(gx_flat, (nn, cc, (yy * w + xx)[:, None, :]), g * ww)
            gx = gx_flat.reshape(n, c, h, w)
        dmy = (g * (-(1 - wxb) * v00 - wxb * v01 + (1 - wxb) * v10 + wxb * v11)).sum(axis=1)
        dmx = (g * (-(1 - wyb) * v00 + (1 - wyb) * v01 - wyb * v10 + wyb * v11)).sum(axis=1)
        in_y = (cy_raw >= 0.0) & (cy_raw <= h - 1.0)
        in_x = (cx_raw >= 0.0) & (cx_raw <= w - 1.0)
        gc = np.stack([dmy * in_y, dmx * in_x], axis=-1).astype(dt)
        return (gx, gc)

    return record("bilinear_sample", (x, coords), out, bwd)


# ---------------------------------------------------------------------------
# pixel shuffle


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """N x (C r^2) x H x W -> N x C x rH x rW, :func:`demosaick.cfa.depth_to_space`.

    Output channel c at (r*i + dy, r*j + dx) equals input channel
    c*r^2 + dy*r + dx at (i, j). A pure index permutation, bit-exact.
    """
    if x.ndim != 4:
        raise ContractError(f"pixel_shuffle expects NCHW, got {x.shape}")
    if x.shape[1] % (r * r):
        raise ContractError(f"pixel_shuffle: {x.shape[1]} channels not divisible by r^2={r * r}")
    out = cfa.depth_to_space(x.data, r)
    return record("pixel_shuffle", (x,), out, lambda g: (cfa.space_to_depth(g, r),))


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """Inverse of pixel_shuffle: N x C x rH x rW -> N x (C r^2) x H x W."""
    if x.ndim != 4:
        raise ContractError(f"pixel_unshuffle expects NCHW, got {x.shape}")
    hr, wr = x.shape[2:]
    if hr % r or wr % r:
        raise ContractError(f"pixel_unshuffle: spatial dims {hr}x{wr} not divisible by r={r}")
    out = cfa.space_to_depth(x.data, r)
    return record("pixel_unshuffle", (x,), out, lambda g: (cfa.depth_to_space(g, r),))


# ---------------------------------------------------------------------------
# operator sugar on Tensor

def _t_mul(self, other):
    if isinstance(other, Tensor):
        return mul(self, other)
    return scale(self, float(other))


def _t_rmul(self, other):
    return scale(self, float(other))


def _t_truediv(self, other):
    if isinstance(other, Tensor):
        return div(self, other)
    return scale(self, 1.0 / float(other))


Tensor.__add__ = add
Tensor.__sub__ = sub
Tensor.__mul__ = _t_mul
Tensor.__rmul__ = _t_rmul
Tensor.__neg__ = neg
Tensor.__truediv__ = _t_truediv
Tensor.__matmul__ = matmul
