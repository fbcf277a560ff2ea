"""Differentiable operations on :class:`~demosaick.tensor.Tensor`.

Every public function computes its result eagerly with numpy, then hands the
output to :func:`~demosaick.tensor.record`, which validates finiteness and
appends a node to the active tape when a gradient is required.

Layout conventions: image tensors are N x C x H x W. ``conv2d`` accumulates
its forward sum in a fixed order (input channel outer, kernel taps row-major
inner) with no cross-element reductions per step, so its output is
bit-identical across runs and BLAS thread counts. Backward passes and the
matmul family reduce with numpy primitives, which are deterministic for a
fixed numpy build.

Inside a :func:`demosaick.parallel.blas_budget` scope (every
``DemosaickModel.predict``) the forward passes of ``gelu``, ``softmax``,
``layer_norm`` and the depthwise tap loop of ``conv2d`` run in contiguous
pieces on several threads. A kernel is cut only along axes it does not reduce
over: ``gelu`` anywhere, ``softmax`` over the indices before its axis,
``layer_norm`` over positions and never over channels, ``conv2d`` over
groups. Each piece holds at least two indices along the cut, so every output
element sees the same operations in the same order as in one piece, and
results are bitwise-identical for any thread count. Backward passes run on
the calling thread.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf as _erf

from . import parallel
from .errors import ContractError
from .tensor import Tensor, record

__all__ = [
    "add", "sub", "neg", "mul", "div", "scale", "abs_", "pow_const",
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

    def bwd(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return record("add", (a, b), out, bwd)


def neg(a: Tensor) -> Tensor:
    return record("neg", (a,), -a.data, lambda g: (-g,))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("sub", a, b)
    out = a.data - b.data

    def bwd(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))

    return record("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("mul", a, b)
    out = a.data * b.data

    def bwd(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return record("mul", (a, b), out, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype("div", a, b)
    out = a.data / b.data

    def bwd(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return (_unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape))

    return record("div", (a, b), out, bwd)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    return record("scale", (a,), a.data * s, lambda g: (g * s,))


def abs_(a: Tensor) -> Tensor:
    # Subgradient at 0 is 0 (sign(0) == 0).
    sign = np.sign(a.data)
    return record("abs", (a,), np.abs(a.data), lambda g: (g * sign,))


def pow_const(a: Tensor, p: float) -> Tensor:
    """a ** p for a constant exponent. Requires a > 0 when p is fractional."""
    out = a.data ** a.data.dtype.type(p)

    def bwd(g):
        return (g * p * a.data ** a.data.dtype.type(p - 1.0),)

    return record("pow_const", (a,), out, bwd)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient passes wherever a >= lo."""
    lo = a.data.dtype.type(lo)
    mask = a.data >= lo
    return record("clamp_min", (a,), np.maximum(a.data, lo), lambda g: (g * mask,))


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


def gelu(a: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF via erf."""
    x = a.data
    cdf = np.empty_like(x)
    out = np.empty_like(x)

    def piece(xs, cs, os):
        # Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), built in one buffer.
        np.multiply(xs, _INV_SQRT2, out=cs)
        _erf(cs, out=cs)
        cs += 1.0
        cs *= 0.5
        np.multiply(xs, cs, out=os)

    parallel.elementwise(piece, x, cdf, out)  # erf is costly: small pieces pay

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return ((g * (cdf + x * pdf)).astype(x.dtype, copy=False),)

    return record("gelu", (a,), out, bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Shift-invariant softmax along one axis."""
    x = a.data
    out = np.empty_like(x)

    def piece(xs, os, ax):
        np.subtract(xs, xs.max(axis=ax, keepdims=True), out=os)
        np.exp(os, out=os)
        os /= os.sum(axis=ax, keepdims=True)

    if x.flags.c_contiguous and x.ndim:
        # rows: every index before the softmax axis, as one leading axis
        ax = axis % x.ndim
        rows, post = math.prod(x.shape[:ax]), math.prod(x.shape[ax + 1:])
        xv, ov = (t.reshape(rows, x.shape[ax], post) for t in (x, out))
        parallel.run(lambda lo, hi: piece(xv[lo:hi], ov[lo:hi], 1), rows,
                     x.shape[ax] * post, grain=1 << 20)
    else:
        piece(x, out, axis)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return record("softmax", (a,), out, bwd)


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
    bshape = (1, C) + (1,) * (x.ndim - 2)
    xd = x.data
    eps_t = xd.dtype.type(eps)
    xhat = np.empty_like(xd)
    inv_std = np.empty(xd.shape[:1] + (1,) + xd.shape[2:], dtype=xd.dtype)
    out = np.empty_like(xd)

    def piece(xs, hs, ins, os, gb, bb):
        np.subtract(xs, xs.mean(axis=1, keepdims=True), out=hs)
        var = np.multiply(hs, hs, out=os).mean(axis=1, keepdims=True)  # os as scratch
        np.divide(1.0, np.sqrt(var + eps_t), out=ins)
        hs *= ins
        np.multiply(gb, hs, out=os)
        os += bb

    if xd.flags.c_contiguous:
        # positions: every index after the channel axis, as one trailing axis
        n, pos = xd.shape[0], math.prod(xd.shape[2:])
        xv, hv, ov = (t.reshape(n, C, pos) for t in (xd, xhat, out))
        iv = inv_std.reshape(n, 1, pos)
        gb, bb = gamma.data.reshape(1, C, 1), beta.data.reshape(1, C, 1)
        parallel.run(lambda lo, hi: piece(xv[..., lo:hi], hv[..., lo:hi], iv[..., lo:hi],
                                          ov[..., lo:hi], gb, bb), pos, n * C, grain=1 << 19)
    else:
        piece(xd, xhat, inv_std, out, gamma.data.reshape(bshape), beta.data.reshape(bshape))

    def bwd(g):
        axes = tuple(i for i in range(x.ndim) if i != 1)
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        dxhat = g * gamma.data.reshape(bshape)
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        dx = inv_std * (dxhat - m1 - xhat * m2)
        return (dx.astype(x.data.dtype, copy=False), dgamma, dbeta)

    return record("layer_norm", (x, gamma, beta), out, bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return record("sum", (a,), np.asarray(out), bwd)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.data.shape[ax]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            gg = g / a.data.dtype.type(count)
            return (np.broadcast_to(gg, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        gg = gg / a.data.dtype.type(count)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return record("mean", (a,), np.asarray(out), bwd)


def global_avg_pool(a: Tensor) -> Tensor:
    """N x C x H x W -> N x C x 1 x 1 spatial mean."""
    if a.ndim != 4:
        raise ContractError(f"global_avg_pool expects NCHW, got {a.shape}")
    n, c, h, w = a.shape
    out = a.data.mean(axis=(2, 3), keepdims=True)

    def bwd(g):
        return (np.broadcast_to(g / a.data.dtype.type(h * w), a.data.shape).copy(),)

    return record("global_avg_pool", (a,), out, bwd)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    return record("reshape", (a,), out, lambda g: (g.reshape(a.data.shape),))


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
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def bwd(g):
        pieces = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(int(lo), int(hi))
            pieces.append(g[tuple(idx)])
        return tuple(pieces)

    return record("concat", tensors, out, bwd)


def _slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = a.data[idx].copy()

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return record("slice", (a,), out, bwd)


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
    idx = (Ellipsis, slice(top, top + height), slice(left, left + width))
    out = a.data[idx].copy()

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return record("crop2d", (a,), out, bwd)


def take_last(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather along the last axis with a constant integer index vector."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ContractError("take_last expects a 1-D integer index array")
    out = a.data[..., idx].copy()

    def bwd(g):
        ga = np.zeros_like(a.data)
        flat_g = g.reshape(-1, idx.size)
        flat = ga.reshape(-1, a.data.shape[-1])
        rows = np.arange(flat.shape[0])[:, None]
        np.add.at(flat, (rows, idx[None, :]), flat_g)
        return (flat.reshape(a.data.shape),)

    return record("take_last", (a,), out, bwd)


# ---------------------------------------------------------------------------
# matmul family


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product supporting 2-D and batched 3-D operands.

    Accepted rank combinations: 2x2, 3x3 (matching batch), 3x2, 2x3. Batched
    reduction uses numpy matmul/einsum, deterministic for a fixed build.
    """
    _check_same_dtype("matmul", a, b)
    ra, rb = a.ndim, b.ndim
    if (ra, rb) not in {(2, 2), (3, 3), (3, 2), (2, 3)}:
        raise ContractError(f"matmul: unsupported ranks {ra} and {rb}")
    if ra == 3 and rb == 3 and a.shape[0] != b.shape[0]:
        raise ContractError(f"matmul: batch mismatch {a.shape[0]} vs {b.shape[0]}")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul: inner dims {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def bwd(g):
        bt = np.swapaxes(b.data, -1, -2)
        at = np.swapaxes(a.data, -1, -2)
        if ra == 2 and rb == 3:
            ga = np.einsum("bmn,bkn->mk", g, b.data)
        else:
            ga = np.matmul(g, bt)
        if ra == 3 and rb == 2:
            gb = np.einsum("bmk,bmn->kn", a.data, g)
        else:
            gb = np.matmul(at, g)
        return (ga, gb)

    return record("matmul", (a, b), out, bwd)


# ---------------------------------------------------------------------------
# convolution


def conv2d(x: Tensor, w: Tensor, b: "Tensor | None" = None, stride=1, padding=0,
           groups: int = 1) -> Tensor:
    """Grouped 2-D cross-correlation over N x C x H x W.

    Weight shape is (Cout, Cin // groups, kh, kw). Zero padding. Dense and
    low-group-count kernels run as im2col GEMMs; depthwise-style kernels
    (many groups, few channels per group) accumulate per tap instead, since
    im2col would inflate memory by kh*kw there for no GEMM benefit. Both
    paths reduce each output element in a fixed order, so repeated runs on
    the same build match bitwise.
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

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    xv = xp.reshape(n, groups, cg, xp.shape[2], xp.shape[3])
    wv = w.data.reshape(groups, cog, cg, kh, kw)

    # im2col pays off unless the conv is depthwise-style; cap the column
    # matrix at ~1 GiB so huge inputs fall back to the streaming tap loop.
    use_gemm = (kh == 1 and kw == 1) or (
        groups <= 4 and cg * kh * kw * n * ho * wo <= (1 << 27))
    col = wk = None
    if use_gemm:
        if kh == 1 and kw == 1:
            s = xv[:, :, :, ::sh, ::sw][:, :, :, :ho, :wo]
            col = np.ascontiguousarray(s.transpose(1, 2, 0, 3, 4)).reshape(groups, cg, -1)
        else:
            win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
            win = win[:, :, ::sh, ::sw][:, :, :ho, :wo]
            col = np.ascontiguousarray(
                win.reshape(n, groups, cg, ho, wo, kh, kw).transpose(1, 2, 5, 6, 0, 3, 4)
            ).reshape(groups, cg * kh * kw, n * ho * wo)
        wk = wv.reshape(groups, cog, cg * kh * kw)
        out = np.matmul(wk, col).reshape(groups, cog, n, ho, wo).transpose(2, 0, 1, 3, 4)
        out = np.ascontiguousarray(out).reshape(n, cout, ho, wo)
    else:
        acc = np.zeros((n, groups, cog, ho, wo), dtype=x.data.dtype)

        def taps(lo, hi):
            part = acc[:, lo:hi]
            for c in range(cg):
                plane = xv[:, lo:hi, c]
                for i in range(kh):
                    for j in range(kw):
                        s = plane[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
                        part += (wv[np.newaxis, lo:hi, :, c, i, j, np.newaxis, np.newaxis]
                                 * s[:, :, np.newaxis])

        parallel.run(taps, groups, n * cog * ho * wo * cg * kh * kw, grain=1 << 20)
        out = acc.reshape(n, cout, ho, wo)
    if b is not None:
        out = out + b.data.reshape(1, cout, 1, 1)

    def bwd(g):
        gv = g.reshape(n, groups, cog, ho, wo)
        # (g, cog, N*ho*wo) once; the heavy work is then batched GEMMs.
        gvr = np.ascontiguousarray(gv.transpose(1, 2, 0, 3, 4)).reshape(groups, cog, -1)
        gx_pad = np.zeros_like(xp).reshape(n, groups, cg, xp.shape[2], xp.shape[3])
        if use_gemm:
            gw = np.matmul(gvr, col.swapaxes(1, 2)).reshape(w.data.shape)
            gcol = np.matmul(wk.swapaxes(1, 2), gvr)
            gcol = gcol.reshape(groups, cg, kh, kw, n, ho, wo)
            for i in range(kh):
                for j in range(kw):
                    gx_pad[:, :, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += (
                        gcol[:, :, i, j].transpose(2, 0, 1, 3, 4))
        else:
            gwv = np.zeros_like(wv)
            for i in range(kh):
                for j in range(kw):
                    s = xv[:, :, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
                    sr = np.ascontiguousarray(s.transpose(1, 2, 0, 3, 4)).reshape(groups, cg, -1)
                    gwv[:, :, :, i, j] = np.matmul(gvr, sr.swapaxes(1, 2))
                    gs = np.matmul(wv[:, :, :, i, j].swapaxes(1, 2), gvr)
                    gx_pad[:, :, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += (
                        gs.reshape(groups, cg, n, ho, wo).transpose(2, 0, 1, 3, 4))
            gw = gwv.reshape(w.data.shape)
        gx = gx_pad.reshape(xp.shape)
        if ph or pw:
            gx = gx[:, :, ph:ph + h, pw:pw + wd]
        grads = [gx, gw]
        if b is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    return record("conv2d", tensors, out, bwd)


def conv_transpose2d(x: Tensor, w: Tensor, b: "Tensor | None" = None, stride=1,
                     padding=0) -> Tensor:
    """Transposed convolution, the adjoint of conv2d.

    Weight shape is (Cx, Cy, kh, kw) where Cx matches the input channels.
    With the same weight array, <conv2d(x, w), y> == <x, conv_transpose2d(y, w)>.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ContractError(f"conv_transpose2d expects 4-D input and weight, got {x.shape}, {w.shape}")
    tensors = (x, w) if b is None else (x, w, b)
    _check_same_dtype("conv_transpose2d", *tensors)
    n, cx, h, wd = x.shape
    cx_w, cy, kh, kw = w.shape
    if cx != cx_w:
        raise ContractError(f"conv_transpose2d: input has {cx} channels, weight expects {cx_w}")
    sh, sw = _as_pair(stride, "stride")
    ph, pw = _as_pair(padding, "padding")
    hf = (h - 1) * sh + kh
    wf = (wd - 1) * sw + kw
    ho, wo = hf - 2 * ph, wf - 2 * pw
    if ho <= 0 or wo <= 0:
        raise ContractError(f"conv_transpose2d: empty output for input {x.shape}")
    if b is not None and b.shape != (cy,):
        raise ContractError(f"conv_transpose2d: bias must have shape ({cy},)")

    xf = x.data.reshape(n, cx, h * wd)
    full = np.zeros((n, cy, hf, wf), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            tap = np.matmul(w.data[:, :, i, j].T, xf).reshape(n, cy, h, wd)
            full[:, :, i:i + sh * (h - 1) + 1:sh, j:j + sw * (wd - 1) + 1:sw] += tap
    out = full[:, :, ph:ph + ho, pw:pw + wo]
    if b is not None:
        out = out + b.data.reshape(1, cy, 1, 1)
    else:
        out = out.copy()

    def bwd(g):
        gfull = np.zeros((n, cy, hf, wf), dtype=g.dtype)
        gfull[:, :, ph:ph + ho, pw:pw + wo] = g
        gx = np.zeros_like(xf)
        gw = np.zeros_like(w.data)
        for i in range(kh):
            for j in range(kw):
                gs = gfull[:, :, i:i + sh * (h - 1) + 1:sh, j:j + sw * (wd - 1) + 1:sw]
                gsf = np.ascontiguousarray(gs).reshape(n, cy, h * wd)
                gx += np.matmul(w.data[:, :, i, j], gsf)
                gw[:, :, i, j] = np.matmul(xf, gsf.swapaxes(1, 2)).sum(axis=0)
        grads = [gx.reshape(x.shape), gw]
        if b is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return tuple(grads)

    return record("conv_transpose2d", tensors, out, bwd)


def bilinear_sample(x: Tensor, coords: Tensor) -> Tensor:
    """Sample x at fractional (y, x) positions shared across channels.

    x is N x C x H x W, coords is N x P x 2 holding (y, x) in pixel units.
    Coordinates clamp to the valid rectangle; the clamp passes zero gradient
    for positions outside it. Returns N x C x P.
    """
    if x.ndim != 4 or coords.ndim != 3 or coords.shape[-1] != 2:
        raise ContractError(f"bilinear_sample: got input {x.shape}, coords {coords.shape}")
    if coords.shape[0] != x.shape[0]:
        raise ContractError("bilinear_sample: batch mismatch between input and coords")
    _check_same_dtype("bilinear_sample", x, coords)
    n, c, h, w = x.shape
    p = coords.shape[1]
    dt = x.data.dtype

    cy_raw = coords.data[:, :, 0]
    cx_raw = coords.data[:, :, 1]
    cy = np.clip(cy_raw, 0.0, h - 1.0)
    cx = np.clip(cx_raw, 0.0, w - 1.0)
    in_y = (cy_raw >= 0.0) & (cy_raw <= h - 1.0)
    in_x = (cx_raw >= 0.0) & (cx_raw <= w - 1.0)

    y0 = np.floor(cy).astype(np.int64)
    x0 = np.floor(cx).astype(np.int64)
    wy = (cy - y0).astype(dt)
    wx = (cx - x0).astype(dt)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)

    flat = x.data.reshape(n, c, h * w)
    nn = np.arange(n)[:, None, None]
    cc = np.arange(c)[None, :, None]

    def gather(yy, xx):
        return flat[nn, cc, (yy * w + xx)[:, None, :]]

    v00 = gather(y0, x0)
    v01 = gather(y0, x1)
    v10 = gather(y1, x0)
    v11 = gather(y1, x1)

    wyb = wy[:, None, :]
    wxb = wx[:, None, :]
    out = ((1 - wyb) * (1 - wxb) * v00 + (1 - wyb) * wxb * v01
           + wyb * (1 - wxb) * v10 + wyb * wxb * v11)

    def bwd(g):
        gx = None
        if x.requires_grad:
            gx_flat = np.zeros((n, c, h * w), dtype=dt)
            for yy, xx, ww in ((y0, x0, (1 - wyb) * (1 - wxb)), (y0, x1, (1 - wyb) * wxb),
                               (y1, x0, wyb * (1 - wxb)), (y1, x1, wyb * wxb)):
                np.add.at(gx_flat, (nn, cc, (yy * w + xx)[:, None, :]), g * ww)
            gx = gx_flat.reshape(x.data.shape)
        dmy = (g * (-(1 - wxb) * v00 - wxb * v01 + (1 - wxb) * v10 + wxb * v11)).sum(axis=1)
        dmx = (g * (-(1 - wyb) * v00 + (1 - wyb) * v01 - wyb * v10 + wyb * v11)).sum(axis=1)
        gc = np.stack([dmy * in_y, dmx * in_x], axis=-1).astype(dt)
        return (gx, gc)

    return record("bilinear_sample", (x, coords), out, bwd)


# ---------------------------------------------------------------------------
# pixel shuffle


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """N x (C r^2) x H x W -> N x C x rH x rW.

    Output channel c at (r*i + dy, r*j + dx) equals input channel
    c*r^2 + dy*r + dx at (i, j). A pure index permutation, bit-exact.
    """
    if x.ndim != 4:
        raise ContractError(f"pixel_shuffle expects NCHW, got {x.shape}")
    n, c2, h, w = x.shape
    if c2 % (r * r):
        raise ContractError(f"pixel_shuffle: {c2} channels not divisible by r^2={r * r}")
    c = c2 // (r * r)
    out = (x.data.reshape(n, c, r, r, h, w)
           .transpose(0, 1, 4, 2, 5, 3)
           .reshape(n, c, h * r, w * r))

    def bwd(g):
        return (g.reshape(n, c, h, r, w, r)
                .transpose(0, 1, 3, 5, 2, 4)
                .reshape(n, c2, h, w),)

    return record("pixel_shuffle", (x,), out, bwd)


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """Inverse of pixel_shuffle: N x C x rH x rW -> N x (C r^2) x H x W."""
    if x.ndim != 4:
        raise ContractError(f"pixel_unshuffle expects NCHW, got {x.shape}")
    n, c, hr, wr = x.shape
    if hr % r or wr % r:
        raise ContractError(f"pixel_unshuffle: spatial dims {hr}x{wr} not divisible by r={r}")
    h, w = hr // r, wr // r
    out = (x.data.reshape(n, c, h, r, w, r)
           .transpose(0, 1, 3, 5, 2, 4)
           .reshape(n, c * r * r, h, w))

    def bwd(g):
        return (g.reshape(n, c, r, r, h, w)
                .transpose(0, 1, 4, 2, 5, 3)
                .reshape(n, c, hr, wr),)

    return record("pixel_unshuffle", (x,), out, bwd)


# ---------------------------------------------------------------------------
# operator sugar on Tensor

def _t_add(self, other):
    return add(self, other)


def _t_sub(self, other):
    return sub(self, other)


def _t_mul(self, other):
    if isinstance(other, Tensor):
        return mul(self, other)
    return scale(self, float(other))


def _t_rmul(self, other):
    return scale(self, float(other))


def _t_neg(self):
    return neg(self)


def _t_truediv(self, other):
    if isinstance(other, Tensor):
        return div(self, other)
    return scale(self, 1.0 / float(other))


Tensor.__add__ = _t_add
Tensor.__sub__ = _t_sub
Tensor.__mul__ = _t_mul
Tensor.__rmul__ = _t_rmul
Tensor.__neg__ = _t_neg
Tensor.__truediv__ = _t_truediv
Tensor.__matmul__ = matmul
