"""Network building blocks: convolution layers, window attention, spectral mixers.

Every block is a :class:`Module` holding ``ParamLeaf`` weights and exposing
``__call__`` (or ``transform``) that records onto the active tape.  Its
``leaves()``, used by the model and optimizer, lists the parameters in the
order the constructor assigns the attributes that hold them.  Construction
order is fixed, so a given (config, seed) pair always produces the same
initial weights and the same parameter order.

Residual convention: blocks whose equations include a residual apply it
internally (``SpectralMixer``, ``MobileNetV3Unit``); attention-style blocks
expose ``transform`` and the caller writes ``x + blk.transform(x)``.  Zeroing
every sub-path weight therefore reduces each residual block to the identity.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import ops
from .errors import ConfigError
from .tensor import ParamLeaf, Tensor, constant, recording


# Init gain for the last convolution of each residual branch. Full Kaiming
# there makes every residual add double the activation variance, which
# compounds to huge outputs over the cell stack and wastes the early training
# budget shrinking scales instead of learning structure.
BRANCH_GAIN = 0.1

# Attention logits one window chunk may hold in a tape-free forward: 4 MiB,
# 32 windows of the default preset (8 heads, 8x8 windows, float32). The
# logits of a whole image (33.5 MB for that preset at 256x256 in, two copies
# alive at once from scale to softmax) are then never held at once. A chunk's
# MLP hidden layer (512K elements) still splits over threads at GELU's grain;
# its softmax (1M elements) runs as one piece at its 1M-element grain.
_CHUNK_LOGIT_BYTES = 4 << 20


class Module:
    """A block that holds ``ParamLeaf`` weights, directly or in sub-blocks.

    ``leaves()`` walks the attributes in assignment order, yielding each
    ``ParamLeaf`` and, depth first, the leaves of each sub-``Module``, held
    alone or in a list.  Everything else (sizes, index arrays, ``None`` for an
    absent bias) is skipped.
    """

    def leaves(self) -> Iterator[ParamLeaf]:
        for value in vars(self).values():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, ParamLeaf):
                    yield item
                elif isinstance(item, Module):
                    yield from item.leaves()


def trunc_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with resampling of draws outside +-2 std."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x


def kaiming_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Fan-in Kaiming init for conv / linear weights (fan = prod of trailing dims)."""
    fan_in = int(np.prod(shape[1:]))
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)


class Conv2d(Module):
    """Grouped 2-d convolution layer wrapping :func:`ops.conv2d`.

    ``gain`` scales the Kaiming std; residual blocks pass a small gain for
    their branch-final convolution so stacking residuals does not double the
    activation variance per block at initialization.
    """

    def __init__(
        self,
        name: str,
        rng: np.random.Generator,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        zero_init: bool = False,
        gain: float = 1.0,
    ) -> None:
        if in_channels % groups or out_channels % groups:
            raise ConfigError(
                f"{name}: channels ({in_channels}->{out_channels}) not divisible by groups={groups}"
            )
        shape = (out_channels, in_channels // groups, kernel, kernel)
        w = np.zeros(shape) if zero_init else gain * kaiming_normal(rng, shape)
        self.weight = ParamLeaf(name + ".weight", w)
        self.bias = ParamLeaf(name + ".bias", np.zeros(out_channels)) if bias else None
        self.stride = stride
        self.padding = padding
        self.groups = groups

    def __call__(self, x: Tensor) -> Tensor:
        b = None if self.bias is None else self.bias.value
        return ops.conv2d(x, self.weight.value, b, self.stride, self.padding, self.groups)


class ConvTranspose2d(Module):
    """Transposed convolution layer; used as the stride-2 up-sampler."""

    def __init__(
        self,
        name: str,
        rng: np.random.Generator,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
    ) -> None:
        shape = (in_channels, out_channels, kernel, kernel)
        self.weight = ParamLeaf(name + ".weight", kaiming_normal(rng, shape))
        self.bias = ParamLeaf(name + ".bias", np.zeros(out_channels))
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv_transpose2d(x, self.weight.value, self.bias.value, self.stride, self.padding)


class LayerNormChannel(Module):
    """LayerNorm over the channel axis of NCHW (or the last axis of NTC via ops)."""

    def __init__(self, name: str, channels: int, eps: float = 1e-5) -> None:
        self.gamma = ParamLeaf(name + ".gamma", np.ones(channels))
        self.beta = ParamLeaf(name + ".beta", np.zeros(channels))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gamma.value, self.beta.value, self.eps)


def relative_position_index(window: int) -> np.ndarray:
    """(window^2, window^2) int index into a (2*window-1)^2 bias table.

    Entry [i, j] encodes the (dy, dx) displacement between window positions i
    and j, shifted to be non-negative and flattened row-major.
    """
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window), indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = flat[:, :, None] - flat[:, None, :]
    return (rel[0] + window - 1) * (2 * window - 1) + (rel[1] + window - 1)


class WindowTransformer(Module):
    """Multi-head self-attention over non-overlapping M x M windows.

    LN -> window partition -> softmax(Q K^T / sqrt(d) + B) V per head ->
    concat -> Z0 -> LN -> Z1 -> GELU -> Z2 -> window merge.  B is a learned
    relative-position bias table, zero-initialized.  All projection matrices
    are bias-free.  ``transform`` returns the branch output only; callers add
    the residual.

    Everything between partition and merge acts on each window alone, so a
    tape-free ``transform`` runs it over chunks of windows and joins them
    with one concat: only one chunk's logits, values and MLP activations are
    alive at a time, and the result is bitwise the one-chunk result. Under a
    tape it runs once over all windows.
    """

    def __init__(
        self,
        name: str,
        rng: np.random.Generator,
        channels: int,
        heads: int,
        window: int,
        expansion: int = 4,
    ) -> None:
        if channels % heads:
            raise ConfigError(f"{name}: channels={channels} not divisible by heads={heads}")
        self.channels = channels
        self.heads = heads
        self.window = window
        self.head_dim = channels // heads
        self.norm_in = LayerNormChannel(name + ".norm_in", channels)
        self.wq = ParamLeaf(name + ".wq", trunc_normal(rng, (channels, channels)))
        self.wk = ParamLeaf(name + ".wk", trunc_normal(rng, (channels, channels)))
        self.wv = ParamLeaf(name + ".wv", trunc_normal(rng, (channels, channels)))
        self.bias_table = ParamLeaf(
            name + ".bias_table", np.zeros((heads, (2 * window - 1) ** 2))
        )
        self.proj = ParamLeaf(name + ".proj", trunc_normal(rng, (channels, channels)))
        self.norm_mlp = LayerNormChannel(name + ".norm_mlp", channels)
        hidden = expansion * channels
        self.z1 = ParamLeaf(name + ".z1", trunc_normal(rng, (channels, hidden)))
        self.z2 = ParamLeaf(name + ".z2", trunc_normal(rng, (hidden, channels)))
        self._rel_index = relative_position_index(window).ravel()

    def _tokens(self, x: Tensor) -> Tensor:
        """LN, then window partition: (windows, M^2, C), windows in (n, row, col) order."""
        n, c, h, w = x.shape
        m = self.window
        if h % m or w % m:
            raise ConfigError(f"spatial extent {h}x{w} not divisible by window={m}")
        nh, nw = h // m, w // m
        parts = ops.reshape(self.norm_in(x), (n, c, nh, m, nw, m))
        parts = ops.permute(parts, (0, 2, 4, 3, 5, 1))
        return ops.reshape(parts, (n * nh * nw, m * m, c))

    def _attention(self, tokens: Tensor) -> tuple[Tensor, Tensor]:
        """Post-softmax attention (windows*heads, M^2, M^2) and values (windows*heads, M^2, d)."""
        nwin, t, _ = tokens.shape

        def heads_of(mat: ParamLeaf) -> Tensor:
            p = ops.matmul(tokens, mat.value)
            p = ops.reshape(p, (nwin, t, self.heads, self.head_dim))
            p = ops.permute(p, (0, 2, 1, 3))
            return ops.reshape(p, (nwin * self.heads, t, self.head_dim))

        q = heads_of(self.wq)
        k = heads_of(self.wk)
        v = heads_of(self.wv)

        scores = ops.scale(ops.matmul(q, ops.permute(k, (0, 2, 1))), 1.0 / math.sqrt(self.head_dim))
        scores = ops.reshape(scores, (nwin, self.heads, t, t))
        bias = ops.take_last(self.bias_table.value, self._rel_index)
        bias = ops.reshape(bias, (1, self.heads, t, t))
        logits = ops.add(scores, bias)
        del scores  # free the pre-bias scores before softmax allocates
        attn = ops.softmax(logits, axis=-1)
        return ops.reshape(attn, (nwin * self.heads, t, t)), v

    def _window_body(self, tokens: Tensor) -> Tensor:
        """Attention, projection and MLP of each window: (windows, M^2, C) in and out."""
        nwin, t, c = tokens.shape
        attn, v = self._attention(tokens)
        ctx = ops.matmul(attn, v)
        del attn, v
        ctx = ops.reshape(ctx, (nwin, self.heads, t, self.head_dim))
        ctx = ops.permute(ctx, (0, 2, 1, 3))
        ctx = ops.reshape(ctx, (nwin, t, c))
        mixed = ops.matmul(ctx, self.proj.value)

        tl = ops.permute(mixed, (0, 2, 1))
        tl = self.norm_mlp(tl)
        tl = ops.permute(tl, (0, 2, 1))
        return ops.matmul(ops.gelu(ops.matmul(tl, self.z1.value)), self.z2.value)

    def transform(self, x: Tensor) -> Tensor:
        """Branch output (N, C, H, W).

        Without a tape, chunks of windows keep their logits within
        ``_CHUNK_LOGIT_BYTES``; under one, the body runs once over all
        windows, so the recorded graph does not depend on the split.
        """
        n, c, h, w = x.shape
        m = self.window
        tokens = self._tokens(x)
        nwin, t = tokens.shape[0], m * m
        per_window = self.heads * t * t * tokens.dtype.itemsize
        step = nwin if recording(x, self.wq.value) else max(1, _CHUNK_LOGIT_BYTES // per_window)
        if step >= nwin:
            out_tok = self._window_body(tokens)
        else:
            sizes = [min(step, nwin - lo) for lo in range(0, nwin, step)]
            chunks = list(ops.split(tokens, sizes, axis=0))
            del tokens
            outs = []
            while chunks:
                outs.append(self._window_body(chunks.pop(0)))
            out_tok = ops.concat(outs, axis=0)
            del outs

        merged = ops.reshape(out_tok, (n, h // m, w // m, m, m, c))
        merged = ops.permute(merged, (0, 5, 1, 3, 2, 4))
        return ops.reshape(merged, (n, c, h, w))

    def attention_rows(self, x: Tensor) -> Tensor:
        """Post-softmax attention matrix, (windows*heads, M^2, M^2); test hook."""
        return self._attention(self._tokens(x))[0]


class ConvTokenMixer(Module):
    """Convolutional stand-in for window attention: LN -> 3x3 -> GELU -> 1x1.

    Same ``transform`` interface as :class:`WindowTransformer` so it can drop
    into the same residual slots.
    """

    def __init__(self, name: str, rng: np.random.Generator, channels: int) -> None:
        self.norm = LayerNormChannel(name + ".norm", channels)
        self.conv = Conv2d(name + ".conv", rng, channels, channels, 3, padding=1)
        self.proj = Conv2d(name + ".proj", rng, channels, channels, 1, gain=BRANCH_GAIN)

    def transform(self, x: Tensor) -> Tensor:
        return self.proj(ops.gelu(self.conv(self.norm(x))))


class MobileNetV3Unit(Module):
    """Inverted-residual unit with squeeze-excitation and GELU/LayerNorm.

    pointwise -> depthwise 5x5 -> SE gate -> pointwise, three LayerNorms, and
    an internal residual: returns ``x + pw_out(gated)``.
    """

    def __init__(self, name: str, rng: np.random.Generator, channels: int, squeeze: int = 16) -> None:
        if channels % squeeze:
            raise ConfigError(f"{name}: channels={channels} not divisible by squeeze={squeeze}")
        self.norm0 = LayerNormChannel(name + ".norm0", channels)
        self.pw_in = Conv2d(name + ".pw_in", rng, channels, channels, 1)
        self.norm1 = LayerNormChannel(name + ".norm1", channels)
        self.dw = Conv2d(name + ".dw", rng, channels, channels, 5, padding=2, groups=channels)
        self.norm2 = LayerNormChannel(name + ".norm2", channels)
        self.se_sq = Conv2d(name + ".se_sq", rng, channels, channels // squeeze, 1)
        self.se_ex = Conv2d(name + ".se_ex", rng, channels // squeeze, channels, 1)
        self.pw_out = Conv2d(name + ".pw_out", rng, channels, channels, 1, gain=BRANCH_GAIN)

    def __call__(self, x: Tensor) -> Tensor:
        t = ops.gelu(self.norm1(self.pw_in(self.norm0(x))))
        t = ops.gelu(self.norm2(self.dw(t)))
        gate = ops.sigmoid(self.se_ex(ops.gelu(self.se_sq(ops.global_avg_pool(t)))))
        return ops.add(x, self.pw_out(ops.mul(t, gate)))


class SpectralMixer(Module):
    """Depthwise + mobile unit + expansion MLP, each residual; identity at zero weights."""

    def __init__(
        self,
        name: str,
        rng: np.random.Generator,
        channels: int,
        expansion: int = 4,
        squeeze: int = 16,
    ) -> None:
        self.dw = Conv2d(name + ".dw", rng, channels, channels, 3, padding=1, groups=channels)
        self.mobile = MobileNetV3Unit(name + ".mobile", rng, channels, squeeze)
        self.expand = Conv2d(name + ".expand", rng, channels, expansion * channels, 1)
        self.reduce = Conv2d(name + ".reduce", rng, expansion * channels, channels, 1,
                             gain=BRANCH_GAIN)

    def __call__(self, x: Tensor) -> Tensor:
        b = self.mobile(ops.add(x, self.dw(x)))
        return ops.add(b, self.reduce(ops.gelu(self.expand(b))))


class ResidualConv3x3(Module):
    """``x + conv3x3(x)``; convolutional stand-in for :class:`SpectralMixer`."""

    def __init__(self, name: str, rng: np.random.Generator, channels: int) -> None:
        self.conv = Conv2d(name + ".conv", rng, channels, channels, 3, padding=1,
                           gain=BRANCH_GAIN)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.add(x, self.conv(x))


class CodingCell(Module):
    """One encoder/decoder cell: mixer cascade, 1x1 fusion with residual, attention.

    out = s + attn.transform(s) where s = GELU(fuse(cascade(x)) + x).
    """

    def __init__(
        self,
        name: str,
        rng: np.random.Generator,
        channels: int,
        n_mixers: int,
        heads: int,
        window: int,
        expansion: int = 4,
        squeeze: int = 16,
        use_spectral_mixers: bool = True,
        use_window_attention: bool = True,
    ) -> None:
        self.mixers: list = []
        for i in range(n_mixers):
            sub = f"{name}.mix{i}"
            if use_spectral_mixers:
                self.mixers.append(SpectralMixer(sub, rng, channels, expansion, squeeze))
            else:
                self.mixers.append(ResidualConv3x3(sub, rng, channels))
        self.fuse = Conv2d(name + ".fuse", rng, channels, channels, 1, gain=BRANCH_GAIN)
        if use_window_attention:
            self.attn = WindowTransformer(name + ".attn", rng, channels, heads, window, expansion)
        else:
            self.attn = ConvTokenMixer(name + ".attn", rng, channels)

    def __call__(self, x: Tensor) -> Tensor:
        h = x
        for mix in self.mixers:
            h = mix(h)
        s = ops.gelu(ops.add(self.fuse(h), x))
        del h
        return ops.add(s, self.attn.transform(s))


class DeformableGroupedConv(Module):
    """Grouped 3x3 conv sampling at learned fractional offsets.

    A zero-initialized grouped conv predicts per-tap (dy, dx) offsets shared
    by all channels of a group (layout: group-major, then tap, then dy before
    dx).  Sampling is bilinear in the original frame with coordinates clamped
    to the image rectangle, so a constant input stays constant under any
    offsets, and zero offsets reproduce a standard grouped conv over an
    edge-replicated input.
    """

    def __init__(
        self,
        name: str,
        rng: np.random.Generator,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        groups: int = 4,
    ) -> None:
        if in_channels % groups or out_channels % groups:
            raise ConfigError(
                f"{name}: channels ({in_channels}->{out_channels}) not divisible by groups={groups}"
            )
        self.kernel = kernel
        self.groups = groups
        self.cg = in_channels // groups
        self.cog = out_channels // groups
        shape = (out_channels, self.cg, kernel, kernel)
        self.weight = ParamLeaf(name + ".weight", kaiming_normal(rng, shape))
        self.bias = ParamLeaf(name + ".bias", np.zeros(out_channels))
        self.offset = Conv2d(
            name + ".offset", rng, in_channels, groups * 2 * kernel * kernel, kernel,
            padding=kernel // 2, groups=groups, zero_init=True,
        )

    def _base_grid(self, h: int, w: int, dtype: np.dtype) -> np.ndarray:
        """Integer (y, x) sampling grid, (k^2 * P, 2); row t * P + p is tap t at pixel p."""
        r = np.arange(self.kernel) - self.kernel // 2
        ty, tx, ys, xs = np.meshgrid(r, r, np.arange(h), np.arange(w), indexing="ij")
        return np.stack([(ty + ys).ravel(), (tx + xs).ravel()], axis=-1).astype(dtype)

    def __call__(self, x: Tensor) -> Tensor:
        n, _, h, w = x.shape
        g, cg, cog = self.groups, self.cg, self.cog
        kk, p = self.kernel * self.kernel, h * w
        # Groups ride in the batch axis: batch entry n * g + i is group i of image n.
        xg = ops.reshape(x, (n * g, cg, h, w))
        offs = ops.permute(ops.reshape(self.offset(x), (n * g, kk, 2, p)), (0, 1, 3, 2))
        coords = ops.add(ops.reshape(offs, (n * g, kk * p, 2)),
                         constant(self._base_grid(h, w, x.dtype), dtype=x.dtype))
        cols = ops.reshape(ops.bilinear_sample(xg, coords), (n, g, cg, kk, p))
        cols = ops.reshape(ops.permute(cols, (1, 3, 2, 0, 4)), (g, kk * cg, n * p))  # tap-major
        wmat = ops.permute(ops.reshape(self.weight.value, (g, cog, cg, kk)), (0, 1, 3, 2))
        out = ops.matmul(ops.reshape(wmat, (g, cog, kk * cg)), cols)
        out = ops.add(out, ops.reshape(self.bias.value, (g, cog, 1)))
        out = ops.permute(ops.reshape(out, (g, cog, n, p)), (2, 0, 1, 3))
        return ops.reshape(out, (n, g * cog, h, w))
