"""Network building blocks: convolution layers, window attention, spectral mixers.

Every block is a :class:`Module` holding ``ParamLeaf`` weights and exposing
``__call__`` (or ``transform``) that records onto the active tape.  Its
``leaves()``, used by the model and optimizer, lists the parameters in the
order the constructor assigns the attributes that hold them.  Construction
order is fixed, so a given (config, seed) pair always produces the same
initial weights and the same parameter order. A block given ``rng=None``
draws nothing: its weights are read-only zeros of the same shapes that hold
no memory, a skeleton for a checkpoint load to fill.

Residual convention: blocks whose equations include a residual apply it
internally (``SpectralMixer``, ``MobileNetV3Unit``); attention-style blocks
expose ``transform`` and the caller writes ``x + blk.transform(x)``.  Zeroing
every sub-path weight therefore reduces each residual block to the identity.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import ops, parallel
from .errors import ConfigError
from .tensor import ParamLeaf, Tensor, _all_finite, _nonfinite, constant, default_dtype, recording


# Init gain for the last convolution of each residual branch. Full Kaiming
# there makes every residual add double the activation variance, which
# compounds to huge outputs over the cell stack and wastes the early training
# budget shrinking scales instead of learning structure.
BRANCH_GAIN = 0.1

# Attention logits one window chunk may hold in a tape-free forward: 2 MiB,
# 16 windows of the default preset (8 heads, 8x8 windows, float32). The
# logits of a whole image (33.5 MB for that preset at 256x256 in, two copies
# alive at once from scale to softmax) are then never held at once. Chunks
# are the units the thread pool runs, one chain of kernels per chunk on one
# thread, so each thread holds one chunk's logits and one sub-block of its
# MLP hidden layer. A transform makes at least as many chunks as the pool has
# threads, fewer windows each where the budget would leave a thread idle: the
# 1,024 windows of a tiny 256x256 prediction make two chunks on two threads,
# and the default preset's coarsest 16 make one chunk a thread.
_CHUNK_LOGIT_BYTES = 2 << 20

# Bytes one buffer of a tape-free unit's 4x hidden layer may hold: a window
# chunk runs its MLP over sub-blocks of whole windows (5 windows of the
# default preset's 192-channel cells), and a mixer block takes no more
# columns than fit.
_HIDDEN_BYTES = 1 << 20

# Pixel columns per block of the tape-free spectral-mixer MLP and deformable
# conv, cut per image, so a block works in place on its image's columns. A
# mixer block's 4x expansion also stays within _HIDDEN_BYTES: 1,024 columns
# at 64 channels, 336 at the default preset's 192, which at 256x256 make 13
# blocks to spread over threads; a front-end block's int64 sampling indices
# (four corners of k^2 taps in every group) stay within a few hundred KiB.
# Blocks span multiples of 8 columns; so does every model grid, so each GEMM
# column is summed by the same OpenBLAS kernel as in one GEMM over all pixels
# of all images.
_BLOCK_COLUMNS = 1024


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

    def _recording(self, x: Tensor) -> bool:
        """Whether running on ``x`` records: a tape is open and ``x`` or a leaf
        needs a gradient. Only a block that does not may take a tape-free path."""
        return recording(x, *(leaf.value for leaf in self.leaves()))


def _drawn(init, rng: "np.random.Generator | None", shape: tuple[int, ...]) -> np.ndarray:
    """``init(rng, shape)``, or read-only zeros holding no memory when ``rng`` is None."""
    if rng is None:
        return np.broadcast_to(np.zeros((), default_dtype()), shape)
    return init(rng, shape)


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
        w = np.zeros(shape) if zero_init else _drawn(
            lambda r, s: gain * kaiming_normal(r, s), rng, shape)
        self.weight = ParamLeaf(name + ".weight", w)
        self.bias = ParamLeaf(name + ".bias", np.zeros(out_channels)) if bias else None
        self.stride = stride
        self.padding = padding
        self.groups = groups

    def __call__(self, x: Tensor) -> Tensor:
        b = None if self.bias is None else self.bias.value
        return ops.conv2d(x, self.weight.value, b, self.stride, self.padding, self.groups)


class ConvTranspose2d(Module):
    """Up-sampler wrapping :func:`ops.conv_transpose2d`: its stride is its kernel
    size, so each input pixel becomes one ``kernel`` x ``kernel`` output block."""

    def __init__(
        self,
        name: str,
        rng: np.random.Generator,
        in_channels: int,
        out_channels: int,
        kernel: int,
    ) -> None:
        shape = (in_channels, out_channels, kernel, kernel)
        self.weight = ParamLeaf(name + ".weight", _drawn(kaiming_normal, rng, shape))
        self.bias = ParamLeaf(name + ".bias", np.zeros(out_channels))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv_transpose2d(x, self.weight.value, self.bias.value)


class LayerNormChannel(Module):
    """LayerNorm over axis 1, the channels of NCHW, one statistic per position."""

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
    tape-free ``transform`` runs it over chunks of windows, at least one a
    thread, through :func:`_fused_units`: only one chunk's logits, values
    and MLP activations are alive per thread, and the result is bitwise the
    one-chunk result. Under a tape it runs once over all windows.
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
        self.wq = ParamLeaf(name + ".wq", _drawn(trunc_normal, rng, (channels, channels)))
        self.wk = ParamLeaf(name + ".wk", _drawn(trunc_normal, rng, (channels, channels)))
        self.wv = ParamLeaf(name + ".wv", _drawn(trunc_normal, rng, (channels, channels)))
        self.bias_table = ParamLeaf(
            name + ".bias_table", np.zeros((heads, (2 * window - 1) ** 2))
        )
        self.proj = ParamLeaf(name + ".proj", _drawn(trunc_normal, rng, (channels, channels)))
        self.norm_mlp = LayerNormChannel(name + ".norm_mlp", channels)
        hidden = expansion * channels
        self.z1 = ParamLeaf(name + ".z1", _drawn(trunc_normal, rng, (channels, hidden)))
        self.z2 = ParamLeaf(name + ".z2", _drawn(trunc_normal, rng, (hidden, channels)))

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
        bias = ops.take_last(self.bias_table.value, relative_position_index(self.window).ravel())
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

    def _chunk(self, tok: np.ndarray, bias: np.ndarray, a: int, z: int):
        """``_window_body`` of windows ``a:z`` of ``tok`` on plain arrays, as
        a chain for :func:`_fused_units`.

        The same kernels in the same order on the same layouts, so the result
        is bitwise the ops' result. The chunk reads its tokens only in the
        q/k/v projections, so its last GEMMs write over them, and its softmax
        writes over the logits. The MLP's ops interleave over sub-blocks, but
        GELU of a finite input is finite, so the first non-finite result of
        that phase is a ``matmul``, as the op chain's is.
        """
        tok = tok[a:z]
        nwin, t, c = tok.shape
        heads, hd = self.heads, self.head_dim

        def heads_of(mat: ParamLeaf) -> np.ndarray:
            p = ops._gemm(tok, mat.data)
            return p.reshape(nwin, t, heads, hd).transpose(0, 2, 1, 3).reshape(nwin * heads, t, hd)

        q = heads_of(self.wq)
        yield "matmul", q
        k = heads_of(self.wk)
        yield "matmul", k
        v = heads_of(self.wv)
        yield "matmul", v
        scores = ops._gemm(q, k.transpose(0, 2, 1))
        yield "matmul", scores
        del q, k
        scores *= scores.dtype.type(1.0 / math.sqrt(hd))
        yield "scale", scores
        logits = scores.reshape(nwin, heads, t, t)
        logits += bias
        yield "add", logits
        attn = ops._softmax(logits, 3, inplace=True)
        yield "softmax", attn
        del scores, logits
        ctx = ops._gemm(attn.reshape(nwin * heads, t, t), v)
        yield "matmul", ctx
        del attn, v
        ctx = ctx.reshape(nwin, heads, t, hd).transpose(0, 2, 1, 3).reshape(nwin, t, c)
        mixed = ops._gemm(ctx, self.proj.data)
        yield "matmul", mixed
        norm = self.norm_mlp
        tl = ops._layer_norm(mixed.transpose(0, 2, 1), norm.gamma.data, norm.beta.data,
                             norm.eps)[0]
        yield "layer_norm", tl
        del ctx, mixed
        # the MLP over sub-blocks of whole windows, each hidden buffer within
        # _HIDDEN_BYTES; a sub-block's GEMMs sum each row as the chunk's did
        rows, hid = tl.transpose(0, 2, 1), self.z1.shape[1]
        sub = max(1, min(nwin, _HIDDEN_BYTES // (t * hid * tok.itemsize)))
        pre, act = np.empty((2, sub, t, hid), tok.dtype)
        for s in range(0, nwin, sub):
            e = min(s + sub, nwin)
            yield "matmul", ops._gemm(rows[s:e], self.z1.data, out=pre[:e - s])
            yield "gelu", ops._gelu(pre[:e - s], act[:e - s], act[:e - s])
            yield "matmul", ops._gemm(act[:e - s], self.z2.data, out=tok[s:e])

    def transform(self, x: Tensor) -> Tensor:
        """Branch output (N, C, H, W).

        Without a tape, chunks of windows keep their logits within
        ``_CHUNK_LOGIT_BYTES``, number at least ``parallel.ways()`` and run
        through :func:`_fused_units`, each writing its output over its own
        tokens; under one, the body runs once over all windows, so the
        recorded graph does not depend on the split.
        """
        n, c, h, w = x.shape
        m = self.window
        tokens = self._tokens(x)
        if self._recording(x):
            out_tok = self._window_body(tokens)
        else:
            tok, t = tokens.data, m * m  # fresh from norm_in, never the caller's x
            per_window = self.heads * t * t
            step = max(1, min(_CHUNK_LOGIT_BYTES // (per_window * tok.itemsize),
                              -(-tok.shape[0] // parallel.ways())))
            bias = self.bias_table.data[:, relative_position_index(m)][None]  # (1, heads, t, t)
            _fused_units(list(range(0, tok.shape[0], step)) + [tok.shape[0]], per_window,
                         lambda a, z: self._chunk(tok, bias, a, z), tok.dtype)
            out_tok = tokens

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
    """Depthwise + mobile unit + expansion MLP, each residual; identity at zero weights.

    Without a tape the MLP runs in blocks of pixel columns, bitwise the op
    chain (see ``_mlp``).
    """

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
        if self._recording(x):
            return ops.add(b, self.reduce(ops.gelu(self.expand(b))))
        return constant(self._mlp(b.data), dtype=b.dtype)

    def _mlp(self, b: np.ndarray) -> np.ndarray:
        """``b + reduce(gelu(expand(b)))`` without a tape, in blocks of pixel columns.

        The 1x1 convs are GEMMs over the (image, pixel) columns of ``b``; each
        block of one image's columns is one unit of :func:`_fused_units`, so
        the 4x expansion is never held for the whole image. A block reads its
        columns of ``b`` in place and its reduce GEMM and residual write
        straight into the output's.
        """
        n, c, h, w = b.shape
        p = h * w
        bc, out = b.reshape(n, c, p), np.empty_like(b)
        oc = out.reshape(n, c, p)
        we, be = self.expand.weight.data.reshape(-1, c), self.expand.bias.data
        wr, br = self.reduce.weight.data.reshape(c, -1), self.reduce.bias.data
        hidden = we.shape[0]

        def block(a, z, pre, act):
            i, lo = divmod(a, p)
            cols, res = bc[i, :, lo:z - i * p], oc[i, :, lo:z - i * p]
            yield "conv2d", ops._gemm(we, cols, be, out=pre)
            yield "gelu", ops._gelu(pre, act, act)
            yield "conv2d", ops._gemm(wr, act, br, out=res)
            yield "add", np.add(cols, res, out=res)

        per_block = min(_BLOCK_COLUMNS, _HIDDEN_BYTES // (hidden * b.itemsize))
        _fused_units(_column_blocks(n, p, per_block), hidden, block, b.dtype, (hidden, hidden))
        return out


def _fused_units(bounds: list, per_item: int, block, dtype: np.dtype, rows: tuple = ()) -> None:
    """Run the tape-free chain ``block`` over units ``bounds[k]:bounds[k + 1]``.

    ``block(a, z, *scratch)`` is a generator: it yields ``(op, result)``
    after each op of its chain, in the op chain's order, and leaves its slice
    of the output written. Units go to the thread pool whole, and each piece
    allocates one scratch buffer of ``r`` rows per ``r`` in ``rows``, as wide
    as the widest unit, that each unit gets cut to ``(r, z - a)``.
    ``per_item`` is the elements one index of ``bounds`` stands for. Every
    result is scanned as ``record`` would scan it; a unit stops at its first
    non-finite one, and the earliest op of the chain to give one in any
    unit is named, as the op chain over all units would name it.
    """
    width = max(z - a for a, z in zip(bounds, bounds[1:]))

    def units(lo, hi):
        scratch = [np.empty(r * width, dtype) for r in rows]
        bad = []
        for a, z in zip(bounds[lo:hi], bounds[lo + 1:hi + 1]):
            steps = enumerate(block(a, z, *(buf[:r * (z - a)].reshape(r, z - a)
                                            for buf, r in zip(scratch, rows))))
            first = next(((s, op) for s, (op, res) in steps if not _all_finite(res)), None)
            bad += [first] if first else []
        return bad

    bad = [b for piece in parallel.run(units, len(bounds) - 1, per_item * width, least=1)
           for b in piece]
    if bad:
        raise _nonfinite(min(bad)[1])


def _column_blocks(n: int, p: int, per_block: int) -> list:
    """Bounds over the (image, pixel) columns of ``n`` images of ``p`` pixels:
    each image in the fewest blocks of at most ``per_block`` columns, rounded
    down to a multiple of 8, every block but an image's last spanning a
    multiple of 8 columns. No block spans two images."""
    blocks = -(-p // max(8, per_block // 8 * 8))
    return [i * p + 8 * (p // 8 * k // blocks) for i in range(n) for k in range(blocks)] + [n * p]


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

    Under a tape the sampling is one ``bilinear_sample`` over every tap of
    every pixel and the conv one batched ``matmul``. Without one, it runs in
    blocks of output pixels, bitwise the op chain (see ``_sampled_conv``).
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
        self.weight = ParamLeaf(name + ".weight", _drawn(kaiming_normal, rng, shape))
        self.bias = ParamLeaf(name + ".bias", np.zeros(out_channels))
        self.offset = Conv2d(
            name + ".offset", rng, in_channels, groups * 2 * kernel * kernel, kernel,
            padding=kernel // 2, groups=groups, zero_init=True,
        )

    def _base_grid(self, h: int, w: int, dtype: np.dtype,
                   pixels: slice = slice(None)) -> np.ndarray:
        """Integer sampling grid of ``pixels`` (all by default) of an h x w
        image, (2, k^2, P); entry [:, t, p] is (y, x) of tap t at pixel p."""
        k = self.kernel
        r, q = np.arange(k) - k // 2, np.arange(*pixels.indices(h * w))
        grid = np.empty((2, k * k, q.size), dtype)
        np.add(np.repeat(r, k)[:, None], q // w, out=grid[0])  # tap t is row t // k
        np.add(np.tile(r, k)[:, None], q % w, out=grid[1])  # and column t % k
        return grid

    def __call__(self, x: Tensor) -> Tensor:
        if not self._recording(x):
            return constant(self._sampled_conv(x.data, self.offset(x).data), dtype=x.dtype)
        n, _, h, w = x.shape
        g, cg, cog = self.groups, self.cg, self.cog
        kk, p = self.kernel * self.kernel, h * w
        # Groups ride in the batch axis: batch entry n * g + i is group i of image n.
        xg = ops.reshape(x, (n * g, cg, h, w))
        offs = ops.permute(ops.reshape(self.offset(x), (n * g, kk, 2, p)), (0, 1, 3, 2))
        base = np.ascontiguousarray(self._base_grid(h, w, x.dtype).reshape(2, -1).T)
        coords = ops.add(ops.reshape(offs, (n * g, kk * p, 2)), constant(base, dtype=x.dtype))
        cols = ops.reshape(ops.bilinear_sample(xg, coords), (n, g, cg, kk, p))
        cols = ops.reshape(ops.permute(cols, (1, 3, 2, 0, 4)), (g, kk * cg, n * p))  # tap-major
        wmat = ops.permute(ops.reshape(self.weight.value, (g, cog, cg, kk)), (0, 1, 3, 2))
        out = ops.matmul(ops.reshape(wmat, (g, cog, kk * cg)), cols)
        out = ops.add(out, ops.reshape(self.bias.value, (g, cog, 1)))
        out = ops.permute(ops.reshape(out, (g, cog, n, p)), (2, 0, 1, 3))
        return ops.reshape(out, (n, g * cog, h, w))

    def _sampled_conv(self, x: np.ndarray, offs: np.ndarray) -> np.ndarray:
        """The op chain after the offset conv, without a tape, in blocks of output pixels.

        Each block of at most ``_BLOCK_COLUMNS`` pixels of one image is one
        unit of :func:`_fused_units`: it adds the base grid to its offsets,
        samples its k^2 taps with ``ops._bilinear`` into tap-major columns,
        and writes the per-group GEMM and the bias straight into its pixels
        of the output, so the sampling's int64 indices are held for one
        block at a time.
        """
        n, _, h, w = x.shape
        g, cg, cog = self.groups, self.cg, self.cog
        kk, p = self.kernel * self.kernel, h * w
        xg = np.ascontiguousarray(x).reshape(n, g, cg, h, w)
        oyx = offs.reshape(n, g, kk, 2, p).transpose(0, 3, 1, 2, 4)  # (n, 2, g, k^2, p)
        out = np.empty((n, g * cog, h, w), dtype=x.dtype)
        oc = out.reshape(n, g, cog, p)
        wmat = self.weight.data.reshape(g, cog, cg, kk).transpose(0, 1, 3, 2).reshape(g, cog, -1)
        bias = self.bias.data.reshape(g, cog, 1)

        def block(a, z, yx, cols):
            i, lo = divmod(a, p)
            px = slice(lo, z - i * p)
            yx, cols = yx.reshape(2, g, kk, z - a), cols.reshape(g, kk * cg, z - a)
            # row t * cg + c of a group's columns is its channel c at tap t
            taps = cols.reshape(g, kk, cg, z - a).transpose(0, 2, 1, 3)
            base = self._base_grid(h, w, x.dtype, px)[:, None]
            yield "add", np.add(oyx[i, ..., px], base, out=yx)
            ops._bilinear(xg[i], yx[0], yx[1], taps)
            yield "bilinear_sample", cols
            res = oc[i, :, :, px]
            yield "matmul", ops._gemm(wmat, cols, out=res)
            yield "add", np.add(res, bias, out=res)

        _fused_units(_column_blocks(n, p, _BLOCK_COLUMNS), g * kk * cg, block, x.dtype,
                     (2 * g * kk, g * kk * cg))
        return out
