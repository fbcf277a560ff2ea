"""Demosaicking model: config, construction, and the full forward pass.

The network runs on the packed half-resolution plane stack (4 channels, or 8
with an interleaved noise map), passes a deformable generator, a U-shaped
sequence of coding cells with stride-2 samplers and long skip connections,
and a predictor that refines a duplicate-and-shuffle warm start.  The output
is full-resolution RGB at the Bayer input size.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import cfa, ops, parallel
from .blocks import (
    CodingCell,
    Conv2d,
    ConvTokenMixer,
    ConvTranspose2d,
    DeformableGroupedConv,
    LayerNormChannel,
    Module,
    WindowTransformer,
)
from .errors import ConfigError, ContractError
from .settings import Settings
from .tensor import ParamLeaf, Tensor, constant, default_dtype, precision


@dataclasses.dataclass(frozen=True)
class ModelConfig(Settings):
    """Architecture hyper-parameters.

    ``channels_per_cell`` and ``mixers_per_cell`` list the 2*scales-1 cells of
    the U shape from the first encoder cell to the last decoder cell and must
    be symmetric in width.  ``window`` is the attention window edge on the
    packed grid; inputs are reflect-padded so the coarsest scale still tiles.
    """

    scales: int = 3
    mixers_per_cell: tuple[int, ...] = (6, 3, 0, 3, 6)
    channels_per_cell: tuple[int, ...] = (64, 192, 256, 192, 64)
    window: int = 8
    heads: int = 8
    expansion: int = 4
    squeeze: int = 16
    denoise: bool = False
    use_deformable_input: bool = True
    use_spectral_mixers: bool = True
    use_window_attention: bool = True

    def validate(self) -> None:
        if self.scales < 1:
            raise ConfigError("field 'scales' must be a positive integer")
        n_cells = 2 * self.scales - 1
        mixers = self.mixers_per_cell
        chans = self.channels_per_cell
        if len(mixers) != n_cells:
            raise ConfigError(
                f"field 'mixers_per_cell' must have {n_cells} entries for scales={self.scales}"
            )
        if len(chans) != n_cells:
            raise ConfigError(
                f"field 'channels_per_cell' must have {n_cells} entries for scales={self.scales}"
            )
        if any(m < 0 for m in mixers):
            raise ConfigError("field 'mixers_per_cell' entries must be non-negative integers")
        if any(c < 1 for c in chans):
            raise ConfigError("field 'channels_per_cell' entries must be positive integers")
        if chans != chans[::-1]:
            raise ConfigError("field 'channels_per_cell' must be symmetric around the bottleneck")
        for name in ("window", "heads", "expansion", "squeeze"):
            if getattr(self, name) < 1:
                raise ConfigError(f"field '{name}' must be a positive integer")
        if self.use_window_attention and any(c % self.heads for c in chans):
            raise ConfigError("field 'heads' must divide every entry of 'channels_per_cell'")
        if self.use_spectral_mixers and any(c % self.squeeze for c in chans):
            raise ConfigError("field 'squeeze' must divide every entry of 'channels_per_cell'")
        if chans[0] % 4:
            raise ConfigError("field 'channels_per_cell' first entry must be divisible by 4")

    @property
    def n_cells(self) -> int:
        return 2 * self.scales - 1

    @property
    def in_channels(self) -> int:
        return 8 if self.denoise else 4

    @property
    def pad_step(self) -> int:
        """Packed-grid extent divisor: window times the coarsest downscale factor."""
        return self.window * 2 ** (self.scales - 1)


def default_config(denoise: bool = False) -> ModelConfig:
    return ModelConfig(denoise=denoise)


def tiny_config(denoise: bool = False) -> ModelConfig:
    """Desk-scale variant for tests: same topology, small widths and window."""
    return ModelConfig(
        mixers_per_cell=(2, 1, 0, 1, 2),
        channels_per_cell=(16, 32, 64, 32, 16),
        window=4,
        heads=4,
        denoise=denoise,
    )


def ablation_config(level: int) -> ModelConfig:
    """Progressive component removal at roughly constant parameter budget.

    1: deformable input conv replaced by a standard 3x3 conv.
    2: additionally, spectral mixers replaced by residual 3x3 convs (wider).
    3: additionally, window attention replaced by conv token mixers (wider).
    """
    if level == 1:
        return ModelConfig(use_deformable_input=False)
    if level == 2:
        return ModelConfig(
            use_deformable_input=False,
            use_spectral_mixers=False,
            channels_per_cell=(72, 200, 256, 200, 72),
        )
    if level == 3:
        return ModelConfig(
            use_deformable_input=False,
            use_spectral_mixers=False,
            use_window_attention=False,
            channels_per_cell=(80, 208, 256, 208, 80),
        )
    raise ConfigError(f"ablation level must be 1, 2, or 3, got {level!r}")


# Named architectures accepted by ``demosaick train --preset`` and
# ``BayerDemosaicker(preset=...)``.
PRESETS = {
    "default": default_config,
    "tiny": tiny_config,
    "ablation1": lambda: ablation_config(1),
    "ablation2": lambda: ablation_config(2),
    "ablation3": lambda: ablation_config(3),
}


def preset_config(name) -> ModelConfig:
    """The architecture ``PRESETS[name]``; ConfigError listing the names otherwise."""
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown model preset {name!r}; options: {sorted(PRESETS)}")
    return PRESETS[name]()


class DemosaickModel(Module):
    """Built network: owns the parameter leaves and runs the forward pass."""

    def __init__(self, config: ModelConfig, seed: int) -> None:
        self._build(config, seed, np.random.default_rng(seed))

    def _build(self, config: ModelConfig, seed: int, rng: "np.random.Generator | None") -> None:
        """Create every block and leaf in their fixed order, drawing from ``rng`` (zeros if None)."""
        self.config = config
        self.seed = seed
        self.dtype = default_dtype()
        c0 = config.channels_per_cell[0]

        if config.use_deformable_input:
            self.intra = DeformableGroupedConv(
                "generator.intra", rng, config.in_channels, c0, kernel=3, groups=4)
        else:
            self.intra = Conv2d("generator.intra", rng, config.in_channels, c0, 3, padding=1)
        self.intra_norm = LayerNormChannel("generator.norm", c0)
        self.inter = Conv2d("generator.inter", rng, c0, c0, 3, padding=1)
        self.gen_attn = self._make_attn("generator.attn", rng, c0)

        self.cells = []
        for i in range(config.n_cells):
            self.cells.append(CodingCell(
                f"cells.{i}", rng, config.channels_per_cell[i], config.mixers_per_cell[i],
                config.heads, config.window, config.expansion, config.squeeze,
                config.use_spectral_mixers, config.use_window_attention,
            ))

        s = config.scales
        ch = config.channels_per_cell
        self.downs = [
            Conv2d(f"samplers.down{i}", rng, ch[i], ch[i + 1], 2, stride=2)
            for i in range(s - 1)
        ]
        self.ups = []
        self.reduces = []
        for i in range(s - 1):
            src, dst = ch[s - 1 + i], ch[s + i]
            self.ups.append(ConvTranspose2d(f"samplers.up{i}", rng, src, dst, 2))
            self.reduces.append(Conv2d(f"samplers.reduce{i}", rng, 2 * dst, dst, 1))

        self.pred_attn = self._make_attn("predictor.attn", rng, c0)
        # Zero init makes the residual path vanish at step 0, so the model
        # starts at exactly the duplicate-pixel warm start instead of noise.
        self.refine = Conv2d("predictor.refine", rng, c0, 12, 3, padding=1, zero_init=True)

        self._leaves: dict[str, ParamLeaf] = {}
        for leaf in super().leaves():
            if leaf.name in self._leaves:
                raise ContractError(f"duplicate parameter name {leaf.name!r}")
            self._leaves[leaf.name] = leaf

    def _make_attn(self, name: str, rng: "np.random.Generator | None", channels: int):
        if self.config.use_window_attention:
            return WindowTransformer(name, rng, channels, self.config.heads,
                                     self.config.window, self.config.expansion)
        return ConvTokenMixer(name, rng, channels)

    def leaves(self) -> list[ParamLeaf]:
        return list(self._leaves.values())

    def leaf(self, name: str) -> ParamLeaf:
        return self._leaves[name]

    # -- forward -----------------------------------------------------------

    def _prepare(self, bayer, sigma):
        arr = np.asarray(bayer, dtype=self.dtype)
        if arr.ndim not in (2, 3, 4) or (arr.ndim > 2 and arr.shape[-3] != 1):
            raise ContractError("expected a mosaic of shape (H, W), (1, H, W) or (N, 1, H, W), "
                                f"got {arr.shape}")
        arr = arr.reshape((1,) * (4 - arr.ndim) + arr.shape)
        n, _, h, w = arr.shape
        if h % 2 or w % 2:
            raise ContractError(f"mosaic extent must be even, got {h}x{w}")
        if not np.isfinite(arr).all():
            raise ContractError("mosaic holds non-finite values")

        if self.config.denoise:
            if sigma is None:
                raise ContractError("model conditions on noise level: sigma is required")
            sig = np.asarray(sigma, dtype=self.dtype)
            if sig.ndim not in (0, 1) or (sig.ndim == 1 and sig.shape[0] != n):
                raise ContractError(f"sigma must be a scalar or shape ({n},), got {sig.shape}")
            if not np.all(np.isfinite(sig)) or np.any(sig < 0):
                raise ContractError("sigma must be finite and non-negative")
        elif sigma is not None:
            raise ContractError("model was built without noise conditioning; sigma must be None")
        else:
            sig = None

        stack = cfa.pack_rggb(arr)
        hp, wp = stack.shape[-2:]
        step = self.config.pad_step
        ph = (-hp) % step
        pw = (-wp) % step
        if ph or pw:
            try:
                stack = np.pad(stack, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
            except ValueError as exc:
                raise ContractError(
                    f"mosaic too small to pad to a multiple of {2 * step}: {exc}") from exc
        f_init = cfa.warm_start(stack)
        net_in = cfa.attach_noise_map(stack, sig) if self.config.denoise else stack
        return net_in, f_init, (h, w)

    def forward(self, bayer, sigma=None) -> Tensor:
        """Mosaic (N, 1, H, W) in [0, 1] to RGB Tensor (N, 3, H, W), unclipped;
        a single mosaic, (1, H, W) or (H, W), is a batch of one.

        Each activation is released after its last use, so a tape-free
        forward holds only what later layers read; a tape keeps what its
        backward needs regardless.
        """
        net_in, f_init, (h, w) = self._prepare(bayer, sigma)
        x = constant(net_in, dtype=self.dtype)
        del net_in

        f_intra = ops.gelu(self.intra_norm(self.intra(x)))
        del x
        t = ops.gelu(self.inter(f_intra))
        del f_intra
        f_inter = ops.add(t, self.gen_attn.transform(t))
        del t

        s = self.config.scales
        hcur = f_inter
        skips = []
        for i in range(s):
            if i > 0:
                hcur = self.downs[i - 1](hcur)
            hcur = self.cells[i](hcur)
            if i < s - 1:
                skips.append(hcur)
        for d in range(s - 1):
            cat = ops.concat([self.ups[d](hcur), skips.pop()], axis=1)
            del hcur
            hcur = self.reduces[d](cat)
            del cat
            hcur = self.cells[s + d](hcur)

        fd = ops.add(f_inter, hcur)
        del f_inter, hcur
        fd = ops.add(fd, self.pred_attn.transform(fd))
        fr = self.refine(fd)
        del fd
        fp = ops.add(fr, constant(f_init, dtype=self.dtype))
        full = ops.pixel_shuffle(fp, 2)
        return ops.crop2d(full, 0, 0, h, w)

    def predict(self, bayer, sigma=None) -> np.ndarray:
        """Inference convenience: forward without a tape, clipped to [0, 1].

        Takes a mosaic (H, W) or (1, H, W) and returns RGB (3, H, W), or a
        batch (N, 1, H, W) and returns (N, 3, H, W). A malformed mosaic or
        sigma raises ContractError; running out of memory raises MemoryError
        naming the mosaic's size.

        Runs inside :func:`demosaick.parallel.blas_budget`: BLAS is pinned to
        one thread and the elementwise-heavy kernels split over the threads
        BLAS was allowed, with bitwise-identical results.
        """
        arr = np.asarray(bayer)
        try:
            with parallel.blas_budget():
                out = self.forward(arr, sigma)
            res = np.clip(out.data, 0.0, 1.0)
        except MemoryError as exc:
            h, w = arr.shape[-2:]
            raise MemoryError(f"out of memory demosaicking a {h}x{w} mosaic ({exc})") from exc
        return res if arr.ndim == 4 else res[0]


def _mode_of(dtype) -> str:
    return "high" if np.dtype(dtype) == np.float64 else "standard"


def build_model(config: ModelConfig, seed: int = 0, dtype=None) -> DemosaickModel:
    """Construct a model; identical (config, seed, dtype) gives identical weights."""
    if dtype is None:
        return DemosaickModel(config, seed)
    with precision(_mode_of(dtype)):
        return DemosaickModel(config, seed)


def _skeleton(config: ModelConfig, dtype) -> DemosaickModel:
    """``build_model(config, 0, dtype)`` with zero weights, drawing nothing: the
    leaves, in their order and shapes, that a checkpoint load overwrites."""
    model = DemosaickModel.__new__(DemosaickModel)
    with precision(_mode_of(dtype)):
        model._build(config, 0, None)
    return model


def param_count(model: DemosaickModel) -> int:
    return sum(leaf.value.data.size for leaf in model.leaves())


def param_table(model: DemosaickModel) -> list:
    """Per-component (prefix, parameter count) rows followed by a total row."""
    groups: dict[str, int] = {}  # in order of first appearance
    for leaf in model.leaves():
        parts = leaf.name.split(".")
        prefix = ".".join(parts[:2]) if parts[0] == "cells" else parts[0]
        groups[prefix] = groups.get(prefix, 0) + leaf.value.data.size
    return list(groups.items()) + [("total", sum(groups.values()))]
