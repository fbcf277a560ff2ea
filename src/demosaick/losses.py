"""Differentiable training loss: Gaussian-smoothed L1 mixed with MS-SSIM.

The loss mirrors the float64 metrics in :mod:`demosaick.metrics` but runs on
tape ops so it backpropagates: same 11x11 sigma-1.5 valid-position windows,
same scale weights (``metrics.ms_ssim_weights``) and a 2x2 stride-2 mean
pyramid.  Batch statistics are pooled before the scale product, which
coincides with the metric for a single image.

The L1 term smooths per-pixel absolute error with a wide separable Gaussian
(zero padded), so single-pixel errors still spread gradient to neighbors.
On inputs smaller than the SSIM window the window shrinks to the largest odd
size that fits; training patches are large enough that this never triggers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import ops
from .errors import ContractError
from .metrics import MS_SSIM_WEIGHTS, gaussian_kernel1d, ms_ssim_weights
from .settings import Settings
from .tensor import Tensor, constant


@dataclasses.dataclass(frozen=True)
class LossConfig(Settings):
    """Mixing weight and window parameters; alpha is the L1 share."""

    alpha: float = 0.16
    l1_sigma: float = 8.0
    window: int = 11
    window_sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    ms_weights: tuple[float, ...] = MS_SSIM_WEIGHTS

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractError(f"field 'alpha' must lie in [0, 1], got {self.alpha}")
        if self.l1_sigma <= 0:
            raise ContractError("field 'l1_sigma' must be positive")
        if self.window < 1 or self.window % 2 == 0:
            raise ContractError("field 'window' must be a positive odd integer")
        if self.window_sigma <= 0:
            raise ContractError("field 'window_sigma' must be positive")
        if self.k1 <= 0 or self.k2 <= 0:
            raise ContractError("fields 'k1' and 'k2' must be positive")
        if not self.ms_weights or any(w <= 0 for w in self.ms_weights):
            raise ContractError("field 'ms_weights' must be non-empty and positive")


def _as_target(target, like: Tensor) -> Tensor:
    if isinstance(target, Tensor):
        t = target
    else:
        t = constant(np.asarray(target), dtype=like.dtype)
    if t.shape != like.shape:
        raise ContractError(f"loss shapes differ: {like.shape} vs {t.shape}")
    if t.dtype != like.dtype:
        t = constant(t.data, dtype=like.dtype)
    return t


def _depthwise(x: Tensor, kernel: np.ndarray, padding, stride: int = 1) -> Tensor:
    c = x.shape[1]
    k = np.broadcast_to(kernel, (c, 1) + kernel.shape[-2:])
    return ops.conv2d(x, constant(np.ascontiguousarray(k), dtype=x.dtype),
                      None, stride, padding, groups=c)


def _add_scalar(t: Tensor, v: float) -> Tensor:
    return ops.add(t, constant(v, dtype=t.dtype))


def _window_mean(x: Tensor, k1d: np.ndarray, pad: int = 0) -> Tensor:
    """Gaussian window mean via two separable 1-d passes, zero padded by ``pad``."""
    t = _depthwise(x, k1d.reshape(-1, 1), (pad, 0))
    return _depthwise(t, k1d.reshape(1, -1), (0, pad))


def _ssim_tape(x: Tensor, y: Tensor, win: np.ndarray, k1: float, k2: float,
               full: bool) -> Tensor:
    """Mean SSIM when ``full``, else mean contrast-structure: one scale's term."""
    c1 = k1 * k1
    c2 = k2 * k2
    mx = _window_mean(x, win)
    my = _window_mean(y, win)
    mxx = _window_mean(ops.mul(x, x), win)
    myy = _window_mean(ops.mul(y, y), win)
    mxy = _window_mean(ops.mul(x, y), win)
    vx = ops.sub(mxx, ops.mul(mx, mx))
    vy = ops.sub(myy, ops.mul(my, my))
    cov = ops.sub(mxy, ops.mul(mx, my))
    cs_map = ops.div(_add_scalar(ops.scale(cov, 2.0), c2), _add_scalar(ops.add(vx, vy), c2))
    if not full:
        return ops.mean_(cs_map)
    lum = ops.div(
        _add_scalar(ops.scale(ops.mul(mx, my), 2.0), c1),
        _add_scalar(ops.add(ops.mul(mx, mx), ops.mul(my, my)), c1),
    )
    return ops.mean_(ops.mul(lum, cs_map))


def _fit_window(side: int, window: int) -> int:
    w = min(window, side)
    return w if w % 2 else w - 1


def ms_ssim_tape(pred: Tensor, target, config: LossConfig | None = None) -> Tensor:
    """Differentiable MS-SSIM matching :func:`demosaick.metrics.ms_ssim`."""
    cfg = config or LossConfig()
    y = _as_target(target, pred)
    side = min(pred.shape[-2:])
    window = _fit_window(side, cfg.window)
    if window < 1:
        raise ContractError(f"input {pred.shape} too small for any SSIM window")
    weights = ms_ssim_weights(side, window, cfg.ms_weights)
    levels = len(weights)

    win = gaussian_kernel1d(cfg.window_sigma, radius=window // 2)
    pool = np.full((2, 2), 0.25)
    x = pred
    value = None
    for lvl in range(levels):
        # Contrast-structure below the last scale, full SSIM at it. The
        # batch mean can go negative for anti-correlated inputs; floor it so
        # the fractional power (and its gradient) stays finite.
        sim = ops.clamp_min(_ssim_tape(x, y, win, cfg.k1, cfg.k2, lvl == levels - 1), 1e-6)
        term = ops.pow_const(sim, weights[lvl])
        value = term if value is None else ops.mul(value, term)
        if lvl < levels - 1:
            x = _depthwise(x, pool, 0, 2)
            y = _depthwise(y, pool, 0, 2)
    return value


def smoothed_l1(pred: Tensor, target, sigma: float) -> Tensor:
    """Mean of |pred - target| blurred by a separable Gaussian, zero padded."""
    y = _as_target(target, pred)
    k = gaussian_kernel1d(sigma)
    return ops.mean_(_window_mean(ops.abs_(ops.sub(pred, y)), k, (k.size - 1) // 2))


def mixed_loss(pred: Tensor, target, config: LossConfig | None = None) -> Tensor:
    """alpha * smoothed-L1 + (1 - alpha) * (1 - MS-SSIM); zero iff identical.

    pred and target are NCHW in [0, 1].  With alpha 1 the MS-SSIM branch is
    skipped entirely (and vice versa), so degenerate mixes stay cheap and
    cannot produce spurious non-finite values.
    """
    cfg = config or LossConfig()
    if pred.ndim != 4:
        raise ContractError(f"loss expects NCHW inputs, got {pred.shape}")
    target = _as_target(target, pred)  # once: both terms take it as it is
    if cfg.alpha == 1.0:
        return smoothed_l1(pred, target, cfg.l1_sigma)
    ms = ms_ssim_tape(pred, target, cfg)
    one_minus = _add_scalar(ops.neg(ms), 1.0)
    if cfg.alpha == 0.0:
        return one_minus
    l1 = smoothed_l1(pred, target, cfg.l1_sigma)
    return ops.add(ops.scale(l1, cfg.alpha), ops.scale(one_minus, 1.0 - cfg.alpha))
