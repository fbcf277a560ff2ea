"""Image quality metrics in float64 numpy, independent of the autodiff engine.

All metrics assume images scaled to [0, 1] (dynamic range L=1) with channels
first, and reject non-finite ones.  SSIM uses the standard 11x11 Gaussian
window (sigma 1.5) over valid positions only; MS-SSIM uses the standard five
scale weights, dropping and renormalizing trailing scales (with a warning)
when the image is too small.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .errors import ContractError

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


def gaussian_kernel1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalized 1-d Gaussian; radius defaults to ceil(3*sigma)."""
    if sigma <= 0:
        raise ContractError(f"gaussian sigma must be positive, got {sigma}")
    r = int(math.ceil(3.0 * sigma)) if radius is None else int(radius)
    if r < 0:
        raise ContractError(f"gaussian radius must be non-negative, got {radius}")
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_kernel(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalized 2-d Gaussian window (outer product of the 1-d kernel)."""
    k = gaussian_kernel1d(sigma, radius)
    win = np.outer(k, k)
    return win / win.sum()


def _as_chw(img) -> np.ndarray:
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ContractError(f"expected image shaped (C, H, W) or (H, W), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractError("image holds non-finite values")
    return arr


def _pair(a, b) -> tuple:
    x, y = _as_chw(a), _as_chw(b)
    if x.shape != y.shape:
        raise ContractError(f"image shapes differ: {x.shape} vs {y.shape}")
    return x, y


def psnr(a, b) -> float:
    """10*log10(1/MSE) for unit dynamic range; +inf for identical inputs."""
    x, y = _pair(a, b)
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _window_mean(plane: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Valid-position Gaussian window mean of an (H, W) plane.

    Two separable passes of plain multiply-adds, taps in index order (along
    W, then along H), so the result does not depend on BLAS and the working
    set stays a few planes.
    """
    taps = k.shape[0]
    h, w = plane.shape
    wo, ho = w - taps + 1, h - taps + 1
    tmp = np.empty((h, wo))
    rows = plane[:, :wo] * k[0]
    for i in range(1, taps):
        rows += np.multiply(plane[:, i:i + wo], k[i], out=tmp)
    tmp = tmp[:ho]
    out = rows[:ho] * k[0]
    for i in range(1, taps):
        out += np.multiply(rows[i:i + ho], k[i], out=tmp)
    return out


def _ssim_cs(x: np.ndarray, y: np.ndarray, k: np.ndarray, k1: float, k2: float) -> tuple:
    """Mean SSIM and mean contrast-structure over valid windows, all channels."""
    c1 = k1 * k1
    c2 = k2 * k2
    ssim_sum = 0.0
    cs_sum = 0.0
    for c in range(x.shape[0]):
        mx = _window_mean(x[c], k)
        my = _window_mean(y[c], k)
        mxx = _window_mean(x[c] * x[c], k)
        myy = _window_mean(y[c] * y[c], k)
        mxy = _window_mean(x[c] * y[c], k)
        vx = mxx - mx * mx
        vy = myy - my * my
        cov = mxy - mx * my
        cs_map = (2.0 * cov + c2) / (vx + vy + c2)
        lum = (2.0 * mx * my + c1) / (mx * mx + my * my + c1)
        ssim_sum += float(np.mean(lum * cs_map))
        cs_sum += float(np.mean(cs_map))
    n = x.shape[0]
    return ssim_sum / n, cs_sum / n


def ssim(a, b, k1: float = 0.01, k2: float = 0.03, window: int = 11,
         sigma: float = 1.5) -> float:
    """Mean SSIM over valid window positions, averaged across channels."""
    x, y = _pair(a, b)
    if min(x.shape[-2:]) < window:
        raise ContractError(
            f"image {x.shape[-2]}x{x.shape[-1]} smaller than the {window}x{window} SSIM window")
    k = gaussian_kernel1d(sigma, radius=window // 2)
    return _ssim_cs(x, y, k, k1, k2)[0]


def _downsample2(img: np.ndarray) -> np.ndarray:
    h, w = img.shape[-2:]
    t = img[..., : h - h % 2, : w - w % 2]
    c = t.shape[0]
    return t.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(-3, -1))


def ms_ssim_weights(side: int, window: int, weights) -> tuple:
    """The leading scale weights that fit, renormalized to sum to 1.

    Each scale halves the image, so an image ``side`` pixels across (at least
    ``window``) holds 1 + floor(log2(side / window)) scales of one window.
    """
    w = tuple(weights)[:1 + int(math.floor(math.log2(side / window)))]
    total = sum(w)
    return tuple(v / total for v in w)


def ms_ssim(a, b, weights=None, k1: float = 0.01, k2: float = 0.03,
            window: int = 11, sigma: float = 1.5) -> float:
    """Multi-scale SSIM: contrast-structure at coarser scales, full SSIM last.

    The scale count shrinks (weights renormalized, warning emitted) until the
    coarsest scale still fits one 11x11 window; images below 11 pixels on a
    side are rejected outright.
    """
    x, y = _pair(a, b)
    w = tuple(MS_SSIM_WEIGHTS if weights is None else weights)
    if not w or any(v <= 0 for v in w):
        raise ContractError("ms_ssim weights must be positive")
    side = min(x.shape[-2:])
    if side < window:
        raise ContractError(
            f"image {x.shape[-2]}x{x.shape[-1]} smaller than the {window}x{window} SSIM window")
    fit = ms_ssim_weights(side, window, w)
    levels = len(fit)
    if levels < len(w):
        warnings.warn(
            f"ms_ssim: image supports only {levels} of {len(w)} scales; "
            "weights renormalized", stacklevel=2)
    w = fit

    k = gaussian_kernel1d(sigma, radius=window // 2)
    value = 1.0
    for lvl in range(levels):
        s, cs = _ssim_cs(x, y, k, k1, k2)
        if lvl == levels - 1:
            value *= math.copysign(abs(s) ** w[lvl], s)
        else:
            value *= math.copysign(abs(cs) ** w[lvl], cs)
            x = _downsample2(x)
            y = _downsample2(y)
    return value


@dataclasses.dataclass
class MetricReport:
    """Per-image metric rows plus dataset means, serializable to CSV/markdown."""

    dataset: str
    model: str
    rows: list = dataclasses.field(default_factory=list)

    def add(self, name: str, psnr_db: float, ssim_val: float, ms_ssim_val: float) -> None:
        self.rows.append((name, float(psnr_db), float(ssim_val), float(ms_ssim_val)))

    def means(self) -> tuple:
        if not self.rows:
            raise ContractError("metric report is empty")
        n = len(self.rows)
        return (
            sum(r[1] for r in self.rows) / n,
            sum(r[2] for r in self.rows) / n,
            sum(r[3] for r in self.rows) / n,
        )

    def to_csv(self) -> str:
        lines = [f"# dataset={self.dataset} model={self.model}",
                 "image,psnr_db,ssim,ms_ssim"]
        for name, p, s, m in self.rows:
            lines.append(f"{name},{p:.6f},{s:.8f},{m:.8f}")
        mp, ms_, mm = self.means()
        lines.append(f"mean,{mp:.6f},{ms_:.8f},{mm:.8f}")
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = [f"Dataset: {self.dataset}; model: {self.model}", "",
                 "| image | PSNR (dB) | SSIM | MS-SSIM |",
                 "|---|---|---|---|"]
        for name, p, s, m in self.rows:
            lines.append(f"| {name} | {p:.4f} | {s:.6f} | {m:.6f} |")
        mp, ms_, mm = self.means()
        lines.append(f"| **mean** | {mp:.4f} | {ms_:.6f} | {mm:.6f} |")
        return "\n".join(lines) + "\n"
