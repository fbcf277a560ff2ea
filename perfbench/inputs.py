"""Seeded procedural inputs for the benchmark workloads.

Every image is an RGB texture in [0, 1], shaped (3, H, W): a grid of 64x64
tiles, each built from a smooth colour ramp, oriented gratings over a wide
frequency range up to near the Nyquist limit, flat shapes with hard edges
and a little fine noise.  Every tile draws its components from the same
distributions, so the demosaicking difficulty (and hence PSNR) varies little
from one seed to the next while the pixels differ.

The same seed always gives the same images: every draw comes from a PCG64
generator seeded by ``(seed, tag, index)``.
"""

from __future__ import annotations

import numpy as np

PROBE_SEED = 20230515  # fixed inputs of the reference probe units


def rng_for(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, tag, index))))


TILE = 64


def texture(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """One (3, h, w) float64 texture in [0, 1]: a grid of independent tiles.

    Averaging the error over many independent tiles keeps the PSNR of an
    image within about 1% of the next seed's.  ``h`` and ``w`` must be
    multiples of ``TILE``.
    """
    img = np.empty((3, h, w))
    for y in range(0, h, TILE):
        for x in range(0, w, TILE):
            img[:, y:y + TILE, x:x + TILE] = _tile(rng, TILE, TILE)
    return img


def _tile(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """One (3, h, w) float64 texture in [0, 1]."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64) / max(h, w)
    img = (rng.uniform(0.3, 0.7, (3, 1, 1))
           + rng.uniform(-0.2, 0.2, (3, 1, 1)) * xx
           + rng.uniform(-0.2, 0.2, (3, 1, 1)) * yy)
    for _ in range(8):
        freq = rng.uniform(2.0, 0.35 * min(h, w))  # cycles per image edge
        theta = rng.uniform(0.0, np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.02, 0.08) * rng.uniform(0.2, 1.0, (3, 1, 1))
        wave = np.sin(2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase)
        img += amp * wave
    for _ in range(10):
        cy, cx = rng.uniform(0.0, 1.0, 2) * (h / max(h, w), w / max(h, w))
        ry, rx = rng.uniform(0.03, 0.2, 2)
        colour = rng.uniform(0.0, 1.0, (3, 1, 1))
        alpha = rng.uniform(0.3, 0.8)
        if rng.integers(2):
            mask = (np.abs(yy - cy) < ry) & (np.abs(xx - cx) < rx)
        else:
            mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 < 1.0
        img = np.where(mask, (1.0 - alpha) * img + alpha * colour, img)
    img += 0.01 * rng.standard_normal(img.shape)
    return np.clip(img, 0.0, 1.0)


def textures(seed: int, tag: int, count: int, h: int, w: int) -> list:
    return [texture(rng_for(seed, tag, i), h, w) for i in range(count)]
