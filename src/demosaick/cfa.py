"""Bayer color filter array pipeline: mosaicking, RGGB packing, warm start.

Conventions (0-based): the CFA phase is RGGB with R at (0, 0), G at (0, 1)
and (1, 0), B at (1, 1). An RGB image is (..., 3, 2H, 2W), a mosaic is
(..., 1, 2H, 2W), and the packed stack is (..., 4, H, W) with subband order
[r, g1, g2, b] taken row-major from each 2x2 tile. Packing is a
space-to-depth by 2 and its inverse a depth-to-space by 2; ``ops.pixel_shuffle``
and ``ops.pixel_unshuffle`` share those two permutations. All functions are
pure numpy; the model lifts their outputs onto the tape as constants.
``mosaic``, ``pack_rggb``, ``unpack_rggb``, ``warm_start``, ``shuffle2``,
``attach_noise_map`` and ``demosaic_nn`` raise ContractError when an input
has fewer than three axes or the wrong channel count; ``mosaic`` and
``pack_rggb`` also reject an odd extent. ``check_finite_mosaic`` is the one
scan for NaN and Inf in a mosaic, which ``demosaic_nn`` and the model's
``predict`` each run once.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import _all_finite

# Pre-shuffle channel duplication for the nearest-neighbor warm start: RGB
# output channel c at tile offset (dy, dx) reads pre-shuffle channel
# c*4 + dy*2 + dx, so this order places r everywhere in the R plane, g1 on the
# top row and g2 on the bottom row of the G plane, and b everywhere in B.
WARM_START_ORDER = (0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 3, 3)


def _planes(arr, what: str, channels: int, multiple: bool = False) -> np.ndarray:
    """``arr`` as an array (..., C, H, W) with C = ``channels`` (a multiple of
    it when ``multiple``); ContractError naming ``what`` otherwise."""
    arr = np.asarray(arr)
    if arr.ndim < 3 or (arr.shape[-3] % channels if multiple else arr.shape[-3] != channels):
        want = f"a multiple of {channels}" if multiple else channels
        raise ContractError(
            f"{what}: expected (..., C, H, W) with C = {want}, got shape {arr.shape}")
    return arr


def _check_even_spatial(arr: np.ndarray, what: str) -> None:
    h, w = arr.shape[-2], arr.shape[-1]
    if h % 2 or w % 2:
        raise ContractError(f"{what}: spatial extents must be even, got {h}x{w}")


def check_finite_mosaic(bayer: np.ndarray) -> None:
    """ContractError unless every value of the mosaic ``bayer`` is finite."""
    if not _all_finite(bayer):
        raise ContractError("mosaic holds non-finite values")


def mosaic(rgb: np.ndarray) -> np.ndarray:
    """Sample an RGB image (..., 3, 2H, 2W) onto a Bayer mosaic (..., 1, 2H, 2W)."""
    rgb = _planes(rgb, "mosaic", 3)
    _check_even_spatial(rgb, "mosaic")
    out = np.empty(rgb.shape[:-3] + (1,) + rgb.shape[-2:], dtype=rgb.dtype)
    m = out[..., 0, :, :]
    m[..., 0::2, 0::2] = rgb[..., 0, 0::2, 0::2]
    m[..., 0::2, 1::2] = rgb[..., 1, 0::2, 1::2]
    m[..., 1::2, 0::2] = rgb[..., 1, 1::2, 0::2]
    m[..., 1::2, 1::2] = rgb[..., 2, 1::2, 1::2]
    return out


def space_to_depth(x: np.ndarray, r: int) -> np.ndarray:
    """(..., C, rH, rW) -> (..., C r^2, H, W), a pure permutation.

    Output channel c*r^2 + dy*r + dx at (i, j) holds input channel c at
    (r*i + dy, r*j + dx).
    """
    lead, (c, h, w) = x.shape[:-3], x.shape[-3:]
    x = x.reshape(lead + (c, h // r, r, w // r, r))
    return np.moveaxis(x, (-4, -2), (-2, -1)).reshape(lead + (c * r * r, h // r, w // r))


def depth_to_space(x: np.ndarray, r: int) -> np.ndarray:
    """Inverse of space_to_depth: (..., C r^2, H, W) -> (..., C, rH, rW)."""
    lead, (c, h, w) = x.shape[:-3], x.shape[-3:]
    x = x.reshape(lead + (c // (r * r), r, r, h, w))
    return np.moveaxis(x, (-4, -3), (-3, -1)).reshape(lead + (c // (r * r), r * h, r * w))


def pack_rggb(bayer: np.ndarray) -> np.ndarray:
    """Pack a mosaic (..., 1, 2H, 2W) into subbands (..., 4, H, W)."""
    bayer = _planes(bayer, "pack_rggb", 1)
    _check_even_spatial(bayer, "pack_rggb")
    return space_to_depth(bayer, 2)


def unpack_rggb(stack: np.ndarray) -> np.ndarray:
    """Inverse of pack_rggb: (..., 4, H, W) -> (..., 1, 2H, 2W), bit-exact."""
    return depth_to_space(_planes(stack, "unpack_rggb", 4), 2)


def warm_start(stack: np.ndarray) -> np.ndarray:
    """Duplicate RGGB subbands (..., 4, H, W) into the 12-channel pre-shuffle init.

    Per token [r, g1, g2, b] the 12-vector is [r,r,r,r, g1,g1, g2,g2, b,b,b,b],
    so pixel-shuffling by 2 yields the nearest-neighbor RGB interpolation.
    """
    return _planes(stack, "warm_start", 4)[..., WARM_START_ORDER, :, :]


def shuffle2(pre: np.ndarray) -> np.ndarray:
    """Numpy pixel shuffle by 2: (..., 4C, H, W) -> (..., C, 2H, 2W)."""
    return depth_to_space(_planes(pre, "shuffle2", 4, multiple=True), 2)


def demosaic_nn(bayer: np.ndarray) -> np.ndarray:
    """Nearest-neighbor demosaicking: the model's warm-start baseline.

    Equals pixel_shuffle(warm_start(pack_rggb(X)), 2) exactly. A NaN or Inf
    in the mosaic raises ContractError.
    """
    stack = pack_rggb(bayer)  # its shape checks come first
    check_finite_mosaic(stack)
    return shuffle2(warm_start(stack))


def add_noise(bayer: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add white Gaussian noise in [0,1] units (sigma = sigma_8bit / 255).

    No clipping here; values clamp only at 8-bit I/O boundaries.
    """
    if sigma < 0:
        raise ContractError(f"add_noise: sigma must be nonnegative, got {sigma}")
    bayer = np.asarray(bayer)
    if sigma == 0:
        return bayer.copy()
    return bayer + rng.standard_normal(bayer.shape).astype(bayer.dtype) * bayer.dtype.type(sigma)


def attach_noise_map(stack: np.ndarray, sigma) -> np.ndarray:
    """Interleave a constant noise plane with each subband: [r,s,g1,s,g2,s,b,s].

    (..., 4, H, W) -> (..., 8, H, W), pairing each spectrum with the noise map
    so the grouped input convolution sees (spectrum, sigma) per group. sigma
    is a scalar shared by all images or one value per leading (batch) entry.
    """
    stack = _planes(stack, "attach_noise_map", 4)
    sig = np.asarray(sigma, dtype=stack.dtype)
    if np.any(sig < 0):
        raise ContractError(f"attach_noise_map: sigma must be nonnegative, got {sigma}")
    if sig.ndim:
        if sig.shape != stack.shape[:-3]:
            raise ContractError(
                f"attach_noise_map: per-image sigma shape {sig.shape} does not match "
                f"batch shape {stack.shape[:-3]}")
        sig = sig.reshape(sig.shape + (1, 1, 1))
    out = np.empty(stack.shape[:-3] + (8,) + stack.shape[-2:], dtype=stack.dtype)
    out[..., 0::2, :, :] = stack
    out[..., 1::2, :, :] = sig
    return out
