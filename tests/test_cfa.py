"""Bayer sampling, packing, warm start, and the nearest-neighbor baseline."""

import numpy as np
import pytest

from demosaick import cfa
from demosaick.errors import ContractError
from demosaick.metrics import psnr


def test_mosaic_constant_image_tiles_rggb():
    rgb = np.empty((3, 4, 4))
    rgb[0], rgb[1], rgb[2] = 0.2, 0.4, 0.6
    m = cfa.mosaic(rgb)[0]
    tile = np.array([[0.2, 0.4], [0.4, 0.6]])
    np.testing.assert_array_equal(m, np.tile(tile, (2, 2)))


def test_mosaic_reads_each_plane_at_its_phase():
    rng = np.random.default_rng(0)
    rgb = rng.random((3, 6, 8))
    m = cfa.mosaic(rgb)[0]
    assert m[0, 0] == rgb[0, 0, 0]
    assert m[0, 1] == rgb[1, 0, 1]
    assert m[1, 0] == rgb[1, 1, 0]
    assert m[1, 1] == rgb[2, 1, 1]


def test_pack_2x2_example():
    # mosaic [[a, b], [c, d]] packs to channels [a, b, c, d]
    m = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2)
    packed = cfa.pack_rggb(m)
    np.testing.assert_array_equal(packed.reshape(4), [1.0, 2.0, 3.0, 4.0])


def test_pack_unpack_roundtrip_bit_exact():
    rng = np.random.default_rng(1)
    m = rng.random((2, 1, 6, 10)).astype(np.float32)
    np.testing.assert_array_equal(cfa.unpack_rggb(cfa.pack_rggb(m)), m)


def test_warm_start_duplication_order():
    stack = np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1)
    pre = cfa.warm_start(stack).reshape(12)
    np.testing.assert_array_equal(pre, [1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 4, 4])


def test_shuffle2_matches_block_layout():
    # channels [a, b, c, d] per position become the 2x2 block [[a, b], [c, d]]
    pre = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)
    out = cfa.shuffle2(pre)
    np.testing.assert_array_equal(out[0, 0], [[1.0, 2.0], [3.0, 4.0]])


def test_demosaic_nn_equals_shuffle_path():
    rng = np.random.default_rng(2)
    m = rng.random((1, 8, 8))
    via_steps = cfa.shuffle2(cfa.warm_start(cfa.pack_rggb(m)))
    np.testing.assert_array_equal(cfa.demosaic_nn(m), via_steps)


def test_demosaic_nn_reconstructs_sampled_positions():
    rng = np.random.default_rng(3)
    rgb = rng.random((3, 8, 8))
    out = cfa.demosaic_nn(cfa.mosaic(rgb))
    # every position the CFA sampled must be reproduced exactly
    np.testing.assert_array_equal(out[0, 0::2, 0::2], rgb[0, 0::2, 0::2])
    np.testing.assert_array_equal(out[1, 0::2, 1::2], rgb[1, 0::2, 1::2])
    np.testing.assert_array_equal(out[1, 1::2, 0::2], rgb[1, 1::2, 0::2])
    np.testing.assert_array_equal(out[2, 1::2, 1::2], rgb[2, 1::2, 1::2])


def test_demosaic_nn_psnr_matches_brute_force_mse():
    rng = np.random.default_rng(4)
    rgb = rng.random((3, 16, 16))
    out = cfa.demosaic_nn(cfa.mosaic(rgb))
    mse = 0.0
    for c in range(3):
        for yy in range(16):
            for xx in range(16):
                mse += (out[c, yy, xx] - rgb[c, yy, xx]) ** 2
    mse /= 3 * 16 * 16
    np.testing.assert_allclose(psnr(out, rgb), 10 * np.log10(1.0 / mse), atol=1e-9)


def test_batched_leading_axes_pass_through():
    rng = np.random.default_rng(5)
    rgb = rng.random((2, 3, 4, 4))
    m = cfa.mosaic(rgb)
    assert m.shape == (2, 1, 4, 4)
    packed = cfa.pack_rggb(m)
    assert packed.shape == (2, 4, 2, 2)
    for i in range(2):
        np.testing.assert_array_equal(packed[i], cfa.pack_rggb(m[i]))


def _former_pack(bayer):
    x = bayer[..., 0, :, :]
    return np.stack(
        [x[..., 0::2, 0::2], x[..., 0::2, 1::2], x[..., 1::2, 0::2], x[..., 1::2, 1::2]],
        axis=-3)


def _former_unpack(stack):
    h, w = stack.shape[-2], stack.shape[-1]
    out = np.empty(stack.shape[:-3] + (1, 2 * h, 2 * w), dtype=stack.dtype)
    m = out[..., 0, :, :]
    m[..., 0::2, 0::2] = stack[..., 0, :, :]
    m[..., 0::2, 1::2] = stack[..., 1, :, :]
    m[..., 1::2, 0::2] = stack[..., 2, :, :]
    m[..., 1::2, 1::2] = stack[..., 3, :, :]
    return out


def _former_shuffle2(pre):
    c4, h, w = pre.shape[-3:]
    lead = pre.shape[:-3]
    x = np.moveaxis(pre.reshape(lead + (c4 // 4, 2, 2, h, w)), (-4, -3), (-3, -1))
    return x.reshape(lead + (c4 // 4, 2 * h, 2 * w))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_packing_matches_former_expressions(lead, dtype):
    # packing is a space-to-depth by 2: bit for bit what the hand-written
    # slices gave, for one mosaic, a batch and two leading axes
    rng = np.random.default_rng(11)
    bayer = rng.random(lead + (1, 6, 10)).astype(dtype)
    packed = cfa.pack_rggb(bayer)
    want = _former_pack(bayer)
    assert packed.dtype == want.dtype and packed.tobytes() == want.tobytes()
    assert packed.shape == lead + (4, 3, 5)
    back = cfa.unpack_rggb(packed)
    want = _former_unpack(packed)
    assert back.shape == want.shape and back.tobytes() == want.tobytes()
    pre = rng.random(lead + (12, 3, 5)).astype(dtype)
    out = cfa.shuffle2(pre)
    want = _former_shuffle2(pre)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()
    assert cfa.space_to_depth(cfa.depth_to_space(pre, 2), 2).tobytes() == pre.tobytes()


def test_contract_violations():
    with pytest.raises(ContractError):
        cfa.mosaic(np.zeros((1, 4, 4)))  # not 3 channels
    with pytest.raises(ContractError):
        cfa.mosaic(np.zeros((3, 5, 4)))  # odd height
    with pytest.raises(ContractError):
        cfa.pack_rggb(np.zeros((3, 4, 4)))
    with pytest.raises(ContractError):
        cfa.pack_rggb(np.zeros((1, 4, 5)))
    with pytest.raises(ContractError):
        cfa.unpack_rggb(np.zeros((3, 2, 2)))
    with pytest.raises(ContractError):
        cfa.warm_start(np.zeros((3, 2, 2)))
    with pytest.raises(ContractError):
        cfa.shuffle2(np.zeros((5, 2, 2)))
    with pytest.raises(ContractError):
        cfa.add_noise(np.zeros((1, 2, 2)), -0.1, np.random.default_rng(0))
    with pytest.raises(ContractError):
        cfa.attach_noise_map(np.zeros((3, 2, 2)), 0.1)


@pytest.mark.parametrize("fn", [cfa.mosaic, cfa.pack_rggb, cfa.unpack_rggb, cfa.warm_start,
                                cfa.shuffle2, cfa.demosaic_nn,
                                lambda a: cfa.attach_noise_map(a, 0.1)])
@pytest.mark.parametrize("shape", [(4, 4), (4,), ()])
def test_low_rank_arrays_are_contract_violations(fn, shape):
    with pytest.raises(ContractError, match=r"\(\.\.\., C, H, W\)"):
        fn(np.zeros(shape))


def test_add_noise_is_seeded_and_unclipped():
    m = np.full((1, 4, 4), 0.99, dtype=np.float32)
    a = cfa.add_noise(m, 0.1, np.random.default_rng(7))
    b = cfa.add_noise(m, 0.1, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.float32
    assert not np.array_equal(a, m)
    assert a.max() > 1.0  # noise may exceed the displayable range
    zero = cfa.add_noise(m, 0.0, np.random.default_rng(7))
    np.testing.assert_array_equal(zero, m)
    assert zero is not m  # copy, not alias


def test_attach_noise_map_interleaves_sigma():
    rng = np.random.default_rng(8)
    stack = rng.random((4, 3, 3)).astype(np.float32)
    out = cfa.attach_noise_map(stack, 0.25)
    assert out.shape == (8, 3, 3)
    np.testing.assert_array_equal(out[0::2], stack)
    np.testing.assert_array_equal(out[1::2], np.full((4, 3, 3), 0.25, np.float32))


def test_attach_noise_map_per_image_sigma():
    rng = np.random.default_rng(9)
    stack = rng.random((2, 4, 3, 3)).astype(np.float32)
    out = cfa.attach_noise_map(stack, [0.1, 0.3])
    np.testing.assert_array_equal(out[0, 1::2], np.full((4, 3, 3), 0.1, np.float32))
    np.testing.assert_array_equal(out[1, 1::2], np.full((4, 3, 3), 0.3, np.float32))
    with pytest.raises(ContractError):
        cfa.attach_noise_map(stack, [0.1, 0.2, 0.3])
