"""Tape-free blocks: the spectral-mixer MLP, the window-attention chunks and
the deformable front end's blocks of pixels run as whole units on the
intra-op pool, bit for bit the taped op chain, and a non-finite value names
the op the op chain would name."""

import sys
import threading

import numpy as np
import pytest

from demosaick import blocks, ops, parallel
from demosaick.checkpoint import save_checkpoint
from demosaick.cli import main
from demosaick.errors import NonFiniteError
from demosaick.imageio import write_pgm
from demosaick.model import build_model, default_config, tiny_config
from demosaick.tensor import Tape, Tensor, backward, constant, precision

DTYPES = [np.float32, np.float64]
PRESETS = {"tiny": tiny_config, "default": default_config}
# (preset, images, mosaic side): a 256x256 prediction and the validation batch
RUNS = [("tiny", 1, 256), ("tiny", 16, 64), ("default", 1, 256), ("default", 16, 64)]


def _block_shapes(config, side):
    """(mixer, window) sets of (channels, grid side) a prediction at ``side`` runs."""
    grid = -(-side // 2 // config.pad_step) * config.pad_step
    s = config.scales
    mixers, windows = set(), {(config.channels_per_cell[0], grid)}
    for i, (c, m) in enumerate(zip(config.channels_per_cell, config.mixers_per_cell)):
        g = grid >> (i if i < s else 2 * (s - 1) - i)
        windows.add((c, g))
        if m:
            mixers.add((c, g))
    return sorted(mixers), sorted(windows)


def _perturbed(block, rng, dtype):
    for leaf in block.leaves():
        leaf.value.data = (leaf.value.data + 0.05 * rng.standard_normal(leaf.shape)).astype(dtype)
    return block


def _fused_and_taped(call, x, dtype, ways=None):
    """``call`` without and with a tape, inside a BLAS budget or on ``ways`` pieces."""
    with parallel.blas_budget() if ways is None else parallel.fixed_ways(ways):
        fused = call(constant(x, dtype=dtype))
        with Tape() as tape:
            taped = call(Tensor(x, requires_grad=True, dtype=dtype))
    assert len(tape) > 0
    return fused.data, taped.data


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.abs(got - want).max()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("preset,n,side", RUNS)
def test_mixers_match_the_taped_op_chain(preset, n, side, dtype):
    config = PRESETS[preset]()
    for c, grid in _block_shapes(config, side)[0]:
        rng = np.random.default_rng(c * grid + n)
        with precision("high" if dtype == np.float64 else "standard"):
            mix = _perturbed(blocks.SpectralMixer("m", rng, c, config.expansion, config.squeeze),
                             rng, dtype)
        x = rng.standard_normal((n, c, grid, grid)).astype(dtype)
        _assert_bitwise(*_fused_and_taped(mix, x, dtype))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("preset,n,side", RUNS)
def test_window_chunks_match_the_taped_op_chain(preset, n, side, dtype):
    config = PRESETS[preset]()
    for c, grid in _block_shapes(config, side)[1]:
        rng = np.random.default_rng(c * grid + n)
        with precision("high" if dtype == np.float64 else "standard"):
            attn = _perturbed(blocks.WindowTransformer("a", rng, c, config.heads, config.window,
                                                       config.expansion), rng, dtype)
        x = rng.standard_normal((n, c, grid, grid)).astype(dtype)
        for ways in (None, 3):  # the chunk count follows the pool width
            _assert_bitwise(*_fused_and_taped(attn.transform, x, dtype, ways))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ways", [1, 2, 3])
def test_window_mlp_sub_blocks_match_the_taped_op_chain(monkeypatch, ways, dtype):
    # three windows a sub-block: the 40 windows make chunks of 40, 20 or
    # 14 windows, and every chunk but the last of three ends in a short
    # sub-block
    rng = np.random.default_rng(12)
    with precision("high" if dtype == np.float64 else "standard"):
        attn = _perturbed(blocks.WindowTransformer("a", rng, 16, 4, 4), rng, dtype)
    t, hidden = 16, 64
    monkeypatch.setattr(blocks, "_HIDDEN_BYTES", 3 * t * hidden * np.dtype(dtype).itemsize)
    seen = []
    real = ops._gelu

    def spy(x, cdf, out):
        seen.append(x.shape[0])
        return real(x, cdf, out)

    x = rng.standard_normal((2, 16, 16, 20)).astype(dtype)
    _assert_bitwise(*_fused_and_taped(attn.transform, x, dtype, ways))
    monkeypatch.setattr(ops, "_gelu", spy)
    with parallel.fixed_ways(ways):
        attn.transform(constant(x, dtype=dtype))
    assert max(seen) == 3 and min(seen) < 3, seen  # windows a sub-block


def _deformable(config, rng, dtype):
    """The front end of ``config`` with every weight perturbed, the offset conv
    enough that samples fall between pixels and beyond the image's edges."""
    with precision("high" if dtype == np.float64 else "standard"):
        block = blocks.DeformableGroupedConv("d", rng, config.in_channels,
                                             config.channels_per_cell[0])
    _perturbed(block, rng, dtype)
    offset = block.offset.weight.value
    offset.data = (offset.data + rng.standard_normal(offset.shape)).astype(dtype)
    return block


# (preset, denoise, images, mosaic side): a prediction at each side, one of
# a single 1,024-pixel block, batches of several blocks an image and of four
# 256-pixel images (one block each: no block spans two images), and a
# noise-conditioned front end of two channels a group
FRONT_ENDS = [(preset, False, 1, side) for preset in PRESETS for side in (64, 128, 256, 384)] \
    + [("tiny", False, 16, 128), ("default", False, 16, 128), ("tiny", False, 4, 32),
       ("tiny", True, 1, 128)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("preset,denoise,n,side", FRONT_ENDS)
def test_deformable_front_end_matches_the_taped_op_chain(preset, denoise, n, side, dtype):
    config = PRESETS[preset](denoise=denoise)
    grid = -(-side // 2 // config.pad_step) * config.pad_step
    rng = np.random.default_rng(side + n)
    block = _deformable(config, rng, dtype)
    x = rng.standard_normal((n, config.in_channels, grid, grid)).astype(dtype)
    offs = block.offset(constant(x, dtype=dtype)).data.reshape(n, block.groups, 9, 2, grid, grid)
    base = block._base_grid(grid, grid, dtype).reshape(2, 9, grid, grid).transpose(1, 0, 2, 3)
    coords = offs + base
    assert (coords < 0).any() and (coords > grid - 1).any()  # clamped on both sides
    assert (coords != np.round(coords)).mean() > 0.99  # between pixels
    for ways in (None, 3):  # from 128x128 up, the blocks spread over pieces
        _assert_bitwise(*_fused_and_taped(block, x, dtype, ways))


def test_the_default_prediction_spreads_whole_units():
    # the 192-channel mixers at 256x256 cut their 64x64 columns into blocks
    # whose hidden layer fits the hidden budget, and the second scale's 64
    # windows make chunks whose logits fit the logit budget: each piece of
    # the pool takes whole units, at least one
    config = default_config()
    assert (192, 64) in _block_shapes(config, 256)[0]
    hidden = config.expansion * 192 * 4
    columns = min(blocks._BLOCK_COLUMNS, blocks._HIDDEN_BYTES // hidden) // 8 * 8
    mixer_blocks = -(-64 * 64 // columns)
    per_window = config.heads * config.window ** 4 * 4
    chunks = -(-(64 * 64 // config.window ** 2) // (blocks._CHUNK_LOGIT_BYTES // per_window))
    assert mixer_blocks >= 2 and chunks >= 2  # 13 and 4
    seen = []
    real = parallel.run

    def spy(fn, n, *args, **kwargs):
        out = real(fn, n, *args, **kwargs)
        seen.append((n, kwargs.get("least", 2), len(out)))
        return out

    rng = np.random.default_rng(3)
    mix = _perturbed(blocks.SpectralMixer("m", rng, 192), rng, np.float32)
    attn = _perturbed(blocks.WindowTransformer("a", rng, 192, 8, 8), rng, np.float32)
    x = constant(rng.standard_normal((1, 192, 64, 64)).astype(np.float32))
    with pytest.MonkeyPatch.context() as mp, parallel.fixed_ways(2):
        mp.setattr(parallel, "run", spy)
        mix(x)
        attn.transform(x)
    assert (mixer_blocks, 1, 2) in seen and (chunks, 1, 2) in seen


def _units(call, x):
    """Whole units each ``parallel.run`` call of ``call(x)`` handed to a pool of two."""
    seen = []
    real = parallel.run

    def spy(fn, n, *args, **kwargs):
        out = real(fn, n, *args, **kwargs)
        if kwargs.get("least") == 1:
            seen.append(len(out))
        return out

    with pytest.MonkeyPatch.context() as mp, parallel.fixed_ways(2):
        mp.setattr(parallel, "run", spy)
        call(constant(x))
    return seen


@pytest.mark.parametrize("preset,stage,channels,grid", [
    ("tiny", "windows", 16, 128),      # 1,024 windows: two 2 MiB logit chunks
    ("default", "windows", 256, 32),   # the coarsest scale's 16 windows
    ("default", "mixer", 192, 64),     # 13 blocks within the hidden budget
    ("tiny", "front end", 4, 128),
    ("default", "front end", 4, 128),
])
def test_a_256_prediction_gives_every_thread_a_unit(preset, stage, channels, grid):
    config = PRESETS[preset]()
    rng = np.random.default_rng(grid)
    if stage == "windows":
        call = blocks.WindowTransformer("a", rng, channels, config.heads, config.window).transform
    elif stage == "mixer":
        call = blocks.SpectralMixer("m", rng, channels, config.expansion, config.squeeze)
    else:
        call = _deformable(config, rng, np.float32)
    x = rng.standard_normal((1, channels, grid, grid)).astype(np.float32)
    seen = _units(call, x)
    assert seen and min(seen) >= 2, seen


def test_concurrent_callers_share_the_pool():
    # more callers than cores, each splitting whole units of all three blocks
    # over the one-worker pool while pieces of the others run there: outputs
    # stay bitwise
    rng = np.random.default_rng(10)
    mix = _perturbed(blocks.SpectralMixer("m", rng, 16), rng, np.float32)
    attn = _perturbed(blocks.WindowTransformer("a", rng, 16, 4, 4), rng, np.float32)
    front = _deformable(tiny_config(), rng, np.float32)
    x = constant(rng.standard_normal((2, 16, 48, 48)).astype(np.float32))
    xf = constant(rng.standard_normal((2, 4, 48, 48)).astype(np.float32))  # 4 blocks
    attn_budget = blocks._CHUNK_LOGIT_BYTES

    def all_three():
        return (mix(x).data.tobytes() + attn.transform(x).data.tobytes()
                + front(xf).data.tobytes())

    errors, done = [], []

    def caller():
        try:
            for _ in range(10):
                assert all_three() == want
            done.append(1)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp, parallel.fixed_ways(2):
        mp.setattr(blocks, "_CHUNK_LOGIT_BYTES", attn_budget // 32)  # 18 chunks of 16
        want = all_three()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(done) == 4


def _perturbed_model(preset, dtype=np.float32):
    with precision("high" if dtype == np.float64 else "standard"):
        model = build_model(PRESETS[preset](), seed=0)
    rng = np.random.default_rng(4)
    for leaf in model.leaves():  # predictor.refine too: at zero it hides the body
        leaf.value.data[...] += (0.02 * rng.standard_normal(leaf.shape)).astype(dtype)
    assert model.leaf("predictor.refine.weight").value.data.any()
    return model


def _trainable_grads(block, call, x, frozen):
    """Gradients of ``call(x)`` against a fixed cotangent, on a constant ``x``,
    of every leaf of ``block`` whose name ``frozen`` does not accept."""
    for leaf in block.leaves():
        leaf.value.requires_grad = not frozen(leaf.name)
        leaf.zero_grad()
    with Tape() as tape:
        out = call(constant(x))
        cot = np.random.default_rng(1).standard_normal(out.shape)
        loss = ops.sum_(ops.mul(out, constant(cot)))
    backward(loss, tape)
    grads = {leaf.name: leaf.grad.copy() for leaf in block.leaves() if not frozen(leaf.name)}
    for leaf in block.leaves():
        leaf.value.requires_grad = True
    return grads


# which leaves each block test freezes
FROZEN = {"window": lambda name: name == "b.wq",
          "mixer": lambda name: not name.startswith("b.reduce."),
          "deformable": lambda name: name == "b.weight"}


@pytest.mark.parametrize("kind", FROZEN)
def test_a_frozen_leaf_leaves_the_other_gradients_alone(kind):
    # a block takes its tape-free path only when nothing it reads needs a
    # gradient; asking of one leaf alone fused the window transformer, whose
    # chunks then overwrote the recorded tokens, and left the mixer unrecorded
    rng = np.random.default_rng(4)
    if kind == "window":
        block = blocks.WindowTransformer("b", rng, 16, 4, 4)
        call, x = block.transform, rng.standard_normal((2, 16, 8, 8))
    elif kind == "mixer":
        block = call = blocks.SpectralMixer("b", rng, 16)
        x = rng.standard_normal((2, 16, 8, 8))
    else:
        block = call = blocks.DeformableGroupedConv("b", rng, 4, 16)
        x = rng.standard_normal((2, 4, 8, 8))
    _perturbed(block, rng, np.float32)
    everything = _trainable_grads(block, call, x, lambda name: False)
    some = _trainable_grads(block, call, x, FROZEN[kind])
    assert some and all(g.any() for g in some.values())
    for name, grad in some.items():
        _assert_bitwise(grad, everything[name])


def _op_chain(monkeypatch):
    """Make every block take its op chain although no tape records."""
    monkeypatch.setattr(blocks, "recording", lambda *tensors: True)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n,side", [(1, 128), (16, 64)])
def test_tiny_prediction_matches_the_taped_forward(n, side, dtype):
    model = _perturbed_model("tiny", dtype)
    mosaic = np.random.default_rng(5).random((n, 1, side, side))
    with Tape():
        taped = np.clip(model.forward(mosaic).data, 0.0, 1.0)
    _assert_bitwise(model.predict(mosaic), taped)


@pytest.mark.parametrize("dtype", DTYPES)
def test_default_prediction_matches_the_op_chain(monkeypatch, dtype):
    model = _perturbed_model("default", dtype)
    mosaic = np.random.default_rng(6).random((1, 1, 128, 128))
    fused = model.predict(mosaic)
    _op_chain(monkeypatch)
    _assert_bitwise(fused, model.predict(mosaic))


def _overflowed(model, name):
    # every weight at the largest float32 with a random sign: a product's
    # sum overflows wherever it is not tiny before scaling
    data = model.leaf(name).value.data
    signs = np.random.default_rng(9).integers(0, 2, data.shape) * 2 - 1
    data[...] = signs * np.finfo(np.float32).max
    return model


@pytest.mark.parametrize("name,op", [("cells.0.mix0.expand.weight", "conv2d"),
                                     ("cells.1.attn.wq", "matmul"),
                                     ("generator.attn.z1", "matmul"),
                                     ("generator.attn.z2", "matmul"),
                                     ("generator.intra.weight", "matmul"),
                                     ("generator.intra.offset.weight", "conv2d")])
def test_overflow_names_the_op_the_op_chain_names(monkeypatch, name, op):
    model = _overflowed(_perturbed_model("tiny"), name)
    mosaic = np.random.default_rng(7).random((1, 1, 64, 64))
    with pytest.raises(NonFiniteError) as fused:
        model.predict(mosaic)
    _op_chain(monkeypatch)
    with pytest.raises(NonFiniteError) as chain:
        model.predict(mosaic)
    assert str(fused.value) == str(chain.value) == f"operation {op!r} produced non-finite values"


def test_window_overflow_names_the_earliest_op_over_all_chunks(monkeypatch):
    # two chunks of one 4x4 window each: chunk 0's channel 0 sits at the
    # LN mean, so its queries skip wq's float32-max row and only the bias
    # add overflows; chunk 1's queries overflow first, as the op chain's do
    rng = np.random.default_rng(11)
    attn = blocks.WindowTransformer("a", rng, 16, 4, 4)
    big = np.finfo(np.float32).max
    for leaf in (attn.wq, attn.wk):
        leaf.value.data = (1e16 * rng.standard_normal(leaf.shape)).astype(np.float32)
    attn.wq.value.data[0] = big
    attn.bias_table.value.data = np.full(attn.bias_table.shape, big, np.float32)
    x = rng.standard_normal((1, 16, 4, 8)).astype(np.float32)
    pairs = rng.integers(1, 5, (7, 4, 4))  # chunk 0: channels summing to exactly 0
    x[0, 1:8, :, :4], x[0, 8:15, :, :4] = pairs, -pairs
    x[0, (0, 15), :, :4] = 0.0
    x[0, 0, :, 4:] = 10.0  # chunk 1: channel 0 far from the mean
    with parallel.fixed_ways(2):
        with pytest.raises(NonFiniteError) as fused:
            attn.transform(constant(x))
        _op_chain(monkeypatch)
        with pytest.raises(NonFiniteError) as chain:
            attn.transform(constant(x))
    assert str(fused.value) == str(chain.value) == "operation 'matmul' produced non-finite values"


def test_window_overflow_in_a_later_sub_block_names_matmul(monkeypatch):
    # one window a sub-block, three windows: the outer two are constant over
    # channels, so both layer norms give zero tokens and their MLP gives
    # zero; only the middle window's z2 GEMM, against weights at the largest
    # float32, overflows, and the op chain names that GEMM too
    rng = np.random.default_rng(13)
    attn = _perturbed(blocks.WindowTransformer("a", rng, 16, 4, 4), rng, np.float32)
    for norm in (attn.norm_in, attn.norm_mlp):
        norm.beta.value.data[...] = 0.0
    signs = rng.integers(0, 2, attn.z2.shape) * 2 - 1
    attn.z2.value.data = (signs * np.finfo(np.float32).max).astype(np.float32)
    monkeypatch.setattr(blocks, "_HIDDEN_BYTES", 16 * 64 * 4)
    x = np.ones((1, 16, 4, 12), np.float32)
    assert np.isfinite(attn.transform(constant(x)).data).all()
    x[0, :, :, 4:8] = rng.standard_normal((16, 4, 4))
    with parallel.fixed_ways(1):
        with pytest.raises(NonFiniteError) as fused:
            attn.transform(constant(x))
        _op_chain(monkeypatch)
        with pytest.raises(NonFiniteError) as chain:
            attn.transform(constant(x))
    assert str(fused.value) == str(chain.value) == "operation 'matmul' produced non-finite values"


def test_demosaic_overflow_exits_4(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(_overflowed(_perturbed_model("tiny"), "cells.0.mix0.expand.weight"), ckpt)
    src = tmp_path / "m.pgm"
    write_pgm(src, np.random.default_rng(8).random((1, 64, 64)))
    assert main(["demosaic", str(src), str(tmp_path / "r.ppm"), "--checkpoint", str(ckpt)]) == 4
    assert "'conv2d' produced non-finite values" in capsys.readouterr().err


def test_demosaic_front_end_overflow_exits_4(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(_overflowed(_perturbed_model("tiny"), "generator.intra.weight"), ckpt)
    src = tmp_path / "m.pgm"
    write_pgm(src, np.random.default_rng(8).random((1, 64, 64)))
    assert main(["demosaic", str(src), str(tmp_path / "r.ppm"), "--checkpoint", str(ckpt)]) == 4
    assert "'matmul' produced non-finite values" in capsys.readouterr().err
