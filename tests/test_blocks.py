"""Block-level oracles: identity at zero weights, deformable sampling, attention."""

import numpy as np
import pytest

from demosaick import blocks, ops
from demosaick.errors import ConfigError
from demosaick.tensor import ParamLeaf, Tape, backward, constant, precision, zero_grads

from conftest import REL_TOL, fd_gradcheck


def test_trunc_normal_bounds_and_scale():
    rng = np.random.default_rng(0)
    x = blocks.trunc_normal(rng, (20000,), std=0.02)
    assert np.abs(x).max() <= 0.04
    assert 0.015 < x.std() < 0.025


def test_kaiming_normal_scale():
    rng = np.random.default_rng(1)
    w = blocks.kaiming_normal(rng, (64, 32, 3, 3))
    expected = np.sqrt(2.0 / (32 * 9))
    assert abs(w.std() - expected) / expected < 0.05


def test_conv2d_layer_wraps_op(high):
    rng = np.random.default_rng(2)
    layer = blocks.Conv2d("c", rng, 4, 6, 3, padding=1)
    x = constant(rng.standard_normal((2, 4, 5, 5)))
    out = layer(x)
    ref = ops.conv2d(x, layer.weight.value, layer.bias.value, 1, 1, 1)
    np.testing.assert_array_equal(out.data, ref.data)
    assert [l.name for l in layer.leaves()] == ["c.weight", "c.bias"]


def test_conv2d_layer_gain_and_zero_init(high):
    rng = np.random.default_rng(3)
    full = blocks.Conv2d("f", rng, 32, 32, 3)
    damped = blocks.Conv2d("d", np.random.default_rng(3), 32, 32, 3, gain=0.1)
    np.testing.assert_allclose(damped.weight.data, 0.1 * full.weight.data)
    zeroed = blocks.Conv2d("z", rng, 4, 4, 1, zero_init=True)
    assert not zeroed.weight.data.any()
    nobias = blocks.Conv2d("n", rng, 4, 4, 1, bias=False)
    assert nobias.bias is None
    with pytest.raises(ConfigError):
        blocks.Conv2d("bad", rng, 5, 4, 1, groups=2)


def test_layer_norm_channel_block(high):
    rng = np.random.default_rng(4)
    ln = blocks.LayerNormChannel("ln", 6)
    x = constant(rng.standard_normal((2, 6, 3, 3)) * 5 + 2)
    out = ln(x).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# window attention


def test_relative_position_index_window2():
    idx = blocks.relative_position_index(2)
    assert idx.shape == (4, 4)
    # same-position displacement maps to the table center
    center = (2 - 1) * (2 * 2 - 1) + (2 - 1)
    np.testing.assert_array_equal(np.diag(idx), center)
    # horizontal neighbors: dx = -1 and +1 around the center
    assert idx[0, 1] == center - 1
    assert idx[1, 0] == center + 1
    # equal displacements share an index: (0,0)->(1,1) and (0,1) offset pattern
    assert idx[0, 3] == idx[idx.shape[0] - 4, 3]
    assert idx.min() >= 0 and idx.max() < (2 * 2 - 1) ** 2


def test_relative_position_index_is_displacement_function():
    m = 4
    idx = blocks.relative_position_index(m)
    pos = [(i, j) for i in range(m) for j in range(m)]
    for a in range(m * m):
        for b in range(m * m):
            dy = pos[a][0] - pos[b][0]
            dx = pos[a][1] - pos[b][1]
            assert idx[a, b] == (dy + m - 1) * (2 * m - 1) + (dx + m - 1)


def make_attn(channels=4, heads=2, window=2, seed=5):
    return blocks.WindowTransformer("attn", np.random.default_rng(seed),
                                    channels, heads, window)


def test_attention_rows_are_distributions(high):
    rng = np.random.default_rng(6)
    attn = make_attn()
    x = constant(rng.standard_normal((2, 4, 4, 6)))
    rows = attn.attention_rows(x).data
    assert rows.shape == (2 * 2 * 3 * 2, 4, 4)
    np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-9)
    assert rows.min() >= 0.0


def test_attention_uniform_when_qk_zero(high):
    attn = make_attn()
    attn.wq.value.data[...] = 0.0
    attn.wk.value.data[...] = 0.0
    x = constant(np.random.default_rng(7).standard_normal((1, 4, 2, 2)))
    rows = attn.attention_rows(x).data
    np.testing.assert_allclose(rows, 0.25, atol=1e-12)


def test_window_partition_translation_equivariance(high):
    # shifting the input by a whole window permutes windows only
    rng = np.random.default_rng(8)
    attn = make_attn(window=2)
    x = rng.standard_normal((1, 4, 4, 4))
    out = attn.transform(constant(x)).data
    rolled = np.roll(x, 2, axis=3)
    out_rolled = attn.transform(constant(rolled)).data
    np.testing.assert_allclose(out_rolled, np.roll(out, 2, axis=3), atol=1e-10)


def test_window_transformer_gradcheck(high):
    rng = np.random.default_rng(9)
    attn = make_attn()
    # give the zero-init bias table nonzero values so its gradient is live
    attn.bias_table.value.data[...] = 0.01 * rng.standard_normal(attn.bias_table.shape)
    x = ParamLeaf("x", rng.standard_normal((1, 4, 4, 4)) * 0.5)
    w = constant(rng.standard_normal((1, 4, 4, 4)))

    def make():
        return ops.sum_(ops.mul(attn.transform(x.value), w))

    leaves = [x] + list(attn.leaves())
    assert fd_gradcheck(make, leaves, samples=3) <= REL_TOL


def test_window_transformer_contracts():
    with pytest.raises(ConfigError):
        make_attn(channels=5, heads=2)
    attn = make_attn()
    with pytest.raises(ConfigError):
        attn.transform(constant(np.zeros((1, 4, 3, 4))))  # 3 not divisible by 2


def _lively_attn(dtype):
    """8 channels, 2 heads, 2x2 windows, with weights large enough to shape the softmax."""
    rng = np.random.default_rng(31)
    attn = blocks.WindowTransformer("attn", rng, 8, 2, 2)
    for lf in attn.leaves():
        lf.value.data = (lf.value.data + 0.3 * rng.standard_normal(lf.shape)).astype(dtype)
    return attn


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("step", [1, 5, 7, 47])
def test_chunked_transform_matches_one_chunk(monkeypatch, dtype, step):
    # batch 2 of 8x12 gives 48 windows: 5, 7 and 47 leave a shorter last
    # chunk (47: a single window), and 1 runs every window alone
    attn = _lively_attn(dtype)
    x = constant(np.random.default_rng(32).standard_normal((2, 8, 8, 12)), dtype=dtype)
    whole = attn.transform(x).data
    rows = attn.attention_rows(x).data
    per_window = attn.heads * 4 * 4 * np.dtype(dtype).itemsize
    monkeypatch.setattr(blocks, "_CHUNK_LOGIT_BYTES", step * per_window)
    concats, concat = [], ops.concat

    def counted_concat(tensors, axis):
        concats.append(len(tensors))
        return concat(tensors, axis)

    monkeypatch.setattr(ops, "concat", counted_concat)
    chunked = attn.transform(x).data
    assert concats == [-(-48 // step)]  # one concat of ceil(48 / step) chunks
    assert chunked.dtype == whole.dtype and chunked.tobytes() == whole.tobytes()
    # the test hook and the window contract do not depend on the budget
    assert attn.attention_rows(x).data.tobytes() == rows.tobytes()
    with pytest.raises(ConfigError):
        attn.transform(constant(np.zeros((1, 8, 3, 4)), dtype=dtype))


def test_transform_under_a_tape_runs_one_chunk(monkeypatch):
    attn = _lively_attn(np.float64)
    x = constant(np.random.default_rng(33).standard_normal((2, 8, 8, 12)), dtype=np.float64)

    def taped():
        zero_grads(attn.leaves())
        with Tape() as tape:
            out = attn.transform(x)
            backward(ops.sum_(ops.mul(out, out)), tape)
        return [n.op for n in tape.nodes], out.data, [lf.grad.copy() for lf in attn.leaves()]

    ops_big, out_big, grads_big = taped()
    monkeypatch.setattr(blocks, "_CHUNK_LOGIT_BYTES", 1)
    ops_small, out_small, grads_small = taped()
    assert ops_small == ops_big and "concat" not in ops_small
    assert out_small.tobytes() == out_big.tobytes()
    for a, b in zip(grads_small, grads_big):
        assert a.tobytes() == b.tobytes()


def test_conv_token_mixer_zero_weights_zero_branch(high):
    rng = np.random.default_rng(10)
    mix = blocks.ConvTokenMixer("mix", rng, 4)
    mix.proj.weight.value.data[...] = 0.0
    x = constant(rng.standard_normal((1, 4, 6, 6)))
    np.testing.assert_array_equal(mix.transform(x).data, np.zeros((1, 4, 6, 6)))


def test_conv_token_mixer_gradcheck(high):
    rng = np.random.default_rng(11)
    mix = blocks.ConvTokenMixer("mix", rng, 3)
    x = ParamLeaf("x", rng.standard_normal((1, 3, 4, 4)))
    w = constant(rng.standard_normal((1, 3, 4, 4)))

    def make():
        return ops.sum_(ops.mul(mix.transform(x.value), w))

    assert fd_gradcheck(make, [x] + list(mix.leaves()), samples=3) <= REL_TOL


# ---------------------------------------------------------------------------
# mixers


def test_mobile_unit_zero_out_weight_is_identity(high):
    rng = np.random.default_rng(12)
    unit = blocks.MobileNetV3Unit("u", rng, 4, squeeze=2)
    unit.pw_out.weight.value.data[...] = 0.0
    x = constant(rng.standard_normal((2, 4, 5, 5)))
    np.testing.assert_array_equal(unit(x).data, x.data)


def test_mobile_unit_gradcheck(high):
    rng = np.random.default_rng(13)
    unit = blocks.MobileNetV3Unit("u", rng, 4, squeeze=2)
    x = ParamLeaf("x", rng.standard_normal((1, 4, 4, 4)))
    w = constant(rng.standard_normal((1, 4, 4, 4)))

    def make():
        return ops.sum_(ops.mul(unit(x.value), w))

    assert fd_gradcheck(make, [x] + list(unit.leaves()), samples=3) <= REL_TOL


def test_mobile_unit_squeeze_divisibility():
    with pytest.raises(ConfigError):
        blocks.MobileNetV3Unit("u", np.random.default_rng(0), 6, squeeze=4)


def test_spectral_mixer_zero_branch_weights_is_identity(high):
    rng = np.random.default_rng(14)
    mix = blocks.SpectralMixer("s", rng, 4, expansion=2, squeeze=2)
    mix.dw.weight.value.data[...] = 0.0
    mix.mobile.pw_out.weight.value.data[...] = 0.0
    mix.reduce.weight.value.data[...] = 0.0
    x = constant(rng.standard_normal((1, 4, 6, 6)))
    np.testing.assert_array_equal(mix(x).data, x.data)


def test_spectral_mixer_gradcheck(high):
    rng = np.random.default_rng(15)
    mix = blocks.SpectralMixer("s", rng, 4, expansion=2, squeeze=2)
    x = ParamLeaf("x", rng.standard_normal((1, 4, 4, 4)))
    w = constant(rng.standard_normal((1, 4, 4, 4)))

    def make():
        return ops.sum_(ops.mul(mix(x.value), w))

    assert fd_gradcheck(make, [x] + list(mix.leaves()), samples=2) <= REL_TOL


def test_residual_conv_zero_weight_is_identity(high):
    rng = np.random.default_rng(16)
    blk = blocks.ResidualConv3x3("r", rng, 3)
    blk.conv.weight.value.data[...] = 0.0
    x = constant(rng.standard_normal((2, 3, 5, 5)))
    np.testing.assert_array_equal(blk(x).data, x.data)


def test_coding_cell_shapes_and_gradcheck(high):
    rng = np.random.default_rng(17)
    cell = blocks.CodingCell("cell", rng, 4, n_mixers=1, heads=2, window=2,
                             expansion=2, squeeze=2)
    x = ParamLeaf("x", rng.standard_normal((1, 4, 4, 4)) * 0.5)
    out = cell(x.value)
    assert out.shape == (1, 4, 4, 4)
    w = constant(rng.standard_normal((1, 4, 4, 4)))

    def make():
        return ops.sum_(ops.mul(cell(x.value), w))

    assert fd_gradcheck(make, [x] + list(cell.leaves()), samples=2) <= REL_TOL


def test_coding_cell_cascades_mixers(high):
    rng = np.random.default_rng(18)
    cell = blocks.CodingCell("cell", rng, 4, n_mixers=2, heads=2, window=2,
                             expansion=2, squeeze=2)
    x = constant(rng.standard_normal((1, 4, 4, 4)))
    h = cell.mixers[1](cell.mixers[0](x))
    s = ops.gelu(ops.add(cell.fuse(h), x))
    ref = ops.add(s, cell.attn.transform(s))
    np.testing.assert_array_equal(cell(x).data, ref.data)


def test_coding_cell_ablation_variants(high):
    rng = np.random.default_rng(19)
    cell = blocks.CodingCell("cell", rng, 4, n_mixers=1, heads=2, window=2,
                             expansion=2, squeeze=2,
                             use_spectral_mixers=False, use_window_attention=False)
    assert isinstance(cell.mixers[0], blocks.ResidualConv3x3)
    assert isinstance(cell.attn, blocks.ConvTokenMixer)
    out = cell(constant(rng.standard_normal((1, 4, 6, 6))))
    assert out.shape == (1, 4, 6, 6)


# ---------------------------------------------------------------------------
# deformable convolution


def replicate_conv_oracle(x, w, b, groups):
    """Plain grouped 3x3 conv over an edge-replicated input, pure numpy."""
    k = w.shape[-1]
    r = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)), mode="edge")
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    cg = cin // groups
    cog = cout // groups
    out = np.zeros((n, cout, h, wd), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            g = co // cog
            for yy in range(h):
                for xx in range(wd):
                    patch = xp[ni, g * cg:(g + 1) * cg, yy:yy + k, xx:xx + k]
                    out[ni, co, yy, xx] = (patch * w[co]).sum() + b[co]
    return out


def test_deformable_zero_offsets_match_replicated_conv(high):
    rng = np.random.default_rng(20)
    deform = blocks.DeformableGroupedConv("d", rng, 8, 8, kernel=3, groups=4)
    x = rng.standard_normal((2, 8, 6, 7))
    out = deform(constant(x)).data
    ref = replicate_conv_oracle(x, deform.weight.data, deform.bias.data, 4)
    np.testing.assert_allclose(out, ref, atol=1e-10)


def test_deformable_constant_input_stays_constant(high):
    rng = np.random.default_rng(21)
    deform = blocks.DeformableGroupedConv("d", rng, 4, 4, kernel=3, groups=4)
    # force large nonzero offsets; constant input must be unaffected
    deform.offset.weight.value.data[...] = rng.standard_normal(
        deform.offset.weight.shape)
    deform.offset.bias.value.data[...] = rng.standard_normal(
        deform.offset.bias.shape) * 3.0
    x = np.empty((1, 4, 6, 6))
    for c in range(4):
        x[0, c] = 0.1 * (c + 1)
    out = deform(constant(x)).data
    expected = (deform.weight.data.sum(axis=(1, 2, 3)) * 0.1
                * (np.arange(4) + 1) + deform.bias.data)
    for c in range(4):
        np.testing.assert_allclose(out[0, c], expected[c], atol=1e-10)


def test_deformable_translation_equivariance_interior(high):
    # an impulse moved one pixel inside the interior moves the response
    rng = np.random.default_rng(22)
    deform = blocks.DeformableGroupedConv("d", rng, 4, 4, kernel=3, groups=4)
    x = np.zeros((1, 4, 9, 9))
    x[0, :, 3, 3] = 1.0
    y = np.zeros((1, 4, 9, 9))
    y[0, :, 4, 4] = 1.0
    out_x = deform(constant(x)).data
    out_y = deform(constant(y)).data
    np.testing.assert_allclose(out_y[:, :, 3:8, 3:8], out_x[:, :, 2:7, 2:7],
                               atol=1e-10)


def test_deformable_gradcheck_off_lattice(high):
    rng = np.random.default_rng(23)
    deform = blocks.DeformableGroupedConv("d", rng, 4, 4, kernel=3, groups=2)
    # push every sampling coordinate off the integer lattice so the bilinear
    # map is smooth at the evaluation point
    deform.offset.weight.value.data[...] = 0.05 * rng.standard_normal(
        deform.offset.weight.shape)
    deform.offset.bias.value.data[...] = 0.2371
    x = ParamLeaf("x", rng.standard_normal((1, 4, 5, 5)) * 0.5)
    w = constant(rng.standard_normal((1, 4, 5, 5)))

    def make():
        return ops.sum_(ops.mul(deform(x.value), w))

    assert fd_gradcheck(make, [x] + list(deform.leaves()), samples=3) <= REL_TOL


def test_deformable_offset_layout_moves_one_tap(high):
    # bumping the bias channel for (group 0, tap 0, dy) shifts only that
    # tap's sampling row; with a single-tap weight the output shifts linearly
    rng = np.random.default_rng(24)
    deform = blocks.DeformableGroupedConv("d", rng, 2, 2, kernel=3, groups=2)
    deform.weight.value.data[...] = 0.0
    deform.weight.value.data[0, 0, 0, 0] = 1.0  # output ch 0 reads tap (0, 0)
    deform.bias.value.data[...] = 0.0
    ys = np.arange(8.0)
    x = np.broadcast_to(ys[None, None, :, None], (1, 2, 8, 8)).copy()
    base = deform(constant(x)).data.copy()
    # offset channels are group-major, tap-major, dy before dx
    deform.offset.bias.value.data[0] = 0.5  # group 0, tap (0,0), dy
    shifted = deform(constant(x)).data
    interior = (slice(None), slice(0, 1), slice(2, 6), slice(2, 6))
    np.testing.assert_allclose(shifted[interior] - base[interior], 0.5, atol=1e-10)
    # group 1 output is untouched by a group-0 offset channel
    np.testing.assert_array_equal(shifted[:, 1], base[:, 1])


def test_deformable_channel_divisibility():
    with pytest.raises(ConfigError):
        blocks.DeformableGroupedConv("d", np.random.default_rng(0), 6, 8, groups=4)


def per_tap_deformable_reference(deform, x):
    """The per-group, per-tap loop the batched forward replaced, kept as an oracle.

    One bilinear sample per (group, tap), tap-major concatenation of the
    samples and one matmul per group.
    """
    n, _, h, w = x.shape
    k, g, cg, cog = deform.kernel, deform.groups, deform.cg, deform.cog
    kk, p = k * k, h * w
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    offs = ops.reshape(deform.offset(x), (n, g, kk, 2, h, w))
    group_offs = ops.split(offs, [1] * g, axis=1)
    group_ins = ops.split(x, [cg] * g, axis=1)
    w_groups = ops.split(deform.weight.value, [cog] * g, axis=0)
    b_groups = ops.split(deform.bias.value, [cog] * g, axis=0)
    outs = []
    for gi in range(g):
        taps = ops.split(ops.reshape(group_offs[gi], (n, kk, 2, h, w)), [1] * kk, axis=1)
        sampled = []
        for t in range(kk):
            base = np.stack([(ys + t // k - k // 2).ravel(), (xs + t % k - k // 2).ravel()], axis=-1)
            off_t = ops.permute(ops.reshape(taps[t], (n, 2, p)), (0, 2, 1))
            coords = ops.add(off_t, constant(base, dtype=x.dtype))
            sampled.append(ops.bilinear_sample(group_ins[gi], coords))
        stacked = ops.concat(sampled, axis=1)
        wg = ops.reshape(ops.permute(w_groups[gi], (0, 2, 3, 1)), (cog, kk * cg))
        out_g = ops.add(ops.matmul(wg, stacked), ops.reshape(b_groups[gi], (cog, 1)))
        outs.append(ops.reshape(out_g, (n, cog, h, w)))
    return ops.concat(outs, axis=1)


@pytest.mark.parametrize("mode,rtol", [("standard", 1e-5), ("high", 1e-12)])
def test_deformable_matches_per_tap_reference(mode, rtol):
    with precision(mode):
        rng = np.random.default_rng(25)
        deform = blocks.DeformableGroupedConv("d", rng, 8, 12, kernel=3, groups=4)
        # nonzero offsets that put every tap off the integer lattice, some
        # of them past the image border
        deform.offset.weight.value.data[...] = 0.3 * rng.standard_normal(
            deform.offset.weight.shape)
        deform.offset.bias.value.data[...] = 0.37
        deform.bias.value.data[...] = rng.standard_normal(deform.bias.shape)
        x = ParamLeaf("x", rng.standard_normal((2, 8, 7, 9)))
        probe = constant(rng.standard_normal((2, 12, 7, 9)))
        leaves = [x] + list(deform.leaves())

        def run(forward):
            zero_grads(leaves)
            with Tape() as tape:
                out = forward(x.value)
                backward(ops.sum_(ops.mul(out, probe)), tape)
            return out.data, [lf.grad.copy() for lf in leaves]

        out, grads = run(deform)
        ref, ref_grads = run(lambda v: per_tap_deformable_reference(deform, v))
    if mode == "standard":
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, ref)
    else:
        np.testing.assert_allclose(out, ref, rtol=rtol, atol=0)
    for lf, got, want in zip(leaves, grads, ref_grads):
        assert np.abs(got - want).max() <= rtol * np.abs(want).max(), lf.name


def test_deformable_records_one_sample_and_one_gemm():
    rng = np.random.default_rng(26)
    deform = blocks.DeformableGroupedConv("d", rng, 4, 16, kernel=3, groups=4)
    with Tape() as tape:
        deform(constant(rng.standard_normal((2, 4, 6, 6))))
    recorded = [node.op for node in tape.nodes]
    assert recorded.count("bilinear_sample") == 1
    assert recorded.count("matmul") == 1
    assert len(recorded) <= 25


def test_module_lists_any_param_leaf_attribute_in_assignment_order():
    # A block lists a weight it gains without a leaves() of its own; lists of
    # sub-blocks and None (an absent bias) are walked and skipped as the
    # built-in blocks need.
    class ScaledConv(blocks.Conv2d):
        def __init__(self, name, rng):
            super().__init__(name, rng, 4, 4, 1, bias=False)
            self.scale = ParamLeaf(name + ".scale", np.ones(4))

    class Stack(blocks.Module):
        def __init__(self, rng):
            self.first = ParamLeaf("s.first", np.zeros(2))
            self.width = 4
            self.layers = [ScaledConv(f"s.l{i}", rng) for i in range(2)]
            self.norm = blocks.LayerNormChannel("s.norm", 4)

    stack = Stack(np.random.default_rng(0))
    assert [lf.name for lf in stack.leaves()] == [
        "s.first", "s.l0.weight", "s.l0.scale", "s.l1.weight", "s.l1.scale",
        "s.norm.gamma", "s.norm.beta"]
