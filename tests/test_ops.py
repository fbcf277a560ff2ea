"""Per-operation forward oracles and finite-difference gradient checks."""

import math

import numpy as np
import pytest
from scipy.special import erf as _erf

from demosaick import ops
from demosaick.errors import ContractError
from demosaick.tensor import ParamLeaf, Tape, backward, constant

from conftest import REL_TOL, fd_gradcheck


def leaf(rng, shape, scale=1.0, name="p"):
    return ParamLeaf(name, rng.standard_normal(shape) * scale)


# ---------------------------------------------------------------------------
# elementwise


@pytest.mark.parametrize("seed", range(5))
def test_elementwise_grads(high, seed):
    rng = np.random.default_rng(seed)
    a = leaf(rng, (3, 4), name="a")
    b = ParamLeaf("b", rng.standard_normal((3, 4)) * 0.5 + 2.0)  # keep div away from 0

    cases = [
        lambda: ops.sum_(ops.add(a.value, b.value)),
        lambda: ops.sum_(ops.sub(a.value, b.value)),
        lambda: ops.sum_(ops.mul(a.value, b.value)),
        lambda: ops.sum_(ops.div(a.value, b.value)),
        lambda: ops.sum_(ops.scale(a.value, -1.7)),
        lambda: ops.sum_(ops.neg(ops.mul(a.value, a.value))),
        lambda: ops.sum_(ops.sigmoid(a.value)),
        lambda: ops.sum_(ops.gelu(a.value)),
        lambda: ops.sum_(ops.mul(a.value, ops.softmax(b.value, axis=1))),
    ]
    for make in cases:
        assert fd_gradcheck(make, [a, b], seed=seed) <= REL_TOL


@pytest.mark.parametrize("seed", range(5))
def test_abs_pow_clamp_grads(high, seed):
    rng = np.random.default_rng(seed)
    # keep entries away from the |x| kink and the clamp threshold
    vals = rng.standard_normal((4, 3))
    vals = np.sign(vals) * (np.abs(vals) + 0.3)
    a = ParamLeaf("a", vals)
    pos = ParamLeaf("pos", np.abs(rng.standard_normal((4, 3))) + 0.5)

    assert fd_gradcheck(lambda: ops.sum_(ops.abs_(a.value)), [a], seed=seed) <= REL_TOL
    assert fd_gradcheck(lambda: ops.sum_(ops.pow_const(pos.value, 1.7)), [pos], seed=seed) <= REL_TOL
    assert fd_gradcheck(lambda: ops.sum_(ops.clamp_min(a.value, 0.0)), [a], seed=seed) <= REL_TOL


def test_clamp_min_forward_and_gradient_gate(high):
    a = ParamLeaf("a", np.array([-1.0, 0.5, 2.0]))
    out = ops.clamp_min(a.value, 0.25)
    np.testing.assert_allclose(out.data, [0.25, 0.5, 2.0])
    with Tape() as tape:
        loss = ops.sum_(ops.clamp_min(a.value, 0.25))
        backward(loss, tape)
    np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0])


def test_softmax_shift_invariance(high):
    big = ops.softmax(constant([1000.0, 1000.5]))
    small = ops.softmax(constant([0.0, 0.5]))
    np.testing.assert_allclose(big.data, small.data, atol=1e-12, rtol=0.0)
    np.testing.assert_allclose(big.data.sum(), 1.0, atol=1e-12, rtol=0.0)


def test_gelu_known_values(high):
    # x * Phi(x): gelu(0) = 0, symmetric combination gelu(x) - x = gelu(-x) - 0
    x = constant([0.0, 1.0, -1.0])
    out = ops.gelu(x)
    from math import erf, sqrt
    expected = [v * 0.5 * (1 + erf(v / sqrt(2))) for v in (0.0, 1.0, -1.0)]
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_broadcasting_add_mul_grads(high):
    rng = np.random.default_rng(11)
    a = leaf(rng, (2, 3, 4), name="a")
    b = leaf(rng, (1, 3, 1), name="b")
    assert fd_gradcheck(lambda: ops.sum_(ops.add(a.value, b.value)), [a, b]) <= REL_TOL
    assert fd_gradcheck(lambda: ops.sum_(ops.mul(a.value, b.value)), [a, b]) <= REL_TOL


# In-place kernels against the expressions they replaced. The rewrites only
# reuse buffers, so forward values and gradients must match bit for bit and
# the inputs must come back untouched.


def _gelu_reference(x, g):
    cdf = 0.5 * (1.0 + _erf(x * (1.0 / math.sqrt(2.0))))
    out = (x * cdf).astype(x.dtype, copy=False)
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    return out, ((g * (cdf + x * pdf)).astype(x.dtype, copy=False),)


def _softmax_reference(x, g, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)
    inner = (g * out).sum(axis=axis, keepdims=True)
    return out, ((g - inner) * out,)


def _layer_norm_reference(x, gamma, beta, g, eps=1e-5):
    bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    mu = x.mean(axis=1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = centered * inv_std
    out = gamma.reshape(bshape) * xhat + beta.reshape(bshape)
    axes = tuple(i for i in range(x.ndim) if i != 1)
    dxhat = g * gamma.reshape(bshape)
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    return out, (dx.astype(x.dtype, copy=False), (g * xhat).sum(axis=axes), g.sum(axis=axes))


def _run_op_and_backward(op, arrays, g):
    """Forward on leaves, then the recorded node's backward on g."""
    leaves = [ParamLeaf(f"p{i}", a, dtype=a.dtype) for i, a in enumerate(arrays)]
    with Tape() as tape:
        out = op(*(lf.value for lf in leaves))
    return out.data, tape.nodes[-1].backward_fn(g)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", ["gelu", "softmax_last", "softmax_axis1",
                                    "layer_norm", "layer_norm_tokens"])
def test_inplace_kernels_match_former_expressions(kernel, dtype):
    rng = np.random.default_rng(17)
    x = (rng.standard_normal((2, 6, 5, 7)) * 4.0).astype(dtype)
    if kernel == "layer_norm_tokens":
        # the attention MLP normalizes a permuted, non-contiguous view
        x = x.reshape(2, 35, 6).transpose(0, 2, 1)
    g = rng.standard_normal(x.shape).astype(dtype)
    inputs = [x]
    if kernel == "gelu":
        op, want = ops.gelu, _gelu_reference(x, g)
    elif kernel.startswith("softmax"):
        axis = -1 if kernel == "softmax_last" else 1
        op, want = (lambda a: ops.softmax(a, axis=axis)), _softmax_reference(x, g, axis)
    else:
        gamma = (1.0 + 0.1 * rng.standard_normal(6)).astype(dtype)
        beta = (0.1 * rng.standard_normal(6)).astype(dtype)
        inputs += [gamma, beta]
        op, want = ops.layer_norm, _layer_norm_reference(x, gamma, beta, g)
    before = [a.copy() for a in inputs]
    g_before = g.copy()
    out, grads = _run_op_and_backward(op, inputs, g)
    _assert_bitwise(out, want[0])
    assert len(grads) == len(want[1])
    for got, ref in zip(grads, want[1]):
        _assert_bitwise(got, ref)
    for a, b in zip(inputs + [g], before + [g_before]):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# normalization and reductions


@pytest.mark.parametrize("seed", range(5))
def test_layer_norm_grads(high, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (2, 5, 3, 3), name="x")
    gamma = ParamLeaf("gamma", 1.0 + 0.1 * rng.standard_normal(5))
    beta = ParamLeaf("beta", 0.1 * rng.standard_normal(5))
    w = constant(rng.standard_normal((2, 5, 3, 3)))

    def make():
        return ops.sum_(ops.mul(ops.layer_norm(x.value, gamma.value, beta.value), w))

    assert fd_gradcheck(make, [x, gamma, beta], seed=seed) <= REL_TOL


def test_layer_norm_normalizes_channels(high):
    rng = np.random.default_rng(0)
    x = constant(rng.standard_normal((2, 8, 4, 4)) * 3 + 1)
    gamma = constant(np.ones(8))
    beta = constant(np.zeros(8))
    out = ops.layer_norm(x, gamma, beta).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)


@pytest.mark.parametrize("seed", range(3))
def test_reduction_grads(high, seed):
    rng = np.random.default_rng(seed)
    a = leaf(rng, (2, 3, 4), name="a")
    w = constant(rng.standard_normal((2, 1, 4)))
    cases = [
        lambda: ops.sum_(a.value),
        lambda: ops.mean_(a.value),
        lambda: ops.sum_(ops.mul(ops.sum_(a.value, axis=1, keepdims=True), w)),
        lambda: ops.sum_(ops.mul(ops.mean_(a.value, axis=1, keepdims=True), w)),
        lambda: ops.sum_(ops.mean_(a.value, axis=(0, 2))),
    ]
    for make in cases:
        assert fd_gradcheck(make, [a], seed=seed) <= REL_TOL


def test_global_avg_pool_matches_mean(high):
    rng = np.random.default_rng(2)
    x = leaf(rng, (2, 3, 5, 7), name="x")
    out = ops.global_avg_pool(x.value)
    assert out.shape == (2, 3, 1, 1)
    np.testing.assert_allclose(out.data[..., 0, 0], x.data.mean(axis=(2, 3)), atol=1e-12)
    w = constant(rng.standard_normal((2, 3, 1, 1)))
    assert fd_gradcheck(lambda: ops.sum_(ops.mul(ops.global_avg_pool(x.value), w)), [x]) <= REL_TOL


# ---------------------------------------------------------------------------
# shape ops


def test_shape_op_grads(high):
    rng = np.random.default_rng(4)
    a = leaf(rng, (2, 6, 4), name="a")
    w1 = constant(rng.standard_normal((2, 3, 2, 4)))
    w2 = constant(rng.standard_normal((4, 2, 6)))

    def make_reshape():
        return ops.sum_(ops.mul(ops.reshape(a.value, (2, 3, 2, 4)), w1))

    def make_permute():
        return ops.sum_(ops.mul(ops.permute(a.value, (2, 0, 1)), w2))

    assert fd_gradcheck(make_reshape, [a]) <= REL_TOL
    assert fd_gradcheck(make_permute, [a]) <= REL_TOL


def test_concat_split_roundtrip_and_grads(high):
    rng = np.random.default_rng(5)
    a = leaf(rng, (2, 3, 4), name="a")
    b = leaf(rng, (2, 2, 4), name="b")
    joined = ops.concat([a.value, b.value], axis=1)
    assert joined.shape == (2, 5, 4)
    pa, pb = ops.split(joined, (3, 2), axis=1)
    np.testing.assert_array_equal(pa.data, a.data)
    np.testing.assert_array_equal(pb.data, b.data)
    w = constant(rng.standard_normal((2, 5, 4)))

    def make():
        return ops.sum_(ops.mul(ops.concat([a.value, b.value], axis=1), w))

    assert fd_gradcheck(make, [a, b]) <= REL_TOL
    with pytest.raises(ContractError):
        ops.split(joined, (3, 3), axis=1)


def test_crop_and_take_last_grads(high):
    rng = np.random.default_rng(6)
    a = leaf(rng, (1, 2, 6, 6), name="a")
    w = constant(rng.standard_normal((1, 2, 3, 4)))

    def make_crop():
        return ops.sum_(ops.mul(ops.crop2d(a.value, 1, 2, 3, 4), w))

    assert fd_gradcheck(make_crop, [a]) <= REL_TOL

    t = leaf(rng, (2, 5), name="t")
    idx = np.array([0, 3, 3, 1])  # repeated index must accumulate
    wt = constant(rng.standard_normal((2, 4)))

    def make_take():
        return ops.sum_(ops.mul(ops.take_last(t.value, idx), wt))

    assert fd_gradcheck(make_take, [t]) <= REL_TOL
    np.testing.assert_array_equal(ops.take_last(t.value, idx).data, t.data[:, idx])


# ---------------------------------------------------------------------------
# matmul


@pytest.mark.parametrize("shapes", [
    ((3, 4), (4, 5)),
    ((2, 3, 4), (2, 4, 5)),
    ((2, 3, 4), (4, 5)),
    ((3, 4), (2, 4, 5)),
])
def test_matmul_grads(high, shapes):
    rng = np.random.default_rng(sum(map(len, shapes)))
    sa, sb = shapes
    a = leaf(rng, sa, 0.5, name="a")
    b = leaf(rng, sb, 0.5, name="b")

    def make():
        return ops.sum_(ops.mul(ops.matmul(a.value, b.value),
                                ops.matmul(a.value, b.value)))

    assert fd_gradcheck(make, [a, b]) <= REL_TOL
    np.testing.assert_allclose(ops.matmul(a.value, b.value).data,
                               np.matmul(a.data, b.data), atol=1e-12)


def test_matmul_rejects_bad_shapes():
    a = constant(np.ones((3, 4)))
    with pytest.raises(ContractError):
        ops.matmul(a, constant(np.ones((3, 4))))
    with pytest.raises(ContractError):
        ops.matmul(a, constant(np.ones(4)))
    with pytest.raises(ContractError):
        ops.matmul(constant(np.ones((2, 3, 4))), constant(np.ones((3, 4, 5))))


# ---------------------------------------------------------------------------
# convolution


def naive_conv2d(x, w, b=None, stride=1, padding=0, groups=1):
    """Direct quadruple-loop reference used as the correctness oracle."""
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    sh = sw = stride
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // sh + 1
    wo = (wd + 2 * padding - kw) // sw + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    cog = cout // groups
    for ni in range(n):
        for co in range(cout):
            g = co // cog
            for yy in range(ho):
                for xx in range(wo):
                    patch = xp[ni, g * cg:(g + 1) * cg,
                               yy * sh:yy * sh + kh, xx * sw:xx * sw + kw]
                    out[ni, co, yy, xx] = (patch * w[co]).sum()
    if b is not None:
        out += b.reshape(1, cout, 1, 1)
    return out


@pytest.mark.parametrize("case", [
    dict(n=1, cin=2, cout=3, k=3, stride=1, padding=0, groups=1, hw=(5, 5)),
    dict(n=2, cin=4, cout=6, k=1, stride=1, padding=0, groups=1, hw=(4, 5)),
    dict(n=2, cin=4, cout=6, k=1, stride=2, padding=0, groups=2, hw=(6, 6)),
    dict(n=1, cin=6, cout=6, k=5, stride=1, padding=2, groups=6, hw=(7, 7)),
    dict(n=2, cin=8, cout=12, k=3, stride=2, padding=1, groups=4, hw=(8, 9)),
    dict(n=1, cin=3, cout=5, k=3, stride=1, padding=1, groups=1, hw=(6, 4)),
])
def test_conv2d_matches_naive_and_gradchecks(high, case):
    rng = np.random.default_rng(17)
    h, wd = case["hw"]
    x = leaf(rng, (case["n"], case["cin"], h, wd), name="x")
    w = leaf(rng, (case["cout"], case["cin"] // case["groups"], case["k"], case["k"]),
             0.4, name="w")
    b = ParamLeaf("b", rng.standard_normal(case["cout"]) * 0.1)
    out = ops.conv2d(x.value, w.value, b.value, stride=case["stride"],
                     padding=case["padding"], groups=case["groups"])
    ref = naive_conv2d(x.data, w.data, b.data, case["stride"], case["padding"],
                       case["groups"])
    np.testing.assert_allclose(out.data, ref, atol=1e-10)

    def make():
        y = ops.conv2d(x.value, w.value, b.value, stride=case["stride"],
                       padding=case["padding"], groups=case["groups"])
        return ops.sum_(ops.mul(y, y))

    assert fd_gradcheck(make, [x, w, b], samples=4) <= REL_TOL


def test_conv2d_spec_example_shape_and_grad(high):
    # 1x2x5x5 input under a 3x2x3x3 kernel: a 1x3x3x3 map without padding
    rng = np.random.default_rng(23)
    x = leaf(rng, (1, 2, 5, 5), name="x")
    w = leaf(rng, (3, 2, 3, 3), 0.4, name="w")
    out = ops.conv2d(x.value, w.value)
    assert out.shape == (1, 3, 3, 3)

    def make():
        y = ops.conv2d(x.value, w.value)
        return ops.sum_(ops.mul(y, y))

    assert fd_gradcheck(make, [x, w]) <= REL_TOL


def test_depthwise_conv_matches_per_channel_loop(high):
    rng = np.random.default_rng(31)
    x = constant(rng.standard_normal((2, 6, 8, 8)))
    w = constant(rng.standard_normal((6, 1, 5, 5)))
    out = ops.conv2d(x, w, padding=2, groups=6).data
    for c in range(6):
        ref = naive_conv2d(x.data[:, c:c + 1], w.data[c:c + 1], None, 1, 2, 1)
        np.testing.assert_allclose(out[:, c:c + 1], ref, atol=1e-12)
    # repeated evaluation is bitwise identical
    again = ops.conv2d(x, w, padding=2, groups=6).data
    np.testing.assert_array_equal(out, again)


def test_conv2d_contract_violations():
    x = constant(np.zeros((1, 4, 5, 5)))
    with pytest.raises(ContractError):
        ops.conv2d(x, constant(np.zeros((6, 4, 3, 3))), groups=3)  # cin % groups
    with pytest.raises(ContractError):
        ops.conv2d(x, constant(np.zeros((6, 3, 3, 3))))  # wrong cg
    with pytest.raises(ContractError):
        ops.conv2d(x, constant(np.zeros((6, 4, 7, 7))))  # empty output
    with pytest.raises(ContractError):
        ops.conv2d(x, constant(np.zeros((6, 4, 3, 3))), constant(np.zeros(5)))  # bias shape


def test_conv_transpose_is_adjoint_of_conv(high):
    # <conv2d(x, w), y> == <x, conv_transpose2d(y, w)> with the same weight
    rng = np.random.default_rng(41)
    x = rng.standard_normal((2, 5, 9, 9))
    w = rng.standard_normal((3, 5, 3, 3))
    y = rng.standard_normal((2, 3, 4, 4))
    fwd = ops.conv2d(constant(x), constant(w), stride=2).data
    back = ops.conv_transpose2d(constant(y), constant(w), stride=2).data
    assert fwd.shape == y.shape and back.shape == x.shape
    np.testing.assert_allclose(float((fwd * y).sum()), float((x * back).sum()),
                               rtol=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_conv_transpose_grads(high, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (2, 4, 3, 3), name="x")
    w = leaf(rng, (4, 3, 2, 2), 0.4, name="w")
    b = ParamLeaf("b", rng.standard_normal(3) * 0.1)

    def make():
        y = ops.conv_transpose2d(x.value, w.value, b.value, stride=2)
        return ops.sum_(ops.mul(y, y))

    assert fd_gradcheck(make, [x, w, b], seed=seed) <= REL_TOL
    out = ops.conv_transpose2d(x.value, w.value, b.value, stride=2)
    assert out.shape == (2, 3, 6, 6)


def test_conv_transpose_matches_upsample_oracle(high):
    # stride-2 kernel-2 transpose writes each input pixel into a 2x2 block
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 2, 3, 3))
    w = rng.standard_normal((2, 4, 2, 2))
    out = ops.conv_transpose2d(constant(x), constant(w), stride=2).data
    ref = np.zeros((1, 4, 6, 6))
    for yy in range(3):
        for xx in range(3):
            for ci in range(2):
                ref[0, :, 2 * yy:2 * yy + 2, 2 * xx:2 * xx + 2] += x[0, ci, yy, xx] * w[ci]
    np.testing.assert_allclose(out, ref, atol=1e-12)


# ---------------------------------------------------------------------------
# bilinear sampling


def test_bilinear_sample_exact_on_lattice(high):
    rng = np.random.default_rng(51)
    x = constant(rng.standard_normal((1, 3, 4, 5)))
    ys, xs = np.meshgrid(np.arange(4.0), np.arange(5.0), indexing="ij")
    coords = constant(np.stack([ys.ravel(), xs.ravel()], axis=-1)[None])
    out = ops.bilinear_sample(x, coords).data
    np.testing.assert_allclose(out.reshape(1, 3, 4, 5), x.data, atol=1e-12)


def test_bilinear_sample_interpolates_linearly(high):
    # on a plane a*y + b*x + c interpolation is exact everywhere inside
    a, b, c = 0.7, -0.3, 0.1
    ys, xs = np.meshgrid(np.arange(6.0), np.arange(7.0), indexing="ij")
    plane = (a * ys + b * xs + c)[None, None]
    pts = np.array([[1.25, 2.75], [3.5, 0.5], [4.99, 5.01]])
    out = ops.bilinear_sample(constant(plane), constant(pts[None])).data
    expected = a * pts[:, 0] + b * pts[:, 1] + c
    np.testing.assert_allclose(out[0, 0], expected, atol=1e-12)


def test_bilinear_sample_clamps_outside(high):
    x = constant(np.arange(12.0).reshape(1, 1, 3, 4))
    pts = constant(np.array([[[-5.0, -5.0], [10.0, 10.0]]]))
    out = ops.bilinear_sample(x, pts).data
    np.testing.assert_allclose(out[0, 0], [0.0, 11.0])


@pytest.mark.parametrize("seed", range(3))
def test_bilinear_sample_grads_interior(high, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, (1, 2, 6, 6), name="x")
    # strictly interior, away from lattice lines where the map is non-smooth
    pts = rng.uniform(0.3, 4.7, size=(1, 5, 2))
    pts = np.where(np.abs(pts - np.round(pts)) < 0.1, pts + 0.17, pts)
    c = ParamLeaf("c", pts)
    w = constant(rng.standard_normal((1, 2, 5)))

    def make():
        return ops.sum_(ops.mul(ops.bilinear_sample(x.value, c.value), w))

    assert fd_gradcheck(make, [x, c], seed=seed) <= REL_TOL


def test_bilinear_sample_zero_coord_grad_outside(high):
    x = ParamLeaf("x", np.ones((1, 1, 4, 4)))
    c = ParamLeaf("c", np.array([[[-3.0, 2.0]]]))
    with Tape() as tape:
        out = ops.bilinear_sample(x.value, c.value)
        backward(ops.sum_(out), tape)
    # y coordinate is clamped so its gradient is gated to zero
    assert c.grad[0, 0, 0] == 0.0


def test_bilinear_sample_skips_constant_input_grad(high):
    rng = np.random.default_rng(5)
    xv = rng.standard_normal((2, 3, 5, 6))
    pts = rng.uniform(-0.5, 5.5, size=(2, 7, 2))
    g = rng.standard_normal((2, 3, 7))
    _, (gx_none, gc_const) = _run_op_and_backward(
        lambda c: ops.bilinear_sample(constant(xv), c), [pts], g)
    _, (gx, gc) = _run_op_and_backward(ops.bilinear_sample, [xv, pts], g)
    assert gx_none is None and gx.shape == xv.shape
    assert gc_const.tobytes() == gc.tobytes()


# ---------------------------------------------------------------------------
# pixel shuffle


def test_pixel_shuffle_four_channel_example(high):
    # channels [a, b, c, d] at one position -> 2x2 block [[a, b], [c, d]]
    x = constant(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
    out = ops.pixel_shuffle(x, 2).data
    np.testing.assert_array_equal(out[0, 0], [[1.0, 2.0], [3.0, 4.0]])


def test_pixel_shuffle_roundtrip_and_grads(high):
    rng = np.random.default_rng(61)
    x = leaf(rng, (2, 8, 3, 4), name="x")
    shuffled = ops.pixel_shuffle(x.value, 2)
    assert shuffled.shape == (2, 2, 6, 8)
    back = ops.pixel_unshuffle(shuffled, 2)
    np.testing.assert_array_equal(back.data, x.data)
    w = constant(rng.standard_normal((2, 2, 6, 8)))

    def make():
        return ops.sum_(ops.mul(ops.pixel_shuffle(x.value, 2), w))

    assert fd_gradcheck(make, [x]) <= REL_TOL


def test_pixel_shuffle_contract():
    with pytest.raises(ContractError):
        ops.pixel_shuffle(constant(np.zeros((1, 6, 2, 2))), 2)
    with pytest.raises(ContractError):
        ops.pixel_unshuffle(constant(np.zeros((1, 3, 5, 4))), 2)
