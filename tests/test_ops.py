"""Per-operation forward oracles and finite-difference gradient checks."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf as _erf

from demosaick import ops, parallel
from demosaick.errors import ContractError, NonFiniteError
from demosaick.tensor import ParamLeaf, Tape, Tensor, backward, constant

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


def test_a_recorded_gelu_holds_one_array_and_lets_its_input_go():
    arr = np.random.default_rng(3).standard_normal((4, 8, 16)).astype(np.float32)
    gone = weakref.ref(arr)
    x = Tensor(arr, requires_grad=True)
    with Tape() as tape:
        ops.gelu(x)
    held = [c.cell_contents for c in tape.nodes[-1].backward_fn.__closure__ or ()
            if isinstance(c.cell_contents, np.ndarray)]
    assert len(held) == 1  # the derivative Phi(x) + x * pdf(x)
    assert held[0].shape == arr.shape and not np.shares_memory(held[0], arr)
    del x, arr
    assert gone() is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("g_layout", ["contiguous", "as_input"])
def test_gelu_gradient_of_a_transposed_input_keeps_its_layout(dtype, g_layout):
    # the gradient takes the input's layout, whatever g's, so sums over it
    # downstream round as they did when the backward built the derivative
    rng = np.random.default_rng(4)
    x = (rng.standard_normal((6, 5, 7)) * 3.0).astype(dtype).transpose(2, 0, 1)
    g = rng.standard_normal(x.shape).astype(dtype)
    if g_layout == "as_input":
        g = np.ascontiguousarray(g.transpose(1, 2, 0)).transpose(2, 0, 1)
    cdf = np.multiply(x, 1.0 / math.sqrt(2.0))
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    want = np.multiply(x, -0.5)
    want *= x
    np.exp(want, out=want)
    want *= 1.0 / math.sqrt(2.0 * math.pi)
    want *= x
    want += cdf
    want *= g
    assert (g.strides == x.strides) == (g_layout == "as_input")
    _, (grad,) = _run_op_and_backward(ops.gelu, [x], g)
    assert grad.strides == want.strides == x.strides
    _assert_bitwise(grad, want)


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
@pytest.mark.parametrize("kernel", ["gelu", "gelu_grad_view", "softmax_last", "softmax_axis1",
                                    "layer_norm", "layer_norm_tokens",
                                    "layer_norm_tokens_grad_view", "layer_norm_reversed"])
def test_inplace_kernels_match_former_expressions(kernel, dtype):
    rng = np.random.default_rng(17)
    x = (rng.standard_normal((2, 6, 5, 7)) * 4.0).astype(dtype)
    if kernel.startswith("layer_norm_tokens"):
        # the attention MLP normalizes a permuted, non-contiguous view
        x = x.reshape(2, 35, 6).transpose(0, 2, 1)
    if kernel == "layer_norm_reversed":
        # 12 channels innermost under positions that do not merge into one axis
        x = x.reshape(7, 5, 12, 1).T
    g = rng.standard_normal(x.shape).astype(dtype)
    if kernel.endswith("grad_view"):
        # a permute's backward hands on a transposed view of its gradient
        g = np.ascontiguousarray(g.swapaxes(1, 2)).swapaxes(1, 2)
    inputs = [x]
    if kernel.startswith("gelu"):
        op, want = ops.gelu, _gelu_reference(x, g)
    elif kernel.startswith("softmax"):
        axis = -1 if kernel == "softmax_last" else 1
        op, want = (lambda a: ops.softmax(a, axis=axis)), _softmax_reference(x, g, axis)
    else:
        gamma = (1.0 + 0.1 * rng.standard_normal(x.shape[1])).astype(dtype)
        beta = (0.1 * rng.standard_normal(x.shape[1])).astype(dtype)
        inputs += [gamma, beta]
        op, want = ops.layer_norm, _layer_norm_reference(x, gamma, beta, g)
    before = [a.copy() for a in inputs]
    g_before = g.copy()
    out, grads = _run_op_and_backward(op, inputs, g)
    _assert_bitwise(out, want[0])
    assert len(grads) == len(want[1])
    for got, ref in zip(grads, want[1]):
        _assert_bitwise(got, ref)
        assert not any(np.shares_memory(got, a) for a in inputs + [g])
    for a, b in zip(inputs + [g], before + [g_before]):
        assert a.tobytes() == b.tobytes()


def _softmax_former(x, axis):
    """The softmax forward before the row max folded halves: one ``max`` call."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True))
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("extent", [6, 9, 16, 64])
@pytest.mark.parametrize("axis", [-1, 1])
def test_softmax_row_max_by_halving_matches_one_max(dtype, extent, axis):
    rng = np.random.default_rng(extent)
    shape = [3, 5, 4]
    shape[axis] = extent
    x = (rng.standard_normal(shape) * 6.0).astype(dtype)
    rows = np.moveaxis(x, axis, -1)  # a view: row edits land in x
    rows[0, 0] = 0.0
    rows[0, 0, ::3] = -0.0           # a row of signed zeros only
    rows[1, 1] = -np.abs(rows[1, 1])
    rows[1, 1, 1::2] = 0.0           # maximum +0 among negatives
    rows[1, 1, ::4] = -0.0           # and -0 beside it
    rows[2, 2, -1] = rows[2, 2].max() + 1.0  # maximum in the last, odd place
    for arr in (x, np.asfortranarray(x)):  # contiguous rows and the general path
        got = ops.softmax(constant(arr, dtype=dtype), axis=axis).data
        assert got.tobytes() == _softmax_former(arr, axis).tobytes()
    rows[2, 3, extent // 2] = np.nan
    for arr in (x, np.asfortranarray(x)):
        with pytest.raises(NonFiniteError, match="softmax"):
            ops.softmax(constant(arr, dtype=dtype), axis=axis)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("extent", [6, 9, 16, 64])
@pytest.mark.parametrize("axis", [2, 1])
def test_softmax_in_place_matches_the_new_array_one(dtype, extent, axis):
    shape = [3, 5, 4]
    shape[axis] = extent
    x = (np.random.default_rng(extent).standard_normal(shape) * 6.0).astype(dtype)
    for arr in (x, np.asfortranarray(x)):
        want = ops._softmax(arr, axis)
        buf = arr.copy(order="K")
        got = ops._softmax(buf, axis, inplace=True)
        assert got is buf
        assert got.tobytes() == want.tobytes()


def test_softmax_in_place_needs_half_its_input_as_scratch():
    x = np.random.default_rng(2).standard_normal((16, 256, 64)).astype(np.float32)  # 1 MiB
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ops._softmax(x, 2, inplace=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * x.nbytes, f"{peak / x.nbytes:.2f} of the input"


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


def test_layer_norm_holds_one_output_and_two_statistics():
    x = np.random.default_rng(0).standard_normal((1, 64, 256, 256)).astype(np.float32)
    bound = x.nbytes + (2 << 20)  # the output and 1/64 of it per statistic
    gamma = ParamLeaf("gamma", np.ones(64), np.float32)
    beta = ParamLeaf("beta", np.zeros(64), np.float32)
    xt = ParamLeaf("x", x, np.float32).value
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ops.layer_norm(constant(x), constant(gamma.data), constant(beta.data))
        assert tracemalloc.get_traced_memory()[1] - base <= bound
        del out
        with Tape():
            out = ops.layer_norm(xt, gamma.value, beta.value)
            assert tracemalloc.get_traced_memory()[0] - base <= bound
    finally:
        tracemalloc.stop()


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


def _former_reduction_backward(op, a, g, axis, keepdims):
    """The per-op reduction backward bodies before they shared ``_spread``."""
    if op == "global_avg_pool":
        return np.broadcast_to(g / a.dtype.type(a.shape[2] * a.shape[3]), a.shape).copy()
    if op == "mean":
        if axis is None:
            return np.broadcast_to(g / a.dtype.type(a.size), a.shape).copy()
        count = 1
        for ax in ((axis,) if isinstance(axis, int) else tuple(axis)):
            count *= a.shape[ax]
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg / a.dtype.type(count), a.shape).copy()
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, a.shape).copy()


_REDUCTIONS = [(op, axis, keepdims) for op in ("sum", "mean")
               for axis in (None, 1, -1, (0, 2)) for keepdims in (False, True)]
_REDUCTIONS.append(("global_avg_pool", (2, 3), True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op,axis,keepdims", _REDUCTIONS)
def test_reduction_backward_matches_former_expressions(op, axis, keepdims, dtype):
    rng = np.random.default_rng(23)
    a = rng.standard_normal((2, 3, 5, 4)).astype(dtype)
    reduce = {"sum": ops.sum_, "mean": ops.mean_}.get(op)

    def fn(t):
        return ops.global_avg_pool(t) if reduce is None else reduce(t, axis=axis, keepdims=keepdims)

    g = rng.standard_normal(fn(constant(a)).shape).astype(dtype)
    _, (got,) = _run_op_and_backward(fn, [a], g)
    _assert_bitwise(got, _former_reduction_backward(op, a, g, axis, keepdims))


def _former_slice_backward(a, g, idx):
    full = np.zeros_like(a)
    full[idx] = g
    return full


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slice_and_concat_backward_match_former_expressions(dtype):
    rng = np.random.default_rng(29)
    a = rng.standard_normal((2, 7, 6, 5)).astype(dtype)
    crop = (Ellipsis, slice(1, 4), slice(2, 5))
    g = rng.standard_normal((2, 7, 3, 3)).astype(dtype)
    _, (got,) = _run_op_and_backward(lambda t: ops.crop2d(t, 1, 2, 3, 3), [a], g)
    _assert_bitwise(got, _former_slice_backward(a, g, crop))

    for axis in (1, -2):
        sizes, offset = (2, 4, 1) if axis == 1 else (1, 4, 1), 0
        with Tape() as tape:
            ops.split(ParamLeaf("a", a, dtype=dtype).value, sizes, axis=axis)
        assert len(tape.nodes) == len(sizes)
        for node, size in zip(tape.nodes, sizes):
            idx = [slice(None)] * 4
            idx[axis] = slice(offset, offset + size)
            offset += size
            gk = rng.standard_normal(a[tuple(idx)].shape).astype(dtype)
            _assert_bitwise(node.backward_fn(gk)[0], _former_slice_backward(a, gk, tuple(idx)))

        parts = np.split(a, np.cumsum(sizes)[:-1], axis=axis)
        _, got = _run_op_and_backward(lambda *ts: ops.concat(ts, axis=axis), parts, a)
        bounds = np.cumsum([0] + [p.shape[axis] for p in parts])
        assert len(got) == len(parts)
        for piece, lo, hi in zip(got, bounds[:-1], bounds[1:]):
            idx = [slice(None)] * a.ndim
            idx[axis] = slice(int(lo), int(hi))
            _assert_bitwise(piece, a[tuple(idx)])
    _, (got,) = _run_op_and_backward(lambda t: ops.concat([t], axis=0), [a], a)
    _assert_bitwise(got, a)


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


def _former_conv2d_backward(x, w, g, stride, padding, groups):
    """(gx, gw) as conv2d's backward computed them before it skipped unneeded gradients.

    Both routes and the route choice are copied from that backward: batched GEMMs
    over (groups, cog, N*ho*wo) gradient rows, the input gradient scattered tap by tap.
    """
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    ho, wo = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    cog = cout // groups
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    xv = xp.reshape(n, groups, cg, xp.shape[2], xp.shape[3])
    wv = w.reshape(groups, cog, cg, kh, kw)
    use_gemm = (kh == 1 and kw == 1) or (
        groups <= 4 and cg * kh * kw * n * ho * wo <= (1 << 27))
    gv = g.reshape(n, groups, cog, ho, wo)
    gvr = np.ascontiguousarray(gv.transpose(1, 2, 0, 3, 4)).reshape(groups, cog, -1)
    gx_pad = np.zeros_like(xp).reshape(n, groups, cg, xp.shape[2], xp.shape[3])
    if use_gemm:
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        win = win[:, :, ::sh, ::sw][:, :, :ho, :wo]
        col = np.ascontiguousarray(
            win.reshape(n, groups, cg, ho, wo, kh, kw).transpose(1, 2, 5, 6, 0, 3, 4)
        ).reshape(groups, cg * kh * kw, n * ho * wo)
        wk = wv.reshape(groups, cog, cg * kh * kw)
        gw = np.matmul(gvr, col.swapaxes(1, 2)).reshape(w.shape)
        gcol = np.matmul(wk.swapaxes(1, 2), gvr).reshape(groups, cg, kh, kw, n, ho, wo)
        for i in range(kh):
            for j in range(kw):
                gx_pad[:, :, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += (
                    gcol[:, :, i, j].transpose(2, 0, 1, 3, 4))
    else:
        gwv = np.zeros_like(wv)
        for i in range(kh):
            for j in range(kw):
                s = xv[:, :, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
                sr = np.ascontiguousarray(s.transpose(1, 2, 0, 3, 4)).reshape(groups, cg, -1)
                gwv[:, :, :, i, j] = np.matmul(gvr, sr.swapaxes(1, 2))
                gs = np.matmul(wv[:, :, :, i, j].swapaxes(1, 2), gvr)
                gx_pad[:, :, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += (
                    gs.reshape(groups, cg, n, ho, wo).transpose(2, 0, 1, 3, 4))
        gw = gwv.reshape(w.shape)
    gx = gx_pad.reshape(xp.shape)[:, :, ph:ph + h, pw:pw + wd]
    return gx, gw


_GAUSS49 = np.exp(-0.5 * (np.arange(-24, 25) / 8.0) ** 2)

# (x shape, weight shape, stride, padding, groups, weight or None for random)
_CONV_BACKWARD_CASES = {
    "loss_window_row": ((2, 3, 9, 11), (3, 1, 1, 49), 1, (0, 24), 3, _GAUSS49.reshape(1, 49)),
    "loss_window_col": ((2, 3, 11, 9), (3, 1, 49, 1), 1, (24, 0), 3, _GAUSS49.reshape(49, 1)),
    "pool_2x2_stride2": ((2, 3, 10, 12), (3, 1, 2, 2), 2, 0, 3, np.full((2, 2), 0.25)),
    "depthwise_3x3": ((2, 8, 9, 10), (8, 1, 3, 3), 1, 1, 8, None),
    "depthwise_3x3_stride2": ((2, 8, 9, 10), (8, 1, 3, 3), 2, 1, 8, None),
    "depthwise_5x5": ((2, 8, 9, 10), (8, 1, 5, 5), 1, 2, 8, None),
    "depthwise_5x5_stride2": ((2, 8, 9, 10), (8, 1, 5, 5), 2, 2, 8, None),
    "multiplier_2": ((2, 6, 8, 9), (12, 1, 3, 3), 1, 1, 6, None),
    "offset_conv": ((2, 4, 8, 8), (72, 1, 3, 3), 1, 1, 4, None),
    "dense_3x3": ((2, 5, 7, 8), (6, 5, 3, 3), 1, 1, 1, None),
    "pointwise": ((2, 6, 7, 8), (12, 3, 1, 1), 1, 0, 2, None),
    "pointwise_stride2": ((2, 8, 7, 9), (12, 2, 1, 1), 2, 0, 4, None),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_CONV_BACKWARD_CASES))
def test_conv2d_backward_matches_former_implementation(case, dtype):
    # The input gradient of a depthwise-shaped conv (one channel in and out per
    # group) is now a broadcast multiply-add per tap; the GEMMs it replaces
    # have K = 1 and are exact, so it matches bit for bit. Every other
    # gradient runs the same GEMMs in the same order as before, so the bound
    # is zero for all of them.
    xshape, wshape, stride, padding, groups, kernel = _CONV_BACKWARD_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    x = rng.standard_normal(xshape).astype(dtype)
    if kernel is None:
        w = rng.standard_normal(wshape)
    else:
        w = np.broadcast_to(kernel / kernel.sum(), wshape)
    w = np.ascontiguousarray(w, dtype=dtype)

    def conv(a, b):
        return ops.conv2d(a, b, None, stride, padding, groups)

    g = rng.standard_normal(conv(constant(x), constant(w)).shape).astype(dtype)
    _, (gx, gw) = _run_op_and_backward(conv, [x, w], g)
    want_gx, want_gw = _former_conv2d_backward(x, w, g, ops._as_pair(stride, "stride"),
                                               ops._as_pair(padding, "padding"), groups)
    _assert_bitwise(gx, want_gx)
    _assert_bitwise(gw, want_gw)


def _closure_shapes(fn):
    return {c.cell_contents.shape for c in fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)}


@pytest.mark.parametrize("case", ["loss_window_row", "pool_2x2_stride2", "depthwise_3x3",
                                  "offset_conv", "dense_3x3"])
def test_conv2d_skips_gradients_of_constants(high, case):
    xshape, wshape, stride, padding, groups, kernel = _CONV_BACKWARD_CASES[case]
    rng = np.random.default_rng(3)
    xv = rng.standard_normal(xshape)
    wv = np.ascontiguousarray(rng.standard_normal(wshape) if kernel is None
                              else np.broadcast_to(kernel, wshape))

    def conv(a, b):
        return ops.conv2d(a, b, None, stride, padding, groups)

    g = rng.standard_normal(conv(constant(xv), constant(wv)).shape)
    col_shape = (groups, wv[0].size, g.shape[0] * g.shape[2] * g.shape[3])
    x_leaf, w_leaf = ParamLeaf("x", xv), ParamLeaf("w", wv)
    with Tape() as tape:
        conv(x_leaf.value, w_leaf.value)
    both = tape.nodes[-1].backward_fn
    gx, gw = both(g)
    # a constant weight (the loss windows) gets no gradient, and the closure
    # keeps no im2col matrix for one
    with Tape() as tape:
        conv(x_leaf.value, constant(wv))
    x_only = tape.nodes[-1].backward_fn
    gx_only, gw_none = x_only(g)
    assert gw_none is None
    _assert_bitwise(gx_only, gx)
    # a constant input (the offset conv on the packed mosaic) gets no gradient
    with Tape() as tape:
        conv(constant(xv), w_leaf.value)
    w_only = tape.nodes[-1].backward_fn
    gx_none, gw_only = w_only(g)
    assert gx_none is None
    _assert_bitwise(gw_only, gw)
    # and a taped loss leaves the same gradients in the leaves
    for lf, make, want in ((x_leaf, lambda: conv(x_leaf.value, constant(wv)), gx),
                           (w_leaf, lambda: conv(constant(xv), w_leaf.value), gw)):
        lf.zero_grad()
        with Tape() as tape:
            backward(ops.sum_(ops.mul(make(), constant(g))), tape)
        _assert_bitwise(lf.grad, want)
    # no closure keeps an im2col matrix or a padded copy of the input: the
    # backward rebuilds what it reads from x
    ph, pw = ops._as_pair(padding, "padding")
    padded = xshape[:2] + (xshape[2] + 2 * ph, xshape[3] + 2 * pw)
    for fn in (both, x_only, w_only):
        assert not {"xp", "col"} & set(fn.__code__.co_freevars)
        assert not {col_shape, padded} & _closure_shapes(fn)


def test_recorded_conv2d_keeps_only_its_inputs():
    rng = np.random.default_rng(13)
    x = ParamLeaf("x", rng.standard_normal((4, 64, 64, 64)), dtype=np.float32)
    w = ParamLeaf("w", rng.standard_normal((64, 64, 3, 3)) * 0.05, dtype=np.float32)
    tracemalloc.start()
    try:
        with Tape():
            base = tracemalloc.get_traced_memory()[0]
            out = ops.conv2d(x.value, w.value, None, 1, 1)
            held = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
    finally:
        tracemalloc.stop()
    # the im2col matrix alone is 36 MiB, the padded input 4.3 MiB
    assert held < 1 << 20, f"{held / 2 ** 20:.1f} MiB"


def _one_gemm_conv2d(x, w, b, stride, padding, groups):
    """conv2d's GEMM-route forward as it was before row blocks: one im2col matrix, one GEMM."""
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    ho, wo = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    cog = cout // groups
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::sh, ::sw][:, :, :ho, :wo]
    col = np.ascontiguousarray(
        win.reshape(n, groups, cg, ho, wo, kh, kw).transpose(1, 2, 5, 6, 0, 3, 4)
    ).reshape(groups, cg * kh * kw, n * ho * wo)
    wk = w.reshape(groups, cog, cg * kh * kw)
    out = np.matmul(wk, col).reshape(groups, cog, n, ho, wo).transpose(2, 0, 1, 3, 4)
    return np.ascontiguousarray(out).reshape(n, cout, ho, wo) + b.reshape(1, cout, 1, 1)


# (x shape, weight shape, stride, padding, groups): convs whose im2col matrix
# exceeds the block budget, so a tape-free forward builds it in row blocks
_BLOCKED_CONV_CASES = {
    "dense_64_to_64": ((1, 64, 128, 128), (64, 64, 3, 3), 1, 1, 1),
    "dense_64_to_12": ((1, 64, 128, 128), (12, 64, 3, 3), 1, 1, 1),
    "offset_conv_4_groups": ((1, 4, 256, 256), (72, 1, 3, 3), 1, 1, 4),
    "down_2x2_stride2": ((1, 64, 256, 256), (128, 64, 2, 2), 2, 0, 1),
    # float32 budget-sized blocks would be 28 rows and 1 row; with 8 MiB they are 14 and 15
    "rows_29": ((1, 64, 29, 128), (12, 64, 3, 3), 1, 1, 1),
    # a width that is no multiple of 8, and a batch
    "width_77_batch_2": ((2, 32, 60, 77), (48, 32, 5, 5), 1, 2, 1),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_BLOCKED_CONV_CASES))
def test_tape_free_conv2d_matches_one_gemm_forward(case, dtype):
    xshape, wshape, stride, padding, groups = _BLOCKED_CONV_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    x = rng.standard_normal(xshape).astype(dtype)
    w = (rng.standard_normal(wshape) * 0.1).astype(dtype)
    b = rng.standard_normal(wshape[0]).astype(dtype)
    want = _one_gemm_conv2d(x, w, b, (stride, stride), (padding, padding), groups)
    col_bytes = wshape[1] * wshape[2] * wshape[3] * groups * xshape[0] * want[0, 0].size * x.itemsize
    assert col_bytes > ops._IM2COL_BYTES
    got = ops.conv2d(constant(x, dtype=dtype), constant(w, dtype=dtype), constant(b, dtype=dtype),
                     stride, padding, groups)
    _assert_bitwise(got.data, want)
    # under a tape the forward takes the same row blocks, and the backward
    # rebuilds the whole matrix for the one weight-gradient GEMM
    wl = ParamLeaf("w", w, dtype=dtype)
    with Tape() as tape:
        taped = ops.conv2d(constant(x, dtype=dtype), wl.value, constant(b, dtype=dtype),
                           stride, padding, groups)
    _assert_bitwise(taped.data, want)
    g = rng.standard_normal(want.shape).astype(dtype)
    _, gw, _ = tape.nodes[-1].backward_fn(g)
    _assert_bitwise(gw, _former_conv2d_backward(x, w, g, (stride, stride), (padding, padding),
                                                groups)[1])


def test_tape_free_conv2d_holds_one_row_block():
    rng = np.random.default_rng(12)
    x = constant(rng.standard_normal((1, 64, 128, 128)), dtype=np.float32)
    w = constant(rng.standard_normal((64, 64, 3, 3)) * 0.05, dtype=np.float32)
    b = constant(np.zeros(64), dtype=np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ops.conv2d(x, w, b, 1, 1)
        beyond = tracemalloc.get_traced_memory()[1] - base - out.data.nbytes
    finally:
        tracemalloc.stop()
    padded = 64 * 130 * 130 * 4
    # the whole 36 MiB matrix traced 44 MiB beyond the result
    assert beyond <= ops._IM2COL_BYTES + padded + out.data.nbytes, f"{beyond / 2 ** 20:.1f} MiB"


def _former_tap_loop(x, w, b, stride, padding, groups):
    """The dense tap loop before row blocks: one full-output product per tap."""
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    cog = cout // groups
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xv = xp.reshape(n, groups, cg, xp.shape[2], xp.shape[3])
    wv = w.reshape(groups, cog, cg, kh, kw)
    acc = np.zeros((n, groups, cog, ho, wo), dtype=x.dtype)
    for c in range(cg):
        for i in range(kh):
            for j in range(kw):
                s = xv[:, :, c, i:i + stride * ho:stride, j:j + stride * wo:stride]
                acc += wv[np.newaxis, :, :, c, i, j, np.newaxis, np.newaxis] * s[:, :, np.newaxis]
    out = acc.reshape(n, cout, ho, wo)
    out += b.reshape(1, cout, 1, 1)
    return out


# (x shape, weight shape, stride, padding, groups) of dense convs past the
# im2col cap: several blocks of _TAP_ROWS rows with a short last one, a
# stride, two groups, and a batch; then depthwise convs of up to four
# groups, which also take the loop only past the cap: a 5x5 with stride 2
# and padding 2 and an unpadded 3x3, both on non-square inputs
_TAP_LOOP_CASES = [((1, 6, 37, 41), (5, 6, 3, 3), 1, 1, 1),
                   ((2, 4, 50, 33), (7, 4, 3, 3), 2, 1, 1),
                   ((1, 6, 35, 19), (8, 3, 5, 5), 1, 2, 2),
                   ((1, 3, 37, 29), (3, 1, 5, 5), 2, 2, 3),
                   ((2, 4, 23, 40), (4, 1, 3, 3), 1, 0, 4)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", _TAP_LOOP_CASES)
@pytest.mark.parametrize("run_bytes", [1, 1 << 30])
def test_dense_tap_loop_matches_the_former_loop(monkeypatch, dtype, case, run_bytes):
    # a cap of one element sends these small dense convs down the tap loop;
    # run_bytes 1 sums every block of rows alone, 1 GiB a piece's rows at once
    xshape, wshape, stride, padding, groups = case
    rng = np.random.default_rng(len(xshape) + wshape[0])
    x = rng.standard_normal(xshape).astype(dtype)
    w = rng.standard_normal(wshape).astype(dtype)
    b = rng.standard_normal(wshape[0]).astype(dtype)
    want = _former_tap_loop(x, w, b, stride, padding, groups)
    monkeypatch.setattr(ops, "_IM2COL_CAP", 1)
    monkeypatch.setattr(ops, "_TAP_BYTES", run_bytes)
    for ways in (1, 2, 3):
        with parallel.fixed_ways(ways):
            got = ops.conv2d(constant(x, dtype=dtype), constant(w, dtype=dtype),
                             constant(b, dtype=dtype), stride, padding, groups)
        _assert_bitwise(got.data, want)
    monkeypatch.setattr(ops, "_IM2COL_CAP", 1 << 27)
    gemm = ops.conv2d(constant(x, dtype=dtype), constant(w, dtype=dtype),
                      constant(b, dtype=dtype), stride, padding, groups)
    assert gemm.data.tobytes() != want.tobytes()  # the cap chose the loop


# (x shape, weight shape, stride, padding, groups) of convs of more than four
# groups, which always take the tap loop: depthwise 5x5 and 3x3 convs, one
# strided and batched, one unpadded, and a grouped conv of two channels a group
_GROUPED_TAP_CASES = [((1, 24, 19, 33), (24, 1, 5, 5), 1, 2, 24),
                      ((2, 12, 30, 17), (12, 1, 3, 3), 2, 1, 12),
                      ((1, 10, 16, 9), (10, 1, 3, 3), 1, 0, 10),
                      ((1, 12, 21, 14), (18, 2, 3, 3), 1, 1, 6)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", _GROUPED_TAP_CASES)
@pytest.mark.parametrize("run_bytes", [1, 1 << 15, 1 << 30])
def test_grouped_tap_loop_blocks_match_the_former_loop(monkeypatch, dtype, case, run_bytes):
    # run_bytes 1 pads one group a block and sums runs of _TAP_ROWS rows,
    # each padding its rows and their halo; 32 KiB pads a few groups a
    # block; 1 GiB all of a piece's groups at once
    xshape, wshape, stride, padding, groups = case
    rng = np.random.default_rng(xshape[1] + wshape[2])
    x = rng.standard_normal(xshape).astype(dtype)
    w = rng.standard_normal(wshape).astype(dtype)
    b = rng.standard_normal(wshape[0]).astype(dtype)
    want = _former_tap_loop(x, w, b, stride, padding, groups)
    monkeypatch.setattr(ops, "_TAP_BYTES", run_bytes)
    for ways in (1, 2, 3):
        with parallel.fixed_ways(ways):
            got = ops.conv2d(constant(x, dtype=dtype), constant(w, dtype=dtype),
                             constant(b, dtype=dtype), stride, padding, groups)
        _assert_bitwise(got.data, want)


def test_tap_loop_pads_a_block_of_groups_at_a_time():
    rng = np.random.default_rng(14)
    x = constant(rng.standard_normal((1, 64, 128, 128)), dtype=np.float32)
    w = constant(rng.standard_normal((64, 1, 5, 5)), dtype=np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with parallel.fixed_ways(1):
            out = ops.conv2d(x, w, None, 1, 2, 64)
        beyond = tracemalloc.get_traced_memory()[1] - base - out.data.nbytes
    finally:
        tracemalloc.stop()
    # a padded copy of the whole input (4.25 MiB) made it 6.3 MiB
    assert beyond <= 1.5 * ops._TAP_BYTES + (64 << 10), f"{beyond / 2 ** 20:.2f} MiB"


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
    # <conv2d(x, w, stride=2), y> == <x, conv_transpose2d(y, w)> with the same weight
    rng = np.random.default_rng(41)
    x = rng.standard_normal((2, 5, 8, 8))
    w = rng.standard_normal((3, 5, 2, 2))
    y = rng.standard_normal((2, 3, 4, 4))
    fwd = ops.conv2d(constant(x), constant(w), stride=2).data
    back = ops.conv_transpose2d(constant(y), constant(w)).data
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
        y = ops.conv_transpose2d(x.value, w.value, b.value)
        return ops.sum_(ops.mul(y, y))

    assert fd_gradcheck(make, [x, w, b], seed=seed) <= REL_TOL
    out = ops.conv_transpose2d(x.value, w.value, b.value)
    assert out.shape == (2, 3, 6, 6)


def test_conv_transpose_matches_upsample_oracle(high):
    # stride-2 kernel-2 transpose writes each input pixel into a 2x2 block
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 2, 3, 3))
    w = rng.standard_normal((2, 4, 2, 2))
    out = ops.conv_transpose2d(constant(x), constant(w)).data
    ref = np.zeros((1, 4, 6, 6))
    for yy in range(3):
        for xx in range(3):
            for ci in range(2):
                ref[0, :, 2 * yy:2 * yy + 2, 2 * xx:2 * xx + 2] += x[0, ci, yy, xx] * w[ci]
    np.testing.assert_allclose(out, ref, atol=1e-12)


def _conv_transpose_former(x, w, b, g):
    """conv_transpose2d as it was with its own kernels (stride = kernel size, no
    padding): one GEMM per tap scattered into the output, and its backward."""
    n, cx, h, wd = x.shape
    _, cy, k, _ = w.shape
    xf = x.reshape(n, cx, h * wd)
    full = np.zeros((n, cy, k * h, k * wd), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            full[:, :, i::k, j::k] += np.matmul(w[:, :, i, j].T, xf).reshape(n, cy, h, wd)
    out = full + b.reshape(1, cy, 1, 1)
    gx = np.zeros_like(xf)
    gw = np.zeros_like(w)
    for i in range(k):
        for j in range(k):
            gsf = np.ascontiguousarray(g[:, :, i::k, j::k]).reshape(n, cy, h * wd)
            gx += np.matmul(w[:, :, i, j], gsf)
            gw[:, :, i, j] = np.matmul(xf, gsf.swapaxes(1, 2)).sum(axis=0)
    return out, (gx.reshape(x.shape), gw, g.sum(axis=(0, 2, 3)))


# (input shape, output channels): every up-sampler of both presets, the
# default one at 128, 256 and 384 mosaics, the tiny one in a train step of
# batch 4 and 16 at 64x64 and in a 256x256 prediction
_UPSAMPLER_CASES = {
    "default_up0_16": ((1, 256, 16, 16), 192), "default_up0_32": ((1, 256, 32, 32), 192),
    "default_up0_48": ((1, 256, 48, 48), 192), "default_up1_32": ((1, 192, 32, 32), 64),
    "default_up1_64": ((1, 192, 64, 64), 64), "default_up1_96": ((1, 192, 96, 96), 64),
    "tiny_up0_batch4": ((4, 64, 8, 8), 32), "tiny_up0_batch16": ((16, 64, 8, 8), 32),
    "tiny_up0_predict": ((1, 64, 32, 32), 32), "tiny_up1_batch4": ((4, 32, 16, 16), 16),
    "tiny_up1_batch16": ((16, 32, 16, 16), 16), "tiny_up1_predict": ((1, 32, 64, 64), 16),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_UPSAMPLER_CASES))
def test_conv_transpose_matches_former_implementation(case, dtype):
    # The forward runs the former per-tap GEMMs as one 1x1 conv2d GEMM and
    # matches bit for bit, BLAS pinned or not. The backward sums in another
    # order (the conv2d and pixel_shuffle backwards), so its gradients agree
    # to within rounding, relative to their largest magnitude.
    xshape, cout = _UPSAMPLER_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    x = rng.standard_normal(xshape).astype(dtype)
    w = (rng.standard_normal((xshape[1], cout, 2, 2)) * 0.1).astype(dtype)
    b = (rng.standard_normal(cout) * 0.1).astype(dtype)
    g = rng.standard_normal((xshape[0], cout, 2 * xshape[2], 2 * xshape[3])).astype(dtype)
    want, want_grads = _conv_transpose_former(x, w, b, g)
    args = [constant(a, dtype=dtype) for a in (x, w, b)]
    _assert_bitwise(ops.conv_transpose2d(*args).data, want)
    with parallel.blas_budget():
        _assert_bitwise(ops.conv_transpose2d(*args).data, want)
    leaves = [ParamLeaf(name, a, dtype=dtype) for name, a in zip("xwb", (x, w, b))]
    with Tape() as tape:
        out = ops.conv_transpose2d(*(lf.value for lf in leaves))
        backward(ops.sum_(ops.mul(out, constant(g, dtype=dtype))), tape)
    _assert_bitwise(out.data, want)
    tol = 2e-6 if dtype == np.float32 else 5e-15
    for lf, ref in zip(leaves, want_grads):
        assert lf.grad.dtype == ref.dtype and lf.grad.shape == ref.shape
        assert np.abs(lf.grad - ref).max() <= tol * np.abs(ref).max(), lf.name


def test_conv_transpose_needs_a_square_kernel():
    with pytest.raises(ContractError, match="not square"):
        ops.conv_transpose2d(constant(np.zeros((1, 2, 3, 3))), constant(np.zeros((2, 3, 2, 3))))


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


def _bilinear_former(x, coords):
    """The bilinear forward before its corners became flat takes: (n, c, index) gathers."""
    n, c, h, w = x.shape
    cy = np.clip(coords[:, :, 0], 0.0, h - 1.0)
    cx = np.clip(coords[:, :, 1], 0.0, w - 1.0)
    y0 = np.floor(cy).astype(np.int64)
    x0 = np.floor(cx).astype(np.int64)
    wy = (cy - y0).astype(x.dtype)[:, None, :]
    wx = (cx - x0).astype(x.dtype)[:, None, :]
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    flat = x.reshape(n, c, h * w)
    nn = np.arange(n)[:, None, None]
    cc = np.arange(c)[None, :, None]

    def gather(yy, xx):
        return flat[nn, cc, (yy * w + xx)[:, None, :]]

    return ((1 - wy) * (1 - wx) * gather(y0, x0) + (1 - wy) * wx * gather(y0, x1)
            + wy * (1 - wx) * gather(y1, x0) + wy * wx * gather(y1, x1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilinear_sample_flat_gather_matches_former(dtype):
    rng = np.random.default_rng(53)
    x = rng.standard_normal((3, 2, 5, 7)).astype(dtype)
    pts = rng.uniform(-1.5, 7.5, size=(3, 40, 2))
    # exact edges and corners, and points clamped onto them from outside
    pts[:, :6] = [[0.0, 0.0], [4.0, 6.0], [4.0, 0.0], [0.0, 6.0], [-3.0, 9.0], [8.0, -2.0]]
    pts = pts.astype(dtype)
    for arr in (x, np.asfortranarray(x)):  # the flat view copies a non-contiguous input
        got = ops.bilinear_sample(constant(arr, dtype=dtype), constant(pts, dtype=dtype)).data
        want = _bilinear_former(x, pts)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the model's shape: four groups of one channel, 9 taps per pixel
    x = rng.random((4, 1, 16, 16)).astype(dtype)
    pts = (rng.uniform(-1.0, 16.0, size=(4, 9 * 256, 2))).astype(dtype)
    got = ops.bilinear_sample(constant(x, dtype=dtype), constant(pts, dtype=dtype)).data
    assert got.tobytes() == _bilinear_former(x, pts).tobytes()


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


def _former_pixel_shuffle(x, r):
    n, c2, h, w = x.shape
    c = c2 // (r * r)
    return x.reshape(n, c, r, r, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(n, c, h * r, w * r)


def _former_pixel_unshuffle(x, r):
    n, c, hr, wr = x.shape
    h, w = hr // r, wr // r
    return x.reshape(n, c, h, r, w, r).transpose(0, 1, 3, 5, 2, 4).reshape(n, c * r * r, h, w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("r", [2, 3])
def test_pixel_shuffle_matches_former_expressions(r, dtype):
    # each direction's backward is the other's forward
    rng = np.random.default_rng(31 + r)
    x = rng.standard_normal((2, 2 * r * r, 3, 4)).astype(dtype)
    g = rng.standard_normal((2, 2, 3 * r, 4 * r)).astype(dtype)
    out, (gx,) = _run_op_and_backward(lambda t: ops.pixel_shuffle(t, r), [x], g)
    _assert_bitwise(out, _former_pixel_shuffle(x, r))
    _assert_bitwise(gx, _former_pixel_unshuffle(g, r))
    out, (gg,) = _run_op_and_backward(lambda t: ops.pixel_unshuffle(t, r), [g], x)
    _assert_bitwise(out, _former_pixel_unshuffle(g, r))
    _assert_bitwise(gg, _former_pixel_shuffle(x, r))
    # a gradient arriving as a transposed view
    gv = np.ascontiguousarray(g.swapaxes(2, 3)).swapaxes(2, 3)
    _, (gx,) = _run_op_and_backward(lambda t: ops.pixel_shuffle(t, r), [x], gv)
    _assert_bitwise(gx, _former_pixel_unshuffle(g, r))


def test_pixel_shuffle_contract():
    with pytest.raises(ContractError):
        ops.pixel_shuffle(constant(np.zeros((1, 6, 2, 2))), 2)
    with pytest.raises(ContractError):
        ops.pixel_unshuffle(constant(np.zeros((1, 3, 5, 4))), 2)
