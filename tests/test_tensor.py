"""Tape mechanics: recording, reverse replay, accumulation, precision."""

import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from demosaick import ops, parallel
from demosaick import tensor as tensor_mod
from demosaick.errors import ContractError, NonFiniteError
from demosaick.model import build_model, tiny_config
from demosaick.tensor import (
    REARRANGE_OPS, Tape, Tensor, ParamLeaf, backward, constant, default_dtype, get_precision,
    precision, record, set_precision, zero_grads,
)


def test_tensor_wraps_in_engine_dtype():
    t = Tensor([1.0, 2.0])
    assert t.dtype == np.float32
    assert t.shape == (2,)
    assert t.ndim == 1
    assert t.size == 2
    with precision("high"):
        assert Tensor([1.0]).dtype == np.float64
    assert Tensor([1.0], dtype=np.float64).dtype == np.float64


def test_precision_context_restores_mode():
    assert get_precision() == "standard"
    with precision("high"):
        assert get_precision() == "high"
        assert default_dtype() == np.float64
    assert get_precision() == "standard"
    with pytest.raises(ContractError):
        set_precision("half")


def test_item_requires_scalar():
    assert constant(3.5).item() == pytest.approx(3.5)
    with pytest.raises(ContractError):
        constant([1.0, 2.0]).item()


def test_leaf_requires_name():
    with pytest.raises(ContractError):
        ParamLeaf("", np.zeros(3))


def test_grad_accumulates_for_reused_leaf(high):
    p = ParamLeaf("p", np.array([2.0, 3.0]))
    with Tape() as tape:
        # loss = sum(p * p) + sum(p): dL/dp = 2p + 1
        loss = ops.add(ops.sum_(ops.mul(p.value, p.value)), ops.sum_(p.value))
        backward(loss, tape)
    np.testing.assert_allclose(p.grad, [5.0, 7.0])
    # a second backward on a fresh tape accumulates on top
    with Tape() as tape:
        loss = ops.sum_(p.value)
        backward(loss, tape)
    np.testing.assert_allclose(p.grad, [6.0, 8.0])
    zero_grads([p])
    np.testing.assert_array_equal(p.grad, [0.0, 0.0])


@pytest.mark.xfail(strict=True, reason="backward accumulates in place into a gradient "
                   "that add handed to both inputs; the fix moves the train_tiny probe")
def test_aliased_gradients_accumulate_separately(high):
    x = ParamLeaf("x", np.array([1.0, -2.0]))
    with Tape() as tape:
        a = ops.scale(x.value, 2.0)
        b = ops.scale(x.value, 3.0)
        d = ops.scale(a, 5.0)
        # loss = sum(a + b) + sum(d): dL/dx = 2 + 3 + 10
        loss = ops.add(ops.sum_(ops.add(a, b)), ops.sum_(d))
        backward(loss, tape)
    np.testing.assert_allclose(x.grad, [15.0, 15.0])


def _traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn`` runs, above what is alive before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_leaf_gradient_is_allocated_on_first_read():
    data = np.arange(6.0).reshape(2, 3)
    p = ParamLeaf("p", data)
    assert p._grad is None
    g = p.grad
    assert g.shape == (2, 3) and g.dtype == np.float32 and not g.any()
    assert p.grad is g  # the same array on every read
    g[...] = 1.0
    p.zero_grad()
    assert p.grad is g and not g.any()
    p.grad = np.full((2, 3), 2.0, dtype=np.float32)
    np.testing.assert_array_equal(p.grad, 2.0)


def test_zero_grad_on_an_unread_leaf_allocates_nothing():
    data = np.ones(1 << 18, dtype=np.float32)  # 1 MiB

    def make_and_zero():
        p = ParamLeaf("p", data, dtype=np.float32)  # wraps data without a copy
        zero_grads([p])
        p.zero_grad()
        assert p._grad is None

    assert _traced_peak(make_and_zero) < data.nbytes // 16


def test_disconnected_leaf_keeps_zero_grad(high):
    p = ParamLeaf("p", np.ones(2))
    q = ParamLeaf("q", np.ones(2))
    with Tape() as tape:
        loss = ops.sum_(ops.mul(p.value, p.value))
        backward(loss, tape)
    np.testing.assert_array_equal(q.grad, np.zeros(2))


def test_backward_demands_scalar_recorded_loss(high):
    p = ParamLeaf("p", np.ones(3))
    with Tape() as tape:
        vec = ops.mul(p.value, p.value)
        with pytest.raises(ContractError):
            backward(vec, tape)
    other = constant(1.0)
    with Tape() as tape:
        with pytest.raises(ContractError):
            backward(other, tape)


def test_a_tape_knows_only_what_it_recorded(high):
    p = ParamLeaf("p", np.ones(3))
    with Tape() as first:
        loss = ops.sum_(ops.mul(p.value, p.value))
    with Tape() as second:
        other = ops.sum_(p.value)
    assert first.recorded(loss) and not second.recorded(loss)
    assert second.recorded(other) and not first.recorded(other)
    assert not first.recorded(p.value)
    with pytest.raises(ContractError, match="not recorded"):
        backward(loss, second)


def test_no_tape_means_no_recording():
    p = ParamLeaf("p", np.ones(2))
    out = ops.mul(p.value, p.value)
    assert not out.requires_grad
    with Tape() as tape:
        out = ops.mul(p.value, p.value)
        assert out.requires_grad
        assert len(tape) == 1


def test_constants_are_not_recorded():
    with Tape() as tape:
        c = ops.mul(constant([1.0]), constant([2.0]))
        assert len(tape) == 0
        assert not c.requires_grad


def test_reverse_order_replay_chains_correctly(high):
    # f(p) = (p * 3 + 1)^2 summed; df/dp = 2*(3p + 1)*3
    p = ParamLeaf("p", np.array([0.5, -1.0]))
    with Tape() as tape:
        y = ops.add(ops.scale(p.value, 3.0), constant(np.ones(2)))
        loss = ops.sum_(ops.mul(y, y))
        backward(loss, tape)
    np.testing.assert_allclose(p.grad, 6.0 * (3.0 * p.data + 1.0))


def test_nonfinite_forward_raises():
    bad = constant([1.0, 0.0])
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError):
            ops.div(constant([1.0, 1.0]), bad)
        with pytest.raises(NonFiniteError):
            ops.pow_const(constant([-1.0]), 0.5)


def test_nonfinite_backward_raises(high):
    p = ParamLeaf("p", np.array([0.0]))
    with np.errstate(all="ignore"), Tape() as tape:
        # sqrt has an infinite derivative at zero; forward is finite (0.0)
        loss = ops.sum_(ops.pow_const(p.value, 0.5))
        with pytest.raises(NonFiniteError):
            backward(loss, tape)


_BIG = 3.0e38  # finite in float32; twice it is not


def _c(values):
    return constant(np.asarray(values, dtype=np.float32))


# Each op that does arithmetic, fed finite float32 inputs whose result
# overflows. Elementwise maps that stay bounded (neg, abs, clamp_min, sigmoid,
# gelu, softmax) cannot overflow and so have no case.
_OVERFLOW_CASES = {
    "add": lambda: ops.add(_c([_BIG]), _c([_BIG])),
    "sub": lambda: ops.sub(_c([_BIG]), _c([-_BIG])),
    "mul": lambda: ops.mul(_c([_BIG]), _c([_BIG])),
    "div": lambda: ops.div(_c([_BIG]), _c([1e-10])),
    "scale": lambda: ops.scale(_c([_BIG]), 10.0),
    "pow_const": lambda: ops.pow_const(_c([_BIG]), 2.0),
    "sum": lambda: ops.sum_(_c([_BIG, _BIG])),
    "mean": lambda: ops.mean_(_c([_BIG, _BIG])),
    "global_avg_pool": lambda: ops.global_avg_pool(_c([[[[_BIG, _BIG]]]])),
    "layer_norm": lambda: ops.layer_norm(_c([[1.0, -1.0]]), _c([_BIG, _BIG]),
                                         _c([_BIG, _BIG])),
    "matmul": lambda: ops.matmul(_c([[_BIG, _BIG]]), _c([[1.0], [1.0]])),
    "conv2d": lambda: ops.conv2d(_c(np.ones((1, 2, 1, 1))), _c(np.full((1, 2, 1, 1), _BIG))),
    "conv_transpose2d": lambda: ops.conv_transpose2d(
        _c(np.ones((1, 2, 1, 1))), _c(np.full((2, 1, 1, 1), _BIG))),
}


# conv_transpose2d is a conv2d followed by rearrangements, so conv2d raises
_RAISED_BY = {"conv_transpose2d": "conv2d"}


@pytest.mark.parametrize("op", sorted(_OVERFLOW_CASES))
def test_nonfinite_from_finite_inputs_raises(op):
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=repr(_RAISED_BY.get(op, op))):
        _OVERFLOW_CASES[op]()


def test_bilinear_sample_nonfinite_coord_grad_raises():
    # interpolation cannot leave [min, max], but the slope between two
    # opposite extremes overflows, and the coords gradient is still checked
    x = constant(np.array([[[[-_BIG], [_BIG]]]], dtype=np.float32))
    coords = ParamLeaf("c", np.array([[[0.5, 0.0]]], dtype=np.float32)).value
    with np.errstate(all="ignore"), Tape() as tape:
        loss = ops.sum_(ops.bilinear_sample(x, coords))
        with pytest.raises(NonFiniteError, match="bilinear_sample.backward"):
            backward(loss, tape)


def test_rearrangement_ops_skip_the_finiteness_scan(monkeypatch):
    seen = []
    monkeypatch.setattr(tensor_mod, "check_finite", lambda op, arr: seen.append(op))
    a = _c(np.arange(16.0).reshape(1, 4, 2, 2))
    ops.reshape(a, (4, 4))
    ops.permute(a, (0, 2, 3, 1))
    ops.concat([a, a], axis=1)
    ops.split(a, (1, 3), axis=1)
    ops.crop2d(a, 0, 0, 1, 1)
    ops.pixel_shuffle(a, 2)
    ops.pixel_unshuffle(ops.pixel_shuffle(a, 2), 2)
    ops.take_last(a, np.array([1, 0]))
    assert seen == []
    assert REARRANGE_OPS == {"reshape", "permute", "concat", "slice", "crop2d",
                             "pixel_shuffle", "pixel_unshuffle", "take_last"}
    ops.add(a, a)
    assert seen == ["add"]


def test_discarded_gradient_is_not_scanned():
    # d(out)/d(const) = 1e30 * p overflows, but nothing receives it; the
    # leaf's own gradient stays finite and is accumulated as usual
    p = ParamLeaf("p", np.array([_BIG], dtype=np.float32))
    with np.errstate(all="ignore"), Tape() as tape:
        out = ops.scale(ops.mul(_c([1e-30]), p.value), 1e30)
        backward(ops.sum_(out), tape)
    assert np.isfinite(p.grad).all() and p.grad[0] > 0


def test_nested_tapes_must_unwind_in_order():
    outer = Tape()
    inner = Tape()
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(ContractError):
        outer.__exit__(None, None, None)
    # unwind what the failed exit left behind
    tensor_mod._state.tapes.clear()


def test_record_requires_finite_output():
    with pytest.raises(NonFiniteError):
        record("bad", (), np.array([np.nan]), lambda g: ())


def test_operator_sugar_matches_ops(high):
    a = constant([1.0, 2.0])
    b = constant([3.0, 4.0])
    np.testing.assert_allclose((a + b).data, [4.0, 6.0])
    np.testing.assert_allclose((a - b).data, [-2.0, -2.0])
    np.testing.assert_allclose((a * b).data, [3.0, 8.0])
    np.testing.assert_allclose((a / b).data, [1.0 / 3.0, 0.5])
    np.testing.assert_allclose((-a).data, [-1.0, -2.0])
    np.testing.assert_allclose((2.0 * a).data, [2.0, 4.0])


def test_overflow_from_accumulation_into_a_reshape_raises():
    # each path's gradient is finite; their sum at the reshape output is
    # not, and the reshape backward itself is not scanned any more
    p = ParamLeaf("p", np.full((2, 2), 1e-30, dtype=np.float32))
    with np.errstate(all="ignore"), Tape() as tape:
        t = ops.reshape(p.value, (4,))
        loss = ops.add(ops.sum_(ops.scale(t, _BIG)), ops.sum_(ops.scale(t, _BIG)))
        with pytest.raises(NonFiniteError, match="backward"):
            backward(loss, tape)


def test_take_last_backward_is_still_scanned():
    # repeated indices sum gradients, so this rearrangement can overflow backward
    p = ParamLeaf("p", np.full(3, 1e-30, dtype=np.float32))
    with np.errstate(all="ignore"), Tape() as tape:
        picked = ops.take_last(p.value, np.array([1, 1]))
        loss = ops.sum_(ops.scale(picked, _BIG))
        with pytest.raises(NonFiniteError, match="take_last.backward"):
            backward(loss, tape)


def test_backward_scans_skip_moved_gradients(monkeypatch):
    seen = []
    real = tensor_mod.check_finite
    monkeypatch.setattr(tensor_mod, "check_finite",
                        lambda op, arr: (seen.append(op), real(op, arr)))
    p = ParamLeaf("p", np.ones((1, 4, 2, 2), dtype=np.float32))
    q = ParamLeaf("q", np.ones(4, dtype=np.float32))
    with Tape() as tape:
        h = ops.scale(p.value, 2.0)
        moved = ops.pixel_shuffle(ops.permute(ops.reshape(h, (1, 4, 2, 2)), (0, 1, 3, 2)), 2)
        t = ops.crop2d(moved, 0, 0, 3, 3)
        loss = ops.add(ops.sum_(t), ops.sum_(ops.take_last(q.value, np.array([0, 0]))))
        seen.clear()
        backward(loss, tape)
    # add: 2 inputs, sum: 1 each, scale: 1 and take_last: 1; reshape, permute,
    # pixel_shuffle and crop2d pass no scanned gradient back
    assert sorted(seen) == sorted(["add.backward"] * 2 + ["sum.backward"] * 2
                                  + ["scale.backward", "take_last.backward"])
    # a tensor reached by two paths is scanned again after the sum
    with Tape() as tape:
        r = ops.reshape(p.value, (16,))
        loss = ops.add(ops.sum_(r), ops.sum_(r))
        seen.clear()
        backward(loss, tape)
    assert sorted(seen) == sorted(["add.backward"] * 2 + ["sum.backward"] * 3)


def test_dropped_parameters_are_freed_without_the_cycle_collector():
    # a tensor refers to its parameter weakly, so dropping a model frees its
    # arrays at once instead of at the next full collection
    gc.disable()
    try:
        leaf = ParamLeaf("w", np.ones(3))
        assert leaf.value.leaf is leaf
        owner, data = weakref.ref(leaf), weakref.ref(leaf.value.data)
        del leaf
        assert owner() is None and data() is None
        model = build_model(tiny_config(), seed=0)
        arrays = [weakref.ref(lf.value.data) for lf in model.leaves()]
        del model
        assert all(ref() is None for ref in arrays)
    finally:
        gc.enable()


def test_intermediates_no_backward_reads_are_freed_with_the_tape_alive():
    p = ParamLeaf("p", np.ones((4, 4)))
    q = ParamLeaf("q", np.full((4, 4), 2.0))
    with Tape() as tape:
        a = ops.add(p.value, q.value)
        b = ops.scale(a, 3.0)  # keeps only its factor
        a_data = weakref.ref(a.data)
        del a
        assert a_data() is None
        c = ops.add(p.value, q.value)
        d = ops.mul(c, q.value)  # q's gradient reads c
        c_data = weakref.ref(c.data)
        del c
        assert c_data() is not None
        loss = ops.add(ops.sum_(b), ops.sum_(d))
        backward(loss, tape)
    assert c_data() is None  # the sweep dropped the rule that held it
    np.testing.assert_array_equal(p.grad, np.full((4, 4), 5.0))
    np.testing.assert_array_equal(q.grad, np.full((4, 4), 8.0))


def _chain_grad(keep: bool) -> np.ndarray:
    """Gradient of a long chain whose intermediates are dropped, or all kept."""
    p = ParamLeaf("p", np.linspace(-1.0, 1.0, 64).reshape(8, 8))
    held = []
    with Tape() as tape:
        x = p.value
        for i in range(300):
            a = ops.add(x, p.value)
            b = ops.scale(a, 0.5)
            # needs a gradient but no node made it, so no node claims its
            # gradient; a dropped intermediate's id() is soon its id()
            z = Tensor(np.full((8, 8), 1.0 + i / 1000), requires_grad=True)
            c = ops.mul(b, z)
            x = ops.add(c, ops.scale(x, 0.5))
            if keep:
                held += [a, b, z, c, x]
        backward(ops.sum_(x), tape)
    return p.grad


def test_gradients_do_not_depend_on_which_intermediates_stay_alive():
    kept, dropped = _chain_grad(True), _chain_grad(False)
    assert np.isfinite(kept).all() and kept.any()
    assert kept.tobytes() == dropped.tobytes()


def test_a_swept_tape_cannot_be_swept_again():
    p = ParamLeaf("p", np.ones(3))
    with Tape() as tape:
        loss = ops.sum_(ops.mul(p.value, p.value))
        backward(loss, tape)
        assert all(node.backward_fn is None for node in tape.nodes)
        with pytest.raises(ContractError, match="swept"):
            backward(loss, tape)
    np.testing.assert_array_equal(p.grad, [2.0, 2.0, 2.0])  # the second added nothing


def test_finiteness_scan_holds_a_bounded_scratch():
    arr = np.ones(1 << 22, dtype=np.float32)  # 16 MiB
    assert _traced_peak(lambda: tensor_mod.check_finite("op", arr)) <= 1 << 20
    with parallel.fixed_ways(2):
        assert _traced_peak(lambda: tensor_mod.check_finite("op", arr)) <= 1 << 20


def _strided_views():
    """Contiguous, sliced, transposed, and both."""
    base = np.ones((4, 512, 512), dtype=np.float32)
    return {"contiguous": base,
            "sliced": base[:, ::2],
            "transposed": base.transpose(2, 1, 0),
            "transposed_sliced": base.transpose(2, 1, 0)[:, ::2]}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "last", "middle"])
@pytest.mark.parametrize("view", sorted(_strided_views()))
def test_finiteness_scan_finds_a_non_finite_anywhere(bad, where, view):
    v = _strided_views()[view]
    idx = {"first": (0,) * v.ndim,
           "last": tuple(n - 1 for n in v.shape),
           "middle": tuple(n // 2 for n in v.shape)}[where]
    tensor_mod.check_finite("op", v)  # all finite
    v[idx] = bad
    with pytest.raises(NonFiniteError, match="'op'"):
        tensor_mod.check_finite("op", v)


# ---------------------------------------------------------------------------
# engine state is per thread: the active tape and the precision() override


def _in_thread(fn):
    """Start ``fn`` on a new thread; returns (thread, list that collects what fn raises)."""
    errors = []

    def run():
        try:
            fn()
        except BaseException as exc:  # the test asserts there were none
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, errors


def test_a_predict_beside_an_open_tape_records_nothing_onto_it():
    model = build_model(tiny_config(), seed=0)
    mosaic = np.random.default_rng(1).random((1, 1, 32, 32)).astype(np.float32)
    with Tape() as tape:
        thread, errors = _in_thread(lambda: model.predict(mosaic))
        thread.join()
    assert not errors, errors
    assert len(tape) == 0


def test_two_threads_sweeping_their_own_tapes_may_interleave():
    # A enters its tape, B enters its own, A leaves first and B last
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    leaves = [ParamLeaf(f"p{i}", np.full(3, i + 1.0), dtype=np.float32) for i in range(2)]

    def a():
        try:
            with Tape() as tape:
                loss = ops.sum_(ops.mul(leaves[0].value, leaves[0].value))
                a_in.set()
                assert b_in.wait(10)
                backward(loss, tape)
        finally:
            a_out.set()

    def b():
        assert a_in.wait(10)
        with Tape() as tape:
            loss = ops.sum_(ops.mul(leaves[1].value, leaves[1].value))
            b_in.set()
            assert a_out.wait(10)
            backward(loss, tape)

    (ta, a_errors), (tb, b_errors) = _in_thread(a), _in_thread(b)
    ta.join()
    tb.join()
    assert not a_errors + b_errors, a_errors + b_errors
    for i, leaf in enumerate(leaves):
        np.testing.assert_array_equal(leaf.grad, np.full(3, 2.0 * (i + 1)))


def test_a_float64_build_in_one_thread_leaves_other_threads_float32():
    entered, leave = threading.Event(), threading.Event()

    def hold_high():
        with precision("high"):  # as build_model(dtype=np.float64) does while it builds
            entered.set()
            assert leave.wait(10)

    thread, errors = _in_thread(hold_high)
    try:
        assert entered.wait(10)
        assert get_precision() == "standard"
        assert build_model(tiny_config(), seed=0).dtype == np.float32
    finally:
        leave.set()
        thread.join()
    assert not errors, errors
    # set_precision stays the process-wide default, which new threads start from
    set_precision("high")
    try:
        seen = []
        thread, errors = _in_thread(lambda: seen.append(default_dtype()))
        thread.join()
        assert seen == [np.float64]
    finally:
        set_precision("standard")
