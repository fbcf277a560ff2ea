"""Intra-op threads: split kernels match one piece bit for bit, and the BLAS
thread count comes back after every prediction."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import subprocess_env
from demosaick import ops, parallel
from demosaick import tensor as tensor_mod
from demosaick.errors import ContractError, NonFiniteError
from demosaick.model import build_model, default_config, tiny_config
from demosaick.tensor import Tape, Tensor

WAYS = (1, 2, 3)


@pytest.fixture
def pieces(monkeypatch):
    """Piece counts of every parallel.run call made while the test runs."""
    seen = []
    real = parallel.run

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(len(out))
        return out

    monkeypatch.setattr(parallel, "run", spy)
    return seen


def _rand(shape, dtype, seed=0, layout="c"):
    """Random array in a C-contiguous, transposed or strided layout."""
    rng = np.random.default_rng(seed)
    if layout == "transposed":
        return rng.standard_normal(shape[::-1]).astype(dtype).T
    if layout == "strided":
        return rng.standard_normal(shape[:-1] + (2 * shape[-1],)).astype(dtype)[..., ::2]
    return rng.standard_normal(shape).astype(dtype)


def _forward_and_grad(fn, *arrays):
    """Output of fn on the arrays and the gradient of a fixed random cotangent."""
    tensors = [Tensor(a, requires_grad=True, dtype=a.dtype) for a in arrays]
    with Tape() as tape:
        out = fn(*tensors)
    g = np.random.default_rng(9).standard_normal(out.shape).astype(out.dtype)
    grads = tape.nodes[-1].backward_fn(g)
    return [out.data] + [gr for gr in grads if gr is not None]


def _assert_same_for_all_ways(compute, pieces, expect_split):
    results = {}
    for ways in WAYS:
        pieces.clear()
        with parallel.fixed_ways(ways):
            results[ways] = compute()
        assert max(pieces, default=1) == (ways if expect_split else 1), (ways, pieces)
    for ways in WAYS[1:]:
        for got, want in zip(results[ways], results[1]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), ways


DTYPES = [np.float32, np.float64]


# (shape, layout, expect a split into the forced count)
GELU_CASES = [((3, 5, 7), "c", False), ((3, 7, 97, 101), "c", True),
              ((3, 7, 97, 101), "transposed", True), ((2, 3, 181, 193), "strided", True)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,layout,split", GELU_CASES)
def test_gelu_pieces_are_bitwise(pieces, dtype, shape, layout, split):
    x = _rand(shape, dtype, layout=layout)
    _assert_same_for_all_ways(lambda: _forward_and_grad(ops.gelu, x), pieces, split)


# (shape, axis, layout, split): a trailing axis, an inner axis with
# positions after it, and inputs that run as one piece
SOFTMAX_CASES = [((4, 9, 31), -1, "c", False), ((3, 11, 307, 331), -1, "c", True),
                 ((3, 11, 307, 331), 2, "c", True), ((3, 11, 307, 331), 0, "c", False),
                 ((3, 11, 307, 331), -1, "transposed", False)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,axis,layout,split", SOFTMAX_CASES)
def test_softmax_pieces_are_bitwise(pieces, dtype, shape, axis, layout, split):
    x = _rand(shape, dtype, layout=layout) * 4
    _assert_same_for_all_ways(lambda: _forward_and_grad(lambda t: ops.softmax(t, axis), x),
                              pieces, split)


LAYER_NORM_CASES = [((2, 5, 7, 9), "c", False), ((2, 13, 245, 247), "c", True),
                    ((1, 9, 389, 457), "c", True), ((2, 13, 245, 247), "transposed", False),
                    ((64, 96), "c", False)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,layout,split", LAYER_NORM_CASES)
def test_layer_norm_pieces_are_bitwise(pieces, dtype, shape, layout, split):
    x = _rand(shape, dtype, layout=layout) * 3 + 1
    gamma = _rand(shape[1:2], dtype, seed=1)
    beta = _rand(shape[1:2], dtype, seed=2)
    _assert_same_for_all_ways(lambda: _forward_and_grad(ops.layer_norm, x, gamma, beta),
                              pieces, split)


# (input shape, out channels, groups, kernel, stride, layout, split)
DEPTHWISE_CASES = [((1, 8, 9, 11), 8, 8, 3, 1, "c", False),
                   ((1, 13, 101, 97), 13, 13, 5, 1, "c", True),
                   ((2, 13, 201, 197), 26, 13, 3, 2, "c", True),
                   ((1, 12, 99, 103), 18, 6, 3, 1, "c", True),
                   ((1, 13, 101, 97), 13, 13, 5, 1, "transposed", True)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,cout,groups,k,stride,layout,split", DEPTHWISE_CASES)
def test_depthwise_conv_pieces_are_bitwise(pieces, dtype, shape, cout, groups, k, stride,
                                           layout, split):
    x = _rand(shape, dtype, layout=layout)
    w = _rand((cout, shape[1] // groups, k, k), dtype, seed=1)
    b = _rand((cout,), dtype, seed=2)
    conv = lambda xt, wt, bt: ops.conv2d(xt, wt, bt, stride=stride, padding=k // 2,
                                         groups=groups)
    _assert_same_for_all_ways(lambda: _forward_and_grad(conv, x, w, b), pieces, split)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,layout,split", [((5, 7, 11), "c", False),
                                                ((3, 1531, 1439), "c", True),
                                                ((3, 1531, 1439), "transposed", True)])
def test_finiteness_scan_pieces_agree(pieces, dtype, shape, layout, split):
    x = _rand(shape, dtype, layout=layout)
    flat = np.moveaxis(x, int(np.argmax(x.shape)), 0) if layout != "c" else x.reshape(-1)
    n = flat.shape[0]
    for ways in WAYS:
        with parallel.fixed_ways(ways):
            pieces.clear()
            tensor_mod.check_finite("probe", x)
            assert max(pieces, default=1) == (ways if split else 1)
            for pos in (0, n // 3, n // 2, n - 1):  # in the first, middle and last piece
                for bad in (np.nan, np.inf, -np.inf):
                    old = flat[pos].copy()
                    flat[pos] = bad
                    with pytest.raises(NonFiniteError, match="probe"):
                        tensor_mod.check_finite("probe", x)
                    flat[pos] = old


def test_run_covers_the_range_in_order():
    with parallel.fixed_ways(3):
        got = parallel.run(lambda lo, hi: (lo, hi), 10, per_item=parallel.MIN_WORK)
        assert got == [(0, 3), (3, 6), (6, 10)]
        # never a lone index per piece, never a piece below the grain
        assert parallel.run(lambda lo, hi: (lo, hi), 5, per_item=parallel.MIN_WORK) \
            == [(0, 2), (2, 5)]
        assert parallel.run(lambda lo, hi: (lo, hi), 10, per_item=1) == [(0, 10)]
    assert parallel.run(lambda lo, hi: (lo, hi), 10, per_item=parallel.MIN_WORK) == [(0, 10)]


def test_worker_exception_reaches_the_caller():
    def fn(lo, hi):
        if lo:
            raise ValueError("piece failed")
        return lo

    with parallel.fixed_ways(2), pytest.raises(ValueError, match="piece failed"):
        parallel.run(fn, 4, per_item=parallel.MIN_WORK)


_blas = parallel._openblas()
needs_blas = pytest.mark.skipif(_blas is None or parallel._cores() < 2,
                                reason="needs OpenBLAS and two cores")


@pytest.fixture
def blas_two_threads():
    """Give BLAS two threads for the test."""
    get, put = _blas
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


@needs_blas
def test_predict_pins_blas_and_restores_it(monkeypatch, blas_two_threads):
    get = blas_two_threads
    inside = []
    real_gelu = ops.gelu

    def gelu(a):
        inside.append(get())
        return real_gelu(a)

    monkeypatch.setattr(ops, "gelu", gelu)
    model = build_model(tiny_config(), seed=0)
    rng = np.random.default_rng(0)
    model.predict(rng.random((1, 1, 32, 32)))
    assert inside and set(inside) == {1}
    assert get() == 2
    with pytest.raises(ContractError, match="even"):
        model.predict(rng.random((1, 1, 33, 32)))  # fails before any kernel runs
    assert get() == 2
    bad = rng.random((1, 1, 32, 32))
    bad[0, 0, 5, 7] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        model.predict(bad)  # fails before any kernel runs
    assert get() == 2
    model.leaf("generator.inter.weight").value.data[0, 0, 1, 1] = np.nan
    with pytest.raises(NonFiniteError):
        model.predict(rng.random((1, 1, 32, 32)))  # fails part way through the network
    assert get() == 2
    assert parallel._depth == 0 and parallel._ways == 1


@needs_blas
def test_concurrent_scopes_share_one_pin(blas_two_threads):
    get = blas_two_threads
    x = _rand((3, 7, 97, 101), np.float32)
    with parallel.fixed_ways(2):
        want = ops.gelu(Tensor(x)).data.tobytes()
    errors, done = [], []

    def worker():
        try:
            for _ in range(20):
                with parallel.blas_budget():
                    assert get() == 1
                    assert ops.gelu(Tensor(x)).data.tobytes() == want
            done.append(1)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(done) == 4
    assert get() == 2
    assert parallel._depth == 0 and parallel._ways == 1


_SPLIT_HASH_SCRIPT = """
import hashlib
import numpy as np
from demosaick import parallel
from demosaick.model import build_model, default_config

pieces = []
real = parallel.run
def spy(*args, **kwargs):
    out = real(*args, **kwargs)
    pieces.append(len(out))
    return out
parallel.run = spy

model = build_model(default_config(), seed=0)
rng = np.random.default_rng(1)
for leaf in model.leaves():  # step off the warm-start identity
    leaf.value.data[...] += (0.02 * rng.standard_normal(leaf.shape)).astype(leaf.value.data.dtype)
out = model.predict(rng.random((1, 1, 128, 128)))
print(hashlib.sha256(out.tobytes()).hexdigest(), max(pieces))
"""


def test_default_predict_does_not_depend_on_thread_count():
    runs = {}
    for threads in ("1", "2"):
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _SPLIT_HASH_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        digest, most = proc.stdout.split()
        runs[threads] = (digest, int(most))
    assert runs["1"][0] == runs["2"][0]
    assert runs["1"][1] == 1
    if _blas is not None and parallel._cores() >= 2:
        assert runs["2"][1] == 2  # the kernels did split


def test_forked_child_gets_a_fresh_pool():
    # the parent's pool threads do not exist in a child; splitting there
    # must not wait on them
    x = _rand((3, 7, 97, 101), np.float32)
    with parallel.fixed_ways(2):
        want = ops.gelu(Tensor(x)).data.tobytes()  # starts the pool here
        pid = os.fork()
        if pid == 0:  # child: exit status tells the parent what happened
            try:
                with parallel.fixed_ways(2):
                    same = ops.gelu(Tensor(x)).data.tobytes() == want
                os._exit(0 if same else 1)
            finally:
                os._exit(2)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    if not done:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done, "child hung on the inherited pool"
    assert os.waitstatus_to_exitcode(status) == 0
