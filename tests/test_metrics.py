"""Metric exactness against constructed cases and brute-force oracles."""

import math
import warnings

import numpy as np
import pytest

from demosaick import metrics
from demosaick.errors import ContractError
from demosaick.metrics import (
    MS_SSIM_WEIGHTS,
    MetricReport,
    gaussian_kernel,
    gaussian_kernel1d,
    ms_ssim,
    psnr,
    ssim,
)


def test_gaussian_kernels_normalize():
    for sigma in (0.5, 1.5, 8.0):
        k1 = gaussian_kernel1d(sigma)
        assert abs(k1.sum() - 1.0) < 1e-12
        assert k1.shape[0] == 2 * math.ceil(3 * sigma) + 1
        k2 = gaussian_kernel(sigma)
        assert abs(k2.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(k2, np.outer(k1, k1), atol=1e-15)
    k = gaussian_kernel1d(1.5, radius=5)
    assert k.shape == (11,)
    with pytest.raises(ContractError):
        gaussian_kernel1d(0.0)
    with pytest.raises(ContractError):
        gaussian_kernel1d(1.0, radius=-1)


def test_psnr_constructed_twenty_db():
    # constant error of 0.1 -> MSE 0.01 -> exactly 20 dB
    a = np.zeros((3, 8, 8))
    b = np.full((3, 8, 8), 0.1)
    assert abs(psnr(a, b) - 20.0) <= 1e-9


def test_psnr_identical_is_infinite():
    img = np.random.default_rng(0).random((3, 6, 6))
    assert psnr(img, img) == math.inf


def test_psnr_matches_brute_force():
    rng = np.random.default_rng(1)
    a = rng.random((3, 7, 5))
    b = rng.random((3, 7, 5))
    mse = 0.0
    for c in range(3):
        for i in range(7):
            for j in range(5):
                mse += (a[c, i, j] - b[c, i, j]) ** 2
    mse /= 105
    assert abs(psnr(a, b) - 10 * math.log10(1 / mse)) <= 1e-10


def test_psnr_accepts_2d_grayscale():
    a = np.zeros((8, 8))
    b = np.full((8, 8), 0.1)
    assert abs(psnr(a, b) - 20.0) <= 1e-9
    with pytest.raises(ContractError):
        psnr(np.zeros((8, 8)), np.zeros((8, 9)))


def test_ssim_self_is_one():
    img = np.random.default_rng(2).random((3, 16, 16))
    assert abs(ssim(img, img) - 1.0) <= 1e-9


def ssim_scalar_oracle(a, b, k1=0.01, k2=0.03, window=11, sigma=1.5):
    """Independent per-window loop implementation of mean SSIM."""
    win = gaussian_kernel(sigma, radius=window // 2)
    c1, c2 = k1 * k1, k2 * k2
    vals = []
    for c in range(a.shape[0]):
        h, w = a.shape[1:]
        for i in range(h - window + 1):
            for j in range(w - window + 1):
                pa = a[c, i:i + window, j:j + window]
                pb = b[c, i:i + window, j:j + window]
                mx = (pa * win).sum()
                my = (pb * win).sum()
                vx = (pa * pa * win).sum() - mx * mx
                vy = (pb * pb * win).sum() - my * my
                cov = (pa * pb * win).sum() - mx * my
                lum = (2 * mx * my + c1) / (mx * mx + my * my + c1)
                cs = (2 * cov + c2) / (vx + vy + c2)
                vals.append(lum * cs)
    return float(np.mean(vals))


def test_ssim_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    a = rng.random((2, 13, 12))
    b = np.clip(a + 0.05 * rng.standard_normal(a.shape), 0, 1)
    assert abs(ssim(a, b) - ssim_scalar_oracle(a, b)) <= 1e-10


def einsum_window_mean(plane, win):
    """The former 2-d window mean: one 121-tap einsum over an 11x11 view."""
    view = np.lib.stride_tricks.sliding_window_view(plane, win.shape)
    return np.einsum("hwij,ij->hw", view, win, optimize=True)


@pytest.mark.filterwarnings("ignore:ms_ssim")
@pytest.mark.parametrize("shape", [(3, 37, 29), (37, 29), (11, 11), (1, 11, 23)])
def test_separable_window_mean_matches_2d_einsum(shape, monkeypatch):
    rng = np.random.default_rng(9)
    a = rng.random(shape)
    b = np.clip(a + 0.1 * rng.standard_normal(shape), 0, 1)
    k = gaussian_kernel1d(1.5, radius=5)
    win = gaussian_kernel(1.5, radius=5)
    for plane in a.reshape((-1,) + shape[-2:]):
        got = metrics._window_mean(plane, k)
        want = einsum_window_mean(plane, win)
        assert got.shape == want.shape == (shape[-2] - 10, shape[-1] - 10)
        assert np.max(np.abs(got - want)) <= 1e-13

    new = (ssim(a, b), ms_ssim(a, b))
    monkeypatch.setattr(metrics, "_window_mean",
                        lambda plane, k1d: einsum_window_mean(plane, win))
    old = (ssim(a, b), ms_ssim(a, b))
    assert max(abs(n - o) for n, o in zip(new, old)) <= 1e-13


def test_ssim_rejects_images_below_window():
    small = np.zeros((3, 10, 12))
    with pytest.raises(ContractError):
        ssim(small, small)


def test_ssim_decreases_with_distortion():
    rng = np.random.default_rng(4)
    img = rng.random((1, 24, 24))
    mild = np.clip(img + 0.02 * rng.standard_normal(img.shape), 0, 1)
    harsh = np.clip(img + 0.2 * rng.standard_normal(img.shape), 0, 1)
    assert 1.0 > ssim(img, mild) > ssim(img, harsh)


def ms_ssim_scalar_oracle(a, b, weights):
    """Direct multi-scale reimplementation: cs at fine scales, ssim last."""
    win = gaussian_kernel(1.5, radius=5)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    x, y = a.copy(), b.copy()
    total = sum(weights)
    weights = [v / total for v in weights]
    value = 1.0
    for lvl, wt in enumerate(weights):
        ssims, css = [], []
        for c in range(x.shape[0]):
            h, w = x.shape[1:]
            for i in range(h - 10):
                for j in range(w - 10):
                    pa = x[c, i:i + 11, j:j + 11]
                    pb = y[c, i:i + 11, j:j + 11]
                    mx = (pa * win).sum()
                    my = (pb * win).sum()
                    vx = (pa * pa * win).sum() - mx * mx
                    vy = (pb * pb * win).sum() - my * my
                    cov = (pa * pb * win).sum() - mx * my
                    cs = (2 * cov + c2) / (vx + vy + c2)
                    lum = (2 * mx * my + c1) / (mx * mx + my * my + c1)
                    css.append(cs)
                    ssims.append(lum * cs)
        if lvl == len(weights) - 1:
            value *= np.mean(ssims) ** wt
        else:
            value *= np.mean(css) ** wt
            h, w = x.shape[1:]
            x = x[:, : h - h % 2, : w - w % 2].reshape(
                x.shape[0], h // 2, 2, w // 2, 2).mean(axis=(-3, -1))
            y = y[:, : h - h % 2, : w - w % 2].reshape(
                y.shape[0], h // 2, 2, w // 2, 2).mean(axis=(-3, -1))
    return float(value)


def test_ms_ssim_matches_brute_force_two_scales():
    rng = np.random.default_rng(5)
    a = rng.random((1, 24, 24))
    b = np.clip(a + 0.05 * rng.standard_normal(a.shape), 0, 1)
    # side 24 supports 2 of 5 scales; compare against the oracle on the
    # truncated, renormalized weights
    with pytest.warns(UserWarning, match="scales"):
        got = ms_ssim(a, b)
    want = ms_ssim_scalar_oracle(a, b, list(MS_SSIM_WEIGHTS[:2]))
    assert abs(got - want) <= 1e-10


def test_ms_ssim_full_five_scales_on_large_image():
    rng = np.random.default_rng(6)
    a = rng.random((1, 176, 176))
    b = np.clip(a + 0.03 * rng.standard_normal(a.shape), 0, 1)
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("error")  # no truncation warning expected
        got = ms_ssim(a, b)
    assert 0.0 < got < 1.0


def test_ms_ssim_self_is_one():
    img = np.random.default_rng(7).random((3, 32, 32))
    with pytest.warns(UserWarning):
        assert abs(ms_ssim(img, img) - 1.0) <= 1e-9


def test_ms_ssim_scale_counting():
    # usable scales = 1 + floor(log2(side / window))
    img = np.random.default_rng(8).random((1, 11, 11))
    with pytest.warns(UserWarning, match="1 of 5"):
        ms_ssim(img, img)
    img = np.random.default_rng(8).random((1, 88, 88))
    with pytest.warns(UserWarning, match="4 of 5"):
        ms_ssim(img, img)
    with pytest.raises(ContractError):
        ms_ssim(np.zeros((1, 10, 10)), np.zeros((1, 10, 10)))


def _former_metric_weights(side, window, w):
    levels = min(len(w), 1 + int(math.floor(math.log2(side / window))))
    w = w[:levels]
    total = sum(w)
    return tuple(v / total for v in w)


def _former_loss_weights(side, window, w):
    levels = min(len(w), 1 + int(math.floor(math.log2(side / window))))
    weights = w[:levels]
    total = sum(weights)
    return [v / total for v in weights]


def test_ms_ssim_weights_match_both_former_rules():
    rng = np.random.default_rng(13)
    tuples = [MS_SSIM_WEIGHTS[:n] for n in range(1, 6)]
    tuples += [tuple(rng.random(n) + 0.01) for n in range(1, 6)]
    for window in (11, 7):
        for side in range(window, 513):
            for w in tuples:
                got = metrics.ms_ssim_weights(side, window, w)
                assert got == _former_metric_weights(side, window, w)
                assert list(got) == _former_loss_weights(side, window, w)


def test_ms_ssim_weight_validation():
    img = np.zeros((1, 16, 16))
    with pytest.raises(ContractError):
        ms_ssim(img, img, weights=(0.5, -0.5))
    with pytest.raises(ContractError):
        ms_ssim(img, img, weights=())


@pytest.mark.parametrize("side", [12, 40, 256])
def test_scores_equal_the_three_metrics_bit_for_bit(side):
    rng = np.random.default_rng(side)
    ref = rng.random((3, side, side))
    out = np.clip(ref + 0.05 * rng.standard_normal(ref.shape), 0.0, 1.0).astype(np.float32)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want = (psnr(out, ref), ssim(out, ref), ms_ssim(out, ref))
        got = metrics.scores(out, ref)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    # an image too small for five scales warns once per MS-SSIM, as ms_ssim does
    assert len(caught) == (2 if side < 176 else 0)
    assert all(w.filename == __file__ for w in caught)


def test_scores_reject_what_the_metrics_reject():
    img = np.zeros((3, 16, 16))
    with pytest.raises(ContractError, match="shapes differ"):
        metrics.scores(img, img[:, :8])
    with pytest.raises(ContractError, match="non-finite"):
        metrics.scores(np.full_like(img, np.nan), img)
    with pytest.raises(ContractError, match="smaller than"):
        metrics.scores(img[:, :8, :8], img[:, :8, :8])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_reject_a_non_finite_pixel(bad):
    img = np.zeros((3, 32, 32))
    hit = img.copy()
    hit[1, 7, 3] = bad
    for fn in (metrics.psnr, metrics.scores):
        for a, b in ((hit, img), (img, hit)):
            with pytest.raises(ContractError, match="^image holds non-finite values$"):
                fn(a, b)


def test_metric_report_csv_and_markdown():
    rep = MetricReport(dataset="proc", model="tiny")
    rep.add("img0", 30.0, 0.9, 0.95)
    rep.add("img1", 34.0, 0.94, 0.97)
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[1] == "image,psnr_db,ssim,ms_ssim"
    assert lines[2].startswith("img0,30.000000,")
    assert lines[-1].startswith("mean,32.000000,")
    md = rep.to_markdown()
    assert "| image | PSNR (dB) | SSIM | MS-SSIM |" in md
    assert "| **mean** | 32.0000 |" in md
    p, s, m = rep.means()
    assert (p, s, m) == (32.0, pytest.approx(0.92), pytest.approx(0.96))
    with pytest.raises(ContractError):
        MetricReport(dataset="d", model="m").means()
