"""Acceptance suite: one test (and one pytest -v line) per shipping criterion.

1. finite-difference gradient suite over every op and block plus a full
   tiny-model spot check, in float64, under a five-minute budget;
2. structural oracles (deformable conv vs plain grouped conv, bijections,
   warm-start identity, attention row sums);
3. metric exactness against scalar-loop oracles;
4. parameter budgets of the shipped presets;
5. desk-scale convergence: single-patch overfit, zero-lr invariance,
   bit-exact resume;
6. comparative sanity on held-out procedural textures;
7. the README scale disclosure and the eval report schema.

Criterion 6 thresholds were measured once on the reference run and frozen
(noted inline). The two training criteria dominate the runtime.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import REL_TOL, fd_gradcheck, fd_gradient
from demosaick import cfa, ops
from demosaick.blocks import (CodingCell, DeformableGroupedConv,
                              MobileNetV3Unit, SpectralMixer, WindowTransformer)
from demosaick.cli import main as cli_main
from demosaick.imageio import write_ppm
from demosaick.losses import mixed_loss
from demosaick.metrics import ms_ssim, psnr, ssim
from demosaick.model import (ablation_config, build_model, default_config,
                             param_count, tiny_config)
from demosaick.tensor import ParamLeaf, Tape, backward, constant, zero_grads
from demosaick.training import (AdamW, TrainConfig, lr_at, sample_batch,
                                _step_rng, train)


def procedural_texture(seed, side=64):
    """Seed-fixed synthetic texture: gratings, a radial wave, a soft edge."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side] / side
    lum = np.zeros((side, side))
    for _ in range(2):
        f = rng.uniform(2.0, 12.0)
        th = rng.uniform(0, np.pi)
        ph = rng.uniform(0, 2 * np.pi)
        lum += rng.uniform(0.2, 0.5) * np.sin(
            2 * np.pi * f * (np.cos(th) * xx + np.sin(th) * yy) + ph)
    cy, cx = rng.uniform(0.2, 0.8, size=2)
    rr = np.hypot(yy - cy, xx - cx)
    lum += rng.uniform(0.1, 0.35) * np.sin(2 * np.pi * rng.uniform(4.0, 10.0) * rr)
    img = np.empty((3, side, side))
    for c in range(3):
        img[c] = 0.5 + rng.uniform(0.5, 1.0) * 0.4 * lum + rng.uniform(-0.08, 0.08)
    a = rng.uniform(0, np.pi)
    x0, y0 = rng.uniform(0.3, 0.7, size=2)
    edge = 1.0 / (1.0 + np.exp(-(np.cos(a) * (xx - x0) + np.sin(a) * (yy - y0))
                               * rng.uniform(20.0, 60.0)))
    img += rng.uniform(-0.15, 0.15, size=(3, 1, 1)) * edge
    return np.clip(img, 0.02, 0.98)


def _bayer_mask(side):
    mask = np.zeros((3, side, side), dtype=bool)
    mask[0, 0::2, 0::2] = True
    mask[1, 0::2, 1::2] = True
    mask[1, 1::2, 0::2] = True
    mask[2, 1::2, 1::2] = True
    return mask


# -- criterion 1: gradient suite ----------------------------------------------

def _op_cases(rng):
    """(label, leaves, make_loss) triples covering every differentiable op."""
    cases = []

    def leaf(name, shape, scale=0.5, offset=0.0):
        return ParamLeaf(name, offset + scale * rng.standard_normal(shape))

    # projection constants are cached by shape: make_loss runs repeatedly for
    # the finite differences and must rebuild the exact same function
    proj_cache = {}

    def proj(t):
        if t.shape not in proj_cache:
            proj_cache[t.shape] = constant(rng.standard_normal(t.shape))
        return ops.mean_(ops.mul(t, proj_cache[t.shape]))

    a = leaf("a", (2, 3))
    b = leaf("b", (1, 3))
    cases.append(("add/sub/neg/scale", [a, b], lambda: proj(
        ops.scale(ops.sub(ops.add(a.value, b.value), ops.neg(b.value)), 1.7))))

    c = leaf("c", (3, 4), offset=1.5, scale=0.3)
    d = leaf("d", (3, 4), offset=2.0, scale=0.3)
    two = constant(np.full((3, 4), 2.0))
    cases.append(("mul/div/abs/pow", [c, d], lambda: ops.sum_(ops.pow_const(
        ops.abs_(ops.div(ops.mul(c.value, d.value), ops.add(d.value, two))), 1.3))))

    sgn = np.sign(rng.standard_normal((4, 4)))
    e = ParamLeaf("e", sgn * (0.3 + 0.5 * rng.random((4, 4))))
    cases.append(("clamp/sigmoid/gelu", [e], lambda: proj(
        ops.gelu(ops.sigmoid(ops.clamp_min(e.value, 0.0))))))

    f = leaf("f", (3, 4))
    g = leaf("g", (4, 4))
    cases.append(("matmul/softmax", [f, g], lambda: proj(
        ops.softmax(ops.matmul(f.value, g.value), axis=-1))))

    x_ln = leaf("x_ln", (2, 5, 3, 3))
    gam = leaf("gam", (5,), offset=1.0, scale=0.1)
    bet = leaf("bet", (5,), scale=0.1)
    cases.append(("layer_norm", [x_ln, gam, bet], lambda: proj(
        ops.layer_norm(x_ln.value, gam.value, bet.value))))

    h = leaf("h", (2, 4, 6, 6))

    def shapes_loss():
        lo, hi = ops.split(h.value, (1, 3), 1)
        y = ops.concat([hi, lo], 1)
        y = ops.permute(y, (0, 1, 3, 2))
        y = ops.crop2d(y, 1, 2, 4, 3)
        return proj(ops.reshape(y, (2, 4 * 4 * 3)))

    cases.append(("reshape/permute/concat/split/crop", [h], shapes_loss))

    k = leaf("k", (2, 3, 4, 5))
    idx = np.array([0, 7, 7, 3, 19])

    def gather_loss():
        flat = ops.reshape(k.value, (2, 3, 20))
        picked = ops.take_last(flat, idx)
        return ops.add(proj(picked), ops.mean_(ops.global_avg_pool(k.value)))

    cases.append(("take_last/global_avg_pool", [k], gather_loss))

    xc = leaf("xc", (2, 3, 6, 6))
    wc = leaf("wc", (4, 3, 3, 3))
    bc = leaf("bc", (4,), scale=0.2)
    cases.append(("conv2d dense", [xc, wc, bc], lambda: proj(
        ops.conv2d(xc.value, wc.value, bc.value, 1, 1))))

    xg = leaf("xg", (1, 4, 7, 7))
    wg = leaf("wg", (6, 2, 3, 3))
    bg = leaf("bg", (6,), scale=0.2)
    cases.append(("conv2d grouped strided", [xg, wg, bg], lambda: proj(
        ops.conv2d(xg.value, wg.value, bg.value, 2, 1, groups=2))))

    xd = leaf("xd", (2, 5, 6, 6))
    wd = leaf("wd", (5, 1, 3, 3))
    cases.append(("conv2d depthwise", [xd, wd], lambda: proj(
        ops.conv2d(xd.value, wd.value, None, 1, 1, groups=5))))

    x1 = leaf("x1", (2, 6, 5, 5))
    w1 = leaf("w1", (4, 6, 1, 1))
    cases.append(("conv2d 1x1", [x1, w1], lambda: proj(
        ops.conv2d(x1.value, w1.value, None))))

    xt = leaf("xt", (2, 3, 4, 4))
    wt = leaf("wt", (3, 5, 2, 2))
    bt = leaf("bt", (5,), scale=0.2)
    cases.append(("conv_transpose2d", [xt, wt, bt], lambda: proj(
        ops.conv_transpose2d(xt.value, wt.value, bt.value, 2))))

    xb = leaf("xb", (2, 3, 6, 6))
    base = rng.integers(0, 5, size=(2, 7, 2)).astype(np.float64)
    frac = 0.25 + 0.5 * rng.random((2, 7, 2))
    cb = ParamLeaf("cb", base + frac)  # strictly off-lattice sample points
    cases.append(("bilinear_sample", [xb, cb], lambda: proj(
        ops.bilinear_sample(xb.value, cb.value))))

    xp = leaf("xp", (1, 8, 3, 3))
    cases.append(("pixel_shuffle/unshuffle", [xp], lambda: proj(
        ops.pixel_unshuffle(ops.gelu(ops.pixel_shuffle(xp.value, 2)), 2))))

    return cases


def _block_cases(rng):
    cases = []

    dg = DeformableGroupedConv("dg", rng, 8, 8, 3, groups=4)
    dg.offset.weight.value.data[...] = 0.05 * rng.standard_normal(
        dg.offset.weight.value.data.shape)
    dg.offset.bias.value.data[...] = 0.2371  # keep sample points off-lattice
    xd = ParamLeaf("xd", 0.5 * rng.standard_normal((1, 8, 6, 6)))
    wproj = constant(rng.standard_normal((1, 8, 6, 6)))
    cases.append(("deformable conv", [xd] + list(dg.leaves()),
                  lambda: ops.mean_(ops.mul(dg(xd.value), wproj))))

    lt = WindowTransformer("lt", rng, 8, 2, 2)
    lt.bias_table.value.data[...] = 0.01 * rng.standard_normal(
        lt.bias_table.value.data.shape)
    xl = ParamLeaf("xl", 0.5 * rng.standard_normal((1, 8, 4, 4)))
    pl = constant(rng.standard_normal((1, 8, 4, 4)))
    cases.append(("window attention unit", [xl] + list(lt.leaves()),
                  lambda: ops.mean_(ops.mul(lt.transform(xl.value), pl))))

    mb = MobileNetV3Unit("mb", rng, 8, squeeze=4)
    xm = ParamLeaf("xm", 0.5 * rng.standard_normal((1, 8, 5, 5)))
    pm = constant(rng.standard_normal((1, 8, 5, 5)))
    cases.append(("mobile unit", [xm] + list(mb.leaves()),
                  lambda: ops.mean_(ops.mul(mb(xm.value), pm))))

    sm = SpectralMixer("sm", rng, 8, expansion=2, squeeze=4)
    xs = ParamLeaf("xs", 0.5 * rng.standard_normal((1, 8, 6, 6)))
    ps = constant(rng.standard_normal((1, 8, 6, 6)))
    cases.append(("spectral mixer", [xs] + list(sm.leaves()),
                  lambda: ops.mean_(ops.mul(sm(xs.value), ps))))

    cc = CodingCell("cc", rng, 8, 2, 2, 2, expansion=2, squeeze=4)
    xcc = ParamLeaf("xcc", 0.5 * rng.standard_normal((1, 8, 4, 4)))
    pc = constant(rng.standard_normal((1, 8, 4, 4)))
    cases.append(("coding cell", [xcc] + list(cc.leaves()),
                  lambda: ops.mean_(ops.mul(cc(xcc.value), pc))))

    pr = ParamLeaf("pr", np.clip(
        0.5 + 0.2 * rng.standard_normal((1, 2, 8, 8)), 0.05, 0.95))
    tgt = np.clip(pr.value.data + 0.1 * rng.standard_normal((1, 2, 8, 8)), 0, 1)
    cases.append(("mixed loss", [pr], lambda: mixed_loss(pr.value, tgt)))

    return cases


def test_criterion_1_gradient_suite(high):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst_label, worst = "", 0.0
    for label, leaves, make_loss in _op_cases(rng) + _block_cases(rng):
        err = fd_gradcheck(make_loss, leaves, samples=3, eps=1e-6, seed=1)
        assert err <= REL_TOL, f"{label}: rel err {err:.3e} > {REL_TOL}"
        if err > worst:
            worst_label, worst = label, err

    # full tiny model: 20 parameter entries sampled across all leaves.
    # A fresh model blocks gradient flow at its zero-initialized residual
    # projection, so nudge every leaf off init first to make the check
    # non-vacuous.
    model = build_model(tiny_config(), seed=0, dtype=np.float64)
    prng = np.random.default_rng(5)
    for lf in model.leaves():
        lf.value.data += 0.01 * prng.standard_normal(lf.value.data.shape)
    img = procedural_texture(1, side=32)
    bayer = cfa.mosaic(img)[None]
    target = constant(img[None])

    def model_loss():
        return mixed_loss(model.forward(bayer), target)

    leaves = model.leaves()
    zero_grads(leaves)
    with Tape() as tape:
        loss = model_loss()
        backward(loss, tape)
    sizes = np.array([lf.value.data.size for lf in leaves])
    bounds = np.cumsum(sizes)
    picks = np.random.default_rng(42).choice(int(bounds[-1]), size=20, replace=False)
    worst_full = 0.0
    nonzero = 0
    for flat in picks:
        li = int(np.searchsorted(bounds, flat, side="right"))
        entry = int(flat - (bounds[li - 1] if li else 0))
        fd = fd_gradient(model_loss, leaves[li], entry, eps=1e-6)
        an = leaves[li].grad.ravel()[entry]
        nonzero += abs(an) > 1e-9
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
        assert err <= 1e-3, f"{leaves[li].name}[{entry}]: rel err {err:.3e}"
        worst_full = max(worst_full, err)
    assert nonzero >= 10, f"only {nonzero}/20 sampled gradients are nonzero"

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"gradient suite took {elapsed:.0f}s (budget 300s)"
    print(f"CRITERION 1 PASS: ops/blocks worst rel err {worst:.2e} ({worst_label}); "
          f"full model worst {worst_full:.2e}; {elapsed:.1f}s")


# -- criterion 2: structural oracles ------------------------------------------

def test_criterion_2_structural_oracles(high):
    rng = np.random.default_rng(0)

    # zero-offset deformable conv == plain grouped conv on edge-padded input
    dg = DeformableGroupedConv("dg", rng, 8, 8, 3, groups=4)
    x = rng.standard_normal((2, 8, 9, 9))
    got = dg(constant(x)).data
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
    ref = ops.conv2d(constant(xp), dg.weight.value, dg.bias.value,
                     1, 0, groups=4).data
    diff = float(np.max(np.abs(got - ref)))
    assert diff <= 1e-6

    # pixel shuffle/unshuffle and pack/unpack are bit-exact bijections
    t = constant(rng.standard_normal((2, 12, 5, 5)))
    assert np.array_equal(ops.pixel_unshuffle(ops.pixel_shuffle(t, 2), 2).data, t.data)
    u = constant(rng.standard_normal((2, 3, 10, 10)))
    assert np.array_equal(ops.pixel_shuffle(ops.pixel_unshuffle(u, 2), 2).data, u.data)
    mos = cfa.mosaic(procedural_texture(3, side=16))
    assert np.array_equal(cfa.unpack_rggb(cfa.pack_rggb(mos)), mos)

    # fresh model output is exactly the duplicate-pixel reconstruction
    model = build_model(tiny_config(), seed=0, dtype=np.float64)
    m32 = cfa.mosaic(procedural_texture(4, side=32))
    assert np.array_equal(model.predict(m32),
                          np.clip(cfa.demosaic_nn(m32), 0.0, 1.0))

    # attention rows are probability distributions
    wt = WindowTransformer("wt", rng, 8, 2, 2)
    rows = wt.attention_rows(constant(rng.standard_normal((2, 8, 4, 4))))
    sums = rows.data.sum(axis=-1)
    assert float(np.max(np.abs(sums - 1.0))) <= 1e-9
    assert rows.data.min() >= 0.0

    print(f"CRITERION 2 PASS: deformable-vs-grouped diff {diff:.2e}; "
          "bijections bit-exact; warm start equals baseline; rows sum to 1")


# -- criterion 3: metric exactness --------------------------------------------

def _gauss_window_loop(window, sigma):
    r = window // 2
    k = [[math.exp(-0.5 * ((u * u + v * v) / (sigma * sigma)))
          for v in range(-r, r + 1)] for u in range(-r, r + 1)]
    s = sum(sum(row) for row in k)
    return [[v / s for v in row] for row in k]


def _psnr_loop(a, b):
    total, n = 0.0, 0
    for c in range(a.shape[0]):
        for i in range(a.shape[1]):
            for j in range(a.shape[2]):
                d = float(a[c, i, j]) - float(b[c, i, j])
                total += d * d
                n += 1
    return 10.0 * math.log10(1.0 / (total / n))


def _ssim_loop(x, y, window=11, sigma=1.5, k1=0.01, k2=0.03):
    ker = _gauss_window_loop(window, sigma)
    c1, c2 = k1 * k1, k2 * k2
    chans, h, w = x.shape
    acc = 0.0
    for c in range(chans):
        vals = []
        for i0 in range(h - window + 1):
            for j0 in range(w - window + 1):
                mx = my = mxx = myy = mxy = 0.0
                for u in range(window):
                    for v in range(window):
                        wk = ker[u][v]
                        xv = float(x[c, i0 + u, j0 + v])
                        yv = float(y[c, i0 + u, j0 + v])
                        mx += wk * xv
                        my += wk * yv
                        mxx += wk * xv * xv
                        myy += wk * yv * yv
                        mxy += wk * xv * yv
                vx, vy, cov = mxx - mx * mx, myy - my * my, mxy - mx * my
                lum = (2 * mx * my + c1) / (mx * mx + my * my + c1)
                cs = (2 * cov + c2) / (vx + vy + c2)
                vals.append(lum * cs)
        acc += sum(vals) / len(vals)
    return acc / chans


def test_criterion_3_metric_exactness():
    rng = np.random.default_rng(0)
    a = rng.random((3, 16, 16))

    assert abs(psnr(a, a + 0.1) - 20.0) <= 1e-9
    assert abs(ssim(a, a) - 1.0) <= 1e-9
    with pytest.warns(UserWarning):
        assert abs(ms_ssim(a, a) - 1.0) <= 1e-9

    b = np.clip(a + 0.05 * rng.standard_normal(a.shape), 0.0, 1.0)
    dp = abs(psnr(a, b) - _psnr_loop(a, b))
    ds = abs(ssim(a, b) - _ssim_loop(a, b))
    # a 16x16 image supports exactly one scale, so the multi-scale value
    # must collapse to plain SSIM
    with pytest.warns(UserWarning):
        dm = abs(ms_ssim(a, b) - _ssim_loop(a, b))
    assert dp <= 1e-10 and ds <= 1e-10 and dm <= 1e-10

    print(f"CRITERION 3 PASS: psnr diff {dp:.1e}, ssim diff {ds:.1e}, "
          f"ms_ssim diff {dm:.1e} vs scalar-loop oracles")


# -- criterion 4: parameter budgets -------------------------------------------

def test_criterion_4_parameter_budgets():
    targets = [
        ("default", default_config(), 5_910_000),
        ("ablation1", ablation_config(1), 5_910_000),
        ("ablation2", ablation_config(2), 5_950_000),
        ("ablation3", ablation_config(3), 5_980_000),
    ]
    report = []
    for name, cfg, target in targets:
        count = param_count(build_model(cfg, seed=0))
        ratio = count / target
        assert 0.90 <= ratio <= 1.10, f"{name}: {count} vs {target} ({ratio:.3f})"
        report.append(f"{name} {count} ({ratio * 100:.1f}% of {target})")
    print("CRITERION 4 PASS: " + "; ".join(report))


# -- criterion 5: desk-scale convergence --------------------------------------

@pytest.mark.slow
def test_criterion_5_desk_scale_convergence(tmp_path):
    t0 = time.monotonic()
    img = procedural_texture(7, side=64)
    images = [img]
    cfg = TrainConfig(total_steps=2000, batch_size=4, patch_size=64,
                      base_lr=2e-3, lr_halve_period=800, seed=0)
    model = build_model(tiny_config(), seed=0)
    mos = cfa.mosaic(img)

    fixed_bayer, fixed_target, _ = sample_batch(images, cfg, _step_rng(cfg.seed, 0))

    def fixed_loss():
        return float(mixed_loss(model.forward(fixed_bayer), fixed_target).data)

    loss0 = fixed_loss()
    assert math.isfinite(loss0) and loss0 > 0.0

    opt = AdamW(model.leaves(), cfg)
    loss50 = None
    reached_at = None
    psnr_val = 0.0
    for step in range(cfg.total_steps):
        rng = _step_rng(cfg.seed, step)
        bayer, target, _ = sample_batch(images, cfg, rng)
        zero_grads(model.leaves())
        with Tape() as tape:
            loss = mixed_loss(model.forward(bayer), target)
            backward(loss, tape)
        opt.step(lr_at(step, cfg))
        done = step + 1
        if done == 50:
            loss50 = fixed_loss()
        if done >= 300 and done % 50 == 0:
            psnr_val = psnr(model.predict(mos), img)
            if psnr_val >= 35.0:
                reached_at = done
                break

    assert loss50 is not None and loss50 < loss0, (loss0, loss50)
    assert reached_at is not None and reached_at <= 2000, \
        f"PSNR only {psnr_val:.2f} dB at the step budget"
    train_time = time.monotonic() - t0
    assert train_time < 1500.0  # 30-minute criterion with 6x headroom

    # zero-lr steps leave every parameter bit-identical
    before = {lf.name: lf.value.data.copy() for lf in model.leaves()}
    for step in (0, 1):
        rng = _step_rng(cfg.seed, step)
        bayer, target, _ = sample_batch(images, cfg, rng)
        zero_grads(model.leaves())
        with Tape() as tape:
            backward(mixed_loss(model.forward(bayer), target), tape)
        opt.step(0.0)
    for lf in model.leaves():
        assert np.array_equal(lf.value.data, before[lf.name]), lf.name

    # interrupted training resumes bit-exactly
    rcfg = TrainConfig(total_steps=10, batch_size=2, patch_size=64,
                       base_lr=2e-3, lr_halve_period=800, seed=3,
                       val_interval=10, val_patches=1, checkpoint_interval=5)
    straight = build_model(tiny_config(), seed=0)
    train(straight, images, rcfg)
    part = build_model(tiny_config(), seed=0)
    train(part, images, dataclasses.replace(rcfg, total_steps=5), out_dir=str(tmp_path))
    resumed = build_model(tiny_config(), seed=9)
    train(resumed, images, rcfg, resume=str(tmp_path / "step000005.ckpt"))
    for lf in straight.leaves():
        assert np.array_equal(lf.value.data, resumed.leaf(lf.name).value.data), lf.name

    print(f"CRITERION 5 PASS: fixed-batch loss {loss0:.5f} -> {loss50:.5f} by "
          f"step 50; {psnr_val:.2f} dB at step {reached_at} "
          f"({train_time:.0f}s); zero-lr and resume bit-exact")


# -- criterion 6: comparative sanity ------------------------------------------

@pytest.mark.slow
def test_criterion_6_comparative_sanity():
    train_imgs = [procedural_texture(100 + i) for i in range(8)]
    held_out = [procedural_texture(200 + i) for i in range(10)]

    nn_psnrs = [psnr(np.clip(cfa.demosaic_nn(cfa.mosaic(im)), 0, 1), im)
                for im in held_out]
    nn_mean = float(np.mean(nn_psnrs))

    model = build_model(tiny_config(), seed=0)
    cfg = TrainConfig(total_steps=500, batch_size=4, patch_size=64,
                      base_lr=2e-3, lr_halve_period=200, seed=0,
                      val_interval=500, val_patches=2)
    train(model, train_imgs, cfg)

    mask = _bayer_mask(64)
    model_psnrs, cap_errs, miss_errs = [], [], []
    for im in held_out:
        mos = cfa.mosaic(im)
        rec = model.predict(mos)
        nn = np.clip(cfa.demosaic_nn(mos), 0.0, 1.0)
        model_psnrs.append(psnr(rec, im))
        cap_errs.append(float(np.mean(np.abs(rec[mask] - im[mask]))))
        miss_errs.append(float(np.mean(np.abs(nn[~mask] - im[~mask]))))
    model_mean = float(np.mean(model_psnrs))
    cap = float(np.mean(cap_errs))
    miss = float(np.mean(miss_errs))

    assert model_mean > nn_mean  # the strict requirement
    assert cap < miss

    # thresholds frozen from the reference run: model 36.58 dB vs baseline
    # 26.76 dB; captured-sample error 4.8e-4 vs missing-sample error 4.9e-2
    assert model_mean - nn_mean >= 6.0
    assert model_mean >= 34.0
    assert 24.0 <= nn_mean <= 30.0
    assert cap <= 2e-3
    assert miss >= 3e-2

    print(f"CRITERION 6 PASS: trained {model_mean:.2f} dB vs baseline "
          f"{nn_mean:.2f} dB on 10 held-out textures; captured err {cap:.1e} "
          f"< missing err {miss:.1e}")


# -- criterion 7: scale disclosure and report schema --------------------------

@pytest.mark.filterwarnings("ignore:ms_ssim")
def test_criterion_7_scale_disclosure_and_report_schema(tmp_path, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    assert "NOT acceptance targets" in text
    assert "not reproducible at desk scale" in text

    data = tmp_path / "data"
    data.mkdir()
    for i in range(2):
        write_ppm(data / f"tex{i}.ppm", procedural_texture(300 + i, side=32))
    out = tmp_path / "reports"
    assert cli_main(["eval", "--dataset", str(data), "--out", str(out),
                     "--nn", "--sigmas", "0,5"]) == 0
    capsys.readouterr()
    for stem in ("report_sigma0", "report_sigma5"):
        lines = (out / f"{stem}.csv").read_text().strip().split("\n")
        assert lines[1] == "image,psnr_db,ssim,ms_ssim"
        assert len(lines) == 5 and lines[-1].startswith("mean,")
        assert (out / f"{stem}.md").exists()

    print("CRITERION 7 PASS: README discloses the full-scale gap; eval "
          "emits image,psnr_db,ssim,ms_ssim reports")
