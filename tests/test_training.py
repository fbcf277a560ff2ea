"""Trainer tests: schedule, optimizer oracle, sampling determinism, resume.

The AdamW single-step check mirrors the update formula with plain floats in
the exact operation order, so agreement is bitwise in float64. Resume
equivalence is asserted bitwise on every parameter: an interrupted run must
be indistinguishable from an uninterrupted one.
"""

import dataclasses
import math
import os

import numpy as np
import pytest

from demosaick import cfa
from demosaick.checkpoint import load_checkpoint_bundle, save_checkpoint
from demosaick.errors import ContractError
from demosaick.losses import LossConfig
from demosaick.model import build_model, tiny_config
from demosaick.tensor import ParamLeaf
from demosaick.training import (AdamW, TrainConfig, check_dataset, lr_at,
                                sample_batch, _step_rng, train)


def _images(seed=0, n=2, side=64):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        yy, xx = np.mgrid[0:side, 0:side] / side
        img = np.stack([yy, xx, 0.5 * (yy + xx)]) + 0.1 * rng.random((3, side, side))
        out.append(np.clip(img, 0.0, 1.0))
    return out


@pytest.mark.parametrize("kwargs,msg", [
    (dict(total_steps=0), "total_steps"),
    (dict(batch_size=0), "batch_size"),
    (dict(patch_size=33), "even"),
    (dict(base_lr=0.0), "base_lr"),
    (dict(lr_halve_period=0), "lr_halve_period"),
    (dict(beta1=1.0), "beta1"),
    (dict(beta2=-0.1), "beta2"),
    (dict(eps=0.0), "eps"),
    (dict(weight_decay=-0.01), "weight_decay"),
    (dict(noise_low=0.2, noise_high=0.1), "noise"),
    (dict(checkpoint_interval=-1), "checkpoint_interval"),
    (dict(val_interval=0), "val_interval"),
])
def test_train_config_rejects_bad_fields(kwargs, msg):
    with pytest.raises(ContractError, match=msg):
        TrainConfig(**kwargs).validate()


def test_train_config_dict_roundtrip():
    cfg = TrainConfig(total_steps=7, base_lr=1e-3, seed=9)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ContractError, match="unknown"):
        TrainConfig.from_dict({"momentum": 0.9})


def test_lr_schedule_halves_at_period():
    cfg = TrainConfig(base_lr=2e-4, lr_halve_period=800)
    assert lr_at(0, cfg) == 2e-4
    assert lr_at(799, cfg) == 2e-4
    assert lr_at(800, cfg) == 1e-4
    assert lr_at(1599, cfg) == 1e-4
    assert lr_at(1600, cfg) == 5e-5
    with pytest.raises(ContractError, match="non-negative"):
        lr_at(-1, cfg)


def test_adamw_single_step_matches_hand_formula():
    cfg = TrainConfig()
    lf = ParamLeaf("p", np.array([1.0]), dtype=np.float64)
    opt = AdamW([lf], cfg)
    lf.grad[...] = 0.5
    opt.step(0.1)

    g, lr, b1, b2 = 0.5, 0.1, cfg.beta1, cfg.beta2
    m1 = (1 - b1) * g
    v1 = (1 - b2) * g * g
    p1 = 1.0 * (1 - lr * cfg.weight_decay)
    p1 -= lr * (m1 / (1 - b1)) / (math.sqrt(v1 / (1 - b2)) + cfg.eps)
    assert lf.value.data[0] == p1

    lf.grad[...] = -0.25
    opt.step(0.05)
    m2 = b1 * m1 + (1 - b1) * (-0.25)
    v2 = b2 * v1 + (1 - b2) * 0.25 * 0.25
    p2 = p1 * (1 - 0.05 * cfg.weight_decay)
    p2 -= 0.05 * (m2 / (1 - b1 ** 2)) / (math.sqrt(v2 / (1 - b2 ** 2)) + cfg.eps)
    assert lf.value.data[0] == p2


def test_adamw_zero_grads_apply_pure_weight_decay():
    cfg = TrainConfig(weight_decay=0.05)
    lf = ParamLeaf("p", np.array([2.0, -1.5]), dtype=np.float64)
    opt = AdamW([lf], cfg)
    start = lf.value.data.copy()
    for _ in range(5):
        lf.grad[...] = 0.0
        opt.step(0.1)
    np.testing.assert_allclose(lf.value.data, start * (1 - 0.1 * 0.05) ** 5, rtol=1e-12)


def test_adamw_zero_lr_is_bitwise_identity():
    cfg = TrainConfig()
    rng = np.random.default_rng(3)
    lf = ParamLeaf("p", rng.standard_normal(17), dtype=np.float64)
    before = lf.value.data.copy()
    opt = AdamW([lf], cfg)
    for k in range(3):
        lf.grad[...] = rng.standard_normal(17)
        opt.step(0.0)
    assert np.array_equal(lf.value.data, before)


def test_adamw_state_roundtrip():
    cfg = TrainConfig()
    lf = ParamLeaf("p", np.ones(4), dtype=np.float64)
    opt = AdamW([lf], cfg)
    lf.grad[...] = 0.3
    opt.step(0.01)
    state = {k: v.copy() for k, v in opt.state_arrays().items()}

    lf2 = ParamLeaf("p", np.ones(4), dtype=np.float64)
    opt2 = AdamW([lf2], cfg)
    opt2.load_state_arrays(state)
    assert opt2.step_count == 1
    assert np.array_equal(opt2.m["p"], opt.m["p"])
    assert np.array_equal(opt2.v["p"], opt.v["p"])


def test_check_dataset_contracts():
    good = _images(n=1)
    assert len(check_dataset(good, 32)) == 1
    with pytest.raises(ContractError, match="empty"):
        check_dataset([], 32)
    with pytest.raises(ContractError, match="expected shape"):
        check_dataset([np.zeros((64, 64))], 32)
    with pytest.raises(ContractError, match="expected shape"):
        check_dataset([np.zeros((4, 64, 64))], 32)
    with pytest.raises(ContractError, match="smaller than"):
        check_dataset([np.zeros((3, 16, 16))], 32)
    bad = np.zeros((3, 64, 64))
    bad[1, 2, 3] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        check_dataset([bad], 32)


def test_sample_batch_is_deterministic_per_step():
    images = _images()
    cfg = TrainConfig(batch_size=3, patch_size=32)
    a = sample_batch(images, cfg, _step_rng(11, 5))
    b = sample_batch(images, cfg, _step_rng(11, 5))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2] is None and b[2] is None
    c = sample_batch(images, cfg, _step_rng(11, 6))
    assert not np.array_equal(a[0], c[0])


def test_sample_batch_mosaics_after_augmentation():
    # The CFA phase must survive cropping, rotation, and flips: the returned
    # mosaic equals mosaicking the returned target.
    images = _images(seed=4)
    cfg = TrainConfig(batch_size=6, patch_size=32)
    bayer, target, _ = sample_batch(images, cfg, _step_rng(0, 0))
    assert bayer.shape == (6, 1, 32, 32)
    assert target.shape == (6, 3, 32, 32)
    for b in range(6):
        assert np.array_equal(bayer[b], cfa.mosaic(target[b]))


def test_sample_batch_noise_bounds_and_sigma_effect():
    images = _images(seed=5)
    cfg = TrainConfig(batch_size=8, patch_size=32, noise_low=0.05, noise_high=0.1)
    bayer, target, sigmas = sample_batch(images, cfg, _step_rng(1, 2), denoise=True)
    assert sigmas.shape == (8,)
    assert np.all(sigmas >= 0.05) and np.all(sigmas <= 0.1)
    for b in range(8):
        clean = cfa.mosaic(target[b])
        assert not np.array_equal(bayer[b], clean)
        assert abs(float(np.std(bayer[b] - clean)) - sigmas[b]) < 0.02


def test_train_rejects_patch_not_multiple_of_pad_step():
    model = build_model(tiny_config(), seed=0)
    cfg = TrainConfig(total_steps=1, batch_size=1, patch_size=48)
    with pytest.raises(ContractError, match="multiple of 32"):
        train(model, _images(), cfg)


def test_train_history_csv_schema():
    model = build_model(tiny_config(), seed=0)
    cfg = TrainConfig(total_steps=3, batch_size=1, patch_size=32,
                      val_interval=2, val_patches=1)
    res = train(model, _images(), cfg)
    assert res.final_step == 3
    lines = res.history_csv().strip().split("\n")
    assert lines[0] == "step,lr,loss,val_psnr_db"
    assert len(lines) == 4
    row1 = lines[1].split(",")
    assert row1[0] == "1" and row1[3] == ""  # no validation at step 1
    row2 = lines[2].split(",")
    assert row2[0] == "2" and float(row2[3]) > 0
    assert float(lines[3].split(",")[3]) > 0  # final step always validates
    for line in lines[1:]:
        assert float(line.split(",")[1]) == cfg.base_lr
        assert float(line.split(",")[2]) > 0


def test_train_resume_is_bit_exact(tmp_path):
    images = _images(seed=6)
    cfg = TrainConfig(total_steps=4, batch_size=2, patch_size=32,
                      val_interval=4, val_patches=1, checkpoint_interval=2)

    full = build_model(tiny_config(), seed=0)
    res_full = train(full, images, cfg)

    part = build_model(tiny_config(), seed=0)
    half_cfg = TrainConfig(total_steps=2, batch_size=2, patch_size=32,
                           val_interval=4, val_patches=1, checkpoint_interval=2)
    train(part, images, half_cfg, out_dir=str(tmp_path))

    resumed = build_model(tiny_config(), seed=1)  # different init, overwritten by load
    res_resumed = train(resumed, images, cfg,
                        resume=str(tmp_path / "step000002.ckpt"))

    for lf in full.leaves():
        assert np.array_equal(lf.value.data, resumed.leaf(lf.name).value.data), lf.name
    assert res_resumed.final_step == res_full.final_step
    # resumed history only covers steps 3..4
    assert [h[0] for h in res_resumed.history] == [3, 4]
    assert res_full.history[-1][2] == res_resumed.history[-1][2]


def test_train_rejects_resume_beyond_total_steps(tmp_path):
    # a step-2 checkpoint resumed with total_steps=1 would train nothing and
    # label the final checkpoint step 1 while the optimizer sits at step 2
    images = _images(seed=6)
    cfg = TrainConfig(total_steps=2, batch_size=1, patch_size=32,
                      val_interval=2, val_patches=1, checkpoint_interval=2)
    (tmp_path / "a").mkdir()
    train(build_model(tiny_config(), seed=0), images, cfg, out_dir=str(tmp_path / "a"))
    short = TrainConfig(total_steps=1, batch_size=1, patch_size=32,
                        val_interval=1, val_patches=1)
    resumed = build_model(tiny_config(), seed=1)
    before = {lf.name: lf.value.data.copy() for lf in resumed.leaves()}
    out = tmp_path / "b"
    out.mkdir()
    with pytest.raises(ContractError, match="total_steps"):
        train(resumed, images, short, out_dir=str(out),
              resume=str(tmp_path / "a" / "step000002.ckpt"))
    assert not (out / "final.ckpt").exists()
    for lf in resumed.leaves():  # the model is left as it was
        assert np.array_equal(lf.value.data, before[lf.name]), lf.name
    # resuming at exactly total_steps stays allowed and trains nothing
    res = train(resumed, images, cfg, resume=str(tmp_path / "a" / "step000002.ckpt"))
    assert res.history == [] and res.final_step == 2


def test_train_writes_final_checkpoint(tmp_path):
    model = build_model(tiny_config(), seed=0)
    cfg = TrainConfig(total_steps=2, batch_size=1, patch_size=32,
                      val_interval=2, val_patches=1, checkpoint_interval=1)
    train(model, _images(), cfg, out_dir=str(tmp_path))
    names = sorted(os.listdir(tmp_path))
    assert names == ["final.ckpt", "step000001.ckpt", "step000002.ckpt"]


def _step2_checkpoint(tmp_path, cfg, loss_cfg=None):
    out = tmp_path / "a"
    out.mkdir()
    train(build_model(tiny_config(), seed=0), _images(seed=6), cfg, loss_cfg,
          out_dir=str(out))
    return out / "step000002.ckpt"


_RESUME_BASE = TrainConfig(total_steps=2, batch_size=1, patch_size=32,
                           val_interval=2, val_patches=1, checkpoint_interval=2)


def test_checkpoints_store_the_resolved_run_settings(tmp_path):
    loss_cfg = LossConfig(alpha=0.3)
    path = _step2_checkpoint(tmp_path, _RESUME_BASE, loss_cfg)
    meta = load_checkpoint_bundle(path)[2]
    assert meta["step"] == 2
    assert meta["train_config"] == _RESUME_BASE.to_dict()
    assert TrainConfig.from_dict(meta["train_config"]) == _RESUME_BASE
    assert meta["loss_config"]["alpha"] == 0.3
    assert LossConfig(**{**meta["loss_config"],
                         "ms_weights": tuple(meta["loss_config"]["ms_weights"])}) == loss_cfg


@pytest.mark.parametrize("change,field", [
    (dict(seed=1), "train.seed"),
    (dict(batch_size=2), "train.batch_size"),
    (dict(patch_size=64), "train.patch_size"),
    (dict(loss=LossConfig(alpha=0.5)), "loss.alpha"),
    (dict(loss=LossConfig(window=7)), "loss.window"),
    (dict(base_lr=1e-4), "train.base_lr"),
    (dict(lr_halve_period=1), "train.lr_halve_period"),
    (dict(beta1=0.8), "train.beta1"),
    (dict(beta2=0.99), "train.beta2"),
    (dict(eps=1e-6), "train.eps"),
    (dict(weight_decay=0.0), "train.weight_decay"),
])
def test_resume_rejects_settings_that_change_the_run(tmp_path, change, field):
    path = _step2_checkpoint(tmp_path, _RESUME_BASE)
    change = dict(change)
    loss_cfg = change.pop("loss", None)
    cfg = dataclasses.replace(_RESUME_BASE, total_steps=3, **change)
    resumed = build_model(tiny_config(), seed=1)
    before = {lf.name: lf.value.data.copy() for lf in resumed.leaves()}
    with pytest.raises(ContractError, match=field.replace(".", r"\.")):
        train(resumed, _images(seed=6), cfg, loss_cfg, resume=str(path))
    for lf in resumed.leaves():  # the model is left as it was
        assert np.array_equal(lf.value.data, before[lf.name]), lf.name


@pytest.mark.parametrize("change,field", [
    (dict(noise_low=0.01), "train.noise_low"),
    (dict(noise_high=0.1), "train.noise_high"),
])
def test_resume_rejects_other_noise_bounds_for_a_noise_conditioned_model(tmp_path, change,
                                                                         field):
    out = tmp_path / "a"
    out.mkdir()
    train(build_model(tiny_config(denoise=True), seed=0), _images(seed=6), _RESUME_BASE,
          out_dir=str(out))
    cfg = dataclasses.replace(_RESUME_BASE, total_steps=3, **change)
    with pytest.raises(ContractError, match=field.replace(".", r"\.")):
        train(build_model(tiny_config(denoise=True), seed=1), _images(seed=6), cfg,
              resume=str(out / "step000002.ckpt"))


def test_resume_ignores_noise_bounds_of_a_model_without_noise_conditioning(tmp_path):
    # the bounds draw nothing when the model does not condition on noise
    path = _step2_checkpoint(tmp_path, _RESUME_BASE)
    cfg = dataclasses.replace(_RESUME_BASE, total_steps=3, noise_low=0.01, noise_high=0.1)
    res = train(build_model(tiny_config(), seed=1), _images(seed=6), cfg, resume=str(path))
    assert [h[0] for h in res.history] == [3]


def test_resume_allows_more_steps_and_other_bookkeeping(tmp_path):
    path = _step2_checkpoint(tmp_path, _RESUME_BASE)
    cfg = dataclasses.replace(_RESUME_BASE, total_steps=3, val_interval=3,
                              checkpoint_interval=0)
    res = train(build_model(tiny_config(), seed=1), _images(seed=6), cfg, resume=str(path))
    assert [h[0] for h in res.history] == [3]


def test_resume_from_a_checkpoint_without_stored_settings(tmp_path):
    # checkpoints written before the settings were stored carry only the step
    path = _step2_checkpoint(tmp_path, _RESUME_BASE)
    model, extras, meta = load_checkpoint_bundle(path)
    old = tmp_path / "old.ckpt"
    save_checkpoint(model, old, extra_arrays=extras, meta={"step": meta["step"]})
    cfg = dataclasses.replace(_RESUME_BASE, total_steps=3, seed=5)
    res = train(build_model(tiny_config(), seed=1), _images(seed=6), cfg, resume=str(old))
    assert [h[0] for h in res.history] == [3]


def test_resume_from_a_checkpoint_without_optimizer_state_names_it(tmp_path):
    path = tmp_path / "weights.ckpt"
    save_checkpoint(build_model(tiny_config(), seed=0), path)
    with pytest.raises(ContractError, match="opt.step"):
        train(build_model(tiny_config(), seed=1), _images(seed=6), _RESUME_BASE, resume=str(path))


def test_adamw_load_names_missing_or_misshaped_state():
    leaves = [ParamLeaf("a", np.zeros((2, 3))), ParamLeaf("b", np.zeros(4))]
    opt = AdamW(leaves, TrainConfig())
    state = {k: v + 1.0 for k, v in opt.state_arrays().items()}
    for key, arrays in (("opt.v.b", {k: v for k, v in state.items() if k != "opt.v.b"}),
                        ("opt.m.a", {**state, "opt.m.a": np.ones((3, 2))}),
                        ("opt.step", {**state, "opt.step": np.ones(2)})):
        with pytest.raises(ContractError, match=key):
            opt.load_state_arrays(arrays)
    # nothing is loaded from rejected state, and good state still loads
    assert opt.step_count == 0 and not opt.m["a"].any()
    opt.load_state_arrays(state)
    assert opt.step_count == 1 and opt.v["b"].tolist() == [1.0] * 4
