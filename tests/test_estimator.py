"""Estimator interface tests: parameter protocol, fit/predict/score, loading."""

import dataclasses

import numpy as np
import pytest

from demosaick import cfa, estimator
from demosaick.checkpoint import save_checkpoint
from demosaick.errors import ConfigError, ContractError
from demosaick.estimator import (BayerDemosaicker, NotFittedError,
                                 check_mosaics, check_rgb_images)
from demosaick.model import PRESETS, build_model, tiny_config
from demosaick.losses import LossConfig
from demosaick.training import TrainConfig


def _images(seed=0, n=2, side=64):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side] / side
    return [np.clip(np.stack([yy, xx, 0.5 * (yy + xx)])
                    + 0.1 * rng.random((3, side, side)), 0, 1) for _ in range(n)]


_FAST = TrainConfig(total_steps=2, batch_size=1, patch_size=32,
                    val_interval=2, val_patches=1)


def test_get_set_params_roundtrip():
    est = BayerDemosaicker()
    params = est.get_params()
    assert params == {"preset": "tiny", "model_config": None,
                      "train_config": None, "loss_config": None}
    est.set_params(preset="default", train_config={"total_steps": 5})
    assert est.preset == "default"
    assert est.train_config == {"total_steps": 5}
    clone = BayerDemosaicker(**est.get_params())
    assert clone.get_params() == est.get_params()


def test_set_params_rejects_unknown():
    with pytest.raises(ContractError, match="invalid parameter"):
        BayerDemosaicker().set_params(learning_rate=0.1)


def test_unknown_preset_rejected():
    est = BayerDemosaicker(preset="huge", train_config=_FAST)
    with pytest.raises(ContractError, match="preset"):
        est.fit(_images())


def test_preset_registry_names():
    assert sorted(PRESETS) == ["ablation1", "ablation2", "ablation3", "default", "tiny"]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_registry_preset_resolves(name):
    # the estimator takes the same names as ``demosaick train --preset``
    assert BayerDemosaicker(preset=name)._model_config() == PRESETS[name]()


def test_predict_before_fit_raises():
    est = BayerDemosaicker()
    with pytest.raises(NotFittedError, match="not fitted"):
        est.predict([np.zeros((1, 16, 16))])
    with pytest.raises(NotFittedError):
        est.score(_images())
    assert issubclass(NotFittedError, ContractError)


def test_fit_sets_state_and_predicts():
    est = BayerDemosaicker(train_config=_FAST)
    out = est.fit(_images())
    assert out is est
    assert est.n_images_in_ == 2
    assert len(est.history_) == 2
    assert est.model_.config == tiny_config()

    mosaics = [cfa.mosaic(img) for img in _images(seed=1, n=3, side=32)]
    preds = est.predict(mosaics)
    assert len(preds) == 3
    for p in preds:
        assert p.shape == (3, 32, 32)
        assert p.min() >= 0.0 and p.max() <= 1.0
    # transform is an alias for predict
    t = est.transform(mosaics)
    assert all(np.array_equal(a, b) for a, b in zip(preds, t))


def test_fit_accepts_config_dicts():
    est = BayerDemosaicker(model_config=tiny_config().to_dict(),
                           train_config=_FAST.to_dict(),
                           loss_config={"alpha": 1.0})
    est.fit(_images(n=1))
    assert est.model_.config == tiny_config()


def test_fit_rejects_unknown_loss_keys():
    est = BayerDemosaicker(train_config=_FAST, loss_config={"alphaa": 0.1})
    with pytest.raises(ConfigError, match="alphaa"):
        est.fit(_images(n=1))


def test_fit_turns_listed_loss_weights_into_a_hashable_tuple(monkeypatch):
    seen = []
    real_train = estimator.train

    def spy(model, images, tcfg, lcfg):
        seen.append(lcfg)
        return real_train(model, images, tcfg, lcfg)

    monkeypatch.setattr(estimator, "train", spy)
    BayerDemosaicker(train_config=_FAST.to_dict(),
                     loss_config={"ms_weights": [0.5, 0.5]}).fit(_images(n=1))
    assert seen[0].ms_weights == (0.5, 0.5)
    assert hash(seen[0]) == hash(LossConfig(ms_weights=(0.5, 0.5)))


def test_predict_sigma_contract_without_denoise():
    est = BayerDemosaicker(train_config=_FAST).fit(_images(n=1))
    with pytest.raises(ContractError, match="sigma"):
        est.predict([np.zeros((1, 32, 32))], sigma=0.01)


def test_predict_sigma_with_denoise_model():
    cfg = dataclasses.replace(tiny_config(), denoise=True)
    est = BayerDemosaicker(model_config=cfg, train_config=_FAST)
    est.fit(_images(n=1))
    mos = [cfa.mosaic(_images(seed=2, n=1, side=32)[0])]
    a = est.predict(mos)            # sigma defaults to 0.0
    b = est.predict(mos, sigma=0.0)
    assert np.array_equal(a[0], b[0])
    c = est.predict(mos, sigma=0.05)
    assert not np.array_equal(a[0], c[0])


def test_score_is_mean_psnr():
    est = BayerDemosaicker(train_config=_FAST).fit(_images(n=1))
    imgs = _images(seed=3, n=2, side=32)
    from demosaick.metrics import psnr
    expected = np.mean([psnr(est.predict([cfa.mosaic(im)])[0], im) for im in imgs])
    assert est.score(imgs) == pytest.approx(expected, abs=1e-12)
    assert est.score(imgs) > 20.0  # warm-started model beats trivial output


def test_from_checkpoint_inference_only(tmp_path):
    model = build_model(tiny_config(), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    est = BayerDemosaicker.from_checkpoint(path)
    assert est.n_images_in_ == 0
    mos = cfa.mosaic(_images(seed=4, n=1, side=32)[0])
    got = est.predict([mos])[0]
    assert np.array_equal(got, model.predict(mos))


def test_check_rgb_images_contracts():
    assert len(check_rgb_images(_images(n=2))) == 2
    with pytest.raises(ContractError, match="non-empty"):
        check_rgb_images([])
    with pytest.raises(ContractError, match="expected shape"):
        check_rgb_images([np.zeros((16, 16))])
    with pytest.raises(ContractError, match="even"):
        check_rgb_images([np.zeros((3, 15, 16))])
    bad = np.zeros((3, 16, 16))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ContractError, match="non-finite"):
        check_rgb_images([bad])


def test_check_mosaics_contracts():
    out = check_mosaics([np.zeros((16, 16))])
    assert out[0].shape == (1, 16, 16)
    with pytest.raises(ContractError, match="non-empty"):
        check_mosaics([])
    with pytest.raises(ContractError, match="expected shape"):
        check_mosaics([np.zeros((3, 16, 16))])
    with pytest.raises(ContractError, match="even"):
        check_mosaics([np.zeros((1, 16, 15))])


@pytest.mark.parametrize("kwargs,field", [
    ({"train_config": {"base_lr": float("nan")}}, "base_lr"),
    ({"loss_config": {"alpha": float("inf")}}, "alpha"),
])
def test_fit_rejects_non_finite_settings(kwargs, field):
    with pytest.raises(ConfigError, match=field):
        BayerDemosaicker(**kwargs).fit(_images(n=1))
