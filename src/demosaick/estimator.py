"""Estimator-style wrapper: fit on RGB images, predict RGB from mosaics.

Follows the scikit-learn parameter protocol (constructor stores arguments
verbatim; ``get_params``/``set_params`` round-trip them; fitted state lives
in trailing-underscore attributes), so the model can sit inside standard
tooling that clones and re-fits estimators.
"""

from __future__ import annotations

import numpy as np

from . import cfa
from .checkpoint import load_checkpoint
from .errors import ContractError
from .losses import LossConfig
from .metrics import psnr
from .model import PRESETS, ModelConfig, build_model
from .training import TrainConfig, train

_PARAM_NAMES = ("preset", "model_config", "train_config", "loss_config")


class NotFittedError(ContractError):
    """predict/score called before fit on an estimator without a model."""


def check_rgb_images(X) -> list:
    """Validate a sequence of (3, H, W) float images in [0, 1]."""
    if not hasattr(X, "__len__") or len(X) == 0:
        raise ContractError("expected a non-empty sequence of RGB images")
    out = []
    for i, img in enumerate(X):
        arr = np.asarray(img, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ContractError(f"image {i}: expected shape (3, H, W), got {arr.shape}")
        if arr.shape[1] % 2 or arr.shape[2] % 2:
            raise ContractError(f"image {i}: extents must be even, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"image {i}: non-finite values")
        out.append(arr)
    return out


def check_mosaics(X) -> list:
    """Validate a sequence of (1, H, W) or (H, W) mosaics."""
    if not hasattr(X, "__len__") or len(X) == 0:
        raise ContractError("expected a non-empty sequence of mosaics")
    out = []
    for i, img in enumerate(X):
        arr = np.asarray(img, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3 or arr.shape[0] != 1:
            raise ContractError(f"mosaic {i}: expected shape (1, H, W), got {arr.shape}")
        if arr.shape[1] % 2 or arr.shape[2] % 2:
            raise ContractError(f"mosaic {i}: extents must be even, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"mosaic {i}: non-finite values")
        out.append(arr)
    return out


class BayerDemosaicker:
    """Trainable demosaicker with a scikit-learn style interface.

    Parameters are configs (or dicts coercible to them); ``preset`` picks the
    architecture when ``model_config`` is None.  ``fit(X)`` trains on clean
    RGB images by sampling mosaicked patches; ``predict(X)`` maps mosaics to
    RGB; ``score(X)`` is mean PSNR of the full mosaic-reconstruct round trip.
    """

    def __init__(self, preset: str = "tiny", model_config=None, train_config=None,
                 loss_config=None):
        self.preset = preset
        self.model_config = model_config
        self.train_config = train_config
        self.loss_config = loss_config

    # -- sklearn parameter protocol --

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def set_params(self, **params) -> "BayerDemosaicker":
        for key, value in params.items():
            if key not in _PARAM_NAMES:
                raise ContractError(
                    f"invalid parameter {key!r}; valid parameters: {list(_PARAM_NAMES)}")
            setattr(self, key, value)
        return self

    # -- config resolution --

    def _model_config(self) -> ModelConfig:
        if self.model_config is None:
            if self.preset not in PRESETS:
                raise ContractError(f"unknown preset {self.preset!r}; options: {sorted(PRESETS)}")
            return PRESETS[self.preset]()
        if isinstance(self.model_config, ModelConfig):
            return self.model_config
        return ModelConfig.from_dict(dict(self.model_config))

    def _train_config(self) -> TrainConfig:
        if self.train_config is None:
            return TrainConfig()
        if isinstance(self.train_config, TrainConfig):
            return self.train_config
        return TrainConfig.from_dict(dict(self.train_config))

    def _loss_config(self) -> LossConfig:
        if self.loss_config is None:
            return LossConfig()
        if isinstance(self.loss_config, LossConfig):
            return self.loss_config
        return LossConfig(**dict(self.loss_config))

    # -- estimator API --

    def fit(self, X, y=None) -> "BayerDemosaicker":
        images = check_rgb_images(X)
        mcfg = self._model_config()
        tcfg = self._train_config()
        lcfg = self._loss_config()
        model = build_model(mcfg, seed=tcfg.seed)
        result = train(model, images, tcfg, lcfg)
        self.model_ = result.model
        self.history_ = result.history
        self.n_images_in_ = len(images)
        return self

    def _require_fitted(self) -> None:
        if not hasattr(self, "model_"):
            raise NotFittedError(
                "this BayerDemosaicker is not fitted yet; call fit or from_checkpoint first")

    def predict(self, X, sigma=None) -> list:
        self._require_fitted()
        mosaics = check_mosaics(X)
        sig = None
        if self.model_.config.denoise:
            sig = 0.0 if sigma is None else sigma
        elif sigma is not None:
            raise ContractError("model was fitted without noise conditioning; sigma must be None")
        return [self.model_.predict(m, sig) for m in mosaics]

    def transform(self, X) -> list:
        return self.predict(X)

    def score(self, X, y=None) -> float:
        self._require_fitted()
        images = check_rgb_images(X)
        vals = []
        for img in images:
            rec = self.predict([cfa.mosaic(img)])[0]
            vals.append(psnr(rec, img))
        return float(np.mean(vals))

    @classmethod
    def from_checkpoint(cls, path) -> "BayerDemosaicker":
        """Inference-only estimator wrapping a stored model."""
        model = load_checkpoint(path)
        est = cls(model_config=model.config)
        est.model_ = model
        est.history_ = []
        est.n_images_in_ = 0
        return est
