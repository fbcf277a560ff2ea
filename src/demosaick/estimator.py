"""Estimator-style wrapper: fit on RGB images, predict RGB from mosaics.

Follows the scikit-learn parameter protocol (constructor stores arguments
verbatim; ``get_params``/``set_params`` round-trip them; fitted state lives
in trailing-underscore attributes), so the model can sit inside standard
tooling that clones and re-fits estimators.

Inputs are checked where they are used: ``fit`` passes its images to
:func:`demosaick.training.train` and ``predict`` each mosaic to
:meth:`demosaick.model.DemosaickModel.predict`, so the estimator accepts
what those accept, as the ``demosaick`` command line does.
"""

from __future__ import annotations

import numpy as np

from . import cfa
from .checkpoint import load_checkpoint
from .errors import ContractError
from .losses import LossConfig
from .metrics import psnr
from .model import ModelConfig, build_model, preset_config
from .training import TrainConfig, train

_PARAM_NAMES = ("preset", "model_config", "train_config", "loss_config")


class NotFittedError(ContractError):
    """predict/score called before fit on an estimator without a model."""


def _nonempty(X, what: str):
    if not hasattr(X, "__len__") or len(X) == 0:
        raise ContractError(f"expected a non-empty sequence of {what}")
    return X


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
            return preset_config(self.preset)
        return ModelConfig.coerce(self.model_config)

    # -- estimator API --

    def fit(self, X, y=None) -> "BayerDemosaicker":
        images = list(_nonempty(X, "RGB images"))
        mcfg = self._model_config()
        tcfg = TrainConfig.coerce(self.train_config)
        lcfg = LossConfig.coerce(self.loss_config)
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
        if self.model_.config.denoise and sigma is None:
            sigma = 0.0
        return [self.model_.predict(m, sigma) for m in _nonempty(X, "mosaics")]

    def transform(self, X) -> list:
        return self.predict(X)

    def score(self, X, y=None) -> float:
        self._require_fitted()
        vals = []
        for img in _nonempty(X, "RGB images"):
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
