"""Typed config fields: one parse and check rule for every config class."""

import numpy as np
import pytest

from demosaick.cli import EvalConfig
from demosaick.errors import ConfigError, ContractError
from demosaick.estimator import BayerDemosaicker
from demosaick.losses import LossConfig
from demosaick.model import ModelConfig, tiny_config
from demosaick.training import TrainConfig

_ILL_TYPED = [
    (ModelConfig, "scales", "3"),
    (ModelConfig, "window", True),
    (ModelConfig, "heads", 4.0),
    (ModelConfig, "denoise", None),
    (ModelConfig, "denoise", 2),
    (ModelConfig, "denoise", "yes"),
    (ModelConfig, "mixers_per_cell", (6, 3, 0, 3, 6.5)),
    (ModelConfig, "channels_per_cell", ("a", 192, 256, 192, 64)),
    (ModelConfig, "channels_per_cell", 64),
    (TrainConfig, "base_lr", "abc"),
    (TrainConfig, "base_lr", None),
    (TrainConfig, "beta1", False),
    (TrainConfig, "seed", None),
    (TrainConfig, "seed", 1.5),
    (TrainConfig, "total_steps", True),
    (TrainConfig, "noise_high", [0.1]),
    (LossConfig, "alpha", "abc"),
    (LossConfig, "alpha", None),
    (LossConfig, "window", 11.0),
    (LossConfig, "k1", True),
    (LossConfig, "ms_weights", ["a"]),
    (LossConfig, "ms_weights", [True, 0.5]),
    (LossConfig, "ms_weights", "0.5"),
    (EvalConfig, "sigmas", ["a"]),
    (EvalConfig, "sigmas", [True]),
    (EvalConfig, "sigmas", None),
    (EvalConfig, "seed", "abc"),
    (EvalConfig, "seed", 2.0),
    (TrainConfig, "base_lr", float("nan")),
    (TrainConfig, "noise_high", float("inf")),
    (LossConfig, "alpha", float("nan")),
    (LossConfig, "ms_weights", [0.5, float("inf")]),
    (EvalConfig, "sigmas", [float("inf")]),
    (EvalConfig, "sigmas", [0.0, float("nan")]),
    (TrainConfig, "base_lr", 10 ** 400),
]


@pytest.mark.parametrize("cls,field,value", _ILL_TYPED)
def test_ill_typed_values_raise_config_error_naming_the_field(cls, field, value):
    with pytest.raises(ConfigError, match=field):
        cls(**{field: value})
    with pytest.raises(ConfigError, match=field):
        cls.from_dict({field: value})


@pytest.mark.parametrize("cls", [ModelConfig, TrainConfig, LossConfig, EvalConfig])
def test_dict_round_trip_and_unknown_keys(cls):
    cfg = cls()
    d = cfg.to_dict()
    assert all(not isinstance(v, tuple) for v in d.values())
    assert cls.from_dict(d) == cfg
    assert cls.coerce(None) == cfg
    assert cls.coerce(cfg) is cfg
    assert cls.coerce(d) == cfg
    with pytest.raises(ConfigError, match="bogus"):
        cls.from_dict({**d, "bogus": 1})
    with pytest.raises(ConfigError, match=cls.__name__):
        cls.coerce([1, 2])


def test_lists_become_tuples_and_nothing_else_converts():
    cfg = ModelConfig.from_dict({**tiny_config().to_dict(), "denoise": 1})
    assert cfg.mixers_per_cell == (2, 1, 0, 1, 2)
    assert cfg.denoise == 1 and cfg.in_channels == 8
    assert cfg.to_dict()["denoise"] == 1  # an old checkpoint's stored value round-trips
    assert ModelConfig(denoise=0).in_channels == 4
    loss = LossConfig(ms_weights=[1, 2])
    assert loss.ms_weights == (1, 2) and hash(loss)
    train = TrainConfig(base_lr=1)
    assert train.base_lr == 1 and type(train.base_lr) is int
    assert EvalConfig(sigmas=[0, 15.0]).sigmas == (0, 15.0)


def test_range_rules_still_run_after_the_type_check():
    with pytest.raises(ConfigError, match="sigmas"):
        EvalConfig(sigmas=[])
    with pytest.raises(ConfigError, match="sigmas"):
        EvalConfig(sigmas=[-1.0])
    with pytest.raises(ConfigError, match="mixers_per_cell"):
        ModelConfig(mixers_per_cell=(6, 3, -1, 3, 6))


@pytest.mark.parametrize("cls", [TrainConfig, EvalConfig])
def test_negative_seed_is_rejected_naming_the_field(cls):
    with pytest.raises(ContractError, match="seed"):
        cls(seed=-1)
    assert cls(seed=0).seed == 0


def test_estimator_fit_rejects_a_negative_seed():
    with pytest.raises(ContractError, match="seed"):
        BayerDemosaicker(train_config={"seed": -1}).fit([np.zeros((3, 32, 32))])
