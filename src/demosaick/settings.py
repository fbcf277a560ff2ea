"""Typed run settings: one parse and check rule shared by every config dataclass.

A frozen dataclass that inherits :class:`Settings` checks each value against
its field annotation on construction, then calls ``validate()`` for the range
rules: int fields take integers, float fields take reals, bool fields take a
bool or 0/1 (older checkpoints hold ``1`` from a ``--set model.denoise=1``),
and ``tuple[T, ...]`` fields take a list or tuple of T, stored as a tuple.
A bool is never a number here. Nothing else is converted.
"""

from __future__ import annotations

import dataclasses
import numbers
import typing
from collections.abc import Mapping

from .errors import ConfigError


def _fits(value, kind: type) -> bool:
    if kind is bool:
        return isinstance(value, bool) or (isinstance(value, numbers.Integral) and value in (0, 1))
    if isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral if kind is int else numbers.Real)


class Settings:
    """Mixin for frozen config dataclasses: typed fields, dict round trip."""

    def __post_init__(self) -> None:
        for name, kind in typing.get_type_hints(type(self)).items():
            value = getattr(self, name)
            if typing.get_origin(kind) is tuple:
                item = typing.get_args(kind)[0]
                if not isinstance(value, (list, tuple)) or not all(_fits(v, item) for v in value):
                    raise ConfigError(
                        f"field {name!r} must be a list of {item.__name__} values, got {value!r}")
                object.__setattr__(self, name, tuple(value))
            elif not _fits(value, kind):
                raise ConfigError(f"field {name!r} must be {kind.__name__}, got {value!r}")
        self.validate()

    def validate(self) -> None:
        """Range rules beyond the field types; raises ContractError."""

    @classmethod
    def from_dict(cls, d: Mapping):
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        """Field values as JSON-ready data; tuples become lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}

    @classmethod
    def coerce(cls, value):
        """``None`` gives the defaults, an instance itself, a mapping ``from_dict``."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise ConfigError(f"expected a {cls.__name__} or a mapping, got {type(value).__name__}")
