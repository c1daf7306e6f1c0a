"""One dict form for every config dataclass, derived from its fields."""
from __future__ import annotations

import dataclasses
import typing
from collections.abc import Mapping


def _lists_for_tuples(pairs) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs}


class DictConfig:
    """Base of the frozen config dataclasses: their JSON/TOML form is their fields.

    ``to_dict`` writes every field (nested configs as dicts, tuples as lists).
    ``from_dict`` rejects keys that are not fields, builds nested configs from
    mappings and tuple fields from lists, and leaves every value check to the
    class's ``__post_init__``.
    """

    def to_dict(self) -> dict:
        return dataclasses.asdict(self, dict_factory=_lists_for_tuples)

    @classmethod
    def from_dict(cls, d: Mapping):
        if not isinstance(d, Mapping):
            raise TypeError(f"{cls.__name__} needs a mapping of its fields, "
                            f"got {type(d).__name__}")
        names = [f.name for f in dataclasses.fields(cls)]
        unknown = sorted(set(d) - set(names), key=str)
        if unknown:
            raise ValueError(f"{cls.__name__}: unknown keys {unknown}; valid keys: {names}")
        hints = typing.get_type_hints(cls)
        kwargs = dict(d)
        for name, value in kwargs.items():
            hint = hints[name]
            if typing.get_origin(hint) is tuple:
                if isinstance(value, list):
                    kwargs[name] = tuple(value)
            elif (isinstance(hint, type) and issubclass(hint, DictConfig)
                  and not isinstance(value, hint)):
                kwargs[name] = hint.from_dict(value)
        return cls(**kwargs)
