"""One rule for whether a value fits a dataclass field's annotation.

Config files and checkpoint headers both carry dataclass fields as JSON,
so both are checked here: an int field takes an integer that is not a
bool, a float field an integer or a float, an ``X | None`` field also
None, a tuple field a list or tuple of fitting items, a Path field a str.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

field_hints = cache(get_type_hints)  # field name -> resolved annotation, per dataclass


def required_type(hint):
    """``X`` for an annotation ``X | None``, else the annotation itself."""
    if get_origin(hint) is UnionType:
        return next(a for a in get_args(hint) if a is not NoneType)
    return hint


def conform(value, hint):
    """``value`` as a field annotated ``hint`` holds it; TypeError if it does not fit."""
    if value is None and get_origin(hint) is UnionType:
        return None
    hint = required_type(hint)
    if get_origin(hint) is tuple and type(value) in (list, tuple):
        return tuple(conform(v, get_args(hint)[0]) for v in value)
    if hint is float and type(value) is int:
        return float(value)
    if hint is Path and type(value) is str:
        return Path(value)
    if type(value) is not hint:
        raise TypeError(f"expected {hint.__name__}, got {value!r}")
    return value
