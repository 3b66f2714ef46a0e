"""Strict parsing of JSON objects into frozen dataclasses.

A section's dataclass fields are its schema: each field is a key, its
annotation the JSON type and its default, if any, makes the key
optional.  Unknown keys, missing keys and values of the wrong JSON type
are errors.  An int is accepted where a float is expected, but a bool is
not an int, ``2.7`` is not an int and ``"false"`` is not a bool.  Bad
values are reported first, then unknown keys, then missing keys.

Supported annotations: ``int``, ``float``, ``bool``, ``str``, ``list``
(any JSON list, passed on unchecked), ``Literal[...]``, ``X | None``,
``tuple[X, ...]``, ``tuple[X, Y]`` and nested dataclasses.  A class
that is not a dataclass but has a ``section_class(doc, where)`` static
method picks the dataclass that parses ``doc``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import stat
import sys
import types
import typing

_TYPE_NAMES = {int: "an int", float: "a finite number", bool: "a bool", str: "a string",
               list: "a list"}

# get_type_hints compiles every string annotation again on each call.
_type_hints = functools.cache(typing.get_type_hints)


@functools.cache
def _origin_args(tp) -> tuple:
    """``typing.get_origin`` and ``typing.get_args`` of the annotation ``tp``."""
    return typing.get_origin(tp), typing.get_args(tp)


@functools.cache
def _init_fields(cls) -> dict:
    """The fields of the dataclass ``cls`` that its constructor takes, by name."""
    return {f.name: f for f in dataclasses.fields(cls) if f.init}


def _describe(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    return json.dumps(value, default=repr)


def _key(where: str, name) -> str:  # name is a key, or a list index
    return f"{where}[{name}]" if isinstance(name, int) else f"{where}.{name}" if where else name


def read_json(path, what: str):
    """The JSON document in ``path``, whose objects repeat no key; ``what`` names it."""
    def unique(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            key = next(key for key in keys if keys.count(key) > 1)
            raise ValueError(f"{what} {path} has a duplicate key {key!r}")
        return doc
    # utf-8-sig drops the byte-order mark that some editors put first
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{what} {path} is not UTF-8: {exc}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 over the file at ``path`` and cut it to length."""
    data = text.encode("utf-8")
    rest = memoryview(data)
    # no O_TRUNC: writing over the old bytes and cutting after costs less
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # the umask applies
    try:
        while rest:
            rest = rest[os.write(fd, rest):]
    finally:
        try:  # a failed write leaves an empty file; a pipe or /dev/null is not cut
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, 0 if rest else len(data))
        finally:
            os.close(fd)


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as indented JSON with sorted keys."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def parse(cls, doc, where: str = ""):
    """Build ``cls`` from the JSON object ``doc``, strictly.

    ``where`` is the dotted key path of ``doc``, used in error messages
    ("" for a whole document).  Raises ``ValueError`` naming the first
    offending key.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where or 'the top level'} must be an object, got {_describe(doc)}")
    if not dataclasses.is_dataclass(cls):
        cls = cls.section_class(doc, where)
    hints = _type_hints(cls)
    fields = _init_fields(cls)
    kwargs = {name: _value(hints[name], doc[name], where, name)
              for name in fields if name in doc}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ValueError(f"unknown key {_key(where, unknown[0])}")
    for name, f in fields.items():
        if name not in doc and f.default is dataclasses.MISSING:
            raise ValueError(f"missing key {_key(where, name)}")
    return cls(**kwargs)


def _value(tp, value, where: str, name):
    # the key path of ``value`` is _key(where, name), formatted only for an error
    if tp in _TYPE_NAMES:
        if tp is float and isinstance(value, (int, float)) and not isinstance(value, bool) \
                and abs(value) <= sys.float_info.max:
            return float(value)
        if tp is int and isinstance(value, int) and not isinstance(value, bool):
            return value
        if tp in (bool, str, list) and isinstance(value, tp):
            return value
        raise ValueError(f"{_key(where, name)} must be {_TYPE_NAMES[tp]}, got {_describe(value)}")
    origin, args = _origin_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _value(tp, value, where, name)
    if origin is typing.Literal:
        if any(value == a and type(value) is type(a) for a in args):
            return value
        choices = ", ".join(json.dumps(a) for a in args)
        raise ValueError(f"{_key(where, name)} must be one of {choices}, got {_describe(value)}")
    where = _key(where, name)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a list, got {_describe(value)}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"{where} must be a list of {len(args)} values, "
                             f"got {len(value)}")
        return tuple(_value(t, v, where, i) for i, (t, v) in enumerate(zip(args, value)))
    return parse(tp, value, where)
