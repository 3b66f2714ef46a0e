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
method picks the dataclass that parses ``doc``.  Each dataclass is
compiled once into a plan of its fields' converters, so a document costs
no annotation lookups.
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
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
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
    return _plan(cls)(doc, where)


def _refused(where: str, name, expected: str, value) -> ValueError:
    return ValueError(f"{_key(where, name)} must be {expected}, got {_describe(value)}")


def _not_an_object(doc, where: str) -> ValueError:
    return ValueError(f"{where or 'the top level'} must be an object, got {_describe(doc)}")


@functools.cache
def _plan(cls):
    """``plan(doc, where)``, which parses a ``cls`` object: a dataclass's init
    fields' converters and required keys, or a ``section_class`` pick."""
    if not dataclasses.is_dataclass(cls):
        def pick(doc, where):
            if not isinstance(doc, dict):
                raise _not_an_object(doc, where)
            return _plan(cls.section_class(doc, where))(doc, where)
        return pick
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    converters = {f.name: _converter(hints[f.name]) for f in fields}
    required = [f.name for f in fields if f.default is dataclasses.MISSING]

    def plan(doc, where):
        if not isinstance(doc, dict):
            raise _not_an_object(doc, where)
        kwargs = {name: convert(doc[name], where, name)
                  for name, convert in converters.items() if name in doc}
        if len(kwargs) < len(doc):
            raise ValueError(f"unknown key {_key(where, min(doc.keys() - converters.keys()))}")
        for name in required:
            if name not in kwargs:
                raise ValueError(f"missing key {_key(where, name)}")
        return cls(**kwargs)
    return plan


# A converter checks and converts one value: convert(value, where, name).
# The value's key path, _key(where, name), is formatted only for an error
# or a nested section.
_FLOAT_MAX = sys.float_info.max


def _int(value, where, name):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _refused(where, name, "an int", value)


def _float(value, where, name):
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= _FLOAT_MAX:
        return float(value)
    raise _refused(where, name, "a finite number", value)


def _instance_of(tp, expected: str):
    def convert(value, where, name):
        if isinstance(value, tp):
            return value
        raise _refused(where, name, expected, value)
    return convert


_SCALARS = {int: _int, float: _float, bool: _instance_of(bool, "a bool"),
            str: _instance_of(str, "a string"), list: _instance_of(list, "a list")}


@functools.cache
def _converter(tp):
    """The converter of a value annotated ``tp``, compiled once."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        (tp,) = [a for a in args if a is not type(None)]
        convert = _converter(tp)
        return lambda value, where, name: None if value is None else convert(value, where, name)
    if origin is typing.Literal:
        choices = "one of " + ", ".join(json.dumps(a) for a in args)

        def literal(value, where, name):
            for a in args:
                if value == a and type(value) is type(a):
                    return value
            raise _refused(where, name, choices, value)
        return literal
    if origin is tuple:
        items = [_converter(a) for a in args if a is not Ellipsis]
        item = items[0]

        def sequence(value, where, name):  # a list or a tuple converts
            if not isinstance(value, (list, tuple)):
                raise _refused(where, name, "a list", value)
            where = _key(where, name)
            if args[-1] is Ellipsis:
                return tuple([item(v, where, i) for i, v in enumerate(value)])
            if len(value) != len(items):
                raise ValueError(f"{where} must be a list of {len(items)} values, "
                                 f"got {len(value)}")
            return tuple([c(v, where, i) for i, (c, v) in enumerate(zip(items, value))])
        return sequence
    if dataclasses.is_dataclass(tp) or hasattr(tp, "section_class"):
        plan = _plan(tp)
        return lambda value, where, name: plan(value, _key(where, name))
    raise TypeError(f"unsupported annotation {tp!r}")
