"""The contract of ``schema.parse``: what each annotation accepts, how each
refusal is worded, which error comes first and how key paths read."""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from typing import Literal

import pytest

from wtanet import cli
from wtanet.config import RunConfig
from wtanet.model import ModelFile
from wtanet.schema import parse


@dataclass(frozen=True)
class Inner:
    c: int
    d: str = ""


class Pick:
    """A section whose dataclass depends on its keys."""

    @staticmethod
    def section_class(doc: dict, where: str) -> type:
        if "a" in doc:
            return PickA
        if "b" in doc:
            return PickB
        raise ValueError(f"{where} section needs either 'a' or 'b'")


@dataclass(frozen=True)
class PickA(Pick):
    a: int


@dataclass(frozen=True)
class PickB(Pick):
    b: str
    n: float = 0.0


def box(tp) -> type:
    """A dataclass with one required key ``x`` of annotation ``tp``."""
    return dataclasses.make_dataclass("Box", [("x", tp)], frozen=True)


BIG = 10 ** 400  # an int beyond float range
NAN, INF = float("nan"), float("inf")

# (annotation, value of x, the parsed value or, for a refused value, the message)
CASES = [
    (int, 3, 3),
    (int, -7, -7),
    (int, BIG, BIG),
    (int, True, "x must be an int, got true"),
    (int, 2.0, "x must be an int, got 2.0"),
    (int, 2.7, "x must be an int, got 2.7"),
    (int, "3", 'x must be an int, got "3"'),
    (int, None, "x must be an int, got null"),
    (int, [1], "x must be an int, got a list"),
    (int, {}, "x must be an int, got an object"),
    (float, 2, 2.0),
    (float, 2.5, 2.5),
    (float, -0.0, -0.0),
    (float, 1.7976931348623157e308, 1.7976931348623157e308),
    (float, True, "x must be a finite number, got true"),
    (float, False, "x must be a finite number, got false"),
    (float, NAN, "x must be a finite number, got NaN"),
    (float, INF, "x must be a finite number, got Infinity"),
    (float, -INF, "x must be a finite number, got -Infinity"),
    (float, BIG, f"x must be a finite number, got {BIG}"),
    (float, -BIG, f"x must be a finite number, got {-BIG}"),
    (float, "1.5", 'x must be a finite number, got "1.5"'),
    (float, None, "x must be a finite number, got null"),
    (bool, True, True),
    (bool, False, False),
    (bool, 1, "x must be a bool, got 1"),
    (bool, "false", 'x must be a bool, got "false"'),
    (bool, None, "x must be a bool, got null"),
    (str, "a", "a"),
    (str, "", ""),
    (str, 1, "x must be a string, got 1"),
    (str, None, "x must be a string, got null"),
    (str, ["a"], "x must be a string, got a list"),
    (list, [1, "a", None, [2]], [1, "a", None, [2]]),
    (list, [], []),
    (list, {}, "x must be a list, got an object"),
    (list, "ab", 'x must be a list, got "ab"'),
    (list, 5, "x must be a list, got 5"),
    (Literal[1], 1, 1),
    (Literal[1], 1.0, "x must be one of 1, got 1.0"),
    (Literal[1], True, "x must be one of 1, got true"),
    (Literal[1], "1", 'x must be one of 1, got "1"'),
    (Literal[1], 2, "x must be one of 1, got 2"),
    (Literal[True], True, True),
    (Literal[True], 1, "x must be one of true, got 1"),
    (Literal["a", "b"], "b", "b"),
    (Literal["a", "b"], "c", 'x must be one of "a", "b", got "c"'),
    (Literal["a", "b"], ["a"], 'x must be one of "a", "b", got a list'),
    (Literal["a", "b"], {}, 'x must be one of "a", "b", got an object'),
    (int | None, None, None),
    (int | None, 3, 3),
    (int | None, "3", 'x must be an int, got "3"'),
    (int | None, True, "x must be an int, got true"),
    (typing.Optional[float], 1, 1.0),
    (typing.Optional[float], None, None),
    (bool | None, 0, "x must be a bool, got 0"),
    (Inner | None, None, None),
    (Inner | None, {"c": 1}, Inner(1)),
    (Inner | None, 5, "x must be an object, got 5"),
    (tuple[float, ...], [1, 2.5], (1.0, 2.5)),
    (tuple[float, ...], (1, 2), (1.0, 2.0)),
    (tuple[float, ...], [], ()),
    (tuple[float, ...], 5, "x must be a list, got 5"),
    (tuple[float, ...], {}, "x must be a list, got an object"),
    (tuple[float, ...], "ab", 'x must be a list, got "ab"'),
    (tuple[float, ...], [1, "a"], 'x[1] must be a finite number, got "a"'),
    (tuple[float, ...], [1, NAN], "x[1] must be a finite number, got NaN"),
    (tuple[int, ...], [1, True], "x[1] must be an int, got true"),
    (tuple[str, ...], ["a", 1], "x[1] must be a string, got 1"),
    (tuple[float, float], [1, 2], (1.0, 2.0)),
    (tuple[float, float], (1, 2), (1.0, 2.0)),
    (tuple[float, float], [1], "x must be a list of 2 values, got 1"),
    (tuple[float, float], [1, 2, 3], "x must be a list of 2 values, got 3"),
    (tuple[float, float], [1, True], "x[1] must be a finite number, got true"),
    (tuple[float, float], 1, "x must be a list, got 1"),
    (tuple[int, str], [1, "a"], (1, "a")),
    (tuple[int, str], ["a", 1], 'x[0] must be an int, got "a"'),
    (tuple[tuple[float, float], ...], [[0, 1], [2, 3]], ((0.0, 1.0), (2.0, 3.0))),
    (tuple[tuple[float, float], ...], [[0, 1], [2]], "x[1] must be a list of 2 values, got 1"),
    (tuple[tuple[float, float], ...], [[0, 1], [2, "3"]],
     'x[1][1] must be a finite number, got "3"'),
    (Inner, {"c": 1}, Inner(1)),
    (Inner, {"c": 1, "d": "z"}, Inner(1, "z")),
    (Inner, {"c": True}, "x.c must be an int, got true"),
    (Inner, {}, "missing key x.c"),
    (Inner, {"c": 1, "e": 2}, "unknown key x.e"),
    (Inner, [1], "x must be an object, got a list"),
    (Inner, None, "x must be an object, got null"),
    (Inner, "c", 'x must be an object, got "c"'),
    (tuple[Inner, ...], [{"c": 1}, {"c": 2}], (Inner(1), Inner(2))),
    (tuple[Inner, ...], [{"c": 1}, 2], "x[1] must be an object, got 2"),
    (Pick, {"a": 1}, PickA(1)),
    (Pick, {"b": "s"}, PickB("s")),
    (Pick, {"b": "s", "n": 2}, PickB("s", 2.0)),
    (Pick, {}, "x section needs either 'a' or 'b'"),
    (Pick, {"n": 1}, "x section needs either 'a' or 'b'"),
    (Pick, {"a": "1"}, 'x.a must be an int, got "1"'),
    (Pick, {"a": 1, "n": 2}, "unknown key x.n"),
    (Pick, {"b": "s", "n": True}, "x.n must be a finite number, got true"),
    (Pick, 3, "x must be an object, got 3"),
    (Pick | None, None, None),
    (Pick | None, {"a": 2}, PickA(2)),
    (tuple[Pick, ...], [{"a": 1}, {"b": "s"}], (PickA(1), PickB("s"))),
    (tuple[Pick, ...], [{"a": 1}, {}], "x[1] section needs either 'a' or 'b'"),
]


@pytest.mark.parametrize("tp, value, expected", CASES,
                         ids=[f"{i}-{tp}-{v!r}"[:60] for i, (tp, v, _) in enumerate(CASES)])
def test_each_annotation_accepts_and_refuses(tp, value, expected):
    cls = box(tp)
    if isinstance(expected, str) and expected != value:  # a refusal's message
        with pytest.raises(ValueError) as info:
            parse(cls, {"x": value})
        assert str(info.value) == expected
    else:
        parsed = parse(cls, {"x": value}).x
        assert parsed == expected and type(parsed) is type(expected)
        if isinstance(expected, tuple):  # the items keep their own types
            assert [type(v) for v in parsed] == [type(v) for v in expected]


@dataclass(frozen=True)
class B:
    b: tuple[Inner, ...]


@dataclass(frozen=True)
class A:
    a: B


def test_a_nested_path_names_every_step():
    doc = {"a": {"b": [{"c": 1}, {"c": 2}, {"c": "x"}]}}
    for where, path in (("", "a.b[2].c"), ("top", "top.a.b[2].c")):
        with pytest.raises(ValueError) as info:
            parse(A, doc, where)
        assert str(info.value) == f'{path} must be an int, got "x"'
    with pytest.raises(ValueError, match=r"^unknown key a\.b\[1\]\.e$"):
        parse(A, {"a": {"b": [{"c": 1}, {"c": 2, "e": 0}]}})
    with pytest.raises(ValueError, match=r"^missing key top\.a\.b$"):
        parse(A, {"a": {}}, "top")
    assert parse(A, {"a": {"b": [{"c": 4}]}}) == A(B((Inner(4),)))


@dataclass(frozen=True)
class Two:
    a: int
    b: int
    inner: Inner | None = None


@pytest.mark.parametrize("doc, message", [
    # a bad value beats an unknown key, which beats a missing key
    ({"a": "1", "zz": 0}, 'a must be an int, got "1"'),
    ({"b": "1", "zz": 0}, 'b must be an int, got "1"'),
    ({"a": 1, "zz": 0}, "unknown key zz"),
    ({"zz": 0, "yy": 0}, "unknown key yy"),
    ({"a": 1}, "missing key b"),
    ({}, "missing key a"),
    # bad values are reported in field order, not in the document's order
    ({"b": "2", "a": "1"}, 'a must be an int, got "1"'),
    # a nested section is parsed whole as its value, so any error in it comes first
    ({"inner": {}, "zz": 0}, "missing key inner.c"),
    ({"inner": {"c": 1, "e": 0}}, "unknown key inner.e"),
    ({"inner": 3, "a": "1"}, 'a must be an int, got "1"'),
    ({"a": 1, "b": 2, "inner": {"c": 1}}, None),
], ids=["bad-before-unknown", "second-bad-before-unknown", "unknown-before-missing",
        "unknown-sorted", "missing", "missing-first-field", "field-order",
        "nested-missing-before-unknown", "nested-unknown", "outer-field-first", "valid"])
def test_error_precedence(doc, message):
    if message is None:
        assert parse(Two, doc) == Two(1, 2, Inner(1))
        return
    with pytest.raises(ValueError) as info:
        parse(Two, doc)
    assert str(info.value) == message


@pytest.mark.parametrize("doc, message", [
    ([1], "the top level must be an object, got a list"),
    ("x", 'the top level must be an object, got "x"'),
    (None, "the top level must be an object, got null"),
    (1.5, "the top level must be an object, got 1.5"),
])
def test_a_document_that_is_not_an_object(doc, message):
    with pytest.raises(ValueError) as info:
        parse(Two, doc)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        parse(Two, doc, "section")
    assert str(info.value) == message.replace("the top level", "section")


def test_parse_leaves_its_document_unchanged():
    doc = {"a": 1, "b": 2, "inner": {"c": 1}}
    parse(Two, doc)
    assert doc == {"a": 1, "b": 2, "inner": {"c": 1}}


def test_an_unsupported_annotation_is_not_a_user_error():
    with pytest.raises(Exception) as info:
        parse(box(dict), {"x": {}})
    assert not isinstance(info.value, ValueError)


def _classes_in(tp) -> list:
    """The classes an annotation names, at any depth."""
    args = typing.get_args(tp)
    return [c for a in args for c in _classes_in(a)] if args else [tp]


def parsed_classes() -> set:
    """Every class ``parse`` meets from the package's entry points."""
    seen, todo = set(), [RunConfig, ModelFile, *cli._INSTANCES.values()]
    while todo:
        cls = todo.pop()
        if cls in seen or not isinstance(cls, type):
            continue
        if dataclasses.is_dataclass(cls):
            seen.add(cls)
            todo += [c for tp in typing.get_type_hints(cls).values() for c in _classes_in(tp)]
        elif hasattr(cls, "section_class"):
            todo += cls.__subclasses__()
    return seen


def test_every_parsed_dataclass_compiles():
    classes = parsed_classes()
    assert {c.__name__ for c in classes} == {
        "RunConfig", "CsvSource", "SeriesCsvSource", "FunctionSource", "Noise",
        "MackeyGlassSource", "Expansion", "Model", "GaConfig", "SplitSpec", "Density",
        "ModelFile", "ExpansionSpec", "UnitWeights",
        "KselectInstance", "SimplexInstance", "KsumInstance", "BoxInstance",
    }
    # an empty object reaches every key check; a class whose annotations
    # the parser does not support must fail here, not on a user's file
    for cls in classes:
        try:
            parse(cls, {})
        except ValueError:
            pass
