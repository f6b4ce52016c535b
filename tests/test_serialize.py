"""JSON conversion of result values."""

import enum
import json
from collections import namedtuple
from fractions import Fraction

import pytest

from loopspace import serialize
from loopspace.bott import quarter_turn_function
from loopspace.gca import DgaModel


class Level(int):
    pass


class Colour(enum.IntEnum):
    RED = 1


class Turn(Fraction):
    pass


Pair = namedtuple("Pair", "m index")


def test_scalars_convert_as_they_are():
    for value in (True, False, None, 0, -7, "text", Level(3), Colour.RED):
        assert serialize.jsonable(value) is value
    assert serialize.jsonable(Fraction(3, 4)) == "3/4"
    assert serialize.jsonable(Fraction(-2)) == "-2"
    assert serialize.jsonable(Turn(1, 4)) == "1/4"


def test_containers_convert_recursively():
    assert serialize.jsonable(Pair(3, Fraction(1, 2))) == [3, "1/2"]
    assert serialize.jsonable((1, [True, None], ())) == [1, [True, None], []]
    assert serialize.jsonable({1: Fraction(1, 3), "k": (Level(2),)}) == {"1": "1/3", "k": [2]}
    nested = {"disc": [Turn(1, 4), Fraction(3, 4)], "ok": False}
    assert json.dumps(serialize.jsonable(nested)) == '{"disc": ["1/4", "3/4"], "ok": false}'


def test_result_objects_use_their_converters():
    f = quarter_turn_function()
    assert serialize.jsonable([f]) == [serialize.bott_json(f)]
    model = DgaModel([("x", 2), ("y", 5)], {"y": [(Fraction(1), {"x": 3})]}, name="cp2")
    assert serialize.jsonable({"m": model}) == {"m": serialize.model_json(model)}


@pytest.mark.parametrize("value", [1.5, {1, 2}, b"bytes", 1j, object()])
def test_unknown_types_are_refused(value):
    with pytest.raises(TypeError) as excinfo:
        serialize.jsonable({"outer": [value]})
    assert str(excinfo.value) == f"cannot serialize {type(value).__name__}"
