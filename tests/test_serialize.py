"""JSON conversion of result values."""

import enum
import json
from collections import namedtuple
from fractions import Fraction

import pytest

from loopspace import serialize
from loopspace.bott import certify_theorem4, quarter_turn_function
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
    for nested in ({"outer": [value]}, {"outer": [[value]]}):
        with pytest.raises(TypeError) as excinfo:
            serialize.jsonable(nested)
        assert str(excinfo.value) == f"cannot serialize {type(value).__name__}"


def test_scalars_inside_containers_convert_as_at_top_level():
    # the container converters take exact scalar types inline and hand
    # every subclass to jsonable
    for value in (Level(3), Colour.RED, Turn(1, 4), Fraction(-5, 6), True, None, "s", 7):
        top = serialize.jsonable(value)
        for converted in (
            serialize.jsonable([value])[0],
            serialize.jsonable((0, value))[1],
            serialize.jsonable({"k": value})["k"],
            serialize.jsonable({"k": [(value,)]})["k"][0][0],
        ):
            assert converted == top and type(converted) is type(top), value
    assert json.dumps(serialize.jsonable({"c": [Colour.RED, Level(2)], "t": (Turn(3, 4),)})) == (
        '{"c": [1, 2], "t": ["3/4"]}'
    )


def test_plain_scalars_in_a_certificate_take_no_jsonable_call(monkeypatch):
    cert = certify_theorem4(72, 2, 145)
    seen = []
    jsonable = serialize.jsonable

    def counting(value):
        seen.append(value)
        return jsonable(value)

    monkeypatch.setattr(serialize, "jsonable", counting)
    document = serialize.certificate_json(cert)
    monkeypatch.undo()
    assert document == serialize.certificate_json(cert)
    assert seen, "the containers still go through jsonable"
    scalars = [v for v in seen if type(v) in (int, str, bool, type(None), Fraction)]
    assert scalars == []
