"""JSON conversion of result values."""

import enum
import json
from collections import namedtuple
from fractions import Fraction

import pytest

from loopspace import serialize
from loopspace.bott import (
    CONTRADICTION_ESTABLISHED,
    INCONCLUSIVE,
    Certificate,
    certify_theorem4,
    certify_theorem5,
    parity_remark_certificate,
    quarter_turn_function,
)
from loopspace.gca import DgaModel
from loopspace.spaceforms import SpaceFormSpec


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
    # the container converters hand every element, subclass or not, to jsonable
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


def _library_certificates():
    for grid in range(8, 73, 2):
        for values in (1, 2):
            yield certify_theorem4(grid, values, 2 * grid + 1)
    yield certify_theorem5(SpaceFormSpec(3, 8, 2), True, 1, quarter_turn_function(), 10)
    yield certify_theorem5(SpaceFormSpec(3, 2, 2), True, 1, quarter_turn_function(), 10)
    yield parity_remark_certificate(0, 1)
    yield parity_remark_certificate(2, 4)


def _printed(cert) -> str:
    return serialize.dumps(serialize.payload("certificate", None, serialize.certificate_json(cert)))


def _printed_by_jsonable(cert) -> str:
    # the oracle: the whole document converted by jsonable, then encoded by
    # the json module with no hook
    document = serialize.payload("certificate", None, serialize.certificate_json(cert))
    return json.dumps(serialize.jsonable(document), sort_keys=True, ensure_ascii=False)


def test_library_certificates_print_without_a_jsonable_call(monkeypatch):
    certificates = list(_library_certificates())
    assert {c.verdict for c in certificates if c.kind == "theorem5"} == {
        CONTRADICTION_ESTABLISHED, INCONCLUSIVE}
    calls = []
    jsonable = serialize.jsonable

    def counting(value):
        calls.append(value)
        return jsonable(value)

    monkeypatch.setattr(serialize, "jsonable", counting)
    printed = [_printed(cert) for cert in certificates]
    monkeypatch.undo()
    assert calls == []
    assert printed == [_printed_by_jsonable(cert) for cert in certificates]


def test_hand_built_certificate_prints_as_jsonable_converts_it():
    model = DgaModel([("x", 2), ("y", 5)], {"y": [(Fraction(1), {"x": 3})]}, name="cp2")
    cert = Certificate(
        kind="hand-built",
        parameters={"level": Level(3), "colour": Colour.RED, "turn": Turn(1, 4),
                    "exact": Fraction(-5, 6), "pair": Pair(3, Turn(1, 2)), "note": "angle 2\u03c0 t"},
        survivors=({"f": quarter_turn_function(), "model": model},),
        verdict=INCONCLUSIVE,
        transcript=({"turns": (Turn(3, 4), Fraction(1, 4)), "ok": True, "none": None},),
    )
    printed = _printed(cert)
    assert printed == _printed_by_jsonable(cert)
    result = json.loads(printed)["result"]
    assert result["parameters"]["turn"] == "1/4" and result["parameters"]["pair"] == [3, "1/2"]
    assert result["survivors"][0]["f"] == serialize.bott_json(quarter_turn_function())
    assert result["survivors"][0]["model"] == serialize.model_json(model)
    assert "2\u03c0" in printed


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", 1j, object()])
def test_unknown_types_in_a_certificate_are_refused(value):
    cert = Certificate("hand-built", {"outer": [value]}, (), INCONCLUSIVE, ())
    with pytest.raises(TypeError) as excinfo:
        _printed(cert)
    assert str(excinfo.value) == f"cannot serialize {type(value).__name__}"
