"""Stable JSON forms for every result type.

Rationals serialize as lowest-terms strings (``"p/q"``, or ``"p"`` for
integers), never as floats.  Keys are emitted sorted, so identical inputs
produce byte-identical output.  The top-level document is::

    {"kind": ..., "input": ..., "result": ..., "version": ...}

where ``input`` echoes the normalised source text of the parsed input
(an object with one entry per file for two-input commands, null for
commands that take only flags).

``dumps`` encodes through one C encoder whose hook prints an exact Fraction
as ``str`` and hands any other non-JSON value (a Fraction subclass, a result
object) to ``jsonable``.  So ``certificate_json`` returns the certificate's
own containers, Fractions and all, and ``dumps`` converts them as it
encodes; a float would be printed, so the tests keep certificates free of one.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .bott import BottFunction, Certificate, IndexSequence
from .gca.algebra import DgaModel
from .gca.cohomology import BettiTable, ModelReport, RingReport
from .spaceforms import GysinReport, HomotopyTable, SpaceFormSpec


def model_json(model: DgaModel) -> dict:
    differentials = {}
    for g in model.generators:
        dg = model.differential_of(g.name)
        if dg.is_zero:
            continue
        differentials[g.name] = [
            {"coeff": str(c), "monomial": [[n, e] for n, e in sorted(model.exponent_map(m).items())]}
            for m, c in dg.sorted_terms()
        ]
    return {
        "name": model.name,
        "generators": [{"name": g.name, "degree": g.degree} for g in model.generators],
        "differentials": differentials,
    }


def betti_json(table: BettiTable) -> dict:
    reps = None
    if table.representatives is not None:
        reps = [
            [r.model.format_element(r) for r in degree_reps]
            for degree_reps in table.representatives
        ]
    return {"max_degree": table.max_degree, "dims": list(table.dims), "representatives": reps}


def homotopy_json(table: HomotopyTable) -> dict:
    return {"dims": [[d, v] for d, v in table.dims], "pi1": table.pi1}


def spaceform_json(spec: SpaceFormSpec) -> dict:
    return {"n": spec.n, "r": spec.r, "ord": spec.element_order, "parity": spec.parity}


def bott_json(f: BottFunction) -> dict:
    return {
        "disc": [str(t) for t in f.discontinuities],
        "arcs": list(f.arc_values),
        "points": list(f.point_values),
    }


def _as_is(value):
    return value


def _list_json(value) -> list:
    return [jsonable(v) for v in value]


def _dict_json(value) -> dict:
    return {str(k): jsonable(v) for k, v in value.items()}


# the converter of each type jsonable accepts; a subclass takes the converter
# of its first listed class in method resolution order
_CONVERTERS = {
    Fraction: str,
    bool: _as_is,
    int: _as_is,
    str: _as_is,
    type(None): _as_is,
    list: _list_json,
    tuple: _list_json,
    dict: _dict_json,
    BottFunction: bott_json,
    DgaModel: model_json,
}


def jsonable(value):
    """Recursively convert a value into JSON-encodable data."""
    convert = _CONVERTERS.get(type(value))
    if convert is None:
        for cls in type(value).__mro__:
            convert = _CONVERTERS.get(cls)
            if convert is not None:
                break
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")
    return convert(value)


def index_sequence_json(seq: IndexSequence) -> dict:
    return {"entries": [[m, i] for m, i in seq.entries]}


def model_report_json(report: ModelReport) -> dict:
    return {
        "ok": report.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
    }


def ring_report_json(report: RingReport) -> dict:
    return {
        "passed": report.passed,
        "presentation": {
            "deg_w": report.presentation.deg_w,
            "deg_z": report.presentation.deg_z,
            "nilpotency": report.presentation.nilpotency,
        },
        "max_degree": report.max_degree,
        "expected_dims": list(report.expected_dims),
        "actual_dims": list(report.actual_dims),
        "first_mismatch": report.first_mismatch,
        "w": None if report.w is None else report.w.model.format_element(report.w),
        "z": None if report.z is None else report.z.model.format_element(report.z),
        "messages": list(report.messages),
    }


def gysin_report_json(report: GysinReport) -> dict:
    return {
        "passed": report.passed,
        "checked_up_to": report.checked_up_to,
        "first_failure": report.first_failure,
        "detail": report.detail,
        "conventions": report.conventions,
    }


def certificate_json(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "parameters": cert.parameters,
        "survivors": cert.survivors,
        "verdict": cert.verdict,
        "transcript": cert.transcript,
    }


def payload(kind: str, input_echo, result) -> dict:
    return {"kind": kind, "input": input_echo, "result": result, "version": __version__}


def _default(value):
    return str(value) if type(value) is Fraction else jsonable(value)


_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, default=_default)


def dumps(document: dict) -> str:
    return _ENCODER.encode(document)
