"""Command-line front end.

Exit codes: 0 on success or a passing check, 1 on a failing check or an
inconclusive certificate, 2 on usage or parse errors, on an input file
that cannot be read or is not UTF-8, and on an input the library refuses
(a ``GcaError``), 141 (128 + SIGPIPE) when the reader closes stdout
before the output is written.  The handlers convert no error: any other
exception is a fault of the program and propagates.  With
``--json`` the result is a single stable JSON document on stdout (see
:mod:`loopspace.serialize`); otherwise a human-readable table is printed.
The environment variable ``LOOPSPACE_MAX_DEGREE`` overrides the default
truncation degree (24) wherever ``--max-degree`` is not given explicitly.

:func:`build_parser` holds the command set: a top-level parser whose
subparsers are the commands, and a table of the leaf parsers by their
command words (``cohomology``, ``bott index``, ``certify rp2``, ...).
:func:`main` parses each call once: when ``argv`` starts with a leaf's
words, the rest goes straight to that leaf's parser, and any argument it
leaves over is refused by the top-level parser, as the nested parse would.
Every other ``argv`` (no command, an option before it, an unknown or
incomplete command) is parsed by the top-level parser itself.  Both ways
print the same help, usage and errors, and exit with the same codes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable

from . import __version__, serialize
from .bott import bott_index, certify_theorem4, certify_theorem5, is_nondegenerate
from .dsl import ParseResult, document_text, model_text, parse_path
from .gca.algebra import DgaModel, GcaError
from .gca.cohomology import (
    DEFAULT_MAX_DEGREE,
    RingPresentation,
    cochain_complex,
    cohomology,
    verify_ring_presentation,
)
from .spaceforms import (
    GysinInput,
    SpaceFormSpec,
    check_gysin_degree,
    euler_action_ranks,
    euler_class,
    gysin_check,
    theorem1_table,
    theorem2_table,
    theorem3_model,
)

ENV_MAX_DEGREE = "LOOPSPACE_MAX_DEGREE"


class UsageError(Exception):
    pass


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# {command words: leaf parser}, e.g. ("bott", "index"); filled by build_parser
_LEAF_PARSERS: dict[tuple[str, ...], argparse.ArgumentParser] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command set: each leaf command binds its handler as ``run`` and
    is recorded in ``_LEAF_PARSERS`` under its command words.  Built on
    first use and shared by every later call of :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="loopspace",
        description="Exact computations on free-loop spaces of spherical space forms.",
    )
    parser.add_argument("--version", action="version", version=f"loopspace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(subparsers, *words: str, run: Callable, help: str) -> argparse.ArgumentParser:
        p = subparsers.add_parser(words[-1], help=help)
        p.set_defaults(run=run)
        _LEAF_PARSERS[words] = p
        return p

    p = leaf(sub, "cohomology", run=cmd_cohomology, help="Betti table of a DGA model")
    p.add_argument("--max-degree", type=_nonneg_int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("file")

    p = leaf(sub, "ring-verify", run=cmd_ring_verify,
             help="verify a Q[w,z]/(w^a) cohomology presentation")
    p.add_argument("--deg-w", type=_positive_int, default=2)
    p.add_argument("--deg-z", type=_positive_int, required=True)
    p.add_argument("--nilpotency", type=_positive_int, required=True)
    p.add_argument("--max-degree", type=_nonneg_int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("file")

    p = leaf(sub, "homotopy", run=cmd_homotopy, help="rational homotopy table of a loop component")
    p.add_argument("--which", choices=("lambda", "quotient"), required=True)
    p.add_argument("--max-degree", type=_nonneg_int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("file")

    p = leaf(sub, "spaceform-model", run=cmd_spaceform_model,
             help="emit the minimal model of the circle quotient")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")

    p = leaf(sub, "gysin-check", run=cmd_gysin_check,
             help="circle-bundle rank identity between two models")
    p.add_argument("--max-degree", type=_nonneg_int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("base_file")
    p.add_argument("total_file")

    p = sub.add_parser("bott", help="index iteration of a step function")
    bott_sub = p.add_subparsers(dest="bott_command", required=True)
    q = leaf(bott_sub, "bott", "index", run=cmd_bott_index, help="index of the m-th iterate")
    q.add_argument("--iterate", type=_positive_int, required=True)
    q.add_argument("--json", action="store_true")
    q.add_argument("file")

    p = sub.add_parser("certify", help="contradiction-search certificates")
    cert_sub = p.add_subparsers(dest="certify_command", required=True)
    q = leaf(cert_sub, "certify", "rp2", run=cmd_certify_rp2,
             help="two-geodesic certificate for the projective plane")
    q.add_argument("--grid", type=_positive_int, required=True)
    q.add_argument("--values", type=_nonneg_int, required=True)
    q.add_argument("--cutoff", type=_positive_int, required=True)
    q.add_argument("--json", action="store_true")
    q = leaf(cert_sub, "certify", "theorem5", run=cmd_certify_theorem5,
             help="even-parity certificate for odd space forms")
    q.add_argument("--k", type=_positive_int, required=True)
    q.add_argument("--iterates", type=_nonneg_int, required=True)
    q.add_argument("--json", action="store_true")
    q.add_argument("spaceform_file")
    q.add_argument("bott_file")

    return parser


def _resolve_max_degree(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_MAX_DEGREE)
    if env is None:
        return DEFAULT_MAX_DEGREE
    try:
        value = int(env)
    except ValueError:
        raise UsageError(f"{ENV_MAX_DEGREE} must be an integer, got {env!r}")
    if value < 0:
        raise UsageError(f"{ENV_MAX_DEGREE} must be >= 0, got {value}")
    return value


def _load(path: str, kind: str):
    try:
        result: ParseResult = parse_path(path, kind=kind)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8: {exc.reason} at byte offset {exc.start}")
    for diag in result.diagnostics:
        print(diag.format(path), file=sys.stderr)
    if not result.ok:
        raise UsageError(f"{path}: parse failed")
    return result.value


def _emit(args, kind: str, input_echo: Callable, result_json: Callable, table: Callable[[], str]) -> None:
    """Print the JSON document or the text table.  Each part is passed as a
    callable, so only the parts of the printed one are built: the input
    echo and the result for ``--json``, the table otherwise."""
    if args.json:
        print(serialize.dumps(serialize.payload(kind, input_echo(), result_json())))
    else:
        print(table())


def _pi1_text(order: int) -> str:
    if order == 0:
        return "not computed"
    if order == 1:
        return "0 (trivial)"
    return f"Z_{order}"


# -- commands ----------------------------------------------------------------


def cmd_cohomology(args) -> int:
    max_degree = _resolve_max_degree(args.max_degree)
    model: DgaModel = _load(args.file, "dga")
    table = cohomology(model, max_degree, with_representatives=True)

    def text() -> str:
        lines = ["degree  dim  representatives"]
        for d, (n, reps) in enumerate(zip(table.dims, table.representatives)):
            shown = ", ".join(model.format_element(r) for r in reps)
            lines.append(f"{d:>6}  {n:>3}  {shown}")
        lines.append(f"(truncated at degree {max_degree})")
        return "\n".join(lines)

    _emit(args, "cohomology", lambda: document_text(model), lambda: serialize.betti_json(table), text)
    return 0


def cmd_ring_verify(args) -> int:
    max_degree = _resolve_max_degree(args.max_degree)
    model: DgaModel = _load(args.file, "dga")
    presentation = RingPresentation(args.deg_w, args.deg_z, args.nilpotency)
    report = verify_ring_presentation(model, presentation, max_degree)
    _emit(args, "ring-verify", lambda: document_text(model), lambda: serialize.ring_report_json(report),
          lambda: report.format() + f"\n(truncated at degree {max_degree})")
    return 0 if report.passed else 1


def cmd_homotopy(args) -> int:
    max_degree = _resolve_max_degree(args.max_degree)
    spec: SpaceFormSpec = _load(args.file, "spaceform")
    if args.which == "lambda":
        table = theorem1_table(spec, max_degree)
        what = "free-loop component"
    else:
        table = theorem2_table(spec, max_degree)
        what = "SO(2) homotopy quotient"

    def text() -> str:
        lines = [f"rational homotopy of the {what} (S^{spec.n}, r={spec.r}, ord={spec.element_order})"]
        for d, v in table.dims:
            lines.append(f"pi_{d}  Q" + (f"^{v}" if v > 1 else ""))
        lines.append(f"pi_1  {_pi1_text(table.pi1)}")
        lines.append(f"(truncated at degree {max_degree})")
        return "\n".join(lines)

    _emit(args, "homotopy", lambda: document_text(spec), lambda: serialize.homotopy_json(table), text)
    return 0


def cmd_spaceform_model(args) -> int:
    spec: SpaceFormSpec = _load(args.file, "spaceform")
    model = theorem3_model(spec)
    _emit(args, "spaceform-model", lambda: document_text(spec), lambda: serialize.model_json(model),
          lambda: model_text(model).rstrip("\n"))
    return 0


def cmd_gysin_check(args) -> int:
    max_degree = _resolve_max_degree(args.max_degree)
    check_gysin_degree(max_degree)
    base_model: DgaModel = _load(args.base_file, "dga")
    total_model: DgaModel = _load(args.total_file, "dga")
    euler = euler_class(base_model)
    data = cochain_complex(base_model, max_degree)
    inputs = GysinInput(
        base=data.betti(),
        euler=tuple(euler_action_ranks(data, euler)),
        total=cohomology(total_model, max_degree),
    )
    report = gysin_check(inputs)
    _emit(args, "gysin-check",
          lambda: {"base": document_text(base_model), "total": document_text(total_model)},
          lambda: serialize.gysin_report_json(report), report.format)
    return 0 if report.passed else 1


def cmd_bott_index(args) -> int:
    f = _load(args.file, "bott")
    m = args.iterate
    value = bott_index(f, m)
    result = {
        "iterate": m,
        "index": value,
        "parity": "odd" if value % 2 else "even",
        "nondegenerate": is_nondegenerate(f, m),
    }
    _emit(args, "bott-index", lambda: document_text(f), lambda: result, lambda: (
        f"ind gamma^{m} = {value}\n"
        f"parity: {result['parity']}\n"
        f"nondegenerate at m={m}: {'yes' if result['nondegenerate'] else 'no'}"
    ))
    return 0


def _certificate_table(cert) -> str:
    lines = [f"certificate: {cert.kind}", f"verdict: {cert.verdict}"]
    for key, value in sorted(cert.parameters.items()):
        lines.append(f"  {key} = {serialize.jsonable(value)}")
    lines.append(f"survivors: {len(cert.survivors)}")
    for s in cert.survivors:
        lines.append(f"  {serialize.jsonable(s)}")
    return "\n".join(lines)


def cmd_certify_rp2(args) -> int:
    cert = certify_theorem4(args.grid, args.values, args.cutoff)
    _emit(args, "certificate", lambda: None, lambda: serialize.certificate_json(cert),
          lambda: _certificate_table(cert))
    return 0 if cert.established else 1


def cmd_certify_theorem5(args) -> int:
    spec: SpaceFormSpec = _load(args.spaceform_file, "spaceform")
    f = _load(args.bott_file, "bott")
    cert = certify_theorem5(spec, True, args.k, f, args.iterates)
    _emit(args, "certificate", lambda: {"spaceform": document_text(spec), "bott": document_text(f)},
          lambda: serialize.certificate_json(cert), lambda: _certificate_table(cert))
    return 0 if cert.established else 1


def _parse(argv: list[str]):
    """Parse ``argv`` once, as the module docstring describes.  An argument
    that starts with ``--=`` keeps ``argv`` with the top-level parser,
    which refuses it wherever it stands, as an abbreviation of both
    ``--help`` and ``--version``."""
    parser = build_parser()
    for words in (1, 2):
        leaf = _LEAF_PARSERS.get(tuple(argv[:words]))
        if leaf is not None and not any(a.startswith("--=") for a in argv):
            args, extras = leaf.parse_known_args(argv[words:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except (UsageError, GcaError) as exc:
        print(f"loopspace: error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    try:
        code = main()
        # flush here, so a reader that has gone away is seen inside the try
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush cannot
        # raise again, and exit as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
