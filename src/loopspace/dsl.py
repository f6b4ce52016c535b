"""Text DSL for models, space-form specs and index step functions.

Grammar (one block per document, ``#`` starts a line comment)::

    document       := dga-block | spaceform-block | bott-block
    dga-block      := "model" name "{" (generator-decl | diff-decl)* "}"
    generator-decl := "generator" name ":" integer ";"
    diff-decl      := "d" name "=" poly ";"
    poly           := term ("+" term)* | "0"
    term           := [rational "*"] name ("^" integer)? ("*" name ("^" integer)?)*
    spaceform-block:= "spaceform" "{" "n" "=" int ";" "r" "=" int ";" "ord" "=" int ";" "}"
    bott-block     := "bott" "{" "disc" "=" angle-list ";"
                               "arcs" "=" int-list ";" "points" "=" int-list ";" "}"

Rationals are exact ``p/q`` literals (a leading minus is allowed); angles
are fractions of a turn.  Parsing never raises on malformed input: every
problem becomes a :class:`Diagnostic` with a line and column inside the
source, and a document with errors yields no value.  That includes a
number with more digits than the interpreter converts to an int.

One ``findall`` of one compiled pattern turns the text into a list of
token strings: the blanks, newlines and comments before a token are
skipped inside the same match, and any character the pattern does not
expect is a one-character error token.  The parser reads a token's kind
off its text where the grammar needs it, and a diagnostic records the
index of its token.  Lines and columns are computed only for a document
that has diagnostics, by :func:`_tokenize` over the same pattern.  Number
literals are read with ``int``, and a rational as ``Fraction(p, q)`` from
two ints, never through ``Fraction``'s string parser.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .bott import BottFunction
from .gca.algebra import DgaModel, GcaError
from .spaceforms import SpaceFormSpec

KINDS = ("dga", "spaceform", "bott")
_BLOCK_KEYWORDS = {"model": "dga", "spaceform": "spaceform", "bott": "bott"}


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int
    column: int
    message: str

    def format(self, name: str = "<input>") -> str:
        return f"{name}:{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class SourceSpec:
    text: str
    kind: str | None = None

    def __post_init__(self):
        if self.kind is not None and self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class ParseResult:
    value: DgaModel | SpaceFormSpec | BottFunction | None
    kind: str | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.value is not None and not any(d.severity == "error" for d in self.diagnostics)

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")


class _Token(NamedTuple):
    kind: str  # IDENT NUMBER PUNCT ERROR EOF
    text: str
    line: int
    column: int


# One match per token: the blanks, newlines and comments before it are
# skipped inside the match, and the group holds the token (a NUMBER, an IDENT
# or any other single character), or "" at the end of the text.  The group
# always matches, so the skipping part is never backtracked into.
_SCAN = re.compile(
    r"(?:[ \t\n\r\f\v]+|#[^\n]*)*(-?[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|.|)",
    re.DOTALL,
)
_DIGITS = frozenset(string.digits)
_IDENT_START = frozenset(string.ascii_letters + "_")
_PUNCT = frozenset("{};:=^*,+")
_ONE = Fraction(1)  # the coefficient of every term written without one


def _is_number(t: str) -> bool:
    # a NUMBER token starts with a digit, or with "-" followed by one
    return t[:1] in _DIGITS or (t[:1] == "-" and len(t) > 1)


def _kind(t: str) -> str:
    if not t:
        return "EOF"
    if t[0] in _IDENT_START:
        return "IDENT"
    if _is_number(t):
        return "NUMBER"
    return "PUNCT" if t in _PUNCT else "ERROR"


def _tokenize(text: str) -> list[_Token]:
    """The tokens of the text, each at its line and column (both from 1),
    and an EOF token one column past the last character."""
    tokens: list[_Token] = []
    line, line_start, scanned = 1, 0, 0  # line_start: the offset of the line's first character
    for m in _SCAN.finditer(text):
        start = m.start(1)
        newlines = text.count("\n", scanned, start)  # a token holds no newline
        if newlines:
            line += newlines
            line_start = text.rindex("\n", scanned, start) + 1
        scanned = start
        t = m.group(1)
        tokens.append(_Token(_kind(t), t, line, start - line_start + 1))
        if not t:
            break
    return tokens


def _decimal(n: int) -> str:
    """n in decimal, or its size when it is longer than the interpreter
    converts to a string."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit integer>"


class _Parser:
    """Recursive descent over the token texts of one scan; the grammar reads
    a token's kind off its text where it needs one.  A diagnostic holds the
    index of its token, and lines and columns are looked up only when a
    document has diagnostics."""

    def __init__(self, text: str):
        self.text = text
        # ends with one or two "", the EOF token; the parser never passes the first
        self.toks: list[str] = _SCAN.findall(text)
        self.pos = 0
        self.diagnostics: list[tuple[str, int, str]] = []  # (severity, token index, message)
        self.failed = False

    # -- helpers ---------------------------------------------------------

    def error(self, index: int, message: str) -> None:
        self.diagnostics.append(("error", index, message))
        self.failed = True

    def warning(self, index: int, message: str) -> None:
        self.diagnostics.append(("warning", index, message))

    def located(self) -> tuple[Diagnostic, ...]:
        if not self.diagnostics:
            return ()
        tokens = _tokenize(self.text)
        return tuple(Diagnostic(severity, tokens[i].line, tokens[i].column, message)
                     for severity, i, message in self.diagnostics)

    def expect_punct(self, ch: str) -> bool:
        t = self.toks[self.pos]
        if t == ch:
            self.pos += 1
            return True
        self.error(self.pos, f"expected {ch!r}" + (f", found {t!r}" if t else " before end of input"))
        return False

    def skip_statement(self) -> None:
        """Recover to just past the next ';' (or stop before '}'/EOF)."""
        toks = self.toks
        while True:
            t = toks[self.pos]
            if not t or t == "}":
                return
            self.pos += 1
            if t == ";":
                return

    def integer(self, what: str, minimum: int | None = None) -> int | None:
        i = self.pos
        t = self.toks[i]
        if not _is_number(t) or "/" in t:
            self.error(i, f"expected an integer {what}" + (f", found {t!r}" if t else ""))
            return None
        self.pos = i + 1
        try:
            value = int(t)
        except ValueError:  # more digits than the interpreter converts
            self.error(i, f"{what} has too many digits")
            return None
        if minimum is not None and value < minimum:
            self.error(i, f"{what} must be >= {minimum}, got {value}")
            return None
        return value

    def rational(self, what: str) -> Fraction | None:
        i = self.pos
        t = self.toks[i]
        if not _is_number(t):
            self.error(i, f"expected a rational {what}" + (f", found {t!r}" if t else ""))
            return None
        self.pos = i + 1
        num, _, den = t.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ZeroDivisionError:
            self.error(i, f"{what} has denominator zero")
        except ValueError:  # more digits than the interpreter converts
            self.error(i, f"{what} has too many digits")
        return None

    def ident(self, what: str) -> int | None:
        """The index of the IDENT token read, or None after an error."""
        i = self.pos
        t = self.toks[i]
        if t[:1] in _IDENT_START:
            self.pos = i + 1
            return i
        self.error(i, f"expected {what}" + (f", found {t!r}" if t else " before end of input"))
        return None

    # -- document --------------------------------------------------------

    def document(self):
        t = self.toks[0]
        kind = _BLOCK_KEYWORDS.get(t)
        if kind is not None:
            self.pos = 1  # past the keyword, token 0
            value = {"dga": self.dga_block, "spaceform": self.spaceform_block, "bott": self.bott_block}[kind]()
            end = self.toks[self.pos]
            if _kind(end) == "ERROR":
                self.error(self.pos, f"unexpected character {end!r}")
            elif end:
                self.error(self.pos, f"unexpected content after the block: {end!r}")
            return value, kind
        if _kind(t) == "ERROR":
            self.error(0, f"unexpected character {t!r}")
        elif not t:
            self.error(0, "empty document; expected 'model', 'spaceform' or 'bott'")
        else:
            self.error(0, f"expected 'model', 'spaceform' or 'bott', found {t!r}")
        return None, None

    # -- dga -------------------------------------------------------------

    def dga_block(self) -> DgaModel | None:
        toks = self.toks
        name = self.ident("a model name")
        if name is None or not self.expect_punct("{"):
            return None
        generators: list[tuple[str, int]] = []
        declared: dict[str, int] = {}
        diffs: list[tuple[int, list[tuple[Fraction, list[tuple[int, int]], int]]]] = []
        diff_targets: set[str] = set()
        while True:
            t = toks[self.pos]
            if t == "}":
                self.pos += 1
                break
            if t == "generator":
                self.pos += 1
                gname = self.ident("a generator name")
                if gname is None or not self.expect_punct(":"):
                    self.skip_statement()
                    continue
                degree = self.integer("degree", minimum=1)
                if degree is None:
                    self.skip_statement()
                    continue
                g = toks[gname]
                if g in declared:
                    self.error(gname, f"generator {g!r} declared twice")
                else:
                    declared[g] = degree
                    generators.append((g, degree))
                self.expect_punct(";") or self.skip_statement()
            elif t == "d":
                self.pos += 1
                target = self.ident("a generator name after 'd'")
                if target is None or not self.expect_punct("="):
                    self.skip_statement()
                    continue
                poly = self.poly()
                if poly is None:
                    self.skip_statement()
                    continue
                if toks[target] in diff_targets:
                    self.error(target, f"differential of {toks[target]!r} declared twice")
                else:
                    diff_targets.add(toks[target])
                    diffs.append((target, poly))
                self.expect_punct(";") or self.skip_statement()
            elif not t:
                self.error(self.pos, "expected '}' to close the model block")
                break
            elif _kind(t) == "ERROR":
                self.error(self.pos, f"unexpected character {t!r}")
                self.pos += 1
            else:
                self.error(self.pos, f"expected 'generator' or 'd', found {t!r}")
                self.skip_statement()
        return self.build_model(toks[name], generators, declared, diffs)

    def poly(self):
        """List of (coefficient, [(name index, exponent), ...], first index).
        Returns None on a syntax error."""
        toks, pos = self.toks, self.pos
        if toks[pos] == "0" and toks[pos + 1] == ";":
            self.pos = pos + 1
            return []
        terms = []
        while True:
            term = self.term()
            if term is None:
                return None
            terms.append(term)
            if toks[self.pos] == "+":
                self.pos += 1
                continue
            return terms

    def term(self):
        toks = self.toks
        first = self.pos
        coeff = _ONE
        if _is_number(toks[first]):
            coeff = self.rational("coefficient")
            if coeff is None or not self.expect_punct("*"):
                return None
        factors: list[tuple[int, int]] = []
        while True:
            name = self.ident("a generator name in the term")
            if name is None:
                return None
            exponent = 1
            if toks[self.pos] == "^":
                self.pos += 1
                exponent = self.integer("exponent", minimum=0)
                if exponent is None:
                    return None
            factors.append((name, exponent))
            if toks[self.pos] == "*":
                self.pos += 1
                continue
            return (coeff, factors, first)

    def build_model(self, name, generators, declared, diffs) -> DgaModel | None:
        toks = self.toks
        raw_diffs: dict[str, list] = {}
        for target, terms in diffs:
            tname = toks[target]
            if tname not in declared:
                self.error(target, f"undeclared generator {tname!r}")
                continue
            expected = declared[tname] + 1
            raw_terms = []
            ok = True
            for coeff, factors, first in terms:
                exponents: dict[str, int] = {}
                degree = 0
                for i, exponent in factors:
                    g = toks[i]
                    if g not in declared:
                        self.error(i, f"undeclared generator {g!r}")
                        ok = False
                        continue
                    exponents[g] = exponents.get(g, 0) + exponent
                    degree += declared[g] * exponent
                if not ok:
                    continue
                if degree != expected:
                    self.error(
                        first,
                        f"term has degree {_decimal(degree)}; d {tname} requires degree {_decimal(expected)}",
                    )
                    ok = False
                    continue
                raw_terms.append((coeff, exponents))
            if ok:
                raw_diffs[tname] = raw_terms
        if self.failed:
            return None
        try:
            return DgaModel(generators, raw_diffs, name=name)
        except GcaError as exc:  # structural problems not caught above
            self.error(0, str(exc))
            return None

    # -- spaceform ---------------------------------------------------------

    def spaceform_block(self) -> SpaceFormSpec | None:
        if not self.expect_punct("{"):
            return None
        values: dict[str, int] = {}
        for field in ("n", "r", "ord"):
            i = self.ident(f"field {field!r}")
            if i is None:
                self.skip_statement()
                return None
            if self.toks[i] != field:
                self.error(i, f"expected field {field!r}, found {self.toks[i]!r}")
                return None
            if not self.expect_punct("="):
                return None
            value = self.integer(f"value of {field!r}", minimum=1)
            if value is None:
                return None
            values[field] = value
            if not self.expect_punct(";"):
                return None
        if not self.expect_punct("}"):
            return None
        try:
            return SpaceFormSpec(values["n"], values["r"], values["ord"])
        except GcaError as exc:
            self.error(0, str(exc))
            return None

    # -- bott ----------------------------------------------------------------

    def bott_block(self) -> BottFunction | None:
        if not self.expect_punct("{"):
            return None
        disc = self.bott_field("disc", self.rational)
        arcs = self.bott_field("arcs", lambda what: self.integer(what, minimum=0))
        points = self.bott_field("points", lambda what: self.integer(what, minimum=0))
        if disc is None or arcs is None or points is None:
            return None
        if not self.expect_punct("}"):
            return None
        # a descent of the turns reduced into [0, 1), a % 1 > b % 1, by
        # integer cross-multiplication
        if any((a.numerator % a.denominator) * b.denominator
               > (b.numerator % b.denominator) * a.denominator for a, b in zip(disc, disc[1:])):
            self.warning(0, "discontinuities were not sorted; sorting them")
        try:
            return BottFunction.build(disc, arcs, points)
        except GcaError as exc:
            self.error(0, str(exc))
            return None

    def bott_field(self, field: str, reader):
        i = self.ident(f"field {field!r}")
        if i is None:
            return None
        if self.toks[i] != field:
            self.error(i, f"expected field {field!r}, found {self.toks[i]!r}")
            return None
        if not self.expect_punct("="):
            return None
        values = []
        if self.toks[self.pos] == ";":
            self.pos += 1
            return values
        while True:
            v = reader(f"value in {field!r}")
            if v is None:
                return None
            values.append(v)
            if self.toks[self.pos] == ",":
                self.pos += 1
                continue
            break
        if not self.expect_punct(";"):
            return None
        return values


def parse(source: str | SourceSpec) -> ParseResult:
    """Parse one document; syntax and semantic problems become located
    diagnostics and an erroneous document yields no value."""
    text, expected = (source.text, source.kind) if isinstance(source, SourceSpec) else (source, None)
    parser = _Parser(text)
    value, kind = parser.document()
    if value is not None and expected is not None and kind != expected:
        parser.error(0, f"expected a {expected} document, found {kind}")
    if parser.failed:
        value = None
    return ParseResult(value, kind, parser.located())


def parse_path(path, kind: str | None = None) -> ParseResult:
    """Parse a UTF-8 file; one leading byte order mark is dropped.  (The
    ``utf-8-sig`` codec would drop it too, but it counts the offset of an
    undecodable byte from after the mark.)"""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return parse(SourceSpec(text=text.removeprefix("\ufeff"), kind=kind))


# ---------------------------------------------------------------------------
# canonical printing (parse . print == identity on parsed values)


def model_text(model: DgaModel) -> str:
    lines = [f"model {model.name} {{"]
    for g in model.generators:
        lines.append(f"  generator {g.name}:{g.degree};")
    for g in model.generators:
        dg = model.differential_of(g.name)
        if not dg.is_zero:
            lines.append(f"  d {g.name} = {model.format_element(dg)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def spaceform_text(spec: SpaceFormSpec) -> str:
    return (
        "spaceform {\n"
        f"  n = {spec.n};\n"
        f"  r = {spec.r};\n"
        f"  ord = {spec.element_order};\n"
        "}\n"
    )


def bott_text(f: BottFunction) -> str:
    disc = ", ".join(str(t) for t in f.discontinuities)
    arcs = ", ".join(str(v) for v in f.arc_values)
    points = ", ".join(str(v) for v in f.point_values)
    return (
        "bott {\n"
        f"  disc = {disc};\n"
        f"  arcs = {arcs};\n"
        f"  points = {points};\n"
        "}\n"
    )


def document_text(value) -> str:
    if isinstance(value, DgaModel):
        return model_text(value)
    if isinstance(value, SpaceFormSpec):
        return spaceform_text(value)
    if isinstance(value, BottFunction):
        return bott_text(value)
    raise TypeError(f"cannot print {type(value).__name__} as a document")
