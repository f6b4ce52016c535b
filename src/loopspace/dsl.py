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
are fractions of a turn.  The tokens come from one compiled pattern, and
any character it does not expect is an error token.  Parsing never raises
on malformed input: every problem becomes a :class:`Diagnostic` with a line
and column inside the source, and a document with errors yields no value.
"""

from __future__ import annotations

import re
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


# the alternatives are tried in order: a newline, blanks and a comment make
# no token (their groups are unnamed), and any other single character is an ERROR
_TOKEN = re.compile(
    r"(?P<NEWLINE>\n)|[ \t\r\f\v]+|#[^\n]*"
    r"|(?P<NUMBER>-?[0-9]+(?:/[0-9]+)?)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<PUNCT>[{};:=^*,+])|(?P<ERROR>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    """The tokens of the text, each at its line and column (both from 1),
    and an EOF token one column past the last character."""
    tokens: list[_Token] = []
    line, line_start = 1, 0  # line_start: the offset of the line's first character
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
        elif kind:
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- helpers ---------------------------------------------------------

    @property
    def tok(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tok
        if t.kind != "EOF":
            self.pos += 1
        return t

    def error(self, tok: _Token, message: str) -> None:
        self.diagnostics.append(Diagnostic("error", tok.line, tok.column, message))

    def warning(self, tok: _Token, message: str) -> None:
        self.diagnostics.append(Diagnostic("warning", tok.line, tok.column, message))

    def expect_punct(self, ch: str) -> _Token | None:
        t = self.tok
        if t.kind == "PUNCT" and t.text == ch:
            return self.advance()
        self.error(t, f"expected {ch!r}" + (f", found {t.text!r}" if t.text else " before end of input"))
        return None

    def skip_statement(self) -> None:
        """Recover to just past the next ';' (or stop before '}'/EOF)."""
        while True:
            t = self.tok
            if t.kind == "EOF" or (t.kind == "PUNCT" and t.text == "}"):
                return
            self.advance()
            if t.kind == "PUNCT" and t.text == ";":
                return

    def integer(self, what: str, minimum: int | None = None) -> int | None:
        t = self.tok
        if t.kind != "NUMBER" or "/" in t.text:
            self.error(t, f"expected an integer {what}" + (f", found {t.text!r}" if t.text else ""))
            return None
        self.advance()
        value = int(t.text)
        if minimum is not None and value < minimum:
            self.error(t, f"{what} must be >= {minimum}, got {value}")
            return None
        return value

    def rational(self, what: str) -> Fraction | None:
        t = self.tok
        if t.kind != "NUMBER":
            self.error(t, f"expected a rational {what}" + (f", found {t.text!r}" if t.text else ""))
            return None
        self.advance()
        try:
            return Fraction(t.text)
        except ZeroDivisionError:
            self.error(t, f"{what} has denominator zero")
            return None

    def ident(self, what: str) -> _Token | None:
        t = self.tok
        if t.kind != "IDENT":
            self.error(t, f"expected {what}" + (f", found {t.text!r}" if t.text else " before end of input"))
            return None
        return self.advance()

    # -- document --------------------------------------------------------

    def document(self):
        t = self.tok
        if t.kind == "IDENT" and t.text in _BLOCK_KEYWORDS:
            kind = _BLOCK_KEYWORDS[t.text]
            value = {"dga": self.dga_block, "spaceform": self.spaceform_block, "bott": self.bott_block}[kind]()
            end = self.tok
            if end.kind == "ERROR":
                self.error(end, f"unexpected character {end.text!r}")
            elif end.kind != "EOF":
                self.error(end, f"unexpected content after the block: {end.text!r}")
            return value, kind
        if t.kind == "ERROR":
            self.error(t, f"unexpected character {t.text!r}")
        elif t.kind == "EOF":
            self.error(t, "empty document; expected 'model', 'spaceform' or 'bott'")
        else:
            self.error(t, f"expected 'model', 'spaceform' or 'bott', found {t.text!r}")
        return None, None

    # -- dga -------------------------------------------------------------

    def dga_block(self) -> DgaModel | None:
        self.advance()  # "model"
        name_tok = self.ident("a model name")
        if name_tok is None or self.expect_punct("{") is None:
            return None
        generators: list[tuple[str, int]] = []
        declared: dict[str, int] = {}
        diffs: list[tuple[_Token, list[tuple[Fraction, list[tuple[_Token, int]], _Token]]]] = []
        diff_targets: set[str] = set()
        while True:
            t = self.tok
            if t.kind == "PUNCT" and t.text == "}":
                self.advance()
                break
            if t.kind == "EOF":
                self.error(t, "expected '}' to close the model block")
                break
            if t.kind == "IDENT" and t.text == "generator":
                self.advance()
                gname = self.ident("a generator name")
                if gname is None or self.expect_punct(":") is None:
                    self.skip_statement()
                    continue
                degree = self.integer("degree", minimum=1)
                if degree is None:
                    self.skip_statement()
                    continue
                if gname.text in declared:
                    self.error(gname, f"generator {gname.text!r} declared twice")
                else:
                    declared[gname.text] = degree
                    generators.append((gname.text, degree))
                self.expect_punct(";") or self.skip_statement()
            elif t.kind == "IDENT" and t.text == "d":
                self.advance()
                target = self.ident("a generator name after 'd'")
                if target is None or self.expect_punct("=") is None:
                    self.skip_statement()
                    continue
                poly = self.poly()
                if poly is None:
                    self.skip_statement()
                    continue
                if target.text in diff_targets:
                    self.error(target, f"differential of {target.text!r} declared twice")
                else:
                    diff_targets.add(target.text)
                    diffs.append((target, poly))
                self.expect_punct(";") or self.skip_statement()
            elif t.kind == "ERROR":
                self.error(t, f"unexpected character {t.text!r}")
                self.advance()
            else:
                self.error(t, f"expected 'generator' or 'd', found {t.text!r}")
                self.skip_statement()
        return self.build_model(name_tok.text, generators, declared, diffs)

    def poly(self):
        """List of (coefficient, [(name token, exponent), ...], first token).
        Returns None on a syntax error."""
        t = self.tok
        if t.kind == "NUMBER" and t.text == "0" and self.tokens[self.pos + 1].text == ";":
            self.advance()
            return []
        terms = []
        while True:
            term = self.term()
            if term is None:
                return None
            terms.append(term)
            if self.tok.kind == "PUNCT" and self.tok.text == "+":
                self.advance()
                continue
            break
        return terms

    def term(self):
        first = self.tok
        coeff = Fraction(1)
        if first.kind == "NUMBER":
            value = self.rational("coefficient")
            if value is None:
                return None
            coeff = value
            if self.expect_punct("*") is None:
                return None
        factors: list[tuple[_Token, int]] = []
        while True:
            name = self.ident("a generator name in the term")
            if name is None:
                return None
            exponent = 1
            if self.tok.kind == "PUNCT" and self.tok.text == "^":
                self.advance()
                e = self.integer("exponent", minimum=0)
                if e is None:
                    return None
                exponent = e
            factors.append((name, exponent))
            if self.tok.kind == "PUNCT" and self.tok.text == "*":
                self.advance()
                continue
            break
        return (coeff, factors, first)

    def build_model(self, name, generators, declared, diffs) -> DgaModel | None:
        raw_diffs: dict[str, list] = {}
        for target, terms in diffs:
            if target.text not in declared:
                self.error(target, f"undeclared generator {target.text!r}")
                continue
            expected = declared[target.text] + 1
            raw_terms = []
            ok = True
            for coeff, factors, first in terms:
                exponents: dict[str, int] = {}
                degree = 0
                for name_tok, exponent in factors:
                    if name_tok.text not in declared:
                        self.error(name_tok, f"undeclared generator {name_tok.text!r}")
                        ok = False
                        continue
                    exponents[name_tok.text] = exponents.get(name_tok.text, 0) + exponent
                    degree += declared[name_tok.text] * exponent
                if not ok:
                    continue
                if degree != expected:
                    self.error(
                        first,
                        f"term has degree {degree}; d {target.text} requires degree {expected}",
                    )
                    ok = False
                    continue
                raw_terms.append((coeff, exponents))
            if ok:
                raw_diffs[target.text] = raw_terms
        if any(d.severity == "error" for d in self.diagnostics):
            return None
        try:
            return DgaModel(generators, raw_diffs, name=name)
        except GcaError as exc:  # structural problems not caught above
            self.error(self.tokens[0], str(exc))
            return None

    # -- spaceform ---------------------------------------------------------

    def spaceform_block(self) -> SpaceFormSpec | None:
        keyword = self.advance()  # "spaceform"
        if self.expect_punct("{") is None:
            return None
        values: dict[str, int] = {}
        for field in ("n", "r", "ord"):
            t = self.ident(f"field {field!r}")
            if t is None:
                self.skip_statement()
                return None
            if t.text != field:
                self.error(t, f"expected field {field!r}, found {t.text!r}")
                return None
            if self.expect_punct("=") is None:
                return None
            value = self.integer(f"value of {field!r}", minimum=1)
            if value is None:
                return None
            values[field] = value
            if self.expect_punct(";") is None:
                return None
        if self.expect_punct("}") is None:
            return None
        try:
            return SpaceFormSpec(values["n"], values["r"], values["ord"])
        except ValueError as exc:
            self.error(keyword, str(exc))
            return None

    # -- bott ----------------------------------------------------------------

    def bott_block(self) -> BottFunction | None:
        keyword = self.advance()  # "bott"
        if self.expect_punct("{") is None:
            return None
        disc = self.bott_field("disc", self.rational)
        arcs = self.bott_field("arcs", lambda what: self.integer(what, minimum=0))
        points = self.bott_field("points", lambda what: self.integer(what, minimum=0))
        if disc is None or arcs is None or points is None:
            return None
        if self.expect_punct("}") is None:
            return None
        normalized = [Fraction(t) % 1 for t in disc]
        if normalized != sorted(normalized):
            self.warning(keyword, "discontinuities were not sorted; sorting them")
        try:
            return BottFunction.build(disc, arcs, points)
        except ValueError as exc:
            self.error(keyword, str(exc))
            return None

    def bott_field(self, field: str, reader):
        t = self.ident(f"field {field!r}")
        if t is None:
            return None
        if t.text != field:
            self.error(t, f"expected field {field!r}, found {t.text!r}")
            return None
        if self.expect_punct("=") is None:
            return None
        values = []
        if self.tok.kind == "PUNCT" and self.tok.text == ";":
            self.advance()
            return values
        while True:
            v = reader(f"value in {field!r}")
            if v is None:
                return None
            values.append(v)
            if self.tok.kind == "PUNCT" and self.tok.text == ",":
                self.advance()
                continue
            break
        if self.expect_punct(";") is None:
            return None
        return values


def parse(source: str | SourceSpec) -> ParseResult:
    """Parse one document; syntax and semantic problems become located
    diagnostics and an erroneous document yields no value."""
    spec = source if isinstance(source, SourceSpec) else SourceSpec(text=source)
    parser = _Parser(spec.text)
    value, kind = parser.document()
    if value is not None and spec.kind is not None and kind != spec.kind:
        parser.error(parser.tokens[0], f"expected a {spec.kind} document, found {kind}")
        value = None
    if any(d.severity == "error" for d in parser.diagnostics):
        value = None
    return ParseResult(value, kind, tuple(parser.diagnostics))


def parse_path(path, kind: str | None = None) -> ParseResult:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return parse(SourceSpec(text=text, kind=kind))


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
