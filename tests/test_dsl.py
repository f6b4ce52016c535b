"""Parsing, diagnostics with locations, and print/parse round-trips."""

import random
import string
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from loopspace.bott import BottFunction, bott_index
from loopspace import dsl
from loopspace.dsl import KINDS, SourceSpec, _tokenize, document_text, parse, parse_path
from loopspace.gca import DgaModel
from loopspace.spaceforms import SpaceFormSpec

from helpers import reference_parse, reference_tokenize

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def test_parse_model_example():
    r = parse("model m { generator u2:2; generator u3:3; d u3 = u2^2; }")
    assert r.ok and r.kind == "dga"
    model = r.value
    assert [(g.name, g.degree) for g in model.generators] == [("u2", 2), ("u3", 3)]
    assert model.format_element(model.differential_of("u3")) == "u2^2"


def test_parse_bott_example_round_trips_through_index():
    r = parse("bott { disc = 1/4, 3/4; arcs = 1, 0; points = 0, 0; }")
    assert r.ok and r.kind == "bott"
    assert bott_index(r.value, 3) == 2
    assert parse(document_text(r.value)).value == r.value


def test_parse_spaceform_example():
    r = parse("spaceform { n = 3; r = 8; ord = 2; }")
    assert r.ok and r.value == SpaceFormSpec(3, 8, 2)


def test_undeclared_generator_has_location():
    source = "model m {\n  d u3 = u2^2;\n}"
    r = parse(source)
    assert not r.ok and r.value is None
    errs = r.errors()
    assert any(e.message == "undeclared generator 'u3'" and e.line == 2 and e.column == 5 for e in errs)


def test_degree_mismatch_diagnostic():
    r = parse("model m { generator u2:2; generator u5:5; d u5 = u2^2; }")
    assert not r.ok
    assert any("degree 4" in e.message and "degree 6" in e.message for e in r.errors())


def test_polynomial_forms():
    r = parse(
        "model m { generator u2:2; generator v2:2; generator u3:3;"
        " d u3 = 1/2*u2^2 + -3*u2*v2 + v2^2; }"
    )
    assert r.ok
    model = r.value
    du3 = model.differential_of("u3")
    assert du3.coefficient(model.monomial({"u2": 2})) == Fraction(1, 2)
    assert du3.coefficient(model.monomial({"u2": 1, "v2": 1})) == -3
    assert du3.coefficient(model.monomial({"v2": 2})) == 1


def test_zero_differential_and_comments():
    r = parse("# a comment\nmodel m {\n  generator u2:2; # trailing\n  d u2 = 0;\n}")
    assert r.ok
    assert r.value.differential_of("u2").is_zero


def test_duplicate_declarations_rejected():
    r = parse("model m { generator u2:2; generator u2:3; }")
    assert any("declared twice" in e.message for e in r.errors())
    r = parse("model m { generator u2:2; generator u3:3; d u3 = u2^2; d u3 = 0; }")
    assert any("declared twice" in e.message for e in r.errors())


def test_syntax_errors_are_located_and_recovered():
    source = "model m {\n  generator :2;\n  generator u2:2;\n}"
    r = parse(source)
    assert not r.ok
    assert all(1 <= e.line <= 4 for e in r.diagnostics)
    # recovery still sees the second declaration's duplicate-free parse
    assert any(e.line == 2 for e in r.errors())


def test_asymmetric_bott_rejected():
    r = parse("bott { disc = 1/4; arcs = 1; points = 0; }")
    assert not r.ok
    assert any("conjugation" in e.message for e in r.errors())


def test_unsorted_bott_warns_and_normalizes():
    r = parse("bott { disc = 3/4, 1/4; arcs = 0, 1; points = 0, 0; }")
    assert r.ok
    assert any(d.severity == "warning" for d in r.diagnostics)
    assert r.value.discontinuities == (Fraction(1, 4), Fraction(3, 4))
    assert r.value.arc_values == (1, 0)


@pytest.mark.parametrize("seed", range(4))
def test_sort_warning_exactly_on_a_descent_of_the_reduced_turns(seed):
    rng = random.Random(seed)
    warned = Counter()
    for _ in range(200):
        turns = [Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for _ in range(rng.randint(0, 5))]
        reduced = [t % 1 for t in turns]
        descent = any(a > b for a, b in zip(reduced, reduced[1:]))
        k = len(turns)
        text = (f"bott {{ disc = {', '.join(f'{t.numerator}/{t.denominator}' for t in turns)}; "
                f"arcs = {', '.join(['1'] * max(k, 1))}; points = {', '.join(['1'] * k)}; }}")
        warnings = [d.message for d in parse(text).diagnostics if d.severity == "warning"]
        assert warnings == (["discontinuities were not sorted; sorting them"] if descent else []), text
        warned[descent] += 1
    assert warned[True] and warned[False]


def test_empty_bott_lists():
    r = parse("bott { disc = ; arcs = 2; points = ; }")
    assert r.ok
    assert r.value == BottFunction.constant(2)


def test_spaceform_semantic_error_located():
    r = parse("spaceform { n = 4; r = 4; ord = 2; }")
    assert not r.ok
    assert any("even-dimensional" in e.message for e in r.errors())
    r = parse("spaceform { n = 3; r = 8; ord = 5; }")
    assert any("divide" in e.message for e in r.errors())


def test_wrong_field_order_rejected():
    r = parse("spaceform { r = 8; n = 3; ord = 2; }")
    assert not r.ok


def test_unknown_block_and_trailing_content():
    r = parse("module m { }")
    assert not r.ok and r.value is None
    r = parse("spaceform { n = 3; r = 8; ord = 2; } extra")
    assert not r.ok
    assert any("after the block" in e.message for e in r.errors())


def test_denominator_zero_is_a_diagnostic():
    r = parse("bott { disc = 1/0; arcs = 1; points = 0; }")
    assert not r.ok
    assert any("denominator zero" in e.message for e in r.errors())


def test_kind_mismatch_via_source_spec():
    r = parse(SourceSpec(text="spaceform { n = 3; r = 8; ord = 2; }", kind="dga"))
    assert not r.ok
    assert any("expected a dga document" in e.message for e in r.errors())


def test_fixture_files_round_trip():
    files = sorted(FIXTURES.iterdir())
    assert len(files) >= 6
    for path in files:
        result = parse_path(path)
        assert result.ok, f"{path}: {[d.format() for d in result.diagnostics]}"
        again = parse(document_text(result.value))
        assert again.ok
        assert again.value == result.value


def test_every_diagnostic_points_inside_source():
    sources = [
        "model m { generator u2:; }",
        "model { }",
        "bott disc = ;",
        "spaceform { n = 0; r = 2; ord = 2; }",
        "model m { generator u2:2; d u2 = ^; }",
        "\n\nmodel m {",
        "model m { generator u2:2; d u2 = 1*; }",
    ]
    for source in sources:
        r = parse(source)
        assert not r.ok
        lines = source.split("\n")
        for d in r.diagnostics:
            assert 1 <= d.line <= len(lines)
            assert 1 <= d.column <= len(lines[d.line - 1]) + 1


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        pos = rng.randrange(len(chars) + 1) if chars else 0
        if op == 0 and chars:
            del chars[min(pos, len(chars) - 1)]
        elif op == 1:
            chars.insert(pos, rng.choice("{};:=^*,+/ \n\tmodelbott0123456789é世"))
        elif chars:
            chars[min(pos, len(chars) - 1)] = rng.choice("{};#ab12/^")
    return "".join(chars)


def test_fuzz_smoke_no_crashes():
    rng = random.Random(424242)
    seeds = [
        "model m { generator u2:2; generator u3:3; d u3 = u2^2; }",
        "spaceform { n = 3; r = 8; ord = 2; }",
        "bott { disc = 1/4, 3/4; arcs = 1, 0; points = 0, 0; }",
    ]
    for _ in range(1500):
        kind = rng.randrange(3)
        if kind == 0:
            text = "".join(rng.choice("mdgenrator {};:=^*,+/0123456789 \n") for _ in range(rng.randint(0, 80)))
        elif kind == 1:
            text = "".join(chr(rng.randint(1, 0x2FFF)) for _ in range(rng.randint(0, 40)))
        else:
            text = _mutate(rng, rng.choice(seeds))
        result = parse(text)
        lines = text.split("\n")
        for d in result.diagnostics:
            assert 1 <= d.line <= len(lines)
            assert d.column >= 1


# -- the scanner against the character-by-character reference ----------------


def _bench_dsl_texts() -> list[str]:
    """Every DSL text the four bench workloads generate at seed 43: the
    files their commands read, malformed ones included, and the documents
    (and their reprints) that the round-trip jobs parse, recorded by running
    those jobs against a recording parser."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    texts: list[str] = []

    def recording_parse(source):
        texts.append(source)
        return parse(source)

    lib = SimpleNamespace(dsl=SimpleNamespace(parse=recording_parse, document_text=document_text))
    for name in sorted(workloads.WORKLOADS):
        jobs, files = workloads.generate(name, lib, 43, Path("jobs"))
        texts.extend(files.values())
        for job in jobs:
            if job.label.startswith("round-trip"):
                job.run()
    return texts


_ALPHABET = (string.digits, "-", "/", string.ascii_letters, "_", "{};:=^*,+", "#", "\n",
             " \t\r\f\v", "@", "\x00", "é")


def _random_text(rng: random.Random) -> str:
    """A string over every class of the alphabet, each class equally likely."""
    return "".join(rng.choice(rng.choice(_ALPHABET)) for _ in range(rng.randint(0, 30)))


def test_tokens_match_the_reference_on_fixtures_and_bench_documents():
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.iterdir())]
    assert len(texts) >= 8
    bench = _bench_dsl_texts()
    assert len(bench) > 300 and any(not parse(t).ok for t in bench)  # malformed ones are among them
    for text in texts + bench:
        assert _tokenize(text) == reference_tokenize(text), text


def test_tokens_match_the_reference_on_random_strings():
    rng = random.Random(20240607)
    edges = ["", "\n", "-", "--1", "1/", "1/2/3", "-0/0", "a#b\nc", "\r\n", "# end", "x\n# end",
             "12abc", "a1_b-2", "\x00é", "\n\n\t{"]
    kinds = set()
    for text in edges + [_random_text(rng) for _ in range(20_000)]:
        tokens = _tokenize(text)
        assert tokens == reference_tokenize(text), repr(text)
        kinds.update(t.kind for t in tokens)
    assert kinds == {"NUMBER", "IDENT", "PUNCT", "ERROR", "EOF"}


# -- the parser against the token-object reference ----------------------------


def _fixture_texts() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.iterdir())]


def _assert_parses_like_the_reference(text: str, kind: str):
    """The same value, kind and diagnostics as the reference, with no kind
    asked for and with `kind` asked for; returns the first result."""
    result = parse(text)
    assert result == reference_parse(text), repr(text)
    spec = SourceSpec(text=text, kind=kind)
    assert parse(spec) == reference_parse(spec), (kind, text)
    return result


def _mutant(rng: random.Random, seeds: list[str]) -> str:
    """A seed document after one to three character deletions, insertions,
    replacements, truncations or splices, or a random string."""
    if rng.random() < 0.1:
        return _random_text(rng)
    text = rng.choice(seeds)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        op = rng.randrange(5)
        if op == 0:
            text = text[:pos] + text[pos + rng.randint(1, 3):]
        elif op == 1:
            text = text[:pos] + rng.choice(rng.choice(_ALPHABET)) + text[pos:]
        elif op == 2:
            text = text[:pos] + rng.choice(rng.choice(_ALPHABET)) + text[pos + 1:]
        elif op == 3:
            text = text[:pos]
        else:
            other = rng.choice(seeds)
            text = text[:pos] + other[rng.randint(0, len(other)):]
    return text


def test_parse_matches_the_reference_on_fixtures_and_bench_documents():
    texts = _fixture_texts() + _bench_dsl_texts()
    for i, text in enumerate(texts):
        _assert_parses_like_the_reference(text, KINDS[i % len(KINDS)])


def test_parse_matches_the_reference_on_mutants():
    seeds = _fixture_texts() + sorted(set(_bench_dsl_texts()))
    rng = random.Random(31337)
    failed = 0
    for _ in range(40_000):
        failed += not _assert_parses_like_the_reference(_mutant(rng, seeds), rng.choice(KINDS)).ok
    assert 20_000 < failed < 40_000  # most mutants are erroneous, not all


def test_well_formed_documents_compute_no_positions(monkeypatch):
    texts = _fixture_texts() + [text for text in _bench_dsl_texts() if reference_parse(text).ok]
    expected = [reference_parse(text) for text in texts]

    def no_positions(text):
        raise AssertionError("a well-formed document computed token positions")

    monkeypatch.setattr(dsl, "_tokenize", no_positions)
    assert [parse(text) for text in texts] == expected
    with pytest.raises(AssertionError):
        parse("model m { generator u2; }")  # the patch is in effect
