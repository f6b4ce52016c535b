"""README's Python examples run as written, and the values their comments
show are the values the library returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _leading_literal(comment: str):
    """The Python literal a comment starts with, as (value,), or () when it
    starts with prose: a bracketed literal up to its matching bracket, or
    else the first word, cut at a space, a comma or a colon."""
    if comment[:1] in "([{":
        depth = 0
        for end, char in enumerate(comment):
            depth += (char in "([{") - (char in ")]}")
            if not depth:
                break
        text = comment[:end + 1]
    else:
        text = re.split(r"[\s,:]", comment, maxsplit=1)[0]
    try:
        return (ast.literal_eval(text),)
    except (ValueError, SyntaxError):
        return ()


def test_readme_python_blocks_run_and_match_their_comments():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 3
    checked = []
    for block in blocks:
        namespace: dict = {}
        lines = block.splitlines()
        for statement in ast.parse(block).body:
            if not isinstance(statement, ast.Expr):
                exec(compile(ast.Module([statement], type_ignores=[]), str(README), "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(statement.value), str(README), "eval"), namespace)
            comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
            for expected in _leading_literal(comment):
                assert value == expected, (ast.unparse(statement), value)
                checked.append(expected)
    assert checked == [(1, 0, 2, 0, 2, 0, 2, 0, 2), {2: 1, 3: 1}, 4, [0, 2, 2, 4], False]
