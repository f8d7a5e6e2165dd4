"""The README's library quick tour runs and gives the values its comments
state, so the documentation cannot drift from the code."""

import ast
import io
import re
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def run_quick_tour() -> tuple[dict, dict]:
    """Run the fenced block under "Library quick tour" statement by
    statement. Returns the value of each expression statement and the
    comment on its line, both keyed by the statement's source text."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S)
    assert match, "README.md has no quick tour block"
    source = match.group(1)
    comments = {
        tok.start[0]: tok.string.lstrip("# ").rstrip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    values, notes = {}, {}
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            expression = compile(ast.Expression(node.value), "<tour>", "eval")
            values[code] = eval(expression, namespace)
            notes[code] = comments.get(node.end_lineno, "")
        else:
            exec(compile(ast.Module([node], []), "<tour>", "exec"), namespace)
    return values, notes


@pytest.fixture(scope="module")
def tour():
    return run_quick_tour()


def test_fractions_in_comments(tour):
    values, notes = tour
    stated = {code: Fraction(note) for code, note in notes.items()
              if re.fullmatch(r"\d+/\d+", note)}
    assert sorted(float(x) for x in stated.values()) == sorted([77 / 48, 5 / 3, 18 / 7])
    for code, fraction in stated.items():
        assert values[code] == pytest.approx(float(fraction), abs=1e-12), code


def test_contraction_gap_bound_and_dominance(tour):
    values, notes = tour
    (contraction,) = [c for c, note in notes.items() if note == "cycle contraction 0.16"]
    assert values[contraction].cycle_contraction == pytest.approx(0.16, abs=1e-12)
    (bound,) = [c for c, note in notes.items() if note == "certified part of the 1/16 gap"]
    assert 0.0 <= values[bound] <= 1.0 / 16.0 + 1e-12
    (dominance,) = [c for c, note in notes.items() if note == "dominance: >= -1e-10"]
    assert values[dominance] >= -1e-10
