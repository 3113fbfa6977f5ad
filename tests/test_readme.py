"""README's Python examples run as written and give what their comments say.

Each ```python block of README.md runs in a fresh namespace, one statement
at a time.  An expression statement followed by a `# value` comment, at the
end of its line or alone on the next one, must evaluate equal to that
literal.
"""
import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def _expected_comment(lines, stmt):
    """The `# value` text after an expression statement, or None."""
    tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
    if not tail and stmt.end_lineno < len(lines):
        tail = lines[stmt.end_lineno].strip()
    return tail[1:].strip() if tail.startswith("#") else None


def _run_block(block):
    """Run a block; return (value, literal) for each commented expression."""
    namespace, lines, checked = {}, block.splitlines(), []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), README.name, "eval"),
                         namespace)
            comment = _expected_comment(lines, stmt)
            if comment is not None:
                checked.append((value, ast.literal_eval(comment)))
        else:
            exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
    return checked


def test_readme_has_the_two_python_examples():
    blocks = _python_blocks()
    assert len(blocks) == 2
    assert "expand" in blocks[0] and "run_a1" in blocks[1]


@pytest.mark.parametrize("index, literals", [
    (0, [[1, -2, 3, -4, 5, -6, 7]]),  # the expand example
    (1, [True]),  # the run_a1 / render_a1_table quick start
])
def test_readme_python_example_gives_its_comments(index, literals, capsys):
    checked = _run_block(_python_blocks()[index])
    assert [literal for _, literal in checked] == literals
    for value, literal in checked:
        assert value == literal
    if index == 1:
        assert capsys.readouterr().out.splitlines()[-1] == "ok: yes"
