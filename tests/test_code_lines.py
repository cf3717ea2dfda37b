"""tools/code_lines.py on a synthetic module: docstrings, comment-only lines
and blank lines are left out, and a multi-line string that is not a
docstring counts on every line it spans."""

import ast
import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "code_lines.py")
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line

# a comment-only line


class Record:
    """Class docstring."""

    field = 1


def f(x):
    """Function
    docstring."""
    text = """a string
that is not a docstring"""
    return (x +
            1)


async def g():
    "One-line docstring."
    "A second string statement is code."
'''


def test_synthetic_module():
    # code: import, class, field, def f, text (2 lines), return (2 lines),
    # async def, the second string
    assert code_lines.count(SOURCE) == (len(SOURCE.splitlines()), 10)


def test_docstring_lines_only_take_first_statements():
    lines = code_lines.docstring_lines(ast.parse(SOURCE))
    assert lines == {1, 2, 10, 16, 17, 25}


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [row.split() for row in out] == [["3", "1", "a.py"], ["3", "2", "b.py"], ["6", "3", "total"]]
