"""Total and code lines per module of a package directory.

A code line is a line that holds a token other than a comment, outside the
docstrings: the first string statement of a module, class or function. So
blank lines, comment-only lines and every line of a docstring are left out,
while a line inside a multi-line string that is not a docstring still
counts. Lines are counted with `ast` (docstrings) and `tokenize` (tokens),
so the count does not depend on formatting inside a line. Usage:

    python3 tools/code_lines.py src/hkit

prints one `lines code module` row per module, sorted by path, and a total
row. Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(source):
    """(total lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/code_lines.py PACKAGE_DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        lines, kept = count(path.read_text(encoding="utf-8"))
        total += lines
        code += kept
        print(f"{lines:6d} {kept:6d} {path.relative_to(root)}")
    print(f"{total:6d} {code:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
