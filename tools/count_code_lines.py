"""Count the code lines of Python files: lines that are not blank, not comments and not docstrings.

A line counts when it holds at least one token other than a comment, and no
part of it belongs to a module, class or function docstring.  A line that
carries code and a trailing comment counts; so does every line of a
multi-line string that is not a docstring.

Usage: python tools/count_code_lines.py PATH [PATH ...]

Each PATH is a .py file or a directory, searched recursively for .py files.
Prints one "count  path" line per file, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The 1-based line numbers covered by the docstrings in source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in the Python file at path."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def python_files(paths):
    """The .py files named by paths, directories searched recursively, in sorted order per path."""
    for arg in paths:
        path = Path(arg)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv):
    if not argv:
        print("usage: python tools/count_code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
