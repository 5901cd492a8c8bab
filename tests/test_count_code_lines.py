"""tools/count_code_lines.py: which lines of a Python file count as code."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_code_lines", _TOOL)
count_code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_code_lines)


def _count(tmp_path, source):
    path = tmp_path / "sample.py"
    path.write_text(textwrap.dedent(source))
    return count_code_lines.code_lines(path)


@pytest.mark.parametrize("source, want", [
    # module, class and function docstrings, one-line and multi-line
    ('''\
     """Module docstring
     over two lines."""
     class A:
         """Class docstring."""
         def f(self):
             """Function
             docstring."""
             return 1
     ''', 3),
    # comment-only lines, indented or not
    ('''\
     # a comment
     x = 1
         # an indented comment
     y = 2
     ''', 2),
    # blank lines, empty or holding only spaces
    ("x = 1\n\n   \ny = 2\n", 2),
    # code followed by a trailing comment
    ("x = 1  # trailing\n", 1),
    # every line of a multi-line string that is not a docstring
    ('''\
     x = 1
     TEXT = """first
     second

     fourth"""
     ''', 5),
])
def test_code_lines(tmp_path, source, want):
    assert _count(tmp_path, source) == want


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n# note\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    assert count_code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", str(tmp_path / "a.py")], ["2", str(tmp_path / "b.py")], ["3", "total"]]


def test_main_without_paths_prints_usage(capsys):
    assert count_code_lines.main([]) == 2
    assert "usage" in capsys.readouterr().err
