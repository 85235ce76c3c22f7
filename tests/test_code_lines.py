"""The counting rules of tools/code_lines.py, the code-line count CI prints."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def _count(tmp_path, source, name="m.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return code_lines.code_lines(path)


@pytest.mark.parametrize("source, expected", [
    ('"""Module docstring,\nover two lines."""\nx = 1\n', 1),
    ('class Box:\n    """Class\n    docstring."""\n    size = 2\n', 2),
    ('def f():\n    """Function docstring."""\n    return 1\n', 2),
    ('async def f():\n    """Coroutine docstring."""\n    return 1\n', 2),
    ('def f():\n    x = 1\n    """Not a docstring: not the first statement."""\n', 3),
    ('x = """a string\nover two lines"""\n', 2),
], ids=["module", "class", "function", "async function", "later string", "assigned string"])
def test_docstrings_count_nothing(tmp_path, source, expected):
    assert _count(tmp_path, source) == expected


def test_comments_and_blank_lines_count_nothing(tmp_path):
    source = """\
    # a comment line

    import os  # a comment after code


    def f():
        # an indented comment

        return os.sep
    """
    assert _count(tmp_path, source) == 3


def test_a_statement_over_several_lines_counts_each_line(tmp_path):
    # every line holding a token counts; a blank line inside the brackets does not
    source = """\
    total = (1 +
             2 +

             3)
    call(a,
         b)
    """
    assert _count(tmp_path, source) == 5


def test_main_prints_each_file_and_a_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("y = 2\nz = 3\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "2", "3"]
    assert lines[-1].split()[1] == "total"
    assert code_lines.main([str(tmp_path / "pkg" / "a.py")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert code_lines.main([]) == 2
