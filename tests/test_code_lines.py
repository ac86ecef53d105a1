"""``tests/code_lines.py`` counts the lines that hold code, on a fixture."""

from __future__ import annotations

from code_lines import code_lines, main

FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves the line code

# a comment line


class Box:
    """A class docstring."""

    text = """a string that is no docstring,
    over two lines"""

    def area(self, side):
        """A function docstring."""
        "a second string is no docstring"
        return math.prod((side,
                          side))
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, class, text (2 lines), def, the second string, return (2 lines)
    assert code_lines(FIXTURE) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(FIXTURE)
    b.write_text("x = 1\n\n# done\n")
    assert main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     8  a.py", "     1  b.py", "     9  total", ""]
