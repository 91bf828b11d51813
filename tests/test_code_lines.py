"""scripts/code_lines.py counts only the lines that hold code."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = (1,
            2)

    def area(self):
        """Function docstring,

        over three lines."""
        text = """a string that is
        not a docstring"""
        return math.prod(self.size), text
'''


def test_counts_code_lines_of_a_fixture():
    # import, class, size (2 lines), def, text (2 lines), return
    assert code_lines.code_lines(FIXTURE) == 8


def test_counts_every_module(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     8  a", "     1  b", "     9  total"]
