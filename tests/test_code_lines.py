"""The code-line counter of tests/code_lines.py, on a small sample source."""

import code_lines

SAMPLE = '''"""A module docstring
on two lines."""

import math  # a comment after code counts once

# a comment alone


def area(r):
    """A function docstring."""
    text = """a string that is
no docstring"""
    return (math.pi
            * r ** 2)


class Shape:
    "A class docstring."

    def __init__(self):
        pass
'''


def test_the_counter_leaves_out_docstrings_comments_and_blank_lines():
    # import, def, the two lines of text, the two of the return, class, def, pass
    assert code_lines.code_lines(SAMPLE) == 9
    assert code_lines.docstring_lines(SAMPLE) == {1, 2, 10, 18}
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    # a string statement after the first is code
    assert code_lines.code_lines('x = 1\n"not a docstring"\n') == 2


def test_the_counter_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("# nothing\nx = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 9\ntotal 10\n"
