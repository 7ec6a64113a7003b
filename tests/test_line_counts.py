"""The line-count rule of tools/line_counts.py."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "line_counts", ROOT / "tools" / "line_counts.py")
line_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_counts)

FIXTURE = '''"""Module docstring,

over three lines."""
import os  # a trailing comment is code

# a comment line


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        s = """not a docstring
        """
        return s
'''


def test_fixture_counts():
    assert line_counts.count(FIXTURE) == {
        "code": 6, "docstring": 5, "comment": 1, "blank": 5}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "mtfade").glob("*.py")),
                         ids=lambda p: p.name)
def test_counts_sum_to_the_lines(path):
    source = path.read_text()
    assert sum(line_counts.count(source).values()) \
        == len(source.splitlines())


def test_main_prints_a_total(capsys):
    line_counts.main([str(ROOT / "src" / "mtfade")])
    rows = capsys.readouterr().out.splitlines()
    total = [int(v) for v in rows[-1].split()[1:]]
    assert rows[-1].startswith("total") and len(total) == 4
    assert sum(total) == sum(len(p.read_text().splitlines()) for p in
                             (ROOT / "src" / "mtfade").glob("*.py"))
