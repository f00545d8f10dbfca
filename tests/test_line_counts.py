import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_four_kinds_sum_to_the_total():
    spec = importlib.util.spec_from_file_location("line_counts", ROOT / "tools" / "line_counts.py")
    line_counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(line_counts)
    sample = '''"""Module docstring,

over three lines, one blank."""

x = """a string

that is code"""  # a trailing comment
# a comment line


def f():
    """One line."""
    return (1,
            2)
'''
    assert line_counts.count_source(sample) == {
        "total": 14, "code": 5, "docstring": 3, "comment": 1, "blank": 5,
    }
    counts = line_counts.count_tree(ROOT / "src" / "magari4")
    assert counts["total"] == sum(n for kind, n in counts.items() if kind != "total")
    assert counts["code"] > 0 and counts["docstring"] > 0 and counts["comment"] > 0
